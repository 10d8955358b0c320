//! Integration tests for the `limscan` command-line binary.

use std::path::PathBuf;
use std::process::Command;

fn limscan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_limscan"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("limscan_cli_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn info_reports_circuit_and_scan_shape() {
    let out = limscan().args(["info", "s27"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 inputs"), "{text}");
    assert!(text.contains("chain of 3 flip-flops"), "{text}");
}

#[test]
fn generate_then_compact_roundtrip() {
    let prog = temp_path("s27.prog");
    let out = limscan()
        .args(["generate", "s27", "-o", prog.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prog).expect("program written");
    assert!(text.starts_with("# limscan test program"));
    assert!(text.contains("INPUTS 6"));

    let compacted = temp_path("s27_compacted.prog");
    let out = limscan()
        .args([
            "compact",
            "s27",
            prog.to_str().unwrap(),
            "-o",
            compacted.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("faults detected"), "{stderr}");
    assert!(compacted.exists());
}

#[test]
fn budgeted_compact_stops_with_status_3_and_writes_the_best_program() {
    let prog = temp_path("s27_uncompacted.prog");
    let out = limscan()
        .args([
            "generate",
            "s27",
            "--no-compact",
            "-o",
            prog.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stopped = temp_path("s27_stopped.prog");
    let out = limscan()
        .args([
            "compact",
            "s27",
            prog.to_str().unwrap(),
            "--max-vectors",
            "1",
            "-o",
            stopped.to_str().unwrap(),
        ])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(stderr.contains("stopped early"), "{stderr}");
    let len = |path: &PathBuf| {
        let text = std::fs::read_to_string(path).expect("program written");
        limscan::scan::program::parse_program(&text)
            .expect("program parses")
            .len()
    };
    assert!(len(&stopped) <= len(&prog));
}

/// Runs `limscan` with `--trace` and `--metrics` and checks both outputs:
/// the trace file passes the structural normalizer, and the stderr report
/// names `phase` among its phase lines.
fn assert_traced(args: &[&str], trace: &std::path::Path, phase: &str) {
    let out = limscan()
        .args(args)
        .args(["--trace", trace.to_str().unwrap(), "--metrics"])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let text = std::fs::read_to_string(trace).expect("trace written");
    if let Err(e) = limscan::obs::shape::structural_lines(&text) {
        panic!("{}: malformed trace: {e}", trace.display());
    }
    assert!(stderr.contains("== flow metrics =="), "{stderr}");
    assert!(
        stderr.lines().any(|line| {
            let words: Vec<_> = line.split_whitespace().collect();
            words.first() == Some(&phase) && words.last() == Some(&"us")
        }),
        "no `{phase}` phase line in:\n{stderr}"
    );
}

#[test]
fn trace_and_metrics_flags_write_a_valid_trace_and_a_phase_report() {
    let prog = temp_path("s27_traced.prog");
    let prog = prog.to_str().unwrap();
    assert_traced(
        &["generate", "s27", "-o", prog],
        &temp_path("s27_generate.jsonl"),
        "generate",
    );
    let compacted = temp_path("s27_traced_compacted.prog");
    assert_traced(
        &["compact", "s27", prog, "-o", compacted.to_str().unwrap()],
        &temp_path("s27_compact.jsonl"),
        "omit",
    );
}

#[test]
fn generate_accepts_bench_files_and_engine_flags() {
    // Write a .bench file, then run the genetic engine on it uncompacted.
    let bench = temp_path("toy.bench");
    std::fs::write(
        &bench,
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nq = DFF(d)\nd = NAND(a, q)\ny = XOR(q, b)\n",
    )
    .expect("write bench");
    let out = limscan()
        .args([
            "generate",
            bench.to_str().unwrap(),
            "--engine",
            "genetic",
            "--no-compact",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INPUTS 4"), "{stdout}"); // 2 + scan_sel + scan_inp
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let out = limscan()
        .args(["info", "no-such-circuit"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));

    let out = limscan()
        .args(["generate", "s27", "--engine", "quantum"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Invalid chain counts must be clean errors, not panics.
    for chains in ["0", "9"] {
        let out = limscan()
            .args(["generate", "s27", "--chains", chains])
            .output()
            .expect("spawn");
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error:"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }

    let out = limscan().args(["frobnicate"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = limscan().arg("--help").output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
