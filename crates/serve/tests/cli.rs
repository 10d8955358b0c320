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

    // Invalid chain counts and durations must be clean errors, not panics.
    for flags in [
        ["--chains", "0"],
        ["--chains", "9"],
        ["--deadline", "-1"],
        ["--deadline", "1e300"],
    ] {
        let out = limscan()
            .args(["generate", "s27"])
            .args(flags)
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

/// The cyclic source of the flow gate's tests: a combinational self-loop
/// on line 6, which also dangles.
const CYCLIC_SRC: &str = "\
INPUT(a)
OUTPUT(y)
y = AND(a, q)
q = DFF(g)
g = NOT(y)
loopy = OR(loopy, a)
";

/// Runs `limscan lint` with `args` from the test directory; returns the
/// exit status and stdout.
fn lint(args: &[&str]) -> (Option<i32>, String) {
    let out = limscan()
        .arg("lint")
        .args(args)
        .current_dir(temp_path(""))
        .output()
        .expect("spawn");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn lint_exit_statuses_follow_error_findings() {
    let (status, stdout) = lint(&["s27"]);
    assert_eq!(status, Some(0), "{stdout}");

    // Warnings alone are not a failure, even though they are printed.
    std::fs::write(
        temp_path("dangling.bench"),
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ndead = NOT(a)\n",
    )
    .expect("write bench");
    let (status, stdout) = lint(&["dangling.bench"]);
    assert_eq!(status, Some(0), "{stdout}");
    assert!(stdout.contains("warning[L004] dangling-gate"), "{stdout}");
    assert!(
        stdout.ends_with("dangling.bench: 0 error(s), 2 warning(s), 0 info\n"),
        "{stdout}"
    );

    std::fs::write(temp_path("cyclic.bench"), CYCLIC_SRC).expect("write bench");
    let (status, stdout) = lint(&["cyclic.bench"]);
    assert_eq!(status, Some(1), "{stdout}");
    assert!(stdout.contains("cyclic.bench:6: error[L001]"), "{stdout}");
    // Hiding the error does not change the status.
    let (status, _) = lint(&["cyclic.bench", "--min-severity", "error"]);
    assert_eq!(status, Some(1));

    let (status, _) = lint(&[]);
    assert_eq!(status, Some(2));
}

#[test]
fn lint_limit_violation_is_an_l007_error() {
    std::fs::write(
        temp_path("tiny.bench"),
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n",
    )
    .expect("write bench");
    let (status, stdout) = lint(&["tiny.bench", "--limit", "nets=2"]);
    assert_eq!(status, Some(1), "{stdout}");
    assert!(stdout.contains("error[L007] limit-exceeded"), "{stdout}");
    let (status, stdout) = lint(&["tiny.bench"]);
    assert_eq!(status, Some(0), "{stdout}");
}

#[test]
fn lint_json_is_pinned_on_the_cyclic_source() {
    std::fs::write(temp_path("cyclic_json.bench"), CYCLIC_SRC).expect("write bench");
    let (status, stdout) = lint(&["cyclic_json.bench", "--json"]);
    assert_eq!(status, Some(1));
    assert_eq!(
        stdout,
        concat!(
            r#"[{"file":"cyclic_json.bench","line":6,"code":"L001","rule":"combinational-cycle","#,
            r#""severity":"error","message":"combinational cycle: loopy -> loopy","net":"loopy","#,
            r#""suggestion":"break the loop with a flip-flop or re-express the logic acyclically"},"#,
            r#"{"file":"cyclic_json.bench","line":6,"code":"L004","rule":"dangling-gate","#,
            r#""severity":"warning","message":"gate `loopy` drives no primary output or flip-flop "#,
            r#"in any time frame","net":"loopy","suggestion":"add OUTPUT(loopy) or remove the dead logic"}]"#,
            "\n"
        )
    );
}

/// A one-flip-flop BLIF netlist named `model`, with a dangling cover on
/// line 10 so that lint has a finding to report.
fn blif_source(model: &str) -> String {
    format!(
        ".model {model}\n.inputs a b\n.outputs y\n.latch d q 0\n.names a q d\n11 1\n\
         .names b q y\n10 1\n01 1\n.names a dead\n0 1\n.end\n"
    )
}

#[test]
fn lint_reads_blif_files_as_blif() {
    let blif = temp_path("lint_smoke.blif");
    std::fs::write(&blif, blif_source("smoke")).expect("write blif");
    let (status, stdout) = lint(&[blif.to_str().unwrap()]);
    assert_eq!(status, Some(0), "{stdout}");
    assert!(!stdout.contains("L000"), "{stdout}");
    assert!(stdout.contains(":10: warning[L004]"), "{stdout}");
}

#[test]
fn lint_checks_scan_inserted_chains_and_the_embedded_suite() {
    let (status, stdout) = lint(&["s298", "--chains", "2"]);
    assert_eq!(status, Some(0), "{stdout}");
    assert!(stdout.contains("s298: 0 error(s)"), "{stdout}");
    let (status, stdout) = lint(&["--self-check"]);
    assert_eq!(status, Some(0), "{stdout}");
    assert!(
        stdout.ends_with("self-check: all embedded benchmarks are error-clean\n"),
        "{stdout}"
    );
}

/// Both self-checks sweep s27 and the Table 5/6 suites, which covers
/// Table 7 only while its circuits are drawn from them.
#[test]
fn self_checks_cover_the_table7_suite() {
    use limscan::benchmarks::{iscas89_suite, itc99_suite, table7_suite};
    for name in table7_suite() {
        assert!(
            iscas89_suite().contains(name) || itc99_suite().contains(name),
            "{name} is only in Table 7"
        );
    }
}

#[test]
fn equiv_diff_rejects_bad_chain_counts() {
    let prog = temp_path("s27_diff.prog");
    let out = limscan()
        .args(["generate", "s27", "-o", prog.to_str().unwrap()])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    for chains in ["0", "9"] {
        let prog = prog.to_str().unwrap();
        let out = limscan()
            .args(["equiv", "s27", "--diff", prog, prog, "--chains", chains])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains("error: --chains must be between 1 and the flip-flop count (3)"),
            "{stderr}"
        );
    }
}

#[test]
fn json_outputs_keep_a_quoted_circuit_name() {
    use limscan::obs::Json;

    let blif = temp_path("we\"ird.blif");
    std::fs::write(&blif, blif_source("we\"ird")).expect("write blif");
    let path = blif.to_str().unwrap();
    let json_of = |command: &str| {
        let out = limscan()
            .args([command, path, "--json"])
            .output()
            .expect("spawn");
        let stdout = String::from_utf8_lossy(&out.stdout);
        Json::parse(stdout.trim_end())
            .unwrap_or_else(|e| panic!("`{command} --json` printed invalid JSON ({e}): {stdout}"))
    };
    let summary = json_of("analyze");
    assert_eq!(
        summary.get("circuit").and_then(Json::as_str),
        Some("we\"ird")
    );
    let findings = json_of("lint");
    let findings = findings.as_arr().expect("an array of findings");
    assert!(!findings.is_empty());
    for finding in findings {
        assert_eq!(finding.get("file").and_then(Json::as_str), Some(path));
    }
}
