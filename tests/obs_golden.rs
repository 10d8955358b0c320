//! Golden-trace regression suite for the observability layer.
//!
//! Each test runs a flow single-threaded with a collector attached,
//! serialises the event log to JSONL, and diffs its *structural shape*
//! against a checked-in golden trace: span ids are remapped to
//! first-appearance order and all timing payloads are masked, so the
//! comparison pins the span tree, labels, ordinals, counter deltas, and
//! detection-profile points — everything that must not drift — while
//! staying immune to wall-clock noise and global span-id offsets.
//!
//! Regenerate after an intentional instrumentation change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test obs_golden
//! ```
//!
//! and review the diff of `tests/golden/*.jsonl` like any other code.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use limscan::obs::jsonl::to_jsonl;
use limscan::obs::shape::structural_lines;
use limscan::sim::set_sim_threads;
use limscan::{
    benchmarks, DifferentialFlow, EquivFlow, EquivOptions, FaultList, FlowConfig, GenerationFlow,
    MetricsCollector, ObsHandle, TestSequence, TranslationFlow,
};

/// Serialises golden runs: `set_sim_threads` is process-global, so two
/// tests pinning and restoring it concurrently could unpin each other
/// mid-flow and break event-order determinism.
static THREAD_PIN: Mutex<()> = Mutex::new(());

/// Runs `f` with the simulator pinned to one thread and a collector
/// attached, returning the raw JSONL of everything it emitted.
fn traced_jsonl(f: impl FnOnce(&ObsHandle)) -> String {
    let _pin = THREAD_PIN.lock().unwrap();
    set_sim_threads(Some(1));
    let collector = MetricsCollector::default();
    let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
    f(&obs);
    set_sim_threads(None);
    to_jsonl(&collector.events())
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Diffs the structural shape of `actual` against the named golden file,
/// or rewrites the golden file when `UPDATE_GOLDEN` is set.
fn assert_matches_golden(name: &str, actual: &str) {
    let actual_shape = structural_lines(actual)
        .unwrap_or_else(|e| panic!("{name}: freshly captured trace is malformed: {e}"));
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{name}: cannot read golden trace {}: {e}\n\
             (run `UPDATE_GOLDEN=1 cargo test --test obs_golden` to create it)",
            path.display()
        )
    });
    let golden_shape =
        structural_lines(&golden).unwrap_or_else(|e| panic!("{name}: golden trace malformed: {e}"));
    if actual_shape != golden_shape {
        let first_diff = actual_shape
            .iter()
            .zip(&golden_shape)
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual_shape.len().min(golden_shape.len()));
        panic!(
            "{name}: trace shape diverged from golden ({} vs {} structural lines)\n\
             first difference at line {}:\n  golden: {}\n  actual: {}\n\
             If the instrumentation change is intentional, regenerate with \
             UPDATE_GOLDEN=1 and review the diff.",
            actual_shape.len(),
            golden_shape.len(),
            first_diff + 1,
            golden_shape.get(first_diff).map_or("<eof>", |s| s.as_str()),
            actual_shape.get(first_diff).map_or("<eof>", |s| s.as_str()),
        );
    }
}

#[test]
fn s27_generation_flow_trace_matches_golden() {
    let actual = traced_jsonl(|obs| {
        let config = FlowConfig {
            obs: obs.clone(),
            ..FlowConfig::default()
        };
        let flow = GenerationFlow::run(&benchmarks::s27(), &config).unwrap();
        assert!(!flow.report.detection_profile.is_empty());
    });
    assert_matches_golden("s27_generation.jsonl", &actual);
}

#[test]
fn s298_translation_flow_trace_matches_golden() {
    let actual = traced_jsonl(|obs| {
        let config = FlowConfig {
            obs: obs.clone(),
            // Strided deterministic sample keeps the golden run fast while
            // still exercising every phase of the translation flow.
            max_faults: 96,
            ..FlowConfig::default()
        };
        let flow = TranslationFlow::run(&benchmarks::load("s298").unwrap(), &config).unwrap();
        assert!(!flow.report.detection_profile.is_empty());
    });
    assert_matches_golden("s298_translation.jsonl", &actual);
}

#[test]
fn s27_equiv_flow_trace_matches_golden() {
    let actual = traced_jsonl(|obs| {
        let config = FlowConfig {
            obs: obs.clone(),
            ..FlowConfig::default()
        };
        // Scan-variant equivalence check: flow span, lint-gate pass,
        // lockstep-check pass with the equiv_rounds counter.
        let opts = EquivOptions {
            threads: Some(1),
            ..EquivOptions::default()
        };
        let c = benchmarks::s27();
        let flow = EquivFlow::run_scan_variant(&c, 1, &opts, &config).unwrap();
        assert!(flow.verdict.is_equivalent());
        assert_eq!(
            flow.report.counter(limscan::obs::Metric::EquivRounds),
            opts.rounds as u64
        );
        // Differential comparison that loses detections: detection-diff
        // pass with the equiv_faults_lost counter.
        let faults = FaultList::collapsed(&c);
        let mut seq = TestSequence::new(c.inputs().len());
        for t in 0..10u32 {
            seq.push(
                (0..c.inputs().len())
                    .map(|i| {
                        if (t as usize + i).is_multiple_of(3) {
                            limscan::Logic::One
                        } else {
                            limscan::Logic::Zero
                        }
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let diff = DifferentialFlow::run(&c, &faults, &seq, &seq.prefix(1), &config).unwrap();
        assert!(!diff.diff.preserved());
        assert_eq!(
            diff.report.counter(limscan::obs::Metric::EquivFaultsLost),
            diff.diff.lost.len() as u64
        );
    });
    assert_matches_golden("s27_equiv.jsonl", &actual);
}

#[test]
fn jsonl_file_sink_streams_a_parseable_nested_trace() {
    // The `--trace out.jsonl` path end-to-end at the library level: a
    // JSONL file sink attached through FlowConfig yields a parseable
    // stream whose shape validator accepts it, with the flow span
    // enclosing pass spans and per-vector detection points.
    let _pin = THREAD_PIN.lock().unwrap();
    set_sim_threads(Some(1));
    let path = std::env::temp_dir().join(format!("limscan_obs_test_{}.jsonl", std::process::id()));
    let obs = ObsHandle::jsonl_file(&path).expect("create trace file");
    let config = FlowConfig {
        obs,
        ..FlowConfig::default()
    };
    let flow = GenerationFlow::run(&benchmarks::s27(), &config).unwrap();
    set_sim_threads(None);
    drop(config); // drops the handle, flushing the writer

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let shape = structural_lines(&text).expect("trace validates");
    assert!(shape[0].starts_with("span_begin id=1 parent=0 kind=flow label=generation-flow"));
    for label in ["lint-gate", "scan-insert", "generate", "restore", "omit"] {
        assert!(
            shape
                .iter()
                .any(|l| l.contains("kind=pass") && l.contains(&format!("label={label}"))),
            "missing pass span {label}"
        );
    }
    assert!(
        shape.iter().any(|l| l.starts_with("detect ")),
        "missing detection-profile events"
    );
    // The report's detection profile sums to the generator's detections
    // (the profile describes the generated sequence, not the compaction
    // re-simulations, which the faults_detected counter also includes).
    let detected: u32 = flow.report.detection_profile.iter().map(|(_, n)| n).sum();
    assert_eq!(detected as usize, flow.generated.report.detected_count());
    assert!(
        flow.report.counter(limscan::obs::Metric::FaultsDetected) >= u64::from(detected),
        "the counter also sees compaction re-simulations"
    );
    // Flow span closes last: the final structural line ends span id 1.
    assert_eq!(shape.last().unwrap(), "span_end id=1");
}
