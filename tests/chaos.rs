//! Chaos suite: deterministic fault injection against the resilient flows.
//!
//! Every scenario arms a [`FailPlan`] — a worker panic at a fixed batch or
//! trial, a snapshot-write I/O failure, an early deadline — and asserts the
//! three graceful-degradation invariants:
//!
//! 1. the run ends in a *typed* [`FlowOutcome`] (no process abort, no
//!    poisoned lock, no panic escaping the flow);
//! 2. the final test sequence is bit-identical to the clean run's (absorbed
//!    failures are replayed on the reference path, so they cannot change
//!    the result);
//! 3. no torn state survives on disk — a failed snapshot write leaves
//!    neither a partial final file nor a stray temp file, and every file
//!    that does exist loads and validates.
//!
//! The suite only exists under the `fail-inject` feature (CI runs it at 1
//! and 4 simulation threads via `LIMSCAN_THREADS`). Fail plans are
//! process-global, so every test serializes on one lock.
//!
//! The daemon-level scenario at the bottom goes one layer up: it SIGKILLs
//! a real `limscan serve` process mid-slice and asserts the restart
//! recovers every job, torn-free and byte-identical to solo runs.
#![cfg(feature = "fail-inject")]

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use limscan::benchmarks;
use limscan::harness::IoFailure;
use limscan::{
    resume_flow, run_generation_resilient, FailPlan, FlowConfig, FlowOutcome, FlowPhase,
    MetricsCollector, ObsHandle, ResilientConfig, ResilientRun, RunBudget, SnapshotStore,
    StopReason,
};
use limscan_serve::{run_direct, JobKind, JobMeta, JobSpec, JobState, Json, Server, ServerConfig};

/// Fail plans install into process-global statics; tests must not overlap.
static CHAOS: Mutex<()> = Mutex::new(());

/// Silences the default panic hook while held, so the *injected* panics
/// (which the flows absorb by design) don't spray backtraces into the test
/// output. Restores the default hook on drop.
struct QuietPanics;

impl QuietPanics {
    fn install() -> Self {
        std::panic::set_hook(Box::new(|_| {}));
        QuietPanics
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("limscan-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An unlimited resilient run with a metrics collector attached; panics on
/// a partial outcome.
fn observed_run(
    circuit: &limscan::Circuit,
    store: Option<SnapshotStore>,
) -> (ResilientRun, MetricsCollector) {
    let (outcome, collector) = observed_outcome(circuit, RunBudget::unlimited(), store);
    (outcome.into_complete(), collector)
}

fn observed_outcome(
    circuit: &limscan::Circuit,
    budget: RunBudget,
    store: Option<SnapshotStore>,
) -> (FlowOutcome<ResilientRun>, MetricsCollector) {
    let collector = MetricsCollector::default();
    let rcfg = ResilientConfig {
        flow: FlowConfig {
            obs: ObsHandle::from_sink(Arc::new(collector.clone())),
            ..FlowConfig::default()
        },
        budget,
        snapshots: store,
    };
    let outcome = run_generation_resilient(circuit, &rcfg).expect("flow validates");
    (outcome, collector)
}

/// The uninterrupted, uninjected reference result.
fn clean_run(circuit: &limscan::Circuit) -> ResilientRun {
    run_generation_resilient(circuit, &ResilientConfig::default())
        .expect("flow validates")
        .into_complete()
}

/// Every file in the snapshot directory must be a complete, valid snapshot
/// — no temp files, no torn writes.
fn assert_no_torn_files(dir: &Path) -> usize {
    let mut snapshots = 0;
    for entry in std::fs::read_dir(dir).expect("snapshot dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        assert!(
            !name.ends_with(".tmp"),
            "temp file {name} survived a failed write"
        );
        SnapshotStore::load(&path)
            .unwrap_or_else(|e| panic!("torn or invalid snapshot {name}: {e:?}"));
        snapshots += 1;
    }
    snapshots
}

#[test]
fn absorbed_batch_panic_preserves_the_final_test_set() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);

    let _quiet = QuietPanics::install();
    let plan = FailPlan {
        panic_at_batch: Some(0),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let (run, collector) = observed_run(&circuit, None);
    drop(guard);

    assert_eq!(
        run.sequence, clean.sequence,
        "absorbed panic changed result"
    );
    assert_eq!(run.detected, clean.detected);
    assert!(
        collector.degrade_count() > 0,
        "an absorbed batch panic must be observable as a degrade event"
    );
}

#[test]
fn absorbed_omission_trial_panic_preserves_the_final_test_set() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);

    let _quiet = QuietPanics::install();
    let plan = FailPlan {
        panic_at_trial: Some(0),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let (run, collector) = observed_run(&circuit, None);
    drop(guard);

    assert_eq!(
        run.sequence, clean.sequence,
        "absorbed panic changed result"
    );
    assert!(
        collector.degrade_count() > 0,
        "an absorbed trial panic must be observable as a degrade event"
    );
}

#[test]
fn enospc_on_snapshot_write_degrades_without_losing_the_run() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);
    let dir = scratch_dir("enospc");

    let plan = FailPlan {
        snapshot_io: Some(IoFailure::Enospc),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let (run, collector) = observed_run(&circuit, Some(SnapshotStore::new(&dir)));
    drop(guard);

    // The failed checkpoint degraded; the run itself was never at risk.
    assert_eq!(run.sequence, clean.sequence);
    assert!(
        collector.degrade_count() > 0,
        "a failed snapshot write must be observable as a degrade event"
    );

    // One injection per arming: later boundaries checkpointed normally,
    // and nothing on disk is torn.
    let snapshots = assert_no_torn_files(&dir);
    assert!(
        snapshots >= 1,
        "writes after the injected failure must succeed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn short_write_never_leaves_a_torn_snapshot_on_disk() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);
    let dir = scratch_dir("shortwrite");

    // Budget one checkpoint so the run stops exactly where the torn write
    // was injected: the partial outcome must carry the snapshot in memory
    // even though the disk copy failed.
    let plan = FailPlan {
        snapshot_io: Some(IoFailure::ShortWrite),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let (outcome, _collector) = observed_outcome(
        &circuit,
        RunBudget {
            max_checkpoints: Some(1),
            ..RunBudget::default()
        },
        Some(SnapshotStore::new(&dir)),
    );
    drop(guard);

    let FlowOutcome::Partial {
        reason,
        snapshot,
        path,
    } = outcome
    else {
        panic!("checkpoint budget 1 must stop at the first boundary");
    };
    assert_eq!(reason, StopReason::CheckpointBudget);
    assert!(
        path.is_none(),
        "the injected short write must not report a path"
    );
    // The half-written temp file was cleaned up; nothing usable or torn
    // remains at either the temp or the final path.
    assert_eq!(assert_no_torn_files(&dir), 0);

    // The in-memory snapshot still resumes to the clean result.
    let resumed = resume_flow(&snapshot, &ResilientConfig::default())
        .expect("snapshot resumes")
        .into_complete();
    assert_eq!(resumed.sequence, clean.sequence);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_deadline_surfaces_as_a_typed_partial_and_resumes() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);

    let plan = FailPlan {
        deadline_at_pass: Some(0),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let (outcome, _collector) = observed_outcome(&circuit, RunBudget::unlimited(), None);
    drop(guard);

    let FlowOutcome::Partial {
        reason, snapshot, ..
    } = outcome
    else {
        panic!("an injected pass-boundary deadline must stop the flow");
    };
    assert_eq!(reason, StopReason::DeadlineExpired);
    assert!(
        matches!(snapshot.phase, FlowPhase::Compact { .. }),
        "the first boundary checkpoints the uncompacted sequence"
    );

    // With the plan disarmed, the same snapshot resumes to the clean result
    // — and the process is healthy enough to run flows again (no poisoned
    // locks, no lingering cancellation).
    let resumed = resume_flow(&snapshot, &ResilientConfig::default())
        .expect("snapshot resumes")
        .into_complete();
    assert_eq!(resumed.sequence, clean.sequence);
    assert_eq!(clean_run(&circuit).sequence, clean.sequence);
}

#[test]
fn injected_directory_fsync_failure_degrades_but_never_tears_state() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);
    let dir = scratch_dir("dirsync");

    // Store level: the temp write and the rename both succeeded, so the
    // renamed file is complete and readable — but the directory entry is
    // not durable, and `save` must say so rather than report success.
    let store = SnapshotStore::new(&dir);
    let plan = FailPlan {
        snapshot_io: Some(IoFailure::DirSync),
        ..FailPlan::default()
    };
    let guard = plan.arm();
    let err = store
        .save_text("probe.txt", "payload")
        .expect_err("a failed directory fsync is not a durable save");
    drop(guard);
    assert!(
        err.to_string().contains("fsync"),
        "error must name the failed operation: {err}"
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("probe.txt")).expect("renamed file exists"),
        "payload",
        "the renamed file itself is complete despite the failure"
    );
    std::fs::remove_file(dir.join("probe.txt")).expect("cleanup probe");

    // Flow level: a boundary checkpoint hitting the same failure degrades
    // the run without aborting or changing the result, and every snapshot
    // left on disk (including the non-durably-renamed one) is valid.
    let guard = plan.arm();
    let (run, collector) = observed_run(&circuit, Some(store));
    drop(guard);
    assert_eq!(run.sequence, clean.sequence);
    assert!(
        collector.degrade_count() > 0,
        "a failed directory fsync must be observable as a degrade event"
    );
    assert!(
        assert_no_torn_files(&dir) >= 1,
        "the rename landed, so the snapshot must be on disk and valid"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Path of the `limscan` CLI binary for the active profile, building it if
/// this test ran before the binary target.
fn limscan_binary() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop();
    if dir.ends_with("deps") {
        dir.pop();
    }
    let bin = dir.join("limscan");
    if !bin.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
        let mut build = Command::new(cargo);
        build
            .args(["build", "-q", "-p", "limscan-serve", "--bin", "limscan"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if dir.ends_with("release") {
            build.arg("--release");
        }
        let status = build.status().expect("cargo runs");
        assert!(status.success(), "building the limscan binary failed");
    }
    assert!(
        bin.exists(),
        "limscan binary not found at {}",
        bin.display()
    );
    bin
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Whether any job under `state` has checkpointed a boundary snapshot yet.
fn any_snapshot(state: &Path) -> bool {
    let Ok(jobs) = std::fs::read_dir(state.join("jobs")) else {
        return false;
    };
    jobs.flatten().any(|job| {
        std::fs::read_dir(job.path()).is_ok_and(|files| {
            files
                .flatten()
                .any(|f| f.path().extension().is_some_and(|e| e == "snap"))
        })
    })
}

/// A wire `submit` line for `spec`.
fn submit_line(spec: &JobSpec) -> String {
    let Json::Obj(mut members) = spec.to_json() else {
        unreachable!("specs serialize to objects");
    };
    members.insert(0, ("verb".into(), Json::str("submit")));
    Json::Obj(members).render()
}

#[test]
fn sigkilled_daemon_loses_no_job_and_recovers_bit_identically() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let state = scratch_dir("daemon");
    let socket = state.join("serve.sock");
    let bin = limscan_binary();

    let mut child = Command::new(&bin)
        .arg("serve")
        .arg(&state)
        .arg("--socket")
        .arg(&socket)
        .args(["--workers", "2", "--slice", "1"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("daemon starts");
    // The socket file appears at bind(2), a beat before listen(2) is
    // active — probe with a real connection, not just existence, or a
    // fast first submit can land in the gap and get ECONNREFUSED.
    wait_for("the daemon socket", || {
        std::os::unix::net::UnixStream::connect(&socket).is_ok()
    });

    let specs = [
        JobSpec::default(),
        JobSpec {
            tenant: "bravo".into(),
            circuit: "s298".into(),
            max_faults: 96,
            ..JobSpec::default()
        },
        JobSpec {
            tenant: "carol".into(),
            kind: JobKind::Compact,
            program: Some(run_direct(&JobSpec::default()).expect("program source")),
            ..JobSpec::default()
        },
    ];
    for spec in &specs {
        let response = limscan_serve::socket::request(&socket, &submit_line(spec))
            .expect("submit round-trips");
        assert!(
            response.contains("\"ok\":true"),
            "submit rejected: {response}"
        );
    }

    // SIGKILL the moment the first boundary snapshot lands: slices are in
    // flight and at least one job dies mid-schedule.
    wait_for("a boundary snapshot", || any_snapshot(&state));
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();

    // Nothing on disk is torn: every job directory still has parseable
    // metadata and every snapshot loads. A `.tmp` file MAY survive — the
    // kill can land between the temp write and the rename — but that is
    // the atomic protocol working as designed: the durable predecessor is
    // untouched and recovery sweeps the temp away (asserted below).
    let mut job_dirs = 0;
    for job in std::fs::read_dir(state.join("jobs"))
        .expect("jobs dir")
        .flatten()
    {
        job_dirs += 1;
        let meta_text = std::fs::read_to_string(job.path().join("job.meta"))
            .expect("job metadata survived the kill");
        JobMeta::from_text(&meta_text).expect("job metadata parses");
        for file in std::fs::read_dir(job.path()).expect("job dir").flatten() {
            let name = file.file_name().to_string_lossy().into_owned();
            if file.path().extension().is_some_and(|e| e == "snap") {
                SnapshotStore::load(file.path())
                    .unwrap_or_else(|e| panic!("torn snapshot {name}: {e:?}"));
            }
        }
    }
    assert_eq!(job_dirs, specs.len(), "a job directory was lost");

    // Restart the daemon on the same state (in-process: the identical
    // recovery path `limscan serve` runs) and drain: every job must come
    // back and finish byte-identical to its solo, uninterrupted run.
    let cfg = ServerConfig {
        workers: 2,
        slice_checkpoints: 1,
        ..ServerConfig::new(&state)
    };
    let server = Server::start(cfg).expect("recovery succeeds");
    for job in std::fs::read_dir(state.join("jobs"))
        .expect("jobs dir")
        .flatten()
    {
        for file in std::fs::read_dir(job.path()).expect("job dir").flatten() {
            let name = file.file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "recovery left temp file {name}");
        }
    }
    assert_eq!(
        server.list().len(),
        specs.len(),
        "a job was lost in recovery"
    );
    server.drain();
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64 + 1;
        assert_eq!(
            server.status(id).expect("job known").state,
            JobState::Complete,
            "job {id} did not complete after the kill"
        );
        assert_eq!(
            server.result_text(id).expect("result"),
            run_direct(spec).expect("solo run completes"),
            "job {id} diverged from its uninterrupted run"
        );
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn every_single_fault_scenario_ends_in_a_typed_outcome() {
    let _lock = CHAOS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::s27();
    let clean = clean_run(&circuit);
    let _quiet = QuietPanics::install();

    let scenarios = [
        FailPlan {
            panic_at_batch: Some(1),
            ..FailPlan::default()
        },
        FailPlan {
            panic_at_trial: Some(2),
            ..FailPlan::default()
        },
        FailPlan {
            snapshot_io: Some(IoFailure::ShortWrite),
            ..FailPlan::default()
        },
        FailPlan {
            deadline_at_pass: Some(1),
            ..FailPlan::default()
        },
    ];
    for (i, plan) in scenarios.iter().enumerate() {
        let guard = plan.arm();
        let (outcome, _collector) = observed_outcome(&circuit, RunBudget::unlimited(), None);
        drop(guard);
        // Either the fault was absorbed and the run completed, or it
        // surfaced as a typed partial whose snapshot resumes cleanly —
        // never a crash, never a silently different result.
        let sequence = match outcome {
            FlowOutcome::Complete(run) => run.sequence,
            FlowOutcome::Partial { snapshot, .. } => {
                resume_flow(&snapshot, &ResilientConfig::default())
                    .expect("snapshot resumes")
                    .into_complete()
                    .sequence
            }
        };
        assert_eq!(sequence, clean.sequence, "scenario {i} diverged");
    }
}
