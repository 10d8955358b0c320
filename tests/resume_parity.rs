//! Kill-and-resume parity: a flow interrupted at any pass boundary and
//! resumed from its snapshot must produce a final test sequence that is
//! bit-identical to the uninterrupted run — whatever the seed, wherever
//! the interruption lands, and however many simulation threads are in use.
//!
//! The deterministic interruption knob is `RunBudget::max_checkpoints`:
//! a budget of `k` stops the flow at exactly its `k`-th pass boundary, so
//! sweeping `k` visits every boundary of the state machine
//! (Generate → Compact → Omit passes; see DESIGN.md §12).

use std::sync::Mutex;

use proptest::prelude::*;

use limscan::benchmarks;
use limscan::sim::set_sim_threads;
use limscan::{
    resume_flow, run_generation_resilient, run_translation_resilient, AnalysisOptions, FlowConfig,
    FlowKind, FlowOutcome, GenerationFlow, ResilientConfig, ResilientRun, RunBudget, SnapshotStore,
    StopReason, TranslationFlow,
};

/// `set_sim_threads` is process-global, so tests that pin the thread count
/// serialize on this lock (and ignore poisoning: a failed assertion in one
/// test must not cascade into lock panics in the others).
static THREAD_PIN: Mutex<()> = Mutex::new(());

/// Restores the ambient thread configuration when dropped.
struct ThreadGuard;

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        set_sim_threads(None);
    }
}

fn pin_threads(n: usize) -> ThreadGuard {
    set_sim_threads(Some(n));
    ThreadGuard
}

fn checkpoint_budget(k: u64) -> RunBudget {
    RunBudget {
        max_checkpoints: Some(k),
        ..RunBudget::default()
    }
}

fn resilient(flow: FlowConfig, budget: RunBudget) -> ResilientConfig {
    ResilientConfig {
        flow,
        budget,
        snapshots: None,
    }
}

fn run_kind(
    kind: FlowKind,
    circuit: &limscan::Circuit,
    rcfg: &ResilientConfig,
) -> FlowOutcome<ResilientRun> {
    match kind {
        FlowKind::Generation => run_generation_resilient(circuit, rcfg).expect("flow validates"),
        FlowKind::Translation => run_translation_resilient(circuit, rcfg).expect("flow validates"),
    }
}

/// Interrupt the flow at its `k`-th boundary, then resume *with the same
/// tight budget* over and over until it completes — the chained-resume
/// shape a repeatedly killed batch job takes. Returns `None` when the flow
/// finished before reaching `k` boundaries (the sweep is done).
fn interrupted_then_chain_resumed(
    kind: FlowKind,
    circuit: &limscan::Circuit,
    flow: &FlowConfig,
    k: u64,
) -> Option<ResilientRun> {
    let tight = resilient(flow.clone(), checkpoint_budget(k));
    let mut outcome = run_kind(kind, circuit, &tight);
    let mut hops = 0;
    loop {
        match outcome {
            FlowOutcome::Complete(run) => {
                return if hops == 0 { None } else { Some(run) };
            }
            FlowOutcome::Partial {
                reason, snapshot, ..
            } => {
                assert_eq!(reason, StopReason::CheckpointBudget, "k={k} hop={hops}");
                hops += 1;
                assert!(hops < 64, "chained resume failed to make progress (k={k})");
                // Each resume gets one checkpoint: the harshest cadence.
                let next = resilient(flow.clone(), checkpoint_budget(1));
                outcome = resume_flow(&snapshot, &next).expect("snapshot resumes");
            }
        }
    }
}

/// Sweep every interruption point of `kind` on `circuit` and assert each
/// chained resume converges on the uninterrupted sequence.
fn assert_resume_parity(kind: FlowKind, circuit: &limscan::Circuit, flow: &FlowConfig) {
    let full = run_kind(
        kind,
        circuit,
        &resilient(flow.clone(), RunBudget::unlimited()),
    )
    .into_complete();
    for k in 1..=10 {
        match interrupted_then_chain_resumed(kind, circuit, flow, k) {
            Some(resumed) => {
                assert_eq!(
                    resumed.sequence, full.sequence,
                    "{kind:?} interrupted at boundary {k} diverged after resume"
                );
                assert_eq!(resumed.detected, full.detected, "k={k}");
                assert_eq!(resumed.total_faults, full.total_faults, "k={k}");
            }
            // The flow has fewer than k boundaries: every interruption
            // point has been visited.
            None => return,
        }
    }
}

#[test]
fn s27_generation_resumes_bit_identically_from_every_boundary() {
    let circuit = benchmarks::s27();
    let flow = FlowConfig::default();
    // The resilient complete must equal the classic flow first …
    let classic = GenerationFlow::run(&circuit, &flow).expect("classic flow");
    let full = run_generation_resilient(&circuit, &resilient(flow.clone(), RunBudget::unlimited()))
        .expect("resilient flow")
        .into_complete();
    assert_eq!(full.sequence, classic.omitted.sequence);
    // … and every interruption point must converge back onto it.
    assert_resume_parity(FlowKind::Generation, &circuit, &flow);
}

#[test]
fn s27_translation_resumes_bit_identically_from_every_boundary() {
    let circuit = benchmarks::s27();
    let flow = FlowConfig::default();
    let classic = TranslationFlow::run(&circuit, &flow).expect("classic flow");
    let full =
        run_translation_resilient(&circuit, &resilient(flow.clone(), RunBudget::unlimited()))
            .expect("resilient flow")
            .into_complete();
    assert_eq!(full.sequence, classic.omitted.sequence);
    assert_resume_parity(FlowKind::Translation, &circuit, &flow);
}

#[test]
fn budgeted_driver_applies_static_analysis() {
    // With analysis on, s298 loses its statically untestable faults and
    // gets a two-tier target order. The budgeted driver must run that same
    // experiment, not the unanalysed one.
    let circuit = benchmarks::load("s298").expect("s298 profile");
    let flow = FlowConfig {
        analysis: AnalysisOptions::all(),
        ..FlowConfig::default()
    };
    let classic = GenerationFlow::run(&circuit, &flow).expect("classic flow");
    let full = run_generation_resilient(&circuit, &resilient(flow, RunBudget::unlimited()))
        .expect("resilient flow")
        .into_complete();
    assert_eq!(full.sequence, classic.omitted.sequence);
    assert_eq!(full.total_faults, classic.faults.len());
}

#[test]
fn analysed_flows_resume_bit_identically_from_every_boundary() {
    // Resume re-derives the pruned fault list and the target order, so the
    // snapshot's fault indices and ATPG cursor keep their meaning.
    let circuit = benchmarks::load("s298").expect("s298 profile");
    let flow = FlowConfig {
        analysis: AnalysisOptions::all(),
        max_faults: 96,
        ..FlowConfig::default()
    };
    assert_resume_parity(FlowKind::Generation, &circuit, &flow);
    assert_resume_parity(FlowKind::Translation, &circuit, &flow);
}

#[test]
fn persisted_snapshot_resumes_from_disk() {
    let circuit = benchmarks::s27();
    let dir = std::env::temp_dir().join(format!("limscan-resume-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let flow = FlowConfig::default();
    let rcfg = ResilientConfig {
        flow: flow.clone(),
        budget: checkpoint_budget(1),
        snapshots: Some(SnapshotStore::new(&dir)),
    };
    let FlowOutcome::Partial { path, .. } =
        run_generation_resilient(&circuit, &rcfg).expect("flow validates")
    else {
        panic!("checkpoint budget 1 must stop at the first boundary");
    };
    let path = path.expect("store configured, write must succeed");

    // The process that resumes is (conceptually) a different one: all it
    // has is the file. No stray temp files may sit next to it.
    for entry in std::fs::read_dir(&dir).expect("snapshot dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        assert!(!name.ends_with(".tmp"), "leftover temp file {name}");
    }
    let snapshot = SnapshotStore::load(&path).expect("snapshot loads and validates");

    let unlimited = resilient(flow.clone(), RunBudget::unlimited());
    let resumed = resume_flow(&snapshot, &unlimited)
        .expect("snapshot resumes")
        .into_complete();
    let full = run_generation_resilient(&circuit, &unlimited)
        .expect("resilient flow")
        .into_complete();
    assert_eq!(resumed.sequence, full.sequence);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn s298_resume_parity_holds_at_one_and_four_threads() {
    let _lock = THREAD_PIN
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let circuit = benchmarks::load("s298").expect("s298 profile");
    let flow = FlowConfig {
        max_faults: 96,
        ..FlowConfig::default()
    };

    let mut sequences = Vec::new();
    for threads in [1usize, 4] {
        let _pin = pin_threads(threads);
        let full =
            run_generation_resilient(&circuit, &resilient(flow.clone(), RunBudget::unlimited()))
                .expect("resilient flow")
                .into_complete();
        // Interrupt at the second boundary (post-restoration) and resume.
        match run_kind(
            FlowKind::Generation,
            &circuit,
            &resilient(flow.clone(), checkpoint_budget(2)),
        ) {
            FlowOutcome::Partial { snapshot, .. } => {
                let resumed =
                    resume_flow(&snapshot, &resilient(flow.clone(), RunBudget::unlimited()))
                        .expect("snapshot resumes")
                        .into_complete();
                assert_eq!(resumed.sequence, full.sequence, "threads={threads}");
            }
            FlowOutcome::Complete(_) => panic!("s298 has more than two boundaries"),
        }
        sequences.push(full.sequence);
    }
    // The flow itself is thread-count deterministic, so the two full runs
    // must agree with each other too.
    assert_eq!(
        sequences[0], sequences[1],
        "thread count changed the result"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sweep: ATPG seed × interruption boundary × thread count.
    /// Whatever the combination, interrupting and resuming reproduces the
    /// uninterrupted sequence bit for bit.
    #[test]
    fn interrupted_resume_is_bit_identical(
        seed in 0u64..16,
        k in 1u64..6,
        threads in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        let _lock = THREAD_PIN.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _pin = pin_threads(threads);

        let circuit = benchmarks::s27();
        let flow = FlowConfig {
            atpg: limscan::AtpgConfig {
                seed,
                ..limscan::AtpgConfig::default()
            },
            seed,
            ..FlowConfig::default()
        };
        let unlimited = resilient(flow.clone(), RunBudget::unlimited());
        let full = run_generation_resilient(&circuit, &unlimited)
            .expect("resilient flow")
            .into_complete();
        match run_generation_resilient(&circuit, &resilient(flow.clone(), checkpoint_budget(k)))
            .expect("flow validates")
        {
            FlowOutcome::Partial { snapshot, .. } => {
                let resumed = resume_flow(&snapshot, &unlimited)
                    .expect("snapshot resumes")
                    .into_complete();
                prop_assert_eq!(resumed.sequence, full.sequence);
                prop_assert_eq!(resumed.detected, full.detected);
            }
            // Fewer than k boundaries: nothing to interrupt.
            FlowOutcome::Complete(run) => prop_assert_eq!(run.sequence, full.sequence),
        }
    }
}
