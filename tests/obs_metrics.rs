//! Thread-count invariance of the deterministic metric counters.
//!
//! The observability contract splits metrics in two: counters that
//! describe the *work the algorithms decided to do* (vectors simulated,
//! faults detected, batches, committed trials, restoration episodes and
//! probes) must not depend on how that work was scheduled, while
//! speculative-execution counters (trials attempted / early-exited,
//! checkpoint hits) and gauges legitimately vary with thread fan-out.
//! This property pins the first class: on random synthetic circuits, the
//! collector totals are bit-identical from 1 through 8 simulation
//! threads. The second class must still repeat from run to run at one
//! thread count.
//!
//! `set_sim_threads` is process-global, so every test here holds
//! [`thread_lock`] while it runs observed passes.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use proptest::prelude::*;

use limscan::benchmarks::{self, synthetic, SyntheticSpec};
use limscan::compact::omission_pass_resumable;
use limscan::obs::Metric;
use limscan::sim::{set_sim_threads, LANES};
use limscan::{
    CancelToken, FaultList, Logic, MetricsCollector, ObsHandle, ScanCircuit, SeqFaultSim,
    TestSequence,
};

/// Serialises the tests around the process-global simulation thread count.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (2usize..5, 3usize..8, 20usize..60, 1usize..4, any::<u64>()).prop_map(
        |(pi, ff, gates, po, seed)| {
            let mut s = SyntheticSpec::new(format!("obsprop{seed:x}"), pi, ff, gates, po);
            s.seed = seed;
            s
        },
    )
}

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// One observed extend + one observed omission pass under `threads`
/// simulation threads; returns the deterministic counter totals.
fn observed_counters(spec: &SyntheticSpec, seq_seed: u64, threads: usize) -> Vec<(Metric, u64)> {
    let circuit = synthetic(spec);
    let faults = FaultList::collapsed(&circuit);
    let seq = random_sequence(circuit.inputs().len(), 48, seq_seed);
    let _guard = thread_lock();
    set_sim_threads(Some(threads));
    let collector = MetricsCollector::default();
    let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
    let mut sim = SeqFaultSim::new(&circuit, &faults);
    sim.set_obs(&obs);
    sim.extend(&seq);
    let targets: Vec<usize> = sim
        .report()
        .detected()
        .iter()
        .map(|id| id.index())
        .collect();
    omission_pass_resumable(
        &circuit,
        &faults,
        &seq,
        &targets,
        0,
        &obs,
        &CancelToken::unlimited(),
    )
    .expect("an unlimited omission pass cannot stop early");
    set_sim_threads(None);
    collector.deterministic_counters()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `vectors_simulated`, `faults_detected`, `batches_simulated`,
    /// `trials_committed`, and the rest of the deterministic class read
    /// back bit-identical whatever the thread fan-out.
    #[test]
    fn deterministic_counters_are_thread_invariant(
        spec in spec_strategy(),
        seq_seed in any::<u64>(),
    ) {
        let baseline = observed_counters(&spec, seq_seed, 1);
        // The single-thread run must actually observe something, or the
        // property would pass vacuously.
        prop_assert!(
            baseline.iter().any(|(m, v)| *m == Metric::VectorsSimulated && *v > 0),
            "no vectors observed: {baseline:?}"
        );
        for threads in 2..=8 {
            let totals = observed_counters(&spec, seq_seed, threads);
            prop_assert_eq!(
                &baseline,
                &totals,
                "deterministic counters diverged at {} threads",
                threads
            );
        }
    }
}

/// The speculative-wave counters vary with the thread count, but not from
/// run to run at one count: every trial of a wave checks its batches from
/// the same first batch and probes the same hinted fault, both chosen on
/// the coordinating thread, so worker timing cannot change which batches
/// a trial simulates or whether its probe decides it. Checked at one
/// thread, where every trial takes the hint of the trial before it, and
/// at four.
#[test]
fn trial_counters_repeat_at_a_fixed_thread_count() {
    let sc = ScanCircuit::insert(&benchmarks::load("s382").expect("s382 profile"));
    let c = sc.circuit();
    let faults = FaultList::collapsed(c);
    // Long enough that failing trials lose targets in different batches,
    // so the first batch a trial checks matters.
    let seq = random_sequence(c.inputs().len(), 80, 0);
    let targets: Vec<usize> = SeqFaultSim::run(c, &faults, &seq)
        .detected()
        .iter()
        .map(|id| id.index())
        .collect();
    assert!(targets.len() > 2 * LANES, "{} targets", targets.len());
    let speculative = [
        Metric::TrialsAttempted,
        Metric::TrialsEarlyExited,
        Metric::CheckpointHits,
    ];
    let run = |threads: usize| {
        let _guard = thread_lock();
        set_sim_threads(Some(threads));
        let collector = MetricsCollector::default();
        let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
        omission_pass_resumable(
            c,
            &faults,
            &seq,
            &targets,
            0,
            &obs,
            &CancelToken::unlimited(),
        )
        .expect("an unlimited omission pass cannot stop early");
        set_sim_threads(None);
        // No fail plan is armed: a degraded trial or batch is a kernel
        // panic that the fallback hid.
        for m in [Metric::DegradedTrials, Metric::DegradedBatches] {
            assert_eq!(collector.counter(m), 0, "{threads} threads: {m:?}");
        }
        speculative.map(|m| collector.counter(m))
    };
    for threads in [1, 4] {
        let first = run(threads);
        assert!(
            first.iter().all(|&n| n > 0),
            "{threads} threads: {speculative:?} = {first:?}"
        );
        for _ in 0..2 {
            assert_eq!(
                run(threads),
                first,
                "{threads} threads: {speculative:?} changed between runs"
            );
        }
    }
}
