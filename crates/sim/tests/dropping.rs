//! Fault dropping must be invisible in everything except runtime.
//!
//! `SeqFaultSim::extend` slices long extensions every `DROP_SLICE` (32)
//! time units and repacks the undetected survivors at each slice barrier.
//! Because lanes evolve independently and barriers fall only after a window
//! is fully merged, the detection report, the fault-free state, and the
//! carried faulty states must be bit-identical to `extend_reference` — the
//! dense oracle, which simulates every fault over the whole extension — at
//! any thread count, and across interleaved rewinds via `reset_with_state`.
//!
//! Thread count is a process-global knob, so every test in this binary
//! serialises on [`LOCK`] — the harness otherwise runs them on concurrent
//! threads.

use std::sync::{Mutex, PoisonError};

use limscan_fault::FaultList;
use limscan_netlist::benchmarks;
use limscan_obs::{Metric, ObsHandle};
use limscan_sim::{set_sim_threads, Logic, SeqFaultSim, TestSequence};
use proptest::prelude::*;

/// Serialises the tests of this binary (global thread knob).
static LOCK: Mutex<()> = Mutex::new(());

fn random_seq(width: usize, len: usize, seed: u64) -> TestSequence {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// Extends with the dense oracle or with the production kernel.
fn extend(sim: &mut SeqFaultSim, seq: &TestSequence, oracle: bool) -> usize {
    if oracle {
        sim.extend_reference(seq)
    } else {
        sim.extend(seq)
    }
}

/// Every observable a scenario must reproduce on both engines.
struct Outcome {
    first_pass: Vec<Option<u32>>,
    detected: Vec<Option<u32>>,
    good: Vec<Logic>,
    carried: Vec<(usize, Vec<Logic>)>,
}

/// One full scenario on one engine: extend over `seq1`, rewind to a
/// mid-run machine state, extend over `seq2`.
fn run_scenario(circuit_name: &str, seed: u64, len1: usize, len2: usize, oracle: bool) -> Outcome {
    let c = benchmarks::load(circuit_name).expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let faults = if faults.len() > 600 {
        faults.sample(600)
    } else {
        faults
    };
    let mut sim = SeqFaultSim::new(&c, &faults);

    let seq1 = random_seq(c.inputs().len(), len1, seed);
    extend(&mut sim, &seq1, oracle);
    let mid_state: Vec<Logic> = sim.good_state().to_vec();
    let first_pass = faults.ids().map(|f| sim.detected_at(f)).collect();

    // Rewind: reuse the simulator from the mid-run fault-free state. The
    // undetected set must be rebuilt from scratch (dropping bookkeeping
    // from the first pass must not leak through the reset).
    sim.reset_with_state(&mid_state);
    let seq2 = random_seq(c.inputs().len(), len2, seed ^ 0x9E37_79B9);
    extend(&mut sim, &seq2, oracle);

    Outcome {
        first_pass,
        detected: faults.ids().map(|f| sim.detected_at(f)).collect(),
        good: sim.good_state().to_vec(),
        carried: faults
            .ids()
            .filter(|&f| sim.detected_at(f).is_none())
            .map(|f| (f.index(), sim.fault_state(f).to_vec()))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Detection reports, fault-free state, and carried faulty states of
    /// the kernel match the dense oracle across 1–8 threads and an
    /// interleaved `reset_with_state` rewind.
    #[test]
    fn dropping_is_observably_invisible(
        circuit_idx in 0usize..5,
        seed in 0u64..1_000_000,
        len1 in 33usize..80, // > DROP_SLICE so at least one barrier fires
        len2 in 1usize..48,
        threads in 1usize..=8,
    ) {
        let name = ["s27", "s298", "s344", "s420", "s526"][circuit_idx];
        let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_sim_threads(Some(threads));
        let kernel = run_scenario(name, seed, len1, len2, false);
        set_sim_threads(Some(1));
        let oracle = run_scenario(name, seed, len1, len2, true);
        prop_assert_eq!(&kernel.first_pass, &oracle.first_pass, "first-pass detections differ on {}", name);
        prop_assert_eq!(&kernel.detected, &oracle.detected, "detection report differs on {}", name);
        prop_assert_eq!(&kernel.good, &oracle.good, "good state differs on {}", name);
        prop_assert_eq!(&kernel.carried, &oracle.carried, "carried faulty states differ on {}", name);
    }
}

/// The proptest's circuits are too small for the kernel to fan batches out
/// to threads; on s1423 the first slices are, so the barriers are checked
/// against the oracle on the parallel path too.
#[test]
fn barriers_on_the_parallel_path_match_the_oracle() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let c = benchmarks::load("s1423").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let seq = random_seq(c.inputs().len(), 3 * 32 + 5, 0x5EED);

    let (obs, collector) = ObsHandle::noop().with_collector();
    set_sim_threads(Some(4));
    let mut kernel = SeqFaultSim::new(&c, &faults);
    kernel.set_obs(&obs);
    kernel.extend(&seq);
    set_sim_threads(Some(1));
    assert!(
        collector.gauge_max(Metric::SimThreads) > 1,
        "workload no longer reaches the parallel path"
    );

    let mut oracle = SeqFaultSim::new(&c, &faults);
    oracle.extend_reference(&seq);
    assert_eq!(kernel.report(), oracle.report());
    assert_eq!(kernel.good_state(), oracle.good_state());
    for id in faults.ids().filter(|&id| !oracle.is_detected(id)) {
        assert_eq!(kernel.fault_state(id), oracle.fault_state(id), "fault {id}");
    }
}

/// The generated test program (greedy detection-driven vector selection)
/// must come out identical on the kernel and the oracle: program equality
/// is the paper-level observable the report feeds.
#[test]
fn selected_test_program_matches_the_oracle() {
    let c = benchmarks::load("s298").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let pool = random_seq(c.inputs().len(), 96, 0xCAFE);

    let build_program = |oracle: bool| -> Vec<usize> {
        let mut sim = SeqFaultSim::new(&c, &faults);
        let mut kept = Vec::new();
        let mut covered = 0usize;
        // Greedy pass: keep each 8-vector block iff it detects new faults.
        for block in 0..pool.len() / 8 {
            let mut chunk = TestSequence::new(pool.width());
            for t in block * 8..(block + 1) * 8 {
                chunk.push(pool.vector(t).to_vec());
            }
            extend(&mut sim, &chunk, oracle);
            if sim.detected_count() > covered {
                covered = sim.detected_count();
                kept.push(block);
            }
        }
        kept
    };

    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_sim_threads(Some(1));
    assert_eq!(build_program(false), build_program(true));
}

/// Regression: a fault detected in pass 1 stays dropped for the rest of
/// that extension but reappears (and is re-detected at the same time) after
/// a reset — dropping state must not outlive the run it belongs to.
#[test]
fn dropped_faults_are_restored_by_reset() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    set_sim_threads(Some(1));
    let c = benchmarks::load("s27").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    let seq = random_seq(c.inputs().len(), 40, 7);

    let mut sim = SeqFaultSim::new(&c, &faults);
    sim.extend(&seq);
    let first: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();
    let init: Vec<Logic> = vec![Logic::X; c.dffs().len()];
    sim.reset_with_state(&init);
    sim.extend(&seq);
    let second: Vec<Option<u32>> = faults.ids().map(|f| sim.detected_at(f)).collect();

    assert_eq!(first, second);
    assert!(
        first.iter().any(Option::is_some),
        "scenario should detect at least one fault"
    );
}
