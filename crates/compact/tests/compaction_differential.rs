//! Differential tests: the incremental compaction engines must reproduce
//! the retained full-re-simulation oracles bit for bit.
//!
//! [`omission`] answers trials from per-pass checkpoints with early exits
//! and fans candidates out across threads; [`restoration`] resumes probes
//! from a per-episode detection-prefix cache. Neither optimisation may
//! change a single kept-vector decision, so every test here asserts the
//! *exact same compacted sequence* (and bookkeeping) as the corresponding
//! `*_reference` oracle — across many seeds, two circuit classes, and
//! 1-vs-N simulation threads.
//!
//! `set_sim_threads` is process-global, so the tests that touch it are
//! serialised behind [`thread_lock`].

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use limscan_compact::{
    omission, omission_reference, restoration, restoration_reference, Compacted,
};
use limscan_fault::FaultList;
use limscan_netlist::{benchmarks, Circuit};
use limscan_scan::ScanCircuit;
use limscan_sim::{set_sim_threads, Logic, TestSequence, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serialises tests around the process-global simulation thread count.
fn thread_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// A sequence with compressible structure: random stretches separated by
/// duplicated vectors and detection-free all-zero padding, so both engines
/// get real omission/restoration opportunities.
fn padded_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut seq = TestSequence::new(width);
    while seq.len() < len {
        match rng.gen_range(0..4u8) {
            0 => seq.push(vec![Logic::Zero; width]),
            1 if !seq.is_empty() => {
                let v = seq.vector(seq.len() - 1).to_vec();
                seq.push(v);
            }
            _ => seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect()),
        }
    }
    seq
}

fn assert_same(kind: &str, seed: u64, inc: &Compacted, oracle: &Compacted) {
    assert_eq!(
        inc.sequence, oracle.sequence,
        "{kind} seed {seed}: kept-vector sets diverge"
    );
    assert_eq!(
        inc.target_count, oracle.target_count,
        "{kind} seed {seed}: target counts diverge"
    );
    assert_eq!(
        inc.extra_detected, oracle.extra_detected,
        "{kind} seed {seed}: extra_detected diverges"
    );
}

/// Runs both engines over `seeds` sequences on `circuit` and asserts
/// identical outcomes, with the incremental engine pinned to each entry of
/// `threads` in turn.
fn differential_suite(
    circuit: &Circuit,
    faults: &FaultList,
    seeds: std::ops::Range<u64>,
    len: usize,
    threads: &[usize],
) {
    let width = circuit.inputs().len();
    for seed in seeds {
        let seq = if seed % 2 == 0 {
            random_sequence(width, len, seed)
        } else {
            padded_sequence(width, len, seed)
        };

        let o_ref = omission_reference(circuit, faults, &seq, 2);
        let r_ref = restoration_reference(circuit, faults, &seq);
        for &n in threads {
            set_sim_threads(Some(n));
            let o_inc = omission(circuit, faults, &seq, 2);
            assert_same(&format!("omission[{n}t]"), seed, &o_inc, &o_ref);
            let r_inc = restoration(circuit, faults, &seq);
            assert_same(&format!("restoration[{n}t]"), seed, &r_inc, &r_ref);
        }
        set_sim_threads(None);
    }
}

#[test]
fn s27_differential_eight_seeds_one_and_many_threads() {
    let _guard = thread_lock();
    let sc = ScanCircuit::insert(&benchmarks::s27());
    let c = sc.circuit();
    let faults = FaultList::collapsed(c);
    differential_suite(c, &faults, 0..8, 45, &[1, 4]);
    set_sim_threads(None);
}

#[test]
fn s298_class_differential_eight_seeds_one_and_many_threads() {
    let _guard = thread_lock();
    let circuit = benchmarks::load("s298").expect("s298 profile");
    let sc = ScanCircuit::insert(&circuit);
    let c = sc.circuit();
    // Sampled fault list keeps the quadratic oracle affordable in debug
    // builds without weakening the equivalence claim.
    let faults = FaultList::collapsed(c).sample(48);
    differential_suite(c, &faults, 0..8, 30, &[1, 3]);
    set_sim_threads(None);
}

/// Omission over a full fault list that spans at least three batches: a
/// trial's verdict is the AND over its batches, so this is the case where
/// the order in which the trial engine checks batches, starting with the
/// batch and fault the last failing trial lost, could show.
#[test]
fn multi_batch_omission_matches_the_oracle_one_and_three_threads() {
    let _guard = thread_lock();
    let circuit = benchmarks::load("s382").expect("s382 profile");
    let sc = ScanCircuit::insert(&circuit);
    let c = sc.circuit();
    let faults = FaultList::collapsed(c);
    let width = c.inputs().len();
    for seed in 0..2u64 {
        let seq = if seed % 2 == 0 {
            random_sequence(width, 40, seed)
        } else {
            padded_sequence(width, 48, seed)
        };
        let o_ref = omission_reference(c, &faults, &seq, 2);
        assert!(
            o_ref.target_count > 2 * LANES,
            "seed {seed}: {} targets fit in two batches",
            o_ref.target_count
        );
        assert!(
            o_ref.sequence.len() < seq.len(),
            "seed {seed}: nothing omitted, the case decides no trial in favour"
        );
        for n in [1, 3] {
            set_sim_threads(Some(n));
            let o_inc = omission(c, &faults, &seq, 2);
            assert_same(&format!("multi-batch omission[{n}t]"), seed, &o_inc, &o_ref);
        }
    }
    set_sim_threads(None);
}

#[test]
fn thread_counts_cannot_change_the_omission_verdicts() {
    // Same input, every thread count from 1 to 8: the speculative-wave
    // commit must make the kept mask independent of scheduling.
    let _guard = thread_lock();
    let sc = ScanCircuit::insert(&benchmarks::s27());
    let c = sc.circuit();
    let faults = FaultList::collapsed(c);
    let seq = padded_sequence(c.inputs().len(), 60, 77);
    set_sim_threads(Some(1));
    let baseline = omission(c, &faults, &seq, 3);
    for n in 2..=8 {
        set_sim_threads(Some(n));
        let out = omission(c, &faults, &seq, 3);
        assert_eq!(
            out.sequence, baseline.sequence,
            "{n} threads changed the result"
        );
        assert_eq!(out.extra_detected, baseline.extra_detected);
    }
    set_sim_threads(None);
}
