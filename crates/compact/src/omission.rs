//! Vector-omission-based static compaction (after \[22\]).
//!
//! One pass tries to omit each vector in turn: the omission is kept
//! whenever the shortened sequence still detects every target fault.
//! Passes repeat until a fixpoint (or the pass budget runs out). Because
//! omitting a vector changes the state trajectory of everything after it,
//! omission can make *more* faults detectable — the paper reports these in
//! the `ext det` column of Table 6.
//!
//! Applied to a `C_scan` sequence, omitting a vector with `scan_sel = 1`
//! shortens a scan operation by one shift — turning complete scan
//! operations into limited ones, which is precisely the flexibility
//! scan-specific compaction procedures lack.
//!
//! Two implementations share this module:
//!
//! * [`omission`] and [`omission_pass_resumable`] — the production
//!   engine. Each pass records one set of [`TrialCheckpoints`] (fault-free
//!   trace, per-batch divergence snapshots, detection frontier) and
//!   answers every candidate trial from the checkpoint at its time unit,
//!   simulating each batch forward only until every open target lane is
//!   re-detected or settled from the recording, or one is provably lost
//!   (see `limscan_sim::checkpoint`). Batches are checked fail-first: every
//!   trial starts at the batch that failed the last committed failing
//!   trial, and before any batch runs it steps the fault that trial lost on
//!   its own, which alone decides most failing trials. The pass keeps this
//!   hint (a [`Loss`]) on its coordinating thread. Independent candidates
//!   fan out across threads (`set_sim_threads`), committed in order so
//!   results are bit-identical for every thread count.
//! * [`omission_reference`] — the original implementation: a cloned
//!   [`SeqFaultSim`] per trial, full suffix re-simulation. Kept as the
//!   bit-exact oracle anchoring the differential test suite; production
//!   code should call [`omission`].

use std::sync::atomic::{AtomicUsize, Ordering};

use limscan_fault::{FaultId, FaultList};
use limscan_harness::{CancelToken, StopReason};
use limscan_netlist::Circuit;
use limscan_obs::{Metric, ObsHandle, SpanKind};
use limscan_sim::{sim_threads, Loss, PrefixState, SeqFaultSim, TestSequence, TrialCheckpoints};

use crate::Compacted;

/// Compacts `sequence` by repeated vector omission with up to `max_passes`
/// passes; the target faults are those the input sequence detects.
///
/// The returned sequence detects every target fault, and
/// [`Compacted::extra_detected`] counts the detections gained on top.
/// Kept-vector decisions are identical to [`omission_reference`] — the
/// checkpointed trial engine changes the cost of a trial, never its
/// verdict — for every thread count.
pub fn omission(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    max_passes: usize,
) -> Compacted {
    let ctl = CancelToken::unlimited();
    compact_by_passes(
        circuit,
        faults,
        sequence,
        max_passes,
        |targets, current, pass| {
            omission_pass(circuit, targets, current, pass, &ObsHandle::noop(), &ctl)
                .expect("an unlimited omission pass cannot stop early")
        },
    )
}

/// The pass loop behind [`omission`] and [`omission_reference`]: the
/// targets are the faults `sequence` detects, and passes repeat until one
/// omits nothing, the sequence is empty, or `max_passes` ran.
fn compact_by_passes(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    max_passes: usize,
    mut run_pass: impl FnMut(&FaultList, &TestSequence, usize) -> (TestSequence, bool),
) -> Compacted {
    let before = SeqFaultSim::run(circuit, faults, sequence);
    let target_ids: Vec<FaultId> = before.detected();
    let targets = FaultList::from_faults(target_ids.iter().map(|&id| faults.fault(id)));

    let mut current = sequence.clone();
    for pass in 0..max_passes {
        if current.is_empty() {
            break;
        }
        let (next, changed) = run_pass(&targets, &current, pass);
        current = next;
        if !changed {
            break;
        }
    }

    let after = SeqFaultSim::run(circuit, faults, &current);
    let extra_detected = faults
        .ids()
        .filter(|&id| after.is_detected(id) && !before.is_detected(id))
        .count();
    Compacted {
        sequence: current,
        original_len: sequence.len(),
        target_count: targets.len(),
        extra_detected,
    }
}

/// One omission pass over `current` under a budget.
///
/// Returns the shortened sequence and whether anything was omitted. The
/// pass charges `current.len()` vectors up front and consults the token at
/// every speculative-wave boundary; a tripped budget returns the
/// [`StopReason`] and discards the partial pass (the caller resumes from
/// the sequence it passed in — a pass boundary).
///
/// Worker panics (including injected ones) are confined to the trial they
/// occurred in: the lost verdict is recomputed on the coordinating thread
/// by a full reference re-simulation, a `degrade` event is emitted, and
/// the pass continues — the kept-vector decisions are identical either
/// way.
fn omission_pass(
    circuit: &Circuit,
    targets: &FaultList,
    current: &TestSequence,
    pass: usize,
    obs: &ObsHandle,
    ctl: &CancelToken,
) -> Result<(TestSequence, bool), StopReason> {
    let pass_span = obs.span_indexed(SpanKind::Pass, "omission-pass", pass as u64 + 1);
    let pass_obs = pass_span.handle();
    // A pass re-simulates the whole sequence at least once (recording)
    // plus suffixes per trial; charge its length as the vector cost.
    ctl.charge_vectors(current.len() as u64);
    ctl.check()?;
    // One recorded pass per omission pass: every trial below restarts
    // from its candidate's checkpoint instead of simulating from 0.
    let ck = TrialCheckpoints::record_observed(circuit, targets, current, pass_obs);
    assert_eq!(
        ck.recorded_detected(),
        ck.total_lanes(),
        "omission invariant: the current sequence must detect every target"
    );
    let len = current.len();
    let mut keep = vec![true; len];
    let mut prefix = ck.initial_prefix();
    let mut changed = false;
    let threads = sim_threads().max(1);
    // Fail-first order: every trial of a wave starts at the batch that
    // failed the last committed failing trial, and first steps the fault
    // that trial lost. Kept here, on the coordinating thread, so each
    // trial's work is deterministic for a given thread count.
    let mut hint: Option<Loss> = None;

    let mut o = 0usize;
    while o < len {
        ctl.check()?;
        if threads > 1 {
            // Fold the kept vectors logged since the last wave into every
            // open batch here, once, rather than in every worker's clone,
            // where the work would be thrown away with the clone; the
            // clones then share the hinted fault's state too.
            ck.catch_up(&mut prefix);
            if let Some(loss) = hint {
                ck.follow(&mut prefix, loss);
            }
        }
        if prefix.all_detected() {
            // The kept prefix alone covers every target: every
            // remaining candidate trivially succeeds.
            let dropped = keep[o..].iter().filter(|k| **k).count();
            for k in &mut keep[o..] {
                *k = false;
            }
            pass_obs.counter(Metric::TrialsCommitted, dropped as u64);
            changed = true;
            break;
        }
        // Speculative wave: candidates `o..o+wave` are decided
        // concurrently, each assuming the ones before it fail. The
        // in-order commit below keeps only verdicts whose assumption
        // held, so the keep mask cannot depend on scheduling.
        let wave = threads.min(len - o);
        let verdicts: Vec<Option<Result<(), Loss>>> = if wave <= 1 {
            let _trial = pass_span.child_indexed(SpanKind::Trial, "trial", o as u64);
            vec![checked_trial(&ck, &mut prefix, o, hint)]
        } else {
            let next = AtomicUsize::new(0);
            let mut verdicts = vec![None; wave];
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..wave)
                    .map(|_| {
                        let (next, ck, prefix) = (&next, &ck, &prefix);
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= wave {
                                    break;
                                }
                                let mut p = prefix.clone();
                                for kept in o..o + i {
                                    ck.advance(&mut p, kept);
                                }
                                let _trial =
                                    pass_obs.span_indexed(SpanKind::Trial, "trial", (o + i) as u64);
                                out.push((i, checked_trial(ck, &mut p, o + i, hint)));
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    // A worker that died outside its guarded trial loses
                    // every verdict it had claimed but not reported; the
                    // slots stay `None` and are recomputed below.
                    if let Ok(list) = handle.join() {
                        for (i, v) in list {
                            verdicts[i] = v;
                        }
                    }
                }
            });
            verdicts
        };
        // Graceful degradation: recompute any verdict lost to a panic by
        // full re-simulation of the trial sequence. Slower, but bit-exact —
        // the oracle path the differential suite pins the engine to.
        let verdicts: Vec<Result<(), Option<Loss>>> = verdicts
            .into_iter()
            .enumerate()
            .map(|(i, v)| match v {
                Some(verdict) => verdict.map_err(Some),
                None => {
                    let c = o + i;
                    pass_obs.degrade("omission-trial", c as u64);
                    pass_obs.counter(Metric::DegradedTrials, 1);
                    // The oracle names no loss: the hint stays.
                    if reference_trial(circuit, targets, current, &keep, c) {
                        Ok(())
                    } else {
                        Err(None)
                    }
                }
            })
            .collect();
        let mut omitted = false;
        for (i, v) in verdicts.into_iter().enumerate() {
            let c = o + i;
            match v {
                Ok(()) => {
                    keep[c] = false;
                    pass_obs.counter(Metric::TrialsCommitted, 1);
                    changed = true;
                    o = c + 1;
                    omitted = true;
                    break; // later verdicts assumed `c` kept — invalid now
                }
                Err(loss) => hint = loss.or(hint),
            }
            ck.advance(&mut prefix, c);
        }
        if !omitted {
            o += wave;
        }
    }

    Ok((current.select(&keep), changed))
}

/// A checkpointed trial, checking the hinted batch first (batch 0 without
/// a hint) and probing the hinted fault, with panic confinement: `None`
/// means the trial panicked (worker bug or injected fault) and its verdict
/// must be recomputed on the oracle path. The batches the trial caught up
/// stay caught up in `prefix`; a panic leaves each batch either caught up
/// or as it was.
fn checked_trial(
    ck: &TrialCheckpoints<'_>,
    prefix: &mut PrefixState,
    candidate: usize,
    hint: Option<Loss>,
) -> Option<Result<(), Loss>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        limscan_sim::fail_inject::panic_trial_point();
        ck.trial(prefix, candidate, hint.map_or(0, |h| h.batch), hint)
    }))
    .ok()
}

/// The oracle fallback for one lost trial verdict: simulate the kept
/// sequence minus `candidate` from scratch and ask whether every target is
/// still detected. At the point this runs, `keep[t]` is final for `t`
/// before the current wave and still `true` for everything in and after
/// it, which is exactly the trial's assumption.
fn reference_trial(
    circuit: &Circuit,
    targets: &FaultList,
    current: &TestSequence,
    keep: &[bool],
    candidate: usize,
) -> bool {
    let mut trial_seq = TestSequence::new(current.width());
    for (t, &kept) in keep.iter().enumerate().take(current.len()) {
        if t != candidate && kept {
            trial_seq.push(current.vector(t).to_vec());
        }
    }
    SeqFaultSim::run(circuit, targets, &trial_seq).detected_count() == targets.len()
}

/// One budget-aware, observed omission pass: the form the flow driver
/// calls, which owns the pass loop so it can checkpoint between passes.
///
/// `target_indices` are indices into `faults` naming the omission targets
/// (the faults the sequence detected before omission began) — stored in
/// the flow snapshot so a resumed run compacts toward the same set.
/// Returns the shortened sequence and whether the pass changed anything.
/// The pass emits one `omission-pass` span, a `trial` span per candidate
/// decision, and the trial/checkpoint counters. Trial spans run on the
/// speculative-wave worker threads, so their order is only deterministic
/// for a single-threaded run; the attempted/early-exit/checkpoint counts
/// repeat exactly at a given thread count, and committed omissions are
/// counted on the coordinating thread and are deterministic for any
/// thread count. Worker panics are confined to their trial and recomputed
/// on the oracle path.
///
/// # Errors
///
/// The latched [`StopReason`] when the token trips; the pass's partial
/// work is discarded (the input sequence remains the resume point).
pub fn omission_pass_resumable(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    target_indices: &[usize],
    pass: usize,
    obs: &ObsHandle,
    ctl: &CancelToken,
) -> Result<(TestSequence, bool), StopReason> {
    if sequence.is_empty() {
        return Ok((sequence.clone(), false));
    }
    let targets = FaultList::from_faults(
        target_indices
            .iter()
            .map(|&i| faults.fault(FaultId::from_index(i))),
    );
    omission_pass(circuit, &targets, sequence, pass, obs, ctl)
}

/// The pre-checkpoint omission engine: one cloned [`SeqFaultSim`] and a
/// full suffix re-simulation per candidate vector.
///
/// Kept as the bit-exact oracle for [`omission`] — the differential tests
/// assert identical kept-vector sets — and for before/after benchmarks
/// (`compact_bench`). Production code should call [`omission`].
pub fn omission_reference(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    max_passes: usize,
) -> Compacted {
    compact_by_passes(
        circuit,
        faults,
        sequence,
        max_passes,
        |targets, current, _| omission_reference_pass(circuit, targets, current),
    )
}

/// One pass of the reference (full re-simulation) omission engine over
/// `current`: a left-to-right scan with an incrementally maintained prefix
/// simulator — a trial only has to re-simulate the suffix, and only for
/// the faults the (unchanged) prefix does not already detect.
fn omission_reference_pass(
    circuit: &Circuit,
    targets: &FaultList,
    sequence: &TestSequence,
) -> (TestSequence, bool) {
    let mut current = sequence.clone();
    let mut changed = false;
    let mut prefix_sim = SeqFaultSim::new(circuit, targets);
    let mut t = 0;
    while t < current.len() {
        let suffix: TestSequence = (t + 1..current.len())
            .map(|i| current.vector(i).to_vec())
            .collect();
        let detects_all = if prefix_sim.detected_count() == targets.len() {
            true // the prefix alone already covers every target
        } else {
            let mut trial = prefix_sim.clone();
            if suffix.is_empty() {
                false // dropping the last vector loses something
            } else {
                trial.extend(&suffix);
                trial.detected_count() == targets.len()
            }
        };
        if detects_all {
            current = current.without(t);
            changed = true; // prefix unchanged; same index is new vector
        } else {
            let mut one = TestSequence::new(current.width());
            one.push(current.vector(t).to_vec());
            prefix_sim.extend(&one);
            t += 1;
        }
    }
    (current, changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::benchmarks;
    use limscan_scan::ScanCircuit;
    use limscan_sim::Logic;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = TestSequence::new(width);
        for _ in 0..len {
            seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
        }
        seq
    }

    #[test]
    fn omission_never_loses_targets() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let seq = random_sequence(c.inputs().len(), 60, 8);
        let before = SeqFaultSim::run(c, &faults, &seq);
        let out = omission(c, &faults, &seq, 3);
        let after = SeqFaultSim::run(c, &faults, &out.sequence);
        for (id, f) in faults.iter() {
            if before.is_detected(id) {
                assert!(after.is_detected(id), "{} lost", f.display_name(c));
            }
        }
        assert!(out.sequence.len() <= seq.len());
    }

    #[test]
    fn duplicate_vectors_are_omitted() {
        // Doubling every vector of a sequence is pure slack for a scan
        // circuit test; omission must remove a substantial part of it.
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let base = random_sequence(c.inputs().len(), 30, 4);
        let mut padded = TestSequence::new(c.inputs().len());
        for v in base.iter() {
            padded.push(v.to_vec());
            padded.push(v.to_vec());
        }
        let out = omission(c, &faults, &padded, 2);
        assert!(
            out.sequence.len() <= padded.len() - 10,
            "padded len {} only shrank to {}",
            padded.len(),
            out.sequence.len()
        );
    }

    #[test]
    fn single_pass_is_weaker_or_equal_to_many() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let seq = random_sequence(c.inputs().len(), 50, 12);
        let one = omission(c, &faults, &seq, 1);
        let many = omission(c, &faults, &seq, 5);
        assert!(many.sequence.len() <= one.sequence.len());
    }

    #[test]
    fn empty_sequence_is_a_fixpoint() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let out = omission(c, &faults, &TestSequence::new(c.inputs().len()), 3);
        assert!(out.sequence.is_empty());
        assert_eq!(out.extra_detected, 0);
    }

    #[test]
    fn final_vector_omission_when_redundant() {
        // Appending a detection-free vector to a sequence: a single pass
        // must drop it (the trial at the last position has an empty tail
        // and succeeds only because the prefix already covers everything).
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let mut seq = random_sequence(c.inputs().len(), 40, 19);
        let covered = SeqFaultSim::run(c, &faults, &seq);
        seq.push(vec![Logic::Zero; c.inputs().len()]);
        let padded = SeqFaultSim::run(c, &faults, &seq);
        assert_eq!(
            covered.detected_count(),
            padded.detected_count(),
            "the all-zero vector must not detect anything new for this test"
        );
        for engine in [omission, omission_reference] {
            let out = engine(c, &faults, &seq, 1);
            assert!(
                out.sequence.len() < seq.len(),
                "the redundant final vector must be droppable"
            );
            assert_eq!(out.sequence, omission(c, &faults, &seq, 1).sequence);
        }
    }

    #[test]
    fn final_vector_kept_when_it_carries_a_detection() {
        // If some fault is detected only at the very last vector, dropping
        // it must be rejected (the empty-tail trial fails).
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        for seed in 0..20u64 {
            let seq = random_sequence(c.inputs().len(), 25, seed);
            let report = SeqFaultSim::run(c, &faults, &seq);
            let last_detects = faults
                .ids()
                .any(|id| report.detected_at(id) == Some(seq.len() as u32 - 1));
            if !last_detects {
                continue;
            }
            let out = omission(c, &faults, &seq, 1);
            let last = seq.vector(seq.len() - 1);
            assert_eq!(
                out.sequence.vector(out.sequence.len() - 1),
                last,
                "seed {seed}: a final vector carrying a unique detection must survive"
            );
            return;
        }
        panic!("no seed produced a last-vector detection; test needs new seeds");
    }

    #[test]
    fn prefix_covering_all_targets_drops_the_rest() {
        // Duplicate a sequence after itself: the first copy detects every
        // target, so one pass must omit (at least) the whole second copy.
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let base = random_sequence(c.inputs().len(), 40, 23);
        let mut doubled = base.clone();
        doubled.extend_from(&base);
        for engine in [omission, omission_reference] {
            let out = engine(c, &faults, &doubled, 1);
            assert!(
                out.sequence.len() <= base.len(),
                "prefix covers all targets; the second copy must go (len {})",
                out.sequence.len()
            );
        }
        assert_eq!(
            omission(c, &faults, &doubled, 1).sequence,
            omission_reference(c, &faults, &doubled, 1).sequence
        );
    }

    #[test]
    fn all_x_vector_is_handled_and_omitted() {
        // An all-X vector detects nothing and (in a scan circuit, where
        // scan_sel = X makes every flip-flop X) usually hurts; it must
        // neither crash the three-valued kernels nor survive compaction.
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let mut seq = random_sequence(c.inputs().len(), 20, 31);
        seq.push(vec![Logic::X; c.inputs().len()]);
        let tail = random_sequence(c.inputs().len(), 20, 32);
        seq.extend_from(&tail);
        let inc = omission(c, &faults, &seq, 2);
        let reference = omission_reference(c, &faults, &seq, 2);
        assert_eq!(inc.sequence, reference.sequence);
        assert_eq!(inc.extra_detected, reference.extra_detected);
        let xs = |s: &TestSequence| {
            (0..s.len())
                .filter(|&t| s.vector(t).iter().all(|v| *v == Logic::X))
                .count()
        };
        assert_eq!(xs(&inc.sequence), 0, "the all-X vector must be omitted");
    }
}
