//! Vector-restoration-based static compaction (after \[23\]).
//!
//! Processing the detected faults in decreasing order of their detection
//! time under the original sequence, the procedure restores vectors
//! backwards from each fault's detection time until the kept subsequence
//! detects the fault again. Earlier vectors restored for hard faults
//! usually cover the easier ones for free, so large stretches of the
//! original sequence are never restored.
//!
//! Restoration is performed in doubling chunks (single vector first, then
//! 2, 4, ... back toward time 0). Chunked restoration is the standard way
//! of keeping the quadratic re-simulation cost in check — the idea behind
//! the overlapped restoration of \[24\] — and never loses a detection: a
//! fault's own detection prefix is always a fallback.
//!
//! Two implementations share this module:
//!
//! * [`restoration`] and [`restoration_resumable`] — the production
//!   engine. Each restoration episode starts with one *recorded pass* of
//!   the fault over the kept subsequence, the fault-free and faulty
//!   machines side by side on the compiled frame ([`FrameSim::step_pair`]),
//!   which doubles as the covered check and caches the (good, faulty)
//!   flip-flop state pair at every kept position. A doubling-chunk probe
//!   then resumes from the cached state just before the restored window
//!   instead of re-simulating the shared prefix, and fails early in the
//!   kept tail as soon as its state pair converges back onto the recorded
//!   pass (whose remainder is known not to detect).
//! * [`restoration_reference`] — the original implementation: one full
//!   [`single_fault_detects`] scan per probe. Kept as the bit-exact oracle
//!   for the differential test suite; production code should call
//!   [`restoration`].

use limscan_fault::{Fault, FaultList};
use limscan_harness::{CancelToken, StopReason};
use limscan_netlist::Circuit;
use limscan_obs::{Metric, ObsHandle, SpanKind};
use limscan_sim::{single_fault_detects, FrameSim, Logic, SeqFaultSim, TestSequence};

use crate::Compacted;

/// One recorded single-fault pass over the kept subsequence: the
/// detection-prefix cache shared by every probe of a restoration episode.
///
/// The fault-free and faulty machines run side by side in lanes 0 and 1 of
/// a [`FrameSim`] ([`FrameSim::step_pair`]) that the pass holds for the
/// episode, with the episode's fault injected into lane 1. `states` holds
/// the (good, faulty) flip-flop state pair *before* kept position `k`, for
/// `k in 0..=kept_idx.len()`, `2 * n_ff` values each; the pairs are only
/// stored when the pass detects nothing, which is exactly when probes
/// happen.
struct RecordedPass<'f, 'c> {
    frame: &'f mut FrameSim<'c>,
    sequence: &'f TestSequence,
    kept_idx: Vec<usize>,
    n_ff: usize,
    states: Vec<Logic>,
    detected: bool,
}

impl<'f, 'c> RecordedPass<'f, 'c> {
    /// Injects `fault` into lane 1 of `frame` and simulates it over the
    /// vectors of `sequence` selected by `keep`, recording the state pair
    /// at every kept position.
    fn record(
        frame: &'f mut FrameSim<'c>,
        fault: Fault,
        sequence: &'f TestSequence,
        keep: &[bool],
    ) -> Self {
        frame.inject(Some(fault), 0b10);
        let kept_idx: Vec<usize> = (0..sequence.len()).filter(|&p| keep[p]).collect();
        let n_ff = frame.circuit().dffs().len();
        let mut states = Vec::with_capacity((kept_idx.len() + 1) * 2 * n_ff);
        let (mut good, mut bad) = (vec![Logic::X; n_ff], vec![Logic::X; n_ff]);
        let mut detected = false;
        states.extend_from_slice(&good);
        states.extend_from_slice(&bad);
        for &p in &kept_idx {
            if frame.step_pair(sequence.vector(p), &mut good, &mut bad) {
                detected = true;
                break; // states are never consulted once detection is known
            }
            states.extend_from_slice(&good);
            states.extend_from_slice(&bad);
        }
        RecordedPass {
            frame,
            sequence,
            kept_idx,
            n_ff,
            states,
            detected,
        }
    }

    /// The recorded (good, faulty) state pair before kept position `k`.
    fn pair(&self, k: usize) -> (&[Logic], &[Logic]) {
        self.states[2 * k * self.n_ff..2 * (k + 1) * self.n_ff].split_at(self.n_ff)
    }

    /// Does the kept subsequence extended by the restored window
    /// `[lo, t_f]` detect the fault?
    ///
    /// Equivalent to `single_fault_detects` over `sequence.select(keep)`
    /// after the caller set `keep[lo..=t_f] = true`, but resumes from the
    /// cached state pair at the window boundary and exits the kept tail
    /// early once its state pair re-converges onto the recorded pass.
    fn probe(&mut self, lo: usize, t_f: usize) -> bool {
        debug_assert!(!self.detected);
        // Kept positions < lo are untouched by this episode, so the cached
        // state just before the first of them at-or-after `lo` is exact.
        let k0 = self.kept_idx.partition_point(|&p| p < lo);
        let (good, bad) = self.pair(k0);
        let (mut good, mut bad) = (good.to_vec(), bad.to_vec());
        // The restored window: every original vector in [lo, t_f] is kept
        // (this probe's chunk plus the chunks of earlier iterations).
        for p in lo..=t_f {
            if self
                .frame
                .step_pair(self.sequence.vector(p), &mut good, &mut bad)
            {
                return true;
            }
        }
        // The kept tail beyond t_f, with convergence early exit: once the
        // probe's state pair equals the recorded pass's at the same kept
        // position, the futures coincide — and the recorded pass detects
        // nothing from here on.
        let k_tail = self.kept_idx.partition_point(|&p| p <= t_f);
        for (k, &p) in self.kept_idx.iter().enumerate().skip(k_tail) {
            if self.pair(k) == (&good[..], &bad[..]) {
                return false;
            }
            if self
                .frame
                .step_pair(self.sequence.vector(p), &mut good, &mut bad)
            {
                return true;
            }
        }
        false
    }
}

/// Compacts `sequence` by vector restoration; the target faults are exactly
/// those the input sequence detects.
///
/// The returned sequence detects every target fault (verified internally by
/// fault simulation) and possibly more ([`Compacted::extra_detected`]).
/// Kept-vector decisions are identical to [`restoration_reference`] — the
/// recorded pass and the convergence exit change the cost of a probe, never
/// its verdict.
pub fn restoration(circuit: &Circuit, faults: &FaultList, sequence: &TestSequence) -> Compacted {
    restoration_resumable(
        circuit,
        faults,
        sequence,
        &ObsHandle::noop(),
        &CancelToken::unlimited(),
    )
    .expect("an unlimited restoration cannot stop early")
}

/// [`restoration`] under an observability scope and a [`CancelToken`]: the
/// form the flow driver calls.
///
/// Emits one `restore-episode` span per restoration episode, a `probe`
/// span per doubling-chunk probe, and the episode/probe counters.
/// Restoration is single-threaded, so all of its counters are
/// deterministic. The token is consulted before every restoration episode
/// (charging the kept-prefix length as the episode's re-simulation cost),
/// so a tripped budget stops the compaction at an episode boundary.
///
/// Restoration has no mid-run cursor — its keep mask is only meaningful
/// once every target is covered — so an early stop discards the partial
/// mask and the flow resumes restoration from the uncompacted sequence.
///
/// # Errors
///
/// The latched [`StopReason`] when the token trips.
pub fn restoration_resumable(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
    obs: &ObsHandle,
    ctl: &CancelToken,
) -> Result<Compacted, StopReason> {
    // The probes step a frame that shares this simulator's compiled
    // circuit.
    let (report, mut frame) = {
        let mut sim = SeqFaultSim::new(circuit, faults);
        sim.set_obs(obs);
        sim.extend(sequence);
        (sim.report(), sim.frame_sim())
    };
    let mut targets: Vec<(u32, limscan_fault::FaultId)> = faults
        .ids()
        .filter_map(|id| report.detected_at(id).map(|t| (t, id)))
        .collect();
    // Decreasing detection time; ties broken by fault id for determinism.
    targets.sort_by(|a, b| b.cmp(a));
    let target_count = targets.len();

    let mut keep = vec![false; sequence.len()];
    // `covered[i]` marks targets the kept subsequence is known to detect;
    // refreshed in bulk by a parallel simulation every few restoration
    // episodes, which skips most targets outright.
    let mut covered = vec![false; targets.len()];
    let mut episodes_since_drop = 0usize;
    for (i, &(t_f, id)) in targets.iter().enumerate() {
        if covered[i] {
            continue;
        }
        // Each episode re-simulates (at least) the kept subsequence.
        ctl.charge_vectors(keep.iter().filter(|k| **k).count() as u64);
        ctl.check()?;
        let fault = faults.fault(id);
        let episode = obs.span_indexed(SpanKind::Episode, "restore-episode", i as u64);
        episode.handle().counter(Metric::RestorationEpisodes, 1);
        // One recorded pass per episode: the covered check and the probe
        // cache in a single simulation of the kept subsequence.
        let mut rec = RecordedPass::record(&mut frame, fault, sequence, &keep);
        if rec.detected {
            covered[i] = true;
            continue; // already covered by vectors restored for harder faults
        }
        // Restore in doubling chunks from the detection time backwards.
        let mut next = t_f as isize;
        let mut chunk = 1isize;
        loop {
            let lo = (next - chunk + 1).max(0);
            for p in lo..=next {
                keep[p as usize] = true;
            }
            episode.handle().counter(Metric::RestorationProbes, 1);
            let hit = {
                let _probe = episode.child_indexed(SpanKind::Trial, "probe", lo as u64);
                rec.probe(lo as usize, t_f as usize)
            };
            if hit {
                break;
            }
            // Once the whole prefix [0, t_f] is restored, `kept` starts
            // with exactly the original prefix, which detects the fault at
            // t_f — so an undetected fault here would be a simulator bug.
            assert!(lo > 0, "restoring the full prefix must re-detect the fault");
            next = lo - 1;
            chunk *= 2;
        }
        covered[i] = true;
        drop(episode);

        episodes_since_drop += 1;
        if episodes_since_drop >= 8 {
            episodes_since_drop = 0;
            let remaining: Vec<usize> = (i + 1..targets.len()).filter(|&j| !covered[j]).collect();
            if !remaining.is_empty() {
                let sub =
                    FaultList::from_faults(remaining.iter().map(|&j| faults.fault(targets[j].1)));
                let kept = sequence.select(&keep);
                let report = {
                    let mut sim = SeqFaultSim::new(circuit, &sub);
                    sim.set_obs(obs);
                    sim.extend(&kept);
                    sim.report()
                };
                for (k, &j) in remaining.iter().enumerate() {
                    if report.is_detected(limscan_fault::FaultId::from_index(k)) {
                        covered[j] = true;
                    }
                }
            }
        }
    }

    let sequence_out = sequence.select(&keep);
    let after = {
        let mut sim = SeqFaultSim::new(circuit, faults);
        sim.set_obs(obs);
        sim.extend(&sequence_out);
        sim.report()
    };
    let extra_detected = faults
        .ids()
        .filter(|&id| after.is_detected(id) && !report.is_detected(id))
        .count();
    Ok(Compacted {
        sequence: sequence_out,
        original_len: sequence.len(),
        target_count,
        extra_detected,
    })
}

/// The pre-cache restoration engine: one full [`single_fault_detects`]
/// scan of the kept subsequence per covered check and per probe.
///
/// Kept as the bit-exact oracle for [`restoration`] — the differential
/// tests assert identical kept-vector sets — and for before/after
/// benchmarks (`compact_bench`). Production code should call
/// [`restoration`].
pub fn restoration_reference(
    circuit: &Circuit,
    faults: &FaultList,
    sequence: &TestSequence,
) -> Compacted {
    let report = SeqFaultSim::run(circuit, faults, sequence);
    let mut targets: Vec<(u32, limscan_fault::FaultId)> = faults
        .ids()
        .filter_map(|id| report.detected_at(id).map(|t| (t, id)))
        .collect();
    // Decreasing detection time; ties broken by fault id for determinism.
    targets.sort_by(|a, b| b.cmp(a));
    let target_count = targets.len();

    let mut keep = vec![false; sequence.len()];
    // `covered[i]` marks targets the kept subsequence is known to detect;
    // refreshed in bulk by a parallel simulation every few restoration
    // episodes, which skips most targets outright.
    let mut covered = vec![false; targets.len()];
    let mut episodes_since_drop = 0usize;
    for (i, &(t_f, id)) in targets.iter().enumerate() {
        if covered[i] {
            continue;
        }
        let fault = faults.fault(id);
        let kept = sequence.select(&keep);
        if single_fault_detects(circuit, fault, &kept).is_some() {
            covered[i] = true;
            continue; // already covered by vectors restored for harder faults
        }
        // Restore in doubling chunks from the detection time backwards.
        let mut next = t_f as isize;
        let mut chunk = 1isize;
        loop {
            let lo = (next - chunk + 1).max(0);
            for p in lo..=next {
                keep[p as usize] = true;
            }
            let kept = sequence.select(&keep);
            if single_fault_detects(circuit, fault, &kept).is_some() {
                break;
            }
            // Once the whole prefix [0, t_f] is restored, `kept` starts
            // with exactly the original prefix, which detects the fault at
            // t_f — so an undetected fault here would be a simulator bug.
            assert!(lo > 0, "restoring the full prefix must re-detect the fault");
            next = lo - 1;
            chunk *= 2;
        }
        covered[i] = true;

        episodes_since_drop += 1;
        if episodes_since_drop >= 8 {
            episodes_since_drop = 0;
            let remaining: Vec<usize> = (i + 1..targets.len()).filter(|&j| !covered[j]).collect();
            if !remaining.is_empty() {
                let sub =
                    FaultList::from_faults(remaining.iter().map(|&j| faults.fault(targets[j].1)));
                let kept = sequence.select(&keep);
                let report = SeqFaultSim::run(circuit, &sub, &kept);
                for (k, &j) in remaining.iter().enumerate() {
                    if report.is_detected(limscan_fault::FaultId::from_index(k)) {
                        covered[j] = true;
                    }
                }
            }
        }
    }

    let sequence_out = sequence.select(&keep);
    let after = SeqFaultSim::run(circuit, faults, &sequence_out);
    let extra_detected = faults
        .ids()
        .filter(|&id| after.is_detected(id) && !report.is_detected(id))
        .count();
    Compacted {
        sequence: sequence_out,
        original_len: sequence.len(),
        target_count,
        extra_detected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::benchmarks;
    use limscan_scan::ScanCircuit;
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
    fn restoration_never_loses_targets() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let seq = random_sequence(c.inputs().len(), 90, 21);
        let before = SeqFaultSim::run(c, &faults, &seq);
        let out = restoration(c, &faults, &seq);
        let after = SeqFaultSim::run(c, &faults, &out.sequence);
        for (id, f) in faults.iter() {
            if before.is_detected(id) {
                assert!(
                    after.is_detected(id),
                    "{} lost by restoration",
                    f.display_name(c)
                );
            }
        }
    }

    #[test]
    fn restoration_shrinks_padded_sequences() {
        // A sequence with long useless stretches must lose them.
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let mut seq = random_sequence(c.inputs().len(), 40, 3);
        // Pad with 60 all-zero vectors that detect nothing new.
        for _ in 0..60 {
            seq.push(vec![Logic::Zero; c.inputs().len()]);
        }
        let out = restoration(c, &faults, &seq);
        assert!(
            out.sequence.len() < 70,
            "padding should not survive (len {})",
            out.sequence.len()
        );
    }

    #[test]
    fn empty_sequence_is_a_fixpoint() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let out = restoration(c, &faults, &TestSequence::new(c.inputs().len()));
        assert!(out.sequence.is_empty());
        assert_eq!(out.target_count, 0);
    }

    #[test]
    fn deterministic() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let seq = random_sequence(c.inputs().len(), 60, 9);
        assert_eq!(
            restoration(c, &faults, &seq).sequence,
            restoration(c, &faults, &seq).sequence
        );
    }

    #[test]
    fn matches_reference_on_padded_sequences() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        for seed in [3u64, 7, 11] {
            let mut seq = random_sequence(c.inputs().len(), 50, seed);
            for _ in 0..20 {
                seq.push(vec![Logic::Zero; c.inputs().len()]);
            }
            let inc = restoration(c, &faults, &seq);
            let reference = restoration_reference(c, &faults, &seq);
            assert_eq!(inc.sequence, reference.sequence, "seed {seed}");
            assert_eq!(inc.extra_detected, reference.extra_detected, "seed {seed}");
        }
    }
}
