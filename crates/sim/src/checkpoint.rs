//! Checkpointed omission-trial engine.
//!
//! Vector-omission compaction asks the same question over and over: *if
//! vector `t` is dropped, does the rest of the sequence still detect every
//! target fault?* Answering it from scratch costs a full suffix
//! re-simulation per candidate. [`TrialCheckpoints`] records one pass over
//! the sequence — the fault-free trace, every batch's sparse flip-flop
//! divergence at checkpointed time units, and the per-time-unit primary-
//! output conflict masks — and then decides each trial batch by batch,
//! lane by lane. A lane is *settled* once its verdict is known, and a
//! batch is decided by one of two exits:
//!
//! * **early success** — every lane the prefix left undetected produced a
//!   conflict in the simulated tail;
//! * **per-lane convergence** — scan circuits re-synchronise quickly (a
//!   complete scan-in overwrites the whole chain), so a lane's machine
//!   usually re-joins the recorded trajectory within a few vectors. Lanes
//!   are independent machines: once the fault-free state *and* one lane's
//!   flip-flop word equal the recording at an aligned time unit, that
//!   lane's future is the recording's future. The suffix-OR of the
//!   recorded conflict masks (`future_conflicts`) then settles it — a
//!   lane that conflicts again later will be detected; one that does not
//!   is provably lost and fails the trial at once. The batch succeeds as
//!   soon as no undetected lane is left unsettled, even while detected or
//!   settled lanes are still off the recording.
//!
//! A trial's verdict is the AND over its batches, so the order in which
//! batches are checked changes its cost, never its outcome.
//! [`TrialCheckpoints::trial`] starts at a caller-chosen batch and names
//! the batch that failed it; the omission pass feeds that back as the next
//! trials' first batch (fail-first order), so a failing trial usually
//! stops after one batch.
//!
//! The alignment is sound because omission only ever drops vectors to the
//! *left* of the trial point: the vectors applied after a trial at `t` are
//! exactly the recorded vectors `t+1..len`, so recorded snapshots and
//! conflict masks line up with the trial by original vector index, no
//! matter how many earlier vectors the current pass has already dropped.
//!
//! Everything is simulated by the same lane-exact [`BatchStepper`] kernel
//! as [`SeqFaultSim::extend`](crate::SeqFaultSim::extend) — wide words,
//! [`LANES`] target faults per batch — so trial verdicts are bit-identical
//! to re-simulating the shortened sequence from scratch.

use std::cell::RefCell;

use limscan_fault::{FaultId, FaultList};
use limscan_netlist::Circuit;
use limscan_obs::{Metric, ObsHandle};

use crate::engine::{with_kernel, BatchStepper, Topology};
use crate::logic::Logic;
use crate::parallel::{mask, WideWord, LANES, LANE_WORDS};
use crate::sequence::TestSequence;

/// The wide word and lane mask the trial engine records in.
type Wide = WideWord<LANE_WORDS>;
type LaneMask = [u64; LANE_WORDS];

/// Soft cap on the memory the recorded divergence snapshots may take; the
/// snapshot stride grows with the worst-case footprint, trading a bounded
/// early-exit delay (< stride vectors) for bounded memory. Wide words make
/// each snapshot entry bigger but cut the batch count by the same factor,
/// so the footprint — and the stride the budget picks — stays put.
const SNAPSHOT_BUDGET: usize = 48 << 20;

/// One recorded batch of ≤[`LANES`] target faults.
struct BatchRec {
    /// The batch's faults; lane `i` simulates `lanes[i]`.
    lanes: Vec<FaultId>,
    /// Lane mask covering exactly this batch's faults.
    full_mask: LaneMask,
    /// Lanes the recorded (full-sequence) pass detected.
    detected: LaneMask,
    /// Sparse flip-flop divergence before time unit `k * stride`, sorted by
    /// flip-flop index; slot 0 is unused.
    snapshots: Vec<Vec<(u32, Wide)>>,
    /// `future_conflicts[t]`: OR of the raw primary-output conflict masks
    /// at time units `t..len` of the recorded pass (`len + 1` entries, the
    /// last one 0). A lane bit is set iff the recorded future detects it.
    future_conflicts: Vec<LaneMask>,
}

/// Per-thread scratch for [`TrialCheckpoints::advance`] and
/// [`TrialCheckpoints::trial`]; grows to the largest trial seen and is then
/// allocation-free.
#[derive(Default)]
struct TrialScratch {
    /// Fresh fault-free net values for the pre-convergence part of a trial
    /// tail (`fresh × n_nets`).
    rows: Vec<Logic>,
    /// Fresh fault-free states for the same window (`(fresh + 1) × n_ff`).
    states: Vec<Logic>,
    /// One fault-free row / next state for `advance`.
    row: Vec<Logic>,
    next: Vec<Logic>,
    /// Intra-gate temp slots for the scalar flat evaluation.
    tmp: Vec<Logic>,
}

thread_local! {
    static SCRATCH: RefCell<TrialScratch> = RefCell::new(TrialScratch::default());
}

/// Fault-free scalar step: loads `vector` and `state` into `row`, evaluates
/// the flat op stream and extracts the next state. Identical to the trace
/// pass of [`SeqFaultSim::extend`](crate::SeqFaultSim::extend).
fn eval_row(
    topo: &Topology,
    vector: &[Logic],
    state: &[Logic],
    row: &mut [Logic],
    next: &mut [Logic],
    tmp: &mut [Logic],
) {
    row.fill(Logic::X);
    for (&pi, &v) in topo.pi().iter().zip(vector) {
        row[pi as usize] = v;
    }
    for (&q, &v) in topo.dff_q().iter().zip(state) {
        row[q as usize] = v;
    }
    topo.flat.eval_scalar(row, tmp);
    for (i, &d) in topo.dff_d().iter().enumerate() {
        next[i] = row[d as usize];
    }
}

/// The machine state of an omission pass's kept prefix: the fault-free
/// state plus every target batch's absolute per-lane flip-flop states and
/// detection mask. Cheap to clone, which is what lets speculative trials
/// fan out across threads.
#[derive(Clone)]
pub struct PrefixState {
    good: Vec<Logic>,
    /// Per batch: absolute per-lane state word of every flip-flop. Stale
    /// for batches whose lanes are all detected (they are skipped).
    lanes: Vec<Vec<Wide>>,
    detected: Vec<LaneMask>,
    n_detected: usize,
    total_lanes: usize,
}

impl PrefixState {
    /// Whether the prefix alone already detects every target.
    pub fn all_detected(&self) -> bool {
        self.n_detected == self.total_lanes
    }

    /// Number of target lanes the prefix detects.
    pub fn detected_lanes(&self) -> usize {
        self.n_detected
    }
}

/// One recorded omission pass: checkpoints every trial can restart from.
///
/// Recorded once per pass by [`record`](Self::record); [`advance`] folds
/// kept vectors into a [`PrefixState`] and [`trial`] decides a candidate
/// omission with early exits. See the module docs for the design.
///
/// [`advance`]: Self::advance
/// [`trial`]: Self::trial
pub struct TrialCheckpoints<'a> {
    circuit: &'a Circuit,
    targets: &'a FaultList,
    seq: &'a TestSequence,
    topo: Topology,
    n_nets: usize,
    n_ff: usize,
    len: usize,
    stride: usize,
    /// `len × n_nets` fault-free net values of the recorded pass.
    good_rows: Vec<Logic>,
    /// `(len + 1) × n_ff` fault-free states (state *before* each time unit).
    good_states: Vec<Logic>,
    batches: Vec<BatchRec>,
    total_lanes: usize,
    /// Observability handle; no-op unless [`set_obs`](Self::set_obs) was
    /// called. Trials emit through it from worker threads, so sinks must
    /// tolerate concurrency (they are required to be `Sync`).
    obs: ObsHandle,
}

impl<'a> TrialCheckpoints<'a> {
    /// Records one full pass of `targets` over `seq` from the all-X state.
    ///
    /// Costs one un-truncated extension (no per-batch early exit — trials
    /// need the complete trajectory), paid once per omission pass.
    pub fn record(circuit: &'a Circuit, targets: &'a FaultList, seq: &'a TestSequence) -> Self {
        Self::record_with_budget(circuit, targets, seq, SNAPSHOT_BUDGET)
    }

    /// [`record`](Self::record) with an explicit snapshot budget in bytes,
    /// so tests can force a snapshot stride above 1 on small circuits.
    pub(crate) fn record_with_budget(
        circuit: &'a Circuit,
        targets: &'a FaultList,
        seq: &'a TestSequence,
        snapshot_budget: usize,
    ) -> Self {
        assert_eq!(
            seq.width(),
            circuit.inputs().len(),
            "sequence width does not match circuit inputs"
        );
        let topo = Topology::build(circuit);
        let n_nets = circuit.net_count();
        let n_ff = circuit.dffs().len();
        let len = seq.len();

        // Fault-free trace (scalar pass), kept for the trials.
        let mut good_rows = vec![Logic::X; len * n_nets];
        let mut good_states = vec![Logic::X; (len + 1) * n_ff];
        let mut tmp = vec![Logic::X; topo.flat.n_temps];
        for (t, v) in seq.iter().enumerate() {
            let (head, rest) = good_states.split_at_mut((t + 1) * n_ff);
            eval_row(
                &topo,
                v,
                &head[t * n_ff..],
                &mut good_rows[t * n_nets..(t + 1) * n_nets],
                &mut rest[..n_ff],
                &mut tmp,
            );
        }

        let ids: Vec<FaultId> = targets.ids().collect();
        let n_batches = ids.len().div_ceil(LANES);
        let entry = std::mem::size_of::<(u32, Wide)>();
        let worst = (len + 1)
            .saturating_mul(n_ff)
            .saturating_mul(n_batches.max(1))
            .saturating_mul(entry);
        let stride = worst.div_ceil(snapshot_budget).max(1);

        let mut batches = Vec::with_capacity(n_batches);
        with_kernel::<LANE_WORDS, _>(|ks| {
            for lanes in ids.chunks(LANES) {
                let mut stepper = BatchStepper::begin(
                    circuit,
                    &topo,
                    targets,
                    lanes,
                    ks,
                    &good_states[..n_ff],
                    |_| Wide::broadcast(Logic::X),
                );
                let full_mask = stepper.full_mask();
                let mut detected: LaneMask = [0; LANE_WORDS];
                let mut conflicts: Vec<LaneMask> = vec![[0; LANE_WORDS]; len];
                let mut snapshots = vec![Vec::new(); len / stride + 1];
                for t in 0..len {
                    let m = stepper.step(
                        &good_rows[t * n_nets..(t + 1) * n_nets],
                        &good_states[(t + 1) * n_ff..(t + 2) * n_ff],
                    );
                    conflicts[t] = m;
                    mask::or_assign(&mut detected, &m);
                    if (t + 1) % stride == 0 {
                        let mut snap = stepper.ff_diff().to_vec();
                        snap.sort_unstable_by_key(|e| e.0);
                        snapshots[(t + 1) / stride] = snap;
                    }
                }
                stepper.finish();
                let mut future_conflicts: Vec<LaneMask> = vec![[0; LANE_WORDS]; len + 1];
                for t in (0..len).rev() {
                    let mut f = conflicts[t];
                    mask::or_assign(&mut f, &future_conflicts[t + 1]);
                    future_conflicts[t] = f;
                }
                batches.push(BatchRec {
                    lanes: lanes.to_vec(),
                    full_mask,
                    detected,
                    snapshots,
                    future_conflicts,
                });
            }
        });

        TrialCheckpoints {
            circuit,
            targets,
            seq,
            topo,
            n_nets,
            n_ff,
            len,
            stride,
            good_rows,
            good_states,
            batches,
            total_lanes: ids.len(),
            obs: ObsHandle::noop(),
        }
    }

    /// Like [`record`](Self::record), but attaches an observability scope
    /// and accounts the recording pass (one un-truncated extension) to it.
    pub fn record_observed(
        circuit: &'a Circuit,
        targets: &'a FaultList,
        seq: &'a TestSequence,
        obs: &ObsHandle,
    ) -> Self {
        let mut ck = Self::record(circuit, targets, seq);
        ck.obs = obs.clone();
        ck.obs.counter(Metric::VectorsSimulated, ck.len as u64);
        ck.obs
            .counter(Metric::BatchesSimulated, ck.batches.len() as u64);
        ck
    }

    /// Attach (or replace) the observability scope used by
    /// [`advance`](Self::advance) and [`trial`](Self::trial).
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }

    /// Number of vectors in the recorded sequence.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the recorded sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of target lanes.
    pub fn total_lanes(&self) -> usize {
        self.total_lanes
    }

    /// Number of target lanes the recorded (full-sequence) pass detected.
    pub fn recorded_detected(&self) -> usize {
        self.batches.iter().map(|b| mask::count(&b.detected)).sum()
    }

    /// A prefix at time 0 (all-X states, nothing detected).
    pub fn initial_prefix(&self) -> PrefixState {
        PrefixState {
            good: vec![Logic::X; self.n_ff],
            lanes: self
                .batches
                .iter()
                .map(|_| vec![Wide::broadcast(Logic::X); self.n_ff])
                .collect(),
            detected: vec![[0; LANE_WORDS]; self.batches.len()],
            n_detected: 0,
            total_lanes: self.total_lanes,
        }
    }

    #[inline]
    fn good_row(&self, t: usize) -> &[Logic] {
        &self.good_rows[t * self.n_nets..(t + 1) * self.n_nets]
    }

    #[inline]
    fn good_state_before(&self, t: usize) -> &[Logic] {
        &self.good_states[t * self.n_ff..(t + 1) * self.n_ff]
    }

    /// Applies original vector `t` to the prefix (the vector was kept).
    ///
    /// Batches whose lanes are all detected are skipped — their state can
    /// no longer influence any trial verdict.
    // NOTE: `advance` deliberately emits no counter. Speculative-wave
    // workers replay it to rebuild candidate prefixes, so any count here
    // would vary with the thread fan-out and break the determinism
    // guarantee of `Metric::VectorsSimulated`.
    pub fn advance(&self, prefix: &mut PrefixState, t: usize) {
        debug_assert!(t < self.len);
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.row.resize(self.n_nets, Logic::X);
            sc.next.resize(self.n_ff, Logic::X);
            sc.tmp.resize(self.topo.flat.n_temps, Logic::X);
            eval_row(
                &self.topo,
                self.seq.vector(t),
                &prefix.good,
                &mut sc.row,
                &mut sc.next,
                &mut sc.tmp,
            );
            with_kernel::<LANE_WORDS, _>(|ks| {
                for (b, rec) in self.batches.iter().enumerate() {
                    if prefix.detected[b] == rec.full_mask {
                        continue;
                    }
                    let mut stepper = BatchStepper::begin(
                        self.circuit,
                        &self.topo,
                        self.targets,
                        &rec.lanes,
                        ks,
                        &prefix.good,
                        |ff| prefix.lanes[b][ff],
                    );
                    let m = stepper.step(&sc.row, &sc.next);
                    stepper.write_final_states(&sc.next);
                    stepper.finish();
                    let fresh = mask::and_not(&m, &prefix.detected[b]);
                    mask::or_assign(&mut prefix.detected[b], &m);
                    prefix.n_detected += mask::count(&fresh);
                    prefix.lanes[b].copy_from_slice(&ks.final_states);
                }
            });
            prefix.good.copy_from_slice(&sc.next);
        });
    }

    /// Decides the omission of original vector `skip`: does applying the
    /// original vectors `skip+1..len` after `prefix` detect every target?
    ///
    /// Batches are checked from batch `first` on, wrapping around; the
    /// first batch that loses a target ends the trial. Returns `Ok(())`
    /// when every target stays detected and `Err(b)` naming the batch `b`
    /// that lost one. The order changes which failing batch is named and
    /// what the trial costs, never whether it fails.
    ///
    /// Exact — bit-identical to simulating the shortened sequence from
    /// scratch — but usually far cheaper thanks to the early-success and
    /// per-lane convergence exits described in the module docs.
    pub fn trial(&self, prefix: &PrefixState, skip: usize, first: usize) -> Result<(), usize> {
        debug_assert!(skip < self.len);
        self.obs.counter(Metric::TrialsAttempted, 1);
        if prefix.n_detected == self.total_lanes {
            return Ok(()); // the prefix alone already covers every target
        }
        let tail_start = skip + 1;
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            let (n_nets, n_ff) = (self.n_nets, self.n_ff);
            let tail = self.len - tail_start;
            if sc.rows.len() < tail * n_nets {
                sc.rows.resize(tail * n_nets, Logic::X);
            }
            if sc.states.len() < (tail + 1) * n_ff {
                sc.states.resize((tail + 1) * n_ff, Logic::X);
            }
            sc.tmp.resize(self.topo.flat.n_temps, Logic::X);

            // --- Fault-free tail, stopped as soon as it re-joins the
            // recorded trajectory: from `g_conv` on, rows and states come
            // from the recording.
            sc.states[..n_ff].copy_from_slice(&prefix.good);
            let mut g_conv = self.len;
            let mut fresh = 0usize;
            while tail_start + fresh < self.len {
                let u = tail_start + fresh;
                if sc.states[fresh * n_ff..(fresh + 1) * n_ff] == *self.good_state_before(u) {
                    g_conv = u;
                    break;
                }
                let (head, rest) = sc.states.split_at_mut((fresh + 1) * n_ff);
                eval_row(
                    &self.topo,
                    self.seq.vector(u),
                    &head[fresh * n_ff..],
                    &mut sc.rows[fresh * n_nets..(fresh + 1) * n_nets],
                    &mut rest[..n_ff],
                    &mut sc.tmp,
                );
                fresh += 1;
            }

            // --- Faulty batches, one at a time from `first`; the first
            // lost batch sinks the trial.
            with_kernel::<LANE_WORDS, _>(|ks| {
                let n = self.batches.len();
                for b in (first..first + n).map(|i| i % n) {
                    let rec = &self.batches[b];
                    // Lanes whose verdict is known: detected so far, or
                    // back on a recorded future that detects them.
                    let mut settled = prefix.detected[b];
                    if settled == rec.full_mask {
                        continue;
                    }
                    let mut stepper = BatchStepper::begin(
                        self.circuit,
                        &self.topo,
                        self.targets,
                        &rec.lanes,
                        ks,
                        &prefix.good,
                        |ff| prefix.lanes[b][ff],
                    );
                    let mut holds = false;
                    for u in tail_start..self.len {
                        let (row, next): (&[Logic], &[Logic]) = if u >= g_conv {
                            (self.good_row(u), self.good_state_before(u + 1))
                        } else {
                            let i = u - tail_start;
                            (
                                &sc.rows[i * n_nets..(i + 1) * n_nets],
                                &sc.states[(i + 1) * n_ff..(i + 2) * n_ff],
                            )
                        };
                        mask::or_assign(&mut settled, &stepper.step(row, next));
                        if settled == rec.full_mask {
                            holds = true; // the last open lane re-detected
                            self.obs.counter(Metric::TrialsEarlyExited, 1);
                            break;
                        }
                        let t1 = u + 1;
                        if t1 >= g_conv && t1 % self.stride == 0 {
                            // Open lanes back on the recorded trajectory
                            // have the recording's future.
                            let off = stepper.lanes_off(
                                &rec.snapshots[t1 / self.stride],
                                self.good_state_before(t1),
                            );
                            let open = mask::and_not(&rec.full_mask, &settled);
                            let back = mask::and_not(&open, &off);
                            let lost = mask::and_not(&back, &rec.future_conflicts[t1]);
                            if mask::any(&lost) {
                                self.obs.counter(Metric::CheckpointHits, 1);
                                break;
                            }
                            mask::or_assign(&mut settled, &back);
                            if settled == rec.full_mask {
                                holds = true;
                                self.obs.counter(Metric::CheckpointHits, 1);
                                break;
                            }
                        }
                    }
                    stepper.finish();
                    if !holds {
                        return Err(b);
                    }
                }
                Ok(())
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeqFaultSim;
    use limscan_netlist::benchmarks;
    use limscan_scan::ScanCircuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scan-inserted `name`, a random sequence of `len` vectors (with
    /// `padded`, also all-zero and repeated vectors) and, as targets, the
    /// faults that sequence detects.
    fn case(name: &str, len: usize, seed: u64, padded: bool) -> (Circuit, FaultList, TestSequence) {
        let circuit = ScanCircuit::insert(&benchmarks::load(name).expect("embedded benchmark"))
            .circuit()
            .clone();
        let width = circuit.inputs().len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = TestSequence::new(width);
        while seq.len() < len {
            match if padded { rng.gen_range(0..4u8) } else { 3 } {
                0 => seq.push(vec![Logic::Zero; width]),
                1 if !seq.is_empty() => seq.push(seq.vector(seq.len() - 1).to_vec()),
                _ => seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect()),
            }
        }
        let all = FaultList::collapsed(&circuit);
        let report = SeqFaultSim::run(&circuit, &all, &seq);
        let targets = FaultList::from_faults(report.detected().iter().map(|&id| all.fault(id)));
        (circuit, targets, seq)
    }

    /// Checks `trial(prefix, c, first)` for every candidate `c` and every
    /// `first` against a from-scratch run of the kept prefix plus the tail.
    /// With `greedy`, the prefix drops every candidate whose trial held, as
    /// an omission pass does; otherwise it keeps every vector. A failing
    /// trial must name the first batch, in order from `first`, that the
    /// from-scratch run shows losing a target. Returns how many candidates
    /// held and how many failed.
    fn check_every_trial(ck: &TrialCheckpoints<'_>, greedy: bool) -> (usize, usize) {
        let (circuit, targets, seq) = (ck.circuit, ck.targets, ck.seq);
        let ids: Vec<FaultId> = targets.ids().collect();
        let n = ck.batches.len();
        let (mut held, mut failed) = (0, 0);
        let mut keep = vec![true; ck.len()];
        let mut prefix = ck.initial_prefix();
        for c in 0..ck.len() {
            keep[c] = false;
            let report = SeqFaultSim::run(circuit, targets, &seq.select(&keep));
            let losing: Vec<bool> = ids
                .chunks(LANES)
                .map(|batch| batch.iter().any(|&id| !report.is_detected(id)))
                .collect();
            for first in 0..n {
                let expected = (first..first + n).map(|i| i % n).find(|&b| losing[b]);
                assert_eq!(
                    ck.trial(&prefix, c, first),
                    expected.map_or(Ok(()), Err),
                    "stride {}: candidate {c}, first batch {first}",
                    ck.stride
                );
            }
            let lost = losing.contains(&true);
            if lost {
                failed += 1;
            } else {
                held += 1;
            }
            keep[c] = lost || !greedy;
            if keep[c] {
                ck.advance(&mut prefix, c);
            }
        }
        (held, failed)
    }

    /// Over `2 * LANES` targets: every trial checks three batches, in
    /// every order.
    #[test]
    fn multi_batch_trials_equal_from_scratch_runs_at_stride_one() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let ck = TrialCheckpoints::record(&circuit, &targets, &seq);
        assert_eq!((ck.stride, ck.batches.len()), (1, 3));
        for greedy in [false, true] {
            let (held, failed) = check_every_trial(&ck, greedy);
            assert!(
                held > 0 && failed > 0,
                "greedy {greedy}: {held} held, {failed} failed"
            );
        }
    }

    /// Above stride 1, lanes can only settle at snapshot points.
    #[test]
    fn multi_batch_trials_equal_from_scratch_runs_above_stride_one() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let ck = TrialCheckpoints::record_with_budget(&circuit, &targets, &seq, 64 << 10);
        assert!(
            ck.stride > 1 && ck.stride < ck.len() / 4,
            "stride {}",
            ck.stride
        );
        assert_eq!(ck.batches.len(), 3);
        for greedy in [false, true] {
            let (held, failed) = check_every_trial(&ck, greedy);
            assert!(
                held > 0 && failed > 0,
                "greedy {greedy}: {held} held, {failed} failed"
            );
        }
    }

    /// Three flip-flops re-join the recording within a vector or two, so
    /// s27 exercises the convergence exit on almost every trial, before
    /// and after the fault-free state converges, at stride 1 and 7. The
    /// s386 sequence has a lane that is back on the fault-free machine at a
    /// flip-flop where the recorded lane is not.
    #[test]
    fn trials_equal_from_scratch_runs_where_lanes_converge_early() {
        let mut cases: Vec<_> = (0..4)
            .flat_map(|seed| [case("s27", 30, seed, false), case("s27", 30, seed, true)])
            .collect();
        cases.push(case("s386", 40, 6, false));
        for (circuit, targets, seq) in &cases {
            for budget in [SNAPSHOT_BUDGET, 1 << 10] {
                let ck = TrialCheckpoints::record_with_budget(circuit, targets, seq, budget);
                for greedy in [false, true] {
                    check_every_trial(&ck, greedy);
                }
            }
        }
    }
}
