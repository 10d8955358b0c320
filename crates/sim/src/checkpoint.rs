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
//! the batch that failed it, with a lane of it that is lost (a [`Loss`]);
//! the omission pass feeds that back as the next trials' first batch
//! (fail-first order), so a failing trial usually stops after one batch.
//!
//! **The fault probe.** Consecutive failing trials mostly lose the very
//! same fault, so the loss is also a hint: before any batch runs, a trial
//! whose hinted fault is in batch `first` steps that fault alone, as one
//! (fault-free, faulty) pair on the compiled frame, through its tail. The
//! probe decides only two ways. The trial fails at batch `first` when the
//! pair is back on the recording at an aligned time unit — the fault-free
//! state equals the recorded one and the faulty state equals the lane's
//! snapshot — and the recorded future misses the fault; that is the
//! per-lane convergence exit for this one lane, and it emits the
//! `checkpoint_hits` count the batch would have. It also fails when the
//! tail ends with the fault undetected, with no count (the batch could
//! have met another lost lane at a snapshot first, so `checkpoint_hits`
//! can read lower than without the probe). Whenever the pair detects the
//! fault, or meets a recorded future that does, the batches decide the
//! trial as before. The probe runs only for a fault of batch `first`: a
//! failing trial names the first failing batch counted from `first`, so a
//! loss anywhere else would still leave the batches before it to check.
//!
//! Trials start from the kept prefix ([`PrefixState`]). Keeping a vector
//! ([`TrialCheckpoints::advance`]) costs one fault-free step, which is
//! logged; a batch folds the logged vectors into its per-lane states when
//! a trial first reaches it, in the stepper the trial then continues with,
//! so the batches fail-first trials do not reach cost nothing until one
//! does. [`TrialCheckpoints::catch_up`] folds the log into every open
//! batch at once. The log keeps only what the batch furthest behind still
//! needs: at most one fault-free row and state per kept vector, no more
//! than the recorded trace. The prefix also carries the hinted fault's
//! faulty state: [`TrialCheckpoints::follow`] reads it from the lane words
//! of its batch, caught up first, when the hint changes; every kept vector
//! steps it as a pair; and it is dropped once the prefix detects the
//! fault. Each thread keeps its own pair evaluator, over the recording's
//! topology, in thread-local scratch, so the trial path takes no lock.
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
use std::sync::{Arc, Weak};

use limscan_fault::{Fault, FaultId, FaultList};
use limscan_netlist::Circuit;
use limscan_obs::{Metric, ObsHandle};

use crate::engine::{with_kernel, BatchStepper, KernelScratch, Topology};
use crate::frame::Frame;
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

/// Per-thread scratch for the fault-free tail of a
/// [`TrialCheckpoints::trial`]; grows to the largest trial seen and is then
/// allocation-free.
#[derive(Default)]
struct TrialScratch {
    /// Fresh fault-free net values for the pre-convergence part of a trial
    /// tail (`fresh × n_nets`).
    rows: Vec<Logic>,
    /// Fresh fault-free states for the same window (`(fresh + 1) × n_ff`).
    states: Vec<Logic>,
    /// Intra-gate temp slots for the scalar flat evaluation.
    tmp: Vec<Logic>,
    /// The hinted fault's pair evaluator, rebuilt when a recording of
    /// another circuit uses this thread.
    pair: Option<PairProbe>,
}

impl TrialScratch {
    /// This thread's pair evaluator for `topo`, compiled from `circuit`.
    fn pair(&mut self, circuit: &Circuit, topo: &Arc<Topology>) -> &mut PairProbe {
        let fits = self
            .pair
            .as_ref()
            .is_some_and(|p| Weak::as_ptr(&p.topo) == Arc::as_ptr(topo));
        if !fits {
            self.pair = None;
        }
        self.pair.get_or_insert_with(|| PairProbe {
            topo: Arc::downgrade(topo),
            frame: Frame::new(circuit, topo),
            good: Vec::new(),
            bad: Vec::new(),
        })
    }
}

/// One fault stepped alone: a (fault-free, faulty) state pair on the
/// compiled frame, lane 0 fault-free and lane 1 faulty.
struct PairProbe {
    /// The topology `frame` was sized for. Held weakly: the allocation
    /// outlives the recording, so no other topology can take its address
    /// while this evaluator is kept.
    topo: Weak<Topology>,
    frame: Frame,
    good: Vec<Logic>,
    bad: Vec<Logic>,
}

impl PairProbe {
    /// Injects `fault` into lane 1 and loads the pair's states.
    fn start(
        &mut self,
        circuit: &Circuit,
        topo: &Topology,
        fault: Fault,
        good: &[Logic],
        bad: &[Logic],
    ) {
        self.frame.inject(circuit, topo, Some(fault), 0b10);
        self.good.clear();
        self.good.extend_from_slice(good);
        self.bad.clear();
        self.bad.extend_from_slice(bad);
    }

    /// Applies `vector` to the pair; returns whether it detects the fault.
    fn step(&mut self, topo: &Topology, vector: &[Logic]) -> bool {
        self.frame
            .step_pair(topo, vector, &mut self.good, &mut self.bad)
    }
}

/// Whether `state` equals lane `lane` of the sparse snapshot `snap`
/// (sorted by flip-flop index; a flip-flop without an entry holds the
/// fault-free value in `good`).
fn lane_matches(snap: &[(u32, Wide)], good: &[Logic], lane: usize, state: &[Logic]) -> bool {
    let mut entries = snap.iter().peekable();
    state.iter().zip(good).enumerate().all(|(ff, (&s, &g))| {
        let recorded = match entries.next_if(|e| e.0 as usize == ff) {
            Some(&(_, w)) => w.lane(lane),
            None => g,
        };
        s == recorded
    })
}

/// A target a failing trial lost: lane `lane` of batch `batch`.
///
/// [`TrialCheckpoints::trial`] reports one with every failure, and takes
/// the last one back as a hint: the omission pass hands the loss of its
/// last committed failing trial to the next trials, which step that fault
/// alone before any batch (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Loss {
    /// The batch that failed the trial.
    pub batch: usize,
    /// A lane of that batch the trial lost.
    pub lane: usize,
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

/// The hinted fault of a [`PrefixState`], followed through its kept
/// vectors.
#[derive(Clone)]
struct Hinted {
    loss: Loss,
    /// The fault's machine state after the kept prefix; `None` once the
    /// prefix detects the fault.
    state: Option<Vec<Logic>>,
}

/// One target batch's share of a [`PrefixState`].
#[derive(Clone)]
struct BatchPrefix {
    /// Absolute per-lane state word of every flip-flop after the first
    /// `pos` kept vectors. Stale once every lane is detected (the batch is
    /// then skipped for good).
    lanes: Vec<Wide>,
    /// Lanes the first `pos` kept vectors detect.
    detected: LaneMask,
    /// Kept vectors folded into `lanes` and `detected`.
    pos: usize,
}

/// The machine state of an omission pass's kept prefix.
///
/// [`TrialCheckpoints::advance`] only logs each kept vector's fault-free
/// row and next state; a target batch folds the logged vectors into its
/// per-lane flip-flop states and detection mask when a trial first
/// reaches it ([`TrialCheckpoints::trial`]) or when
/// [`TrialCheckpoints::catch_up`] folds them into every batch. The log
/// keeps only what the batch furthest behind still needs. Cheap to clone
/// once caught up, which is what lets speculative trials fan out across
/// threads.
#[derive(Clone)]
pub struct PrefixState {
    /// Number of kept vectors.
    len: usize,
    /// Position of the first logged kept vector.
    base: usize,
    /// Fault-free net values of kept vectors `base..len`, `n_nets` each.
    rows: Vec<Logic>,
    /// Fault-free states before kept vectors `base..=len`, `n_ff` each; the
    /// last one is the prefix's current fault-free state.
    states: Vec<Logic>,
    batches: Vec<BatchPrefix>,
    /// The fault the trials' hint names, stepped by every kept vector.
    hinted: Option<Hinted>,
    /// Lanes detected by the batches' folded prefixes.
    n_detected: usize,
    total_lanes: usize,
}

impl PrefixState {
    /// Whether the prefix alone is known to detect every target. Exact
    /// once every batch has caught up ([`TrialCheckpoints::catch_up`]);
    /// before that it can say `false` for a prefix that does.
    pub fn all_detected(&self) -> bool {
        self.n_detected == self.total_lanes
    }
}

/// One recorded omission pass: checkpoints every trial can restart from.
///
/// Recorded once per pass by [`record`](Self::record); [`advance`] logs
/// kept vectors into a [`PrefixState`] and [`trial`] decides a candidate
/// omission with early exits. See the module docs for the design.
///
/// [`advance`]: Self::advance
/// [`trial`]: Self::trial
pub struct TrialCheckpoints<'a> {
    circuit: &'a Circuit,
    targets: &'a FaultList,
    seq: &'a TestSequence,
    topo: Arc<Topology>,
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
    /// Observability handle; no-op unless recorded through
    /// [`record_observed`](Self::record_observed). Trials emit through it
    /// from worker threads, so sinks must tolerate concurrency (they are
    /// required to be `Sync`).
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
        let topo = Arc::new(Topology::build(circuit));
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
        with_kernel(|ks| {
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
                drop(stepper);
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
            len: 0,
            base: 0,
            rows: Vec::new(),
            states: vec![Logic::X; self.n_ff],
            batches: self
                .batches
                .iter()
                .map(|_| BatchPrefix {
                    lanes: vec![Wide::broadcast(Logic::X); self.n_ff],
                    detected: [0; LANE_WORDS],
                    pos: 0,
                })
                .collect(),
            hinted: None,
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

    /// The logged fault-free net values of kept vector `k` of `prefix`.
    #[inline]
    fn log_row<'p>(&self, prefix: &'p PrefixState, k: usize) -> &'p [Logic] {
        let i = k - prefix.base;
        &prefix.rows[i * self.n_nets..(i + 1) * self.n_nets]
    }

    /// The logged fault-free state before kept vector `k` of `prefix`;
    /// `k == prefix.len` gives the prefix's current state.
    #[inline]
    fn log_state<'p>(&self, prefix: &'p PrefixState, k: usize) -> &'p [Logic] {
        let i = k - prefix.base;
        &prefix.states[i * self.n_ff..(i + 1) * self.n_ff]
    }

    /// Whether batch `b` of `prefix` still has undetected lanes.
    #[inline]
    fn is_open(&self, prefix: &PrefixState, b: usize) -> bool {
        prefix.batches[b].detected != self.batches[b].full_mask
    }

    /// Applies original vector `t` to the prefix (the vector was kept):
    /// one fault-free step, logged for the batches to fold in later, and
    /// one pair step of the hinted fault, which drops it once detected.
    /// The log first drops the entries every open batch has already
    /// folded.
    // NOTE: neither `advance` nor the catch-up emits a counter.
    // Speculative-wave workers replay both to rebuild candidate prefixes,
    // so any count here would vary with the thread fan-out and break the
    // determinism guarantee of `Metric::VectorsSimulated`.
    pub fn advance(&self, prefix: &mut PrefixState, t: usize) {
        debug_assert!(t < self.len);
        self.trim(prefix);
        let (n_nets, n_ff) = (self.n_nets, self.n_ff);
        let row_at = prefix.rows.len();
        prefix.rows.resize(row_at + n_nets, Logic::X);
        let state_at = prefix.states.len();
        prefix.states.resize(state_at + n_ff, Logic::X);
        let (head, next) = prefix.states.split_at_mut(state_at);
        let good = &head[state_at - n_ff..];
        SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            sc.tmp.resize(self.topo.flat.n_temps, Logic::X);
            eval_row(
                &self.topo,
                self.seq.vector(t),
                good,
                &mut prefix.rows[row_at..],
                next,
                &mut sc.tmp,
            );
            if let Some(h) = &mut prefix.hinted {
                if let Some(bad) = &mut h.state {
                    let pair = sc.pair(self.circuit, &self.topo);
                    pair.start(self.circuit, &self.topo, self.fault_of(h.loss), good, bad);
                    if pair.step(&self.topo, self.seq.vector(t)) {
                        h.state = None; // the prefix detects the hinted fault
                    } else {
                        bad.copy_from_slice(&pair.bad);
                    }
                }
            }
        });
        prefix.len += 1;
    }

    /// The target fault on lane `loss.lane` of batch `loss.batch`.
    fn fault_of(&self, loss: Loss) -> Fault {
        self.targets
            .fault(self.batches[loss.batch].lanes[loss.lane])
    }

    /// Points the prefix's hinted fault at `loss`, unless it already
    /// follows it: the fault's state after the kept prefix is read from the
    /// lane words of its batch, caught up first, or is `None` when the
    /// prefix detects it.
    pub fn follow(&self, prefix: &mut PrefixState, loss: Loss) {
        if prefix.hinted.as_ref().is_some_and(|h| h.loss == loss) {
            return;
        }
        with_kernel(|ks| drop(self.resume(prefix, loss.batch, ks)));
        let bp = &prefix.batches[loss.batch];
        let state = (!mask::test(&bp.detected, loss.lane))
            .then(|| bp.lanes.iter().map(|w| w.lane(loss.lane)).collect());
        prefix.hinted = Some(Hinted { loss, state });
    }

    /// Steps the hinted fault alone from the kept prefix, whose faulty
    /// state is `bad`, through the tail after `skip`. Returns `true` when
    /// that proves the fault lost: the pair is back on the recording at
    /// an aligned time unit whose recorded future misses the fault, or
    /// the tail ends with the fault undetected. Returns `false` when the
    /// pair detects the fault or meets a recorded future that does; the
    /// batch path then decides the trial.
    fn probe(
        &self,
        prefix: &PrefixState,
        skip: usize,
        loss: Loss,
        bad: &[Logic],
        pair: &mut PairProbe,
    ) -> bool {
        let rec = &self.batches[loss.batch];
        let good = self.log_state(prefix, prefix.len);
        pair.start(self.circuit, &self.topo, self.fault_of(loss), good, bad);
        for u in skip + 1..self.len {
            if pair.step(&self.topo, self.seq.vector(u)) {
                return false;
            }
            let t1 = u + 1;
            if t1 % self.stride == 0
                && pair.good == self.good_state_before(t1)
                && lane_matches(
                    &rec.snapshots[t1 / self.stride],
                    &pair.good,
                    loss.lane,
                    &pair.bad,
                )
            {
                if mask::test(&rec.future_conflicts[t1], loss.lane) {
                    return false;
                }
                // The batch path stops its failing batch with this count.
                self.obs.counter(Metric::CheckpointHits, 1);
                return true;
            }
        }
        true
    }

    /// Folds every logged vector into every batch that still has
    /// undetected lanes, then empties the log. Afterwards
    /// [`PrefixState::all_detected`] is exact and the prefix is cheap to
    /// clone.
    pub fn catch_up(&self, prefix: &mut PrefixState) {
        with_kernel(|ks| {
            for b in 0..self.batches.len() {
                if prefix.batches[b].pos < prefix.len {
                    drop(self.resume(prefix, b, ks));
                }
            }
        });
        self.trim(prefix);
    }

    /// Drops the log entries that every open batch has folded in.
    fn trim(&self, prefix: &mut PrefixState) {
        let oldest = (0..self.batches.len())
            .filter(|&b| self.is_open(prefix, b))
            .map(|b| prefix.batches[b].pos)
            .min()
            .unwrap_or(prefix.len);
        let drop_n = oldest - prefix.base;
        if drop_n > 0 {
            prefix.rows.drain(..drop_n * self.n_nets);
            prefix.states.drain(..drop_n * self.n_ff);
            prefix.base = oldest;
        }
    }

    /// Begins batch `b` at its folded position and steps it through the
    /// kept vectors logged since, stopping early once every lane is
    /// detected. The batch's lanes, detection mask and position are
    /// committed together after the loop, so a panic mid-way leaves the
    /// batch as it was. Returns the stepper at the end of the prefix for a
    /// trial to continue with, or `None` when the prefix detects every lane
    /// of the batch.
    fn resume<'k>(
        &'k self,
        prefix: &mut PrefixState,
        b: usize,
        ks: &'k mut KernelScratch<LANE_WORDS>,
    ) -> Option<BatchStepper<'k, 'k, LANE_WORDS>> {
        if !self.is_open(prefix, b) {
            return None;
        }
        let rec = &self.batches[b];
        let from = prefix.batches[b].pos;
        let lanes = &prefix.batches[b].lanes;
        let mut stepper = BatchStepper::begin(
            self.circuit,
            &self.topo,
            self.targets,
            &rec.lanes,
            ks,
            self.log_state(prefix, from),
            |ff| lanes[ff],
        );
        if from == prefix.len {
            return Some(stepper);
        }
        let mut detected = prefix.batches[b].detected;
        for k in from..prefix.len {
            let m = stepper.step(self.log_row(prefix, k), self.log_state(prefix, k + 1));
            mask::or_assign(&mut detected, &m);
            if detected == rec.full_mask {
                break;
            }
        }
        let open = detected != rec.full_mask;
        let bp = &mut prefix.batches[b];
        if open {
            // The prefix's current fault-free state, the last one logged.
            let good = &prefix.states[prefix.states.len() - self.n_ff..];
            stepper.copy_states(good, &mut bp.lanes);
        }
        prefix.n_detected += mask::count(&mask::and_not(&detected, &bp.detected));
        bp.detected = detected;
        bp.pos = prefix.len;
        open.then_some(stepper)
    }

    /// Decides the omission of original vector `skip`: does applying the
    /// original vectors `skip+1..len` after `prefix` detect every target?
    ///
    /// When `hint` names a fault of batch `first`, the trial first steps
    /// that fault alone through the tail (the fault probe, see the module
    /// docs), which may prove it lost before any batch runs; `prefix`
    /// then follows the hinted fault through its kept vectors. Otherwise,
    /// and when the probe cannot decide, batches are checked from batch
    /// `first` on, wrapping around; the first batch that loses a target
    /// ends the trial. Each batch the trial reaches first folds the
    /// prefix's logged vectors in, in the stepper the trial then continues
    /// with, and keeps them in `prefix`. Returns `Ok(())` when every target
    /// stays detected and `Err` naming the batch that lost one and a lane
    /// of it that is lost. The order and the hint change which loss is
    /// named and what the trial costs, never whether it fails.
    ///
    /// Exact — bit-identical to simulating the shortened sequence from
    /// scratch — but usually far cheaper thanks to the early-success and
    /// per-lane convergence exits described in the module docs.
    pub fn trial(
        &self,
        prefix: &mut PrefixState,
        skip: usize,
        first: usize,
        hint: Option<Loss>,
    ) -> Result<(), Loss> {
        debug_assert!(skip < self.len);
        self.obs.counter(Metric::TrialsAttempted, 1);
        if prefix.all_detected() {
            return Ok(()); // the prefix alone already covers every target
        }
        // Only a fault of batch `first` may decide the trial alone: a loss
        // elsewhere would still leave the batches before it to check.
        if let Some(loss) = hint.filter(|h| h.batch == first) {
            self.follow(prefix, loss);
            if let Some(bad) = prefix.hinted.as_ref().and_then(|h| h.state.as_deref()) {
                let lost = SCRATCH.with(|cell| {
                    let sc = &mut *cell.borrow_mut();
                    self.probe(prefix, skip, loss, bad, sc.pair(self.circuit, &self.topo))
                });
                if lost {
                    return Err(loss);
                }
            }
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
            sc.states[..n_ff].copy_from_slice(self.log_state(prefix, prefix.len));
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
            with_kernel(|ks| {
                let n = self.batches.len();
                for b in (first..first + n).map(|i| i % n) {
                    let Some(mut stepper) = self.resume(prefix, b, ks) else {
                        continue; // the prefix detects every lane
                    };
                    let rec = &self.batches[b];
                    // Lanes whose verdict is known: detected so far, or
                    // back on a recorded future that detects them.
                    let mut settled = prefix.batches[b].detected;
                    let mut holds = false;
                    let mut lost_at_snapshot = None;
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
                                lost_at_snapshot = mask::first(&lost);
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
                    if !holds {
                        // Without a loss at a snapshot, the tail ended: the
                        // lanes still unsettled are the lost ones.
                        let lane = lost_at_snapshot
                            .or_else(|| mask::first(&mask::and_not(&rec.full_mask, &settled)))
                            .expect("a failing batch has a lost lane");
                        return Err(Loss { batch: b, lane });
                    }
                }
                Ok(())
            })
        })
    }
}

impl Drop for TrialCheckpoints<'_> {
    /// Frees the dropping thread's pair evaluator with the recording it was
    /// built for, so it does not outlive the pass; worker threads free
    /// theirs when they exit.
    fn drop(&mut self) {
        let _ = SCRATCH.try_with(|cell| {
            if let Ok(mut sc) = cell.try_borrow_mut() {
                let mine = sc
                    .pair
                    .as_ref()
                    .is_some_and(|p| Weak::as_ptr(&p.topo) == Arc::as_ptr(&self.topo));
                if mine {
                    sc.pair = None;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SeqFaultSim, SingleFaultSim};
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

    /// Which first batches [`check_every_trial`] tries for each candidate.
    #[derive(Clone, Copy)]
    enum Firsts {
        /// Every batch, so every trial reaches every batch.
        All,
        /// Only batch `(c / stretch) % n` for candidate `c`: one batch
        /// stays hot for `stretch` candidates, and trials that fail before
        /// reaching the others leave those cold while kept vectors pile
        /// up in the log.
        Hot { stretch: usize },
    }

    /// What a [`check_every_trial`] run exercised.
    #[derive(Default)]
    struct Exercised {
        held: usize,
        failed: usize,
        /// The most logged vectors one batch folded in at once.
        max_catch_up: usize,
        /// Batches whose last open lane was detected while catching up.
        detected_in_catch_up: usize,
        /// Whether the log ever dropped entries.
        trimmed: bool,
        /// Trials whose fault probe proved the hinted fault lost.
        probe_lost: usize,
        /// Trials whose fault probe left the verdict to the batches.
        probe_undecided: usize,
        /// Candidates after which the prefix had detected the hinted fault.
        hint_detected: usize,
    }

    /// Runs the fault probe `trial(prefix, skip, loss.batch, Some(loss))`
    /// starts with, on its own: whether it proves the fault lost, or
    /// `None` when the prefix detects the fault and nothing is probed.
    fn probe_alone(
        ck: &TrialCheckpoints<'_>,
        prefix: &mut PrefixState,
        skip: usize,
        loss: Loss,
    ) -> Option<bool> {
        ck.follow(prefix, loss);
        let bad = prefix.hinted.as_ref()?.state.clone()?;
        Some(SCRATCH.with(|cell| {
            let sc = &mut *cell.borrow_mut();
            ck.probe(prefix, skip, loss, &bad, sc.pair(ck.circuit, &ck.topo))
        }))
    }

    /// `loss`'s fault simulated alone over `seq`: its detection time, and
    /// its faulty state at the end when undetected.
    fn single(
        ck: &TrialCheckpoints<'_>,
        loss: Loss,
        seq: &TestSequence,
    ) -> Result<usize, Vec<Logic>> {
        let mut sim = SingleFaultSim::new(ck.circuit, ck.fault_of(loss));
        match seq.iter().position(|v| sim.step(v)) {
            Some(t) => Ok(t),
            None => Err(sim.bad_state().to_vec()),
        }
    }

    /// Checks `trial(prefix, c, first, hint)` for every candidate `c`,
    /// from the first batches `firsts` picks, against a from-scratch run of
    /// the kept prefix plus the tail. With `greedy`, the prefix drops every
    /// candidate whose trial held, as an omission pass does; otherwise it
    /// keeps every vector. The hint is set as an omission pass sets it: the
    /// loss of the candidate's last failing trial. A failing trial must
    /// name the first batch, in order from `first`, that the from-scratch
    /// run shows losing a target, and a lane of it that run loses. Where
    /// the hint names a fault of batch `first`, the fault probe alone must
    /// prove it lost only if the from-scratch run loses it. After every
    /// candidate the hinted fault's state must equal its simulation over
    /// the kept prefix, or be dropped exactly when that detects it. Every
    /// step also checks the log against the batches: it reaches back to the
    /// batch furthest behind, and no further once a kept vector is logged.
    fn check_every_trial(ck: &TrialCheckpoints<'_>, greedy: bool, firsts: Firsts) -> Exercised {
        let (circuit, targets, seq) = (ck.circuit, ck.targets, ck.seq);
        let ids: Vec<FaultId> = targets.ids().collect();
        let n = ck.batches.len();
        let mut seen = Exercised::default();
        let mut keep = vec![true; ck.len()];
        let mut prefix = ck.initial_prefix();
        let mut hint: Option<Loss> = None;
        let oldest_open = |p: &PrefixState| {
            (0..n)
                .filter(|&b| ck.is_open(p, b))
                .map(|b| p.batches[b].pos)
                .min()
        };
        for c in 0..ck.len() {
            keep[c] = false;
            let report = SeqFaultSim::run(circuit, targets, &seq.select(&keep));
            let losing: Vec<bool> = ids
                .chunks(LANES)
                .map(|batch| batch.iter().any(|&id| !report.is_detected(id)))
                .collect();
            let tried = match firsts {
                Firsts::All => 0..n,
                Firsts::Hot { stretch } => {
                    let hot = (c / stretch) % n;
                    hot..hot + 1
                }
            };
            let mut last_loss = None;
            for first in tried {
                let what = format!("stride {}: candidate {c}, first batch {first}", ck.stride);
                if let Some(h) = hint.filter(|h| h.batch == first) {
                    match probe_alone(ck, &mut prefix.clone(), c, h) {
                        Some(true) => {
                            seen.probe_lost += 1;
                            let id = ids[h.batch * LANES + h.lane];
                            assert!(
                                !report.is_detected(id),
                                "{what}: the probe lost a detected fault"
                            );
                        }
                        Some(false) => seen.probe_undecided += 1,
                        None => {}
                    }
                }
                let before: Vec<(usize, bool)> = (0..n)
                    .map(|b| (prefix.batches[b].pos, ck.is_open(&prefix, b)))
                    .collect();
                let expected = (first..first + n).map(|i| i % n).find(|&b| losing[b]);
                match ck.trial(&mut prefix, c, first, hint) {
                    Ok(()) => assert_eq!(expected, None, "{what}"),
                    Err(loss) => {
                        assert_eq!(Some(loss.batch), expected, "{what}");
                        let id = ids[loss.batch * LANES + loss.lane];
                        assert!(
                            !report.is_detected(id),
                            "{what}: lane {} is detected",
                            loss.lane
                        );
                        last_loss = Some(loss);
                    }
                }
                for (b, &(pos, open)) in before.iter().enumerate() {
                    if open && prefix.batches[b].pos > pos {
                        seen.max_catch_up = seen.max_catch_up.max(prefix.batches[b].pos - pos);
                        if !ck.is_open(&prefix, b) {
                            seen.detected_in_catch_up += 1;
                        }
                    }
                }
            }
            let lost = losing.contains(&true);
            if lost {
                seen.failed += 1;
            } else {
                seen.held += 1;
            }
            keep[c] = lost || !greedy;
            hint = last_loss.or(hint);
            if keep[c] {
                let oldest = oldest_open(&prefix).unwrap_or(prefix.len);
                ck.advance(&mut prefix, c);
                assert_eq!(prefix.base, oldest, "candidate {c}: log start");
                seen.trimmed |= prefix.base > 0;
            }
            if let Some(h) = &prefix.hinted {
                let mut kept = keep.clone();
                kept[c + 1..].fill(false);
                let oracle = single(ck, h.loss, &seq.select(&kept));
                assert_eq!(
                    h.state.as_ref(),
                    oracle.as_ref().err(),
                    "candidate {c}: hinted state"
                );
                seen.hint_detected += usize::from(oracle.is_ok());
            }
            assert!(oldest_open(&prefix).is_none_or(|pos| pos >= prefix.base));
            assert_eq!(prefix.rows.len(), (prefix.len - prefix.base) * ck.n_nets);
            assert_eq!(
                prefix.states.len(),
                (prefix.len - prefix.base + 1) * ck.n_ff
            );
        }
        // Caught up, the prefix's detections are exact: the kept vectors
        // run from scratch detect the same targets.
        ck.catch_up(&mut prefix);
        let kept = SeqFaultSim::run(circuit, targets, &seq.select(&keep));
        assert_eq!(prefix.n_detected, kept.detected_count());
        assert_eq!(prefix.all_detected(), kept.detected_count() == ids.len());
        seen
    }

    /// Over `2 * LANES` targets: every trial checks three batches, in
    /// every order, and the fault probe both decides trials and leaves
    /// them to the batches.
    #[test]
    fn multi_batch_trials_equal_from_scratch_runs_at_stride_one() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let ck = TrialCheckpoints::record(&circuit, &targets, &seq);
        assert_eq!((ck.stride, ck.batches.len()), (1, 3));
        for greedy in [false, true] {
            let seen = check_every_trial(&ck, greedy, Firsts::All);
            assert_probed(&seen, &format!("greedy {greedy}"));
        }
    }

    /// Asserts that a [`check_every_trial`] run saw trials hold and fail,
    /// probes decide and leave trials, and the prefix detect a hinted
    /// fault.
    fn assert_probed(seen: &Exercised, what: &str) {
        assert!(
            seen.held > 0 && seen.failed > 0,
            "{what}: {} held, {} failed",
            seen.held,
            seen.failed
        );
        assert!(
            seen.probe_lost > 0 && seen.probe_undecided > 0 && seen.hint_detected > 0,
            "{what}: probes {} lost, {} undecided; {} hinted faults detected",
            seen.probe_lost,
            seen.probe_undecided,
            seen.hint_detected
        );
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
            let seen = check_every_trial(&ck, greedy, Firsts::All);
            assert_probed(&seen, &format!("greedy {greedy}"));
        }
    }

    /// Trials that start at one hot batch for long stretches leave the
    /// other batches cold, so a batch a trial reaches late folds many
    /// logged vectors in at once, sometimes detects its last open lane
    /// while doing so, and the log trims behind the batch furthest behind.
    /// At stride 1 and above.
    #[test]
    fn cold_batches_catch_up_over_long_logs() {
        let (circuit, targets, seq) = case("s382", 60, 0, false);
        for budget in [SNAPSHOT_BUDGET, 64 << 10] {
            let ck = TrialCheckpoints::record_with_budget(&circuit, &targets, &seq, budget);
            assert_eq!(ck.batches.len(), 3);
            for greedy in [false, true] {
                let seen = check_every_trial(&ck, greedy, Firsts::Hot { stretch: 15 });
                let what = format!("stride {}, greedy {greedy}", ck.stride);
                assert_probed(&seen, &what);
                assert!(seen.max_catch_up >= 8, "{what}: {}", seen.max_catch_up);
                assert!(seen.detected_in_catch_up > 0, "{what}");
                assert!(seen.trimmed, "{what}");
            }
        }
    }

    /// A batch abandoned after one step, as a trial that stops early or
    /// unwinds leaves it, does not leak its divergences into the next user
    /// of the thread's kernel scratch: a fault simulation on this thread
    /// afterwards equals one on a fresh thread. Checked for a stepper
    /// dropped normally and for one a panic unwinds through.
    #[test]
    fn an_abandoned_batch_leaves_the_kernel_scratch_clean() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let all = FaultList::collapsed(&circuit);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| SeqFaultSim::run(&circuit, &all, &seq))
                .join()
                .expect("fresh thread")
        });
        let ck = TrialCheckpoints::record(&circuit, &targets, &seq);
        let mut prefix = ck.initial_prefix();
        for t in 0..20 {
            ck.advance(&mut prefix, t);
        }
        ck.catch_up(&mut prefix);
        let b = (0..ck.batches.len())
            .find(|&b| ck.is_open(&prefix, b))
            .expect("an open batch");
        for unwind in [false, true] {
            let abandon = || {
                with_kernel(|ks| {
                    let lanes = &prefix.batches[b].lanes;
                    let mut stepper = BatchStepper::begin(
                        &circuit,
                        &ck.topo,
                        &targets,
                        &ck.batches[b].lanes,
                        ks,
                        ck.log_state(&prefix, prefix.len),
                        |ff| lanes[ff],
                    );
                    assert!(!stepper.ff_diff().is_empty(), "the prefix diverges");
                    // Every vector so far was kept, so the prefix is on the
                    // recorded fault-free trajectory.
                    stepper.step(ck.good_row(20), ck.good_state_before(21));
                    assert!(!unwind, "abandoned mid-batch");
                });
            };
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(abandon)).is_err();
            assert_eq!(unwound, unwind);
            let here = SeqFaultSim::run(&circuit, &all, &seq);
            let differ = all
                .ids()
                .filter(|&id| here.detected_at(id) != fresh.detected_at(id))
                .count();
            assert_eq!(differ, 0, "unwind {unwind}: detection times differ");
        }
    }

    /// What `trial(prefix, skip, first, ..)` must return for a prefix
    /// that keeps the first `prefix_len` vectors, from scratch: per target,
    /// whether the trial sequence loses it, and the first batch from
    /// `first` on that holds a lost target.
    fn from_scratch(
        ck: &TrialCheckpoints<'_>,
        prefix_len: usize,
        skip: usize,
        first: usize,
    ) -> (Vec<bool>, Option<usize>) {
        let keep: Vec<bool> = (0..ck.len()).map(|t| t < prefix_len || t > skip).collect();
        let report = SeqFaultSim::run(ck.circuit, ck.targets, &ck.seq.select(&keep));
        let lost: Vec<bool> = ck.targets.ids().map(|id| !report.is_detected(id)).collect();
        let n = ck.batches.len();
        let failing = (first..first + n)
            .map(|i| i % n)
            .find(|&b| ck.batches[b].lanes.iter().any(|id| lost[id.index()]));
        (lost, failing)
    }

    /// With a snapshot stride beyond the sequence, no tail reaches an
    /// aligned time unit, so the fault probe decides only by the pair
    /// detecting the hinted fault in the tail (the batches then decide the
    /// trial) or by the tail ending without detecting it (the trial fails
    /// at the hinted batch, with no checkpoint hit). Checked for every
    /// target the kept prefix leaves undetected, at every trial point of a
    /// prefix that keeps every vector.
    #[test]
    fn probes_detected_in_the_tail_fall_through_and_losses_at_the_end_fail() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let mut ck = TrialCheckpoints::record_with_budget(&circuit, &targets, &seq, 1);
        assert!(ck.stride > ck.len(), "stride {}", ck.stride);
        let collector = limscan_obs::MetricsCollector::default();
        ck.obs = ObsHandle::from_sink(Arc::new(collector.clone()));
        let (mut fell_through, mut lost_at_end) = (0, 0);
        let mut prefix = ck.initial_prefix();
        for skip in (0..ck.len()).step_by(3) {
            for t in prefix.len..skip {
                ck.advance(&mut prefix, t);
            }
            let (lost, expected) = from_scratch(&ck, prefix.len, skip, 0);
            for (i, &id) in ck.batches[0].lanes.iter().enumerate().step_by(5) {
                let loss = Loss { batch: 0, lane: i };
                let mut p = prefix.clone();
                let hits = collector.counter(Metric::CheckpointHits);
                let Some(proved) = probe_alone(&ck, &mut p, skip, loss) else {
                    continue; // the prefix detects it
                };
                assert_eq!(proved, lost[id.index()], "skip {skip}, lane {i}");
                let got = ck.trial(&mut p, skip, 0, Some(loss));
                assert_eq!(
                    got.err().map(|l| l.batch),
                    expected,
                    "skip {skip}, lane {i}"
                );
                if proved {
                    lost_at_end += 1;
                    assert_eq!(got, Err(loss), "skip {skip}, lane {i}");
                    assert_eq!(collector.counter(Metric::CheckpointHits), hits);
                } else {
                    fell_through += 1;
                }
            }
        }
        assert!(
            fell_through > 0 && lost_at_end > 0,
            "{fell_through} fell through, {lost_at_end} lost"
        );
    }

    /// A hinted fault the kept prefix detects is dropped in the `advance`
    /// that detects it, and trials with that hint leave every verdict to
    /// the batches. Checked for the first few targets, each followed from
    /// the start of the sequence.
    #[test]
    fn a_hinted_fault_the_prefix_detects_is_dropped() {
        let (circuit, targets, seq) = case("s382", 40, 0, false);
        let ck = TrialCheckpoints::record(&circuit, &targets, &seq);
        for lane in 0..8 {
            let loss = Loss { batch: 1, lane };
            let at = single(&ck, loss, &seq).expect("every target is detected");
            let mut prefix = ck.initial_prefix();
            ck.follow(&mut prefix, loss);
            for t in 0..ck.len() - 1 {
                let live = prefix
                    .hinted
                    .as_ref()
                    .and_then(|h| h.state.as_ref())
                    .is_some();
                assert_eq!(live, t <= at, "lane {lane}, before vector {t}");
                let (_, expected) = from_scratch(&ck, t, t, loss.batch);
                let got = ck.trial(&mut prefix.clone(), t, loss.batch, Some(loss));
                assert_eq!(
                    got.err().map(|l| l.batch),
                    expected,
                    "lane {lane}, trial {t}"
                );
                ck.advance(&mut prefix, t);
            }
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
                    check_every_trial(&ck, greedy, Firsts::All);
                }
            }
        }
    }
}
