//! Flat-kernel batch engine and scratch arenas for [`SeqFaultSim`].
//!
//! The simulator's hot loop — [`SeqFaultSim::extend`] — is built from
//! these pieces:
//!
//! * [`Topology`]: per-circuit fanout indexes plus the compiled
//!   [`FlatNetlist`](crate::flat::FlatNetlist) — the levelized netlist
//!   lowered into one topologically-contiguous array of two-input ops
//!   (opcode + operand indexes in a single cache-friendly buffer).
//!   Computed once per simulator and shared by every extension via `Arc`.
//! * [`TraceBuf`] / [`KernelScratch`]: thread-local scratch arenas. The
//!   trace holds the fault-free value of every net at every time unit of
//!   the current extension; the kernel scratch holds the divergence state
//!   of the batch being simulated plus the wide injection masks. Both are
//!   reused across calls, so steady-state extension does not allocate.
//! * [`run_batch`]: the batch kernel, run at one word width,
//!   [`LANE_WORDS`] 64-bit planes (`64 * LANE_WORDS` fault lanes per
//!   batch); each thread keeps one [`KernelScratch`] of it. Faulty values are
//!   represented as *divergence from the fault-free trace*: a net without
//!   a set `diverged` flag carries `broadcast(good)` in all lanes and is
//!   never touched. Each time unit only evaluates gates reachable from
//!   injection sites, lane-divergent flip-flops, and gates that diverged
//!   in the previous time unit, in topological order through level-keyed
//!   buckets — falling back to a dense branchless sweep of the flat op
//!   stream for batches whose activity saturates the circuit. Dense
//!   sweeps are further restricted to the weakly-connected components
//!   containing the batch's injection sites (divergence provably cannot
//!   leave them), which keeps disjoint cones from paying for each other.
//!
//! Batches are independent, so [`SeqFaultSim::extend`] fans them out
//! across threads (`std::thread::scope`) when a slice holds enough work;
//! results are merged afterwards in batch order and are bit-identical to
//! sequential processing regardless of thread count, because every fault
//! belongs to exactly one batch.
//!
//! [`SeqFaultSim`]: crate::SeqFaultSim
//! [`SeqFaultSim::extend`]: crate::SeqFaultSim::extend

use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use limscan_fault::{FaultId, FaultList, FaultSite};
use limscan_netlist::{Circuit, Driver, NetId};

use crate::flat::{eval_op_w, FlatNetlist, FlatOp, WideInjection};
use crate::logic::Logic;
use crate::parallel::{mask, WideWord, LANE_WORDS};
use crate::sequence::TestSequence;

// ---------------------------------------------------------------------------
// Thread-count control
// ---------------------------------------------------------------------------

/// Programmatic override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment/hardware default, resolved once per process.
static THREAD_DEFAULT: OnceLock<usize> = OnceLock::new();

/// Overrides the number of worker threads the fault simulator may use.
///
/// `Some(n)` forces `n` threads (`n = 1` disables parallelism entirely),
/// `None` restores the default: a positive `LIMSCAN_THREADS`, else the
/// machine's available parallelism.
///
/// Results are bit-identical for every thread count; this knob only trades
/// latency against CPU usage.
pub fn set_sim_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |n| n.max(1)), Ordering::SeqCst);
}

/// The number of worker threads the fault simulator may use.
pub fn sim_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => *THREAD_DEFAULT.get_or_init(default_threads),
        n => n,
    }
}

fn default_threads() -> usize {
    std::env::var("LIMSCAN_THREADS")
        .ok()
        .and_then(|value| value.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Minimum estimated dense work (time units × gates × lane words) before an
/// extension fans batches out to threads. Below this, thread spawn and
/// result-merge overhead dominates; the threshold affects latency only,
/// never results.
pub(crate) const PARALLEL_THRESHOLD: usize = 250_000;

/// A batch switches from the sparse dirty-list sweep to dense full-word
/// evaluation when more than `1 / DENSE_FACTOR` of all gates diverged in one
/// time unit (dirty-list bookkeeping then costs more than it saves), and
/// stays dense for the rest of the batch. Results are identical either way.
const DENSE_FACTOR: usize = 3;

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

/// Per-circuit fanout indexes and the compiled flat netlist used by the
/// batch kernel.
///
/// Built once in [`SeqFaultSim::new`](crate::SeqFaultSim::new) and shared by
/// all clones of the simulator through an `Arc`.
#[derive(Debug)]
pub(crate) struct Topology {
    /// Net index → position in `comb_order`, `u32::MAX` for sources.
    pub(crate) pos_of: Vec<u32>,
    /// Comb position → logic level (a gate is one past its deepest fanin
    /// gate; gates fed only by sources are level 0). Within a level gates
    /// are independent, so the kernel's dirty lists are buckets keyed by
    /// level.
    pub(crate) level_of_pos: Vec<u32>,
    /// Number of distinct gate levels.
    pub(crate) n_levels: usize,
    /// Net index → flip-flop index, `u32::MAX` for non-FF nets.
    pub(crate) dff_pos_of: Vec<u32>,
    /// Per comb position: output net index (kept for dirty-list
    /// bookkeeping; evaluation goes through `flat`).
    gate_net: Vec<u32>,
    /// Per comb position: offset of the gate's first fanin pin (CSR
    /// offsets, aligned with `flat`'s pin-target CSR).
    pub(crate) fanin_off: Vec<u32>,
    /// CSR consumer indexes, per net: comb positions of consuming gates
    /// and indexes of consuming flip-flops.
    gc_off: Vec<u32>,
    gc: Vec<u32>,
    dc_off: Vec<u32>,
    dc: Vec<u32>,
    /// Per flip-flop: output (Q) net index and data (D) net index.
    dff_q: Vec<u32>,
    dff_d: Vec<u32>,
    /// Primary input and output net indexes, in declaration order.
    pi: Vec<u32>,
    po: Vec<u32>,
    /// The compiled flat gate array (binarized op stream, components).
    pub(crate) flat: FlatNetlist,
}

impl Topology {
    pub(crate) fn build(circuit: &Circuit) -> Self {
        let n = circuit.net_count();
        let n_comb = circuit.comb_order().len();
        let mut pos_of = vec![u32::MAX; n];
        for (pos, &id) in circuit.comb_order().iter().enumerate() {
            pos_of[id.index()] = pos as u32;
        }
        let mut dff_pos_of = vec![u32::MAX; n];
        for (i, &q) in circuit.dffs().iter().enumerate() {
            dff_pos_of[q.index()] = i as u32;
        }

        // Flat gate table and levels in one pass: comb_order is
        // topological, so every fanin's level is known when its consumer
        // is reached.
        let mut level_of_net = vec![0u32; n];
        let mut level_of_pos = vec![0u32; n_comb];
        let mut n_levels = 0usize;
        let mut gate_net = Vec::with_capacity(n_comb);
        let mut fanin_off = Vec::with_capacity(n_comb + 1);
        fanin_off.push(0);
        for (pos, &id) in circuit.comb_order().iter().enumerate() {
            let Driver::Gate { fanins, .. } = circuit.net(id).driver() else {
                unreachable!("comb_order contains only gates");
            };
            let lvl = fanins
                .iter()
                .map(|f| level_of_net[f.index()])
                .max()
                .unwrap_or(0);
            level_of_net[id.index()] = lvl + 1;
            level_of_pos[pos] = lvl;
            n_levels = n_levels.max(lvl as usize + 1);
            gate_net.push(id.index() as u32);
            fanin_off.push(fanin_off[pos] + fanins.len() as u32);
        }

        // CSR consumer lists (gates by comb position, FFs by index).
        let mut gate_consumers = vec![Vec::new(); n];
        let mut dff_consumers = vec![Vec::new(); n];
        for net in 0..n {
            let id = NetId::from_index(net);
            for pin in circuit.fanouts(id) {
                match circuit.net(pin.net).driver() {
                    Driver::Gate { .. } => gate_consumers[net].push(pos_of[pin.net.index()]),
                    Driver::Dff { .. } => dff_consumers[net].push(dff_pos_of[pin.net.index()]),
                    Driver::Input => unreachable!("primary inputs have no fanin pins"),
                }
            }
            gate_consumers[net].sort_unstable();
            gate_consumers[net].dedup();
            dff_consumers[net].sort_unstable();
            dff_consumers[net].dedup();
        }
        let (gc_off, gc) = to_csr(&gate_consumers);
        let (dc_off, dc) = to_csr(&dff_consumers);

        let dff_q: Vec<u32> = circuit.dffs().iter().map(|q| q.index() as u32).collect();
        let dff_d: Vec<u32> = circuit
            .dffs()
            .iter()
            .map(|&q| {
                let Driver::Dff { d } = circuit.net(q).driver() else {
                    unreachable!("dffs() contains only flip-flops");
                };
                d.index() as u32
            })
            .collect();
        let pi: Vec<u32> = circuit.inputs().iter().map(|i| i.index() as u32).collect();
        let po: Vec<u32> = circuit.outputs().iter().map(|o| o.index() as u32).collect();

        let flat = FlatNetlist::build(circuit, &pos_of, &fanin_off);

        Topology {
            pos_of,
            level_of_pos,
            n_levels,
            dff_pos_of,
            gate_net,
            fanin_off,
            gc_off,
            gc,
            dc_off,
            dc,
            dff_q,
            dff_d,
            pi,
            po,
            flat,
        }
    }

    /// Comb positions of the gates consuming net `net`.
    #[inline]
    fn gate_consumers(&self, net: usize) -> &[u32] {
        &self.gc[self.gc_off[net] as usize..self.gc_off[net + 1] as usize]
    }

    /// Indexes of the flip-flops whose D input is net `net`.
    #[inline]
    fn dff_consumers(&self, net: usize) -> &[u32] {
        &self.dc[self.dc_off[net] as usize..self.dc_off[net + 1] as usize]
    }

    /// Primary input net indexes, in declaration order.
    #[inline]
    pub(crate) fn pi(&self) -> &[u32] {
        &self.pi
    }

    /// Per flip-flop: output (Q) net index.
    #[inline]
    pub(crate) fn dff_q(&self) -> &[u32] {
        &self.dff_q
    }

    /// Per flip-flop: data (D) net index.
    #[inline]
    pub(crate) fn dff_d(&self) -> &[u32] {
        &self.dff_d
    }

    /// Primary output net indexes, in declaration order.
    pub(crate) fn po(&self) -> &[u32] {
        &self.po
    }
}

fn to_csr(lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>) {
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut flat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    off.push(0);
    for list in lists {
        flat.extend_from_slice(list);
        off.push(flat.len() as u32);
    }
    (off, flat)
}

// ---------------------------------------------------------------------------
// Fault-free trace
// ---------------------------------------------------------------------------

/// Fault-free net values and machine states for one extension, computed by
/// a single scalar pass over the flat op stream and then read (not written)
/// by every batch kernel.
#[derive(Default)]
pub(crate) struct TraceBuf {
    n_nets: usize,
    n_ff: usize,
    len: usize,
    /// `len × n_nets`: the value of every net at every time unit.
    vals: Vec<Logic>,
    /// `(len + 1) × n_ff`: the machine state *before* each time unit,
    /// with the post-extension state in the final row.
    states: Vec<Logic>,
    /// Shared intra-gate scratch slots for the flat scalar evaluation.
    tmp: Vec<Logic>,
}

impl TraceBuf {
    /// Simulates the fault-free circuit over `seq` starting from `init`.
    pub(crate) fn fill(
        &mut self,
        circuit: &Circuit,
        topo: &Topology,
        seq: &TestSequence,
        init: &[Logic],
    ) {
        self.n_nets = circuit.net_count();
        self.n_ff = circuit.dffs().len();
        self.len = seq.len();
        self.vals.clear();
        self.vals.resize(self.len * self.n_nets, Logic::X);
        self.states.clear();
        self.states.resize((self.len + 1) * self.n_ff, Logic::X);
        self.tmp.clear();
        self.tmp.resize(topo.flat.n_temps, Logic::X);
        self.states[..self.n_ff].copy_from_slice(init);
        for (t, v) in seq.iter().enumerate() {
            let row = &mut self.vals[t * self.n_nets..(t + 1) * self.n_nets];
            for (&pi, &val) in topo.pi.iter().zip(v) {
                row[pi as usize] = val;
            }
            for (i, &q) in topo.dff_q.iter().enumerate() {
                row[q as usize] = self.states[t * self.n_ff + i];
            }
            topo.flat.eval_scalar(row, &mut self.tmp);
            for (i, &d) in topo.dff_d.iter().enumerate() {
                self.states[(t + 1) * self.n_ff + i] = row[d as usize];
            }
        }
    }

    /// All fault-free net values at time unit `t`, indexed by net.
    #[inline]
    pub(crate) fn row(&self, t: usize) -> &[Logic] {
        &self.vals[t * self.n_nets..(t + 1) * self.n_nets]
    }

    /// The fault-free machine state before time unit `t` (`t == len` gives
    /// the post-extension state).
    #[inline]
    pub(crate) fn state_before(&self, t: usize) -> &[Logic] {
        &self.states[t * self.n_ff..(t + 1) * self.n_ff]
    }

    /// The fault-free machine state after the whole extension.
    #[inline]
    pub(crate) fn end_state(&self) -> &[Logic] {
        self.state_before(self.len)
    }

    /// Number of time units covered by the last [`fill`](Self::fill).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Kernel scratch
// ---------------------------------------------------------------------------

/// Reusable per-thread working set of the batch kernel, generic over the
/// lane-word count `W`.
///
/// All vectors are sized for the circuit by [`ensure`](Self::ensure) and
/// returned to their quiescent state (flags false, lists empty) by every
/// kernel run, so reuse across batches and extensions is allocation-free.
#[derive(Default)]
pub(crate) struct KernelScratch<const W: usize> {
    inj: WideInjection<W>,
    inj_nets: usize,
    inj_ops: usize,
    /// Per value slot (net or shared temp): faulty word. In sparse mode a
    /// net slot is valid only while `diverged` is set; in dense mode every
    /// net of an active component holds its absolute word.
    diff: Vec<WideWord<W>>,
    /// Per net: whether the net currently differs from the trace.
    diverged: Vec<bool>,
    /// Dirty gate positions, bucketed by logic level and drained in level
    /// order (every push targets a strictly higher level than the gate
    /// being processed, so one ascending sweep per time unit suffices).
    buckets: Vec<Vec<u32>>,
    /// Per comb position: already queued in `buckets`.
    in_queue: Vec<bool>,
    /// Comb positions of gates diverged in the previous / current time unit.
    diverged_gates: Vec<u32>,
    diverged_gates_next: Vec<u32>,
    /// Source nets (PIs / FF outputs) diverged in the current time unit.
    src_diverged: Vec<u32>,
    /// Sparse faulty machine state: `(ff index, word)` where any lane
    /// differs from the fault-free state.
    ff_diff: Vec<(u32, WideWord<W>)>,
    ff_diff_next: Vec<(u32, WideWord<W>)>,
    /// Per flip-flop: whether `ff_diff` has an entry for it.
    ff_in_diff: Vec<bool>,
    /// Per flip-flop: dedupe marker for next-state candidates.
    ff_seen: Vec<bool>,
    ff_candidates: Vec<u32>,
    /// Injection sites of the current batch, split by what they force.
    forced_src_pis: Vec<u32>,
    forced_src_ffs: Vec<u32>,
    forced_gate_pos: Vec<u32>,
    pin_forced_ffs: Vec<u32>,
    /// Weakly-connected components the batch can diverge in; dense sweeps
    /// are restricted to them.
    active_comps: Vec<u32>,
    comp_active: Vec<bool>,
    /// Post-extension faulty machine state of the batch, per flip-flop.
    pub(crate) final_states: Vec<WideWord<W>>,
}

impl<const W: usize> KernelScratch<W> {
    /// Sizes every buffer for `circuit`, preserving allocations when the
    /// sizes already match (the steady state).
    pub(crate) fn ensure(&mut self, circuit: &Circuit, topo: &Topology) {
        let n = circuit.net_count();
        let n_comb = circuit.comb_order().len();
        let n_ff = circuit.dffs().len();
        let flat = &topo.flat;
        if self.inj_nets != n || self.inj_ops != flat.ops.len() {
            self.inj = WideInjection::new(n, flat.ops.len(), n_comb, n_ff);
            self.inj_nets = n;
            self.inj_ops = flat.ops.len();
        }
        if self.diff.len() != flat.n_slots {
            self.diff.clear();
            self.diff.resize(flat.n_slots, WideWord::ALL_X);
        }
        // Keyed on the net count, not the slot count: circuits with the
        // same number of value slots can differ in nets.
        if self.diverged.len() != n {
            self.diverged.clear();
            self.diverged.resize(n, false);
        }
        if self.in_queue.len() != n_comb {
            self.in_queue.clear();
            self.in_queue.resize(n_comb, false);
        }
        if self.buckets.len() < topo.n_levels {
            self.buckets.resize_with(topo.n_levels, Vec::new);
        }
        if self.ff_in_diff.len() != n_ff {
            self.ff_in_diff.clear();
            self.ff_in_diff.resize(n_ff, false);
            self.ff_seen.clear();
            self.ff_seen.resize(n_ff, false);
        }
        if self.comp_active.len() != flat.n_comps {
            // `active_comps` carries over between batches of one circuit
            // (begin() resets it through `comp_active`); across a circuit
            // switch its component ids are meaningless and may be out of
            // range for the new `comp_active`, so drop them here.
            self.active_comps.clear();
            self.comp_active.clear();
            self.comp_active.resize(flat.n_comps, false);
        }
        if self.final_states.len() != n_ff {
            self.final_states.clear();
            self.final_states.resize(n_ff, WideWord::ALL_X);
        }
    }
}

thread_local! {
    static TRACE: RefCell<TraceBuf> = RefCell::new(TraceBuf::default());
    static KERNEL: RefCell<KernelScratch<LANE_WORDS>> = RefCell::new(KernelScratch::default());
}

/// Runs `f` with this thread's trace buffer.
pub(crate) fn with_trace<R>(f: impl FnOnce(&mut TraceBuf) -> R) -> R {
    TRACE.with(|cell| f(&mut cell.borrow_mut()))
}

/// Runs `f` with this thread's kernel scratch.
pub(crate) fn with_kernel<R>(f: impl FnOnce(&mut KernelScratch<LANE_WORDS>) -> R) -> R {
    KERNEL.with(|cell| f(&mut cell.borrow_mut()))
}

// ---------------------------------------------------------------------------
// Batch kernel
// ---------------------------------------------------------------------------

/// Everything a batch kernel reads; shared freely across worker threads.
pub(crate) struct ExtendCtx<'a> {
    pub(crate) circuit: &'a Circuit,
    pub(crate) topo: &'a Topology,
    pub(crate) trace: &'a TraceBuf,
    pub(crate) faults: &'a FaultList,
    /// Machine state of every fault at the start of the current window.
    pub(crate) fault_states: &'a [Vec<Logic>],
    /// Global time of the extension's first vector.
    pub(crate) base_time: u32,
}

/// What one batch produced: newly detected lanes and their detection times
/// (`times[i]` is meaningful iff lane `i` is set in `detected`). The
/// surviving lanes' machine states are left in
/// [`KernelScratch::final_states`].
pub(crate) struct BatchOutcome<const W: usize> {
    pub(crate) detected: [u64; W],
    pub(crate) times: Vec<u32>,
}

/// Simulates one batch of ≤ `64 * W` undetected faults over the window
/// `[t0, t1)` of the current extension.
///
/// Lane-exact with a dense evaluation of every gate at every time unit
/// (the reference engine): a net without a `diverged` flag carries the
/// broadcast fault-free value, and word operations are lane-independent,
/// so skipping gates whose fanins all match the trace cannot change any
/// lane. Detection times and surviving machine states are therefore
/// bit-identical to the reference.
pub(crate) fn run_batch<const W: usize>(
    ctx: &ExtendCtx<'_>,
    batch: &[FaultId],
    s: &mut KernelScratch<W>,
    t0: usize,
    t1: usize,
) -> BatchOutcome<W> {
    let trace = ctx.trace;
    let init = trace.state_before(t0);
    let mut stepper =
        BatchStepper::begin(ctx.circuit, ctx.topo, ctx.faults, batch, s, init, |ff| {
            let mut word = WideWord::broadcast(init[ff]);
            for (lane, &fid) in batch.iter().enumerate() {
                word.set_lane(lane, ctx.fault_states[fid.index()][ff]);
            }
            word
        });
    let full_mask = stepper.full_mask();

    let mut detected = [0u64; W];
    let mut times = vec![0u32; batch.len()];
    let mut early = false;
    for t in t0..t1 {
        let conflicts = stepper.step(trace.row(t), trace.state_before(t + 1));
        let fresh = mask::and_not(&conflicts, &detected);
        mask::for_each_set(&fresh, |lane| times[lane] = ctx.base_time + t as u32);
        mask::or_assign(&mut detected, &fresh);
        if detected == full_mask {
            early = true;
            break; // every fault in this batch is detected
        }
    }

    if !early {
        stepper.write_final_states(trace.state_before(t1));
    }
    BatchOutcome { detected, times }
}

/// One batch of ≤ `64 * W` faults stepped a time unit at a time.
///
/// [`run_batch`] drives a window through it; the checkpointed trial engine
/// (`crate::checkpoint`) uses it to resume batches from arbitrary per-lane
/// machine states and to observe the sparse flip-flop divergence after
/// every step. Word operations are lane-exact, so the per-step conflict
/// masks and divergences are bit-identical to the dense reference engine
/// regardless of the sparse/dense mode history.
///
/// Dropping the stepper returns the scratch to its quiescent state, so the
/// next batch on the thread starts clean however this one ended: finished,
/// abandoned after any step, or unwound by a panic.
pub(crate) struct BatchStepper<'a, 'b, const W: usize> {
    topo: &'a Topology,
    s: &'b mut KernelScratch<W>,
    n_comb: usize,
    full_mask: [u64; W],
    dense: bool,
    /// Whether the batch's active components cover the whole circuit, in
    /// which case dense sweeps take the unrestricted fast path.
    all_comps: bool,
}

impl<'a, 'b, const W: usize> BatchStepper<'a, 'b, W> {
    /// Loads the injection masks, splits the batch's injection sites and
    /// seeds the sparse machine state. `seed(ff)` returns the absolute
    /// per-lane state word of flip-flop `ff`; only words differing from
    /// the broadcast fault-free state `good_init` are kept.
    pub(crate) fn begin(
        circuit: &Circuit,
        topo: &'a Topology,
        faults: &FaultList,
        batch: &[FaultId],
        s: &'b mut KernelScratch<W>,
        good_init: &[Logic],
        seed: impl Fn(usize) -> WideWord<W>,
    ) -> Self {
        s.ensure(circuit, topo);
        // Built before the scratch is touched, so a panic below still
        // resets it on drop.
        let mut stepper = BatchStepper {
            topo,
            s,
            n_comb: topo.gate_net.len(),
            full_mask: mask::full::<W>(batch.len()),
            dense: false,
            all_comps: false,
        };
        let s = &mut *stepper.s;
        let flat = &topo.flat;
        s.inj.load(circuit, topo, faults, batch);

        // Split the batch's injection sites by what they force each time
        // unit, and collect the components divergence can live in.
        s.forced_src_pis.clear();
        s.forced_src_ffs.clear();
        s.forced_gate_pos.clear();
        s.pin_forced_ffs.clear();
        for &c in &s.active_comps {
            s.comp_active[c as usize] = false;
        }
        s.active_comps.clear();
        for &fid in batch {
            let fault = faults.fault(fid);
            let site_net = match fault.site {
                FaultSite::Stem(n) => n,
                FaultSite::Branch(pin) => pin.net,
            };
            let comp = flat.comp_of_net[site_net.index()];
            if !s.comp_active[comp as usize] {
                s.comp_active[comp as usize] = true;
                s.active_comps.push(comp);
            }
            match fault.site {
                FaultSite::Stem(n) => match circuit.net(n).driver() {
                    Driver::Input => s.forced_src_pis.push(n.index() as u32),
                    Driver::Dff { .. } => s.forced_src_ffs.push(topo.dff_pos_of[n.index()]),
                    Driver::Gate { .. } => s.forced_gate_pos.push(topo.pos_of[n.index()]),
                },
                FaultSite::Branch(pin) => match circuit.net(pin.net).driver() {
                    Driver::Gate { .. } => s.forced_gate_pos.push(topo.pos_of[pin.net.index()]),
                    Driver::Dff { .. } => s.pin_forced_ffs.push(topo.dff_pos_of[pin.net.index()]),
                    Driver::Input => unreachable!("primary inputs have no fanin pins"),
                },
            }
        }
        for list in [
            &mut s.forced_src_pis,
            &mut s.forced_src_ffs,
            &mut s.forced_gate_pos,
            &mut s.pin_forced_ffs,
        ] {
            list.sort_unstable();
            list.dedup();
        }

        // Initial sparse machine state: kept only where some lane differs
        // from the fault-free state. A divergent flip-flop also activates
        // its component (a resumed state can diverge outside any injection
        // site's cone).
        for (ff, &good) in good_init.iter().enumerate() {
            let word = seed(ff);
            if word != WideWord::broadcast(good) {
                s.ff_diff.push((ff as u32, word));
                s.ff_in_diff[ff] = true;
                let comp = flat.comp_of_net[topo.dff_q[ff] as usize];
                if !s.comp_active[comp as usize] {
                    s.comp_active[comp as usize] = true;
                    s.active_comps.push(comp);
                }
            }
        }
        s.active_comps.sort_unstable();
        stepper.all_comps = s.active_comps.len() == flat.n_comps;
        stepper
    }

    /// Lane mask covering exactly the batch's faults.
    pub(crate) fn full_mask(&self) -> [u64; W] {
        self.full_mask
    }

    /// Simulates one time unit given the fault-free net values `row` and
    /// the fault-free next state `good_next`, returning the raw primary-
    /// output conflict mask (masked to the batch's lanes, *not* masked by
    /// previously detected lanes — every lane keeps being simulated).
    pub(crate) fn step(&mut self, row: &[Logic], good_next: &[Logic]) -> [u64; W] {
        let topo = self.topo;
        let flat = &topo.flat;
        let s = &mut *self.s;
        let mut conflict_mask = [0u64; W];

        // --- Mode switch: once a batch's activity exceeds `1 / DENSE_FACTOR`
        // of the circuit, dirty-list bookkeeping costs more than it saves and
        // the batch finishes in dense mode (activity never drops — detected
        // lanes keep diverging until the whole batch is done).
        if !self.dense && s.diverged_gates.len() * DENSE_FACTOR > self.n_comb {
            self.dense = true;
            for &pos in &s.diverged_gates {
                s.diverged[topo.gate_net[pos as usize] as usize] = false;
            }
            s.diverged_gates.clear();
        }

        // --- Dense step: branchless sweep of the flat op stream, restricted
        // to the batch's active components (divergence provably cannot leave
        // them, so untouched components stay on the trace). `diff` holds the
        // absolute faulty word of every net in an active component (sources
        // written first, each op before its consumers); op spans between
        // patched ops run with zero per-op conditionals. Word operations are
        // lane-exact either way, so results stay bit-identical to the sparse
        // path.
        if self.dense {
            // Sources: broadcast the trace, overlay lane-divergent flip-flop
            // states, then apply source stem forces.
            if self.all_comps {
                for &p in &topo.pi {
                    s.diff[p as usize] = WideWord::broadcast(row[p as usize]);
                }
                for &q in &topo.dff_q {
                    s.diff[q as usize] = WideWord::broadcast(row[q as usize]);
                }
            } else {
                for &c in &s.active_comps {
                    for &p in flat.comp_pis(c as usize) {
                        s.diff[p as usize] = WideWord::broadcast(row[p as usize]);
                    }
                    for &ffi in flat.comp_ffs(c as usize) {
                        let q = topo.dff_q[ffi as usize] as usize;
                        s.diff[q] = WideWord::broadcast(row[q]);
                    }
                }
            }
            for &(ffi, word) in &s.ff_diff {
                s.diff[topo.dff_q[ffi as usize] as usize] = word;
            }
            for &n in &s.inj.src_forced {
                s.diff[n as usize] = s.inj.force_src(n as usize, s.diff[n as usize]);
            }

            // Op sweep.
            if self.all_comps {
                sweep_ops(&flat.ops, &mut s.diff, &s.inj, 0, flat.ops.len() as u32);
            } else {
                for &c in &s.active_comps {
                    let (start, end) = flat.comp_ops[c as usize];
                    sweep_ops(&flat.ops, &mut s.diff, &s.inj, start, end);
                }
            }

            // Detection at primary outputs of active components.
            let mut check_po = |o: usize| {
                let good = row[o];
                if good.is_binary() {
                    let c = s.diff[o].conflict_mask(&WideWord::broadcast(good));
                    mask::or_assign(&mut conflict_mask, &mask::and(&c, &self.full_mask));
                }
            };
            if self.all_comps {
                for &o in &topo.po {
                    check_po(o as usize);
                }
            } else {
                for &c in &s.active_comps {
                    for &oi in flat.comp_pos(c as usize) {
                        check_po(topo.po[oi as usize] as usize);
                    }
                }
            }

            // Next state of flip-flops in active components; the rest stay
            // on the fault-free trajectory by the component invariant.
            s.ff_diff_next.clear();
            let transfer = |s: &mut KernelScratch<W>, ffi: usize| {
                let d = topo.dff_d[ffi] as usize;
                let w = s.inj.force_ff(ffi, s.diff[d]);
                if w != WideWord::broadcast(good_next[ffi]) {
                    s.ff_diff_next.push((ffi as u32, w));
                }
            };
            if self.all_comps {
                for ffi in 0..good_next.len() {
                    transfer(s, ffi);
                }
            } else {
                for ci in 0..s.active_comps.len() {
                    let c = s.active_comps[ci] as usize;
                    for &fi in flat.comp_ffs(c) {
                        transfer(s, fi as usize);
                    }
                }
            }
            for &(ffi, _) in &s.ff_diff {
                s.ff_in_diff[ffi as usize] = false;
            }
            for &(ffi, _) in &s.ff_diff_next {
                s.ff_in_diff[ffi as usize] = true;
            }
            std::mem::swap(&mut s.ff_diff, &mut s.ff_diff_next);
            return conflict_mask;
        }

        let mut hi = 0usize;

        // --- Diverged sources: lane-divergent and stem-forced PIs / FFs.
        s.src_diverged.clear();
        for &(ffi, word) in &s.ff_diff {
            let q = topo.dff_q[ffi as usize] as usize;
            let w = s.inj.force_src(q, word);
            if w != WideWord::broadcast(row[q]) {
                s.diff[q] = w;
                s.diverged[q] = true;
                s.src_diverged.push(q as u32);
            }
        }
        for &ffi in &s.forced_src_ffs {
            if s.ff_in_diff[ffi as usize] {
                continue; // already handled with its lane divergence above
            }
            let q = topo.dff_q[ffi as usize] as usize;
            let good = WideWord::broadcast(row[q]);
            let w = s.inj.force_src(q, good);
            if w != good {
                s.diff[q] = w;
                s.diverged[q] = true;
                s.src_diverged.push(q as u32);
            }
        }
        for &p in &s.forced_src_pis {
            let good = WideWord::broadcast(row[p as usize]);
            let w = s.inj.force_src(p as usize, good);
            if w != good {
                s.diff[p as usize] = w;
                s.diverged[p as usize] = true;
                s.src_diverged.push(p);
            }
        }

        // --- Seed the dirty set: injection-site gates, gates diverged in
        // the previous time unit, and consumers of diverged sources.
        s.diverged_gates_next.clear();
        for &pos in &s.forced_gate_pos {
            enqueue(&mut s.buckets, &mut s.in_queue, topo, &mut hi, pos);
        }
        for &pos in &s.diverged_gates {
            enqueue(&mut s.buckets, &mut s.in_queue, topo, &mut hi, pos);
        }
        for &n in &s.src_diverged {
            for &pos in topo.gate_consumers(n as usize) {
                enqueue(&mut s.buckets, &mut s.in_queue, topo, &mut hi, pos);
            }
        }

        // --- Process dirty gates level by level. Consumers always sit at
        // a strictly higher level, so one ascending sweep evaluates every
        // gate after all its diverged fanins.
        let mut lvl = 0usize;
        while lvl <= hi {
            if s.buckets[lvl].is_empty() {
                lvl += 1;
                continue;
            }
            let mut bucket = std::mem::take(&mut s.buckets[lvl]);
            for &pos in &bucket {
                s.in_queue[pos as usize] = false;
                let (out_net, out) = eval_pos(flat, &s.inj, &mut s.diff, &s.diverged, row, pos);
                if out != WideWord::broadcast(row[out_net]) {
                    s.diff[out_net] = out;
                    s.diverged[out_net] = true;
                    s.diverged_gates_next.push(pos);
                    for &cpos in topo.gate_consumers(out_net) {
                        enqueue(&mut s.buckets, &mut s.in_queue, topo, &mut hi, cpos);
                    }
                } else {
                    s.diverged[out_net] = false;
                }
            }
            bucket.clear();
            s.buckets[lvl] = bucket;
            lvl += 1;
        }

        // --- Detection: only diverged outputs can conflict with the trace.
        for &o in &topo.po {
            let o = o as usize;
            if !s.diverged[o] {
                continue;
            }
            let good = row[o];
            if !good.is_binary() {
                continue;
            }
            let c = s.diff[o].conflict_mask(&WideWord::broadcast(good));
            mask::or_assign(&mut conflict_mask, &mask::and(&c, &self.full_mask));
        }

        // --- Next state: only flip-flops fed by a diverged net or carrying
        // a D-pin branch fault can leave the fault-free trajectory.
        s.ff_candidates.clear();
        for &n in &s.src_diverged {
            for &ffi in topo.dff_consumers(n as usize) {
                if !s.ff_seen[ffi as usize] {
                    s.ff_seen[ffi as usize] = true;
                    s.ff_candidates.push(ffi);
                }
            }
        }
        for &pos in &s.diverged_gates_next {
            let n = topo.gate_net[pos as usize] as usize;
            for &ffi in topo.dff_consumers(n) {
                if !s.ff_seen[ffi as usize] {
                    s.ff_seen[ffi as usize] = true;
                    s.ff_candidates.push(ffi);
                }
            }
        }
        for &ffi in &s.pin_forced_ffs {
            if !s.ff_seen[ffi as usize] {
                s.ff_seen[ffi as usize] = true;
                s.ff_candidates.push(ffi);
            }
        }
        s.ff_diff_next.clear();
        for &ffi in &s.ff_candidates {
            s.ff_seen[ffi as usize] = false;
            let d = topo.dff_d[ffi as usize] as usize;
            let dw = if s.diverged[d] {
                s.diff[d]
            } else {
                WideWord::broadcast(row[d])
            };
            let w = s.inj.force_ff(ffi as usize, dw);
            if w != WideWord::broadcast(good_next[ffi as usize]) {
                s.ff_diff_next.push((ffi, w));
            }
        }
        for &(ffi, _) in &s.ff_diff {
            s.ff_in_diff[ffi as usize] = false;
        }
        for &(ffi, _) in &s.ff_diff_next {
            s.ff_in_diff[ffi as usize] = true;
        }
        std::mem::swap(&mut s.ff_diff, &mut s.ff_diff_next);

        // --- Source divergence is per time unit; gate divergence markers
        // carry over so the gates are re-evaluated (and re-checked) next
        // time unit.
        for &n in &s.src_diverged {
            s.diverged[n as usize] = false;
        }
        std::mem::swap(&mut s.diverged_gates, &mut s.diverged_gates_next);
        conflict_mask
    }

    /// The sparse machine state after the last [`step`](Self::step): the
    /// flip-flops whose word differs from the broadcast of that step's
    /// `good_next`, in no particular order.
    pub(crate) fn ff_diff(&self) -> &[(u32, WideWord<W>)] {
        &self.s.ff_diff
    }

    /// The batch lanes whose machine state after the last
    /// [`step`](Self::step) differs from the recorded sparse state `snap`
    /// (sorted by flip-flop index). Both sides are relative to the same
    /// fault-free state `good`: a flip-flop without an entry carries
    /// `broadcast(good[ff])`. X counts as different from 0 and 1.
    pub(crate) fn lanes_off(&self, snap: &[(u32, WideWord<W>)], good: &[Logic]) -> [u64; W] {
        let s = &*self.s;
        let mut off = [0u64; W];
        for &(ffi, word) in &s.ff_diff {
            let recorded = match snap.binary_search_by_key(&ffi, |e| e.0) {
                Ok(i) => snap[i].1,
                Err(_) => WideWord::broadcast(good[ffi as usize]),
            };
            mask::or_assign(&mut off, &word.diff_mask(&recorded));
        }
        for &(ffi, word) in snap {
            if !s.ff_in_diff[ffi as usize] {
                let here = WideWord::broadcast(good[ffi as usize]);
                mask::or_assign(&mut off, &word.diff_mask(&here));
            }
        }
        mask::and(&off, &self.full_mask)
    }

    /// Writes the batch's absolute machine state — the fault-free
    /// `end_state` overlaid with the sparse divergences — into
    /// [`KernelScratch::final_states`].
    pub(crate) fn write_final_states(&mut self, end_state: &[Logic]) {
        let s = &mut *self.s;
        overlay_states(&s.ff_diff, end_state, &mut s.final_states);
    }

    /// Writes the batch's absolute machine state after the last
    /// [`step`](Self::step) into `out`: that step's fault-free next state
    /// `good` overlaid with the sparse divergences.
    pub(crate) fn copy_states(&self, good: &[Logic], out: &mut [WideWord<W>]) {
        overlay_states(&self.s.ff_diff, good, out);
    }
}

/// `out[ff]` = `broadcast(good[ff])`, then every sparse divergence on top.
fn overlay_states<const W: usize>(
    ff_diff: &[(u32, WideWord<W>)],
    good: &[Logic],
    out: &mut [WideWord<W>],
) {
    for (w, &g) in out.iter_mut().zip(good) {
        *w = WideWord::broadcast(g);
    }
    for &(ffi, word) in ff_diff {
        out[ffi as usize] = word;
    }
}

impl<const W: usize> Drop for BatchStepper<'_, '_, W> {
    /// Returns the scratch to its quiescent state (flags false, lists
    /// empty) so the next batch can reuse it. A stepper dropped while its
    /// thread unwinds may have stopped mid-step, with queued gates and
    /// half-updated lists, so the scratch is then discarded wholesale; the
    /// next [`KernelScratch::ensure`] sizes a fresh one.
    fn drop(&mut self) {
        let s = &mut *self.s;
        if std::thread::panicking() {
            *s = KernelScratch::default();
            return;
        }
        let topo = self.topo;
        for &n in &s.src_diverged {
            s.diverged[n as usize] = false;
        }
        for list in [&s.diverged_gates, &s.diverged_gates_next] {
            for &pos in list {
                s.diverged[topo.gate_net[pos as usize] as usize] = false;
            }
        }
        s.src_diverged.clear();
        s.diverged_gates.clear();
        s.diverged_gates_next.clear();
        for list in [&s.ff_diff, &s.ff_diff_next] {
            for &(ffi, _) in list {
                s.ff_in_diff[ffi as usize] = false;
            }
        }
        s.ff_diff.clear();
        s.ff_diff_next.clear();
        s.ff_candidates.clear();
        debug_assert!(s.buckets.iter().all(Vec::is_empty));
        debug_assert!(s.diverged.iter().all(|&d| !d));
        debug_assert!(s.in_queue.iter().all(|&d| !d));
    }
}

/// Runs the ops `[start, end)` dense: operands read the value buffer
/// directly (no divergence branch). Spans between patched ops run with
/// zero per-op conditionals; ops carrying injection patches apply their
/// operand/output forces inline.
pub(crate) fn sweep_ops<const W: usize>(
    ops: &[FlatOp],
    vals: &mut [WideWord<W>],
    inj: &WideInjection<W>,
    start: u32,
    end: u32,
) {
    let ps = &inj.patch_ops;
    let lo = ps.partition_point(|&p| p < start);
    let hi = ps.partition_point(|&p| p < end);
    let mut i = start as usize;
    for &pidx in &ps[lo..hi] {
        run_span(ops, vals, i, pidx as usize);
        let o = ops[pidx as usize];
        let (a, b) = (vals[o.a as usize], vals[o.b as usize]);
        vals[o.out as usize] = inj
            .patch_at(pidx as usize)
            .expect("listed op carries a patch")
            .eval(o.code, a, b);
        i = pidx as usize + 1;
    }
    run_span(ops, vals, i, end as usize);
}

/// The branchless inner loop: a straight sweep over a patch-free op span.
#[inline]
fn run_span<const W: usize>(ops: &[FlatOp], vals: &mut [WideWord<W>], start: usize, end: usize) {
    for o in &ops[start..end] {
        let (a, b) = (vals[o.a as usize], vals[o.b as usize]);
        vals[o.out as usize] = eval_op_w(o.code, a, b);
    }
}

/// Evaluates the gate at comb position `pos` in divergence space: net
/// operands read their diff word if diverged and the broadcast trace value
/// otherwise, temp operands read the freshly written scratch slot, and
/// injection patches on the gate's ops are applied. Returns the output net
/// index and its new faulty word (not yet stored).
#[inline]
fn eval_pos<const W: usize>(
    flat: &FlatNetlist,
    inj: &WideInjection<W>,
    diff: &mut [WideWord<W>],
    diverged: &[bool],
    row: &[Logic],
    pos: u32,
) -> (usize, WideWord<W>) {
    #[inline(always)]
    fn rd<const W: usize>(
        diff: &[WideWord<W>],
        diverged: &[bool],
        row: &[Logic],
        n_nets: usize,
        idx: u32,
    ) -> WideWord<W> {
        let i = idx as usize;
        if i < n_nets {
            if diverged[i] {
                diff[i]
            } else {
                WideWord::broadcast(row[i])
            }
        } else {
            diff[i] // shared temp, written earlier in this gate's range
        }
    }

    let n = flat.n_nets;
    let (start, end) = flat.gate_ops[pos as usize];
    let patched = inj.gate_is_patched(pos as usize);
    let mut idx = start as usize;
    loop {
        let o = flat.ops[idx];
        let a = rd(diff, diverged, row, n, o.a);
        let b = rd(diff, diverged, row, n, o.b);
        let r = if patched {
            match inj.patch_at(idx) {
                Some(p) => p.eval(o.code, a, b),
                None => eval_op_w(o.code, a, b),
            }
        } else {
            eval_op_w(o.code, a, b)
        };
        if idx + 1 == end as usize {
            return (o.out as usize, r); // the last op writes the gate net
        }
        diff[o.out as usize] = r;
        idx += 1;
    }
}

/// Marks a gate position dirty, bucketing it by logic level.
#[inline]
fn enqueue(
    buckets: &mut [Vec<u32>],
    in_queue: &mut [bool],
    topo: &Topology,
    hi: &mut usize,
    pos: u32,
) {
    if !in_queue[pos as usize] {
        in_queue[pos as usize] = true;
        let lvl = topo.level_of_pos[pos as usize] as usize;
        buckets[lvl].push(pos);
        *hi = (*hi).max(lvl);
    }
}
