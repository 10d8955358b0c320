//! Incremental sequential parallel-fault simulation.
//!
//! Faults are simulated [`LANES`] per wide machine word ([`LANE_WORDS`]
//! 64-bit planes per logic bit); every fault carries its own flip-flop
//! state across time units, which is what makes the engine *incremental*:
//! test generation appends subsequences and only the new vectors are
//! simulated, never the whole sequence again.
//!
//! The fault-free trajectory is computed once per extension by a scalar
//! pass over the compiled flat netlist; faulty lanes are then compared
//! against it at every primary output (three-valued safe: good binary,
//! faulty the complement). Extensions are simulated in slices of
//! [`DROP_SLICE`] time units with *fault dropping* between slices:
//! detected faults retire from the active universe, batches repack, and
//! the remaining work shrinks as coverage grows — without changing any
//! per-fault result, because each fault's lane evolves independently of
//! how lanes are packed into batches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use limscan_fault::{FaultId, FaultList, FaultSite};
use limscan_netlist::{Circuit, NetId};
use limscan_obs::{Metric, ObsHandle, SpanKind};

use crate::dense::DenseBatch;
use crate::engine::{
    run_batch, sim_threads, with_kernel, with_trace, BatchOutcome, ExtendCtx, KernelScratch,
    Topology, TraceBuf, PARALLEL_THRESHOLD,
};
use crate::frame::FrameSim;
use crate::good::{eval_comb, next_state, SeqGoodSim};
use crate::logic::Logic;
use crate::parallel::{mask, WideWord, LANES, LANE_WORDS};
use crate::sequence::TestSequence;

/// Time units simulated per fault-dropping slice: long enough that the
/// per-slice repack and state write-back are noise, short enough that a
/// detection retires its fault well before the extension ends. Dropping at
/// slice barriers (rather than mid-batch) keeps batch packing — and thus
/// every observable — identical for every thread count.
pub(crate) const DROP_SLICE: usize = 32;

/// Summary of which faults a sequence detects and when.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DetectionReport {
    detected_at: Vec<Option<u32>>,
    n_detected: usize,
}

impl DetectionReport {
    /// First detection time (vector index) of the fault, if detected.
    pub fn detected_at(&self, f: FaultId) -> Option<u32> {
        self.detected_at[f.index()]
    }

    /// Whether the fault is detected.
    pub fn is_detected(&self, f: FaultId) -> bool {
        self.detected_at[f.index()].is_some()
    }

    /// Number of detected faults (maintained incrementally, O(1)).
    pub fn detected_count(&self) -> usize {
        self.n_detected
    }

    /// Total number of faults in the list this report covers.
    pub fn total(&self) -> usize {
        self.detected_at.len()
    }

    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.detected_at.is_empty() {
            return 100.0;
        }
        100.0 * self.detected_count() as f64 / self.detected_at.len() as f64
    }

    /// Ids of undetected faults, in id order.
    pub fn undetected(&self) -> Vec<FaultId> {
        self.detected_at
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| FaultId::from_index(i))
            .collect()
    }

    /// Ids of detected faults, in id order.
    pub fn detected(&self) -> Vec<FaultId> {
        self.detected_at
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| FaultId::from_index(i))
            .collect()
    }

    /// The detection-profile curve: `(time, newly_detected)` pairs giving
    /// how many faults were first detected at each time step, ascending in
    /// time. This is the per-vector series the paper's trajectory tables
    /// aggregate; an efficient test front-loads detections (steeply rising
    /// curve), and a long flat tail marks vectors that compaction can
    /// usually omit.
    pub fn detection_profile(&self) -> Vec<(u32, u32)> {
        let mut times: Vec<u32> = self.detected_at.iter().filter_map(|d| *d).collect();
        times.sort_unstable();
        let mut out: Vec<(u32, u32)> = Vec::new();
        for t in times {
            match out.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => out.push((t, 1)),
            }
        }
        out
    }
}

/// Incremental sequential parallel-fault simulator.
///
/// Construct once per (circuit, fault list) pair, then [`extend`] with
/// subsequences as they are generated; detection times accumulate across
/// calls and each undetected fault's machine state is carried forward.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_fault::FaultList;
/// use limscan_sim::{Logic, SeqFaultSim, TestSequence};
///
/// let c = benchmarks::s27();
/// let faults = FaultList::collapsed(&c);
/// let mut seq = TestSequence::new(c.inputs().len());
/// for bits in [[1, 1, 1, 0], [0, 0, 0, 0], [1, 0, 1, 1]] {
///     seq.push(bits.iter().map(|&b| Logic::from_bool(b == 1)).collect());
/// }
/// let report = SeqFaultSim::run(&c, &faults, &seq);
/// assert!(report.detected_count() > 0);
/// ```
///
/// [`extend`]: SeqFaultSim::extend
#[derive(Clone)]
pub struct SeqFaultSim<'a> {
    circuit: &'a Circuit,
    faults: &'a FaultList,
    /// Fanout indexes for the event-driven kernel; shared across clones.
    topo: Arc<Topology>,
    good_state: Vec<Logic>,
    fault_state: Vec<Vec<Logic>>,
    detected_at: Vec<Option<u32>>,
    /// `Some` entries in `detected_at`, maintained incrementally.
    n_detected: usize,
    time: u32,
    /// Observability handle; a no-op unless [`set_obs`](Self::set_obs) was
    /// called with an enabled handle.
    obs: ObsHandle,
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator at time 0 with all-X machine states.
    pub fn new(circuit: &'a Circuit, faults: &'a FaultList) -> Self {
        let n_ff = circuit.dffs().len();
        SeqFaultSim {
            circuit,
            faults,
            topo: Arc::new(Topology::build(circuit)),
            good_state: vec![Logic::X; n_ff],
            fault_state: vec![vec![Logic::X; n_ff]; faults.len()],
            detected_at: vec![None; faults.len()],
            n_detected: 0,
            time: 0,
            obs: ObsHandle::noop(),
        }
    }

    /// Attach an observability scope: every subsequent
    /// [`extend`](Self::extend) emits per-batch spans, vector/detection
    /// counters, thread/scratch gauges, and the detection-profile points
    /// through it. Counters and profile points are emitted from the merging
    /// thread in a deterministic order, so single-threaded traces are
    /// byte-stable and collector totals for deterministic metrics are
    /// identical for every thread count.
    pub fn set_obs(&mut self, obs: &ObsHandle) {
        self.obs = obs.clone();
    }

    /// Creates a simulator whose fault-free *and* every faulty machine
    /// start from the same given state — the "clean load" assumption of
    /// conventional scan test evaluation (a complete scan-in overwrites
    /// the whole chain).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn with_state(circuit: &'a Circuit, faults: &'a FaultList, state: &[Logic]) -> Self {
        let mut sim = SeqFaultSim::new(circuit, faults);
        sim.reset_with_state(state);
        sim
    }

    /// Rewinds the simulator to time 0 with every machine (fault-free and
    /// faulty) in the given state and no fault detected, reusing the
    /// already-built topology — much cheaper than constructing a new
    /// simulator when many independent tests are evaluated against the
    /// same circuit and fault list.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the flip-flop count.
    pub fn reset_with_state(&mut self, state: &[Logic]) {
        assert_eq!(
            state.len(),
            self.circuit.dffs().len(),
            "state length does not match flip-flop count"
        );
        self.good_state.copy_from_slice(state);
        for fs in &mut self.fault_state {
            fs.copy_from_slice(state);
        }
        self.detected_at.fill(None);
        self.n_detected = 0;
        self.time = 0;
    }

    /// One-shot simulation of a whole sequence from the all-X state.
    pub fn run(circuit: &Circuit, faults: &FaultList, seq: &TestSequence) -> DetectionReport {
        let mut sim = SeqFaultSim::new(circuit, faults);
        sim.extend(seq);
        sim.report()
    }

    /// Simulates the given vectors as a continuation of everything already
    /// applied, returning the number of newly detected faults.
    ///
    /// The fault-free trajectory is computed once by a scalar pass over the
    /// compiled flat netlist; the active faults are then simulated in
    /// batches of [`LANES`] by an event-driven wide-word kernel that only
    /// evaluates gates downstream of an injection site or a lane-divergent
    /// flip-flop (see the [`engine`](crate::engine) module). Faults are
    /// packed into batches by component and site position, the extension
    /// is sliced every [`DROP_SLICE`] time units, and faults detected in one
    /// slice are dropped before the next, so the active universe shrinks as
    /// coverage grows. Neither packing nor dropping changes any per-fault
    /// result: [`extend_reference`](Self::extend_reference), which
    /// simulates every fault over the whole extension, agrees bit for bit.
    /// When a slice is large enough, batches are fanned out across worker
    /// threads; results are bit-identical to sequential processing for
    /// every thread count (batches are disjoint and slices are barriers).
    /// Thread count is controlled by
    /// [`set_sim_threads`](crate::set_sim_threads) or the `LIMSCAN_THREADS`
    /// environment variable. An extension always runs to its end: budgets
    /// stop a run between extensions, never inside one.
    ///
    /// # Panics
    ///
    /// Panics if the sequence width differs from the circuit's input count.
    pub fn extend(&mut self, seq: &TestSequence) -> usize {
        assert_eq!(
            seq.width(),
            self.circuit.inputs().len(),
            "sequence width does not match circuit inputs"
        );
        if seq.is_empty() {
            return 0;
        }
        let before = self.n_detected;

        // Topological packing: faults sharing a cone land in the same
        // batch, so each batch's events stay local. Sources (`pos_of` is
        // u32::MAX) sort after gates within a component.
        let mut active = self.undetected();
        let topo = &self.topo;
        active.sort_unstable_by_key(|&fid| {
            let site = match self.faults.fault(fid).site {
                FaultSite::Stem(n) => n,
                FaultSite::Branch(pin) => pin.net,
            };
            let comp = topo.flat.comp_of_net[site.index()];
            (comp, topo.pos_of[site.index()], fid.index())
        });

        let observed = self.obs.is_enabled();
        // First-detection times of faults newly detected by this call, for
        // the detection-profile events. Only tracked when observed.
        let mut newly_times: Vec<u32> = Vec::new();
        let mut max_threads = 1usize;

        with_trace(|trace| {
            trace.fill(self.circuit, &self.topo, seq, &self.good_state);
            let len = trace.len();
            // Batches run so far: the span id of the next batch, unique
            // across slices.
            let mut batches_run = 0u64;
            let mut t0 = 0usize;

            while t0 < len && !active.is_empty() {
                // One dropping slice: simulate every active fault over
                // `[t0, t1)`, then retire the detected ones.
                let t1 = (t0 + DROP_SLICE).min(len);
                let batches: Vec<&[FaultId]> = active.chunks(LANES).collect();
                let work = (t1 - t0)
                    .saturating_mul(self.circuit.gate_count().max(1))
                    .saturating_mul(batches.len())
                    .saturating_mul(LANE_WORDS);
                let threads = if work < PARALLEL_THRESHOLD {
                    1
                } else {
                    sim_threads().min(batches.len())
                };
                max_threads = max_threads.max(threads);

                if threads == 1 {
                    // On the calling thread each batch merges as soon as it
                    // ran, reading its final states in place.
                    with_kernel(|ks| {
                        for (i, batch) in batches.iter().enumerate() {
                            let done =
                                run_batch_isolated(&self.ctx(trace), batch, ks, t0, t1, observed);
                            let id = batches_run + i as u64;
                            self.merge_batch(id, batch, &done, &ks.final_states, &mut newly_times);
                        }
                    });
                } else {
                    // Workers claim batches in turn and only read shared
                    // state; each hands back its batches' final states, and
                    // every write happens in the merge below.
                    let ctx = self.ctx(trace);
                    let next = AtomicUsize::new(0);
                    let worker = || {
                        with_kernel(|ks| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(batch) = batches.get(i) else {
                                    return done;
                                };
                                let out = run_batch_isolated(&ctx, batch, ks, t0, t1, observed);
                                done.push((i, out, ks.final_states.clone()));
                            }
                        })
                    };
                    let mut done: Vec<_> = std::thread::scope(|scope| {
                        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
                        workers
                            .into_iter()
                            .flat_map(|w| w.join().expect("batch worker panicked"))
                            .collect()
                    });
                    // Merge in batch order: not required for correctness
                    // (the batches are disjoint) but it makes span emission
                    // order — and therefore traces — independent of
                    // scheduling.
                    done.sort_unstable_by_key(|(i, ..)| *i);
                    for (i, done, states) in &done {
                        let id = batches_run + *i as u64;
                        self.merge_batch(id, batches[*i], done, states, &mut newly_times);
                    }
                }

                batches_run += batches.len() as u64;
                // The slice barrier: every batch has merged, so dropping
                // here keeps the next slice's batch packing — and thus all
                // observables — identical for every thread count.
                let detected_at = &self.detected_at;
                active.retain(|fid| detected_at[fid.index()].is_none());
                t0 = t1;
            }

            if observed {
                let kernel_bytes = max_threads
                    * self.topo.flat.n_slots
                    * std::mem::size_of::<WideWord<LANE_WORDS>>();
                self.emit_extend_metrics(
                    seq.len(),
                    batches_run as usize,
                    max_threads,
                    kernel_bytes,
                    &mut newly_times,
                );
            }

            self.good_state.clear();
            self.good_state.extend_from_slice(trace.end_state());
        });

        self.time += seq.len() as u32;
        self.n_detected - before
    }

    /// What a batch kernel reads: this simulator's circuit and the fault
    /// states at the start of the current slice, over `trace`.
    fn ctx<'s>(&'s self, trace: &'s TraceBuf) -> ExtendCtx<'s> {
        ExtendCtx {
            circuit: self.circuit,
            topo: &self.topo,
            trace,
            faults: self.faults,
            fault_states: &self.fault_state,
            base_time: self.time,
        }
    }

    /// Writes one batch back, in batch order: its span and any `degrade`
    /// event, the detection times of the lanes it detected, and the final
    /// machine state (`states`, one word per flip-flop) of every other lane.
    fn merge_batch(
        &mut self,
        id: u64,
        batch: &[FaultId],
        done: &BatchDone,
        states: &[WideWord<LANE_WORDS>],
        newly_times: &mut Vec<u32>,
    ) {
        let observed = self.obs.is_enabled();
        if observed {
            self.obs
                .complete_span(SpanKind::Batch, "batch", id, done.micros);
        }
        if done.degraded {
            self.obs.degrade("sim-batch", id);
            self.obs.counter(Metric::DegradedBatches, 1);
        }
        for (lane, &fid) in batch.iter().enumerate() {
            if mask::test(&done.out.detected, lane) {
                let time = done.out.times[lane];
                self.detected_at[fid.index()] = Some(time);
                self.n_detected += 1;
                if observed {
                    newly_times.push(time);
                }
            } else {
                let state = &mut self.fault_state[fid.index()];
                for (bit, word) in state.iter_mut().zip(states) {
                    *bit = word.lane(lane);
                }
            }
        }
    }

    /// Deterministic per-extend metric emission (merging thread only):
    /// counters, gauges, then detection-profile points ascending in time.
    fn emit_extend_metrics(
        &self,
        vectors: usize,
        batches: usize,
        threads_used: usize,
        kernel_bytes: usize,
        newly_times: &mut [u32],
    ) {
        self.obs.counter(Metric::VectorsSimulated, vectors as u64);
        self.obs.counter(Metric::BatchesSimulated, batches as u64);
        self.obs
            .counter(Metric::FaultsDetected, newly_times.len() as u64);
        self.obs.gauge(Metric::SimThreads, threads_used as u64);
        // Scratch-arena estimate: the shared fault-free trace plus one
        // kernel arena (a wide word per value slot) per worker thread.
        let n_nets = self.circuit.net_count();
        let n_ff = self.circuit.dffs().len();
        let trace_bytes = vectors * n_nets + (vectors + 1) * n_ff;
        self.obs
            .gauge(Metric::ScratchBytes, (trace_bytes + kernel_bytes) as u64);
        newly_times.sort_unstable();
        let mut run: Option<(u32, u32)> = None;
        for &t in newly_times.iter() {
            match &mut run {
                Some((time, n)) if *time == t => *n += 1,
                _ => {
                    if let Some((time, n)) = run.take() {
                        self.obs.detect(time, n);
                    }
                    run = Some((t, 1));
                }
            }
        }
        if let Some((time, n)) = run {
            self.obs.detect(time, n);
        }
    }

    /// The dense oracle: every fault over the whole extension, 64 per
    /// batch, every gate at every time unit, single-threaded, on a
    /// fault-free trajectory of its own ([`SeqGoodSim`]). It shares no
    /// code with the flat kernel, which makes it the behavioural reference
    /// for equivalence tests and before/after benchmarks; production code
    /// should call [`extend`](Self::extend).
    #[doc(hidden)]
    pub fn extend_reference(&mut self, seq: &TestSequence) -> usize {
        assert_eq!(
            seq.width(),
            self.circuit.inputs().len(),
            "sequence width does not match circuit inputs"
        );
        if seq.is_empty() {
            return 0;
        }
        let before = self.n_detected;
        let mut good = SeqGoodSim::with_state(self.circuit, self.good_state.clone());
        let good_po = good.run(seq);

        let mut dense = DenseBatch::<1>::new(self.circuit);
        for batch in self.undetected().chunks(64) {
            dense.load(self.faults, batch);
            for (lane, &fid) in batch.iter().enumerate() {
                dense.set_state(lane, &self.fault_state[fid.index()]);
            }
            let mut detected = [0u64; 1];
            for (t, v) in seq.iter().enumerate() {
                for hits in dense.step(v, &good_po[t]) {
                    let fresh = mask::and_not(hits, &detected);
                    mask::for_each_set(&fresh, |lane| {
                        self.detected_at[batch[lane].index()] = Some(self.time + t as u32);
                        self.n_detected += 1;
                    });
                    mask::or_assign(&mut detected, &fresh);
                }
                if detected == dense.full_mask() {
                    break; // every fault in this batch is detected
                }
            }
            // Persist machine state for faults that remain undetected.
            for (lane, &fid) in batch.iter().enumerate() {
                if !mask::test(&detected, lane) {
                    let state = &mut self.fault_state[fid.index()];
                    for (ff, word) in dense.state().iter().enumerate() {
                        state[ff] = word.lane(lane);
                    }
                }
            }
        }

        self.good_state = good.state().to_vec();
        self.time += seq.len() as u32;
        self.n_detected - before
    }

    /// First detection time of a fault, if detected so far.
    pub fn detected_at(&self, f: FaultId) -> Option<u32> {
        self.detected_at[f.index()]
    }

    /// Whether a fault has been detected so far.
    pub fn is_detected(&self, f: FaultId) -> bool {
        self.detected_at[f.index()].is_some()
    }

    /// Number of faults detected so far (maintained incrementally, O(1)).
    pub fn detected_count(&self) -> usize {
        self.n_detected
    }

    /// Ids of faults not yet detected.
    pub fn undetected(&self) -> Vec<FaultId> {
        self.detected_at
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_none())
            .map(|(i, _)| FaultId::from_index(i))
            .collect()
    }

    /// A single-frame evaluator sharing this simulator's compiled circuit.
    pub fn frame_sim(&self) -> FrameSim<'a> {
        FrameSim::with_topology(self.circuit, Arc::clone(&self.topo))
    }

    /// The fault-free machine state after everything applied so far.
    pub fn good_state(&self) -> &[Logic] {
        &self.good_state
    }

    /// The machine state of an (undetected) fault's circuit.
    ///
    /// For detected faults the state is stale (frozen at detection).
    pub fn fault_state(&self, f: FaultId) -> &[Logic] {
        &self.fault_state[f.index()]
    }

    /// Total number of vectors applied so far.
    pub fn time(&self) -> u32 {
        self.time
    }

    /// Snapshot of detection times.
    pub fn report(&self) -> DetectionReport {
        DetectionReport {
            detected_at: self.detected_at.clone(),
            n_detected: self.n_detected,
        }
    }
}

/// Scalar simulation of a single fault over a sequence from the all-X
/// state, returning the first detection time if any.
///
/// Cheaper than [`SeqFaultSim`] when only one fault matters (the inner loop
/// of restoration-based compaction); stops at the first detection.
///
/// # Panics
///
/// Panics if the sequence width differs from the circuit's input count.
pub fn single_fault_detects(
    circuit: &Circuit,
    fault: limscan_fault::Fault,
    seq: &TestSequence,
) -> Option<u32> {
    let mut sim = SingleFaultSim::new(circuit, fault);
    for (t, v) in seq.iter().enumerate() {
        if sim.step(v) {
            return Some(t as u32);
        }
    }
    None
}

/// Scalar single-fault simulator: the stepwise form of
/// [`single_fault_detects`], with both machine states (fault-free and
/// faulty) readable after any step.
///
/// It evaluates both machines with the reference [`eval_comb`] /
/// [`eval_comb_with`](crate::eval_comb_with) / [`next_state`], so it is
/// the oracle for [`FrameSim::step_pair`], which restoration-based
/// compaction steps instead.
pub struct SingleFaultSim<'a> {
    circuit: &'a Circuit,
    fault: limscan_fault::Fault,
    good_state: Vec<Logic>,
    bad_state: Vec<Logic>,
    gv: Vec<Logic>,
    bv: Vec<Logic>,
}

impl<'a> SingleFaultSim<'a> {
    /// Creates a simulator at the all-X state.
    pub fn new(circuit: &'a Circuit, fault: limscan_fault::Fault) -> Self {
        SingleFaultSim {
            circuit,
            fault,
            good_state: vec![Logic::X; circuit.dffs().len()],
            bad_state: vec![Logic::X; circuit.dffs().len()],
            gv: vec![Logic::X; circuit.net_count()],
            bv: vec![Logic::X; circuit.net_count()],
        }
    }

    /// Applies one input vector to both machines; returns whether the
    /// fault is detected at this time unit (some primary output conflicts)
    /// and advances both states either way.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the circuit's input count.
    pub fn step(&mut self, inputs: &[Logic]) -> bool {
        assert_eq!(
            inputs.len(),
            self.circuit.inputs().len(),
            "vector width does not match circuit inputs"
        );
        load_sources(self.circuit, &mut self.gv, inputs, &self.good_state);
        eval_comb(self.circuit, &mut self.gv);
        load_sources(self.circuit, &mut self.bv, inputs, &self.bad_state);
        crate::good::eval_comb_with(self.circuit, &mut self.bv, Some(self.fault));
        let mut detected = false;
        for &o in self.circuit.outputs() {
            if self.gv[o.index()].conflicts(self.bv[o.index()]) {
                detected = true;
                break;
            }
        }
        self.good_state = next_state(self.circuit, &self.gv, None);
        self.bad_state = next_state(self.circuit, &self.bv, Some(self.fault));
        detected
    }

    /// The fault-free machine state after the last step.
    pub fn good_state(&self) -> &[Logic] {
        &self.good_state
    }

    /// The faulty machine state after the last step.
    pub fn bad_state(&self) -> &[Logic] {
        &self.bad_state
    }
}

/// What one batch hands to [`SeqFaultSim::merge_batch`]; the surviving
/// lanes' machine states travel beside it.
struct BatchDone {
    out: BatchOutcome<LANE_WORDS>,
    /// Kernel time in microseconds, 0 when unobserved.
    micros: u64,
    /// Whether the kernel panicked and the batch was replayed on the oracle.
    degraded: bool,
}

/// Runs one batch through the event-driven kernel, absorbing any panic,
/// and times it when `observed`. Its final states are left in
/// [`KernelScratch::final_states`].
///
/// On a panic — a kernel bug or an armed [`crate::fail_inject`] point — the
/// unwinding kernel has already discarded the per-thread scratch, and the
/// batch is replayed on [`reference_batch`], the dense oracle evaluation,
/// so a failure in the optimized path degrades to the slow path instead of
/// aborting the whole flow. The outcome is bit-identical either way because
/// the two engines are lane-exact equivalents (enforced by the differential
/// tests).
fn run_batch_isolated(
    ctx: &ExtendCtx<'_>,
    batch: &[FaultId],
    ks: &mut KernelScratch<LANE_WORDS>,
    t0: usize,
    t1: usize,
    observed: bool,
) -> BatchDone {
    let started = observed.then(std::time::Instant::now);
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        crate::fail_inject::panic_batch_point();
        run_batch(ctx, batch, ks, t0, t1)
    }));
    let (out, degraded) = match attempt {
        Ok(out) => (out, false),
        Err(_) => {
            // The stepper's drop discarded the scratch if the panic hit it
            // mid-run; size it again for the replay's final states.
            ks.ensure(ctx.circuit, ctx.topo);
            let out = reference_batch(ctx, batch, &mut ks.final_states, t0, t1);
            (out, true)
        }
    };
    BatchDone {
        out,
        micros: started.map_or(0, |s| s.elapsed().as_micros() as u64),
        degraded,
    }
}

/// Replays one batch on the dense oracle ([`DenseBatch`]) over the window
/// `[t0, t1)`, reading fault-free values from the shared trace. Detection
/// rule, early exit and timestamps are those of [`run_batch`], so a
/// panicked kernel batch is replayed without changing the final test set.
fn reference_batch<const W: usize>(
    ctx: &ExtendCtx<'_>,
    batch: &[FaultId],
    final_states: &mut [WideWord<W>],
    t0: usize,
    t1: usize,
) -> BatchOutcome<W> {
    let circuit = ctx.circuit;
    let mut dense = DenseBatch::<W>::new(circuit);
    dense.load(ctx.faults, batch);
    for (lane, &fid) in batch.iter().enumerate() {
        dense.set_state(lane, &ctx.fault_states[fid.index()]);
    }
    let mut out = BatchOutcome {
        detected: [0; W],
        times: vec![0; batch.len()],
    };
    for t in t0..t1 {
        let row = ctx.trace.row(t);
        let values =
            |nets: &[NetId]| -> Vec<Logic> { nets.iter().map(|n| row[n.index()]).collect() };
        for hits in dense.step(&values(circuit.inputs()), &values(circuit.outputs())) {
            let fresh = mask::and_not(hits, &out.detected);
            mask::for_each_set(&fresh, |lane| out.times[lane] = ctx.base_time + t as u32);
            mask::or_assign(&mut out.detected, &fresh);
        }
        if out.detected == dense.full_mask() {
            break;
        }
    }
    final_states.copy_from_slice(dense.state());
    out
}

pub(crate) fn load_sources(
    circuit: &Circuit,
    values: &mut [Logic],
    inputs: &[Logic],
    state: &[Logic],
) {
    values.fill(Logic::X);
    for (&pi, &v) in circuit.inputs().iter().zip(inputs) {
        values[pi.index()] = v;
    }
    for (&q, &v) in circuit.dffs().iter().zip(state) {
        values[q.index()] = v;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::good::eval_comb_with;
    use crate::parallel::LANES;
    use limscan_netlist::benchmarks;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = TestSequence::new(width);
        for _ in 0..len {
            seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
        }
        seq
    }

    /// Reference serial fault simulator: one fault at a time, scalar.
    fn serial_detect_times(
        circuit: &Circuit,
        faults: &FaultList,
        seq: &TestSequence,
    ) -> Vec<Option<u32>> {
        let mut out = Vec::new();
        for (_, fault) in faults.iter() {
            let mut good_state = vec![Logic::X; circuit.dffs().len()];
            let mut bad_state = good_state.clone();
            let mut det = None;
            let mut gv = vec![Logic::X; circuit.net_count()];
            let mut bv = vec![Logic::X; circuit.net_count()];
            for (t, v) in seq.iter().enumerate() {
                load_sources(circuit, &mut gv, v, &good_state);
                eval_comb(circuit, &mut gv);
                load_sources(circuit, &mut bv, v, &bad_state);
                eval_comb_with(circuit, &mut bv, Some(fault));
                if det.is_none() {
                    for &o in circuit.outputs() {
                        if gv[o.index()].conflicts(bv[o.index()]) {
                            det = Some(t as u32);
                            break;
                        }
                    }
                }
                good_state = next_state(circuit, &gv, None);
                bad_state = next_state(circuit, &bv, Some(fault));
                if det.is_some() {
                    break;
                }
            }
            out.push(det);
        }
        out
    }

    #[test]
    fn parallel_matches_serial_on_s27() {
        let c = benchmarks::s27();
        let faults = FaultList::full(&c);
        let seq = random_sequence(c.inputs().len(), 40, 11);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        let serial = serial_detect_times(&c, &faults, &seq);
        for (id, f) in faults.iter() {
            assert_eq!(
                report.detected_at(id),
                serial[id.index()],
                "fault {} disagrees",
                f.display_name(&c)
            );
        }
    }

    #[test]
    fn parallel_matches_serial_on_synthetic() {
        let spec = limscan_netlist::benchmarks::SyntheticSpec::new("psync", 4, 6, 50, 3);
        let c = limscan_netlist::benchmarks::synthetic(&spec);
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 30, 5);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        let serial = serial_detect_times(&c, &faults, &seq);
        for (id, f) in faults.iter() {
            assert_eq!(
                report.detected_at(id),
                serial[id.index()],
                "fault {} disagrees",
                f.display_name(&c)
            );
        }
    }

    /// A circuit with the gate kinds the benchmark generator never emits:
    /// constants, buffers and multiplexers.
    pub(crate) fn exotic_circuit() -> Circuit {
        use limscan_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("exotic");
        b.input("s");
        b.input("a");
        b.gate("k1", GateKind::Const1, &[]).unwrap();
        b.gate("k0", GateKind::Const0, &[]).unwrap();
        b.gate("buf", GateKind::Buf, &["a"]).unwrap();
        b.gate("m", GateKind::Mux, &["s", "buf", "k1"]).unwrap();
        b.gate("x", GateKind::Xnor, &["m", "k0"]).unwrap();
        b.dff("q", "x").unwrap();
        b.gate("y", GateKind::Xor, &["q", "m"]).unwrap();
        b.output("y");
        b.build().unwrap()
    }

    #[test]
    fn parallel_matches_serial_on_exotic_gates() {
        // Covers both sim paths on constants, buffers and multiplexers.
        let c = exotic_circuit();
        let faults = FaultList::full(&c);
        let seq = random_sequence(c.inputs().len(), 24, 17);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        let serial = serial_detect_times(&c, &faults, &seq);
        for (id, f) in faults.iter() {
            assert_eq!(
                report.detected_at(id),
                serial[id.index()],
                "fault {} disagrees",
                f.display_name(&c)
            );
        }
    }

    #[test]
    fn incremental_extend_equals_one_shot() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 24, 42);

        let oneshot = SeqFaultSim::run(&c, &faults, &seq);

        let mut sim = SeqFaultSim::new(&c, &faults);
        let a: TestSequence = seq.iter().take(7).map(<[Logic]>::to_vec).collect();
        let b: TestSequence = seq.iter().skip(7).take(9).map(<[Logic]>::to_vec).collect();
        let d: TestSequence = seq.iter().skip(16).map(<[Logic]>::to_vec).collect();
        sim.extend(&a);
        sim.extend(&b);
        sim.extend(&d);

        for id in faults.ids() {
            assert_eq!(sim.detected_at(id), oneshot.detected_at(id), "{id}");
        }
        assert_eq!(sim.time(), seq.len() as u32);
    }

    #[test]
    fn good_state_tracks_scalar_simulation() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 12, 9);
        let mut sim = SeqFaultSim::new(&c, &faults);
        sim.extend(&seq);
        let mut gs = crate::good::SeqGoodSim::new(&c);
        gs.run(&seq);
        assert_eq!(sim.good_state(), gs.state());
    }

    #[test]
    fn undetectable_without_vectors() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let sim = SeqFaultSim::new(&c, &faults);
        assert_eq!(sim.detected_count(), 0);
        assert_eq!(sim.undetected().len(), faults.len());
    }

    #[test]
    fn single_fault_sim_agrees_with_parallel() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 30, 77);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        for (id, fault) in faults.iter() {
            assert_eq!(
                single_fault_detects(&c, fault, &seq),
                report.detected_at(id),
                "fault {}",
                fault.display_name(&c)
            );
        }
    }

    /// Like [`random_sequence`] but with roughly 30% unspecified bits, so
    /// the engines are exercised on three-valued trajectories too.
    pub(crate) fn random_x_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = TestSequence::new(width);
        for _ in 0..len {
            seq.push(
                (0..width)
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            Logic::X
                        } else {
                            Logic::from_bool(rng.gen())
                        }
                    })
                    .collect(),
            );
        }
        seq
    }

    #[test]
    fn batch_boundary_at_65_faults_matches_scalar() {
        // 65 active faults split into a full batch of 64 plus a second
        // batch holding one fault; lane bookkeeping must survive the split.
        let spec = limscan_netlist::benchmarks::SyntheticSpec::new("b65", 5, 7, 60, 4);
        for c in [
            benchmarks::s27(),
            limscan_netlist::benchmarks::synthetic(&spec),
        ] {
            // Cycle the universe up to exactly 65 entries; duplicated
            // faults occupy independent lanes, which is precisely what the
            // boundary bookkeeping has to keep straight.
            let full = FaultList::full(&c);
            let faults = FaultList::from_faults(full.as_slice().iter().copied().cycle().take(65));
            let seq = random_sequence(c.inputs().len(), 30, 123);
            let report = SeqFaultSim::run(&c, &faults, &seq);
            for (id, fault) in faults.iter() {
                assert_eq!(
                    report.detected_at(id),
                    single_fault_detects(&c, fault, &seq),
                    "fault {} on {}",
                    fault.display_name(&c),
                    c.name()
                );
            }
        }
    }

    #[test]
    fn event_driven_engine_matches_the_dense_reference() {
        // The production engine must be bit-identical to the dense
        // reference engine: detection times, surviving machine states,
        // good state and counters, across incremental extensions and
        // X-heavy stimuli.
        let spec = limscan_netlist::benchmarks::SyntheticSpec::new("evref", 6, 9, 80, 5);
        let circuits = [
            benchmarks::s27(),
            limscan_netlist::benchmarks::synthetic(&spec),
            exotic_circuit(),
        ];
        for c in &circuits {
            let faults = FaultList::full(c);
            let first = random_x_sequence(c.inputs().len(), 20, 31);
            let second = random_x_sequence(c.inputs().len(), 20, 32);
            let mut event = SeqFaultSim::new(c, &faults);
            let mut reference = SeqFaultSim::new(c, &faults);
            for seq in [&first, &second] {
                let a = event.extend(seq);
                let b = reference.extend_reference(seq);
                assert_eq!(a, b, "newly detected counts on {}", c.name());
            }
            assert_eq!(event.report(), reference.report(), "{}", c.name());
            assert_eq!(event.good_state(), reference.good_state());
            assert_eq!(event.time(), reference.time());
            for id in faults.ids() {
                if !event.is_detected(id) {
                    assert_eq!(
                        event.fault_state(id),
                        reference.fault_state(id),
                        "state of fault {} on {}",
                        faults.fault(id).display_name(c),
                        c.name()
                    );
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // One thread, a fixed pool and the automatic default must produce
        // byte-identical reports and persisted fault states. The circuit is
        // sized so the multi-threaded runs genuinely take the parallel path.
        let c = benchmarks::load("s1423").expect("profile exists");
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 40, 7);
        // The first dropping slice alone must clear the threshold, or the
        // multi-threaded runs silently take the sequential path.
        assert!(
            DROP_SLICE.min(seq.len()) * c.gate_count() * faults.len().div_ceil(LANES) * LANE_WORDS
                >= crate::engine::PARALLEL_THRESHOLD,
            "test workload no longer reaches the parallel path"
        );
        let run_with = |threads: Option<usize>| {
            crate::set_sim_threads(threads);
            let mut sim = SeqFaultSim::new(&c, &faults);
            sim.extend(&seq);
            crate::set_sim_threads(None);
            let states: Vec<Vec<Logic>> = faults
                .ids()
                .map(|id| sim.fault_state(id).to_vec())
                .collect();
            (sim.report(), states, sim.good_state().to_vec())
        };
        let single = run_with(Some(1));
        let pooled = run_with(Some(4));
        let auto = run_with(None);
        assert_eq!(single, pooled, "1 thread vs fixed pool of 4");
        assert_eq!(single, auto, "1 thread vs automatic thread count");
    }

    #[test]
    fn thread_count_change_between_extends_on_reused_engine() {
        // Regression: a reused engine (`reset_with_state`) must stay
        // bit-identical to the dense reference when `set_sim_threads`
        // changes between `extend` calls — the sequential and parallel
        // paths hand over via `fault_state`/`good_state`, and a stale
        // carry-over would surface exactly here.
        let c = benchmarks::load("s1423").expect("profile exists");
        let faults = FaultList::collapsed(&c);
        let first = random_sequence(c.inputs().len(), 18, 21);
        let second = random_sequence(c.inputs().len(), 18, 22);
        let state = vec![Logic::Zero; c.dffs().len()];

        let mut sim = SeqFaultSim::new(&c, &faults);
        // Dirty the engine before the rewind so `reset_with_state` has
        // real state to clear.
        sim.extend(&first);
        sim.reset_with_state(&state);
        crate::set_sim_threads(Some(1));
        sim.extend(&first);
        crate::set_sim_threads(Some(4));
        sim.extend(&second);
        crate::set_sim_threads(None);

        let mut reference = SeqFaultSim::with_state(&c, &faults, &state);
        reference.extend_reference(&first);
        reference.extend_reference(&second);

        assert_eq!(sim.report(), reference.report());
        assert_eq!(sim.good_state(), reference.good_state());
        assert_eq!(sim.time(), reference.time());
        for id in faults.ids() {
            if !sim.is_detected(id) {
                assert_eq!(
                    sim.fault_state(id),
                    reference.fault_state(id),
                    "state of fault {} diverged after thread-count change",
                    faults.fault(id).display_name(&c)
                );
            }
        }
    }

    #[test]
    fn observed_extend_emits_consistent_metrics() {
        let (obs, collector) = ObsHandle::noop().with_collector();
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 25, 4);
        let mut sim = SeqFaultSim::new(&c, &faults);
        sim.set_obs(&obs);
        let newly = sim.extend(&seq);
        assert_eq!(
            collector.counter(Metric::VectorsSimulated),
            seq.len() as u64
        );
        assert_eq!(collector.counter(Metric::FaultsDetected), newly as u64);
        // The sequence fits in one dropping slice, so the batch count is
        // just the active universe split into wide batches.
        assert!(seq.len() <= DROP_SLICE, "expected a single dropping slice");
        assert_eq!(
            collector.counter(Metric::BatchesSimulated),
            faults.len().div_ceil(LANES) as u64
        );
        // The emitted detection-profile points must agree with the report.
        assert_eq!(
            collector.detection_profile(),
            sim.report().detection_profile()
        );
        assert!(collector.gauge_max(Metric::SimThreads) >= 1);
        assert!(collector.gauge_max(Metric::ScratchBytes) > 0);
    }

    #[test]
    fn report_aggregates() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 60, 2);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        assert_eq!(report.total(), faults.len());
        assert_eq!(
            report.detected_count() + report.undetected().len(),
            faults.len()
        );
        assert!(report.coverage_percent() > 10.0);
        let detected = report.detected();
        assert!(detected.iter().all(|&f| report.is_detected(f)));
    }

    #[test]
    fn reference_batch_fallback_matches_the_kernel() {
        // Drive the degraded path directly (no fail-inject needed): the
        // replay oracle must reproduce the kernel's outcome bit-for-bit,
        // including over a partial window (the dropping-slice case).
        let c = benchmarks::s27();
        let faults = FaultList::full(&c);
        let seq = random_sequence(c.inputs().len(), 20, 31);
        let sim = SeqFaultSim::new(&c, &faults);
        let active: Vec<FaultId> = faults.ids().collect();
        with_trace(|trace| {
            trace.fill(&c, &sim.topo, &seq, &sim.good_state);
            for (t0, t1) in [(0, seq.len()), (4, 17)] {
                for batch in active.chunks(LANES) {
                    let ctx = ExtendCtx {
                        circuit: &c,
                        topo: &sim.topo,
                        trace,
                        faults: &faults,
                        fault_states: &sim.fault_state,
                        base_time: 0,
                    };
                    let (kernel_out, kernel_states) = with_kernel(|ks| {
                        let out = run_batch(&ctx, batch, ks, t0, t1);
                        (out, ks.final_states.clone())
                    });
                    let mut ref_states = vec![WideWord::<LANE_WORDS>::ALL_X; c.dffs().len()];
                    let ref_out = reference_batch(&ctx, batch, &mut ref_states, t0, t1);
                    assert_eq!(kernel_out.detected, ref_out.detected, "window {t0}..{t1}");
                    for lane in 0..batch.len() {
                        if mask::test(&ref_out.detected, lane) {
                            assert_eq!(kernel_out.times[lane], ref_out.times[lane]);
                        } else {
                            for ff in 0..c.dffs().len() {
                                assert_eq!(
                                    kernel_states[ff].lane(lane),
                                    ref_states[ff].lane(lane),
                                    "state mismatch lane {lane} ff {ff}"
                                );
                            }
                        }
                    }
                }
            }
        });
    }
}
