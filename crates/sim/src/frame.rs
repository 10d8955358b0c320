//! One combinational time frame, 64 machines per sweep.
//!
//! [`FrameSim`] evaluates a frame — primary inputs and present state in,
//! every net and the next state out — as one dense sweep of the compiled
//! op stream over [`WideWord<1>`] words. Each of the 64 lanes is an
//! independent machine with its own source values. A stuck-at fault is
//! injected into a chosen set of lanes through the same source forces and
//! op patches the fault simulator uses, so a faulty lane computes exactly
//! what [`eval_comb_with`](crate::eval_comb_with) computes and a
//! fault-free lane what [`eval_comb`](crate::eval_comb) computes.
//! Flip-flop D-pin branch faults act only at the state transfer, as in
//! [`next_state`](crate::next_state): net values never see them, and
//! [`FrameSim::next_state`] applies them.
//!
//! Test generation uses the frame to imply a good and a faulty machine
//! side by side, and to score many candidate vectors in one sweep.
//! [`FrameSim::step_pair`] advances one (fault-free, faulty) state pair by
//! a vector and reports detection, the step of test generation's forward
//! search and of restoration's single-fault probes.

use std::sync::Arc;

use limscan_fault::Fault;
use limscan_netlist::{Circuit, NetId};

use crate::engine::sweep_ops;
use crate::flat::{Topology, WideInjection};
use crate::logic::Logic;
use crate::parallel::WideWord;

/// A compiled single-frame evaluator over 64 lanes.
///
/// Sources keep their values between sweeps. After
/// [`inject`](Self::inject), set every primary input and flip-flop before
/// the next [`eval`](Self::eval): a source's stuck-at force is applied when
/// it is set.
///
/// # Example
///
/// ```
/// use limscan_fault::{Fault, StuckAt};
/// use limscan_netlist::benchmarks;
/// use limscan_sim::{FrameSim, Logic, WideWord};
///
/// let c = benchmarks::s27();
/// let mut frame = FrameSim::new(&c);
/// // Lane 0 fault-free, lane 1 with G0 stuck-at-0.
/// let g0 = c.find_net("G0").unwrap();
/// frame.inject(Some(Fault::stem(g0, StuckAt::Zero)), 0b10);
/// for pos in 0..c.inputs().len() {
///     frame.set_input(pos, WideWord::broadcast(Logic::One));
/// }
/// for ff in 0..c.dffs().len() {
///     frame.set_state(ff, WideWord::broadcast(Logic::Zero));
/// }
/// frame.eval();
/// assert_eq!(frame.net(g0).lane(0), Logic::One);
/// assert_eq!(frame.net(g0).lane(1), Logic::Zero);
/// ```
pub struct FrameSim<'a> {
    circuit: &'a Circuit,
    topo: Arc<Topology>,
    frame: Frame,
}

impl<'a> FrameSim<'a> {
    /// Compiles `circuit` and creates an evaluator with every lane
    /// fault-free and every value X.
    pub fn new(circuit: &'a Circuit) -> Self {
        FrameSim::with_topology(circuit, Arc::new(Topology::build(circuit)))
    }

    /// An evaluator over an already compiled topology of `circuit`.
    pub(crate) fn with_topology(circuit: &'a Circuit, topo: Arc<Topology>) -> Self {
        let frame = Frame::new(circuit, &topo);
        FrameSim {
            circuit,
            topo,
            frame,
        }
    }

    /// The circuit this evaluator was compiled from.
    pub fn circuit(&self) -> &'a Circuit {
        self.circuit
    }

    /// Injects `fault` into the lanes set in `lanes` and makes every other
    /// lane fault-free, replacing the previous injection. `None` makes
    /// every lane fault-free.
    pub fn inject(&mut self, fault: Option<Fault>, lanes: u64) {
        self.frame.inject(self.circuit, &self.topo, fault, lanes);
    }

    /// Sets primary input `pos` (declaration order) in every lane.
    #[inline]
    pub fn set_input(&mut self, pos: usize, w: WideWord<1>) {
        self.frame.set_input(&self.topo, pos, w);
    }

    /// Sets the present state of flip-flop `ff` (chain order) in every
    /// lane.
    #[inline]
    pub fn set_state(&mut self, ff: usize, w: WideWord<1>) {
        self.frame.set_state(&self.topo, ff, w);
    }

    /// Evaluates every gate of the frame from the current source values.
    pub fn eval(&mut self) {
        self.frame.eval(&self.topo);
    }

    /// The value of `net` after the last [`eval`](Self::eval).
    #[inline]
    pub fn net(&self, net: NetId) -> WideWord<1> {
        self.frame.vals[net.index()]
    }

    /// Every net's value after the last [`eval`](Self::eval), indexed by
    /// [`NetId::index`].
    #[inline]
    pub fn nets(&self) -> &[WideWord<1>] {
        &self.frame.vals[..self.circuit.net_count()]
    }

    /// The next state of flip-flop `ff`: its D net's value, with an
    /// injected D-pin branch fault applied.
    #[inline]
    pub fn next_state(&self, ff: usize) -> WideWord<1> {
        self.frame.next_state(&self.topo, ff)
    }

    /// Applies `inputs` to a fault-free machine in lane 0, starting from
    /// state `good`, and to a faulty machine in lane 1, starting from
    /// `bad`, and advances both states in place. Returns whether some
    /// primary output is binary in lane 0 and the complement in lane 1:
    /// the verdict of [`SingleFaultSim::step`](crate::SingleFaultSim::step).
    ///
    /// The fault must be injected into lane 1 and not lane 0 (for example
    /// `inject(Some(fault), 0b10)`). The other lanes start from the all-X
    /// state.
    pub fn step_pair(&mut self, inputs: &[Logic], good: &mut [Logic], bad: &mut [Logic]) -> bool {
        self.frame.step_pair(&self.topo, inputs, good, bad)
    }
}

/// What a frame evaluator owns: the fault injection and the value slots.
/// It borrows nothing — every call takes the [`Topology`] it was sized
/// for — so a thread can keep one between uses, as the omission trials'
/// fault probe does (`crate::checkpoint`). [`FrameSim`] is one of these
/// plus its circuit and topology.
pub(crate) struct Frame {
    inj: WideInjection<1>,
    /// Value slots: nets first, then the op stream's shared scratch.
    vals: Vec<WideWord<1>>,
}

impl Frame {
    /// An evaluator for `topo`, compiled from `circuit`, with every lane
    /// fault-free and every value X.
    pub(crate) fn new(circuit: &Circuit, topo: &Topology) -> Self {
        Frame {
            inj: WideInjection::new(
                circuit.net_count(),
                topo.ops.len(),
                circuit.comb_order().len(),
                circuit.dffs().len(),
            ),
            vals: vec![WideWord::ALL_X; topo.n_slots],
        }
    }

    /// See [`FrameSim::inject`].
    pub(crate) fn inject(
        &mut self,
        circuit: &Circuit,
        topo: &Topology,
        fault: Option<Fault>,
        lanes: u64,
    ) {
        self.inj.load_fault(circuit, topo, fault, &[lanes]);
    }

    #[inline]
    fn set_input(&mut self, topo: &Topology, pos: usize, w: WideWord<1>) {
        let net = topo.pi[pos] as usize;
        self.vals[net] = self.inj.force_src(net, w);
    }

    #[inline]
    fn set_state(&mut self, topo: &Topology, ff: usize, w: WideWord<1>) {
        let net = topo.dff_q[ff] as usize;
        self.vals[net] = self.inj.force_src(net, w);
    }

    #[inline]
    fn eval(&mut self, topo: &Topology) {
        let ops = &topo.ops;
        sweep_ops(ops, &mut self.vals, &self.inj, 0, ops.len() as u32);
    }

    #[inline]
    fn next_state(&self, topo: &Topology, ff: usize) -> WideWord<1> {
        let d = topo.dff_d[ff] as usize;
        self.inj.force_ff(ff, self.vals[d])
    }

    /// See [`FrameSim::step_pair`].
    pub(crate) fn step_pair(
        &mut self,
        topo: &Topology,
        inputs: &[Logic],
        good: &mut [Logic],
        bad: &mut [Logic],
    ) -> bool {
        for (pos, &v) in inputs.iter().enumerate() {
            self.set_input(topo, pos, WideWord::broadcast(v));
        }
        for (ff, (&g, &b)) in good.iter().zip(bad.iter()).enumerate() {
            let (g, b) = (WideWord::<1>::broadcast(g), WideWord::<1>::broadcast(b));
            let pair = WideWord {
                v0: [(g.v0[0] & 0b01) | (b.v0[0] & 0b10)],
                v1: [(g.v1[0] & 0b01) | (b.v1[0] & 0b10)],
            };
            self.set_state(topo, ff, pair);
        }
        self.eval(topo);
        let detected = topo.po.iter().any(|&o| {
            let w = self.vals[o as usize];
            w.lane(0).conflicts(w.lane(1))
        });
        for (ff, (g, b)) in good.iter_mut().zip(bad.iter_mut()).enumerate() {
            let w = self.next_state(topo, ff);
            *g = w.lane(0);
            *b = w.lane(1);
        }
        detected
    }
}
