//! The dense oracle: every gate of a fault batch at every time unit.
//!
//! [`DenseBatch`] simulates up to `64 * W` faults, one per lane, by walking
//! the circuit's own `comb_order()` with [`RefInjection`] forces. It shares
//! nothing with the flat kernel in [`crate::engine`] — no op stream, no
//! divergence tracking, no [`WideInjection`](crate::flat::WideInjection) —
//! which is what lets it judge that kernel. Three callers drive it, each
//! keeping only its own detection bookkeeping:
//!
//! * [`SeqFaultSim::extend_reference`](crate::SeqFaultSim::extend_reference),
//!   the behavioural reference of `extend`;
//! * the replay of a kernel batch that panicked
//!   (`fault_sim::reference_batch`);
//! * [`FaultDictionary::build`](crate::FaultDictionary::build), which
//!   records every failing output instead of the first detection.

use limscan_fault::{FaultId, FaultList, FaultSite, StuckAt};
use limscan_netlist::{Circuit, Driver, GateKind, NetId};

use crate::logic::Logic;
use crate::parallel::{mask, WideWord};

/// Stuck-at forces of one batch, fault `i` in lane `i`: stem forces per net
/// and branch forces per consuming gate or flip-flop pin.
pub(crate) struct RefInjection<const W: usize> {
    /// Per net: lanes forced to 0 / forced to 1 at the net's stem.
    stem: Vec<([u64; W], [u64; W])>,
    /// Per net: branch forces on this consumer's pins `(pin, sa0, sa1)`.
    #[allow(clippy::type_complexity)]
    pins: Vec<Vec<(u8, [u64; W], [u64; W])>>,
    /// Nets with an entry in `stem` or `pins`, cleared by the next load.
    touched: Vec<usize>,
}

impl<const W: usize> RefInjection<W> {
    /// An empty table for a circuit with `net_count` nets.
    pub(crate) fn new(net_count: usize) -> Self {
        RefInjection {
            stem: vec![([0; W], [0; W]); net_count],
            pins: vec![Vec::new(); net_count],
            touched: Vec::new(),
        }
    }

    /// Replaces the forces with those of `batch`.
    pub(crate) fn load(&mut self, faults: &FaultList, batch: &[FaultId]) {
        for &n in &self.touched {
            self.stem[n] = ([0; W], [0; W]);
            self.pins[n].clear();
        }
        self.touched.clear();
        for (lane, &fid) in batch.iter().enumerate() {
            let mut bit = [0u64; W];
            mask::set(&mut bit, lane);
            let fault = faults.fault(fid);
            let (sa0, sa1) = match fault.stuck {
                StuckAt::Zero => (bit, [0; W]),
                StuckAt::One => ([0; W], bit),
            };
            match fault.site {
                FaultSite::Stem(n) => {
                    let entry = &mut self.stem[n.index()];
                    mask::or_assign(&mut entry.0, &sa0);
                    mask::or_assign(&mut entry.1, &sa1);
                    self.touched.push(n.index());
                }
                FaultSite::Branch(pin) => {
                    self.pins[pin.net.index()].push((pin.pin, sa0, sa1));
                    self.touched.push(pin.net.index());
                }
            }
        }
    }

    /// `w` with the stem forces of `net` applied.
    #[inline]
    pub(crate) fn apply_stem(&self, net: NetId, w: WideWord<W>) -> WideWord<W> {
        let (sa0, sa1) = &self.stem[net.index()];
        w.force_zero(sa0).force_one(sa1)
    }

    /// `w` as seen by pin `pin` of `consumer`, with its branch forces
    /// applied.
    #[inline]
    pub(crate) fn apply_pin(&self, consumer: NetId, pin: u8, w: WideWord<W>) -> WideWord<W> {
        let mut w = w;
        for (p, sa0, sa1) in &self.pins[consumer.index()] {
            if *p == pin {
                w = w.force_zero(sa0).force_one(sa1);
            }
        }
        w
    }
}

/// The n-ary gate fold over `W`-word lanes, kept independent of the flat
/// kernel's binarized op stream.
pub(crate) fn eval_gate_word_w<const W: usize>(
    kind: GateKind,
    input: impl Fn(usize) -> WideWord<W>,
    n: usize,
) -> WideWord<W> {
    match kind {
        GateKind::And | GateKind::Nand => {
            let mut acc = WideWord::broadcast(Logic::One);
            for i in 0..n {
                acc = acc.and(input(i));
            }
            if kind == GateKind::Nand {
                acc.not()
            } else {
                acc
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut acc = WideWord::broadcast(Logic::Zero);
            for i in 0..n {
                acc = acc.or(input(i));
            }
            if kind == GateKind::Nor {
                acc.not()
            } else {
                acc
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = WideWord::broadcast(Logic::Zero);
            for i in 0..n {
                acc = acc.xor(input(i));
            }
            if kind == GateKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
        GateKind::Not => input(0).not(),
        GateKind::Buf => input(0),
        GateKind::Mux => input(0).mux(input(1), input(2)),
        GateKind::Const0 => WideWord::broadcast(Logic::Zero),
        GateKind::Const1 => WideWord::broadcast(Logic::One),
    }
}

/// One batch of ≤ `64 * W` faults stepped densely, a time unit at a time.
/// Its buffers are sized once per circuit and reused across batches.
pub(crate) struct DenseBatch<'c, const W: usize> {
    circuit: &'c Circuit,
    inj: RefInjection<W>,
    full_mask: [u64; W],
    /// Per net: the faulty word of the current time unit.
    words: Vec<WideWord<W>>,
    /// Per flip-flop: the present state, and the next one being latched.
    state: Vec<WideWord<W>>,
    next: Vec<WideWord<W>>,
    /// Per primary output: the conflicting lanes of the last step.
    hits: Vec<[u64; W]>,
}

impl<'c, const W: usize> DenseBatch<'c, W> {
    /// Empty buffers for `circuit`; [`load`](Self::load) a batch next.
    pub(crate) fn new(circuit: &'c Circuit) -> Self {
        let n_ff = circuit.dffs().len();
        DenseBatch {
            circuit,
            inj: RefInjection::new(circuit.net_count()),
            full_mask: [0; W],
            words: vec![WideWord::ALL_X; circuit.net_count()],
            state: vec![WideWord::ALL_X; n_ff],
            next: vec![WideWord::ALL_X; n_ff],
            hits: vec![[0; W]; circuit.outputs().len()],
        }
    }

    /// Starts `batch`, fault `i` in lane `i`, with every lane in the all-X
    /// state (see [`set_state`](Self::set_state)).
    pub(crate) fn load(&mut self, faults: &FaultList, batch: &[FaultId]) {
        self.inj.load(faults, batch);
        self.full_mask = mask::full::<W>(batch.len());
        self.state.fill(WideWord::ALL_X);
    }

    /// Lane mask covering exactly the batch's faults.
    pub(crate) fn full_mask(&self) -> [u64; W] {
        self.full_mask
    }

    /// Sets the machine state of lane `lane`.
    pub(crate) fn set_state(&mut self, lane: usize, state: &[Logic]) {
        for (word, &v) in self.state.iter_mut().zip(state) {
            word.set_lane(lane, v);
        }
    }

    /// Per flip-flop: every lane's machine state after the last step.
    pub(crate) fn state(&self) -> &[WideWord<W>] {
        &self.state
    }

    /// Simulates one time unit: loads the primary `inputs` and the lane
    /// states, evaluates every gate in `comb_order()`, compares the
    /// primary outputs against the fault-free `good_po`, and latches the
    /// next state through the D pins. Returns, per primary output, the
    /// batch lanes carrying the complement of a binary fault-free value
    /// (no lane where that value is X).
    pub(crate) fn step(&mut self, inputs: &[Logic], good_po: &[Logic]) -> &[[u64; W]] {
        let circuit = self.circuit;
        let inj = &self.inj;
        let words = &mut self.words;
        // Sources: primary inputs broadcast, states from the lanes, both
        // with their stem forces.
        for (&pi, &v) in circuit.inputs().iter().zip(inputs) {
            words[pi.index()] = inj.apply_stem(pi, WideWord::broadcast(v));
        }
        for (&q, &s) in circuit.dffs().iter().zip(&self.state) {
            words[q.index()] = inj.apply_stem(q, s);
        }
        // Gates in topological order: branch forces on the pins, then the
        // stem force on the output.
        for &id in circuit.comb_order() {
            let Driver::Gate { kind, fanins } = circuit.net(id).driver() else {
                unreachable!("comb_order contains only gates");
            };
            let input = |i: usize| inj.apply_pin(id, i as u8, words[fanins[i].index()]);
            let out = eval_gate_word_w(*kind, input, fanins.len());
            words[id.index()] = inj.apply_stem(id, out);
        }
        for ((hit, &o), &good) in self.hits.iter_mut().zip(circuit.outputs()).zip(good_po) {
            *hit = if good.is_binary() {
                let c = words[o.index()].conflict_mask(&WideWord::broadcast(good));
                mask::and(&c, &self.full_mask)
            } else {
                [0; W]
            };
        }
        // Next state, honouring branch faults on flip-flop D pins.
        for (next, &q) in self.next.iter_mut().zip(circuit.dffs()) {
            let Driver::Dff { d } = circuit.net(q).driver() else {
                unreachable!("dffs() contains only flip-flops");
            };
            *next = inj.apply_pin(q, 0, words[d.index()]);
        }
        std::mem::swap(&mut self.state, &mut self.next);
        &self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::tests::random_sequence;
    use crate::fault_sim::{single_fault_detects, SeqFaultSim};

    #[test]
    fn injection_table_forces_branch_pins_only() {
        use limscan_fault::Fault;
        use limscan_netlist::{CircuitBuilder, Pin};
        // `a` feeds both an AND (pin 1) and an OR; a branch fault on the
        // AND's pin must not leak to the OR, to the AND's other pin, or to
        // `a`'s stem.
        let mut b = CircuitBuilder::new("branchy");
        b.input("a");
        b.input("b");
        b.gate("g_and", GateKind::And, &["b", "a"]).unwrap();
        b.gate("g_or", GateKind::Or, &["a", "b"]).unwrap();
        b.output("g_and");
        b.output("g_or");
        let c = b.build().unwrap();
        let a = c.find_net("a").unwrap();
        let g_and = c.find_net("g_and").unwrap();
        let g_or = c.find_net("g_or").unwrap();

        let faults =
            FaultList::from_faults([Fault::branch(Pin { net: g_and, pin: 1 }, StuckAt::One)]);
        let batch: Vec<FaultId> = faults.ids().collect();
        let mut inj = RefInjection::<1>::new(c.net_count());
        inj.load(&faults, &batch);

        let zero = WideWord::<1>::broadcast(Logic::Zero);
        let forced = inj.apply_pin(g_and, 1, zero);
        assert_eq!(forced.lane(0), Logic::One, "faulted pin, faulted lane");
        assert_eq!(forced.lane(1), Logic::Zero, "faulted pin, other lane");
        assert_eq!(inj.apply_pin(g_and, 0, zero), zero, "other pin");
        assert_eq!(inj.apply_pin(g_or, 0, zero), zero, "other consumer");
        assert_eq!(inj.apply_stem(a, zero), zero, "stem unaffected");

        // Reloading clears the previous batch's forces.
        inj.load(&faults, &[]);
        assert_eq!(inj.apply_pin(g_and, 1, zero), zero, "cleared by reload");

        // End-to-end: the branch fault behaves exactly like its scalar
        // reference on the full simulator.
        let seq = random_sequence(c.inputs().len(), 16, 3);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        for (id, fault) in faults.iter() {
            assert_eq!(
                report.detected_at(id),
                single_fault_detects(&c, fault, &seq)
            );
        }
    }
}
