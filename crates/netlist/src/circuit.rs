//! The immutable, validated circuit data model.

use std::fmt;

/// Location of a declaration in `.bench` source text: a 1-based line
/// number, or [`Span::NONE`] for nets created programmatically (through
/// [`CircuitBuilder`](crate::CircuitBuilder) without an explicit span).
///
/// Spans are diagnostic metadata: they are carried by [`Circuit`] so that
/// tools such as the `limscan-lint` rule engine can point back at the
/// source line of an offending net, but they do **not** participate in
/// circuit equality.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Span(u32);

impl Span {
    /// The absent span, used for synthesized nets.
    pub const NONE: Span = Span(0);

    /// A span pointing at the given 1-based source line.
    ///
    /// Line 0 is reserved for [`Span::NONE`].
    pub fn at_line(line: usize) -> Self {
        Span(u32::try_from(line).unwrap_or(u32::MAX))
    }

    /// The 1-based source line, or `None` for [`Span::NONE`].
    pub fn line(self) -> Option<usize> {
        (self.0 != 0).then_some(self.0 as usize)
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line() {
            Some(line) => write!(f, "line {line}"),
            None => f.write_str("<no source>"),
        }
    }
}

/// Identifier of a net (signal) inside a [`Circuit`].
///
/// A `NetId` is a dense index into the circuit's net table, which makes it
/// directly usable as an index into per-net simulation arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Returns the dense index of this net.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a `NetId` from a dense index.
    ///
    /// Intended for tooling that stores net ids in external tables; an id
    /// that does not correspond to a net in the circuit it is used with will
    /// cause a panic on lookup, not undefined behaviour.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NetId(index as u32)
    }
}

impl fmt::Debug for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Combinational gate types supported by the netlist.
///
/// `Mux` is a 2-to-1 multiplexer with fanin order `[select, d0, d1]`: the
/// output equals `d0` when `select = 0` and `d1` when `select = 1`. It is
/// used by scan insertion, which places one in front of every flip-flop.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GateKind {
    /// Logical AND of all fanins.
    And,
    /// Inverted AND.
    Nand,
    /// Logical OR of all fanins.
    Or,
    /// Inverted OR.
    Nor,
    /// Exclusive OR of all fanins (odd parity).
    Xor,
    /// Inverted XOR (even parity).
    Xnor,
    /// Inverter (exactly one fanin).
    Not,
    /// Buffer (exactly one fanin).
    Buf,
    /// 2-to-1 multiplexer; fanins `[select, d0, d1]`.
    Mux,
    /// Constant logic 0 (no fanins).
    Const0,
    /// Constant logic 1 (no fanins).
    Const1,
}

impl GateKind {
    /// The exact number of fanins this gate kind requires, or `None` when
    /// the gate accepts any count of two or more.
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Not | GateKind::Buf => Some(1),
            GateKind::Mux => Some(3),
            GateKind::Const0 | GateKind::Const1 => Some(0),
            _ => None,
        }
    }

    /// Whether the gate output inverts its "controlled" value (NAND, NOR,
    /// XNOR, NOT).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Xnor | GateKind::Not
        )
    }

    /// The canonical `.bench` mnemonic for this gate kind.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUFF",
            GateKind::Mux => "MUX",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// What drives a net.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Driver {
    /// The net is a primary input.
    Input,
    /// The net is the output of a combinational gate.
    Gate {
        /// The gate function.
        kind: GateKind,
        /// Fanin nets, in pin order.
        fanins: Vec<NetId>,
    },
    /// The net is the output (Q) of a D flip-flop.
    Dff {
        /// The net feeding the flip-flop's D input.
        d: NetId,
    },
}

impl Driver {
    /// Fanin nets of this driver, in pin order (empty for primary inputs).
    pub fn fanins(&self) -> &[NetId] {
        match self {
            Driver::Input => &[],
            Driver::Gate { fanins, .. } => fanins,
            Driver::Dff { d } => std::slice::from_ref(d),
        }
    }
}

/// A named net together with its driver.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Net {
    pub(crate) name: String,
    pub(crate) driver: Driver,
}

impl Net {
    /// The net's name as given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net's driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }
}

/// A fanin pin: `net` is the driven (consumer) net, `pin` the fanin index
/// within that net's driver. For a net driven by a DFF the D input is pin 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pin {
    /// The consuming net (a gate output or DFF output).
    pub net: NetId,
    /// Zero-based fanin index within the consumer's driver.
    pub pin: u8,
}

/// An immutable, validated gate-level sequential circuit.
///
/// A circuit is a set of named nets, each driven exactly once by a primary
/// input, a combinational gate, or a D flip-flop. Primary outputs are
/// observations of existing nets. Construction goes through
/// [`CircuitBuilder`](crate::CircuitBuilder) or the `.bench` parser, both of
/// which validate connectivity and reject combinational cycles.
///
/// # Example
///
/// ```
/// use limscan_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), limscan_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("toy");
/// b.input("a");
/// b.input("b");
/// b.gate("y", GateKind::And, &["a", "b"])?;
/// b.output("y");
/// let c = b.build()?;
/// assert_eq!(c.net_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    pub(crate) dffs: Vec<NetId>,
    /// For each net, the pins it fans out to (consumers).
    pub(crate) fanouts: Vec<Vec<Pin>>,
    /// Nets driven by combinational gates, in topological (level) order.
    pub(crate) comb_order: Vec<NetId>,
    /// Source span of each net's declaration ([`Span::NONE`] when built
    /// programmatically). Diagnostic metadata, excluded from equality.
    pub(crate) spans: Vec<Span>,
    /// Per net: its index in `inputs`, `comb_order` or `dffs`, whichever
    /// lists it.
    pub(crate) position: Vec<u32>,
    /// Per net: whether it is a primary output.
    pub(crate) output_flag: Vec<bool>,
    /// Per net: logic level (see [`Circuit::level`]).
    pub(crate) level: Vec<u32>,
    /// The maximum of `level`.
    pub(crate) depth: u32,
}

/// Equality compares the logical circuit — name, nets, port lists — and
/// deliberately ignores source [`Span`]s, so a circuit written out with
/// [`bench_format::write`](crate::bench_format::write) and re-parsed (with
/// different line numbers) still compares equal. `fanouts`, `comb_order`
/// and the per-net index (positions, output flags, levels) are functions
/// of the nets and port lists and need no separate comparison.
impl PartialEq for Circuit {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nets == other.nets
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.dffs == other.dffs
    }
}

impl Eq for Circuit {}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets (primary inputs + gate outputs + flip-flop outputs).
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// All nets, indexable by [`NetId::index`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Flip-flop output (Q) nets, in declaration order. This order defines
    /// the scan chain order used by scan insertion.
    pub fn dffs(&self) -> &[NetId] {
        &self.dffs
    }

    /// The pins consuming the given net.
    pub fn fanouts(&self, id: NetId) -> &[Pin] {
        &self.fanouts[id.index()]
    }

    /// Nets driven by combinational gates, topologically ordered so that
    /// every net appears after all its fanins (treating primary inputs and
    /// flip-flop outputs as sources). Evaluating gates in this order yields
    /// a correct single-pass combinational evaluation.
    pub fn comb_order(&self) -> &[NetId] {
        &self.comb_order
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Whether the given net is observed as a primary output.
    pub fn is_output(&self, id: NetId) -> bool {
        self.output_flag[id.index()]
    }

    /// The net's index in the list of its kind: [`inputs`](Self::inputs)
    /// for a primary input, [`comb_order`](Self::comb_order) for a gate and
    /// [`dffs`](Self::dffs) for a flip-flop output.
    pub fn position(&self, id: NetId) -> usize {
        self.position[id.index()] as usize
    }

    /// The position of `id` in [`comb_order`](Self::comb_order), if it is
    /// gate-driven.
    pub fn comb_position(&self, id: NetId) -> Option<usize> {
        matches!(self.nets[id.index()].driver, Driver::Gate { .. }).then(|| self.position(id))
    }

    /// The position of `id` in the flip-flop list, if it is a DFF output.
    pub fn dff_position(&self, id: NetId) -> Option<usize> {
        matches!(self.nets[id.index()].driver, Driver::Dff { .. }).then(|| self.position(id))
    }

    /// The net's logic level: 0 for primary inputs and flip-flop outputs,
    /// and for a gate one more than its deepest fanin (a constant gate,
    /// with no fanins, is at level 1). Levels are distance estimates for
    /// testability analysis and ATPG guidance.
    pub fn level(&self, id: NetId) -> u32 {
        self.level[id.index()]
    }

    /// The combinational depth: the highest gate level, 0 without gates.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total number of combinational gates.
    pub fn gate_count(&self) -> usize {
        self.comb_order.len()
    }

    /// The source span of the net's declaration ([`Span::NONE`] for nets
    /// created programmatically).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn span(&self, id: NetId) -> Span {
        self.spans[id.index()]
    }

    /// For each net, whether its value can reach an observation point — a
    /// primary output or a flip-flop D input — through combinational logic.
    ///
    /// Gate-driven nets for which this is `false` are dangling: their value
    /// can never influence anything a tester (or the next time frame) sees.
    pub fn observation_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.nets.len()];
        let mut stack: Vec<NetId> = Vec::new();
        let mut seed = |id: NetId, stack: &mut Vec<NetId>| {
            if !mask[id.index()] {
                mask[id.index()] = true;
                stack.push(id);
            }
        };
        for &po in &self.outputs {
            seed(po, &mut stack);
        }
        for &q in &self.dffs {
            let Driver::Dff { d } = &self.nets[q.index()].driver else {
                unreachable!("dffs holds flip-flop outputs");
            };
            seed(*d, &mut stack);
        }
        // Walk fanins, but only across combinational gates: crossing a
        // flip-flop backwards would claim its Q observable merely because
        // its D cone is.
        while let Some(id) = stack.pop() {
            if let Driver::Gate { fanins, .. } = &self.nets[id.index()].driver {
                for &f in fanins {
                    if !mask[f.index()] {
                        mask[f.index()] = true;
                        stack.push(f);
                    }
                }
            }
        }
        mask
    }

    /// For each net, whether it is reachable from some primary input,
    /// through any number of gates and flip-flops (that is, across time
    /// frames).
    ///
    /// A flip-flop for which this is `false` can never be influenced by the
    /// primary inputs: without scan access its state is a perpetual X
    /// source.
    pub fn input_reach_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.nets.len()];
        let mut stack: Vec<NetId> = Vec::new();
        for &pi in &self.inputs {
            mask[pi.index()] = true;
            stack.push(pi);
        }
        while let Some(id) = stack.pop() {
            for pin in &self.fanouts[id.index()] {
                if !mask[pin.net.index()] {
                    mask[pin.net.index()] = true;
                    stack.push(pin.net);
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn tiny() -> Circuit {
        let mut b = CircuitBuilder::new("tiny");
        b.input("a");
        b.input("b");
        b.gate("g", GateKind::Nand, &["a", "b"]).unwrap();
        b.dff("q", "g").unwrap();
        b.gate("y", GateKind::Xor, &["q", "a"]).unwrap();
        b.output("y");
        b.build().unwrap()
    }

    #[test]
    fn net_lookup_roundtrip() {
        let c = tiny();
        for (i, n) in c.nets().iter().enumerate() {
            let id = c.find_net(n.name()).unwrap();
            assert_eq!(id.index(), i);
            assert_eq!(c.net(id).name(), n.name());
        }
    }

    #[test]
    fn comb_order_respects_dependencies() {
        let c = tiny();
        for (pos, &n) in c.comb_order().iter().enumerate() {
            assert_eq!(c.comb_position(n), Some(pos));
            for &f in c.net(n).driver().fanins() {
                if let Some(fp) = c.comb_position(f) {
                    assert!(fp < pos, "fanin {f} after gate {n}");
                }
            }
        }
    }

    #[test]
    fn fanouts_are_consistent_with_drivers() {
        let c = tiny();
        for id in (0..c.net_count()).map(NetId::from_index) {
            for pin in c.fanouts(id) {
                let fanins = c.net(pin.net).driver().fanins();
                assert_eq!(fanins[pin.pin as usize], id);
            }
        }
    }

    #[test]
    fn dff_position_matches_declaration_order() {
        let c = tiny();
        let q = c.find_net("q").unwrap();
        assert_eq!(c.dff_position(q), Some(0));
        assert_eq!(c.dff_position(c.find_net("a").unwrap()), None);
    }

    #[test]
    fn spans_default_to_none_and_are_ignored_by_equality() {
        let c = tiny();
        for i in 0..c.net_count() {
            assert_eq!(c.span(NetId::from_index(i)), Span::NONE);
        }
        let mut with_spans = c.clone();
        with_spans.spans[0] = Span::at_line(7);
        assert_eq!(c, with_spans, "spans are metadata, not identity");
        assert_eq!(Span::at_line(7).line(), Some(7));
        assert_eq!(Span::NONE.line(), None);
        assert_eq!(Span::at_line(7).to_string(), "line 7");
    }

    #[test]
    fn observation_mask_spots_dangling_gates() {
        let mut b = CircuitBuilder::new("dangle");
        b.input("a");
        b.gate("y", GateKind::Not, &["a"]).unwrap();
        b.gate("dead", GateKind::Not, &["a"]).unwrap();
        b.gate("deader", GateKind::Not, &["dead"]).unwrap();
        b.dff("q", "a").unwrap();
        b.output("y");
        let c = b.build().unwrap();
        let mask = c.observation_mask();
        assert!(mask[c.find_net("y").unwrap().index()]);
        assert!(mask[c.find_net("a").unwrap().index()], "feeds y and q");
        assert!(!mask[c.find_net("dead").unwrap().index()]);
        assert!(!mask[c.find_net("deader").unwrap().index()]);
        // Q observes nothing combinationally here.
        assert!(!mask[c.find_net("q").unwrap().index()]);
    }

    #[test]
    fn input_reach_mask_crosses_flip_flops() {
        let mut b = CircuitBuilder::new("reach");
        b.input("a");
        b.dff("q1", "a").unwrap();
        b.dff("q2", "q1").unwrap();
        // A flip-flop loop never touched by any input.
        b.dff("iso", "isod").unwrap();
        b.gate("isod", GateKind::Not, &["iso"]).unwrap();
        b.gate("y", GateKind::And, &["q2", "isod"]).unwrap();
        b.output("y");
        let c = b.build().unwrap();
        let mask = c.input_reach_mask();
        assert!(mask[c.find_net("q2").unwrap().index()], "two frames deep");
        assert!(!mask[c.find_net("iso").unwrap().index()], "isolated state");
        assert!(!mask[c.find_net("isod").unwrap().index()]);
        assert!(mask[c.find_net("y").unwrap().index()]);
    }

    #[test]
    fn gate_kind_arity_and_mnemonics() {
        assert_eq!(GateKind::Not.arity(), Some(1));
        assert_eq!(GateKind::Mux.arity(), Some(3));
        assert_eq!(GateKind::And.arity(), None);
        assert_eq!(GateKind::Const1.arity(), Some(0));
        assert_eq!(GateKind::Nand.mnemonic(), "NAND");
        assert!(GateKind::Nor.is_inverting());
        assert!(!GateKind::Or.is_inverting());
    }
}
