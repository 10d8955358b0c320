//! Static implication engine over a single time frame.
//!
//! The engine treats primary inputs **and flip-flop outputs** as free
//! variables (implications never cross a flip-flop in either direction), so
//! every derived fact holds in *every* reachable or unreachable frame — the
//! same notion of a frame the exhaustive `prove_frame` oracle enumerates.
//!
//! Three mechanisms build on one three-valued constraint propagator:
//!
//! * **direct implications** — assigning `net = v` propagates forward
//!   (gate evaluation) and backward (forced fanins) to a fixpoint;
//! * **learning** — every net is probed at both polarities; the implied
//!   literals are recorded as a static implication graph together with
//!   their contrapositives (`n=v ⇒ m=w` yields `m=¬w ⇒ n=¬v`), and a
//!   second probing round re-runs with the learned graph active so
//!   indirect implications (reachable only through a contrapositive)
//!   are discovered and recorded too;
//! * **constant nets** — a probe `net = v` that ends in contradiction
//!   proves `net = ¬v` in every frame; the closure of the constant is
//!   committed to the base state all later probes start from.
//!
//! Everything recorded is a sound consequence of the gate equations, which
//! is what the untestability pass (and its machine-checkable reasons)
//! relies on.

use limscan_netlist::{Circuit, Driver, GateKind, NetId};

/// Three-valued signal in the implication lattice.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tri {
    Zero,
    One,
    X,
}

impl Tri {
    fn from_bool(b: bool) -> Self {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    fn to_bool(self) -> Option<bool> {
        match self {
            Tri::Zero => Some(false),
            Tri::One => Some(true),
            Tri::X => None,
        }
    }
}

/// Per-literal cap on recorded implication edges. Propagation (and thus
/// contradiction detection) is never truncated — the cap only bounds the
/// stored graph so huge circuits stay in linear memory.
const LEARN_CAP: usize = 64;

fn lit(net: usize, value: bool) -> usize {
    2 * net + usize::from(value)
}

/// The static implication engine for one circuit.
///
/// Probes mutate internal scratch, hence the `&mut self` on query methods;
/// results are deterministic and independent of past queries.
pub struct ImplicationEngine<'c> {
    circuit: &'c Circuit,
    /// Proven per-frame constants (the base state every probe starts from).
    constants: Vec<Tri>,
    /// Implication graph: literal index -> implied literal indices.
    learned: Vec<Vec<u32>>,
    edges: usize,
    // Probe scratch.
    val: Vec<Tri>,
    trail: Vec<u32>,
    work: Vec<u32>,
}

impl<'c> ImplicationEngine<'c> {
    /// Builds the engine: seeds constant gates, runs the direct probing
    /// round, then one indirect round with the learned graph active.
    pub fn build(circuit: &'c Circuit) -> Self {
        let n = circuit.net_count();
        let mut eng = ImplicationEngine {
            circuit,
            constants: vec![Tri::X; n],
            learned: vec![Vec::new(); 2 * n],
            edges: 0,
            val: vec![Tri::X; n],
            trail: Vec::new(),
            work: Vec::new(),
        };
        // Structural constants first so every probe sees them.
        for i in 0..n {
            let v = match circuit.net(NetId::from_index(i)).driver() {
                Driver::Gate { kind, .. } => match kind {
                    GateKind::Const0 => Some(false),
                    GateKind::Const1 => Some(true),
                    _ => None,
                },
                _ => None,
            };
            if let Some(v) = v {
                eng.commit_constant(NetId::from_index(i), v);
            }
        }
        for _round in 0..2 {
            eng.learning_round();
        }
        eng
    }

    /// The proven constant value of `id`, if any.
    pub fn constant(&self, id: NetId) -> Option<bool> {
        self.constants[id.index()].to_bool()
    }

    /// All proven constant nets with their values, in net-id order.
    pub fn constants(&self) -> Vec<(NetId, bool)> {
        self.constants
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.to_bool().map(|b| (NetId::from_index(i), b)))
            .collect()
    }

    /// Recorded implication edges (direct, indirect, and contrapositive).
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The recorded implications of `id = value`, as `(net, value)` pairs.
    pub fn implications_of(&self, id: NetId, value: bool) -> Vec<(NetId, bool)> {
        self.learned[lit(id.index(), value)]
            .iter()
            .map(|&l| (NetId::from_index(l as usize / 2), l % 2 == 1))
            .collect()
    }

    /// Whether the assumptions admit any single-frame assignment the engine
    /// cannot refute. `false` means *proven* unsatisfiable; `true` means
    /// "not refuted" (the engine is incomplete in that direction).
    pub fn consistent(&mut self, assumptions: &[(NetId, bool)]) -> bool {
        let ok = self.probe(assumptions).is_ok();
        self.reset();
        ok
    }

    /// Runs the assumptions to a fixpoint; returns every net forced to a
    /// binary value (including the assumptions and base constants touched),
    /// or `None` on contradiction.
    pub fn implied(&mut self, assumptions: &[(NetId, bool)]) -> Option<Vec<(NetId, bool)>> {
        let out = match self.probe(assumptions) {
            Ok(()) => Some(
                self.trail
                    .iter()
                    .map(|&i| {
                        let v = self.val[i as usize]
                            .to_bool()
                            .expect("trail nets are binary");
                        (NetId::from_index(i as usize), v)
                    })
                    .collect(),
            ),
            Err(()) => None,
        };
        self.reset();
        out
    }

    fn learning_round(&mut self) {
        let n = self.circuit.net_count();
        for i in 0..n {
            for value in [false, true] {
                if self.constants[i] != Tri::X {
                    continue;
                }
                let id = NetId::from_index(i);
                if self.probe(&[(id, value)]).is_err() {
                    self.reset();
                    self.commit_constant(id, !value);
                    continue;
                }
                // Record the closure and its contrapositives.
                let from = lit(i, value);
                let neg_from = lit(i, !value) as u32;
                for t in 0..self.trail.len() {
                    let m = self.trail[t] as usize;
                    if m == i {
                        continue;
                    }
                    let w = self.val[m] == Tri::One;
                    let to = lit(m, w) as u32;
                    self.record(from as u32, to);
                    self.record(lit(m, !w) as u32, neg_from);
                }
                self.reset();
            }
        }
    }

    /// Adds the edge `from ⇒ to` unless it is already recorded or
    /// `from`'s list is full.
    fn record(&mut self, from: u32, to: u32) {
        let list = &mut self.learned[from as usize];
        if list.len() < LEARN_CAP && !list.contains(&to) {
            list.push(to);
            self.edges += 1;
        }
    }

    /// Makes `id = value` (and its closure) part of the base state.
    fn commit_constant(&mut self, id: NetId, value: bool) {
        let consistent = self.probe(&[(id, value)]).is_ok();
        debug_assert!(consistent, "constant closure must be consistent");
        if consistent {
            for &i in &self.trail {
                self.constants[i as usize] = self.val[i as usize];
            }
            self.trail.clear();
        } else {
            // Defensive: never poison the scratch state.
            self.reset();
        }
    }

    fn reset(&mut self) {
        for &i in &self.trail {
            self.val[i as usize] = self.constants[i as usize];
        }
        self.trail.clear();
        self.work.clear();
    }

    /// Propagates the assumptions on top of the base constants. On `Ok` the
    /// trail holds every newly assigned net; the caller must `reset` (or
    /// commit) afterwards. On `Err` the state is reset already.
    fn probe(&mut self, assumptions: &[(NetId, bool)]) -> Result<(), ()> {
        debug_assert!(self.trail.is_empty() && self.work.is_empty());
        let run = |eng: &mut Self| -> Result<(), ()> {
            for &(id, v) in assumptions {
                eng.assign(id.index(), Tri::from_bool(v))?;
            }
            while let Some(i) = eng.work.pop() {
                let i = i as usize;
                // Learned implications of the literal that just became true.
                let l = lit(i, eng.val[i] == Tri::One);
                for k in 0..eng.learned[l].len() {
                    let to = eng.learned[l][k] as usize;
                    eng.assign(to / 2, Tri::from_bool(to % 2 == 1))?;
                }
                let id = NetId::from_index(i);
                if matches!(eng.circuit.net(id).driver(), Driver::Gate { .. }) {
                    eng.refine(id)?;
                }
                let c = eng.circuit;
                for pin in c.fanouts(id) {
                    if matches!(c.net(pin.net).driver(), Driver::Gate { .. }) {
                        eng.refine(pin.net)?;
                    }
                }
            }
            Ok(())
        };
        let out = run(self);
        if out.is_err() {
            self.reset();
        }
        out
    }

    fn assign(&mut self, i: usize, v: Tri) -> Result<(), ()> {
        debug_assert!(v != Tri::X);
        match self.val[i] {
            Tri::X => {
                self.val[i] = v;
                self.trail.push(i as u32);
                self.work.push(i as u32);
                Ok(())
            }
            cur if cur == v => Ok(()),
            _ => Err(()),
        }
    }

    /// Forward-evaluates and backward-constrains one gate.
    #[allow(clippy::too_many_lines)]
    fn refine(&mut self, g: NetId) -> Result<(), ()> {
        let c = self.circuit;
        let Driver::Gate { kind, fanins } = c.net(g).driver() else {
            unreachable!("refine is only called on gate-driven nets");
        };
        let kind = *kind;
        let gi = g.index();

        // Forward evaluation.
        let fwd: Tri = match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let ctrl = matches!(kind, GateKind::Or | GateKind::Nor);
                let mut any_x = false;
                let mut out = !ctrl;
                for f in fanins {
                    match self.val[f.index()].to_bool() {
                        Some(v) if v == ctrl => {
                            out = ctrl;
                            any_x = false;
                            break;
                        }
                        Some(_) => {}
                        None => any_x = true,
                    }
                }
                if any_x {
                    Tri::X
                } else {
                    Tri::from_bool(out ^ kind.is_inverting())
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut p = false;
                let mut any_x = false;
                for f in fanins {
                    match self.val[f.index()].to_bool() {
                        Some(v) => p ^= v,
                        None => any_x = true,
                    }
                }
                if any_x {
                    Tri::X
                } else {
                    Tri::from_bool(p ^ kind.is_inverting())
                }
            }
            GateKind::Not | GateKind::Buf => match self.val[fanins[0].index()].to_bool() {
                Some(v) => Tri::from_bool(v ^ kind.is_inverting()),
                None => Tri::X,
            },
            GateKind::Mux => {
                let (s, d0, d1) = (
                    self.val[fanins[0].index()],
                    self.val[fanins[1].index()],
                    self.val[fanins[2].index()],
                );
                match s.to_bool() {
                    Some(false) => d0,
                    Some(true) => d1,
                    None => {
                        if d0 != Tri::X && d0 == d1 {
                            d0
                        } else {
                            Tri::X
                        }
                    }
                }
            }
            GateKind::Const0 => Tri::Zero,
            GateKind::Const1 => Tri::One,
        };
        if fwd != Tri::X {
            self.assign(gi, fwd)?;
        }

        // Backward constraints need a known output.
        let Some(ov) = self.val[gi].to_bool() else {
            return Ok(());
        };
        match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let ctrl = matches!(kind, GateKind::Or | GateKind::Nor);
                // Output value of the uninverted AND/OR core.
                let core = ov ^ kind.is_inverting();
                if core != ctrl {
                    // Fully non-controlled: every fanin is forced.
                    for f in fanins {
                        self.assign(f.index(), Tri::from_bool(!ctrl))?;
                    }
                } else {
                    // Controlled: if all but one fanin are known
                    // non-controlling, the last must be controlling.
                    let mut unknown = None;
                    let mut satisfied = false;
                    let mut count = 0usize;
                    for f in fanins {
                        match self.val[f.index()].to_bool() {
                            Some(v) if v == ctrl => satisfied = true,
                            Some(_) => {}
                            None => {
                                unknown = Some(f.index());
                                count += 1;
                            }
                        }
                    }
                    if !satisfied {
                        match (count, unknown) {
                            (0, _) => return Err(()),
                            (1, Some(u)) => self.assign(u, Tri::from_bool(ctrl))?,
                            _ => {}
                        }
                    }
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut p = false;
                let mut unknown = None;
                let mut count = 0usize;
                for f in fanins {
                    match self.val[f.index()].to_bool() {
                        Some(v) => p ^= v,
                        None => {
                            unknown = Some(f.index());
                            count += 1;
                        }
                    }
                }
                if count == 1 {
                    let u = unknown.expect("count == 1");
                    self.assign(u, Tri::from_bool(ov ^ p ^ kind.is_inverting()))?;
                }
            }
            GateKind::Not | GateKind::Buf => {
                self.assign(fanins[0].index(), Tri::from_bool(ov ^ kind.is_inverting()))?;
            }
            GateKind::Mux => {
                let (si, d0i, d1i) = (fanins[0].index(), fanins[1].index(), fanins[2].index());
                match self.val[si].to_bool() {
                    Some(false) => self.assign(d0i, Tri::from_bool(ov))?,
                    Some(true) => self.assign(d1i, Tri::from_bool(ov))?,
                    None => {
                        if let Some(v) = self.val[d0i].to_bool() {
                            if v != ov {
                                self.assign(si, Tri::One)?;
                            }
                        }
                        if let Some(v) = self.val[d1i].to_bool() {
                            if v != ov {
                                self.assign(si, Tri::Zero)?;
                            }
                        }
                    }
                }
            }
            GateKind::Const0 | GateKind::Const1 => {}
        }
        Ok(())
    }
}
