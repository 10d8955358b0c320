//! The compiled form of a circuit: [`Topology`].
//!
//! [`Topology::build`] lowers every gate of a circuit into a stream of
//! fixed-size two-input [`FlatOp`] records — opcode plus operand/output
//! slot indexes in one contiguous buffer. Evaluating a time unit is then a
//! single linear sweep over that buffer: no `Driver` enum chasing, no
//! per-gate closures, no variable-arity loops, and inversions folded into
//! the opcodes. N-ary gates become left-to-right chains through shared
//! scratch slots (sound because the three-valued AND/OR/XOR are
//! associative with identities, so the fold order matches the reference
//! `eval_gate` exactly), and a `Mux` becomes the three-term Kleene form
//! `(!s & d0) | (s & d1) | (d0 & d1)`, whose bit-plane expansion is
//! algebraically identical to [`WideWord::mux`](crate::WideWord::mux).
//! Alongside the op stream the topology keeps what the batch kernel needs
//! per circuit: the consumers of every net, each gate's level, and the
//! primary-input, primary-output and flip-flop net lists. Positions and
//! levels come from the circuit's own index
//! ([`Circuit::position`], [`Circuit::level`]).
//!
//! The lowering also computes the circuit's *weakly-connected components*
//! over gate fanin edges and flip-flop D→Q edges. A fault's divergence can
//! provably never leave the component of its injection site (every signal
//! path crosses only those edges), so the dense kernel restricts its sweep
//! to the components a batch actually touches; the op stream is emitted
//! component-contiguous to make those sweeps cache-linear.
//!
//! Fault injection against the op stream is described by
//! [`WideInjection`]: stem faults on source nets are per-net force masks
//! applied at source load, everything else becomes an [`OpPatch`] pinned
//! to an op index (operand forces for branch faults, output forces for
//! gate stem faults), and flip-flop D-pin branch faults force the state
//! transfer. Patches are the only per-op conditional work, and the dense
//! sweep hoists them out by running branchless spans between patched ops.

use limscan_fault::{Fault, FaultId, FaultList, FaultSite, StuckAt};
use limscan_netlist::{Circuit, Driver, GateKind, NetId};

use crate::logic::Logic;
use crate::parallel::WideWord;

/// Opcodes of the flat gate array. Inversions are folded in, so every
/// record evaluates in one table-dispatched step.
pub(crate) mod op {
    pub(crate) const AND: u8 = 0;
    pub(crate) const NAND: u8 = 1;
    pub(crate) const OR: u8 = 2;
    pub(crate) const NOR: u8 = 3;
    pub(crate) const XOR: u8 = 4;
    pub(crate) const XNOR: u8 = 5;
    pub(crate) const COPY: u8 = 6;
    pub(crate) const NOT: u8 = 7;
    pub(crate) const ZERO: u8 = 8;
    pub(crate) const ONE: u8 = 9;
}

/// One two-input operation of the flat gate array.
///
/// `a` / `b` / `out` index the kernel's value buffer: slots `< n_nets` are
/// circuit nets, slots `>= n_nets` are shared intra-gate scratch. For
/// one-input and constant opcodes the unused operands alias `out` (read but
/// ignored), keeping the evaluation loop uniform.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlatOp {
    pub(crate) code: u8,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) out: u32,
}

/// Evaluates one opcode over wide words.
#[inline(always)]
pub(crate) fn eval_op_w<const W: usize>(code: u8, a: WideWord<W>, b: WideWord<W>) -> WideWord<W> {
    match code {
        op::AND => a.and(b),
        op::NAND => a.and(b).not(),
        op::OR => a.or(b),
        op::NOR => a.or(b).not(),
        op::XOR => a.xor(b),
        op::XNOR => a.xor(b).not(),
        op::COPY => a,
        op::NOT => a.not(),
        op::ZERO => WideWord::broadcast(Logic::Zero),
        _ => WideWord::broadcast(Logic::One),
    }
}

/// Evaluates one opcode over scalar three-valued logic: the specification
/// [`SCALAR_TABLE`] is built from.
pub(crate) const fn eval_op_scalar(code: u8, a: Logic, b: Logic) -> Logic {
    match code {
        op::AND => a.and(b),
        op::NAND => a.and(b).not(),
        op::OR => a.or(b),
        op::NOR => a.or(b).not(),
        op::XOR => a.xor(b),
        op::XNOR => a.xor(b).not(),
        op::COPY => a,
        op::NOT => a.not(),
        op::ZERO => Logic::Zero,
        _ => Logic::One,
    }
}

/// Number of opcodes in [`op`].
const N_CODES: usize = 10;

/// `SCALAR_TABLE[code][a][b]` is `eval_op_scalar(code, a, b)`, with
/// operands indexed by `Logic as usize`: one lookup per op instead of the
/// branchy three-valued match. Built at compile time from
/// [`eval_op_scalar`].
static SCALAR_TABLE: [[[Logic; 3]; 3]; N_CODES] = {
    const VALUES: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];
    let mut table = [[[Logic::X; 3]; 3]; N_CODES];
    let mut code = 0;
    while code < N_CODES {
        let mut a = 0;
        while a < 3 {
            let mut b = 0;
            while b < 3 {
                assert!(VALUES[a] as usize == a && VALUES[b] as usize == b);
                table[code][a][b] = eval_op_scalar(code as u8, VALUES[a], VALUES[b]);
                b += 1;
            }
            a += 1;
        }
        code += 1;
    }
    table
};

/// Union-find over net indexes, used to compute weakly-connected
/// components.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins, so component numbering is a
            // pure function of the circuit.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// The compiled form of a circuit: the binarized op stream with its
/// per-gate and per-component ranges, pin-read targets and component
/// partition, plus the fanout indexes the batch kernel walks.
///
/// Built once per simulator and shared by its clones through an `Arc`.
#[derive(Debug)]
pub(crate) struct Topology {
    /// Number of nets: value slots below it are nets.
    pub(crate) n_nets: usize,
    /// Value-buffer length: nets plus the shared intra-gate scratch slots.
    pub(crate) n_slots: usize,
    /// Number of shared scratch slots (`n_slots - n_nets`).
    pub(crate) n_temps: usize,
    /// Comb position → level: the circuit level minus one, so gates fed
    /// only by sources are level 0. Within a level gates are independent,
    /// so the kernel's dirty lists are buckets keyed by level.
    pub(crate) level_of_pos: Vec<u32>,
    /// Number of distinct gate levels (the circuit's depth).
    pub(crate) n_levels: usize,
    /// Per comb position: output net index.
    pub(crate) gate_net: Vec<u32>,
    /// Per comb position: global index of the gate's first fanin pin (CSR
    /// offsets into the pin-target CSR).
    fanin_off: Vec<u32>,
    /// CSR consumer indexes, per net: comb positions of consuming gates
    /// and indexes of consuming flip-flops.
    gc_off: Vec<u32>,
    gc: Vec<u32>,
    dc_off: Vec<u32>,
    dc: Vec<u32>,
    /// Per flip-flop: output (Q) net index and data (D) net index.
    pub(crate) dff_q: Vec<u32>,
    pub(crate) dff_d: Vec<u32>,
    /// Primary input and output net indexes, in declaration order.
    pub(crate) pi: Vec<u32>,
    pub(crate) po: Vec<u32>,
    /// The op stream, component-contiguous, topologically ordered within
    /// each component.
    pub(crate) ops: Vec<FlatOp>,
    /// Per comb position: `[start, end)` op range of the gate. The last
    /// op of the range writes the gate's output net.
    pub(crate) gate_ops: Vec<(u32, u32)>,
    /// Pin-read targets, per global pin index: `(op index, operand slot)`
    /// pairs, slot 0 = `a`, 1 = `b`.
    pin_tgt_off: Vec<u32>,
    pin_tgt: Vec<(u32, u8)>,
    /// Net index → weakly-connected component id.
    pub(crate) comp_of_net: Vec<u32>,
    pub(crate) n_comps: usize,
    /// Per component: `[start, end)` op range.
    pub(crate) comp_ops: Vec<(u32, u32)>,
    /// Per component (CSR): primary-input net indexes.
    comp_pi_off: Vec<u32>,
    comp_pi: Vec<u32>,
    /// Per component (CSR): flip-flop indexes.
    comp_ff_off: Vec<u32>,
    comp_ff: Vec<u32>,
    /// Per component (CSR): primary-output positions (indexes into
    /// `circuit.outputs()`).
    comp_po_off: Vec<u32>,
    comp_po: Vec<u32>,
}

impl Topology {
    /// Compiles `circuit`.
    pub(crate) fn build(circuit: &Circuit) -> Self {
        let n_nets = circuit.net_count();
        let comb = circuit.comb_order();
        let n_comb = comb.len();
        let net_u32 = |id: &NetId| id.index() as u32;

        let mut fanin_off = Vec::with_capacity(n_comb + 1);
        fanin_off.push(0);
        for (pos, &id) in comb.iter().enumerate() {
            fanin_off.push(fanin_off[pos] + circuit.net(id).driver().fanins().len() as u32);
        }

        // CSR consumer lists (gates by comb position, FFs by index).
        let mut gate_consumers = vec![Vec::new(); n_nets];
        let mut dff_consumers = vec![Vec::new(); n_nets];
        for net in 0..n_nets {
            for pin in circuit.fanouts(NetId::from_index(net)) {
                let position = circuit.position(pin.net) as u32;
                match circuit.net(pin.net).driver() {
                    Driver::Gate { .. } => gate_consumers[net].push(position),
                    Driver::Dff { .. } => dff_consumers[net].push(position),
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

        let d_of = |q: &NetId| {
            let Driver::Dff { d } = circuit.net(*q).driver() else {
                unreachable!("dffs() contains only flip-flops");
            };
            d.index() as u32
        };

        // --- Components: union gate outputs with their fanins and FF
        // outputs with their D nets. Everything a fault effect can traverse
        // crosses exactly these edges, so divergence is component-confined.
        let mut dsu = Dsu::new(n_nets);
        for &id in comb {
            for f in circuit.net(id).driver().fanins() {
                dsu.union(id.index() as u32, f.index() as u32);
            }
        }
        for q in circuit.dffs() {
            dsu.union(net_u32(q), d_of(q));
        }
        let mut comp_of_net = vec![u32::MAX; n_nets];
        let mut n_comps = 0usize;
        for net in 0..n_nets {
            let root = dsu.find(net as u32) as usize;
            if comp_of_net[root] == u32::MAX {
                comp_of_net[root] = n_comps as u32;
                n_comps += 1;
            }
            comp_of_net[net] = comp_of_net[root];
        }

        // --- Group gates by component, preserving comb_order within each:
        // the stream stays topological inside a component, and components
        // are mutually independent.
        let mut comp_gates: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
        for (pos, &id) in comb.iter().enumerate() {
            comp_gates[comp_of_net[id.index()] as usize].push(pos as u32);
        }

        // --- Emit ops. Scratch slots are shared across gates (each gate's
        // intermediate values are written before read within its own
        // range): 1 slot for n-ary chains, 5 for the mux decomposition.
        let mut ops: Vec<FlatOp> = Vec::new();
        let mut gate_ops = vec![(0u32, 0u32); n_comb];
        let mut pin_tgts: Vec<Vec<(u32, u8)>> = vec![Vec::new(); fanin_off[n_comb] as usize];
        let mut n_temps = 0usize;
        let t = |k: usize| (n_nets + k) as u32;
        let mut comp_ops = vec![(0u32, 0u32); n_comps];
        for (comp, gates) in comp_gates.iter().enumerate() {
            let comp_start = ops.len() as u32;
            for &pos in gates {
                let pos = pos as usize;
                let id = comb[pos];
                let Driver::Gate { kind, fanins } = circuit.net(id).driver() else {
                    unreachable!("comb_order contains only gates");
                };
                let out = id.index() as u32;
                let start = ops.len() as u32;
                let pin = |i: usize| (fanin_off[pos] + i as u32) as usize;
                let fi = |i: usize| fanins[i].index() as u32;
                match (*kind, fanins.len()) {
                    (GateKind::Const0, _)
                    | (GateKind::Nand, 0)
                    | (GateKind::Or, 0)
                    | (GateKind::Xor, 0) => ops.push(FlatOp {
                        code: op::ZERO,
                        a: out,
                        b: out,
                        out,
                    }),
                    (GateKind::Const1, _)
                    | (GateKind::And, 0)
                    | (GateKind::Nor, 0)
                    | (GateKind::Xnor, 0) => ops.push(FlatOp {
                        code: op::ONE,
                        a: out,
                        b: out,
                        out,
                    }),
                    (GateKind::Buf, _)
                    | (GateKind::And, 1)
                    | (GateKind::Or, 1)
                    | (GateKind::Xor, 1) => {
                        pin_tgts[pin(0)].push((ops.len() as u32, 0));
                        ops.push(FlatOp {
                            code: op::COPY,
                            a: fi(0),
                            b: out,
                            out,
                        });
                    }
                    (GateKind::Not, _)
                    | (GateKind::Nand, 1)
                    | (GateKind::Nor, 1)
                    | (GateKind::Xnor, 1) => {
                        pin_tgts[pin(0)].push((ops.len() as u32, 0));
                        ops.push(FlatOp {
                            code: op::NOT,
                            a: fi(0),
                            b: out,
                            out,
                        });
                    }
                    (GateKind::Mux, _) => {
                        // (!s & d0) | (s & d1) | (d0 & d1): bit-plane
                        // identical to WideWord::mux (see module docs).
                        n_temps = n_temps.max(5);
                        let base = ops.len() as u32;
                        pin_tgts[pin(0)].push((base, 0)); // s → t0.a
                        ops.push(FlatOp {
                            code: op::NOT,
                            a: fi(0),
                            b: t(0),
                            out: t(0),
                        });
                        pin_tgts[pin(1)].push((base + 1, 1)); // d0 → t1.b
                        ops.push(FlatOp {
                            code: op::AND,
                            a: t(0),
                            b: fi(1),
                            out: t(1),
                        });
                        pin_tgts[pin(0)].push((base + 2, 0)); // s → t2.a
                        pin_tgts[pin(2)].push((base + 2, 1)); // d1 → t2.b
                        ops.push(FlatOp {
                            code: op::AND,
                            a: fi(0),
                            b: fi(2),
                            out: t(2),
                        });
                        pin_tgts[pin(1)].push((base + 3, 0)); // d0 → t3.a
                        pin_tgts[pin(2)].push((base + 3, 1)); // d1 → t3.b
                        ops.push(FlatOp {
                            code: op::AND,
                            a: fi(1),
                            b: fi(2),
                            out: t(3),
                        });
                        ops.push(FlatOp {
                            code: op::OR,
                            a: t(1),
                            b: t(2),
                            out: t(4),
                        });
                        ops.push(FlatOp {
                            code: op::OR,
                            a: t(4),
                            b: t(3),
                            out,
                        });
                    }
                    (kind, n) => {
                        // N-ary AND/OR/XOR chain; the folded inversion (if
                        // any) lands on the final op only.
                        let (base_code, final_code) = match kind {
                            GateKind::And => (op::AND, op::AND),
                            GateKind::Nand => (op::AND, op::NAND),
                            GateKind::Or => (op::OR, op::OR),
                            GateKind::Nor => (op::OR, op::NOR),
                            GateKind::Xor => (op::XOR, op::XOR),
                            GateKind::Xnor => (op::XOR, op::XNOR),
                            _ => unreachable!("fixed-arity kinds handled above"),
                        };
                        n_temps = n_temps.max(1);
                        pin_tgts[pin(0)].push((ops.len() as u32, 0));
                        pin_tgts[pin(1)].push((ops.len() as u32, 1));
                        ops.push(FlatOp {
                            code: if n == 2 { final_code } else { base_code },
                            a: fi(0),
                            b: fi(1),
                            out: if n == 2 { out } else { t(0) },
                        });
                        for i in 2..n {
                            let last = i == n - 1;
                            pin_tgts[pin(i)].push((ops.len() as u32, 1));
                            ops.push(FlatOp {
                                code: if last { final_code } else { base_code },
                                a: t(0),
                                b: fi(i),
                                out: if last { out } else { t(0) },
                            });
                        }
                    }
                }
                let end = ops.len() as u32;
                gate_ops[pos] = (start, end);
                debug_assert_eq!(ops[end as usize - 1].out, out);
            }
            comp_ops[comp] = (comp_start, ops.len() as u32);
        }

        // --- Per-component source/output lists.
        let mut comp_pis: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
        for &pi in circuit.inputs() {
            comp_pis[comp_of_net[pi.index()] as usize].push(pi.index() as u32);
        }
        let mut comp_ffs: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
        for (i, &q) in circuit.dffs().iter().enumerate() {
            comp_ffs[comp_of_net[q.index()] as usize].push(i as u32);
        }
        let mut comp_pos: Vec<Vec<u32>> = vec![Vec::new(); n_comps];
        for (oi, &o) in circuit.outputs().iter().enumerate() {
            comp_pos[comp_of_net[o.index()] as usize].push(oi as u32);
        }
        let (comp_pi_off, comp_pi) = to_csr(&comp_pis);
        let (comp_ff_off, comp_ff) = to_csr(&comp_ffs);
        let (comp_po_off, comp_po) = to_csr(&comp_pos);
        let (pin_tgt_off, pin_tgt) = to_csr(&pin_tgts);

        Topology {
            n_nets,
            n_slots: n_nets + n_temps,
            n_temps,
            level_of_pos: comb.iter().map(|&id| circuit.level(id) - 1).collect(),
            n_levels: circuit.depth() as usize,
            gate_net: comb.iter().map(net_u32).collect(),
            fanin_off,
            gc_off,
            gc,
            dc_off,
            dc,
            dff_q: circuit.dffs().iter().map(net_u32).collect(),
            dff_d: circuit.dffs().iter().map(d_of).collect(),
            pi: circuit.inputs().iter().map(net_u32).collect(),
            po: circuit.outputs().iter().map(net_u32).collect(),
            ops,
            gate_ops,
            pin_tgt_off,
            pin_tgt,
            comp_of_net,
            n_comps,
            comp_ops,
            comp_pi_off,
            comp_pi,
            comp_ff_off,
            comp_ff,
            comp_po_off,
            comp_po,
        }
    }

    /// Primary-input nets of component `c`.
    #[inline]
    pub(crate) fn comp_pis(&self, c: usize) -> &[u32] {
        &self.comp_pi[self.comp_pi_off[c] as usize..self.comp_pi_off[c + 1] as usize]
    }

    /// Flip-flop indexes of component `c`.
    #[inline]
    pub(crate) fn comp_ffs(&self, c: usize) -> &[u32] {
        &self.comp_ff[self.comp_ff_off[c] as usize..self.comp_ff_off[c + 1] as usize]
    }

    /// Primary-output positions of component `c`.
    #[inline]
    pub(crate) fn comp_pos(&self, c: usize) -> &[u32] {
        &self.comp_po[self.comp_po_off[c] as usize..self.comp_po_off[c + 1] as usize]
    }

    /// The `(op index, operand slot)` targets reading global pin `g`.
    #[inline]
    fn pin_targets(&self, g: usize) -> &[(u32, u8)] {
        &self.pin_tgt[self.pin_tgt_off[g] as usize..self.pin_tgt_off[g + 1] as usize]
    }

    /// Comb positions of the gates consuming net `net`.
    #[inline]
    pub(crate) fn gate_consumers(&self, net: usize) -> &[u32] {
        &self.gc[self.gc_off[net] as usize..self.gc_off[net + 1] as usize]
    }

    /// Indexes of the flip-flops whose D input is net `net`.
    #[inline]
    pub(crate) fn dff_consumers(&self, net: usize) -> &[u32] {
        &self.dc[self.dc_off[net] as usize..self.dc_off[net + 1] as usize]
    }

    /// One fault-free time unit in scalar three-valued logic: loads
    /// `vector` and the present `state` into `row`, evaluates the op
    /// stream (one [`SCALAR_TABLE`] lookup per op, `tmp` holding the
    /// shared scratch slots, `len >= n_temps`) and writes the next state
    /// into `next`. Every net of `row` is written. The fault-free trace of
    /// an extension, the trial engine's rows and `CombFaultSim`'s frame
    /// are all computed here.
    pub(crate) fn step_scalar(
        &self,
        vector: &[Logic],
        state: &[Logic],
        row: &mut [Logic],
        next: &mut [Logic],
        tmp: &mut [Logic],
    ) {
        for (&pi, &v) in self.pi.iter().zip(vector) {
            row[pi as usize] = v;
        }
        for (&q, &v) in self.dff_q.iter().zip(state) {
            row[q as usize] = v;
        }
        let n = self.n_nets;
        let read = |row: &[Logic], tmp: &[Logic], idx: u32| {
            let idx = idx as usize;
            if idx < n {
                row[idx]
            } else {
                tmp[idx - n]
            }
        };
        for o in &self.ops {
            let a = read(row, tmp, o.a);
            let b = read(row, tmp, o.b);
            let r = SCALAR_TABLE[o.code as usize][a as usize][b as usize];
            let out = o.out as usize;
            if out < n {
                row[out] = r;
            } else {
                tmp[out - n] = r;
            }
        }
        for (s, &d) in next.iter_mut().zip(&self.dff_d) {
            *s = row[d as usize];
        }
    }
}

fn to_csr<T: Copy>(lists: &[Vec<T>]) -> (Vec<u32>, Vec<T>) {
    let mut off = Vec::with_capacity(lists.len() + 1);
    let mut flat = Vec::with_capacity(lists.iter().map(Vec::len).sum());
    off.push(0);
    for list in lists {
        flat.extend_from_slice(list);
        off.push(flat.len() as u32);
    }
    (off, flat)
}

/// Operand/output force masks for one patched op. Zero masks are identity,
/// so patched evaluation applies all six unconditionally.
#[derive(Clone)]
pub(crate) struct OpPatch<const W: usize> {
    a_sa0: [u64; W],
    a_sa1: [u64; W],
    b_sa0: [u64; W],
    b_sa1: [u64; W],
    o_sa0: [u64; W],
    o_sa1: [u64; W],
}

impl<const W: usize> OpPatch<W> {
    const NONE: OpPatch<W> = OpPatch {
        a_sa0: [0; W],
        a_sa1: [0; W],
        b_sa0: [0; W],
        b_sa1: [0; W],
        o_sa0: [0; W],
        o_sa1: [0; W],
    };

    /// Applies the patch around one op evaluation.
    #[inline(always)]
    pub(crate) fn eval(&self, code: u8, a: WideWord<W>, b: WideWord<W>) -> WideWord<W> {
        let a = a.force_zero(&self.a_sa0).force_one(&self.a_sa1);
        let b = b.force_zero(&self.b_sa0).force_one(&self.b_sa1);
        eval_op_w(code, a, b)
            .force_zero(&self.o_sa0)
            .force_one(&self.o_sa1)
    }
}

/// Per-batch fault injection against the flat op stream. All buffers are
/// touched-cleared, so reloading for the next batch is O(previous batch).
#[derive(Default)]
pub(crate) struct WideInjection<const W: usize> {
    /// Per net: stem forces on source nets (PIs and FF outputs), applied
    /// when the source value is loaded each time unit.
    src_sa0: Vec<[u64; W]>,
    src_sa1: Vec<[u64; W]>,
    /// Source nets with a non-zero force, deduplicated.
    pub(crate) src_forced: Vec<u32>,
    /// Per op index: patch slot, `u32::MAX` when unpatched.
    patch_idx: Vec<u32>,
    patches: Vec<OpPatch<W>>,
    /// Patched op indexes, sorted ascending (the dense sweep's skip list).
    pub(crate) patch_ops: Vec<u32>,
    /// Per comb position: whether any op of the gate carries a patch.
    gate_patched: Vec<bool>,
    patched_gates: Vec<u32>,
    /// Per flip-flop: D-pin branch forces, applied at state transfer.
    ff_sa0: Vec<[u64; W]>,
    ff_sa1: Vec<[u64; W]>,
    pub(crate) ff_forced: Vec<u32>,
}

impl<const W: usize> WideInjection<W> {
    pub(crate) fn new(n_nets: usize, n_ops: usize, n_comb: usize, n_ff: usize) -> Self {
        WideInjection {
            src_sa0: vec![[0; W]; n_nets],
            src_sa1: vec![[0; W]; n_nets],
            src_forced: Vec::new(),
            patch_idx: vec![u32::MAX; n_ops],
            patches: Vec::new(),
            patch_ops: Vec::new(),
            gate_patched: vec![false; n_comb],
            patched_gates: Vec::new(),
            ff_sa0: vec![[0; W]; n_ff],
            ff_sa1: vec![[0; W]; n_ff],
            ff_forced: Vec::new(),
        }
    }

    fn clear(&mut self) {
        for &n in &self.src_forced {
            self.src_sa0[n as usize] = [0; W];
            self.src_sa1[n as usize] = [0; W];
        }
        self.src_forced.clear();
        for &o in &self.patch_ops {
            self.patch_idx[o as usize] = u32::MAX;
        }
        self.patches.clear();
        self.patch_ops.clear();
        for &p in &self.patched_gates {
            self.gate_patched[p as usize] = false;
        }
        self.patched_gates.clear();
        for &f in &self.ff_forced {
            self.ff_sa0[f as usize] = [0; W];
            self.ff_sa1[f as usize] = [0; W];
        }
        self.ff_forced.clear();
    }

    fn patch_mut(&mut self, op_idx: u32) -> &mut OpPatch<W> {
        if self.patch_idx[op_idx as usize] == u32::MAX {
            self.patch_idx[op_idx as usize] = self.patches.len() as u32;
            self.patches.push(OpPatch::NONE);
            self.patch_ops.push(op_idx);
        }
        &mut self.patches[self.patch_idx[op_idx as usize] as usize]
    }

    fn mark_gate(&mut self, pos: u32) {
        if !self.gate_patched[pos as usize] {
            self.gate_patched[pos as usize] = true;
            self.patched_gates.push(pos);
        }
    }

    /// Loads the injection state for one batch of ≤ `64 * W` faults; lane
    /// `i` carries `batch[i]`.
    pub(crate) fn load(
        &mut self,
        circuit: &Circuit,
        topo: &Topology,
        faults: &FaultList,
        batch: &[FaultId],
    ) {
        debug_assert!(batch.len() <= 64 * W);
        self.clear();
        for (lane, &fid) in batch.iter().enumerate() {
            let mut lanes = [0u64; W];
            lanes[lane / 64] = 1u64 << (lane % 64);
            self.add(circuit, topo, faults.fault(fid), &lanes);
        }
        self.patch_ops.sort_unstable();
    }

    /// Loads one fault (or none) into every lane set in `lanes`, replacing
    /// the previous injection.
    pub(crate) fn load_fault(
        &mut self,
        circuit: &Circuit,
        topo: &Topology,
        fault: Option<Fault>,
        lanes: &[u64; W],
    ) {
        self.clear();
        if let Some(fault) = fault {
            self.add(circuit, topo, fault, lanes);
            self.patch_ops.sort_unstable();
        }
    }

    /// Distributes one fault to the mechanism that realises it: a source
    /// mask, op patches, or a flip-flop force.
    fn add(&mut self, circuit: &Circuit, topo: &Topology, fault: Fault, lanes: &[u64; W]) {
        let or = |target: &mut [u64; W]| {
            for (t, &m) in target.iter_mut().zip(lanes) {
                *t |= m;
            }
        };
        let sa0 = fault.stuck == StuckAt::Zero;
        match fault.site {
            FaultSite::Stem(n) => match circuit.net(n).driver() {
                Driver::Gate { .. } => {
                    let pos = circuit.position(n);
                    self.mark_gate(pos as u32);
                    let p = self.patch_mut(topo.gate_ops[pos].1 - 1);
                    or(if sa0 { &mut p.o_sa0 } else { &mut p.o_sa1 });
                }
                _ => {
                    let n = n.index();
                    if self.src_sa0[n] == [0; W] && self.src_sa1[n] == [0; W] {
                        self.src_forced.push(n as u32);
                    }
                    or(if sa0 {
                        &mut self.src_sa0[n]
                    } else {
                        &mut self.src_sa1[n]
                    });
                }
            },
            FaultSite::Branch(pin) => match circuit.net(pin.net).driver() {
                Driver::Gate { .. } => {
                    let pos = circuit.position(pin.net);
                    self.mark_gate(pos as u32);
                    let g = (topo.fanin_off[pos] + u32::from(pin.pin)) as usize;
                    for &(op_idx, slot) in topo.pin_targets(g) {
                        let p = self.patch_mut(op_idx);
                        or(match (slot, sa0) {
                            (0, true) => &mut p.a_sa0,
                            (0, false) => &mut p.a_sa1,
                            (_, true) => &mut p.b_sa0,
                            (_, false) => &mut p.b_sa1,
                        });
                    }
                }
                Driver::Dff { .. } => {
                    let ffi = circuit.position(pin.net);
                    if self.ff_sa0[ffi] == [0; W] && self.ff_sa1[ffi] == [0; W] {
                        self.ff_forced.push(ffi as u32);
                    }
                    or(if sa0 {
                        &mut self.ff_sa0[ffi]
                    } else {
                        &mut self.ff_sa1[ffi]
                    });
                }
                Driver::Input => unreachable!("primary inputs have no fanin pins"),
            },
        }
    }

    /// Applies the stem force of a source net (no-op for unforced nets).
    #[inline(always)]
    pub(crate) fn force_src(&self, net: usize, w: WideWord<W>) -> WideWord<W> {
        w.force_zero(&self.src_sa0[net])
            .force_one(&self.src_sa1[net])
    }

    /// The patch pinned to op `op_idx`, if any.
    #[inline(always)]
    pub(crate) fn patch_at(&self, op_idx: usize) -> Option<&OpPatch<W>> {
        let idx = self.patch_idx[op_idx];
        if idx == u32::MAX {
            None
        } else {
            Some(&self.patches[idx as usize])
        }
    }

    /// Whether any op of the gate at comb position `pos` is patched.
    #[inline(always)]
    pub(crate) fn gate_is_patched(&self, pos: usize) -> bool {
        self.gate_patched[pos]
    }

    /// Applies the D-pin branch force of flip-flop `ffi` (no-op when
    /// unforced).
    #[inline(always)]
    pub(crate) fn force_ff(&self, ffi: usize, w: WideWord<W>) -> WideWord<W> {
        w.force_zero(&self.ff_sa0[ffi]).force_one(&self.ff_sa1[ffi])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every opcode over every operand pair: the table, read the way
    /// `step_scalar` reads it, equals the match it was built from and the
    /// wide kernel's evaluation.
    #[test]
    fn scalar_table_matches_eval_op_scalar() {
        assert_eq!(op::ONE as usize, N_CODES - 1, "every opcode has a row");
        let all = [Logic::Zero, Logic::One, Logic::X];
        for code in 0..N_CODES as u8 {
            for a in all {
                for b in all {
                    let want = eval_op_scalar(code, a, b);
                    assert_eq!(
                        SCALAR_TABLE[code as usize][a as usize][b as usize], want,
                        "opcode {code} on ({a}, {b})"
                    );
                    let wide = eval_op_w::<1>(code, WideWord::broadcast(a), WideWord::broadcast(b));
                    assert_eq!(wide.lane(0), want, "opcode {code} on ({a}, {b})");
                }
            }
        }
    }
}
