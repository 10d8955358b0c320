//! Structural view shared by every analysis pass.
//!
//! Builds, in one linear sweep over the circuit (whose own index supplies
//! each net's logic level, [`Circuit::level`]):
//!
//! * the **observability** mask (can the net's value reach a primary output
//!   or a flip-flop D pin through combinational logic);
//! * the **immediate-dominator tree** of the combinational fanout graph
//!   toward a single virtual sink collecting every observation point — a
//!   net's dominators are exactly the nets every error propagation path
//!   from it must pass through within the frame where it is first observed;
//! * the **fanout-free-region** (FFR) partition: every net is folded
//!   forward along single-consumer links into its unique stem.

use limscan_netlist::{Circuit, Driver, NetId};

/// Immediate dominator of a net in the combinational fanout graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DomLink {
    /// The net is observed directly (primary output or flip-flop D source),
    /// or its fanout reconverges only at the virtual sink.
    Sink,
    /// Every path to an observation point passes through this net.
    Net(NetId),
    /// No combinational path to any observation point exists (the net is
    /// dangling; errors on it are invisible).
    Unreachable,
}

const SINK: u32 = u32::MAX;
const UNREACHABLE: u32 = u32::MAX - 1;

/// The shared structural view. Construction is `O(nets + pins)` except the
/// dominator intersection walk, which is near-linear in practice.
#[derive(Clone, Debug)]
pub struct StructView {
    observable: Vec<bool>,
    idom: Vec<u32>,
    dom_depth: Vec<u32>,
    ffr_head: Vec<u32>,
    ffr_count: usize,
}

impl StructView {
    /// Builds the view for `circuit`.
    pub fn build(circuit: &Circuit) -> Self {
        let n = circuit.net_count();
        let observable = circuit.observation_mask();

        // Immediate dominators toward the virtual sink. Process nets with
        // all combinational successors already resolved (reverse of
        // comb_order handles gate nets; sources can be folded in any order
        // afterwards since their successors are all gate nets or the sink).
        let mut idom = vec![UNREACHABLE; n];
        let mut dom_depth = vec![0u32; n];
        {
            let mut order: Vec<NetId> = circuit.comb_order().to_vec();
            order.reverse();
            // Sources (PIs, FF outputs) come after every gate net.
            order.extend(
                (0..n)
                    .map(NetId::from_index)
                    .filter(|&id| !matches!(circuit.net(id).driver(), Driver::Gate { .. })),
            );
            let intersect = |idom: &[u32], dom_depth: &[u32], mut a: u32, mut b: u32| -> u32 {
                while a != b {
                    if a == SINK {
                        return SINK;
                    }
                    if b == SINK {
                        return SINK;
                    }
                    let (da, db) = (dom_depth[a as usize], dom_depth[b as usize]);
                    if da >= db {
                        a = idom[a as usize];
                    } else {
                        b = idom[b as usize];
                    }
                }
                a
            };
            for u in order {
                let ui = u.index();
                if !observable[ui] {
                    continue;
                }
                let mut cur: Option<u32> = if Self::is_observed_here(circuit, u) {
                    Some(SINK)
                } else {
                    None
                };
                for pin in circuit.fanouts(u) {
                    let v = pin.net;
                    // A pin into a flip-flop is the observation itself and
                    // was accounted for by `is_observed_here`; a dangling
                    // successor contributes no path to the sink.
                    if matches!(circuit.net(v).driver(), Driver::Dff { .. })
                        || !observable[v.index()]
                    {
                        continue;
                    }
                    let vi = v.index() as u32;
                    cur = Some(match cur {
                        None => vi,
                        Some(c) => intersect(&idom, &dom_depth, c, vi),
                    });
                }
                let link = cur.expect("observable net has a successor or is observed");
                idom[ui] = link;
                dom_depth[ui] = if link == SINK {
                    1
                } else {
                    dom_depth[link as usize] + 1
                };
            }
        }

        // Fanout-free regions: fold forward along sole-consumer links into
        // gate consumers; stems are multi-fanout nets, observed nets, and
        // nets feeding flip-flops.
        let mut ffr_head: Vec<u32> = (0..n as u32).collect();
        {
            // Nets ordered so consumers resolve first: descending level,
            // with gate nets before their fanins guaranteed by level.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(circuit.level(NetId::from_index(i))));
            for i in order {
                let u = NetId::from_index(i);
                let fanouts = circuit.fanouts(u);
                if fanouts.len() == 1 && !circuit.is_output(u) {
                    let v = fanouts[0].net;
                    if matches!(circuit.net(v).driver(), Driver::Gate { .. }) {
                        ffr_head[i] = ffr_head[v.index()];
                    }
                }
            }
        }
        let ffr_count = ffr_head
            .iter()
            .enumerate()
            .filter(|&(i, &h)| h as usize == i)
            .count();

        StructView {
            observable,
            idom,
            dom_depth,
            ffr_head,
            ffr_count,
        }
    }

    /// Whether `u` is an observation point: a primary output, or the source
    /// of some flip-flop's D pin.
    fn is_observed_here(circuit: &Circuit, u: NetId) -> bool {
        circuit.is_output(u)
            || circuit
                .fanouts(u)
                .iter()
                .any(|p| matches!(circuit.net(p.net).driver(), Driver::Dff { .. }))
    }

    /// Whether errors on `id` can reach an observation point within the
    /// frame.
    pub fn is_observable(&self, id: NetId) -> bool {
        self.observable[id.index()]
    }

    /// Immediate dominator of `id`.
    pub fn idom(&self, id: NetId) -> DomLink {
        match self.idom[id.index()] {
            SINK => DomLink::Sink,
            UNREACHABLE => DomLink::Unreachable,
            v => DomLink::Net(NetId::from_index(v as usize)),
        }
    }

    /// The proper dominators of `id`, nearest first, ending before the
    /// virtual sink. Empty when the net is directly observed or dangling.
    pub fn dominators(&self, id: NetId) -> impl Iterator<Item = NetId> + '_ {
        let mut cur = self.idom[id.index()];
        std::iter::from_fn(move || {
            if cur == SINK || cur == UNREACHABLE {
                return None;
            }
            let out = NetId::from_index(cur as usize);
            cur = self.idom[cur as usize];
            Some(out)
        })
    }

    /// Depth of `id` in the dominator tree (1 = immediately observed;
    /// 0 = unobservable).
    pub fn dom_depth(&self, id: NetId) -> usize {
        self.dom_depth[id.index()] as usize
    }

    /// Maximum dominator-tree depth over all observable nets.
    pub fn dom_tree_depth(&self) -> usize {
        self.dom_depth.iter().copied().max().unwrap_or(0) as usize
    }

    /// The stem of `id`'s fanout-free region (a net is its own head when it
    /// has multiple consumers, is observed, or feeds a flip-flop).
    pub fn ffr_head(&self, id: NetId) -> NetId {
        NetId::from_index(self.ffr_head[id.index()] as usize)
    }

    /// Number of fanout-free regions the circuit partitions into.
    pub fn ffr_count(&self) -> usize {
        self.ffr_count
    }
}
