//! Static circuit analysis for the `limscan` workspace.
//!
//! Four passes share one structural view ([`StructView`]), built over the
//! circuit's own per-net index (levels, positions, output flags):
//!
//! 1. **Structural dominators** — immediate-dominator tree of every net
//!    toward a virtual sink collecting all observation points (primary
//!    outputs and flip-flop D pins), plus the fanout-free-region partition.
//! 2. **Static implications** ([`ImplicationEngine`]) — forward/backward
//!    constant propagation, a recorded implication graph with
//!    contrapositive closure, one round of indirect-implication learning,
//!    and proven constant nets.
//! 3. **Fault dominance collapsing** — the gate-local dominance covers from
//!    `limscan-fault` extended with dominator-tree stem/branch covers
//!    (a stem with a single observable branch is covered by that branch).
//! 4. **Fault-independent untestability** ([`UntestableReason`]) — faults
//!    whose activation or propagation requirements are contradictory are
//!    proven untestable per frame, with machine-checkable reasons anchored
//!    to the exhaustive `prove_frame` notion of testability.
//!
//! [`StaticAnalysis::run`] executes everything once; [`FaultPartition`]
//! splits any fault list into ATPG targets, dominance-covered faults, and
//! statically-untestable faults.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::benchmarks;
//! use limscan_fault::FaultList;
//! use limscan_analyze::StaticAnalysis;
//!
//! let c = benchmarks::s27();
//! let analysis = StaticAnalysis::run(&c);
//! let part = analysis.partition(&FaultList::collapsed(&c));
//! assert!(part.targets().len() <= FaultList::collapsed(&c).len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod implications;
mod untestable;

use std::collections::HashMap;

use limscan_fault::{DominanceCover, Fault, FaultClasses, FaultId, FaultList};
use limscan_netlist::{Circuit, Driver, NetId};

pub use graph::{DomLink, StructView};
pub use implications::ImplicationEngine;
pub use untestable::UntestableReason;

/// Headline numbers of one analysis run, reported by `limscan info` and
/// `limscan analyze`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnalysisSummary {
    /// Fanout-free regions the circuit partitions into.
    pub ffr_count: usize,
    /// Maximum dominator-tree depth over observable nets.
    pub dom_tree_depth: usize,
    /// Nets proven constant by the implication engine.
    pub constant_nets: usize,
    /// Recorded implication edges (direct + contrapositive + indirect).
    pub implication_edges: usize,
    /// Full fault-universe size.
    pub full_faults: usize,
    /// Equivalence-collapsed universe size.
    pub collapsed_faults: usize,
    /// Universe size after dominance collapsing on top of equivalence.
    pub dominance_targets: usize,
    /// Collapsed faults proven statically untestable.
    pub untestable_faults: usize,
    /// Faults an analysis-pruned ATPG run actually targets: collapsed,
    /// minus untestable, minus dominance-covered (covers kept).
    pub pruned_targets: usize,
}

/// The result of running all four static analysis passes over one circuit.
pub struct StaticAnalysis {
    view: StructView,
    classes: FaultClasses,
    cover: DominanceCover,
    untestable: HashMap<u32, UntestableReason>,
    constants: Vec<(NetId, bool)>,
    summary: AnalysisSummary,
}

impl StaticAnalysis {
    /// Runs dominators, implication learning, untestability identification
    /// and dominance collapsing over `circuit`.
    pub fn run(circuit: &Circuit) -> Self {
        let view = StructView::build(circuit);
        let mut engine = ImplicationEngine::build(circuit);
        let constants = engine.constants();
        let classes = FaultClasses::compute(circuit);

        // Classify every class representative, grouped by the net whose
        // fanout cone the dominator walk needs so the cone BFS is shared.
        let mut cone = untestable::ConeScratch::new(circuit.net_count());
        let mut reps: Vec<(u32, FaultId)> = classes
            .full()
            .ids()
            .filter(|&id| classes.representative(id) == id)
            .map(|id| {
                let f = classes.full().fault(id);
                let origin = match f.site {
                    limscan_fault::FaultSite::Stem(s) => s,
                    limscan_fault::FaultSite::Branch(pin) => pin.net,
                };
                (origin.index() as u32, id)
            })
            .collect();
        reps.sort_by_key(|&(origin, id)| (origin, id));
        let mut untestable: HashMap<u32, UntestableReason> = HashMap::new();
        for &(_, rep) in &reps {
            let f = classes.full().fault(rep);
            if let Some(reason) = untestable::classify(circuit, &view, &mut engine, &mut cone, f) {
                untestable.insert(rep.index() as u32, reason);
            }
        }

        // Dominance covers: gate-local rules plus single-observable-branch
        // stem covers; resolution refuses untestable targets (no test for
        // them exists, so their covers are vacuous).
        let mut edges = classes.gate_dominance_edges(circuit);
        edges.extend(stem_branch_edges(circuit, &view, &classes));
        let all_targets = DominanceCover::resolve(&classes, &edges, |_| true).target_count();
        let cover = DominanceCover::resolve(&classes, &edges, |t| {
            !untestable.contains_key(&(t.index() as u32))
        });

        let mut analysis = StaticAnalysis {
            summary: AnalysisSummary {
                ffr_count: view.ffr_count(),
                dom_tree_depth: view.dom_tree_depth(),
                constant_nets: constants.len(),
                implication_edges: engine.edge_count(),
                full_faults: classes.full().len(),
                collapsed_faults: classes.class_count(),
                dominance_targets: all_targets,
                untestable_faults: untestable.len(),
                pruned_targets: 0,
            },
            view,
            classes,
            cover,
            untestable,
            constants,
        };
        let part = analysis.partition(&collapsed_list(&analysis.classes));
        analysis.summary.pruned_targets = part.targets().len();
        analysis
    }

    /// The shared structural view.
    pub fn view(&self) -> &StructView {
        &self.view
    }

    /// The equivalence classes the dominance and untestability tiers are
    /// layered on.
    pub fn classes(&self) -> &FaultClasses {
        &self.classes
    }

    /// Proven constant nets, in net-id order.
    pub fn constants(&self) -> &[(NetId, bool)] {
        &self.constants
    }

    /// The headline numbers.
    pub fn summary(&self) -> &AnalysisSummary {
        &self.summary
    }

    /// Why `fault` is statically untestable, if it is. Resolves through the
    /// equivalence classes, so any member of an untestable class answers.
    pub fn untestable_reason(&self, fault: Fault) -> Option<&UntestableReason> {
        let id = self.classes.full().id_of(fault)?;
        let rep = self.classes.representative(id);
        self.untestable.get(&(rep.index() as u32))
    }

    /// Every statically-untestable class representative with its reason,
    /// in fault-id order.
    pub fn untestable_faults(&self) -> Vec<(Fault, &UntestableReason)> {
        let mut out: Vec<(FaultId, &UntestableReason)> = self
            .untestable
            .iter()
            .map(|(&rep, r)| (FaultId::from_index(rep as usize), r))
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out.into_iter()
            .map(|(id, r)| (self.classes.full().fault(id), r))
            .collect()
    }

    /// Splits `faults` into targets / dominance-covered / untestable.
    /// Faults outside the analyzed universe (never the case for lists built
    /// over the same circuit) stay targets.
    pub fn partition(&self, faults: &FaultList) -> FaultPartition {
        let mut targets = Vec::new();
        let mut dominated = Vec::new();
        let mut untestable = Vec::new();
        for (id, f) in faults.iter() {
            let Some(full_id) = self.classes.full().id_of(f) else {
                targets.push(id);
                continue;
            };
            let rep = self.classes.representative(full_id);
            if let Some(reason) = self.untestable.get(&(rep.index() as u32)) {
                untestable.push((id, reason.clone()));
                continue;
            }
            let t = self.cover.target(rep);
            if t != rep {
                let cf = self.classes.full().fault(t);
                if let Some(cid) = faults.id_of(cf) {
                    if cid != id {
                        dominated.push((id, cid));
                        continue;
                    }
                }
            }
            targets.push(id);
        }
        FaultPartition {
            targets,
            dominated,
            untestable,
        }
    }

    /// Re-verifies every untestability claim from scratch (fresh implication
    /// engine, stored reasons) and the partition bookkeeping over the
    /// collapsed universe. Returns the number of obligations checked.
    ///
    /// # Errors
    ///
    /// Returns the first failing obligation's description.
    pub fn verify(&self, circuit: &Circuit) -> Result<usize, String> {
        let mut engine = ImplicationEngine::build(circuit);
        let mut checked = 0usize;
        for (fault, reason) in self.untestable_faults() {
            reason
                .verify(circuit, &self.view, &mut engine)
                .map_err(|e| format!("{}: {e}", fault.display_name(circuit)))?;
            checked += 1;
        }
        let collapsed = collapsed_list(&self.classes);
        let part = self.partition(&collapsed);
        let total = part.targets().len() + part.dominated().len() + part.untestable().len();
        if total != collapsed.len() {
            return Err(format!(
                "partition covers {total} of {} collapsed faults",
                collapsed.len()
            ));
        }
        for &(id, cid) in part.dominated() {
            if id == cid {
                return Err("fault recorded as dominated by itself".into());
            }
            if part.untestable().iter().any(|&(u, _)| u == cid) {
                return Err("dominance cover resolved to an untestable fault".into());
            }
            checked += 1;
        }
        Ok(checked + 1)
    }
}

/// The collapsed fault list implied by an existing class partition (avoids
/// recomputing the union-find).
fn collapsed_list(classes: &FaultClasses) -> FaultList {
    FaultList::from_faults(
        classes
            .full()
            .ids()
            .filter(|&id| classes.representative(id) == id)
            .map(|id| classes.full().fault(id)),
    )
}

/// Dominator-tree stem/branch covers: a multi-fanout stem whose branches
/// include exactly one with an observable consumer (or one feeding a
/// flip-flop) behaves identically to that branch's fault — errors on the
/// other branches are invisible in every frame — so the stem fault is
/// covered by the branch fault.
fn stem_branch_edges(
    circuit: &Circuit,
    view: &StructView,
    classes: &FaultClasses,
) -> Vec<(FaultId, FaultId)> {
    let mut edges = Vec::new();
    for id in (0..circuit.net_count()).map(NetId::from_index) {
        let fanouts = circuit.fanouts(id);
        if fanouts.len() < 2 || circuit.is_output(id) || !view.is_observable(id) {
            continue;
        }
        let mut live = fanouts.iter().filter(|p| {
            matches!(circuit.net(p.net).driver(), Driver::Dff { .. }) || view.is_observable(p.net)
        });
        let (Some(pin), None) = (live.next(), live.next()) else {
            continue;
        };
        for v in limscan_fault::StuckAt::both() {
            let covered = classes.representative(
                classes
                    .full()
                    .id_of(Fault::stem(id, v))
                    .expect("stem in full universe"),
            );
            let by = classes.representative(
                classes
                    .full()
                    .id_of(Fault::branch(*pin, v))
                    .expect("branch in full universe"),
            );
            if covered != by {
                edges.push((covered, by));
            }
        }
    }
    edges
}

/// A fault list split into ATPG targets, dominance-covered faults, and
/// statically-untestable faults. All ids refer to the list given to
/// [`StaticAnalysis::partition`].
#[derive(Clone, Debug)]
pub struct FaultPartition {
    targets: Vec<FaultId>,
    dominated: Vec<(FaultId, FaultId)>,
    untestable: Vec<(FaultId, UntestableReason)>,
}

impl FaultPartition {
    /// Faults to target directly (includes every dominance cover).
    pub fn targets(&self) -> &[FaultId] {
        &self.targets
    }

    /// `(fault, cover)` pairs: the fault is expected to fall out as a side
    /// effect of detecting its cover; a safety-net ATPG pass may still
    /// target it afterwards.
    pub fn dominated(&self) -> &[(FaultId, FaultId)] {
        &self.dominated
    }

    /// Statically-untestable faults with their proofs; excluded from the
    /// target universe and reported separately in coverage accounting.
    pub fn untestable(&self) -> &[(FaultId, UntestableReason)] {
        &self.untestable
    }

    /// Ids of the untestable faults, in list order.
    pub fn untestable_ids(&self) -> Vec<FaultId> {
        self.untestable.iter().map(|&(id, _)| id).collect()
    }

    /// Materializes the pruned universe: the original list minus untestable
    /// faults, plus the two-tier ATPG targeting order over the new ids.
    pub fn pruned(&self, original: &FaultList) -> PrunedUniverse {
        let drop: std::collections::HashSet<usize> =
            self.untestable.iter().map(|&(id, _)| id.index()).collect();
        let faults = FaultList::from_faults(
            original
                .iter()
                .filter(|(id, _)| !drop.contains(&id.index()))
                .map(|(_, f)| f),
        );
        let map = |ids: &[FaultId]| -> Vec<FaultId> {
            ids.iter()
                .map(|&id| {
                    faults
                        .id_of(original.fault(id))
                        .expect("non-untestable fault kept in pruned list")
                })
                .collect()
        };
        let primary = map(&self.targets);
        let deferred: Vec<FaultId> = self
            .dominated
            .iter()
            .map(|&(id, _)| {
                faults
                    .id_of(original.fault(id))
                    .expect("dominated fault kept in pruned list")
            })
            .collect();
        PrunedUniverse {
            faults,
            primary,
            deferred,
        }
    }
}

/// A fault list with statically-untestable faults removed and a two-tier
/// targeting order: `primary` faults are targeted first; `deferred` faults
/// (dominance-covered) are usually detected along the way and only get
/// their own ATPG episodes if still undetected afterwards.
#[derive(Clone, Debug)]
pub struct PrunedUniverse {
    /// The pruned fault list (original order, untestable removed).
    pub faults: FaultList,
    /// Ids in `faults` to target first.
    pub primary: Vec<FaultId>,
    /// Ids in `faults` to target only as a safety net.
    pub deferred: Vec<FaultId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_fault::StuckAt;
    use limscan_netlist::{benchmarks, CircuitBuilder, GateKind};

    fn diamond() -> Circuit {
        // z = AND(NOT(i), BUF(i)) is constant 0; i's fanout reconverges at z.
        let mut b = CircuitBuilder::new("diamond");
        b.input("i");
        b.gate("n", GateKind::Not, &["i"]).unwrap();
        b.gate("p", GateKind::Buf, &["i"]).unwrap();
        b.gate("z", GateKind::And, &["n", "p"]).unwrap();
        b.output("z");
        b.build().unwrap()
    }

    #[test]
    fn dominators_find_the_reconvergence_gate() {
        let c = diamond();
        let view = StructView::build(&c);
        let i = c.find_net("i").unwrap();
        let z = c.find_net("z").unwrap();
        assert_eq!(view.idom(i), DomLink::Net(z));
        assert_eq!(view.idom(z), DomLink::Sink);
        assert_eq!(view.dominators(i).collect::<Vec<_>>(), vec![z]);
        assert!(view.dom_tree_depth() >= 2);
    }

    #[test]
    fn ffr_partition_folds_single_fanout_chains() {
        let c = diamond();
        let view = StructView::build(&c);
        let n = c.find_net("n").unwrap();
        let z = c.find_net("z").unwrap();
        // n has a single consumer (z): same FFR as z.
        assert_eq!(view.ffr_head(n), z);
        // i fans out: its own head.
        let i = c.find_net("i").unwrap();
        assert_eq!(view.ffr_head(i), i);
        assert_eq!(view.ffr_count(), 2);
    }

    #[test]
    fn implication_engine_proves_the_constant() {
        let c = diamond();
        let mut engine = ImplicationEngine::build(&c);
        let z = c.find_net("z").unwrap();
        assert_eq!(engine.constant(z), Some(false));
        // i is free: not constant, and both polarities are consistent.
        let i = c.find_net("i").unwrap();
        assert_eq!(engine.constant(i), None);
        assert!(engine.consistent(&[(i, true)]));
        assert!(engine.consistent(&[(i, false)]));
        assert!(!engine.consistent(&[(z, true)]));
    }

    #[test]
    fn constant_net_yields_an_untestable_fault() {
        let c = diamond();
        let analysis = StaticAnalysis::run(&c);
        let z = c.find_net("z").unwrap();
        // z/sa0 cannot be activated (z is constant 0). The class
        // representative may be an equivalent upstream branch fault, so the
        // reason can be either a constant-activation or a requirement
        // conflict — both are machine-checked by `verify`.
        assert!(analysis
            .untestable_reason(Fault::stem(z, StuckAt::Zero))
            .is_some());
        // z/sa1 flips a constant-0 output: very much testable.
        assert!(analysis
            .untestable_reason(Fault::stem(z, StuckAt::One))
            .is_none());
        assert!(analysis.verify(&c).is_ok());
    }

    #[test]
    fn dangling_cone_is_unobservable() {
        let mut b = CircuitBuilder::new("dangle");
        b.input("a");
        b.input("c");
        b.gate("y", GateKind::And, &["a", "c"]).unwrap();
        b.gate("dead", GateKind::Or, &["a", "c"]).unwrap();
        b.output("y");
        let c = b.build().unwrap();
        let analysis = StaticAnalysis::run(&c);
        let dead = c.find_net("dead").unwrap();
        for v in StuckAt::both() {
            assert!(matches!(
                analysis.untestable_reason(Fault::stem(dead, v)),
                Some(UntestableReason::Unobservable { .. })
            ));
        }
        assert!(analysis.verify(&c).is_ok());
    }

    #[test]
    fn partition_is_exhaustive_and_consistent_on_benchmarks() {
        for name in ["s27", "s298", "b01"] {
            let c = benchmarks::load(name).unwrap();
            let analysis = StaticAnalysis::run(&c);
            let faults = FaultList::collapsed(&c);
            let part = analysis.partition(&faults);
            assert_eq!(
                part.targets().len() + part.dominated().len() + part.untestable().len(),
                faults.len(),
                "{name}: partition must cover the list"
            );
            let pruned = part.pruned(&faults);
            assert_eq!(
                pruned.faults.len(),
                faults.len() - part.untestable().len(),
                "{name}"
            );
            assert_eq!(pruned.primary.len(), part.targets().len(), "{name}");
            assert_eq!(pruned.deferred.len(), part.dominated().len(), "{name}");
            assert!(analysis.verify(&c).is_ok(), "{name}");
            let s = analysis.summary();
            assert_eq!(
                s.pruned_targets,
                part.targets().len(),
                "{name}: summary matches partition"
            );
            assert!(s.dominance_targets <= s.collapsed_faults, "{name}");
            assert!(s.ffr_count > 0 && s.dom_tree_depth > 0, "{name}");
        }
    }

    #[test]
    fn contrapositive_learning_records_edges() {
        let c = benchmarks::s27();
        let engine = ImplicationEngine::build(&c);
        assert!(engine.edge_count() > 0);
        // Spot-check symmetry of at least one recorded contrapositive.
        let mut found = false;
        'outer: for i in 0..c.net_count() {
            let n = NetId::from_index(i);
            for v in [false, true] {
                for (m, w) in engine.implications_of(n, v) {
                    if engine.implications_of(m, !w).contains(&(n, !v)) {
                        found = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(found, "at least one contrapositive pair is recorded");
    }
}
