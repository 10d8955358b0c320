//! Full-response fault dictionaries and syndrome-based diagnosis.
//!
//! A fault dictionary records, for every fault, *all* the (time unit,
//! primary output) pairs at which a test sequence exposes it — not just the
//! first, which is all [`SeqFaultSim`](crate::SeqFaultSim) tracks. With the
//! paper's flat sequences this includes failures observed on `scan_out`
//! during limited scan operations, so the dictionary is exactly what a
//! tester log can be matched against.

use limscan_fault::{FaultId, FaultList};
use limscan_netlist::Circuit;

use crate::dense::DenseBatch;
use crate::good::SeqGoodSim;
use crate::parallel::mask;
use crate::sequence::TestSequence;

/// One observed failure: the time unit and the primary output (by position
/// in `circuit.outputs()`) where the faulty value contradicted the
/// fault-free one.
pub type Syndrome = (u32, u16);

/// A full-response fault dictionary over a (circuit, fault list, sequence)
/// triple.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_fault::FaultList;
/// use limscan_sim::{FaultDictionary, Logic, TestSequence};
///
/// let c = benchmarks::s27();
/// let faults = FaultList::collapsed(&c);
/// let mut seq = TestSequence::new(c.inputs().len());
/// for i in 0..20u32 {
///     seq.push((0..4).map(|j| Logic::from_bool((i + j) % 3 == 0)).collect());
/// }
/// let dict = FaultDictionary::build(&c, &faults, &seq, 16);
/// // Diagnosing a fault's own syndrome puts it at rank 1.
/// let (id, fault) = faults.iter().next().unwrap();
/// if !dict.syndrome(id).is_empty() {
///     let ranked = dict.diagnose(dict.syndrome(id));
///     assert_eq!(faults.fault(ranked[0].0), fault);
/// }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct FaultDictionary {
    syndromes: Vec<Vec<Syndrome>>,
}

impl FaultDictionary {
    /// Simulates `seq` over every fault *without fault dropping*, recording
    /// up to `cap_per_fault` syndromes per fault (0 means unlimited).
    ///
    /// # Panics
    ///
    /// Panics if the sequence width differs from the circuit's input count.
    pub fn build(
        circuit: &Circuit,
        faults: &FaultList,
        seq: &TestSequence,
        cap_per_fault: usize,
    ) -> Self {
        assert_eq!(
            seq.width(),
            circuit.inputs().len(),
            "sequence width does not match circuit inputs"
        );
        let cap = if cap_per_fault == 0 {
            usize::MAX
        } else {
            cap_per_fault
        };
        let good_po = SeqGoodSim::new(circuit).run(seq);

        let all: Vec<FaultId> = faults.ids().collect();
        let mut syndromes = vec![Vec::new(); faults.len()];
        let mut dense = DenseBatch::<1>::new(circuit);
        for batch in all.chunks(64) {
            dense.load(faults, batch);
            let mut capped = [0u64; 1];
            for (t, v) in seq.iter().enumerate() {
                for (oi, hits) in dense.step(v, &good_po[t]).iter().enumerate() {
                    let fresh = mask::and_not(hits, &capped);
                    mask::for_each_set(&fresh, |lane| {
                        let s = &mut syndromes[batch[lane].index()];
                        s.push((t as u32, oi as u16));
                        if s.len() >= cap {
                            mask::set(&mut capped, lane);
                        }
                    });
                }
                if capped == dense.full_mask() {
                    break;
                }
            }
        }

        FaultDictionary { syndromes }
    }

    /// The recorded syndromes of a fault, in time order.
    pub fn syndrome(&self, f: FaultId) -> &[Syndrome] {
        &self.syndromes[f.index()]
    }

    /// Number of faults with at least one syndrome (= detected faults).
    pub fn detected_count(&self) -> usize {
        self.syndromes.iter().filter(|s| !s.is_empty()).count()
    }

    /// Ranks candidate faults against an observed failure log by Jaccard
    /// similarity of syndrome sets; ties broken by fault id. Faults with no
    /// overlap are omitted.
    pub fn diagnose(&self, observed: &[Syndrome]) -> Vec<(FaultId, f64)> {
        let mut obs: Vec<Syndrome> = observed.to_vec();
        obs.sort_unstable();
        obs.dedup();
        let mut ranked: Vec<(FaultId, f64)> = self
            .syndromes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                if s.is_empty() {
                    return None;
                }
                let inter = s.iter().filter(|x| obs.binary_search(x).is_ok()).count();
                if inter == 0 {
                    return None;
                }
                let union = s.len() + obs.len() - inter;
                Some((FaultId::from_index(i), inter as f64 / union as f64))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault_sim::tests::{exotic_circuit, random_sequence, random_x_sequence};
    use crate::fault_sim::{load_sources, SeqFaultSim};
    use crate::good::{eval_comb, eval_comb_with, next_state};
    use crate::logic::Logic;
    use limscan_fault::Fault;
    use limscan_netlist::benchmarks;

    #[test]
    fn first_syndrome_matches_first_detection() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 40, 5);
        let dict = FaultDictionary::build(&c, &faults, &seq, 0);
        let report = SeqFaultSim::run(&c, &faults, &seq);
        for id in faults.ids() {
            let first = dict.syndrome(id).first().map(|&(t, _)| t);
            assert_eq!(first, report.detected_at(id), "{id}");
        }
        assert_eq!(dict.detected_count(), report.detected_count());
    }

    /// Every syndrome of one fault by scalar simulation of that fault
    /// alone: `(t, output)` wherever the fault-free output is binary and the
    /// faulty one its complement, keeping the first `cap` (0 = all).
    fn scalar_syndromes(
        circuit: &Circuit,
        fault: Fault,
        seq: &TestSequence,
        cap: usize,
    ) -> Vec<Syndrome> {
        let n_ff = circuit.dffs().len();
        let (mut good_state, mut bad_state) = (vec![Logic::X; n_ff], vec![Logic::X; n_ff]);
        let mut gv = vec![Logic::X; circuit.net_count()];
        let mut bv = gv.clone();
        let mut out = Vec::new();
        for (t, v) in seq.iter().enumerate() {
            load_sources(circuit, &mut gv, v, &good_state);
            eval_comb(circuit, &mut gv);
            load_sources(circuit, &mut bv, v, &bad_state);
            eval_comb_with(circuit, &mut bv, Some(fault));
            for (oi, &o) in circuit.outputs().iter().enumerate() {
                if gv[o.index()].conflicts(bv[o.index()]) && (cap == 0 || out.len() < cap) {
                    out.push((t as u32, oi as u16));
                }
            }
            good_state = next_state(circuit, &gv, None);
            bad_state = next_state(circuit, &bv, Some(fault));
        }
        out
    }

    #[test]
    fn every_syndrome_matches_scalar_simulation() {
        let circuits = [benchmarks::s27(), exotic_circuit()];
        for c in &circuits {
            // Cycle the universe past 64 entries so batch boundaries fall
            // inside it; duplicated faults occupy independent lanes.
            let full = FaultList::full(c);
            let faults = FaultList::from_faults(full.as_slice().iter().copied().cycle().take(150));
            let seq = random_x_sequence(c.inputs().len(), 40, 13);
            for cap in [0, 3] {
                let dict = FaultDictionary::build(c, &faults, &seq, cap);
                for (id, fault) in faults.iter() {
                    assert_eq!(
                        dict.syndrome(id),
                        scalar_syndromes(c, fault, &seq, cap),
                        "fault {} on {} with cap {cap}",
                        fault.display_name(c),
                        c.name()
                    );
                }
                assert!(
                    faults.ids().any(|id| dict.syndrome(id).len() > 1),
                    "{}: no fault has a second syndrome to check",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn cap_limits_syndrome_length() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 60, 6);
        let dict = FaultDictionary::build(&c, &faults, &seq, 3);
        assert!(faults.ids().all(|id| dict.syndrome(id).len() <= 3));
    }

    #[test]
    fn self_diagnosis_ranks_the_fault_first_or_equivalent() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 50, 7);
        let dict = FaultDictionary::build(&c, &faults, &seq, 0);
        for id in faults.ids() {
            let s = dict.syndrome(id);
            if s.is_empty() {
                continue;
            }
            let ranked = dict.diagnose(s);
            let top_score = ranked[0].1;
            assert!(
                ranked
                    .iter()
                    .take_while(|(_, sc)| *sc == top_score)
                    .any(|(f, _)| *f == id),
                "fault {id} not among top-ranked candidates"
            );
        }
    }

    #[test]
    fn diagnose_empty_log_matches_nothing() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let seq = random_sequence(c.inputs().len(), 20, 8);
        let dict = FaultDictionary::build(&c, &faults, &seq, 0);
        assert!(dict.diagnose(&[]).is_empty());
    }
}
