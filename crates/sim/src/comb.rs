//! Parallel-fault *combinational frame* simulation.
//!
//! The conventional (first/second approach) generators and the scan
//! test-set compactor evaluate one frame at a time under the conventional
//! semantics: present state loaded cleanly, primary outputs observed, next
//! state observed by the eventual scan-out. Doing that fault-by-fault with
//! scalar evaluation is the dominant cost of the baselines; this module
//! batches [`LANES`] faults per wide word and evaluates frames by a dense
//! branchless sweep of the compiled flat op stream — the same kernel
//! machinery as the sequential engine, but without state carry-over.

use std::sync::Arc;

use limscan_fault::{FaultId, FaultList};
use limscan_netlist::Circuit;

use crate::engine::sweep_ops;
use crate::flat::{Topology, WideInjection};
use crate::frame::FrameSim;
use crate::logic::Logic;
use crate::parallel::{mask, WideWord, LANES, LANE_WORDS};

/// Parallel-fault evaluator for single frames of a fixed circuit and fault
/// list. Construct once, call [`detects`](Self::detects) per frame.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_fault::FaultList;
/// use limscan_sim::{CombFaultSim, Logic};
///
/// let c = benchmarks::s27();
/// let faults = FaultList::collapsed(&c);
/// let mut sim = CombFaultSim::new(&c, &faults);
/// let state = vec![Logic::Zero; 3];
/// let vector = vec![Logic::One, Logic::Zero, Logic::Zero, Logic::One];
/// let detected = sim.detects(&state, &vector);
/// assert_eq!(detected.len(), faults.len());
/// ```
pub struct CombFaultSim<'a> {
    circuit: &'a Circuit,
    faults: &'a FaultList,
    topo: Arc<Topology>,
    inj: WideInjection<LANE_WORDS>,
    /// Wide value slots (nets + shared temps) for the dense sweep.
    vals: Vec<WideWord<LANE_WORDS>>,
    /// Fault-free frame values, by net.
    good: Vec<Logic>,
    /// Fault-free next state, by flip-flop.
    good_next: Vec<Logic>,
    /// Intra-gate scratch for the scalar flat evaluation.
    tmp: Vec<Logic>,
}

impl<'a> CombFaultSim<'a> {
    /// Creates an evaluator for the given circuit and fault list.
    pub fn new(circuit: &'a Circuit, faults: &'a FaultList) -> Self {
        let topo = Arc::new(Topology::build(circuit));
        let inj = WideInjection::new(
            circuit.net_count(),
            topo.ops.len(),
            circuit.comb_order().len(),
            circuit.dffs().len(),
        );
        CombFaultSim {
            circuit,
            faults,
            inj,
            vals: vec![WideWord::ALL_X; topo.n_slots],
            good: vec![Logic::X; circuit.net_count()],
            good_next: vec![Logic::X; circuit.dffs().len()],
            tmp: vec![Logic::X; topo.n_temps],
            topo,
        }
    }

    /// A single-frame evaluator sharing this simulator's compiled circuit.
    pub fn frame_sim(&self) -> FrameSim<'a> {
        FrameSim::with_topology(self.circuit, Arc::clone(&self.topo))
    }

    /// Evaluates one frame under the conventional semantics and returns,
    /// per fault, whether it is detected (primary-output conflict or
    /// next-state conflict).
    ///
    /// # Panics
    ///
    /// Panics if `state` / `vector` widths do not match the circuit.
    pub fn detects(&mut self, state: &[Logic], vector: &[Logic]) -> Vec<bool> {
        let ids: Vec<FaultId> = self.faults.ids().collect();
        self.detects_among(&ids, state, vector)
    }

    /// Like [`detects`](Self::detects) but only for the given fault ids;
    /// the result is aligned with `ids`.
    ///
    /// # Panics
    ///
    /// Panics if `state` / `vector` widths do not match the circuit.
    pub fn detects_among(
        &mut self,
        ids: &[FaultId],
        state: &[Logic],
        vector: &[Logic],
    ) -> Vec<bool> {
        let circuit = self.circuit;
        assert_eq!(vector.len(), circuit.inputs().len(), "vector width");
        assert_eq!(state.len(), circuit.dffs().len(), "state width");
        let topo = &self.topo;
        topo.step_scalar(
            vector,
            state,
            &mut self.good,
            &mut self.good_next,
            &mut self.tmp,
        );

        let mut out = vec![false; ids.len()];
        for (chunk_start, batch) in ids.chunks(LANES).enumerate().map(|(k, b)| (k * LANES, b)) {
            self.inj.load(circuit, &self.topo, self.faults, batch);
            let full_mask = mask::full::<LANE_WORDS>(batch.len());

            // Sources with stem forces, then one dense sweep of the whole
            // op stream (a frame touches every component, so there is no
            // point restricting it).
            for (&pi, &v) in topo.pi.iter().zip(vector) {
                let pi = pi as usize;
                self.vals[pi] = self.inj.force_src(pi, WideWord::broadcast(v));
            }
            for (&q, &v) in topo.dff_q.iter().zip(state) {
                let q = q as usize;
                self.vals[q] = self.inj.force_src(q, WideWord::broadcast(v));
            }
            sweep_ops(
                &topo.ops,
                &mut self.vals,
                &self.inj,
                0,
                topo.ops.len() as u32,
            );

            let mut detected = [0u64; LANE_WORDS];
            for &o in &topo.po {
                let good = self.good[o as usize];
                if good.is_binary() {
                    let c = self.vals[o as usize].conflict_mask(&WideWord::broadcast(good));
                    mask::or_assign(&mut detected, &c);
                }
            }
            for (j, (&d, &good)) in topo.dff_d.iter().zip(&self.good_next).enumerate() {
                if !good.is_binary() {
                    continue;
                }
                let w = self.inj.force_ff(j, self.vals[d as usize]);
                mask::or_assign(&mut detected, &w.conflict_mask(&WideWord::broadcast(good)));
            }
            let detected = mask::and(&detected, &full_mask);
            mask::for_each_set(&detected, |lane| out[chunk_start + lane] = true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good::{eval_comb, eval_comb_with, next_state};
    use limscan_netlist::benchmarks;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Scalar reference under the same conventional semantics.
    fn serial_frame(
        circuit: &Circuit,
        faults: &FaultList,
        state: &[Logic],
        vector: &[Logic],
    ) -> Vec<bool> {
        let mut gv = vec![Logic::X; circuit.net_count()];
        let mut bv = vec![Logic::X; circuit.net_count()];
        let load = |vals: &mut Vec<Logic>| {
            vals.fill(Logic::X);
            for (&pi, &v) in circuit.inputs().iter().zip(vector) {
                vals[pi.index()] = v;
            }
            for (&q, &v) in circuit.dffs().iter().zip(state) {
                vals[q.index()] = v;
            }
        };
        load(&mut gv);
        eval_comb(circuit, &mut gv);
        let gn = next_state(circuit, &gv, None);
        faults
            .iter()
            .map(|(_, f)| {
                load(&mut bv);
                eval_comb_with(circuit, &mut bv, Some(f));
                let po = circuit
                    .outputs()
                    .iter()
                    .any(|&o| gv[o.index()].conflicts(bv[o.index()]));
                let bn = next_state(circuit, &bv, Some(f));
                po || gn.iter().zip(&bn).any(|(g, b)| g.conflicts(*b))
            })
            .collect()
    }

    #[test]
    fn parallel_frame_matches_serial() {
        let c = benchmarks::s27();
        let faults = FaultList::full(&c);
        let mut sim = CombFaultSim::new(&c, &faults);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..30 {
            let state: Vec<Logic> = (0..3).map(|_| Logic::from_bool(rng.gen())).collect();
            let vector: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.gen())).collect();
            assert_eq!(
                sim.detects(&state, &vector),
                serial_frame(&c, &faults, &state, &vector)
            );
        }
    }

    #[test]
    fn parallel_frame_matches_serial_with_x_values() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let mut sim = CombFaultSim::new(&c, &faults);
        let mut rng = StdRng::seed_from_u64(5);
        let pick = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => Logic::Zero,
            1 => Logic::One,
            _ => Logic::X,
        };
        for _ in 0..30 {
            let state: Vec<Logic> = (0..3).map(|_| pick(&mut rng)).collect();
            let vector: Vec<Logic> = (0..4).map(|_| pick(&mut rng)).collect();
            assert_eq!(
                sim.detects(&state, &vector),
                serial_frame(&c, &faults, &state, &vector)
            );
        }
    }

    #[test]
    fn detects_among_subsets_align() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let mut sim = CombFaultSim::new(&c, &faults);
        let state = vec![Logic::One, Logic::Zero, Logic::One];
        let vector = vec![Logic::Zero, Logic::One, Logic::One, Logic::Zero];
        let all = sim.detects(&state, &vector);
        let subset: Vec<FaultId> = faults.ids().step_by(3).collect();
        let partial = sim.detects_among(&subset, &state, &vector);
        for (k, &id) in subset.iter().enumerate() {
            assert_eq!(partial[k], all[id.index()]);
        }
    }

    #[test]
    fn batch_boundary_past_wide_width_matches_serial() {
        // More faults than one wide word holds: the second batch's lane
        // bookkeeping must stay aligned with the id list.
        let c = benchmarks::s27();
        let full = FaultList::full(&c);
        let faults =
            FaultList::from_faults(full.as_slice().iter().copied().cycle().take(LANES + 1));
        let mut sim = CombFaultSim::new(&c, &faults);
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let state: Vec<Logic> = (0..3).map(|_| Logic::from_bool(rng.gen())).collect();
            let vector: Vec<Logic> = (0..4).map(|_| Logic::from_bool(rng.gen())).collect();
            assert_eq!(
                sim.detects(&state, &vector),
                serial_frame(&c, &faults, &state, &vector)
            );
        }
    }
}
