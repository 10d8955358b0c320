//! Wide-word good-circuit simulation: [`LANES`] independent sequential
//! trajectories of one circuit, evaluated together.
//!
//! Where [`SeqFaultSim`](crate::SeqFaultSim) spends its lanes on faults of
//! a single trajectory, [`LockstepSim`] spends them on *trajectories* of
//! the fault-free circuit: every lane carries its own input sequence and
//! its own flip-flop state. This is the engine under the equivalence
//! checker — two `LockstepSim`s over two circuit variants are driven with
//! the same per-lane stimulus and their output planes compared exactly
//! ([`WideWord::diff_mask`]), so one pass over the compiled flat gate
//! array checks 256 random rounds at once.
//!
//! The evaluation is a single linear sweep of the flat op stream, which is
//! topological within each connected component and component-contiguous
//! across them, so results are bit-identical to the scalar
//! [`SeqGoodSim`](crate::SeqGoodSim) in every lane (the cross-check tests
//! below assert exactly that).

use limscan_netlist::Circuit;

use crate::engine::run_span;
use crate::flat::Topology;
use crate::parallel::{WideWord, LANES, LANE_WORDS};

/// A [`LANES`]-lane sequential good-circuit simulator.
///
/// Each lane is an independent trajectory: its own inputs per time unit,
/// its own carried flip-flop state (initially all-X). Outputs of the most
/// recent [`step`](Self::step) are exposed as per-output wide words.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_sim::{LockstepSim, Logic, WideWord, LANE_WORDS};
///
/// let c = benchmarks::s27();
/// let mut sim = LockstepSim::new(&c);
/// // Lane 0 applies 1011, every other lane applies X's.
/// let mut inputs = vec![WideWord::<LANE_WORDS>::ALL_X; sim.n_inputs()];
/// for (i, v) in [Logic::One, Logic::Zero, Logic::One, Logic::One]
///     .into_iter()
///     .enumerate()
/// {
///     inputs[i].set_lane(0, v);
/// }
/// sim.step(&inputs);
/// assert_eq!(sim.outputs().len(), 1);
/// ```
#[derive(Debug)]
pub struct LockstepSim {
    topo: Topology,
    /// Value buffer of the flat kernel: one wide word per slot.
    vals: Vec<WideWord<LANE_WORDS>>,
    /// Per flip-flop present state.
    state: Vec<WideWord<LANE_WORDS>>,
    /// Primary output planes of the most recent step.
    outs: Vec<WideWord<LANE_WORDS>>,
}

impl LockstepSim {
    /// Number of independent trajectories carried per simulator.
    pub const LANES: usize = LANES;

    /// Compiles `circuit` and starts all lanes in the all-X state.
    pub fn new(circuit: &Circuit) -> Self {
        let topo = Topology::build(circuit);
        let n_slots = topo.n_slots;
        let n_ffs = topo.dff_q.len();
        let n_pos = topo.po.len();
        LockstepSim {
            topo,
            vals: vec![WideWord::ALL_X; n_slots],
            state: vec![WideWord::ALL_X; n_ffs],
            outs: vec![WideWord::ALL_X; n_pos],
        }
    }

    /// Number of primary inputs (words expected by [`step`](Self::step)).
    pub fn n_inputs(&self) -> usize {
        self.topo.pi.len()
    }

    /// Number of primary outputs.
    pub fn n_outputs(&self) -> usize {
        self.outs.len()
    }

    /// Number of flip-flops.
    pub fn n_ffs(&self) -> usize {
        self.state.len()
    }

    /// Returns every lane to the all-X power-up state.
    pub fn reset(&mut self) {
        self.state.fill(WideWord::ALL_X);
        self.outs.fill(WideWord::ALL_X);
    }

    /// Present flip-flop state, one wide word per flip-flop in circuit
    /// declaration order.
    pub fn state(&self) -> &[WideWord<LANE_WORDS>] {
        &self.state
    }

    /// Overwrites the present state of flip-flop `ff` across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `ff` is out of range.
    pub fn set_state(&mut self, ff: usize, word: WideWord<LANE_WORDS>) {
        self.state[ff] = word;
    }

    /// Applies one input vector per lane and advances one time unit.
    ///
    /// `inputs[i]` carries the per-lane values of primary input `i` (in
    /// circuit declaration order). Afterwards [`outputs`](Self::outputs)
    /// holds this time unit's primary output planes and the flip-flop
    /// state has advanced.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`n_inputs`](Self::n_inputs).
    pub fn step(&mut self, inputs: &[WideWord<LANE_WORDS>]) {
        assert_eq!(
            inputs.len(),
            self.topo.pi.len(),
            "one input word per primary input"
        );
        for (&slot, &w) in self.topo.pi.iter().zip(inputs) {
            self.vals[slot as usize] = w;
        }
        for (&slot, &w) in self.topo.dff_q.iter().zip(&self.state) {
            self.vals[slot as usize] = w;
        }
        run_span(&self.topo.ops, &mut self.vals, 0, self.topo.ops.len());
        for (s, &slot) in self.state.iter_mut().zip(&self.topo.dff_d) {
            *s = self.vals[slot as usize];
        }
        for (o, &slot) in self.outs.iter_mut().zip(&self.topo.po) {
            *o = self.vals[slot as usize];
        }
    }

    /// Primary output planes of the most recent step, one wide word per
    /// output in circuit declaration order (all-X before the first step).
    pub fn outputs(&self) -> &[WideWord<LANE_WORDS>] {
        &self.outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good::SeqGoodSim;
    use crate::logic::Logic;
    use crate::sequence::TestSequence;
    use limscan_netlist::benchmarks;

    /// Deterministic per-lane stimulus: a cheap LCG over (seed, lane, time,
    /// input index) mapped onto {0, 1, X}.
    fn stim(seed: u64, lane: usize, t: usize, i: usize) -> Logic {
        let mut x = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((lane as u64) << 24 ^ (t as u64) << 12 ^ i as u64);
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 32;
        match x % 4 {
            0 => Logic::Zero,
            1 => Logic::One,
            2 => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Every lane of the wide simulator must agree with an independent
    /// scalar [`SeqGoodSim`] run of that lane's stimulus.
    #[test]
    fn lanes_match_scalar_good_sim() {
        for name in ["s27", "s298", "b01"] {
            let c = benchmarks::load(name).unwrap();
            let n_in = c.inputs().len();
            let steps = 6;
            let lanes_checked = [0usize, 1, 63, 64, 127, LANES - 1];

            let mut wide = LockstepSim::new(&c);
            let mut wide_outs: Vec<Vec<WideWord<LANE_WORDS>>> = Vec::new();
            for t in 0..steps {
                let mut inputs = vec![WideWord::<LANE_WORDS>::ALL_X; n_in];
                for (i, word) in inputs.iter_mut().enumerate() {
                    for lane in 0..LANES {
                        word.set_lane(lane, stim(7, lane, t, i));
                    }
                }
                wide.step(&inputs);
                wide_outs.push(wide.outputs().to_vec());
            }

            for &lane in &lanes_checked {
                let mut seq = TestSequence::new(n_in);
                for t in 0..steps {
                    seq.push((0..n_in).map(|i| stim(7, lane, t, i)).collect::<Vec<_>>());
                }
                let mut scalar = SeqGoodSim::new(&c);
                for (t, vector) in seq.iter().enumerate() {
                    scalar.step(vector);
                    for (o, &po) in c.outputs().iter().enumerate() {
                        assert_eq!(
                            wide_outs[t][o].lane(lane),
                            scalar.value(po),
                            "{name} lane {lane} t {t} output {o}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_state_is_honoured_per_lane() {
        let c = benchmarks::s27();
        let mut sim = LockstepSim::new(&c);
        assert_eq!(sim.n_ffs(), 3);
        // Lane 5 starts from 1,0,1; everything else stays X.
        let seeded = [Logic::One, Logic::Zero, Logic::One];
        for (ff, v) in seeded.into_iter().enumerate() {
            let mut w = WideWord::<LANE_WORDS>::ALL_X;
            w.set_lane(5, v);
            sim.set_state(ff, w);
        }
        let inputs = vec![WideWord::<LANE_WORDS>::broadcast(Logic::Zero); sim.n_inputs()];
        sim.step(&inputs);

        let mut scalar = SeqGoodSim::with_state(&c, seeded.to_vec());
        scalar.step(&[Logic::Zero; 4]);
        assert_eq!(sim.outputs()[0].lane(5), scalar.value(c.outputs()[0]));

        // A lane that was not seeded behaves like the all-X power-up run.
        let mut cold = SeqGoodSim::new(&c);
        cold.step(&[Logic::Zero; 4]);
        assert_eq!(sim.outputs()[0].lane(9), cold.value(c.outputs()[0]));
    }

    #[test]
    fn reset_returns_all_lanes_to_x() {
        let c = benchmarks::s27();
        let mut sim = LockstepSim::new(&c);
        let inputs = vec![WideWord::<LANE_WORDS>::broadcast(Logic::One); sim.n_inputs()];
        sim.step(&inputs);
        sim.reset();
        assert!(sim.state().iter().all(|w| *w == WideWord::ALL_X));
        assert!(sim.outputs().iter().all(|w| *w == WideWord::ALL_X));
    }

    #[test]
    fn diff_mask_flags_differing_circuits() {
        // s27 against a copy with one gate kind flipped must diverge on
        // some lane within a few steps of binary stimulus.
        let c = benchmarks::s27();
        let mut text = limscan_netlist::bench_format::write(&c);
        assert!(text.contains("G9 = NAND(G16, G15)"));
        text = text.replace("G9 = NAND(G16, G15)", "G9 = AND(G16, G15)");
        let mutant = limscan_netlist::bench_format::parse("s27m", &text).unwrap();

        let mut a = LockstepSim::new(&c);
        let mut b = LockstepSim::new(&mutant);
        let mut diverged = false;
        for t in 0..8 {
            let mut inputs = vec![WideWord::<LANE_WORDS>::ALL_X; a.n_inputs()];
            for (i, word) in inputs.iter_mut().enumerate() {
                for lane in 0..LANES {
                    let v = if stim(11, lane, t, i) == Logic::X {
                        Logic::One
                    } else {
                        stim(11, lane, t, i)
                    };
                    word.set_lane(lane, v);
                }
            }
            a.step(&inputs);
            b.step(&inputs);
            for (wa, wb) in a.outputs().iter().zip(b.outputs()) {
                if wa.diff_mask(wb) != [0u64; LANE_WORDS] {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "single-gate mutation must be visible");
    }
}
