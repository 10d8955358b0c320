//! Forward-time sequential test generation for scan circuits (Section 2).
//!
//! The generator builds one flat test sequence `T` by concatenating test
//! subsequences for yet-undetected target faults, exactly as the paper
//! describes: each subsequence is generated forward in time from the state
//! the circuit reached under `T` so far. `scan_sel` and `scan_inp` are
//! ordinary primary inputs throughout — scan shifts only appear where the
//! search (or the functional scan knowledge) places them, so all scan
//! operations come out *limited* unless a full load is actually needed.
//!
//! Per target fault the procedure layers three attempts:
//!
//! 1. **original process** — bounded forward search: single-time-frame
//!    PODEM from the current (good, faulty) state pair, interleaved with
//!    state-advancing vectors chosen by fault-effect scoring;
//! 2. **functional scan knowledge, observation side** — if the search left
//!    a fault effect latched in flip-flop `i`, append `N_SV - i` vectors
//!    with `scan_sel = 1` to shift it to `scan_out` (guaranteed detection,
//!    verified by fault simulation);
//! 3. **functional scan knowledge, justification side** — if activation
//!    from the reachable states fails, run PODEM with a free present state
//!    and justify the state it returns with a complete scan load.
//!
//! A fault that static analysis (`limscan-analyze`) proves untestable per
//! frame gets no attempts: every one of them would fail (DESIGN.md §18).
//! Its episode only draws the candidate vectors its state-advancing steps
//! would have drawn, so the random choices of every later episode, and
//! with them the whole sequence, stay as they were.
//!
//! Every committed subsequence is fault-simulated incrementally, so all
//! collateral detections drop faults from the target list.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan_analyze::StaticAnalysis;
use limscan_fault::{Fault, FaultId, FaultList};
use limscan_harness::{AtpgCursor, CancelToken, StopReason};
use limscan_netlist::NetId;
use limscan_obs::{Metric, ObsHandle, SpanKind};
use limscan_scan::ScanCircuit;
use limscan_sim::{DetectionReport, FrameSim, Logic, SeqFaultSim, TestSequence, WideWord};

use crate::podem::{pair_effects, pair_word, Observation, PodemEngine, PodemOptions, ODD_LANES};
use crate::scoap::Scoap;

/// Candidates scored per frame sweep: one lane pair each.
const PAIRS: usize = 32;

/// Per fault id of `faults`, whether `analysis` proves the fault
/// untestable per frame.
fn proven_untestable(analysis: &StaticAnalysis, faults: &FaultList) -> Vec<bool> {
    faults
        .iter()
        .map(|(_, f)| analysis.untestable_reason(f).is_some())
        .collect()
}

/// Tuning knobs for [`SequentialAtpg`].
#[derive(Clone, Debug)]
pub struct AtpgConfig {
    /// Seed for all randomised choices (fills, candidate vectors).
    pub seed: u64,
    /// Maximum forward-search depth (time frames) per target fault before
    /// falling back to scan-load justification.
    pub max_search_depth: usize,
    /// Candidate vectors evaluated per state-advancing step.
    pub random_candidates: usize,
    /// PODEM backtrack limit per frame.
    pub backtrack_limit: usize,
    /// Length of the initial random phase (0 disables it). The phase stops
    /// early when a chunk of vectors detects nothing new.
    pub random_phase_vectors: usize,
    /// Probability that a random-phase vector shifts the chain
    /// (`scan_sel = 1`).
    pub scan_sel_bias: f64,
    /// Enable the two functional-scan-knowledge fallbacks. Disabling them
    /// reproduces a plain non-scan sequential generator (the ablation the
    /// paper's `funct` column quantifies).
    pub use_scan_knowledge: bool,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0x2003,
            max_search_depth: 4,
            random_candidates: 8,
            backtrack_limit: 1_000,
            random_phase_vectors: 64,
            scan_sel_bias: 0.25,
            use_scan_knowledge: true,
        }
    }
}

/// Result of a [`SequentialAtpg`] run.
#[derive(Clone, Debug)]
pub struct AtpgOutcome {
    /// The generated flat test sequence over `C_scan`, fully specified.
    pub sequence: TestSequence,
    /// Detection report over the target fault list.
    pub report: DetectionReport,
    /// Faults whose detection used the shift-out fallback — the paper's
    /// `funct` column.
    pub funct_detected: usize,
    /// Episodes that justified a state through a complete scan load.
    pub scan_loads: usize,
    /// Target faults given up on (no subsequence found).
    pub aborted: usize,
}

/// Why and where a budgeted ATPG run stopped early.
///
/// Carried by the `Err` of [`SequentialAtpg::run_budgeted`]. The cursor
/// names an *episode boundary*: everything before it is committed to the
/// sequence, and resuming from it reproduces the uninterrupted run
/// bit-identically.
#[derive(Clone, Debug)]
pub struct AtpgStop {
    /// The budget condition that tripped.
    pub reason: StopReason,
    /// Episode-boundary state to resume from.
    pub cursor: AtpgCursor,
}

/// The Section 2 test generator.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_fault::FaultList;
/// use limscan_scan::ScanCircuit;
/// use limscan_atpg::{AtpgConfig, SequentialAtpg};
///
/// let sc = ScanCircuit::insert(&benchmarks::s27());
/// let faults = FaultList::collapsed(sc.circuit());
/// let outcome = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
/// assert!(outcome.report.coverage_percent() > 95.0);
/// ```
pub struct SequentialAtpg<'a> {
    scan: &'a ScanCircuit,
    faults: &'a FaultList,
    config: AtpgConfig,
    scoap: Scoap,
    obs: ObsHandle,
    target_order: Option<Vec<FaultId>>,
    /// Per fault id, whether static analysis proves the fault untestable
    /// per frame, from an analysis the caller handed over.
    proven: Option<Vec<bool>>,
}

enum EpisodeKind {
    /// Detected at a primary output by the forward search alone.
    Direct,
    /// Needed the shift-out fallback (counts toward `funct`).
    ShiftOut,
    /// Needed a scan-load justification; `shifted` tells whether the
    /// observation also needed the shift-out fallback.
    ScanLoad { shifted: bool },
}

impl<'a> SequentialAtpg<'a> {
    /// Creates a generator for the given scan circuit and target faults
    /// (which must be enumerated over `scan.circuit()`).
    pub fn new(scan: &'a ScanCircuit, faults: &'a FaultList, config: AtpgConfig) -> Self {
        let scoap = Scoap::compute(scan.circuit());
        SequentialAtpg {
            scan,
            faults,
            config,
            scoap,
            obs: ObsHandle::noop(),
            target_order: None,
            proven: None,
        }
    }

    /// Uses `analysis`, run on this generator's scan circuit, to find the
    /// faults with an untestability proof, instead of running the analysis
    /// again at the start of every run. The flow driver hands over the
    /// analysis it pruned the fault list with.
    #[must_use]
    pub fn with_analysis(mut self, analysis: &StaticAnalysis) -> Self {
        self.proven = Some(proven_untestable(analysis, self.faults));
        self
    }

    /// Overrides the order in which faults get their own generation
    /// episodes (default: fault-list order). Static analysis uses this for
    /// two-tier targeting — primary (undominated) faults first, then the
    /// dominance-covered faults, which are usually detected collaterally by
    /// then and cost no episode. Ids absent from `order` are never targeted
    /// directly, though collateral detection still covers them; resume
    /// cursors are only valid across runs using the same order.
    #[must_use]
    pub fn with_target_order(mut self, order: Vec<FaultId>) -> Self {
        self.target_order = Some(order);
        self
    }

    /// Attaches an observability scope: the run emits one span for the
    /// random phase and one `Episode`-kind span per deterministic-search
    /// episode, plus the `atpg_episodes` / `scan_loads` counters. The
    /// generator is single-threaded at the episode level, so all of its
    /// counters are deterministic.
    #[must_use]
    pub fn with_obs(mut self, obs: &ObsHandle) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Runs test generation over all target faults and returns the
    /// generated sequence plus statistics.
    pub fn run(&self) -> AtpgOutcome {
        match self.run_budgeted(&CancelToken::unlimited(), None) {
            Ok(outcome) => outcome,
            Err(stop) => unreachable!("unlimited token tripped: {}", stop.reason),
        }
    }

    /// [`run`](Self::run) under a [`CancelToken`], optionally resuming from
    /// an earlier stop's cursor.
    ///
    /// The token is consulted at episode boundaries only — an episode is
    /// the generator's atomic unit of work — charging one episode plus the
    /// episode's sequence growth in vectors (a fresh run also charges the
    /// random phase). Resuming replays the cursor's sequence through a
    /// fresh simulator (reconstructing the state pair bit-identically —
    /// the engine is deterministic), restores the RNG from the stored
    /// xoshiro words, and continues at the cursor's fault, so an
    /// interrupted-and-resumed run returns exactly what the uninterrupted
    /// run would have.
    ///
    /// # Errors
    ///
    /// [`AtpgStop`] when the token trips, carrying the latched
    /// [`StopReason`] and the episode-boundary cursor.
    pub fn run_budgeted(
        &self,
        ctl: &CancelToken,
        resume: Option<&AtpgCursor>,
    ) -> Result<AtpgOutcome, AtpgStop> {
        let c = self.scan.circuit();
        let mut sim = SeqFaultSim::new(c, self.faults);
        // One PODEM engine for the whole run, on the simulator's compiled
        // circuit.
        let mut engine = PodemEngine::with_frame(&self.scoap, sim.frame_sim());
        let mut sequence;
        let mut rng;
        let mut funct_detected;
        let mut scan_loads;
        let mut aborted;
        let mut episode_index;
        let start_fault;

        match resume {
            Some(cursor) => {
                rng = StdRng::from_state(cursor.rng_state);
                sequence = cursor.sequence.clone();
                {
                    // Deterministic replay: simulating the stored sequence
                    // reconstructs the good/faulty state pairs and the
                    // detected set exactly as they were at the stop.
                    let phase = self.obs.span(SpanKind::Pass, "replay");
                    sim.set_obs(phase.handle());
                    sim.extend(&sequence);
                }
                funct_detected = cursor.funct_detected;
                scan_loads = cursor.scan_loads;
                aborted = cursor.aborted;
                episode_index = cursor.episode_index;
                start_fault = cursor.next_fault;
            }
            None => {
                rng = StdRng::seed_from_u64(self.config.seed);
                sequence = TestSequence::new(c.inputs().len());
                {
                    let phase = self.obs.span(SpanKind::Pass, "random-phase");
                    sim.set_obs(phase.handle());
                    self.random_phase(&mut rng, &mut sim, &mut sequence);
                }
                ctl.charge_vectors(sequence.len() as u64);
                funct_detected = 0;
                scan_loads = 0;
                aborted = 0;
                episode_index = 0;
                start_fault = 0;
            }
        }

        let order: Vec<FaultId> = match &self.target_order {
            Some(order) => order.clone(),
            None => self.faults.ids().collect(),
        };
        let own;
        let proven = match &self.proven {
            Some(proven) => proven,
            None => {
                own = proven_untestable(&StaticAnalysis::run(c), self.faults);
                &own
            }
        };
        for (fi, &fid) in order.iter().enumerate() {
            if fi < start_fault {
                continue; // processed before the resume point
            }
            if sim.is_detected(fid) {
                continue;
            }
            if let Err(reason) = ctl.check() {
                return Err(AtpgStop {
                    reason,
                    cursor: AtpgCursor {
                        sequence,
                        next_fault: fi,
                        episode_index,
                        funct_detected,
                        scan_loads,
                        aborted,
                        rng_state: rng.state(),
                    },
                });
            }
            ctl.charge_episodes(1);
            let span = self
                .obs
                .span_indexed(SpanKind::Episode, "atpg-episode", episode_index);
            episode_index += 1;
            let span_obs = span.handle();
            span_obs.counter(Metric::AtpgEpisodes, 1);
            sim.set_obs(span_obs);
            let fault = self.faults.fault(fid);
            let found = if proven[fid.index()] {
                #[cfg(debug_assertions)]
                let before = rng.state();
                self.skip_episode(&mut rng);
                #[cfg(debug_assertions)]
                self.check_skip(fault, &sim, &mut engine, before, rng.state());
                None
            } else {
                self.episode(fault, &sim, &mut rng, &mut engine)
            };
            match found {
                Some((mut episode, kind)) => {
                    episode.specify_x(&mut rng);
                    sim.extend(&episode);
                    sequence.extend_from(&episode);
                    ctl.charge_vectors(episode.len() as u64);
                    if sim.is_detected(fid) {
                        match kind {
                            EpisodeKind::Direct => {}
                            EpisodeKind::ShiftOut => funct_detected += 1,
                            EpisodeKind::ScanLoad { shifted } => {
                                scan_loads += 1;
                                span_obs.counter(Metric::ScanLoads, 1);
                                if shifted {
                                    funct_detected += 1;
                                }
                            }
                        }
                    } else {
                        aborted += 1; // episode kept (may detect others later)
                    }
                }
                None => aborted += 1,
            }
        }
        sim.set_obs(&self.obs);

        Ok(AtpgOutcome {
            sequence,
            report: sim.report(),
            funct_detected,
            scan_loads,
            aborted,
        })
    }

    /// Initial random phase with early stopping.
    fn random_phase(&self, rng: &mut StdRng, sim: &mut SeqFaultSim, sequence: &mut TestSequence) {
        let c = self.scan.circuit();
        let chunk = 16usize;
        let mut remaining = self.config.random_phase_vectors;
        while remaining > 0 {
            let n = chunk.min(remaining);
            remaining -= n;
            let mut burst = TestSequence::new(c.inputs().len());
            for _ in 0..n {
                let mut v: Vec<Logic> = (0..c.inputs().len())
                    .map(|_| Logic::from_bool(rng.gen()))
                    .collect();
                v[self.scan.scan_sel_pos()] =
                    Logic::from_bool(rng.gen_bool(self.config.scan_sel_bias));
                burst.push(v);
            }
            let new = sim.extend(&burst);
            sequence.extend_from(&burst);
            if new == 0 {
                break;
            }
        }
    }

    /// Attempts to build a detecting subsequence for one fault, starting
    /// from the simulator's current (good, faulty) state pair.
    fn episode(
        &self,
        fault: Fault,
        sim: &SeqFaultSim,
        rng: &mut StdRng,
        engine: &mut PodemEngine,
    ) -> Option<(TestSequence, EpisodeKind)> {
        let c = self.scan.circuit();
        let fid = self
            .faults
            .id_of(fault)
            .expect("fault comes from this list");
        let mut episode = TestSequence::new(c.inputs().len());
        let mut gstate = sim.good_state().to_vec();
        let mut bstate = sim.fault_state(fid).to_vec();

        for _ in 0..self.config.max_search_depth {
            let opts = PodemOptions {
                state_good: Some(gstate.clone()),
                state_bad: Some(bstate.clone()),
                pi_fixed: Vec::new(),
                backtrack_limit: self.config.backtrack_limit,
                observe_ppos: true,
            };
            if let Some(t) = engine.run(fault, &opts) {
                episode.push(t.inputs.clone());
                return Some(match t.observation {
                    Observation::Po(_) => (episode, EpisodeKind::Direct),
                    Observation::Ppo(j) => {
                        if !self.config.use_scan_knowledge {
                            // Without scan knowledge a latched effect is not
                            // yet a detection; apply the vector and keep
                            // searching (a later frame may propagate it).
                            step_states(engine.frame(), fault, &t.inputs, &mut gstate, &mut bstate);
                            continue;
                        }
                        self.append_shift_out(&mut episode, j);
                        (episode, EpisodeKind::ShiftOut)
                    }
                });
            }

            // PODEM failed this frame. If an effect is already latched, the
            // shift-out fallback guarantees detection.
            if self.config.use_scan_knowledge {
                if let Some(j) = deepest_effect(&gstate, &bstate) {
                    self.append_shift_out(&mut episode, j);
                    return Some((episode, EpisodeKind::ShiftOut));
                }
            }

            // Advance the state with the best-scoring candidate vector.
            let v = self.advancing_vector(engine.frame(), fault, &gstate, &bstate, rng);
            step_states(engine.frame(), fault, &v, &mut gstate, &mut bstate);
            episode.push(v);
        }

        // Forward search exhausted: justify an activating state through the
        // scan chain (functional scan knowledge, justification side).
        if self.config.use_scan_knowledge {
            let opts = PodemOptions {
                state_good: None,
                state_bad: None,
                pi_fixed: Vec::new(),
                backtrack_limit: self.config.backtrack_limit,
                observe_ppos: true,
            };
            if let Some(t) = engine.run(fault, &opts) {
                let mut episode = TestSequence::new(c.inputs().len());
                episode.extend_from(&self.scan.load_state_vectors(&t.state));
                episode.push(t.inputs);
                let shifted = match t.observation {
                    Observation::Po(_) => false,
                    Observation::Ppo(j) => {
                        self.append_shift_out(&mut episode, j);
                        true
                    }
                };
                return Some((episode, EpisodeKind::ScanLoad { shifted }));
            }
        }
        None
    }

    /// The episode of a fault that static analysis proves untestable per
    /// frame. Every search, shift-out check and scan-load search of its
    /// episode fails (DESIGN.md §18), so it only draws the candidate
    /// batches of the `max_search_depth` advancing steps from `rng`.
    fn skip_episode(&self, rng: &mut StdRng) {
        for _ in 0..self.config.max_search_depth {
            self.draw_candidates(rng);
        }
    }

    /// Runs the full episode of a skipped fault from the RNG state
    /// `before` the skip, and checks that it finds no subsequence and
    /// leaves the RNG in the state the skip left, `after`.
    #[cfg(debug_assertions)]
    fn check_skip(
        &self,
        fault: Fault,
        sim: &SeqFaultSim,
        engine: &mut PodemEngine,
        before: [u64; 4],
        after: [u64; 4],
    ) {
        let mut replay = StdRng::from_state(before);
        let c = self.scan.circuit();
        assert!(
            self.episode(fault, sim, &mut replay, engine).is_none(),
            "statically untestable fault {} got a subsequence",
            fault.display_name(c)
        );
        assert_eq!(
            replay.state(),
            after,
            "skipping the episode of {} drew from the RNG differently",
            fault.display_name(c)
        );
    }

    /// Appends the shift vectors that bring an effect latched in flip-flop
    /// `j` to its chain's `scan_out` (for a single chain of length `N_SV`
    /// this is the paper's `N_SV - j` vectors with `scan_sel = 1`).
    fn append_shift_out(&self, episode: &mut TestSequence, j: usize) {
        for _ in 0..self.scan.shifts_to_observe(j) {
            episode.push(self.scan.shift_vector(Logic::X));
        }
    }

    /// Picks the candidate vector that drives the fault furthest toward
    /// detection, scored by frame simulation. The first best-scoring
    /// candidate wins.
    fn advancing_vector(
        &self,
        frame: &mut FrameSim,
        fault: Fault,
        gstate: &[Logic],
        bstate: &[Logic],
        rng: &mut StdRng,
    ) -> Vec<Logic> {
        let mut candidates = self.draw_candidates(rng);
        let mut best: Option<(u64, usize)> = None;
        for (chunk, batch) in candidates.chunks(PAIRS).enumerate() {
            let scores = self.score_vectors(frame, fault, gstate, bstate, batch);
            for (k, score) in scores.into_iter().enumerate() {
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, chunk * PAIRS + k));
                }
            }
        }
        let (_, pick) = best.expect("at least one candidate");
        candidates.swap_remove(pick)
    }

    /// Draws one advancing step's `random_candidates` (at least one)
    /// random vectors, each shifting the chain with probability 0.15.
    fn draw_candidates(&self, rng: &mut StdRng) -> Vec<Vec<Logic>> {
        let width = self.scan.circuit().inputs().len();
        (0..self.config.random_candidates.max(1))
            .map(|_| {
                let mut v: Vec<Logic> = (0..width).map(|_| Logic::from_bool(rng.gen())).collect();
                v[self.scan.scan_sel_pos()] = Logic::from_bool(rng.gen_bool(0.15));
                v
            })
            .collect()
    }

    /// Frame-simulates up to [`PAIRS`] candidates in one sweep, candidate
    /// `k` in lane pair `k`, and scores each resulting position: effects
    /// latched into flip-flops dominate (deeper in the chain is better),
    /// then effects anywhere in the logic weighted by observability, then
    /// excitation of the fault site.
    fn score_vectors(
        &self,
        frame: &mut FrameSim,
        fault: Fault,
        gstate: &[Logic],
        bstate: &[Logic],
        candidates: &[Vec<Logic>],
    ) -> Vec<u64> {
        debug_assert!(candidates.len() <= PAIRS);
        let c = self.scan.circuit();
        frame.inject(Some(fault), ODD_LANES);
        for pos in 0..c.inputs().len() {
            let mut w = WideWord::ALL_X;
            for (k, v) in candidates.iter().enumerate() {
                let pair = 0b11u64 << (2 * k);
                match v[pos] {
                    Logic::Zero => w.v0[0] |= pair,
                    Logic::One => w.v1[0] |= pair,
                    Logic::X => {}
                }
            }
            frame.set_input(pos, w);
        }
        set_states(frame, gstate, bstate);
        frame.eval();

        let mut scores = vec![0u64; candidates.len()];
        // Bit 2k stands for candidate k while its score is still open.
        let mut open = (0..candidates.len()).fold(0u64, |m, k| m | 1 << (2 * k));
        // Effects latched into flip-flops, deepest first.
        for j in (0..gstate.len()).rev() {
            let hits = pair_effects(frame.next_state(j)) & open;
            for_each_pair(hits, |k| scores[k] = 1_000_000 + j as u64);
            open &= !hits;
        }
        // Effects anywhere in the logic: the most observable one counts.
        let mut best_co = vec![u32::MAX; candidates.len()];
        let mut affected = 0u64;
        if open != 0 {
            for (i, &w) in frame.nets().iter().enumerate() {
                let hits = pair_effects(w) & open;
                if hits != 0 {
                    let co = self.scoap.co(NetId::from_index(i));
                    for_each_pair(hits, |k| best_co[k] = best_co[k].min(co));
                    affected |= hits;
                }
            }
        }
        for_each_pair(affected, |k| {
            scores[k] = 10_000 + 5_000u64.saturating_sub(u64::from(best_co[k]));
        });
        // Not excited: reward making the site take the non-stuck value.
        let src = frame.net(fault.site.source_net(c));
        let want = Logic::from_bool(!fault.stuck.value());
        for_each_pair(open & !affected, |k| {
            scores[k] = u64::from(src.lane(2 * k) == want);
        });
        scores
    }
}

/// Calls `f(k)` for every pair `k` whose bit `2k` is set in `pairs`.
fn for_each_pair(mut pairs: u64, mut f: impl FnMut(usize)) {
    while pairs != 0 {
        f(pairs.trailing_zeros() as usize / 2);
        pairs &= pairs - 1;
    }
}

/// Deepest chain position (closest to `scan_out`) where the two states
/// definitely differ.
fn deepest_effect(gstate: &[Logic], bstate: &[Logic]) -> Option<usize> {
    (0..gstate.len())
        .rev()
        .find(|&j| gstate[j].conflicts(bstate[j]))
}

/// Loads a (good, faulty) state pair into every lane pair of the frame.
fn set_states(frame: &mut FrameSim, gstate: &[Logic], bstate: &[Logic]) {
    for (ff, (&g, &b)) in gstate.iter().zip(bstate).enumerate() {
        frame.set_state(ff, pair_word(g, b));
    }
}

/// Advances a (good, faulty) state pair by one vector.
fn step_states(
    frame: &mut FrameSim,
    fault: Fault,
    inputs: &[Logic],
    gstate: &mut [Logic],
    bstate: &mut [Logic],
) {
    frame.inject(Some(fault), ODD_LANES);
    frame.step_pair(inputs, gstate, bstate);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::podem;
    use limscan_netlist::benchmarks;

    fn run_s27(config: AtpgConfig) -> (ScanCircuit, FaultList, AtpgOutcome) {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let faults = FaultList::collapsed(sc.circuit());
        let outcome = SequentialAtpg::new(&sc, &faults, config).run();
        (sc, faults, outcome)
    }

    #[test]
    fn s27_reaches_full_coverage() {
        let (sc, faults, outcome) = run_s27(AtpgConfig::default());
        let undetected: Vec<String> = outcome
            .report
            .undetected()
            .iter()
            .map(|&f| faults.fault(f).display_name(sc.circuit()))
            .collect();
        assert_eq!(
            outcome.report.detected_count(),
            faults.len(),
            "s27_scan is fully testable; undetected: {undetected:?}"
        );
        assert!(!outcome.sequence.is_empty());
        assert_eq!(outcome.sequence.unspecified_count(), 0);
    }

    #[test]
    fn generated_sequence_verifies_by_independent_simulation() {
        let (sc, faults, outcome) = run_s27(AtpgConfig::default());
        let report = SeqFaultSim::run(sc.circuit(), &faults, &outcome.sequence);
        assert_eq!(
            report.detected_count(),
            outcome.report.detected_count(),
            "outcome must be reproducible from the sequence alone"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_s27(AtpgConfig::default()).2;
        let b = run_s27(AtpgConfig::default()).2;
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.funct_detected, b.funct_detected);
    }

    #[test]
    fn scan_knowledge_never_hurts_coverage() {
        let with = run_s27(AtpgConfig::default()).2;
        let without = run_s27(AtpgConfig {
            use_scan_knowledge: false,
            ..AtpgConfig::default()
        })
        .2;
        assert!(
            with.report.detected_count() >= without.report.detected_count(),
            "scan knowledge must not lose faults ({} vs {})",
            with.report.detected_count(),
            without.report.detected_count()
        );
    }

    #[test]
    fn no_random_phase_still_works() {
        let outcome = run_s27(AtpgConfig {
            random_phase_vectors: 0,
            ..AtpgConfig::default()
        })
        .2;
        assert!(outcome.report.coverage_percent() > 95.0);
    }

    #[test]
    fn synthetic_circuit_detects_every_testable_fault() {
        // Random synthetic logic contains genuinely redundant faults, so
        // raw coverage is bounded by the circuit, not the generator. The
        // generator's contract is: every fault PODEM can test in a frame
        // (activation from a loadable state, propagation to a primary
        // output or a flip-flop) must end up detected.
        let spec = benchmarks::SyntheticSpec::new("atpgtest", 4, 8, 60, 3);
        let c = benchmarks::synthetic(&spec);
        let sc = ScanCircuit::insert(&c);
        let cs = sc.circuit();
        let faults = FaultList::collapsed(cs);
        let outcome = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
        let scoap = Scoap::compute(cs);
        for (id, fault) in faults.iter() {
            if outcome.report.is_detected(id) {
                continue;
            }
            assert!(
                podem(cs, &scoap, fault, &PodemOptions::default()).is_none(),
                "frame-testable fault {} left undetected",
                fault.display_name(cs)
            );
        }
        assert!(
            outcome.report.coverage_percent() > 75.0,
            "coverage {:.2}%",
            outcome.report.coverage_percent()
        );
    }

    #[test]
    fn budgeted_stop_and_resume_matches_uninterrupted() {
        use limscan_harness::RunBudget;
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let faults = FaultList::collapsed(sc.circuit());
        let atpg = SequentialAtpg::new(&sc, &faults, AtpgConfig::default());
        let full = atpg.run();
        for max_episodes in [1u64, 2, 3, 5] {
            let ctl = CancelToken::new(RunBudget {
                max_episodes: Some(max_episodes),
                ..RunBudget::default()
            });
            match atpg.run_budgeted(&ctl, None) {
                Ok(outcome) => assert_eq!(outcome.sequence, full.sequence),
                Err(stop) => {
                    assert_eq!(stop.reason, StopReason::EpisodeBudget);
                    assert_eq!(ctl.episodes(), max_episodes);
                    let resumed = atpg
                        .run_budgeted(&CancelToken::unlimited(), Some(&stop.cursor))
                        .expect("unlimited resume completes");
                    assert_eq!(resumed.sequence, full.sequence, "episodes={max_episodes}");
                    assert_eq!(resumed.funct_detected, full.funct_detected);
                    assert_eq!(resumed.scan_loads, full.scan_loads);
                    assert_eq!(resumed.aborted, full.aborted);
                    assert_eq!(
                        resumed.report.detected_count(),
                        full.report.detected_count()
                    );
                }
            }
        }
    }

    #[test]
    fn chained_single_episode_resumes_reach_the_same_sequence() {
        use limscan_harness::RunBudget;
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let faults = FaultList::collapsed(sc.circuit());
        let atpg = SequentialAtpg::new(&sc, &faults, AtpgConfig::default());
        let full = atpg.run();
        // Drive the whole generation one episode at a time: every stop must
        // be a clean episode boundary, and the final result bit-identical.
        let mut cursor: Option<AtpgCursor> = None;
        for _ in 0..200 {
            let ctl = CancelToken::new(RunBudget {
                max_episodes: Some(1),
                ..RunBudget::default()
            });
            match atpg.run_budgeted(&ctl, cursor.as_ref()) {
                Ok(outcome) => {
                    assert_eq!(outcome.sequence, full.sequence);
                    assert_eq!(outcome.aborted, full.aborted);
                    return;
                }
                Err(stop) => cursor = Some(stop.cursor),
            }
        }
        panic!("single-episode resume chain did not terminate");
    }

    #[test]
    fn identity_target_order_matches_the_default() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let faults = FaultList::collapsed(sc.circuit());
        let default_run = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
        let ordered_run = SequentialAtpg::new(&sc, &faults, AtpgConfig::default())
            .with_target_order(faults.ids().collect())
            .run();
        assert_eq!(default_run.sequence, ordered_run.sequence);
        assert_eq!(
            default_run.report.detected_count(),
            ordered_run.report.detected_count()
        );
    }

    #[test]
    fn reversed_target_order_still_reaches_full_coverage() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let faults = FaultList::collapsed(sc.circuit());
        let mut order: Vec<_> = faults.ids().collect();
        order.reverse();
        let outcome = SequentialAtpg::new(&sc, &faults, AtpgConfig::default())
            .with_target_order(order)
            .run();
        assert_eq!(outcome.report.detected_count(), faults.len());
    }

    #[test]
    fn sequence_contains_limited_scan_operations() {
        // The signature claim of the paper: scan runs shorter than N_SV
        // appear in the generated sequence.
        let (sc, _, outcome) = run_s27(AtpgConfig::default());
        let sel = sc.scan_sel_pos();
        let mut run_lengths = Vec::new();
        let mut run = 0usize;
        for v in outcome.sequence.iter() {
            if v[sel] == Logic::One {
                run += 1;
            } else if run > 0 {
                run_lengths.push(run);
                run = 0;
            }
        }
        if run > 0 {
            run_lengths.push(run);
        }
        assert!(
            run_lengths.iter().any(|&r| r < sc.n_sv()),
            "expected limited scan operations, got runs {run_lengths:?}"
        );
    }

    /// One scalar frame: every net value and the next state.
    fn scalar_frame(
        c: &limscan_netlist::Circuit,
        v: &[Logic],
        state: &[Logic],
        f: Option<Fault>,
    ) -> (Vec<Logic>, Vec<Logic>) {
        use limscan_sim::{eval_comb_with, next_state};
        let mut vals = vec![Logic::X; c.net_count()];
        for (&pi, &x) in c.inputs().iter().zip(v) {
            vals[pi.index()] = x;
        }
        for (&q, &x) in c.dffs().iter().zip(state) {
            vals[q.index()] = x;
        }
        eval_comb_with(c, &mut vals, f);
        let next = next_state(c, &vals, f);
        (vals, next)
    }

    /// Scalar reference for `score_vectors`: one `eval_comb_with` pass
    /// per machine and candidate.
    fn scalar_score(
        atpg: &SequentialAtpg,
        fault: Fault,
        gstate: &[Logic],
        bstate: &[Logic],
        v: &[Logic],
    ) -> u64 {
        let c = atpg.scan.circuit();
        let (gv, gn) = scalar_frame(c, v, gstate, None);
        let (bv, bn) = scalar_frame(c, v, bstate, Some(fault));
        if let Some(j) = deepest_effect(&gn, &bn) {
            return 1_000_000 + j as u64;
        }
        let best = (0..c.net_count())
            .filter(|&i| gv[i].conflicts(bv[i]))
            .map(|i| atpg.scoap.co(NetId::from_index(i)))
            .min();
        if let Some(co) = best {
            return 10_000 + 5_000u64.saturating_sub(u64::from(co));
        }
        let src = fault.site.source_net(c);
        u64::from(gv[src.index()] == Logic::from_bool(!fault.stuck.value()))
    }

    #[test]
    fn frame_scoring_and_stepping_match_the_scalar_reference() {
        // 70 candidates: two full 32-pair sweeps and a partial one.
        let sc = ScanCircuit::insert(&benchmarks::load("s298").expect("embedded benchmark"));
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let atpg = SequentialAtpg::new(&sc, &faults, AtpgConfig::default());
        let sim = SeqFaultSim::new(c, &faults);
        let mut frame = sim.frame_sim();
        let mut rng = StdRng::seed_from_u64(0x5C0);
        let logic = |rng: &mut StdRng| match rng.gen_range(0..3) {
            0 => Logic::Zero,
            1 => Logic::One,
            _ => Logic::X,
        };
        for (_, fault) in faults.iter().step_by(5) {
            let gstate: Vec<Logic> = (0..c.dffs().len()).map(|_| logic(&mut rng)).collect();
            let mut bstate = gstate.clone();
            let j = rng.gen_range(0..bstate.len());
            bstate[j] = logic(&mut rng);
            let candidates: Vec<Vec<Logic>> = (0..70)
                .map(|_| (0..c.inputs().len()).map(|_| logic(&mut rng)).collect())
                .collect();
            let scores: Vec<u64> = candidates
                .chunks(PAIRS)
                .flat_map(|batch| atpg.score_vectors(&mut frame, fault, &gstate, &bstate, batch))
                .collect();
            let expect: Vec<u64> = candidates
                .iter()
                .map(|v| scalar_score(&atpg, fault, &gstate, &bstate, v))
                .collect();
            assert_eq!(scores, expect, "{}", fault.display_name(c));

            let (mut g, mut b) = (gstate.clone(), bstate.clone());
            step_states(&mut frame, fault, &candidates[0], &mut g, &mut b);
            assert_eq!(g, scalar_frame(c, &candidates[0], &gstate, None).1);
            assert_eq!(b, scalar_frame(c, &candidates[0], &bstate, Some(fault)).1);
        }
    }
}
