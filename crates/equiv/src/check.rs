//! Bounded sequential equivalence checking over the wide-word kernel.

use std::fmt;

use limscan_netlist::Circuit;
use limscan_sim::{sim_threads, LockstepSim, Logic, TestSequence, WideWord, LANES, LANE_WORDS};

use crate::minimize::{minimize, replay};
use crate::ports::{PortMap, PortMatchError};

/// Number of leading *directed* rounds (all-zeros, all-ones, temporal and
/// spatial checkerboards) before walking-one and random rounds begin.
const DIRECTED_FIXED: usize = 4;

/// Errors of the equivalence checker's setup phase.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivError {
    /// The two interfaces could not be aligned by name.
    Ports(PortMatchError),
    /// A forced input name does not exist among the candidate's inputs.
    UnknownForce(String),
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Ports(e) => e.fmt(f),
            EquivError::UnknownForce(n) => {
                write!(f, "forced input `{n}` is not an input of the candidate")
            }
        }
    }
}

impl std::error::Error for EquivError {}

impl From<PortMatchError> for EquivError {
    fn from(e: PortMatchError) -> Self {
        EquivError::Ports(e)
    }
}

/// Knobs of a bounded equivalence check.
#[derive(Clone, Debug)]
pub struct EquivOptions {
    /// Time units simulated per round (trajectory length).
    pub steps: usize,
    /// Number of independent rounds (trajectories). [`LANES`] rounds run
    /// per kernel pass.
    pub rounds: usize,
    /// Seed of the deterministic stimulus stream.
    pub seed: u64,
    /// Values held on candidate inputs that have no reference counterpart
    /// (e.g. `("scan_sel", Logic::Zero)` to pin a scan variant into
    /// functional mode). Unforced extra inputs are held at X.
    pub forces: Vec<(String, Logic)>,
    /// Worker threads; `None` uses the workspace-wide
    /// [`sim_threads`](limscan_sim::sim_threads) setting.
    pub threads: Option<usize>,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            steps: 24,
            rounds: 2 * LANES,
            seed: 0x11f7_5ca9,
            forces: Vec::new(),
            threads: None,
        }
    }
}

/// Summary of a passed check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EquivStats {
    /// Rounds simulated.
    pub rounds: usize,
    /// Steps per round.
    pub steps: usize,
    /// Rounds that started from a seeded binary flip-flop state.
    pub seeded_rounds: usize,
    /// Leading directed (non-random) rounds.
    pub directed_rounds: usize,
    /// Output pairs compared at every step of every round.
    pub compared_outputs: usize,
}

/// A minimized witness that two circuits differ.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// Round that first exposed the difference.
    pub round: usize,
    /// Minimized input sequence, in reference input order.
    pub inputs: TestSequence,
    /// Initial reference flip-flop state of the witness (all X unless the
    /// round was seeded).
    pub initial_state: Vec<Logic>,
    /// Time unit (vector index) of the first mismatch under the minimized
    /// sequence.
    pub time: usize,
    /// Name of the first mismatching output.
    pub output: String,
    /// Reference value at the mismatch.
    pub left_value: Logic,
    /// Candidate value at the mismatch.
    pub right_value: Logic,
    /// Length of the witness before minimization.
    pub original_steps: usize,
}

/// Outcome of a bounded equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EquivVerdict {
    /// No behavioural difference was observed.
    Equivalent(EquivStats),
    /// The circuits differ; a minimized witness is attached.
    NotEquivalent(Box<Counterexample>),
}

impl EquivVerdict {
    /// Whether the verdict is [`EquivVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivVerdict::Equivalent(_))
    }
}

/// SplitMix64 finalizer: the deterministic hash under every stimulus
/// decision, so any round can be reconstructed from `(seed, round)` alone.
fn hash(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The reference-input stimulus of `(round, t, i)` — a pure function, so
/// the wide kernel and the scalar replay see identical streams.
fn stim(seed: u64, round: usize, t: usize, i: usize, n_inputs: usize) -> Logic {
    match round {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => {
            if t.is_multiple_of(2) {
                Logic::Zero
            } else {
                Logic::One
            }
        }
        3 => {
            if i.is_multiple_of(2) {
                Logic::Zero
            } else {
                Logic::One
            }
        }
        r if r - DIRECTED_FIXED < n_inputs => {
            // Walking one: input `r - DIRECTED_FIXED` high, others low.
            if i == r - DIRECTED_FIXED {
                Logic::One
            } else {
                Logic::Zero
            }
        }
        r => {
            let h = hash(seed ^ (r as u64) << 40 ^ (t as u64) << 20 ^ i as u64);
            // Every fourth random round mixes X in (1/8 density): the
            // variants must agree on unknown propagation, not just binary
            // values.
            if r % 4 == 3 && h.is_multiple_of(8) {
                Logic::X
            } else if h & 1 == 0 {
                Logic::Zero
            } else {
                Logic::One
            }
        }
    }
}

/// Whether `round` starts from a seeded binary flip-flop state.
fn is_seeded(round: usize, full_state_match: bool, n_directed: usize) -> bool {
    full_state_match && round >= n_directed && round % 2 == 1
}

/// The seeded initial value of reference flip-flop `ff` in `round`.
fn seeded_state(seed: u64, round: usize, ff: usize) -> Logic {
    if hash(seed ^ 0xf1f0 ^ (round as u64) << 24 ^ ff as u64) & 1 == 0 {
        Logic::Zero
    } else {
        Logic::One
    }
}

/// Resolved forced values for every candidate input (`None` = driven from
/// the reference or left at X).
fn resolve_forces(
    right: &Circuit,
    forces: &[(String, Logic)],
) -> Result<Vec<Option<Logic>>, EquivError> {
    let mut forced: Vec<Option<Logic>> = vec![None; right.inputs().len()];
    for (name, value) in forces {
        let pos = right
            .inputs()
            .iter()
            .position(|&id| right.net(id).name() == name.as_str())
            .ok_or_else(|| EquivError::UnknownForce(name.clone()))?;
        forced[pos] = Some(*value);
    }
    // Unforced extra inputs default to X, which `None` already means for
    // positions the reference does not drive.
    Ok(forced)
}

/// The first mismatch a batch of rounds produced, ordered for
/// determinism: earlier time unit first, then lower lane, then lower
/// output pair.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct BatchHit {
    t: usize,
    lane: usize,
    pair: usize,
}

/// Lowest set lane of `mask` that is below `active`, if any.
fn first_active_lane(mask: &[u64; LANE_WORDS], active: usize) -> Option<usize> {
    for (w, &bits) in mask.iter().enumerate() {
        if bits != 0 {
            let lane = w * 64 + bits.trailing_zeros() as usize;
            if lane < active {
                return Some(lane);
            }
            // Strip lanes >= active within this word and retry.
            let mut b = bits;
            while b != 0 {
                let lane = w * 64 + b.trailing_zeros() as usize;
                if lane < active {
                    return Some(lane);
                }
                b &= b - 1;
            }
        }
    }
    None
}

/// Runs rounds `batch * LANES ..` of the check on one simulator pair.
#[allow(clippy::too_many_arguments)]
fn run_batch(
    l: &mut LockstepSim,
    r: &mut LockstepSim,
    map: &PortMap,
    forced: &[Option<Logic>],
    opts: &EquivOptions,
    n_directed: usize,
    batch: usize,
    active: usize,
) -> Option<BatchHit> {
    l.reset();
    r.reset();
    let base = batch * LANES;
    // Seeded rounds: identical binary state on matched flip-flop pairs.
    let mut l_state = vec![WideWord::<LANE_WORDS>::ALL_X; l.n_ffs()];
    let mut r_state = vec![WideWord::<LANE_WORDS>::ALL_X; r.n_ffs()];
    let mut any_seeded = false;
    for lane in 0..active {
        let round = base + lane;
        if is_seeded(round, map.full_state_match(), n_directed) {
            any_seeded = true;
            for &(lf, rf) in map.ffs() {
                let v = seeded_state(opts.seed, round, lf);
                l_state[lf].set_lane(lane, v);
                r_state[rf].set_lane(lane, v);
            }
        }
    }
    if any_seeded {
        for (ff, &w) in l_state.iter().enumerate() {
            l.set_state(ff, w);
        }
        for (ff, &w) in r_state.iter().enumerate() {
            r.set_state(ff, w);
        }
    }

    let n_in = l.n_inputs();
    let mut l_in = vec![WideWord::<LANE_WORDS>::ALL_X; n_in];
    let mut r_in = vec![WideWord::<LANE_WORDS>::ALL_X; r.n_inputs()];
    for t in 0..opts.steps {
        for (i, w) in l_in.iter_mut().enumerate() {
            let mut word = WideWord::ALL_X;
            for lane in 0..active {
                word.set_lane(lane, stim(opts.seed, base + lane, t, i, n_in));
            }
            *w = word;
        }
        for (pos, w) in r_in.iter_mut().enumerate() {
            if let Some(v) = forced[pos] {
                *w = WideWord::broadcast(v);
            } else {
                *w = WideWord::ALL_X;
            }
        }
        for &(li, ri) in map.inputs() {
            if forced[ri].is_none() {
                r_in[ri] = l_in[li];
            }
        }
        l.step(&l_in);
        r.step(&r_in);
        let mut hit: Option<BatchHit> = None;
        for (pair, &(lo, ro)) in map.outputs().iter().enumerate() {
            let d = l.outputs()[lo].diff_mask(&r.outputs()[ro]);
            if let Some(lane) = first_active_lane(&d, active) {
                let cand = BatchHit { t, lane, pair };
                if hit.is_none_or(|h| cand < h) {
                    hit = Some(cand);
                }
            }
        }
        if hit.is_some() {
            return hit;
        }
    }
    None
}

/// Proves or refutes bounded sequential equivalence of `right` against
/// the reference `left`.
///
/// Interfaces are aligned by name ([`PortMap::match_ports`]); the
/// candidate may have extra inputs (held at forced values or X) and extra
/// outputs (ignored). Per round, both circuits start from all-X (or an
/// identical seeded binary state on name-matched flip-flops), are driven
/// with the same directed-then-random stimulus for
/// [`steps`](EquivOptions::steps) time units, and every name-matched
/// output plane is compared **exactly** — X must match X, so differing
/// unknown propagation counts as non-equivalence. [`LANES`] rounds run
/// per pass of the wide kernel, passes fan out across threads, and a
/// mismatch is re-validated and minimized on the scalar engine
/// ([`limscan_sim::SeqGoodSim`]) before being reported, making every
/// reported witness cross-engine checked.
///
/// The verdict is deterministic in (`left`, `right`, `opts`): thread
/// count never changes which counterexample is reported.
///
/// # Errors
///
/// Returns [`EquivError`] if the interfaces cannot be aligned or a forced
/// input name does not exist.
///
/// # Panics
///
/// Panics if `opts.steps` or `opts.rounds` is zero.
///
/// # Example
///
/// ```
/// use limscan_equiv::{check, EquivOptions};
/// use limscan_netlist::benchmarks;
///
/// let c = benchmarks::s27();
/// let verdict = check(&c, &c, &EquivOptions::default()).unwrap();
/// assert!(verdict.is_equivalent());
/// ```
pub fn check(
    left: &Circuit,
    right: &Circuit,
    opts: &EquivOptions,
) -> Result<EquivVerdict, EquivError> {
    assert!(opts.steps > 0, "steps must be positive");
    assert!(opts.rounds > 0, "rounds must be positive");
    let map = PortMap::match_ports(left, right)?;
    let forced = resolve_forces(right, &opts.forces)?;
    let n_directed = DIRECTED_FIXED + left.inputs().len();

    let n_batches = opts.rounds.div_ceil(LANES);
    let threads = opts.threads.unwrap_or_else(sim_threads).max(1);
    let threads = threads.min(n_batches);

    // One worker body: worker `tid` of `stride` takes every `stride`-th
    // batch from `tid` on and stops at its first mismatch. Each worker
    // ascends, so the lowest (batch, hit) over all workers is the first
    // mismatch of the whole run, whatever the thread count.
    let scan = |tid: usize, stride: usize| {
        let mut l = LockstepSim::new(left);
        let mut r = LockstepSim::new(right);
        (tid..n_batches).step_by(stride).find_map(|batch| {
            let active = LANES.min(opts.rounds - batch * LANES);
            run_batch(
                &mut l, &mut r, &map, &forced, opts, n_directed, batch, active,
            )
            .map(|hit| (batch, hit))
        })
    };
    let first = if threads <= 1 {
        scan(0, 1)
    } else {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|tid| {
                    let scan = &scan;
                    scope.spawn(move || scan(tid, threads))
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().expect("equiv worker panicked"))
                .min()
        })
    };

    let Some((batch, hit)) = first else {
        let seeded_rounds = (0..opts.rounds)
            .filter(|&r| is_seeded(r, map.full_state_match(), n_directed))
            .count();
        return Ok(EquivVerdict::Equivalent(EquivStats {
            rounds: opts.rounds,
            steps: opts.steps,
            seeded_rounds,
            directed_rounds: n_directed.min(opts.rounds),
            compared_outputs: map.outputs().len(),
        }));
    };

    // Reconstruct the failing round as a scalar sequence and minimize it
    // on the scalar engine.
    let round = batch * LANES + hit.lane;
    let n_in = left.inputs().len();
    let mut seq = TestSequence::new(n_in);
    for t in 0..=hit.t {
        seq.push(
            (0..n_in)
                .map(|i| stim(opts.seed, round, t, i, n_in))
                .collect(),
        );
    }
    let initial_state: Vec<Logic> = if is_seeded(round, map.full_state_match(), n_directed) {
        (0..left.dffs().len())
            .map(|ff| seeded_state(opts.seed, round, ff))
            .collect()
    } else {
        vec![Logic::X; left.dffs().len()]
    };
    debug_assert!(
        replay(left, right, &map, &forced, &seq, &initial_state).is_some(),
        "wide kernel and scalar engine disagree on a mismatch"
    );
    Ok(EquivVerdict::NotEquivalent(Box::new(minimize(
        left,
        right,
        &map,
        &forced,
        seq,
        initial_state,
        round,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::{bench_format, benchmarks};
    use limscan_scan::ScanCircuit;

    #[test]
    fn a_circuit_equals_itself() {
        let c = benchmarks::s27();
        let v = check(&c, &c, &EquivOptions::default()).unwrap();
        let EquivVerdict::Equivalent(stats) = v else {
            panic!("self-equivalence failed: {v:?}");
        };
        assert_eq!(stats.rounds, 2 * LANES);
        assert!(stats.seeded_rounds > 0, "s27 state is fully matched");
        assert_eq!(stats.compared_outputs, 1);
    }

    #[test]
    fn scan_variant_is_equivalent_in_functional_mode() {
        let c = benchmarks::s27();
        let sc = ScanCircuit::insert(&c);
        let opts = EquivOptions {
            forces: vec![("scan_sel".to_owned(), Logic::Zero)],
            ..EquivOptions::default()
        };
        assert!(check(&c, sc.circuit(), &opts).unwrap().is_equivalent());
    }

    #[test]
    fn scan_variant_without_forcing_is_caught() {
        // With scan_sel left at X the muxes go pessimistic: unknown
        // propagation differs, which the exact comparison must flag.
        let c = benchmarks::s27();
        let sc = ScanCircuit::insert(&c);
        let v = check(&c, sc.circuit(), &EquivOptions::default()).unwrap();
        assert!(!v.is_equivalent(), "X on scan_sel must be visible");
    }

    #[test]
    fn single_gate_mutation_is_caught_and_minimized() {
        let c = benchmarks::s27();
        let mut text = bench_format::write(&c);
        text = text.replace("G10 = NOR(G14, G11)", "G10 = OR(G14, G11)");
        let mutant = bench_format::parse("s27m", &text).unwrap();
        let v = check(&c, &mutant, &EquivOptions::default()).unwrap();
        let EquivVerdict::NotEquivalent(cex) = v else {
            panic!("mutation not caught");
        };
        assert_eq!(cex.output, "G17");
        assert_ne!(cex.left_value, cex.right_value);
        assert!(cex.inputs.len() <= cex.original_steps + 1);
        assert_eq!(cex.time + 1, cex.inputs.len(), "witness ends at mismatch");
        // The witness must replay on the scalar engine.
        let map = PortMap::match_ports(&c, &mutant).unwrap();
        let forced = vec![None; mutant.inputs().len()];
        assert!(replay(&c, &mutant, &map, &forced, &cex.inputs, &cex.initial_state).is_some());
    }

    #[test]
    fn verdict_is_thread_count_invariant() {
        let c = benchmarks::s27();
        let mut text = bench_format::write(&c);
        text = text.replace("G16 = OR(G3, G8)", "G16 = NOR(G3, G8)");
        let mutant = bench_format::parse("s27m", &text).unwrap();
        let opts1 = EquivOptions {
            threads: Some(1),
            rounds: 4 * LANES,
            ..EquivOptions::default()
        };
        let opts4 = EquivOptions {
            threads: Some(4),
            ..opts1.clone()
        };
        assert_eq!(
            check(&c, &mutant, &opts1).unwrap(),
            check(&c, &mutant, &opts4).unwrap()
        );
    }

    #[test]
    fn unknown_force_is_an_error() {
        let c = benchmarks::s27();
        let opts = EquivOptions {
            forces: vec![("no_such_pin".to_owned(), Logic::Zero)],
            ..EquivOptions::default()
        };
        assert_eq!(
            check(&c, &c, &opts),
            Err(EquivError::UnknownForce("no_such_pin".to_owned()))
        );
    }

    #[test]
    fn blif_roundtrip_is_equivalent() {
        let c = benchmarks::load("s298").unwrap();
        let back =
            limscan_netlist::blif_format::parse("s298", &limscan_netlist::blif_format::write(&c))
                .unwrap();
        let opts = EquivOptions {
            rounds: LANES,
            steps: 16,
            ..EquivOptions::default()
        };
        assert!(check(&c, &back, &opts).unwrap().is_equivalent());
    }
}
