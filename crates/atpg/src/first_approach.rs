//! Conventional scan ATPG: the paper's "first" and "second" approaches.
//!
//! These generators produce scan-based test sets `(SI, T)` with *complete*
//! scan operations — the kind of test set the paper's comparison column
//! (`[26] cyc`) and the Table 7 translation experiment start from.
//!
//! * First approach (`max_vectors_per_test = 1`): combinational PODEM with
//!   the present state treated as inputs and the next state as outputs —
//!   one scan operation around every vector.
//! * Second approach (`max_vectors_per_test > 1`): after the scan-in and
//!   the first vector, the generator keeps extending `T` with vectors that
//!   detect further faults from the *reachable* state, scanning only when
//!   no more progress is possible. Fewer scan operations, longer `T`s —
//!   the behaviour of \[6\]-\[9\] and \[26\].
//!
//! Detection bookkeeping uses the conventional semantics: the state is
//! assumed to load cleanly, primary outputs are observed every cycle, and
//! the final state is observed by the scan-out.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan_fault::{FaultId, FaultList};
use limscan_netlist::Circuit;
use limscan_scan::{ScanTest, ScanTestSet};
use limscan_sim::{CombFaultSim, Logic, WideWord};

use crate::podem::{PodemEngine, PodemOptions};
use crate::scoap::Scoap;

/// Tuning for the conventional generators.
#[derive(Clone, Debug)]
pub struct CombAtpgConfig {
    /// Seed for random fills.
    pub seed: u64,
    /// PODEM backtrack limit.
    pub backtrack_limit: usize,
    /// Maximum `|T|` per test: 1 reproduces the first approach, larger
    /// values the second approach.
    pub max_vectors_per_test: usize,
}

impl Default for CombAtpgConfig {
    fn default() -> Self {
        CombAtpgConfig {
            seed: 0x2002,
            backtrack_limit: 1_000,
            max_vectors_per_test: 8,
        }
    }
}

/// Result of conventional test set generation.
#[derive(Clone, Debug)]
pub struct CombAtpgOutcome {
    /// The generated scan-based test set (fully specified values).
    pub set: ScanTestSet,
    /// Per-fault detection flags under the conventional semantics, indexed
    /// by [`limscan_fault::FaultId::index`].
    pub detected: Vec<bool>,
}

impl CombAtpgOutcome {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Fault coverage in percent.
    pub fn coverage_percent(&self) -> f64 {
        if self.detected.is_empty() {
            return 100.0;
        }
        100.0 * self.detected_count() as f64 / self.detected.len() as f64
    }
}

/// Generates a conventional scan-based test set for `circuit` (the
/// *original*, non-scan circuit) targeting `faults` enumerated over it.
///
/// # Example
///
/// ```
/// use limscan_netlist::benchmarks;
/// use limscan_fault::FaultList;
/// use limscan_atpg::first_approach::{generate, CombAtpgConfig};
///
/// let c = benchmarks::s27();
/// let faults = FaultList::collapsed(&c);
/// let outcome = generate(&c, &faults, &CombAtpgConfig::default());
/// assert!(outcome.coverage_percent() > 95.0);
/// ```
pub fn generate(circuit: &Circuit, faults: &FaultList, config: &CombAtpgConfig) -> CombAtpgOutcome {
    let scoap = Scoap::compute(circuit);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut detected = vec![false; faults.len()];
    let mut fault_sim = CombFaultSim::new(circuit, faults);
    let mut engine = PodemEngine::with_frame(&scoap, fault_sim.frame_sim());
    let mut set = ScanTestSet::new(circuit.dffs().len(), circuit.inputs().len());

    let fill = |v: &mut [Logic], rng: &mut StdRng| {
        for b in v {
            if *b == Logic::X {
                *b = Logic::from_bool(rng.gen());
            }
        }
    };

    for fid in faults.ids() {
        if detected[fid.index()] {
            continue;
        }
        let fault = faults.fault(fid);
        let free = PodemOptions {
            backtrack_limit: config.backtrack_limit,
            ..PodemOptions::default()
        };
        let Some(t) = engine.run(fault, &free) else {
            continue; // combinationally untestable (or aborted)
        };
        let mut state = t.state;
        let mut vector = t.inputs;
        fill(&mut state, &mut rng);
        fill(&mut vector, &mut rng);

        let scan_in = state.clone();
        let mut vectors = Vec::new();
        let mut current = state;
        let mut v = vector;
        loop {
            // Credit every fault this vector detects from `current`
            // (parallel-fault frame simulation, `LANES` = 256 faults per
            // sweep).
            let undetected: Vec<FaultId> = faults.ids().filter(|f| !detected[f.index()]).collect();
            for (k, hit) in fault_sim
                .detects_among(&undetected, &current, &v)
                .into_iter()
                .enumerate()
            {
                if hit {
                    detected[undetected[k].index()] = true;
                }
            }
            // The fault-free lane 0 of the engine's frame gives the next
            // state.
            let frame = engine.frame();
            for (pos, &b) in v.iter().enumerate() {
                frame.set_input(pos, WideWord::broadcast(b));
            }
            for (ff, &b) in current.iter().enumerate() {
                frame.set_state(ff, WideWord::broadcast(b));
            }
            frame.eval();
            current = (0..current.len())
                .map(|ff| frame.next_state(ff).lane(0))
                .collect();
            vectors.push(v);
            if vectors.len() >= config.max_vectors_per_test {
                break;
            }
            // Second approach: extend T from the reachable state.
            let Some(next_fault) = faults
                .ids()
                .find(|f| !detected[f.index()])
                .map(|f| faults.fault(f))
            else {
                break;
            };
            let fixed = PodemOptions {
                state_good: Some(current.clone()),
                state_bad: Some(current.clone()),
                backtrack_limit: config.backtrack_limit,
                ..PodemOptions::default()
            };
            match engine.run(next_fault, &fixed) {
                Some(nt) => {
                    let mut nv = nt.inputs;
                    fill(&mut nv, &mut rng);
                    v = nv;
                }
                None => break,
            }
        }
        set.push(ScanTest::new(scan_in, vectors));
    }

    CombAtpgOutcome { set, detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::benchmarks;

    #[test]
    fn s27_first_approach_gets_full_frame_coverage() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let config = CombAtpgConfig {
            max_vectors_per_test: 1,
            ..CombAtpgConfig::default()
        };
        let outcome = generate(&c, &faults, &config);
        assert_eq!(
            outcome.detected_count(),
            faults.len(),
            "s27's frame is fully testable"
        );
        // First approach: every test has |T| = 1.
        assert!(outcome.set.tests().iter().all(|t| t.vectors.len() == 1));
    }

    #[test]
    fn second_approach_uses_fewer_scan_operations() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let first = generate(
            &c,
            &faults,
            &CombAtpgConfig {
                max_vectors_per_test: 1,
                ..CombAtpgConfig::default()
            },
        );
        let second = generate(&c, &faults, &CombAtpgConfig::default());
        assert!(
            second.set.len() <= first.set.len(),
            "longer T means fewer tests/scans ({} vs {})",
            second.set.len(),
            first.set.len()
        );
        assert!(second.set.application_cycles() <= first.set.application_cycles());
        assert_eq!(second.detected_count(), first.detected_count());
    }

    #[test]
    fn tests_are_fully_specified() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let outcome = generate(&c, &faults, &CombAtpgConfig::default());
        for t in outcome.set.tests() {
            assert!(t.scan_in.iter().all(|b| b.is_binary()));
            assert!(t.vectors.iter().flatten().all(|b| b.is_binary()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let a = generate(&c, &faults, &CombAtpgConfig::default());
        let b = generate(&c, &faults, &CombAtpgConfig::default());
        assert_eq!(a.set, b.set);
    }

    #[test]
    fn works_on_synthetic_profiles() {
        let spec = benchmarks::SyntheticSpec::new("fa", 5, 9, 70, 4);
        let c = benchmarks::synthetic(&spec);
        let faults = FaultList::collapsed(&c);
        let outcome = generate(&c, &faults, &CombAtpgConfig::default());
        assert!(
            outcome.coverage_percent() > 85.0,
            "coverage {:.1}%",
            outcome.coverage_percent()
        );
    }
}
