//! Static test compaction for the `limscan` workspace.
//!
//! The paper's Section 4 point: once scan operations are ordinary vectors
//! in a flat sequence, the static compaction procedures developed for
//! **non-scan** synchronous sequential circuits apply directly to scan
//! circuits — and, unlike scan-specific compaction, they can *shorten* a
//! complete scan operation into a limited one instead of only deleting it.
//!
//! * [`restoration`] — vector-restoration-based compaction in the style of
//!   \[23\]: start from an empty sequence and restore, per target fault in
//!   decreasing order of detection time, just enough vectors to keep it
//!   detected;
//! * [`omission`] — vector-omission-based compaction in the style of
//!   \[22\]: repeatedly drop single vectors whenever doing so loses no
//!   detection (omission can also *gain* detections — reported as the
//!   paper's `ext det` column);
//! * [`scan_test_set`] — reverse/forward-order pruning of conventional
//!   `(SI, T)` test sets with complete scan operations, standing in for
//!   the \[26\] comparison point.
//!
//! The paper applies restoration first and omission second; the flows of
//! the `limscan` crate run that pipeline pass by pass, with a checkpoint
//! between passes.
//!
//! Each procedure has three entry points: the plain form ([`omission`],
//! [`restoration`]); the budgeted, observed form the flow driver calls
//! ([`omission_pass_resumable`], one pass at a time, and
//! [`restoration_resumable`]); and the `_reference` oracle.
//!
//! Both procedures run on an **incremental trial engine**: omission
//! answers each candidate from per-vector checkpoints recorded once per
//! pass ([`limscan_sim::TrialCheckpoints`]), and restoration resumes each
//! doubling-chunk probe from a per-episode detection-prefix cache. The
//! original full-re-simulation implementations are retained as
//! [`omission_reference`] / [`restoration_reference`]: bit-exact oracles
//! whose kept-vector sets the incremental engines must reproduce (see
//! `tests/compaction_differential.rs` and the `compact_bench` binary).
//!
//! # Example
//!
//! ```
//! use limscan_netlist::benchmarks;
//! use limscan_fault::FaultList;
//! use limscan_scan::ScanCircuit;
//! use limscan_atpg::{AtpgConfig, SequentialAtpg};
//! use limscan_compact::{omission, restoration};
//!
//! let sc = ScanCircuit::insert(&benchmarks::s27());
//! let faults = FaultList::collapsed(sc.circuit());
//! let outcome = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
//! let restored = restoration(sc.circuit(), &faults, &outcome.sequence);
//! let omitted = omission(sc.circuit(), &faults, &restored.sequence, 4);
//! assert!(omitted.sequence.len() <= outcome.sequence.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod omission;
mod restoration;
mod scan_compact;

pub use omission::{omission, omission_pass_resumable, omission_reference};
pub use restoration::{restoration, restoration_reference, restoration_resumable};
pub use scan_compact::{scan_test_set, CompactedSet};

use limscan_sim::TestSequence;

/// A compacted sequence plus bookkeeping about the compaction run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Compacted {
    /// The compacted test sequence.
    pub sequence: TestSequence,
    /// Length of the input sequence.
    pub original_len: usize,
    /// Faults detected by the input sequence (the compaction target set).
    pub target_count: usize,
    /// Faults detected by the compacted sequence that the input sequence
    /// did not detect — the paper's `ext det`.
    pub extra_detected: usize,
}

impl Compacted {
    /// Length reduction as a fraction of the original length.
    pub fn reduction(&self) -> f64 {
        if self.original_len == 0 {
            return 0.0;
        }
        1.0 - self.sequence.len() as f64 / self.original_len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_fault::FaultList;
    use limscan_netlist::benchmarks;
    use limscan_scan::ScanCircuit;
    use limscan_sim::{Logic, SeqFaultSim};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = TestSequence::new(width);
        for _ in 0..len {
            seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
        }
        seq
    }

    #[test]
    fn pipeline_preserves_coverage_and_shrinks() {
        let sc = ScanCircuit::insert(&benchmarks::s27());
        let c = sc.circuit();
        let faults = FaultList::collapsed(c);
        let seq = random_sequence(c.inputs().len(), 120, 5);
        let before = SeqFaultSim::run(c, &faults, &seq);

        let restored = restoration(c, &faults, &seq);
        let out = omission(c, &faults, &restored.sequence, 4);
        let after = SeqFaultSim::run(c, &faults, &out.sequence);

        assert!(
            out.sequence.len() < seq.len(),
            "must shrink a random sequence"
        );
        for id in faults.ids() {
            if before.is_detected(id) {
                assert!(after.is_detected(id), "{id} lost by compaction");
            }
        }
        assert_eq!(restored.original_len, 120);
        assert_eq!(out.original_len, restored.sequence.len());
        assert!(restored.reduction() > 0.0);
    }
}
