//! Logic and fault simulation for the `limscan` workspace.
//!
//! * [`Logic`] — scalar three-valued logic (0 / 1 / X);
//! * [`WideWord`] — bit-parallel three-valued words of `64 * W` lanes
//!   (production batches hold [`LANES`] faults, [`LANE_WORDS`] 64-bit
//!   planes per logic bit), portable on stable Rust;
//! * [`TestSequence`] — a flat sequence of input vectors, the paper's
//!   central object (scan operations are just vectors with `scan_sel = 1`);
//! * [`eval_comb`] / [`SeqGoodSim`] — combinational and sequential
//!   good-circuit simulation;
//! * [`FrameSim`] — one time frame for 64 machines per sweep of the
//!   compiled op stream, with a stuck-at fault in chosen lanes: the
//!   implication engine of test generation;
//! * [`LockstepSim`] — [`LANES`] independent good-circuit trajectories per
//!   word, the engine under cross-variant equivalence checking;
//! * [`SeqFaultSim`] — incremental sequential **parallel-fault** simulation
//!   on a compiled flat gate array: [`LANES`] faults share each wide word,
//!   per-fault flip-flop state is carried across time units, detected
//!   faults are dropped mid-extension at slice barriers, and
//!   first-detection times are recorded. This engine powers test
//!   generation (fault dropping), test set translation checks, and both
//!   static compaction procedures.
//!
//! Detection is three-valued safe: a fault counts as detected only at a
//! time unit where the fault-free circuit drives a binary value on some
//! primary output and the faulty circuit drives the complement. No credit
//! is ever taken for differences involving X, so unknown power-up state
//! cannot produce optimistic coverage.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::benchmarks;
//! use limscan_fault::FaultList;
//! use limscan_sim::{Logic, SeqFaultSim, TestSequence};
//!
//! let c = benchmarks::s27();
//! let faults = FaultList::collapsed(&c);
//! let mut sim = SeqFaultSim::new(&c, &faults);
//! let mut seq = TestSequence::new(c.inputs().len());
//! seq.push(vec![Logic::One, Logic::Zero, Logic::One, Logic::Zero]);
//! sim.extend(&seq);
//! assert!(sim.detected_count() <= faults.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod comb;
mod dense;
mod dictionary;
mod engine;
pub mod fail_inject;
mod fault_sim;
mod flat;
mod frame;
mod good;
mod lockstep;
mod logic;
mod parallel;
mod sequence;

pub use checkpoint::{Loss, PrefixState, TrialCheckpoints};
pub use comb::CombFaultSim;
pub use dictionary::{FaultDictionary, Syndrome};
pub use engine::{set_sim_threads, sim_threads};
pub use fault_sim::{single_fault_detects, DetectionReport, SeqFaultSim, SingleFaultSim};
pub use frame::FrameSim;
pub use good::{eval_comb, eval_comb_with, next_state, SeqGoodSim};
pub use lockstep::LockstepSim;
pub use logic::Logic;
pub use parallel::{WideWord, LANES, LANE_WORDS};
pub use sequence::TestSequence;
