//! Test generation for the `limscan` workspace.
//!
//! Three layers:
//!
//! * [`Scoap`] — SCOAP controllability/observability measures used as
//!   search guidance;
//! * [`podem`] — a combinational PODEM over one time frame of a sequential
//!   circuit (present state and primary inputs in, primary outputs and
//!   next state out), with optional fixed present-state values carrying
//!   existing fault effects;
//! * [`SequentialAtpg`] — the paper's Section 2 procedure: forward-time
//!   test generation for `C_scan` that treats `scan_sel` / `scan_inp` as
//!   ordinary inputs, enhanced with **functional-level knowledge of scan**:
//!   when a fault effect reaches flip-flop `i`, a run of vectors with
//!   `scan_sel = 1` shifts it to `scan_out`; when activation from the
//!   current state is impossible, the required state is justified by a
//!   complete scan load.
//!
//! [`first_approach`] additionally provides the conventional
//! combinational-ATPG flow (scan-based tests `(SI, t)`), used to build the
//! `[26]`-style comparison test sets of Tables 6 and 7.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::benchmarks;
//! use limscan_fault::FaultList;
//! use limscan_scan::ScanCircuit;
//! use limscan_atpg::{AtpgConfig, SequentialAtpg};
//!
//! let sc = ScanCircuit::insert(&benchmarks::s27());
//! let faults = FaultList::collapsed(sc.circuit());
//! let outcome = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
//! assert!(outcome.report.coverage_percent() > 90.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhaustive;
pub mod first_approach;
pub mod genetic;
mod podem;
mod scoap;
mod sequential;

pub use podem::{podem, Observation, PodemEngine, PodemOptions, PodemTest};
pub use scoap::Scoap;
pub use sequential::{AtpgConfig, AtpgOutcome, AtpgStop, SequentialAtpg};
