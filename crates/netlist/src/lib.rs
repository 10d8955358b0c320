//! Gate-level netlist model for the `limscan` workspace.
//!
//! This crate provides the circuit substrate that everything else (fault
//! model, simulation, scan insertion, ATPG, compaction) is built on:
//!
//! * [`Circuit`] — an immutable, validated gate-level sequential netlist
//!   (primary inputs, combinational gates, D flip-flops, primary outputs);
//! * [`CircuitBuilder`] — name-based construction with forward references,
//!   mirroring the ISCAS-89 `.bench` textual format;
//! * [`bench_format`] — parser and writer for `.bench` files;
//! * [`blif_format`] — parser and writer for a structural BLIF subset;
//! * [`benchmarks`] — the embedded `s27` circuit from the paper's running
//!   example plus a seeded synthetic generator reproducing the published
//!   profiles of the ISCAS-89 / ITC-99 circuits used in its evaluation.
//!
//! # Example
//!
//! ```
//! use limscan_netlist::benchmarks;
//!
//! let c = benchmarks::s27();
//! assert_eq!(c.inputs().len(), 4);
//! assert_eq!(c.dffs().len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_format;
pub mod benchmarks;
pub mod blif_format;
mod builder;
mod circuit;
mod error;
mod level;
pub mod limits;
pub mod raw;
mod stats;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Driver, GateKind, Net, NetId, Pin, Span};
pub use error::NetlistError;
pub use limits::{LimitViolation, ParseLimit, ParseLimits};
pub use raw::RawNetlist;
pub use stats::CircuitStats;
