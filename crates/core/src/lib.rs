//! # limscan
//!
//! Test generation and test compaction for scan circuits with **limited
//! scan operations** — a from-scratch reproduction of Pomeranz & Reddy,
//! *"A New Approach to Test Generation and Test Compaction for Scan
//! Circuits"*, DATE 2003.
//!
//! The paper's idea: treat the scan-select and scan-in lines of a scan
//! circuit as ordinary primary inputs (and the scan-out line as an ordinary
//! primary output). Test generation and static compaction machinery built
//! for *non-scan* sequential circuits then applies directly, scan shifts
//! appear only where they pay for themselves (limited scan operations), and
//! test application time drops below what scan-specific compaction can
//! reach.
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | netlist | [`netlist`] | circuit model, `.bench` I/O, benchmark suite |
//! | faults | [`fault`] | stuck-at universe, equivalence collapsing |
//! | analysis | [`analyze`] | dominators, implications, dominance collapsing, untestability |
//! | simulation | [`sim`] | 3-valued logic, parallel-fault sequential simulation |
//! | scan | [`scan`] | scan insertion, `(SI, T)` tests, Section-3 translation |
//! | generation | [`atpg`] | PODEM, Section-2 sequential generator, baselines |
//! | compaction | [`compact`] | vector restoration \[23\], omission \[22\], scan-set pruning \[26\] |
//! | diagnostics | [`lint`] | static lint/DRC rules over netlists and scan chains |
//! | equivalence | [`equiv`] | cross-engine equivalence checking, test-set differential |
//! | flows | this crate | the end-to-end pipelines and experiment harness |
//!
//! ## Quick start
//!
//! ```
//! use limscan::{benchmarks, FlowConfig, GenerationFlow};
//!
//! # fn main() -> Result<(), limscan::FlowError> {
//! let circuit = benchmarks::s27();
//! let flow = GenerationFlow::run(&circuit, &FlowConfig::default())?;
//! println!(
//!     "coverage {:.2}% with {} vectors ({} scan), compacted to {} ({} scan)",
//!     flow.generated.report.coverage_percent(),
//!     flow.generated.sequence.len(),
//!     flow.generated_scan_vectors(),
//!     flow.omitted.sequence.len(),
//!     flow.omitted_scan_vectors(),
//! );
//! assert!(flow.omitted.sequence.len() <= flow.generated.sequence.len());
//! # Ok(())
//! # }
//! ```
//!
//! Flows run an error-severity lint gate first (see [`lint`]): structurally
//! unsound circuits are refused with a typed [`FlowError`] instead of
//! feeding the simulators undefined structures. Disable it with
//! [`FlowConfig::lint`]` = false`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equiv_flow;
mod experiment;
mod flow;
mod resilient;

pub use equiv_flow::{DifferentialFlow, EquivFlow};
pub use experiment::{CircuitExperiment, ExperimentConfig, Table5Row, Table6Row, Table7Row};
pub use flow::{
    AnalysisOptions, Engine, FlowAnalysis, FlowConfig, FlowError, GenerationFlow, TranslationFlow,
};
pub use resilient::{
    resume_flow, run_compaction_resilient, run_generation_resilient, run_translation_resilient,
    ResilientConfig, ResilientRun,
};

pub use limscan_analyze as analyze;
pub use limscan_atpg as atpg;
pub use limscan_compact as compact;
pub use limscan_equiv as equiv;
pub use limscan_fault as fault;
pub use limscan_harness as harness;
pub use limscan_lint as lint;
pub use limscan_netlist as netlist;
pub use limscan_obs as obs;
pub use limscan_scan as scan;
pub use limscan_sim as sim;

pub use limscan_analyze::{AnalysisSummary, FaultPartition, StaticAnalysis, UntestableReason};
pub use limscan_atpg::{AtpgConfig, AtpgOutcome, SequentialAtpg};
pub use limscan_compact::{omission, restoration, Compacted};
pub use limscan_equiv::{
    check, detection_diff, detection_diff_excluding, Counterexample, DetectionDiff, EquivOptions,
    EquivVerdict,
};
pub use limscan_fault::{Fault, FaultId, FaultList, StuckAt};
pub use limscan_harness::{
    CancelToken, FailPlan, FlowKind, FlowOutcome, FlowPhase, FlowSnapshot, RunBudget,
    SnapshotStore, StopReason,
};
pub use limscan_netlist::benchmarks;
pub use limscan_netlist::{Circuit, CircuitBuilder, GateKind, NetId};
pub use limscan_obs::{FlowReport, MetricsCollector, ObsHandle};
pub use limscan_scan::{ScanCircuit, ScanTest, ScanTestSet};
pub use limscan_sim::{
    DetectionReport, FaultDictionary, Logic, SeqFaultSim, SeqGoodSim, TestSequence,
};
