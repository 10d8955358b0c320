//! The equivalence flow: lint-gated, observable wrappers around the
//! cross-engine checker and the test-set differential.
//!
//! [`limscan_equiv`] is deliberately free of flow machinery — it takes
//! circuits and returns verdicts. This module is where a check becomes a
//! *flow*: the same error-severity lint gate as the generation and
//! translation flows refuses structurally unsound circuits up front, the
//! run is bracketed in `Flow`/`Pass` spans, and the equivalence counters
//! ([`Metric::EquivRounds`], [`Metric::EquivMismatches`],
//! [`Metric::EquivFaultsLost`]) are attributed to the pass that produced
//! them, so `--trace` / `--metrics` and the golden-trace suite see
//! equivalence runs the same way they see every other flow.

use limscan_equiv::{check, detection_diff, DetectionDiff, EquivOptions, EquivVerdict};
use limscan_fault::FaultList;
use limscan_netlist::Circuit;
use limscan_obs::{FlowReport, Metric, ObsHandle, SpanKind};
use limscan_scan::ScanCircuit;
use limscan_sim::TestSequence;

use crate::flow::{check_scannable, lint_gate, FlowConfig, FlowError};

/// One observed bounded-equivalence run between two circuit variants.
///
/// Built by [`EquivFlow::run`] (arbitrary pair) or
/// [`EquivFlow::run_scan_variant`] (bare circuit against its own
/// scan-inserted form, with the scan-select line tied to functional mode).
///
/// # Example
///
/// ```
/// use limscan::{benchmarks, EquivFlow, EquivOptions, FlowConfig};
///
/// let c = benchmarks::s27();
/// let flow =
///     EquivFlow::run_scan_variant(&c, 1, &EquivOptions::default(), &FlowConfig::default())
///         .unwrap();
/// assert!(flow.verdict.is_equivalent());
/// ```
#[derive(Clone, Debug)]
pub struct EquivFlow {
    /// The checker's verdict: equivalent with coverage statistics, or a
    /// minimized, scalar-confirmed counterexample.
    pub verdict: EquivVerdict,
    /// Per-phase timing and counter report.
    pub report: FlowReport,
}

impl EquivFlow {
    /// Checks `right` against the reference `left` under `opts`.
    ///
    /// Both circuits pass the lint gate first (unless
    /// [`FlowConfig::lint`] is off); only [`FlowConfig::lint`] and
    /// [`FlowConfig::obs`] of the flow configuration are consulted.
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when either circuit has error-severity lint
    /// findings, [`FlowError::Equiv`] when the interfaces cannot be
    /// aligned or a forced input does not exist.
    pub fn run(
        left: &Circuit,
        right: &Circuit,
        opts: &EquivOptions,
        config: &FlowConfig,
    ) -> Result<Self, FlowError> {
        let (obs, collector) = config.obs.with_collector();
        let verdict = Self::run_observed(left, right, opts, config.lint, &obs)?;
        Ok(EquivFlow {
            verdict,
            report: FlowReport::from_collector(&collector),
        })
    }

    /// Checks `circuit` against its own scan-inserted variant with
    /// `chains` chains, the scan-select input tied to 0 on top of any
    /// forces already in `opts` — the "scan insertion preserves functional
    /// behaviour" proof obligation.
    ///
    /// # Errors
    ///
    /// [`FlowError::NoFlipFlops`] / [`FlowError::ChainCount`] when scan
    /// insertion does not apply, plus everything [`EquivFlow::run`]
    /// reports.
    pub fn run_scan_variant(
        circuit: &Circuit,
        chains: usize,
        opts: &EquivOptions,
        config: &FlowConfig,
    ) -> Result<Self, FlowError> {
        check_scannable(circuit, chains)?;
        let sc = ScanCircuit::insert_chains(circuit, chains);
        let mut opts = opts.clone();
        opts.forces.extend(sc.functional_ties());
        Self::run(circuit, sc.circuit(), &opts, config)
    }

    fn run_observed(
        left: &Circuit,
        right: &Circuit,
        opts: &EquivOptions,
        lint: bool,
        obs: &ObsHandle,
    ) -> Result<EquivVerdict, FlowError> {
        let flow = obs.span(SpanKind::Flow, "equiv-flow");
        if lint {
            let _span = flow.child(SpanKind::Pass, "lint-gate");
            lint_gate(left)?;
            lint_gate(right)?;
        }
        let span = flow.child(SpanKind::Pass, "lockstep-check");
        let verdict = check(left, right, opts)?;
        // Counters are emitted here, after the (possibly multi-threaded)
        // checker has returned, so traces are identical for every thread
        // count.
        match &verdict {
            EquivVerdict::Equivalent(stats) => {
                span.handle()
                    .counter(Metric::EquivRounds, stats.rounds as u64);
            }
            EquivVerdict::NotEquivalent(cex) => {
                span.handle()
                    .counter(Metric::EquivRounds, cex.round as u64 + 1);
                span.handle().counter(Metric::EquivMismatches, 1);
            }
        }
        Ok(verdict)
    }
}

/// One observed test-set-vs-test-set differential comparison.
///
/// Built by [`DifferentialFlow::run`]: both programs are fault-simulated
/// on the same circuit and compared per fault. `diff.preserved()` is the
/// acceptance criterion for compaction and translation — the candidate
/// program must detect every fault the original does.
///
/// # Example
///
/// ```
/// use limscan::{benchmarks, DifferentialFlow, FaultList, FlowConfig, TestSequence};
///
/// let c = benchmarks::s27();
/// let faults = FaultList::collapsed(&c);
/// let empty = TestSequence::new(c.inputs().len());
/// let flow = DifferentialFlow::run(&c, &faults, &empty, &empty, &FlowConfig::default()).unwrap();
/// assert!(flow.diff.identical());
/// ```
#[derive(Clone, Debug)]
pub struct DifferentialFlow {
    /// The per-fault detection comparison.
    pub diff: DetectionDiff,
    /// Per-phase timing and counter report.
    pub report: FlowReport,
}

impl DifferentialFlow {
    /// Compares the detection of `candidate` against `original` on
    /// `circuit` over `faults`.
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when the circuit has error-severity lint
    /// findings and [`FlowConfig::lint`] is on.
    ///
    /// # Panics
    ///
    /// Panics if either sequence's width differs from the circuit's input
    /// count.
    pub fn run(
        circuit: &Circuit,
        faults: &FaultList,
        original: &TestSequence,
        candidate: &TestSequence,
        config: &FlowConfig,
    ) -> Result<Self, FlowError> {
        let (obs, collector) = config.obs.with_collector();
        let diff = Self::run_observed(circuit, faults, original, candidate, config.lint, &obs)?;
        Ok(DifferentialFlow {
            diff,
            report: FlowReport::from_collector(&collector),
        })
    }

    fn run_observed(
        circuit: &Circuit,
        faults: &FaultList,
        original: &TestSequence,
        candidate: &TestSequence,
        lint: bool,
        obs: &ObsHandle,
    ) -> Result<DetectionDiff, FlowError> {
        let flow = obs.span(SpanKind::Flow, "equiv-flow");
        if lint {
            let _span = flow.child(SpanKind::Pass, "lint-gate");
            lint_gate(circuit)?;
        }
        let span = flow.child(SpanKind::Pass, "detection-diff");
        let diff = detection_diff(circuit, faults, original, candidate);
        if !diff.lost.is_empty() {
            span.handle()
                .counter(Metric::EquivFaultsLost, diff.lost.len() as u64);
        }
        Ok(diff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::{bench_format, benchmarks};

    #[test]
    fn scan_variant_flow_is_equivalent_for_every_chain_count() {
        let c = benchmarks::s27();
        for chains in 1..=3 {
            let flow = EquivFlow::run_scan_variant(
                &c,
                chains,
                &EquivOptions::default(),
                &FlowConfig::default(),
            )
            .unwrap();
            assert!(flow.verdict.is_equivalent(), "{chains} chains");
        }
    }

    #[test]
    fn chain_count_precondition_is_checked() {
        let c = benchmarks::s27();
        let r =
            EquivFlow::run_scan_variant(&c, 99, &EquivOptions::default(), &FlowConfig::default());
        assert!(matches!(r, Err(FlowError::ChainCount { .. })));
    }

    #[test]
    fn mismatch_is_reported_with_counters() {
        let c = benchmarks::s27();
        let mutant_src = bench_format::write(&c).replace("G10 = NOR(", "G10 = OR(");
        let mutant = bench_format::parse("s27_mutant", &mutant_src).unwrap();
        let flow = EquivFlow::run(
            &c,
            &mutant,
            &EquivOptions::default(),
            &FlowConfig::default(),
        )
        .unwrap();
        assert!(!flow.verdict.is_equivalent());
    }

    #[test]
    fn lint_gate_refuses_unsound_candidates() {
        let c = benchmarks::s27();
        // A combinational cycle: error-severity lint finding.
        let bad = bench_format::parse_raw(
            "bad",
            "INPUT(G0)\nINPUT(G1)\nINPUT(G2)\nINPUT(G3)\nOUTPUT(G17)\n\
             G17 = AND(G0, G17)\n",
        );
        let Ok(bad) = bad.build() else {
            return; // builder already refuses cycles: nothing to gate
        };
        let r = EquivFlow::run(&c, &bad, &EquivOptions::default(), &FlowConfig::default());
        assert!(matches!(r, Err(FlowError::Lint(_))));
    }

    #[test]
    fn differential_flow_counts_lost_detections() {
        let c = benchmarks::s27();
        let faults = FaultList::collapsed(&c);
        let mut seq = TestSequence::new(c.inputs().len());
        for t in 0..12u64 {
            seq.push(
                (0..c.inputs().len())
                    .map(|i| {
                        if (0x9e37_79b9_7f4a_7c15u64 >> ((t as usize * 4 + i) % 61)) & 1 == 0 {
                            limscan_sim::Logic::Zero
                        } else {
                            limscan_sim::Logic::One
                        }
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let full = DifferentialFlow::run(&c, &faults, &seq, &seq, &FlowConfig::default()).unwrap();
        assert!(full.diff.identical());
        let cut = DifferentialFlow::run(&c, &faults, &seq, &seq.prefix(1), &FlowConfig::default())
            .unwrap();
        assert!(!cut.diff.preserved());
    }
}
