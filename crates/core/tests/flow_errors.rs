//! Negative-path observability: refused flows must fail fast and clean.
//!
//! Every [`FlowError`] variant is checked for (a) its typed shape, (b) a
//! useful message, and (c) the instrumentation contract that no
//! simulation work happened before the refusal — the collector sees the
//! flow/gate spans but zero simulation events.

use std::sync::Arc;

use limscan::{
    benchmarks, FlowConfig, FlowError, GenerationFlow, MetricsCollector, ObsHandle, TranslationFlow,
};

/// A config whose events land in the returned collector.
fn observed_config() -> (FlowConfig, MetricsCollector) {
    let collector = MetricsCollector::default();
    let config = FlowConfig {
        obs: ObsHandle::from_sink(Arc::new(collector.clone())),
        ..FlowConfig::default()
    };
    (config, collector)
}

/// The refusal must precede any simulation: spans for the flow and the
/// gate are fine, simulation events are not.
fn assert_no_sim_work(collector: &MetricsCollector, context: &str) {
    assert_eq!(
        collector.sim_event_count(),
        0,
        "{context}: a refused flow must not have simulated anything"
    );
    assert!(
        !collector.is_empty(),
        "{context}: the flow span itself should still be traced"
    );
}

const COMB_SRC: &str = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";

const CYCLIC_SRC: &str = "\
INPUT(a)
OUTPUT(y)
y = AND(a, q)
q = DFF(g)
g = NOT(y)
loopy = OR(loopy, a)
";

#[test]
fn no_flip_flops_is_refused_before_any_simulation() {
    let (config, collector) = observed_config();
    let err = GenerationFlow::run_source("comb", COMB_SRC, &config)
        .expect_err("combinational circuit must be refused");
    assert!(matches!(err, FlowError::NoFlipFlops), "{err:?}");
    assert!(
        err.to_string()
            .contains("no flip-flops; scan insertion does not apply"),
        "unhelpful message: {err}"
    );
    assert_no_sim_work(&collector, "NoFlipFlops");
}

#[test]
fn bad_chain_count_is_refused_before_any_simulation() {
    let (mut config, collector) = observed_config();
    config.scan_chains = 99;
    let err =
        GenerationFlow::run(&benchmarks::s27(), &config).expect_err("s27 has only 3 flip-flops");
    assert!(
        matches!(
            err,
            FlowError::ChainCount {
                requested: 99,
                flip_flops: 3
            }
        ),
        "{err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("3 flip-flop(s)") && msg.contains("99 scan chain(s)"),
        "unhelpful message: {msg}"
    );
    assert_no_sim_work(&collector, "ChainCount");
}

#[test]
fn lint_defect_is_refused_before_any_simulation() {
    let (config, collector) = observed_config();
    let err = GenerationFlow::run_source("cyc", CYCLIC_SRC, &config)
        .expect_err("cyclic circuit must be refused");
    let FlowError::Lint(diags) = &err else {
        panic!("expected a lint refusal, got {err:?}");
    };
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code.code(), "L001");
    let msg = err.to_string();
    assert!(
        msg.contains("fails lint with 1 error(s)") && msg.contains("L001"),
        "unhelpful message: {msg}"
    );
    assert_no_sim_work(&collector, "Lint");
}

#[test]
fn translation_flow_shares_the_refusal_contract() {
    let (config, collector) = observed_config();
    let err = TranslationFlow::run_source("comb", COMB_SRC, &config)
        .expect_err("combinational circuit must be refused");
    assert!(matches!(err, FlowError::NoFlipFlops), "{err:?}");
    assert_no_sim_work(&collector, "translation/NoFlipFlops");
}

#[test]
fn successful_flow_does_simulate() {
    // Control for the zero-sim assertions above: the same collector
    // machinery sees plenty of simulation events on a healthy run.
    let (config, collector) = observed_config();
    GenerationFlow::run(&benchmarks::s27(), &config).expect("s27 is clean");
    assert!(
        collector.sim_event_count() > 0,
        "a successful flow must record simulation work"
    );
}
