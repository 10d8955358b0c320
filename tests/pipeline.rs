//! End-to-end integration tests: the full paper pipeline through the
//! public `limscan` API only.

use limscan::{
    benchmarks, omission, restoration, CircuitExperiment, ExperimentConfig, FaultList, FlowConfig,
    GenerationFlow, Logic, ScanCircuit, SeqFaultSim, TranslationFlow,
};

#[test]
fn s27_generation_flow_end_to_end() {
    let flow = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default())
        .expect("flow runs on a lint-clean circuit");

    // Table 5 shape: full coverage on the genuine s27.
    assert_eq!(
        flow.generated.report.detected_count(),
        flow.faults.len(),
        "s27_scan must reach 100% coverage"
    );

    // Table 6 shape: strictly useful compaction stages.
    assert!(flow.restored.sequence.len() < flow.generated.sequence.len());
    assert!(flow.omitted.sequence.len() <= flow.restored.sequence.len());
    assert!(flow.omitted_scan_vectors() <= flow.restored_scan_vectors());

    // Compaction preserves every detection (re-verified independently).
    let after = SeqFaultSim::run(flow.scan.circuit(), &flow.faults, &flow.omitted.sequence);
    assert_eq!(after.detected_count(), flow.faults.len());
}

#[test]
fn s27_translation_flow_beats_complete_scan_compaction() {
    let flow = TranslationFlow::run(&benchmarks::s27(), &FlowConfig::default())
        .expect("flow runs on a lint-clean circuit");
    let baseline_cycles = flow.baseline_compacted.set.application_cycles();
    assert_eq!(flow.translated.len(), baseline_cycles);
    assert!(
        flow.omitted.sequence.len() < baseline_cycles,
        "flat compaction ({}) must beat complete-scan compaction ({baseline_cycles})",
        flow.omitted.sequence.len()
    );
}

#[test]
fn compacted_sequences_contain_limited_scan_operations() {
    let flow = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default())
        .expect("flow runs on a lint-clean circuit");
    let sel = flow.scan.scan_sel_pos();
    let n_sv = flow.scan.n_sv();
    let mut has_limited = false;
    let mut run = 0usize;
    for v in flow.omitted.sequence.iter() {
        if v[sel] == Logic::One {
            run += 1;
        } else {
            if run > 0 && run < n_sv {
                has_limited = true;
            }
            run = 0;
        }
    }
    if run > 0 && run < n_sv {
        has_limited = true;
    }
    assert!(
        has_limited,
        "compaction should produce limited scan operations"
    );
}

#[test]
fn experiment_runner_matches_direct_flows() {
    let exp = CircuitExperiment::run("s27", &ExperimentConfig::default()).unwrap();
    let direct = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default())
        .expect("flow runs on a lint-clean circuit");
    assert_eq!(
        exp.generation.generated.sequence, direct.generated.sequence,
        "experiment runner must be a thin wrapper over the flows"
    );
    let t6 = exp.table6();
    assert_eq!(t6.test_len.0, direct.generated.sequence.len());
}

#[test]
fn synthetic_profile_flow_has_paper_shape() {
    // One mid-size profile-synthetic circuit through the whole pipeline:
    // the paper's qualitative claims must hold even on the stand-in.
    let config = FlowConfig {
        max_faults: 400,
        ..FlowConfig::default()
    };
    let circuit = benchmarks::load("b03").unwrap();
    let gen = GenerationFlow::run(&circuit, &config).expect("flow runs on a lint-clean circuit");
    assert!(gen.generated.report.coverage_percent() > 70.0);
    assert!(gen.omitted.sequence.len() <= gen.restored.sequence.len());
    assert!(gen.restored.sequence.len() <= gen.generated.sequence.len());

    let tr = TranslationFlow::run(&circuit, &config).expect("flow runs on a lint-clean circuit");
    assert!(
        tr.omitted.sequence.len() <= tr.baseline_compacted.set.application_cycles(),
        "flat compaction must not be worse than complete-scan compaction"
    );
}

#[test]
fn plain_compaction_calls_reproduce_the_flow_records() {
    // The flow driver runs restoration and then omission pass by pass,
    // with its own target set; the plain public calls must produce the
    // same two records, bookkeeping included.
    let flow = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default())
        .expect("flow runs on a lint-clean circuit");
    let c = flow.scan.circuit();
    let restored = restoration(c, &flow.faults, &flow.generated.sequence);
    assert_eq!(restored, flow.restored);
    let omitted = omission(c, &flow.faults, &restored.sequence, 2);
    assert_eq!(omitted, flow.omitted);
}

#[test]
fn scan_insertion_is_transparent_when_idle() {
    // Cross-crate restatement of the core guarantee: with scan_sel = 0 the
    // scan circuit is the original circuit.
    use limscan::SeqGoodSim;
    for name in ["s27", "b01"] {
        let circuit = benchmarks::load(name).unwrap();
        let sc = ScanCircuit::insert(&circuit);
        let mut orig = SeqGoodSim::new(&circuit);
        let mut scanned = SeqGoodSim::new(sc.circuit());
        for i in 0..20u32 {
            let vals: Vec<Logic> = (0..circuit.inputs().len())
                .map(|j| Logic::from_bool((i.wrapping_mul(7).wrapping_add(j as u32)) % 3 == 0))
                .collect();
            let o = orig.step(&vals);
            let s = scanned.step(&sc.assemble(&vals, Logic::Zero, Logic::X));
            assert_eq!(&s[..o.len()], &o[..], "{name} output diverged at step {i}");
            assert_eq!(orig.state(), scanned.state(), "{name} state diverged");
        }
    }
}

#[test]
fn multi_chain_flow_end_to_end() {
    // The paper's noted extension: the same procedures over multiple scan
    // chains. Coverage machinery must work unchanged, and scan loads get
    // cheaper.
    let circuit = benchmarks::load("b06").unwrap();
    let single = FlowConfig {
        max_faults: 250,
        ..FlowConfig::default()
    };
    let triple = FlowConfig {
        scan_chains: 3,
        ..single.clone()
    };

    let f1 = GenerationFlow::run(&circuit, &single).expect("flow runs on a lint-clean circuit");
    let f3 = GenerationFlow::run(&circuit, &triple).expect("flow runs on a lint-clean circuit");
    assert_eq!(f3.scan.chain_count(), 3);
    assert_eq!(f3.scan.n_sv(), f1.scan.n_sv());
    assert!(f3.scan.max_chain_len() < f1.scan.max_chain_len());

    // Detection results must be verifiable by independent simulation.
    let check = SeqFaultSim::run(f3.scan.circuit(), &f3.faults, &f3.omitted.sequence);
    assert!(check.detected_count() >= f3.generated.report.detected_count());
    // Both configurations should reach comparable coverage.
    let c1 = f1.generated.report.coverage_percent();
    let c3 = f3.generated.report.coverage_percent();
    assert!(
        (c1 - c3).abs() < 15.0,
        "chain count should not change testability materially ({c1:.1} vs {c3:.1})"
    );
}

#[test]
fn fault_universe_covers_scan_logic() {
    // Table 5's note: the fault list includes the added multiplexers.
    let circuit = benchmarks::s27();
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    let mux_faults = faults
        .iter()
        .filter(|(_, f)| {
            let src = f.site.source_net(sc.circuit());
            sc.circuit().net(src).name().starts_with("scan_mux")
        })
        .count();
    assert!(mux_faults > 0);
    assert!(
        faults.len() > FaultList::collapsed(&circuit).len(),
        "C_scan has strictly more faults than C"
    );
}
