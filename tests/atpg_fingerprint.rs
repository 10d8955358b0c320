//! Generator and flow fingerprints: the tests that PODEM and the two
//! generators built on it produce, and every record field of the two
//! end-to-end flows, pinned bit for bit.
//!
//! Each case hashes the artefact's text form with FNV-1a
//! (`limscan_harness::fnv64`). A change in what PODEM decides, which
//! candidate vector the generator picks or how X values are filled shows
//! in the generated tests, so a speedup of the search machinery must leave
//! every value here untouched. The flow cases hash every field of
//! [`GenerationFlow`] and [`TranslationFlow`] that the table harness, the
//! experiment rows and the flow benchmark read, so a refactor of the flow
//! drivers must leave them untouched too.
//!
//! The s820, s1488 and s1423 cases and the benchmark-workload flow cases
//! are `#[ignore]`: they are the slow ones in a debug build. Run them with
//! `cargo test --release --test atpg_fingerprint -- --include-ignored`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan::atpg::first_approach::{self, CombAtpgConfig};
use limscan::atpg::genetic::GeneticConfig;
use limscan::atpg::{podem, Observation, PodemOptions, Scoap};
use limscan::harness::fnv64;
use limscan::netlist::bench_format;
use limscan::sim::Logic;
use limscan::{
    benchmarks, AnalysisOptions, AtpgConfig, Compacted, Engine, FaultList, FlowAnalysis,
    FlowConfig, GenerationFlow, ScanCircuit, SequentialAtpg, TranslationFlow,
};

/// `SequentialAtpg::run()` over the scan variant of `name` with
/// `config`: the sequence fingerprint and
/// `(aborted, scan_loads, funct_detected, detected)`.
fn sequential(name: &str, config: AtpgConfig) -> (u64, [usize; 4]) {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    let out = SequentialAtpg::new(&sc, &faults, config).run();
    let counts = [
        out.aborted,
        out.scan_loads,
        out.funct_detected,
        out.report.detected_count(),
    ];
    (fnv64(out.sequence.to_string().as_bytes()), counts)
}

/// `first_approach::generate` over the non-scan `name` with the default
/// configuration: the fingerprint of the test set plus its detection flags.
fn conventional(name: &str) -> u64 {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let faults = FaultList::collapsed(&circuit);
    let out = first_approach::generate(&circuit, &faults, &CombAtpgConfig::default());
    let flags: String = out
        .detected
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect();
    fnv64(format!("{}{flags}", out.set).as_bytes())
}

/// `podem` on every `step`-th collapsed fault of the scan variant of
/// `name`: the fingerprint of every verdict, assignment and observation.
/// With `latched`, each search starts from a random binary state pair
/// whose faulty half has up to two flip-flops complemented, so fault
/// effects are already latched as in the generator's fixed-state frames;
/// otherwise the state is free.
fn podem_fingerprint(name: &str, latched: bool, step: usize) -> u64 {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let sc = ScanCircuit::insert(&circuit);
    let c = sc.circuit();
    let n_ff = c.dffs().len();
    let scoap = Scoap::compute(c);
    let mut rng = StdRng::seed_from_u64(0x1a7c);
    let mut text = String::new();
    for (_, fault) in FaultList::collapsed(c).iter().step_by(step) {
        let opts = if latched {
            let good: Vec<Logic> = (0..n_ff).map(|_| Logic::from_bool(rng.gen())).collect();
            let mut bad = good.clone();
            for _ in 0..2 {
                let j = rng.gen_range(0..n_ff);
                bad[j] = bad[j].not();
            }
            PodemOptions {
                state_good: Some(good),
                state_bad: Some(bad),
                ..PodemOptions::default()
            }
        } else {
            PodemOptions::default()
        };
        match podem(c, &scoap, fault, &opts) {
            Some(t) => {
                let bits = |v: &[_]| v.iter().map(ToString::to_string).collect::<String>();
                let at = match t.observation {
                    Observation::Po(n) => format!("po{}", n.index()),
                    Observation::Ppo(j) => format!("ppo{j}"),
                };
                text += &format!("{} {} {at}\n", bits(&t.inputs), bits(&t.state));
            }
            None => text += "none\n",
        }
    }
    fnv64(text.as_bytes())
}

fn check_sequential(name: &str, fingerprint: u64, counts: [usize; 4]) {
    check_sequential_with(name, AtpgConfig::default(), fingerprint, counts);
}

fn check_sequential_with(name: &str, config: AtpgConfig, fingerprint: u64, counts: [usize; 4]) {
    let label = format!("{name} {config:?}");
    let got = sequential(name, config);
    assert_eq!(
        got,
        (fingerprint, counts),
        "{label}: sequential generator output moved (got {:#018x}, {:?})",
        got.0,
        got.1
    );
}

fn check_conventional(name: &str, fingerprint: u64) {
    let got = conventional(name);
    assert_eq!(
        got, fingerprint,
        "{name}: conventional generator output moved (got {got:#018x})"
    );
}

fn check_podem(name: &str, latched: bool, step: usize, fingerprint: u64) {
    let got = podem_fingerprint(name, latched, step);
    assert_eq!(
        got, fingerprint,
        "{name}: PODEM output moved (got {got:#018x})"
    );
}

#[test]
fn sequential_s208() {
    check_sequential("s208", 0x0270_aaf1_a713_33e3, [86, 7, 1, 363]);
}

#[test]
fn sequential_s298() {
    check_sequential("s298", 0x3daf_31c6_c3ce_f8c1, [165, 11, 3, 389]);
}

#[test]
fn sequential_s386() {
    check_sequential("s386", 0x9dcf_39dd_fad8_220f, [246, 5, 1, 434]);
}

#[test]
fn sequential_b06() {
    check_sequential("b06", 0x5d8f_dc00_374f_f1bb, [30, 10, 5, 245]);
}

/// Non-default generator configurations on s298, whose collapsed list
/// holds faults that static analysis proves untestable: without scan
/// knowledge, with no or one forward-search frame, with one candidate
/// (`random_candidates: 0` still scores one) or 40 (two scoring sweeps),
/// and with no random phase.
#[test]
fn sequential_s298_configs() {
    for (config, fingerprint, counts) in [
        (
            AtpgConfig {
                use_scan_knowledge: false,
                ..AtpgConfig::default()
            },
            0xc7f8_a867_b7c9_a418,
            [241, 0, 0, 313],
        ),
        (
            AtpgConfig {
                max_search_depth: 0,
                ..AtpgConfig::default()
            },
            0x7f52_b0c8_496e_a182,
            [165, 11, 3, 389],
        ),
        (
            AtpgConfig {
                max_search_depth: 1,
                ..AtpgConfig::default()
            },
            0x2044_91c9_a6b4_5a46,
            [165, 9, 3, 389],
        ),
        (
            AtpgConfig {
                random_candidates: 0,
                ..AtpgConfig::default()
            },
            0xca0a_d921_ab6b_9d0e,
            [165, 13, 4, 389],
        ),
        (
            AtpgConfig {
                random_candidates: 40,
                ..AtpgConfig::default()
            },
            0xbc05_f5d7_9a00_0db0,
            [165, 13, 3, 389],
        ),
        (
            AtpgConfig {
                random_phase_vectors: 0,
                ..AtpgConfig::default()
            },
            0x1977_0367_5f29_5c33,
            [165, 9, 6, 389],
        ),
    ] {
        check_sequential_with("s298", config, fingerprint, counts);
    }
}

#[test]
fn conventional_s298() {
    check_conventional("s298", 0x83d7_5969_d23b_31cf);
}

#[test]
fn conventional_s382() {
    check_conventional("s382", 0x4c24_fdc2_b426_6204);
}

#[test]
fn free_state_podem_s298() {
    check_podem("s298", false, 1, 0xab87_6ade_f4bf_483e);
}

#[test]
fn free_state_podem_b06() {
    check_podem("b06", false, 1, 0xd884_36fc_a2bb_5739);
}

#[test]
fn latched_state_podem_s298() {
    check_podem("s298", true, 1, 0xb5b9_4fcb_70e0_e386);
}

#[test]
fn latched_state_podem_b06() {
    check_podem("b06", true, 1, 0xacdf_f457_8af0_6a1d);
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn sequential_s820() {
    check_sequential("s820", 0x9e09_5fd5_a683_724a, [296, 10, 4, 876]);
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn sequential_s1488() {
    check_sequential("s1488", 0x0c4c_d111_c104_1c53, [1265, 23, 1, 1263]);
}

/// Every 16th collapsed fault of scan-inserted s1423 (193 faults). Its
/// free-state searches here hold up to 47 decisions, more than the frame
/// has free lane pairs for, so 433 of their flips take the search's
/// re-implication path; the s298, b06, s820 and s1488 searches never hold
/// more than 19 decisions.
#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn free_state_podem_s1423() {
    check_podem("s1423", false, 16, 0x50bb_a962_f0c4_470b);
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn latched_state_podem_s1423() {
    check_podem("s1423", true, 16, 0x0035_b872_8e6c_571f);
}

/// A [`Compacted`] record as text: sequence and bookkeeping.
fn compacted_text(c: &Compacted) -> String {
    format!(
        "{}original {} targets {} extra {}\n",
        c.sequence, c.original_len, c.target_count, c.extra_detected
    )
}

/// The analysis record's counts as text.
fn analysis_text(analysis: Option<&FlowAnalysis>) -> String {
    analysis.map_or_else(
        || "analysis off\n".to_owned(),
        |a| {
            format!(
                "{:?} untestable {} deferred {}\n",
                a.summary,
                a.untestable.len(),
                a.deferred
            )
        },
    )
}

/// The generation flow on `name`: the fingerprint of every record field
/// plus `(faults, generated, restored, omitted)` lengths.
fn generation_flow(name: &str, config: &FlowConfig) -> (u64, [usize; 4]) {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let flow = GenerationFlow::run_source(name, &bench_format::write(&circuit), config)
        .expect("flow runs on a lint-clean circuit");
    let g = &flow.generated;
    let text = format!(
        "{}aborted {} loads {} funct {} detected {}\n{}{}faults {}\n{}",
        g.sequence,
        g.aborted,
        g.scan_loads,
        g.funct_detected,
        g.report.detected_count(),
        compacted_text(&flow.restored),
        compacted_text(&flow.omitted),
        flow.faults.len(),
        analysis_text(flow.analysis.as_ref()),
    );
    let lens = [
        flow.faults.len(),
        g.sequence.len(),
        flow.restored.sequence.len(),
        flow.omitted.sequence.len(),
    ];
    (fnv64(text.as_bytes()), lens)
}

/// The translation flow on `name`: the fingerprint of every record field
/// plus `(faults, translated, restored, omitted)` lengths.
fn translation_flow(name: &str, config: &FlowConfig) -> (u64, [usize; 4]) {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let flow = TranslationFlow::run_source(name, &bench_format::write(&circuit), config)
        .expect("flow runs on a lint-clean circuit");
    let flags: String = flow
        .baseline
        .detected
        .iter()
        .map(|&d| if d { '1' } else { '0' })
        .collect();
    let text = format!(
        "{}{flags}\n{}cycles {}\n{}{}{}faults {}\n{}",
        flow.baseline.set,
        flow.baseline_compacted.set,
        flow.baseline_compacted.set.application_cycles(),
        flow.translated,
        compacted_text(&flow.restored),
        compacted_text(&flow.omitted),
        flow.faults.len(),
        analysis_text(flow.analysis.as_ref()),
    );
    let lens = [
        flow.faults.len(),
        flow.translated.len(),
        flow.restored.sequence.len(),
        flow.omitted.sequence.len(),
    ];
    (fnv64(text.as_bytes()), lens)
}

fn check_flow(label: &str, got: (u64, [usize; 4]), expected: (u64, [usize; 4])) {
    assert_eq!(
        got, expected,
        "{label}: flow record moved (got {:#018x}, {:?})",
        got.0, got.1
    );
}

#[test]
fn generation_flow_defaults() {
    let config = FlowConfig::default();
    for (name, expected) in [
        ("s27", (0x5ef9_974d_4872_648e, [52, 64, 16, 10])),
        ("s298", (0x2d22_442e_fa9e_a1b9, [554, 252, 144, 96])),
        ("b06", (0xf20f_8d78_09b7_f495, [275, 195, 141, 71])),
    ] {
        check_flow(name, generation_flow(name, &config), expected);
    }
}

#[test]
fn translation_flow_defaults() {
    let config = FlowConfig::default();
    for (name, expected) in [
        ("s27", (0x9d5d_a16a_0b6d_4037, [52, 25, 17, 13])),
        ("s298", (0x2160_ccfd_e91a_603a, [554, 314, 140, 86])),
        ("b06", (0x3fda_f3e5_96a4_2b95, [275, 200, 104, 65])),
    ] {
        check_flow(name, translation_flow(name, &config), expected);
    }
}

#[test]
fn flows_with_static_analysis() {
    let config = FlowConfig {
        analysis: AnalysisOptions::all(),
        ..FlowConfig::default()
    };
    check_flow(
        "generation s298",
        generation_flow("s298", &config),
        (0x2ba2_5fd1_4d34_2638, [409, 238, 124, 83]),
    );
    check_flow(
        "translation s298",
        translation_flow("s298", &config),
        (0xbe57_67d5_8304_90a1, [409, 314, 140, 86]),
    );
}

#[test]
fn generation_flow_genetic_engine() {
    let config = FlowConfig {
        engine: Engine::Genetic(GeneticConfig::default()),
        ..FlowConfig::default()
    };
    check_flow(
        "s27",
        generation_flow("s27", &config),
        (0xf980_1526_738e_a35c, [52, 16, 13, 10]),
    );
}

#[test]
fn flows_with_a_fault_cap() {
    let config = FlowConfig {
        max_faults: 40,
        ..FlowConfig::default()
    };
    check_flow(
        "generation s298",
        generation_flow("s298", &config),
        (0x6ef3_bded_4f10_e0ff, [40, 108, 56, 35]),
    );
    check_flow(
        "translation s298",
        translation_flow("s298", &config),
        (0x6324_7cf7_d056_ca77, [40, 104, 45, 31]),
    );
}

#[test]
fn generation_flow_two_chains() {
    let config = FlowConfig {
        scan_chains: 2,
        ..FlowConfig::default()
    };
    check_flow(
        "s298",
        generation_flow("s298", &config),
        (0xf31e_1fa9_2837_591d, [554, 183, 91, 61]),
    );
}

/// The `gen-atpg` benchmark workload's circuits.
#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn generation_flow_benchmark_workload() {
    let config = FlowConfig::default();
    for (name, expected) in [
        ("s820", (0xbf93_d378_52c5_3b11, [1172, 176, 105, 77])),
        ("s1488", (0x5b8d_06b5_93c4_edee, [2528, 235, 123, 92])),
    ] {
        check_flow(name, generation_flow(name, &config), expected);
    }
}

/// The `trans-compact` benchmark workload's circuits.
#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn translation_flow_benchmark_workload() {
    let config = FlowConfig::default();
    for (name, expected) in [
        ("s382", (0x6828_2f4c_5a00_c7d4, [806, 794, 442, 327])),
        ("s526", (0xdb1d_0eb0_fe51_129e, [950, 1055, 604, 390])),
        ("b03", (0xef6b_0544_c309_ae5c, [831, 1148, 674, 496])),
        ("b09", (0xc266_8f02_05ed_dd68, [867, 1103, 739, 617])),
        ("b10", (0x4b7b_bcc6_3041_063b, [840, 848, 489, 355])),
    ] {
        check_flow(name, translation_flow(name, &config), expected);
    }
}
