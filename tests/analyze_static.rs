//! Static-analysis untestability claims checked against ground truth.
//!
//! The sequential generator skips the search for every fault
//! `StaticAnalysis` proves per-frame untestable, and `--analyze` removes
//! those faults from the target universe, so a false claim would silently
//! lose coverage. These tests anchor soundness from two independent
//! directions: the exhaustive single-frame oracle (`prove_frame`
//! enumerates every PI + state assignment) and random sequential
//! simulation (a claimed untestable fault must never be detected, and its
//! good and faulty states must never conflict, whatever the seed,
//! sequence length or thread count). Counts are pinned so analysis drift
//! is a deliberate, visible change rather than an accident.

use proptest::prelude::*;

use limscan::atpg::exhaustive::{count_untestable, prove_frame, FrameTestability};
use limscan::sim::set_sim_threads;
use limscan::{
    benchmarks, detection_diff_excluding, AnalysisOptions, FaultList, FlowConfig, GenerationFlow,
    Logic, ScanCircuit, SeqFaultSim, StaticAnalysis, TestSequence,
};

/// `(name, untestable class representatives, untestable members of the
/// full universe)` — pinned static-analysis results per benchmark.
const PINNED_UNTESTABLE: &[(&str, usize, usize)] =
    &[("s27", 0, 0), ("s298", 137, 280), ("s344", 75, 141)];

fn analysis_for(name: &str) -> (limscan::Circuit, StaticAnalysis) {
    let c = benchmarks::load(name).expect("benchmark loads");
    let a = StaticAnalysis::run(&c);
    (c, a)
}

#[test]
fn untestable_counts_are_pinned_and_self_verified() {
    for &(name, reps, members) in PINNED_UNTESTABLE {
        let (c, a) = analysis_for(name);
        let full = FaultList::full(&c);
        let part = a.partition(&full);
        assert_eq!(
            (a.summary().untestable_faults, part.untestable().len()),
            (reps, members),
            "{name}: untestable counts drifted"
        );
        let obligations = a.verify(&c).expect("every recorded reason re-verifies");
        assert!(obligations >= reps, "{name}: verify checked too little");
    }
}

/// The frame of s27 is 7 bits raw and 9 bits scan-inserted: small enough
/// to settle the question exactly. The oracle and the analysis must agree
/// there are no untestable faults at all.
#[test]
fn s27_oracle_agreement_raw_and_scan() {
    let (c, a) = analysis_for("s27");
    let full = FaultList::full(&c);
    assert_eq!(count_untestable(&c, &full, 20), Some(0));
    assert_eq!(a.partition(&full).untestable().len(), 0);

    let sc = ScanCircuit::insert(&c);
    let scan_full = FaultList::full(sc.circuit());
    assert_eq!(count_untestable(sc.circuit(), &scan_full, 20), Some(0));
    let sa = StaticAnalysis::run(sc.circuit());
    assert_eq!(sa.partition(&scan_full).untestable().len(), 0);
}

/// A deterministic sample of s298's claimed-untestable class
/// representatives, each confirmed by exhausting all 2^17 frame
/// assignments. The full-universe check (every representative, plus the
/// oracle count over the whole fault list) is the `#[ignore]`d test below.
#[test]
fn s298_sampled_claims_confirmed_by_the_oracle() {
    let (c, a) = analysis_for("s298");
    let claimed = a.untestable_faults();
    assert!(!claimed.is_empty(), "s298 has provable untestable faults");
    let step = claimed.len().div_ceil(8);
    for (f, reason) in claimed.iter().step_by(step) {
        assert_eq!(
            prove_frame(&c, *f, 20),
            FrameTestability::Untestable,
            "false untestability claim on {} ({reason})",
            f.display_name(&c),
        );
    }
}

/// Exhaustive confirmation of every s298 untestability claim, and the
/// oracle count of the whole universe as an upper-bound sanity check.
/// Minutes of work in debug builds — run with `--ignored` in release.
#[test]
#[ignore = "exhausts 2^17 frames per claimed fault; run in release"]
fn s298_every_claim_confirmed_exhaustively() {
    let (c, a) = analysis_for("s298");
    for (f, reason) in a.untestable_faults() {
        assert_eq!(
            prove_frame(&c, f, 20),
            FrameTestability::Untestable,
            "false untestability claim on {} ({reason})",
            f.display_name(&c),
        );
    }
    let full = FaultList::full(&c);
    let truth = count_untestable(&c, &full, 20).expect("17-bit frame fits");
    let claimed = a.partition(&full).untestable().len();
    assert!(
        claimed <= truth,
        "analysis claims {claimed} untestable members but only {truth} exist"
    );
}

/// Splitmix64: a tiny deterministic stream for building random sequences
/// without depending on the `rand` crate from the test side.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut state = seed;
    (0..len)
        .map(|_| {
            (0..width)
                .map(|_| Logic::from_bool(splitmix(&mut state) & 1 == 1))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// No statically-untestable fault is ever detected by random
    /// sequential simulation — any benchmark, any seed, any sequence
    /// length, any thread count. Detection here would be a *proof* the
    /// static claim is wrong, so this must hold unconditionally.
    #[test]
    fn untestable_faults_never_detected_by_random_simulation(
        bench in 0usize..3,
        seed in any::<u64>(),
        len in 1usize..48,
        threads in 1usize..=3,
    ) {
        let name = ["s27", "s298", "s344"][bench];
        let (c, a) = analysis_for(name);
        let full = FaultList::full(&c);
        let part = a.partition(&full);
        let untestable: Vec<_> = part
            .untestable()
            .iter()
            .map(|(id, _)| full.fault(*id))
            .collect();
        if untestable.is_empty() {
            return Ok(());
        }
        let list = FaultList::from_faults(untestable);
        let seq = random_sequence(c.inputs().len(), len, seed);
        set_sim_threads(Some(threads));
        let report = SeqFaultSim::run(&c, &list, &seq);
        set_sim_threads(None);
        prop_assert_eq!(
            report.detected_count(),
            0,
            "{} detected a statically-untestable fault (seed {}, len {})",
            name, seed, len
        );
    }
}

/// The lemma the generator's episode skip rests on (DESIGN.md §18): from
/// the all-X start, a fault proven untestable per frame never reaches a
/// (good, faulty) state pair with complementary binary values, and is
/// never detected. Random 0/1/X sequences over the scan-inserted `name`,
/// checked after every vector.
fn check_untestable_state_pairs(name: &str) {
    let sc = ScanCircuit::insert(&benchmarks::load(name).expect("benchmark loads"));
    let c = sc.circuit();
    let full = FaultList::full(c);
    let part = StaticAnalysis::run(c).partition(&full);
    let list = FaultList::from_faults(part.untestable().iter().map(|&(id, _)| full.fault(id)));
    assert!(!list.is_empty(), "{name}: no proven-untestable faults");
    let mut state = 0x5eed;
    for run in 0..4 {
        let mut sim = SeqFaultSim::new(c, &list);
        for t in 0..64 {
            // One X in eight, so that binary state bits build up.
            let vector = (0..c.inputs().len())
                .map(|_| match splitmix(&mut state) % 8 {
                    0 => Logic::X,
                    r => Logic::from_bool(r % 2 == 1),
                })
                .collect();
            let mut step = TestSequence::new(c.inputs().len());
            step.push(vector);
            sim.extend(&step);
            for (id, f) in list.iter() {
                let at = format!(
                    "{name}: {} at vector {t} of sequence {run}",
                    f.display_name(c)
                );
                assert!(!sim.is_detected(id), "{at} was detected");
                let good = sim.good_state();
                let ff = (0..good.len()).find(|&j| good[j].conflicts(sim.fault_state(id)[j]));
                assert_eq!(ff, None, "{at} holds a conflicting state bit");
            }
        }
    }
}

/// `(name, implication_edges, constant_nets, untestable_faults,
/// dominance_targets)` of the scan-inserted benchmark: the learned
/// implication graph feeds every later count, so the summary pins it.
fn check_scan_summary(expected: (&str, usize, usize, usize, usize)) {
    let name = expected.0;
    let sc = ScanCircuit::insert(&benchmarks::load(name).expect("benchmark loads"));
    let s = *StaticAnalysis::run(sc.circuit()).summary();
    assert_eq!(
        (
            name,
            s.implication_edges,
            s.constant_nets,
            s.untestable_faults,
            s.dominance_targets
        ),
        expected,
        "{name}: scan-inserted analysis summary drifted"
    );
}

#[test]
fn scan_analysis_summaries_are_pinned() {
    check_scan_summary(("s298", 3961, 45, 145, 451));
    check_scan_summary(("s386", 8872, 50, 185, 543));
    check_scan_summary(("b06", 1338, 5, 26, 231));
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn scan_analysis_summaries_are_pinned_on_s820_and_s1488() {
    check_scan_summary(("s820", 18950, 68, 252, 931));
    check_scan_summary(("s1488", 50473, 313, 1017, 1977));
}

#[test]
fn untestable_state_pairs_never_conflict() {
    for name in ["s298", "s386", "b06"] {
        check_untestable_state_pairs(name);
    }
}

#[test]
#[ignore = "slow in a debug build; run with --release --include-ignored"]
fn untestable_state_pairs_never_conflict_on_s820_and_s1488() {
    for name in ["s820", "s1488"] {
        check_untestable_state_pairs(name);
    }
}

/// Dominance-collapsed, untestability-pruned ATPG must not lose coverage:
/// over the universe minus the proven-untestable faults, the analysis-on
/// flow's compacted sequence detects everything the default flow's does.
#[test]
fn analysis_flow_preserves_detection_over_the_testable_universe() {
    for name in ["s27", "b06"] {
        let c = benchmarks::load(name).expect("benchmark loads");
        let base = GenerationFlow::run(&c, &FlowConfig::default()).expect("base flow");
        let cfg = FlowConfig {
            analysis: AnalysisOptions::all(),
            ..FlowConfig::default()
        };
        let pruned = GenerationFlow::run(&c, &cfg).expect("analysis flow");

        let sc = base.scan.circuit();
        let faults = FaultList::collapsed(sc);
        let analysis = StaticAnalysis::run(sc);
        let exclude = analysis.partition(&faults).untestable_ids();
        let diff = detection_diff_excluding(
            sc,
            &faults,
            &base.omitted.sequence,
            &pruned.omitted.sequence,
            &exclude,
        );
        assert!(
            diff.preserved(),
            "{name}: analysis flow lost detections: {} lost over {} compared",
            diff.lost.len(),
            diff.total
        );
    }
}
