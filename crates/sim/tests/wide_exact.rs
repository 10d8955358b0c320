//! Bit-exactness of the wide (multi-word) kernel.
//!
//! Three engines must agree fault-for-fault and time-unit-for-time-unit on
//! every embedded benchmark:
//!
//! * `extend` — the production wide kernel (`LANE_WORDS` words);
//! * `extend_narrow` — the same kernel compiled at one word per lane (64
//!   lanes);
//! * `extend_reference` — the dense oracle, every gate at every time unit.
//!
//! Agreement covers detection verdicts, first-detection times, the
//! fault-free machine state, and the per-fault faulty machine states that
//! carry across incremental extensions.
//!
//! The single-frame evaluator `FrameSim`, which runs the same compiled op
//! stream over 64 lanes, is checked lane by lane against the scalar
//! `eval_comb` / `eval_comb_with` / `next_state` reference, and its
//! (fault-free, faulty) pair step against `SingleFaultSim::step`.

use limscan_fault::{FaultId, FaultList, FaultSite};
use limscan_netlist::{benchmarks, Circuit, Driver, GateKind};
use limscan_scan::ScanCircuit;
use limscan_sim::{
    eval_comb, eval_comb_with, next_state, set_sim_threads, FrameSim, Logic, SeqFaultSim,
    SingleFaultSim, TestSequence, TrialCheckpoints, WideWord, LANES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random fully-specified test sequence.
fn random_seq(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// Asserts that two simulators that consumed the same input agree on every
/// observable: detection verdicts with times, fault-free state, and the
/// faulty state of every still-undetected fault.
fn assert_same_outcome(name: &str, a: &SeqFaultSim, b: &SeqFaultSim, faults: &FaultList) {
    for id in faults.ids() {
        assert_eq!(
            a.detected_at(id),
            b.detected_at(id),
            "{name}: fault {} detection differs",
            id.index()
        );
    }
    assert_eq!(a.good_state(), b.good_state(), "{name}: good state differs");
    for id in faults.ids() {
        if a.detected_at(id).is_none() {
            assert_eq!(
                a.fault_state(id),
                b.fault_state(id),
                "{name}: fault {} carried state differs",
                id.index()
            );
        }
    }
}

/// Runs all three engines over the same two-part extension (the split
/// exercises incremental state carry-over) and cross-checks them.
/// `name` is `circuit` or `circuit/variant` — everything before the first
/// `/` or `@` is the benchmark to load.
fn cross_check(name: &str, faults: &FaultList, seed: u64, len: usize) {
    let circuit = name.split(['/', '@']).next().unwrap();
    let c = benchmarks::load(circuit).expect("known benchmark");
    let seq = random_seq(c.inputs().len(), len, seed);
    let head = seq.prefix(len / 2);
    let mut tail = TestSequence::new(seq.width());
    for t in len / 2..len {
        tail.push(seq.vector(t).to_vec());
    }

    let mut wide = SeqFaultSim::new(&c, faults);
    wide.extend(&head);
    wide.extend(&tail);

    let mut narrow = SeqFaultSim::new(&c, faults);
    narrow.extend_narrow(&head);
    narrow.extend_narrow(&tail);

    let mut reference = SeqFaultSim::new(&c, faults);
    reference.extend_reference(&head);
    reference.extend_reference(&tail);

    assert_same_outcome(&format!("{name} wide-vs-narrow"), &wide, &narrow, faults);
    assert_same_outcome(
        &format!("{name} wide-vs-reference"),
        &wide,
        &reference,
        faults,
    );
}

#[test]
fn engines_agree_on_every_embedded_benchmark() {
    set_sim_threads(Some(1));
    for (i, &name) in benchmarks::iscas89_suite()
        .iter()
        .chain(benchmarks::itc99_suite())
        .enumerate()
    {
        if name == "s35932" {
            continue; // covered separately with a sampled fault list
        }
        let c = benchmarks::load(name).expect("known benchmark");
        let faults = FaultList::collapsed(&c);
        // Large circuits get a sampled list to keep the reference oracle
        // affordable; the wide/narrow pair still sees batch boundaries.
        let faults = if faults.len() > 1200 {
            faults.sample(1200)
        } else {
            faults
        };
        cross_check(name, &faults, 0x5EED + i as u64, 24);
    }
}

#[test]
fn engines_agree_on_largest_benchmark_sampled() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s35932").expect("known benchmark");
    let faults = FaultList::collapsed(&c).sample(600);
    cross_check("s35932", &faults, 0x35932, 8);
}

#[test]
fn engines_agree_with_multiple_threads() {
    let c = benchmarks::load("s1423").expect("known benchmark");
    let faults = FaultList::collapsed(&c);
    set_sim_threads(Some(4));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cross_check("s1423@4t", &faults, 77, 40);
    }));
    set_sim_threads(Some(1));
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}

/// 65 faults: one past the old 64-lane word. The second (nearly empty)
/// narrow batch and the partial wide word must mask unused lanes
/// identically.
#[test]
fn batch_boundary_at_65_faults() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s298").expect("known benchmark");
    let all = FaultList::collapsed(&c);
    let ids: Vec<FaultId> = all.ids().take(65).collect();
    let faults = FaultList::from_faults(ids.iter().map(|&id| all.fault(id)));
    assert_eq!(faults.len(), 65);
    cross_check("s298/65", &faults, 65, 32);
}

/// Regression: the per-thread kernel scratch is reused across circuits, and
/// its component bookkeeping must not leak from a many-component circuit
/// into a smaller one (stale component ids once indexed out of bounds).
/// This goes through the checkpoint recorder, whose kernel calls have no
/// degradation fallback to hide a panic behind.
#[test]
fn kernel_scratch_survives_circuit_switches() {
    set_sim_threads(Some(1));
    for &name in &["s953", "s27", "s641", "b02", "s420", "s27"] {
        let c = benchmarks::load(name).expect("known benchmark");
        let faults = FaultList::collapsed(&c).sample(200);
        let seq = random_seq(c.inputs().len(), 12, 0xC1C);
        let ck = TrialCheckpoints::record(&c, &faults, &seq);
        let mut sim = SeqFaultSim::new(&c, &faults);
        sim.extend(&seq);
        assert_eq!(
            ck.recorded_detected(),
            sim.detected_count(),
            "{name}: recorder and extend disagree"
        );
    }
}

/// `LANES + 1` faults: one past the wide word, forcing a second wide batch
/// with a single occupied lane.
#[test]
fn batch_boundary_past_wide_word() {
    set_sim_threads(Some(1));
    let c = benchmarks::load("s526").expect("known benchmark");
    let all = FaultList::collapsed(&c);
    let faults = FaultList::from_faults(all.as_slice().iter().copied().cycle().take(LANES + 1));
    assert_eq!(faults.len(), LANES + 1);
    cross_check("s526/LANES+1", &faults, 257, 32);
}

/// Random 0/1/X value.
fn random_logic(rng: &mut StdRng) -> Logic {
    match rng.gen_range(0..3) {
        0 => Logic::Zero,
        1 => Logic::One,
        _ => Logic::X,
    }
}

/// One frame for a (good, faulty) lane pair: shared inputs, and present
/// states that differ in at least one flip-flop.
struct PairFrame {
    inputs: Vec<Logic>,
    good_state: Vec<Logic>,
    bad_state: Vec<Logic>,
    /// `eval_comb` over the good sources.
    good: Vec<Logic>,
}

impl PairFrame {
    fn random(c: &Circuit, rng: &mut StdRng) -> Self {
        let inputs: Vec<Logic> = (0..c.inputs().len()).map(|_| random_logic(rng)).collect();
        let good_state: Vec<Logic> = (0..c.dffs().len()).map(|_| random_logic(rng)).collect();
        let mut bad_state = good_state.clone();
        while !bad_state.is_empty() && bad_state == good_state {
            for b in &mut bad_state {
                if rng.gen_bool(0.3) {
                    *b = random_logic(rng);
                }
            }
        }
        let mut good = vec![Logic::X; c.net_count()];
        load_sources(c, &mut good, &inputs, &good_state);
        eval_comb(c, &mut good);
        PairFrame {
            inputs,
            good_state,
            bad_state,
            good,
        }
    }
}

fn load_sources(c: &Circuit, vals: &mut [Logic], inputs: &[Logic], state: &[Logic]) {
    for (&pi, &v) in c.inputs().iter().zip(inputs) {
        vals[pi.index()] = v;
    }
    for (&q, &v) in c.dffs().iter().zip(state) {
        vals[q.index()] = v;
    }
}

/// Fault kinds the frame must get right, counted over a run.
#[derive(Default)]
struct Covered {
    input_stems: usize,
    ff_stems: usize,
    mux_branches: usize,
    dpin_branches: usize,
}

/// Injects every fault of `faults` into the odd lanes of a frame and
/// checks pairs `0..frames.len()` against the scalar reference: the even
/// lane against `eval_comb` on the good sources, the odd lane against
/// `eval_comb_with` on the faulty ones, on every net and next-state bit.
fn check_frame(
    name: &str,
    c: &Circuit,
    faults: &FaultList,
    frames: &[PairFrame],
    cov: &mut Covered,
) {
    const ODD: u64 = 0xAAAA_AAAA_AAAA_AAAA;
    let mut frame = FrameSim::new(c);
    let mut bad = vec![Logic::X; c.net_count()];
    for (_, fault) in faults.iter() {
        match fault.site {
            FaultSite::Stem(n) => match c.net(n).driver() {
                Driver::Input => cov.input_stems += 1,
                Driver::Dff { .. } => cov.ff_stems += 1,
                Driver::Gate { .. } => {}
            },
            FaultSite::Branch(pin) => match c.net(pin.net).driver() {
                Driver::Dff { .. } => cov.dpin_branches += 1,
                Driver::Gate {
                    kind: GateKind::Mux,
                    ..
                } => cov.mux_branches += 1,
                _ => {}
            },
        }
        frame.inject(Some(fault), ODD);
        let pair_word = |k: usize, g: Logic, b: Logic| {
            let mut w = WideWord::<1>::ALL_X;
            w.set_lane(2 * k, g);
            w.set_lane(2 * k + 1, b);
            w
        };
        for pos in 0..c.inputs().len() {
            let mut w = WideWord::<1>::ALL_X;
            for (k, f) in frames.iter().enumerate() {
                w.v0[0] |= pair_word(k, f.inputs[pos], f.inputs[pos]).v0[0];
                w.v1[0] |= pair_word(k, f.inputs[pos], f.inputs[pos]).v1[0];
            }
            frame.set_input(pos, w);
        }
        for ff in 0..c.dffs().len() {
            let mut w = WideWord::<1>::ALL_X;
            for (k, f) in frames.iter().enumerate() {
                let p = pair_word(k, f.good_state[ff], f.bad_state[ff]);
                w.v0[0] |= p.v0[0];
                w.v1[0] |= p.v1[0];
            }
            frame.set_state(ff, w);
        }
        frame.eval();
        for (k, f) in frames.iter().enumerate() {
            bad.fill(Logic::X);
            load_sources(c, &mut bad, &f.inputs, &f.bad_state);
            eval_comb_with(c, &mut bad, Some(fault));
            let what = || format!("{name}: {} pair {k}", fault.display_name(c));
            for (i, w) in frame.nets().iter().enumerate() {
                assert_eq!(w.lane(2 * k), f.good[i], "{}: good net {i}", what());
                assert_eq!(w.lane(2 * k + 1), bad[i], "{}: faulty net {i}", what());
            }
            let good_next = next_state(c, &f.good, None);
            let bad_next = next_state(c, &bad, Some(fault));
            for ff in 0..c.dffs().len() {
                let w = frame.next_state(ff);
                assert_eq!(w.lane(2 * k), good_next[ff], "{}: good ff {ff}", what());
                assert_eq!(
                    w.lane(2 * k + 1),
                    bad_next[ff],
                    "{}: faulty ff {ff}",
                    what()
                );
            }
        }
    }
}

/// `FrameSim` agrees with the scalar reference for every fault of the
/// full universe (stems on every net, branches on every gate and
/// flip-flop pin) on every embedded benchmark, bare and scan-inserted.
/// The two largest circuits run on sampled fault lists to keep the scalar
/// reference affordable in a debug build (the full lists take about a
/// minute each there).
#[test]
fn frame_sim_matches_scalar_reference() {
    let mut cov = Covered::default();
    for (i, &name) in ["s27"]
        .iter()
        .chain(benchmarks::iscas89_suite())
        .chain(benchmarks::itc99_suite())
        .enumerate()
    {
        let bare = benchmarks::load(name).expect("known benchmark");
        let scan = ScanCircuit::insert(&bare);
        for (variant, c) in [("bare", &bare), ("scan", scan.circuit())] {
            let mut rng = StdRng::seed_from_u64(0xF4A3E + i as u64);
            let frames: Vec<PairFrame> = (0..2).map(|_| PairFrame::random(c, &mut rng)).collect();
            let faults = FaultList::full(c);
            let faults = match name {
                "s5378" => faults.sample(2000),
                "s35932" => faults.sample(300),
                _ => faults,
            };
            check_frame(&format!("{name}/{variant}"), c, &faults, &frames, &mut cov);
        }
    }
    assert!(cov.input_stems > 0, "no primary-input stem faults checked");
    assert!(cov.ff_stems > 0, "no flip-flop output stem faults checked");
    assert!(cov.mux_branches > 0, "no mux pin branch faults checked");
    assert!(
        cov.dpin_branches > 0,
        "no flip-flop D-pin branch faults checked"
    );
}

/// `FrameSim::step_pair` is `SingleFaultSim::step`: the same detection
/// flag and the same fault-free and faulty states after every step, for
/// every fault of the full universe of scan-inserted s27 and s298, over
/// sequences with 30% X inputs that start from the all-X state. Both keep
/// stepping after a detection.
#[test]
fn frame_pair_step_matches_single_fault_sim() {
    for (i, name) in ["s27", "s298"].into_iter().enumerate() {
        let scan = ScanCircuit::insert(&benchmarks::load(name).expect("known benchmark"));
        let c = scan.circuit();
        let mut rng = StdRng::seed_from_u64(0x9A1E + i as u64);
        let mut seq = TestSequence::new(c.inputs().len());
        for _ in 0..24 {
            seq.push(
                (0..c.inputs().len())
                    .map(|_| {
                        if rng.gen_bool(0.3) {
                            Logic::X
                        } else {
                            Logic::from_bool(rng.gen())
                        }
                    })
                    .collect(),
            );
        }
        let faults = FaultList::full(c);
        let mut frame = FrameSim::new(c);
        let mut detections = 0usize;
        for (_, fault) in faults.iter() {
            frame.inject(Some(fault), 0b10);
            let mut reference = SingleFaultSim::new(c, fault);
            let mut good = vec![Logic::X; c.dffs().len()];
            let mut bad = good.clone();
            for (t, v) in seq.iter().enumerate() {
                let what = || format!("{name}: {} at {t}", fault.display_name(c));
                let hit = frame.step_pair(v, &mut good, &mut bad);
                assert_eq!(hit, reference.step(v), "{}: detection", what());
                assert_eq!(good, reference.good_state(), "{}: good state", what());
                assert_eq!(bad, reference.bad_state(), "{}: faulty state", what());
                detections += usize::from(hit);
            }
        }
        assert!(detections > 0, "{name}: no step detected anything");
    }
}
