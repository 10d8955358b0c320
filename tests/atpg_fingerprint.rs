//! Generator fingerprints: the tests that PODEM and the two generators
//! built on it produce, pinned bit for bit.
//!
//! Each case hashes the generated artefact's text form with FNV-1a
//! (`limscan_harness::fnv64`). A change in what PODEM decides, which
//! candidate vector the generator picks or how X values are filled shows
//! in the generated tests, so a speedup of the search machinery must leave
//! every value here untouched.
//!
//! The s820 and s1488 cases are `#[ignore]`: they are the slow ones in a
//! debug build. Run them with
//! `cargo test --release --test atpg_fingerprint -- --include-ignored`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan::atpg::first_approach::{self, CombAtpgConfig};
use limscan::atpg::{podem, Observation, PodemOptions, Scoap};
use limscan::harness::fnv64;
use limscan::sim::Logic;
use limscan::{benchmarks, AtpgConfig, FaultList, ScanCircuit, SequentialAtpg};

/// `SequentialAtpg::run()` over the scan variant of `name` with the
/// default configuration: the sequence fingerprint and
/// `(aborted, scan_loads, funct_detected, detected)`.
fn sequential(name: &str) -> (u64, [usize; 4]) {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    let out = SequentialAtpg::new(&sc, &faults, AtpgConfig::default()).run();
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

/// `podem` on every collapsed fault of the scan variant of `name`: the
/// fingerprint of every verdict, assignment and observation. With
/// `latched`, each search starts from a random binary state pair whose
/// faulty half has up to two flip-flops complemented, so fault effects are
/// already latched as in the generator's fixed-state frames; otherwise the
/// state is free.
fn podem_fingerprint(name: &str, latched: bool) -> u64 {
    let circuit = benchmarks::load(name).expect("embedded benchmark");
    let sc = ScanCircuit::insert(&circuit);
    let c = sc.circuit();
    let n_ff = c.dffs().len();
    let scoap = Scoap::compute(c);
    let mut rng = StdRng::seed_from_u64(0x1a7c);
    let mut text = String::new();
    for (_, fault) in FaultList::collapsed(c).iter() {
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
    let got = sequential(name);
    assert_eq!(
        got,
        (fingerprint, counts),
        "{name}: sequential generator output moved (got {:#018x}, {:?})",
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

fn check_podem(name: &str, latched: bool, fingerprint: u64) {
    let got = podem_fingerprint(name, latched);
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
    check_podem("s298", false, 0xab87_6ade_f4bf_483e);
}

#[test]
fn free_state_podem_b06() {
    check_podem("b06", false, 0xd884_36fc_a2bb_5739);
}

#[test]
fn latched_state_podem_s298() {
    check_podem("s298", true, 0xb5b9_4fcb_70e0_e386);
}

#[test]
fn latched_state_podem_b06() {
    check_podem("b06", true, 0xacdf_f457_8af0_6a1d);
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
