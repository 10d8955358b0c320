//! Test-generation cost: PODEM per frame and the full Section 2 flow.
//!
//! `sequential/*` includes the ablation the paper's `funct` column hints
//! at: the same generator with and without functional scan knowledge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use limscan::atpg::genetic::{GeneticAtpg, GeneticConfig};
use limscan::atpg::{PodemEngine, PodemOptions, Scoap};
use limscan::{benchmarks, AtpgConfig, FaultList, ScanCircuit, SequentialAtpg};

fn bench_podem(c: &mut Criterion) {
    let mut group = c.benchmark_group("podem");
    for name in ["s27", "s298"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let sc = ScanCircuit::insert(&circuit);
        let cs = sc.circuit();
        let faults = FaultList::collapsed(cs);
        let scoap = Scoap::compute(cs);
        // Compiled once, outside the timed loop: the bench times the
        // searches, not the compilation.
        let mut engine = PodemEngine::new(cs, &scoap);
        let opts = PodemOptions::default();
        group.bench_with_input(
            BenchmarkId::new("free_state_all_faults", name),
            &(),
            |b, ()| {
                b.iter(|| {
                    faults
                        .iter()
                        .filter(|&(_, f)| engine.run(f, &opts).is_some())
                        .count()
                });
            },
        );
    }
    group.finish();
}

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("sequential");
    group.sample_size(10);
    for name in ["s27", "s298"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let sc = ScanCircuit::insert(&circuit);
        let faults = FaultList::collapsed(sc.circuit());
        for (label, knowledge) in [("with_scan_knowledge", true), ("without", false)] {
            let config = AtpgConfig {
                use_scan_knowledge: knowledge,
                ..AtpgConfig::default()
            };
            group.bench_with_input(BenchmarkId::new(label, name), &config, |b, config| {
                b.iter(|| {
                    SequentialAtpg::new(&sc, &faults, config.clone())
                        .run()
                        .sequence
                        .len()
                });
            });
        }
    }
    group.finish();
}

/// Deterministic (PODEM-driven) vs simulation-based (genetic) engines.
fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.sample_size(10);
    let circuit = benchmarks::load("s27").expect("embedded circuit");
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    group.bench_function("deterministic_s27", |b| {
        b.iter(|| {
            SequentialAtpg::new(&sc, &faults, AtpgConfig::default())
                .run()
                .report
                .detected_count()
        });
    });
    group.bench_function("genetic_s27", |b| {
        b.iter(|| {
            GeneticAtpg::new(&sc, &faults, GeneticConfig::default())
                .run()
                .1
                .detected_count()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_podem, bench_sequential, bench_engines);
criterion_main!(benches);
