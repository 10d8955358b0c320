//! Static-compaction cost and effectiveness.
//!
//! Includes the ablation behind the paper's core claim: compacting the
//! same translated test set while *holding scan operations complete*
//! (scan-set pruning only) versus compacting the flat sequence where scan
//! shifts are ordinary vectors (restoration + omission, free to produce
//! limited scan operations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use limscan::atpg::first_approach::{generate, CombAtpgConfig};
use limscan::compact::{omission, restoration, scan_test_set};
use limscan::{benchmarks, AtpgConfig, FaultList, ScanCircuit, SequentialAtpg};

fn bench_restoration_and_omission(c: &mut Criterion) {
    let mut group = c.benchmark_group("compaction");
    group.sample_size(10);
    for name in ["s27", "s298"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let sc = ScanCircuit::insert(&circuit);
        let cs = sc.circuit();
        let faults = FaultList::collapsed(cs);
        let generated = SequentialAtpg::new(&sc, &faults, AtpgConfig::default())
            .run()
            .sequence;
        group.bench_with_input(
            BenchmarkId::new("restoration", name),
            &generated,
            |b, seq| b.iter(|| restoration(cs, &faults, seq).sequence.len()),
        );
        let restored = restoration(cs, &faults, &generated).sequence;
        group.bench_with_input(BenchmarkId::new("omission", name), &restored, |b, seq| {
            b.iter(|| omission(cs, &faults, seq, 2).sequence.len());
        });
    }
    group.finish();
}

/// Ablation: scan operations held complete vs treated as ordinary vectors.
fn bench_complete_vs_limited(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_scan_freedom");
    group.sample_size(10);
    let circuit = benchmarks::load("s298").expect("suite circuit");
    let sc = ScanCircuit::insert(&circuit);
    let base_faults = FaultList::collapsed(&circuit);
    let set = generate(&circuit, &base_faults, &CombAtpgConfig::default()).set;

    group.bench_function("scan_ops_held_complete", |b| {
        b.iter(|| {
            scan_test_set(&circuit, &base_faults, &set)
                .set
                .application_cycles()
        });
    });

    let scan_faults = FaultList::collapsed(sc.circuit());
    group.bench_function("scan_ops_free_flat", |b| {
        b.iter(|| {
            let mut seq = sc.translate(&set);
            let mut rng = StdRng::seed_from_u64(1);
            seq.specify_x(&mut rng);
            let restored = restoration(sc.circuit(), &scan_faults, &seq).sequence;
            omission(sc.circuit(), &scan_faults, &restored, 1)
                .sequence
                .len()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_restoration_and_omission,
    bench_complete_vs_limited
);
criterion_main!(benches);
