//! Substrate costs: scan insertion, fault enumeration and collapsing,
//! translation — the fixed overheads of every flow, across circuit sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use limscan::atpg::first_approach::{generate, CombAtpgConfig};
use limscan::{benchmarks, FaultList, ScanCircuit};

fn bench_insertion_and_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");
    for name in ["s27", "s298", "s641", "s1423"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        group.bench_with_input(BenchmarkId::new("scan_insert", name), &circuit, |b, c| {
            b.iter(|| ScanCircuit::insert(c).n_sv());
        });
        let sc = ScanCircuit::insert(&circuit);
        group.bench_with_input(
            BenchmarkId::new("fault_collapse", name),
            sc.circuit(),
            |b, cs| b.iter(|| FaultList::collapsed(cs).len()),
        );
    }
    group.finish();
}

fn bench_translation(c: &mut Criterion) {
    let circuit = benchmarks::load("s298").expect("suite circuit");
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(&circuit);
    let set = generate(&circuit, &faults, &CombAtpgConfig::default()).set;
    c.bench_function("substrate/translate_s298", |b| {
        b.iter(|| sc.translate(&set).len());
    });
}

criterion_group!(benches, bench_insertion_and_faults, bench_translation);
criterion_main!(benches);
