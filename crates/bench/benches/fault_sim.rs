//! Fault-simulation throughput: the engine behind every experiment.
//!
//! `parallel` measures the 64-lane parallel-fault simulator; `serial`
//! measures the scalar single-fault reference over the same workload, so
//! the ratio shows the bit-parallel win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan::sim::{set_sim_threads, single_fault_detects};
use limscan::{benchmarks, FaultList, Logic, ScanCircuit, SeqFaultSim, TestSequence};

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

fn bench_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    for name in ["s27", "s298", "s641"] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let sc = ScanCircuit::insert(&circuit);
        let faults = FaultList::collapsed(sc.circuit());
        let seq = random_sequence(sc.circuit().inputs().len(), 64, 7);
        group.throughput(Throughput::Elements((faults.len() * seq.len()) as u64));
        group.bench_with_input(
            BenchmarkId::new("parallel", name),
            &(&sc, &faults, &seq),
            |b, (sc, faults, seq)| {
                b.iter(|| SeqFaultSim::run(sc.circuit(), faults, seq).detected_count());
            },
        );
        if name == "s27" {
            group.bench_with_input(
                BenchmarkId::new("serial", name),
                &(&sc, &faults, &seq),
                |b, (sc, faults, seq)| {
                    b.iter(|| {
                        faults
                            .iter()
                            .filter(|(_, f)| single_fault_detects(sc.circuit(), *f, seq).is_some())
                            .count()
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    // Old dense engine (`extend_reference`) against the event-driven engine
    // (`extend`), single-threaded and with the default thread count. All
    // three produce bit-identical reports; only wall-clock differs.
    let mut group = c.benchmark_group("fault_sim/engine");
    for (name, vectors) in [("s298", 64), ("s1423", 64), ("s5378", 16)] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let faults = FaultList::collapsed(&circuit);
        let seq = random_sequence(circuit.inputs().len(), vectors, 11);
        group.throughput(Throughput::Elements((faults.len() * seq.len()) as u64));
        group.bench_with_input(
            BenchmarkId::new("reference", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                b.iter(|| {
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.extend_reference(seq)
                });
            },
        );
        set_sim_threads(Some(1));
        group.bench_with_input(
            BenchmarkId::new("event_1thread", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                b.iter(|| {
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.extend(seq)
                });
            },
        );
        set_sim_threads(None);
        group.bench_with_input(
            BenchmarkId::new("event_auto", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                b.iter(|| {
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.extend(seq)
                });
            },
        );
    }
    group.finish();
}

fn bench_incremental_extend(c: &mut Criterion) {
    // The incremental property used by the generator: extending by one
    // vector must not re-simulate history.
    let circuit = benchmarks::load("s298").expect("suite circuit");
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    let warmup = random_sequence(sc.circuit().inputs().len(), 256, 3);
    let step = random_sequence(sc.circuit().inputs().len(), 1, 4);
    c.bench_function("fault_sim/extend_one_vector_s298", |b| {
        let mut sim = SeqFaultSim::new(sc.circuit(), &faults);
        sim.extend(&warmup);
        b.iter(|| {
            let mut snapshot = sim.clone();
            snapshot.extend(&step)
        });
    });
}

criterion_group!(
    benches,
    bench_fault_sim,
    bench_engines,
    bench_incremental_extend
);
criterion_main!(benches);
