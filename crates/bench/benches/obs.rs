//! Trace-overhead A/B on the fault-simulation hot path.
//!
//! Three arms over the same s5378-class workload:
//!
//! * `baseline` — no `set_obs` call at all (the seed behaviour);
//! * `noop_handle` — instrumentation reached with a no-op handle attached,
//!   which is the cost every un-traced run pays (one branch per emission
//!   site);
//! * `collector` — a live in-memory collector, the full emission cost.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use limscan::sim::set_sim_threads;
use limscan::{
    benchmarks, FaultList, Logic, MetricsCollector, ObsHandle, SeqFaultSim, TestSequence,
};

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

fn bench_obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/fault_sim");
    set_sim_threads(Some(1));
    for (name, vectors) in [("s1423", 64), ("s5378", 32)] {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let faults = FaultList::collapsed(&circuit);
        let seq = random_sequence(circuit.inputs().len(), vectors, 17);
        group.throughput(Throughput::Elements((faults.len() * seq.len()) as u64));
        group.bench_with_input(
            BenchmarkId::new("baseline", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                b.iter(|| {
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.extend(seq)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("noop_handle", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                let obs = ObsHandle::noop();
                b.iter(|| {
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.set_obs(&obs);
                    sim.extend(seq)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("collector", name),
            &(&circuit, &faults, &seq),
            |b, (circuit, faults, seq)| {
                b.iter(|| {
                    let collector = MetricsCollector::default();
                    let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
                    let mut sim = SeqFaultSim::new(circuit, faults);
                    sim.set_obs(&obs);
                    sim.extend(seq)
                });
            },
        );
    }
    set_sim_threads(None);
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
