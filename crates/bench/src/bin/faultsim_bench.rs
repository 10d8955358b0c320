//! Measures the fault-simulation engines and writes `BENCH_faultsim.json`.
//!
//! ```text
//! faultsim_bench [--smoke] [OUTPUT_PATH]
//! ```
//!
//! For each suite circuit the harness runs one full extension over the same
//! random sequence with three engines — the dense reference oracle
//! (`SeqFaultSim::extend_reference`), the flat kernel pinned to one
//! thread, and the flat kernel with the default thread count — and
//! records best-of-N wall-clock, throughput in vectors/second, and the
//! speedups over the reference. Detection counts are asserted equal across
//! engines before anything is written.
//!
//! `--smoke` is the CI regression gate: it sweeps **every** embedded
//! benchmark (fault lists sampled on the largest circuits to bound
//! runtime), compares the single-thread kernel against the reference, and
//! exits non-zero if the kernel is slower on any circuit. No file is
//! written in smoke mode.
//!
//! Output defaults to `BENCH_faultsim.json` in the current directory.

use std::sync::Arc;
use std::time::Instant;

use limscan::obs::Metric;
use limscan::sim::{set_sim_threads, sim_threads};
use limscan::{
    benchmarks, Circuit, FaultList, Logic, MetricsCollector, ObsHandle, SeqFaultSim, TestSequence,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// (circuit, vectors to simulate): enough work that per-call overhead is
/// negligible, small enough that the whole suite finishes in seconds.
const SUITE: &[(&str, usize)] = &[("s298", 128), ("s1423", 128), ("s5378", 128)];
const RUNS: usize = 3;

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

/// Best-of-`RUNS` wall-clock for one full extension, plus its detection count.
fn best_of(
    circuit: &Circuit,
    faults: &FaultList,
    f: impl Fn(&mut SeqFaultSim) -> usize,
) -> (f64, usize) {
    let mut best = f64::INFINITY;
    let mut detected = 0;
    for _ in 0..RUNS {
        let mut sim = SeqFaultSim::new(circuit, faults);
        let t = Instant::now();
        detected = f(&mut sim);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (best, detected)
}

/// CI gate: the kernel must beat the reference on every embedded circuit
/// at one thread. Fault lists are sampled on the largest circuits and the
/// vector count scales inversely with size so the sweep stays in seconds.
fn run_smoke() {
    set_sim_threads(Some(1));
    let mut failures = Vec::new();
    for &name in benchmarks::iscas89_suite()
        .iter()
        .chain(benchmarks::itc99_suite())
    {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let gates = circuit.gate_count();
        let (vectors, max_faults) = if gates > 10_000 {
            (16, 2_000)
        } else if gates > 1_000 {
            (64, 8_000)
        } else {
            (256, usize::MAX)
        };
        let faults = FaultList::collapsed(&circuit);
        let faults = if faults.len() > max_faults {
            faults.sample(max_faults)
        } else {
            faults
        };
        let seq = random_sequence(circuit.inputs().len(), vectors, 7);

        let (t_ref, d_ref) = best_of(&circuit, &faults, |sim| sim.extend_reference(&seq));
        let (t_v3, d_v3) = best_of(&circuit, &faults, |sim| sim.extend(&seq));
        assert_eq!(d_ref, d_v3, "{name}: kernel diverged from reference");

        let speedup = t_ref / t_v3;
        let verdict = if speedup >= 1.0 { "ok" } else { "SLOWER" };
        println!(
            "{name}: gates={gates} faults={} vectors={vectors} ref={:.4}s v3={:.4}s \
             ({speedup:.2}x) {verdict}",
            faults.len(),
            t_ref,
            t_v3,
        );
        if speedup < 1.0 {
            failures.push(format!("{name} ({speedup:.2}x)"));
        }
    }
    set_sim_threads(None);
    if failures.is_empty() {
        println!("smoke: kernel beats the reference on every embedded circuit");
    } else {
        eprintln!(
            "smoke FAILED: kernel slower than reference on {}",
            failures.join(", ")
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_faultsim.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    if smoke {
        run_smoke();
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let default_threads = sim_threads();

    let mut rows = Vec::new();
    for &(name, vectors) in SUITE {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let faults = FaultList::collapsed(&circuit);
        let seq = random_sequence(circuit.inputs().len(), vectors, 7);

        let (t_ref, d_ref) = best_of(&circuit, &faults, |sim| sim.extend_reference(&seq));
        set_sim_threads(Some(1));
        let (t_ev1, d_ev1) = best_of(&circuit, &faults, |sim| sim.extend(&seq));
        set_sim_threads(None);
        let (t_mt, d_mt) = best_of(&circuit, &faults, |sim| sim.extend(&seq));

        assert_eq!(d_ref, d_ev1, "{name}: single-thread engine diverged");
        assert_eq!(d_ref, d_mt, "{name}: multi-thread engine diverged");

        // One extra single-thread extension with a live collector feeds the
        // `metrics` block. Untimed; its counters must be live, so a dead
        // block fails the run instead of being written.
        let collector = {
            let collector = MetricsCollector::default();
            let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
            set_sim_threads(Some(1));
            let mut sim = SeqFaultSim::new(&circuit, &faults);
            sim.set_obs(&obs);
            sim.extend(&seq);
            set_sim_threads(None);
            collector
        };
        assert!(
            collector.counter(Metric::VectorsSimulated) > 0
                && collector.counter(Metric::BatchesSimulated) > 0,
            "{name}: the observed extension recorded no vectors or batches"
        );

        let vps = |t: f64| vectors as f64 / t;
        println!(
            "{name}: faults={} vectors={vectors} ref={:.4}s event/1t={:.4}s ({:.2}x) \
             event/auto={:.4}s ({:.2}x)",
            faults.len(),
            t_ref,
            t_ev1,
            t_ref / t_ev1,
            t_mt,
            t_ref / t_mt
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"circuit\": \"{}\",\n",
                "      \"gates\": {},\n",
                "      \"faults\": {},\n",
                "      \"vectors\": {},\n",
                "      \"detected\": {},\n",
                "      \"reference\": {{\"seconds\": {:.6}, \"vectors_per_sec\": {:.1}}},\n",
                "      \"event_1thread\": {{\"seconds\": {:.6}, \"vectors_per_sec\": {:.1}, \"speedup\": {:.3}}},\n",
                "      \"event_auto\": {{\"seconds\": {:.6}, \"vectors_per_sec\": {:.1}, \"speedup\": {:.3}}},\n",
                "      \"metrics\": {{\"vectors_simulated\": {}, ",
                "\"batches_simulated\": {}, \"faults_detected\": {}, \"scratch_bytes_peak\": {}}}\n",
                "    }}"
            ),
            name,
            circuit.gate_count(),
            faults.len(),
            vectors,
            d_ref,
            t_ref,
            vps(t_ref),
            t_ev1,
            vps(t_ev1),
            t_ref / t_ev1,
            t_mt,
            vps(t_mt),
            t_ref / t_mt,
            collector.counter(Metric::VectorsSimulated),
            collector.counter(Metric::BatchesSimulated),
            collector.counter(Metric::FaultsDetected),
            collector.gauge_max(Metric::ScratchBytes),
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fault_sim_engines\",\n",
            "  \"engines\": [\"reference (pre-rewrite dense)\", \"event-driven 1 thread\", ",
            "\"event-driven default threads\"],\n",
            "  \"available_cores\": {},\n",
            "  \"default_threads\": {},\n",
            "  \"runs_per_point\": {},\n",
            "  \"note\": \"vectors_per_sec is full-fault-list extension throughput ",
            "(best of {} runs). With a single available core the multi-thread engine ",
            "cannot beat the single-thread one; its numbers demonstrate overhead ",
            "parity, and results are asserted bit-identical across engines and ",
            "thread counts.\",\n",
            "  \"circuits\": [\n{}\n  ]\n",
            "}}\n"
        ),
        cores,
        default_threads,
        RUNS,
        RUNS,
        rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path} (available_cores={cores}, default_threads={default_threads})");
}
