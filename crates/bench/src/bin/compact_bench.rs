//! Measures the compaction trial engines and writes `BENCH_compact.json`.
//!
//! ```text
//! compact_bench [--smoke] [OUTPUT_PATH]
//! ```
//!
//! For each suite case the harness runs one omission pass and one full
//! restoration with both engines — the retained full-re-simulation
//! reference (`omission_reference` / `restoration_reference`) and the
//! incremental checkpointed engine (`omission` / `restoration`) — over the
//! same scan-circuit sequence, and records wall-clock (the median of
//! `RUNS` runs), speedup, and the final sequence lengths. The compacted
//! sequences are asserted identical before anything is written: the
//! incremental engine changes the cost of a trial, never its verdict.
//!
//! A case's sequence is random, or the one the translation flow hands to
//! omission: its `[26]`-style conventional test set translated into a flat
//! sequence, the unspecified bits filled in, then restored. On random
//! sequences most omission trials hold; on the translated one most fail,
//! as in the translation flow, so the suite shows the cost of both kinds
//! of trial.
//!
//! Every case also makes one observed run of each incremental engine,
//! whose counters fill the `metrics` block. No fail plan is armed, so the
//! run exits non-zero if any trial or batch of it degraded: that would be
//! a kernel panic hidden by the fallback to the reference path.
//!
//! `--smoke` runs a reduced suite (small circuits, short sequences) meant
//! for CI: it performs the same equivalence assertions but skips the large
//! circuit, and writes its JSON next to the regular output name unless a
//! path is given. One smoke circuit has more than `2 * LANES` targets, so
//! the assertions cover trials that span several batches, where the order
//! the trial engine checks batches in could show.
//!
//! Output defaults to `BENCH_compact.json` in the current directory.

use std::sync::Arc;
use std::time::Instant;

use limscan::compact::{
    omission, omission_pass_resumable, omission_reference, restoration, restoration_reference,
    restoration_resumable, Compacted,
};
use limscan::obs::Metric;
use limscan::sim::{sim_threads, LANES};
use limscan::{
    benchmarks, CancelToken, Circuit, FaultList, FlowConfig, Logic, MetricsCollector, ObsHandle,
    ScanCircuit, SeqFaultSim, TestSequence, TranslationFlow,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Where a case's sequence comes from.
#[derive(Clone, Copy)]
enum Source {
    /// This many random fully specified vectors.
    Random(usize),
    /// The translation flow's omission input (default `FlowConfig`): the
    /// translated, X-filled sequence after restoration.
    Translated,
}

/// (circuit, sequence, fault-sample cap): sized so the quadratic
/// reference finishes in tens of seconds while the trial work still
/// dominates both engines' wall-clock.
const SUITE: &[(&str, Source, usize)] = &[
    ("s298", Source::Random(160), 0),
    ("s1423", Source::Random(128), 512),
    ("s5378", Source::Random(160), 768),
    ("b09", Source::Translated, 0),
];
const SMOKE_SUITE: &[(&str, Source, usize)] = &[
    ("s27", Source::Random(60), 0),
    ("s298", Source::Random(48), 64),
    ("s382", Source::Random(40), 0),
];
const OMISSION_PASSES: usize = 1;
/// Wall-clock is the median of `RUNS`; compaction is deterministic, so the
/// outputs of repeated runs are asserted identical as a free sanity check.
const RUNS: usize = 5;

fn random_sequence(width: usize, len: usize, seed: u64) -> TestSequence {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = TestSequence::new(width);
    for _ in 0..len {
        seq.push((0..width).map(|_| Logic::from_bool(rng.gen())).collect());
    }
    seq
}

fn timed(f: impl Fn() -> Compacted) -> (f64, Compacted) {
    let mut seconds = Vec::with_capacity(RUNS);
    let mut out = None;
    for _ in 0..RUNS {
        let t = Instant::now();
        let run = f();
        seconds.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &out {
            assert_eq!(prev, &run, "compaction must be deterministic");
        }
        out = Some(run);
    }
    seconds.sort_by(f64::total_cmp);
    (seconds[RUNS / 2], out.expect("RUNS >= 1"))
}

/// The case's scan circuit, fault list and sequence.
fn build_case(
    circuit: &Circuit,
    source: Source,
    max_faults: usize,
) -> (Circuit, FaultList, TestSequence) {
    match source {
        Source::Random(vectors) => {
            let c = ScanCircuit::insert(circuit).circuit().clone();
            let faults = FaultList::collapsed(&c).sample(max_faults);
            let seq = random_sequence(c.inputs().len(), vectors, 11);
            (c, faults, seq)
        }
        Source::Translated => {
            let flow = TranslationFlow::run(circuit, &FlowConfig::default())
                .expect("suite circuits pass the flow's lint gate");
            let faults = flow.faults.sample(max_faults);
            (flow.scan.circuit().clone(), faults, flow.restored.sequence)
        }
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_compact.json".to_owned();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let suite = if smoke { SMOKE_SUITE } else { SUITE };
    let threads = sim_threads();

    let mut rows = Vec::new();
    let mut max_targets = 0;
    for &(name, source, max_faults) in suite {
        let circuit = benchmarks::load(name).expect("suite circuit");
        let (scan, faults, seq) = build_case(&circuit, source, max_faults);
        let c = &scan;
        let vectors = seq.len();
        let kind = match source {
            Source::Random(_) => "random",
            Source::Translated => "translated",
        };

        let (t_oref, o_ref) = timed(|| omission_reference(c, &faults, &seq, OMISSION_PASSES));
        let (t_oinc, o_inc) = timed(|| omission(c, &faults, &seq, OMISSION_PASSES));
        assert_eq!(
            o_ref.sequence, o_inc.sequence,
            "{name}: omission engines diverged"
        );
        assert_eq!(o_ref.extra_detected, o_inc.extra_detected);
        max_targets = max_targets.max(o_ref.target_count);

        let (t_rref, r_ref) = timed(|| restoration_reference(c, &faults, &seq));
        let (t_rinc, r_inc) = timed(|| restoration(c, &faults, &seq));
        assert_eq!(
            r_ref.sequence, r_inc.sequence,
            "{name}: restoration engines diverged"
        );
        assert_eq!(r_ref.extra_detected, r_inc.extra_detected);

        // One extra observed run of each incremental engine (the single
        // omission pass and the restoration the flow driver runs) feeds the
        // `metrics` block. Untimed; its counters must be live, so a dead
        // block fails the run instead of being written.
        let collector = {
            let collector = MetricsCollector::default();
            let obs = ObsHandle::from_sink(Arc::new(collector.clone()));
            let ctl = CancelToken::unlimited();
            let targets: Vec<usize> = SeqFaultSim::run(c, &faults, &seq)
                .detected()
                .iter()
                .map(|id| id.index())
                .collect();
            omission_pass_resumable(c, &faults, &seq, &targets, 0, &obs, &ctl)
                .expect("an unlimited omission pass cannot stop early");
            restoration_resumable(c, &faults, &seq, &obs, &ctl)
                .expect("an unlimited restoration cannot stop early");
            collector
        };
        assert!(
            collector.counter(Metric::TrialsAttempted) > 0
                && collector.counter(Metric::RestorationEpisodes) > 0,
            "{name}: the observed compaction run recorded no trials or episodes"
        );
        for m in [Metric::DegradedTrials, Metric::DegradedBatches] {
            assert_eq!(
                collector.counter(m),
                0,
                "{name}: {m:?} in the observed compaction run, with no fail plan armed"
            );
        }

        println!(
            "{name} ({kind}): faults={} targets={} vectors={vectors} | omission ref={t_oref:.3}s inc={t_oinc:.3}s \
             ({:.2}x, len {} -> {}) | restoration ref={t_rref:.3}s inc={t_rinc:.3}s \
             ({:.2}x, len {} -> {})",
            faults.len(),
            o_ref.target_count,
            t_oref / t_oinc,
            vectors,
            o_inc.sequence.len(),
            t_rref / t_rinc,
            vectors,
            r_inc.sequence.len(),
        );
        rows.push(format!(
            concat!(
                "    {{\n",
                "      \"circuit\": \"{}\",\n",
                "      \"sequence\": \"{}\",\n",
                "      \"gates\": {},\n",
                "      \"faults\": {},\n",
                "      \"targets\": {},\n",
                "      \"vectors\": {},\n",
                "      \"omission\": {{\n",
                "        \"reference_seconds\": {:.6},\n",
                "        \"incremental_seconds\": {:.6},\n",
                "        \"speedup\": {:.3},\n",
                "        \"final_len\": {},\n",
                "        \"extra_detected\": {}\n",
                "      }},\n",
                "      \"restoration\": {{\n",
                "        \"reference_seconds\": {:.6},\n",
                "        \"incremental_seconds\": {:.6},\n",
                "        \"speedup\": {:.3},\n",
                "        \"final_len\": {},\n",
                "        \"extra_detected\": {}\n",
                "      }},\n",
                "      \"metrics\": {{\"trials_attempted\": {}, ",
                "\"trials_committed\": {}, \"trials_early_exited\": {}, ",
                "\"checkpoint_hits\": {}, \"restoration_episodes\": {}, ",
                "\"restoration_probes\": {}}}\n",
                "    }}"
            ),
            name,
            kind,
            c.gate_count(),
            faults.len(),
            o_ref.target_count,
            vectors,
            t_oref,
            t_oinc,
            t_oref / t_oinc,
            o_inc.sequence.len(),
            o_inc.extra_detected,
            t_rref,
            t_rinc,
            t_rref / t_rinc,
            r_inc.sequence.len(),
            r_inc.extra_detected,
            collector.counter(Metric::TrialsAttempted),
            collector.counter(Metric::TrialsCommitted),
            collector.counter(Metric::TrialsEarlyExited),
            collector.counter(Metric::CheckpointHits),
            collector.counter(Metric::RestorationEpisodes),
            collector.counter(Metric::RestorationProbes),
        ));
    }

    assert!(
        !smoke || max_targets > 2 * LANES,
        "no smoke circuit has trials spanning three batches ({max_targets} targets at most)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"compaction_engines\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"engines\": [\"reference (full suffix re-simulation)\", ",
            "\"incremental (checkpointed trials, early exit)\"],\n",
            "  \"omission_passes\": {},\n",
            "  \"sim_threads\": {},\n",
            "  \"runs_per_cell\": {},\n",
            "  \"note\": \"Wall-clock is the median of runs_per_cell runs and covers ",
            "the whole engine call, including the target-selection and verification ",
            "fault simulations shared by both engines; compacted sequences are ",
            "asserted identical before writing. A random sequence is random fully ",
            "specified vectors; a translated one is the translation flow's omission ",
            "input, the X-filled translation of its conventional test set after ",
            "restoration.\",\n",
            "  \"circuits\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if smoke { "smoke" } else { "full" },
        OMISSION_PASSES,
        threads,
        RUNS,
        rows.join(",\n")
    );
    std::fs::write(&out_path, &json).expect("write benchmark output");
    println!("wrote {out_path} (sim_threads={threads})");
}
