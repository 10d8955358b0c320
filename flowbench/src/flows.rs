//! The paper's two flows: run through the library's entry points for the
//! end-to-end numbers, and decomposed into their public per-layer calls for
//! the traced run.

use std::time::Instant;

use limscan::atpg::first_approach;
use limscan::compact::{omission, restoration, scan_test_set, Compacted};
use limscan::lint::{LintConfig, Linter};
use limscan::netlist::bench_format;
use limscan::{
    benchmarks, FaultList, FlowConfig, GenerationFlow, ScanCircuit, SeqFaultSim, SequentialAtpg,
    TestSequence, TranslationFlow,
};
use limscan_serve::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{median, num, obj, Report};
use crate::trace::Tracer;

/// Circuits of the `gen-atpg` workload (Table 6's flow).
pub const GEN_CIRCUITS: &[&str] = &["s820", "s1488"];
/// Circuits of the `trans-compact` workload (Table 7's flow).
pub const TRANS_CIRCUITS: &[&str] = &["s382", "s526", "b03", "b09", "b10"];
/// Set-ups timed before each pass of a flow workload, so that the samples
/// behind `setup_s` are spread over the whole run.
const SETUP_PER_PASS: usize = 7;

/// Which flow a circuit goes through. `Compact` is the compaction tail on
/// its own, as a served compaction job runs it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Generate,
    Translate,
    Compact,
}

impl Kind {
    pub fn tag(self) -> &'static str {
        match self {
            Kind::Generate => "generate",
            Kind::Translate => "translate",
            Kind::Compact => "compact",
        }
    }
}

/// An embedded benchmark written to `.bench` text during set-up.
pub struct Input {
    pub name: &'static str,
    pub source: String,
}

/// Set-up: builds each embedded circuit and writes it to `.bench` text,
/// the form the flows take. The text stays in memory: file I/O on a shared
/// disk would dominate, and blur, a set-up this small.
pub fn materialize(names: &[&'static str]) -> Result<Vec<Input>, String> {
    names
        .iter()
        .map(|&name| {
            let circuit =
                benchmarks::load(name).ok_or_else(|| format!("`{name}` is not embedded"))?;
            Ok(Input {
                name,
                source: bench_format::write(&circuit),
            })
        })
        .collect()
}

/// Times `SETUP_PER_PASS` set-ups into `times` and keeps the inputs of
/// the last one.
fn timed_setup(names: &[&'static str], times: &mut Vec<f64>) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for _ in 0..SETUP_PER_PASS {
        let t0 = Instant::now();
        inputs = materialize(names)?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(inputs)
}

/// The flow configuration every workload uses: the defaults, with the
/// workload seed driving translation X-fill.
pub fn config(seed: u64) -> FlowConfig {
    FlowConfig {
        seed,
        ..FlowConfig::default()
    }
}

/// What one flow produced, reduced to what the checks and metrics read.
pub struct Outcome {
    pub scan: ScanCircuit,
    pub faults: FaultList,
    pub uncompacted: TestSequence,
    pub restored: Compacted,
    pub omitted: Compacted,
    /// Cycles of the `[26]` compacted conventional set, where computed.
    pub baseline_cycles: Option<usize>,
}

/// Runs the library's flow entry point on one circuit and times the call.
pub fn run_flow(kind: Kind, input: &Input, seed: u64) -> Result<(f64, Outcome), String> {
    let cfg = config(seed);
    let t0 = Instant::now();
    let outcome = match kind {
        Kind::Generate => {
            GenerationFlow::run_source(input.name, &input.source, &cfg).map(|f| Outcome {
                scan: f.scan,
                faults: f.faults,
                uncompacted: f.generated.sequence,
                restored: f.restored,
                omitted: f.omitted,
                baseline_cycles: None,
            })
        }
        Kind::Translate => {
            TranslationFlow::run_source(input.name, &input.source, &cfg).map(|f| Outcome {
                scan: f.scan,
                faults: f.faults,
                uncompacted: f.translated,
                restored: f.restored,
                omitted: f.omitted,
                baseline_cycles: Some(f.baseline_compacted.set.application_cycles()),
            })
        }
        Kind::Compact => return Err("compaction runs only as a served job".into()),
    };
    let secs = t0.elapsed().as_secs_f64();
    outcome
        .map(|o| (secs, o))
        .map_err(|e| format!("{}: {e}", input.name))
}

/// The result of checking one flow outcome.
pub struct Verified {
    /// Faults the final sequence detects, re-simulated.
    pub detected: usize,
    pub problems: Vec<String>,
    /// Faults × vectors of the uncompacted re-simulation, and its seconds.
    pub fault_vectors: f64,
    pub uncompacted_secs: f64,
}

/// Output checks: `omit ≤ restor ≤ test`, the final sequence keeps every
/// detection of the uncompacted one, and translation is cycle-exact.
pub fn verify(name: &str, kind: Kind, out: &Outcome, t: &mut Tracer) -> Verified {
    let mut problems = Vec::new();
    let (test, restor, omit) = (
        out.uncompacted.len(),
        out.restored.sequence.len(),
        out.omitted.sequence.len(),
    );
    if !(omit <= restor && restor <= test) {
        problems.push(format!(
            "{name}: lengths not monotone (omit {omit}, restor {restor}, test {test})"
        ));
    }
    let c = out.scan.circuit();
    let before = t.span("sim.verify", || {
        SeqFaultSim::run(c, &out.faults, &out.uncompacted)
    });
    let uncompacted_secs = t.last_secs();
    let after = t.span("sim.verify", || {
        SeqFaultSim::run(c, &out.faults, &out.omitted.sequence)
    });
    let lost = out
        .faults
        .ids()
        .filter(|&id| before.is_detected(id) && !after.is_detected(id))
        .count();
    if lost > 0 {
        problems.push(format!("{name}: compaction lost {lost} detection(s)"));
    }
    if kind == Kind::Translate && out.baseline_cycles != Some(test) {
        problems.push(format!(
            "{name}: translated length {test} differs from the [26] set's {:?} cycles",
            out.baseline_cycles
        ));
    }
    Verified {
        detected: after.detected_count(),
        problems,
        fault_vectors: (out.faults.len() * test) as f64,
        uncompacted_secs,
    }
}

/// A flow decomposed into its public per-layer calls, each in a span.
pub struct Decomposed {
    pub outcome: Outcome,
    /// Summed seconds of the flow's layer spans.
    pub layer_secs: f64,
    pub seq_vectors: usize,
    pub seq_aborted: usize,
    pub scan_loads: usize,
}

/// Makes the flow's public calls in the flow's order, one span around
/// each, under a parent span for the circuit. For `Compact`, `program` is
/// the sequence to compact.
pub fn decompose(
    kind: Kind,
    input: &Input,
    program: Option<&TestSequence>,
    seed: u64,
    t: &mut Tracer,
) -> Result<Decomposed, String> {
    let parent = t.begin(&format!("flow {} {}", input.name, kind.tag()));
    let result = layers(kind, input, program, seed, t);
    let layer_secs = t.children_secs(parent);
    t.end(parent);
    let mut d = result?;
    d.layer_secs = layer_secs;
    Ok(d)
}

fn layers(
    kind: Kind,
    input: &Input,
    program: Option<&TestSequence>,
    seed: u64,
    t: &mut Tracer,
) -> Result<Decomposed, String> {
    let cfg = config(seed);
    let linter = Linter::with_config(LintConfig {
        testability: false,
        ..LintConfig::default()
    });
    let raw = t.span("netlist.parse", || {
        bench_format::parse_raw(input.name, &input.source)
    });
    let lint = t.span("lint.gate", || linter.lint_raw(&raw));
    if lint.has_errors() {
        return Err(format!("{}: the lint gate refused the circuit", input.name));
    }
    let circuit = t
        .span("netlist.parse", || raw.build())
        .map_err(|e| format!("{}: {e}", input.name))?;
    let (mut seq_vectors, mut seq_aborted, mut scan_loads) = (0, 0, 0);
    let mut baseline = None;
    let (scan, faults, uncompacted) = match kind {
        Kind::Generate | Kind::Compact => {
            let scan = t.span("scan.insert", || {
                ScanCircuit::insert_chains(&circuit, cfg.scan_chains)
            });
            let faults = t.span("fault.collapse", || FaultList::collapsed(scan.circuit()));
            let uncompacted = if kind == Kind::Generate {
                let generated = t.span("atpg.seq", || {
                    SequentialAtpg::new(&scan, &faults, cfg.atpg.clone()).run()
                });
                seq_vectors = generated.sequence.len();
                seq_aborted = generated.aborted;
                scan_loads = generated.scan_loads;
                generated.sequence
            } else {
                program.ok_or("a compaction needs a program")?.clone()
            };
            (scan, faults, uncompacted)
        }
        Kind::Translate => {
            let scan = t.span("scan.insert", || ScanCircuit::insert(&circuit));
            let base_faults = t.span("fault.collapse", || FaultList::collapsed(&circuit));
            let generated = t.span("atpg.baseline", || {
                first_approach::generate(&circuit, &base_faults, &cfg.baseline)
            });
            let compacted = t.span("compact.scan_set", || {
                scan_test_set(&circuit, &base_faults, &generated.set)
            });
            baseline = Some(compacted.set.application_cycles());
            let translated = t.span("scan.translate", || {
                let mut translated = scan.translate(&compacted.set);
                translated.specify_x(&mut StdRng::seed_from_u64(cfg.seed));
                translated
            });
            let faults = t.span("fault.collapse", || FaultList::collapsed(scan.circuit()));
            (scan, faults, translated)
        }
    };
    let c = scan.circuit();
    let restored = t.span("compact.restore", || restoration(c, &faults, &uncompacted));
    let omitted = t.span("compact.omit", || {
        omission(c, &faults, &restored.sequence, cfg.omission_passes)
    });
    Ok(Decomposed {
        outcome: Outcome {
            scan,
            faults,
            uncompacted,
            restored,
            omitted,
            baseline_cycles: baseline,
        },
        layer_secs: 0.0,
        seq_vectors,
        seq_aborted,
        scan_loads,
    })
}

/// Per-circuit results of one pass.
struct CircuitRun {
    name: &'static str,
    secs: f64,
    test_cycles: usize,
    detected: usize,
}

/// The untraced run of a flow workload: fresh set-ups and a pass over its
/// circuits, repeated while another pass is expected to end within
/// `seconds` (at least one pass), every output checked. Every pass runs
/// with the workload seed, so every pass does the same work and must
/// repeat the first pass's counts exactly.
pub fn measure(
    kind: Kind,
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut setup_times = Vec::new();
    let mut passes: Vec<Vec<CircuitRun>> = Vec::new();
    let start = Instant::now();
    let next_pass_fits = |done: usize| {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / done as f64 <= seconds
    };
    while passes.is_empty() || next_pass_fits(passes.len()) {
        let inputs = timed_setup(names, &mut setup_times)?;
        let mut pass = Vec::new();
        let (mut cycles, mut baseline) = (0, 0);
        for input in &inputs {
            match run_flow(kind, input, seed) {
                Ok((secs, out)) => {
                    let v = verify(input.name, kind, &out, &mut Tracer::new(Instant::now()));
                    cycles += out.omitted.sequence.len();
                    baseline += out.baseline_cycles.unwrap_or(0);
                    let run = CircuitRun {
                        name: input.name,
                        secs,
                        test_cycles: out.omitted.sequence.len(),
                        detected: v.detected,
                    };
                    let mut problems = v.problems;
                    let first = passes
                        .first()
                        .and_then(|p| p.iter().find(|r| r.name == run.name));
                    if let Some(first) = first {
                        if (first.test_cycles, first.detected) != (run.test_cycles, run.detected) {
                            problems.push(format!(
                                "{}: pass {} gave {} cycles and {} detections, pass 1 gave {} and {}",
                                run.name,
                                passes.len() + 1,
                                run.test_cycles,
                                run.detected,
                                first.test_cycles,
                                first.detected
                            ));
                        }
                    }
                    let failed = !problems.is_empty();
                    report.op(problems);
                    if !failed {
                        pass.push(run);
                    }
                }
                Err(e) => report.op(vec![e]),
            }
        }
        if kind == Kind::Translate && cycles >= baseline {
            report.problem(format!(
                "{cycles} test cycles do not beat the [26] baseline's {baseline}"
            ));
        }
        passes.push(pass);
    }
    let first = &passes[0];
    let test_cycles: usize = first.iter().map(|r| r.test_cycles).sum();
    let detected: usize = first.iter().map(|r| r.detected).sum();
    // Each circuit's time is its median over the passes, so a burst of
    // host noise during one pass does not move the run's figure.
    let mut flow_s = 0.0;
    for r in first {
        let secs: Vec<f64> = passes
            .iter()
            .flatten()
            .filter(|x| x.name == r.name)
            .map(|x| x.secs)
            .collect();
        flow_s += median(&secs);
        report.rows.push(obj(vec![
            ("circuit", Json::str(r.name)),
            ("flow", Json::str(kind.tag())),
            ("flow_s", num(median(&secs))),
            ("passes", Json::num(secs.len() as u64)),
            ("test_cycles", Json::num(r.test_cycles as u64)),
            ("detected", Json::num(r.detected as u64)),
        ]));
    }
    report.metric("setup_s", median(&setup_times), "s");
    report.metric("flow_s", flow_s, "s");
    report.metric("test_cycles", test_cycles as f64, "count");
    report.metric("detected", detected as f64, "count");
    Ok(())
}

/// Work counters of the traced run, summed over circuits.
#[derive(Default)]
pub struct Counts {
    pub seq_vectors: usize,
    pub seq_aborted: usize,
    pub scan_loads: usize,
    pub baseline_cycles: usize,
    pub original: usize,
    pub restored: usize,
    pub omitted: usize,
    pub extra_detected: usize,
    pub fault_targets: usize,
    pub fault_vectors: f64,
    pub resim_secs: f64,
    /// Summed layer seconds and untraced flow seconds, for the tracing gap.
    pub layer_secs: f64,
    pub flow_secs: f64,
}

impl Counts {
    pub fn add(&mut self, d: &Decomposed, v: &Verified) {
        let o = &d.outcome;
        self.seq_vectors += d.seq_vectors;
        self.seq_aborted += d.seq_aborted;
        self.scan_loads += d.scan_loads;
        self.baseline_cycles += o.baseline_cycles.unwrap_or(0);
        self.original += o.uncompacted.len();
        self.restored += o.restored.sequence.len();
        self.omitted += o.omitted.sequence.len();
        self.extra_detected += o.restored.extra_detected + o.omitted.extra_detected;
        self.fault_targets += o.faults.len();
        self.fault_vectors += v.fault_vectors;
        self.resim_secs += v.uncompacted_secs;
    }

    /// Folds in another run's work counters, but not its tracing gap.
    pub fn add_work(&mut self, other: &Counts) {
        self.seq_vectors += other.seq_vectors;
        self.seq_aborted += other.seq_aborted;
        self.scan_loads += other.scan_loads;
        self.baseline_cycles += other.baseline_cycles;
        self.original += other.original;
        self.restored += other.restored;
        self.omitted += other.omitted;
        self.extra_detected += other.extra_detected;
        self.fault_targets += other.fault_targets;
        self.fault_vectors += other.fault_vectors;
        self.resim_secs += other.resim_secs;
    }
}

/// Checks that a decomposition reproduced the flow entry point's sequences.
pub fn parity(name: &str, flow: &Outcome, parts: &Outcome) -> Option<String> {
    let same = flow.uncompacted == parts.uncompacted
        && flow.restored.sequence == parts.restored.sequence
        && flow.omitted.sequence == parts.omitted.sequence;
    (!same).then(|| format!("{name}: the decomposed calls do not reproduce the flow's sequences"))
}

/// The traced run of a flow workload. Each round runs, per circuit, one
/// untraced flow call and one decomposed, traced call whose sequences must
/// agree with the flow's; rounds repeat while another is expected to end
/// within `seconds`, and a last untraced call per circuit brackets them.
/// Layer spans are compared with the untraced calls by their medians, so
/// slow drift of the host's speed cancels out of the gap. Returns the work
/// counters of one round and the number of rounds.
pub fn traced(
    kind: Kind,
    names: &[&'static str],
    seed: u64,
    seconds: f64,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<(Counts, usize), String> {
    let inputs = materialize(names)?;
    let mut counts = Counts::default();
    let mut flow_secs = vec![Vec::new(); inputs.len()];
    let mut layer_secs = vec![Vec::new(); inputs.len()];
    let mut test_cycles = vec![0; inputs.len()];
    let mut baseline = vec![0; inputs.len()];
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for (i, input) in inputs.iter().enumerate() {
            let flow = run_flow(kind, input, seed).and_then(|(secs, flow)| {
                decompose(kind, input, None, seed, t).map(|d| (secs, flow, d))
            });
            let (secs, flow, d) = match flow {
                Ok(ok) => ok,
                Err(e) => {
                    report.op(vec![e]);
                    continue;
                }
            };
            let v = verify(input.name, kind, &d.outcome, t);
            let mut problems = v.problems.clone();
            problems.extend(parity(input.name, &flow, &d.outcome));
            report.op(problems);
            if rounds == 0 {
                counts.add(&d, &v);
            } else {
                counts.fault_vectors += v.fault_vectors;
                counts.resim_secs += v.uncompacted_secs;
            }
            flow_secs[i].push(secs);
            layer_secs[i].push(d.layer_secs);
            test_cycles[i] = d.outcome.omitted.sequence.len();
            baseline[i] = d.outcome.baseline_cycles.unwrap_or(0);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / rounds as f64 > seconds {
            break;
        }
    }
    for (i, input) in inputs.iter().enumerate() {
        match run_flow(kind, input, seed) {
            Ok((secs, _)) => flow_secs[i].push(secs),
            Err(e) => report.op(vec![e]),
        }
        let (flow, layers) = (median(&flow_secs[i]), median(&layer_secs[i]));
        counts.flow_secs += flow;
        counts.layer_secs += layers;
        let mut row = vec![
            ("circuit", Json::str(input.name)),
            ("flow", Json::str(kind.tag())),
            ("flow_s", num(flow)),
            ("layers_s", num(layers)),
            ("rounds", Json::num(rounds as u64)),
            ("gap_pct", num(100.0 * (layers / flow - 1.0))),
            ("test_cycles", Json::num(test_cycles[i] as u64)),
        ];
        if kind == Kind::Translate {
            row.push(("baseline_cycles", Json::num(baseline[i] as u64)));
        }
        report.rows.push(obj(row));
    }
    Ok((counts, rounds))
}
