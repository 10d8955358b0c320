//! `limscan` — command-line front end for the library.
//!
//! ```text
//! limscan info <circuit.bench>
//! limscan analyze <circuit.bench> [--scan] [--chains N] [--json]
//! limscan analyze --self-check
//! limscan lint <circuit> [--json] [--chains N]
//!              [--min-severity error|warning|info] [--scoap-threshold N]
//!              [--no-testability] [--implication-limit N]
//!              [--limit key=value]...
//! limscan lint --self-check [--json]
//! limscan generate <circuit.bench> [-o program.txt] [--chains N]
//!                  [--engine det|genetic] [--max-faults N] [--no-compact] [--analyze]
//!                  [--deadline SECS] [--max-vectors N] [--snapshots DIR]
//!                  [--trace out.jsonl] [--metrics]
//! limscan compact <circuit.bench> <program.txt> [-o out.txt] [--passes N]
//!                 [--chains N] [--deadline SECS] [--max-vectors N]
//!                 [--trace out.jsonl] [--metrics]
//! limscan resume <snapshot.snap> [-o program.txt] [--engine det|genetic]
//!                [--deadline SECS] [--max-vectors N] [--snapshots DIR]
//!                [--trace out.jsonl] [--metrics]
//! limscan equiv <left> (<right> | --scan) [--chains N] [--steps N]
//!               [--rounds N] [--seed S] [--threads N] [--force NAME=0|1]
//!               [--trace out.jsonl] [--metrics]
//! limscan equiv <circuit> --diff <original.txt> <candidate.txt> [--chains N]
//! limscan equiv --self-check
//! limscan serve <state-dir> [--socket PATH] [--workers N] [--slice K]
//!               [--max-queued N] [--max-concurrent N] [--max-vectors N]
//!               [--trace-jobs] [--max-frame-bytes N] [--read-timeout SECS]
//!               [--write-timeout SECS] [--max-conns N] [--limit key=value]...
//! limscan client <socket> [request-json] [--retry N] [--retry-base-ms M]
//! ```
//!
//! `analyze` runs the static analysis passes (dominators, implication
//! learning, dominance collapsing, untestability identification) and
//! prints the summary, the proven-untestable faults with their reasons,
//! and the analysis time; `--json` emits one machine-readable object, and
//! `--self-check` re-verifies every claim over the embedded benchmark
//! suite (the CI analyze gate).
//!
//! `lint` runs the static diagnostics rules (structural, scan-chain and
//! testability) on a netlist and prints the findings as
//! `file:line: severity[CODE] rule: message` lines, or a JSON array with
//! `--json`. `--chains N` inserts N scan chains first and lints the
//! scanned circuit against its chain metadata; `--limit` tightens a parse
//! ceiling, and a crossed ceiling is an L007 error finding.
//! `--self-check` lints every embedded benchmark, bare and
//! scan-inserted. Error-severity findings exit with status 1, whatever
//! `--min-severity` shows.
//!
//! `generate` inserts scan into the circuit, runs the paper's flow and
//! writes a tester vector file; `compact` re-compacts an existing vector
//! file against the same scan circuit. Every subcommand reads a circuit
//! the same way: an argument ending in `.blif` is a structural BLIF
//! netlist, one ending in `.bench` (or any other path) an ISCAS-89
//! `.bench` netlist, and anything else a benchmark name like `s27` /
//! `s298`. `--trace` streams the span/metric event log as JSONL;
//! `--metrics` prints the per-phase summary and detection profile to
//! stderr.
//!
//! `equiv` runs the cross-engine bounded equivalence checker: two named
//! circuits, or one circuit against its own scan-inserted variant
//! (`--scan`, with `scan_sel` tied to functional mode). `--diff` instead
//! compares two test programs per fault on the scan-inserted circuit, and
//! `--self-check` sweeps the built-in proof obligations (scan variants,
//! BLIF round trips, compaction detection-preservation) over small
//! benchmarks. A found difference exits with status 1 and a minimized
//! counterexample.
//!
//! `--deadline` / `--max-vectors` bound a run; a run that hits its budget
//! stops at the next safe boundary, keeps the work done so far, and exits
//! with status 3. With `--snapshots DIR`, `generate` additionally writes a
//! checkpoint at every pass boundary, and `limscan resume` continues an
//! interrupted run from such a snapshot — the resumed run's final test set
//! is bit-identical to an uninterrupted one. `resume` re-derives the flow
//! configuration from the snapshot's recorded knobs; a non-default engine
//! must be re-stated (`--engine genetic`), and a drifted configuration is
//! refused rather than silently diverging.
//!
//! `serve` starts the multi-tenant job daemon on a Unix domain socket
//! (JSONL wire protocol, see `limscan_serve::proto`), scheduling jobs in
//! checkpoint-budget slices of `--slice` boundaries each across
//! `--workers` threads, with durable job state under `<state-dir>` that
//! survives restart and SIGKILL. The daemon defends itself against
//! hostile clients: request frames are capped (`--max-frame-bytes`,
//! default 16 MiB — an over-long frame gets a `too_large` error and the
//! connection closes), idle or trickling connections are reclaimed by
//! read/write timeouts (`--read-timeout`/`--write-timeout`, default 30 s),
//! connections past `--max-conns` (default 64) are shed with an
//! `overloaded` error, and submitted netlists parse under resource
//! ceilings tightenable with repeated `--limit key=value` flags (keys:
//! source-bytes, line-bytes, nets, fanin, cover-rows, subckt-depth,
//! subckt-instances).
//!
//! `client` sends one request line (or stdin lines) to a running daemon
//! and prints the response(s); it exits 1 when any response carries
//! `"ok":false`. Connect failures are retried `--retry` times (default 5)
//! under capped exponential backoff starting at `--retry-base-ms`
//! (default 25), so a client started alongside the daemon does not race
//! its socket creation.

use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use limscan::atpg::genetic::GeneticConfig;
use limscan::fault::CollapseStats;
use limscan::lint::{Diagnostic, LintConfig, LintReport, Linter, Severity};
use limscan::netlist::raw::RawNetlist;
use limscan::netlist::{
    bench_format, blif_format, CircuitStats, LimitViolation, NetlistError, ParseLimits,
};
use limscan::obs::Json;
use limscan::scan::program::{parse_program, program_stats, write_program};
use limscan::{
    benchmarks, resume_flow, run_compaction_resilient, run_generation_resilient, AnalysisOptions,
    Circuit, DifferentialFlow, Engine, EquivFlow, EquivOptions, EquivVerdict, FaultList,
    FlowConfig, FlowKind, FlowOutcome, FlowPhase, FlowReport, GenerationFlow, Logic, ObsHandle,
    ResilientConfig, RunBudget, ScanCircuit, SeqFaultSim, SnapshotStore, StaticAnalysis,
    StopReason,
};
use limscan_serve::{Server, ServerConfig, TenantQuota};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("equiv") => cmd_equiv(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  limscan info <circuit>
  limscan analyze <circuit> [--scan] [--chains N] [--json]
  limscan analyze --self-check
  limscan lint <circuit> [--json] [--chains N]
               [--min-severity error|warning|info] [--scoap-threshold N]
               [--no-testability] [--implication-limit N]
               [--limit key=value]...
  limscan lint --self-check [--json]
  limscan generate <circuit> [-o program.txt] [--chains N]
                   [--engine det|genetic] [--max-faults N] [--no-compact] [--analyze]
                   [--deadline SECS] [--max-vectors N] [--snapshots DIR]
                   [--trace out.jsonl] [--metrics]
  limscan compact <circuit> <program.txt> [-o out.txt] [--passes N]
                  [--chains N] [--deadline SECS] [--max-vectors N]
                  [--trace out.jsonl] [--metrics]
  limscan resume <snapshot.snap> [-o program.txt] [--engine det|genetic]
                 [--deadline SECS] [--max-vectors N] [--snapshots DIR]
                 [--trace out.jsonl] [--metrics]
  limscan equiv <left> (<right> | --scan) [--chains N] [--steps N]
                [--rounds N] [--seed S] [--threads N] [--force NAME=0|1]
                [--trace out.jsonl] [--metrics]
  limscan equiv <circuit> --diff <original.txt> <candidate.txt> [--chains N]
  limscan equiv --self-check [--trace out.jsonl] [--metrics]
  limscan serve <state-dir> [--socket PATH] [--workers N] [--slice K]
                [--max-queued N] [--max-concurrent N] [--max-vectors N]
                [--trace-jobs] [--max-frame-bytes N] [--read-timeout SECS]
                [--write-timeout SECS] [--max-conns N] [--limit key=value]...
  limscan client <socket> [request-json] [--retry N] [--retry-base-ms M]

A circuit is a .blif file, a .bench file (or any other path), or an
embedded benchmark name.

exit status: 0 complete, 1 difference found by `equiv`, error-severity
finding from `lint` (or a failed `client` request), 2 error, 3 stopped at
a budget limit (partial result kept; resume from the latest --snapshots
checkpoint)";

/// Parses `--trace` / `--metrics` into an observability handle.
fn obs_from_args(args: &[String]) -> Result<(ObsHandle, bool), String> {
    let metrics = args.iter().any(|a| a == "--metrics");
    let obs = match flag_value(args, "--trace") {
        Some(path) => ObsHandle::jsonl_file(Path::new(path))
            .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
        None => ObsHandle::noop(),
    };
    Ok((obs, metrics))
}

/// Parses `--deadline SECS` / `--max-vectors N` into a budget, plus
/// whether any limit was actually given.
fn budget_from_args(args: &[String]) -> Result<(RunBudget, bool), String> {
    let deadline = secs_flag(args, "--deadline")?;
    let max_vectors = opt_flag(args, "--max-vectors")?;
    let limited = deadline.is_some() || max_vectors.is_some();
    Ok((
        RunBudget {
            deadline,
            max_vectors,
            ..RunBudget::default()
        },
        limited,
    ))
}

enum Format {
    Bench,
    Blif,
}

/// The input rule every subcommand shares: an argument ending in `.blif`
/// is a BLIF file, one ending in `.bench` (or any other path) a `.bench`
/// file, and anything else (`None`) names an embedded benchmark.
fn file_format(arg: &str) -> Option<Format> {
    if arg.ends_with(".blif") {
        Some(Format::Blif)
    } else if arg.ends_with(".bench") || arg.contains('/') {
        Some(Format::Bench)
    } else {
        None
    }
}

fn embedded(name: &str) -> Result<Circuit, String> {
    benchmarks::load(name)
        .ok_or_else(|| format!("`{name}` is neither a .bench/.blif file nor a known benchmark"))
}

fn load_circuit(arg: &str) -> Result<Circuit, String> {
    match file_format(arg) {
        Some(Format::Blif) => blif_format::read_file(arg).map_err(|e| e.to_string()),
        Some(Format::Bench) => bench_format::read_file(arg).map_err(|e| e.to_string()),
        None => embedded(arg),
    }
}

/// The permissive parse of a circuit argument under `limits`, labelled by
/// the argument, so lint findings keep their source lines. A benchmark
/// name parses its written-out `.bench` text. A file's size is checked
/// before it is read: an oversized file gives the same truncated netlist
/// its text would.
fn load_raw(arg: &str, limits: &ParseLimits) -> Result<RawNetlist, String> {
    let parse = match file_format(arg) {
        Some(Format::Blif) => blif_format::parse_raw_limited,
        Some(Format::Bench) => bench_format::parse_raw_limited,
        None => {
            let source = bench_format::write(&embedded(arg)?);
            return Ok(bench_format::parse_raw_limited(arg, &source, limits));
        }
    };
    match bench_format::read_source(Path::new(arg), limits) {
        Ok(source) => Ok(parse(arg, &source, limits)),
        Err(NetlistError::LimitExceeded {
            limit,
            line,
            actual,
            max,
        }) => Ok(RawNetlist {
            name: arg.to_owned(),
            decls: Vec::new(),
            outputs: Vec::new(),
            syntax_errors: Vec::new(),
            limit_error: Some(LimitViolation {
                limit,
                line,
                actual,
                max,
            }),
        }),
        Err(NetlistError::Io { message, .. }) => Err(format!("cannot read {arg}: {message}")),
        Err(e) => Err(e.to_string()),
    }
}

/// The circuit argument, which comes first.
fn circuit_arg<'a>(args: &'a [String], command: &str) -> Result<&'a str, String> {
    match args.first() {
        None => Err(format!("{command}: missing circuit argument")),
        Some(a) if a.starts_with("--") => Err(format!("{command}: expected a circuit, got `{a}`")),
        Some(a) => Ok(a),
    }
}

/// The chain-count check: `--chains N` (default 1) must lie between 1 and
/// the circuit's flip-flop count.
fn chains_from_args(args: &[String], circuit: &Circuit) -> Result<usize, String> {
    let ffs = circuit.dffs().len();
    if ffs == 0 {
        return Err("circuit has no flip-flops; nothing to scan".into());
    }
    let chains = parse_flag(args, "--chains", 1)?;
    if chains == 0 || chains > ffs {
        return Err(format!(
            "--chains must be between 1 and the flip-flop count ({ffs})"
        ));
    }
    Ok(chains)
}

/// The parse ceilings, tightened by every repeated `--limit key=value`.
fn limits_from_args(args: &[String]) -> Result<ParseLimits, String> {
    let mut limits = ParseLimits::default();
    for (i, a) in args.iter().enumerate() {
        if a == "--limit" {
            let spec = args
                .get(i + 1)
                .ok_or("--limit needs a key=value argument")?;
            limits.apply(spec)?;
        }
    }
    Ok(limits)
}

/// The embedded circuits both self-checks sweep: s27 and the Table 5/6
/// suites, which hold every Table 7 circuit too.
fn embedded_suite() -> Vec<&'static str> {
    let mut names = vec!["s27"];
    names.extend(benchmarks::iscas89_suite());
    names.extend(benchmarks::itc99_suite());
    names
}

/// A JSON object with members in the given order.
fn json_obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The parsed value of `flag`, if it is given.
fn opt_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid value `{v}` for {flag}"))
        })
        .transpose()
}

fn parse_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    Ok(opt_flag(args, flag)?.unwrap_or(default))
}

/// A duration in seconds for `flag`, if it is given; a negative, NaN or
/// too large value is an error.
fn secs_flag(args: &[String], flag: &str) -> Result<Option<Duration>, String> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .ok()
                .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
                .ok_or_else(|| format!("invalid value `{v}` for {flag}"))
        })
        .transpose()
}

fn engine_from_args(args: &[String]) -> Result<Engine, String> {
    match flag_value(args, "--engine") {
        None | Some("det") => Ok(Engine::Deterministic),
        Some("genetic") => Ok(Engine::Genetic(GeneticConfig::default())),
        Some(other) => Err(format!("unknown engine `{other}` (det|genetic)")),
    }
}

/// Writes the program text to `-o` (or stdout).
fn write_out(args: &[String], text: &str) -> Result<(), String> {
    match flag_value(args, "-o") {
        Some(out) => {
            std::fs::write(out, text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Status 1 for a failed check (a difference, an error finding or a
/// failed request), else success.
fn exit_status(failed: bool) -> ExitCode {
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Reports a budget-stopped run and returns the partial exit status.
fn report_partial(reason: StopReason, phase_tag: &str, path: Option<&std::path::Path>) -> ExitCode {
    eprintln!("stopped early: {reason} (during `{phase_tag}`)");
    match path {
        Some(p) => eprintln!(
            "checkpoint written; continue with `limscan resume {}`",
            p.display()
        ),
        None => eprintln!(
            "no snapshot store configured (--snapshots DIR), so the \
             partial state was not persisted"
        ),
    }
    ExitCode::from(3)
}

fn cmd_info(args: &[String]) -> Result<ExitCode, String> {
    let circuit = load_circuit(circuit_arg(args, "info")?)?;
    println!("{}", CircuitStats::of(&circuit));
    let cs = CollapseStats::measure(&circuit);
    println!(
        "fault universe: {} faults on {} nets + {} input pins, \
         collapsed to {} ({:.1}% of full)",
        cs.full,
        cs.nets,
        cs.pins,
        cs.collapsed,
        100.0 * cs.ratio(),
    );
    if circuit.dffs().is_empty() {
        println!("combinational circuit — scan insertion does not apply");
        return Ok(ExitCode::SUCCESS);
    }
    let sc = ScanCircuit::insert(&circuit);
    let faults = FaultList::collapsed(sc.circuit());
    println!(
        "with scan: {} inputs, {} outputs, chain of {} flip-flops, {} collapsed faults",
        sc.circuit().inputs().len(),
        sc.circuit().outputs().len(),
        sc.n_sv(),
        faults.len(),
    );
    let s = *StaticAnalysis::run(sc.circuit()).summary();
    println!(
        "analysis (scan): {} fanout-free regions, dominator tree depth {}, \
         dominance-collapsed to {} targets, {} statically untestable",
        s.ffr_count, s.dom_tree_depth, s.dominance_targets, s.untestable_faults,
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--self-check") {
        return analyze_self_check();
    }
    let mut circuit = load_circuit(circuit_arg(args, "analyze")?)?;
    if args.iter().any(|a| a == "--scan") {
        let chains = chains_from_args(args, &circuit)?;
        circuit = ScanCircuit::insert_chains(&circuit, chains)
            .circuit()
            .clone();
    }
    let started = std::time::Instant::now();
    let analysis = StaticAnalysis::run(&circuit);
    let elapsed_ms = started.elapsed().as_millis();
    let s = analysis.summary();

    if args.iter().any(|a| a == "--json") {
        let count = |n: usize| Json::num(n as u64);
        let summary = json_obj([
            ("circuit", Json::str(circuit.name())),
            ("ffr_count", count(s.ffr_count)),
            ("dom_tree_depth", count(s.dom_tree_depth)),
            ("constant_nets", count(s.constant_nets)),
            ("implication_edges", count(s.implication_edges)),
            ("full_faults", count(s.full_faults)),
            ("collapsed_faults", count(s.collapsed_faults)),
            ("dominance_targets", count(s.dominance_targets)),
            ("untestable_faults", count(s.untestable_faults)),
            ("pruned_targets", count(s.pruned_targets)),
            ("analysis_ms", Json::num(elapsed_ms as u64)),
        ]);
        println!("{}", summary.render());
        return Ok(ExitCode::SUCCESS);
    }

    println!("{}:", circuit.name());
    println!(
        "  structure: {} fanout-free regions, dominator tree depth {}",
        s.ffr_count, s.dom_tree_depth,
    );
    println!(
        "  implications: {} learned edges, {} constant nets",
        s.implication_edges, s.constant_nets,
    );
    println!(
        "  faults: {} full -> {} equivalence-collapsed -> {} dominance targets",
        s.full_faults, s.collapsed_faults, s.dominance_targets,
    );
    println!(
        "  untestable: {} proven (target universe {} after pruning)",
        s.untestable_faults, s.pruned_targets,
    );
    let untestable = analysis.untestable_faults();
    const SHOWN: usize = 20;
    for (fault, reason) in untestable.iter().take(SHOWN) {
        println!("    {} — {reason}", fault.display_name(&circuit));
    }
    if untestable.len() > SHOWN {
        println!("    ... and {} more", untestable.len() - SHOWN);
    }
    println!("  analysis time: {elapsed_ms} ms");
    Ok(ExitCode::SUCCESS)
}

/// Runs the analysis over the whole embedded benchmark suite (raw and
/// scan-inserted variants) and machine-checks every untestability claim
/// plus the partition bookkeeping. This is what the CI analyze gate runs.
fn analyze_self_check() -> Result<ExitCode, String> {
    let mut checked = 0usize;
    let mut failures = 0usize;
    for name in embedded_suite() {
        let circuit = benchmarks::load(name).expect("built-in benchmark");
        let mut variants = vec![(circuit.clone(), String::from(name))];
        if !circuit.dffs().is_empty() {
            variants.push((
                ScanCircuit::insert(&circuit).circuit().clone(),
                format!("{name}+scan"),
            ));
        }
        for (c, label) in variants {
            let started = std::time::Instant::now();
            let analysis = StaticAnalysis::run(&c);
            match analysis.verify(&c) {
                Ok(obligations) => {
                    checked += obligations;
                    let s = analysis.summary();
                    println!(
                        "{label}: ok — {} untestable, {} -> {} dominance targets, \
                         {} obligations, {} ms",
                        s.untestable_faults,
                        s.collapsed_faults,
                        s.dominance_targets,
                        obligations,
                        started.elapsed().as_millis(),
                    );
                }
                Err(e) => {
                    failures += 1;
                    println!("{label}: FAILED — {e}");
                }
            }
        }
    }
    if failures == 0 {
        println!("analyze self-check passed: {checked} obligations");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("analyze self-check FAILED: {failures} circuit(s)");
        Ok(ExitCode::from(1))
    }
}

/// The lint knobs: `--scoap-threshold`, `--implication-limit`,
/// `--no-testability` and the `--limit` ceilings.
fn lint_config_from_args(args: &[String]) -> Result<LintConfig, String> {
    let mut config = LintConfig {
        testability: !args.iter().any(|a| a == "--no-testability"),
        limits: limits_from_args(args)?,
        ..LintConfig::default()
    };
    config.implication_net_limit =
        parse_flag(args, "--implication-limit", config.implication_net_limit)?;
    if let Some(threshold) = opt_flag(args, "--scoap-threshold")? {
        config.control_threshold = threshold;
        config.observe_threshold = threshold;
    }
    Ok(config)
}

/// One lint finding as a JSON object; `file` labels its source.
fn diagnostic_json(file: &str, d: &Diagnostic) -> Json {
    let mut members = vec![
        ("file", Json::str(file)),
        ("line", Json::num(d.span.line().unwrap_or(0) as u64)),
        ("code", Json::str(d.code.code())),
        ("rule", Json::str(d.code.slug())),
        ("severity", Json::str(d.severity.label())),
        ("message", Json::str(&d.message)),
    ];
    if let Some(net) = &d.net {
        members.push(("net", Json::str(net)));
    }
    if let Some(suggestion) = &d.suggestion {
        members.push(("suggestion", Json::str(suggestion)));
    }
    json_obj(members)
}

fn report_json(file: &str, report: &LintReport) -> Json {
    Json::Arr(
        report
            .diagnostics()
            .iter()
            .map(|d| diagnostic_json(file, d))
            .collect(),
    )
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    let json = args.iter().any(|a| a == "--json");
    let linter = Linter::with_config(lint_config_from_args(args)?);
    if args.iter().any(|a| a == "--self-check") {
        return lint_self_check(&linter, json);
    }
    let target = circuit_arg(args, "lint")?;
    let min = match flag_value(args, "--min-severity") {
        None => Severity::Info,
        Some(v) => {
            Severity::parse(v).ok_or_else(|| format!("invalid value `{v}` for --min-severity"))?
        }
    };
    let raw = load_raw(target, &linter.config().limits)?;
    let report = if args.iter().any(|a| a == "--chains") {
        let circuit = raw
            .build()
            .map_err(|e| format!("{target}: cannot build circuit for --chains: {e}"))?;
        let chains = chains_from_args(args, &circuit)?;
        linter.lint_scan(&ScanCircuit::insert_chains(&circuit, chains))
    } else {
        linter.lint_raw(&raw)
    };
    let shown = report.filtered(min);
    if json {
        println!("{}", report_json(target, &shown).render());
    } else {
        println!("{}", shown.render_human(target));
    }
    Ok(exit_status(report.has_errors()))
}

/// Lints every embedded benchmark, bare (its written-out `.bench` text)
/// and scan-inserted (against the chain metadata), and fails if any
/// error-severity finding turns up. This is what the CI lint gate runs.
fn lint_self_check(linter: &Linter, json: bool) -> Result<ExitCode, String> {
    let mut all_clean = true;
    let mut items = Vec::new();
    for name in embedded_suite() {
        let c = embedded(name)?;
        let scan_label = format!("{name}_scan");
        let bare = linter.lint_source(name, &bench_format::write(&c));
        let scan = linter.lint_scan(&ScanCircuit::insert(&c));
        let clean = !bare.has_errors() && !scan.has_errors();
        all_clean &= clean;
        if json {
            items.push(json_obj([
                ("benchmark", Json::str(name)),
                ("clean", Json::Bool(clean)),
                ("bare", report_json(name, &bare)),
                ("scan", report_json(&scan_label, &scan)),
            ]));
            continue;
        }
        println!(
            "{name}: {} ({} finding(s) bare, {} scan-inserted)",
            if clean { "ok" } else { "FAIL" },
            bare.diagnostics().len(),
            scan.diagnostics().len(),
        );
        for (label, report) in [(name, &bare), (scan_label.as_str(), &scan)] {
            for d in report.diagnostics() {
                println!("  {}", d.render_human(label).replace('\n', "\n  "));
            }
        }
    }
    if json {
        println!("{}", Json::Arr(items).render());
    } else if all_clean {
        println!("self-check: all embedded benchmarks are error-clean");
    } else {
        println!("self-check: FAILED");
    }
    Ok(exit_status(!all_clean))
}

fn cmd_generate(args: &[String]) -> Result<ExitCode, String> {
    let circuit = load_circuit(circuit_arg(args, "generate")?)?;
    let chains = chains_from_args(args, &circuit)?;
    let max_faults: usize = parse_flag(args, "--max-faults", 0)?;
    let engine = engine_from_args(args)?;
    let compact = !args.iter().any(|a| a == "--no-compact");
    let analyze = args.iter().any(|a| a == "--analyze");
    let (obs, metrics) = obs_from_args(args)?;
    let (budget, limited) = budget_from_args(args)?;
    let snapshots = flag_value(args, "--snapshots").map(SnapshotStore::new);

    let config = FlowConfig {
        engine,
        scan_chains: chains,
        max_faults,
        obs,
        analysis: if analyze {
            AnalysisOptions::all()
        } else {
            AnalysisOptions::default()
        },
        ..FlowConfig::default()
    };

    // Both paths run the same pass-boundary driver. A budgeted or
    // checkpointed run gets the resumable outcome; a plain run gets the
    // classic record, which also carries the uncompacted sequence and the
    // analysis summary.
    if limited || snapshots.is_some() {
        if !compact {
            return Err("--no-compact cannot be combined with a budget or snapshots".into());
        }
        if analyze {
            return Err("--analyze cannot be combined with a budget or snapshots".into());
        }
        let rcfg = ResilientConfig {
            flow: config,
            budget,
            snapshots,
        };
        return match run_generation_resilient(&circuit, &rcfg).map_err(|e| e.to_string())? {
            FlowOutcome::Complete(run) => {
                if metrics {
                    eprint!("{}", run.report.render());
                }
                eprintln!(
                    "coverage {:.2}% ({}/{} faults); {} vectors",
                    run.coverage_percent(),
                    run.detected,
                    run.total_faults,
                    run.sequence.len(),
                );
                let sc = ScanCircuit::insert_chains(&circuit, chains);
                let stats = program_stats(&sc, &run.sequence);
                eprintln!(
                    "{} scan cycles in {} operations, {} of them limited",
                    stats.scan_cycles,
                    stats.scan_ops.len(),
                    stats.limited_ops,
                );
                write_out(args, &write_program(sc.circuit(), &run.sequence))?;
                Ok(ExitCode::SUCCESS)
            }
            FlowOutcome::Partial {
                reason,
                snapshot,
                path,
            } => Ok(report_partial(
                reason,
                snapshot.phase.tag(),
                path.as_deref(),
            )),
        };
    }

    let flow = GenerationFlow::run(&circuit, &config).map_err(|e| e.to_string())?;
    if metrics {
        eprint!("{}", flow.report.render());
    }
    let sequence = if compact {
        &flow.omitted.sequence
    } else {
        &flow.generated.sequence
    };

    eprintln!(
        "coverage {:.2}% ({}/{} faults, {} via scan knowledge); {} vectors{}",
        flow.generated.report.coverage_percent(),
        flow.generated.report.detected_count(),
        flow.faults.len(),
        flow.generated.funct_detected,
        sequence.len(),
        if compact {
            format!(" (compacted from {})", flow.generated.sequence.len())
        } else {
            String::new()
        },
    );
    if let Some(analysis) = &flow.analysis {
        eprintln!(
            "analysis: {} untestable pruned, {} targets deferred; fault efficiency {:.2}%",
            analysis.untestable.len(),
            analysis.deferred,
            analysis.efficiency_percent(flow.generated.report.detected_count(), flow.faults.len()),
        );
    }
    let stats = program_stats(&flow.scan, sequence);
    eprintln!(
        "{} scan cycles in {} operations, {} of them limited",
        stats.scan_cycles,
        stats.scan_ops.len(),
        stats.limited_ops,
    );

    write_out(args, &write_program(flow.scan.circuit(), sequence))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_compact(args: &[String]) -> Result<ExitCode, String> {
    let circuit = load_circuit(circuit_arg(args, "compact")?)?;
    let prog_arg = args.get(1).ok_or("compact: missing program argument")?;
    let chains = chains_from_args(args, &circuit)?;
    let passes: usize = parse_flag(args, "--passes", 2)?;

    let text =
        std::fs::read_to_string(prog_arg).map_err(|e| format!("cannot read {prog_arg}: {e}"))?;
    let sequence = parse_program(&text).map_err(|e| e.to_string())?;

    let sc = ScanCircuit::insert_chains(&circuit, chains);
    if sequence.width() != sc.circuit().inputs().len() {
        return Err(format!(
            "program width {} does not match {} ({} inputs with scan)",
            sequence.width(),
            sc.circuit().name(),
            sc.circuit().inputs().len(),
        ));
    }
    let faults = FaultList::collapsed(sc.circuit());
    let (obs, metrics) = obs_from_args(args)?;
    let (budget, _) = budget_from_args(args)?;
    let (obs, collector) = obs.with_collector();
    let rcfg = ResilientConfig {
        flow: FlowConfig {
            omission_passes: passes,
            scan_chains: chains,
            obs,
            ..FlowConfig::default()
        },
        budget,
        snapshots: None,
    };
    let outcome =
        run_compaction_resilient(&circuit, &sequence, &rcfg).map_err(|e| e.to_string())?;
    // A stop keeps the best result reached so far: the sequence as of the
    // last completed omission pass, or the input while restoration ran.
    let (final_seq, stopped) = match outcome {
        FlowOutcome::Complete(run) => (run.sequence, None),
        FlowOutcome::Partial {
            reason, snapshot, ..
        } => match snapshot.phase {
            FlowPhase::Omit(cursor) => (cursor.sequence, Some(reason)),
            FlowPhase::Compact { .. } | FlowPhase::Generate(_) => (sequence.clone(), Some(reason)),
        },
    };
    let before = SeqFaultSim::run(sc.circuit(), &faults, &sequence);
    if metrics {
        let mut report = FlowReport::from_collector(&collector);
        report.detection_profile = before.detection_profile();
        eprint!("{}", report.render());
    }
    let after = SeqFaultSim::run(sc.circuit(), &faults, &final_seq);
    let gained = faults
        .ids()
        .filter(|&id| after.is_detected(id) && !before.is_detected(id))
        .count();
    let reduction = if sequence.is_empty() {
        0.0
    } else {
        100.0 * (1.0 - final_seq.len() as f64 / sequence.len() as f64)
    };
    eprintln!(
        "{} -> {} vectors ({reduction:.1}% shorter); {}/{} faults detected, +{gained} gained",
        sequence.len(),
        final_seq.len(),
        before.detected_count(),
        faults.len(),
    );

    write_out(args, &write_program(sc.circuit(), &final_seq))?;
    match stopped {
        Some(reason) => {
            eprintln!("stopped early: {reason} (best result so far was written)");
            Ok(ExitCode::from(3))
        }
        None => Ok(ExitCode::SUCCESS),
    }
}

fn cmd_resume(args: &[String]) -> Result<ExitCode, String> {
    let snap_arg = args.first().ok_or("resume: missing snapshot argument")?;
    let snapshot = SnapshotStore::load(snap_arg).map_err(|e| format!("{snap_arg}: {e}"))?;
    let (obs, metrics) = obs_from_args(args)?;
    let (budget, _) = budget_from_args(args)?;
    let snapshots = flag_value(args, "--snapshots").map(SnapshotStore::new);

    // The flow configuration is re-derived from the snapshot's recorded
    // knobs on top of the defaults; anything non-default that is not
    // recorded (the generation engine) must be re-stated on the command
    // line. The digest check inside `resume_flow` refuses any drift.
    let config = FlowConfig {
        engine: engine_from_args(args)?,
        scan_chains: snapshot.scan_chains,
        max_faults: snapshot.max_faults,
        omission_passes: snapshot.omission_passes,
        seed: snapshot.seed,
        obs,
        ..FlowConfig::default()
    };
    let rcfg = ResilientConfig {
        flow: config,
        budget,
        snapshots,
    };
    eprintln!(
        "resuming {} flow from phase `{}`",
        snapshot.kind.tag(),
        snapshot.phase.tag()
    );
    match resume_flow(&snapshot, &rcfg).map_err(|e| e.to_string())? {
        FlowOutcome::Complete(run) => {
            if metrics {
                eprint!("{}", run.report.render());
            }
            eprintln!(
                "coverage {:.2}% ({}/{} faults); {} vectors",
                run.coverage_percent(),
                run.detected,
                run.total_faults,
                run.sequence.len(),
            );
            let circuit = bench_format::parse_raw(snapshot.circuit_name(), &snapshot.circuit_bench)
                .build()
                .map_err(|e| e.to_string())?;
            let sc = match snapshot.kind {
                FlowKind::Generation => ScanCircuit::insert_chains(&circuit, snapshot.scan_chains),
                FlowKind::Translation => ScanCircuit::insert(&circuit),
            };
            write_out(args, &write_program(sc.circuit(), &run.sequence))?;
            Ok(ExitCode::SUCCESS)
        }
        FlowOutcome::Partial {
            reason,
            snapshot,
            path,
        } => Ok(report_partial(
            reason,
            snapshot.phase.tag(),
            path.as_deref(),
        )),
    }
}

/// Parses every `--force NAME=0|1|x` occurrence into checker forcings.
fn forces_from_args(args: &[String]) -> Result<Vec<(String, Logic)>, String> {
    let mut forces = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a != "--force" {
            continue;
        }
        let spec = args
            .get(i + 1)
            .ok_or("--force needs a NAME=0|1|x argument")?;
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("invalid forcing `{spec}` (expected NAME=0|1|x)"))?;
        let logic = match value {
            "0" => Logic::Zero,
            "1" => Logic::One,
            "x" | "X" => Logic::X,
            _ => return Err(format!("invalid forcing value `{value}` (expected 0|1|x)")),
        };
        forces.push((name.to_owned(), logic));
    }
    Ok(forces)
}

/// Parses the checker knobs shared by every `equiv` mode.
fn equiv_opts_from_args(args: &[String]) -> Result<EquivOptions, String> {
    let d = EquivOptions::default();
    let opts = EquivOptions {
        steps: parse_flag(args, "--steps", d.steps)?,
        rounds: parse_flag(args, "--rounds", d.rounds)?,
        seed: parse_flag(args, "--seed", d.seed)?,
        threads: opt_flag(args, "--threads")?,
        forces: forces_from_args(args)?,
    };
    if opts.steps == 0 || opts.rounds == 0 {
        return Err("--steps and --rounds must be at least 1".into());
    }
    Ok(opts)
}

/// Prints an equivalence verdict; returns whether it was equivalent.
fn report_verdict(label: &str, verdict: &EquivVerdict) -> bool {
    match verdict {
        EquivVerdict::Equivalent(stats) => {
            println!(
                "{label}: equivalent over {} rounds x {} steps \
                 ({} directed, {} state-seeded; {} outputs compared)",
                stats.rounds,
                stats.steps,
                stats.directed_rounds,
                stats.seeded_rounds,
                stats.compared_outputs,
            );
            true
        }
        EquivVerdict::NotEquivalent(cex) => {
            println!(
                "{label}: NOT equivalent — output `{}` is {} vs {} at step {} \
                 (round {}, witness minimized {} -> {} vectors)",
                cex.output,
                cex.left_value,
                cex.right_value,
                cex.time,
                cex.round,
                cex.original_steps,
                cex.inputs.len(),
            );
            for (t, v) in cex.inputs.iter().enumerate() {
                let bits: String = v.iter().map(ToString::to_string).collect();
                println!("  witness[{t}] = {bits}");
            }
            if !cex.initial_state.is_empty() {
                let bits: String = cex.initial_state.iter().map(ToString::to_string).collect();
                println!("  initial state = {bits}");
            }
            false
        }
    }
}

fn cmd_equiv(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--self-check") {
        return equiv_self_check(args);
    }
    let left = load_circuit(circuit_arg(args, "equiv")?)?;
    let (obs, metrics) = obs_from_args(args)?;
    let config = FlowConfig {
        obs,
        ..FlowConfig::default()
    };

    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let orig_arg = args
            .get(i + 1)
            .ok_or("--diff needs <original.txt> <candidate.txt>")?;
        let cand_arg = args
            .get(i + 2)
            .ok_or("--diff needs <original.txt> <candidate.txt>")?;
        let sc = ScanCircuit::insert_chains(&left, chains_from_args(args, &left)?);
        let mut programs = Vec::with_capacity(2);
        for arg in [orig_arg, cand_arg] {
            let text =
                std::fs::read_to_string(arg).map_err(|e| format!("cannot read {arg}: {e}"))?;
            let seq = parse_program(&text).map_err(|e| e.to_string())?;
            if seq.width() != sc.circuit().inputs().len() {
                return Err(format!(
                    "program {arg} width {} does not match {} ({} inputs with scan)",
                    seq.width(),
                    sc.circuit().name(),
                    sc.circuit().inputs().len(),
                ));
            }
            programs.push(seq);
        }
        let faults = FaultList::collapsed(sc.circuit());
        let flow =
            DifferentialFlow::run(sc.circuit(), &faults, &programs[0], &programs[1], &config)
                .map_err(|e| e.to_string())?;
        if metrics {
            eprint!("{}", flow.report.render());
        }
        let d = &flow.diff;
        println!(
            "{}/{} faults detected by the original, {}/{} by the candidate; \
             {} lost, {} gained",
            d.original_detected,
            d.total,
            d.candidate_detected,
            d.total,
            d.lost.len(),
            d.gained.len(),
        );
        return if d.preserved() {
            println!("candidate preserves every detection");
            Ok(ExitCode::SUCCESS)
        } else {
            for id in &d.lost {
                println!("  lost: {}", faults.fault(*id).display_name(sc.circuit()));
            }
            Ok(ExitCode::from(1))
        };
    }

    let opts = equiv_opts_from_args(args)?;
    let flow = if args.iter().any(|a| a == "--scan") {
        let chains: usize = parse_flag(args, "--chains", 1)?;
        EquivFlow::run_scan_variant(&left, chains, &opts, &config).map_err(|e| e.to_string())?
    } else {
        let right_arg = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .ok_or("equiv: missing second circuit (or --scan / --diff / --self-check)")?;
        let right = load_circuit(right_arg)?;
        EquivFlow::run(&left, &right, &opts, &config).map_err(|e| e.to_string())?
    };
    if metrics {
        eprint!("{}", flow.report.render());
    }
    Ok(exit_status(!report_verdict(left.name(), &flow.verdict)))
}

/// The built-in proof obligations: every small benchmark must be
/// equivalent to its scan-inserted variants (functional mode) and its
/// BLIF round trip, and the generation flow's compacted test set must be
/// detection-preserving. Exercises the whole equiv stack with no
/// arguments, which is what the CI gate runs.
fn equiv_self_check(args: &[String]) -> Result<ExitCode, String> {
    let (obs, metrics) = obs_from_args(args)?;
    let opts = equiv_opts_from_args(args)?;
    let mut failures = 0usize;
    let mut checks = 0usize;
    for name in ["s27", "s298", "s344"] {
        let circuit = benchmarks::load(name).expect("built-in benchmark");
        let config = FlowConfig {
            obs: obs.clone(),
            ..FlowConfig::default()
        };

        let max_chains = circuit.dffs().len().min(4);
        for chains in 1..=max_chains {
            let flow = EquivFlow::run_scan_variant(&circuit, chains, &opts, &config)
                .map_err(|e| e.to_string())?;
            checks += 1;
            if !report_verdict(&format!("{name} vs scan({chains})"), &flow.verdict) {
                failures += 1;
            }
        }

        let blif = blif_format::parse(name, &blif_format::write(&circuit))
            .map_err(|e| format!("{name} BLIF round trip: {e}"))?;
        let flow = EquivFlow::run(&circuit, &blif, &opts, &config).map_err(|e| e.to_string())?;
        checks += 1;
        if !report_verdict(&format!("{name} vs BLIF round trip"), &flow.verdict) {
            failures += 1;
        }

        let gen = GenerationFlow::run(&circuit, &config).map_err(|e| e.to_string())?;
        let diff = DifferentialFlow::run(
            gen.scan.circuit(),
            &gen.faults,
            &gen.generated.sequence,
            &gen.omitted.sequence,
            &config,
        )
        .map_err(|e| e.to_string())?;
        checks += 1;
        if metrics {
            eprint!("{}", diff.report.render());
        }
        if diff.diff.preserved() {
            println!(
                "{name} compaction: detection-preserving \
                 ({} -> {} vectors, {}/{} faults, {} gained)",
                gen.generated.sequence.len(),
                gen.omitted.sequence.len(),
                diff.diff.candidate_detected,
                diff.diff.total,
                diff.diff.gained.len(),
            );
        } else {
            println!(
                "{name} compaction: NOT detection-preserving — {} fault(s) lost",
                diff.diff.lost.len(),
            );
            failures += 1;
        }
    }
    if failures == 0 {
        println!("self-check passed: {checks} obligations");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("self-check FAILED: {failures}/{checks} obligations");
        Ok(ExitCode::from(1))
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let dir = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("serve: missing state directory")?;
    let defaults = TenantQuota::default();
    let quota = TenantQuota {
        max_queued: parse_flag(args, "--max-queued", defaults.max_queued)?,
        max_concurrent: parse_flag(args, "--max-concurrent", defaults.max_concurrent)?,
        max_vectors: opt_flag(args, "--max-vectors")?,
    };
    let cfg = ServerConfig {
        workers: parse_flag(args, "--workers", 2)?,
        slice_checkpoints: parse_flag(args, "--slice", 1)?,
        quota,
        trace_jobs: args.iter().any(|a| a == "--trace-jobs"),
        limits: limits_from_args(args)?,
        ..ServerConfig::new(dir)
    };
    if cfg.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let transport_defaults = limscan_serve::socket::SocketConfig::default();
    let timeout_flag =
        |flag: &str, default: Option<Duration>| -> Result<Option<Duration>, String> {
            Ok(match secs_flag(args, flag)? {
                None => default,
                // 0 disables the timeout.
                Some(d) => (!d.is_zero()).then_some(d),
            })
        };
    let transport = limscan_serve::socket::SocketConfig {
        max_frame_bytes: parse_flag(
            args,
            "--max-frame-bytes",
            transport_defaults.max_frame_bytes,
        )?,
        read_timeout: timeout_flag("--read-timeout", transport_defaults.read_timeout)?,
        write_timeout: timeout_flag("--write-timeout", transport_defaults.write_timeout)?,
        max_connections: parse_flag(args, "--max-conns", transport_defaults.max_connections)?,
    };
    if transport.max_connections == 0 {
        return Err("--max-conns must be at least 1".into());
    }
    let socket = flag_value(args, "--socket").map_or_else(
        || Path::new(dir).join("serve.sock"),
        std::path::PathBuf::from,
    );
    let recovered = Server::start(cfg)?;
    let jobs = recovered.list();
    eprintln!(
        "limscan serve: {} job(s) recovered, listening on {}",
        jobs.len(),
        socket.display()
    );
    limscan_serve::socket::serve_with(recovered, &socket, &transport)
        .map_err(|e| format!("socket error: {e}"))?;
    eprintln!("limscan serve: stopped");
    Ok(ExitCode::SUCCESS)
}

fn cmd_client(args: &[String]) -> Result<ExitCode, String> {
    let sock = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("client: missing socket path")?;
    let policy = limscan_serve::socket::RetryPolicy {
        retries: parse_flag(
            args,
            "--retry",
            limscan_serve::socket::RetryPolicy::default().retries,
        )?,
        base: Duration::from_millis(parse_flag(args, "--retry-base-ms", 25u64)?),
        ..limscan_serve::socket::RetryPolicy::default()
    };
    // The request line is the first non-flag argument after the socket.
    let value_flags = ["--retry", "--retry-base-ms"];
    let mut inline: Option<&String> = None;
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if value_flags.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            inline = Some(a);
            break;
        }
    }
    let lines: Vec<String> = match inline {
        Some(line) => vec![line.clone()],
        None => std::io::stdin()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("cannot read stdin: {e}"))?,
    };
    let mut failed = false;
    for line in lines.iter().filter(|l| !l.trim().is_empty()) {
        let response = limscan_serve::socket::request_retry(Path::new(sock), line, &policy)
            .map_err(|e| format!("{sock}: {e}"))?;
        println!("{response}");
        let ok = limscan_serve::Json::parse(&response)
            .ok()
            .and_then(|v| v.get("ok").and_then(limscan_serve::Json::as_bool))
            .unwrap_or(false);
        failed |= !ok;
    }
    Ok(exit_status(failed))
}
