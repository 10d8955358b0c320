//! limscan's benchmark: the paper's generation flow (Table 6), its
//! translation flow (Table 7) and served jobs, timed end to end, checked,
//! and decomposed layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload gen-atpg|trans-compact|serve-s27 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result object; the lines before it carry the host context, per-circuit
//! rows and every metric with its unit. The traced run also writes its
//! spans to `flowbench/out/`. The exit status is nonzero when any output
//! check fails.

mod flows;
mod report;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use flows::{Counts, Kind, GEN_CIRCUITS, TRANS_CIRCUITS};
use report::Report;
use serve::Stop;
use trace::Tracer;

/// The default workload seed: the flows' own default.
fn default_seed() -> u64 {
    limscan::FlowConfig::default().seed
}

/// A second seed, never used while tuning the benchmark, for confirming a
/// claim made on the default seed.
pub const HELD_OUT_SEED: u64 = 0x0b5e_55ed;

/// Fault-simulation threads when `LIMSCAN_THREADS` is unset. One, although
/// the benchmark's host has two cores: with two workers the simulator's
/// barrier-synchronized slices stall whenever a neighbour takes a core, and
/// on a shared 2-core host flow times swung twofold between runs, against
/// about 15% with one.
const DEFAULT_THREADS: &str = "1";

/// The largest seed: served job seeds travel as JSON numbers, which are
/// exact integers only up to 2^53.
const MAX_SEED: u64 = 1 << 53;

/// Jobs each client submits in the served s27 load that closes the traced
/// run of a flow workload.
const PROBE_JOBS: usize = 150;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: default_seed(),
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["gen-atpg", "trans-compact", "serve-s27"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if args.seed > MAX_SEED {
        return Err(format!("--seed must be at most {MAX_SEED}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flowbench: {e}");
            eprintln!(
                "usage: flowbench --workload gen-atpg|trans-compact|serve-s27 \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("LIMSCAN_THREADS").is_none() {
        std::env::set_var("LIMSCAN_THREADS", DEFAULT_THREADS);
    }
    let work =
        PathBuf::from("flowbench/.work").join(format!("{}-{}", args.workload, std::process::id()));
    let mut report = Report::default();
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &work, &mut report));
    let context = report::context(&args.workload, args.seed, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("flowbench: {e}");
        return ExitCode::FAILURE;
    }
    report.print(&context);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return traced(args, work, report);
    }
    match args.workload.as_str() {
        "gen-atpg" => flows::measure(
            Kind::Generate,
            GEN_CIRCUITS,
            args.seed,
            args.seconds,
            report,
        )?,
        "trans-compact" => flows::measure(
            Kind::Translate,
            TRANS_CIRCUITS,
            args.seed,
            args.seconds,
            report,
        )?,
        _ => serve::measure(args.seed, args.seconds, work, report)?,
    }
    report.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    Ok(())
}

/// The flow layers whose spans make up a flow's time, with the metric each
/// one's summed seconds is reported as.
const FLOW_LAYERS: [(&str, &str); 10] = [
    ("netlist.parse", "netlist.parse_s"),
    ("lint.gate", "lint.gate_s"),
    ("scan.insert", "scan.insert_s"),
    ("scan.translate", "scan.translate_s"),
    ("fault.collapse", "fault.collapse_s"),
    ("atpg.seq", "atpg.seq_s"),
    ("atpg.baseline", "atpg.baseline_s"),
    ("compact.scan_set", "compact.scan_set_s"),
    ("compact.restore", "compact.restore_s"),
    ("compact.omit", "compact.omit_s"),
];

/// The traced run. A flow workload decomposes its own circuits; every
/// workload then runs the served s27 cycle, for its whole `--seconds` on
/// `serve-s27` and for `PROBE_JOBS` jobs per client otherwise, so every
/// layer is reached.
fn traced(args: &Args, work: &Path, report: &mut Report) -> Result<(), String> {
    let mut t = Tracer::new(Instant::now());
    let served = args.workload == "serve-s27";
    let flows = match args.workload.as_str() {
        "gen-atpg" => Some((Kind::Generate, GEN_CIRCUITS)),
        "trans-compact" => Some((Kind::Translate, TRANS_CIRCUITS)),
        _ => None,
    };
    let (mut counts, rounds) = match flows {
        Some((kind, names)) => flows::traced(kind, names, args.seed, args.seconds, report, &mut t)?,
        None => (Counts::default(), 1),
    };
    let stop = if served {
        Stop::At(Instant::now() + Duration::from_secs_f64(args.seconds))
    } else {
        Stop::Jobs(PROBE_JOBS)
    };
    let probe = serve::traced(args.seed, stop, work, report, &mut t)?;
    if served {
        counts = probe.counts;
    } else {
        counts.add_work(&probe.counts);
    }
    // Layer seconds are per round of the workload's circuits plus one
    // served s27 cycle.
    let layer =
        |span: &str| t.total(span) / rounds as f64 + probe.tracer.total(span) / probe.reps as f64;
    for (span, metric) in FLOW_LAYERS {
        report.metric(metric, layer(span), "s");
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &counts;
    report.metric("atpg.seq_vectors", c.seq_vectors as f64, "count");
    report.metric("atpg.seq_aborted", c.seq_aborted as f64, "count");
    report.metric("atpg.scan_loads", c.scan_loads as f64, "count");
    report.metric("compact.baseline_cycles", c.baseline_cycles as f64, "count");
    report.metric(
        "compact.restore_kept",
        ratio(c.restored, c.original),
        "ratio",
    );
    report.metric("compact.omit_kept", ratio(c.omitted, c.restored), "ratio");
    report.metric("compact.extra_detected", c.extra_detected as f64, "count");
    report.metric("fault.targets", c.fault_targets as f64, "count");
    report.metric("sim.verify_s", layer("sim.verify"), "s");
    report.metric(
        "sim.fault_vectors_per_s",
        if c.resim_secs > 0.0 {
            c.fault_vectors / c.resim_secs
        } else {
            0.0
        },
        "1/s",
    );
    for (name, value) in &probe.metrics {
        let unit = if name.ends_with("_ms") { "ms" } else { "count" };
        report.metric(name, *value, unit);
    }
    report.metric(
        "trace.gap_pct",
        100.0 * (c.layer_secs / c.flow_secs - 1.0).abs(),
        "%",
    );
    let run_id = format!("{}-seed{}-{}", args.workload, args.seed, std::process::id());
    let path = PathBuf::from("flowbench/out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    t.absorb(probe.tracer);
    t.write_jsonl(&path, &run_id)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
