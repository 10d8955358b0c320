//! The served workload: an in-process daemon behind its Unix socket, a
//! closed loop of client connections, and the direct runs every served
//! result must match byte for byte.

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use limscan::scan::program::{parse_program, write_program};
use limscan::{benchmarks, FaultList, ScanCircuit, SeqFaultSim, SnapshotStore};
use limscan_serve::socket::{self, SocketConfig};
use limscan_serve::{run_direct, JobKind, JobMeta, JobSpec, JobState, Json, Server, ServerConfig};

use crate::flows::{self, Counts, Kind};
use crate::report::{median, num, obj, percentile, Report};
use crate::trace::Tracer;

/// The job kinds each client cycles through, in order.
pub const KINDS: [Kind; 3] = [Kind::Generate, Kind::Translate, Kind::Compact];
/// Closed-loop client connections, one tenant each.
const CLIENTS: usize = 2;
/// Pause between `result` polls of one in-flight job.
const POLL: Duration = Duration::from_micros(500);
/// Direct runs and decompositions per job kind; medians are reported.
const REPS: usize = 15;
/// Direct `save_text` calls timed for `harness.save_text_ms`.
const SAVE_REPS: usize = 15;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// A job still unanswered after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const CIRCUIT: &str = "s27";

fn job_kind(kind: Kind) -> JobKind {
    match kind {
        Kind::Generate => JobKind::Generate,
        Kind::Translate => JobKind::Translate,
        Kind::Compact => JobKind::Compact,
    }
}

/// The spec of a job of `kind`; compaction jobs carry `program`.
fn spec(tenant: &str, kind: Kind, seed: u64, program: &str) -> JobSpec {
    JobSpec {
        tenant: tenant.to_owned(),
        kind: job_kind(kind),
        circuit: CIRCUIT.to_owned(),
        program: (kind == Kind::Compact).then(|| program.to_owned()),
        seed,
        ..JobSpec::default()
    }
}

/// The `submit` request for [`spec`], in the wire protocol.
fn submit_line(tenant: &str, kind: Kind, seed: u64, program: &str) -> String {
    let mut members = vec![
        ("verb", Json::str("submit")),
        ("tenant", Json::str(tenant)),
        ("kind", Json::str(kind.tag())),
        ("circuit", Json::str(CIRCUIT)),
        ("seed", Json::num(seed)),
    ];
    if kind == Kind::Compact {
        members.push(("program", Json::str(program)));
    }
    obj(members).render()
}

/// The program every compaction job compacts: the default generation
/// job's result.
fn compact_input() -> Result<String, String> {
    run_direct(&JobSpec::default())
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and parses the one response line.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Json::parse(response.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// An in-process daemon serving its socket on a thread of its own.
pub struct Daemon {
    socket: PathBuf,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Starts a server with `ServerConfig::new` defaults on a fresh state
    /// directory under `dir`, and waits until its socket accepts.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let server = Server::start(ServerConfig::new(dir.join("state")))?;
        let socket = dir.join("d.sock");
        let thread = {
            let socket = socket.clone();
            std::thread::spawn(move || {
                socket::serve_with(server, &socket, &SocketConfig::default())
            })
        };
        let daemon = Daemon {
            socket,
            thread: Some(thread),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while UnixStream::connect(&daemon.socket).is_err() {
            if Instant::now() > deadline
                || daemon.thread.as_ref().is_some_and(JoinHandle::is_finished)
            {
                return Err(format!(
                    "daemon on {} never accepted",
                    daemon.socket.display()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    /// Sends `shutdown` and waits for the daemon and its workers to exit.
    /// Client connections must be closed first.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = self
            .connect()
            .and_then(|mut conn| conn.call("{\"verb\":\"shutdown\"}"));
        let joined = thread.join();
        sent?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// When a client stops submitting.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    Jobs(usize),
}

/// One job as a client saw it.
struct Job {
    kind: usize,
    latency_ms: f64,
    polls: usize,
    result: Result<String, String>,
}

/// A closed loop on one connection: submit, poll `result` until it is
/// `ok`, then submit the next job, cycling through [`KINDS`].
fn client(
    mut conn: Conn,
    tenant: &str,
    seed: u64,
    program: &str,
    stop: Stop,
    t: &mut Tracer,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    for i in 0.. {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::Jobs(n) if i >= n => break,
            _ => {}
        }
        let kind = i % KINDS.len();
        let job_span = t.begin("serve.job");
        let t0 = Instant::now();
        let (result, polls) = run_job(
            &mut conn,
            &submit_line(tenant, KINDS[kind], seed, program),
            t,
        );
        jobs.push(Job {
            kind,
            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            polls,
            result,
        });
        t.end(job_span);
        if matches!(&jobs[jobs.len() - 1].result, Err(e) if e.starts_with("transport")) {
            break;
        }
    }
    jobs
}

/// Submits one job and polls until its result arrives; returns the result
/// text (or the failure) and the number of `result` polls.
fn run_job(conn: &mut Conn, submit: &str, t: &mut Tracer) -> (Result<String, String>, usize) {
    let response = match t.span("serve.submit", || conn.call(submit)) {
        Ok(v) => v,
        Err(e) => return (Err(format!("transport: {e}")), 0),
    };
    let Some(id) = response.get("job").and_then(Json::as_u64) else {
        return (Err(format!("submit refused: {response:?}")), 0);
    };
    let poll = format!("{{\"verb\":\"result\",\"job\":{id}}}");
    let started = Instant::now();
    let mut polls = 0;
    loop {
        std::thread::sleep(POLL);
        polls += 1;
        let response = match t.span("serve.result", || conn.call(&poll)) {
            Ok(v) => v,
            Err(e) => return (Err(format!("transport: {e}")), polls),
        };
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            let text = response.get("result").and_then(Json::as_str);
            return (
                text.map(str::to_owned).ok_or("result without text".into()),
                polls,
            );
        }
        let error = response.get("error").and_then(Json::as_str).unwrap_or("");
        if error != "job is not complete" {
            return (Err(format!("job {id} failed: {error}")), polls);
        }
        if started.elapsed() > JOB_TIMEOUT {
            return (Err(format!("job {id} timed out")), polls);
        }
    }
}

/// What a load phase produced.
struct Load {
    jobs: Vec<Job>,
    wall_secs: f64,
    slices: Vec<u64>,
}

/// Runs the closed loop on `conns` until `stop`, then reads the scheduler
/// slices per job from the `metrics` verb.
fn load(
    daemon: &Daemon,
    conns: Vec<Conn>,
    seed: u64,
    program: &str,
    stop: Stop,
    t: &mut Tracer,
) -> Result<Load, String> {
    let start = Instant::now();
    let epoch = t.epoch();
    let results: Vec<(Vec<Job>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                scope.spawn(move || {
                    let mut tracer = Tracer::new(epoch);
                    let jobs = client(
                        conn,
                        &format!("tenant{i}"),
                        seed,
                        program,
                        stop,
                        &mut tracer,
                    );
                    (jobs, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (client_jobs, tracer) in results {
        jobs.extend(client_jobs);
        t.absorb(tracer);
    }
    let metrics = daemon.connect()?.call("{\"verb\":\"metrics\"}")?;
    let slices = metrics
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("metrics without jobs")?
        .iter()
        .filter_map(|j| j.get("slices").and_then(Json::as_u64))
        .collect();
    Ok(Load {
        jobs,
        wall_secs,
        slices,
    })
}

/// Set-up: the compaction input, a fresh daemon and the client
/// connections. Timed `SETUP_REPS` times; the last set-up is kept.
fn setup(work: &Path) -> Result<(f64, String, Daemon, Vec<Conn>), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.join(format!("d{rep}"));
        let t0 = Instant::now();
        let program = compact_input()?;
        let daemon = Daemon::start(&dir)?;
        let conns = (0..CLIENTS)
            .map(|_| daemon.connect())
            .collect::<Result<Vec<_>, _>>()?;
        times.push(t0.elapsed().as_secs_f64());
        if let Some((_, old, old_conns)) = kept.replace((program, daemon, conns)) {
            drop(old_conns);
            old.stop()?;
        }
    }
    let (program, daemon, conns) = kept.expect("at least one set-up");
    Ok((median(&times), program, daemon, conns))
}

/// The direct reference of each job kind: its result text and the median
/// seconds of `REPS` direct runs (no daemon, no durability).
fn references(seed: u64, program: &str) -> Result<Vec<(String, f64)>, String> {
    KINDS
        .iter()
        .map(|&kind| {
            let spec = spec("direct", kind, seed, program);
            let mut times = Vec::new();
            let mut text = String::new();
            for _ in 0..REPS {
                let t0 = Instant::now();
                text = run_direct(&spec)?;
                times.push(t0.elapsed().as_secs_f64());
            }
            Ok((text, median(&times)))
        })
        .collect()
}

/// Final sequence length and re-simulated detections of a job kind's
/// result program.
fn result_counts(kind: Kind, text: &str) -> Result<(usize, usize), String> {
    let circuit = benchmarks::load(CIRCUIT).ok_or("s27 is not embedded")?;
    let scan = match kind {
        Kind::Translate => ScanCircuit::insert(&circuit),
        Kind::Generate | Kind::Compact => ScanCircuit::insert_chains(&circuit, 1),
    };
    let faults = FaultList::collapsed(scan.circuit());
    let sequence = parse_program(text).map_err(|e| e.to_string())?;
    let report = SeqFaultSim::run(scan.circuit(), &faults, &sequence);
    Ok((sequence.len(), report.detected_count()))
}

/// Scores every served job against its kind's direct reference.
fn check_jobs(jobs: &[Job], refs: &[(String, f64)], report: &mut Report) -> Vec<usize> {
    let mut ok = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let problems = match &job.result {
            Ok(text) if *text == refs[job.kind].0 => Vec::new(),
            Ok(_) => vec![format!(
                "served {} job differs from its direct run",
                KINDS[job.kind].tag()
            )],
            Err(e) => vec![e.clone()],
        };
        if problems.is_empty() {
            ok.push(i);
        }
        report.op(problems);
    }
    ok
}

/// The untraced run of `serve-s27`.
pub fn measure(seed: u64, seconds: f64, work: &Path, report: &mut Report) -> Result<(), String> {
    let (setup_s, program, daemon, conns) = setup(work)?;
    let stop = Stop::At(Instant::now() + Duration::from_secs_f64(seconds));
    let loaded = load(
        &daemon,
        conns,
        seed,
        &program,
        stop,
        &mut Tracer::new(Instant::now()),
    )?;
    daemon.stop()?;
    let refs = references(seed, &program)?;
    let ok = check_jobs(&loaded.jobs, &refs, report);
    let latencies: Vec<f64> = ok.iter().map(|&i| loaded.jobs[i].latency_ms).collect();
    let (mut test_cycles, mut detected) = (0, 0);
    for (kind, (text, secs)) in KINDS.iter().zip(&refs) {
        let (len, det) = result_counts(*kind, text)?;
        test_cycles += len;
        detected += det;
        report.rows.push(obj(vec![
            ("circuit", Json::str(CIRCUIT)),
            ("flow", Json::str(kind.tag())),
            ("flow_s", num(*secs)),
            ("test_cycles", Json::num(len as u64)),
            ("detected", Json::num(det as u64)),
        ]));
    }
    report.rows.push(obj(vec![
        ("jobs", Json::num(loaded.jobs.len() as u64)),
        ("completed", Json::num(latencies.len() as u64)),
        ("wall_s", num(loaded.wall_secs)),
    ]));
    report.metric("setup_s", setup_s, "s");
    report.metric("flow_s", refs.iter().map(|r| r.1).sum(), "s");
    report.metric("test_cycles", test_cycles as f64, "count");
    report.metric("detected", detected as f64, "count");
    report.metric(
        "jobs_per_s",
        latencies.len() as f64 / loaded.wall_secs,
        "1/s",
    );
    report.metric("job_p50_ms", median(&latencies), "ms");
    report.metric("job_p99_ms", percentile(&latencies, 99.0), "ms");
    Ok(())
}

/// What the traced served cycle measured.
pub struct Probe {
    /// Spans of the decomposed s27 runs, `reps` per job kind.
    pub tracer: Tracer,
    pub reps: usize,
    /// Work counters of one decomposed cycle, and the tracing gap.
    pub counts: Counts,
    pub metrics: Vec<(&'static str, f64)>,
}

/// The traced served cycle: the closed loop with a span per RPC, the
/// direct compute per job kind, the same jobs decomposed into per-layer
/// spans (their sequences must match the served results), and one durable
/// write timed on its own.
pub fn traced(
    seed: u64,
    stop: Stop,
    work: &Path,
    report: &mut Report,
    t: &mut Tracer,
) -> Result<Probe, String> {
    let program = compact_input()?;
    let daemon = Daemon::start(&work.join("traced"))?;
    let conns = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let loaded = load(&daemon, conns, seed, &program, stop, t)?;
    daemon.stop()?;
    let refs = references(seed, &program)?;
    let ok = check_jobs(&loaded.jobs, &refs, report);

    let input = flows::materialize(&[CIRCUIT])?.remove(0);
    let sequence = parse_program(&program).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(t.epoch());
    let mut counts = Counts::default();
    for (k, &kind) in KINDS.iter().enumerate() {
        let mut layer_secs = Vec::new();
        for rep in 0..REPS {
            let d = flows::decompose(kind, &input, Some(&sequence), seed, &mut tracer)?;
            layer_secs.push(d.layer_secs);
            if rep == 0 {
                let text = write_program(d.outcome.scan.circuit(), &d.outcome.omitted.sequence);
                let v = flows::verify(CIRCUIT, kind, &d.outcome, &mut tracer);
                let mut problems = v.problems.clone();
                if text != refs[k].0 {
                    problems.push(format!(
                        "{CIRCUIT} {}: decomposed calls differ from the direct run",
                        kind.tag()
                    ));
                }
                report.op(problems);
                counts.add(&d, &v);
            }
        }
        counts.layer_secs += median(&layer_secs);
        counts.flow_secs += refs[k].1;
        report.rows.push(obj(vec![
            ("circuit", Json::str(CIRCUIT)),
            ("flow", Json::str(kind.tag())),
            ("compute_s", num(refs[k].1)),
            ("layers_s", num(median(&layer_secs))),
            (
                "gap_pct",
                num(100.0 * (median(&layer_secs) / refs[k].1 - 1.0)),
            ),
        ]));
    }

    let store = SnapshotStore::new(work.join("traced").join("probe"));
    let meta = JobMeta {
        id: 1,
        spec: spec("tenant0", Kind::Generate, seed, &program),
        state: JobState::Queued,
        error: None,
    }
    .to_text();
    let mut saves = Vec::new();
    for _ in 0..SAVE_REPS {
        let t0 = Instant::now();
        store
            .save_text("job.meta", &meta)
            .map_err(|e| e.to_string())?;
        saves.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let ms = |name: &str| -> Vec<f64> { t.durations(name).iter().map(|s| s * 1e3).collect() };
    let (submit, result) = (ms("serve.submit"), ms("serve.result"));
    let compute_ms: Vec<f64> = refs.iter().map(|r| r.1 * 1e3).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|&i| loaded.jobs[i].latency_ms - compute_ms[loaded.jobs[i].kind])
        .collect();
    let jobs = loaded.jobs.len().max(1) as f64;
    let polls: usize = loaded.jobs.iter().map(|j| j.polls).sum();
    let metrics = vec![
        ("serve.submit_p50_ms", median(&submit)),
        ("serve.submit_p99_ms", percentile(&submit, 99.0)),
        ("serve.result_p50_ms", median(&result)),
        ("serve.result_p99_ms", percentile(&result, 99.0)),
        ("serve.polls_per_job", polls as f64 / jobs),
        (
            "serve.slices_per_job",
            loaded.slices.iter().sum::<u64>() as f64 / loaded.slices.len().max(1) as f64,
        ),
        (
            "serve.compute_ms",
            compute_ms.iter().sum::<f64>() / compute_ms.len() as f64,
        ),
        ("serve.overhead_ms", median(&overhead)),
        ("harness.save_text_ms", median(&saves)),
    ];
    Ok(Probe {
        tracer,
        reps: REPS,
        counts,
        metrics,
    })
}
