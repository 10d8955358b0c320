//! The job server: admission, fair time-sliced scheduling, and crash-safe
//! job state.
//!
//! ## Scheduling model
//!
//! Jobs run in *slices*: one slice is a resilient-driver run under a
//! [`RunBudget`] whose `max_checkpoints` equals the server's
//! `slice_checkpoints`. A slice either completes the job or stops at a
//! pass boundary with a [`FlowSnapshot`]; the job is then *parked* and
//! requeued. Because resuming from any boundary snapshot is bit-identical
//! to an uninterrupted run, preemption is free of correctness cost — the
//! scheduler can interleave arbitrarily and every job still produces the
//! exact sequence a solo run would.
//!
//! Dispatch is round-robin over tenants: each pick advances a tenant ring,
//! and within a tenant jobs run in submission order. A tenant that is
//! runnable (has a queued/parked job and spare concurrency) can be passed
//! over at most once per other tenant before its next slice, which bounds
//! the slice gap any tenant can see — the `waiting`/`max_wait` counters
//! account for exactly this and the load tests assert the bound.
//!
//! ## Durability model
//!
//! Every job owns a directory under `<state>/jobs/`. `job.meta` (spec +
//! last persisted state) is written through [`SnapshotStore::save_text`]
//! (temp file, rename, fsync file and directory), the driver's boundary
//! snapshots land in the same directory, and a completed job's program
//! text is persisted as `result.txt` before the completion is recorded.
//! `Running` is never persisted: after SIGKILL, a restarted server
//! re-lists every job and resumes it from its most advanced snapshot (or
//! from scratch), so no job is ever lost or torn.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use limscan::obs::{Metric, MetricTotals};
use limscan::scan::program::{parse_program, write_program};
use limscan::{
    resume_flow, run_compaction_resilient, run_generation_resilient, run_translation_resilient,
    FlowOutcome, FlowPhase, FlowSnapshot, ObsHandle, ResilientConfig, ResilientRun, RunBudget,
    ScanCircuit, SnapshotStore,
};

use crate::job::{JobKind, JobMeta, JobSpec, JobState, JobStatus};

/// Per-tenant admission limits. All limits are enforced at `submit`:
/// `max_queued` bounds a tenant's live (non-terminal) jobs,
/// `max_concurrent` bounds its simultaneously running slices, and
/// `max_vectors` rejects new work once the tenant's simulated-vector
/// account is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum live (queued + parked + running) jobs.
    pub max_queued: usize,
    /// Maximum concurrently running slices.
    pub max_concurrent: usize,
    /// Total simulated-vector budget across all of the tenant's jobs.
    pub max_vectors: Option<u64>,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_queued: 10_000,
            max_concurrent: 8,
            max_vectors: None,
        }
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Root of the durable job state (created if missing).
    pub state_dir: PathBuf,
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Checkpoint budget per slice; 0 runs every job to completion in one
    /// slice (no preemption).
    pub slice_checkpoints: u64,
    /// Quota applied to every tenant.
    pub quota: TenantQuota,
    /// Write a `trace-NNN.jsonl` span/metric trace per slice into the job
    /// directory.
    pub trace_jobs: bool,
    /// Parse budget applied to inline `bench` payloads at admission, so a
    /// hostile submit cannot make the daemon build an unbounded netlist.
    pub limits: limscan::netlist::ParseLimits,
}

impl ServerConfig {
    /// A config rooted at `state_dir` with defaults: 2 workers, one
    /// checkpoint per slice, default quotas, no per-job traces.
    #[must_use]
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            state_dir: state_dir.into(),
            workers: 2,
            slice_checkpoints: 1,
            quota: TenantQuota::default(),
            trace_jobs: false,
            limits: limscan::netlist::ParseLimits::default(),
        }
    }

    fn job_dir(&self, id: u64) -> PathBuf {
        self.state_dir.join("jobs").join(format!("j{id:06}"))
    }
}

/// Per-job metrics, as exported by the `metrics` verb.
#[derive(Clone, Debug)]
pub struct JobMetrics {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Slices spent so far.
    pub slices: u64,
    /// Counter sums / gauge maxima over all of the job's slices.
    pub totals: MetricTotals,
}

/// Per-tenant aggregated metrics.
#[derive(Clone, Debug)]
pub struct TenantMetrics {
    /// Tenant name.
    pub tenant: String,
    /// Total jobs ever admitted for the tenant (this process).
    pub jobs: u64,
    /// Simulated vectors charged against the tenant's quota.
    pub vectors: u64,
    /// Fairness high-water: the most dispatches that ever passed over this
    /// tenant while it was runnable, before it got its next slice.
    pub max_wait: u64,
    /// Concurrency high-water.
    pub max_running: u64,
    /// Counter sums / gauge maxima over every slice of every job.
    pub totals: MetricTotals,
}

/// The `metrics` verb's payload.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    /// One entry per job, ascending id.
    pub jobs: Vec<JobMetrics>,
    /// One entry per tenant, ascending name.
    pub tenants: Vec<TenantMetrics>,
}

struct Entry {
    spec: JobSpec,
    state: JobState,
    snapshot: Option<FlowSnapshot>,
    cancel: bool,
    slices: u64,
    error: Option<String>,
    result: Option<String>,
    totals: MetricTotals,
}

#[derive(Default)]
struct Tenant {
    quota: TenantQuota,
    admitted: u64,
    running: usize,
    max_running: u64,
    vectors: u64,
    waiting: u64,
    max_wait: u64,
    totals: MetricTotals,
}

struct State {
    jobs: BTreeMap<u64, Entry>,
    tenants: BTreeMap<String, Tenant>,
    ring: Vec<String>,
    rr: usize,
    next_id: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    idle: Condvar,
    cfg: ServerConfig,
}

/// The daemon: a job queue, worker pool, and durable state directory. See
/// the module docs for the scheduling and durability model.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server: recover every job recorded under the state
    /// directory, then spawn the worker pool.
    ///
    /// # Errors
    ///
    /// A description of the failure to create or scan the state directory.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        let jobs_dir = cfg.state_dir.join("jobs");
        std::fs::create_dir_all(&jobs_dir)
            .map_err(|e| format!("cannot create {}: {e}", jobs_dir.display()))?;
        let (jobs, next_id) = recover(&cfg)?;
        let mut tenants: BTreeMap<String, Tenant> = BTreeMap::new();
        let mut ring = Vec::new();
        for entry in jobs.values() {
            let tenant = tenants.entry(entry.spec.tenant.clone()).or_insert_with(|| {
                ring.push(entry.spec.tenant.clone());
                Tenant {
                    quota: cfg.quota,
                    ..Tenant::default()
                }
            });
            tenant.admitted += 1;
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs,
                tenants,
                ring,
                rr: 0,
                next_id,
                shutdown: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// Admit a job. Validates the spec, checks the tenant's quotas,
    /// persists the job metadata, and queues it.
    ///
    /// # Errors
    ///
    /// The rejection reason (validation failure or quota exhaustion).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        spec.validate_with(&self.shared.cfg.limits)?;
        let mut state = self.lock();
        if state.shutdown {
            return Err("server is shutting down".into());
        }
        let tenant_name = spec.tenant.clone();
        if !state.tenants.contains_key(&tenant_name) {
            state.ring.push(tenant_name.clone());
            state.tenants.insert(
                tenant_name.clone(),
                Tenant {
                    quota: self.shared.cfg.quota,
                    ..Tenant::default()
                },
            );
        }
        let live = state
            .jobs
            .values()
            .filter(|e| e.spec.tenant == tenant_name && !e.state.is_terminal())
            .count();
        let tenant = state.tenants.get_mut(&tenant_name).expect("just inserted");
        if live >= tenant.quota.max_queued {
            return Err(format!(
                "tenant `{tenant_name}` is at its queue quota ({live} live jobs)"
            ));
        }
        if let Some(cap) = tenant.quota.max_vectors {
            if tenant.vectors >= cap {
                return Err(format!(
                    "tenant `{tenant_name}` has exhausted its vector budget \
                     ({} of {cap})",
                    tenant.vectors
                ));
            }
        }
        tenant.admitted += 1;
        let id = state.next_id;
        state.next_id += 1;
        let meta = JobMeta {
            id,
            spec: spec.clone(),
            state: JobState::Queued,
            error: None,
        };
        let store = SnapshotStore::new(self.shared.cfg.job_dir(id));
        store
            .save_text("job.meta", &meta.to_text())
            .map_err(|e| format!("cannot persist job metadata: {e}"))?;
        state.jobs.insert(
            id,
            Entry {
                spec,
                state: JobState::Queued,
                snapshot: None,
                cancel: false,
                slices: 0,
                error: None,
                result: None,
                totals: MetricTotals::new(),
            },
        );
        self.shared.work.notify_all();
        Ok(id)
    }

    /// A job's current status, or `None` for an unknown id.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.lock();
        state.jobs.get(&id).map(|e| status_of(id, e))
    }

    /// Every job's status, ascending id.
    #[must_use]
    pub fn list(&self) -> Vec<JobStatus> {
        let state = self.lock();
        state.jobs.iter().map(|(id, e)| status_of(*id, e)).collect()
    }

    /// The final program text of a completed job.
    ///
    /// # Errors
    ///
    /// "unknown job", the failure message of a failed job, or "not
    /// complete" for a job still in flight.
    pub fn result_text(&self, id: u64) -> Result<String, String> {
        let state = self.lock();
        let entry = state.jobs.get(&id).ok_or("unknown job")?;
        match entry.state {
            JobState::Complete => match &entry.result {
                Some(text) => Ok(text.clone()),
                None => SnapshotStore::read_text(self.shared.cfg.job_dir(id).join("result.txt"))
                    .map_err(|e| e.to_string()),
            },
            JobState::Failed => Err(entry
                .error
                .clone()
                .unwrap_or_else(|| "job failed".to_string())),
            JobState::Cancelled => Err("job was cancelled".into()),
            _ => Err("job is not complete".into()),
        }
    }

    /// Cancel a job. Queued and parked jobs cancel immediately; a running
    /// job finishes its current slice first (the work done so far is kept
    /// on disk). Cancelling a terminal job is a no-op.
    ///
    /// # Errors
    ///
    /// "unknown job".
    pub fn cancel(&self, id: u64) -> Result<JobStatus, String> {
        let mut state = self.lock();
        let cfg = &self.shared.cfg;
        let entry = state.jobs.get_mut(&id).ok_or("unknown job")?;
        match entry.state {
            JobState::Queued | JobState::Parked => {
                entry.state = JobState::Cancelled;
                entry.cancel = true;
                persist_meta(cfg, id, entry);
                self.shared.idle.notify_all();
            }
            JobState::Running => entry.cancel = true,
            JobState::Complete | JobState::Cancelled | JobState::Failed => {}
        }
        let entry = &state.jobs[&id];
        Ok(status_of(id, entry))
    }

    /// Metrics for every job and tenant.
    #[must_use]
    pub fn metrics(&self) -> MetricsReport {
        let state = self.lock();
        MetricsReport {
            jobs: state
                .jobs
                .iter()
                .map(|(id, e)| JobMetrics {
                    id: *id,
                    tenant: e.spec.tenant.clone(),
                    slices: e.slices,
                    totals: e.totals.clone(),
                })
                .collect(),
            tenants: state
                .tenants
                .iter()
                .map(|(name, t)| TenantMetrics {
                    tenant: name.clone(),
                    jobs: t.admitted,
                    vectors: t.vectors,
                    max_wait: t.max_wait,
                    max_running: t.max_running,
                    totals: t.totals.clone(),
                })
                .collect(),
        }
    }

    /// Block until every job is terminal (complete, cancelled, or failed)
    /// or the server is shut down.
    pub fn drain(&self) {
        let mut state = self.lock();
        while !state.shutdown && state.jobs.values().any(|e| !e.state.is_terminal()) {
            state = self.shared.idle.wait(state).expect("server state poisoned");
        }
    }

    /// Ask the worker pool to stop. Running slices finish and park; call
    /// [`Server::join`] (or drop the server) to wait for them.
    pub fn shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        self.shared.work.notify_all();
        self.shared.idle.notify_all();
    }

    /// Wait for every worker to exit (after [`Server::shutdown`]).
    pub fn join(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.shared.state.lock().expect("server state poisoned")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn status_of(id: u64, entry: &Entry) -> JobStatus {
    JobStatus {
        id,
        tenant: entry.spec.tenant.clone(),
        kind: entry.spec.kind,
        circuit: entry.spec.circuit.clone(),
        state: entry.state,
        slices: entry.slices,
        error: entry.error.clone(),
    }
}

/// Persist the job's metadata; a failure is logged, not fatal (the job
/// keeps running, recovery degrades to an earlier persisted state).
fn persist_meta(cfg: &ServerConfig, id: u64, entry: &Entry) {
    let meta = JobMeta {
        id,
        spec: entry.spec.clone(),
        // `Running` is never persisted; a crash recovers it as parked or
        // queued from the snapshots on disk.
        state: if entry.state == JobState::Running {
            JobState::Queued
        } else {
            entry.state
        },
        error: entry.error.clone(),
    };
    let store = SnapshotStore::new(cfg.job_dir(id));
    if let Err(e) = store.save_text("job.meta", &meta.to_text()) {
        eprintln!("serve: cannot persist metadata for job {id}: {e}");
    }
}

/// Rank a snapshot by pipeline progress (higher resumes with less work).
/// Correctness does not depend on the choice — resuming from *any* valid
/// boundary converges to the identical final sequence.
fn snapshot_rank(snapshot: &FlowSnapshot) -> (u8, u64) {
    match &snapshot.phase {
        FlowPhase::Generate(_) => (0, 0),
        FlowPhase::Compact { .. } => (1, 0),
        FlowPhase::Omit(cursor) => (2, cursor.pass as u64),
    }
}

/// Scan `<state>/jobs/` and rebuild the job table. Jobs whose last
/// persisted state was non-terminal come back queued (no snapshot) or
/// parked (resuming from the most advanced snapshot on disk).
#[allow(clippy::type_complexity)]
fn recover(cfg: &ServerConfig) -> Result<(BTreeMap<u64, Entry>, u64), String> {
    let jobs_dir = cfg.state_dir.join("jobs");
    let mut jobs = BTreeMap::new();
    let mut next_id = 1u64;
    let iter = std::fs::read_dir(&jobs_dir)
        .map_err(|e| format!("cannot read {}: {e}", jobs_dir.display()))?;
    for dir_entry in iter {
        let dir_entry = dir_entry.map_err(|e| e.to_string())?;
        let dir = dir_entry.path();
        if !dir.is_dir() {
            continue;
        }
        // Sweep temps abandoned mid-write: a surviving `.tmp` means the
        // crash landed between the temp write and the rename, so the
        // durable predecessor is still in place and the temp is garbage.
        if let Ok(read) = std::fs::read_dir(&dir) {
            for file in read.flatten() {
                if file.file_name().to_string_lossy().ends_with(".tmp") {
                    let _ = std::fs::remove_file(file.path());
                }
            }
        }
        let Ok(meta_text) = std::fs::read_to_string(dir.join("job.meta")) else {
            // A directory without metadata is a submit that crashed before
            // its first (atomic) metadata write — there is no job to lose.
            continue;
        };
        let meta = match JobMeta::from_text(&meta_text) {
            Ok(meta) => meta,
            Err(e) => {
                eprintln!("serve: skipping {}: bad metadata: {e}", dir.display());
                continue;
            }
        };
        next_id = next_id.max(meta.id + 1);
        let mut entry = Entry {
            spec: meta.spec,
            state: meta.state,
            snapshot: None,
            cancel: false,
            slices: 0,
            error: meta.error,
            result: None,
            totals: MetricTotals::new(),
        };
        match meta.state {
            JobState::Complete => {
                match SnapshotStore::read_text(dir.join("result.txt")) {
                    Ok(text) => entry.result = Some(text),
                    // Completion is only recorded after the result write,
                    // so this is unreachable in practice; degrade to
                    // re-running rather than serving a missing result.
                    Err(_) => restore_progress(&dir, &mut entry),
                }
            }
            JobState::Cancelled | JobState::Failed => {}
            JobState::Queued | JobState::Parked | JobState::Running => {
                restore_progress(&dir, &mut entry);
            }
        }
        jobs.insert(meta.id, entry);
    }
    Ok((jobs, next_id))
}

/// Point `entry` at the most advanced valid snapshot in `dir` (parked), or
/// back to queued when none exists.
fn restore_progress(dir: &std::path::Path, entry: &mut Entry) {
    let mut best: Option<(u8, u64, FlowSnapshot)> = None;
    if let Ok(read) = std::fs::read_dir(dir) {
        for file in read.flatten() {
            let path = file.path();
            if path.extension().is_none_or(|e| e != "snap") {
                continue;
            }
            if let Ok(snapshot) = SnapshotStore::load(&path) {
                let (phase, pass) = snapshot_rank(&snapshot);
                if best
                    .as_ref()
                    .is_none_or(|(bp, bs, _)| (phase, pass) > (*bp, *bs))
                {
                    best = Some((phase, pass, snapshot));
                }
            }
        }
    }
    match best {
        Some((_, _, snapshot)) => {
            entry.state = JobState::Parked;
            entry.snapshot = Some(snapshot);
        }
        None => entry.state = JobState::Queued,
    }
}

/// What one slice produced, applied to the job table under the lock.
enum SliceOutcome {
    Complete { text: String },
    Parked { snapshot: FlowSnapshot },
    Failed { error: String },
}

struct SliceOutput {
    outcome: SliceOutcome,
    vectors: u64,
    totals: MetricTotals,
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, spec, snapshot, slice_index) = {
            let mut state = shared.state.lock().expect("server state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(picked) = pick(&mut state) {
                    break picked;
                }
                state = shared.work.wait(state).expect("server state poisoned");
            }
        };
        let output = run_slice(&shared.cfg, id, &spec, snapshot, slice_index);
        {
            let mut state = shared.state.lock().expect("server state poisoned");
            apply(&shared.cfg, &mut state, id, output);
            shared.idle.notify_all();
            shared.work.notify_all();
        }
    }
}

/// Pick the next job to run: round-robin over runnable tenants, FIFO
/// within a tenant. Marks the job running and updates the fairness
/// accounting. Must be called under the state lock.
fn pick(state: &mut State) -> Option<(u64, JobSpec, Option<FlowSnapshot>, u64)> {
    let runnable_job = |state: &State, tenant: &str| -> Option<u64> {
        state
            .jobs
            .iter()
            .find(|(_, e)| {
                e.spec.tenant == tenant
                    && matches!(e.state, JobState::Queued | JobState::Parked)
                    && !e.cancel
            })
            .map(|(id, _)| *id)
    };
    let runnable: Vec<String> = state
        .ring
        .iter()
        .filter(|name| {
            let tenant = &state.tenants[name.as_str()];
            tenant.running < tenant.quota.max_concurrent && runnable_job(state, name).is_some()
        })
        .cloned()
        .collect();
    if runnable.is_empty() {
        return None;
    }
    let n = state.ring.len();
    let chosen_idx = (0..n)
        .map(|off| (state.rr + off) % n)
        .find(|idx| runnable.contains(&state.ring[*idx]))
        .expect("a runnable tenant exists");
    let chosen = state.ring[chosen_idx].clone();
    state.rr = (chosen_idx + 1) % n;
    for name in &runnable {
        let tenant = state.tenants.get_mut(name).expect("tenant exists");
        if *name == chosen {
            tenant.waiting = 0;
        } else {
            tenant.waiting += 1;
            tenant.max_wait = tenant.max_wait.max(tenant.waiting);
        }
    }
    let id = runnable_job(state, &chosen).expect("tenant was runnable");
    let entry = state.jobs.get_mut(&id).expect("job exists");
    entry.state = JobState::Running;
    let spec = entry.spec.clone();
    let snapshot = entry.snapshot.clone();
    let slice_index = entry.slices;
    let tenant = state.tenants.get_mut(&chosen).expect("tenant exists");
    tenant.running += 1;
    tenant.max_running = tenant.max_running.max(tenant.running as u64);
    Some((id, spec, snapshot, slice_index))
}

/// Run one slice of a job, outside the lock.
fn run_slice(
    cfg: &ServerConfig,
    id: u64,
    spec: &JobSpec,
    snapshot: Option<FlowSnapshot>,
    slice_index: u64,
) -> SliceOutput {
    let job_dir = cfg.job_dir(id);
    let base = if cfg.trace_jobs {
        ObsHandle::jsonl_file(&job_dir.join(format!("trace-{slice_index:03}.jsonl")))
            .unwrap_or_else(|_| ObsHandle::noop())
    } else {
        ObsHandle::noop()
    };
    let (obs, collector) = base.with_collector();
    let rcfg = ResilientConfig {
        flow: spec.flow_config(obs),
        budget: RunBudget {
            max_checkpoints: (cfg.slice_checkpoints > 0).then_some(cfg.slice_checkpoints),
            ..RunBudget::default()
        },
        snapshots: Some(SnapshotStore::new(&job_dir)),
    };
    let result = match snapshot {
        Some(snapshot) => resume_flow(&snapshot, &rcfg).map_err(|e| e.to_string()),
        None => start_flow(spec, &rcfg),
    };
    let outcome = match result {
        Ok(FlowOutcome::Complete(run)) => match result_text(spec, &run) {
            Ok(text) => {
                let store = SnapshotStore::new(&job_dir);
                match store.save_text("result.txt", &text) {
                    Ok(_) => SliceOutcome::Complete { text },
                    // The result text survives in memory; the job will be
                    // re-run from its snapshots after a restart, which is
                    // honest about what is durable.
                    Err(e) => {
                        eprintln!("serve: cannot persist result for job {id}: {e}");
                        SliceOutcome::Complete { text }
                    }
                }
            }
            Err(error) => SliceOutcome::Failed { error },
        },
        Ok(FlowOutcome::Partial { snapshot, .. }) => SliceOutcome::Parked { snapshot },
        Err(error) => SliceOutcome::Failed { error },
    };
    SliceOutput {
        outcome,
        vectors: collector.counter(Metric::VectorsSimulated),
        totals: MetricTotals::from_collector(&collector),
    }
}

/// First slice of a job: enter the right resilient driver from scratch.
fn start_flow(spec: &JobSpec, rcfg: &ResilientConfig) -> Result<FlowOutcome<ResilientRun>, String> {
    let circuit = spec.resolve_circuit()?;
    match spec.kind {
        JobKind::Generate => run_generation_resilient(&circuit, rcfg).map_err(|e| e.to_string()),
        JobKind::Translate => run_translation_resilient(&circuit, rcfg).map_err(|e| e.to_string()),
        JobKind::Compact => {
            let text = spec
                .program
                .as_deref()
                .ok_or("compact jobs need a program")?;
            let sequence = parse_program(text).map_err(|e| e.to_string())?;
            run_compaction_resilient(&circuit, &sequence, rcfg).map_err(|e| e.to_string())
        }
    }
}

/// The tester program text a completed run serves as its result.
fn result_text(spec: &JobSpec, run: &ResilientRun) -> Result<String, String> {
    let circuit = spec.resolve_circuit()?;
    let sc = match spec.kind {
        JobKind::Translate => ScanCircuit::insert(&circuit),
        JobKind::Generate | JobKind::Compact => ScanCircuit::insert_chains(&circuit, spec.chains),
    };
    Ok(write_program(sc.circuit(), &run.sequence))
}

/// Apply a finished slice to the job table. Must be called under the lock.
fn apply(cfg: &ServerConfig, state: &mut State, id: u64, output: SliceOutput) {
    let entry = state.jobs.get_mut(&id).expect("job exists");
    entry.slices += 1;
    entry.totals.merge(&output.totals);
    let tenant_name = entry.spec.tenant.clone();
    match output.outcome {
        SliceOutcome::Complete { text } => {
            entry.state = JobState::Complete;
            entry.result = Some(text);
            entry.snapshot = None;
            persist_meta(cfg, id, entry);
        }
        SliceOutcome::Parked { snapshot } => {
            if entry.cancel {
                entry.state = JobState::Cancelled;
            } else {
                entry.state = JobState::Parked;
                entry.snapshot = Some(snapshot);
            }
            persist_meta(cfg, id, entry);
        }
        SliceOutcome::Failed { error } => {
            entry.state = JobState::Failed;
            entry.error = Some(error);
            persist_meta(cfg, id, entry);
        }
    }
    let tenant = state.tenants.get_mut(&tenant_name).expect("tenant exists");
    tenant.running -= 1;
    tenant.vectors += output.vectors;
    tenant.totals.merge(&output.totals);
}

/// Run a spec directly (no server, no budget): the reference result every
/// served job must match byte for byte. Used by the proof suites.
///
/// # Errors
///
/// Any validation or flow error, as a string.
pub fn run_direct(spec: &JobSpec) -> Result<String, String> {
    spec.validate()?;
    let rcfg = ResilientConfig {
        // The exact flow config a served slice uses (modulo observability),
        // or the comparison would be against a different experiment.
        flow: spec.flow_config(ObsHandle::noop()),
        ..ResilientConfig::default()
    };
    match start_flow(spec, &rcfg)? {
        FlowOutcome::Complete(run) => result_text(spec, &run),
        FlowOutcome::Partial { .. } => Err("unlimited run stopped early".into()),
    }
}
