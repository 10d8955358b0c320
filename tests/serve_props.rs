//! Property suite for the `limscan serve` scheduler.
//!
//! The daemon's contract is strong: whatever the schedule — however many
//! tenants, workers, and checkpoint-budget slices a job is chopped into —
//! every admitted job terminates `Complete` with a result byte-identical
//! to a solo, unbudgeted run of the same spec, and the per-tenant quota
//! and fairness invariants hold at all times. This suite drives random
//! schedules through an in-process [`Server`] and checks exactly that,
//! plus deterministic probes of each admission quota and of a clean
//! shutdown/restart cycle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use limscan::obs::Metric;
use limscan_serve::{run_direct, JobKind, JobSpec, JobState, Server, ServerConfig, TenantQuota};

/// A fresh scratch directory per call (tests and proptest cases run
/// concurrently, so a tag alone is not unique enough).
fn scratch(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "limscan-serve-props-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The solo reference result for `spec`, cached across cases. The tenant
/// name cannot influence the flow, so it is normalized out of the key.
fn direct_cached(spec: &JobSpec) -> String {
    static CACHE: OnceLock<Mutex<HashMap<String, String>>> = OnceLock::new();
    let key = JobSpec {
        tenant: "any".into(),
        ..spec.clone()
    }
    .to_json()
    .render();
    let cache = CACHE.get_or_init(Mutex::default);
    if let Some(hit) = cache.lock().unwrap().get(&key) {
        return hit.clone();
    }
    let text = run_direct(spec).expect("reference run completes");
    cache.lock().unwrap().insert(key, text.clone());
    text
}

/// A compactable input program: the solo generation result for s27.
fn compact_input() -> String {
    direct_cached(&JobSpec::default())
}

/// The `j`-th job of a schedule: tenant by round-robin, kind and seed from
/// the generated pair.
fn spec_for(tenant: usize, kind: usize, seed: u64) -> JobSpec {
    let kind = [JobKind::Generate, JobKind::Translate, JobKind::Compact][kind % 3];
    JobSpec {
        tenant: format!("t{tenant}"),
        kind,
        program: (kind == JobKind::Compact).then(compact_input),
        seed,
        ..JobSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random schedules over (tenants × kinds × seeds × slice budgets ×
    /// worker counts): every job must end `Complete` with the solo
    /// result, and the quota/fairness accounting must respect its bounds.
    #[test]
    fn random_schedules_complete_every_job_with_solo_identical_results(
        tenants in 1usize..4,
        workers in 1usize..4,
        slice in 0u64..3,
        jobs in proptest::collection::vec((0usize..3, 0u64..3), 1..9),
    ) {
        let dir = scratch("sched");
        let cfg = ServerConfig {
            workers,
            slice_checkpoints: slice,
            ..ServerConfig::new(&dir)
        };
        let server = Server::start(cfg).expect("server starts");
        let mut submitted = Vec::new();
        for (j, (kind, seed)) in jobs.iter().enumerate() {
            let spec = spec_for(j % tenants, *kind, *seed);
            let id = server.submit(spec.clone()).expect("under quota");
            submitted.push((id, spec));
        }
        server.drain();

        for (id, spec) in &submitted {
            let status = server.status(*id).expect("job known");
            prop_assert_eq!(status.state, JobState::Complete, "job {} not complete", id);
            // With a positive checkpoint budget the flow has several
            // boundaries, so the job must actually have been time-sliced.
            if slice > 0 {
                prop_assert!(status.slices > 1, "job {} was never preempted", id);
            }
            let text = server.result_text(*id).expect("complete job has a result");
            prop_assert_eq!(text, direct_cached(spec), "job {} diverged from its solo run", id);
        }

        let report = server.metrics();
        let ring = report.tenants.len() as u64;
        for tenant in &report.tenants {
            prop_assert!(
                tenant.max_running <= workers as u64,
                "tenant {} exceeded the worker pool", tenant.tenant
            );
            prop_assert!(
                tenant.max_running <= TenantQuota::default().max_concurrent as u64,
                "tenant {} exceeded its concurrency quota", tenant.tenant
            );
            // Round-robin bound: a continuously runnable tenant is passed
            // over at most once per other tenant before its next slice.
            prop_assert!(
                tenant.max_wait < ring.max(1),
                "tenant {} waited {} dispatches with only {} tenants",
                tenant.tenant, tenant.max_wait, ring
            );
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn queue_quota_rejects_the_excess_job_per_tenant() {
    let dir = scratch("quota-queue");
    let cfg = ServerConfig {
        workers: 1,
        quota: TenantQuota {
            max_queued: 2,
            ..TenantQuota::default()
        },
        ..ServerConfig::new(&dir)
    };
    let server = Server::start(cfg).expect("server starts");
    // Slow enough that neither job can reach a terminal state while the
    // submissions below race the single worker.
    let slow = JobSpec {
        circuit: "s298".into(),
        max_faults: 96,
        ..JobSpec::default()
    };
    server.submit(slow.clone()).expect("first fits");
    server.submit(slow.clone()).expect("second fits");
    let err = server
        .submit(slow.clone())
        .expect_err("third exceeds the quota");
    assert!(err.contains("queue quota"), "unexpected rejection: {err}");
    // Quotas are per tenant: another tenant still gets in.
    server
        .submit(JobSpec {
            tenant: "other".into(),
            ..slow
        })
        .expect("fresh tenant has a fresh quota");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn vector_quota_rejects_new_work_once_exhausted() {
    let dir = scratch("quota-vectors");
    let cfg = ServerConfig {
        quota: TenantQuota {
            max_vectors: Some(1),
            ..TenantQuota::default()
        },
        ..ServerConfig::new(&dir)
    };
    let server = Server::start(cfg).expect("server starts");
    // The first job is admitted (no vectors charged yet) and must still
    // run to completion: the budget gates admission, not execution.
    let id = server.submit(JobSpec::default()).expect("budget untouched");
    server.drain();
    assert_eq!(server.status(id).expect("known").state, JobState::Complete);
    let report = server.metrics();
    let tenant = &report.tenants[0];
    assert!(
        tenant.vectors > 1,
        "an s27 generation simulates more than one vector"
    );
    let err = server
        .submit(JobSpec::default())
        .expect_err("budget exhausted");
    assert!(err.contains("vector budget"), "unexpected rejection: {err}");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_job_goes_terminal_and_frees_its_queue_slot() {
    let dir = scratch("cancel");
    let cfg = ServerConfig {
        workers: 1,
        quota: TenantQuota {
            max_queued: 1,
            ..TenantQuota::default()
        },
        ..ServerConfig::new(&dir)
    };
    let server = Server::start(cfg).expect("server starts");
    let id = server
        .submit(JobSpec {
            circuit: "s298".into(),
            max_faults: 96,
            ..JobSpec::default()
        })
        .expect("fits");
    server
        .submit(JobSpec::default())
        .expect_err("queue quota of one is full");
    server.cancel(id).expect("job known");
    server.drain();
    let status = server.status(id).expect("known");
    assert_eq!(status.state, JobState::Cancelled);
    assert!(
        server.result_text(id).is_err(),
        "cancelled jobs have no result"
    );
    // The cancelled job no longer counts against the quota.
    let id2 = server.submit(JobSpec::default()).expect("slot freed");
    server.drain();
    assert_eq!(server.status(id2).expect("known").state, JobState::Complete);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One worker thread runs a generation on scan-inserted s382 and then a
/// translation of b10, whose `[26]` baseline simulates bare b10: the
/// thread's kernel scratch switches to a circuit with as many value slots
/// and more nets. Both results match their solo runs, and neither job
/// reports a degraded batch. The baseline's scan-set compaction runs its
/// fault simulator without the job's observability handle, so a batch
/// degraded there (on bare b10) would not show in these totals.
#[test]
fn one_worker_switching_circuits_matches_solo_runs() {
    let dir = scratch("switch");
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::new(&dir)
    };
    let server = Server::start(cfg).expect("server starts");
    let specs = [
        JobSpec {
            circuit: "s382".into(),
            ..JobSpec::default()
        },
        JobSpec {
            kind: JobKind::Translate,
            circuit: "b10".into(),
            ..JobSpec::default()
        },
    ];
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| server.submit(spec.clone()).expect("under quota"))
        .collect();
    server.drain();
    let report = server.metrics();
    for (&id, spec) in ids.iter().zip(&specs) {
        assert_eq!(server.status(id).expect("known").state, JobState::Complete);
        assert_eq!(
            server.result_text(id).expect("result"),
            run_direct(spec).expect("solo run completes"),
            "job {id} diverged from its solo run"
        );
        let job = report
            .jobs
            .iter()
            .find(|j| j.id == id)
            .expect("job metrics");
        assert!(
            job.totals.counter(Metric::VectorsSimulated) > 0,
            "job {id} unobserved"
        );
        assert_eq!(job.totals.counter(Metric::DegradedBatches), 0, "job {id}");
        assert_eq!(job.totals.degrade_count(), 0, "job {id}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_and_restart_resumes_every_job_bit_identically() {
    let dir = scratch("restart");
    let specs: Vec<JobSpec> = vec![
        JobSpec::default(),
        JobSpec {
            tenant: "bravo".into(),
            kind: JobKind::Translate,
            ..JobSpec::default()
        },
        JobSpec {
            tenant: "carol".into(),
            kind: JobKind::Compact,
            program: Some(compact_input()),
            ..JobSpec::default()
        },
        JobSpec {
            tenant: "bravo".into(),
            seed: 9,
            ..JobSpec::default()
        },
    ];
    {
        let cfg = ServerConfig {
            workers: 2,
            slice_checkpoints: 1,
            ..ServerConfig::new(&dir)
        };
        let server = Server::start(cfg).expect("server starts");
        for spec in &specs {
            server.submit(spec.clone()).expect("under quota");
        }
        // Let some slices land, then stop without draining: running
        // slices park, everything else stays queued on disk.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(server);
    }
    {
        let cfg = ServerConfig {
            workers: 2,
            slice_checkpoints: 1,
            ..ServerConfig::new(&dir)
        };
        let server = Server::start(cfg).expect("server recovers");
        assert_eq!(
            server.list().len(),
            specs.len(),
            "a job was lost across restart"
        );
        server.drain();
        for (i, spec) in specs.iter().enumerate() {
            let id = i as u64 + 1;
            assert_eq!(
                server.status(id).expect("known").state,
                JobState::Complete,
                "job {id} did not complete after restart"
            );
            assert_eq!(
                server.result_text(id).expect("result"),
                direct_cached(spec),
                "job {id} diverged from its solo run after restart"
            );
        }
        drop(server);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
