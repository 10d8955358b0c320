//! # limscan-serve — a multi-tenant ATPG/compaction job daemon
//!
//! `limscan serve` turns the resilient flow drivers of the core crate into
//! a schedulable service: a job queue over a JSONL-on-Unix-socket wire
//! protocol ([`proto`]), N worker threads that time-slice long jobs via
//! checkpoint budgets ([`server`]), and a crash-safe state directory built
//! on the harness's atomic, fsynced [`SnapshotStore`] writes.
//!
//! The load-bearing property is inherited from the resume machinery:
//! resuming a flow from *any* pass-boundary snapshot is bit-identical to
//! running it uninterrupted. Preemptive fair scheduling therefore costs
//! nothing in correctness — a job sliced a hundred times across restarts
//! and SIGKILLs produces the exact test program a solo run would, which is
//! what the chaos, load, and property suites assert.
//!
//! This crate also owns the `limscan` CLI binary (`src/bin/limscan.rs`):
//! the daemon needs the core flows, so the binary lives above both.
//!
//! [`SnapshotStore`]: limscan::SnapshotStore

pub mod job;
pub mod proto;
pub mod server;
pub mod socket;

pub use job::{JobKind, JobMeta, JobSpec, JobState, JobStatus};
pub use limscan::obs::Json;
pub use server::{
    run_direct, JobMetrics, MetricsReport, Server, ServerConfig, TenantMetrics, TenantQuota,
};
