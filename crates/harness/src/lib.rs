//! Resilient-execution harness for long-running limscan flows.
//!
//! Test generation and compaction on large circuits can run for hours; this
//! crate provides the machinery that makes such runs interruptible and
//! restartable without sacrificing determinism:
//!
//! * [`RunBudget`] / [`CancelToken`] — wall-clock deadlines and work quotas
//!   (vectors, episodes, checkpoints) enforced *cooperatively*: engines
//!   consult the token at episode / wave / pass boundaries, so a tripped
//!   budget never leaves half-applied state behind;
//! * [`StopReason`] — the typed explanation carried by every early stop;
//! * [`FlowSnapshot`] / [`SnapshotStore`] — versioned, checksummed,
//!   atomically-written checkpoints of a flow at a pass boundary, with
//!   enough state (test sequence, cursors, RNG words, embedded circuit) to
//!   resume bit-identically;
//! * [`FlowOutcome`] — `Complete(T)` or `Partial { reason, snapshot, .. }`,
//!   replacing panics and silent truncation with a typed result;
//! * [`FailPlan`] — deterministic fault injection (worker panics, snapshot
//!   I/O failures, early deadlines) for the chaos suite; a no-op unless the
//!   `fail-inject` feature is on.
//!
//! The flow drivers that thread all of this through ATPG and compaction
//! live in `limscan` (the core crate); this crate deliberately depends only
//! on the netlist and simulation layers so every engine above it can use
//! the same budget and snapshot types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
pub mod fail;
mod outcome;
mod snapshot;
mod store;

pub use budget::{CancelToken, RunBudget, StopReason};
pub use fail::{FailGuard, FailPlan, IoFailure};
pub use outcome::FlowOutcome;
pub use snapshot::{
    fnv64, AtpgCursor, FlowKind, FlowPhase, FlowSnapshot, OmitCursor, SnapshotError,
    SNAPSHOT_VERSION,
};
pub use store::SnapshotStore;
