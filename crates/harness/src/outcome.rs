//! Typed result of a budget-aware flow run.

use std::path::PathBuf;

use crate::budget::StopReason;
use crate::snapshot::FlowSnapshot;

/// What a resilient flow run produced: either the finished artifact, or a
/// typed partial result carrying the reason the run stopped and the
/// checkpoint to resume from. Budget trips, cancellations, and injected
/// failures all surface here — never as a panic or a silently truncated
/// result.
// `Partial` dwarfs `Complete(T)` for small `T` (the snapshot embeds the
// circuit), but outcomes are transient results inspected once, never stored
// in bulk, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum FlowOutcome<T> {
    /// The flow ran to completion.
    Complete(T),
    /// The flow stopped early at a safe boundary.
    Partial {
        /// Why the run stopped.
        reason: StopReason,
        /// The state at the boundary the run stopped at; resuming from it
        /// reproduces the uninterrupted run bit-identically.
        snapshot: FlowSnapshot,
        /// Where the snapshot was persisted, when a
        /// [`SnapshotStore`](crate::SnapshotStore) was configured and the
        /// write succeeded.
        path: Option<PathBuf>,
    },
}

impl<T> FlowOutcome<T> {
    /// Whether the flow ran to completion.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, FlowOutcome::Complete(_))
    }

    /// Maps the completed artifact; a partial outcome passes through.
    #[must_use]
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> FlowOutcome<U> {
        match self {
            FlowOutcome::Complete(t) => FlowOutcome::Complete(f(t)),
            FlowOutcome::Partial {
                reason,
                snapshot,
                path,
            } => FlowOutcome::Partial {
                reason,
                snapshot,
                path,
            },
        }
    }

    /// Unwrap the completed artifact.
    ///
    /// # Panics
    ///
    /// Panics when the outcome is [`FlowOutcome::Partial`], naming the stop
    /// reason.
    #[must_use]
    pub fn into_complete(self) -> T {
        match self {
            FlowOutcome::Complete(t) => t,
            FlowOutcome::Partial { reason, .. } => {
                panic!("flow stopped early ({reason}); expected a complete run")
            }
        }
    }
}
