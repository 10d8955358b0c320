//! Run budgets and the cooperative cancellation token.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for one flow run. Every field is a *floor at which the
/// next budget check stops the run*: work already performed when the limit
/// is crossed is kept (and checkpointed), never rolled back. `None` means
/// unlimited; the default budget is fully unlimited.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock limit, measured from [`CancelToken::new`].
    pub deadline: Option<Duration>,
    /// Maximum number of test vectors generated / re-simulated, as charged
    /// by the engines (ATPG charges sequence growth, compaction charges the
    /// sequence length each pass or episode re-simulates).
    pub max_vectors: Option<u64>,
    /// Maximum number of deterministic ATPG episodes.
    pub max_episodes: Option<u64>,
    /// Maximum number of pass-boundary checkpoints. Budgeting checkpoints
    /// is the deterministic interruption knob: `Some(k)` stops a flow at
    /// exactly its `k`-th pass boundary, which is how the resume-parity
    /// suite enumerates every interruption point.
    pub max_checkpoints: Option<u64>,
}

impl RunBudget {
    /// A budget with no limits (same as `RunBudget::default()`).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is `None`.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// Why a run stopped early. Carried by
/// [`FlowOutcome::Partial`](crate::FlowOutcome::Partial) and by every
/// budget-aware engine's error path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The wall-clock deadline elapsed.
    DeadlineExpired,
    /// The vector budget was exhausted.
    VectorBudget,
    /// The episode budget was exhausted.
    EpisodeBudget,
    /// The checkpoint budget was exhausted.
    CheckpointBudget,
}

impl StopReason {
    /// Stable lowercase description, used in CLI output and logs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExpired => "deadline expired",
            StopReason::VectorBudget => "vector budget exhausted",
            StopReason::EpisodeBudget => "episode budget exhausted",
            StopReason::CheckpointBudget => "checkpoint budget exhausted",
        }
    }

    fn code(self) -> u8 {
        match self {
            StopReason::Cancelled => 1,
            StopReason::DeadlineExpired => 2,
            StopReason::VectorBudget => 3,
            StopReason::EpisodeBudget => 4,
            StopReason::CheckpointBudget => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(StopReason::Cancelled),
            2 => Some(StopReason::DeadlineExpired),
            3 => Some(StopReason::VectorBudget),
            4 => Some(StopReason::EpisodeBudget),
            5 => Some(StopReason::CheckpointBudget),
            _ => None,
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

struct Inner {
    budget: RunBudget,
    start: Instant,
    cancelled: AtomicBool,
    vectors: AtomicU64,
    episodes: AtomicU64,
    checkpoints: AtomicU64,
    /// First reason that tripped, as `StopReason::code()`; 0 = none.
    /// Latched once so every later check reports the same reason, keeping
    /// the stop deterministic even when the deadline keeps receding.
    latched: AtomicU8,
}

/// Shared, cloneable budget enforcement token.
///
/// Engines charge work (`charge_*`) and consult [`check`](Self::check) at
/// their episode and wave boundaries; flows call
/// [`pass_boundary`](Self::pass_boundary) between passes. The first limit
/// crossed is latched as the token's [`StopReason`]. Nothing stops a fault
/// simulation extension midway: a tripped budget takes effect at the next
/// boundary check.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CancelToken(vectors={}, episodes={}, checkpoints={}, latched={:?})",
            self.vectors(),
            self.episodes(),
            self.checkpoints(),
            self.latched()
        )
    }
}

impl CancelToken {
    /// A token enforcing `budget`, with the deadline clock starting now.
    #[must_use]
    pub fn new(budget: RunBudget) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                budget,
                start: Instant::now(),
                cancelled: AtomicBool::new(false),
                vectors: AtomicU64::new(0),
                episodes: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
                latched: AtomicU8::new(0),
            }),
        }
    }

    /// A token that never trips on its own (explicit
    /// [`cancel`](Self::cancel) still works).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::new(RunBudget::unlimited())
    }

    /// Request cancellation. The next [`check`](Self::check) returns
    /// [`StopReason::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Charge `n` test vectors against the vector budget.
    pub fn charge_vectors(&self, n: u64) {
        self.inner.vectors.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` ATPG episodes against the episode budget.
    pub fn charge_episodes(&self, n: u64) {
        self.inner.episodes.fetch_add(n, Ordering::Relaxed);
    }

    /// Charge `n` pass-boundary checkpoints against the checkpoint budget.
    pub fn charge_checkpoints(&self, n: u64) {
        self.inner.checkpoints.fetch_add(n, Ordering::Relaxed);
    }

    /// Vectors charged so far.
    #[must_use]
    pub fn vectors(&self) -> u64 {
        self.inner.vectors.load(Ordering::Relaxed)
    }

    /// Episodes charged so far.
    #[must_use]
    pub fn episodes(&self) -> u64 {
        self.inner.episodes.load(Ordering::Relaxed)
    }

    /// Checkpoints charged so far.
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.inner.checkpoints.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the token was created.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// The latched stop reason, if the token has tripped.
    #[must_use]
    pub fn latched(&self) -> Option<StopReason> {
        StopReason::from_code(self.inner.latched.load(Ordering::Acquire))
    }

    fn trip(&self, reason: StopReason) {
        let _ = self.inner.latched.compare_exchange(
            0,
            reason.code(),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Budget check, called by engines at episode / wave / pass boundaries.
    ///
    /// # Errors
    ///
    /// Returns the (latched) [`StopReason`] once any limit has been
    /// crossed; the same reason is reported by every subsequent check.
    pub fn check(&self) -> Result<(), StopReason> {
        if let Some(reason) = self.latched() {
            return Err(reason);
        }
        let b = &self.inner.budget;
        let reason = if self.inner.cancelled.load(Ordering::Acquire) {
            Some(StopReason::Cancelled)
        } else if b.deadline.is_some_and(|d| self.inner.start.elapsed() >= d) {
            Some(StopReason::DeadlineExpired)
        } else if b
            .max_vectors
            .is_some_and(|m| self.inner.vectors.load(Ordering::Relaxed) >= m)
        {
            Some(StopReason::VectorBudget)
        } else if b
            .max_episodes
            .is_some_and(|m| self.inner.episodes.load(Ordering::Relaxed) >= m)
        {
            Some(StopReason::EpisodeBudget)
        } else if b
            .max_checkpoints
            .is_some_and(|m| self.inner.checkpoints.load(Ordering::Relaxed) >= m)
        {
            Some(StopReason::CheckpointBudget)
        } else {
            None
        };
        match reason {
            Some(r) => {
                self.trip(r);
                Err(r)
            }
            None => Ok(()),
        }
    }

    /// Pass-boundary check: charges one checkpoint, consults the injected
    /// deadline plan ([`crate::fail`], fail-inject builds only), and runs
    /// the full budget check.
    ///
    /// # Errors
    ///
    /// Returns the latched [`StopReason`] when any limit has been crossed.
    pub fn pass_boundary(&self) -> Result<(), StopReason> {
        self.charge_checkpoints(1);
        if crate::fail::deadline_boundary_tripped() {
            self.trip(StopReason::DeadlineExpired);
        }
        self.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_token_never_trips() {
        let ctl = CancelToken::unlimited();
        ctl.charge_vectors(1_000_000);
        ctl.charge_episodes(1_000_000);
        assert_eq!(ctl.check(), Ok(()));
        assert_eq!(ctl.pass_boundary(), Ok(()));
        assert!(ctl.latched().is_none());
    }

    #[test]
    fn vector_budget_trips_and_latches() {
        let ctl = CancelToken::new(RunBudget {
            max_vectors: Some(10),
            ..RunBudget::default()
        });
        ctl.charge_vectors(9);
        assert_eq!(ctl.check(), Ok(()));
        ctl.charge_vectors(1);
        assert_eq!(ctl.check(), Err(StopReason::VectorBudget));
        // Latched: a later, different condition does not change the reason.
        ctl.cancel();
        assert_eq!(ctl.check(), Err(StopReason::VectorBudget));
    }

    #[test]
    fn checkpoint_budget_counts_pass_boundaries() {
        let ctl = CancelToken::new(RunBudget {
            max_checkpoints: Some(2),
            ..RunBudget::default()
        });
        assert_eq!(ctl.pass_boundary(), Ok(()));
        assert_eq!(ctl.pass_boundary(), Err(StopReason::CheckpointBudget));
        assert_eq!(ctl.checkpoints(), 2);
    }

    #[test]
    fn explicit_cancel_stops_the_next_check() {
        let ctl = CancelToken::unlimited();
        assert_eq!(ctl.check(), Ok(()));
        ctl.cancel();
        assert_eq!(ctl.check(), Err(StopReason::Cancelled));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let ctl = CancelToken::new(RunBudget {
            deadline: Some(Duration::from_secs(0)),
            ..RunBudget::default()
        });
        assert_eq!(ctl.check(), Err(StopReason::DeadlineExpired));
    }
}
