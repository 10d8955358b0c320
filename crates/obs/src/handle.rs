//! The emission side: [`ObsHandle`], [`SpanGuard`], and the [`Sink`] trait.
//!
//! An `ObsHandle` carries an optional shared sink list plus the id of the
//! span it is scoped under. A handle without a sink is a no-op: every
//! emission method costs one branch on the missing sink list.

use crate::collector::MetricsCollector;
use crate::event::{Event, Metric, SpanKind};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Destination for trace events. Implementations must tolerate concurrent
/// calls: spans and counters are emitted from simulation worker threads.
pub trait Sink: Send + Sync {
    /// Record one event. Called in emission order per thread; cross-thread
    /// interleaving is unspecified (single-threaded runs are deterministic).
    fn record(&self, event: &Event);
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Inner {
    sinks: Vec<Arc<dyn Sink>>,
}

impl Inner {
    fn emit(&self, event: &Event) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

/// A cheap, cloneable handle through which instrumented code emits spans,
/// counters, gauges, and detection-profile points.
///
/// A handle is *scoped*: events it emits are attributed to the span it was
/// derived from (via [`SpanGuard::handle`]), or to no span for a fresh
/// handle. The default handle is a no-op.
#[derive(Clone, Default)]
pub struct ObsHandle {
    inner: Option<Arc<Inner>>,
    parent: u64,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_enabled() {
            f.write_str("ObsHandle(enabled)")
        } else {
            f.write_str("ObsHandle(noop)")
        }
    }
}

impl ObsHandle {
    /// A handle that drops every event. Identical to `ObsHandle::default()`.
    #[must_use]
    pub fn noop() -> Self {
        Self::default()
    }

    /// A root handle emitting to one sink.
    #[must_use]
    pub fn from_sink(sink: Arc<dyn Sink>) -> Self {
        Self::from_sinks(vec![sink])
    }

    /// A root handle emitting to several sinks at once.
    #[must_use]
    pub fn from_sinks(sinks: Vec<Arc<dyn Sink>>) -> Self {
        ObsHandle {
            inner: Some(Arc::new(Inner { sinks })),
            parent: 0,
        }
    }

    /// Derive a handle that also feeds a fresh in-memory collector, keeping
    /// this handle's sinks and span scope. This is how flows attach their
    /// internal [`MetricsCollector`] while still honouring a user-supplied
    /// trace sink.
    #[must_use]
    pub fn with_collector(&self) -> (ObsHandle, MetricsCollector) {
        let collector = MetricsCollector::default();
        let mut sinks: Vec<Arc<dyn Sink>> = match &self.inner {
            Some(inner) => inner.sinks.clone(),
            None => Vec::new(),
        };
        sinks.push(Arc::new(collector.clone()));
        let handle = ObsHandle {
            inner: Some(Arc::new(Inner { sinks })),
            parent: self.parent,
        };
        (handle, collector)
    }

    /// Whether events emitted through this handle reach a sink. Use this to
    /// skip argument preparation that is itself costly (formatting,
    /// timestamping) — the emission methods are already no-ops when false.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span with ordinal 0. The span closes when the guard drops.
    #[inline]
    pub fn span(&self, kind: SpanKind, label: &'static str) -> SpanGuard {
        self.span_indexed(kind, label, 0)
    }

    /// Open a span carrying an ordinal payload (pass/trial/batch number).
    #[inline]
    pub fn span_indexed(&self, kind: SpanKind, label: &'static str, index: u64) -> SpanGuard {
        if let Some(inner) = &self.inner {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let t_us = epoch().elapsed().as_micros() as u64;
            inner.emit(&Event::SpanBegin {
                id,
                parent: self.parent,
                kind,
                label,
                index,
                t_us,
            });
            return SpanGuard {
                handle: ObsHandle {
                    inner: Some(Arc::clone(inner)),
                    parent: id,
                },
                id,
                start: Instant::now(),
            };
        }
        // Inert guard: reuse the static epoch instead of reading the
        // clock for a span that will never be emitted.
        SpanGuard {
            handle: ObsHandle::default(),
            id: 0,
            start: epoch(),
        }
    }

    /// Emit a span that has already finished, with an explicit duration.
    /// Used for batch spans timed inside worker threads and emitted, in
    /// batch order, from the merging thread.
    #[inline]
    pub fn complete_span(&self, kind: SpanKind, label: &'static str, index: u64, dur_us: u64) {
        if let Some(inner) = &self.inner {
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let t_us = epoch().elapsed().as_micros() as u64;
            inner.emit(&Event::SpanBegin {
                id,
                parent: self.parent,
                kind,
                label,
                index,
                t_us,
            });
            inner.emit(&Event::SpanEnd { id, dur_us });
        }
    }

    /// Increment a counter, attributed to this handle's span scope.
    #[inline]
    pub fn counter(&self, metric: Metric, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta > 0 {
                inner.emit(&Event::Counter {
                    span: self.parent,
                    metric,
                    delta,
                });
            }
        }
    }

    /// Record a gauge observation, attributed to this handle's span scope.
    #[inline]
    pub fn gauge(&self, metric: Metric, value: u64) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Gauge {
                span: self.parent,
                metric,
                value,
            });
        }
    }

    /// Emit one detection-profile point: `newly` faults first detected at
    /// simulated time `time`.
    #[inline]
    pub fn detect(&self, time: u32, newly: u32) {
        if let Some(inner) = &self.inner {
            if newly > 0 {
                inner.emit(&Event::Detect {
                    span: self.parent,
                    time,
                    newly,
                });
            }
        }
    }
    /// Emit a graceful-degradation notice: the unit of work named by
    /// `scope` (at ordinal `index`) was lost to a worker panic and replayed
    /// on a reference oracle. Healthy runs never emit this, which keeps
    /// clean golden traces byte-identical.
    #[inline]
    pub fn degrade(&self, scope: &'static str, index: u64) {
        if let Some(inner) = &self.inner {
            inner.emit(&Event::Degrade {
                span: self.parent,
                scope,
                index,
            });
        }
    }
}

/// RAII guard for an open span; emits the matching end event on drop.
///
/// On a no-op handle the guard is inert.
pub struct SpanGuard {
    handle: ObsHandle,
    id: u64,
    start: Instant,
}

impl SpanGuard {
    /// A handle scoped under this span: events emitted through it are
    /// attributed to this span, and spans opened through it become children.
    #[inline]
    #[must_use]
    pub fn handle(&self) -> &ObsHandle {
        &self.handle
    }

    /// Open a child span with ordinal 0.
    #[inline]
    pub fn child(&self, kind: SpanKind, label: &'static str) -> SpanGuard {
        self.handle.span(kind, label)
    }

    /// Open a child span carrying an ordinal payload.
    #[inline]
    pub fn child_indexed(&self, kind: SpanKind, label: &'static str, index: u64) -> SpanGuard {
        self.handle.span_indexed(kind, label, index)
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = &self.handle.inner {
            if self.id != 0 {
                inner.emit(&Event::SpanEnd {
                    id: self.id,
                    dur_us: self.start.elapsed().as_micros() as u64,
                });
            }
        }
    }
}
