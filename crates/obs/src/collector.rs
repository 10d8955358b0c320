//! In-memory metrics collector sink.

use crate::event::{Event, Metric};
use crate::handle::Sink;

use std::sync::{Arc, Mutex};

#[derive(Default)]
struct State {
    events: Vec<Event>,
    counters: [u64; Metric::ALL.len()],
    gauge_max: [u64; Metric::ALL.len()],
}

/// A thread-safe sink that accumulates counter totals, gauge maxima, and the
/// full event log in memory.
///
/// Cloning is cheap and clones share state.
#[derive(Clone, Default)]
pub struct MetricsCollector {
    state: Arc<Mutex<State>>,
}

impl std::fmt::Debug for MetricsCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsCollector(events={})", self.len())
    }
}

impl Sink for MetricsCollector {
    fn record(&self, event: &Event) {
        let mut state = self.state.lock().expect("collector poisoned");
        match *event {
            Event::Counter { metric, delta, .. } => {
                state.counters[metric.index()] += delta;
            }
            Event::Gauge { metric, value, .. } => {
                let slot = &mut state.gauge_max[metric.index()];
                *slot = (*slot).max(value);
            }
            _ => {}
        }
        state.events.push(event.clone());
    }
}

impl MetricsCollector {
    /// Total accumulated for a counter (0 for gauges; use
    /// [`MetricsCollector::gauge_max`]).
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.state.lock().expect("collector poisoned").counters[metric.index()]
    }

    /// Maximum value observed for a gauge.
    #[must_use]
    pub fn gauge_max(&self, metric: Metric) -> u64 {
        self.state.lock().expect("collector poisoned").gauge_max[metric.index()]
    }

    /// Snapshot of the full event log, in arrival order.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        self.state
            .lock()
            .expect("collector poisoned")
            .events
            .clone()
    }

    /// Number of events recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("collector poisoned").events.len()
    }

    /// True when no events have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(metric, total)` pairs for the thread-count-deterministic counters,
    /// in [`Metric::ALL`] order. Comparing these across runs with different
    /// `set_sim_threads` settings must yield identical vectors.
    #[must_use]
    pub fn deterministic_counters(&self) -> Vec<(Metric, u64)> {
        Metric::ALL
            .iter()
            .filter(|m| !m.is_gauge() && m.is_deterministic())
            .map(|m| (*m, self.counter(*m)))
            .collect()
    }

    /// Number of simulation-work events (vector/batch counters, batch spans,
    /// detection points). Zero for flows that fail validation before
    /// touching an engine — asserted by the negative-path tests.
    #[must_use]
    pub fn sim_event_count(&self) -> usize {
        self.events()
            .iter()
            .filter(|e| match e {
                Event::Counter { metric, .. } => {
                    matches!(metric, Metric::VectorsSimulated | Metric::BatchesSimulated)
                }
                Event::Detect { .. } => true,
                Event::SpanBegin { kind, .. } => *kind == crate::event::SpanKind::Batch,
                _ => false,
            })
            .count()
    }

    /// Number of graceful-degradation notices recorded. Healthy runs report
    /// zero; the chaos suite asserts it is positive after an absorbed panic.
    #[must_use]
    pub fn degrade_count(&self) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e, Event::Degrade { .. }))
            .count()
    }

    /// The merged detection-profile curve: `(time, newly)` pairs aggregated
    /// over every [`Event::Detect`] in the log, ascending in time.
    #[must_use]
    pub fn detection_profile(&self) -> Vec<(u32, u32)> {
        let mut acc: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
        for event in self.events() {
            if let Event::Detect { time, newly, .. } = event {
                *acc.entry(time).or_insert(0) += newly;
            }
        }
        acc.into_iter().collect()
    }
}
