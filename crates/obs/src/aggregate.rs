//! Plain-data aggregation of metric totals across collectors.
//!
//! A job daemon observes each job slice through its own
//! [`MetricsCollector`], but reports per-job and per-tenant rollups long
//! after the slice's collector is gone. [`MetricTotals`] is the carrier:
//! a cheap, cloneable value type holding counter sums and gauge maxima
//! that can absorb a collector's state and merge with other totals.
//!
//! Unlike the collector it holds no event log and no locks, so totals can
//! be persisted, summed per tenant, and serialized into wire responses.

use crate::collector::MetricsCollector;
use crate::event::Metric;

/// Counter sums and gauge maxima over any number of absorbed collectors
/// or merged totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricTotals {
    counters: [u64; Metric::ALL.len()],
    gauge_max: [u64; Metric::ALL.len()],
    degrades: u64,
}

impl MetricTotals {
    /// All-zero totals.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Totals capturing a single collector's current state.
    #[must_use]
    pub fn from_collector(collector: &MetricsCollector) -> Self {
        let mut totals = Self::new();
        totals.absorb(collector);
        totals
    }

    /// Add a collector's current state into these totals: counters sum,
    /// gauges take the maximum.
    pub fn absorb(&mut self, collector: &MetricsCollector) {
        for metric in Metric::ALL {
            let i = metric.index();
            if metric.is_gauge() {
                self.gauge_max[i] = self.gauge_max[i].max(collector.gauge_max(metric));
            } else {
                self.counters[i] += collector.counter(metric);
            }
        }
        self.degrades += collector.degrade_count() as u64;
    }

    /// Merge another totals value into this one (counters sum, gauges max).
    pub fn merge(&mut self, other: &MetricTotals) {
        for i in 0..Metric::ALL.len() {
            self.counters[i] += other.counters[i];
            self.gauge_max[i] = self.gauge_max[i].max(other.gauge_max[i]);
        }
        self.degrades += other.degrades;
    }

    /// Total accumulated for a counter metric (0 for gauges).
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters[metric.index()]
    }

    /// Maximum observed for a gauge metric (0 for counters).
    #[must_use]
    pub fn gauge_max(&self, metric: Metric) -> u64 {
        self.gauge_max[metric.index()]
    }

    /// Number of graceful-degradation notices absorbed.
    #[must_use]
    pub fn degrade_count(&self) -> u64 {
        self.degrades
    }

    /// True when every counter, gauge, and degrade total is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.degrades == 0
            && self.counters.iter().all(|&v| v == 0)
            && self.gauge_max.iter().all(|&v| v == 0)
    }

    /// `(name, value, is_gauge)` triples for every nonzero metric, in
    /// [`Metric::ALL`] order — the shape the daemon's `metrics` verb
    /// serializes.
    #[must_use]
    pub fn nonzero(&self) -> Vec<(&'static str, u64, bool)> {
        Metric::ALL
            .iter()
            .filter_map(|m| {
                let (value, gauge) = if m.is_gauge() {
                    (self.gauge_max[m.index()], true)
                } else {
                    (self.counters[m.index()], false)
                };
                (value != 0).then_some((m.name(), value, gauge))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_totals_report_zero() {
        let totals = MetricTotals::new();
        assert!(totals.is_zero());
        assert!(totals.nonzero().is_empty());
        assert_eq!(totals.counter(Metric::VectorsSimulated), 0);
    }

    #[test]
    fn absorb_and_merge_sum_counters_and_max_gauges() {
        use crate::event::SpanKind;
        use crate::handle::ObsHandle;

        let (handle_a, coll_a) = ObsHandle::noop().with_collector();
        let span = handle_a.span(SpanKind::Flow, "a");
        span.handle().counter(Metric::VectorsSimulated, 10);
        span.handle().gauge(Metric::SimThreads, 4);
        span.handle().degrade("io", 1);
        drop(span);

        let (handle_b, coll_b) = ObsHandle::noop().with_collector();
        let span = handle_b.span(SpanKind::Flow, "b");
        span.handle().counter(Metric::VectorsSimulated, 5);
        span.handle().gauge(Metric::SimThreads, 2);
        drop(span);

        let mut tenant = MetricTotals::from_collector(&coll_a);
        tenant.merge(&MetricTotals::from_collector(&coll_b));

        assert_eq!(tenant.counter(Metric::VectorsSimulated), 15);
        assert_eq!(tenant.gauge_max(Metric::SimThreads), 4);
        assert_eq!(tenant.degrade_count(), 1);
        assert!(!tenant.is_zero());
        let names: Vec<_> = tenant.nonzero().iter().map(|(n, _, _)| *n).collect();
        assert!(names.contains(&"vectors_simulated"));
        assert!(names.contains(&"sim_threads"));
    }
}
