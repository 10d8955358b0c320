//! [`FlowReport`]: the per-flow summary attached to flow results.

use crate::collector::MetricsCollector;
use crate::event::{Event, Metric, SpanKind};

/// Wall-clock summary of one top-level flow phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Phase label, e.g. `"generate"` or `"omit"`.
    pub label: String,
    /// Ordinal payload the phase span carried.
    pub index: u64,
    /// Phase duration in microseconds.
    pub dur_us: u64,
}

/// Summary of one flow run: phase timings, counter totals, gauge maxima,
/// and the detection-profile curve.
///
/// Attached to `GenerationFlow`/`TranslationFlow` results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowReport {
    /// Top-level phases of the flow span, in execution order.
    pub phases: Vec<PhaseSummary>,
    /// Non-zero counter totals, in [`Metric::ALL`] order.
    pub counters: Vec<(Metric, u64)>,
    /// Non-zero gauge maxima, in [`Metric::ALL`] order.
    pub gauges: Vec<(Metric, u64)>,
    /// `(time, newly_detected)` pairs: how many target faults were first
    /// detected at each simulated time step, ascending. For a generation
    /// flow this is the profile of the generated sequence; for a
    /// translation flow, of the translated sequence before compaction.
    pub detection_profile: Vec<(u32, u32)>,
}

impl FlowReport {
    /// Build a report from a flow's internal collector. The detection
    /// profile is *not* derived from the event log (compaction re-simulates
    /// prefixes, which would double-count); flows set it explicitly from
    /// the relevant `DetectionReport`.
    #[must_use]
    pub fn from_collector(collector: &MetricsCollector) -> Self {
        let events = collector.events();
        // The flow span is the first Flow-kind span in the log; its direct
        // Pass children are the phases.
        let flow_id = events.iter().find_map(|e| match e {
            Event::SpanBegin {
                id,
                kind: SpanKind::Flow,
                ..
            } => Some(*id),
            _ => None,
        });
        let mut phases = Vec::new();
        if let Some(flow_id) = flow_id {
            let mut open: Vec<(u64, String, u64)> = Vec::new();
            for event in &events {
                match event {
                    Event::SpanBegin {
                        id,
                        parent,
                        kind: SpanKind::Pass,
                        label,
                        index,
                        ..
                    } if *parent == flow_id => {
                        open.push((*id, (*label).to_string(), *index));
                    }
                    Event::SpanEnd { id, dur_us } => {
                        if let Some(pos) = open.iter().position(|(oid, _, _)| oid == id) {
                            let (_, label, index) = open.remove(pos);
                            phases.push(PhaseSummary {
                                label,
                                index,
                                dur_us: *dur_us,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }
        let counters = Metric::ALL
            .iter()
            .filter(|m| !m.is_gauge())
            .map(|m| (*m, collector.counter(*m)))
            .filter(|(_, v)| *v > 0)
            .collect();
        let gauges = Metric::ALL
            .iter()
            .filter(|m| m.is_gauge())
            .map(|m| (*m, collector.gauge_max(*m)))
            .filter(|(_, v)| *v > 0)
            .collect();
        FlowReport {
            phases,
            counters,
            gauges,
            detection_profile: Vec::new(),
        }
    }

    /// Total for one counter (0 when absent).
    #[must_use]
    pub fn counter(&self, metric: Metric) -> u64 {
        self.counters
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0, |(_, v)| *v)
    }

    /// Maximum observed for one gauge (0 when absent).
    #[must_use]
    pub fn gauge(&self, metric: Metric) -> u64 {
        self.gauges
            .iter()
            .find(|(m, _)| *m == metric)
            .map_or(0, |(_, v)| *v)
    }

    /// Human-readable multi-line rendering for `--metrics` output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("== flow metrics ==\n");
        out.push_str("phases:\n");
        for phase in &self.phases {
            if phase.index > 0 {
                out.push_str(&format!(
                    "  {:<18} #{:<4} {:>10} us\n",
                    phase.label, phase.index, phase.dur_us
                ));
            } else {
                out.push_str(&format!("  {:<24} {:>10} us\n", phase.label, phase.dur_us));
            }
        }
        out.push_str("counters:\n");
        for (metric, value) in &self.counters {
            out.push_str(&format!("  {:<24} {value:>10}\n", metric.name()));
        }
        out.push_str("gauges (max):\n");
        for (metric, value) in &self.gauges {
            out.push_str(&format!("  {:<24} {value:>10}\n", metric.name()));
        }
        if !self.detection_profile.is_empty() {
            let total: u64 = self
                .detection_profile
                .iter()
                .map(|(_, n)| u64::from(*n))
                .sum();
            let last = self.detection_profile.last().map_or(0, |(t, _)| *t);
            out.push_str(&format!(
                "detection profile: {} faults over {} points (last detection at t={})\n",
                total,
                self.detection_profile.len(),
                last
            ));
            let mut cum = 0u64;
            for (time, newly) in &self.detection_profile {
                cum += u64::from(*newly);
                out.push_str(&format!("  t={time:<6} +{newly:<5} cum={cum}\n"));
            }
        }
        out
    }
}
