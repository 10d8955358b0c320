//! # limscan-obs — spans, metrics and trace sinks
//!
//! A lightweight tracing and metrics layer threaded through the limscan
//! hot path (`sim`, `compact`, `atpg`, `core::flow`). Instrumented code
//! emits through an [`ObsHandle`]:
//!
//! - **Spans** — nested monotonic phase timers (flow → pass → trial →
//!   batch), opened with [`ObsHandle::span`] and closed by [`SpanGuard`]
//!   drop.
//! - **Counters / gauges** — typed [`Metric`]s: vectors simulated, faults
//!   detected, compaction trials attempted/committed/early-exited,
//!   checkpoint hits, thread fan-out, peak scratch bytes.
//! - **Detection profile** — per-time-step newly-detected-fault counts,
//!   the curve the paper's trajectory tables are built from.
//!
//! Events flow to a pluggable [`Sink`]: the in-memory
//! [`MetricsCollector`], the [`jsonl::JsonlSink`] writer behind the CLI's
//! `--trace out.jsonl`, or anything user-provided. [`FlowReport`]
//! summarises a flow run for `--metrics` and programmatic use.
//!
//! A handle without a sink ([`ObsHandle::noop`], the default) drops every
//! event; each emission site then costs one branch.
//!
//! [`Json`] is the workspace's JSON value type, parser and writer:
//! [`shape`] reads traces with it, and the job daemon speaks its wire
//! protocol through it.

mod aggregate;
mod collector;
mod event;
mod handle;
mod json;
pub mod jsonl;
mod report;
pub mod shape;

pub use aggregate::MetricTotals;
pub use collector::MetricsCollector;
pub use event::{Event, Metric, SpanKind};
pub use handle::{ObsHandle, Sink, SpanGuard};
pub use json::Json;
pub use report::{FlowReport, PhaseSummary};

impl ObsHandle {
    /// A root handle writing JSONL trace lines to a freshly created file.
    ///
    /// # Errors
    /// Propagates the file-creation error.
    pub fn jsonl_file(path: &std::path::Path) -> std::io::Result<ObsHandle> {
        let file = std::fs::File::create(path)?;
        let sink = jsonl::JsonlSink::new(std::io::BufWriter::new(file));
        Ok(ObsHandle::from_sink(std::sync::Arc::new(sink)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected() -> (ObsHandle, MetricsCollector) {
        ObsHandle::noop().with_collector()
    }

    #[test]
    fn default_handle_is_noop() {
        let handle = ObsHandle::noop();
        assert!(!handle.is_enabled());
        let guard = handle.span(SpanKind::Flow, "nothing");
        guard.handle().counter(Metric::VectorsSimulated, 5);
        drop(guard);
        // No sink, so nothing observable — this is a smoke test that the
        // calls are harmless.
    }

    #[test]
    fn collector_accumulates_counters_and_gauges() {
        let (handle, collector) = collected();
        assert!(handle.is_enabled());
        let flow = handle.span(SpanKind::Flow, "flow");
        flow.handle().counter(Metric::VectorsSimulated, 7);
        flow.handle().counter(Metric::VectorsSimulated, 3);
        flow.handle().gauge(Metric::SimThreads, 2);
        flow.handle().gauge(Metric::SimThreads, 1);
        flow.handle().detect(4, 2);
        drop(flow);
        assert_eq!(collector.counter(Metric::VectorsSimulated), 10);
        assert_eq!(collector.gauge_max(Metric::SimThreads), 2);
        assert_eq!(collector.detection_profile(), vec![(4, 2)]);
        // flow begin + 2 counters + 2 gauges + detect + flow end
        assert_eq!(collector.len(), 7);
    }

    #[test]
    fn spans_nest_and_serialize_round_trip() {
        let (handle, collector) = collected();
        let flow = handle.span(SpanKind::Flow, "generation-flow");
        {
            let pass = flow.child_indexed(SpanKind::Pass, "omission-pass", 1);
            let trial = pass.child_indexed(SpanKind::Trial, "trial", 9);
            trial.handle().counter(Metric::TrialsAttempted, 1);
            drop(trial);
            pass.handle()
                .complete_span(SpanKind::Batch, "batch", 0, 123);
        }
        drop(flow);

        let text = jsonl::to_jsonl(&collector.events());
        let lines = shape::structural_lines(&text).expect("trace is well formed");
        assert_eq!(
            lines,
            vec![
                "span_begin id=1 parent=0 kind=flow label=generation-flow index=0",
                "span_begin id=2 parent=1 kind=pass label=omission-pass index=1",
                "span_begin id=3 parent=2 kind=trial label=trial index=9",
                "counter span=3 metric=trials_attempted delta=1",
                "span_end id=3",
                "span_begin id=4 parent=2 kind=batch label=batch index=0",
                "span_end id=4",
                "span_end id=2",
                "span_end id=1",
            ]
        );
    }

    #[test]
    fn normalizer_rejects_structural_violations() {
        // Unbalanced span.
        let text = "{\"ev\":\"span_begin\",\"id\":7,\"parent\":0,\"kind\":\"flow\",\"label\":\"f\",\"index\":0,\"t_us\":1}\n";
        assert!(shape::structural_lines(text)
            .unwrap_err()
            .contains("left open"));
        // Counter against an unknown span.
        let text = "{\"ev\":\"counter\",\"span\":3,\"metric\":\"vectors_simulated\",\"delta\":1}\n";
        assert!(shape::structural_lines(text)
            .unwrap_err()
            .contains("unknown span"));
        // Non-monotone consecutive detections on one span.
        let text = concat!(
            "{\"ev\":\"span_begin\",\"id\":1,\"parent\":0,\"kind\":\"flow\",\"label\":\"f\",\"index\":0,\"t_us\":0}\n",
            "{\"ev\":\"detect\",\"span\":1,\"time\":5,\"newly\":1}\n",
            "{\"ev\":\"detect\",\"span\":1,\"time\":5,\"newly\":2}\n",
            "{\"ev\":\"span_end\",\"id\":1,\"dur_us\":0}\n",
        );
        assert!(shape::structural_lines(text)
            .unwrap_err()
            .contains("not monotone"));
    }

    #[test]
    fn normalizer_rejects_malformed_lines() {
        assert!(shape::structural_lines("not json")
            .unwrap_err()
            .starts_with("line 1:"));
        let negative = "{\"ev\":\"span_end\",\"id\":-1,\"dur_us\":0}\n";
        assert!(shape::structural_lines(negative)
            .unwrap_err()
            .contains("'id'"));
        let fractional = "{\"ev\":\"span_end\",\"id\":1.5,\"dur_us\":0}\n";
        assert!(shape::structural_lines(fractional)
            .unwrap_err()
            .contains("'id'"));
    }

    #[test]
    fn metric_names_are_unique_and_indexed() {
        let mut names: Vec<_> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len());
        for (i, metric) in Metric::ALL.iter().enumerate() {
            assert_eq!(metric.index(), i);
        }
    }

    #[test]
    fn flow_report_extracts_phases() {
        let (handle, collector) = collected();
        let flow = handle.span(SpanKind::Flow, "generation-flow");
        drop(flow.child(SpanKind::Pass, "generate"));
        drop(flow.child(SpanKind::Pass, "omit"));
        flow.handle().counter(Metric::TrialsCommitted, 4);
        drop(flow);
        let report = FlowReport::from_collector(&collector);
        let labels: Vec<_> = report.phases.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["generate", "omit"]);
        assert_eq!(report.counter(Metric::TrialsCommitted), 4);
    }
}
