//! The trace vocabulary: span kinds, metric ids, and the event enum.
//!
//! The emission side ([`crate::ObsHandle`]), the sinks, the reports and the
//! golden-trace tooling are all written against this one vocabulary.

/// The nesting level a span belongs to.
///
/// Spans form a tree: a `Flow` span covers a whole `GenerationFlow` /
/// `TranslationFlow` run, `Pass` spans cover its phases (and the per-pass
/// loops inside compaction), `Episode` spans cover one restoration or ATPG
/// episode, `Trial` spans cover one omission trial or restoration probe, and
/// `Batch` spans cover one fault-simulation batch of up to `LANES` (256)
/// faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// A whole flow run (generation or translation).
    Flow,
    /// A flow phase or a per-pass loop inside an engine.
    Pass,
    /// One restoration episode or ATPG target episode.
    Episode,
    /// One omission trial or restoration probe.
    Trial,
    /// One batch of up to `LANES` (256) faults inside
    /// `SeqFaultSim::extend`.
    Batch,
}

impl SpanKind {
    /// Stable lower-case name used in JSONL output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Flow => "flow",
            SpanKind::Pass => "pass",
            SpanKind::Episode => "episode",
            SpanKind::Trial => "trial",
            SpanKind::Batch => "batch",
        }
    }
}

/// Typed metric identifiers.
///
/// Counters accumulate deltas; gauges record instantaneous values (the
/// collector keeps their maximum). [`Metric::is_deterministic`] marks the
/// counters whose totals are guaranteed bit-identical for any
/// `set_sim_threads` setting — the speculative-wave counters
/// (`TrialsAttempted`, `TrialsEarlyExited`, `CheckpointHits`) legitimately
/// vary with thread count because discarded speculative trials still run,
/// but repeat exactly from run to run at one thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Time steps simulated by an observed fault-simulation pass.
    VectorsSimulated,
    /// Faults newly marked detected by an observed pass.
    FaultsDetected,
    /// Fault batches (up to `LANES` = 256 faults each) dispatched by
    /// observed passes.
    BatchesSimulated,
    /// Omission trials attempted (including discarded speculative ones).
    TrialsAttempted,
    /// Omission trials committed (vector actually dropped).
    TrialsCommitted,
    /// Trial batches settled by simulated detection: the batch's last
    /// open lane re-detected its fault in the simulated tail. Counted per
    /// batch, so one trial can add several.
    TrialsEarlyExited,
    /// Trial batches settled from the recording: at a convergence snapshot,
    /// the batch's last open lanes were back on a recorded future that
    /// detects them, or an open lane was back on one that does not (the
    /// trial fails). Counted per batch, like `TrialsEarlyExited`.
    CheckpointHits,
    /// Restoration episodes executed.
    RestorationEpisodes,
    /// Restoration detection-prefix probes executed.
    RestorationProbes,
    /// Deterministic ATPG per-fault episodes executed.
    AtpgEpisodes,
    /// Scan-load operations emitted by deterministic ATPG.
    ScanLoads,
    /// Fault batches (up to `LANES` = 256 faults each) replayed on the
    /// dense oracle after a worker panic.
    DegradedBatches,
    /// Omission trials replayed on the reference oracle after a worker
    /// panic.
    DegradedTrials,
    /// Checkpoint snapshots written at pass boundaries.
    SnapshotsWritten,
    /// Stimulus rounds driven by an equivalence check.
    EquivRounds,
    /// Output mismatches found (and scalar-confirmed) by an equivalence
    /// check.
    EquivMismatches,
    /// Detections lost by a candidate test program in a differential
    /// comparison.
    EquivFaultsLost,
    /// Faults proven statically untestable by the analysis pass and removed
    /// from the target universe.
    AnalysisUntestable,
    /// Faults deferred to the safety-net ATPG tier because static analysis
    /// found a dominance cover.
    AnalysisDominated,
    /// Gauge: worker threads used by an observed simulation pass.
    SimThreads,
    /// Gauge: estimated scratch-arena bytes for an observed pass.
    ScratchBytes,
}

impl Metric {
    /// Every metric, in a stable order (used for collector storage).
    pub const ALL: [Metric; 21] = [
        Metric::VectorsSimulated,
        Metric::FaultsDetected,
        Metric::BatchesSimulated,
        Metric::TrialsAttempted,
        Metric::TrialsCommitted,
        Metric::TrialsEarlyExited,
        Metric::CheckpointHits,
        Metric::RestorationEpisodes,
        Metric::RestorationProbes,
        Metric::AtpgEpisodes,
        Metric::ScanLoads,
        Metric::DegradedBatches,
        Metric::DegradedTrials,
        Metric::SnapshotsWritten,
        Metric::EquivRounds,
        Metric::EquivMismatches,
        Metric::EquivFaultsLost,
        Metric::AnalysisUntestable,
        Metric::AnalysisDominated,
        Metric::SimThreads,
        Metric::ScratchBytes,
    ];

    /// Stable snake_case name used in JSONL output and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::VectorsSimulated => "vectors_simulated",
            Metric::FaultsDetected => "faults_detected",
            Metric::BatchesSimulated => "batches_simulated",
            Metric::TrialsAttempted => "trials_attempted",
            Metric::TrialsCommitted => "trials_committed",
            Metric::TrialsEarlyExited => "trials_early_exited",
            Metric::CheckpointHits => "checkpoint_hits",
            Metric::RestorationEpisodes => "restoration_episodes",
            Metric::RestorationProbes => "restoration_probes",
            Metric::AtpgEpisodes => "atpg_episodes",
            Metric::ScanLoads => "scan_loads",
            Metric::DegradedBatches => "degraded_batches",
            Metric::DegradedTrials => "degraded_trials",
            Metric::SnapshotsWritten => "snapshots_written",
            Metric::EquivRounds => "equiv_rounds",
            Metric::EquivMismatches => "equiv_mismatches",
            Metric::EquivFaultsLost => "equiv_faults_lost",
            Metric::AnalysisUntestable => "analysis_untestable",
            Metric::AnalysisDominated => "analysis_dominated",
            Metric::SimThreads => "sim_threads",
            Metric::ScratchBytes => "scratch_bytes",
        }
    }

    /// Dense index into [`Metric::ALL`]-shaped arrays.
    #[must_use]
    pub fn index(self) -> usize {
        Metric::ALL.iter().position(|m| *m == self).unwrap_or(0)
    }

    /// True for gauges (instantaneous values); false for counters.
    #[must_use]
    pub fn is_gauge(self) -> bool {
        matches!(self, Metric::SimThreads | Metric::ScratchBytes)
    }

    /// True when the counter total is bit-identical for any thread count.
    #[must_use]
    pub fn is_deterministic(self) -> bool {
        matches!(
            self,
            Metric::VectorsSimulated
                | Metric::FaultsDetected
                | Metric::BatchesSimulated
                | Metric::TrialsCommitted
                | Metric::RestorationEpisodes
                | Metric::RestorationProbes
                | Metric::AtpgEpisodes
                | Metric::ScanLoads
                | Metric::DegradedBatches
                | Metric::SnapshotsWritten
                | Metric::EquivRounds
                | Metric::EquivMismatches
                | Metric::EquivFaultsLost
                | Metric::AnalysisUntestable
                | Metric::AnalysisDominated
        )
    }
}

/// One trace event as delivered to a [`crate::Sink`].
///
/// Span ids are process-unique (a global counter) and strictly increasing in
/// allocation order; `parent == 0` marks a root span. Timestamps (`t_us`,
/// `dur_us`) are microseconds and are masked by the golden-trace normalizer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A span opened.
    SpanBegin {
        /// Process-unique span id.
        id: u64,
        /// Enclosing span id, or 0 for a root span.
        parent: u64,
        /// Nesting level of the span.
        kind: SpanKind,
        /// Static label, e.g. `"omission-pass"`.
        label: &'static str,
        /// Ordinal payload (pass number, trial index, batch index).
        index: u64,
        /// Microseconds since the process trace epoch.
        t_us: u64,
    },
    /// A span closed.
    SpanEnd {
        /// Id of the span being closed.
        id: u64,
        /// Wall-clock duration of the span in microseconds.
        dur_us: u64,
    },
    /// A counter increment attributed to the enclosing span.
    Counter {
        /// Enclosing span id (0 when emitted outside any span).
        span: u64,
        /// Which counter.
        metric: Metric,
        /// Increment (always positive).
        delta: u64,
    },
    /// A gauge observation attributed to the enclosing span.
    Gauge {
        /// Enclosing span id (0 when emitted outside any span).
        span: u64,
        /// Which gauge.
        metric: Metric,
        /// Observed value.
        value: u64,
    },
    /// One point of the detection-profile curve: `newly` faults were first
    /// detected at simulated time `time` by the observed pass.
    Detect {
        /// Enclosing span id (0 when emitted outside any span).
        span: u64,
        /// Absolute simulated time step of first detection.
        time: u32,
        /// Number of faults first detected at that time step.
        newly: u32,
    },
    /// A graceful-degradation notice: a unit of work (`scope`, e.g.
    /// `"sim-batch"` or `"omission-trial"`) was lost to a worker panic and
    /// replayed on the matching reference oracle. Absent from healthy runs,
    /// so clean golden traces are unaffected.
    Degrade {
        /// Enclosing span id (0 when emitted outside any span).
        span: u64,
        /// Static description of the degraded unit of work.
        scope: &'static str,
        /// Ordinal of the degraded unit (batch index, trial candidate).
        index: u64,
    },
}

impl Event {
    /// The span this event is attributed to (the span's own id for
    /// begin/end events).
    #[must_use]
    pub fn span_id(&self) -> u64 {
        match *self {
            Event::SpanBegin { id, .. } | Event::SpanEnd { id, .. } => id,
            Event::Counter { span, .. }
            | Event::Gauge { span, .. }
            | Event::Detect { span, .. }
            | Event::Degrade { span, .. } => span,
        }
    }
}
