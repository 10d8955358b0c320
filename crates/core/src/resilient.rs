//! The pass-boundary driver behind both flows.
//!
//! Every flow run goes through this module.
//! [`GenerationFlow`](crate::GenerationFlow) and
//! [`TranslationFlow`](crate::TranslationFlow) run it from scratch with an
//! unlimited budget and no snapshot store, and fill their records from
//! what it produced in the process. The `*_resilient` entry points run it
//! under a [`RunBudget`]:
//! the run charges its work against a [`CancelToken`], writes a versioned
//! [`FlowSnapshot`] at every pass boundary (when a [`SnapshotStore`] is
//! configured), and — when a limit trips or the token is cancelled — stops
//! at the next boundary with a typed [`FlowOutcome::Partial`] instead of
//! panicking or silently truncating. [`resume_flow`] restores a stopped
//! run from its snapshot and continues it; because every engine below is
//! deterministic, the resumed run's final sequence is bit-identical to the
//! uninterrupted one (pinned by the resume-parity suite).
//!
//! The state machine (documented in DESIGN.md §12):
//!
//! ```text
//! Generate --(boundary)--> Compact --(boundary)--> Omit(pass 0)
//!    |                        |          --(boundary per pass)--> Omit(k)
//!    +-- AtpgCursor           +-- sequence           +-- OmitCursor
//! ```
//!
//! Every arrow is a checkpoint; every box is a phase a snapshot can name.
//! Restoration has no mid-run cursor: a budget trip during restoration
//! discards the partial mask and the snapshot stays at the `Compact` phase
//! (resume re-runs restoration from the uncompacted sequence). Static
//! analysis ([`FlowConfig::analysis`]) runs before every entry stage, so a
//! resumed run prunes the same faults and targets them in the same order.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use limscan_atpg::first_approach::{self, CombAtpgOutcome};
use limscan_atpg::genetic::GeneticAtpg;
use limscan_atpg::{AtpgOutcome, AtpgStop, SequentialAtpg};
use limscan_compact::{
    omission_pass_resumable, restoration_resumable, scan_test_set, Compacted, CompactedSet,
};
use limscan_fault::FaultList;
use limscan_harness::{
    fnv64, AtpgCursor, CancelToken, FlowKind, FlowOutcome, FlowPhase, FlowSnapshot, OmitCursor,
    RunBudget, SnapshotError, SnapshotStore, StopReason,
};
use limscan_netlist::{bench_format, Circuit};
use limscan_obs::{FlowReport, Metric, ObsHandle, SpanKind};
use limscan_scan::ScanCircuit;
use limscan_sim::{SeqFaultSim, TestSequence};

use crate::flow::{
    apply_analysis, build_source, check_scannable, lint_gate, Engine, FlowAnalysis, FlowConfig,
    FlowError, Targeting,
};

/// Configuration of a resilient run: the flow itself plus its resource
/// budget and (optionally) where to persist pass-boundary snapshots.
#[derive(Clone, Debug)]
pub struct ResilientConfig {
    /// The flow configuration (engines, passes, seeds, observability).
    pub flow: FlowConfig,
    /// Resource limits; the default is unlimited.
    pub budget: RunBudget,
    /// Snapshot persistence. `None` keeps checkpoints in memory only: a
    /// partial outcome still carries its [`FlowSnapshot`], just no path.
    pub snapshots: Option<SnapshotStore>,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        ResilientConfig {
            flow: FlowConfig::default(),
            budget: RunBudget::unlimited(),
            snapshots: None,
        }
    }
}

/// The artifact of a completed resilient run: the final (compacted) test
/// sequence and its coverage. Thinner than
/// [`GenerationFlow`](crate::GenerationFlow) by design — a resumed run
/// cannot reconstruct the per-phase statistics of work done in a previous
/// process, so only end-state facts are reported.
#[derive(Clone, Debug)]
pub struct ResilientRun {
    /// The final test sequence.
    pub sequence: TestSequence,
    /// Faults of the flow's target list detected by `sequence`.
    pub detected: usize,
    /// Size of the flow's target fault list.
    pub total_faults: usize,
    /// Phase timings and metric totals for *this process's* share of the
    /// run.
    pub report: FlowReport,
}

impl ResilientRun {
    /// Fault coverage of the final sequence, in percent.
    #[must_use]
    pub fn coverage_percent(&self) -> f64 {
        if self.total_faults == 0 {
            return 0.0;
        }
        100.0 * self.detected as f64 / self.total_faults as f64
    }
}

/// The translation flow's front end: the conventional baseline set, its
/// `[26]`-style pruning, and the X-specified translated sequence.
pub(crate) struct Translated {
    pub(crate) baseline: CombAtpgOutcome,
    pub(crate) baseline_compacted: CompactedSet,
    pub(crate) sequence: TestSequence,
}

/// What a completed driver run produced in this process. A run from
/// scratch fills every field; a resumed run only those its entry stage
/// reached.
pub(crate) struct Produced {
    pub(crate) scan: ScanCircuit,
    pub(crate) faults: FaultList,
    pub(crate) analysis: Option<FlowAnalysis>,
    /// The generation flow's ATPG outcome.
    pub(crate) generated: Option<AtpgOutcome>,
    /// The translation flow's front end.
    pub(crate) translated: Option<Translated>,
    /// Restoration's record, when restoration ran in this process.
    pub(crate) restored: Option<Compacted>,
    /// Omission's record. Its `original_len` is the length of the sequence
    /// omission started from in this process.
    pub(crate) omitted: Compacted,
    /// Faults `omitted.sequence` detects.
    pub(crate) detected: usize,
    pub(crate) report: FlowReport,
}

impl Produced {
    fn into_run(self) -> ResilientRun {
        ResilientRun {
            sequence: self.omitted.sequence,
            detected: self.detected,
            total_faults: self.faults.len(),
            report: self.report,
        }
    }
}

/// FNV-1a digest over every configuration knob that shapes the flow's
/// determinism. Stored in each snapshot; a resume whose configuration
/// hashes differently is refused rather than silently diverging.
fn config_digest(kind: FlowKind, config: &FlowConfig) -> u64 {
    fnv64(
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}",
            kind,
            config.engine,
            config.atpg,
            config.baseline,
            config.omission_passes,
            config.max_faults,
            config.scan_chains,
            config.seed,
            config.analysis,
        )
        .as_bytes(),
    )
}

/// The snapshot all boundaries of one run share, phase left as a
/// placeholder. Embedding the original (pre-scan) circuit makes every
/// snapshot self-contained.
fn snapshot_template(kind: FlowKind, circuit: &Circuit, config: &FlowConfig) -> FlowSnapshot {
    FlowSnapshot {
        kind,
        config_digest: config_digest(kind, config),
        scan_chains: config.scan_chains,
        max_faults: config.max_faults,
        omission_passes: config.omission_passes,
        seed: config.seed,
        circuit_bench: bench_format::write(circuit),
        phase: FlowPhase::Compact {
            sequence: TestSequence::new(0),
        },
    }
}

/// Pass-boundary bookkeeping: numbers the boundaries, persists a snapshot
/// at each one, and consults the token. A failed snapshot write degrades
/// (the flow keeps running, the event is observable) instead of aborting —
/// losing a checkpoint must never lose the run.
struct Boundary<'a> {
    template: FlowSnapshot,
    store: Option<&'a SnapshotStore>,
    ctl: &'a CancelToken,
    obs: &'a ObsHandle,
    index: u64,
}

impl Boundary<'_> {
    fn snapshot(&self, phase: FlowPhase) -> FlowSnapshot {
        FlowSnapshot {
            phase,
            ..self.template.clone()
        }
    }

    fn persist(&self, snapshot: &FlowSnapshot) -> Option<PathBuf> {
        let store = self.store?;
        let name = format!("{}-{:03}.snap", snapshot.kind.tag(), self.index);
        match store.save(snapshot, &name) {
            Ok(path) => {
                self.obs.counter(Metric::SnapshotsWritten, 1);
                Some(path)
            }
            Err(_) => {
                self.obs.degrade("snapshot-write", self.index);
                None
            }
        }
    }

    /// A pass boundary: snapshot, then check the budget. `Err` carries the
    /// ready-made partial outcome for the caller to return.
    // The large Err is the point: it is the finished partial outcome,
    // constructed once per run at most — not worth a box.
    #[allow(clippy::result_large_err)]
    fn boundary<T>(&mut self, phase: FlowPhase) -> Result<(), FlowOutcome<T>> {
        self.index += 1;
        let snapshot = self.snapshot(phase);
        let path = self.persist(&snapshot);
        match self.ctl.pass_boundary() {
            Ok(()) => Ok(()),
            Err(reason) => Err(FlowOutcome::Partial {
                reason,
                snapshot,
                path,
            }),
        }
    }

    /// A mid-phase stop (an engine returned its cursor): snapshot the
    /// cursor and build the partial outcome.
    fn partial<T>(&mut self, reason: StopReason, phase: FlowPhase) -> FlowOutcome<T> {
        self.index += 1;
        let snapshot = self.snapshot(phase);
        let path = self.persist(&snapshot);
        FlowOutcome::Partial {
            reason,
            snapshot,
            path,
        }
    }
}

/// Where a (possibly resumed) run enters the pipeline.
enum Stage {
    /// The front end (generation or baseline + translation), from scratch
    /// (`None`) or an interrupted ATPG cursor.
    Generate(Option<AtpgCursor>),
    /// Front end done; the uncompacted sequence awaits restoration.
    Compact(TestSequence),
    /// Restoration done; omission passes in progress.
    Omit(OmitCursor),
}

/// Entry point into the compaction tail.
enum CompactStage {
    Restore(TestSequence),
    Omit(OmitCursor),
}

/// Where the driver's circuit comes from.
pub(crate) enum Input<'a> {
    /// A built circuit; with `lint`, the gate runs on it first (subject to
    /// [`FlowConfig::lint`]).
    Circuit { circuit: &'a Circuit, lint: bool },
    /// `.bench` source text, parsed (and linted, subject to
    /// [`FlowConfig::lint`]) inside the flow span.
    Source { name: &'a str, text: &'a str },
}

/// Runs one flow from `start` to completion or to the first budget stop:
/// scan insertion, static analysis, the front end, restoration, and the
/// omission passes, with a checkpoint at every boundary.
fn drive(
    circuit: &Circuit,
    kind: FlowKind,
    config: &FlowConfig,
    ctl: &CancelToken,
    bdy: &mut Boundary<'_>,
    obs: &ObsHandle,
    start: Stage,
) -> Result<FlowOutcome<Produced>, FlowError> {
    // The translation flow always uses a single chain, matching the
    // conventional baseline's cycle accounting.
    let chains = match kind {
        FlowKind::Generation => config.scan_chains,
        FlowKind::Translation => 1,
    };
    check_scannable(circuit, chains)?;
    let (scan, faults) = {
        let _span = obs.span(SpanKind::Pass, "scan-insert");
        let scan = ScanCircuit::insert_chains(circuit, chains);
        let faults = FaultList::collapsed(scan.circuit()).sample(config.max_faults);
        (scan, faults)
    };
    // Re-derived on every entry: a resumed run's fault indices and target
    // order are those of the run that wrote the snapshot. The translation
    // flow has no sequential generator, so only the pruning applies there.
    let (faults, targeting, analysis) =
        apply_analysis(scan.circuit(), faults, &config.analysis, obs);

    let mut generated = None;
    let mut translated = None;
    let start = match start {
        Stage::Generate(cursor) => {
            let sequence = match kind {
                FlowKind::Generation => {
                    match generate(&scan, &faults, targeting, config, ctl, cursor.as_ref(), obs) {
                        Ok(outcome) => generated.insert(outcome).sequence.clone(),
                        Err(stop) => {
                            return Ok(bdy.partial(stop.reason, FlowPhase::Generate(stop.cursor)))
                        }
                    }
                }
                FlowKind::Translation => translated
                    .insert(translate(circuit, &scan, config, obs))
                    .sequence
                    .clone(),
            };
            if let Err(partial) = bdy.boundary(FlowPhase::Compact {
                sequence: sequence.clone(),
            }) {
                return Ok(partial);
            }
            CompactStage::Restore(sequence)
        }
        Stage::Compact(sequence) => CompactStage::Restore(sequence),
        Stage::Omit(cursor) => CompactStage::Omit(cursor),
    };

    let (restored, omitted, detected) =
        match compact(scan.circuit(), &faults, config, ctl, bdy, obs, start) {
            Ok(compacted) => compacted,
            Err(partial) => return Ok(partial),
        };
    Ok(FlowOutcome::Complete(Produced {
        scan,
        faults,
        analysis,
        generated,
        translated,
        restored,
        omitted,
        detected,
        report: FlowReport::default(),
    }))
}

/// The generation flow's front end: the configured engine over `faults`.
/// The deterministic engine takes the episode order and the untestability
/// proofs of the flow's static analysis when it ran, and stops at an
/// episode boundary when the token trips.
fn generate(
    scan: &ScanCircuit,
    faults: &FaultList,
    targeting: Targeting,
    config: &FlowConfig,
    ctl: &CancelToken,
    cursor: Option<&AtpgCursor>,
    obs: &ObsHandle,
) -> Result<AtpgOutcome, AtpgStop> {
    let span = obs.span(SpanKind::Pass, "generate");
    match &config.engine {
        Engine::Deterministic => {
            let mut atpg =
                SequentialAtpg::new(scan, faults, config.atpg.clone()).with_obs(span.handle());
            if let Some(order) = targeting.order {
                atpg = atpg.with_target_order(order);
            }
            if let Some(analysis) = &targeting.analysis {
                atpg = atpg.with_analysis(analysis);
            }
            atpg.run_budgeted(ctl, cursor)
        }
        // The genetic engine is simulation-driven and atomic: it has no
        // safe mid-run cursor, so it runs whole and the budget is consulted
        // at the boundary after it.
        Engine::Genetic(gc) => {
            let (sequence, report) = GeneticAtpg::new(scan, faults, gc.clone()).run();
            let aborted = report.total() - report.detected_count();
            Ok(AtpgOutcome {
                sequence,
                report,
                funct_detected: 0,
                scan_loads: 0,
                aborted,
            })
        }
    }
}

/// The translation flow's front end. It is atomic and fully deterministic,
/// so it always runs whole; the first checkpoint is the translated
/// sequence.
fn translate(
    circuit: &Circuit,
    scan: &ScanCircuit,
    config: &FlowConfig,
    obs: &ObsHandle,
) -> Translated {
    // The baseline targets faults of the original circuit (that is all a
    // conventional tool sees).
    let (baseline, baseline_compacted) = {
        let _span = obs.span(SpanKind::Pass, "baseline");
        let base_faults = FaultList::collapsed(circuit).sample(config.max_faults);
        let baseline = first_approach::generate(circuit, &base_faults, &config.baseline);
        let compacted = scan_test_set(circuit, &base_faults, &baseline.set);
        (baseline, compacted)
    };
    let sequence = {
        let _span = obs.span(SpanKind::Pass, "translate");
        let mut sequence = scan.translate(&baseline_compacted.set);
        sequence.specify_x(&mut StdRng::seed_from_u64(config.seed));
        sequence
    };
    Translated {
        baseline,
        baseline_compacted,
        sequence,
    }
}

/// The restoration → omission tail, entered at `Compact` or `Omit`, with a
/// checkpoint after restoration and between omission passes. Returns the
/// restoration record (when restoration ran), the omission record, and the
/// final detected count.
// The large Err is the finished partial outcome, as in `Boundary`.
#[allow(clippy::result_large_err)]
fn compact(
    circuit: &Circuit,
    faults: &FaultList,
    config: &FlowConfig,
    ctl: &CancelToken,
    bdy: &mut Boundary<'_>,
    obs: &ObsHandle,
    start: CompactStage,
) -> Result<(Option<Compacted>, Compacted, usize), FlowOutcome<Produced>> {
    let (restored, mut cursor) = match start {
        CompactStage::Restore(sequence) => {
            let restored = {
                let span = obs.span(SpanKind::Pass, "restore");
                match restoration_resumable(circuit, faults, &sequence, span.handle(), ctl) {
                    Ok(restored) => restored,
                    // Restoration has no mid-run cursor: the partial mask
                    // is discarded and resume re-runs it from `sequence`.
                    Err(reason) => return Err(bdy.partial(reason, FlowPhase::Compact { sequence })),
                }
            };
            // Omission targets are the faults the restored sequence
            // detects; stored as indices in the cursor so a resumed run
            // compacts toward the same set.
            let targets: Vec<usize> = SeqFaultSim::run(circuit, faults, &restored.sequence)
                .detected()
                .iter()
                .map(|id| id.index())
                .collect();
            let cursor = OmitCursor {
                pass: 0,
                sequence: restored.sequence.clone(),
                targets,
            };
            bdy.boundary(FlowPhase::Omit(cursor.clone()))?;
            (Some(restored), cursor)
        }
        CompactStage::Omit(cursor) => (None, cursor),
    };

    let original_len = cursor.sequence.len();
    {
        let span = obs.span(SpanKind::Pass, "omit");
        while cursor.pass < config.omission_passes && !cursor.sequence.is_empty() {
            match omission_pass_resumable(
                circuit,
                faults,
                &cursor.sequence,
                &cursor.targets,
                cursor.pass,
                span.handle(),
                ctl,
            ) {
                Ok((next, changed)) => {
                    cursor.pass += 1;
                    cursor.sequence = next;
                    if !changed {
                        break;
                    }
                    if cursor.pass < config.omission_passes {
                        bdy.boundary(FlowPhase::Omit(cursor.clone()))?;
                    }
                }
                // A tripped pass discards its partial work; the cursor
                // still names the sequence the pass started from.
                Err(reason) => return Err(bdy.partial(reason, FlowPhase::Omit(cursor.clone()))),
            }
        }
    }

    let report = SeqFaultSim::run(circuit, faults, &cursor.sequence);
    let mut was_target = vec![false; faults.len()];
    for &t in &cursor.targets {
        was_target[t] = true;
    }
    let extra_detected = faults
        .ids()
        .filter(|&id| report.is_detected(id) && !was_target[id.index()])
        .count();
    let omitted = Compacted {
        sequence: cursor.sequence,
        original_len,
        target_count: cursor.targets.len(),
        extra_detected,
    };
    Ok((restored, omitted, report.detected_count()))
}

/// Opens the flow span, gates or builds the circuit, runs [`drive`], and
/// attaches this process's [`FlowReport`] to a completed run once the span
/// has closed.
fn execute(
    input: Input<'_>,
    config: &FlowConfig,
    budget: RunBudget,
    store: Option<&SnapshotStore>,
    kind: FlowKind,
    start: Stage,
) -> Result<FlowOutcome<Produced>, FlowError> {
    let (obs, collector) = config.obs.with_collector();
    let outcome = {
        let flow = obs.span(
            SpanKind::Flow,
            match kind {
                FlowKind::Generation => "generation-flow",
                FlowKind::Translation => "translation-flow",
            },
        );
        let built;
        let circuit = match input {
            Input::Circuit { circuit, lint } => {
                if lint && config.lint {
                    let _span = flow.child(SpanKind::Pass, "lint-gate");
                    lint_gate(circuit)?;
                }
                circuit
            }
            Input::Source { name, text } => {
                // The source lint already covers the built form's rule
                // families.
                let _span = flow.child(SpanKind::Pass, "lint-gate");
                built = build_source(name, text, config.lint)?;
                &built
            }
        };
        let ctl = CancelToken::new(budget);
        let mut bdy = Boundary {
            template: snapshot_template(kind, circuit, config),
            store,
            ctl: &ctl,
            obs: flow.handle(),
            index: 0,
        };
        drive(circuit, kind, config, &ctl, &mut bdy, flow.handle(), start)?
    };
    Ok(outcome.map(|mut produced| {
        produced.report = FlowReport::from_collector(&collector);
        produced
    }))
}

/// Runs a flow from scratch with an unlimited budget and no snapshot store:
/// the classic entry points
/// ([`GenerationFlow::run`](crate::GenerationFlow::run) and friends).
pub(crate) fn run_whole(
    input: Input<'_>,
    kind: FlowKind,
    config: &FlowConfig,
) -> Result<Produced, FlowError> {
    let outcome = execute(
        input,
        config,
        RunBudget::unlimited(),
        None,
        kind,
        Stage::Generate(None),
    )?;
    Ok(outcome.into_complete())
}

fn execute_resilient(
    input: Input<'_>,
    rcfg: &ResilientConfig,
    kind: FlowKind,
    start: Stage,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    let outcome = execute(
        input,
        &rcfg.flow,
        rcfg.budget.clone(),
        rcfg.snapshots.as_ref(),
        kind,
        start,
    )?;
    Ok(outcome.map(Produced::into_run))
}

/// Runs the generation flow under a budget, checkpointing at every pass
/// boundary. A `Complete` outcome's sequence is bit-identical to
/// [`GenerationFlow::run`](crate::GenerationFlow::run)'s compacted
/// (`omitted`) sequence under the same [`FlowConfig`] — the classic flow is
/// this driver's unlimited case.
///
/// # Errors
///
/// The same validation errors as the classic flow
/// ([`FlowError::Lint`], [`FlowError::NoFlipFlops`],
/// [`FlowError::ChainCount`]). Budget trips are **not** errors — they are
/// [`FlowOutcome::Partial`].
pub fn run_generation_resilient(
    circuit: &Circuit,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute_resilient(
        Input::Circuit {
            circuit,
            lint: true,
        },
        rcfg,
        FlowKind::Generation,
        Stage::Generate(None),
    )
}

/// Runs the translation flow under a budget (see
/// [`run_generation_resilient`]; the `Complete` sequence matches
/// [`TranslationFlow::run`](crate::TranslationFlow::run)'s `omitted`).
///
/// # Errors
///
/// As [`run_generation_resilient`].
pub fn run_translation_resilient(
    circuit: &Circuit,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute_resilient(
        Input::Circuit {
            circuit,
            lint: true,
        },
        rcfg,
        FlowKind::Translation,
        Stage::Generate(None),
    )
}

/// Runs only the compaction tail (restoration plus omission passes) of the
/// generation flow over an existing `sequence`, under a budget, with the
/// same checkpoint boundaries as [`run_generation_resilient`] — this is
/// how a standalone "compact this sequence" job gets the full park/resume
/// treatment. A `Complete` outcome matches
/// [`GenerationFlow::run`](crate::GenerationFlow::run)'s `omitted`
/// sequence when `sequence` is that flow's generated sequence.
///
/// # Errors
///
/// As [`run_generation_resilient`].
pub fn run_compaction_resilient(
    circuit: &Circuit,
    sequence: &TestSequence,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    execute_resilient(
        Input::Circuit {
            circuit,
            lint: true,
        },
        rcfg,
        FlowKind::Generation,
        Stage::Compact(sequence.clone()),
    )
}

/// Resumes an interrupted flow from its snapshot and continues it (under
/// `rcfg.budget`, which may itself trip again — chained resumes converge
/// on the uninterrupted result).
///
/// The snapshot is self-contained: the circuit is rebuilt from the
/// embedded `.bench` text, so no external file has to survive between the
/// interrupted process and this one. The lint gate is skipped — the
/// circuit was validated when the snapshot was taken.
///
/// # Errors
///
/// [`FlowError::Snapshot`] with [`SnapshotError::ConfigMismatch`] when
/// `rcfg.flow` hashes differently from the configuration the snapshot was
/// taken under, plus any circuit-build error from the embedded text.
pub fn resume_flow(
    snapshot: &FlowSnapshot,
    rcfg: &ResilientConfig,
) -> Result<FlowOutcome<ResilientRun>, FlowError> {
    if snapshot.config_digest != config_digest(snapshot.kind, &rcfg.flow) {
        return Err(FlowError::Snapshot(SnapshotError::ConfigMismatch));
    }
    let circuit = build_source(snapshot.circuit_name(), &snapshot.circuit_bench, false)?;
    let start = match &snapshot.phase {
        FlowPhase::Generate(c) => Stage::Generate(Some(c.clone())),
        FlowPhase::Compact { sequence } => Stage::Compact(sequence.clone()),
        FlowPhase::Omit(c) => Stage::Omit(c.clone()),
    };
    execute_resilient(
        Input::Circuit {
            circuit: &circuit,
            lint: false,
        },
        rcfg,
        snapshot.kind,
        start,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GenerationFlow, TranslationFlow};
    use limscan_netlist::benchmarks;

    fn budget(max_checkpoints: u64) -> RunBudget {
        RunBudget {
            max_checkpoints: Some(max_checkpoints),
            ..RunBudget::default()
        }
    }

    #[test]
    fn unlimited_run_matches_the_classic_generation_flow() {
        let circuit = benchmarks::s27();
        let classic = GenerationFlow::run(&circuit, &FlowConfig::default()).unwrap();
        let run = run_generation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        assert_eq!(run.sequence, classic.omitted.sequence);
        assert!(run.detected > 0);
        assert_eq!(run.total_faults, classic.faults.len());
    }

    #[test]
    fn unlimited_run_matches_the_classic_translation_flow() {
        let circuit = benchmarks::s27();
        let classic = TranslationFlow::run(&circuit, &FlowConfig::default()).unwrap();
        let run = run_translation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        assert_eq!(run.sequence, classic.omitted.sequence);
    }

    #[test]
    fn every_interruption_point_resumes_to_the_same_sequence() {
        let circuit = benchmarks::s27();
        let full = run_generation_resilient(&circuit, &ResilientConfig::default())
            .unwrap()
            .into_complete();
        for k in 1..=6 {
            let rcfg = ResilientConfig {
                budget: budget(k),
                ..ResilientConfig::default()
            };
            match run_generation_resilient(&circuit, &rcfg).unwrap() {
                FlowOutcome::Complete(run) => {
                    // Fewer boundaries than k: the flow finished whole.
                    assert_eq!(run.sequence, full.sequence, "k={k}");
                    break;
                }
                FlowOutcome::Partial {
                    reason,
                    snapshot,
                    path,
                } => {
                    assert_eq!(reason, StopReason::CheckpointBudget, "k={k}");
                    assert!(path.is_none(), "no store configured");
                    let resumed = resume_flow(&snapshot, &ResilientConfig::default())
                        .unwrap()
                        .into_complete();
                    assert_eq!(
                        resumed.sequence,
                        full.sequence,
                        "resume from boundary {k} (phase {}) diverged",
                        snapshot.phase.tag()
                    );
                    assert_eq!(resumed.detected, full.detected, "k={k}");
                }
            }
        }
    }

    #[test]
    fn snapshot_text_roundtrips_through_the_partial_outcome() {
        let circuit = benchmarks::s27();
        let rcfg = ResilientConfig {
            budget: budget(1),
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial { snapshot, .. } =
            run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("checkpoint budget 1 must stop at the first boundary");
        };
        let back = FlowSnapshot::from_text(&snapshot.to_text()).unwrap();
        assert_eq!(back, snapshot);
        // The embedded circuit rebuilds and re-validates.
        assert!(build_source("snapshot", &back.circuit_bench, true).is_ok());
    }

    #[test]
    fn drifted_configuration_is_refused_on_resume() {
        let circuit = benchmarks::s27();
        let rcfg = ResilientConfig {
            budget: budget(1),
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial { snapshot, .. } =
            run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("expected a partial outcome");
        };
        let drifted = ResilientConfig {
            flow: FlowConfig {
                seed: 1,
                ..FlowConfig::default()
            },
            ..ResilientConfig::default()
        };
        let err = resume_flow(&snapshot, &drifted).expect_err("digest must mismatch");
        assert!(
            matches!(err, FlowError::Snapshot(SnapshotError::ConfigMismatch)),
            "{err:?}"
        );
    }

    #[test]
    fn vector_budget_surfaces_as_a_generate_phase_partial() {
        let circuit = benchmarks::s27();
        // Disable the random phase (which alone covers s27) so generation
        // must run episodes, and budget one vector so the second episode's
        // check trips mid-generation.
        let flow = FlowConfig {
            atpg: limscan_atpg::AtpgConfig {
                random_phase_vectors: 0,
                ..limscan_atpg::AtpgConfig::default()
            },
            ..FlowConfig::default()
        };
        let rcfg = ResilientConfig {
            flow: flow.clone(),
            budget: RunBudget {
                max_vectors: Some(1),
                ..RunBudget::default()
            },
            ..ResilientConfig::default()
        };
        let FlowOutcome::Partial {
            reason, snapshot, ..
        } = run_generation_resilient(&circuit, &rcfg).unwrap()
        else {
            panic!("a one-vector budget cannot finish s27");
        };
        assert_eq!(reason, StopReason::VectorBudget);
        assert!(matches!(snapshot.phase, FlowPhase::Generate(_)));
        let unlimited = ResilientConfig {
            flow,
            ..ResilientConfig::default()
        };
        let full = run_generation_resilient(&circuit, &unlimited)
            .unwrap()
            .into_complete();
        let resumed = resume_flow(&snapshot, &unlimited).unwrap().into_complete();
        assert_eq!(resumed.sequence, full.sequence);
    }
}
