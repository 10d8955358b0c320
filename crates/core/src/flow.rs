//! The paper's two end-to-end flows.
//!
//! * [`GenerationFlow`] (Tables 5 and 6): insert scan, run the Section 2
//!   generator on `C_scan`, then compact the flat sequence with vector
//!   restoration followed by vector omission.
//! * [`TranslationFlow`] (Table 7): generate a conventional `(SI, T)` test
//!   set with complete scan operations, compact it with the scan-specific
//!   `[26]`-style pruning, translate it into a flat sequence (Section 3),
//!   and compact that with the same restoration + omission pipeline.
//!
//! Both run on the pass-boundary driver in `resilient.rs`: a flow here is
//! the driver's unlimited case, with no snapshot store, and its record is
//! filled from what the driver produced.

use std::fmt;

use limscan_analyze::{AnalysisSummary, StaticAnalysis, UntestableReason};
use limscan_atpg::first_approach::{CombAtpgConfig, CombAtpgOutcome};
use limscan_atpg::genetic::GeneticConfig;
use limscan_atpg::{AtpgConfig, AtpgOutcome};
use limscan_compact::{Compacted, CompactedSet};
use limscan_fault::{Fault, FaultId, FaultList};
use limscan_harness::FlowKind;
use limscan_lint::{Diagnostic, LintConfig, Linter, Severity};
use limscan_netlist::{bench_format, Circuit, NetlistError};
use limscan_obs::{FlowReport, Metric, ObsHandle, SpanKind};
use limscan_scan::ScanCircuit;
use limscan_sim::{SeqFaultSim, TestSequence};

use crate::resilient::{run_whole, Input, Produced};

/// Why a flow refused to run.
#[derive(Clone, Debug)]
pub enum FlowError {
    /// The lint gate found error-severity diagnostics: the circuit is
    /// structurally unsound for simulation and generation. Carries every
    /// error-severity finding, spans included.
    Lint(Vec<Diagnostic>),
    /// The source text could not be parsed or built at all (only possible
    /// with the lint gate disabled, which otherwise reports the same
    /// defects as diagnostics).
    Netlist(NetlistError),
    /// The circuit has no flip-flops; scan insertion does not apply.
    NoFlipFlops,
    /// `scan_chains` is zero or exceeds the flip-flop count.
    ChainCount {
        /// The configured chain count.
        requested: usize,
        /// The circuit's flip-flop count.
        flip_flops: usize,
    },
    /// A resume snapshot failed to load or validate, or its configuration
    /// digest disagrees with the resume configuration.
    Snapshot(limscan_harness::SnapshotError),
    /// The equivalence checker could not even start: the candidate is
    /// missing a reference port, or a forced input names no candidate
    /// input.
    Equiv(limscan_equiv::EquivError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Lint(diags) => {
                write!(f, "circuit fails lint with {} error(s)", diags.len())?;
                if let Some(d) = diags.first() {
                    write!(f, "; first: [{}] {}", d.code.code(), d.message)?;
                    if let Some(line) = d.span.line() {
                        write!(f, " (line {line})")?;
                    }
                }
                Ok(())
            }
            FlowError::Netlist(e) => write!(f, "{e}"),
            FlowError::NoFlipFlops => {
                f.write_str("circuit has no flip-flops; scan insertion does not apply")
            }
            FlowError::ChainCount {
                requested,
                flip_flops,
            } => write!(
                f,
                "cannot spread {flip_flops} flip-flop(s) over {requested} scan chain(s)"
            ),
            FlowError::Snapshot(e) => write!(f, "{e}"),
            FlowError::Equiv(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

impl From<limscan_equiv::EquivError> for FlowError {
    fn from(e: limscan_equiv::EquivError) -> Self {
        FlowError::Equiv(e)
    }
}

/// The lint configuration the flow gate runs with: testability warnings
/// can never gate a run, so the SCOAP pass is skipped.
fn gate_linter() -> Linter {
    Linter::with_config(LintConfig {
        testability: false,
        ..LintConfig::default()
    })
}

/// Refuses circuits with error-severity lint findings.
pub(crate) fn lint_gate(circuit: &Circuit) -> Result<(), FlowError> {
    let report = gate_linter().lint_circuit(circuit);
    if report.has_errors() {
        return Err(FlowError::Lint(
            report.filtered(Severity::Error).diagnostics().to_vec(),
        ));
    }
    Ok(())
}

/// Parses `.bench` source for a flow entry point. With `lint` enabled the
/// permissive parse is linted first, so structural defects (cycles,
/// multiple drivers, bad arities, ...) surface as [`FlowError::Lint`]
/// diagnostics with line spans — all of them, not just the first — before
/// any simulation work starts.
pub(crate) fn build_source(name: &str, source: &str, lint: bool) -> Result<Circuit, FlowError> {
    let raw = bench_format::parse_raw(name, source);
    if lint {
        let report = gate_linter().lint_raw(&raw);
        if report.has_errors() {
            return Err(FlowError::Lint(
                report.filtered(Severity::Error).diagnostics().to_vec(),
            ));
        }
    }
    Ok(raw.build()?)
}

/// Validates flip-flop and chain-count preconditions.
pub(crate) fn check_scannable(circuit: &Circuit, chains: usize) -> Result<(), FlowError> {
    let n_ff = circuit.dffs().len();
    if n_ff == 0 {
        return Err(FlowError::NoFlipFlops);
    }
    if chains == 0 || chains > n_ff {
        return Err(FlowError::ChainCount {
            requested: chains,
            flip_flops: n_ff,
        });
    }
    Ok(())
}

/// Static-analysis knobs for the flows. Both default **off**: analysis
/// changes the fault universe and the episode order, so pinned golden
/// traces, resume parity, and published counts stay untouched unless a run
/// opts in.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AnalysisOptions {
    /// Remove statically-proven-untestable faults from the target universe.
    /// Their proofs are kept on the flow result for coverage accounting.
    pub prune_untestable: bool,
    /// Two-tier ATPG targeting: undominated faults get their episodes
    /// first; dominance-covered faults are deferred to a safety-net tier
    /// (they are usually detected collaterally and then cost nothing).
    pub dominance_targeting: bool,
}

impl AnalysisOptions {
    /// Whether any analysis pass has to run.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.prune_untestable || self.dominance_targeting
    }

    /// Everything on.
    #[must_use]
    pub fn all() -> Self {
        AnalysisOptions {
            prune_untestable: true,
            dominance_targeting: true,
        }
    }
}

/// What the analysis pass did to a flow's fault universe, attached to the
/// flow result when [`FlowConfig::analysis`] enables any pass.
#[derive(Clone, Debug)]
pub struct FlowAnalysis {
    /// Headline numbers of the underlying [`StaticAnalysis`] run.
    pub summary: AnalysisSummary,
    /// Faults removed from the target universe as statically untestable,
    /// with their machine-checkable proofs. Empty unless
    /// [`AnalysisOptions::prune_untestable`] was set.
    pub untestable: Vec<(Fault, UntestableReason)>,
    /// Faults deferred to the safety-net targeting tier (dominance-covered).
    pub deferred: usize,
}

impl FlowAnalysis {
    /// Fault efficiency over the *original* universe: detections plus
    /// untestability proofs, as a percentage of targeted plus proven
    /// faults. With nothing proven untestable this equals plain coverage.
    #[must_use]
    pub fn efficiency_percent(&self, detected: usize, targeted: usize) -> f64 {
        let resolved = detected + self.untestable.len();
        let universe = targeted + self.untestable.len();
        if universe == 0 {
            return 0.0;
        }
        100.0 * resolved as f64 / universe as f64
    }
}

/// What static analysis hands the sequential generator; empty when the
/// analysis is off.
#[derive(Default)]
pub(crate) struct Targeting {
    /// The two-tier episode order, when dominance targeting is on.
    pub(crate) order: Option<Vec<FaultId>>,
    /// The analysis itself, whose untestability proofs the generator
    /// reuses instead of running it again.
    pub(crate) analysis: Option<StaticAnalysis>,
}

/// Runs static analysis when any knob is on: returns the (possibly pruned)
/// fault list, what the sequential generator takes from the analysis, and
/// the result record. Untestable faults are never part of a returned order
/// — with pruning off they are simply targeted last.
pub(crate) fn apply_analysis(
    circuit: &Circuit,
    faults: FaultList,
    options: &AnalysisOptions,
    obs: &ObsHandle,
) -> (FaultList, Targeting, Option<FlowAnalysis>) {
    if !options.enabled() {
        return (faults, Targeting::default(), None);
    }
    let span = obs.span(SpanKind::Pass, "analyze");
    let span_obs = span.handle();
    let analysis = StaticAnalysis::run(circuit);
    let part = analysis.partition(&faults);
    span_obs.counter(Metric::AnalysisUntestable, part.untestable().len() as u64);
    span_obs.counter(Metric::AnalysisDominated, part.dominated().len() as u64);
    let record = FlowAnalysis {
        summary: *analysis.summary(),
        untestable: if options.prune_untestable {
            part.untestable()
                .iter()
                .map(|&(id, ref r)| (faults.fault(id), r.clone()))
                .collect()
        } else {
            Vec::new()
        },
        deferred: if options.dominance_targeting {
            part.dominated().len()
        } else {
            0
        },
    };
    if options.prune_untestable {
        let pruned = part.pruned(&faults);
        let order = options.dominance_targeting.then(|| {
            let mut order = pruned.primary.clone();
            order.extend_from_slice(&pruned.deferred);
            order
        });
        let targeting = Targeting {
            order,
            analysis: Some(analysis),
        };
        (pruned.faults, targeting, Some(record))
    } else {
        let order = options.dominance_targeting.then(|| {
            let mut order = part.targets().to_vec();
            order.extend(part.dominated().iter().map(|&(id, _)| id));
            order.extend(part.untestable().iter().map(|&(id, _)| id));
            order
        });
        let targeting = Targeting {
            order,
            analysis: Some(analysis),
        };
        (faults, targeting, Some(record))
    }
}

/// Which test generation engine drives the generation flow.
#[derive(Clone, Debug, Default)]
pub enum Engine {
    /// The Section 2 procedure: PODEM-driven forward search with
    /// functional scan knowledge (the paper's generator).
    #[default]
    Deterministic,
    /// Simulation-based (genetic) generation in the style of the paper's
    /// reference \[9\] — no scan knowledge, typically longer sequences.
    Genetic(GeneticConfig),
}

/// Configuration shared by both flows.
#[derive(Clone, Debug)]
pub struct FlowConfig {
    /// Engine used by the generation flow.
    pub engine: Engine,
    /// Section 2 generator settings (used by [`Engine::Deterministic`]).
    pub atpg: AtpgConfig,
    /// Conventional baseline generator settings.
    pub baseline: CombAtpgConfig,
    /// Omission pass budget.
    pub omission_passes: usize,
    /// Static-analysis knobs (untestability pruning, two-tier dominance
    /// targeting). All off by default.
    pub analysis: AnalysisOptions,
    /// Cap on the number of (collapsed) faults considered; 0 means no cap.
    /// Large profile circuits use this to bound experiment cost.
    pub max_faults: usize,
    /// Number of scan chains inserted by the generation flow (the paper
    /// evaluates 1; more chains shorten scan loads and shift-outs). The
    /// translation flow always uses a single chain, matching the
    /// conventional baseline's cycle accounting.
    pub scan_chains: usize,
    /// Seed for random X-specification during translation.
    pub seed: u64,
    /// Whether to run the error-severity lint gate before any generation
    /// work (default `true`). Circuits with structural or scan-integrity
    /// errors are refused with [`FlowError::Lint`] instead of feeding the
    /// simulators undefined structures.
    pub lint: bool,
    /// Observability scope for the run. The default no-op handle keeps
    /// instrumentation silent; attach a sink (e.g. a JSONL writer via
    /// [`ObsHandle::jsonl_file`](limscan_obs::ObsHandle::jsonl_file)) to
    /// stream the span/metric trace. The flow always tees its own
    /// in-memory collector on top to build the result's
    /// [`FlowReport`].
    pub obs: ObsHandle,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            engine: Engine::Deterministic,
            atpg: AtpgConfig::default(),
            baseline: CombAtpgConfig::default(),
            omission_passes: 2,
            analysis: AnalysisOptions::default(),
            max_faults: 0,
            scan_chains: 1,
            seed: 0xda7e_2003,
            lint: true,
            obs: ObsHandle::noop(),
        }
    }
}

/// Output of the generation flow (Section 2 + Section 4).
#[derive(Clone, Debug)]
pub struct GenerationFlow {
    /// The scan circuit the flow ran on.
    pub scan: ScanCircuit,
    /// Target faults over `C_scan` (collapsed, possibly sampled, and with
    /// statically-untestable faults removed when analysis pruning is on).
    pub faults: FaultList,
    /// What the static analysis pass did, when enabled.
    pub analysis: Option<FlowAnalysis>,
    /// Section 2 generator outcome (sequence `T` of Table 6).
    pub generated: AtpgOutcome,
    /// After vector restoration (`T_restor`).
    pub restored: Compacted,
    /// After vector omission applied to `T_restor` (`T_omit`).
    pub omitted: Compacted,
    /// Phase timings, metric totals, and the detection-profile curve of
    /// the generated sequence.
    pub report: FlowReport,
}

impl GenerationFlow {
    /// Runs the full generation flow on the original circuit.
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when the lint gate (enabled by
    /// [`FlowConfig::lint`]) finds error-severity diagnostics,
    /// [`FlowError::NoFlipFlops`] for combinational circuits, and
    /// [`FlowError::ChainCount`] for an unusable `scan_chains` setting.
    pub fn run(circuit: &Circuit, config: &FlowConfig) -> Result<Self, FlowError> {
        let input = Input::Circuit {
            circuit,
            lint: true,
        };
        run_whole(input, FlowKind::Generation, config).map(Self::from_driver)
    }

    /// Parses `.bench` source text and runs the generation flow on it.
    /// With the lint gate enabled, structural defects are reported as
    /// [`FlowError::Lint`] diagnostics with line spans — all of them, not
    /// just the first the validating parser would stop at.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`FlowError::Netlist`] when the source
    /// does not build and the gate is disabled.
    pub fn run_source(name: &str, source: &str, config: &FlowConfig) -> Result<Self, FlowError> {
        let input = Input::Source { name, text: source };
        run_whole(input, FlowKind::Generation, config).map(Self::from_driver)
    }

    /// The record of a run from scratch. The detection profile comes
    /// straight from the generator's [`limscan_sim::DetectionReport`] —
    /// deriving it from the event log would double-count, because
    /// compaction re-simulates prefixes.
    fn from_driver(run: Produced) -> Self {
        let generated = run.generated.expect("a run from scratch generates");
        let mut report = run.report;
        report.detection_profile = generated.report.detection_profile();
        GenerationFlow {
            scan: run.scan,
            faults: run.faults,
            analysis: run.analysis,
            generated,
            restored: run.restored.expect("a run from scratch restores"),
            omitted: run.omitted,
            report,
        }
    }

    /// Scan vectors (`scan_sel = 1`) in the generated sequence.
    pub fn generated_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.generated.sequence)
    }

    /// Scan vectors in the restored sequence.
    pub fn restored_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.restored.sequence)
    }

    /// Scan vectors in the omitted sequence.
    pub fn omitted_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.omitted.sequence)
    }
}

/// Output of the translation flow (Section 3 + Section 4, Table 7).
#[derive(Clone, Debug)]
pub struct TranslationFlow {
    /// The scan circuit the flow ran on.
    pub scan: ScanCircuit,
    /// Faults over `C_scan` used to drive the flat-sequence compaction
    /// (minus statically-untestable faults when analysis pruning is on —
    /// undetectable faults impose no compaction constraints, so pruning
    /// them is pure time saving).
    pub faults: FaultList,
    /// What the static analysis pass did, when enabled.
    pub analysis: Option<FlowAnalysis>,
    /// The conventional baseline test set (before scan-set pruning).
    pub baseline: CombAtpgOutcome,
    /// The `[26]`-style pruned test set; its `application_cycles()` is the
    /// comparison column of Tables 6 and 7.
    pub baseline_compacted: CompactedSet,
    /// The translated flat sequence (X-specified), Table 7's `test len`.
    pub translated: TestSequence,
    /// After vector restoration.
    pub restored: Compacted,
    /// After vector omission.
    pub omitted: Compacted,
    /// Phase timings, metric totals, and the detection-profile curve of
    /// the translated sequence before compaction.
    pub report: FlowReport,
}

impl TranslationFlow {
    /// Runs the full translation flow on the original circuit. The
    /// translation flow always uses a single scan chain, so
    /// [`FlowConfig::scan_chains`] is ignored here.
    ///
    /// # Errors
    ///
    /// [`FlowError::Lint`] when the lint gate finds error-severity
    /// diagnostics and [`FlowError::NoFlipFlops`] for combinational
    /// circuits.
    pub fn run(circuit: &Circuit, config: &FlowConfig) -> Result<Self, FlowError> {
        let input = Input::Circuit {
            circuit,
            lint: true,
        };
        run_whole(input, FlowKind::Translation, config).map(Self::from_driver)
    }

    /// Parses `.bench` source text and runs the translation flow on it
    /// (see [`GenerationFlow::run_source`]).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`FlowError::Netlist`] when the source
    /// does not build and the gate is disabled.
    pub fn run_source(name: &str, source: &str, config: &FlowConfig) -> Result<Self, FlowError> {
        let input = Input::Source { name, text: source };
        run_whole(input, FlowKind::Translation, config).map(Self::from_driver)
    }

    /// The record of a run from scratch. The detection profile is
    /// re-derived from an unobserved simulation of the translated sequence:
    /// the event log cannot provide it, because compaction re-simulates
    /// prefixes and would double-count detections.
    fn from_driver(run: Produced) -> Self {
        let front = run.translated.expect("a run from scratch translates");
        let mut report = run.report;
        report.detection_profile =
            SeqFaultSim::run(run.scan.circuit(), &run.faults, &front.sequence).detection_profile();
        TranslationFlow {
            scan: run.scan,
            faults: run.faults,
            analysis: run.analysis,
            baseline: front.baseline,
            baseline_compacted: front.baseline_compacted,
            translated: front.sequence,
            restored: run.restored.expect("a run from scratch restores"),
            omitted: run.omitted,
            report,
        }
    }

    /// Scan vectors in the translated sequence.
    pub fn translated_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.translated)
    }

    /// Scan vectors in the restored sequence.
    pub fn restored_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.restored.sequence)
    }

    /// Scan vectors in the omitted sequence.
    pub fn omitted_scan_vectors(&self) -> usize {
        self.scan.count_scan_vectors(&self.omitted.sequence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limscan_netlist::benchmarks;
    use limscan_sim::SeqFaultSim;

    #[test]
    fn generation_flow_is_monotone_in_length() {
        let flow = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default()).unwrap();
        assert!(flow.restored.sequence.len() <= flow.generated.sequence.len());
        assert!(flow.omitted.sequence.len() <= flow.restored.sequence.len());
        assert!(flow.restored_scan_vectors() <= flow.generated_scan_vectors());
    }

    #[test]
    fn generation_flow_compaction_keeps_coverage() {
        let flow = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default()).unwrap();
        let final_report =
            SeqFaultSim::run(flow.scan.circuit(), &flow.faults, &flow.omitted.sequence);
        assert!(
            final_report.detected_count() >= flow.generated.report.detected_count(),
            "compaction must not lose coverage ({} vs {})",
            final_report.detected_count(),
            flow.generated.report.detected_count()
        );
    }

    #[test]
    fn translation_flow_beats_the_baseline_cycles() {
        // The headline claim of Table 7: compacting the translated sequence
        // beats the cycle count of the scan-specifically compacted set.
        let flow = TranslationFlow::run(&benchmarks::s27(), &FlowConfig::default()).unwrap();
        assert_eq!(
            flow.translated.len(),
            flow.baseline_compacted.set.application_cycles(),
            "translation preserves application time"
        );
        assert!(
            flow.omitted.sequence.len() < flow.baseline_compacted.set.application_cycles(),
            "flat compaction must shorten the conventional set ({} vs {})",
            flow.omitted.sequence.len(),
            flow.baseline_compacted.set.application_cycles()
        );
    }

    #[test]
    fn genetic_engine_drives_the_same_pipeline() {
        let config = FlowConfig {
            engine: Engine::Genetic(limscan_atpg::genetic::GeneticConfig::default()),
            ..FlowConfig::default()
        };
        let flow = GenerationFlow::run(&benchmarks::s27(), &config).unwrap();
        assert!(flow.generated.report.detected_count() > 0);
        assert!(flow.omitted.sequence.len() <= flow.generated.sequence.len());
        // Compaction still preserves everything the engine detected.
        let check = SeqFaultSim::run(flow.scan.circuit(), &flow.faults, &flow.omitted.sequence);
        assert!(check.detected_count() >= flow.generated.report.detected_count());
    }

    #[test]
    fn fault_cap_limits_work() {
        let config = FlowConfig {
            max_faults: 20,
            ..FlowConfig::default()
        };
        let flow = GenerationFlow::run(&benchmarks::s27(), &config).unwrap();
        assert_eq!(flow.faults.len(), 20);
    }

    #[test]
    fn analysis_defaults_off_and_changes_nothing() {
        let base = GenerationFlow::run(&benchmarks::s27(), &FlowConfig::default()).unwrap();
        assert!(base.analysis.is_none());
        // s27's scan circuit has no statically-untestable faults, so
        // pruning alone must reproduce the default run bit-identically.
        let pruned = GenerationFlow::run(
            &benchmarks::s27(),
            &FlowConfig {
                analysis: AnalysisOptions {
                    prune_untestable: true,
                    dominance_targeting: false,
                },
                ..FlowConfig::default()
            },
        )
        .unwrap();
        let record = pruned.analysis.expect("analysis ran");
        assert!(record.untestable.is_empty(), "s27_scan is fully testable");
        assert_eq!(pruned.faults.len(), base.faults.len());
        assert_eq!(pruned.generated.sequence, base.generated.sequence);
    }

    #[test]
    fn analysis_prunes_redundant_faults_and_keeps_proofs() {
        // y = a AND (a OR b): the OR gate's b input is classically
        // redundant, so b-path faults are statically untestable.
        let mut b = limscan_netlist::CircuitBuilder::new("red");
        b.input("a");
        b.input("b");
        b.gate("o", limscan_netlist::GateKind::Or, &["a", "b"])
            .unwrap();
        b.gate("y", limscan_netlist::GateKind::And, &["a", "o"])
            .unwrap();
        b.output("y");
        b.dff("q", "y").unwrap();
        let c = b.build().unwrap();
        let base = GenerationFlow::run(&c, &FlowConfig::default()).unwrap();
        let flow = GenerationFlow::run(
            &c,
            &FlowConfig {
                analysis: AnalysisOptions::all(),
                ..FlowConfig::default()
            },
        )
        .unwrap();
        let record = flow.analysis.as_ref().expect("analysis ran");
        assert!(
            !record.untestable.is_empty(),
            "the redundant b path must be proven untestable"
        );
        assert_eq!(
            flow.faults.len() + record.untestable.len(),
            base.faults.len(),
            "pruning removes exactly the proven faults"
        );
        // Pruning must not lose detections: everything the base run
        // detected and the pruned universe still contains stays detected.
        let check = SeqFaultSim::run(flow.scan.circuit(), &flow.faults, &flow.omitted.sequence);
        for (id, f) in base.faults.iter() {
            if base.generated.report.is_detected(id) {
                let kept = flow
                    .faults
                    .id_of(f)
                    .expect("detected faults are never pruned");
                assert!(
                    check.is_detected(kept),
                    "{}",
                    f.display_name(flow.scan.circuit())
                );
            }
        }
        // Fault efficiency counts the proofs; it can only improve on
        // coverage over the pruned universe.
        let eff =
            record.efficiency_percent(flow.generated.report.detected_count(), flow.faults.len());
        assert!(eff >= flow.generated.report.coverage_percent() - 1e-9);
        // The analysis pass and its counters appear in the trace report.
        assert_eq!(
            flow.report.counter(limscan_obs::Metric::AnalysisUntestable),
            record.untestable.len() as u64
        );
    }

    #[test]
    fn translation_flow_pruning_is_pure_time_saving() {
        let s298 = benchmarks::load("s298").unwrap();
        let base = TranslationFlow::run(&s298, &FlowConfig::default()).unwrap();
        let flow = TranslationFlow::run(
            &s298,
            &FlowConfig {
                analysis: AnalysisOptions {
                    prune_untestable: true,
                    dominance_targeting: false,
                },
                ..FlowConfig::default()
            },
        )
        .unwrap();
        assert!(flow.analysis.is_some());
        assert!(flow.faults.len() <= base.faults.len());
        // Untestable faults impose no compaction constraints, so the
        // compacted sequences are identical.
        assert_eq!(flow.translated, base.translated);
        assert_eq!(flow.omitted.sequence, base.omitted.sequence);
    }

    const CYCLIC_SRC: &str = "\
INPUT(a)
OUTPUT(y)
y = AND(a, q)
q = DFF(g)
g = NOT(y)
loopy = OR(loopy, a)
";

    #[test]
    fn lint_gate_refuses_cyclic_source_with_spans() {
        let err = GenerationFlow::run_source("cyc", CYCLIC_SRC, &FlowConfig::default())
            .expect_err("cyclic circuit must be refused");
        let FlowError::Lint(diags) = err else {
            panic!("expected a lint error, got {err:?}");
        };
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code.code(), "L001");
        assert_eq!(diags[0].span.line(), Some(6), "points at the self-loop");
        // The translation flow shares the same gate.
        let err = TranslationFlow::run_source("cyc", CYCLIC_SRC, &FlowConfig::default())
            .expect_err("cyclic circuit must be refused");
        assert!(matches!(err, FlowError::Lint(_)));
    }

    #[test]
    fn disabling_the_gate_falls_back_to_the_parser_error() {
        let config = FlowConfig {
            lint: false,
            ..FlowConfig::default()
        };
        let err = GenerationFlow::run_source("cyc", CYCLIC_SRC, &config)
            .expect_err("the builder still rejects cycles");
        assert!(matches!(err, FlowError::Netlist(_)), "{err:?}");
    }

    #[test]
    fn combinational_circuits_are_a_typed_error() {
        let src = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        let err = GenerationFlow::run_source("comb", src, &FlowConfig::default())
            .expect_err("no flip-flops to scan");
        assert!(matches!(err, FlowError::NoFlipFlops));
        assert!(err.to_string().contains("no flip-flops"));
    }

    #[test]
    fn bad_chain_counts_are_a_typed_error() {
        let config = FlowConfig {
            scan_chains: 99,
            ..FlowConfig::default()
        };
        let err = GenerationFlow::run(&benchmarks::s27(), &config)
            .expect_err("s27 has only 3 flip-flops");
        assert!(
            matches!(
                err,
                FlowError::ChainCount {
                    requested: 99,
                    flip_flops: 3
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn clean_source_runs_end_to_end() {
        let text = limscan_netlist::bench_format::write(&benchmarks::s27());
        let flow = GenerationFlow::run_source("s27", &text, &FlowConfig::default()).unwrap();
        assert!(flow.generated.report.detected_count() > 0);
    }
}
