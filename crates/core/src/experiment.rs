//! Per-circuit experiment runner producing the paper's table rows.
//!
//! [`CircuitExperiment::run`] executes both flows on one benchmark circuit
//! and exposes the exact quantities reported in Tables 5, 6 and 7. The
//! `tables` binary in `limscan-bench` formats suites of these rows.

use limscan_netlist::{benchmarks, Circuit};

use crate::flow::{FlowConfig, GenerationFlow, TranslationFlow};

/// Configuration of a per-circuit experiment.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Flow configuration (generator, baseline, compaction).
    pub flow: FlowConfig,
    /// Run the translation flow too (Table 7 circuits).
    pub with_translation: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            flow: FlowConfig::default(),
            with_translation: true,
        }
    }
}

/// One row of Table 5 (fault coverage after test generation).
#[derive(Clone, PartialEq, Debug)]
pub struct Table5Row {
    /// Circuit name (`~` prefix marks a profile-synthetic stand-in).
    pub circ: String,
    /// Primary inputs of `C_scan` (including `scan_sel` and `scan_inp`).
    pub inp: usize,
    /// State variables.
    pub stvr: usize,
    /// Targeted (collapsed) faults, including scan-mux faults.
    pub faults: usize,
    /// Detected faults.
    pub detected: usize,
    /// Fault coverage in percent.
    pub fcov: f64,
    /// Undetected faults for which free-state PODEM finds no frame test —
    /// in a full-scan circuit these are untestable (modulo the backtrack
    /// limit), so they bound achievable coverage. The paper's genuine
    /// netlists are nearly irredundant; the profile-synthetic stand-ins are
    /// not, which this column makes visible.
    pub untestable: usize,
    /// Fault efficiency in percent: detected / (faults − untestable).
    pub eff: f64,
    /// Faults detected via functional-level knowledge of scan (the
    /// shift-out fallback).
    pub funct: usize,
}

/// One row of Table 6 (test length after generation and compaction).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table6Row {
    /// Circuit name.
    pub circ: String,
    /// Generated sequence: total vectors and `scan_sel = 1` vectors.
    pub test_len: (usize, usize),
    /// After restoration.
    pub restor_len: (usize, usize),
    /// After omission.
    pub omit_len: (usize, usize),
    /// Extra faults detected by compaction (`ext det`).
    pub ext_det: usize,
    /// Cycles of the `[26]`-style compacted conventional test set.
    pub cyc26: usize,
}

/// One row of Table 7 (translated test sets).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table7Row {
    /// Circuit name.
    pub circ: String,
    /// Translated sequence: total and scan vectors.
    pub test_len: (usize, usize),
    /// After restoration.
    pub restor_len: (usize, usize),
    /// After omission.
    pub omit_len: (usize, usize),
    /// Cycles of the `[26]`-style compacted conventional test set.
    pub cyc26: usize,
}

/// Both flows run on one circuit, with row extraction.
#[derive(Clone, Debug)]
pub struct CircuitExperiment {
    /// Benchmark name as requested.
    pub name: String,
    /// Whether the circuit is a profile-synthetic stand-in.
    pub synthetic: bool,
    /// The generation flow (Tables 5 and 6).
    pub generation: GenerationFlow,
    /// The translation flow (Table 7 and the `[26]` column), when enabled.
    pub translation: Option<TranslationFlow>,
}

impl CircuitExperiment {
    /// Runs the experiment on a named benchmark circuit.
    ///
    /// Returns `None` if the name is not in the benchmark suite.
    pub fn run(name: &str, config: &ExperimentConfig) -> Option<Self> {
        let circuit = benchmarks::load(name)?;
        Some(Self::run_on(name, &circuit, config))
    }

    /// Runs the experiment on an explicit circuit.
    pub fn run_on(name: &str, circuit: &Circuit, config: &ExperimentConfig) -> Self {
        let generation =
            GenerationFlow::run(circuit, &config.flow).expect("flow runs on a lint-clean circuit");
        let translation = config.with_translation.then(|| {
            TranslationFlow::run(circuit, &config.flow).expect("flow runs on a lint-clean circuit")
        });
        CircuitExperiment {
            name: name.to_owned(),
            synthetic: benchmarks::is_synthetic(name),
            generation,
            translation,
        }
    }

    fn display_name(&self) -> String {
        if self.synthetic {
            format!("~{}", self.name)
        } else {
            self.name.clone()
        }
    }

    /// Extracts the Table 5 row.
    ///
    /// Classifying the undetected faults (for the `untestable` column)
    /// costs one free-state PODEM run per undetected fault.
    pub fn table5(&self) -> Table5Row {
        use limscan_atpg::{PodemEngine, PodemOptions, Scoap};
        let g = &self.generation;
        let c = g.scan.circuit();
        let scoap = Scoap::compute(c);
        let mut engine = PodemEngine::new(c, &scoap);
        let opts = PodemOptions::default();
        let untestable = g
            .generated
            .report
            .undetected()
            .iter()
            .filter(|&&id| engine.run(g.faults.fault(id), &opts).is_none())
            .count();
        let detected = g.generated.report.detected_count();
        let testable = g.faults.len() - untestable;
        Table5Row {
            circ: self.display_name(),
            inp: c.inputs().len(),
            stvr: g.scan.n_sv(),
            faults: g.faults.len(),
            detected,
            fcov: g.generated.report.coverage_percent(),
            untestable,
            eff: if testable == 0 {
                100.0
            } else {
                100.0 * detected as f64 / testable as f64
            },
            funct: g.generated.funct_detected,
        }
    }

    /// Extracts the Table 6 row; `cyc26` is 0 when the translation flow was
    /// not run.
    pub fn table6(&self) -> Table6Row {
        let g = &self.generation;
        Table6Row {
            circ: self.display_name(),
            test_len: (g.generated.sequence.len(), g.generated_scan_vectors()),
            restor_len: (g.restored.sequence.len(), g.restored_scan_vectors()),
            omit_len: (g.omitted.sequence.len(), g.omitted_scan_vectors()),
            ext_det: g.restored.extra_detected + g.omitted.extra_detected,
            cyc26: self
                .translation
                .as_ref()
                .map_or(0, |t| t.baseline_compacted.set.application_cycles()),
        }
    }

    /// Extracts the Table 7 row, if the translation flow was run.
    pub fn table7(&self) -> Option<Table7Row> {
        let t = self.translation.as_ref()?;
        Some(Table7Row {
            circ: self.display_name(),
            test_len: (t.translated.len(), t.translated_scan_vectors()),
            restor_len: (t.restored.sequence.len(), t.restored_scan_vectors()),
            omit_len: (t.omitted.sequence.len(), t.omitted_scan_vectors()),
            cyc26: t.baseline_compacted.set.application_cycles(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s27_experiment_rows_are_consistent() {
        let exp = CircuitExperiment::run("s27", &ExperimentConfig::default()).unwrap();
        let t5 = exp.table5();
        assert_eq!(t5.circ, "s27");
        assert_eq!(t5.inp, 6);
        assert_eq!(t5.stvr, 3);
        assert!(t5.fcov > 95.0);
        assert!(t5.detected <= t5.faults);

        let t6 = exp.table6();
        assert!(t6.restor_len.0 <= t6.test_len.0);
        assert!(t6.omit_len.0 <= t6.restor_len.0);
        assert!(t6.omit_len.1 <= t6.omit_len.0);
        assert!(t6.cyc26 > 0);

        let t7 = exp.table7().unwrap();
        assert_eq!(t7.test_len.0, t7.cyc26);
        assert!(t7.omit_len.0 <= t7.test_len.0);
    }

    #[test]
    fn unknown_circuit_yields_none() {
        assert!(CircuitExperiment::run("nope", &ExperimentConfig::default()).is_none());
    }

    #[test]
    fn synthetic_names_get_tilde_prefix() {
        let mut config = ExperimentConfig {
            with_translation: false,
            ..ExperimentConfig::default()
        };
        config.flow.max_faults = 60;
        let exp = CircuitExperiment::run("b02", &config).unwrap();
        assert_eq!(exp.table5().circ, "~b02");
        assert_eq!(exp.table6().cyc26, 0);
        assert!(exp.table7().is_none());
    }
}
