//! Job specifications, states, and their on-disk metadata format.

use limscan::netlist::bench_format;
use limscan::netlist::ParseLimits;
use limscan::obs::Json;
use limscan::scan::program::parse_program;
use limscan::{benchmarks, Circuit, FlowConfig, ObsHandle, ScanCircuit, TestSequence};

/// What kind of flow a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// The generation flow: sequential ATPG, then compaction.
    Generate,
    /// The translation flow: combinational baseline, translation, then
    /// compaction.
    Translate,
    /// Compaction only: restoration plus omission passes over a submitted
    /// test program.
    Compact,
}

impl JobKind {
    /// Stable lowercase tag used on the wire and in metadata.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            JobKind::Generate => "generate",
            JobKind::Translate => "translate",
            JobKind::Compact => "compact",
        }
    }

    /// Inverse of [`JobKind::tag`].
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<JobKind> {
        match tag {
            "generate" => Some(JobKind::Generate),
            "translate" => Some(JobKind::Translate),
            "compact" => Some(JobKind::Compact),
            _ => None,
        }
    }
}

/// Everything needed to run (or re-run from scratch) one job. Persisted
/// verbatim in the job's metadata, so a daemon restarted after SIGKILL can
/// rebuild the exact same flow.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The tenant the job is accounted against.
    pub tenant: String,
    /// Which flow to run.
    pub kind: JobKind,
    /// Circuit name: an embedded benchmark name, or a label for `bench`.
    pub circuit: String,
    /// Inline `.bench` netlist text; `None` resolves `circuit` as an
    /// embedded benchmark name.
    pub bench: Option<String>,
    /// The test program to compact (required for [`JobKind::Compact`]).
    pub program: Option<String>,
    /// Number of scan chains (generation/compaction flows).
    pub chains: usize,
    /// Fault-list cap; 0 targets every collapsed fault.
    pub max_faults: usize,
    /// Omission passes.
    pub passes: usize,
    /// Flow seed.
    pub seed: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        let flow = FlowConfig::default();
        JobSpec {
            tenant: String::from("default"),
            kind: JobKind::Generate,
            circuit: String::from("s27"),
            bench: None,
            program: None,
            chains: 1,
            max_faults: 0,
            passes: flow.omission_passes,
            seed: flow.seed,
        }
    }
}

impl JobSpec {
    /// Resolve the circuit: inline `.bench` text when given, embedded
    /// benchmark otherwise.
    ///
    /// # Errors
    ///
    /// A description of the parse failure or unknown benchmark name.
    pub fn resolve_circuit(&self) -> Result<Circuit, String> {
        self.resolve_circuit_with(&ParseLimits::default())
    }

    /// [`JobSpec::resolve_circuit`] under an explicit parse budget, so a
    /// daemon can cap what an inline `bench` payload may allocate.
    ///
    /// # Errors
    ///
    /// A description of the parse failure, crossed resource ceiling, or
    /// unknown benchmark name.
    pub fn resolve_circuit_with(&self, limits: &ParseLimits) -> Result<Circuit, String> {
        match &self.bench {
            Some(text) => bench_format::parse_raw_limited(&self.circuit, text, limits)
                .build()
                .map_err(|e| e.to_string()),
            None => benchmarks::load(&self.circuit)
                .ok_or_else(|| format!("`{}` is not a known benchmark", self.circuit)),
        }
    }

    /// The flow configuration this spec pins down. Identical on every call
    /// (and on every process), which is what lets a parked job's snapshot
    /// pass the resume digest check.
    #[must_use]
    pub fn flow_config(&self, obs: ObsHandle) -> FlowConfig {
        FlowConfig {
            scan_chains: self.chains,
            max_faults: self.max_faults,
            omission_passes: self.passes,
            seed: self.seed,
            obs,
            ..FlowConfig::default()
        }
    }

    /// Validate the spec against its resolved circuit: scannability, chain
    /// bounds, and (for compaction jobs) the submitted program.
    ///
    /// Returns the parsed input sequence for compaction jobs.
    ///
    /// # Errors
    ///
    /// A description of the first admission failure.
    pub fn validate(&self) -> Result<Option<TestSequence>, String> {
        self.validate_with(&ParseLimits::default())
    }

    /// [`JobSpec::validate`] under an explicit parse budget for the inline
    /// `bench` payload.
    ///
    /// # Errors
    ///
    /// A description of the first admission failure.
    pub fn validate_with(&self, limits: &ParseLimits) -> Result<Option<TestSequence>, String> {
        if self.tenant.is_empty() {
            return Err("tenant must be non-empty".into());
        }
        let circuit = self.resolve_circuit_with(limits)?;
        if circuit.dffs().is_empty() {
            return Err(format!(
                "circuit `{}` has no flip-flops; nothing to scan",
                self.circuit
            ));
        }
        let chain_cap = match self.kind {
            JobKind::Translate => 1,
            JobKind::Generate | JobKind::Compact => circuit.dffs().len(),
        };
        if self.chains == 0 || self.chains > chain_cap {
            return Err(format!(
                "chains must be between 1 and {chain_cap} for a {} job",
                self.kind.tag()
            ));
        }
        match self.kind {
            JobKind::Compact => {
                let text = self
                    .program
                    .as_deref()
                    .ok_or("compact jobs need a `program`")?;
                let sequence = parse_program(text).map_err(|e| e.to_string())?;
                let sc = ScanCircuit::insert_chains(&circuit, self.chains);
                if sequence.width() != sc.circuit().inputs().len() {
                    return Err(format!(
                        "program width {} does not match {} ({} inputs with scan)",
                        sequence.width(),
                        sc.circuit().name(),
                        sc.circuit().inputs().len(),
                    ));
                }
                Ok(Some(sequence))
            }
            JobKind::Generate | JobKind::Translate => {
                if self.program.is_some() {
                    return Err(format!("{} jobs take no `program`", self.kind.tag()));
                }
                Ok(None)
            }
        }
    }

    /// Serialize to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("tenant".into(), Json::str(&self.tenant)),
            ("kind".into(), Json::str(self.kind.tag())),
            ("circuit".into(), Json::str(&self.circuit)),
            ("chains".into(), Json::num(self.chains as u64)),
            ("max_faults".into(), Json::num(self.max_faults as u64)),
            ("passes".into(), Json::num(self.passes as u64)),
            ("seed".into(), Json::num(self.seed)),
        ];
        if let Some(bench) = &self.bench {
            members.push(("bench".into(), Json::str(bench)));
        }
        if let Some(program) = &self.program {
            members.push(("program".into(), Json::str(program)));
        }
        Json::Obj(members)
    }

    /// Rebuild a spec from a JSON object (as emitted by
    /// [`JobSpec::to_json`], or a wire `submit` request).
    ///
    /// # Errors
    ///
    /// A description of the first missing or ill-typed field.
    pub fn from_json(value: &Json) -> Result<JobSpec, String> {
        let defaults = JobSpec::default();
        let str_field = |key: &str| -> Result<Option<String>, String> {
            match value.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_owned()))
                    .ok_or_else(|| format!("`{key}` must be a string")),
            }
        };
        let num_field = |key: &str, default: u64| -> Result<u64, String> {
            match value.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
            }
        };
        let kind_tag = str_field("kind")?.ok_or("missing `kind`")?;
        let kind =
            JobKind::from_tag(&kind_tag).ok_or_else(|| format!("unknown kind `{kind_tag}`"))?;
        Ok(JobSpec {
            tenant: str_field("tenant")?.ok_or("missing `tenant`")?,
            kind,
            circuit: str_field("circuit")?.ok_or("missing `circuit`")?,
            bench: str_field("bench")?,
            program: str_field("program")?,
            chains: usize::try_from(num_field("chains", 1)?).map_err(|_| "chains out of range")?,
            max_faults: usize::try_from(num_field("max_faults", 0)?)
                .map_err(|_| "max_faults out of range")?,
            passes: usize::try_from(num_field("passes", defaults.passes as u64)?)
                .map_err(|_| "passes out of range")?,
            seed: num_field("seed", defaults.seed)?,
        })
    }
}

/// Lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, no slice run yet.
    Queued,
    /// A worker is running a slice right now.
    Running,
    /// Interrupted at a checkpoint; a snapshot holds the progress.
    Parked,
    /// Finished; the result program is on disk.
    Complete,
    /// Cancelled before completion.
    Cancelled,
    /// The flow failed with an error.
    Failed,
}

impl JobState {
    /// Stable lowercase tag used on the wire and in metadata.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Parked => "parked",
            JobState::Complete => "complete",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// Inverse of [`JobState::tag`].
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<JobState> {
        match tag {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "parked" => Some(JobState::Parked),
            "complete" => Some(JobState::Complete),
            "cancelled" => Some(JobState::Cancelled),
            "failed" => Some(JobState::Failed),
            _ => None,
        }
    }

    /// Whether the job can never run again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Complete | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A job's externally visible status, as returned by the `status` and
/// `list` verbs.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// Job id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Flow kind.
    pub kind: JobKind,
    /// Circuit name.
    pub circuit: String,
    /// Current state.
    pub state: JobState,
    /// Scheduler slices spent on the job so far.
    pub slices: u64,
    /// The failure message, for [`JobState::Failed`].
    pub error: Option<String>,
}

impl JobStatus {
    /// Serialize to the wire JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("job".into(), Json::num(self.id)),
            ("tenant".into(), Json::str(&self.tenant)),
            ("kind".into(), Json::str(self.kind.tag())),
            ("circuit".into(), Json::str(&self.circuit)),
            ("state".into(), Json::str(self.state.tag())),
            ("slices".into(), Json::num(self.slices)),
        ];
        if let Some(error) = &self.error {
            members.push(("error".into(), Json::str(error)));
        }
        Json::Obj(members)
    }
}

/// The durable per-job metadata (`job.meta`): id, spec, and the last
/// *persisted* state. `Running` is never persisted — a crash mid-slice
/// must recover the job as queued or parked, so the metadata only moves
/// between the states a restart can honor.
#[derive(Clone, Debug, PartialEq)]
pub struct JobMeta {
    /// Job id.
    pub id: u64,
    /// The full spec.
    pub spec: JobSpec,
    /// Last persisted state (never [`JobState::Running`]).
    pub state: JobState,
    /// The failure message, for [`JobState::Failed`].
    pub error: Option<String>,
}

impl JobMeta {
    /// Serialize to the metadata JSON line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut members = vec![
            ("id".into(), Json::num(self.id)),
            ("state".into(), Json::str(self.state.tag())),
            ("spec".into(), self.spec.to_json()),
        ];
        if let Some(error) = &self.error {
            members.push(("error".into(), Json::str(error)));
        }
        let mut text = Json::Obj(members).render();
        text.push('\n');
        text
    }

    /// Parse the metadata JSON line.
    ///
    /// # Errors
    ///
    /// A description of the first parse failure.
    pub fn from_text(text: &str) -> Result<JobMeta, String> {
        let value = Json::parse(text.trim())?;
        let state_tag = value
            .get("state")
            .and_then(Json::as_str)
            .ok_or("missing `state`")?;
        Ok(JobMeta {
            id: value
                .get("id")
                .and_then(Json::as_u64)
                .ok_or("missing `id`")?,
            spec: JobSpec::from_json(value.get("spec").ok_or("missing `spec`")?)?,
            state: JobState::from_tag(state_tag)
                .ok_or_else(|| format!("unknown state `{state_tag}`"))?,
            error: value
                .get("error")
                .and_then(Json::as_str)
                .map(ToOwned::to_owned),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_roundtrip() {
        let spec = JobSpec {
            tenant: "acme".into(),
            kind: JobKind::Compact,
            circuit: "s27".into(),
            bench: Some("INPUT(a)\n".into()),
            program: Some("0101\n".into()),
            chains: 2,
            max_faults: 10,
            passes: 3,
            seed: 7,
        };
        let back = JobSpec::from_json(&spec.to_json()).expect("roundtrip");
        assert_eq!(back, spec);
    }

    #[test]
    fn meta_text_roundtrip() {
        let meta = JobMeta {
            id: 12,
            spec: JobSpec::default(),
            state: JobState::Failed,
            error: Some("boom: \"quoted\"".into()),
        };
        let back = JobMeta::from_text(&meta.to_text()).expect("roundtrip");
        assert_eq!(back, meta);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let spec = JobSpec {
            circuit: "no-such-benchmark".into(),
            ..JobSpec::default()
        };
        assert!(spec.validate().is_err());
        let spec = JobSpec {
            kind: JobKind::Compact,
            ..JobSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("program"));
        let spec = JobSpec {
            chains: 999,
            ..JobSpec::default()
        };
        assert!(spec.validate().is_err());
        assert!(JobSpec::default().validate().expect("valid").is_none());
    }
}
