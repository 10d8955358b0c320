//! Versioned, checksummed flow snapshots.
//!
//! A [`FlowSnapshot`] captures a flow at a pass boundary: which flow it
//! was, the configuration knobs that shape determinism (hashed into a
//! digest so a resume with drifted configuration is refused), the circuit
//! itself (embedded as `.bench` text, so a snapshot is self-contained), and
//! the phase cursor — the generated sequence plus RNG words mid-ATPG, the
//! sequence awaiting restoration, or the omission pass cursor.
//!
//! The serialization is a line-oriented text format with an explicit
//! version header and an FNV-1a 64 checksum over the body, so torn or
//! hand-edited files are rejected with a typed error instead of resuming
//! from garbage.

use std::fmt;

use limscan_netlist::NetlistError;
use limscan_sim::{Logic, TestSequence};

/// Version tag written in the snapshot header. Bump on any incompatible
/// format change; old versions are rejected with
/// [`SnapshotError::UnsupportedVersion`] rather than misparsed.
pub const SNAPSHOT_VERSION: u32 = 2;

/// FNV-1a 64-bit hash, used for the snapshot body checksum and the flow
/// configuration digest. Stable across platforms and dependency-free.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Which flow a snapshot belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// The generation flow (sequential ATPG, then compaction).
    Generation,
    /// The translation flow (combinational baseline, translation, then
    /// compaction).
    Translation,
}

impl FlowKind {
    /// Stable lowercase tag used in the serialization and in file names.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            FlowKind::Generation => "generation",
            FlowKind::Translation => "translation",
        }
    }
}

/// Cursor into a budget-interrupted deterministic ATPG run.
///
/// Resuming replays `sequence` through a fresh simulator (bit-identical
/// state reconstruction — the engine is deterministic), restores the RNG
/// from `rng_state`, and continues the episode loop at `next_fault`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtpgCursor {
    /// Everything generated so far (random phase plus completed episodes).
    pub sequence: TestSequence,
    /// Index into the fault list of the next fault to process.
    pub next_fault: usize,
    /// Episode ordinal for span indexing continuity.
    pub episode_index: u64,
    /// Functionally detected count so far.
    pub funct_detected: usize,
    /// Scan-load episode count so far.
    pub scan_loads: usize,
    /// Aborted episode count so far.
    pub aborted: usize,
    /// xoshiro256++ state words of the episode RNG.
    pub rng_state: [u64; 4],
}

/// Cursor into the omission-compaction pass loop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OmitCursor {
    /// Next pass to run (0-based).
    pub pass: usize,
    /// The sequence as of this pass boundary.
    pub sequence: TestSequence,
    /// Indices (into the flow's fault list) of the omission targets — the
    /// faults detected before compaction began. Stored explicitly because
    /// they are defined by the *original* sequence, not the current one.
    pub targets: Vec<usize>,
}

/// Where in the flow a snapshot was taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowPhase {
    /// Mid-generation, with the ATPG cursor to resume from.
    Generate(AtpgCursor),
    /// Generation (or translation) finished; compaction not yet started.
    Compact {
        /// The uncompacted test sequence.
        sequence: TestSequence,
    },
    /// Restoration finished; omission passes in progress.
    Omit(OmitCursor),
}

impl FlowPhase {
    /// Stable lowercase tag used in the serialization.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            FlowPhase::Generate(_) => "generate",
            FlowPhase::Compact { .. } => "compact",
            FlowPhase::Omit(_) => "omit",
        }
    }
}

/// A self-contained checkpoint of a flow at a pass boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowSnapshot {
    /// Which flow this snapshot belongs to.
    pub kind: FlowKind,
    /// FNV-1a digest of the flow configuration (engine, ATPG knobs, seeds,
    /// pass counts). A resume whose configuration hashes differently is
    /// refused with [`SnapshotError::ConfigMismatch`].
    pub config_digest: u64,
    /// Scan chain count used by the flow.
    pub scan_chains: usize,
    /// Fault sample cap used by the flow (0 = all faults).
    pub max_faults: usize,
    /// Maximum omission passes.
    pub omission_passes: usize,
    /// Flow-level seed (X-fill).
    pub seed: u64,
    /// The circuit under test as `.bench` text, making the snapshot
    /// self-contained and letting resume verify it simulates identically.
    pub circuit_bench: String,
    /// The phase cursor.
    pub phase: FlowPhase,
}

/// Errors produced while writing, reading, or validating snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// An I/O failure, carrying the offending path.
    Io(NetlistError),
    /// The snapshot text is structurally invalid.
    Malformed {
        /// 1-based line number within the snapshot text.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The body checksum does not match the header — a torn or edited file.
    ChecksumMismatch,
    /// The version header names a format this build does not understand.
    UnsupportedVersion {
        /// The version string found in the header.
        found: String,
    },
    /// The resume configuration hashes differently from the one the
    /// snapshot was taken under.
    ConfigMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "{e}"),
            SnapshotError::Malformed { line, message } => {
                write!(f, "malformed snapshot at line {line}: {message}")
            }
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (torn or edited file)")
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version `{found}`")
            }
            SnapshotError::ConfigMismatch => {
                write!(
                    f,
                    "flow configuration differs from the one the snapshot was taken under"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

fn malformed(line: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed {
        line,
        message: message.into(),
    }
}

fn push_sequence(out: &mut String, seq: &TestSequence) {
    use fmt::Write as _;
    let _ = writeln!(out, "sequence {} {}", seq.width(), seq.len());
    for v in seq.iter() {
        for &l in v {
            out.push(match l {
                Logic::Zero => '0',
                Logic::One => '1',
                Logic::X => 'x',
            });
        }
        out.push('\n');
    }
}

impl FlowSnapshot {
    /// The circuit name recorded in the embedded `.bench` text's leading
    /// `# name` comment (the netlist writer always emits one); falls back
    /// to `"snapshot"` for hand-built texts without it.
    #[must_use]
    pub fn circuit_name(&self) -> &str {
        self.circuit_bench
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("# "))
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .unwrap_or("snapshot")
    }

    /// Serialize to the versioned text format, checksum included.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut body = String::new();
        let _ = writeln!(body, "kind {}", self.kind.tag());
        let _ = writeln!(body, "config {:016x}", self.config_digest);
        let _ = writeln!(body, "chains {}", self.scan_chains);
        let _ = writeln!(body, "max-faults {}", self.max_faults);
        let _ = writeln!(body, "passes {}", self.omission_passes);
        let _ = writeln!(body, "seed {}", self.seed);
        let circuit_lines: Vec<&str> = self.circuit_bench.lines().collect();
        let _ = writeln!(body, "circuit {}", circuit_lines.len());
        for line in circuit_lines {
            body.push_str(line);
            body.push('\n');
        }
        let _ = writeln!(body, "phase {}", self.phase.tag());
        match &self.phase {
            FlowPhase::Generate(c) => {
                let _ = writeln!(body, "next-fault {}", c.next_fault);
                let _ = writeln!(body, "episodes {}", c.episode_index);
                let _ = writeln!(body, "funct {}", c.funct_detected);
                let _ = writeln!(body, "loads {}", c.scan_loads);
                let _ = writeln!(body, "aborted {}", c.aborted);
                let _ = writeln!(
                    body,
                    "rng {} {} {} {}",
                    c.rng_state[0], c.rng_state[1], c.rng_state[2], c.rng_state[3]
                );
                push_sequence(&mut body, &c.sequence);
            }
            FlowPhase::Compact { sequence } => {
                push_sequence(&mut body, sequence);
            }
            FlowPhase::Omit(c) => {
                let _ = writeln!(body, "pass {}", c.pass);
                let mut targets = format!("targets {}", c.targets.len());
                for t in &c.targets {
                    let _ = write!(targets, " {t}");
                }
                body.push_str(&targets);
                body.push('\n');
                push_sequence(&mut body, &c.sequence);
            }
        }
        body.push_str("end\n");
        format!(
            "limscan-snapshot v{SNAPSHOT_VERSION}\nchecksum {:016x}\n{body}",
            fnv64(body.as_bytes())
        )
    }

    /// Parse and validate snapshot text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a foreign header,
    /// [`SnapshotError::ChecksumMismatch`] when the body hash disagrees
    /// with the header, and [`SnapshotError::Malformed`] for structural
    /// problems (with the offending 1-based line number).
    pub fn from_text(text: &str) -> Result<FlowSnapshot, SnapshotError> {
        let mut parts = text.splitn(3, '\n');
        let header = parts.next().unwrap_or("");
        let Some(version) = header.strip_prefix("limscan-snapshot ") else {
            return Err(SnapshotError::UnsupportedVersion {
                found: header.to_string(),
            });
        };
        if version != format!("v{SNAPSHOT_VERSION}") {
            return Err(SnapshotError::UnsupportedVersion {
                found: version.to_string(),
            });
        }
        let checksum_line = parts
            .next()
            .ok_or_else(|| malformed(2, "missing checksum"))?;
        let body = parts
            .next()
            .ok_or_else(|| malformed(3, "missing snapshot body"))?;
        let stated = checksum_line
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| malformed(2, "bad checksum line"))?;
        if fnv64(body.as_bytes()) != stated {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut r = Reader {
            lines: body.lines(),
            line_no: 2, // body starts on line 3; next() increments first
        };
        let kind = match r.value("kind")? {
            "generation" => FlowKind::Generation,
            "translation" => FlowKind::Translation,
            other => return Err(malformed(r.line_no, format!("unknown kind `{other}`"))),
        };
        let config_digest = r.hex_u64("config")?;
        let scan_chains = r.parse_value("chains")?;
        let max_faults = r.parse_value("max-faults")?;
        let omission_passes = r.parse_value("passes")?;
        let seed: u64 = r.parse_value("seed")?;
        let n_circuit: usize = r.parse_value("circuit")?;
        let mut circuit_bench = String::new();
        for _ in 0..n_circuit {
            circuit_bench.push_str(r.next()?);
            circuit_bench.push('\n');
        }
        let phase = match r.value("phase")? {
            "generate" => {
                let next_fault = r.parse_value("next-fault")?;
                let episode_index = r.parse_value("episodes")?;
                let funct_detected = r.parse_value("funct")?;
                let scan_loads = r.parse_value("loads")?;
                let aborted = r.parse_value("aborted")?;
                let rng_line = r.value("rng")?;
                let words: Vec<u64> = rng_line
                    .split_whitespace()
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| malformed(r.line_no, "bad rng words"))?;
                let rng_state: [u64; 4] = words
                    .try_into()
                    .map_err(|_| malformed(r.line_no, "expected 4 rng words"))?;
                FlowPhase::Generate(AtpgCursor {
                    sequence: r.sequence()?,
                    next_fault,
                    episode_index,
                    funct_detected,
                    scan_loads,
                    aborted,
                    rng_state,
                })
            }
            "compact" => FlowPhase::Compact {
                sequence: r.sequence()?,
            },
            "omit" => {
                let pass = r.parse_value("pass")?;
                let targets_line = r.value("targets")?;
                let mut it = targets_line.split_whitespace();
                let count: usize = it
                    .next()
                    .and_then(|c| c.parse().ok())
                    .ok_or_else(|| malformed(r.line_no, "bad targets count"))?;
                let targets: Vec<usize> = it
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| malformed(r.line_no, "bad target index"))?;
                if targets.len() != count {
                    return Err(malformed(r.line_no, "targets count disagrees with list"));
                }
                FlowPhase::Omit(OmitCursor {
                    pass,
                    sequence: r.sequence()?,
                    targets,
                })
            }
            other => return Err(malformed(r.line_no, format!("unknown phase `{other}`"))),
        };
        let terminator = r.next()?;
        if terminator != "end" {
            return Err(malformed(r.line_no, "missing `end` terminator"));
        }
        Ok(FlowSnapshot {
            kind,
            config_digest,
            scan_chains,
            max_faults,
            omission_passes,
            seed,
            circuit_bench,
            phase,
        })
    }
}

struct Reader<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Reader<'a> {
    fn next(&mut self) -> Result<&'a str, SnapshotError> {
        self.line_no += 1;
        self.lines
            .next()
            .ok_or_else(|| malformed(self.line_no, "unexpected end of snapshot"))
    }

    /// Next line, which must start with `key ` — returns the remainder.
    fn value(&mut self, key: &str) -> Result<&'a str, SnapshotError> {
        let line = self.next()?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .ok_or_else(|| malformed(self.line_no, format!("expected `{key} <value>`")))
    }

    fn parse_value<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, SnapshotError> {
        let raw = self.value(key)?;
        raw.parse()
            .map_err(|_| malformed(self.line_no, format!("bad value for `{key}`: `{raw}`")))
    }

    fn hex_u64(&mut self, key: &str) -> Result<u64, SnapshotError> {
        let raw = self.value(key)?;
        u64::from_str_radix(raw, 16)
            .map_err(|_| malformed(self.line_no, format!("bad hex value for `{key}`")))
    }

    fn sequence(&mut self) -> Result<TestSequence, SnapshotError> {
        let head = self.value("sequence")?;
        let mut it = head.split_whitespace();
        let width: usize = it
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| malformed(self.line_no, "bad sequence width"))?;
        let len: usize = it
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| malformed(self.line_no, "bad sequence length"))?;
        let mut seq = TestSequence::new(width);
        for _ in 0..len {
            let line = self.next()?;
            if line.len() != width {
                return Err(malformed(
                    self.line_no,
                    format!("vector has {} symbols, expected {width}", line.len()),
                ));
            }
            let mut vector = Vec::with_capacity(width);
            for ch in line.chars() {
                vector.push(match ch {
                    '0' => Logic::Zero,
                    '1' => Logic::One,
                    'x' => Logic::X,
                    other => {
                        return Err(malformed(
                            self.line_no,
                            format!("bad logic symbol `{other}`"),
                        ))
                    }
                });
            }
            seq.push(vector);
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sequence() -> TestSequence {
        let mut seq = TestSequence::new(3);
        seq.push(vec![Logic::One, Logic::Zero, Logic::X]);
        seq.push(vec![Logic::Zero, Logic::Zero, Logic::One]);
        seq
    }

    fn sample(phase: FlowPhase) -> FlowSnapshot {
        FlowSnapshot {
            kind: FlowKind::Generation,
            config_digest: 0xdead_beef_0123_4567,
            scan_chains: 1,
            max_faults: 0,
            omission_passes: 2,
            seed: 42,
            circuit_bench: "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n".to_string(),
            phase,
        }
    }

    #[test]
    fn roundtrip_all_phases() {
        let phases = [
            FlowPhase::Generate(AtpgCursor {
                sequence: sample_sequence(),
                next_fault: 7,
                episode_index: 4,
                funct_detected: 2,
                scan_loads: 1,
                aborted: 0,
                rng_state: [1, 2, 3, u64::MAX],
            }),
            FlowPhase::Compact {
                sequence: sample_sequence(),
            },
            FlowPhase::Omit(OmitCursor {
                pass: 1,
                sequence: sample_sequence(),
                targets: vec![0, 3, 9],
            }),
        ];
        for phase in phases {
            let snap = sample(phase);
            let text = snap.to_text();
            let back = FlowSnapshot::from_text(&text).expect("roundtrip");
            assert_eq!(back, snap);
        }
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let snap = sample(FlowPhase::Compact {
            sequence: sample_sequence(),
        });
        let text = snap.to_text();
        let flipped = text.replacen("seed 42", "seed 43", 1);
        assert_eq!(
            FlowSnapshot::from_text(&flipped),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn foreign_version_is_rejected() {
        let snap = sample(FlowPhase::Compact {
            sequence: sample_sequence(),
        });
        let text = snap
            .to_text()
            .replacen(&format!("v{SNAPSHOT_VERSION}"), "v999", 1);
        assert!(matches!(
            FlowSnapshot::from_text(&text),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn version_one_snapshots_are_refused() {
        // v1 carried an `engine` line and an omission `original-len`; its
        // texts are refused by their header, before the body is read.
        let snap = sample(FlowPhase::Compact {
            sequence: sample_sequence(),
        });
        let text = snap
            .to_text()
            .replacen(&format!("v{SNAPSHOT_VERSION}"), "v1", 1);
        assert_eq!(
            FlowSnapshot::from_text(&text),
            Err(SnapshotError::UnsupportedVersion {
                found: "v1".to_string()
            })
        );
    }

    #[test]
    fn truncation_is_malformed_not_a_panic() {
        let snap = sample(FlowPhase::Omit(OmitCursor {
            pass: 0,
            sequence: sample_sequence(),
            targets: vec![1, 2],
        }));
        let text = snap.to_text();
        // Cut the body but keep the checksum consistent with the cut, so
        // the structural parser (not the checksum) must catch it.
        let body_start = text.match_indices('\n').nth(1).unwrap().0 + 1;
        let body = &text[body_start..];
        let cut = &body[..body.len() / 2];
        let forged = format!(
            "limscan-snapshot v{SNAPSHOT_VERSION}\nchecksum {:016x}\n{cut}",
            fnv64(cut.as_bytes())
        );
        assert!(matches!(
            FlowSnapshot::from_text(&forged),
            Err(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }
}
