//! Structural normalization of JSONL traces for golden-trace testing.
//!
//! A raw trace is not directly comparable across runs: span ids come from a
//! process-global counter and timing fields are wall-clock. This module
//! parses each line emitted by [`crate::jsonl`] with [`Json`], masks the
//! volatile fields (timestamps, durations, gauge values), renumbers span
//! ids in first-appearance order, and validates structural invariants
//! (balanced nesting, parents open at child begin, positive counter deltas,
//! monotone detection times) — yielding canonical lines that are stable
//! run-to-run for a deterministic single-threaded flow.

use std::collections::HashMap;

use crate::Json;

struct Normalizer {
    /// Raw span id -> canonical id (1-based, first-appearance order).
    remap: HashMap<u64, u64>,
    /// Canonical ids of currently open spans.
    open: Vec<u64>,
    /// Last detection time seen per canonical span id, for monotonicity.
    last_detect: HashMap<u64, u32>,
    /// Whether the previous event was a detect on the same span.
    prev_detect_span: Option<u64>,
    next_id: u64,
    out: Vec<String>,
}

impl Normalizer {
    fn num(line: &Json, key: &str) -> Result<u64, String> {
        line.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing unsigned integer field '{key}'"))
    }

    fn string<'a>(line: &'a Json, key: &str) -> Result<&'a str, String> {
        line.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    fn scope(&self, raw: u64) -> Result<u64, String> {
        if raw == 0 {
            return Ok(0);
        }
        let id = self
            .remap
            .get(&raw)
            .copied()
            .ok_or_else(|| format!("reference to unknown span {raw}"))?;
        if !self.open.contains(&id) {
            return Err(format!("reference to closed span {id}"));
        }
        Ok(id)
    }

    fn event(&mut self, line: &Json) -> Result<(), String> {
        let kind = Self::string(line, "ev")?;
        if kind != "detect" {
            self.prev_detect_span = None;
        }
        match kind {
            "span_begin" => {
                let raw_id = Self::num(line, "id")?;
                let raw_parent = Self::num(line, "parent")?;
                let parent = self.scope(raw_parent)?;
                if self.remap.contains_key(&raw_id) {
                    return Err(format!("span id {raw_id} begun twice"));
                }
                let id = self.next_id;
                self.next_id += 1;
                self.remap.insert(raw_id, id);
                self.open.push(id);
                self.out.push(format!(
                    "span_begin id={id} parent={parent} kind={} label={} index={}",
                    Self::string(line, "kind")?,
                    Self::string(line, "label")?,
                    Self::num(line, "index")?,
                ));
            }
            "span_end" => {
                let raw_id = Self::num(line, "id")?;
                let id = self
                    .remap
                    .get(&raw_id)
                    .copied()
                    .ok_or_else(|| format!("span_end for unknown span {raw_id}"))?;
                let pos = self
                    .open
                    .iter()
                    .position(|o| *o == id)
                    .ok_or_else(|| format!("span {id} ended twice"))?;
                self.open.remove(pos);
                self.last_detect.remove(&id);
                self.out.push(format!("span_end id={id}"));
            }
            "counter" => {
                let span = self.scope(Self::num(line, "span")?)?;
                let delta = Self::num(line, "delta")?;
                if delta == 0 {
                    return Err("counter delta of 0 violates monotonicity".to_string());
                }
                self.out.push(format!(
                    "counter span={span} metric={} delta={delta}",
                    Self::string(line, "metric")?,
                ));
            }
            "gauge" => {
                let span = self.scope(Self::num(line, "span")?)?;
                // Gauge values (scratch bytes, thread counts) are masked:
                // they may legitimately change across engine-tuning PRs.
                self.out.push(format!(
                    "gauge span={span} metric={}",
                    Self::string(line, "metric")?,
                ));
            }
            "detect" => {
                let span = self.scope(Self::num(line, "span")?)?;
                let time_raw = Self::num(line, "time")?;
                let time = u32::try_from(time_raw)
                    .map_err(|_| format!("detect time {time_raw} out of range"))?;
                let newly = Self::num(line, "newly")?;
                if newly == 0 {
                    return Err("detect with newly=0 violates monotonicity".to_string());
                }
                if self.prev_detect_span == Some(span) {
                    if let Some(last) = self.last_detect.get(&span) {
                        if time <= *last {
                            return Err(format!(
                                "detection times not monotone on span {span}: {last} then {time}"
                            ));
                        }
                    }
                }
                self.last_detect.insert(span, time);
                self.prev_detect_span = Some(span);
                self.out
                    .push(format!("detect span={span} time={time} newly={newly}"));
            }
            "degrade" => {
                let span = self.scope(Self::num(line, "span")?)?;
                // Degradation notices only appear when a worker panic was
                // absorbed; healthy golden traces contain none, so this arm
                // exists for chaos-run traces and forward compatibility.
                self.out.push(format!(
                    "degrade span={span} scope={} index={}",
                    Self::string(line, "scope")?,
                    Self::num(line, "index")?,
                ));
            }
            other => return Err(format!("unknown event kind '{other}'")),
        }
        Ok(())
    }
}

/// Normalize JSONL trace text into canonical structural lines.
///
/// Volatile fields (`t_us`, `dur_us`, gauge values) are dropped, span ids
/// are renumbered in first-appearance order, and structural invariants are
/// checked along the way.
///
/// # Errors
/// Returns `line N: <problem>` for the first malformed line or violated
/// invariant (unbalanced spans, unknown parent, zero counter delta,
/// non-monotone detection times, spans left open at end of trace).
pub fn structural_lines(text: &str) -> Result<Vec<String>, String> {
    let mut norm = Normalizer {
        remap: HashMap::new(),
        open: Vec::new(),
        last_detect: HashMap::new(),
        prev_detect_span: None,
        next_id: 1,
        out: Vec::new(),
    };
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        norm.event(&value)
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if !norm.open.is_empty() {
        return Err(format!(
            "{} span(s) left open at end of trace",
            norm.open.len()
        ));
    }
    Ok(norm.out)
}
