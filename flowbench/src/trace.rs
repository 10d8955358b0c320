//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each public call it makes into a layer in a span:
//! name, start, end, parent and run id. Spans stay in memory while the run
//! measures and are written out as JSON lines once it ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use limscan_serve::Json;

use crate::report::{num, obj};

/// One closed (or still open) span. Times are seconds since the tracer's
/// epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// A span recorder for one thread of one run. Threads that run
/// concurrently each keep their own recorder, sharing the epoch, and are
/// merged with [`Tracer::absorb`] after they are joined.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn begin(&mut self, name: &str) -> usize {
        let span = Span {
            name: name.to_owned(),
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`, and returns
    /// its duration in seconds.
    pub fn end(&mut self, idx: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end = self.now();
        self.spans[idx].secs()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Duration of the span most recently closed by [`Tracer::span`].
    pub fn last_secs(&self) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| !s.end.is_nan())
            .map_or(0.0, Span::secs)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of the direct children of span `parent`.
    pub fn children_secs(&self, parent: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum()
    }

    /// Summed seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// The durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Appends the spans of a finished recorder that shares this one's
    /// epoch, keeping its parent links intact.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Writes every span as one JSON line carrying the run id.
    pub fn write_jsonl(&self, path: &Path, run: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj(vec![
                ("run", Json::str(run)),
                ("id", Json::num(id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                ),
                ("name", Json::str(s.name.as_str())),
                ("start_s", num(s.start)),
                ("end_s", num(s.end)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_totals_and_absorb() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let parent = t.begin("circuit");
        let x = t.span("layer.a", || 2 + 2);
        t.span("layer.b", || ());
        t.span("layer.a", || ());
        let whole = t.end(parent);
        assert_eq!(x, 4);
        assert_eq!(t.durations("layer.a").len(), 2);
        assert!(t.children_secs(parent) <= whole);
        let mut other = Tracer::new(epoch);
        let job = other.begin("job");
        other.span("rpc", || ());
        other.end(job);
        t.absorb(other);
        let rpc = t
            .spans()
            .iter()
            .find(|s| s.name == "rpc")
            .expect("absorbed");
        assert_eq!(
            rpc.parent,
            Some(4),
            "parent index shifted past the first 4 spans"
        );
    }
}
