//! Statistics, host context and the printed result.

use std::path::Path;

use limscan_serve::Json;

/// A measured value as a JSON number, every digit kept. Non-finite values,
/// which no metric should produce, are written as 0.
pub fn num(v: f64) -> Json {
    Json::Num(if v.is_finite() { v } else { 0.0 })
}

/// A JSON object with `members` in order.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile of `values` (0 for none).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run prints: metrics, per-circuit rows, the operation
/// tally and every failed output check.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub rows: Vec<Json>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed output check that is not tied to one operation.
    pub fn problem(&mut self, message: String) {
        eprintln!("flowbench: CHECK FAILED: {message}");
        self.problems.push(message);
    }

    /// Records one attempted operation and whether it passed its checks.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        for p in problems {
            self.problem(p);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Prints the human-readable lines, the context and rows as JSON lines,
    /// and last the result object.
    pub fn print(&self, context: &str) {
        println!("context {context}");
        for row in &self.rows {
            println!("row {}", row.render());
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, num(m.value).render(), m.unit);
        }
        let ops_failed = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "ops_failed = {} ({} of {} attempted)",
            num(ops_failed).render(),
            self.failed,
            self.attempted
        );
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    obj(vec![("value", num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        let result = obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted.max(1))),
            ("failed", Json::num(self.failed)),
            ("metrics", obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The type of the filesystem holding `path`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(kind) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*kind).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `none` outside a git checkout.
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_owned()))
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the `trace` feature of the library is compiled into this build:
/// only then can a handle with an attached collector be live.
pub fn trace_compiled() -> bool {
    limscan::ObsHandle::noop().with_collector().0.is_enabled()
}

/// Host and build context recorded with every result, as a JSON object.
pub fn context(workload: &str, seed: u64, state_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::num(seed)),
        ("nproc", Json::num(nproc as u64)),
        (
            "limscan_threads",
            Json::str(std::env::var("LIMSCAN_THREADS").unwrap_or_default()),
        ),
        ("state_fs", Json::str(fs_type(state_dir))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("trace_compiled", Json::Bool(trace_compiled())),
        ("commit", Json::str(git_commit())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
