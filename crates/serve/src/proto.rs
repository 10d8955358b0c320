//! The JSONL wire protocol: one request object per line in, one response
//! object per line out.
//!
//! Requests name a `verb`; responses always carry `"ok"`. Verbs:
//!
//! | verb | request fields | response |
//! |---|---|---|
//! | `submit` | the [`JobSpec`] fields (`tenant`, `kind`, `circuit`, optional `bench`/`program`/`chains`/`max_faults`/`passes`/`seed`) | `{"ok":true,"job":N}` |
//! | `status` | `job` | the job's status object |
//! | `result` | `job` | `{"ok":true,"job":N,"result":"<program text>"}` |
//! | `cancel` | `job` | the job's status object |
//! | `list` | — | `{"ok":true,"jobs":[...]}` |
//! | `metrics` | — | per-job and per-tenant metric totals |
//! | `drain` | — | blocks until every job is terminal, then `{"ok":true}` |
//! | `shutdown` | — | `{"ok":true}`, then the daemon stops |
//!
//! Errors are `{"ok":false,"error":"..."}`; a malformed line gets an error
//! response rather than dropping the connection.

use limscan::obs::{Json, MetricTotals};

use crate::job::JobSpec;
use crate::server::Server;

/// What the connection loop should do after writing the response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Keep serving this connection.
    Continue,
    /// The daemon was asked to shut down.
    Shutdown,
}

fn ok(mut members: Vec<(String, Json)>) -> Json {
    members.insert(0, ("ok".into(), Json::Bool(true)));
    Json::Obj(members)
}

fn err(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(message)),
    ])
}

/// An error response carrying a machine-readable `code` alongside the
/// human-readable `error`. The transport layer uses `"too_large"` for a
/// frame past the size cap and `"overloaded"` when the connection cap
/// sheds a client; verbs keep the bare [`err`] shape.
#[must_use]
pub fn coded_err(code: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(message)),
        ("code".into(), Json::str(code)),
    ])
}

fn totals_json(totals: &MetricTotals) -> Json {
    let mut members: Vec<(String, Json)> = totals
        .nonzero()
        .into_iter()
        .map(|(name, value, _)| (name.to_owned(), Json::num(value)))
        .collect();
    if totals.degrade_count() > 0 {
        members.push(("degrades".into(), Json::num(totals.degrade_count())));
    }
    Json::Obj(members)
}

/// Handle one request line. Always returns a response object to write
/// back, plus what to do next.
#[must_use]
pub fn handle_line(server: &Server, line: &str) -> (Json, Action) {
    let request = match Json::parse(line) {
        Ok(value) => value,
        Err(e) => return (err(&format!("bad request: {e}")), Action::Continue),
    };
    let Some(verb) = request.get("verb").and_then(Json::as_str) else {
        return (err("missing `verb`"), Action::Continue);
    };
    let job_id = || -> Result<u64, Json> {
        request
            .get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| err("missing `job`"))
    };
    let response = match verb {
        "submit" => match JobSpec::from_json(&request).and_then(|spec| server.submit(spec)) {
            Ok(id) => ok(vec![("job".into(), Json::num(id))]),
            Err(e) => err(&e),
        },
        "status" => match job_id() {
            Ok(id) => match server.status(id) {
                Some(status) => ok(match status.to_json() {
                    Json::Obj(members) => members,
                    _ => unreachable!("status serializes to an object"),
                }),
                None => err("unknown job"),
            },
            Err(e) => e,
        },
        "result" => match job_id() {
            Ok(id) => match server.result_text(id) {
                Ok(text) => ok(vec![
                    ("job".into(), Json::num(id)),
                    ("result".into(), Json::str(text)),
                ]),
                Err(e) => err(&e),
            },
            Err(e) => e,
        },
        "cancel" => match job_id() {
            Ok(id) => match server.cancel(id) {
                Ok(status) => ok(match status.to_json() {
                    Json::Obj(members) => members,
                    _ => unreachable!("status serializes to an object"),
                }),
                Err(e) => err(&e),
            },
            Err(e) => e,
        },
        "list" => ok(vec![(
            "jobs".into(),
            Json::Arr(
                server
                    .list()
                    .iter()
                    .map(super::job::JobStatus::to_json)
                    .collect(),
            ),
        )]),
        "metrics" => {
            let report = server.metrics();
            ok(vec![
                (
                    "jobs".into(),
                    Json::Arr(
                        report
                            .jobs
                            .iter()
                            .map(|j| {
                                Json::Obj(vec![
                                    ("job".into(), Json::num(j.id)),
                                    ("tenant".into(), Json::str(&j.tenant)),
                                    ("slices".into(), Json::num(j.slices)),
                                    ("totals".into(), totals_json(&j.totals)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "tenants".into(),
                    Json::Arr(
                        report
                            .tenants
                            .iter()
                            .map(|t| {
                                Json::Obj(vec![
                                    ("tenant".into(), Json::str(&t.tenant)),
                                    ("jobs".into(), Json::num(t.jobs)),
                                    ("vectors".into(), Json::num(t.vectors)),
                                    ("max_wait".into(), Json::num(t.max_wait)),
                                    ("max_running".into(), Json::num(t.max_running)),
                                    ("totals".into(), totals_json(&t.totals)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
        "drain" => {
            server.drain();
            ok(Vec::new())
        }
        "shutdown" => return (ok(Vec::new()), Action::Shutdown),
        other => err(&format!("unknown verb `{other}`")),
    };
    (response, Action::Continue)
}
