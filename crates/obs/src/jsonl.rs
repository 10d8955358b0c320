//! JSONL serialization of trace events and the file-writer sink.
//!
//! Lines are assembled with `format!` rather than through [`crate::Json`]:
//! every value is a static identifier or an unsigned integer, so nothing
//! needs escaping, and building a value tree per event would add
//! allocations to every traced emission. [`crate::shape`] reads the lines
//! back with `Json`.

use crate::event::Event;
use crate::handle::Sink;

use std::io::Write;
use std::sync::Mutex;

/// Serialize one event as a single JSON object line (no trailing newline).
#[must_use]
pub fn event_line(event: &Event) -> String {
    match *event {
        Event::SpanBegin {
            id,
            parent,
            kind,
            label,
            index,
            t_us,
        } => format!(
            "{{\"ev\":\"span_begin\",\"id\":{id},\"parent\":{parent},\"kind\":\"{}\",\"label\":\"{label}\",\"index\":{index},\"t_us\":{t_us}}}",
            kind.name()
        ),
        Event::SpanEnd { id, dur_us } => {
            format!("{{\"ev\":\"span_end\",\"id\":{id},\"dur_us\":{dur_us}}}")
        }
        Event::Counter { span, metric, delta } => format!(
            "{{\"ev\":\"counter\",\"span\":{span},\"metric\":\"{}\",\"delta\":{delta}}}",
            metric.name()
        ),
        Event::Gauge { span, metric, value } => format!(
            "{{\"ev\":\"gauge\",\"span\":{span},\"metric\":\"{}\",\"value\":{value}}}",
            metric.name()
        ),
        Event::Detect { span, time, newly } => {
            format!("{{\"ev\":\"detect\",\"span\":{span},\"time\":{time},\"newly\":{newly}}}")
        }
        Event::Degrade { span, scope, index } => {
            format!("{{\"ev\":\"degrade\",\"span\":{span},\"scope\":\"{scope}\",\"index\":{index}}}")
        }
    }
}

/// Serialize a slice of events as JSONL text (one line per event, trailing
/// newline included when non-empty).
#[must_use]
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_line(event));
        out.push('\n');
    }
    out
}

/// A sink that writes one JSON line per event to any `Write` target.
///
/// Writes are buffered internally by the caller-supplied writer if desired;
/// the sink flushes on drop. I/O errors after construction are swallowed
/// (tracing must never abort the flow being traced).
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a writer. Use `std::io::BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record(&self, event: &Event) {
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        let _ = writeln!(writer, "{}", event_line(event));
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
    }
}
