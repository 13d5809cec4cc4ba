//! Structured events: typed key/value records fanned out to sinks.
//!
//! The slow-query log rides on this: the db layer emits a `slow_query`
//! event with the SQL, latency, and row counts; whatever sink is
//! installed decides where it goes. The bundled [`RingBufferSink`] keeps
//! the last N events in memory with text and JSON export.

use std::fmt;
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::{Mutex, RwLock};
use std::sync::{Arc, OnceLock};

use crate::BoundedLog;

/// Event importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Debug,
    Info,
    Warn,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
        }
    }
}

/// A single typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Wall-clock microseconds since the Unix epoch.
    pub timestamp_micros: u64,
    pub severity: Severity,
    /// Machine-matchable kind, e.g. `"slow_query"`.
    pub kind: &'static str,
    /// Span path active on the emitting thread, `""` outside any span.
    pub span_path: String,
    /// Active trace id on the emitting thread, 0 when tracing is off or
    /// no trace is active — lets log lines be joined to their trace.
    pub trace_id: u64,
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Build an event stamped with now, the current span path, and the
    /// active trace id (if causal tracing is on).
    pub fn new(severity: Severity, kind: &'static str) -> Self {
        let timestamp_micros = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        Event {
            timestamp_micros,
            severity,
            kind,
            span_path: crate::span::current_path(),
            trace_id: crate::trace::current_trace_id().map(|t| t.0).unwrap_or(0),
            fields: Vec::new(),
        }
    }

    /// Attach a field (builder-style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Value of the first field named `key`.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// One-line human-readable rendering.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "[{}us] {} {}",
            self.timestamp_micros,
            self.severity.as_str(),
            self.kind
        );
        if !self.span_path.is_empty() {
            out.push_str(" @");
            out.push_str(&self.span_path);
        }
        if self.trace_id != 0 {
            out.push_str(&format!(" trace={:016x}", self.trace_id));
        }
        for (k, v) in &self.fields {
            match v {
                FieldValue::Str(s) => {
                    out.push_str(&format!(" {k}={s:?}"));
                }
                other => out.push_str(&format!(" {k}={other}")),
            }
        }
        out
    }

    /// JSON object rendering (hand-rolled; no serde in this build).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"ts_us\":{},\"severity\":\"{}\",\"kind\":\"{}\",\"span\":\"{}\"",
            self.timestamp_micros,
            self.severity.as_str(),
            json_escape(self.kind),
            json_escape(&self.span_path),
        );
        if self.trace_id != 0 {
            out.push_str(&format!(",\"trace\":\"{:016x}\"", self.trace_id));
        }
        for (k, v) in &self.fields {
            out.push_str(",\"");
            out.push_str(&json_escape(k));
            out.push_str("\":");
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::I64(n) => out.push_str(&n.to_string()),
                FieldValue::F64(n) if n.is_finite() => out.push_str(&n.to_string()),
                FieldValue::F64(_) => out.push_str("null"),
                FieldValue::Str(s) => {
                    out.push('"');
                    out.push_str(&json_escape(s));
                    out.push('"');
                }
            }
        }
        out.push('}');
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Receives emitted events. Implementations must tolerate concurrent
/// emitters.
pub trait EventSink: Send + Sync {
    fn accept(&self, event: &Event);
}

/// Keeps the most recent `capacity` events in memory.
pub struct RingBufferSink {
    buf: Mutex<BoundedLog<Event>>,
}

impl RingBufferSink {
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            buf: Mutex::new(BoundedLog::new(capacity)),
        }
    }

    /// Copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.buf.lock().to_vec()
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.buf.lock().drain()
    }

    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All buffered events as text, one per line.
    pub fn export_text(&self) -> String {
        self.buf
            .lock()
            .iter()
            .map(Event::to_text)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// All buffered events as a JSON array.
    pub fn export_json(&self) -> String {
        let body = self
            .buf
            .lock()
            .iter()
            .map(Event::to_json)
            .collect::<Vec<_>>()
            .join(",");
        format!("[{body}]")
    }
}

impl EventSink for RingBufferSink {
    fn accept(&self, event: &Event) {
        self.buf.lock().push(|_| event.clone());
    }
}

fn sinks() -> &'static RwLock<Vec<Arc<dyn EventSink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn EventSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Register a sink; every subsequent [`emit`] reaches it.
pub fn install_sink(sink: Arc<dyn EventSink>) {
    sinks().write().push(sink);
}

/// Remove all sinks (used by [`crate::reset`]).
pub fn clear_sinks() {
    sinks().write().clear();
}

/// Deliver `event` to every installed sink. No-op while telemetry is
/// disabled or when no sink is installed.
pub fn emit(event: Event) {
    if !crate::enabled() {
        return;
    }
    for sink in sinks().read().iter() {
        sink.accept(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_caps_and_drains() {
        let sink = RingBufferSink::new(3);
        for i in 0..5u64 {
            sink.accept(&Event::new(Severity::Info, "evt.test").field("i", i));
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("i"), Some(&FieldValue::U64(2)));
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.is_empty());
    }

    #[test]
    fn text_and_json_exports() {
        let e = Event {
            timestamp_micros: 42,
            severity: Severity::Warn,
            kind: "slow_query",
            span_path: "db.execute".to_string(),
            trace_id: 0,
            fields: vec![
                ("sql", FieldValue::Str("SELECT \"x\"\n".to_string())),
                ("elapsed_ns", FieldValue::U64(1500)),
                ("selectivity", FieldValue::F64(0.5)),
            ],
        };
        let text = e.to_text();
        assert!(text.contains("WARN slow_query @db.execute"), "{text}");
        assert!(text.contains("elapsed_ns=1500"), "{text}");
        assert!(
            !text.contains("trace="),
            "no trace id when untraced: {text}"
        );
        let json = e.to_json();
        assert_eq!(
            json,
            "{\"ts_us\":42,\"severity\":\"WARN\",\"kind\":\"slow_query\",\
             \"span\":\"db.execute\",\"sql\":\"SELECT \\\"x\\\"\\n\",\
             \"elapsed_ns\":1500,\"selectivity\":0.5}"
        );
    }

    #[test]
    fn trace_id_rendered_when_present() {
        let e = Event {
            timestamp_micros: 42,
            severity: Severity::Warn,
            kind: "slow_query",
            span_path: String::new(),
            trace_id: 0xdead_beef,
            fields: vec![],
        };
        assert!(e.to_text().contains("trace=00000000deadbeef"));
        assert!(e.to_json().contains("\"trace\":\"00000000deadbeef\""));
    }

    /// Minimal JSON well-formedness scan: string-aware brace/bracket
    /// balance plus a check that no raw control characters survive.
    fn assert_wellformed_json(s: &str) {
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in s.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                } else {
                    assert!((c as u32) >= 0x20, "raw control char in string: {s}");
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                assert!(depth >= 0, "unbalanced: {s}");
            }
        }
        assert_eq!(depth, 0, "unbalanced: {s}");
        assert!(!in_str, "unterminated string: {s}");
    }

    #[test]
    fn json_escapes_quotes_newlines_and_controls_in_fields() {
        let e = Event {
            timestamp_micros: 1,
            severity: Severity::Warn,
            kind: "slow_query",
            span_path: "db.exec".to_string(),
            trace_id: 7,
            fields: vec![(
                "sql",
                FieldValue::Str("SELECT \"a\",\n\t'b\\c'\u{1} FROM t\r".to_string()),
            )],
        };
        let json = e.to_json();
        assert_wellformed_json(&json);
        assert!(json.contains("\\\"a\\\""), "{json}");
        assert!(json.contains("\\n\\t"), "{json}");
        assert!(json.contains("\\\\c"), "{json}");
        assert!(json.contains("\\u0001"), "{json}");
        assert!(json.contains("\\r"), "{json}");
        assert!(!json.contains('\n'), "raw newline leaked: {json}");
    }

    #[test]
    fn ring_buffer_wraparound_preserves_emission_order() {
        let sink = RingBufferSink::new(4);
        for i in 0..11u64 {
            sink.accept(&Event {
                timestamp_micros: i,
                severity: Severity::Info,
                kind: "evt.wrap",
                span_path: String::new(),
                trace_id: 0,
                fields: vec![("i", FieldValue::U64(i))],
            });
        }
        // After wrapping nearly three times, the newest 4 remain, oldest
        // first, in exactly the order they were emitted.
        let order: Vec<u64> = sink
            .events()
            .iter()
            .map(|e| match e.get("i") {
                Some(FieldValue::U64(v)) => *v,
                other => panic!("unexpected field {other:?}"),
            })
            .collect();
        assert_eq!(order, vec![7, 8, 9, 10]);
        let json = sink.export_json();
        assert_wellformed_json(&json);
    }

    #[test]
    fn emit_reaches_installed_sinks() {
        let _on = crate::enabled_flag_lock().read();
        let sink = Arc::new(RingBufferSink::new(8));
        install_sink(sink.clone());
        emit(Event::new(Severity::Debug, "evt.fanout"));
        assert!(sink.events().iter().any(|e| e.kind == "evt.fanout"));
    }
}
