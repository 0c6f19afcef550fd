//! The borrowed event record and its JSONL serialization.
//!
//! An [`Event`] borrows everything — scope, name, and the field slice —
//! so *constructing* one never allocates. Serialization is the sink's
//! problem: [`crate::NoopSink`] never looks at the fields, which is what
//! keeps instrumented hot loops allocation-free when tracing is off.

use std::fmt::Write as _;

/// What an [`Event`] records. Serialized as the `kind` field of each
/// JSONL line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`name` identifies it; the matching end carries the
    /// duration).
    SpanStart,
    /// A span closed; fields include `dur_ns`.
    SpanEnd,
    /// A monotonic counter sample (`value` is the cumulative count).
    Counter,
    /// An instantaneous measurement.
    Gauge,
    /// A histogram summary + sparse bucket dump (see
    /// [`crate::LogHistogram`]).
    Hist,
    /// A failure, with human-readable context in `message`.
    Error,
    /// A campaign progress heartbeat.
    Progress,
}

impl EventKind {
    /// Wire name of the kind, as written into the JSONL `kind` field.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanStart => "span_start",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
            EventKind::Hist => "hist",
            EventKind::Error => "error",
            EventKind::Progress => "progress",
        }
    }
}

/// A single typed field value, borrowed where it refers to text.
#[derive(Debug, Clone, Copy)]
pub enum FieldValue<'a> {
    /// Unsigned integer (counts, durations in nanoseconds).
    U64(u64),
    /// Floating-point measurement. Non-finite values serialize as `null`.
    F64(f64),
    /// Text, JSON-escaped on serialization.
    Str(&'a str),
    /// Pre-rendered JSON written verbatim (used for sparse histogram
    /// bucket arrays). The caller guarantees it is valid JSON.
    Raw(&'a str),
}

/// One telemetry event. Timestamps are microseconds since the sink's
/// epoch (the moment the campaign's [`crate::Telemetry`] handle was
/// created), so lines within a file are mutually comparable.
#[derive(Debug, Clone, Copy)]
pub struct Event<'a> {
    /// Microseconds since the telemetry epoch.
    pub ts_us: u64,
    /// What this event records.
    pub kind: EventKind,
    /// Hierarchical origin, `/`-separated: `""` for campaign level,
    /// `"fig6-quick"` for a scenario, `"fig6-quick/seed3"` for a job.
    pub scope: &'a str,
    /// Event name within the scope (e.g. `"job"`, `"phase.decide"`).
    pub name: &'a str,
    /// Typed payload fields, serialized in order.
    pub fields: &'a [(&'a str, FieldValue<'a>)],
}

/// Appends `s` to `out` as a JSON string literal (with quotes), escaped
/// per RFC 8259: `"`, `\\` and the control characters, with `\n`, `\r`
/// and `\t` in their short forms and the rest as `\u00XX`.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event<'_> {
    /// Serializes the event as one compact JSON object appended to `out`
    /// (no trailing newline). Keys appear in a fixed order: `ts_us`,
    /// `kind`, `scope`, `name`, then the payload fields.
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"ts_us\":{},\"kind\":", self.ts_us);
        push_json_str(out, self.kind.as_str());
        out.push_str(",\"scope\":");
        push_json_str(out, self.scope);
        out.push_str(",\"name\":");
        push_json_str(out, self.name);
        for (key, value) in self.fields {
            out.push(',');
            push_json_str(out, key);
            out.push(':');
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) if v.is_finite() => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(_) => out.push_str("null"),
                FieldValue::Str(s) => push_json_str(out, s),
                FieldValue::Raw(s) => out.push_str(s),
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializes_fixed_header_and_fields_in_order() {
        let fields = [
            ("dur_ns", FieldValue::U64(1500)),
            ("rate", FieldValue::F64(2.5)),
            ("msg", FieldValue::Str("a \"b\"\nc")),
            ("buckets", FieldValue::Raw("[[1,2]]")),
        ];
        let e = Event {
            ts_us: 42,
            kind: EventKind::SpanEnd,
            scope: "s/seed1",
            name: "job",
            fields: &fields,
        };
        let mut out = String::new();
        e.write_json(&mut out);
        assert_eq!(
            out,
            "{\"ts_us\":42,\"kind\":\"span_end\",\"scope\":\"s/seed1\",\"name\":\"job\",\
             \"dur_ns\":1500,\"rate\":2.5,\"msg\":\"a \\\"b\\\"\\nc\",\"buckets\":[[1,2]]}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let fields = [("x", FieldValue::F64(f64::NAN))];
        let e = Event {
            ts_us: 0,
            kind: EventKind::Gauge,
            scope: "",
            name: "g",
            fields: &fields,
        };
        let mut out = String::new();
        e.write_json(&mut out);
        assert!(out.contains("\"x\":null"));
    }
}
