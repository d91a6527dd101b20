//! Exporters over a [`MemoryRecorder`]: JSONL, chrome://tracing JSON and
//! a human per-phase summary table.
//!
//! All three are pure functions of the recorded events/metrics; each
//! event's name, category, duration and args are derived from its typed
//! [`Event`] here, at export time. Float rendering goes through Rust's
//! `Display` (shortest round-trip form), which is deterministic across
//! runs and platforms. Byte-identity of these strings is the contract
//! the obs determinism and export golden tests pin.

use crate::{Event, EventKind, MemoryRecorder, Metric, MetricValue, MetricsRegistry, Value};
use std::fmt::Write as _;

/// JSONL: one JSON object per line — every event in emission order, then
/// every metric in registry order.
#[must_use]
pub fn to_jsonl(rec: &MemoryRecorder) -> String {
    let mut out = String::new();
    for ev in &rec.events {
        match ev.kind() {
            EventKind::Span { dur_secs } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{}",
                    ev.name(),
                    ev.cat(),
                    ev.ts_secs,
                    dur_secs
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"type\":\"instant\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{}",
                    ev.name(),
                    ev.cat(),
                    ev.ts_secs
                );
            }
        }
        write_args(&mut out, &ev.event);
        out.push_str("}\n");
    }
    for m in rec.metrics.iter() {
        write_metric_json(&mut out, m);
        out.push('\n');
    }
    out
}

fn write_metric_json(out: &mut String, m: &Metric) {
    match &m.value {
        MetricValue::Counter(c) => {
            let _ = write!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{c}}}",
                m.name
            );
        }
        MetricValue::Gauge(g) => {
            let _ = write!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{g}}}",
                m.name
            );
        }
        MetricValue::Histogram(h) => {
            let _ = write!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                m.name,
                h.count,
                h.sum,
                json_f64(h.min),
                json_f64(h.max)
            );
            for (i, b) in h.buckets().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
    }
}

/// chrome://tracing "JSON Object Format": complete (`"X"`) events for
/// spans, global instants (`"i"`) for points. Timestamps and durations
/// are microseconds, as the format requires.
#[must_use]
pub fn to_chrome_trace(rec: &MemoryRecorder) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, ev) in rec.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts_us = ev.ts_secs * 1e6;
        match ev.kind() {
            EventKind::Span { dur_secs } => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{},\"dur\":{}",
                    ev.name(),
                    ev.cat(),
                    ts_us,
                    dur_secs * 1e6
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{}",
                    ev.name(),
                    ev.cat(),
                    ts_us
                );
            }
        }
        write_args(&mut out, &ev.event);
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Human-readable summary: a per-phase timing table derived from the
/// `"phase"` spans, followed by every metric.
#[must_use]
pub fn summary(rec: &MemoryRecorder) -> String {
    let mut out = String::from("per-phase timing\n");
    let mut rows = vec![vec![
        "phase".to_string(),
        "start_s".to_string(),
        "exec_s".to_string(),
        "concurrency".to_string(),
        "pool".to_string(),
    ]];
    for ev in &rec.events {
        let Event::Phase {
            phase,
            concurrency,
            pool,
            exec_secs,
        } = ev.event
        else {
            continue;
        };
        rows.push(vec![
            format!("{phase}"),
            format!("{:.6}", ev.ts_secs),
            format!("{exec_secs:.6}"),
            format!("{concurrency}"),
            format!("{pool}"),
        ]);
    }
    render_table(&mut out, &rows);
    out.push_str("\nmetrics\n");
    render_metrics_table(&mut out, &rec.metrics);
    out
}

/// Renders only the metrics table (used by the sweep-level report, where
/// per-run phase tables would be noise).
#[must_use]
pub fn metrics_summary(metrics: &MetricsRegistry) -> String {
    let mut out = String::new();
    render_metrics_table(&mut out, metrics);
    out
}

fn render_metrics_table(out: &mut String, metrics: &MetricsRegistry) {
    let mut rows = vec![vec!["name".to_string(), "value".to_string()]];
    for m in metrics.iter() {
        let value = match &m.value {
            MetricValue::Counter(c) => format!("{c}"),
            MetricValue::Gauge(g) => format!("{g:.6}"),
            MetricValue::Histogram(h) => {
                if h.count == 0 {
                    "count=0".to_string()
                } else {
                    format!(
                        "count={} sum={:.6} mean={:.6} min={:.6} max={:.6}",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.min,
                        h.max
                    )
                }
            }
        };
        rows.push(vec![m.name.to_string(), value]);
    }
    render_table(out, &rows);
}

fn render_table(out: &mut String, rows: &[Vec<String>]) {
    let cols = rows.iter().map(Vec::len).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let _ = write!(line, "{cell:<width$}", width = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
}

/// The event's `,"args":{…}` (every event carries some).
fn write_args(out: &mut String, event: &Event) {
    out.push_str(",\"args\":{");
    for (i, &(k, v)) in event.args().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        match v {
            Value::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Value::F64(x) => {
                let _ = write!(out, "{}", json_f64(x));
            }
            Value::Str(s) => write_json_str(out, s),
        }
    }
    out.push('}');
}

/// Finite floats render via `Display`; non-finite values (possible only
/// for empty-histogram min/max) render as JSON `null`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn write_json_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> MemoryRecorder {
        let mut r = MemoryRecorder::new();
        let warm = r.declare_counter("starts_warm");
        r.event(
            0.001,
            Event::Phase {
                phase: 0,
                concurrency: 4,
                pool: 4,
                exec_secs: 2.5,
            },
        );
        r.event(
            1.25,
            Event::FaultAttempt {
                phase: 0,
                slot: 1,
                attempt: 0,
                speculative: false,
                fault: Some(crate::label::Fault::InstanceCrash),
                outcome: crate::label::Outcome::Failed,
            },
        );
        r.add(warm, 4);
        let keep_alive = r.declare_histogram("keep_alive_used_secs");
        r.record(keep_alive, 0.75);
        let service = r.declare_gauge("service_time_secs");
        r.set(service, 2.501);
        r
    }

    #[test]
    fn jsonl_lines_are_valid_shape() {
        let s = to_jsonl(&sample());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2 + 3);
        assert!(lines[0].starts_with("{\"type\":\"span\",\"name\":\"phase\""));
        assert!(lines[0].contains("\"args\":{\"phase\":0,\"concurrency\":4,\"pool\":4}"));
        assert!(lines[1].contains("\"fault\":\"InstanceCrash\",\"outcome\":\"Failed\""));
        assert!(lines[2].contains("\"type\":\"counter\""));
        assert!(lines[3].contains("\"type\":\"histogram\""));
        assert!(lines[4].contains("\"type\":\"gauge\""));
    }

    #[test]
    fn chrome_trace_uses_microseconds() {
        let s = to_chrome_trace(&sample());
        assert!(s.starts_with("{\"traceEvents\":[\n"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ts\":1000"), "{s}");
        assert!(s.contains("\"dur\":2500000"), "{s}");
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn summary_has_phase_row_and_metrics() {
        let s = summary(&sample());
        assert!(s.contains("per-phase timing"));
        assert!(s.contains("0      0.001000  2.500000"), "{s}");
        assert!(s.contains("starts_warm"));
        assert!(s.contains("count=1"));
    }

    #[test]
    fn json_strings_escape_controls() {
        let mut out = String::new();
        write_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn exports_are_reproducible() {
        assert_eq!(to_jsonl(&sample()), to_jsonl(&sample()));
        assert_eq!(to_chrome_trace(&sample()), to_chrome_trace(&sample()));
        assert_eq!(summary(&sample()), summary(&sample()));
    }
}
