//! Exporters: a Prometheus-style text snapshot of the metrics registry and
//! a JSON-lines rendering of the span ring buffer. Both are pull-based —
//! callers decide when and where snapshots go (stdout, a `--obs-dump`
//! file, a test assertion).

use crate::metrics::registry;
use crate::FinishedSpan;
use std::fmt::Write;
use wire::{to_json_string, Value};

/// Sanitizes a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and dashes become underscores.
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders every registered metric as Prometheus-style exposition text:
/// counters and gauges as single samples, histograms as `{quantile=..}`
/// samples plus `_count`, `_sum`, and `_max`.
pub fn render_text() -> String {
    let mut out = String::new();
    for (name, counter) in registry().counters() {
        let n = prom_name(&name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {}", counter.value());
    }
    for (name, gauge) in registry().gauges() {
        let n = prom_name(&name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", fmt_f64(gauge.value()));
    }
    for (name, histogram) in registry().histograms() {
        let n = prom_name(&name);
        let _ = writeln!(out, "# TYPE {n} summary");
        let (p50, p90, p95, p99, max) = histogram.summary();
        for (q, v) in [("0.5", p50), ("0.9", p90), ("0.95", p95), ("0.99", p99)] {
            let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", fmt_f64(v));
        }
        let _ = writeln!(out, "{n}_count {}", histogram.count());
        let _ = writeln!(out, "{n}_sum {}", fmt_f64(histogram.sum_secs()));
        let _ = writeln!(out, "{n}_max {}", fmt_f64(max));
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// A JSON object with `fields` in order.
pub(crate) fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One JSON document per line.
pub(crate) fn json_lines(values: impl IntoIterator<Item = Value>) -> String {
    let mut out = String::new();
    for value in values {
        out.push_str(&to_json_string(&value));
        out.push('\n');
    }
    out
}

/// A trace or span id as the dump writes it: 16 lowercase hex digits.
pub(crate) fn hex_id(id: u64) -> Value {
    Value::Str(format!("{id:016x}"))
}

fn span_value(span: FinishedSpan) -> Value {
    object([
        ("trace", hex_id(span.trace_id)),
        ("span", hex_id(span.span_id)),
        ("parent", span.parent_id.map_or(Value::Null, hex_id)),
        ("name", Value::Str(span.name)),
        ("start_ns", Value::U64(span.start_ns)),
        ("end_ns", Value::U64(span.end_ns)),
        ("annotations", span.annotations.into()),
    ])
}

/// Renders the span ring buffer as JSON lines — one span object per line,
/// oldest first. Suitable for `--obs-dump` files and offline trace
/// reconstruction.
pub fn spans_json() -> String {
    json_lines(crate::finished_spans().into_iter().map(span_value))
}

/// [`spans_json`] preceded by a one-line meta header identifying the
/// dumping process and anchoring its span timestamps to unix time:
///
/// ```json
/// {"meta":{"process":"writer","pid":123,"epoch_unix_ns":...,"skew_ns":0}}
/// ```
///
/// This is the on-disk format `obs::traceview` assembles multi-process
/// traces from; `skew_ns` carries the net handshake's clock-offset estimate.
pub fn spans_json_with_meta(process: &str) -> String {
    let meta = object([
        ("process", process.into()),
        ("pid", std::process::id().into()),
        ("epoch_unix_ns", crate::epoch_unix_ns().into()),
        ("skew_ns", crate::clock_skew_ns().into()),
    ]);
    let mut out = json_lines([object([("meta", meta)])]);
    out.push_str(&spans_json());
    out
}

/// Monotonic scrape snapshot for the `/snapshot` admin endpoint: one JSON
/// object carrying a per-process sequence number (so a scraper can order
/// scrapes and detect restarts), raw counter/gauge values, and full
/// histogram state — bucket occupancy as sparse `[index, count]` pairs, so
/// a collector that subtracts two scrapes gets the window's distribution.
/// A non-finite gauge reads `0.0`.
pub fn snapshot_json() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);

    let counters: Value = registry()
        .counters()
        .into_iter()
        .map(|(name, counter)| (name, counter.value().into()))
        .collect();
    let gauges: Value = registry()
        .gauges()
        .into_iter()
        .map(|(name, gauge)| {
            let v = gauge.value();
            (name, Value::F64(if v.is_finite() { v } else { 0.0 }))
        })
        .collect();
    let histograms: Value = registry()
        .histograms()
        .into_iter()
        .map(|(name, histogram)| {
            let snap = histogram.snapshot();
            let buckets = snap
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(idx, &c)| vec![Value::from(idx), c.into()].into())
                .collect();
            let state = object([
                ("count", snap.count.into()),
                ("sum_ns", snap.sum_ns.into()),
                ("max_ns", snap.max_ns.into()),
                ("buckets", Value::List(buckets)),
            ]);
            (name, state)
        })
        .collect();
    to_json_string(&object([
        ("seq", seq.into()),
        ("unix_ns", crate::unix_now_ns().into()),
        ("process", crate::process_label().into()),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_snapshot_contains_all_metric_kinds() {
        crate::counter("export.requests_total").add(3);
        crate::gauge("export.pool_size").set(4.0);
        let h = crate::histogram("export.latency_seconds");
        h.record_secs(0.010);
        h.record_secs(0.020);

        let text = render_text();
        assert!(text.contains("# TYPE export_requests_total counter"));
        assert!(text.contains("export_requests_total 3"));
        assert!(text.contains("# TYPE export_pool_size gauge"));
        assert!(text.contains("export_pool_size 4.0"));
        assert!(text.contains("export_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("export_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("export_latency_seconds_count 2"));
        assert!(text.contains("export_latency_seconds_max"));
    }

    #[test]
    fn prom_names_are_sanitized() {
        assert_eq!(
            prom_name("mq.queue.publish-total"),
            "mq_queue_publish_total"
        );
        assert_eq!(prom_name("9lives"), "_9lives");
    }

    #[test]
    fn meta_header_prefixes_span_dump() {
        let dump = spans_json_with_meta("unit-test");
        let first = dump.lines().next().expect("non-empty dump");
        assert!(first.starts_with("{\"meta\":{\"process\":\"unit-test\""));
        assert!(first.contains("\"epoch_unix_ns\":"));
        assert!(first.contains("\"skew_ns\":"));
    }

    #[test]
    fn snapshot_json_carries_monotone_seq_and_sparse_buckets() {
        let h = crate::histogram("export.snapshot_seconds");
        h.record_secs(0.005);
        let a = snapshot_json();
        let b = snapshot_json();
        let seq_of = |s: &str| -> u64 {
            let rest = s.strip_prefix("{\"seq\":").expect("seq first");
            rest[..rest.find(',').unwrap()].parse().unwrap()
        };
        assert!(seq_of(&b) > seq_of(&a), "sequence must advance per scrape");
        assert!(a.contains("\"export.snapshot_seconds\":{\"count\":"));
        assert!(a.contains("\"buckets\":[["));
    }

    #[test]
    fn span_json_lines_are_well_formed() {
        let mut span = crate::Span::start("export.json \"quoted\"");
        span.note("line\nbreak");
        let trace = span.context().trace_id;
        span.finish();
        let json = spans_json();
        let line = json
            .lines()
            .find(|l| l.contains(&format!("{trace:016x}")))
            .expect("span line present");
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.contains("line\\nbreak"));
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"parent\":null"));
    }
}
