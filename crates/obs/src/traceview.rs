//! Offline trace assembly: merges per-process span dumps into fleet-wide
//! traces, exports Chrome trace-event JSON (loadable in `chrome://tracing`
//! or Perfetto), and computes the commit critical path — where each
//! millisecond of one `commit_request` RPC went.
//!
//! Input is the [`crate::spans_json_with_meta`] format: a meta header line
//! anchoring the process's monotonic span clock to unix time (plus the net
//! handshake's clock-skew estimate), then one span per line, each decoded
//! with `wire`'s [`JsonCodec`], the codec that wrote it. Alignment adds
//! `epoch_unix_ns + skew_ns` to every timestamp, which places all processes
//! on the broker server's timeline; the critical-path decomposition then
//! telescopes — its six segments partition the root span exactly, so they
//! sum to the end-to-end latency by construction (modulo clamping of
//! skew-inverted boundaries to zero).

use crate::export::{hex_id, object};
use crate::FinishedSpan;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wire::{to_json_string, Codec, JsonCodec, Value, WireError, WireResult};

// ---------------------------------------------------------------------------
// Dump parsing & cross-process assembly
// ---------------------------------------------------------------------------

/// One process's span dump, parsed from the
/// [`crate::spans_json_with_meta`] on-disk format.
#[derive(Debug, Clone)]
pub struct ProcessDump {
    /// Process label from the meta header (`"unknown"` if absent).
    pub process: String,
    /// The dumping process's pid.
    pub pid: u64,
    /// Unix nanoseconds at the process's obs-epoch zero.
    pub epoch_unix_ns: u64,
    /// Handshake-estimated clock skew toward the fleet reference.
    pub skew_ns: i64,
    /// The spans, in ring order.
    pub spans: Vec<FinishedSpan>,
}

/// Parses one span dump. Lines that are not JSON objects (e.g. the
/// Prometheus text section of a combined `--obs-dump` file) are skipped, so
/// both the dedicated `.spans.json` format and the combined dump parse.
///
/// # Errors
///
/// Reports the first malformed JSON object line.
pub fn parse_dump(text: &str) -> Result<ProcessDump, String> {
    let mut dump = ProcessDump {
        process: "unknown".to_string(),
        pid: 0,
        epoch_unix_ns: 0,
        skew_ns: 0,
        spans: Vec::new(),
    };
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with('{') {
            continue;
        }
        let at_line = |e: WireError| format!("line {}: {e}", index + 1);
        let mut value = JsonCodec.decode(line.as_bytes()).map_err(at_line)?;
        if let Ok(meta) = value.field("meta") {
            if let Ok(p) = meta.field("process").and_then(Value::as_str) {
                dump.process = p.to_string();
            }
            dump.pid = meta.field("pid").and_then(Value::as_u64).unwrap_or(0);
            dump.epoch_unix_ns = meta
                .field("epoch_unix_ns")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            dump.skew_ns = meta.field("skew_ns").and_then(Value::as_i64).unwrap_or(0);
            continue;
        }
        dump.spans.push(span_from(&mut value).map_err(at_line)?);
    }
    Ok(dump)
}

/// One span line of the dump, its strings moved out of `value`.
fn span_from(value: &mut Value) -> WireResult<FinishedSpan> {
    let hex = |v: &Value| -> WireResult<u64> {
        let s = v.as_str()?;
        u64::from_str_radix(s, 16).map_err(|e| WireError::Invalid(format!("`{s}`: {e}")))
    };
    let parent_id = match value.get("parent") {
        None | Some(Value::Null) => None,
        Some(parent) => Some(hex(parent)?),
    };
    Ok(FinishedSpan {
        trace_id: hex(value.field("trace")?)?,
        span_id: hex(value.field("span")?)?,
        parent_id,
        name: value.take_field("name")?.into_string()?,
        start_ns: value.field("start_ns")?.as_u64()?,
        end_ns: value.field("end_ns")?.as_u64()?,
        annotations: value
            .take_field("annotations")
            .and_then(Value::into_list)
            .map(|items| {
                items
                    .into_iter()
                    .filter_map(|a| a.into_string().ok())
                    .collect()
            })
            .unwrap_or_default(),
    })
}

/// A span placed on the shared unix timeline.
#[derive(Debug, Clone)]
pub struct AlignedSpan {
    /// Label of the process that recorded the span.
    pub process: String,
    /// That process's pid.
    pub pid: u64,
    /// Aligned start, unix nanoseconds.
    pub start_unix_ns: u64,
    /// Aligned end, unix nanoseconds.
    pub end_unix_ns: u64,
    /// The span as recorded.
    pub span: FinishedSpan,
}

/// One assembled cross-process trace.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The shared trace id.
    pub trace_id: u64,
    /// Member spans, sorted by aligned start.
    pub spans: Vec<AlignedSpan>,
}

impl Trace {
    /// Distinct process labels contributing spans to this trace.
    pub fn processes(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.process.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Merges per-process dumps by `trace_id`, aligning every timestamp with
/// the dump's epoch anchor plus its skew estimate. Traces come back sorted
/// by earliest aligned start.
pub fn assemble(dumps: &[ProcessDump]) -> Vec<Trace> {
    let mut by_trace: BTreeMap<u64, Vec<AlignedSpan>> = BTreeMap::new();
    for dump in dumps {
        let base = dump.epoch_unix_ns as i128 + i128::from(dump.skew_ns);
        for span in &dump.spans {
            let align =
                |ns: u64| -> u64 { (base + ns as i128).clamp(0, i128::from(u64::MAX)) as u64 };
            by_trace
                .entry(span.trace_id)
                .or_default()
                .push(AlignedSpan {
                    process: dump.process.clone(),
                    pid: dump.pid,
                    start_unix_ns: align(span.start_ns),
                    end_unix_ns: align(span.end_ns),
                    span: span.clone(),
                });
        }
    }
    let mut traces: Vec<Trace> = by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| s.start_unix_ns);
            Trace { trace_id, spans }
        })
        .collect();
    traces.sort_by_key(|t| t.spans.first().map_or(0, |s| s.start_unix_ns));
    traces
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Renders assembled traces as Chrome trace-event JSON (the object form,
/// `{"traceEvents":[...]}`) loadable in `chrome://tracing` and Perfetto.
/// Timestamps are rebased to the earliest span so the viewer opens at t=0;
/// each span becomes a complete (`"ph":"X"`) event under its process, and
/// each trace gets its own thread lane.
pub fn chrome_trace_json(traces: &[Trace]) -> String {
    let base = traces
        .iter()
        .flat_map(|t| t.spans.first())
        .map(|s| s.start_unix_ns)
        .min()
        .unwrap_or(0);
    let mut events = Vec::new();
    let mut seen_pids: Vec<u64> = Vec::new();
    for span in traces.iter().flat_map(|t| &t.spans) {
        if !seen_pids.contains(&span.pid) {
            seen_pids.push(span.pid);
            events.push(object([
                ("name", "process_name".into()),
                ("ph", "M".into()),
                ("pid", span.pid.into()),
                ("tid", 0u64.into()),
                ("args", object([("name", span.process.as_str().into())])),
            ]));
        }
    }
    for (lane, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            let ts_us = span.start_unix_ns.saturating_sub(base) as f64 / 1e3;
            let dur_us = span.end_unix_ns.saturating_sub(span.start_unix_ns) as f64 / 1e3;
            let args = object([
                ("trace", hex_id(trace.trace_id)),
                ("span", hex_id(span.span.span_id)),
                ("annotations", span.span.annotations.join("; ").into()),
            ]);
            events.push(object([
                ("name", span.span.name.as_str().into()),
                ("cat", "span".into()),
                ("ph", "X".into()),
                ("ts", ts_us.into()),
                ("dur", dur_us.into()),
                ("pid", span.pid.into()),
                ("tid", (lane + 1).into()),
                ("args", args),
            ]));
        }
    }
    to_json_string(&object([
        ("traceEvents", Value::List(events)),
        ("displayTimeUnit", "ms".into()),
    ]))
}

// ---------------------------------------------------------------------------
// Commit critical path
// ---------------------------------------------------------------------------

/// The six named segments a commit's wall time is attributed to, in path
/// order.
pub const COMMIT_SEGMENTS: [&str; 6] = [
    "client encode",
    "socket",
    "queue wait",
    "shard lock wait",
    "txn",
    "reply",
];

/// Wall-time attribution for one commit RPC.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Trace the attribution came from (0 for an aggregate).
    pub trace_id: u64,
    /// Number of commits aggregated (1 for a single trace).
    pub commits: usize,
    /// End-to-end commit latency (call start → path end), seconds.
    pub e2e_secs: f64,
    /// `(segment name, seconds)` in [`COMMIT_SEGMENTS`] order.
    pub segments: Vec<(String, f64)>,
}

impl CriticalPath {
    /// Sum of the six segments, seconds (equals `e2e_secs` up to clamping).
    pub fn segment_sum_secs(&self) -> f64 {
        self.segments.iter().map(|(_, s)| s).sum()
    }
}

/// Decomposes one assembled trace into the commit critical path, walking
/// the span chain `omq.call_sync → proxy.publish / queue.wait →
/// skeleton.dispatch → handler.exec → meta.lock_wait / meta.txn`. The six
/// segments partition the commit's aligned interval:
///
/// * client encode — call start → request flushed (`proxy.publish` end)
/// * socket        — wire + server decode, until the broker enqueues
/// * queue wait    — the broker-side `queue.wait` span
/// * shard lock    — dispatch + waiting on the workspace shard mutex
/// * txn           — the ACID commit under the shard lock
/// * reply         — reply publish, wire back, client wakeup
///
/// StackSync's production commit is `@AsyncMethod` (fire-and-forget, the
/// ack arrives as a notification), so a trace rooted at `omq.call_async`
/// qualifies too; its root span ends at publish-return, and the path then
/// runs to the end of the server-side handler — the "reply" segment is the
/// post-transaction handler work (notification fan-out) instead of a wire
/// round-trip.
///
/// `None` if the trace is not a commit or a link of the chain is missing.
pub fn commit_critical_path(trace: &Trace) -> Option<CriticalPath> {
    let root = trace.spans.iter().find(|s| {
        (s.span.name == "omq.call_sync" || s.span.name == "omq.call_async")
            && s.span.parent_id.is_none()
            && s.span
                .annotations
                .iter()
                .any(|a| a == "method:commit_request")
    })?;
    let child = |name: &str, parent: u64| {
        trace
            .spans
            .iter()
            .find(|s| s.span.name == name && s.span.parent_id == Some(parent))
    };
    let publish = child("proxy.publish", root.span.span_id)?;
    let queue_wait = child("queue.wait", root.span.span_id)?;
    let dispatch = child("skeleton.dispatch", queue_wait.span.span_id)?;
    let exec = child("handler.exec", dispatch.span.span_id)?;
    let lock_wait = child("meta.lock_wait", exec.span.span_id)?;
    let txn = child("meta.txn", exec.span.span_id)?;

    // Sync commits end at the root (client wakeup); async commits end at
    // the server handler, which outlives the fire-and-forget root span.
    let path_end = root.end_unix_ns.max(exec.end_unix_ns);
    // Over a real transport the publish *ack* returns after the server has
    // already enqueued, so `publish.end` can fall inside later segments;
    // floor the first boundary at enqueue time (the ack wait is off the
    // commit's critical path) and force the waterfall monotone so the six
    // segments partition — and telescope exactly to — the path interval.
    let mut boundaries = [
        root.start_unix_ns,
        publish.end_unix_ns.min(queue_wait.start_unix_ns),
        queue_wait.start_unix_ns,
        queue_wait.end_unix_ns,
        lock_wait.end_unix_ns,
        txn.end_unix_ns,
        path_end,
    ];
    for i in 1..boundaries.len() {
        boundaries[i] = boundaries[i].max(boundaries[i - 1]);
    }
    let segments = COMMIT_SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ns = boundaries[i + 1].saturating_sub(boundaries[i]);
            ((*name).to_string(), ns as f64 / 1e9)
        })
        .collect();
    Some(CriticalPath {
        trace_id: trace.trace_id,
        commits: 1,
        e2e_secs: boundaries[6].saturating_sub(boundaries[0]) as f64 / 1e9,
        segments,
    })
}

/// Averages several per-commit critical paths into one aggregate row set.
pub fn mean_critical_path(paths: &[CriticalPath]) -> Option<CriticalPath> {
    if paths.is_empty() {
        return None;
    }
    let n = paths.len() as f64;
    let segments = COMMIT_SEGMENTS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mean = paths.iter().map(|p| p.segments[i].1).sum::<f64>() / n;
            ((*name).to_string(), mean)
        })
        .collect();
    Some(CriticalPath {
        trace_id: 0,
        commits: paths.len(),
        e2e_secs: paths.iter().map(|p| p.e2e_secs).sum::<f64>() / n,
        segments,
    })
}

/// Renders a critical path as a fixed-width console table with per-segment
/// share of the end-to-end latency.
pub fn render_critical_path(path: &CriticalPath) -> String {
    let mut out = String::new();
    if path.commits > 1 {
        let _ = writeln!(
            out,
            "commit critical path (mean of {} commits)",
            path.commits
        );
    } else {
        let _ = writeln!(out, "commit critical path (trace {:016x})", path.trace_id);
    }
    let _ = writeln!(out, "{:<16} {:>10} {:>8}", "segment", "ms", "share");
    for (name, secs) in &path.segments {
        let share = if path.e2e_secs > 0.0 {
            100.0 * secs / path.e2e_secs
        } else {
            0.0
        };
        let _ = writeln!(out, "{name:<16} {:>10.3} {share:>7.1}%", secs * 1e3);
    }
    let sum = path.segment_sum_secs();
    let share = if path.e2e_secs > 0.0 {
        100.0 * sum / path.e2e_secs
    } else {
        0.0
    };
    let _ = writeln!(out, "{:<16} {:>10.3} {share:>7.1}%", "sum", sum * 1e3);
    let _ = writeln!(out, "{:<16} {:>10.3}", "end-to-end", path.e2e_secs * 1e3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the writer + server dump pair for one synthetic commit with
    /// microsecond-exact boundaries, exercising every layer: parse, align
    /// (including a skewed client clock), assemble, decompose.
    fn synthetic_dumps() -> (String, String) {
        // Server timeline (unix ns): epoch 1_000_000, spans relative to it.
        let server = "\
{\"meta\":{\"process\":\"driver\",\"pid\":2,\"epoch_unix_ns\":1000000,\"skew_ns\":0}}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000003\",\"parent\":\"0000000000000001\",\"name\":\"queue.wait\",\"start_ns\":3000,\"end_ns\":4000,\"annotations\":[]}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000004\",\"parent\":\"0000000000000003\",\"name\":\"skeleton.dispatch\",\"start_ns\":4000,\"end_ns\":9000,\"annotations\":[]}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000005\",\"parent\":\"0000000000000004\",\"name\":\"handler.exec\",\"start_ns\":4100,\"end_ns\":8000,\"annotations\":[\"ws:w1\"]}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000006\",\"parent\":\"0000000000000005\",\"name\":\"meta.lock_wait\",\"start_ns\":4200,\"end_ns\":5000,\"annotations\":[]}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000007\",\"parent\":\"0000000000000005\",\"name\":\"meta.txn\",\"start_ns\":5000,\"end_ns\":7000,\"annotations\":[]}
";
        // Client timeline: epoch 500_000 with skew +500_000 → same as server.
        let client = "\
{\"meta\":{\"process\":\"writer\",\"pid\":1,\"epoch_unix_ns\":500000,\"skew_ns\":500000}}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000001\",\"parent\":null,\"name\":\"omq.call_sync\",\"start_ns\":0,\"end_ns\":10000,\"annotations\":[\"oid:sync\",\"method:commit_request\"]}
{\"trace\":\"00000000000000aa\",\"span\":\"0000000000000002\",\"parent\":\"0000000000000001\",\"name\":\"proxy.publish\",\"start_ns\":500,\"end_ns\":2000,\"annotations\":[]}
";
        (client.to_string(), server.to_string())
    }

    #[test]
    fn assembles_one_trace_across_skewed_processes() {
        let (client, server) = synthetic_dumps();
        let dumps = [parse_dump(&client).unwrap(), parse_dump(&server).unwrap()];
        assert_eq!(dumps[0].process, "writer");
        assert_eq!(dumps[0].skew_ns, 500_000);
        let traces = assemble(&dumps);
        assert_eq!(traces.len(), 1, "one shared trace id, one trace");
        let trace = &traces[0];
        assert_eq!(trace.trace_id, 0xaa);
        assert_eq!(trace.spans.len(), 7);
        assert_eq!(trace.processes(), vec!["driver", "writer"]);
        // Alignment: client span 0 lands at 500000+500000+0 = server epoch.
        assert_eq!(trace.spans[0].span.name, "omq.call_sync");
        assert_eq!(trace.spans[0].start_unix_ns, 1_000_000);
    }

    #[test]
    fn critical_path_telescopes_to_the_exact_e2e() {
        let (client, server) = synthetic_dumps();
        let dumps = [parse_dump(&client).unwrap(), parse_dump(&server).unwrap()];
        let traces = assemble(&dumps);
        let path = commit_critical_path(&traces[0]).expect("commit trace decomposes");
        assert_eq!(path.e2e_secs, 10_000.0 / 1e9);
        // Boundaries: 0, 2000, 3000, 4000, 5000, 7000, 10000 (aligned ns).
        let expect = [2000.0, 1000.0, 1000.0, 1000.0, 2000.0, 3000.0];
        for ((name, secs), (want_name, want_ns)) in
            path.segments.iter().zip(COMMIT_SEGMENTS.iter().zip(expect))
        {
            assert_eq!(name, want_name);
            assert!(
                (secs - want_ns / 1e9).abs() < 1e-15,
                "{name}: {secs} != {want_ns}ns"
            );
        }
        assert!((path.segment_sum_secs() - path.e2e_secs).abs() < 1e-15);

        let table = render_critical_path(&path);
        assert!(table.contains("shard lock wait"));
        assert!(table.contains("end-to-end"));

        let mean = mean_critical_path(&[path.clone(), path]).unwrap();
        assert_eq!(mean.commits, 2);
        assert!((mean.e2e_secs - 10_000.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn chrome_export_is_valid_json_with_complete_events() {
        let (client, server) = synthetic_dumps();
        let dumps = [parse_dump(&client).unwrap(), parse_dump(&server).unwrap()];
        let traces = assemble(&dumps);
        let chrome = chrome_trace_json(&traces);
        let parsed = JsonCodec
            .decode(chrome.as_bytes())
            .expect("chrome export must be valid JSON");
        let events = parsed
            .field("traceEvents")
            .and_then(Value::as_list)
            .expect("traceEvents array");
        // 7 spans + 2 process_name metadata events.
        assert_eq!(events.len(), 9);
        let complete = events
            .iter()
            .filter(|e| e.field("ph").and_then(Value::as_str) == Ok("X"))
            .count();
        assert_eq!(complete, 7);
        assert!(events.iter().any(|e| {
            e.field("ph").and_then(Value::as_str) == Ok("M")
                && e.field("args")
                    .and_then(|a| a.field("name"))
                    .and_then(Value::as_str)
                    == Ok("writer")
        }));
        // The viewer opens at t=0: the earliest event is rebased.
        assert!(chrome.contains("\"ts\":0.0,"));
    }

    #[test]
    fn parse_dump_skips_non_json_lines() {
        let combined = "# TYPE foo counter\nfoo 3\n# spans\n\
{\"trace\":\"0000000000000001\",\"span\":\"0000000000000002\",\"parent\":null,\"name\":\"x\",\"start_ns\":1,\"end_ns\":2,\"annotations\":[]}\n";
        let dump = parse_dump(combined).unwrap();
        assert_eq!(dump.process, "unknown");
        assert_eq!(dump.spans.len(), 1);
        assert_eq!(dump.spans[0].name, "x");
    }
}
