//! Offline trace assembly: merges per-process span dumps into fleet-wide
//! traces, exports Chrome trace-event JSON (loadable in `chrome://tracing`
//! or Perfetto), and computes the commit critical path — where each
//! millisecond of one `commit_request` RPC went.
//!
//! Input is the [`crate::spans_json_with_meta`] format: a meta header line
//! anchoring the process's monotonic span clock to unix time (plus the net
//! handshake's clock-skew estimate), then one span per line. Alignment adds
//! `epoch_unix_ns + skew_ns` to every timestamp, which places all processes
//! on the broker server's timeline; the critical-path decomposition then
//! telescopes — its six segments partition the root span exactly, so they
//! sum to the end-to-end latency by construction (modulo clamping of
//! skew-inverted boundaries to zero).

use crate::FinishedSpan;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Minimal JSON value + parser (std-only; integers kept exact)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Integers are held exactly (span timestamps exceed
/// `f64`'s 53-bit mantissa), everything else is the usual tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number written without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// A human-readable description with a byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Non-negative integer payload.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Signed integer payload.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => i64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Numeric payload (integer or float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Array elements, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pair handling: a high surrogate must
                            // be followed by `\uDC00..\uDFFF`.
                            let c = if (0xd800..0xdc00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xd800) << 10)
                                        + (low.wrapping_sub(0xdc00) & 0x3ff);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash, checked
                    // once; checking the rest of the line per character made
                    // a long line quadratic. An unterminated run is reported
                    // by the next turn of the loop.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|_| "invalid utf-8")?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .ok_or("truncated \\u escape")?;
        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if integral {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

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
        let value = Json::parse(line).map_err(|e| format!("line {}: {e}", index + 1))?;
        if let Some(meta) = value.get("meta") {
            if let Some(p) = meta.get("process").and_then(Json::as_str) {
                dump.process = p.to_string();
            }
            dump.pid = meta.get("pid").and_then(Json::as_u64).unwrap_or(0);
            dump.epoch_unix_ns = meta
                .get("epoch_unix_ns")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            dump.skew_ns = meta.get("skew_ns").and_then(Json::as_i64).unwrap_or(0);
            continue;
        }
        let hex_field = |key: &str| -> Result<u64, String> {
            let s = value
                .get(key)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing `{key}`", index + 1))?;
            u64::from_str_radix(s, 16).map_err(|e| format!("line {}: bad `{key}`: {e}", index + 1))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: missing `{key}`", index + 1))
        };
        let parent_id = match value.get("parent") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(
                u64::from_str_radix(s, 16)
                    .map_err(|e| format!("line {}: bad `parent`: {e}", index + 1))?,
            ),
            Some(_) => return Err(format!("line {}: bad `parent`", index + 1)),
        };
        dump.spans.push(FinishedSpan {
            trace_id: hex_field("trace")?,
            span_id: hex_field("span")?,
            parent_id,
            name: value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: missing `name`", index + 1))?
                .to_string(),
            start_ns: num_field("start_ns")?,
            end_ns: num_field("end_ns")?,
            annotations: value
                .get("annotations")
                .and_then(Json::as_array)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(|a| a.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
        });
    }
    Ok(dump)
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
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |event: String, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&event);
    };

    let mut seen_pids: Vec<u64> = Vec::new();
    for trace in traces {
        for span in &trace.spans {
            if !seen_pids.contains(&span.pid) {
                seen_pids.push(span.pid);
                emit(
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                         \"args\":{{\"name\":\"{}\"}}}}",
                        span.pid,
                        crate::export::json_escape(&span.process)
                    ),
                    &mut out,
                );
            }
        }
    }
    for (lane, trace) in traces.iter().enumerate() {
        for span in &trace.spans {
            let ts_us = span.start_unix_ns.saturating_sub(base) as f64 / 1e3;
            let dur_us = span.end_unix_ns.saturating_sub(span.start_unix_ns) as f64 / 1e3;
            let annotations = span
                .span
                .annotations
                .iter()
                .map(|a| crate::export::json_escape(a))
                .collect::<Vec<_>>()
                .join("; ");
            emit(
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{ts_us:.3},\
                     \"dur\":{dur_us:.3},\"pid\":{},\"tid\":{},\"args\":{{\
                     \"trace\":\"{:016x}\",\"span\":\"{:016x}\",\"annotations\":\"{annotations}\"}}}}",
                    crate::export::json_escape(&span.span.name),
                    span.pid,
                    lane + 1,
                    trace.trace_id,
                    span.span.span_id,
                ),
                &mut out,
            );
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
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

    #[test]
    fn json_parser_handles_the_dump_grammar() {
        let v = Json::parse(
            r#"{"a":null,"b":true,"big":1722180000000000123,"neg":-5,"f":1.5e3,
                "s":"he\"llo\nworld é","arr":[1,2,[]],"o":{}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a"), Some(&Json::Null));
        assert_eq!(v.get("b"), Some(&Json::Bool(true)));
        // Exact past 2^53: this is why integers are not parsed as f64.
        assert_eq!(
            v.get("big").and_then(Json::as_u64),
            Some(1_722_180_000_000_000_123)
        );
        assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-5));
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1500.0));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("he\"llo\nworld é"));
        assert_eq!(
            v.get("arr").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        assert!(Json::parse("{\"unterminated\":").is_err());
        assert!(Json::parse("[1,2] trailing").is_err());
        assert!(Json::parse("\"no closing quote é").is_err());
    }

    /// With a scanner that re-validates the rest of the line per character
    /// this does not finish in minutes.
    #[test]
    fn megabytes_of_string_parse_in_linear_time() {
        let plain = "span é ".repeat(2 * 1024 * 1024 / 8);
        let escaped = "fifteen plain b\\n".repeat(1024 * 1024 / 17);
        let v = Json::parse(&format!("[\"{plain}\",\"{escaped}\"]")).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_str(), Some(plain.as_str()));
        assert_eq!(
            items[1].as_str(),
            Some("fifteen plain b\n".repeat(1024 * 1024 / 17).as_str())
        );
    }

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
        let parsed = Json::parse(&chrome).expect("chrome export must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 7 spans + 2 process_name metadata events.
        assert_eq!(events.len(), 9);
        let complete = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(complete, 7);
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    == Some("writer")
        }));
        // The viewer opens at t=0: the earliest event is rebased.
        assert!(chrome.contains("\"ts\":0.000"));
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
