//! Golden output of obs's six JSON emitters on fixed input, with names,
//! annotations and messages that need every kind of JSON escape.
//!
//! Span lines, the meta header, flight-recorder lines and `/healthz` are
//! compared byte for byte. The metrics snapshot and the Chrome export are
//! compared as decoded values with every number read as `f64`, so the
//! spelling of a float (`3` or `3.0`, `1234.567` or `1234.5670`) is free
//! but its value is not.

use obs::traceview::{assemble, chrome_trace_json, parse_dump, ProcessDump};
use obs::{FinishedSpan, Span, SpanContext};
use std::io::{Read, Write};
use std::net::TcpStream;
use wire::{Codec, JsonCodec, Value};

/// A quote, a backslash, a newline, a control byte below 0x20, a two-byte
/// scalar and an emoji.
const HOSTILE: &str = "q\"b\\n\nc\u{1}é😀";
/// [`HOSTILE`] as a JSON string body.
const HOSTILE_JSON: &str = r#"q\"b\\n\nc\u0001é😀"#;

/// The skew every test in this file sets (they share the process global).
const SKEW_NS: i64 = -1234;

fn decode(text: &str) -> Value {
    JsonCodec
        .decode(text.as_bytes())
        .unwrap_or_else(|e| panic!("not one JSON document ({e}): {text}"))
}

/// `v` with every number as `F64`: the comparison for value goldens.
fn numbers_as_f64(v: Value) -> Value {
    match v {
        Value::I64(_) | Value::U64(_) => Value::F64(v.as_f64().unwrap()),
        Value::List(items) => Value::List(items.into_iter().map(numbers_as_f64).collect()),
        Value::Map(entries) => Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k, numbers_as_f64(v)))
                .collect(),
        ),
        other => other,
    }
}

fn assert_same_value(got: Value, golden: &str) {
    assert_eq!(numbers_as_f64(got), numbers_as_f64(decode(golden)));
}

/// The lines of a JSON-lines dump that mention `needle`.
fn lines_with<'a>(text: &'a str, needle: &str) -> Vec<&'a str> {
    text.lines().filter(|l| l.contains(needle)).collect()
}

/// Records two spans of trace `trace_id` (one with fixed times, one
/// annotated) and a root span, and returns the three as recorded.
fn record_hostile_spans(trace_id: u64) -> Vec<FinishedSpan> {
    let parent = SpanContext {
        trace_id,
        span_id: 0x1,
    };
    obs::record_manual(format!("golden.{HOSTILE}"), &parent, 100, 250);
    let mut annotated = Span::start_child_of("golden.annotated", &parent);
    annotated.note(HOSTILE);
    annotated.note("plain");
    annotated.finish();
    let mut root = Span::start(HOSTILE);
    root.note("");
    let root_trace = root.context().trace_id;
    root.finish();
    obs::finished_spans()
        .into_iter()
        .filter(|s| s.trace_id == parent.trace_id || s.trace_id == root_trace)
        .collect()
}

#[test]
fn span_lines_are_the_golden_bytes() {
    let spans = record_hostile_spans(0x00c0_ffee_0000_0001);
    assert_eq!(spans.len(), 3);
    let golden = [
        r#"{"trace":"00c0ffee00000001","span":"S0","parent":"0000000000000001","name":"golden.H","start_ns":100,"end_ns":250,"annotations":[]}"#,
        r#"{"trace":"00c0ffee00000001","span":"S1","parent":"0000000000000001","name":"golden.annotated","start_ns":B1,"end_ns":E1,"annotations":["H","plain"]}"#,
        r#"{"trace":"T2","span":"S2","parent":null,"name":"H","start_ns":B2,"end_ns":E2,"annotations":[""]}"#,
    ];
    let dump = obs::spans_json();
    for (i, (span, golden)) in spans.iter().zip(golden).enumerate() {
        let expected = golden
            .replace('H', HOSTILE_JSON)
            .replace(&format!("T{i}"), &format!("{:016x}", span.trace_id))
            .replace(&format!("S{i}"), &format!("{:016x}", span.span_id))
            .replace(&format!("B{i}"), &span.start_ns.to_string())
            .replace(&format!("E{i}"), &span.end_ns.to_string());
        let line = format!("\"span\":\"{:016x}\"", span.span_id);
        assert_eq!(lines_with(&dump, &line), [expected.as_str()]);
    }
}

#[test]
fn meta_header_is_the_golden_bytes() {
    obs::set_clock_skew_ns(SKEW_NS);
    let dump = obs::spans_json_with_meta(HOSTILE);
    let expected = format!(
        r#"{{"meta":{{"process":"{HOSTILE_JSON}","pid":{},"epoch_unix_ns":{},"skew_ns":-1234}}}}"#,
        std::process::id(),
        obs::epoch_unix_ns(),
    );
    assert_eq!(dump.lines().next(), Some(expected.as_str()));
}

#[test]
fn flight_lines_are_the_golden_bytes() {
    let subsystem = format!("golden.flight {HOSTILE}");
    obs::flight::record(&subsystem, format!("message {HOSTILE}"));
    obs::flight::record(&subsystem, "");
    let events: Vec<_> = obs::flight::events()
        .into_iter()
        .filter(|e| e.subsystem == subsystem)
        .collect();
    assert_eq!(events.len(), 2);
    let golden = [
        r#"{"ts_unix_ns":TS,"subsystem":"golden.flight H","message":"message H"}"#,
        r#"{"ts_unix_ns":TS,"subsystem":"golden.flight H","message":""}"#,
    ];
    let expected: Vec<String> = events
        .iter()
        .zip(golden)
        .map(|(e, g)| {
            g.replace('H', HOSTILE_JSON)
                .replace("TS", &e.ts_unix_ns.to_string())
        })
        .collect();
    assert_eq!(
        lines_with(&obs::flight::to_json(), "golden.flight"),
        expected
    );
}

fn get_healthz(addr: std::net::SocketAddr) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("header end");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

#[test]
fn healthz_body_is_the_golden_bytes() {
    let server = obs::serve_admin("127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    let ok = obs::register_health(&format!("golden.ok {HOSTILE}"), || Ok(()));
    let (status, body) = get_healthz(addr);
    assert_eq!(status, "HTTP/1.0 200 OK");
    let golden = r#"{"status":"ok","checks":[{"name":"golden.ok H","ok":true}]}"#;
    assert_eq!(body, golden.replace('H', HOSTILE_JSON));

    let failing = obs::register_health(&format!("golden.fail {HOSTILE}"), || {
        Err(format!("down {HOSTILE}"))
    });
    let (status, body) = get_healthz(addr);
    assert_eq!(status, "HTTP/1.0 503 Service Unavailable");
    let golden = r#"{"status":"fail","checks":[{"name":"golden.ok H","ok":true},{"name":"golden.fail H","ok":false,"error":"down H"}]}"#;
    assert_eq!(body, golden.replace('H', HOSTILE_JSON));

    drop(failing);
    drop(ok);
    server.shutdown();
}

/// The `golden.` metrics of one snapshot, as recorded at the commit before
/// the emitters moved onto `wire::json` (non-finite gauges read `0`).
const SNAPSHOT_GOLDEN: &str = r#"{"counters":{"golden.counter q\"b\\n\nc\u0001é😀":7},"gauges":{"golden.gauge.frac":1234.567,"golden.gauge.half":4.5,"golden.gauge.inf":0,"golden.gauge.nan":0,"golden.gauge.whole":3},"histograms":{"golden.histogram q\"b\\n\nc\u0001é😀":{"count":3,"sum_ns":503000000,"max_ns":500000000,"buckets":[[73,1],[80,1],[138,1]]}}}"#;

#[test]
fn snapshot_is_the_golden_value() {
    obs::counter(&format!("golden.counter {HOSTILE}")).add(7);
    obs::gauge("golden.gauge.half").set(4.5);
    obs::gauge("golden.gauge.whole").set(3.0);
    obs::gauge("golden.gauge.frac").set(1234.567);
    obs::gauge("golden.gauge.nan").set(f64::NAN);
    obs::gauge("golden.gauge.inf").set(f64::NEG_INFINITY);
    let h = obs::histogram(&format!("golden.histogram {HOSTILE}"));
    for secs in [0.001, 0.002, 0.5] {
        h.record_secs(secs);
    }

    let Value::Map(fields) = decode(&obs::snapshot_json()) else {
        panic!("snapshot is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "seq",
            "unix_ns",
            "process",
            "counters",
            "gauges",
            "histograms"
        ]
    );
    assert!(fields[0].1.as_u64().unwrap() >= 1);
    assert!(fields[1].1.as_u64().unwrap() >= obs::epoch_unix_ns());
    assert_eq!(fields[2].1.as_str().unwrap(), obs::process_label());
    let ours = fields
        .into_iter()
        .skip(3)
        .map(|(family, metrics)| {
            let Value::Map(metrics) = metrics else {
                panic!("{family} is not an object");
            };
            let metrics = metrics
                .into_iter()
                .filter(|(name, _)| name.starts_with("golden."))
                .collect();
            (family, Value::Map(metrics))
        })
        .collect();
    assert_same_value(Value::Map(ours), SNAPSHOT_GOLDEN);
}

/// Two processes' dumps of one trace, with a skewed clock and timestamps
/// that are not whole microseconds.
fn chrome_input() -> Vec<ProcessDump> {
    let span =
        |span_id, parent_id, name: &str, start_ns, end_ns, annotations: &[&str]| FinishedSpan {
            trace_id: 0xab,
            span_id,
            parent_id,
            name: name.to_string(),
            start_ns,
            end_ns,
            annotations: annotations.iter().map(|a| a.to_string()).collect(),
        };
    vec![
        ProcessDump {
            process: format!("writer {HOSTILE}"),
            pid: 11,
            epoch_unix_ns: 1_000_000,
            skew_ns: 250_000,
            spans: vec![
                span(1, None, HOSTILE, 0, 1_234_567, &[HOSTILE, "method:x"]),
                span(2, Some(1), "proxy.publish", 1_001, 2_002, &[]),
            ],
        },
        ProcessDump {
            process: "server".to_string(),
            pid: 22,
            epoch_unix_ns: 1_250_000,
            skew_ns: 0,
            spans: vec![span(3, Some(1), "queue.wait", 3_000, 4_999_999, &[""])],
        },
    ]
}

/// `chrome_trace_json(assemble(chrome_input()))`, as recorded at the commit
/// before the emitters moved onto `wire::json`.
const CHROME_GOLDEN: &str = r#"{"traceEvents":[{"name":"process_name","ph":"M","pid":11,"tid":0,"args":{"name":"writer q\"b\\n\nc\u0001é😀"}},{"name":"process_name","ph":"M","pid":22,"tid":0,"args":{"name":"server"}},{"name":"q\"b\\n\nc\u0001é😀","cat":"span","ph":"X","ts":0.000,"dur":1234.567,"pid":11,"tid":1,"args":{"trace":"00000000000000ab","span":"0000000000000001","annotations":"q\"b\\n\nc\u0001é😀; method:x"}},{"name":"proxy.publish","cat":"span","ph":"X","ts":1.001,"dur":1.001,"pid":11,"tid":1,"args":{"trace":"00000000000000ab","span":"0000000000000002","annotations":""}},{"name":"queue.wait","cat":"span","ph":"X","ts":3.000,"dur":4996.999,"pid":22,"tid":1,"args":{"trace":"00000000000000ab","span":"0000000000000003","annotations":""}}],"displayTimeUnit":"ms"}"#;

#[test]
fn chrome_export_is_the_golden_value() {
    let chrome = chrome_trace_json(&assemble(&chrome_input()));
    assert_same_value(decode(&chrome), CHROME_GOLDEN);
}

#[test]
fn parse_dump_returns_the_recorded_spans() {
    obs::set_clock_skew_ns(SKEW_NS);
    let recorded = record_hostile_spans(0x00c0_ffee_0000_0002);
    let dump = parse_dump(&obs::spans_json_with_meta(HOSTILE)).unwrap();
    assert_eq!(dump.process, HOSTILE);
    assert_eq!(dump.pid, u64::from(std::process::id()));
    assert_eq!(dump.epoch_unix_ns, obs::epoch_unix_ns());
    assert_eq!(dump.skew_ns, SKEW_NS);
    let parsed: Vec<FinishedSpan> = dump
        .spans
        .into_iter()
        .filter(|s| recorded.iter().any(|r| r.span_id == s.span_id))
        .collect();
    assert_eq!(parsed, recorded);
}
