//! Cross-process trace assembly, end to end: runs the real `netdemo`
//! binary (broker + service driver re-execing a writer and a watcher — 3
//! OS processes over TCP loopback), then assembles the three span dumps
//! and checks that commits trace across the wire and that the critical
//! path accounts for the commit's end-to-end latency.

use obs::traceview::{assemble, chrome_trace_json, commit_critical_path, parse_dump, ProcessDump};
use std::process::Command;
use wire::{Codec, JsonCodec, Value};

#[test]
fn three_process_commit_assembles_into_one_trace() {
    let dir = std::env::temp_dir().join(format!("netdemo-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let output = Command::new(env!("CARGO_BIN_EXE_netdemo"))
        .args(["--ops", "2", "--trace-dir", dir.to_str().unwrap()])
        .output()
        .expect("run netdemo");
    assert!(
        output.status.success(),
        "netdemo failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let mut dumps: Vec<ProcessDump> = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("trace dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read dump");
        dumps.push(parse_dump(&text).expect("parse dump"));
    }
    assert_eq!(dumps.len(), 3, "driver + writer + watcher dumps");

    let traces = assemble(&dumps);
    assert!(!traces.is_empty(), "no traces assembled");

    // The load-bearing claim: at least one trace must span processes, i.e.
    // a client-side root and the server-side handler chain were stitched
    // back together across the TCP hop.
    let cross = traces.iter().filter(|t| t.processes().len() >= 2).count();
    assert!(cross >= 1, "no trace spans more than one process");

    // Every one of the writer's 10 commits (2 op sets x 5 commits) should
    // decompose, and the six segments must account for the end-to-end
    // commit latency within 5%.
    let paths: Vec<_> = traces.iter().filter_map(commit_critical_path).collect();
    assert!(
        paths.len() >= 10,
        "expected >=10 commit critical paths, got {}",
        paths.len()
    );
    for path in &paths {
        let sum = path.segment_sum_secs();
        assert!(
            (sum - path.e2e_secs).abs() <= 0.05 * path.e2e_secs.max(1e-9),
            "segments sum {sum}s vs e2e {}s (trace {:016x})",
            path.e2e_secs,
            path.trace_id
        );
    }

    // The Chrome export of the whole run must be valid JSON with complete
    // ("X") events from at least two distinct processes.
    let chrome = chrome_trace_json(&traces);
    let parsed = JsonCodec
        .decode(chrome.as_bytes())
        .expect("chrome export parses");
    let events = parsed
        .field("traceEvents")
        .and_then(Value::as_list)
        .expect("traceEvents array");
    let mut pids = std::collections::BTreeSet::new();
    for event in events {
        if event.field("ph").and_then(Value::as_str) == Ok("X") {
            pids.insert(event.field("pid").and_then(Value::as_u64).expect("pid"));
        }
    }
    assert!(
        pids.len() >= 2,
        "complete events from only {} process(es)",
        pids.len()
    );

    let _ = std::fs::remove_dir_all(&dir);
}
