//! End-to-end observability: one real `call_sync` through the full
//! middleware stack must leave behind (a) non-zero message-broker counters,
//! (b) a queue-wait latency distribution with sane quantiles, and (c) a
//! complete causally-linked trace in the span ring buffer
//! (`omq.call_sync → proxy.publish / queue.wait → skeleton.dispatch →
//! handler.exec / reply.publish`, plus `reply.wait` back on the caller).

use metadata::ItemMetadata;
use stacksync::{Deployment, SYNC_SERVICE_OID};
use std::collections::HashMap;
use std::time::Duration;
use wire::Value;

fn item_value(item: &ItemMetadata) -> Value {
    stacksync::protocol::item_to_value(item)
}

#[test]
fn call_sync_produces_counters_histograms_and_a_complete_trace() {
    let cloud = Deployment::builder().build().unwrap();
    let ws = cloud.provision("alice", "Docs").unwrap();
    let proxy = cloud.broker().lookup(SYNC_SERVICE_OID).unwrap();

    // Several commits so the queue-wait histogram has a real distribution.
    for version in 1..=5u64 {
        let item = ItemMetadata::new_file(version, &ws, "a.txt", vec![], 16, "dev");
        let args = vec![
            Value::from(ws.0.as_str()),
            Value::from("dev"),
            Value::List(vec![item_value(&item)]),
        ];
        proxy
            .call_sync("commit_request", args, Duration::from_secs(5), 0)
            .unwrap();
    }
    assert_eq!(cloud.service().commits_processed(), 5);

    // (a) Broker counters moved: every request and every reply is published
    // to some queue and acked after consumption.
    assert!(
        obs::counter("mq.messages_published_total").value() >= 10,
        "expected >=10 publishes (5 requests + 5 replies)"
    );
    // The skeleton acks a request *after* publishing its reply, so the
    // final request's ack can still be in flight when call_sync returns —
    // give it a moment.
    let acked = obs::counter("mq.messages_acked_total");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while acked.value() < 10 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        acked.value() >= 10,
        "acks never caught up: {}",
        acked.value()
    );
    assert!(obs::counter("omq.calls_total").value() >= 5);
    assert!(obs::counter("omq.dispatches_total").value() >= 5);
    assert!(obs::counter("sync.commits_total").value() >= 5);

    // (b) Queue-wait histogram: populated, and quantiles are monotone.
    let wait = obs::histogram("mq.queue_wait_seconds");
    assert!(
        wait.count() >= 10,
        "queue waits recorded on both directions"
    );
    let (p50, _p90, _p95, p99, max) = wait.summary();
    assert!(p99 >= p50, "p99 ({p99}) must not be below p50 ({p50})");
    assert!(max >= 0.0);

    // The text exporter shows both metric families with quantiles.
    let text = obs::render_text();
    assert!(text.contains("mq_messages_published_total"));
    assert!(text.contains("mq_queue_wait_seconds{quantile=\"0.99\"}"));
    assert!(text.contains("omq_call_seconds{quantile=\"0.5\"}"));

    // (c) The last call left a complete multi-stage trace in the ring.
    let finished = obs::finished_spans();
    let root = finished
        .iter()
        .rev()
        .find(|s| s.name == "omq.call_sync")
        .expect("a finished omq.call_sync span");
    let trace = obs::trace_spans(root.trace_id);
    assert!(
        trace.len() >= 4,
        "expected >=4 spans in the trace, got {}: {:?}",
        trace.len(),
        trace.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    let names: Vec<&str> = trace.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "omq.call_sync",
        "proxy.publish",
        "queue.wait",
        "skeleton.dispatch",
        "handler.exec",
        "reply.publish",
        "reply.wait",
    ] {
        assert!(
            names.contains(&expected),
            "missing span {expected} in {names:?}"
        );
    }

    // Causal linking: exactly one root, every other span's parent is present
    // in the same trace, and timestamps are internally consistent (children
    // never start before their parent).
    let by_id: HashMap<u64, &obs::FinishedSpan> = trace.iter().map(|s| (s.span_id, s)).collect();
    let mut roots = 0;
    for span in &trace {
        assert!(span.end_ns >= span.start_ns, "{} runs backwards", span.name);
        match span.parent_id {
            None => roots += 1,
            Some(pid) => {
                let parent = by_id
                    .get(&pid)
                    .unwrap_or_else(|| panic!("{} has a dangling parent", span.name));
                assert!(
                    span.start_ns >= parent.start_ns,
                    "{} starts before its parent {}",
                    span.name,
                    parent.name
                );
            }
        }
    }
    assert_eq!(roots, 1, "a trace has exactly one root span");

    // The handler.exec span carries the workspace annotation added by the
    // SyncService through obs::annotate_current.
    let exec = trace.iter().find(|s| s.name == "handler.exec").unwrap();
    assert!(
        exec.annotations
            .iter()
            .any(|a| a == &format!("ws:{}", ws.0)),
        "handler.exec should be tagged with the workspace: {:?}",
        exec.annotations
    );
}
