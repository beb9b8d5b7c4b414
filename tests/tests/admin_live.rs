//! Live admin plane over a real TCP sync stack: a broker behind
//! [`BrokerServer`], a client dialing in over [`NetBroker`], a commit
//! crossing the wire — and every admin endpoint scraped over actual HTTP
//! while the stack is up. Asserts the Prometheus text is well-formed, the
//! health report carries the per-subsystem checks this stack registers,
//! the snapshot sequence number advances, and the trace of the wire commit
//! is serveable.

use metadata::ItemMetadata;
use stacksync::{Deployment, SYNC_SERVICE_OID};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use wire::Value;

/// Minimal HTTP/1.0 GET, returning (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has header/body split");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

#[test]
fn admin_endpoints_serve_a_live_tcp_stack() {
    let cloud = Deployment::builder().tcp().build().unwrap();
    let ws = cloud.provision("alice", "Docs").unwrap();

    let admin = obs::serve_admin("127.0.0.1:0").expect("bind admin");
    let addr = admin.local_addr();

    // One commit over the actual TCP transport so the admin plane has a
    // cross-process-shaped trace and live counters to serve.
    let link = cloud.dial().expect("dial server");
    let proxy = link.broker().lookup(SYNC_SERVICE_OID).unwrap();
    let item = ItemMetadata::new_file(1, &ws, "a.txt", vec![], 16, "dev");
    proxy
        .call_sync(
            "commit_request",
            vec![
                Value::from(ws.0.as_str()),
                Value::from("dev"),
                Value::List(vec![stacksync::protocol::item_to_value(&item)]),
            ],
            Duration::from_secs(5),
            0,
        )
        .unwrap();

    // /metrics: 200, Prometheus text exposition with TYPE lines for
    // counters this run must have bumped.
    let (status, body) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "/metrics: {status}");
    assert!(body.contains("# TYPE mq_messages_published_total counter"));
    assert!(body.contains("omq_call_seconds{quantile=\"0.5\"}"));
    for line in body.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "malformed exposition line: {line:?}"
        );
    }

    // /healthz: this stack's subsystems all report. The overall verdict is
    // deliberately not asserted — other tests in this process may have
    // registered failing checks of their own.
    let (status, body) = http_get(addr, "/healthz");
    assert!(
        status.contains("200") || status.contains("503"),
        "/healthz: {status}"
    );
    for check in ["net.server.", "mqsim.broker", "sync.service"] {
        assert!(body.contains(check), "missing {check} in {body}");
    }

    // /spans: the wire commit's trace is in the ring.
    let (status, body) = http_get(addr, "/spans");
    assert!(status.contains("200"), "/spans: {status}");
    assert!(body.contains("omq.call_sync"), "no call_sync span served");
    assert!(body.contains("handler.exec"), "no handler.exec span served");

    // /snapshot: sequence number strictly advances between scrapes.
    let (_, first) = http_get(addr, "/snapshot");
    let (_, second) = http_get(addr, "/snapshot");
    let seq = |body: &str| -> u64 {
        let tail = &body[body.find("\"seq\":").expect("seq field") + 6..];
        tail.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("seq number")
    };
    assert!(seq(&second) > seq(&first), "snapshot seq did not advance");

    // /flightrecorder: the server's listen event is on the ring.
    let (status, body) = http_get(addr, "/flightrecorder");
    assert!(status.contains("200"), "/flightrecorder: {status}");
    assert!(
        body.contains("server listening"),
        "missing listen flight event"
    );

    // Unknown path: a 404, not a hang or a crash.
    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "unknown path: {status}");

    cloud.shutdown();
}
