//! Live admin endpoint: a deliberately tiny blocking HTTP/1.0 listener,
//! hand-rolled over `TcpListener` so a running process can be scraped with
//! `curl` and nothing heavier. One short-lived connection per request,
//! `Connection: close`, request-line routing only.
//!
//! | path              | body                                                |
//! |-------------------|-----------------------------------------------------|
//! | `/metrics`        | Prometheus text exposition ([`crate::render_text`]) |
//! | `/healthz`        | JSON per-subsystem checks; 503 if any fails         |
//! | `/spans`          | span ring buffer, JSON lines with meta header       |
//! | `/snapshot`       | monotonic counter/histogram snapshot with seq       |
//! | `/flightrecorder` | flight-recorder events, JSON lines                  |

use crate::export::object;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{to_json_string, Value};

/// How long a single request may take to arrive before the connection is
/// abandoned — keeps one stalled scraper from wedging the accept thread.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);

/// A running admin endpoint. Dropping it stops the listener.
#[derive(Debug)]
pub struct AdminServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Binds the admin endpoint and serves it from a background thread. Bind to
/// port 0 to let the OS pick; read it back via [`AdminServer::local_addr`].
///
/// # Errors
///
/// Propagates socket errors from bind.
pub fn serve_admin(addr: impl ToSocketAddrs) -> std::io::Result<AdminServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = stop.clone();
    let thread = std::thread::Builder::new()
        .name("obs-admin".into())
        .spawn(move || accept_loop(&listener, &thread_stop))?;
    Ok(AdminServer {
        addr,
        stop,
        thread: Some(thread),
    })
}

impl AdminServer {
    /// The address the endpoint listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_now();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    fn stop_now(&self) {
        self.stop.store(true, Ordering::Release);
        // Unblock `accept` by dialling ourselves.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(listener: &TcpListener, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        // Served inline: every response is generated from in-memory state,
        // so the only thing that can stall is the peer — bounded above.
        let _ = serve_one(stream);
    }
}

fn serve_one(stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, media_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n".to_string(),
        )
    } else {
        match path.split('?').next().unwrap_or("") {
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", crate::render_text()),
            "/healthz" => {
                let report = crate::health_report();
                let all_ok = report.iter().all(|c| c.result.is_ok());
                let status = if all_ok {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                (status, "application/json", healthz_json(&report))
            }
            "/spans" => (
                "200 OK",
                "application/json",
                crate::spans_json_with_meta(&crate::process_label()),
            ),
            "/snapshot" => ("200 OK", "application/json", crate::snapshot_json()),
            "/flightrecorder" => ("200 OK", "application/json", crate::flight::to_json()),
            _ => (
                "404 Not Found",
                "text/plain",
                "unknown path; try /metrics /healthz /spans /snapshot /flightrecorder\n"
                    .to_string(),
            ),
        }
    };

    let mut out = stream;
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {media_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

fn healthz_json(report: &[crate::HealthCheck]) -> String {
    let all_ok = report.iter().all(|c| c.result.is_ok());
    let checks = report
        .iter()
        .map(|check| {
            let name = ("name", check.name.as_str().into());
            match &check.result {
                Ok(()) => object([name, ("ok", true.into())]),
                Err(reason) => object([
                    name,
                    ("ok", false.into()),
                    ("error", reason.as_str().into()),
                ]),
            }
        })
        .collect();
    let status = if all_ok { "ok" } else { "fail" };
    to_json_string(&object([
        ("status", status.into()),
        ("checks", Value::List(checks)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_all_endpoints() {
        crate::counter("admin.test_requests_total").inc();
        crate::histogram("admin.test_seconds").record_secs(0.001);
        let server = serve_admin("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200 OK"));
        assert!(metrics.contains("# TYPE admin_test_requests_total counter"));
        assert!(metrics.contains("Content-Type: text/plain"));

        let spans = get(addr, "/spans");
        assert!(spans.starts_with("HTTP/1.0 200 OK"));
        assert!(spans.contains("\"meta\":{\"process\":"));

        let snapshot = get(addr, "/snapshot");
        assert!(snapshot.starts_with("HTTP/1.0 200 OK"));
        assert!(snapshot.contains("\"seq\":"));
        assert!(snapshot.contains("\"admin.test_seconds\":{\"count\":"));

        crate::flight::record("admin.test", "endpoint probe");
        let flight = get(addr, "/flightrecorder");
        assert!(flight.starts_with("HTTP/1.0 200 OK"));
        assert!(flight.contains("endpoint probe"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
        let post = {
            let mut stream = TcpStream::connect(addr).unwrap();
            write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            response
        };
        assert!(post.starts_with("HTTP/1.0 405"));

        server.shutdown();
    }

    #[test]
    fn healthz_reflects_registered_checks() {
        let server = serve_admin("127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let healthy = register_for_test("admin.test_healthy", Ok(()));
        let response = get(addr, "/healthz");
        assert!(response.contains("\"name\":\"admin.test_healthy\",\"ok\":true"));

        let failing = register_for_test("admin.test_failing", Err("degraded".into()));
        let response = get(addr, "/healthz");
        assert!(response.starts_with("HTTP/1.0 503"));
        assert!(response.contains("\"status\":\"fail\""));
        assert!(response.contains("\"error\":\"degraded\""));

        drop(failing);
        drop(healthy);
        server.shutdown();
    }

    fn register_for_test(name: &str, result: Result<(), String>) -> crate::HealthGuard {
        crate::register_health(name, move || result.clone())
    }
}
