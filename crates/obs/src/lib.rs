//! Observability for the StackSync reproduction: a process-global metrics
//! registry (counters, gauges, log-bucketed latency histograms), lightweight
//! invocation tracing with causally-linked spans, and pluggable exporters
//! (Prometheus-style text, JSON-lines traces, env-gated stderr logging).
//!
//! Everything is hand-rolled on `std` — no external dependencies; JSON is
//! read and written by the workspace's `wire` codec — and the
//! hot paths are atomics only. A global kill switch ([`disable`]) turns every
//! recording site into a single relaxed load so instrumented builds can run
//! measurement-free.
//!
//! # Example
//!
//! ```
//! let calls = obs::counter("demo.calls");
//! let latency = obs::histogram("demo.latency_seconds");
//! calls.inc();
//! latency.record_secs(0.003);
//!
//! let root = obs::Span::start("demo.request");
//! let child = root.child("demo.step");
//! child.finish();
//! root.finish();
//!
//! let text = obs::render_text();
//! assert!(text.contains("demo_calls"));
//! ```

mod admin;
mod export;
pub mod flight;
mod health;
mod metrics;
mod span;
pub mod traceview;

pub use admin::{serve_admin, AdminServer};
pub use export::{render_text, snapshot_json, spans_json, spans_json_with_meta};
pub use health::{health_ok, health_report, register_health, HealthCheck, HealthGuard};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use span::{record_manual, FinishedSpan, Span, SpanContext};

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns all metric and span recording off (a single relaxed load remains
/// on each hot path). Exporters keep working on whatever was recorded.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Re-enables recording after [`disable`].
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

struct Epoch {
    started: Instant,
    unix_ns: u64,
}

/// The process obs epoch: a monotonic zero point plus the wall-clock time
/// at which it was taken, so per-process span timestamps can be placed on a
/// shared unix timeline by an offline collector.
fn epoch() -> &'static Epoch {
    static EPOCH: OnceLock<Epoch> = OnceLock::new();
    EPOCH.get_or_init(|| Epoch {
        started: Instant::now(),
        unix_ns: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0),
    })
}

/// Monotonic nanoseconds since the first observability call in this process.
/// All span timestamps share this epoch, so ordering is comparable across
/// threads.
pub fn now_ns() -> u64 {
    Instant::now().duration_since(epoch().started).as_nanos() as u64
}

/// Wall-clock nanoseconds (unix time) at obs-epoch zero. Written into span
/// dump headers so `traceview` can align dumps from several processes.
pub fn epoch_unix_ns() -> u64 {
    epoch().unix_ns
}

/// Current unix time in nanoseconds, derived from the monotonic clock (so
/// it never steps backwards within a process).
pub fn unix_now_ns() -> u64 {
    epoch_unix_ns() + now_ns()
}

static CLOCK_SKEW_NS: AtomicI64 = AtomicI64::new(0);

/// Estimated offset of this process's unix clock from the fleet reference
/// (the broker server), in nanoseconds: `reference − local`. Set by the net
/// client's connect handshake; 0 until then (and always 0 on the server).
pub fn clock_skew_ns() -> i64 {
    CLOCK_SKEW_NS.load(Ordering::Relaxed)
}

/// Records the handshake-estimated clock skew (see [`clock_skew_ns`]).
pub fn set_clock_skew_ns(ns: i64) {
    CLOCK_SKEW_NS.store(ns, Ordering::Relaxed);
}

/// Short label identifying this process in span dumps and trace exports:
/// the executable's file stem, falling back to the pid.
pub fn process_label() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| format!("pid-{}", std::process::id()))
}

/// Returns (registering on first use) the named monotonic counter.
pub fn counter(name: &str) -> std::sync::Arc<Counter> {
    metrics::registry().counter(name)
}

/// Returns (registering on first use) the named gauge.
pub fn gauge(name: &str) -> std::sync::Arc<Gauge> {
    metrics::registry().gauge(name)
}

/// Returns (registering on first use) the named latency histogram.
pub fn histogram(name: &str) -> std::sync::Arc<Histogram> {
    metrics::registry().histogram(name)
}

/// Snapshot of every finished span still held by the trace ring buffer,
/// oldest first.
pub fn finished_spans() -> Vec<FinishedSpan> {
    span::ring_snapshot()
}

/// Finished spans belonging to one trace, oldest first.
pub fn trace_spans(trace_id: u64) -> Vec<FinishedSpan> {
    span::ring_snapshot()
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect()
}

/// Thread-local current span context, if one is installed via
/// [`set_current`]. Used to parent child spans across module boundaries.
pub fn current() -> Option<SpanContext> {
    span::current()
}

/// Installs (or clears, with `None`) the thread-local current span context
/// and returns the previous value so callers can restore it.
pub fn set_current(ctx: Option<SpanContext>) -> Option<SpanContext> {
    span::set_current(ctx)
}

/// Attaches a note to whatever span later drains this thread's annotation
/// buffer (see [`take_annotations`]). Lets deeply nested code — e.g. a
/// service handler — tag the enclosing span without holding it.
pub fn annotate_current(note: &str) {
    span::annotate_current(note)
}

/// Drains the thread-local annotation buffer (the span owner calls this
/// right before `finish`).
pub fn take_annotations() -> Vec<String> {
    span::take_annotations()
}

/// Log severity for [`log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained diagnostics.
    Debug = 0,
    /// Routine operational events.
    Info = 1,
    /// Something unexpected but recoverable.
    Warn = 2,
    /// A failure worth surfacing.
    Error = 3,
}

fn log_threshold() -> Option<Level> {
    static THRESHOLD: OnceLock<Option<Level>> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let raw = std::env::var("OBS_LOG").ok()?;
        match raw.to_ascii_lowercase().as_str() {
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    })
}

/// Writes a line to stderr when `OBS_LOG` is set to this severity or lower.
/// With `OBS_LOG` unset the cost is one cached `Option` check.
pub fn log(level: Level, target: &str, message: &str) {
    if let Some(threshold) = log_threshold() {
        if level >= threshold {
            let label = match level {
                Level::Debug => "DEBUG",
                Level::Info => "INFO",
                Level::Warn => "WARN",
                Level::Error => "ERROR",
            };
            eprintln!(
                "[obs {:>12.6} {label} {target}] {message}",
                now_ns() as f64 / 1e9
            );
        }
    }
}

/// Records a formatted event in the crash flight recorder:
/// `obs::flight_event!("net", "reconnected to {addr} after {n} attempts")`.
/// Sugar over [`flight::record`].
#[macro_export]
macro_rules! flight_event {
    ($subsystem:expr, $($arg:tt)*) => {
        $crate::flight::record($subsystem, format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_stops_recording() {
        let c = counter("lib.kill_switch_counter");
        let h = histogram("lib.kill_switch_hist");
        c.inc();
        h.record_secs(0.001);
        disable();
        c.inc();
        c.add(10);
        h.record_secs(0.001);
        let s = Span::start("lib.kill_switch_span");
        let trace = s.context().trace_id;
        s.finish();
        enable();
        assert_eq!(c.value(), 1);
        assert_eq!(h.count(), 1);
        assert!(trace_spans(trace).is_empty());
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn unix_epoch_anchors_monotonic_time() {
        let anchor = epoch_unix_ns();
        assert!(
            anchor > 1_500_000_000 * 1_000_000_000,
            "unix anchor predates 2017: {anchor}"
        );
        let a = unix_now_ns();
        let b = unix_now_ns();
        assert!(b >= a && a >= anchor);
    }

    #[test]
    fn current_context_roundtrip() {
        assert_eq!(set_current(None), None);
        let s = Span::start("lib.current");
        let prev = set_current(Some(s.context()));
        assert_eq!(prev, None);
        assert_eq!(current(), Some(s.context()));
        annotate_current("ws:w1");
        assert_eq!(take_annotations(), vec!["ws:w1".to_string()]);
        set_current(None);
        s.finish();
    }
}
