//! The benchmark's own spans: one record around every call it makes into a
//! layer, kept in memory and written out when the run ends. Off in the
//! measured pass, where [`time`] costs one relaxed load.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `sync.write_file`.
    pub name: &'static str,
    /// Identifier of this span, unique in the process.
    pub id: u64,
    /// Span that caused this one; 0 for a root.
    pub parent: u64,
    /// Operation the span belongs to: spans of one op share it.
    pub op: u64,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn store() -> std::sync::MutexGuard<'static, Vec<SpanRec>> {
    // A panic while pushing leaves the vector valid at every step.
    SPANS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Turns recording on (traced pass) or off (measured pass).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span from two instants the caller already took. Returns the
/// span id (0 when recording is off) for use as a child's `parent`.
pub fn record(name: &'static str, op: u64, parent: u64, start: Instant, end: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let since = |t: Instant| t.saturating_duration_since(epoch()).as_nanos() as u64;
    store().push(SpanRec {
        name,
        id,
        parent,
        op,
        start_ns: since(start),
        end_ns: since(end),
    });
    id
}

/// Runs `f` inside a span.
pub fn time<T>(name: &'static str, op: u64, parent: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(name, op, parent, start, Instant::now());
    out
}

/// Drops everything recorded so far (after the warm-up repeat).
pub fn clear() {
    store().clear();
}

/// Durations, in seconds, of every recorded span called `name`.
pub fn durations(name: &str) -> Vec<f64> {
    store()
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::secs)
        .collect()
}

/// A copy of every recorded span, in recording order.
pub fn snapshot() -> Vec<SpanRec> {
    store().clone()
}

/// Serialises the tests that flip the process-wide recording switch.
#[cfg(test)]
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_when_enabled_and_keep_parent_and_op() {
        let _one_at_a_time = test_lock();
        set_enabled(false);
        assert_eq!(time("t.off", 1, 0, || 5), 5);
        assert!(durations("t.off").is_empty());

        set_enabled(true);
        let start = Instant::now();
        let root = record(
            "t.root",
            7,
            0,
            start,
            start + std::time::Duration::from_micros(250),
        );
        assert_eq!(time("t.child", 7, root, || 6), 6);
        set_enabled(false);

        let spans = snapshot();
        let r = spans.iter().find(|s| s.name == "t.root").unwrap();
        let c = spans.iter().find(|s| s.name == "t.child").unwrap();
        assert_eq!((r.op, r.parent, c.op, c.parent), (7, 0, 7, r.id));
        assert!((r.secs() - 250e-6).abs() < 1e-9);
        assert_eq!(durations("t.root").len(), 1);
        clear();
        assert!(snapshot().is_empty());
    }
}
