//! Invocation tracing: causally-linked spans with a bounded in-memory ring
//! buffer. A span context is two 64-bit ids; it travels across process
//! boundaries as a short string (carried in message headers) so one RPC
//! yields a single trace spanning proxy, queue, and skeleton.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// How many finished spans the ring buffer retains before evicting the
/// oldest (overridable via `OBS_SPAN_CAPACITY`).
const DEFAULT_RING_CAPACITY: usize = 4096;

/// Identity of a span within a trace. `Copy`, cheap, and string-encodable
/// for transport in message headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Shared by every span in one causal chain.
    pub trace_id: u64,
    /// Unique to this span within the process run.
    pub span_id: u64,
}

impl SpanContext {
    /// Encodes as `"<trace_id>:<span_id>"` in hex, for message headers.
    pub fn encode(&self) -> String {
        format!("{:016x}:{:016x}", self.trace_id, self.span_id)
    }

    /// Decodes the [`encode`](Self::encode) form; `None` on malformed input.
    pub fn decode(s: &str) -> Option<SpanContext> {
        let (t, sp) = s.split_once(':')?;
        Some(SpanContext {
            trace_id: u64::from_str_radix(t, 16).ok()?,
            span_id: u64::from_str_radix(sp, 16).ok()?,
        })
    }
}

/// A completed span as held by the ring buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedSpan {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id within the trace, if any.
    pub parent_id: Option<u64>,
    /// Operation name, e.g. `"skeleton.dispatch"`.
    pub name: String,
    /// Start, nanoseconds since the process obs epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the process obs epoch.
    pub end_ns: u64,
    /// Free-form notes attached during execution (e.g. `"ws:w1"`).
    pub annotations: Vec<String>,
}

fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    // SplitMix64 over a sequence number: unique and well-spread, without
    // needing an entropy source.
    let seq = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut z = seq.wrapping_mul(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    (z ^ (z >> 31)) | 1
}

/// An in-flight span. Create with [`Span::start`] (new trace) or
/// [`Span::child`]/[`Span::start_child_of`] (same trace); complete with
/// [`Span::finish`]. Dropping without finishing discards the span.
#[derive(Debug)]
pub struct Span {
    ctx: SpanContext,
    parent_id: Option<u64>,
    name: String,
    start_ns: u64,
    annotations: Vec<String>,
    recording: bool,
}

impl Span {
    /// Starts a root span, beginning a new trace.
    pub fn start(name: impl Into<String>) -> Span {
        let recording = crate::enabled();
        Span {
            ctx: SpanContext {
                trace_id: next_id(),
                span_id: next_id(),
            },
            parent_id: None,
            name: name.into(),
            start_ns: if recording { crate::now_ns() } else { 0 },
            annotations: Vec::new(),
            recording,
        }
    }

    /// Starts a child of this span (same trace).
    pub fn child(&self, name: impl Into<String>) -> Span {
        Span::start_child_of(name, &self.ctx)
    }

    /// Starts a child of a context received from elsewhere (e.g. decoded
    /// from a message header).
    pub fn start_child_of(name: impl Into<String>, parent: &SpanContext) -> Span {
        let recording = crate::enabled();
        Span {
            ctx: SpanContext {
                trace_id: parent.trace_id,
                span_id: next_id(),
            },
            parent_id: Some(parent.span_id),
            name: name.into(),
            start_ns: if recording { crate::now_ns() } else { 0 },
            annotations: Vec::new(),
            recording,
        }
    }

    /// This span's identity, for propagation.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Attaches a free-form note.
    pub fn note(&mut self, annotation: impl Into<String>) {
        if self.recording {
            self.annotations.push(annotation.into());
        }
    }

    /// Completes the span, pushing it into the ring buffer.
    pub fn finish(self) {
        if !self.recording || !crate::enabled() {
            return;
        }
        ring_push(FinishedSpan {
            trace_id: self.ctx.trace_id,
            span_id: self.ctx.span_id,
            parent_id: self.parent_id,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: crate::now_ns(),
            annotations: self.annotations,
        });
    }
}

/// Records a span whose timestamps were measured externally — e.g. a
/// `queue.wait` span synthesized from a message's enqueue time at delivery.
/// Returns the context of the recorded span.
pub fn record_manual(
    name: impl Into<String>,
    parent: &SpanContext,
    start_ns: u64,
    end_ns: u64,
) -> SpanContext {
    let ctx = SpanContext {
        trace_id: parent.trace_id,
        span_id: next_id(),
    };
    if crate::enabled() {
        ring_push(FinishedSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: Some(parent.span_id),
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            annotations: Vec::new(),
        });
    }
    ctx
}

struct Ring {
    spans: VecDeque<FinishedSpan>,
    capacity: usize,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        let capacity = std::env::var("OBS_SPAN_CAPACITY")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Mutex::new(Ring {
            spans: VecDeque::with_capacity(capacity.min(DEFAULT_RING_CAPACITY)),
            capacity,
        })
    })
}

/// Eviction and occupancy accounting for the ring itself — the one part of
/// the pipeline that would otherwise fail silently under span pressure.
fn ring_metrics() -> &'static (std::sync::Arc<crate::Counter>, std::sync::Arc<crate::Gauge>) {
    static METRICS: OnceLock<(std::sync::Arc<crate::Counter>, std::sync::Arc<crate::Gauge>)> =
        OnceLock::new();
    METRICS.get_or_init(|| {
        (
            crate::counter("obs.spans.dropped"),
            crate::gauge("obs.spans.ring_occupancy"),
        )
    })
}

fn ring_push(span: FinishedSpan) {
    let (dropped, occupancy) = ring_metrics();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    if ring.spans.len() == ring.capacity {
        ring.spans.pop_front();
        dropped.inc();
    }
    ring.spans.push_back(span);
    occupancy.set(ring.spans.len() as f64);
}

pub(crate) fn ring_snapshot() -> Vec<FinishedSpan> {
    let ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.spans.iter().cloned().collect()
}

/// Configured ring capacity (tests size their overflow runs off this).
#[cfg(test)]
pub(crate) fn ring_capacity() -> usize {
    ring().lock().unwrap_or_else(|e| e.into_inner()).capacity
}

thread_local! {
    static CURRENT: RefCell<Option<SpanContext>> = const { RefCell::new(None) };
    static NOTES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn current() -> Option<SpanContext> {
    CURRENT.with(|c| *c.borrow())
}

pub(crate) fn set_current(ctx: Option<SpanContext>) -> Option<SpanContext> {
    CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx))
}

pub(crate) fn annotate_current(note: &str) {
    if crate::enabled() {
        NOTES.with(|n| n.borrow_mut().push(note.to_string()));
    }
}

pub(crate) fn take_annotations() -> Vec<String> {
    NOTES.with(|n| std::mem::take(&mut *n.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_encode_decode_roundtrip() {
        let ctx = SpanContext {
            trace_id: 0xdead_beef_0102_0304,
            span_id: 7,
        };
        assert_eq!(SpanContext::decode(&ctx.encode()), Some(ctx));
        assert_eq!(SpanContext::decode("junk"), None);
        assert_eq!(SpanContext::decode("12:zz"), None);
        assert_eq!(SpanContext::decode(""), None);
    }

    #[test]
    fn parent_child_linkage_and_ring_retrieval() {
        let root = Span::start("test.root");
        let trace = root.context().trace_id;
        let mut child = root.child("test.child");
        child.note("k:v");
        let grandchild = child.child("test.grandchild");
        grandchild.finish();
        child.finish();
        root.finish();

        let spans = crate::trace_spans(trace);
        assert_eq!(spans.len(), 3);
        let find = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        let root_s = find("test.root");
        let child_s = find("test.child");
        let grand_s = find("test.grandchild");
        assert_eq!(root_s.parent_id, None);
        assert_eq!(child_s.parent_id, Some(root_s.span_id));
        assert_eq!(grand_s.parent_id, Some(child_s.span_id));
        assert_eq!(child_s.annotations, vec!["k:v".to_string()]);
        assert!(root_s.end_ns >= root_s.start_ns);
    }

    #[test]
    fn manual_record_clamps_and_links() {
        let root = Span::start("test.manual_root");
        let ctx = record_manual("test.manual", &root.context(), 100, 50);
        assert_eq!(ctx.trace_id, root.context().trace_id);
        let spans = crate::trace_spans(root.context().trace_id);
        let manual = spans.iter().find(|s| s.name == "test.manual").unwrap();
        assert_eq!(manual.end_ns, manual.start_ns); // clamped, not negative
        assert_eq!(manual.parent_id, Some(root.context().span_id));
        root.finish();
    }

    #[test]
    fn ring_overflow_counts_drops_and_tracks_occupancy() {
        let dropped = crate::counter("obs.spans.dropped");
        let capacity = ring_capacity();
        // Retried because a concurrent test may briefly flip the global kill
        // switch, which silently skips some of our pushes.
        for _ in 0..5 {
            let before = dropped.value();
            for _ in 0..capacity + 64 {
                Span::start("span.overflow").finish();
            }
            if dropped.value() >= before + 64 {
                let occupancy = crate::gauge("obs.spans.ring_occupancy").value() as usize;
                assert!(
                    occupancy <= capacity,
                    "occupancy {occupancy} > cap {capacity}"
                );
                assert!(occupancy > 0, "gauge never updated");
                return;
            }
        }
        panic!("overflowing the ring never moved obs.spans.dropped");
    }

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(next_id()));
        }
    }
}
