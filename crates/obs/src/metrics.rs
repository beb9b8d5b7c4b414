//! Process-global metrics: counters, gauges, and log-bucketed latency
//! histograms. Handle acquisition takes a registry lock once; every
//! recording after that is atomics only.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time measurement that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        if !crate::enabled() {
            return;
        }
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Geometric bucket layout: ~5% relative error from 1µs to 100s.
const BUCKET_MIN: f64 = 1e-6;
const BUCKET_MAX: f64 = 100.0;
const BUCKET_RATIO: f64 = 1.1;
/// `ceil(ln(BUCKET_MAX / BUCKET_MIN) / ln(BUCKET_RATIO))` interior buckets,
/// plus an underflow bucket (index 0) and an overflow bucket (last index).
const INTERIOR_BUCKETS: usize = 194;
const NUM_BUCKETS: usize = INTERIOR_BUCKETS + 2;

/// Striping of the count/sum pair to keep concurrent recorders off the same
/// cache line; buckets are already spread by value.
const STRIPES: usize = 8;

#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe {
    count: AtomicU64,
    sum_ns: AtomicU64,
}

/// A latency histogram with geometric (log-spaced) buckets from 1µs to
/// 100s at ≤5% relative error, answering quantile queries from a single
/// pass over bucket counts. Recording is lock-free: one `ln`, one bucket
/// `fetch_add`, striped count/sum updates, and a `fetch_max`.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    stripes: [Stripe; STRIPES],
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            stripes: Default::default(),
            max_ns: AtomicU64::new(0),
        }
    }
}

fn ln_ratio() -> f64 {
    static LN: OnceLock<f64> = OnceLock::new();
    *LN.get_or_init(|| BUCKET_RATIO.ln())
}

fn bucket_index(secs: f64) -> usize {
    // `record_secs` sanitizes its input, so `secs` is finite and >= 0 here.
    if secs <= BUCKET_MIN {
        return 0;
    }
    if secs >= BUCKET_MAX {
        return NUM_BUCKETS - 1;
    }
    let idx = ((secs / BUCKET_MIN).ln() / ln_ratio()).floor() as usize + 1;
    idx.min(NUM_BUCKETS - 2)
}

/// Representative value reported for a bucket: the geometric midpoint of
/// its bounds (exact bound for the under/overflow buckets).
fn bucket_value(index: usize) -> f64 {
    if index == 0 {
        return BUCKET_MIN;
    }
    if index >= NUM_BUCKETS - 1 {
        return BUCKET_MAX;
    }
    BUCKET_MIN * BUCKET_RATIO.powi(index as i32 - 1) * BUCKET_RATIO.sqrt()
}

fn stripe_index() -> usize {
    // Cheap per-thread spread: hash the address of a thread-local.
    thread_local! {
        static MARKER: u8 = const { 0 };
    }
    MARKER.with(|m| (m as *const u8 as usize >> 6) % STRIPES)
}

impl Histogram {
    /// Records one latency observation.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_secs(d.as_secs_f64());
    }

    /// Records one latency observation given in seconds.
    pub fn record_secs(&self, secs: f64) {
        if !crate::enabled() {
            return;
        }
        let secs = if secs.is_finite() && secs > 0.0 {
            secs
        } else {
            0.0
        };
        self.buckets[bucket_index(secs)].fetch_add(1, Ordering::Relaxed);
        let stripe = &self.stripes[stripe_index()];
        stripe.count.fetch_add(1, Ordering::Relaxed);
        let ns = (secs * 1e9) as u64;
        stripe.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Records a unitless magnitude (e.g. a batch size).
    ///
    /// Same bucketing as [`Histogram::record_secs`] — the "seconds" in
    /// summaries then reads as the raw value. Useful for small counts
    /// (1..~64); values above the top bucket bound are clamped.
    #[inline]
    pub fn record_value(&self, value: f64) {
        self.record_secs(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observations, in seconds.
    pub fn sum_secs(&self) -> f64 {
        let ns: u64 = self
            .stripes
            .iter()
            .map(|s| s.sum_ns.load(Ordering::Relaxed))
            .sum();
        ns as f64 / 1e9
    }

    /// Largest observation, in seconds.
    pub fn max_secs(&self) -> f64 {
        self.max_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Mean observation, in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_secs() / count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in seconds, with the layout's ≤5%
    /// relative error. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the value below which at least q·total observations fall.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_value(i);
            }
        }
        bucket_value(NUM_BUCKETS - 1)
    }

    /// Convenience snapshot of the standard reporting quantiles
    /// `(p50, p90, p95, p99, max)`, all in seconds.
    pub fn summary(&self) -> (f64, f64, f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max_secs(),
        )
    }

    /// A point-in-time copy of the histogram state, suitable for shipping
    /// across processes (the bucket layout is fixed by the crate constants,
    /// so snapshots from different processes of the same build align
    /// bucket-for-bucket). Weakly consistent under concurrent recording:
    /// buckets and totals are read without a global lock.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum_ns: self
                .stripes
                .iter()
                .map(|s| s.sum_ns.load(Ordering::Relaxed))
                .sum(),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Owned copy of a [`Histogram`]'s state at one instant, produced by
/// [`Histogram::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts in the crate's geometric layout.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub sum_ns: u64,
    /// Largest observation, in nanoseconds.
    pub max_ns: u64,
}

/// The process-global named-metric registry.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Named counter, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(name.to_string()).or_default().clone()
    }

    /// Sorted snapshot of all counters.
    pub fn counters(&self) -> Vec<(String, Arc<Counter>)> {
        let map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Sorted snapshot of all gauges.
    pub fn gauges(&self) -> Vec<(String, Arc<Gauge>)> {
        let map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    /// Sorted snapshot of all histograms.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        let map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// The process-global registry behind [`crate::counter`] and friends.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = registry().counter("metrics.test_counter");
        c.inc();
        c.add(4);
        assert_eq!(c.value(), 5);
        // Same name returns the same metric.
        assert_eq!(registry().counter("metrics.test_counter").value(), 5);

        let g = registry().gauge("metrics.test_gauge");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.value() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_error_bound() {
        // Every representable value in range must round-trip through its
        // bucket with ≤5% relative error.
        let mut v = 1.5e-6;
        while v < 90.0 {
            let rep = bucket_value(bucket_index(v));
            let rel = (rep - v).abs() / v;
            assert!(rel <= 0.05, "value {v}: representative {rep}, error {rel}");
            v *= 1.37;
        }
    }

    #[test]
    fn histogram_quantiles_on_known_distribution() {
        let h = Histogram::default();
        // 1..=100 ms: p50 ≈ 50ms, p90 ≈ 90ms, p99 ≈ 99ms.
        for ms in 1..=100u64 {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum_secs() - 5.050).abs() < 0.001);
        assert!((h.max_secs() - 0.100).abs() < 1e-9);
        for (q, expect) in [(0.50, 0.050), (0.90, 0.090), (0.95, 0.095), (0.99, 0.099)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.06, "q={q}: got {got}, want ~{expect} (rel {rel})");
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p99 >= p50);
    }

    #[test]
    fn histogram_edge_values() {
        let h = Histogram::default();
        h.record_secs(0.0); // underflow
        h.record_secs(5e-7); // below min
        h.record_secs(1000.0); // overflow
        h.record_secs(f64::NAN); // must not poison anything
        assert_eq!(h.count(), 4);
        assert_eq!(h.quantile(0.0), BUCKET_MIN);
        assert_eq!(h.quantile(1.0), BUCKET_MAX);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max_secs(), 0.0);
        assert_eq!(h.mean_secs(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::default());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_secs(1e-6 + (t * 10_000 + i) as f64 * 1e-9);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
