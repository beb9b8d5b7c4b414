//! Byte and operation accounting — the measurement hook behind the Fig. 7
//! storage-traffic numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Counters {
    uploaded_bytes: AtomicU64,
    downloaded_bytes: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
    deletes: AtomicU64,
}

/// Shared traffic counters for a storage endpoint.
///
/// Cloning shares the counter (like handing a metrics registry around).
/// Each counter is an atomic of its own, so recording takes no lock and
/// threads fetching chunks side by side never wait on one another here. A
/// reader racing a record may see its bytes before its operation.
#[derive(Debug, Default, Clone)]
pub struct TrafficStats {
    inner: Arc<Counters>,
}

impl TrafficStats {
    /// New zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_put(&self, bytes: usize) {
        self.inner.puts.fetch_add(1, Ordering::Relaxed);
        self.inner
            .uploaded_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_get(&self, bytes: usize) {
        self.inner.gets.fetch_add(1, Ordering::Relaxed);
        self.inner
            .downloaded_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_delete(&self) {
        self.inner.deletes.fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes uploaded (client → store).
    pub fn uploaded_bytes(&self) -> u64 {
        self.inner.uploaded_bytes.load(Ordering::Relaxed)
    }

    /// Bytes downloaded (store → client).
    pub fn downloaded_bytes(&self) -> u64 {
        self.inner.downloaded_bytes.load(Ordering::Relaxed)
    }

    /// Total transfer volume in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.uploaded_bytes() + self.downloaded_bytes()
    }

    /// Number of PUT operations.
    pub fn put_count(&self) -> u64 {
        self.inner.puts.load(Ordering::Relaxed)
    }

    /// Number of GET operations.
    pub fn get_count(&self) -> u64 {
        self.inner.gets.load(Ordering::Relaxed)
    }

    /// Number of DELETE operations.
    pub fn delete_count(&self) -> u64 {
        self.inner.deletes.load(Ordering::Relaxed)
    }

    /// Zeroes all counters (between benchmark phases).
    pub fn reset(&self) {
        let c = &*self.inner;
        for counter in [
            &c.uploaded_bytes,
            &c.downloaded_bytes,
            &c.puts,
            &c.gets,
            &c.deletes,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = TrafficStats::new();
        t.record_put(100);
        t.record_put(50);
        t.record_get(30);
        t.record_delete();
        assert_eq!(t.uploaded_bytes(), 150);
        assert_eq!(t.downloaded_bytes(), 30);
        assert_eq!(t.total_bytes(), 180);
        assert_eq!(t.put_count(), 2);
        assert_eq!(t.get_count(), 1);
        assert_eq!(t.delete_count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = TrafficStats::new();
        let t2 = t.clone();
        t.record_put(10);
        assert_eq!(t2.uploaded_bytes(), 10);
    }

    #[test]
    fn records_from_many_threads_all_count() {
        let t = TrafficStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        t.record_get(3);
                    }
                });
            }
        });
        assert_eq!(t.get_count(), 400);
        assert_eq!(t.downloaded_bytes(), 1200);
    }

    #[test]
    fn reset_zeroes() {
        let t = TrafficStats::new();
        t.record_put(10);
        t.reset();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.put_count(), 0);
    }
}
