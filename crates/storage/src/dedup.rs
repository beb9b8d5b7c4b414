//! Chunk-refcount dedup tracking with orphan GC.
//!
//! Content-addressed chunk stores dedup naturally on *write* (same
//! fingerprint, same object name) but not on *delete*: the store cannot
//! know whether a chunk is still referenced by another file version, so
//! seed code simply never deleted chunks and leaked storage forever.
//! This module adds the missing accounting, modeled on syncr's
//! `chunk_tracker`:
//!
//! * [`RefcountTracker`] — pure bookkeeping: per-file chunk lists and
//!   per-chunk reference counts, with running logical/stored byte
//!   totals. No I/O; `workload`'s dedup-ratio report drives it directly.
//! * [`SwiftStore::offer_chunks`](crate::SwiftStore::offer_chunks) and
//!   friends — the store front-end wraps a tracker per
//!   `(owner, container)` scope and skips backend writes for chunks
//!   that are already live (the dedup fast path), revives orphans in
//!   place, and garbage-collects refcount-zero chunks on demand. A chunk
//!   may be offered by name alone; the store then says which payloads
//!   it needs before anything is recorded.
//!
//! ## Invariants
//!
//! * **Overwrite never orphans a live chunk**: recording a new version
//!   of a file adds the new references *before* releasing the old ones,
//!   so a chunk shared between versions never transiently reaches
//!   refcount zero.
//! * **GC never collects a referenced chunk**: collection only removes
//!   entries whose refcount is zero, and every store-level operation on
//!   a scope runs under that scope's lock, so a concurrent upload
//!   cannot race a sweep. (A zero-ref chunk that is re-uploaded before
//!   the sweep is *revived*, not rewritten.)
//! * Deleting a file only decrements; bytes are reclaimed exclusively
//!   by an explicit GC sweep, mirroring trash-then-expunge semantics.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Metadata of one chunk reference being recorded.
#[derive(Debug, Clone)]
pub struct ChunkMeta {
    /// Object name (the fingerprint hex).
    pub name: String,
    /// Uncompressed content length.
    pub logical_len: u64,
    /// Stored (possibly compressed) payload length.
    pub stored_len: u64,
}

#[derive(Debug, Default)]
struct ChunkEntry {
    refs: u64,
    logical_len: u64,
    stored_len: u64,
}

/// What [`RefcountTracker::record_file`] decided for each chunk.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RecordOutcome {
    /// Chunks not present in the store: the caller must write them.
    pub to_write: Vec<String>,
    /// Chunks that were orphans (refcount zero, bytes still present)
    /// and are live again: no write needed.
    pub revived: u64,
    /// Chunks that were already live: the dedup fast path.
    pub dedup_hits: u64,
    /// Bytes of payload the caller must actually write.
    pub bytes_to_write: u64,
}

/// Aggregate dedup statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DedupStats {
    /// Chunks with at least one reference.
    pub live_chunks: u64,
    /// Tracked chunks with zero references (reclaimable).
    pub orphan_chunks: u64,
    /// Sum of uncompressed bytes across all file references — what the
    /// store would hold without dedup or compression.
    pub logical_bytes: u64,
    /// Stored payload bytes of live chunks (each chunk counted once).
    pub stored_bytes: u64,
    /// Stored payload bytes of orphaned chunks (reclaimable by GC).
    pub orphan_bytes: u64,
}

impl DedupStats {
    /// Logical-to-stored ratio; > 1.0 means dedup/compression is
    /// saving space. Returns 1.0 for an empty store.
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.stored_bytes as f64
        }
    }
}

/// Pure per-scope refcount bookkeeping: files reference chunks, chunks
/// count references. No I/O — callers decide what the outcome means.
#[derive(Debug, Default)]
pub struct RefcountTracker {
    chunks: HashMap<String, ChunkEntry>,
    files: HashMap<String, Vec<String>>,
    stats: DedupStats,
}

impl RefcountTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records (or overwrites) `file_key`'s chunk list. New references
    /// are added before old ones are released, so chunks shared between
    /// the versions never transiently orphan.
    pub fn record_file(&mut self, file_key: &str, chunks: &[ChunkMeta]) -> RecordOutcome {
        let mut outcome = RecordOutcome::default();
        let mut names = Vec::with_capacity(chunks.len());
        for meta in chunks {
            names.push(meta.name.clone());
            self.stats.logical_bytes += meta.logical_len;
            match self.chunks.entry(meta.name.clone()) {
                Entry::Occupied(mut e) => {
                    let entry = e.get_mut();
                    if entry.refs == 0 {
                        // Orphan revival: bytes are still in the store.
                        outcome.revived += 1;
                        self.stats.orphan_chunks -= 1;
                        self.stats.orphan_bytes -= entry.stored_len;
                        self.stats.live_chunks += 1;
                        self.stats.stored_bytes += entry.stored_len;
                    } else {
                        outcome.dedup_hits += 1;
                    }
                    entry.refs += 1;
                }
                Entry::Vacant(e) => {
                    e.insert(ChunkEntry {
                        refs: 1,
                        logical_len: meta.logical_len,
                        stored_len: meta.stored_len,
                    });
                    outcome.to_write.push(meta.name.clone());
                    outcome.bytes_to_write += meta.stored_len;
                    self.stats.live_chunks += 1;
                    self.stats.stored_bytes += meta.stored_len;
                }
            }
        }
        let old = self.files.insert(file_key.to_string(), names);
        if let Some(old_names) = old {
            self.release_names(&old_names);
        }
        outcome
    }

    /// Releases `file_key`'s references. Returns `true` if the file was
    /// tracked. Chunks dropping to zero refs become orphans; their
    /// bytes stay until [`RefcountTracker::collect_orphans`].
    pub fn release_file(&mut self, file_key: &str) -> bool {
        match self.files.remove(file_key) {
            Some(names) => {
                self.release_names(&names);
                true
            }
            None => false,
        }
    }

    fn release_names(&mut self, names: &[String]) {
        for name in names {
            let entry = self
                .chunks
                .get_mut(name)
                .expect("released chunk must be tracked");
            debug_assert!(entry.refs > 0, "refcount underflow on {name}");
            entry.refs -= 1;
            self.stats.logical_bytes -= entry.logical_len;
            if entry.refs == 0 {
                self.stats.live_chunks -= 1;
                self.stats.stored_bytes -= entry.stored_len;
                self.stats.orphan_chunks += 1;
                self.stats.orphan_bytes += entry.stored_len;
            }
        }
    }

    /// Removes every refcount-zero chunk from the tracker and returns
    /// `(name, stored_len)` of each, for the caller to delete from the
    /// underlying store.
    pub fn collect_orphans(&mut self) -> Vec<(String, u64)> {
        let orphans: Vec<(String, u64)> = self
            .chunks
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .map(|(n, e)| (n.clone(), e.stored_len))
            .collect();
        for (name, stored) in &orphans {
            self.chunks.remove(name);
            self.stats.orphan_chunks -= 1;
            self.stats.orphan_bytes -= stored;
        }
        orphans
    }

    /// Current reference count of a chunk (0 for orphans *and* for
    /// never-seen chunks; use [`RefcountTracker::is_tracked`] to tell
    /// them apart).
    pub fn refs(&self, name: &str) -> u64 {
        self.chunks.get(name).map(|e| e.refs).unwrap_or(0)
    }

    /// Whether the chunk has an entry (live or orphaned).
    pub fn is_tracked(&self, name: &str) -> bool {
        self.chunks.contains_key(name)
    }

    /// Number of tracked files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Aggregate statistics (maintained incrementally; O(1)).
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Recomputes statistics from scratch — a test/debug oracle for the
    /// incremental totals.
    #[doc(hidden)]
    pub fn recompute_stats(&self) -> DedupStats {
        let mut s = DedupStats::default();
        for e in self.chunks.values() {
            if e.refs > 0 {
                s.live_chunks += 1;
                s.stored_bytes += e.stored_len;
            } else {
                s.orphan_chunks += 1;
                s.orphan_bytes += e.stored_len;
            }
        }
        for names in self.files.values() {
            for n in names {
                s.logical_bytes += self.chunks[n].logical_len;
            }
        }
        s
    }
}

/// One chunk of a file being uploaded through
/// [`SwiftStore::put_chunks`](crate::SwiftStore::put_chunks).
#[derive(Debug, Clone)]
pub struct DedupChunk {
    /// Object name (the fingerprint hex).
    pub name: String,
    /// Stored payload (possibly compressed).
    pub payload: Bytes,
    /// Uncompressed content length.
    pub logical_len: u64,
}

/// One chunk of a file being offered through
/// [`SwiftStore::offer_chunks`](crate::SwiftStore::offer_chunks): a name
/// the store may already hold, and the payload only if the caller has
/// gone to the cost of producing it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkOffer<'a> {
    /// Object name (the fingerprint hex).
    pub name: &'a str,
    /// Uncompressed content length.
    pub logical_len: u64,
    /// Stored payload (possibly compressed), or `None` to ask whether the
    /// store holds the chunk already.
    pub payload: Option<&'a Bytes>,
}

/// The store's answer to an offer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Every chunk is held or came with its payload: the file is recorded.
    Stored(PutChunksReceipt),
    /// Nothing was recorded. These indices into the offer name chunks that
    /// came without a payload and that the store does not hold; each
    /// missing name is listed once, at its first position. Offer again
    /// with their payloads.
    Missing(Vec<usize>),
}

/// What a [`SwiftStore::put_chunks`](crate::SwiftStore::put_chunks) call
/// actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PutChunksReceipt {
    /// Chunks written to the backend (previously unknown).
    pub uploaded: u64,
    /// Orphans brought back to life without a write.
    pub revived: u64,
    /// Chunks that were already live — no write, no transfer.
    pub dedup_hits: u64,
    /// Payload bytes actually transferred to the backend.
    pub bytes_written: u64,
}

/// Result of a [`SwiftStore::gc_chunks`](crate::SwiftStore::gc_chunks)
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Orphaned chunks deleted from the backend.
    pub collected: u64,
    /// Stored bytes reclaimed.
    pub reclaimed_bytes: u64,
}

/// `storage.dedup.*` instrument handles, acquired once per registry.
struct DedupMetrics {
    live_chunks: Arc<obs::Gauge>,
    orphan_chunks: Arc<obs::Gauge>,
    logical_bytes: Arc<obs::Gauge>,
    stored_bytes: Arc<obs::Gauge>,
    ratio: Arc<obs::Gauge>,
    hits_total: Arc<obs::Counter>,
    writes_total: Arc<obs::Counter>,
    revived_total: Arc<obs::Counter>,
    gc_collected_total: Arc<obs::Counter>,
    gc_reclaimed_bytes_total: Arc<obs::Counter>,
    offer_missing_total: Arc<obs::Counter>,
    offer_retries_total: Arc<obs::Counter>,
}

impl DedupMetrics {
    fn new() -> Self {
        DedupMetrics {
            live_chunks: obs::gauge("storage.dedup.live_chunks"),
            orphan_chunks: obs::gauge("storage.dedup.orphan_chunks"),
            logical_bytes: obs::gauge("storage.dedup.logical_bytes"),
            stored_bytes: obs::gauge("storage.dedup.stored_bytes"),
            ratio: obs::gauge("storage.dedup.ratio"),
            hits_total: obs::counter("storage.dedup.hits_total"),
            writes_total: obs::counter("storage.dedup.writes_total"),
            revived_total: obs::counter("storage.dedup.revived_total"),
            gc_collected_total: obs::counter("storage.dedup.gc_collected_total"),
            gc_reclaimed_bytes_total: obs::counter("storage.dedup.gc_reclaimed_bytes_total"),
            offer_missing_total: obs::counter("storage.offer.missing_total"),
            offer_retries_total: obs::counter("storage.offer.retries_total"),
        }
    }
}

/// Per-`(owner, container)` tracker scopes shared by all clones of one
/// [`SwiftStore`](crate::SwiftStore). A scope's [`Mutex`] is held across
/// the *entire* store operation — refcount decision plus backend writes
/// or deletes — which is what makes "GC never collects a chunk a
/// concurrent upload references" a lock-order fact rather than a
/// protocol hope.
pub(crate) struct DedupRegistry {
    scopes: RwLock<ScopeMap>,
    metrics: DedupMetrics,
}

/// `(owner, container)` → shared tracker scope.
type ScopeMap = HashMap<(String, String), Arc<Mutex<RefcountTracker>>>;

impl DedupRegistry {
    pub(crate) fn new() -> Self {
        DedupRegistry {
            scopes: RwLock::new(HashMap::new()),
            metrics: DedupMetrics::new(),
        }
    }

    /// The tracker for `owner`/`container`, created on first use.
    pub(crate) fn scope(&self, owner: &str, container: &str) -> Arc<Mutex<RefcountTracker>> {
        if let Some(s) = self
            .scopes
            .read()
            .get(&(owner.to_string(), container.to_string()))
        {
            return Arc::clone(s);
        }
        let mut scopes = self.scopes.write();
        Arc::clone(
            scopes
                .entry((owner.to_string(), container.to_string()))
                .or_default(),
        )
    }

    /// Folds a scope's before/after stats into the process-wide gauges.
    pub(crate) fn observe_delta(&self, before: DedupStats, after: DedupStats) {
        let m = &self.metrics;
        m.live_chunks
            .add(after.live_chunks as f64 - before.live_chunks as f64);
        m.orphan_chunks
            .add(after.orphan_chunks as f64 - before.orphan_chunks as f64);
        m.logical_bytes
            .add(after.logical_bytes as f64 - before.logical_bytes as f64);
        m.stored_bytes
            .add(after.stored_bytes as f64 - before.stored_bytes as f64);
        let logical = m.logical_bytes.value();
        let stored = m.stored_bytes.value();
        m.ratio
            .set(if stored > 0.0 { logical / stored } else { 1.0 });
    }

    pub(crate) fn record_put_outcome(&self, outcome: &RecordOutcome) {
        self.metrics.hits_total.add(outcome.dedup_hits);
        self.metrics.revived_total.add(outcome.revived);
        self.metrics.writes_total.add(outcome.to_write.len() as u64);
    }

    /// An offer was answered "missing": `chunks` payloads asked for, one
    /// offer the caller has to repeat.
    pub(crate) fn record_offer_missing(&self, chunks: usize) {
        self.metrics.offer_missing_total.add(chunks as u64);
        self.metrics.offer_retries_total.inc();
    }

    pub(crate) fn record_gc(&self, report: &GcReport) {
        self.metrics.gc_collected_total.add(report.collected);
        self.metrics
            .gc_reclaimed_bytes_total
            .add(report.reclaimed_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str, logical: u64, stored: u64) -> ChunkMeta {
        ChunkMeta {
            name: name.to_string(),
            logical_len: logical,
            stored_len: stored,
        }
    }

    #[test]
    fn first_write_then_dedup_hit() {
        let mut t = RefcountTracker::new();
        let out = t.record_file("f1", &[meta("a", 100, 60), meta("b", 100, 70)]);
        assert_eq!(out.to_write, vec!["a", "b"]);
        assert_eq!(out.bytes_to_write, 130);
        let out = t.record_file("f2", &[meta("a", 100, 60)]);
        assert!(out.to_write.is_empty());
        assert_eq!(out.dedup_hits, 1);
        assert_eq!(t.refs("a"), 2);
        let s = t.stats();
        assert_eq!(s.logical_bytes, 300);
        assert_eq!(s.stored_bytes, 130);
        assert!(s.ratio() > 2.0);
    }

    #[test]
    fn overwrite_never_orphans_shared_chunk() {
        let mut t = RefcountTracker::new();
        t.record_file("f", &[meta("keep", 10, 10), meta("drop", 10, 10)]);
        let out = t.record_file("f", &[meta("keep", 10, 10), meta("new", 10, 10)]);
        // "keep" is shared between versions: counted as a dedup hit, and
        // still live with exactly one reference.
        assert_eq!(out.dedup_hits, 1);
        assert_eq!(out.to_write, vec!["new"]);
        assert_eq!(t.refs("keep"), 1);
        assert_eq!(t.refs("drop"), 0);
        assert!(t.is_tracked("drop"));
        assert_eq!(t.stats().orphan_chunks, 1);
    }

    #[test]
    fn release_and_collect() {
        let mut t = RefcountTracker::new();
        t.record_file("f1", &[meta("a", 10, 8), meta("b", 10, 8)]);
        t.record_file("f2", &[meta("b", 10, 8)]);
        assert!(t.release_file("f1"));
        assert!(!t.release_file("f1"));
        // "a" orphaned, "b" still held by f2.
        assert_eq!(t.refs("b"), 1);
        let collected = t.collect_orphans();
        assert_eq!(collected, vec![("a".to_string(), 8)]);
        assert!(!t.is_tracked("a"));
        assert!(t.is_tracked("b"));
        assert_eq!(t.stats(), t.recompute_stats());
    }

    #[test]
    fn orphan_revival_skips_rewrite() {
        let mut t = RefcountTracker::new();
        t.record_file("f", &[meta("a", 10, 8)]);
        t.release_file("f");
        assert_eq!(t.stats().orphan_chunks, 1);
        let out = t.record_file("g", &[meta("a", 10, 8)]);
        assert!(out.to_write.is_empty());
        assert_eq!(out.revived, 1);
        assert_eq!(t.refs("a"), 1);
        assert_eq!(t.stats().orphan_chunks, 0);
    }

    #[test]
    fn duplicate_chunk_within_one_file() {
        let mut t = RefcountTracker::new();
        let out = t.record_file("f", &[meta("a", 10, 8), meta("a", 10, 8)]);
        assert_eq!(out.to_write, vec!["a"]);
        assert_eq!(out.dedup_hits, 1);
        assert_eq!(t.refs("a"), 2);
        assert_eq!(t.stats().logical_bytes, 20);
        assert_eq!(t.stats().stored_bytes, 8);
        t.release_file("f");
        assert_eq!(t.refs("a"), 0);
        assert_eq!(t.stats(), t.recompute_stats());
    }

    #[test]
    fn empty_ratio_is_one() {
        assert_eq!(RefcountTracker::new().stats().ratio(), 1.0);
    }

    #[test]
    fn incremental_stats_match_oracle_over_random_ops() {
        let mut t = RefcountTracker::new();
        let mut state = 0x1234_5678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for step in 0..2_000 {
            let file = format!("f{}", rng() % 40);
            match rng() % 4 {
                0 => {
                    t.release_file(&file);
                }
                1 if step % 7 == 0 => {
                    t.collect_orphans();
                }
                _ => {
                    let n = (rng() % 5 + 1) as usize;
                    let chunks: Vec<ChunkMeta> = (0..n)
                        .map(|_| {
                            let c = rng() % 30;
                            meta(&format!("c{c}"), 100 + c, 50 + c)
                        })
                        .collect();
                    t.record_file(&file, &chunks);
                }
            }
        }
        assert_eq!(t.stats(), t.recompute_stats());
    }
}
