//! `pipeline` — staged, multi-core ingest: chunk → hash → (compress).
//!
//! The single upload path every file crosses (paper §4.1) as a worker
//! pipeline instead of a scalar loop, in two stages a caller can run
//! apart:
//!
//! 1. **Index** ([`IngestPipeline::index`]) — the configured [`Chunker`]
//!    scans the input once and produces chunk spans. That scan is
//!    sequential by nature (CDC boundaries depend on the preceding bytes)
//!    but runs at memory speed — a Buzhash roll per byte — so it is never
//!    the bottleneck. Every span then becomes an independent fingerprint
//!    task; the calling thread and the pool's helpers drain a shared
//!    index counter.
//! 2. **Pack** ([`IngestPipeline::pack`]) — compress a chosen subset of
//!    the indexed chunks the same way. Compression is the expensive
//!    stage (tens of MB/s against hundreds for the fingerprint), and
//!    which chunks need it is something only the store can say, so a
//!    caller that can ask first packs only what the store lacks.
//!
//! [`IngestPipeline::ingest`] is exactly "index, then pack everything".
//! Results land in a slot table indexed by task order, so reports list
//! chunks in input order no matter how the workers interleave.
//!
//! [`IngestPipeline::reindex`] is the index stage for a new version of a
//! file whose previous version is indexed already: a chunk at the same
//! offset, of the same length and with the same bytes (one `memcmp`)
//! keeps its id, and only the others are hashed.
//!
//! The input is [`Bytes`] end to end: each task takes a zero-copy
//! `data.slice(span)` window, and with compression disabled that same
//! window *is* the stored payload — no byte is copied between the
//! caller's buffer and the store.
//!
//! Both stages, and the sync client's download window, run on one
//! scheduler ([`IngestPipeline::map_tasks`]) over one pool: a process has
//! a single set of helper threads, started by the first call that can use
//! one and sized from the host once ([`host_workers`]). A pipeline owns
//! no thread; its `workers` is the most threads one of its calls may
//! occupy. The calling thread always drains its own tasks, so a busy pool
//! can slow a call but never block it, and a task may itself call
//! `map_tasks`.
//!
//! Backpressure is structural: every stage is synchronous and dispatches
//! only its own tasks, so a caller can never enqueue more than one file
//! of work, and the pool is shared across calls without fairness
//! machinery (slots are claimed one task at a time).

use crate::chunker::Chunker;
use crate::compress::Algorithm;
use crate::{ChunkId, Fingerprint};
use bytes::Bytes;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// One chunk after the index stage: where it sits and what it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexedChunk {
    /// Byte offset of the chunk within the input.
    pub offset: usize,
    /// Uncompressed chunk length.
    pub len: usize,
    /// Content fingerprint of the uncompressed chunk.
    pub id: ChunkId,
}

/// A file after the index stage: its bytes, held by handle, and the
/// fingerprinted chunks that partition them. Input to
/// [`IngestPipeline::pack`] and, as the previous version, to
/// [`IngestPipeline::reindex`].
#[derive(Debug)]
pub struct FileIndex {
    data: Bytes,
    chunks: Vec<IndexedChunk>,
    /// How many of `chunks` were fingerprinted to make this index.
    hashed: usize,
}

impl FileIndex {
    /// An index whose ids are already known: `chunks` lists each chunk's
    /// id and length in file order. The caller vouches that every id is
    /// the fingerprint of its span of `data`; nothing is hashed.
    pub fn known(data: Bytes, chunks: &[(ChunkId, usize)]) -> Self {
        let mut offset = 0;
        let chunks = chunks
            .iter()
            .map(|&(id, len)| {
                let chunk = IndexedChunk { offset, len, id };
                offset += len;
                chunk
            })
            .collect();
        FileIndex {
            data,
            chunks,
            hashed: 0,
        }
    }

    /// Chunks in input order.
    pub fn chunks(&self) -> &[IndexedChunk] {
        &self.chunks
    }

    /// How many chunks were fingerprinted to make this index; the others
    /// took the id of a byte-identical chunk of the previous version.
    pub fn hashed(&self) -> usize {
        self.hashed
    }

    /// The id of this index's chunk at exactly `offset`, if it has the
    /// length and the bytes of `bytes`.
    fn id_of(&self, offset: usize, bytes: &[u8]) -> Option<ChunkId> {
        let i = self
            .chunks
            .binary_search_by_key(&offset, |chunk| chunk.offset)
            .ok()?;
        let chunk = &self.chunks[i];
        let held = self.data.get(offset..offset.checked_add(chunk.len)?)?;
        (held == bytes).then_some(chunk.id)
    }

    /// Zero-copy window of chunk `i`.
    fn window(&self, i: usize) -> Bytes {
        let chunk = &self.chunks[i];
        self.data.slice(chunk.offset..chunk.offset + chunk.len)
    }
}

/// One chunk out of the pipeline, in input order.
#[derive(Debug, Clone)]
pub struct IngestedChunk {
    /// Byte offset of the chunk within the input.
    pub offset: usize,
    /// Uncompressed chunk length.
    pub len: usize,
    /// Content fingerprint of the uncompressed chunk.
    pub id: ChunkId,
    /// The bytes to store: a zero-copy window of the input, or the
    /// compressed form when a compression stage is configured.
    pub payload: Bytes,
    /// Whether `payload` is compressed ([`Algorithm`] self-identifying
    /// framing).
    pub compressed: bool,
}

/// The result of one [`IngestPipeline::ingest`] call.
#[derive(Debug)]
pub struct IngestReport {
    /// Chunks in input order.
    pub chunks: Vec<IngestedChunk>,
    /// Total input bytes.
    pub logical_bytes: u64,
    /// Total payload bytes (equals `logical_bytes` when not compressing).
    pub payload_bytes: u64,
    /// Wall-clock time of the whole ingest.
    pub elapsed: Duration,
}

/// Pipeline configuration.
#[derive(Clone)]
pub struct PipelineConfig {
    /// The most threads one call may occupy (the calling thread plus
    /// helpers from the process-wide pool); `0` and `1` both mean fully
    /// inline. A host with fewer cores simply has fewer helpers to lend.
    pub workers: usize,
    /// Fingerprint algorithm for chunk ids.
    pub fingerprint: Fingerprint,
    /// Optional compression stage; `None` keeps payloads as zero-copy
    /// input windows.
    pub compression: Option<Algorithm>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 1,
            fingerprint: Fingerprint::default(),
            compression: Some(Algorithm::default()),
        }
    }
}

/// The staged ingest pipeline. It owns no thread: every pipeline of the
/// process borrows helpers from one shared pool, a call at a time.
pub struct IngestPipeline {
    chunker: Arc<dyn Chunker + Send + Sync>,
    config: PipelineConfig,
    metrics: Metrics,
}

struct Metrics {
    bytes_total: Arc<obs::Counter>,
    payload_bytes_total: Arc<obs::Counter>,
    chunks_total: Arc<obs::Counter>,
    files_total: Arc<obs::Counter>,
    ingest_seconds: Arc<obs::Histogram>,
    hash_seconds: Arc<obs::Histogram>,
    compress_seconds: Arc<obs::Histogram>,
    chunk_seconds: Arc<obs::Histogram>,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            bytes_total: obs::counter("content.ingest.bytes_total"),
            payload_bytes_total: obs::counter("content.ingest.payload_bytes_total"),
            chunks_total: obs::counter("content.ingest.chunks_total"),
            files_total: obs::counter("content.ingest.files_total"),
            ingest_seconds: obs::histogram("content.ingest.seconds"),
            hash_seconds: obs::histogram("content.ingest.hash_seconds"),
            compress_seconds: obs::histogram("content.ingest.compress_seconds"),
            chunk_seconds: obs::histogram("content.ingest.chunk_seconds"),
        }
    }
}

impl IngestPipeline {
    /// Creates a pipeline over the given chunker.
    pub fn new(chunker: Arc<dyn Chunker + Send + Sync>, config: PipelineConfig) -> Self {
        IngestPipeline {
            chunker,
            config,
            metrics: Metrics::new(),
        }
    }

    /// The configured worker count (≥ 1).
    pub fn workers(&self) -> usize {
        self.config.workers.max(1)
    }

    /// The index stage: chunk boundaries and one fingerprint per chunk.
    /// Nothing is compressed and nothing is copied.
    pub fn index(&self, data: Bytes) -> FileIndex {
        self.index_over(data, None)
    }

    /// The index stage for a new version of a file: a chunk at the same
    /// offset, of the same length and with the same bytes as one of
    /// `previous` takes that chunk's id, and only the rest is hashed. The
    /// result is the one [`IngestPipeline::index`] returns, as long as
    /// `previous`'s ids are right.
    pub fn reindex(&self, data: Bytes, previous: FileIndex) -> FileIndex {
        self.index_over(data, Some(previous))
    }

    fn index_over(&self, data: Bytes, previous: Option<FileIndex>) -> FileIndex {
        let chunk_started = Instant::now();
        let spans = self.chunker.chunk(&data);
        self.metrics.chunk_seconds.record(chunk_started.elapsed());

        let n = spans.len();
        let ids = {
            let (data, spans) = (data.clone(), spans.clone());
            let fingerprint = self.config.fingerprint;
            let hash_seconds = Arc::clone(&self.metrics.hash_seconds);
            self.map_tasks(n, move |i| {
                let bytes = &data[spans[i].range()];
                let kept = previous
                    .as_ref()
                    .and_then(|p| p.id_of(spans[i].offset, bytes));
                if let Some(id) = kept {
                    return (id, false);
                }
                let hash_started = Instant::now();
                let id = fingerprint.of(bytes);
                hash_seconds.record(hash_started.elapsed());
                (id, true)
            })
        };
        let hashed = ids.iter().filter(|(_, hashed)| *hashed).count();

        self.metrics.bytes_total.add(data.len() as u64);
        self.metrics.chunks_total.add(n as u64);
        self.metrics.files_total.inc();
        let chunks = spans
            .iter()
            .zip(ids)
            .map(|(span, (id, _))| IndexedChunk {
                offset: span.offset,
                len: span.len,
                id,
            })
            .collect();
        FileIndex {
            data,
            chunks,
            hashed,
        }
    }

    /// The pack stage: the stored payload of each chunk named in `which`
    /// (indices into [`FileIndex::chunks`]), in `which` order — the
    /// compressed form, or the chunk's zero-copy window when no
    /// compression stage is configured.
    ///
    /// # Panics
    ///
    /// If an index in `which` is out of range for `index`.
    pub fn pack(&self, index: &FileIndex, which: &[usize]) -> Vec<Bytes> {
        let windows: Vec<Bytes> = which.iter().map(|&i| index.window(i)).collect();
        let payloads = match self.config.compression {
            None => windows,
            Some(algorithm) => {
                let compress_seconds = Arc::clone(&self.metrics.compress_seconds);
                self.map_tasks(windows.len(), move |k| {
                    let compress_started = Instant::now();
                    let packed = algorithm.compress(&windows[k]);
                    compress_seconds.record(compress_started.elapsed());
                    packed
                })
            }
        };
        self.metrics
            .payload_bytes_total
            .add(payloads.iter().map(|p| p.len() as u64).sum());
        payloads
    }

    /// Runs the full pipeline over one input buffer: index, then pack
    /// every chunk.
    pub fn ingest(&self, data: Bytes) -> IngestReport {
        let started = Instant::now();
        let index = self.index(data);
        let all: Vec<usize> = (0..index.chunks.len()).collect();
        let payloads = self.pack(&index, &all);
        let compressed = self.config.compression.is_some();
        let chunks: Vec<IngestedChunk> = index
            .chunks
            .iter()
            .zip(payloads)
            .map(|(chunk, payload)| IngestedChunk {
                offset: chunk.offset,
                len: chunk.len,
                id: chunk.id,
                payload,
                compressed,
            })
            .collect();

        let payload_bytes: u64 = chunks.iter().map(|c| c.payload.len() as u64).sum();
        let elapsed = started.elapsed();
        self.metrics.ingest_seconds.record(elapsed);
        IngestReport {
            chunks,
            logical_bytes: index.data.len() as u64,
            payload_bytes,
            elapsed,
        }
    }

    /// Runs `task(0)`..`task(n - 1)` on the calling thread and at most
    /// `workers - 1` helpers of the process-wide pool, and returns the
    /// results in task order. A stage of one task, or a pipeline of one
    /// worker, never leaves the calling thread.
    ///
    /// # Panics
    ///
    /// If a task panics, on whichever thread: the first panic is raised
    /// again here once the tasks already started have finished.
    pub fn map_tasks<T: Send + 'static>(
        &self,
        n: usize,
        task: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let workers = self.workers().min(n);
        if workers <= 1 {
            return (0..n).map(task).collect();
        }
        Pool::global().map(workers - 1, n, task)
    }
}

/// Helper threads the pool starts at most, whatever the host reports: a
/// file is a few dozen 512 KiB tasks, not hundreds.
const MAX_HELPERS: usize = 15;

/// Threads one call can occupy on this host: the calling thread plus the
/// helpers of the process-wide pool. The host is asked once per process
/// (the answer re-reads affinity and cgroup files on every call, and a
/// client is configured per connection).
pub fn host_workers() -> usize {
    static HOST_WORKERS: OnceLock<usize> = OnceLock::new();
    *HOST_WORKERS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(MAX_HELPERS + 1)
    })
}

/// What one call has to show for itself so far.
enum Outcome<T> {
    /// The slot table, filled in task order as tasks finish.
    Slots(Vec<Option<T>>),
    /// The first panic out of a task. From then on it is the call's
    /// outcome, and tasks not yet started are skipped.
    Panicked(Box<dyn Any + Send>),
}

/// Shared state of one stage of one call, drained cooperatively by the
/// calling thread and the pool's helpers.
struct CallState<T, F> {
    task: F,
    n: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
    outcome: Mutex<Outcome<T>>,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl<T, F: Fn(usize) -> T> CallState<T, F> {
    /// Claims and runs tasks until none is left; returns how many ran
    /// here. A panicking task is caught, so the thread — a helper every
    /// client of the process shares — survives it and `pending` still
    /// reaches zero.
    fn drain(&self) -> u64 {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return ran;
            }
            if matches!(*self.outcome(), Outcome::Slots(_)) {
                let result = catch_unwind(AssertUnwindSafe(|| (self.task)(i)));
                let mut outcome = self.outcome();
                match (result, &mut *outcome) {
                    (Ok(value), Outcome::Slots(slots)) => slots[i] = Some(value),
                    (Err(panic), Outcome::Slots(_)) => *outcome = Outcome::Panicked(panic),
                    // A later panic, or a result nobody will read.
                    (_, Outcome::Panicked(_)) => {}
                }
                ran += 1;
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().expect("ingest done flag poisoned");
                *done = true;
                self.done_cv.notify_all();
            }
        }
    }

    fn outcome(&self) -> MutexGuard<'_, Outcome<T>> {
        self.outcome.lock().expect("ingest outcome poisoned")
    }

    fn wait_done(&self) {
        let mut done = self.done.lock().expect("ingest done flag poisoned");
        while !*done {
            done = self.done_cv.wait(done).expect("ingest done flag poisoned");
        }
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A minimal long-lived helper pool: a locked deque plus a condvar. The
/// threads live as long as the process.
struct Pool {
    shared: Arc<PoolShared>,
    size: usize,
    tasks_total: Arc<obs::Counter>,
    helped_total: Arc<obs::Counter>,
}

struct PoolShared {
    jobs: Mutex<VecDeque<Job>>,
    work_cv: Condvar,
}

impl Pool {
    /// The pool every pipeline of the process shares, started on first
    /// use with one helper per core beyond the caller's.
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| {
            obs::gauge("content.ingest.workers").set(host_workers() as f64);
            Pool::spawn(host_workers() - 1)
        })
    }

    fn spawn(size: usize) -> Self {
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
        });
        for i in 0..size {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ingest-{i}"))
                .spawn(move || loop {
                    let job = {
                        let mut jobs = shared.jobs.lock().expect("ingest pool poisoned");
                        loop {
                            if let Some(job) = jobs.pop_front() {
                                break job;
                            }
                            jobs = shared.work_cv.wait(jobs).expect("ingest pool poisoned");
                        }
                    };
                    job();
                })
                .expect("spawn ingest helper");
        }
        Pool {
            shared,
            size,
            tasks_total: obs::counter("content.pool.tasks_total"),
            helped_total: obs::counter("content.pool.helped_total"),
        }
    }

    /// [`IngestPipeline::map_tasks`] with at most `max_helpers` of this
    /// pool's threads beside the caller.
    fn map<T: Send + 'static>(
        &self,
        max_helpers: usize,
        n: usize,
        task: impl Fn(usize) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        self.tasks_total.add(n as u64);
        let helpers = self.size.min(max_helpers).min(n.saturating_sub(1));
        if helpers == 0 {
            return (0..n).map(task).collect();
        }
        let state = Arc::new(CallState {
            task,
            n,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(n),
            outcome: Mutex::new(Outcome::Slots((0..n).map(|_| None).collect())),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        for _ in 0..helpers {
            let st = Arc::clone(&state);
            let helped_total = Arc::clone(&self.helped_total);
            self.submit(Box::new(move || helped_total.add(st.drain())));
        }
        // The caller works through its own tasks whether or not a helper
        // ever turns up, then waits only for tasks already running.
        state.drain();
        state.wait_done();
        let outcome = std::mem::replace(&mut *state.outcome(), Outcome::Slots(Vec::new()));
        match outcome {
            Outcome::Slots(slots) => slots
                .into_iter()
                .map(|slot| slot.expect("ingest slot incomplete"))
                .collect(),
            Outcome::Panicked(panic) => resume_unwind(panic),
        }
    }

    fn submit(&self, job: Job) {
        let mut jobs = self.shared.jobs.lock().expect("ingest pool poisoned");
        jobs.push_back(job);
        drop(jobs);
        self.shared.work_cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunker::{ContentDefinedChunker, FixedChunker};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicBool;

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(7);
        (0..len)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8
            })
            .collect()
    }

    fn pipeline(workers: usize, compression: Option<Algorithm>) -> IngestPipeline {
        IngestPipeline::new(
            Arc::new(FixedChunker::new(4096)),
            PipelineConfig {
                workers,
                fingerprint: Fingerprint::Sha1,
                compression,
            },
        )
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        let report = pipeline(2, None).ingest(Bytes::new());
        assert!(report.chunks.is_empty());
        assert_eq!(report.logical_bytes, 0);
    }

    #[test]
    fn chunks_come_back_in_input_order() {
        let data = Bytes::from(random_bytes(100_000, 1));
        for workers in [1, 2, 4] {
            let report = pipeline(workers, None).ingest(data.clone());
            let mut expected_offset = 0;
            for c in &report.chunks {
                assert_eq!(c.offset, expected_offset, "workers={workers}");
                expected_offset += c.len;
            }
            assert_eq!(expected_offset, data.len());
        }
    }

    #[test]
    fn parallel_matches_inline_results() {
        let data = Bytes::from(random_bytes(300_000, 2));
        let inline = pipeline(1, Some(Algorithm::Lzss)).ingest(data.clone());
        let parallel = pipeline(4, Some(Algorithm::Lzss)).ingest(data.clone());
        assert_eq!(inline.chunks.len(), parallel.chunks.len());
        for (a, b) in inline.chunks.iter().zip(parallel.chunks.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.payload, b.payload);
            assert_eq!((a.offset, a.len), (b.offset, b.len));
        }
        assert_eq!(inline.payload_bytes, parallel.payload_bytes);
    }

    #[test]
    fn uncompressed_payload_is_zero_copy_window() {
        let data = Bytes::from(random_bytes(20_000, 3));
        let report = pipeline(2, None).ingest(data.clone());
        assert_eq!(report.payload_bytes, report.logical_bytes);
        for c in &report.chunks {
            assert!(!c.compressed);
            assert_eq!(c.payload, data.slice(c.offset..c.offset + c.len));
        }
    }

    #[test]
    fn compressed_payloads_roundtrip() {
        // Compressible content: payloads shrink and decompress back.
        let data = Bytes::from(b"stacksync ".repeat(5_000));
        let report = pipeline(3, Some(Algorithm::Lzss)).ingest(data.clone());
        assert!(report.payload_bytes < report.logical_bytes);
        let mut rebuilt = Vec::new();
        for c in &report.chunks {
            assert!(c.compressed);
            rebuilt.extend_from_slice(&Algorithm::decompress(&c.payload).unwrap());
        }
        assert_eq!(rebuilt, data.to_vec());
    }

    #[test]
    fn chunks_stored_raw_are_counted_by_whether_lzss_ran() {
        let precheck_raw = obs::counter("content.compress.precheck_raw_total");
        let discarded = obs::counter("content.compress.lzss_discarded_total");
        // Other tests of the process add to both, never take away.
        let before = precheck_raw.value();
        let data = Bytes::from(random_bytes(3 * 4096, 9));
        let report = pipeline(1, Some(Algorithm::Lzss)).ingest(data);
        // Tag 0: the `Store` framing.
        assert!(report.chunks.iter().all(|c| c.payload[0] == 0));
        assert!(precheck_raw.value() >= before + 3);
        // Random chunks too long to pre-check: LZSS runs, and its stream is
        // dropped for `Store`.
        let before = discarded.value();
        let long = IngestPipeline::new(
            Arc::new(FixedChunker::new(16 * 1024)),
            PipelineConfig {
                workers: 1,
                fingerprint: Fingerprint::Sha1,
                compression: Some(Algorithm::Lzss),
            },
        );
        let report = long.ingest(Bytes::from(random_bytes(2 * 16 * 1024, 10)));
        assert!(report.chunks.iter().all(|c| c.payload[0] == 0));
        assert!(discarded.value() >= before + 2);
    }

    #[test]
    fn ids_match_fingerprint_of_content() {
        let data = Bytes::from(random_bytes(50_000, 4));
        let p = IngestPipeline::new(
            Arc::new(ContentDefinedChunker::test_scale()),
            PipelineConfig {
                workers: 2,
                fingerprint: Fingerprint::Sha1,
                compression: None,
            },
        );
        let report = p.ingest(data.clone());
        assert!(report.chunks.len() > 1);
        for c in &report.chunks {
            assert_eq!(c.id, ChunkId::of(&data.slice(c.offset..c.offset + c.len)));
        }
    }

    #[test]
    fn pool_survives_many_small_ingests() {
        let p = pipeline(4, None);
        for seed in 0..50u64 {
            let data = Bytes::from(random_bytes(10_000 + seed as usize, seed));
            let report = p.ingest(data);
            assert_eq!(report.chunks.len(), 3);
        }
    }

    /// A pool of exactly `size` helpers, apart from the process-wide one;
    /// its idle threads last until the test process exits.
    fn private_pool(size: usize) -> &'static Pool {
        Box::leak(Box::new(Pool::spawn(size)))
    }

    /// Runs `body` on a thread of its own and fails, instead of hanging
    /// the suite, if it has not returned in time.
    fn within<R: Send + 'static>(limit: Duration, body: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(body()));
        rx.recv_timeout(limit).expect("the call never returned")
    }

    fn on_helper_thread() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("ingest-"))
    }

    /// A task body for a one-helper pool: the caller and the helper are
    /// each held in their first task until the other has one too, so both
    /// are known to take part; then the side `panics` names, if any,
    /// panics.
    fn rendezvous(panics: Option<bool>) -> impl Fn(usize) -> usize + Send + Sync + 'static {
        let both_running = std::sync::Barrier::new(2);
        let (helper_met, caller_met) = (AtomicBool::new(false), AtomicBool::new(false));
        move |i| {
            let helper = on_helper_thread();
            let met = if helper { &helper_met } else { &caller_met };
            if !met.swap(true, Ordering::Relaxed) {
                both_running.wait();
                if panics == Some(helper) {
                    panic!("task {i} failed");
                }
            }
            i
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_survives() {
        // A panic on the helper is the interleaving that used to hang the
        // caller and kill the thread.
        for panic_on_helper in [true, false] {
            let pool = private_pool(1);
            let (outcome, next) = within(Duration::from_secs(30), move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    pool.map(1, 16, rendezvous(Some(panic_on_helper)))
                }));
                // Returns only if the pool's one thread is still serving.
                (outcome, pool.map(1, 16, rendezvous(None)))
            });
            let payload = outcome.expect_err("the task's panic is the call's outcome");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.ends_with("failed"), "{message}");
            assert_eq!(next, (0..16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn busy_one_helper_pool_never_blocks_concurrent_or_nested_calls() {
        // 8 callers share one helper, and every fourth task is itself a
        // call on the same pool — from the helper's thread too. Each
        // caller drains its own tasks, so everything finishes whoever the
        // helper happens to be serving.
        let pool = private_pool(1);
        let sums = within(Duration::from_secs(60), move || {
            let callers: Vec<_> = (0..8u64)
                .map(|caller| {
                    std::thread::spawn(move || {
                        let results = pool.map(1, 64, move |i| {
                            let own = caller * 1000 + i as u64;
                            if i % 4 == 0 {
                                own + pool.map(1, 8, |k| k as u64).iter().sum::<u64>()
                            } else {
                                own
                            }
                        });
                        results.iter().sum::<u64>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller panicked"))
                .collect::<Vec<u64>>()
        });
        for (caller, sum) in sums.iter().enumerate() {
            let nested = 16 * (0..8u64).sum::<u64>();
            let own = 64 * caller as u64 * 1000 + (0..64u64).sum::<u64>();
            assert_eq!(*sum, own + nested, "caller {caller}");
        }
    }

    #[test]
    fn one_worker_or_one_task_stays_on_the_caller() {
        let on_caller = |workers: usize, n: usize| {
            let caller = std::thread::current().id();
            pipeline(workers, None)
                .map_tasks(n, move |_| std::thread::current().id() == caller)
                .into_iter()
                .all(|same| same)
        };
        assert!(on_caller(1, 64));
        assert!(on_caller(8, 1));
        assert!(host_workers() >= 1 && host_workers() <= MAX_HELPERS + 1);
    }

    #[test]
    fn pack_returns_the_chosen_chunks_in_the_order_asked() {
        let data = Bytes::from(b"stacksync ".repeat(2_000));
        let p = pipeline(2, Some(Algorithm::Lzss));
        let index = p.index(data.clone());
        assert_eq!(index.chunks().len(), 5);
        let packed = p.pack(&index, &[3, 0]);
        assert_eq!(packed.len(), 2);
        for (payload, i) in packed.iter().zip([3usize, 0]) {
            let c = index.chunks()[i];
            assert_eq!(
                Algorithm::decompress(payload).unwrap(),
                data.slice(c.offset..c.offset + c.len)
            );
        }
        assert!(p.pack(&index, &[]).is_empty());
    }

    /// `v1` changed by one of the edits a file sees: an append, a
    /// same-length rewrite of a few bytes, a truncation, a prefix, none.
    fn edited(v1: &[u8], edit: u8, at: usize, seed: u64) -> Vec<u8> {
        let at = at % (v1.len() + 1);
        let mut v2 = v1.to_vec();
        match edit % 5 {
            0 => v2.extend_from_slice(&random_bytes(at % 9_000 + 1, seed)),
            1 if !v2.is_empty() => {
                let end = (at + 3).min(v2.len());
                let start = end.saturating_sub(3);
                for byte in &mut v2[start..end] {
                    *byte ^= 0x5a;
                }
            }
            2 => v2.truncate(at),
            3 => v2
                .splice(0..0, random_bytes(at % 5_000 + 1, seed))
                .for_each(drop),
            _ => {}
        }
        v2
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_reindex_is_index_and_hashes_only_what_changed(
            len in 0usize..40_000,
            seed in any::<u64>(),
            edit in any::<u8>(),
            at in any::<usize>(),
            cdc in any::<bool>(),
        ) {
            let chunker: Arc<dyn Chunker + Send + Sync> = if cdc {
                Arc::new(ContentDefinedChunker::test_scale())
            } else {
                Arc::new(FixedChunker::new(4096))
            };
            let p = IngestPipeline::new(
                chunker,
                PipelineConfig { workers: 2, fingerprint: Fingerprint::Sha1, compression: None },
            );
            let v1 = Bytes::from(random_bytes(len, seed));
            let v2 = Bytes::from(edited(&v1, edit, at, !seed));
            let old = p.index(v1.clone());
            // The previous version as a caller that kept only its ids has it.
            let ids: Vec<(ChunkId, usize)> = old.chunks().iter().map(|c| (c.id, c.len)).collect();
            let previous = FileIndex::known(v1.clone(), &ids);
            prop_assert_eq!(previous.hashed(), 0);
            let unchanged = |c: &IndexedChunk| {
                old.chunks().iter().any(|old| {
                    (old.offset, old.len) == (c.offset, c.len)
                        && v1[old.offset..old.offset + old.len] == v2[c.offset..c.offset + c.len]
                })
            };
            let fresh = p.index(v2.clone());
            let changed = fresh.chunks().iter().filter(|c| !unchanged(c)).count();
            let index = p.reindex(v2.clone(), previous);
            prop_assert_eq!(index.chunks(), fresh.chunks());
            prop_assert_eq!(index.hashed(), changed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_ingest_is_index_then_pack_all(
            len in 0usize..60_000,
            seed in any::<u64>(),
            compressible in any::<bool>(),
            compress in any::<bool>(),
        ) {
            let data = if compressible {
                Bytes::from(random_bytes(len / 50 + 1, seed).repeat(50))
            } else {
                Bytes::from(random_bytes(len, seed))
            };
            for workers in [1usize, 2] {
                let p = IngestPipeline::new(
                    Arc::new(ContentDefinedChunker::test_scale()),
                    PipelineConfig {
                        workers,
                        fingerprint: Fingerprint::Sha1,
                        compression: compress.then_some(Algorithm::Lzss),
                    },
                );
                let report = p.ingest(data.clone());
                let index = p.index(data.clone());
                let all: Vec<usize> = (0..index.chunks().len()).collect();
                let payloads = p.pack(&index, &all);
                prop_assert_eq!(report.chunks.len(), index.chunks().len());
                for ((whole, staged), payload) in report.chunks.iter().zip(index.chunks()).zip(&payloads) {
                    prop_assert_eq!(whole.id, staged.id);
                    prop_assert_eq!((whole.offset, whole.len), (staged.offset, staged.len));
                    prop_assert_eq!(&whole.payload, payload);
                }
                let staged_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
                prop_assert_eq!(report.payload_bytes, staged_bytes);
            }
        }

        #[test]
        fn prop_pipeline_partitions_and_orders(
            len in 0usize..60_000,
            seed in any::<u64>(),
            workers in 1usize..5,
        ) {
            let data = Bytes::from(random_bytes(len, seed));
            let p = IngestPipeline::new(
                Arc::new(ContentDefinedChunker::test_scale()),
                PipelineConfig { workers, fingerprint: Fingerprint::Sha1, compression: None },
            );
            let report = p.ingest(data.clone());
            let spans: Vec<crate::chunker::ChunkSpan> = report
                .chunks
                .iter()
                .map(|c| crate::chunker::ChunkSpan { offset: c.offset, len: c.len })
                .collect();
            prop_assert!(crate::chunker::is_exact_partition(&spans, len));
            for c in &report.chunks {
                prop_assert_eq!(c.payload.len(), c.len);
            }
        }
    }
}
