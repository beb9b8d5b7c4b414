//! The segmented log: append, flush-by-waiter, sealing, truncation, recovery.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::record::{frame_into, next_frame, Frame};
use crate::{LogConfig, SyncPolicy, WalError, WalResult};

/// What [`Log::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Every verified record, in sequence order: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// `Some(reason)` if the scan stopped at a torn or corrupt frame; the
    /// offending file was truncated back to its last valid frame.
    pub torn: Option<String>,
    /// Number of segment files scanned.
    pub segments: usize,
}

impl Recovery {
    /// Sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.records.last().map(|(s, _)| s + 1).unwrap_or(0)
    }
}

struct SealedSegment {
    path: PathBuf,
    /// One past the last sequence number stored in this file.
    end: u64,
}

struct State {
    file: File,
    active_path: PathBuf,
    /// First sequence number belonging to the active segment.
    active_first: u64,
    /// Bytes physically written to the active segment.
    active_len: u64,
    /// Framed records not yet written to the file.
    pending: Vec<u8>,
    pending_records: u64,
    /// Next sequence number to hand out.
    next_seq: u64,
    /// Records with `seq < durable_end` have been written (and fsynced,
    /// unless the policy is `Never`).
    durable_end: u64,
    sealed: Vec<SealedSegment>,
    io_error: Option<String>,
    crashed: bool,
    closed: bool,
}

struct Metrics {
    appends: Arc<obs::Counter>,
    fsync_seconds: Arc<obs::Histogram>,
    group_size: Arc<obs::Gauge>,
    flushed_bytes: Arc<obs::Counter>,
    sealed_total: Arc<obs::Counter>,
    truncated_total: Arc<obs::Counter>,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            appends: obs::counter("wal.appends_total"),
            fsync_seconds: obs::histogram("wal.fsync_seconds"),
            group_size: obs::gauge("wal.group_size"),
            flushed_bytes: obs::counter("wal.flushed_bytes_total"),
            sealed_total: obs::counter("wal.segments_sealed_total"),
            truncated_total: obs::counter("wal.segments_truncated_total"),
        }
    }
}

struct Shared {
    dir: PathBuf,
    config: LogConfig,
    state: Mutex<State>,
    metrics: Metrics,
}

/// A durability receipt for one appended record; see [`Ticket::wait`].
#[must_use = "the record is not durable until wait() returns Ok"]
pub struct Ticket {
    shared: Arc<Shared>,
    seq: u64,
}

impl Ticket {
    /// Sequence number assigned to the appended record.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Returns once the record is covered by an fsync (or returns the error
    /// that prevented it). If no earlier flush covered it, this thread takes
    /// the log lock and flushes everything pending itself; a waiter that
    /// queued on the lock behind that flush usually finds its record covered
    /// and returns at once. Under [`SyncPolicy::Never`] the record settled in
    /// `append` and this does not block.
    pub fn wait(&self) -> WalResult<()> {
        let mut s = self.shared.state.lock();
        if s.durable_end > self.seq {
            return Ok(());
        }
        ensure_live(&s)?;
        // Live and not covered, so the record is still in `pending`: the
        // flush either covers it or fails.
        flush_locked(&self.shared, &mut s)?;
        debug_assert!(s.durable_end > self.seq);
        Ok(())
    }
}

/// A segmented, checksummed append log whose waiters flush. See the crate
/// docs for the format and the durability contract.
pub struct Log {
    shared: Arc<Shared>,
}

/// Most bytes a durable log buffers before `append` itself flushes. Appends
/// somebody waits on never get near it; it bounds what appends nobody waits
/// on can lose to a crash and hold in memory.
const MAX_PENDING_BYTES: usize = 256 * 1024;

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:020}.log"))
}

fn io_err(e: std::io::Error) -> WalError {
    WalError::Io(e.to_string())
}

impl Log {
    /// Opens (or creates) the log in `dir`, replaying whatever segments are
    /// present. Returns the log positioned after the last valid record plus
    /// the [`Recovery`] describing what was replayed.
    pub fn open(dir: &Path, config: LogConfig) -> WalResult<(Log, Recovery)> {
        fs::create_dir_all(dir).map_err(io_err)?;

        let mut paths: Vec<PathBuf> = fs::read_dir(dir)
            .map_err(io_err)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("wal-") && n.ends_with(".log"))
                    .unwrap_or(false)
            })
            .collect();
        paths.sort();

        let segments = paths.len();
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut sealed: Vec<SealedSegment> = Vec::new();
        let mut torn: Option<String> = None;
        let mut running_end: u64 = 0;

        for (idx, path) in paths.iter().enumerate() {
            let buf = fs::read(path).map_err(io_err)?;
            let mut at = 0usize;
            let mut valid_end = 0usize;
            loop {
                match next_frame(&buf, at) {
                    Frame::End => break,
                    Frame::Record { seq, payload, next } => {
                        if seq < running_end {
                            torn = Some(format!(
                                "non-monotonic sequence {seq} after {running_end} in {}",
                                path.display()
                            ));
                            break;
                        }
                        records.push((seq, buf[payload].to_vec()));
                        running_end = seq + 1;
                        valid_end = next;
                        at = next;
                    }
                    Frame::Torn { reason } => {
                        torn = Some(format!("{} at byte {at}: {reason}", path.display()));
                        break;
                    }
                }
            }
            if torn.is_some() {
                // Drop the unverifiable tail on disk so the next open sees a
                // clean log. Corruption in a non-final segment additionally
                // abandons everything after it — a prefix is all we can
                // vouch for.
                let f = OpenOptions::new().write(true).open(path).map_err(io_err)?;
                f.set_len(valid_end as u64).map_err(io_err)?;
                f.sync_all().map_err(io_err)?;
                if idx + 1 < paths.len() {
                    for later in &paths[idx + 1..] {
                        let _ = fs::remove_file(later);
                    }
                    torn = Some(format!(
                        "{} (mid-log; {} later segment(s) abandoned)",
                        torn.take().unwrap(),
                        paths.len() - idx - 1
                    ));
                }
                if valid_end == 0 {
                    let _ = fs::remove_file(path);
                } else {
                    sealed.push(SealedSegment {
                        path: path.clone(),
                        end: running_end,
                    });
                }
                break;
            }
            if valid_end == 0 {
                // Empty segment (e.g. a clean shutdown right after a roll):
                // delete it rather than sealing it, so its name can never
                // collide with the fresh active segment below.
                let _ = fs::remove_file(path);
            } else {
                sealed.push(SealedSegment {
                    path: path.clone(),
                    end: running_end,
                });
            }
        }

        let next_seq = running_end;
        let active_path = segment_path(dir, next_seq);
        let file = File::create(&active_path).map_err(io_err)?;

        let recovery = Recovery {
            records,
            torn,
            segments,
        };

        obs::counter("wal.recovery.replayed_total").add(recovery.records.len() as u64);
        if let Some(reason) = &recovery.torn {
            obs::counter("wal.recovery.torn_total").inc();
            obs::flight_event!(
                "wal",
                "{}: torn tail during recovery: {reason}",
                config.name
            );
        }
        obs::flight_event!(
            "wal",
            "{}: opened {} ({} segment(s), {} record(s) replayed, next seq {})",
            config.name,
            dir.display(),
            recovery.segments,
            recovery.records.len(),
            next_seq
        );

        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            config,
            state: Mutex::new(State {
                file,
                active_path,
                active_first: next_seq,
                active_len: 0,
                pending: Vec::new(),
                pending_records: 0,
                next_seq,
                durable_end: next_seq,
                sealed,
                io_error: None,
                crashed: false,
                closed: false,
            }),
            metrics: Metrics::new(),
        });

        Ok((Log { shared }, recovery))
    }

    /// Appends one record, returning a [`Ticket`] that settles when the
    /// record is durable. Buffering happens under the log lock and is cheap;
    /// callers inside their own critical sections should append there (so
    /// log order matches commit order) and `wait()` after unlocking.
    pub fn append(&self, payload: &[u8]) -> WalResult<Ticket> {
        assert!(
            payload.len() <= crate::MAX_RECORD_LEN,
            "record exceeds MAX_RECORD_LEN"
        );
        let mut s = self.shared.state.lock();
        ensure_live(&s)?;
        let seq = s.next_seq;
        s.next_seq += 1;
        frame_into(&mut s.pending, seq, payload);
        s.pending_records += 1;
        self.shared.metrics.appends.inc();
        // `Never` has nothing to wait for, so it writes here. A durable log
        // leaves the flush to whoever waits — except that appends nobody
        // waits on must not pile up without limit.
        if self.shared.config.sync == SyncPolicy::Never || s.pending.len() > MAX_PENDING_BYTES {
            flush_locked(&self.shared, &mut s)?;
        }
        Ok(Ticket {
            shared: Arc::clone(&self.shared),
            seq,
        })
    }

    /// [`Log::append`] + [`Ticket::wait`] in one call; returns the sequence
    /// number once the record is durable.
    pub fn append_durable(&self, payload: &[u8]) -> WalResult<u64> {
        let ticket = self.append(payload)?;
        ticket.wait()?;
        Ok(ticket.seq())
    }

    /// Sequence number the next append will receive. All records below the
    /// mark were appended before this call; capture it under the caller's
    /// own state lock to get a truncation point consistent with a snapshot.
    pub fn mark(&self) -> u64 {
        self.shared.state.lock().next_seq
    }

    /// Drops sealed segments that only contain records below `mark`
    /// (typically [`Log::mark`] captured when a snapshot was taken). The
    /// active segment is sealed first if it predates the mark, so the call
    /// after a snapshot reclaims everything the snapshot covers. Segments
    /// straddling the mark are kept whole — replay is idempotent.
    pub fn truncate_through(&self, mark: u64) -> WalResult<()> {
        let mut s = self.shared.state.lock();
        ensure_live(&s)?;
        flush_locked(&self.shared, &mut s)?;
        if s.active_first < mark && s.active_len > 0 {
            roll_segment(&self.shared, &mut s)?;
        }
        let mut removed = 0u64;
        let mut keep = Vec::new();
        for seg in s.sealed.drain(..) {
            if seg.end <= mark {
                let _ = fs::remove_file(&seg.path);
                removed += 1;
            } else {
                keep.push(seg);
            }
        }
        s.sealed = keep;
        if removed > 0 {
            self.shared.metrics.truncated_total.add(removed);
            obs::flight_event!(
                "wal",
                "{}: truncated {removed} segment(s) below seq {mark}",
                self.shared.config.name
            );
        }
        Ok(())
    }

    /// `Ok` if the log is accepting appends; `Err(reason)` after an I/O
    /// error, crash simulation, or close. For health-check callbacks.
    pub fn status(&self) -> Result<(), String> {
        let s = self.shared.state.lock();
        if s.crashed {
            return Err("crashed (simulated process death)".to_string());
        }
        if let Some(e) = &s.io_error {
            return Err(format!("i/o error: {e}"));
        }
        if s.closed {
            return Err("closed".to_string());
        }
        Ok(())
    }

    /// Models process death for the fault simulator: writes the first
    /// `surviving_pending_bytes` of the pending buffer to the segment (a
    /// torn partial write — it may end mid-frame), discards the rest, and
    /// fails every subsequent operation with [`WalError::Crashed`]. Records
    /// already flushed are untouched; a later [`Log::open`] on the same
    /// directory sees exactly what a real `SIGKILL` would have left.
    pub fn simulate_crash(&self, surviving_pending_bytes: usize) {
        let mut s = self.shared.state.lock();
        if s.crashed {
            return;
        }
        let keep = surviving_pending_bytes.min(s.pending.len());
        if keep > 0 {
            let prefix = s.pending[..keep].to_vec();
            let _ = s.file.write_all(&prefix);
            let _ = s.file.sync_data();
        }
        let dropped = s.pending.len() - keep;
        s.pending.clear();
        s.pending_records = 0;
        s.crashed = true;
        obs::flight_event!(
            "wal",
            "{}: simulated crash ({keep} torn byte(s) survive, {dropped} dropped)",
            self.shared.config.name
        );
    }

    /// Flushes pending records and stops accepting appends. Called by
    /// `Drop`; explicit calls are idempotent.
    pub fn close(&self) {
        let mut s = self.shared.state.lock();
        if s.closed {
            return;
        }
        if !s.crashed && s.io_error.is_none() {
            let _ = flush_locked(&self.shared, &mut s);
        }
        s.closed = true;
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("name", &self.shared.config.name)
            .field("dir", &self.shared.dir)
            .finish()
    }
}

fn ensure_live(s: &State) -> WalResult<()> {
    if s.crashed {
        return Err(WalError::Crashed);
    }
    if let Some(e) = &s.io_error {
        return Err(WalError::Io(e.clone()));
    }
    if s.closed {
        return Err(WalError::Closed);
    }
    Ok(())
}

/// Writes (and per policy fsyncs) everything pending, advancing
/// `durable_end`, then rolls the segment if it outgrew the limit. Runs with
/// the state lock held — that lock *is* the group-commit window: appenders
/// that queue while the fsync runs form the next batch.
fn flush_locked(shared: &Shared, s: &mut parking_lot::MutexGuard<'_, State>) -> WalResult<()> {
    if s.pending.is_empty() {
        return Ok(());
    }
    let batch = mem::take(&mut s.pending);
    let batch_records = s.pending_records;
    s.pending_records = 0;

    let fail = |s: &mut parking_lot::MutexGuard<'_, State>, shared: &Shared, e: std::io::Error| {
        let msg = e.to_string();
        s.io_error = Some(msg.clone());
        obs::flight_event!("wal", "{}: write failed: {msg}", shared.config.name);
        Err(WalError::Io(msg))
    };

    if let Err(e) = s.file.write_all(&batch) {
        return fail(s, shared, e);
    }
    if shared.config.sync != SyncPolicy::Never {
        let t0 = Instant::now();
        if let Err(e) = s.file.sync_data() {
            return fail(s, shared, e);
        }
        shared.metrics.fsync_seconds.record(t0.elapsed());
    }
    s.active_len += batch.len() as u64;
    s.durable_end = s.next_seq;
    shared.metrics.group_size.set(batch_records as f64);
    shared.metrics.flushed_bytes.add(batch.len() as u64);

    if s.active_len >= shared.config.segment_bytes {
        roll_segment(shared, s)?;
    }
    Ok(())
}

/// Seals the active segment and starts a new one at `next_seq`. Requires an
/// empty pending buffer (callers flush first).
fn roll_segment(shared: &Shared, s: &mut parking_lot::MutexGuard<'_, State>) -> WalResult<()> {
    debug_assert!(s.pending.is_empty());
    let end = s.next_seq;
    let new_path = segment_path(&shared.dir, end);
    let new_file = match File::create(&new_path) {
        Ok(f) => f,
        Err(e) => {
            let msg = e.to_string();
            s.io_error = Some(msg.clone());
            return Err(WalError::Io(msg));
        }
    };
    let old_path = mem::replace(&mut s.active_path, new_path);
    let _ = mem::replace(&mut s.file, new_file);
    s.sealed.push(SealedSegment {
        path: old_path,
        end,
    });
    s.active_first = end;
    s.active_len = 0;
    shared.metrics.sealed_total.inc();
    obs::flight_event!(
        "wal",
        "{}: sealed segment through seq {end}",
        shared.config.name
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("wal-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(name: &str) -> LogConfig {
        LogConfig::named(name)
    }

    #[test]
    fn append_and_recover() {
        let dir = temp_dir("basic");
        {
            let (log, rec) = Log::open(&dir, cfg("basic")).unwrap();
            assert_eq!(rec.records.len(), 0);
            for i in 0..10u32 {
                log.append_durable(&i.to_le_bytes()).unwrap();
            }
        }
        let (_log, rec) = Log::open(&dir, cfg("basic")).unwrap();
        assert!(rec.torn.is_none());
        assert_eq!(rec.records.len(), 10);
        for (i, (seq, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(payload.as_slice(), (i as u32).to_le_bytes());
        }
        assert_eq!(rec.next_seq(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_coalesces_concurrent_appenders() {
        let dir = temp_dir("group");
        let (log, _) = Log::open(&dir, cfg("group")).unwrap();
        let log = Arc::new(log);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    log.append_durable(&(t * 1000 + i).to_le_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No thread but the appenders exists, so each of them made progress
        // by flushing for itself and for whoever had buffered by then; a
        // waiter that found its record covered did not fsync again. (Process
        // totals: every flush, in this test or another, covers an append.)
        let m = &log.shared.metrics;
        assert!(m.fsync_seconds.count() <= m.appends.value());
        drop(log);
        let (_log, rec) = Log::open(&dir, cfg("group")).unwrap();
        assert_eq!(rec.records.len(), 1600);
        // Sequence numbers are dense regardless of interleaving.
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwaited_appends_are_bounded_in_memory_and_in_loss() {
        // Appends nobody waits on: append, drop the ticket.
        const ACK: [u8; 9] = [7; 9];
        const FRAME: usize = 20 + ACK.len();
        let dir = temp_dir("unwaited");
        let (log, _) = Log::open(&dir, cfg("unwaited")).unwrap();
        for _ in 0..50_000 {
            let _ = log.append(&ACK).unwrap();
            let pending = log.shared.state.lock().pending.len();
            assert!(pending <= MAX_PENDING_BYTES, "{pending} bytes pending");
        }
        log.simulate_crash(0);
        drop(log);
        let (_log, rec) = Log::open(&dir, cfg("unwaited")).unwrap();
        assert!(rec.torn.is_none());
        let lost = 50_000 - rec.records.len();
        assert!(lost <= MAX_PENDING_BYTES / FRAME, "{lost} records lost");
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_replay_in_order() {
        let dir = temp_dir("roll");
        let mut config = cfg("roll");
        config.segment_bytes = 256; // force frequent rolls
        {
            let (log, _) = Log::open(&dir, config.clone()).unwrap();
            for i in 0..100u64 {
                log.append_durable(&[i as u8; 16]).unwrap();
            }
        }
        let files = fs::read_dir(&dir).unwrap().count();
        assert!(files > 2, "expected multiple segments, got {files}");
        let (_log, rec) = Log::open(&dir, config).unwrap();
        assert_eq!(rec.records.len(), 100);
        assert!(rec.torn.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncate_through_drops_sealed_segments() {
        let dir = temp_dir("trunc");
        let mut config = cfg("trunc");
        config.segment_bytes = 256;
        let (log, _) = Log::open(&dir, config.clone()).unwrap();
        for i in 0..100u64 {
            log.append_durable(&[i as u8; 16]).unwrap();
        }
        let mark = log.mark();
        assert_eq!(mark, 100);
        log.truncate_through(mark).unwrap();
        for i in 100..110u64 {
            log.append_durable(&[i as u8; 16]).unwrap();
        }
        drop(log);
        let (_log, rec) = Log::open(&dir, config).unwrap();
        assert_eq!(rec.records.first().map(|(s, _)| *s), Some(100));
        assert_eq!(rec.records.len(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulated_crash_preserves_acked_loses_only_tail() {
        // No thread flushes behind our back, so the pending buffer at crash
        // time is exactly the unwaited appends — deterministic.
        let dir = temp_dir("crash");
        let (log, _) = Log::open(&dir, cfg("crash")).unwrap();
        for i in 0..20u64 {
            log.append_durable(&i.to_le_bytes()).unwrap();
        }
        // Buffered but never waited on; the crash keeps 5 torn bytes of it,
        // which is less than a frame, so nothing of it survives replay.
        let _unacked = log.append(&99u64.to_le_bytes()).unwrap();
        log.simulate_crash(5);
        assert!(matches!(log.append(b"after death"), Err(WalError::Crashed)));
        drop(log);
        let (_log, rec) = Log::open(&dir, cfg("crash")).unwrap();
        assert_eq!(rec.records.len(), 20, "every acked record survives");
        assert!(rec.torn.is_some(), "the torn partial frame is detected");
        assert_eq!(rec.next_seq(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_with_full_surviving_buffer_keeps_unacked_record() {
        let dir = temp_dir("crash-full");
        let (log, _) = Log::open(&dir, cfg("crash-full")).unwrap();
        log.append_durable(b"acked").unwrap();
        let _t = log.append(b"buffered").unwrap();
        log.simulate_crash(usize::MAX);
        drop(log);
        let (_log, rec) = Log::open(&dir, cfg("crash-full")).unwrap();
        assert_eq!(rec.records.len(), 2);
        assert!(rec.torn.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn waiters_fail_on_crash() {
        let dir = temp_dir("waiters");
        let (log, _) = Log::open(&dir, cfg("waiters")).unwrap();
        let ticket = log.append(b"doomed").unwrap();
        log.simulate_crash(0);
        assert_eq!(ticket.wait(), Err(WalError::Crashed));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_and_flush_settle_everything_buffered() {
        let dir = temp_dir("flush");
        let (log, _) = Log::open(&dir, cfg("flush")).unwrap();
        let a = log.append(b"a").unwrap();
        let b = log.append(b"b").unwrap();
        // One wait settles the whole buffered batch.
        a.wait().unwrap();
        assert!(log.shared.state.lock().pending.is_empty());
        b.wait().unwrap();
        // Nobody waits on this one: closing the log flushes it.
        let _c = log.append(b"c").unwrap();
        log.close();
        assert!(log.shared.state.lock().pending.is_empty());
        drop(log);
        let (_log, rec) = Log::open(&dir, cfg("flush")).unwrap();
        assert_eq!(rec.records.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn both_policies_settle_a_waited_append() {
        for sync in [SyncPolicy::Durable, SyncPolicy::Never] {
            let dir = temp_dir("policy");
            let mut config = cfg("policy");
            config.sync = sync;
            let (log, _) = Log::open(&dir, config.clone()).unwrap();
            let t = log.append(b"x").unwrap();
            // `Never` wrote in `append`; `Durable` leaves it to the waiter.
            let buffered = log.shared.state.lock().pending.len();
            assert_eq!(buffered > 0, sync == SyncPolicy::Durable);
            t.wait().unwrap();
            assert!(log.shared.state.lock().pending.is_empty());
            drop(log);
            let (_log, rec) = Log::open(&dir, config).unwrap();
            assert_eq!(rec.records.len(), 1);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn reopen_after_clean_close_is_stable_across_cycles() {
        let dir = temp_dir("cycles");
        for round in 0..5u64 {
            let (log, rec) = Log::open(&dir, cfg("cycles")).unwrap();
            assert_eq!(rec.records.len() as u64, round);
            assert!(rec.torn.is_none(), "round {round}: {:?}", rec.torn);
            log.append_durable(&round.to_le_bytes()).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
