//! The transmit side both the server and the client use: a [`TxQueue`] of
//! encoded frames, drained through the nonblocking socket in coalesced
//! batches, with a residue buffer for what the kernel would not take.
//!
//! [`TxObs`] records how well the batching is doing.
//! `net.tx.frames_total / net.tx.syscalls_total` is the average
//! frames-per-syscall; `net.tx.bytes_total / net.tx.syscalls_total` the
//! bytes-per-syscall.

use crate::frame::encode_frame_into;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wire::Value;

/// Spare drain buffers larger than this are dropped instead of recycled.
const MAX_SPARE: usize = 256 * 1024;

/// Process-global transmit metrics, resolved once per connection.
#[derive(Debug, Clone)]
struct TxObs {
    bytes: Arc<obs::Counter>,
    syscalls: Arc<obs::Counter>,
    frames: Arc<obs::Counter>,
    batch_size: Arc<obs::Histogram>,
}

impl TxObs {
    fn new() -> Self {
        TxObs {
            bytes: obs::counter("net.tx.bytes_total"),
            syscalls: obs::counter("net.tx.syscalls_total"),
            frames: obs::counter("net.tx.frames_total"),
            batch_size: obs::histogram("net.tx.batch_size"),
        }
    }

    /// Records one coalesced write: `bytes` on the wire carrying `frames`
    /// frames in a single `write_all` + `flush`.
    fn record_drain(&self, bytes: usize, frames: u64) {
        self.bytes.add(bytes as u64);
        self.syscalls.inc();
        self.frames.add(frames);
        self.batch_size.record_value(frames as f64);
    }
}

/// A pending-output buffer: encoded frames waiting for the next drain.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    pub(crate) buf: Vec<u8>,
    pub(crate) frames: u64,
}

/// The send side of one connection that any thread may write to: frames
/// queue in `out`, and whoever holds the connection's writer lock drains
/// them (flat combining) through [`TxQueue::drain`].
#[derive(Debug)]
pub(crate) struct TxQueue {
    /// Encoded frames waiting for the next coalesced write.
    pub(crate) out: Mutex<OutBuf>,
    /// Recycled drain buffer, so steady-state flushing never allocates.
    spare: Mutex<Vec<u8>>,
    /// True while a partial write is parked in the writer's residue: the
    /// owning reactor polls the fd for `POLLOUT` until the flush completes.
    pub(crate) want_write: AtomicBool,
    bytes_out: Arc<obs::Counter>,
    obs: TxObs,
}

/// Outcome of one [`TxQueue::drain`].
pub(crate) enum Flush {
    /// Out-buffer and residue fully on the wire.
    Drained,
    /// The kernel stopped taking bytes; residue parked, `POLLOUT` armed.
    Blocked,
    /// Socket error: the connection is dead.
    Failed,
}

impl TxQueue {
    /// An empty queue counting its bytes on the `bytes_out` counter.
    pub(crate) fn new(bytes_out: &str) -> Self {
        TxQueue {
            out: Mutex::new(OutBuf::default()),
            spare: Mutex::new(Vec::new()),
            want_write: AtomicBool::new(false),
            bytes_out: obs::counter(bytes_out),
            obs: TxObs::new(),
        }
    }

    /// Encodes a frame into the out-buffer without draining it. `false` if
    /// the frame cannot be encoded (the caller kills the connection).
    pub(crate) fn push(&self, frame: &Value) -> bool {
        let mut out = self.out.lock();
        let ok = encode_frame_into(frame, &mut out.buf).is_ok();
        out.frames += u64::from(ok);
        ok
    }

    /// Writes the parked residue, then every batch queued meanwhile, until
    /// the queue is empty, the kernel stops taking bytes or the socket
    /// fails. The caller holds the writer lock.
    pub(crate) fn drain(&self, st: &mut WriteState) -> Flush {
        loop {
            // Finish any parked residue before taking a new drain, so wire
            // byte order matches enqueue order.
            if st.pos < st.residue.len() {
                let Ok(n) = write_some(&mut st.stream, &st.residue[st.pos..]) else {
                    return Flush::Failed;
                };
                st.pos += n;
                if st.pos < st.residue.len() {
                    // Set the interest bit while still holding the writer,
                    // so a concurrent flush that completes the drain is the
                    // one that clears it.
                    self.want_write.store(true, Ordering::Release);
                    return Flush::Blocked;
                }
                let mut done = std::mem::take(&mut st.residue);
                st.pos = 0;
                done.clear();
                if done.capacity() <= MAX_SPARE {
                    *self.spare.lock() = done;
                }
                continue;
            }
            let (drain, frames) = {
                let mut out = self.out.lock();
                if out.buf.is_empty() {
                    return Flush::Drained;
                }
                let mut drain = std::mem::take(&mut *self.spare.lock());
                std::mem::swap(&mut drain, &mut out.buf);
                (drain, std::mem::take(&mut out.frames))
            };
            self.bytes_out.add(drain.len() as u64);
            self.obs.record_drain(drain.len(), frames);
            st.residue = drain;
            st.pos = 0;
        }
    }

    /// Called after [`Flush::Drained`], with the writer released: drops
    /// `POLLOUT` interest and reports whether the queue is still empty. A
    /// frame enqueued while the writer was held saw `try_lock` fail and went
    /// home, so `false` means drain again (the lost-wakeup guard).
    pub(crate) fn settled(&self) -> bool {
        // A stale bit from an older blocked flush costs one spurious
        // `POLLOUT` pass; the next flush clears it.
        self.want_write.store(false, Ordering::Release);
        self.out.lock().buf.is_empty()
    }
}

/// Write-side state machine of one nonblocking connection: the socket plus
/// whatever part of the last coalesced batch the kernel would not take.
#[derive(Debug)]
pub(crate) struct WriteState {
    pub(crate) stream: std::net::TcpStream,
    /// A drained batch that hit `WouldBlock` mid-write; retried on
    /// `POLLOUT` (and on any later flush) before new drains are taken.
    pub(crate) residue: Vec<u8>,
    /// How much of `residue` is already on the wire.
    pub(crate) pos: usize,
}

impl WriteState {
    pub(crate) fn new(stream: std::net::TcpStream) -> Self {
        WriteState {
            stream,
            residue: Vec::new(),
            pos: 0,
        }
    }
}

/// Writes as much of `buf` as the socket will take. `Ok(n)` with
/// `n < buf.len()` means `WouldBlock`; `Interrupted` is retried.
fn write_some(stream: &mut std::net::TcpStream, buf: &[u8]) -> std::io::Result<usize> {
    use std::io::Write;
    let mut written = 0;
    while written < buf.len() {
        match stream.write(&buf[written..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}
