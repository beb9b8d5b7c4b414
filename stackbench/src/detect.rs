//! The benchmark's own completion detector. `DesktopClient::wait_for_*`
//! sleeps 5 ms between looks, which quantises every sync time it reports;
//! nothing timed here goes through it. The detector looks, pauses for
//! microseconds, and looks again, and it reports how long its own cycle is
//! so a reader knows the floor under every latency.
//!
//! Also here: [`Awake`], which keeps the host's cores from going idle while
//! a latency is measured.

use crate::harness::OP_TIMEOUT;
use crate::stack::Device;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sleep between two looks of a sleeping detector. The kernel adds its timer
/// slack (about 60 µs here), so one cycle is nearer 90 µs;
/// `bench.poll_resolution_us` reports what it really was.
pub const POLL_SLEEP: Duration = Duration::from_micros(20);

/// How the detector spends the time between two looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pause {
    /// `sleep(POLL_SLEEP)`: costs a few per cent of a core, so throughput
    /// and CPU phases use it.
    Sleep,
    /// `yield_now()`: the detector never leaves its core (it gives way to
    /// anything runnable), resolves in about a microsecond, and doubles as
    /// one of the [`Awake`] threads. Latency phases use it.
    Yield,
}

/// Threads that do nothing but yield, one per core to keep awake, until the
/// guard is dropped.
///
/// One small commit crosses about eight thread boundaries, and on a virtual
/// machine every wake-up of a thread whose core went idle costs a trip
/// through the hypervisor. That trip took 40 to 100 µs on the reference box
/// depending on what the host's other tenants were doing, so the same binary
/// read 1.22 ms one minute and 1.72 ms the next. With every core kept awake
/// (the equivalent of booting with `idle=poll`) the paced sync time is what
/// the software path costs, 1.06 ms, and repeats to ±2.5 %. A yielding
/// thread gives way to any thread that wakes, so it takes nothing the
/// product would have used while the product is mostly waiting; it is not
/// used where CPU time or throughput is what is measured.
pub struct Awake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Awake {
    /// Starts `threads` yielding threads.
    pub fn keep(threads: usize) -> Awake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..threads)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Awake { stop, threads }
    }
}

impl Drop for Awake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            // A yield loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}

/// Polls `done` until it holds or `OP_TIMEOUT` passes. Returns when it was
/// first seen to hold.
pub fn wait_until(mut done: impl FnMut() -> bool) -> Option<Instant> {
    let deadline = Instant::now() + OP_TIMEOUT;
    loop {
        if done() {
            return Some(Instant::now());
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(POLL_SLEEP);
    }
}

/// Waits until `device` holds `path` at `version` or later.
pub fn wait_version(device: &Device, path: &str, version: u64) -> Option<Instant> {
    wait_until(|| device.version(path).is_some_and(|v| v >= version))
}

/// Waits until `device` no longer holds `path`.
pub fn wait_absent(device: &Device, path: &str) -> Option<Instant> {
    wait_until(|| device.version(path).is_none())
}

/// One commit the generator has issued and the detector has yet to see on
/// the watching device.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Op number (also the content stream).
    pub op: u64,
    /// Index of the watching device.
    pub device: usize,
    /// Index of the path.
    pub path: usize,
    /// Version the watcher must reach.
    pub version: u64,
    /// Instant latency is counted from: the due time in an open loop, the
    /// issue time in a closed one.
    pub from: Instant,
    /// When `write_file` returned on the generator thread.
    pub returned: Instant,
}

/// One commit seen on the watching device.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The commit.
    pub pending: Pending,
    /// When the detector saw it.
    pub seen: Instant,
    /// Whether the watcher held exactly the generator's bytes.
    pub bytes_ok: bool,
}

/// What the generator and the detector thread share.
#[derive(Default)]
pub struct Board {
    inbox: Mutex<Vec<Pending>>,
    outstanding: AtomicUsize,
    stop: AtomicBool,
}

/// What one detector run saw.
#[derive(Debug, Default)]
pub struct Seen {
    /// Commits confirmed, in the order they were seen.
    pub completions: Vec<Completion>,
    /// Commits that never showed up within `OP_TIMEOUT`.
    pub timed_out: u64,
    /// Mean length of one look-sleep cycle, in seconds.
    pub cycle_secs: f64,
}

impl Board {
    /// Hands a commit to the detector.
    pub fn post(&self, pending: Pending) {
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        self.inbox
            .lock()
            .expect("detector thread does not panic holding the inbox")
            .push(pending);
    }

    /// Commits posted and not yet confirmed or timed out.
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::SeqCst)
    }

    /// Blocks until nothing is outstanding, then tells the detector to end.
    pub fn drain_and_stop(&self) {
        while self.outstanding() > 0 {
            std::thread::sleep(POLL_SLEEP);
        }
        self.stop.store(true, Ordering::SeqCst);
    }

    /// The detector: runs until [`Board::drain_and_stop`]. `holds(p)` tells
    /// whether the watcher has reached the commit, `bytes_ok(p)` whether it
    /// then holds the right bytes.
    pub fn detect(
        &self,
        pause: Pause,
        holds: impl Fn(&Pending) -> bool,
        bytes_ok: impl Fn(&Pending) -> bool,
    ) -> Seen {
        let mut seen = Seen::default();
        let mut waiting: Vec<Pending> = Vec::new();
        let started = Instant::now();
        let mut cycles = 0u64;
        loop {
            waiting.append(
                &mut self
                    .inbox
                    .lock()
                    .expect("generator does not panic holding the inbox"),
            );
            let mut i = 0;
            while i < waiting.len() {
                let reached = holds(&waiting[i]);
                if reached || waiting[i].from.elapsed() > OP_TIMEOUT {
                    let now = Instant::now();
                    let pending = waiting.swap_remove(i);
                    if reached {
                        seen.completions.push(Completion {
                            bytes_ok: bytes_ok(&pending),
                            pending,
                            seen: now,
                        });
                    } else {
                        seen.timed_out += 1;
                    }
                    self.outstanding.fetch_sub(1, Ordering::SeqCst);
                } else {
                    i += 1;
                }
            }
            if waiting.is_empty() && self.stop.load(Ordering::SeqCst) && self.outstanding() == 0 {
                break;
            }
            cycles += 1;
            match pause {
                Pause::Sleep => std::thread::sleep(POLL_SLEEP),
                Pause::Yield => std::thread::yield_now(),
            }
        }
        seen.cycle_secs = started.elapsed().as_secs_f64() / cycles.max(1) as f64;
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn detector_confirms_in_any_order_and_reports_its_cycle() {
        let board = Board::default();
        let reached = AtomicU64::new(0);
        let seen = std::thread::scope(|s| {
            let detector = s.spawn(|| {
                board.detect(
                    Pause::Sleep,
                    |p| reached.load(Ordering::SeqCst) >= p.version,
                    |p| p.op != 2,
                )
            });
            let now = Instant::now();
            // Posted in reverse order of completion.
            for (op, version) in [(1u64, 3u64), (2, 2), (3, 1)] {
                board.post(Pending {
                    op,
                    device: 0,
                    path: 0,
                    version,
                    from: now,
                    returned: now,
                });
            }
            assert_eq!(board.outstanding(), 3);
            for v in 1..=3 {
                std::thread::sleep(Duration::from_millis(2));
                reached.store(v, Ordering::SeqCst);
            }
            board.drain_and_stop();
            detector.join().expect("detector thread")
        });
        let order: Vec<u64> = seen.completions.iter().map(|c| c.pending.op).collect();
        assert_eq!(order, [3, 2, 1]);
        assert_eq!(seen.timed_out, 0);
        assert!(seen
            .completions
            .iter()
            .all(|c| c.bytes_ok == (c.pending.op != 2)));
        assert!(seen.cycle_secs > 0.0 && seen.cycle_secs < 0.005);
        assert!(seen.completions[0].seen < seen.completions[2].seen);
    }

    #[test]
    fn awake_threads_stop_when_the_guard_drops() {
        let awake = Awake::keep(2);
        assert_eq!(awake.threads.len(), 2);
        let stop = awake.stop.clone();
        drop(awake);
        assert!(stop.load(Ordering::Relaxed));
        assert_eq!(Arc::strong_count(&stop), 1, "both threads have ended");
    }

    #[test]
    fn wait_until_returns_the_first_instant_the_condition_held() {
        let started = Instant::now();
        let at = wait_until(|| started.elapsed() > Duration::from_millis(2)).unwrap();
        assert!(at.duration_since(started) < Duration::from_millis(50));
    }
}
