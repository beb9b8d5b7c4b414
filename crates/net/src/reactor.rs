//! A small hand-rolled readiness reactor over `poll(2)`.
//!
//! One [`Reactor`] is one event-loop thread multiplexing every registered
//! [`EventSource`] — nonblocking sockets with per-connection state machines
//! — so a process holds thousands of connections on a handful of threads
//! instead of a thread (or two) per connection. The loop:
//!
//! 1. snapshots the source table and rebuilds the `pollfd` set (plus a
//!    self-wake pipe at slot 0);
//! 2. blocks in `poll(2)` until readiness, a wake, or the earliest
//!    deadline reported (rounded up to whole ms; none: `-1`, no timeout);
//! 3. dispatches `ready()` to each source whose fd fired (`POLLERR` /
//!    `POLLHUP` / `POLLNVAL` are folded into readability so failures
//!    surface through the source's read path);
//! 4. runs `on_deadline()` for each source whose deadline has passed (the
//!    client connection's heartbeat, the listener's accept-error pause);
//! 5. runs the owner's per-pass callback, which reports its own deadline
//!    (the server drains its dispatch-pending flag here; the client
//!    promotes reconnects whose backoff expired).
//!
//! There is no timer: any thread that changes a source's interest set
//! (say, a writer that hit `WouldBlock` and now needs `POLLOUT`), gives the
//! loop new timed work or enqueues work for it calls [`Reactor::wake`],
//! which writes one byte to a nonblocking `UnixStream` pair; the loop
//! wakes, drains the pipe, and rebuilds interests and deadlines.
//!
//! Observability (the PR-6 surface, per reactor):
//! `<name>.reactor.fds` — registered sources gauge;
//! `<name>.reactor.ready_per_tick` — gauge of ready events in the latest
//! pass (plus `<name>.reactor.ready_events_total`);
//! `<name>.reactor.loop_seconds` — histogram of time spent *processing*
//! each pass (poll wait excluded, so idle loops don't drown the signal);
//! `<name>.reactor.wakeups_total` — explicit cross-thread wakeups.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interest bit: wake the source when its fd is readable.
pub(crate) const INTEREST_READ: u8 = 0b01;
/// Interest bit: wake the source when its fd is writable.
pub(crate) const INTEREST_WRITE: u8 = 0b10;

/// What a source wants after an event callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ready {
    /// Keep the registration.
    Continue,
    /// Drop the registration (the loop releases its `Arc`).
    Remove,
}

/// One registered fd with its state machine.
///
/// Callbacks run on the loop thread with no reactor locks held, so they
/// may freely register/deregister sources and wake other reactors.
pub(crate) trait EventSource: Send + Sync {
    /// The fd to poll. Must stay valid while registered (the owner keeps
    /// the socket alive inside the source).
    fn fd(&self) -> RawFd;
    /// Current interest set ([`INTEREST_READ`] / [`INTEREST_WRITE`] bits),
    /// re-read every pass — flip interests and call [`Reactor::wake`].
    fn interest(&self) -> u8;
    /// The fd fired. Error/hangup conditions arrive as `readable` so they
    /// surface through the ordinary read path (a read yields `Eof`/`Err`).
    fn ready(&self, readable: bool, writable: bool) -> Ready;
    /// Time left until this source's next timed work (`None`: it has
    /// none), re-read every pass.
    fn deadline(&self) -> Option<Duration> {
        None
    }
    /// The deadline has passed: run the timed work.
    fn on_deadline(&self) -> Ready {
        Ready::Continue
    }
}

struct ReactorShared {
    sources: parking_lot::Mutex<HashMap<u64, Arc<dyn EventSource>>>,
    next_token: AtomicU64,
    /// Write end of the self-wake pipe (nonblocking; a full pipe means a
    /// wake is already pending, which is all a wake means).
    wake_tx: parking_lot::Mutex<UnixStream>,
    stop: AtomicBool,
    pass: parking_lot::Mutex<Option<Arc<PassFn>>>,
    wakeups: Arc<obs::Counter>,
}

/// Per-pass callback, run after event dispatch and deadlines. Returns the
/// time left until its own next deadline (`None`: it has none).
pub(crate) type PassFn = dyn Fn() -> Option<Duration> + Send + Sync;

/// One event-loop thread. Dropping the reactor stops and joins it.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawns the loop thread. `name` prefixes the reactor metrics (e.g.
    /// `net.server`).
    pub(crate) fn start(name: &str) -> std::io::Result<Arc<Reactor>> {
        let (wake_rx, wake_tx) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let shared = Arc::new(ReactorShared {
            sources: parking_lot::Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            wake_tx: parking_lot::Mutex::new(wake_tx),
            stop: AtomicBool::new(false),
            pass: parking_lot::Mutex::new(None),
            wakeups: obs::counter(&format!("{name}.reactor.wakeups_total")),
        });
        let loop_shared = shared.clone();
        let loop_name = name.to_string();
        let thread = std::thread::Builder::new()
            .name(format!("reactor-{name}"))
            .spawn(move || run_loop(&loop_name, &loop_shared, wake_rx))?;
        Ok(Arc::new(Reactor {
            shared,
            thread: parking_lot::Mutex::new(Some(thread)),
        }))
    }

    /// Installs the per-pass callback (run on the loop thread each pass).
    pub(crate) fn set_pass(&self, pass: Arc<PassFn>) {
        *self.shared.pass.lock() = Some(pass);
    }

    /// Registers a source and wakes the loop to start polling it.
    pub(crate) fn register(&self, source: Arc<dyn EventSource>) -> u64 {
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        self.shared.sources.lock().insert(token, source);
        self.wake();
        token
    }

    /// Number of live registrations (the churn test's leak probe).
    pub(crate) fn registered(&self) -> usize {
        self.shared.sources.lock().len()
    }

    /// Wakes the loop thread out of `poll(2)`.
    pub(crate) fn wake(&self) {
        self.shared.wakeups.inc();
        // A failed/blocked write means the pipe already holds a pending
        // wake byte, which is all a wake needs to guarantee.
        let _ = self.shared.wake_tx.lock().write(&[1u8]);
    }

    /// Stops the loop, drops every registration, joins the thread.
    pub(crate) fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wake();
        if let Some(handle) = self.thread.lock().take() {
            if std::thread::current().id() != handle.thread().id() {
                let _ = handle.join();
            }
        }
        self.shared.sources.lock().clear();
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn run_loop(name: &str, shared: &ReactorShared, mut wake_rx: UnixStream) {
    let fds_gauge = obs::gauge(&format!("{name}.reactor.fds"));
    let ready_gauge = obs::gauge(&format!("{name}.reactor.ready_per_tick"));
    let ready_total = obs::counter(&format!("{name}.reactor.ready_events_total"));
    let loop_hist = obs::histogram(&format!("{name}.reactor.loop_seconds"));
    let mut pollfds: Vec<libc::pollfd> = Vec::new();
    let mut snapshot: Vec<(u64, Arc<dyn EventSource>)> = Vec::new();
    // When the per-pass callback's own deadline falls due.
    let mut pass_due: Option<Instant> = None;
    while !shared.stop.load(Ordering::SeqCst) {
        snapshot.clear();
        {
            let sources = shared.sources.lock();
            snapshot.extend(sources.iter().map(|(t, s)| (*t, s.clone())));
        }
        fds_gauge.set(snapshot.len() as f64);
        pollfds.clear();
        pollfds.push(libc::pollfd::new(wake_rx.as_raw_fd(), libc::POLLIN));
        let now = Instant::now();
        let mut wait = pass_due.map(|at| at.saturating_duration_since(now));
        for (_, source) in &snapshot {
            let interest = source.interest();
            let mut events = 0i16;
            if interest & INTEREST_READ != 0 {
                events |= libc::POLLIN;
            }
            if interest & INTEREST_WRITE != 0 {
                events |= libc::POLLOUT;
            }
            pollfds.push(libc::pollfd::new(source.fd(), events));
            wait = wait.into_iter().chain(source.deadline()).min();
        }
        // Rounded up, so the pass after the wait finds the deadline due.
        let timeout_ms = wait.map_or(-1, |w| {
            w.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32
        });
        let ready = match libc::poll(&mut pollfds, timeout_ms) {
            Ok(n) => n,
            Err(_) => {
                // A failing poll (EBADF from a racing close) self-heals:
                // the next pass rebuilds the set from live sources only.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        let pass_start = Instant::now();
        if pollfds[0].revents != 0 {
            let mut sink = [0u8; 256];
            while matches!(wake_rx.read(&mut sink), Ok(n) if n > 0) {}
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let mut fired = 0usize;
        for (i, (token, source)) in snapshot.iter().enumerate() {
            let revents = pollfds[i + 1].revents;
            let mut verdict = Ready::Continue;
            if revents != 0 {
                fired += 1;
                let readable =
                    revents & (libc::POLLIN | libc::POLLERR | libc::POLLHUP | libc::POLLNVAL) != 0;
                let writable = revents & libc::POLLOUT != 0;
                verdict = source.ready(readable, writable);
            }
            if verdict == Ready::Continue && source.deadline() == Some(Duration::ZERO) {
                verdict = source.on_deadline();
            }
            if verdict == Ready::Remove {
                shared.sources.lock().remove(token);
            }
        }
        let pass = shared.pass.lock().clone();
        pass_due = pass
            .and_then(|pass| pass())
            .map(|left| Instant::now() + left);
        if ready > 0 {
            ready_gauge.set(fired as f64);
            ready_total.add(fired as u64);
        }
        loop_hist.record_secs(pass_start.elapsed().as_secs_f64());
    }
    shared.sources.lock().clear();
}
