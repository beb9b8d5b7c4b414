//! The client: a [`Messaging`] implementation that forwards every operation
//! to a remote [`crate::BrokerServer`] over TCP.
//!
//! ## Connection supervision
//!
//! All clients in a process share one event-driven runtime: a reactor loop
//! (see [`crate::reactor`]) that multiplexes every client connection over
//! nonblocking sockets, plus a small dialer pool that performs blocking
//! connect + clock-handshake attempts off the loop. Each connection is a
//! per-fd state machine registered with the reactor; its deadline is the
//! heartbeat — a ping after a quiet [`NetConfig::heartbeat`] interval, and
//! a connection silent through four intervals is declared dead. When the
//! socket dies (read error, ping timeout, reset) the client is handed back
//! to the dialers, which reconnect with capped exponential backoff plus
//! jitter (a failed dial parks the client until a backoff deadline; both
//! deadlines are read on [`NetConfig::clock`]), then replay every live
//! subscription under its original subscription id. The server side
//! requeued whatever was unacked when the old connection died, so
//! redelivery after reconnect is automatic.
//!
//! Requests are retried transparently across reconnects until the operation
//! timeout elapses, so a blocking publish simply rides through a short
//! partition. Deliveries buffered client-side are tagged with the
//! connection *generation*; a stale-generation delivery is dropped instead
//! of acked, because its server-side tag died with the old connection.

use crate::frame::{read_frame, write_frame, FrameBuffer, Request, ServerFrame};
use crate::reactor::{EventSource, Reactor, Ready, INTEREST_READ, INTEREST_WRITE};
use crate::stats_from_value;
use crate::tx::{Flush, TxQueue, WriteState};
use mqsim::{
    AnyDelivery, Clock, Message, MessageConsumer, Messaging, MqError, MqResult, QueueOptions,
    QueueStats, SystemClock,
};
use parking_lot::{Condvar, Mutex};
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};
use wire::Value;

/// Acks accumulated past this count are flushed as one `AckMany` frame even
/// while deliveries are still buffered locally.
const ACK_BATCH: usize = 32;

/// Threads in the shared dialer pool (blocking connect + handshake).
const DIALERS: usize = 4;

/// Max complete `read_step` bursts one connection consumes per readiness
/// event before yielding the loop (level-triggered poll re-fires).
const CLIENT_READ_BURSTS: usize = 64;

/// First reconnect delay; doubles per attempt up to
/// [`NetConfig::backoff_cap`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(20);

/// TCP connection-establishment timeout per reconnect attempt, and the
/// deadline for the clock handshake's reply.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs of a [`NetBroker`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-operation timeout: how long a broker call may retry across
    /// reconnects before failing with [`MqError::Transport`].
    pub op_timeout: Duration,
    /// Delivery credit granted per subscription (max unacked in flight).
    pub credit: u64,
    /// Ping period while the connection is healthy.
    pub heartbeat: Duration,
    /// Upper bound of the reconnect backoff, which starts at 20 ms and
    /// doubles per attempt.
    pub backoff_cap: Duration,
    /// Time source for the heartbeat and the reconnect backoff. The client
    /// reactor sleeps in `poll(2)` toward the earliest of these deadlines;
    /// stepping a [`mqsim::VirtualClock`] does not wake a parked `poll`, so
    /// a stepped deadline is acted on at the reactor's next pass.
    pub clock: Arc<dyn Clock>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            op_timeout: Duration::from_secs(10),
            credit: 64,
            heartbeat: Duration::from_millis(500),
            backoff_cap: Duration::from_secs(2),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// A remote [`Messaging`] provider speaking the frame protocol over TCP.
///
/// Cheap to clone; clones share one connection and reconnect machinery.
/// Dropping the last clone closes the connection as if [`NetBroker::close`]
/// were called: heartbeats stop, the reactor registration is dropped, and
/// consumers created from this broker wake with [`MqError::Closed`].
#[derive(Clone)]
pub struct NetBroker {
    inner: Arc<ClientInner>,
    _close: Arc<CloseOnDrop>,
}

/// Shuts the client down when the last [`NetBroker`] clone is dropped. The
/// shared runtime (reactor source, dialer queue, backoff list) holds its own
/// `Arc<ClientInner>`s, so the inner refcount alone can never reach zero
/// while the connection is alive — this guard, held only by broker handles,
/// is what makes `drop` reach `shutdown`.
struct CloseOnDrop {
    inner: Arc<ClientInner>,
    /// Deregistered when the last broker clone drops, together with the
    /// shutdown — a closed client must not linger in `/healthz`.
    _health: obs::HealthGuard,
}

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.inner.shutdown();
    }
}

struct ClientInner {
    addr: SocketAddr,
    config: NetConfig,
    /// Current writer half, `None` while disconnected.
    writer: Mutex<Option<WriteState>>,
    /// Mirrors `writer.is_some()` without taking the writer lock. `send`
    /// gates on this — NOT on `connected`, which is only signalled *after*
    /// the dialer has replayed resubscribes (which themselves go through
    /// `send`).
    link_up: AtomicBool,
    tx: TxQueue,
    /// Consecutive failed dial attempts, reset on success; drives the
    /// exponential backoff.
    attempt: AtomicU32,
    /// Bumped on every successful reconnect; deliveries carry the
    /// generation they arrived under.
    generation: AtomicU64,
    connected: Mutex<bool>,
    connected_cv: Condvar,
    pending: Mutex<HashMap<u64, Arc<ReqSlot>>>,
    subs: Mutex<HashMap<u64, Arc<SubInner>>>,
    next_corr: AtomicU64,
    next_sub: AtomicU64,
    stop: AtomicBool,
    reconnects: Arc<obs::Counter>,
    rpc_seconds: Arc<obs::Histogram>,
}

struct ReqSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

enum SlotState {
    Waiting,
    Done(MqResult<Value>),
    /// The connection died before a reply arrived; retry on the next one.
    ConnectionLost,
}

struct SubInner {
    id: u64,
    queue: String,
    buffer: Mutex<VecDeque<BufferedDelivery>>,
    buffer_cv: Condvar,
    closed: AtomicBool,
    /// Acks not yet sent to the server, as `(generation, tag)`. Flushed as
    /// one cumulative `AckMany` when the local buffer runs dry, when
    /// [`ACK_BATCH`] accumulate, on every receive call, and on drop — so
    /// credit is never withheld from the server while the consumer is idle.
    pending_acks: Mutex<Vec<(u64, u64)>>,
}

struct BufferedDelivery {
    generation: u64,
    tag: u64,
    redelivered: bool,
    message: Message,
}

impl NetBroker {
    /// Connects to a [`crate::BrokerServer`] with default configuration.
    ///
    /// # Errors
    ///
    /// [`MqError::Transport`] if the first connection cannot be established
    /// within the operation timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> MqResult<NetBroker> {
        NetBroker::connect_with(addr, NetConfig::default())
    }

    /// Connects with explicit configuration.
    ///
    /// # Errors
    ///
    /// [`MqError::Transport`] on address resolution failure or if no
    /// connection is established within `config.op_timeout`.
    pub fn connect_with(addr: impl ToSocketAddrs, config: NetConfig) -> MqResult<NetBroker> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| MqError::Transport(format!("address resolution failed: {e}")))?
            .next()
            .ok_or_else(|| MqError::Transport("address resolved to nothing".into()))?;
        let op_timeout = config.op_timeout;
        let inner = Arc::new(ClientInner {
            addr,
            config,
            writer: Mutex::new(None),
            link_up: AtomicBool::new(false),
            tx: TxQueue::new("net.client.bytes_out"),
            attempt: AtomicU32::new(0),
            generation: AtomicU64::new(0),
            connected: Mutex::new(false),
            connected_cv: Condvar::new(),
            pending: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
            next_corr: AtomicU64::new(1),
            next_sub: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            reconnects: obs::counter("net.client.reconnects"),
            rpc_seconds: obs::histogram("net.client.rpc_seconds"),
        });
        // Hand the first dial to the shared runtime; every later reconnect
        // is scheduled by the reactor when the registered source dies.
        runtime()?.enqueue_dial(inner.clone());
        // Weak capture: the registry's reference to the closure must not
        // keep the client state alive past the last broker handle.
        let health_inner = Arc::downgrade(&inner);
        let health =
            obs::register_health(&format!("net.client.{addr}"), move || {
                match health_inner.upgrade() {
                    Some(i) if i.stop.load(Ordering::Acquire) => Err("client closed".into()),
                    Some(i) if !i.link_up.load(Ordering::Acquire) => {
                        Err(format!("link to {} down (reconnecting)", i.addr))
                    }
                    Some(_) => Ok(()),
                    None => Err("client dropped".into()),
                }
            });
        let broker = NetBroker {
            _close: Arc::new(CloseOnDrop {
                inner: inner.clone(),
                _health: health,
            }),
            inner,
        };
        // Surface an unreachable server at construction time.
        broker.inner.wait_connected(Instant::now() + op_timeout)?;
        Ok(broker)
    }

    /// Closes the connection and stops the supervisor. Outstanding calls
    /// fail with [`MqError::Transport`]; consumers wake with
    /// [`MqError::Closed`].
    pub fn close(&self) {
        self.inner.shutdown();
    }
}

impl std::fmt::Debug for NetBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetBroker")
            .field("addr", &self.inner.addr)
            .field("generation", &self.inner.generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl ClientInner {
    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.drop_connection();
        for sub in self.subs.lock().values() {
            sub.closed.store(true, Ordering::Release);
            sub.buffer_cv.notify_all();
        }
    }

    /// Tears the current connection down and fails outstanding requests
    /// with `ConnectionLost` so their callers retry.
    fn drop_connection(&self) {
        self.link_up.store(false, Ordering::Release);
        self.tx.want_write.store(false, Ordering::Release);
        let writer = self.writer.lock().take();
        if let Some(st) = writer {
            // Shutting the socket down surfaces as EOF/`POLLHUP` on the
            // reactor side, which removes the registered source — the one
            // place reconnects are scheduled from.
            let _ = st.stream.shutdown(std::net::Shutdown::Both);
        }
        // Discard frames queued for the dead connection — acks and pings
        // addressed to the old generation must not ride the next one.
        {
            let mut out = self.tx.out.lock();
            out.buf.clear();
            out.frames = 0;
        }
        *self.connected.lock() = false;
        let pending: Vec<Arc<ReqSlot>> = self.pending.lock().drain().map(|(_, s)| s).collect();
        for slot in pending {
            let mut state = slot.state.lock();
            if matches!(*state, SlotState::Waiting) {
                *state = SlotState::ConnectionLost;
                slot.cv.notify_all();
            }
        }
    }

    /// Blocks until the dialer reports a live connection.
    fn wait_connected(&self, deadline: Instant) -> MqResult<()> {
        let mut connected = self.connected.lock();
        while !*connected {
            if self.stop.load(Ordering::Acquire) {
                return Err(MqError::Transport("client closed".into()));
            }
            if self
                .connected_cv
                .wait_until(&mut connected, deadline)
                .timed_out()
                && !*connected
            {
                return Err(MqError::Transport(format!(
                    "no connection to {} within the operation timeout",
                    self.addr
                )));
            }
        }
        Ok(())
    }

    /// Sends one request and waits for its reply, retrying across
    /// reconnects until the operation deadline.
    fn request(&self, req: &Request) -> MqResult<Value> {
        let started = Instant::now();
        let deadline = started + self.config.op_timeout;
        loop {
            self.wait_connected(deadline)?;
            let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
            let slot = Arc::new(ReqSlot {
                state: Mutex::new(SlotState::Waiting),
                cv: Condvar::new(),
            });
            self.pending.lock().insert(corr, slot.clone());
            if !self.send(&req.to_frame(corr)) {
                self.pending.lock().remove(&corr);
                continue; // connection died while sending; retry
            }
            let outcome = {
                let mut state = slot.state.lock();
                loop {
                    match std::mem::replace(&mut *state, SlotState::Waiting) {
                        SlotState::Done(result) => break Some(result),
                        SlotState::ConnectionLost => break None,
                        SlotState::Waiting => {}
                    }
                    if slot.cv.wait_until(&mut state, deadline).timed_out()
                        && matches!(*state, SlotState::Waiting)
                    {
                        break Some(Err(MqError::Transport(format!(
                            "request timed out after {:?}",
                            self.config.op_timeout
                        ))));
                    }
                }
            };
            self.pending.lock().remove(&corr);
            match outcome {
                Some(result) => {
                    self.rpc_seconds.record(started.elapsed());
                    return result;
                }
                None => continue, // reconnect happened mid-request: retry
            }
        }
    }

    /// Serializes a frame on the current connection. `false` if there is no
    /// connection or the write failed (the connection is torn down).
    ///
    /// Frames from concurrent callers coalesce: each is appended to a
    /// shared out-buffer, and whoever holds the writer drains everything
    /// accumulated in one `write_all` + `flush`.
    fn send(&self, frame: &Value) -> bool {
        if !self.link_up.load(Ordering::Acquire) {
            return false;
        }
        if !self.tx.push(frame) {
            self.drop_connection();
            return false;
        }
        self.flush_out()
    }

    /// Drains the out-buffer through the nonblocking socket. Flat-combining:
    /// a caller that finds the writer busy returns immediately — the holder
    /// re-checks the buffer after releasing, so no enqueued frame is
    /// stranded. A partial write parks the remainder as writer residue and
    /// arms `POLLOUT`; the reactor finishes it when the socket drains.
    fn flush_out(&self) -> bool {
        loop {
            let Some(mut writer) = self.writer.try_lock() else {
                return true;
            };
            // Disconnected under our feet: the frames die with the old
            // connection (callers observe `false` and retry).
            let Some(st) = writer.as_mut() else {
                return false;
            };
            let outcome = self.tx.drain(st);
            drop(writer);
            match outcome {
                Flush::Failed => {
                    self.drop_connection();
                    return false;
                }
                Flush::Blocked => {
                    // Interest is recomputed per poll pass; wake the loop so
                    // it picks up `POLLOUT`, which nothing else would.
                    if let Some(rt) = runtime_if_started() {
                        rt.reactor.wake();
                    }
                    return true;
                }
                Flush::Drained if self.tx.settled() => return true,
                Flush::Drained => {}
            }
        }
    }
}

/// Sends every pending current-generation ack for `sub` as one cumulative
/// frame. Acks from dead generations are discarded — their server-side tags
/// died with the old connection, which requeued the deliveries already.
fn flush_acks(client: &ClientInner, sub: &SubInner) {
    let current = client.generation.load(Ordering::Acquire);
    let tags: Vec<u64> = {
        let mut pending = sub.pending_acks.lock();
        if pending.is_empty() {
            return;
        }
        pending
            .drain(..)
            .filter(|(generation, _)| *generation == current)
            .map(|(_, tag)| tag)
            .collect()
    };
    if tags.is_empty() {
        return;
    }
    // Fire-and-forget: nothing waits for the reply.
    let corr = client.next_corr.fetch_add(1, Ordering::Relaxed);
    let _ = client.send(&Request::AckMany(sub.id, tags).to_frame(corr));
}

// ---------------------------------------------------------------------------
// Shared client runtime: one reactor + a dialer pool for every client in
// the process
// ---------------------------------------------------------------------------

/// A client parked in exponential backoff, re-dialed once its own clock
/// reaches `deadline`: the reactor's per-pass callback promotes it and
/// reports the earliest deadline still parked as its own.
struct WaitingDial {
    client: Arc<ClientInner>,
    deadline: Duration,
}

/// Process-wide client machinery, started lazily on the first
/// [`NetBroker::connect`]: the reactor that multiplexes every client
/// connection, the channel feeding the dialer pool, and the backoff parking
/// lot.
struct ClientRuntime {
    reactor: Arc<Reactor>,
    dial_tx: Mutex<mpsc::Sender<Arc<ClientInner>>>,
    waiting: Arc<Mutex<Vec<WaitingDial>>>,
}

impl ClientRuntime {
    fn enqueue_dial(&self, client: Arc<ClientInner>) {
        // The receiver lives in the dialer threads for the process lifetime,
        // so this cannot fail outside teardown.
        let _ = self.dial_tx.lock().send(client);
    }
}

static RUNTIME: OnceLock<Result<ClientRuntime, String>> = OnceLock::new();

fn runtime() -> MqResult<&'static ClientRuntime> {
    RUNTIME
        .get_or_init(|| init_runtime().map_err(|e| e.to_string()))
        .as_ref()
        .map_err(|e| MqError::Transport(format!("client runtime unavailable: {e}")))
}

/// The runtime if it already started; `None` before the first connect (or if
/// it failed to start). Used on paths that must not force initialization.
fn runtime_if_started() -> Option<&'static ClientRuntime> {
    RUNTIME.get().and_then(|r| r.as_ref().ok())
}

fn init_runtime() -> std::io::Result<ClientRuntime> {
    let reactor = Reactor::start("net.client")?;
    let (tx, rx) = mpsc::channel::<Arc<ClientInner>>();
    let rx = Arc::new(Mutex::new(rx));
    for i in 0..DIALERS {
        let rx = rx.clone();
        std::thread::Builder::new()
            .name(format!("net.dialer{i}"))
            .spawn(move || dialer_loop(&rx))?;
    }
    let waiting: Arc<Mutex<Vec<WaitingDial>>> = Arc::new(Mutex::new(Vec::new()));
    // Per-pass callback: promote parked clients whose backoff expired back
    // into the dial queue, and report when the next one expires.
    let pass_waiting = waiting.clone();
    let pass_tx = Mutex::new(tx.clone());
    reactor.set_pass(Arc::new(move || {
        let mut next: Option<Duration> = None;
        let mut due = Vec::new();
        pass_waiting.lock().retain(|entry| {
            if entry.client.stop.load(Ordering::Acquire) {
                return false;
            }
            let left = entry
                .deadline
                .saturating_sub(entry.client.config.clock.now());
            if left.is_zero() {
                due.push(entry.client.clone());
                return false;
            }
            next = Some(next.map_or(left, |n| n.min(left)));
            true
        });
        let tx = pass_tx.lock();
        for client in due {
            let _ = tx.send(client);
        }
        next
    }));
    Ok(ClientRuntime {
        reactor,
        dial_tx: Mutex::new(tx),
        waiting,
    })
}

/// Number of fds currently registered with the shared client reactor (zero
/// before any client connected). Test/diagnostic surface for asserting that
/// dead connections do not leak registrations.
pub fn client_reactor_registrations() -> usize {
    runtime_if_started().map_or(0, |rt| rt.reactor.registered())
}

fn dialer_loop(rx: &Mutex<mpsc::Receiver<Arc<ClientInner>>>) {
    let mut rng = rand::rngs::StdRng::from_entropy();
    loop {
        // Hold the lock only while waiting for a job; dial outside it so the
        // other dialers can pick up queued work concurrently.
        let job = {
            let guard = rx.lock();
            guard.recv()
        };
        match job {
            Ok(client) => dial_one(&client, &mut rng),
            Err(_) => return,
        }
    }
}

/// One dial attempt: connect + handshake + install, or park the client in
/// the backoff list with capped exponential backoff plus full jitter.
fn dial_one(client: &Arc<ClientInner>, rng: &mut rand::rngs::StdRng) {
    if client.stop.load(Ordering::Acquire) {
        return;
    }
    if try_connect(client) {
        return;
    }
    if client.stop.load(Ordering::Acquire) {
        return;
    }
    let attempt = client.attempt.fetch_add(1, Ordering::Relaxed);
    let base = BACKOFF_INITIAL
        .saturating_mul(1u32 << attempt.min(16))
        .min(client.config.backoff_cap);
    // Full jitter: retry uniformly in [base/2, base] on the client's own
    // clock, so virtual-clock tests can step through the backoff.
    let jittered = base.mul_f64(0.5 + 0.5 * rng.gen::<f64>());
    let deadline = client.config.clock.now() + jittered;
    if let Ok(rt) = runtime() {
        rt.waiting.lock().push(WaitingDial {
            client: client.clone(),
            deadline,
        });
        // A new deadline: the loop may be asleep with none, or a later one.
        rt.reactor.wake();
    }
}

/// Connects, handshakes, installs the writer, replays subscriptions, and
/// registers the connection with the reactor. `false` on any failure (the
/// caller schedules the backoff).
fn try_connect(client: &Arc<ClientInner>) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(&client.addr, CONNECT_TIMEOUT) else {
        return false;
    };
    let _ = stream.set_nodelay(true);
    // Clock handshake on the still-blocking stream, before the writer is
    // installed or the source registered — the reply is the only traffic,
    // so reading it inline here cannot race frame dispatch.
    if !clock_handshake(&stream) {
        return false;
    }
    let Ok(rt) = runtime() else {
        return false;
    };
    let ever_connected = client.generation.load(Ordering::Acquire) > 0;
    if ever_connected {
        client.reconnects.inc();
        obs::flight_event!("net", "reconnected to {}", client.addr);
    } else {
        obs::flight_event!("net", "connected to {}", client.addr);
    }
    client.attempt.store(0, Ordering::Relaxed);
    let generation = client.generation.fetch_add(1, Ordering::AcqRel) + 1;
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let Ok(writer) = stream.try_clone() else {
        return false;
    };
    *client.writer.lock() = Some(WriteState::new(writer));
    client.link_up.store(true, Ordering::Release);

    // Replay live subscriptions under their original ids *before*
    // signalling connected, so no caller observes a half-restored session.
    // Replies to these resubscribes are matched by the reactor like any
    // other.
    let subs: Vec<Arc<SubInner>> = client.subs.lock().values().cloned().collect();
    for sub in subs {
        let req = Request::Subscribe {
            queue: sub.queue.clone(),
            sub: sub.id,
            credit: client.config.credit,
        };
        let corr = client.next_corr.fetch_add(1, Ordering::Relaxed);
        if !client.send(&req.to_frame(corr)) {
            client.drop_connection();
            return false;
        }
    }

    let fd = stream.as_raw_fd();
    let now = client.config.clock.now();
    let source = Arc::new(ClientSource {
        client: client.clone(),
        generation,
        fd,
        reader: Mutex::new(ClientReader {
            stream,
            frames: FrameBuffer::with_readahead(),
        }),
        last_rx: Mutex::new(now),
        last_ping: Mutex::new(now),
        bytes_in: obs::counter("net.client.bytes_in"),
    });
    rt.reactor.register(source);
    {
        let mut connected = client.connected.lock();
        *connected = true;
        client.connected_cv.notify_all();
    }
    true
}

/// Tears the connection down and hands the client straight back to the
/// dialers. Called only from source-removal paths on the reactor, so each
/// dead connection schedules exactly one reconnect.
fn disconnect_and_reschedule(client: &Arc<ClientInner>) {
    client.drop_connection();
    if client.stop.load(Ordering::Acquire) {
        return;
    }
    obs::flight_event!("net", "connection to {} lost", client.addr);
    if let Ok(rt) = runtime() {
        rt.enqueue_dial(client.clone());
    }
}

/// Read half of one client connection as a reactor state machine.
struct ClientReader {
    stream: TcpStream,
    /// Keeps partial frames across `WouldBlock`, so a readiness event that
    /// ends mid-frame never desynchronizes the stream. It also reads ahead
    /// of frame boundaries, so one syscall drains a whole burst of coalesced
    /// replies and deliveries.
    frames: FrameBuffer,
}

/// One live client connection registered with the shared reactor. Stamped
/// with the generation it was created under; a source that outlives its
/// generation (a newer connection took over) removes itself.
struct ClientSource {
    client: Arc<ClientInner>,
    generation: u64,
    /// Cached at registration so `fd()` never takes the reader lock.
    fd: RawFd,
    reader: Mutex<ClientReader>,
    /// Clock reading when the last frame arrived (the dead-peer deadline).
    last_rx: Mutex<Duration>,
    /// Clock reading when the last ping went out (one per heartbeat).
    last_ping: Mutex<Duration>,
    bytes_in: Arc<obs::Counter>,
}

impl ClientSource {
    fn stale(&self) -> bool {
        self.generation != self.client.generation.load(Ordering::Acquire)
    }

    /// Drains readable frames. `Err(())` means the connection died
    /// (EOF, I/O error, or protocol violation) and must be torn down.
    fn read_frames(&self) -> Result<(), ()> {
        let mut guard = self.reader.lock();
        let ClientReader { stream, frames } = &mut *guard;
        let mut any = false;
        'bursts: for _ in 0..CLIENT_READ_BURSTS {
            let mut next = match frames.read_step(stream) {
                Ok(Some(first)) => Some(first),
                Ok(None) => break 'bursts, // caught up with the socket
                Err(_) => return Err(()),
            };
            while let Some((frame, n)) = next.take() {
                any = true;
                self.bytes_in.add(n as u64);
                self.dispatch(&frame)?;
                next = match frames.take_buffered() {
                    Ok(buffered) => buffered,
                    Err(_) => return Err(()),
                };
            }
        }
        if any {
            *self.last_rx.lock() = self.client.config.clock.now();
        }
        Ok(())
    }

    fn dispatch(&self, frame: &Value) -> Result<(), ()> {
        match ServerFrame::from_value(frame) {
            Ok(ServerFrame::Reply { corr, result }) => {
                let slot = self.client.pending.lock().get(&corr).cloned();
                if let Some(slot) = slot {
                    *slot.state.lock() = SlotState::Done(result);
                    slot.cv.notify_all();
                }
                // No slot: a fire-and-forget reply (resubscribe, ack, ping).
                Ok(())
            }
            Ok(ServerFrame::Deliver {
                sub,
                tag,
                redelivered,
                message,
            }) => {
                let sub_inner = self.client.subs.lock().get(&sub).cloned();
                if let Some(s) = sub_inner {
                    s.buffer.lock().push_back(BufferedDelivery {
                        generation: self.generation,
                        tag,
                        redelivered,
                        message,
                    });
                    s.buffer_cv.notify_one();
                }
                Ok(())
            }
            Err(_) => Err(()), // protocol violation: reconnect
        }
    }
}

impl EventSource for ClientSource {
    fn fd(&self) -> RawFd {
        self.fd
    }

    fn interest(&self) -> u8 {
        let mut interest = INTEREST_READ;
        if self.client.tx.want_write.load(Ordering::Acquire) {
            interest |= INTEREST_WRITE;
        }
        interest
    }

    fn ready(&self, readable: bool, writable: bool) -> Ready {
        if self.client.stop.load(Ordering::Acquire) {
            self.client.drop_connection();
            return Ready::Remove;
        }
        if self.stale() {
            return Ready::Remove; // a newer connection took over
        }
        if writable {
            self.client.flush_out();
        }
        if readable && self.read_frames().is_err() {
            disconnect_and_reschedule(&self.client);
            return Ready::Remove;
        }
        Ready::Continue
    }

    /// A ping once the link and the last ping are a heartbeat old; death
    /// once the link is four.
    fn deadline(&self) -> Option<Duration> {
        let heartbeat = self.client.config.heartbeat;
        let last_rx = *self.last_rx.lock();
        let ping = (last_rx + heartbeat).max(*self.last_ping.lock() + heartbeat);
        let due = ping.min(last_rx + heartbeat * 4);
        Some(due.saturating_sub(self.client.config.clock.now()))
    }

    fn on_deadline(&self) -> Ready {
        if self.client.stop.load(Ordering::Acquire) {
            self.client.drop_connection();
            return Ready::Remove;
        }
        if self.stale() {
            return Ready::Remove;
        }
        let now = self.client.config.clock.now();
        if now >= *self.last_rx.lock() + self.client.config.heartbeat * 4 {
            // Peer silent through the whole grace window: dead. Matches the
            // old reader's three-missed-heartbeats rule.
            disconnect_and_reschedule(&self.client);
            return Ready::Remove;
        }
        // Not dead, so the ping is what fell due.
        *self.last_ping.lock() = now;
        let corr = self.client.next_corr.fetch_add(1, Ordering::Relaxed);
        if !self.client.send(&Request::Ping.to_frame(corr)) {
            disconnect_and_reschedule(&self.client);
            return Ready::Remove;
        }
        Ready::Continue
    }
}

/// Exchanges `hello` frames with the freshly connected server and records
/// the estimated clock offset toward it: the server timestamps its reply,
/// and placing that reading at the midpoint of the request round trip gives
/// `skew = server_unix - (t0 + t1) / 2`. The estimate (error bounded by half
/// the RTT) is published via [`obs::set_clock_skew_ns`], where span dumps
/// pick it up so [`obs::traceview`] can align this process's spans onto the
/// broker's timeline. `false` if the exchange failed (treated like any other
/// connect failure).
fn clock_handshake(stream: &TcpStream) -> bool {
    let t0 = obs::unix_now_ns();
    let hello = Request::Hello {
        pid: u64::from(std::process::id()),
    };
    if write_frame(&mut (&*stream), &hello.to_frame(0)).is_err() {
        return false;
    }
    let _ = stream.set_read_timeout(Some(CONNECT_TIMEOUT));
    let reply = read_frame(&mut (&*stream));
    let _ = stream.set_read_timeout(None);
    let t1 = obs::unix_now_ns();
    let Ok((frame, _)) = reply else {
        return false;
    };
    let Ok(ServerFrame::Reply {
        result: Ok(value), ..
    }) = ServerFrame::from_value(&frame)
    else {
        return false;
    };
    let Some(server_unix) = value.get("unix_ns").and_then(|v| v.as_u64().ok()) else {
        return false;
    };
    // Halve before adding: unix-ns readings are ~2^60, t0 + t1 would wrap.
    let midpoint = t0 / 2 + t1 / 2;
    let skew = server_unix as i64 - midpoint as i64;
    obs::set_clock_skew_ns(skew);
    obs::gauge("net.client.clock_skew_ns").set(skew as f64);
    true
}

// ---------------------------------------------------------------------------
// Messaging impl
// ---------------------------------------------------------------------------

impl Messaging for NetBroker {
    fn declare_queue(&self, name: &str, options: QueueOptions) -> MqResult<()> {
        self.inner
            .request(&Request::DeclareQueue(name.into(), options))
            .map(|_| ())
    }

    fn delete_queue(&self, name: &str) -> MqResult<()> {
        self.inner
            .request(&Request::DeleteQueue(name.into()))
            .map(|_| ())
    }

    fn declare_exchange(&self, name: &str) -> MqResult<()> {
        self.inner
            .request(&Request::DeclareExchange(name.into()))
            .map(|_| ())
    }

    fn bind_queue(&self, exchange: &str, queue: &str) -> MqResult<()> {
        self.inner
            .request(&Request::BindQueue(exchange.into(), queue.into()))
            .map(|_| ())
    }

    /// Whether the queue exists on the server.
    ///
    /// The `Messaging` signature is infallible, so a transport failure that
    /// outlasts the whole operation timeout (the request already retries
    /// across reconnects until then) degrades to `false` — over TCP a long
    /// partition is indistinguishable from "queue deleted". Callers that
    /// must tell the two apart should probe with a fallible call such as
    /// [`Messaging::queue_stats`], which surfaces [`MqError::Transport`].
    /// Each degraded answer bumps the `net.client.exists_degraded` counter.
    fn queue_exists(&self, name: &str) -> bool {
        let answer = self
            .inner
            .request(&Request::QueueExists(name.into()))
            .and_then(|v| v.as_bool().map_err(|e| MqError::Transport(e.to_string())));
        answer.unwrap_or_else(|_| {
            obs::counter("net.client.exists_degraded").inc();
            false
        })
    }

    fn publish_to_queue(&self, queue: &str, message: Message) -> MqResult<()> {
        self.inner
            .request(&Request::PublishToQueue(queue.into(), message))
            .map(|_| ())
    }

    fn publish(&self, exchange: &str, message: Message) -> MqResult<usize> {
        let v = self
            .inner
            .request(&Request::Publish(exchange.into(), message))?;
        v.as_u64()
            .map(|n| n as usize)
            .map_err(|e| MqError::Transport(format!("bad publish reply: {e}")))
    }

    fn subscribe(&self, queue: &str) -> MqResult<Box<dyn MessageConsumer>> {
        let sub_id = self.inner.next_sub.fetch_add(1, Ordering::Relaxed);
        let sub = Arc::new(SubInner {
            id: sub_id,
            queue: queue.to_string(),
            buffer: Mutex::new(VecDeque::new()),
            buffer_cv: Condvar::new(),
            closed: AtomicBool::new(false),
            pending_acks: Mutex::new(Vec::new()),
        });
        // Register before the request: a delivery may race the reply.
        self.inner.subs.lock().insert(sub_id, sub.clone());
        let result = self.inner.request(&Request::Subscribe {
            queue: queue.to_string(),
            sub: sub_id,
            credit: self.inner.config.credit,
        });
        if let Err(e) = result {
            self.inner.subs.lock().remove(&sub_id);
            return Err(e);
        }
        Ok(Box::new(NetConsumer {
            client: self.inner.clone(),
            sub,
        }))
    }

    fn queue_stats(&self, name: &str) -> MqResult<QueueStats> {
        let v = self.inner.request(&Request::QueueStats(name.into()))?;
        stats_from_value(&v).map_err(MqError::from)
    }

    fn queue_arrival_rate(&self, name: &str) -> MqResult<f64> {
        let v = self
            .inner
            .request(&Request::QueueArrivalRate(name.into()))?;
        v.as_f64()
            .map_err(|e| MqError::Transport(format!("bad rate reply: {e}")))
    }
}

// ---------------------------------------------------------------------------
// NetConsumer
// ---------------------------------------------------------------------------

/// Client-side consumer handle for one remote subscription.
struct NetConsumer {
    client: Arc<ClientInner>,
    sub: Arc<SubInner>,
}

impl NetConsumer {
    fn to_any(&self, d: BufferedDelivery) -> AnyDelivery {
        let client = self.client.clone();
        let sub = self.sub.clone();
        let generation = d.generation;
        let tag = d.tag;
        AnyDelivery::new(d.message, d.redelivered, move |ok| {
            // A delivery from a previous connection generation has no live
            // server-side tag: the server already requeued it when the old
            // connection died, so resolving it now would mis-ack a tag that
            // may have been reassigned.
            if client.generation.load(Ordering::Acquire) != generation {
                return;
            }
            if !ok {
                // Requeues go out immediately: the message should rejoin
                // the queue now, not when the next ack batch flushes.
                // Fire-and-forget — on a dead connection the server-side
                // drop path requeues for us anyway.
                let corr = client.next_corr.fetch_add(1, Ordering::Relaxed);
                let _ = client.send(&Request::Requeue(sub.id, tag).to_frame(corr));
                return;
            }
            // Stash the ack. Flush when the local buffer has run dry (the
            // server is waiting on credit with nothing more in flight to us)
            // or when enough have accumulated.
            let buffer_empty = sub.buffer.lock().is_empty();
            let should_flush = {
                let mut pending = sub.pending_acks.lock();
                pending.push((generation, tag));
                buffer_empty || pending.len() >= ACK_BATCH
            };
            if should_flush {
                flush_acks(&client, &sub);
            }
        })
    }

    /// Pops the next current-generation delivery, discarding stale ones.
    fn pop_fresh(&self, buffer: &mut VecDeque<BufferedDelivery>) -> Option<BufferedDelivery> {
        let current = self.client.generation.load(Ordering::Acquire);
        while let Some(d) = buffer.pop_front() {
            if d.generation == current {
                return Some(d);
            }
        }
        None
    }
}

impl std::fmt::Debug for NetConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetConsumer")
            .field("queue", &self.sub.queue)
            .field("sub", &self.sub.id)
            .finish()
    }
}

impl MessageConsumer for NetConsumer {
    fn recv_timeout(&self, timeout: Duration) -> MqResult<AnyDelivery> {
        // Every receive is a flush point for batched acks: the consumer is
        // demonstrably alive, so don't sit on credit the server could use.
        flush_acks(&self.client, &self.sub);
        // Deadline-based: spurious wakeups re-arm with the *remaining* time.
        let deadline = Instant::now() + timeout;
        let mut buffer = self.sub.buffer.lock();
        loop {
            if let Some(d) = self.pop_fresh(&mut buffer) {
                drop(buffer);
                return Ok(self.to_any(d));
            }
            if self.sub.closed.load(Ordering::Acquire) {
                return Err(MqError::Closed);
            }
            let timed_out = self
                .sub
                .buffer_cv
                .wait_until(&mut buffer, deadline)
                .timed_out();
            if timed_out {
                // A delivery can land at the same instant the wait times
                // out. The check must be non-destructive: popping here and
                // discarding would lose the message without an ack or
                // requeue, stranding one credit unit on the server. If
                // anything fresh is buffered, loop back so the top-of-loop
                // pop hands it out.
                let current = self.client.generation.load(Ordering::Acquire);
                if buffer.iter().all(|d| d.generation != current) {
                    return Err(MqError::RecvTimeout);
                }
            }
        }
    }
}

impl Drop for NetConsumer {
    fn drop(&mut self) {
        flush_acks(&self.client, &self.sub);
        self.sub.closed.store(true, Ordering::Release);
        self.sub.buffer_cv.notify_all();
        self.client.subs.lock().remove(&self.sub.id);
        if !self.client.stop.load(Ordering::Acquire) {
            let corr = self.client.next_corr.fetch_add(1, Ordering::Relaxed);
            let _ = self
                .client
                .send(&Request::Unsubscribe(self.sub.id).to_frame(corr));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BrokerServer;
    use mqsim::MessageBroker;

    fn pair() -> (BrokerServer, NetBroker) {
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
        let client = NetBroker::connect(server.local_addr()).unwrap();
        (server, client)
    }

    #[test]
    fn full_surface_over_loopback() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        assert!(client.queue_exists("q"));
        assert!(!client.queue_exists("other"));
        client.declare_exchange("x").unwrap();
        client.bind_queue("x", "q").unwrap();
        let n = client.publish("x", Message::from_static(b"fan")).unwrap();
        assert_eq!(n, 1);
        client
            .publish_to_queue("q", Message::from_static(b"direct"))
            .unwrap();
        assert_eq!(client.queue_stats("q").unwrap().depth, 2);
        assert!(client.queue_arrival_rate("q").unwrap() > 0.0);

        let consumer = client.subscribe("q").unwrap();
        let d1 = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(d1.message.payload(), b"fan");
        d1.ack();
        let d2 = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(d2.message.payload(), b"direct");
        d2.ack();

        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let stats = client.queue_stats("q").unwrap();
            if stats.acked == 2 && stats.unacked == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "acks not applied: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        client.delete_queue("q").unwrap();
        assert!(!client.queue_exists("q"));
        assert_eq!(
            client.publish("x", Message::from_static(b"gone")).unwrap(),
            0,
            "deleting the queue removed its binding"
        );
        client.close();
        server.shutdown();
    }

    #[test]
    fn remote_errors_surface_typed() {
        let (server, client) = pair();
        assert_eq!(
            client.queue_stats("missing").unwrap_err(),
            MqError::QueueNotFound("missing".into())
        );
        client.close();
        server.shutdown();
    }

    #[test]
    fn a_mistyped_publish_reply_is_a_transport_error() {
        // A hand-rolled peer that answers `hello` properly and `publish`
        // with a string where the number of queues reached belongs.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            while let Ok((frame, _)) = read_frame(&mut (&stream)) {
                let (corr, req) = Request::from_frame(&frame).unwrap();
                let value = match req {
                    Request::Hello { .. } => {
                        Value::Map(vec![("unix_ns".into(), Value::U64(obs::unix_now_ns()))])
                    }
                    Request::Publish(..) => Value::from("two"),
                    _ => Value::Null,
                };
                let reply = ServerFrame::Reply {
                    corr,
                    result: Ok(value),
                };
                if write_frame(&mut (&stream), &reply.to_value()).is_err() {
                    return;
                }
            }
        });
        let client = NetBroker::connect(addr).unwrap();
        let err = client.publish("x", Message::from_static(b"n")).unwrap_err();
        assert!(matches!(err, MqError::Transport(_)), "{err:?}");
        client.close();
        peer.join().unwrap();
    }

    #[test]
    fn dropped_delivery_requeues_on_server() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        client
            .publish_to_queue("q", Message::from_static(b"m"))
            .unwrap();
        let consumer = client.subscribe("q").unwrap();
        let d = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(!d.redelivered);
        drop(d); // implicit requeue
        let d2 = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(d2.redelivered);
        assert_eq!(d2.message.payload(), b"m");
        d2.ack();
        client.close();
        server.shutdown();
    }

    #[test]
    fn connect_to_nothing_fails_fast() {
        let config = NetConfig {
            op_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        };
        // Port 1 is essentially never listening.
        let err = NetBroker::connect_with("127.0.0.1:1", config).unwrap_err();
        assert!(matches!(err, MqError::Transport(_)));
    }

    #[test]
    fn client_reconnects_and_resubscribes() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = client.subscribe("q").unwrap();

        server.disconnect_all();

        // Publishing rides through the partition via retry.
        client
            .publish_to_queue("q", Message::from_static(b"after"))
            .unwrap();
        let d = consumer.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(d.message.payload(), b"after");
        d.ack();
        client.close();
        server.shutdown();
    }

    #[test]
    fn timeout_race_loses_no_delivery_or_credit() {
        let config = NetConfig {
            credit: 2,
            ..NetConfig::default()
        };
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
        let client = NetBroker::connect_with(server.local_addr(), config).unwrap();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = client.subscribe("q").unwrap();

        let publisher = client.clone();
        const N: usize = 100;
        let feeder = std::thread::spawn(move || {
            for i in 0..N {
                publisher
                    .publish_to_queue("q", Message::from_bytes(vec![i as u8]))
                    .unwrap();
                std::thread::sleep(Duration::from_micros(300));
            }
        });

        // Poll with tiny timeouts so condvar waits constantly race message
        // arrival. A delivery discarded on the timeout path would strand a
        // credit unit with no ack/requeue; at credit=2 two such losses
        // stall the consumer permanently and the deadline below trips.
        let mut got = 0usize;
        let deadline = Instant::now() + Duration::from_secs(30);
        while got < N {
            assert!(
                Instant::now() < deadline,
                "consumer stalled after {got}/{N} deliveries: credit leaked"
            );
            match consumer.recv_timeout(Duration::from_millis(1)) {
                Ok(d) => {
                    d.ack();
                    got += 1;
                }
                Err(MqError::RecvTimeout) => {}
                Err(e) => panic!("unexpected recv error: {e:?}"),
            }
        }
        feeder.join().unwrap();
        client.close();
        server.shutdown();
    }

    #[test]
    fn dropping_last_clone_shuts_down_client() {
        let (server, client) = pair();
        let inner = client.inner.clone();
        let second_handle = client.clone();
        drop(client);
        assert!(
            !inner.stop.load(Ordering::Acquire),
            "shutdown fired while a clone was still alive"
        );
        drop(second_handle);
        assert!(
            inner.stop.load(Ordering::Acquire),
            "dropping the last clone must stop the supervisor"
        );
        // The supervisor exits and the connection closes; the server sees
        // the disconnect and tears the connection state down on its side.
        server.shutdown();
    }

    #[test]
    fn batched_publish_and_ack_round_trip() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        for i in 0..20u8 {
            client
                .publish_to_queue("q", Message::from_bytes(vec![i]))
                .unwrap();
        }
        assert_eq!(client.queue_stats("q").unwrap().depth, 20);

        let consumer = client.subscribe("q").unwrap();
        for i in 0..20u8 {
            let d = consumer
                .recv_timeout(Duration::from_secs(2))
                .expect("delivery within timeout");
            assert_eq!(d.message.payload(), &[i], "FIFO order");
            d.ack();
        }
        // Acks are batched and flushed lazily; poll until the server applied
        // them all (the empty-buffer flush fires on the last ack).
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let stats = client.queue_stats("q").unwrap();
            if stats.acked == 20 && stats.unacked == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "acks never applied: {stats:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
        client.close();
        server.shutdown();
    }

    #[test]
    fn pending_acks_flush_on_consumer_drop() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        for i in 0..3u8 {
            client
                .publish_to_queue("q", Message::from_bytes(vec![i]))
                .unwrap();
        }
        let consumer = client.subscribe("q").unwrap();
        let first = consumer.recv_timeout(Duration::from_secs(2)).unwrap();
        // Ack while the other deliveries are on their way to the local
        // buffer, so the empty-buffer flush does not fire for this ack.
        let deadline = Instant::now() + Duration::from_secs(2);
        while client.queue_stats("q").unwrap().unacked < 3 {
            assert!(Instant::now() < deadline, "the server never sent all three");
            std::thread::sleep(Duration::from_millis(5));
        }
        first.ack();
        drop(consumer); // drop must flush whatever is still pending
        loop {
            let stats = client.queue_stats("q").unwrap();
            if stats.acked == 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "drop did not flush pending acks: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        client.close();
        server.shutdown();
    }

    #[test]
    fn recv_timeout_does_not_drift_past_deadline() {
        let (server, client) = pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        let consumer = client.subscribe("q").unwrap();
        let started = Instant::now();
        let err = consumer
            .recv_timeout(Duration::from_millis(200))
            .unwrap_err();
        assert_eq!(err, MqError::RecvTimeout);
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(200) && elapsed < Duration::from_millis(600),
            "recv_timeout took {elapsed:?}"
        );
        client.close();
        server.shutdown();
    }
}
