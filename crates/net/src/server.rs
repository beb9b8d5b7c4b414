//! The broker server: exposes an in-process [`MessageBroker`] over TCP.
//!
//! The server is event-driven: a handful of reactor loops (see
//! [`crate::reactor`]) multiplex every client connection over nonblocking
//! sockets and `poll(2)`, so holding ten thousand idle connections costs
//! ten thousand fds and some buffers — not twenty thousand parked threads.
//! Each connection is a per-fd state machine: a [`FrameBuffer`] reassembles
//! length-prefixed frames across `WouldBlock` boundaries on the read side,
//! and a residue buffer carries partially-written coalesced batches on the
//! write side (`POLLOUT` interest is raised only while a partial write is
//! outstanding). An idle loop sleeps in `poll(2)` until a socket or a wake
//! needs it: its one timed work is the listener's 10 ms accept-error pause.
//!
//! Requests are executed synchronously against the broker on the loop
//! thread (every broker operation is non-blocking) and answered with a
//! `reply` frame. Deliveries are pushed by the same loops, and only by the
//! event that made a message deliverable — there is no timed sweep:
//!
//! - a publish executed on a reader path offers the new messages to
//!   matching subscriptions immediately (coalescing same-connection
//!   deliveries into the very write that carries the publish reply);
//! - a broker-side ready-waker ([`mqsim::MessageBroker::set_ready_waker`])
//!   marks a queue dirty whenever it gains ready messages — in-process
//!   publishers, requeues, a dead consumer's orphans — and loop 0's next
//!   pass dispatches it;
//! - an ack or requeue that frees credit offers its own subscription;
//! - a subscribe offers the queue's backlog right behind its reply.
//!
//! Each offer runs until the queue is empty or every subscription of the
//! queue is out of credit, so nothing deliverable is left for a later
//! event to find.
//!
//! ## Backpressure
//!
//! A subscription starts with `credit` units; each `deliver` frame consumes
//! one and each ack/requeue returns one. When credit reaches zero dispatch
//! stops, so a slow consumer leaves its messages *in the broker queue*
//! (bounded server memory) instead of accumulating in socket buffers. A
//! slow *reader* (TCP window closed) parks only its own connection: the
//! partial batch sits in that connection's residue buffer under `POLLOUT`
//! interest while every other connection keeps flowing.
//!
//! ## Failure semantics
//!
//! Unacked deliveries are held in a per-subscription map. When a connection
//! dies — network fault, client crash, [`BrokerServer::disconnect_all`] —
//! the loop tears the connection down, dropping that map (and the
//! underlying [`mqsim::Consumer`]), which requeues every unacked message at
//! the front of its queue, flagged redelivered. A client that reconnects
//! and resubscribes therefore sees exactly the at-least-once behaviour of
//! the in-process broker.

use crate::frame::{FrameBuffer, Request, ServerFrame};
use crate::reactor::{EventSource, Reactor, Ready, INTEREST_READ, INTEREST_WRITE};
use crate::stats_to_value;
use crate::tx::{Flush, TxQueue, WriteState};
use mqsim::{Delivery, MessageBroker, MqError, MqResult};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};
use wire::Value;

/// Max complete `read_step` bursts one connection may consume per readiness
/// event before yielding the loop to its neighbours (level-triggered poll
/// re-fires if the socket still has bytes).
const READ_BURSTS: usize = 32;

/// Flush the out-buffer mid-burst once this many frames have coalesced,
/// bounding how long the first reply of a large burst waits on the rest.
const MAX_COALESCED_FRAMES: u64 = 32;

/// Upper bound on deliveries pushed per dispatch offer (credit bounds it
/// further).
const MAX_BATCH: usize = 64;

/// A TCP front-end for one [`MessageBroker`].
pub struct BrokerServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    /// Keeps the `net.server.*` health check registered for this server's
    /// lifetime; dropped (deregistered) with the server.
    _health: obs::HealthGuard,
    /// Admin endpoint, if `NET_ADMIN_ADDR` was set at bind time.
    _admin: Option<obs::AdminServer>,
}

struct ServerShared {
    broker: MessageBroker,
    stop: AtomicBool,
    conns: Mutex<Vec<Arc<ConnShared>>>,
    /// Dispatch registry: every live subscription across every connection,
    /// grouped by queue name. The loop thread that executes a publish
    /// looks its queue up here and pushes the resulting deliveries straight
    /// into the subscriber connection's out-buffer — same-connection
    /// deliveries coalesce into the very write that carries the publish
    /// reply, and cross-connection deliveries flush immediately.
    /// Entries are weak so the registry never extends a subscription's
    /// lifetime (dropping `SubShared` is what requeues unacked messages).
    dispatch: Mutex<HashMap<String, Vec<DispatchSub>>>,
    /// Round-robin cursor over dispatch targets, so a competing-consumer
    /// pool shares a queue instead of the first-registered subscription
    /// with spare credit soaking up everything.
    dispatch_cursor: AtomicU64,
    /// Connection id allocator.
    next_conn: AtomicU64,
    /// The reactor loops. Loop 0 additionally owns the listener and the
    /// dirty-queue dispatch; connections are assigned round-robin across
    /// all.
    reactors: Vec<Arc<Reactor>>,
    /// Queues flagged ready by the broker waker, awaiting loop 0's pass.
    dirty: Mutex<HashSet<String>>,
    /// Fast-path flag: set with `dirty`, consumed by loop 0's pass.
    dispatch_pending: AtomicBool,
    deliveries: Arc<obs::Counter>,
    connections_gauge: Arc<obs::Gauge>,
}

struct DispatchSub {
    conn: Weak<ConnShared>,
    sub: Weak<SubShared>,
}

/// An upgraded, still-live dispatch target.
type LiveSub = (Arc<ConnShared>, Arc<SubShared>);

/// State shared between a connection's event source and the dispatch paths.
struct ConnShared {
    id: u64,
    stream: TcpStream,
    writer: Mutex<WriteState>,
    tx: TxQueue,
    subs: Mutex<HashMap<u64, Arc<SubShared>>>,
    dead: AtomicBool,
    /// The reactor loop this connection is registered with (woken when
    /// write interest changes).
    reactor: Weak<Reactor>,
}

struct SubShared {
    /// Wire id of this subscription on its connection.
    sub: u64,
    /// The broker-side consumer. The mutex is the dispatch serializer:
    /// whoever holds it owns the budget-read → take → credit-decrement
    /// sequence (so two dispatchers cannot overdraw the window) and the
    /// frame enqueue (so per-subscription delivery order stays FIFO).
    /// Dropping the consumer requeues its unacked broker deliveries.
    consumer: Mutex<mqsim::Consumer>,
    /// Remaining delivery credit; dispatch stops at zero.
    credit: Mutex<u64>,
    /// Deliveries pushed to the client and not yet acked/requeued, by tag.
    /// Dropping this map requeues them all.
    unacked: Mutex<HashMap<u64, Delivery>>,
    stop: AtomicBool,
}

impl SubShared {
    fn requeue(&self, tag: u64) -> MqResult<()> {
        let delivery = self
            .unacked
            .lock()
            .remove(&tag)
            .ok_or(MqError::UnknownDeliveryTag(tag))?;
        delivery.requeue();
        *self.credit.lock() += 1;
        Ok(())
    }

    /// Acknowledges a batch of tags in one pass and grants the freed credit
    /// back cumulatively. Unknown tags are skipped (a redundant cumulative
    /// ack must not fail the connection).
    fn ack_many(&self, tags: &[u64]) -> MqResult<()> {
        let mut deliveries = Vec::with_capacity(tags.len());
        {
            let mut unacked = self.unacked.lock();
            for tag in tags {
                if let Some(d) = unacked.remove(tag) {
                    deliveries.push(d);
                }
            }
        }
        let n = deliveries.len() as u64;
        if n == 0 {
            return Ok(());
        }
        Delivery::ack_all(deliveries);
        *self.credit.lock() += n;
        Ok(())
    }

    fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

impl ConnShared {
    /// Marks the connection dead and shuts its socket down. The shutdown is
    /// also the owning loop's wake-up: the fd polls as hung up on the next
    /// pass, and `ready` tears the connection down, whichever thread killed
    /// it.
    fn kill(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            for sub in self.subs.lock().values() {
                sub.shutdown();
            }
        }
    }

    /// Encodes a frame into the out-buffer *without* draining it, so a burst
    /// of requests can be answered with one coalesced write. The caller owns
    /// the eventual `flush_out`. Any error kills the connection.
    fn enqueue(&self, frame: &Value) {
        if !self.tx.push(frame) {
            self.kill();
        }
    }

    /// Drains the out-buffer through the nonblocking socket. Flat-combining:
    /// if another thread holds the writer it will pick up our bytes, so
    /// contenders return immediately instead of queueing on the writer lock.
    /// A partial write parks the remainder in `residue`, raises `POLLOUT`
    /// interest and wakes the reactor; the loop finishes the flush when the
    /// socket drains — other connections on the loop are never blocked by
    /// this one's slow reader.
    fn flush_out(&self) {
        loop {
            // The holder drains everything enqueued before releasing.
            let Some(mut writer) = self.writer.try_lock() else {
                return;
            };
            let outcome = self.tx.drain(&mut writer);
            drop(writer);
            match outcome {
                Flush::Failed => return self.kill(),
                Flush::Blocked => {
                    if let Some(reactor) = self.reactor.upgrade() {
                        reactor.wake();
                    }
                    return;
                }
                Flush::Drained if self.tx.settled() => return,
                Flush::Drained => {}
            }
        }
    }
}

impl BrokerServer {
    /// Binds a listener and starts serving `broker` on it. Use port 0 to let
    /// the OS pick a free port, then read it back via
    /// [`BrokerServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn bind(addr: impl ToSocketAddrs, broker: MessageBroker) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        // A few loops cover many thousands of connections; past that the
        // broker itself is the bottleneck, not readiness dispatch.
        let loops = std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).clamp(1, 4));
        let mut reactors = Vec::with_capacity(loops);
        for i in 0..loops {
            reactors.push(Reactor::start(&format!("net.server.loop{i}"))?);
        }
        let shared = Arc::new(ServerShared {
            broker,
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            dispatch: Mutex::new(HashMap::new()),
            dispatch_cursor: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            reactors,
            dirty: Mutex::new(HashSet::new()),
            dispatch_pending: AtomicBool::new(false),
            deliveries: obs::counter("net.server.deliveries_total"),
            connections_gauge: obs::gauge("net.server.connections"),
        });
        // Broker-side readiness feeds loop 0's dirty-queue pass. Weak: the
        // broker may outlive this server, and the waker must not keep the
        // server state alive.
        let waker_shared = Arc::downgrade(&shared);
        shared
            .broker
            .set_ready_waker(Some(Arc::new(move |queue: &str| {
                if let Some(s) = waker_shared.upgrade() {
                    note_ready(&s, queue);
                }
            })));
        let pass_shared = Arc::downgrade(&shared);
        shared.reactors[0].set_pass(Arc::new(move || {
            if let Some(s) = pass_shared.upgrade() {
                drain_ready(&s);
            }
            None
        }));
        shared.reactors[0].register(Arc::new(ListenerSource {
            listener,
            shared: Arc::downgrade(&shared),
            accepts: obs::counter("net.server.accepts_total"),
            paused_until: Mutex::new(None),
        }));
        // The guard lives in BrokerServer (not ServerShared), so the
        // registry's strong reference to the closure cannot keep the server
        // state alive: dropping the server deregisters the check.
        let health_shared = Arc::downgrade(&shared);
        let health =
            obs::register_health(&format!("net.server.{addr}"), move || {
                match health_shared.upgrade() {
                    Some(s) if !s.stop.load(Ordering::Acquire) => Ok(()),
                    _ => Err("listener stopped".into()),
                }
            });
        // Opt-in live admin endpoint: a second server in the same process
        // loses the bind race and simply goes without.
        let admin = std::env::var("NET_ADMIN_ADDR")
            .ok()
            .filter(|a| !a.is_empty())
            .and_then(|a| obs::serve_admin(a.as_str()).ok());
        obs::flight_event!("net", "server listening on {addr}");
        Ok(BrokerServer {
            addr,
            shared,
            _health: health,
            _admin: admin,
        })
    }

    /// The address the server listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The broker being served.
    pub fn broker(&self) -> &MessageBroker {
        &self.shared.broker
    }

    /// Number of client connections currently tracked and not yet torn
    /// down.
    pub fn live_connections(&self) -> usize {
        self.shared
            .conns
            .lock()
            .iter()
            .filter(|c| !c.dead.load(Ordering::Acquire))
            .count()
    }

    /// Total event-source registrations across every reactor loop,
    /// including the listener itself. The connection-churn test uses this
    /// as its stuck-registration probe: after clients disconnect and the
    /// loops settle, the count must return to its pre-churn baseline.
    pub fn reactor_registrations(&self) -> usize {
        self.shared.reactors.iter().map(|r| r.registered()).sum()
    }

    /// Hard-closes every live client connection (the sockets are shut down
    /// mid-stream). Unacked deliveries are requeued; clients observe a
    /// connection reset and go through their reconnect path. The listener
    /// keeps accepting, so this injects exactly a transient network
    /// partition.
    pub fn disconnect_all(&self) {
        let conns = self.shared.conns.lock().clone();
        for conn in conns {
            conn.kill();
        }
    }

    /// Stops accepting, closes all connections, and joins the event loops.
    pub fn shutdown(self) {
        self.stop_now();
    }

    fn stop_now(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.broker.set_ready_waker(None);
        self.disconnect_all();
        for reactor in &self.shared.reactors {
            reactor.shutdown();
        }
        // Loops are joined: dropping the connection list here releases the
        // last `SubShared` references, requeueing all unacked deliveries.
        self.shared.conns.lock().clear();
        self.shared.connections_gauge.set(0.0);
    }
}

impl Drop for BrokerServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

impl std::fmt::Debug for BrokerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerServer")
            .field("addr", &self.addr)
            .finish()
    }
}

/// The listening socket as an event source on loop 0: accepts until
/// `WouldBlock` on every readiness event and hands each connection to a
/// reactor round-robin.
struct ListenerSource {
    listener: TcpListener,
    shared: Weak<ServerShared>,
    accepts: Arc<obs::Counter>,
    /// Set by an accept error: the listener leaves the poll set until then.
    paused_until: Mutex<Option<Instant>>,
}

impl EventSource for ListenerSource {
    fn fd(&self) -> RawFd {
        self.listener.as_raw_fd()
    }

    fn interest(&self) -> u8 {
        self.paused_until.lock().map_or(INTEREST_READ, |_| 0)
    }

    fn deadline(&self) -> Option<Duration> {
        (*self.paused_until.lock()).map(|at| at.saturating_duration_since(Instant::now()))
    }

    fn on_deadline(&self) -> Ready {
        *self.paused_until.lock() = None;
        Ready::Continue
    }

    fn ready(&self, _readable: bool, _writable: bool) -> Ready {
        let Some(shared) = self.shared.upgrade() else {
            return Ready::Remove;
        };
        if shared.stop.load(Ordering::Acquire) {
            return Ready::Remove;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if shared.stop.load(Ordering::Acquire) {
                        return Ready::Remove;
                    }
                    self.accepts.inc();
                    accept_conn(&shared, stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // A lasting accept error (e.g. EMFILE) must neither
                    // busy-spin the loop (level-triggered poll re-fires at
                    // once) nor stall its other connections: the listener
                    // sits out 10 ms, and only it.
                    *self.paused_until.lock() = Some(Instant::now() + Duration::from_millis(10));
                    break;
                }
            }
        }
        Ready::Continue
    }
}

/// Sets up one accepted connection and registers it with its reactor.
fn accept_conn(shared: &Arc<ServerShared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let (writer, reader) = match (stream.try_clone(), stream.try_clone()) {
        (Ok(w), Ok(r)) => (w, r),
        _ => return,
    };
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
    let reactor = &shared.reactors[id as usize % shared.reactors.len()];
    let conn = Arc::new(ConnShared {
        id,
        stream,
        writer: Mutex::new(WriteState::new(writer)),
        tx: TxQueue::new("net.server.bytes_out"),
        subs: Mutex::new(HashMap::new()),
        dead: AtomicBool::new(false),
        reactor: Arc::downgrade(reactor),
    });
    {
        let mut conns = shared.conns.lock();
        conns.retain(|c| !c.dead.load(Ordering::Acquire));
        conns.push(conn.clone());
        shared.connections_gauge.set(conns.len() as f64);
    }
    // Read ahead of frame boundaries: one syscall can pull in a whole
    // pipeline of requests, which are then all answered with one coalesced
    // write.
    let frames = FrameBuffer::with_readahead();
    let source = Arc::new(ConnSource {
        conn,
        shared: Arc::downgrade(shared),
        reader: Mutex::new(ReaderState {
            stream: reader,
            frames,
        }),
        bytes_in: obs::counter("net.server.bytes_in"),
        frame_seconds: obs::histogram("net.server.frame_seconds"),
    });
    reactor.register(source);
}

/// Read-side state machine of one connection.
struct ReaderState {
    stream: TcpStream,
    frames: FrameBuffer,
}

/// One client connection as an event source.
struct ConnSource {
    conn: Arc<ConnShared>,
    shared: Weak<ServerShared>,
    reader: Mutex<ReaderState>,
    bytes_in: Arc<obs::Counter>,
    frame_seconds: Arc<obs::Histogram>,
}

impl ConnSource {
    /// Consumes up to [`READ_BURSTS`] frame bursts from the socket,
    /// executing each request inline. Returns `false` when the connection
    /// must be torn down (EOF, reset, protocol violation).
    fn read_burst(&self, shared: &Arc<ServerShared>) -> bool {
        let mut guard = self.reader.lock();
        let ReaderState { stream, frames } = &mut *guard;
        for _ in 0..READ_BURSTS {
            let first = match frames.read_step(stream) {
                Ok(Some(first)) => first,
                Ok(None) => return true, // caught up with the socket
                Err(_) => return false,  // EOF, reset, or garbage
            };
            // Handle this frame and everything the same read pulled in.
            let mut next = Some(first);
            while let Some((frame, n)) = next.take() {
                self.bytes_in.add(n as u64);
                let started = Instant::now();
                let (corr, request) = match Request::from_frame(&frame) {
                    Ok(ok) => ok,
                    Err(_) => {
                        self.conn.flush_out();
                        return false; // protocol violation: hang up
                    }
                };
                let mut after_reply = None;
                let result = execute(&self.conn, shared, request, &mut after_reply);
                self.conn
                    .enqueue(&ServerFrame::Reply { corr, result }.to_value());
                // A subscription's backlog is offered only once its reply
                // frame is in the out-buffer. Byte *order* — not flush
                // timing — is what guarantees the client never sees a
                // delivery precede the subscribe confirmation, since
                // deliver frames can only be enqueued after the reply.
                if let Some(start) = after_reply.take() {
                    start();
                }
                self.frame_seconds.record(started.elapsed());
                // Cap the coalesced burst: under congestion a single greedy
                // read can pull in hundreds of requests, and holding every
                // reply until the burst finishes would trade median latency
                // for syscall count. A bounded flush keeps the amortization
                // (dozens of frames per write) without the head-of-burst
                // replies waiting on the tail's execution.
                if self.conn.tx.out.lock().frames >= MAX_COALESCED_FRAMES {
                    self.conn.flush_out();
                }
                next = match frames.take_buffered() {
                    Ok(buffered) => buffered,
                    Err(_) => {
                        self.conn.flush_out();
                        return false;
                    }
                };
            }
            self.conn.flush_out();
            if self.conn.dead.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
                return false;
            }
        }
        true
    }
}

impl EventSource for ConnSource {
    fn fd(&self) -> RawFd {
        self.conn.stream.as_raw_fd()
    }

    fn interest(&self) -> u8 {
        let mut interest = INTEREST_READ;
        if self.conn.tx.want_write.load(Ordering::Acquire) {
            interest |= INTEREST_WRITE;
        }
        interest
    }

    fn ready(&self, readable: bool, writable: bool) -> Ready {
        let Some(shared) = self.shared.upgrade() else {
            self.conn.kill();
            return Ready::Remove;
        };
        if self.conn.dead.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
            teardown_conn(&self.conn, &shared);
            return Ready::Remove;
        }
        // Flush first: freeing the residue may be what lets the replies
        // produced by the reads below go straight out.
        if writable {
            self.conn.flush_out();
        }
        if readable && !self.read_burst(&shared) {
            teardown_conn(&self.conn, &shared);
            return Ready::Remove;
        }
        if self.conn.dead.load(Ordering::Acquire) {
            teardown_conn(&self.conn, &shared);
            return Ready::Remove;
        }
        Ready::Continue
    }
}

/// Tears one connection down: kills the socket, releases every
/// subscription (requeueing unacked deliveries), and prunes the
/// connection list. Idempotent.
fn teardown_conn(conn: &Arc<ConnShared>, shared: &ServerShared) {
    conn.kill();
    let subs: Vec<Arc<SubShared>> = conn.subs.lock().drain().map(|(_, s)| s).collect();
    for sub in &subs {
        sub.shutdown();
    }
    // The registry only holds weak refs, so dropping these releases the
    // broker consumers and requeues every unacked delivery promptly.
    drop(subs);
    let mut conns = shared.conns.lock();
    conns.retain(|c| c.id != conn.id && !c.dead.load(Ordering::Acquire));
    shared.connections_gauge.set(conns.len() as f64);
}

/// Broker ready-waker target: marks the queue dirty and wakes loop 0,
/// whose next pass dispatches it. Called from whatever thread caused the
/// readiness transition (possibly a loop thread itself).
fn note_ready(shared: &ServerShared, queue: &str) {
    shared.dirty.lock().insert(queue.to_string());
    if !shared.dispatch_pending.swap(true, Ordering::AcqRel) {
        if let Some(reactor) = shared.reactors.first() {
            reactor.wake();
        }
    }
}

/// Loop 0's per-pass callback: offers every queue the waker marked dirty
/// since the last pass. The flag is cleared before the set is drained, so
/// a queue marked after the drain has set it again and woken the loop.
fn drain_ready(shared: &ServerShared) {
    if shared.stop.load(Ordering::Acquire) {
        return;
    }
    if shared.dispatch_pending.swap(false, Ordering::AcqRel) {
        let dirty: Vec<String> = shared.dirty.lock().drain().collect();
        for queue in &dirty {
            dispatch_ready(shared, Some(queue), None);
        }
    }
}

/// Deferred work to run after the reply frame has been written.
type AfterReply = Box<dyn FnOnce() + Send>;

fn execute(
    conn: &Arc<ConnShared>,
    shared: &Arc<ServerShared>,
    req: Request,
    after_reply: &mut Option<AfterReply>,
) -> MqResult<Value> {
    let broker = &shared.broker;
    match req {
        Request::DeclareQueue(name, opts) => {
            broker.declare_queue(&name, opts).map(|()| Value::Null)
        }
        Request::DeleteQueue(name) => broker.delete_queue(&name).map(|()| Value::Null),
        Request::DeclareExchange(name) => broker.declare_exchange(&name).map(|()| Value::Null),
        Request::BindQueue(e, q) => broker.bind_queue(&e, &q).map(|()| Value::Null),
        Request::QueueExists(name) => Ok(Value::Bool(broker.queue_exists(&name))),
        Request::PublishToQueue(queue, message) => {
            let res = broker.publish_to_queue(&queue, message);
            if res.is_ok() {
                *after_reply = Some(dispatch_hook(conn, shared, Some(queue)));
            }
            res.map(|()| Value::Null)
        }
        Request::Publish(exchange, message) => {
            let res = broker.publish(&exchange, message);
            // Exchange routing fans out to queues this thread does not
            // know by name; offer deliveries to every subscription.
            if matches!(res, Ok(n) if n > 0) {
                *after_reply = Some(dispatch_hook(conn, shared, None));
            }
            res.map(|n| Value::U64(n as u64))
        }
        Request::Subscribe { queue, sub, credit } => {
            let consumer = broker.subscribe(&queue)?;
            let sub_shared = Arc::new(SubShared {
                sub,
                consumer: Mutex::new(consumer),
                credit: Mutex::new(credit.max(1)),
                unacked: Mutex::new(HashMap::new()),
                stop: AtomicBool::new(false),
            });
            let previous = conn.subs.lock().insert(sub, sub_shared.clone());
            if let Some(p) = previous {
                p.shutdown();
            }
            shared
                .dispatch
                .lock()
                .entry(queue)
                .or_default()
                .push(DispatchSub {
                    conn: Arc::downgrade(conn),
                    sub: Arc::downgrade(&sub_shared),
                });
            // Push any backlog right behind the subscribe reply; the frames
            // ride the same coalesced write.
            *after_reply = Some(sub_dispatch_hook(conn, shared, sub));
            Ok(Value::Null)
        }
        Request::Unsubscribe(sub) => match conn.subs.lock().remove(&sub) {
            Some(s) => {
                s.shutdown();
                Ok(Value::Bool(true))
            }
            None => Ok(Value::Bool(false)),
        },
        // Resolving deliveries frees credit, which may unblock ready
        // messages for this very subscription: no other event will offer
        // them, so this ack round trip refills the credit-capped consumer.
        Request::AckMany(sub, tags) => {
            let res = with_sub(conn, sub, |s| s.ack_many(&tags));
            if res.is_ok() {
                *after_reply = Some(sub_dispatch_hook(conn, shared, sub));
            }
            res
        }
        Request::Requeue(sub, tag) => {
            let res = with_sub(conn, sub, |s| s.requeue(tag));
            if res.is_ok() {
                *after_reply = Some(sub_dispatch_hook(conn, shared, sub));
            }
            res
        }
        Request::QueueStats(name) => broker.queue_stats(&name).map(|s| stats_to_value(&s)),
        Request::QueueArrivalRate(name) => broker.queue_arrival_rate(&name).map(Value::F64),
        Request::Ping => Ok(Value::Null),
        // Clock handshake: echo our unix clock so the client can estimate
        // its offset from this broker (the fleet's trace timeline anchor).
        Request::Hello { pid } => {
            obs::flight_event!("net", "hello from pid {pid} on conn {}", conn.id);
            Ok(Value::Map(vec![(
                "unix_ns".into(),
                Value::U64(obs::unix_now_ns()),
            )]))
        }
    }
}

fn with_sub(
    conn: &ConnShared,
    sub: u64,
    f: impl FnOnce(&SubShared) -> MqResult<()>,
) -> MqResult<Value> {
    let sub_shared = conn
        .subs
        .lock()
        .get(&sub)
        .cloned()
        .ok_or(MqError::Transport(format!("unknown subscription {sub}")))?;
    f(&sub_shared).map(|()| Value::Null)
}

/// Outcome of one [`try_dispatch`] attempt.
enum Dispatch {
    /// Deliveries were enqueued on the connection's out-buffer. `drained`
    /// means the queue ran out before the budget did, so siblings of a
    /// competing-consumer pool have nothing left to take.
    Delivered { n: u64, drained: bool },
    /// Nothing to push: the subscription is gone, out of credit, or its
    /// queue has nothing ready (or was deleted).
    Idle,
}

/// Pushes ready broker messages for one subscription, encoding `deliver`
/// frames into the owning connection's out-buffer. The caller owns the
/// eventual flush, so a loop thread dispatching to its own connection
/// coalesces the deliveries into the write that carries its reply burst.
///
/// The consumer mutex is held from the budget read to the credit decrement
/// (two dispatchers cannot overdraw the window) and across the enqueue
/// (per-subscription delivery order stays FIFO). A dispatcher that finds
/// it held waits for it: the holder may have taken its batch before this
/// caller's message arrived, and nothing else would offer that message.
/// The wait is one `try_recv_batch` plus the frame encoding.
fn try_dispatch(conn: &ConnShared, s: &SubShared, max_batch: usize) -> Dispatch {
    let consumer = s.consumer.lock();
    if s.stop.load(Ordering::Acquire) || conn.dead.load(Ordering::Acquire) {
        return Dispatch::Idle;
    }
    let budget = (*s.credit.lock()).min(max_batch as u64) as usize;
    if budget == 0 {
        return Dispatch::Idle;
    }
    let batch = consumer.try_recv_batch(budget);
    if batch.is_empty() {
        return Dispatch::Idle;
    }
    let drained = batch.len() < budget;
    let n = batch.len() as u64;
    let mut frames = Vec::with_capacity(batch.len());
    {
        let mut unacked = s.unacked.lock();
        for delivery in batch {
            let tag = delivery.tag.value();
            frames.push(
                ServerFrame::Deliver {
                    sub: s.sub,
                    tag,
                    redelivered: delivery.redelivered,
                    message: delivery.message.clone(),
                }
                .to_value(),
            );
            unacked.insert(tag, delivery);
        }
    }
    *s.credit.lock() -= n;
    for frame in &frames {
        conn.enqueue(frame);
    }
    drop(consumer);
    Dispatch::Delivered { n, drained }
}

/// After-reply hook: push ready deliveries for every live subscription of
/// `queue` (all queues when `None`, for exchange fanout) straight from the
/// loop thread that executed the publish.
fn dispatch_hook(
    conn: &Arc<ConnShared>,
    shared: &Arc<ServerShared>,
    queue: Option<String>,
) -> AfterReply {
    let current = conn.id;
    let shared = shared.clone();
    Box::new(move || {
        dispatch_ready(&shared, queue.as_deref(), Some(current));
    })
}

/// After-reply hook: push ready deliveries for one subscription on this
/// connection (its backlog after a subscribe, or what freed credit
/// unblocks after an ack or requeue). The frames ride the loop thread's
/// burst flush.
fn sub_dispatch_hook(conn: &Arc<ConnShared>, shared: &Arc<ServerShared>, sub: u64) -> AfterReply {
    let conn = conn.clone();
    let shared = shared.clone();
    Box::new(move || {
        let Some(s) = conn.subs.lock().get(&sub).cloned() else {
            return;
        };
        let current = conn.id;
        dispatch_group(&shared, &[(conn, s)], Some(current));
    })
}

/// Collects the live targets of one registry entry list. Returns the
/// upgraded pairs plus whether any dead entry was seen (triggering a
/// prune, so the common path stays a read-mostly scan).
fn collect_live(entries: &[DispatchSub]) -> (Vec<LiveSub>, bool) {
    let mut live = Vec::new();
    let mut saw_dead = false;
    for e in entries {
        match (e.conn.upgrade(), e.sub.upgrade()) {
            (Some(c), Some(s)) => {
                if c.dead.load(Ordering::Acquire) || s.stop.load(Ordering::Acquire) {
                    saw_dead = true;
                } else {
                    live.push((c, s));
                }
            }
            _ => saw_dead = true,
        }
    }
    (live, saw_dead)
}

fn prune_entries(entries: &mut Vec<DispatchSub>) {
    entries.retain(|e| match (e.conn.upgrade(), e.sub.upgrade()) {
        (Some(c), Some(s)) => !c.dead.load(Ordering::Acquire) && !s.stop.load(Ordering::Acquire),
        _ => false,
    });
}

/// Offers ready deliveries to the subscriptions of `queue` (every queue
/// when `None`). `current_id` is the connection whose loop thread is
/// calling — its frames are left in the out-buffer for the caller's burst
/// flush; every other connection is flushed here.
fn dispatch_ready(shared: &ServerShared, queue: Option<&str>, current_id: Option<u64>) {
    let groups: Vec<Vec<LiveSub>> = {
        let mut registry = shared.dispatch.lock();
        match queue {
            Some(q) => {
                let Some(entries) = registry.get_mut(q) else {
                    return;
                };
                let (live, saw_dead) = collect_live(entries);
                if saw_dead {
                    prune_entries(entries);
                    if entries.is_empty() {
                        registry.remove(q);
                    }
                }
                if live.is_empty() {
                    return;
                }
                vec![live]
            }
            None => {
                let mut groups = Vec::new();
                let mut emptied = Vec::new();
                for (q, entries) in registry.iter_mut() {
                    let (live, saw_dead) = collect_live(entries);
                    if saw_dead {
                        prune_entries(entries);
                        if entries.is_empty() {
                            emptied.push(q.clone());
                        }
                    }
                    if !live.is_empty() {
                        groups.push(live);
                    }
                }
                for q in emptied {
                    registry.remove(&q);
                }
                groups
            }
        }
    };
    for group in &groups {
        dispatch_group(shared, group, current_id);
    }
}

/// Dispatches one queue's competing-consumer group: rotate the starting
/// point and cap how much any one subscription takes per round, so a pool
/// of workers shares a queue instead of the first-registered consumer with
/// spare credit soaking up everything. Rounds repeat until the queue runs
/// dry or no subscription takes anything (all out of credit): a message
/// left behind by the per-round cap has no later event to deliver it.
fn dispatch_group(shared: &ServerShared, targets: &[LiveSub], current_id: Option<u64>) {
    if targets.is_empty() {
        return;
    }
    let per_sub = if targets.len() > 1 {
        (MAX_BATCH / targets.len()).max(1)
    } else {
        MAX_BATCH
    };
    let start = shared.dispatch_cursor.fetch_add(1, Ordering::Relaxed) as usize % targets.len();
    loop {
        let mut took = false;
        for i in 0..targets.len() {
            let (conn, sub) = &targets[(start + i) % targets.len()];
            if let Dispatch::Delivered { n, drained } = try_dispatch(conn, sub, per_sub) {
                shared.deliveries.add(n);
                if current_id != Some(conn.id) {
                    conn.flush_out();
                }
                // The queue gave out before the budget did: the siblings
                // have nothing left to take.
                if drained {
                    return;
                }
                took = true;
            }
        }
        if !took {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, stats_from_value, write_frame};
    use mqsim::Message;
    use std::collections::VecDeque;

    /// One delivery as a [`Peer`] read it.
    struct Got {
        sub: u64,
        tag: u64,
        redelivered: bool,
        payload: Vec<u8>,
    }

    /// A raw wire client. Its reads give up after 5 s, so a delivery no
    /// dispatch edge sends fails the test instead of hanging it, and the
    /// deliveries it reads past while waiting for a reply are kept.
    struct Peer {
        stream: TcpStream,
        corr: u64,
        early: VecDeque<Got>,
    }

    impl Peer {
        fn connect(server: &BrokerServer) -> Peer {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let early = VecDeque::new();
            Peer {
                stream,
                corr: 0,
                early,
            }
        }

        /// Reads one frame: a delivery is queued, a reply returned.
        fn pump(&mut self) -> Option<(u64, MqResult<Value>)> {
            let (frame, _) =
                read_frame(&mut self.stream).expect("nothing arrived within 5 s: a missed edge");
            match ServerFrame::from_value(&frame).unwrap() {
                ServerFrame::Reply { corr, result } => Some((corr, result)),
                ServerFrame::Deliver {
                    sub,
                    tag,
                    redelivered,
                    message,
                } => {
                    let payload = message.payload().to_vec();
                    self.early.push_back(Got {
                        sub,
                        tag,
                        redelivered,
                        payload,
                    });
                    None
                }
            }
        }

        fn try_call(&mut self, req: Request) -> MqResult<Value> {
            self.corr += 1;
            write_frame(&mut self.stream, &req.to_frame(self.corr)).unwrap();
            loop {
                match self.pump() {
                    Some((corr, result)) if corr == self.corr => return result,
                    _ => {}
                }
            }
        }

        fn call(&mut self, req: Request) -> Value {
            self.try_call(req).unwrap()
        }

        fn publish(&mut self, payload: u8) {
            let message = Message::from_bytes(vec![payload]);
            self.call(Request::PublishToQueue("q".into(), message));
        }

        fn subscribe(&mut self, sub: u64, credit: u64) {
            let queue = "q".into();
            self.call(Request::Subscribe { queue, sub, credit });
        }

        fn next_delivery(&mut self) -> Got {
            loop {
                if let Some(got) = self.early.pop_front() {
                    return got;
                }
                self.pump();
            }
        }
    }

    /// A server whose broker has an empty queue `q`.
    fn server_with_queue() -> BrokerServer {
        let broker = MessageBroker::new();
        broker.declare_queue("q", Default::default()).unwrap();
        BrokerServer::bind("127.0.0.1:0", broker).unwrap()
    }

    /// Publishes to `q` in-process: only the ready-waker tells the server.
    fn publish(server: &BrokerServer, payloads: std::ops::Range<u8>) {
        for i in payloads {
            let message = Message::from_bytes(vec![i]);
            server.broker().publish_to_queue("q", message).unwrap();
        }
    }

    #[test]
    fn declare_publish_subscribe_deliver_ack() {
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
        let mut c = Peer::connect(&server);
        c.call(Request::DeclareQueue("q".into(), Default::default()));
        c.publish(7);
        c.subscribe(1, 4);
        let got = c.next_delivery();
        assert_eq!((got.sub, got.payload), (1, vec![7]));
        c.call(Request::AckMany(got.sub, vec![got.tag]));
        let stats = stats_from_value(&c.call(Request::QueueStats("q".into()))).unwrap();
        assert_eq!((stats.acked, stats.unacked), (1, 0));
        server.shutdown();
    }

    #[test]
    fn errors_cross_the_wire() {
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
        let mut c = Peer::connect(&server);
        let err = c.try_call(Request::QueueStats("nope".into())).unwrap_err();
        assert_eq!(err, MqError::QueueNotFound("nope".into()));
        server.shutdown();
    }

    #[test]
    fn dropping_connection_requeues_unacked() {
        let server = server_with_queue();
        let mut c = Peer::connect(&server);
        c.publish(0);
        c.subscribe(1, 4);
        c.next_delivery();
        drop(c); // connection dies with the delivery unacked
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let stats = server.broker().queue_stats("q").unwrap();
            if stats.depth == 1 && stats.unacked == 0 {
                assert!(stats.redelivered >= 1);
                break;
            }
            assert!(
                Instant::now() < deadline,
                "message was not requeued: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }

    #[test]
    fn publish_batch_and_ack_many_over_the_wire() {
        let server = server_with_queue();
        let mut c = Peer::connect(&server);
        for i in 0..6u8 {
            c.publish(i);
        }
        assert_eq!(server.broker().queue_stats("q").unwrap().published, 6);
        c.subscribe(1, 16);
        // All six deliveries arrive, in order, then get acked in one frame.
        let tags: Vec<u64> = (0..6u8)
            .map(|i| {
                let got = c.next_delivery();
                assert_eq!(got.payload, [i]);
                got.tag
            })
            .collect();
        c.call(Request::AckMany(1, tags.clone()));
        let stats = server.broker().queue_stats("q").unwrap();
        assert_eq!((stats.acked, stats.unacked), (6, 0));
        // Redundant cumulative ack is tolerated.
        c.call(Request::AckMany(1, tags));
        server.shutdown();
    }

    #[test]
    fn credit_limits_in_flight_deliveries() {
        let server = server_with_queue();
        let mut c = Peer::connect(&server);
        for i in 0..10 {
            c.publish(i);
        }
        c.subscribe(1, 3);
        // With credit 3 and no acks, exactly 3 messages leave the queue.
        std::thread::sleep(Duration::from_millis(150));
        let stats = server.broker().queue_stats("q").unwrap();
        assert_eq!((stats.unacked, stats.depth), (3, 7), "stats: {stats:?}");
        server.shutdown();
    }

    #[test]
    fn a_dispatcher_waits_for_a_consumer_another_thread_holds() {
        let server = server_with_queue();
        let mut c = Peer::connect(&server);
        c.subscribe(1, 4);
        // The explicit `dispatch_ready` below is the only dispatcher.
        server.broker().set_ready_waker(None);
        let sub = server.shared.conns.lock()[0].subs.lock()[&1].clone();
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        // The holder took its (empty) batch before the message arrived, and
        // lets go only after the dispatcher below has started.
        let holder = std::thread::spawn(move || {
            let consumer = sub.consumer.lock();
            held_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            drop(consumer);
        });
        held_rx.recv().unwrap();
        publish(&server, 0..1);
        go_tx.send(()).unwrap();
        dispatch_ready(&server.shared, Some("q"), None);
        let stats = server.broker().queue_stats("q").unwrap();
        let queued = (stats.depth, stats.unacked);
        assert_eq!(queued, (0, 1), "the message stayed queued: {stats:?}");
        assert_eq!(c.next_delivery().payload, [0]);
        holder.join().unwrap();
        server.shutdown();
    }

    /// Each case leaves a message that only its own edge can deliver, the
    /// last one on its queue, so a missing edge fails at the 5 s read
    /// deadline. A publish over the wire and a `Requeue` are covered by
    /// `client::tests::timeout_race_loses_no_delivery_or_credit` and
    /// `dropped_delivery_requeues_on_server`.
    #[test]
    fn every_cause_of_deliverability_has_an_edge() {
        fn in_process_publish(server: &BrokerServer) {
            let mut c = Peer::connect(server);
            c.subscribe(1, 4);
            publish(server, 0..1);
            assert_eq!(c.next_delivery().payload, [0]);
        }
        fn ack_at_credit_one(server: &BrokerServer) {
            let mut c = Peer::connect(server);
            c.subscribe(1, 1);
            publish(server, 0..2);
            let first = c.next_delivery();
            assert_eq!(first.payload, [0]);
            // Out of credit: 1 stays queued until the ack frees some.
            c.call(Request::AckMany(first.sub, vec![first.tag]));
            assert_eq!(c.next_delivery().payload, [1]);
        }
        fn teardown_redelivers_to_a_sibling(server: &BrokerServer) {
            let mut a = Peer::connect(server);
            a.subscribe(1, 1);
            publish(server, 0..1);
            a.next_delivery();
            let mut b = Peer::connect(server);
            b.subscribe(1, 1);
            drop(a); // dies holding the delivery unacked
            let got = b.next_delivery();
            assert!(got.redelivered);
            assert_eq!(got.payload, [0]);
        }
        // More than one offer takes (`MAX_BATCH` a round).
        const N: u8 = 100;
        fn subscribe_backlog_past_one_offer(server: &BrokerServer) {
            publish(server, 0..N);
            let mut c = Peer::connect(server);
            c.subscribe(1, u64::from(N));
            for i in 0..N {
                assert_eq!(c.next_delivery().payload, [i]);
            }
        }
        fn competing_pair_past_one_round(server: &BrokerServer) {
            let mut c = Peer::connect(server);
            c.subscribe(1, MAX_BATCH as u64);
            c.subscribe(2, MAX_BATCH as u64);
            // All N ready before one wake, so the offer must go past its
            // per-round cap: the waker is detached while they land.
            server.broker().set_ready_waker(None);
            publish(server, 0..N);
            note_ready(&server.shared, "q");
            let mut got: Vec<u8> = (0..N).map(|_| c.next_delivery().payload[0]).collect();
            got.sort_unstable();
            assert_eq!(got, (0..N).collect::<Vec<_>>());
        }
        type Case = (&'static str, fn(&BrokerServer));
        let cases: [Case; 5] = [
            ("in-process publish", in_process_publish),
            ("ack at credit 1", ack_at_credit_one),
            ("teardown", teardown_redelivers_to_a_sibling),
            ("subscribe backlog", subscribe_backlog_past_one_offer),
            ("competing pair", competing_pair_past_one_round),
        ];
        for (name, case) in cases {
            eprintln!("case: {name}");
            let server = server_with_queue();
            case(&server);
            server.shutdown();
        }
    }

    #[test]
    fn disconnect_all_leaves_no_connection_registered() {
        let server = server_with_queue();
        let baseline = server.reactor_registrations();
        let mut peers: Vec<Peer> = (0..8).map(|_| Peer::connect(&server)).collect();
        for peer in &mut peers {
            peer.call(Request::Ping);
        }
        assert_eq!(server.reactor_registrations(), baseline + peers.len());
        // The peers stay open: only the server's own shutdown of each
        // socket can wake the loops that own them.
        server.disconnect_all();
        assert_eq!(server.live_connections(), 0);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.reactor_registrations() != baseline {
            let left = server.reactor_registrations();
            assert!(Instant::now() < deadline, "{left} registrations left");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(server.shared.conns.lock().is_empty());
        drop(peers);
        server.shutdown();
    }
}
