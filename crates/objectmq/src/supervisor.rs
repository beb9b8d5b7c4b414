//! The Master/Slave enforcement layer of the provisioning framework
//! (paper §3.3–3.4): a central [`Supervisor`] enforces the pool size
//! proposed by provisioners by spawning or shutting down server objects in
//! [`RemoteBroker`] slaves, monitors instance liveness every second, and
//! publishes heartbeats.
//!
//! Supervisor failover is two library steps that the host runs; nothing
//! here runs them on its own. A [`HeartbeatMonitor`] tells the host that
//! the heartbeats went stale, and [`run_election`] tells each candidate
//! broker whether it won; the winner's host then starts a new
//! [`Supervisor`].

use crate::broker::Broker;
use crate::error::{OmqError, OmqResult};
use crate::oid::Oid;
use crate::server::{RemoteObject, ServerHandle};
use mqsim::{Clock, ExchangeKind, Message, Messaging, QueueOptions, SystemClock};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::Value;

/// Factory producing fresh server object instances for an `oid`.
pub type ObjectFactory = Arc<dyn Fn() -> Arc<dyn RemoteObject> + Send + Sync>;

/// Well-known oid under which every remote broker registers.
pub const RBROKER_OID: &str = "omq.rbroker";
/// Fanout exchange carrying supervisor heartbeats.
pub const HEARTBEAT_EXCHANGE: &str = "omq.supervisor.hb";
/// Fanout exchange used for leader election among remote brokers.
pub const ELECTION_EXCHANGE: &str = "omq.election";
/// Timeout of each command the supervisor sends to the remote brokers.
const COMMAND_TIMEOUT: Duration = Duration::from_millis(800);

#[derive(Default)]
struct RemoteBrokerState {
    factories: RwLock<HashMap<String, ObjectFactory>>,
    instances: Mutex<HashMap<String, Vec<ServerHandle>>>,
}

impl RemoteBrokerState {
    fn reap(&self, oid: &str) {
        let mut instances = self.instances.lock();
        if let Some(handles) = instances.get_mut(oid) {
            handles.retain(|h| h.is_alive());
        }
    }

    fn count(&self, oid: &str) -> usize {
        self.reap(oid);
        self.instances.lock().get(oid).map(|v| v.len()).unwrap_or(0)
    }
}

/// An ObjectMQ server node that can launch or shut down remote object
/// instances on command — the slave side of the provisioning framework.
pub struct RemoteBroker {
    id: u64,
    broker: Broker,
    state: Arc<RemoteBrokerState>,
    /// The rbroker's own remote-object instance.
    server: Option<ServerHandle>,
}

impl std::fmt::Debug for RemoteBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBroker")
            .field("id", &self.id)
            .finish()
    }
}

struct RemoteBrokerObject {
    id: u64,
    broker: Broker,
    state: Arc<RemoteBrokerState>,
}

impl RemoteObject for RemoteBrokerObject {
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
        match method {
            "ping" => Ok(Value::U64(self.id)),
            "spawn" => {
                let oid = args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .ok_or("spawn needs an oid argument")?;
                let factory = self
                    .state
                    .factories
                    .read()
                    .get(oid)
                    .cloned()
                    .ok_or_else(|| format!("no factory registered for `{oid}`"))?;
                let handle = self
                    .broker
                    .bind_arc(oid, factory())
                    .map_err(|e| e.to_string())?;
                let name = handle.instance_name().to_string();
                self.state
                    .instances
                    .lock()
                    .entry(oid.to_string())
                    .or_default()
                    .push(handle);
                Ok(Value::Str(name))
            }
            "shutdown_one" => {
                let oid = args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .ok_or("shutdown_one needs an oid argument")?;
                self.state.reap(oid);
                let handle = self
                    .state
                    .instances
                    .lock()
                    .get_mut(oid)
                    .and_then(|v| v.pop());
                match handle {
                    Some(h) => {
                        h.shutdown();
                        Ok(Value::Bool(true))
                    }
                    None => Ok(Value::Bool(false)),
                }
            }
            "count" => {
                let oid = args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .ok_or("count needs an oid argument")?;
                Ok(Value::U64(self.state.count(oid) as u64))
            }
            "info" => {
                let oid = args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .ok_or("info needs an oid argument")?;
                self.state.reap(oid);
                let instances = self.state.instances.lock();
                let infos: Vec<Value> = instances
                    .get(oid)
                    .map(|handles| {
                        handles
                            .iter()
                            .map(|h| {
                                let s = h.stats().snapshot();
                                Value::Map(vec![
                                    ("processed".into(), Value::U64(s.processed)),
                                    (
                                        "mean_service".into(),
                                        Value::F64(s.mean_service_time.as_secs_f64()),
                                    ),
                                    ("var_service".into(), Value::F64(s.service_time_variance)),
                                    ("busy".into(), Value::Bool(s.busy)),
                                ])
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(Value::List(infos))
            }
            other => Err(format!("remote broker has no method `{other}`")),
        }
    }
}

impl RemoteBroker {
    /// Starts a remote broker with the given unique id on an existing
    /// ObjectMQ broker. It registers itself under [`RBROKER_OID`], joining
    /// the pool of slaves the Supervisor commands.
    ///
    /// # Errors
    ///
    /// Propagates messaging failures.
    pub fn start(broker: Broker, id: u64) -> OmqResult<Self> {
        let state = Arc::new(RemoteBrokerState::default());
        let object = RemoteBrokerObject {
            id,
            broker: broker.clone(),
            state: state.clone(),
        };
        let server = broker.bind_arc(RBROKER_OID, Arc::new(object))?;
        Ok(RemoteBroker {
            id,
            broker,
            state,
            server: Some(server),
        })
    }

    /// This broker's unique id (used for leader election).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Registers a factory so the Supervisor can spawn instances of `oid`
    /// here.
    pub fn register_factory(&self, oid: impl Into<Oid>, factory: ObjectFactory) {
        self.state
            .factories
            .write()
            .insert(oid.into().as_str().to_string(), factory);
    }

    /// Instances of `oid` currently alive on this node.
    pub fn local_count(&self, oid: impl Into<Oid>) -> usize {
        self.state.count(oid.into().as_str())
    }

    /// Kills one local instance of `oid` *abruptly* (crash injection for
    /// the fault-tolerance experiment, paper §5.3.4). Returns whether an
    /// instance existed.
    pub fn crash_one(&self, oid: impl Into<Oid>) -> bool {
        let handle = self
            .state
            .instances
            .lock()
            .get_mut(oid.into().as_str())
            .and_then(|v| v.pop());
        match handle {
            Some(h) => {
                h.kill();
                true
            }
            None => false,
        }
    }

    /// Stops the remote broker and every instance it hosts.
    pub fn stop(mut self) {
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        let mut instances = self.state.instances.lock();
        for (_, handles) in instances.drain() {
            for h in handles {
                h.shutdown();
            }
        }
    }

    /// The underlying ObjectMQ broker.
    pub fn broker(&self) -> &Broker {
        &self.broker
    }
}

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// The service oid whose pool is enforced.
    pub oid: Oid,
    /// Liveness/enforcement period (paper: every second).
    pub check_interval: Duration,
    /// Time source pacing the enforcement rounds. Tests substitute a
    /// [`mqsim::VirtualClock`] so rounds are stepped, not slept.
    pub clock: Arc<dyn Clock>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            oid: Oid::from_static(""),
            check_interval: Duration::from_secs(1),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

/// One enforcement round's view of the live pool, published by the
/// supervisor loop so harnesses and tests can await convergence instead of
/// sleep-polling the remote brokers themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolObservation {
    /// Live instances counted across all remote brokers, *before* this
    /// round's enforcement actions.
    pub live: usize,
    /// Monotonic round counter; increments once per enforcement round.
    pub generation: u64,
}

/// Shared live-pool state between the supervisor loop and its observers.
struct ObservedPool {
    state: Mutex<PoolObservation>,
    changed: Condvar,
    /// Generation after which a [`Supervisor::set_target`] change is
    /// guaranteed to have been seen by the loop (a round in flight when the
    /// target changed may still act on the old value).
    settle_after: AtomicU64,
}

/// The master entity enforcing provisioning policies (paper Fig. 3).
///
/// Every `check_interval` it queries the remote brokers with a multi-call,
/// compares the live instance count against the current target, and spawns
/// or removes instances to converge. It also publishes heartbeats, which a
/// [`HeartbeatMonitor`] watches (see the module docs for failover).
pub struct Supervisor {
    stop: Arc<AtomicBool>,
    target: Arc<AtomicUsize>,
    observed: Arc<ObservedPool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("target", &self.target.load(Ordering::Relaxed))
            .finish()
    }
}

impl Supervisor {
    /// Starts the supervisor loop.
    ///
    /// # Errors
    ///
    /// Fails if the heartbeat exchange cannot be declared or no remote
    /// broker is registered yet.
    pub fn start(broker: Broker, config: SupervisorConfig) -> OmqResult<Self> {
        if !broker.object_exists(RBROKER_OID) {
            return Err(OmqError::UnknownObject(RBROKER_OID.to_string()));
        }
        broker
            .messaging()
            .declare_exchange(HEARTBEAT_EXCHANGE, ExchangeKind::Fanout)?;
        let stop = Arc::new(AtomicBool::new(false));
        let target = Arc::new(AtomicUsize::new(1));
        let observed = Arc::new(ObservedPool {
            state: Mutex::new(PoolObservation {
                live: 0,
                generation: 0,
            }),
            changed: Condvar::new(),
            settle_after: AtomicU64::new(2),
        });
        let thread_stop = stop.clone();
        let thread_target = target.clone();
        let thread_observed = observed.clone();
        let thread = std::thread::spawn(move || {
            supervise_loop(broker, config, thread_stop, thread_target, thread_observed);
        });
        Ok(Supervisor {
            stop,
            target,
            observed,
            thread: Some(thread),
        })
    }

    /// Sets the desired pool size (called by provisioning policies).
    pub fn set_target(&self, n: usize) {
        let n = n.max(1);
        let previous = self.target.swap(n, Ordering::Release);
        if previous != n {
            obs::flight_event!("supervisor", "target {previous} -> {n}");
        }
        // A round already in flight may have read the old target before the
        // swap; only rounds started after this point are guaranteed to act
        // on the new value, hence current generation + 2.
        let gen = self.observed.state.lock().generation;
        self.observed.settle_after.store(gen + 2, Ordering::Release);
    }

    /// The current desired pool size.
    pub fn target(&self) -> usize {
        self.target.load(Ordering::Acquire)
    }

    /// The live pool as of the most recent enforcement round.
    pub fn observed(&self) -> PoolObservation {
        *self.observed.state.lock()
    }

    /// Whether the live pool has converged on the current target: at least
    /// one full enforcement round has completed since the last
    /// [`Supervisor::set_target`], and that round counted exactly `target`
    /// live instances.
    pub fn targets_met(&self) -> bool {
        self.settled(&self.observed.state.lock())
    }

    /// The [`Supervisor::targets_met`] predicate on one round's census.
    fn settled(&self, round: &PoolObservation) -> bool {
        round.generation >= self.observed.settle_after.load(Ordering::Acquire)
            && round.live == self.target()
    }

    /// Blocks until [`Supervisor::targets_met`] or the timeout elapses;
    /// returns whether convergence was reached. Replaces sleep-polling in
    /// harnesses and tests: the supervisor loop signals after every round.
    pub fn wait_targets_met(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.observed.state.lock();
        while !self.settled(&state) {
            if self
                .observed
                .changed
                .wait_until(&mut state, deadline)
                .timed_out()
            {
                return self.settled(&state);
            }
        }
        true
    }

    /// Graceful stop.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }

    /// Crash injection: the loop halts immediately and heartbeats cease, as
    /// if the supervisor process died. Used to exercise leader election.
    pub fn kill(mut self) {
        obs::flight_event!("supervisor", "killed (crash injection)");
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

fn supervise_loop(
    broker: Broker,
    config: SupervisorConfig,
    stop: Arc<AtomicBool>,
    target: Arc<AtomicUsize>,
    observed: Arc<ObservedPool>,
) {
    let proxy = match broker.lookup(RBROKER_OID) {
        Ok(p) => p,
        Err(_) => return,
    };
    let hb_count = obs::counter("omq.supervisor.heartbeats_total");
    let spawn_count = obs::counter("omq.supervisor.spawns_total");
    let shutdown_count = obs::counter("omq.supervisor.shutdowns_total");
    while !stop.load(Ordering::Acquire) {
        // Heartbeat first: even an idle supervisor proves liveness.
        let _ = broker
            .messaging()
            .publish(HEARTBEAT_EXCHANGE, "", Message::from_static(b"hb"));
        hb_count.inc();

        let desired = target.load(Ordering::Acquire).max(1);
        // Ask every remote broker how many instances it hosts (multi-call,
        // paper: "It periodically ask them about the state of their object").
        let counts = proxy.call_multi_sync(
            "count",
            vec![Value::from(config.oid.as_str())],
            COMMAND_TIMEOUT,
        );
        let live: usize = match counts {
            Ok(results) => results
                .into_iter()
                .filter_map(|r| r.ok())
                .filter_map(|v| v.as_u64().ok())
                .sum::<u64>() as usize,
            Err(_) => 0,
        };

        // Publish this round's pre-enforcement census so observers can
        // await convergence (live == target with the target already seen).
        {
            let mut state = observed.state.lock();
            state.live = live;
            state.generation += 1;
            observed.changed.notify_all();
        }

        if live < desired {
            for _ in 0..(desired - live) {
                // Unicast spawn: any idle remote broker takes it.
                let spawned = proxy.call_sync(
                    "spawn",
                    vec![Value::from(config.oid.as_str())],
                    COMMAND_TIMEOUT,
                    1,
                );
                if spawned.is_ok() {
                    spawn_count.inc();
                    obs::flight_event!(
                        "supervisor",
                        "spawned {} instance ({live}/{desired} live)",
                        config.oid
                    );
                }
            }
        } else if live > desired {
            let mut to_remove = live - desired;
            // A unicast shutdown may land on a broker with no instance;
            // bounded retries keep this converging.
            let mut attempts = 0;
            while to_remove > 0 && attempts < 4 * (live + 1) {
                attempts += 1;
                if let Ok(Value::Bool(true)) = proxy.call_sync(
                    "shutdown_one",
                    vec![Value::from(config.oid.as_str())],
                    COMMAND_TIMEOUT,
                    0,
                ) {
                    to_remove -= 1;
                    shutdown_count.inc();
                    obs::flight_event!(
                        "supervisor",
                        "shut down one {} instance ({live}/{desired} live)",
                        config.oid
                    );
                }
            }
        }

        // Interruptible sleep on the configured clock: a tick at a time so
        // the stop flag is observed promptly, and a closed virtual clock
        // ends the loop instead of stranding it.
        let deadline = config.clock.now() + config.check_interval;
        while config.clock.now() < deadline {
            if stop.load(Ordering::Acquire) {
                return;
            }
            if !config.clock.wait_tick(deadline) {
                return;
            }
        }
    }
}

/// Watches supervisor heartbeats on behalf of a remote broker.
///
/// The host decides what staleness means: once [`HeartbeatMonitor::elapsed`]
/// exceeds its threshold, the host calls [`run_election`] for its broker
/// and, if that broker wins, starts a replacement supervisor (paper §3.4).
pub struct HeartbeatMonitor {
    /// When the last heartbeat was heard.
    last: Arc<Mutex<Instant>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for HeartbeatMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeartbeatMonitor")
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

impl HeartbeatMonitor {
    /// Starts listening to the supervisor heartbeat exchange.
    ///
    /// # Errors
    ///
    /// Propagates messaging failures.
    pub fn start(mq: &dyn Messaging, listener_id: u64) -> OmqResult<Self> {
        mq.declare_exchange(HEARTBEAT_EXCHANGE, ExchangeKind::Fanout)?;
        let queue = format!("omq.hbmon.{listener_id}");
        mq.declare_queue(&queue, QueueOptions::default())?;
        mq.bind_queue(HEARTBEAT_EXCHANGE, "", &queue)?;
        let consumer = mq.subscribe(&queue)?;
        let last = Arc::new(Mutex::new(Instant::now()));
        let stop = Arc::new(AtomicBool::new(false));
        let t_last = last.clone();
        let t_stop = stop.clone();
        let thread = std::thread::spawn(move || {
            while !t_stop.load(Ordering::Acquire) {
                match consumer.recv_timeout(Duration::from_millis(50)) {
                    Ok(d) => {
                        d.ack();
                        *t_last.lock() = Instant::now();
                    }
                    Err(mqsim::MqError::RecvTimeout) => continue,
                    Err(_) => return,
                }
            }
        });
        Ok(HeartbeatMonitor {
            last,
            stop,
            thread: Some(thread),
        })
    }

    /// Time since the last heartbeat was heard.
    pub fn elapsed(&self) -> Duration {
        self.last.lock().elapsed()
    }

    /// Stops the monitor.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HeartbeatMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

/// Runs one round of leader election among remote brokers: every candidate
/// announces its id on a fanout exchange, candidacies are collected for the
/// settle window, and the *smallest* id wins (the paper elects "using the
/// unique identifier of the Brokers"). Returns whether the caller won.
///
/// # Errors
///
/// Propagates messaging failures.
pub fn run_election(mq: &dyn Messaging, my_id: u64, settle: Duration) -> OmqResult<bool> {
    obs::counter("omq.elections_total").inc();
    mq.declare_exchange(ELECTION_EXCHANGE, ExchangeKind::Fanout)?;
    let queue = format!("omq.election.voter.{my_id}");
    mq.declare_queue(&queue, QueueOptions::default())?;
    mq.bind_queue(ELECTION_EXCHANGE, "", &queue)?;
    let consumer = mq.subscribe(&queue)?;

    // Candidacies are re-announced throughout the window so a voter that
    // bound its queue late still hears every candidate.
    let announce_every = (settle / 6).max(Duration::from_millis(10));
    let deadline = Instant::now() + settle;
    let mut next_announce = Instant::now();
    let mut lowest = my_id;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if now >= next_announce {
            mq.publish(
                ELECTION_EXCHANGE,
                "",
                Message::from_bytes(my_id.to_be_bytes().to_vec()),
            )?;
            next_announce = now + announce_every;
        }
        let wait = (deadline - now).min(
            next_announce
                .saturating_duration_since(now)
                .max(Duration::from_millis(1)),
        );
        match consumer.recv_timeout(wait) {
            Ok(d) => {
                if d.message.payload().len() == 8 {
                    let mut buf = [0u8; 8];
                    buf.copy_from_slice(d.message.payload());
                    lowest = lowest.min(u64::from_be_bytes(buf));
                }
                d.ack();
            }
            Err(mqsim::MqError::RecvTimeout) => continue,
            Err(_) => break,
        }
    }
    let _ = mq.delete_queue(&queue);
    let won = lowest == my_id;
    if won {
        // A won election is a supervisor failover about to happen.
        obs::counter("omq.election_wins_total").inc();
        obs::log(
            obs::Level::Info,
            "omq.election",
            &format!("broker {my_id} won the supervisor election"),
        );
    }
    Ok(won)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_factory(counter: Arc<AtomicU64>) -> ObjectFactory {
        Arc::new(move || {
            let c = counter.clone();
            Arc::new(move |_m: &str, _a: &[Value]| -> Result<Value, String> {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            })
        })
    }

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        cond()
    }

    fn fast_config(oid: &str) -> SupervisorConfig {
        SupervisorConfig {
            oid: Oid::from(oid),
            check_interval: Duration::from_millis(60),
            ..Default::default()
        }
    }

    #[test]
    fn supervisor_spawns_to_target() {
        let broker = Broker::in_process();
        let rb = RemoteBroker::start(broker.clone(), 1).unwrap();
        rb.register_factory("svc", counting_factory(Arc::new(AtomicU64::new(0))));
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        supervisor.set_target(3);
        assert!(
            wait_until(Duration::from_secs(5), || rb.local_count("svc") == 3),
            "supervisor must spawn 3 instances, got {}",
            rb.local_count("svc")
        );
        supervisor.stop();
        rb.stop();
    }

    #[test]
    fn supervisor_scales_down() {
        let broker = Broker::in_process();
        let rb = RemoteBroker::start(broker.clone(), 1).unwrap();
        rb.register_factory("svc", counting_factory(Arc::new(AtomicU64::new(0))));
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        supervisor.set_target(4);
        assert!(wait_until(Duration::from_secs(5), || rb.local_count("svc") == 4));
        supervisor.set_target(1);
        assert!(
            wait_until(Duration::from_secs(5), || rb.local_count("svc") == 1),
            "supervisor must shrink to 1, got {}",
            rb.local_count("svc")
        );
        supervisor.stop();
        rb.stop();
    }

    #[test]
    fn wait_targets_met_observes_convergence() {
        let broker = Broker::in_process();
        let rb = RemoteBroker::start(broker.clone(), 1).unwrap();
        rb.register_factory("svc", counting_factory(Arc::new(AtomicU64::new(0))));
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();

        supervisor.set_target(3);
        assert!(
            supervisor.wait_targets_met(Duration::from_secs(5)),
            "pool must converge on 3 (observed {:?})",
            supervisor.observed()
        );
        // Convergence means the enforcement loop itself counted 3 live —
        // not merely that the local broker spawned them.
        let obs = supervisor.observed();
        assert_eq!(obs.live, 3);
        assert_eq!(rb.local_count("svc"), 3);
        assert!(supervisor.targets_met());

        // Shrinking re-arms the settle generation: convergence must be
        // re-proven, then observed again.
        supervisor.set_target(1);
        assert!(
            supervisor.wait_targets_met(Duration::from_secs(5)),
            "pool must converge back down to 1 (observed {:?})",
            supervisor.observed()
        );
        assert_eq!(supervisor.observed().live, 1);
        assert!(
            supervisor.observed().generation > obs.generation,
            "generation must advance with enforcement rounds"
        );
        supervisor.stop();
        rb.stop();
    }

    #[test]
    fn supervisor_respawns_crashed_instance() {
        let broker = Broker::in_process();
        let rb = RemoteBroker::start(broker.clone(), 1).unwrap();
        rb.register_factory("svc", counting_factory(Arc::new(AtomicU64::new(0))));
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        supervisor.set_target(2);
        assert!(wait_until(Duration::from_secs(5), || rb.local_count("svc") == 2));
        assert!(rb.crash_one("svc"));
        assert!(
            wait_until(Duration::from_secs(5), || rb.local_count("svc") == 2),
            "crashed instance must be respawned (paper §5.3.4)"
        );
        supervisor.stop();
        rb.stop();
    }

    #[test]
    fn heartbeats_detected_and_go_stale_after_kill() {
        let broker = Broker::in_process();
        let rb = RemoteBroker::start(broker.clone(), 7).unwrap();
        rb.register_factory("svc", counting_factory(Arc::new(AtomicU64::new(0))));
        let monitor = HeartbeatMonitor::start(broker.messaging().as_ref(), 7).unwrap();
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        assert!(
            wait_until(Duration::from_secs(3), || monitor.elapsed()
                < Duration::from_millis(150)),
            "heartbeats must arrive while the supervisor lives"
        );
        supervisor.kill();
        std::thread::sleep(Duration::from_millis(400));
        assert!(
            monitor.elapsed() >= Duration::from_millis(300),
            "heartbeats must stop after the supervisor dies"
        );
        monitor.stop();
        rb.stop();
    }

    #[test]
    fn election_picks_lowest_id() {
        let mq = mqsim::MessageBroker::new();
        let settle = Duration::from_millis(300);
        let mq2 = mq.clone();
        let mq3 = mq.clone();
        let h2 = std::thread::spawn(move || run_election(&mq2, 20, settle).unwrap());
        let h3 = std::thread::spawn(move || run_election(&mq3, 30, settle).unwrap());
        let won_10 = run_election(&mq, 10, settle).unwrap();
        assert!(won_10, "lowest id must win");
        assert!(!h2.join().unwrap());
        assert!(!h3.join().unwrap());
    }

    #[test]
    fn failover_elects_new_supervisor_which_keeps_enforcing() {
        let broker = Broker::in_process();
        let rb1 = RemoteBroker::start(broker.clone(), 1).unwrap();
        let rb2 = RemoteBroker::start(broker.clone(), 2).unwrap();
        let counter = Arc::new(AtomicU64::new(0));
        rb1.register_factory("svc", counting_factory(counter.clone()));
        rb2.register_factory("svc", counting_factory(counter));
        let supervisor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        supervisor.set_target(2);
        let total = || rb1.local_count("svc") + rb2.local_count("svc");
        assert!(wait_until(Duration::from_secs(5), || total() == 2));

        // Supervisor dies. The brokers race an election; the winner starts
        // a replacement which must keep enforcing the target.
        supervisor.kill();
        let mq1 = broker.messaging().clone();
        let mq2 = broker.messaging().clone();
        let settle = Duration::from_millis(300);
        let e2 = std::thread::spawn(move || run_election(mq2.as_ref(), 2, settle).unwrap());
        let won1 = run_election(mq1.as_ref(), 1, settle).unwrap();
        let won2 = e2.join().unwrap();
        assert!(won1 && !won2, "exactly broker 1 must win");

        let successor = Supervisor::start(broker.clone(), fast_config("svc")).unwrap();
        successor.set_target(4);
        assert!(
            wait_until(Duration::from_secs(5), || total() == 4),
            "successor supervisor must enforce the new target, got {}",
            total()
        );
        successor.stop();
        rb1.stop();
        rb2.stop();
    }
}
