//! Live UB1 trace replay over real TCP — the "million-user day" harness.
//!
//! Where [`crate::sim`] replays day 8 of the Ubuntu One trace against a
//! *modeled* G/G/1 pool under virtual time, this module replays the same
//! arrival schedule against **real** [`stacksync::SyncService`] instances:
//!
//! * an in-process [`mqsim::MessageBroker`] exposed on a TCP listener by
//!   [`net::BrokerServer`];
//! * thousands of lightweight clients, each one a [`net::NetBroker`]
//!   connection multiplexed on the shared poll reactor (no OS thread per
//!   client) issuing `commit_request` calls through a real
//!   [`objectmq::Proxy`];
//! * a [`objectmq::Supervisor`] enforcing pool size on a
//!   [`objectmq::RemoteBroker`] slave, driven by the *same*
//!   [`objectmq::provision::AutoScaler`] the simulator runs, built by
//!   [`crate::experiment::autoscaler`] — fed live queue-side observations
//!   by [`objectmq::ElasticController`];
//! * the [`workload::ArrivalSchedule`] window of
//!   [`crate::experiment::day_window`] pacing Poisson arrivals,
//!   time-compressed so a 24-hour trace day replays in tens of wall
//!   seconds (the predictive/reactive cadences compress by the same
//!   factor via [`objectmq::provision::AutoScaler::with_compression`]).
//!
//! After the day drains, the harness replays the client-visible history
//! through the [`faultsim::History`] checker against the metadata store's
//! final word — no lost commit, no double commit, gap-free version chains
//! — even when a crash loop is killing instances throughout the run.

use crate::experiment::{autoscaler, day_window, DAY, PERCENTILE, SLOT_MINUTES};
use crate::stats::percentile;
use faultsim::{Event, History, SubmitFate};
use metadata::{ItemMetadata, MetadataStore, ShardedStore, WorkspaceId};
use objectmq::provision::{GgOneModel, ScalingPolicy, REACTIVE_PERIOD};
use objectmq::{
    Broker, BrokerConfig, ElasticController, Proxy, RemoteBroker, Supervisor, SupervisorConfig,
};
use parking_lot::Mutex;
use stacksync::{protocol, provision_user, SYNC_SERVICE_OID};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::Value;
use workload::{Ub1Config, Ub1Trace};

/// Supervisor enforcement period (wall time; well under the compressed
/// reactive period, so the pool converges within a slot).
const CHECK_INTERVAL: Duration = Duration::from_millis(40);

/// Configuration of one live replay.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Concurrent TCP clients in the fleet (each is one `NetBroker`
    /// connection on the shared poll reactor).
    pub clients: usize,
    /// Dedicated latency-probe clients issuing synchronous commits at a
    /// fixed cadence; their response times yield the per-slot p50/p99.
    pub probe_clients: usize,
    /// Pause between consecutive probe commits (per probe client).
    pub probe_interval: Duration,
    /// UB1 synthesizer parameters. Scale `peak_per_min` down so the
    /// *compressed* wall-clock rate stays within the harness budget
    /// (wall peak req/s = `peak_per_min` × `compression` / 60).
    pub ub1: Ub1Config,
    /// First minute of the replay window within the day.
    pub start_minute: usize,
    /// Window length in trace minutes.
    pub duration_minutes: usize,
    /// Trace seconds per wall second (1440 replays a day in one minute).
    pub compression: f64,
    /// Injected per-commit service time of each SyncService instance.
    pub service_delay: Duration,
    /// G/G/1 capacity model shared by both provisioning policies.
    pub model: GgOneModel,
    /// Driver threads pacing the arrival schedule (each owns an equal
    /// share of the client fleet).
    pub drivers: usize,
    /// `true`: every commit is a synchronous call and each client builds
    /// one item's gap-free version chain (the integration-test mode).
    /// `false`: open-loop async commits of unique items (the bench mode).
    pub sync_commits: bool,
    /// If set, one pool instance is crashed this often (wall time) —
    /// the live counterpart of Fig. 8(f).
    pub crash_period: Option<Duration>,
    /// Seed for the Poisson arrival sampling.
    pub seed: u64,
    /// Hard cap on the post-day drain wait.
    pub drain_timeout: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            clients: 400,
            probe_clients: 4,
            probe_interval: Duration::from_millis(25),
            ub1: Ub1Config {
                peak_per_min: 10.0,
                ..Ub1Config::default()
            },
            start_minute: 0,
            duration_minutes: workload::ub1::MINUTES_PER_DAY,
            compression: 1440.0,
            service_delay: Duration::from_millis(25),
            // Paper-shaped model matched to the injected 25 ms service
            // time with a 250 ms SLA: capacity ≈ 8.7 req/s per instance.
            model: GgOneModel {
                target_response: 0.250,
                mean_service: 0.025,
                var_interarrival: 0.04,
                var_service: 0.0004,
            },
            drivers: 8,
            sync_commits: false,
            crash_period: None,
            seed: 0xB8,
            drain_timeout: Duration::from_secs(60),
        }
    }
}

/// One reporting slot of the replay.
#[derive(Debug, Clone)]
pub struct SlotReport {
    /// Slot index within the window.
    pub slot: usize,
    /// Absolute trace minute where the slot starts.
    pub trace_minute: usize,
    /// Commits offered (submitted by the fleet) during the slot.
    pub offered: u64,
    /// Commits the service pool processed during the slot.
    pub committed: u64,
    /// Pool target at the end of the slot.
    pub target: usize,
    /// Live instances counted at the end of the slot.
    pub live: usize,
    /// Probe commits that completed inside the slot.
    pub probes: usize,
    /// Median probe commit latency, milliseconds (0 when no probes).
    pub p50_ms: f64,
    /// 99th-percentile probe commit latency, milliseconds.
    pub p99_ms: f64,
}

/// Outcome of one live replay.
#[derive(Debug, Clone)]
pub struct LiveReport {
    /// Per-slot provisioning/latency series.
    pub slots: Vec<SlotReport>,
    /// Clients in the fleet.
    pub clients: usize,
    /// Total commits offered over the day.
    pub offered: u64,
    /// Of those, accepted by the transport (enqueued).
    pub accepted: u64,
    /// Commit requests the service pool processed (includes probe
    /// commits and requeued redeliveries).
    pub committed: u64,
    /// Largest per-slot live pool.
    pub peak_live: usize,
    /// Smallest per-slot live pool.
    pub trough_live: usize,
    /// Scaling decisions the controller enforced.
    pub decisions: usize,
    /// Instances crashed by the injection loop.
    pub crashes: u64,
    /// Whether the queue fully drained before the timeout.
    pub drained: bool,
    /// Events fed to the history checker.
    pub history_events: usize,
    /// Violations the checker found (empty = pass).
    pub history_violations: Vec<String>,
    /// Wall-clock length of the replay (arrival window only).
    pub wall_secs: f64,
}

impl LiveReport {
    /// Largest per-slot p99 probe latency, milliseconds.
    pub fn max_p99_ms(&self) -> f64 {
        self.slots.iter().map(|s| s.p99_ms).fold(0.0, f64::max)
    }

    /// Median of the per-slot p50 latencies, milliseconds (over slots
    /// that saw probes).
    pub fn median_p50_ms(&self) -> f64 {
        let samples: Vec<f64> = self
            .slots
            .iter()
            .filter(|s| s.probes > 0)
            .map(|s| s.p50_ms)
            .collect();
        percentile(&samples, 0.50)
    }
}

/// One fleet member: a dedicated TCP connection plus the sync-service
/// proxy speaking over it. The proxy keeps the `NetBroker` alive.
struct LiveClient {
    proxy: Proxy,
    ws: String,
    device: String,
    /// Stable item-id prefix (1-based global client index).
    id: u64,
    /// Committed versions so far (sync mode: the item's version chain).
    seq: u64,
}

/// A probe latency sample: (wall offset of send, response time).
type ProbeSample = (Duration, Duration);

fn commit_args(client: &LiveClient, item: &ItemMetadata) -> Vec<Value> {
    vec![
        Value::from(client.ws.as_str()),
        Value::from(client.device.as_str()),
        Value::List(vec![protocol::item_to_value(item)]),
    ]
}

/// Connects `count` fleet clients, provisioning one user + workspace per
/// client on the metadata store.
fn connect_fleet(
    addr: std::net::SocketAddr,
    meta: &Arc<dyn MetadataStore>,
    first_id: u64,
    count: usize,
    label: &str,
) -> Result<Vec<LiveClient>, String> {
    let mut clients = Vec::with_capacity(count);
    for i in 0..count {
        let id = first_id + i as u64;
        let user = format!("{label}{id}");
        let ws = provision_user(meta.as_ref(), &user, "ws")
            .map_err(|e| format!("provisioning {user}: {e}"))?;
        let net = net::NetBroker::connect(addr).map_err(|e| format!("dialing client {id}: {e}"))?;
        let broker = Broker::over(Arc::new(net), BrokerConfig::default());
        let proxy = broker
            .lookup(SYNC_SERVICE_OID)
            .map_err(|e| format!("lookup for client {id}: {e}"))?;
        clients.push(LiveClient {
            proxy,
            ws: ws.0,
            device: format!("dev-{id}"),
            id,
            seq: 0,
        });
    }
    Ok(clients)
}

/// Issues one open-loop async commit of a fresh version-1 item.
fn submit_async(client: &mut LiveClient, step: u64, events: &mut Vec<Event>) -> bool {
    client.seq += 1;
    let item_id = (client.id << 32) | client.seq;
    let ws = WorkspaceId(client.ws.clone());
    let item = ItemMetadata::new_file(
        item_id,
        &ws,
        &format!("f{}", client.seq),
        vec![],
        0,
        &client.device,
    );
    let ok = client
        .proxy
        .call_async("commit_request", commit_args(client, &item))
        .is_ok();
    events.push(Event::Submitted {
        step,
        device: client.device.clone(),
        item: item_id,
        version: 1,
        fate: if ok {
            SubmitFate::Enqueued
        } else {
            SubmitFate::Dropped
        },
    });
    ok
}

/// Issues one synchronous commit extending the client's single version
/// chain. On a transport timeout the version is *not* advanced: the next
/// arrival retries the same version, which self-heals to a conflict if
/// the lost response had in fact committed.
fn submit_sync(client: &mut LiveClient, step: u64, timeout: Duration, events: &mut Vec<Event>) {
    let version = client.seq + 1;
    let ws = WorkspaceId(client.ws.clone());
    let mut item = ItemMetadata::new_file(client.id, &ws, "doc", vec![], 0, &client.device);
    item.version = version;
    let args = commit_args(client, &item);
    match client.proxy.call_sync("commit_request", args, timeout, 1) {
        Ok(_) => {
            events.push(Event::Submitted {
                step,
                device: client.device.clone(),
                item: client.id,
                version,
                fate: SubmitFate::Enqueued,
            });
            client.seq += 1;
        }
        Err(_) => events.push(Event::Submitted {
            step,
            device: client.device.clone(),
            item: client.id,
            version,
            fate: SubmitFate::Dropped,
        }),
    }
}

/// One driver thread: paces its share of the arrival schedule, issuing
/// each commit through the owning client's proxy.
#[allow(clippy::too_many_arguments)]
fn drive(
    anchor: Instant,
    arrivals: Vec<(f64, usize, u64)>,
    mut clients: Vec<LiveClient>,
    sync_commits: bool,
    sync_timeout: Duration,
    offered: Arc<AtomicU64>,
    accepted: Arc<AtomicU64>,
) -> Vec<Event> {
    let mut events = Vec::with_capacity(arrivals.len());
    for (at, local, step) in arrivals {
        let due = anchor + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        offered.fetch_add(1, Ordering::Relaxed);
        let client = &mut clients[local];
        if sync_commits {
            submit_sync(client, step, sync_timeout, &mut events);
            if matches!(
                events.last(),
                Some(Event::Submitted {
                    fate: SubmitFate::Enqueued,
                    ..
                })
            ) {
                accepted.fetch_add(1, Ordering::Relaxed);
            }
        } else if submit_async(client, step, &mut events) {
            accepted.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Keep the connections alive until the driver exits so no response
    // queue disappears under an in-flight reply.
    drop(clients);
    events
}

/// One probe thread: synchronous commits at a fixed cadence, recording
/// (send offset, latency) pairs for the per-slot percentiles.
fn probe(
    anchor: Instant,
    mut client: LiveClient,
    interval: Duration,
    timeout: Duration,
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<ProbeSample>>>,
    events: Arc<Mutex<Vec<Event>>>,
) {
    let mut step = 0u64;
    while !stop.load(Ordering::Acquire) {
        step += 1;
        client.seq += 1;
        let item_id = (client.id << 32) | client.seq;
        let ws = WorkspaceId(client.ws.clone());
        let item = ItemMetadata::new_file(
            item_id,
            &ws,
            &format!("p{}", client.seq),
            vec![],
            0,
            &client.device,
        );
        let sent_at = anchor.elapsed();
        let started = Instant::now();
        let result =
            client
                .proxy
                .call_sync("commit_request", commit_args(&client, &item), timeout, 1);
        let fate = if result.is_ok() {
            samples.lock().push((sent_at, started.elapsed()));
            SubmitFate::Enqueued
        } else {
            SubmitFate::Dropped
        };
        events.lock().push(Event::Submitted {
            step,
            device: client.device.clone(),
            item: item_id,
            version: 1,
            fate,
        });
        std::thread::sleep(interval);
    }
}

/// Replays the configured UB1 window against a live, auto-scaled
/// SyncService pool over TCP and checks the resulting history.
///
/// # Errors
///
/// Fails on setup errors (socket, provisioning, initial pool
/// convergence); a completed replay always returns a report — check
/// [`LiveReport::history_violations`] and [`LiveReport::drained`] for
/// verdicts.
#[allow(clippy::too_many_lines)]
pub fn run_live(config: &LiveConfig) -> Result<LiveReport, String> {
    let fds_needed = (config.clients + config.probe_clients) as u64 * 3 + 1024;
    let fds = libc::raise_nofile_limit(fds_needed)
        .or_else(|_| libc::nofile_limit().map(|(soft, _)| soft))
        .map_err(|e| format!("querying fd limit: {e}"))?;
    if fds < fds_needed {
        return Err(format!(
            "fd limit {fds} below the {fds_needed} needed for {} clients",
            config.clients
        ));
    }

    let trace = Ub1Trace::synthesize(&config.ub1, DAY + 1);
    let window = day_window(
        &trace,
        config.start_minute,
        config.duration_minutes,
        config.compression,
    )?;

    // ── Server side: real TCP in front of one shared message broker. ──
    let mq = mqsim::MessageBroker::new();
    let server = net::BrokerServer::bind("127.0.0.1:0", mq.clone())
        .map_err(|e| format!("binding broker server: {e}"))?;
    let addr = server.local_addr();
    // The reactive policy reads this estimator; its window must roughly
    // match the compressed 5-minute cadence or decisions lag the slots.
    let reactive_wall = REACTIVE_PERIOD.div_f64(config.compression);
    let server_broker = Broker::new(
        mq,
        BrokerConfig {
            rate_window: reactive_wall.clamp(Duration::from_millis(100), Duration::from_secs(60)),
            ..BrokerConfig::default()
        },
    );
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = stacksync::SyncService::builder(&server_broker)
        .store(meta.clone())
        .service_delay(config.service_delay)
        .build();
    let node = Arc::new(
        RemoteBroker::start(server_broker.clone(), 1)
            .map_err(|e| format!("starting remote broker: {e}"))?,
    );
    node.register_factory(SYNC_SERVICE_OID, service.factory());
    let supervisor = Supervisor::start(
        server_broker.clone(),
        SupervisorConfig {
            oid: SYNC_SERVICE_OID,
            check_interval: CHECK_INTERVAL,
            ..Default::default()
        },
    )
    .map_err(|e| format!("starting supervisor: {e}"))?;

    // ── Policy: identical construction to the simulator, compressed. ──
    let mut scaler = autoscaler(
        &trace,
        &window,
        config.model.clone(),
        ScalingPolicy::Both,
        PERCENTILE,
        0.0,
    );
    let initial = scaler.prime().target;
    supervisor.set_target(initial);
    if !supervisor.wait_targets_met(Duration::from_secs(20)) {
        return Err(format!(
            "initial pool of {initial} never converged (observed {:?})",
            supervisor.observed()
        ));
    }

    let controller =
        ElasticController::start(server_broker.clone(), supervisor, scaler, SYNC_SERVICE_OID)
            .map_err(|e| format!("starting controller: {e}"))?;

    // ── Fleet + probes connect before the clock starts. ──
    obs::gauge("elastic.live.clients").set(config.clients as f64);
    let offered = Arc::new(AtomicU64::new(0));
    let accepted = Arc::new(AtomicU64::new(0));
    let per_driver = config.drivers.max(1);
    let mut fleets: Vec<Vec<LiveClient>> = Vec::with_capacity(per_driver);
    let mut connectors = Vec::new();
    let share = config.clients / per_driver;
    let remainder = config.clients % per_driver;
    let mut next_id = 1u64;
    for d in 0..per_driver {
        let count = share + usize::from(d < remainder);
        let meta = meta.clone();
        let first = next_id;
        next_id += count as u64;
        connectors.push(std::thread::spawn(move || {
            connect_fleet(addr, &meta, first, count, "u")
        }));
    }
    for handle in connectors {
        fleets.push(handle.join().map_err(|_| "connector thread panicked")??);
    }
    let probes = connect_fleet(addr, &meta, 1 << 20, config.probe_clients, "probe")?;

    // Arrival k drives client (k mod clients); a client belongs to exactly
    // one driver, so per-client commit order is preserved.
    let arrivals = window.poisson_arrivals(config.seed);
    let mut per_driver_arrivals: Vec<Vec<(f64, usize, u64)>> =
        (0..per_driver).map(|_| Vec::new()).collect();
    let mut owner_of = vec![(0usize, 0usize); config.clients];
    {
        let mut global = 0usize;
        for (d, fleet) in fleets.iter().enumerate() {
            for local in 0..fleet.len() {
                owner_of[global] = (d, local);
                global += 1;
            }
        }
    }
    for (k, &at) in arrivals.iter().enumerate() {
        let (d, local) = owner_of[k % config.clients.max(1)];
        per_driver_arrivals[d].push((at, local, k as u64));
    }

    let anchor = Instant::now();
    let stop_probes = Arc::new(AtomicBool::new(false));
    let probe_samples: Arc<Mutex<Vec<ProbeSample>>> = Arc::new(Mutex::new(Vec::new()));
    let probe_events: Arc<Mutex<Vec<Event>>> = Arc::new(Mutex::new(Vec::new()));
    let sync_timeout = Duration::from_secs(10);
    let mut probe_threads = Vec::new();
    for client in probes {
        let stop = stop_probes.clone();
        let samples = probe_samples.clone();
        let events = probe_events.clone();
        let interval = config.probe_interval;
        probe_threads.push(std::thread::spawn(move || {
            probe(
                anchor,
                client,
                interval,
                sync_timeout,
                stop,
                samples,
                events,
            );
        }));
    }
    let mut drivers = Vec::new();
    for (fleet, share) in fleets.into_iter().zip(per_driver_arrivals) {
        let offered = offered.clone();
        let accepted = accepted.clone();
        let sync_commits = config.sync_commits;
        drivers.push(std::thread::spawn(move || {
            drive(
                anchor,
                share,
                fleet,
                sync_commits,
                sync_timeout,
                offered,
                accepted,
            )
        }));
    }
    let stop_crasher = Arc::new(AtomicBool::new(false));
    let crashes = Arc::new(AtomicU64::new(0));
    let crasher = config.crash_period.map(|period| {
        let stop = stop_crasher.clone();
        let crashes = crashes.clone();
        let node = node.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(period);
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if node.crash_one(SYNC_SERVICE_OID) {
                    crashes.fetch_add(1, Ordering::Relaxed);
                    obs::counter("elastic.live.crashes_total").inc();
                }
            }
        })
    });

    // ── Slot monitor: samples pool + latency at each slot boundary. ──
    let pool_gauge = obs::gauge("elastic.live.pool_live");
    let slot_gauge = obs::gauge("elastic.live.slot");
    let p99_gauge = obs::gauge("elastic.live.p99_ms");
    let offered_counter = obs::counter("elastic.live.offered_total");
    let committed_counter = obs::counter("elastic.live.committed_total");
    let mut slots = Vec::new();
    let mut last_offered = 0u64;
    let mut last_committed = 0u64;
    for slot in window.slots_of(SLOT_MINUTES).iter() {
        let end = anchor + slot.start + slot.duration;
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        let offered_now = offered.load(Ordering::Relaxed);
        let committed_now = service.commits_processed();
        let live = node.local_count(SYNC_SERVICE_OID);
        let target = controller.last_target();
        let window: Vec<f64> = probe_samples
            .lock()
            .iter()
            .filter(|(at, _)| *at >= slot.start && *at < slot.start + slot.duration)
            .map(|(_, latency)| latency.as_secs_f64() * 1e3)
            .collect();
        let report = SlotReport {
            slot: slot.index,
            trace_minute: slot.trace_minute,
            offered: offered_now - last_offered,
            committed: committed_now.saturating_sub(last_committed),
            target,
            live,
            probes: window.len(),
            p50_ms: percentile(&window, 0.50),
            p99_ms: percentile(&window, 0.99),
        };
        offered_counter.add(report.offered);
        committed_counter.add(report.committed);
        pool_gauge.set(live as f64);
        slot_gauge.set(slot.index as f64);
        p99_gauge.set(report.p99_ms);
        last_offered = offered_now;
        last_committed = committed_now;
        slots.push(report);
    }
    let wall_secs = anchor.elapsed().as_secs_f64();
    stop_probes.store(true, Ordering::Release);

    // ── Drain, then stop everything. ──
    let mut events: Vec<Event> = Vec::new();
    let mut driver_results = Vec::new();
    for handle in drivers {
        driver_results.push(handle.join().map_err(|_| "driver thread panicked")?);
    }
    let drained = wait_drained(&server_broker, config.drain_timeout);
    stop_crasher.store(true, Ordering::Release);
    for handle in probe_threads {
        let _ = handle.join();
    }
    if let Some(handle) = crasher {
        let _ = handle.join();
    }
    for driver_events in driver_results {
        events.extend(driver_events);
    }
    events.extend(probe_events.lock().drain(..));

    let decisions = controller.decisions().len();
    controller.stop();
    if let Ok(node) = Arc::try_unwrap(node) {
        node.stop();
    }
    let committed = service.commits_processed();
    server.shutdown();

    // ── Judge the history against the store's final word. ──
    let (history, violations) = check_history(&events, meta.as_ref());
    let peak_live = slots.iter().map(|s| s.live).max().unwrap_or(0);
    let trough_live = slots.iter().map(|s| s.live).min().unwrap_or(0);
    Ok(LiveReport {
        slots,
        clients: config.clients,
        offered: offered.load(Ordering::Relaxed),
        accepted: accepted.load(Ordering::Relaxed),
        committed,
        peak_live,
        trough_live,
        decisions,
        crashes: crashes.load(Ordering::Relaxed),
        drained,
        history_events: history.len(),
        history_violations: violations,
        wall_secs,
    })
}

/// Waits until the service queue is empty (no queued, no unacked) for a
/// few consecutive checks.
fn wait_drained(broker: &Broker, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut calm = 0;
    while Instant::now() < deadline {
        let stats = broker
            .messaging()
            .queue_stats(SYNC_SERVICE_OID.as_str())
            .unwrap_or_default();
        if stats.depth == 0 && stats.unacked == 0 {
            calm += 1;
            if calm >= 3 {
                return true;
            }
        } else {
            calm = 0;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    false
}

/// Replays the submit log through the [`faultsim::History`] checker,
/// synthesizing `Processed` events from the store's per-item histories
/// (the store is the ground truth for what committed).
fn check_history(submits: &[Event], meta: &dyn MetadataStore) -> (History, Vec<String>) {
    let mut history = History::default();
    let mut items: BTreeSet<u64> = BTreeSet::new();
    for event in submits {
        if let Event::Submitted { item, .. } = event {
            items.insert(*item);
        }
        history.push(event.clone());
    }
    let mut current_versions: BTreeMap<u64, u64> = BTreeMap::new();
    let mut store_histories: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut step = u64::MAX / 2;
    for item in items {
        let chain = match meta.history(item) {
            Ok(chain) if !chain.is_empty() => chain,
            _ => continue,
        };
        for version in &chain {
            history.push(Event::Processed {
                step,
                device: version.modified_by.clone(),
                item,
                version: version.version,
                committed: true,
            });
            step += 1;
        }
        current_versions.insert(item, chain.last().map(|m| m.version).unwrap_or(0));
        store_histories.insert(item, chain.iter().map(|m| m.version).collect());
    }
    let violations = history.check(&current_versions, &store_histories);
    (history, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A four-hour window around the diurnal peak, compressed into ~15
    /// wall seconds, against a real TCP fleet — the fast end-to-end
    /// exercise of the whole live pipeline.
    #[test]
    fn live_replay_smoke_scales_and_keeps_history_clean() {
        let config = LiveConfig {
            clients: 32,
            probe_clients: 2,
            probe_interval: Duration::from_millis(10),
            ub1: Ub1Config {
                peak_per_min: 3.0,
                ..Ub1Config::default()
            },
            start_minute: 10 * 60,
            duration_minutes: 4 * 60,
            compression: 960.0,
            service_delay: Duration::from_millis(5),
            model: GgOneModel {
                target_response: 0.100,
                mean_service: 0.005,
                var_interarrival: 0.01,
                var_service: 0.0001,
            },
            drivers: 4,
            drain_timeout: Duration::from_secs(30),
            ..LiveConfig::default()
        };
        let report = run_live(&config).expect("live replay must run");
        assert!(report.offered > 100, "too few arrivals: {}", report.offered);
        assert_eq!(
            report.accepted, report.offered,
            "every commit must be accepted on a healthy transport"
        );
        assert!(report.drained, "queue must drain after the day");
        assert!(
            report.history_violations.is_empty(),
            "history must be clean: {:?}",
            report.history_violations
        );
        assert!(
            report.committed >= report.accepted,
            "all accepted commits must be processed ({} < {})",
            report.committed,
            report.accepted
        );
        assert!(report.decisions >= 1, "the controller must decide");
        assert!(
            report.peak_live > report.trough_live,
            "pool must move with the diurnal load (peak {}, trough {})",
            report.peak_live,
            report.trough_live
        );
        assert!(report.history_events > 0);
    }
}
