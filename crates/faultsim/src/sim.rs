//! The crash-loop simulation: real StackSync components driven by a
//! deterministic, seeded scheduler.
//!
//! This is the harness's answer to the threaded chaos test
//! `crash_loop_under_live_traffic_loses_no_commit`: several writer devices
//! race commits against a SyncService pool whose instances keep crashing
//! mid-request, over a broker whose delivery the fault plan perturbs. The
//! difference is that *nothing here runs on a thread or a clock*. The
//! simulation is one loop; each iteration the seeded RNG picks the next
//! enabled action (submit a commit, let a server instance take a delivery
//! and maybe crash before dispatch or before ack, deliver a push
//! notification to a reader). The components are the real ones — the real
//! [`mqsim::MessageBroker`] with a [`FaultPlan`] installed, the real
//! [`stacksync::SyncService`] dispatch path, the real
//! [`metadata::ShardedStore`] — so the invariants checked are properties
//! of production code, not of a model. Same seed ⇒ same schedule, same
//! history, same verdict, every time, in milliseconds.
//!
//! A "crash" is exactly what the paper's supervisor-respawned instances do
//! (§4.2.2, evaluated in Fig. 8's kill experiments): the instance vanishes
//! holding an unacked delivery, the broker requeues it at the front, and
//! the next instance — here, the next `Process` step — picks it up. The
//! metadata store's idempotent-replay rule is what keeps the redelivery
//! from double-committing, and the checker verifies that end to end.

use crate::history::{Event, History, SubmitFate};
use crate::plan::{FaultPlan, FaultRates};
use crate::rng::SimRng;
use content::ChunkId;
use metadata::{ItemMetadata, MetadataStore, ShardedStore};
use objectmq::{Broker, BrokerConfig, RemoteObject, Request};
use stacksync::{provision_user, workspace_notification_oid, SyncService};
use std::collections::BTreeMap;
use std::sync::Arc;
use wire::{Codec, Value};

/// Queue carrying commit requests from writers to the service. The fault
/// plan targets this prefix, so ObjectMQ's internal reply queues stay
/// clean.
const COMMIT_QUEUE: &str = "faultsim.commits";
/// Queue a reader device binds to the workspace notification fanout.
const READER_QUEUE: &str = "faultsim.reader";
/// Item id of the file all writers fight over.
const SHARED_ITEM: u64 = 1;
/// Item ids `OWN_ITEM_BASE + w` are private to writer `w`.
const OWN_ITEM_BASE: u64 = 100;

/// How the [`ShardedStore`] the simulated stack commits against is built.
///
/// The store is pure state — it consumes no scheduler randomness — so for
/// any seed the run's fingerprint must be identical across selections: the
/// sharding identity property checked end-to-end through the real broker,
/// service, and fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSelection {
    /// Partition count; 1 is the single-database serialization point.
    pub shards: usize,
    /// WAL-backed ([`ShardedStore::open_durable`]), rooted in a per-run
    /// scratch directory that is removed when the run finishes. The
    /// directory name is derived from the seed (never from scheduler
    /// draws), so durability costs no randomness and the
    /// fingerprint-identity property extends to it.
    pub durable: bool,
}

impl Default for StoreSelection {
    fn default() -> Self {
        StoreSelection {
            shards: 1,
            durable: false,
        }
    }
}

impl StoreSelection {
    fn build(self, seed: u64) -> (Arc<dyn MetadataStore>, Option<std::path::PathBuf>) {
        if !self.durable {
            return (Arc::new(ShardedStore::with_shards(self.shards)), None);
        }
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!(
            "faultsim-durable-{}-{seed}-{unique}",
            std::process::id()
        ));
        // The WAL flushes inline in ticket waits and owns no thread, so the
        // run stays single-threaded and deterministic.
        let cfg = wal::LogConfig::named("faultsim");
        let (store, _) =
            ShardedStore::open_durable(&dir, self.shards, std::time::Duration::ZERO, cfg)
                .expect("open durable store in scratch dir");
        (Arc::new(store), Some(dir))
    }
}

/// Shape of one simulated run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent writer devices.
    pub writers: usize,
    /// Commits each writer submits.
    pub commits_per_writer: usize,
    /// Broker fault probabilities while writers are active.
    pub rates: FaultRates,
    /// Chance (permille) that the serving instance crashes at each of the
    /// two windows: before dispatching a delivery, and after processing but
    /// before acking.
    pub crash_permille: u32,
    /// Scheduler-step bound; exceeding it is reported as a violation.
    pub max_steps: u64,
    /// Metadata back-end under test.
    pub store: StoreSelection,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            writers: 3,
            commits_per_writer: 8,
            rates: FaultRates::chaotic(),
            crash_permille: 150,
            max_steps: 100_000,
            store: StoreSelection::default(),
        }
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Commit requests submitted (all writers).
    pub submissions: u64,
    /// Faults the plan injected.
    pub faults_injected: u64,
    /// Server crashes injected.
    pub crashes: u64,
    /// The recorded client-visible history.
    pub history: History,
    /// The fault plan's schedule trace.
    pub fault_trace: Vec<String>,
    /// Invariant violations; empty = the run passed.
    pub violations: Vec<String>,
}

impl SimReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fingerprint over schedule *and* history: two runs match iff the
    /// fault schedule and every client-visible event were identical.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = self.history.fingerprint();
        for line in &self.fault_trace {
            for byte in line.bytes().chain([b'\n']) {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The replay artifact for a failing seed: violations, fault schedule
    /// and full event history.
    pub fn transcript(&self) -> String {
        let mut out = format!(
            "seed {} — {} steps, {} submissions, {} faults, {} crashes\n",
            self.seed, self.steps, self.submissions, self.faults_injected, self.crashes
        );
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out.push_str("--- fault schedule ---\n");
        for line in &self.fault_trace {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("--- history ---\n");
        out.push_str(&self.history.render());
        out
    }
}

/// One in-flight commit request as encoded into the queue payload.
struct Proposal {
    device: String,
    item: ItemMetadata,
}

fn encode_proposal(proposal: &Proposal) -> Vec<u8> {
    let value = Value::Map(vec![
        ("device".into(), Value::Str(proposal.device.clone())),
        (
            "item".into(),
            stacksync::protocol::item_to_value(&proposal.item),
        ),
    ]);
    wire::BinaryCodec.encode(&value)
}

fn decode_proposal(payload: &[u8]) -> Result<Proposal, String> {
    let mut value = wire::BinaryCodec
        .decode(payload)
        .map_err(|e| e.to_string())?;
    Ok(Proposal {
        device: value
            .field("device")
            .and_then(wire::Value::as_str)
            .map_err(|e| e.to_string())?
            .to_string(),
        item: value
            .take_field("item")
            .and_then(stacksync::protocol::item_from_value)
            .map_err(|e| e.to_string())?,
    })
}

/// Runs one seeded simulation to completion and returns its report.
pub fn run(seed: u64, config: &SimConfig) -> SimReport {
    let mut rng = SimRng::new(seed);
    let mut history = History::default();
    let mut violations: Vec<String> = Vec::new();

    // Real broker, hooked by a plan drawing from a forked stream so the
    // scheduler's own draws stay aligned regardless of how many messages
    // the broker sees.
    let mq = mqsim::MessageBroker::new();
    let plan =
        Arc::new(FaultPlan::new(rng.fork().next_u64(), config.rates).targeting(&["faultsim."]));
    mq.set_interceptor(Some(plan.clone()));

    // Real metadata tier and SyncService, talking through the hooked broker.
    let (meta, scratch_dir): (Arc<dyn MetadataStore>, _) = config.store.build(seed);
    let broker = Broker::over(
        Arc::new(mq.clone()) as Arc<dyn mqsim::Messaging>,
        BrokerConfig::default(),
    );
    let ws = provision_user(meta.as_ref(), "alice", "Sim").expect("fresh store provisions");
    let service = SyncService::builder(&broker).store(meta.clone()).build();

    // Commit path: writers publish proposals here; "the pool" consumes.
    mq.declare_queue(COMMIT_QUEUE, mqsim::QueueOptions::default())
        .expect("declare commit queue");
    let commits_in = mq.subscribe(COMMIT_QUEUE).expect("subscribe commit queue");

    // Notification path: wire one reader device onto the workspace fanout,
    // the same shape `Broker::bind` builds for real notification listeners.
    let notify_oid = workspace_notification_oid(&ws);
    let multi_exchange = format!("omq.multi.{notify_oid}");
    mq.declare_queue(notify_oid.as_str(), mqsim::QueueOptions::default())
        .expect("declare notification oid queue");
    mq.declare_exchange(&multi_exchange)
        .expect("declare notification fanout");
    mq.declare_queue(READER_QUEUE, mqsim::QueueOptions::default())
        .expect("declare reader queue");
    mq.bind_queue(&multi_exchange, READER_QUEUE)
        .expect("bind reader to fanout");
    let reader_in = mq.subscribe(READER_QUEUE).expect("subscribe reader queue");

    let mut remaining: Vec<usize> = vec![config.commits_per_writer; config.writers];
    let mut submissions: u64 = 0;
    let mut crashes: u64 = 0;
    let mut step: u64 = 0;
    let mut faulting = true;

    loop {
        let writers_left = remaining.iter().any(|r| *r > 0);
        let commit_stats = mq.queue_stats(COMMIT_QUEUE).expect("commit queue stats");
        let reader_depth = mq
            .queue_stats(READER_QUEUE)
            .expect("reader queue stats")
            .depth;
        if !writers_left
            && commit_stats.depth == 0
            && commit_stats.unacked == 0
            && reader_depth == 0
        {
            break;
        }
        // Writers done: stop injecting so the drain converges. The plan
        // stops drawing entirely, so the tail stays deterministic.
        if !writers_left && faulting {
            plan.deactivate();
            faulting = false;
        }
        step += 1;
        if step > config.max_steps {
            violations.push(format!(
                "stuck: {} steps without draining (queue depth {}, unacked {})",
                config.max_steps, commit_stats.depth, commit_stats.unacked
            ));
            break;
        }

        // Pick uniformly among the actions enabled right now.
        #[derive(Clone, Copy)]
        enum Action {
            Submit,
            Process,
            Read,
        }
        let mut enabled = Vec::with_capacity(3);
        if writers_left {
            enabled.push(Action::Submit);
        }
        if commit_stats.depth > 0 {
            enabled.push(Action::Process);
        }
        if reader_depth > 0 {
            enabled.push(Action::Read);
        }
        let action = enabled[rng.below(enabled.len() as u64) as usize];

        match action {
            Action::Submit => {
                let eligible: Vec<usize> =
                    (0..config.writers).filter(|w| remaining[*w] > 0).collect();
                let w = eligible[rng.below(eligible.len() as u64) as usize];
                remaining[w] -= 1;
                submissions += 1;
                let device = format!("w{w}");
                let (item_id, path) = if rng.chance(500) {
                    (SHARED_ITEM, "shared.txt".to_string())
                } else {
                    (OWN_ITEM_BASE + w as u64, format!("w{w}.txt"))
                };
                let version = meta
                    .get_current(item_id)
                    .map(|m| m.version + 1)
                    .unwrap_or(1);
                // Chunks unique per submission: a *redelivery* of this
                // message replays idempotently, but a second independent
                // submission of the same version is a genuine conflict.
                let chunk =
                    ChunkId::of(format!("{device}-{item_id}-v{version}-s{submissions}").as_bytes());
                let item = ItemMetadata {
                    item_id,
                    workspace: ws.clone(),
                    path,
                    version,
                    chunks: vec![chunk],
                    size: 64 + version,
                    is_deleted: false,
                    modified_by: device.clone(),
                };
                let payload = encode_proposal(&Proposal {
                    device: device.clone(),
                    item: item.clone(),
                });
                let depth_before = mq.queue_stats(COMMIT_QUEUE).expect("depth").depth;
                mq.publish_to_queue(COMMIT_QUEUE, mqsim::Message::from_bytes(payload))
                    .expect("publish commit");
                let fate = match mq.queue_stats(COMMIT_QUEUE).expect("depth").depth - depth_before {
                    0 => SubmitFate::Dropped,
                    1 => SubmitFate::Enqueued,
                    _ => SubmitFate::Duplicated,
                };
                history.push(Event::Submitted {
                    step,
                    device,
                    item: item_id,
                    version,
                    fate,
                });
            }
            Action::Process => {
                // `try_recv` may come back empty even with depth > 0 when
                // the plan defers everything ready; the step is then a
                // no-op and a later step retries.
                let Some(delivery) = commits_in.try_recv() else {
                    continue;
                };
                if faulting && rng.chance(config.crash_permille) {
                    crashes += 1;
                    history.push(Event::Crashed {
                        step,
                        before_dispatch: true,
                    });
                    drop(delivery); // instance dies; broker requeues at front
                    continue;
                }
                let proposal = match decode_proposal(delivery.message.payload()) {
                    Ok(p) => p,
                    Err(e) => {
                        violations.push(format!("undecodable commit payload: {e}"));
                        delivery.ack();
                        continue;
                    }
                };
                // Snapshot the store's word on this item so the dispatch
                // outcome can be read back precisely (the RPC returns Null).
                let before = meta.get_current(proposal.item.item_id).ok();
                let len_before = meta
                    .history(proposal.item.item_id)
                    .map(|h| h.len())
                    .unwrap_or(0);
                let args = vec![
                    Value::from(ws.0.as_str()),
                    Value::from(proposal.device.as_str()),
                    Value::List(vec![stacksync::protocol::item_to_value(&proposal.item)]),
                ];
                if let Err(e) = service.dispatch("commit_request", &args) {
                    violations.push(format!("commit_request failed: {e}"));
                    delivery.ack();
                    continue;
                }
                // Mirror of the store's Algorithm 1 decision: a fresh
                // append, or an idempotent replay confirm; anything else
                // was a conflict.
                let chain = meta.history(proposal.item.item_id).unwrap_or_default();
                let committed = (chain.len() == len_before + 1
                    && chain.last().is_some_and(|last| {
                        last.version == proposal.item.version
                            && last.chunks == proposal.item.chunks
                            && last.modified_by == proposal.item.modified_by
                    }))
                    || before.is_some_and(|cur| {
                        cur.version == proposal.item.version
                            && cur.chunks == proposal.item.chunks
                            && cur.modified_by == proposal.item.modified_by
                            && cur.is_deleted == proposal.item.is_deleted
                    });
                history.push(Event::Processed {
                    step,
                    device: proposal.device.clone(),
                    item: proposal.item.item_id,
                    version: proposal.item.version,
                    committed,
                });
                if faulting && rng.chance(config.crash_permille) {
                    crashes += 1;
                    history.push(Event::Crashed {
                        step,
                        before_dispatch: false,
                    });
                    drop(delivery); // crash after commit, before ack
                } else {
                    delivery.ack();
                    history.push(Event::Acked { step });
                }
            }
            Action::Read => {
                let Some(delivery) = reader_in.try_recv() else {
                    continue;
                };
                match decode_notification(delivery.message.payload()) {
                    Ok(notification) => {
                        for change in &notification.changes {
                            history.push(Event::Notified {
                                step,
                                committer: notification.committer.clone(),
                                item: change.metadata.item_id,
                                version: change.metadata.version,
                                confirmed: change.confirmed,
                            });
                        }
                    }
                    Err(e) => violations.push(format!("undecodable notification: {e}")),
                }
                delivery.ack();
            }
        }
    }

    // Final-state checks: the history against the store's own records, and
    // the read path against the write path (a fresh `get_changes` must
    // agree with what the store says is current).
    let mut current_versions = BTreeMap::new();
    let mut store_histories = BTreeMap::new();
    let mut item_ids: Vec<u64> = vec![SHARED_ITEM];
    item_ids.extend((0..config.writers).map(|w| OWN_ITEM_BASE + w as u64));
    for item_id in item_ids {
        if let Ok(cur) = meta.get_current(item_id) {
            current_versions.insert(item_id, cur.version);
            store_histories.insert(
                item_id,
                meta.history(item_id)
                    .unwrap_or_default()
                    .iter()
                    .map(|m| m.version)
                    .collect(),
            );
        }
    }
    match service.dispatch("get_changes", &[Value::from(ws.0.as_str())]) {
        Ok(Value::List(items)) => {
            let listed = items.len();
            for value in items {
                match stacksync::protocol::item_from_value(value) {
                    Ok(item) => {
                        if current_versions.get(&item.item_id) != Some(&item.version) {
                            violations.push(format!(
                                "get_changes reports item {} at v{}, store says {:?}",
                                item.item_id,
                                item.version,
                                current_versions.get(&item.item_id)
                            ));
                        }
                    }
                    Err(e) => violations.push(format!("get_changes returned bad item: {e}")),
                }
            }
            if listed != current_versions.len() {
                violations.push(format!(
                    "get_changes returned {} items, store tracks {}",
                    listed,
                    current_versions.len()
                ));
            }
        }
        Ok(other) => violations.push(format!("get_changes returned non-list: {other:?}")),
        Err(e) => violations.push(format!("get_changes failed: {e}")),
    }

    violations.extend(history.check(&current_versions, &store_histories));

    if let Some(dir) = scratch_dir {
        std::fs::remove_dir_all(&dir).ok();
    }

    SimReport {
        seed,
        steps: step,
        submissions,
        faults_injected: plan.faults_injected(),
        crashes,
        history,
        fault_trace: plan.trace(),
        violations,
    }
}

fn decode_notification(payload: &[u8]) -> Result<stacksync::CommitNotification, String> {
    let value = wire::BinaryCodec
        .decode(payload)
        .map_err(|e| e.to_string())?;
    let request = Request::from_value(value).map_err(|e| e.to_string())?;
    if request.method != "notify_commit" {
        return Err(format!("unexpected method {}", request.method));
    }
    let arg = request
        .args
        .first()
        .ok_or("notify_commit without payload")?;
    stacksync::CommitNotification::from_value(arg).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_run_completes_and_passes() {
        let report = run(1, &SimConfig::default());
        assert!(report.passed(), "{}", report.transcript());
        assert!(report.submissions == 24, "3 writers x 8 commits");
        assert!(!report.history.is_empty());
    }

    #[test]
    fn crash_heavy_run_still_loses_nothing() {
        let config = SimConfig {
            crash_permille: 400,
            ..SimConfig::default()
        };
        let report = run(7, &config);
        assert!(report.passed(), "{}", report.transcript());
        assert!(report.crashes > 0, "a 40% crash rate must crash sometimes");
    }

    #[test]
    fn fault_free_run_is_clean() {
        let config = SimConfig {
            rates: FaultRates::default(),
            crash_permille: 0,
            ..SimConfig::default()
        };
        let report = run(3, &config);
        assert!(report.passed(), "{}", report.transcript());
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn sharded_store_run_passes() {
        let config = SimConfig {
            store: StoreSelection {
                shards: 8,
                durable: false,
            },
            ..SimConfig::default()
        };
        let report = run(1, &config);
        assert!(report.passed(), "{}", report.transcript());
    }

    #[test]
    fn durable_store_run_passes() {
        let config = SimConfig {
            store: StoreSelection {
                shards: 4,
                durable: true,
            },
            ..SimConfig::default()
        };
        let report = run(1, &config);
        assert!(report.passed(), "{}", report.transcript());
    }

    #[test]
    fn store_selection_does_not_change_the_run() {
        // The store consumes no scheduler randomness, so for any seed the
        // fingerprint (fault schedule + full client-visible history) must
        // be identical whichever back-end commits the metadata — including
        // the WAL-backed one, whose scratch path derives from the seed.
        for seed in [1, 7, 23] {
            let global = run(seed, &SimConfig::default());
            for durable in [false, true] {
                let store = StoreSelection { shards: 8, durable };
                let other = run(
                    seed,
                    &SimConfig {
                        store,
                        ..SimConfig::default()
                    },
                );
                assert!(global.passed(), "{}", global.transcript());
                assert!(other.passed(), "{}", other.transcript());
                assert_eq!(
                    global.fingerprint(),
                    other.fingerprint(),
                    "seed {seed}: {store:?} run diverged from global run"
                );
            }
        }
    }
}
