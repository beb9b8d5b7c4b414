//! Kill-restart schedules: seeded crash-replay over the *durable* stack.
//!
//! Where [`crate::sim`] proves the protocol survives crashed service
//! instances, this module proves the **commit plane** survives crashed
//! *processes*: a WAL-backed [`metadata::ShardedStore`] and a durable
//! [`mqsim::MessageBroker`] are driven through a seeded schedule of
//! commits, publishes, acks and checkpoints; at random points the whole
//! process "dies" ([`metadata::ShardedStore::wal_simulate_crash`] +
//! [`mqsim::MessageBroker::journal_simulate_crash`]), both components are
//! reopened from disk, and the recovered state is checked against a shadow
//! model kept by the harness:
//!
//! * **No lost acked commit** — every commit the store acknowledged before
//!   the kill is present after recovery (the reopened snapshot must equal
//!   the pre-kill snapshot bit for bit, and every item's version must
//!   match the shadow model).
//! * **No double-commit** — version chains replay to exactly `1..=n`,
//!   never gaining a duplicate from WAL replay (checked through the same
//!   snapshot equality plus explicit chain inspection).
//! * **At-least-once delivery** — every unacked durable publish is
//!   redelivered; a *dirty* kill (buffered ack records lost with the
//!   un-fsynced tail) may additionally redeliver acked messages, but a
//!   kill after [`mqsim::MessageBroker::journal_flush`] must recover
//!   exactly the unacked set. Recovered messages are never fabricated.
//!
//! Everything is single-threaded and seeded: same seed ⇒ same schedule,
//! same kills, same verdict.

use crate::rng::SimRng;
use content::ChunkId;
use metadata::{ItemMetadata, MetadataError, MetadataStore, ShardedStore, WorkspaceId};
use mqsim::{Message, MessageBroker, MqError, QueueOptions};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Duration;

/// The durable queue the schedule publishes to.
const QUEUE: &str = "killsim.jobs";

/// Shape of one kill-restart run.
#[derive(Debug, Clone, Copy)]
pub struct KillConfig {
    /// Shard count of the durable store.
    pub shards: usize,
    /// Scheduler steps per run (kills included).
    pub steps: u32,
    /// Chance (permille) that a step is a kill-restart.
    pub kill_permille: u32,
    /// Chance (permille) that a step checkpoints the store.
    pub checkpoint_permille: u32,
}

impl Default for KillConfig {
    fn default() -> Self {
        KillConfig {
            shards: 4,
            steps: 60,
            kill_permille: 80,
            checkpoint_permille: 60,
        }
    }
}

/// What one kill-restart run did, and whether the invariants held.
#[derive(Debug)]
pub struct KillReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// Commits acknowledged across all lives of the store.
    pub commits: u64,
    /// Durable publishes acknowledged.
    pub publishes: u64,
    /// Kill-restart cycles executed (always ≥ 1).
    pub kills: u64,
    /// Snapshot-and-truncate checkpoints taken.
    pub checkpoints: u64,
    /// Invariant violations; empty = the run passed.
    pub violations: Vec<String>,
}

impl KillReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable failure artifact.
    pub fn transcript(&self) -> String {
        let mut out = format!(
            "kill-restart seed {} — {} commits, {} publishes, {} kills, {} checkpoints\n",
            self.seed, self.commits, self.publishes, self.kills, self.checkpoints
        );
        for v in &self.violations {
            out.push_str(&format!("VIOLATION: {v}\n"));
        }
        out
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "faultsim-kill-{}-{seed}-{unique}",
        std::process::id()
    ))
}

fn open_store(dir: &PathBuf, shards: usize) -> std::io::Result<ShardedStore> {
    ShardedStore::open_durable(
        dir,
        shards,
        Duration::ZERO,
        wal::LogConfig::named("killsim-meta"),
    )
    .map(|(s, _)| s)
}

fn open_broker(dir: &PathBuf) -> std::io::Result<MessageBroker> {
    MessageBroker::open_durable(dir, wal::LogConfig::named("killsim-mq")).map(|(b, _)| b)
}

/// Runs one seeded kill-restart schedule to completion.
pub fn run_kill_restart(seed: u64, config: &KillConfig) -> KillReport {
    let mut rng = SimRng::new(seed);
    let mut violations: Vec<String> = Vec::new();

    let root = scratch_dir(seed);
    let meta_dir = root.join("meta");
    let mq_dir = root.join("mq");

    let mut meta = match open_store(&meta_dir, config.shards) {
        Ok(s) => s,
        Err(e) => {
            return KillReport {
                seed,
                commits: 0,
                publishes: 0,
                kills: 0,
                checkpoints: 0,
                violations: vec![format!("could not open durable store: {e}")],
            }
        }
    };
    let mut mq = match open_broker(&mq_dir) {
        Ok(b) => b,
        Err(e) => {
            return KillReport {
                seed,
                commits: 0,
                publishes: 0,
                kills: 0,
                checkpoints: 0,
                violations: vec![format!("could not open durable broker: {e}")],
            }
        }
    };

    let ws = match meta
        .create_user("killer")
        .and_then(|()| meta.create_workspace("killer", "Kills"))
    {
        Ok(ws) => ws,
        Err(e) => {
            return KillReport {
                seed,
                commits: 0,
                publishes: 0,
                kills: 0,
                checkpoints: 0,
                violations: vec![format!("could not provision workspace: {e}")],
            }
        }
    };
    mq.declare_queue(QUEUE, QueueOptions::durable())
        .expect("declare durable queue");

    // Shadow model: what the harness knows it was acknowledged for.
    let mut versions: BTreeMap<u64, u64> = BTreeMap::new(); // item -> head version
    let mut outstanding: BTreeSet<String> = BTreeSet::new(); // published, never acked
    let mut acked: BTreeSet<String> = BTreeSet::new(); // acked since the last flush point
    let mut payload_seq: u64 = 0;

    let mut commits: u64 = 0;
    let mut publishes: u64 = 0;
    let mut kills: u64 = 0;
    let mut checkpoints: u64 = 0;

    let mut step = 0;
    loop {
        let forced_final_kill = step >= config.steps;
        step += 1;

        if forced_final_kill || rng.chance(config.kill_permille) {
            kills += 1;
            // A clean kill flushes buffered ack records first, making the
            // recovered set exactly predictable; a dirty kill may lose the
            // buffered acks (torn tail), which may only ever *redeliver*.
            let clean = rng.chance(500);
            if clean {
                if let Err(e) = mq.journal_flush() {
                    violations.push(format!("kill {kills}: journal flush failed: {e}"));
                }
            }
            let expected_snapshot = meta.snapshot();
            meta.wal_simulate_crash(0);
            let survive = (rng.below(64)) as usize; // torn tail of buffered acks
            mq.journal_simulate_crash(survive);

            // A crashed store must refuse writes rather than diverge. The
            // probe is a *fresh* item so it would genuinely append (an
            // all-conflict commit never reaches the WAL at all).
            let probe_item = 1_000_000 + kills;
            match meta.commit(&ws, vec![proposal(&ws, probe_item, 1, &mut payload_seq)]) {
                Err(MetadataError::Durability(_)) => {}
                other => violations.push(format!(
                    "kill {kills}: crashed store accepted a commit: {other:?}"
                )),
            }
            match mq.publish_to_queue(QUEUE, Message::from_static(b"post-crash")) {
                Err(MqError::Durability(_)) => {}
                other => violations.push(format!(
                    "kill {kills}: crashed broker accepted a publish: {other:?}"
                )),
            }

            drop(meta);
            drop(mq);

            let reopened = open_store(&meta_dir, config.shards)
                .map_err(|e| format!("store reopen failed: {e}"))
                .and_then(|s| {
                    open_broker(&mq_dir)
                        .map(|b| (s, b))
                        .map_err(|e| format!("broker reopen failed: {e}"))
                });
            match reopened {
                Ok((s, b)) => {
                    meta = s;
                    mq = b;
                }
                Err(e) => {
                    violations.push(format!("kill {kills}: {e}"));
                    std::fs::remove_dir_all(&root).ok();
                    return KillReport {
                        seed,
                        commits,
                        publishes,
                        kills,
                        checkpoints,
                        violations,
                    };
                }
            }

            // Invariant: no lost acked commit, no double-commit. The
            // reopened store must carry exactly the pre-kill state.
            if meta.snapshot() != expected_snapshot {
                violations.push(format!(
                    "kill {kills}: recovered store diverges from pre-kill snapshot"
                ));
            }
            for (&item, &head) in &versions {
                match meta.history(item) {
                    Ok(chain) => {
                        let got: Vec<u64> = chain.iter().map(|m| m.version).collect();
                        let want: Vec<u64> = (1..=head).collect();
                        if got != want {
                            violations.push(format!(
                                "kill {kills}: item {item} chain is {got:?}, shadow says {want:?}"
                            ));
                        }
                    }
                    Err(e) => violations.push(format!(
                        "kill {kills}: acked item {item} lost in recovery: {e}"
                    )),
                }
            }

            // Invariant: at-least-once delivery. Drain the recovered queue.
            let mut recovered: BTreeSet<String> = BTreeSet::new();
            let consumer = mq.subscribe(QUEUE).expect("subscribe recovered queue");
            while let Some(delivery) = consumer.try_recv() {
                let payload = String::from_utf8_lossy(delivery.message.payload()).into_owned();
                if !delivery.redelivered {
                    violations.push(format!(
                        "kill {kills}: recovered message {payload} not flagged redelivered"
                    ));
                }
                if !recovered.insert(payload.clone()) {
                    violations.push(format!("kill {kills}: message {payload} recovered twice"));
                }
                delivery.ack();
            }
            for payload in &outstanding {
                if !recovered.contains(payload) {
                    violations.push(format!(
                        "kill {kills}: unacked publish {payload} lost in recovery"
                    ));
                }
            }
            for payload in &recovered {
                if !outstanding.contains(payload) && !acked.contains(payload) {
                    violations.push(format!(
                        "kill {kills}: recovery fabricated message {payload}"
                    ));
                }
                if clean && acked.contains(payload) {
                    violations.push(format!(
                        "kill {kills}: flushed ack for {payload} forgotten (redelivered after clean kill)"
                    ));
                }
            }
            // The drain acked everything; flush so the next kill starts
            // from a known-durable point.
            if let Err(e) = mq.journal_flush() {
                violations.push(format!("kill {kills}: post-recovery flush failed: {e}"));
            }
            outstanding.clear();
            acked.clear();

            if forced_final_kill {
                break;
            }
            continue;
        }

        if rng.chance(config.checkpoint_permille) {
            checkpoints += 1;
            if let Err(e) = meta.checkpoint() {
                violations.push(format!("checkpoint {checkpoints} failed: {e}"));
            }
            continue;
        }

        // Regular work: a commit, a publish, or an ack, uniformly.
        match rng.below(3) {
            0 => {
                let item = 1 + rng.below(5);
                let version = versions.get(&item).copied().unwrap_or(0) + 1;
                match meta.commit(&ws, vec![proposal(&ws, item, version, &mut payload_seq)]) {
                    Ok(outcomes) => {
                        if outcomes.iter().all(|o| o.is_committed()) {
                            commits += 1;
                            versions.insert(item, version);
                        } else {
                            violations.push(format!(
                                "single-writer commit of item {item} v{version} conflicted"
                            ));
                        }
                    }
                    Err(e) => {
                        violations.push(format!("commit of item {item} v{version} failed: {e}"))
                    }
                }
            }
            1 => {
                payload_seq += 1;
                let payload = format!("job-{payload_seq}");
                match mq.publish_to_queue(QUEUE, Message::from_bytes(payload.clone().into_bytes()))
                {
                    Ok(()) => {
                        publishes += 1;
                        outstanding.insert(payload);
                    }
                    Err(e) => violations.push(format!("publish {payload} failed: {e}")),
                }
            }
            _ => {
                let consumer = mq.subscribe(QUEUE).expect("subscribe queue");
                if let Some(delivery) = consumer.try_recv() {
                    let payload = String::from_utf8_lossy(delivery.message.payload()).into_owned();
                    delivery.ack();
                    outstanding.remove(&payload);
                    acked.insert(payload);
                }
            }
        }
    }

    drop(meta);
    drop(mq);
    std::fs::remove_dir_all(&root).ok();

    KillReport {
        seed,
        commits,
        publishes,
        kills,
        checkpoints,
        violations,
    }
}

fn proposal(ws: &WorkspaceId, item: u64, version: u64, seq: &mut u64) -> ItemMetadata {
    *seq += 1;
    ItemMetadata {
        item_id: item,
        workspace: ws.clone(),
        path: format!("item-{item}.txt"),
        version,
        chunks: vec![ChunkId::of(format!("{item}-v{version}-{seq}").as_bytes())],
        size: 64 + version,
        is_deleted: false,
        modified_by: "killer".into(),
    }
}

/// Sweeps `count` consecutive kill-restart seeds from `start`, stopping at
/// the first failure. Returns `(passed, first_failure)`.
pub fn explore_kills(start: u64, count: u64, config: &KillConfig) -> (u64, Option<KillReport>) {
    let mut passed = 0;
    for seed in start..start.saturating_add(count) {
        let report = run_kill_restart(seed, config);
        if report.passed() {
            passed += 1;
        } else {
            return (passed, Some(report));
        }
    }
    (passed, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_kill_schedule_passes() {
        let report = run_kill_restart(1, &KillConfig::default());
        assert!(report.passed(), "{}", report.transcript());
        assert!(report.kills >= 1, "a forced final kill always runs");
    }

    #[test]
    fn kill_heavy_schedule_passes() {
        let config = KillConfig {
            kill_permille: 300,
            ..KillConfig::default()
        };
        let report = run_kill_restart(7, &config);
        assert!(report.passed(), "{}", report.transcript());
        assert!(
            report.kills >= 3,
            "a 30% kill rate over 60 steps kills often"
        );
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = run_kill_restart(11, &KillConfig::default());
        let b = run_kill_restart(11, &KillConfig::default());
        assert!(a.passed(), "{}", a.transcript());
        assert_eq!(
            (a.commits, a.publishes, a.kills, a.checkpoints),
            (b.commits, b.publishes, b.kills, b.checkpoints),
        );
    }

    #[test]
    fn small_sweep_passes() {
        let (passed, failure) = explore_kills(0, 8, &KillConfig::default());
        assert!(failure.is_none(), "{}", failure.unwrap().transcript());
        assert_eq!(passed, 8);
    }
}
