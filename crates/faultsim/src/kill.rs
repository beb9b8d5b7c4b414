//! Kill-restart schedules: seeded crash-replay over the durable store.
//!
//! Where [`crate::sim`] proves the protocol survives crashed service
//! instances, this module proves the **commit plane** survives a crashed
//! *process*: a WAL-backed [`metadata::ShardedStore`] is driven through a
//! seeded schedule of commits and checkpoints; at random points the
//! process "dies" ([`metadata::ShardedStore::wal_simulate_crash`]), the
//! store is reopened from disk, and the recovered state is checked against
//! a shadow model kept by the harness:
//!
//! * **No lost acked commit** — every commit the store acknowledged before
//!   the kill is present after recovery (the reopened snapshot must equal
//!   the pre-kill snapshot bit for bit, and every item's version must
//!   match the shadow model).
//! * **No double-commit** — version chains replay to exactly `1..=n`,
//!   never gaining a duplicate from WAL replay (checked through the same
//!   snapshot equality plus explicit chain inspection).
//! * **A crashed store refuses writes** — between the crash and the
//!   reopen, a commit fails with a durability error instead of diverging
//!   from what the disk holds.
//!
//! The metadata WAL is the stack's one durable log; the broker keeps its
//! queues in memory, so a broker death loses what was queued in it. That
//! loss is the client's to repair (ROADMAP item 20), and this schedule
//! kills the broker only once there is a client half to check.
//!
//! Everything is single-threaded and seeded: same seed ⇒ same schedule,
//! same kills, same verdict.

use crate::rng::SimRng;
use content::ChunkId;
use metadata::{ItemMetadata, MetadataError, MetadataStore, ShardedStore, WorkspaceId};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

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
            "kill-restart seed {} — {} commits, {} kills, {} checkpoints\n",
            self.seed, self.commits, self.kills, self.checkpoints
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

/// Runs one seeded kill-restart schedule to completion.
pub fn run_kill_restart(seed: u64, config: &KillConfig) -> KillReport {
    let mut rng = SimRng::new(seed);
    let mut report = KillReport {
        seed,
        commits: 0,
        kills: 0,
        checkpoints: 0,
        violations: Vec::new(),
    };

    let root = scratch_dir(seed);
    let meta_dir = root.join("meta");

    let mut meta = match open_store(&meta_dir, config.shards) {
        Ok(s) => s,
        Err(e) => {
            report
                .violations
                .push(format!("could not open durable store: {e}"));
            return report;
        }
    };
    let ws = match meta
        .create_user("killer")
        .and_then(|()| meta.create_workspace("killer", "Kills"))
    {
        Ok(ws) => ws,
        Err(e) => {
            report
                .violations
                .push(format!("could not provision workspace: {e}"));
            return report;
        }
    };

    // Shadow model: what the harness knows it was acknowledged for.
    let mut versions: BTreeMap<u64, u64> = BTreeMap::new(); // item -> head version
    let mut payload_seq: u64 = 0;
    let violations = &mut report.violations;

    let mut step = 0;
    loop {
        let forced_final_kill = step >= config.steps;
        step += 1;

        if forced_final_kill || rng.chance(config.kill_permille) {
            report.kills += 1;
            let kills = report.kills;
            let expected_snapshot = meta.snapshot();
            meta.wal_simulate_crash(0);

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

            drop(meta);
            meta = match open_store(&meta_dir, config.shards) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("kill {kills}: store reopen failed: {e}"));
                    std::fs::remove_dir_all(&root).ok();
                    return report;
                }
            };

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

            if forced_final_kill {
                break;
            }
            continue;
        }

        if rng.chance(config.checkpoint_permille) {
            report.checkpoints += 1;
            if let Err(e) = meta.checkpoint() {
                violations.push(format!("checkpoint {} failed: {e}", report.checkpoints));
            }
            continue;
        }

        // Regular work: a commit of the next version of one of five items.
        let item = 1 + rng.below(5);
        let version = versions.get(&item).copied().unwrap_or(0) + 1;
        match meta.commit(&ws, vec![proposal(&ws, item, version, &mut payload_seq)]) {
            Ok(outcomes) if outcomes.iter().all(|o| o.is_committed()) => {
                report.commits += 1;
                versions.insert(item, version);
            }
            Ok(_) => violations.push(format!(
                "single-writer commit of item {item} v{version} conflicted"
            )),
            Err(e) => violations.push(format!("commit of item {item} v{version} failed: {e}")),
        }
    }

    drop(meta);
    std::fs::remove_dir_all(&root).ok();
    report
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
            (a.commits, a.kills, a.checkpoints),
            (b.commits, b.kills, b.checkpoints),
        );
    }

    #[test]
    fn small_sweep_passes() {
        let (passed, failure) = explore_kills(0, 8, &KillConfig::default());
        assert!(failure.is_none(), "{}", failure.unwrap().transcript());
        assert_eq!(passed, 8);
    }
}
