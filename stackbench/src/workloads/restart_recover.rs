//! `restart_recover`: no network. Set-up builds a durable store directory
//! from 1 600 commits over 8 workspaces, log only. Each op is one restart
//! cycle on a fresh copy of it: reopen from the log (replay), checkpoint
//! (snapshot + truncate), reopen from the snapshot. `metadata` recovery and
//! `wal` replay/truncate do all the work; this is where a snapshot-format
//! change shows, and where it may trade reopen time against checkpoint time
//! and bytes on disk. Ends with a durability probe: commit, lose every
//! unflushed byte, reopen, and find every acknowledged commit.

use crate::gen::SplitMix64;
use crate::harness::{Checks, Ctx, Plan, Repeat, Workload};
use crate::spans;
use crate::stack::{Item, Meta, Recovered, Res, Value};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USER: &str = "dave";
const WORKSPACES: usize = 8;
/// Commits the store is built from. The issue sized this at 6 400, where one
/// snapshot reopen takes 12.4 s on the reference box (the JSON string scanner
/// re-validates the rest of the document for every character, so load time
/// is quadratic in snapshot size) and ten cycles cannot fit a run. A quarter
/// of it loads sixteen times faster.
const COMMITS: usize = 1600;
/// Versions each item goes through; items = commits / versions.
const VERSIONS: u64 = 4;
/// Acknowledged commits the durability probe makes before the crash.
const PROBE_COMMITS: u64 = 64;

pub struct RestartRecover {
    dir: PathBuf,
    /// The log-only store directory every cycle starts from.
    template: PathBuf,
    workspaces: Vec<String>,
    /// State of the store when set-up closed it.
    before_restart: Value,
    /// Records the log holds: one per commit, workspace and user.
    records: u64,
    items: u64,
    cycles: u64,
}

struct Cycle {
    replay_secs: f64,
    checkpoint_secs: f64,
    snapshot_secs: f64,
    disk_bytes: u64,
    snapshot_bytes: u64,
    ok: bool,
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Bytes of every file under `dir`, and of its `snapshot.json` alone.
fn disk_usage(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut total, mut snapshot) = (0, 0);
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            total += disk_usage(&entry.path())?.0;
        } else {
            let len = entry.metadata()?.len();
            total += len;
            if entry.file_name() == "snapshot.json" {
                snapshot = len;
            }
        }
    }
    Ok((total, snapshot))
}

impl RestartRecover {
    fn cycle(&mut self, compare_dumps: bool) -> Res<Cycle> {
        let op = self.cycles;
        self.cycles += 1;
        let work = self.dir.join(format!("cycle-{op}"));
        copy_dir(&self.template, &work).map_err(|e| e.to_string())?;

        let timed_open = |span: &'static str| -> Res<(Meta, Recovered, f64)> {
            let started = Instant::now();
            let (meta, recovered) = Meta::open(&work)?;
            let ended = Instant::now();
            spans::record(span, op, 0, started, ended);
            Ok((meta, recovered, (ended - started).as_secs_f64()))
        };

        let (meta, from_log, replay_secs) = timed_open("metadata.recover_replay")?;
        let mut ok = !from_log.snapshot_loaded && from_log.replayed == self.records;
        if compare_dumps {
            ok &= meta.dump() == self.before_restart;
        }
        let started = Instant::now();
        meta.checkpoint()?;
        let ended = Instant::now();
        spans::record("metadata.checkpoint", op, 0, started, ended);
        let checkpoint_secs = (ended - started).as_secs_f64();
        drop(meta);
        let (disk_bytes, snapshot_bytes) = disk_usage(&work).map_err(|e| e.to_string())?;

        let (meta, from_snapshot, snapshot_secs) = timed_open("metadata.recover_snapshot")?;
        ok &= from_snapshot.snapshot_loaded && from_snapshot.replayed == 0;
        if compare_dumps {
            ok &= meta.dump() == self.before_restart;
        } else {
            let mut held = 0;
            for ws in &self.workspaces {
                held += meta.current(ws)?.len() as u64;
            }
            ok &= held == self.items;
        }
        drop(meta);
        let _ = std::fs::remove_dir_all(&work);
        Ok(Cycle {
            replay_secs,
            checkpoint_secs,
            snapshot_secs,
            disk_bytes,
            snapshot_bytes,
            ok,
        })
    }
}

impl Workload for RestartRecover {
    const NAME: &'static str = "restart_recover";

    fn setup(ctx: &Ctx, dir: PathBuf) -> Res<Self> {
        let template = dir.join("template");
        // Same bytes as a synced log, without paying 6 400 fsyncs to set up.
        let (meta, _) = Meta::open_unsynced(&template)?;
        meta.add_user(USER)?;
        let workspaces = (0..WORKSPACES)
            .map(|i| meta.add_workspace(USER, &format!("ws{i}")))
            .collect::<Res<Vec<_>>>()?;
        let commits = ctx.size(COMMITS, 320);
        let items = commits as u64 / VERSIONS;
        let mut rng = SplitMix64::new(ctx.seed, 0);
        let ids: Vec<u64> = (0..items).map(|_| rng.next_u64() >> 1).collect();
        for version in 1..=VERSIONS {
            for (i, id) in ids.iter().enumerate() {
                let mut chunk = [0u8; 20];
                for part in chunk.chunks_mut(8) {
                    part.copy_from_slice(&rng.next_u64().to_le_bytes()[..part.len()]);
                }
                let item = Item {
                    id: *id,
                    path: format!("dir{:02}/file{i:05}.dat", i % 16),
                    version,
                    chunks: vec![chunk],
                    size: 4096,
                };
                if !meta.commit(&workspaces[i % WORKSPACES], "seeder", &item)? {
                    return Err(format!("set-up commit of item {i} v{version} conflicted"));
                }
            }
        }
        let before_restart = meta.dump();
        drop(meta);
        Ok(RestartRecover {
            dir,
            template,
            records: (commits + WORKSPACES + 1) as u64,
            items,
            workspaces,
            before_restart,
            cycles: 0,
        })
    }

    fn plan(_phase: Duration) -> Plan {
        // One restart cycle per repeat.
        Plan::OpPerRepeat
    }

    fn repeat(&mut self, _ctx: &Ctx, index: usize, _budget: Duration) -> Repeat {
        let mut out = Repeat {
            attempted: 1,
            ..Repeat::default()
        };
        // Comparing full dumps costs as much as a reopen; the warm-up cycle
        // and the end-of-run check do it, the measured cycles count items.
        let cycle = match self.cycle(index == 0) {
            Ok(cycle) if cycle.ok => cycle,
            _ => {
                out.failed = 1;
                return out;
            }
        };
        let total = cycle.replay_secs + cycle.checkpoint_secs + cycle.snapshot_secs;
        out.set("sync_p50_ms", total * 1e3);
        out.set("sync.ops_per_s", 1.0 / total);
        out.set(
            "wal.replay_records_per_s",
            self.records as f64 / cycle.replay_secs,
        );
        if index == 0 {
            let commits = (self.records - WORKSPACES as u64 - 1) as f64;
            out.set("overhead_bytes_per_op", cycle.disk_bytes as f64 / commits);
            out.set(
                "metadata.disk_bytes_per_commit",
                cycle.disk_bytes as f64 / commits,
            );
            out.set("metadata.snapshot_bytes", cycle.snapshot_bytes as f64);
            out.set("metadata.replayed_records", self.records as f64);
        }
        out
    }

    fn verify(&mut self, _ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        let full = self.cycle(true);
        checks.check(full.as_ref().is_ok_and(|c| c.ok), || {
            format!(
                "recovered store differs from the pre-restart dump: {:?}",
                full.err()
            )
        });

        // Durability: acknowledged commits survive losing every byte that
        // was not fsynced. Killing the process would leave the page cache
        // intact, so the store itself discards its unflushed tail.
        let probe = self.dir.join("durability");
        let outcome = (|| -> Res<bool> {
            copy_dir(&self.template, &probe).map_err(|e| e.to_string())?;
            let (meta, _) = Meta::open(&probe)?;
            let ws = &self.workspaces[0];
            for i in 0..PROBE_COMMITS {
                let item = Item {
                    id: u64::MAX - i,
                    path: format!("probe/{i}.dat"),
                    version: 1,
                    chunks: vec![[i as u8; 20]],
                    size: 1,
                };
                if !meta.commit(ws, "prober", &item)? {
                    return Ok(false);
                }
            }
            meta.crash();
            drop(meta);
            let (meta, _) = Meta::open(&probe)?;
            let held = meta.current(ws)?;
            Ok((0..PROBE_COMMITS).all(|i| held.iter().any(|item| item.id == u64::MAX - i)))
        })();
        checks.check(outcome == Ok(true), || {
            format!("an acknowledged commit was lost across a crash: {outcome:?}")
        });
        let _ = std::fs::remove_dir_all(&probe);
        checks
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
