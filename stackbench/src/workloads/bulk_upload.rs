//! `bulk_upload`: large files, where `content` and `storage` do the work.
//!
//! Closed loop, one op outstanding. A repeat is one pair of ops on a fresh
//! path: ADD an 8 MiB file (16 chunks, none seen before), wait until the
//! watcher holds identical bytes, then UPDATE it by appending 4 KiB (15 of
//! 16 chunks unchanged), wait again. One commit per 8 MiB makes the control
//! plane negligible, so a control-plane change must not move this workload,
//! and dedup-aware ingest shows on the UPDATE but not on the ADD. The file
//! is deleted and its chunks reclaimed after each pair (untimed), so memory
//! does not grow with the number of pairs a host manages.

use crate::detect::{wait_absent, wait_version};
use crate::gen::{fingerprint, random_bytes, stamp_chunks};
use crate::harness::{Checks, Ctx, Plan, Repeat, Workload};
use crate::spans;
use crate::stack::{collect_garbage, content_file, Device, Link, Res, Stack, CHUNK_SIZE};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USER: &str = "bob";
const FILE_BYTES: usize = 8 * 1024 * 1024;
const APPEND_BYTES: usize = 4096;
/// The base file's mix of compressible and incompressible regions comes from
/// this, not from the run's seed: how long LZSS takes depends on that mix, and
/// a workload whose cost moved 8 % with the seed could not hold a 10 % bound.
/// The seed still makes every chunk of every file unique (`stamp_chunks`).
const LAYOUT_SEED: u64 = 0x8_0000;

pub struct BulkUpload {
    stack: Stack,
    dir: PathBuf,
    links: Vec<Link>,
    workspace: String,
    writer: Device,
    watcher: Device,
    /// Mixed-compressibility content every ADD is derived from.
    base: Vec<u8>,
    /// Paths written and deleted again, for the end-of-run check.
    retired: Vec<String>,
    pairs: u64,
}

struct Op {
    secs: f64,
    ok: bool,
}

impl BulkUpload {
    /// Writes `contents` to `path` and waits until the watcher holds it at
    /// `version` with the same bytes. Timed from the call to the moment the
    /// detector sees the version; the byte comparison is outside the clock.
    fn sync(&self, span: &'static str, op: u64, path: &str, version: u64, contents: Vec<u8>) -> Op {
        let expected = fingerprint(&contents);
        let started = Instant::now();
        let wrote = spans::time("sync.write_file", op, 0, || {
            self.writer.write(path, contents)
        });
        let returned = Instant::now();
        let seen = wrote
            .ok()
            .and_then(|()| wait_version(&self.watcher, path, version));
        let Some(seen) = seen else {
            return Op {
                secs: started.elapsed().as_secs_f64(),
                ok: false,
            };
        };
        spans::record("sync.notify_wait", op, 0, returned, seen);
        spans::record(span, op, 0, started, seen);
        Op {
            secs: seen.duration_since(started).as_secs_f64(),
            ok: self.watcher.read(path).map(|b| fingerprint(&b)) == Some(expected),
        }
    }
}

impl Workload for BulkUpload {
    const NAME: &'static str = "bulk_upload";

    fn setup(ctx: &Ctx, dir: PathBuf) -> Res<Self> {
        let stack = Stack::start(&dir)?;
        stack.meta.add_user(USER)?;
        let workspace = stack.meta.add_workspace(USER, "bulk")?;
        let (writer_link, watcher_link) = (stack.dial()?, stack.dial()?);
        let writer = writer_link.device(&stack.objects, USER, "writer", &workspace)?;
        let watcher = watcher_link.device(&stack.objects, USER, "watcher", &workspace)?;
        Ok(BulkUpload {
            base: content_file(ctx.size(FILE_BYTES, 3 * CHUNK_SIZE / 2), LAYOUT_SEED),
            stack,
            dir,
            links: vec![writer_link, watcher_link],
            workspace,
            writer,
            watcher,
            retired: Vec::new(),
            pairs: 0,
        })
    }

    fn plan(_phase: Duration) -> Plan {
        // One ADD + UPDATE pair per repeat, however long it takes.
        Plan::OpPerRepeat
    }

    fn repeat(&mut self, ctx: &Ctx, index: usize, _budget: Duration) -> Repeat {
        let mut out = Repeat::default();
        let pair = self.pairs;
        self.pairs += 1;
        let path = format!("big{pair:05}.bin");

        // Inputs, outside the clock: the base with every chunk stamped so
        // nothing dedups against an earlier pair, and the same plus 4 KiB.
        let mut added = self.base.clone();
        stamp_chunks(&mut added, CHUNK_SIZE, ctx.seed, pair);
        let mut updated = added.clone();
        updated.extend_from_slice(&random_bytes(ctx.seed, !pair, APPEND_BYTES));

        let uploaded_before = self.stack.uploaded_bytes();
        let (puts_before, hits_before) = self.writer.chunk_counts();
        let commits_before = self.stack.commits();
        let user_bytes = (added.len() + updated.len()) as f64;
        let add = self.sync("sync.add", 2 * pair, &path, 1, added);
        let update = self.sync("sync.update", 2 * pair + 1, &path, 2, updated);
        let uploaded = self.stack.uploaded_bytes() - uploaded_before;
        let (puts, hits) = self.writer.chunk_counts();
        let (puts, hits) = (puts - puts_before, hits - hits_before);
        out.commits = self.stack.commits() - commits_before;

        out.attempted = 2;
        out.failed = u64::from(!add.ok) + u64::from(!update.ok);
        // The mean of the pair, not a pooled median: once UPDATE is cheaper
        // than ADD a pooled sample is bimodal and its median meaningless.
        out.set("sync_p50_ms", (add.secs + update.secs) / 2.0 * 1e3);
        out.set("sync.ops_per_s", 2.0 / (add.secs + update.secs));
        out.set(
            "sync.user_mb_per_s",
            user_bytes / 1e6 / (add.secs + update.secs),
        );
        out.set("storage.puts_per_op", puts as f64 / 2.0);
        out.set(
            "storage.dedup_hit_frac",
            hits as f64 / (puts + hits).max(1) as f64,
        );
        if index == 0 {
            out.set("overhead_bytes_per_op", uploaded as f64 / 2.0);
            out.set(
                "storage.stored_bytes_per_user_byte",
                uploaded as f64 / user_bytes,
            );
        }

        // Untimed: retire the file so the live set stays one file.
        let gone = self.writer.delete(&path).is_ok() && wait_absent(&self.watcher, &path).is_some();
        if !gone || collect_garbage(&self.stack.objects, USER).is_err() {
            out.failed += 1;
        }
        self.retired.push(path);
        out.set("sync.conflicts", self.stack.conflicts() as f64);
        out
    }

    fn verify(&mut self, _ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        // Every pair ended with a delete: the store lists each path once,
        // as a tombstone at version 3, and the watcher holds none of them.
        let items = self.stack.meta.current(&self.workspace).unwrap_or_default();
        checks.check(items.len() == self.retired.len(), || {
            format!(
                "store holds {} items, {} written",
                items.len(),
                self.retired.len()
            )
        });
        for path in &self.retired {
            let head = items.iter().find(|i| &i.path == path).map(|i| i.version);
            checks.check(head == Some(3), || {
                format!("{path}: store head {head:?}, expected 3")
            });
        }
        let held = self.watcher.paths();
        checks.check(held.is_empty(), || format!("watcher still holds {held:?}"));
        let lost = self.writer.conflicts() + self.watcher.conflicts();
        checks.check(self.stack.conflicts() == 0 && lost == 0, || {
            format!(
                "{} conflicts at the service, {lost} at devices",
                self.stack.conflicts()
            )
        });
        checks
    }

    fn teardown(self) {
        self.writer.disconnect();
        self.watcher.disconnect();
        for link in self.links {
            link.close();
        }
        self.stack.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
