//! `cold_join`: the read path. Set-up fills one workspace with 3 000 small
//! files and 12 large ones; each op is a new device joining: dial a fresh
//! connection, `DesktopClient::connect` (`get_changes`, then fetch,
//! decompress and verify every chunk), and it is done when all 3 012 files
//! are there. Uses `metadata` for a scan instead of commits, `storage` for
//! gets instead of puts, `content` for decompress and verify instead of
//! compress, and `wire`/`net` for one large reply instead of many small
//! frames, so a write-side gain that costs reads shows here.

use crate::gen::{fingerprint, random_bytes, stamp_chunks};
use crate::harness::{Checks, Ctx, Plan, Repeat, Workload};
use crate::spans;
use crate::stack::{content_file, Res, Stack, CHUNK_SIZE};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USER: &str = "carol";
const SMALL_FILES: usize = 3000;
const SMALL_BYTES: usize = 2048;
const LARGE_FILES: usize = 12;
const LARGE_BYTES: usize = 1024 * 1024;
/// The large files' mix of compressible and incompressible regions comes
/// from this, not from the run's seed, so the cost of decompressing them
/// does not move with the seed; the seed makes their chunks unique.
const LAYOUT_SEED: u64 = 0x10_0000;

pub struct ColdJoin {
    stack: Stack,
    dir: PathBuf,
    workspace: String,
    /// Path → fingerprint of the bytes set-up wrote there.
    expected: BTreeMap<String, u64>,
    user_bytes: u64,
    joins: u64,
}

struct Join {
    secs: f64,
    /// Files that were missing or held the wrong bytes; `None` if the join
    /// itself failed.
    wrong_files: Option<usize>,
    control_bytes: u64,
}

impl ColdJoin {
    fn join(&mut self) -> Join {
        let op = self.joins;
        self.joins += 1;
        let device_name = format!("joiner{op}");
        let started = Instant::now();
        let link = spans::time("net.dial", op, 0, || self.stack.dial());
        let dialed = Instant::now();
        let device = link
            .as_ref()
            .map_err(String::clone)
            .and_then(|l| l.device(&self.stack.objects, USER, &device_name, &self.workspace));
        let joined = Instant::now();
        let mut out = Join {
            secs: (joined - started).as_secs_f64(),
            wrong_files: None,
            control_bytes: 0,
        };
        if let Ok(device) = device {
            spans::record("sync.join", op, 0, started, joined);
            // Outside the clock: every file must be there with the bytes
            // set-up wrote.
            let held = device.paths();
            let wrong = self
                .expected
                .iter()
                .filter(|(path, want)| device.read(path).map(|b| fingerprint(&b)) != Some(**want))
                .count();
            out.wrong_files = Some(wrong + held.len().abs_diff(self.expected.len()));
            out.control_bytes = device.control_bytes();
            if spans::enabled() {
                // The start-up protocol's one big call, timed on its own
                // over the same connection; what is left of the join after
                // the dial and this is fetching and verifying chunks.
                let link = link.as_ref().expect("a device implies a link");
                if let Ok((from, to, _)) = link.get_changes(&self.workspace) {
                    spans::record("sync.get_changes", op, 0, from, to);
                    let rest = (joined - dialed).saturating_sub(to - from);
                    spans::record("sync.materialize", op, 0, joined - rest, joined);
                }
            }
            device.disconnect();
        }
        if let Ok(link) = link {
            link.close();
        }
        out
    }
}

impl Workload for ColdJoin {
    const NAME: &'static str = "cold_join";

    fn setup(ctx: &Ctx, dir: PathBuf) -> Res<Self> {
        let stack = Stack::start(&dir)?;
        stack.meta.add_user(USER)?;
        let workspace = stack.meta.add_workspace(USER, "shared")?;
        // Populate through the real client, but in process: set-up is not
        // what this workload measures.
        let link = stack.local_link();
        let writer = link.device(&stack.objects, USER, "seeder", &workspace)?;
        let mut expected = BTreeMap::new();
        let mut user_bytes = 0u64;
        let files = (0..ctx.size(SMALL_FILES, 60))
            .map(|i| (format!("docs/n{i:05}.txt"), SMALL_BYTES))
            .chain(
                (0..ctx.size(LARGE_FILES, 2)).map(|i| (format!("media/m{i:02}.bin"), LARGE_BYTES)),
            );
        for (op, (path, len)) in files.enumerate() {
            let contents = if len == SMALL_BYTES {
                random_bytes(ctx.seed, op as u64, len)
            } else {
                let mut contents = content_file(len, LAYOUT_SEED + op as u64);
                stamp_chunks(&mut contents, CHUNK_SIZE, ctx.seed, op as u64);
                contents
            };
            expected.insert(path.clone(), fingerprint(&contents));
            user_bytes += len as u64;
            writer.write(&path, contents)?;
        }
        // Commits are asynchronous: the workspace is ready when the store
        // lists every file.
        let ready = crate::detect::wait_until(|| {
            stack
                .meta
                .current(&workspace)
                .is_ok_and(|items| items.len() == expected.len())
        });
        writer.disconnect();
        if ready.is_none() {
            return Err("set-up commits did not reach the store".into());
        }
        Ok(ColdJoin {
            stack,
            dir,
            workspace,
            expected,
            user_bytes,
            joins: 0,
        })
    }

    fn plan(phase: Duration) -> Plan {
        Plan::Timed(phase / 12)
    }

    fn repeat(&mut self, _ctx: &Ctx, index: usize, budget: Duration) -> Repeat {
        let mut out = Repeat::default();
        let (_, gets_before) = self.stack.object_ops();
        let started = Instant::now();
        let mut joins = Vec::new();
        while joins.is_empty() || started.elapsed() < budget {
            joins.push(self.join());
        }
        let gets = self.stack.object_ops().1 - gets_before;

        out.attempted = joins.len() as u64;
        out.failed = joins.iter().filter(|j| j.wrong_files != Some(0)).count() as u64;
        let secs: Vec<f64> = joins.iter().map(|j| j.secs).collect();
        let total: f64 = secs.iter().sum();
        out.set_p50("sync_p50_ms", &secs, 1e3);
        out.set("sync.ops_per_s", joins.len() as f64 / total);
        out.set(
            "sync.user_mb_per_s",
            self.user_bytes as f64 * joins.len() as f64 / 1e6 / total,
        );
        out.set("storage.gets_per_op", gets as f64 / joins.len() as f64);
        if index == 0 {
            out.set("overhead_bytes_per_op", joins[0].control_bytes as f64);
        }
        out.set("sync.conflicts", self.stack.conflicts() as f64);
        out
    }

    fn verify(&mut self, _ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        let items = self.stack.meta.current(&self.workspace).unwrap_or_default();
        checks.check(items.len() == self.expected.len(), || {
            format!(
                "store holds {} items, {} written",
                items.len(),
                self.expected.len()
            )
        });
        checks.check(items.iter().all(|i| i.version == 1), || {
            "a read-only workload moved a version head".into()
        });
        checks.check(self.stack.conflicts() == 0, || {
            format!("{} conflicts at the service", self.stack.conflicts())
        });
        checks
    }

    fn teardown(self) {
        self.stack.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
