//! `meta_commit`: small commits, where the control plane does the work.
//!
//! One user, four workspaces, a writer device and a watcher device on each,
//! the writers sharing one TCP connection and the watchers another. Every op
//! rewrites one 4 KiB incompressible file (one chunk) and is done when the
//! watcher holds that version and those bytes. Each repeat has a *paced*
//! phase (open loop at a fixed rate well under capacity: latency is counted
//! from the due time and the generator's lateness is reported) and a
//! *saturate* phase (closed loop, 64 commits outstanding: throughput). The
//! traced pass adds a one-at-a-time *closed* phase: the unloaded critical
//! path that `layers.sum_p50_ms` is compared against.

use crate::detect::{wait_until, Awake, Board, Pause, Pending, Seen, POLL_SLEEP};
use crate::gen::{fingerprint, random_bytes, sleep_until};
use crate::harness::{latency_stats, Checks, Ctx, Plan, Repeat, Workload};
use crate::stack::{collect_garbage, Device, Link, Res, Stack};
use crate::{spans, sys};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USER: &str = "alice";
const WORKSPACES: usize = 4;
/// Files per workspace: 512 files in all. With 64 commits outstanding at
/// most, a file is never rewritten while an earlier write to it is still in
/// flight; and the warm-up repeat writes every file at least once, so every
/// measured op is the same kind of commit, a rewrite.
const FILES_PER_WORKSPACE: usize = 128;
const FILE_BYTES: usize = 4096;
/// Open-loop rate: about a quarter of what the stack sustains on the
/// 2-core reference box, so queues stay empty and the median is the
/// unloaded path.
const PACED_PER_SEC: f64 = 300.0;
/// Repeats per pass, the warm-up included.
const REPEATS: usize = 16;
/// Closed-loop window of the saturate phase.
const OUTSTANDING: usize = 64;
/// The saturate and closed phases issue a fixed number of ops, sized from
/// the time they are given at these nominal rates (what the reference box
/// sustains). A fixed count makes the op sequence of a run a function of
/// the seed and `--seconds` alone, so memory and every count repeat; the
/// phases then take about, not exactly, their share of the time.
const SATURATE_NOMINAL_PER_SEC: f64 = 2200.0;
const CLOSED_NOMINAL_PER_SEC: f64 = 800.0;
/// Threads issuing in the saturate phase. `write_file` blocks on the
/// publish round trip, so one thread tops out near 1 / (its own latency)
/// and measures itself; two (the host's core count) load the stack.
const SATURATE_GENERATORS: u64 = 2;

pub struct MetaCommit {
    stack: Stack,
    dir: PathBuf,
    links: Vec<Link>,
    workspaces: Vec<String>,
    writers: Vec<Device>,
    watchers: Vec<Device>,
    paths: Vec<String>,
    /// Per (file, workspace) slot: the op that last wrote it, and the
    /// version that write produced (0: not written yet).
    last_write: Vec<(u64, u64)>,
    next_op: u64,
}

#[derive(Clone, Copy)]
enum Mode {
    /// Open loop at this many ops per second.
    Paced(f64),
    /// Closed loop with this many ops outstanding.
    Window(usize),
}

struct Phase {
    seen: Seen,
    attempted: u64,
    write_failed: u64,
    /// Seconds each paced op was issued after it was due.
    lateness: Vec<f64>,
    started: Instant,
}

impl Phase {
    fn failed(&self) -> u64 {
        let wrong = self.seen.completions.iter().filter(|c| !c.bytes_ok).count();
        self.write_failed + self.seen.timed_out + wrong as u64
    }

    fn latencies(&self) -> Vec<f64> {
        self.seen
            .completions
            .iter()
            .map(|c| c.seen.duration_since(c.pending.from).as_secs_f64())
            .collect()
    }
}

impl MetaCommit {
    fn slots(&self) -> usize {
        self.last_write.len()
    }

    /// Issues `ops` ops in `mode`, shared among `generators` threads, then
    /// waits for the detector to confirm every one of them. Generator `g`
    /// of `n` issues ops `g, g + n, g + 2n, ...` past the ops already used,
    /// so with two generators each owns two of the four workspaces and no
    /// file is ever written from two threads.
    fn drive(&mut self, seed: u64, mode: Mode, generators: u64, ops: u64, spans_on: bool) -> Phase {
        // One generator is a latency phase; more are a throughput phase.
        let latency_phase = generators == 1;
        assert!(
            (WORKSPACES as u64).is_multiple_of(generators),
            "generators must split the workspaces"
        );
        let board = Board::default();
        let slots = self.slots() as u64;
        let (writers, watchers, paths) = (&self.writers, &self.watchers, &self.paths);
        let (first_op, versions) = (self.next_op, &self.last_write);
        let started = Instant::now();
        let ops_each = ops.div_ceil(generators);

        let generate = |g: u64| {
            let mut writes: Vec<(usize, u64, u64)> = Vec::new();
            let mut version_of: Vec<u64> = versions.iter().map(|(_, v)| *v).collect();
            let (mut attempted, mut write_failed) = (0u64, 0u64);
            let mut lateness = Vec::new();
            loop {
                let from = match mode {
                    Mode::Paced(rate) => {
                        if attempted >= ops_each {
                            break;
                        }
                        let due = started + Duration::from_secs_f64(attempted as f64 / rate);
                        sleep_until(due);
                        lateness.push(due.elapsed().as_secs_f64());
                        due
                    }
                    Mode::Window(max) => {
                        if attempted >= ops_each {
                            break;
                        }
                        while board.outstanding() >= max {
                            std::thread::sleep(POLL_SLEEP);
                        }
                        Instant::now()
                    }
                };
                let op = first_op + attempted * generators + g;
                let slot = (op % slots) as usize;
                let (device, path) = (slot % WORKSPACES, slot / WORKSPACES);
                let version = version_of[slot] + 1;
                let contents = random_bytes(seed, op, FILE_BYTES);
                attempted += 1;
                let issued = Instant::now();
                let written = writers[device].write(&paths[path], contents);
                let returned = Instant::now();
                if written.is_err() {
                    write_failed += 1;
                    continue;
                }
                version_of[slot] = version;
                writes.push((slot, op, version));
                if spans_on {
                    spans::record("sync.write_file", op, 0, issued, returned);
                }
                board.post(Pending {
                    op,
                    device,
                    path,
                    version,
                    from,
                    returned,
                });
            }
            (writes, attempted, write_failed, lateness)
        };

        // Latency phases keep every core awake: the detector yields instead
        // of sleeping and is one of the awake threads itself.
        let (pause, _awake) = if latency_phase {
            (Pause::Yield, Some(Awake::keep(sys::nproc() as usize - 1)))
        } else {
            (Pause::Sleep, None)
        };
        let (generated, seen) = std::thread::scope(|scope| {
            let detector = scope.spawn(|| {
                board.detect(
                    pause,
                    |p| {
                        watchers[p.device]
                            .version(&paths[p.path])
                            .is_some_and(|v| v >= p.version)
                    },
                    |p| {
                        watchers[p.device].read(&paths[p.path])
                            == Some(random_bytes(seed, p.op, FILE_BYTES))
                    },
                )
            });
            let others: Vec<_> = (1..generators)
                .map(|g| scope.spawn(move || generate(g)))
                .collect();
            let mut generated = vec![generate(0)];
            generated.extend(
                others
                    .into_iter()
                    .map(|t| t.join().expect("generator thread")),
            );
            board.drain_and_stop();
            (generated, detector.join().expect("detector thread"))
        });

        if spans_on {
            for c in &seen.completions {
                spans::record(
                    "sync.notify_wait",
                    c.pending.op,
                    0,
                    c.pending.returned,
                    c.seen,
                );
            }
        }
        let mut phase = Phase {
            seen,
            attempted: 0,
            write_failed: 0,
            lateness: Vec::new(),
            started,
        };
        for (writes, attempted, write_failed, lateness) in generated {
            for (slot, op, version) in writes {
                self.last_write[slot] = (op, version);
            }
            self.next_op = self.next_op.max(first_op + attempted * generators);
            phase.attempted += attempted;
            phase.write_failed += write_failed;
            phase.lateness.extend(lateness);
        }
        phase
    }

    fn control_bytes(&self) -> u64 {
        self.writers
            .iter()
            .chain(&self.watchers)
            .map(Device::control_bytes)
            .sum()
    }

    fn notifications(&self) -> u64 {
        self.writers
            .iter()
            .chain(&self.watchers)
            .map(Device::notifications)
            .sum()
    }
}

impl Workload for MetaCommit {
    const NAME: &'static str = "meta_commit";

    fn setup(_ctx: &Ctx, dir: PathBuf) -> Res<Self> {
        let stack = Stack::start(&dir)?;
        stack.meta.add_user(USER)?;
        let workspaces = (0..WORKSPACES)
            .map(|i| stack.meta.add_workspace(USER, &format!("ws{i}")))
            .collect::<Res<Vec<_>>>()?;
        let (writer_link, watcher_link) = (stack.dial()?, stack.dial()?);
        let connect = |link: &Link, device: &str| {
            workspaces
                .iter()
                .map(|ws| link.device(&stack.objects, USER, device, ws))
                .collect::<Res<Vec<_>>>()
        };
        let writers = connect(&writer_link, "writer")?;
        let watchers = connect(&watcher_link, "watcher")?;
        Ok(MetaCommit {
            stack,
            dir,
            links: vec![writer_link, watcher_link],
            workspaces,
            writers,
            watchers,
            paths: (0..FILES_PER_WORKSPACE)
                .map(|i| format!("f{i:04}.dat"))
                .collect(),
            last_write: vec![(0, 0); FILES_PER_WORKSPACE * WORKSPACES],
            next_op: 0,
        })
    }

    fn plan(phase: Duration) -> Plan {
        // Many short repeats: a shared host wanders by several per cent from
        // second to second, and a median over fifteen repeats holds steadier
        // than one over five. A fixed number, so that the ops of a run, and
        // with them its memory, do not depend on how fast the host is.
        Plan::Fixed(REPEATS, phase / REPEATS as u32)
    }

    fn repeat(&mut self, ctx: &Ctx, index: usize, budget: Duration) -> Repeat {
        let mut out = Repeat::default();
        let (paced_share, saturate_share, closed_share) = if ctx.trace {
            (0.45, 0.35, 0.2)
        } else {
            (0.55, 0.45, 0.0)
        };
        let commits_before = self.stack.commits();

        // Paced: latency from the due time, at a rate the stack keeps up with.
        let (bytes_before, notes_before) = (self.control_bytes(), self.notifications());
        let ops_in =
            |share: f64, per_sec: f64| (budget.as_secs_f64() * share * per_sec).ceil() as u64;
        let paced = self.drive(
            ctx.seed,
            Mode::Paced(PACED_PER_SEC),
            1,
            ops_in(paced_share, PACED_PER_SEC),
            ctx.trace,
        );
        if let Some((p50, p99)) = latency_stats(&paced.latencies()) {
            out.set("sync_p50_ms", p50);
            out.set("sync.tail_p99_ms", p99);
        }
        if let Some((_, late_p99)) = latency_stats(&paced.lateness) {
            out.set("bench.late_p99_ms", late_p99);
        }
        out.set("bench.poll_resolution_us", paced.seen.cycle_secs * 1e6);
        if index == 0 && paced.failed() == 0 {
            // Both devices of a workspace get one notification per commit;
            // wait for the stragglers so the byte count is complete.
            let expected = notes_before + 2 * paced.attempted;
            wait_until(|| self.notifications() >= expected);
            let per_commit = (self.control_bytes() - bytes_before) as f64 / paced.attempted as f64;
            out.set("overhead_bytes_per_op", per_commit);
            out.set("sync.control_bytes_per_commit", per_commit);
        }

        // Saturate: throughput with both generators issuing back to back,
        // and the CPU it costs.
        let cpu_before = sys::cpu_ms();
        let saturate = self.drive(
            ctx.seed,
            Mode::Window(OUTSTANDING),
            SATURATE_GENERATORS,
            ops_in(saturate_share, SATURATE_NOMINAL_PER_SEC),
            false,
        );
        // From the first op issued to the last one confirmed.
        if let Some(last_seen) = saturate.seen.completions.iter().map(|c| c.seen).max() {
            let took = (last_seen - saturate.started).as_secs_f64();
            let rate = saturate.seen.completions.len() as f64 / took;
            out.set("sync.ops_per_s", rate);
            out.set("sync.user_mb_per_s", rate * FILE_BYTES as f64 / 1e6);
        }
        if let (Some(before), Some(after)) = (cpu_before, sys::cpu_ms()) {
            out.cpu = Some((after - before, saturate.seen.completions.len() as u64));
        }

        // Closed: one commit at a time, the unloaded critical path.
        let mut phases = vec![paced, saturate];
        if closed_share > 0.0 {
            let ops = ops_in(closed_share, CLOSED_NOMINAL_PER_SEC);
            let closed = self.drive(ctx.seed, Mode::Window(1), 1, ops, false);
            out.set_p50("sync.closed_p50_ms", &closed.latencies(), 1e3);
            phases.push(closed);
        }

        for phase in &phases {
            out.attempted += phase.attempted;
            out.failed += phase.failed();
            if phase.failed() > 0 {
                let wrong = phase.seen.completions.iter().filter(|c| !c.bytes_ok);
                out.notes.push(format!(
                    "repeat {index}: {} writes failed, {} commits timed out, wrong bytes for ops {:?}",
                    phase.write_failed,
                    phase.seen.timed_out,
                    wrong.map(|c| c.pending.op).collect::<Vec<_>>()
                ));
            }
        }
        out.commits = self.stack.commits() - commits_before;
        // Rewrites orphan the previous chunks; reclaim them so memory tracks
        // the live file set, not how many ops this host managed.
        if collect_garbage(&self.stack.objects, USER).is_err() {
            out.failed += 1;
        }
        out.set("sync.conflicts", self.stack.conflicts() as f64);
        out
    }

    fn verify(&mut self, ctx: &Ctx) -> Checks {
        let mut checks = Checks::default();
        for (w, ws) in self.workspaces.iter().enumerate() {
            let items = self.stack.meta.current(ws).unwrap_or_default();
            let written = (0..self.paths.len())
                .filter(|p| self.last_write[p * WORKSPACES + w].1 > 0)
                .count();
            checks.check(items.len() == written, || {
                format!("{ws}: store holds {} items, {written} written", items.len())
            });
            for (p, path) in self.paths.iter().enumerate() {
                let (op, version) = self.last_write[p * WORKSPACES + w];
                let head = items.iter().find(|i| &i.path == path).map(|i| i.version);
                checks.check(head.unwrap_or(0) == version, || {
                    format!("{ws}/{path}: store head {head:?}, last acknowledged write v{version}")
                });
                let want =
                    (version > 0).then(|| fingerprint(&random_bytes(ctx.seed, op, FILE_BYTES)));
                let got = self.watchers[w].read(path).map(|b| fingerprint(&b));
                checks.check(got == want, || {
                    format!("{ws}/{path}: watcher bytes differ from op {op}")
                });
            }
        }
        let lost: u64 = self
            .writers
            .iter()
            .chain(&self.watchers)
            .map(Device::conflicts)
            .sum();
        checks.check(self.stack.conflicts() == 0 && lost == 0, || {
            format!(
                "{} conflicts at the service, {lost} at devices",
                self.stack.conflicts()
            )
        });
        checks
    }

    fn teardown(self) {
        // Each disconnect waits out a listener's 20 ms poll; all at once, so
        // fifteen set-up rounds do not cost seconds of teardown.
        std::thread::scope(|scope| {
            for device in self.writers.into_iter().chain(self.watchers) {
                scope.spawn(move || device.disconnect());
            }
        });
        for link in self.links {
            link.close();
        }
        self.stack.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
