//! Runs one (workload, pass): set-up (several times, timed), repeats until
//! the measuring time is spent, correctness checks, and in the traced pass
//! the layer probes. Reduces per-repeat statistics to a median with
//! quartiles; the first repeat warms up and is discarded.

use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::result::{MetricValue, Pass};
use crate::stack::{self, Res};
use crate::stats::{median, percentile, Summary};
use crate::{probes, spans, sys};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// An op that has not completed by then is a failure (and stops blocking
/// the run).
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// What one pass was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or measured pass (end-to-end).
    pub trace: bool,
    /// Shrink every size so all four workloads finish in seconds; numbers
    /// from a smoke run mean nothing, only the checks do.
    pub smoke: bool,
    /// Fresh directory of this process for WALs and store copies.
    pub data_dir: PathBuf,
}

impl Ctx {
    /// `full` normally, `small` under `--smoke`.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.smoke {
            small
        } else {
            full
        }
    }
}

/// What one repeat measured.
#[derive(Debug, Default)]
pub struct Repeat {
    /// Ops issued.
    pub attempted: u64,
    /// Ops failed, timed out, or delivered wrong bytes.
    pub failed: u64,
    /// Per-repeat statistics by metric name (either table).
    pub values: Vec<(&'static str, f64)>,
    /// Process CPU spent on `cpu_ops` ops, when the repeat measured it
    /// itself; otherwise the harness brackets the whole repeat.
    pub cpu: Option<(f64, u64)>,
    /// Commits the service pool processed, for per-commit counter ratios.
    pub commits: u64,
    /// What failed, for the operator.
    pub notes: Vec<String>,
}

impl Repeat {
    /// Records one per-repeat statistic.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records the median of `samples` (scaled) if there are any.
    pub fn set_p50(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if let Some(m) = median(samples) {
            self.set(name, m * scale);
        }
    }
}

/// Outcome of the end-of-run correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed, for the operator.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one check; `what` is reported when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }
}

/// How a workload divides its measuring time into repeats.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// One op (or pair, or cycle) per repeat, repeated until the time is
    /// spent. For ops long enough to be a repeat on their own.
    OpPerRepeat,
    /// Repeats of about this length, repeated until the time is spent.
    Timed(Duration),
    /// Exactly this many repeats, each sized for this length. The ops of a
    /// run are then fixed by the seed and `--seconds`, whatever the host.
    Fixed(usize, Duration),
}

/// A workload: inputs from the seed, ops against the stack, checks.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Builds the stack and the inputs under `dir`. Timed as `setup_s`.
    fn setup(ctx: &Ctx, dir: PathBuf) -> Res<Self>;

    /// One repeat lasting about `budget`. Repeat 0 is the warm-up; it also
    /// yields the exact-count metrics, because its ops are fixed by the seed.
    fn repeat(&mut self, ctx: &Ctx, index: usize, budget: Duration) -> Repeat;

    /// How the workload divides a measuring phase of length `phase`.
    fn plan(phase: Duration) -> Plan;

    /// End-of-run correctness checks.
    fn verify(&mut self, ctx: &Ctx) -> Checks;

    /// Stops everything `setup` started and removes its directory.
    fn teardown(self);

    /// One timed set-up round in a directory of its own.
    fn setup_timed(ctx: &Ctx, round: usize, times: &mut Vec<f64>) -> Res<Self> {
        let started = Instant::now();
        let workload = Self::setup(ctx, ctx.data_dir.join(format!("setup-{round}")))?;
        times.push(started.elapsed().as_secs_f64());
        Ok(workload)
    }
}

/// `setup_s` is the median over this many set-ups at least, ...
const MIN_SETUP_ROUNDS: usize = 3;
/// ... and over more when set-up is cheap: rounds continue until they have
/// taken this long in total or there are `MAX_SETUP_ROUNDS` of them, because
/// a 20 ms set-up is mostly thread spawns and fsyncs and jitters accordingly.
const CHEAP_SETUP_TOTAL: Duration = Duration::from_millis(1500);
const MAX_SETUP_ROUNDS: usize = 15;

/// Share of a traced pass spent on the workload itself; the probes get the
/// rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.3;

/// Span name → per-layer metric it feeds, with the scale from seconds.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("sync.write_file", "sync.write_file_p50_us", 1e6),
    ("sync.notify_wait", "sync.notify_wait_p50_us", 1e6),
    ("sync.add", "sync.add_p50_ms", 1e3),
    ("sync.update", "sync.update_p50_ms", 1e3),
    ("sync.get_changes", "sync.get_changes_p50_ms", 1e3),
    ("sync.materialize", "sync.materialize_p50_ms", 1e3),
    ("net.dial", "net.dial_p50_us", 1e6),
    (
        "metadata.recover_replay",
        "metadata.recover_replay_p50_ms",
        1e3,
    ),
    (
        "metadata.recover_snapshot",
        "metadata.recover_snapshot_p50_ms",
        1e3,
    ),
    ("metadata.checkpoint", "metadata.checkpoint_p50_ms", 1e3),
];

/// What a counter delta is divided by.
#[derive(Clone, Copy)]
enum Per {
    /// Commits the service pool processed in the same repeats.
    Commit,
    /// The delta of another exported counter.
    Counter(&'static str),
    /// Nothing: the delta itself.
    Run,
}

/// Per-layer metrics that are deltas of counters the program exports
/// (exposition names), taken over the repeats that ran with its
/// instrumentation on.
const COUNTER_RATIOS: &[(&str, &str, Per)] = &[
    (
        "wal.fsyncs_per_commit",
        "wal_fsync_seconds_count",
        Per::Commit,
    ),
    (
        "wal.bytes_per_commit",
        "wal_flushed_bytes_total",
        Per::Commit,
    ),
    (
        "wal.group_size_mean",
        "wal_appends_total",
        Per::Counter("wal_fsync_seconds_count"),
    ),
    (
        "net.frames_per_syscall",
        "net_tx_frames_total",
        Per::Counter("net_tx_syscalls_total"),
    ),
    (
        "net.wire_bytes_per_commit",
        "net_tx_bytes_total",
        Per::Commit,
    ),
    ("objectmq.call_retries", "omq_call_retries_total", Per::Run),
];

/// Runs one pass of workload `W`.
pub fn run_pass<W: Workload>(ctx: &Ctx) -> Res<Pass> {
    spans::set_enabled(ctx.trace);
    stack::obs_off();

    // Set-up, several times; the last one is kept.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut workload = W::setup_timed(ctx, 0, &mut setup_times)?;
    while !ctx.smoke
        && (setup_times.len() < MIN_SETUP_ROUNDS
            || (setup_times.len() < MAX_SETUP_ROUNDS
                && setup_times.iter().sum::<f64>() < CHEAP_SETUP_TOTAL.as_secs_f64()))
    {
        W::teardown(workload);
        workload = W::setup_timed(ctx, setup_times.len(), &mut setup_times)?;
    }

    // Repeats.
    let phase = Duration::from_secs_f64(if ctx.trace {
        ctx.seconds * TRACED_WORKLOAD_SHARE
    } else {
        ctx.seconds
    });
    let (budget, fixed_repeats) = match W::plan(phase) {
        Plan::OpPerRepeat => (Duration::ZERO, None),
        Plan::Timed(budget) => (budget, None),
        Plan::Fixed(repeats, budget) => (budget, Some(repeats)),
    };
    let mut per_repeat: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut exact: Vec<(&'static str, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_notes: Vec<String> = Vec::new();
    let (mut cpu_ms, mut cpu_ops) = (0.0f64, 0u64);
    let mut obs_rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut counters = CounterDeltas::default();
    let window = Instant::now();
    let mut index = 0;
    while match fixed_repeats {
        Some(repeats) => index < repeats,
        None => index < 2 || window.elapsed() + budget / 2 < phase,
    } {
        // In the traced pass the program's own instrumentation is on in
        // every other repeat, so its cost shows as a throughput ratio.
        let obs_on = ctx.trace && index % 2 == 1;
        if obs_on {
            stack::obs_on();
            counters.open();
        }
        sys::reset_rss_peak();
        let cpu_before = sys::cpu_ms();
        let repeat = workload.repeat(ctx, index, budget);
        let cpu_after = sys::cpu_ms();
        if let Some(mb) = sys::rss_peak_mb().filter(|_| index > 0) {
            per_repeat.entry("rss_peak_mb").or_default().push(mb);
        }
        if obs_on {
            counters.close(repeat.commits);
            stack::obs_off();
        }
        attempted += repeat.attempted;
        failed += repeat.failed;
        op_notes.extend(repeat.notes.iter().take(8 - op_notes.len().min(8)).cloned());
        if index == 0 {
            // Warm-up: timings are discarded, exact counts are kept.
            exact = repeat
                .values
                .iter()
                .filter(|(name, _)| is_exact(name))
                .copied()
                .collect();
            spans::clear();
        } else {
            let cpu = repeat
                .cpu
                .or_else(|| Some((cpu_after? - cpu_before?, repeat.attempted - repeat.failed)));
            if let Some((ms, ops)) = cpu.filter(|(_, ops)| *ops > 0) {
                cpu_ms += ms;
                cpu_ops += ops;
                per_repeat
                    .entry("cpu_ms_per_op")
                    .or_default()
                    .push(ms / ops as f64);
            }
            for (name, value) in &repeat.values {
                if !is_exact(name) {
                    per_repeat.entry(name).or_default().push(*value);
                }
                if ctx.trace && *name == "sync.ops_per_s" {
                    obs_rates[usize::from(obs_on)].push(*value);
                }
            }
        }
        index += 1;
    }
    let measured_repeats = index - 1;

    // Checks.
    let checks = workload.verify(ctx);
    attempted += checks.attempted;
    failed += checks.failed;
    let mut notes = op_notes;
    notes.extend(checks.notes);

    // Reduce.
    let mut values: BTreeMap<&'static str, Summary> = per_repeat
        .iter()
        .filter_map(|(name, v)| Some((*name, Summary::of(v)?)))
        .collect();
    for (name, value) in exact {
        values.insert(name, Summary::single(value));
    }
    if let Some(cpu) = values.get_mut("cpu_ms_per_op") {
        // `/proc` counts CPU in 10 ms ticks, too coarse for one repeat: the
        // value is the total over all measured repeats, the quartiles stay
        // those of the per-repeat ratios.
        cpu.median = cpu_ms / cpu_ops as f64;
    }
    if let Some(s) = Summary::of(&setup_times) {
        values.insert("setup_s", s);
    }

    let mut missing = Vec::new();
    if ctx.trace {
        for (span, metric, scale) in SPAN_METRICS {
            let d = spans::durations(span);
            if let Some(m) = median(&d) {
                values.insert(
                    metric,
                    Summary {
                        n: d.len(),
                        ..Summary::single(m * scale)
                    },
                );
            }
        }
        counters.reduce(&mut values, &mut missing);
        if let (Some(on), Some(off)) = (median(&obs_rates[1]), median(&obs_rates[0])) {
            if off > 0.0 {
                values.insert("obs.overhead_frac", Summary::single(1.0 - on / off));
            }
        }
        values.insert("bench.samples", Summary::single(measured_repeats as f64));

        let probe_time = Duration::from_secs_f64(ctx.seconds * (1.0 - TRACED_WORKLOAD_SHARE));
        for (name, summary) in probes::run(ctx, W::NAME, probe_time)? {
            // A number the workload measured on the real stack wins over
            // the same layer probed in isolation.
            values.entry(name).or_insert(summary);
        }
        layer_budget(&mut values);
        if let (Some(late), Some(p50)) =
            (values.get("bench.late_p99_ms"), values.get("sync_p50_ms"))
        {
            if late.median > p50.median {
                notes.push(format!(
                    "generator-limited: bench.late_p99_ms {:.3} exceeds the paced sync_p50_ms {:.3}",
                    late.median, p50.median
                ));
            }
        }
    }
    W::teardown(workload);

    let table: &[Def] = if ctx.trace { PER_LAYER } else { END_TO_END };
    let metrics = table
        .iter()
        .map(|def| MetricValue {
            name: def.name.into(),
            unit: def.unit.into(),
            summary: if missing.contains(&def.name) {
                None
            } else {
                // A layer this workload does not exercise reads 0.
                Some(
                    values
                        .get(def.name)
                        .copied()
                        .unwrap_or(Summary::single(0.0)),
                )
            },
        })
        .collect();
    for name in &missing {
        notes.push(format!("{name}: a counter it needs is no longer exported"));
    }
    Ok(Pass {
        workload: W::NAME.into(),
        trace: ctx.trace,
        seed: ctx.seed,
        seconds: ctx.seconds,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Metrics that are counts fixed by the seed: taken from the warm-up
/// repeat, whose ops do not depend on how fast the host is.
fn is_exact(name: &str) -> bool {
    matches!(
        name,
        "overhead_bytes_per_op"
            | "sync.control_bytes_per_commit"
            | "storage.stored_bytes_per_user_byte"
            | "metadata.disk_bytes_per_commit"
            | "metadata.snapshot_bytes"
            | "metadata.replayed_records"
    )
}

/// Sums deltas of the program's exported counters over the repeats that
/// ran with its instrumentation on.
#[derive(Default)]
struct CounterDeltas {
    before: BTreeMap<String, f64>,
    totals: BTreeMap<String, f64>,
    seen: std::collections::BTreeSet<String>,
    commits: u64,
}

impl CounterDeltas {
    fn open(&mut self) {
        self.before = stack::registry();
    }

    fn close(&mut self, commits: u64) {
        self.commits += commits;
        for (name, after) in stack::registry() {
            let before = self.before.get(&name).copied().unwrap_or(0.0);
            *self.totals.entry(name.clone()).or_default() += after - before;
            self.seen.insert(name);
        }
    }

    fn reduce(
        &self,
        values: &mut BTreeMap<&'static str, Summary>,
        missing: &mut Vec<&'static str>,
    ) {
        if self.seen.is_empty() {
            return;
        }
        for (metric, numerator, per) in COUNTER_RATIOS {
            let other = match per {
                Per::Counter(name) => Some(*name),
                Per::Commit | Per::Run => None,
            };
            if [Some(*numerator), other]
                .iter()
                .flatten()
                .any(|n| !self.seen.contains(*n))
            {
                // A workload without commits never creates the WAL's
                // counters: that reads 0, it is not a vanished counter.
                if self.commits > 0 {
                    missing.push(metric);
                }
                continue;
            }
            let top = self.totals[*numerator];
            let bottom = match per {
                Per::Commit => self.commits as f64,
                Per::Counter(name) => self.totals[*name],
                Per::Run => 1.0,
            };
            if bottom > 0.0 {
                values.insert(metric, Summary::single(top / bottom));
            }
        }
    }
}

/// `layers.sum_p50_ms`: the critical path of one small commit rebuilt from
/// numbers taken outside the program, and the share of the measured
/// unloaded sync time it leaves unexplained.
fn layer_budget(values: &mut BTreeMap<&'static str, Summary>) {
    let get = |name: &str| values.get(name).map(|s| s.median);
    let (Some(closed_ms), Some(write_us), Some(rtt_us), Some(dispatch_us)) = (
        get("sync.closed_p50_ms"),
        get("sync.write_file_p50_us"),
        get("net.pubsub_rtt_p50_us"),
        get("sync.dispatch_commit_p50_us"),
    ) else {
        return;
    };
    let fsync_us = (get("metadata.durable_commit_p50_us").unwrap_or(0.0)
        - get("metadata.commit_p50_us").unwrap_or(0.0))
    .max(0.0);
    let fetch_us = get("storage.get_p50_us").unwrap_or(0.0)
        + get("content.verify_chunk_p50_us").unwrap_or(0.0);
    let sum_ms = (write_us + 2.0 * rtt_us + dispatch_us + fsync_us + fetch_us) / 1e3;
    values.insert("layers.sum_p50_ms", Summary::single(sum_ms));
    if closed_ms > 0.0 {
        values.insert(
            "layers.unattributed_frac",
            Summary::single(1.0 - sum_ms / closed_ms),
        );
    }
}

/// Reduces latencies (seconds) to the statistics a latency phase reports.
pub fn latency_stats(latencies: &[f64]) -> Option<(f64, f64)> {
    Some((median(latencies)? * 1e3, percentile(latencies, 0.99)? * 1e3))
}
