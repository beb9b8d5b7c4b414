//! Result files: what one pass measured, the set of passes one `run`
//! produced with the host it ran on, the line the driver reads, and the
//! comparison of two result files against the bounds.

use crate::metrics::{self, Better, Def};
use crate::stack::{from_json, to_json, Res, Value};
use crate::stats::Summary;
use crate::sys;
use std::path::Path;

/// One metric of one pass. `summary` is `None` when the number could not be
/// taken (a counter the program no longer exports): reported as `null`,
/// never as a failed run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricValue {
    /// Metric name from the tables.
    pub name: String,
    /// Unit from the tables.
    pub unit: String,
    /// Median over repeats with quartiles and repeat count.
    pub summary: Option<Summary>,
}

/// One (workload, pass) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Workload name.
    pub workload: String,
    /// Traced pass (per-layer metrics) or measured pass (end-to-end).
    pub trace: bool,
    /// Input seed.
    pub seed: u64,
    /// Seconds the pass was asked to measure for.
    pub seconds: f64,
    /// Whether every correctness check held.
    pub correct: bool,
    /// Ops and checks attempted.
    pub attempted: u64,
    /// Ops failed, timed out or delivered wrong, plus checks that failed.
    pub failed: u64,
    /// The metrics of the pass's table, in table order.
    pub metrics: Vec<MetricValue>,
    /// Anything a reader of the numbers must know (flags, demotions).
    pub notes: Vec<String>,
}

/// Facts about the host, stamped into every result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: u64,
    /// Filesystem type of the data directory (the WAL lives there).
    pub data_fs: String,
    /// Soft limit on open files.
    pub fd_limit: u64,
    /// Kernel release.
    pub kernel: String,
    /// Commit of the working tree, `unknown` in an exported checkout.
    pub git_commit: String,
}

impl Host {
    /// Reads the facts for a run whose data lives under `data_dir`.
    pub fn read(data_dir: &Path) -> Host {
        Host {
            nproc: sys::nproc(),
            data_fs: sys::fs_type(data_dir),
            fd_limit: sys::fd_limit(),
            kernel: sys::kernel(),
            git_commit: sys::git_commit(),
        }
    }
}

/// Everything one `stackbench run` produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Host facts.
    pub host: Host,
    /// Seed of every pass.
    pub seed: u64,
    /// Seconds per pass.
    pub seconds: f64,
    /// Wall-clock seconds the whole set took.
    pub wall_seconds: f64,
    /// The passes, measured then traced per workload.
    pub passes: Vec<Pass>,
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl MetricValue {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("name", Value::from(self.name.as_str())),
            ("unit", Value::from(self.unit.as_str())),
        ];
        match &self.summary {
            None => entries.push(("value", Value::Null)),
            Some(s) => entries.extend([
                ("value", Value::F64(s.median)),
                ("q1", Value::F64(s.q1)),
                ("q3", Value::F64(s.q3)),
                ("n", Value::U64(s.n as u64)),
            ]),
        }
        map(entries)
    }

    fn from_value(v: &Value) -> Res<MetricValue> {
        let summary = match v.field("value").map_err(text)? {
            Value::Null => None,
            value => Some(Summary {
                median: value.as_f64().map_err(text)?,
                q1: v.field("q1").and_then(Value::as_f64).map_err(text)?,
                q3: v.field("q3").and_then(Value::as_f64).map_err(text)?,
                n: v.field("n").and_then(Value::as_u64).map_err(text)? as usize,
            }),
        };
        Ok(MetricValue {
            name: v
                .field("name")
                .and_then(Value::as_str)
                .map_err(text)?
                .into(),
            unit: v
                .field("unit")
                .and_then(Value::as_str)
                .map_err(text)?
                .into(),
            summary,
        })
    }
}

impl Pass {
    /// Looks a metric of this pass up by name.
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.summary.as_ref())
    }

    /// The object the driver reads from the last line of standard output:
    /// exactly `correct`, `attempted`, `failed` and `metrics`, each metric a
    /// `value` and a `unit`. A metric that could not be taken reads 0 here;
    /// the result file keeps the `null`.
    pub fn driver_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = m.summary.map_or(0.0, |s| s.median);
                (
                    m.name.clone(),
                    map(vec![
                        ("value", Value::F64(value)),
                        ("unit", Value::from(m.unit.as_str())),
                    ]),
                )
            })
            .collect();
        to_json(&map(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]))
    }

    /// Every metric by name, with unit, quartiles and repeat count.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} ({} pass, seed {}, {} s): {} attempted, {} failed, correct: {}\n",
            self.workload,
            if self.trace { "traced" } else { "measured" },
            self.seed,
            self.seconds,
            self.attempted,
            self.failed,
            self.correct
        );
        for m in &self.metrics {
            match &m.summary {
                None => out += &format!("  {:<34} {:>14} {}\n", m.name, "null", m.unit),
                Some(s) => {
                    out += &format!(
                        "  {:<34} {:>14.4} {:<6} [q1 {:.4}, q3 {:.4}, n {}]\n",
                        m.name, s.median, m.unit, s.q1, s.q3, s.n
                    )
                }
            }
        }
        for note in &self.notes {
            out += &format!("  note: {note}\n");
        }
        out
    }

    /// Lowers the pass for a result file.
    pub fn to_value(&self) -> Value {
        map(vec![
            ("workload", Value::from(self.workload.as_str())),
            ("trace", Value::Bool(self.trace)),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            (
                "failed_frac",
                Value::F64(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "metrics",
                Value::List(self.metrics.iter().map(MetricValue::to_value).collect()),
            ),
            (
                "notes",
                Value::List(self.notes.iter().map(|n| Value::from(n.as_str())).collect()),
            ),
        ])
    }

    /// Parses a pass from a result file.
    pub fn from_value(v: &Value) -> Res<Pass> {
        let list = |key: &str| v.field(key).and_then(Value::as_list).map_err(text);
        Ok(Pass {
            workload: v
                .field("workload")
                .and_then(Value::as_str)
                .map_err(text)?
                .into(),
            trace: v.field("trace").and_then(Value::as_bool).map_err(text)?,
            seed: v.field("seed").and_then(Value::as_u64).map_err(text)?,
            seconds: v.field("seconds").and_then(Value::as_f64).map_err(text)?,
            correct: v.field("correct").and_then(Value::as_bool).map_err(text)?,
            attempted: v.field("attempted").and_then(Value::as_u64).map_err(text)?,
            failed: v.field("failed").and_then(Value::as_u64).map_err(text)?,
            metrics: list("metrics")?
                .iter()
                .map(MetricValue::from_value)
                .collect::<Res<_>>()?,
            notes: list("notes")?
                .iter()
                .map(|n| n.as_str().map(String::from).map_err(text))
                .collect::<Res<_>>()?,
        })
    }
}

impl ResultSet {
    /// Lowers the set for a result file.
    pub fn to_value(&self) -> Value {
        map(vec![
            ("schema", Value::from("stackbench-v1")),
            (
                "host",
                map(vec![
                    ("nproc", Value::U64(self.host.nproc)),
                    ("data_fs", Value::from(self.host.data_fs.as_str())),
                    ("fd_limit", Value::U64(self.host.fd_limit)),
                    ("kernel", Value::from(self.host.kernel.as_str())),
                    ("git_commit", Value::from(self.host.git_commit.as_str())),
                ]),
            ),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("wall_seconds", Value::F64(self.wall_seconds)),
            (
                "passes",
                Value::List(self.passes.iter().map(Pass::to_value).collect()),
            ),
        ])
    }

    /// Parses a result file.
    pub fn from_value(v: &Value) -> Res<ResultSet> {
        let schema = v.field("schema").and_then(Value::as_str).map_err(text)?;
        if schema != "stackbench-v1" {
            return Err(format!("unknown result schema `{schema}`"));
        }
        let host = v.field("host").map_err(text)?;
        let s = |key: &str| {
            host.field(key)
                .and_then(Value::as_str)
                .map(String::from)
                .map_err(text)
        };
        Ok(ResultSet {
            host: Host {
                nproc: host.field("nproc").and_then(Value::as_u64).map_err(text)?,
                data_fs: s("data_fs")?,
                fd_limit: host
                    .field("fd_limit")
                    .and_then(Value::as_u64)
                    .map_err(text)?,
                kernel: s("kernel")?,
                git_commit: s("git_commit")?,
            },
            seed: v.field("seed").and_then(Value::as_u64).map_err(text)?,
            seconds: v.field("seconds").and_then(Value::as_f64).map_err(text)?,
            wall_seconds: v
                .field("wall_seconds")
                .and_then(Value::as_f64)
                .map_err(text)?,
            passes: v
                .field("passes")
                .and_then(Value::as_list)
                .map_err(text)?
                .iter()
                .map(Pass::from_value)
                .collect::<Res<_>>()?,
        })
    }

    /// Reads a result file.
    pub fn load(path: &Path) -> Res<ResultSet> {
        let text_in =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        ResultSet::from_value(&from_json(&text_in)?)
    }

    /// Writes a result file.
    pub fn save(&self, path: &Path) -> Res<()> {
        std::fs::write(path, to_json(&self.to_value()) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Verdict on one (metric, workload) pair of two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The second file is no worse than the first by more than the bound.
    Ok,
    /// The second file is worse by more than the bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so the pair cannot tell.
    Unresolved,
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Median in the first file.
    pub base: f64,
    /// Median in the second file.
    pub change: f64,
    /// By how much the second is worse, as a share of the first (negative
    /// when it is better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// Judges one pair of summaries against a metric's bound.
pub fn judge(def: &Def, base: &Summary, change: &Summary) -> (f64, Verdict) {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    let sign = match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if base.median == 0.0 {
        0.0
    } else {
        sign * (change.median - base.median) / base.median.abs()
    };
    // With spread wider than the bound the medians cannot be told apart,
    // unless the quartile ranges do not even overlap in the change's favour.
    let clearly_better = match def.better {
        Better::Lower => change.q3 < base.q1,
        Better::Higher => change.q1 > base.q3,
    };
    let verdict = if base.spread().max(change.spread()) > bound && !clearly_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares the measured passes of two result files on every end-to-end
/// (metric, workload) pair both contain.
pub fn compare(base: &ResultSet, change: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    for a in base.passes.iter().filter(|p| !p.trace) {
        let Some(b) = change
            .passes
            .iter()
            .find(|p| !p.trace && p.workload == a.workload)
        else {
            continue;
        };
        for def in metrics::END_TO_END {
            let (Some(x), Some(y)) = (a.metric(def.name), b.metric(def.name)) else {
                continue;
            };
            let (worse_by, verdict) = judge(def, x, y);
            rows.push(Row {
                workload: a.workload.clone(),
                metric: def.name,
                base: x.median,
                change: y.median,
                worse_by,
                bound: def.bound.unwrap_or(f64::INFINITY),
                verdict,
            });
        }
    }
    rows
}

/// Renders comparison rows, one per line, and a summary.
pub fn render_comparison(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<24} {:>14} {:>14} {:>9} {:>6}  verdict\n",
        "workload", "metric", "base", "change", "worse by", "bound"
    );
    for r in rows {
        out += &format!(
            "{:<16} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.change,
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out += &format!(
        "{} ok, {} regressed, {} unresolved\n",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> ResultSet {
        let m = |name: &str, unit: &str, s: Option<Summary>| MetricValue {
            name: name.into(),
            unit: unit.into(),
            summary: s,
        };
        let s = |median: f64| Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        };
        ResultSet {
            host: Host {
                nproc: 2,
                data_fs: "ext4".into(),
                fd_limit: 20000,
                kernel: "6.1".into(),
                git_commit: "abc".into(),
            },
            seed: u64::MAX,
            seconds: 15.0,
            wall_seconds: 1.5,
            passes: vec![
                Pass {
                    workload: "meta_commit".into(),
                    trace: false,
                    seed: u64::MAX,
                    seconds: 15.0,
                    correct: true,
                    attempted: 1000,
                    failed: 0,
                    metrics: vec![
                        m("sync_p50_ms", "ms", Some(s(1.25))),
                        m("rss_peak_mb", "MiB", Some(s(40.0))),
                    ],
                    notes: vec!["a \"quoted\" note".into()],
                },
                Pass {
                    workload: "meta_commit".into(),
                    trace: true,
                    seed: u64::MAX,
                    seconds: 15.0,
                    correct: true,
                    attempted: 10,
                    failed: 0,
                    metrics: vec![m("wal.fsyncs_per_commit", "ratio", None)],
                    notes: vec![],
                },
            ],
        }
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let set = sample_set();
        let text = to_json(&set.to_value());
        let back = ResultSet::from_value(&from_json(&text).unwrap()).unwrap();
        assert_eq!(back, set);
        assert!(text.contains("\"value\":null"));
        assert!(ResultSet::from_value(&from_json("{\"schema\":\"other\"}").unwrap()).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let set = sample_set();
        let line = set.passes[0].driver_line();
        assert!(!line.contains('\n'));
        let v = from_json(&line).unwrap();
        let Value::Map(entries) = &v else { panic!() };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.field("metrics").unwrap().field("sync_p50_ms").unwrap();
        assert_eq!(p50.field("value").unwrap().as_f64().unwrap(), 1.25);
        assert_eq!(p50.field("unit").unwrap().as_str().unwrap(), "ms");
        // A metric that could not be taken still prints a number.
        let line = set.passes[1].driver_line();
        assert!(line.contains("\"wal.fsyncs_per_commit\":{\"value\":0.0"));
    }

    #[test]
    fn compare_applies_direction_bound_and_spread() {
        let def = |better| Def {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.1),
        };
        let (lower, higher) = (&def(Better::Lower), &def(Better::Higher));
        let tight = |median: f64| Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        };
        let wide = |median: f64| Summary {
            median,
            q1: median * 0.8,
            q3: median * 1.2,
            n: 5,
        };
        assert_eq!(judge(lower, &tight(1.0), &tight(1.05)).1, Verdict::Ok);
        assert_eq!(judge(lower, &tight(1.0), &tight(1.2)).1, Verdict::Regressed);
        assert_eq!(judge(lower, &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        assert_eq!(
            judge(higher, &tight(100.0), &tight(80.0)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(higher, &tight(100.0), &tight(120.0)).1, Verdict::Ok);
        assert_eq!(judge(lower, &wide(1.0), &tight(1.0)).1, Verdict::Unresolved);
        // Wide spread, but the change's runs all beat the parent's.
        assert_eq!(judge(lower, &wide(1.0), &tight(0.5)).1, Verdict::Ok);
        let (worse, _) = judge(higher, &tight(100.0), &tight(80.0));
        assert!((worse - 0.2).abs() < 1e-12);

        // Through the tables: sync_p50_ms doubles, rss_peak_mb stays.
        let base = sample_set();
        let mut change = sample_set();
        change.passes[0].metrics[0].summary = Some(tight(2.5));
        let rows = compare(&base, &change);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(render_comparison(&rows).contains("1 ok, 1 regressed, 0 unresolved"));
    }
}
