//! `stackbench`: the repository's sync-time benchmark.
//!
//! ```text
//! stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--smoke]
//! stackbench run --seed <n> --out <file> [--seconds <s>] [--smoke]
//! stackbench compare <a.json> <b.json>
//! ```
//!
//! The first form runs one (workload, pass) and is what the driver calls:
//! it prints every metric by name with its unit, then one JSON object on the
//! last line. `run` re-executes this binary once per (workload, pass), so
//! peak memory and the process-wide client reactor are per workload, and
//! gathers the passes with the host's facts into one result file. `compare`
//! judges two result files against the bounds. See `README.md`.

mod detect;
mod gen;
mod harness;
mod metrics;
mod probes;
mod result;
mod spans;
mod stack;
mod stats;
mod sys;
mod workloads;

use harness::{run_pass, Ctx};
use result::{Host, Pass, ResultSet, Verdict};
use stack::{from_json, to_json, Res, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seconds per pass when `run` is not told otherwise; `BENCHMARK.json` asks
/// the driver for the same.
const DEFAULT_SECONDS: f64 = 15.0;

/// Exit code of a run whose outputs were wrong.
const EXIT_INCORRECT: u8 = 1;
/// Exit code of a run that could not be made (bad arguments, set-up error).
const EXIT_UNUSABLE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("stackbench: {message}");
            ExitCode::from(EXIT_UNUSABLE)
        }
    }
}

/// `--name value` pairs and bare flags, checked against what a form accepts.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], valued: &[&str], bare: &[&str]) -> Res<Flags<'a>> {
        let mut i = 0;
        while i < args.len() {
            if valued.contains(&args[i].as_str()) {
                if i + 1 >= args.len() {
                    return Err(format!("{} needs a value", args[i]));
                }
                i += 2;
            } else if bare.contains(&args[i].as_str()) {
                i += 1;
            } else {
                return Err(format!("unexpected argument `{}`", args[i]));
            }
        }
        Ok(Flags { args })
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {name}")))
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Res<T> {
        self.parsed(name)?
            .ok_or_else(|| format!("{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }
}

/// A directory for this process beside the executable, so it is inside
/// the checkout's build directory wherever that is, and on its filesystem.
fn data_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("stackbench-data")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn pass_of(workload: &str, ctx: &Ctx) -> Res<Pass> {
    use workloads::*;
    match workload {
        "meta_commit" => run_pass::<meta_commit::MetaCommit>(ctx),
        "bulk_upload" => run_pass::<bulk_upload::BulkUpload>(ctx),
        "cold_join" => run_pass::<cold_join::ColdJoin>(ctx),
        "restart_recover" => run_pass::<restart_recover::RestartRecover>(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// One (workload, pass): the form the driver calls.
fn run_one(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
        &["--smoke"],
    )?;
    let workload: String = flags.required("--workload")?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match flags.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let data_dir = data_dir()?;
    let ctx = Ctx {
        seed: flags.required("--seed")?,
        seconds,
        trace,
        smoke: flags.has("--smoke"),
        data_dir: data_dir.clone(),
    };
    let pass = pass_of(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&data_dir);
    let pass = pass?;

    if let Some(out) = flags.value("--out") {
        std::fs::write(out, to_json(&pass.to_value()) + "\n").map_err(|e| format!("{out}: {e}"))?;
        if trace {
            write_spans(Path::new(&format!("{out}.spans.jsonl")))?;
        }
    }
    print!("{}", pass.table());
    println!("{}", pass.driver_line());
    Ok(if pass.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// One span per line, each a JSON object.
fn write_spans(path: &Path) -> Res<()> {
    let mut text = String::new();
    for span in spans::snapshot() {
        let entry = |k: &str, v: Value| (k.to_string(), v);
        text += &to_json(&Value::Map(vec![
            entry("name", Value::from(span.name)),
            entry("id", Value::U64(span.id)),
            entry("parent", Value::U64(span.parent)),
            entry("op", Value::U64(span.op)),
            entry("start_ns", Value::U64(span.start_ns)),
            entry("end_ns", Value::U64(span.end_ns)),
        ]));
        text.push('\n');
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// All four workloads, both passes each, into one result file.
fn run_all(args: &[String]) -> Res<ExitCode> {
    let flags = Flags::parse(args, &["--seed", "--out", "--seconds"], &["--smoke"])?;
    let seed: u64 = flags.required("--seed")?;
    let out: String = flags.required("--out")?;
    let seconds = flags.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut all_correct = true;
    for (workload, _) in metrics::WORKLOADS {
        for trace in ["0", "1"] {
            let pass_file = format!("{out}.{workload}.{trace}");
            let mut child = std::process::Command::new(&exe);
            child
                .args([
                    "--workload",
                    workload,
                    "--trace",
                    trace,
                    "--out",
                    &pass_file,
                ])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
            if flags.has("--smoke") {
                child.arg("--smoke");
            }
            // The child's table goes straight to our stdout; its result
            // comes back through the pass file.
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = std::fs::read_to_string(&pass_file).map_err(|_| {
                format!("{workload} (trace {trace}) ended with {status} and no result")
            })?;
            let _ = std::fs::remove_file(&pass_file);
            let pass = Pass::from_value(&from_json(&text)?)?;
            all_correct &= pass.correct && status.success();
            passes.push(pass);
        }
    }
    let data_dir = data_dir()?;
    let set = ResultSet {
        host: Host::read(&data_dir),
        seed,
        seconds,
        wall_seconds: started.elapsed().as_secs_f64(),
        passes,
    };
    let _ = std::fs::remove_dir_all(&data_dir);
    set.save(Path::new(&out))?;
    println!(
        "wrote {out}: {} passes in {:.0} s on {} cores, data on {}, commit {}",
        set.passes.len(),
        set.wall_seconds,
        set.host.nproc,
        set.host.data_fs,
        set.host.git_commit
    );
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

/// Two result files against the bounds.
fn compare(args: &[String]) -> Res<ExitCode> {
    let [base, change] = args else {
        return Err("usage: stackbench compare <a.json> <b.json>".into());
    };
    let (base, change) = (
        ResultSet::load(Path::new(base))?,
        ResultSet::load(Path::new(change))?,
    );
    for (label, set) in [("base", &base), ("change", &change)] {
        println!(
            "{label}: seed {}, {} s per pass, {} cores, data on {}, kernel {}, fd limit {}, commit {}",
            set.seed,
            set.seconds,
            set.host.nproc,
            set.host.data_fs,
            set.host.kernel,
            set.host.fd_limit,
            set.host.git_commit
        );
    }
    let rows = result::compare(&base, &change);
    print!("{}", result::render_comparison(&rows));
    let incorrect = base.passes.iter().chain(&change.passes).any(|p| !p.correct);
    if incorrect {
        println!("a pass failed its correctness checks: its numbers do not count");
    }
    let regressed = rows.iter().any(|r| r.verdict == Verdict::Regressed);
    Ok(if regressed || incorrect {
        ExitCode::from(EXIT_INCORRECT)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_reject_what_a_form_does_not_accept() {
        let args = strings(&["--seed", "7", "--smoke"]);
        let flags = Flags::parse(&args, &["--seed"], &["--smoke"]).unwrap();
        assert_eq!(flags.required::<u64>("--seed"), Ok(7));
        assert!(flags.has("--smoke"));
        assert!(flags.required::<u64>("--seconds").is_err());
        assert!(Flags::parse(&strings(&["--sede", "7"]), &["--seed"], &[]).is_err());
        assert!(Flags::parse(&strings(&["--seed"]), &["--seed"], &[]).is_err());
        let bad = strings(&["--seed", "x"]);
        assert!(Flags::parse(&bad, &["--seed"], &[])
            .unwrap()
            .required::<u64>("--seed")
            .is_err());
    }

    /// One shrunk pass. Passes flip process-wide switches (span recording,
    /// the program's instrumentation), so they run one at a time.
    fn smoke(workload: &str, seed: u64, trace: bool) -> Pass {
        timed_smoke(workload, seed, trace).0
    }

    fn timed_smoke(workload: &str, seed: u64, trace: bool) -> (Pass, std::time::Duration) {
        let _one_at_a_time = spans::test_lock();
        let started = Instant::now();
        let data_dir = data_dir()
            .unwrap()
            .join(format!("{workload}-{seed}-{trace}"));
        let ctx = Ctx {
            seed,
            seconds: 0.6,
            trace,
            smoke: true,
            data_dir: data_dir.clone(),
        };
        let pass = pass_of(workload, &ctx).unwrap();
        let _ = std::fs::remove_dir_all(&data_dir);
        (pass, started.elapsed())
    }

    /// All four workloads against the real stack, shrunk: API drift breaks
    /// this test and not a later performance claim.
    #[test]
    fn smoke_run_of_all_four_workloads_is_correct_and_quick() {
        let mut spent = std::time::Duration::ZERO;
        for (workload, _) in metrics::WORKLOADS {
            let (measured, took) = timed_smoke(workload, 11, false);
            spent += took;
            assert!(measured.correct, "{}", measured.table());
            assert_eq!(measured.metrics.len(), metrics::END_TO_END.len());
            for m in &measured.metrics {
                let s = m
                    .summary
                    .unwrap_or_else(|| panic!("{workload}: {} is null", m.name));
                assert!(
                    s.median > 0.0 && s.median.is_finite(),
                    "{workload}: {} = {}",
                    m.name,
                    s.median
                );
            }
            let (traced, took) = timed_smoke(workload, 11, true);
            spent += took;
            assert!(traced.correct, "{}", traced.table());
            assert_eq!(traced.metrics.len(), metrics::PER_LAYER.len());
            assert!(traced.metric("wal.append_sync_p50_us").unwrap().median > 0.0);
        }
        assert!(spent.as_secs() < 10, "smoke run took {spent:?}");
    }

    /// Same seed: same inputs, so the exact-count metrics repeat exactly.
    /// (That another seed gives other inputs is `gen`'s test: the counts
    /// themselves are built not to move with the seed.)
    #[test]
    fn exact_count_metrics_repeat_with_the_seed() {
        let bytes = |pass: &Pass| pass.metric("overhead_bytes_per_op").unwrap().median;
        for (workload, _) in metrics::WORKLOADS {
            let (a, b) = (smoke(workload, 5, false), smoke(workload, 5, false));
            assert!(a.correct && b.correct);
            assert_eq!(
                bytes(&a),
                bytes(&b),
                "{workload}: same seed, different count"
            );
        }
    }
}
