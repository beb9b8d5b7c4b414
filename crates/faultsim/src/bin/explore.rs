//! Seed-range explorer CLI.
//!
//! ```sh
//! cargo run -p faultsim --bin explore -- <start-seed> <count> [artifact-path] \
//!     [--sharded[=N]] [--durable[=N]] [--kill-restart]
//! ```
//!
//! Sweeps `count` consecutive seeds from `start-seed` through the
//! crash-loop simulation. On the first invariant violation it prints the
//! failing seed with its full schedule + history transcript, optionally
//! writes the transcript to `artifact-path` (what the CI job uploads), and
//! exits non-zero. Replay a failure with the same binary:
//! `explore <failing-seed> 1`.
//!
//! With no flag the stack commits against a one-shard
//! [`metadata::ShardedStore`], the single-database serialization point.
//! `--sharded[=N]` sets the shard count and `--durable[=N]` makes the store
//! WAL-backed ([`metadata::ShardedStore::open_durable`], in a per-run
//! scratch directory) and, given `=N`, sets the shard count too; the two
//! compose, and either flag without a count means 8 shards unless the other
//! gave one. Fingerprints are identical whatever the selection, so a
//! divergence is a sharding or recovery bug. `--kill-restart` switches to
//! the kill-restart sweep ([`faultsim::explore_kills`]): seeded
//! crash-replay of the durable store *and* durable broker, checking no
//! acked commit is lost, nothing double-commits, and unacked publishes are
//! redelivered.

use faultsim::{explore, explore_kills, KillConfig, SimConfig, StoreSelection};

const USAGE: &str =
    "usage: explore <start-seed> <count> [artifact-path] [--sharded[=N]] [--durable[=N]] [--kill-restart]";

/// Shard count of `--sharded` / `--durable` when neither flag names one.
const DEFAULT_SHARDS: usize = 8;

struct Args {
    store: StoreSelection,
    kill_restart: bool,
    positional: Vec<String>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut shards: Option<usize> = None;
    let mut durable = false;
    let mut kill_restart = false;
    let mut positional = Vec::new();
    for arg in args {
        let (flag, count) = match arg.split_once('=') {
            Some((flag, n)) => (flag, Some(n)),
            None => (arg.as_str(), None),
        };
        match flag {
            "--sharded" | "--durable" => {
                durable |= flag == "--durable";
                match count.map(str::parse::<usize>) {
                    None => {
                        shards.get_or_insert(DEFAULT_SHARDS);
                    }
                    Some(Ok(n)) if n > 0 => shards = Some(n),
                    Some(_) => {
                        return Err(format!(
                            "{flag}=N needs a positive shard count, got `{}`",
                            count.unwrap_or_default()
                        ))
                    }
                }
            }
            "--kill-restart" if count.is_none() => kill_restart = true,
            _ => positional.push(arg),
        }
    }
    Ok(Args {
        store: StoreSelection {
            shards: shards.unwrap_or(StoreSelection::default().shards),
            durable,
        },
        kill_restart,
        positional,
    })
}

fn main() {
    let Args {
        store,
        kill_restart,
        positional,
    } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    let (Some(start), Some(count)) = (
        positional.first().and_then(|a| a.parse::<u64>().ok()),
        positional.get(1).and_then(|a| a.parse::<u64>().ok()),
    ) else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let artifact = positional.get(2);

    if kill_restart {
        let (passed, failure) = explore_kills(start, count, &KillConfig::default());
        match failure {
            None => {
                println!(
                    "{passed} kill-restart seed(s) explored from {start}: every invariant held"
                );
                return;
            }
            Some(report) => {
                eprintln!("{}", report.transcript());
                if let Some(path) = artifact {
                    if let Err(e) = std::fs::write(path, report.transcript()) {
                        eprintln!("could not write artifact {path}: {e}");
                    } else {
                        eprintln!("artifact written to {path}");
                    }
                }
                std::process::exit(1);
            }
        }
    }

    let config = SimConfig {
        store,
        ..SimConfig::default()
    };
    let outcome = explore(start, count, &config);
    match outcome.failure {
        None => {
            println!(
                "{} seed(s) explored from {start} against {store:?}: every invariant held",
                outcome.passed
            );
        }
        Some(failure) => {
            eprintln!("{failure}");
            if let Some(path) = artifact {
                if let Err(e) = std::fs::write(path, failure.to_string()) {
                    eprintln!("could not write artifact {path}: {e}");
                } else {
                    eprintln!("artifact written to {path}");
                }
                // The flight recorder rode along through the failing run;
                // dump it next to the transcript so CI uploads both.
                let flight_path = format!("{path}.flight.json");
                match obs::flight::dump_to(&flight_path) {
                    Ok(()) => eprintln!("flight recorder dumped to {flight_path}"),
                    Err(e) => eprintln!("could not write flight dump {flight_path}: {e}"),
                }
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_for(args: &[&str]) -> StoreSelection {
        match parse_args(args.iter().map(|a| a.to_string())) {
            Ok(args) => args.store,
            Err(message) => panic!("{message}"),
        }
    }

    #[test]
    fn store_flags_compose_in_either_order() {
        let sel = |shards, durable| StoreSelection { shards, durable };
        assert_eq!(store_for(&["0", "64"]), StoreSelection::default());
        assert_eq!(store_for(&["0", "64", "--sharded"]), sel(8, false));
        assert_eq!(store_for(&["0", "64", "--durable"]), sel(8, true));
        // Each flag used to overwrite the whole selection: the first of
        // these ran 8 shards, the second dropped durability.
        assert_eq!(store_for(&["--sharded=4", "--durable"]), sel(4, true));
        assert_eq!(store_for(&["--durable=4", "--sharded"]), sel(4, true));
        assert_eq!(store_for(&["--durable", "--sharded=4"]), sel(4, true));
        assert_eq!(store_for(&["--sharded", "--durable=4"]), sel(4, true));
    }

    #[test]
    fn bad_shard_counts_are_refused_and_the_rest_is_positional() {
        assert!(parse_args(["--sharded=0".to_string()].into_iter()).is_err());
        assert!(parse_args(["--durable=x".to_string()].into_iter()).is_err());
        let args = ["3", "--kill-restart", "9", "out.txt"].map(String::from);
        let Ok(args) = parse_args(args.into_iter()) else {
            panic!("valid arguments");
        };
        assert!(args.kill_restart);
        assert_eq!(args.positional, ["3", "9", "out.txt"]);
    }
}
