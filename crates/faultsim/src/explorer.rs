//! The schedule explorer: run many seeds, report the first failure with a
//! replayable artifact.
//!
//! Each seed is one independent simulated run ([`crate::sim::run`]); the
//! explorer is just the loop CI and `cargo test` use to sweep seed ranges.
//! When a seed fails, everything needed to replay it — the seed, the
//! violations, the fault schedule, the full history — is carried in the
//! [`SimFailure`] and rendered by [`SimFailure::to_string`]. Replaying is
//! `faultsim::run_seed(SEED)` or `cargo run -p faultsim --bin explore -- SEED 1`.

use crate::sim::{self, SimConfig, SimReport};

/// A seed whose run violated an invariant, with its replay artifact.
#[derive(Debug)]
pub struct SimFailure {
    /// The failing seed — feed it back to [`run_seed`] to replay.
    pub seed: u64,
    /// The invariants that broke.
    pub violations: Vec<String>,
    /// Fault schedule + event history of the failing run.
    pub transcript: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seed {} violated {} invariant(s); replay with faultsim::run_seed({})",
            self.seed,
            self.violations.len(),
            self.seed
        )?;
        write!(f, "{}", self.transcript)
    }
}

/// Runs one seed under the default configuration.
///
/// # Errors
///
/// Returns the failure artifact when the run violates an invariant.
pub fn run_seed(seed: u64) -> Result<SimReport, Box<SimFailure>> {
    run_seed_with(seed, &SimConfig::default())
}

/// Runs one seed under an explicit configuration.
///
/// # Errors
///
/// Returns the failure artifact when the run violates an invariant.
pub fn run_seed_with(seed: u64, config: &SimConfig) -> Result<SimReport, Box<SimFailure>> {
    let report = sim::run(seed, config);
    if report.passed() {
        Ok(report)
    } else {
        Err(Box::new(SimFailure {
            seed,
            violations: report.violations.clone(),
            transcript: report.transcript(),
        }))
    }
}

/// Aggregate of an exploration sweep.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// Seeds that passed before the sweep ended.
    pub passed: u64,
    /// The first failing seed, if any (the sweep stops there).
    pub failure: Option<Box<SimFailure>>,
}

/// Sweeps `count` consecutive seeds starting at `start`, stopping at the
/// first failure.
pub fn explore(start: u64, count: u64, config: &SimConfig) -> ExploreOutcome {
    let mut passed = 0;
    for seed in start..start.saturating_add(count) {
        match run_seed_with(seed, config) {
            Ok(_) => passed += 1,
            Err(failure) => {
                return ExploreOutcome {
                    passed,
                    failure: Some(failure),
                }
            }
        }
    }
    ExploreOutcome {
        passed,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_counts_passes() {
        let outcome = explore(100, 3, &SimConfig::default());
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert_eq!(outcome.passed, 3);
    }

    #[test]
    fn failure_artifact_is_replayable() {
        // Force a failure with an impossible step bound; the artifact must
        // name the seed and carry the transcript.
        let config = SimConfig {
            max_steps: 1,
            ..SimConfig::default()
        };
        let failure = run_seed_with(42, &config).expect_err("1 step cannot drain");
        assert_eq!(failure.seed, 42);
        assert!(!failure.violations.is_empty());
        assert!(failure.to_string().contains("run_seed(42)"));
    }
}
