//! The three-parameter trace generator (paper §5.2.1): from `(initial
//! files, training iterations, snapshots)` to a sequence of ADD / UPDATE /
//! REMOVE operations with sizes and change patterns.

use crate::changes::ChangePattern;
use crate::markov::{FileState, MarkovModel};
use crate::sizes::FileSizeDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Threshold under which files are eligible for UPDATE patterns (the paper
/// only modifies files smaller than 4 MB).
pub const UPDATE_SIZE_LIMIT: u64 = 4 * 1024 * 1024;

/// One operation in a generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// A file is created with the given size; `content_seed` makes its
    /// bytes reproducible.
    Add {
        /// Workspace-relative path.
        path: String,
        /// File size in bytes.
        size: u64,
        /// Seed for deterministic content generation.
        content_seed: u64,
    },
    /// An existing file is modified.
    Update {
        /// Workspace-relative path.
        path: String,
        /// Where the change lands.
        pattern: ChangePattern,
        /// Bytes touched per edit location.
        edit_size: usize,
        /// Seed for the edit bytes.
        content_seed: u64,
    },
    /// An existing file is removed.
    Remove {
        /// Workspace-relative path.
        path: String,
    },
}

impl TraceOp {
    /// The path the operation touches.
    pub fn path(&self) -> &str {
        match self {
            TraceOp::Add { path, .. } | TraceOp::Update { path, .. } | TraceOp::Remove { path } => {
                path
            }
        }
    }
}

/// Generator parameters. The defaults are the paper's (20 initial files, 5
/// training iterations, 100 snapshots) plus calibration constants chosen
/// to reproduce the paper's trace statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Files present before the first snapshot.
    pub initial_files: usize,
    /// Warm-up Markov steps applied before recording begins.
    pub training_iterations: usize,
    /// Number of recorded snapshots.
    pub snapshots: usize,
    /// Expected new files per snapshot (the paper's trace has ≈9.4).
    pub adds_per_snapshot: f64,
    /// Bytes touched per UPDATE edit location (the paper's 72 UPDATEs
    /// moved ≈14 KB in total ⇒ ≈200 B each).
    pub edit_size: usize,
    /// File-size distribution for ADDs.
    pub sizes: FileSizeDist,
    /// The lifecycle model.
    pub model: MarkovModel,
    /// RNG seed (the trace is fully deterministic given the config).
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            initial_files: 20,
            training_iterations: 5,
            snapshots: 100,
            adds_per_snapshot: 9.4,
            edit_size: 200,
            sizes: FileSizeDist::paper(),
            model: MarkovModel::homes(),
            seed: 2014,
        }
    }
}

impl GeneratorConfig {
    /// A miniature configuration for fast tests and examples.
    pub fn test_scale() -> Self {
        GeneratorConfig {
            initial_files: 5,
            training_iterations: 2,
            snapshots: 20,
            adds_per_snapshot: 2.0,
            edit_size: 32,
            sizes: FileSizeDist::test_scale(),
            model: MarkovModel::homes(),
            seed: 7,
        }
    }
}

/// A generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Operations in execution order.
    pub ops: Vec<TraceOp>,
}

/// Aggregate statistics of a trace (the numbers §5.2.1 reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Number of ADD operations.
    pub adds: usize,
    /// Number of UPDATE operations.
    pub updates: usize,
    /// Number of REMOVE operations.
    pub removes: usize,
    /// Total bytes introduced by ADDs.
    pub add_volume: u64,
    /// Mean ADD size in bytes.
    pub avg_file_size: u64,
}

impl Trace {
    /// Generates the trace for a configuration.
    pub fn generate(config: &GeneratorConfig) -> Trace {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut ops = Vec::new();
        // Live files: (path, size, state).
        let mut live: Vec<(String, u64, FileState)> = Vec::new();
        let mut next_file = 0usize;

        let add_file = |ops: &mut Vec<TraceOp>,
                        live: &mut Vec<(String, u64, FileState)>,
                        rng: &mut StdRng,
                        next_file: &mut usize,
                        record: bool| {
            let path = format!("dir{:02}/file{:05}.dat", *next_file % 20, *next_file);
            *next_file += 1;
            let size = config.sizes.sample(rng);
            let seed = rng.gen::<u64>();
            if record {
                ops.push(TraceOp::Add {
                    path: path.clone(),
                    size,
                    content_seed: seed,
                });
            }
            live.push((path, size, FileState::New));
        };

        // Initial population (recorded as ADDs: executing the trace must
        // reproduce the full workspace).
        for _ in 0..config.initial_files {
            add_file(&mut ops, &mut live, &mut rng, &mut next_file, true);
        }

        // Warm-up: evolve states without recording ops (the paper's
        // "training iterations" season the model's state distribution).
        for _ in 0..config.training_iterations {
            for entry in &mut live {
                entry.2 = config.model.step(entry.2, &mut rng);
            }
            live.retain(|(_, _, s)| *s != FileState::Deleted);
        }

        // Recorded snapshots.
        for _ in 0..config.snapshots {
            // New arrivals (Poisson via thinning on a geometric-ish loop).
            let mut expect = config.adds_per_snapshot;
            while expect > 0.0 {
                if expect >= 1.0 || rng.gen::<f64>() < expect {
                    add_file(&mut ops, &mut live, &mut rng, &mut next_file, true);
                }
                expect -= 1.0;
            }
            // Lifecycle transitions for existing files.
            let mut removals = Vec::new();
            for (i, entry) in live.iter_mut().enumerate() {
                let next = config.model.step(entry.2, &mut rng);
                match next {
                    FileState::Modified => {
                        // Only files below the limit get patterned updates.
                        if entry.1 < UPDATE_SIZE_LIMIT {
                            let pattern = ChangePattern::sample(&mut rng);
                            let seed = rng.gen::<u64>();
                            ops.push(TraceOp::Update {
                                path: entry.0.clone(),
                                pattern,
                                edit_size: config.edit_size,
                                content_seed: seed,
                            });
                        }
                        entry.2 = FileState::Modified;
                    }
                    FileState::Deleted => {
                        ops.push(TraceOp::Remove {
                            path: entry.0.clone(),
                        });
                        removals.push(i);
                        entry.2 = FileState::Deleted;
                    }
                    other => entry.2 = other,
                }
            }
            live.retain(|(_, _, s)| *s != FileState::Deleted);
        }

        Trace { ops }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let mut adds = 0;
        let mut updates = 0;
        let mut removes = 0;
        let mut add_volume = 0u64;
        for op in &self.ops {
            match op {
                TraceOp::Add { size, .. } => {
                    adds += 1;
                    add_volume += size;
                }
                TraceOp::Update { .. } => updates += 1,
                TraceOp::Remove { .. } => removes += 1,
            }
        }
        TraceStats {
            adds,
            updates,
            removes,
            add_volume,
            avg_file_size: if adds > 0 {
                add_volume / adds as u64
            } else {
                0
            },
        }
    }

    /// Sizes of all ADD operations (for the Fig. 7(a) CDF).
    pub fn add_sizes(&self) -> Vec<u64> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                TraceOp::Add { size, .. } => Some(*size),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn default_config_reproduces_paper_statistics() {
        let trace = Trace::generate(&GeneratorConfig::default());
        let stats = trace.stats();
        // Paper: 940 ADDs, 72 UPDATEs, 228 REMOVEs, 535.41 MB, avg 583 KB.
        assert!(
            (800..1100).contains(&stats.adds),
            "ADD count {} should be near 940",
            stats.adds
        );
        assert!(
            (30..130).contains(&stats.updates),
            "UPDATE count {} should be near 72",
            stats.updates
        );
        assert!(
            (150..320).contains(&stats.removes),
            "REMOVE count {} should be near 228",
            stats.removes
        );
        let mb = stats.add_volume as f64 / 1e6;
        assert!(
            (300.0..900.0).contains(&mb),
            "ADD volume {mb:.0} MB should be near 535 MB"
        );
        let avg_kb = stats.avg_file_size as f64 / 1e3;
        assert!(
            (300.0..900.0).contains(&avg_kb),
            "avg file size {avg_kb:.0} KB should be near 583 KB"
        );
    }

    #[test]
    fn trace_is_deterministic() {
        let cfg = GeneratorConfig::test_scale();
        assert_eq!(Trace::generate(&cfg), Trace::generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Trace::generate(&GeneratorConfig::test_scale());
        let b = Trace::generate(&GeneratorConfig {
            seed: 8,
            ..GeneratorConfig::test_scale()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn trace_is_executable() {
        // Every UPDATE/REMOVE must reference a file that exists at that
        // point; ADDs never collide with live paths.
        let trace = Trace::generate(&GeneratorConfig::default());
        let mut live: HashSet<&str> = HashSet::new();
        for op in &trace.ops {
            match op {
                TraceOp::Add { path, .. } => {
                    assert!(live.insert(path), "ADD of existing path {path}");
                }
                TraceOp::Update { path, .. } => {
                    assert!(live.contains(path.as_str()), "UPDATE of missing {path}");
                }
                TraceOp::Remove { path } => {
                    assert!(live.remove(path.as_str()), "REMOVE of missing {path}");
                }
            }
        }
    }

    #[test]
    fn updates_only_touch_small_files() {
        let trace = Trace::generate(&GeneratorConfig::default());
        let mut sizes: std::collections::HashMap<&str, u64> = Default::default();
        for op in &trace.ops {
            match op {
                TraceOp::Add { path, size, .. } => {
                    sizes.insert(path, *size);
                }
                TraceOp::Update { path, .. } => {
                    assert!(
                        sizes[path.as_str()] < UPDATE_SIZE_LIMIT,
                        "update touched a ≥4MB file"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn add_sizes_matches_adds() {
        let trace = Trace::generate(&GeneratorConfig::test_scale());
        assert_eq!(trace.add_sizes().len(), trace.stats().adds);
    }
}
