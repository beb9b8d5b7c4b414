//! Trace replay harness: materializes file contents, drives a provider,
//! and accounts traffic per action type — the machinery behind
//! Fig. 7(b)–(d) and Table 2.

use crate::SyncProvider;
use std::collections::HashMap;
use workload::content_gen;
use workload::{Trace, TraceOp};

/// Materialized workspace contents while replaying a trace.
#[derive(Debug, Default)]
pub struct FileSet {
    files: HashMap<String, Vec<u8>>,
}

impl FileSet {
    /// Empty file set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one op, returning `(old, new)` contents where relevant.
    ///
    /// # Panics
    ///
    /// Panics when the trace is inconsistent (update/remove of a missing
    /// path) — generated traces are always consistent.
    pub fn apply(&mut self, op: &TraceOp) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
        match op {
            TraceOp::Add {
                path,
                size,
                content_seed,
            } => {
                let content = content_gen::generate_default(*size as usize, *content_seed);
                self.files.insert(path.clone(), content.clone());
                (None, Some(content))
            }
            TraceOp::Update {
                path,
                pattern,
                edit_size,
                content_seed,
            } => {
                let old = self
                    .files
                    .get(path)
                    .cloned()
                    .unwrap_or_else(|| panic!("update of missing {path}"));
                let mut rng = {
                    use rand::SeedableRng;
                    rand::rngs::StdRng::seed_from_u64(*content_seed)
                };
                let new = pattern.apply(&old, *edit_size, &mut rng);
                self.files.insert(path.clone(), new.clone());
                (Some(old), Some(new))
            }
            TraceOp::Remove { path } => {
                let old = self
                    .files
                    .remove(path)
                    .unwrap_or_else(|| panic!("remove of missing {path}"));
                (Some(old), None)
            }
        }
    }

    /// The live contents of `path`.
    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(Vec::as_slice)
    }

    /// Number of live files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total live bytes.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().map(|v| v.len() as u64).sum()
    }
}

/// Traffic attributed to one action type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpKindTraffic {
    /// Operations of this kind.
    pub count: usize,
    /// Control bytes.
    pub control: u64,
    /// Storage bytes.
    pub storage: u64,
}

/// Full replay report for one provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderReport {
    /// The provider's display name.
    pub provider: String,
    /// ADD traffic.
    pub adds: OpKindTraffic,
    /// UPDATE traffic.
    pub updates: OpKindTraffic,
    /// REMOVE traffic.
    pub removes: OpKindTraffic,
    /// Fixed per-batch control traffic (bundling cost).
    pub batch_control: u64,
    /// Total bytes the trace's ADDs introduced (the benchmark size).
    pub benchmark_bytes: u64,
}

impl ProviderReport {
    /// Total control bytes including batch overhead.
    pub fn control_total(&self) -> u64 {
        self.adds.control + self.updates.control + self.removes.control + self.batch_control
    }

    /// Total storage bytes.
    pub fn storage_total(&self) -> u64 {
        self.adds.storage + self.updates.storage + self.removes.storage
    }

    /// Total traffic.
    pub fn total(&self) -> u64 {
        self.control_total() + self.storage_total()
    }

    /// The paper's *overhead* metric (§5.2.2): total traffic over the
    /// benchmark size, minus one (0 = exactly the data volume).
    pub fn overhead_ratio(&self) -> f64 {
        if self.benchmark_bytes == 0 {
            return 0.0;
        }
        self.total() as f64 / self.benchmark_bytes as f64 - 1.0
    }
}

/// Replays `trace` against `provider`, grouping operations into commit
/// exchanges of `batch_size` (1 = one at a time, the Fig. 7 setting;
/// larger values reproduce the Table 2 bundling experiment).
///
/// # Panics
///
/// Panics if `batch_size` is zero.
pub fn run_trace(
    provider: &mut dyn SyncProvider,
    trace: &Trace,
    batch_size: usize,
) -> ProviderReport {
    assert!(batch_size > 0, "batch size must be positive");
    let mut files = FileSet::new();
    let mut adds = OpKindTraffic::default();
    let mut updates = OpKindTraffic::default();
    let mut removes = OpKindTraffic::default();
    let mut benchmark_bytes = 0u64;
    let mut batches = 0u64;

    for chunk in trace.ops.chunks(batch_size) {
        batches += 1;
        for op in chunk {
            let (old, new) = files.apply(op);
            let (kind, traffic) = match op {
                TraceOp::Add { path, .. } => {
                    let content = new.as_deref().expect("add produces content");
                    benchmark_bytes += content.len() as u64;
                    (&mut adds, provider.on_add(path, content))
                }
                TraceOp::Update { path, .. } => {
                    let old = old.as_deref().expect("update has old");
                    let new = new.as_deref().expect("update has new");
                    (&mut updates, provider.on_update(path, old, new))
                }
                TraceOp::Remove { path } => (&mut removes, provider.on_remove(path)),
            };
            kind.count += 1;
            kind.control += traffic.control;
            kind.storage += traffic.storage;
        }
    }

    ProviderReport {
        provider: provider.name().to_string(),
        adds,
        updates,
        removes,
        batch_control: batches * provider.batch_fixed_control(),
        benchmark_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DropboxModel, FullFileModel};
    use workload::GeneratorConfig;

    fn small_trace() -> Trace {
        Trace::generate(&GeneratorConfig::test_scale())
    }

    #[test]
    fn fileset_tracks_live_files() {
        let trace = small_trace();
        let mut files = FileSet::new();
        for op in &trace.ops {
            files.apply(op);
        }
        let stats = trace.stats();
        // live = adds - removes (every remove targets a live file).
        assert_eq!(files.len(), stats.adds - stats.removes);
    }

    #[test]
    fn counts_match_trace_stats() {
        let trace = small_trace();
        let stats = trace.stats();
        let mut model = FullFileModel::onedrive();
        let report = run_trace(&mut model, &trace, 1);
        assert_eq!(report.adds.count, stats.adds);
        assert_eq!(report.updates.count, stats.updates);
        assert_eq!(report.removes.count, stats.removes);
        assert_eq!(report.benchmark_bytes, stats.add_volume);
    }

    #[test]
    fn bundling_reduces_control_traffic() {
        // Table 2's effect: larger batches amortize the fixed exchange
        // cost.
        let trace = small_trace();
        let single = run_trace(&mut DropboxModel::new(), &trace, 1);
        let bundled = run_trace(&mut DropboxModel::new(), &trace, 40);
        assert!(
            bundled.control_total() < single.control_total() / 2,
            "batching must slash control traffic: {} vs {}",
            bundled.control_total(),
            single.control_total()
        );
        // Storage is unaffected by bundling.
        assert_eq!(bundled.storage_total(), single.storage_total());
    }

    #[test]
    fn overhead_ratio_is_computed_over_benchmark_size() {
        let trace = small_trace();
        let mut model = FullFileModel::onedrive();
        let report = run_trace(&mut model, &trace, 1);
        let manual = report.total() as f64 / report.benchmark_bytes as f64 - 1.0;
        assert!((report.overhead_ratio() - manual).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let trace = small_trace();
        let mut model = FullFileModel::onedrive();
        let _ = run_trace(&mut model, &trace, 0);
    }
}
