//! Dedup-ratio replay: runs a generated trace through the content
//! pipeline (chunk → fingerprint → compress) and the storage refcount
//! tracker, measuring how much the chunk store actually holds versus the
//! logical bytes the trace wrote.
//!
//! This is the measurement behind the "storage saved by dedup +
//! compression" claim: UPDATE patterns rewrite most of a file unchanged,
//! ADDs of identical sizes share generated content only when seeds
//! collide, and REMOVEs orphan chunks that a GC sweep reclaims.

use crate::content_gen;
use crate::generator::{Trace, TraceOp};
use content::chunker::Chunker;
use content::compress::Algorithm;
use content::ChunkId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use storage::{ChunkMeta, DedupStats, RefcountTracker};

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Chunk size for the fixed chunker driving the replay.
    pub chunk_size: usize,
    /// Compression applied before "storing"; `None` stores raw bytes.
    pub compression: Option<Algorithm>,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            chunk_size: 64 * 1024,
            compression: Some(Algorithm::Lzss),
        }
    }
}

/// What the replay measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DedupReport {
    /// Operations replayed (adds + updates + removes).
    pub ops: usize,
    /// Logical bytes written across all adds and updates (every version
    /// counted in full).
    pub logical_bytes_written: u64,
    /// Payload bytes a dedup-aware store actually persisted.
    pub bytes_stored: u64,
    /// Chunk references that were dedup hits (no write).
    pub dedup_hits: u64,
    /// Chunk writes the store performed.
    pub chunk_writes: u64,
    /// Bytes reclaimed by the final GC sweep of orphaned chunks.
    pub gc_reclaimed_bytes: u64,
    /// Tracker statistics at end of replay (after GC).
    pub final_stats: DedupStats,
}

impl DedupReport {
    /// Logical-written to persisted ratio — the headline number; > 1.0
    /// means dedup + compression saved space.
    pub fn ratio(&self) -> f64 {
        if self.bytes_stored == 0 {
            1.0
        } else {
            self.logical_bytes_written as f64 / self.bytes_stored as f64
        }
    }

    /// Human-readable multi-line summary for the bench binary.
    pub fn render(&self) -> String {
        format!(
            "dedup replay: {} ops, {:.1} MB written logically, {:.1} MB stored \
             ({:.2}x saved), {} chunk writes, {} dedup hits, {:.1} MB gc-reclaimed",
            self.ops,
            self.logical_bytes_written as f64 / 1e6,
            self.bytes_stored as f64 / 1e6,
            self.ratio(),
            self.chunk_writes,
            self.dedup_hits,
            self.gc_reclaimed_bytes as f64 / 1e6,
        )
    }
}

/// Replays `trace` through chunking + fingerprinting + compression and a
/// [`RefcountTracker`], as the sync client's upload path would.
pub fn replay(trace: &Trace, config: &ReplayConfig) -> DedupReport {
    let chunker = content::chunker::FixedChunker::new(config.chunk_size);
    let mut tracker = RefcountTracker::new();
    let mut files: HashMap<String, Vec<u8>> = HashMap::new();
    let mut report = DedupReport {
        ops: trace.ops.len(),
        logical_bytes_written: 0,
        bytes_stored: 0,
        dedup_hits: 0,
        chunk_writes: 0,
        gc_reclaimed_bytes: 0,
        final_stats: DedupStats::default(),
    };

    for op in &trace.ops {
        match op {
            TraceOp::Add {
                path,
                size,
                content_seed,
            } => {
                let data = content_gen::generate_default(*size as usize, *content_seed);
                ingest(&chunker, config, &mut tracker, &mut report, path, &data);
                files.insert(path.clone(), data);
            }
            TraceOp::Update {
                path,
                pattern,
                edit_size,
                content_seed,
            } => {
                let Some(old) = files.get(path) else { continue };
                let mut rng = StdRng::seed_from_u64(*content_seed);
                let new = pattern.apply(old, *edit_size, &mut rng);
                ingest(&chunker, config, &mut tracker, &mut report, path, &new);
                files.insert(path.clone(), new);
            }
            TraceOp::Remove { path } => {
                tracker.release_file(path);
                files.remove(path);
            }
        }
    }

    for (_, stored) in tracker.collect_orphans() {
        report.gc_reclaimed_bytes += stored;
    }
    report.final_stats = tracker.stats();
    report
}

fn ingest(
    chunker: &dyn Chunker,
    config: &ReplayConfig,
    tracker: &mut RefcountTracker,
    report: &mut DedupReport,
    path: &str,
    data: &[u8],
) {
    report.logical_bytes_written += data.len() as u64;
    let metas: Vec<ChunkMeta> = chunker
        .chunk(data)
        .iter()
        .map(|span| {
            let window = &data[span.range()];
            let stored_len = match config.compression {
                Some(alg) => alg.compress(window).len() as u64,
                None => window.len() as u64,
            };
            ChunkMeta {
                name: ChunkId::of(window).to_string(),
                logical_len: window.len() as u64,
                stored_len,
            }
        })
        .collect();
    let outcome = tracker.record_file(path, &metas);
    report.bytes_stored += outcome.bytes_to_write;
    report.dedup_hits += outcome.dedup_hits + outcome.revived;
    report.chunk_writes += outcome.to_write.len() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GeneratorConfig;

    #[test]
    fn paper_trace_dedups_above_one() {
        // The paper's workload shape (UPDATEs rewrite most bytes of a
        // file unchanged) must show real savings through the chunk
        // store: strictly more logical bytes written than stored.
        let trace = Trace::generate(&GeneratorConfig::test_scale());
        let report = replay(
            &trace,
            &ReplayConfig {
                chunk_size: 1024,
                ..ReplayConfig::default()
            },
        );
        assert!(report.ops > 0);
        assert!(report.logical_bytes_written > 0);
        assert!(
            report.ratio() > 1.0,
            "dedup ratio must beat 1.0, got {:.3} ({} logical / {} stored)",
            report.ratio(),
            report.logical_bytes_written,
            report.bytes_stored
        );
        assert!(report.dedup_hits > 0, "updates must produce dedup hits");
        // The render line mentions the headline ratio.
        assert!(report.render().contains("saved"));
    }

    #[test]
    fn removes_orphan_chunks_and_gc_reclaims() {
        let trace = Trace {
            ops: vec![
                TraceOp::Add {
                    path: "a".into(),
                    size: 200_000,
                    content_seed: 1,
                },
                TraceOp::Remove { path: "a".into() },
            ],
        };
        let report = replay(&trace, &ReplayConfig::default());
        assert!(report.gc_reclaimed_bytes > 0);
        assert_eq!(report.final_stats.live_chunks, 0);
        assert_eq!(report.final_stats.orphan_chunks, 0);
    }
}
