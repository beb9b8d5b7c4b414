//! The metric tables: names, units, direction and regression bounds. The
//! root `BENCHMARK.json` states the same tables for the driver; a self-test
//! keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name as printed and as later issues cite it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these (the driver requires it), so each is defined per workload in
/// `README.md`; none is ever 0.
///
/// A bound is one number per metric, so it has to hold on the noisiest
/// workload. That is `meta_commit`, whose every hop is a thread wake-up: on
/// the 2-vCPU reference box its timings, CPU and memory spread 5 to 20 %
/// from run to run depending on the host's other tenants, while the other
/// three workloads repeat to 1-3 %. `README.md` lists the spread of each
/// (metric, workload) pair; `compare` reports a pair whose spread exceeds
/// its bound as unresolved.
pub const END_TO_END: &[Def] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("sync_p50_ms", "ms", Lower, 0.25),
    gated("cpu_ms_per_op", "ms", Lower, 0.25),
    gated("rss_peak_mb", "MiB", Lower, 0.25),
    gated("overhead_bytes_per_op", "B", Lower, 0.01),
];

/// One layer each (layer = crate name), from the traced pass. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // sync: the client and the service.
    layer("sync.write_file_p50_us", "us", Lower),
    layer("sync.notify_wait_p50_us", "us", Lower),
    layer("sync.closed_p50_ms", "ms", Lower),
    layer("sync.tail_p99_ms", "ms", Lower),
    layer("sync.add_p50_ms", "ms", Lower),
    layer("sync.update_p50_ms", "ms", Lower),
    layer("sync.dispatch_commit_p50_us", "us", Lower),
    layer("sync.get_changes_p50_ms", "ms", Lower),
    layer("sync.materialize_p50_ms", "ms", Lower),
    layer("sync.conflicts", "count", Lower),
    layer("sync.ops_per_s", "1/s", Higher),
    layer("sync.user_mb_per_s", "MB/s", Higher),
    layer("sync.control_bytes_per_commit", "B", Lower),
    // content: chunk, hash, compress.
    layer("content.ingest_p50_us", "us", Lower),
    layer("content.chunk_mb_per_s", "MB/s", Higher),
    layer("content.hash_mb_per_s", "MB/s", Higher),
    layer("content.compress_mb_per_s", "MB/s", Higher),
    layer("content.compress_ratio", "ratio", Lower),
    layer("content.decompress_mb_per_s", "MB/s", Higher),
    // storage: the chunk store.
    layer("storage.put_chunks_p50_us", "us", Lower),
    layer("storage.get_p50_us", "us", Lower),
    layer("storage.dedup_hit_frac", "ratio", Higher),
    layer("storage.puts_per_op", "count", Lower),
    layer("storage.gets_per_op", "count", Lower),
    layer("storage.stored_bytes_per_user_byte", "ratio", Lower),
    // wire: encodings.
    layer("wire.encode_commit_p50_ns", "ns", Lower),
    layer("wire.decode_commit_p50_ns", "ns", Lower),
    layer("wire.commit_request_bytes", "B", Lower),
    layer("wire.notification_bytes", "B", Lower),
    layer("wire.encode_changes_p50_us", "us", Lower),
    layer("wire.changes_reply_bytes", "B", Lower),
    // mqsim, net, objectmq: queue, socket, RPC.
    layer("mqsim.pubsub_p50_us", "us", Lower),
    layer("net.pubsub_rtt_p50_us", "us", Lower),
    layer("net.dial_p50_us", "us", Lower),
    layer("net.frames_per_syscall", "ratio", Higher),
    layer("net.wire_bytes_per_commit", "B", Lower),
    layer("objectmq.call_sync_p50_us", "us", Lower),
    layer("objectmq.call_sync_tcp_p50_us", "us", Lower),
    layer("objectmq.call_retries", "count", Lower),
    // metadata and wal: commit, recovery, log.
    layer("metadata.commit_p50_us", "us", Lower),
    layer("metadata.durable_commit_p50_us", "us", Lower),
    layer("metadata.current_items_p50_us", "us", Lower),
    layer("metadata.recover_replay_p50_ms", "ms", Lower),
    layer("metadata.recover_snapshot_p50_ms", "ms", Lower),
    layer("metadata.checkpoint_p50_ms", "ms", Lower),
    layer("metadata.replayed_records", "count", Lower),
    layer("metadata.snapshot_bytes", "B", Lower),
    layer("metadata.disk_bytes_per_commit", "B", Lower),
    layer("wal.append_sync_p50_us", "us", Lower),
    layer("wal.fsyncs_per_commit", "ratio", Lower),
    layer("wal.group_size_mean", "ratio", Higher),
    layer("wal.bytes_per_commit", "B", Lower),
    layer("wal.replay_records_per_s", "1/s", Higher),
    // Cross-layer: tracing cost, and how much of the critical path the
    // outside measurements explain.
    layer("obs.overhead_frac", "ratio", Lower),
    layer("layers.sum_p50_ms", "ms", Lower),
    layer("layers.unattributed_frac", "ratio", Lower),
    // The generator's own health.
    layer("bench.late_p99_ms", "ms", Lower),
    layer("bench.poll_resolution_us", "us", Lower),
    layer("bench.samples", "count", Higher),
];

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "meta_commit",
        "4 KiB one-chunk commits, paced at 300/s then 64 outstanding: control plane (wire, net, mqsim, objectmq, sync, metadata, wal) does the work",
    ),
    (
        "bulk_upload",
        "8 MiB ADD then 4 KiB-append UPDATE, one op outstanding: content (hash, compress) and storage dominate, control plane is negligible",
    ),
    (
        "cold_join",
        "a new device dials and materialises 3012 files: the read path (metadata scan, storage get, decompress, one large reply)",
    ),
    (
        "restart_recover",
        "reopen a 1600-commit store from its log, checkpoint, reopen from the snapshot: metadata recovery and wal, no network",
    ),
];

/// Looks a metric up in either table.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{from_json, Value};
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for d in END_TO_END {
            let bound = d.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = find("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` is written by hand for the driver; it must say what
    /// the tables say.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = from_json(&text).expect("BENCHMARK.json parses");
        let Value::Map(keys) = &doc else {
            panic!("BENCHMARK.json must be an object")
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let rows = |key: &str| doc.field(key).unwrap().as_list().unwrap().to_vec();
        let s = |row: &Value, key: &str| row.field(key).unwrap().as_str().unwrap().to_string();

        let listed: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, expected);

        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = rows(key);
            assert_eq!(rows.len(), table.len(), "{key} length");
            for (row, def) in rows.iter().zip(table) {
                assert_eq!(s(row, "name"), def.name);
                assert_eq!(s(row, "unit"), def.unit, "{}", def.name);
                assert_eq!(s(row, "better"), def.better.word(), "{}", def.name);
                assert_eq!(row.get("bound").map(|b| b.as_f64().unwrap()), def.bound);
            }
        }
        assert_eq!(
            doc.field("paths").unwrap().as_list().unwrap(),
            [Value::from("stackbench")]
        );
    }
}
