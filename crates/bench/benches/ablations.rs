//! Design-choice ablations called out in DESIGN.md:
//!
//! 1. fixed vs content-defined chunking under prepend-modified files (the
//!    boundary-shifting problem);
//! 2. commit throughput through the real SyncService dispatch path;
//! 3. provisioning-policy decision cost (predictive vs reactive).

use content::chunker::{Chunker, ContentDefinedChunker, FixedChunker};
use content::ChunkId;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use metadata::{ItemMetadata, MetadataStore, ShardedStore};
use objectmq::provision::{GgOneModel, PredictiveProvisioner, ReactiveProvisioner};
use objectmq::RemoteObject;
use stacksync::SyncService;
use std::sync::Arc;
use wire::Value;
use workload::content_gen;

/// Bytes re-uploaded after a 64-byte prepend, per chunker. The benchmark
/// reports time; the printed summary in EXPERIMENTS.md reports the ratio.
fn reupload_bytes(chunker: &dyn Chunker, old: &[u8], new: &[u8]) -> usize {
    let old_ids: std::collections::HashSet<ChunkId> = chunker
        .chunk(old)
        .iter()
        .map(|s| ChunkId::of(&old[s.range()]))
        .collect();
    chunker
        .chunk(new)
        .iter()
        .filter(|s| !old_ids.contains(&ChunkId::of(&new[s.range()])))
        .map(|s| s.len)
        .sum()
}

fn bench_chunking_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunking_prepend_ablation");
    let old = content_gen::generate(2 * 1024 * 1024, 1, 0.0);
    let mut new = vec![0xAB; 64];
    new.extend_from_slice(&old);
    group.throughput(Throughput::Bytes(new.len() as u64));

    let fixed = FixedChunker::new(512 * 1024);
    let cdc = ContentDefinedChunker::paper_scale();
    group.bench_function("fixed", |b| b.iter(|| reupload_bytes(&fixed, &old, &new)));
    group.bench_function("cdc", |b| b.iter(|| reupload_bytes(&cdc, &old, &new)));
    group.finish();
}

fn bench_commit_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("syncservice");
    group.throughput(Throughput::Elements(1));

    let broker = objectmq::Broker::in_process();
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    meta.create_user("bench").unwrap();
    let ws = meta.create_workspace("bench", "ws").unwrap();
    let service = SyncService::builder(&broker).store(meta).build();

    let mut version = 0u64;
    group.bench_function("commit_request_dispatch", |b| {
        b.iter(|| {
            version += 1;
            let item = ItemMetadata {
                version,
                ..ItemMetadata::new_file(1, &ws, "f.txt", vec![], 100, "dev")
            };
            let args = vec![
                Value::from(ws.0.as_str()),
                Value::from("dev"),
                Value::List(vec![stacksync::protocol::item_to_value(&item)]),
            ];
            service.dispatch("commit_request", &args).unwrap()
        })
    });
    group.finish();
}

fn bench_provisioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("provisioning");
    let model = GgOneModel::paper_defaults();
    let mut predictive =
        PredictiveProvisioner::new(model.clone(), std::time::Duration::from_secs(900), 0.95);
    // A month of history.
    for day in 0..30 {
        for slot in 0..96 {
            predictive.observe(slot, (day * slot) as f64 % 120.0);
        }
    }
    let reactive = ReactiveProvisioner::paper_defaults(model.clone());

    group.bench_function("predictive_slot_decision", |b| {
        b.iter(|| predictive.provision_for_slot(42))
    });
    group.bench_function("reactive_check", |b| {
        b.iter(|| reactive.check(130.0, Some(100.0)))
    });
    group.bench_function("ggone_eta", |b| b.iter(|| model.required_instances(142.0)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_chunking_ablation, bench_commit_dispatch, bench_provisioners
}
criterion_main!(benches);
