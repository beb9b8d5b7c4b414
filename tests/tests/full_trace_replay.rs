//! Replays a generated workload trace through the *real* stack (client →
//! ObjectMQ → SyncService → metadata store, chunks → Swift store) and
//! verifies that (a) a second device converges to exactly the reference
//! file set and (b) the closed-form StackSync traffic model agrees with
//! the live measurements.

use baselines::{run_trace, FileSet, StackSyncModel};
use metadata::{MetadataStore, ShardedStore};
use objectmq::Broker;
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService};
use std::sync::Arc;
use std::time::Duration;
use storage::{LatencyModel, SwiftStore};
use workload::{GeneratorConfig, Trace, TraceOp};

const CHUNK: usize = 16 * 1024;

fn test_trace() -> Trace {
    Trace::generate(&GeneratorConfig {
        snapshots: 30,
        adds_per_snapshot: 3.0,
        ..GeneratorConfig::test_scale()
    })
}

#[test]
fn trace_replay_converges_to_reference_fileset() {
    let trace = test_trace();
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _server = service.bind(&broker).unwrap();
    let ws = provision_user(meta.as_ref(), "replay", "ws").unwrap();

    let writer = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("replay", "writer").with_chunk_size(CHUNK),
        &ws,
    )
    .unwrap();
    let observer = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("replay", "observer").with_chunk_size(CHUNK),
        &ws,
    )
    .unwrap();

    // Execute the trace while maintaining the reference state.
    let mut reference = FileSet::new();
    let mut executed = 0;
    for op in &trace.ops {
        let (_, new) = reference.apply(op);
        match op {
            TraceOp::Add { path, .. } | TraceOp::Update { path, .. } => {
                writer.write_file(path, new.unwrap()).unwrap();
            }
            TraceOp::Remove { path } => writer.delete_file(path).unwrap(),
        }
        executed += 1;
    }
    assert!(
        writer.wait(Duration::from_secs(60), || {
            service.commits_processed() >= executed
        }),
        "service must process all {executed} commits, got {}",
        service.commits_processed()
    );

    // The observer must converge to exactly the reference live set.
    assert!(
        observer.wait(Duration::from_secs(60), || {
            observer.list_files().len() == reference.len()
        }),
        "observer has {} files, reference {}",
        observer.list_files().len(),
        reference.len()
    );
    // Contents must match byte-for-byte.
    let mut check = FileSet::new();
    for op in &trace.ops {
        check.apply(op);
    }
    for path in observer.list_files() {
        let local = observer.read_file(&path).unwrap();
        // Rebuild expected content from a fresh reference replay.
        let expected = {
            let mut fs = FileSet::new();
            let mut latest: Option<Vec<u8>> = None;
            for op in &trace.ops {
                let (_, new) = fs.apply(op);
                if op.path() == path {
                    latest = new;
                }
            }
            latest.expect("path must exist in reference")
        };
        assert_eq!(local, expected, "content mismatch for {path}");
    }
}

#[test]
fn live_traffic_agrees_with_protocol_model() {
    let trace = test_trace();

    // Model prediction.
    let mut model = StackSyncModel::with_chunk_size(CHUNK);
    let report = run_trace(&mut model, &trace, 1);

    // Live measurement.
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _server = service.bind(&broker).unwrap();
    let ws = provision_user(meta.as_ref(), "model", "ws").unwrap();
    let client = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("model", "dev").with_chunk_size(CHUNK),
        &ws,
    )
    .unwrap();

    let mut reference = FileSet::new();
    let mut executed = 0;
    for op in &trace.ops {
        let (_, new) = reference.apply(op);
        match op {
            TraceOp::Add { path, .. } | TraceOp::Update { path, .. } => {
                client.write_file(path, new.unwrap()).unwrap();
            }
            TraceOp::Remove { path } => client.delete_file(path).unwrap(),
        }
        executed += 1;
    }
    assert!(client.wait(Duration::from_secs(60), || {
        service.commits_processed() >= executed
    }));

    let live_storage = store.traffic().uploaded_bytes();
    let model_storage = report.storage_total();
    let ratio = live_storage as f64 / model_storage as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "model and live storage traffic must agree within 25%: live {live_storage}, model {model_storage}"
    );

    // Control traffic: compare the *per-operation* metadata volume. The
    // model's per-exchange fixed cost stands in for TLS/HTTP session
    // overhead that the in-process transport simply does not have, so it
    // is excluded here.
    let live_control = client.stats().control_bytes();
    let model_control = report.adds.control + report.updates.control + report.removes.control;
    let ratio = live_control as f64 / model_control as f64;
    assert!(
        (0.2..4.0).contains(&ratio),
        "per-op control traffic magnitudes must agree: live {live_control}, model {model_control}"
    );
}
