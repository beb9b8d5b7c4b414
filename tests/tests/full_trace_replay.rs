//! Replays a generated workload trace through the *real* stack (client →
//! ObjectMQ → SyncService → metadata store, chunks → Swift store) and
//! verifies that (a) a second device converges to exactly the reference
//! file set and (b) the per-kind traffic the figures' replay charges adds
//! up to what the device and the chunk store counted.

use baselines::{run_trace, FileSet};
use bench::LiveStackSync;
use stacksync::{ClientConfig, Deployment};
use std::time::Duration;
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
    let cloud = Deployment::builder().build().unwrap();
    let ws = cloud.provision("replay", "ws").unwrap();

    let writer = cloud
        .connect(
            ClientConfig::new("replay", "writer").with_chunk_size(CHUNK),
            &ws,
        )
        .unwrap();
    let observer = cloud
        .connect(
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
            cloud.service().changes_processed() >= executed
        }),
        "service must decide all {executed} changes, got {}",
        cloud.service().changes_processed()
    );

    // The observer must converge to exactly the reference live set, byte
    // for byte. The service has decided every change, but the observer may
    // still be applying the last notifications.
    let converged = || {
        let paths = observer.list_files();
        paths.len() == reference.len()
            && paths
                .iter()
                .all(|path| observer.read_file(path).as_deref() == reference.get(path))
    };
    assert!(
        observer.wait(Duration::from_secs(60), converged),
        "observer has {} files, reference {}",
        observer.list_files().len(),
        reference.len()
    );
}

#[test]
fn per_kind_traffic_adds_up_to_the_counted_totals() {
    let trace = test_trace();
    let mut stack = LiveStackSync::new();
    // The device's join (`get_changes` on an empty workspace) is the one
    // exchange no operation is charged for.
    let joined = stack.client().stats().control_bytes();
    let report = run_trace(&mut stack, &trace, 1);

    let kinds = [report.adds, report.updates, report.removes];
    let control: u64 = kinds.iter().map(|k| k.control).sum();
    let storage: u64 = kinds.iter().map(|k| k.storage).sum();
    let stats = stack.client().stats();
    assert_eq!(control, stats.control_bytes() - joined);
    assert_eq!(
        storage,
        stack.deployment().objects().traffic().uploaded_bytes()
    );
    assert_eq!(report.batch_control, 0, "nothing is modelled");
    assert!(kinds.iter().all(|k| k.count > 0 && k.control > 0));
    // One change at a time: each operation is one commit and one
    // notification, so nothing is bundled across two operations' charges.
    assert_eq!(stats.notifications(), trace.ops.len() as u64);
}
