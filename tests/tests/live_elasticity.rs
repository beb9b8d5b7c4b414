//! Live elasticity: the whole control loop on the real middleware — a
//! Supervisor enforcing pool size on RemoteBroker slaves, an AutoScaler
//! fed by real queue-side observations, and SyncService instances being
//! spawned/retired while clients keep committing.

use integration_tests::wait_until;
use metadata::{MetadataStore, ShardedStore};
use mqsim::QueueStats;
use objectmq::provision::{
    AutoScaler, GgOneModel, Observation, PredictiveProvisioner, Provisioner, ReactiveProvisioner,
    ScalingPolicy, REACTIVE_PERIOD,
};
use objectmq::{Broker, RemoteBroker, Supervisor, SupervisorConfig};
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService, SYNC_SERVICE_OID};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, SwiftStore};

#[test]
fn autoscaler_grows_live_pool_under_load_and_shrinks_after() {
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    // A deliberately slow service (20 ms per commit) so load is visible.
    let service = SyncService::builder(&broker)
        .store(meta.clone())
        .service_delay(Duration::from_millis(20))
        .build();

    // Slaves + supervisor.
    let node = RemoteBroker::start(broker.clone(), 1).unwrap();
    node.register_factory(SYNC_SERVICE_OID, service.factory());
    let supervisor = Supervisor::start(
        broker.clone(),
        SupervisorConfig {
            oid: SYNC_SERVICE_OID,
            check_interval: Duration::from_millis(80),
            ..Default::default()
        },
    )
    .unwrap();
    supervisor.set_target(1);
    wait_until(
        "initial SyncService instance",
        Duration::from_secs(5),
        || node.local_count(SYNC_SERVICE_OID) == 1,
    );

    // A scaling model matched to the injected 20 ms service time with a
    // 100 ms SLA: capacity ≈ 1/(0.02 + 0.0008/0.16) = 40 req/s.
    let model = GgOneModel {
        target_response: 0.100,
        mean_service: 0.020,
        var_interarrival: 0.0002,
        var_service: 0.0002,
    };
    let predictive = PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
    let reactive = ReactiveProvisioner::paper_defaults(model);
    let mut scaler = AutoScaler::new(predictive, reactive, ScalingPolicy::Reactive);

    let ws = provision_user(meta.as_ref(), "load", "ws").unwrap();
    let client = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("load", "gen").with_chunk_size(4096),
        &ws,
    )
    .unwrap();

    // Generate bursty commit load for ~1.5 s (target ≈ 100 commits/s —
    // needs ≥3 instances under the model above).
    let load_start = Instant::now();
    let mut i = 0;
    while load_start.elapsed() < Duration::from_millis(1500) {
        client
            .write_file(&format!("burst-{i}.dat"), vec![i as u8; 256])
            .unwrap();
        i += 1;
        std::thread::sleep(Duration::from_millis(8));
    }

    // Reactive decision from the real queue-side observation, offered one
    // reactive period into the scaler's clock.
    let observed = broker
        .messaging()
        .queue_arrival_rate(SYNC_SERVICE_OID.as_str())
        .unwrap();
    assert!(observed > 10.0, "observed rate too low: {observed}");
    let decision = scaler
        .propose(&Observation {
            arrival_rate: Some(observed),
            live: 1,
            target: 1,
            ..Observation::at(REACTIVE_PERIOD)
        })
        .expect("the reactive cadence elapsed");
    assert!(decision.changed, "must react");
    let target = decision.target;
    assert!(target >= 2, "load must demand ≥2 instances, got {target}");
    supervisor.set_target(target);
    wait_until(
        &format!("pool to reach the scaler target {target}"),
        Duration::from_secs(5),
        || node.local_count(SYNC_SERVICE_OID) == target,
    );

    // All commits must land despite the scaling churn.
    wait_until(
        &format!("all {i} burst commits to be processed"),
        Duration::from_secs(20),
        || service.commits_processed() as usize >= i,
    );

    // Load stops; the scaler shrinks the pool back.
    std::thread::sleep(Duration::from_millis(600));
    let idle = scaler
        .propose(&Observation {
            arrival_rate: Some(0.5), // post-burst observation
            live: target,
            target,
            ..Observation::at(REACTIVE_PERIOD * 2)
        })
        .expect("the reactive cadence elapsed again");
    if idle.changed {
        supervisor.set_target(idle.target);
    }
    wait_until("pool to shrink back to 1", Duration::from_secs(5), || {
        node.local_count(SYNC_SERVICE_OID) == 1
    });

    supervisor.stop();
    node.stop();
}

#[test]
fn queue_stats_expose_provisioning_signals() {
    // The fine-grained metrics the paper argues for: queue depth and
    // arrival rate must be observable while a slow pool lags behind.
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker)
        .store(meta.clone())
        .service_delay(Duration::from_millis(50))
        .build();
    let server = service.bind(&broker).unwrap();
    let ws = provision_user(meta.as_ref(), "sig", "ws").unwrap();
    let client = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("sig", "dev").with_chunk_size(4096),
        &ws,
    )
    .unwrap();

    for i in 0..30 {
        client.write_file(&format!("f{i}"), vec![0u8; 64]).unwrap();
    }
    let stats: QueueStats = broker
        .messaging()
        .queue_stats(SYNC_SERVICE_OID.as_str())
        .unwrap();
    assert!(stats.published >= 30);
    assert!(
        stats.depth + stats.unacked > 0,
        "a 50 ms/commit instance must lag behind 30 instant commits"
    );
    let info = broker
        .pool_info(SYNC_SERVICE_OID, &[server.stats().snapshot()])
        .unwrap();
    assert_eq!(info.instances, 1);
    assert!(info.arrival_rate > 0.0);
    wait_until("all 30 commits to drain", Duration::from_secs(20), || {
        service.commits_processed() >= 30
    });
    server.shutdown();
}
