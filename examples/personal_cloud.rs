//! Full personal cloud, live: remote brokers host SyncService instances, a
//! Supervisor enforces pool size and respawns crashed instances, clients
//! sync files through whatever pool currently exists — the paper's whole
//! architecture (Fig. 3 + Fig. 4) in one process.
//!
//! ```sh
//! cargo run -p stacksync-examples --bin personal_cloud
//! ```

use metadata::{MetadataStore, ShardedStore};
use objectmq::{Broker, RemoteBroker, Supervisor, SupervisorConfig};
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService, SYNC_SERVICE_OID};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, SwiftStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();

    // Two slave nodes that can host SyncService instances.
    let node_a = RemoteBroker::start(broker.clone(), 1)?;
    let node_b = RemoteBroker::start(broker.clone(), 2)?;
    node_a.register_factory(SYNC_SERVICE_OID, service.factory());
    node_b.register_factory(SYNC_SERVICE_OID, service.factory());

    // The Supervisor enforces the pool size every 100 ms (1 s in the
    // paper; compressed here so the demo is snappy).
    let supervisor = Supervisor::start(
        broker.clone(),
        SupervisorConfig {
            oid: SYNC_SERVICE_OID,
            check_interval: Duration::from_millis(100),
            ..Default::default()
        },
    )?;
    supervisor.set_target(2);
    wait_for(|| node_a.local_count(SYNC_SERVICE_OID) + node_b.local_count(SYNC_SERVICE_OID) == 2);
    println!(
        "pool up: node A hosts {}, node B hosts {} SyncService instance(s)",
        node_a.local_count(SYNC_SERVICE_OID),
        node_b.local_count(SYNC_SERVICE_OID)
    );

    // Clients connect; they never learn how many instances exist.
    let ws = provision_user(meta.as_ref(), "alice", "Documents")?;
    let laptop =
        DesktopClient::connect(&broker, &store, ClientConfig::new("alice", "laptop"), &ws)?;
    let phone = DesktopClient::connect(&broker, &store, ClientConfig::new("alice", "phone"), &ws)?;

    laptop.write_file("plan.txt", b"ship the reproduction".to_vec())?;
    assert!(phone.wait_for_content("plan.txt", b"ship the reproduction", Duration::from_secs(5)));
    println!("file synced through the elastic pool");

    // Demand spike: the provisioner (here: us) raises the target; the
    // Supervisor converges the pool.
    supervisor.set_target(4);
    wait_for(|| node_a.local_count(SYNC_SERVICE_OID) + node_b.local_count(SYNC_SERVICE_OID) == 4);
    println!("scaled out to 4 instances across the nodes");

    // Fault tolerance: crash an instance abruptly; the Supervisor notices
    // within one check interval and respawns it.
    assert!(node_a.crash_one(SYNC_SERVICE_OID) || node_b.crash_one(SYNC_SERVICE_OID));
    wait_for(|| node_a.local_count(SYNC_SERVICE_OID) + node_b.local_count(SYNC_SERVICE_OID) == 4);
    println!("instance crashed and was respawned by the Supervisor");

    // Work still flows throughout.
    phone.write_file("plan.txt", b"ship the reproduction, twice".to_vec())?;
    assert!(laptop.wait_for_content(
        "plan.txt",
        b"ship the reproduction, twice",
        Duration::from_secs(5)
    ));
    println!("sync keeps working through crashes and scaling");

    // Night falls; scale back in.
    supervisor.set_target(1);
    wait_for(|| node_a.local_count(SYNC_SERVICE_OID) + node_b.local_count(SYNC_SERVICE_OID) == 1);
    println!("scaled back in to 1 instance");

    supervisor.stop();
    node_a.stop();
    node_b.stop();
    println!("done: {} commits processed", service.commits_processed());
    Ok(())
}

fn wait_for(mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition not reached in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}
