//! Chaos tests: the paper's fault-tolerance claims exercised end-to-end.
//!
//! The crash-loop scenario (Fig. 8(f): instances killed under live
//! traffic) runs on the `faultsim` harness: a single-threaded, seeded
//! simulation driving the real broker, SyncService dispatch and metadata
//! store. No threads, no sleeps, no wall clock — same seed, same run,
//! every time.
//!
//! # Replaying a failure
//!
//! When one of the seeded tests fails it prints the seed and the full
//! fault-schedule + history transcript. To replay that exact run:
//!
//! ```text
//! cargo run -p faultsim --bin explore -- <seed> 1
//! ```
//!
//! or in a test / debugger: `faultsim::run_seed(<seed>)`. The transcript
//! of the failing run is byte-identical on every replay.
//!
//! The Supervisor-pacing test uses a [`mqsim::VirtualClock`]: real threads,
//! but time only moves when the test advances it.

use faultsim::{run_seed_with, FaultRates, SimConfig};
use integration_tests::{became_true, wait_until};
use metadata::{MetadataStore, ShardedStore};
use mqsim::{MessageBroker, VirtualClock};
use objectmq::{Broker, BrokerConfig, RemoteBroker, Supervisor, SupervisorConfig};
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService, SYNC_SERVICE_OID};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, SwiftStore};

/// Fixed seeds for the deterministic crash-loop run. Chosen arbitrarily;
/// any failure prints the seed for replay (see module docs).
const CRASH_LOOP_SEEDS: [u64; 3] = [0xC0FFEE, 17, 9001];

#[test]
fn crash_loop_under_live_traffic_loses_no_commit() {
    // The Fig. 8(f) scenario, deterministically: 3 writer devices race 60
    // commits (20 each, half on one contended file) while the serving
    // instance crashes mid-request — before dispatch and before ack — and
    // the broker drops, duplicates and reorders deliveries. The checker
    // proves no accepted commit is lost, versions linearize with no
    // double-commit, and push notifications tell the truth.
    let config = SimConfig {
        writers: 3,
        commits_per_writer: 20,
        rates: FaultRates::chaotic(),
        crash_permille: 250,
        ..SimConfig::default()
    };
    let started = Instant::now();
    for seed in CRASH_LOOP_SEEDS {
        let report = match run_seed_with(seed, &config) {
            Ok(r) => r,
            Err(failure) => panic!("{failure}"),
        };
        assert_eq!(report.submissions, 60, "seed {seed}");
        assert!(
            report.crashes > 0,
            "seed {seed}: a 25% crash rate must crash instances"
        );
        assert!(
            report.faults_injected > 0,
            "seed {seed}: chaotic rates must perturb delivery"
        );
        // The determinism contract: replaying the seed reproduces the
        // schedule and history exactly.
        let replay = run_seed_with(seed, &config).expect("replay passes");
        assert_eq!(report.fingerprint(), replay.fingerprint(), "seed {seed}");
        assert_eq!(report.fault_trace, replay.fault_trace, "seed {seed}");
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "three seeded crash-loop runs (with replays) must finish in <2s, took {:?}",
        started.elapsed()
    );
}

#[test]
fn supervisor_pacing_runs_on_the_virtual_clock() {
    // The Supervisor's check interval is pure clock arithmetic now: with a
    // VirtualClock and a one-hour interval, a crashed instance is NOT
    // respawned until the test advances time — and then immediately is,
    // without anyone sleeping an hour.
    let broker = Broker::in_process();
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let node = RemoteBroker::start(broker.clone(), 1).unwrap();
    node.register_factory(SYNC_SERVICE_OID, service.factory());

    let clock = VirtualClock::new();
    let supervisor = Supervisor::start(
        broker.clone(),
        SupervisorConfig {
            oid: SYNC_SERVICE_OID,
            check_interval: Duration::from_secs(3600),
            clock: Arc::new(clock.clone()),
        },
    )
    .unwrap();

    // The first pass runs before the first clocked wait: pool reaches 1.
    wait_until("initial instance spawned", Duration::from_secs(5), || {
        node.local_count(SYNC_SERVICE_OID) == 1
    });

    // Crash it. With virtual time frozen, the supervisor must NOT notice.
    assert!(node.crash_one(SYNC_SERVICE_OID));
    assert!(
        !became_true(Duration::from_millis(400), || {
            node.local_count(SYNC_SERVICE_OID) == 1
        }),
        "respawn happened while the virtual clock was frozen"
    );

    // Advance one interval: the next check fires and respawns, no hour
    // of wall time involved.
    clock.advance(Duration::from_secs(3600));
    wait_until(
        "crashed instance respawned after clock advance",
        Duration::from_secs(5),
        || node.local_count(SYNC_SERVICE_OID) == 1,
    );

    // Closing the clock releases the supervisor's wait so stop() joins
    // promptly instead of stranding on frozen time.
    clock.close();
    supervisor.stop();
    node.stop();
}

#[test]
fn full_stack_works_over_json_transport() {
    // The transport is pluggable (paper: Kryo / Java serialization /
    // JSON). Swap in the JSON codec and run the whole sync protocol.
    let config = BrokerConfig {
        codec: Arc::new(wire::JsonCodec),
        ..BrokerConfig::default()
    };
    let broker = Broker::new(MessageBroker::new(), config);
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _server = service.bind(&broker).unwrap();
    let ws = provision_user(meta.as_ref(), "json", "ws").unwrap();
    let a = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("json", "a").with_chunk_size(4096),
        &ws,
    )
    .unwrap();
    let b = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("json", "b").with_chunk_size(4096),
        &ws,
    )
    .unwrap();

    let payload: Vec<u8> = (0..9000u32).map(|i| (i % 251) as u8).collect();
    a.write_file("binary.dat", payload.clone()).unwrap();
    assert!(
        b.wait_for_content("binary.dat", &payload, Duration::from_secs(5)),
        "binary content must survive the JSON transport ($bytes wrapping)"
    );
    a.delete_file("binary.dat").unwrap();
    assert!(b.wait_for_absent("binary.dat", Duration::from_secs(5)));
}
