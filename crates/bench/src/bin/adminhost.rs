//! Minimal long-running host for the admin-endpoint CI smoke test.
//!
//! ```sh
//! cargo run -p bench --bin adminhost -- --admin 127.0.0.1:9633 [--duration 30]
//! ```
//!
//! Boots the real server stack — a *durable* `mqsim` broker behind a
//! [`BrokerServer`], a bound `SyncService` over the WAL-backed
//! [`metadata::ShardedStore`] — plus the obs admin endpoint, then commits
//! one small change per 100 ms so `/metrics`, `/spans` and `/healthz` have
//! live data to serve, including the `metadata.wal` and `mqsim.journal`
//! health checks and the `wal.*` metric family. Prints
//! `ADMIN http://<addr>` once the endpoint is up (the smoke script scrapes
//! that line), and exits cleanly after `--duration` seconds (default 30).

use bench::arg_value;
use metadata::{MetadataStore, ShardedStore};
use mqsim::MessageBroker;
use net::BrokerServer;
use objectmq::{Broker, BrokerConfig};
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, SwiftStore};

fn main() {
    let admin_addr = arg_value("--admin").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let duration = arg_value("--duration")
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(30);

    obs::flight::install_panic_hook();

    let wal_root = std::env::temp_dir().join(format!("adminhost-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&wal_root).ok();

    let (mq, _broker_recovery) =
        MessageBroker::open_durable(wal_root.join("mq"), wal::LogConfig::named("adminhost-mq"))
            .expect("open durable broker");
    let server = BrokerServer::bind("127.0.0.1:0", mq.clone()).expect("bind broker server");
    let broker = Broker::new(mq, BrokerConfig::default());
    let (meta, _meta_recovery) = ShardedStore::open_durable(
        wal_root.join("meta"),
        4,
        Duration::ZERO,
        wal::LogConfig::named("adminhost-meta"),
    )
    .expect("open durable store");
    let meta: Arc<dyn MetadataStore> = Arc::new(meta);
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _service_handle = service.bind(&broker).expect("bind service");
    let ws = provision_user(meta.as_ref(), "admin-smoke", "ws").expect("provision");

    let admin = obs::serve_admin(&admin_addr[..]).expect("bind admin endpoint");
    println!("broker server on {}", server.local_addr());
    println!("ADMIN http://{}", admin.local_addr());

    // A miniature live UB1 replay (own broker + TCP fleet + autoscaled
    // pool) runs alongside so the `elastic.live.*` metric family is
    // populated while the scraper probes /metrics.
    let live = std::thread::spawn(|| {
        let config = elastic::LiveConfig {
            clients: 16,
            probe_clients: 2,
            probe_interval: Duration::from_millis(20),
            ub1: workload::Ub1Config {
                peak_per_min: 8.0,
                ..workload::Ub1Config::default()
            },
            // One late-morning hour compressed into 15 wall seconds.
            start_minute: 11 * 60,
            duration_minutes: 60,
            compression: 240.0,
            service_delay: Duration::from_millis(5),
            model: objectmq::provision::GgOneModel {
                target_response: 0.100,
                mean_service: 0.005,
                var_interarrival: 0.01,
                var_service: 0.0001,
            },
            drivers: 2,
            drain_timeout: Duration::from_secs(20),
            ..elastic::LiveConfig::default()
        };
        match elastic::run_live(&config) {
            Ok(report) => println!(
                "live replay: {} commits, pool {}..{}, {} violations",
                report.offered,
                report.trough_live,
                report.peak_live,
                report.history_violations.len()
            ),
            Err(e) => eprintln!("live replay skipped: {e}"),
        }
    });

    let store = SwiftStore::new(LatencyModel::instant());
    let client = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("admin-smoke", "smoke-dev"),
        &ws,
    )
    .expect("connect client");
    // A second device of the same account: it fetches what the first
    // commits, so `sync.client.fetch_seconds` has samples.
    let watcher = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("admin-smoke", "smoke-watch"),
        &ws,
    )
    .expect("connect watcher");

    // A steady trickle of real commits keeps every admin surface non-empty
    // while the scraper probes it. Every WAL-journaled commit feeds the
    // wal.fsync_seconds / wal.group_size metrics the smoke test greps.
    // The write path runs the chunk→hash→compress ingest pipeline and the
    // refcount dedup store, so `content.ingest.*` and `storage.dedup.*`
    // stay live too; periodic delete + GC sweeps exercise orphan
    // collection. Every tenth file, the first included, spans three
    // chunks, which is what it takes to reach the worker pool
    // (`content.pool.*`) in both directions.
    let gc_token = store
        .authenticate("admin-smoke", "pw-admin-smoke")
        .expect("authenticate");
    let deadline = Instant::now() + Duration::from_secs(duration);
    let mut i = 0u64;
    while Instant::now() < deadline {
        let path = format!("smoke-{}.dat", i % 8);
        let len = if i.is_multiple_of(10) {
            2 * content::DEFAULT_CHUNK_SIZE + 1024
        } else {
            1024
        };
        let mut payload = vec![0xA5; len];
        payload.extend_from_slice(&i.to_be_bytes());
        client.write_file(&path, payload).expect("commit");
        if i % 10 == 9 {
            client.delete_file(&path).expect("delete");
            store
                .gc_chunks(&gc_token, "admin-smoke", "admin-smoke-chunks")
                .expect("gc sweep");
        }
        i += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("adminhost done: {i} commits served for {duration}s");
    let _ = live.join();
    server.shutdown();
    drop(client);
    drop(watcher);
    drop(service);
    drop(broker);
    drop(meta);
    std::fs::remove_dir_all(&wal_root).ok();
}
