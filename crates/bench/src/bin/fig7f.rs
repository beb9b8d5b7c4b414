//! Fig. 7(f): synchronization time as a function of file size (ADD on one
//! device, measured until all six devices are in sync), on the real stack
//! with the LAN latency profile. The paper's observation: growth becomes
//! linear past ~2.5 MB, where transfer time dominates the fixed
//! ObjectMQ+SyncService cost.

use bench::{arg_value, bar, header};
use metadata::{MetadataStore, ShardedStore};
use objectmq::Broker;
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{LatencyModel, SwiftStore};
use workload::content_gen;

const DEVICES: usize = 6;

fn main() {
    let repeats: usize = arg_value("--repeats")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);

    header("Fig 7(f): sync time vs file size (6 devices, real stack)");
    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::lan_cluster());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _server = service.bind(&broker).expect("bind");
    let ws = provision_user(meta.as_ref(), "alice", "ws").expect("provision");

    let clients: Vec<DesktopClient> = (0..DEVICES)
        .map(|i| {
            DesktopClient::connect(
                &broker,
                &store,
                ClientConfig::new("alice", &format!("device-{i}")),
                &ws,
            )
            .expect("connect")
        })
        .collect();

    let sizes_kb: [usize; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 6144, 8192];
    let mut results = Vec::new();
    let mut seed = 1000u64;
    for &kb in &sizes_kb {
        let mut times = Vec::new();
        for r in 0..repeats {
            seed += 1;
            let content = content_gen::generate_default(kb * 1024, seed);
            let path = format!("size-{kb}k-{r}.dat");
            let start = Instant::now();
            clients[0].write_file(&path, content.clone()).expect("add");
            for c in &clients[1..] {
                assert!(
                    c.wait_for_content(&path, &content, Duration::from_secs(60)),
                    "sync timed out at {kb} KB"
                );
            }
            times.push(start.elapsed().as_secs_f64());
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        results.push((kb, mean));
    }

    let max = results.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    println!("\n{:>9} {:>12}", "size", "sync time");
    for (kb, t) in &results {
        println!("{kb:>7}KB {:>10.1}ms  {}", t * 1e3, bar(*t, max, 40));
    }
    println!("\npaper shape: flat-ish for small files (fixed protocol cost");
    println!("dominates), then linear growth once transfer time dominates.");
    // Quantified check: the big end must scale roughly linearly.
    let t4 = results.iter().find(|(kb, _)| *kb == 4096).unwrap().1;
    let t8 = results.iter().find(|(kb, _)| *kb == 8192).unwrap().1;
    println!(
        "linearity check 8MB/4MB time ratio: {:.2} (≈2 expected)",
        t8 / t4
    );
    bench::obs_dump();
}
