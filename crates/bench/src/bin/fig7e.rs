//! Fig. 7(e): time to synchronize 6 devices per operation type (ADD /
//! UPDATE / REMOVE), measured on the *real* in-process stack — ObjectMQ
//! over the broker, SyncService over the metadata store, chunk store with
//! a LAN-profile latency model. Sync time = from the committing device's
//! write until all five other devices hold the change.

use bench::{arg_value, header};
use elastic::BoxplotStats;
use stacksync::{ClientConfig, Deployment, DesktopClient};
use std::time::{Duration, Instant};
use storage::LatencyModel;
use workload::content_gen;
use workload::{ChangePattern, FileSizeDist};

const DEVICES: usize = 6;
const WAIT: Duration = Duration::from_secs(30);

fn main() {
    let ops: usize = arg_value("--ops")
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);

    header("Fig 7(e): synchronization time for 6 devices (real stack)");
    let cloud = Deployment::builder()
        .latency(LatencyModel::lan_cluster())
        .build()
        .expect("deploy");
    let ws = cloud.provision("alice", "ws").expect("provision");

    let clients: Vec<DesktopClient> = (0..DEVICES)
        .map(|i| {
            cloud
                .connect(ClientConfig::new("alice", &format!("device-{i}")), &ws)
                .expect("connect")
        })
        .collect();

    let mut rng_seed = 99u64;
    let sizes = FileSizeDist::paper();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(7)
    };

    let mut add_times = Vec::new();
    let mut update_times = Vec::new();
    let mut remove_times = Vec::new();

    for i in 0..ops {
        let path = format!("f{i}.dat");
        // Keep file sizes within the paper's common band so one run stays
        // quick; Fig. 7(f) covers the size sweep explicitly.
        let size = (sizes.sample(&mut rng) as usize).min(4 << 20);
        rng_seed += 1;
        let content = content_gen::generate_default(size, rng_seed);

        // ADD on device 0, wait for devices 1..6.
        let committer = &clients[0];
        let start = Instant::now();
        committer.write_file(&path, content.clone()).expect("add");
        wait_all(&clients[1..], |c| c.wait_for_content(&path, &content, WAIT));
        add_times.push(start.elapsed().as_secs_f64());

        // UPDATE with a paper-distributed pattern.
        let pattern = ChangePattern::sample(&mut rng);
        let updated = pattern.apply(&content, 200, &mut rng);
        let start = Instant::now();
        committer
            .write_file(&path, updated.clone())
            .expect("update");
        wait_all(&clients[1..], |c| c.wait_for_content(&path, &updated, WAIT));
        update_times.push(start.elapsed().as_secs_f64());

        // REMOVE.
        let start = Instant::now();
        committer.delete_file(&path).expect("remove");
        wait_all(&clients[1..], |c| c.wait_for_absent(&path, WAIT));
        remove_times.push(start.elapsed().as_secs_f64());
    }

    println!("\n{} operations of each type, {} devices\n", ops, DEVICES);
    print_box("ADD", &add_times);
    print_box("UPDATE", &update_times);
    print_box("REMOVE", &remove_times);
    println!("\npaper shape: all within seconds; REMOVE cheapest (no data flow);");
    println!("UPDATE right-skewed (fixed-size chunking boundary shifting);");
    println!("ADD slowest (full upload + 5 downloads).");
    bench::obs_dump();
}

fn wait_all(clients: &[DesktopClient], f: impl Fn(&DesktopClient) -> bool) {
    for c in clients {
        assert!(f(c), "device {:?} failed to sync in time", c.device());
    }
}

fn print_box(label: &str, samples: &[f64]) {
    let b = BoxplotStats::of(samples);
    println!(
        "{label:<8} min {:7.1} ms | q1 {:7.1} | median {:7.1} | q3 {:7.1} | max {:7.1} | mean {:7.1}",
        b.min * 1e3,
        b.q1 * 1e3,
        b.median * 1e3,
        b.q3 * 1e3,
        b.max * 1e3,
        b.mean * 1e3
    );
}
