//! The thread cost of a client, measured on the process. One test and a
//! binary of its own: `Threads:` in `/proc/self/status` counts every
//! thread of the process, and a neighbouring test's would be counted too.
#![cfg(target_os = "linux")]

use stacksync::{ClientConfig, Deployment, DesktopClient};
use std::time::Duration;

fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn sixty_four_clients_share_one_pool() {
    let cloud = Deployment::builder().build().unwrap();
    let ws = cloud.provision("alice", "Docs").unwrap();
    let connect = |device: &str, workers: usize| {
        let config = ClientConfig::new("alice", device)
            .with_chunk_size(4096)
            .with_ingest_workers(workers);
        cloud.connect(config, &ws).unwrap()
    };
    // Eight chunks: every device that joins later fetches them through
    // the pool, so the pool is running by the time threads are counted.
    let payload: Vec<u8> = (0..8 * 4096).map(|i| (i / 4096 + i % 251) as u8).collect();

    let first = connect("device-0", 4);
    first.write_file("f.bin", payload.clone()).unwrap();
    let after_first = process_threads();
    // What a client costs with no pool in the picture at all: its two
    // notification listener threads.
    let inline = connect("inline", 1);
    let per_client = process_threads() - after_first;

    let rest: Vec<DesktopClient> = (1..64)
        .map(|i| connect(&format!("device-{i}"), 4))
        .collect();
    assert_eq!(
        process_threads(),
        after_first + per_client * 64,
        "a four-worker client starts the threads a one-worker client starts"
    );

    // And they do use the pool they did not start.
    let mut update = payload;
    update.extend_from_slice(&[7u8; 4096]);
    rest[62].write_file("f.bin", update.clone()).unwrap();
    for client in rest.iter().chain([&first, &inline]) {
        assert!(client.wait_for_content("f.bin", &update, Duration::from_secs(10)));
    }
    assert_eq!(process_threads(), after_first + per_client * 64);
}
