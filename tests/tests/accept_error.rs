//! A persistent accept error on the broker's listener must cost the
//! connections it already serves nothing: the listener sits the error out
//! on a deadline of its own, and the loop it shares keeps serving.
//!
//! A binary of its own, because the test exhausts the file descriptors of
//! the whole process.

use mqsim::{MessageBroker, Messaging as _, QueueOptions};
use net::{BrokerServer, NetBroker};
use std::fs::File;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Highest open file descriptor number in this process.
fn highest_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable on linux")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

#[test]
fn an_accept_error_does_not_stall_established_connections() {
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).expect("bind server");
    let addr = server.local_addr();
    // Connections are dealt to the server's loops round-robin, so four of
    // them put one on loop 0, the listener's, whatever the loop count (1–4).
    let clients: Vec<NetBroker> = (0..4)
        .map(|_| NetBroker::connect(addr).expect("dial"))
        .collect();
    clients[0]
        .declare_queue("q", QueueOptions::default())
        .expect("declare");

    // Exhaust the descriptors, then free one for a last connect: the
    // kernel completes its handshake, and every `accept` of it fails with
    // EMFILE for as long as the limit holds.
    let (soft, _) = libc::nofile_limit().expect("getrlimit");
    libc::set_nofile_limit(highest_fd() + 16).expect("lower the fd limit");
    let mut fillers = Vec::new();
    while let Ok(f) = File::open("/dev/null") {
        fillers.push(f);
    }
    fillers.pop();
    let pending = TcpStream::connect(addr).expect("connect with the last free fd");

    // Every established connection keeps RPC speed meanwhile.
    let mut worst_p50 = Duration::ZERO;
    for client in &clients {
        let mut latencies: Vec<Duration> = (0..20)
            .map(|_| {
                let started = Instant::now();
                client.queue_stats("q").expect("rpc during accept errors");
                started.elapsed()
            })
            .collect();
        latencies.sort_unstable();
        worst_p50 = worst_p50.max(latencies[latencies.len() / 2]);
    }
    drop(fillers);
    libc::set_nofile_limit(soft).expect("restore the fd limit");

    assert!(
        worst_p50 < Duration::from_millis(5),
        "RPC p50 rose to {worst_p50:?} on a loop whose listener fails to accept"
    );
    // With descriptors back, the listener's deadline returns it to the
    // poll set and the pending connection is accepted.
    integration_tests::wait_until(
        "the pending connection to be accepted",
        Duration::from_secs(5),
        || server.live_connections() == clients.len() + 1,
    );
    drop(pending);
    drop(clients);
    server.shutdown();
}
