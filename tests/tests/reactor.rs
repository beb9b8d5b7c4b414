//! Event-loop level tests for the net tier's reactor: fd hygiene under
//! heavy connection churn, and loop liveness when one peer reads at a
//! pathological trickle.
//!
//! Both tests measure process-global state (`/proc/self/fd`, reactor
//! registration counts), so they serialize on a lock instead of trusting
//! the parallel test harness not to open sockets mid-measurement.

use integration_tests::wait_until;
use mqsim::{Message, MessageBroker, Messaging as _, QueueOptions};
use net::{client_reactor_registrations, BrokerServer, FaultProxy, NetBroker, NetConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// Number of open file descriptors in this process.
fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|entries| entries.count())
        .expect("/proc/self/fd readable on linux")
}

#[test]
fn connection_churn_leaks_no_fds_or_registrations() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).expect("bind server");
    let addr = server.local_addr();
    // The listener alone. Read before any connection: a torn-down
    // connection leaves `live_connections` a moment before its loop drops
    // the registration, so a count read after the warmup could include it.
    let reg_baseline = server.reactor_registrations();

    // Warm up the process-wide client runtime (reactor thread, wake pipe,
    // dialer pool) so its long-lived fds are part of the baseline, then
    // wait for the warmup connection to fully unwind on both sides.
    {
        let client = NetBroker::connect(addr).expect("warmup dial");
        client
            .declare_queue("churn", QueueOptions::default())
            .expect("declare");
    }
    wait_until(
        "warmup connection to unwind from both reactors",
        Duration::from_secs(10),
        || {
            server.live_connections() == 0
                && server.reactor_registrations() == reg_baseline
                && client_reactor_registrations() == 0
        },
    );
    let fd_baseline = open_fds();

    // 1000 short-lived clients, 20 at a time: connect, one real RPC, drop.
    const THREADS: usize = 20;
    const PER_THREAD: usize = 50;
    let mut handles = Vec::new();
    for t in 0..THREADS {
        handles.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let client = NetBroker::connect(addr).expect("churn dial");
                let stats = client
                    .queue_stats("churn")
                    .unwrap_or_else(|e| panic!("rpc failed (thread {t}, client {i}): {e}"));
                assert_eq!(stats.depth, 0);
                // Dropped here: both reactors must release the connection.
            }
        }));
    }
    for handle in handles {
        handle.join().expect("churn thread");
    }

    // No stuck registrations: the server reactor is back to its baseline
    // (the listener) and the client reactor is empty.
    wait_until(
        "server reactor registrations to return to baseline",
        Duration::from_secs(10),
        || server.live_connections() == 0 && server.reactor_registrations() == reg_baseline,
    );
    wait_until(
        "client reactor registrations to drain",
        Duration::from_secs(10),
        || client_reactor_registrations() == 0,
    );
    // No fd leak: every socket (stream + clones, both sides) is closed.
    wait_until(
        "open fds to return to the pre-churn baseline",
        Duration::from_secs(10),
        || open_fds() <= fd_baseline,
    );
}

#[test]
fn slow_reader_does_not_block_the_event_loop() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mq = MessageBroker::new();
    let server = BrokerServer::bind("127.0.0.1:0", mq.clone()).expect("bind server");
    mq.declare_queue("slow", QueueOptions::default())
        .expect("declare");

    // The slow consumer dials through a fault proxy so its byte stream can
    // be frozen; everyone else talks to the server directly.
    let mut proxy = FaultProxy::start(server.local_addr()).expect("start proxy");
    let slow = NetBroker::connect_with(
        proxy.local_addr(),
        NetConfig {
            // The stall starves this client of all traffic; a dead-peer
            // verdict mid-test would tear down the very connection whose
            // backpressure is under test.
            heartbeat: Duration::from_secs(30),
            ..NetConfig::default()
        },
    )
    .expect("dial through proxy");
    let slow_consumer = slow.subscribe("slow").expect("subscribe");
    let fast = NetBroker::connect(server.local_addr()).expect("dial direct");

    // Freeze the slow consumer's stream, then bury its connection under a
    // full credit window of large deliveries: the server's writes hit
    // `WouldBlock` and park as writer residue awaiting `POLLOUT`.
    proxy.set_stalled(true);
    const MESSAGES: usize = 96;
    let payload = vec![0xA5u8; 256 * 1024];
    for _ in 0..MESSAGES {
        mq.publish_to_queue("slow", Message::from_bytes(payload.clone()))
            .expect("publish");
    }

    // The event loop must keep serving every other connection at RPC
    // speed while the slow peer's bytes are parked.
    let mut latencies = Vec::with_capacity(200);
    for _ in 0..200 {
        let started = Instant::now();
        let stats = fast.queue_stats("slow").expect("fast client rpc");
        latencies.push(started.elapsed());
        assert!(stats.depth > 0, "undelivered backlog must remain queued");
    }
    latencies.sort_unstable();
    let p99 = latencies[latencies.len() * 99 / 100];
    assert!(
        p99 < Duration::from_millis(500),
        "fast client p99 degraded to {p99:?} behind a slow reader"
    );

    // Backpressure, not buffering: the server never put more than the
    // credit window in flight toward the stalled consumer.
    let stats = mq.queue_stats("slow").expect("stats");
    assert!(
        stats.unacked as u64 <= NetConfig::default().credit,
        "{} deliveries in flight exceeds the credit window",
        stats.unacked
    );

    // Release the stall: parked residue drains through `POLLOUT` and the
    // slow consumer catches up on the entire backlog.
    proxy.set_stalled(false);
    for i in 0..MESSAGES {
        let delivery = slow_consumer
            .recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|e| panic!("slow consumer stuck after release at {i}: {e}"));
        assert_eq!(delivery.message.payload().len(), payload.len());
        delivery.ack();
    }
    wait_until(
        "every ack to land server-side",
        Duration::from_secs(10),
        || {
            let stats = mq.queue_stats("slow").expect("stats");
            stats.acked == MESSAGES as u64 && stats.unacked == 0 && stats.depth == 0
        },
    );

    slow.close();
    fast.close();
    proxy.shutdown();
    server.shutdown();
}
