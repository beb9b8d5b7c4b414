//! The client's two timed paths, each of which a reactor that sleeps until
//! an event or a deadline must still take: heartbeat death of a silent
//! peer, and a redial parked in backoff.
//!
//! A binary of its own, and the tests serialize: a parked redial must fire
//! with nothing else in the process to wake the client reactor.

use integration_tests::wait_until;
use mqsim::{Message, MessageBroker, Messaging as _, QueueOptions};
use net::{BrokerServer, FaultProxy, NetBroker, NetConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_silent_peer_is_declared_dead_and_redialed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).expect("bind server");
    let mut proxy = FaultProxy::start(server.local_addr()).expect("start proxy");
    let heartbeat = Duration::from_millis(50);
    let client = NetBroker::connect_with(
        proxy.local_addr(),
        NetConfig {
            op_timeout: Duration::from_secs(5),
            heartbeat,
            ..NetConfig::default()
        },
    )
    .expect("dial through proxy");
    // The reply to this call is read after `silent_from`, so the client's
    // last sign of life from the peer is no earlier.
    let silent_from = Instant::now();
    client
        .declare_queue("q", QueueOptions::default())
        .expect("declare");
    proxy.set_stalled(true);
    let publisher = client.clone();
    let pending =
        std::thread::spawn(move || publisher.publish_to_queue("q", Message::from_static(b"held")));

    wait_until(
        "the client to dial a new link",
        Duration::from_secs(5),
        || proxy.links_opened() >= 2,
    );
    let dropped = silent_from.elapsed();
    assert!(
        dropped >= heartbeat * 4,
        "link dropped after {dropped:?}, before four heartbeats of silence"
    );
    assert!(
        dropped < Duration::from_secs(1),
        "link dropped only after {dropped:?}"
    );
    assert!(
        !pending.is_finished(),
        "the request cannot complete while the proxy is stalled"
    );

    proxy.set_stalled(false);
    pending
        .join()
        .expect("publisher thread")
        .expect("the pending publish completes on the new link");
    // At least once: the copy the stalled old link held may land as well.
    assert!(client.queue_stats("q").expect("depth").depth >= 1);
    client.close();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn a_parked_redial_fires_with_no_other_traffic() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).expect("bind server");
    let addr = server.local_addr();
    let client = NetBroker::connect_with(
        addr,
        NetConfig {
            op_timeout: Duration::from_secs(5),
            backoff_cap: Duration::from_millis(100),
            ..NetConfig::default()
        },
    )
    .expect("dial");
    client
        .declare_queue("q", QueueOptions::default())
        .expect("declare");

    // The link dies and redials are refused: by 300 ms the first backoff
    // has expired, its redial failed, and the client is parked again, with
    // no connection of its own left to wake the client reactor.
    server.shutdown();
    std::thread::sleep(Duration::from_millis(300));
    let server = BrokerServer::bind(addr, MessageBroker::new()).expect("rebind the same port");

    // Only the parked deadline can bring the client back now; the request
    // waits for the connection up to its 5 s operation timeout.
    client
        .declare_queue("q", QueueOptions::default())
        .expect("the parked client redials the rebound server");
    client.close();
    server.shutdown();
}
