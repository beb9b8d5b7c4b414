//! An idle stack costs its reactors nothing but heartbeats: no loop wakes
//! on a timer, so one server and one idle client make a few reactor passes
//! per heartbeat instead of one per poll cap.
//!
//! A binary of its own, because the reactor pass counts it reads are
//! process-global metrics.

use mqsim::{MessageBroker, Messaging as _, QueueOptions};
use net::{BrokerServer, NetBroker, NetConfig};
use std::time::Duration;

/// Passes each reactor has made so far: the client's, then the server
/// loops' (a server runs up to four).
fn passes() -> Vec<(String, u64)> {
    let names = std::iter::once("net.client".to_string())
        .chain((0..4).map(|i| format!("net.server.loop{i}")));
    names
        .map(|name| {
            let count = obs::histogram(&format!("{name}.reactor.loop_seconds")).count();
            (name, count)
        })
        .collect()
}

#[test]
fn an_idle_client_and_server_make_a_few_passes_per_heartbeat() {
    let heartbeat = Duration::from_millis(500);
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).expect("bind server");
    let client = NetBroker::connect_with(
        server.local_addr(),
        NetConfig {
            heartbeat,
            ..NetConfig::default()
        },
    )
    .expect("dial");
    client
        .declare_queue("q", QueueOptions::default())
        .expect("declare");

    let idle = Duration::from_secs(2);
    let before = passes();
    std::thread::sleep(idle);
    let after = passes();
    // A heartbeat is a ping, its reply and the server's turn between; three
    // passes per heartbeat per reactor leave room for one stray wake.
    let allowed = 3 * (idle.as_millis() / heartbeat.as_millis()) as u64;
    for ((name, b), (_, a)) in before.iter().zip(&after) {
        let made = a - b;
        eprintln!("{name}: {made} passes in {idle:?}");
        assert!(
            made <= allowed,
            "{name} made {made} passes in {idle:?} idle (at most {allowed} allowed)"
        );
    }
    client.close();
    server.shutdown();
}
