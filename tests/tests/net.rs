//! End-to-end sync over the real TCP transport (`crates/net`): the broker
//! lives behind a [`BrokerServer`], the desktop clients dial it with
//! [`NetBroker`], and the full workspace protocol — commits, push
//! notifications, deletions — must behave exactly as in-process, including
//! across a mid-traffic loss of every client socket.
//!
//! The reconnect edge cases run the client through a [`net::FaultProxy`]
//! — the byte-level choke point of the fault-injection harness — which
//! can stall forwarding (black-hole partition), sever every link
//! mid-frame, and corrupt bytes in flight. See `crates/faultsim` for the
//! broker-level half of the harness and DESIGN.md §Testing for how the
//! two fit together.

use integration_tests::wait_until;
use metadata::{MetadataStore, WorkspaceId};
use mqsim::{Message, MessageBroker, Messaging as _, QueueOptions};
use net::{BrokerServer, FaultProxy, NetBroker, NetConfig};
use stacksync::{ClientConfig, Deployment, DesktopClient, Link};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(15);

/// Dials the deployment's front end and connects a desktop client through
/// it.
fn connect_client(cloud: &Deployment, user: &str, device: &str, ws: &WorkspaceId) -> DesktopClient {
    let addr = cloud.server().expect("a TCP front end").local_addr();
    let net = NetBroker::connect_with(
        addr,
        NetConfig {
            // Tight heartbeat so reconnects happen well inside WAIT.
            heartbeat: Duration::from_millis(200),
            ..NetConfig::default()
        },
    )
    .expect("dial broker server");
    Link::over(net)
        .connect(cloud.objects(), ClientConfig::new(user, device), ws)
        .expect("connect client")
}

#[test]
fn two_clients_sync_over_tcp_loopback() {
    let stack = Deployment::builder().tcp().build().unwrap();
    let ws = stack.provision("alice", "ws").unwrap();
    let writer = connect_client(&stack, "alice", "writer", &ws);
    let reader = connect_client(&stack, "alice", "reader", &ws);

    writer.write_file("a.txt", b"created".to_vec()).unwrap();
    writer.write_file("b.txt", b"v1".to_vec()).unwrap();
    writer.write_file("b.txt", b"v2".to_vec()).unwrap();
    assert!(
        reader.wait_for_content("a.txt", b"created", WAIT),
        "ADD did not propagate over TCP"
    );
    assert!(
        reader.wait_for_content("b.txt", b"v2", WAIT),
        "UPDATE did not propagate over TCP"
    );

    writer.delete_file("a.txt").unwrap();
    assert!(
        reader.wait_for_absent("a.txt", WAIT),
        "DELETE did not propagate over TCP"
    );
    assert_eq!(reader.stats().changes_notified(), 4);
}

#[test]
fn sync_rides_through_a_server_socket_kill() {
    let stack = Deployment::builder().tcp().build().unwrap();
    let ws = stack.provision("bob", "ws").unwrap();
    let writer = connect_client(&stack, "bob", "writer", &ws);
    let reader = connect_client(&stack, "bob", "reader", &ws);
    let reconnects = obs::counter("net.client.reconnects");

    // Phase 1: baseline traffic, fully confirmed on the reader.
    for i in 0..3 {
        writer
            .write_file(&format!("pre{i}.dat"), vec![i as u8; 4096])
            .unwrap();
    }
    for i in 0..3 {
        assert!(
            reader.wait_for_content(&format!("pre{i}.dat"), &vec![i as u8; 4096], WAIT),
            "pre{i} did not sync before the partition"
        );
    }

    // Phase 2: hard-close every client socket mid-session and keep
    // committing immediately — writes must ride the reconnect via the
    // client's transparent retry, and the reader's notification listener
    // must resubscribe on its new connection.
    let reconnects_before = reconnects.value();
    stack.server().unwrap().disconnect_all();
    for i in 0..3 {
        writer
            .write_file(&format!("post{i}.dat"), vec![0x40 + i as u8; 4096])
            .unwrap();
    }
    for i in 0..3 {
        assert!(
            reader.wait_for_content(&format!("post{i}.dat"), &vec![0x40 + i as u8; 4096], WAIT),
            "post{i} lost across the partition: an acked commit disappeared"
        );
    }
    assert!(
        reconnects.value() > reconnects_before,
        "clients never reconnected, the partition was not injected"
    );

    // Every file (pre- and post-partition) is in the server metadata: no
    // acked commit was lost.
    let committed = stack.store().current_items(&ws).unwrap();
    let mut paths: Vec<&str> = committed
        .iter()
        .filter(|i| !i.is_deleted)
        .map(|i| i.path.as_str())
        .collect();
    paths.sort_unstable();
    assert_eq!(
        paths,
        vec![
            "post0.dat",
            "post1.dat",
            "post2.dat",
            "pre0.dat",
            "pre1.dat",
            "pre2.dat"
        ]
    );
}

/// Raw broker behind a fault proxy: `mq` is the server-side truth the
/// tests assert against, `client` dials through the proxy.
fn proxied_stack() -> (MessageBroker, BrokerServer, FaultProxy, NetBroker) {
    let mq = MessageBroker::new();
    let server = BrokerServer::bind("127.0.0.1:0", mq.clone()).expect("bind server");
    let proxy = FaultProxy::start(server.local_addr()).expect("start proxy");
    let client = NetBroker::connect_with(
        proxy.local_addr(),
        NetConfig {
            // Loose enough that CPU contention from parallel tests cannot
            // fake a dead peer: every disconnect in these tests is forced
            // through the proxy (sever/corrupt), detected by socket error,
            // not by heartbeat.
            heartbeat: Duration::from_millis(500),
            op_timeout: Duration::from_secs(10),
            ..NetConfig::default()
        },
    )
    .expect("dial through proxy");
    (mq, server, proxy, client)
}

#[test]
fn subscribe_survives_partition_that_eats_the_reply() {
    // The nasty window: the subscribe request is absorbed by a black-hole
    // partition (stalled proxy), then the link is severed while the frame
    // is in flight — the reply never existed. The client's retry layer
    // must carry the pending subscribe across the reconnect, and the new
    // subscription must actually deliver.
    let (mq, server, mut proxy, client) = proxied_stack();
    client.declare_queue("q", QueueOptions::default()).unwrap();

    proxy.set_stalled(true);
    let subscriber = client.clone();
    let pending = std::thread::spawn(move || subscriber.subscribe("q"));
    // Give the subscribe frame time to be swallowed by the stall, then
    // cut the link: the held bytes are lost, like a packet in flight when
    // a partition hits.
    std::thread::sleep(Duration::from_millis(200));
    assert!(!pending.is_finished(), "subscribe must hang in the stall");
    proxy.sever_all();
    proxy.set_stalled(false);

    let consumer = pending
        .join()
        .unwrap()
        .expect("subscribe must ride the reconnect");
    mq.publish_to_queue("q", Message::from_bytes(b"after-partition".to_vec()))
        .unwrap();
    let delivery = consumer
        .recv_timeout(Duration::from_secs(10))
        .expect("the re-established subscription must deliver");
    assert_eq!(delivery.message.payload(), b"after-partition");
    delivery.ack();
    // If an unlucky reconnect races the ack (making it generation-stale),
    // the server requeues and redelivers — ack the retry too; the message
    // must end up acked exactly once either way.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = mq.queue_stats("q").unwrap();
        if stats.acked == 1 && stats.unacked == 0 && stats.depth == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the ack to land server-side: {stats:?}"
        );
        if let Ok(retry) = consumer.recv_timeout(Duration::from_millis(100)) {
            assert_eq!(retry.message.payload(), b"after-partition");
            retry.ack();
        }
    }
    assert!(proxy.links_opened() >= 2, "a reconnect must have happened");
    client.close();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn stale_generation_delivery_acks_are_inert_after_reconnect() {
    // A delivery is in the client's hands when the connection dies. The
    // server requeues it (requeue-on-disconnect) and redelivers on the
    // resubscribed consumer under a new connection generation. Resolving
    // the *old* delivery must be a no-op — its server-side tag is gone and
    // may have been reassigned — and exactly one ack must count.
    let (mq, server, mut proxy, client) = proxied_stack();
    client.declare_queue("q", QueueOptions::default()).unwrap();
    let consumer = client.subscribe("q").unwrap();
    mq.publish_to_queue("q", Message::from_bytes(b"once".to_vec()))
        .unwrap();

    let stale = consumer
        .recv_timeout(Duration::from_secs(5))
        .expect("first delivery");
    assert!(!stale.redelivered);

    // Kill every link while the delivery is unacked; the client reconnects
    // and resubscribes, the server redelivers.
    proxy.sever_all();
    let fresh = consumer
        .recv_timeout(Duration::from_secs(10))
        .expect("redelivery after reconnect");
    assert!(fresh.redelivered, "the retry must be flagged redelivered");
    assert_eq!(fresh.message.payload(), b"once");

    // Acking the stale delivery now must do nothing: its generation is
    // behind the connection's.
    stale.ack();
    fresh.ack();
    wait_until(
        "exactly one ack to land server-side",
        Duration::from_secs(5),
        || {
            let stats = mq.queue_stats("q").unwrap();
            stats.acked == 1 && stats.unacked == 0 && stats.depth == 0
        },
    );
    assert!(proxy.links_opened() >= 2);
    client.close();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn corrupted_length_prefix_disconnects_instead_of_allocating() {
    // Corrupt the next four server→client bytes: the length prefix of the
    // next reply frame becomes a ~4 GiB claim. The frame layer must
    // reject it against MAX_FRAME *before* allocating and drop the
    // connection; the client then reconnects and the retried request
    // succeeds. A client that trusted the prefix would try to read (and
    // buffer) gigabytes that never arrive, and hang until op-timeout.
    let (mq, server, mut proxy, client) = proxied_stack();
    client.declare_queue("q", QueueOptions::default()).unwrap();
    mq.publish_to_queue("q", Message::from_bytes(b"x".to_vec()))
        .unwrap();
    let links_before = proxy.links_opened();

    proxy.corrupt_to_client(4);
    // This request's reply is the corrupted frame; the client must tear
    // the connection down and transparently retry on a fresh one.
    let stats = client.queue_stats("q").expect("retried request succeeds");
    assert_eq!(stats.depth, 1);
    wait_until(
        "the poisoned link to be replaced",
        Duration::from_secs(5),
        || proxy.links_opened() > links_before,
    );
    client.close();
    proxy.shutdown();
    server.shutdown();
}
