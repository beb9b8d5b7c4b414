//! The outbox on a running stack: bundles and their per-item outcomes, a
//! lost confirmation, a device leaving with changes queued, a connection
//! lost with a commit out, the chunk references of a change that waits,
//! and the session a device holds in the chunk store.

use super::*;
use crate::Deployment;
use metadata::MetadataStore;
use mqsim::{DeliveryInterceptor, PublishFault};
use std::sync::atomic::AtomicBool;

const T: Duration = Duration::from_secs(10);

fn config(device: &str) -> ClientConfig {
    ClientConfig::new("alice", device).with_chunk_size(4096)
}

/// A stack whose one service instance the test binds, so that it can stop
/// it: then a device's commit stays out and what it writes next queues
/// behind it.
fn stoppable_stack() -> (Deployment, WorkspaceId, ServerHandle) {
    let stack = Deployment::builder().instances(0).build().unwrap();
    let ws = stack.provision("alice", "Docs").unwrap();
    let instance = stack.service().bind(stack.broker()).unwrap();
    (stack, ws, instance)
}

/// Polls the store until `pred` holds of the workspace's current items.
fn store_reaches(stack: &Deployment, ws: &WorkspaceId, pred: impl Fn(&[ItemMetadata]) -> bool) {
    let deadline = Instant::now() + T;
    while !pred(&stack.store().current_items(ws).unwrap()) {
        assert!(Instant::now() < deadline, "the store never got there");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn version_of(items: &[ItemMetadata], path: &str) -> Option<u64> {
    items.iter().find(|i| i.path == path).map(|i| i.version)
}

/// Loses the first message published onto a queue whose name holds
/// `queue` and whose payload holds `marker`, as a broker that died with it
/// queued would.
struct LoseFirst {
    queue: String,
    marker: &'static [u8],
    lost: AtomicBool,
}

impl LoseFirst {
    fn install(stack: &Deployment, queue: &str, marker: &'static [u8]) {
        let plan = LoseFirst {
            queue: queue.to_string(),
            marker,
            lost: AtomicBool::new(false),
        };
        stack.message_broker().set_interceptor(Some(Arc::new(plan)));
    }
}

impl DeliveryInterceptor for LoseFirst {
    fn on_publish(&self, queue: &str, payload: &[u8]) -> PublishFault {
        let matches = queue.contains(&self.queue)
            && payload.windows(self.marker.len()).any(|w| w == self.marker);
        if matches && !self.lost.swap(true, Ordering::SeqCst) {
            PublishFault::Drop
        } else {
            PublishFault::Deliver
        }
    }
}

#[test]
fn a_bundle_with_a_conflicting_and_a_clean_item_decides_each() {
    let (stack, ws, instance) = stoppable_stack();
    let laptop = stack.connect(config("laptop"), &ws).unwrap();
    let phone = stack.connect(config("phone"), &ws).unwrap();
    laptop.write_file("x.txt", b"x1".to_vec()).unwrap();
    assert!(phone.wait_for_content("x.txt", b"x1", T));
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    instance.shutdown();

    // The first commit stays out; the laptop's version 2 of x and a new y
    // queue behind it.
    laptop.write_file("first.txt", b"1".to_vec()).unwrap();
    laptop.write_file("x.txt", b"laptop's x2".to_vec()).unwrap();
    laptop.write_file("y.txt", b"y1".to_vec()).unwrap();
    assert_eq!(laptop.shared.outbox.lock().depth(), 2);
    assert_eq!(laptop.unconfirmed_changes(), 3);
    // The phone's version 2 of x reaches the commit queue before the
    // laptop's bundle can.
    phone.write_file("x.txt", b"phone's x2".to_vec()).unwrap();
    let _instance = stack.service().bind(stack.broker()).unwrap();

    let copy = conflict_copy_path("x.txt", "laptop");
    for device in [&laptop, &phone] {
        assert!(device.wait_for_content(&copy, b"laptop's x2", T));
        assert!(device.wait_for_content("y.txt", b"y1", T));
        assert!(device.wait_for_content("x.txt", b"phone's x2", T));
        assert!(device.wait_for_content("first.txt", b"1", T));
    }
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    assert_eq!(laptop.stats().conflicts(), 1);
    let service = stack.service();
    assert_eq!(service.conflicts_detected(), 1);
    // x1, first, the phone's x2, the bundle of two, then the conflict copy
    // the bundle's notification queued.
    assert_eq!(
        (service.commits_processed(), service.changes_processed()),
        (5, 6)
    );
    let items = stack.store().current_items(&ws).unwrap();
    assert_eq!(version_of(&items, "x.txt"), Some(2));
    assert_eq!(version_of(&items, "y.txt"), Some(1));
    assert_eq!(laptop.list_files(), phone.list_files());
}

#[test]
fn two_queued_versions_of_one_path_land_as_consecutive_versions() {
    let (stack, ws, instance) = stoppable_stack();
    let laptop = stack.connect(config("laptop"), &ws).unwrap();
    let phone = stack.connect(config("phone"), &ws).unwrap();
    instance.shutdown();
    laptop.write_file("first.txt", b"1".to_vec()).unwrap();
    for version in 1..=3u8 {
        laptop.write_file("p.txt", vec![version; 5000]).unwrap();
    }
    assert_eq!(laptop.shared.outbox.lock().depth(), 3);
    let _instance = stack.service().bind(stack.broker()).unwrap();

    assert!(phone.wait_for_version("p.txt", 3, T));
    assert_eq!(phone.read_file("p.txt").unwrap(), vec![3u8; 5000]);
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    let history = stack.store().history(stable_item_id(&ws, "p.txt")).unwrap();
    let versions: Vec<u64> = history.iter().map(|v| v.version).collect();
    assert_eq!(versions, [1, 2, 3]);
    let service = stack.service();
    assert_eq!(
        (service.commits_processed(), service.changes_processed()),
        (2, 4),
        "the first commit, then one bundle"
    );
    assert_eq!(service.conflicts_detected(), 0);
    // The phone took the bundle's last version of p, two chunks, and
    // fetched nothing of the two before it.
    assert_eq!(phone.stats().changes_notified(), 4);
    assert_eq!(phone.stats().chunks_downloaded(), 1 + 2);
}

#[test]
fn a_lost_own_confirmation_releases_the_queue_and_every_change_lands() {
    let stack = Deployment::builder().build().unwrap();
    let ws = stack.provision("alice", "Docs").unwrap();
    let mut lossy = config("lossy-laptop");
    lossy.call_timeout = Duration::from_millis(200);
    // The only device: the first notification is its own confirmation.
    let laptop = stack.connect(lossy, &ws).unwrap();
    LoseFirst::install(&stack, "omq.inst.ws.notify.", b"notify_commit");

    laptop.write_file("a.txt", b"a1".to_vec()).unwrap();
    laptop.write_file("b.txt", b"b1".to_vec()).unwrap();
    laptop.write_file("a.txt", b"a2".to_vec()).unwrap();
    laptop.write_file("c.txt", b"c1".to_vec()).unwrap();

    // After one deadline b and c go; a's version 2 waits for a second, as
    // its version 1 is still unconfirmed.
    store_reaches(&stack, &ws, |items| {
        version_of(items, "b.txt") == Some(1) && version_of(items, "c.txt") == Some(1)
    });
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    let items = stack.store().current_items(&ws).unwrap();
    assert_eq!(version_of(&items, "a.txt"), Some(2));
    assert_eq!(stack.service().conflicts_detected(), 0);
    let dump = obs::flight::to_json();
    assert!(
        dump.contains(&format!("lossy-laptop released the outbox of {ws}")),
        "{dump}"
    );
}

#[test]
fn disconnect_sends_what_is_queued() {
    let (stack, ws, instance) = stoppable_stack();
    let laptop = stack.connect(config("laptop"), &ws).unwrap();
    instance.shutdown();
    for i in 0..5u8 {
        laptop
            .write_file(&format!("f{i}.txt"), vec![i; 100])
            .unwrap();
    }
    assert_eq!(laptop.shared.outbox.lock().depth(), 4);
    laptop.disconnect();

    let _instance = stack.service().bind(stack.broker()).unwrap();
    // The service counts a request just after the store applied it.
    let service = stack.service();
    store_reaches(&stack, &ws, |items| {
        items.len() == 5 && service.commits_processed() >= 2
    });
    assert_eq!(service.commits_processed(), 2, "f0, then the rest");
}

#[test]
fn a_commit_out_when_its_connection_dies_stays_pending_and_is_never_resent() {
    let stack = Deployment::builder().tcp().build().unwrap();
    let ws = stack.provision("alice", "Docs").unwrap();
    let link = stack.dial().unwrap();
    let mut cut = config("cut-laptop");
    cut.call_timeout = Duration::from_millis(200);
    let laptop = link.connect(stack.objects(), cut, &ws).unwrap();
    // The broker loses the request, as one that dies with it queued does.
    LoseFirst::install(&stack, "sync-service", b"commit_request");

    laptop.write_file("lost.txt", b"lost".to_vec()).unwrap();
    stack.server().unwrap().disconnect_all();
    assert_eq!(laptop.unconfirmed_changes(), 1, "still out, unconfirmed");
    // Nothing sends it again (ROADMAP item 20): two deadlines later the
    // outbox gives it up, and the store never saw it.
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    assert!(stack.store().current_items(&ws).unwrap().is_empty());
    laptop.write_file("next.txt", b"next".to_vec()).unwrap();
    store_reaches(&stack, &ws, |items| {
        version_of(items, "next.txt") == Some(1)
    });
    assert_eq!(
        version_of(&stack.store().current_items(&ws).unwrap(), "lost.txt"),
        None
    );
    drop(laptop);
    link.close();
}

#[test]
fn a_busy_workspace_does_not_keep_a_lost_confirmation_from_releasing() {
    let stack = Deployment::builder().build().unwrap();
    let ws = stack.provision("alice", "Docs").unwrap();
    let mut drowned = config("drowned-laptop");
    drowned.call_timeout = Duration::from_millis(200);
    let laptop = stack.connect(drowned, &ws).unwrap();
    let phone = stack.connect(config("busy-phone"), &ws).unwrap();
    // The laptop's own first confirmation, on its own listener's queue.
    let listener = laptop.listener.as_ref().unwrap().instance_name();
    LoseFirst::install(&stack, listener, b"drowned-laptop");

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The phone commits every 2 ms, so the laptop's listener never
        // waits a whole poll (20 ms) for a delivery and never idles.
        scope.spawn(|| {
            for i in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                phone
                    .write_file("busy.txt", i.to_le_bytes().to_vec())
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        laptop.write_file("a.txt", b"a1".to_vec()).unwrap();
        laptop.write_file("b.txt", b"b1".to_vec()).unwrap();
        // b is released after one deadline, while the phone keeps going.
        store_reaches(&stack, &ws, |items| version_of(items, "b.txt") == Some(1));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    assert_eq!(
        version_of(&stack.store().current_items(&ws).unwrap(), "a.txt"),
        Some(1)
    );
    let dump = obs::flight::to_json();
    assert!(
        dump.contains(&format!("drowned-laptop released the outbox of {ws}")),
        "{dump}"
    );
}

#[test]
fn a_queued_version_keeps_the_chunks_of_the_version_the_store_names() {
    let (stack, ws, instance) = stoppable_stack();
    let laptop = stack.connect(config("laptop"), &ws).unwrap();
    let token = stack.objects().authenticate("alice", "pw-alice").unwrap();
    let stats = || {
        let stats = stack.objects().dedup_stats(&token, "alice", "alice-chunks");
        let stats = stats.unwrap();
        (stats.live_chunks, stats.orphan_chunks)
    };
    laptop.write_file("x.txt", vec![1; 4096]).unwrap();
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    instance.shutdown();
    laptop.write_file("first.txt", vec![2; 4096]).unwrap();
    laptop.write_file("x.txt", vec![3; 4096]).unwrap();
    assert_eq!(laptop.shared.outbox.lock().depth(), 1);
    // x's version 1 is what the store names, and a sweep keeps it.
    assert_eq!(stats(), (3, 0));
    let swept = stack.objects().gc_chunks(&token, "alice", "alice-chunks");
    assert_eq!(swept.unwrap().collected, 0);

    let _instance = stack.service().bind(stack.broker()).unwrap();
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    assert_eq!(stats(), (2, 1), "version 2 sent, version 1's chunk let go");
    let late = stack.connect(config("tablet"), &ws).unwrap();
    assert_eq!(late.read_file("x.txt").unwrap(), vec![3; 4096]);
}

#[test]
fn a_delete_behind_an_unconfirmed_commit_returns_once_its_tombstone_is_sent() {
    let (stack, ws, instance) = stoppable_stack();
    let laptop = stack.connect(config("laptop"), &ws).unwrap();
    let token = stack.objects().authenticate("alice", "pw-alice").unwrap();
    laptop.write_file("x.txt", vec![1; 4096]).unwrap();
    assert!(laptop.wait(T, || laptop.unconfirmed_changes() == 0));
    instance.shutdown();
    laptop.write_file("first.txt", vec![2; 4096]).unwrap();

    let _instance = std::thread::scope(|scope| {
        let rebound = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(50));
            stack.service().bind(stack.broker()).unwrap()
        });
        laptop.delete_file("x.txt").unwrap();
        rebound.join().unwrap()
    });
    // Sent: first.txt was confirmed, the tombstone went, and x's chunk was
    // released as it did.
    assert!(!laptop
        .shared
        .outbox
        .lock()
        .unsent(stable_item_id(&ws, "x.txt"), 2));
    let stats = stack.objects().dedup_stats(&token, "alice", "alice-chunks");
    assert_eq!(stats.unwrap().orphan_chunks, 1);
    store_reaches(&stack, &ws, |items| {
        items.iter().any(|i| i.path == "x.txt" && i.is_deleted)
    });
}

#[test]
fn a_thousand_sessions_leave_one_token_per_live_device() {
    let stack = Deployment::builder().build().unwrap();
    let ws = stack.provision("alice", "Docs").unwrap();
    let keeper = stack.connect(config("keeper"), &ws).unwrap();
    // A token authorizes while its session lives.
    let live = |token: &Token| {
        let stats = stack.objects().dedup_stats(token, "alice", "alice-chunks");
        match stats {
            Ok(_) => true,
            Err(storage::StorageError::Unauthorized) => false,
            Err(other) => panic!("{other}"),
        }
    };
    let keeper_token = keeper.shared.token.clone();
    // Eight threads, so that each disconnect's wait for its listener does
    // not add up to seconds.
    let ended: Vec<Token> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..8)
            .map(|thread| {
                let (stack, ws, live) = (&stack, &ws, &live);
                scope.spawn(move || {
                    (0..125)
                        .map(|i| {
                            let device = stack.connect(config(&format!("d{thread}-{i}")), ws);
                            let device = device.unwrap();
                            let token = device.shared.token.clone();
                            assert!(live(&token));
                            device.disconnect();
                            token
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });
    assert_eq!(ended.len(), 1000);
    assert!(ended.iter().all(|token| !live(token)));
    assert!(live(&keeper_token), "the keeper's");
    drop(keeper);
    assert!(!live(&keeper_token));
}
