//! End-to-end tests of the full StackSync stack: ObjectMQ over the
//! in-process broker, SyncService over the metadata store, desktop clients
//! over the chunk store.

use metadata::MetadataStore;
use objectmq::RemoteObject;
use stacksync::{ClientConfig, Deployment, DesktopClient, SYNC_SERVICE_OID};
use std::time::Duration;
use wire::Value;

const T: Duration = Duration::from_secs(5);

fn stack() -> Deployment {
    Deployment::builder().build().unwrap()
}

fn small_config(user: &str, device: &str) -> ClientConfig {
    // 4 KB chunks keep test payloads interesting without 512 KB files.
    ClientConfig::new(user, device).with_chunk_size(4096)
}

#[test]
fn two_devices_full_sync() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    let payload = vec![42u8; 10_000];
    a.write_file("report.txt", payload.clone()).unwrap();
    assert!(b.wait_for_content("report.txt", &payload, T));
    assert_eq!(b.file_version("report.txt"), Some(1));
    assert!(b.stats().notifications() >= 1);
}

#[test]
fn update_propagates_new_version() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    a.write_file("f.txt", b"v1".to_vec()).unwrap();
    assert!(b.wait_for_content("f.txt", b"v1", T));
    a.write_file("f.txt", b"v2 content".to_vec()).unwrap();
    assert!(b.wait_for_content("f.txt", b"v2 content", T));
    assert_eq!(b.file_version("f.txt"), Some(2));
}

#[test]
fn delete_propagates_tombstone() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    a.write_file("gone.txt", b"bye".to_vec()).unwrap();
    assert!(b.wait_for_content("gone.txt", b"bye", T));
    a.delete_file("gone.txt").unwrap();
    assert!(b.wait_for_absent("gone.txt", T));
    // Deleting again reports NoSuchFile.
    assert!(a.delete_file("gone.txt").is_err());
}

#[test]
fn recreate_after_delete_continues_version_chain() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    a.write_file("phoenix.txt", b"first life".to_vec()).unwrap();
    assert!(b.wait_for_content("phoenix.txt", b"first life", T));
    a.delete_file("phoenix.txt").unwrap();
    assert!(b.wait_for_absent("phoenix.txt", T));
    a.write_file("phoenix.txt", b"second life".to_vec())
        .unwrap();
    assert!(b.wait_for_content("phoenix.txt", b"second life", T));
    assert_eq!(
        b.file_version("phoenix.txt"),
        Some(3),
        "v1, tombstone v2, v3"
    );
}

#[test]
fn late_joiner_gets_full_state_via_get_changes() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    a.write_file("one.txt", b"1".to_vec()).unwrap();
    a.write_file("two.txt", vec![7u8; 9000]).unwrap();
    a.write_file("doomed.txt", b"x".to_vec()).unwrap();
    // Wait until the service decided all three changes.
    assert!(a.wait(T, || s.service().changes_processed() >= 3));
    a.delete_file("doomed.txt").unwrap();
    assert!(a.wait(T, || s.service().changes_processed() >= 4));

    // A device connecting later must reconstruct exactly the live files.
    let late = s.connect(small_config("alice", "tablet"), &ws).unwrap();
    assert_eq!(late.list_files(), vec!["one.txt", "two.txt"]);
    assert_eq!(late.read_file("two.txt").unwrap(), vec![7u8; 9000]);
}

#[test]
fn per_user_dedup_skips_duplicate_chunks() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();

    let chunk = vec![9u8; 4096];
    // Two files with identical content: second upload must dedup entirely.
    a.write_file("a.bin", chunk.clone()).unwrap();
    a.write_file("copy-of-a.bin", chunk.clone()).unwrap();
    assert_eq!(a.stats().chunks_uploaded(), 1);
    assert_eq!(a.stats().chunks_deduplicated(), 1);

    // Both files still sync correctly to another device.
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    assert!(b.wait_for_content("a.bin", &chunk, T));
    assert!(b.wait_for_content("copy-of-a.bin", &chunk, T));
}

#[test]
fn multi_chunk_files_reassemble_in_order() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    // 3.5 chunks of distinct content so ordering mistakes are detectable.
    let payload: Vec<u8> = (0..14_336u32).map(|i| (i % 251) as u8).collect();
    a.write_file("big.bin", payload.clone()).unwrap();
    assert!(b.wait_for_content("big.bin", &payload, T));
}

#[test]
fn conflict_creates_conflict_copy_and_converges() {
    // A conflict needs *concurrent* edits: both devices must commit before
    // either sees the other's notification. The one instance sleeps before
    // each commit, longer than the paper's measured 50 ms service time
    // (Table 3), which makes the race deterministic.
    let s = Deployment::builder().instances(0).build().unwrap();
    let service = s.service().clone();
    let _slow = s
        .broker()
        .bind(SYNC_SERVICE_OID, move |method: &str, args: &[Value]| {
            if method == "commit_request" {
                std::thread::sleep(Duration::from_millis(100));
            }
            service.dispatch(method, args)
        })
        .unwrap();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    // Both devices create the same path concurrently with different bytes:
    // both propose version 1 of the same item — the second one processed
    // loses (paper §4.2.1).
    a.write_file("draft.txt", b"from laptop".to_vec()).unwrap();
    b.write_file("draft.txt", b"from phone".to_vec()).unwrap();

    // Eventually: exactly one winner under draft.txt on both devices, and
    // the loser's bytes preserved in a conflict copy that also syncs.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let a_files = a.list_files();
        let b_files = b.list_files();
        let converged = a_files == b_files
            && a_files.len() == 2
            && a.read_file("draft.txt") == b.read_file("draft.txt");
        if converged {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "devices did not converge: a={a_files:?} b={b_files:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(s.service().conflicts_detected(), 1);
    let total_conflict_copies = a.stats().conflicts() + b.stats().conflicts();
    assert_eq!(total_conflict_copies, 1, "exactly one device lost");
    // The conflict copy path carries the losing device's name.
    let files = a.list_files();
    assert!(
        files.iter().any(|f| f.contains("conflicted copy")),
        "conflict copy must exist: {files:?}"
    );
}

#[test]
fn control_traffic_is_accounted() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    a.write_file("f.txt", vec![1u8; 5000]).unwrap();
    assert!(a.wait(T, || a.stats().notifications() >= 1));
    assert!(a.stats().control_sent_bytes() > 0);
    assert!(a.stats().control_received_bytes() > 0);
    // Control traffic must be far smaller than the data shipped.
    assert!(a.stats().control_bytes() < 5000);
    assert!(s.objects().traffic().uploaded_bytes() > 0);
}

#[test]
fn service_pool_scales_without_client_changes() {
    // Bind three SyncService instances to the same oid: the clients are
    // oblivious and the broker load-balances commits.
    let s = stack();
    let extra1 = s.service().bind(s.broker()).unwrap();
    let extra2 = s.service().bind(s.broker()).unwrap();
    let ws = s.provision("alice", "Docs").unwrap();
    // One device per commit request: a device's outbox would bundle
    // changes made back to back into fewer requests.
    let writers: Vec<DesktopClient> = (0..20)
        .map(|i| s.connect(small_config("alice", &format!("dev-{i}")), &ws))
        .collect::<Result<_, _>>()
        .unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    for (i, a) in writers.iter().enumerate() {
        a.write_file(&format!("file-{i}.txt"), vec![i as u8; 100])
            .unwrap();
    }
    assert!(b.wait(Duration::from_secs(10), || {
        s.service().commits_processed() >= 20
    }));
    // All files eventually on device b.
    assert!(b.wait(Duration::from_secs(10), || b.list_files().len() == 20));
    extra1.shutdown();
    extra2.shutdown();
}

#[test]
fn instance_crash_mid_commit_is_redelivered() {
    // One healthy instance + commits while an instance dies: the queue
    // redelivers unacked commits, so nothing is lost (paper §3.4).
    let s = stack();
    let victim = s.service().bind(s.broker()).unwrap();
    let ws = s.provision("alice", "Docs").unwrap();
    // One device per commit request, so that ten requests are queued.
    let devices: Vec<DesktopClient> = (0..10)
        .map(|i| s.connect(small_config("alice", &format!("dev-{i}")), &ws))
        .collect::<Result<_, _>>()
        .unwrap();
    for (i, a) in devices.iter().enumerate() {
        a.write_file(&format!("f{i}.txt"), vec![i as u8; 64])
            .unwrap();
    }
    victim.kill();
    let a = &devices[0];
    assert!(
        a.wait(Duration::from_secs(10), || s.service().commits_processed()
            >= 10),
        "all commits must be processed despite the crash (got {})",
        s.service().commits_processed()
    );
}

#[test]
fn empty_file_syncs() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    a.write_file("empty.txt", vec![]).unwrap();
    assert!(b.wait_for_content("empty.txt", b"", T));
}

#[test]
fn get_workspaces_rpc_through_middleware() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let proxy = s.broker().lookup(stacksync::SYNC_SERVICE_OID).unwrap();
    let result = proxy
        .call_sync(
            "get_workspaces",
            vec![wire::Value::from("alice")],
            Duration::from_millis(1500),
            5,
        )
        .unwrap();
    let list = result.as_list().unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(
        list[0].field("id").unwrap().as_str().unwrap(),
        ws.0.as_str()
    );
}

#[test]
fn cdc_chunking_strategy_syncs_and_saves_prepend_traffic() {
    // The paper's pluggable-chunking hook: a CDC client re-uploads far
    // less than a fixed-chunking client when a file is modified at the
    // beginning (the boundary-shifting problem).
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let fixed_dev = s
        .connect(
            ClientConfig::new("alice", "fixed-dev").with_chunk_size(2048),
            &ws,
        )
        .unwrap();

    // Separate user so the chunk stores do not cross-pollinate.
    s.provision("bob", "Docs").unwrap();
    let ws_b = s.store().workspaces_of("bob").unwrap()[0].id.clone();
    let cdc_dev = s
        .connect(
            ClientConfig::new("bob", "cdc-dev").with_cdc(512, 8192, 11, 48),
            &ws_b,
        )
        .unwrap();

    // Identical pseudo-random content for both.
    let base: Vec<u8> = (0..60_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let mut prepended = vec![0xAB; 16];
    prepended.extend_from_slice(&base);

    fixed_dev.write_file("doc.bin", base.clone()).unwrap();
    cdc_dev.write_file("doc.bin", base.clone()).unwrap();
    let fixed_before = fixed_dev.stats().chunks_uploaded();
    let cdc_before = cdc_dev.stats().chunks_uploaded();

    fixed_dev.write_file("doc.bin", prepended.clone()).unwrap();
    cdc_dev.write_file("doc.bin", prepended.clone()).unwrap();
    let fixed_new = fixed_dev.stats().chunks_uploaded() - fixed_before;
    let cdc_new = cdc_dev.stats().chunks_uploaded() - cdc_before;

    assert!(
        fixed_new >= 25,
        "fixed chunking must re-upload nearly all ~30 chunks, got {fixed_new}"
    );
    assert!(
        cdc_new * 3 < fixed_new,
        "CDC must re-upload far fewer chunks: cdc {cdc_new} vs fixed {fixed_new}"
    );

    // And the CDC workspace still syncs correctly to a second device.
    let verifier = s
        .connect(
            ClientConfig::new("bob", "verifier").with_cdc(512, 8192, 11, 48),
            &ws_b,
        )
        .unwrap();
    assert_eq!(verifier.read_file("doc.bin").unwrap(), prepended);
}

#[test]
fn shared_workspace_across_users() {
    // Alice shares her workspace with Bob: metadata membership plus a
    // storage-layer container grant (Swift ACLs). Bob's device then reads
    // Alice's chunks from *her* container and contributes its own.
    let s = stack();
    let ws = s.provision("alice", "Shared").unwrap();
    let alice = s.connect(small_config("alice", "a-laptop"), &ws).unwrap();
    alice.write_file("spec.md", b"# spec v1".to_vec()).unwrap();
    assert!(alice.wait(T, || s.service().commits_processed() >= 1));

    // Share: metadata membership + storage grant on alice's container.
    s.store().create_user("bob").unwrap();
    s.store().share_workspace(&ws, "bob").unwrap();
    let alice_token = s.objects().authenticate("alice", "pw-alice").unwrap();
    s.objects()
        .grant_access(&alice_token, "alice-chunks", "bob")
        .unwrap();

    // Bob sees the workspace in his listing and connects to it.
    let bobs = s.store().workspaces_of("bob").unwrap();
    assert_eq!(bobs.len(), 1);
    assert_eq!(bobs[0].id, ws);
    assert_eq!(bobs[0].members, vec!["bob".to_string()]);
    let bob = s.connect(small_config("bob", "b-laptop"), &ws).unwrap();
    assert_eq!(bob.read_file("spec.md").unwrap(), b"# spec v1");

    // Bob contributes; Alice receives.
    bob.write_file("notes.md", b"from bob".to_vec()).unwrap();
    assert!(alice.wait_for_content("notes.md", b"from bob", T));

    // Bob edits Alice's file; version chain continues.
    bob.write_file("spec.md", b"# spec v2 (bob)".to_vec())
        .unwrap();
    assert!(alice.wait_for_content("spec.md", b"# spec v2 (bob)", T));
    assert_eq!(alice.file_version("spec.md"), Some(2));
}

#[test]
fn unshared_user_cannot_read_foreign_chunks() {
    // Without a grant, connecting to someone else's workspace fails at the
    // storage layer (the metadata leak is a separate policy; chunk bytes
    // stay protected).
    let s = stack();
    let ws = s.provision("alice", "Private").unwrap();
    let alice = s.connect(small_config("alice", "a-dev"), &ws).unwrap();
    alice
        .write_file("secret.txt", b"classified".to_vec())
        .unwrap();
    assert!(alice.wait(T, || s.service().commits_processed() >= 1));

    s.store().create_user("eve").unwrap();
    // Eve knows the workspace id but has no storage grant: connect must
    // fail while materializing alice's chunks.
    let result = s.connect(small_config("eve", "e-dev"), &ws);
    assert!(result.is_err(), "chunk access without a grant must fail");
}

#[test]
fn startup_flow_lists_workspaces_then_connects() {
    // The paper's client startup: getWorkspaces → pick one → getChanges.
    let s = stack();
    s.provision("alice", "Docs").unwrap();
    let second = s.store().create_workspace("alice", "Photos").unwrap();
    let cfg = small_config("alice", "laptop");
    let mut workspaces = DesktopClient::workspaces(s.broker(), &cfg).unwrap();
    workspaces.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(workspaces.len(), 2);
    assert_eq!(workspaces[0].name, "Docs");
    assert_eq!(workspaces[1].name, "Photos");
    assert_eq!(workspaces[1].id, second);

    let client = s.connect(cfg, &workspaces[1].id).unwrap();
    client.write_file("cat.jpg", vec![1, 2, 3]).unwrap();
    assert!(client.wait(T, || s.service().commits_processed() >= 1));

    // Unknown users get a remote error, not a panic.
    let ghost_cfg = small_config("ghost", "x");
    assert!(DesktopClient::workspaces(s.broker(), &ghost_cfg).is_err());
}

#[test]
fn rename_costs_metadata_only_and_propagates() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();

    let payload = vec![5u8; 9000];
    a.write_file("old-name.bin", payload.clone()).unwrap();
    assert!(b.wait_for_content("old-name.bin", &payload, T));
    let uploads_before = a.stats().chunks_uploaded();

    let downloads_before = b.stats().chunks_downloaded();

    a.rename_file("old-name.bin", "new-name.bin").unwrap();
    assert!(b.wait_for_content("new-name.bin", &payload, T));
    assert!(b.wait_for_absent("old-name.bin", T));
    assert_eq!(
        a.stats().chunks_uploaded(),
        uploads_before,
        "a rename must not re-upload any chunk (dedup)"
    );
    assert_eq!(
        b.stats().chunks_downloaded(),
        downloads_before,
        "a rename must not download any chunk: the old path holds them all"
    );
    assert_eq!(b.stats().chunks_reused(), 3);
    // Renaming a missing file errors.
    assert!(a.rename_file("ghost.bin", "x.bin").is_err());
}

#[test]
fn renaming_a_file_onto_itself_changes_nothing_anywhere() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    let payload = noise(9_000, 3);
    a.write_file("same.bin", payload.clone()).unwrap();
    assert!(b.wait_for_content("same.bin", &payload, T));
    assert!(a.wait(T, || s.service().changes_processed() == 1));
    let token = s.objects().authenticate("alice", "pw-alice").unwrap();
    let chunks = || {
        s.objects()
            .dedup_stats(&token, "alice", "alice-chunks")
            .unwrap()
    };
    let (live, sent) = (chunks().live_chunks, a.stats().control_sent_bytes());

    a.rename_file("same.bin", "same.bin").unwrap();
    assert_eq!(a.stats().control_sent_bytes(), sent, "no commit was sent");
    // The laptop's commits reach the service in the order it sent them,
    // so once a later one is applied, any from the rename would be too.
    a.write_file("marker.txt", b"after".to_vec()).unwrap();
    assert!(b.wait_for_content("marker.txt", b"after", T));
    assert_eq!(
        s.service().changes_processed(),
        2,
        "the marker's, and no other"
    );
    for device in [&a, &b] {
        assert_eq!(
            device.read_file("same.bin").unwrap(),
            payload,
            "{}",
            device.device()
        );
        assert_eq!(
            device.file_version("same.bin"),
            Some(1),
            "{}",
            device.device()
        );
    }
    assert_eq!(
        chunks().live_chunks,
        live + 1,
        "the file's chunks and the marker's"
    );
    assert_eq!(chunks().orphan_chunks, 0);
    assert!(a.rename_file("ghost.bin", "ghost.bin").is_err());
}

#[test]
fn cdc_pipeline_full_sync_roundtrip() {
    // Two devices running the parallel ingest pipeline with content-defined
    // chunking: content must round-trip bit-exactly, and chunk verification
    // must pass on download.
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let cfg = |device: &str| {
        ClientConfig::new("alice", device)
            .with_cdc(1024, 8192, 11, 48)
            .with_ingest_workers(2)
    };
    let a = s.connect(cfg("laptop"), &ws).unwrap();
    let b = s.connect(cfg("phone"), &ws).unwrap();

    // Structured + noisy payload spanning many CDC chunks.
    let mut payload = Vec::with_capacity(60_000);
    let mut x = 0x1d872b41u32;
    for i in 0..60_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        payload.push(if i % 3 == 0 { (i % 251) as u8 } else { x as u8 });
    }
    a.write_file("mixed.bin", payload.clone()).unwrap();
    assert!(b.wait_for_content("mixed.bin", &payload, T));

    // An update flows back the other way.
    let mut v2 = payload.clone();
    v2.extend_from_slice(b"appended tail");
    b.write_file("mixed.bin", v2.clone()).unwrap();
    assert!(a.wait_for_content("mixed.bin", &v2, T));
    // The unchanged prefix dedups: CDC + refcount store mean the second
    // version re-uploads only the tail chunk(s).
    assert!(b.stats().chunks_deduplicated() > 0);
}

#[test]
fn delete_releases_chunks_for_gc() {
    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();

    // "unique" has exclusive chunks; "shared"'s chunk is also held by
    // "keeper" under a different path.
    let shared_payload = vec![3u8; 4096];
    a.write_file("shared.bin", shared_payload.clone()).unwrap();
    a.write_file("keeper.bin", shared_payload.clone()).unwrap();
    let mut unique_payload = vec![4u8; 4096];
    unique_payload.extend_from_slice(&[5u8; 4096]); // two distinct chunks
    a.write_file("unique.bin", unique_payload).unwrap();
    let token = s.objects().authenticate("alice", "pw-alice").unwrap();
    let container = "alice-chunks";
    let live_before = s.objects().dedup_stats(&token, "alice", container).unwrap();
    assert_eq!(live_before.live_chunks, 3); // 1 shared + 2 unique
    assert_eq!(live_before.orphan_chunks, 0);

    a.delete_file("unique.bin").unwrap();
    a.delete_file("shared.bin").unwrap();
    let stats = s.objects().dedup_stats(&token, "alice", container).unwrap();
    // unique.bin's two chunks orphaned; the shared chunk survives via
    // keeper.bin.
    assert_eq!(stats.orphan_chunks, 2);
    assert_eq!(stats.live_chunks, 1);

    let gc = s.objects().gc_chunks(&token, "alice", container).unwrap();
    assert_eq!(gc.collected, 2);
    // keeper.bin still materializes for a fresh device after the sweep.
    let late = s.connect(small_config("alice", "tablet"), &ws).unwrap();
    assert_eq!(late.read_file("keeper.bin").unwrap(), shared_payload);
}

/// High-entropy bytes: no two chunks of a file alike.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect()
}

#[test]
fn append_only_update_moves_only_the_new_chunks() {
    use content::chunker::{Chunker, ContentDefinedChunker, FixedChunker};
    use std::collections::HashSet;

    type Case = (Box<dyn Chunker>, fn(ClientConfig) -> ClientConfig);
    let cases: [Case; 2] = [
        (Box::new(FixedChunker::new(4096)), |c| {
            c.with_chunk_size(4096)
        }),
        (
            Box::new(ContentDefinedChunker::new(1024, 8192, 11, 48)),
            |c| c.with_cdc(1024, 8192, 11, 48),
        ),
    ];
    for (chunker, configure) in cases {
        let s = stack();
        let ws = s.provision("alice", "Docs").unwrap();
        let cfg = |device: &str| configure(ClientConfig::new("alice", device));
        let a = s.connect(cfg("laptop"), &ws).unwrap();
        let b = s.connect(cfg("phone"), &ws).unwrap();
        let ids = |data: &[u8]| -> Vec<content::ChunkId> {
            chunker
                .chunk(data)
                .iter()
                .map(|span| content::Fingerprint::Sha1.of(&data[span.range()]))
                .collect()
        };

        let v1 = noise(40_000, 1);
        a.write_file("log.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("log.bin", &v1, T));
        let before = (
            a.stats().chunks_uploaded(),
            b.stats().chunks_downloaded(),
            b.stats().chunks_reused(),
        );

        let mut v2 = v1.clone();
        v2.extend_from_slice(&noise(3_000, 2));
        a.write_file("log.bin", v2.clone()).unwrap();
        assert!(b.wait_for_content("log.bin", &v2, T));

        let old: HashSet<_> = ids(&v1).into_iter().collect();
        let new = ids(&v2);
        let fresh = new.iter().filter(|id| !old.contains(id)).count() as u64;
        let kept = new.len() as u64 - fresh;
        let name = chunker.name();
        assert!(fresh >= 1 && kept >= 4, "{name}: {fresh} new, {kept} kept");
        assert_eq!(a.stats().chunks_uploaded() - before.0, fresh, "{name}");
        assert_eq!(b.stats().chunks_downloaded() - before.1, fresh, "{name}");
        assert_eq!(b.stats().chunks_reused() - before.2, kept, "{name}");
    }

    // The process-wide counters a running stack exports saw it too (other
    // tests of this binary add to them, so only a floor can be checked).
    let exported = obs::render_text();
    for name in [
        "sync_client_chunks_reused_total",
        "storage_offer_missing_total",
        "storage_offer_retries_total",
    ] {
        let value = exported
            .lines()
            .find_map(|line| line.strip_prefix(name)?.trim().parse::<f64>().ok());
        assert!(value.is_some_and(|v| v >= 2.0), "{name}: {value:?}");
    }
}

#[test]
fn an_append_update_fingerprints_only_the_chunks_that_changed() {
    use content::chunker::{Chunker, ContentDefinedChunker, FixedChunker};

    type Case = (Box<dyn Chunker>, fn(ClientConfig) -> ClientConfig);
    let cases: [Case; 2] = [
        (Box::new(FixedChunker::new(4096)), |c| {
            c.with_chunk_size(4096)
        }),
        (
            Box::new(ContentDefinedChunker::new(1024, 8192, 11, 48)),
            |c| c.with_cdc(1024, 8192, 11, 48),
        ),
    ];
    for (chunker, configure) in cases {
        let s = stack();
        let ws = s.provision("alice", "Docs").unwrap();
        let cfg = |device: &str| configure(ClientConfig::new("alice", device));
        let a = s.connect(cfg("laptop"), &ws).unwrap();
        let b = s.connect(cfg("phone"), &ws).unwrap();
        let name = chunker.name();

        let v1 = noise(40_000, 5);
        let n = chunker.chunk(&v1).len() as u64;
        a.write_file("log.bin", v1.clone()).unwrap();
        assert!(b.wait_for_content("log.bin", &v1, T));
        // An ADD hashes every chunk on the writer and verifies every
        // download on the watcher.
        assert_eq!(a.stats().fingerprints(), n, "{name}");
        assert_eq!(b.stats().fingerprints(), n, "{name}");

        let mut v2 = v1.clone();
        v2.extend_from_slice(&noise(3_000, 6));
        a.write_file("log.bin", v2.clone()).unwrap();
        assert!(b.wait_for_content("log.bin", &v2, T));
        let old = chunker.chunk(&v1);
        let changed = chunker
            .chunk(&v2)
            .iter()
            .filter(|span| !old.contains(span))
            .count() as u64;
        assert!(changed >= 1 && changed < n, "{name}: {changed} of {n}");
        assert_eq!(a.stats().fingerprints() - n, changed, "{name}: the writer");
        let downloaded = b.stats().chunks_downloaded() - n;
        assert_eq!(downloaded, changed, "{name}");
        assert_eq!(
            b.stats().fingerprints() - n,
            downloaded,
            "{name}: the watcher"
        );
    }
    let exported = obs::render_text();
    let value = exported.lines().find_map(|line| {
        line.strip_prefix("sync_client_fingerprints_total")?
            .trim()
            .parse::<f64>()
            .ok()
    });
    assert!(value.is_some_and(|v| v >= 4.0), "{value:?}");
}

#[test]
fn update_racing_delete_and_gc_leaves_every_commit_fetchable() {
    // Each round the laptop rewrites its file to hold three chunks that
    // only a file of the phone references, plus a new tail, while the
    // phone deletes that file and a sweeper collects whatever nobody
    // references. Whichever way a round interleaves, a committed chunk
    // list must be one the store holds.
    use std::sync::atomic::{AtomicBool, Ordering};

    let s = stack();
    let ws = s.provision("alice", "Docs").unwrap();
    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    let token = s.objects().authenticate("alice", "pw-alice").unwrap();
    let container = "alice-chunks";

    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let mut last = Vec::new();
    std::thread::scope(|sc| {
        let _stop = StopOnDrop(&stop);
        sc.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                s.objects().gc_chunks(&token, "alice", container).unwrap();
                std::thread::yield_now();
            }
        });
        for round in 0..30u64 {
            let shared = noise(3 * 4096, 100 + round);
            let theirs = format!("phone-{round}.bin");
            b.write_file(&theirs, shared.clone()).unwrap();
            let mut mine = shared;
            mine.extend_from_slice(&noise(1_000, 200 + round));
            std::thread::scope(|pair| {
                pair.spawn(|| b.delete_file(&theirs).unwrap());
                a.write_file("laptop.bin", mine.clone()).unwrap();
            });
            last = mine;
        }
    });

    // The phone converges on the last version, and a device that was not
    // there for any of it can fetch every chunk the store's head names.
    assert!(b.wait_for_content("laptop.bin", &last, T));
    let late = s.connect(small_config("alice", "tablet"), &ws).unwrap();
    assert_eq!(late.read_file("laptop.bin").unwrap(), last);
    assert_eq!(late.list_files(), vec!["laptop.bin"]);
    // Exactly the last version's chunks outlive a final sweep.
    s.objects().gc_chunks(&token, "alice", container).unwrap();
    let stats = s.objects().dedup_stats(&token, "alice", container).unwrap();
    assert_eq!((stats.live_chunks, stats.orphan_chunks), (4, 0));
    assert_eq!(s.objects().list(&token, container).unwrap().len(), 4);
}

#[test]
fn a_commit_made_while_a_device_joins_reaches_it() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    // The service, bound by hand so that one `get_changes` can be stopped
    // where the lost update used to happen: the snapshot is taken, the
    // reply is not yet on its way, and device A commits in between.
    let s = Deployment::builder().instances(0).build().unwrap();
    let service = s.service();
    let ws = s.provision("alice", "Docs").unwrap();
    let writer: Arc<OnceLock<DesktopClient>> = Arc::new(OnceLock::new());
    let armed = Arc::new(AtomicBool::new(false));
    let update = vec![0xB2; 3000];
    // Two instances: the one holding the joiner's `get_changes` cannot
    // serve the commit it waits for.
    let _instances: Vec<_> = (0..2)
        .map(|_| {
            let (service, writer, armed) = (service.clone(), writer.clone(), armed.clone());
            let update = update.clone();
            let object = move |method: &str, args: &[Value]| {
                let reply = service.dispatch(method, args);
                if method == "get_changes" && armed.swap(false, Ordering::SeqCst) {
                    let a = writer.get().expect("armed after the writer connected");
                    let confirmed = a.stats().commits_confirmed();
                    a.write_file("n100.txt", update.clone()).unwrap();
                    // A hears of its own commit through the workspace's
                    // fan-out, so by then every device bound to it has
                    // been sent the notification.
                    assert!(a.wait(T, || a.stats().commits_confirmed() > confirmed));
                }
                reply
            };
            s.broker().bind(SYNC_SERVICE_OID, object).unwrap()
        })
        .collect();

    let a = s.connect(small_config("alice", "laptop"), &ws).unwrap();
    for i in 0..300 {
        a.write_file(&format!("n{i:03}.txt"), noise(2048, i))
            .unwrap();
    }
    // Every change decided and confirmed: nothing is out, so the update
    // below is sent at once, inside the intercepted `get_changes`.
    assert!(a.wait(T, || {
        service.changes_processed() == 300 && a.unconfirmed_changes() == 0
    }));
    assert!(writer.set(a).is_ok());
    let a = writer.get().unwrap();

    armed.store(true, Ordering::SeqCst);
    let b = s.connect(small_config("alice", "phone"), &ws).unwrap();
    assert!(!armed.load(Ordering::SeqCst), "the join was intercepted");
    assert_eq!(a.file_version("n100.txt"), Some(2));
    assert!(
        b.wait_for_content("n100.txt", &update, T),
        "the joiner is left with v{:?} of a file at v2",
        b.file_version("n100.txt")
    );
    assert_eq!(b.file_version("n100.txt"), Some(2));
    assert_eq!(b.list_files().len(), 300);
}
