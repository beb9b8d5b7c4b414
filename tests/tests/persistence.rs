//! Whole-deployment persistence: chunks on a disk backend plus a durable
//! metadata store (write-ahead log and checkpoint) let the entire "server
//! side" restart without losing the personal cloud — the deployment
//! property a downstream user needs.

use metadata::{MetadataStore, ShardedStore, WorkspaceId};
use stacksync::{ClientConfig, Deployment, DesktopClient};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use storage::{DiskBackend, LatencyModel, SwiftStore};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stacksync-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// One life of the server side: a durable deployment over `meta_root`,
/// and a chunk store over `chunk_root` that outlives it.
fn deploy(meta_root: &Path, chunk_root: &Path) -> (Deployment, SwiftStore) {
    let cloud = Deployment::builder()
        .durable(meta_root)
        .shards(4)
        .build()
        .unwrap();
    let backend = Arc::new(DiskBackend::open(chunk_root).unwrap());
    (
        cloud,
        SwiftStore::with_backend(LatencyModel::instant(), backend),
    )
}

#[test]
fn server_side_restart_preserves_the_cloud() {
    let chunk_root = temp_dir("chunks");
    let meta_root = temp_dir("meta");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    let ws: WorkspaceId;

    // ---- First life of the deployment. -------------------------------
    {
        let (cloud, store) = deploy(&meta_root, &chunk_root);
        let service = cloud.service();
        ws = cloud.provision("alice", "Docs").unwrap();
        let client = DesktopClient::connect(
            cloud.broker(),
            &store,
            ClientConfig::new("alice", "laptop").with_chunk_size(4096),
            &ws,
        )
        .unwrap();
        client.write_file("keep.bin", payload.clone()).unwrap();
        client.write_file("doomed.txt", b"gone".to_vec()).unwrap();
        assert!(client.wait(Duration::from_secs(10), || {
            service.changes_processed() >= 2
        }));
        client.delete_file("doomed.txt").unwrap();
        assert!(client.wait(Duration::from_secs(10), || {
            service.changes_processed() >= 3
        }));
        // Checkpoint the metadata tier; chunks are already on disk. The
        // checkpoint truncates the logs below it, so the second life can
        // only see this state through the snapshot.
        cloud.store().checkpoint().unwrap();
        // Everything is dropped here: broker, service, clients — a crash.
    }

    // ---- Second life: fresh process state, same disk. ------------------
    {
        assert!(meta_root.join("snapshot.bin").exists());
        let (cloud, store) = deploy(&meta_root, &chunk_root);
        let service = cloud.service();

        // The account/container are front-end state; re-register like a
        // restarted gateway would.
        let t = store.register_account("alice", "pw-alice");
        store.ensure_container(&t, "alice-chunks").unwrap();

        // A brand-new device joins and must reconstruct the workspace
        // purely from persisted chunks + restored metadata.
        let device = DesktopClient::connect(
            cloud.broker(),
            &store,
            ClientConfig::new("alice", "phone").with_chunk_size(4096),
            &ws,
        )
        .unwrap();
        assert_eq!(device.list_files(), vec!["keep.bin"]);
        assert_eq!(device.read_file("keep.bin").unwrap(), payload);
        assert_eq!(device.file_version("keep.bin"), Some(1));

        // And the cloud keeps working: new versions continue the chain.
        device
            .write_file("keep.bin", b"second life".to_vec())
            .unwrap();
        assert!(device.wait(Duration::from_secs(10), || {
            service.commits_processed() >= 1
        }));
        assert_eq!(
            cloud.store().get_current_version_of("keep.bin", &ws),
            Some(2)
        );
    }

    std::fs::remove_dir_all(&chunk_root).ok();
    std::fs::remove_dir_all(&meta_root).ok();
}

/// Test helper: look up an item version by path within a workspace.
trait VersionByPath {
    fn get_current_version_of(&self, path: &str, ws: &WorkspaceId) -> Option<u64>;
}

impl VersionByPath for ShardedStore {
    fn get_current_version_of(&self, path: &str, ws: &WorkspaceId) -> Option<u64> {
        self.current_items(ws)
            .ok()?
            .into_iter()
            .find(|i| i.path == path)
            .map(|i| i.version)
    }
}
