//! Whole-deployment persistence: chunks on a disk backend plus a durable
//! metadata store (write-ahead log and checkpoint) let the entire "server
//! side" restart without losing the personal cloud — the deployment
//! property a downstream user needs.

use metadata::{MetadataStore, ShardedStore, WorkspaceId};
use objectmq::Broker;
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use storage::{DiskBackend, LatencyModel, SwiftStore};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stacksync-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn open_meta(root: &PathBuf) -> (Arc<ShardedStore>, metadata::DurableRecovery) {
    let (store, recovery) =
        ShardedStore::open_durable(root, 4, Duration::ZERO, wal::LogConfig::named("e2e-meta"))
            .unwrap();
    (Arc::new(store), recovery)
}

#[test]
fn server_side_restart_preserves_the_cloud() {
    let chunk_root = temp_dir("chunks");
    let meta_root = temp_dir("meta");
    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    let ws: WorkspaceId;

    // ---- First life of the deployment. -------------------------------
    {
        let broker = Broker::in_process();
        let backend = Arc::new(DiskBackend::open(&chunk_root).unwrap());
        let store = SwiftStore::with_backend(LatencyModel::instant(), backend);
        let (meta, _) = open_meta(&meta_root);
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        let _server = service.bind(&broker).unwrap();
        ws = provision_user(meta.as_ref(), "alice", "Docs").unwrap();
        let client = DesktopClient::connect(
            &broker,
            &store,
            ClientConfig::new("alice", "laptop").with_chunk_size(4096),
            &ws,
        )
        .unwrap();
        client.write_file("keep.bin", payload.clone()).unwrap();
        client.write_file("doomed.txt", b"gone".to_vec()).unwrap();
        assert!(client.wait(Duration::from_secs(10), || {
            service.commits_processed() >= 2
        }));
        client.delete_file("doomed.txt").unwrap();
        assert!(client.wait(Duration::from_secs(10), || {
            service.commits_processed() >= 3
        }));
        // Checkpoint the metadata tier; chunks are already on disk.
        meta.checkpoint().unwrap();
        // Everything is dropped here: broker, service, clients — a crash.
    }

    // ---- Second life: fresh process state, same disk. ------------------
    {
        let broker = Broker::in_process();
        let backend = Arc::new(DiskBackend::open(&chunk_root).unwrap());
        let store = SwiftStore::with_backend(LatencyModel::instant(), backend);
        let (meta, recovery) = open_meta(&meta_root);
        assert!(recovery.snapshot_loaded);
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        let _server = service.bind(&broker).unwrap();

        // The account/container are front-end state; re-register like a
        // restarted gateway would.
        let t = store.register_account("alice", "pw-alice");
        store.ensure_container(&t, "alice-chunks").unwrap();

        // A brand-new device joins and must reconstruct the workspace
        // purely from persisted chunks + restored metadata.
        let device = DesktopClient::connect(
            &broker,
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
        assert_eq!(meta.get_current_version_of("keep.bin", &ws), Some(2));
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
