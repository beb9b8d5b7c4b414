//! The SyncService: the paper's stateless server object (§4.2.1).

use crate::protocol::{item_from_value, workspace_to_value, CommitNotification, NotifiedChange};
use crate::workspace_notification_oid;
use metadata::{MetadataStore, ShardedStore, WorkspaceId};
use objectmq::{Broker, Oid, OmqResult, Proxy, RemoteObject, ServerHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wire::{BinaryCodec, BinaryWriter, Codec, TokenWriter, Value};

/// The well-known oid the SyncService binds to. All instances share this
/// queue; the broker load-balances commit requests between them, which is
/// what makes the pool elastically scalable.
pub const SYNC_SERVICE_OID: Oid = Oid::from_static("sync-service");

struct ServiceInner {
    meta: Arc<dyn MetadataStore>,
    broker: Broker,
    /// Extra processing time per commit request (see
    /// [`SyncServiceBuilder::service_delay`]).
    service_delay: Duration,
    notify_proxies: Mutex<HashMap<Oid, Arc<Proxy>>>,
    commits: AtomicU64,
    changes: AtomicU64,
    conflicts: AtomicU64,
    /// Keeps the `sync.service` health check registered for the lifetime
    /// of the service; set once at build time (the check needs a `Weak` to
    /// this very struct, which only exists after the `Arc` is built).
    health: std::sync::OnceLock<obs::HealthGuard>,
}

/// Builds a [`SyncService`]: picks the metadata store (the DAO the paper
/// says is replaceable — a [`ShardedStore`], in memory or durable, or any
/// other [`MetadataStore`]) and the commit delay, then [`build`]s.
///
/// [`build`]: SyncServiceBuilder::build
pub struct SyncServiceBuilder {
    broker: Broker,
    store: Option<Arc<dyn MetadataStore>>,
    service_delay: Duration,
}

impl std::fmt::Debug for SyncServiceBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncServiceBuilder")
            .field("service_delay", &self.service_delay)
            .field("store_set", &self.store.is_some())
            .finish()
    }
}

impl SyncServiceBuilder {
    /// Selects the metadata back-end. Defaults to a fresh in-memory
    /// [`ShardedStore::new`] when not called.
    #[must_use]
    pub fn store(mut self, store: Arc<dyn MetadataStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Injects extra processing time per commit request. Zero by default;
    /// the elasticity experiments set the paper's measured 50 ms mean
    /// service time so a single instance saturates realistically.
    #[must_use]
    pub fn service_delay(mut self, delay: Duration) -> Self {
        self.service_delay = delay;
        self
    }

    /// Finishes building the service.
    #[must_use]
    pub fn build(self) -> SyncService {
        let meta = self
            .store
            .unwrap_or_else(|| Arc::new(ShardedStore::new()) as Arc<dyn MetadataStore>);
        let service = SyncService {
            inner: Arc::new(ServiceInner {
                meta,
                broker: self.broker,
                service_delay: self.service_delay,
                notify_proxies: Mutex::new(HashMap::new()),
                commits: AtomicU64::new(0),
                changes: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                health: std::sync::OnceLock::new(),
            }),
        };
        // Weak capture: the registry's strong reference to the closure must
        // not keep the service alive past its last clone.
        let weak = Arc::downgrade(&service.inner);
        let guard = obs::register_health("sync.service", move || match weak.upgrade() {
            Some(inner) => {
                let commits = inner.commits.load(Ordering::Relaxed);
                let conflicts = inner.conflicts.load(Ordering::Relaxed);
                if conflicts > 0 && commits == 0 {
                    Err(format!("{conflicts} conflicts and no successful commit"))
                } else {
                    Ok(())
                }
            }
            None => Err("service dropped".into()),
        });
        let _ = service.inner.health.set(guard);
        service
    }
}

/// The file syncing service. Stateless by design: all state lives in the
/// metadata store, so any number of instances can be bound to
/// [`SYNC_SERVICE_OID`] and killed or spawned at will (paper §4.2.1:
/// "Multiple instances of the SyncService can listen from the global
/// request queue").
///
/// Clones share the same service state (metadata handle and counters), so
/// binding a clone adds a pool instance.
#[derive(Clone)]
pub struct SyncService {
    inner: Arc<ServiceInner>,
}

impl std::fmt::Debug for SyncService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncService")
            .field("commits", &self.commits_processed())
            .finish()
    }
}

impl SyncService {
    /// Starts building a service; `broker` is used to push commit
    /// notifications. See [`SyncServiceBuilder`] for the knobs.
    pub fn builder(broker: &Broker) -> SyncServiceBuilder {
        SyncServiceBuilder {
            broker: broker.clone(),
            store: None,
            service_delay: Duration::ZERO,
        }
    }

    /// The metadata store this service commits against.
    pub fn store(&self) -> &Arc<dyn MetadataStore> {
        &self.inner.meta
    }

    /// Binds one instance of this service to the shared request queue.
    ///
    /// # Errors
    ///
    /// Propagates middleware failures.
    pub fn bind(&self, broker: &Broker) -> OmqResult<ServerHandle> {
        broker.bind(SYNC_SERVICE_OID, self.clone())
    }

    /// An [`objectmq::supervisor::ObjectFactory`] producing instances of
    /// this service — hand this to a `RemoteBroker` so the Supervisor can
    /// spawn SyncService instances elastically.
    pub fn factory(&self) -> objectmq::supervisor::ObjectFactory {
        let service = self.clone();
        Arc::new(move || Arc::new(service.clone()) as Arc<dyn RemoteObject>)
    }

    /// Total commit requests processed across all instances sharing this
    /// service state.
    pub fn commits_processed(&self) -> u64 {
        self.inner.commits.load(Ordering::Relaxed)
    }

    /// Total item proposals decided (committed or conflicting) across all
    /// instances: one per change, however the clients bundled them into
    /// commit requests.
    pub fn changes_processed(&self) -> u64 {
        self.inner.changes.load(Ordering::Relaxed)
    }

    /// Total conflicting item proposals detected.
    pub fn conflicts_detected(&self) -> u64 {
        self.inner.conflicts.load(Ordering::Relaxed)
    }

    fn get_workspaces(&self, args: &[Value]) -> Result<Value, String> {
        let user = args
            .first()
            .and_then(|v| v.as_str().ok())
            .ok_or("get_workspaces needs a user argument")?;
        let workspaces = self
            .inner
            .meta
            .workspaces_of(user)
            .map_err(|e| e.to_string())?;
        Ok(Value::List(
            workspaces.iter().map(workspace_to_value).collect(),
        ))
    }

    fn get_workspace_info(&self, args: &[Value]) -> Result<Value, String> {
        let ws = args
            .first()
            .and_then(|v| v.as_str().ok())
            .ok_or("get_workspace_info needs a workspace argument")?;
        let workspace = self
            .inner
            .meta
            .get_workspace(&WorkspaceId(ws.to_string()))
            .map_err(|e| e.to_string())?;
        Ok(workspace_to_value(&workspace))
    }

    /// Writes the workspace's current items into the reply, straight from
    /// the metadata store (the start-up state a device joins with).
    fn get_changes(&self, args: &[Value], out: &mut dyn TokenWriter) -> Result<(), String> {
        let ws = args
            .first()
            .and_then(|v| v.as_str().ok())
            .ok_or("get_changes needs a workspace argument")?;
        self.inner
            .meta
            .write_current_items(&WorkspaceId(ws.to_string()), out)
            .map_err(|e| e.to_string())
    }

    /// Algorithm 1 of the paper.
    fn commit_request(&self, args: &[Value]) -> Result<Value, String> {
        if !self.inner.service_delay.is_zero() {
            std::thread::sleep(self.inner.service_delay);
        }
        let ws = args
            .first()
            .and_then(|v| v.as_str().ok())
            .ok_or("commit_request needs a workspace argument")?;
        let device = args
            .get(1)
            .and_then(|v| v.as_str().ok())
            .ok_or("commit_request needs a device argument")?;
        let proposals = args
            .get(2)
            .and_then(|v| v.as_list().ok())
            .ok_or("commit_request needs a change list")?
            .iter()
            .map(|proposal| item_from_value(proposal.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;

        let workspace = WorkspaceId(ws.to_string());
        // Tag the enclosing handler.exec span (the skeleton drains this
        // thread's annotation buffer) so traces are filterable by workspace.
        obs::annotate_current(&format!("ws:{ws}"));
        let outcomes = self
            .inner
            .meta
            .commit(&workspace, proposals)
            .map_err(|e| e.to_string())?;
        self.inner
            .changes
            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
        obs::counter("sync.commits_total").inc();
        let conflicts = outcomes.iter().filter(|o| !o.is_committed()).count();
        self.inner
            .conflicts
            .fetch_add(conflicts as u64, Ordering::Relaxed);
        if conflicts > 0 {
            obs::counter("sync.conflicts_total").add(conflicts as u64);
        }

        let notification = CommitNotification {
            workspace: workspace.clone(),
            committer: device.to_string(),
            changes: outcomes.iter().map(NotifiedChange::from_outcome).collect(),
        };
        self.push_notification(&workspace, &notification);
        Ok(Value::Null)
    }

    /// Pushes the notification to every device of the workspace with an
    /// async one-to-many call (paper: `notifyCommit`, `@MultiMethod
    /// @AsyncMethod`). A workspace with no connected devices has no
    /// notification object bound — the push is skipped.
    fn push_notification(&self, workspace: &WorkspaceId, notification: &CommitNotification) {
        let oid = workspace_notification_oid(workspace);
        if !self.inner.broker.object_exists(&oid) {
            return;
        }
        let proxy = {
            let mut proxies = self.inner.notify_proxies.lock();
            match proxies.get(&oid) {
                Some(p) => p.clone(),
                None => match self.inner.broker.lookup(&oid) {
                    Ok(p) => {
                        let p = Arc::new(p);
                        proxies.insert(oid.clone(), p.clone());
                        p
                    }
                    Err(_) => return,
                },
            }
        };
        let _ = proxy.call_multi_async("notify_commit", vec![notification.to_value()]);
    }
}

impl RemoteObject for SyncService {
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
        match method {
            "get_workspaces" => self.get_workspaces(args),
            "get_workspace_info" => self.get_workspace_info(args),
            "get_changes" => {
                // The reply's one writer, read back as a tree.
                let mut bytes = Vec::new();
                self.get_changes(args, &mut BinaryWriter::new(&mut bytes))?;
                BinaryCodec.decode(&bytes).map_err(|e| e.to_string())
            }
            "commit_request" => self.commit_request(args),
            other => Err(format!("SyncService has no method `{other}`")),
        }
    }

    fn dispatch_into(
        &self,
        method: &str,
        args: &[Value],
        out: &mut dyn TokenWriter,
    ) -> Result<(), String> {
        match method {
            "get_changes" => self.get_changes(args, out),
            _ => {
                out.value(&self.dispatch(method, args)?);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::item_into_value;
    use metadata::{ItemMetadata, ShardedStore};

    fn setup() -> (Broker, SyncService, WorkspaceId, Arc<dyn MetadataStore>) {
        let broker = Broker::in_process();
        let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
        meta.create_user("alice").unwrap();
        let ws = meta.create_workspace("alice", "Docs").unwrap();
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        (broker, service, ws, meta)
    }

    fn commit_args(ws: &WorkspaceId, device: &str, items: Vec<ItemMetadata>) -> Vec<Value> {
        vec![
            Value::from(ws.0.as_str()),
            Value::from(device),
            Value::List(items.into_iter().map(item_into_value).collect()),
        ]
    }

    #[test]
    fn get_workspaces_lists_user_workspaces() {
        let (_broker, service, ws, _meta) = setup();
        let v = service
            .dispatch("get_workspaces", &[Value::from("alice")])
            .unwrap();
        let list = v.as_list().unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].field("id").unwrap().as_str().unwrap(), ws.0);
    }

    /// The raw reply that an instance bound on a broker speaking `codec`
    /// sends to the `get_changes` of `ws` with invocation id `inv-raw`.
    fn raw_get_changes_reply(
        codec: Arc<dyn wire::Codec>,
        meta: &Arc<dyn MetadataStore>,
        ws: &WorkspaceId,
    ) -> Vec<u8> {
        use mqsim::{Message, MessageBroker, MessageProperties, QueueOptions};
        let config = objectmq::BrokerConfig {
            codec: codec.clone(),
            ..objectmq::BrokerConfig::default()
        };
        let broker = Broker::new(MessageBroker::new(), config);
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        let _instance = service.bind(&broker).unwrap();
        let mq = broker.messaging();
        mq.declare_queue("raw-replies", QueueOptions::default())
            .unwrap();
        let replies = mq.subscribe("raw-replies").unwrap();
        let request = objectmq::Request {
            id: "inv-raw".into(),
            method: "get_changes".into(),
            args: vec![Value::from(ws.0.as_str())],
        };
        let properties = MessageProperties {
            reply_to: Some("raw-replies".into()),
            trace: None,
        };
        let payload = codec.encode(&request.into_value());
        mq.publish_to_queue(
            SYNC_SERVICE_OID.as_str(),
            Message::with_properties(payload, properties),
        )
        .unwrap();
        let delivery = replies.recv_timeout(Duration::from_secs(5)).unwrap();
        let bytes = delivery.message.payload().to_vec();
        delivery.ack();
        bytes
    }

    #[test]
    fn the_streamed_get_changes_reply_is_the_bytes_of_the_tree_reply() {
        for codec in [
            Arc::new(wire::BinaryCodec) as Arc<dyn wire::Codec>,
            Arc::new(wire::JsonCodec),
        ] {
            for files in [0, 1, 3] {
                let (_broker, service, ws, meta) = setup();
                let items: Vec<ItemMetadata> = (0..files)
                    .map(|i| {
                        let chunks = (0..i).map(|c| content::ChunkId::from_bytes([c as u8; 20]));
                        let path = format!("dir/f{i}.txt");
                        ItemMetadata::new_file(i, &ws, &path, chunks.collect(), 10 * i, "dev")
                    })
                    .collect();
                service
                    .dispatch("commit_request", &commit_args(&ws, "dev", items.clone()))
                    .unwrap();
                if files == 3 {
                    // One of them a tombstone.
                    let mut gone = items[1].clone();
                    gone.version = 2;
                    gone.is_deleted = true;
                    gone.chunks.clear();
                    service
                        .dispatch("commit_request", &commit_args(&ws, "dev", vec![gone]))
                        .unwrap();
                }
                let current = meta.current_items(&ws).unwrap();
                assert_eq!(current.len() as u64, files);
                assert_eq!(
                    current.iter().filter(|i| i.is_deleted).count(),
                    usize::from(files == 3)
                );

                let streamed = raw_get_changes_reply(codec.clone(), &meta, &ws);
                let tree = Value::Map(vec![
                    ("id".into(), Value::from("inv-raw")),
                    ("ok".into(), Value::Bool(true)),
                    (
                        "value".into(),
                        Value::List(current.into_iter().map(item_into_value).collect()),
                    ),
                ]);
                assert_eq!(
                    streamed,
                    codec.encode(&tree),
                    "{} with {files} items",
                    codec.name()
                );
            }
        }
    }

    #[test]
    fn get_changes_as_a_tree_is_the_streamed_list_and_an_unknown_workspace_fails() {
        let (_broker, service, ws, meta) = setup();
        let item = ItemMetadata::new_file(7, &ws, "a.txt", vec![], 5, "dev");
        service
            .dispatch("commit_request", &commit_args(&ws, "dev", vec![item]))
            .unwrap();
        let tree = service
            .dispatch("get_changes", &[Value::from(ws.0.as_str())])
            .unwrap();
        let expected: Vec<Value> = meta
            .current_items(&ws)
            .unwrap()
            .into_iter()
            .map(item_into_value)
            .collect();
        assert_eq!(tree, Value::List(expected));
        assert!(service
            .dispatch("get_changes", &[Value::from("no-such-ws")])
            .unwrap_err()
            .contains("no-such-ws"));
    }

    #[test]
    fn get_workspaces_unknown_user_errors() {
        let (_broker, service, _ws, _meta) = setup();
        assert!(service
            .dispatch("get_workspaces", &[Value::from("ghost")])
            .is_err());
    }

    #[test]
    fn commit_then_get_changes() {
        let (_broker, service, ws, _meta) = setup();
        let item = ItemMetadata::new_file(1, &ws, "a.txt", vec![], 5, "dev");
        service
            .dispatch("commit_request", &commit_args(&ws, "dev", vec![item]))
            .unwrap();
        let changes = service
            .dispatch("get_changes", &[Value::from(ws.0.as_str())])
            .unwrap();
        assert_eq!(changes.as_list().unwrap().len(), 1);
        assert_eq!(service.commits_processed(), 1);
        assert_eq!(service.conflicts_detected(), 0);
    }

    #[test]
    fn conflicting_commit_counts_conflict() {
        let (_broker, service, ws, _meta) = setup();
        let item = ItemMetadata::new_file(1, &ws, "a.txt", vec![], 5, "dev");
        service
            .dispatch(
                "commit_request",
                &commit_args(&ws, "dev", vec![item.clone()]),
            )
            .unwrap();
        // Another device's own version-1 proposal: stale. (An *identical*
        // replay from the same device would be confirmed idempotently.)
        let mut stale = item;
        stale.modified_by = "dev2".to_string();
        service
            .dispatch("commit_request", &commit_args(&ws, "dev2", vec![stale]))
            .unwrap();
        assert_eq!(service.commits_processed(), 2);
        assert_eq!(service.conflicts_detected(), 1);
    }

    #[test]
    fn unknown_method_rejected() {
        let (_broker, service, _ws, _meta) = setup();
        assert!(service.dispatch("bogus", &[]).is_err());
    }

    #[test]
    fn malformed_args_rejected() {
        let (_broker, service, ws, _meta) = setup();
        assert!(service.dispatch("commit_request", &[]).is_err());
        assert!(service
            .dispatch("commit_request", &[Value::from(ws.0.as_str())])
            .is_err());
        assert!(service
            .dispatch(
                "commit_request",
                &[
                    Value::from(ws.0.as_str()),
                    Value::from("dev"),
                    Value::I64(3)
                ]
            )
            .is_err());
    }

    #[test]
    fn notification_skipped_without_listeners() {
        // Must not error when no device bound the workspace notify object.
        let (_broker, service, ws, _meta) = setup();
        let item = ItemMetadata::new_file(1, &ws, "a.txt", vec![], 5, "dev");
        service
            .dispatch("commit_request", &commit_args(&ws, "dev", vec![item]))
            .unwrap();
    }
}
