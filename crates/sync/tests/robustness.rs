//! Robustness: the SyncService dispatch surface must never panic, whatever
//! a (buggy or malicious) client throws at it — malformed methods, wrong
//! arities, arbitrary value shapes. Remote objects that panic would kill
//! their instance (by design, §3.4), so the service must translate bad
//! input into application errors instead.

use metadata::{MetadataStore, ShardedStore};
use objectmq::{Broker, RemoteObject};
use proptest::prelude::*;
use stacksync::SyncService;
use std::sync::Arc;
use wire::Value;

fn service() -> SyncService {
    let broker = Broker::in_process();
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    meta.create_user("u").unwrap();
    meta.create_workspace("u", "w").unwrap();
    SyncService::builder(&broker).store(meta).build()
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::I64),
        any::<u64>().prop_map(Value::U64),
        (-1e9f64..1e9).prop_map(Value::F64),
        "\\PC{0,12}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Bytes),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            proptest::collection::vec(("\\PC{0,6}", inner), 0..4).prop_map(Value::Map),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dispatch_never_panics_on_arbitrary_input(
        method in prop_oneof![
            Just("get_workspaces".to_string()),
            Just("get_changes".to_string()),
            Just("get_workspace_info".to_string()),
            Just("commit_request".to_string()),
            "\\PC{0,16}",
        ],
        args in proptest::collection::vec(arb_value(), 0..4),
    ) {
        let svc = service();
        // Any outcome is fine — panics are not.
        let _ = svc.dispatch(&method, &args);
    }

    #[test]
    fn commit_request_with_fuzzed_item_lists_never_panics(
        items in proptest::collection::vec(arb_value(), 0..5),
    ) {
        let svc = service();
        let args = vec![
            Value::from("ws-1"),
            Value::from("device"),
            Value::List(items),
        ];
        let _ = svc.dispatch("commit_request", &args);
    }
}

/// A client listener must also survive malformed notifications.
#[test]
fn listener_rejects_malformed_notifications_gracefully() {
    use stacksync::{provision_user, ClientConfig, DesktopClient};
    use storage::{LatencyModel, SwiftStore};

    let broker = Broker::in_process();
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _server = service.bind(&broker).unwrap();
    let ws = provision_user(meta.as_ref(), "alice", "Docs").unwrap();
    let client = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("alice", "dev").with_chunk_size(4096),
        &ws,
    )
    .unwrap();

    // Inject garbage straight at the workspace notification object.
    let proxy = broker
        .lookup(stacksync::workspace_notification_oid(&ws))
        .unwrap();
    for garbage in [
        Value::Null,
        Value::I64(-1),
        Value::Map(vec![("ws".into(), Value::from("x"))]),
        Value::List(vec![]),
    ] {
        let _ = proxy.call_multi_async("notify_commit", vec![garbage]);
    }
    let _ = proxy.call_multi_async("no_such_method", vec![]);

    // The client must still be alive and functional.
    client
        .write_file("alive.txt", b"still here".to_vec())
        .unwrap();
    assert!(client.wait(std::time::Duration::from_secs(5), || {
        service.commits_processed() >= 1
    }));
    assert_eq!(client.read_file("alive.txt").unwrap(), b"still here");
}
