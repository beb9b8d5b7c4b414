//! Quickstart: the ObjectMQ HelloWorld of the paper (Fig. 2) followed by a
//! minimal two-device StackSync round trip.
//!
//! ```sh
//! cargo run -p stacksync-examples --bin quickstart
//! ```

use metadata::{MetadataStore, ShardedStore};
use objectmq::{Broker, RemoteObject};
use stacksync::{provision_user, ClientConfig, DesktopClient, SyncService};
use std::sync::Arc;
use std::time::Duration;
use storage::{LatencyModel, SwiftStore};
use wire::Value;

/// The paper's HelloWorld remote object (Fig. 2).
struct HelloServer;

impl RemoteObject for HelloServer {
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
        match method {
            "hello_world" => {
                let who = args
                    .first()
                    .and_then(|v| v.as_str().ok())
                    .unwrap_or("world");
                Ok(Value::from(format!("hello, {who}!")))
            }
            other => Err(format!("no such method {other}")),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Part 1: ObjectMQ in four lines, like the paper's Fig. 2. ------
    let broker = Broker::in_process();
    let _server = broker.bind("hello", HelloServer)?; // Broker.bind(oid, obj)
    let hello = broker.lookup("hello")?; //              Broker.lookup(oid)
    let reply = hello.call_sync(
        "hello_world",
        vec![Value::from("middleware")],
        Duration::from_millis(1500),
        5,
    )?;
    println!("remote object replied: {}", reply.as_str()?);

    // A one-way @AsyncMethod invocation: fire and forget.
    hello.call_async("hello_world", vec![Value::from("nobody listens")])?;

    // --- Part 2: a minimal personal cloud. ------------------------------
    // Metadata tier (PostgreSQL stand-in), storage tier (Swift stand-in),
    // and the SyncService bound on the same messaging layer.
    let store = SwiftStore::new(LatencyModel::instant());
    let meta: Arc<dyn MetadataStore> = Arc::new(ShardedStore::new());
    let service = SyncService::builder(&broker).store(meta.clone()).build();
    let _sync_server = service.bind(&broker)?;

    let workspace = provision_user(meta.as_ref(), "alice", "Documents")?;
    let laptop = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("alice", "laptop"),
        &workspace,
    )?;
    let phone = DesktopClient::connect(
        &broker,
        &store,
        ClientConfig::new("alice", "phone"),
        &workspace,
    )?;

    laptop.write_file("notes.txt", b"bought milk; fixed the middleware".to_vec())?;
    let synced = phone.wait_for_content(
        "notes.txt",
        b"bought milk; fixed the middleware",
        Duration::from_secs(5),
    );
    println!("phone synced notes.txt: {synced}");
    println!(
        "phone sees files: {:?} (version {:?})",
        phone.list_files(),
        phone.file_version("notes.txt")
    );
    assert!(synced);
    Ok(())
}
