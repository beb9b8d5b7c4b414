//! Distributed sync demo: the broker, the SyncService and two desktop
//! clients run in *three separate OS processes*, talking over TCP loopback
//! through `crates/net`.
//!
//! The driver process hosts a [`Deployment`] with its TCP front end (the
//! SyncService is bound through the in-process path — it plays the server
//! machine). It then re-executes itself twice: a *watcher* client process
//! and a *writer* client process, each of which dials the front end with a
//! [`Link`] and runs the unmodified `DesktopClient` on top. The
//! writer performs the Fig. 7(e) operation mix (ADD / UPDATE / REMOVE); the
//! watcher asserts every commit arrives, with the same at-least-once commit
//! semantics as the in-process stack.
//!
//! Chunk bytes cross processes through a shared on-disk object store
//! ([`storage::DiskBackend`]); everything else — commits, notifications,
//! workspace metadata — rides the TCP frame protocol.

use bench::{arg_value, header};
use metadata::WorkspaceId;
use stacksync::{ClientConfig, Deployment, DesktopClient, Link};
use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use storage::{DiskBackend, LatencyModel, SwiftStore};
use workload::content_gen;

const WAIT: Duration = Duration::from_secs(30);

/// Deterministic content both processes can compute without IPC.
fn content_for(tag: &str, i: usize, size: usize) -> Vec<u8> {
    let seed = 0x5eed ^ (i as u64) << 8 ^ tag.bytes().map(u64::from).sum::<u64>();
    content_gen::generate_default(size, seed)
}

fn main() {
    match arg_value("--role").as_deref() {
        None => driver(),
        Some("writer") => client_process(Role::Writer),
        Some("watcher") => client_process(Role::Watcher),
        Some(other) => panic!("unknown role {other}"),
    }
}

fn ops() -> usize {
    arg_value("--ops").and_then(|s| s.parse().ok()).unwrap_or(3)
}

/// Honors `--trace-dir <dir>`: writes this process's span dump (with the
/// meta header `traceview` aligns on) to `<dir>/spans-<role>-<pid>.json`.
fn trace_dump(role: &str) {
    let Some(dir) = arg_value("--trace-dir") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("spans-{role}-{}.json", std::process::id()));
    let dump = obs::spans_json_with_meta(&format!("netdemo-{role}"));
    if let Err(e) = std::fs::write(&path, dump) {
        eprintln!("failed to write span dump to {}: {e}", path.display());
    }
}

// ---------------------------------------------------------------------------
// Driver: broker server + sync service, spawns the two client processes
// ---------------------------------------------------------------------------

fn driver() {
    header("netdemo: sync across 3 OS processes over TCP loopback");

    let cloud = Deployment::builder().tcp().build().expect("deploy");
    let addr = cloud
        .server()
        .expect("a TCP front end")
        .local_addr()
        .to_string();
    println!("broker server on {addr}");

    // `--admin <addr>` exposes /metrics, /healthz, /spans, /snapshot and
    // /flightrecorder for the driver process while the demo runs.
    let _admin = arg_value("--admin").map(|a| {
        let admin = obs::serve_admin(&a[..]).expect("bind admin endpoint");
        println!("admin endpoint on http://{}", admin.local_addr());
        admin
    });

    let ws = cloud.provision("alice", "ws").expect("provision");

    let store_dir = std::env::temp_dir().join(format!("netdemo-{}", std::process::id()));
    let exe = std::env::current_exe().expect("current_exe");
    let n = ops();

    let trace_dir = arg_value("--trace-dir");
    let spawn = |role: &str| -> Child {
        let mut args = vec![
            "--role".to_string(),
            role.to_string(),
            "--addr".to_string(),
            addr.clone(),
            "--store".to_string(),
            store_dir.to_str().unwrap().to_string(),
            "--ws".to_string(),
            ws.0.clone(),
            "--ops".to_string(),
            n.to_string(),
        ];
        if let Some(dir) = &trace_dir {
            args.push("--trace-dir".to_string());
            args.push(dir.clone());
        }
        Command::new(&exe)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {role}: {e}"))
    };

    let started = Instant::now();
    let mut watcher = spawn("watcher");
    wait_for_line(&mut watcher, "READY");
    println!("watcher process up, starting writer");
    let mut writer = spawn("writer");

    let writer_status = drain(&mut writer, "writer");
    let watcher_status = drain(&mut watcher, "watcher");
    let elapsed = started.elapsed();

    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(writer_status.success(), "writer process failed");
    assert!(watcher_status.success(), "watcher process failed");
    println!(
        "\nOK: {n} ADD + {n} UPDATE + {n} REMOVE synced across processes in {:.2}s",
        elapsed.as_secs_f64()
    );
    bench::obs_dump();
    trace_dump("driver");
    cloud.shutdown();
}

/// Blocks until the child prints `marker` on a line of its own.
fn wait_for_line(child: &mut Child, marker: &str) {
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line.expect("child stdout");
        println!("  [child] {line}");
        if line.trim() == marker {
            // Keep forwarding the rest in the background.
            let rest = lines;
            std::thread::spawn(move || {
                for line in rest.map_while(Result::ok) {
                    println!("  [child] {line}");
                }
            });
            return;
        }
    }
    panic!("child exited before printing {marker}");
}

fn drain(child: &mut Child, name: &str) -> std::process::ExitStatus {
    if let Some(stdout) = child.stdout.take() {
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            println!("  [{name}] {line}");
        }
    }
    child.wait().expect("wait child")
}

// ---------------------------------------------------------------------------
// Client processes
// ---------------------------------------------------------------------------

enum Role {
    Writer,
    Watcher,
}

fn client_process(role: Role) {
    let addr = arg_value("--addr").expect("--addr");
    let store_dir = arg_value("--store").expect("--store");
    let ws = WorkspaceId(arg_value("--ws").expect("--ws"));
    let n = ops();

    let link = Link::dial(&addr[..]).expect("dial broker server");
    let backend = Arc::new(DiskBackend::open(&store_dir).expect("open shared store"));
    let store = SwiftStore::with_backend(LatencyModel::instant(), backend);
    let device = match role {
        Role::Writer => "writer-dev",
        Role::Watcher => "watcher-dev",
    };
    let client = link
        .connect(&store, ClientConfig::new("alice", device), &ws)
        .expect("connect client");

    match role {
        Role::Writer => {
            writer(&client, n);
            trace_dump("writer");
        }
        Role::Watcher => {
            watcher(&client, n);
            trace_dump("watcher");
        }
    }
}

fn writer(client: &DesktopClient, n: usize) {
    for i in 0..n {
        client
            .write_file(&format!("a{i}.dat"), content_for("add", i, 64 * 1024))
            .expect("ADD");
        client
            .write_file(&format!("u{i}.dat"), content_for("u1", i, 64 * 1024))
            .expect("UPDATE base");
        client
            .write_file(&format!("u{i}.dat"), content_for("u2", i, 64 * 1024))
            .expect("UPDATE");
        client
            .write_file(&format!("r{i}.dat"), content_for("rm", i, 16 * 1024))
            .expect("REMOVE base");
        client.delete_file(&format!("r{i}.dat")).expect("REMOVE");
        println!("committed op set {i}");
    }
    println!("writer done: {} commits acked", n * 5);
}

fn watcher(client: &DesktopClient, n: usize) {
    println!("READY");
    let per_set = 5; // a, u(base), u(update), r(base), r(delete)
    let expected = (n * per_set) as u64;
    assert!(
        client.wait(WAIT, || client.stats().notifications() >= expected),
        "got {}/{} commit notifications",
        client.stats().notifications(),
        expected
    );
    for i in 0..n {
        assert!(
            client.wait_for_content(
                &format!("a{i}.dat"),
                &content_for("add", i, 64 * 1024),
                WAIT
            ),
            "ADD a{i} did not sync"
        );
        assert!(
            client.wait_for_content(&format!("u{i}.dat"), &content_for("u2", i, 64 * 1024), WAIT),
            "UPDATE u{i} did not sync"
        );
        assert!(
            client.wait_for_absent(&format!("r{i}.dat"), WAIT),
            "REMOVE r{i} did not sync"
        );
    }
    println!(
        "watcher verified {n} op sets ({} notifications)",
        client.stats().notifications()
    );
}
