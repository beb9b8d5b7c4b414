//! Interactive personal-cloud shell: drive a complete StackSync deployment
//! (elastic SyncService pool, metadata tier, chunk store) from a REPL.
//!
//! ```sh
//! cargo run -p stacksync-examples --bin cli_demo              # interactive
//! cargo run -p stacksync-examples --bin cli_demo -- --script \
//!   "user alice; connect alice laptop; write laptop notes.txt hello; ls laptop"
//! ```

use metadata::{MetadataStore, WorkspaceId};
use objectmq::{Broker, RemoteBroker, Supervisor, SupervisorConfig};
use stacksync::{ClientConfig, DesktopClient, SyncService, SYNC_SERVICE_OID};
use std::collections::HashMap;
use std::io::{BufRead, Write as _};
use std::sync::Arc;
use std::time::Duration;
use storage::{LatencyModel, SwiftStore};

struct Cloud {
    broker: Broker,
    store: SwiftStore,
    meta: Arc<dyn MetadataStore>,
    service: SyncService,
    node: RemoteBroker,
    supervisor: Supervisor,
    devices: HashMap<String, DesktopClient>,
    workspaces: HashMap<String, WorkspaceId>,
}

impl Cloud {
    fn start() -> Result<Self, Box<dyn std::error::Error>> {
        let broker = Broker::in_process();
        let store = SwiftStore::new(LatencyModel::instant());
        let meta: Arc<dyn MetadataStore> = Arc::new(metadata::ShardedStore::new());
        let service = SyncService::builder(&broker).store(meta.clone()).build();
        let node = RemoteBroker::start(broker.clone(), 1)?;
        node.register_factory(SYNC_SERVICE_OID, service.factory());
        let supervisor = Supervisor::start(
            broker.clone(),
            SupervisorConfig {
                oid: SYNC_SERVICE_OID,
                check_interval: Duration::from_millis(100),
                ..Default::default()
            },
        )?;
        supervisor.set_target(1);
        Ok(Cloud {
            broker,
            store,
            meta,
            service,
            node,
            supervisor,
            devices: HashMap::new(),
            workspaces: HashMap::new(),
        })
    }

    fn device(&self, name: &str) -> Result<&DesktopClient, String> {
        self.devices
            .get(name)
            .ok_or_else(|| format!("no such device `{name}` (use: connect <user> <device>)"))
    }

    fn run(&mut self, line: &str) -> Result<String, String> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            [] | ["#", ..] => Ok(String::new()),
            ["help"] => Ok(HELP.to_string()),
            ["user", name] => {
                let ws = stacksync::provision_user(self.meta.as_ref(), name, "Home")
                    .map_err(|e| e.to_string())?;
                self.workspaces.insert(name.to_string(), ws.clone());
                Ok(format!("user `{name}` created with workspace {ws}"))
            }
            ["connect", user, device] => {
                let ws = self
                    .workspaces
                    .get(*user)
                    .ok_or_else(|| format!("no such user `{user}`"))?
                    .clone();
                let client = DesktopClient::connect(
                    &self.broker,
                    &self.store,
                    ClientConfig::new(user, device).with_chunk_size(64 * 1024),
                    &ws,
                )
                .map_err(|e| e.to_string())?;
                self.devices.insert(device.to_string(), client);
                Ok(format!("device `{device}` connected to {user}'s workspace"))
            }
            ["write", device, path, rest @ ..] => {
                let content = rest.join(" ").into_bytes();
                self.device(device)?
                    .write_file(path, content)
                    .map_err(|e| e.to_string())?;
                Ok(format!("wrote {path}"))
            }
            ["cat", device, path] => self
                .device(device)?
                .read_file(path)
                .map(|b| String::from_utf8_lossy(&b).into_owned())
                .ok_or_else(|| format!("{path}: not found")),
            ["ls", device] => {
                let client = self.device(device)?;
                let mut out = String::new();
                for f in client.list_files() {
                    let v = client.file_version(&f).unwrap_or(0);
                    out.push_str(&format!("{f}  (v{v})\n"));
                }
                Ok(out.trim_end().to_string())
            }
            ["rm", device, path] => {
                self.device(device)?
                    .delete_file(path)
                    .map_err(|e| e.to_string())?;
                Ok(format!("deleted {path}"))
            }
            ["mv", device, from, to] => {
                self.device(device)?
                    .rename_file(from, to)
                    .map_err(|e| e.to_string())?;
                Ok(format!("renamed {from} -> {to}"))
            }
            ["share", owner, grantee] => {
                let ws = self
                    .workspaces
                    .get(*owner)
                    .ok_or_else(|| format!("no such user `{owner}`"))?
                    .clone();
                if !self.workspaces.contains_key(*grantee) {
                    self.meta.create_user(grantee).map_err(|e| e.to_string())?;
                }
                self.meta
                    .share_workspace(&ws, grantee)
                    .map_err(|e| e.to_string())?;
                let token = self
                    .store
                    .authenticate(owner, &format!("pw-{owner}"))
                    .map_err(|e| e.to_string())?;
                self.store
                    .grant_access(&token, &format!("{owner}-chunks"), grantee)
                    .map_err(|e| e.to_string())?;
                self.workspaces.insert(grantee.to_string(), ws);
                Ok(format!("{owner}'s workspace shared with {grantee}"))
            }
            ["stats", device] => {
                let s = self.device(device)?.stats();
                Ok(format!(
                    "control {}B sent / {}B recv | chunks up {} dedup {} down {} | conflicts {}",
                    s.control_sent_bytes(),
                    s.control_received_bytes(),
                    s.chunks_uploaded(),
                    s.chunks_deduplicated(),
                    s.chunks_downloaded(),
                    s.conflicts()
                ))
            }
            ["scale", n] => {
                let n: usize = n.parse().map_err(|_| "scale needs a number".to_string())?;
                self.supervisor.set_target(n);
                Ok(format!("pool target set to {n}"))
            }
            ["status"] => {
                let live = self.node.local_count(SYNC_SERVICE_OID);
                let depth = self
                    .broker
                    .messaging()
                    .queue_stats(SYNC_SERVICE_OID.as_str())
                    .map_or(0, |stats| stats.depth);
                Ok(format!(
                    "pool: {live} instance(s) (target {}) | queue depth {depth} | commits {} | conflicts {}",
                    self.supervisor.target(),
                    self.service.commits_processed(),
                    self.service.conflicts_detected()
                ))
            }
            ["sync"] => {
                // Settle: wait for the commit counter to stop moving.
                let mut last = self.service.commits_processed();
                loop {
                    std::thread::sleep(Duration::from_millis(120));
                    let now = self.service.commits_processed();
                    if now == last {
                        return Ok(format!("settled at {now} commits"));
                    }
                    last = now;
                }
            }
            other => Err(format!(
                "unknown command {:?} — try `help`",
                other.join(" ")
            )),
        }
    }
}

const HELP: &str = "\
commands:
  user <name>                create a user with a Home workspace
  connect <user> <device>    attach a device to the user's workspace
  write <device> <path> <text…>
  cat <device> <path>
  ls <device>
  rm <device> <path>
  mv <device> <from> <to>
  share <owner> <grantee>    share workspace + chunk container
  stats <device>             client traffic counters
  scale <n>                  set SyncService pool target
  status                     pool / queue / commit counters
  sync                       wait until commits settle
  quit";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cloud = Cloud::start()?;
    let script: Option<String> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--script")
            .and_then(|i| args.get(i + 1).cloned())
    };

    if let Some(script) = script {
        for cmd in script.split(';') {
            let cmd = cmd.trim();
            if cmd.is_empty() {
                continue;
            }
            println!("> {cmd}");
            match cloud.run(cmd) {
                Ok(out) if out.is_empty() => {}
                Ok(out) => println!("{out}"),
                Err(e) => println!("error: {e}"),
            }
        }
        return Ok(());
    }

    println!("StackSync personal-cloud shell — `help` for commands, `quit` to exit");
    let stdin = std::io::stdin();
    loop {
        print!("stacksync> ");
        std::io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match cloud.run(line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}
