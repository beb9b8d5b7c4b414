//! Machine-readable performance suite: broker throughput one message at a
//! time, ObjectMQ RPC latency in process and over TCP, plus sync commit
//! throughput (changes the service decided per second), metadata-store
//! contention, and the durable commit plane. Writes `BENCH_4.json`
//! (transport), `BENCH_5.json` (metadata sharding), `BENCH_6.json`
//! (connection scaling on the poll-based reactor) and `BENCH_7.json` (WAL
//! commit + recovery) at the repo root so runs can be compared across
//! commits.
//!
//! The broker figure is one producer and one consumer over an in-process
//! `mqsim` queue, publishing, receiving and acking one message at a time,
//! as every commit, reply and notification does. The TCP RPC figure is
//! `depth` concurrent callers over a loopback [`BrokerServer`]; the wire
//! protocol has one mode (coalesced writes, `AckMany`), and its last
//! comparison against the one-frame-per-write protocol it replaced is
//! quoted in DESIGN.md §8.
//!
//! The contention scenario runs 8 writer threads against 8 workspaces in
//! two variants — cpu-bound, and with a modeled ACID back-end transaction
//! latency held inside the commit critical section — against a
//! [`ShardedStore`] with one shard (the global serialization point) and
//! with [`CONTENTION_SHARDS`] in the same run.
//!
//! The durable scenario runs the same 8-writer contention workload against
//! [`metadata::ShardedStore::open_durable`] — every commit logged to a
//! per-shard WAL and fsynced by the committing thread before it is
//! acknowledged — and then measures recovery: reopen-with-replay over the
//! full log, and reopen after a snapshot checkpoint. The WAL lives in
//! `/dev/shm` when available (CI filesystems make fsync absurdly slow or
//! silently async; see DESIGN.md §11), falling back to the system temp dir.
//!
//! The connection-scaling scenario grows a fleet of mostly-idle
//! [`NetBroker`] clients against one [`BrokerServer`] — 256, 2 000, then
//! 10 000 live connections (the larger levels are skipped when the fd
//! limit cannot be raised far enough) — while a small active subset keeps
//! committing through the full sync stack. Per level it records sync
//! commit latency percentiles (a change from `write_file` to its
//! confirmation), resident memory per connection, and whether
//! the reactor actually sustained the fleet.
//!
//! `--smoke` shrinks every workload to a few iterations for CI (and caps
//! the connection scenario at 2 000 connections); `--out` /
//! `--out-contention` / `--out-conn` / `--out-durable` override the output
//! paths; `--gate` exits nonzero if the sharded store falls below the
//! one-shard store, the durable sharded store falls below 60% of the
//! non-durable sharded store, or the reactor fails to sustain an attempted
//! connection level (or its commit p99 collapses relative to the smallest
//! level), measured in the same run (relative gates, so they are robust to
//! machine speed).

use bench::{arg_value, has_flag, header};
use metadata::{ItemMetadata, MetadataStore, ShardedStore};
use mqsim::{Message, MessageBroker, QueueOptions};
use net::{BrokerServer, NetBroker, NetConfig};
use objectmq::{Broker, BrokerConfig};
use stacksync::{ClientConfig, Deployment, DesktopClient, Link};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::Value;

/// Concurrent in-flight RPC callers against the loopback server.
const PIPELINE_DEPTH: usize = 32;
/// Per-caller pacing of the pipelined RPC phase. A fully saturated closed
/// loop measures throughput and scheduler fairness, not latency (by
/// Little's law its mean is just `depth / throughput`, and its median
/// rewards whichever mode starves some callers to rush others). Pacing
/// each caller to one call per this interval keeps the offered load
/// below saturation so percentiles reflect actual response latency at
/// equal load in both modes.
const CALL_PACING: Duration = Duration::from_millis(4);

struct Percentiles {
    p50: f64,
    p99: f64,
    mean: f64,
}

fn percentiles(samples: &mut [f64]) -> Percentiles {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
    Percentiles {
        p50: at(0.50),
        p99: at(0.99),
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
    }
}

/// Publish+consume+ack throughput over one in-process queue, one message
/// at a time on both sides.
fn broker_throughput(messages: usize) -> f64 {
    let broker = MessageBroker::new();
    broker
        .declare_queue("perf", QueueOptions::default())
        .unwrap();
    let consumer = broker.subscribe("perf").unwrap();
    let payload = vec![0u8; 1024];
    let start = Instant::now();
    let producer_broker = broker.clone();
    let producer = std::thread::spawn(move || {
        for _ in 0..messages {
            producer_broker
                .publish_to_queue("perf", Message::from_bytes(payload.clone()))
                .unwrap();
        }
    });
    for _ in 0..messages {
        consumer
            .recv_timeout(Duration::from_secs(10))
            .expect("consume")
            .ack();
    }
    producer.join().unwrap();
    messages as f64 / start.elapsed().as_secs_f64()
}

/// Sequential round-trip latency through one proxy.
fn rpc_latency(broker: &Broker, calls: usize) -> Percentiles {
    let _server = broker
        .bind("perf.echo", |_: &str, args: &[Value]| {
            Ok(args.first().cloned().unwrap_or(Value::Null))
        })
        .unwrap();
    let proxy = broker.lookup("perf.echo").unwrap();
    // Warm up the path (queue declarations, first-delivery laziness).
    for _ in 0..5.min(calls) {
        proxy
            .call_sync("echo", vec![Value::U64(0)], Duration::from_secs(5), 0)
            .unwrap();
    }
    let mut samples = Vec::with_capacity(calls);
    for i in 0..calls {
        let start = Instant::now();
        proxy
            .call_sync(
                "echo",
                vec![Value::U64(i as u64)],
                Duration::from_secs(5),
                0,
            )
            .unwrap();
        samples.push(start.elapsed().as_secs_f64());
    }
    percentiles(&mut samples)
}

/// Round-trip latency with `depth` concurrent callers against a pool of
/// `depth` echo instances (competing consumers on one request queue), so
/// the transport — not a single serial handler — is the bottleneck. This
/// is the pipelined load where coalesced writes and batched acks pay off:
/// every frame from every caller and server instance multiplexes one TCP
/// connection. Each caller owns a proxy, paces its calls at
/// [`CALL_PACING`] so the percentiles measure latency rather than
/// saturation fairness, and per-call latencies are pooled.
fn pipelined_rpc_latency(broker: &Broker, calls: usize, depth: usize) -> Percentiles {
    let _servers: Vec<_> = (0..depth)
        .map(|_| {
            broker
                .bind("perf.echo", |_: &str, args: &[Value]| {
                    Ok(args.first().cloned().unwrap_or(Value::Null))
                })
                .unwrap()
        })
        .collect();
    let per_caller = (calls / depth).max(1);
    let mut handles = Vec::with_capacity(depth);
    for _ in 0..depth {
        let proxy = broker.lookup("perf.echo").unwrap();
        handles.push(std::thread::spawn(move || {
            proxy
                .call_sync("echo", vec![Value::U64(0)], Duration::from_secs(5), 0)
                .unwrap();
            let mut samples = Vec::with_capacity(per_caller);
            let base = Instant::now();
            for i in 0..per_caller {
                // Paced, not back-to-back: sleep until this call's slot.
                // No debt is carried — a slow call just shifts later
                // slots, it does not trigger a catch-up burst.
                let due = base + CALL_PACING * i as u32;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let start = Instant::now();
                proxy
                    .call_sync(
                        "echo",
                        vec![Value::U64(i as u64)],
                        Duration::from_secs(5),
                        0,
                    )
                    .unwrap();
                samples.push(start.elapsed().as_secs_f64());
            }
            samples
        }));
    }
    let mut samples = Vec::with_capacity(per_caller * depth);
    for handle in handles {
        samples.extend(handle.join().unwrap());
    }
    percentiles(&mut samples)
}

/// Loopback server + client, handed to `f`.
fn with_loopback<T>(f: impl FnOnce(&Broker) -> T) -> T {
    let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
    let client = NetBroker::connect(server.local_addr()).unwrap();
    let broker = Broker::over(Arc::new(client), BrokerConfig::default());
    let result = f(&broker);
    server.shutdown();
    result
}

fn commit_throughput(commits: usize) -> f64 {
    let cloud = Deployment::builder().build().expect("deploy");
    let ws = cloud.provision("perf", "ws").expect("provision");
    let client = cloud
        .connect(ClientConfig::new("perf", "dev"), &ws)
        .expect("connect");
    let content = vec![7u8; 16 * 1024];
    let start = Instant::now();
    for i in 0..commits {
        client
            .write_file(&format!("f{i}.dat"), content.clone())
            .expect("commit");
    }
    // `write_file` returns once the change is queued; the clock runs until
    // the service has decided every one of them.
    let decided = || cloud.service().changes_processed() >= commits as u64;
    assert!(
        client.wait(Duration::from_secs(60), decided),
        "the service did not decide all {commits} changes"
    );
    commits as f64 / start.elapsed().as_secs_f64()
}

/// Writers and workspaces of the metadata contention scenario (one writer
/// per workspace, so commits never conflict and the store's lock protocol
/// is the only serialization).
const CONTENTION_WRITERS: usize = 8;
/// Shards of the [`ShardedStore`] under test.
const CONTENTION_SHARDS: usize = 8;
/// Modeled ACID back-end in-transaction time for the `txn_latency`
/// contention variant: the row locks PostgreSQL would hold across the
/// round trip, spent inside the store's commit critical section. One
/// shard serializes this across all workspaces; several only serialize it
/// within a workspace's partition.
const TXN_LATENCY: Duration = Duration::from_micros(200);

/// Multi-workspace commit throughput against one store: each writer thread
/// hammers its own workspace with sequential versions of its own item.
fn contention_throughput(
    meta: Arc<dyn MetadataStore>,
    writers: usize,
    commits_per_writer: usize,
) -> f64 {
    meta.create_user("perf").expect("fresh store");
    let workspaces: Vec<_> = (0..writers)
        .map(|w| {
            meta.create_workspace("perf", &format!("w{w}"))
                .expect("workspace")
        })
        .collect();
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let meta = meta.clone();
            let ws = workspaces[w].clone();
            std::thread::spawn(move || {
                for version in 1..=commits_per_writer as u64 {
                    let item = ItemMetadata {
                        version,
                        ..ItemMetadata::new_file(
                            w as u64,
                            &ws,
                            &format!("f{w}.dat"),
                            vec![],
                            1,
                            &format!("dev-{w}"),
                        )
                    };
                    let out = meta.commit(&ws, vec![item]).expect("commit");
                    assert!(out[0].is_committed(), "uncontended chain must commit");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    (writers * commits_per_writer) as f64 / start.elapsed().as_secs_f64()
}

struct ContentionPair {
    global: f64,
    sharded: f64,
}

impl ContentionPair {
    fn speedup(&self) -> f64 {
        self.sharded / self.global
    }
}

fn contention_scenario(commits_per_writer: usize, latency: Duration) -> ContentionPair {
    let global: Arc<dyn MetadataStore> =
        Arc::new(ShardedStore::with_shards_and_latency(1, latency));
    let sharded: Arc<dyn MetadataStore> = Arc::new(ShardedStore::with_shards_and_latency(
        CONTENTION_SHARDS,
        latency,
    ));
    ContentionPair {
        global: contention_throughput(global, CONTENTION_WRITERS, commits_per_writer),
        sharded: contention_throughput(sharded, CONTENTION_WRITERS, commits_per_writer),
    }
}

/// What the durable scenario measured.
struct DurableNumbers {
    /// Non-durable sharded commits/s, same run (the gate's denominator).
    sharded: f64,
    /// WAL-backed sharded commits/s, every commit fsynced before ack.
    durable: f64,
    /// WAL records replayed by the post-run reopen.
    replayed: u64,
    /// Reopen time replaying the full log (no snapshot).
    replay_open: Duration,
    /// Reopen time after a snapshot checkpoint truncated the logs.
    checkpoint_open: Duration,
}

/// The contention workload against the durable store, plus recovery timing.
///
/// Both stores run with the [`TXN_LATENCY`] modeled back-end — the variant
/// the PR 5 sharding gate measures — so the ratio answers the question the
/// gate asks: how much of the sharded ACID-backed commit rate survives
/// write-ahead logging? (Against the cpu-bound in-memory store the
/// comparison is meaningless: any fsync at all loses to a pure memcpy.)
///
/// The WAL root prefers `/dev/shm`: this scenario compares lock/commit
/// protocols, and a CI filesystem's fsync pathology (or lack of real
/// durability) would swamp that signal.
fn durable_scenario(commits_per_writer: usize) -> DurableNumbers {
    let base = if std::path::Path::new("/dev/shm").is_dir() {
        std::path::PathBuf::from("/dev/shm")
    } else {
        std::env::temp_dir()
    };
    let root = base.join(format!("perf-suite-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();

    let sharded: Arc<dyn MetadataStore> = Arc::new(ShardedStore::with_shards_and_latency(
        CONTENTION_SHARDS,
        TXN_LATENCY,
    ));
    let sharded_rate = contention_throughput(sharded, CONTENTION_WRITERS, commits_per_writer);

    let open = || {
        ShardedStore::open_durable(
            &root,
            CONTENTION_SHARDS,
            TXN_LATENCY,
            wal::LogConfig::named("perf"),
        )
        .expect("open durable store")
    };
    let (store, _) = open();
    let store = Arc::new(store);
    let durable_rate = contention_throughput(
        store.clone() as Arc<dyn MetadataStore>,
        CONTENTION_WRITERS,
        commits_per_writer,
    );

    drop(store);
    let start = Instant::now();
    let (store, recovery) = open();
    let replay_open = start.elapsed();
    store.checkpoint().expect("checkpoint");
    drop(store);
    let start = Instant::now();
    let (store, _) = open();
    let checkpoint_open = start.elapsed();
    drop(store);
    std::fs::remove_dir_all(&root).ok();

    DurableNumbers {
        sharded: sharded_rate,
        durable: durable_rate,
        replayed: recovery.replayed,
        replay_open,
        checkpoint_open,
    }
}

/// Connection levels of the scaling scenario (total live connections:
/// idle fleet + active committers).
const CONN_LEVELS: [usize; 3] = [256, 2_000, 10_000];
/// Levels attempted under `--smoke` (CI hardware and CI fd limits).
const CONN_LEVELS_SMOKE: [usize; 2] = [256, 2_000];
/// Clients of the fleet that actively commit while the rest idle.
const ACTIVE_CLIENTS: usize = 32;
/// Threads used to build the idle fleet.
const FLEET_BUILDERS: usize = 8;
/// Fds one live connection costs in this single-process benchmark: client
/// stream + writer clone, plus server stream + reader and writer clones.
const FDS_PER_CONN: u64 = 5;

/// Resident set size in KiB, from `/proc/self/status` (0 if unreadable).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_prefix("VmRSS:")
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

struct ConnLevel {
    conns: usize,
    /// `false` when the fd limit could not be raised far enough to try.
    attempted: bool,
    /// Wall time to grow the idle fleet to this level.
    grow_s: f64,
    /// The server held `conns` live connections through the commit phase.
    sustained: bool,
    /// RSS growth per added connection while growing the fleet.
    rss_kb_per_conn: f64,
    /// Sync commit latency through the loaded reactor.
    commit: Percentiles,
}

/// Grows an idle [`NetBroker`] fleet level by level against one reactor
/// server while [`ACTIVE_CLIENTS`] desktop clients keep committing through
/// the full sync stack; measures commit latency and memory per connection
/// at every level.
fn connection_scaling(levels: &[usize], commits_per_client: usize) -> Vec<ConnLevel> {
    let cloud = Deployment::builder().tcp().build().expect("deploy");
    let server = cloud.server().expect("a TCP front end");
    let addr = server.local_addr();

    // One ping per idle connection per second: a realistic keepalive load
    // at 10k connections without drowning the loop in heartbeat traffic.
    let fleet_config = NetConfig {
        heartbeat: Duration::from_secs(1),
        ..NetConfig::default()
    };

    let active: Vec<Arc<DesktopClient>> = (0..ACTIVE_CLIENTS)
        .map(|i| {
            let user = format!("u{i}");
            let ws = cloud.provision(&user, "ws").expect("provision");
            let net = NetBroker::connect_with(addr, fleet_config.clone()).expect("dial active");
            Arc::new(
                Link::over(net)
                    .connect(cloud.objects(), ClientConfig::new(&user, "dev"), &ws)
                    .expect("connect active client"),
            )
        })
        .collect();

    let mut idle: Vec<NetBroker> = Vec::new();
    let mut results = Vec::new();
    for &level in levels {
        // Each level needs its fds up front; raise the soft limit toward
        // the hard limit and skip the level honestly if that is not enough
        // (CI containers often cap the hard limit).
        let needed = level as u64 * FDS_PER_CONN + 1_024;
        let available = libc::raise_nofile_limit(needed)
            .or_else(|_| libc::nofile_limit().map(|(soft, _)| soft))
            .unwrap_or(0);
        if available < needed {
            println!("  {level} conns: SKIPPED (fd limit {available} < {needed} needed)");
            results.push(ConnLevel {
                conns: level,
                attempted: false,
                grow_s: 0.0,
                sustained: false,
                rss_kb_per_conn: 0.0,
                commit: Percentiles {
                    p50: 0.0,
                    p99: 0.0,
                    mean: 0.0,
                },
            });
            continue;
        }

        let target_idle = level.saturating_sub(ACTIVE_CLIENTS).max(idle.len());
        let adding = target_idle - idle.len();
        let rss_before = rss_kb();
        let grow_started = Instant::now();
        if adding > 0 {
            let mut builders = Vec::new();
            for b in 0..FLEET_BUILDERS {
                let count = adding / FLEET_BUILDERS + usize::from(b < adding % FLEET_BUILDERS);
                let config = fleet_config.clone();
                builders.push(std::thread::spawn(move || {
                    (0..count)
                        .map(|_| NetBroker::connect_with(addr, config.clone()).expect("dial idle"))
                        .collect::<Vec<_>>()
                }));
            }
            for builder in builders {
                idle.extend(builder.join().expect("fleet builder"));
            }
        }
        let grow_s = grow_started.elapsed().as_secs_f64();
        let rss_kb_per_conn = if adding > 0 {
            (rss_kb().saturating_sub(rss_before)) as f64 / adding as f64
        } else {
            0.0
        };

        let expected = target_idle + ACTIVE_CLIENTS;
        let sustained_before = wait_for(Duration::from_secs(30), || {
            server.live_connections() >= expected
        });

        // Active subset commits through the loaded loop, paced like the
        // RPC scenario so percentiles measure latency, not saturation.
        let mut handles = Vec::new();
        for (c, client) in active.iter().enumerate() {
            let client = client.clone();
            handles.push(std::thread::spawn(move || {
                let mut samples = Vec::with_capacity(commits_per_client);
                let content = vec![0x5Au8; 4 * 1024];
                let base = Instant::now();
                for i in 0..commits_per_client {
                    let due = base + CALL_PACING * i as u32;
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    // Timed to the commit's confirmation, not to the
                    // return of `write_file`, which only queues it.
                    let start = Instant::now();
                    client
                        .write_file(&format!("l{level}-c{c}-{i}.dat"), content.clone())
                        .expect("commit under load");
                    assert!(
                        client.wait(Duration::from_secs(30), || {
                            client.unconfirmed_changes() == 0
                        }),
                        "a commit under load was not confirmed"
                    );
                    samples.push(start.elapsed().as_secs_f64());
                }
                samples
            }));
        }
        let mut samples = Vec::with_capacity(ACTIVE_CLIENTS * commits_per_client);
        for handle in handles {
            samples.extend(handle.join().expect("committer"));
        }
        let commit = percentiles(&mut samples);

        // Still holding the whole fleet after the commit phase (brief
        // grace for reconnect blips under CI contention).
        let sustained = sustained_before
            && wait_for(Duration::from_secs(10), || {
                server.live_connections() >= expected
            });

        println!(
            "  {level} conns: grew in {grow_s:.1}s | sustained: {sustained} | \
             {rss_kb_per_conn:.0} KiB/conn | commit p50 {:.3} ms p99 {:.3} ms",
            commit.p50 * 1e3,
            commit.p99 * 1e3,
        );
        results.push(ConnLevel {
            conns: level,
            attempted: true,
            grow_s,
            sustained,
            rss_kb_per_conn,
            commit,
        });
    }
    drop(active);
    drop(idle);
    cloud.shutdown();
    // Let the shared client reactor finish unwinding the fleet's sources
    // before the next scenario starts timing anything: thousands of
    // connections tearing down in the background would skew its numbers.
    wait_for(Duration::from_secs(10), || {
        net::client_reactor_registrations() == 0
    });
    results
}

/// One measured point of the ingest scenario.
struct IngestPoint {
    size: usize,
    workers: usize,
    mbps: f64,
    /// Share of the point's pooled tasks that a pool helper ran instead
    /// of the caller (`content.pool.helped_total / tasks_total`).
    helped: f64,
}

/// Results of the content-plane ingest scenario (BENCH_9).
struct IngestResults {
    /// Single-thread chunk + SHA-1 loop — the seed ingest path.
    scalar: Vec<IngestPoint>,
    /// SHA-1 staged pipeline, no compression, at several worker counts:
    /// short tasks (~0.6 ms per 512 KiB chunk on SHA-NI).
    pipeline: Vec<IngestPoint>,
    /// The shipped client's pipeline, SHA-1 + LZSS, at the same worker
    /// counts: long tasks (~13 ms per chunk).
    pipeline_shipped: Vec<IngestPoint>,
    /// One-shot SHA-1 over a 4 MB buffer, MB/s.
    sha1_hash_mbps: f64,
    /// Whether that SHA-1 ran on SHA-NI (`content.sha1.hardware`).
    sha1_hardware: bool,
    /// Workload-trace dedup replay.
    dedup: workload::DedupReport,
}

/// Worker counts measured for the pipeline.
const INGEST_WORKERS: &[usize] = &[1, 2, 4];
/// The least the no-compression pipeline must gain over the scalar loop.
/// Both hash with SHA-1, so this is the pool's parallel efficiency alone.
const PIPELINE_OVER_SCALAR: f64 = 1.5;
/// Buffer for the one-shot hash throughput (a typical large chunk span).
const HASH_PROBE_BYTES: usize = 4 * 1024 * 1024;

/// Deterministic pseudo-random fill — content does not affect hash or
/// chunk speed, but incompressible bytes keep any compression stage
/// honest.
fn ingest_payload(size: usize) -> bytes::Bytes {
    let mut data = vec![0u8; size];
    let mut x = 0x243f_6a88_85a3_08d3u64;
    for b in data.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
    bytes::Bytes::from(data)
}

fn best_mbps(size: usize, reps: usize, mut run: impl FnMut() -> Duration) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        best = best.min(run().as_secs_f64());
    }
    size as f64 / best / 1e6
}

/// Measures ingest throughput: the scalar chunk+SHA-1 loop (the paper's
/// client, single thread) against the staged pipeline at
/// [`INGEST_WORKERS`] — without compression, and with LZSS as shipped —
/// over files of `sizes`, each point with the share of its tasks the
/// shared pool's helpers ran; plus one-shot SHA-1 throughput and a
/// workload dedup replay.
fn ingest_scenario(sizes: &[usize], reps: usize, smoke: bool) -> IngestResults {
    use content::chunker::{Chunker, FixedChunker};
    use content::compress::Algorithm;
    use content::pipeline::{IngestPipeline, PipelineConfig};
    use content::{ChunkId, Fingerprint};

    let chunk_size = content::DEFAULT_CHUNK_SIZE;
    let mut scalar = Vec::new();
    let mut pipeline = Vec::new();
    let mut pipeline_shipped = Vec::new();
    let pool_tasks = obs::counter("content.pool.tasks_total");
    let pool_helped = obs::counter("content.pool.helped_total");

    for &size in sizes {
        let data = ingest_payload(size);
        let chunker = FixedChunker::new(chunk_size);
        let mbps = best_mbps(size, reps, || {
            let start = Instant::now();
            let spans = chunker.chunk(&data);
            let ids: Vec<ChunkId> = spans
                .iter()
                .map(|s| ChunkId::of(&data[s.range()]))
                .collect();
            assert!(!ids.is_empty());
            start.elapsed()
        });
        println!("  scalar sha1      {:>9} B: {mbps:>8.1} MB/s", size);
        scalar.push(IngestPoint {
            size,
            workers: 1,
            mbps,
            helped: 0.0,
        });

        let arms = [
            ("sha1         ", None, &mut pipeline),
            (
                "sha1+lzss    ",
                Some(Algorithm::Lzss),
                &mut pipeline_shipped,
            ),
        ];
        for (label, compression, points) in arms {
            for &workers in INGEST_WORKERS {
                let pipe = IngestPipeline::new(
                    std::sync::Arc::new(FixedChunker::new(chunk_size)),
                    PipelineConfig {
                        workers,
                        fingerprint: Fingerprint::Sha1,
                        compression,
                    },
                );
                let (tasks_before, helped_before) = (pool_tasks.value(), pool_helped.value());
                let mbps = best_mbps(size, reps, || {
                    let report = pipe.ingest(data.clone());
                    assert_eq!(report.logical_bytes, size as u64);
                    report.elapsed
                });
                let tasks = pool_tasks.value() - tasks_before;
                let helped = (pool_helped.value() - helped_before) as f64 / tasks.max(1) as f64;
                println!(
                    "  {label} w={workers} {size:>9} B: {mbps:>8.1} MB/s, helpers ran {:.0} % \
                     of {tasks} pooled tasks",
                    helped * 100.0
                );
                points.push(IngestPoint {
                    size,
                    workers,
                    mbps,
                    helped,
                });
            }
        }
    }

    let probe = ingest_payload(HASH_PROBE_BYTES);
    let sha1_hash_mbps = best_mbps(HASH_PROBE_BYTES, reps.max(3), || {
        let start = Instant::now();
        std::hint::black_box(content::sha1::sha1(&probe));
        start.elapsed()
    });
    let sha1_hardware = obs::gauge("content.sha1.hardware").value() == 1.0;
    println!(
        "  hash 4MB one-shot: sha1 {sha1_hash_mbps:.1} MB/s ({} kernel)",
        if sha1_hardware { "SHA-NI" } else { "portable" }
    );

    // Dedup replay: the generated trace through chunk/hash/compress and
    // the refcount tracker.
    let (gen_config, replay_config) = if smoke {
        (
            workload::GeneratorConfig::test_scale(),
            workload::ReplayConfig {
                chunk_size: 1024,
                ..workload::ReplayConfig::default()
            },
        )
    } else {
        (
            workload::GeneratorConfig::default(),
            workload::ReplayConfig::default(),
        )
    };
    let trace = workload::Trace::generate(&gen_config);
    let dedup = workload::dedup::replay(&trace, &replay_config);
    println!("  {}", dedup.render());

    IngestResults {
        scalar,
        pipeline,
        pipeline_shipped,
        sha1_hash_mbps,
        sha1_hardware,
        dedup,
    }
}

/// Runs the ingest scenario, writes `BENCH_9.json`, and enforces the
/// relative gates: the pipeline at its best worker count ≥
/// [`PIPELINE_OVER_SCALAR`] × the scalar loop on the largest file, and a
/// dedup ratio above 1.0.
fn run_ingest(smoke: bool, gate: bool, out_path: &str) {
    let sizes: &[usize] = if smoke {
        &[64 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    } else {
        &[64 * 1024, 1024 * 1024, 16 * 1024 * 1024, 64 * 1024 * 1024]
    };
    let reps = if smoke { 2 } else { 3 };
    println!(
        "content-plane ingest ({} file sizes up to {} MB, pipeline workers {INGEST_WORKERS:?})...",
        sizes.len(),
        sizes.last().unwrap() / (1024 * 1024)
    );
    let r = ingest_scenario(sizes, reps, smoke);

    let fmt_points = |points: &[IngestPoint]| {
        points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"size\": {}, \"workers\": {}, \"mbps\": {:.1}, \"helped\": {:.3} }}",
                    p.size, p.workers, p.mbps, p.helped
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"perf_suite.ingest\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"chunk_size\": {chunk},\n",
            "  \"hash_one_shot\": {{ \"bytes\": {probe}, \"sha1_mbps\": {sm:.1}, ",
            "\"hardware\": {hw} }},\n",
            "  \"scalar_sha1\": [\n{scalar}\n  ],\n",
            "  \"host_workers\": {host},\n",
            "  \"pipeline_sha1\": [\n{pipeline}\n  ],\n",
            "  \"pipeline_sha1_lzss\": [\n{shipped}\n  ],\n",
            "  \"dedup\": {{ \"ops\": {ops}, \"logical_bytes\": {lb}, \"stored_bytes\": {sb}, ",
            "\"ratio\": {ratio:.3}, \"chunk_writes\": {cw}, \"dedup_hits\": {dh}, ",
            "\"gc_reclaimed_bytes\": {gc} }}\n",
            "}}\n"
        ),
        smoke = smoke,
        chunk = content::DEFAULT_CHUNK_SIZE,
        probe = HASH_PROBE_BYTES,
        sm = r.sha1_hash_mbps,
        hw = r.sha1_hardware,
        scalar = fmt_points(&r.scalar),
        host = content::pipeline::host_workers(),
        pipeline = fmt_points(&r.pipeline),
        shipped = fmt_points(&r.pipeline_shipped),
        ops = r.dedup.ops,
        lb = r.dedup.logical_bytes_written,
        sb = r.dedup.bytes_stored,
        ratio = r.dedup.ratio(),
        cw = r.dedup.chunk_writes,
        dh = r.dedup.dedup_hits,
        gc = r.dedup.gc_reclaimed_bytes,
    );
    std::fs::write(out_path, &json).expect("write ingest results");
    println!("ingest results written to {out_path}");

    if !gate {
        return;
    }
    let largest = *sizes.last().unwrap();
    let scalar_large = r
        .scalar
        .iter()
        .find(|p| p.size == largest)
        .map(|p| p.mbps)
        .unwrap_or(f64::MAX);
    let pipeline_large = r
        .pipeline
        .iter()
        .filter(|p| p.size == largest)
        .map(|p| p.mbps)
        .fold(0.0f64, f64::max);
    if pipeline_large < PIPELINE_OVER_SCALAR * scalar_large {
        eprintln!(
            "GATE FAILED: pipeline ingest {pipeline_large:.0} MB/s is under \
             {PIPELINE_OVER_SCALAR}x the scalar SHA-1 loop's {scalar_large:.0} MB/s on \
             {largest} B files in the same run"
        );
        std::process::exit(1);
    }
    if r.dedup.ratio() <= 1.0 {
        eprintln!(
            "GATE FAILED: workload dedup ratio {:.3} did not beat 1.0",
            r.dedup.ratio()
        );
        std::process::exit(1);
    }
    println!(
        "ingest gate passed: pipeline {:.2}x scalar on \
         {} MB files, dedup ratio {:.2}x",
        pipeline_large / scalar_large,
        largest / (1024 * 1024),
        r.dedup.ratio()
    );
}

/// Polls `cond` until it holds or `timeout` elapses; returns whether it held.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn main() {
    let smoke = has_flag("--smoke");
    let gate = has_flag("--gate");
    let out_path = arg_value("--out").unwrap_or_else(|| "BENCH_4.json".to_string());
    let contention_path =
        arg_value("--out-contention").unwrap_or_else(|| "BENCH_5.json".to_string());
    let conn_path = arg_value("--out-conn").unwrap_or_else(|| "BENCH_6.json".to_string());
    let durable_path = arg_value("--out-durable").unwrap_or_else(|| "BENCH_7.json".to_string());
    let ingest_path = arg_value("--out-ingest").unwrap_or_else(|| "BENCH_9.json".to_string());
    let (messages, calls, commits, contention_commits, conn_commits) = if smoke {
        (2_000, 320, 50, 100, 40)
    } else {
        (50_000, 3_200, 500, 800, 100)
    };
    let conn_levels: &[usize] = if smoke {
        &CONN_LEVELS_SMOKE
    } else {
        &CONN_LEVELS
    };

    header("perf_suite: broker / RPC / commit performance");

    // `--admin <addr>` exposes /metrics, /healthz, /spans and /snapshot
    // live while the suite runs (the fleet-observability smoke test scrapes
    // them under load).
    let _admin = arg_value("--admin").map(|a| {
        let admin = obs::serve_admin(&a[..]).expect("bind admin endpoint");
        println!("admin endpoint on http://{}", admin.local_addr());
        admin
    });

    // `--ingest-only` runs just the content-plane scenario (the CI
    // ingest-bench job); the full suite also runs it, after the
    // transport/commit scenarios.
    if has_flag("--ingest-only") {
        run_ingest(smoke, gate, &ingest_path);
        bench::obs_dump();
        return;
    }

    println!("broker throughput ({messages} msgs of 1 KiB)...");
    let broker_msgs_per_sec = broker_throughput(messages);
    println!("  {broker_msgs_per_sec:.0} msg/s");

    println!("ObjectMQ sync RPC, in-process ({calls} calls)...");
    let inproc = rpc_latency(&Broker::in_process(), calls);
    println!(
        "  p50 {:.3} ms | p99 {:.3} ms | mean {:.3} ms",
        inproc.p50 * 1e3,
        inproc.p99 * 1e3,
        inproc.mean * 1e3
    );

    println!("ObjectMQ RPC, TCP loopback, depth {PIPELINE_DEPTH} ({calls} calls)...");
    let tcp_batched = with_loopback(|b| pipelined_rpc_latency(b, calls, PIPELINE_DEPTH));
    println!(
        "  p50 {:.3} ms | p99 {:.3} ms | mean {:.3} ms",
        tcp_batched.p50 * 1e3,
        tcp_batched.p99 * 1e3,
        tcp_batched.mean * 1e3
    );

    println!("sync commit throughput ({commits} commits of 16 KiB)...");
    let commits_per_sec = commit_throughput(commits);
    println!("  {commits_per_sec:.0} changes decided/s");

    println!(
        "metadata contention, cpu-bound ({CONTENTION_WRITERS} writers x {contention_commits} \
         commits, {CONTENTION_SHARDS} shards vs 1)..."
    );
    let cpu_bound = contention_scenario(contention_commits, Duration::ZERO);
    println!(
        "  global {:.0} commits/s | sharded {:.0} commits/s ({:.2}x)",
        cpu_bound.global,
        cpu_bound.sharded,
        cpu_bound.speedup()
    );
    println!(
        "metadata contention, {}us modeled txn latency...",
        TXN_LATENCY.as_micros()
    );
    let txn_latency = contention_scenario(contention_commits, TXN_LATENCY);
    println!(
        "  global {:.0} commits/s | sharded {:.0} commits/s ({:.2}x)",
        txn_latency.global,
        txn_latency.sharded,
        txn_latency.speedup()
    );

    println!(
        "connection scaling ({} levels up to {} conns, {ACTIVE_CLIENTS} active committers \
         x {conn_commits} commits)...",
        conn_levels.len(),
        conn_levels.last().copied().unwrap_or(0),
    );
    let conn = connection_scaling(conn_levels, conn_commits);

    println!(
        "durable commit plane ({CONTENTION_WRITERS} writers x {contention_commits} commits, \
         per-shard WAL, committer fsyncs, vs in-memory)..."
    );
    let durable = durable_scenario(contention_commits);
    println!(
        "  sharded {:.0} commits/s | durable {:.0} commits/s ({:.0}% retained)",
        durable.sharded,
        durable.durable,
        durable.durable / durable.sharded * 100.0
    );
    println!(
        "  recovery: {} records replayed in {:.1} ms; post-checkpoint open {:.1} ms",
        durable.replayed,
        durable.replay_open.as_secs_f64() * 1e3,
        durable.checkpoint_open.as_secs_f64() * 1e3
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"perf_suite\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"broker\": {{ \"messages\": {messages}, \"msgs_per_sec\": {bm:.1} }},\n",
            "  \"rpc_in_process\": {{ \"calls\": {calls}, \"p50_s\": {ip50:.9}, ",
            "\"p99_s\": {ip99:.9}, \"mean_s\": {imean:.9} }},\n",
            "  \"rpc_tcp_loopback\": {{ \"calls\": {calls}, \"depth\": {depth}, ",
            "\"pacing_ms\": {pacing_ms:.1}, ",
            "\"batched\": {{ \"p50_s\": {tp50:.9}, \"p99_s\": {tp99:.9}, \"mean_s\": {tmean:.9} }} }},\n",
            "  \"commit\": {{ \"commits\": {commits}, \"commits_per_sec\": {cps:.1} }}\n",
            "}}\n"
        ),
        smoke = smoke,
        messages = messages,
        bm = broker_msgs_per_sec,
        calls = calls,
        ip50 = inproc.p50,
        ip99 = inproc.p99,
        imean = inproc.mean,
        depth = PIPELINE_DEPTH,
        pacing_ms = CALL_PACING.as_secs_f64() * 1e3,
        tp50 = tcp_batched.p50,
        tp99 = tcp_batched.p99,
        tmean = tcp_batched.mean,
        commits = commits,
        cps = commits_per_sec,
    );
    std::fs::write(&out_path, &json).expect("write results");
    println!("\nresults written to {out_path}");

    let contention_json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"perf_suite.contention\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"writers\": {writers}, \"workspaces\": {writers}, ",
            "\"commits_per_writer\": {cpw}, \"shards\": {shards},\n",
            "  \"cpu_bound\": {{ \"global_commits_per_sec\": {cg:.1}, ",
            "\"sharded_commits_per_sec\": {cs:.1}, \"speedup\": {csp:.3} }},\n",
            "  \"txn_latency\": {{ \"latency_us\": {lat_us}, ",
            "\"global_commits_per_sec\": {tg:.1}, ",
            "\"sharded_commits_per_sec\": {ts:.1}, \"speedup\": {tsp:.3} }}\n",
            "}}\n"
        ),
        smoke = smoke,
        writers = CONTENTION_WRITERS,
        cpw = contention_commits,
        shards = CONTENTION_SHARDS,
        cg = cpu_bound.global,
        cs = cpu_bound.sharded,
        csp = cpu_bound.speedup(),
        lat_us = TXN_LATENCY.as_micros(),
        tg = txn_latency.global,
        ts = txn_latency.sharded,
        tsp = txn_latency.speedup(),
    );
    std::fs::write(&contention_path, &contention_json).expect("write contention results");
    println!("contention results written to {contention_path}");

    let mut conn_levels_json = String::new();
    for (i, level) in conn.iter().enumerate() {
        if i > 0 {
            conn_levels_json.push_str(",\n");
        }
        conn_levels_json.push_str(&format!(
            concat!(
                "    {{ \"conns\": {conns}, \"attempted\": {attempted}, ",
                "\"sustained\": {sustained}, \"grow_s\": {grow:.3}, ",
                "\"rss_kb_per_conn\": {rss:.1}, \"commit_p50_s\": {p50:.9}, ",
                "\"commit_p99_s\": {p99:.9}, \"commit_mean_s\": {mean:.9} }}"
            ),
            conns = level.conns,
            attempted = level.attempted,
            sustained = level.sustained,
            grow = level.grow_s,
            rss = level.rss_kb_per_conn,
            p50 = level.commit.p50,
            p99 = level.commit.p99,
            mean = level.commit.mean,
        ));
    }
    let conn_json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"perf_suite.connections\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"active_clients\": {active}, \"commits_per_client\": {cpc},\n",
            "  \"levels\": [\n{levels}\n  ]\n",
            "}}\n"
        ),
        smoke = smoke,
        active = ACTIVE_CLIENTS,
        cpc = conn_commits,
        levels = conn_levels_json,
    );
    std::fs::write(&conn_path, &conn_json).expect("write connection results");
    println!("connection results written to {conn_path}");

    let durable_json = format!(
        concat!(
            "{{\n",
            "  \"suite\": \"perf_suite.durable\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"writers\": {writers}, \"commits_per_writer\": {cpw}, \"shards\": {shards},\n",
            "  \"sharded_commits_per_sec\": {ds:.1},\n",
            "  \"durable_commits_per_sec\": {dd:.1},\n",
            "  \"durable_relative\": {rel:.3},\n",
            "  \"recovery\": {{ \"replayed_records\": {replayed}, ",
            "\"replay_open_s\": {ropen:.6}, \"post_checkpoint_open_s\": {copen:.6} }}\n",
            "}}\n"
        ),
        smoke = smoke,
        writers = CONTENTION_WRITERS,
        cpw = contention_commits,
        shards = CONTENTION_SHARDS,
        ds = durable.sharded,
        dd = durable.durable,
        rel = durable.durable / durable.sharded,
        replayed = durable.replayed,
        ropen = durable.replay_open.as_secs_f64(),
        copen = durable.checkpoint_open.as_secs_f64(),
    );
    std::fs::write(&durable_path, &durable_json).expect("write durable results");
    println!("durable results written to {durable_path}");

    run_ingest(smoke, gate, &ingest_path);
    bench::obs_dump();

    if gate && txn_latency.sharded < txn_latency.global {
        eprintln!(
            "GATE FAILED: sharded contention throughput {:.0} commits/s fell below the \
             one-shard store's {:.0} commits/s in the same run",
            txn_latency.sharded, txn_latency.global
        );
        std::process::exit(1);
    }
    if gate {
        let attempted: Vec<&ConnLevel> = conn.iter().filter(|l| l.attempted).collect();
        for level in &attempted {
            if !level.sustained {
                eprintln!(
                    "GATE FAILED: the reactor did not sustain {} live connections",
                    level.conns
                );
                std::process::exit(1);
            }
        }
        // Relative latency gate: commit p99 at the largest sustained level
        // must stay within 10x of the smallest level's (floored at 2 ms so
        // scheduler noise on a fast baseline cannot fail the run). Catches
        // an event loop that collapses under fd count, robustly to machine
        // speed.
        if let (Some(first), Some(last)) = (attempted.first(), attempted.last()) {
            let allowance = 10.0 * first.commit.p99.max(0.002);
            if last.conns > first.conns && last.commit.p99 > allowance {
                eprintln!(
                    "GATE FAILED: commit p99 {:.1} ms at {} conns exceeds {:.1} ms \
                     (10x the {:.1} ms p99 at {} conns)",
                    last.commit.p99 * 1e3,
                    last.conns,
                    allowance * 1e3,
                    first.commit.p99 * 1e3,
                    first.conns
                );
                std::process::exit(1);
            }
        }
    }
    if gate && durable.durable < 0.6 * durable.sharded {
        eprintln!(
            "GATE FAILED: durable sharded throughput {:.0} commits/s fell below 60% of \
             the non-durable sharded store's {:.0} commits/s in the same run",
            durable.durable, durable.sharded
        );
        std::process::exit(1);
    }
    if gate {
        println!(
            "gate passed: sharded {:.2}x global contention throughput, durable {:.0}% of \
             non-durable sharded",
            txn_latency.speedup(),
            durable.durable / durable.sharded * 100.0
        );
    }
}
