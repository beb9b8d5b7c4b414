//! Layer probes: each layer measured from outside, by timing calls into its
//! public functions on inputs shaped like the workload's (same file size,
//! same seed). Every probe gets an equal slice of the traced pass's probe
//! time and at most [`MAX_SAMPLES`] inputs, and reports a median. The
//! program's own instrumentation is off while they run.

use crate::detect::Awake;
use crate::gen::random_bytes;
use crate::harness::Ctx;
use crate::stack::{
    content_file, ContentLayer, DialTarget, Item, Meta, QueueLayer, Res, RpcLayer, ServiceLayer,
    StorageLayer, WalLayer, WireLayer, CHUNK_SIZE,
};
use crate::stats::{median, Summary};
use crate::sys;
use bytes::Bytes;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Inputs a probe runs on at most.
const MAX_SAMPLES: usize = 2000;
/// Inputs a probe runs on at least, however slow one call is.
const MIN_SAMPLES: usize = 3;
/// Probes sharing the time; keep in step with `run`.
const PROBES: u32 = 20;
/// Items in the `get_changes` reply and the scanned workspace: the size of
/// the workspace `cold_join` joins.
const REPLY_ITEMS: usize = 3012;
/// Calls timed together where one call is too short for the clock.
const BATCH: usize = 64;

/// File size each workload's ops carry; the probes use the same.
fn file_bytes(workload: &str) -> usize {
    match workload {
        "bulk_upload" => 8 * 1024 * 1024,
        "cold_join" => 2048,
        _ => 4096,
    }
}

/// Times `call(i)` for `i = 0, 1, ...` until the slice is spent or
/// `MAX_SAMPLES` calls are made; returns seconds per call.
fn sample(slice: Duration, call: impl FnMut(usize) -> Res<()>) -> Res<Vec<f64>> {
    sample_at_most(MAX_SAMPLES, slice, call)
}

fn sample_at_most(
    max: usize,
    slice: Duration,
    mut call: impl FnMut(usize) -> Res<()>,
) -> Res<Vec<f64>> {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < MIN_SAMPLES || (secs.len() < max && started.elapsed() < slice) {
        let t = Instant::now();
        call(secs.len())?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(secs)
}

/// Like [`sample`] for calls of tens of nanoseconds: times `BATCH` calls at
/// once and returns seconds per single call.
fn sample_batched(slice: Duration, mut call: impl FnMut()) -> Vec<f64> {
    let per_batch = sample(slice, |_| {
        for _ in 0..BATCH {
            call();
        }
        Ok(())
    })
    .expect("the batched call cannot fail");
    per_batch.into_iter().map(|s| s / BATCH as f64).collect()
}

fn p50(samples: &[f64], scale: f64) -> Summary {
    Summary {
        n: samples.len(),
        ..Summary::single(median(samples).unwrap_or(0.0) * scale)
    }
}

/// `bytes` per call as MB/s at the median call time.
fn mb_per_s(samples: &[f64], bytes: usize) -> Summary {
    let secs = median(samples).unwrap_or(0.0);
    Summary {
        n: samples.len(),
        ..Summary::single(if secs > 0.0 {
            bytes as f64 / 1e6 / secs
        } else {
            0.0
        })
    }
}

fn item(seed: u64, i: usize, chunks: usize) -> Item {
    let raw = random_bytes(seed, i as u64, 8 + 20 * chunks);
    Item {
        id: u64::from_le_bytes(raw[..8].try_into().expect("8 bytes")) >> 1,
        path: format!("dir{:02}/file{i:06}.dat", i % 16),
        version: 1,
        chunks: raw[8..]
            .chunks_exact(20)
            .map(|c| c.try_into().expect("20 bytes"))
            .collect(),
        size: 0,
    }
}

/// Runs every probe; returns per-layer metrics by name. Names outside the
/// per-layer table are inputs to `layers.sum_p50_ms` only.
pub fn run(ctx: &Ctx, workload: &str, time: Duration) -> Res<Vec<(&'static str, Summary)>> {
    let slice = time / PROBES;
    let size = if ctx.smoke {
        file_bytes(workload).min(CHUNK_SIZE + 4096)
    } else {
        file_bytes(workload)
    };
    let chunks_per_file = size.div_ceil(CHUNK_SIZE);
    let dir = ctx.data_dir.join("probes");
    let mut out: Vec<(&'static str, Summary)> = Vec::new();

    // content: the whole pipeline, then one stage at a time on one chunk.
    let content = ContentLayer::shipped();
    let file = if size > 64 * 1024 {
        content_file(size, ctx.seed)
    } else {
        random_bytes(ctx.seed, 0, size)
    };
    let chunk = &file[..size.min(CHUNK_SIZE)];
    let shared = Bytes::from(file.clone());
    let ingest = sample(slice, |_| {
        black_box(content.ingest(shared.clone()));
        Ok(())
    })?;
    out.push(("content.ingest_p50_us", p50(&ingest, 1e6)));
    let ingested = content.ingest(shared);
    out.push((
        "content.compress_ratio",
        Summary::single(ingested.payload_bytes as f64 / size as f64),
    ));
    let chunking = sample_batched(slice, || {
        black_box(content.chunk(black_box(&file)));
    });
    out.push(("content.chunk_mb_per_s", mb_per_s(&chunking, size)));
    let hashing = sample(slice, |_| {
        black_box(content.hash(black_box(chunk)));
        Ok(())
    })?;
    out.push(("content.hash_mb_per_s", mb_per_s(&hashing, chunk.len())));
    let compressing = sample(slice, |_| {
        black_box(content.compress(black_box(chunk)));
        Ok(())
    })?;
    out.push((
        "content.compress_mb_per_s",
        mb_per_s(&compressing, chunk.len()),
    ));
    let stored = content.compress(chunk);
    let decompressing = sample(slice, |_| {
        content.decompress(black_box(&stored)).map(|_| ())
    })?;
    out.push((
        "content.decompress_mb_per_s",
        mb_per_s(&decompressing, chunk.len()),
    ));
    // What a watcher does per chunk after fetching it.
    let verify_us = (median(&decompressing).unwrap_or(0.0) + median(&hashing).unwrap_or(0.0)) * 1e6;
    out.push(("content.verify_chunk_p50_us", Summary::single(verify_us)));

    // storage: put a file's chunks (all new each time), get one back.
    let storage = StorageLayer::instant()?;
    // Every put adds a file's worth of chunks to the in-memory store: stop
    // at 64 MiB, which for the 8 MiB workload is eight files.
    let most_puts = (64 * 1024 * 1024 / size).clamp(MIN_SAMPLES, MAX_SAMPLES);
    let puts = sample_at_most(most_puts, slice, |i| {
        let fresh: Vec<_> = ingested
            .chunks
            .iter()
            .enumerate()
            .map(|(c, chunk)| chunk.renamed(format!("probe-{i}-{c}")))
            .collect();
        storage.put(&format!("file-{i}"), &fresh).map(|_| ())
    })?;
    out.push(("storage.put_chunks_p50_us", p50(&puts, 1e6)));
    let gets = sample(slice, |i| {
        storage
            .get(&format!("probe-{}-0", i % puts.len()))
            .map(|_| ())
    })?;
    out.push(("storage.get_p50_us", p50(&gets, 1e6)));
    drop(storage);

    // wire: one commit's messages, and the reply a joining device gets.
    let commit_item = item(ctx.seed, 0, chunks_per_file);
    let request = WireLayer::commit_request("ws-1", "writer", &commit_item);
    let notification = WireLayer::notification("ws-1", "writer", &commit_item);
    let mut buffer = Vec::new();
    let encoding = sample_batched(slice, || {
        buffer.clear();
        WireLayer::encode(black_box(&request), &mut buffer);
    });
    out.push(("wire.encode_commit_p50_ns", p50(&encoding, 1e9)));
    out.push((
        "wire.commit_request_bytes",
        Summary::single(buffer.len() as f64),
    ));
    let encoded_request = buffer.clone();
    let decoding = sample_batched(slice, || {
        black_box(
            WireLayer::decode(black_box(&encoded_request)).expect("decodes what was encoded"),
        );
    });
    out.push(("wire.decode_commit_p50_ns", p50(&decoding, 1e9)));
    buffer.clear();
    WireLayer::encode(&notification, &mut buffer);
    out.push((
        "wire.notification_bytes",
        Summary::single(buffer.len() as f64),
    ));
    let reply_items: Vec<Item> = (0..ctx.size(REPLY_ITEMS, 100))
        .map(|i| item(ctx.seed, i, 1))
        .collect();
    let reply = WireLayer::changes_reply("ws-1", &reply_items);
    let reply_encoding = sample(slice, |_| {
        buffer.clear();
        WireLayer::encode(black_box(&reply), &mut buffer);
        Ok(())
    })?;
    out.push(("wire.encode_changes_p50_us", p50(&reply_encoding, 1e6)));
    out.push((
        "wire.changes_reply_bytes",
        Summary::single(buffer.len() as f64),
    ));

    // From here on the probes time hand-offs between threads, so every core
    // is kept awake as in the workload's latency phases: the numbers are
    // then comparable with `sync.closed_p50_ms` and free of the host's mood.
    let awake = Awake::keep(sys::nproc() as usize);

    // mqsim and net: the same commit-sized message through the queue alone,
    // then through the socket as well. The difference is the socket's share.
    let payload = Bytes::from(encoded_request);
    let queue = QueueLayer::in_process()?;
    let in_process = sample(slice, |_| queue.round_trip(payload.clone()).map(|_| ()))?;
    out.push(("mqsim.pubsub_p50_us", p50(&in_process, 1e6)));
    queue.close();
    let queue = QueueLayer::over_tcp()?;
    let over_tcp = sample(slice, |_| queue.round_trip(payload.clone()).map(|_| ()))?;
    out.push(("net.pubsub_rtt_p50_us", p50(&over_tcp, 1e6)));
    queue.close();
    let target = DialTarget::bind()?;
    let dials = sample(slice, |_| target.dial())?;
    out.push(("net.dial_p50_us", p50(&dials, 1e6)));
    target.close();

    // objectmq: a synchronous call to an object that does nothing.
    let rpc = RpcLayer::in_process()?;
    let calls = sample(slice, |_| rpc.call())?;
    out.push(("objectmq.call_sync_p50_us", p50(&calls, 1e6)));
    rpc.close();
    let rpc = RpcLayer::over_tcp()?;
    let calls = sample(slice, |_| rpc.call())?;
    out.push(("objectmq.call_sync_tcp_p50_us", p50(&calls, 1e6)));
    rpc.close();

    // metadata: a commit without and with the WAL (the difference is one
    // group-commit hand-off and its fsync), and the start-up scan.
    let commit_into = |meta: &Meta| -> Res<Vec<f64>> {
        meta.add_user("probe")?;
        let ws = meta.add_workspace("probe", "ws")?;
        sample(slice, |i| {
            let accepted = meta.commit(&ws, "writer", &item(ctx.seed, i, chunks_per_file))?;
            accepted
                .then_some(())
                .ok_or_else(|| "probe commit conflicted".into())
        })
    };
    let volatile = Meta::volatile();
    let commits = commit_into(&volatile)?;
    out.push(("metadata.commit_p50_us", p50(&commits, 1e6)));
    let (durable, _) = Meta::open(&dir.join("meta"))?;
    let durable_commits = commit_into(&durable)?;
    out.push(("metadata.durable_commit_p50_us", p50(&durable_commits, 1e6)));
    drop(durable);

    // wal: append one commit-sized record and wait for its fsync.
    let log = WalLayer::open(&dir.join("wal"))?;
    let appends = sample(slice, |_| log.append_sync(&payload))?;
    out.push(("wal.append_sync_p50_us", p50(&appends, 1e6)));
    drop(log);
    // The scan and the dispatch below stay on one thread: nothing to wake.
    drop(awake);

    let scanned = Meta::volatile();
    scanned.add_user("probe")?;
    let ws = scanned.add_workspace("probe", "ws")?;
    for it in &reply_items {
        scanned.commit(&ws, "writer", it)?;
    }
    let scans = sample(slice, |_| {
        scanned.current(&ws).map(|items| drop(black_box(items)))
    })?;
    out.push(("metadata.current_items_p50_us", p50(&scans, 1e6)));

    // sync: the service's commit handler called directly.
    let service = ServiceLayer::volatile();
    service.meta.add_user("probe")?;
    let ws = service.meta.add_workspace("probe", "ws")?;
    let requests: Vec<_> = (0..MAX_SAMPLES)
        .map(|i| WireLayer::commit_request(&ws, "writer", &item(ctx.seed, i, chunks_per_file)))
        .collect();
    let dispatches = sample(slice, |i| service.commit(&requests[i]))?;
    out.push(("sync.dispatch_commit_p50_us", p50(&dispatches, 1e6)));

    let _ = std::fs::remove_dir_all(&dir);
    Ok(out)
}
