//! Fig. 7(b): total protocol overhead (storage + control traffic over the
//! benchmark size) for StackSync and the five commercial Personal Clouds,
//! replaying the generated trace one operation at a time.
//!
//! StackSync appears twice: the closed-form protocol model (fast) and, with
//! `--live`, the real in-process stack (ObjectMQ + SyncService + chunk
//! store) cross-validating the model.

use baselines::{DropboxModel, FullFileModel, StackSyncModel, SyncProvider};
use bench::{arg_value, bar, has_flag, header, mb, replay};
use workload::{GeneratorConfig, Trace};

fn main() {
    let scale: f64 = arg_value("--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let mut config = GeneratorConfig::default();
    config.adds_per_snapshot *= scale;
    let trace = Trace::generate(&config);
    let stats = trace.stats();

    header("Fig 7(b): protocol overhead per service (trace replay, batch = 1)");
    println!(
        "benchmark: {} ops, {} of ADD data",
        trace.ops.len(),
        mb(stats.add_volume)
    );

    let mut providers: Vec<Box<dyn SyncProvider>> = vec![
        Box::new(StackSyncModel::new()),
        Box::new(DropboxModel::new()),
        Box::new(FullFileModel::onedrive()),
        Box::new(FullFileModel::google_drive()),
        Box::new(FullFileModel::box_com()),
        Box::new(FullFileModel::cloud_drive()),
    ];

    println!(
        "\n{:<14} {:>12} {:>12} {:>12} {:>10}",
        "service", "control", "storage", "total", "overhead"
    );
    let mut rows = Vec::new();
    for provider in providers.iter_mut() {
        let report = replay(provider.as_mut(), &trace, 1);
        rows.push((
            report.provider.clone(),
            report.control_total(),
            report.storage_total(),
            report.total(),
            report.overhead_ratio(),
        ));
    }
    let max_total = rows.iter().map(|r| r.3).max().unwrap_or(1) as f64;
    for (name, control, storage, total, overhead) in &rows {
        println!(
            "{name:<14} {:>12} {:>12} {:>12} {:>9.1}%  {}",
            mb(*control),
            mb(*storage),
            mb(*total),
            overhead * 100.0,
            bar(*total as f64, max_total, 30)
        );
    }
    println!("\npaper shape: Dropbox highest overhead (~+150 MB of extra traffic);");
    println!("StackSync low and comparable to the other commercial services.");

    if has_flag("--live") {
        live_stack(&trace, stats.add_volume);
    } else {
        println!("\n(run with --live to cross-validate against the real in-process stack)");
    }
    bench::obs_dump();
}

/// Replays the trace through the real stack and reports measured traffic.
fn live_stack(trace: &Trace, benchmark_bytes: u64) {
    use baselines::FileSet;
    use stacksync::{ClientConfig, Deployment};

    header("Fig 7(b) addendum: live StackSync stack (real middleware path)");
    let cloud = Deployment::builder().build().expect("deploy");
    let ws = cloud.provision("bench", "ws").expect("provision");
    let client = cloud
        .connect(ClientConfig::new("bench", "replayer"), &ws)
        .expect("connect");

    let mut files = FileSet::new();
    let mut executed = 0usize;
    for op in &trace.ops {
        let (_, new) = files.apply(op);
        match op {
            workload::TraceOp::Add { path, .. } | workload::TraceOp::Update { path, .. } => {
                client
                    .write_file(path, new.expect("content"))
                    .expect("write");
            }
            workload::TraceOp::Remove { path } => {
                client.delete_file(path).expect("delete");
            }
        }
        executed += 1;
    }
    // Wait for every change to be decided.
    assert!(client.wait(std::time::Duration::from_secs(120), || {
        cloud.service().changes_processed() as usize >= executed
    }));
    let control = client.stats().control_bytes();
    let storage_up = cloud.objects().traffic().uploaded_bytes();
    println!(
        "live stack: control {} | storage {} | total {} | overhead {:+.1}%",
        mb(control),
        mb(storage_up),
        mb(control + storage_up),
        ((control + storage_up) as f64 / benchmark_bytes as f64 - 1.0) * 100.0
    );
    println!(
        "chunks uploaded {} | deduplicated {} | conflicts {}",
        client.stats().chunks_uploaded(),
        client.stats().chunks_deduplicated(),
        client.stats().conflicts()
    );
}
