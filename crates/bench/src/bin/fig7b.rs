//! Fig. 7(b): total protocol overhead (storage + control traffic over the
//! benchmark size) for StackSync and the five commercial Personal Clouds,
//! replaying the generated trace one operation at a time.
//!
//! StackSync's row is measured: the trace replayed through the real
//! in-process stack (ObjectMQ + SyncService + chunk store, see
//! [`bench::LiveStackSync`]). The commercial services are protocol models.

use baselines::{run_trace, DropboxModel, FullFileModel, SyncProvider};
use bench::{arg_value, bar, header, mb, LiveStackSync};
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
        Box::new(LiveStackSync::new()),
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
        let report = run_trace(provider.as_mut(), &trace, 1);
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

    bench::obs_dump();
}
