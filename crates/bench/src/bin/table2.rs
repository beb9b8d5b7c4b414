//! Table 2: effect of file bundling — control/storage/total traffic for
//! Dropbox at batch sizes 5, 10, 20, 40, beside StackSync measured on the
//! real in-process stack ([`bench::LiveStackSync`]) one change at a time.
//! StackSync's bundled rows need a replay that commits fixed batches, which
//! the client does not offer, so none is printed.

use baselines::{run_trace, DropboxModel, ProviderReport};
use bench::{header, mb, LiveStackSync};
use workload::{GeneratorConfig, Trace};

fn row(service: &str, batch: usize, report: &ProviderReport) {
    println!(
        "{service:<10} {batch:>6} {:>12} {:>12} {:>12}",
        mb(report.control_total()),
        mb(report.storage_total()),
        mb(report.total())
    );
}

fn main() {
    let trace = Trace::generate(&GeneratorConfig::default());
    header("Table 2: effect of file bundling");
    println!(
        "{:<10} {:>6} {:>12} {:>12} {:>12}",
        "service", "batch", "control", "storage", "total"
    );

    for batch in [5usize, 10, 20, 40] {
        let report = run_trace(&mut DropboxModel::new(), &trace, batch);
        row("Dropbox", batch, &report);
    }
    println!();
    let report = run_trace(&mut LiveStackSync::new(), &trace, 1);
    row("StackSync", 1, &report);
    println!("StackSync at batch 5/10/20/40: not measured (needs a fixed-batch replay)");

    println!("\npaper values for reference:");
    println!("  Dropbox   batch 5/10/20/40: control 8.30/5.13/3.28/2.23 MB, storage ≈633-638 MB");
    println!("  StackSync batch 5/10/20/40: control 2.14/1.58/1.37/1.25 MB, storage ≈568-570 MB");
    println!("shape: control shrinks with batch size; storage is batch-invariant;");
    println!("StackSync one change at a time stays under Dropbox at every batch size.");
    bench::obs_dump();
}
