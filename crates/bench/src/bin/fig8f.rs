//! Fig. 8(f): fault tolerance of ObjectMQ auto-scaling — a single
//! SyncService instance is crashed every 30 seconds for the first 10
//! minutes of day 8; queued redelivery plus the Supervisor's 1-second
//! liveness check keep every request alive. Boxplots of response times for
//! requests arriving while the instance was up vs down.

use bench::header;
use elastic::experiment::{run_fault_tolerance, CRASH_PERIOD, DOWNTIME, FAULT_MINUTES};
use elastic::BoxplotStats;

fn main() {
    header("Fig 8(f): response times under a 30-second crash loop");
    println!(
        "window: first {FAULT_MINUTES} min of day 8 | crash every {CRASH_PERIOD:.0} s | outage {DOWNTIME:.1} s"
    );
    let summary = run_fault_tolerance();

    println!(
        "\noffered {} requests, completed {} (loss = {})",
        summary.offered,
        summary.completed,
        summary.offered - summary.completed
    );
    print_box("instance up", &summary.while_up);
    print_box("instance down", &summary.while_down);
    println!("\npaper shape: response time increases notably during failures but");
    println!("stays bounded (paper: no delays beyond ≈1 s) — queued messages are");
    println!("redelivered, nothing is lost.");
    bench::obs_dump();
}

fn print_box(label: &str, b: &BoxplotStats) {
    println!(
        "{label:<14} n={:<6} min {:7.1} ms | q1 {:7.1} | median {:7.1} | q3 {:7.1} | max {:8.1} | mean {:7.1}",
        b.count,
        b.min * 1e3,
        b.q1 * 1e3,
        b.median * 1e3,
        b.q3 * 1e3,
        b.max * 1e3,
        b.mean * 1e3
    );
}
