//! Elastic day: replay a synthesized Ubuntu One day against the simulated
//! SyncService pool with the paper's predictive + reactive provisioning,
//! and watch the pool breathe with the diurnal workload (paper §5.3).
//!
//! ```sh
//! cargo run --release -p stacksync-examples --bin elastic_day
//! ```

use elastic::{run_day8, Day8Config};
use objectmq::provision::ScalingPolicy;

fn main() {
    println!("training the predictive provisioner on a week of UB1 history,");
    println!("then replaying day 8 with predictive + reactive auto-scaling…\n");

    let summary = run_day8(&Day8Config {
        policy: ScalingPolicy::Both,
        ..Day8Config::default()
    })
    .expect("the whole day is a valid window");

    println!("hour  req/min  pool  p95(ms)   workload");
    let max = summary.points.iter().map(|p| p.arrivals).max().unwrap_or(1) as f64;
    for p in summary.points.iter().step_by(60) {
        let bars = ((p.arrivals as f64 / max) * 32.0) as usize;
        println!(
            "{:>4}  {:>7}  {:>4}  {:>7.0}   {}",
            p.minute / 60,
            p.arrivals,
            p.instances,
            p.p95_rt * 1e3,
            "█".repeat(bars)
        );
    }

    println!(
        "\n{} commit requests served | pool peaked at {} instances",
        summary.completed, summary.peak_instances
    );
    println!(
        "450 ms SLA held for {:.2}% of requests (median rt {:.0} ms)",
        (1.0 - summary.sla_violation_fraction) * 100.0,
        summary.overall.median * 1e3
    );
    println!("\nthe pool tracked the workload: that is programmatic elasticity —");
    println!("no CPU/RAM heuristics, only queue arrival rates and the G/G/1 bound.");
}
