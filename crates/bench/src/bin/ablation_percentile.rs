//! Ablation: the prediction percentile. The paper estimates each slot's
//! peak workload "as a high percentile of the arrival distribution"
//! without fixing the value; this sweep quantifies the trade-off between
//! SLA violations (percentile too low → under-provisioning) and capacity
//! cost (too high → over-provisioning).

use bench::header;
use elastic::{run_day8, Day8Config};
use objectmq::provision::ScalingPolicy;

fn main() {
    header("Ablation: predictive percentile vs SLA violations and capacity");
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>10}",
        "percentile", "violations", "instance-min", "static-peak", "savings"
    );
    for percentile in [0.05, 0.25, 0.50, 0.80, 0.95] {
        // Predictive-only: otherwise the 5-minute reactive corrector
        // masks the percentile choice entirely (which is itself a finding
        // — see fig8cde).
        let summary = run_day8(&Day8Config {
            percentile,
            policy: ScalingPolicy::Predictive,
            duration_minutes: 12 * 60, // trough→peak half day
            start_minute: 4 * 60,
            ..Day8Config::default()
        })
        .expect("the half day fits the day");
        println!(
            "{:>10.2} {:>11.2}% {:>14} {:>14} {:>9.1}%",
            percentile,
            summary.sla_violation_fraction * 100.0,
            summary.instance_minutes,
            summary.static_peak_instance_minutes(),
            summary.elasticity_savings() * 100.0
        );
    }
    println!("\nreading: very low percentiles track the *weekend* floor of the");
    println!("history and under-provision weekdays; from the median upward the");
    println!("eta ceiling absorbs the remaining spread, so a \"high percentile\"");
    println!("(paper's choice; we default to 0.95) costs only a few percent of");
    println!("capacity over the median while never under-providing — and the");
    println!("residual violations come from flash bursts, which are exactly what");
    println!("the reactive corrector exists for.");
    bench::obs_dump();
}
