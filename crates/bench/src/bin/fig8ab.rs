//! Fig. 8(a)/(b): ObjectMQ auto-scaling over the day-8 UB1 workload with
//! both predictive and reactive provisioning — workload + instance count
//! (a) and response times against the 450 ms SLA (b). Table 3 parameters.
//!
//! `--policy predictive|reactive|both` runs the ablation variants.

use bench::{arg_value, bar, header};
use elastic::{run_day8, Day8Config};
use objectmq::provision::ScalingPolicy;

fn main() {
    let policy: ScalingPolicy = arg_value("--policy")
        .map(|s| s.parse().expect("bad --policy"))
        .unwrap_or(ScalingPolicy::Both);
    let duration: usize = arg_value("--minutes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(24 * 60);

    header("Table 3 parameters");
    println!("d (SLA)        450 ms");
    println!("s (service)     50 ms");
    println!("sigma_b        200 ms");
    println!("tau_1 / tau_2    20%");
    println!("predictive every 15 min, reactive every 5 min");

    header(&format!(
        "Fig 8(a)/(b): day-8 auto-scaling, policy = {policy:?}"
    ));
    let config = Day8Config {
        policy,
        duration_minutes: duration,
        ..Day8Config::default()
    };
    let summary = run_day8(&config).unwrap_or_else(|e| {
        eprintln!("fig8ab: {e}");
        std::process::exit(2)
    });

    // Optional per-minute CSV for plotting (--csv <path>).
    if let Some(path) = arg_value("--csv") {
        let mut csv =
            String::from("minute,arrivals,instances,predicted,mean_rt_ms,p95_rt_ms,max_rt_ms\n");
        for p in &summary.points {
            csv.push_str(&format!(
                "{},{},{},{:.1},{:.2},{:.2},{:.2}\n",
                p.minute,
                p.arrivals,
                p.instances,
                p.predicted,
                p.mean_rt * 1e3,
                p.p95_rt * 1e3,
                p.max_rt * 1e3
            ));
        }
        std::fs::write(&path, csv).expect("write csv");
        println!("(per-minute series written to {path})");
    }

    println!(
        "\n{:>6} {:>10} {:>6} {:>10} {:>10}  workload/instances",
        "minute", "req/min", "inst", "mean ms", "p95 ms"
    );
    let max_arrivals = summary.points.iter().map(|p| p.arrivals).max().unwrap_or(1) as f64;
    for p in summary.points.iter().step_by(30) {
        println!(
            "{:>6} {:>10} {:>6} {:>10.1} {:>10.1}  |{}|",
            p.minute,
            p.arrivals,
            p.instances,
            p.mean_rt * 1e3,
            p.p95_rt * 1e3,
            bar(p.arrivals as f64, max_arrivals, 34)
        );
    }
    println!(
        "\ncompleted {} requests | peak instances {} | peak workload {:.0} req/min",
        summary.completed, summary.peak_instances, max_arrivals
    );
    println!(
        "SLA (450 ms) violations: {:.2}% of requests (paper: none visible)",
        summary.sla_violation_fraction * 100.0
    );
    println!(
        "response time overall: median {:.0} ms | mean {:.0} ms | max {:.0} ms",
        summary.overall.median * 1e3,
        summary.overall.mean * 1e3,
        summary.overall.max * 1e3
    );
    println!(
        "capacity: {} instance-min elastic vs {} static-peak  (savings {:.1}%)",
        summary.instance_minutes,
        summary.static_peak_instance_minutes(),
        summary.elasticity_savings() * 100.0
    );
    println!("\npaper shape: instance count mimics the diurnal workload curve;");
    println!("no sustained SLA violations; spikes only around scale events.");
    bench::obs_dump();
}
