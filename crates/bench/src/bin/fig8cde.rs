//! Fig. 8(c)/(d)/(e): misprediction of the predictive provisioner — the
//! predictor is fooled into provisioning for a different hour's pattern
//! (the paper: hour 30's pattern when reality is hour 20's); the reactive
//! provisioner corrects it within its 5-minute cadence.

use bench::{arg_value, bar, header};
use elastic::{run_day8, Day8Config};
use objectmq::provision::ScalingPolicy;
use workload::Ub1Config;

fn main() {
    let minutes: usize = arg_value("--minutes")
        .and_then(|s| s.parse().ok())
        .unwrap_or(120);
    // Reality: hour 20 of the day-8 trace; the predictor is fooled with a
    // different hour's pattern (the paper uses hour 30). Our synthesized
    // diurnal profile is symmetric around 13:00, which makes hour 30
    // coincide with hour 20 in expectation — so we fool the predictor with
    // hour 27 (the deep night trough) to reproduce the paper's
    // under-provisioning effect.
    let base = Day8Config {
        start_minute: 20 * 60,
        duration_minutes: minutes,
        mispredict_shift_hours: Some(7.0),
        // A deeper night trough (the paper's trace is quieter at night
        // than our default synthesizer) so the fooled predictor allocates
        // a pool far below the offered load, as in the paper's run.
        ub1: Ub1Config {
            trough_ratio: 0.04,
            ..Ub1Config::default()
        },
        ..Day8Config::default()
    };

    header("Fig 8(c): expected (mispredicted) vs observed arrivals");
    let fooled = run_day8(&base).unwrap_or_else(|e| {
        eprintln!("fig8cde: {e}");
        std::process::exit(2)
    });
    println!(
        "{:>6} {:>12} {:>12} {:>6}",
        "minute", "observed/min", "expected/min", "inst"
    );
    for p in fooled.points.iter().step_by(5) {
        println!(
            "{:>6} {:>12} {:>12.0} {:>6}",
            p.minute, p.arrivals, p.predicted, p.instances
        );
    }

    header("Fig 8(d): instances — reactive corrects the misprediction");
    let max_inst = fooled.points.iter().map(|p| p.instances).max().unwrap_or(1) as f64;
    for p in fooled.points.iter().step_by(5) {
        println!(
            "{:>6} {:>4} {}",
            p.minute,
            p.instances,
            bar(p.instances as f64, max_inst, 30)
        );
    }

    header("Fig 8(e): response times under misprediction");
    println!("{:>6} {:>10} {:>10}", "minute", "mean ms", "p95 ms");
    for p in fooled.points.iter().step_by(5) {
        println!(
            "{:>6} {:>10.1} {:>10.1}",
            p.minute,
            p.mean_rt * 1e3,
            p.p95_rt * 1e3
        );
    }
    println!(
        "\nSLA violations with misprediction + reactive: {:.2}%",
        fooled.sla_violation_fraction * 100.0
    );

    // Ablation: what if only the (fooled) predictive policy ran?
    // Same window as `fooled`, which already ran: these cannot fail.
    let pred_only = run_day8(&Day8Config {
        policy: ScalingPolicy::Predictive,
        ..base.clone()
    })
    .expect("the window fits the day");
    let accurate = run_day8(&Day8Config {
        mispredict_shift_hours: None,
        ..base
    })
    .expect("the window fits the day");
    header("comparison");
    println!(
        "accurate prediction:            {:>6.2}% SLA violations",
        accurate.sla_violation_fraction * 100.0
    );
    println!(
        "fooled + reactive correction:   {:>6.2}% SLA violations",
        fooled.sla_violation_fraction * 100.0
    );
    println!(
        "fooled, predictive only:        {:>6.2}% SLA violations",
        pred_only.sla_violation_fraction * 100.0
    );
    println!("\npaper shape: high response times for the first minutes until the");
    println!("ReactiveProvisioner adds the right number of instances, then a");
    println!("sharp reduction (Fig. 8(e)).");
    bench::obs_dump();
}
