//! Drivers for the paper's auto-scaling experiments (Fig. 8).
//!
//! The simulated day is the live replay ([`crate::live`]) at compression
//! 1.0: both drivers cut their window out of the same
//! [`workload::ArrivalSchedule`] with [`day_window`], draw their arrivals
//! from [`workload::poisson_arrivals`], and run the policy that
//! [`autoscaler`] trains. The time-compression factor is the only parameter
//! between the two.

use crate::sim::{Completion, PoolSim, PoolSimConfig, ServiceTimeDist};
use crate::stats::BoxplotStats;
use objectmq::provision::{
    AutoScaler, Decision, GgOneModel, PredictiveProvisioner, Provisioner, ReactiveProvisioner,
    ScalingPolicy, PREDICTIVE_PERIOD,
};
use workload::ub1::MINUTES_PER_DAY;
use workload::{poisson_arrivals, ArrivalSchedule, Ub1Config, Ub1Trace};

/// The trace day both Fig. 8 drivers replay (index 7: the paper's day 8).
pub const DAY: usize = 7;
/// Days `0..TRAIN_DAYS` are the predictive provisioner's history.
pub const TRAIN_DAYS: usize = 7;
/// Width of a predictor slot in trace minutes: the predictive period.
pub const SLOT_MINUTES: usize = (PREDICTIVE_PERIOD.as_secs() / 60) as usize;
/// Percentile of a slot's history that the predictor provisions for.
pub const PERCENTILE: f64 = 0.95;
/// Response-time SLA `d` of the simulated day, seconds (paper: 450 ms).
pub const SLA: f64 = 0.450;

/// Fig. 8(f) window: the first minutes of day 8.
pub const FAULT_MINUTES: usize = 10;
/// Fig. 8(f) crash period, seconds (paper: every 30 seconds).
pub const CRASH_PERIOD: f64 = 30.0;
/// Fig. 8(f) outage per crash, seconds: supervisor detection (≤1 s) plus
/// respawn.
pub const DOWNTIME: f64 = 1.5;
/// Fig. 8(f) arrival-rate cap, so that one instance suffices (the paper
/// chose a window that "requires a single instance").
const FAULT_MAX_RATE_PER_MIN: f64 = 300.0;
/// Fig. 8(f) simulation seed.
const FAULT_SEED: u64 = 86;

/// Configuration of a day-8 auto-scaling run (Fig. 8(a)–(e)).
#[derive(Debug, Clone)]
pub struct Day8Config {
    /// The UB1 synthesizer parameters.
    pub ub1: Ub1Config,
    /// Which provisioning policies run (the ablation knob).
    pub policy: ScalingPolicy,
    /// Percentile of the history used as the slot prediction.
    pub percentile: f64,
    /// Fig. 8(c)–(e): shift (hours) applied to the slot the predictive
    /// provisioner *thinks* it is provisioning for. `None` = accurate.
    pub mispredict_shift_hours: Option<f64>,
    /// First minute of day 8 to simulate.
    pub start_minute: usize,
    /// How many minutes of day 8 to simulate.
    pub duration_minutes: usize,
    /// Simulation seed (arrival sampling, service times).
    pub seed: u64,
}

impl Default for Day8Config {
    fn default() -> Self {
        Day8Config {
            ub1: Ub1Config::default(),
            policy: ScalingPolicy::Both,
            percentile: PERCENTILE,
            mispredict_shift_hours: None,
            start_minute: 0,
            duration_minutes: MINUTES_PER_DAY,
            seed: 8,
        }
    }
}

/// The replay window of both Fig. 8 drivers: `minutes` trace minutes of
/// day 8 from `start_minute`, replayed `compression` times faster than
/// real time.
///
/// # Errors
///
/// Fails if the window is empty or runs past the end of the day.
pub fn day_window(
    trace: &Ub1Trace,
    start_minute: usize,
    minutes: usize,
    compression: f64,
) -> Result<ArrivalSchedule<'_>, String> {
    if minutes == 0 || start_minute + minutes > MINUTES_PER_DAY {
        return Err(format!(
            "a window of {minutes} minutes from minute {start_minute} must fit in \
             day 8's {MINUTES_PER_DAY} minutes"
        ));
    }
    Ok(trace
        .schedule()
        .day(DAY)
        .window(start_minute, minutes)
        .compress(compression))
}

/// The policy of both Fig. 8 drivers. Trains the predictive provisioner on
/// the per-slot rates of days `0..TRAIN_DAYS`, compressed like `window`, so
/// predictions are in the rate unit the driver observes. The returned
/// scaler runs at the window's compression and starts its slot clock at
/// the window's start, moved by `shift_secs` (the Fig. 8(c)–(e)
/// misprediction).
pub fn autoscaler(
    trace: &Ub1Trace,
    window: &ArrivalSchedule<'_>,
    model: GgOneModel,
    policy: ScalingPolicy,
    percentile: f64,
    shift_secs: f64,
) -> AutoScaler {
    let compression = window.compression();
    let mut predictive = PredictiveProvisioner::new(model.clone(), PREDICTIVE_PERIOD, percentile);
    for day in 0..TRAIN_DAYS {
        let history = trace
            .schedule()
            .day(day)
            .slots_of(SLOT_MINUTES)
            .compress(compression);
        for slot in history.iter() {
            predictive.observe(slot.index, slot.rate);
        }
    }
    let offset_secs = window.start_minute() as f64 * 60.0 + shift_secs;
    AutoScaler::new(
        predictive,
        ReactiveProvisioner::paper_defaults(model),
        policy,
    )
    .with_compression(compression, offset_secs)
}

/// Per-minute series point (the x-axis of every Fig. 8 panel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinutePoint {
    /// Minute index within the experiment.
    pub minute: usize,
    /// Offered arrivals in this minute (requests).
    pub arrivals: u64,
    /// Pool size at the end of the minute.
    pub instances: usize,
    /// Rate the predictor believed for this minute (req/min), if any.
    pub predicted: f64,
    /// Mean response time of requests arriving this minute, seconds.
    pub mean_rt: f64,
    /// 95th-percentile response time, seconds.
    pub p95_rt: f64,
    /// Max response time, seconds.
    pub max_rt: f64,
}

/// Aggregate result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimSummary {
    /// Per-minute series.
    pub points: Vec<MinutePoint>,
    /// Completed requests.
    pub completed: usize,
    /// The SLA used, seconds.
    pub sla: f64,
    /// Fraction of completions violating the SLA.
    pub sla_violation_fraction: f64,
    /// Response-time summary over all completions.
    pub overall: BoxplotStats,
    /// Peak pool size reached.
    pub peak_instances: usize,
    /// Capacity actually provisioned, in instance-minutes.
    pub instance_minutes: u64,
}

impl SimSummary {
    /// Instance-minutes a static deployment provisioned for the observed
    /// peak would have consumed.
    pub fn static_peak_instance_minutes(&self) -> u64 {
        (self.peak_instances * self.points.len()) as u64
    }

    /// Fraction of capacity saved versus static peak provisioning — the
    /// economic argument of the paper's introduction ("provisioning for
    /// the peak demand will result in excess of resources during off-peak
    /// phases").
    pub fn elasticity_savings(&self) -> f64 {
        let static_cost = self.static_peak_instance_minutes();
        if static_cost == 0 {
            return 0.0;
        }
        1.0 - self.instance_minutes as f64 / static_cost as f64
    }
}

struct MinuteAgg {
    arrivals: u64,
    rts: Vec<f64>,
    instances: usize,
    predicted: f64,
}

/// Runs the Fig. 8(a)/(b) experiment (or the 8(c)–(e) variant when
/// `mispredict_shift_hours` is set): trains the predictive provisioner on
/// a week of synthesized UB1 history, then replays (a window of) day 8
/// under the configured policies.
///
/// # Errors
///
/// Fails if the window does not fit in the day (see [`day_window`]).
pub fn run_day8(config: &Day8Config) -> Result<SimSummary, String> {
    replay_day8(config, |_, _| {})
}

/// [`run_day8`], handing every decision that sets the pool target to
/// `on_target`, with the minute of the control tick that made it (0 for
/// the initial pool).
fn replay_day8(
    config: &Day8Config,
    mut on_target: impl FnMut(usize, &Decision),
) -> Result<SimSummary, String> {
    let trace = Ub1Trace::synthesize(&config.ub1, DAY + 1);
    let window = day_window(&trace, config.start_minute, config.duration_minutes, 1.0)?;
    let service = ServiceTimeDist::paper();
    let model = GgOneModel {
        target_response: SLA,
        mean_service: service.mean,
        var_interarrival: service.variance(),
        var_service: service.variance(),
    };
    let shift_secs = config.mispredict_shift_hours.unwrap_or(0.0) * 3600.0;
    let mut scaler = autoscaler(
        &trace,
        &window,
        model,
        config.policy,
        config.percentile,
        shift_secs,
    );

    let arrivals = window.poisson_arrivals(config.seed);
    let minutes = window.minutes();
    let end_time = minutes as f64 * 60.0;

    // Initial pool: what the predictor wants for the starting slot (with
    // the misprediction shift applied, the wrong slot).
    let primed = scaler.prime();
    on_target(0, &primed);
    let initial = primed.target;
    let mut last_predicted = primed.predicted_rate.unwrap_or(0.0);

    // Per-minute aggregation.
    let mut aggs: Vec<MinuteAgg> = (0..minutes)
        .map(|_| MinuteAgg {
            arrivals: 0,
            rts: Vec::new(),
            instances: initial,
            predicted: last_predicted * 60.0,
        })
        .collect();
    for &a in &arrivals {
        let m = ((a / 60.0) as usize).min(minutes - 1);
        aggs[m].arrivals += 1;
    }

    let mut sim = PoolSim::new(PoolSimConfig {
        service,
        spawn_delay: 1.0,
        seed: config.seed ^ 0xA5A5,
    });
    let mut completions: Vec<Completion> = Vec::with_capacity(arrivals.len());

    // The whole dual-timescale wiring — σ²_a refresh with η² scaling,
    // predictive slot provisioning, reactive correction — lives behind
    // `Provisioner::propose`; this loop only ferries observations in and
    // decisions out, exactly like the live `ElasticController`.
    let provisioner: &mut dyn Provisioner = &mut scaler;
    sim.run(
        &arrivals,
        end_time,
        initial,
        60.0, // bookkeeping tick every simulated minute
        |ctx| {
            let observation = ctx.observation();
            let now = ctx.now();
            if let Some(decision) = provisioner.propose(&observation) {
                if decision.reset_variance_window {
                    ctx.reset_interarrival_stats();
                }
                if decision.changed {
                    ctx.set_target(decision.target);
                    on_target((now / 60.0) as usize, &decision);
                }
                if let Some(rate) = decision.predicted_rate {
                    last_predicted = rate;
                }
            }
            // Record the pool size and live prediction for this minute.
            let minute = ((now / 60.0) as usize).saturating_sub(1).min(minutes - 1);
            aggs[minute].instances = ctx.live().max(ctx.target());
            aggs[minute].predicted = last_predicted * 60.0;
        },
        &[],
        |c| completions.push(c),
    );

    Ok(summarize(SLA, aggs, completions))
}

/// Result of the fault-tolerance experiment: response-time distributions
/// with the instance up vs down (the two boxplots of Fig. 8(f)).
#[derive(Debug, Clone)]
pub struct FaultSummary {
    /// Requests arriving while the instance was running.
    pub while_up: BoxplotStats,
    /// Requests arriving during an outage window.
    pub while_down: BoxplotStats,
    /// Total completions (nothing may be lost).
    pub completed: usize,
    /// Offered requests.
    pub offered: usize,
}

/// Runs the Fig. 8(f) experiment: a single SyncService instance crashing
/// every [`CRASH_PERIOD`] seconds while serving the (rate-capped) first
/// [`FAULT_MINUTES`] of day 8; the supervisor restores it after
/// [`DOWNTIME`].
pub fn run_fault_tolerance() -> FaultSummary {
    let trace = Ub1Trace::synthesize(&Ub1Config::default(), DAY + 1);
    let window = trace.schedule().day(DAY).window(0, FAULT_MINUTES);
    // Cap the rate so a single instance suffices, as in the paper's chosen
    // window.
    let peak = window.peak_per_minute();
    let scale = if peak > FAULT_MAX_RATE_PER_MIN {
        FAULT_MAX_RATE_PER_MIN / peak
    } else {
        1.0
    };
    let rates = window.per_minute().iter().map(|r| r * scale);
    let arrivals = poisson_arrivals(rates, 1.0, FAULT_SEED);
    let end_time = FAULT_MINUTES as f64 * 60.0 + 120.0;

    // Crash schedule: every CRASH_PERIOD seconds.
    let mut crashes = Vec::new();
    let mut t = CRASH_PERIOD;
    while t < FAULT_MINUTES as f64 * 60.0 {
        crashes.push((t, t + DOWNTIME));
        t += CRASH_PERIOD;
    }

    let mut sim = PoolSim::new(PoolSimConfig {
        service: ServiceTimeDist::paper(),
        spawn_delay: 0.5,
        seed: FAULT_SEED ^ 0x5A5A,
    });
    let mut completions = Vec::new();
    sim.run(
        &arrivals,
        end_time,
        1,
        0.0,
        |_| {},
        &crashes,
        |c| completions.push(c),
    );

    let in_outage = |t: f64| {
        crashes
            .iter()
            .any(|&(down, up)| (down..up + DOWNTIME).contains(&t))
    };
    type ArrivalResponse = Vec<(f64, f64)>;
    let (down_pairs, up_pairs): (ArrivalResponse, ArrivalResponse) = completions
        .iter()
        .map(|c| (c.arrival, c.response_time()))
        .partition(|(a, _)| in_outage(*a));
    let down: Vec<f64> = down_pairs.into_iter().map(|(_, rt)| rt).collect();
    let up: Vec<f64> = up_pairs.into_iter().map(|(_, rt)| rt).collect();

    FaultSummary {
        while_up: BoxplotStats::of(&up),
        while_down: BoxplotStats::of(&down),
        completed: completions.len(),
        offered: arrivals.len(),
    }
}

fn summarize(sla: f64, aggs: Vec<MinuteAgg>, completions: Vec<Completion>) -> SimSummary {
    let mut aggs = aggs;
    for c in &completions {
        let m = ((c.arrival / 60.0) as usize).min(aggs.len() - 1);
        aggs[m].rts.push(c.response_time());
    }
    let points: Vec<MinutePoint> = aggs
        .iter()
        .enumerate()
        .map(|(minute, agg)| {
            let b = BoxplotStats::of(&agg.rts);
            MinutePoint {
                minute,
                arrivals: agg.arrivals,
                instances: agg.instances,
                predicted: agg.predicted,
                mean_rt: b.mean,
                p95_rt: crate::stats::percentile(&agg.rts, 0.95),
                max_rt: b.max,
            }
        })
        .collect();
    let rts: Vec<f64> = completions.iter().map(|c| c.response_time()).collect();
    let violations = rts.iter().filter(|&&rt| rt > sla).count();
    SimSummary {
        completed: completions.len(),
        sla,
        sla_violation_fraction: if rts.is_empty() {
            0.0
        } else {
            violations as f64 / rts.len() as f64
        },
        overall: BoxplotStats::of(&rts),
        peak_instances: points.iter().map(|p| p.instances).max().unwrap_or(0),
        instance_minutes: points.iter().map(|p| p.instances as u64).sum(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, downscaled day-8 configuration for tests.
    fn quick_config() -> Day8Config {
        Day8Config {
            ub1: Ub1Config {
                peak_per_min: 1200.0,
                ..Ub1Config::default()
            },
            start_minute: 10 * 60, // mid-morning ramp
            duration_minutes: 90,
            ..Day8Config::default()
        }
    }

    #[test]
    fn elasticity_saves_capacity_vs_static_peak() {
        // Run a window spanning trough and ramp so the saving is visible.
        let summary = run_day8(&Day8Config {
            start_minute: 3 * 60,
            duration_minutes: 9 * 60,
            ..Day8Config::default()
        })
        .unwrap();
        assert!(summary.instance_minutes > 0);
        assert!(
            summary.elasticity_savings() > 0.15,
            "elastic provisioning must beat static peak by >15%, got {:.3}",
            summary.elasticity_savings()
        );
    }

    #[test]
    fn autoscaling_meets_the_sla() {
        let summary = run_day8(&quick_config()).unwrap();
        assert!(summary.completed > 10_000, "workload must be substantial");
        assert!(
            summary.sla_violation_fraction < 0.05,
            "with accurate prediction ≥95% of requests must meet the 450 ms \
             SLA, violations: {:.3}",
            summary.sla_violation_fraction
        );
        assert!(summary.peak_instances > 1, "the pool must actually scale");
    }

    #[test]
    fn instances_track_the_workload_shape() {
        // Fig. 8(a): pool size must rise with the morning ramp. Use the
        // 06:00→12:00 climb at a higher peak so the required η crosses
        // several integer boundaries.
        let summary = run_day8(&Day8Config {
            ub1: Ub1Config {
                peak_per_min: 3000.0,
                ..Ub1Config::default()
            },
            start_minute: 6 * 60,
            duration_minutes: 6 * 60,
            ..Day8Config::default()
        })
        .unwrap();
        let first = summary.points[10].instances;
        let last = summary.points[summary.points.len() - 10].instances;
        assert!(
            last > first,
            "instances must grow with the ramp: {first} -> {last}"
        );
    }

    #[test]
    fn misprediction_hurts_until_reactive_corrects() {
        // Fig. 8(c)-(e): with the predictor fooled (quiet-hour pattern for
        // a busy hour), early response times degrade; the reactive policy
        // then corrects and the tail of the run is healthy again.
        let accurate = run_day8(&quick_config()).unwrap();
        let fooled = run_day8(&Day8Config {
            // Predict for the middle of the night instead.
            mispredict_shift_hours: Some(16.0),
            ..quick_config()
        })
        .unwrap();
        assert!(
            fooled.sla_violation_fraction > accurate.sla_violation_fraction,
            "misprediction must hurt: {:.4} vs {:.4}",
            fooled.sla_violation_fraction,
            accurate.sla_violation_fraction
        );
        // Late-run health: after the reactive policy had time to act, the
        // per-minute p95 must come back under control.
        let tail_ok = fooled
            .points
            .iter()
            .rev()
            .take(20)
            .all(|p| p.p95_rt < 2.0 * fooled.sla);
        assert!(
            tail_ok,
            "reactive must repair the pool by the end of the run"
        );
    }

    #[test]
    fn predictive_only_cannot_absorb_mispredictions() {
        let fooled_both = run_day8(&Day8Config {
            mispredict_shift_hours: Some(16.0),
            policy: ScalingPolicy::Both,
            ..quick_config()
        })
        .unwrap();
        let fooled_pred_only = run_day8(&Day8Config {
            mispredict_shift_hours: Some(16.0),
            policy: ScalingPolicy::Predictive,
            ..quick_config()
        })
        .unwrap();
        assert!(
            fooled_pred_only.sla_violation_fraction > fooled_both.sla_violation_fraction,
            "without the reactive corrector things must stay bad: {:.4} vs {:.4}",
            fooled_pred_only.sla_violation_fraction,
            fooled_both.sla_violation_fraction
        );
    }

    /// Every pool-target change of the 06:00–12:00 ramp at a 3 000
    /// req/min peak, as (tick minute, target, λ_pred in req/s), recorded
    /// from the policy wiring this crate had before the simulated and the
    /// live day shared one. Minute 0 is the initial pool.
    const GOLDEN_RAMP: &[(usize, usize, f64)] = &[
        (0, 4, 21.124988270637044),
        (105, 5, 32.321186407897535),
        (135, 4, 29.05666666666667),
        (140, 5, 35.43666666666667),
        (225, 6, 42.884464997010724),
        (315, 7, 49.720206471910934),
    ];

    #[test]
    fn ramp_decisions_match_the_golden_vector() {
        let config = Day8Config {
            ub1: Ub1Config {
                peak_per_min: 3000.0,
                ..Ub1Config::default()
            },
            start_minute: 6 * 60,
            duration_minutes: 6 * 60,
            ..Day8Config::default()
        };
        let mut decisions = Vec::new();
        replay_day8(&config, |minute, d| {
            decisions.push((minute, d.target, d.predicted_rate.unwrap_or(0.0)));
        })
        .unwrap();
        let bits = |v: &[(usize, usize, f64)]| {
            v.iter()
                .map(|&(m, t, rate)| (m, t, rate.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&decisions), bits(GOLDEN_RAMP));
    }

    #[test]
    fn a_window_past_the_end_of_the_day_names_the_bound() {
        let err = run_day8(&Day8Config {
            duration_minutes: 2000,
            ..Day8Config::default()
        })
        .unwrap_err();
        assert!(err.contains("1440"), "{err}");
        assert!(run_day8(&Day8Config {
            start_minute: 23 * 60,
            duration_minutes: 61,
            ..Day8Config::default()
        })
        .is_err());
    }

    #[test]
    fn fault_tolerance_loses_nothing_and_stays_subsecond() {
        let summary = run_fault_tolerance();
        assert_eq!(
            summary.completed, summary.offered,
            "queue redelivery must not lose a single request"
        );
        assert!(summary.while_down.count > 0, "some requests hit outages");
        assert!(
            summary.while_down.median > summary.while_up.median,
            "outage requests must be slower"
        );
        // Paper: "it does not introduce delays greater than 1 sec".
        assert!(
            summary.while_down.median < 2.5,
            "outage medians must stay bounded, got {:.3}",
            summary.while_down.median
        );
    }
}
