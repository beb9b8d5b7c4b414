//! Programmatic elasticity: the provisioning framework of paper §3.3/§4.3.
//!
//! The paper adopts Urgaonkar et al.'s dual-timescale model: a *predictive*
//! provisioner allocates capacity from the workload history (time-of-day
//! seasonality), and a *reactive* provisioner corrects mispredictions on a
//! minutes timescale. Both are built on a G/G/1 bound for the request rate a
//! single server sustains under a response-time SLA (paper eq. 1 and 2).
//!
//! Everything here is deliberately clock-free: callers pass observation
//! timestamps/slots explicitly, so the same policies drive both the live
//! [`crate::Supervisor`] and the virtual-time simulator in the `elastic`
//! crate.

use std::time::Duration;

/// The predictive provisioner's cadence and slot width (paper: 15 minutes).
pub const PREDICTIVE_PERIOD: Duration = Duration::from_secs(900);
/// The reactive provisioner's cadence (paper: 5 minutes).
pub const REACTIVE_PERIOD: Duration = Duration::from_secs(300);

/// G/G/1 capacity model for one synchronization server (paper eq. 1–2).
///
/// Units are seconds; variances are in seconds². Table 3 of the paper lists
/// `σ_b = 200 msec`, which we interpret as the service-time *standard
/// deviation* (0.2 s ⇒ σ²_b = 0.04 s²).
#[derive(Debug, Clone, PartialEq)]
pub struct GgOneModel {
    /// Response-time SLA `d` (a high percentile target), seconds.
    pub target_response: f64,
    /// Mean service time `s`, seconds.
    pub mean_service: f64,
    /// Variance of request interarrival time `σ²_a`, seconds².
    pub var_interarrival: f64,
    /// Variance of service time `σ²_b`, seconds².
    pub var_service: f64,
}

impl GgOneModel {
    /// The paper's Table 3 parameters: d = 450 ms, s = 50 ms,
    /// σ_b = 200 ms, with σ_a initialized equal to σ_b until measured.
    pub fn paper_defaults() -> Self {
        GgOneModel {
            target_response: 0.450,
            mean_service: 0.050,
            var_interarrival: 0.04,
            var_service: 0.04,
        }
    }

    /// Lower bound on the request rate `δ` (req/s) one server can sustain
    /// while meeting the SLA (eq. 1):
    ///
    /// `δ ≥ [ s + (σ²_a + σ²_b) / (2 (d − s)) ]⁻¹`
    ///
    /// # Panics
    ///
    /// Panics if `target_response <= mean_service` (the SLA is infeasible).
    pub fn capacity_per_server(&self) -> f64 {
        assert!(
            self.target_response > self.mean_service,
            "SLA d must exceed mean service time s"
        );
        let queueing = (self.var_interarrival + self.var_service)
            / (2.0 * (self.target_response - self.mean_service));
        1.0 / (self.mean_service + queueing)
    }

    /// Number of instances `η = ⌈λ/δ⌉` needed for arrival rate `lambda`
    /// (req/s), never below 1 (eq. 2).
    pub fn required_instances(&self, lambda: f64) -> usize {
        let delta = self.capacity_per_server();
        let eta = (lambda / delta).ceil();
        (eta.max(1.0)) as usize
    }
}

/// One observation of whatever is driving the pool — the shared input type
/// of every [`Provisioner`], deliberately source-agnostic so the simulated
/// `ControlCtx` counters, the live broker queue statistics, and tests all
/// produce the same shape.
///
/// Counters are cumulative; rate-style policies derive windows from deltas
/// between successive observations (or use `arrival_rate` when the source
/// already maintains a windowed estimator).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Offset from experiment/controller start. For sources replaying a
    /// trace under time compression this is *wall* time; slot mapping back
    /// to trace time is the policy's job (see
    /// [`AutoScaler::with_compression`]).
    pub now: Duration,
    /// Total requests ever observed arriving (monotonic).
    pub total_arrivals: u64,
    /// Arrival rate (req/s) from a windowed estimator, when the source has
    /// one (the live broker does); `None` makes policies derive rates from
    /// `total_arrivals` deltas (the simulator path).
    pub arrival_rate: Option<f64>,
    /// Requests queued and not yet dispatched.
    pub queue_depth: usize,
    /// Server instances currently alive.
    pub live: usize,
    /// Target pool size currently being enforced.
    pub target: usize,
    /// Sample variance of request interarrival times (seconds²) measured on
    /// the *aggregate* arrival stream since the last window reset, if the
    /// source measures it and has ≥ 2 samples.
    pub interarrival_variance: Option<f64>,
}

impl Observation {
    /// A zeroed observation at `now` — convenience for tests and for
    /// sources that only track a subset of the fields.
    pub fn at(now: Duration) -> Self {
        Observation {
            now,
            total_arrivals: 0,
            arrival_rate: None,
            queue_depth: 0,
            live: 0,
            target: 0,
            interarrival_variance: None,
        }
    }
}

/// What a [`Provisioner`] decided on one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The pool size the policy wants enforced from now on.
    pub target: usize,
    /// Whether `target` differs from the observation's current target —
    /// callers only need to push the decision downstream when this is set.
    pub changed: bool,
    /// Which sub-policy produced the decision (for logs/metrics).
    pub policy: &'static str,
    /// The predicted arrival rate `λ_pred` (req/s) in effect after this
    /// decision, if the policy keeps one.
    pub predicted_rate: Option<f64>,
    /// Set when the policy consumed the interarrival-variance measurement;
    /// the observation source should reset its variance window so the next
    /// measurement covers a fresh interval.
    pub reset_variance_window: bool,
}

/// The extensible hook of the provisioning framework (paper Fig. 3): a
/// policy proposes how many server objects are needed; the Supervisor
/// enforces the proposal.
///
/// This single trait drives every control loop in the tree — the
/// virtual-time `PoolSim` in `crates/elastic`, `ElasticController` over a
/// live broker, and the live UB1 replay harness — so policy behaviour is
/// byte-identical across simulation and production paths.
pub trait Provisioner: Send {
    /// Consumes one observation; returns a [`Decision`] when the policy has
    /// an opinion this tick (the decision may still be `changed: false`),
    /// or `None` when it has nothing to say (e.g. between cadence periods).
    fn propose(&mut self, obs: &Observation) -> Option<Decision>;

    /// Policy name for logs.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Workload predictor: keeps, for each period-of-day slot, the history of
/// arrival rates seen in that slot over past days, and predicts a high
/// percentile of that distribution (paper §4.3.1).
#[derive(Debug, Clone)]
pub struct PredictiveProvisioner {
    model: GgOneModel,
    /// History per slot: `history[slot]` are the rates (req/s) observed in
    /// that slot on previous days.
    history: Vec<Vec<f64>>,
    slot_len: Duration,
    percentile: f64,
    /// The most recent prediction, exposed so the reactive policy can
    /// compare against it.
    last_prediction: Option<f64>,
    last_slot: Option<usize>,
}

impl PredictiveProvisioner {
    /// Creates a predictor with `slot_len` periods (paper: 15 minutes) and
    /// the given percentile in `(0, 1]` (we default to 0.95 elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `slot_len` is zero, does not divide a day, or the
    /// percentile is out of `(0, 1]`.
    pub fn new(model: GgOneModel, slot_len: Duration, percentile: f64) -> Self {
        assert!(!slot_len.is_zero(), "slot length must be positive");
        let secs = slot_len.as_secs();
        assert!(secs > 0 && 86_400 % secs == 0, "slot must divide a day");
        assert!(
            percentile > 0.0 && percentile <= 1.0,
            "percentile must be in (0, 1]"
        );
        let slots = (86_400 / secs) as usize;
        PredictiveProvisioner {
            model,
            history: vec![Vec::new(); slots],
            slot_len,
            percentile,
            last_prediction: None,
            last_slot: None,
        }
    }

    /// Number of slots in a day.
    pub fn slots_per_day(&self) -> usize {
        self.history.len()
    }

    /// Maps a time-of-experiment offset to its slot index.
    pub fn slot_of(&self, time: Duration) -> usize {
        ((time.as_secs() % 86_400) / self.slot_len.as_secs()) as usize
    }

    /// Feeds one historical observation: the arrival rate (req/s) seen
    /// during `slot` on some past day.
    pub fn observe(&mut self, slot: usize, rate: f64) {
        let slots = self.slots_per_day();
        self.history[slot % slots].push(rate);
    }

    /// Predicted peak rate (req/s) for `slot`: a high percentile of the
    /// slot's history. Returns `None` with no history.
    pub fn predict(&self, slot: usize) -> Option<f64> {
        let h = &self.history[slot % self.slots_per_day()];
        if h.is_empty() {
            return None;
        }
        let mut sorted = h.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let idx =
            ((self.percentile * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        Some(sorted[idx])
    }

    /// Runs the predictive step for `slot`: predicts the peak rate and maps
    /// it to an instance count. Records the prediction for the reactive
    /// policy. Returns `None` when there is no history for the slot.
    pub fn provision_for_slot(&mut self, slot: usize) -> Option<usize> {
        let rate = self.predict(slot)?;
        self.last_prediction = Some(rate);
        self.last_slot = Some(slot);
        Some(self.model.required_instances(rate))
    }

    /// The most recent prediction (λ_pred), if any.
    pub fn last_prediction(&self) -> Option<f64> {
        self.last_prediction
    }
}

impl Provisioner for PredictiveProvisioner {
    fn propose(&mut self, obs: &Observation) -> Option<Decision> {
        let slot = self.slot_of(obs.now);
        let target = self.provision_for_slot(slot)?;
        Some(Decision {
            target,
            changed: target != obs.target,
            policy: "predictive",
            predicted_rate: self.last_prediction,
            reset_variance_window: false,
        })
    }

    fn name(&self) -> &'static str {
        "predictive"
    }
}

/// Reactive corrector (paper §4.3.2): compares the observed arrival rate
/// against the prediction and recomputes the pool size when they diverge by
/// more than the configured thresholds.
#[derive(Debug, Clone)]
pub struct ReactiveProvisioner {
    model: GgOneModel,
    /// Upward divergence threshold τ₁ (0.2 = react when observed exceeds
    /// predicted by >20%).
    pub tau_increase: f64,
    /// Downward divergence threshold τ₂.
    pub tau_decrease: f64,
}

impl ReactiveProvisioner {
    /// Creates a reactive policy with the paper's τ₁ = τ₂ = 20%.
    pub fn paper_defaults(model: GgOneModel) -> Self {
        ReactiveProvisioner {
            model,
            tau_increase: 0.20,
            tau_decrease: 0.20,
        }
    }

    /// Checks observed vs predicted rate. Returns the corrected instance
    /// count if corrective action is necessary, `None` otherwise.
    ///
    /// With no prediction available the observation alone drives the
    /// correction.
    pub fn check(&self, observed: f64, predicted: Option<f64>) -> Option<usize> {
        match predicted {
            Some(pred) if pred > 0.0 => {
                let ratio = observed / pred;
                if ratio > 1.0 + self.tau_increase || ratio < 1.0 - self.tau_decrease {
                    Some(self.model.required_instances(observed))
                } else {
                    None
                }
            }
            _ => Some(self.model.required_instances(observed)),
        }
    }
}

impl Provisioner for ReactiveProvisioner {
    fn propose(&mut self, obs: &Observation) -> Option<Decision> {
        // Standalone reactive policy: no prediction to compare against, so
        // it acts on the observed rate alone (and stays silent when the
        // source has no windowed estimator).
        let observed = obs.arrival_rate?;
        let target = self.model.required_instances(observed);
        Some(Decision {
            target,
            changed: target != obs.target,
            policy: "reactive",
            predicted_rate: None,
            reset_variance_window: false,
        })
    }

    fn name(&self) -> &'static str {
        "reactive"
    }
}

/// Which policies an [`AutoScaler`] runs — the ablation knob for the
/// Fig. 8 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingPolicy {
    /// Predictive only.
    Predictive,
    /// Reactive only.
    Reactive,
    /// Both, as in the paper's main experiment.
    Both,
}

impl std::str::FromStr for ScalingPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "predictive" => Ok(ScalingPolicy::Predictive),
            "reactive" => Ok(ScalingPolicy::Reactive),
            "both" => Ok(ScalingPolicy::Both),
            other => Err(format!(
                "unknown policy `{other}` (predictive|reactive|both)"
            )),
        }
    }
}

/// Combines the predictive and reactive policies on their two timescales.
///
/// As a [`Provisioner`], the scaler runs its own dual cadence off the
/// observation clock: feed it [`Observation`]s as often as you like (the
/// simulator does so once per simulated minute, the live controller every
/// few tens of milliseconds) and it fires the predictive step every
/// [`PREDICTIVE_PERIOD`] and the reactive step every [`REACTIVE_PERIOD`],
/// both divided by the compression factor, returning a [`Decision`]
/// whenever either cadence elapsed. [`AutoScaler::prime`] sizes the
/// initial pool before the first observation.
#[derive(Debug, Clone)]
pub struct AutoScaler {
    predictive: PredictiveProvisioner,
    reactive: ReactiveProvisioner,
    policy: ScalingPolicy,
    target: usize,
    /// Predictive cadence, seconds of observation time.
    predictive_period: f64,
    /// Reactive cadence, seconds of observation time.
    reactive_period: f64,
    /// Observation timestamp of the last predictive firing.
    last_predictive: f64,
    /// Observation timestamp of the last reactive firing.
    last_reactive: f64,
    /// `total_arrivals` at the last reactive firing.
    last_arrivals: u64,
    /// Observation→trace time mapping for slot lookup: trace seconds per
    /// observation second (compression factor).
    slot_scale: f64,
    /// Trace-time offset (seconds) added after scaling — where in the
    /// trace day the experiment starts.
    slot_offset: f64,
}

impl AutoScaler {
    /// Builds an auto-scaler; `target` starts at 1 instance, cadence at the
    /// paper's 15-minute predictive / 5-minute reactive periods, and slot
    /// mapping at identity.
    pub fn new(
        predictive: PredictiveProvisioner,
        reactive: ReactiveProvisioner,
        policy: ScalingPolicy,
    ) -> Self {
        AutoScaler {
            predictive,
            reactive,
            policy,
            target: 1,
            predictive_period: PREDICTIVE_PERIOD.as_secs_f64(),
            reactive_period: REACTIVE_PERIOD.as_secs_f64(),
            last_predictive: 0.0,
            last_reactive: 0.0,
            last_arrivals: 0,
            slot_scale: 1.0,
            slot_offset: 0.0,
        }
    }

    /// Replays the trace `factor` times faster than real time (trace
    /// seconds per observation second, 1.0 = real time): both cadences
    /// shrink by `factor`, so the policies fire at the same *trace* times,
    /// and slot lookup maps observation time back onto the trace as
    /// `trace_time = now * factor + offset_secs`. `offset_secs` positions
    /// the experiment start within the trace (and is also how the
    /// misprediction experiment shifts the predictor off its slot).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn with_compression(mut self, factor: f64, offset_secs: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "compression must be positive"
        );
        self.predictive_period = PREDICTIVE_PERIOD.as_secs_f64() / factor;
        self.reactive_period = REACTIVE_PERIOD.as_secs_f64() / factor;
        self.slot_scale = factor;
        self.slot_offset = offset_secs;
        self
    }

    /// Maps an observation timestamp to trace time for slot lookup.
    fn trace_time(&self, now: Duration) -> Duration {
        Duration::from_secs_f64((now.as_secs_f64() * self.slot_scale + self.slot_offset).max(0.0))
    }

    /// Sizes the initial pool before the first observation: runs the
    /// predictive step for the slot at observation time zero. The decision
    /// carries the target to start with and the λ_pred it was sized for.
    pub fn prime(&mut self) -> Decision {
        let changed = self.predictive_tick(Duration::ZERO).is_some();
        Decision {
            target: self.target,
            changed,
            policy: "predictive",
            predicted_rate: self.predictive.last_prediction(),
            reset_variance_window: false,
        }
    }

    /// Feeds an online measurement of the interarrival-time variance σ²_a
    /// into both policies' capacity models (the paper updates σ²_a "once
    /// every 15 minutes based on online measurements of the global request
    /// queue").
    fn observe_interarrival_variance(&mut self, variance: f64) {
        self.predictive.model.var_interarrival = variance;
        self.reactive.model.var_interarrival = variance;
    }

    /// Runs the predictive step for the slot containing `now` (offset from
    /// experiment start, mapped through the configured slot mapping).
    /// Returns the new target if it changed.
    fn predictive_tick(&mut self, now: Duration) -> Option<usize> {
        if self.policy == ScalingPolicy::Reactive {
            return None;
        }
        let slot = self.predictive.slot_of(self.trace_time(now));
        let proposed = self.predictive.provision_for_slot(slot)?;
        if proposed != self.target {
            self.target = proposed;
            Some(proposed)
        } else {
            None
        }
    }

    /// Runs the reactive step with the arrival rate observed over the past
    /// reactive period. Returns the new target if corrective action fired.
    fn reactive_tick(&mut self, observed_rate: f64) -> Option<usize> {
        if self.policy == ScalingPolicy::Predictive {
            return None;
        }
        let predicted = self.predictive.last_prediction();
        let proposed = self.reactive.check(observed_rate, predicted)?;
        // After correcting, treat the observation as the working prediction
        // so we do not flap every reactive tick.
        self.predictive.last_prediction = Some(observed_rate);
        if proposed != self.target {
            self.target = proposed;
            Some(proposed)
        } else {
            None
        }
    }
}

impl Provisioner for AutoScaler {
    /// The dual-timescale control step, shared verbatim by the simulated
    /// and live pools. Each cadence that elapsed runs its policy step:
    ///
    /// * predictive (every `predictive_period`): feeds the measured
    ///   aggregate interarrival variance into the capacity models — scaled
    ///   by η² because the queue-side measurement sees the merge of η
    ///   per-server streams — then provisions for the current trace slot;
    /// * reactive (every `reactive_period`): compares the arrival rate
    ///   observed over the elapsed window against λ_pred and corrects.
    ///
    /// Returns a [`Decision`] whenever at least one cadence fired (even
    /// with an unchanged target, so the caller can reset its variance
    /// window), `None` between firings.
    fn propose(&mut self, obs: &Observation) -> Option<Decision> {
        let now = obs.now.as_secs_f64();
        let entry_target = self.target;
        let mut fired = false;
        let mut policy = "hold";
        let mut reset_variance_window = false;

        if now - self.last_predictive >= self.predictive_period - 1e-6 {
            self.last_predictive = now;
            fired = true;
            if let Some(var) = obs.interarrival_variance {
                // The queue-side estimator measures the aggregate stream;
                // splitting arrivals across η servers multiplies the
                // per-server interarrival variance by η².
                let eta = obs.live.max(1) as f64;
                self.observe_interarrival_variance(var * eta * eta);
                reset_variance_window = true;
            }
            if self.predictive_tick(obs.now).is_some() {
                policy = "predictive";
            }
        }

        if now - self.last_reactive >= self.reactive_period - 1e-6 {
            let elapsed = now - self.last_reactive;
            let observed = match obs.arrival_rate {
                Some(rate) => rate,
                None => obs.total_arrivals.saturating_sub(self.last_arrivals) as f64 / elapsed,
            };
            self.last_reactive = now;
            self.last_arrivals = obs.total_arrivals;
            fired = true;
            if self.reactive_tick(observed).is_some() {
                policy = "reactive";
            }
        }

        if !fired {
            return None;
        }
        Some(Decision {
            target: self.target,
            changed: self.target != entry_target,
            policy,
            predicted_rate: self.predictive.last_prediction(),
            reset_variance_window,
        })
    }

    fn name(&self) -> &'static str {
        match self.policy {
            ScalingPolicy::Predictive => "predictive",
            ScalingPolicy::Reactive => "reactive",
            ScalingPolicy::Both => "predictive+reactive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn capacity_formula_matches_hand_computation() {
        let m = GgOneModel::paper_defaults();
        // δ = 1 / (0.05 + (0.04 + 0.04) / (2 · 0.4)) = 1 / 0.15
        assert!(close(m.capacity_per_server(), 1.0 / 0.15));
    }

    #[test]
    fn eta_is_ceiling_of_lambda_over_delta() {
        let m = GgOneModel::paper_defaults();
        let delta = m.capacity_per_server();
        assert_eq!(m.required_instances(0.0), 1, "never below one instance");
        assert_eq!(m.required_instances(delta * 0.5), 1);
        assert_eq!(m.required_instances(delta * 1.01), 2);
        assert_eq!(m.required_instances(delta * 7.2), 8);
    }

    #[test]
    fn paper_peak_requires_a_sane_pool() {
        // Peak demand of the day-8 UB1 trace: 8,514 commits/minute.
        let m = GgOneModel::paper_defaults();
        let eta = m.required_instances(8514.0 / 60.0);
        assert!(
            (10..60).contains(&eta),
            "peak pool should be tens of instances, got {eta}"
        );
    }

    #[test]
    #[should_panic(expected = "SLA")]
    fn infeasible_sla_panics() {
        let m = GgOneModel {
            target_response: 0.01,
            mean_service: 0.05,
            var_interarrival: 0.0,
            var_service: 0.0,
        };
        let _ = m.capacity_per_server();
    }

    #[test]
    fn predictor_returns_high_percentile() {
        let mut p = PredictiveProvisioner::new(
            GgOneModel::paper_defaults(),
            Duration::from_secs(900),
            0.95,
        );
        // 20 observations 1..=20 in slot 3: the 95th percentile is 19.
        for v in 1..=20 {
            p.observe(3, v as f64);
        }
        assert!(close(p.predict(3).unwrap(), 19.0));
        assert_eq!(p.predict(4), None);
    }

    #[test]
    fn predictor_slot_arithmetic() {
        let p = PredictiveProvisioner::new(
            GgOneModel::paper_defaults(),
            Duration::from_secs(900),
            0.95,
        );
        assert_eq!(p.slots_per_day(), 96);
        assert_eq!(p.slot_of(Duration::from_secs(0)), 0);
        assert_eq!(p.slot_of(Duration::from_secs(899)), 0);
        assert_eq!(p.slot_of(Duration::from_secs(900)), 1);
        // Wraps at day boundaries.
        assert_eq!(p.slot_of(Duration::from_secs(86_400 + 950)), 1);
    }

    #[test]
    fn observe_series_wraps_days() {
        let mut p = PredictiveProvisioner::new(
            GgOneModel::paper_defaults(),
            Duration::from_secs(900),
            0.95,
        );
        // Two days of 96 slots, observed by their index in the series.
        for i in 0..192 {
            p.observe(i, i as f64);
        }
        // Slot 0 saw rates 0.0 and 96.0; the 95th percentile is 96.
        assert!(close(p.predict(0).unwrap(), 96.0));
    }

    #[test]
    fn reactive_fires_only_outside_band() {
        let r = ReactiveProvisioner::paper_defaults(GgOneModel::paper_defaults());
        // Within ±20% of prediction: no action.
        assert_eq!(r.check(110.0, Some(100.0)), None);
        assert_eq!(r.check(81.0, Some(100.0)), None);
        // Outside the band: recompute.
        assert!(r.check(121.0, Some(100.0)).is_some());
        assert!(r.check(79.0, Some(100.0)).is_some());
        // No prediction: always act on the observation.
        assert!(r.check(50.0, None).is_some());
    }

    #[test]
    fn autoscaler_reactive_corrects_misprediction() {
        let model = GgOneModel::paper_defaults();
        let mut predictive =
            PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        // History says slot 0 is quiet.
        predictive.observe(0, 1.0);
        let reactive = ReactiveProvisioner::paper_defaults(model.clone());
        let mut scaler = AutoScaler::new(predictive, reactive, ScalingPolicy::Both);

        let t0 = scaler.predictive_tick(Duration::ZERO);
        assert_eq!(t0, None, "1 instance predicted, same as initial target");
        assert_eq!(scaler.target, 1);

        // Reality: a storm of 100 req/s. The reactive tick must fix it.
        let corrected = scaler.reactive_tick(100.0).expect("must react");
        assert_eq!(corrected, model.required_instances(100.0));
        assert_eq!(scaler.target, corrected);

        // Same observation again: prediction was updated, no flapping.
        assert_eq!(scaler.reactive_tick(100.0), None);
    }

    #[test]
    fn policy_gating() {
        let model = GgOneModel::paper_defaults();
        let mut predictive =
            PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        predictive.observe(0, 100.0);
        let reactive = ReactiveProvisioner::paper_defaults(model);

        let mut pred_only = AutoScaler::new(
            predictive.clone(),
            reactive.clone(),
            ScalingPolicy::Predictive,
        );
        assert!(pred_only.predictive_tick(Duration::ZERO).is_some());
        assert_eq!(pred_only.reactive_tick(1000.0), None, "reactive disabled");

        let mut react_only = AutoScaler::new(predictive, reactive, ScalingPolicy::Reactive);
        assert_eq!(
            react_only.predictive_tick(Duration::ZERO),
            None,
            "predictive disabled"
        );
        assert!(react_only.reactive_tick(1000.0).is_some());
    }

    #[test]
    fn scaling_policy_parses() {
        assert_eq!(
            "both".parse::<ScalingPolicy>().unwrap(),
            ScalingPolicy::Both
        );
        assert!("nope".parse::<ScalingPolicy>().is_err());
    }

    #[test]
    fn provisioner_trait_objects() {
        let model = GgOneModel::paper_defaults();
        let mut policies: Vec<Box<dyn Provisioner>> = vec![
            Box::new(ReactiveProvisioner::paper_defaults(model.clone())),
            Box::new(PredictiveProvisioner::new(
                model.clone(),
                Duration::from_secs(900),
                0.95,
            )),
        ];
        let obs = Observation {
            arrival_rate: Some(50.0),
            queue_depth: 10,
            live: 1,
            target: 1,
            ..Observation::at(Duration::ZERO)
        };
        assert_eq!(policies[0].name(), "reactive");
        let d = policies[0].propose(&obs).expect("reactive always acts");
        assert_eq!(d.target, model.required_instances(50.0));
        assert!(d.changed);
        assert_eq!(policies[1].name(), "predictive");
        assert_eq!(policies[1].propose(&obs), None, "no history for the slot");
    }

    /// The `AutoScaler` as a `Provisioner` must reproduce, decision for
    /// decision, what hand-calling `predictive_tick`/`reactive_tick` on the
    /// paper cadence produces.
    #[test]
    fn autoscaler_propose_matches_manual_ticks() {
        let model = GgOneModel::paper_defaults();
        let build = || {
            let mut predictive =
                PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
            // Quiet first slot, busy second slot.
            predictive.observe(0, 5.0);
            predictive.observe(1, 120.0);
            let reactive = ReactiveProvisioner::paper_defaults(model.clone());
            AutoScaler::new(predictive, reactive, ScalingPolicy::Both)
        };

        // Manual wiring: predictive every 900 s, reactive every 300 s,
        // observed rate fixed at 40 req/s.
        let mut manual = build();
        let mut manual_targets = Vec::new();
        let mut last_pred = 0.0_f64;
        let mut last_react = 0.0_f64;
        for step in 1..=30 {
            let now = step as f64 * 60.0;
            if now - last_pred >= 900.0 - 1e-6 {
                last_pred = now;
                manual.predictive_tick(Duration::from_secs_f64(now));
            }
            if now - last_react >= 300.0 - 1e-6 {
                last_react = now;
                manual.reactive_tick(40.0);
            }
            manual_targets.push(manual.target);
        }

        // Trait path: one observation per simulated minute; arrivals run at
        // 40 req/s so the delta-derived rate matches.
        let mut auto = build();
        let mut auto_targets = Vec::new();
        for step in 1..=30 {
            let now = step as f64 * 60.0;
            let obs = Observation {
                total_arrivals: (now * 40.0) as u64,
                live: auto.target,
                target: auto.target,
                ..Observation::at(Duration::from_secs_f64(now))
            };
            let _ = auto.propose(&obs);
            auto_targets.push(auto.target);
        }

        assert_eq!(manual_targets, auto_targets);
        assert!(
            auto_targets.last().copied().unwrap() > 1,
            "40 req/s must provision more than one instance"
        );
    }

    #[test]
    fn autoscaler_propose_is_silent_between_cadences() {
        let model = GgOneModel::paper_defaults();
        let predictive = PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        let reactive = ReactiveProvisioner::paper_defaults(model);
        let mut scaler =
            AutoScaler::new(predictive, reactive, ScalingPolicy::Both).with_compression(1.0, 0.0);
        assert_eq!(
            scaler.propose(&Observation::at(Duration::from_secs(60))),
            None,
            "neither cadence elapsed at t=60"
        );
        let d = scaler
            .propose(&Observation::at(Duration::from_secs(300)))
            .expect("reactive cadence elapsed");
        assert!(!d.changed, "zero arrivals keep the pool at 1");
        assert_eq!(d.target, 1);
    }

    #[test]
    fn autoscaler_variance_consumption_requests_window_reset() {
        let model = GgOneModel::paper_defaults();
        let mut predictive =
            PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        predictive.observe(1, 10.0);
        let reactive = ReactiveProvisioner::paper_defaults(model);
        let mut scaler = AutoScaler::new(predictive, reactive, ScalingPolicy::Both);
        let obs = Observation {
            live: 4,
            target: 1,
            interarrival_variance: Some(0.01),
            ..Observation::at(Duration::from_secs(900))
        };
        let d = scaler.propose(&obs).expect("predictive cadence elapsed");
        assert!(
            d.reset_variance_window,
            "variance consumed at the 15-min tick"
        );
        // η = 4 live servers → the aggregate measurement is scaled by 16.
        let got = scaler.predictive.model.var_interarrival;
        assert!(close(got, 0.01 * 16.0), "η² scaling, got {got}");
    }

    #[test]
    fn autoscaler_slot_mapping_compresses_time() {
        let model = GgOneModel::paper_defaults();
        let mut predictive =
            PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        // Slot 0 quiet, slot 2 (trace seconds 1800..2700) busy.
        predictive.observe(0, 1.0);
        predictive.observe(2, 200.0);
        let reactive = ReactiveProvisioner::paper_defaults(model.clone());
        // Compression 60: one wall second is a trace minute, and the
        // predictive cadence compresses with it (900/60 = 15 s wall).
        let mut scaler = AutoScaler::new(predictive, reactive, ScalingPolicy::Predictive)
            .with_compression(60.0, 0.0);
        // Wall t=30 s → trace t=1800 s → slot 2.
        let d = scaler
            .propose(&Observation::at(Duration::from_secs(30)))
            .expect("predictive cadence elapsed");
        assert!(d.changed);
        assert_eq!(d.target, model.required_instances(200.0));
        assert_eq!(d.policy, "predictive");
    }
}
