//! The live elasticity control loop: wires queue-side observations into
//! the provisioning policies and enforces their proposals through the
//! [`Supervisor`] — the complete "programmatic elasticity" pipeline of the
//! paper running against real server objects (not the simulator).
//!
//! ```text
//! queue arrival rate ──► AutoScaler (predictive + reactive, G/G/1) ──► Supervisor.set_target
//!        ▲                                                                  │
//!        └───────────────── RemoteBrokers spawn/retire instances ◄──────────┘
//! ```

use crate::broker::Broker;
use crate::error::{OmqError, OmqResult};
use crate::oid::Oid;
use crate::provision::{Observation, Provisioner};
use crate::supervisor::Supervisor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the provisioner is offered a fresh [`Observation`]. Policies
/// run their own cadence off the observation clock (the
/// [`crate::provision::AutoScaler`] fires its predictive/reactive periods
/// internally), so the tick just bounds decision latency.
pub const TICK: Duration = Duration::from_millis(15);

/// Drives any [`Provisioner`] from live queue observations and enforces its
/// decisions through a [`Supervisor`] — the same policy objects the
/// `elastic` crate runs against its simulated pool.
pub struct ElasticController {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    last_target: Arc<AtomicUsize>,
    decisions: Arc<Mutex<Vec<(Duration, usize)>>>,
}

impl std::fmt::Debug for ElasticController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElasticController")
            .field("last_target", &self.last_target.load(Ordering::Relaxed))
            .finish()
    }
}

impl ElasticController {
    /// Starts the control loop, observing the global request queue of
    /// `oid`. The supervisor is owned by the controller for its lifetime;
    /// targets flow exclusively through the policies.
    ///
    /// # Errors
    ///
    /// Fails if the observed queue does not exist.
    pub fn start(
        broker: Broker,
        supervisor: Supervisor,
        mut provisioner: impl Provisioner + 'static,
        oid: impl Into<Oid>,
    ) -> OmqResult<Self> {
        let oid = oid.into();
        if !broker.object_exists(&oid) {
            return Err(OmqError::UnknownObject(oid.as_str().to_string()));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let last_target = Arc::new(AtomicUsize::new(supervisor.target()));
        let decisions: Arc<Mutex<Vec<(Duration, usize)>>> = Arc::new(Mutex::new(Vec::new()));

        let t_stop = stop.clone();
        let t_target = last_target.clone();
        let t_decisions = decisions.clone();
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            // The gauges the paper's "fine-grained metrics" argument is
            // about: the observed queue arrival rate λ_obs and the pool
            // size the policies currently demand.
            let lambda_gauge = obs::gauge("elastic.lambda_obs");
            let target_gauge = obs::gauge("elastic.pool_target");
            target_gauge.set(supervisor.target() as f64);
            loop {
                if t_stop.load(Ordering::Acquire) {
                    supervisor.stop();
                    return;
                }
                let stats = broker
                    .messaging()
                    .queue_stats(oid.as_str())
                    .unwrap_or_default();
                let rate = broker.messaging().queue_arrival_rate(oid.as_str()).ok();
                if let Some(observed) = rate {
                    lambda_gauge.set(observed);
                }
                let observation = Observation {
                    now: started.elapsed(),
                    total_arrivals: stats.published,
                    arrival_rate: rate,
                    queue_depth: stats.depth,
                    live: supervisor.observed().live,
                    target: supervisor.target(),
                    interarrival_variance: None,
                };
                if let Some(decision) = provisioner.propose(&observation) {
                    if decision.changed {
                        let n = decision.target;
                        supervisor.set_target(n);
                        t_target.store(n, Ordering::Release);
                        target_gauge.set(n as f64);
                        obs::log(
                            obs::Level::Info,
                            "elastic.controller",
                            &format!("pool target for `{oid}` set to {n} ({})", decision.policy),
                        );
                        t_decisions.lock().push((started.elapsed(), n));
                    }
                }
                std::thread::sleep(TICK);
            }
        });

        Ok(ElasticController {
            stop,
            thread: Some(thread),
            last_target,
            decisions,
        })
    }

    /// The most recent target the policies proposed.
    pub fn last_target(&self) -> usize {
        self.last_target.load(Ordering::Acquire)
    }

    /// The decision log: (time since start, proposed target).
    pub fn decisions(&self) -> Vec<(Duration, usize)> {
        self.decisions.lock().clone()
    }

    /// Stops the loop (and the supervisor it owns).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ElasticController {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provision::{
        AutoScaler, GgOneModel, PredictiveProvisioner, ReactiveProvisioner, ScalingPolicy,
    };
    use crate::supervisor::{RemoteBroker, SupervisorConfig};
    use crate::RemoteObject;
    use wire::Value;

    struct Sleepy;
    impl RemoteObject for Sleepy {
        fn dispatch(&self, _m: &str, _a: &[Value]) -> Result<Value, String> {
            std::thread::sleep(Duration::from_millis(10));
            Ok(Value::Null)
        }
    }

    fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        cond()
    }

    #[test]
    fn controller_scales_live_pool_with_load() {
        // Short rate window so the post-burst decay (and hence the test)
        // is fast.
        let broker = Broker::new(
            mqsim::MessageBroker::new(),
            crate::BrokerConfig {
                rate_window: Duration::from_secs(4),
                ..crate::BrokerConfig::default()
            },
        );
        let node = RemoteBroker::start(broker.clone(), 1).unwrap();
        node.register_factory(
            "svc",
            Arc::new(|| Arc::new(Sleepy) as Arc<dyn RemoteObject>),
        );

        let supervisor = Supervisor::start(
            broker.clone(),
            SupervisorConfig {
                oid: "svc".into(),
                check_interval: Duration::from_millis(60),
                ..Default::default()
            },
        )
        .unwrap();
        supervisor.set_target(1);
        assert!(wait_until(Duration::from_secs(5), || node
            .local_count("svc")
            == 1));

        // Model matched to the 10 ms service: with a 40 ms SLA, one
        // instance sustains ~25 req/s.
        let model = GgOneModel {
            target_response: 0.040,
            mean_service: 0.010,
            var_interarrival: 0.0001,
            var_service: 0.0001,
        };
        let predictive = PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95);
        let reactive = ReactiveProvisioner::paper_defaults(model);
        // Compression 1 500 puts the reactive cadence at 200 ms.
        let scaler = AutoScaler::new(predictive, reactive, ScalingPolicy::Reactive)
            .with_compression(1500.0, 0.0);

        let controller =
            ElasticController::start(broker.clone(), supervisor, scaler, "svc").unwrap();

        // Offer ~100 req/s for a second: the controller must scale out.
        let proxy = broker.lookup("svc").unwrap();
        let burst_until = Instant::now() + Duration::from_millis(1200);
        while Instant::now() < burst_until {
            proxy.call_async("work", vec![]).unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            wait_until(Duration::from_secs(10), || node.local_count("svc") >= 2),
            "controller must grow the pool under load, got {}",
            node.local_count("svc")
        );
        assert!(controller.last_target() >= 2);
        assert!(!controller.decisions().is_empty());

        // Load stops: the rate estimator decays and the pool shrinks back.
        assert!(
            wait_until(Duration::from_secs(20), || node.local_count("svc") == 1),
            "controller must shrink the idle pool, got {}",
            node.local_count("svc")
        );
        controller.stop();
        node.stop();
    }

    #[test]
    fn controller_requires_existing_queue() {
        let broker = Broker::in_process();
        let node = RemoteBroker::start(broker.clone(), 1).unwrap();
        let supervisor = Supervisor::start(
            broker.clone(),
            SupervisorConfig {
                oid: "ghost".into(),
                check_interval: Duration::from_millis(100),
                ..Default::default()
            },
        )
        .unwrap();
        let model = GgOneModel::paper_defaults();
        let scaler = AutoScaler::new(
            PredictiveProvisioner::new(model.clone(), Duration::from_secs(900), 0.95),
            ReactiveProvisioner::paper_defaults(model),
            ScalingPolicy::Both,
        );
        let result = ElasticController::start(broker, supervisor, scaler, "ghost");
        assert!(matches!(result, Err(OmqError::UnknownObject(_))));
        node.stop();
    }
}
