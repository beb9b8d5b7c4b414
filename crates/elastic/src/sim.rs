//! Event-driven simulation of the SyncService pool: one FIFO request queue
//! (the ObjectMQ global queue) feeding `N(t)` parallel servers, where
//! `N(t)` is adjusted by provisioning policies at control ticks. Matches
//! the paper's modelling assumption of homogeneous G/G/1 servers (§4.3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Lognormal service-time distribution parameterized by mean and standard
/// deviation (seconds). The paper's Table 3: mean 50 ms, σ 200 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceTimeDist {
    /// Mean service time, seconds.
    pub mean: f64,
    /// Standard deviation, seconds.
    pub std: f64,
    mu: f64,
    sigma: f64,
}

impl ServiceTimeDist {
    /// Creates a distribution with the given moments.
    ///
    /// # Panics
    ///
    /// Panics unless both moments are positive.
    pub fn new(mean: f64, std: f64) -> Self {
        assert!(mean > 0.0 && std > 0.0, "moments must be positive");
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        ServiceTimeDist {
            mean,
            std,
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }

    /// Table 3 parameters: s = 50 ms, σ_b = 200 ms.
    pub fn paper() -> Self {
        ServiceTimeDist::new(0.050, 0.200)
    }

    /// Samples one service time.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }

    /// The variance (σ², s²) — feeds the G/G/1 capacity formula.
    pub fn variance(&self) -> f64 {
        self.std * self.std
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSimConfig {
    /// Service-time distribution of one SyncService instance.
    pub service: ServiceTimeDist,
    /// Delay between a scale-up decision and the instance serving.
    pub spawn_delay: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PoolSimConfig {
    fn default() -> Self {
        PoolSimConfig {
            service: ServiceTimeDist::paper(),
            spawn_delay: 1.0,
            seed: 42,
        }
    }
}

/// Totally-ordered f64 for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct F64Ord(f64);
impl Eq for F64Ord {}
impl PartialOrd for F64Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Arrival(usize),
    /// A service completes: (service id).
    Departure(u64),
    ControlTick,
    SpawnComplete,
    Crash(usize),
    Recover(usize),
}

/// Online mean/variance accumulator (Welford) for interarrival times.
#[derive(Debug, Default, Clone)]
struct InterarrivalStats {
    last_arrival: Option<f64>,
    count: u64,
    mean: f64,
    m2: f64,
}

impl InterarrivalStats {
    fn observe(&mut self, now: f64) {
        if let Some(last) = self.last_arrival {
            let gap = now - last;
            self.count += 1;
            let delta = gap - self.mean;
            self.mean += delta / self.count as f64;
            self.m2 += delta * (gap - self.mean);
        }
        self.last_arrival = Some(now);
    }

    fn variance(&self) -> Option<f64> {
        if self.count > 1 {
            Some(self.m2 / (self.count as f64 - 1.0))
        } else {
            None
        }
    }

    fn reset(&mut self) {
        self.count = 0;
        self.mean = 0.0;
        self.m2 = 0.0;
        // last_arrival survives the reset so the first gap of the next
        // window is still measured.
    }
}

/// Control-tick view and actuator handed to the provisioning closure.
#[derive(Debug)]
pub struct ControlCtx<'a> {
    now: f64,
    total_arrivals: u64,
    queue_len: usize,
    live: usize,
    target: &'a mut usize,
    spawn_requests: &'a mut usize,
    interarrival: &'a mut InterarrivalStats,
}

impl ControlCtx<'_> {
    /// Current virtual time, seconds since simulation start.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cumulative arrivals so far (closures diff this to get rates).
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// Requests waiting in the queue right now.
    pub fn queue_len(&self) -> usize {
        self.queue_len
    }

    /// Live server instances.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Current target pool size.
    pub fn target(&self) -> usize {
        *self.target
    }

    /// Sample variance of request interarrival times (seconds²) observed
    /// since the last [`ControlCtx::reset_interarrival_stats`] — the
    /// paper's online σ²_a measurement on the global request queue.
    pub fn interarrival_variance(&self) -> Option<f64> {
        self.interarrival.variance()
    }

    /// This tick's state as a policy
    /// [`Observation`](objectmq::provision::Observation) — the simulator-side
    /// counterpart of the live controller's queue statistics, so the same
    /// `Provisioner` trait objects drive both pools.
    pub fn observation(&self) -> objectmq::provision::Observation {
        objectmq::provision::Observation {
            now: std::time::Duration::from_secs_f64(self.now()),
            total_arrivals: self.total_arrivals(),
            arrival_rate: None,
            queue_depth: self.queue_len(),
            live: self.live(),
            target: self.target(),
            interarrival_variance: self.interarrival_variance(),
        }
    }

    /// Starts a fresh σ²_a measurement window.
    pub fn reset_interarrival_stats(&mut self) {
        self.interarrival.reset();
    }

    /// Requests the pool be resized to `n` (≥ 1). Scale-ups pay the spawn
    /// delay; scale-downs retire instances as they go idle.
    pub fn set_target(&mut self, n: usize) {
        let n = n.max(1);
        if n > *self.target {
            *self.spawn_requests += n - *self.target;
        }
        *self.target = n;
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Arrival time.
    pub arrival: f64,
    /// Completion time.
    pub completion: f64,
}

impl Completion {
    /// End-to-end response time (queueing + service).
    pub fn response_time(&self) -> f64 {
        self.completion - self.arrival
    }
}

/// The pool simulator.
#[derive(Debug)]
pub struct PoolSim {
    config: PoolSimConfig,
    rng: StdRng,
    /// Keeps the `elastic.poolsim` health check registered while a
    /// simulation object is alive; dropping it deregisters the check.
    _health: obs::HealthGuard,
}

impl PoolSim {
    /// Creates a simulator.
    pub fn new(config: PoolSimConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let _health = obs::register_health("elastic.poolsim", move || Ok(()));
        PoolSim {
            config,
            rng,
            _health,
        }
    }

    /// Runs the simulation.
    ///
    /// * `arrivals` — sorted request arrival times (seconds).
    /// * `end_time` — simulation horizon (events past it are dropped).
    /// * `initial_servers` — pool size at t = 0.
    /// * `control_interval` — period of the control closure (0 = never).
    /// * `control` — the provisioning policy hook.
    /// * `crashes` — `(crash_time, recover_time)` windows during which the
    ///   whole pool is down and in-flight requests are redelivered (the
    ///   Fig. 8(f) fault injector).
    /// * `on_complete` — callback for every completed request.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        arrivals: &[f64],
        end_time: f64,
        initial_servers: usize,
        control_interval: f64,
        mut control: impl FnMut(&mut ControlCtx),
        crashes: &[(f64, f64)],
        mut on_complete: impl FnMut(Completion),
    ) {
        let mut events: BinaryHeap<Reverse<(F64Ord, u64, Event)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let push = |events: &mut BinaryHeap<Reverse<(F64Ord, u64, Event)>>,
                    seq: &mut u64,
                    t: f64,
                    e: Event| {
            *seq += 1;
            events.push(Reverse((F64Ord(t), *seq, e)));
        };

        for (i, &t) in arrivals.iter().enumerate() {
            push(&mut events, &mut seq, t, Event::Arrival(i));
        }
        if control_interval > 0.0 {
            push(&mut events, &mut seq, control_interval, Event::ControlTick);
        }
        for (i, &(down, up)) in crashes.iter().enumerate() {
            assert!(up > down, "recover must follow crash");
            push(&mut events, &mut seq, down, Event::Crash(i));
            push(&mut events, &mut seq, up, Event::Recover(i));
        }

        let mut live = initial_servers.max(1);
        let mut target = live;
        let mut pending_spawns = 0usize;
        let mut busy = 0usize;
        let mut queue: VecDeque<f64> = VecDeque::new();
        let mut in_flight: HashMap<u64, f64> = HashMap::new();
        let mut next_service_id: u64 = 0;
        let mut total_arrivals: u64 = 0;
        let mut interarrival = InterarrivalStats::default();
        let mut crashed = false;
        let mut saved_live = live;

        while let Some(Reverse((F64Ord(now), _, event))) = events.pop() {
            if now > end_time {
                break;
            }
            match event {
                Event::Arrival(i) => {
                    total_arrivals += 1;
                    interarrival.observe(now);
                    queue.push_back(arrivals[i]);
                }
                Event::Departure(id) => {
                    // Stale departures (crashed mid-service) are ignored.
                    if let Some(arrival) = in_flight.remove(&id) {
                        busy -= 1;
                        on_complete(Completion {
                            arrival,
                            completion: now,
                        });
                        // Scale-down: retire the now-idle server if above
                        // target.
                        if live > target && live > busy {
                            live -= 1;
                        }
                    }
                }
                Event::ControlTick => {
                    let mut spawn_requests = 0usize;
                    {
                        let mut ctx = ControlCtx {
                            now,
                            total_arrivals,
                            queue_len: queue.len(),
                            live,
                            target: &mut target,
                            spawn_requests: &mut spawn_requests,
                            interarrival: &mut interarrival,
                        };
                        control(&mut ctx);
                    }
                    for _ in 0..spawn_requests {
                        push(
                            &mut events,
                            &mut seq,
                            now + self.config.spawn_delay,
                            Event::SpawnComplete,
                        );
                        pending_spawns += 1;
                    }
                    // Immediate shrink of idle capacity.
                    while live > target && live > busy {
                        live -= 1;
                    }
                    push(
                        &mut events,
                        &mut seq,
                        now + control_interval,
                        Event::ControlTick,
                    );
                }
                Event::SpawnComplete => {
                    pending_spawns = pending_spawns.saturating_sub(1);
                    if !crashed && live < target {
                        live += 1;
                    }
                }
                Event::Crash(_) => {
                    if !crashed {
                        crashed = true;
                        saved_live = live.max(1);
                        // Redeliver in-flight requests: back to the queue
                        // front in arrival order (paper §3.4: unacked
                        // messages are requeued).
                        let mut redelivered: Vec<f64> = in_flight.drain().map(|(_, a)| a).collect();
                        redelivered.sort_by(|a, b| b.total_cmp(a));
                        for arrival in redelivered {
                            queue.push_front(arrival);
                        }
                        busy = 0;
                        live = 0;
                    }
                }
                Event::Recover(_) => {
                    if crashed {
                        crashed = false;
                        live = saved_live.min(target.max(1)).max(1);
                    }
                }
            }

            // Dispatch queued requests onto idle servers.
            while busy < live {
                let Some(arrival) = queue.pop_front() else {
                    break;
                };
                let service = self.config.service.sample(&mut self.rng);
                next_service_id += 1;
                in_flight.insert(next_service_id, arrival);
                busy += 1;
                push(
                    &mut events,
                    &mut seq,
                    now + service,
                    Event::Departure(next_service_id),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_completions(
        arrivals: &[f64],
        servers: usize,
        service: ServiceTimeDist,
    ) -> Vec<Completion> {
        let mut sim = PoolSim::new(PoolSimConfig {
            service,
            spawn_delay: 1.0,
            seed: 1,
        });
        let mut out = Vec::new();
        sim.run(arrivals, 1e9, servers, 0.0, |_| {}, &[], |c| out.push(c));
        out
    }

    #[test]
    fn service_time_moments_match() {
        let d = ServiceTimeDist::paper();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        assert!((mean - 0.050).abs() < 0.005, "mean {mean}");
        assert!((var.sqrt() - 0.200).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn uncontended_requests_take_service_time_only() {
        // Arrivals 10 s apart on 1 server: no queueing.
        let arrivals: Vec<f64> = (0..50).map(|i| i as f64 * 10.0).collect();
        let completions = collect_completions(&arrivals, 1, ServiceTimeDist::new(0.050, 0.010));
        assert_eq!(completions.len(), 50);
        for c in &completions {
            assert!(
                c.response_time() < 0.5,
                "uncontended rt {} too high",
                c.response_time()
            );
        }
    }

    #[test]
    fn overload_builds_queueing_delay() {
        // 100 req/s onto one server with mean 50 ms service (capacity
        // ≈20/s): the queue must grow and response times explode.
        let arrivals: Vec<f64> = (0..1000).map(|i| i as f64 * 0.01).collect();
        let completions = collect_completions(&arrivals, 1, ServiceTimeDist::new(0.050, 0.010));
        let last = completions.last().unwrap();
        assert!(
            last.response_time() > 5.0,
            "saturated single server must queue heavily, rt {}",
            last.response_time()
        );
    }

    #[test]
    fn more_servers_cut_response_times() {
        let arrivals: Vec<f64> = (0..2000).map(|i| i as f64 * 0.01).collect();
        let service = ServiceTimeDist::new(0.050, 0.010);
        let one = collect_completions(&arrivals, 1, service.clone());
        let four = collect_completions(&arrivals, 4, service);
        let mean =
            |cs: &[Completion]| cs.iter().map(|c| c.response_time()).sum::<f64>() / cs.len() as f64;
        assert!(
            mean(&four) * 5.0 < mean(&one),
            "4 servers must be much faster: {} vs {}",
            mean(&four),
            mean(&one)
        );
    }

    #[test]
    fn control_tick_scale_up_takes_effect() {
        // Start with 1 server under overload; at the first tick scale to 8.
        let arrivals: Vec<f64> = (0..3000).map(|i| i as f64 * 0.01).collect();
        let mut sim = PoolSim::new(PoolSimConfig {
            service: ServiceTimeDist::new(0.050, 0.010),
            spawn_delay: 0.5,
            seed: 2,
        });
        let mut completions = Vec::new();
        sim.run(
            &arrivals,
            1e9,
            1,
            5.0,
            |ctx| ctx.set_target(8),
            &[],
            |c| completions.push(c),
        );
        assert_eq!(completions.len(), 3000);
        // Early requests (first 5 s) suffer; late requests are snappy.
        let late: Vec<f64> = completions
            .iter()
            .filter(|c| c.arrival > 20.0)
            .map(|c| c.response_time())
            .collect();
        let late_mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(
            late_mean < 0.5,
            "after scale-up rt should drop, got {late_mean}"
        );
    }

    #[test]
    fn scale_down_retires_idle_servers() {
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 1.0).collect();
        let mut sim = PoolSim::new(PoolSimConfig::default());
        let mut lives = Vec::new();
        sim.run(
            &arrivals,
            200.0,
            8,
            10.0,
            |ctx| {
                ctx.set_target(1);
                lives.push(ctx.live());
            },
            &[],
            |_| {},
        );
        assert_eq!(*lives.last().unwrap(), 1, "pool must shrink to 1");
    }

    #[test]
    fn crash_redelivers_inflight_and_loses_nothing() {
        // 200 requests, a crash window in the middle: every request still
        // completes, and those overlapping the window take much longer.
        let arrivals: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        let mut sim = PoolSim::new(PoolSimConfig {
            service: ServiceTimeDist::new(0.020, 0.005),
            spawn_delay: 0.5,
            seed: 3,
        });
        let mut completions = Vec::new();
        sim.run(
            &arrivals,
            1e9,
            2,
            0.0,
            |_| {},
            &[(4.0, 5.5)],
            |c| completions.push(c),
        );
        assert_eq!(completions.len(), 200, "no request may be lost");
        let during: Vec<f64> = completions
            .iter()
            .filter(|c| (3.9..5.5).contains(&c.arrival))
            .map(|c| c.response_time())
            .collect();
        assert!(
            during.iter().cloned().fold(0.0, f64::max) > 0.5,
            "requests hitting the outage must be delayed"
        );
    }

    #[test]
    fn poisson_arrivals_match_rate() {
        let rates = vec![600.0; 10]; // 10 req/s for 10 minutes
        let arrivals = workload::poisson_arrivals(rates, 1.0, 9);
        let expected = 600.0 * 10.0;
        let got = arrivals.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "got {got}, expected ≈{expected}"
        );
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn poisson_zero_rate_minutes_are_silent() {
        let rates = vec![0.0, 600.0, 0.0];
        let arrivals = workload::poisson_arrivals(rates, 1.0, 9);
        assert!(arrivals.iter().all(|&t| (60.0..120.0).contains(&t)));
    }
}
