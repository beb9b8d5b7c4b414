//! The fault plan: a seeded [`DeliveryInterceptor`] describing *which*
//! faults to inject at the broker choke point and *how often*.
//!
//! A [`FaultPlan`] is pure state-machine randomness: every decision comes
//! from its own [`SimRng`] stream, there is no wall clock and no global
//! state, so a plan constructed from the same seed makes the same calls in
//! the same order given the same traffic. The plan keeps a trace of every
//! non-identity action it took — the schedule half of a failure artifact.

use crate::rng::SimRng;
use mqsim::{DeliverFault, DeliveryInterceptor, PublishFault};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Fault probabilities in permille (so plans are integer-only and replay
/// without floating-point drift).
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultRates {
    /// Chance a published message is silently dropped.
    pub drop: u32,
    /// Chance a published message is enqueued twice.
    pub duplicate: u32,
    /// Chance a published message jumps to the front of the queue.
    pub front: u32,
    /// Chance a ready message is deferred behind the rest of the queue on
    /// its way to a consumer.
    pub defer: u32,
}

impl FaultRates {
    /// A moderately hostile network: some loss, duplication and reordering
    /// on both legs.
    pub fn chaotic() -> Self {
        FaultRates {
            drop: 80,
            duplicate: 120,
            front: 150,
            defer: 200,
        }
    }
}

/// Seeded fault-injection plan, installable on a broker with
/// [`mqsim::MessageBroker::set_interceptor`].
pub struct FaultPlan {
    rates: FaultRates,
    /// Only queues whose name starts with one of these prefixes are
    /// faulted. Empty = every queue. The filter is applied *before* any RNG
    /// draw, so untargeted traffic (e.g. internal reply queues) does not
    /// perturb the decision stream.
    targets: Vec<String>,
    active: AtomicBool,
    rng: Mutex<SimRng>,
    trace: Mutex<Vec<String>>,
    faults_injected: AtomicU64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("rates", &self.rates)
            .field("targets", &self.targets)
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("faults_injected", &self.faults_injected())
            .finish()
    }
}

impl FaultPlan {
    /// A plan injecting faults at `rates`, drawing from `seed`.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        FaultPlan {
            rates,
            targets: Vec::new(),
            active: AtomicBool::new(true),
            rng: Mutex::new(SimRng::new(seed)),
            trace: Mutex::new(Vec::new()),
            faults_injected: AtomicU64::new(0),
        }
    }

    /// The identity plan: installed but injecting nothing. Exists so tests
    /// can prove the hooked broker is bit-identical to the un-hooked one.
    pub fn identity() -> Self {
        FaultPlan::new(0, FaultRates::default())
    }

    /// Restricts faults to queues whose name starts with any of `prefixes`.
    #[must_use]
    pub fn targeting(mut self, prefixes: &[&str]) -> Self {
        self.targets = prefixes.iter().map(|p| (*p).to_string()).collect();
        self
    }

    /// Deactivates fault injection (used to drain a simulation
    /// deterministically after the hostile phase).
    pub fn deactivate(&self) {
        self.active.store(false, Ordering::Release);
    }

    /// Count of non-identity actions taken so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// The schedule trace: one line per injected fault, in order.
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().clone()
    }

    fn applies_to(&self, queue: &str) -> bool {
        if !self.active.load(Ordering::Acquire) {
            return false;
        }
        self.targets.is_empty() || self.targets.iter().any(|p| queue.starts_with(p.as_str()))
    }

    fn record(&self, queue: &str, action: &str) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        self.trace.lock().push(format!("{action} {queue}"));
        obs::flight_event!("faultsim", "{action} {queue}");
    }
}

impl DeliveryInterceptor for FaultPlan {
    fn on_publish(&self, queue: &str, _payload: &[u8]) -> PublishFault {
        if !self.applies_to(queue) {
            return PublishFault::Deliver;
        }
        let mut rng = self.rng.lock();
        // One draw per possible fault, in a fixed order, whether or not an
        // earlier one fired: the draw count per message is constant, which
        // keeps the stream aligned across replays even if rates change.
        let dropped = rng.chance(self.rates.drop);
        let duplicated = rng.chance(self.rates.duplicate);
        let fronted = rng.chance(self.rates.front);
        drop(rng);
        if dropped {
            self.record(queue, "drop");
            PublishFault::Drop
        } else if duplicated {
            self.record(queue, "duplicate");
            PublishFault::Duplicate
        } else if fronted {
            self.record(queue, "front");
            PublishFault::Front
        } else {
            PublishFault::Deliver
        }
    }

    fn on_deliver(&self, queue: &str, _payload: &[u8]) -> DeliverFault {
        if !self.applies_to(queue) {
            return DeliverFault::Deliver;
        }
        let deferred = self.rng.lock().chance(self.rates.defer);
        if deferred {
            self.record(queue, "defer");
            DeliverFault::Defer
        } else {
            DeliverFault::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_plan_never_faults() {
        let plan = FaultPlan::identity();
        for i in 0..500 {
            assert_eq!(plan.on_publish("q", &[i as u8]), PublishFault::Deliver);
            assert_eq!(plan.on_deliver("q", &[i as u8]), DeliverFault::Deliver);
        }
        assert_eq!(plan.faults_injected(), 0);
        assert!(plan.trace().is_empty());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mk = || FaultPlan::new(1234, FaultRates::chaotic());
        let (a, b) = (mk(), mk());
        for i in 0..300u32 {
            let payload = i.to_be_bytes();
            assert_eq!(a.on_publish("q", &payload), b.on_publish("q", &payload));
            assert_eq!(a.on_deliver("q", &payload), b.on_deliver("q", &payload));
        }
        assert_eq!(a.trace(), b.trace());
        assert!(a.faults_injected() > 0, "chaotic rates must fire sometimes");
    }

    #[test]
    fn targeting_skips_rng_for_other_queues() {
        let targeted = FaultPlan::new(7, FaultRates::chaotic()).targeting(&["app."]);
        let reference = FaultPlan::new(7, FaultRates::chaotic()).targeting(&["app."]);
        // Interleave untargeted traffic on one plan only: decisions on the
        // targeted queue must stay aligned because untargeted queues never
        // consume from the RNG stream.
        for i in 0..200u32 {
            let payload = i.to_be_bytes();
            let _ = targeted.on_publish("omq.resp.17", &payload);
            let _ = targeted.on_deliver("internal", &payload);
            assert_eq!(
                targeted.on_publish("app.commits", &payload),
                reference.on_publish("app.commits", &payload)
            );
        }
    }

    #[test]
    fn deactivate_stops_faulting_and_draws() {
        let plan = FaultPlan::new(99, FaultRates::chaotic());
        plan.deactivate();
        for i in 0..200 {
            assert_eq!(plan.on_publish("q", &[i as u8]), PublishFault::Deliver);
            assert_eq!(plan.on_deliver("q", &[i as u8]), DeliverFault::Deliver);
        }
        assert_eq!(plan.faults_injected(), 0);
    }
}
