//! Server side: remote objects, the skeleton dispatch loop, and instance
//! handles.

use crate::error::OmqResult;
use crate::info::ServiceStats;
use crate::rpc::{decode_request, Request, Response};
use mqsim::{Message, MessageConsumer, MessageProperties, Messaging};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::{Codec, Value};

/// A server object that can be bound to an `oid` and invoked remotely.
///
/// Implementations should be stateless or keep their state in an external
/// store (the paper deliberately provides no shared state between object
/// instances — consistency belongs to the database tier, §3.1).
pub trait RemoteObject: Send + Sync + 'static {
    /// Executes `method` with `args`, returning the result value or an
    /// application-level error message that is forwarded to the caller.
    ///
    /// # Errors
    ///
    /// The `Err` string is delivered to the remote caller as
    /// [`crate::CallError::Remote`].
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String>;
}

impl<F> RemoteObject for F
where
    F: Fn(&str, &[Value]) -> Result<Value, String> + Send + Sync + 'static,
{
    fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
        self(method, args)
    }
}

static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);

/// How long a serve loop waits for a delivery before it looks at its stop
/// and crash flags again; bounds shutdown latency.
const POLL: Duration = Duration::from_millis(20);

pub(crate) fn fresh_instance_name(oid: &str) -> String {
    let n = NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed);
    // The process id is part of the name: instances in different OS
    // processes can share one remote broker (crates/net), and a bare
    // counter would collide there — two "instance 1" queues would become
    // one competing-consumer queue, splitting every multicast in half.
    format!("omq.inst.{oid}.{}-{n}", std::process::id())
}

/// Handle to one bound server object instance.
///
/// The instance runs two skeleton threads: one consuming the shared unicast
/// queue `oid` (competing with the other instances — this is the load
/// balancing), and one consuming this instance's private queue bound to the
/// `oid` fanout exchange (multicast deliveries).
#[derive(Debug)]
pub struct ServerHandle {
    oid: String,
    instance: String,
    stats: Arc<ServiceStats>,
    stop: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    mq: Arc<dyn Messaging>,
}

impl ServerHandle {
    /// The object id this instance serves.
    pub fn oid(&self) -> &str {
        &self.oid
    }

    /// The private (multicast) queue name of this instance.
    pub fn instance_name(&self) -> &str {
        &self.instance
    }

    /// Introspection counters of this instance (`HasObjectInfo`).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Whether the instance is still running.
    pub fn is_alive(&self) -> bool {
        !self.stop.load(Ordering::Acquire) && !self.crash.load(Ordering::Acquire)
    }

    /// Graceful shutdown: in-flight work is finished and acknowledged, the
    /// private queue is removed, and the threads are joined.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = self.mq.delete_queue(&self.instance);
    }

    /// Simulated crash: the instance stops *without acknowledging* whatever
    /// it is processing, so the broker redelivers that invocation to another
    /// instance (paper §3.4). The private queue is left behind, exactly like
    /// a process that died.
    pub fn kill(mut self) {
        self.crash.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Signal the threads; they exit within one poll interval. We do not
        // join here so dropping a handle can never block.
        self.stop.store(true, Ordering::Release);
    }
}

pub(crate) struct SkeletonConfig {
    pub mq: Arc<dyn Messaging>,
    pub codec: Arc<dyn Codec>,
    pub oid: String,
    pub instance: String,
}

/// Spawns the two skeleton threads for one object instance.
pub(crate) fn spawn_instance(
    config: SkeletonConfig,
    unicast: Box<dyn MessageConsumer>,
    multicast: Box<dyn MessageConsumer>,
    object: Arc<dyn RemoteObject>,
) -> OmqResult<ServerHandle> {
    let stats = Arc::new(ServiceStats::new());
    let stop = Arc::new(AtomicBool::new(false));
    let crash = Arc::new(AtomicBool::new(false));

    let mut threads = Vec::with_capacity(2);
    for consumer in [unicast, multicast] {
        let loop_ctx = LoopCtx {
            mq: config.mq.clone(),
            codec: config.codec.clone(),
            object: object.clone(),
            stats: stats.clone(),
            stop: stop.clone(),
            crash: crash.clone(),
        };
        threads.push(std::thread::spawn(move || serve_loop(loop_ctx, consumer)));
    }

    Ok(ServerHandle {
        oid: config.oid,
        instance: config.instance,
        stats,
        stop,
        crash,
        threads,
        mq: config.mq,
    })
}

struct LoopCtx {
    mq: Arc<dyn Messaging>,
    codec: Arc<dyn Codec>,
    object: Arc<dyn RemoteObject>,
    stats: Arc<ServiceStats>,
    stop: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
}

fn serve_loop(ctx: LoopCtx, consumer: Box<dyn MessageConsumer>) {
    // Global `omq.*` skeleton counters, resolved once per serve thread.
    let dispatched = obs::counter("omq.dispatches_total");
    let panics = obs::counter("omq.dispatch_panics_total");
    let malformed = obs::counter("omq.malformed_requests_total");
    // `omq.service_seconds.{method}` and `omq.response_seconds.{method}`,
    // looked up in the registry the first time this thread serves a method.
    let mut method_seconds: HashMap<String, [Arc<obs::Histogram>; 2]> = HashMap::new();
    loop {
        if ctx.stop.load(Ordering::Acquire) || ctx.crash.load(Ordering::Acquire) {
            return;
        }
        let delivery = match consumer.recv_timeout(POLL) {
            Ok(d) => d,
            Err(mqsim::MqError::RecvTimeout) => continue,
            Err(_) => return, // queue deleted or broker gone
        };
        if ctx.crash.load(Ordering::Acquire) {
            // Crashed while a message was in hand: drop it unacked.
            drop(delivery);
            return;
        }
        let queued_since = delivery.message.enqueued_at();
        let started = Instant::now();
        ctx.stats.set_busy(true);

        let request = match decode_request(ctx.codec.as_ref(), delivery.message.payload()) {
            Ok(r) => r,
            Err(_) => {
                // Malformed request: poison message, ack and drop so it does
                // not loop forever through redelivery.
                malformed.inc();
                ctx.stats.set_busy(false);
                delivery.ack();
                continue;
            }
        };

        // Trace linkage: the publisher's context rides in the message
        // properties. Synthesize the queue-residency span under it, then
        // nest dispatch and handler execution below that, so one RPC reads
        // as proxy.publish → queue.wait → skeleton.dispatch → handler.exec
        // → reply.publish in the ring buffer.
        let trace_parent = delivery
            .message
            .properties()
            .trace
            .as_deref()
            .and_then(obs::SpanContext::decode);
        let dispatch_span = trace_parent.map(|parent| {
            let now = obs::now_ns();
            let wait_ns = queued_since
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            let qctx = obs::record_manual("queue.wait", &parent, now.saturating_sub(wait_ns), now);
            obs::Span::start_child_of("skeleton.dispatch", &qctx)
        });
        let mut exec_span = dispatch_span.as_ref().map(|d| d.child("handler.exec"));

        let Request { id, method, args } = request;
        // Install the exec context so nested code (handlers issuing their
        // own calls, services tagging workspaces) links into this trace.
        let prev = obs::set_current(exec_span.as_ref().map(|s| s.context()));
        // The arguments move into the call and are freed when it returns.
        let outcome = catch_unwind(AssertUnwindSafe(|| ctx.object.dispatch(&method, &args)));
        drop(args);
        obs::set_current(prev);
        let notes = obs::take_annotations();
        ctx.stats.set_busy(false);

        let outcome = match outcome {
            Ok(r) => r,
            Err(_) => {
                // The object panicked mid-call: treat it like a crash. The
                // unacked delivery is requeued for another instance and this
                // skeleton dies (the Supervisor will respawn it).
                panics.inc();
                ctx.crash.store(true, Ordering::Release);
                drop(delivery);
                return;
            }
        };

        let service = started.elapsed();
        let response_time = queued_since.map(|t| t.elapsed()).unwrap_or(service);
        ctx.stats.record(service, response_time);
        dispatched.inc();
        if !method_seconds.contains_key(&method) {
            let resolved = [
                obs::histogram(&format!("omq.service_seconds.{method}")),
                obs::histogram(&format!("omq.response_seconds.{method}")),
            ];
            method_seconds.insert(method.clone(), resolved);
        }
        let [service_seconds, response_seconds] = &method_seconds[&method];
        service_seconds.record(service);
        response_seconds.record(response_time);
        if let Some(exec) = exec_span.as_mut() {
            for note in notes {
                exec.note(note);
            }
        }
        if let Some(exec) = exec_span {
            exec.finish();
        }

        if let Some(reply_to) = delivery.message.properties().reply_to.clone() {
            let response = Response {
                id: id.clone(),
                outcome,
            };
            let payload = wire::encode_to_bytes(ctx.codec.as_ref(), &response.into_value());
            let props = MessageProperties {
                correlation_id: Some(id),
                reply_to: None,
                content_type: Some(format!("omq/{}", ctx.codec.name())),
                persistent: true,
                trace: None,
            };
            let reply_span = dispatch_span.as_ref().map(|d| d.child("reply.publish"));
            // A missing reply queue means the client left; that is fine.
            let _ = ctx
                .mq
                .publish_to_queue(&reply_to, Message::with_properties(payload, props));
            if let Some(span) = reply_span {
                span.finish();
            }
        }
        if let Some(span) = dispatch_span {
            span.finish();
        }

        if ctx.crash.load(Ordering::Acquire) {
            drop(delivery); // crash between processing and ack: redeliver
            return;
        }
        delivery.ack();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_objects_implement_remote_object() {
        let obj = |method: &str, _args: &[Value]| -> Result<Value, String> {
            Ok(Value::from(method.to_string()))
        };
        assert_eq!(obj.dispatch("m", &[]), Ok(Value::from("m")));
    }

    #[test]
    fn instance_names_are_unique_per_oid() {
        let a = fresh_instance_name("svc");
        let b = fresh_instance_name("svc");
        assert_ne!(a, b);
        assert!(a.starts_with("omq.inst.svc."));
    }
}
