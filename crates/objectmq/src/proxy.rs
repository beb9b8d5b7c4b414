//! Client side: dynamic stubs (proxies) and the invocation primitives.

use crate::error::{CallError, CallResult, OmqError};
use crate::rpc::{fresh_id, read_response, response_id, Request};
use mqsim::{Message, MessageConsumer, MessageProperties, Messaging};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{Codec, TokenReader, Value, WireResult};

/// A dynamic client stub for a remote object bound to an `oid`.
///
/// The proxy owns a private response queue, mirroring Fig. 1 of the paper
/// ("every stub has its own queue to receive responses"). It is obtained
/// through [`crate::Broker::lookup`]; no stub compilation or preprocessing
/// is involved, and the stub never needs to know how many server instances
/// exist or where they run.
pub struct Proxy {
    mq: Arc<dyn Messaging>,
    codec: Arc<dyn Codec>,
    oid: String,
    multi_exchange: String,
    response_queue: String,
    response_consumer: Box<dyn MessageConsumer>,
    inbox: Mutex<Inbox>,
    /// Signalled when a response is stashed for a waiter and when the
    /// reader leaves the consumer.
    inbox_changed: Condvar,
    obs: ProxyObs,
}

/// The response-queue state shared by the threads calling one proxy. One
/// caller at a time reads the consumer; it stashes every response that is
/// not its own here, as received, for the caller it belongs to, which reads
/// it.
#[derive(Default)]
struct Inbox {
    /// Responses that arrived while waiting for a different correlation id.
    pending: HashMap<String, Vec<Message>>,
    /// Whether a caller is reading the consumer.
    reading: bool,
    /// Callers blocked on `inbox_changed`. A lone caller never waits, so it
    /// is never signalled either.
    waiting: usize,
}

impl Inbox {
    fn take(&mut self, id: &str) -> Option<Message> {
        let waiting = self.pending.get_mut(id)?;
        let response = waiting.pop();
        if waiting.is_empty() {
            self.pending.remove(id);
        }
        response
    }
}

/// Observability handles shared by all proxies (global `omq.*` family),
/// resolved once per stub so invocation hot paths skip the registry.
struct ProxyObs {
    calls: Arc<obs::Counter>,
    retries: Arc<obs::Counter>,
    timeouts: Arc<obs::Counter>,
    call_latency: Arc<obs::Histogram>,
}

impl ProxyObs {
    fn new() -> Self {
        ProxyObs {
            calls: obs::counter("omq.calls_total"),
            retries: obs::counter("omq.call_retries_total"),
            timeouts: obs::counter("omq.call_timeouts_total"),
            call_latency: obs::histogram("omq.call_seconds"),
        }
    }
}

impl std::fmt::Debug for Proxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Proxy")
            .field("oid", &self.oid)
            .field("response_queue", &self.response_queue)
            .finish()
    }
}

impl Proxy {
    pub(crate) fn new(
        mq: Arc<dyn Messaging>,
        codec: Arc<dyn Codec>,
        oid: String,
        multi_exchange: String,
        response_queue: String,
        response_consumer: Box<dyn MessageConsumer>,
    ) -> Self {
        Proxy {
            mq,
            codec,
            oid,
            multi_exchange,
            response_queue,
            response_consumer,
            inbox: Mutex::new(Inbox::default()),
            inbox_changed: Condvar::new(),
            obs: ProxyObs::new(),
        }
    }

    /// The object id this proxy talks to.
    pub fn oid(&self) -> &str {
        &self.oid
    }

    /// A fresh invocation: its id and the message carrying it. The
    /// arguments move into the envelope, and a retry publishes a clone of
    /// the message, which shares the encoded bytes.
    fn request_message(
        &self,
        method: &str,
        args: Vec<Value>,
        expect_reply: bool,
        trace: &obs::SpanContext,
    ) -> (String, Message) {
        let id = fresh_id();
        let request = Request {
            id: id.clone(),
            method: method.to_string(),
            args,
        };
        let payload = wire::encode_to_bytes(self.codec.as_ref(), &request.into_value());
        let props = MessageProperties {
            reply_to: expect_reply.then(|| self.response_queue.clone()),
            trace: Some(trace.encode()),
        };
        (id, Message::with_properties(payload, props))
    }

    /// Opens the root span for one invocation, parented under the caller's
    /// thread-local context when inside an already-traced handler.
    fn invocation_span(&self, name: &'static str, method: &str) -> obs::Span {
        let mut span = match obs::current() {
            Some(parent) => obs::Span::start_child_of(name, &parent),
            None => obs::Span::start(name),
        };
        span.note(format!("oid:{}", self.oid));
        span.note(format!("method:{method}"));
        span
    }

    /// `@AsyncMethod`: fire-and-forget unicast invocation. The message is
    /// queued durably; one idle server instance will process it. The
    /// client gets no confirmation (paper §3.2).
    ///
    /// # Errors
    ///
    /// Only middleware errors (e.g. the `oid` queue disappeared) are
    /// reported; remote failures are invisible by design.
    pub fn call_async(&self, method: &str, args: Vec<Value>) -> CallResult<()> {
        self.obs.calls.inc();
        let root = self.invocation_span("omq.call_async", method);
        let (_, message) = self.request_message(method, args, false, &root.context());
        let publish = root.child("proxy.publish");
        let published = self.mq.publish_to_queue(&self.oid, message);
        publish.finish();
        root.finish();
        published.map_err(CallError::from)
    }

    /// `@SyncMethod(retry, timeout)`: blocking unicast invocation. Publishes
    /// the request and waits for the correlated response on the proxy's
    /// private queue; on timeout the request is republished up to `retries`
    /// additional times.
    ///
    /// # Errors
    ///
    /// [`CallError::Timeout`] after all attempts, [`CallError::Remote`] if
    /// the server object returned an error, [`CallError::Middleware`] if
    /// the response does not decode.
    pub fn call_sync(
        &self,
        method: &str,
        args: Vec<Value>,
        timeout: Duration,
        retries: u32,
    ) -> CallResult<Value> {
        self.call_sync_with(method, args, timeout, retries, |r| r.value(1))
    }

    /// [`Proxy::call_sync`] whose result `read` takes from the codec's
    /// reader, in place in the response: no [`Value`] tree is built unless
    /// `read` builds one. The value sits inside the response's map (depth
    /// 1), and `read` reads exactly it.
    ///
    /// # Errors
    ///
    /// As [`Proxy::call_sync`]; an error of `read` is a
    /// [`CallError::Middleware`].
    pub fn call_sync_with<T>(
        &self,
        method: &str,
        args: Vec<Value>,
        timeout: Duration,
        retries: u32,
        read: impl FnOnce(&mut dyn TokenReader<'_>) -> WireResult<T>,
    ) -> CallResult<T> {
        self.obs.calls.inc();
        let root = self.invocation_span("omq.call_sync", method);
        let ctx = root.context();
        let (id, message) = self.request_message(method, args, true, &ctx);
        let started = Instant::now();
        let mut attempts = 0;
        let result = loop {
            attempts += 1;
            if attempts > 1 {
                self.obs.retries.inc();
            }
            let publish = obs::Span::start_child_of("proxy.publish", &ctx);
            let published = self.mq.publish_to_queue(&self.oid, message.clone());
            publish.finish();
            if let Err(e) = published {
                break Err(CallError::from(e));
            }
            let wait = obs::Span::start_child_of("reply.wait", &ctx);
            let response = self.recv_correlated(&id, timeout);
            wait.finish();
            match response {
                Some(response) => break self.outcome(&response, read),
                None if attempts > retries => {
                    self.obs.timeouts.inc();
                    break Err(CallError::Timeout { attempts });
                }
                None => continue,
            }
        };
        self.obs.call_latency.record(started.elapsed());
        root.finish();
        result
    }

    /// `@MultiMethod @AsyncMethod`: non-blocking one-to-many invocation.
    /// The request is published through the `oid` fanout exchange and every
    /// bound instance receives a copy in its private queue. Returns how many
    /// instances were reached.
    ///
    /// # Errors
    ///
    /// Middleware errors only (e.g. the fanout exchange is gone).
    pub fn call_multi_async(&self, method: &str, args: Vec<Value>) -> CallResult<usize> {
        self.obs.calls.inc();
        let root = self.invocation_span("omq.call_multi_async", method);
        let (_, message) = self.request_message(method, args, false, &root.context());
        let publish = root.child("proxy.publish");
        let published = self.mq.publish(&self.multi_exchange, message);
        publish.finish();
        root.finish();
        published.map_err(CallError::from)
    }

    /// `@MultiMethod @SyncMethod`: blocking one-to-many invocation that
    /// collects the replies received within `timeout`. Remote-side errors
    /// are returned as `Err` entries; the vector length is at most the
    /// number of instances reached.
    ///
    /// # Errors
    ///
    /// Middleware errors only; an empty pool yields an empty vector.
    pub fn call_multi_sync(
        &self,
        method: &str,
        args: Vec<Value>,
        timeout: Duration,
    ) -> CallResult<Vec<Result<Value, String>>> {
        self.obs.calls.inc();
        let root = self.invocation_span("omq.call_multi_sync", method);
        let ctx = root.context();
        let (id, message) = self.request_message(method, args, true, &ctx);
        let publish = root.child("proxy.publish");
        let published = self.mq.publish(&self.multi_exchange, message);
        publish.finish();
        let expected = match published {
            Ok(n) => n,
            Err(e) => {
                root.finish();
                return Err(CallError::from(e));
            }
        };
        let mut results = Vec::with_capacity(expected);
        let deadline = Instant::now() + timeout;
        let wait = obs::Span::start_child_of("reply.wait", &ctx);
        while results.len() < expected {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.recv_correlated(&id, deadline - now) {
                Some(response) => match self.outcome(&response, |r| r.value(1)) {
                    Ok(value) => results.push(Ok(value)),
                    Err(CallError::Remote(message)) => results.push(Err(message)),
                    // A response that does not decode is dropped.
                    Err(_) => {}
                },
                None => break,
            }
        }
        wait.finish();
        root.finish();
        Ok(results)
    }

    /// What `response` says: `read`'s result, or the error the remote
    /// object raised or the response's decoding met.
    fn outcome<T>(
        &self,
        response: &Message,
        read: impl FnOnce(&mut dyn TokenReader<'_>) -> WireResult<T>,
    ) -> CallResult<T> {
        match read_response(self.codec.as_ref(), response.payload(), read) {
            Ok(outcome) => outcome.map_err(CallError::Remote),
            Err(e) => Err(CallError::Middleware(OmqError::Wire(e))),
        }
    }

    /// Waits until a response with correlation id `id` arrives or the
    /// timeout elapses. A proxy may be shared across threads: the first
    /// caller to find the consumer free reads it, stashing other callers'
    /// responses and waking them, and hands the consumer on when it leaves.
    fn recv_correlated(&self, id: &str, timeout: Duration) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        let mut inbox = self.inbox.lock();
        loop {
            if let Some(r) = inbox.take(id) {
                return Some(r);
            }
            if !inbox.reading {
                break;
            }
            inbox.waiting += 1;
            let waited = self.inbox_changed.wait_until(&mut inbox, deadline);
            inbox.waiting -= 1;
            if waited.timed_out() {
                return inbox.take(id);
            }
        }
        inbox.reading = true;
        drop(inbox);
        let response = self.read_consumer(id, deadline);
        let mut inbox = self.inbox.lock();
        inbox.reading = false;
        if inbox.waiting > 0 {
            self.inbox_changed.notify_all();
        }
        response
    }

    /// Reads the response queue until a response for `id` arrives or the
    /// deadline passes. Only the caller holding the reader role calls this.
    /// A response is read only as far as its id: its caller reads the rest.
    fn read_consumer(&self, id: &str, deadline: Instant) -> Option<Message> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let delivery = self.response_consumer.recv_timeout(deadline - now).ok()?;
            let message = delivery.message.clone();
            delivery.ack();
            // A response without a readable id is dropped.
            let Ok(named) = response_id(self.codec.as_ref(), message.payload()) else {
                continue;
            };
            if named == id {
                return Some(message);
            }
            let mut inbox = self.inbox.lock();
            inbox.pending.entry(named).or_default().push(message);
            if inbox.waiting > 0 {
                self.inbox_changed.notify_all();
            }
        }
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        // The response queue is private to this stub; remove it like an
        // AMQP auto-delete queue.
        let _ = self.mq.delete_queue(&self.response_queue);
    }
}

/// Errors surfaced when creating a proxy.
pub(crate) fn unknown_object(oid: &str) -> OmqError {
    OmqError::UnknownObject(oid.to_string())
}

#[allow(dead_code)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Proxy>();
}

#[cfg(test)]
mod tests {
    use crate::{Broker, CallError, RemoteObject};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;
    use wire::Value;

    const T: Duration = Duration::from_millis(500);

    struct Echo;
    impl RemoteObject for Echo {
        fn dispatch(&self, method: &str, args: &[Value]) -> Result<Value, String> {
            match method {
                "echo" => Ok(args.first().cloned().unwrap_or(Value::Null)),
                "fail" => Err("intentional".into()),
                other => Err(format!("unknown method {other}")),
            }
        }
    }

    #[test]
    fn response_wait_holds_deadline_under_unrelated_traffic() {
        use mqsim::{Message, MessageBroker, Messaging, QueueOptions};
        use std::sync::atomic::AtomicBool;
        use std::time::Instant;

        let mq: Arc<dyn Messaging> = Arc::new(MessageBroker::new());
        let codec: Arc<dyn wire::Codec> = Arc::new(wire::BinaryCodec);
        mq.declare_queue("resp", QueueOptions::default()).unwrap();
        let consumer = mq.subscribe("resp").unwrap();
        let proxy = super::Proxy::new(
            mq.clone(),
            codec.clone(),
            "oid".into(),
            "x".into(),
            "resp".into(),
            consumer,
        );

        // Flood the shared response queue with responses for *other*
        // callers. Each one wakes the waiter, which stashes it and must
        // re-arm with the remaining time — re-arming with the full timeout
        // would postpone the deadline forever under this traffic.
        let stop = Arc::new(AtomicBool::new(false));
        let noise_stop = stop.clone();
        let noise_mq = mq.clone();
        let noise_codec = codec.clone();
        let noise = std::thread::spawn(move || {
            let mut i = 0u64;
            while !noise_stop.load(Ordering::Acquire) {
                let mut payload = Vec::new();
                crate::rpc::write_response(
                    noise_codec.as_ref(),
                    &format!("other-{i}"),
                    &mut payload,
                    |w| {
                        w.null();
                        Ok(())
                    },
                );
                let _ = noise_mq.publish_to_queue("resp", Message::from_bytes(payload));
                i += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
        });

        let timeout = Duration::from_millis(300);
        let started = Instant::now();
        let got = proxy.recv_correlated("wanted", timeout);
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Release);
        noise.join().unwrap();

        assert!(got.is_none());
        assert!(elapsed >= timeout, "woke early after {elapsed:?}");
        assert!(
            elapsed < timeout * 3,
            "await_response drifted past its deadline: {elapsed:?}"
        );
    }

    #[test]
    fn sync_call_roundtrip() {
        let broker = Broker::in_process();
        let _server = broker.bind("echo", Echo).unwrap();
        let proxy = broker.lookup("echo").unwrap();
        let v = proxy
            .call_sync("echo", vec![Value::from(42i64)], T, 0)
            .unwrap();
        assert_eq!(v, Value::I64(42));
    }

    #[test]
    fn remote_error_propagates() {
        let broker = Broker::in_process();
        let _server = broker.bind("echo", Echo).unwrap();
        let proxy = broker.lookup("echo").unwrap();
        let err = proxy.call_sync("fail", vec![], T, 0).unwrap_err();
        assert_eq!(err, CallError::Remote("intentional".into()));
    }

    #[test]
    fn async_call_is_processed() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = counter.clone();
        let broker = Broker::in_process();
        let _server = broker
            .bind("count", move |_m: &str, _a: &[Value]| {
                c2.fetch_add(1, Ordering::SeqCst);
                Ok(Value::Null)
            })
            .unwrap();
        let proxy = broker.lookup("count").unwrap();
        for _ in 0..5 {
            proxy.call_async("bump", vec![]).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while counter.load(Ordering::SeqCst) < 5 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn sync_call_times_out_without_server() {
        let broker = Broker::in_process();
        // Bind then shut the only instance down: queue exists, nobody serves.
        let server = broker.bind("ghost", Echo).unwrap();
        server.shutdown();
        let proxy = broker.lookup("ghost").unwrap();
        let err = proxy
            .call_sync("echo", vec![], Duration::from_millis(50), 2)
            .unwrap_err();
        assert_eq!(err, CallError::Timeout { attempts: 3 });
    }

    #[test]
    fn multi_sync_collects_all_instances() {
        let broker = Broker::in_process();
        let make = |tag: &'static str| {
            move |_m: &str, _a: &[Value]| -> Result<Value, String> { Ok(Value::from(tag)) }
        };
        let _s1 = broker.bind("grp", make("a")).unwrap();
        let _s2 = broker.bind("grp", make("b")).unwrap();
        let _s3 = broker.bind("grp", make("c")).unwrap();
        let proxy = broker.lookup("grp").unwrap();
        let results = proxy
            .call_multi_sync("who", vec![], Duration::from_secs(2))
            .unwrap();
        let mut tags: Vec<String> = results
            .into_iter()
            .map(|r| r.unwrap().as_str().unwrap().to_string())
            .collect();
        tags.sort();
        assert_eq!(tags, vec!["a", "b", "c"]);
    }

    #[test]
    fn multi_async_reaches_every_instance() {
        let counter = Arc::new(AtomicU64::new(0));
        let broker = Broker::in_process();
        let mut servers = Vec::new();
        for _ in 0..4 {
            let c = counter.clone();
            servers.push(
                broker
                    .bind("notify", move |_m: &str, _a: &[Value]| {
                        c.fetch_add(1, Ordering::SeqCst);
                        Ok(Value::Null)
                    })
                    .unwrap(),
            );
        }
        let proxy = broker.lookup("notify").unwrap();
        let reached = proxy.call_multi_async("ping", vec![]).unwrap();
        assert_eq!(reached, 4);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while counter.load(Ordering::SeqCst) < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn unicast_balances_across_instances() {
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let broker = Broker::in_process();
        let mk = |c: Arc<AtomicU64>| {
            move |_m: &str, _a: &[Value]| -> Result<Value, String> {
                c.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                Ok(Value::Null)
            }
        };
        let _s1 = broker.bind("lb", mk(a.clone())).unwrap();
        let _s2 = broker.bind("lb", mk(b.clone())).unwrap();
        let proxy = broker.lookup("lb").unwrap();
        for _ in 0..20 {
            proxy
                .call_sync("work", vec![], Duration::from_secs(2), 0)
                .unwrap();
        }
        let (ca, cb) = (a.load(Ordering::SeqCst), b.load(Ordering::SeqCst));
        assert_eq!(ca + cb, 20);
        assert!(
            ca > 0 && cb > 0,
            "both instances must share load ({ca}/{cb})"
        );
    }

    #[test]
    fn crashed_instance_redelivers_inflight_call() {
        let broker = Broker::in_process();
        // First instance panics on the first call, then a healthy instance
        // picks up the redelivered message.
        let flaky = |_m: &str, _a: &[Value]| -> Result<Value, String> {
            panic!("simulated crash mid-operation");
        };
        let crashy = broker.bind("svc", flaky).unwrap();
        let proxy = broker.lookup("svc").unwrap();
        // Async call so we do not block: it will crash the instance.
        proxy.call_async("anything", vec![]).unwrap();
        // Give the flaky instance time to die.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while crashy.is_alive() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !crashy.is_alive(),
            "panicking instance must self-report dead"
        );
        // Now bind a healthy instance; the unacked message must reach it.
        let healthy = broker
            .bind("svc", |_m: &str, _a: &[Value]| Ok(Value::from("done")))
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while healthy.stats().snapshot().processed == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            healthy.stats().snapshot().processed,
            1,
            "redelivered invocation must be processed exactly once by the healthy instance"
        );
    }
}
