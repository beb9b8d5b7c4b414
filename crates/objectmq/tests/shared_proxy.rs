//! One `Proxy` shared by many threads: every caller gets its own reply,
//! promptly, and every call runs exactly once on the object.
//!
//! The callers share one private response queue. A reply read by one
//! caller on behalf of another must reach its owner while the owner is
//! still waiting, not after the owner's own wait times out.

use objectmq::{Broker, Proxy, ServerHandle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use wire::Value;

const CALLERS: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(1);

/// How many times the object ran each call, by tag.
type Runs = Arc<Mutex<HashMap<i64, u32>>>;

/// Four instances of an echo object (so replies come back out of request
/// order) that count the runs of each tag, and a proxy to them. The call
/// tagged `slow` takes 300 ms.
fn echo_pool(slow: Option<i64>) -> (Vec<ServerHandle>, Arc<Proxy>, Runs) {
    let broker = Broker::in_process();
    let seen: Runs = Arc::new(Mutex::new(HashMap::new()));
    let servers = (0..4)
        .map(|_| {
            let seen = seen.clone();
            broker
                .bind("echo", move |_m: &str, args: &[Value]| {
                    let tag = args[0].as_i64().map_err(|e| e.to_string())?;
                    *seen.lock().entry(tag).or_default() += 1;
                    if Some(tag) == slow {
                        thread::sleep(Duration::from_millis(300));
                    }
                    Ok(Value::I64(tag))
                })
                .unwrap()
        })
        .collect();
    (servers, Arc::new(broker.lookup("echo").unwrap()), seen)
}

fn call(proxy: &Proxy, tag: i64) -> (i64, Result<Value, objectmq::CallError>, Duration) {
    let began = Instant::now();
    let reply = proxy.call_sync("echo", vec![Value::I64(tag)], TIMEOUT, 0);
    (tag, reply, began.elapsed())
}

fn assert_each_ran_once(seen: &Runs, calls: usize) {
    let seen = seen.lock();
    assert_eq!(seen.len(), calls, "every call reached the object");
    assert!(
        seen.values().all(|&runs| runs == 1),
        "every call ran exactly once"
    );
}

#[test]
fn concurrent_callers_on_one_proxy_each_get_their_reply() {
    const ROUNDS: usize = 40;
    let (servers, proxy, seen) = echo_pool(None);
    for round in 0..ROUNDS {
        let start = Arc::new(Barrier::new(CALLERS));
        let callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let proxy = proxy.clone();
                let start = start.clone();
                let tag = (round * CALLERS + caller) as i64;
                thread::spawn(move || {
                    start.wait();
                    call(&proxy, tag)
                })
            })
            .collect();
        for caller in callers {
            let (tag, reply, took) = caller.join().unwrap();
            assert_eq!(
                reply,
                Ok(Value::I64(tag)),
                "round {round}: call {tag} lost its reply"
            );
            assert!(
                took < TIMEOUT / 2,
                "round {round}: call {tag} took {took:?} against a {TIMEOUT:?} timeout"
            );
        }
    }
    assert_each_ran_once(&seen, CALLERS * ROUNDS);
    for server in servers {
        server.shutdown();
    }
}

#[test]
fn a_reply_read_by_a_slow_caller_wakes_its_owner() {
    // The slow call goes first and reads the response queue while its own
    // reply takes 300 ms; the fast replies it reads meanwhile must wake
    // their owners at once.
    let (servers, proxy, seen) = echo_pool(Some(0));
    let slow = {
        let proxy = proxy.clone();
        thread::spawn(move || call(&proxy, 0))
    };
    thread::sleep(Duration::from_millis(50));
    let fast: Vec<_> = (1..CALLERS as i64)
        .map(|tag| {
            let proxy = proxy.clone();
            thread::spawn(move || call(&proxy, tag))
        })
        .collect();
    for caller in fast {
        let (tag, reply, took) = caller.join().unwrap();
        assert_eq!(reply, Ok(Value::I64(tag)));
        assert!(
            took < Duration::from_millis(150),
            "call {tag} waited {took:?} for a slower caller's reply"
        );
    }
    let (_, reply, _) = slow.join().unwrap();
    assert_eq!(reply, Ok(Value::I64(0)));
    assert_each_ran_once(&seen, CALLERS);
    for server in servers {
        server.shutdown();
    }
}
