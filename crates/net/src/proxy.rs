//! A byte-level TCP fault proxy: the network choke point of the
//! fault-injection harness (`crates/faultsim`).
//!
//! A [`FaultProxy`] sits between a [`crate::NetBroker`] and a
//! [`crate::BrokerServer`] and forwards raw bytes in both directions.
//! Tests steer it to reproduce network failure modes the loopback socket
//! alone can never show:
//!
//! * [`FaultProxy::sever_all`] — cut every live link, mid-frame if bytes
//!   are in flight, like a pulled cable. New connections still go through,
//!   so clients ride their reconnect path.
//! * [`FaultProxy::set_stalled`] — park forwarding without closing
//!   sockets: a black-hole partition. Bytes read while stalled are *lost*
//!   if the link is severed before the stall lifts, which is exactly how a
//!   reply can vanish in a real partition.
//! * [`FaultProxy::corrupt_to_client`] — overwrite the next `n` bytes
//!   forwarded toward the client with `0xFF`, turning a frame's length
//!   prefix into a ~4 GiB claim. The client must reject it *before*
//!   allocating (see [`crate::MAX_FRAME`]).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

struct ProxyState {
    stop: AtomicBool,
    stalled: AtomicBool,
    /// Bytes still to corrupt on the server→client leg.
    corrupt_to_client: Mutex<usize>,
    /// Live sockets, closed by `sever_all`. Each link contributes both of
    /// its streams.
    links: Mutex<Vec<TcpStream>>,
    links_opened: AtomicU64,
    bytes_forwarded: AtomicU64,
}

impl ProxyState {
    /// Consumes up to `len` from the server→client corruption budget.
    fn corruption_budget(&self, len: usize) -> usize {
        let mut remaining = self.corrupt_to_client.lock();
        let take = (*remaining).min(len);
        *remaining -= take;
        take
    }
}

/// A controllable TCP relay for fault injection. See the module docs.
pub struct FaultProxy {
    local_addr: SocketAddr,
    state: Arc<ProxyState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for FaultProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultProxy")
            .field("local_addr", &self.local_addr)
            .field("links_opened", &self.links_opened())
            .finish()
    }
}

impl FaultProxy {
    /// Starts a proxy on an ephemeral loopback port relaying to `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates listener-binding failures.
    pub fn start(upstream: SocketAddr) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            stop: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            corrupt_to_client: Mutex::new(0),
            links: Mutex::new(Vec::new()),
            links_opened: AtomicU64::new(0),
            bytes_forwarded: AtomicU64::new(0),
        });
        let accept_state = state.clone();
        let accept_thread = std::thread::spawn(move || {
            accept_loop(&listener, upstream, &accept_state);
        });
        Ok(FaultProxy {
            local_addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    /// Address clients should dial instead of the real server.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Cuts every live link immediately (mid-frame if bytes are queued).
    /// Future connections are unaffected.
    pub fn sever_all(&self) {
        let mut links = self.state.links.lock();
        for stream in links.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Pauses (`true`) or resumes (`false`) forwarding on all links. While
    /// stalled, sockets stay open but no byte moves: a black-hole
    /// partition.
    pub fn set_stalled(&self, stalled: bool) {
        self.state.stalled.store(stalled, Ordering::Release);
    }

    /// Corrupts the next `n` bytes forwarded toward the *client* with
    /// `0xFF`.
    pub fn corrupt_to_client(&self, n: usize) {
        *self.state.corrupt_to_client.lock() += n;
    }

    /// Total connections accepted since start.
    pub fn links_opened(&self) -> u64 {
        self.state.links_opened.load(Ordering::Acquire)
    }

    /// Total bytes forwarded across all links and directions.
    pub fn bytes_forwarded(&self) -> u64 {
        self.state.bytes_forwarded.load(Ordering::Acquire)
    }

    /// Stops the proxy: severs all links and stops accepting.
    pub fn shutdown(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        self.sever_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, upstream: SocketAddr, state: &Arc<ProxyState>) {
    while !state.stop.load(Ordering::Acquire) {
        let Ok((client, _peer)) = listener.accept() else {
            return;
        };
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2)) else {
            // Upstream refused: drop the client so it sees a failed link.
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let _ = client.set_nodelay(true);
        let _ = server.set_nodelay(true);
        state.links_opened.fetch_add(1, Ordering::AcqRel);
        spawn_pump(client.try_clone(), server.try_clone(), true, state);
        spawn_pump(server.try_clone(), client.try_clone(), false, state);
        let mut links = state.links.lock();
        links.push(client);
        links.push(server);
    }
}

fn spawn_pump(
    from: std::io::Result<TcpStream>,
    to: std::io::Result<TcpStream>,
    to_server: bool,
    state: &Arc<ProxyState>,
) {
    let (Ok(from), Ok(to)) = (from, to) else {
        return;
    };
    let state = state.clone();
    std::thread::spawn(move || {
        pump(from, to, to_server, &state);
    });
}

/// Forwards bytes one chunk at a time, honoring stall and corruption
/// controls. Exits when either side closes or the proxy stops; the streams
/// are shut down on exit so the twin pump exits too.
fn pump(mut from: TcpStream, mut to: TcpStream, to_server: bool, state: &Arc<ProxyState>) {
    let mut buf = [0u8; 8 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        // A stalled proxy holds the chunk. If the link is severed while we
        // hold it, the write below fails and the bytes are lost — like a
        // packet in flight when the partition hit.
        while state.stalled.load(Ordering::Acquire) && !state.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        let corrupt = if to_server {
            0
        } else {
            state.corruption_budget(n)
        };
        buf[..corrupt].fill(0xFF);
        if to.write_all(&buf[..n]).is_err() {
            break;
        }
        state.bytes_forwarded.fetch_add(n as u64, Ordering::AcqRel);
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BrokerServer, NetBroker, NetConfig};
    use mqsim::{Message, MessageBroker, Messaging, QueueOptions};

    fn proxied_pair() -> (BrokerServer, FaultProxy, NetBroker) {
        let server = BrokerServer::bind("127.0.0.1:0", MessageBroker::new()).unwrap();
        let proxy = FaultProxy::start(server.local_addr()).unwrap();
        let client = NetBroker::connect_with(
            proxy.local_addr(),
            NetConfig {
                op_timeout: Duration::from_secs(5),
                heartbeat: Duration::from_millis(100),
                ..NetConfig::default()
            },
        )
        .unwrap();
        (server, proxy, client)
    }

    #[test]
    fn relays_transparently() {
        let (server, mut proxy, client) = proxied_pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        client
            .publish_to_queue("q", Message::from_static(b"via-proxy"))
            .unwrap();
        assert_eq!(client.queue_stats("q").unwrap().depth, 1);
        assert!(proxy.bytes_forwarded() > 0);
        assert_eq!(proxy.links_opened(), 1);
        client.close();
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn sever_forces_reconnect_through_proxy() {
        let (server, mut proxy, client) = proxied_pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        proxy.sever_all();
        // The client reconnects (through the proxy again) and the retry
        // layer rides the request across the cut.
        client
            .publish_to_queue("q", Message::from_static(b"again"))
            .unwrap();
        assert_eq!(client.queue_stats("q").unwrap().depth, 1);
        assert!(proxy.links_opened() >= 2, "reconnect must open a new link");
        client.close();
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn stall_black_holes_until_released() {
        let (server, mut proxy, client) = proxied_pair();
        client.declare_queue("q", QueueOptions::default()).unwrap();
        proxy.set_stalled(true);
        let publisher = client.clone();
        let h = std::thread::spawn(move || {
            publisher.publish_to_queue("q", Message::from_static(b"held"))
        });
        std::thread::sleep(Duration::from_millis(150));
        assert!(!h.is_finished(), "publish must hang while stalled");
        proxy.set_stalled(false);
        h.join().unwrap().unwrap();
        assert_eq!(client.queue_stats("q").unwrap().depth, 1);
        client.close();
        proxy.shutdown();
        server.shutdown();
    }
}
