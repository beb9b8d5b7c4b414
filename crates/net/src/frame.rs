//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is a `u32` big-endian length prefix followed by that many
//! bytes of a [`wire::BinaryCodec`]-encoded [`Value::Map`]. Requests carry a
//! client-chosen correlation id; the server answers each request with exactly
//! one `reply` frame echoing the id. `deliver` frames are server-initiated
//! pushes carrying a message toward a subscription; they answer no request,
//! so they carry no correlation id.
//!
//! A frame carries only what its reader reads, and the decoders accept
//! exactly what the encoders write: both ends are this build and there is
//! no version handshake, so a missing required field or a mistyped one is a
//! protocol error, never a default. A message's optional properties
//! (`reply_to`, `trace`) may be absent, but not of another type.
//!
//! The protocol is deliberately un-clever: no pipelining constraints, no
//! versioned handshake, text opcodes. Robustness against a hostile or
//! corrupt peer comes from [`MAX_FRAME`] (bounding allocation before it
//! happens) and the hardened binary codec underneath (truncated or malformed
//! bytes decode to `Err`, never a panic).

use mqsim::{Message, MessageProperties, MqError, QueueOptions, QueueStats};
use std::io::{Read, Write};
use std::time::Duration;
use wire::{BinaryCodec, Codec, Value};

/// Upper bound on the encoded size of one frame (16 MiB). Chunked content
/// transfer keeps application payloads far below this; anything larger is a
/// protocol violation, reported before any allocation is attempted.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors of the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent something that is not a valid frame.
    Protocol(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<FrameError> for MqError {
    fn from(e: FrameError) -> Self {
        MqError::Transport(e.to_string())
    }
}

/// Appends one length-prefixed frame to `out`. Returns the number of bytes
/// appended (prefix + body).
///
/// The body is encoded directly after a 4-byte placeholder that is patched
/// with the real length afterwards — no intermediate body buffer. This is
/// the building block for coalesced writes: callers append several frames
/// into one buffer and hand it to the socket in a single syscall.
///
/// # Errors
///
/// [`FrameError::Protocol`] if the encoded value exceeds [`MAX_FRAME`]; in
/// that case `out` is truncated back to its original length.
pub fn encode_frame_into(value: &Value, out: &mut Vec<u8>) -> Result<usize, FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    BinaryCodec.encode_into(value, out);
    let body_len = out.len() - start - 4;
    if body_len > MAX_FRAME {
        out.truncate(start);
        return Err(FrameError::Protocol(format!(
            "outgoing frame of {body_len} bytes exceeds MAX_FRAME"
        )));
    }
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_be_bytes());
    Ok(4 + body_len)
}

/// Writes one frame. Returns the number of bytes put on the wire.
///
/// Prefix and body go out in a single buffered write (one syscall on an
/// unbuffered socket), encoded through the thread-local [`wire::BufPool`]
/// so the hot path does not allocate.
///
/// # Errors
///
/// [`FrameError::Protocol`] if the encoded value exceeds [`MAX_FRAME`],
/// otherwise socket errors.
pub fn write_frame(w: &mut impl Write, value: &Value) -> Result<usize, FrameError> {
    wire::BufPool::with(|buf| {
        let n = encode_frame_into(value, buf)?;
        w.write_all(buf)?;
        w.flush()?;
        Ok(n)
    })
}

/// Reads one frame, blocking until a full frame arrives.
///
/// # Errors
///
/// [`FrameError::Eof`] on clean close at a frame boundary,
/// [`FrameError::Protocol`] on an oversized prefix or undecodable body.
pub fn read_frame(r: &mut impl Read) -> Result<(Value, usize), FrameError> {
    let mut prefix = [0u8; 4];
    match r.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Err(FrameError::Eof),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Protocol(format!(
            "incoming frame length {len} exceeds MAX_FRAME"
        )));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let value = BinaryCodec
        .decode(&body)
        .map_err(|e| FrameError::Protocol(format!("undecodable frame body: {e}")))?;
    Ok((value, 4 + len))
}

/// Incremental frame reader for sockets with a read timeout.
///
/// [`read_frame`] uses `read_exact`, which *discards* partially-read bytes
/// when the socket times out — resuming afterwards would desynchronize the
/// stream mid-frame. `FrameBuffer` instead accumulates bytes across calls:
/// a timeout in the middle of a frame returns `Ok(None)` (an idle tick for
/// the caller's heartbeat logic) and the partial frame is completed on the
/// next call.
#[derive(Debug)]
pub struct FrameBuffer {
    partial: Vec<u8>,
    /// Current read size. Starts at [`READAHEAD_MIN`] so an idle
    /// connection costs kilobytes, not [`READAHEAD`]; doubles toward
    /// [`READAHEAD`] whenever a read fills the whole ask (a busy peer), so
    /// hot connections still drain in large gulps. Matters when one process
    /// holds thousands of mostly-idle connections.
    readahead: usize,
}

/// Max bytes pulled per read.
const READAHEAD: usize = 64 * 1024;

/// Initial read size, before traffic justifies growing it.
const READAHEAD_MIN: usize = 4 * 1024;

impl FrameBuffer {
    /// Creates an empty buffer that reads up to 64 KiB per syscall
    /// regardless of frame boundaries. Pair with
    /// [`FrameBuffer::take_buffered`] to drain everything a single read
    /// pulled in — the receive half of the coalesced-write protocol.
    pub fn with_readahead() -> Self {
        FrameBuffer {
            partial: Vec::new(),
            readahead: READAHEAD_MIN,
        }
    }

    /// Pops one complete frame already sitting in the buffer, without
    /// touching the socket. `Ok(None)` when the buffered bytes end mid-frame
    /// (or the buffer is empty).
    ///
    /// # Errors
    ///
    /// [`FrameError::Protocol`] on an oversized prefix or undecodable body.
    pub fn take_buffered(&mut self) -> Result<Option<(Value, usize)>, FrameError> {
        if self.partial.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([
            self.partial[0],
            self.partial[1],
            self.partial[2],
            self.partial[3],
        ]) as usize;
        if len > MAX_FRAME {
            return Err(FrameError::Protocol(format!(
                "incoming frame length {len} exceeds MAX_FRAME"
            )));
        }
        if self.partial.len() < 4 + len {
            return Ok(None);
        }
        let value = BinaryCodec
            .decode(&self.partial[4..4 + len])
            .map_err(|e| FrameError::Protocol(format!("undecodable frame body: {e}")))?;
        self.partial.drain(..4 + len);
        Ok(Some((value, 4 + len)))
    }

    /// Makes progress on the current frame. Returns `Ok(Some(..))` with a
    /// complete frame, or `Ok(None)` if the read timed out (partial bytes
    /// are kept for the next call).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`read_frame`].
    pub fn read_step(&mut self, r: &mut impl Read) -> Result<Option<(Value, usize)>, FrameError> {
        loop {
            if let Some(ok) = self.take_buffered()? {
                return Ok(Some(ok));
            }
            let target = self.partial.len() + self.readahead;
            let have = self.partial.len();
            self.partial.resize(target, 0);
            let read = r.read(&mut self.partial[have..]);
            match read {
                Ok(0) => {
                    self.partial.truncate(have);
                    return Err(FrameError::Eof);
                }
                Ok(n) => {
                    self.partial.truncate(have + n);
                    if n == target - have {
                        // The peer filled the whole ask: read bigger next
                        // time, up to the cap.
                        self.readahead = (self.readahead * 2).min(READAHEAD);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    self.partial.truncate(have);
                    return Ok(None);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.partial.truncate(have);
                }
                Err(e) => {
                    self.partial.truncate(have);
                    return Err(FrameError::Io(e));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Request construction & parsing
// ---------------------------------------------------------------------------

/// One client request, decoded from its frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// `declare_queue(name, options)`
    DeclareQueue(String, QueueOptions),
    /// `delete_queue(name)`
    DeleteQueue(String),
    /// `declare_exchange(name)`
    DeclareExchange(String),
    /// `bind_queue(exchange, queue)`
    BindQueue(String, String),
    /// `queue_exists(name)`
    QueueExists(String),
    /// `publish_to_queue(queue, message)`
    PublishToQueue(String, Message),
    /// `publish(exchange, message)`
    Publish(String, Message),
    /// `subscribe(queue)` with a client-chosen subscription id and an
    /// initial delivery credit (backpressure window).
    Subscribe {
        /// Queue to consume from.
        queue: String,
        /// Client-chosen subscription id (stable across reconnects).
        sub: u64,
        /// Initial credit: max unacked deliveries in flight to the client.
        credit: u64,
    },
    /// Cancels a subscription.
    Unsubscribe(u64),
    /// Acknowledges deliveries of subscription `sub`, one or several in
    /// one frame; the freed credit is granted back cumulatively.
    AckMany(u64, Vec<u64>),
    /// Requeues delivery `tag` of subscription `sub`.
    Requeue(u64, u64),
    /// `queue_stats(name)`
    QueueStats(String),
    /// `queue_arrival_rate(name)`
    QueueArrivalRate(String),
    /// Liveness probe; the reply is the heartbeat.
    Ping,
    /// Connection handshake: the client introduces itself and the reply
    /// carries the broker's unix clock, which the client places at the
    /// midpoint of its own round trip to estimate its offset from the
    /// broker (the fleet's trace-alignment reference).
    Hello {
        /// The connecting process's pid.
        pid: u64,
    },
}

fn field_str(map: &Value, key: &str) -> Result<String, FrameError> {
    map.field(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .map_err(|e| FrameError::Protocol(format!("bad `{key}` field: {e}")))
}

fn field_u64(map: &Value, key: &str) -> Result<u64, FrameError> {
    map.field(key)
        .and_then(|v| v.as_u64())
        .map_err(|e| FrameError::Protocol(format!("bad `{key}` field: {e}")))
}

fn field_bool(map: &Value, key: &str) -> Result<bool, FrameError> {
    map.field(key)
        .and_then(|v| v.as_bool())
        .map_err(|e| FrameError::Protocol(format!("bad `{key}` field: {e}")))
}

/// An optional string field: absent is `None`, present must be a string.
fn opt_str(map: &Value, key: &str) -> Result<Option<String>, FrameError> {
    match map.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(other) => Err(FrameError::Protocol(format!(
            "bad `{key}` field: expected a string, got {other:?}"
        ))),
    }
}

fn props_to_value(p: &MessageProperties) -> Value {
    let mut fields = Vec::new();
    if let Some(r) = &p.reply_to {
        fields.push(("reply_to".into(), Value::from(r.clone())));
    }
    if let Some(t) = &p.trace {
        fields.push(("trace".into(), Value::from(t.clone())));
    }
    Value::Map(fields)
}

fn props_from_value(v: &Value) -> Result<MessageProperties, FrameError> {
    if !matches!(v, Value::Map(_)) {
        return Err(FrameError::Protocol("message props is not a map".into()));
    }
    Ok(MessageProperties {
        reply_to: opt_str(v, "reply_to")?,
        trace: opt_str(v, "trace")?,
    })
}

fn message_to_value(m: &Message) -> Value {
    Value::Map(vec![
        ("payload".into(), Value::Bytes(m.payload().to_vec())),
        ("props".into(), props_to_value(m.properties())),
    ])
}

fn message_from_value(v: &Value) -> Result<Message, FrameError> {
    let payload = v
        .field("payload")
        .and_then(|p| p.as_bytes())
        .map_err(|e| FrameError::Protocol(format!("bad message payload: {e}")))?
        .to_vec();
    let props = v
        .field("props")
        .map_err(|e| FrameError::Protocol(format!("bad message props: {e}")))?;
    Ok(Message::with_properties(payload, props_from_value(props)?))
}

impl Request {
    /// Encodes the request under correlation id `corr`.
    pub fn to_frame(&self, corr: u64) -> Value {
        let (op, mut fields): (&str, Vec<(String, Value)>) = match self {
            Request::DeclareQueue(name, opts) => (
                "declare_queue",
                vec![
                    ("name".into(), Value::from(name.clone())),
                    ("auto_delete".into(), Value::Bool(opts.auto_delete)),
                    (
                        "rate_window_ms".into(),
                        Value::U64(opts.rate_window.as_millis() as u64),
                    ),
                ],
            ),
            Request::DeleteQueue(name) => (
                "delete_queue",
                vec![("name".into(), Value::from(name.clone()))],
            ),
            Request::DeclareExchange(name) => (
                "declare_exchange",
                vec![("name".into(), Value::from(name.clone()))],
            ),
            Request::BindQueue(e, q) => (
                "bind_queue",
                vec![
                    ("exchange".into(), Value::from(e.clone())),
                    ("queue".into(), Value::from(q.clone())),
                ],
            ),
            Request::QueueExists(name) => (
                "queue_exists",
                vec![("name".into(), Value::from(name.clone()))],
            ),
            Request::PublishToQueue(queue, message) => (
                "publish_to_queue",
                vec![
                    ("queue".into(), Value::from(queue.clone())),
                    ("message".into(), message_to_value(message)),
                ],
            ),
            Request::Publish(exchange, message) => (
                "publish",
                vec![
                    ("exchange".into(), Value::from(exchange.clone())),
                    ("message".into(), message_to_value(message)),
                ],
            ),
            Request::Subscribe { queue, sub, credit } => (
                "subscribe",
                vec![
                    ("queue".into(), Value::from(queue.clone())),
                    ("sub".into(), Value::U64(*sub)),
                    ("credit".into(), Value::U64(*credit)),
                ],
            ),
            Request::Unsubscribe(sub) => ("unsubscribe", vec![("sub".into(), Value::U64(*sub))]),
            Request::AckMany(sub, tags) => (
                "ack_many",
                vec![
                    ("sub".into(), Value::U64(*sub)),
                    (
                        "tags".into(),
                        Value::List(tags.iter().map(|t| Value::U64(*t)).collect()),
                    ),
                ],
            ),
            Request::Requeue(sub, tag) => (
                "requeue",
                vec![
                    ("sub".into(), Value::U64(*sub)),
                    ("tag".into(), Value::U64(*tag)),
                ],
            ),
            Request::QueueStats(name) => (
                "queue_stats",
                vec![("name".into(), Value::from(name.clone()))],
            ),
            Request::QueueArrivalRate(name) => (
                "queue_arrival_rate",
                vec![("name".into(), Value::from(name.clone()))],
            ),
            Request::Ping => ("ping", vec![]),
            Request::Hello { pid } => ("hello", vec![("pid".into(), Value::U64(*pid))]),
        };
        fields.insert(0, ("op".into(), Value::from(op)));
        fields.insert(1, ("corr".into(), Value::U64(corr)));
        Value::Map(fields)
    }

    /// Decodes a request frame; returns the correlation id and request.
    ///
    /// # Errors
    ///
    /// [`FrameError::Protocol`] on unknown opcodes or malformed fields.
    pub fn from_frame(v: &Value) -> Result<(u64, Request), FrameError> {
        let op = field_str(v, "op")?;
        let corr = field_u64(v, "corr")?;
        let req = match op.as_str() {
            "declare_queue" => Request::DeclareQueue(
                field_str(v, "name")?,
                QueueOptions {
                    auto_delete: field_bool(v, "auto_delete")?,
                    rate_window: Duration::from_millis(field_u64(v, "rate_window_ms")?),
                },
            ),
            "delete_queue" => Request::DeleteQueue(field_str(v, "name")?),
            "declare_exchange" => Request::DeclareExchange(field_str(v, "name")?),
            "bind_queue" => Request::BindQueue(field_str(v, "exchange")?, field_str(v, "queue")?),
            "queue_exists" => Request::QueueExists(field_str(v, "name")?),
            "publish_to_queue" => {
                let message = message_from_value(
                    v.field("message")
                        .map_err(|e| FrameError::Protocol(e.to_string()))?,
                )?;
                Request::PublishToQueue(field_str(v, "queue")?, message)
            }
            "publish" => {
                let message = message_from_value(
                    v.field("message")
                        .map_err(|e| FrameError::Protocol(e.to_string()))?,
                )?;
                Request::Publish(field_str(v, "exchange")?, message)
            }
            "subscribe" => Request::Subscribe {
                queue: field_str(v, "queue")?,
                sub: field_u64(v, "sub")?,
                credit: field_u64(v, "credit")?,
            },
            "unsubscribe" => Request::Unsubscribe(field_u64(v, "sub")?),
            "ack_many" => {
                let tags = match v
                    .field("tags")
                    .map_err(|e| FrameError::Protocol(e.to_string()))?
                {
                    Value::List(items) => items
                        .iter()
                        .map(|t| {
                            t.as_u64()
                                .map_err(|e| FrameError::Protocol(format!("bad ack tag: {e}")))
                        })
                        .collect::<Result<Vec<u64>, _>>()?,
                    _ => return Err(FrameError::Protocol("ack tags is not a list".into())),
                };
                Request::AckMany(field_u64(v, "sub")?, tags)
            }
            "requeue" => Request::Requeue(field_u64(v, "sub")?, field_u64(v, "tag")?),
            "queue_stats" => Request::QueueStats(field_str(v, "name")?),
            "queue_arrival_rate" => Request::QueueArrivalRate(field_str(v, "name")?),
            "ping" => Request::Ping,
            "hello" => Request::Hello {
                pid: field_u64(v, "pid")?,
            },
            other => return Err(FrameError::Protocol(format!("unknown opcode `{other}`"))),
        };
        Ok((corr, req))
    }
}

// ---------------------------------------------------------------------------
// Server → client frames
// ---------------------------------------------------------------------------

/// A frame pushed by the server.
#[derive(Debug)]
pub enum ServerFrame {
    /// Response to the request with this correlation id.
    Reply {
        /// Correlation id of the request being answered.
        corr: u64,
        /// The operation result.
        result: Result<Value, MqError>,
    },
    /// A message delivered toward a client subscription.
    Deliver {
        /// Subscription the delivery belongs to.
        sub: u64,
        /// Broker delivery tag; the client acks/requeues by this number.
        tag: u64,
        /// Whether the broker delivered this message before.
        redelivered: bool,
        /// The message itself.
        message: Message,
    },
}

fn mq_error_to_value(e: &MqError) -> Value {
    let (code, detail) = match e {
        MqError::QueueNotFound(q) => ("queue_not_found", q.clone()),
        MqError::ExchangeNotFound(x) => ("exchange_not_found", x.clone()),
        MqError::IncompatibleDeclaration(n) => ("incompatible_declaration", n.clone()),
        MqError::RecvTimeout => ("recv_timeout", String::new()),
        MqError::Closed => ("closed", String::new()),
        MqError::UnknownDeliveryTag(t) => ("unknown_delivery_tag", t.to_string()),
        MqError::BrokerDown => ("broker_down", String::new()),
        MqError::Transport(m) => ("transport", m.clone()),
        other => ("transport", other.to_string()),
    };
    Value::Map(vec![
        ("code".into(), Value::from(code)),
        ("detail".into(), Value::from(detail)),
    ])
}

fn mq_error_from_value(v: &Value) -> MqError {
    let code = v.get("code").and_then(|c| c.as_str().ok()).unwrap_or("");
    let detail = v
        .get("detail")
        .and_then(|d| d.as_str().ok())
        .unwrap_or("")
        .to_string();
    match code {
        "queue_not_found" => MqError::QueueNotFound(detail),
        "exchange_not_found" => MqError::ExchangeNotFound(detail),
        "incompatible_declaration" => MqError::IncompatibleDeclaration(detail),
        "recv_timeout" => MqError::RecvTimeout,
        "closed" => MqError::Closed,
        "unknown_delivery_tag" => MqError::UnknownDeliveryTag(detail.parse().unwrap_or(0)),
        "broker_down" => MqError::BrokerDown,
        _ => MqError::Transport(detail),
    }
}

/// Encodes a [`QueueStats`] snapshot for a `queue_stats` reply.
pub fn stats_to_value(s: &QueueStats) -> Value {
    Value::Map(vec![
        ("depth".into(), Value::U64(s.depth as u64)),
        ("unacked".into(), Value::U64(s.unacked as u64)),
        ("published".into(), Value::U64(s.published)),
        ("delivered".into(), Value::U64(s.delivered)),
        ("acked".into(), Value::U64(s.acked)),
        ("redelivered".into(), Value::U64(s.redelivered)),
        ("consumers".into(), Value::U64(s.consumers as u64)),
        ("idle_consumers".into(), Value::U64(s.idle_consumers as u64)),
    ])
}

/// Decodes a `queue_stats` reply body.
///
/// # Errors
///
/// [`FrameError::Protocol`] on missing or mistyped fields.
pub fn stats_from_value(v: &Value) -> Result<QueueStats, FrameError> {
    Ok(QueueStats {
        depth: field_u64(v, "depth")? as usize,
        unacked: field_u64(v, "unacked")? as usize,
        published: field_u64(v, "published")?,
        delivered: field_u64(v, "delivered")?,
        acked: field_u64(v, "acked")?,
        redelivered: field_u64(v, "redelivered")?,
        consumers: field_u64(v, "consumers")? as usize,
        idle_consumers: field_u64(v, "idle_consumers")? as usize,
    })
}

impl ServerFrame {
    /// Encodes this frame.
    pub fn to_value(&self) -> Value {
        match self {
            ServerFrame::Reply { corr, result } => {
                let mut fields = vec![
                    ("op".into(), Value::from("reply")),
                    ("corr".into(), Value::U64(*corr)),
                    ("ok".into(), Value::Bool(result.is_ok())),
                ];
                match result {
                    Ok(value) => fields.push(("value".into(), value.clone())),
                    Err(e) => fields.push(("error".into(), mq_error_to_value(e))),
                }
                Value::Map(fields)
            }
            ServerFrame::Deliver {
                sub,
                tag,
                redelivered,
                message,
            } => Value::Map(vec![
                ("op".into(), Value::from("deliver")),
                ("sub".into(), Value::U64(*sub)),
                ("tag".into(), Value::U64(*tag)),
                ("redelivered".into(), Value::Bool(*redelivered)),
                ("message".into(), message_to_value(message)),
            ]),
        }
    }

    /// Decodes a server frame.
    ///
    /// # Errors
    ///
    /// [`FrameError::Protocol`] on unknown opcodes or malformed fields.
    pub fn from_value(v: &Value) -> Result<ServerFrame, FrameError> {
        match field_str(v, "op")?.as_str() {
            "reply" => {
                let corr = field_u64(v, "corr")?;
                let result = if field_bool(v, "ok")? {
                    Ok(v.get("value").cloned().unwrap_or(Value::Null))
                } else {
                    Err(v
                        .get("error")
                        .map(mq_error_from_value)
                        .unwrap_or_else(|| MqError::Transport("reply without error".into())))
                };
                Ok(ServerFrame::Reply { corr, result })
            }
            "deliver" => Ok(ServerFrame::Deliver {
                sub: field_u64(v, "sub")?,
                tag: field_u64(v, "tag")?,
                redelivered: field_bool(v, "redelivered")?,
                message: message_from_value(
                    v.field("message")
                        .map_err(|e| FrameError::Protocol(e.to_string()))?,
                )?,
            }),
            other => Err(FrameError::Protocol(format!(
                "unknown server opcode `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: Request) {
        let frame = req.to_frame(7);
        let (corr, back) = Request::from_frame(&frame).unwrap();
        assert_eq!(corr, 7);
        // `Message` has no `PartialEq`; the Debug form covers every field.
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }

    /// Yields the underlying bytes one at a time, returning `WouldBlock`
    /// between every byte — the worst case a socket read timeout produces.
    struct DribbleReader {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl Read for DribbleReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            if self.pos == self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_buffer_survives_timeouts_mid_frame() {
        let mut encoded = Vec::new();
        write_frame(&mut encoded, &Request::Ping.to_frame(3)).unwrap();
        write_frame(&mut encoded, &Request::QueueStats("q".into()).to_frame(4)).unwrap();
        let total = encoded.len();
        let mut reader = DribbleReader {
            data: encoded,
            pos: 0,
            ready: false,
        };
        let mut frames = FrameBuffer::with_readahead();
        let mut out = Vec::new();
        let mut idle_ticks = 0usize;
        while out.len() < 2 {
            match frames.read_step(&mut reader).unwrap() {
                Some((value, _)) => out.push(Request::from_frame(&value).unwrap()),
                None => idle_ticks += 1,
            }
        }
        assert_eq!(out[0].0, 3);
        assert!(matches!(out[0].1, Request::Ping));
        assert_eq!(out[1].0, 4);
        assert!(matches!(out[1].1, Request::QueueStats(_)));
        // One WouldBlock per byte read: none of them lost frame progress.
        assert!(
            idle_ticks >= total,
            "expected ≥{total} idle ticks, got {idle_ticks}"
        );
        assert!(matches!(
            frames.read_step(&mut reader),
            Err(FrameError::Eof) | Ok(None)
        ));
    }

    #[test]
    fn frame_buffer_rejects_oversized_length_prefix() {
        let mut frames = FrameBuffer::with_readahead();
        let bogus = (MAX_FRAME as u32 + 1).to_be_bytes().to_vec();
        let mut reader = DribbleReader {
            data: bogus,
            pos: 0,
            ready: false,
        };
        let err = loop {
            match frames.read_step(&mut reader) {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, FrameError::Protocol(_)));
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip(Request::DeclareQueue(
            "q".into(),
            QueueOptions {
                auto_delete: true,
                rate_window: Duration::from_millis(1500),
            },
        ));
        roundtrip(Request::DeclareExchange("x".into()));
        roundtrip(Request::BindQueue("x".into(), "q".into()));
        roundtrip(Request::Publish("x".into(), Message::from_static(b"n")));
        roundtrip(Request::Subscribe {
            queue: "q".into(),
            sub: 3,
            credit: 32,
        });
        roundtrip(Request::AckMany(3, vec![99]));
        roundtrip(Request::AckMany(3, vec![99, 100, 101]));
        roundtrip(Request::AckMany(1, vec![]));
        roundtrip(Request::QueueStats("q".into()));
        roundtrip(Request::Ping);
        roundtrip(Request::Hello { pid: 4242 });
    }

    #[test]
    fn retired_opcodes_are_refused() {
        // Frames of operations the protocol no longer has, shaped as their
        // encoders wrote them, must be refused by name rather than read as
        // something else.
        let message = Value::Map(vec![
            ("payload".into(), Value::Bytes(b"m".to_vec())),
            ("props".into(), Value::Map(vec![])),
        ]);
        let retired = [
            (
                "publish_batch",
                vec![
                    ("queue".into(), Value::from("q")),
                    ("messages".into(), Value::List(vec![message])),
                ],
            ),
            (
                "ack",
                vec![("sub".into(), Value::U64(3)), ("tag".into(), Value::U64(9))],
            ),
            ("queue_depth", vec![("name".into(), Value::from("q"))]),
        ];
        for (op, rest) in retired {
            let mut fields: Vec<(String, Value)> = vec![
                ("op".into(), Value::from(op)),
                ("corr".into(), Value::U64(7)),
            ];
            fields.extend(rest);
            match Request::from_frame(&Value::Map(fields)) {
                Err(FrameError::Protocol(m)) => {
                    assert_eq!(m, format!("unknown opcode `{op}`"));
                }
                other => panic!("`{op}` decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn encode_frame_into_coalesces_frames() {
        // Several frames appended to one buffer must parse back as a
        // stream, byte-identical to individual write_frame output.
        let frames = [
            Request::Ping.to_frame(1),
            Request::QueueStats("q".into()).to_frame(2),
            Request::AckMany(1, vec![9]).to_frame(3),
        ];
        let mut coalesced = Vec::new();
        let mut individual = Vec::new();
        for v in &frames {
            encode_frame_into(v, &mut coalesced).unwrap();
            write_frame(&mut individual, v).unwrap();
        }
        assert_eq!(coalesced, individual);
        let mut cursor = &coalesced[..];
        for v in &frames {
            let (back, _) = read_frame(&mut cursor).unwrap();
            assert_eq!(&back, v);
        }
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn oversized_encode_truncates_back() {
        let huge = Value::Bytes(vec![0u8; MAX_FRAME + 16]);
        let mut out = b"prefix".to_vec();
        assert!(matches!(
            encode_frame_into(&huge, &mut out),
            Err(FrameError::Protocol(_))
        ));
        assert_eq!(out, b"prefix", "failed encode must not leave partial bytes");
    }

    #[test]
    fn message_properties_roundtrip() {
        let props = MessageProperties {
            reply_to: Some("r".into()),
            trace: Some("t".into()),
        };
        let m = Message::with_properties(b"body".as_slice(), props.clone());
        roundtrip(Request::PublishToQueue("q".into(), m.clone()));
        let frame = Request::PublishToQueue("q".into(), m).to_frame(1);
        let (_, back) = Request::from_frame(&frame).unwrap();
        match back {
            Request::PublishToQueue(_, msg) => {
                assert_eq!(msg.payload(), b"body");
                assert_eq!(msg.properties(), &props);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    /// `frame` with the field at `path` (a chain of map keys) replaced by
    /// `value`, or removed when `value` is `None`.
    fn with_field(mut frame: Value, path: &[&str], value: Option<Value>) -> Value {
        let mut map = &mut frame;
        for key in &path[..path.len() - 1] {
            let Value::Map(fields) = map else {
                panic!("not a map")
            };
            map = &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let Value::Map(fields) = map else {
            panic!("not a map")
        };
        let last = path[path.len() - 1];
        fields.retain(|(k, _)| k != last);
        if let Some(v) = value {
            fields.push((last.to_string(), v));
        }
        frame
    }

    #[test]
    fn a_declaration_without_a_boolean_auto_delete_is_refused() {
        let options = QueueOptions {
            auto_delete: true,
            ..QueueOptions::default()
        };
        let frame = Request::DeclareQueue("q".into(), options).to_frame(1);
        for bad in [None, Some(Value::U64(1)), Some(Value::from("true"))] {
            let frame = with_field(frame.clone(), &["auto_delete"], bad.clone());
            assert!(
                matches!(Request::from_frame(&frame), Err(FrameError::Protocol(_))),
                "auto_delete {bad:?} must not declare a queue"
            );
        }
    }

    #[test]
    fn a_mistyped_message_property_is_refused() {
        let message = Message::with_properties(
            b"x".as_slice(),
            MessageProperties {
                reply_to: Some("r".into()),
                trace: Some("t".into()),
            },
        );
        let frame = Request::PublishToQueue("q".into(), message).to_frame(1);
        for key in ["reply_to", "trace"] {
            for bad in [Value::U64(7), Value::Bytes(b"r".to_vec()), Value::Null] {
                let frame = with_field(frame.clone(), &["message", "props", key], Some(bad));
                assert!(
                    matches!(Request::from_frame(&frame), Err(FrameError::Protocol(_))),
                    "a mistyped {key} must be refused"
                );
            }
        }
        let frame = with_field(frame.clone(), &["message", "props"], Some(Value::U64(0)));
        assert!(Request::from_frame(&frame).is_err(), "props must be a map");
    }

    #[test]
    fn an_absent_property_is_none_but_props_are_required() {
        let frame = Request::PublishToQueue("q".into(), Message::from_static(b"x")).to_frame(1);
        assert_eq!(
            frame.get("message").unwrap().get("props"),
            Some(&Value::Map(vec![]))
        );
        match Request::from_frame(&frame).unwrap().1 {
            Request::PublishToQueue(_, m) => {
                assert_eq!(m.properties(), &MessageProperties::default())
            }
            other => panic!("wrong request: {other:?}"),
        }
        let without_props = with_field(frame, &["message", "props"], None);
        assert!(Request::from_frame(&without_props).is_err());
    }

    #[test]
    fn deliver_and_hello_frames_carry_only_what_is_read() {
        let deliver = ServerFrame::Deliver {
            sub: 1,
            tag: 2,
            redelivered: false,
            message: Message::from_static(b"n"),
        }
        .to_value();
        assert_eq!(deliver.get("corr"), None);
        assert!(matches!(
            ServerFrame::from_value(&deliver),
            Ok(ServerFrame::Deliver { sub: 1, tag: 2, .. })
        ));
        let hello = Request::Hello { pid: 9 }.to_frame(0);
        let keys: Vec<&str> = match &hello {
            Value::Map(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(keys, ["op", "corr", "pid"]);
    }

    #[test]
    fn errors_roundtrip_through_reply() {
        for e in [
            MqError::QueueNotFound("q".into()),
            MqError::RecvTimeout,
            MqError::Closed,
            MqError::UnknownDeliveryTag(42),
            MqError::BrokerDown,
            MqError::Transport("boom".into()),
        ] {
            let frame = ServerFrame::Reply {
                corr: 1,
                result: Err(e.clone()),
            }
            .to_value();
            match ServerFrame::from_value(&frame).unwrap() {
                ServerFrame::Reply { result, .. } => assert_eq!(result.unwrap_err(), e),
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn stats_roundtrip() {
        let s = QueueStats {
            depth: 1,
            unacked: 2,
            published: 3,
            delivered: 4,
            acked: 5,
            redelivered: 6,
            consumers: 7,
            idle_consumers: 8,
        };
        assert_eq!(stats_from_value(&stats_to_value(&s)).unwrap(), s);
    }

    #[test]
    fn frame_io_roundtrips_over_a_buffer() {
        let v = Request::Ping.to_frame(9);
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &v).unwrap();
        assert_eq!(written, buf.len());
        let mut cursor = &buf[..];
        let (back, read) = read_frame(&mut cursor).unwrap();
        assert_eq!(back, v);
        assert_eq!(read, written);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Eof)));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        buf.extend_from_slice(b"junk");
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Protocol(_))
        ));
    }

    #[test]
    fn corrupt_body_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&4u32.to_be_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE, 0xFD, 0xFC]);
        let mut cursor = &buf[..];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Protocol(_))
        ));
    }
}
