//! Message and message-property types.

use bytes::Bytes;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Broker-assigned identifier of a single delivery attempt.
///
/// A [`DeliveryTag`] is unique within a queue for the lifetime of the broker
/// and is what a consumer acknowledges. Redelivering a message produces a new
/// tag, mirroring AMQP delivery tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeliveryTag(pub(crate) u64);

impl DeliveryTag {
    /// The raw numeric tag, e.g. for carrying the tag over a network
    /// protocol that acknowledges by number.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for DeliveryTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag:{}", self.0)
    }
}

/// AMQP-style message properties: the two that ObjectMQ's skeleton reads.
///
/// An invocation carries its own id in the payload (`objectmq::rpc`), each
/// broker has one codec, and durability belongs to the queue
/// ([`crate::QueueOptions::durable`]), so AMQP's correlation, content-type
/// and delivery-mode headers have no reader here and are not carried.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageProperties {
    /// Name of the queue where replies should be published; `None` for a
    /// call that expects no reply.
    pub reply_to: Option<String>,
    /// Encoded tracing context (`obs::SpanContext`) propagated with the
    /// message, so the consumer side can link its spans to the publisher's
    /// trace. `None` when the publisher is not tracing.
    pub trace: Option<String>,
}

/// An immutable message travelling through the broker.
///
/// Cloning is cheap by construction: the payload is shared [`Bytes`] and the
/// properties sit behind an [`Arc`], so fanout and mirror paths that hand a
/// copy to every target bump two refcounts instead of deep-copying.
#[derive(Debug, Clone)]
pub struct Message {
    payload: Bytes,
    properties: Arc<MessageProperties>,
    enqueued_at: Option<Instant>,
}

/// The one shared allocation behind every default-properties message.
fn default_properties() -> Arc<MessageProperties> {
    static DEFAULT: OnceLock<Arc<MessageProperties>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| Arc::new(MessageProperties::default()))
        .clone()
}

impl Message {
    /// Creates a message from a payload with default properties.
    pub fn from_bytes(payload: impl Into<Bytes>) -> Self {
        Message {
            payload: payload.into(),
            properties: default_properties(),
            enqueued_at: None,
        }
    }

    /// Creates a message borrowing a `'static` payload without copying.
    ///
    /// Test and benchmark literals (`Message::from_static(b"...")`)
    /// used to copy twice — once into the `Vec`, once into the shared
    /// buffer. A static payload needs neither.
    pub fn from_static(payload: &'static [u8]) -> Self {
        Message {
            payload: Bytes::from_static(payload),
            properties: default_properties(),
            enqueued_at: None,
        }
    }

    /// Creates a message with explicit properties.
    pub fn with_properties(payload: impl Into<Bytes>, properties: MessageProperties) -> Self {
        Message {
            payload: payload.into(),
            properties: Arc::new(properties),
            enqueued_at: None,
        }
    }

    /// The message body.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The message body as shared bytes (cheap clone).
    pub fn payload_bytes(&self) -> Bytes {
        self.payload.clone()
    }

    /// Size of the payload in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Message properties.
    pub fn properties(&self) -> &MessageProperties {
        &self.properties
    }

    /// Instant at which the broker accepted the message, if it has been
    /// published. Used to measure queueing delay.
    pub fn enqueued_at(&self) -> Option<Instant> {
        self.enqueued_at
    }

    pub(crate) fn mark_enqueued(&mut self) {
        if self.enqueued_at.is_none() {
            self.enqueued_at = Some(Instant::now());
        }
    }
}

impl From<Vec<u8>> for Message {
    fn from(payload: Vec<u8>) -> Self {
        Message::from_bytes(payload)
    }
}

impl From<&[u8]> for Message {
    fn from(payload: &[u8]) -> Self {
        Message::from_bytes(payload.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_roundtrips_payload() {
        let m = Message::from_static(b"hello");
        assert_eq!(m.payload(), b"hello");
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
    }

    #[test]
    fn empty_message() {
        let m = Message::from_bytes(Vec::new());
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn properties_are_attached() {
        let props = MessageProperties {
            reply_to: Some("q.reply".into()),
            trace: None,
        };
        let m = Message::with_properties(b"x".as_slice(), props.clone());
        assert_eq!(m.properties(), &props);
    }

    #[test]
    fn enqueued_at_is_set_once() {
        let mut m = Message::from_static(b"x");
        assert!(m.enqueued_at().is_none());
        m.mark_enqueued();
        let first = m.enqueued_at().unwrap();
        m.mark_enqueued();
        assert_eq!(m.enqueued_at().unwrap(), first);
    }

    #[test]
    fn delivery_tag_display() {
        assert_eq!(DeliveryTag(7).to_string(), "tag:7");
    }

    #[test]
    fn from_static_borrows_without_copying() {
        let m = Message::from_static(b"static payload");
        assert_eq!(m.payload(), b"static payload");
        assert!(m.properties() == &MessageProperties::default());
    }
}
