//! Broker error types.

use std::error::Error;
use std::fmt;

/// Result alias for broker operations.
pub type MqResult<T> = Result<T, MqError>;

/// Errors produced by the message broker.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MqError {
    /// The named queue does not exist.
    QueueNotFound(String),
    /// The named exchange does not exist.
    ExchangeNotFound(String),
    /// A queue was redeclared with incompatible options.
    IncompatibleDeclaration(String),
    /// Waiting for a message timed out.
    RecvTimeout,
    /// The queue (or the broker) was deleted while consumers were waiting.
    Closed,
    /// The delivery tag is unknown or was already acknowledged.
    UnknownDeliveryTag(u64),
    /// The broker node is down ([`crate::MessageBroker::kill`]).
    BrokerDown,
    /// A network transport carrying broker operations failed (connection
    /// refused, peer gone, protocol violation). Only produced by remote
    /// [`crate::Messaging`] implementations such as `net::NetBroker`.
    Transport(String),
    /// A durable broker could not journal the operation (WAL append or
    /// fsync failed). The publish was **not** accepted; reopen the broker
    /// to recover.
    Durability(String),
}

impl fmt::Display for MqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MqError::QueueNotFound(q) => write!(f, "queue not found: {q}"),
            MqError::ExchangeNotFound(e) => write!(f, "exchange not found: {e}"),
            MqError::IncompatibleDeclaration(n) => {
                write!(f, "incompatible redeclaration of {n}")
            }
            MqError::RecvTimeout => write!(f, "timed out waiting for a message"),
            MqError::Closed => write!(f, "queue or broker closed"),
            MqError::UnknownDeliveryTag(t) => write!(f, "unknown delivery tag {t}"),
            MqError::BrokerDown => write!(f, "broker node is down"),
            MqError::Transport(m) => write!(f, "transport failure: {m}"),
            MqError::Durability(m) => write!(f, "durability failure: {m}"),
        }
    }
}

impl Error for MqError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        for e in [
            MqError::QueueNotFound("q".into()),
            MqError::ExchangeNotFound("e".into()),
            MqError::IncompatibleDeclaration("x".into()),
            MqError::RecvTimeout,
            MqError::Closed,
            MqError::UnknownDeliveryTag(3),
            MqError::BrokerDown,
            MqError::Transport("peer gone".into()),
            MqError::Durability("fsync failed".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MqError>();
    }
}
