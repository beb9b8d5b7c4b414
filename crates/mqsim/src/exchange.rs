//! Exchanges: message routing to queues.

use std::collections::BTreeMap;

/// Routing behaviour of an exchange, mirroring AMQP exchange types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    /// Routes to the queues bound with a routing key equal to the message's.
    Direct,
    /// Broadcasts every message to all bound queues regardless of the key.
    /// This is what ObjectMQ uses for `@MultiMethod` workspace notification.
    Fanout,
}

/// An exchange with its bindings. Bindings are `(routing_key, queue_name)`
/// pairs; a queue may be bound multiple times under different keys but only
/// once per key.
#[derive(Debug, Clone)]
pub(crate) struct Exchange {
    pub(crate) kind: ExchangeKind,
    /// routing key -> queue names (sorted for deterministic fanout order).
    bindings: BTreeMap<String, Vec<String>>,
}

impl Exchange {
    pub(crate) fn new(kind: ExchangeKind) -> Self {
        Exchange {
            kind,
            bindings: BTreeMap::new(),
        }
    }

    /// Adds a binding; idempotent per `(key, queue)` pair.
    pub(crate) fn bind(&mut self, routing_key: &str, queue: &str) {
        let queues = self.bindings.entry(routing_key.to_string()).or_default();
        if !queues.iter().any(|q| q == queue) {
            queues.push(queue.to_string());
        }
    }

    /// Removes the queue from every binding (queue deletion).
    pub(crate) fn unbind_queue_everywhere(&mut self, queue: &str) {
        self.bindings.retain(|_, queues| {
            queues.retain(|q| q != queue);
            !queues.is_empty()
        });
    }

    /// Queues a message with `routing_key` must be routed to.
    pub(crate) fn route(&self, routing_key: &str) -> Vec<String> {
        match self.kind {
            ExchangeKind::Direct => self.bindings.get(routing_key).cloned().unwrap_or_default(),
            ExchangeKind::Fanout => {
                let mut all: Vec<String> = self
                    .bindings
                    .values()
                    .flat_map(|v| v.iter().cloned())
                    .collect();
                all.sort();
                all.dedup();
                all
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_routes_by_exact_key() {
        let mut e = Exchange::new(ExchangeKind::Direct);
        e.bind("k1", "q1");
        e.bind("k2", "q2");
        assert_eq!(e.route("k1"), vec!["q1"]);
        assert_eq!(e.route("k2"), vec!["q2"]);
        assert!(e.route("k3").is_empty());
    }

    #[test]
    fn fanout_routes_to_all() {
        let mut e = Exchange::new(ExchangeKind::Fanout);
        e.bind("", "q1");
        e.bind("", "q2");
        e.bind("other", "q3");
        let mut routed = e.route("ignored-key");
        routed.sort();
        assert_eq!(routed, vec!["q1", "q2", "q3"]);
    }

    #[test]
    fn bind_is_idempotent() {
        let mut e = Exchange::new(ExchangeKind::Fanout);
        e.bind("", "q1");
        e.bind("", "q1");
        assert_eq!(e.route(""), vec!["q1"]);
    }

    #[test]
    fn unbind_queue_everywhere_cleans_all_keys() {
        let mut e = Exchange::new(ExchangeKind::Direct);
        e.bind("a", "q");
        e.bind("b", "q");
        e.bind("b", "other");
        e.unbind_queue_everywhere("q");
        assert!(e.route("a").is_empty());
        assert_eq!(e.route("b"), vec!["other"]);
    }
}
