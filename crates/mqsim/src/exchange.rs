//! Exchanges: fanout routing to bound queues.

use std::collections::BTreeSet;

/// A fanout exchange: the set of queues bound to it. A message published
/// through it reaches every bound queue once, in queue-name order. This is
/// what ObjectMQ uses for `@MultiMethod` calls and workspace notification.
#[derive(Debug, Clone, Default)]
pub(crate) struct Exchange {
    queues: BTreeSet<String>,
}

impl Exchange {
    /// Binds a queue; binding it again is a no-op.
    pub(crate) fn bind(&mut self, queue: &str) {
        self.queues.insert(queue.to_string());
    }

    /// Removes the queue's binding (queue deletion).
    pub(crate) fn unbind(&mut self, queue: &str) {
        self.queues.remove(queue);
    }

    /// The queues a message must be routed to, sorted by name.
    pub(crate) fn route(&self) -> Vec<String> {
        self.queues.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_routes_to_all() {
        let mut e = Exchange::default();
        e.bind("q2");
        e.bind("q3");
        e.bind("q1");
        assert_eq!(e.route(), vec!["q1", "q2", "q3"]);
    }

    #[test]
    fn bind_is_idempotent() {
        let mut e = Exchange::default();
        e.bind("q1");
        e.bind("q1");
        assert_eq!(e.route(), vec!["q1"]);
    }

    #[test]
    fn unbind_queue_everywhere_cleans_all_keys() {
        let mut e = Exchange::default();
        e.bind("q");
        e.bind("q");
        e.bind("other");
        e.unbind("q");
        assert_eq!(e.route(), vec!["other"]);
    }
}
