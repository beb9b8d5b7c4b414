//! The outbox of one workspace: the commit request in flight and the
//! changes queued behind it (DESIGN.md §17).
//!
//! A lone change goes out at once. While a commit request is unconfirmed,
//! further changes queue; the device's own notification completes the
//! request, and everything queued then goes out as one bundle. A request
//! left unconfirmed for the deadline releases the queue, except the
//! changes to an item whose previous version it still carries.
//!
//! This is a plain struct fed by events: it has no lock, thread or clock
//! of its own. The client holds it under its lock and hands it the time.

use metadata::ItemMetadata;
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Bytes of proposals one bundle may carry, by [`proposal_bytes`]. The
/// request is one frame of at most [`net::MAX_FRAME`]; the notification of
/// it is another, and lists every proposal again and, on a conflict, the
/// current version beside it. The outcomes are one WAL record, whose
/// limit ([`wal::MAX_RECORD_LEN`]) is four frames. An eighth of a frame
/// leaves room for both copies and for a codec that spells a chunk id in
/// more bytes than the binary one.
pub(crate) const BUNDLE_BYTES: usize = net::MAX_FRAME / 8;

/// An upper bound on the bytes a proposal takes in a commit request under
/// the binary codec: eight keys with their tags and varints, the three
/// strings, and 20 bytes plus a tag and a length per chunk id.
pub(crate) fn proposal_bytes(item: &ItemMetadata) -> usize {
    192 + item.workspace.0.len() + item.path.len() + item.modified_by.len() + 24 * item.chunks.len()
}

/// A commit request sent and not yet confirmed.
#[derive(Debug)]
struct Sent {
    /// The proposals its notification has not listed yet.
    pending: Vec<ItemMetadata>,
    sent_at: Instant,
    /// Times the request was sent (one until a resend exists).
    attempts: u32,
    /// Whether its deadline passed and released the queue behind it.
    released: bool,
}

/// What [`Outbox::release_due`] found past its deadline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Release {
    /// Proposals of the request still unconfirmed.
    pub unconfirmed: usize,
    /// How long the request has been out.
    pub waited: Duration,
    /// Times it was sent.
    pub attempts: u32,
    /// Changes queued behind it.
    pub queued: usize,
}

/// The commit requests of one workspace that are out, and the changes
/// waiting behind them.
#[derive(Debug)]
pub(crate) struct Outbox {
    /// How long a request holds the queue back before it is released.
    deadline: Duration,
    /// Unconfirmed requests, oldest first. More than one only after a
    /// release.
    sent: Vec<Sent>,
    /// Changes not sent yet, in the order they were made.
    queued: VecDeque<ItemMetadata>,
    /// Bundles taken to be sent whose send has not finished yet.
    sending: usize,
}

impl Outbox {
    /// An empty outbox whose requests hold the queue for `deadline`.
    pub(crate) fn new(deadline: Duration) -> Self {
        Outbox {
            deadline,
            sent: Vec::new(),
            queued: VecDeque::new(),
            sending: 0,
        }
    }

    /// Changes queued and not yet sent.
    pub(crate) fn depth(&self) -> usize {
        self.queued.len()
    }

    /// Changes queued, or sent and not yet confirmed (nor given up: see
    /// [`Outbox::release_due`]).
    pub(crate) fn pending(&self) -> usize {
        self.queued.len() + self.sent.iter().map(|s| s.pending.len()).sum::<usize>()
    }

    /// Whether the change of `item` at `version` may still be unsent: it is
    /// queued, or a bundle is being sent (see [`Outbox::sent`]).
    pub(crate) fn unsent(&self, item: u64, version: u64) -> bool {
        self.sending > 0
            || self
                .queued
                .iter()
                .any(|c| (c.item_id, c.version) == (item, version))
    }

    /// Queues a change behind whatever is out.
    pub(crate) fn push(&mut self, change: ItemMetadata) {
        self.queued.push_back(change);
    }

    /// Releases the newest request once it has been out for the deadline,
    /// and reports it, once. A released request still completes when its
    /// notification comes; after a second deadline it is given up, and the
    /// changes it held back go too. So no request holds the queue longer
    /// than one deadline, nor one item longer than two.
    pub(crate) fn release_due(&mut self, now: Instant) -> Option<Release> {
        let deadline = self.deadline;
        self.sent
            .retain(|s| !s.released || now.saturating_duration_since(s.sent_at) < 2 * deadline);
        let queued = self.queued.len();
        let newest = self.sent.last_mut()?;
        let waited = now.saturating_duration_since(newest.sent_at);
        if newest.released || waited < deadline {
            return None;
        }
        newest.released = true;
        Some(Release {
            unconfirmed: newest.pending.len(),
            waited,
            attempts: newest.attempts,
            queued,
        })
    }

    /// The next bundle to send, recorded as sent at `now`: nothing while
    /// the newest request is unreleased; otherwise the queued changes, in
    /// order and up to [`BUNDLE_BYTES`] (at least one), except those of an
    /// item with a version still unconfirmed, which keep their place.
    pub(crate) fn next_bundle(&mut self, now: Instant) -> Option<Vec<ItemMetadata>> {
        if self.sent.last().is_some_and(|s| !s.released) {
            return None;
        }
        let held: HashSet<u64> = self
            .sent
            .iter()
            .flat_map(|s| s.pending.iter().map(|p| p.item_id))
            .collect();
        let bundle = self.split_off(|item| !held.contains(&item.item_id));
        if bundle.is_empty() {
            return None;
        }
        self.sent.push(Sent {
            pending: bundle.clone(),
            sent_at: now,
            attempts: 1,
            released: false,
        });
        self.sending += 1;
        Some(bundle)
    }

    /// Everything queued, held or not, a bundle at a time, recorded as
    /// nothing: what a device sends as it leaves.
    pub(crate) fn drain_bundle(&mut self) -> Option<Vec<ItemMetadata>> {
        let bundle = self.split_off(|_| true);
        self.sending += usize::from(!bundle.is_empty());
        (!bundle.is_empty()).then_some(bundle)
    }

    /// Ends the send of a bundle taken by [`Outbox::next_bundle`] or
    /// [`Outbox::drain_bundle`]: it went out, and what it does to the chunk
    /// store's references is done.
    pub(crate) fn sent(&mut self) {
        self.sending -= 1;
    }

    /// Takes the queued changes `eligible` accepts, in order, up to the
    /// byte cap; the others keep their order.
    fn split_off(&mut self, eligible: impl Fn(&ItemMetadata) -> bool) -> Vec<ItemMetadata> {
        let (mut bundle, mut kept) = (Vec::new(), VecDeque::new());
        let mut bytes = 0;
        while let Some(change) = self.queued.pop_front() {
            if !eligible(&change) {
                kept.push_back(change);
                continue;
            }
            bytes += proposal_bytes(&change);
            if !bundle.is_empty() && bytes > BUNDLE_BYTES {
                self.queued.push_front(change);
                break;
            }
            bundle.push(change);
        }
        kept.append(&mut self.queued);
        self.queued = kept;
        bundle
    }

    /// Puts a bundle whose send failed back at the front of the queue, as
    /// if it had never gone.
    pub(crate) fn unsend(&mut self, bundle: Vec<ItemMetadata>) {
        self.sending -= 1;
        let first = bundle.first().map(|p| (p.item_id, p.version));
        if let Some(at) = self
            .sent
            .iter()
            .rposition(|s| s.pending.first().map(|p| (p.item_id, p.version)) == first)
        {
            self.sent.remove(at);
        }
        for change in bundle.into_iter().rev() {
            self.queued.push_front(change);
        }
    }

    /// Crosses off the proposals an own notification listed, by item and
    /// version, and returns how many requests that completed.
    pub(crate) fn confirm(&mut self, listed: impl IntoIterator<Item = (u64, u64)>) -> usize {
        let listed: HashSet<(u64, u64)> = listed.into_iter().collect();
        for sent in &mut self.sent {
            sent.pending
                .retain(|p| !listed.contains(&(p.item_id, p.version)));
        }
        let before = self.sent.len();
        self.sent.retain(|s| !s.pending.is_empty());
        before - self.sent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadata::WorkspaceId;
    use wire::Codec;

    fn change(item_id: u64, version: u64) -> ItemMetadata {
        ItemMetadata {
            item_id,
            workspace: WorkspaceId::from("ws"),
            path: format!("f{item_id}.txt"),
            version,
            chunks: vec![],
            size: 0,
            is_deleted: false,
            modified_by: "laptop".to_string(),
        }
    }

    fn ids(bundle: &[ItemMetadata]) -> Vec<(u64, u64)> {
        bundle.iter().map(|p| (p.item_id, p.version)).collect()
    }

    const DEADLINE: Duration = Duration::from_millis(100);

    #[test]
    fn a_lone_change_goes_at_once_and_the_rest_wait_for_its_confirmation() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        outbox.push(change(1, 1));
        assert_eq!(ids(&outbox.next_bundle(t0).unwrap()), [(1, 1)]);
        for (item, version) in [(2, 1), (1, 2), (3, 1)] {
            outbox.push(change(item, version));
            assert_eq!(outbox.next_bundle(t0), None, "a request is out");
        }
        assert_eq!((outbox.depth(), outbox.pending()), (3, 4));
        // Another device's change, or an unknown version, completes nothing.
        assert_eq!(outbox.confirm([(9, 1), (1, 7)]), 0);
        assert_eq!(outbox.confirm([(1, 1)]), 1);
        let bundle = outbox.next_bundle(t0).unwrap();
        assert_eq!(
            ids(&bundle),
            [(2, 1), (1, 2), (3, 1)],
            "in order, one bundle"
        );
        assert_eq!(outbox.next_bundle(t0), None);
        // Its notification lists every item, in any order.
        assert_eq!(outbox.confirm([(3, 1), (2, 1), (1, 2)]), 1);
        assert_eq!(outbox.pending(), 0);
    }

    #[test]
    fn a_release_lets_go_all_but_the_items_still_unconfirmed_and_a_second_deadline_those_too() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        outbox.push(change(1, 1));
        outbox.next_bundle(t0).unwrap();
        outbox.push(change(2, 1));
        outbox.push(change(1, 2));
        outbox.push(change(3, 1));
        outbox.push(change(1, 3));
        assert_eq!(outbox.release_due(t0 + DEADLINE / 2), None);
        let release = outbox.release_due(t0 + DEADLINE).unwrap();
        assert_eq!(
            release,
            Release {
                unconfirmed: 1,
                waited: DEADLINE,
                attempts: 1,
                queued: 4
            }
        );
        assert_eq!(outbox.release_due(t0 + DEADLINE), None, "reported once");
        let t1 = t0 + DEADLINE;
        assert_eq!(ids(&outbox.next_bundle(t1).unwrap()), [(2, 1), (3, 1)]);
        assert_eq!(ids(outbox.queued.make_contiguous()), [(1, 2), (1, 3)]);

        // The released request still completes when its notification
        // comes; then item 1 follows the bundle out.
        assert_eq!(outbox.confirm([(1, 1)]), 1);
        assert_eq!(outbox.confirm([(2, 1), (3, 1)]), 1);
        assert_eq!(ids(&outbox.next_bundle(t1).unwrap()), [(1, 2), (1, 3)]);
    }

    #[test]
    fn a_request_never_confirmed_is_given_up_after_two_deadlines() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        outbox.push(change(1, 1));
        outbox.next_bundle(t0).unwrap();
        outbox.push(change(1, 2));
        assert!(outbox.release_due(t0 + DEADLINE).is_some());
        assert_eq!(outbox.next_bundle(t0 + DEADLINE), None, "item 1 is held");
        assert_eq!(outbox.release_due(t0 + 2 * DEADLINE), None);
        let later = t0 + 2 * DEADLINE;
        assert_eq!(ids(&outbox.next_bundle(later).unwrap()), [(1, 2)]);
        // A confirmation of the request given up is not a completion.
        assert_eq!(outbox.confirm([(1, 1)]), 0);
        assert_eq!(outbox.confirm([(1, 2)]), 1);
        assert_eq!(outbox.pending(), 0);
    }

    #[test]
    fn a_change_is_unsent_until_the_send_of_its_bundle_ends() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        outbox.push(change(1, 1));
        assert!(outbox.unsent(1, 1));
        outbox.next_bundle(t0).unwrap();
        assert!(outbox.unsent(1, 1), "taken, still being sent");
        outbox.sent();
        assert!(!outbox.unsent(1, 1));
        outbox.push(change(2, 1));
        assert_eq!(outbox.next_bundle(t0), None);
        assert!(outbox.unsent(2, 1) && !outbox.unsent(1, 1));
        outbox.confirm([(1, 1)]);
        let bundle = outbox.next_bundle(t0).unwrap();
        outbox.unsend(bundle);
        assert!(outbox.unsent(2, 1), "a failed send is queued again");
    }

    #[test]
    fn a_failed_send_goes_back_to_the_front() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        outbox.push(change(1, 1));
        outbox.push(change(2, 1));
        let bundle = outbox.next_bundle(t0).unwrap();
        outbox.push(change(3, 1));
        outbox.unsend(bundle);
        assert_eq!(outbox.pending(), 3);
        assert_eq!(
            ids(&outbox.next_bundle(t0).unwrap()),
            [(1, 1), (2, 1), (3, 1)]
        );
    }

    #[test]
    fn a_bundle_stops_at_the_byte_cap_and_a_leaving_device_takes_everything() {
        let t0 = Instant::now();
        let mut outbox = Outbox::new(DEADLINE);
        let mut big = change(1, 1);
        big.chunks = vec![content::ChunkId::of(b"x"); BUNDLE_BYTES / 24];
        outbox.push(big.clone());
        outbox.push(change(2, 1));
        assert_eq!(ids(&outbox.next_bundle(t0).unwrap()), [(1, 1)], "alone");
        outbox.confirm([(1, 1)]);
        let per = proposal_bytes(&change(10, 1));
        for item in 3..3 + (BUNDLE_BYTES / per) as u64 {
            outbox.push(change(item, 1));
        }
        let bundle = outbox.next_bundle(t0).unwrap();
        let bytes: usize = bundle.iter().map(proposal_bytes).sum();
        assert!(
            bytes <= BUNDLE_BYTES && bytes + 2 * per > BUNDLE_BYTES,
            "{bytes}"
        );
        assert!(outbox.depth() > 0);
        // Leaving, the rest goes whatever is out.
        outbox.push(big);
        let mut left = 0;
        while let Some(bundle) = outbox.drain_bundle() {
            left += bundle.len();
        }
        assert!(left >= 2 && outbox.depth() == 0);
    }

    #[test]
    fn the_bound_holds_for_the_binary_codec() {
        for chunks in [0, 1, 17] {
            let mut item = change(u64::MAX, u64::MAX);
            item.size = u64::MAX;
            item.path = "p".repeat(300);
            item.chunks = vec![content::ChunkId::of(b"c"); chunks];
            let encoded = wire::BinaryCodec.encoded_len(&crate::protocol::item_to_value(&item));
            assert!(proposal_bytes(&item) >= encoded, "{chunks} chunks");
        }
    }
}
