//! Durable-queue journal: one broker-wide [`wal::Log`] recording queue
//! declarations, publishes, acknowledgements, and deletions.
//!
//! The journal gives durable queues RabbitMQ-style persistence: a publish
//! to a durable queue is acknowledged only after its record is fsynced
//! (the publisher flushes; publishers that journaled meanwhile share that
//! fsync), while acks are journaled *fire-and-forget*: buffered, and flushed
//! by the next waited publish, on close, or by the log itself once 256 KiB of
//! them are pending — the most a kill can turn into redeliveries. Because
//! the log is a single FIFO, an ack record can never become durable before
//! the publish it refers to.
//!
//! Recovery replays the log in order: pending = publishes minus acks minus
//! deleted queues. Requeued messages keep their journal id, so a consumer
//! ack after recovery still cancels the original publish record. Losing
//! un-fsynced acks is safe — the messages are redelivered, which is the
//! at-least-once contract ("no invocation is ever lost", paper §3.4).
//!
//! Record formats (all integers little-endian, strings and payloads
//! prefixed by a `u32` length, an optional string by a `0`/`1` byte):
//!
//! ```text
//! decl:   [1][auto_delete u8][rate_window_ms u64][name]
//! ack:    [3][jid u64]
//! delq:   [4][name]
//! pub:    [5][jid u64][queue][payload][reply_to?][trace?]
//! ```
//!
//! A record ends where its last field does; trailing bytes are refused.
//! Kind 2 is retired: it was the publish record that also stored three
//! message headers nothing read (`correlation_id`, `content_type`,
//! `persistent`). A journal holding one fails to open with `InvalidData`
//! naming the kind, like `snapshot.json` in the metadata plane: no loader,
//! no option. Drain such a broker before upgrading it.

use crate::broker::QueueOptions;
use crate::error::{MqError, MqResult};
use crate::message::{Message, MessageProperties};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const K_DECL: u8 = 1;
/// The publish record of the five-header layout; refused on replay.
const K_PUB_RETIRED: u8 = 2;
const K_ACK: u8 = 3;
const K_DELQ: u8 = 4;
const K_PUB: u8 = 5;

fn wal_err(e: wal::WalError) -> MqError {
    MqError::Durability(e.to_string())
}

/// The broker's journal handle: the WAL plus the journal-id allocator.
pub(crate) struct Journal {
    log: wal::Log,
    next_jid: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("dir", &self.log.dir())
            .finish_non_exhaustive()
    }
}

impl Journal {
    pub(crate) fn new(log: wal::Log, next_jid: u64) -> Self {
        Journal {
            log,
            next_jid: AtomicU64::new(next_jid),
        }
    }

    pub(crate) fn status(&self) -> Result<(), String> {
        self.log.status()
    }

    /// Journals a durable queue declaration; waits for durability.
    pub(crate) fn record_decl(&self, name: &str, options: &QueueOptions) -> MqResult<()> {
        let mut buf = vec![K_DECL, options.auto_delete as u8];
        buf.extend_from_slice(&(options.rate_window.as_millis() as u64).to_le_bytes());
        put_bytes(&mut buf, name.as_bytes());
        self.log
            .append(&buf)
            .map_err(wal_err)?
            .wait()
            .map_err(wal_err)
    }

    /// Journals a publish, allocating its journal id. The caller decides
    /// when to wait on the returned ticket (after releasing queue locks).
    pub(crate) fn record_publish(
        &self,
        queue: &str,
        message: &Message,
    ) -> MqResult<(u64, wal::Ticket)> {
        let jid = self.next_jid.fetch_add(1, Ordering::SeqCst);
        let mut buf = vec![K_PUB];
        buf.extend_from_slice(&jid.to_le_bytes());
        put_bytes(&mut buf, queue.as_bytes());
        put_bytes(&mut buf, message.payload());
        let p = message.properties();
        put_opt(&mut buf, p.reply_to.as_deref());
        put_opt(&mut buf, p.trace.as_deref());
        let ticket = self.log.append(&buf).map_err(wal_err)?;
        Ok((jid, ticket))
    }

    /// Journals an ack, buffered: no fsync wait. A crash may lose buffered
    /// acks, which only causes redelivery (at-least-once), never loss. A
    /// down log is ignored here for the same reason — the `mqsim.journal`
    /// health check carries the failure signal instead.
    pub(crate) fn record_ack(&self, jid: u64) {
        let mut buf = vec![K_ACK];
        buf.extend_from_slice(&jid.to_le_bytes());
        if let Ok(ticket) = self.log.append(&buf) {
            drop(ticket);
        }
    }

    /// Journals a queue deletion; waits for durability.
    pub(crate) fn record_delete(&self, queue: &str) -> MqResult<()> {
        let mut buf = vec![K_DELQ];
        put_bytes(&mut buf, queue.as_bytes());
        self.log
            .append(&buf)
            .map_err(wal_err)?
            .wait()
            .map_err(wal_err)
    }

    /// Forces buffered records (acks) to disk.
    pub(crate) fn flush(&self) -> MqResult<()> {
        self.log.flush().map_err(wal_err)
    }

    /// Fault-simulator hook: see [`wal::Log::simulate_crash`].
    pub(crate) fn simulate_crash(&self, surviving_pending_bytes: usize) {
        self.log.simulate_crash(surviving_pending_bytes);
    }
}

/// The broker state reconstructed from a journal replay.
#[derive(Debug)]
pub(crate) struct RecoveredState {
    /// Durable queues to re-declare, by name.
    pub queues: BTreeMap<String, QueueOptions>,
    /// Unacked publishes in journal-id order: `(jid, queue, message)`.
    pub pending: Vec<(u64, String, Message)>,
    /// First free journal id.
    pub next_jid: u64,
}

/// Replays decoded WAL records into a [`RecoveredState`].
pub(crate) fn replay(records: &[(u64, Vec<u8>)]) -> io::Result<RecoveredState> {
    let mut queues: BTreeMap<String, QueueOptions> = BTreeMap::new();
    let mut pending: BTreeMap<u64, (String, Message)> = BTreeMap::new();
    let mut next_jid = 0u64;
    for (_, payload) in records {
        let mut r = Reader::new(payload);
        match r.u8()? {
            K_DECL => {
                let auto_delete = r.u8()? != 0;
                let rate_window = Duration::from_millis(r.u64()?);
                let name = r.string()?;
                queues.insert(
                    name,
                    QueueOptions {
                        auto_delete,
                        rate_window,
                        durable: true,
                    },
                );
            }
            K_PUB => {
                let jid = r.u64()?;
                let queue = r.string()?;
                let payload = r.bytes()?.to_vec();
                let properties = MessageProperties {
                    reply_to: r.opt_string()?,
                    trace: r.opt_string()?,
                };
                next_jid = next_jid.max(jid + 1);
                pending.insert(jid, (queue, Message::with_properties(payload, properties)));
            }
            K_ACK => {
                pending.remove(&r.u64()?);
            }
            K_DELQ => {
                let name = r.string()?;
                queues.remove(&name);
                pending.retain(|_, (q, _)| q != &name);
            }
            K_PUB_RETIRED => {
                return Err(invalid(format!(
                    "journal record kind {K_PUB_RETIRED} (the five-header publish record) \
                     is retired; this journal was written by an older broker"
                )));
            }
            other => return Err(invalid(format!("unknown journal record kind {other}"))),
        }
        if r.at != payload.len() {
            return Err(invalid(format!(
                "{} trailing byte(s) in a journal record",
                payload.len() - r.at
            )));
        }
    }
    Ok(RecoveredState {
        queues,
        pending: pending
            .into_iter()
            .map(|(jid, (queue, message))| (jid, queue, message))
            .collect(),
        next_jid,
    })
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    buf.extend_from_slice(bytes);
}

fn put_opt(buf: &mut Vec<u8>, value: Option<&str>) {
    match value {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_bytes(buf, s.as_bytes());
        }
    }
}

/// Bounds-checked little-endian reader over a journal record.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(invalid("truncated journal record".to_string())),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        self.take(len)
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?.to_vec()).map_err(|e| invalid(e.to_string()))
    }

    fn opt_string(&mut self) -> io::Result<Option<String>> {
        if self.u8()? == 0 {
            Ok(None)
        } else {
            self.string().map(Some)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pub_record(jid: u64, queue: &str, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![K_PUB];
        buf.extend_from_slice(&jid.to_le_bytes());
        put_bytes(&mut buf, queue.as_bytes());
        put_bytes(&mut buf, payload);
        put_opt(&mut buf, None);
        put_opt(&mut buf, None);
        buf
    }

    fn ack_record(jid: u64) -> Vec<u8> {
        let mut buf = vec![K_ACK];
        buf.extend_from_slice(&jid.to_le_bytes());
        buf
    }

    #[test]
    fn replay_pubs_minus_acks() {
        let records = vec![
            (0, pub_record(0, "q", b"a")),
            (1, pub_record(1, "q", b"b")),
            (2, ack_record(0)),
        ];
        let state = replay(&records).unwrap();
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.pending[0].0, 1);
        assert_eq!(state.pending[0].2.payload(), b"b");
        assert_eq!(state.next_jid, 2);
    }

    #[test]
    fn replay_delete_drops_queue_and_messages() {
        let mut decl = vec![K_DECL, 0];
        decl.extend_from_slice(&60_000u64.to_le_bytes());
        put_bytes(&mut decl, b"q");
        let mut delq = vec![K_DELQ];
        put_bytes(&mut delq, b"q");
        let records = vec![(0, decl), (1, pub_record(0, "q", b"x")), (2, delq)];
        let state = replay(&records).unwrap();
        assert!(state.queues.is_empty());
        assert!(state.pending.is_empty());
    }

    #[test]
    fn truncated_records_are_invalid_data_not_panics() {
        for record in [
            vec![K_PUB],
            vec![K_DECL, 1],
            pub_record(3, "q", b"abc")[..12].to_vec(),
            vec![99],
        ] {
            let err = replay(&[(0, record)]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn properties_roundtrip_through_records() {
        for props in [
            MessageProperties {
                reply_to: Some("q.reply".into()),
                trace: Some("span".into()),
            },
            MessageProperties {
                reply_to: None,
                trace: Some("span".into()),
            },
            MessageProperties::default(),
        ] {
            let mut buf = vec![K_PUB];
            buf.extend_from_slice(&7u64.to_le_bytes());
            put_bytes(&mut buf, b"q");
            put_bytes(&mut buf, b"body");
            put_opt(&mut buf, props.reply_to.as_deref());
            put_opt(&mut buf, props.trace.as_deref());
            let state = replay(&[(0, buf)]).unwrap();
            assert_eq!(state.pending[0].2.payload(), b"body");
            assert_eq!(state.pending[0].2.properties(), &props);
        }
    }

    #[test]
    fn trailing_bytes_are_refused_in_every_kind() {
        let mut decl = vec![K_DECL, 0];
        decl.extend_from_slice(&60_000u64.to_le_bytes());
        put_bytes(&mut decl, b"q");
        let mut delq = vec![K_DELQ];
        put_bytes(&mut delq, b"q");
        for record in [decl, pub_record(1, "q", b"x"), ack_record(1), delq] {
            assert!(replay(&[(0, record.clone())]).is_ok());
            let mut longer = record;
            longer.push(0);
            let err = replay(&[(0, longer)]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("1 trailing byte"), "{err}");
        }
    }
}
