//! The records of the durable metadata plane ([`crate::durable`] gives
//! their layout), written through [`wire::BinaryWriter`] and read through
//! [`wire::BinaryReader`]: no record becomes a [`wire::Value`] tree on its
//! way to or from the disk. The item codec, [`write_item`] and
//! [`item_from_reader`], is written once for every [`wire::TokenWriter`]
//! and [`wire::TokenReader`]: the sync protocol's `get_changes` reply goes
//! through it in either transport codec.
//!
//! A record is read in one pass, and reads as `BinaryCodec::decode` followed
//! by field lookups on the tree would: keys come in any order, the first
//! occurrence of a key wins, every value is checked as a decode checks it
//! (unknown keys and unused fields included) and then skipped unless used,
//! a `u64` field also takes a non-negative `i64`, and nothing may follow
//! the record.

use crate::model::{ItemMetadata, WorkspaceId};
use content::ChunkId;
use std::borrow::Cow;
use wire::{BinaryReader, BinaryWriter, Token, TokenReader, TokenWriter, WireError, WireResult};

pub(crate) const SNAPSHOT_FORMAT: &str = "stacksync-metadata-v2";

/// One logged operation, the replay unit.
#[derive(Debug, PartialEq)]
pub(crate) enum Op {
    User(String),
    Ws {
        id: String,
        owner: String,
        name: String,
    },
    Share {
        ws: String,
        user: String,
    },
    Commit {
        ws: WorkspaceId,
        items: Vec<ItemMetadata>,
    },
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

pub(crate) fn write_user(w: &mut BinaryWriter<'_>, lsn: u64, user: &str) {
    w.map(3);
    write_head(w, lsn, "user");
    w.key("user");
    w.str(user);
}

pub(crate) fn write_ws(w: &mut BinaryWriter<'_>, lsn: u64, id: &str, owner: &str, name: &str) {
    w.map(5);
    write_head(w, lsn, "ws");
    w.key("id");
    w.str(id);
    w.key("owner");
    w.str(owner);
    w.key("name");
    w.str(name);
}

pub(crate) fn write_share(w: &mut BinaryWriter<'_>, lsn: u64, ws: &str, user: &str) {
    w.map(4);
    write_head(w, lsn, "share");
    w.key("ws");
    w.str(ws);
    w.key("user");
    w.str(user);
}

/// Starts a commit record of `items` items; write each with [`write_item`]
/// next.
pub(crate) fn write_commit(w: &mut BinaryWriter<'_>, lsn: u64, ws: &WorkspaceId, items: usize) {
    w.map(4);
    write_head(w, lsn, "commit");
    w.key("ws");
    w.str(&ws.0);
    w.key("items");
    w.list(items);
}

fn write_head(w: &mut BinaryWriter<'_>, lsn: u64, op: &str) {
    w.key("lsn");
    w.u64(lsn);
    w.key("op");
    w.str(op);
}

/// Writes `item` as it is stored: in workspace `ws`, at `version`. This is
/// [`crate::item_into_value`]'s tree, written without building it.
pub fn write_item(
    w: &mut (impl TokenWriter + ?Sized),
    item: &ItemMetadata,
    ws: &WorkspaceId,
    version: u64,
) {
    w.map(8);
    w.key("item");
    w.u64(item.item_id);
    w.key("ws");
    w.str(&ws.0);
    w.key("path");
    w.str(&item.path);
    w.key("version");
    w.u64(version);
    w.key("chunks");
    w.list(item.chunks.len());
    for chunk in &item.chunks {
        w.bytes(chunk.as_bytes());
    }
    w.key("size");
    w.u64(item.size);
    w.key("deleted");
    w.bool(item.is_deleted);
    w.key("device");
    w.str(&item.modified_by);
}

pub(crate) fn write_snapshot_header(w: &mut BinaryWriter<'_>, records: u64) {
    w.map(2);
    w.key("format");
    w.str(SNAPSHOT_FORMAT);
    w.key("records");
    w.u64(records);
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn missing(key: &str) -> WireError {
    WireError::MissingField(key.to_string())
}

/// A string field the record's op may not use: taken as the first
/// occurrence's head, checked only when the op turns out to use it.
fn text(field: Option<Token<'_>>, key: &str) -> WireResult<String> {
    field
        .ok_or_else(|| missing(key))?
        .into_str()
        .map(Cow::into_owned)
}

/// Reads one record of the WAL or the snapshot.
pub(crate) fn parse_record(bytes: &[u8]) -> WireResult<(u64, Op)> {
    /// Where the first `items` went: read, when the op was known to be a
    /// commit by then, or else checked and left at this range for later.
    enum Items {
        Read(Vec<ItemMetadata>),
        At(std::ops::Range<usize>),
    }
    let mut r = BinaryReader::new(bytes);
    let (mut lsn, mut op) = (None, None);
    let (mut user, mut id, mut owner, mut name, mut ws) = (None, None, None, None, None);
    let mut items = None;
    for _ in 0..r.next(0)?.map_len()? {
        match &*r.key()? {
            "lsn" if lsn.is_none() => lsn = Some(r.skip(1)?.as_u64()?),
            "op" if op.is_none() => op = Some(r.skip(1)?.into_str()?),
            "user" if user.is_none() => user = Some(r.skip(1)?),
            "id" if id.is_none() => id = Some(r.skip(1)?),
            "owner" if owner.is_none() => owner = Some(r.skip(1)?),
            "name" if name.is_none() => name = Some(r.skip(1)?),
            "ws" if ws.is_none() => ws = Some(r.skip(1)?),
            "items" if items.is_none() && op.as_deref() == Some("commit") => {
                items = Some(Items::Read(items_from_reader(&mut r, 1)?));
            }
            "items" if items.is_none() => {
                let start = r.position();
                r.skip(1)?;
                items = Some(Items::At(start..r.position()));
            }
            _ => {
                r.skip(1)?;
            }
        }
    }
    r.finish()?;
    let lsn = lsn.ok_or_else(|| missing("lsn"))?;
    let op = match &*op.ok_or_else(|| missing("op"))? {
        "user" => Op::User(text(user, "user")?),
        "ws" => Op::Ws {
            id: text(id, "id")?,
            owner: text(owner, "owner")?,
            name: text(name, "name")?,
        },
        "share" => Op::Share {
            ws: text(ws, "ws")?,
            user: text(user, "user")?,
        },
        "commit" => Op::Commit {
            ws: WorkspaceId(text(ws, "ws")?),
            items: match items.ok_or_else(|| missing("items"))? {
                Items::Read(items) => items,
                Items::At(range) => items_from_reader(&mut BinaryReader::new(&bytes[range]), 1)?,
            },
        },
        other => {
            return Err(WireError::Invalid(format!(
                "unknown wal record op `{other}`"
            )))
        }
    };
    Ok((lsn, op))
}

/// Reads a list of items, which `depth` lists and maps enclose: a commit
/// record's `items`, or the `get_changes` reply that
/// [`crate::MetadataStore::write_current_items`] writes.
///
/// # Errors
///
/// As [`item_from_reader`], or a [`WireError::TypeMismatch`] when no list
/// comes next.
pub fn items_from_reader<'a>(
    r: &mut (impl TokenReader<'a> + ?Sized),
    depth: usize,
) -> WireResult<Vec<ItemMetadata>> {
    let len = r.next(depth)?.list_len()?;
    // Sized up front: replay holds every parsed record at once, and a
    // `collect` through `Result` would give each a capacity of four.
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(item_from_reader(r, depth + 1)?);
    }
    Ok(items)
}

/// Reads one item's metadata, a map that `depth` lists and maps enclose:
/// what [`write_item`] writes, as [`crate::item_from_value`] reads its tree.
/// Each of its eight keys must be there; keys it does not know are checked
/// and skipped.
///
/// # Errors
///
/// The reader's error, or a [`WireError`] naming a missing or mistyped
/// field.
pub fn item_from_reader<'a>(
    r: &mut (impl TokenReader<'a> + ?Sized),
    depth: usize,
) -> WireResult<ItemMetadata> {
    let inner = depth + 1;
    let (mut item_id, mut ws, mut path, mut version) = (None, None, None, None);
    let (mut chunks, mut size, mut deleted, mut device) = (None, None, None, None);
    for _ in 0..r.next(depth)?.map_len()? {
        match &*r.key()? {
            "item" if item_id.is_none() => item_id = Some(r.skip(inner)?.as_u64()?),
            "ws" if ws.is_none() => ws = Some(r.skip(inner)?.into_str()?),
            "path" if path.is_none() => path = Some(r.skip(inner)?.into_str()?),
            "version" if version.is_none() => version = Some(r.skip(inner)?.as_u64()?),
            "chunks" if chunks.is_none() => chunks = Some(read_chunks(r, inner)?),
            "size" if size.is_none() => size = Some(r.skip(inner)?.as_u64()?),
            "deleted" if deleted.is_none() => deleted = Some(r.skip(inner)?.as_bool()?),
            "device" if device.is_none() => device = Some(r.skip(inner)?.into_str()?),
            _ => {
                r.skip(inner)?;
            }
        }
    }
    Ok(ItemMetadata {
        item_id: item_id.ok_or_else(|| missing("item"))?,
        workspace: WorkspaceId(ws.ok_or_else(|| missing("ws"))?.into_owned()),
        path: path.ok_or_else(|| missing("path"))?.into_owned(),
        version: version.ok_or_else(|| missing("version"))?,
        chunks: chunks.ok_or_else(|| missing("chunks"))?,
        size: size.ok_or_else(|| missing("size"))?,
        is_deleted: deleted.ok_or_else(|| missing("deleted"))?,
        modified_by: device.ok_or_else(|| missing("device"))?.into_owned(),
    })
}

fn read_chunks<'a>(
    r: &mut (impl TokenReader<'a> + ?Sized),
    depth: usize,
) -> WireResult<Vec<ChunkId>> {
    let len = r.next(depth)?.list_len()?;
    let mut chunks = Vec::with_capacity(len);
    for _ in 0..len {
        let raw = r.next(depth + 1)?.into_bytes()?;
        let id: [u8; 20] = raw
            .as_ref()
            .try_into()
            .map_err(|_| WireError::Invalid("chunk id must be 20 bytes".into()))?;
        chunks.push(ChunkId::from_bytes(id));
    }
    Ok(chunks)
}

/// The record count a snapshot's header frame announces.
pub(crate) fn parse_snapshot_header(bytes: &[u8]) -> WireResult<u64> {
    let mut r = BinaryReader::new(bytes);
    let (mut format, mut records) = (None, None);
    for _ in 0..r.next(0)?.map_len()? {
        match &*r.key()? {
            "format" if format.is_none() => format = Some(r.skip(1)?.into_str()?),
            "records" if records.is_none() => records = Some(r.skip(1)?.as_u64()?),
            _ => {
                r.skip(1)?;
            }
        }
    }
    r.finish()?;
    match &*format.ok_or_else(|| missing("format"))? {
        SNAPSHOT_FORMAT => records.ok_or_else(|| missing("records")),
        format => Err(WireError::Invalid(format!(
            "unsupported metadata snapshot format `{format}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{item_from_value, item_into_value};
    use proptest::prelude::*;
    use proptest::TestRng;
    use wire::{BinaryCodec, Codec, Value};

    // -----------------------------------------------------------------------
    // The oracle: the record code that built and took apart `Value` trees.
    // -----------------------------------------------------------------------

    fn user_record(lsn: u64, user: &str) -> Value {
        Value::Map(vec![
            ("lsn".into(), Value::U64(lsn)),
            ("op".into(), Value::from("user")),
            ("user".into(), Value::from(user)),
        ])
    }

    fn ws_record(lsn: u64, id: &str, owner: &str, name: &str) -> Value {
        Value::Map(vec![
            ("lsn".into(), Value::U64(lsn)),
            ("op".into(), Value::from("ws")),
            ("id".into(), Value::from(id)),
            ("owner".into(), Value::from(owner)),
            ("name".into(), Value::from(name)),
        ])
    }

    fn share_record(lsn: u64, ws: &str, user: &str) -> Value {
        Value::Map(vec![
            ("lsn".into(), Value::U64(lsn)),
            ("op".into(), Value::from("share")),
            ("ws".into(), Value::from(ws)),
            ("user".into(), Value::from(user)),
        ])
    }

    fn commit_record(lsn: u64, ws: &WorkspaceId, items: &[ItemMetadata]) -> Value {
        Value::Map(vec![
            ("lsn".into(), Value::U64(lsn)),
            ("op".into(), Value::from("commit")),
            ("ws".into(), Value::from(ws.0.as_str())),
            (
                "items".into(),
                Value::List(items.iter().cloned().map(item_into_value).collect()),
            ),
        ])
    }

    fn header_record(format: &str, records: u64) -> Value {
        Value::Map(vec![
            ("format".into(), Value::from(format)),
            ("records".into(), Value::U64(records)),
        ])
    }

    fn tree_parse_record(bytes: &[u8]) -> WireResult<(u64, Op)> {
        let v = BinaryCodec.decode(bytes)?;
        let lsn = v.field("lsn")?.as_u64()?;
        let op = match v.field("op")?.as_str()? {
            "user" => Op::User(v.field("user")?.as_str()?.to_string()),
            "ws" => Op::Ws {
                id: v.field("id")?.as_str()?.to_string(),
                owner: v.field("owner")?.as_str()?.to_string(),
                name: v.field("name")?.as_str()?.to_string(),
            },
            "share" => Op::Share {
                ws: v.field("ws")?.as_str()?.to_string(),
                user: v.field("user")?.as_str()?.to_string(),
            },
            "commit" => Op::Commit {
                ws: WorkspaceId(v.field("ws")?.as_str()?.to_string()),
                items: v
                    .field("items")?
                    .as_list()?
                    .iter()
                    .cloned()
                    .map(item_from_value)
                    .collect::<WireResult<Vec<ItemMetadata>>>()?,
            },
            other => {
                return Err(WireError::Invalid(format!(
                    "unknown wal record op `{other}`"
                )))
            }
        };
        Ok((lsn, op))
    }

    fn tree_parse_snapshot_header(bytes: &[u8]) -> WireResult<u64> {
        let v = BinaryCodec.decode(bytes)?;
        let format = v.field("format")?.as_str()?;
        if format != SNAPSHOT_FORMAT {
            return Err(WireError::Invalid(format!(
                "unsupported metadata snapshot format `{format}`"
            )));
        }
        v.field("records")?.as_u64()
    }

    // -----------------------------------------------------------------------
    // Inputs
    // -----------------------------------------------------------------------

    /// Every key a record or an item has, plus one neither has.
    const KEYS: [&str; 18] = [
        "lsn", "op", "user", "id", "owner", "name", "ws", "items", "item", "path", "version",
        "chunks", "size", "deleted", "device", "format", "records", "other",
    ];

    fn word(rng: &mut TestRng) -> String {
        const POOL: [&str; 9] = [
            "", "a", "ws-1", "dörte", "commit", "user", "ws", "share", "q\"\n",
        ];
        match rng.below(4) {
            0 => (0..rng.below(12))
                .map(|_| char::from(b'a' + rng.below(26) as u8))
                .collect(),
            _ => POOL[rng.below(POOL.len())].to_string(),
        }
    }

    /// Small integers, the edges, and everything between.
    fn number(rng: &mut TestRng) -> u64 {
        match rng.below(4) {
            0 => rng.below(4) as u64,
            1 => [i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX][rng.below(3)],
            _ => rng.next_u64() >> rng.below(64),
        }
    }

    fn item(rng: &mut TestRng) -> ItemMetadata {
        let chunks = (0..rng.below(4))
            .map(|_| {
                let mut id = [0u8; 20];
                id.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                ChunkId::from_bytes(id)
            })
            .collect();
        ItemMetadata {
            item_id: number(rng),
            workspace: WorkspaceId(word(rng)),
            path: word(rng),
            version: number(rng),
            chunks,
            size: number(rng),
            is_deleted: rng.below(2) == 1,
            modified_by: word(rng),
        }
    }

    /// Any value, as deep as `depth` containers.
    fn value(rng: &mut TestRng, depth: usize) -> Value {
        match rng.below(if depth == 0 { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::I64(number(rng) as i64),
            3 => Value::U64(number(rng)),
            4 => Value::F64(rng.unit_f64()),
            5 => Value::Str(word(rng)),
            6 => Value::Bytes(vec![7; [0, 19, 20, 21, rng.below(40)][rng.below(5)]]),
            7 => Value::List((0..rng.below(3)).map(|_| value(rng, depth - 1)).collect()),
            _ => Value::Map(
                (0..rng.below(3))
                    .map(|_| {
                        (
                            KEYS[rng.below(KEYS.len())].to_string(),
                            value(rng, depth - 1),
                        )
                    })
                    .collect(),
            ),
        }
    }

    /// Another value of the kind of `v`: a duplicate key that decodes.
    fn like(rng: &mut TestRng, v: &Value) -> Value {
        match v {
            Value::Bool(b) => Value::Bool(!b),
            Value::I64(_) => Value::I64(number(rng) as i64),
            Value::U64(_) => Value::U64(number(rng)),
            Value::Str(_) => Value::Str(word(rng)),
            Value::Bytes(_) => Value::Bytes(vec![9; 20]),
            other => other.clone(),
        }
    }

    /// A record as the tree code wrote it: one of the four kinds or a
    /// snapshot header.
    fn record(rng: &mut TestRng) -> Value {
        let lsn = number(rng);
        match rng.below(5) {
            0 => user_record(lsn, &word(rng)),
            1 => ws_record(lsn, &word(rng), &word(rng), &word(rng)),
            2 => share_record(lsn, &word(rng), &word(rng)),
            3 => {
                let items: Vec<ItemMetadata> = (0..rng.below(4)).map(|_| item(rng)).collect();
                commit_record(lsn, &WorkspaceId(word(rng)), &items)
            }
            _ => {
                let format = [SNAPSHOT_FORMAT, "stacksync-metadata-v1"][rng.below(2)];
                header_record(format, lsn)
            }
        }
    }

    /// One change to the entries of a map: reorder, duplicate (first or
    /// later; same value, one of its kind or any), drop, retype, add a key,
    /// or turn a `u64` into an `i64` (negative past `i64::MAX`).
    fn edit(rng: &mut TestRng, entries: &mut Vec<(String, Value)>) {
        let n = entries.len();
        let (i, j) = (rng.below(n), rng.below(n + 1));
        match rng.below(6) {
            0 if n > 0 => entries.swap(i, j.min(n - 1)),
            1 if n > 0 => {
                let (key, v) = entries[i].clone();
                let v = match rng.below(3) {
                    0 => v,
                    1 => like(rng, &v),
                    _ => value(rng, 2),
                };
                entries.insert(j, (key, v));
            }
            2 if n > 0 => {
                entries.remove(i);
            }
            3 if n > 0 => entries[i].1 = value(rng, 2),
            4 if n > 0 => {
                if let Value::U64(v) = entries[i].1 {
                    entries[i].1 = Value::I64(v as i64);
                }
            }
            _ => entries.insert(j, (KEYS[rng.below(KEYS.len())].to_string(), value(rng, 2))),
        }
    }

    /// `record` with up to four edits, each to the record's own map or to
    /// one of its items.
    fn mutate(rng: &mut TestRng, record: &mut Value) {
        for _ in 0..rng.below(5) {
            let Value::Map(entries) = record else { return };
            let items = entries.iter_mut().find_map(|(k, v)| match (k.as_str(), v) {
                ("items", Value::List(items)) if !items.is_empty() => Some(items),
                _ => None,
            });
            match items {
                Some(items) if rng.below(2) == 1 => {
                    let k = rng.below(items.len());
                    if let Value::Map(fields) = &mut items[k] {
                        edit(rng, fields);
                    }
                }
                _ => edit(rng, entries),
            }
        }
    }

    /// The encoding of `record`, possibly damaged: flipped bytes, cut
    /// short, or with a byte after it.
    fn damage(rng: &mut TestRng, mut bytes: Vec<u8>) -> Vec<u8> {
        match rng.below(6) {
            0 => {
                for _ in 0..=rng.below(3) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            1 => bytes.truncate(rng.below(bytes.len())),
            2 => bytes.push(0),
            _ => {}
        }
        bytes
    }

    fn agree<T: PartialEq + std::fmt::Debug>(
        fast: &WireResult<T>,
        tree: &WireResult<T>,
        bytes: &[u8],
    ) {
        match (fast, tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "values differ on {bytes:02x?}"),
            (Err(_), Err(_)) => {}
            _ => panic!("reader {fast:?}, tree {tree:?} on {bytes:02x?}"),
        }
    }

    #[test]
    fn the_one_pass_parsers_agree_with_the_tree_oracle() {
        let mut rng = proptest::test_rng("record::the_one_pass_parsers_agree");
        let (mut records_ok, mut headers_ok, mut inputs) = (0, 0, 0);
        for _ in 0..20_000 {
            let mut tree = record(&mut rng);
            if rng.below(4) != 0 {
                mutate(&mut rng, &mut tree);
            }
            let bytes = damage(&mut rng, BinaryCodec.encode(&tree));
            let (fast, slow) = (parse_record(&bytes), tree_parse_record(&bytes));
            agree(&fast, &slow, &bytes);
            let (fast_h, slow_h) = (
                parse_snapshot_header(&bytes),
                tree_parse_snapshot_header(&bytes),
            );
            agree(&fast_h, &slow_h, &bytes);
            records_ok += usize::from(fast.is_ok());
            headers_ok += usize::from(fast_h.is_ok());
            inputs += 1;
        }
        // Both outcomes are well represented, or the comparison proves
        // little.
        assert!(
            records_ok > inputs / 5 && records_ok < inputs * 4 / 5,
            "{records_ok}"
        );
        assert!(headers_ok > inputs / 50, "{headers_ok}");
    }

    #[test]
    fn items_of_a_record_that_is_no_commit_are_checked_but_not_read() {
        let good = item_into_value(ItemMetadata::new_file(1, &"w".into(), "p", vec![], 1, "d"));
        let with_items = |items: Value| {
            let Value::Map(mut entries) = user_record(4, "u") else {
                unreachable!()
            };
            entries.insert(0, ("items".into(), items));
            BinaryCodec.encode(&Value::Map(entries))
        };
        // Items that are not items at all: a user record does not read them.
        let bytes = with_items(Value::List(vec![Value::Null, Value::from("x")]));
        assert_eq!(parse_record(&bytes), Ok((4, Op::User("u".into()))));
        // Items that do not decode fail it: the `null` in a one-item list
        // (tags 0x08, 0x01, 0x00) becomes an unknown tag.
        let mut bytes = with_items(Value::List(vec![Value::Null]));
        let at = bytes.windows(3).position(|w| w == [0x08, 1, 0]).unwrap() + 2;
        bytes[at] = 0x7f;
        assert_eq!(parse_record(&bytes), Err(WireError::UnknownTag(0x7f)));

        // Before its op, a commit's items are read all the same.
        let Value::Map(mut entries) = commit_record(9, &"w".into(), &[]) else {
            unreachable!()
        };
        entries.retain(|(k, _)| k != "items");
        entries.insert(0, ("items".into(), Value::List(vec![good])));
        let (lsn, op) = parse_record(&BinaryCodec.encode(&Value::Map(entries))).unwrap();
        let Op::Commit { items, .. } = op else {
            panic!("{op:?}")
        };
        assert_eq!((lsn, items.len(), items[0].path.as_str()), (9, 1, "p"));
    }

    /// JSON text of `items` as the `get_changes` reply carries them, with
    /// up to four edits: a byte flipped, a piece of JSON syntax put in, a
    /// range taken out, or the end cut off.
    fn damaged_json_items(rng: &mut TestRng, items: &[ItemMetadata]) -> Vec<u8> {
        const PIECES: [&str; 12] = [
            ",",
            "]",
            "}",
            "[",
            "{",
            "\"",
            "\\",
            ":",
            "{\"$bytes\":\"",
            "null",
            "-1",
            "\\u",
        ];
        let mut text = Vec::new();
        let mut w = wire::JsonWriter::new(&mut text);
        w.list(items.len());
        for item in items {
            write_item(&mut w, item, &item.workspace, item.version);
        }
        for _ in 0..rng.below(5) {
            let at = rng.below(text.len() + 1);
            match rng.below(4) {
                0 if at < text.len() => text[at] ^= 1 << rng.below(8),
                1 => {
                    let piece = PIECES[rng.below(PIECES.len())].as_bytes();
                    text.splice(at..at, piece.iter().copied());
                }
                2 => {
                    let end = (at + rng.below(6)).min(text.len());
                    text.drain(at..end);
                }
                _ => text.truncate(at),
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Corrupted JSON never panics the reader or `items_from_reader`,
        /// and they agree with the tree they replace: decode, then
        /// `item_from_value` item by item.
        #[test]
        fn prop_corrupted_json_items_are_an_error_or_the_tree_reading(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let items: Vec<ItemMetadata> = (0..rng.below(4)).map(|_| item(&mut rng)).collect();
            let text = damaged_json_items(&mut rng, &items);
            let streamed = wire::JsonReader::new(&text).and_then(|mut r| {
                let items = items_from_reader(&mut r, 0)?;
                r.finish()?;
                Ok(items)
            });
            let tree = wire::JsonCodec.decode(&text).and_then(|v| {
                v.into_list()?.into_iter().map(item_from_value).collect::<WireResult<Vec<_>>>()
            });
            match (&streamed, &tree) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "reader {:?}, tree {:?} on {:?}", streamed, tree, String::from_utf8_lossy(&text)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_writer_records_are_the_tree_encodings(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let (lsn, a, b, c) = (number(&mut rng), word(&mut rng), word(&mut rng), word(&mut rng));
            let written = |write: &dyn Fn(&mut BinaryWriter<'_>)| {
                let mut out = vec![0xee];
                write(&mut BinaryWriter::new(&mut out));
                out.split_off(1)
            };
            prop_assert_eq!(
                written(&|w| write_user(w, lsn, &a)),
                BinaryCodec.encode(&user_record(lsn, &a))
            );
            prop_assert_eq!(
                written(&|w| write_ws(w, lsn, &a, &b, &c)),
                BinaryCodec.encode(&ws_record(lsn, &a, &b, &c))
            );
            prop_assert_eq!(
                written(&|w| write_share(w, lsn, &a, &b)),
                BinaryCodec.encode(&share_record(lsn, &a, &b))
            );
            prop_assert_eq!(
                written(&|w| write_snapshot_header(w, lsn)),
                BinaryCodec.encode(&header_record(SNAPSHOT_FORMAT, lsn))
            );

            // A commit stores each proposal in the record's workspace at the
            // version it committed.
            let ws = WorkspaceId(word(&mut rng));
            let proposals: Vec<(ItemMetadata, u64)> = (0..rng.below(5))
                .map(|_| (item(&mut rng), number(&mut rng)))
                .collect();
            let stored: Vec<ItemMetadata> = proposals
                .iter()
                .map(|(item, version)| ItemMetadata {
                    workspace: ws.clone(),
                    version: *version,
                    ..item.clone()
                })
                .collect();
            let bytes = written(&|w| {
                write_commit(w, lsn, &ws, proposals.len());
                for (item, version) in &proposals {
                    write_item(w, item, &ws, *version);
                }
            });
            prop_assert_eq!(&bytes, &BinaryCodec.encode(&commit_record(lsn, &ws, &stored)));
            prop_assert_eq!(parse_record(&bytes), Ok((lsn, Op::Commit { ws, items: stored })));
        }
    }
}
