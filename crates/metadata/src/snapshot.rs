//! The store's state in the wire data model: the item codec of the sync
//! protocol, the whole-store dump behind [`crate::ShardedStore::snapshot`]
//! that recovery tests compare, and the crash-safe file write the
//! checkpoint uses. The WAL records and the binary snapshot do not go
//! through this tree form ([`crate::record`]).

use crate::model::{ItemMetadata, Workspace, WorkspaceId};
use content::ChunkId;
use std::fs::File;
use std::io::BufWriter;
use wire::{Value, WireError, WireResult};

/// Lowers an item's metadata into the wire data model, moving its strings
/// into the value: the tree form of an item, for the dump of
/// [`crate::ShardedStore::snapshot`] and the sync protocol's messages.
pub fn item_into_value(item: ItemMetadata) -> Value {
    Value::Map(vec![
        ("item".into(), Value::U64(item.item_id)),
        ("ws".into(), Value::Str(item.workspace.0)),
        ("path".into(), Value::Str(item.path)),
        ("version".into(), Value::U64(item.version)),
        (
            "chunks".into(),
            Value::List(
                item.chunks
                    .iter()
                    .map(|c| Value::Bytes(c.as_bytes().to_vec()))
                    .collect(),
            ),
        ),
        ("size".into(), Value::U64(item.size)),
        ("deleted".into(), Value::Bool(item.is_deleted)),
        ("device".into(), Value::Str(item.modified_by)),
    ])
}

/// Parses an item's metadata from the wire data model, moving the strings
/// out of it. Keys it does not know are ignored.
///
/// # Errors
///
/// Returns a [`WireError`] on shape mismatches; a missing field is named.
pub fn item_from_value(mut value: Value) -> WireResult<ItemMetadata> {
    let chunks = value
        .field("chunks")?
        .as_list()?
        .iter()
        .map(|v| {
            let raw = v.as_bytes()?;
            let arr: [u8; 20] = raw
                .try_into()
                .map_err(|_| WireError::Invalid("chunk id must be 20 bytes".into()))?;
            Ok(ChunkId::from_bytes(arr))
        })
        .collect::<WireResult<Vec<ChunkId>>>()?;
    Ok(ItemMetadata {
        item_id: value.field("item")?.as_u64()?,
        workspace: WorkspaceId(value.take_field("ws")?.into_string()?),
        path: value.take_field("path")?.into_string()?,
        version: value.field("version")?.as_u64()?,
        chunks,
        size: value.field("size")?.as_u64()?,
        is_deleted: value.field("deleted")?.as_bool()?,
        modified_by: value.take_field("device")?.into_string()?,
    })
}

/// Full serializable state of a metadata store: what a checkpoint writes
/// and what [`crate::ShardedStore::snapshot`] dumps.
pub(crate) struct StoreParts {
    pub(crate) users: Vec<String>,
    pub(crate) workspaces: Vec<Workspace>,
    /// Per-item version histories, oldest version first.
    pub(crate) histories: Vec<Vec<ItemMetadata>>,
}

pub(crate) fn parts_to_value(parts: StoreParts) -> Value {
    Value::Map(vec![
        ("format".into(), Value::from("stacksync-metadata-v1")),
        (
            "users".into(),
            Value::List(parts.users.into_iter().map(Value::Str).collect()),
        ),
        (
            "workspaces".into(),
            Value::List(
                parts
                    .workspaces
                    .into_iter()
                    .map(|w| {
                        Value::Map(vec![
                            ("id".into(), Value::Str(w.id.0)),
                            ("owner".into(), Value::Str(w.owner)),
                            ("name".into(), Value::Str(w.name)),
                            (
                                "members".into(),
                                Value::List(w.members.into_iter().map(Value::Str).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "items".into(),
            Value::List(
                parts
                    .histories
                    .into_iter()
                    .map(|versions| {
                        Value::List(versions.into_iter().map(item_into_value).collect())
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Crash-safe file write: what `write` produces lands, through a buffer, in
/// a temp file in the target's directory, is fsynced, and only then renamed
/// over the destination — so at every instant the destination is either the
/// complete old content or the complete new content, never a torn mix. (The
/// rename is atomic on POSIX filesystems; the directory fsync afterwards is
/// best-effort, which is all portability allows.)
pub(crate) fn write_atomic(
    path: &std::path::Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp = path.with_extension("tmp");
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        write(&mut out)?;
        // `into_inner` flushes; dropping the writer would discard the error.
        let f = out.into_inner().map_err(|e| e.into_error())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}
