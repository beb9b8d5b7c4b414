//! Snapshot/restore of the metadata store: the persistence story for the
//! metadata tier (the paper's PostgreSQL keeps this durable; the in-memory
//! stand-in serializes to the wire data model instead, so a deployment can
//! checkpoint to disk and restart).

use crate::error::MetadataResult;
use crate::model::{ItemMetadata, Workspace, WorkspaceId};
use crate::store::InMemoryStore;
use content::ChunkId;
use std::fs::File;
use std::io::{BufWriter, Write};
use wire::{Codec, JsonCodec, Value, WireError, WireResult};

pub(crate) fn item_to_value(item: &ItemMetadata) -> Value {
    Value::Map(vec![
        ("item".into(), Value::U64(item.item_id)),
        ("ws".into(), Value::Str(item.workspace.0.clone())),
        ("path".into(), Value::Str(item.path.clone())),
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
        ("device".into(), Value::Str(item.modified_by.clone())),
    ])
}

pub(crate) fn item_from_value(value: &Value) -> WireResult<ItemMetadata> {
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
        workspace: WorkspaceId(value.field("ws")?.as_str()?.to_string()),
        path: value.field("path")?.as_str()?.to_string(),
        version: value.field("version")?.as_u64()?,
        chunks,
        size: value.field("size")?.as_u64()?,
        is_deleted: value.field("deleted")?.as_bool()?,
        modified_by: value.field("device")?.as_str()?.to_string(),
    })
}

/// Full serializable state of a metadata store — the common denominator of
/// [`InMemoryStore`] and [`crate::ShardedStore`], so both produce and load
/// the same `stacksync-metadata-v1` snapshot format.
pub(crate) struct StoreParts {
    pub(crate) users: Vec<String>,
    pub(crate) workspaces: Vec<Workspace>,
    /// Per-item version histories, oldest version first.
    pub(crate) histories: Vec<Vec<ItemMetadata>>,
}

pub(crate) fn parts_to_value(parts: &StoreParts) -> Value {
    Value::Map(vec![
        ("format".into(), Value::from("stacksync-metadata-v1")),
        (
            "users".into(),
            Value::List(parts.users.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "workspaces".into(),
            Value::List(
                parts
                    .workspaces
                    .iter()
                    .map(|w| {
                        Value::Map(vec![
                            ("id".into(), Value::Str(w.id.0.clone())),
                            ("owner".into(), Value::Str(w.owner.clone())),
                            ("name".into(), Value::Str(w.name.clone())),
                            (
                                "members".into(),
                                Value::List(w.members.iter().cloned().map(Value::Str).collect()),
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
                    .iter()
                    .map(|versions| Value::List(versions.iter().map(item_to_value).collect()))
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn parts_from_value(value: &Value) -> WireResult<StoreParts> {
    let format = value.field("format")?.as_str()?;
    if format != "stacksync-metadata-v1" {
        return Err(WireError::Invalid(format!(
            "unsupported metadata snapshot format `{format}`"
        )));
    }
    let users = value
        .field("users")?
        .as_list()?
        .iter()
        .map(|v| Ok(v.as_str()?.to_string()))
        .collect::<WireResult<Vec<String>>>()?;
    let workspaces = value
        .field("workspaces")?
        .as_list()?
        .iter()
        .map(|v| {
            Ok(Workspace {
                id: WorkspaceId(v.field("id")?.as_str()?.to_string()),
                owner: v.field("owner")?.as_str()?.to_string(),
                name: v.field("name")?.as_str()?.to_string(),
                members: v
                    .field("members")?
                    .as_list()?
                    .iter()
                    .map(|m| Ok(m.as_str()?.to_string()))
                    .collect::<WireResult<Vec<String>>>()?,
            })
        })
        .collect::<WireResult<Vec<Workspace>>>()?;
    let histories = value
        .field("items")?
        .as_list()?
        .iter()
        .map(|versions| {
            versions
                .as_list()?
                .iter()
                .map(item_from_value)
                .collect::<WireResult<Vec<ItemMetadata>>>()
        })
        .collect::<WireResult<Vec<Vec<ItemMetadata>>>>()?;
    Ok(StoreParts {
        users,
        workspaces,
        histories,
    })
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

impl InMemoryStore {
    /// Serializes the full store state (users, workspaces, every item
    /// version) into the wire data model.
    pub fn snapshot(&self) -> Value {
        let (users, workspaces, histories) = self.dump();
        parts_to_value(&StoreParts {
            users,
            workspaces,
            histories,
        })
    }

    /// Reconstructs a store from a snapshot.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the value is not a v1 metadata snapshot.
    pub fn restore(value: &Value) -> WireResult<InMemoryStore> {
        let parts = parts_from_value(value)?;
        Ok(InMemoryStore::from_dump(
            parts.users,
            parts.workspaces,
            parts.histories,
        ))
    }

    /// Serializes the snapshot as JSON bytes.
    pub fn snapshot_json(&self) -> Vec<u8> {
        JsonCodec.encode(&self.snapshot())
    }

    /// Restores from JSON bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed input.
    pub fn restore_json(bytes: &[u8]) -> WireResult<InMemoryStore> {
        Self::restore(&JsonCodec.decode(bytes)?)
    }

    /// Checkpoints the store to a file, atomically: the snapshot is written
    /// to a temp file, fsynced, and renamed into place, so a crash mid-write
    /// can never corrupt an existing checkpoint.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn checkpoint(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        write_atomic(path.as_ref(), |out| out.write_all(&self.snapshot_json()))
    }

    /// Loads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or `InvalidData` for malformed snapshots.
    pub fn load_checkpoint(path: impl AsRef<std::path::Path>) -> std::io::Result<InMemoryStore> {
        let bytes = std::fs::read(path)?;
        Self::restore_json(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Used by tests: a `MetadataResult` alias so the module compiles alone.
#[allow(dead_code)]
type _Compat = MetadataResult<()>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CommitResult;
    use crate::store::MetadataStore;

    fn populated() -> (InMemoryStore, WorkspaceId) {
        let s = InMemoryStore::new();
        s.create_user("alice").unwrap();
        s.create_user("bob").unwrap();
        let ws = s.create_workspace("alice", "Docs").unwrap();
        s.share_workspace(&ws, "bob").unwrap();
        let f1 = ItemMetadata::new_file(1, &ws, "a.txt", vec![ChunkId::of(b"x")], 3, "dev");
        s.commit(&ws, vec![f1.clone()]).unwrap();
        s.commit(
            &ws,
            vec![f1.next_version(vec![ChunkId::of(b"y")], 5, "dev2")],
        )
        .unwrap();
        let f2 = ItemMetadata::new_file(2, &ws, "b.txt", vec![], 0, "dev");
        s.commit(&ws, vec![f2.clone()]).unwrap();
        s.commit(&ws, vec![f2.tombstone("dev")]).unwrap();
        (s, ws)
    }

    #[test]
    fn snapshot_restore_preserves_everything() {
        let (original, ws) = populated();
        let restored = InMemoryStore::restore(&original.snapshot()).unwrap();

        // Users and workspaces (including sharing).
        let wss = restored.workspaces_of("bob").unwrap();
        assert_eq!(wss.len(), 1);
        assert_eq!(wss[0].members, vec!["bob".to_string()]);

        // Item state including tombstones and full histories.
        assert_eq!(restored.get_current(1).unwrap().version, 2);
        assert!(restored.get_current(2).unwrap().is_deleted);
        assert_eq!(restored.history(1).unwrap().len(), 2);
        assert_eq!(
            restored.current_items(&ws).unwrap(),
            original.current_items(&ws).unwrap()
        );

        // The restored store is fully operational: versions keep flowing.
        let cur = restored.get_current(1).unwrap();
        let out = restored
            .commit(&ws, vec![cur.next_version(vec![], 9, "dev3")])
            .unwrap();
        assert!(matches!(
            out[0].result,
            CommitResult::Committed { version: 3 }
        ));
    }

    #[test]
    fn json_checkpoint_roundtrip() {
        let (original, ws) = populated();
        let path =
            std::env::temp_dir().join(format!("stacksync-meta-ckpt-{}.json", std::process::id()));
        original.checkpoint(&path).unwrap();
        let restored = InMemoryStore::load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            restored.current_items(&ws).unwrap(),
            original.current_items(&ws).unwrap()
        );
    }

    #[test]
    fn workspace_ids_continue_after_restore() {
        // New workspaces created after a restore must not collide with
        // pre-snapshot ids.
        let (original, ws) = populated();
        let restored = InMemoryStore::restore(&original.snapshot()).unwrap();
        let new_ws = restored.create_workspace("alice", "Photos").unwrap();
        assert_ne!(new_ws, ws, "restored id counter must not reuse ids");
    }

    #[test]
    fn bad_snapshots_rejected() {
        assert!(InMemoryStore::restore(&Value::Null).is_err());
        let wrong = Value::Map(vec![("format".into(), Value::from("nope"))]);
        assert!(InMemoryStore::restore(&wrong).is_err());
        assert!(InMemoryStore::restore_json(b"garbage").is_err());
    }

    #[test]
    fn corrupted_or_truncated_checkpoints_load_as_invalid_data() {
        let (original, _ws) = populated();
        let path = std::env::temp_dir().join(format!(
            "stacksync-meta-damaged-{}.json",
            std::process::id()
        ));
        original.checkpoint(&path).unwrap();
        let intact = std::fs::read(&path).unwrap();

        // Truncation at various depths: every prefix must be rejected as
        // InvalidData, never panic or load a partial store.
        for cut in [0, 1, intact.len() / 3, intact.len() - 1] {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let err = InMemoryStore::load_checkpoint(&path).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "truncation to {cut} bytes"
            );
        }

        // Structural corruption inside the document: break a separator (the
        // snapshot's strings contain no commas, so every `,` is structural).
        let mut corrupt = intact.clone();
        let comma = corrupt
            .iter()
            .position(|&b| b == b',')
            .expect("snapshot has structural commas");
        corrupt[comma] = b';';
        std::fs::write(&path, &corrupt).unwrap();
        assert!(InMemoryStore::load_checkpoint(&path).is_err());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_replaces_existing_file_atomically() {
        // A second checkpoint over an existing file goes through the temp
        // file + rename path; the destination must hold the complete new
        // snapshot and the temp file must be gone.
        let (original, ws) = populated();
        let path = std::env::temp_dir().join(format!(
            "stacksync-meta-rewrite-{}.json",
            std::process::id()
        ));
        original.checkpoint(&path).unwrap();
        let cur = original.get_current(1).unwrap();
        original
            .commit(&ws, vec![cur.next_version(vec![], 2, "dev9")])
            .unwrap();
        original.checkpoint(&path).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file must be renamed away"
        );
        let restored = InMemoryStore::load_checkpoint(&path).unwrap();
        assert_eq!(restored.get_current(1).unwrap().version, 3);
        std::fs::remove_file(&path).ok();
    }
}
