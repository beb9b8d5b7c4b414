//! Wire schema of the synchronization protocol: how `ItemMetadata`,
//! commit requests and `CommitNotification`s cross ObjectMQ.

use metadata::{CommitOutcome, CommitResult, ItemMetadata, Workspace, WorkspaceId};
use wire::{Value, WireResult};

pub use metadata::{item_from_value, item_into_value};

/// Lowers an item's metadata into the wire model ([`item_into_value`] of a
/// copy).
pub fn item_to_value(item: &ItemMetadata) -> Value {
    item_into_value(item.clone())
}

/// Lowers a workspace record.
pub fn workspace_to_value(ws: &Workspace) -> Value {
    Value::Map(vec![
        ("id".into(), Value::Str(ws.id.0.clone())),
        ("owner".into(), Value::Str(ws.owner.clone())),
        ("name".into(), Value::Str(ws.name.clone())),
        (
            "members".into(),
            Value::List(ws.members.iter().map(|m| Value::Str(m.clone())).collect()),
        ),
    ])
}

/// Parses a workspace record.
///
/// # Errors
///
/// Returns a [`wire::WireError`] on shape mismatches.
pub fn workspace_from_value(value: &Value) -> WireResult<Workspace> {
    let members = match value.get("members") {
        Some(list) => list
            .as_list()?
            .iter()
            .map(|v| Ok(v.as_str()?.to_string()))
            .collect::<wire::WireResult<Vec<String>>>()?,
        None => Vec::new(),
    };
    Ok(Workspace {
        id: WorkspaceId(value.field("id")?.as_str()?.to_string()),
        owner: value.field("owner")?.as_str()?.to_string(),
        name: value.field("name")?.as_str()?.to_string(),
        members,
    })
}

/// One change inside a [`CommitNotification`]: the proposed metadata plus
/// whether it was accepted; on conflict the current server version is
/// piggybacked (Algorithm 1 line 15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotifiedChange {
    /// The metadata as proposed by the committing device.
    pub metadata: ItemMetadata,
    /// Whether the commit was accepted.
    pub confirmed: bool,
    /// On conflict, the winning server-side metadata.
    pub current: Option<ItemMetadata>,
}

impl NotifiedChange {
    /// Builds a change entry from a metadata-store outcome.
    pub fn from_outcome(outcome: &CommitOutcome) -> Self {
        match &outcome.result {
            CommitResult::Committed { .. } => NotifiedChange {
                metadata: outcome.proposed.clone(),
                confirmed: true,
                current: None,
            },
            CommitResult::Conflict { current } => NotifiedChange {
                metadata: outcome.proposed.clone(),
                confirmed: false,
                current: Some(current.clone()),
            },
        }
    }
}

/// The push notification fanned out to every device of a workspace after a
/// commit request was processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitNotification {
    /// The workspace the commit applied to.
    pub workspace: WorkspaceId,
    /// Device that issued the commit request.
    pub committer: String,
    /// Per-item outcomes.
    pub changes: Vec<NotifiedChange>,
}

impl CommitNotification {
    /// Lowers the notification into the wire model.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("ws".into(), Value::Str(self.workspace.0.clone())),
            ("committer".into(), Value::Str(self.committer.clone())),
            (
                "changes".into(),
                Value::List(
                    self.changes
                        .iter()
                        .map(|c| {
                            let mut entries = vec![
                                ("meta".into(), item_to_value(&c.metadata)),
                                ("confirmed".into(), Value::Bool(c.confirmed)),
                            ];
                            if let Some(cur) = &c.current {
                                entries.push(("current".into(), item_to_value(cur)));
                            }
                            Value::Map(entries)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a notification from the wire model.
    ///
    /// # Errors
    ///
    /// Returns a [`wire::WireError`] on shape mismatches.
    pub fn from_value(value: &Value) -> WireResult<Self> {
        let changes = value
            .field("changes")?
            .as_list()?
            .iter()
            .map(|v| {
                Ok(NotifiedChange {
                    metadata: item_from_value(v.field("meta")?.clone())?,
                    confirmed: v.field("confirmed")?.as_bool()?,
                    current: match v.get("current") {
                        Some(cur) => Some(item_from_value(cur.clone())?),
                        None => None,
                    },
                })
            })
            .collect::<WireResult<Vec<NotifiedChange>>>()?;
        Ok(CommitNotification {
            workspace: WorkspaceId(value.field("ws")?.as_str()?.to_string()),
            committer: value.field("committer")?.as_str()?.to_string(),
            changes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use content::ChunkId;
    use wire::WireError;

    fn sample_item() -> ItemMetadata {
        ItemMetadata {
            item_id: 42,
            workspace: WorkspaceId::from("ws-1"),
            path: "docs/report.txt".into(),
            version: 3,
            chunks: vec![ChunkId::of(b"c1"), ChunkId::of(b"c2")],
            size: 1234,
            is_deleted: false,
            modified_by: "laptop".into(),
        }
    }

    #[test]
    fn item_roundtrip() {
        let item = sample_item();
        assert_eq!(item_from_value(item_to_value(&item)).unwrap(), item);
    }

    #[test]
    fn lowering_an_owned_item_is_lowering_a_borrowed_one() {
        let item = sample_item();
        assert_eq!(item_into_value(item.clone()), item_to_value(&item));
    }

    #[test]
    fn unknown_keys_are_ignored_and_each_missing_field_is_named() {
        let item = sample_item();
        let Value::Map(entries) = item_to_value(&item) else {
            panic!("an item lowers into a map");
        };
        let mut extended = entries.clone();
        extended.insert(0, ("mtime".into(), Value::U64(7)));
        extended.push(("acl".into(), Value::List(vec![])));
        assert_eq!(item_from_value(Value::Map(extended)).unwrap(), item);

        assert_eq!(entries.len(), 8);
        for missing in 0..entries.len() {
            let mut rest = entries.clone();
            let (key, _) = rest.remove(missing);
            assert_eq!(
                item_from_value(Value::Map(rest)),
                Err(WireError::MissingField(key))
            );
        }
        // A string where the parser moves a string out, of another type.
        let mut mistyped = entries;
        mistyped[2].1 = Value::U64(1);
        assert!(matches!(
            item_from_value(Value::Map(mistyped)),
            Err(WireError::TypeMismatch {
                expected: "str",
                ..
            })
        ));
    }

    #[test]
    fn tombstone_roundtrip() {
        let t = sample_item().tombstone("phone");
        assert_eq!(item_from_value(item_to_value(&t)).unwrap(), t);
    }

    #[test]
    fn workspace_roundtrip() {
        let ws = Workspace {
            id: WorkspaceId::from("ws-9"),
            owner: "alice".into(),
            name: "Photos".into(),
            members: vec!["bob".into()],
        };
        assert_eq!(workspace_from_value(&workspace_to_value(&ws)).unwrap(), ws);
    }

    #[test]
    fn notification_roundtrip_with_and_without_conflict() {
        let item = sample_item();
        let n = CommitNotification {
            workspace: WorkspaceId::from("ws-1"),
            committer: "laptop".into(),
            changes: vec![
                NotifiedChange {
                    metadata: item.clone(),
                    confirmed: true,
                    current: None,
                },
                NotifiedChange {
                    metadata: item.clone(),
                    confirmed: false,
                    current: Some(item.next_version(vec![], 0, "phone")),
                },
            ],
        };
        assert_eq!(CommitNotification::from_value(&n.to_value()).unwrap(), n);
    }

    #[test]
    fn malformed_chunk_id_rejected() {
        let mut v = item_to_value(&sample_item());
        if let Value::Map(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "chunks" {
                    *val = Value::List(vec![Value::Bytes(vec![1, 2, 3])]);
                }
            }
        }
        assert!(item_from_value(v).is_err());
    }

    #[test]
    fn from_outcome_maps_both_variants() {
        let item = sample_item();
        let committed = CommitOutcome {
            item_id: item.item_id,
            result: CommitResult::Committed { version: 3 },
            proposed: item.clone(),
        };
        let conflicted = CommitOutcome {
            item_id: item.item_id,
            result: CommitResult::Conflict {
                current: item.clone(),
            },
            proposed: item.clone(),
        };
        assert!(NotifiedChange::from_outcome(&committed).confirmed);
        let c = NotifiedChange::from_outcome(&conflicted);
        assert!(!c.confirmed);
        assert!(c.current.is_some());
    }
}
