//! The Swift-like object store front-end: accounts, tokens, containers,
//! ACLs and traffic accounting over a pluggable [`ObjectBackend`].

use crate::backend::{MemoryBackend, ObjectBackend};
use crate::dedup::{
    ChunkMeta, ChunkOffer, DedupChunk, DedupRegistry, DedupStats, GcReport, OfferOutcome,
    PutChunksReceipt,
};
use crate::latency::LatencyModel;
use crate::traffic::TrafficStats;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Container ACL table: owner -> container -> accounts granted access.
type AclMap = HashMap<String, HashMap<String, HashSet<String>>>;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Storage-layer errors, mirroring Swift's HTTP failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// Bad credentials on authentication.
    BadCredentials,
    /// The token's account has not been granted access to the container.
    AccessDenied {
        /// Account that owns the container.
        owner: String,
        /// Container being accessed.
        container: String,
    },
    /// The token does not authorize the account's resources.
    Unauthorized,
    /// The container does not exist.
    ContainerNotFound(String),
    /// The object does not exist.
    ObjectNotFound(String),
    /// Container already exists (create collision).
    ContainerExists(String),
    /// The backend medium failed (disk I/O).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::BadCredentials => write!(f, "bad account credentials"),
            StorageError::AccessDenied { owner, container } => {
                write!(f, "no grant on {owner}/{container}")
            }
            StorageError::Unauthorized => write!(f, "token not valid for this account"),
            StorageError::ContainerNotFound(c) => write!(f, "container not found: {c}"),
            StorageError::ObjectNotFound(o) => write!(f, "object not found: {o}"),
            StorageError::ContainerExists(c) => write!(f, "container already exists: {c}"),
            StorageError::Io(m) => write!(f, "backend i/o error: {m}"),
        }
    }
}

impl Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// An authentication token scoping operations to one account.
///
/// StackSync clients authenticate against the Storage back-end separately
/// from the sync service (user-centric design, paper §4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    account: String,
    secret_nonce: u64,
}

impl Token {
    /// The account this token belongs to.
    pub fn account(&self) -> &str {
        &self.account
    }
}

#[derive(Debug, Default)]
struct Account {
    password: String,
    containers: HashSet<String>,
    valid_nonces: Vec<u64>,
}

/// The object store front-end: accounts → containers → objects.
///
/// Thread-safe and cheap to clone (clones share state, like connections to
/// one Swift cluster). Object bytes live in an [`ObjectBackend`]: in-memory
/// by default, or on disk via [`SwiftStore::with_backend`].
#[derive(Clone)]
pub struct SwiftStore {
    accounts: Arc<RwLock<HashMap<String, Account>>>,
    /// Container ACLs: (owner, container) -> accounts granted access,
    /// mirroring Swift's X-Container-Read/Write ACLs.
    acls: Arc<RwLock<AclMap>>,
    backend: Arc<dyn ObjectBackend>,
    latency: LatencyModel,
    traffic: TrafficStats,
    nonce: Arc<AtomicU64>,
    dedup: Arc<DedupRegistry>,
}

impl fmt::Debug for SwiftStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SwiftStore")
            .field("latency", &self.latency)
            .finish()
    }
}

impl Default for SwiftStore {
    fn default() -> Self {
        Self::new(LatencyModel::instant())
    }
}

impl SwiftStore {
    /// Creates a store with the given transfer-cost model and the default
    /// in-memory backend.
    pub fn new(latency: LatencyModel) -> Self {
        Self::with_backend(latency, Arc::new(MemoryBackend::new()))
    }

    /// Creates a store over an explicit backend (e.g.
    /// [`crate::DiskBackend`] for persistence across restarts).
    pub fn with_backend(latency: LatencyModel, backend: Arc<dyn ObjectBackend>) -> Self {
        SwiftStore {
            accounts: Arc::new(RwLock::new(HashMap::new())),
            acls: Arc::new(RwLock::new(HashMap::new())),
            backend,
            latency,
            traffic: TrafficStats::new(),
            nonce: Arc::new(AtomicU64::new(1)),
            dedup: Arc::new(DedupRegistry::new()),
        }
    }

    /// The traffic counters of this store.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The latency model in effect.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Creates an account and returns a token for it (registration +
    /// authentication in one step, for convenience).
    pub fn register_account(&self, account: &str, password: &str) -> Token {
        let mut accounts = self.accounts.write();
        let entry = accounts.entry(account.to_string()).or_default();
        entry.password = password.to_string();
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        entry.valid_nonces.push(nonce);
        Token {
            account: account.to_string(),
            secret_nonce: nonce,
        }
    }

    /// Authenticates against an existing account.
    ///
    /// # Errors
    ///
    /// [`StorageError::BadCredentials`] if the account or password is wrong.
    pub fn authenticate(&self, account: &str, password: &str) -> StorageResult<Token> {
        let mut accounts = self.accounts.write();
        let entry = accounts
            .get_mut(account)
            .filter(|a| a.password == password)
            .ok_or(StorageError::BadCredentials)?;
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        entry.valid_nonces.push(nonce);
        Ok(Token {
            account: account.to_string(),
            secret_nonce: nonce,
        })
    }

    fn check<'a>(
        accounts: &'a HashMap<String, Account>,
        token: &Token,
    ) -> StorageResult<&'a Account> {
        accounts
            .get(&token.account)
            .filter(|a| a.valid_nonces.contains(&token.secret_nonce))
            .ok_or(StorageError::Unauthorized)
    }

    /// Grants `grantee` access to one of the token owner's containers
    /// (Swift container ACLs) — the mechanism behind cross-user shared
    /// workspaces.
    ///
    /// # Errors
    ///
    /// Authorization errors, or [`StorageError::ContainerNotFound`].
    pub fn grant_access(
        &self,
        owner_token: &Token,
        container: &str,
        grantee: &str,
    ) -> StorageResult<()> {
        self.authorize(owner_token, owner_token.account(), container)?;
        self.acls
            .write()
            .entry(owner_token.account.clone())
            .or_default()
            .entry(container.to_string())
            .or_default()
            .insert(grantee.to_string());
        Ok(())
    }

    /// Authorizes `token` against `owner`'s `container`, which must exist:
    /// the owner always may; others need a grant. One pass under the
    /// accounts lock, allocating nothing unless it fails.
    ///
    /// # Errors
    ///
    /// In this order: [`StorageError::Unauthorized`] for a bad token,
    /// [`StorageError::AccessDenied`] without a grant,
    /// [`StorageError::ContainerNotFound`].
    fn authorize(&self, token: &Token, owner: &str, container: &str) -> StorageResult<()> {
        let accounts = self.accounts.read();
        Self::check(&accounts, token)?;
        if token.account != owner {
            let granted = self
                .acls
                .read()
                .get(owner)
                .and_then(|containers| containers.get(container))
                .is_some_and(|grants| grants.contains(&token.account));
            if !granted {
                return Err(StorageError::AccessDenied {
                    owner: owner.to_string(),
                    container: container.to_string(),
                });
            }
        }
        if accounts
            .get(owner)
            .is_some_and(|account| account.containers.contains(container))
        {
            Ok(())
        } else {
            Err(StorageError::ContainerNotFound(container.to_string()))
        }
    }

    /// Creates a container under the token's account.
    ///
    /// # Errors
    ///
    /// [`StorageError::ContainerExists`] if it already exists.
    pub fn create_container(&self, token: &Token, container: &str) -> StorageResult<()> {
        std::thread::sleep(self.latency.control_delay());
        let mut accounts = self.accounts.write();
        let account = accounts
            .get_mut(&token.account)
            .filter(|a| a.valid_nonces.contains(&token.secret_nonce))
            .ok_or(StorageError::Unauthorized)?;
        if !account.containers.insert(container.to_string()) {
            return Err(StorageError::ContainerExists(container.to_string()));
        }
        Ok(())
    }

    /// Creates the container if missing (idempotent convenience).
    ///
    /// # Errors
    ///
    /// Authorization errors only.
    pub fn ensure_container(&self, token: &Token, container: &str) -> StorageResult<()> {
        match self.create_container(token, container) {
            Ok(()) | Err(StorageError::ContainerExists(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Uploads an object (simulating the transfer time), overwriting any
    /// existing object of the same name — chunk stores are content
    /// addressed, so overwrites are idempotent.
    ///
    /// # Errors
    ///
    /// [`StorageError::ContainerNotFound`] or authorization errors.
    pub fn put(
        &self,
        token: &Token,
        container: &str,
        name: &str,
        data: Bytes,
    ) -> StorageResult<()> {
        self.put_in(token, &token.account, container, name, data)
    }

    /// Downloads an object (simulating the transfer time).
    ///
    /// # Errors
    ///
    /// [`StorageError::ObjectNotFound`] and friends.
    pub fn get(&self, token: &Token, container: &str, name: &str) -> StorageResult<Bytes> {
        self.get_in(token, &token.account, container, name)
    }

    /// Uploads into `owner`'s container (requires a grant when `owner` is
    /// not the token's account).
    ///
    /// # Errors
    ///
    /// [`StorageError::AccessDenied`] without a grant, plus the usual
    /// container errors.
    pub fn put_in(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
        name: &str,
        data: Bytes,
    ) -> StorageResult<()> {
        self.authorize(token, owner, container)?;
        std::thread::sleep(self.latency.upload_delay(data.len()));
        self.traffic.record_put(data.len());
        self.backend.put(owner, container, name, &data)?;
        Ok(())
    }

    /// Downloads from `owner`'s container (requires a grant when `owner`
    /// is not the token's account).
    ///
    /// # Errors
    ///
    /// [`StorageError::AccessDenied`] without a grant, plus the usual
    /// container/object errors.
    pub fn get_in(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
        name: &str,
    ) -> StorageResult<Bytes> {
        self.authorize(token, owner, container)?;
        let data = self
            .backend
            .get(owner, container, name)?
            .ok_or_else(|| StorageError::ObjectNotFound(name.to_string()))?;
        std::thread::sleep(self.latency.download_delay(data.len()));
        self.traffic.record_get(data.len());
        Ok(data)
    }

    /// Whether the object exists — used by per-user dedup to skip uploads.
    /// Costs one control round trip, not a transfer.
    ///
    /// # Errors
    ///
    /// Authorization/container errors.
    pub fn head(&self, token: &Token, container: &str, name: &str) -> StorageResult<bool> {
        let owner = &token.account;
        self.authorize(token, owner, container)?;
        std::thread::sleep(self.latency.control_delay());
        Ok(self.backend.exists(owner, container, name)?)
    }

    /// Deletes an object.
    ///
    /// # Errors
    ///
    /// [`StorageError::ObjectNotFound`] if missing.
    pub fn delete(&self, token: &Token, container: &str, name: &str) -> StorageResult<()> {
        let owner = &token.account;
        self.authorize(token, owner, container)?;
        std::thread::sleep(self.latency.control_delay());
        self.traffic.record_delete();
        if self.backend.delete(owner, container, name)? {
            Ok(())
        } else {
            Err(StorageError::ObjectNotFound(name.to_string()))
        }
    }

    /// Object names in a container, sorted.
    ///
    /// # Errors
    ///
    /// Authorization/container errors.
    pub fn list(&self, token: &Token, container: &str) -> StorageResult<Vec<String>> {
        let owner = &token.account;
        self.authorize(token, owner, container)?;
        Ok(self.backend.list(owner, container)?)
    }

    /// Offers a file's chunk list with refcount dedup. A chunk may come
    /// without its payload, which asks "do you hold this already?": if
    /// every such chunk is tracked (live, or an orphan not yet collected)
    /// the file is recorded exactly as [`SwiftStore::put_chunks`] would —
    /// live chunks skipped (no transfer), orphans revived in place, only
    /// genuinely new chunks written to the backend — and if not, nothing
    /// changes and the answer lists the payloads the store needs.
    ///
    /// Re-recording an existing `file_key` is an overwrite — the previous
    /// version's references are released *after* the new ones are
    /// recorded, so a chunk shared between versions never transiently
    /// orphans.
    ///
    /// Presence is checked and the file recorded under one hold of the
    /// scope lock, the lock [`SwiftStore::gc_chunks`] takes: a recorded
    /// file never names a chunk the store does not hold, however a sweep
    /// interleaves with the offers. A chunk offered *with* its payload is
    /// never reported missing, so offering again with what was asked for
    /// terminates unless a sweep keeps collecting other chunks in between.
    ///
    /// # Errors
    ///
    /// Authorization/container errors, or backend I/O failures.
    pub fn offer_chunks(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
        file_key: &str,
        chunks: &[ChunkOffer<'_>],
    ) -> StorageResult<OfferOutcome> {
        self.authorize(token, owner, container)?;
        let payloads: HashMap<&str, &Bytes> = chunks
            .iter()
            .filter_map(|c| Some((c.name, c.payload?)))
            .collect();
        let scope = self.dedup.scope(owner, container);
        let mut tracker = scope.lock();

        let mut asked = HashSet::new();
        let missing: Vec<usize> = chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                !payloads.contains_key(c.name)
                    && !tracker.is_tracked(c.name)
                    && asked.insert(c.name)
            })
            .map(|(i, _)| i)
            .collect();
        if !missing.is_empty() {
            drop(tracker);
            // The caller learns what to send: one control round trip.
            std::thread::sleep(self.latency.control_delay());
            self.dedup.record_offer_missing(missing.len());
            return Ok(OfferOutcome::Missing(missing));
        }

        let before = tracker.stats();
        let metas: Vec<ChunkMeta> = chunks
            .iter()
            .map(|c| ChunkMeta {
                name: c.name.to_string(),
                logical_len: c.logical_len,
                // Only read for a chunk the tracker has not seen, and
                // those all have a payload by now.
                stored_len: payloads.get(c.name).map_or(0, |p| p.len() as u64),
            })
            .collect();
        let outcome = tracker.record_file(file_key, &metas);
        let mut bytes_written = 0u64;
        for name in &outcome.to_write {
            let payload = payloads[name.as_str()];
            std::thread::sleep(self.latency.upload_delay(payload.len()));
            self.traffic.record_put(payload.len());
            self.backend.put(owner, container, name, payload)?;
            bytes_written += payload.len() as u64;
        }
        if outcome.dedup_hits + outcome.revived > 0 {
            // Skipped chunks still cost one control round trip (the
            // client learns they exist), not a transfer.
            std::thread::sleep(self.latency.control_delay());
        }
        self.dedup.observe_delta(before, tracker.stats());
        self.dedup.record_put_outcome(&outcome);
        Ok(OfferOutcome::Stored(PutChunksReceipt {
            uploaded: outcome.to_write.len() as u64,
            revived: outcome.revived,
            dedup_hits: outcome.dedup_hits,
            bytes_written,
        }))
    }

    /// Uploads a file's chunk list with refcount dedup: the offer in
    /// which every chunk comes with its payload, so the store never has
    /// to ask. See [`SwiftStore::offer_chunks`].
    ///
    /// # Errors
    ///
    /// Authorization/container errors, or backend I/O failures.
    pub fn put_chunks(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
        file_key: &str,
        chunks: &[DedupChunk],
    ) -> StorageResult<PutChunksReceipt> {
        let offer: Vec<ChunkOffer<'_>> = chunks
            .iter()
            .map(|c| ChunkOffer {
                name: &c.name,
                logical_len: c.logical_len,
                payload: Some(&c.payload),
            })
            .collect();
        match self.offer_chunks(token, owner, container, file_key, &offer)? {
            OfferOutcome::Stored(receipt) => Ok(receipt),
            OfferOutcome::Missing(_) => {
                unreachable!("a chunk offered with its payload is never reported missing")
            }
        }
    }

    /// Releases a file's chunk references (the file was deleted).
    /// Returns `false` if `file_key` was never recorded. Chunks dropping
    /// to zero references become orphans; their bytes stay in the
    /// backend until [`SwiftStore::gc_chunks`] sweeps them.
    ///
    /// # Errors
    ///
    /// Authorization/container errors.
    pub fn release_file(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
        file_key: &str,
    ) -> StorageResult<bool> {
        self.authorize(token, owner, container)?;
        std::thread::sleep(self.latency.control_delay());
        let scope = self.dedup.scope(owner, container);
        let mut tracker = scope.lock();
        let before = tracker.stats();
        let released = tracker.release_file(file_key);
        self.dedup.observe_delta(before, tracker.stats());
        Ok(released)
    }

    /// Garbage-collects every refcount-zero chunk in the container:
    /// deletes the backend objects and drops the tracker entries. Runs
    /// under the scope lock, so uploads racing this sweep either revive
    /// an orphan before it is collected or re-upload after.
    ///
    /// # Errors
    ///
    /// Authorization/container errors, or backend I/O failures.
    pub fn gc_chunks(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
    ) -> StorageResult<GcReport> {
        self.authorize(token, owner, container)?;
        let scope = self.dedup.scope(owner, container);
        let mut tracker = scope.lock();
        let before = tracker.stats();
        let orphans = tracker.collect_orphans();
        let mut report = GcReport::default();
        for (name, stored) in &orphans {
            std::thread::sleep(self.latency.control_delay());
            self.traffic.record_delete();
            self.backend.delete(owner, container, name)?;
            report.collected += 1;
            report.reclaimed_bytes += stored;
        }
        self.dedup.observe_delta(before, tracker.stats());
        self.dedup.record_gc(&report);
        Ok(report)
    }

    /// Dedup statistics for one container scope.
    ///
    /// # Errors
    ///
    /// Authorization/container errors.
    pub fn dedup_stats(
        &self,
        token: &Token,
        owner: &str,
        container: &str,
    ) -> StorageResult<DedupStats> {
        self.authorize(token, owner, container)?;
        Ok(self.dedup.scope(owner, container).lock().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> (SwiftStore, Token) {
        let s = SwiftStore::new(LatencyModel::instant());
        let t = s.register_account("u1", "pw");
        s.create_container(&t, "chunks").unwrap();
        (s, t)
    }

    #[test]
    fn put_get_roundtrip() {
        let (s, t) = store();
        s.put(&t, "chunks", "a", Bytes::from_static(b"data"))
            .unwrap();
        assert_eq!(&s.get(&t, "chunks", "a").unwrap()[..], b"data");
    }

    #[test]
    fn get_missing_object_fails() {
        let (s, t) = store();
        assert!(matches!(
            s.get(&t, "chunks", "nope"),
            Err(StorageError::ObjectNotFound(_))
        ));
        assert!(matches!(
            s.get(&t, "missing", "x"),
            Err(StorageError::ContainerNotFound(_))
        ));
    }

    #[test]
    fn authentication_flow() {
        let s = SwiftStore::new(LatencyModel::instant());
        let _ = s.register_account("u", "pw");
        assert!(s.authenticate("u", "pw").is_ok());
        assert_eq!(
            s.authenticate("u", "wrong").unwrap_err(),
            StorageError::BadCredentials
        );
        assert_eq!(
            s.authenticate("ghost", "pw").unwrap_err(),
            StorageError::BadCredentials
        );
    }

    #[test]
    fn tokens_are_account_scoped() {
        let s = SwiftStore::new(LatencyModel::instant());
        let ta = s.register_account("a", "pw");
        let _tb = s.register_account("b", "pw");
        s.create_container(&ta, "c").unwrap();
        // Forged token: right account name, wrong nonce.
        let forged = Token {
            account: "a".into(),
            secret_nonce: 999_999,
        };
        assert_eq!(
            s.put(&forged, "c", "x", Bytes::new()).unwrap_err(),
            StorageError::Unauthorized
        );
    }

    #[test]
    fn accounts_are_isolated() {
        let s = SwiftStore::new(LatencyModel::instant());
        let ta = s.register_account("a", "pw");
        let tb = s.register_account("b", "pw");
        s.create_container(&ta, "c").unwrap();
        s.create_container(&tb, "c").unwrap();
        s.put(&ta, "c", "x", Bytes::from_static(b"alice")).unwrap();
        assert!(matches!(
            s.get(&tb, "c", "x"),
            Err(StorageError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn head_and_dedup_flow() {
        let (s, t) = store();
        assert!(!s.head(&t, "chunks", "a").unwrap());
        s.put(&t, "chunks", "a", Bytes::from_static(b"d")).unwrap();
        assert!(s.head(&t, "chunks", "a").unwrap());
    }

    #[test]
    fn delete_removes_object() {
        let (s, t) = store();
        s.put(&t, "chunks", "a", Bytes::from_static(b"d")).unwrap();
        s.delete(&t, "chunks", "a").unwrap();
        assert!(matches!(
            s.get(&t, "chunks", "a"),
            Err(StorageError::ObjectNotFound(_))
        ));
        assert!(matches!(
            s.delete(&t, "chunks", "a"),
            Err(StorageError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn traffic_accounting() {
        let (s, t) = store();
        s.put(&t, "chunks", "a", Bytes::from(vec![0u8; 100]))
            .unwrap();
        let _ = s.get(&t, "chunks", "a").unwrap();
        assert_eq!(s.traffic().uploaded_bytes(), 100);
        assert_eq!(s.traffic().downloaded_bytes(), 100);
    }

    #[test]
    fn create_container_twice_fails_but_ensure_is_idempotent() {
        let (s, t) = store();
        assert!(matches!(
            s.create_container(&t, "chunks"),
            Err(StorageError::ContainerExists(_))
        ));
        s.ensure_container(&t, "chunks").unwrap();
    }

    #[test]
    fn list_and_usage() {
        let (s, t) = store();
        s.put(&t, "chunks", "b", Bytes::from(vec![0u8; 10]))
            .unwrap();
        s.put(&t, "chunks", "a", Bytes::from(vec![0u8; 5])).unwrap();
        assert_eq!(s.list(&t, "chunks").unwrap(), vec!["a", "b"]);
        let used: usize = ["a", "b"]
            .iter()
            .map(|name| s.get(&t, "chunks", name).unwrap().len())
            .sum();
        assert_eq!(used, 15);
    }

    #[test]
    fn overwrite_replaces_content() {
        let (s, t) = store();
        s.put(&t, "chunks", "a", Bytes::from_static(b"v1")).unwrap();
        s.put(&t, "chunks", "a", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(&s.get(&t, "chunks", "a").unwrap()[..], b"v2");
        assert_eq!(s.list(&t, "chunks").unwrap(), vec!["a"]);
    }

    #[test]
    fn grants_enable_cross_account_access() {
        let s = SwiftStore::new(LatencyModel::instant());
        let owner = s.register_account("owner", "pw");
        let guest = s.register_account("guest", "pw");
        s.create_container(&owner, "shared").unwrap();
        s.put(&owner, "shared", "x", Bytes::from_static(b"data"))
            .unwrap();

        // Before the grant: denied.
        assert!(matches!(
            s.get_in(&guest, "owner", "shared", "x"),
            Err(StorageError::AccessDenied { .. })
        ));
        s.grant_access(&owner, "shared", "guest").unwrap();
        // After: read and write both work.
        assert_eq!(
            &s.get_in(&guest, "owner", "shared", "x").unwrap()[..],
            b"data"
        );
        s.put_in(&guest, "owner", "shared", "y", Bytes::from_static(b"guest"))
            .unwrap();
        assert_eq!(&s.get(&owner, "shared", "y").unwrap()[..], b"guest");
    }

    #[test]
    fn grant_requires_owner_token_and_existing_container() {
        let s = SwiftStore::new(LatencyModel::instant());
        let owner = s.register_account("owner", "pw");
        let outsider = s.register_account("outsider", "pw");
        s.create_container(&owner, "c").unwrap();
        assert!(matches!(
            s.grant_access(&owner, "nope", "outsider"),
            Err(StorageError::ContainerNotFound(_))
        ));
        // An outsider cannot grant on a container it does not own (its own
        // account simply has no such container).
        assert!(s.grant_access(&outsider, "c", "outsider").is_err());
    }

    #[test]
    fn owner_path_is_equivalent_to_direct_methods() {
        let s = SwiftStore::new(LatencyModel::instant());
        let owner = s.register_account("me", "pw");
        s.create_container(&owner, "c").unwrap();
        s.put_in(&owner, "me", "c", "k", Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(&s.get(&owner, "c", "k").unwrap()[..], b"v");
        assert_eq!(&s.get_in(&owner, "me", "c", "k").unwrap()[..], b"v");
    }

    fn dchunk(name: &str, payload: &[u8]) -> DedupChunk {
        DedupChunk {
            name: name.to_string(),
            payload: Bytes::from(payload.to_vec()),
            logical_len: payload.len() as u64 * 2, // pretend 2x compression
        }
    }

    #[test]
    fn put_chunks_writes_once_and_dedups_after() {
        let (s, t) = store();
        let chunks = vec![dchunk("c1", b"aaaa"), dchunk("c2", b"bbbb")];
        let r = s.put_chunks(&t, "u1", "chunks", "f1", &chunks).unwrap();
        assert_eq!(r.uploaded, 2);
        assert_eq!(r.bytes_written, 8);
        // A second file sharing both chunks transfers nothing.
        let r = s.put_chunks(&t, "u1", "chunks", "f2", &chunks).unwrap();
        assert_eq!(r.uploaded, 0);
        assert_eq!(r.dedup_hits, 2);
        assert_eq!(r.bytes_written, 0);
        assert_eq!(s.traffic().uploaded_bytes(), 8);
        let stats = s.dedup_stats(&t, "u1", "chunks").unwrap();
        assert_eq!(stats.live_chunks, 2);
        assert_eq!(stats.logical_bytes, 32); // 2 files × 2 chunks × 8 logical
        assert_eq!(stats.stored_bytes, 8);
        assert!(stats.ratio() > 3.9);
    }

    #[test]
    fn overwrite_releases_old_chunks_but_keeps_shared() {
        let (s, t) = store();
        s.put_chunks(
            &t,
            "u1",
            "chunks",
            "f",
            &[dchunk("keep", b"kk"), dchunk("drop", b"dd")],
        )
        .unwrap();
        let r = s
            .put_chunks(
                &t,
                "u1",
                "chunks",
                "f",
                &[dchunk("keep", b"kk"), dchunk("new", b"nn")],
            )
            .unwrap();
        assert_eq!(r.uploaded, 1);
        assert_eq!(r.dedup_hits, 1);
        // "drop" is orphaned but its bytes survive until GC.
        assert_eq!(s.dedup_stats(&t, "u1", "chunks").unwrap().orphan_chunks, 1);
        assert_eq!(&s.get(&t, "chunks", "drop").unwrap()[..], b"dd");
        let gc = s.gc_chunks(&t, "u1", "chunks").unwrap();
        assert_eq!(gc.collected, 1);
        assert_eq!(gc.reclaimed_bytes, 2);
        assert!(matches!(
            s.get(&t, "chunks", "drop"),
            Err(StorageError::ObjectNotFound(_))
        ));
        // Referenced chunks were never touched.
        assert_eq!(&s.get(&t, "chunks", "keep").unwrap()[..], b"kk");
        assert_eq!(&s.get(&t, "chunks", "new").unwrap()[..], b"nn");
    }

    #[test]
    fn release_then_gc_reclaims_and_revival_skips_upload() {
        let (s, t) = store();
        s.put_chunks(&t, "u1", "chunks", "f", &[dchunk("a", b"xy")])
            .unwrap();
        assert!(s.release_file(&t, "u1", "chunks", "f").unwrap());
        assert!(!s.release_file(&t, "u1", "chunks", "f").unwrap());
        // Re-put before GC: the orphan revives without a transfer.
        let r = s
            .put_chunks(&t, "u1", "chunks", "g", &[dchunk("a", b"xy")])
            .unwrap();
        assert_eq!(r.uploaded, 0);
        assert_eq!(r.revived, 1);
        // Nothing left for GC.
        assert_eq!(
            s.gc_chunks(&t, "u1", "chunks").unwrap(),
            GcReport::default()
        );
        assert_eq!(&s.get(&t, "chunks", "a").unwrap()[..], b"xy");
    }

    #[test]
    fn dedup_scopes_are_per_container() {
        let (s, t) = store();
        s.create_container(&t, "other").unwrap();
        s.put_chunks(&t, "u1", "chunks", "f", &[dchunk("a", b"zz")])
            .unwrap();
        // Same chunk name in a different container is a fresh write.
        let r = s
            .put_chunks(&t, "u1", "other", "f", &[dchunk("a", b"zz")])
            .unwrap();
        assert_eq!(r.uploaded, 1);
        for container in ["chunks", "other"] {
            let stats = s.dedup_stats(&t, "u1", container).unwrap();
            assert_eq!((stats.live_chunks, stats.stored_bytes), (1, 2));
        }
    }

    /// The ISSUE acceptance criterion: overwrite/delete never orphans a
    /// live chunk and GC never collects a referenced one, under real
    /// concurrency. Writer threads continuously overwrite/release their
    /// own files over a *shared* chunk namespace while a GC thread
    /// sweeps; after every put, each referenced chunk must be readable.
    #[test]
    fn threaded_overwrite_release_gc_never_loses_referenced_chunks() {
        use std::sync::atomic::AtomicBool;

        let s = SwiftStore::new(LatencyModel::instant());
        let t = s.register_account("u1", "pw");
        s.create_container(&t, "chunks").unwrap();
        let stop = Arc::new(AtomicBool::new(false));

        // A free-running GC sweeper races the writers below.
        let gc_handle = {
            let (s, t, stop) = (s.clone(), t.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.gc_chunks(&t, "u1", "chunks").unwrap();
                    std::thread::yield_now();
                }
            })
        };

        std::thread::scope(|sc| {
            for w in 0..3u64 {
                let s = s.clone();
                let t = t.clone();
                sc.spawn(move || {
                    let mut state = 0x9e37_79b9 + w;
                    let mut rng = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for i in 0..120 {
                        let file = format!("w{w}-f{}", rng() % 4);
                        if rng() % 5 == 0 {
                            s.release_file(&t, "u1", "chunks", &file).unwrap();
                            continue;
                        }
                        // Draw 1–4 chunks from a pool of 12 shared names.
                        let n = (rng() % 4 + 1) as usize;
                        let chunks: Vec<DedupChunk> = (0..n)
                            .map(|_| {
                                let c = rng() % 12;
                                dchunk(&format!("shared-{c}"), format!("payload-{c}").as_bytes())
                            })
                            .collect();
                        s.put_chunks(&t, "u1", "chunks", &file, &chunks).unwrap();
                        // Every chunk this file references must be
                        // readable right now, no matter what overwrites,
                        // releases or GC sweeps raced us.
                        for c in &chunks {
                            let got = s.get(&t, "chunks", &c.name).unwrap_or_else(|e| {
                                panic!("iteration {i}: referenced chunk {} lost: {e}", c.name)
                            });
                            assert_eq!(&got[..], &c.payload[..]);
                        }
                    }
                });
            }
        });
        stop.store(true, Ordering::Relaxed);
        gc_handle.join().unwrap();

        // Final sweep drains exactly the orphans; live chunks line up
        // one-to-one with backend objects.
        let stats = s.dedup_stats(&t, "u1", "chunks").unwrap();
        let gc = s.gc_chunks(&t, "u1", "chunks").unwrap();
        assert_eq!(gc.collected, stats.orphan_chunks);
        let after = s.dedup_stats(&t, "u1", "chunks").unwrap();
        assert_eq!(after.orphan_chunks, 0);
        // Every surviving live chunk is still present in the backend.
        let listed = s.list(&t, "chunks").unwrap();
        assert_eq!(listed.len() as u64, after.live_chunks);
    }

    fn offer<'a>(name: &'a str, payload: Option<&'a Bytes>) -> ChunkOffer<'a> {
        ChunkOffer {
            name,
            logical_len: 8,
            payload,
        }
    }

    #[test]
    fn offer_by_name_records_only_what_the_store_holds() {
        let (s, t) = store();
        let (pa, pb) = (Bytes::from_static(b"aaaa"), Bytes::from_static(b"bbbb"));
        s.put_chunks(&t, "u1", "chunks", "f1", &[dchunk("a", b"aaaa")])
            .unwrap();
        // `a` is held, `b` is not (named twice: asked for once).
        let names = [offer("a", None), offer("b", None), offer("b", None)];
        assert_eq!(
            s.offer_chunks(&t, "u1", "chunks", "f2", &names).unwrap(),
            OfferOutcome::Missing(vec![1])
        );
        // With `b`'s payload at one of its positions the file is recorded;
        // `a` never travelled.
        let full = [offer("a", None), offer("b", Some(&pb)), offer("b", None)];
        assert_eq!(
            s.offer_chunks(&t, "u1", "chunks", "f2", &full).unwrap(),
            OfferOutcome::Stored(PutChunksReceipt {
                uploaded: 1,
                revived: 0,
                dedup_hits: 2,
                bytes_written: 4,
            })
        );
        assert_eq!(&s.get(&t, "chunks", "b").unwrap()[..], b"bbbb");
        // An orphan still counts as held: it is revived, not asked for.
        s.release_file(&t, "u1", "chunks", "f1").unwrap();
        s.release_file(&t, "u1", "chunks", "f2").unwrap();
        assert_eq!(
            s.offer_chunks(&t, "u1", "chunks", "f3", &[offer("a", None)])
                .unwrap(),
            OfferOutcome::Stored(PutChunksReceipt {
                uploaded: 0,
                revived: 1,
                dedup_hits: 0,
                bytes_written: 0,
            })
        );
        // A payload for a chunk the store holds is simply not written.
        let r = s
            .offer_chunks(&t, "u1", "chunks", "f4", &[offer("a", Some(&pa))])
            .unwrap();
        assert!(matches!(r, OfferOutcome::Stored(r) if r.uploaded == 0 && r.dedup_hits == 1));
    }

    #[test]
    fn offer_answered_missing_changes_nothing() {
        let (s, t) = store();
        s.put_chunks(
            &t,
            "u1",
            "chunks",
            "f",
            &[dchunk("old", b"oo"), dchunk("keep", b"kk")],
        )
        .unwrap();
        let payload = Bytes::from_static(b"nn");
        let scope = s.dedup.scope("u1", "chunks");
        let (stats, files) = {
            let tracker = scope.lock();
            (tracker.stats(), tracker.file_count())
        };
        let before = (
            stats,
            files,
            s.list(&t, "chunks").unwrap(),
            s.traffic().uploaded_bytes(),
            s.traffic().put_count(),
            s.traffic().delete_count(),
        );

        // An overwrite of `f` that would release `old`, write `new` and
        // keep `keep` — but names one chunk the store has never seen.
        let chunks = [
            offer("keep", None),
            offer("new", Some(&payload)),
            offer("ghost", None),
        ];
        assert_eq!(
            s.offer_chunks(&t, "u1", "chunks", "f", &chunks).unwrap(),
            OfferOutcome::Missing(vec![2])
        );

        let tracker = scope.lock();
        assert_eq!(tracker.stats(), before.0);
        assert_eq!(tracker.stats(), tracker.recompute_stats());
        assert_eq!(tracker.file_count(), before.1);
        assert_eq!(tracker.refs("old"), 1);
        assert!(!tracker.is_tracked("new") && !tracker.is_tracked("ghost"));
        drop(tracker);
        assert_eq!(s.list(&t, "chunks").unwrap(), before.2);
        assert_eq!(s.traffic().uploaded_bytes(), before.3);
        assert_eq!(s.traffic().put_count(), before.4);
        assert_eq!(s.traffic().delete_count(), before.5);
    }

    /// Offers `names` as one file the way a client does: by name first,
    /// then again with every payload the store asked for. Returns the
    /// receipt and the answers that said "missing", in order.
    fn offer_until_stored(
        s: &SwiftStore,
        t: &Token,
        file_key: &str,
        names: &[String],
        payload_of: impl Fn(&str) -> Bytes,
        mut between: impl FnMut(usize),
    ) -> (PutChunksReceipt, Vec<Vec<usize>>) {
        let mut payloads: Vec<Option<Bytes>> = vec![None; names.len()];
        let mut asked = Vec::new();
        loop {
            let chunks: Vec<ChunkOffer<'_>> = names
                .iter()
                .zip(&payloads)
                .map(|(name, payload)| offer(name, payload.as_ref()))
                .collect();
            match s
                .offer_chunks(t, "u1", "chunks", file_key, &chunks)
                .unwrap()
            {
                OfferOutcome::Stored(receipt) => return (receipt, asked),
                OfferOutcome::Missing(missing) => {
                    for &i in &missing {
                        assert!(
                            payloads[i].is_none(),
                            "asked again for a payload it was sent"
                        );
                        payloads[i] = Some(payload_of(&names[i]));
                    }
                    asked.push(missing);
                    between(asked.len());
                }
            }
        }
    }

    /// Device A updates a file whose unchanged chunks only device B's
    /// file still references, B deletes that file, and a sweep runs —
    /// between A's offers. First with the interleaving forced (three
    /// threads stepping each other over channels), then free-running.
    #[test]
    fn offer_racing_delete_and_gc_reuploads_what_was_collected() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        let (store, token) = store();
        let (s, t) = (&store, &token);
        let payload_of = |name: &str| Bytes::from(format!("payload of {name}").into_bytes());
        let shared_names: Vec<String> = (0..3).map(|c| format!("shared-{c}")).collect();
        let shared: Vec<DedupChunk> = shared_names
            .iter()
            .map(|n| DedupChunk {
                name: n.clone(),
                payload: payload_of(n),
                logical_len: 8,
            })
            .collect();

        // Forced: A's first offer, then B's delete, then the sweep, then
        // A's second offer.
        s.put_chunks(t, "u1", "chunks", "b-file", &shared).unwrap();
        let (to_b, b_go) = mpsc::channel::<()>();
        let (to_gc, gc_go) = mpsc::channel::<()>();
        let (to_a, a_go) = mpsc::channel::<()>();
        std::thread::scope(|sc| {
            sc.spawn(move || {
                b_go.recv().unwrap();
                assert!(s.release_file(t, "u1", "chunks", "b-file").unwrap());
                to_gc.send(()).unwrap();
            });
            sc.spawn(move || {
                gc_go.recv().unwrap();
                assert_eq!(s.gc_chunks(t, "u1", "chunks").unwrap().collected, 3);
                to_a.send(()).unwrap();
            });
            let mut names = shared_names.clone();
            names.push("a-new-0".to_string());
            let (receipt, asked) =
                offer_until_stored(s, t, "a-file", &names, payload_of, |round| {
                    if round == 1 {
                        to_b.send(()).unwrap();
                        a_go.recv().unwrap();
                    }
                });
            // The store held the shared chunks at the first offer, had
            // lost them by the second, and took them back at the third.
            assert_eq!(asked, vec![vec![3], vec![0, 1, 2]]);
            assert_eq!(receipt.uploaded, 4);
            assert_eq!(receipt.dedup_hits + receipt.revived, 0);
            for name in &names {
                assert_eq!(s.get(t, "chunks", name).unwrap(), payload_of(name));
            }
        });

        // Free-running: whatever the interleaving, a recorded chunk list
        // is fully fetchable, and the store is only ever asked once per
        // payload.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let stop = AtomicBool::new(false);
        let rounds = 200;
        std::thread::scope(|sc| {
            // Also on a failed assertion, or the sweeper spins for ever.
            let _stop = StopOnDrop(&stop);
            let (b_turn, b_wait) = mpsc::channel::<usize>();
            let (b_ready, a_wait) = mpsc::channel::<()>();
            let (stop, shared) = (&stop, &shared);
            sc.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.gc_chunks(t, "u1", "chunks").unwrap();
                    std::thread::yield_now();
                }
            });
            sc.spawn(move || {
                for i in b_wait {
                    s.put_chunks(t, "u1", "chunks", &format!("b-{i}"), shared)
                        .unwrap();
                    b_ready.send(()).unwrap();
                    assert!(s
                        .release_file(t, "u1", "chunks", &format!("b-{i}"))
                        .unwrap());
                }
            });
            for i in 1..=rounds {
                // Between rounds A's file lets go of the shared chunks,
                // so only B's file keeps them from the sweep.
                s.put_chunks(t, "u1", "chunks", "a-file", &[]).unwrap();
                b_turn.send(i).unwrap();
                a_wait.recv().unwrap();
                let mut names = shared_names.clone();
                names.push(format!("a-new-{i}"));
                let (_, asked) = offer_until_stored(s, t, "a-file", &names, payload_of, |_| {});
                assert!(asked.len() <= names.len(), "round {i}: {asked:?}");
                for name in &names {
                    let got = s
                        .get(t, "chunks", name)
                        .unwrap_or_else(|e| panic!("round {i}: recorded chunk {name} lost: {e}"));
                    assert_eq!(got, payload_of(name));
                }
            }
            drop(b_turn);
        });

        let scope = s.dedup.scope("u1", "chunks");
        let tracker = scope.lock();
        assert_eq!(tracker.stats(), tracker.recompute_stats());
        assert_eq!(tracker.file_count(), 1);
    }

    #[test]
    fn put_chunks_requires_authorization() {
        let s = SwiftStore::new(LatencyModel::instant());
        let owner = s.register_account("owner", "pw");
        let outsider = s.register_account("outsider", "pw");
        s.create_container(&owner, "c").unwrap();
        assert!(matches!(
            s.put_chunks(&outsider, "owner", "c", "f", &[dchunk("a", b"x")]),
            Err(StorageError::AccessDenied { .. })
        ));
        s.grant_access(&owner, "c", "outsider").unwrap();
        assert!(s
            .put_chunks(&outsider, "owner", "c", "f", &[dchunk("a", b"x")])
            .is_ok());
    }

    #[test]
    fn disk_backend_store_survives_restart() {
        let root =
            std::env::temp_dir().join(format!("stacksync-store-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let backend = Arc::new(crate::DiskBackend::open(&root).unwrap());
            let s = SwiftStore::with_backend(LatencyModel::instant(), backend);
            let t = s.register_account("u", "pw");
            s.create_container(&t, "chunks").unwrap();
            s.put(&t, "chunks", "blob", Bytes::from_static(b"durable"))
                .unwrap();
        }
        // "Restart": fresh front-end over the same disk root. Accounts are
        // front-end state (re-registered), objects are backend state
        // (persisted).
        let backend = Arc::new(crate::DiskBackend::open(&root).unwrap());
        let s = SwiftStore::with_backend(LatencyModel::instant(), backend);
        let t = s.register_account("u", "pw");
        s.create_container(&t, "chunks").unwrap();
        assert_eq!(&s.get(&t, "chunks", "blob").unwrap()[..], b"durable");
        std::fs::remove_dir_all(&root).ok();
    }
}
