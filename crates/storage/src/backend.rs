//! Object backends: where chunk bytes actually live.
//!
//! The Swift-like front-end ([`crate::SwiftStore`]) handles accounts,
//! tokens, ACLs and traffic accounting; the backend only stores bytes
//! under `(account, container, object)` keys. Two implementations:
//! in-memory (default, used by simulations and tests) and on-disk
//! (durable across process restarts, the deployment story).

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Storage backend for object bytes.
pub trait ObjectBackend: Send + Sync {
    /// Stores an object, replacing any previous content.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium.
    fn put(&self, account: &str, container: &str, name: &str, data: &[u8]) -> io::Result<()>;

    /// Retrieves an object's bytes, or `None` if absent.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium.
    fn get(&self, account: &str, container: &str, name: &str) -> io::Result<Option<Bytes>>;

    /// Deletes an object. Returns whether it existed.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium.
    fn delete(&self, account: &str, container: &str, name: &str) -> io::Result<bool>;

    /// Whether the object exists.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium.
    fn exists(&self, account: &str, container: &str, name: &str) -> io::Result<bool>;

    /// Sorted object names within a container.
    ///
    /// # Errors
    ///
    /// I/O errors from the underlying medium.
    fn list(&self, account: &str, container: &str) -> io::Result<Vec<String>>;
}

/// The default in-memory backend.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    /// (account, container) -> name -> bytes
    objects: RwLock<HashMap<(String, String), HashMap<String, Bytes>>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ObjectBackend for MemoryBackend {
    fn put(&self, account: &str, container: &str, name: &str, data: &[u8]) -> io::Result<()> {
        self.objects
            .write()
            .entry((account.to_string(), container.to_string()))
            .or_default()
            .insert(name.to_string(), Bytes::copy_from_slice(data));
        Ok(())
    }

    fn get(&self, account: &str, container: &str, name: &str) -> io::Result<Option<Bytes>> {
        Ok(self
            .objects
            .read()
            .get(&(account.to_string(), container.to_string()))
            .and_then(|c| c.get(name).cloned()))
    }

    fn delete(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        Ok(self
            .objects
            .write()
            .get_mut(&(account.to_string(), container.to_string()))
            .is_some_and(|c| c.remove(name).is_some()))
    }

    fn exists(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        Ok(self
            .objects
            .read()
            .get(&(account.to_string(), container.to_string()))
            .is_some_and(|c| c.contains_key(name)))
    }

    fn list(&self, account: &str, container: &str) -> io::Result<Vec<String>> {
        let mut names: Vec<String> = self
            .objects
            .read()
            .get(&(account.to_string(), container.to_string()))
            .map(|c| c.keys().cloned().collect())
            .unwrap_or_default();
        names.sort();
        Ok(names)
    }
}

/// Filesystem-backed object store: objects live at
/// `<root>/<account>/<container>/<hex(name)>`. Object names are hex-encoded
/// so arbitrary names (and path separators) are safe on any filesystem.
#[derive(Debug)]
pub struct DiskBackend {
    root: PathBuf,
    /// Numbers each put's temp file, so concurrent puts into one container
    /// never write through the same one.
    next_tmp: AtomicU64,
}

impl DiskBackend {
    /// Opens (or creates) a disk backend rooted at `root`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the root directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        std::fs::create_dir_all(root.as_ref())?;
        Ok(DiskBackend {
            root: root.as_ref().to_path_buf(),
            next_tmp: AtomicU64::new(0),
        })
    }

    fn container_dir(&self, account: &str, container: &str) -> PathBuf {
        self.root.join(encode(account)).join(encode(container))
    }

    fn object_path(&self, account: &str, container: &str, name: &str) -> PathBuf {
        self.container_dir(account, container).join(encode(name))
    }
}

fn encode(s: &str) -> String {
    s.bytes().map(|b| format!("{b:02x}")).collect()
}

fn decode(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in s.as_bytes().chunks(2) {
        let hex = std::str::from_utf8(pair).ok()?;
        out.push(u8::from_str_radix(hex, 16).ok()?);
    }
    String::from_utf8(out).ok()
}

impl ObjectBackend for DiskBackend {
    fn put(&self, account: &str, container: &str, name: &str, data: &[u8]) -> io::Result<()> {
        let dir = self.container_dir(account, container);
        std::fs::create_dir_all(&dir)?;
        // Write-then-rename for crash atomicity, through a temp file of
        // this put's own: the pid keeps processes sharing the root apart,
        // the counter keeps this backend's threads apart.
        let n = self.next_tmp.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".tmp-{}-{n}", std::process::id()));
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, self.object_path(account, container, name))
    }

    fn get(&self, account: &str, container: &str, name: &str) -> io::Result<Option<Bytes>> {
        match std::fs::read(self.object_path(account, container, name)) {
            Ok(data) => Ok(Some(Bytes::from(data))),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn delete(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        match std::fs::remove_file(self.object_path(account, container, name)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn exists(&self, account: &str, container: &str, name: &str) -> io::Result<bool> {
        Ok(self.object_path(account, container, name).exists())
    }

    fn list(&self, account: &str, container: &str) -> io::Result<Vec<String>> {
        let dir = self.container_dir(account, container);
        let mut names = Vec::new();
        match std::fs::read_dir(&dir) {
            Ok(entries) => {
                for entry in entries {
                    let entry = entry?;
                    if let Some(name) = entry.file_name().to_str().and_then(decode) {
                        names.push(name);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stacksync-disk-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(backend: &dyn ObjectBackend) {
        assert_eq!(backend.get("a", "c", "x").unwrap(), None);
        backend.put("a", "c", "x", b"one").unwrap();
        backend.put("a", "c", "y/slashed name", b"two").unwrap();
        assert_eq!(&backend.get("a", "c", "x").unwrap().unwrap()[..], b"one");
        assert_eq!(
            &backend.get("a", "c", "y/slashed name").unwrap().unwrap()[..],
            b"two"
        );
        assert!(backend.exists("a", "c", "x").unwrap());
        assert!(!backend.exists("a", "c", "nope").unwrap());
        assert_eq!(
            backend.list("a", "c").unwrap(),
            vec!["x".to_string(), "y/slashed name".to_string()]
        );
        // Overwrite replaces.
        backend.put("a", "c", "x", b"replaced").unwrap();
        assert_eq!(
            &backend.get("a", "c", "x").unwrap().unwrap()[..],
            b"replaced"
        );
        assert!(backend.delete("a", "c", "x").unwrap());
        assert!(!backend.delete("a", "c", "x").unwrap());
        // Account isolation.
        backend.put("b", "c", "x", b"bee").unwrap();
        assert_eq!(&backend.get("b", "c", "x").unwrap().unwrap()[..], b"bee");
        assert_eq!(backend.get("a", "c", "x").unwrap(), None);
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_contract() {
        let root = temp_root("contract");
        exercise(&DiskBackend::open(&root).unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn disk_backend_persists_across_reopen() {
        let root = temp_root("persist");
        {
            let backend = DiskBackend::open(&root).unwrap();
            backend
                .put("acct", "chunks", "deadbeef", b"payload")
                .unwrap();
        }
        let reopened = DiskBackend::open(&root).unwrap();
        assert_eq!(
            &reopened.get("acct", "chunks", "deadbeef").unwrap().unwrap()[..],
            b"payload"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_puts_into_one_container_keep_their_own_bytes() {
        let root = temp_root("concurrent");
        let backend = DiskBackend::open(&root).unwrap();
        let bytes = |t: usize, i: usize| format!("thread {t} object {i}").repeat(1 + i % 7);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (backend, start) = (&backend, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..500 {
                        backend
                            .put("a", "c", &format!("{t}-{i}"), bytes(t, i).as_bytes())
                            .unwrap();
                    }
                });
            }
        });
        for t in 0..4 {
            for i in 0..500 {
                let got = backend.get("a", "c", &format!("{t}-{i}")).unwrap();
                assert_eq!(got.as_deref(), Some(bytes(t, i).as_bytes()), "{t}-{i}");
            }
        }
        assert_eq!(backend.list("a", "c").unwrap().len(), 2000);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn hex_name_encoding_roundtrips() {
        for name in ["plain", "with/slash", "üñïçødé", "", "a.b-c_d"] {
            assert_eq!(decode(&encode(name)).as_deref(), Some(name));
        }
        assert_eq!(decode("zz"), None);
        assert_eq!(decode("abc"), None);
    }
}
