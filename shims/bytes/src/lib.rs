//! Local stand-in for the `bytes` crate: a cheaply clonable, immutable byte
//! buffer backed by `Arc<Vec<u8>>`, so that — as in the real crate —
//! `Bytes::from(Vec<u8>)` takes the vector over instead of copying it (a
//! client hands whole files across this conversion). Only the surface this
//! workspace uses is provided. Built because the environment has no
//! crates.io access.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer. Cloning is O(1), and
/// [`Bytes::slice`] is zero-copy: the sub-buffer shares the parent's
/// allocation and only narrows the visible window.
#[derive(Clone)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    fn from_arc(inner: Arc<Vec<u8>>) -> Self {
        let end = inner.len();
        Bytes {
            inner,
            start: 0,
            end,
        }
    }

    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::from_arc(Arc::new(Vec::new()))
    }

    /// Wraps a static byte slice (copied into shared storage).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::from_arc(Arc::new(bytes.to_vec()))
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_arc(Arc::new(data.to_vec()))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copies the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.inner[self.start..self.end]
    }

    /// Returns a new `Bytes` holding the given subrange without copying:
    /// the result shares this buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted, matching slice
    /// indexing semantics.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Self {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "range {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes {
            inner: Arc::clone(&self.inner),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_arc(Arc::new(v))
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from_arc(Arc::new(v.into_vec()))
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(v: &'static [u8; N]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from(v.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_eq() {
        let b = Bytes::from(vec![1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b, [1u8, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(b, Bytes::copy_from_slice(&[1, 2, 3]));
    }

    #[test]
    fn clone_is_shared() {
        let b = Bytes::from(vec![9; 1024]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(std::sync::Arc::ptr_eq(&b.inner, &c.inner));
    }

    #[test]
    fn from_vec_takes_the_allocation_over() {
        let v = vec![3u8; 4096];
        let at = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), at, "From<Vec<u8>> must not copy");
        let boxed: Box<[u8]> = vec![4u8; 64].into_boxed_slice();
        let at = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ptr(), at);
    }

    #[test]
    fn slice_subrange() {
        let b = Bytes::from_static(b"hello world");
        assert_eq!(b.slice(0..5), *b"hello");
        assert_eq!(b.slice(6..), *b"world");
    }

    #[test]
    fn slice_is_zero_copy_and_nests() {
        let b = Bytes::from(vec![7u8; 4096]);
        let s = b.slice(1024..3072);
        assert!(Arc::ptr_eq(&b.inner, &s.inner), "slice must share the Arc");
        assert_eq!(s.len(), 2048);
        let t = s.slice(512..1024);
        assert!(Arc::ptr_eq(&b.inner, &t.inner));
        assert_eq!(t, b.slice(1536..2048));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from(vec![0u8; 8]).slice(4..16);
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::new().is_empty());
        assert!(Bytes::default().is_empty());
    }
}
