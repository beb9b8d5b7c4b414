//! StackSync error types.

use std::error::Error;
use std::fmt;

/// Result alias for sync operations.
pub type SyncResult<T> = Result<T, SyncError>;

/// Errors produced by StackSync clients and services.
#[derive(Debug)]
#[non_exhaustive]
pub enum SyncError {
    /// Middleware (ObjectMQ) failure.
    Middleware(objectmq::OmqError),
    /// A remote invocation failed.
    Call(objectmq::CallError),
    /// The metadata back-end rejected an operation.
    Metadata(metadata::MetadataError),
    /// The storage back-end rejected an operation.
    Storage(storage::StorageError),
    /// A payload failed to decode.
    Wire(wire::WireError),
    /// Chunk data failed integrity or decompression checks.
    Corrupt(String),
    /// A local path does not exist in the workspace.
    NoSuchFile(String),
    /// A deployment could not open a store or bind a listener.
    Io(std::io::Error),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::Middleware(e) => write!(f, "middleware error: {e}"),
            SyncError::Call(e) => write!(f, "remote call failed: {e}"),
            SyncError::Metadata(e) => write!(f, "metadata error: {e}"),
            SyncError::Storage(e) => write!(f, "storage error: {e}"),
            SyncError::Wire(e) => write!(f, "wire error: {e}"),
            SyncError::Corrupt(m) => write!(f, "corrupt chunk data: {m}"),
            SyncError::NoSuchFile(p) => write!(f, "no such file in workspace: {p}"),
            SyncError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for SyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SyncError::Middleware(e) => Some(e),
            SyncError::Call(e) => Some(e),
            SyncError::Metadata(e) => Some(e),
            SyncError::Storage(e) => Some(e),
            SyncError::Wire(e) => Some(e),
            SyncError::Io(e) => Some(e),
            SyncError::Corrupt(_) | SyncError::NoSuchFile(_) => None,
        }
    }
}

impl From<objectmq::OmqError> for SyncError {
    fn from(e: objectmq::OmqError) -> Self {
        SyncError::Middleware(e)
    }
}
impl From<objectmq::CallError> for SyncError {
    fn from(e: objectmq::CallError) -> Self {
        SyncError::Call(e)
    }
}
impl From<metadata::MetadataError> for SyncError {
    fn from(e: metadata::MetadataError) -> Self {
        SyncError::Metadata(e)
    }
}
impl From<storage::StorageError> for SyncError {
    fn from(e: storage::StorageError) -> Self {
        SyncError::Storage(e)
    }
}
impl From<std::io::Error> for SyncError {
    fn from(e: std::io::Error) -> Self {
        SyncError::Io(e)
    }
}
impl From<wire::WireError> for SyncError {
    fn from(e: wire::WireError) -> Self {
        SyncError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = SyncError::NoSuchFile("a.txt".into());
        assert!(e.to_string().contains("a.txt"));
        assert!(e.source().is_none());
        let e = SyncError::Metadata(metadata::MetadataError::UnknownUser("u".into()));
        assert!(e.source().is_some());
    }

    #[test]
    fn conversions_compile() {
        let _: SyncError = objectmq::OmqError::UnknownObject("x".into()).into();
        let _: SyncError = objectmq::CallError::Timeout { attempts: 1 }.into();
        let _: SyncError = metadata::MetadataError::UnknownUser("u".into()).into();
        let _: SyncError = storage::StorageError::BadCredentials.into();
        let _: SyncError = wire::WireError::UnexpectedEof.into();
    }
}
