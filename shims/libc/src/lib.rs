//! Offline stand-in for the tiny slice of `libc` this workspace needs:
//! `poll(2)` and the file-descriptor resource limit.
//!
//! The build environment has no crates.io access, so — like the other
//! crates under `shims/` — this is a local, API-shaped substitute. Unlike
//! the real `libc` it does **not** re-export raw unsafe externs: the FFI
//! lives here, behind safe wrappers, so downstream crates can keep
//! `#![forbid(unsafe_code)]`. The `pollfd` struct and `POLL*` constants
//! match the Linux ABI so the calling code reads like ordinary libc usage.
//!
//! Soundness of the safe wrappers:
//! * [`poll`] passes a valid `&mut [pollfd]` pointer/length pair; the
//!   kernel only writes `revents` within that range. A slice entry holding
//!   a closed or bogus fd is reported via `POLLNVAL`, never UB.
//! * [`raise_nofile_limit`] / [`set_nofile_limit`] / [`nofile_limit`] pass
//!   pointers to local `rlimit` values the kernel fills or reads in place.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use std::io;
use std::os::raw::{c_int, c_ulong};

/// There is data to read.
pub const POLLIN: i16 = 0x001;
/// Writing now will not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition (output only).
pub const POLLERR: i16 = 0x008;
/// Hang up (output only): the peer closed its end.
pub const POLLHUP: i16 = 0x010;
/// Invalid request: fd not open (output only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of a `poll(2)` set, Linux ABI layout.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
#[allow(non_camel_case_types)]
pub struct pollfd {
    /// File descriptor to watch (a negative fd is ignored by the kernel).
    pub fd: c_int,
    /// Requested events (`POLLIN` / `POLLOUT` bitmask).
    pub events: i16,
    /// Returned events, written by the kernel.
    pub revents: i16,
}

impl pollfd {
    /// Entry watching `fd` for `events`.
    pub fn new(fd: c_int, events: i16) -> Self {
        pollfd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[repr(C)]
struct rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const RLIMIT_NOFILE: c_int = 7;

mod ffi {
    use super::{pollfd, rlimit};
    use std::os::raw::{c_int, c_ulong};

    extern "C" {
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
    }
}

/// Waits for readiness on `fds` for up to `timeout_ms` milliseconds
/// (negative = block indefinitely, `0` = poll and return). Returns the
/// number of entries with nonzero `revents`. `EINTR` is reported as
/// `Ok(0)` — callers recompute their deadlines every iteration anyway.
pub fn poll(fds: &mut [pollfd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively borrowed slice; the kernel
    // reads `fd`/`events` and writes `revents` for exactly `fds.len()`
    // entries.
    let rc = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// Current `(soft, hard)` open-file-descriptor limit.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    let mut lim = rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: passes a valid pointer to a local the kernel fills.
    let rc = unsafe { ffi::getrlimit(RLIMIT_NOFILE, &mut lim) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((lim.rlim_cur, lim.rlim_max))
}

/// Raises the soft open-fd limit toward `target` and returns the resulting
/// soft limit. If `target` exceeds the hard limit, raising the hard limit
/// is attempted first (succeeds for privileged processes, e.g. root in a
/// container); otherwise the soft limit is clamped to the hard limit.
/// Best-effort: a process that cannot raise its limit still learns what it
/// has.
pub fn raise_nofile_limit(target: u64) -> io::Result<u64> {
    let (soft, hard) = nofile_limit()?;
    if target <= soft {
        return Ok(soft);
    }
    if target > hard {
        let lim = rlimit {
            rlim_cur: target,
            rlim_max: target,
        };
        // SAFETY: passes a valid pointer to a fully initialized local.
        // Needs CAP_SYS_RESOURCE; on failure fall through to the clamp.
        if unsafe { ffi::setrlimit(RLIMIT_NOFILE, &lim) } == 0 {
            return Ok(target);
        }
    }
    let want = target.min(hard);
    if want <= soft {
        return Ok(soft);
    }
    let lim = rlimit {
        rlim_cur: want,
        rlim_max: hard,
    };
    // SAFETY: passes a valid pointer to a fully initialized local.
    let rc = unsafe { ffi::setrlimit(RLIMIT_NOFILE, &lim) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(want)
}

/// Sets the soft open-fd limit to `soft`, clamped to the hard limit.
/// Lowering it is how a process exhausts its descriptors cheaply (the next
/// `open`, `socket` or `accept` fails with `EMFILE`).
pub fn set_nofile_limit(soft: u64) -> io::Result<()> {
    let (_, hard) = nofile_limit()?;
    let lim = rlimit {
        rlim_cur: soft.min(hard),
        rlim_max: hard,
    };
    // SAFETY: passes a valid pointer to a fully initialized local.
    if unsafe { ffi::setrlimit(RLIMIT_NOFILE, &lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_times_out_on_quiet_fd() {
        let (_a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut fds = [pollfd::new(b.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 0).unwrap();
        assert_eq!(n, 0);
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn poll_reports_readable_after_write() {
        let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        let mut fds = [pollfd::new(b.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn poll_flags_bogus_fd_as_nval() {
        let mut fds = [pollfd::new(1_000_000, POLLIN)];
        let n = poll(&mut fds, 0).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLNVAL, 0);
    }

    #[test]
    fn nofile_limit_reports_something_sane() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft >= 64, "soft fd limit {soft} is implausibly low");
        assert!(hard >= soft);
    }

    #[test]
    fn raise_is_idempotent_at_or_below_current() {
        let (soft, _) = nofile_limit().unwrap();
        assert_eq!(raise_nofile_limit(soft).unwrap(), soft);
        assert_eq!(raise_nofile_limit(soft / 2).unwrap(), soft);
    }
}
