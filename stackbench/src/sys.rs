//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the host facts stamped into every result file.
//! Everything comes from `/proc`, so no process is spawned and no FFI is
//! needed.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times. `USER_HZ` has been
/// 100 on every Linux ABI since 2.6; reading it properly needs `sysconf`.
const CLK_TCK: f64 = 100.0;

/// User + system CPU time of this process (all threads, exited ones
/// included), in milliseconds. `None` off Linux.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15 overall,
    // 12 and 13 after the `(comm)` field and the state.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1000.0 / CLK_TCK)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the next
/// [`rss_peak_mb`] reads the peak since now. `false` where the kernel does
/// not allow it; the peak then stays the process-wide one.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Filesystem type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype.to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Soft limit on open file descriptors.
pub fn fd_limit() -> u64 {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
            line.split_ascii_whitespace().nth(3)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Commit the working tree is at, read from `.git` without running git;
/// `"unknown"` in an exported checkout.
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Cores the scheduler gives this process.
pub fn nproc() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        if !Path::new("/proc/self/stat").exists() {
            return;
        }
        let before = cpu_ms().expect("cpu time");
        let mut x = 0u64;
        while cpu_ms().expect("cpu time") < before + 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(rss_peak_mb().expect("VmHWM") > 0.5);
        assert!(fd_limit() > 0);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
        assert!(nproc() >= 1);
    }
}
