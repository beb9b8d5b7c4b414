//! Shared plumbing for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (run them with `cargo run --release -p bench --bin
//! fig7a` etc.). Per-layer performance is measured by `stackbench`, the
//! repository's benchmark, and by `perf_suite`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::{run_trace, ProviderReport, SyncProvider};
use workload::Trace;

/// Formats a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1_000_000.0)
}

/// Prints a crude console header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Runs one provider over the trace and returns its report (convenience
/// used by several binaries).
pub fn replay(provider: &mut dyn SyncProvider, trace: &Trace, batch: usize) -> ProviderReport {
    run_trace(provider, trace, batch)
}

/// Renders an ASCII bar scaled to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Command-line flag helper: `--flag value`.
pub fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Honors the `--obs-dump <path>` flag shared by every harness binary:
/// writes the metrics snapshot (Prometheus text exposition) followed by the
/// trace ring buffer (JSON lines, prefixed `# spans`) to `path`, plus a
/// standalone span dump (with the process-meta header `traceview`
/// understands) to `<path>.spans.json`. Call once at the end of `main`. No
/// flag, no output; a write failure is reported on stderr but never fails
/// the run.
pub fn obs_dump() {
    let Some(path) = arg_value("--obs-dump") else {
        return;
    };
    let mut out = obs::render_text();
    out.push_str("# spans\n");
    out.push_str(&obs::spans_json());
    match std::fs::write(&path, out) {
        Ok(()) => eprintln!("observability dump written to {path}"),
        Err(e) => eprintln!("failed to write observability dump to {path}: {e}"),
    }
    let spans_path = format!("{path}.spans.json");
    match std::fs::write(
        &spans_path,
        obs::spans_json_with_meta(&obs::process_label()),
    ) {
        Ok(()) => eprintln!("span dump written to {spans_path}"),
        Err(e) => eprintln!("failed to write span dump to {spans_path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mb_formats() {
        assert_eq!(mb(535_410_000), "535.41 MB");
        assert_eq!(mb(0), "0.00 MB");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
