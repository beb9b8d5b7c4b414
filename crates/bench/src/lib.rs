//! Shared plumbing for the figure/table harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (run them with `cargo run --release -p bench --bin
//! fig7a` etc.). The traffic figures take StackSync's rows from
//! [`LiveStackSync`], the real stack replaying the trace. Per-layer performance is measured by `stackbench`, the
//! repository's benchmark, and by `perf_suite`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::{OpTraffic, SyncProvider};
use stacksync::{ClientConfig, Deployment, DesktopClient};
use std::time::Duration;

/// Formats a byte count as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / 1_000_000.0)
}

/// Prints a crude console header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// How long one change may take to be confirmed before a replay gives up.
const CONFIRM_TIMEOUT: Duration = Duration::from_secs(120);

/// StackSync as the paper's figures replay it: a default in-process
/// [`Deployment`] and one [`DesktopClient`], one change at a time (the
/// Fig. 7 setting, batch = 1). Each change is confirmed before the next is
/// made, so the traffic it is charged is exactly what it caused: control
/// is the RPC argument and reply bytes [`stacksync::ClientStats`] counts,
/// storage the bytes the chunk store took in. Nothing is modelled, so
/// [`SyncProvider::batch_fixed_control`] is 0.
pub struct LiveStackSync {
    // Declared before `cloud` so the device disconnects first.
    client: DesktopClient,
    cloud: Deployment,
}

impl LiveStackSync {
    /// The paper's configuration: the client's default 512 KB chunks.
    pub fn new() -> Self {
        let cloud = Deployment::builder().build().expect("deploy");
        let ws = cloud.provision("bench", "ws").expect("provision");
        let config = ClientConfig::new("bench", "replayer");
        let client = cloud.connect(config, &ws).expect("connect");
        LiveStackSync { client, cloud }
    }

    /// The replaying device.
    pub fn client(&self) -> &DesktopClient {
        &self.client
    }

    /// The deployment the device syncs with.
    pub fn deployment(&self) -> &Deployment {
        &self.cloud
    }

    /// Makes one change and charges it what the device and the chunk store
    /// counted until the change was confirmed.
    fn measure(&self, change: impl FnOnce(&DesktopClient)) -> OpTraffic {
        let client = &self.client;
        let control = client.stats().control_bytes();
        let storage = self.cloud.objects().traffic().uploaded_bytes();
        change(client);
        assert!(
            client.wait(CONFIRM_TIMEOUT, || client.unconfirmed_changes() == 0),
            "a change was not confirmed within {CONFIRM_TIMEOUT:?}"
        );
        OpTraffic {
            control: client.stats().control_bytes() - control,
            storage: self.cloud.objects().traffic().uploaded_bytes() - storage,
        }
    }
}

impl Default for LiveStackSync {
    fn default() -> Self {
        Self::new()
    }
}

impl SyncProvider for LiveStackSync {
    fn name(&self) -> &'static str {
        "StackSync"
    }

    fn on_add(&mut self, path: &str, content: &[u8]) -> OpTraffic {
        self.measure(|c| c.write_file(path, content.to_vec()).expect("write"))
    }

    fn on_update(&mut self, path: &str, _old: &[u8], new: &[u8]) -> OpTraffic {
        self.measure(|c| c.write_file(path, new.to_vec()).expect("write"))
    }

    fn on_remove(&mut self, path: &str) -> OpTraffic {
        self.measure(|c| c.delete_file(path).expect("delete"))
    }

    fn batch_fixed_control(&self) -> u64 {
        0
    }
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
    use baselines::{run_trace, DropboxModel, FullFileModel, ProviderReport};
    use std::sync::OnceLock;
    use workload::{content_gen, GeneratorConfig, Trace};

    /// The client's fixed chunk size.
    const CHUNK: usize = content::DEFAULT_CHUNK_SIZE;

    fn small_trace() -> Trace {
        Trace::generate(&GeneratorConfig::test_scale())
    }

    /// The live stack's replay of [`small_trace`], shared by the shape
    /// tests.
    fn live_report() -> &'static ProviderReport {
        static REPORT: OnceLock<ProviderReport> = OnceLock::new();
        REPORT.get_or_init(|| run_trace(&mut LiveStackSync::new(), &small_trace(), 1))
    }

    #[test]
    fn dropbox_control_dwarfs_stacksync() {
        // Fig. 7(c): Dropbox's chatty exchanges against StackSync's lean
        // commits.
        let d = run_trace(&mut DropboxModel::new(), &small_trace(), 1);
        let s = live_report();
        assert!(
            d.control_total() > 3 * s.control_total(),
            "Dropbox control {} must dwarf StackSync {}",
            d.control_total(),
            s.control_total()
        );
    }

    #[test]
    fn stacksync_storage_beats_fullfile_providers() {
        let o = run_trace(&mut FullFileModel::onedrive(), &small_trace(), 1);
        let s = live_report();
        assert!(
            s.storage_total() < o.storage_total(),
            "compression + dedup must beat full-file upload: {} vs {}",
            s.storage_total(),
            o.storage_total()
        );
    }

    #[test]
    fn stacksync_wins_add_control() {
        let d = run_trace(&mut DropboxModel::new(), &small_trace(), 1);
        let s = live_report();
        assert!(
            s.adds.control < d.adds.control,
            "StackSync ADD control {} must be below Dropbox's {}",
            s.adds.control,
            d.adds.control
        );
    }

    #[test]
    fn dropbox_delta_wins_paper_scale_updates() {
        // Fig. 7(d) UPDATE asymmetry needs paper-scale files: a small edit
        // to a file much larger than a chunk. StackSync re-ships a whole
        // 512 KB chunk; Dropbox ships a tiny delta.
        let old = content_gen::generate(600_000, 42, 0.0); // incompressible
        let mut new = old.clone();
        new[300_000] ^= 0xff; // small middle edit (an M pattern)

        let mut dropbox = DropboxModel::new();
        dropbox.on_add("f.bin", &old);
        let d = dropbox.on_update("f.bin", &old, &new);

        let mut stacksync = LiveStackSync::new();
        stacksync.on_add("f.bin", &old);
        let s = stacksync.on_update("f.bin", &old, &new);

        assert!(
            d.storage * 10 < s.storage,
            "delta encoding must win UPDATE storage by a wide margin: {} vs {}",
            d.storage,
            s.storage
        );
    }

    #[test]
    fn compression_shrinks_compressible_uploads() {
        let content = content_gen::generate(300_000, 1, 1.0); // text-like
        let t = LiveStackSync::new().on_add("a.txt", &content);
        assert!(
            t.storage < 150_000,
            "compressible content must shrink, got {}",
            t.storage
        );
    }

    #[test]
    fn dedup_skips_known_chunks() {
        let mut s = LiveStackSync::new();
        let content = content_gen::generate(600_000, 2, 0.0);
        let a = s.on_add("a.bin", &content);
        let b = s.on_add("copy.bin", &content);
        assert!(a.storage > 0);
        assert_eq!(b.storage, 0);
        assert!(b.control > 0, "metadata still flows for dedup'd files");
    }

    #[test]
    fn prepend_update_reships_file_boundary_shift() {
        let mut s = LiveStackSync::new();
        let old = content_gen::generate(3 * CHUNK, 3, 0.0);
        let mut new = vec![0xAB; 100];
        new.extend_from_slice(&old);
        s.on_add("f.bin", &old);
        let t = s.on_update("f.bin", &old, &new);
        assert!(
            t.storage as f64 > 0.9 * old.len() as f64,
            "boundary shift must re-ship nearly everything, got {}",
            t.storage
        );
    }

    #[test]
    fn append_update_only_ships_tail_chunks() {
        let mut s = LiveStackSync::new();
        let old = content_gen::generate(3 * CHUNK, 4, 0.0);
        let mut new = old.clone();
        new.extend_from_slice(&content_gen::generate(100, 5, 0.0));
        s.on_add("f.bin", &old);
        let t = s.on_update("f.bin", &old, &new);
        assert!(
            t.storage < 1_000,
            "append must only ship the new 100-byte tail chunk, got {}",
            t.storage
        );
    }

    #[test]
    fn control_scales_with_chunk_count() {
        let mut s = LiveStackSync::new();
        let small = s.on_add("s", &content_gen::generate(CHUNK, 6, 0.0));
        let big = s.on_add("b", &content_gen::generate(4 * CHUNK, 7, 0.0));
        assert!(big.control > small.control);
    }

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
