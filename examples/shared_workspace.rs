//! Shared workspace scenario: three devices collaborate on one workspace —
//! dedup saves uploads, deletions propagate, and a concurrent edit ends in
//! a conflict copy exactly like Dropbox's policy (paper §4.1/§4.2.1).
//!
//! ```sh
//! cargo run -p stacksync-examples --bin shared_workspace
//! ```

use objectmq::RemoteObject;
use stacksync::{ClientConfig, Deployment, SYNC_SERVICE_OID};
use std::time::Duration;
use wire::Value;

const WAIT: Duration = Duration::from_secs(10);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The one SyncService instance takes the paper's measured 50 ms per
    // commit, so concurrent edits genuinely race (and conflict) like on a
    // real deployment. Any object bound to the service's oid is a pool
    // instance; this one delays, then delegates.
    let cloud = Deployment::builder().instances(0).build()?;
    let service = cloud.service().clone();
    let _instance =
        cloud
            .broker()
            .bind(SYNC_SERVICE_OID, move |method: &str, args: &[Value]| {
                if method == "commit_request" {
                    std::thread::sleep(Duration::from_millis(50));
                }
                service.dispatch(method, args)
            })?;

    let ws = cloud.provision("team", "Project")?;
    let cfg = |device: &str| ClientConfig::new("team", device).with_chunk_size(64 * 1024);
    let laptop = cloud.connect(cfg("laptop"), &ws)?;
    let desktop = cloud.connect(cfg("desktop"), &ws)?;
    let tablet = cloud.connect(cfg("tablet"), &ws)?;

    // 1. Plain propagation.
    println!("1) laptop adds design.md …");
    laptop.write_file("design.md", b"# Design\nqueue all the things".to_vec())?;
    for c in [&desktop, &tablet] {
        assert!(c.wait_for_content("design.md", b"# Design\nqueue all the things", WAIT));
    }
    println!("   synced to desktop and tablet");

    // 2. Deduplication: the same payload under another name uploads zero
    //    new chunks.
    let big = vec![7u8; 256 * 1024];
    laptop.write_file("dataset.bin", big.clone())?;
    assert!(desktop.wait_for_content("dataset.bin", &big, WAIT));
    let before = laptop.stats().chunks_uploaded();
    laptop.write_file("dataset-copy.bin", big.clone())?;
    assert!(desktop.wait_for_content("dataset-copy.bin", &big, WAIT));
    println!(
        "2) duplicate file: {} new chunk uploads (dedup skipped {})",
        laptop.stats().chunks_uploaded() - before,
        laptop.stats().chunks_deduplicated()
    );

    // 3. Concurrent edit → conflict copy for the loser.
    println!("3) laptop and tablet edit notes.txt concurrently …");
    laptop.write_file("notes.txt", b"from laptop".to_vec())?;
    tablet.write_file("notes.txt", b"from tablet".to_vec())?;
    // Wait until everybody converges on the same file list.
    let converged = laptop.wait(WAIT, || {
        let a = laptop.list_files();
        a == desktop.list_files() && a == tablet.list_files() && a.len() >= 5
    });
    assert!(converged, "devices must converge");
    let conflicts: Vec<String> = laptop
        .list_files()
        .into_iter()
        .filter(|f| f.contains("conflicted copy"))
        .collect();
    println!("   conflict copies now on every device: {conflicts:?}");
    assert_eq!(conflicts.len(), 1);

    // 4. Deletion propagates as a tombstone.
    desktop.delete_file("dataset-copy.bin")?;
    assert!(laptop.wait_for_absent("dataset-copy.bin", WAIT));
    assert!(tablet.wait_for_absent("dataset-copy.bin", WAIT));
    println!("4) deletion propagated to all devices");

    println!(
        "\ntotals: service processed {} commits, {} conflicts detected",
        cloud.service().commits_processed(),
        cloud.service().conflicts_detected()
    );
    println!(
        "laptop control traffic: {} B sent / {} B received",
        laptop.stats().control_sent_bytes(),
        laptop.stats().control_received_bytes()
    );
    Ok(())
}
