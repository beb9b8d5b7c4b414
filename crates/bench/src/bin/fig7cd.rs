//! Fig. 7(c) and 7(d): control and storage traffic per action type,
//! StackSync vs Dropbox, using three single-action traces derived from the
//! benchmark trace ("we grouped all the actions of the same type").
//! StackSync's columns are measured on the real in-process stack
//! ([`bench::LiveStackSync`]); Dropbox's are its protocol model. Exits 1
//! when a shape check of the paper does not hold.

use baselines::{run_trace, DropboxModel};
use bench::{header, mb, LiveStackSync};
use workload::{GeneratorConfig, Trace};

fn main() {
    let trace = Trace::generate(&GeneratorConfig::default());
    // The grouped traces must stay executable: replay ADD-only first, then
    // ADD+UPDATE (charging only updates), etc. We reproduce the paper's
    // grouping by replaying the full trace and attributing per-kind
    // traffic, which run_trace already does.
    header("Fig 7(c): control traffic per action type");
    let s = run_trace(&mut LiveStackSync::new(), &trace, 1);
    let d = run_trace(&mut DropboxModel::new(), &trace, 1);

    println!("{:<10} {:>14} {:>14}", "action", "StackSync", "Dropbox");
    println!(
        "{:<10} {:>14} {:>14}   (paper: ≈3.2 MB vs ≈25 MB)",
        "ADD",
        mb(s.adds.control),
        mb(d.adds.control + d.batch_control * d.adds.count as u64 / trace.ops.len() as u64)
    );
    println!(
        "{:<10} {:>14} {:>14}",
        "UPDATE",
        mb(s.updates.control),
        mb(d.updates.control + d.batch_control * d.updates.count as u64 / trace.ops.len() as u64)
    );
    println!(
        "{:<10} {:>14} {:>14}",
        "REMOVE",
        mb(s.removes.control),
        mb(d.removes.control + d.batch_control * d.removes.count as u64 / trace.ops.len() as u64)
    );

    header("Fig 7(d): storage traffic per action type");
    println!("{:<10} {:>14} {:>14}", "action", "StackSync", "Dropbox");
    println!(
        "{:<10} {:>14} {:>14}   (paper: 565.63 MB vs 660.32 MB)",
        "ADD",
        mb(s.adds.storage),
        mb(d.adds.storage)
    );
    println!(
        "{:<10} {:>14} {:>14}   (paper: ≈5 MB vs ≈2 MB — Dropbox wins via deltas)",
        "UPDATE",
        mb(s.updates.storage),
        mb(d.updates.storage)
    );
    println!(
        "{:<10} {:>14} {:>14}",
        "REMOVE",
        mb(s.removes.storage),
        mb(d.removes.storage)
    );

    let checks = [
        (
            "StackSync ADD control ≪ Dropbox ADD control",
            s.adds.control * 3 < d.adds.control + d.batch_control,
        ),
        (
            "Dropbox UPDATE storage ≤ StackSync UPDATE storage",
            d.updates.storage <= s.updates.storage,
        ),
        (
            "StackSync ADD storage < Dropbox ADD storage",
            s.adds.storage < d.adds.storage,
        ),
    ];
    println!("\nshape checks:");
    for (check, holds) in checks {
        println!("  {check}: {holds}");
    }
    bench::obs_dump();
    if checks.iter().any(|(_, holds)| !holds) {
        std::process::exit(1);
    }
}
