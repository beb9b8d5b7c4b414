//! Determinism and coverage guarantees of the crash-loop simulation.
//!
//! These are the acceptance gates of the harness: a seed is only worth
//! printing if replaying it reproduces the run bit-for-bit, and the
//! checker is only trustworthy if it holds across many distinct seeds.

use faultsim::{explore, run_seed, run_seed_with, FaultRates, SimConfig, StoreSelection};
use std::time::Instant;

/// `run_seed(s).fingerprint()` for seeds 0–63 under the default `SimConfig`,
/// recorded at PR 13 against the separate global-mutex store that the
/// one-shard selection replaced.
/// The fingerprint covers the fault schedule and every client-visible
/// event, so reproducing these values is what "behaviour unchanged" means
/// for any later change to the store, the service or the broker; a change
/// that is meant to alter client-visible behaviour re-records them and
/// says why.
#[rustfmt::skip]
const GOLDEN: [u64; 64] = [
    0x215286495fd7b0f1, 0xa0d9bef5bd67e79a, 0x78dd48c298077fe7, 0x9af8ee14ab442cc4,
    0x3618a3b69e2892be, 0xf88b45ddb36550c6, 0x17bb3334fafeaabb, 0x0597369a539c155a,
    0x21672756cb416ca1, 0x28cc59cecbc770fd, 0xa731a297585de703, 0xfc234fb63d82d006,
    0x3d26191c285aeac5, 0xcb3b45df97918d21, 0xf71973ba17733b10, 0xbe74edf9fbb57856,
    0x6934024721f4d319, 0x5e3e41d1ae7b3e20, 0x6872c05fa46cbdd0, 0x4ef3316599c910c0,
    0x22f5ff642b4799ec, 0xd3aad692a56b3d99, 0xfbf72de411775162, 0x89fd0c3a686f99b5,
    0x5c063b86c64a95cd, 0x13ac576eb45873f6, 0xaad603c6c85a2698, 0xe3569414ee297a35,
    0x712ca68eb6e7f564, 0x691f11fa583e6e0d, 0x0d0a93fe0faaf691, 0xe9001218490c963c,
    0xdf765a5dc86d2d67, 0xc5adc9e5de800e56, 0xc94ccbcef79fbabc, 0x60412f191220351a,
    0x53a070bee64dc7ca, 0x4b7044e0c02df72b, 0x7bf5e2ccdb6eebe3, 0x2da69c90f2075e55,
    0xd673fe116dc82505, 0xc664abff5613c5cd, 0xe48bd5d5c592cc94, 0x06c0fd67adb3c874,
    0x5fba2c5393e5a687, 0xee800a123425ba0f, 0x8e95c82d6a747aa5, 0xe6e34afe564ca7fd,
    0x7e4465e53325017d, 0x333a331363735029, 0xa358b0fae3bb7f9e, 0x7e88b57b22ceb14e,
    0x66ea9f161df216eb, 0xd5a4ea00e5f5e2ad, 0xcb7764bb9a12c895, 0xce8457a1c233aacb,
    0xc9b327bc9cf2dd92, 0xec5e425f7a6c6025, 0x9e0ace2c8591f055, 0x3e08d881d4660510,
    0x2030fe7b30a7cdba, 0x8c66ae4c8a6fbe1e, 0xb7aadca3ac95b6a3, 0x47257a436ea0cb66,
];

/// Same seed ⇒ same fault schedule, same event history, same verdict —
/// three times over, and fast enough to be a unit test, because nothing
/// in the simulation touches a thread or a wall clock.
#[test]
fn same_seed_replays_identically_three_times() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let start = Instant::now();
        let first = run_seed(seed).expect("seed passes");
        let second = run_seed(seed).expect("seed passes again");
        let third = run_seed(seed).expect("and again");
        assert_eq!(first.fingerprint(), second.fingerprint(), "seed {seed}");
        assert_eq!(second.fingerprint(), third.fingerprint(), "seed {seed}");
        assert_eq!(first.fault_trace, third.fault_trace, "seed {seed}");
        assert_eq!(
            first.history.events(),
            third.history.events(),
            "seed {seed}"
        );
        assert_eq!(first.steps, third.steps, "seed {seed}");
        assert!(
            start.elapsed().as_secs() < 2,
            "three replays of seed {seed} must stay under 2s"
        );
    }
}

/// Different seeds explore different schedules — otherwise the sweep is
/// rerunning one scenario 50 times.
#[test]
fn different_seeds_diverge() {
    let a = run_seed(10).expect("passes");
    let b = run_seed(11).expect("passes");
    assert_ne!(a.fingerprint(), b.fingerprint());
}

/// The CI gate: a block of consecutive seeds all hold every invariant.
/// 60 here, and the `faultsim-explore` CI job sweeps more; a failure
/// prints the seed and its transcript for replay.
#[test]
fn fifty_plus_seeds_hold_all_invariants() {
    let outcome = explore(0, 60, &SimConfig::default());
    if let Some(failure) = outcome.failure {
        panic!("{failure}");
    }
    assert_eq!(outcome.passed, 60);
}

/// The harness actually exercises the hostile paths: across a seed range,
/// runs collectively hit drops, duplicates, reorders and both crash
/// windows.
#[test]
fn fault_space_is_covered() {
    let mut total_faults = 0;
    let mut total_crashes = 0;
    let mut redeliveries_seen = false;
    for seed in 200..215 {
        let report = run_seed(seed).expect("seed passes");
        total_faults += report.faults_injected;
        total_crashes += report.crashes;
        if report
            .history
            .events()
            .iter()
            .any(|e| matches!(e, faultsim::Event::Crashed { .. }))
        {
            redeliveries_seen = true;
        }
    }
    assert!(total_faults > 20, "fault plan barely fired: {total_faults}");
    assert!(
        total_crashes > 3,
        "crash windows barely hit: {total_crashes}"
    );
    assert!(redeliveries_seen, "no crash ever forced a redelivery");
}

/// The CI gate for the partitioned metadata tier: the same fixed seed
/// block holds every invariant when the stack commits against 8 shards
/// instead of one.
#[test]
fn fifty_plus_seeds_hold_all_invariants_sharded() {
    let config = SimConfig {
        store: StoreSelection {
            shards: 8,
            durable: false,
        },
        ..SimConfig::default()
    };
    let outcome = explore(0, 60, &config);
    if let Some(failure) = outcome.failure {
        panic!("{failure}");
    }
    assert_eq!(outcome.passed, 60);
}

/// The sharding identity plan, end to end: the store consumes no scheduler
/// randomness, so a seed's fingerprint — fault schedule plus every
/// client-visible event — is the recorded one whether the stack commits
/// against one shard (the global serialization point), eight, or a
/// WAL-backed store.
#[test]
fn sharded_and_global_runs_are_indistinguishable() {
    for (shards, durable) in [(1, false), (8, false), (4, true)] {
        let config = SimConfig {
            store: StoreSelection { shards, durable },
            ..SimConfig::default()
        };
        for (seed, golden) in (0u64..).zip(GOLDEN) {
            let report = run_seed_with(seed, &config).expect("run passes");
            assert_eq!(
                report.fingerprint(),
                golden,
                "seed {seed}: {:?} diverged from the recorded history",
                config.store
            );
        }
    }
}

/// Heavier contention (more writers on the shared item) still converges
/// and still loses nothing.
#[test]
fn high_contention_configuration_passes() {
    let config = SimConfig {
        writers: 5,
        commits_per_writer: 10,
        crash_permille: 250,
        rates: FaultRates::chaotic(),
        ..SimConfig::default()
    };
    for seed in 0..10 {
        if let Err(failure) = run_seed_with(seed, &config) {
            panic!("{failure}");
        }
    }
}
