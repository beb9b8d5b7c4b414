//! Property: however the log's tail is torn or corrupted, replay stops
//! cleanly at the last verifiable record — a strict prefix of what was
//! written, no panic, and the log keeps working (appends continue with the
//! right sequence numbers).
//!
//! This models what a crash can actually leave behind: `fsync` covers a
//! prefix of the byte stream, so damage is either a truncation (partial
//! write never hit the platter) or localized corruption (torn sector).

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use wal::{Log, LogConfig};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("wal-prop-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> LogConfig {
    LogConfig::named("torn-prop")
}

/// Deterministic payload for record `i` of length `len`.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| (i.wrapping_mul(31) ^ j) as u8).collect()
}

/// Byte length of one framed record: header (4 + 8 + 8) + payload.
fn frame_len(payload_len: usize) -> usize {
    20 + payload_len
}

/// The single data segment written by the setup phase (the lexicographically
/// first `wal-*.log`; later ones are fresh actives from reopens).
fn first_segment(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    files.sort();
    files.into_iter().next().expect("segment file exists")
}

/// Writes `lens.len()` records, then damages the file at a pseudo-random
/// position and asserts the recovery contract. `damage_kind`: false =
/// truncate to the position, true = flip bits at the position.
fn check_damage(lens: &[usize], pos_seed: u64, damage_kind: bool, flip_mask: u8) {
    let dir = temp_dir(if damage_kind { "flip" } else { "cut" });
    {
        let (log, _) = Log::open(&dir, config()).unwrap();
        // Only the last ticket is awaited: its flush makes every buffered
        // frame durable in one pass.
        let mut last = None;
        for (i, &len) in lens.iter().enumerate() {
            last = Some(log.append(&payload(i, len)).unwrap());
        }
        last.expect("at least one record").wait().unwrap();
    }
    let seg = first_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    let total: usize = lens.iter().map(|&l| frame_len(l)).sum();
    assert_eq!(bytes.len(), total);

    let pos = (pos_seed % bytes.len() as u64) as usize;
    if damage_kind {
        bytes[pos] ^= flip_mask.max(1);
        fs::write(&seg, &bytes).unwrap();
    } else {
        bytes.truncate(pos);
        fs::write(&seg, &bytes).unwrap();
    }

    // Records whose frames end at or before the damage point are intact; the
    // damaged frame and everything after it must be dropped.
    let mut expect = 0usize;
    let mut end = 0usize;
    for &len in lens {
        end += frame_len(len);
        if end <= pos {
            expect += 1;
        } else {
            break;
        }
    }

    let (log, rec) = Log::open(&dir, config()).unwrap();
    prop_assert_eq!(rec.records.len(), expect);
    for (i, (seq, body)) in rec.records.iter().enumerate() {
        prop_assert_eq!(*seq, i as u64);
        prop_assert_eq!(body.as_slice(), payload(i, lens[i]).as_slice());
    }
    if expect < lens.len() {
        // A truncation landing exactly on a frame boundary leaves a clean
        // prefix — indistinguishable from "never written", so no torn
        // report. Any other damage must be flagged.
        let at_boundary = !damage_kind && {
            let mut e = 0usize;
            pos == 0
                || lens.iter().any(|&len| {
                    e += frame_len(len);
                    e == pos
                })
        };
        if at_boundary {
            prop_assert!(rec.torn.is_none());
        } else {
            prop_assert!(rec.torn.is_some(), "lost records must be reported as torn");
        }
    }

    // The log stays usable and sequence numbers continue from the survivor.
    let seq = log.append_durable(b"post-recovery").unwrap();
    prop_assert_eq!(seq, expect as u64);
    drop(log);
    let (_log, rec2) = Log::open(&dir, config()).unwrap();
    prop_assert_eq!(rec2.records.len(), expect + 1);
    prop_assert!(rec2.torn.is_none(), "recovery truncated the damage away");

    let _ = fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_arbitrary_offsets_recovers_exact_prefix(
        lens in collection::vec(0usize..64, 1..24),
        pos_seed in any::<u64>(),
    ) {
        check_damage(&lens, pos_seed, false, 0);
    }

    #[test]
    fn bit_flips_at_arbitrary_offsets_recover_exact_prefix(
        lens in collection::vec(0usize..64, 1..24),
        pos_seed in any::<u64>(),
        mask in any::<u8>(),
    ) {
        check_damage(&lens, pos_seed, true, mask);
    }

    #[test]
    fn random_garbage_files_never_panic(
        garbage in collection::vec(any::<u8>(), 0..512),
    ) {
        let dir = temp_dir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("wal-{:020}.log", 0)), &garbage).unwrap();
        let (log, rec) = Log::open(&dir, config()).unwrap();
        // Whatever was salvaged is a valid dense-prefix chain.
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
        }
        log.append_durable(b"still alive").unwrap();
        let _ = fs::remove_dir_all(&dir);
    }
}
