//! Fail-closed behavior of the storage layer on damaged files: every
//! corruption — truncated snapshot, flipped bit in any section, torn or
//! bit-flipped log — must surface as a structured `error[storage]` and
//! never a panic or a silently wrong graph. The distinction under test:
//! a *torn tail* (file ends before a framed length) is a crash artifact
//! and recoverable; a *CRC mismatch* (bytes present but wrong) is real
//! corruption and always fatal.

use regular_queries::graph::{generate, Delta};
use regular_queries::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rq-corrupt-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store with a few log records on top of the snapshot.
fn build_store(tag: &str) -> PathBuf {
    let db = generate::random_gnm(25, 70, &["a", "b"], 9);
    let dir = temp_dir(tag);
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let (mut handle, _, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    handle
        .append(&[Delta::add("p", "a", "q"), Delta::add("q", "b", "p")])
        .unwrap();
    dir
}

fn open_err(dir: &std::path::Path) -> String {
    match StorageHandle::open(dir, StorageConfig::default()) {
        Ok(_) => panic!("damaged store in {} opened successfully", dir.display()),
        Err(e) => e.to_string(),
    }
}

#[test]
fn truncated_snapshot_is_a_structured_error_at_every_length() {
    let dir = build_store("truncate");
    let snap = dir.join("snapshot.rqs");
    let full = std::fs::read(&snap).unwrap();
    // Every prefix, from the empty file up to one missing byte. Stride
    // keeps the loop fast; the boundaries (0, 1, magic, superblock edge)
    // are covered because len/7 strides hit small values densely.
    let mut cuts: Vec<usize> = (0..full.len()).step_by((full.len() / 64).max(1)).collect();
    cuts.extend([0, 1, 7, 8, 9, full.len() - 1]);
    for cut in cuts {
        std::fs::write(&snap, &full[..cut]).unwrap();
        let msg = open_err(&dir);
        assert!(
            msg.starts_with("error[storage]:"),
            "cut at {cut}: unstructured error {msg:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flips_anywhere_in_the_snapshot_are_caught_by_a_crc() {
    let dir = build_store("bitflip");
    let snap = dir.join("snapshot.rqs");
    let full = std::fs::read(&snap).unwrap();
    // Flip one bit at a sweep of positions covering the superblock and
    // every section; each must be rejected (the CRCs leave no blind
    // spots — a flip either breaks a section CRC, the superblock CRC, or
    // the magic/version check).
    for pos in (0..full.len()).step_by((full.len() / 96).max(1)) {
        for bit in [0u8, 4, 7] {
            let mut bad = full.clone();
            bad[pos] ^= 1 << bit;
            std::fs::write(&snap, &bad).unwrap();
            let msg = open_err(&dir);
            assert!(
                msg.starts_with("error[storage]:"),
                "flip at byte {pos} bit {bit}: unstructured error {msg:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_log_bytes_are_corruption_not_a_torn_tail() {
    let dir = build_store("logflip");
    let log = dir.join("deltas.rqlog");
    let full = std::fs::read(&log).unwrap();
    for pos in 8..full.len() {
        let mut bad = full.clone();
        bad[pos] ^= 0x10;
        std::fs::write(&log, &bad).unwrap();
        // Flipping a frame's length field can make the record overrun the
        // file — indistinguishable from a torn tail, and treated as one
        // (dropped, tolerated). Any flip that leaves framing intact is a
        // CRC mismatch and must fail closed.
        if let Err(e) = StorageHandle::open(&dir, StorageConfig::default()) {
            let msg = e.to_string();
            assert!(
                msg.starts_with("error[storage]: corrupt"),
                "flip at {pos}: wrong error class {msg:?}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn strict_mode_refuses_a_torn_tail_instead_of_repairing_it() {
    let dir = build_store("strict");
    let log = dir.join("deltas.rqlog");
    let full = std::fs::read(&log).unwrap();
    std::fs::write(&log, &full[..full.len() - 3]).unwrap();
    let strict = StorageConfig {
        tolerate_torn_tail: false,
        ..StorageConfig::default()
    };
    let err = StorageHandle::open(&dir, strict).unwrap_err().to_string();
    assert!(
        err.starts_with("error[storage]: torn log"),
        "strict mode gave {err:?}"
    );
    // The permissive default repairs the same file.
    let (_, _, report) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    assert!(report.torn_tail_dropped);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_files_are_io_errors_not_panics() {
    let dir = temp_dir("missing");
    let msg = open_err(&dir);
    assert!(msg.starts_with("error[storage]:"), "{msg:?}");
    // A directory with only a log (snapshot deleted) is also structured.
    let dir2 = build_store("nosnap");
    std::fs::remove_file(dir2.join("snapshot.rqs")).unwrap();
    let msg = open_err(&dir2);
    assert!(msg.starts_with("error[storage]:"), "{msg:?}");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

/// IEEE CRC-32, bit by bit: the test re-seals a patched snapshot without
/// reaching into the storage crate's own checksum code.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Replace the only occurrence of `from` in the snapshot with `to` (same
/// length), then recompute the enclosing section's CRC and the
/// superblock CRC so that every checksum passes again.
fn patch_and_reseal(snapshot: &mut [u8], from: &[u8], to: &[u8]) {
    assert_eq!(from.len(), to.len());
    let pos = snapshot
        .windows(from.len())
        .position(|w| w == from)
        .expect("name present in the snapshot");
    snapshot[pos..pos + to.len()].copy_from_slice(to);
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    // Superblock: 36-byte head (section count last), then 25-byte table
    // entries { kind u8, shard u32, offset u64, len u64, crc u32 }, then
    // its own crc.
    let sections = u32_at(snapshot, 32) as usize;
    let sb_len = 36 + sections * 25;
    for i in 0..sections {
        let entry = 36 + i * 25;
        let offset = u64_at(snapshot, entry + 5) as usize;
        let len = u64_at(snapshot, entry + 13) as usize;
        if (offset..offset + len).contains(&pos) {
            let crc = crc32(&snapshot[offset..offset + len]);
            snapshot[entry + 21..entry + 25].copy_from_slice(&crc.to_le_bytes());
        }
    }
    let crc = crc32(&snapshot[..sb_len]);
    snapshot[sb_len..sb_len + 4].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn a_node_name_repeated_in_the_snapshot_is_corruption() {
    let mut db = GraphDb::new();
    let (x, y) = (db.node("nodeX"), db.node("nodeY"));
    let r = db.label("r");
    db.add_edge(x, r, y);
    let dir = temp_dir("dupname");
    StorageHandle::create(&dir, &db, StorageConfig::default()).unwrap();
    let snap = dir.join("snapshot.rqs");
    let full = std::fs::read(&snap).unwrap();

    // Control: a patch that keeps the names distinct still loads, so the
    // rejection below is the duplicate check and not a checksum.
    let mut renamed = full.clone();
    patch_and_reseal(&mut renamed, b"nodeY", b"nodeZ");
    std::fs::write(&snap, &renamed).unwrap();
    let (_, back, _) = StorageHandle::open(&dir, StorageConfig::default()).unwrap();
    assert_eq!(back.find_node("nodeZ"), Some(y));

    let mut repeated = full;
    patch_and_reseal(&mut repeated, b"nodeY", b"nodeX");
    std::fs::write(&snap, &repeated).unwrap();
    let msg = open_err(&dir);
    assert!(
        msg.starts_with("error[storage]: corrupt") && msg.contains("duplicate node name"),
        "{msg:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
