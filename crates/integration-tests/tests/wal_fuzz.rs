//! Seeded fuzz of the write-ahead-log decoder (`astore_persist::wal`), the
//! third of the three parsers of untrusted bytes (`codec_fuzz.rs` and
//! `snapshot_fuzz.rs` are the others).
//!
//! Input: a version-2 log of group-committed batches — one statement, many,
//! an empty statement, non-ASCII text. Damage goes to one batch's *body*
//! (bit flips, byte overwrites, its statement count, a statement's length,
//! its first LSN pushed to the edge of `u64`, truncation, deleted,
//! duplicated or appended ranges, invalid UTF-8), and the batch is then
//! re-framed with its new length and a **valid** CRC, so the damage reaches
//! the batch parser instead of stopping at the checksum.
//!
//! Every case must hold three things:
//!
//! - `scan_wal` does not panic, and holds at most [`ALLOC_FACTOR`] × the
//!   log's bytes (plus a fixed 64 KiB) of heap at any moment;
//! - the committed prefix is **all-or-nothing per batch**: the batches before
//!   the damaged one read back exactly; the damaged one contributes every
//!   statement its header declares, at consecutive LSNs, with its body
//!   parsed to the last byte — or nothing, and then the scan stops at its
//!   first byte as a torn tail; the batches after it read back exactly if it
//!   was kept;
//! - `Wal::open` on the same bytes (every eighth case, and every case that
//!   moved a first LSN) finds the same records, truncates a torn tail, and
//!   appends after the highest LSN it kept.
//!
//! `WAL_FUZZ_SEED=<n>` runs one extra seed.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use astore_persist::crc::crc32;
use astore_persist::wal::{scan_wal, Wal, WalRecord};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Peak live heap a scan may hold, per byte of log. The worst honest case
/// is a batch of empty statements: a 32-byte record per 4 bytes of body,
/// times the 3× a doubling `Vec` holds while it moves.
const ALLOC_FACTOR: usize = 32;

thread_local! {
    /// Live and peak heap bytes of the current thread, while armed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus a per-thread high-water mark.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals without destructors, which
// neither allocate nor run after the thread's storage is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            let live = LIVE.with(|l| {
                l.set(l.get() + layout.size());
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.with(Cell::get) {
            LIVE.with(|l| l.set(l.get().saturating_sub(layout.size())));
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The batches of the undamaged log.
const BATCHES: &[&[&str]] = &[
    &["INSERT INTO t VALUES (1)"],
    &["INSERT INTO t VALUES (2)", "UPDATE t SET v = 3 WHERE rowid = 0", ""],
    &["DELETE FROM t WHERE rowid = 1"],
    &["INSERT INTO t VALUES ('straße')", "INSERT INTO t VALUES (4)"],
    &["INSERT INTO t VALUES (5)"],
];

/// A per-seed scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(seed: u64) -> Self {
        let dir =
            std::env::temp_dir().join(format!("astore-wal-fuzz-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `header` followed by the batch bodies `frames`, batch `k`'s replaced by
/// `body`, each framed with its length and its CRC.
fn reframe(header: &[u8], frames: &[(usize, Vec<u8>)], k: usize, body: &[u8]) -> Vec<u8> {
    let mut bytes = header.to_vec();
    for (i, (_, b)) in frames.iter().enumerate() {
        let b = if i == k { body } else { b };
        bytes.extend_from_slice(&(b.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(b).to_le_bytes());
        bytes.extend_from_slice(b);
    }
    bytes
}

/// The undamaged log, written by the real writer: its header, then one
/// `(offset, body)` per batch.
fn log(dir: &Scratch) -> (Vec<u8>, Vec<(usize, Vec<u8>)>) {
    let path = dir.0.join("seed.wal");
    let (mut wal, _) = Wal::open(&path, 1).unwrap();
    wal.sync_on_commit = false;
    for batch in BATCHES {
        wal.append_batch(batch).unwrap();
    }
    drop(wal);
    let bytes = std::fs::read(&path).unwrap();
    let mut frames = Vec::new();
    let mut pos = 12;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        frames.push((pos, bytes[pos + 8..pos + 8 + len].to_vec()));
        pos += 8 + len;
    }
    assert_eq!(frames.len(), BATCHES.len());
    let header = bytes[..12].to_vec();
    assert_eq!(reframe(&header, &frames, 0, &frames[0].1), bytes, "framed as the writer frames");
    assert_eq!(scan_wal(&bytes).records, records_of(0..BATCHES.len()));
    (header, frames)
}

/// Offsets of the statement length fields of a well-formed batch body.
fn length_fields(body: &[u8]) -> Vec<usize> {
    let count = u32::from_le_bytes(body[8..12].try_into().unwrap());
    let mut at = 12;
    (0..count)
        .map(|_| {
            let field = at;
            at += 4 + u32::from_le_bytes(body[at..at + 4].try_into().unwrap()) as usize;
            field
        })
        .collect()
}

/// Damages `body` in 1–3 ways; returns whether a first LSN was moved.
fn mutate(rng: &mut SmallRng, body: &mut Vec<u8>) -> bool {
    let mut moved_lsn = false;
    let fields = length_fields(body);
    for _ in 0..rng.gen_range(1..4u32) {
        if body.is_empty() {
            break;
        }
        let at = rng.gen_range(0..body.len());
        match rng.gen_range(0..10u32) {
            0 => body[at] ^= 1 << rng.gen_range(0..8u32),
            1 => body[at] = [0x00, 0xff, 0x7f, 0x80, 0x01][rng.gen_range(0..5usize)],
            2 if body.len() >= 12 => {
                let count = u32::from_le_bytes(body[8..12].try_into().unwrap());
                let value = [0, 1, count.wrapping_add(1), count.wrapping_sub(1), u32::MAX, 1 << 31]
                    [rng.gen_range(0..6usize)];
                body[8..12].copy_from_slice(&value.to_le_bytes());
            }
            3 if !fields.is_empty() => {
                let field = fields[rng.gen_range(0..fields.len())];
                if field + 4 <= body.len() {
                    let len = u32::from_le_bytes(body[field..field + 4].try_into().unwrap());
                    let value = [u32::MAX, len.wrapping_add(1), len.wrapping_sub(1), 0, 1 << 24]
                        [rng.gen_range(0..5usize)];
                    body[field..field + 4].copy_from_slice(&value.to_le_bytes());
                }
            }
            4 if body.len() >= 8 => {
                let first = u64::MAX - rng.gen_range(0..6u64);
                body[..8].copy_from_slice(&first.to_le_bytes());
                moved_lsn = true;
            }
            5 => body.truncate(at),
            6 => {
                let end = rng.gen_range(at..body.len().min(at + 16));
                body.drain(at..=end);
            }
            7 => {
                let end = rng.gen_range(at..body.len().min(at + 32));
                let piece = body[at..=end].to_vec();
                body.splice(at..at, piece);
            }
            8 => {
                let bad = [0xC0, 0xFF, 0x80][..rng.gen_range(1..4usize)].to_vec();
                body.splice(at..at, bad);
            }
            _ => body.extend((0..rng.gen_range(1..40u32)).map(|_| rng.gen_range(0..=255u32) as u8)),
        }
    }
    moved_lsn
}

/// The records of the undamaged batches `range`.
fn records_of(range: std::ops::Range<usize>) -> Vec<WalRecord> {
    let first: usize = BATCHES[..range.start].iter().map(|b| b.len()).sum();
    BATCHES[range]
        .iter()
        .flat_map(|b| b.iter())
        .enumerate()
        .map(|(i, sql)| WalRecord { lsn: (first + i) as u64 + 1, sql: (*sql).to_owned() })
        .collect()
}

/// Checks that the damaged batch `k` (body `body`) contributed all of the
/// statements it declares, at consecutive LSNs, or nothing.
fn check_batch(records: &[WalRecord], body: &[u8], k: usize, ctx: &dyn Fn() -> String) {
    let before = records_of(0..k);
    let after = records_of(k + 1..BATCHES.len());
    assert!(records.len() >= before.len(), "{}: lost committed batches", ctx());
    assert_eq!(records[..before.len()], before[..], "{}: batches before the damage", ctx());
    let rest = &records[before.len()..];
    if rest.is_empty() {
        return;
    }
    assert!(rest.len() >= after.len(), "{}: a kept batch lost the ones after it", ctx());
    let (kept, tail) = rest.split_at(rest.len() - after.len());
    assert_eq!(tail, &after[..], "{}: batches after a kept damaged one", ctx());
    let first = u64::from_le_bytes(body[..8].try_into().unwrap());
    let count = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
    assert_eq!(kept.len(), count, "{}: a kept batch yields its declared count", ctx());
    for (i, r) in kept.iter().enumerate() {
        assert_eq!(r.lsn, first + i as u64, "{}: consecutive LSNs", ctx());
    }
    let parsed: usize = 12 + kept.iter().map(|r| 4 + r.sql.len()).sum::<usize>();
    assert_eq!(parsed, body.len(), "{}: a kept batch is parsed to its last byte", ctx());
}

fn fuzz_seed(seed: u64) {
    let dir = Scratch::new(seed);
    let (header, frames) = log(&dir);
    let path = dir.0.join("case.wal");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a1_f022);
    for case in 0..300 {
        let k = rng.gen_range(0..frames.len());
        let mut body = frames[k].1.clone();
        let moved_lsn = mutate(&mut rng, &mut body);
        let bytes = reframe(&header, &frames, k, &body);
        let ctx = || format!("seed {seed} case {case} (batch {k}, body {:02x?})", body);

        LIVE.with(|l| l.set(0));
        PEAK.with(|p| p.set(0));
        ARMED.with(|a| a.set(true));
        let scan = scan_wal(&bytes);
        ARMED.with(|a| a.set(false));
        let peak = PEAK.with(Cell::get);
        assert!(
            peak <= ALLOC_FACTOR * bytes.len() + (64 << 10),
            "{}: the scan held {peak} B for a {} B log",
            ctx(),
            bytes.len()
        );
        check_batch(&scan.records, &body, k, &ctx);
        if scan.torn {
            assert_eq!(scan.committed_len, frames[k].0, "{}: torn at the damaged batch", ctx());
        } else {
            assert_eq!(scan.committed_len, bytes.len(), "{}", ctx());
        }

        if moved_lsn || case % 8 == 0 {
            std::fs::write(&path, &bytes).unwrap();
            let (mut wal, opened) = Wal::open(&path, 1).unwrap();
            assert_eq!(opened.records, scan.records, "{}: open reads what scan reads", ctx());
            let len = std::fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(len, scan.committed_len, "{}: open truncates the torn tail", ctx());
            wal.sync_on_commit = false;
            // The next LSN follows the highest kept; when that leaves no
            // room (u64::MAX itself is never written) the append is refused.
            let top = scan.records.iter().map(|r| r.lsn).max().unwrap_or(0);
            let appended = wal.append("INSERT INTO t VALUES (9)");
            match &appended {
                Ok(lsn) => assert!(*lsn > top, "{}: appended LSN {lsn} after {top}", ctx()),
                Err(_) => assert_eq!(top, u64::MAX - 1, "{}: a refused append", ctx()),
            }
            drop(wal);
            let (_, again) = Wal::open(&path, 1).unwrap();
            let grown = usize::from(appended.is_ok());
            assert_eq!(again.records.len(), scan.records.len() + grown, "{}", ctx());
        }
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("WAL_FUZZ_SEED").ok().map(|s| s.parse().expect("numeric seed"));
    (1..=10u64).chain(extra)
}

#[test]
fn damaged_batches_under_valid_checksums_are_all_or_nothing() {
    seeds().for_each(fuzz_seed);
}
