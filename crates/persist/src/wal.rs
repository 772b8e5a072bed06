//! The write-ahead log.
//!
//! Append-only file of CRC-framed records, one per committed write
//! *batch* (group commit: every statement the leader drained in one turn).
//! Each statement carries a monotonically increasing log sequence number
//! (LSN); the snapshot header records the last LSN folded into it, so
//! replay after a checkpoint race skips records the snapshot already
//! contains instead of double-applying them.
//!
//! ## Layout (version 2, little-endian)
//!
//! ```text
//! header   "ASTOREWL" + u32 version                 (12 bytes)
//! record*:
//!   len    u32    body length in bytes
//!   crc    u32    CRC-32 of the body
//!   body   u64 first LSN + u32 count
//!          + count × (u32 len + statement SQL text, UTF-8)
//! ```
//!
//! Statement `i` of a batch has LSN `first + i`. Version-1 files (one
//! statement per record, body = `u64 LSN + SQL`) are still read, and
//! [`Wal::open`] upgrades them to version 2 in place via atomic rename.
//!
//! A record *commits* by being fully written and fsynced — the whole batch
//! or nothing: the CRC covers the full body, so a crash mid-batch fails the
//! checksum and recovery never surfaces a partial batch. Reading stops at
//! the first frame that is truncated, oversized, checksum-mismatched, not
//! UTF-8 or malformed (a body that does not parse, or LSNs that would run
//! past `u64::MAX` — the log could never append after them) — everything
//! before it is the committed prefix, everything from it on is a torn tail
//! that [`Wal::open`] truncates away. Recovery therefore always yields a
//! prefix of the acknowledged write batches, no matter where in a byte
//! stream the crash landed.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::crc::crc32;
use crate::wire::{put_u32, put_u64};
use crate::PersistError;

/// File magic of the WAL format.
pub const WAL_MAGIC: &[u8; 8] = b"ASTOREWL";

/// Current WAL format version (batched records; see the module docs).
pub const WAL_VERSION: u32 = 2;

const HEADER_LEN: usize = 12;

/// Upper bound on one record body; larger length prefixes are treated as
/// corruption (they would otherwise drive a huge allocation).
pub const MAX_RECORD_BYTES: usize = 1 << 24;

/// One committed WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The logged statement text.
    pub sql: String,
}

/// The committed prefix of a WAL byte stream.
#[derive(Debug)]
pub struct WalScan {
    /// Committed records, in commit order.
    pub records: Vec<WalRecord>,
    /// Byte offset one past the last committed record — the length a
    /// torn-tail truncation should cut the file to.
    pub committed_len: usize,
    /// `true` if bytes after `committed_len` were ignored (torn tail or
    /// corrupt record).
    pub torn: bool,
}

/// Decodes a WAL byte stream into its committed prefix. Never panics on any
/// input; a missing/bad header yields an empty scan at offset
/// `committed_len == 0` with `torn` set (so opening truncates to a fresh
/// header).
pub fn scan_wal(bytes: &[u8]) -> WalScan {
    let version = wal_header_version(bytes);
    if !matches!(version, Some(1 | 2)) {
        return WalScan { records: Vec::new(), committed_len: 0, torn: !bytes.is_empty() };
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return WalScan { records, committed_len: pos, torn: false };
        }
        if rest.len() < 8 {
            return WalScan { records, committed_len: pos, torn: true };
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if !(8..=MAX_RECORD_BYTES).contains(&len) || rest.len() < 8 + len {
            return WalScan { records, committed_len: pos, torn: true };
        }
        let body = &rest[8..8 + len];
        if crc32(body) != crc {
            return WalScan { records, committed_len: pos, torn: true };
        }
        if version == Some(1) {
            let lsn = u64::from_le_bytes(body[..8].try_into().unwrap());
            let (Ok(sql), Some(_)) = (std::str::from_utf8(&body[8..]), lsn.checked_add(1)) else {
                return WalScan { records, committed_len: pos, torn: true };
            };
            records.push(WalRecord { lsn, sql: sql.to_owned() });
        } else {
            // The CRC passed, so a malformed batch body means a buggy
            // writer, not a torn write — but the safe answer is the same:
            // stop before it, all of the batch or none of it.
            let Some(batch) = parse_batch_body(body) else {
                return WalScan { records, committed_len: pos, torn: true };
            };
            records.extend(batch);
        }
        pos += 8 + len;
    }
}

/// The version field of a WAL header, if the magic matches.
fn wal_header_version(bytes: &[u8]) -> Option<u32> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != WAL_MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(bytes[8..12].try_into().unwrap()))
}

/// Decodes one version-2 batch body into per-statement records, or `None`
/// if the structure is malformed — which includes LSNs `first..first +
/// count` that do not fit in a `u64`.
fn parse_batch_body(body: &[u8]) -> Option<Vec<WalRecord>> {
    if body.len() < 12 {
        return None;
    }
    let first = u64::from_le_bytes(body[..8].try_into().unwrap());
    let count = u32::from_le_bytes(body[8..12].try_into().unwrap());
    first.checked_add(u64::from(count))?;
    let mut out = Vec::with_capacity((count as usize).min(1024));
    let mut pos = 12usize;
    for lsn in first..first + u64::from(count) {
        let len_end = pos.checked_add(4)?;
        let len = u32::from_le_bytes(body.get(pos..len_end)?.try_into().unwrap()) as usize;
        let sql_end = len_end.checked_add(len)?;
        let sql = std::str::from_utf8(body.get(len_end..sql_end)?).ok()?;
        out.push(WalRecord { lsn, sql: sql.to_owned() });
        pos = sql_end;
    }
    if pos != body.len() {
        return None;
    }
    Some(out)
}

/// Frames one batch record (`first_lsn` + the statements) onto `out`.
/// The caller is responsible for the [`MAX_RECORD_BYTES`] bound.
fn frame_batch(out: &mut Vec<u8>, first_lsn: u64, sqls: &[impl AsRef<str>]) {
    let body_len = 12 + sqls.iter().map(|s| 4 + s.as_ref().len()).sum::<usize>();
    let mut body = Vec::with_capacity(body_len);
    put_u64(&mut body, first_lsn);
    put_u32(&mut body, sqls.len() as u32);
    for s in sqls {
        let s = s.as_ref().as_bytes();
        put_u32(&mut body, s.len() as u32);
        body.extend_from_slice(s);
    }
    put_u32(out, body.len() as u32);
    put_u32(out, crc32(&body));
    out.extend_from_slice(&body);
}

/// An open write-ahead log: appends commit records, fsyncing each one.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    next_lsn: u64,
    /// Records the log holds (checkpoint pressure).
    record_count: u64,
    /// Time the last append spent in `fsync` (zero without one).
    last_fsync: Duration,
    /// `false` disables the per-record fsync (tests and bulk loads only —
    /// the durability guarantee needs it on).
    pub sync_on_commit: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path`, scans the committed prefix,
    /// truncates any torn tail, and positions for appending. `min_next_lsn`
    /// is the floor for the next LSN (pass `snapshot_lsn + 1` so fresh
    /// records never collide with ones already folded into the snapshot).
    ///
    /// Returns the log and the scan of the committed records found.
    pub fn open(path: impl AsRef<Path>, min_next_lsn: u64) -> Result<(Wal, WalScan), PersistError> {
        let path = path.as_ref().to_path_buf();
        // Never truncate here: the existing committed prefix is the data.
        #[allow(clippy::suspicious_open_options)]
        let mut file = OpenOptions::new().read(true).write(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let scan = scan_wal(&bytes);
        if scan.committed_len == 0 {
            // Empty or headerless file: (re)write a fresh header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(WAL_MAGIC);
            put_u32(&mut header, WAL_VERSION);
            file.write_all(&header)?;
            file.sync_all()?;
        } else if wal_header_version(&bytes) == Some(1) {
            // Version-1 file with committed records: upgrade in place by
            // re-framing each record as a single-statement batch (same
            // LSNs), written to a sibling and atomically renamed over the
            // original. Any torn tail is dropped by the rewrite.
            let mut out = Vec::with_capacity(bytes.len() + 4 * scan.records.len() + 16);
            out.extend_from_slice(WAL_MAGIC);
            put_u32(&mut out, WAL_VERSION);
            for rec in &scan.records {
                frame_batch(&mut out, rec.lsn, std::slice::from_ref(&rec.sql));
            }
            file = replace_wal_file(&path, &out)?;
        } else if scan.torn {
            file.set_len(scan.committed_len as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        // `scan_wal` keeps no record whose LSN + 1 overflows.
        let max_lsn = scan.records.iter().map(|r| r.lsn).max().unwrap_or(0);
        let wal = Wal {
            file,
            path,
            next_lsn: min_next_lsn.max(max_lsn + 1),
            record_count: scan.records.len() as u64,
            last_fsync: Duration::ZERO,
            sync_on_commit: true,
        };
        Ok((wal, scan))
    }

    /// The path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The LSN the next appended record will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The LSN of the last appended record (0 if none since the snapshot).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Records the log holds: those found on open, plus those appended
    /// since, minus those a [`Wal::truncate_through`] dropped — the
    /// checkpoint-pressure gauge.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Time the last successful append spent waiting for `fsync` — zero
    /// when it ran without one ([`Wal::sync_on_commit`] off).
    pub fn last_fsync(&self) -> Duration {
        self.last_fsync
    }

    /// Appends one committed statement and (by default) fsyncs. Returns the
    /// record's LSN. The record is durable when this returns `Ok`.
    pub fn append(&mut self, sql: &str) -> Result<u64, PersistError> {
        self.append_batch(std::slice::from_ref(&sql))
    }

    /// Appends a group-committed batch — one write + **one fsync** for the
    /// whole batch, the amortization that lets write throughput scale with
    /// concurrent committers. Statement `i` gets LSN `first + i`; the first
    /// LSN is returned. Every statement is durable when this returns `Ok`.
    ///
    /// Oversized batches are split greedily into multiple records (each
    /// still atomic and within [`MAX_RECORD_BYTES`], still one fsync for
    /// all of them); a single statement too large for one record errors,
    /// and so does a batch whose LSNs would run past `u64::MAX` (it could
    /// not be read back). An empty batch is a no-op.
    pub fn append_batch<S: AsRef<str>>(&mut self, sqls: &[S]) -> Result<u64, PersistError> {
        let first = self.next_lsn;
        if sqls.is_empty() {
            return Ok(first);
        }
        let Some(next) = first.checked_add(sqls.len() as u64) else {
            return Err(PersistError::Corrupt(format!(
                "{} statements after LSN {first} exhaust the log's sequence numbers",
                sqls.len()
            )));
        };
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < sqls.len() {
            let mut end = start;
            let mut body_len = 12usize;
            while end < sqls.len() {
                let add = 4 + sqls[end].as_ref().len();
                if body_len + add > MAX_RECORD_BYTES {
                    break;
                }
                body_len += add;
                end += 1;
            }
            if end == start {
                return Err(PersistError::Corrupt(format!(
                    "statement of {} bytes exceeds the {} byte record limit",
                    sqls[start].as_ref().len(),
                    MAX_RECORD_BYTES
                )));
            }
            frame_batch(&mut out, first + start as u64, &sqls[start..end]);
            start = end;
        }
        self.file.write_all(&out)?;
        self.last_fsync = Duration::ZERO;
        if self.sync_on_commit {
            let t0 = Instant::now();
            self.file.sync_data()?;
            self.last_fsync = t0.elapsed();
        }
        self.next_lsn = next;
        self.record_count += sqls.len() as u64;
        Ok(first)
    }

    /// Truncates the log to only the records with LSN > `checkpoint_lsn`,
    /// after a checkpoint whose snapshot folded in everything up to it.
    /// Checkpoints run *concurrently* with committers, so writes that
    /// landed after the checkpoint fixed its snapshot survive. LSNs keep
    /// counting up from where they were — they never restart, which is
    /// what makes stale WAL bytes after a crashed checkpoint harmless.
    /// Survivors are re-framed as single-statement
    /// batches (a group-committed batch may straddle the checkpoint LSN)
    /// and the file is replaced by atomic rename, so a crash at any point
    /// leaves either the old or the new committed prefix.
    pub fn truncate_through(&mut self, checkpoint_lsn: u64) -> Result<(), PersistError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        self.file.read_to_end(&mut bytes)?;
        let scan = scan_wal(&bytes);
        let keep: Vec<&WalRecord> =
            scan.records.iter().filter(|r| r.lsn > checkpoint_lsn).collect();
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(WAL_MAGIC);
        put_u32(&mut out, WAL_VERSION);
        for rec in &keep {
            frame_batch(&mut out, rec.lsn, std::slice::from_ref(&rec.sql));
        }
        self.file = replace_wal_file(&self.path, &out)?;
        self.file.seek(SeekFrom::End(0))?;
        self.next_lsn = self.next_lsn.max(checkpoint_lsn + 1);
        self.record_count = keep.len() as u64;
        Ok(())
    }
}

/// Atomically replaces the WAL at `path` with `contents` (write sibling,
/// fsync, rename) and returns a fresh read/write handle to it.
fn replace_wal_file(path: &Path, contents: &[u8]) -> Result<File, PersistError> {
    let tmp = path.with_extension("wal.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    file.sync_all()?;
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A per-test scratch directory, removed on drop so the suite leaves
    /// nothing behind in `$TMPDIR` (CI asserts this).
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("astore-wal-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn file(&self) -> PathBuf {
            self.0.join("test.wal")
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.file();
        let (mut wal, scan) = Wal::open(&path, 1).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(wal.append("INSERT INTO t VALUES (1)").unwrap(), 1);
        assert_eq!(wal.append("DELETE FROM t WHERE rowid = 0").unwrap(), 2);
        drop(wal);
        let (wal, scan) = Wal::open(&path, 1).unwrap();
        let records = scan.records;
        assert!(!scan.torn);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], WalRecord { lsn: 1, sql: "INSERT INTO t VALUES (1)".into() });
        assert_eq!(records[1].lsn, 2);
        assert_eq!(wal.next_lsn(), 3, "next LSN continues after the committed tail");
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let scratch = Scratch::new("torn");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        wal.append("INSERT INTO t VALUES (2)").unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Cut the file anywhere inside the second record.
        let scan = scan_wal(&full);
        assert_eq!(scan.records.len(), 2);
        let first_end = {
            let one_cut = scan_wal(&full[..full.len() - 1]);
            assert!(one_cut.torn);
            one_cut.committed_len
        };
        std::fs::write(&path, &full[..first_end + 3]).unwrap();
        let (wal, scan) = Wal::open(&path, 1).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1, "torn second record dropped");
        assert_eq!(std::fs::metadata(wal.path()).unwrap().len() as usize, first_end);
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let scratch = Scratch::new("crc");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        wal.append("INSERT INTO t VALUES (2)").unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1; // inside record 2's payload
        bytes[last] ^= 0xFF;
        let scan = scan_wal(&bytes);
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn scan_never_panics_on_arbitrary_prefixes_and_flips() {
        let scratch = Scratch::new("fuzz");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        for i in 0..5 {
            wal.append(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            assert!(scan.committed_len <= cut);
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = scan_wal(&bad); // must not panic
        }
    }

    #[test]
    fn batch_append_scan_roundtrip() {
        let scratch = Scratch::new("batch");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        let sqls: Vec<String> = (0..5).map(|i| format!("INSERT INTO t VALUES ({i})")).collect();
        assert_eq!(wal.append_batch(&sqls).unwrap(), 1, "first LSN of the batch");
        assert_eq!(wal.next_lsn(), 6);
        assert_eq!(wal.record_count(), 5);
        assert_eq!(wal.append("INSERT INTO t VALUES (99)").unwrap(), 6);
        assert_eq!(wal.append_batch::<&str>(&[]).unwrap(), 7, "empty batch is a no-op");
        assert_eq!(wal.next_lsn(), 7);
        drop(wal);
        let (_, scan) = Wal::open(&path, 1).unwrap();
        assert!(!scan.torn);
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5, 6], "per-statement LSNs from batch frames");
        assert_eq!(scan.records[4].sql, "INSERT INTO t VALUES (4)");
    }

    #[test]
    fn torn_batch_recovers_committed_prefix_never_a_partial_batch() {
        // Kill-at-every-byte over group-committed batches: wherever the
        // file is cut, the scan must yield exactly the records of the
        // complete leading batches — a batch is all-or-nothing.
        let scratch = Scratch::new("tornbatch");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        let batches: [&[&str]; 3] = [
            &["INSERT INTO t VALUES (1)", "UPDATE t SET v = 2 WHERE rowid = 0"],
            &["INSERT INTO t VALUES (3)"],
            &[
                "DELETE FROM t WHERE rowid = 1",
                "INSERT INTO t VALUES (4)",
                "INSERT INTO t VALUES (5)",
            ],
        ];
        for b in batches {
            wal.append_batch(b).unwrap();
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        // Valid record-count prefixes: batch boundaries only.
        let valid: [usize; 4] = [0, 2, 3, 6];
        for cut in 0..=bytes.len() {
            let scan = scan_wal(&bytes[..cut]);
            assert!(
                valid.contains(&scan.records.len()),
                "cut at {cut} surfaced a partial batch ({} records)",
                scan.records.len()
            );
            // The prefix property: records are exactly the first N.
            for (i, r) in scan.records.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1);
            }
        }
        // Bit flips anywhere must never panic and never surface a partial
        // batch either (the CRC covers the whole body).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let scan = scan_wal(&bad);
            assert!(valid.iter().any(|&v| v >= scan.records.len()));
        }
    }

    #[test]
    fn v1_files_upgrade_to_v2_on_open() {
        let scratch = Scratch::new("v1up");
        let path = scratch.file();
        // Hand-build a version-1 file: header + two single-statement
        // records in the old body layout (u64 LSN + SQL).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(WAL_MAGIC);
        put_u32(&mut bytes, 1);
        for (lsn, sql) in [(1u64, "INSERT INTO t VALUES (1)"), (2, "INSERT INTO t VALUES (2)")] {
            let mut body = Vec::new();
            put_u64(&mut body, lsn);
            body.extend_from_slice(sql.as_bytes());
            put_u32(&mut bytes, body.len() as u32);
            put_u32(&mut bytes, crc32(&body));
            bytes.extend_from_slice(&body);
        }
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, scan) = Wal::open(&path, 1).unwrap();
        assert_eq!(scan.records.len(), 2, "v1 records read during upgrade");
        assert_eq!(scan.records[1].lsn, 2);
        assert_eq!(wal.next_lsn(), 3);
        wal.append("INSERT INTO t VALUES (3)").unwrap();
        drop(wal);
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(
            u32::from_le_bytes(rewritten[8..12].try_into().unwrap()),
            WAL_VERSION,
            "file is version 2 after the upgrade"
        );
        let (_, scan) = Wal::open(&path, 1).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn truncate_through_keeps_later_records() {
        let scratch = Scratch::new("truncthrough");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        // One batch straddles the checkpoint LSN: statements 1-3, then 4-5.
        wal.append_batch(&["a", "b", "c"]).unwrap();
        wal.append_batch(&["d", "e"]).unwrap();
        // Checkpoint folded in LSNs ≤ 4 — the second batch is split.
        wal.truncate_through(4).unwrap();
        assert_eq!(wal.record_count(), 1);
        assert_eq!(wal.next_lsn(), 6, "next LSN unchanged (5 is still live)");
        let lsn = wal.append("f").unwrap();
        assert_eq!(lsn, 6);
        drop(wal);
        let (_, scan) = Wal::open(&path, 1).unwrap();
        assert_eq!(
            scan.records.iter().map(|r| (r.lsn, r.sql.as_str())).collect::<Vec<_>>(),
            vec![(5, "e"), (6, "f")],
            "only post-checkpoint statements survive, LSNs preserved"
        );
        // A checkpoint that folded in every record leaves an empty log,
        // and LSNs still never restart.
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.truncate_through(6).unwrap();
        assert_eq!(wal.record_count(), 0);
        assert_eq!(wal.append("g").unwrap(), 7);
    }

    #[test]
    fn a_batch_whose_lsns_would_pass_u64_max_is_a_torn_tail() {
        // CRC-valid records whose LSNs end at or run past u64::MAX: the
        // first LSN plus the statement count used to overflow in the scan
        // (a panic in debug builds, wrapped LSNs in release) and the
        // highest LSN + 1 in `Wal::open`. Now they are malformed: the scan
        // stops before them, open truncates them away and keeps appending.
        let scratch = Scratch::new("lsnmax");
        let path = scratch.file();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        drop(wal);
        let good = std::fs::read(&path).unwrap();
        let batch = |first: u64, sqls: &[&str]| {
            let mut out = Vec::new();
            frame_batch(&mut out, first, sqls);
            out
        };
        for tail in [
            batch(u64::MAX - 1, &["a", "b", "c"]),
            batch(u64::MAX, &["a"]),
            batch(u64::MAX - 2, &["a", "b", "c"]),
        ] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&tail);
            let scan = scan_wal(&bytes);
            assert!(scan.torn);
            assert_eq!(scan.records.len(), 1, "the committed prefix only");
            assert_eq!(scan.committed_len, good.len());
            std::fs::write(&path, &bytes).unwrap();
            let (mut wal, scan) = Wal::open(&path, 1).unwrap();
            assert_eq!(scan.records.len(), 1);
            assert_eq!(wal.append("INSERT INTO t VALUES (2)").unwrap(), 2);
        }
        // The last representable batch still reads: LSNs up to u64::MAX − 1.
        // After it the sequence is exhausted: an append is refused rather
        // than written as a record no scan would keep.
        let mut bytes = good.clone();
        bytes.extend_from_slice(&batch(u64::MAX - 2, &["a", "b"]));
        let scan = scan_wal(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.records.last().unwrap().lsn, u64::MAX - 1);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, _) = Wal::open(&path, 1).unwrap();
        assert!(wal.append("INSERT INTO t VALUES (3)").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing written");
        // In the version-1 layout, a record at LSN u64::MAX is malformed.
        let mut v1 = Vec::new();
        v1.extend_from_slice(WAL_MAGIC);
        put_u32(&mut v1, 1);
        for lsn in [7, u64::MAX] {
            let mut body = Vec::new();
            put_u64(&mut body, lsn);
            body.extend_from_slice(b"INSERT INTO t VALUES (1)");
            put_u32(&mut v1, body.len() as u32);
            put_u32(&mut v1, crc32(&body));
            v1.extend_from_slice(&body);
        }
        let scan = scan_wal(&v1);
        assert!(scan.torn);
        assert_eq!(scan.records.iter().map(|r| r.lsn).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn garbage_file_reinitializes() {
        let scratch = Scratch::new("garbage");
        let path = scratch.file();
        std::fs::write(&path, b"not a wal at all").unwrap();
        let (mut wal, scan) = Wal::open(&path, 5).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(wal.next_lsn(), 5);
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        drop(wal);
        let (_, scan) = Wal::open(&path, 1).unwrap();
        assert_eq!(scan.records.len(), 1);
    }
}
