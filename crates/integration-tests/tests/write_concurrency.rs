//! The concurrent write path, end to end: group-commit durability under
//! torn-tail crashes, and snapshot-isolation visibility under writer/scan
//! interleavings.
//!
//! Two suites:
//!
//! 1. **Kill-at-every-byte recovery.** A WAL holding several group-committed
//!    batches is truncated at *every* possible byte length; each truncation
//!    must recover to a committed batch prefix — all statements of a batch
//!    or none of them, never a partial batch — and the recovered image must
//!    equal replaying exactly that prefix.
//!
//! 2. **Seeded 200-query differential.** Writers churn invariant-preserving
//!    multi-row inserts through the group-commit pipeline while a reader
//!    runs 200 seeded queries; every answer must correspond to a whole
//!    number of atomically applied statements (no torn rows, no phantom
//!    half-commits).

use std::sync::Arc;

use astore_persist::store;
use astore_persist::wal::Wal;
use astore_server::json::Json;
use astore_server::Engine;
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("astore-wconc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db() -> Database {
    let mut t = Table::new(
        "t",
        Schema::new(vec![ColumnDef::new("g", DataType::I64), ColumnDef::new("v", DataType::I64)]),
    );
    for i in 0..4i64 {
        t.append_row(&[Value::Int(i % 2), Value::Int(0)]);
    }
    let mut db = Database::new();
    db.add_table(t);
    db
}

fn count_rows(db: &Database) -> usize {
    db.table("t").unwrap().num_live()
}

#[test]
fn every_byte_truncation_recovers_a_committed_batch_prefix() {
    let dir = tmpdir("everybyte");
    let mut wal = store::bootstrap(&dir, &seed_db()).unwrap();
    // Three group-committed batches of different sizes. Each INSERT adds
    // one row, so the recovered row count identifies the replayed prefix.
    let batches: &[&[&str]] = &[
        &["INSERT INTO t VALUES (0, 1)", "INSERT INTO t VALUES (1, 2)"],
        &["INSERT INTO t VALUES (0, 3)"],
        &[
            "INSERT INTO t VALUES (1, 4)",
            "INSERT INTO t VALUES (0, 5)",
            "INSERT INTO t VALUES (1, 6)",
        ],
    ];
    for batch in batches {
        wal.append_batch(batch).unwrap();
    }
    drop(wal);

    let wal_bytes = std::fs::read(store::wal_path(&dir)).unwrap();
    let snap_bytes = std::fs::read(store::snapshot_path(&dir)).unwrap();
    // Row counts a crash may legally recover to: seed + a batch prefix.
    let base = 4usize;
    let legal: Vec<usize> = vec![base, base + 2, base + 3, base + 6];

    let crash = tmpdir("everybyte-crash");
    std::fs::create_dir_all(&crash).unwrap();
    std::fs::write(store::snapshot_path(&crash), &snap_bytes).unwrap();
    for cut in 0..=wal_bytes.len() {
        std::fs::write(store::wal_path(&crash), &wal_bytes[..cut]).unwrap();
        let rec = store::open(&crash).unwrap();
        let n = count_rows(&rec.db);
        assert!(
            legal.contains(&n),
            "cut at byte {cut}/{} recovered {n} rows — a partial batch",
            wal_bytes.len()
        );
        // The replayed count must match the row delta exactly: nothing
        // double-applied, nothing skipped.
        assert_eq!(rec.replayed, n - base, "cut at byte {cut}");
    }
    // The full file recovers everything.
    std::fs::write(store::wal_path(&crash), &wal_bytes).unwrap();
    let rec = store::open(&crash).unwrap();
    assert_eq!(count_rows(&rec.db), base + 6);
    assert!(!rec.truncated_tail);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crash).unwrap();
}

#[test]
fn torn_batch_lsns_stay_contiguous_after_recovery() {
    // Recovery from a torn tail must leave the WAL positioned so the next
    // batch continues the LSN sequence — a gap or overlap would let a later
    // checkpoint skip or double-replay records.
    let dir = tmpdir("lsncont");
    let mut wal = store::bootstrap(&dir, &seed_db()).unwrap();
    let first =
        wal.append_batch(&["INSERT INTO t VALUES (0, 1)", "INSERT INTO t VALUES (1, 2)"]).unwrap();
    assert_eq!(first, 1);
    drop(wal);
    // Tear mid-batch: drop the last byte.
    let path = store::wal_path(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed, 0, "torn batch discarded whole");
    assert!(rec.truncated_tail);
    let mut wal = rec.wal;
    let next = wal.append_batch(&["INSERT INTO t VALUES (0, 9)"]).unwrap();
    assert_eq!(next, 1, "LSN 1 reissued after the torn batch was discarded");
    drop(wal);
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed, 1);
    assert_eq!(count_rows(&rec.db), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_batches_survive_reopen_roundtrip() {
    // Plain Wal-level check in the same shapes the engine writes: reopen
    // sees one record per statement with consecutive LSNs.
    let dir = tmpdir("reopen");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.wal");
    let (mut wal, _) = Wal::open(&path, 1).unwrap();
    wal.append_batch(&["INSERT INTO t VALUES (0, 1)", "INSERT INTO t VALUES (1, 2)"]).unwrap();
    wal.append("INSERT INTO t VALUES (0, 3)").unwrap();
    drop(wal);
    let (_, scan) = Wal::open(&path, 1).unwrap();
    let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, vec![1, 2, 3]);
    assert!(!scan.torn);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The seeded differential: every statement a writer commits preserves
/// `sum(v) == 0` and an even live-row count in table `t`; a reader that
/// ever observes either invariant broken has seen a torn statement or a
/// phantom half-commit.
#[test]
fn seeded_200_query_differential_under_concurrent_writers() {
    let engine = Arc::new(Engine::new(SharedDatabase::new(seed_db())));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sql =
        |e: &Engine, s: &str| e.handle_line(&Json::obj([("sql", Json::Str(s.into()))]).to_string());

    std::thread::scope(|s| {
        for w in 0..3u64 {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xA570 + w);
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let g = rng.gen_range(0..4i64);
                    let d = rng.gen_range(1..100i64);
                    // One statement, two rows, sums to zero: atomic or absent.
                    let r =
                        sql(&engine, &format!("INSERT INTO t VALUES ({g}, {d}), ({g}, {})", -d));
                    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                }
            });
        }

        // The writers stop when the reader is done — also when it is done
        // by panicking, or the scope would wait on them forever.
        struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let _stop = StopOnDrop(&stop);
        let mut rng = SmallRng::seed_from_u64(0xA57E);
        for q in 0..200 {
            let (query, check): (String, fn(i64) -> bool) = match rng.gen_range(0..3u32) {
                0 => ("SELECT sum(v) AS s FROM t".into(), |s| s == 0),
                1 => ("SELECT count(*) AS n FROM t".into(), |n| n % 2 == 0),
                _ => {
                    let g = rng.gen_range(0..4i64);
                    (format!("SELECT sum(v) AS s FROM t WHERE g = {g}"), |s| s == 0)
                }
            };
            let r = sql(&engine, &query);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "query {q}: {r:?}");
            // A group nobody has written to yet (the seed rows cover g = 0
            // and 1 only) selects nothing and aggregates to no row at all.
            let got = r
                .get("rows")
                .unwrap()
                .as_array()
                .unwrap()
                .first()
                .map_or(0, |row| row.as_array().unwrap()[0].as_i64().unwrap_or(0));
            assert!(check(got), "query {q} ({query}) observed a torn commit: {got}");
        }
    });

    use std::sync::atomic::Ordering::Relaxed;
    let stats = engine.stats();
    assert_eq!(stats.errors.load(Relaxed), 0);
    assert!(stats.writes.load(Relaxed) > 0);
    assert!(stats.group_commits.load(Relaxed) > 0);
    // Final ground truth straight from storage.
    let snap = engine.database().snapshot();
    let t = snap.table("t").unwrap();
    let sum: i64 = (0..t.num_slots() as u32)
        .filter(|&r| t.is_live(r))
        .map(|r| t.row(r)[1].as_int().unwrap())
        .sum();
    assert_eq!(sum, 0);
}
