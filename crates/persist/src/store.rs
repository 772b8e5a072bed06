//! Data-directory orchestration: snapshot + WAL as one restartable unit.
//!
//! A data directory holds exactly two files:
//!
//! ```text
//! <dir>/db.snapshot   the last checkpointed database image
//! <dir>/db.wal        committed writes since that checkpoint
//! ```
//!
//! The lifecycle is: [`bootstrap`] once (seed database → snapshot + empty
//! WAL), then [`open`] on every boot (load snapshot, replay the WAL's
//! committed prefix through [`crate::apply`], truncate any torn tail), and
//! [`checkpoint`] whenever the WAL has grown enough to be worth folding
//! back into the snapshot. Checkpointing is crash-safe in both directions:
//! the snapshot is replaced by atomic rename, and because replay skips
//! records with LSN ≤ the snapshot's header LSN, a crash *between* the
//! rename and the WAL reset merely leaves stale records that the next boot
//! ignores.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use astore_sql::statement::parse_statement;
use astore_storage::catalog::Database;

use crate::apply::apply_statement;
use crate::snapshot::{
    index_snapshot_segments, load_snapshot_with_lsn, save_snapshot_with_lsn, write_snapshot_file,
};
use crate::wal::Wal;
use crate::PersistError;

/// Snapshot file name inside a data directory.
pub const SNAPSHOT_FILE: &str = "db.snapshot";
/// WAL file name inside a data directory.
pub const WAL_FILE: &str = "db.wal";

/// A database recovered (or bootstrapped) from a data directory, plus the
/// open WAL ready for new appends.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered database image.
    pub db: Database,
    /// The open log; new writes append here.
    pub wal: Wal,
    /// WAL records replayed on top of the snapshot.
    pub replayed: usize,
    /// `true` if a torn tail was truncated during recovery.
    pub truncated_tail: bool,
    /// Time spent loading the snapshot …
    pub snapshot_time: Duration,
    /// … and opening the WAL and replaying its records on top.
    pub replay_time: Duration,
}

/// The snapshot path inside `dir`.
pub fn snapshot_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(SNAPSHOT_FILE)
}

/// The WAL path inside `dir`.
pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(WAL_FILE)
}

/// Returns `true` if `dir` holds a snapshot to recover from.
pub fn is_initialized(dir: impl AsRef<Path>) -> bool {
    snapshot_path(dir).is_file()
}

/// Initializes a data directory from a seed database: writes the initial
/// snapshot and an empty WAL. Any pre-existing files are replaced.
pub fn bootstrap(dir: impl AsRef<Path>, db: &Database) -> Result<Wal, PersistError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    // Drop a stale WAL *before* the snapshot lands so a crash in between
    // cannot pair the new snapshot with old records. (Their LSNs ≤ the new
    // header LSN would be skipped anyway; this keeps the directory tidy.)
    let _ = std::fs::remove_file(wal_path(dir));
    save_snapshot_with_lsn(db, snapshot_path(dir), 0)?;
    let (wal, _) = Wal::open(wal_path(dir), 1)?;
    Ok(wal)
}

/// Recovers the database from `dir`: loads the snapshot, replays every
/// committed WAL record newer than the snapshot, truncates any torn tail.
/// Reports the time each of the two stages took.
pub fn open(dir: impl AsRef<Path>) -> Result<Recovered, PersistError> {
    let dir = dir.as_ref();
    let started = Instant::now();
    let (mut db, snapshot_lsn) = load_snapshot_with_lsn(snapshot_path(dir))?;
    let snapshot_time = started.elapsed();
    let next_lsn = snapshot_lsn.checked_add(1).ok_or_else(|| {
        PersistError::Corrupt("snapshot folds in LSN u64::MAX; no record can follow".into())
    })?;
    let (wal, scan) = Wal::open(wal_path(dir), next_lsn)?;
    let mut replayed = 0usize;
    for rec in &scan.records {
        if rec.lsn <= snapshot_lsn {
            // Already folded into the snapshot by a checkpoint that crashed
            // before resetting the log.
            continue;
        }
        let stmt = parse_statement(&rec.sql).map_err(|e| {
            PersistError::Corrupt(format!("WAL record {} does not parse: {e}", rec.lsn))
        })?;
        apply_statement(&mut db, &stmt).map_err(|e| {
            PersistError::Corrupt(format!("WAL record {} failed to apply: {e}", rec.lsn))
        })?;
        replayed += 1;
    }
    Ok(Recovered {
        db,
        wal,
        replayed,
        truncated_tail: scan.torn,
        snapshot_time,
        replay_time: started.elapsed() - snapshot_time,
    })
}

/// Folds the current database image into a fresh snapshot and resets the
/// WAL. `last_lsn` must be the LSN of the last record applied to `db`
/// (i.e. [`Wal::last_lsn`] at the moment `db` was fixed). Returns the
/// snapshot size in bytes.
///
/// The checkpoint is **incremental at segment granularity**: segments not
/// mutated since `db` was loaded from (or last checkpointed to) this data
/// directory are byte-copied from the existing snapshot file instead of
/// re-encoded — the output is byte-identical either way because encoding is
/// deterministic. Afterwards every segment is marked clean, making the new
/// file the reuse baseline for the next checkpoint. Because the clean flags
/// are relative to *this directory's* snapshot, `db` must be a database
/// that was opened from (or bootstrapped into) `dir`.
///
/// The caller must hold the database still for the duration (the serving
/// layer runs this inside its write latch).
pub fn checkpoint(
    dir: impl AsRef<Path>,
    db: &mut Database,
    wal: &mut Wal,
) -> Result<usize, PersistError> {
    let dir = dir.as_ref();
    let last = wal.last_lsn();
    // Seal before encoding so the snapshot persists the compressed segment
    // form (newly sealed segments come out dirty and re-encode; segments
    // sealed by an earlier checkpoint stay clean and byte-reuse). A table
    // shared with in-flight readers is cloned first — pointer bumps, not
    // row data — so readers never delay a seal.
    for name in db.table_names().to_vec() {
        db.table_mut(&name).expect("listed table exists").seal_segments();
    }
    let bytes = write_checkpoint(dir, db, last)?;
    wal.reset(last)?;
    for name in db.table_names().to_vec() {
        db.table_mut(&name).expect("listed table exists").mark_segments_clean();
    }
    Ok(bytes)
}

/// The encode-and-write half of a checkpoint, usable from a *shared*
/// snapshot: folds `db` into `<dir>/db.snapshot` stamped with `last_lsn`
/// (incremental at segment granularity against the previous file) and
/// returns the snapshot size in bytes. Touches neither the WAL nor the
/// tables' clean flags — the caller sequences those (see
/// [`checkpoint`] for the embedded one-latch variant; the server runs this
/// from a COW snapshot outside its commit lock and then truncates the WAL
/// and marks segments clean in two brief latched phases).
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    db: &Database,
    last_lsn: u64,
) -> Result<usize, PersistError> {
    let sample = crate::metrics::TimedSample::start();
    let path = snapshot_path(dir);
    // The previous file, indexed by block — its blocks are read one at a
    // time as they are copied, never the whole file at once.
    let prev = std::fs::File::open(&path).ok().and_then(index_snapshot_segments);
    let (bytes, _reused) = write_snapshot_file(&path, db, last_lsn, prev)?;
    use std::sync::atomic::Ordering;
    crate::metrics::checkpoints_total().fetch_add(1, Ordering::Relaxed);
    crate::metrics::checkpoint_bytes_total().fetch_add(bytes as u64, Ordering::Relaxed);
    sample.stop(crate::metrics::checkpoint_us_total());
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::table::{ColumnDef, Schema, Table};
    use astore_storage::types::{DataType, Value};

    fn seed() -> Database {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        for i in 0..3 {
            t.append_row(&[Value::Int(i)]);
        }
        let mut db = Database::new();
        db.add_table(t);
        db
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("astore-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sum(db: &Database) -> i64 {
        let t = db.table("t").unwrap();
        (0..t.num_slots() as u32)
            .filter(|&r| t.is_live(r))
            .map(|r| t.row(r)[0].as_int().unwrap())
            .sum()
    }

    #[test]
    fn bootstrap_then_open_roundtrip() {
        let dir = tmpdir("boot");
        assert!(!is_initialized(&dir));
        let mut wal = bootstrap(&dir, &seed()).unwrap();
        assert!(is_initialized(&dir));
        wal.append("INSERT INTO t VALUES (10)").unwrap();
        wal.append("UPDATE t SET v = 100 WHERE rowid = 0").unwrap();
        drop(wal);
        let rec = open(&dir).unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(sum(&rec.db), 100 + 1 + 2 + 10);
        assert!(rec.snapshot_time > Duration::ZERO && rec.replay_time > Duration::ZERO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_folds_wal_into_snapshot() {
        let dir = tmpdir("ckpt");
        let mut db = seed();
        let mut wal = bootstrap(&dir, &db).unwrap();
        for sql in ["INSERT INTO t VALUES (10)", "DELETE FROM t WHERE rowid = 1"] {
            let stmt = parse_statement(sql).unwrap();
            apply_statement(&mut db, &stmt).unwrap();
            wal.append(sql).unwrap();
        }
        checkpoint(&dir, &mut db, &mut wal).unwrap();
        assert_eq!(wal.appended_since_reset(), 0);
        // More writes after the checkpoint.
        let sql = "INSERT INTO t VALUES (50)";
        apply_statement(&mut db, &parse_statement(sql).unwrap()).unwrap();
        wal.append(sql).unwrap();
        drop(wal);
        let rec = open(&dir).unwrap();
        assert_eq!(rec.replayed, 1, "only the post-checkpoint record replays");
        assert_eq!(sum(&rec.db), sum(&db));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_checkpoint_is_not_double_applied() {
        // Simulate: checkpoint wrote the new snapshot (with LSN) but crashed
        // before resetting the WAL → stale records with old LSNs remain.
        let dir = tmpdir("crashckpt");
        let mut db = seed();
        let mut wal = bootstrap(&dir, &db).unwrap();
        let sql = "INSERT INTO t VALUES (10)";
        apply_statement(&mut db, &parse_statement(sql).unwrap()).unwrap();
        wal.append(sql).unwrap();
        // Snapshot written with the current last LSN, WAL NOT reset.
        save_snapshot_with_lsn(&db, snapshot_path(&dir), wal.last_lsn()).unwrap();
        drop(wal);
        let rec = open(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "stale record skipped by LSN");
        assert_eq!(sum(&rec.db), sum(&db), "no double apply");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_at_the_last_lsn_is_refused_not_overflowed() {
        // A snapshot that folds in LSN u64::MAX leaves no LSN for the WAL
        // to continue from; `snapshot_lsn + 1` used to overflow here.
        let dir = tmpdir("lsnmax");
        drop(bootstrap(&dir, &seed()).unwrap());
        save_snapshot_with_lsn(&seed(), snapshot_path(&dir), u64::MAX).unwrap();
        match open(&dir) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("u64::MAX"), "{m}"),
            other => panic!("expected a corrupt-snapshot error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lsns_continue_after_recovery() {
        let dir = tmpdir("lsn");
        let mut wal = bootstrap(&dir, &seed()).unwrap();
        wal.append("INSERT INTO t VALUES (1)").unwrap();
        drop(wal);
        let mut rec = open(&dir).unwrap();
        let lsn = rec.wal.append("INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(lsn, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
