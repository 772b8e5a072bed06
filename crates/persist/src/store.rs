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
//! committed prefix through [`crate::apply`], truncate any torn tail). A
//! checkpoint is [`write_checkpoint`] (fold an image into a fresh snapshot
//! stamped with the last folded LSN) followed by
//! [`Wal::truncate_through`] that LSN, which keeps the records committed
//! after it. Both steps are crash-safe: the snapshot and the log are each
//! replaced by atomic rename, and because replay skips records with LSN ≤
//! the snapshot's header LSN, a crash *between* the two merely leaves
//! stale records that the next boot ignores.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use astore_sql::{parse_template, StatementTemplate};
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
            // before truncating the log.
            continue;
        }
        // A record is a bound write's canonical text: it parses back to
        // that write, with no parameters to bind.
        let stmt = match parse_template(&rec.sql) {
            Ok(StatementTemplate::Write(w)) => w.bind(&[]).map_err(|e| e.to_string()),
            Ok(StatementTemplate::Select(_)) => Err("a SELECT is not a write".into()),
            Err(e) => Err(e.to_string()),
        }
        .map_err(|e| {
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

/// The encode-and-write half of a checkpoint, usable from a *shared*
/// snapshot: folds `db` into `<dir>/db.snapshot` stamped with `last_lsn`
/// and returns the snapshot size in bytes.
///
/// The write is **incremental at segment granularity**: segments not
/// mutated since the previous snapshot in `dir` was written (their clean
/// flag is set) are byte-copied from that file instead of re-encoded — the
/// output is byte-identical either way because encoding is deterministic.
/// Touches neither the WAL nor the tables' clean flags: the caller
/// sequences those (the server runs this from a COW snapshot outside its
/// commit lock, then truncates the WAL through `last_lsn` and marks clean
/// the segments nobody wrote meanwhile, each in a brief latched phase).
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    db: &Database,
    last_lsn: u64,
) -> Result<usize, PersistError> {
    let path = snapshot_path(dir);
    // The previous file, indexed by block — its blocks are read one at a
    // time as they are copied, never the whole file at once.
    let prev = std::fs::File::open(&path).ok().and_then(index_snapshot_segments);
    write_snapshot_file(&path, db, last_lsn, prev).map(|(bytes, _reused)| bytes)
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

    fn apply_sql(db: &mut Database, sql: &str) {
        let Ok(StatementTemplate::Write(w)) = parse_template(sql) else { panic!("{sql}") };
        apply_statement(db, &w.bind(&[]).unwrap()).unwrap();
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
            apply_sql(&mut db, sql);
            wal.append(sql).unwrap();
        }
        let folded = wal.last_lsn();
        write_checkpoint(&dir, &db, folded).unwrap();
        // A write that committed while the snapshot was being written.
        let sql = "INSERT INTO t VALUES (50)";
        apply_sql(&mut db, sql);
        wal.append(sql).unwrap();
        wal.truncate_through(folded).unwrap();
        assert_eq!(wal.record_count(), 1, "the later record is kept");
        drop(wal);
        let rec = open(&dir).unwrap();
        assert_eq!(rec.replayed, 1, "only the post-checkpoint record replays");
        assert_eq!(sum(&rec.db), sum(&db));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_checkpoint_is_not_double_applied() {
        // Simulate: checkpoint wrote the new snapshot (with LSN) but crashed
        // before truncating the WAL → stale records with old LSNs remain.
        let dir = tmpdir("crashckpt");
        let mut db = seed();
        let mut wal = bootstrap(&dir, &db).unwrap();
        let sql = "INSERT INTO t VALUES (10)";
        apply_sql(&mut db, sql);
        wal.append(sql).unwrap();
        // Snapshot written with the current last LSN, WAL NOT truncated.
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
