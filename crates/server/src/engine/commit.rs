//! Group commit: the write path after bind — stage, leader election,
//! validate and apply, WAL append and fsync, publish.
//!
//! Each writer stages its statement and the first stager becomes the batch
//! leader, which validates and applies the whole batch onto a private
//! copy-on-write clone, appends every surviving statement to the
//! write-ahead log with **one fsync**, and publishes the new catalog image
//! with a single pointer swap. Statements that fail validation are bounced
//! out of the batch individually (per-statement conflict detection) — one
//! bad write never aborts its batchmates. The write latch is held only for
//! the pointer swap, so readers taking snapshots never wait on statement
//! application or WAL I/O, and an acknowledged write is always on disk
//! before its response frame leaves. The private clone is pointer bumps,
//! and applying a statement copies only the chunks of the segments it
//! touches (see `astore_storage::table`), so a batch's cost does not grow
//! with the tables it writes to.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use astore_persist::apply::apply_statement;
use astore_sql::statement::{render_write, Write};
use astore_storage::types::Value;

use super::{Engine, EngineError, ErrorCode};

/// One staged write waiting for its result: the committing leader fills
/// `done` and signals `cv`; the staging connection blocks on the pair.
#[derive(Debug, Default)]
struct WriteSlot {
    done: Mutex<Option<Result<usize, EngineError>>>,
    cv: Condvar,
}

impl WriteSlot {
    fn finish(&self, result: Result<usize, EngineError>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        *done = Some(result);
        self.cv.notify_one();
    }

    fn wait(&self) -> Result<usize, EngineError> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = done.take() {
                return r;
            }
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A write staged for the next group-commit batch.
#[derive(Debug)]
struct PendingWrite {
    stmt: Write<Value>,
    wal_sql: String,
    slot: Arc<WriteSlot>,
}

/// The group-commit staging area. `leader_active` makes leader election
/// race-free: exactly one stager flips it and drains the queue; everyone
/// else parks on their slot.
#[derive(Debug, Default)]
pub(super) struct CommitState {
    pending: Vec<PendingWrite>,
    leader_active: bool,
}

impl Engine {
    /// The stage step of the write path, for text and prepared writes
    /// alike: the statement is staged for the next batch; the first stager
    /// becomes the batch leader and commits everything staged so far as one
    /// batch (see [`Engine::commit_batch`]), everyone else parks on their
    /// slot until the leader posts their result. Either way the statement
    /// is on disk before the acknowledgment can be sent. Returns the
    /// number of rows the statement affected.
    pub(super) fn stage(&self, stmt: Write<Value>) -> Result<usize, EngineError> {
        // The write-ahead log records the bound write's canonical text,
        // never the client's raw text: the parse stage case-folded
        // identifiers, so the applied write may differ from the text
        // (`INSERT INTO FACT` applies to table `fact`), and replay parses
        // the log verbatim, without case-folding.
        let wal_sql = render_write(&stmt);
        let slot = Arc::new(WriteSlot::default());
        let lead = {
            let mut st = self.commit.lock().unwrap_or_else(|p| p.into_inner());
            st.pending.push(PendingWrite { stmt, wal_sql, slot: Arc::clone(&slot) });
            !std::mem::replace(&mut st.leader_active, true)
        };
        if lead {
            self.lead_commits();
        }
        slot.wait()
    }

    /// The leader loop: drain the staging queue and commit each drained
    /// batch, until a drain comes up empty. Stepping down happens under the
    /// staging mutex in the same critical section as the emptiness check,
    /// so a write staged concurrently either joined a drained batch or sees
    /// `leader_active == false` and elects itself.
    fn lead_commits(&self) {
        let _publish = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let batch = {
                let mut st = self.commit.lock().unwrap_or_else(|p| p.into_inner());
                if st.pending.is_empty() {
                    st.leader_active = false;
                    return;
                }
                std::mem::take(&mut st.pending)
            };
            self.commit_batch(batch);
        }
    }

    /// Commits one batch. Caller holds `commit_lock`, so the snapshot taken
    /// here is the latest published image and nobody else can publish
    /// until this batch lands.
    ///
    /// Per-statement conflict detection: each statement validates against
    /// the batch-in-progress image (earlier batchmates' effects included);
    /// a failure bounces that statement alone with a `write_error` — its
    /// batchmates commit. After validation the apply cannot fail, so the
    /// one WAL append (one fsync for the whole batch, LSNs assigned in
    /// apply order) is the commit point: if it errors, every applied
    /// statement is thrown away with the private clone and memory, log and
    /// clients all agree the batch never happened.
    ///
    /// The private clone shares every table with the published image;
    /// applying a statement clones the written table's chunk *pointers* and
    /// copies only the chunks it overwrites. An appending `INSERT` copies
    /// no column chunk: the row goes into the space reserved behind each
    /// tail chunk, which the published image keeps sharing (it reads the
    /// shorter prefix it knows). Publishing the batch is what hands the
    /// right to extend those tails to the next batch; a batch thrown away
    /// after a failed WAL append has already claimed the slots it wrote,
    /// so the next batch — built on the published image again — copies
    /// each tail once and goes on in its own buffers, and the orphaned rows
    /// are never visible to anyone.
    fn commit_batch(&self, batch: Vec<PendingWrite>) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut work = (*self.db.snapshot()).clone();
        let mut applied: Vec<(Arc<WriteSlot>, usize)> = Vec::with_capacity(batch.len());
        let mut sqls: Vec<String> = Vec::with_capacity(batch.len());
        for pw in batch {
            // Validates first: a refused write leaves `work` untouched.
            match apply_statement(&mut work, &pw.stmt) {
                Ok(n) => {
                    sqls.push(pw.wal_sql);
                    applied.push((pw.slot, n));
                }
                Err(msg) => pw.slot.finish(Err(EngineError::new(ErrorCode::WriteError, msg))),
            }
        }
        if applied.is_empty() {
            return;
        }
        // The append and the fsync inside it, timed while tracing is on.
        let mut timed = None;
        if let Some(d) = &self.durability {
            let mut wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            let t0 = astore_obs::enabled().then(Instant::now);
            if let Err(e) = wal.append_batch(&sqls) {
                let err = EngineError::new(
                    ErrorCode::InternalError,
                    format!("WAL append failed, write aborted: {e}"),
                );
                for (slot, _) in applied {
                    slot.finish(Err(err.clone()));
                }
                return;
            }
            timed = t0.map(|t0| (t0.elapsed(), wal.last_fsync()));
            // Only note that the fold is due: the maintenance thread runs
            // it, so the batch's clients are acknowledged without waiting.
            if d.checkpoint_every > 0 && wal.record_count() >= d.checkpoint_every {
                d.checkpoint_due.store(true, Ordering::SeqCst);
            }
        }
        work.bump_version();
        self.db.replace(Arc::new(work));
        {
            let _group = self.stats.group.begin_write();
            self.stats.writes.fetch_add(applied.len() as u64, Relaxed);
            if self.durability.is_some() {
                self.stats.wal_records.fetch_add(sqls.len() as u64, Relaxed);
            }
            if let Some((append, fsync)) = timed {
                self.stats.wal_append_us.fetch_add(append.as_micros() as u64, Relaxed);
                self.stats.wal_fsync_us.fetch_add(fsync.as_micros() as u64, Relaxed);
            }
            self.stats.group_commits.fetch_add(1, Relaxed);
        }
        for (slot, n) in applied {
            slot.finish(Ok(n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{engine, sql};
    use super::super::Durability;
    use super::*;
    use crate::json::Json;
    use astore_storage::snapshot::SharedDatabase;

    #[test]
    fn write_validation_rejects_without_mutating() {
        let e = engine();
        for bad in [
            "INSERT INTO nope VALUES (1)",
            "INSERT INTO fact VALUES (1)",               // arity
            "INSERT INTO fact VALUES (1, 'str')",        // type
            "INSERT INTO fact VALUES (9, 1)",            // dangling key
            "INSERT INTO fact VALUES (0, 1), (0, NULL)", // later row invalid → whole stmt rejected
            "UPDATE fact SET nope = 1 WHERE rowid = 0",
            "UPDATE fact SET f_v = 1 WHERE rowid = 99",
        ] {
            let r = sql(&e, bad);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{bad}");
        }
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(3), "no partial writes");
    }

    #[test]
    fn mixed_case_text_write_replays_from_wal() {
        // Text writes are case-folded before apply (`INSERT INTO FACT`
        // mutates table `fact`), but WAL replay parses the log verbatim —
        // so the log must store the canonical rendering, never the raw
        // client text, or a committed write becomes unrecoverable.
        let dir = std::env::temp_dir().join(format!("astore-engine-case-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
        let r = sql(&e, "INSERT INTO FACT VALUES (1, 100)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let r = sql(&e, "UPDATE Fact SET F_V = 11 WHERE ROWID = 0");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let live_sum = {
            let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap()
        };
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 2, "mixed-case committed writes replay");
        let e2 =
            Engine::new(SharedDatabase::new(rec.db)).durable(Durability::new(&dir, rec.wal, 0));
        let r = sql(&e2, "SELECT sum(f_v) AS s FROM fact");
        let sum2 =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(sum2, live_sum, "recovered state equals pre-crash state");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writes_group_commit_and_recover() {
        let dir = std::env::temp_dir().join(format!("astore-engine-group-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = std::sync::Arc::new(
            Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0)),
        );
        let (threads, per) = (8, 10);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                    }
                });
            }
        });
        use std::sync::atomic::Ordering::Relaxed;
        let total = (threads * per) as u64;
        assert_eq!(e.stats().writes.load(Relaxed), total);
        assert_eq!(e.stats().wal_records.load(Relaxed), total);
        let commits = e.stats().group_commits.load(Relaxed);
        assert!(commits >= 1 && commits <= total, "commits {commits}");
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let n =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(n, 3 + total as i64);
        drop(e);
        // Every acknowledged write replays: group commit batches on disk
        // carry per-statement LSNs.
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, total as usize);
        assert_eq!(rec.db.table("fact").unwrap().num_live(), 3 + total as usize);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_batchmates_bounce_individually() {
        // Valid and invalid writes race into the same batches; each invalid
        // one gets its own write_error and never drags a batchmate down.
        let e = std::sync::Arc::new(engine());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let r = sql(&e, "INSERT INTO fact VALUES (1, 7)");
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                    }
                });
            }
            for _ in 0..2 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let r = sql(&e, "INSERT INTO fact VALUES (9, 1)"); // dangling key
                        assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{r:?}");
                    }
                });
            }
        });
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().writes.load(Relaxed), 40);
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let n =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(n, 43, "valid writes all landed, invalid none");
    }

    #[test]
    fn a_served_insert_leaves_the_tail_shared_with_the_published_image() {
        let e = engine();
        let copies = |e: &Engine| {
            let r = e.handle_line(r#"{"cmd":"stats"}"#);
            r.get("stats").unwrap().get("append_copies").unwrap().as_i64().unwrap()
        };
        // Boot sealed the (partial) fact segment: the first insert decodes
        // both tail chunks, reserving space behind them …
        sql(&e, "INSERT INTO fact VALUES (0, 1)");
        assert_eq!(copies(&e), 2);
        // … which the next inserts fill, each batch against a published
        // image (and a held snapshot) that shares the tail throughout.
        let held = e.database().snapshot();
        for v in 0..50 {
            let r = sql(&e, &format!("INSERT INTO fact VALUES (1, {v})"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        assert_eq!(copies(&e), 2, "fifty inserts copied no column chunk");
        let now = e.database().snapshot();
        let (old, new) = (held.table("fact").unwrap(), now.table("fact").unwrap());
        assert!((0..2).all(|c| new.column_at(c).shares_chunk(old.column_at(c), 0)));
        assert_eq!((old.num_slots(), new.num_slots()), (4, 54));
        let r = sql(&e, "SELECT count(*) AS n, sum(f_v) AS s FROM fact");
        let row = r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap();
        assert_eq!((row[0].as_i64(), row[1].as_i64()), (Some(54), Some(61 + 49 * 50 / 2)));
        let m = e.handle_line(r#"{"cmd":"metrics"}"#);
        let text = m.get("metrics").and_then(Json::as_str).unwrap_or_default().to_owned();
        assert!(text.contains("astore_server_append_copies 2"), "{m:?}");
    }
}
