//! Background maintenance beside the statement path: checkpoints (explicit
//! and automatic) and compaction of written segments.
//!
//! The WAL is folded back into the snapshot by `{"cmd":"checkpoint"}` or
//! automatically once it accumulates `checkpoint_every` records: the
//! committing leader only *notes* that the fold is due and the maintenance
//! thread ([`Engine::run_maintenance`]) runs it, so no client's
//! acknowledgement waits for a fold. The fold encodes from a COW snapshot
//! *outside* the commit lock, so checkpoints do not stall writers either.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use astore_persist::store;
use astore_storage::catalog::Database;

use super::{Durability, Engine};

/// Per unsealed complete segment of one table: the write stamp the
/// compactor last saw, and when it first saw it.
pub(super) type UnsealedSegments = HashMap<usize, (u64, Instant)>;

impl Engine {
    /// Folds the live database into a fresh snapshot and truncates the WAL
    /// through the folded LSN. Returns `(checkpoint LSN, snapshot bytes)`.
    ///
    /// The expensive part — encoding and writing the snapshot file — runs
    /// against a COW snapshot with **no locks held**: writers keep
    /// committing and readers keep scanning while the file is built. Only
    /// two brief phases take the commit lock: fixing the (image, LSN) pair
    /// at the start, and truncating the WAL + flipping clean flags at the
    /// end. Writes that land mid-encode survive in the truncated WAL tail
    /// and replay on the next boot.
    pub fn checkpoint(&self) -> Result<(u64, usize), String> {
        let d = self.durability.as_ref().ok_or("this engine has no data directory")?;
        let _one = self.checkpoint_lock.lock().unwrap_or_else(|p| p.into_inner());
        self.checkpoint_locked(d)
    }

    /// The checkpoint body; caller holds `checkpoint_lock`.
    fn checkpoint_locked(&self, d: &Durability) -> Result<(u64, usize), String> {
        // Phase 1 (commit lock, brief): seal, then fix the image and the
        // last LSN it covers. No batch can publish between the two reads,
        // so every statement with LSN ≤ `last` is in `snap`. Readers
        // holding the previous image do not delay the seal: a shared table
        // is cloned (pointer bumps) and only re-sealed segments change.
        let (snap, last) = {
            let _c = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            self.db.write(seal_all);
            let wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            (self.db.snapshot(), wal.last_lsn())
        };

        // Phase 2 (no locks): encode and write the snapshot file from the
        // frozen image while the server keeps serving.
        let t0 = astore_obs::enabled().then(Instant::now);
        let bytes = store::write_checkpoint(&d.dir, &snap, last).map_err(|e| e.to_string())?;
        let took = t0.map(|t0| t0.elapsed());

        // Phase 3 (commit lock, brief): drop WAL records the file now
        // covers, then flip clean flags on tables the live catalog still
        // shares with the image (a table written mid-encode is *not* in
        // the file as encoded — it must stay dirty for the next round).
        {
            let _c = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            {
                let mut wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
                wal.truncate_through(last).map_err(|e| e.to_string())?;
            }
            let cur = self.db.snapshot();
            let unchanged: Vec<String> = cur
                .table_names()
                .iter()
                .filter(|name| match (cur.table_arc(name), snap.table_arc(name)) {
                    (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
                    _ => false,
                })
                .cloned()
                .collect();
            self.db.write(|db| {
                for name in &unchanged {
                    if let Some(t) = db.table_mut(name) {
                        t.mark_segments_clean();
                    }
                }
            });
        }
        {
            let _group = self.stats.group.begin_write();
            self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
            self.stats.checkpoint_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
            if let Some(took) = took {
                self.stats.checkpoint_us.fetch_add(took.as_micros() as u64, Ordering::Relaxed);
            }
        }
        Ok((last, bytes))
    }

    /// Is an auto-checkpoint noted as due and not yet run?
    pub fn checkpoint_due(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.checkpoint_due.load(Ordering::SeqCst))
    }

    /// Runs the auto-checkpoint if one is due. The note is re-checked
    /// against the log itself, so a note raised while the previous fold was
    /// still encoding does not trigger a second fold over a log that fold
    /// just truncated.
    fn run_due_checkpoint(&self) {
        let Some(d) = &self.durability else { return };
        if !d.checkpoint_due.swap(false, Ordering::SeqCst) {
            return;
        }
        let _one = self.checkpoint_lock.lock().unwrap_or_else(|p| p.into_inner());
        let due = {
            let wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            wal.record_count() >= d.checkpoint_every
        };
        if due {
            if let Err(e) = self.checkpoint_locked(d) {
                eprintln!("auto-checkpoint failed: {e}");
            }
        }
    }

    /// One pass of background maintenance, run by the server's maintenance
    /// thread: the auto-checkpoint if the write path noted one as due, then
    /// one compaction pass. Returns the number of segments compaction
    /// installed.
    pub fn run_maintenance(&self) -> usize {
        self.run_due_checkpoint();
        self.run_compaction_pass()
    }

    /// One background-compaction pass. The rule, in full: a **complete**
    /// segment (the filling tail is left to appends) that is unsealed — a
    /// value write decoded or rewrote some of its chunks — is re-encoded
    /// once its write stamp
    /// ([`astore_storage::table::Table::segment_written`]) has not moved for
    /// [`COMPACT_QUIET`]. A segment a writer keeps touching is therefore
    /// never picked, however often the pass runs: encoding a chunk that the
    /// next write decodes again would be pure churn. (Checkpoints do not
    /// wait: they seal everything they persist.)
    ///
    /// Due segments — up to a handful per pass — are encoded against a COW
    /// snapshot with no locks held and installed under the commit lock;
    /// [`astore_storage::table::Table::install_compacted`] refuses a result if any chunk of the
    /// segment is no longer the allocation the encode read, i.e. if a write
    /// slipped in, and the segment starts a new quiet period. Readers
    /// holding the current image never delay an install: a shared table is
    /// cloned (pointer bumps) and only the installed chunks change. Returns
    /// the number of segments installed.
    pub fn run_compaction_pass(&self) -> usize {
        const MAX_SEGMENTS_PER_PASS: usize = 8;
        let snap = self.db.snapshot();
        let now = Instant::now();
        let mut encoded = Vec::new();
        {
            let mut seen = self.unsealed_since.lock().unwrap_or_else(|p| p.into_inner());
            seen.retain(|name, _| snap.table(name).is_some());
            'scan: for name in snap.table_names() {
                let Some(t) = snap.table(name) else { continue };
                let complete = t.num_slots() / t.segment_rows();
                let segs = seen.entry(name.clone()).or_default();
                segs.retain(|&seg, _| seg < complete && t.segment_written(seg).is_some());
                for seg in 0..complete {
                    let Some(stamp) = t.segment_written(seg) else { continue };
                    let first_seen = segs.entry(seg).or_insert((stamp, now));
                    if first_seen.0 != stamp {
                        *first_seen = (stamp, now);
                    } else if now.duration_since(first_seen.1) >= COMPACT_QUIET {
                        // The heavy part, off every lock: readers and
                        // writers proceed while this encodes.
                        encoded.push((name.clone(), seg, t.encode_segment_now(seg)));
                        if encoded.len() >= MAX_SEGMENTS_PER_PASS {
                            break 'scan;
                        }
                    }
                }
            }
        }
        drop(snap);
        if encoded.is_empty() {
            return 0;
        }
        let mut installed = 0usize;
        {
            let _publish = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            self.db.write(|db| {
                for (name, seg, enc) in encoded {
                    let installs =
                        db.table_mut(&name).is_some_and(|t| t.install_compacted(seg, enc));
                    installed += usize::from(installs);
                }
            });
        }
        self.stats.compactions.fetch_add(installed as u64, Ordering::Relaxed);
        installed
    }
}

/// How long a complete segment must have gone unwritten before the
/// background compactor re-encodes its flat chunks (see
/// [`Engine::run_compaction_pass`]). Long next to the gap between two writes
/// of a busy writer, short next to how long an idle table stays idle.
pub const COMPACT_QUIET: Duration = Duration::from_secs(1);

/// Seals every segment of every table that needs it.
pub(super) fn seal_all(db: &mut Database) {
    for name in db.table_names().to_vec() {
        db.table_mut(&name).expect("listed table exists").seal_segments();
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{big_db, engine, sql};
    use super::*;
    use astore_storage::segment::SEGMENT_ROWS;
    use astore_storage::snapshot::SharedDatabase;

    #[test]
    fn boot_seal_primes_footprint_gauges() {
        // big_db spans four full segments; with_options seals them at boot,
        // so the footprint gauges report a real (and compressed) residency.
        let e = Engine::new(SharedDatabase::new(big_db()));
        let r = e.handle_line(r#"{"cmd":"stats"}"#);
        let s = r.get("stats").unwrap();
        let enc = s.get("encoded_bytes").unwrap().as_i64().unwrap();
        let raw = s.get("raw_bytes").unwrap().as_i64().unwrap();
        assert!(enc > 0, "boot seal produced no encoded segments");
        assert!(enc < raw, "encoded footprint should beat raw: {enc} vs {raw}");
        // Query results are unaffected by the sealed representation.
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
    }

    #[test]
    fn checkpoint_without_data_dir_is_a_typed_error() {
        let e = engine();
        let r = e.handle_line(r#"{"cmd":"checkpoint"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("no data directory"));
    }

    /// The three `_us` durability timings count only while the tracing
    /// toggle is armed; a checkpoint's bytes count always.
    #[test]
    fn disarmed_timings_add_nothing() {
        use std::sync::atomic::AtomicU64;
        let dir = std::env::temp_dir().join(format!("astore-engine-timed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = engine().database().snapshot().as_ref().clone();
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
        let read = |c: fn(&crate::ServerStats) -> &AtomicU64| c(e.stats()).load(Ordering::Relaxed);
        let timings =
            || [read(|s| &s.wal_append_us), read(|s| &s.wal_fsync_us), read(|s| &s.checkpoint_us)];
        let was = astore_obs::enabled();
        astore_obs::set_enabled(false);
        let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let (_, bytes) = e.checkpoint().unwrap();
        assert_eq!(timings(), [0, 0, 0], "disarmed: no clock was read");
        assert_eq!(read(|s| &s.checkpoint_bytes), bytes as u64);

        astore_obs::set_enabled(true);
        sql(&e, "INSERT INTO fact VALUES (0, 2)");
        e.checkpoint().unwrap();
        astore_obs::set_enabled(was);
        let [append, fsync, checkpoint] = timings();
        assert!(append >= fsync && checkpoint > 0, "armed: {:?}", timings());
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_is_noted_by_the_write_and_run_by_maintenance() {
        let dir = std::env::temp_dir().join(format!("astore-engine-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 3));
        let checkpoints = || e.stats().checkpoints.load(std::sync::atomic::Ordering::Relaxed);
        for i in 0..3 {
            assert!(!e.checkpoint_due(), "write {i} is below the threshold");
            let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        // The third write crossed the threshold and was acknowledged — the
        // fold is only noted, not charged to the writer's thread.
        assert!(e.checkpoint_due(), "third write crosses the threshold");
        assert_eq!(checkpoints(), 0, "no fold ran on the acknowledging thread");
        e.run_maintenance();
        assert_eq!(checkpoints(), 1, "the maintenance pass ran the due fold");
        assert!(!e.checkpoint_due());
        e.run_maintenance();
        assert_eq!(checkpoints(), 1, "nothing due, nothing folded");
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "everything folded into the snapshot");
        assert_eq!(rec.db.table("fact").unwrap().num_live(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_waits_for_a_quiet_period_then_reseals() {
        use std::sync::atomic::Ordering::Relaxed;
        let e = Engine::new(SharedDatabase::new(big_db()));
        // Boot sealed every (complete) fact segment.
        let flat_chunks = |e: &Engine| {
            let r = e.handle_line(r#"{"cmd":"stats"}"#);
            r.get("stats").unwrap().get("flat_chunks").unwrap().as_i64().unwrap()
        };
        let sealed = flat_chunks(&e);
        let n = e.database().snapshot().table("fact").unwrap().num_slots() as i64;
        let base_sum: i64 = n * (n - 1) / 2;
        let mut replaced = 0i64;
        let mut update = |row: i64| {
            let r = sql(&e, &format!("UPDATE fact SET f_v = 999999 WHERE rowid = {row}"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
            replaced += row;
        };
        // A writer touching every segment four times a second, for longer
        // than the quiet period: the compactor, polling all along, never
        // re-encodes anything.
        let start = Instant::now();
        let mut round = 0i64;
        while start.elapsed() < COMPACT_QUIET + Duration::from_millis(500) {
            update(round);
            update(SEGMENT_ROWS as i64 + round);
            round += 1;
            for _ in 0..5 {
                assert_eq!(e.run_compaction_pass(), 0, "a busy segment is not re-encoded");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        assert_eq!(e.stats().compactions.load(Relaxed), 0);
        assert_eq!(flat_chunks(&e), sealed + 2, "each write decoded the one chunk it touched");
        // The writer stops: within two quiet periods both written segments are
        // encoded again — while a reader holds the image; the install
        // replaces chunks, readers never delay the compactor.
        let held = e.database().snapshot();
        let stopped = Instant::now();
        while flat_chunks(&e) > sealed {
            assert!(stopped.elapsed() < 2 * COMPACT_QUIET, "segments still flat after two periods");
            e.run_compaction_pass();
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(e.stats().compactions.load(Relaxed), 2);
        assert_eq!(e.run_compaction_pass(), 0, "nothing left to do");
        let fact = held.table("fact").unwrap();
        assert!(
            fact.column_at(1).chunk_encoding(0).is_none(),
            "the held image keeps its flat chunk"
        );
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        let s =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(s, base_sum - replaced + 2 * round * 999999, "compaction preserved the values");
    }

    #[test]
    fn checkpoint_races_writers_without_losing_acks() {
        let dir = std::env::temp_dir().join(format!("astore-engine-ckptw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = std::sync::Arc::new(
            Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0)),
        );
        let (threads, per) = (4, 25);
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
            // Checkpoints run concurrently with the writers: the encode
            // happens off-lock, the WAL truncation must never drop a record
            // the snapshot file does not cover.
            for _ in 0..5 {
                e.checkpoint().unwrap();
            }
        });
        let expect = 3 + (threads * per) as usize;
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.db.table("fact").unwrap().num_live(), expect, "no acked write lost");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
