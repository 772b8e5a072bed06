//! Copy-on-write snapshots for concurrent OLTP + OLAP (paper §4.4).
//!
//! The paper sketches a Hyper-style MVCC where "a copy-on-write mechanism
//! … isolate\[s\] OLTP and OLAP workloads". We realise the same property
//! at three levels of granularity, each an `Arc`:
//!
//! - the **catalog** lives behind an `Arc<Database>`, so taking a snapshot
//!   is a single reference-count bump — no allocation, no table map copy on
//!   the read path;
//! - inside a [`Database`], **tables** are `Arc`-shared, so a writer that
//!   runs while snapshots are outstanding clones only the catalog map
//!   (`Arc::make_mut` on the database) and the tables it actually touches
//!   (`Arc::make_mut` per table);
//! - inside a [`Table`], the **segment** is the unit of ownership: every
//!   column's payload is a sequence of `Arc`-held per-segment chunks —
//!   each resident flat *or* encoded, never both — next to the segment's
//!   live bits and zone statistics (see [`crate::table`],
//!   [`crate::chunks`]). Cloning a table is
//!   O(columns × segments) pointer bumps and copies no row data.
//!
//! **What a write copies.** Only what it touches, and only if a snapshot
//! still shares it: an `UPDATE` of one field copies that column's chunk of
//! one segment (decodes it, if it was encoded — the same one allocation);
//! a `DELETE` copies one segment's live bits; an appending `INSERT` copies
//! the tail's live bits and **no column chunk** — it writes the row into
//! the space reserved behind every column's tail
//! ([`crate::appendbuf`]), which the new image and the snapshots go on
//! sharing, each reading the prefix it knows. Every other chunk stays
//! pointer-identical between the old image and the new one, so the cost of
//! a committed write is bounded by the segments it touches and does not
//! grow with the table. With no snapshot outstanding nothing is shared and
//! the same code path writes in place — there is no separate in-place mode.
//!
//! Readers therefore observe a stable, consistent image for the whole
//! duration of a query, while writers proceed without blocking on them —
//! and without paying for the readers' existence with a table copy.
//! The write latch serialises writers and snapshot acquisition only; it is
//! never held while a query runs.

use std::sync::{Arc, RwLock};

use crate::catalog::Database;
use crate::table::Table;
use crate::types::{RowId, Value};

/// A concurrently usable database handle.
///
/// Cloning the handle is cheap; all clones share the same underlying state.
#[derive(Debug, Clone, Default)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Arc<Database>>>,
}

impl SharedDatabase {
    /// Wraps a database for shared use.
    pub fn new(db: Database) -> Self {
        SharedDatabase { inner: Arc::new(RwLock::new(Arc::new(db))) }
    }

    /// Takes a consistent snapshot: an `Arc` share of the live catalog.
    /// O(1) — one atomic increment, no data copied, no allocation.
    /// Subsequent writes copy-on-write and never disturb it.
    pub fn snapshot(&self) -> Arc<Database> {
        // Recover from poisoning (parking_lot-style): a panicking writer
        // must not wedge every future reader.
        let guard = self.inner.read().unwrap_or_else(|p| p.into_inner());
        Arc::clone(&guard)
    }

    /// Runs a closure with mutable access to the live database. The write
    /// latch only serialises *writers* and snapshot acquisition; readers
    /// holding earlier snapshots are unaffected. All mutations inside one
    /// `write` call become visible atomically to later snapshots.
    ///
    /// Poisoning is recovered from (availability over strictness), so a
    /// closure that *panics* mid-mutation can leave a partially applied
    /// write visible when no snapshot was outstanding (nothing was shared,
    /// so the write landed in place). Callers that cannot tolerate this must
    /// validate before mutating — the serving layer
    /// (`astore-server`) does exactly that.
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut guard = self.inner.write().unwrap_or_else(|p| p.into_inner());
        f(Arc::make_mut(&mut guard))
    }

    /// Publishes a fully built catalog image, replacing the live one. The
    /// group-commit path builds its batch on a private clone (validating
    /// and applying *outside* the latch) and swaps it in here — the latch
    /// is held only for the pointer swap, so readers taking snapshots
    /// never wait on statement application or WAL I/O.
    pub fn replace(&self, db: Arc<Database>) {
        let mut guard = self.inner.write().unwrap_or_else(|p| p.into_inner());
        *guard = db;
    }

    /// Convenience: insert a row into a table. Returns the new row id.
    pub fn insert(&self, table: &str, values: &[Value]) -> RowId {
        self.write(|db| {
            db.table_mut(table).unwrap_or_else(|| panic!("no table {table:?}")).insert(values)
        })
    }

    /// Convenience: lazily delete a row.
    pub fn delete(&self, table: &str, row: RowId) -> bool {
        self.write(|db| {
            db.table_mut(table).unwrap_or_else(|| panic!("no table {table:?}")).delete(row)
        })
    }

    /// Convenience: in-place update of one field.
    pub fn update(&self, table: &str, row: RowId, column: &str, value: &Value) {
        self.write(|db| {
            db.table_mut(table)
                .unwrap_or_else(|| panic!("no table {table:?}"))
                .update(row, column, value)
        })
    }

    /// Convenience: register a table.
    pub fn add_table(&self, table: Table) {
        self.write(|db| db.add_table(table));
    }

    /// Consolidates a table (paper §4.4), rewriting inbound references.
    /// Intended for idle periods; holds the write latch for the duration.
    pub fn consolidate(&self, table: &str) {
        self.write(|db| db.consolidate(table));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnDef, Schema};
    use crate::types::DataType;

    fn shared_dim() -> SharedDatabase {
        let mut db = Database::new();
        let mut t = Table::new("dim", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        for i in 0..4 {
            t.append_row(&[Value::Int(i)]);
        }
        db.add_table(t);
        SharedDatabase::new(db)
    }

    #[test]
    fn snapshot_isolated_from_later_writes() {
        let shared = shared_dim();
        let snap = shared.snapshot();
        assert_eq!(snap.table("dim").unwrap().num_live(), 4);

        shared.insert("dim", &[Value::Int(99)]);
        shared.delete("dim", 0);
        shared.update("dim", 1, "v", &Value::Int(-1));

        // The old snapshot still sees the original image.
        let dim = snap.table("dim").unwrap();
        assert_eq!(dim.num_live(), 4);
        assert_eq!(dim.row(0), vec![Value::Int(0)]);
        assert_eq!(dim.row(1), vec![Value::Int(1)]);

        // A fresh snapshot sees the new state.
        let now = shared.snapshot();
        let dim = now.table("dim").unwrap();
        assert_eq!(dim.num_live(), 4); // 4 + 1 insert − 1 delete
        assert_eq!(dim.num_slots(), 5);
        assert!(!dim.is_live(0));
        assert_eq!(dim.row(1), vec![Value::Int(-1)]);
    }

    #[test]
    fn snapshots_share_storage_until_written() {
        let shared = shared_dim();
        let a = shared.snapshot();
        let b = shared.snapshot();
        // Snapshots of an unchanged database are the same catalog object.
        assert!(Arc::ptr_eq(&a, &b));
        // …and share table storage with the live state.
        let live = shared.snapshot();
        assert!(Arc::ptr_eq(&a.table_arc("dim").unwrap(), &live.table_arc("dim").unwrap()));
        // A write severs the catalog share but leaves old snapshots intact.
        shared.insert("dim", &[Value::Int(5)]);
        let after = shared.snapshot();
        assert!(!Arc::ptr_eq(&a, &after));
        assert_eq!(a.table("dim").unwrap().num_live(), 4);
    }

    #[test]
    fn writes_without_snapshot_do_not_copy() {
        let shared = shared_dim();
        // No snapshot outstanding: nothing is shared, so the write lands in
        // place — the same `Arc<Table>` serves the next snapshot.
        let addr = Arc::as_ptr(&shared.snapshot().table_arc("dim").unwrap());
        shared.insert("dim", &[Value::Int(123)]);
        let snap = shared.snapshot();
        assert_eq!(Arc::as_ptr(&snap.table_arc("dim").unwrap()), addr);
        assert_eq!(snap.table("dim").unwrap().num_live(), 5);
    }

    /// A fact-like table of `segs` full 64-row segments plus a partial
    /// tail, with one column of every kind.
    fn wide_shared(segs: usize) -> SharedDatabase {
        let mut t = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Key { target: "dim".into() }),
                ColumnDef::new("i", DataType::I32),
                ColumnDef::new("l", DataType::I64),
                ColumnDef::new("f", DataType::F64),
                ColumnDef::new("d", DataType::Dict),
                ColumnDef::new("s", DataType::Str),
            ]),
        );
        t.set_segment_rows(64);
        for r in 0..(segs * 64 + 10) as i64 {
            t.append_row(&[
                Value::Key((r % 7) as u32),
                Value::Int(r % 100),
                Value::Int(r * 3),
                Value::Float(r as f64 / 2.0),
                Value::Str(format!("v{}", r % 5)),
                Value::Str(format!("row{r}")),
            ]);
        }
        t.seal_segments();
        let mut db = Database::new();
        db.add_table(t);
        SharedDatabase::new(db)
    }

    /// The `(column, segment)` payload chunks and the live-bit segments the
    /// new image no longer shares with the old one.
    fn unshared(old: &Table, new: &Table) -> (Vec<(usize, usize)>, Vec<usize>) {
        let segs = old.segment_count().max(new.segment_count());
        let mut cols = Vec::new();
        for c in 0..old.schema().arity() {
            for seg in 0..segs {
                if !new.column_at(c).shares_chunk(old.column_at(c), seg) {
                    cols.push((c, seg));
                }
            }
        }
        let live = (0..segs)
            .filter(|&seg| !new.live_bitmap().shares_chunk(old.live_bitmap(), seg))
            .collect();
        (cols, live)
    }

    #[test]
    fn a_write_copies_only_the_chunks_it_touches_whatever_the_table_size() {
        // Same writes against an 8-segment and a 64-segment table: the set
        // of copied chunks must depend on the touched rows only.
        for segs in [8usize, 64] {
            let shared = wide_shared(segs);
            let tail = segs; // the partial segment after `segs` full ones

            // UPDATE of one field: exactly that column's chunk of the row's
            // segment — here column `l` (position 2), row 70 (segment 1).
            let held = shared.snapshot();
            shared.update("fact", 70, "l", &Value::Int(-1));
            let now = shared.snapshot();
            let (cols, live) = unshared(held.table("fact").unwrap(), now.table("fact").unwrap());
            assert_eq!(cols, vec![(2, 1)], "segs={segs}: update copies one chunk");
            assert!(live.is_empty(), "segs={segs}: update leaves the live bits shared");
            assert_eq!(held.table("fact").unwrap().row(70)[2], Value::Int(210));
            assert_eq!(now.table("fact").unwrap().row(70)[2], Value::Int(-1));

            // INSERT (append) after a seal: the tail chunks that were
            // sealed are decoded (floats and string slots never are, and
            // take the row in their reserved space) …
            let held = shared.snapshot();
            let row = held.table("fact").unwrap().row(0);
            shared.insert("fact", &row);
            let now = shared.snapshot();
            let (cols, live) = unshared(held.table("fact").unwrap(), now.table("fact").unwrap());
            assert_eq!(cols, [0, 1, 2, 4].map(|c| (c, tail)), "segs={segs}");
            assert_eq!(live, vec![tail], "segs={segs}");
            assert_eq!(held.table("fact").unwrap().num_slots(), segs * 64 + 10);
            assert_eq!(now.table("fact").unwrap().append_copies(), 4, "segs={segs}");

            // … and every INSERT after that copies the tail's live bits and
            // no column chunk at all: the held snapshot and the new image
            // share the tail, each seeing its own rows of it.
            let held = shared.snapshot();
            shared.insert("fact", &row);
            let now = shared.snapshot();
            let (cols, live) = unshared(held.table("fact").unwrap(), now.table("fact").unwrap());
            assert!(cols.is_empty(), "segs={segs}: an append copies no payload, got {cols:?}");
            assert_eq!(live, vec![tail], "segs={segs}");
            assert_eq!(held.table("fact").unwrap().num_slots(), segs * 64 + 11);
            assert_eq!(now.table("fact").unwrap().num_slots(), segs * 64 + 12);
            assert_eq!(now.table("fact").unwrap().row((segs * 64 + 11) as RowId), row);
            assert_eq!(now.table("fact").unwrap().append_copies(), 4, "segs={segs}");

            // DELETE: one segment's live bits, no payload chunk.
            let held = shared.snapshot();
            shared.delete("fact", 130);
            let now = shared.snapshot();
            let (cols, live) = unshared(held.table("fact").unwrap(), now.table("fact").unwrap());
            assert!(cols.is_empty(), "segs={segs}: delete copies no payload");
            assert_eq!(live, vec![2], "segs={segs}");
            assert!(held.table("fact").unwrap().is_live(130));

            // INSERT reusing the dead slot: that slot's segment only.
            let held = shared.snapshot();
            assert_eq!(shared.insert("fact", &row), 130);
            let now = shared.snapshot();
            let (cols, live) = unshared(held.table("fact").unwrap(), now.table("fact").unwrap());
            assert_eq!(cols, (0..6).map(|c| (c, 2)).collect::<Vec<_>>(), "segs={segs}");
            assert_eq!(live, vec![2], "segs={segs}");
        }
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let shared = shared_dim();
        let reader = shared.clone();
        let writer = shared.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                writer.insert("dim", &[Value::Int(i)]);
            }
        });
        for _ in 0..50 {
            let snap = reader.snapshot();
            let n = snap.table("dim").unwrap().num_live();
            assert!((4..=104).contains(&n));
        }
        handle.join().unwrap();
        assert_eq!(shared.snapshot().table("dim").unwrap().num_live(), 104);
    }

    #[test]
    fn consolidate_through_shared_handle() {
        let shared = shared_dim();
        shared.delete("dim", 2);
        shared.consolidate("dim");
        let snap = shared.snapshot();
        assert_eq!(snap.table("dim").unwrap().num_slots(), 3);
        assert_eq!(snap.table("dim").unwrap().num_live(), 3);
    }
}
