//! Tables as *array families* (paper §2).
//!
//! "We store a relational table in an array family, which is composed of a
//! set of arrays of equal length, each representing a column of the table.
//! … As array indexes can be used to directly locate the tuples in a table,
//! A-Store treats the array index as the primary key of a table."
//!
//! No primary-key column is ever materialized. A [`Table`] additionally
//! carries a *live bitmap* (the inverse of the paper's §4.4 delete vector)
//! and a free-slot list enabling slot reuse for dimension tables.
//!
//! ## Ownership: the segment is the unit of copy-on-write
//!
//! The array family is cut into fixed-size segments, and everything a
//! segment owns is held by its own `Arc`: one payload chunk per column
//! ([`crate::chunks::Chunked`]), its slice of the live bitmap
//! ([`crate::bitmap::SegBitmap`]), its zone statistics, its sealed encoding
//! and its stale-row list. Table-wide state that writes touch — string
//! heaps, dictionaries, the free-slot list, the schema — is `Arc`-shared
//! the same way. Cloning a `Table` (what a writer does while any snapshot
//! holds the current image, see [`crate::snapshot`]) is therefore
//! O(columns × segments) reference-count bumps and copies no row data.
//! What a write then copies, if and only if a snapshot still shares it:
//!
//! | write | copied |
//! |---|---|
//! | `update` of one field | that column's chunk of the row's segment (+ the segment's stale list; a string value: the heap's active slab, ≤ 1 MiB; a *new* dictionary value: the dictionary) |
//! | `append_row` / `insert` at the end | every column's chunk of the **tail** segment and the tail's live bits |
//! | `insert` reusing a dead slot | every column's chunk of that slot's segment, its live bits, the free-slot list |
//! | `delete` | the row's segment's live bits (8 KiB) and the free-slot list |
//!
//! Nothing a write copies grows with the number of segments, so the cost of
//! a committed write is bounded by the segments it touches, not by the
//! table's size. Every other chunk stays pointer-identical between the old
//! image and the new one ([`crate::column::Column::shares_chunk`] observes
//! it).

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::{Bitmap, SegBitmap};
use crate::chunks::Geometry;
use crate::column::Column;
use crate::encoded::{encode_segment, SegmentEncoding};
use crate::segment::{SegmentZone, DECAY_REBUILD_AFTER_OPS, REBUILD_AFTER_OPS};
use crate::selvec::SelVec;
use crate::types::{DataType, RowId, Value};

/// A named, typed column declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (unique within its table).
    pub name: String,
    /// Physical type.
    pub dtype: DataType,
}

impl ColumnDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        ColumnDef { name: name.into(), dtype }
    }
}

/// An ordered set of column definitions.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    defs: Vec<ColumnDef>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema from column definitions.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn new(defs: Vec<ColumnDef>) -> Self {
        let mut index = HashMap::with_capacity(defs.len());
        for (i, d) in defs.iter().enumerate() {
            let prev = index.insert(d.name.clone(), i);
            assert!(prev.is_none(), "duplicate column name {:?}", d.name);
        }
        Schema { defs, index }
    }

    /// The column definitions, in declaration order.
    pub fn defs(&self) -> &[ColumnDef] {
        &self.defs
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.defs.len()
    }

    /// Position of the named column.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Definition of the named column.
    pub fn def(&self, name: &str) -> Option<&ColumnDef> {
        self.position(name).map(|i| &self.defs[i])
    }
}

/// How many stale (superseded) rows a sealed segment tolerates before its
/// seal is voided outright. Below the limit the delta stays cheap for scans
/// (one binary search per encoded hit); above it the encoding is mostly
/// dead weight and the segment reverts to flat until the next seal.
pub const STALE_LIMIT: usize = 1024;

/// The smallest delta worth a background re-encode of its segment (see
/// [`Table::segment_worth_compacting`]): an eighth of [`STALE_LIMIT`] stale
/// rows. Re-encoding costs a full pass over the segment however few rows
/// changed, so folding a single stale row per pass turns a steady writer
/// into a permanent re-encode loop whose installs the epoch fence mostly
/// refuses.
pub const COMPACT_MIN_STALE: usize = STALE_LIMIT / 8;

/// The smallest appended overhang (rows past a seal's coverage) worth a
/// background re-encode while the segment is still filling; a *completed*
/// segment is always worth it — its overhang will never grow again.
pub const COMPACT_MIN_OVERHANG: usize = 4096;

/// Per-segment delta bookkeeping layered over a sealed encoding. Writes go
/// *through* to the flat chunks (which are therefore always current);
/// `stale` records the segment-local offsets whose encoded value was
/// superseded, so scans can patch encoded results from the flat chunks
/// instead of unsealing the whole segment. `epoch` advances on every value
/// write covered by the seal and fences concurrent compaction installs: a
/// compactor that encoded the segment at epoch `e` may only install its
/// result while the epoch is still `e`.
#[derive(Debug, Clone, Default)]
pub struct SegmentDelta {
    /// `Arc`-held like every per-segment payload: a table clone shares it,
    /// the first stale write after the clone copies it (≤ [`STALE_LIMIT`]
    /// offsets).
    stale: Arc<Vec<u32>>,
    epoch: u64,
}

/// An empty delta stamped with a fresh epoch from the table's counter.
fn fresh_delta(next_epoch: &mut u64) -> SegmentDelta {
    let epoch = *next_epoch;
    *next_epoch += 1;
    SegmentDelta { stale: Arc::default(), epoch }
}

/// A relational table stored as an array family cut into fixed-size
/// segments with zone maps (see [`crate::segment`]); the segment is the
/// unit of copy-on-write ownership (see the module docs).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    /// One chunked payload per column; all cut by `geo`.
    columns: Vec<Column>,
    /// Bit `i` = slot `i` holds a live tuple. The complement is the paper's
    /// delete vector.
    live: SegBitmap,
    /// Dead slots available for reuse by inserts (paper §4.4: "The position
    /// of a deleted tuple will later be reused by a newly inserted tuple").
    free: Arc<Vec<RowId>>,
    /// The segment geometry (fixed per table; default
    /// [`crate::segment::SEGMENT_ROWS`] rows).
    geo: Geometry,
    /// One zone map per segment; `zones.len() == geo.segments_for(num_slots())`.
    zones: Vec<SegmentZone>,
    /// One optional encoding per segment, parallel to `zones`. `Some` means
    /// the segment is *sealed*: its columns were re-represented in
    /// compressed form (see [`crate::encoded`]) and scans may read the
    /// encoded words instead of the raw chunks. Value mutations no longer
    /// unseal the segment: they write through to the flat chunks and record
    /// the row in the segment's [`SegmentDelta`]; appends leave the seal
    /// covering its original prefix.
    encodings: Vec<Option<Arc<SegmentEncoding>>>,
    /// Per-segment write deltas, parallel to `zones`.
    deltas: Vec<SegmentDelta>,
    /// Monotonic epoch source for `deltas`. Never reused, so a compaction
    /// result raced by *any* later write — even across a zone rebuild that
    /// resets segment geometry — fails its install fence.
    next_epoch: u64,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema.defs().iter().map(|d| Column::new(&d.dtype)).collect();
        let geo = Geometry::default();
        Table::assemble(name.into(), schema, columns, SegBitmap::new(geo), Vec::new(), geo)
    }

    /// Bulk-constructs a table from pre-built columns (the data generators'
    /// fast path). All columns must have equal length, matching the
    /// array-family invariant.
    ///
    /// # Panics
    /// Panics if column count or lengths disagree with the schema.
    pub fn from_columns(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Self {
        let n = columns.first().map_or(0, Column::len);
        let geo = Geometry::default();
        let live = SegBitmap::filled(n, true, geo);
        let mut t = Table::assemble(name.into(), schema, columns, live, Vec::new(), geo);
        t.rebuild_zone_maps();
        t
    }

    /// Rebuilds a table from all of its persistent parts — columns, live
    /// bitmap, and free-slot list (the snapshot-loading path, which must
    /// reproduce slot-reuse behaviour exactly, not just the live tuples).
    ///
    /// # Panics
    /// Panics if column lengths or the bitmap length disagree with the
    /// schema, or if a free slot is out of range or still marked live.
    pub fn from_parts(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        live: Bitmap,
        free: Vec<RowId>,
    ) -> Self {
        let geo = Geometry::default();
        let live = SegBitmap::from_bitmap(&live, geo);
        let mut t = Table::assemble(name.into(), schema, columns, live, free, geo);
        t.rebuild_zone_maps();
        t
    }

    /// Shared validated construction: checks the array-family invariants,
    /// brings every column to the table's geometry (a no-op for columns
    /// built in it) and leaves the per-segment metadata empty for the
    /// caller to rebuild or install.
    fn assemble(
        name: String,
        schema: Schema,
        mut columns: Vec<Column>,
        live: SegBitmap,
        free: Vec<RowId>,
        geo: Geometry,
    ) -> Self {
        assert_eq!(columns.len(), schema.arity(), "column count mismatch");
        let n = columns.first().map_or(live.len(), Column::len);
        for (c, d) in columns.iter_mut().zip(schema.defs()) {
            assert_eq!(c.len(), n, "array family misaligned at column {:?}", d.name);
            assert_eq!(c.dtype(), d.dtype, "type mismatch at column {:?}", d.name);
            c.rechunk(geo);
        }
        assert_eq!(live.len(), n, "live bitmap length mismatch");
        for &slot in &free {
            assert!((slot as usize) < n, "free slot {slot} out of range");
            assert!(!live.get(slot as usize), "free slot {slot} is still live");
        }
        Table {
            name,
            schema: Arc::new(schema),
            columns,
            live,
            free: Arc::new(free),
            geo,
            zones: Vec::new(),
            encodings: Vec::new(),
            deltas: Vec::new(),
            next_epoch: 0,
        }
    }

    /// Rebuilds a table from persisted parts *including* its persisted zone
    /// maps (the snapshot-v2 load path): the zone maps are trusted verbatim
    /// instead of recomputed, so a warm boot prunes immediately and a
    /// re-save reproduces the same bytes. Loaded segments are clean.
    /// Columns built in `seg_rows`-row chunks are adopted as they are.
    ///
    /// # Panics
    /// Panics on the same invariant violations as [`Table::from_parts`], or
    /// if `seg_rows` is zero or `zones` does not cover the slots.
    pub fn from_parts_with_zones(
        name: impl Into<String>,
        schema: Schema,
        columns: Vec<Column>,
        live: Bitmap,
        free: Vec<RowId>,
        seg_rows: usize,
        zones: Vec<SegmentZone>,
    ) -> Self {
        // No rebuild scan here: the persisted zone maps are installed
        // verbatim (the point of persisting them — warm boots skip the
        // O(rows x columns) statistics pass entirely).
        let geo = Geometry::new(seg_rows);
        let live = SegBitmap::from_bitmap(&live, geo);
        let mut t = Table::assemble(name.into(), schema, columns, live, free, geo);
        assert_eq!(
            zones.len(),
            geo.segments_for(t.num_slots()),
            "zone map count does not cover the slots"
        );
        for z in &zones {
            assert_eq!(z.stats().len(), t.schema.arity(), "zone arity mismatch");
        }
        t.encodings = vec![None; zones.len()];
        t.deltas = (0..zones.len()).map(|_| fresh_delta(&mut t.next_epoch)).collect();
        t.zones = zones;
        t
    }

    /// The free-slot list, in reuse order (serialization hook: the next
    /// insert pops from the back).
    pub fn free_slots(&self) -> &[RowId] {
        &self.free
    }

    /// Rows per segment.
    pub fn segment_rows(&self) -> usize {
        self.geo.rows()
    }

    /// Number of segments (0 for an empty table).
    pub fn segment_count(&self) -> usize {
        self.zones.len()
    }

    /// The slot range of segment `seg`.
    pub fn segment_range(&self, seg: usize) -> std::ops::Range<usize> {
        let start = seg * self.geo.rows();
        start..((start + self.geo.rows()).min(self.num_slots()))
    }

    /// The zone map of segment `seg`.
    #[inline]
    pub fn zone(&self, seg: usize) -> &SegmentZone {
        &self.zones[seg]
    }

    /// All zone maps, in segment order.
    pub fn zones(&self) -> &[SegmentZone] {
        &self.zones
    }

    /// Re-partitions the table into `seg_rows`-row segments — every column
    /// and the live bitmap are re-cut into chunks of the new size — and
    /// rebuilds every zone map exactly. Mostly a test/tuning hook —
    /// production tables keep the default
    /// [`SEGMENT_ROWS`](crate::segment::SEGMENT_ROWS).
    ///
    /// # Panics
    /// Panics if `seg_rows` is zero.
    pub fn set_segment_rows(&mut self, seg_rows: usize) {
        self.geo = Geometry::new(seg_rows);
        for c in &mut self.columns {
            c.rechunk(self.geo);
        }
        self.live.rechunk(self.geo);
        self.rebuild_zone_maps();
    }

    /// Rebuilds every segment's zone map exactly from the live rows.
    /// Segment geometry may change, so every segment is also unsealed and
    /// its write delta reset (with a fresh epoch, fencing in-flight
    /// compactions that encoded under the old geometry).
    pub fn rebuild_zone_maps(&mut self) {
        let nsegs = self.geo.segments_for(self.num_slots());
        self.encodings = vec![None; nsegs];
        self.deltas = (0..nsegs).map(|_| fresh_delta(&mut self.next_epoch)).collect();
        self.zones = (0..nsegs)
            .map(|seg| SegmentZone::rebuild(&self.schema, &self.columns, &self.live, seg))
            .collect();
    }

    /// Rebuilds one segment's zone map exactly.
    fn rebuild_zone(&mut self, seg: usize) {
        self.zones[seg] = SegmentZone::rebuild(&self.schema, &self.columns, &self.live, seg);
    }

    /// Marks every segment as persisted (called after a checkpoint wrote
    /// the current state; an incremental checkpoint re-encodes only dirty
    /// segments). Seals are kept: they describe the same data.
    pub fn mark_segments_clean(&mut self) {
        for z in &mut self.zones {
            z.mark_clean();
        }
    }

    /// True if a *background* compaction pass should re-encode segment
    /// `seg` now: it needs a reseal ([`Table::segment_needs_reseal`]) and
    /// its delta is worth a full re-encode — it is unsealed, carries at
    /// least [`COMPACT_MIN_STALE`] stale rows, or has an appended overhang
    /// that is complete (the segment is full) or at least
    /// [`COMPACT_MIN_OVERHANG`] rows long. Smaller deltas wait: scans patch
    /// them from the flat chunks at one binary search per encoded hit, and
    /// a checkpoint's [`Table::seal_segments`] folds them regardless.
    pub fn segment_worth_compacting(&self, seg: usize) -> bool {
        if !self.segment_needs_reseal(seg) {
            return false;
        }
        let Some(covered) = self.encodings[seg].as_deref().and_then(SegmentEncoding::covered_rows)
        else {
            return true;
        };
        let rows = self.segment_range(seg).len();
        let overhang = rows - covered;
        self.deltas[seg].stale.len() >= COMPACT_MIN_STALE
            || overhang >= COMPACT_MIN_OVERHANG
            || (overhang > 0 && rows == self.geo.rows())
    }

    /// True if segment `seg` needs a (re-)seal: it is unsealed, carries
    /// stale rows, or its seal covers only a prefix of the segment (rows
    /// were appended past it). Raw-canonical seals (no encodable column)
    /// never need resealing — flat is already their best form.
    pub fn segment_needs_reseal(&self, seg: usize) -> bool {
        match self.encodings.get(seg).map(Option::as_deref) {
            None | Some(None) => seg < self.zones.len(),
            Some(Some(e)) => match e.covered_rows() {
                None => false,
                Some(covered) => {
                    !self.deltas[seg].stale.is_empty() || covered != self.segment_range(seg).len()
                }
            },
        }
    }

    /// Seals every segment that needs it: chooses and builds the per-column
    /// compressed encoding (see [`crate::encoded`]), clearing the segment's
    /// write delta. Clean sealed segments are untouched, so sealing twice
    /// is a no-op. A segment whose seal produced at least one encoded
    /// column is marked dirty so the next checkpoint persists the encoded
    /// form. Returns the number of segments sealed by this call.
    pub fn seal_segments(&mut self) -> usize {
        let mut sealed = 0;
        for seg in 0..self.zones.len() {
            if !self.segment_needs_reseal(seg) {
                continue;
            }
            let enc = encode_segment(&self.columns, seg);
            if enc.encoded_cols() > 0 {
                self.zones[seg].mark_dirty();
            }
            self.encodings[seg] = Some(Arc::new(enc));
            self.deltas[seg] = fresh_delta(&mut self.next_epoch);
            sealed += 1;
        }
        sealed
    }

    /// The encoded form of segment `seg`, if it is sealed.
    #[inline]
    pub fn encoding(&self, seg: usize) -> Option<&SegmentEncoding> {
        self.encodings.get(seg).and_then(Option::as_deref)
    }

    /// Per-segment encodings, parallel to [`Table::zones`].
    pub fn encodings(&self) -> &[Option<Arc<SegmentEncoding>>] {
        &self.encodings
    }

    /// Segment-local offsets (sorted) whose sealed value was superseded by
    /// a write-through; scans over the encoding must re-read these rows
    /// from the flat chunks. Empty for unsealed or clean segments.
    #[inline]
    pub fn segment_stale(&self, seg: usize) -> &[u32] {
        self.deltas.get(seg).map_or(&[], |d| d.stale.as_slice())
    }

    /// The segment's delta epoch (see [`SegmentDelta`]).
    pub fn segment_epoch(&self, seg: usize) -> u64 {
        self.deltas.get(seg).map_or(0, |d| d.epoch)
    }

    /// The table-wide mutation epoch: the current value of the monotonic
    /// counter behind every per-segment delta epoch. Every row mutation —
    /// append, insert, delete, update — and every seal/compaction event
    /// advances it, so two reads returning the same epoch bracket a window
    /// with no changes to this table image. Derived caches (e.g. the
    /// server's denormalized-result cache) compare epochs to drop stale
    /// materializations instead of serving them. Not persisted: restarts
    /// from 0, so cross-boot comparisons are meaningless.
    pub fn epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Advances the table-wide mutation epoch (see [`Table::epoch`]).
    fn touch(&mut self) {
        self.next_epoch += 1;
    }

    /// Rows currently served from the flat write store instead of a sealed
    /// encoding, counted over segments a compaction pass would touch:
    /// stale rows plus unsealed overhang of sealed segments, plus every
    /// row of voided/unsealed segments. The compactor's backlog gauge.
    pub fn delta_rows(&self) -> u64 {
        let mut rows = 0u64;
        for seg in 0..self.zones.len() {
            if !self.segment_needs_reseal(seg) {
                continue;
            }
            let n = self.segment_range(seg).len();
            rows += match self.encodings[seg].as_deref().and_then(SegmentEncoding::covered_rows) {
                Some(covered) => (self.deltas[seg].stale.len() + (n - covered)) as u64,
                None => n as u64,
            };
        }
        rows
    }

    /// Encodes segment `seg` from its current flat chunks without touching
    /// the table — the compactor's read-only half. Pair with
    /// [`Table::install_compacted`] under the commit lock, quoting the
    /// [`Table::segment_epoch`] observed *before* this call.
    pub fn encode_segment_now(&self, seg: usize) -> SegmentEncoding {
        encode_segment(&self.columns, seg)
    }

    /// Installs a compaction result for segment `seg`, provided no value
    /// write raced it (`expected_epoch` still current) and it actually
    /// improves on the installed seal (clears stale rows or extends
    /// coverage). Returns whether the encoding was installed.
    pub fn install_compacted(
        &mut self,
        seg: usize,
        enc: SegmentEncoding,
        expected_epoch: u64,
    ) -> bool {
        if seg >= self.zones.len() || self.deltas[seg].epoch != expected_epoch {
            return false;
        }
        if enc.encoded_cols() == 0 {
            // Nothing encodable: flat stays canonical; voiding the slot to
            // `None` would just re-queue the segment forever, so seal it
            // raw-canonical to record the outcome.
            self.encodings[seg] = Some(Arc::new(enc));
            self.deltas[seg] = fresh_delta(&mut self.next_epoch);
            return true;
        }
        let offered = enc.covered_rows();
        let improves = match self.encodings[seg].as_deref() {
            None => true,
            Some(cur) => !self.deltas[seg].stale.is_empty() || cur.covered_rows() < offered,
        };
        if !improves {
            return false;
        }
        self.zones[seg].mark_dirty();
        self.encodings[seg] = Some(Arc::new(enc));
        self.deltas[seg] = fresh_delta(&mut self.next_epoch);
        true
    }

    /// Records a write-through to `row`: if its segment is sealed with an
    /// encoding that covers the row, the segment-local offset joins the
    /// stale set (scans patch it from the flat arrays) and the delta epoch
    /// advances; past [`STALE_LIMIT`] stale rows the seal is voided
    /// outright. Writes beyond the seal's coverage (appended overhang) only
    /// advance the epoch — scans already read those rows flat, but an
    /// in-flight compaction may have encoded the old value.
    fn note_value_write(&mut self, row: usize) {
        let (seg, off) = self.geo.locate(row);
        let covered = match self.encodings[seg].as_deref() {
            Some(e) if e.encoded_cols() > 0 => e.covered_rows().unwrap_or(0),
            _ => return,
        };
        self.deltas[seg].epoch = self.next_epoch;
        self.next_epoch += 1;
        if off >= covered {
            return;
        }
        let off = off as u32;
        let stale = &mut self.deltas[seg].stale;
        if let Err(pos) = stale.binary_search(&off) {
            Arc::make_mut(stale).insert(pos, off);
        }
        if stale.len() > STALE_LIMIT {
            self.encodings[seg] = None;
            self.deltas[seg].stale = Arc::default();
        }
    }

    /// Installs persisted segment encodings verbatim (the snapshot-v3 load
    /// path): segments arrive already sealed, so a re-seal after boot adds
    /// no work and no dirt.
    ///
    /// # Panics
    /// Panics if the encoding list does not match the segment count or a
    /// sealed segment's column arity.
    pub fn install_segment_encodings(&mut self, encodings: Vec<Option<SegmentEncoding>>) {
        assert_eq!(encodings.len(), self.zones.len(), "encoding count mismatch");
        for (seg, e) in encodings.iter().enumerate() {
            if let Some(e) = e {
                assert_eq!(e.cols.len(), self.schema.arity(), "encoding arity mismatch");
                for c in e.cols.iter().flatten() {
                    assert_eq!(c.len(), self.segment_range(seg).len(), "encoding length mismatch");
                }
            }
        }
        self.encodings = encodings.into_iter().map(|e| e.map(Arc::new)).collect();
        self.deltas = (0..self.zones.len()).map(|_| fresh_delta(&mut self.next_epoch)).collect();
    }

    /// Resident bytes of the column arrays as `(encoded, raw)`: `raw`
    /// counts every column at its flat in-memory width, `encoded` counts
    /// sealed columns at their compressed size and everything else flat.
    /// String heap payloads are excluded from both sides (strings are never
    /// encoding candidates).
    pub fn encoded_footprint(&self) -> (u64, u64) {
        let mut encoded = 0u64;
        let mut raw = 0u64;
        for seg in 0..self.segment_count() {
            let n = self.segment_range(seg).len() as u64;
            for (i, col) in self.columns.iter().enumerate() {
                let row_bytes = crate::encoded::raw_row_bytes(col) as u64;
                let flat = row_bytes * n;
                raw += flat;
                match self.encodings[seg].as_deref().and_then(|e| e.cols[i].as_ref()) {
                    // A partial seal still keeps its unsealed overhang flat.
                    Some(c) => encoded += c.bytes() as u64 + row_bytes * (n - c.len() as u64),
                    None => encoded += flat,
                }
            }
        }
        (encoded, raw)
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total number of slots, live or dead. Array indexes range over
    /// `0..num_slots()`.
    pub fn num_slots(&self) -> usize {
        self.live.len()
    }

    /// Number of live tuples (O(1): the live bitmap keeps the count).
    pub fn num_live(&self) -> usize {
        self.live.count_ones()
    }

    /// Returns `true` if slot `row` holds a live tuple.
    #[inline]
    pub fn is_live(&self, row: RowId) -> bool {
        self.live.get_or_false(row as usize)
    }

    /// Returns `true` if any slot is dead (scans must then consult
    /// [`Table::live_bitmap`]).
    pub fn has_deletes(&self) -> bool {
        self.live.count_ones() < self.num_slots()
    }

    /// The live bitmap (inverse delete vector), one `Arc`-held chunk of bits
    /// per segment.
    pub fn live_bitmap(&self) -> &SegBitmap {
        &self.live
    }

    /// A selection vector over all live slots.
    pub fn live_selvec(&self) -> SelVec {
        SelVec::from_rows(self.live.iter_ones().map(|i| i as RowId).collect())
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.schema.position(name).map(|i| &self.columns[i])
    }

    /// Mutable column by name. Raw mutable access bypasses zone-map
    /// maintenance, so the column's statistics are invalidated (set to
    /// `Untracked`) in every segment; call [`Table::rebuild_zone_maps`]
    /// afterwards to restore data skipping on it.
    pub fn column_mut(&mut self, name: &str) -> Option<&mut Column> {
        let i = self.schema.position(name)?;
        for z in &mut self.zones {
            z.untrack_column(i);
        }
        // Raw mutable access can rewrite any value: every seal is void and
        // every delta restarts (fresh epochs fence in-flight compactions).
        for e in &mut self.encodings {
            *e = None;
        }
        self.deltas = (0..self.zones.len()).map(|_| fresh_delta(&mut self.next_epoch)).collect();
        Some(&mut self.columns[i])
    }

    /// Appends a tuple at the end of every array, growing the family.
    /// Returns the new tuple's array index (= its primary key).
    ///
    /// # Panics
    /// Panics if `values` does not match the schema arity/types.
    pub fn append_row(&mut self, values: &[Value]) -> RowId {
        assert_eq!(values.len(), self.schema.arity(), "arity mismatch");
        self.touch();
        for (col, v) in self.columns.iter_mut().zip(values) {
            col.push(v);
        }
        let row = self.live.len();
        self.live.push(true);
        let seg = self.geo.segment_of(row);
        if seg == self.zones.len() {
            self.zones.push(SegmentZone::new(&self.schema));
            self.encodings.push(None);
            let d = fresh_delta(&mut self.next_epoch);
            self.deltas.push(d);
        }
        // An append never unseals: the existing seal keeps covering its
        // original prefix and the new row reads flat (overhang delta).
        self.zones[seg].note_append(&self.columns, row);
        row as RowId
    }

    /// Inserts a tuple, preferring a reusable dead slot over growing the
    /// arrays (paper §4.4). Returns the tuple's array index.
    pub fn insert(&mut self, values: &[Value]) -> RowId {
        if !self.free.is_empty() {
            let slot = Arc::make_mut(&mut self.free).pop().expect("free list is non-empty");
            assert_eq!(values.len(), self.schema.arity(), "arity mismatch");
            self.touch();
            for (col, v) in self.columns.iter_mut().zip(values) {
                col.set(slot as usize, v);
            }
            self.live.set(slot as usize, true);
            self.note_value_write(slot as usize);
            let seg = self.geo.segment_of(slot as usize);
            if self.zones[seg].note_reuse(&self.columns, slot as usize) >= REBUILD_AFTER_OPS {
                self.rebuild_zone(seg);
            }
            slot
        } else {
            self.append_row(values)
        }
    }

    /// Lazy deletion (paper §4.4): marks the slot dead in the delete vector
    /// and queues it for reuse. No data moves; inbound references to other
    /// slots stay valid.
    ///
    /// Returns `false` if the slot was already dead.
    pub fn delete(&mut self, row: RowId) -> bool {
        if !self.is_live(row) {
            return false;
        }
        self.touch();
        self.live.set(row as usize, false);
        Arc::make_mut(&mut self.free).push(row);
        // A delete never widens bounds (and never unseals — the encoded
        // values are unchanged), so it answers to the laxer decay
        // threshold: rebuild only once enough live-count decay piled up
        // that an exact pass can tighten bounds around the survivors.
        let seg = self.geo.segment_of(row as usize);
        if self.zones[seg].note_delete() >= DECAY_REBUILD_AFTER_OPS {
            self.rebuild_zone(seg);
        }
        true
    }

    /// In-place update of one field (paper §4.4: "A-Store applies in-place
    /// updating, so it can avoid modifying foreign keys"). The segment's
    /// zone map widens to cover the new value; after enough in-place
    /// updates accumulate, the zone is rebuilt exactly (lazy tightening).
    /// A sealed segment stays sealed: the row joins its stale delta and
    /// scans read it from the (always-current) flat arrays.
    ///
    /// # Panics
    /// Panics if the column does not exist or the slot is dead.
    pub fn update(&mut self, row: RowId, column: &str, value: &Value) {
        assert!(self.is_live(row), "cannot update dead slot {row}");
        self.touch();
        let i = self.schema.position(column).unwrap_or_else(|| panic!("no column {column:?}"));
        self.columns[i].set(row as usize, value);
        self.note_value_write(row as usize);
        let seg = self.geo.segment_of(row as usize);
        if self.zones[seg].note_update(i, &self.columns, row as usize) >= REBUILD_AFTER_OPS {
            self.rebuild_zone(seg);
        }
    }

    /// Reads a full tuple generically (test/debug path).
    pub fn row(&self, row: RowId) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(row as usize)).collect()
    }

    /// Reserves append capacity across the family (paper §4.4: "A-Store
    /// preserves a certain proportion of free space at the end of each
    /// array") — here, in each column's tail chunk.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            c.reserve(additional);
        }
    }

    /// Iterates `(name, column)` pairs.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.schema.defs().iter().map(|d| d.name.as_str()).zip(self.columns.iter())
    }

    /// Compacts the table: drops dead slots, renumbers the survivors, and
    /// returns the remap table `old slot -> new slot` (`None` for dead
    /// slots). The caller (see [`crate::catalog::Database::consolidate`])
    /// must rewrite inbound AIR columns with the remap — this is exactly the
    /// paper's "consolidation is an expensive operation, as it has to update
    /// all the references to the table".
    pub fn compact(&mut self) -> Vec<Option<RowId>> {
        let n = self.num_slots();
        let mut remap: Vec<Option<RowId>> = vec![None; n];
        let mut next: RowId = 0;
        for (old, slot) in remap.iter_mut().enumerate() {
            if self.live.get(old) {
                *slot = Some(next);
                next += 1;
            }
        }
        let live_rows: Vec<usize> = self.live.iter_ones().collect();
        let mut new_cols = Vec::with_capacity(self.columns.len());
        for (col, def) in self.columns.iter().zip(self.schema.defs()) {
            let mut fresh = Column::with_geometry(&def.dtype, self.geo);
            for &r in &live_rows {
                fresh.push(&col.get(r));
            }
            new_cols.push(fresh);
        }
        self.columns = new_cols;
        self.live = SegBitmap::filled(live_rows.len(), true, self.geo);
        self.free = Arc::default();
        self.rebuild_zone_maps();
        remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NULL_KEY;

    fn dim_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("d_year", DataType::I32),
            ColumnDef::new("d_month", DataType::Str),
        ])
    }

    #[test]
    fn schema_lookup() {
        let s = dim_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.position("d_month"), Some(1));
        assert_eq!(s.position("nope"), None);
        assert_eq!(s.def("d_year").unwrap().dtype, DataType::I32);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn schema_rejects_duplicates() {
        Schema::new(vec![ColumnDef::new("x", DataType::I32), ColumnDef::new("x", DataType::I64)]);
    }

    #[test]
    fn append_assigns_sequential_array_indexes() {
        let mut t = Table::new("date", dim_schema());
        let r0 = t.append_row(&[Value::Int(1997), Value::Str("May".into())]);
        let r1 = t.append_row(&[Value::Int(1998), Value::Str("June".into())]);
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(t.num_slots(), 2);
        assert_eq!(t.num_live(), 2);
        assert_eq!(t.row(1), vec![Value::Int(1998), Value::Str("June".into())]);
    }

    #[test]
    fn delete_is_lazy_and_slot_is_reused() {
        let mut t = Table::new("date", dim_schema());
        for y in 1992..1999 {
            t.append_row(&[Value::Int(y), Value::Str("Jan".into())]);
        }
        assert!(t.delete(3));
        assert!(!t.delete(3), "double delete reports false");
        assert!(!t.is_live(3));
        assert_eq!(t.num_slots(), 7, "lazy delete keeps the slot");
        assert_eq!(t.num_live(), 6);
        assert!(t.has_deletes());

        // The next insert reuses slot 3 instead of growing the arrays.
        let r = t.insert(&[Value::Int(2001), Value::Str("Feb".into())]);
        assert_eq!(r, 3);
        assert_eq!(t.num_slots(), 7);
        assert_eq!(t.num_live(), 7);
        assert_eq!(t.row(3), vec![Value::Int(2001), Value::Str("Feb".into())]);
    }

    #[test]
    fn update_in_place() {
        let mut t = Table::new("date", dim_schema());
        t.append_row(&[Value::Int(1992), Value::Str("Jan".into())]);
        t.update(0, "d_month", &Value::Str("December".into()));
        assert_eq!(t.row(0), vec![Value::Int(1992), Value::Str("December".into())]);
    }

    #[test]
    #[should_panic(expected = "dead slot")]
    fn update_dead_slot_panics() {
        let mut t = Table::new("date", dim_schema());
        t.append_row(&[Value::Int(1992), Value::Str("Jan".into())]);
        t.delete(0);
        t.update(0, "d_year", &Value::Int(2000));
    }

    #[test]
    fn from_columns_bulk_load() {
        let schema = Schema::new(vec![
            ColumnDef::new("k", DataType::Key { target: "dim".into() }),
            ColumnDef::new("v", DataType::I64),
        ]);
        let cols = vec![
            Column::Key { target: "dim".into(), keys: vec![0, 1, NULL_KEY].into() },
            Column::I64(vec![10, 20, 30].into()),
        ];
        let t = Table::from_columns("fact", schema, cols);
        assert_eq!(t.num_slots(), 3);
        assert_eq!(t.num_live(), 3);
        let (target, keys) = t.column("k").unwrap().as_key().unwrap();
        assert_eq!(target, "dim");
        assert_eq!(keys.len(), 3);
    }

    #[test]
    #[should_panic(expected = "misaligned")]
    fn from_columns_rejects_misaligned_family() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::I32),
            ColumnDef::new("b", DataType::I32),
        ]);
        Table::from_columns(
            "t",
            schema,
            vec![Column::I32(vec![1].into()), Column::I32(vec![1, 2].into())],
        );
    }

    #[test]
    fn from_parts_reproduces_slot_reuse() {
        let mut t = Table::new("date", dim_schema());
        for y in 1992..1997 {
            t.append_row(&[Value::Int(y), Value::Str("Jan".into())]);
        }
        t.delete(1);
        t.delete(3);
        let rebuilt = Table::from_parts(
            t.name().to_owned(),
            t.schema().clone(),
            (0..t.schema().arity()).map(|i| t.column_at(i).clone()).collect(),
            t.live_bitmap().to_bitmap(),
            t.free_slots().to_vec(),
        );
        assert_eq!(rebuilt.num_live(), t.num_live());
        assert_eq!(rebuilt.free_slots(), t.free_slots());
        // Both reuse the same slot next (the free list is order-preserved).
        let mut a = t;
        let mut b = rebuilt;
        let ra = a.insert(&[Value::Int(2000), Value::Str("Feb".into())]);
        let rb = b.insert(&[Value::Int(2000), Value::Str("Feb".into())]);
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "still live")]
    fn from_parts_rejects_live_free_slot() {
        let mut t = Table::new("date", dim_schema());
        t.append_row(&[Value::Int(1992), Value::Str("Jan".into())]);
        Table::from_parts(
            "bad",
            t.schema().clone(),
            (0..t.schema().arity()).map(|i| t.column_at(i).clone()).collect(),
            t.live_bitmap().to_bitmap(),
            vec![0],
        );
    }

    #[test]
    fn compact_renumbers_survivors() {
        let mut t = Table::new("dim", dim_schema());
        for y in 0..6 {
            t.append_row(&[Value::Int(y), Value::Str(format!("m{y}"))]);
        }
        t.delete(1);
        t.delete(4);
        let remap = t.compact();
        assert_eq!(remap, vec![Some(0), None, Some(1), Some(2), None, Some(3)]);
        assert_eq!(t.num_slots(), 4);
        assert_eq!(t.num_live(), 4);
        assert!(!t.has_deletes());
        assert_eq!(t.row(1), vec![Value::Int(2), Value::Str("m2".into())]);
        assert_eq!(t.row(3), vec![Value::Int(5), Value::Str("m5".into())]);
    }

    #[test]
    fn zone_maps_track_appends_per_segment() {
        let mut t = Table::new(
            "f",
            Schema::new(vec![
                ColumnDef::new("v", DataType::I64),
                ColumnDef::new("k", DataType::Key { target: "d".into() }),
            ]),
        );
        t.set_segment_rows(4);
        for i in 0..10i64 {
            let key = if i == 7 { Value::Key(NULL_KEY) } else { Value::Key(i as u32) };
            t.append_row(&[Value::Int(i * 10), key]);
        }
        assert_eq!(t.segment_count(), 3);
        assert_eq!(t.segment_range(1), 4..8);
        assert_eq!(t.segment_range(2), 8..10);
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 0, max: 30 });
        assert_eq!(t.zone(1).stat(0), &crate::segment::ZoneStats::Int { min: 40, max: 70 });
        assert_eq!(t.zone(1).stat(1), &crate::segment::ZoneStats::Key { min: 4, max: 6, nulls: 1 });
        assert_eq!(t.zone(2).live(), 2);
    }

    #[test]
    fn zone_maps_widen_on_update_and_shrink_live_on_delete() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(4);
        for i in 0..4i64 {
            t.append_row(&[Value::Int(i)]);
        }
        t.update(2, "v", &Value::Int(1000));
        // Widened, not rebuilt: old bound 0..=3 grows to cover 1000.
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 0, max: 1000 });
        t.delete(1);
        assert_eq!(t.zone(0).live(), 3);
        // Exact rebuild tightens back to the live values.
        t.rebuild_zone_maps();
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 0, max: 1000 });
        t.update(2, "v", &Value::Int(5));
        t.rebuild_zone_maps();
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 0, max: 5 });
    }

    #[test]
    fn zone_maps_survive_slot_reuse_and_compact() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(4);
        for i in 0..6i64 {
            t.append_row(&[Value::Int(i)]);
        }
        t.delete(0);
        let r = t.insert(&[Value::Int(-50)]);
        assert_eq!(r, 0, "slot reused");
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: -50, max: 3 });
        assert_eq!(t.zone(0).live(), 4);
        t.delete(5);
        t.compact();
        assert_eq!(t.segment_count(), 2);
        assert_eq!(t.zone(1).stat(0), &crate::segment::ZoneStats::Int { min: 4, max: 4 });
    }

    #[test]
    fn column_mut_untracks_the_column() {
        let mut t = Table::new(
            "f",
            Schema::new(vec![
                ColumnDef::new("a", DataType::I64),
                ColumnDef::new("b", DataType::I64),
            ]),
        );
        t.append_row(&[Value::Int(1), Value::Int(2)]);
        let _ = t.column_mut("a");
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Untracked);
        assert_eq!(t.zone(0).stat(1), &crate::segment::ZoneStats::Int { min: 2, max: 2 });
        t.rebuild_zone_maps();
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 1, max: 1 });
    }

    #[test]
    fn seal_encodes_and_mutations_go_to_the_delta() {
        let mut t = Table::new(
            "f",
            Schema::new(vec![
                ColumnDef::new("v", DataType::I64),
                ColumnDef::new("k", DataType::Key { target: "d".into() }),
            ]),
        );
        t.set_segment_rows(64);
        for i in 0..200i64 {
            t.append_row(&[Value::Int(i % 16), Value::Key((i % 8) as u32)]);
        }
        assert_eq!(t.seal_segments(), 4);
        assert_eq!(t.seal_segments(), 0, "re-seal is a no-op");
        for seg in 0..t.segment_count() {
            let enc = t.encoding(seg).expect("sealed");
            assert!(enc.encoded_cols() > 0, "small domains must encode");
            // Decode reproduces the raw arrays exactly, dead or alive.
            for (i, col) in [0usize, 1].iter().map(|&i| (i, t.column_at(i))) {
                let e = enc.cols[i].as_ref().unwrap();
                for (off, row) in t.segment_range(seg).enumerate() {
                    assert_eq!(Some(e.value_at(off)), col.int_at(row));
                }
            }
        }
        let (encoded, raw) = t.encoded_footprint();
        assert!(encoded < raw, "sealed footprint must shrink: {encoded} vs {raw}");

        // A delete keeps the seal (values unchanged) and records no delta …
        t.delete(10);
        assert!(t.encoding(0).is_some());
        assert!(t.segment_stale(0).is_empty());
        // … an update keeps the seal too: the row goes stale, the flat
        // array is current, and the segment now needs a reseal.
        let epoch_before = t.segment_epoch(0);
        t.update(11, "v", &Value::Int(7));
        assert!(t.encoding(0).is_some(), "update writes through, seal survives");
        assert_eq!(t.segment_stale(0), &[11]);
        assert!(t.segment_epoch(0) > epoch_before, "value write advances the epoch");
        assert!(t.segment_needs_reseal(0));
        assert!(!t.segment_needs_reseal(1));
        assert_eq!(t.row(11)[0], Value::Int(7), "flat read sees the new value");
        // A reuse-insert joins the same stale set (slot 10, before 11).
        t.insert(&[Value::Int(1), Value::Key(1)]); // reuses slot 10 in seg 0
        assert_eq!(t.segment_stale(0), &[10, 11]);
        assert_eq!(t.delta_rows(), 2);
        t.seal_segments();
        assert!(t.segment_stale(0).is_empty(), "reseal clears the delta");
        // An append keeps the tail seal covering its original prefix.
        t.append_row(&[Value::Int(1), Value::Key(1)]);
        let last = t.segment_count() - 1;
        assert!(t.encoding(last).is_some(), "append never unseals");
        assert!(t.segment_needs_reseal(last), "but the overhang needs compacting");
        assert_eq!(t.delta_rows(), 1, "one overhang row");
        // Raw column access voids every seal.
        let _ = t.column_mut("v");
        assert!(t.encodings().iter().all(Option::is_none));
        assert!((0..t.segment_count()).all(|s| t.segment_stale(s).is_empty()));
    }

    #[test]
    fn stale_limit_voids_the_seal() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(4096);
        for i in 0..4096i64 {
            t.append_row(&[Value::Int(i % 7)]);
        }
        t.seal_segments();
        for r in 0..STALE_LIMIT as u32 {
            t.update(r, "v", &Value::Int(1));
        }
        assert!(t.encoding(0).is_some(), "at the limit the seal holds");
        assert_eq!(t.segment_stale(0).len(), STALE_LIMIT);
        t.update(STALE_LIMIT as u32, "v", &Value::Int(1));
        assert!(t.encoding(0).is_none(), "past the limit the seal is voided");
        assert!(t.segment_stale(0).is_empty());
    }

    #[test]
    fn compaction_install_is_fenced_by_the_epoch() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(64);
        for i in 0..64i64 {
            t.append_row(&[Value::Int(i % 5)]);
        }
        t.seal_segments();
        t.update(3, "v", &Value::Int(2)); // segment now needs a reseal
        assert!(t.segment_needs_reseal(0));

        // Compactor reads epoch, encodes, then a write races in.
        let epoch = t.segment_epoch(0);
        let enc = t.encode_segment_now(0);
        t.update(4, "v", &Value::Int(1));
        assert!(!t.install_compacted(0, enc, epoch), "raced install must be refused");
        assert_eq!(t.segment_stale(0), &[3, 4], "stale set untouched by the refusal");

        // Second attempt with no interleaved write succeeds and clears it.
        let epoch = t.segment_epoch(0);
        let enc = t.encode_segment_now(0);
        assert!(t.install_compacted(0, enc, epoch));
        assert!(t.segment_stale(0).is_empty());
        assert!(!t.segment_needs_reseal(0));
        // The installed encoding matches the flat arrays exactly.
        let e = t.encoding(0).unwrap().cols[0].as_ref().unwrap();
        for row in 0..64usize {
            assert_eq!(Some(e.value_at(row)), t.column_at(0).int_at(row));
        }
    }

    #[test]
    fn small_deltas_are_not_worth_a_background_re_encode() {
        const SEG: usize = 16_384;
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(SEG);
        let append = |t: &mut Table, n: usize| {
            for _ in 0..n {
                t.append_row(&[Value::Int(3)]);
            }
        };
        append(&mut t, SEG);
        assert!(t.segment_worth_compacting(0), "an unsealed segment is always worth it");
        t.seal_segments();
        assert!(!t.segment_worth_compacting(0), "a clean seal needs nothing");

        // Stale rows: one below the threshold waits, at the threshold folds.
        for r in 0..COMPACT_MIN_STALE as u32 - 1 {
            t.update(r, "v", &Value::Int(1));
        }
        assert!(t.segment_needs_reseal(0));
        assert!(!t.segment_worth_compacting(0), "{} stale rows wait", COMPACT_MIN_STALE - 1);
        t.update(COMPACT_MIN_STALE as u32 - 1, "v", &Value::Int(1));
        assert!(t.segment_worth_compacting(0), "{COMPACT_MIN_STALE} stale rows fold");
        assert_eq!(t.seal_segments(), 1, "a checkpoint seal folds any delta");

        // Overhang of a segment still filling: same two sides.
        append(&mut t, 100);
        t.seal_segments(); // segment 1 sealed over its first 100 rows
        append(&mut t, COMPACT_MIN_OVERHANG - 1);
        assert!(t.segment_needs_reseal(1));
        assert!(!t.segment_worth_compacting(1), "a short overhang of a filling segment waits");
        append(&mut t, 1);
        assert!(t.segment_worth_compacting(1), "{COMPACT_MIN_OVERHANG} overhang rows fold");

        // A completed segment folds whatever its overhang: it will not grow.
        t.seal_segments();
        append(&mut t, SEG - (100 + COMPACT_MIN_OVERHANG) - 1);
        t.seal_segments(); // one row short of full
        append(&mut t, 1);
        assert_eq!(t.segment_range(1).len(), SEG);
        assert!(t.segment_worth_compacting(1), "one overhang row completes the segment");
    }

    #[test]
    fn sealing_marks_zone_dirty_for_checkpointing() {
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(32);
        for i in 0..64i64 {
            t.append_row(&[Value::Int(i % 4)]);
        }
        t.mark_segments_clean();
        assert!(t.zones().iter().all(|z| !z.is_dirty()));
        t.seal_segments();
        assert!(
            t.zones().iter().all(SegmentZone::is_dirty),
            "a seal changes the persisted form, so the checkpoint must see it"
        );
        // Clean → install the same encodings (the load path) → re-seal: no dirt.
        t.mark_segments_clean();
        let encs: Vec<Option<SegmentEncoding>> =
            t.encodings().iter().map(|e| e.as_deref().cloned()).collect();
        t.install_segment_encodings(encs);
        t.seal_segments();
        assert!(t.zones().iter().all(|z| !z.is_dirty()));
    }

    #[test]
    fn delete_burst_does_not_churn_rebuilds() {
        // 10K deletes in one segment: the old behaviour counted them toward
        // the widening threshold (4096) and rebuilt the zone repeatedly; the
        // decay threshold (16384) must absorb the whole burst.
        let mut t = Table::new("f", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.set_segment_rows(32768);
        for i in 0..20_000i64 {
            t.append_row(&[Value::Int(i)]);
        }
        for r in 0..10_000u32 {
            t.delete(r);
        }
        assert_eq!(t.zone(0).decayed_ops(), 10_000, "no rebuild reset the counter");
        assert_eq!(t.zone(0).imprecise_ops(), 0, "deletes no longer count as widening");
        // Bounds still cover the deleted values (no rebuild happened) …
        assert_eq!(t.zone(0).stat(0), &crate::segment::ZoneStats::Int { min: 0, max: 19_999 });
        // … and deletes never force a widening-triggered rebuild on the
        // next update (the regression: one update after a burst rebuilt).
        t.update(15_000, "v", &Value::Int(3));
        assert_eq!(t.zone(0).imprecise_ops(), 1);
        // Crossing the decay threshold does rebuild (once), tightening
        // bounds around the survivors.
        for r in 10_000..DECAY_REBUILD_AFTER_OPS {
            t.delete(r);
        }
        assert_eq!(t.zone(0).decayed_ops(), 0, "threshold crossing rebuilt the zone");
        assert_eq!(
            t.zone(0).stat(0),
            &crate::segment::ZoneStats::Int { min: 16_384, max: 19_999 },
            "rebuild tightened the bounds past the deleted prefix"
        );
    }

    #[test]
    fn every_mutation_advances_the_table_epoch() {
        let mut t = Table::new("date", dim_schema());
        let e0 = t.epoch();
        t.append_row(&[Value::Int(1992), Value::Str("Jan".into())]);
        let e1 = t.epoch();
        assert!(e1 > e0, "append bumps");
        t.update(0, "d_month", &Value::Str("Feb".into()));
        let e2 = t.epoch();
        assert!(e2 > e1, "update bumps (even unsealed)");
        t.delete(0);
        let e3 = t.epoch();
        assert!(e3 > e2, "delete bumps");
        t.insert(&[Value::Int(1993), Value::Str("Mar".into())]);
        let e4 = t.epoch();
        assert!(e4 > e3, "reuse-insert bumps");
        // A pure read leaves it alone.
        let _ = t.row(0);
        assert_eq!(t.epoch(), e4);
    }

    #[test]
    fn live_selvec_skips_dead() {
        let mut t = Table::new("dim", dim_schema());
        for y in 0..5 {
            t.append_row(&[Value::Int(y), Value::Str("m".into())]);
        }
        t.delete(0);
        t.delete(4);
        assert_eq!(t.live_selvec().rows(), &[1, 2, 3]);
    }
}
