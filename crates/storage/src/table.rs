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
//! ([`crate::bitmap::SegBitmap`]) and its zone statistics. Table-wide state
//! that writes touch — string heaps, dictionaries, the free-slot list, the
//! schema — is `Arc`-shared the same way. Cloning a `Table` (what a writer
//! does while any snapshot holds the current image, see
//! [`crate::snapshot`]) is therefore O(columns × segments) reference-count
//! bumps and copies no row data.
//!
//! ## One representation per chunk
//!
//! Every (column, segment) chunk is resident in exactly one form: flat, or
//! — once **sealed** — the compressed encoding that replaced it (see
//! [`crate::chunks`], [`crate::encoded`]). [`Table::seal_segments`] swaps
//! every flat chunk for its encoding where that is strictly smaller; the
//! bulk-load builders and the snapshot loader produce encoded chunks
//! directly. What a write then copies or decodes:
//!
//! | write | touched chunks | each is … |
//! |---|---|---|
//! | `update` of one field | that column's chunk of the row's segment | **decoded** into a fresh flat chunk if it was encoded; **copied** if flat and a snapshot shares it; written in place otherwise (a string value also copies the heap's active slab, ≤ 1 MiB; a *new* dictionary value: the dictionary) |
//! | `append_row` / `insert` at the end | the next free slot of every column's **tail** chunk, and the tail's live bits | **written into the space reserved behind the tail** ([`crate::appendbuf`]): no column chunk is copied and the tail stays shared with every snapshot, which keeps reading its own shorter prefix. Only when that is impossible — the reserved space is used up, the tail was sealed partial, or another clone of the table extended it first — is the tail copied once into a buffer of twice the rows ([`Table::append_copies`] counts these). The live bits (≤ 8 KiB) are copied if shared |
//! | `insert` reusing a dead slot | every column's chunk of that slot's segment, its live bits, the free-slot list | as `update`, per column |
//! | `delete` | the row's segment's live bits (8 KiB) and the free-slot list | copied if shared; no column chunk is touched, encoded or not |
//!
//! A decode *is* the copy copy-on-write would have paid for a shared flat
//! chunk, so nothing a write costs grows with the number of segments: a
//! committed write is bounded by the segments it touches — an append, by
//! the row it adds — not by the table's size. Every other chunk stays
//! pointer-identical between the old image and the new one
//! ([`crate::column::Column::shares_chunk`] observes it), and so does an
//! appended-to tail. A value write leaves its segment **unsealed**
//! ([`Table::segment_written`]) until the next seal or compaction install
//! ([`Table::install_compacted`]) puts the flat chunks back in encoded
//! form.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::{Bitmap, SegBitmap};
use crate::chunks::{ChunkHandle, Geometry};
use crate::column::Column;
use crate::encoded::EncodedColumn;
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

/// The compactor's read-only half for one segment
/// ([`Table::encode_segment_now`]): the number of rows it read, a hold on
/// every column chunk it read and, for each chunk that was resident flat
/// and has one, its strictly smaller encoding. Rows and holds are what
/// [`Table::install_compacted`] checks: while the holds exist every
/// overwrite in the segment installs a new chunk allocation and every
/// append adds a row, so "every chunk is still the one that was read, at
/// the length it was read" proves no value write raced the encode.
#[derive(Debug)]
pub struct SegmentEncoding {
    rows: usize,
    cols: Vec<(ChunkHandle, Option<EncodedColumn>)>,
}

impl SegmentEncoding {
    /// Number of chunks this pass found a smaller encoding for.
    pub fn encoded_cols(&self) -> usize {
        self.cols.iter().filter(|(_, enc)| enc.is_some()).count()
    }
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
    /// Per segment, parallel to `zones`: the table epoch of the latest value
    /// write (update, slot-reusing insert, append) since the segment was
    /// last sealed, `0` = sealed — nothing was written since a seal looked
    /// at every chunk, so whatever is flat has no smaller encoding.
    written: Vec<u64>,
    /// Column tail chunks copied by appends so far (see
    /// [`Table::append_copies`]).
    append_copies: u64,
    /// Monotonic mutation counter (see [`Table::epoch`]); never `0` once a
    /// row was written, so `0` is free to mean "sealed" in `written`.
    epoch: u64,
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
            written: Vec::new(),
            append_copies: 0,
            epoch: 0,
        }
    }

    /// Rebuilds a table from persisted parts *including* its persisted zone
    /// maps (the snapshot-v2/v3 load path): the zone maps are trusted
    /// verbatim instead of recomputed, so a warm boot prunes immediately and
    /// a re-save reproduces the same bytes. Loaded segments are clean.
    /// Columns built in `seg_rows`-row chunks are adopted as they are —
    /// encoded chunks stay encoded. Every segment comes up unsealed: the
    /// next seal looks at whatever was loaded flat (and, finding nothing to
    /// change in a segment, leaves it clean).
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
        t.touch();
        t.written = vec![t.epoch; zones.len()];
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
    /// Segment geometry may have changed, so every segment also counts as
    /// unsealed again.
    pub fn rebuild_zone_maps(&mut self) {
        let nsegs = self.geo.segments_for(self.num_slots());
        self.touch();
        self.written = vec![self.epoch; nsegs];
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

    /// The table epoch of the latest value write (update, slot-reusing
    /// insert, append) into segment `seg` since it was last sealed, or
    /// `None` if it is sealed: every chunk that has a smaller encoding is
    /// resident in it. Deletes touch live bits only and do not unseal. A
    /// compactor that sees the same stamp twice, a quiet period apart,
    /// knows nothing wrote to the segment in between.
    pub fn segment_written(&self, seg: usize) -> Option<u64> {
        self.written.get(seg).copied().filter(|&stamp| stamp != 0)
    }

    /// Seals every unsealed segment: each of its flat chunks is replaced by
    /// its compressed encoding where that is strictly smaller (see
    /// [`crate::encoded`]) — partial tail included (the rows this image
    /// sees of it, whatever its buffer took since), which the next append
    /// decodes again. Sealed segments are untouched, so sealing twice is a
    /// no-op. A segment that changed representation is marked dirty so the
    /// next checkpoint persists the encoded form. Returns the number of
    /// segments sealed by this call.
    pub fn seal_segments(&mut self) -> usize {
        let mut sealed = 0;
        for seg in 0..self.zones.len() {
            if self.written[seg] == 0 {
                continue;
            }
            let mut changed = false;
            for col in &mut self.columns {
                changed |= col.seal_chunk(seg);
            }
            if changed {
                self.zones[seg].mark_dirty();
            }
            self.written[seg] = 0;
            sealed += 1;
        }
        sealed
    }

    /// The table-wide mutation epoch: a monotonic counter every row
    /// mutation — append, insert, delete, update — advances, so two reads
    /// returning the same epoch bracket a window with no changes to this
    /// table's contents (seals and compaction installs change a chunk's
    /// representation, never a value, and leave it alone). Derived caches
    /// (e.g. the server's denormalized-result cache) compare epochs to drop
    /// stale materializations instead of serving them. Not persisted:
    /// restarts from 0, so cross-boot comparisons are meaningless.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// How many column tail chunks appends have had to copy since this
    /// table was built — one per (append, column) whose tail could not
    /// take the row in place: its reserved space was used up, it was
    /// sealed partial, or another clone of the table extended it first
    /// (see [`crate::chunks::Chunked::push`]). Carried from image to image
    /// like the epoch, not persisted. An append stream against held
    /// snapshots moves it O(log segment rows) times per column and
    /// segment, not once per append.
    pub fn append_copies(&self) -> u64 {
        self.append_copies
    }

    /// Advances the table-wide mutation epoch (see [`Table::epoch`]).
    fn touch(&mut self) {
        self.epoch += 1;
    }

    /// Advances the epoch and stamps segment `seg` as written at it.
    fn touch_segment(&mut self, seg: usize) {
        self.touch();
        self.written[seg] = self.epoch;
    }

    /// Chunks currently resident flat, as `(chunks, bytes)` — the part of
    /// [`Table::encoded_footprint`]'s first component that a seal could
    /// still shrink or that has no smaller form (floats, string slots).
    /// Bytes count visible rows: the space reserved behind a filling tail
    /// is address space until an append touches it.
    pub fn flat_chunks(&self) -> (u64, u64) {
        let (mut chunks, mut bytes) = (0u64, 0u64);
        for seg in 0..self.segment_count() {
            for col in self.columns.iter().filter(|c| c.chunk_encoding(seg).is_none()) {
                chunks += 1;
                bytes += col.chunk_bytes(seg).0 as u64;
            }
        }
        (chunks, bytes)
    }

    /// Encodes the flat chunks of segment `seg` without touching the table
    /// — the compactor's read-only half, run off every lock against a
    /// snapshot. Pair with [`Table::install_compacted`] under the commit
    /// lock.
    pub fn encode_segment_now(&self, seg: usize) -> SegmentEncoding {
        SegmentEncoding {
            rows: self.segment_range(seg).len(),
            cols: self.columns.iter().map(|c| (c.chunk_handle(seg), c.encode_chunk(seg))).collect(),
        }
    }

    /// Installs a compaction result for segment `seg`, provided the segment
    /// still has the rows the encode read and every chunk of it is still
    /// the allocation the encode read (see [`SegmentEncoding`]) — an
    /// overwrite in between replaced at least one chunk, an append added a
    /// row, and the whole result is refused; the segment stays unsealed and
    /// is picked up again. Returns whether the result was installed.
    pub fn install_compacted(&mut self, seg: usize, enc: SegmentEncoding) -> bool {
        let current = seg < self.zones.len()
            && enc.rows == self.segment_range(seg).len()
            && enc.cols.len() == self.columns.len()
            && self.columns.iter().zip(&enc.cols).all(|(c, (read, _))| c.holds_chunk(seg, read));
        if !current {
            return false;
        }
        if enc.encoded_cols() > 0 {
            self.zones[seg].mark_dirty();
        }
        for (col, (_, enc)) in self.columns.iter_mut().zip(enc.cols) {
            if let Some(enc) = enc {
                col.install_chunk(seg, enc);
            }
        }
        // Nothing encodable left flat: sealed (also when nothing was
        // encodable at all — recording that stops the retries).
        self.written[seg] = 0;
        true
    }

    /// A copy of the table with every chunk decoded flat and every segment
    /// unsealed: the flat oracle the differential tests run beside the
    /// encoded table.
    pub fn decoded(&self) -> Table {
        let mut t = self.clone();
        t.columns.iter_mut().for_each(Column::decode_all);
        t.touch();
        t.written.fill(t.epoch);
        t
    }

    /// Bytes of the column arrays as `(resident, raw)`: `resident` counts
    /// every chunk at the size of the one representation it is held in
    /// (encoded or flat), `raw` counts every chunk at its flat in-memory
    /// width. String heap payloads are excluded from both sides (strings
    /// are never encoding candidates).
    pub fn encoded_footprint(&self) -> (u64, u64) {
        let (mut resident, mut raw) = (0u64, 0u64);
        for seg in 0..self.segment_count() {
            for col in &self.columns {
                let (held, flat) = col.chunk_bytes(seg);
                resident += held as u64;
                raw += flat as u64;
            }
        }
        (resident, raw)
    }

    /// Heap bytes of the table's string payloads as `(dictionaries, string
    /// heaps)` — what [`Table::encoded_footprint`] leaves out — each by
    /// *capacity* ([`Dictionary::heap_bytes`], [`StrColumn::heap_capacity_bytes`]),
    /// so room held and never used shows up.
    ///
    /// [`Dictionary::heap_bytes`]: crate::dictionary::Dictionary::heap_bytes
    /// [`StrColumn::heap_capacity_bytes`]: crate::strings::StrColumn::heap_capacity_bytes
    pub fn string_footprint(&self) -> (u64, u64) {
        let (mut dicts, mut heaps) = (0u64, 0u64);
        for col in &self.columns {
            match col {
                Column::Dict(c) => dicts += c.dict().heap_bytes() as u64,
                Column::Str(c) => heaps += c.heap_capacity_bytes() as u64,
                _ => {}
            }
        }
        (dicts, heaps)
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
        // Raw mutable access can rewrite any value: every segment counts as
        // written.
        self.touch();
        self.written.fill(self.epoch);
        Some(&mut self.columns[i])
    }

    /// Appends a tuple at the end of every array, growing the family.
    /// Returns the new tuple's array index (= its primary key).
    ///
    /// # Panics
    /// Panics if `values` does not match the schema arity/types.
    pub fn append_row(&mut self, values: &[Value]) -> RowId {
        assert_eq!(values.len(), self.schema.arity(), "arity mismatch");
        for (col, v) in self.columns.iter_mut().zip(values) {
            self.append_copies += u64::from(col.push(v));
        }
        let row = self.live.len();
        self.live.push(true);
        let seg = self.geo.segment_of(row);
        if seg == self.zones.len() {
            self.zones.push(SegmentZone::new(&self.schema));
            self.written.push(0);
        }
        self.touch_segment(seg);
        self.zones[seg].note_append(&self.columns, row);
        row as RowId
    }

    /// Inserts a tuple, preferring a reusable dead slot over growing the
    /// arrays (paper §4.4). Returns the tuple's array index.
    pub fn insert(&mut self, values: &[Value]) -> RowId {
        if !self.free.is_empty() {
            let slot = Arc::make_mut(&mut self.free).pop().expect("free list is non-empty");
            assert_eq!(values.len(), self.schema.arity(), "arity mismatch");
            for (col, v) in self.columns.iter_mut().zip(values) {
                col.set(slot as usize, v);
            }
            self.live.set(slot as usize, true);
            let seg = self.geo.segment_of(slot as usize);
            self.touch_segment(seg);
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
        // A delete never widens bounds (and never unseals — no column
        // chunk is touched), so it answers to the laxer decay
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
    /// An encoded chunk is decoded first (see the module docs) and the
    /// segment counts as unsealed until the next seal or compaction.
    ///
    /// # Panics
    /// Panics if the column does not exist or the slot is dead.
    pub fn update(&mut self, row: RowId, column: &str, value: &Value) {
        assert!(self.is_live(row), "cannot update dead slot {row}");
        let i = self.schema.position(column).unwrap_or_else(|| panic!("no column {column:?}"));
        self.columns[i].set(row as usize, value);
        let seg = self.geo.segment_of(row as usize);
        self.touch_segment(seg);
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
    /// array") — here, behind each column's tail chunk, up to the segment
    /// boundary: the next `additional` appends copy no column chunk.
    /// Appends reserve for themselves as well (each tail copy doubles the
    /// space); this sizes it up front.
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
            fresh.extend_from_rows(col, &live_rows);
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

    fn sealable() -> Table {
        let mut t = Table::new(
            "f",
            Schema::new(vec![
                ColumnDef::new("v", DataType::I64),
                ColumnDef::new("k", DataType::Key { target: "d".into() }),
                ColumnDef::new("x", DataType::F64),
            ]),
        );
        t.set_segment_rows(64);
        for i in 0..200i64 {
            t.append_row(&[Value::Int(i % 16), Value::Key((i % 8) as u32), Value::Float(i as f64)]);
        }
        t
    }

    fn encoded(t: &Table, col: usize, seg: usize) -> bool {
        t.column_at(col).chunk_encoding(seg).is_some()
    }

    #[test]
    fn seal_replaces_flat_chunks_and_a_write_decodes_the_one_it_touches() {
        let mut t = sealable();
        let flat = t.clone();
        assert_eq!(t.encoded_footprint().0, t.encoded_footprint().1, "all flat: resident = raw");
        assert_eq!(t.flat_chunks().0, 12);
        assert_eq!(t.seal_segments(), 4);
        assert_eq!(t.seal_segments(), 0, "re-seal is a no-op");
        for seg in 0..t.segment_count() {
            assert!(t.segment_written(seg).is_none());
            assert!(encoded(&t, 0, seg) && encoded(&t, 1, seg), "small domains must encode");
            assert!(!encoded(&t, 2, seg), "floats stay flat");
            // Decode reproduces the raw arrays exactly, dead or alive.
            for row in t.segment_range(seg) {
                assert_eq!(t.row(row as RowId), flat.row(row as RowId));
            }
        }
        let (resident, raw) = t.encoded_footprint();
        assert!(resident < raw, "sealed footprint must shrink: {resident} vs {raw}");
        assert_eq!(raw, flat.encoded_footprint().1);
        assert_eq!(t.flat_chunks(), (4, 200 * 8), "only the float chunks are held flat");

        // A delete touches no chunk and does not unseal …
        let sealed = t.clone();
        t.delete(10);
        assert!(t.segment_written(0).is_none());
        assert!((0..3).all(|c| t.column_at(c).shares_chunk(sealed.column_at(c), 0)));
        // … an update decodes exactly the chunk it lands in.
        t.update(11, "v", &Value::Int(7));
        assert!(!encoded(&t, 0, 0) && encoded(&t, 1, 0), "one column of one segment went flat");
        assert!(encoded(&t, 0, 1));
        assert!(t.column_at(1).shares_chunk(sealed.column_at(1), 0));
        assert!(t.segment_written(0).is_some() && t.segment_written(1).is_none());
        assert_eq!(t.row(11)[0], Value::Int(7));
        assert_eq!(sealed.row(11)[0], Value::Int(11), "the snapshot keeps its encoded chunk");
        // A reuse-insert decodes every column's chunk of its segment.
        t.insert(&[Value::Int(1), Value::Key(1), Value::Float(0.5)]); // reuses slot 10
        assert!(!encoded(&t, 1, 0));
        assert_eq!(t.seal_segments(), 1, "only the written segment is looked at again");
        assert!(encoded(&t, 0, 0) && encoded(&t, 1, 0));
        // An append decodes the sealed partial tail and leaves it flat.
        let last = t.segment_count() - 1;
        assert!(encoded(&t, 0, last));
        t.append_row(&[Value::Int(1), Value::Key(1), Value::Float(0.0)]);
        assert!(!encoded(&t, 0, last) && t.segment_written(last).is_some());
        assert_eq!(t.row(200)[0], Value::Int(1));
        // Raw column access unseals everything (without decoding).
        t.seal_segments();
        let _ = t.column_mut("v");
        assert!((0..t.segment_count()).all(|s| t.segment_written(s).is_some()));
        // The decoded copy is all flat and equal.
        t.seal_segments();
        let d = t.decoded();
        assert_eq!(d.encoded_footprint().0, d.encoded_footprint().1);
        assert!((0..t.num_slots() as RowId).all(|r| d.row(r) == t.row(r)));
        assert_eq!(d.epoch(), t.epoch() + 1);
    }

    #[test]
    fn compaction_install_is_refused_after_a_raced_write() {
        let mut t = sealable();
        t.seal_segments();
        t.update(3, "v", &Value::Int(2)); // column v of segment 0 is flat now
        assert!(t.segment_written(0).is_some());

        // The compactor encodes, then a write to *another* column races in:
        // the hold the encoding keeps on that chunk forces the write to
        // install a new one, and the whole result is refused.
        let enc = t.encode_segment_now(0);
        assert_eq!(enc.encoded_cols(), 1);
        t.update(4, "k", &Value::Key(1));
        assert!(!t.install_compacted(0, enc), "raced install must be refused");
        assert!(!encoded(&t, 0, 0) && !encoded(&t, 1, 0));
        assert!(t.segment_written(0).is_some());

        // A delete in between touches no chunk and does not refuse it.
        let enc = t.encode_segment_now(0);
        assert_eq!(enc.encoded_cols(), 2);
        t.delete(5);
        t.mark_segments_clean();
        assert!(t.install_compacted(0, enc));
        assert!(encoded(&t, 0, 0) && encoded(&t, 1, 0));
        assert!(t.segment_written(0).is_none());
        assert!(t.zone(0).is_dirty(), "the persisted form of the segment changed");
        assert_eq!(t.row(3)[0], Value::Int(2));
        assert_eq!(t.row(4)[1], Value::Key(1));

        // A segment with nothing left to encode is recorded as sealed too.
        t.update(70, "x", &Value::Float(1.0));
        let enc = t.encode_segment_now(1);
        assert_eq!(enc.encoded_cols(), 0);
        assert!(t.install_compacted(1, enc));
        assert!(t.segment_written(1).is_none());
        // Out of range: refused.
        let enc = t.encode_segment_now(0);
        assert!(!t.install_compacted(9, enc));
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
        // Clean → reload the same columns with their zones (the load path)
        // → re-seal: nothing changes representation, no dirt.
        let zones: Vec<SegmentZone> = t
            .zones()
            .iter()
            .map(|z| SegmentZone::from_parts(z.stats().to_vec(), z.live()))
            .collect();
        let mut loaded = Table::from_parts_with_zones(
            "f",
            t.schema().clone(),
            vec![t.column_at(0).clone()],
            t.live_bitmap().to_bitmap(),
            Vec::new(),
            32,
            zones,
        );
        assert_eq!(loaded.seal_segments(), 2);
        assert!(loaded.zones().iter().all(|z| !z.is_dirty()));
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
        assert!(e2 > e1, "update bumps");
        t.delete(0);
        let e3 = t.epoch();
        assert!(e3 > e2, "delete bumps");
        t.insert(&[Value::Int(1993), Value::Str("Mar".into())]);
        let e4 = t.epoch();
        assert!(e4 > e3, "reuse-insert bumps");
        // A pure read leaves it alone, and so does a seal: the contents
        // are the same.
        let _ = t.row(0);
        t.seal_segments();
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
