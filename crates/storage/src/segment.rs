//! Fixed-size row segments and their zone maps.
//!
//! A [`crate::table::Table`] is one array family cut into a sequence of
//! fixed-size **segments** of [`SEGMENT_ROWS`] rows (the last one may be
//! partial) — the unit of data skipping, of sealing, and of copy-on-write
//! ownership (every column stores one chunk per segment, see
//! [`crate::chunks`]). Each segment carries a [`SegmentZone`]: per-column
//! min/max statistics for numeric and AIR key columns, the NULL-reference
//! count of key columns, and the segment's live-tuple count. Scans consult
//! zone maps to *skip* whole segments whose value ranges cannot satisfy a
//! predicate — the classic zone-map / small-materialized-aggregate form of
//! data skipping, layered under the paper's three-phase AIRScan so that
//! selective queries never touch most of the fact table.
//!
//! Maintenance is incremental and always *sound*: appends, slot-reusing
//! inserts and in-place updates only ever **widen** a segment's bounds, and
//! deletes only decrement its live count, so a zone map may overstate but
//! never understate what a segment can contain. Repeated in-place mutation
//! makes bounds drift loose; the table rebuilds a segment's statistics
//! exactly (lazily, after enough imprecise operations accumulate — see
//! [`crate::table::Table::update`]).

use std::sync::Arc;

use crate::bitmap::{Bitmap, SegBitmap};
use crate::column::Column;
use crate::encoded::ChunkValue;
use crate::table::Schema;
use crate::types::{DataType, Key, NULL_KEY};

/// Default rows per segment: 64K, deliberately equal to the executor's
/// default morsel size so one dispatched morsel is one prunable segment.
pub const SEGMENT_ROWS: usize = 1 << 16;

/// In-place widening operations a segment tolerates before its zone map is
/// rebuilt exactly (see [`crate::table::Table::update`]).
pub(crate) const REBUILD_AFTER_OPS: u32 = 4096;

/// Deletes a segment tolerates before its zone map is rebuilt exactly.
/// Deliberately much laxer than [`REBUILD_AFTER_OPS`]: a delete never
/// *widens* the bounds (the dead row's values were already inside them), so
/// a rebuild only helps once enough live-count decay has accumulated that
/// the bounds overstate what is still selectable. Counting deletes toward
/// the widening threshold caused rebuild churn under delete-heavy bursts
/// for no tightening gain.
pub(crate) const DECAY_REBUILD_AFTER_OPS: u32 = 4 * REBUILD_AFTER_OPS;

/// Per-column statistics of one segment. Bounds cover every value the
/// segment *may* contain (they are exact right after a rebuild and only
/// widen under incremental maintenance). An integer/key range with
/// `min > max` means "no tracked value", which every range test treats as
/// matching nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneStats {
    /// The column kind is not tracked (strings, dictionaries), or tracking
    /// was invalidated by an untracked mutation path
    /// ([`crate::table::Table::column_mut`]). Matches everything.
    Untracked,
    /// Bounds of an `i32`/`i64` column.
    Int {
        /// Smallest value the segment may contain.
        min: i64,
        /// Largest value the segment may contain.
        max: i64,
    },
    /// Bounds of an `f64` column. NaN values are excluded (no ordered
    /// predicate can select a NaN, so excluding them keeps pruning sound).
    Float {
        /// Smallest value the segment may contain.
        min: f64,
        /// Largest value the segment may contain.
        max: f64,
    },
    /// Bounds of an AIR key column, plus its NULL-reference count.
    Key {
        /// Smallest non-NULL key the segment may contain.
        min: Key,
        /// Largest non-NULL key the segment may contain.
        max: Key,
        /// `NULL_KEY` entries observed (an all-NULL segment has
        /// `min > max` and can be skipped by any chain probe).
        nulls: u64,
    },
}

impl ZoneStats {
    /// The empty statistic for a column of the given type.
    pub fn new_for(dtype: &DataType) -> ZoneStats {
        match dtype {
            DataType::I32 | DataType::I64 => ZoneStats::Int { min: i64::MAX, max: i64::MIN },
            DataType::F64 => ZoneStats::Float { min: f64::INFINITY, max: f64::NEG_INFINITY },
            DataType::Key { .. } => ZoneStats::Key { min: Key::MAX, max: Key::MIN, nulls: 0 },
            DataType::Str | DataType::Dict => ZoneStats::Untracked,
        }
    }

    /// Returns `true` if no tracked value has been included (an untracked
    /// statistic is never "empty" — it matches everything).
    pub fn is_empty_range(&self) -> bool {
        match self {
            ZoneStats::Untracked => false,
            ZoneStats::Int { min, max } => min > max,
            ZoneStats::Float { min, max } => min > max,
            ZoneStats::Key { min, max, .. } => min > max,
        }
    }

    /// Widens the statistic to cover `col[row]`.
    #[inline]
    pub(crate) fn include(&mut self, col: &Column, row: usize) {
        match col {
            Column::I32(v) => self.include_int(i64::from(v.get(row))),
            Column::I64(v) => self.include_int(v.get(row)),
            Column::F64(v) => self.include_float(v.get(row)),
            Column::Key { keys, .. } => self.include_key(keys.get(row)),
            Column::Str(_) | Column::Dict(_) => *self = ZoneStats::Untracked,
        }
    }

    /// Widens the statistic to cover the rows of `col`'s segment `seg` whose
    /// bit is set in `live` (the segment's slice of the live vector). One
    /// type dispatch per (segment, column); the loops run over the chunk's
    /// decode-once view.
    fn include_chunk(&mut self, col: &Column, seg: usize, live: &Bitmap) {
        fn live_values<'a, T: ChunkValue>(
            chunk: &'a [T],
            live: &'a Bitmap,
        ) -> impl Iterator<Item = T> + 'a {
            chunk.iter().enumerate().filter(|&(off, _)| live.get_or_false(off)).map(|(_, &v)| v)
        }
        match col {
            Column::I32(v) => live_values(&v.chunk(seg).decoded(), live)
                .for_each(|x| self.include_int(i64::from(x))),
            Column::I64(v) => {
                live_values(&v.chunk(seg).decoded(), live).for_each(|x| self.include_int(x))
            }
            Column::F64(v) => {
                live_values(&v.chunk(seg).decoded(), live).for_each(|x| self.include_float(x))
            }
            Column::Key { keys, .. } => {
                live_values(&keys.chunk(seg).decoded(), live).for_each(|k| self.include_key(k))
            }
            Column::Str(_) | Column::Dict(_) => *self = ZoneStats::Untracked,
        }
    }

    // A statistic of the wrong kind for the value (type drift — should not
    // happen, schemas are fixed) stops tracking rather than prune wrongly.

    #[inline]
    fn include_int(&mut self, x: i64) {
        match self {
            ZoneStats::Int { min, max } => {
                *min = (*min).min(x);
                *max = (*max).max(x);
            }
            other => *other = ZoneStats::Untracked,
        }
    }

    /// `f64::min`/`max` ignore NaN operands: NaN rows stay outside the
    /// bounds, which is sound (no ordered predicate matches NaN).
    #[inline]
    fn include_float(&mut self, x: f64) {
        match self {
            ZoneStats::Float { min, max } => {
                *min = min.min(x);
                *max = max.max(x);
            }
            other => *other = ZoneStats::Untracked,
        }
    }

    #[inline]
    fn include_key(&mut self, k: Key) {
        match self {
            ZoneStats::Key { min, max, nulls } => {
                if k == NULL_KEY {
                    *nulls += 1;
                } else {
                    *min = (*min).min(k);
                    *max = (*max).max(k);
                }
            }
            other => *other = ZoneStats::Untracked,
        }
    }
}

/// The zone map of one segment: per-column statistics plus the live count
/// and the bookkeeping the persistence layer and lazy rebuilds need.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentZone {
    /// `Arc`-held so a table clone shares the statistics of every segment
    /// it does not write to (copied on the first widening after a clone).
    stats: Arc<Vec<ZoneStats>>,
    live: u64,
    /// Mutated since this table was loaded from / checkpointed to a
    /// snapshot — an incremental checkpoint re-encodes only dirty segments.
    dirty: bool,
    /// Widening (imprecise) operations since the last exact rebuild.
    imprecise: u32,
    /// Deletes since the last exact rebuild. Tracked separately from
    /// `imprecise`: deletes decay the live count but never widen bounds,
    /// so they answer to the (much laxer) [`DECAY_REBUILD_AFTER_OPS`]
    /// threshold instead of [`REBUILD_AFTER_OPS`].
    decayed: u32,
}

impl SegmentZone {
    /// A fresh, empty zone for a table of the given schema. New zones are
    /// born dirty: they have no on-disk representation yet.
    pub fn new(schema: &Schema) -> SegmentZone {
        SegmentZone {
            stats: Arc::new(schema.defs().iter().map(|d| ZoneStats::new_for(&d.dtype)).collect()),
            live: 0,
            dirty: true,
            imprecise: 0,
            decayed: 0,
        }
    }

    /// Rebuilds the zone of segment `seg` exactly from its live rows.
    pub(crate) fn rebuild(
        schema: &Schema,
        columns: &[Column],
        live: &SegBitmap,
        seg: usize,
    ) -> SegmentZone {
        let live = live.chunk(seg);
        let mut zone = SegmentZone::new(schema);
        zone.live = live.count_ones() as u64;
        for (stat, col) in Arc::make_mut(&mut zone.stats).iter_mut().zip(columns) {
            stat.include_chunk(col, seg, live);
        }
        zone
    }

    /// Reconstructs a zone from persisted parts (the snapshot-v2 load path).
    /// Loaded zones are clean: their on-disk representation is the file they
    /// came from.
    pub fn from_parts(stats: Vec<ZoneStats>, live: u64) -> SegmentZone {
        SegmentZone { stats: Arc::new(stats), live, dirty: false, imprecise: 0, decayed: 0 }
    }

    /// Per-column statistics, in schema order.
    pub fn stats(&self) -> &[ZoneStats] {
        &self.stats
    }

    /// The statistic of one column.
    #[inline]
    pub fn stat(&self, col: usize) -> &ZoneStats {
        &self.stats[col]
    }

    /// Live tuples in this segment.
    #[inline]
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Has the segment been mutated since it was last persisted?
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Marks the segment as needing re-persistence without touching its
    /// statistics (sealing changes the on-disk representation, not the
    /// data).
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    pub(crate) fn note_append(&mut self, columns: &[Column], row: usize) {
        self.live += 1;
        self.dirty = true;
        for (stat, col) in Arc::make_mut(&mut self.stats).iter_mut().zip(columns) {
            stat.include(col, row);
        }
    }

    /// A slot-reusing insert: the new values widen the bounds, but the dead
    /// slot's old values stay inside them — imprecise.
    pub(crate) fn note_reuse(&mut self, columns: &[Column], row: usize) -> u32 {
        self.note_append(columns, row);
        self.imprecise += 1;
        self.imprecise
    }

    /// An in-place single-column overwrite.
    pub(crate) fn note_update(&mut self, col_idx: usize, columns: &[Column], row: usize) -> u32 {
        self.dirty = true;
        self.imprecise += 1;
        Arc::make_mut(&mut self.stats)[col_idx].include(&columns[col_idx], row);
        self.imprecise
    }

    pub(crate) fn note_delete(&mut self) -> u32 {
        self.live = self.live.saturating_sub(1);
        self.dirty = true;
        self.decayed += 1;
        self.decayed
    }

    /// Widening operations accumulated since the last exact rebuild.
    pub fn imprecise_ops(&self) -> u32 {
        self.imprecise
    }

    /// Deletes accumulated since the last exact rebuild.
    pub fn decayed_ops(&self) -> u32 {
        self.decayed
    }

    /// Stops tracking one column (a caller obtained raw mutable access to
    /// it, so its bounds can no longer be trusted).
    pub(crate) fn untrack_column(&mut self, col_idx: usize) {
        Arc::make_mut(&mut self.stats)[col_idx] = ZoneStats::Untracked;
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::Geometry;
    use crate::table::ColumnDef;

    #[test]
    fn empty_stats_per_type() {
        assert!(ZoneStats::new_for(&DataType::I32).is_empty_range());
        assert!(ZoneStats::new_for(&DataType::F64).is_empty_range());
        assert!(ZoneStats::new_for(&DataType::Key { target: "t".into() }).is_empty_range());
        assert!(!ZoneStats::new_for(&DataType::Str).is_empty_range(), "untracked is never empty");
    }

    #[test]
    fn include_widens_int_and_float() {
        let col = Column::I32(vec![5, -3, 9].into());
        let mut s = ZoneStats::new_for(&DataType::I32);
        for r in 0..3 {
            s.include(&col, r);
        }
        assert_eq!(s, ZoneStats::Int { min: -3, max: 9 });

        let col = Column::F64(vec![1.5, f64::NAN, -2.0].into());
        let mut s = ZoneStats::new_for(&DataType::F64);
        for r in 0..3 {
            s.include(&col, r);
        }
        assert_eq!(s, ZoneStats::Float { min: -2.0, max: 1.5 }, "NaN stays outside the bounds");
    }

    #[test]
    fn include_counts_key_nulls() {
        let col = Column::Key { target: "d".into(), keys: vec![7, NULL_KEY, 3, NULL_KEY].into() };
        let mut s = ZoneStats::new_for(&DataType::Key { target: "d".into() });
        for r in 0..4 {
            s.include(&col, r);
        }
        assert_eq!(s, ZoneStats::Key { min: 3, max: 7, nulls: 2 });
    }

    #[test]
    fn rebuild_skips_dead_rows() {
        let schema = Schema::new(vec![ColumnDef::new("v", DataType::I64)]);
        let columns = vec![Column::I64(vec![10, 999, 20].into())];
        let mut live = SegBitmap::filled(3, true, Geometry::default());
        live.set(1, false);
        let zone = SegmentZone::rebuild(&schema, &columns, &live, 0);
        assert_eq!(zone.live(), 2);
        assert_eq!(zone.stat(0), &ZoneStats::Int { min: 10, max: 20 });
        assert!(zone.is_dirty(), "rebuilt zones have no on-disk backing");
    }
}
