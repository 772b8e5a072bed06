//! Scan-and-filter machinery (paper §3 phase 1, §4.1, §4.2).
//!
//! The fact scan works one segment at a time: [`SegmentScan::select`]
//! produces the ascending row ids of one segment's slice that pass every
//! fact-local predicate and every dimension chain, into a buffer the caller
//! reuses. Three scan disciplines are provided ([`ScanMode`]), matching the
//! paper's ablation (§6.3) and §4.1's comparison:
//!
//! * **row-wise**: every tuple is evaluated against all predicates in one
//!   pass over the segment;
//! * **column-wise**: the selection is refined one predicate at a time,
//!   most selective first, so later predicates touch only surviving tuples;
//! * **bitmap-AND**: every predicate scans the whole slice into a bitmap
//!   and the bitmaps are intersected — the alternative §4.1 argues against.
//!
//! Dimension predicates appear as [`ChainCheck`]s: either a probe of a
//! pre-built predicate vector (§4.2) or a direct AIR chase that evaluates
//! the dimension predicates per fact row (the fallback when the filter
//! would not fit the cache budget, and the mode of the `_P`-less variants).
//! The column-wise predicate-vector probes run through [`crate::kernels`].

use astore_storage::bitmap::{Bitmap, SegBitmap};
use astore_storage::chunks::{ChunkRef, Chunked};
use astore_storage::encoded::EncodedColumn;
use astore_storage::table::Table;
use astore_storage::types::{Key, RowId, NULL_KEY};

use crate::expr::{CompiledPred, Pred, SegPred};
use crate::filter::{FactPred, PackedRangeTest};
use crate::kernels;

/// A per-fact-row liveness + predicate check against one table of a
/// dimension chain, evaluated by chasing the AIR hops.
pub struct DirectCheck<'a> {
    /// AIR hop arrays from the fact table to the checked table.
    pub hops: Vec<&'a Chunked<Key>>,
    /// Live bitmap of the checked table, present only when it has deletes.
    pub live: Option<&'a SegBitmap>,
    /// Compiled predicate on the checked table, if the query has one.
    pub pred: Option<CompiledPred<'a>>,
}

impl DirectCheck<'_> {
    /// Evaluates the check for one fact row (table-wide index). Every hop
    /// is a random access, so the chase addresses whole columns.
    #[inline]
    pub fn eval(&self, fact_row: usize) -> bool {
        let mut row = fact_row;
        for keys in &self.hops {
            let k = keys.get(row);
            if k == NULL_KEY {
                return false;
            }
            row = k as usize;
        }
        if let Some(live) = self.live {
            if !live.get_or_false(row) {
                return false;
            }
        }
        match &self.pred {
            Some(p) => p.eval(row),
            None => true,
        }
    }
}

/// The selection test for one dimension chain.
pub enum ChainCheck<'a> {
    /// Probe the chain's composed predicate vector through the fact FK
    /// column (paper §4.2).
    PredVec {
        /// The fact FK column's key array.
        keys: &'a Chunked<Key>,
        /// Composed predicate vector over the first-level dimension.
        bitmap: &'a Bitmap,
    },
    /// Chase the chain and evaluate predicates per fact row.
    Direct {
        /// One check per predicate-bearing (or delete-bearing) table.
        checks: Vec<DirectCheck<'a>>,
    },
}

/// A [`ChainCheck`] bound to one fact segment: the probed key column is the
/// segment's chunk as it is resident, rows are segment-local offsets.
enum SegChain<'c, 'a> {
    PredVec { keys: ChunkRef<'c, Key>, bitmap: &'c Bitmap },
    Direct { checks: &'c [DirectCheck<'a>], seg_start: usize },
}

impl SegChain<'_, '_> {
    #[inline]
    fn eval(&self, off: usize) -> bool {
        match self {
            // NULL_KEY maps far out of range and reads as false.
            SegChain::PredVec { keys, bitmap } => bitmap.get_or_false(keys.at(off) as usize),
            SegChain::Direct { checks, seg_start } => {
                checks.iter().all(|c| c.eval(seg_start + off))
            }
        }
    }

    /// Refines `rows` (rows of this segment, whose first row is `base`) by
    /// the check, with the variant dispatched once instead of per row.
    fn refine(&self, rows: &mut Vec<RowId>, base: RowId) {
        match self {
            SegChain::PredVec { keys, bitmap } => kernels::sparse_probe(*keys, base, bitmap, rows),
            SegChain::Direct { checks, .. } => {
                kernels::scalar::retain(rows, |r| checks.iter().all(|c| c.eval(r as usize)))
            }
        }
    }
}

impl<'a> ChainCheck<'a> {
    /// Evaluates the chain check for one fact row (table-wide index).
    #[inline]
    pub fn eval(&self, row: usize) -> bool {
        match self {
            ChainCheck::PredVec { keys, bitmap } => {
                // NULL_KEY maps far out of range and reads as false.
                bitmap.get_or_false(keys.get(row) as usize)
            }
            ChainCheck::Direct { checks } => checks.iter().all(|c| c.eval(row)),
        }
    }

    fn bind(&self, seg: &FactSegment<'_>) -> SegChain<'_, 'a> {
        match self {
            ChainCheck::PredVec { keys, bitmap } => {
                SegChain::PredVec { keys: keys.chunk(seg.index), bitmap }
            }
            ChainCheck::Direct { checks } => SegChain::Direct { checks, seg_start: seg.start },
        }
    }

    /// Rough selectivity estimate for check ordering (predicate vectors
    /// expose their density; direct probes are pessimistically 1.0 so they
    /// run last, on the fewest rows).
    pub fn estimated_selectivity(&self) -> f64 {
        match self {
            ChainCheck::PredVec { bitmap, .. } => {
                if bitmap.is_empty() {
                    0.0
                } else {
                    bitmap.count_ones() as f64 / bitmap.len() as f64
                }
            }
            ChainCheck::Direct { .. } => 1.0,
        }
    }
}

/// Orders chain checks for the column-wise scan: predicate vectors first
/// (cheap, cache-resident), most selective first, direct probes last. Done
/// once per execution — the estimate counts a bitmap's set bits.
pub fn order_chains(chains: &mut [ChainCheck<'_>]) {
    chains.sort_by_cached_key(|c| {
        // Selectivities are in [0, 1]: their bit patterns order like the
        // values.
        c.estimated_selectivity().to_bits()
    });
}

/// The slice of one fact segment a scan step works on. Columns, live bits
/// and predicates are bound once per `FactSegment`, and the inner loops run
/// over segment-local offsets.
struct FactSegment<'t> {
    /// Segment number.
    index: usize,
    /// Table-wide index of the segment's first row.
    start: usize,
    /// The scanned offsets within the segment.
    offs: std::ops::Range<usize>,
    /// The segment's live bits, present only when the segment has a dead
    /// slot.
    live: Option<&'t Bitmap>,
}

impl<'t> FactSegment<'t> {
    /// The segment slice covering `range`, which must be non-empty and lie
    /// inside one segment of `fact`.
    fn of(fact: &'t Table, range: std::ops::Range<usize>) -> Self {
        let seg_rows = fact.segment_rows();
        let index = range.start / seg_rows;
        let start = index * seg_rows;
        assert!(
            range.start < range.end && range.end <= start + seg_rows,
            "scan range {range:?} must lie inside one segment of {seg_rows} rows"
        );
        let live = fact
            .has_deletes()
            .then(|| fact.live_bitmap().chunk(index))
            .filter(|live| live.count_ones() < live.len());
        FactSegment { index, start, offs: range.start - start..range.end - start, live }
    }

    #[inline]
    fn is_live(&self, off: usize) -> bool {
        self.live.is_none_or(|l| l.get_or_false(off))
    }

    #[inline]
    fn row(&self, off: usize) -> RowId {
        (self.start + off) as RowId
    }

    /// Appends the live rows of the scanned offsets to `rows`.
    fn push_live(&self, rows: &mut Vec<RowId>) {
        match self.live {
            None => rows.extend(self.row(self.offs.start)..self.row(self.offs.end)),
            Some(live) => rows.extend(
                self.offs.clone().filter(|&off| live.get_or_false(off)).map(|off| self.row(off)),
            ),
        }
    }
}

/// Emits the segment-local offsets of one encoded chunk whose value falls
/// in `[lo, hi]`, restricted to offsets `[off0, off1)`, ascending.
///
/// Bit-packed chunks go through the SWAR kernel
/// ([`crate::filter::packed_range_mask`], two words at a time on the wide
/// path): the logical range is mapped onto the chunk's code domain once
/// ([`astore_storage::encoded::PackedInts::code_bounds`]), then every word
/// is tested without decoding a single value. RLE runs accept or reject
/// wholesale — one comparison covers the entire run.
fn scan_encoded(
    enc: &EncodedColumn,
    lo: i64,
    hi: i64,
    off0: usize,
    off1: usize,
    mut emit: impl FnMut(usize),
) {
    match enc {
        EncodedColumn::Rle(rle) => rle.runs_in(off0..off1, |v, run| {
            if lo <= v && v <= hi {
                run.for_each(&mut emit);
            }
        }),
        EncodedColumn::Packed(p) => {
            let Some((clo, chi)) = p.code_bounds(lo, hi) else { return };
            let test = PackedRangeTest::new(clo, chi, p.width() as usize, p.lanes());
            let lanes = p.lanes();
            let w0 = off0 / lanes;
            let w1 = off1.div_ceil(lanes).min(p.words().len());
            let mut emit_mask = |wi: usize, mask: u64| {
                test.lanes_set(mask, |lane| {
                    let off = wi * lanes + lane;
                    // Boundary words: clamp to the scanned sub-range (and,
                    // in the last word, to rows that exist — tail lanes are
                    // zero-coded padding).
                    if off >= off0 && off < off1 {
                        emit(off);
                    }
                });
            };
            let words = &p.words()[w0..w1];
            let mut wi = w0;
            let mut pairs = words.chunks_exact(2);
            for pair in &mut pairs {
                let [m0, m1] = test.mask2([pair[0], pair[1]]);
                emit_mask(wi, m0);
                emit_mask(wi + 1, m1);
                wi += 2;
            }
            for &word in pairs.remainder() {
                emit_mask(wi, test.mask(word));
                wi += 1;
            }
        }
    }
}

/// Appends to `rows` the rows of one segment that pass one seeded
/// predicate: when the tested column's chunk is resident encoded it is
/// scanned in that form ([`scan_encoded`]); a flat chunk is evaluated row
/// by row. Rows come out ascending either way, so the result is
/// indistinguishable from the live rows refined by the predicate — just
/// cheaper.
fn seeded_segment(fact: &Table, seg: &FactSegment<'_>, fp: &FactPred<'_>, rows: &mut Vec<RowId>) {
    let seed = fp.seed.as_ref().expect("caller verified the seed");
    match fact.column_at(seed.col).chunk_encoding(seg.index) {
        Some(enc) => scan_encoded(enc, seed.lo, seed.hi, seg.offs.start, seg.offs.end, |off| {
            if seg.is_live(off) {
                rows.push(seg.row(off));
            }
        }),
        None => {
            let pred = fp.pred.bind(seg.index);
            rows.extend(
                seg.offs
                    .clone()
                    .filter(|&off| seg.is_live(off) && pred.eval(off))
                    .map(|off| seg.row(off)),
            );
        }
    }
}

/// How a segment's selection is produced — the scan axis of the §6.3
/// ablation plus §4.1's full-materialization comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// The `AIRScan_R*` variants: all predicates evaluated per tuple in a
    /// single pass.
    RowWise,
    /// Column-wise vector-based scan (§4.1): refine per fact-local
    /// predicate (already ordered most-selective-first by the caller), then
    /// per chain check ([`order_chains`]).
    ColumnWise,
    /// "Some systems choose to scan and evaluate each column independently.
    /// The result of each scan is a bitmap … then the scan results of all
    /// the columns are combined through bitwise AND." Every predicate
    /// touches the *whole* slice — no skipping — which is exactly the
    /// memory-bandwidth cost the selection-vector scan avoids.
    BitmapAnd,
}

/// The selection step of the fact scan, set up once per execution and run
/// once per segment slice; shared read-only by every worker.
pub struct SegmentScan<'p, 'a> {
    fact: &'a Table,
    preds: &'p [FactPred<'a>],
    chains: &'p [ChainCheck<'a>],
    mode: ScanMode,
    /// The column-wise scan's seeded predicate: the *first* seedable
    /// predicate builds a segment's initial selection — directly from the
    /// encoded form wherever the chunk it tests is resident encoded —
    /// instead of refining the full range.
    seed_idx: Option<usize>,
}

impl<'p, 'a> SegmentScan<'p, 'a> {
    /// A scan of `fact` by the given predicates and chain checks, both
    /// already in evaluation order.
    pub fn new(
        fact: &'a Table,
        preds: &'p [FactPred<'a>],
        chains: &'p [ChainCheck<'a>],
        mode: ScanMode,
    ) -> Self {
        let seed_idx = preds.iter().position(|p| p.seed.is_some());
        SegmentScan { fact, preds, chains, mode, seed_idx }
    }

    /// Overwrites `rows` with the live rows of `range` that pass every
    /// predicate and chain check, ascending. `range` must be non-empty and
    /// lie inside one segment.
    pub fn select(&self, range: std::ops::Range<usize>, rows: &mut Vec<RowId>) {
        rows.clear();
        let seg = FactSegment::of(self.fact, range);
        match self.mode {
            ScanMode::RowWise => self.rowwise(&seg, rows),
            ScanMode::ColumnWise => self.columnwise(&seg, rows),
            ScanMode::BitmapAnd => self.bitmap_and(&seg, rows),
        }
    }

    /// Each predicate and check is bound to the segment's chunks once, in
    /// whichever representation they are resident. The first step fills the
    /// selection: from the seeded predicate's column when there is one,
    /// else — with no fact-local predicate and every slot live — fused with
    /// the first predicate-vector probe ([`kernels::dense_probe`]), else
    /// from the live bits.
    fn columnwise(&self, seg: &FactSegment<'_>, rows: &mut Vec<RowId>) {
        let base = seg.row(0);
        let mut chains = self.chains.iter();
        match (self.seed_idx, seg.live, self.preds, self.chains.first()) {
            (Some(i), ..) => seeded_segment(self.fact, seg, &self.preds[i], rows),
            (None, None, [], Some(ChainCheck::PredVec { keys, bitmap })) => {
                kernels::dense_probe(keys.chunk(seg.index), seg.offs.clone(), base, bitmap, rows);
                chains.next();
            }
            _ => seg.push_live(rows),
        }
        for (i, p) in self.preds.iter().enumerate() {
            if Some(i) == self.seed_idx {
                continue;
            }
            if rows.is_empty() {
                return;
            }
            self.refine(seg, p, base, rows);
        }
        for c in chains {
            if rows.is_empty() {
                return;
            }
            c.bind(seg).refine(rows, base);
        }
    }

    /// Refines `rows` by one fact-local predicate. A range predicate over a
    /// bit-packed chunk compares codes ([`kernels::sparse_range`]: the
    /// range is mapped onto the chunk's code domain once, no value is
    /// rebuilt); everything else evaluates the bound predicate per row.
    fn refine(&self, seg: &FactSegment<'_>, p: &FactPred<'_>, base: RowId, rows: &mut Vec<RowId>) {
        let packed = p.seed.as_ref().and_then(|seed| {
            match self.fact.column_at(seed.col).chunk_encoding(seg.index) {
                Some(EncodedColumn::Packed(codes)) => Some((codes, seed)),
                _ => None,
            }
        });
        match packed {
            Some((codes, seed)) => match codes.code_bounds(seed.lo, seed.hi) {
                Some((clo, chi)) => kernels::sparse_range(codes, base, clo, chi, rows),
                None => rows.clear(),
            },
            None => {
                let pred = p.pred.bind(seg.index);
                kernels::scalar::retain(rows, |r| pred.eval((r - base) as usize));
            }
        }
    }

    fn bitmap_and(&self, seg: &FactSegment<'_>, rows: &mut Vec<RowId>) {
        let lo = seg.offs.start;
        let n = seg.offs.len();
        let mut acc = match seg.live {
            Some(live) => Bitmap::from_fn(n, |i| live.get_or_false(lo + i)),
            None => Bitmap::new(n, true),
        };
        for p in self.preds {
            // Full column scan into an intermediate bitmap, then AND.
            let pred = p.pred.bind(seg.index);
            acc.and_assign(&Bitmap::from_fn(n, |i| pred.eval(lo + i)));
        }
        for c in self.chains {
            let check = c.bind(seg);
            acc.and_assign(&Bitmap::from_fn(n, |i| check.eval(lo + i)));
        }
        rows.extend(acc.iter_ones().map(|i| seg.row(lo + i)));
    }

    fn rowwise(&self, seg: &FactSegment<'_>, rows: &mut Vec<RowId>) {
        let preds: Vec<SegPred<'_>> = self.preds.iter().map(|p| p.pred.bind(seg.index)).collect();
        let checks: Vec<SegChain<'_, '_>> = self.chains.iter().map(|c| c.bind(seg)).collect();
        rows.extend(
            seg.offs
                .clone()
                .filter(|&off| {
                    seg.is_live(off)
                        && preds.iter().all(|p| p.eval(off))
                        && checks.iter().all(|c| c.eval(off))
                })
                .map(|off| seg.row(off)),
        );
    }
}

/// Evaluates `pred` over all live rows of `table` into a bitmap — a
/// dimension's predicate vector (§4.2). This is the column-wise selection
/// scan with no chains: the first range conjunct builds each segment's
/// selection (word-at-a-time on an encoded chunk), the others refine it.
pub fn select_bitmap(table: &Table, pred: &Pred) -> Bitmap {
    let preds: Vec<FactPred<'_>> =
        pred.conjuncts().into_iter().map(|c| FactPred::compile(c, table)).collect();
    let scan = SegmentScan::new(table, &preds, &[], ScanMode::ColumnWise);
    let n = table.num_slots();
    let mut words = vec![0u64; n.div_ceil(64)];
    let mut rows = Vec::new();
    for seg in 0..table.segment_count() {
        scan.select(table.segment_range(seg), &mut rows);
        for &r in &rows {
            words[r as usize / 64] |= 1 << (r % 64);
        }
    }
    Bitmap::from_words(words, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Pred};
    use astore_storage::prelude::*;

    /// Runs the segment scan over every segment slice of `range` and
    /// concatenates the selections, as the executor's morsel loop does.
    fn select<'a>(
        fact: &'a Table,
        range: std::ops::Range<usize>,
        preds: &[FactPred<'a>],
        chains: &[ChainCheck<'a>],
        mode: ScanMode,
    ) -> Vec<RowId> {
        let scan = SegmentScan::new(fact, preds, chains, mode);
        let seg_rows = fact.segment_rows();
        let (mut out, mut rows) = (Vec::new(), Vec::new());
        let mut start = range.start;
        while start < range.end {
            let end = ((start / seg_rows + 1) * seg_rows).min(range.end);
            scan.select(start..end, &mut rows);
            out.extend_from_slice(&rows);
            start = end;
        }
        out
    }

    /// fact(f_dim key -> dim, f_v i32), dim(d_flag i32).
    fn db() -> Database {
        let mut db = Database::new();
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_flag", DataType::I32)]));
        for f in [0, 1, 0, 1] {
            dim.append_row(&[Value::Int(f)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I32),
            ]),
        );
        for (d, v) in [(0u32, 10), (1, 20), (2, 30), (3, 40), (NULL_KEY, 50), (1, 60)] {
            fact.append_row(&[Value::Key(d), Value::Int(v)]);
        }
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    #[test]
    fn unfiltered_selection_is_the_range() {
        let db = db();
        let fact = db.table("fact").unwrap();
        for mode in [ScanMode::RowWise, ScanMode::ColumnWise, ScanMode::BitmapAnd] {
            assert_eq!(select(fact, 0..6, &[], &[], mode).len(), 6);
            assert_eq!(select(fact, 2..4, &[], &[], mode), [2, 3]);
        }
    }

    #[test]
    fn unfiltered_selection_skips_deleted() {
        let mut db = db();
        db.table_mut("fact").unwrap().delete(1);
        let fact = db.table("fact").unwrap();
        for mode in [ScanMode::RowWise, ScanMode::ColumnWise, ScanMode::BitmapAnd] {
            assert_eq!(select(fact, 0..6, &[], &[], mode), [0, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn chains_order_most_selective_first_direct_last() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let half = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let none = Pred::eq("d_flag", 7).eval_bitmap(dim);
        let mut chains = vec![
            ChainCheck::Direct { checks: Vec::new() },
            ChainCheck::PredVec { keys, bitmap: &half },
            ChainCheck::PredVec { keys, bitmap: &none },
        ];
        order_chains(&mut chains);
        let density: Vec<f64> = chains.iter().map(ChainCheck::estimated_selectivity).collect();
        assert_eq!(density, [0.0, 0.5, 1.0]);
    }

    #[test]
    fn predvec_chain_check() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let bm = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let check = ChainCheck::PredVec { keys, bitmap: &bm };
        // fact rows pointing at dims 1 or 3 pass; NULL_KEY fails.
        let hits: Vec<usize> = (0..6).filter(|&r| check.eval(r)).collect();
        assert_eq!(hits, vec![1, 3, 5]);
        assert!((check.estimated_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn direct_chain_check_equivalent_to_predvec() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let direct = ChainCheck::Direct {
            checks: vec![DirectCheck {
                hops: vec![keys],
                live: None,
                pred: Some(Pred::eq("d_flag", 1).compile(dim)),
            }],
        };
        let bm = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let pv = ChainCheck::PredVec { keys, bitmap: &bm };
        for r in 0..6 {
            assert_eq!(direct.eval(r), pv.eval(r), "row {r}");
        }
        assert_eq!(direct.estimated_selectivity(), 1.0);
    }

    #[test]
    fn direct_check_respects_dimension_deletes() {
        let mut db = db();
        db.table_mut("dim").unwrap().delete(1);
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let check = ChainCheck::Direct {
            checks: vec![DirectCheck {
                hops: vec![keys],
                live: Some(dim.live_bitmap()),
                pred: Some(Pred::eq("d_flag", 1).compile(dim)),
            }],
        };
        let hits: Vec<usize> = (0..6).filter(|&r| check.eval(r)).collect();
        assert_eq!(hits, vec![3], "rows pointing at deleted dim 1 drop out");
    }

    #[test]
    fn all_three_scan_disciplines_agree() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let bm = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let fact_pred = FactPred::unseeded(Pred::cmp("f_v", CmpOp::Lt, 60).compile(fact));

        let chains = vec![ChainCheck::PredVec { keys, bitmap: &bm }];
        let preds = std::slice::from_ref(&fact_pred);
        let col = select(fact, 0..6, preds, &chains, ScanMode::ColumnWise);
        assert_eq!(col, select(fact, 0..6, preds, &chains, ScanMode::RowWise));
        assert_eq!(col, select(fact, 0..6, preds, &chains, ScanMode::BitmapAnd));
        assert_eq!(col, [1, 3]);
        // Chains alone take the fused first probe; same rows as row-wise.
        let col = select(fact, 0..6, &[], &chains, ScanMode::ColumnWise);
        assert_eq!(col, select(fact, 0..6, &[], &chains, ScanMode::RowWise));
        assert_eq!(col, [1, 3, 5]);
    }

    #[test]
    fn bitmap_and_respects_subranges_and_deletes() {
        let mut db = db();
        db.table_mut("fact").unwrap().delete(3);
        let fact = db.table("fact").unwrap();
        let p = FactPred::unseeded(Pred::cmp("f_v", CmpOp::Ge, 20).compile(fact));
        let rows = select(fact, 1..5, std::slice::from_ref(&p), &[], ScanMode::BitmapAnd);
        assert_eq!(rows, [1, 2, 4]);
    }

    #[test]
    fn empty_short_circuit() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let p = FactPred::unseeded(Pred::cmp("f_v", CmpOp::Gt, 1000).compile(fact));
        assert!(select(fact, 0..6, std::slice::from_ref(&p), &[], ScanMode::ColumnWise).is_empty());
    }

    /// The encoded seeded scan must produce exactly the rows the row-wise
    /// predicate accepts, across segment seals, sub-ranges, deletes, and
    /// every seedable predicate/column shape.
    #[test]
    fn seeded_scan_matches_rowwise_eval() {
        let mut db = Database::new();
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_flag", DataType::I32)]));
        for f in 0..8 {
            dim.append_row(&[Value::Int(f)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_i", DataType::I32),
                ColumnDef::new("f_l", DataType::I64),
                ColumnDef::new("f_d", DataType::Dict),
            ]),
        );
        fact.set_segment_rows(64);
        let mut state = 0xdeadbeefu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for i in 0..300u64 {
            let key = if next() % 10 == 0 { NULL_KEY } else { (next() % 8) as u32 };
            fact.append_row(&[
                Value::Key(key),
                Value::Int((next() % 50) as i64 - 25),
                // Clustered: long runs so at least one column RLE-encodes.
                Value::Int((i / 64) as i64),
                Value::Str(format!("m{}", next() % 6)),
            ]);
        }
        // Deletes so live filtering participates.
        for r in [3u32, 64, 65, 130, 299] {
            fact.delete(r);
        }
        let sealed = fact.seal_segments();
        assert!(sealed > 0);
        assert!(fact.column_at(1).chunk_encoding(0).is_some());

        // Post-seal writes: each update and the reuse-insert decode the
        // chunks they land in, the appends decode the partial tail — the
        // seeded scan takes every chunk as it finds it and must keep
        // agreeing with row-wise.
        fact.update(10, "f_i", &Value::Int(23));
        fact.update(70, "f_l", &Value::Int(9));
        fact.update(131, "f_d", &Value::Str("m3".into()));
        fact.update(200, "f_dim", &Value::Key(7));
        let reused =
            fact.insert(&[Value::Key(2), Value::Int(-3), Value::Int(4), Value::Str("m1".into())]);
        assert_eq!(reused, 299, "free list reuses the last deleted slot");
        for i in 0..20u64 {
            fact.append_row(&[
                Value::Key((i % 8) as u32),
                Value::Int(i as i64 - 10),
                Value::Int(5),
                Value::Str("m2".into()),
            ]);
        }
        assert!(fact.column_at(1).chunk_encoding(0).is_none(), "the written chunk went flat");
        assert!(fact.column_at(2).chunk_encoding(0).is_some(), "its neighbours stayed encoded");
        assert!(fact.segment_written(0).is_some());
        db.add_table(dim);
        db.add_table(fact);
        let fact = db.table("fact").unwrap();

        let preds = [
            Pred::cmp("f_i", CmpOp::Ge, 0),
            Pred::cmp("f_i", CmpOp::Lt, -10),
            Pred::between("f_i", -5, 5),
            Pred::cmp("f_l", CmpOp::Eq, 2),
            Pred::between("f_l", 1, 3),
            Pred::eq("f_d", "m3"),
            Pred::eq("f_d", "absent"),
            Pred::cmp("f_dim", CmpOp::Le, 3),
            Pred::cmp("f_dim", CmpOp::Gt, 6), // catches NULL_KEY as largest
            Pred::between("f_i", 100, 200),   // empty
        ];
        let cols = ["f_i", "f_i", "f_i", "f_l", "f_l", "f_d", "f_d", "f_dim", "f_dim", "f_i"];
        for (p, col) in preds.iter().zip(cols) {
            let compiled = p.clone().compile(fact);
            let colpos = fact.schema().position(col).unwrap();
            let fp = FactPred::seeded(compiled, colpos);
            assert!(fp.seed.is_some(), "{p:?} should seed");
            let n = fact.num_slots();
            for range in
                [0..n, 0..64, 10..200, 64..128, 130..131, 299..300, 150..150, 290..n, 300..n]
            {
                let preds = std::slice::from_ref(&fp);
                let enc = select(fact, range.clone(), preds, &[], ScanMode::ColumnWise);
                let flat = select(fact, range, preds, &[], ScanMode::RowWise);
                assert_eq!(enc, flat, "{p:?}");
            }
        }
    }
}
