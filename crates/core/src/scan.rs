//! Scan-and-filter machinery (paper §3 phase 1, §4.1, §4.2).
//!
//! The fact scan works one segment at a time: [`SegmentScan::select`]
//! produces the ascending row ids of one segment's slice that pass every
//! test of the execution's selection, into a buffer the caller reuses.
//!
//! **One list of tests.** Fact-local conjuncts and dimension chains are the
//! [`SelTest`]s of one list, compiled once per execution. The zone survey
//! ([`crate::zone::SegmentSurvey`]) reads the same list, and
//! [`order_tests`] then orders it most selective first (§4.1). A fact test
//! carries the values of its column it accepts
//! ([`CompiledPred::accepts`]), which seeds the encoded scan, prunes
//! segments and drives its estimate alike. The estimates come from
//! metadata the plan already holds — no row is sampled:
//!
//! * an accepted interval over an integer, key or float column: its
//!   overlap with the zone bounds of every segment the survey keeps, values
//!   taken as uniform inside a zone ([`SegmentSurvey::range_share`]; an `IN`
//!   list sums its points, `<>` is the rest);
//! * a dictionary test: its code-set size over the dictionary's length;
//! * a chain's predicate vector (§4.2) with scattered bits: its density;
//! * a direct AIR chase: nothing is known, so it runs last, on the fewest
//!   rows.
//!
//! A chain whose composed predicate vector is one run of keys `[k0, k1]` is
//! no probe: the executor compiles it as the fact predicate
//! `fk BETWEEN k0 AND k1`, which is exact (a NULL key or a key past the
//! dimension fails both), so it is estimated, seeded, surveyed and refined
//! like any fact range.
//!
//! **Three builders.** In the column-wise scan the first test of the list
//! that can produce a segment's selection by itself builds it:
//!
//! * a seeded range, word-at-a-time on its column's packed codes
//!   (`scan_encoded`; a flat chunk is tested row by row);
//! * a predicate-vector probe, fused into one pass over the foreign-key
//!   chunk ([`kernels::dense_probe`]);
//! * else the segment's live rows.
//!
//! Every other test then refines the selection in list order, so it touches
//! only the rows still standing. Rows stay ascending whatever the order, so
//! the order changes the cost of a selection, never its rows.
//!
//! Three scan disciplines are provided ([`ScanMode`]), matching the paper's
//! ablation (§6.3) and §4.1's comparison:
//!
//! * **row-wise**: every tuple is evaluated against all tests in one pass
//!   over the segment;
//! * **column-wise**: the selection is built and refined as above;
//! * **bitmap-AND**: every test scans the whole slice into a bitmap and the
//!   bitmaps are intersected — the alternative §4.1 argues against.
//!
//! Dimension tests are [`ChainCheck`]s: either a probe of a pre-built
//! predicate vector (§4.2) or a direct AIR chase that evaluates the
//! dimension predicates per fact row (the fallback when the filter would not
//! fit the cache budget, and the mode of the `_P`-less variants). The
//! column-wise probes run through [`crate::kernels`].

use astore_storage::bitmap::{Bitmap, SegBitmap};
use astore_storage::chunks::{ChunkRef, Chunked};
use astore_storage::encoded::EncodedColumn;
use astore_storage::table::Table;
use astore_storage::types::{Key, RowId, NULL_KEY};

use crate::expr::{CompiledPred, Pred, SegPred};
use crate::filter::{FactPred, PackedRangeTest};
use crate::kernels;
use crate::zone::SegmentSurvey;

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
        /// The fact FK column's position (its zone map prunes by the
        /// vector).
        col: usize,
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
            ChainCheck::PredVec { keys, bitmap, .. } => {
                // NULL_KEY maps far out of range and reads as false.
                bitmap.get_or_false(keys.get(row) as usize)
            }
            ChainCheck::Direct { checks } => checks.iter().all(|c| c.eval(row)),
        }
    }

    fn bind(&self, seg: &FactSegment<'_>) -> SegChain<'_, 'a> {
        match self {
            ChainCheck::PredVec { keys, bitmap, .. } => {
                SegChain::PredVec { keys: keys.chunk(seg.index), bitmap }
            }
            ChainCheck::Direct { checks } => SegChain::Direct { checks, seg_start: seg.start },
        }
    }

    /// Selectivity estimate for test ordering: a predicate vector's density
    /// over the dimension; a direct chase is pessimistically 1.0.
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

/// One test of an execution's selection (see the module docs).
pub enum SelTest<'a> {
    /// A fact-local conjunct, or a chain whose predicate vector is one run
    /// of keys, compiled as `fk BETWEEN k0 AND k1`.
    Fact(FactPred<'a>),
    /// A dimension chain, probed or chased.
    Chain(ChainCheck<'a>),
}

/// A [`SelTest`] bound to one fact segment (row-wise and bitmap-AND scans).
enum SegTest<'c, 'a> {
    Pred(SegPred<'a>),
    Chain(SegChain<'c, 'a>),
}

impl SegTest<'_, '_> {
    #[inline]
    fn eval(&self, off: usize) -> bool {
        match self {
            SegTest::Pred(p) => p.eval(off),
            SegTest::Chain(c) => c.eval(off),
        }
    }
}

impl<'a> SelTest<'a> {
    /// The test of a chain with a composed predicate vector, whose keys are
    /// fact column `col`: the seeded range `keys BETWEEN k0 AND k1` when the
    /// vector's set bits are the one run `[k0, k1]`, a probe otherwise.
    pub fn chain(keys: &'a Chunked<Key>, col: usize, bitmap: &'a Bitmap) -> Self {
        match bitmap.one_run() {
            Some((k0, k1)) => {
                let (lo, hi) = (k0 as Key, k1 as Key);
                SelTest::Fact(FactPred::seeded(CompiledPred::KeyBetween { keys, lo, hi }, col))
            }
            None => SelTest::Chain(ChainCheck::PredVec { keys, col, bitmap }),
        }
    }

    /// How the test is evaluated.
    pub fn kind(&self) -> TestKind {
        match self {
            SelTest::Fact(p) if p.seed().is_some() => TestKind::Range,
            SelTest::Fact(_) => TestKind::RowWise,
            SelTest::Chain(ChainCheck::PredVec { .. }) => TestKind::Probe,
            SelTest::Chain(ChainCheck::Direct { .. }) => TestKind::Direct,
        }
    }

    /// Estimated share of the scanned rows that pass (see the module docs).
    pub fn estimate(&self, fact: &Table, survey: &SegmentSurvey) -> f64 {
        match self {
            SelTest::Fact(p) => p.estimate(fact, survey),
            SelTest::Chain(c) => c.estimated_selectivity(),
        }
    }

    fn bind(&self, seg: &FactSegment<'_>) -> SegTest<'_, 'a> {
        match self {
            SelTest::Fact(p) => SegTest::Pred(p.pred.bind(seg.index)),
            SelTest::Chain(c) => SegTest::Chain(c.bind(seg)),
        }
    }
}

/// How a selection test is evaluated, in the order ties are broken: the
/// kinds that can build a segment's selection first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TestKind {
    /// A seeded value range, tested on its column's codes.
    Range,
    /// A predicate-vector probe through a foreign key.
    Probe,
    /// A fact-local predicate evaluated row by row.
    RowWise,
    /// A direct AIR chase.
    Direct,
}

impl TestKind {
    /// The name `EXPLAIN` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            TestKind::Range => "range",
            TestKind::Probe => "probe",
            TestKind::RowWise => "row-wise",
            TestKind::Direct => "direct",
        }
    }
}

/// One test of an executed selection, as the plan reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionStep {
    /// How the test is evaluated.
    pub kind: TestKind,
    /// The fact column it reads: the tested column, or a chain's foreign
    /// key (`expr` for a conjunct over several columns).
    pub column: String,
    /// Its estimated share of the scanned rows.
    pub estimate: f64,
}

/// An execution's selection tests in evaluation order, and which of them
/// builds each segment's selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The tests, most selective first.
    pub steps: Vec<SelectionStep>,
    /// The step that builds each segment's selection (column-wise scans
    /// only); the others refine it. `None`: the selection starts from the
    /// live rows.
    pub builder: Option<usize>,
}

impl Selection {
    /// The building step, if one builds.
    pub fn builder_step(&self) -> Option<&SelectionStep> {
        self.builder.map(|i| &self.steps[i])
    }
}

/// `builds range lo_orderdate ~0.41%, then range lo_discount ~27.27%` —
/// the `selection:` line of `EXPLAIN`.
impl std::fmt::Display for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let step = |s: &SelectionStep| {
            format!("{} {} ~{:.2}%", s.kind.as_str(), s.column, s.estimate * 100.0)
        };
        match self.builder_step() {
            Some(b) => write!(f, "builds {}", step(b))?,
            None => write!(f, "live rows")?,
        }
        let rest: Vec<String> = (0..self.steps.len())
            .filter(|&i| Some(i) != self.builder)
            .map(|i| step(&self.steps[i]))
            .collect();
        if !rest.is_empty() {
            write!(f, ", then {}", rest.join(", "))?;
        }
        Ok(())
    }
}

/// Orders one execution's tests for the scan: lowest estimate first,
/// direct chases last whatever theirs, ties to the kind that can build.
/// `columns` names each test by the fact column it reads. Done once per
/// execution.
pub fn order_tests<'a>(
    tests: Vec<SelTest<'a>>,
    columns: Vec<String>,
    fact: &Table,
    survey: &SegmentSurvey,
) -> (Vec<SelTest<'a>>, Vec<SelectionStep>) {
    let mut keyed: Vec<(SelTest<'a>, SelectionStep)> = tests
        .into_iter()
        .zip(columns)
        .map(|(test, column)| {
            let step =
                SelectionStep { kind: test.kind(), column, estimate: test.estimate(fact, survey) };
            (test, step)
        })
        .collect();
    keyed.sort_by(|(_, a), (_, b)| {
        let direct = |s: &SelectionStep| s.kind == TestKind::Direct;
        direct(a).cmp(&direct(b)).then(a.estimate.total_cmp(&b.estimate)).then(a.kind.cmp(&b.kind))
    });
    keyed.into_iter().unzip()
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
    let seed = fp.seed().expect("caller verified the seed");
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
    /// The `AIRScan_R*` variants: all tests evaluated per tuple in a single
    /// pass.
    RowWise,
    /// Column-wise vector-based scan (§4.1): the first test that can build
    /// the selection does, the rest refine it in list order.
    ColumnWise,
    /// "Some systems choose to scan and evaluate each column independently.
    /// The result of each scan is a bitmap … then the scan results of all
    /// the columns are combined through bitwise AND." Every test touches
    /// the *whole* slice — no skipping — which is exactly the
    /// memory-bandwidth cost the selection-vector scan avoids.
    BitmapAnd,
}

/// The selection step of the fact scan, set up once per execution and run
/// once per segment slice; shared read-only by every worker.
#[derive(Clone, Copy)]
pub struct SegmentScan<'p, 'a> {
    fact: &'a Table,
    tests: &'p [SelTest<'a>],
    mode: ScanMode,
    /// The column-wise scan's builder: the first seeded range or
    /// predicate-vector probe of the list.
    builder: Option<usize>,
}

impl<'p, 'a> SegmentScan<'p, 'a> {
    /// A scan of `fact` by the given tests, already in evaluation order.
    pub fn new(fact: &'a Table, tests: &'p [SelTest<'a>], mode: ScanMode) -> Self {
        let builds = |t: &SelTest<'_>| matches!(t.kind(), TestKind::Range | TestKind::Probe);
        let builder = match mode {
            ScanMode::ColumnWise => tests.iter().position(builds),
            ScanMode::RowWise | ScanMode::BitmapAnd => None,
        };
        SegmentScan { fact, tests, mode, builder }
    }

    /// The test that builds each segment's selection, if one does.
    pub fn builder(&self) -> Option<usize> {
        self.builder
    }

    /// Overwrites `rows` with the live rows of `range` that pass every
    /// test, ascending. `range` must be non-empty and lie inside one
    /// segment.
    pub fn select(&self, range: std::ops::Range<usize>, rows: &mut Vec<RowId>) {
        rows.clear();
        let seg = FactSegment::of(self.fact, range);
        match self.mode {
            ScanMode::RowWise => self.rowwise(&seg, rows),
            ScanMode::ColumnWise => self.columnwise(&seg, rows),
            ScanMode::BitmapAnd => self.bitmap_and(&seg, rows),
        }
    }

    /// Each test is bound to the segment's chunks in whichever
    /// representation they are resident. The builder fills the selection —
    /// a seeded range from its column, a predicate vector in one fused
    /// probe of the foreign key — else the live bits do; every other test
    /// refines it in list order.
    fn columnwise(&self, seg: &FactSegment<'_>, rows: &mut Vec<RowId>) {
        let base = seg.row(0);
        match self.builder.map(|i| &self.tests[i]) {
            Some(SelTest::Fact(fp)) => seeded_segment(self.fact, seg, fp, rows),
            Some(SelTest::Chain(ChainCheck::PredVec { keys, bitmap, .. })) => {
                kernels::dense_probe(keys.chunk(seg.index), seg.offs.clone(), base, bitmap, rows);
                if let Some(live) = seg.live {
                    kernels::scalar::retain(rows, |r| live.get_or_false((r - base) as usize));
                }
            }
            Some(SelTest::Chain(ChainCheck::Direct { .. })) | None => seg.push_live(rows),
        }
        for (i, test) in self.tests.iter().enumerate() {
            if Some(i) == self.builder {
                continue;
            }
            if rows.is_empty() {
                return;
            }
            match test {
                SelTest::Fact(p) => self.refine(seg, p, base, rows),
                SelTest::Chain(c) => c.bind(seg).refine(rows, base),
            }
        }
    }

    /// Refines `rows` by one fact-local predicate. A range predicate over a
    /// bit-packed chunk compares codes ([`kernels::sparse_range`]: the
    /// range is mapped onto the chunk's code domain once, no value is
    /// rebuilt); everything else evaluates the bound predicate per row.
    fn refine(&self, seg: &FactSegment<'_>, p: &FactPred<'_>, base: RowId, rows: &mut Vec<RowId>) {
        let packed = p.seed().and_then(|seed| {
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
        for test in self.tests {
            // Full column scan into an intermediate bitmap, then AND.
            let test = test.bind(seg);
            acc.and_assign(&Bitmap::from_fn(n, |i| test.eval(lo + i)));
        }
        rows.extend(acc.iter_ones().map(|i| seg.row(lo + i)));
    }

    fn rowwise(&self, seg: &FactSegment<'_>, rows: &mut Vec<RowId>) {
        let tests: Vec<SegTest<'_, '_>> = self.tests.iter().map(|t| t.bind(seg)).collect();
        rows.extend(
            seg.offs
                .clone()
                .filter(|&off| seg.is_live(off) && tests.iter().all(|t| t.eval(off)))
                .map(|off| seg.row(off)),
        );
    }
}

/// Evaluates `pred` over all live rows of `table` into a bitmap — a
/// dimension's predicate vector (§4.2). This is the column-wise selection
/// scan with the conjuncts as its tests, in the order written: the first
/// range conjunct builds each segment's selection (word-at-a-time on an
/// encoded chunk), the others refine it.
pub fn select_bitmap(table: &Table, pred: &Pred) -> Bitmap {
    let tests: Vec<SelTest<'_>> =
        pred.conjuncts().into_iter().map(|c| SelTest::Fact(FactPred::compile(c, table))).collect();
    let scan = SegmentScan::new(table, &tests, ScanMode::ColumnWise);
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
        tests: &[SelTest<'a>],
        mode: ScanMode,
    ) -> Vec<RowId> {
        let scan = SegmentScan::new(fact, tests, mode);
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
            assert_eq!(select(fact, 0..6, &[], mode).len(), 6);
            assert_eq!(select(fact, 2..4, &[], mode), [2, 3]);
        }
    }

    #[test]
    fn unfiltered_selection_skips_deleted() {
        let mut db = db();
        db.table_mut("fact").unwrap().delete(1);
        let fact = db.table("fact").unwrap();
        for mode in [ScanMode::RowWise, ScanMode::ColumnWise, ScanMode::BitmapAnd] {
            assert_eq!(select(fact, 0..6, &[], mode), [0, 2, 3, 4, 5]);
        }
    }

    /// One list for chains and fact predicates: lowest estimate first, a
    /// direct chase last, and the first range or probe builds.
    #[test]
    fn chains_order_most_selective_first_direct_last() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let half = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let none = Pred::eq("d_flag", 7).eval_bitmap(dim);
        let col = |name: &str| fact.schema().position(name).unwrap();
        let tests = vec![
            SelTest::Chain(ChainCheck::Direct { checks: Vec::new() }),
            SelTest::chain(keys, col("f_dim"), &half),
            // f_v spans 10..=60: `< 30` covers 20 of its 51 values.
            SelTest::Fact(FactPred::compile(&Pred::cmp("f_v", CmpOp::Lt, 30), fact)),
            SelTest::chain(keys, col("f_dim"), &none),
        ];
        let columns = ["f_dim", "f_dim", "f_v", "f_dim"].map(String::from).to_vec();
        let all = SegmentSurvey::new(fact, None);
        let (tests, steps) = order_tests(tests, columns, fact, &all);
        let kinds: Vec<TestKind> = steps.iter().map(|s| s.kind).collect();
        assert_eq!(kinds, [TestKind::Probe, TestKind::Range, TestKind::Probe, TestKind::Direct]);
        for (step, want) in steps.iter().zip([0.0, 20.0 / 51.0, 0.5, 1.0]) {
            assert!((step.estimate - want).abs() < 1e-12, "{step:?}");
        }
        let scan = SegmentScan::new(fact, &tests, ScanMode::ColumnWise);
        let selection = Selection { steps, builder: scan.builder() };
        assert_eq!(selection.builder, Some(0));
        assert_eq!(
            selection.to_string(),
            "builds probe f_dim ~0.00%, then range f_v ~39.22%, probe f_dim ~50.00%, \
             direct f_dim ~100.00%"
        );
        assert_eq!(SegmentScan::new(fact, &tests, ScanMode::RowWise).builder(), None);
    }

    #[test]
    fn predvec_chain_check() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let dim = db.table("dim").unwrap();
        let bm = Pred::eq("d_flag", 1).eval_bitmap(dim);
        let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
        let check = ChainCheck::PredVec { keys, col: 0, bitmap: &bm };
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
        let pv = ChainCheck::PredVec { keys, col: 0, bitmap: &bm };
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
        let mut db = db();
        let dim = db.table("dim").unwrap();
        let bm = Pred::eq("d_flag", 1).eval_bitmap(dim);
        for deleted in [None, Some(3)] {
            if let Some(r) = deleted {
                db.table_mut("fact").unwrap().delete(r);
            }
            let fact = db.table("fact").unwrap();
            let (_, keys) = fact.column("f_dim").unwrap().as_key().unwrap();
            let tests = || {
                vec![
                    SelTest::Fact(FactPred::unseeded(
                        Pred::cmp("f_v", CmpOp::Lt, 60).compile(fact),
                    )),
                    SelTest::Chain(ChainCheck::PredVec { keys, col: 0, bitmap: &bm }),
                ]
            };
            let (tests, chain_only) = (tests(), tests().split_off(1));
            // The probe builds even with a fact predicate ahead of it; with
            // a dead slot its output is filtered by the live bits.
            assert_eq!(SegmentScan::new(fact, &tests, ScanMode::ColumnWise).builder(), Some(1));
            let col = select(fact, 0..6, &tests, ScanMode::ColumnWise);
            assert_eq!(col, select(fact, 0..6, &tests, ScanMode::RowWise));
            assert_eq!(col, select(fact, 0..6, &tests, ScanMode::BitmapAnd));
            let want: &[RowId] = if deleted.is_some() { &[1] } else { &[1, 3] };
            assert_eq!(col, want);
            let col = select(fact, 0..6, &chain_only, ScanMode::ColumnWise);
            assert_eq!(col, select(fact, 0..6, &chain_only, ScanMode::RowWise));
            let want: &[RowId] = if deleted.is_some() { &[1, 5] } else { &[1, 3, 5] };
            assert_eq!(col, want);
        }
    }

    #[test]
    fn bitmap_and_respects_subranges_and_deletes() {
        let mut db = db();
        db.table_mut("fact").unwrap().delete(3);
        let fact = db.table("fact").unwrap();
        let p = SelTest::Fact(FactPred::unseeded(Pred::cmp("f_v", CmpOp::Ge, 20).compile(fact)));
        let rows = select(fact, 1..5, std::slice::from_ref(&p), ScanMode::BitmapAnd);
        assert_eq!(rows, [1, 2, 4]);
    }

    #[test]
    fn empty_short_circuit() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let p = SelTest::Fact(FactPred::unseeded(Pred::cmp("f_v", CmpOp::Gt, 1000).compile(fact)));
        assert!(select(fact, 0..6, std::slice::from_ref(&p), ScanMode::ColumnWise).is_empty());
    }

    /// fact(f_dim key -> dim, f_i i32, f_l i64, f_d dict) in 64-row
    /// segments, sealed and then written to: updates and a reuse-insert
    /// decode the chunks they land in, appends fill a flat tail, deletes
    /// leave dead slots. `f_dim` holds NULLs and keys 8 and 9, past the
    /// 8-row dimension.
    fn written_db() -> Database {
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
            let key = match next() % 20 {
                0 | 1 => NULL_KEY,
                2 => 8 + (next() % 2) as u32,
                _ => (next() % 8) as u32,
            };
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
        assert!(fact.column_at(0).chunk_encoding(1).is_some(), "a key chunk stayed encoded");
        assert!(fact.column_at(0).chunk_encoding(3).is_none(), "the key update decoded one");
        assert!(fact.segment_written(0).is_some());
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    /// Row ranges that cross segment seals, sub-ranges, dead slots, the
    /// reused slot, the flat tail and empty ranges.
    fn ranges(n: usize) -> [std::ops::Range<usize>; 9] {
        [0..n, 0..64, 10..200, 64..128, 130..131, 299..300, 150..150, 290..n, 300..n]
    }

    /// The encoded seeded scan must produce exactly the rows the row-wise
    /// predicate accepts, across segment seals, sub-ranges, deletes, and
    /// every seedable predicate/column shape.
    #[test]
    fn seeded_scan_matches_rowwise_eval() {
        let db = written_db();
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
            let test = SelTest::Fact(FactPred::seeded(compiled, colpos));
            assert_eq!(test.kind(), TestKind::Range, "{p:?} should seed");
            for range in ranges(fact.num_slots()) {
                let tests = std::slice::from_ref(&test);
                let enc = select(fact, range.clone(), tests, ScanMode::ColumnWise);
                let flat = select(fact, range, tests, ScanMode::RowWise);
                assert_eq!(enc, flat, "{p:?}");
            }
        }
    }

    /// A chain whose predicate vector is one run of keys becomes a seeded
    /// range on the foreign key, and selects exactly the rows the probe
    /// does: NULL keys and keys past the dimension fail both, on encoded,
    /// written and flat chunks alike. A vector with a gap stays a probe.
    #[test]
    fn a_one_run_chain_is_the_key_range_it_replaces() {
        let db = written_db();
        let fact = db.table("fact").unwrap();
        let col = fact.schema().position("f_dim").unwrap();
        let (_, keys) = fact.column_at(col).as_key().unwrap();
        for (k0, k1) in [(0, 0), (0, 7), (3, 5), (7, 7), (2, 3)] {
            let bitmap = Bitmap::from_fn(8, |i| (k0..=k1).contains(&i));
            let run = SelTest::chain(keys, col, &bitmap);
            let Some(seed) = (match &run {
                SelTest::Fact(p) => p.seed(),
                SelTest::Chain(_) => None,
            }) else {
                panic!("[{k0}, {k1}] is one run and should be a seeded key range")
            };
            assert_eq!((seed.lo, seed.hi), (k0 as i64, k1 as i64));
            let probe = SelTest::Chain(ChainCheck::PredVec { keys, col, bitmap: &bitmap });
            for range in ranges(fact.num_slots()) {
                let want =
                    select(fact, range.clone(), std::slice::from_ref(&probe), ScanMode::RowWise);
                for mode in [ScanMode::ColumnWise, ScanMode::RowWise, ScanMode::BitmapAnd] {
                    let got = select(fact, range.clone(), std::slice::from_ref(&run), mode);
                    assert_eq!(got, want, "[{k0}, {k1}] {mode:?} {range:?}");
                }
            }
        }
        let gap = Bitmap::from_fn(8, |i| i == 2 || i == 5);
        assert_eq!(SelTest::chain(keys, col, &gap).kind(), TestKind::Probe);
        let empty = Bitmap::new(8, false);
        assert_eq!(SelTest::chain(keys, col, &empty).kind(), TestKind::Probe);
        assert!(select(
            fact,
            0..fact.num_slots(),
            &[SelTest::chain(keys, col, &empty)],
            ScanMode::ColumnWise
        )
        .is_empty());
    }
}
