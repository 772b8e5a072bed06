//! Predicate filters (paper §4.2).
//!
//! "A-Store applies predicate filter to eliminate repeated evaluation of
//! leaf tables. It first conducts predicate evaluation directly on the leaf
//! tables and generates a bit vector for each leaf table. … When scanning
//! the universal table, we do not lookup the leaf tables, but probe the
//! predicate vectors. … For a snowflake schema, predicate filters can be
//! generated recursively for the leaf tables on the chain. In the end, a
//! single predicate filter can be generated for the entire chain — the
//! length of a predicate filter is determined by the number of rows of the
//! first level dimension."
//!
//! [`ChainSpec`] identifies, per fact foreign-key column, the set of
//! dimension tables the query touches through it; [`build_chain_filter`]
//! folds their predicate vectors down to one bitmap over the first-level
//! dimension.

use std::collections::{HashMap, HashSet};

use astore_storage::bitmap::Bitmap;
use astore_storage::catalog::Database;
use astore_storage::column::Column;
use astore_storage::table::Table;
use astore_storage::types::NULL_KEY;

use crate::expr::{Accepts, CompiledPred, Interval, Pred};
use crate::query::Query;
use crate::universal::{BindError, Universal};
use crate::zone::SegmentSurvey;

/// The dimension chain a query touches through one fact FK column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// The fact table's AIR column this chain hangs off.
    pub fact_key_col: String,
    /// The first-level dimension (the table the AIR column points at).
    pub dim_table: String,
    /// All tables of this chain the query references (directly or as
    /// intermediate hops), excluding the root. Sorted for determinism.
    pub tables: Vec<String>,
    /// Whether any table of the chain carries a selection predicate.
    pub has_predicates: bool,
}

/// Groups the query's participating dimension tables by the fact FK column
/// through which they are reached, producing one [`ChainSpec`] per FK
/// column. Chains are returned in fact-schema column order.
pub fn participating_chains(u: &Universal<'_>, query: &Query) -> Result<Vec<ChainSpec>, BindError> {
    let root = u.root();
    // Tables the query references besides the root.
    let mut participating: HashSet<&str> = HashSet::new();
    for (t, _) in &query.selections {
        if t != root {
            participating.insert(t);
        }
    }
    for g in &query.group_by {
        if g.table != root {
            participating.insert(&g.table);
        }
    }

    // Group by first hop; collect every intermediate table along each path.
    let mut by_key_col: HashMap<String, (String, HashSet<String>)> = HashMap::new();
    for t in participating {
        let path = u.path(t)?;
        let first = &path.steps[0];
        let entry = by_key_col
            .entry(first.key_column.clone())
            .or_insert_with(|| (first.to_table.clone(), HashSet::new()));
        for step in &path.steps {
            entry.1.insert(step.to_table.clone());
        }
    }

    // Deterministic order: fact schema column order.
    let mut chains = Vec::new();
    for edge in u.graph().out_edges(root) {
        let key_col = &edge.key_column;
        if let Some((dim_table, tables)) = by_key_col.remove(key_col) {
            let mut tables: Vec<String> = tables.into_iter().collect();
            tables.sort_unstable();
            let has_predicates = tables.iter().any(|t| query.selection_on(t).is_some());
            chains.push(ChainSpec {
                fact_key_col: key_col.clone(),
                dim_table,
                tables,
                has_predicates,
            });
        }
    }
    Ok(chains)
}

/// Builds the composed predicate filter of a chain: a bitmap over the
/// first-level dimension's slots where bit `i` = 1 iff dimension row `i`
/// is live, passes its own predicates, and transitively references rows
/// passing theirs (recursive fold, paper §4.2).
pub fn build_chain_filter(db: &Database, query: &Query, chain: &ChainSpec) -> Bitmap {
    compose_table_filter(db, query, &chain.dim_table, &chain.tables)
}

/// Computes the composed bitmap for `table`, folding in the composed bitmaps
/// of any relevant child tables it references.
fn compose_table_filter(db: &Database, query: &Query, table: &str, relevant: &[String]) -> Bitmap {
    let t = db.table(table).unwrap_or_else(|| panic!("no table {table:?}"));

    // Local predicate (or pure liveness when the table has none).
    let mut bm = match query.selection_on(table) {
        Some(pred) => pred.eval_bitmap(t),
        None => t.live_bitmap().to_bitmap(),
    };

    // Fold children: for each outgoing AIR edge into a relevant table,
    // recursively compose the child's filter and probe it per local row.
    for edge in db.graph().out_edges(table) {
        if !relevant.contains(&edge.to_table) {
            continue;
        }
        let child_bm = compose_table_filter(db, query, &edge.to_table, relevant);
        let (_, keys) = t
            .column(&edge.key_column)
            .expect("edge column exists")
            .as_key()
            .expect("edge column is a key");
        // Only rows still passing need the child probe.
        let passing: Vec<usize> = bm.iter_ones().collect();
        for i in passing {
            let k = keys.get(i);
            if k == NULL_KEY || !child_bm.get_or_false(k as usize) {
                bm.set(i, false);
            }
        }
    }
    bm
}

/// The inclusive logical-value range a seedable fact predicate accepts.
///
/// A predicate that accepts exactly one integer [`Interval`] is seeded with
/// it ([`FactPred::seed`]); this is the bridge between a compiled predicate
/// and a sealed segment's [`EncodedColumn`]: the range is expressed over
/// the column's *logical* i64 domain (i32 widened, keys/dictionary codes as
/// `0..=u32::MAX` with [`NULL_KEY`] literally the largest), which is exactly
/// the domain the encodings preserve order over. A seeded predicate can
/// therefore be evaluated on bit-packed codes or FOR-offset words without
/// decoding.
///
/// [`EncodedColumn`]: astore_storage::encoded::EncodedColumn
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredRange {
    /// Fact-schema position of the tested column.
    pub col: usize,
    /// Smallest accepted logical value (inclusive).
    pub lo: i64,
    /// Largest accepted logical value (inclusive).
    pub hi: i64,
}

/// A compiled fact-local predicate, the column it tests and the values of
/// that column it accepts ([`CompiledPred::accepts`]) — read by the zone
/// survey, the encoded-scan seed and the estimate alike.
///
/// Every predicate keeps its row-wise [`CompiledPred::eval`] — the seed is
/// an *additional* capability the column-wise scan uses on sealed segments.
/// Predicates whose accepted set is not one integer interval (`<>`, `IN`,
/// raw-string and float comparisons, boolean combinators, dictionary sets
/// that are not one run of codes) carry no seed and always evaluate
/// row-wise.
pub struct FactPred<'a> {
    /// The compiled predicate (always usable row-wise).
    pub pred: CompiledPred<'a>,
    /// Position of the one column the predicate tests, when it tests one.
    pub col: Option<usize>,
    /// The values of `col` the predicate accepts, when it tests one column.
    pub accepts: Option<Accepts>,
}

impl<'a> FactPred<'a> {
    /// Wraps a compiled predicate whose column is not known: it is never
    /// seeded or surveyed, and its estimate is 1 unless it is constant.
    pub fn unseeded(pred: CompiledPred<'a>) -> Self {
        FactPred { pred, col: None, accepts: None }
    }

    /// Wraps a compiled predicate over fact column `col`.
    pub fn seeded(pred: CompiledPred<'a>, col: usize) -> Self {
        let accepts = pred.accepts();
        FactPred { pred, col: Some(col), accepts }
    }

    /// Compiles one conjunct against `table`, seeded when it tests a single
    /// resolvable column.
    pub fn compile(conjunct: &Pred, table: &'a Table) -> Self {
        let pred = conjunct.compile(table);
        let col = match conjunct {
            Pred::Cmp { col, .. } | Pred::Between { col, .. } | Pred::InList { col, .. } => {
                table.schema().position(col)
            }
            _ => None,
        };
        match col {
            Some(col) => FactPred::seeded(pred, col),
            None => FactPred::unseeded(pred),
        }
    }

    /// The encoded-scan seed: the accepted range, when the predicate
    /// accepts exactly one non-empty integer interval.
    pub fn seed(&self) -> Option<PredRange> {
        match self.accepts? {
            Accepts::Exactly(Interval::Int { lo, hi }) if lo <= hi => {
                Some(PredRange { col: self.col?, lo, hi })
            }
            _ => None,
        }
    }

    /// Estimated share of the scanned rows that pass, read from metadata
    /// alone: the accepted interval's overlap with each scanned segment's
    /// zone bounds ([`SegmentSurvey::range_share`]; `IN` sums its points,
    /// `<>` is the rest), a dictionary test its code-set size over the
    /// dictionary's length, and a test the estimate cannot see into 1.
    pub fn estimate(&self, fact: &Table, survey: &SegmentSurvey) -> f64 {
        let col = match (&self.pred, self.col) {
            (CompiledPred::Const(pass), _) => return f64::from(u8::from(*pass)),
            (_, Some(col)) => col,
            (_, None) => return 1.0,
        };
        let range = |iv: Interval| {
            let (lo, hi) = iv.as_f64();
            survey.range_share(fact, col, lo, hi)
        };
        let points = |vs: &mut dyn Iterator<Item = f64>| {
            vs.map(|v| survey.range_share(fact, col, v, v)).sum::<f64>()
        };
        let share = match (&self.pred, self.accepts) {
            (CompiledPred::I32In { set, .. }, _) => points(&mut set.iter().map(|&v| f64::from(v))),
            (CompiledPred::I64In { set, .. }, _) => points(&mut set.iter().map(|&v| v as f64)),
            (CompiledPred::DictEq { code, .. }, _) if *code == NULL_KEY => 0.0,
            (CompiledPred::DictEq { .. }, _) => match fact.column_at(col) {
                Column::Dict(dc) => 1.0 / dc.dict().len().max(1) as f64,
                _ => 1.0,
            },
            (CompiledPred::DictSet { matches, .. }, _) => {
                matches.count_ones() as f64 / matches.len().max(1) as f64
            }
            (_, Some(Accepts::AllBut(iv))) => 1.0 - range(iv),
            (_, Some(Accepts::Exactly(iv) | Accepts::Within(iv))) => range(iv),
            (_, None) => 1.0,
        };
        share.clamp(0.0, 1.0)
    }
}

/// SWAR range test over one word of bit-packed codes (paper §4.1's
/// vectorized scan, taken below word granularity).
///
/// Each lane holds a code `c < 2^(w-1)` — the packer reserves the lane's
/// top bit as a guard, always 0. For a code range `[clo, chi]` within the
/// same domain the caller builds three lane-replicated constants
/// ([`PackedRangeTest`]): `blo` adds `2^(w-1) - clo` per lane, so the
/// guard bit of the sum is set iff `c >= clo` (the per-lane sum stays
/// `< 2^w`: no carry crosses lanes); `bhi` holds `chi + 2^(w-1)` per lane,
/// so subtracting the word leaves the guard bit set iff `c <= chi` (the
/// minuend exceeds any lane value: no borrow crosses lanes); `h` masks the
/// guard bits. One add, one sub and two ANDs test every lane of the word
/// at once.
#[inline]
pub fn packed_range_mask(word: u64, blo: u64, bhi: u64, h: u64) -> u64 {
    word.wrapping_add(blo) & bhi.wrapping_sub(word) & h
}

/// [`packed_range_mask`] over a pair of adjacent words — the SSE2 wide
/// path. The SWAR constants make every 64-bit lane operation independent,
/// so a 128-bit add/sub tests two words (up to 64 codes) per instruction.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
#[allow(unsafe_code)]
#[inline]
pub fn packed_range_mask2(words: [u64; 2], blo: u64, bhi: u64, h: u64) -> [u64; 2] {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi64, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi64x, _mm_storeu_si128,
        _mm_sub_epi64,
    };
    // SAFETY: the cfg gate proves sse2 is enabled for this compilation;
    // loads/stores go through properly sized local arrays.
    unsafe {
        let w = _mm_loadu_si128(words.as_ptr() as *const __m128i);
        let ge = _mm_add_epi64(w, _mm_set1_epi64x(blo as i64));
        let le = _mm_sub_epi64(_mm_set1_epi64x(bhi as i64), w);
        let m = _mm_and_si128(_mm_and_si128(ge, le), _mm_set1_epi64x(h as i64));
        let mut out = [0u64; 2];
        _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, m);
        out
    }
}

/// Portable fallback for targets without the SSE2 wide path: two scalar
/// SWAR tests. Same contract as the wide version, bit-for-bit.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
#[inline]
pub fn packed_range_mask2(words: [u64; 2], blo: u64, bhi: u64, h: u64) -> [u64; 2] {
    [packed_range_mask(words[0], blo, bhi, h), packed_range_mask(words[1], blo, bhi, h)]
}

/// The lane-replicated SWAR constants for one (column, code-range) pair —
/// built once per segment, applied to every word.
#[derive(Debug, Clone, Copy)]
pub struct PackedRangeTest {
    /// Per-lane addend `2^(w-1) - clo`.
    pub blo: u64,
    /// Per-lane minuend `chi + 2^(w-1)`.
    pub bhi: u64,
    /// Guard-bit mask: bit `w-1` of every lane.
    pub h: u64,
    /// Lane width in bits.
    pub width: usize,
    /// Lanes per word.
    pub lanes: usize,
}

impl PackedRangeTest {
    /// Builds the constants for codes in `[clo, chi]` under lane width
    /// `width` with `lanes` lanes per word. Requires `clo <= chi <
    /// 2^(width-1)` — guaranteed by
    /// [`PackedInts::code_bounds`](astore_storage::encoded::PackedInts::code_bounds).
    pub fn new(clo: u64, chi: u64, width: usize, lanes: usize) -> Self {
        debug_assert!(clo <= chi);
        debug_assert!(chi < 1 << (width - 1));
        let half = 1u64 << (width - 1);
        let (mut blo, mut bhi, mut h) = (0u64, 0u64, 0u64);
        for lane in 0..lanes {
            let sh = lane * width;
            blo |= (half - clo) << sh;
            bhi |= (chi + half) << sh;
            h |= half << sh;
        }
        PackedRangeTest { blo, bhi, h, width, lanes }
    }

    /// Applies the test to one word.
    #[inline]
    pub fn mask(&self, word: u64) -> u64 {
        packed_range_mask(word, self.blo, self.bhi, self.h)
    }

    /// Applies the test to a word pair via the wide path.
    #[inline]
    pub fn mask2(&self, words: [u64; 2]) -> [u64; 2] {
        packed_range_mask2(words, self.blo, self.bhi, self.h)
    }

    /// Iterates the lane indices set in a result mask, ascending.
    #[inline]
    pub fn lanes_set(&self, mut mask: u64, mut f: impl FnMut(usize)) {
        while mask != 0 {
            let lane = mask.trailing_zeros() as usize / self.width;
            mask &= mask - 1;
            f(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use crate::query::Query;
    use astore_storage::prelude::*;

    /// Star: lineorder -> {date, customer}; snowflake tail:
    /// customer -> nation -> region.
    fn db() -> Database {
        let mut db = Database::new();

        let mut region =
            Table::new("region", Schema::new(vec![ColumnDef::new("r_name", DataType::Dict)]));
        for r in ["AMERICA", "ASIA"] {
            region.append_row(&[Value::Str(r.into())]);
        }

        let mut nation = Table::new(
            "nation",
            Schema::new(vec![
                ColumnDef::new("n_name", DataType::Dict),
                ColumnDef::new("n_region", DataType::Key { target: "region".into() }),
            ]),
        );
        nation.append_row(&[Value::Str("BRAZIL".into()), Value::Key(0)]);
        nation.append_row(&[Value::Str("CHINA".into()), Value::Key(1)]);
        nation.append_row(&[Value::Str("JAPAN".into()), Value::Key(1)]);

        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_nation", DataType::Key { target: "nation".into() }),
                ColumnDef::new("c_mkt", DataType::Dict),
            ]),
        );
        customer.append_row(&[Value::Key(0), Value::Str("AUTO".into())]); // BRAZIL/AMERICA
        customer.append_row(&[Value::Key(1), Value::Str("AUTO".into())]); // CHINA/ASIA
        customer.append_row(&[Value::Key(2), Value::Str("BIKE".into())]); // JAPAN/ASIA
        customer.append_row(&[Value::Key(NULL_KEY), Value::Str("AUTO".into())]);

        let mut date =
            Table::new("date", Schema::new(vec![ColumnDef::new("d_year", DataType::I32)]));
        for y in [1996, 1997, 1998] {
            date.append_row(&[Value::Int(y)]);
        }

        let mut fact = Table::new(
            "lineorder",
            Schema::new(vec![
                ColumnDef::new("lo_custkey", DataType::Key { target: "customer".into() }),
                ColumnDef::new("lo_datekey", DataType::Key { target: "date".into() }),
                ColumnDef::new("lo_revenue", DataType::I64),
            ]),
        );
        for (c, d, r) in [(0u32, 0u32, 10i64), (1, 1, 20), (2, 2, 30), (3, 0, 40)] {
            fact.append_row(&[Value::Key(c), Value::Key(d), Value::Int(r)]);
        }

        db.add_table(region);
        db.add_table(nation);
        db.add_table(customer);
        db.add_table(date);
        db.add_table(fact);
        db
    }

    #[test]
    fn chains_grouped_by_fact_key_column() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        let q = Query::new()
            .filter("region", Pred::eq("r_name", "ASIA"))
            .filter("date", Pred::eq("d_year", 1997))
            .group("nation", "n_name");
        let chains = participating_chains(&u, &q).unwrap();
        assert_eq!(chains.len(), 2);
        // Fact schema order: lo_custkey before lo_datekey.
        assert_eq!(chains[0].fact_key_col, "lo_custkey");
        assert_eq!(chains[0].dim_table, "customer");
        assert_eq!(chains[0].tables, vec!["customer", "nation", "region"]);
        assert!(chains[0].has_predicates);
        assert_eq!(chains[1].fact_key_col, "lo_datekey");
        assert_eq!(chains[1].tables, vec!["date"]);
        assert!(chains[1].has_predicates);
    }

    #[test]
    fn chain_without_predicates_flagged() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        let q = Query::new().group("date", "d_year");
        let chains = participating_chains(&u, &q).unwrap();
        assert_eq!(chains.len(), 1);
        assert!(!chains[0].has_predicates);
    }

    #[test]
    fn single_table_filter() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        let q = Query::new().filter("date", Pred::eq("d_year", 1997));
        let chains = participating_chains(&u, &q).unwrap();
        let bm = build_chain_filter(&db, &q, &chains[0]);
        assert_eq!(bm.len(), 3);
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn snowflake_filter_composes_down_the_chain() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        // region = ASIA folds region -> nation -> customer.
        let q = Query::new().filter("region", Pred::eq("r_name", "ASIA"));
        let chains = participating_chains(&u, &q).unwrap();
        assert_eq!(chains[0].dim_table, "customer");
        let bm = build_chain_filter(&db, &q, &chains[0]);
        // customers 1 (CHINA) and 2 (JAPAN) are in ASIA; 0 is AMERICA;
        // 3 has a NULL nation reference and must drop out.
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![1, 2]);
    }

    #[test]
    fn local_and_folded_predicates_combine() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        let q = Query::new()
            .filter("region", Pred::eq("r_name", "ASIA"))
            .filter("customer", Pred::eq("c_mkt", "AUTO"));
        let chains = participating_chains(&u, &q).unwrap();
        let bm = build_chain_filter(&db, &q, &chains[0]);
        // Only customer 1 is both AUTO and in ASIA.
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn dead_dimension_rows_are_filtered() {
        let mut db = db();
        db.table_mut("customer").unwrap().delete(1);
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        let q = Query::new().filter("region", Pred::eq("r_name", "ASIA"));
        let chains = participating_chains(&u, &q).unwrap();
        let bm = build_chain_filter(&db, &q, &chains[0]);
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![2]);
    }

    #[test]
    fn intermediate_table_without_predicate_still_folds() {
        let db = db();
        let u = Universal::bind(&db, Some("lineorder"), &[]).unwrap();
        // Group by region name, no predicates anywhere: bitmap over customer
        // is just "has a complete live chain".
        let q = Query::new().group("region", "r_name");
        let chains = participating_chains(&u, &q).unwrap();
        assert!(!chains[0].has_predicates);
        let bm = build_chain_filter(&db, &q, &chains[0]);
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![0, 1, 2], "customer 3 has a NULL chain");
    }

    use crate::expr::CmpOp;

    /// Oracle check: the SWAR mask agrees with per-lane comparison for
    /// every width, across both the scalar and the wide path.
    #[test]
    fn packed_range_mask_matches_per_lane_oracle() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in 2..=32usize {
            let lanes = 64 / width;
            let lane_max = (1u64 << (width - 1)) - 1;
            for _ in 0..8 {
                let mut a = next() % (lane_max + 1);
                let mut b = next() % (lane_max + 1);
                if a > b {
                    std::mem::swap(&mut a, &mut b);
                }
                let t = PackedRangeTest::new(a, b, width, lanes);
                let mut words = [0u64; 2];
                let mut codes = vec![[0u64; 2]; lanes];
                for (lane, c) in codes.iter_mut().enumerate() {
                    for half in 0..2 {
                        c[half] = next() % (lane_max + 1);
                        words[half] |= c[half] << (lane * width);
                    }
                }
                let wide = t.mask2(words);
                for half in 0..2 {
                    assert_eq!(wide[half], t.mask(words[half]), "wide == scalar w={width}");
                    let mut got = vec![false; lanes];
                    t.lanes_set(wide[half], |lane| got[lane] = true);
                    for (lane, c) in codes.iter().enumerate() {
                        let want = c[half] >= a && c[half] <= b;
                        assert_eq!(got[lane], want, "w={width} lane={lane} c={}", c[half]);
                    }
                }
            }
        }
    }

    /// Estimates read zone bounds and dictionaries, never rows: a range is
    /// its overlap with each segment's bounds, a dictionary test its share
    /// of the codes, anything else 1.
    #[test]
    fn fact_pred_estimates_read_metadata_only() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::I32),
                ColumnDef::new("d", DataType::Dict),
                ColumnDef::new("f", DataType::F64),
            ]),
        );
        t.set_segment_rows(4);
        // Segment 0: a in 0..=3, segment 1: a in 10..=13; d cycles over
        // four values; f = a / 2.
        for a in [0i64, 1, 2, 3, 10, 11, 12, 13] {
            let d = ["w", "x", "y", "z"][a as usize % 4];
            t.append_row(&[Value::Int(a), Value::Str(d.into()), Value::Float(a as f64 / 2.0)]);
        }
        let all = SegmentSurvey::new(&t, None);
        let est = |p: Pred| FactPred::compile(&p, &t).estimate(&t, &all);
        let close = |got: f64, want: f64| assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        close(est(Pred::cmp("a", CmpOp::Lt, 2)), 0.25);
        close(est(Pred::cmp("a", CmpOp::Le, 2)), 3.0 / 8.0);
        close(est(Pred::cmp("a", CmpOp::Ne, 2)), 7.0 / 8.0);
        close(est(Pred::between("a", 2, 11)), 4.0 / 8.0);
        close(est(Pred::in_list("a", vec![0, 13, 99])), 2.0 / 8.0);
        close(est(Pred::eq("a", 7)), 0.0);
        close(est(Pred::eq("d", "x")), 0.25);
        close(est(Pred::eq("d", "absent")), 0.0);
        close(est(Pred::in_list("d", vec!["w", "z"])), 0.5);
        close(est(Pred::cmp("f", CmpOp::Ge, 6.0)), (0.5 / 1.5) / 2.0);
        close(est(Pred::Or(vec![Pred::eq("a", 1), Pred::eq("d", "x")])), 1.0);
        close(est(Pred::Const(false)), 0.0);
        // A dead row leaves its segment's weight, not its bounds.
        t.delete(4);
        let all = SegmentSurvey::new(&t, None);
        close(FactPred::compile(&Pred::cmp("a", CmpOp::Ge, 10), &t).estimate(&t, &all), 3.0 / 7.0);
    }

    /// Seeds come from the *compiled* predicate, so literal coercions are
    /// already applied; non-interval predicates stay unseeded.
    #[test]
    fn seed_ranges_follow_compiled_semantics() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::I32),
                ColumnDef::new("b", DataType::I64),
                ColumnDef::new("k", DataType::Key { target: "t".into() }),
                ColumnDef::new("d", DataType::Dict),
                ColumnDef::new("f", DataType::F64),
            ]),
        );
        t.append_row(&[
            Value::Int(1),
            Value::Int(2),
            Value::Key(0),
            Value::Str("x".into()),
            Value::Float(1.5),
        ]);
        let seed = |p: Pred, col: usize| FactPred::seeded(p.compile(&t), col).seed();

        // A comparison compiles to the range it accepts within the
        // column's domain.
        let (i32_min, i32_max) = (i64::from(i32::MIN), i64::from(i32::MAX));
        assert_eq!(
            seed(Pred::cmp("a", CmpOp::Ge, 10), 0),
            Some(PredRange { col: 0, lo: 10, hi: i32_max })
        );
        assert_eq!(
            seed(Pred::cmp("a", CmpOp::Lt, 10), 0),
            Some(PredRange { col: 0, lo: i32_min, hi: 9 })
        );
        assert_eq!(seed(Pred::between("b", 3, 7), 1), Some(PredRange { col: 1, lo: 3, hi: 7 }));
        // Float literal over an int column truncates at compile time; the
        // seed must reproduce the truncated bound, not the written one.
        let f = seed(Pred::cmp("b", CmpOp::Le, 2.9), 1).expect("seeded");
        assert_eq!((f.lo, f.hi), (i64::MIN, 2));
        // Key order treats NULL_KEY as the largest u32.
        assert_eq!(
            seed(Pred::cmp("k", CmpOp::Gt, 0), 2),
            Some(PredRange { col: 2, lo: 1, hi: i64::from(NULL_KEY) })
        );
        // Dict equality seeds on the resolved code ("x" -> code 0); a miss
        // resolves to NULL_KEY and seeds a range no stored code reaches.
        assert_eq!(seed(Pred::eq("d", "x"), 3), Some(PredRange { col: 3, lo: 0, hi: 0 }));
        assert_eq!(
            seed(Pred::eq("d", "zzz"), 3),
            Some(PredRange { col: 3, lo: NULL_KEY as i64, hi: NULL_KEY as i64 })
        );
        // A string range over a sorted dictionary is one run of codes; a set
        // with a gap is not.
        for v in ["a", "m", "z"] {
            t.append_row(&[
                Value::Int(1),
                Value::Int(2),
                Value::Key(0),
                Value::Str(v.into()),
                Value::Float(1.5),
            ]);
        }
        let seed = |p: Pred, col: usize| FactPred::seeded(p.compile(&t), col).seed();
        // Codes in first-appearance order: x=0, a=1, m=2, z=3.
        assert_eq!(seed(Pred::between("d", "a", "n"), 3), Some(PredRange { col: 3, lo: 1, hi: 2 }));
        assert_eq!(seed(Pred::in_list("d", vec!["a", "z"]), 3), None);
        assert_eq!(seed(Pred::between("d", "0", "1"), 3), None, "an empty set seeds nothing");
        // Not intervals (or not integer domains): unseeded.
        assert_eq!(seed(Pred::cmp("a", CmpOp::Ne, 1), 0), None);
        assert_eq!(seed(Pred::in_list("a", vec![1, 5]), 0), None);
        assert_eq!(seed(Pred::cmp("f", CmpOp::Lt, 2.0), 4), None);
    }
}
