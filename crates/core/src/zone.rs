//! Zone-map data skipping over segmented fact tables.
//!
//! The storage layer partitions every table into fixed-size segments with
//! per-column min/max statistics (`astore_storage::segment`). The
//! [`SegmentSurvey`] asks, once per segment and before the scan touches a
//! single column value, whether the segment can hold a row that passes the
//! execution's compiled selection tests ([`SelTest`]) — one rule per test:
//!
//! * a fact test keeps a segment whose zone bounds meet the values it
//!   accepts ([`CompiledPred::accepts`](crate::expr::CompiledPred::accepts)),
//!   and an empty interval keeps none. Key columns follow the raw `u32`
//!   order, in which [`NULL_KEY`] is the largest value, so an interval that
//!   reaches it keeps every segment holding a NULL key;
//! * a probed chain keeps a segment whose foreign-key bounds hold a set bit
//!   of its predicate vector ([`Bitmap::any_in_range`]);
//! * a direct chase keeps every segment;
//!
//! and a segment without a live row is never kept. Every answer is
//! conservative: zone bounds only ever widen under incremental maintenance,
//! so a `false` proves the segment empty of matches while a `true` merely
//! means "scan it". The tests' estimates are then read from the kept
//! segments' zone maps ([`SegmentSurvey::range_share`]).
//!
//! [`Bitmap::any_in_range`]: astore_storage::bitmap::Bitmap::any_in_range

use astore_storage::segment::{SegmentZone, ZoneStats};
use astore_storage::table::Table;
use astore_storage::types::NULL_KEY;

use crate::expr::{Accepts, Interval};
use crate::scan::{ChainCheck, SelTest};

/// Can a segment whose column bounds are `stat` hold a value of `iv`?
fn meets(iv: Interval, stat: &ZoneStats) -> bool {
    if iv.is_empty() {
        return false;
    }
    match (iv, stat) {
        (Interval::Int { lo, hi }, &ZoneStats::Int { min, max }) => lo <= max && hi >= min,
        (Interval::Float { lo, hi }, &ZoneStats::Float { min, max }) => lo <= max && hi >= min,
        // An all-NULL segment has `min > max`.
        (Interval::Int { lo, hi }, &ZoneStats::Key { min, max, nulls }) => {
            (nulls > 0 && hi >= i64::from(NULL_KEY))
                || (min <= max && lo <= i64::from(max) && hi >= i64::from(min))
        }
        // Untracked columns — and any type drift — cannot prune.
        _ => true,
    }
}

/// Can the segment of `zone` hold a row that passes `test`?
fn keeps(test: &SelTest<'_>, zone: &SegmentZone) -> bool {
    match test {
        SelTest::Fact(p) => match (p.col, p.accepts) {
            (Some(col), Some(Accepts::Exactly(iv) | Accepts::Within(iv))) => {
                meets(iv, zone.stat(col))
            }
            _ => true,
        },
        SelTest::Chain(ChainCheck::PredVec { col, bitmap, .. }) => match zone.stat(*col) {
            // Empty key range = every live row's FK is NULL: the probe
            // fails them all. Otherwise the vector must have a qualifying
            // dimension row in range.
            &ZoneStats::Key { min, max, .. } => {
                min <= max && bitmap.any_in_range(min as usize, max as usize)
            }
            _ => true,
        },
        SelTest::Chain(ChainCheck::Direct { .. }) => true,
    }
}

/// The keep/prune decision for every segment of one execution, made once
/// and shared by the fan-out decision, the estimates and the morsel
/// dispatcher.
#[derive(Debug)]
pub struct SegmentSurvey {
    keep: Vec<bool>,
    live_rows: usize,
    pruned: usize,
}

impl SegmentSurvey {
    /// Surveys every segment of `fact` with every test (see the module
    /// docs). Without tests — pruning disabled — every segment is kept.
    pub fn new(fact: &Table, tests: Option<&[SelTest<'_>]>) -> SegmentSurvey {
        let mut keep = Vec::with_capacity(fact.segment_count());
        let (mut live_rows, mut pruned) = (0usize, 0usize);
        for seg in 0..fact.segment_count() {
            let zone = fact.zone(seg);
            let k = tests.is_none_or(|ts| zone.live() > 0 && ts.iter().all(|t| keeps(t, zone)));
            if k {
                live_rows += zone.live() as usize;
            } else {
                pruned += 1;
            }
            keep.push(k);
        }
        SegmentSurvey { keep, live_rows, pruned }
    }

    /// Should segment `seg` be scanned? Out-of-range segments (appended
    /// concurrently — cannot happen under the executor's snapshot) read as
    /// kept, the conservative answer.
    #[inline]
    pub fn keep(&self, seg: usize) -> bool {
        self.keep.get(seg).copied().unwrap_or(true)
    }

    /// Live rows across the surviving segments.
    pub fn live_rows(&self) -> usize {
        self.live_rows
    }

    /// Segments the survey pruned.
    pub fn pruned(&self) -> usize {
        self.pruned
    }

    /// Estimated share of the kept segments' live rows of `fact` whose
    /// value in column `col` lies in `[lo, hi]` — what the selection tests'
    /// estimates are read from, so ordering them samples no row. Each
    /// segment contributes its live rows times the share of its zone bounds
    /// the range covers, values taken as uniform between the bounds. An
    /// untracked column reads as 1.
    pub fn range_share(&self, fact: &Table, col: usize, lo: f64, hi: f64) -> f64 {
        if self.live_rows == 0 {
            return 0.0;
        }
        let rows: f64 = fact
            .zones()
            .iter()
            .zip(&self.keep)
            .filter(|(zone, &keep)| keep && zone.live() > 0)
            .map(|(zone, _)| zone.live() as f64 * bounds_share(zone.stat(col), lo, hi))
            .sum();
        rows / self.live_rows as f64
    }
}

/// Share of a zone's value bounds that `[lo, hi]` covers (integer and key
/// bounds count values, float bounds measure width).
fn bounds_share(stat: &ZoneStats, lo: f64, hi: f64) -> f64 {
    let (min, max, unit) = match *stat {
        ZoneStats::Int { min, max } => (min as f64, max as f64, 1.0),
        ZoneStats::Key { min, max, .. } => (f64::from(min), f64::from(max), 1.0),
        ZoneStats::Float { min, max } => (min, max, 0.0),
        ZoneStats::Untracked => return 1.0,
    };
    if min > max || hi < min || lo > max {
        return 0.0;
    }
    let span = max - min + unit;
    if span <= 0.0 {
        return 1.0;
    }
    ((hi.min(max) - lo.max(min) + unit) / span).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions};
    use crate::expr::{CmpOp, Pred};
    use crate::filter::FactPred;
    use crate::query::{Aggregate, Query};
    use astore_storage::bitmap::Bitmap;
    use astore_storage::prelude::*;

    /// fact(f_v i64, f_f f64, f_dim key->dim) with 3 segments of 4 rows:
    /// f_v = row * 10, f_dim = row / 4 (segment-clustered keys).
    fn fact_table() -> Table {
        let mut t = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_v", DataType::I64),
                ColumnDef::new("f_f", DataType::F64),
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
            ]),
        );
        t.set_segment_rows(4);
        for i in 0..12i64 {
            t.append_row(&[
                Value::Int(i * 10),
                Value::Float(i as f64 / 2.0),
                Value::Key((i / 4) as u32),
            ]);
        }
        t
    }

    /// The segments a survey by `tests` keeps.
    fn kept(t: &Table, tests: &[SelTest<'_>]) -> Vec<usize> {
        let survey = SegmentSurvey::new(t, Some(tests));
        (0..t.segment_count()).filter(|&s| survey.keep(s)).collect()
    }

    /// The segments a survey by the one fact conjunct `pred` keeps.
    fn kept_by(t: &Table, pred: Pred) -> Vec<usize> {
        kept(t, &[SelTest::Fact(FactPred::compile(&pred, t))])
    }

    #[test]
    fn cmp_ranges_prune_int_segments() {
        let t = fact_table();
        // f_v >= 80 → only segment 2 (values 80..=110).
        assert_eq!(kept_by(&t, Pred::cmp("f_v", CmpOp::Ge, 80)), vec![2]);
        // f_v < 40 → only segment 0.
        assert_eq!(kept_by(&t, Pred::cmp("f_v", CmpOp::Lt, 40)), vec![0]);
        // Eq on a boundary value.
        assert_eq!(kept_by(&t, Pred::eq("f_v", 70)), vec![1]);
    }

    #[test]
    fn between_and_in_prune() {
        let t = fact_table();
        assert_eq!(
            kept_by(&t, Pred::between("f_f", 2.25, 3.0)),
            vec![1],
            "floats 2.25..3.0 live in segment 1 (2.0..=3.5)"
        );
        assert_eq!(kept_by(&t, Pred::in_list("f_v", vec![90, 100])), vec![2]);
        // Empty IN list prunes everything.
        assert!(kept_by(&t, Pred::in_list("f_v", Vec::<i64>::new())).is_empty());
    }

    #[test]
    fn i32_between_clamps_exactly_like_predicate_compilation() {
        // `compile_between` clamps out-of-range BETWEEN bounds into the
        // i32 domain, so `v BETWEEN 3e9 AND 4e9` still matches i32::MAX
        // rows. The zone test must keep such segments (regression: an
        // unclamped zone range pruned them, diverging from the flat scan).
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I32)]));
        for v in [0i64, 5, i64::from(i32::MAX)] {
            t.append_row(&[Value::Int(v)]);
        }
        let pred = Pred::between("v", 3_000_000_000i64, 4_000_000_000i64);
        let compiled = pred.compile(&t);
        let row_hits = (0..3).filter(|&r| compiled.eval(r)).count();
        assert_eq!(row_hits, 1, "the i32::MAX row matches the clamped range");
        assert_eq!(kept_by(&t, pred), vec![0], "zone test must not out-prune the rows");
        // Below-range bounds clamp symmetrically.
        let pred = Pred::between("v", -4_000_000_000i64, -3_000_000_000i64);
        let compiled = pred.compile(&t);
        assert_eq!(
            (0..3).any(|r| compiled.eval(r)),
            !kept_by(&t, pred).is_empty(),
            "zone and row tests agree on the below-range clamp"
        );
    }

    #[test]
    fn unprunable_shapes_return_none() {
        let t = fact_table();
        let all = vec![0, 1, 2];
        assert_eq!(kept_by(&t, Pred::cmp("f_v", CmpOp::Ne, 10)), all);
        assert_eq!(kept_by(&t, Pred::Const(true)), all);
        assert_eq!(kept_by(&t, Pred::Or(vec![Pred::eq("f_v", 1), Pred::eq("f_v", 2)])), all);
        // A fact-local key conjunct prunes by its column's zone like any
        // other range.
        assert_eq!(kept_by(&t, Pred::eq("f_dim", 1)), vec![1], "key columns are zone-tested");
    }

    #[test]
    fn chain_key_range_prunes_clustered_segments() {
        let t = fact_table();
        // Chain bitmap over 3 dimension rows: only dim row 2 qualifies →
        // only segment 2 (keys all = 2) survives, whether the chain is
        // probed or compiled as the key range of its one run.
        let mut bm = Bitmap::new(3, false);
        bm.set(2, true);
        let col = t.schema().position("f_dim").unwrap();
        let (_, keys) = t.column_at(col).as_key().unwrap();
        let probe = SelTest::Chain(ChainCheck::PredVec { keys, col, bitmap: &bm });
        assert_eq!(kept(&t, std::slice::from_ref(&probe)), vec![2]);
        assert_eq!(SegmentSurvey::new(&t, Some(&[probe])).live_rows(), 4);
        let run = SelTest::chain(keys, col, &bm);
        assert!(matches!(run, SelTest::Fact(_)), "one run is a key range");
        assert_eq!(kept(&t, &[run]), vec![2]);
        // A direct chase keeps every segment.
        let direct = SelTest::Chain(ChainCheck::Direct { checks: Vec::new() });
        assert_eq!(kept(&t, &[direct]), vec![0, 1, 2]);
    }

    #[test]
    fn fully_deleted_segment_is_pruned() {
        let mut t = fact_table();
        for r in 4..8 {
            t.delete(r);
        }
        assert_eq!(kept(&t, &[]), vec![0, 2]);
        // Pruning disabled keeps it.
        let all = SegmentSurvey::new(&t, None);
        assert_eq!((all.pruned(), all.live_rows()), (0, 8));
    }

    #[test]
    fn widened_bounds_stay_sound() {
        let mut t = fact_table();
        // Move one value of segment 0 into "segment 2 territory": the zone
        // widens and segment 0 must now survive an f_v >= 80 probe.
        t.update(1, "f_v", &Value::Int(95));
        assert_eq!(kept_by(&t, Pred::cmp("f_v", CmpOp::Ge, 80)), vec![0, 2]);
    }

    /// `NULL_KEY` is the largest key: a key interval reaching it keeps the
    /// segments holding NULLs — the all-NULL one included — and a
    /// fact-local `f_dim >= k` returns the same rows with pruning on and
    /// off.
    #[test]
    fn null_keys_are_the_largest_key() {
        let mut db = Database::new();
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_v", DataType::I32)]));
        for v in 0..4 {
            dim.append_row(&[Value::Int(v)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        fact.set_segment_rows(4);
        // Segment 0: keys 0..=3; segment 1: all NULL; segment 2: 1 and NULL.
        let keys = [0, 1, 2, 3, NULL_KEY, NULL_KEY, NULL_KEY, NULL_KEY, 1, NULL_KEY, 1, NULL_KEY];
        for (i, k) in keys.into_iter().enumerate() {
            fact.append_row(&[Value::Key(k), Value::Int(i as i64)]);
        }
        db.add_table(dim);
        db.add_table(fact);
        let fact = db.table("fact").unwrap();
        let all_null = fact.zone(1).stat(0);
        assert!(matches!(*all_null, ZoneStats::Key { min, max, nulls: 4 } if min > max));
        for (op, k, want) in [
            (CmpOp::Ge, 2, vec![0, 1, 2]),
            (CmpOp::Ge, i64::from(NULL_KEY), vec![1, 2]),
            (CmpOp::Gt, 3, vec![1, 2]),
            (CmpOp::Le, 2, vec![0, 2]),
            (CmpOp::Eq, 1, vec![0, 2]),
        ] {
            let pred = Pred::cmp("f_dim", op, k);
            assert_eq!(kept_by(fact, pred.clone()), want, "f_dim {op:?} {k}");
            let q = Query::new().root("fact").filter("fact", pred).agg(Aggregate::count("n"));
            let on = execute(&db, &q, &ExecOptions::default()).unwrap();
            let off = execute(&db, &q, &ExecOptions::default().pruning(false)).unwrap();
            assert_eq!(on.result.rows, off.result.rows, "f_dim {op:?} {k}");
            assert_eq!(on.plan.segments_pruned, 3 - want.len(), "f_dim {op:?} {k}");
        }
    }

    #[test]
    fn range_share_weighs_zone_overlap_by_live_rows() {
        let mut t = fact_table();
        let all = SegmentSurvey::new(&t, None);
        let v = t.schema().position("f_v").unwrap();
        // f_v bounds per segment: 0..=30, 40..=70, 80..=110.
        assert!((all.range_share(&t, v, 0.0, 110.0) - 1.0).abs() < 1e-12);
        let one_value = all.range_share(&t, v, 40.0, 40.0);
        assert!((one_value - (1.0 / 31.0) / 3.0).abs() < 1e-12, "{one_value}");
        assert_eq!(all.range_share(&t, v, 200.0, 300.0), 0.0);
        // Only the segments a survey keeps count.
        let dim = t.schema().position("f_dim").unwrap();
        let (_, keys) = t.column_at(dim).as_key().unwrap();
        let mut bm = Bitmap::new(3, false);
        bm.set(2, true);
        let kept = SegmentSurvey::new(&t, Some(&[SelTest::chain(keys, dim, &bm)]));
        assert!((kept.range_share(&t, v, 80.0, 110.0) - 1.0).abs() < 1e-12);
        assert!((kept.range_share(&t, dim, 2.0, 2.0) - 1.0).abs() < 1e-12);
        // Float bounds measure width; a degenerate zone is all or nothing.
        let f = t.schema().position("f_f").unwrap();
        assert!((kept.range_share(&t, f, 4.0, 4.75) - 0.5).abs() < 1e-12);
        for r in 0..12 {
            t.delete(r);
        }
        let none = SegmentSurvey::new(&t, None);
        assert_eq!(none.range_share(&t, v, 0.0, 110.0), 0.0, "no live row");
    }
}
