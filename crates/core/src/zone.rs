//! Zone-map data skipping over segmented fact tables.
//!
//! The storage layer partitions every table into fixed-size segments with
//! per-column min/max statistics (`astore_storage::segment`). This module
//! turns a query's selection into *segment-level* tests:
//!
//! * a fact-local conjunct becomes a [`ZonePred`] — an inclusive value
//!   range that a segment's bounds must intersect for any row to qualify;
//! * a dimension chain probed through a predicate vector becomes a
//!   key-range test — the segment's FK bounds are checked for *any* set
//!   bit in the composed chain bitmap ([`Bitmap::any_in_range`]).
//!
//! A [`SegmentPruner`] bundles both and answers "can segment `s` contain a
//! qualifying row?" once per segment, before the scan touches a single
//! column value. Every answer is conservative: zone bounds only ever widen
//! under incremental maintenance, so a `false` proves the segment empty of
//! matches while a `true` merely means "scan it".

use astore_storage::bitmap::Bitmap;
use astore_storage::column::Column;
use astore_storage::segment::ZoneStats;
use astore_storage::table::Table;

use crate::expr::{CmpOp, Lit, Pred};

/// An inclusive value range a segment's column bounds must intersect.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoneRange {
    /// Integer range (for `i32`/`i64` columns).
    Int {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Float range (for `f64` columns). Strict bounds are relaxed to
    /// inclusive ones — a widening that can only reduce pruning.
    Float {
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
}

/// A segment-level test compiled from one fact-local conjunct.
#[derive(Debug, Clone, PartialEq)]
pub struct ZonePred {
    /// Position of the tested column in the fact schema.
    pub col: usize,
    /// The value range a segment must overlap.
    pub range: ZoneRange,
}

fn int_of(lit: &Lit) -> Option<i64> {
    match lit {
        Lit::Int(v) => Some(*v),
        // Mirrors predicate compilation, which truncates float literals
        // against integer columns.
        Lit::Float(f) => Some(*f as i64),
        Lit::Str(_) | Lit::Param(_) => None,
    }
}

fn float_of(lit: &Lit) -> Option<f64> {
    match lit {
        Lit::Int(v) => Some(*v as f64),
        Lit::Float(f) => Some(*f),
        Lit::Str(_) | Lit::Param(_) => None,
    }
}

impl ZonePred {
    /// Compiles one conjunct into a zone test, or `None` when the conjunct
    /// cannot prune (non-range shapes, string/dictionary/key columns,
    /// unbound parameters). `None` never loses correctness — the conjunct
    /// is still evaluated row-wise inside surviving segments.
    pub fn from_conjunct(pred: &Pred, table: &Table) -> Option<ZonePred> {
        let (col_name, range) = match pred {
            Pred::Cmp { col, op, lit } => (col, Self::cmp_range(table, col, *op, lit)?),
            Pred::Between { col, lo, hi } => (col, Self::between_range(table, col, lo, hi)?),
            Pred::InList { col, lits } => (col, Self::in_range(table, col, lits)?),
            _ => return None,
        };
        Some(ZonePred { col: table.schema().position(col_name)?, range })
    }

    fn is_int_col(table: &Table, col: &str) -> Option<bool> {
        match table.column(col)? {
            Column::I32(_) | Column::I64(_) => Some(true),
            Column::F64(_) => Some(false),
            _ => None,
        }
    }

    fn is_i32_col(table: &Table, col: &str) -> bool {
        matches!(table.column(col), Some(Column::I32(_)))
    }

    fn cmp_range(table: &Table, col: &str, op: CmpOp, lit: &Lit) -> Option<ZoneRange> {
        if Self::is_int_col(table, col)? {
            let v = int_of(lit)?;
            let (lo, hi) = match op {
                CmpOp::Eq => (v, v),
                CmpOp::Ge => (v, i64::MAX),
                CmpOp::Gt => (v.checked_add(1)?, i64::MAX),
                CmpOp::Le => (i64::MIN, v),
                CmpOp::Lt => (i64::MIN, v.checked_sub(1)?),
                CmpOp::Ne => return None,
            };
            Some(ZoneRange::Int { lo, hi })
        } else {
            let v = float_of(lit)?;
            let (lo, hi) = match op {
                CmpOp::Eq => (v, v),
                // Strict float bounds relax to inclusive — sound.
                CmpOp::Ge | CmpOp::Gt => (v, f64::INFINITY),
                CmpOp::Le | CmpOp::Lt => (f64::NEG_INFINITY, v),
                CmpOp::Ne => return None,
            };
            Some(ZoneRange::Float { lo, hi })
        }
    }

    fn between_range(table: &Table, col: &str, lo: &Lit, hi: &Lit) -> Option<ZoneRange> {
        if Self::is_int_col(table, col)? {
            let (mut lo, mut hi) = (int_of(lo)?, int_of(hi)?);
            if Self::is_i32_col(table, col) {
                // Mirror predicate compilation exactly: `compile_between`
                // clamps BETWEEN bounds into the i32 domain, so an
                // out-of-range bound collapses onto i32::MIN/MAX and can
                // still match boundary values. The zone test must not be
                // tighter than the row test it stands in for.
                lo = lo.clamp(i64::from(i32::MIN), i64::from(i32::MAX));
                hi = hi.clamp(i64::from(i32::MIN), i64::from(i32::MAX));
            }
            Some(ZoneRange::Int { lo, hi })
        } else {
            Some(ZoneRange::Float { lo: float_of(lo)?, hi: float_of(hi)? })
        }
    }

    fn in_range(table: &Table, col: &str, lits: &[Lit]) -> Option<ZoneRange> {
        // The list's envelope [min, max]: looser than the exact set but
        // enough to skip segments wholly outside it. An empty list is an
        // empty range and prunes everything (IN () matches nothing).
        if Self::is_int_col(table, col)? {
            let vs: Option<Vec<i64>> = lits.iter().map(int_of).collect();
            let vs = vs?;
            Some(ZoneRange::Int {
                lo: vs.iter().copied().min().unwrap_or(i64::MAX),
                hi: vs.iter().copied().max().unwrap_or(i64::MIN),
            })
        } else {
            let vs: Option<Vec<f64>> = lits.iter().map(float_of).collect();
            let vs = vs?;
            Some(ZoneRange::Float {
                lo: vs.iter().copied().fold(f64::INFINITY, f64::min),
                hi: vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            })
        }
    }

    /// Can any value inside `stats` satisfy this range?
    pub fn may_match(&self, stats: &ZoneStats) -> bool {
        match (&self.range, stats) {
            (ZoneRange::Int { lo, hi }, ZoneStats::Int { min, max }) => lo <= max && hi >= min,
            (ZoneRange::Float { lo, hi }, ZoneStats::Float { min, max }) => lo <= max && hi >= min,
            // Untracked columns — and any type drift — cannot prune.
            _ => true,
        }
    }
}

/// The per-segment admission test of one execution: fact-local zone
/// predicates plus chain key-range probes, evaluated against the fact
/// table's zone maps.
#[derive(Debug)]
pub struct SegmentPruner<'a> {
    fact: &'a Table,
    preds: Vec<ZonePred>,
    /// `(fact FK column position, composed chain predicate vector)` for
    /// every chain the leaf phase materialized a bitmap for.
    chains: Vec<(usize, &'a Bitmap)>,
}

impl<'a> SegmentPruner<'a> {
    /// Builds the pruner from the fact table's selection (already bound —
    /// no parameters) and the leaf phase's materialized chain filters.
    pub fn new(
        fact: &'a Table,
        fact_pred: Option<&Pred>,
        chains: Vec<(usize, &'a Bitmap)>,
    ) -> SegmentPruner<'a> {
        let preds = fact_pred
            .map(|p| {
                p.conjuncts().iter().filter_map(|c| ZonePred::from_conjunct(c, fact)).collect()
            })
            .unwrap_or_default();
        SegmentPruner { fact, preds, chains }
    }

    /// Can segment `seg` contain a row satisfying the whole selection?
    pub fn may_match(&self, seg: usize) -> bool {
        let zone = self.fact.zone(seg);
        if zone.live() == 0 {
            return false;
        }
        for p in &self.preds {
            if !p.may_match(zone.stat(p.col)) {
                return false;
            }
        }
        for &(col, bitmap) in &self.chains {
            if let ZoneStats::Key { min, max, .. } = zone.stat(col) {
                // Empty key range = every live row's FK is NULL: the chain
                // probe fails them all. Otherwise the chain bitmap must
                // have at least one qualifying dimension row in range.
                if min > max || !bitmap.any_in_range(*min as usize, *max as usize) {
                    return false;
                }
            }
        }
        true
    }

    /// Estimated rows the scan will actually visit: the live counts of the
    /// surviving segments.
    pub fn estimated_rows(&self) -> usize {
        self.survey().live_rows()
    }

    /// Runs the admission test over every segment **once**, materializing
    /// the keep/prune decisions plus the surviving live-row count. The
    /// executor computes one survey per execution and shares it between
    /// the fan-out decision and the morsel dispatcher — the (chain-bitmap)
    /// range probes are never repeated.
    pub fn survey(&self) -> SegmentSurvey {
        let mut keep = Vec::with_capacity(self.fact.segment_count());
        let mut live_rows = 0usize;
        let mut pruned = 0usize;
        for seg in 0..self.fact.segment_count() {
            let k = self.may_match(seg);
            if k {
                live_rows += self.fact.zone(seg).live() as usize;
            } else {
                pruned += 1;
            }
            keep.push(k);
        }
        SegmentSurvey { keep, live_rows, pruned }
    }
}

/// The materialized keep/prune decision for every segment of one
/// execution (see [`SegmentPruner::survey`]).
#[derive(Debug)]
pub struct SegmentSurvey {
    keep: Vec<bool>,
    live_rows: usize,
    pruned: usize,
}

impl SegmentSurvey {
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

    /// `true` if every segment survived (the scan can run flat).
    pub fn all_kept(&self) -> bool {
        self.pruned == 0
    }
}

/// The zone maps of the segments one execution scans: what the selection
/// tests' estimates are read from, so ordering them samples no row.
#[derive(Debug)]
pub struct ScannedZones<'a> {
    fact: &'a Table,
    /// Scanned segments that hold a live row.
    kept: Vec<usize>,
    /// Live rows across them.
    live: u64,
}

impl<'a> ScannedZones<'a> {
    /// The segments `survey` keeps, or every segment when there is none
    /// (pruning disabled).
    pub fn new(fact: &'a Table, survey: Option<&SegmentSurvey>) -> Self {
        let kept: Vec<usize> = (0..fact.segment_count())
            .filter(|&s| survey.is_none_or(|sv| sv.keep(s)) && fact.zone(s).live() > 0)
            .collect();
        let live = kept.iter().map(|&s| fact.zone(s).live()).sum();
        ScannedZones { fact, kept, live }
    }

    /// Estimated share of the scanned live rows whose value in column `col`
    /// lies in `[lo, hi]`: each segment contributes its live rows times the
    /// share of its zone bounds the range covers, values taken as uniform
    /// between the bounds. An untracked column reads as 1.
    pub fn range_share(&self, col: usize, lo: f64, hi: f64) -> f64 {
        if self.live == 0 {
            return 0.0;
        }
        let rows: f64 = self
            .kept
            .iter()
            .map(|&s| {
                let zone = self.fact.zone(s);
                zone.live() as f64 * bounds_share(zone.stat(col), lo, hi)
            })
            .sum();
        rows / self.live as f64
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

    #[test]
    fn cmp_ranges_prune_int_segments() {
        let t = fact_table();
        // f_v >= 80 → only segment 2 (values 80..=110).
        let zp = ZonePred::from_conjunct(&Pred::cmp("f_v", CmpOp::Ge, 80), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![2]);
        // f_v < 40 → only segment 0.
        let zp = ZonePred::from_conjunct(&Pred::cmp("f_v", CmpOp::Lt, 40), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![0]);
        // Eq on a boundary value.
        let zp = ZonePred::from_conjunct(&Pred::eq("f_v", 70), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![1]);
    }

    #[test]
    fn between_and_in_prune() {
        let t = fact_table();
        let zp = ZonePred::from_conjunct(&Pred::between("f_f", 2.25, 3.0), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![1], "floats 2.25..3.0 live in segment 1 (2.0..=3.5)");
        let zp = ZonePred::from_conjunct(&Pred::in_list("f_v", vec![90, 100]), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![2]);
        // Empty IN list prunes everything.
        let zp = ZonePred::from_conjunct(&Pred::in_list("f_v", Vec::<i64>::new()), &t).unwrap();
        assert!((0..t.segment_count()).all(|s| !zp.may_match(t.zone(s).stat(zp.col))));
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
        let zp = ZonePred::from_conjunct(&pred, &t).unwrap();
        assert!(zp.may_match(t.zone(0).stat(zp.col)), "zone test must not out-prune the rows");
        // Below-range bounds clamp symmetrically.
        let pred = Pred::between("v", -4_000_000_000i64, -3_000_000_000i64);
        let zp = ZonePred::from_conjunct(&pred, &t).unwrap();
        let compiled = pred.compile(&t);
        assert_eq!(
            (0..3).any(|r| compiled.eval(r)),
            zp.may_match(t.zone(0).stat(zp.col)),
            "zone and row tests agree on the below-range clamp"
        );
    }

    #[test]
    fn unprunable_shapes_return_none() {
        let t = fact_table();
        assert!(ZonePred::from_conjunct(&Pred::cmp("f_v", CmpOp::Ne, 10), &t).is_none());
        assert!(ZonePred::from_conjunct(&Pred::Const(true), &t).is_none());
        assert!(
            ZonePred::from_conjunct(&Pred::eq("f_dim", 1), &t).is_none(),
            "key columns are not zone-tested"
        );
        assert!(ZonePred::from_conjunct(
            &Pred::Or(vec![Pred::eq("f_v", 1), Pred::eq("f_v", 2)]),
            &t
        )
        .is_none());
    }

    #[test]
    fn chain_key_range_prunes_clustered_segments() {
        let t = fact_table();
        // Chain bitmap over 3 dimension rows: only dim row 2 qualifies →
        // only segment 2 (keys all = 2) survives.
        let mut bm = Bitmap::new(3, false);
        bm.set(2, true);
        let dim_col = t.schema().position("f_dim").unwrap();
        let pruner = SegmentPruner::new(&t, None, vec![(dim_col, &bm)]);
        let kept: Vec<usize> = (0..t.segment_count()).filter(|&s| pruner.may_match(s)).collect();
        assert_eq!(kept, vec![2]);
        assert_eq!(pruner.estimated_rows(), 4);
    }

    #[test]
    fn fully_deleted_segment_is_pruned() {
        let mut t = fact_table();
        for r in 4..8 {
            t.delete(r);
        }
        let pruner = SegmentPruner::new(&t, None, vec![]);
        let kept: Vec<usize> = (0..t.segment_count()).filter(|&s| pruner.may_match(s)).collect();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn widened_bounds_stay_sound() {
        let mut t = fact_table();
        // Move one value of segment 0 into "segment 2 territory": the zone
        // widens and segment 0 must now survive an f_v >= 80 probe.
        t.update(1, "f_v", &Value::Int(95));
        let zp = ZonePred::from_conjunct(&Pred::cmp("f_v", CmpOp::Ge, 80), &t).unwrap();
        let kept: Vec<usize> =
            (0..t.segment_count()).filter(|&s| zp.may_match(t.zone(s).stat(zp.col))).collect();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn range_share_weighs_zone_overlap_by_live_rows() {
        let mut t = fact_table();
        let all = ScannedZones::new(&t, None);
        let v = t.schema().position("f_v").unwrap();
        // f_v bounds per segment: 0..=30, 40..=70, 80..=110.
        assert!((all.range_share(v, 0.0, 110.0) - 1.0).abs() < 1e-12);
        let one_value = all.range_share(v, 40.0, 40.0);
        assert!((one_value - (1.0 / 31.0) / 3.0).abs() < 1e-12, "{one_value}");
        assert_eq!(all.range_share(v, 200.0, 300.0), 0.0);
        // Only the segments a survey keeps count.
        let dim = t.schema().position("f_dim").unwrap();
        let mut bm = Bitmap::new(3, false);
        bm.set(2, true);
        let survey = SegmentPruner::new(&t, None, vec![(dim, &bm)]).survey();
        let kept = ScannedZones::new(&t, Some(&survey));
        assert!((kept.range_share(v, 80.0, 110.0) - 1.0).abs() < 1e-12);
        assert!((kept.range_share(dim, 2.0, 2.0) - 1.0).abs() < 1e-12);
        // Float bounds measure width; a degenerate zone is all or nothing.
        let f = t.schema().position("f_f").unwrap();
        assert!((kept.range_share(f, 4.0, 4.75) - 0.5).abs() < 1e-12);
        for r in 0..12 {
            t.delete(r);
        }
        assert_eq!(ScannedZones::new(&t, None).range_share(v, 0.0, 110.0), 0.0, "no live row");
    }
}
