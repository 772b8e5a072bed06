//! Morsel-driven multicore parallelization (paper §5).
//!
//! "We logically partition the universal table (i.e., the fact table)
//! horizontally. … we centralize the evaluation of the leaf tables. Once
//! the predicate filters are generated, they will be shared by all worker
//! threads. … The intermediate results generated by each worker, such as
//! the Measure Index and the group vectors, are used exclusively by the
//! worker itself. … In the end, the multidimensional arrays are integrated
//! into the final result."
//!
//! The unit of scheduling is a *morsel*: a fixed-size row range (cap
//! [`DEFAULT_MORSEL_ROWS`]) claimed from a single shared atomic cursor
//! ([`MorselDispatcher`]). Workers loop `claim → select → group → fold`
//! until the cursor drains, so a worker that lands on a cheap (sparsely
//! selected) region simply claims more morsels instead of idling — the
//! dynamic form of the paper's 4× over-subscription, without pre-committing
//! any thread to a fixed range. Phase-1 artifacts (predicate filters, group
//! vectors), the compiled fact predicates and the ordered chain checks are
//! shared read-only; each worker owns one aggregation table, its scan-built
//! dictionaries and its scratch buffers for its whole lifetime (see
//! `exec.rs`), and the workers' partial results are merged once each: by
//! cell index when every grouping column has a shared leaf dictionary, by
//! label — once per distinct group — for dictionaries built per worker.
//! The statement's own thread is worker 0 ([`run_workers`]).

use std::sync::atomic::{AtomicUsize, Ordering};

use astore_storage::segment::SEGMENT_ROWS;
use astore_storage::table::Table;

use crate::zone::SegmentSurvey;

/// Cap on rows per dispatched morsel: 64K rows keeps a scanned fact-column
/// chunk cache-resident while leaving enough morsels per query for dynamic
/// load balance. Deliberately equal to the storage layer's
/// [`SEGMENT_ROWS`], so at full size one dispatched morsel is exactly one
/// prunable segment.
pub const DEFAULT_MORSEL_ROWS: usize = SEGMENT_ROWS;

/// A shared morsel dispatcher: one atomic cursor over a precomputed list of
/// contiguous row ranges, handing out the next range to whichever worker
/// asks first. The executor builds the list *segment-aligned*
/// ([`MorselDispatcher::over_segments`]): every range lies inside one
/// storage segment, and zone-pruned segments are simply absent — a worker
/// can never claim (let alone touch) a pruned segment.
#[derive(Debug)]
pub struct MorselDispatcher {
    ranges: Vec<std::ops::Range<usize>>,
    next: AtomicUsize,
    morsel: usize,
}

impl MorselDispatcher {
    /// A dispatcher over `n` rows in `morsel`-row chunks (`morsel` is
    /// clamped to at least 1) — the no-pruning layout covering `0..n`
    /// exactly.
    pub fn new(n: usize, morsel: usize) -> Self {
        let morsel = morsel.max(1);
        let mut ranges = Vec::with_capacity(n.div_ceil(morsel));
        let mut start = 0;
        while start < n {
            let end = (start + morsel).min(n);
            ranges.push(start..end);
            start = end;
        }
        MorselDispatcher { ranges, next: AtomicUsize::new(0), morsel }
    }

    /// The segment-aligned, pruned layout over `fact`: every segment the
    /// survey keeps (all of them without a survey) is cut into
    /// `morsel`-row chunks, in row order; pruned segments are skipped
    /// entirely (the survey already holds the per-segment decisions — no
    /// admission test is re-evaluated here). Morsels never straddle a
    /// segment boundary.
    pub fn over_segments(fact: &Table, survey: Option<&SegmentSurvey>, morsel: usize) -> Self {
        let morsel = morsel.max(1);
        let mut ranges = Vec::new();
        for seg in (0..fact.segment_count()).filter(|&seg| survey.is_none_or(|s| s.keep(seg))) {
            let r = fact.segment_range(seg);
            ranges
                .extend(r.clone().step_by(morsel).map(|start| start..(start + morsel).min(r.end)));
        }
        MorselDispatcher { ranges, next: AtomicUsize::new(0), morsel }
    }

    /// Claims the next unclaimed morsel, or `None` once the list is
    /// drained. Safe to call from any number of threads concurrently; every
    /// range is handed out exactly once.
    pub fn claim(&self) -> Option<std::ops::Range<usize>> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.ranges.get(i).cloned()
    }

    /// Rows per morsel (ranges at segment edges may be shorter).
    pub fn morsel_rows(&self) -> usize {
        self.morsel
    }

    /// Total number of morsels this dispatcher will hand out.
    pub fn morsels(&self) -> usize {
        self.ranges.len()
    }
}

/// Picks the morsel size for an `n`-row fact table scanned by `threads`
/// workers: the fixed `cap` (normally [`DEFAULT_MORSEL_ROWS`]), shrunk so
/// every worker sees at least 4 morsels — the paper's 4× over-subscription,
/// carried over so small-but-parallel scans still load-balance.
pub fn morsel_size(n: usize, threads: usize, cap: usize) -> usize {
    n.div_ceil(threads.max(1) * 4).max(1).min(cap.max(1))
}

/// Partitions `n` rows into at most `parts` near-equal contiguous ranges.
/// The static precursor of the morsel dispatcher — the executor no longer
/// uses it, but it stays public for embedding callers that want a fixed,
/// cursor-free partitioning of a row space (e.g. one range per shard).
pub fn partition_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || parts == 0 {
        return std::iter::once(0..n).collect();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `work(w)` for every worker number `w` in `0..threads` and returns
/// the results in worker order. Worker 0 is the calling thread — the
/// statement already occupies it (and its slot of a server's core budget),
/// so only `threads − 1` threads are spawned, and a one-worker run spawns
/// none.
///
/// # Panics
/// Propagates a worker's panic.
pub fn run_workers<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let work = &work;
        let spawned: Vec<_> = (1..threads).map(|w| s.spawn(move || work(w))).collect();
        let mut out = vec![work(0)];
        out.extend(spawned.into_iter().map(|h| h.join().expect("worker panicked")));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecOptions, ExecutorInfo, ScanVariant};
    use crate::expr::{MeasureExpr, Pred};
    use crate::query::{Aggregate, OrderKey, Query};
    use astore_storage::prelude::*;

    /// Test options: force fan-out on tiny tables so the parallel executor
    /// actually runs (the default planner keeps small scans serial).
    fn par_opts(threads: usize) -> ExecOptions {
        let mut o = ExecOptions::default().threads(threads);
        o.optimizer.parallel_min_rows_per_thread = 1;
        // Deterministic fan-out on any machine, including 1-core CI.
        o.optimizer.host_threads = 64;
        o
    }

    #[test]
    fn partition_ranges_cover_exactly() {
        for (n, p) in [(100, 7), (5, 10), (0, 4), (64, 1), (1, 1), (0, 0), (7, 0)] {
            let ranges = partition_ranges(n, p);
            let mut covered = 0;
            let mut expect_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                covered += r.len();
                expect_start = r.end;
            }
            assert_eq!(covered, n, "n={n} p={p}");
        }
    }

    #[test]
    fn morsel_size_edge_cases() {
        // Big table: the fixed cap wins.
        assert_eq!(morsel_size(10_000_000, 4, DEFAULT_MORSEL_ROWS), DEFAULT_MORSEL_ROWS);
        // Small table: shrink so each of 4 workers sees >= 4 morsels.
        assert_eq!(morsel_size(16_000, 4, DEFAULT_MORSEL_ROWS), 1000);
        // n smaller than a morsel, n = 0, degenerate caps/threads.
        assert_eq!(morsel_size(5, 8, DEFAULT_MORSEL_ROWS), 1);
        assert_eq!(morsel_size(0, 4, DEFAULT_MORSEL_ROWS), 1);
        assert_eq!(morsel_size(100, 0, DEFAULT_MORSEL_ROWS), 25);
        assert_eq!(morsel_size(100, 1, 0), 1);
    }

    #[test]
    fn dispatcher_covers_rows_exactly_once_single_thread() {
        for (n, morsel) in [(0, 7), (1, 7), (6, 7), (7, 7), (8, 7), (100, 1), (100, 64)] {
            let d = MorselDispatcher::new(n, morsel);
            let mut next_start = 0;
            while let Some(r) = d.claim() {
                assert_eq!(r.start, next_start, "n={n} morsel={morsel}");
                assert!(r.end <= n);
                assert!(!r.is_empty());
                next_start = r.end;
            }
            assert_eq!(next_start, n, "n={n} morsel={morsel}");
            assert!(d.claim().is_none(), "drained dispatcher stays drained");
            assert_eq!(d.morsels(), n.div_ceil(morsel));
        }
    }

    #[test]
    fn dispatcher_exactly_once_under_contention() {
        // N threads hammer one dispatcher; the union of claimed ranges must
        // be 0..n with no overlap and no gap.
        const N: usize = 10_007; // prime: morsels won't align with threads
        const MORSEL: usize = 64;
        const THREADS: usize = 8;
        let d = MorselDispatcher::new(N, MORSEL);
        let claimed: Vec<Vec<std::ops::Range<usize>>> = std::thread::scope(|s| {
            let d = &d;
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(r) = d.claim() {
                            mine.push(r);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen = vec![0u8; N];
        for r in claimed.iter().flatten() {
            for i in r.clone() {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "every row claimed exactly once");
        let total_morsels: usize = claimed.iter().map(Vec::len).sum();
        assert_eq!(total_morsels, N.div_ceil(MORSEL));
    }

    fn bigger_star(rows: usize) -> Database {
        let mut db = Database::new();
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_cat", DataType::Dict),
                ColumnDef::new("d_flag", DataType::I32),
            ]),
        );
        for i in 0..50 {
            dim.append_row(&[Value::Str(format!("cat{}", i % 7)), Value::Int(i % 2)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
                ColumnDef::new("f_tag", DataType::I32),
            ]),
        );
        for i in 0..rows {
            fact.append_row(&[
                Value::Key((i % 50) as u32),
                Value::Int(i as i64),
                Value::Int((i % 3) as i64),
            ]);
        }
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    fn query() -> Query {
        Query::new()
            .filter("dim", Pred::eq("d_flag", 1))
            .group("dim", "d_cat")
            .group("fact", "f_tag")
            .agg(Aggregate::sum(MeasureExpr::col("f_v"), "total"))
            .agg(Aggregate::count("n"))
            .order(OrderKey::asc("d_cat"))
            .order(OrderKey::asc("f_tag"))
    }

    #[test]
    fn parallel_matches_serial() {
        let db = bigger_star(10_000);
        let q = query();
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert!(!serial.plan.executor.is_parallel());
        for threads in [2, 4, 8] {
            let par = execute(&db, &q, &par_opts(threads)).unwrap();
            assert!(
                matches!(par.plan.executor, ExecutorInfo::Parallel { threads: t, .. } if t == threads),
                "expected {threads}-thread parallel executor, got {}",
                par.plan.executor
            );
            assert!(
                par.result.same_contents(&serial.result, 1e-9),
                "threads={threads}:\n{:?}\nvs\n{:?}",
                par.result.rows,
                serial.result.rows
            );
            assert_eq!(par.plan.selected_rows, serial.plan.selected_rows);
            assert_eq!(par.plan.groups, serial.plan.groups);
        }
    }

    #[test]
    fn parallel_matches_serial_across_variants() {
        let db = bigger_star(5_000);
        let q = query();
        let reference = execute(&db, &q, &ExecOptions::default()).unwrap();
        for v in ScanVariant::ALL {
            let mut opts = par_opts(3);
            opts.variant = v;
            let par = execute(&db, &q, &opts).unwrap();
            assert!(par.plan.executor.is_parallel());
            assert!(
                par.result.same_contents(&reference.result, 1e-9),
                "variant {} parallel diverged",
                v.paper_name()
            );
        }
    }

    #[test]
    fn parallel_matches_serial_with_tiny_morsels() {
        // Tiny morsels maximize dispatcher contention and per-morsel merges.
        let db = bigger_star(4_001);
        let q = query();
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        let par = execute(&db, &q, &par_opts(7).morsel_rows(13)).unwrap();
        let ExecutorInfo::Parallel { morsels, morsel_rows, .. } = par.plan.executor else {
            panic!("expected parallel executor");
        };
        assert_eq!(morsel_rows, 13);
        assert_eq!(morsels, 4_001usize.div_ceil(13));
        assert!(par.result.same_contents(&serial.result, 1e-9));
    }

    #[test]
    fn parallel_min_max_merge() {
        let db = bigger_star(4_000);
        let q = Query::new()
            .group("dim", "d_cat")
            .agg(Aggregate::min(MeasureExpr::col("f_v"), "lo"))
            .agg(Aggregate::max(MeasureExpr::col("f_v"), "hi"))
            .agg(Aggregate::avg(MeasureExpr::col("f_v"), "avg"))
            .order(OrderKey::asc("d_cat"));
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        let par = execute(&db, &q, &par_opts(4)).unwrap();
        assert!(par.result.same_contents(&serial.result, 1e-9));
    }

    #[test]
    fn pruning_skips_segments_in_serial_and_parallel() {
        use crate::expr::CmpOp;
        // f_v == row index in bigger_star, so 1024-row segments are
        // perfectly value-clustered: f_v < 1000 lives in segment 0 only.
        let mut db = bigger_star(10_000);
        db.table_mut("fact").unwrap().set_segment_rows(1024);
        let q = query().filter("fact", Pred::cmp("f_v", CmpOp::Lt, 1000));

        let flat = execute(&db, &q, &ExecOptions::default().pruning(false)).unwrap();
        assert_eq!(flat.plan.segments_pruned, 0);
        assert_eq!(flat.plan.segments_scanned, 10);

        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert!(!serial.plan.executor.is_parallel());
        assert_eq!(serial.plan.segments_pruned, 9, "only segment 0 can match f_v < 1000");
        assert_eq!(serial.plan.segments_scanned, 1);
        assert!(serial.result.same_contents(&flat.result, 0.0), "pruned == flat, bit-identical");

        let par = execute(&db, &q, &par_opts(4).morsel_rows(128)).unwrap();
        assert!(par.plan.executor.is_parallel());
        assert_eq!(par.plan.segments_pruned, 9);
        assert_eq!(par.plan.segments_scanned, 1);
        let ExecutorInfo::Parallel { morsels, .. } = par.plan.executor else { unreachable!() };
        assert_eq!(morsels, 8, "one surviving 1024-row segment in 128-row morsels");
        assert!(par.result.same_contents(&flat.result, 1e-9));
    }

    #[test]
    fn small_scans_fall_back_to_serial_and_say_so() {
        let db = bigger_star(3);
        let q = query();
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        // Default planner: 3 rows never fans out, whatever was requested.
        let out = execute(&db, &q, &ExecOptions::default().threads(8)).unwrap();
        assert_eq!(out.plan.executor, ExecutorInfo::Serial { requested_threads: 8 });
        assert_eq!(out.plan.executor.threads(), 1);
        assert!(out.result.same_contents(&serial.result, 1e-9));
    }

    #[test]
    fn parallel_on_tiny_table() {
        let db = bigger_star(3);
        let q = query();
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        // Forced fan-out (threshold 1): 3 workers, morsel size 1.
        let par = execute(&db, &q, &par_opts(8)).unwrap();
        assert!(par.result.same_contents(&serial.result, 1e-9));
    }

    #[test]
    fn parallel_empty_result() {
        let db = bigger_star(1_000);
        let q = Query::new()
            .root("fact")
            .filter("dim", Pred::eq("d_flag", 99))
            .group("dim", "d_cat")
            .agg(Aggregate::count("n"));
        // With pruning on, the chain filter is empty, every segment is
        // skipped, and the planner correctly keeps the no-op scan serial.
        let pruned = execute(&db, &q, &par_opts(4)).unwrap();
        assert!(!pruned.plan.executor.is_parallel());
        assert!(pruned.result.is_empty());
        assert_eq!(pruned.plan.segments_pruned, 1);
        assert_eq!(pruned.plan.segments_scanned, 0);
        // With pruning off, the parallel executor runs and still produces
        // an empty result.
        let par = execute(&db, &q, &par_opts(4).pruning(false)).unwrap();
        assert!(par.plan.executor.is_parallel());
        assert!(par.result.is_empty());
    }
}
