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
//!
//! ## Who runs the workers
//!
//! The statement's own thread is worker 0 ([`run_workers`]); workers
//! `1..threads` run on the *crew*: resident helper threads that park
//! between statements. A served scan statement lasts about a millisecond,
//! and creating and joining a thread for it cost more than the second
//! worker saved (1.7 ms of kernel time per 13-statement sweep at SF 0.2),
//! so a statement borrows helpers instead: it takes parked ones from the
//! crew's idle list — spawning only when the list is short, which stops
//! happening once the crew has reached the process's peak demand — hands
//! each one job, runs worker 0 itself, waits for the helpers, and puts them
//! back. The crew never decides how wide a statement is: the caller's
//! `threads` (the executor's plan under `--engine-threads` and the server's
//! core budget) is the only ceiling, and the crew is as large as the most
//! helpers that were ever wanted at once.
//!
//! A helper outlives every statement, so the borrowed closure it runs
//! cannot be typed with its real lifetime; `Crew::run` erases it — the
//! module's one `unsafe` expression — and a completion guard restores what
//! the type no longer says: no path out of `run`, unwinding included,
//! leaves before every started helper has finished with the closure.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use astore_storage::segment::SEGMENT_ROWS;
use astore_storage::table::Table;

use crate::zone::SegmentSurvey;

/// The machine's available parallelism, asked of the OS once per process
/// and cached (the query reads cgroup files and costs tens of
/// microseconds); 1 when the OS will not say. Every layer that sizes
/// itself by the host reads this one answer: the planner's fan-out clamp
/// ([`crate::optimizer::OptimizerConfig::plan_threads`]), the server's core
/// budget, worker pool and fan-out ceiling, and the generators' thread
/// default.
pub fn host_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

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
    /// survey keeps is cut into `morsel`-row chunks, in row order; pruned
    /// segments are skipped entirely (the survey already holds the
    /// per-segment decisions — no admission test is re-evaluated here).
    /// Morsels never straddle a segment boundary.
    pub fn over_segments(fact: &Table, survey: &SegmentSurvey, morsel: usize) -> Self {
        let morsel = morsel.max(1);
        let mut ranges = Vec::new();
        for seg in (0..fact.segment_count()).filter(|&seg| survey.keep(seg)) {
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

/// Runs `work(w)` for every worker number `w` in `0..threads` and returns
/// the results in worker order. Worker 0 is the calling thread — the
/// statement already occupies it (and its slot of a server's core budget);
/// workers `1..threads` run on the process's resident crew (module docs), so
/// a statement creates a thread only while the crew is still growing to the
/// process's peak demand, and a one-worker run involves no other thread.
///
/// # Panics
/// Re-raises a worker's panic in the caller (the lowest-numbered one, if
/// several panicked) once every worker has finished.
pub fn run_workers<T: Send>(threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    CREW.run(threads, work)
}

/// Resident helpers and wake-ups of the crew behind [`run_workers`].
pub fn crew_stats() -> CrewStats {
    CREW.stats()
}

static CREW: Crew = Crew::new();

/// A point-in-time reading of the crew ([`crew_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewStats {
    /// Helper threads alive (parked or running). Grows to the most helpers
    /// ever wanted at once, then stays.
    pub helpers: usize,
    /// Jobs handed to helpers since the crew was created.
    pub wakes: u64,
}

/// A set of resident helper threads that statements borrow for the length
/// of one fan-out (see the module docs). The process has one, behind
/// [`run_workers`]; tests make their own to count its threads undisturbed.
struct Crew {
    /// Helpers with no job, most recently used last.
    idle: Mutex<Vec<Arc<Seat>>>,
    helpers: AtomicUsize,
    wakes: AtomicU64,
}

/// What one helper and the statement borrowing it tell each other.
struct Seat {
    state: Mutex<SeatState>,
    /// Signals both transitions anyone waits for: `Assigned` (the helper
    /// waits) and `Finished` (the borrower waits) — never both at once.
    changed: Condvar,
}

enum SeatState {
    /// Nothing to pick up: the helper is parked, or running what it took.
    Vacant,
    Assigned(Job),
    /// The job returned; the helper no longer holds anything of it.
    Finished,
}

/// One worker of one statement: the statement's task and a worker number.
#[derive(Clone, Copy)]
struct Job {
    /// The borrowing statement's closure with its lifetime erased; valid
    /// until the seat says `Finished` (see [`Crew::run`]).
    task: &'static (dyn Fn(usize) + Sync),
    worker: usize,
}

/// A poisoned seat or idle list would mean a helper or borrower panicked
/// *inside* the few lines that hold the lock, none of which can; the data
/// is a plain state word either way, so the guard is taken as it is.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Seat {
    fn assign(&self, job: Job) {
        *lock(&self.state) = SeatState::Assigned(job);
        self.changed.notify_one();
    }

    /// Blocks until the assigned job has returned, and clears the seat.
    fn wait_finished(&self) {
        let mut state = lock(&self.state);
        while !matches!(*state, SeatState::Finished) {
            state = self.changed.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        *state = SeatState::Vacant;
    }

    /// The helper thread: take a job, run it, say so, for ever.
    fn serve(&self) {
        loop {
            let job = {
                let mut state = lock(&self.state);
                loop {
                    if let SeatState::Assigned(job) = *state {
                        *state = SeatState::Vacant;
                        break job;
                    }
                    state = self.changed.wait(state).unwrap_or_else(|p| p.into_inner());
                }
            };
            // The task catches its worker's panic itself (it has to carry
            // the payload to the caller); nothing below can unwind.
            (job.task)(job.worker);
            *lock(&self.state) = SeatState::Finished;
            self.changed.notify_one();
        }
    }
}

/// The helpers a statement has started. Dropping it waits for each of them
/// and returns them to the idle list — on the normal path and when worker 0
/// unwinds through [`Crew::run`] alike.
struct Started<'c> {
    crew: &'c Crew,
    seats: Vec<Arc<Seat>>,
}

impl Drop for Started<'_> {
    fn drop(&mut self) {
        for seat in &self.seats {
            seat.wait_finished();
        }
        lock(&self.crew.idle).append(&mut self.seats);
    }
}

impl Crew {
    /// A crew with no helpers yet.
    const fn new() -> Self {
        Crew {
            idle: Mutex::new(Vec::new()),
            helpers: AtomicUsize::new(0),
            wakes: AtomicU64::new(0),
        }
    }

    /// Helpers alive and jobs handed out so far.
    fn stats(&self) -> CrewStats {
        CrewStats {
            helpers: self.helpers.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
        }
    }

    /// Takes a parked helper, or starts one. `None` when the system will
    /// not give the process another thread; the caller then runs that
    /// worker itself.
    fn seat(&'static self) -> Option<Arc<Seat>> {
        if let Some(seat) = lock(&self.idle).pop() {
            return Some(seat);
        }
        let seat = Arc::new(Seat { state: Mutex::new(SeatState::Vacant), changed: Condvar::new() });
        let helper = Arc::clone(&seat);
        // Detached on purpose: a helper lives as long as the process.
        std::thread::Builder::new()
            .name("astore-scan".into())
            .spawn(move || helper.serve())
            .ok()?;
        self.helpers.fetch_add(1, Ordering::Relaxed);
        Some(seat)
    }

    /// [`run_workers`] on this crew.
    #[allow(unsafe_code)]
    fn run<T: Send>(&'static self, threads: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        type Outcome<T> = Result<T, Box<dyn Any + Send>>;
        let helped = threads.saturating_sub(1);
        // Slot `w − 1` receives worker `w`'s value or its panic payload.
        let outcomes: Mutex<Vec<Option<Outcome<T>>>> =
            Mutex::new((0..helped).map(|_| None).collect());
        let task = |w: usize| {
            let outcome = catch_unwind(AssertUnwindSafe(|| work(w)));
            lock(&outcomes)[w - 1] = Some(outcome);
        };
        let borrowed: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: only the lifetime changes. The reference is handed to
        // helpers solely through `Seat::assign` below, and each such seat
        // is pushed onto `started` *before* it is assigned, so
        // `Started::drop` waits for it on every path out of this function
        // — the return, a panic of worker 0, a panic between two
        // assignments. A seat turns `Finished` only after the helper's call
        // of `task` has returned, and the helper keeps no copy of the job
        // past that point, so when `started` is gone no thread can still
        // reach `task`, `work` or `outcomes`. `started` is declared after
        // all three and therefore dropped before them.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                borrowed,
            )
        };
        let mut started = Started { crew: self, seats: Vec::with_capacity(helped) };
        let mut unhelped = Vec::new();
        for worker in 1..threads {
            match self.seat() {
                Some(seat) => {
                    started.seats.push(Arc::clone(&seat));
                    seat.assign(Job { task, worker });
                }
                None => unhelped.push(worker),
            }
        }
        self.wakes.fetch_add(started.seats.len() as u64, Ordering::Relaxed);

        let first = work(0);
        unhelped.into_iter().for_each(task);
        drop(started);

        let mut out = Vec::with_capacity(threads.max(1));
        out.push(first);
        let outcomes = outcomes.into_inner().unwrap_or_else(|p| p.into_inner());
        for outcome in outcomes {
            match outcome.expect("every worker was run before the guard let go") {
                Ok(value) => out.push(value),
                Err(panic) => resume_unwind(panic),
            }
        }
        out
    }
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
        // Prime: morsels won't align with threads.
        const N: usize = if cfg!(miri) { 1_009 } else { 10_007 };
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

    /// Statements per crew test; Miri interprets every one of them.
    const STATEMENTS: usize = if cfg!(miri) { 12 } else { 400 };

    #[test]
    fn crew_runs_every_worker_once_and_orders_the_results() {
        static CREW: Crew = Crew::new();
        for threads in [0, 1, 2, 5] {
            let ran: Vec<AtomicUsize> = (0..threads.max(1)).map(|_| AtomicUsize::new(0)).collect();
            let caller = std::thread::current().id();
            let out = CREW.run(threads, |w| {
                ran[w].fetch_add(1, Ordering::Relaxed);
                (w, std::thread::current().id())
            });
            assert_eq!(out.len(), threads.max(1));
            for (w, (got, thread)) in out.iter().enumerate() {
                assert_eq!(*got, w, "results come back in worker order");
                assert_eq!(*thread == caller, w == 0, "worker 0, and only it, is the caller");
                assert_eq!(ran[w].load(Ordering::Relaxed), 1);
            }
        }
        assert_eq!(CREW.stats().helpers, 4, "as many helpers as were ever wanted at once");
    }

    #[test]
    fn crew_is_resident_a_warm_statement_starts_no_thread() {
        static CREW: Crew = Crew::new();
        let helper_threads = Mutex::new(std::collections::HashSet::new());
        let statement = |i: usize| {
            let data: Vec<usize> = (0..64).map(|x| x * i).collect(); // borrowed, per statement
            let sums = CREW.run(3, |w| {
                if w > 0 {
                    lock(&helper_threads).insert(std::thread::current().id());
                }
                data.iter().skip(w).step_by(3).sum::<usize>()
            });
            assert_eq!(sums.iter().sum::<usize>(), data.iter().sum::<usize>());
        };
        statement(1);
        let warm = CREW.stats();
        assert_eq!(warm, CrewStats { helpers: 2, wakes: 2 });
        (0..STATEMENTS).for_each(statement);
        assert_eq!(
            CREW.stats(),
            CrewStats { helpers: 2, wakes: 2 + 2 * STATEMENTS as u64 },
            "every statement woke two parked helpers and created none"
        );
        assert_eq!(lock(&helper_threads).len(), 2);
    }

    #[test]
    fn crew_reraises_a_helper_panic_and_stays_usable() {
        static CREW: Crew = Crew::new();
        let unwound = catch_unwind(|| {
            CREW.run(3, |w| {
                if w == 2 {
                    panic!("worker two fell over");
                }
                w
            })
        });
        let payload = unwound.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker two fell over"));
        // Both helpers are parked again, and neither was lost to the panic.
        assert_eq!(CREW.run(3, |w| w * w), vec![0, 1, 4]);
        assert_eq!(CREW.stats().helpers, 2);
    }

    #[test]
    fn crew_guard_outwaits_a_helper_when_worker_zero_unwinds() {
        static CREW: Crew = Crew::new();
        // Everything the helper touches lives in this frame: were `run` to
        // return (unwind) before the helper is done, the asserts below —
        // and Miri — would see it.
        let zero_is_unwinding = std::sync::atomic::AtomicBool::new(false);
        let helper_steps = AtomicUsize::new(0);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            CREW.run(2, |w| {
                if w == 0 {
                    zero_is_unwinding.store(true, Ordering::SeqCst);
                    panic!("worker zero fell over");
                }
                // The helper does all its work only *after* worker 0 has
                // started to unwind.
                while !zero_is_unwinding.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                for _ in 0..100 {
                    std::thread::yield_now();
                    helper_steps.fetch_add(1, Ordering::SeqCst);
                }
            })
        }));
        assert!(unwound.is_err());
        assert_eq!(helper_steps.load(Ordering::SeqCst), 100, "run() left before its helper did");
        assert_eq!(CREW.run(2, |w| w), vec![0, 1], "the crew is usable afterwards");
    }

    #[test]
    fn crew_serves_concurrent_statements_of_different_widths() {
        static CREW: Crew = Crew::new();
        const CALLERS: usize = 4;
        std::thread::scope(|s| {
            for caller in 0..CALLERS {
                s.spawn(move || {
                    for i in 0..STATEMENTS / 4 {
                        let threads = 2 + (caller + i) % 3;
                        let tag = caller * 1_000_000 + i * 10;
                        let out = CREW.run(threads, |w| tag + w);
                        assert_eq!(out, (0..threads).map(|w| tag + w).collect::<Vec<_>>());
                    }
                });
            }
        });
        // Each caller borrows at most three helpers at a time.
        assert!(CREW.stats().helpers <= CALLERS * 3, "{:?}", CREW.stats());
    }

    /// Table sizes are cut under Miri, which runs these tests too (for the
    /// crew's `unsafe`); only tests pinned to exact counts opt out of it.
    fn sized(rows: usize) -> usize {
        if cfg!(miri) {
            rows.div_ceil(20)
        } else {
            rows
        }
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
        let db = bigger_star(sized(10_000));
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
        let db = bigger_star(sized(5_000));
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
        let rows = sized(4_001);
        let db = bigger_star(rows);
        let q = query();
        let serial = execute(&db, &q, &ExecOptions::default()).unwrap();
        let par = execute(&db, &q, &par_opts(7).morsel_rows(13)).unwrap();
        let ExecutorInfo::Parallel { morsels, morsel_rows, .. } = par.plan.executor else {
            panic!("expected parallel executor");
        };
        assert_eq!(morsel_rows, 13);
        assert_eq!(morsels, rows.div_ceil(13));
        assert!(par.result.same_contents(&serial.result, 1e-9));
    }

    #[test]
    fn parallel_min_max_merge() {
        let db = bigger_star(sized(4_000));
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
    #[cfg_attr(miri, ignore = "pinned to a 10-segment table")]
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
        let db = bigger_star(sized(1_000));
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
