//! Once warm, the scan crew creates no thread: 1 000 two-worker statements
//! leave the process's thread count where the first one put it.
//!
//! Alone in its file — a test binary of its own — because the count it
//! reads is the process's: any test running beside it would move it.

use astore_core::parallel::crew_stats;
use astore_core::prelude::*;
use astore_datagen::ssb;

/// `Threads:` of `/proc/self/status`; `None` where there is no procfs.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")?.trim().parse().ok())
}

#[test]
fn warm_statements_leave_the_thread_count_unchanged() {
    let mut db = ssb::generate(0.002, 42);
    db.table_mut("lineorder").unwrap().set_segment_rows(1024);
    let queries = ssb::queries();
    // Fan out whatever the table size, the host and the zone maps say.
    let mut opts = ExecOptions::default().threads(2).pruning(false);
    opts.optimizer.parallel_min_rows_per_thread = 1;
    opts.optimizer.host_threads = 64;
    let statement = |i: usize| {
        let out = execute(&db, &queries[i % queries.len()].query, &opts).unwrap();
        assert!(out.plan.executor.is_parallel(), "{}", out.plan.executor);
    };

    statement(0); // warm-up: the crew's one helper is created here
    let warm = crew_stats();
    assert_eq!(warm.helpers, 1);
    let threads_warm = process_threads();

    (0..1000).for_each(statement);

    let after = crew_stats();
    assert_eq!(after.helpers, 1, "a warm statement started a helper");
    assert_eq!(after.wakes, warm.wakes + 1000, "each statement woke the parked helper once");
    assert_eq!(process_threads(), threads_warm, "Threads: in /proc/self/status moved");
    if threads_warm.is_none() {
        eprintln!("no /proc/self/status here: checked the crew's own count only");
    }
}
