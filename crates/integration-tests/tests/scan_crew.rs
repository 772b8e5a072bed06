//! The resident scan crew (`astore_core::parallel`) under the load a server
//! puts on it: many statements fanning out at once, from many threads, some
//! of them failing.
//!
//! The crew is one per process and these tests share it with each other —
//! on purpose: a statement must not be able to tell who else is borrowing
//! helpers. What a *quiet* process's thread count does is checked alone in
//! `scan_crew_resident.rs`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use astore_core::parallel::{crew_stats, run_workers};
use astore_core::prelude::*;
use astore_datagen::ssb;

const CALLERS: usize = 8;
const STATEMENTS: usize = 200;

#[test]
fn concurrent_fanned_out_statements_are_bit_identical_to_serial() {
    // SSB SF 0.002 (12 000 fact rows) in 1024-row segments: a dozen morsels
    // a statement, so every worker of a 4-wide fan-out gets some.
    let mut db = ssb::generate(0.002, 42);
    db.table_mut("lineorder").unwrap().set_segment_rows(1024);
    let queries = ssb::queries();
    let serial: Vec<QueryResult> = queries
        .iter()
        .map(|q| execute(&db, &q.query, &ExecOptions::default()).unwrap().result)
        .collect();

    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (db, queries, serial) = (&db, &queries, &serial);
            s.spawn(move || {
                for i in 0..STATEMENTS {
                    let threads = 2 + (caller + i) % 3;
                    let which = (caller * 5 + i) % queries.len();
                    // Fan out whatever the table size, the host and the
                    // zone maps say (a fully pruned scan stays serial).
                    let mut opts = ExecOptions::default().threads(threads).pruning(false);
                    opts.optimizer.parallel_min_rows_per_thread = 1;
                    opts.optimizer.host_threads = 64;
                    let out = execute(db, &queries[which].query, &opts).unwrap();
                    assert!(
                        matches!(out.plan.executor, ExecutorInfo::Parallel { threads: t, .. } if t == threads),
                        "caller {caller} statement {i}: {}",
                        out.plan.executor
                    );
                    assert!(
                        out.result.same_contents(&serial[which], 0.0),
                        "caller {caller} statement {i} ({}, {threads} workers) diverged",
                        queries[which].id
                    );
                }
            });
        }
    });
    // Every caller borrows at most three helpers at a time, whoever else
    // (the other test of this file) is using the crew.
    let crew = crew_stats();
    assert!(crew.helpers >= 1 && crew.wakes >= (CALLERS * STATEMENTS) as u64, "{crew:?}");
}

#[test]
fn a_helper_panic_stays_with_its_caller() {
    // All statements are in flight together: worker 0 of each holds its
    // statement open at the barrier until every caller has fanned out.
    let all_fanned_out = Barrier::new(CALLERS);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let all_fanned_out = &all_fanned_out;
                s.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_workers(3, |w| {
                            if w == 0 {
                                all_fanned_out.wait();
                            }
                            if caller == 3 && w == 2 {
                                panic!("caller three's second helper fell over");
                            }
                            caller * 10 + w
                        })
                    }))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (caller, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Err(payload) => {
                assert_eq!(caller, 3, "only the panicking statement's caller unwinds");
                let message = payload.downcast_ref::<&str>().expect("the helper's own payload");
                assert_eq!(*message, "caller three's second helper fell over");
            }
            Ok(values) => {
                assert_ne!(caller, 3);
                assert_eq!(values, vec![caller * 10, caller * 10 + 1, caller * 10 + 2]);
            }
        }
    }
    // The helper that panicked is parked again like the others: the next
    // statement — as wide as all eight were together — finds the crew whole.
    let wide = 1 + 2 * CALLERS;
    assert_eq!(run_workers(wide, |w| w), (0..wide).collect::<Vec<_>>());
}
