//! The segment-at-a-time scan pipeline against everything it must equal.
//!
//! For the 13 SSB queries, for seeded random SPJGA queries
//! ([`astore_integration_tests::random_sql`]) and for date filters that
//! select one run of keys (scanned as a key range on the foreign key), six
//! executions must return the same rows with tolerance 0.0 (every SSB
//! measure is an integer, so sums are exact in any association): one
//! worker, two and four workers, zone-map pruning off, a decoded (all-flat)
//! copy of the database, and the hash-join baseline — which shares none of
//! the scan code. The fact table
//! is sealed and then written to, so segments mix encoded chunks with flat
//! ones (decoded by updates after the seal), a flat tail (appends) and
//! deletes: the kernels must take every chunk as they find it.
//!
//! The executor's bookkeeping is pinned beside the results: a worker that
//! claims many morsels contributes exactly one partial result to the merge,
//! and `PlanInfo`'s exact counts for the 13 queries equal the values
//! recorded before the pipeline existed.

use std::sync::Arc;

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::prelude::*;
use astore_core::scan::TestKind;
use astore_integration_tests::{random_sql, ssb_sql, substitute};
use astore_obs::TraceBuf;
use astore_sql::sql_to_query;
use astore_storage::catalog::Database;
use astore_storage::types::{Value, NULL_KEY};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// SSB SF 0.01 (60 000 fact rows) in 4096-row segments, sealed.
fn sealed_db() -> Database {
    let mut db = astore_datagen::ssb::generate(0.01, 42);
    let t = db.table_mut("lineorder").unwrap();
    t.set_segment_rows(4096);
    t.seal_segments();
    db
}

/// Writes on top of the seals: updates of a measure, a predicate column and
/// a foreign key (each decodes the one chunk it lands in), deletes spread
/// over the table, slot-reusing inserts (a whole segment's chunks decoded),
/// and an appended flat tail.
fn dirty(db: &mut Database, rng: &mut SmallRng) {
    let t = db.table_mut("lineorder").unwrap();
    let n = t.num_slots() as u32;
    for _ in 0..120 {
        let r = rng.gen_range(0..n);
        if !t.is_live(r) {
            continue;
        }
        match rng.gen_range(0..3u32) {
            0 => t.update(r, "lo_quantity", &Value::Int(rng.gen_range(1..=50))),
            1 => t.update(r, "lo_discount", &Value::Int(rng.gen_range(0..=10))),
            _ => t.update(r, "lo_suppkey", &Value::Key(rng.gen_range(0..50))),
        }
    }
    for _ in 0..60 {
        t.delete(rng.gen_range(0..n));
    }
    for i in 0..700u32 {
        let template = (0..n).map(|k| (k * 7 + i) % n).find(|&r| t.is_live(r)).expect("a live row");
        let row = t.row(template);
        if i % 100 == 0 {
            t.insert(&row); // reuses a freed slot inside an encoded segment
        } else {
            t.append_row(&row);
        }
    }
    let ((chunks, _), (resident, raw)) = (t.flat_chunks(), t.encoded_footprint());
    assert!(chunks > 0 && t.segment_written(0).is_some(), "the writes must have decoded chunks");
    assert!(
        resident < raw,
        "and left chunks encoded beside them: {chunks} flat chunks, {resident} of {raw} bytes"
    );
    assert!(t.has_deletes());
}

/// Forces fan-out on the test-sized table, with morsels smaller than a
/// segment so a worker claims many.
fn two_threads(base: ExecOptions) -> ExecOptions {
    fan_out(base, 2)
}

fn fan_out(base: ExecOptions, threads: usize) -> ExecOptions {
    let mut o = base.threads(threads).morsel_rows(1024);
    o.optimizer.parallel_min_rows_per_thread = 1;
    o.optimizer.host_threads = 64;
    o
}

/// Runs `sql` on every arm and returns the serial execution's plan.
fn check_all_arms(db: &Database, flat: &Database, name: &str, sql: &str) -> PlanInfo {
    let q = sql_to_query(sql, db).unwrap_or_else(|e| panic!("{name}: {e}\n{sql}"));
    let run = |arm: &str, opts: ExecOptions| {
        execute(db, &q, &opts).unwrap_or_else(|e| panic!("{name}: {arm} arm failed: {e:?}\n{sql}"))
    };
    let on_copy = |arm: &str, opts: ExecOptions| {
        execute(flat, &q, &opts)
            .unwrap_or_else(|e| panic!("{name}: {arm} arm failed: {e:?}\n{sql}"))
    };
    let serial = run("serial", ExecOptions::default());
    assert!(!serial.plan.executor.is_parallel());
    let arms = [
        ("2 threads", run("2 threads", two_threads(ExecOptions::default()))),
        ("4 threads", run("4 threads", fan_out(ExecOptions::default(), 4))),
        ("pruning(false)", run("pruning(false)", ExecOptions::default().pruning(false))),
        ("decoded copy", on_copy("decoded copy", ExecOptions::default())),
        (
            "2 threads, unpruned, decoded copy",
            on_copy(
                "2 threads, unpruned, decoded copy",
                two_threads(ExecOptions::default().pruning(false)),
            ),
        ),
    ];
    for (arm, out) in &arms {
        assert!(
            out.result.same_contents(&serial.result, 0.0),
            "{name}: {arm} diverged from serial\n{sql}\n{:?}\nvs\n{:?}",
            out.result.rows,
            serial.result.rows
        );
        assert_eq!(out.plan.selected_rows, serial.plan.selected_rows, "{name}: {arm}\n{sql}");
        assert_eq!(out.plan.groups, serial.plan.groups, "{name}: {arm}\n{sql}");
    }
    assert!(
        arms[0].1.plan.executor.is_parallel() || serial.plan.segments_scanned == 0,
        "{name}: the 2-thread arm must fan out unless everything was pruned"
    );
    let joined = execute_hash_pipeline(db, &q).unwrap_or_else(|e| panic!("{name}: join: {e:?}"));
    assert!(
        joined.result.same_contents(&serial.result, 0.0),
        "{name}: hash-join baseline diverged from serial\n{sql}\n{:?}\nvs\n{:?}",
        joined.result.rows,
        serial.result.rows
    );
    assert_eq!(joined.selected_rows, serial.plan.selected_rows, "{name}: join\n{sql}");
    serial.plan
}

#[test]
fn pipeline_equals_every_other_execution_on_a_written_to_sealed_table() {
    let mut db = sealed_db();
    let mut rng = SmallRng::seed_from_u64(0x91BE_11E5);
    // Clean seals first, then two rounds of writes on top of them.
    for round in 0..3 {
        if round > 0 {
            dirty(&mut db, &mut rng);
        }
        let flat = db.decoded();
        for (name, template, params) in ssb_sql() {
            check_all_arms(&db, &flat, name, &substitute(template, &params));
        }
        for i in 0..40 {
            let sql = random_sql(&mut rng).literal_sql();
            check_all_arms(&db, &flat, &format!("random {round}/{i}"), &sql);
        }
    }
}

/// Date filters whose predicate vector is one run of keys — a day, a
/// month, a week, a year, six years, the first and the last day — are
/// scanned as a key range on `lo_orderdate` instead of probed, and must
/// select what every other execution selects: over NULL foreign keys, a
/// decoded key chunk and dead slots in the segments they seed, beside fact
/// predicates and other chains. An empty filter, and a run broken by a
/// deleted date row, stay probes.
#[test]
fn one_run_chains_equal_every_other_execution() {
    let mut db = sealed_db();
    {
        // Segment 0 holds the first days: NULL keys (their update decodes
        // the key chunk) and dead slots.
        let t = db.table_mut("lineorder").unwrap();
        for r in (0..400).step_by(9) {
            t.update(r, "lo_orderdate", &Value::Key(NULL_KEY));
        }
        for r in [4u32, 50, 51, 2000, 5000] {
            t.delete(r);
        }
        assert!(t.column("lo_orderdate").unwrap().chunk_encoding(0).is_none());
        assert!(t.column("lo_orderdate").unwrap().chunk_encoding(1).is_some());
    }
    let datekeys =
        db.table("date").unwrap().column("d_datekey").unwrap().as_i32().unwrap().to_vec();
    let (first, last) = (datekeys[0], datekeys[datekeys.len() - 1]);
    let runs = [
        ("day", format!("d_datekey = {}", datekeys[700])),
        ("first day", format!("d_datekey = {first}")),
        ("last day", format!("d_datekey = {last}")),
        ("month", "d_yearmonthnum = 199401".to_owned()),
        ("first month", "d_yearmonthnum = 199201".to_owned()),
        ("week", "d_weeknuminyear = 6 AND d_year = 1994".to_owned()),
        ("year", "d_year = 1993".to_owned()),
        ("six years", "d_year BETWEEN 1992 AND 1997".to_owned()),
    ];
    let shapes = [
        "SELECT sum(lo_revenue) AS r, count(*) AS n FROM lineorder, date \
         WHERE lo_orderdate = d_datekey AND {run}",
        "SELECT sum(lo_extendedprice * lo_discount) AS r FROM lineorder, date \
         WHERE lo_orderdate = d_datekey AND {run} AND lo_discount BETWEEN 1 AND 3 \
         AND lo_quantity < 25",
        "SELECT lo_shipmode, sum(lo_quantity) AS q FROM lineorder, date \
         WHERE lo_orderdate = d_datekey AND {run} GROUP BY lo_shipmode ORDER BY lo_shipmode",
        "SELECT c_nation, d_year, sum(lo_revenue) AS r FROM lineorder, date, customer \
         WHERE lo_orderdate = d_datekey AND lo_custkey = c_custkey AND {run} \
         AND c_region = 'ASIA' GROUP BY c_nation, d_year",
    ];
    let date_test = |plan: &PlanInfo| {
        let step = plan.selection.steps.iter().find(|s| s.column == "lo_orderdate");
        step.expect("the date chain is a test").kind
    };
    let check = |db: &Database, name: &str, run: &str| {
        let flat = db.decoded();
        shapes.map(|shape| {
            let sql = shape.replace("{run}", run);
            date_test(&check_all_arms(db, &flat, name, &sql))
        })
    };
    for (name, run) in &runs {
        assert_eq!(check(&db, name, run), [TestKind::Range; 4], "{name}: a run is a key range");
    }
    assert_eq!(check(&db, "empty", "d_year = 2099"), [TestKind::Probe; 4]);

    // A deleted date inside January 1994 splits the month into two runs.
    let jan15 = datekeys.iter().position(|&k| k == 19940115).expect("the calendar has it");
    db.table_mut("date").unwrap().delete(jan15 as u32);
    let month = "d_yearmonthnum = 199401";
    assert_eq!(check(&db, "month with a hole", month), [TestKind::Probe; 4]);
    assert_eq!(check(&db, "a day beside the hole", "d_datekey = 19940116"), [TestKind::Range; 4]);
}

/// `(query, groups, selected_rows, segments_scanned, segments_pruned)` of
/// the serial executor on [`sealed_db`], recorded at the commit before the
/// scan became a per-segment pipeline (PR 14).
const PLAN_COUNTS: [(&str, usize, usize, usize, usize); 13] = [
    ("Q1.1", 1, 1140, 4, 11),
    ("Q1.2", 1, 40, 1, 14),
    ("Q1.3", 1, 3, 1, 14),
    ("Q2.1", 226, 800, 15, 0),
    ("Q2.2", 31, 49, 15, 0),
    ("Q2.3", 0, 0, 0, 15),
    ("Q3.1", 120, 831, 13, 2),
    ("Q3.2", 21, 32, 13, 2),
    ("Q3.3", 6, 8, 13, 2),
    ("Q3.4", 0, 0, 1, 14),
    ("Q4.1", 35, 1357, 15, 0),
    ("Q4.2", 89, 388, 5, 10),
    ("Q4.3", 6, 6, 5, 10),
];

#[test]
fn plan_counts_of_the_13_queries_are_what_they_were() {
    let db = sealed_db();
    for ((name, template, params), want) in ssb_sql().into_iter().zip(PLAN_COUNTS) {
        assert_eq!(name, want.0);
        let q = sql_to_query(&substitute(template, &params), &db).unwrap();
        for (arm, opts) in
            [("serial", ExecOptions::default()), ("2 threads", two_threads(ExecOptions::default()))]
        {
            let p = execute(&db, &q, &opts).unwrap().plan;
            let got = (name, p.groups, p.selected_rows, p.segments_scanned, p.segments_pruned);
            assert_eq!(got, want, "{name} ({arm})");
        }
    }
}

#[test]
fn a_worker_claiming_many_morsels_contributes_one_partial() {
    let db = sealed_db();
    let (_, template, params) = ssb_sql().into_iter().find(|(n, ..)| *n == "Q4.1").unwrap();
    let q = sql_to_query(&substitute(template, &params), &db).unwrap();
    let trace = Arc::new(TraceBuf::new());
    let out = execute(&db, &q, &two_threads(ExecOptions::default()).trace(trace.clone())).unwrap();
    let ExecutorInfo::Parallel { threads, morsels, .. } = out.plan.executor else {
        panic!("expected the morsel executor, got {}", out.plan.executor);
    };
    assert_eq!(threads, 2);
    assert!(morsels > 50, "15 segments in 1024-row morsels, got {morsels}");
    let spans = trace.spans();
    assert_eq!(spans.iter().filter(|s| s.name == "morsel").count(), morsels);
    let merge = spans.iter().find(|s| s.name == "merge").expect("a merge span");
    assert_eq!(merge.attr("partials"), Some(2), "one partial per worker, not per morsel");
    assert_eq!(merge.attr("groups"), Some(out.plan.groups as i64));
}
