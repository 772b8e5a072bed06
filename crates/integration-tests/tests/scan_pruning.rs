//! Zone-map segmentation differential: the segmented, data-skipping scan
//! must be *observationally identical* to the pre-segmentation flat scan —
//! on the static SSB workload, and under a seeded interleaving of
//! INSERT/UPDATE/DELETE with queries (the writes exercise incremental
//! zone-map maintenance: widening on update, live-count decay on delete,
//! slot reuse on insert). The unsegmented oracle is the same engine with
//! `ExecOptions::pruning(false)`, which scans every segment flat.
//!
//! The SPJGA workload generator is shared with `prepared_differential.rs`
//! (see `astore_integration_tests`), so both suites cover the same query
//! space: 200 seeded queries here, interleaved with 200 seeded writes.
//!
//! The zone maps also order the scan's selection tests; the last tests pin
//! which test builds the selection for the benchmark's short statements and
//! three SSB queries at SF 0.2, and which of those statements fan out.

use std::sync::Arc;

use astore_api::{Connection, EmbeddedConnection, Row, Rows};
use astore_core::prelude::*;
use astore_core::scan::TestKind;
use astore_datagen::ssb;
use astore_integration_tests::{random_sql, ssb_sql, substitute};
use astore_server::Engine;
use astore_sql::sql_to_query;
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::{RowId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn to_result(rows: Rows) -> QueryResult {
    let columns = rows.columns().to_vec();
    QueryResult { columns, rows: rows.map(Row::into_values).collect() }
}

/// Renders one storage value as a SQL literal.
fn lit(v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Key(k) => k.to_string(),
        Value::Null => "NULL".into(),
    }
}

/// A random committed write against `lineorder`: a fresh insert cloned from
/// a live row (measures perturbed, order date re-rolled — widening the
/// target segment's zones), an in-place measure/key/dict update, or a
/// delete. Returns the SQL to apply identically to both databases.
fn random_write(rng: &mut SmallRng, db: &astore_storage::catalog::Database) -> String {
    let lo = db.table("lineorder").unwrap();
    let n_dates = db.table("date").unwrap().num_slots() as i64;
    let live: Vec<RowId> = (0..lo.num_slots() as RowId).filter(|&r| lo.is_live(r)).collect();
    let pick = live[rng.gen_range(0..live.len())];
    match rng.gen_range(0..6u32) {
        0 | 1 => {
            let mut row = lo.row(pick);
            // lo_orderdate is column 5; re-roll it so the insert lands a
            // date far from its segment's cluster (zone widening).
            row[5] = Value::Key(rng.gen_range(0..n_dates) as u32);
            // lo_revenue is column 12; perturb the measure.
            row[12] = Value::Int(rng.gen_range(100..100_000i64));
            let vals: Vec<String> = row.iter().map(lit).collect();
            format!("INSERT INTO lineorder VALUES ({})", vals.join(", "))
        }
        2 => format!(
            "UPDATE lineorder SET lo_revenue = {} WHERE rowid = {pick}",
            rng.gen_range(0..1_000_000i64)
        ),
        3 => format!(
            "UPDATE lineorder SET lo_orderdate = {} WHERE rowid = {pick}",
            rng.gen_range(0..n_dates)
        ),
        4 => format!(
            "UPDATE lineorder SET lo_quantity = {} WHERE rowid = {pick}",
            rng.gen_range(1..=50i64)
        ),
        _ if live.len() > 100 => format!("DELETE FROM lineorder WHERE rowid = {pick}"),
        _ => format!("UPDATE lineorder SET lo_shipmode = 'AIR' WHERE rowid = {pick}"),
    }
}

/// 200 seeded SPJGA queries interleaved with 200 seeded writes: after every
/// write batch, the finely-segmented database must answer exactly like the
/// flat-scan oracle — result-identical to the last bit, including float
/// accumulation order (pruning only removes segments that contribute no
/// rows, and surviving rows keep their scan order).
#[test]
fn interleaved_writes_segmented_matches_flat_oracle() {
    let base = ssb::generate(0.002, 20260729);
    let mut seg_db = base.clone();
    // 1024-row segments: ~12 prunable segments instead of one 64K segment.
    seg_db.table_mut("lineorder").unwrap().set_segment_rows(1024);
    let shared_seg = SharedDatabase::new(seg_db);
    let shared_flat = SharedDatabase::new(base);
    let engine = |db: &SharedDatabase, opts: ExecOptions| {
        EmbeddedConnection::over(Arc::new(Engine::with_options(db.clone(), opts)))
    };
    let mut seg_conn = engine(&shared_seg, ExecOptions::default());
    let mut flat_conn = engine(&shared_flat, ExecOptions::default().pruning(false));

    let mut rng = SmallRng::seed_from_u64(0x5E6_5CA9);
    let (mut total_pruned, mut total_scanned) = (0usize, 0usize);
    let mut nonempty = 0usize;
    for round in 0..40 {
        for w in 0..5 {
            let sql = random_write(&mut rng, &shared_seg.snapshot());
            let a = seg_conn.execute(&sql, &[]).unwrap_or_else(|e| {
                panic!("round {round} write {w} failed on segmented: {e}\n{sql}")
            });
            let b = flat_conn.execute(&sql, &[]).unwrap();
            assert_eq!(a, b, "round {round}: write affected different row counts\n{sql}");
        }
        for q in 0..5 {
            let sql = random_sql(&mut rng).literal_sql();
            let stmt = seg_conn
                .prepare(&sql)
                .unwrap_or_else(|e| panic!("round {round} query {q} prepare failed: {e}\n{sql}"));
            let (rows, plan) = seg_conn.query_with_plan(&stmt, &[]).unwrap();
            total_pruned += plan.segments_pruned;
            total_scanned += plan.segments_scanned;
            let seg_res = to_result(rows);
            let flat_res = to_result(flat_conn.query(&sql, &[]).unwrap());
            assert_eq!(
                seg_res, flat_res,
                "round {round} query {q}: segmented != flat oracle\n{sql}"
            );
            if !seg_res.rows.is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(total_pruned > 0, "the differential never exercised pruning");
    assert!(total_scanned > 0);
    assert!(nonempty >= 100, "only {nonempty}/200 queries returned rows; generator too weak");
}

/// The selective SSB flight 1 queries must actually skip segments of a
/// date-clustered fact table — and stay bit-identical to the flat scan.
#[test]
fn ssb_q1_flight_prunes_segments_bit_identically() {
    let mut db = ssb::generate(0.01, 42);
    db.table_mut("lineorder").unwrap().set_segment_rows(4096);
    let n_segs = db.table("lineorder").unwrap().segment_count();
    assert!(n_segs >= 10, "fixture too small to mean anything: {n_segs} segments");

    for sq in ssb::queries() {
        let flat = execute(&db, &sq.query, &ExecOptions::default().pruning(false)).unwrap();
        let pruned = execute(&db, &sq.query, &ExecOptions::default()).unwrap();
        assert!(
            pruned.result.same_contents(&flat.result, 0.0),
            "{}: pruned scan diverged from flat scan",
            sq.id
        );
        assert_eq!(
            pruned.plan.segments_scanned + pruned.plan.segments_pruned,
            n_segs,
            "{}: scan counts must cover the table",
            sq.id
        );
        if sq.id.starts_with("Q1") {
            assert!(
                pruned.plan.segments_pruned > 0,
                "{}: a tight date predicate must skip segments of a \
                 date-clustered table (scanned {}, pruned {})",
                sq.id,
                pruned.plan.segments_scanned,
                pruned.plan.segments_pruned
            );
        }
    }
}

/// Parallel execution over the pruned segment set agrees with the serial
/// flat scan (the dispatcher never hands out a pruned segment).
#[test]
fn parallel_pruned_scan_matches_flat_oracle() {
    let mut db = ssb::generate(0.005, 7);
    db.table_mut("lineorder").unwrap().set_segment_rows(2048);
    let mut popts = ExecOptions::default().threads(4).morsel_rows(512);
    popts.optimizer.parallel_min_rows_per_thread = 1;
    popts.optimizer.host_threads = 64;
    for sq in ssb::queries() {
        let flat = execute(&db, &sq.query, &ExecOptions::default().pruning(false)).unwrap();
        let par = execute(&db, &sq.query, &popts).unwrap();
        assert!(
            par.plan.executor.is_parallel() || par.plan.segments_scanned == 0,
            "{}: fell back to serial with unpruned segments",
            sq.id
        );
        assert!(
            par.result.same_contents(&flat.result, 1e-9),
            "{}: parallel pruned scan diverged",
            sq.id
        );
    }
}

/// Which test builds the selection at SF 0.2 (seed 42): the most selective
/// test among the rows the zone maps keep — a one-run date chain only when
/// it is that. The statements are `serve-mix`'s four short templates and
/// three SSB queries.
#[test]
fn selection_builders_at_sf_0_2() {
    let db = ssb::generate(0.2, 42);
    let day = "FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey = 19950612";
    let mut statements: Vec<(&str, String)> = vec![
        ("T0", format!("SELECT sum(lo_revenue) AS revenue {day}")),
        (
            "T1",
            format!(
                "SELECT count(*) AS orders, sum(lo_extendedprice * lo_discount) AS revenue \
                 {day} AND lo_discount BETWEEN 3 AND 5"
            ),
        ),
        (
            "T2",
            format!(
                "SELECT lo_shipmode, sum(lo_quantity) AS quantity {day} \
                 GROUP BY lo_shipmode ORDER BY lo_shipmode"
            ),
        ),
        (
            "T3",
            "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date \
             WHERE lo_orderdate = d_datekey AND d_yearmonthnum = 199606 \
             AND lo_discount BETWEEN 2 AND 4 AND lo_quantity BETWEEN 20 AND 29"
                .to_owned(),
        ),
    ];
    for (name, template, params) in ssb_sql() {
        if ["Q1.1", "Q3.1", "Q3.3"].contains(&name) {
            statements.push((name, substitute(template, &params)));
        }
    }
    // (builder kind, builder column, then the date chain's kind and where it
    // runs in the list).
    let want = [
        ("T0", TestKind::Range, "lo_orderdate", 0),
        ("T1", TestKind::Range, "lo_orderdate", 0),
        ("T2", TestKind::Range, "lo_orderdate", 0),
        ("T3", TestKind::Range, "lo_orderdate", 0),
        ("Q1.1", TestKind::Range, "lo_discount", 2),
        ("Q3.1", TestKind::Probe, "lo_custkey", 2),
        ("Q3.3", TestKind::Range, "lo_suppkey", 2),
    ];
    for ((name, sql), (want_name, kind, column, date_at)) in statements.iter().zip(want) {
        assert_eq!(*name, want_name);
        let q = sql_to_query(sql, &db).unwrap();
        let sel = execute(&db, &q, &ExecOptions::default()).unwrap().plan.selection;
        let builder = sel.builder_step().unwrap_or_else(|| panic!("{name}: nothing builds: {sel}"));
        assert_eq!((builder.kind, builder.column.as_str()), (kind, column), "{name}: {sel}");
        let date = &sel.steps[date_at];
        assert_eq!((date.kind, date.column.as_str()), (TestKind::Range, "lo_orderdate"), "{name}");
        match *name {
            // A day among the ≈ 1.4 segments it keeps is well under 1 %.
            "T0" | "T1" | "T2" => assert!(date.estimate < 0.01, "{name}: {sel}"),
            // The year of Q1.1 is ≈ 68 % of its four segments, behind the
            // discount range's 3 of 11 values.
            "Q1.1" => assert!((0.6..0.75).contains(&date.estimate), "{name}: {sel}"),
            // Six of seven years pass nearly every row Q3.x scans.
            _ if name.starts_with("Q3") => assert!(date.estimate > 0.9, "{name}: {sel}"),
            _ => {}
        }
    }
}

/// Which statements fan out at two threads on a two-core host, SF 0.2
/// (seed 42). A worker's quota is two surviving segments, so the SSB
/// queries that keep four or more segments fan out; Q1.2, Q1.3 and Q3.4
/// keep one, and the benchmark's short statements keep one or two —
/// two where their key's rows straddle a segment boundary — and stay
/// serial.
#[test]
fn fan_out_decisions_at_sf_0_2() {
    let db = ssb::generate(0.2, 42);
    let mut opts = ExecOptions::default().threads(2);
    opts.optimizer.host_threads = 2;
    // (name, statement, segments it keeps if pinned)
    let mut statements: Vec<(String, String, Option<usize>)> = Vec::new();
    for (key, kept) in [(19940315, 1), (19960228, 2)] {
        let day =
            format!("FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey = {key}");
        statements.extend([
            (format!("T0 {key}"), format!("SELECT sum(lo_revenue) AS revenue {day}"), Some(kept)),
            (
                format!("T1 {key}"),
                format!(
                    "SELECT count(*) AS orders, sum(lo_extendedprice * lo_discount) AS revenue \
                     {day} AND lo_discount BETWEEN 3 AND 5"
                ),
                Some(kept),
            ),
            (
                format!("T2 {key}"),
                format!(
                    "SELECT lo_shipmode, sum(lo_quantity) AS quantity {day} \
                     GROUP BY lo_shipmode ORDER BY lo_shipmode"
                ),
                Some(kept),
            ),
        ]);
    }
    for (month, kept) in [(199606, 1), (199507, 2), (199611, 2)] {
        let sql = format!(
            "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date \
             WHERE lo_orderdate = d_datekey AND d_yearmonthnum = {month} \
             AND lo_discount BETWEEN 2 AND 4 AND lo_quantity BETWEEN 20 AND 29"
        );
        statements.push((format!("T3 {month}"), sql, Some(kept)));
    }
    for (name, template, params) in ssb_sql() {
        statements.push((name.to_owned(), substitute(template, &params), None));
    }
    let parallel = ["Q1.1", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q3.2", "Q3.3", "Q4.1", "Q4.2", "Q4.3"];
    for (name, sql, kept) in &statements {
        let q = sql_to_query(sql, &db).unwrap();
        let plan = execute(&db, &q, &opts).unwrap().plan;
        if let Some(kept) = kept {
            assert_eq!(plan.segments_scanned, *kept, "{name}");
        }
        let want = parallel.contains(&name.as_str());
        assert_eq!(plan.executor.is_parallel(), want, "{name}: {:?}", plan.executor);
    }
}
