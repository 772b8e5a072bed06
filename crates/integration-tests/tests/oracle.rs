//! The gold oracle: a deliberately naive reference evaluator (row-at-a-time
//! AIR chasing, `Value`-level predicate evaluation, `HashMap` grouping)
//! checked against the full engine on the SSB workload and on handcrafted
//! edge cases. If the optimized engine and this 60-line interpreter ever
//! disagree, the engine is wrong.
//!
//! On top of the fixed workload, a seeded random SPJGA query generator runs
//! a three-way differential: the AIR engine, the `baseline` hash-join
//! pipeline, and the AIR engine over a snapshot-reloaded copy of the
//! database must all agree on every generated query.

use std::collections::HashMap;

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::expr::{CmpOp, Lit, MeasureExpr, Pred};
use astore_core::prelude::*;
use astore_core::query::AggFunc;
use astore_core::universal::Universal;
use astore_datagen::ssb;
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Naive evaluation of a predicate on one row of one table.
fn eval_pred(pred: &Pred, t: &Table, row: usize) -> bool {
    match pred {
        Pred::Const(b) => *b,
        Pred::And(ps) => ps.iter().all(|p| eval_pred(p, t, row)),
        Pred::Or(ps) => ps.iter().any(|p| eval_pred(p, t, row)),
        Pred::Not(p) => !eval_pred(p, t, row),
        Pred::Cmp { col, op, lit } => cmp(&t.column(col).unwrap().get(row), *op, lit),
        Pred::Between { col, lo, hi } => {
            let v = t.column(col).unwrap().get(row);
            cmp(&v, CmpOp::Ge, lo) && cmp(&v, CmpOp::Le, hi)
        }
        Pred::InList { col, lits } => {
            let v = t.column(col).unwrap().get(row);
            lits.iter().any(|l| cmp(&v, CmpOp::Eq, l))
        }
    }
}

fn cmp(v: &Value, op: CmpOp, lit: &Lit) -> bool {
    match (v, lit) {
        (Value::Int(a), Lit::Int(b)) => op.apply(*a, *b),
        (Value::Int(a), Lit::Float(b)) => op.apply(*a as f64, *b),
        (Value::Float(a), Lit::Float(b)) => op.apply(*a, *b),
        (Value::Float(a), Lit::Int(b)) => op.apply(*a, *b as f64),
        (Value::Str(a), Lit::Str(b)) => op.apply(a.as_str(), b.as_str()),
        _ => false,
    }
}

fn eval_measure(m: &MeasureExpr, t: &Table, row: usize) -> f64 {
    match m {
        MeasureExpr::Const(c) => *c,
        MeasureExpr::Col(c) => t.column(c).unwrap().numeric_at(row).expect("numeric measure"),
        MeasureExpr::Add(a, b) => eval_measure(a, t, row) + eval_measure(b, t, row),
        MeasureExpr::Sub(a, b) => eval_measure(a, t, row) - eval_measure(b, t, row),
        MeasureExpr::Mul(a, b) => eval_measure(a, t, row) * eval_measure(b, t, row),
    }
}

/// The reference evaluator: materializes the result as unsorted rows.
fn reference_execute(db: &Database, q: &Query) -> QueryResult {
    let root_name = q
        .root
        .clone()
        .unwrap_or_else(|| db.graph().root_covering(&q.referenced_tables()).unwrap().to_owned());
    let u = Universal::bind(db, Some(&root_name), &[]).unwrap();
    let fact = u.root_table();

    // Resolve every non-root table the query references.
    let mut group_cols = Vec::new();
    for g in &q.group_by {
        group_cols.push((u.resolve(g).unwrap(), g.table == root_name));
    }

    #[derive(Default, Clone)]
    struct Acc {
        sum: Vec<f64>,
        count: u64,
        min: Vec<f64>,
        max: Vec<f64>,
    }
    /// A hashable stand-in for grouping labels (ints and strings only).
    #[derive(PartialEq, Eq, Hash)]
    enum OKey {
        Int(i64),
        Str(String),
    }
    fn okey(v: &Value) -> OKey {
        match v {
            Value::Int(i) => OKey::Int(*i),
            Value::Key(k) => OKey::Int(i64::from(*k)),
            Value::Str(s) => OKey::Str(s.clone()),
            other => panic!("cannot group by {other:?}"),
        }
    }
    let n_aggs = q.aggregates.len();
    let mut groups: HashMap<Vec<OKey>, (Vec<Value>, Acc)> = HashMap::new();

    'rows: for row in 0..fact.num_slots() {
        if !fact.is_live(row as u32) {
            continue;
        }
        // Selections: every predicate table must be reachable, live, and
        // pass its predicate.
        for (t, pred) in &q.selections {
            if t == &root_name {
                if !eval_pred(pred, fact, row) {
                    continue 'rows;
                }
                continue;
            }
            let hops = u.hops_to(t).unwrap();
            let mut r = row;
            for keys in &hops {
                let k = keys.get(r);
                if k == NULL_KEY {
                    continue 'rows;
                }
                r = k as usize;
            }
            let table = db.table(t).unwrap();
            if !table.is_live(r as u32) || !eval_pred(pred, table, r) {
                continue 'rows;
            }
        }
        // Grouping labels (row dropped if any chain is broken/dead).
        let mut labels = Vec::with_capacity(group_cols.len());
        for (rc, _) in &group_cols {
            let Some(r) = rc.locate(row) else { continue 'rows };
            if !rc.table.is_live(r as u32) {
                continue 'rows;
            }
            labels.push(rc.column.get(r));
        }
        // Implicit inner-join semantics: all *referenced* non-root tables
        // must be reachable even if they carry no predicate (handled above
        // for predicates and groups; tables referenced only via measures are
        // root-local by construction).
        let key: Vec<OKey> = labels.iter().map(okey).collect();
        let acc = &mut groups
            .entry(key)
            .or_insert_with(|| {
                (
                    labels,
                    Acc {
                        sum: vec![0.0; n_aggs],
                        count: 0,
                        min: vec![f64::INFINITY; n_aggs],
                        max: vec![f64::NEG_INFINITY; n_aggs],
                    },
                )
            })
            .1;
        acc.count += 1;
        for (j, a) in q.aggregates.iter().enumerate() {
            if let Some(e) = &a.expr {
                let v = eval_measure(e, fact, row);
                acc.sum[j] += v;
                acc.min[j] = acc.min[j].min(v);
                acc.max[j] = acc.max[j].max(v);
            }
        }
    }

    let mut rows = Vec::new();
    for (_, (labels, acc)) in groups {
        let mut row = labels;
        for (j, a) in q.aggregates.iter().enumerate() {
            row.push(match a.func {
                AggFunc::Sum => Value::Float(acc.sum[j]),
                AggFunc::Count => Value::Int(acc.count as i64),
                AggFunc::Min => Value::Float(acc.min[j]),
                AggFunc::Max => Value::Float(acc.max[j]),
                AggFunc::Avg => Value::Float(acc.sum[j] / acc.count as f64),
            });
        }
        rows.push(row);
    }
    QueryResult { columns: q.output_names(), rows }
}

#[test]
fn engine_matches_oracle_on_all_ssb_queries() {
    let db = ssb::generate(0.002, 99);
    for sq in ssb::queries() {
        let engine = execute(&db, &sq.query, &ExecOptions::default()).unwrap();
        let oracle = reference_execute(&db, &sq.query);
        assert!(
            engine.result.same_contents(&oracle, 1e-6),
            "{}: engine disagrees with the naive oracle ({} vs {} rows)",
            sq.id,
            engine.result.len(),
            oracle.len()
        );
    }
}

#[test]
fn engine_matches_oracle_with_deletes() {
    let mut db = ssb::generate(0.002, 7);
    // Knock out scattered fact rows, customers and a supplier.
    {
        let lo = db.table_mut("lineorder").unwrap();
        let n = lo.num_slots();
        for i in (0..n).step_by(17) {
            lo.delete(i as u32);
        }
    }
    {
        let c = db.table_mut("customer").unwrap();
        let n = c.num_slots();
        for i in (0..n).step_by(5) {
            c.delete(i as u32);
        }
    }
    db.table_mut("supplier").unwrap().delete(3);

    for sq in ssb::queries() {
        let engine = execute(&db, &sq.query, &ExecOptions::default()).unwrap();
        let oracle = reference_execute(&db, &sq.query);
        assert!(
            engine.result.same_contents(&oracle, 1e-6),
            "{}: engine disagrees with oracle under deletes",
            sq.id
        );
        // Row-wise variant and parallel executor too. Fan-out is forced:
        // the SF 0.002 fixture is below the default planner threshold, and
        // a silently-serial run would prove nothing here.
        let row =
            execute(&db, &sq.query, &ExecOptions::with_variant(ScanVariant::RowWise)).unwrap();
        assert!(row.result.same_contents(&oracle, 1e-6), "{}: row-wise under deletes", sq.id);
        let mut popts = ExecOptions::default().threads(3);
        popts.optimizer.parallel_min_rows_per_thread = 1;
        popts.optimizer.host_threads = 64;
        let par = execute(&db, &sq.query, &popts).unwrap();
        // Serial is only legitimate when zone maps proved there is nothing
        // to scan at all (e.g. an empty chain filter pruned every segment).
        assert!(
            par.plan.executor.is_parallel() || par.plan.segments_scanned == 0,
            "{}: fell back to serial with unpruned segments",
            sq.id
        );
        assert!(par.result.same_contents(&oracle, 1e-6), "{}: parallel under deletes", sq.id);
    }
}

// ---------------------------------------------------------------------------
// Randomized differential testing: AIR vs hash-join vs reloaded-from-disk.
// ---------------------------------------------------------------------------

/// One random dimension predicate drawn from a pool of valid SSB shapes.
fn random_dim_pred(rng: &mut SmallRng) -> (&'static str, Pred) {
    const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    const MFGRS: [&str; 5] = ["MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"];
    const NATIONS: [&str; 6] = ["CHINA", "FRANCE", "BRAZIL", "EGYPT", "KENYA", "UNITED STATES"];
    match rng.gen_range(0..8u32) {
        0 => {
            let y = rng.gen_range(1992..=1998i64);
            ("date", Pred::eq("d_year", y))
        }
        1 => {
            let lo = rng.gen_range(1992..=1997i64);
            ("date", Pred::between("d_year", lo, lo + rng.gen_range(0..=2i64)))
        }
        2 => {
            let w = rng.gen_range(1..=53i64);
            ("date", Pred::cmp("d_weeknuminyear", CmpOp::Le, w))
        }
        3 => ("customer", Pred::eq("c_region", REGIONS[rng.gen_range(0..REGIONS.len())])),
        4 => ("customer", Pred::eq("c_nation", NATIONS[rng.gen_range(0..NATIONS.len())])),
        5 => ("supplier", Pred::eq("s_region", REGIONS[rng.gen_range(0..REGIONS.len())])),
        6 => ("part", Pred::eq("p_mfgr", MFGRS[rng.gen_range(0..MFGRS.len())])),
        _ => {
            let lo = rng.gen_range(1..=40i64);
            ("part", Pred::between("p_size", lo, lo + rng.gen_range(0..=10i64)))
        }
    }
}

/// One random fact-local predicate.
fn random_fact_pred(rng: &mut SmallRng) -> Pred {
    match rng.gen_range(0..4u32) {
        0 => {
            let lo = rng.gen_range(1..=8i64);
            Pred::between("lo_discount", lo, lo + 2)
        }
        1 => Pred::cmp("lo_quantity", CmpOp::Lt, rng.gen_range(5..=50i64)),
        2 => Pred::cmp("lo_extendedprice", CmpOp::Ge, rng.gen_range(100..=2000i64) * 100),
        _ => {
            let lo = rng.gen_range(1..=8i64);
            Pred::between("lo_discount", lo, lo + 1).and(Pred::cmp(
                "lo_quantity",
                CmpOp::Ge,
                rng.gen_range(1..=30i64),
            ))
        }
    }
}

/// A random SPJGA query over the SSB schema: 0–2 dimension predicates, an
/// optional fact predicate, 0–2 group columns, 1–3 aggregates.
fn random_query(rng: &mut SmallRng) -> Query {
    const GROUPS: [(&str, &str); 7] = [
        ("date", "d_year"),
        ("date", "d_month"),
        ("customer", "c_region"),
        ("customer", "c_nation"),
        ("supplier", "s_region"),
        ("part", "p_mfgr"),
        ("lineorder", "lo_shipmode"),
    ];
    let mut q = Query::new().root("lineorder");
    for _ in 0..rng.gen_range(0..=2u32) {
        let (t, p) = random_dim_pred(rng);
        q = q.filter(t, p);
    }
    if rng.gen_bool(0.6) {
        q = q.filter("lineorder", random_fact_pred(rng));
    }
    let n_groups = rng.gen_range(0..=2u32);
    let mut used = Vec::new();
    for _ in 0..n_groups {
        let (t, c) = GROUPS[rng.gen_range(0..GROUPS.len())];
        if !used.contains(&c) {
            used.push(c);
            q = q.group(t, c);
        }
    }
    let rev_disc = || {
        MeasureExpr::Mul(
            Box::new(MeasureExpr::col("lo_extendedprice")),
            Box::new(MeasureExpr::col("lo_discount")),
        )
    };
    let profit = || {
        MeasureExpr::Sub(
            Box::new(MeasureExpr::col("lo_revenue")),
            Box::new(MeasureExpr::col("lo_supplycost")),
        )
    };
    for i in 0..rng.gen_range(1..=3u32) {
        let name = format!("agg{i}");
        q = q.agg(match rng.gen_range(0..6u32) {
            0 => Aggregate::sum(MeasureExpr::col("lo_revenue"), name),
            1 => Aggregate::sum(rev_disc(), name),
            2 => Aggregate::sum(profit(), name),
            3 => Aggregate::count(name),
            4 => Aggregate::min(MeasureExpr::col("lo_revenue"), name),
            _ => Aggregate::max(MeasureExpr::col("lo_extendedprice"), name),
        });
    }
    q
}

#[test]
fn randomized_three_way_differential_air_hash_and_reloaded() {
    const QUERIES: usize = 200;
    let db = ssb::generate(0.002, 4242);

    // Third engine: the same database after a disk round trip.
    let dir = std::env::temp_dir().join(format!("astore-oracle-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("diff.snapshot");
    astore_persist::save_snapshot(&db, &path).unwrap();
    let reloaded = astore_persist::load_snapshot(&path).unwrap();

    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut nonempty = 0usize;
    for i in 0..QUERIES {
        let q = random_query(&mut rng);
        let air = execute(&db, &q, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("query {i} failed on AIR engine: {e:?}\n{q:?}"));
        let hash = execute_hash_pipeline(&db, &q)
            .unwrap_or_else(|e| panic!("query {i} failed on hash engine: {e:?}\n{q:?}"));
        let disk = execute(&reloaded, &q, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("query {i} failed on reloaded engine: {e:?}\n{q:?}"));
        assert!(
            air.result.same_contents(&hash.result, 1e-6),
            "query {i}: AIR vs hash-join disagree ({} vs {} rows)\n{q:?}",
            air.result.len(),
            hash.result.len()
        );
        // The reloaded engine runs identical code on identical bytes: exact.
        assert!(
            air.result.same_contents(&disk.result, 0.0),
            "query {i}: AIR vs reloaded-from-disk disagree\n{q:?}",
        );
        if !air.result.rows.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty > QUERIES / 2,
        "generator degenerated: only {nonempty}/{QUERIES} queries returned rows"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial differential: the morsel-driven executor (§5) must be
// observationally identical to the serial executor on every generated query
// and every thread count — and must *actually run in parallel*, which
// `PlanInfo::executor` proves (a silent serial fallback would make this
// suite vacuous).
// ---------------------------------------------------------------------------

#[test]
fn randomized_parallel_vs_serial_differential() {
    const QUERIES: usize = 200;
    // `ASTORE_TEST_THREADS` (comma-separated, each > 1) overrides the
    // sweep — CI's thread-matrix leg re-runs the differential at exactly
    // the matrix's thread count.
    let threads_sweep: Vec<usize> = std::env::var("ASTORE_TEST_THREADS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).filter(|&t| t > 1).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4, 8]);
    let db = ssb::generate(0.002, 0x9A7A11E1);

    // Force fan-out on the test-sized dataset (production's planner keeps
    // small scans serial; that clamp has its own tests) and use small
    // morsels so every thread count actually contends on the dispatcher.
    let par_opts = |threads: usize| {
        let mut o = ExecOptions::default().threads(threads).morsel_rows(1024);
        o.optimizer.parallel_min_rows_per_thread = 1;
        o.optimizer.host_threads = 64;
        o
    };

    let mut rng = SmallRng::seed_from_u64(0x5EED_D1FF);
    let mut nonempty = 0usize;
    for i in 0..QUERIES {
        let q = random_query(&mut rng);
        let serial = execute(&db, &q, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("query {i} failed serially: {e:?}\n{q:?}"));
        assert!(!serial.plan.executor.is_parallel());
        for &threads in &threads_sweep {
            let par = execute(&db, &q, &par_opts(threads))
                .unwrap_or_else(|e| panic!("query {i} failed at {threads} threads: {e:?}\n{q:?}"));
            // A fully-pruned scan (zone maps proved no segment can match)
            // legitimately stays serial; anything else must fan out.
            if par.plan.segments_scanned > 0 {
                assert!(
                    matches!(
                        par.plan.executor,
                        ExecutorInfo::Parallel { threads: t, .. } if t == threads
                    ),
                    "query {i}: expected {threads}-thread executor, got {}",
                    par.plan.executor
                );
            } else {
                assert_eq!(par.plan.selected_rows, 0, "query {i}: pruned scan selected rows");
            }
            // `same_contents` compares canonically sorted rows (order is
            // unspecified without ORDER BY); float eps covers the merge's
            // re-associated additions.
            assert!(
                par.result.same_contents(&serial.result, 1e-9),
                "query {i} at {threads} threads diverged from serial \
                 ({} vs {} rows)\n{q:?}",
                par.result.len(),
                serial.result.len()
            );
            assert_eq!(
                par.plan.selected_rows, serial.plan.selected_rows,
                "query {i} at {threads} threads selected a different row count\n{q:?}"
            );
            assert_eq!(par.plan.groups, serial.plan.groups, "query {i} group count\n{q:?}");
        }
        if !serial.result.rows.is_empty() {
            nonempty += 1;
        }
    }
    assert!(
        nonempty > QUERIES / 2,
        "generator degenerated: only {nonempty}/{QUERIES} queries returned rows"
    );
}

#[test]
fn parallel_matches_oracle_on_all_ssb_queries() {
    // The fixed 13-query SSB workload through the morsel executor, checked
    // against the naive reference evaluator directly.
    let db = ssb::generate(0.002, 99);
    let mut opts = ExecOptions::default().threads(4).morsel_rows(512);
    opts.optimizer.parallel_min_rows_per_thread = 1;
    opts.optimizer.host_threads = 64;
    for sq in ssb::queries() {
        let par = execute(&db, &sq.query, &opts).unwrap();
        assert!(
            par.plan.executor.is_parallel() || par.plan.segments_scanned == 0,
            "{}: fell back to serial with unpruned segments",
            sq.id
        );
        let oracle = reference_execute(&db, &sq.query);
        assert!(
            par.result.same_contents(&oracle, 1e-6),
            "{}: parallel engine disagrees with the naive oracle ({} vs {} rows)",
            sq.id,
            par.result.len(),
            oracle.len()
        );
    }
}

#[test]
fn engine_matches_oracle_on_min_max_avg() {
    let db = ssb::generate(0.002, 13);
    let q = Query::new()
        .root("lineorder")
        .filter("customer", Pred::eq("c_region", "ASIA"))
        .group("date", "d_year")
        .agg(Aggregate::min(MeasureExpr::col("lo_revenue"), "lo"))
        .agg(Aggregate::max(MeasureExpr::col("lo_revenue"), "hi"))
        .agg(Aggregate::avg(MeasureExpr::col("lo_revenue"), "avg"))
        .agg(Aggregate::count("n"));
    let engine = execute(&db, &q, &ExecOptions::default()).unwrap();
    let oracle = reference_execute(&db, &q);
    assert!(engine.result.same_contents(&oracle, 1e-6));
}
