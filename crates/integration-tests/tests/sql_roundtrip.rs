//! SQL front-end round-trips: the SSB queries written as SQL text must
//! plan and execute to the same results as the hand-built query catalog.

use astore_core::prelude::*;
use astore_datagen::ssb;
use astore_sql::run_sql;

fn sql_texts() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "Q1.1",
            "SELECT sum(lo_extendedprice * lo_discount) AS revenue \
             FROM lineorder, date \
             WHERE lo_orderdate = d_datekey AND d_year = 1993 \
               AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25",
        ),
        (
            "Q2.1",
            "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue \
             FROM lineorder, date, part, supplier \
             WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey \
               AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12' \
               AND s_region = 'AMERICA' \
             GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
        ),
        (
            "Q3.1",
            "SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue \
             FROM customer, lineorder, supplier, date \
             WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
               AND lo_orderdate = d_datekey AND c_region = 'ASIA' \
               AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997 \
             GROUP BY c_nation, s_nation, d_year \
             ORDER BY d_year ASC, revenue DESC",
        ),
        (
            "Q4.1",
            "SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit \
             FROM date, customer, supplier, part, lineorder \
             WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
               AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
               AND c_region = 'AMERICA' AND s_region = 'AMERICA' \
               AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2') \
             GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
        ),
        (
            "Q3.4",
            "SELECT c_city, s_city, d_year, sum(lo_revenue) AS revenue \
             FROM customer, lineorder, supplier, date \
             WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
               AND lo_orderdate = d_datekey \
               AND c_city IN ('UNITED KI1', 'UNITED KI5') \
               AND s_city IN ('UNITED KI1', 'UNITED KI5') \
               AND d_yearmonth = 'Dec1997' \
             GROUP BY c_city, s_city, d_year \
             ORDER BY d_year ASC, revenue DESC",
        ),
    ]
}

#[test]
fn sql_matches_catalog_queries() {
    let db = ssb::generate(0.004, 42);
    let catalog = ssb::queries();
    for (id, sql) in sql_texts() {
        let sql_out = run_sql(sql, &db, &ExecOptions::default())
            .unwrap_or_else(|e| panic!("{id}: SQL failed: {e}"));
        let cat = catalog.iter().find(|q| q.id == id).unwrap();
        let cat_out = execute(&db, &cat.query, &ExecOptions::default()).unwrap();
        assert!(
            sql_out.result.same_contents(&cat_out.result, 1e-6),
            "{id}: SQL and catalog results differ\nsql:  {:?}\ncat:  {:?}",
            sql_out.result.rows.iter().take(3).collect::<Vec<_>>(),
            cat_out.result.rows.iter().take(3).collect::<Vec<_>>()
        );
    }
}

#[test]
fn sql_order_by_and_limit_apply() {
    let db = ssb::generate(0.002, 42);
    let out = run_sql(
        "SELECT d_year, sum(lo_revenue) AS revenue FROM lineorder, date \
         WHERE lo_orderdate = d_datekey GROUP BY d_year \
         ORDER BY revenue DESC LIMIT 3",
        &db,
        &ExecOptions::default(),
    )
    .unwrap();
    assert_eq!(out.result.len(), 3);
    let revs: Vec<f64> = out
        .result
        .rows
        .iter()
        .map(|r| match &r[1] {
            astore_storage::types::Value::Float(f) => *f,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert!(revs.windows(2).all(|w| w[0] >= w[1]), "not descending: {revs:?}");
}

#[test]
fn sql_runs_on_parallel_engine() {
    let db = ssb::generate(0.002, 42);
    let serial = run_sql(
        "SELECT c_region, count(*) AS n FROM lineorder, customer \
         WHERE lo_custkey = c_custkey GROUP BY c_region",
        &db,
        &ExecOptions::default(),
    )
    .unwrap();
    // Forced fan-out: SF 0.002 is below the default planner threshold, and
    // the point of this test is the *parallel* engine behind SQL.
    let mut popts = ExecOptions::default().threads(4);
    popts.optimizer.parallel_min_rows_per_thread = 1;
    popts.optimizer.host_threads = 64;
    let parallel = run_sql(
        "SELECT c_region, count(*) AS n FROM lineorder, customer \
         WHERE lo_custkey = c_custkey GROUP BY c_region",
        &db,
        &popts,
    )
    .unwrap();
    assert!(parallel.plan.executor.is_parallel());
    assert!(serial.result.same_contents(&parallel.result, 1e-9));
    assert_eq!(serial.result.len(), 5);
}

#[test]
fn sql_rejects_unsupported_shapes() {
    let db = ssb::generate(0.001, 42);
    // Self-join-ish / non-FK join.
    assert!(run_sql(
        "SELECT count(*) FROM customer, supplier WHERE c_nation = s_nation",
        &db,
        &ExecOptions::default()
    )
    .is_err());
    // Pure projection.
    assert!(run_sql("SELECT c_name FROM customer", &db, &ExecOptions::default()).is_err());
}

/// A literal that does not fit its column is a typed plan error on every
/// path into the engine — the served text path, prepare/execute, and the
/// embedded connection (the CLI's local mode) — never a panic.
#[test]
fn ill_typed_literals_are_plan_errors() {
    use astore_api::{AstoreError, Connection, EmbeddedConnection};
    use astore_server::json::Json;
    use astore_server::{Engine, StatementRegistry};
    use astore_storage::prelude::*;
    use astore_storage::snapshot::SharedDatabase;
    use std::sync::Arc;

    let mut db = Database::new();
    let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_name", DataType::Dict)]));
    dim.append_row(&[Value::Str("alpha".into())]);
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
            ColumnDef::new("f_x", DataType::F64),
            ColumnDef::new("f_i", DataType::I32),
        ]),
    );
    fact.append_row(&[Value::Key(0), Value::Float(1.0), Value::Int(1)]);
    db.add_table(dim);
    db.add_table(fact);
    let engine = Arc::new(Engine::new(SharedDatabase::new(db)));
    let mut embedded = EmbeddedConnection::over(Arc::clone(&engine));

    for stmt in [
        "SELECT count(*) AS n FROM fact WHERE f_x IN (1.0, 2.0)",
        "SELECT count(*) AS n FROM fact WHERE f_dim IN (0, 1)",
        "SELECT count(*) AS n FROM fact, dim WHERE d_name = 5",
        "SELECT count(*) AS n FROM fact WHERE f_i = 'abc'",
    ] {
        let mut session = StatementRegistry::default();
        let mut frame = |req: Json| engine.handle_line_session(&req.to_string(), &mut session);
        let text = frame(Json::obj([("sql", Json::Str(stmt.into()))]));
        assert_eq!(text.get("code").and_then(Json::as_str), Some("plan_error"), "{stmt}: {text}");
        let prepared = frame(Json::obj([("prepare", Json::Str(stmt.into()))]));
        if let Some(id) = prepared.get("stmt_id").and_then(Json::as_i64) {
            let execute = Json::obj([(
                "execute",
                Json::obj([("id", Json::Int(id)), ("params", Json::Array(vec![]))]),
            )]);
            panic!("{stmt}: prepared as {id}, executed as {}", frame(execute));
        }
        assert_eq!(prepared.get("code").and_then(Json::as_str), Some("plan_error"), "{stmt}");
        match embedded.query(stmt, &[]) {
            Err(e @ AstoreError::Plan { .. }) => assert_eq!(e.code(), "plan_error"),
            other => panic!("{stmt}: embedded query gave {other:?}"),
        }
    }
}
