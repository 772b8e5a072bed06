//! Quickstart: build a tiny star schema by hand, run a SQL query through
//! A-Store, and peek at what virtual denormalization does under the hood.
//!
//! Run with: `cargo run -p astore-examples --example quickstart`

use astore_core::prelude::*;
use astore_sql::run_sql;
use astore_storage::prelude::*;

fn main() {
    // --- 1. Dimension tables. The array index IS the primary key: no key
    //        column is ever stored.
    let mut date = Table::new(
        "date",
        Schema::new(vec![
            ColumnDef::new("d_year", DataType::I32),
            ColumnDef::new("d_month", DataType::Dict),
        ]),
    );
    for (y, m) in [(1997, "April"), (1997, "May"), (1998, "May")] {
        date.append_row(&[Value::Int(i64::from(y)), Value::Str(m.into())]);
    }

    let mut customer = Table::new(
        "customer",
        Schema::new(vec![
            ColumnDef::new("c_name", DataType::Str),
            ColumnDef::new("c_region", DataType::Dict),
        ]),
    );
    for (n, r) in [("Alice", "ASIA"), ("Bob", "EUROPE"), ("Carol", "ASIA")] {
        customer.append_row(&[Value::Str(n.into()), Value::Str(r.into())]);
    }

    // --- 2. The fact table. Foreign keys are ARRAY INDEX REFERENCES (AIR):
    //        plain positions into the dimension arrays.
    let mut lineorder = Table::new(
        "lineorder",
        Schema::new(vec![
            ColumnDef::new("lo_custkey", DataType::Key { target: "customer".into() }),
            ColumnDef::new("lo_datekey", DataType::Key { target: "date".into() }),
            ColumnDef::new("lo_revenue", DataType::I64),
        ]),
    );
    for (c, d, rev) in [(0u32, 0u32, 100i64), (1, 1, 200), (2, 2, 300), (0, 1, 400), (2, 0, 500)] {
        lineorder.append_row(&[Value::Key(c), Value::Key(d), Value::Int(rev)]);
    }

    let mut db = Database::new();
    db.add_table(date);
    db.add_table(customer);
    db.add_table(lineorder);
    assert!(db.validate_references().is_empty());

    // --- 3. The schema's join graph: lineorder is the root, every
    //        dimension is reachable through an AIR chain.
    let graph = db.graph();
    println!("join graph roots: {:?}", graph.roots());
    for leaf in graph.leaves_of("lineorder") {
        let path = graph.path("lineorder", leaf).unwrap();
        let cols: Vec<&str> = path.steps.iter().map(|s| s.key_column.as_str()).collect();
        println!("  lineorder -> {leaf} via {cols:?}");
    }

    // --- 4. Run SQL. The join conditions are validated against the AIR
    //        edges and then dropped: execution is a scan of the virtual
    //        universal table, never a join.
    let sql = "SELECT c_region, d_year, sum(lo_revenue) AS revenue \
               FROM lineorder, customer, date \
               WHERE lo_custkey = c_custkey AND lo_datekey = d_datekey \
                 AND c_region = 'ASIA' \
               GROUP BY c_region, d_year \
               ORDER BY d_year ASC";
    let out = run_sql(sql, &db, &ExecOptions::default()).expect("query runs");
    println!("\n{sql}\n");
    println!("{}", out.result.to_table_string());
    println!(
        "plan: root={} predicate-vector chains={} agg={:?} selected={} groups={}",
        out.plan.root,
        out.plan.predvec_chains,
        out.plan.agg_strategy,
        out.plan.selected_rows,
        out.plan.groups
    );

    // --- 5. The same query through the programmatic builder API.
    let q = Query::new()
        .filter("customer", Pred::eq("c_region", "ASIA"))
        .group("customer", "c_region")
        .group("date", "d_year")
        .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "revenue"))
        .order(OrderKey::asc("d_year"));
    let out2 = execute(&db, &q, &ExecOptions::default()).expect("query runs");
    assert!(out.result.same_contents(&out2.result, 1e-9));
    println!("builder API produced identical results ✓");
}
