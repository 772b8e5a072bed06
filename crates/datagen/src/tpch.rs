//! A TPC-H subset: the snowflake chain the paper uses for its Q3 example
//! (Fig. 3) and the §6.1 join micro-benchmarks.
//!
//! Tables: `region(5) <- nation(25) <- customer <- orders <- lineitem`,
//! plus `part` and `supplier` referenced by `lineitem`. Cardinalities
//! follow TPC-H: `lineitem ≈ 6M × SF`, `orders = 1.5M × SF`,
//! `customer = 150k × SF`, `supplier = 10k × SF`, `part = 200k × SF`.
//! The snowflake makes `orders` a *large first-level dimension* — the case
//! where the paper's optimizer declines to build a predicate vector and
//! probes directly (§4.2).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use astore_core::expr::{CmpOp, MeasureExpr, Pred};
use astore_core::query::{Aggregate, OrderKey, Query};
use astore_storage::column::Column;
use astore_storage::dictionary::{DictBuilder, DictColumn};
use astore_storage::prelude::*;

use crate::ssb::NATIONS;

/// Row counts at a scale factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchSizes {
    /// `lineitem` rows (≈ 6M × SF; exact count depends on order fan-out).
    pub lineitem: usize,
    /// `orders` rows.
    pub orders: usize,
    /// `customer` rows.
    pub customer: usize,
    /// `supplier` rows.
    pub supplier: usize,
    /// `part` rows.
    pub part: usize,
}

impl TpchSizes {
    /// Sizes at scale factor `sf`.
    pub fn at(sf: f64) -> Self {
        assert!(sf > 0.0, "scale factor must be positive");
        TpchSizes {
            lineitem: ((6_000_000.0 * sf) as usize).max(1),
            orders: ((1_500_000.0 * sf) as usize).max(100),
            customer: ((150_000.0 * sf) as usize).max(50),
            supplier: ((10_000.0 * sf) as usize).max(25),
            part: ((200_000.0 * sf) as usize).max(50),
        }
    }
}

/// Generates the TPC-H subset at scale factor `sf`.
pub fn generate(sf: f64, seed: u64) -> Database {
    let sizes = TpchSizes::at(sf);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut db = Database::new();

    // region
    let regions: Vec<&str> = {
        let mut r: Vec<&str> = NATIONS.iter().map(|(_, r)| *r).collect();
        r.sort_unstable();
        r.dedup();
        r
    };
    let region = Table::from_columns(
        "region",
        Schema::new(vec![ColumnDef::new("r_name", DataType::Dict)]),
        vec![Column::Dict(DictColumn::from_values(regions.clone()))],
    );
    db.add_table(region);

    // nation -> region
    let mut n_name = DictBuilder::new();
    let mut n_regionkey = Vec::new();
    for (nat, reg) in NATIONS {
        n_name.push(nat);
        n_regionkey.push(regions.iter().position(|r| *r == reg).unwrap() as Key);
    }
    let nation = Table::from_columns(
        "nation",
        Schema::new(vec![
            ColumnDef::new("n_name", DataType::Dict),
            ColumnDef::new("n_regionkey", DataType::Key { target: "region".into() }),
        ]),
        vec![
            Column::Dict(n_name.finish()),
            Column::Key { target: "region".into(), keys: n_regionkey.into() },
        ],
    );
    db.add_table(nation);

    // customer -> nation
    let mut c_nationkey = Vec::with_capacity(sizes.customer);
    let mut c_acctbal = Vec::with_capacity(sizes.customer);
    let mut c_mktsegment = DictBuilder::new();
    const SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];
    for _ in 0..sizes.customer {
        c_nationkey.push(rng.gen_range(0..25u32));
        c_acctbal.push(rng.gen_range(-999.99..9999.99));
        c_mktsegment.push(SEGMENTS[rng.gen_range(0..SEGMENTS.len())]);
    }
    let customer = Table::from_columns(
        "customer",
        Schema::new(vec![
            ColumnDef::new("c_nationkey", DataType::Key { target: "nation".into() }),
            ColumnDef::new("c_acctbal", DataType::F64),
            ColumnDef::new("c_mktsegment", DataType::Dict),
        ]),
        vec![
            Column::Key { target: "nation".into(), keys: c_nationkey.into() },
            Column::F64(c_acctbal.into()),
            Column::Dict(c_mktsegment.finish()),
        ],
    );
    db.add_table(customer);

    // orders -> customer. The two large tables fill sealing builders: each
    // column chunk is encoded as it completes, never a whole flat column.
    let mut o_custkey = ChunkedBuilder::new().sealing();
    let mut o_price = ChunkedBuilder::new().sealing();
    let mut o_orderdate = ChunkedBuilder::new().sealing();
    for _ in 0..sizes.orders {
        o_custkey.push(rng.gen_range(0..sizes.customer as u32));
        o_price.push(rng.gen_range(100..500_000i64));
        o_orderdate.push(rng.gen_range(19_920_101..19_981_231i32));
    }
    let orders = Table::from_columns(
        "orders",
        Schema::new(vec![
            ColumnDef::new("o_custkey", DataType::Key { target: "customer".into() }),
            ColumnDef::new("o_price", DataType::I64),
            ColumnDef::new("o_orderdate", DataType::I32),
        ]),
        vec![
            Column::Key { target: "customer".into(), keys: o_custkey.finish() },
            Column::I64(o_price.finish()),
            Column::I32(o_orderdate.finish()),
        ],
    );
    db.add_table(orders);

    // supplier, part. Note: no supplier -> nation edge. The paper's Fig. 3
    // snowflake routes nation/region through the customer chain only; a
    // second edge would form a diamond and make "nation" ambiguous (the
    // join graph resolves reference paths by shortest AIR chain).
    let mut s_acctbal = Vec::with_capacity(sizes.supplier);
    let mut s_rating = Vec::with_capacity(sizes.supplier);
    for _ in 0..sizes.supplier {
        s_acctbal.push(rng.gen_range(-999.99..9999.99));
        s_rating.push(rng.gen_range(0..100i32));
    }
    let supplier = Table::from_columns(
        "supplier",
        Schema::new(vec![
            ColumnDef::new("s_acctbal", DataType::F64),
            ColumnDef::new("s_rating", DataType::I32),
        ]),
        vec![Column::F64(s_acctbal.into()), Column::I32(s_rating.into())],
    );
    db.add_table(supplier);

    let mut p_size = Vec::with_capacity(sizes.part);
    let mut p_retail = Vec::with_capacity(sizes.part);
    for _ in 0..sizes.part {
        p_size.push(rng.gen_range(1..=50i32));
        p_retail.push(rng.gen_range(900..2_000i64));
    }
    let part = Table::from_columns(
        "part",
        Schema::new(vec![
            ColumnDef::new("p_size", DataType::I32),
            ColumnDef::new("p_retailprice", DataType::I64),
        ]),
        vec![Column::I32(p_size.into()), Column::I64(p_retail.into())],
    );
    db.add_table(part);

    // lineitem -> {orders, part, supplier}
    let n = sizes.lineitem;
    let mut l_orderkey = ChunkedBuilder::new().sealing();
    let mut l_partkey = ChunkedBuilder::new().sealing();
    let mut l_suppkey = ChunkedBuilder::new().sealing();
    let mut l_quantity = ChunkedBuilder::new().sealing();
    let mut l_extendedprice = ChunkedBuilder::new();
    let mut l_discount = ChunkedBuilder::new();
    let mut l_tax = ChunkedBuilder::new();
    for _ in 0..n {
        l_orderkey.push(rng.gen_range(0..sizes.orders as u32));
        l_partkey.push(rng.gen_range(0..sizes.part as u32));
        l_suppkey.push(rng.gen_range(0..sizes.supplier as u32));
        l_quantity.push(rng.gen_range(1..=50i32));
        l_extendedprice.push(rng.gen_range(900.0..100_000.0f64));
        l_discount.push(rng.gen_range(0.0..=0.10f64));
        l_tax.push(rng.gen_range(0.0..=0.08f64));
    }
    let lineitem = Table::from_columns(
        "lineitem",
        Schema::new(vec![
            ColumnDef::new("l_orderkey", DataType::Key { target: "orders".into() }),
            ColumnDef::new("l_partkey", DataType::Key { target: "part".into() }),
            ColumnDef::new("l_suppkey", DataType::Key { target: "supplier".into() }),
            ColumnDef::new("l_quantity", DataType::I32),
            ColumnDef::new("l_extendedprice", DataType::F64),
            ColumnDef::new("l_discount", DataType::F64),
            ColumnDef::new("l_tax", DataType::F64),
        ]),
        vec![
            Column::Key { target: "orders".into(), keys: l_orderkey.finish() },
            Column::Key { target: "part".into(), keys: l_partkey.finish() },
            Column::Key { target: "supplier".into(), keys: l_suppkey.finish() },
            Column::I32(l_quantity.finish()),
            Column::F64(l_extendedprice.finish()),
            Column::F64(l_discount.finish()),
            Column::F64(l_tax.finish()),
        ],
    );
    db.add_table(lineitem);
    // Arrive sealed, like `ssb::generate`: what the builders left flat (the
    // small tables, the partial tail segments) is encoded here.
    for name in db.table_names().to_vec() {
        db.table_mut(&name).expect("listed table exists").seal_segments();
    }
    db
}

/// The paper's adapted TPC-H Q3 (its snowflake example, Fig. 3):
///
/// ```sql
/// SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
/// FROM customer, lineitem, orders, nation, region
/// WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
///   AND c_nationkey = n_nationkey AND n_regionkey = r_regionkey
///   AND r_name = 'ASIA' AND o_price >= 800
/// GROUP BY n_name ORDER BY revenue DESC;
/// ```
pub fn paper_q3() -> Query {
    Query::new()
        .root("lineitem")
        .filter("region", Pred::eq("r_name", "ASIA"))
        .filter("orders", Pred::cmp("o_price", CmpOp::Ge, 800))
        .group("nation", "n_name")
        .agg(Aggregate::sum(
            MeasureExpr::Mul(
                Box::new(MeasureExpr::col("l_extendedprice")),
                Box::new(MeasureExpr::Sub(
                    Box::new(MeasureExpr::Const(1.0)),
                    Box::new(MeasureExpr::col("l_discount")),
                )),
            ),
            "revenue",
        ))
        .order(OrderKey::desc("revenue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};

    #[test]
    fn sizes_scale() {
        let s = TpchSizes::at(0.01);
        assert_eq!(s.lineitem, 60_000);
        assert_eq!(s.orders, 15_000);
        assert_eq!(s.customer, 1_500);
    }

    #[test]
    fn schema_forms_the_paper_snowflake() {
        let db = generate(0.001, 1);
        assert!(db.validate_references().is_empty());
        let g = db.graph();
        assert_eq!(g.roots(), &["lineitem".to_string()]);
        let p = g.path("lineitem", "region").unwrap();
        let chain: Vec<&str> = p.steps.iter().map(|s| s.to_table.as_str()).collect();
        assert_eq!(chain, vec!["orders", "customer", "nation", "region"]);
    }

    #[test]
    fn paper_q3_runs_and_groups_by_asian_nations() {
        let db = generate(0.002, 11);
        let out = execute(&db, &paper_q3(), &ExecOptions::default()).unwrap();
        assert!(!out.result.is_empty());
        assert!(out.result.rows.len() <= 5, "at most the 5 ASIA nations");
        // Revenue-descending order.
        let revs: Vec<f64> = out
            .result
            .rows
            .iter()
            .map(|r| match &r[1] {
                Value::Float(f) => *f,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!(revs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn orders_is_a_large_first_level_dimension() {
        let db = generate(0.01, 3);
        let orders = db.table("orders").unwrap().num_slots();
        let customers = db.table("customer").unwrap().num_slots();
        assert!(orders == 10 * customers);
    }

    #[test]
    fn deterministic() {
        let a = generate(0.001, 5);
        let b = generate(0.001, 5);
        assert_eq!(
            a.table("lineitem").unwrap().column("l_orderkey").unwrap().as_key().unwrap().1,
            b.table("lineitem").unwrap().column("l_orderkey").unwrap().as_key().unwrap().1
        );
    }
}
