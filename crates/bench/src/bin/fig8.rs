//! **Fig. 8**: FK-PK column joins on SSB and TPC-H — `select count(*) from
//! A, B where A.fk = B.pk` — comparing AIR against NPO, PRO and sort-merge.
//!
//! The paper additionally ran MonetDB/Vectorwise/Hyper on these queries;
//! here the hand-coded kernels stand in for the systems (the paper itself
//! found "Hyper has similar performance as the hand-code join algorithms").
//! Target shape: sort-merge slowest, NPO competitive on small dimensions,
//! AIR fastest everywhere and widening its lead on large dimensions.

use astore_baseline::npo::npo_join_sum;
use astore_baseline::pro::{pro_join_sum, RadixConfig};
use astore_baseline::sortmerge::sortmerge_join_sum;
use astore_bench::{banner, black_box, ms, time_best_of, TablePrinter};
use astore_core::air_join::air_join_sum;
use astore_datagen::{env_scale_factor, env_threads, ssb, tpch};
use astore_storage::catalog::Database;
use astore_storage::types::Key;

/// The key column as one flat array (the join kernels are flat-array
/// microbenchmarks; tables store columns in per-segment chunks).
fn key_col(db: &Database, table: &str, col: &str) -> Vec<Key> {
    db.table(table).unwrap().column(col).unwrap().as_key().expect("key column").1.to_vec()
}

fn main() {
    let sf = env_scale_factor(0.05);
    banner(
        "Fig 8",
        "foreign key-primary key column joins, SSB & TPC-H (paper §6.1.2)",
        sf,
        env_threads(),
    );

    let db = ssb::generate(sf, 42);
    let db_h = tpch::generate(sf, 43);

    let cases: Vec<(String, &Database, &str, &str, &str)> = vec![
        ("SSB lineorder \u{22C8} date".into(), &db, "lineorder", "lo_orderdate", "date"),
        ("SSB lineorder \u{22C8} supplier".into(), &db, "lineorder", "lo_suppkey", "supplier"),
        ("SSB lineorder \u{22C8} part".into(), &db, "lineorder", "lo_partkey", "part"),
        ("SSB lineorder \u{22C8} customer".into(), &db, "lineorder", "lo_custkey", "customer"),
        ("TPCH lineitem \u{22C8} supplier".into(), &db_h, "lineitem", "l_suppkey", "supplier"),
        ("TPCH lineitem \u{22C8} part".into(), &db_h, "lineitem", "l_partkey", "part"),
        ("TPCH orders \u{22C8} customer".into(), &db_h, "orders", "o_custkey", "customer"),
        ("TPCH lineitem \u{22C8} orders".into(), &db_h, "lineitem", "l_orderkey", "orders"),
    ];

    let mut t =
        TablePrinter::new(&["join (count query)", "rows", "sort-merge", "NPO", "PRO", "AIR"]);
    for (label, dbx, fact, col, dim) in cases {
        let probe = &key_col(dbx, fact, col)[..];
        let dim_rows = dbx.table(dim).unwrap().num_slots();
        let payload: Vec<i64> = (0..dim_rows as i64).collect();
        let build_keys: Vec<u32> = (0..dim_rows as u32).collect();

        let (d_sm, r_sm) = time_best_of(3, || {
            sortmerge_join_sum(black_box(&build_keys), black_box(&payload), black_box(probe))
        });
        let (d_npo, r_npo) = time_best_of(3, || {
            npo_join_sum(black_box(&build_keys), black_box(&payload), black_box(probe))
        });
        let (d_pro, r_pro) = time_best_of(3, || {
            pro_join_sum(
                black_box(&build_keys),
                black_box(&payload),
                black_box(probe),
                RadixConfig::default(),
            )
        });
        let (d_air, r_air) =
            time_best_of(3, || air_join_sum(black_box(probe), black_box(&payload)));
        assert_eq!(r_sm, r_air);
        assert_eq!(r_npo, r_air);
        assert_eq!(r_pro, r_air);

        t.row(vec![
            label,
            probe.len().to_string(),
            format!("{:.1}ms", ms(d_sm)),
            format!("{:.1}ms", ms(d_npo)),
            format!("{:.1}ms", ms(d_pro)),
            format!("{:.1}ms", ms(d_air)),
        ]);
    }
    t.print();
    println!(
        "\npaper: AIR matched NPO on small dimensions (date, supplier) and was\n\
         'much more efficient than the others' on large ones (customer, orders)."
    );
}
