//! Snowflake schemas: the paper's Fig. 3 / Q3 example on a TPC-H subset.
//!
//! The reference chain `lineitem -> orders -> customer -> nation -> region`
//! is four AIR hops deep, and `orders` is fact-sized — the case where
//! A-Store's optimizer composes predicate filters recursively down the
//! chain (§4.2) and where filter-vs-direct-probe decisions matter.
//!
//! Run with: `cargo run -p astore-examples --example snowflake_tpch --release`

use std::time::Instant;

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::optimizer::OptimizerConfig;
use astore_core::prelude::*;
use astore_datagen::{env_scale_factor, tpch};

fn main() {
    let sf = env_scale_factor(0.02);
    println!("generating TPC-H subset at SF={sf} …");
    let db = tpch::generate(sf, 7);
    println!("snowflake chain from lineitem to region:");
    let path = db.graph().path("lineitem", "region").unwrap();
    for step in &path.steps {
        println!("  {} --[{}]--> {}", step.from_table, step.key_column, step.to_table);
    }

    let q = tpch::paper_q3();
    println!("\npaper Q3: ASIA revenue by nation, orders with price >= 800\n");

    // Default optimizer: predicate vectors for every chain that fits.
    let t = Instant::now();
    let with_filters = execute(&db, &q, &ExecOptions::default()).unwrap();
    let with_ms = t.elapsed().as_secs_f64() * 1e3;

    // Starved cache budget: the optimizer declines the (orders-sized)
    // filter and probes the chain directly — the paper's §4.2 fallback.
    let starved = ExecOptions {
        optimizer: OptimizerConfig { cache_budget_bytes: 64, ..Default::default() },
        ..Default::default()
    };
    let t = Instant::now();
    let no_filters = execute(&db, &q, &starved).unwrap();
    let no_ms = t.elapsed().as_secs_f64() * 1e3;

    // Hash-join baseline.
    let t = Instant::now();
    let hash = execute_hash_pipeline(&db, &q).unwrap();
    let hash_ms = t.elapsed().as_secs_f64() * 1e3;

    assert!(with_filters.result.same_contents(&no_filters.result, 1e-9));
    assert!(with_filters.result.same_contents(&hash.result, 1e-9));

    println!("{}", with_filters.result.to_table_string());
    println!(
        "A-Store with predicate vectors : {with_ms:>8.2} ms ({} chains vectorized)",
        with_filters.plan.predvec_chains
    );
    println!(
        "A-Store direct chain probing   : {no_ms:>8.2} ms ({} chains probed)",
        no_filters.plan.direct_chains
    );
    println!("hash-join pipeline baseline    : {hash_ms:>8.2} ms");
    println!(
        "\nselected {} of {} lineitem rows into {} groups",
        with_filters.plan.selected_rows,
        db.table("lineitem").unwrap().num_slots(),
        with_filters.plan.groups
    );
}
