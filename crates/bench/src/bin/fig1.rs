//! **Fig. 1**: "Denormalization versus normal MMDBs on SSB" — the paper's
//! motivating chart. Average SSB execution time for each engine family,
//! normalized and denormalized.
//!
//! This is the summary view of Table 5 (run `table5` for the per-query
//! breakdown). Engine mapping is described in `table5.rs` and DESIGN.md.

use astore_baseline::denorm::denormalize;
use astore_baseline::engine::execute_hash_pipeline;
use astore_bench::{banner, ms, time_best_of};
use astore_core::prelude::*;
use astore_datagen::{env_scale_factor, env_threads, ssb};

fn main() {
    let sf = env_scale_factor(0.02);
    let threads = env_threads();
    banner("Fig 1", "denormalization versus normal engines on SSB (paper §1)", sf, threads);

    let db = ssb::generate(sf, 42);
    let (took, wide) =
        time_best_of(1, || denormalize(&db, Some("lineorder")).expect("denormalization succeeds"));
    let facts = db.table("lineorder").map_or(0, |t| t.num_slots());
    println!(
        "denormalize: {:.1} ms for {facts} fact rows ({:.1} ns per row)\n",
        ms(took),
        took.as_nanos() as f64 / facts.max(1) as f64
    );

    let serial = ExecOptions::default();
    let parallel = ExecOptions::default().threads(threads);
    let queries = ssb::queries();

    let mut totals: Vec<(&str, f64)> = Vec::new();
    type EngineFn<'a> = Box<dyn Fn(&ssb::SsbQuery) -> f64 + 'a>;
    let engines: Vec<(&str, EngineFn<'_>)> = vec![
        (
            "hash-join engine (normalized)",
            Box::new(|sq: &ssb::SsbQuery| {
                ms(time_best_of(3, || execute_hash_pipeline(&db, &sq.query).unwrap()).0)
            }),
        ),
        (
            "hash-join engine (denormalized)",
            Box::new(|sq: &ssb::SsbQuery| {
                let wq = wide.rewrite(&sq.query, "lineorder");
                ms(time_best_of(3, || execute_hash_pipeline(&wide.db, &wq).unwrap()).0)
            }),
        ),
        (
            "hand-coded denormalization",
            Box::new(|sq: &ssb::SsbQuery| {
                let wq = wide.rewrite(&sq.query, "lineorder");
                ms(time_best_of(3, || execute(&wide.db, &wq, &serial).unwrap()).0)
            }),
        ),
        (
            "A-Store (virtual denormalization)",
            Box::new(|sq: &ssb::SsbQuery| {
                ms(time_best_of(3, || execute(&db, &sq.query, &serial).unwrap()).0)
            }),
        ),
        (
            "A-Store (parallel)",
            Box::new(|sq: &ssb::SsbQuery| {
                ms(time_best_of(3, || execute(&db, &sq.query, &parallel).unwrap()).0)
            }),
        ),
    ];

    for (name, run) in &engines {
        let total: f64 = queries.iter().map(run).sum();
        totals.push((name, total / queries.len() as f64));
    }

    println!("average SSB query time (13 queries):\n");
    let max = totals.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
    for (name, avg) in &totals {
        let bar = "#".repeat(((avg / max) * 50.0).round() as usize);
        println!("{name:>34}: {avg:>8.2}ms {bar}");
    }
    println!(
        "\npaper's Fig. 1 shape: every engine speeds up when denormalized\n\
         (except MonetDB); the hand-coded denormalized scan is fastest;\n\
         A-Store (virtual denormalization) lands next to it without the\n\
         {:.1}x space cost.",
        wide.approx_bytes() as f64 / db.approx_bytes() as f64
    );
}
