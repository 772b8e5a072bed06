//! Criterion benches for §4.3: array-based column-wise aggregation vs hash
//! aggregation, on the engine and on raw kernels.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use astore_baseline::hashagg::{array_group_pair_i32, hash_group_pair_i32};
use astore_core::optimizer::AggStrategy;
use astore_core::prelude::*;
use astore_datagen::ssb;

fn bench_aggregation(c: &mut Criterion) {
    let db = ssb::generate(0.01, 42);
    let lo = db.table("lineorder").unwrap();
    let n = lo.num_slots();

    // The paper's §6.1.3 grouping query: 99 groups.
    let q = Query::new()
        .root("lineorder")
        .group("lineorder", "lo_discount")
        .group("lineorder", "lo_tax")
        .agg(Aggregate::count("n"))
        .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "rev"));

    let mut g = c.benchmark_group("engine_groupby_99_groups");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("array", |b| {
        let opts = ExecOptions { force_agg: Some(AggStrategy::DenseArray), ..Default::default() };
        b.iter(|| execute(&db, &q, &opts).unwrap())
    });
    g.bench_function("hash", |b| {
        let opts = ExecOptions { force_agg: Some(AggStrategy::HashTable), ..Default::default() };
        b.iter(|| execute(&db, &q, &opts).unwrap())
    });
    g.finish();

    // Flat copies: the raw kernels are flat-array microbenchmarks.
    let disc = &lo.column("lo_discount").unwrap().as_i32().unwrap().to_vec();
    let tax = &lo.column("lo_tax").unwrap().as_i32().unwrap().to_vec();
    let rev = &lo.column("lo_revenue").unwrap().as_i64().unwrap().to_vec();
    let mut g = c.benchmark_group("raw_groupby_kernels");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("array", |b| {
        b.iter(|| array_group_pair_i32(black_box(disc), black_box(tax), black_box(rev)))
    });
    g.bench_function("hash", |b| {
        b.iter(|| hash_group_pair_i32(black_box(disc), black_box(tax), black_box(rev)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_aggregation
}
criterion_main!(benches);
