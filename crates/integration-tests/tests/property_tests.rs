//! Seeded property tests: on randomly generated star schemas with random
//! predicates, deletes, groupings and segment sizes, every execution
//! strategy must agree with every other — the AIR engine is cross-checked
//! against itself (all variants, serial and parallel, dense and hash
//! aggregation, zone-map pruning on and off) and against the hash-join
//! pipeline engine. Every property runs [`CASES`] cases on each seed of
//! [`SEEDS`].

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::optimizer::AggStrategy;
use astore_core::prelude::*;
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const CASES: usize = 8;

/// A generated star schema instance plus a query over it.
#[derive(Debug, Clone)]
struct Case {
    dim_a_rows: Vec<(i32, String)>,  // (a_flag, a_cat ∈ {c0..c3})
    dim_b_rows: Vec<i32>,            // b_val
    fact: Vec<(u32, u32, i64, i32)>, // (fk_a, fk_b possibly NULL, measure, tag)
    segment_rows: usize,
    pred_flag_max: i32,
    /// `None`: no test on `dim_b`, so a NULL `f_b` fails no chain.
    pred_bval_min: Option<i32>,
    /// A fact-local conjunct: none, `f_b >= k` (NULL keys are the largest
    /// and pass it) or `f_m BETWEEN lo AND hi`.
    fact_pred: Option<Pred>,
    group_on_cat: bool,
    group_on_tag: bool,
    deletes: Vec<(u8, u32)>, // (table selector, row)
}

/// `len` values drawn by `item`.
fn vec_of<T>(
    rng: &mut SmallRng,
    len: std::ops::Range<usize>,
    mut item: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let n = rng.gen_range(len);
    (0..n).map(|_| item(rng)).collect()
}

fn case(rng: &mut SmallRng) -> Case {
    let dim_a_rows =
        vec_of(rng, 1..24, |rng| (rng.gen_range(0..4i32), format!("c{}", rng.gen_range(0..4u32))));
    let dim_b_rows = vec_of(rng, 1..16, |rng| rng.gen_range(-10..10i32));
    let (na, nb) = (dim_a_rows.len() as u32, dim_b_rows.len() as u32);
    // Mostly-NULL foreign keys leave whole segments without a key.
    let null_share = [0.5, 0.9][rng.gen_range(0..2usize)];
    let fact = vec_of(rng, 0..200, |rng| {
        let b = if rng.gen_bool(null_share) { NULL_KEY } else { rng.gen_range(0..nb) };
        (rng.gen_range(0..na), b, rng.gen_range(-100..100i64), rng.gen_range(0..3i32))
    });
    let segment_rows = [8, 32, SEGMENT_ROWS][rng.gen_range(0..3usize)];
    let pred_flag_max = rng.gen_range(0..5i32);
    let pred_bval_min = rng.gen_bool(0.75).then(|| rng.gen_range(-11..11i32));
    let fact_pred = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some(Pred::cmp("f_b", CmpOp::Ge, i64::from(rng.gen_range(0..nb + 1)))),
        _ => {
            let lo = rng.gen_range(-110..110i64);
            Some(Pred::between("f_m", lo, lo + rng.gen_range(0..100i64)))
        }
    };
    let (group_on_cat, group_on_tag) = (rng.gen_bool(0.5), rng.gen_bool(0.5));
    let deletes = vec_of(rng, 0..10, |rng| (rng.gen_range(0..3u32) as u8, rng.gen_range(0..64u32)));
    Case {
        dim_a_rows,
        dim_b_rows,
        fact,
        segment_rows,
        pred_flag_max,
        pred_bval_min,
        fact_pred,
        group_on_cat,
        group_on_tag,
        deletes,
    }
}

/// Runs `property` on [`CASES`] generated cases per seed.
fn check(mut property: impl FnMut(&Case, &str)) {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..CASES {
            let case = case(&mut rng);
            property(&case, &format!("seed {seed} case {i}: {case:?}"));
        }
    }
}

fn build(case: &Case) -> (Database, Query) {
    let mut dim_a = Table::new(
        "dim_a",
        Schema::new(vec![
            ColumnDef::new("a_flag", DataType::I32),
            ColumnDef::new("a_cat", DataType::Dict),
        ]),
    );
    for (f, c) in &case.dim_a_rows {
        dim_a.append_row(&[Value::Int(i64::from(*f)), Value::Str(c.clone())]);
    }
    let mut dim_b = Table::new("dim_b", Schema::new(vec![ColumnDef::new("b_val", DataType::I32)]));
    for v in &case.dim_b_rows {
        dim_b.append_row(&[Value::Int(i64::from(*v))]);
    }
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("f_a", DataType::Key { target: "dim_a".into() }),
            ColumnDef::new("f_b", DataType::Key { target: "dim_b".into() }),
            ColumnDef::new("f_m", DataType::I64),
            ColumnDef::new("f_tag", DataType::I32),
        ]),
    );
    fact.set_segment_rows(case.segment_rows);
    for (a, b, m, t) in &case.fact {
        fact.append_row(&[
            Value::Key(*a),
            Value::Key(*b),
            Value::Int(*m),
            Value::Int(i64::from(*t)),
        ]);
    }
    let mut db = Database::new();
    db.add_table(dim_a);
    db.add_table(dim_b);
    db.add_table(fact);

    // Apply deletes (modulo each table's size).
    for (sel, row) in &case.deletes {
        let name = match sel % 3 {
            0 => "dim_a",
            1 => "dim_b",
            _ => "fact",
        };
        let n = db.table(name).unwrap().num_slots() as u32;
        if n > 0 {
            db.table_mut(name).unwrap().delete(row % n);
        }
    }

    let mut q = Query::new()
        .root("fact")
        .filter("dim_a", Pred::cmp("a_flag", CmpOp::Le, case.pred_flag_max))
        .agg(Aggregate::sum(MeasureExpr::col("f_m"), "total"))
        .agg(Aggregate::count("n"))
        .agg(Aggregate::min(MeasureExpr::col("f_m"), "lo"))
        .agg(Aggregate::max(MeasureExpr::col("f_m"), "hi"));
    if let Some(min) = case.pred_bval_min {
        q = q.filter("dim_b", Pred::cmp("b_val", CmpOp::Ge, min));
    }
    if let Some(p) = &case.fact_pred {
        q = q.filter("fact", p.clone());
    }
    if case.group_on_cat {
        q = q.group("dim_a", "a_cat");
    }
    if case.group_on_tag {
        q = q.group("fact", "f_tag");
    }
    (db, q)
}

#[test]
fn all_execution_strategies_agree() {
    check(|case, ctx| {
        let (db, q) = build(case);
        let reference = execute(&db, &q, &ExecOptions::default()).unwrap();
        for pruning in [true, false] {
            let opts = || ExecOptions::default().pruning(pruning);
            let same = |out: &ExecOutput, what: &str| {
                assert!(
                    out.result.same_contents(&reference.result, 1e-9),
                    "{what} (pruning {pruning}) diverged: {:?} vs {:?}\n{ctx}",
                    out.result.rows,
                    reference.result.rows
                );
            };
            for v in ScanVariant::ALL {
                let out = execute(&db, &q, &ExecOptions { variant: v, ..opts() }).unwrap();
                same(&out, v.paper_name());
            }
            // Forced fan-out: generated fixtures are tiny, and the default
            // planner would (correctly, but uselessly here) stay serial.
            let mut popts = opts().threads(3);
            popts.optimizer.parallel_min_rows_per_thread = 1;
            popts.optimizer.host_threads = 64;
            let par = execute(&db, &q, &popts).unwrap();
            // With pruning on, a survey that leaves fewer than two rows
            // rightly keeps the scan serial.
            let rows = db.table("fact").unwrap().num_slots();
            if !pruning && rows >= 2 {
                assert!(par.plan.executor.is_parallel(), "parallel executor did not run\n{ctx}");
            }
            same(&par, "parallel");

            let hashed = execute(
                &db,
                &q,
                &ExecOptions { force_agg: Some(AggStrategy::HashTable), ..opts() },
            )
            .unwrap();
            same(&hashed, "hash agg");
        }

        let pipeline = execute_hash_pipeline(&db, &q).unwrap();
        assert!(
            pipeline.result.same_contents(&reference.result, 1e-9),
            "hash pipeline diverged: {:?} vs {:?}\n{ctx}",
            pipeline.result.rows,
            reference.result.rows
        );
    });
}

#[test]
fn denormalization_preserves_results() {
    let mut admitted = 0;
    check(|case, ctx| {
        let (db, q) = build(case);
        let reference = execute(&db, &q, &ExecOptions::default()).unwrap();
        let wide = astore_baseline::denorm::denormalize(&db, Some("fact")).unwrap();
        // A statement the wide table cannot answer (a test on a key column,
        // or a wide table that lost rows the statement sees) is skipped;
        // every one it answers must answer as AIR does.
        if !wide.answers(&db, &q, "fact") {
            return;
        }
        admitted += 1;
        let wq = wide.rewrite(&q, "fact");
        let den = execute(&wide.db, &wq, &ExecOptions::default()).unwrap();
        assert!(
            den.result.same_contents(&reference.result, 1e-9),
            "denormalized engine diverged: {:?} vs {:?}\n{ctx}",
            den.result.rows,
            reference.result.rows
        );
    });
    assert!(admitted > 0, "the wide table answered no generated query");
}

#[test]
fn consolidation_preserves_query_results() {
    check(|case, ctx| {
        let (mut db, q) = build(case);
        let before = execute(&db, &q, &ExecOptions::default()).unwrap();
        // Consolidating the fact table must not change any result (dim
        // consolidation with dangling fact references legitimately changes
        // results by nulling them, so we compact the root only).
        db.consolidate("fact");
        let after = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert!(
            after.result.same_contents(&before.result, 1e-9),
            "fact consolidation changed results\n{ctx}"
        );
    });
}

#[test]
fn selection_vector_equals_bitmap_filter_semantics() {
    use astore_storage::bitmap::Bitmap;
    use astore_storage::selvec::SelVec;
    // SelVec refinement must equal bitmap AND-chains for arbitrary masks.
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..32 {
            let bits = vec_of(&mut rng, 1..200, |rng| rng.gen_bool(0.5));
            let bits2 = vec_of(&mut rng, 1..200, |rng| rng.gen_bool(0.5));
            let n = bits.len().min(bits2.len());
            let bm1 = Bitmap::from_fn(n, |i| bits[i]);
            let bm2 = Bitmap::from_fn(n, |i| bits2[i]);
            let mut sv = SelVec::all(n);
            sv.refine(|r| bm1.get(r as usize));
            sv.refine(|r| bm2.get(r as usize));
            let mut anded = bm1.clone();
            anded.and_assign(&bm2);
            assert_eq!(sv, SelVec::from_bitmap(&anded), "seed {seed} case {i}");
        }
    }
}
