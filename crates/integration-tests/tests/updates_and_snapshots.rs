//! Update-then-query freshness and snapshot isolation across the whole
//! stack (paper §4.4): inserts, lazy deletes, slot reuse, in-place updates
//! and consolidation, all observed through OLAP queries.

use astore_core::prelude::*;
use astore_datagen::ssb;
use astore_storage::prelude::*;

fn count_asia(db: &Database) -> i64 {
    let q = Query::new()
        .root("lineorder")
        .filter("customer", Pred::eq("c_region", "ASIA"))
        .agg(Aggregate::count("n"));
    let out = execute(db, &q, &ExecOptions::default()).unwrap();
    match out.result.rows.first().map(|r| r[0].clone()) {
        Some(Value::Int(n)) => n,
        _ => 0,
    }
}

#[test]
fn inserts_become_visible_to_queries() {
    let db = ssb::generate(0.001, 42);
    let shared = SharedDatabase::new(db);
    let before = count_asia(&shared.snapshot());

    // Find an ASIA customer and append fact rows referencing it.
    let snap = shared.snapshot();
    let customer = snap.table("customer").unwrap();
    let region = customer.column("c_region").unwrap().as_dict().unwrap();
    let asia_cust = (0..customer.num_slots())
        .find(|&r| region.get(r) == "ASIA")
        .expect("an ASIA customer exists") as u32;
    let template = snap.table("lineorder").unwrap().row(0);
    drop(snap);

    for _ in 0..10 {
        let mut row = template.clone();
        row[2] = Value::Key(asia_cust); // lo_custkey
        shared.write(|db| {
            db.table_mut("lineorder").unwrap().insert(&row);
        });
    }
    let after = count_asia(&shared.snapshot());
    assert_eq!(after, before + 10);
}

#[test]
fn deletes_are_excluded_and_slots_reused() {
    let db = ssb::generate(0.001, 42);
    let shared = SharedDatabase::new(db);
    let before = count_asia(&shared.snapshot());
    let total_before = shared.snapshot().table("lineorder").unwrap().num_slots();

    // Delete 50 fact rows; count must drop by the number of deleted
    // ASIA-matching rows.
    let snap = shared.snapshot();
    let q = Query::new()
        .root("lineorder")
        .filter("customer", Pred::eq("c_region", "ASIA"))
        .agg(Aggregate::count("n"));
    let asia_before = execute(&snap, &q, &ExecOptions::default()).unwrap().plan.selected_rows;
    drop(snap);

    let mut deleted_asia = 0;
    {
        let snap = shared.snapshot();
        let lo = snap.table("lineorder").unwrap();
        let customer = snap.table("customer").unwrap();
        let region = customer.column("c_region").unwrap().as_dict().unwrap();
        let (_, keys) = lo.column("lo_custkey").unwrap().as_key().unwrap();
        for r in 0..50u32 {
            if region.get(keys.get(r as usize) as usize) == "ASIA" {
                deleted_asia += 1;
            }
        }
    }
    for r in 0..50u32 {
        shared.delete("lineorder", r);
    }
    let after = count_asia(&shared.snapshot());
    assert_eq!(after, before - deleted_asia);
    let _ = asia_before;

    // Re-insert 50 rows: slots are reused, arrays do not grow.
    let template = shared.snapshot().table("lineorder").unwrap().row(100);
    for _ in 0..50 {
        shared.write(|db| {
            db.table_mut("lineorder").unwrap().insert(&template);
        });
    }
    assert_eq!(
        shared.snapshot().table("lineorder").unwrap().num_slots(),
        total_before,
        "slot reuse must not grow the array family"
    );
}

#[test]
fn in_place_update_changes_query_results() {
    let db = ssb::generate(0.001, 42);
    let shared = SharedDatabase::new(db);

    let q =
        Query::new().root("lineorder").agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "total"));
    let total = |db: &Database| -> f64 {
        match execute(db, &q, &ExecOptions::default()).unwrap().result.rows[0][0] {
            Value::Float(f) => f,
            _ => panic!(),
        }
    };
    let before = total(&shared.snapshot());
    let old = shared.snapshot().table("lineorder").unwrap().row(7)[12].clone(); // lo_revenue
    let Value::Int(old_rev) = old else { panic!() };
    shared.update("lineorder", 7, "lo_revenue", &Value::Int(old_rev + 1_000_000));
    let after = total(&shared.snapshot());
    assert!((after - before - 1_000_000.0).abs() < 1e-3);
}

#[test]
fn snapshot_is_stable_under_concurrent_writes() {
    let db = ssb::generate(0.001, 42);
    let shared = SharedDatabase::new(db);
    let snap = shared.snapshot();
    let frozen = count_asia(&snap);

    let writer = shared.clone();
    let handle = std::thread::spawn(move || {
        let template = writer.snapshot().table("lineorder").unwrap().row(0);
        for i in 0..500u32 {
            writer.write(|db| {
                db.table_mut("lineorder").unwrap().insert(&template);
            });
            if i % 100 == 0 {
                writer.delete("lineorder", i);
            }
        }
    });
    for _ in 0..20 {
        assert_eq!(count_asia(&snap), frozen, "old snapshot must not move");
    }
    handle.join().unwrap();
    assert_eq!(count_asia(&snap), frozen);
}

#[test]
fn consolidation_of_dimension_rewrites_fact_references() {
    let mut db = ssb::generate(0.001, 42);
    // Delete a slice of suppliers, consolidate, and check the schema is
    // referentially sound again with fact rows pointing at NULL where the
    // supplier vanished.
    let n_supp = db.table("supplier").unwrap().num_slots();
    for r in 0..(n_supp / 4) as u32 {
        db.table_mut("supplier").unwrap().delete(r * 2);
    }
    assert!(!db.validate_references().is_empty(), "dangling refs expected before consolidation");
    db.consolidate("supplier");
    assert!(db.validate_references().is_empty());

    // Queries touching supplier silently drop the NULL-referenced rows.
    let q = Query::new().root("lineorder").group("supplier", "s_region").agg(Aggregate::count("n"));
    let out = execute(&db, &q, &ExecOptions::default()).unwrap();
    let total: i64 = out
        .result
        .rows
        .iter()
        .map(|r| match r.last().unwrap() {
            Value::Int(n) => *n,
            _ => 0,
        })
        .sum();
    let n_fact = db.table("lineorder").unwrap().num_live() as i64;
    assert!(total < n_fact, "rows with NULLed supplier references must drop out");
    assert!(total > 0);
}

#[test]
fn queries_work_mid_stream_on_every_variant() {
    let db = ssb::generate(0.001, 42);
    let shared = SharedDatabase::new(db);
    for r in 0..200u32 {
        shared.delete("lineorder", r * 3);
    }
    shared.write(|db| {
        let c = db.table_mut("customer").unwrap();
        c.delete(1);
        c.delete(2);
    });
    let snap = shared.snapshot();
    let q = Query::new()
        .root("lineorder")
        .filter("customer", Pred::eq("c_region", "ASIA"))
        .group("date", "d_year")
        .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "rev"))
        .order(OrderKey::asc("d_year"));
    let reference = execute(&snap, &q, &ExecOptions::default()).unwrap();
    for v in ScanVariant::ALL {
        let out = execute(&snap, &q, &ExecOptions::with_variant(v)).unwrap();
        assert!(
            out.result.same_contents(&reference.result, 1e-9),
            "{} diverged on dirty data",
            v.paper_name()
        );
    }
    // Forced fan-out (the fixture is below the default planner threshold);
    // the executor assertion keeps this from decaying into serial-vs-serial.
    let mut popts = ExecOptions::default().threads(3);
    popts.optimizer.parallel_min_rows_per_thread = 1;
    popts.optimizer.host_threads = 64;
    let par = execute(&snap, &q, &popts).unwrap();
    assert!(par.plan.executor.is_parallel());
    assert!(par.result.same_contents(&reference.result, 1e-9));
}
