//! Engine differential: whichever engine answers — AIR, hash-join, or
//! cached denormalization — the answer must be *identical* to the
//! forced-AIR oracle, and an unpinned session is always answered by AIR.
//!
//! Four suites:
//!
//! 1. **Four-session 200-query differential.** The seeded SPJGA workload
//!    (shared with `prepared_differential.rs` / `scan_pruning.rs`) runs on
//!    four sessions of one engine — pinned air, pinned join, pinned
//!    denorm, and unpinned (`auto`). Every frame must match the pinned-air
//!    frame, and every `auto` frame must name AIR.
//!
//! 2. **The SSB flight.** The 13 SSB queries on the three pinned
//!    sessions: each one runs on the engine its session pinned, and all
//!    three agree.
//!
//! 3. **Concurrent writers.** A writer churns inserts/updates/deletes
//!    through the group-commit path while the unpinned session answers
//!    queries on AIR; nothing may error, and once the writer quiesces the
//!    session agrees with forced AIR.
//!
//! 4. **Denorm staleness proof.** A session pinned to the denormalized
//!    engine must observe every committed write: the epoch check
//!    invalidates the cached wide table, and the rebuilt answer matches
//!    AIR exactly — a stale cache would keep returning the old sum.

use std::sync::Arc;

use astore_bench::replay::SSB_SQL;
use astore_datagen::ssb;
use astore_integration_tests::random_sql;
use astore_server::json::Json;
use astore_server::{Engine, StatementRegistry};
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::{RowId, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn sql(e: &Engine, reg: &mut StatementRegistry, s: &str) -> Json {
    e.handle_line_session(&Json::obj([("sql", Json::Str(s.into()))]).to_string(), reg)
}

/// Columns plus rows of a successful result frame, with the rows sorted by
/// their serialized form. Engines may emit groups in different orders when
/// the query has no ORDER BY; sorting canonicalizes that while every cell —
/// including float aggregates — must still match bit-for-bit.
fn canon(frame: &Json, ctx: &str) -> (Json, Vec<String>) {
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{ctx}: {frame}");
    let cols = frame.get("columns").cloned().unwrap_or(Json::Array(vec![]));
    let mut rows: Vec<String> = frame
        .get("rows")
        .and_then(Json::as_array)
        .map(|rs| rs.iter().map(Json::to_string).collect())
        .unwrap_or_default();
    rows.sort_unstable();
    (cols, rows)
}

/// One engine over a small SSB set.
fn ssb_engine(sf: f64, seed: u64) -> (Arc<Engine>, SharedDatabase) {
    let shared = SharedDatabase::new(ssb::generate(sf, seed));
    (Arc::new(Engine::new(shared.clone())), shared)
}

/// The engine a result frame names.
fn engine_of(frame: &Json) -> Option<&str> {
    frame.get("engine").and_then(Json::as_str)
}

/// A session pinned to `engine` ("air" | "join" | "denorm" | "auto").
fn pinned_session(e: &Engine, engine: &str) -> StatementRegistry {
    let mut reg = StatementRegistry::default();
    let r = sql(e, &mut reg, &format!("SET engine = {engine}"));
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    assert_eq!(r.get("engine").and_then(Json::as_str), Some(engine), "{r}");
    reg
}

#[test]
fn four_strategies_agree_on_200_seeded_queries() {
    let (e, _shared) = ssb_engine(0.002, 20260808);
    let mut air = pinned_session(&e, "air");
    let mut join = pinned_session(&e, "join");
    let mut denorm = pinned_session(&e, "denorm");
    let mut auto = pinned_session(&e, "auto");

    let mut rng = SmallRng::seed_from_u64(0x407E5);
    let mut nonempty = 0usize;
    for q in 0..200 {
        let stmt = random_sql(&mut rng).literal_sql();
        let oracle = canon(&sql(&e, &mut air, &stmt), &format!("query {q} pinned air\n{stmt}"));
        for (name, reg) in [("join", &mut join), ("denorm", &mut denorm), ("auto", &mut auto)] {
            let frame = sql(&e, reg, &stmt);
            let got = canon(&frame, &format!("query {q} {name}\n{stmt}"));
            assert_eq!(got, oracle, "query {q}: {name} diverged from forced AIR\n{stmt}");
            if name == "auto" {
                assert_eq!(engine_of(&frame), Some("air"), "query {q}: auto left AIR\n{stmt}");
            }
        }
        if !oracle.1.is_empty() {
            nonempty += 1;
        }
    }
    assert!(nonempty >= 100, "only {nonempty}/200 queries returned rows; generator too weak");
}

#[test]
fn ssb_flight_agrees_on_every_pinned_engine() {
    let (e, _shared) = ssb_engine(0.002, 20260809);
    let mut air = pinned_session(&e, "air");
    let mut join = pinned_session(&e, "join");
    let mut denorm = pinned_session(&e, "denorm");
    let mut nonempty = 0usize;
    for (name, stmt) in SSB_SQL {
        let frame = sql(&e, &mut air, stmt);
        assert_eq!(engine_of(&frame), Some("air"), "{name}: {frame}");
        let oracle = canon(&frame, &format!("{name} pinned air"));
        nonempty += usize::from(!oracle.1.is_empty());
        for (pin, reg) in [("join", &mut join), ("denorm", &mut denorm)] {
            let frame = sql(&e, reg, stmt);
            assert_eq!(engine_of(&frame), Some(pin), "{name} did not run on {pin}: {frame}");
            let got = canon(&frame, &format!("{name} pinned {pin}"));
            assert_eq!(got, oracle, "{name}: {pin} diverged from forced AIR");
        }
    }
    // Q3.3 and Q3.4 name two cities on both sides and are empty at this
    // scale; every other query must bite.
    assert!(nonempty >= 11, "only {nonempty}/13 SSB queries returned rows");
}

/// Renders one storage value as a SQL literal.
fn lit(v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Key(k) => k.to_string(),
        Value::Null => "NULL".into(),
    }
}

/// A random committed write against `lineorder` (insert cloned from a live
/// row, measure/date update, or delete).
fn random_write(rng: &mut SmallRng, db: &astore_storage::catalog::Database) -> String {
    let lo = db.table("lineorder").unwrap();
    let n_dates = db.table("date").unwrap().num_slots() as i64;
    let live: Vec<RowId> = (0..lo.num_slots() as RowId).filter(|&r| lo.is_live(r)).collect();
    let pick = live[rng.gen_range(0..live.len())];
    match rng.gen_range(0..5u32) {
        0 | 1 => {
            let mut row = lo.row(pick);
            row[5] = Value::Key(rng.gen_range(0..n_dates) as u32);
            row[12] = Value::Int(rng.gen_range(100..100_000i64));
            let vals: Vec<String> = row.iter().map(lit).collect();
            format!("INSERT INTO lineorder VALUES ({})", vals.join(", "))
        }
        2 => format!(
            "UPDATE lineorder SET lo_revenue = {} WHERE rowid = {pick}",
            rng.gen_range(0..1_000_000i64)
        ),
        3 => format!(
            "UPDATE lineorder SET lo_quantity = {} WHERE rowid = {pick}",
            rng.gen_range(1..=50i64)
        ),
        _ if live.len() > 100 => format!("DELETE FROM lineorder WHERE rowid = {pick}"),
        _ => format!("UPDATE lineorder SET lo_shipmode = 'AIR' WHERE rowid = {pick}"),
    }
}

#[test]
fn adaptive_session_survives_concurrent_writers_and_reconverges() {
    let (e, shared) = ssb_engine(0.002, 20260807);
    let mut auto = pinned_session(&e, "auto");

    // Phase 1: writers churn while the unpinned session answers queries.
    // Results cannot be compared to an oracle mid-churn (each statement
    // legally sees a different snapshot) — but nothing may error, and AIR
    // answers every one.
    std::thread::scope(|s| {
        let writer_engine = Arc::clone(&e);
        let writer_shared = shared.clone();
        s.spawn(move || {
            let mut reg = StatementRegistry::default();
            let mut rng = SmallRng::seed_from_u64(0xA11_0C8);
            for w in 0..150 {
                let stmt = random_write(&mut rng, &writer_shared.snapshot());
                let r = sql(&writer_engine, &mut reg, &stmt);
                assert_eq!(
                    r.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "write {w} failed: {r}\n{stmt}"
                );
            }
        });
        let mut rng = SmallRng::seed_from_u64(0x5EED_CAFE);
        for q in 0..100 {
            let stmt = random_sql(&mut rng).literal_sql();
            let r = sql(&e, &mut auto, &stmt);
            assert_eq!(
                r.get("ok").and_then(Json::as_bool),
                Some(true),
                "query {q} failed under churn: {r}\n{stmt}"
            );
            assert_eq!(engine_of(&r), Some("air"), "query {q} under churn left AIR");
        }
    });

    // Phase 2: quiesced. The unpinned session agrees with forced AIR.
    let mut air = pinned_session(&e, "air");
    let mut rng = SmallRng::seed_from_u64(0xF17A1);
    for q in 0..40 {
        let stmt = random_sql(&mut rng).literal_sql();
        let oracle = canon(&sql(&e, &mut air, &stmt), &format!("post-churn {q} air\n{stmt}"));
        let frame = sql(&e, &mut auto, &stmt);
        assert_eq!(engine_of(&frame), Some("air"), "post-churn query {q} left AIR");
        let got = canon(&frame, &format!("post-churn {q} auto\n{stmt}"));
        assert_eq!(got, oracle, "post-churn query {q}: unpinned diverged\n{stmt}");
    }
}

#[test]
fn pinned_denorm_observes_every_committed_write() {
    let (e, _shared) = ssb_engine(0.001, 20260806);
    let mut air = pinned_session(&e, "air");
    let mut denorm = pinned_session(&e, "denorm");
    let mut writer = StatementRegistry::default();
    const Q: &str = "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
                     WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year";

    let before = canon(&sql(&e, &mut denorm, Q), "denorm before write");
    assert_eq!(before, canon(&sql(&e, &mut air, Q), "air before write"));

    // A committed write the cached wide table cannot contain.
    let r = sql(&e, &mut writer, "UPDATE lineorder SET lo_revenue = 987654321 WHERE rowid = 0");
    assert_eq!(r.get("rows_affected").and_then(Json::as_i64), Some(1), "{r}");

    let after = canon(&sql(&e, &mut denorm, Q), "denorm after write");
    assert_eq!(
        after,
        canon(&sql(&e, &mut air, Q), "air after write"),
        "denormalized answer is stale after a committed write"
    );
    assert_ne!(before.1, after.1, "the write must change the sum for this proof to bite");
}
