//! Concurrent snapshot semantics and served answers, end to end.
//!
//! Three levels: (1) raw `SharedDatabase` — readers taking snapshots while
//! a writer churns rows must never observe a torn row (a multi-field
//! invariant violated mid-write); (2) the TCP server — SSB Q1.1 answers
//! during an update burst must always correspond to a whole number of
//! atomically applied insert batches, never a partial one; (3) the served
//! statement path — every session, whatever it sent as `SET engine`,
//! answers the seeded SPJGA workload and the SSB flight on AIR exactly as
//! an in-process execution of the same SQL does, also beside a churning
//! writer once it has quiesced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use astore_bench::replay::SSB_SQL;
use astore_core::exec::{execute, ExecOptions};
use astore_integration_tests::random_sql;
use astore_persist::store;
use astore_server::engine::value_to_json;
use astore_server::json::Json;
use astore_server::{start, Client, Durability, Engine, ServerConfig, StatementRegistry};
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Level 1: writers maintain the invariant `b == 2 * a` in every row,
/// restoring it only within a single `write` call. A reader that ever sees
/// the invariant broken has observed a torn write.
#[test]
fn readers_never_observe_torn_rows() {
    let mut t = Table::new(
        "pair",
        Schema::new(vec![ColumnDef::new("a", DataType::I64), ColumnDef::new("b", DataType::I64)]),
    );
    for i in 0..8i64 {
        t.append_row(&[Value::Int(i), Value::Int(2 * i)]);
    }
    let mut db = Database::new();
    db.add_table(t);
    let shared = SharedDatabase::new(db);

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let shared = shared.clone();
            let done = Arc::clone(&done);
            s.spawn(move || {
                for i in 8..400i64 {
                    // One write call: insert a fresh pair AND rewrite an
                    // existing row. Both sides keep b == 2a; a snapshot
                    // taken between the two `update` calls would not.
                    shared.write(|db| {
                        let t = db.table_mut("pair").unwrap();
                        t.insert(&[Value::Int(i), Value::Int(2 * i)]);
                        let victim = (i % 8) as RowId;
                        t.update(victim, "a", &Value::Int(i * 10));
                        t.update(victim, "b", &Value::Int(i * 20));
                    });
                }
                done.store(true, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let shared = shared.clone();
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut checked = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = shared.snapshot();
                    let t = snap.table("pair").unwrap();
                    for row in 0..t.num_slots() as RowId {
                        if !t.is_live(row) {
                            continue;
                        }
                        let vals = t.row(row);
                        let (Value::Int(a), Value::Int(b)) = (&vals[0], &vals[1]) else {
                            panic!("unexpected types in row {row}: {vals:?}");
                        };
                        assert_eq!(*b, 2 * a, "torn row {row}: a={a} b={b}");
                        checked += 1;
                    }
                    if finished {
                        break;
                    }
                }
                assert!(checked > 0);
            });
        }
    });
    assert_eq!(shared.snapshot().table("pair").unwrap().num_live(), 400);
}

/// Level 2: the served Q1.1 answer mid-burst is always `base + k * DELTA`
/// for a whole `k` — each burst is one multi-row INSERT, and the engine
/// promises readers see all of a write call or none of it.
#[test]
fn server_q11_consistent_mid_update_burst() {
    const BURSTS: usize = 25;
    const ROWS_PER_BURST: usize = 4;
    // Every inserted row matches the Q1.1 predicate and contributes
    // lo_extendedprice * lo_discount = 1000 * 2 to the aggregate.
    const ROW_DELTA: i64 = 2000;
    const BURST_DELTA: i64 = ROW_DELTA * ROWS_PER_BURST as i64;

    let db = astore_datagen::ssb::generate(0.002, 42);
    // A date key with d_year = 1993, found by scanning the dimension.
    let date = db.table("date").unwrap();
    let year_col = date.schema().defs().iter().position(|d| d.name == "d_year").unwrap();
    let d1993 = (0..date.num_slots() as RowId)
        .find(|&r| date.row(r)[year_col] == Value::Int(1993))
        .expect("SSB date table covers 1993");

    let engine = Arc::new(Engine::new(SharedDatabase::new(db)));
    let h = start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
    )
    .unwrap();
    let addr = h.addr();

    const Q11: &str = "SELECT sum(lo_extendedprice * lo_discount) AS revenue \
                       FROM lineorder, date \
                       WHERE lo_orderdate = d_datekey AND d_year = 1993 \
                         AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25";
    let revenue = |c: &mut Client| -> i64 {
        let r = c.sql(Q11).expect("q1.1 failed");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0]
            .as_i64()
            .expect("integral revenue")
    };

    let mut probe = Client::connect(addr).unwrap();
    let base = revenue(&mut probe);

    let burst_row = format!(
        "(999999, 1, 0, 0, 0, {d1993}, '1-URGENT', 0, 10, 1000, 1000, 2, 980, 500, 0, {d1993}, 'AIR')"
    );
    let burst_sql =
        format!("INSERT INTO lineorder VALUES {}", vec![burst_row; ROWS_PER_BURST].join(", "));

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let done = Arc::clone(&done);
            let burst_sql = burst_sql.clone();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..BURSTS {
                    let r = c.sql(&burst_sql).expect("burst failed");
                    assert_eq!(
                        r.get("rows_affected").and_then(Json::as_i64),
                        Some(ROWS_PER_BURST as i64),
                        "{r:?}"
                    );
                }
                done.store(true, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut observed = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let rev = revenue(&mut c);
                    let delta = rev - base;
                    assert!(
                        delta >= 0 && delta % BURST_DELTA == 0,
                        "reader saw a partial burst: base={base} rev={rev} delta={delta}"
                    );
                    assert!(delta <= BURSTS as i64 * BURST_DELTA, "overshoot: {delta}");
                    observed += 1;
                    if finished {
                        break;
                    }
                }
                assert!(observed > 0);
            });
        }
    });

    assert_eq!(revenue(&mut probe), base + BURSTS as i64 * BURST_DELTA);
    let stats = probe.stats().unwrap();
    assert_eq!(stats.get("errors").and_then(Json::as_i64), Some(0), "{stats:?}");
    assert!(stats.get("cache_hits").and_then(Json::as_i64).unwrap() > 0, "plan cache exercised");
    h.shutdown();
}

/// Level 2b: the same torn-burst invariant with *intra-query parallelism
/// on* (`--engine-threads`-equivalent): a mixed read burst where big scans
/// fan out across the morsel dispatcher while an update burst churns the
/// fact table. Every Q1.1 answer must still correspond to a whole number of
/// atomically applied bursts — parallel workers scan one copy-on-write
/// snapshot, so a torn read here would mean a morsel crossed snapshots.
#[test]
fn server_parallel_reads_consistent_mid_update_burst() {
    const BURSTS: usize = 25;
    const ROWS_PER_BURST: usize = 4;
    const ROW_DELTA: i64 = 2000; // lo_extendedprice(1000) * lo_discount(2)
    const BURST_DELTA: i64 = ROW_DELTA * ROWS_PER_BURST as i64;

    let db = astore_datagen::ssb::generate(0.002, 42);
    let date = db.table("date").unwrap();
    let year_col = date.schema().defs().iter().position(|d| d.name == "d_year").unwrap();
    let d1993 = (0..date.num_slots() as RowId)
        .find(|&r| date.row(r)[year_col] == Value::Int(1993))
        .expect("SSB date table covers 1993");

    // Fan-out ceiling 4; thresholds lowered so the SF 0.002 fact table
    // (12K rows) fans out, with small morsels for real dispatcher traffic.
    // Core budget 8 covers the statement workers' baseline permits with
    // room for extra engine threads even on a small CI box.
    let mut opts = ExecOptions::default().threads(4).morsel_rows(512);
    opts.optimizer.parallel_min_rows_per_thread = 64;
    opts.optimizer.host_threads = 64;
    let engine = Arc::new(Engine::with_options(SharedDatabase::new(db), opts).core_budget(8));
    let h = start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
    )
    .unwrap();
    let addr = h.addr();

    const Q11: &str = "SELECT sum(lo_extendedprice * lo_discount) AS revenue \
                       FROM lineorder, date \
                       WHERE lo_orderdate = d_datekey AND d_year = 1993 \
                         AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25";
    let revenue = |c: &mut Client| -> i64 {
        let r = c.sql(Q11).expect("q1.1 failed");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0]
            .as_i64()
            .expect("integral revenue")
    };

    let mut probe = Client::connect(addr).unwrap();
    let base = revenue(&mut probe);

    let burst_row = format!(
        "(999999, 1, 0, 0, 0, {d1993}, '1-URGENT', 0, 10, 1000, 1000, 2, 980, 500, 0, {d1993}, 'AIR')"
    );
    let burst_sql =
        format!("INSERT INTO lineorder VALUES {}", vec![burst_row; ROWS_PER_BURST].join(", "));

    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let done = Arc::clone(&done);
            let burst_sql = burst_sql.clone();
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..BURSTS {
                    let r = c.sql(&burst_sql).expect("burst failed");
                    assert_eq!(
                        r.get("rows_affected").and_then(Json::as_i64),
                        Some(ROWS_PER_BURST as i64),
                        "{r:?}"
                    );
                }
                done.store(true, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut observed = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let rev = revenue(&mut c);
                    let delta = rev - base;
                    assert!(
                        delta >= 0 && delta % BURST_DELTA == 0,
                        "parallel reader saw a partial burst: base={base} rev={rev} delta={delta}"
                    );
                    assert!(delta <= BURSTS as i64 * BURST_DELTA, "overshoot: {delta}");
                    observed += 1;
                    if finished {
                        break;
                    }
                }
                assert!(observed > 0);
            });
        }
    });

    assert_eq!(revenue(&mut probe), base + BURSTS as i64 * BURST_DELTA);
    let stats = probe.stats().unwrap();
    assert_eq!(stats.get("errors").and_then(Json::as_i64), Some(0), "{stats:?}");
    assert!(
        stats.get("parallel_queries").and_then(Json::as_i64).unwrap() > 0,
        "no query ever ran on the parallel executor — the suite proved nothing: {stats:?}"
    );
    assert_eq!(
        stats.get("core_budget_in_use").and_then(Json::as_i64),
        Some(0),
        "every permit must be back in the pool once the burst is over: {stats:?}"
    );
    h.shutdown();
}

/// Level 3: a durable server killed mid-flight and rebooted from its
/// `--data-dir` must serve a Q1.1 answer reflecting *every acknowledged
/// write* — without regenerating the dataset. The kill is SIGKILL-equivalent
/// for the on-disk state: no checkpoint, no graceful flush beyond the
/// per-statement fsync that already happened before each acknowledgment.
#[test]
fn server_restart_from_data_dir_preserves_every_acknowledged_write() {
    const BURSTS: usize = 20;
    const ROWS_PER_BURST: usize = 3;
    const ROW_DELTA: i64 = 2000; // lo_extendedprice(1000) * lo_discount(2)
    const Q11: &str = "SELECT sum(lo_extendedprice * lo_discount) AS revenue \
                       FROM lineorder, date \
                       WHERE lo_orderdate = d_datekey AND d_year = 1993 \
                         AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25";

    let dir = std::env::temp_dir().join(format!("astore-it-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let db = astore_datagen::ssb::generate(0.002, 42);
    let seed_fact_rows = db.table("lineorder").unwrap().num_live();
    let date = db.table("date").unwrap();
    let year_col = date.schema().defs().iter().position(|d| d.name == "d_year").unwrap();
    let d1993 = (0..date.num_slots() as RowId)
        .find(|&r| date.row(r)[year_col] == Value::Int(1993))
        .expect("SSB date table covers 1993");

    let revenue = |c: &mut Client| -> i64 {
        let r = c.sql(Q11).expect("q1.1 failed");
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
        r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0]
            .as_i64()
            .expect("integral revenue")
    };
    let burst_row = format!(
        "(999999, 1, 0, 0, 0, {d1993}, '1-URGENT', 0, 10, 1000, 1000, 2, 980, 500, 0, {d1993}, 'AIR')"
    );
    let burst_sql =
        format!("INSERT INTO lineorder VALUES {}", vec![burst_row; ROWS_PER_BURST].join(", "));

    // ---- First life: durable boot, acknowledged update burst, kill. ----
    let wal = store::bootstrap(&dir, &db).unwrap();
    let engine =
        Arc::new(Engine::new(SharedDatabase::new(db)).durable(Durability::new(&dir, wal, 0)));
    let h = start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
    )
    .unwrap();
    let (base, acked) = {
        let mut c = Client::connect(h.addr()).unwrap();
        let base = revenue(&mut c);
        let mut acked = 0i64;
        for _ in 0..BURSTS {
            let r = c.sql(&burst_sql).expect("burst failed");
            assert_eq!(
                r.get("rows_affected").and_then(Json::as_i64),
                Some(ROWS_PER_BURST as i64),
                "{r:?}"
            );
            // Only count writes the server acknowledged (all of them here;
            // the durability contract is about exactly these).
            acked += 1;
        }
        (base, acked)
    };
    // SIGKILL-equivalent: tear the process-level state down with no
    // checkpoint; the only surviving truth is the data directory.
    h.shutdown();

    // ---- Second life: recover from disk, serve, verify. ----
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed as i64, acked, "every acknowledged burst is in the WAL");
    let engine = Arc::new(
        Engine::new(SharedDatabase::new(rec.db)).durable(Durability::new(&dir, rec.wal, 0)),
    );
    let h = start(
        engine,
        ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
    )
    .unwrap();
    let mut c = Client::connect(h.addr()).unwrap();
    assert_eq!(
        revenue(&mut c),
        base + acked * ROWS_PER_BURST as i64 * ROW_DELTA,
        "restarted server must reflect every acknowledged write"
    );
    // Writes keep working after recovery, and LSNs keep rising.
    let r = c.sql(&burst_sql).expect("post-restart write");
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    let r = c.request(&Json::obj([("cmd", Json::Str("checkpoint".into()))])).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
    assert!(r.get("lsn").and_then(Json::as_i64).unwrap() > acked, "{r:?}");
    h.shutdown();

    // ---- Third life: checkpointed boot replays nothing. ----
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed, 0, "checkpoint folded the WAL into the snapshot");
    assert_eq!(
        rec.db.table("lineorder").unwrap().num_live(),
        seed_fact_rows + (acked as usize + 1) * ROWS_PER_BURST,
        "all bursts present in the snapshot"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn sql(e: &Engine, reg: &mut StatementRegistry, s: &str) -> Json {
    e.handle_line_session(&Json::obj([("sql", Json::Str(s.into()))]).to_string(), reg)
}

/// Columns plus rows of an answer, with the rows sorted by their serialized
/// form: a statement without ORDER BY may emit its groups in any order,
/// while every cell — float aggregates included — must match bit for bit.
type Canon = (Json, Vec<String>);

/// The [`Canon`] of a served result frame, which must be a success naming
/// AIR.
fn canon(frame: &Json, ctx: &str) -> Canon {
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true), "{ctx}: {frame}");
    assert_eq!(frame.get("engine").and_then(Json::as_str), Some("air"), "{ctx}: {frame}");
    let cols = frame.get("columns").cloned().unwrap_or(Json::Array(vec![]));
    let mut rows: Vec<String> = frame
        .get("rows")
        .and_then(Json::as_array)
        .map(|rs| rs.iter().map(Json::to_string).collect())
        .unwrap_or_default();
    rows.sort_unstable();
    (cols, rows)
}

/// The [`Canon`] of `stmt` planned and executed in process, serially, on
/// `db`: the AIR oracle, with no server stage in between.
fn in_process(db: &Database, stmt: &str) -> Canon {
    let q = astore_sql::sql_to_query(stmt, db).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    let out = execute(db, &q, &ExecOptions::default()).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    let cols = Json::Array(out.result.columns.iter().cloned().map(Json::Str).collect());
    let mut rows: Vec<String> = (out.result.rows.iter())
        .map(|r| Json::Array(r.iter().map(value_to_json).collect()).to_string())
        .collect();
    rows.sort_unstable();
    (cols, rows)
}

/// One engine over a small SSB set.
fn ssb_engine(sf: f64, seed: u64) -> (Arc<Engine>, SharedDatabase) {
    let shared = SharedDatabase::new(astore_datagen::ssb::generate(sf, seed));
    (Arc::new(Engine::new(shared.clone())), shared)
}

/// A session that sent `set` first (`None`: nothing).
fn session(e: &Engine, set: Option<&str>) -> StatementRegistry {
    let mut reg = StatementRegistry::default();
    if let Some(set) = set {
        let r = sql(e, &mut reg, set);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{set}: {r}");
        assert_eq!(r.get("engine").and_then(Json::as_str), Some("air"), "{set}: {r}");
    }
    reg
}

/// Three sessions — one that sent `SET engine = air`, one `SET engine =
/// auto`, one nothing — answer 200 seeded queries alike, on AIR, and as
/// the in-process execution does.
#[test]
fn served_sessions_agree_with_in_process_air_on_200_seeded_queries() {
    let (e, shared) = ssb_engine(0.002, 20260808);
    let db = shared.snapshot();
    let mut sessions = [
        ("air", session(&e, Some("SET engine = air"))),
        ("auto", session(&e, Some("SET engine = auto"))),
        ("unset", session(&e, None)),
    ];
    let mut rng = SmallRng::seed_from_u64(0x407E5);
    let mut nonempty = 0usize;
    for q in 0..200 {
        let stmt = random_sql(&mut rng).literal_sql();
        let oracle = in_process(&db, &stmt);
        for (name, reg) in &mut sessions {
            let got = canon(&sql(&e, reg, &stmt), &format!("query {q} {name}\n{stmt}"));
            assert_eq!(got, oracle, "query {q}: the {name} session diverged from AIR\n{stmt}");
        }
        nonempty += usize::from(!oracle.1.is_empty());
    }
    assert!(nonempty >= 100, "only {nonempty}/200 queries returned rows; generator too weak");
}

#[test]
fn served_ssb_flight_agrees_with_in_process_air() {
    let (e, shared) = ssb_engine(0.002, 20260809);
    let db = shared.snapshot();
    let mut reg = session(&e, None);
    let mut nonempty = 0usize;
    for (name, stmt) in SSB_SQL {
        let oracle = in_process(&db, stmt);
        assert_eq!(canon(&sql(&e, &mut reg, stmt), name), oracle, "{name} diverged from AIR");
        nonempty += usize::from(!oracle.1.is_empty());
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
fn random_write(rng: &mut SmallRng, db: &Database) -> String {
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

/// A writer churns inserts, updates and deletes through the group-commit
/// path while a reader session answers queries. Mid-churn each statement
/// legally sees its own snapshot, so nothing is compared — but nothing may
/// fail and AIR answers every one. Once the writer has quiesced, the
/// session agrees with the in-process execution on the final image.
#[test]
fn served_readers_survive_a_churning_writer_and_reconverge() {
    let (e, shared) = ssb_engine(0.002, 20260807);
    let mut reader = session(&e, None);
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
            canon(&sql(&e, &mut reader, &stmt), &format!("query {q} under churn\n{stmt}"));
        }
    });

    let db = shared.snapshot();
    let mut rng = SmallRng::seed_from_u64(0xF17A1);
    for q in 0..40 {
        let stmt = random_sql(&mut rng).literal_sql();
        let got = canon(&sql(&e, &mut reader, &stmt), &format!("post-churn {q}\n{stmt}"));
        assert_eq!(got, in_process(&db, &stmt), "post-churn query {q} diverged\n{stmt}");
    }
}

/// Two statements keep running at once: with two serving threads, one
/// answers connection A's pipelined batch of sweeps while the other answers
/// connection B — every ping B sends after A's batch started is answered
/// before the batch finishes.
#[test]
fn pings_are_answered_while_a_pipelined_sweep_batch_runs() {
    pings_outrun_a_pipelined_sweep_batch(2);
}

/// A pipelined batch does not hold the only serving thread: A's sweeps
/// take one turn each, and B's pings are answered between them — each
/// waits for at most one of A's statements, so all of them are answered
/// before the batch finishes.
#[test]
fn one_serving_thread_interleaves_pings_with_a_pipelined_batch() {
    pings_outrun_a_pipelined_sweep_batch(1);
}

fn pings_outrun_a_pipelined_sweep_batch(workers: usize) {
    const PINGS: usize = 20;
    let (e, _) = ssb_engine(0.02, 42);
    let config =
        ServerConfig { addr: "127.0.0.1:0".into(), workers, queue_depth: 64, ..Default::default() };
    let h = start(e, config).unwrap();
    let ping = Json::obj([("cmd", Json::Str("ping".into()))]);
    let mut a = Client::connect(h.addr()).unwrap();
    let mut b = Client::connect(h.addr()).unwrap();
    b.request(&ping).unwrap(); // connected before A's batch starts

    // Several times more sweeps than pings: one thread answering a ping
    // per sweep answers the last ping long before the last sweep, even when
    // B's thread is slow to send its next ping.
    let batch: Vec<Json> = (SSB_SQL.iter().cycle().take(8 * SSB_SQL.len()))
        .map(|(_, sql)| Json::obj([("sql", Json::Str((*sql).into()))]))
        .collect();
    assert!(batch.len() > 5 * PINGS);
    a.send_all(&batch).unwrap();
    let first = a.read_frame().unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true), "{first}");
    let batch_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 1..batch.len() {
                let r = a.read_frame().unwrap();
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "sweep {i}: {r}");
            }
            batch_done.store(true, Ordering::SeqCst);
        });
        for i in 0..PINGS {
            let pong = b.request(&ping).unwrap();
            assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true), "ping {i}: {pong}");
        }
        assert!(!batch_done.load(Ordering::SeqCst), "B's pings waited for A's batch");
    });
    h.shutdown();
}
