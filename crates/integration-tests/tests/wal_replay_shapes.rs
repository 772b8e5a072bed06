//! WAL replay property test: every write *shape* the serving layer
//! accepts — literal text, mixed-case text, prepared statements with bound
//! params, and parameterized-rowid updates/deletes — must land in the log
//! in a form that kill-and-recover replays to the byte-identical database.
//!
//! The fixture's tables are sealed into encoded segments before bootstrap,
//! so replay runs against a v3 snapshot: writes unseal the segments they
//! touch (deletes don't — liveness lives in the bitmap), and a mid-test
//! checkpoint re-seals and re-encodes, proving the lifecycle survives the
//! durability loop, not just a single image.
//!
//! Deletes target the fact table only: `apply` refuses deletes on an
//! AIR-referenced dimension (dangling keys), and so does this generator.

use astore_persist::store;
use astore_server::json::Json;
use astore_server::{Durability, Engine, StatementRegistry};
use astore_storage::catalog::Database;
use astore_storage::prelude::*;
use astore_storage::table::{ColumnDef, Schema, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn assert_identical(a: &Database, b: &Database, ctx: &str) {
    assert_eq!(a.table_names(), b.table_names(), "{ctx}: table set");
    for name in a.table_names() {
        let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
        assert_eq!(ta.num_slots(), tb.num_slots(), "{ctx}: {name} slots");
        assert_eq!(ta.live_bitmap(), tb.live_bitmap(), "{ctx}: {name} live bitmap");
        assert_eq!(ta.free_slots(), tb.free_slots(), "{ctx}: {name} free list");
        for row in 0..ta.num_slots() as RowId {
            assert_eq!(ta.row(row), tb.row(row), "{ctx}: {name}[{row}]");
        }
    }
}

/// A dim + fact star, fact re-chunked into small segments and sealed so
/// the bootstrap snapshot carries encoded (v3) segments.
fn sealed_fixture() -> Database {
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            ColumnDef::new("d_name", DataType::Str),
            ColumnDef::new("d_cat", DataType::I64),
        ]),
    );
    for i in 0..8i64 {
        dim.append_row(&[Value::Str(format!("d{i}")), Value::Int(i % 3)]);
    }
    dim.seal_segments();
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("f_d", DataType::Key { target: "dim".into() }),
            ColumnDef::new("f_v", DataType::I64),
            ColumnDef::new("f_q", DataType::I32),
        ]),
    );
    // 16 segments of 512 rows: enough that a phase of random writes
    // leaves some segments untouched (their encodings must survive).
    for i in 0..8192u32 {
        fact.append_row(&[
            Value::Key(i % 8),
            Value::Int(i64::from(1000 + i % 97)),
            Value::Int(i64::from(i % 50)),
        ]);
    }
    fact.set_segment_rows(512);
    fact.seal_segments();
    assert!(
        (0..fact.segment_count()).all(|seg| fully_encoded(&fact, seg)),
        "fixture fact table must start fully encoded"
    );
    let mut db = Database::new();
    db.add_table(dim);
    db.add_table(fact);
    db
}

/// Is every column chunk of segment `seg` resident encoded? (All three
/// fact columns of the fixture have small domains.)
fn fully_encoded(fact: &Table, seg: usize) -> bool {
    (0..fact.schema().arity()).all(|c| fact.column_at(c).chunk_encoding(seg).is_some())
}

/// Sends one frame and asserts it succeeded.
fn ok(e: &Engine, session: &mut StatementRegistry, line: &str) {
    let r = e.handle_line_session(line, session);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{line}: {r:?}");
}

/// Prepares `sql` and returns the statement id.
fn prep(e: &Engine, session: &mut StatementRegistry, sql: &str) -> i64 {
    let r = e.handle_line_session(&format!("{{\"prepare\":{:?}}}", sql), session);
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{sql}: {r:?}");
    r.get("stmt_id").and_then(Json::as_i64).unwrap()
}

/// A random live fact rowid under the engine's current snapshot.
fn live_row(e: &Engine, rng: &mut SmallRng) -> u32 {
    let snap = e.database().snapshot();
    let t = snap.table("fact").unwrap();
    let n = t.num_slots() as u32;
    loop {
        let r = rng.gen_range(0..n);
        if t.is_live(r) {
            return r;
        }
    }
}

/// Random keyword-casing of an SQL string: the parser (and the WAL
/// canonicalizer behind it) must be case-insensitive on keywords.
fn mix_case(sql: &str, rng: &mut SmallRng) -> String {
    sql.chars()
        .map(|c| {
            if c.is_ascii_alphabetic() && rng.gen_bool(0.5) {
                if c.is_ascii_uppercase() {
                    c.to_ascii_lowercase()
                } else {
                    c.to_ascii_uppercase()
                }
            } else {
                c
            }
        })
        .collect()
}

/// Applies `n` random writes through every shape the protocol accepts.
fn random_writes(e: &Engine, session: &mut StatementRegistry, rng: &mut SmallRng, n: usize) {
    let ins = prep(e, session, "INSERT INTO fact VALUES (?, ?, ?)");
    let upd = prep(e, session, "UPDATE fact SET f_v = ? WHERE rowid = ?");
    let del = prep(e, session, "DELETE FROM fact WHERE rowid = ?");
    for _ in 0..n {
        match rng.gen_range(0..7u32) {
            // Literal text.
            0 => ok(
                e,
                session,
                &format!(
                    "{{\"sql\":\"INSERT INTO fact VALUES ({}, {}, {})\"}}",
                    rng.gen_range(0..8),
                    rng.gen_range(0..5000),
                    rng.gen_range(0..50)
                ),
            ),
            1 => {
                let r = live_row(e, rng);
                ok(
                    e,
                    session,
                    &format!(
                        "{{\"sql\":\"UPDATE fact SET f_q = {} WHERE rowid = {r}\"}}",
                        rng.gen_range(0..50)
                    ),
                );
            }
            // Mixed-case text.
            2 => {
                let sql = mix_case(
                    &format!(
                        "INSERT INTO fact VALUES ({}, {}, {})",
                        rng.gen_range(0..8),
                        rng.gen_range(0..5000),
                        rng.gen_range(0..50)
                    ),
                    rng,
                );
                ok(e, session, &format!("{{\"sql\":{sql:?}}}"));
            }
            3 => {
                let r = live_row(e, rng);
                let sql = mix_case(&format!("DELETE FROM fact WHERE rowid = {r}"), rng);
                ok(e, session, &format!("{{\"sql\":{sql:?}}}"));
            }
            // Prepared with bound params.
            4 => ok(
                e,
                session,
                &format!(
                    "{{\"execute\":{{\"id\":{ins},\"params\":[{}, {}, {}]}}}}",
                    rng.gen_range(0..8),
                    rng.gen_range(0..5000),
                    rng.gen_range(0..50)
                ),
            ),
            // Parameterized rowid.
            5 => {
                let r = live_row(e, rng);
                ok(
                    e,
                    session,
                    &format!(
                        "{{\"execute\":{{\"id\":{upd},\"params\":[{}, {r}]}}}}",
                        rng.gen_range(0..5000)
                    ),
                );
            }
            _ => {
                let r = live_row(e, rng);
                ok(e, session, &format!("{{\"execute\":{{\"id\":{del},\"params\":[{r}]}}}}"));
            }
        }
    }
}

#[test]
fn every_write_shape_survives_kill_and_recover() {
    let dir = std::env::temp_dir().join(format!("astore-wal-shapes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = sealed_fixture();
    let wal = store::bootstrap(&dir, &seed).unwrap();
    let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
    let mut session = StatementRegistry::default();
    let mut rng = SmallRng::seed_from_u64(0x3A1_5E4D);

    // Phase 1: a batch of writes in every shape, then a simulated kill
    // (drop without checkpoint) and recovery purely from snapshot + WAL.
    random_writes(&e, &mut session, &mut rng, 60);
    let live = e.database().snapshot().as_ref().clone();
    drop(e);
    let rec = store::open(&dir).unwrap();
    assert!(rec.replayed >= 60, "all {} writes must replay, got {}", 60, rec.replayed);
    assert_identical(&rec.db, &live, "phase 1 recovery");
    // The snapshot's blocks went straight into their slots and replay
    // decoded only the chunks it wrote to: untouched segments hold no flat
    // chunk.
    let fact = rec.db.table("fact").unwrap();
    assert!(
        (0..fact.segment_count()).any(|seg| fully_encoded(fact, seg)),
        "recovery must leave untouched segments encoded"
    );

    // Phase 2: continue on the recovered image, checkpoint mid-stream
    // (fold into a fresh v3 snapshot, re-sealing dirtied segments), write
    // more in every shape, kill, recover.
    let e = Engine::new(SharedDatabase::new(rec.db)).durable(Durability::new(&dir, rec.wal, 0));
    let mut session = StatementRegistry::default();
    random_writes(&e, &mut session, &mut rng, 30);
    e.checkpoint().unwrap();
    // Post-checkpoint the live image is fully re-sealed.
    {
        let snap = e.database().snapshot();
        let fact = snap.table("fact").unwrap();
        assert!(
            (0..fact.segment_count()).all(|seg| fully_encoded(fact, seg)),
            "checkpoint must re-seal every fact segment"
        );
    }
    random_writes(&e, &mut session, &mut rng, 30);
    let live = e.database().snapshot().as_ref().clone();
    drop(e);
    let rec = store::open(&dir).unwrap();
    assert!(
        rec.replayed >= 30 && rec.replayed < 60,
        "only post-checkpoint records replay, got {}",
        rec.replayed
    );
    assert_identical(&rec.db, &live, "phase 2 recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}
