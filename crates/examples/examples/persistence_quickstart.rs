//! Persistence quickstart: snapshot a database to disk, write through a
//! durable engine, crash, and recover — the full durability lifecycle in
//! one file.
//!
//! Every write goes through an [`EmbeddedConnection`] over a durable
//! [`Engine`]: the server's own path (bind, group commit, WAL append and
//! fsync, publish), without a socket.
//!
//! Run with: `cargo run -p astore-examples --example persistence_quickstart`

use std::path::Path;
use std::sync::Arc;

use astore_api::{Connection, EmbeddedConnection, Row};
use astore_core::prelude::*;
use astore_persist::{store, wal::Wal};
use astore_server::{Durability, Engine};
use astore_storage::prelude::*;
use astore_storage::snapshot::SharedDatabase;

fn revenue_by_year(conn: &mut EmbeddedConnection) -> String {
    let rows = conn
        .query(
            "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
             WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
            &[],
        )
        .expect("query runs");
    let columns = rows.columns().to_vec();
    QueryResult { columns, rows: rows.map(Row::into_values).collect() }.to_table_string()
}

/// An engine over `db` that logs every write to `wal` in `dir` before
/// acknowledging it.
fn durable(dir: &Path, db: Database, wal: Wal) -> Arc<Engine> {
    Arc::new(Engine::new(SharedDatabase::new(db)).durable(Durability::new(dir, wal, 0)))
}

fn main() {
    let dir = std::env::temp_dir().join("astore-persistence-quickstart");
    let _ = std::fs::remove_dir_all(&dir);

    // ── 1. Generate once, bootstrap the data directory ────────────────────
    println!("generating SSB SF 0.005 …");
    let db = astore_datagen::ssb::generate(0.005, 42);
    let wal = store::bootstrap(&dir, &db).expect("bootstrap");
    println!(
        "bootstrapped {} (snapshot {:.1} KiB)",
        dir.display(),
        std::fs::metadata(store::snapshot_path(&dir)).unwrap().len() as f64 / 1024.0
    );
    let engine = durable(&dir, db, wal);
    let mut conn = EmbeddedConnection::over(Arc::clone(&engine));
    println!("\nbefore the crash:\n{}", revenue_by_year(&mut conn));

    // ── 2. Commit some writes: prepare once, bind per row ─────────────────
    let template = conn.snapshot().table("lineorder").unwrap().row(0);
    let slots = vec!["?"; template.len()].join(", ");
    let insert =
        conn.prepare(&format!("INSERT INTO lineorder VALUES ({slots})")).expect("prepares");
    for i in 0..50 {
        let row: Vec<Value> = template
            .iter()
            .enumerate()
            .map(|(c, v)| match v {
                Value::Key(k) => Value::Int(i64::from(*k)),
                Value::Int(x) => Value::Int(x + (c as i64 * i) % 7),
                other => other.clone(),
            })
            .collect();
        conn.execute_prepared(&insert, &row).expect("insert commits");
    }
    let stats = engine.stats();
    println!(
        "committed {} INSERTs in {} group commit(s), {} WAL records",
        stats.writes.load(std::sync::atomic::Ordering::Relaxed),
        stats.group_commits.load(std::sync::atomic::Ordering::Relaxed),
        stats.wal_records.load(std::sync::atomic::Ordering::Relaxed),
    );

    // ── 3. "Crash": drop everything without checkpointing ─────────────────
    let pre_crash = revenue_by_year(&mut conn);
    drop(conn);
    drop(engine);

    // ── 4. Recover: snapshot + WAL replay ─────────────────────────────────
    let rec = store::open(&dir).expect("recovery");
    println!("\nrecovered: {} WAL records replayed on top of the snapshot", rec.replayed);
    let engine = durable(&dir, rec.db, rec.wal);
    let post_crash = revenue_by_year(&mut EmbeddedConnection::over(Arc::clone(&engine)));
    assert_eq!(pre_crash, post_crash, "recovered answers must match pre-crash answers");
    println!("\nafter recovery (identical to pre-crash):\n{post_crash}");

    // ── 5. Checkpoint: fold the WAL into a fresh snapshot (incremental:
    //      segments untouched since the boot snapshot are byte-copied) ─────
    let (_, bytes) = engine.checkpoint().expect("checkpoint");
    println!("checkpoint written ({:.1} KiB); WAL truncated through it", bytes as f64 / 1024.0);
    drop(engine);
    let again = store::open(&dir).expect("re-open");
    assert_eq!(again.replayed, 0, "nothing left to replay after a checkpoint");
    println!("re-opened with {} records to replay — cold start is now instant", again.replayed);

    let _ = std::fs::remove_dir_all(&dir);
}
