//! # astore-api
//!
//! The unified client API of A-Store: one [`Connection`] trait over the
//! embedded in-process engine ([`EmbeddedConnection`]) and the TCP server
//! ([`RemoteConnection`]), with prepared statements, `?`/`$n` parameter
//! binding, typed [`Rows`]/[`Row`] results, and a structured
//! [`AstoreError`] with stable error codes and source-span diagnostics.
//!
//! Before this facade, every consumer drove the engine through a
//! different seam (`astore_core::execute`, `astore_sql::planner`, the
//! server's JSON frames, …). Now there is one pipeline — parse → plan →
//! **prepare** → bind → execute — and the expensive front half runs once
//! per statement, not once per request. The embedded connection *is* the
//! server's [`Engine`](astore_server::Engine) without a socket: its
//! statements run through the same stage functions, on typed values — the
//! shared plan cache, the core budget, the counters, group commit and,
//! when the engine is durable, the write-ahead log.
//!
//! ## Embedded quickstart
//!
//! ```
//! use astore_api::{Connection, EmbeddedConnection};
//! use astore_storage::prelude::*;
//!
//! // A tiny star schema: one dimension, one fact table.
//! let mut dim = Table::new("dim", Schema::new(vec![
//!     ColumnDef::new("d_name", DataType::Dict),
//! ]));
//! dim.append_row(&[Value::Str("alpha".into())]);
//! dim.append_row(&[Value::Str("beta".into())]);
//! let mut fact = Table::new("fact", Schema::new(vec![
//!     ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
//!     ColumnDef::new("f_v", DataType::I64),
//! ]));
//! let mut db = Database::new();
//! db.add_table(dim);
//! db.add_table(fact);
//!
//! let mut conn = EmbeddedConnection::new(db);
//!
//! // Writes: prepare once, bind many times.
//! let insert = conn.prepare("INSERT INTO fact VALUES (?, ?)")?;
//! for (key, v) in [(0, 10), (1, 20), (0, 30)] {
//!     conn.execute_prepared(&insert, &[Value::Int(key), Value::Int(v)])?;
//! }
//!
//! // Reads: the same prepare/bind flow, typed rows out.
//! let top = conn.prepare(
//!     "SELECT d_name, sum(f_v) AS total FROM fact, dim \
//!      WHERE f_v >= ? GROUP BY d_name ORDER BY total DESC",
//! )?;
//! assert_eq!(top.columns().unwrap(), ["d_name", "total"]);
//! let rows = conn.query_prepared(&top, &[Value::Int(15)])?;
//! let names: Vec<String> = rows
//!     .map(|row| format!("{}={}", row.as_str(0).unwrap(), row.as_i64(1).unwrap()))
//!     .collect();
//! assert_eq!(names, ["alpha=30", "beta=20"]);
//! # Ok::<(), astore_api::AstoreError>(())
//! ```
//!
//! ## Remote quickstart
//!
//! The same trait over TCP — the statement is prepared server-side once
//! and executed by id, so the hot path sends parameters, not SQL text:
//!
//! ```
//! use astore_api::{Connection, RemoteConnection};
//! use astore_server::{start, Engine, ServerConfig};
//! use astore_storage::prelude::*;
//! use astore_storage::snapshot::SharedDatabase;
//! use std::sync::Arc;
//!
//! # let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
//! # for i in 0..10 { t.append_row(&[Value::Int(i)]); }
//! # let mut db = Database::new();
//! # db.add_table(t);
//! let engine = Arc::new(Engine::new(SharedDatabase::new(db)));
//! let server = start(engine, ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() })?;
//!
//! let mut conn = RemoteConnection::connect(server.addr())?;
//! let stmt = conn.prepare("SELECT count(*) AS n FROM t WHERE v >= ?")?;
//! let mut rows = conn.query_prepared(&stmt, &[Value::Int(5)])?;
//! assert_eq!(rows.next().unwrap().as_i64(0), Some(5));
//! # server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Errors
//!
//! Every failure carries a stable code ([`AstoreError::code`]) matching
//! the wire protocol, and parse errors render caret diagnostics:
//!
//! ```
//! use astore_api::{Connection, EmbeddedConnection};
//! use astore_storage::catalog::Database;
//!
//! let mut conn = EmbeddedConnection::new(Database::new());
//! let err = conn.prepare("SELEKT 1").unwrap_err();
//! assert_eq!(err.code(), "parse_error");
//! assert!(err.render().contains("SELEKT"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod connection;
pub mod error;
pub mod rows;

pub use connection::{Connection, EmbeddedConnection, PreparedStatement, RemoteConnection};
pub use error::AstoreError;
pub use rows::{ColumnType, Row, Rows};

// The storage value type is the API's parameter/result scalar.
pub use astore_storage::types::Value;

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::prelude::*;

    fn star_db() -> Database {
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_name", DataType::Dict),
                ColumnDef::new("d_rank", DataType::I32),
            ]),
        );
        for (n, r) in [("alpha", 1), ("beta", 2)] {
            dim.append_row(&[Value::Str(n.into()), Value::Int(r)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        for (k, v) in [(0u32, 10i64), (1, 20), (0, 30)] {
            fact.append_row(&[Value::Key(k), Value::Int(v)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    #[test]
    fn embedded_end_to_end() {
        let mut conn = EmbeddedConnection::new(star_db());
        let stmt = conn
            .prepare("SELECT d_name, sum(f_v) AS s FROM fact, dim WHERE d_rank >= ? GROUP BY d_name ORDER BY d_name")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
        let rows = conn.query_prepared(&stmt, &[Value::Int(1)]).unwrap();
        assert_eq!(rows.len(), 2);
        let rows = conn.query_prepared(&stmt, &[Value::Int(2)]).unwrap();
        let collected: Vec<_> = rows.collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].as_str(0), Some("beta"));
        assert_eq!(collected[0].as_f64(1), Some(20.0));

        // Writes through the same connection are visible to later reads.
        let n = conn
            .execute("INSERT INTO fact VALUES (?, ?)", &[Value::Int(1), Value::Int(5)])
            .unwrap();
        assert_eq!(n, 1);
        let mut rows = conn.query("SELECT sum(f_v) AS s FROM fact", &[]).unwrap();
        assert_eq!(rows.next().unwrap().as_i64(0), Some(65));
    }

    #[test]
    fn usage_errors_are_typed() {
        let mut conn = EmbeddedConnection::new(star_db());
        let select = conn.prepare("SELECT count(*) FROM fact").unwrap();
        let e = conn.execute_prepared(&select, &[]).unwrap_err();
        assert_eq!(e.code(), "usage_error");
        let write = conn.prepare("DELETE FROM fact WHERE rowid = ?").unwrap();
        let e = conn.query_prepared(&write, &[Value::Int(0)]).unwrap_err();
        assert_eq!(e.code(), "usage_error");
    }

    #[test]
    fn error_codes_span_the_pipeline() {
        let mut conn = EmbeddedConnection::new(star_db());
        assert_eq!(conn.prepare("SELEKT 1").unwrap_err().code(), "parse_error");
        assert_eq!(conn.prepare("SELECT count(*) FROM ghost").unwrap_err().code(), "plan_error");
        let stmt = conn.prepare("SELECT count(*) FROM fact WHERE f_v > ?").unwrap();
        assert_eq!(conn.query_prepared(&stmt, &[]).unwrap_err().code(), "param_error");
        assert_eq!(
            conn.query_prepared(&stmt, &[Value::Str("x".into())]).unwrap_err().code(),
            "param_error"
        );
        assert_eq!(
            conn.execute("INSERT INTO fact VALUES (?, ?)", &[Value::Int(99), Value::Int(0)])
                .unwrap_err()
                .code(),
            "write_error",
            "dangling key caught by validation"
        );
    }

    #[test]
    fn write_parse_errors_draw_a_caret() {
        let mut conn = EmbeddedConnection::new(star_db());
        let sql = "DELETE FROM fact WHERE rowid = x";
        let err = conn.execute(sql, &[]).unwrap_err();
        assert_eq!(err.code(), "parse_error");
        let r = err.render();
        assert!(r.contains("expected row id, found x (at byte 31)"), "{r}");
        assert!(r.ends_with(&format!("\n  {sql}\n  {}^", " ".repeat(31))), "{r}");
    }

    /// The embedded connection is the server's engine: its statements land
    /// in the engine's counters, its writes commit in groups, and a second
    /// prepare of a parameterized template is a plan-cache hit.
    #[test]
    fn embedded_statements_run_through_the_engine() {
        use astore_server::Engine;
        use astore_storage::snapshot::SharedDatabase;
        use std::sync::atomic::Ordering::Relaxed;
        use std::sync::Arc;

        let engine = Arc::new(Engine::new(SharedDatabase::new(star_db())));
        let mut conn = EmbeddedConnection::over(Arc::clone(&engine));
        let sql = "SELECT sum(f_v) AS s FROM fact WHERE f_v >= ?";
        let select = conn.prepare(sql).unwrap();
        let insert = conn.prepare("INSERT INTO fact VALUES (?, ?)").unwrap();
        let (n, m) = (5u64, 3u64);
        for i in 0..n {
            conn.query_prepared(&select, &[Value::Int(i as i64 * 10)]).unwrap();
        }
        for i in 0..m {
            let params = [Value::Int(1), Value::Int(i as i64)];
            assert_eq!(conn.execute_prepared(&insert, &params).unwrap(), 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries.load(Relaxed), n);
        assert_eq!(stats.writes.load(Relaxed), m);
        assert!(stats.group_commits.load(Relaxed) >= 1);
        let hits = engine.cache().hits();
        let again = conn.prepare(sql).unwrap();
        assert_eq!(engine.cache().hits(), hits + 1, "the second prepare is a plan-cache hit");
        let mut rows = conn.query_prepared(&again, &[Value::Int(0)]).unwrap();
        assert_eq!(rows.next().unwrap().as_i64(0), Some(60 + 3), "the writes are visible");
    }

    #[test]
    fn remote_matches_embedded() {
        use astore_server::{start, Engine, ServerConfig};
        use astore_storage::snapshot::SharedDatabase;
        use std::sync::Arc;

        let engine = Arc::new(Engine::new(SharedDatabase::new(star_db())));
        let server = start(
            engine,
            ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
        )
        .unwrap();
        let mut remote = RemoteConnection::connect(server.addr()).unwrap();
        let mut embedded = EmbeddedConnection::new(star_db());

        let sql = "SELECT d_name, sum(f_v) AS s FROM fact, dim WHERE d_rank >= ? \
                   GROUP BY d_name ORDER BY d_name";
        let rs = remote.prepare(sql).unwrap();
        let es = embedded.prepare(sql).unwrap();
        assert_eq!(rs.param_count(), es.param_count());
        assert_eq!(rs.columns(), es.columns());
        assert_eq!(rs.column_types(), es.column_types());
        for rank in [1i64, 2, 3] {
            let r: Vec<Vec<Value>> = remote
                .query_prepared(&rs, &[Value::Int(rank)])
                .unwrap()
                .map(Row::into_values)
                .collect();
            let e: Vec<Vec<Value>> = embedded
                .query_prepared(&es, &[Value::Int(rank)])
                .unwrap()
                .map(Row::into_values)
                .collect();
            assert_eq!(r, e, "rank >= {rank}");
        }

        // Remote writes via execute frames.
        let ins = remote.prepare("INSERT INTO fact VALUES ($1, $2)").unwrap();
        assert_eq!(remote.execute_prepared(&ins, &[Value::Int(0), Value::Int(7)]).unwrap(), 1);
        let e = remote.execute_prepared(&ins, &[Value::Int(42), Value::Int(7)]).unwrap_err();
        assert_eq!(e.code(), "write_error");

        // Mixing connection flavours is a usage error.
        let e = remote.query_prepared(&es, &[Value::Int(1)]).unwrap_err();
        assert_eq!(e.code(), "usage_error");
        server.shutdown();
    }
}
