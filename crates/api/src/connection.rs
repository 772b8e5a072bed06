//! The [`Connection`] trait and its two implementations: embedded
//! (in-process, the server's [`Engine`] without a socket) and remote (TCP,
//! wire protocol v2). A [`PreparedStatement`] made by either flavour
//! exposes the same metadata, and query results come back as the same
//! typed [`Rows`] — code written against the trait runs unchanged over
//! either transport.

use std::sync::Arc;

use astore_core::exec::PlanInfo;
// Parameters are encoded with the server's own wire conversion, so the two
// sides cannot drift (Key → Int, etc.).
use astore_server::engine::value_to_json;
use astore_server::json::Json;
use astore_server::{Client, ClientError, Engine, Executed, SessionStatement};
use astore_sql::ColumnType;
use astore_storage::catalog::Database;
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::Value;

use crate::error::AstoreError;
use crate::rows::Rows;

/// A prepared statement handle: planned once, executable many times with
/// different parameter bindings. Created by [`Connection::prepare`]; use it
/// only with the connection (flavour) that created it.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    sql: String,
    param_count: usize,
    is_select: bool,
    columns: Option<Vec<String>>,
    column_types: Option<Vec<ColumnType>>,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    Embedded(SessionStatement),
    Remote { id: u64 },
}

impl PreparedStatement {
    /// The statement's canonical SQL text (embedded) or its source text
    /// (remote).
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of parameter values every execution must bind.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Is this a read-only SELECT?
    pub fn is_select(&self) -> bool {
        self.is_select
    }

    /// Output column names (SELECT only).
    pub fn columns(&self) -> Option<&[String]> {
        self.columns.as_deref()
    }

    /// Advertised output column types (SELECT only).
    pub fn column_types(&self) -> Option<&[ColumnType]> {
        self.column_types.as_deref()
    }

    /// A result set under this statement's prepare-time column names and
    /// types.
    fn rows(&self, rows: Vec<Vec<Value>>) -> Rows {
        Rows::new(
            self.columns.clone().unwrap_or_default(),
            self.column_types.clone().unwrap_or_default(),
            rows,
        )
    }

    /// A usage error unless this statement is of the kind — SELECT or
    /// write — the calling method runs.
    fn expect_select(&self, select: bool) -> Result<(), AstoreError> {
        let message = match (self.is_select, select) {
            (false, true) => "statement is a write; use execute_prepared",
            (true, false) => "statement is a SELECT; use query_prepared",
            _ => return Ok(()),
        };
        Err(AstoreError::Usage { message: message.into() })
    }

    /// The server-side statement id (remote statements only).
    pub fn remote_id(&self) -> Option<u64> {
        match self.inner {
            Inner::Remote { id } => Some(id),
            Inner::Embedded(_) => None,
        }
    }
}

/// One API over both deployment shapes of A-Store: prepare/bind/execute
/// with typed rows and structured errors.
///
/// The `query*` methods run SELECTs and return [`Rows`]; the `execute*`
/// methods run writes and return the number of affected rows. Using a
/// statement with the wrong method — or with a connection flavour that did
/// not prepare it — is a typed [`AstoreError::Usage`] error, never a
/// silent misfire.
pub trait Connection {
    /// Parses and plans `sql` (placeholders: `?` positional, `$n`
    /// numbered) into a reusable [`PreparedStatement`].
    fn prepare(&mut self, sql: &str) -> Result<PreparedStatement, AstoreError>;

    /// Executes a prepared SELECT with the given parameter values.
    fn query_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<Rows, AstoreError>;

    /// Executes a prepared write with the given parameter values,
    /// returning the number of affected rows.
    fn execute_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<u64, AstoreError>;

    /// One-shot SELECT: prepare, bind `params`, run.
    fn query(&mut self, sql: &str, params: &[Value]) -> Result<Rows, AstoreError> {
        let stmt = self.prepare(sql)?;
        self.query_prepared(&stmt, params)
    }

    /// One-shot write: prepare, bind `params`, apply.
    fn execute(&mut self, sql: &str, params: &[Value]) -> Result<u64, AstoreError> {
        let stmt = self.prepare(sql)?;
        self.execute_prepared(&stmt, params)
    }
}

// ---------------------------------------------------------------------------
// Embedded
// ---------------------------------------------------------------------------

/// An in-process connection: the server's [`Engine`] without a socket.
///
/// Statements run through the engine's own stages, on typed values: a
/// prepare plans through the shared plan cache, a query binds and executes
/// on AIR under the engine's core budget, and a write binds and goes
/// through group commit — logged to the write-ahead log before it is
/// acknowledged when the engine is durable. Every statement lands in the
/// engine's counters ([`Engine::stats`]), so several connections, or a
/// connection beside a server, share one engine and one set of numbers.
#[derive(Debug, Clone)]
pub struct EmbeddedConnection {
    engine: Arc<Engine>,
}

impl EmbeddedConnection {
    /// Wraps an owned database in an engine with the server's defaults
    /// ([`Engine::new`]).
    pub fn new(db: Database) -> Self {
        EmbeddedConnection::over(Arc::new(Engine::new(SharedDatabase::new(db))))
    }

    /// A connection over a shared engine — one built with explicit
    /// execution options, a durable one, or one a server also serves.
    pub fn over(engine: Arc<Engine>) -> Self {
        EmbeddedConnection { engine }
    }

    /// The engine this connection runs on.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// An O(1) read snapshot of the current database state.
    pub fn snapshot(&self) -> Arc<Database> {
        self.engine.database().snapshot()
    }

    /// Like [`Connection::query_prepared`], additionally returning the
    /// engine's plan diagnostics (executor, chain counts, selectivity).
    pub fn query_with_plan(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<(Rows, PlanInfo), AstoreError> {
        stmt.expect_select(true)?;
        let Executed::Select(answer) = self.run(stmt, params, false)? else {
            unreachable!("a SELECT runs to an answer")
        };
        Ok((stmt.rows(answer.out.result.rows), answer.out.plan))
    }

    /// Runs a statement through [`Engine::run_prepared`]: a SELECT to the
    /// engine's whole answer — rows, plan diagnostics and, with `analyze`,
    /// the `EXPLAIN ANALYZE` report — and a write to its row count.
    pub fn run(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
        analyze: bool,
    ) -> Result<Executed, AstoreError> {
        let Inner::Embedded(planned) = &stmt.inner else {
            return Err(AstoreError::Usage {
                message: "statement was prepared on a remote connection".into(),
            });
        };
        self.engine
            .run_prepared(planned, params, analyze)
            .map_err(|e| AstoreError::from_engine(e, &stmt.sql))
    }
}

impl Connection for EmbeddedConnection {
    fn prepare(&mut self, sql: &str) -> Result<PreparedStatement, AstoreError> {
        let planned = self.engine.prepare(sql).map_err(|e| AstoreError::from_engine(e, sql))?;
        let prepared = &planned.prepared;
        Ok(PreparedStatement {
            sql: prepared.sql().to_owned(),
            param_count: prepared.param_count(),
            is_select: prepared.is_select(),
            columns: prepared.columns().map(<[String]>::to_vec),
            column_types: prepared.column_types().map(<[ColumnType]>::to_vec),
            inner: Inner::Embedded(planned),
        })
    }

    fn query_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<Rows, AstoreError> {
        self.query_with_plan(stmt, params).map(|(rows, _)| rows)
    }

    fn execute_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<u64, AstoreError> {
        stmt.expect_select(false)?;
        let Executed::Write(n) = self.run(stmt, params, false)? else {
            unreachable!("a write runs to a row count")
        };
        Ok(n as u64)
    }
}

// ---------------------------------------------------------------------------
// Remote
// ---------------------------------------------------------------------------

/// A TCP connection to an `astore-serve` instance, speaking wire protocol
/// v2: statements are prepared server-side once and executed by id with
/// bound parameters — the hot path sends no SQL text at all.
#[derive(Debug)]
pub struct RemoteConnection {
    client: Client,
}

impl RemoteConnection {
    /// Connects to a server address (`host:port`).
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, AstoreError> {
        Ok(RemoteConnection { client: Client::connect(addr)? })
    }

    /// The server's `stats` payload.
    pub fn stats(&mut self) -> Result<Json, AstoreError> {
        self.client.stats().map_err(client_error)
    }

    /// The underlying wire-protocol client (escape hatch for raw frames).
    pub fn client_mut(&mut self) -> &mut Client {
        &mut self.client
    }

    fn remote_id(&self, stmt: &PreparedStatement) -> Result<u64, AstoreError> {
        match stmt.inner {
            Inner::Remote { id } => Ok(id),
            Inner::Embedded(_) => Err(AstoreError::Usage {
                message: "statement was prepared on an embedded connection".into(),
            }),
        }
    }

    fn run(&mut self, stmt: &PreparedStatement, params: &[Value]) -> Result<Json, AstoreError> {
        let id = self.remote_id(stmt)?;
        let params: Vec<Json> = params.iter().map(value_to_json).collect();
        let frame = self.client.execute(id, params).map_err(client_error)?;
        check_frame(frame, Some(id))
    }

    /// Executes a prepared SELECT once per parameter set, **pipelined**:
    /// every `execute` frame goes out in one write burst and the responses
    /// are read back in order — one network round-trip for the whole batch
    /// instead of one per execution. Results come back in `param_sets`
    /// order; the first error frame fails the batch.
    pub fn query_prepared_many(
        &mut self,
        stmt: &PreparedStatement,
        param_sets: &[&[Value]],
    ) -> Result<Vec<Rows>, AstoreError> {
        let id = self.remote_id(stmt)?;
        stmt.expect_select(true)?;
        let reqs: Vec<Json> = param_sets
            .iter()
            .map(|params| {
                Json::obj([(
                    "execute",
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        ("params", Json::Array(params.iter().map(value_to_json).collect())),
                    ]),
                )])
            })
            .collect();
        let frames = self.client.pipeline(&reqs).map_err(client_error)?;
        frames
            .into_iter()
            .map(|frame| check_frame(frame, Some(id)).map(|f| decode_rows(stmt, &f)))
            .collect()
    }
}

impl Connection for RemoteConnection {
    fn prepare(&mut self, sql: &str) -> Result<PreparedStatement, AstoreError> {
        let frame = self.client.prepare(sql).map_err(client_error)?;
        let frame = check_frame(frame, None)?;
        let id = frame
            .get("stmt_id")
            .and_then(Json::as_i64)
            .ok_or_else(|| protocol("prepare response lacks stmt_id"))?;
        let param_count = frame.get("param_count").and_then(Json::as_i64).unwrap_or(0);
        let is_select = frame.get("kind").and_then(Json::as_str) == Some("select");
        let columns = frame
            .get("columns")
            .and_then(Json::as_array)
            .map(|cs| cs.iter().filter_map(|c| c.as_str().map(str::to_owned)).collect::<Vec<_>>());
        let column_types = frame.get("column_types").and_then(Json::as_array).map(|ts| {
            ts.iter()
                .map(|t| match t.as_str() {
                    Some("int") => ColumnType::Int,
                    Some("str") => ColumnType::Str,
                    _ => ColumnType::Float,
                })
                .collect::<Vec<_>>()
        });
        Ok(PreparedStatement {
            sql: sql.to_owned(),
            param_count: param_count.max(0) as usize,
            is_select,
            columns,
            column_types,
            inner: Inner::Remote { id: id.max(0) as u64 },
        })
    }

    fn query_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<Rows, AstoreError> {
        stmt.expect_select(true)?;
        let frame = self.run(stmt, params)?;
        Ok(decode_rows(stmt, &frame))
    }

    fn execute_prepared(
        &mut self,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<u64, AstoreError> {
        stmt.expect_select(false)?;
        let frame = self.run(stmt, params)?;
        frame
            .get("rows_affected")
            .and_then(Json::as_i64)
            .map(|n| n.max(0) as u64)
            .ok_or_else(|| protocol("write response lacks rows_affected"))
    }
}

/// Decodes a successful SELECT result frame into typed [`Rows`], falling
/// back to the statement's prepare-time metadata when the frame omits
/// column names.
fn decode_rows(stmt: &PreparedStatement, frame: &Json) -> Rows {
    let columns: Vec<String> = frame
        .get("columns")
        .and_then(Json::as_array)
        .map(|cs| cs.iter().filter_map(|c| c.as_str().map(str::to_owned)).collect())
        .or_else(|| stmt.columns.clone())
        .unwrap_or_default();
    let types = stmt.column_types.clone().unwrap_or_else(|| vec![ColumnType::Float; columns.len()]);
    let rows: Vec<Vec<Value>> = frame
        .get("rows")
        .and_then(Json::as_array)
        .map(|rs| {
            rs.iter()
                .filter_map(Json::as_array)
                .map(|r| r.iter().map(json_to_value).collect())
                .collect()
        })
        .unwrap_or_default();
    Rows::new(columns, types, rows)
}

fn protocol(message: &str) -> AstoreError {
    AstoreError::Protocol { code: "protocol".into(), message: message.into() }
}

fn client_error(e: ClientError) -> AstoreError {
    match e {
        ClientError::Io(e) => AstoreError::Io(e),
        ClientError::Protocol(m) => AstoreError::Protocol { code: "protocol".into(), message: m },
    }
}

/// Turns an error frame into the matching [`AstoreError`]; passes success
/// frames through.
fn check_frame(frame: Json, stmt_id: Option<u64>) -> Result<Json, AstoreError> {
    if frame.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(frame);
    }
    let code = frame.get("code").and_then(Json::as_str).unwrap_or("unknown");
    let message = frame.get("error").and_then(Json::as_str).unwrap_or("(no message)").to_owned();
    Err(AstoreError::from_code(code, message, stmt_id))
}

/// Decodes one cell of a reply frame's `rows` — the one decoder, shared
/// with the CLI's remote mode. The server only ever emits scalars (see
/// [`value_to_json`]); anything else is rendered leniently rather than
/// failing the whole result set.
pub fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Int(x) => Value::Int(*x),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Null => Value::Null,
        other => Value::Str(other.to_string()),
    }
}
