//! The query engine behind the wire protocol: statement dispatch over a
//! [`SharedDatabase`], independent of any transport.
//!
//! One [`Engine`] is shared by every connection. Reads execute against an
//! O(1) copy-on-write snapshot ([`SharedDatabase::snapshot`]) so they never
//! block writers; writes commit in groups and become visible
//! atomically (a multi-row `INSERT` is one statement, so a concurrent
//! reader sees all of its rows or none).
//!
//! ## The statement path
//!
//! Every statement-shaped frame runs through the same stages, each one
//! named function:
//!
//! ```text
//! {"sql":…}     ─ parse ─ plan ─┐
//!                               ├─ bind ─┬─ SELECT: execute ─ reply
//! {"execute":…} ─ registry ─────┘        └─ write:  stage ─ commit ─ publish
//! ```
//!
//! - `parse` turns SQL text into its canonical template: WHERE literals
//!   are lifted into parameter slots, so SSB Q1.1 with different date
//!   literals is one template, and identifiers are case-folded.
//! - `Engine::plan` looks the template up in the shared [`PlanCache`] and
//!   plans it on a miss. Protocol v2 (`{"prepare":…}` /
//!   `{"execute":{"id":…,"params":[…]}}` frames, per-session
//!   [`StatementRegistry`]) skips both: the session holds the plan.
//! - `bind` fills the parameter slots — the lifted literals or the
//!   client's parameters — and is the one place a bad value is reported.
//! - `Engine::execute` runs it on AIR, the one served engine: the
//!   join-free scan, fanned out over the cores the [`CoreBudget`] has
//!   free; `reply` builds the result frame. The hash-join and
//!   denormalized baselines the paper measures AIR against live in
//!   `astore-baseline`, outside the server.
//! - Writes go to `Engine::stage` and commit in groups (module `commit`):
//!   one batch leader validates and applies, appends to the write-ahead
//!   log with one fsync and publishes the new catalog image with one
//!   pointer swap.
//!
//! The stages pass typed values and one [`EngineError`]; JSON appears only
//! at the wire edge (`reply`, [`error_frame`]). `astore-api`'s embedded
//! connection is the path without that edge: it calls [`Engine::prepare`]
//! and [`Engine::run_prepared`], the functions behind `{"prepare":…}` and
//! `{"execute":…}` frames.
//!
//! Checkpoints and compaction run beside the path, on the server's
//! maintenance thread ([`Engine::run_maintenance`], module
//! `maintenance`).
//!
//! `EXPLAIN` stops before `execute`; `EXPLAIN ANALYZE` runs the whole path
//! with a span recorder attached.

mod commit;
mod maintenance;

pub use maintenance::COMPACT_QUIET;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use astore_core::exec::{execute_granted, plan_selection, ExecOptions, ExecOutput};
use astore_core::host_cores;
use astore_core::query::Query;
use astore_obs::TraceBuf;
use astore_persist::wal::Wal;
use astore_sql::parse_template;
use astore_sql::prepared::{
    canonicalize, extract_select_params, prepare_template, BoundStatement, PrepareError, Prepared,
};
use astore_sql::statement::{strip_explain, strip_explain_analyze, StatementTemplate};
use astore_storage::catalog::Database;
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::Value;

use crate::budget::CoreBudget;
use crate::cache::PlanCache;
use crate::json::Json;
use crate::metrics::{render_prometheus, SlowLog, TemplateStats};
use crate::session::{SessionStatement, StatementRegistry};
use crate::stats::{EngineSources, Footprint, ServerStats, Sources};

use self::commit::CommitState;
use self::maintenance::{seal_all, UnsealedSegments};

/// Machine-readable error codes of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request frame is not valid JSON or lacks a recognized member.
    BadRequest,
    /// SQL lexing/parsing failed.
    ParseError,
    /// Planning failed (unknown table/column, invalid join, …).
    PlanError,
    /// Query execution failed (binding error at run time).
    ExecError,
    /// A write statement was rejected (unknown table, arity/type mismatch,
    /// dangling key, dead row, …).
    WriteError,
    /// An `{"execute":…}` frame named a statement id this session never
    /// prepared (or one that was closed/evicted).
    UnknownStatement,
    /// Parameter binding failed: wrong parameter count, or a value whose
    /// kind cannot satisfy the column its slot is compared against.
    ParamError,
    /// Admission control shed the request: the worker queue is full.
    ServerBusy,
    /// The connection limit was reached; this connection is being closed.
    TooManyConnections,
    /// The worker running the statement panicked.
    InternalError,
}

impl ErrorCode {
    /// The wire name of the code.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::ParseError => "parse_error",
            ErrorCode::PlanError => "plan_error",
            ErrorCode::ExecError => "exec_error",
            ErrorCode::WriteError => "write_error",
            ErrorCode::UnknownStatement => "unknown_statement",
            ErrorCode::ParamError => "param_error",
            ErrorCode::ServerBusy => "server_busy",
            ErrorCode::TooManyConnections => "too_many_connections",
            ErrorCode::InternalError => "internal_error",
        }
    }
}

/// Builds an `{"ok":false,"code":…,"error":…}` frame.
pub fn error_frame(code: ErrorCode, message: impl Into<String>) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("code", Json::Str(code.as_str().to_owned())),
        ("error", Json::Str(message.into())),
    ])
}

/// Why a stage failed: the error code, the message and, for a parse
/// error, the byte span of the offending token. The wire edge turns it
/// into an error frame; the embedded connection into its client error.
#[derive(Debug, Clone)]
pub struct EngineError {
    /// The error code.
    pub code: ErrorCode,
    /// Description.
    pub message: String,
    /// Byte range of the offending token in the SQL text (parse errors).
    pub span: Option<(usize, usize)>,
}

impl EngineError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        EngineError { code, message: message.into(), span: None }
    }
}

impl From<PrepareError> for EngineError {
    fn from(e: PrepareError) -> Self {
        match e {
            PrepareError::Parse(e) => {
                EngineError { code: ErrorCode::ParseError, message: e.to_string(), span: e.span }
            }
            PrepareError::Plan(e) => EngineError::new(ErrorCode::PlanError, e.to_string()),
        }
    }
}

impl From<EngineError> for Json {
    fn from(e: EngineError) -> Json {
        error_frame(e.code, e.message)
    }
}

/// What a SELECT's execute stage hands on: the engine's output and, under
/// `EXPLAIN ANALYZE`, the report (a header line, then the executed plan
/// with its spans).
#[derive(Debug)]
pub struct Answer {
    /// Rows and plan diagnostics.
    pub out: ExecOutput,
    /// The `EXPLAIN ANALYZE` report, when a span recorder was attached.
    pub analyze: Option<Vec<String>>,
}

/// What running a planned statement produced.
#[derive(Debug)]
pub enum Executed {
    /// A SELECT's answer.
    Select(Box<Answer>),
    /// A write's affected-row count.
    Write(usize),
}

/// The durability attachment of an [`Engine`]: the data directory and its
/// open write-ahead log.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    wal: Mutex<Wal>,
    /// Auto-checkpoint once this many records accumulate (0 = only on
    /// explicit `{"cmd":"checkpoint"}`).
    checkpoint_every: u64,
    /// Set by the committing leader when the WAL crossed
    /// `checkpoint_every`; consumed by [`Engine::run_maintenance`].
    checkpoint_due: AtomicBool,
}

impl Durability {
    /// Wraps an open WAL rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>, wal: Wal, checkpoint_every: u64) -> Self {
        Durability {
            dir: dir.into(),
            wal: Mutex::new(wal),
            checkpoint_every,
            checkpoint_due: AtomicBool::new(false),
        }
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// The shared serving engine: database handle, plan cache, counters, and
/// the global core budget shared by inter- and intra-query parallelism.
#[derive(Debug)]
pub struct Engine {
    db: SharedDatabase,
    cache: PlanCache,
    stats: ServerStats,
    templates: TemplateStats,
    slowlog: SlowLog,
    opts: ExecOptions,
    budget: Arc<CoreBudget>,
    durability: Option<Durability>,
    /// Write staging area (see `commit`).
    commit: Mutex<CommitState>,
    /// Serializes catalog publication: the batch leader, the brief latched
    /// phases of a checkpoint, and compactor installs. Never held across
    /// snapshot encoding or while a response is being written — WAL fsync
    /// is the only I/O under it (that *is* the commit point).
    commit_lock: Mutex<()>,
    /// One checkpoint at a time.
    checkpoint_lock: Mutex<()>,
    /// The compactor's memory between passes (see
    /// [`Engine::run_compaction_pass`]).
    unsealed_since: Mutex<HashMap<String, UnsealedSegments>>,
}

impl Engine {
    /// Wraps a shared database with default execution options and a
    /// per-query fan-out ceiling of the host's cores: a statement whose
    /// surviving segments give every worker two of them
    /// ([`astore_core::optimizer::OptimizerConfig::parallel_min_rows_per_thread`])
    /// scans on the cores the [`CoreBudget`] has free; any other runs on
    /// its own worker thread alone.
    pub fn new(db: SharedDatabase) -> Self {
        Engine::with_options(db, ExecOptions::default().threads(host_cores()))
    }

    /// Wraps a shared database with explicit per-query execution options.
    ///
    /// `opts.threads` is the per-query fan-out *ceiling* (`--engine-threads`
    /// on `astore-serve`, the host's cores unless given; `ExecOptions`'
    /// default of 1 serves serially). Each query's actual thread count is
    /// decided at run time: the planner clamps it to the estimated scan
    /// size, and the [`CoreBudget`] — sized to the machine's available
    /// parallelism — grants only the cores not already busy serving other
    /// statements. An `opts.threads` above the host's parallelism does not
    /// inflate the budget (that would oversubscribe every statement at
    /// once); it is kept as the per-query ceiling but the budget clamps to
    /// real cores.
    pub fn with_options(db: SharedDatabase, opts: ExecOptions) -> Self {
        let budget = Arc::new(CoreBudget::new(host_cores()));
        let engine = Engine {
            db,
            cache: PlanCache::default(),
            stats: ServerStats::new(),
            templates: TemplateStats::new(),
            slowlog: SlowLog::default(),
            opts,
            budget,
            durability: None,
            commit: Mutex::new(CommitState::default()),
            commit_lock: Mutex::new(()),
            checkpoint_lock: Mutex::new(()),
            unsealed_since: Mutex::default(),
        };
        // Seal whatever the boot image carried flat (a v1/v2 snapshot, the
        // chunks a WAL replay decoded, a hand-built database). A generated
        // or checkpointed image arrives sealed and this finds nothing to
        // do. Boot only — once the engine is shared, mutation outside the
        // commit lock would race the group-commit leader; checkpoints seal
        // under the commit lock instead.
        engine.db.write(seal_all);
        engine
    }

    /// Sets the slow-query capture threshold in milliseconds
    /// (`--slow-ms`; 0 = capture off).
    pub fn slow_ms(self, ms: u64) -> Self {
        self.slowlog.set_threshold_ms(ms);
        self
    }

    /// Overrides the core-budget size (tests; production sizing is
    /// automatic in [`Engine::with_options`]).
    pub fn core_budget(mut self, total: usize) -> Self {
        self.budget = Arc::new(CoreBudget::new(total));
        self
    }

    /// The global core budget.
    pub fn budget(&self) -> &CoreBudget {
        &self.budget
    }

    /// A shareable handle to the core budget, for wiring the same permit
    /// pool into the scheduler's scan gate
    /// ([`crate::sched::ClassQueues::new`]).
    pub fn budget_handle(&self) -> Arc<CoreBudget> {
        Arc::clone(&self.budget)
    }

    /// Attaches a durability layer: writes are WAL-logged before they are
    /// acknowledged, and checkpoints fold the log into the snapshot.
    pub fn durable(mut self, durability: Durability) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Records how this engine's image was recovered — the stages and
    /// replay count of [`astore_persist::Recovered`] — for the `boot_*`
    /// members of `{"cmd":"stats"}` and gauges of `{"cmd":"metrics"}`.
    pub fn booted(self, snapshot: Duration, replay: Duration, replayed: usize) -> Self {
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        self.stats.boot_snapshot_us.store(micros(snapshot), Ordering::Relaxed);
        self.stats.boot_replay_us.store(micros(replay), Ordering::Relaxed);
        self.stats.boot_replayed.store(replayed as u64, Ordering::Relaxed);
        self
    }

    /// The attached durability layer, if any.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// The underlying shared database handle.
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// What an exposition of this engine reads: its counters, plan cache,
    /// templates, slow log, budget and options, and the footprint of the
    /// image it serves, walked now.
    fn sources(&self) -> Sources<'_> {
        let snap = self.db.snapshot();
        Sources {
            footprint: Footprint::of(&snap),
            engine: Some(EngineSources {
                templates: &self.templates,
                slowlog: &self.slowlog,
                budget: &self.budget,
                threads: self.opts.threads,
                db_version: snap.version(),
            }),
            ..Sources::new(&self.stats, &self.cache)
        }
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Per-canonical-template latency histograms.
    pub fn templates(&self) -> &TemplateStats {
        &self.templates
    }

    /// The slow-query ring buffer.
    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// Records one finished statement under its canonical template: the
    /// per-template latency series plus, above the `--slow-ms` threshold,
    /// the slow-query ring. `t` is the statement's own start instant (a
    /// hair tighter than the `timed` wrapper's, which also covers frame
    /// assembly — close enough for per-shape monitoring).
    fn observe_template(&self, key: &str, t: Instant) {
        let us = t.elapsed().as_micros() as u64;
        self.templates.record(key, us);
        self.slowlog.observe(key, us);
    }

    /// Handles one raw request line with a throwaway statement registry —
    /// convenient for callers that never send prepare/execute frames.
    pub fn handle_line(&self, line: &str) -> Json {
        let mut session = StatementRegistry::default();
        self.handle_line_session(line, &mut session)
    }

    /// Handles one raw request line against a connection's statement
    /// registry and returns the response frame.
    pub fn handle_line_session(&self, line: &str, session: &mut StatementRegistry) -> Json {
        let req = match crate::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.stats.errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return error_frame(ErrorCode::BadRequest, e.to_string());
            }
        };
        self.handle_request(&req, session)
    }

    /// Runs a statement-shaped request, recording its latency and
    /// stamping `elapsed_us` into a success frame.
    fn timed(&self, f: impl FnOnce() -> Result<Json, Json>) -> Result<Json, Json> {
        let t = Instant::now();
        let resp = f();
        let us = t.elapsed().as_micros() as u64;
        self.stats.latency.record(us);
        resp.map(|mut ok| {
            if let Json::Object(m) = &mut ok {
                m.insert("elapsed_us".into(), Json::Int(us as i64));
            }
            ok
        })
    }

    /// Handles one parsed request frame; a failed one bumps the error
    /// counter.
    pub fn handle_request(&self, req: &Json, session: &mut StatementRegistry) -> Json {
        let resp = if let Some(sql) = req.get("sql").and_then(Json::as_str) {
            self.timed(|| self.run_statement(sql))
        } else if let Some(sql) = req.get("prepare").and_then(Json::as_str) {
            self.run_prepare(sql, session)
        } else if let Some(ex) = req.get("execute") {
            self.timed(|| self.run_execute(ex, session))
        } else if let Some(id) = req.get("close") {
            match id.as_i64() {
                Some(id) if id >= 0 => {
                    let closed = session.close(id as u64);
                    Ok(Json::obj([("ok", Json::Bool(true)), ("closed", Json::Bool(closed))]))
                }
                _ => Err(error_frame(ErrorCode::BadRequest, "\"close\" takes a statement id")),
            }
        } else if let Some(cmd) = req.get("cmd").and_then(Json::as_str) {
            match cmd {
                "stats" => {
                    Ok(Json::obj([("ok", Json::Bool(true)), ("stats", self.sources().to_json())]))
                }
                "metrics" => {
                    let body = Json::Str(render_prometheus(&self.sources()));
                    Ok(Json::obj([("ok", Json::Bool(true)), ("metrics", body)]))
                }
                "slowlog" => {
                    Ok(Json::obj([("ok", Json::Bool(true)), ("slowlog", self.slowlog.to_json())]))
                }
                "ping" => Ok(Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))])),
                "checkpoint" => self
                    .checkpoint()
                    .map(|(lsn, bytes)| {
                        Json::obj([
                            ("ok", Json::Bool(true)),
                            ("lsn", Json::Int(lsn as i64)),
                            ("snapshot_bytes", Json::Int(bytes as i64)),
                        ])
                    })
                    .map_err(|e| error_frame(ErrorCode::BadRequest, e)),
                other => Err(error_frame(ErrorCode::BadRequest, format!("unknown cmd {other:?}"))),
            }
        } else {
            Err(error_frame(
                ErrorCode::BadRequest,
                "request needs a \"sql\", \"prepare\", \"execute\", \"close\" or \"cmd\" member",
            ))
        };
        resp.unwrap_or_else(|frame| {
            self.stats.errors.fetch_add(1, Ordering::Relaxed);
            frame
        })
    }

    /// The text path (`{"sql":…}`): `SET engine`, or a statement — with an
    /// optional `EXPLAIN` / `EXPLAIN ANALYZE` prefix — through the stages.
    /// Two literal variants of the same query, or two formattings of it,
    /// share one plan.
    fn run_statement(&self, sql: &str) -> Result<Json, Json> {
        if let Some(set) = parse_set_engine(sql) {
            return set.map(|()| Json::obj([("ok", Json::Bool(true)), ("engine", air())]));
        }
        let (mode, sql) = if let Some(inner) = strip_explain_analyze(sql) {
            (Mode::Analyze, inner)
        } else if let Some(inner) = strip_explain(sql) {
            (Mode::Explain, inner)
        } else {
            (Mode::Run, sql)
        };
        let Parsed { tmpl, key, lifted, explicit_params } = parse(sql, true)?;
        if mode != Mode::Run && !tmpl.is_select() {
            let prefix = if mode == Mode::Explain { "EXPLAIN" } else { "EXPLAIN ANALYZE" };
            return Err(error_frame(
                ErrorCode::PlanError,
                format!("{prefix} supports SELECT statements only"),
            ));
        }
        // This statement's worker thread occupies one core for the
        // duration; the budget must know so concurrent queries' fan-out
        // grants shrink accordingly.
        let _slot = (mode != Mode::Explain).then(|| self.budget.enter_statement());
        let t = Instant::now();
        let out = match tmpl {
            // Text-mode writes carry no parameters; a placeholder here is
            // a param error (prepare/execute is the parameterized path).
            StatementTemplate::Write(w) => w
                .bind(&[])
                .map_err(|e| EngineError::new(ErrorCode::ParamError, e.to_string()))
                .and_then(|w| self.stage(w))
                .map(affected),
            select => {
                let snap = self.db.snapshot();
                let (prepared, cached) = self.plan(select, &key, &snap, true)?;
                // Literals the server lifted out are not the client's
                // parameters: their type errors are plan errors.
                let code =
                    if explicit_params { ErrorCode::ParamError } else { ErrorCode::PlanError };
                let BoundStatement::Select(query) = bind(&prepared, &lifted, code)? else {
                    unreachable!("a SELECT template binds to a SELECT")
                };
                if mode == Mode::Explain {
                    return Ok(self.explain(&snap, &query, &key, cached)?);
                }
                self.select(&snap, &query, mode == Mode::Analyze)
                    .map(|answer| reply(&answer, cached))
            }
        };
        if out.is_ok() {
            self.observe_template(&key, t);
        }
        Ok(out?)
    }

    /// The `{"prepare":…}` path: [`Engine::prepare`], then register the
    /// statement in the session's registry.
    fn run_prepare(&self, sql: &str, session: &mut StatementRegistry) -> Result<Json, Json> {
        let SessionStatement { key, prepared } = self.prepare(sql)?;
        let strings = |xs: Vec<String>| Json::Array(xs.into_iter().map(Json::Str).collect());
        let kind = if prepared.is_select() { "select" } else { "write" };
        let mut frame = vec![
            ("ok", Json::Bool(true)),
            ("param_count", Json::Int(prepared.param_count() as i64)),
            ("kind", Json::Str(kind.into())),
        ];
        frame.extend(prepared.columns().map(|cs| ("columns", strings(cs.to_vec()))));
        frame.extend(
            prepared
                .column_types()
                .map(|ts| ("column_types", strings(ts.iter().map(ToString::to_string).collect()))),
        );
        let (id, evicted) = session.register(key, prepared);
        frame.push(("stmt_id", Json::Int(id as i64)));
        frame.extend(evicted.map(|old| ("evicted_stmt", Json::Int(old as i64))));
        Ok(Json::obj(frame))
    }

    /// The `{"execute":{"id":…,"params":[…]}}` path: look the statement up
    /// in the session registry, then [`Engine::run_prepared`]. No SQL text
    /// is parsed here — this is the bind-per-request hot path.
    fn run_execute(&self, ex: &Json, session: &StatementRegistry) -> Result<Json, Json> {
        let id = ex.get("id").and_then(Json::as_i64).filter(|id| *id >= 0).ok_or_else(|| {
            error_frame(ErrorCode::BadRequest, "\"execute\" needs a statement \"id\"")
        })?;
        let registered = session.get(id as u64).ok_or_else(|| {
            error_frame(
                ErrorCode::UnknownStatement,
                format!("statement {id} is not prepared in this session"),
            )
        })?;
        let params = match ex.get("params") {
            None => Vec::new(),
            Some(Json::Array(items)) => items
                .iter()
                .map(json_to_param)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|m| error_frame(ErrorCode::ParamError, m))?,
            Some(_) => {
                return Err(error_frame(ErrorCode::BadRequest, "\"params\" must be an array"))
            }
        };
        Ok(match self.run_prepared(&registered, &params, false)? {
            Executed::Select(answer) => reply(&answer, true),
            Executed::Write(n) => affected(n),
        })
    }

    /// Parses and plans `sql` into a reusable statement: the prepare path
    /// of `{"prepare":…}` frames and of the embedded connection. WHERE
    /// literals stay inline; a fully parameterized SELECT is planned
    /// through the shared plan cache.
    pub fn prepare(&self, sql: &str) -> Result<SessionStatement, EngineError> {
        let Parsed { tmpl, key, .. } = parse(sql, false)?;
        // Only fully parameterized SELECTs go through the shared plan
        // cache: write templates carry no plan, and a SELECT with inline
        // WHERE literals would key per-literal — a client preparing fresh
        // literal SQL each request could flood the FIFO and evict the hot
        // shared templates. (The text path lifts literals before keying,
        // so its templates are always cacheable.)
        let cacheable = tmpl.is_select() && !tmpl.has_predicate_literals();
        let (prepared, _) = self.plan(tmpl, &key, &self.db.snapshot(), cacheable)?;
        self.stats.prepares.fetch_add(1, Ordering::Relaxed);
        Ok(SessionStatement { key: Arc::from(key), prepared })
    }

    /// Runs a prepared statement with `params`: bind, then a SELECT's
    /// execute stage (with a span recorder when `analyze`) or a write's
    /// stage → commit. The statement holds a core-budget slot throughout.
    /// Serves `{"execute":…}` frames and the embedded connection alike.
    pub fn run_prepared(
        &self,
        stmt: &SessionStatement,
        params: &[Value],
        analyze: bool,
    ) -> Result<Executed, EngineError> {
        let _slot = self.budget.enter_statement();
        self.stats.prepared_execs.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let out = match bind(&stmt.prepared, params, ErrorCode::ParamError)? {
            BoundStatement::Select(query) => self
                .select(&self.db.snapshot(), &query, analyze)
                .map(|a| Executed::Select(Box::new(a))),
            BoundStatement::Write(write) => self.stage(write).map(Executed::Write),
        };
        if out.is_ok() {
            self.observe_template(&stmt.key, t);
        }
        out
    }

    /// The plan stage: the plan of a canonical template, from the shared
    /// plan cache when `cacheable`, planned against `snap` (and cached)
    /// otherwise. Returns the plan and whether the cache served it.
    fn plan(
        &self,
        tmpl: StatementTemplate,
        key: &str,
        snap: &Database,
        cacheable: bool,
    ) -> Result<(Arc<Prepared>, bool), EngineError> {
        if let Some(p) = cacheable.then(|| self.cache.get(key)).flatten() {
            return Ok((p, true));
        }
        let p = Arc::new(prepare_template(tmpl, snap)?);
        if cacheable {
            self.cache.insert(key.to_owned(), Arc::clone(&p));
        }
        Ok((p, false))
    }

    /// A bound SELECT through the execute stage, counted. With `analyze`
    /// (`EXPLAIN ANALYZE`) spans are recorded during execution and the
    /// answer carries the report.
    fn select(
        &self,
        snap: &Arc<Database>,
        query: &Query,
        analyze: bool,
    ) -> Result<Answer, EngineError> {
        let trace = analyze.then(|| Arc::new(TraceBuf::new()));
        let t = Instant::now();
        let (out, want) = self.execute(snap, query, &trace)?;
        let execute_us = t.elapsed().as_micros() as u64;
        self.record_select(&out, want, execute_us);
        let analyze = trace.map(|trace| {
            std::iter::once(format!("engine: air elapsed={execute_us}us"))
                .chain(astore_core::analyze::render_analyze(&out, &trace))
                .collect()
        });
        Ok(Answer { out, analyze })
    }

    /// The execute stage: the AIR scan, fanned out under the core budget's
    /// grant. Zero grant = serial — never blocking, never oversubscribing.
    /// The request is sized by the executor from the rows its zone-map
    /// survey keeps, so a pruned statement asks for no permit it would not
    /// use. Returns the output and the fan-out the executor asked for.
    fn execute(
        &self,
        snap: &Arc<Database>,
        query: &Query,
        trace: &Option<Arc<TraceBuf>>,
    ) -> Result<(ExecOutput, usize), EngineError> {
        let mut exec_opts = self.opts.clone();
        if let Some(t) = trace {
            exec_opts = exec_opts.trace(Arc::clone(t));
        }
        let mut want = 1;
        let out = execute_granted(snap, query, &exec_opts, |threads| {
            want = threads;
            let extra = self.budget.try_extra(threads - 1);
            (1 + extra.held(), extra)
        })
        .map_err(|e| EngineError::new(ErrorCode::ExecError, e.to_string()))?;
        Ok((out, want))
    }

    /// Counts one executed SELECT: its execute-stage latency, and the
    /// scan's segment and fan-out counters. `want` is the fan-out the
    /// executor asked for.
    fn record_select(&self, out: &ExecOutput, want: usize, execute_us: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.stats.execute_latency.record(execute_us);
        let plan = &out.plan;
        let parallel = plan.executor.is_parallel();
        // The planner wanted to fan out but the query ran serial (budget
        // exhausted or final row-count clamp). A fully-pruned scan is
        // excluded: zone maps proving there is nothing to scan is not a
        // denial.
        let denied = !parallel && want > 1 && plan.segments_scanned > 0;
        // One statement's counter updates form one seqlock write group, so
        // a concurrent stats snapshot sees all of them or none (e.g. never
        // pruned bumped but scanned not yet).
        let _group = self.stats.group.begin_write();
        if parallel {
            self.stats.parallel_queries.fetch_add(1, Relaxed);
        } else if denied {
            self.stats.parallel_denied.fetch_add(1, Relaxed);
        }
        self.stats.segments_scanned.fetch_add(plan.segments_scanned as u64, Relaxed);
        self.stats.segments_pruned.fetch_add(plan.segments_pruned as u64, Relaxed);
        self.stats.queries.fetch_add(1, Relaxed);
    }

    /// Bare `EXPLAIN <select>`: the path up to `execute`, without executing
    /// anything — the engine, the canonical template and the selection
    /// plan.
    fn explain(
        &self,
        snap: &Database,
        query: &Query,
        key: &str,
        cached: bool,
    ) -> Result<Json, EngineError> {
        let selection = plan_selection(snap, query, &self.opts)
            .map_err(|e| EngineError::new(ErrorCode::ExecError, e.to_string()))?;
        let lines = [
            "engine: air".to_owned(),
            format!("template: {key}"),
            format!("selection: {selection}"),
        ];
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("engine", air()),
            ("cached_plan", Json::Bool(cached)),
            ("explain", Json::Array(lines.into_iter().map(Json::Str).collect())),
        ]))
    }
}

/// Which prefix a text statement carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No prefix: run the statement.
    Run,
    /// `EXPLAIN`: stop before `execute`.
    Explain,
    /// `EXPLAIN ANALYZE`: run with a span recorder attached.
    Analyze,
}

/// What the parse stage hands on.
struct Parsed {
    /// The canonical template: identifiers case-folded, lifted literals
    /// replaced by parameter slots.
    tmpl: StatementTemplate,
    /// Its canonical text, the plan-cache and template-stats key.
    key: String,
    /// The literals lifted out of the WHERE clause, in slot order.
    lifted: Vec<Value>,
    /// Whether the client wrote placeholders itself.
    explicit_params: bool,
}

/// The parse stage: SQL text to its canonical template. With `lift`, WHERE
/// literals become parameter slots (the text path), so literal variants of
/// one query share a template; a prepared statement keeps them inline.
fn parse(sql: &str, lift: bool) -> Result<Parsed, EngineError> {
    let mut tmpl = parse_template(sql).map_err(PrepareError::Parse)?;
    let explicit_params = tmpl.param_count() > 0;
    let lifted = if lift { extract_select_params(&mut tmpl) } else { Vec::new() };
    let key = canonicalize(&mut tmpl);
    Ok(Parsed { tmpl, key, lifted, explicit_params })
}

/// The bind stage: a plan plus its parameters become the statement to
/// run. `code` is what a failure reports: `param_error` when the client
/// supplied the parameters, `plan_error` when they are literals the text
/// path lifted out (the client never wrote a `$n`).
fn bind(
    prepared: &Prepared,
    params: &[Value],
    code: ErrorCode,
) -> Result<BoundStatement, EngineError> {
    prepared.bind(params).map_err(|e| match code {
        ErrorCode::PlanError => {
            EngineError::new(code, format!("type mismatch in predicate literal: {e}"))
        }
        code => EngineError::new(code, e.to_string()),
    })
}

/// The `engine` member of a result, `EXPLAIN` or `SET engine` frame: AIR
/// answers every statement.
fn air() -> Json {
    Json::Str("air".to_owned())
}

/// The reply stage: a SELECT's result frame. Under `EXPLAIN ANALYZE` the
/// frame gains an `analyze` member: the header, then the executed plan
/// with its spans.
fn reply(answer: &Answer, cached: bool) -> Json {
    let (out, result) = (&answer.out, &answer.out.result);
    let mut frame = Json::obj([
        ("ok", Json::Bool(true)),
        ("columns", Json::Array(result.columns.iter().cloned().map(Json::Str).collect())),
        (
            "rows",
            Json::Array(
                result
                    .rows
                    .iter()
                    .map(|r| Json::Array(r.iter().map(value_to_json).collect()))
                    .collect(),
            ),
        ),
        ("row_count", Json::Int(result.rows.len() as i64)),
        ("cached_plan", Json::Bool(cached)),
        ("engine", air()),
        ("segments_scanned", Json::Int(out.plan.segments_scanned as i64)),
        ("segments_pruned", Json::Int(out.plan.segments_pruned as i64)),
    ]);
    if let (Some(lines), Json::Object(m)) = (&answer.analyze, &mut frame) {
        m.insert("analyze".into(), Json::Array(lines.iter().cloned().map(Json::Str).collect()));
    }
    frame
}

/// A write's reply frame.
fn affected(n: usize) -> Json {
    Json::obj([("ok", Json::Bool(true)), ("rows_affected", Json::Int(n as i64))])
}

/// Recognizes `SET engine = <value>` (case-insensitive, `=` optional,
/// trailing `;` tolerated). `None` = not a SET-engine statement. AIR is
/// the one served engine, so `air` and `auto` (the server's choice) are
/// accepted and change nothing; any other value is a `plan_error`, and a
/// missing one a `parse_error`.
pub(crate) fn parse_set_engine(sql: &str) -> Option<Result<(), Json>> {
    let s = sql.trim().trim_end_matches(';').trim();
    let mut words = s.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("set") {
        return None;
    }
    let rest = words.collect::<Vec<_>>().join(" ");
    let lower = rest.to_ascii_lowercase();
    let after = lower.strip_prefix("engine")?;
    let value = after.trim_start().trim_start_matches('=').trim();
    Some(match value {
        "air" | "auto" => Ok(()),
        "" => Err(error_frame(ErrorCode::ParseError, "SET engine takes a value: air|auto")),
        other => Err(error_frame(
            ErrorCode::PlanError,
            format!(
                "engine {other:?} is not served: AIR is the only engine (SET engine = air|auto)"
            ),
        )),
    })
}

/// Converts one wire parameter to a storage value. Booleans and nested
/// structures have no column type to land in.
fn json_to_param(j: &Json) -> Result<Value, String> {
    match j {
        Json::Int(x) => Ok(Value::Int(*x)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Null => Ok(Value::Null),
        other => Err(format!("parameter {other} is not a scalar (int, float, string or null)")),
    }
}

/// Converts a storage value into its wire representation.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(x) => Json::Int(*x),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Key(k) => Json::Int(i64::from(*k)),
        Value::Null => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::catalog::Database;
    use astore_storage::segment::SEGMENT_ROWS;
    use astore_storage::snapshot::SharedDatabase;
    use astore_storage::table::{ColumnDef, Schema, Table};
    use astore_storage::types::DataType;

    /// A two-table star: `dim` (two names) and a three-row `fact`.
    pub(super) fn engine() -> Engine {
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_name", DataType::Dict),
                ColumnDef::new("d_rank", DataType::I32),
            ]),
        );
        dim.append_row(&[Value::Str("alpha".into()), Value::Int(1)]);
        dim.append_row(&[Value::Str("beta".into()), Value::Int(2)]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Int(10)]);
        fact.append_row(&[Value::Key(1), Value::Int(20)]);
        fact.append_row(&[Value::Key(0), Value::Int(30)]);
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        Engine::new(SharedDatabase::new(db))
    }

    pub(super) fn sql(e: &Engine, s: &str) -> Json {
        e.handle_line(&Json::obj([("sql", Json::Str(s.into()))]).to_string())
    }

    #[test]
    fn select_roundtrip_with_plan_cache() {
        let e = engine();
        let q = "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let r1 = sql(&e, q);
        assert_eq!(r1.get("ok").unwrap().as_bool(), Some(true), "{r1:?}");
        assert_eq!(r1.get("cached_plan").unwrap().as_bool(), Some(false));
        assert_eq!(r1.get("row_count").unwrap().as_i64(), Some(2));
        let rows = r1.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[1].as_i64(), Some(40));
        // Different formatting, same normalized key → cache hit.
        let r2 = sql(
            &e,
            "select   d_name, SUM(f_v) as total from fact, dim group by d_name order by d_name;",
        );
        assert_eq!(r2.get("cached_plan").unwrap().as_bool(), Some(true));
        assert_eq!(r1.get("rows"), r2.get("rows"));
        assert_eq!(e.cache().hits(), 1);
        assert!(r2.get("elapsed_us").unwrap().as_i64().is_some());
    }

    #[test]
    fn uppercase_identifiers_behave_the_same_cold_and_warm() {
        // Plans are built from the canonical (identifier-case-folded)
        // template, so a spelling's fate cannot depend on what another
        // session cached. Aliases keep their case — they name the output.
        let e = engine();
        let cold = sql(&e, "SELECT COUNT(*) AS n FROM FACT");
        assert_eq!(cold.get("ok").unwrap().as_bool(), Some(true), "{cold:?}");
        let warm = sql(&e, "select count(*) as n from fact");
        assert_eq!(warm.get("cached_plan").unwrap().as_bool(), Some(true));
        assert_eq!(cold.get("rows"), warm.get("rows"));
        assert_eq!(cold.get("columns"), warm.get("columns"));
        // A different alias case is a different output shape — its own
        // template, its own column name.
        let other = sql(&e, "select count(*) as N from fact");
        assert_eq!(other.get("cached_plan").unwrap().as_bool(), Some(false));
        assert_eq!(other.get("columns").unwrap().as_array().unwrap()[0].as_str(), Some("N"));
    }

    /// The join graph belongs to the catalog image: a published write batch
    /// copies the image it changes, and shares its graph by pointer.
    #[test]
    fn a_write_batch_shares_the_join_graph() {
        let e = engine();
        let before = e.database().snapshot();
        let r = sql(&e, "INSERT INTO fact VALUES (1, 100)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let after = e.database().snapshot();
        assert!(!Arc::ptr_eq(&before, &after), "the batch published a new image");
        assert!(Arc::ptr_eq(before.graph(), after.graph()));
        assert_eq!(after.graph().roots(), ["fact".to_string()]);
    }

    #[test]
    fn writes_apply_and_are_visible() {
        let e = engine();
        let r = sql(&e, "INSERT INTO fact VALUES (1, 100), (0, 5)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("rows_affected").unwrap().as_i64(), Some(2));
        let r = sql(&e, "UPDATE fact SET f_v = 11 WHERE rowid = 0");
        assert_eq!(r.get("rows_affected").unwrap().as_i64(), Some(1));
        let r = sql(&e, "DELETE FROM fact WHERE rowid = 1");
        assert_eq!(r.get("rows_affected").unwrap().as_i64(), Some(1));
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        // 11 + 30 + 100 + 5 (row 1 deleted)
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(146));
    }

    #[test]
    fn delete_from_air_referenced_table_is_rejected() {
        let e = engine();
        // `dim` is the target of fact.f_dim: deleting from it would let a
        // later INSERT recycle the slot under live references.
        let r = sql(&e, "DELETE FROM dim WHERE rowid = 0");
        assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{r:?}");
        assert!(r.get("error").unwrap().as_str().unwrap().contains("referenced"), "{r:?}");
        // The fact side (nothing references it) still supports deletes.
        let r = sql(&e, "DELETE FROM fact WHERE rowid = 2");
        assert_eq!(r.get("rows_affected").unwrap().as_i64(), Some(1), "{r:?}");
    }

    #[test]
    fn error_frames_are_typed() {
        let e = engine();
        let r = e.handle_line("this is not json");
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        let r = e.handle_line(r#"{"other":1}"#);
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        let r = sql(&e, "SELEKT 1");
        assert_eq!(r.get("code").unwrap().as_str(), Some("parse_error"));
        let r = sql(&e, "SELECT nope FROM fact");
        assert_eq!(r.get("code").unwrap().as_str(), Some("plan_error"));
        assert_eq!(e.stats().errors.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    #[test]
    fn stats_cmd_reports_counters() {
        let e = engine();
        sql(&e, "SELECT count(*) AS n FROM fact");
        sql(&e, "INSERT INTO fact VALUES (0, 1)");
        let r = e.handle_line(r#"{"cmd":"stats"}"#);
        let s = r.get("stats").unwrap();
        assert_eq!(s.get("queries").unwrap().as_i64(), Some(1));
        assert_eq!(s.get("writes").unwrap().as_i64(), Some(1));
        assert_eq!(s.get("latency_count").unwrap().as_i64(), Some(2));
        let execute = s.get("execute_latency").unwrap();
        assert_eq!(execute.get("count").unwrap().as_i64(), Some(1), "the SELECT's execute stage");
        for gone in ["router_decisions", "engine_latency", "denorm_cache_entries"] {
            assert!(s.get(gone).is_none(), "{gone} is still reported: {s:?}");
        }
    }

    #[test]
    fn durable_engine_logs_checkpoints_and_recovers() {
        let dir = std::env::temp_dir().join(format!("astore-engine-dur-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Build the same schema the `engine()` helper uses, durably.
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));

        let r = sql(&e, "INSERT INTO fact VALUES (1, 100), (0, 5)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let r = sql(&e, "UPDATE fact SET f_v = 11 WHERE rowid = 0");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        // Rejected writes must not reach the log.
        let r = sql(&e, "INSERT INTO fact VALUES (9, 1)");
        assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"));

        // Crash-equivalent: drop the engine without checkpointing, recover.
        let live_sum = {
            let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap()
        };
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 2, "two committed writes replay");
        let e2 =
            Engine::new(SharedDatabase::new(rec.db)).durable(Durability::new(&dir, rec.wal, 0));
        let r = sql(&e2, "SELECT sum(f_v) AS s FROM fact");
        let sum2 =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(sum2, live_sum, "recovered state equals pre-crash state");

        // Checkpoint folds the WAL; a fresh recovery replays nothing.
        let r = e2.handle_line(r#"{"cmd":"checkpoint"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert!(r.get("snapshot_bytes").unwrap().as_i64().unwrap() > 0);
        drop(e2);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "post-checkpoint WAL is empty");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_restarted_engine_reports_its_boot_stages() {
        let dir = std::env::temp_dir().join(format!("astore-engine-boot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
        let boot = |e: &Engine, key: &str| {
            let r = e.handle_line(r#"{"cmd":"stats"}"#);
            r.get("stats").unwrap().get(key).unwrap().as_i64().unwrap()
        };
        assert_eq!(boot(&e, "boot_snapshot_us"), 0, "a cold boot recovered nothing");
        for v in 0..5 {
            let r = sql(&e, &format!("INSERT INTO fact VALUES (1, {v})"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        let e = Engine::new(SharedDatabase::new(rec.db))
            .durable(Durability::new(&dir, rec.wal, 0))
            .booted(rec.snapshot_time, rec.replay_time, rec.replayed);
        assert!(boot(&e, "boot_snapshot_us") > 0, "the snapshot stage took time");
        assert!(boot(&e, "boot_replay_us") > 0, "so did replaying five records");
        assert_eq!(boot(&e, "boot_replayed"), 5, "one per record written");
        let m = e.handle_line(r#"{"cmd":"metrics"}"#);
        let text = m.get("metrics").and_then(Json::as_str).unwrap_or_default().to_owned();
        assert!(text.contains("astore_server_boot_replayed 5"), "{m:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A star schema with a fact table big enough (four full segments: two
    /// per worker at two threads) that the default planner wants to fan
    /// out.
    pub(super) fn big_db() -> Database {
        big_db_keyed(|i| i % 16)
    }

    /// [`big_db`] with fact row `i` referencing dimension row `key(i)`.
    fn big_db_keyed(key: impl Fn(u32) -> u32) -> Database {
        let mut dim =
            Table::new("dim", Schema::new(vec![ColumnDef::new("d_name", DataType::Dict)]));
        for i in 0..16 {
            dim.append_row(&[Value::Str(format!("d{i}"))]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        for i in 0..(4 * SEGMENT_ROWS as u32) {
            fact.append_row(&[Value::Key(key(i)), Value::Int(i as i64)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    /// Fan-out options pinned to a 64-thread virtual host so the planner's
    /// physical-core clamp never turns these tests serial on small CI boxes.
    fn fan_out_opts(threads: usize) -> ExecOptions {
        let mut o = ExecOptions::default().threads(threads);
        o.optimizer.host_threads = 64;
        o
    }

    #[test]
    fn big_scans_fan_out_under_the_core_budget() {
        let e = Engine::with_options(SharedDatabase::new(big_db()), fan_out_opts(4)).core_budget(4);
        let serial_ref = Engine::new(SharedDatabase::new(big_db()));
        let q = "SELECT d_name, sum(f_v) AS s FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let par = sql(&e, q);
        assert_eq!(par.get("ok").unwrap().as_bool(), Some(true), "{par:?}");
        assert_eq!(par.get("rows"), sql(&serial_ref, q).get("rows"), "parallel == serial");
        let stats = e.stats();
        assert_eq!(stats.parallel_queries.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(stats.parallel_denied.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(e.budget().in_use(), 0, "permits returned after the query");
    }

    #[test]
    fn exhausted_budget_degrades_to_serial_and_counts_it() {
        // Budget of 1: the statement's own baseline permit consumes it, so
        // no extra engine threads can ever be granted.
        let e = Engine::with_options(SharedDatabase::new(big_db()), fan_out_opts(4)).core_budget(1);
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let stats = e.stats();
        assert_eq!(stats.parallel_queries.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(stats.parallel_denied.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    /// The fan-out request is sized from the rows the zone maps keep, not
    /// from the table: a statement that prunes to one or two segments — too
    /// few to give two workers two each — takes no permit beyond its own,
    /// is not counted as denied, and leaves the budget free for the
    /// statements beside it.
    #[test]
    fn zone_pruned_statements_ask_for_no_extra_permit() {
        // Dimension row k is referenced by the k-th sixteenth of the fact
        // rows, so one name keeps one of the four segments.
        let db = big_db_keyed(|i| i / (4 * SEGMENT_ROWS as u32 / 16));
        let e = Engine::with_options(SharedDatabase::new(db), fan_out_opts(2)).core_budget(2);
        let mut session = StatementRegistry::default();
        let r = sqls(&e, &mut session, "SET engine = air");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let peak = std::sync::atomic::AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let replies = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    peak.fetch_max(e.budget().in_use(), Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
            // `f_v` is the row number: this range straddles the boundary of
            // the first two segments and keeps both.
            let straddling = format!(
                "SELECT sum(f_v) AS s FROM fact WHERE f_v BETWEEN {} AND {}",
                SEGMENT_ROWS - 10,
                SEGMENT_ROWS + 10
            );
            let statements = (0..100)
                .map(|i| {
                    (format!("SELECT sum(f_v) AS s FROM fact, dim WHERE d_name = 'd{}'", i % 16), 1)
                })
                .chain((0..20).map(|_| (straddling.clone(), 2)));
            let replies: Vec<(Json, i64)> =
                statements.map(|(q, kept)| (sqls(&e, &mut session, &q), kept)).collect();
            done.store(true, Ordering::Relaxed);
            replies
        });
        for (r, kept) in &replies {
            assert_eq!(r.get("segments_scanned").and_then(Json::as_i64), Some(*kept), "{r:?}");
        }
        assert!(peak.load(Ordering::Relaxed) <= 1, "a pruned statement took an extra permit");
        let stats = e.stats();
        assert_eq!(stats.parallel_denied.load(Ordering::Relaxed), 0);
        assert_eq!(e.budget().denied(), 0);
        // The whole table still fans out on the same engine.
        let r = sqls(&e, &mut session, "SELECT sum(f_v) AS s FROM fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(stats.parallel_queries.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn small_scans_never_ask_for_extra_permits() {
        // The tiny fixture stays under the planner threshold: no fan-out
        // request is ever made, so nothing is counted as denied either.
        let e = Engine::with_options(
            SharedDatabase::new({
                let base = engine();
                let db = base.database().snapshot().as_ref().clone();
                db
            }),
            ExecOptions::default().threads(8),
        )
        .core_budget(8);
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let stats = e.stats();
        assert_eq!(stats.parallel_queries.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(stats.parallel_denied.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(e.budget().denied(), 0);
    }

    #[test]
    fn stats_cmd_reports_core_budget_gauges() {
        let e =
            Engine::with_options(SharedDatabase::new(big_db()), ExecOptions::default().threads(2))
                .core_budget(6);
        let r = e.handle_line(r#"{"cmd":"stats"}"#);
        let s = r.get("stats").unwrap();
        assert_eq!(s.get("engine_threads").unwrap().as_i64(), Some(2));
        assert_eq!(s.get("core_budget_total").unwrap().as_i64(), Some(6));
        assert_eq!(s.get("core_budget_in_use").unwrap().as_i64(), Some(0));
        assert_eq!(s.get("parallel_queries").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn a_served_fanned_out_statement_moves_the_reply_and_crew_metrics() {
        use crate::client::Client;
        use crate::server::{start, ServerConfig};
        let e = Engine::with_options(SharedDatabase::new(big_db()), fan_out_opts(2)).core_budget(2);
        let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
        let h = start(Arc::new(e), config).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        let class = |stats: &Json, hist: &str, key: &str| {
            stats.get(hist).unwrap().get("scan").unwrap().get(key).unwrap().as_i64().unwrap()
        };
        let before = c.stats().unwrap();
        let q = "SELECT d_name, sum(f_v) AS s FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let reply = c.sql(q).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true), "{reply:?}");
        let after = c.stats().unwrap();
        assert_eq!(after.get("parallel_queries").unwrap().as_i64(), Some(1), "it fanned out");

        // One scan-class reply, exactly as long as the frame the client read.
        assert_eq!(class(&before, "reply_bytes", "count"), 0);
        assert_eq!(class(&after, "reply_bytes", "count"), 1);
        assert_eq!(class(&after, "reply_bytes", "max"), reply.frame().len() as i64);
        assert_eq!(class(&after, "serialize_us", "count"), 1);
        // Its second worker ran on a resident helper. The crew is the
        // process's, so other tests may have moved it too: at least, not exactly.
        let gauge = |stats: &Json, key: &str| stats.get(key).unwrap().as_i64().unwrap();
        assert!(gauge(&after, "scan_helpers") >= 1);
        assert!(gauge(&after, "scan_helper_wakes") > gauge(&before, "scan_helper_wakes"));

        let body = c.metrics().unwrap();
        assert!(body.contains(r#"astore_server_reply_bytes_count{class="scan"} 1"#), "{body}");
        assert!(body.contains(r#"astore_server_serialize_us_count{class="scan"} 1"#), "{body}");
        let sample = |name: &str| -> f64 {
            let line = body.lines().find(|l| l.starts_with(name)).expect(name);
            line.rsplit_once(' ').unwrap().1.parse().unwrap()
        };
        assert!(sample("astore_server_scan_helpers ") >= 1.0);
        assert!(sample("astore_server_scan_helper_wakes_total ") >= 1.0);
        h.shutdown();
    }

    #[test]
    fn literal_variants_share_one_plan_cache_entry() {
        // Auto-parameterization: the same query shape with different
        // predicate literals is ONE template — the second spelling is a
        // cache hit, not a new plan.
        let e = engine();
        let r1 = sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 10");
        assert_eq!(r1.get("cached_plan").unwrap().as_bool(), Some(false));
        let r2 = sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 25");
        assert_eq!(r2.get("cached_plan").unwrap().as_bool(), Some(true), "{r2:?}");
        assert_eq!(e.cache().len(), 1, "one template entry for both literals");
        // And the results still reflect each literal.
        let n = |r: &Json| {
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap()
        };
        assert_eq!(n(&r1), 3);
        assert_eq!(n(&r2), 1);
    }

    #[test]
    fn prepare_execute_close_roundtrip() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let r = e.handle_line_session(
            r#"{"prepare":"SELECT d_name, sum(f_v) AS total FROM fact, dim WHERE d_rank >= ? GROUP BY d_name ORDER BY d_name"}"#,
            &mut session,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let id = r.get("stmt_id").unwrap().as_i64().unwrap();
        assert_eq!(r.get("param_count").unwrap().as_i64(), Some(1));
        assert_eq!(r.get("kind").unwrap().as_str(), Some("select"));
        assert_eq!(r.get("columns").unwrap().as_array().unwrap()[0].as_str(), Some("d_name"));

        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[2]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("row_count").unwrap().as_i64(), Some(1), "only beta has rank >= 2");
        assert!(r.get("elapsed_us").is_some());

        // Re-execute with a different binding: no re-prepare needed.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[1]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("row_count").unwrap().as_i64(), Some(2));

        let r = e.handle_line_session(&format!(r#"{{"close":{id}}}"#), &mut session);
        assert_eq!(r.get("closed").unwrap().as_bool(), Some(true));
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[1]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("unknown_statement"), "{r:?}");
        assert_eq!(
            e.stats().prepared_execs.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "executes of unknown ids fail before the counter"
        );
    }

    #[test]
    fn prepared_writes_execute_and_are_durable_in_memory() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let r =
            e.handle_line_session(r#"{"prepare":"INSERT INTO fact VALUES (?, ?)"}"#, &mut session);
        assert_eq!(r.get("kind").unwrap().as_str(), Some("write"), "{r:?}");
        let id = r.get("stmt_id").unwrap().as_i64().unwrap();
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[1, 100]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("rows_affected").unwrap().as_i64(), Some(1), "{r:?}");
        // A dangling key binds fine (it's an int) but fails validation.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[9, 1]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{r:?}");
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(160));
    }

    #[test]
    fn execute_param_errors_are_typed() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let r = e.handle_line_session(
            r#"{"prepare":"SELECT count(*) AS n FROM fact, dim WHERE d_name = ?"}"#,
            &mut session,
        );
        let id = r.get("stmt_id").unwrap().as_i64().unwrap();
        // Wrong count.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("param_error"), "{r:?}");
        // Wrong kind.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[5]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("param_error"), "{r:?}");
        // Non-scalar parameter.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":[[1]]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("code").unwrap().as_str(), Some("param_error"), "{r:?}");
        // Correct bind still works afterwards.
        let r = e.handle_line_session(
            &format!(r#"{{"execute":{{"id":{id},"params":["alpha"]}}}}"#),
            &mut session,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
    }

    #[test]
    fn registry_eviction_is_bounded_and_typed() {
        let e = engine();
        let mut session = StatementRegistry::with_capacity(2);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let r = e.handle_line_session(
                r#"{"prepare":"SELECT count(*) AS n FROM fact"}"#,
                &mut session,
            );
            ids.push(r.get("stmt_id").unwrap().as_i64().unwrap());
        }
        assert_eq!(session.len(), 2, "capacity enforced");
        let r =
            e.handle_line_session(&format!(r#"{{"execute":{{"id":{}}}}}"#, ids[0]), &mut session);
        assert_eq!(r.get("code").unwrap().as_str(), Some("unknown_statement"), "{r:?}");
        let r =
            e.handle_line_session(&format!(r#"{{"execute":{{"id":{}}}}}"#, ids[2]), &mut session);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
    }

    #[test]
    fn literal_bearing_prepares_do_not_pollute_the_plan_cache() {
        // A client preparing fresh literal SQL per request must not evict
        // the shared parameterized templates: such statements live only in
        // its session registry.
        let e = engine();
        let mut session = StatementRegistry::default();
        for v in [10, 20, 30] {
            let r = e.handle_line_session(
                &format!(r#"{{"prepare":"SELECT count(*) AS n FROM fact WHERE f_v >= {v}"}}"#),
                &mut session,
            );
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
            let id = r.get("stmt_id").unwrap().as_i64().unwrap();
            let r = e.handle_line_session(&format!(r#"{{"execute":{{"id":{id}}}}}"#), &mut session);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        assert_eq!(e.cache().len(), 0, "literal-bearing prepares are not shared-cached");
        // Fully parameterized prepares still are.
        let r = e.handle_line_session(
            r#"{"prepare":"SELECT count(*) AS n FROM fact WHERE f_v >= ?"}"#,
            &mut session,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(e.cache().len(), 1);
    }

    #[test]
    fn text_and_prepared_share_the_plan_cache() {
        // A prepared `f_v >= ?` and a literal-SQL `f_v >= 10` canonicalize
        // to the same template: the second one is a cache hit.
        let e = engine();
        let mut session = StatementRegistry::default();
        let r = e.handle_line_session(
            r#"{"prepare":"SELECT count(*) AS n FROM fact WHERE f_v >= ?"}"#,
            &mut session,
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(e.cache().len(), 1);
        let r = sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 10");
        assert_eq!(r.get("cached_plan").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(e.cache().len(), 1, "still one entry");
    }

    #[test]
    fn explain_analyze_reports_plan_and_spans() {
        let e = engine();
        let r = sql(
            &e,
            "EXPLAIN ANALYZE SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name",
        );
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("row_count").unwrap().as_i64(), Some(2), "the query still runs");
        let lines: Vec<String> = r
            .get("analyze")
            .expect("analyze member")
            .as_array()
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap().to_owned())
            .collect();
        let joined = lines.join("\n");
        assert!(joined.contains("root:"), "{joined}");
        assert!(joined.contains("phases:"), "{joined}");
        assert!(joined.contains("segments:"), "{joined}");
        assert!(joined.contains("execute"), "{joined}");
        assert!(joined.contains("phase2_scan"), "{joined}");
        // Case-insensitive prefix; writes are rejected with a typed error.
        let r = sql(&e, "explain analyze select count(*) as n from fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let r = sql(&e, "EXPLAIN ANALYZE INSERT INTO fact VALUES (0, 1)");
        assert_eq!(r.get("code").unwrap().as_str(), Some("plan_error"), "{r:?}");
    }

    #[test]
    fn metrics_cmd_returns_prometheus_text() {
        let e = engine();
        sql(&e, "SELECT count(*) AS n FROM fact");
        sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 10");
        let r = e.handle_line(r#"{"cmd":"metrics"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let body = r.get("metrics").unwrap().as_str().unwrap();
        assert!(body.contains("astore_server_queries_total 2\n"), "{body}");
        assert!(body.contains("# TYPE astore_server_latency_us histogram\n"));
        assert!(body.contains("astore_server_template_latency_us_bucket{template="), "{body}");
        assert!(body.contains("le=\"+Inf\""));
        assert!(body.contains("astore_server_core_budget_total"));
        // Two distinct canonical templates → two labeled series.
        assert_eq!(e.templates().len(), 2);
    }

    #[test]
    fn slowlog_captures_only_past_threshold() {
        let e = engine(); // threshold 0: capture off
        sql(&e, "SELECT count(*) AS n FROM fact");
        let r = e.handle_line(r#"{"cmd":"slowlog"}"#);
        let log = r.get("slowlog").unwrap();
        assert_eq!(log.get("threshold_ms").unwrap().as_i64(), Some(0));
        assert_eq!(log.get("entries").unwrap().as_array().unwrap().len(), 0);
        // Threshold 0ms→every statement qualifies once enabled at 0? No:
        // 0 disables. Re-arm via the slowlog handle directly (the --slow-ms
        // path) with a 0µs-reachable 1ms... use the setter + a synthetic
        // observation instead of relying on wall-clock latency.
        e.slowlog().set_threshold_ms(1);
        e.slowlog().observe("SELECT count(*) FROM fact", 5_000);
        let r = e.handle_line(r#"{"cmd":"slowlog"}"#);
        let entries = r.get("slowlog").unwrap().get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get("elapsed_us").unwrap().as_i64(), Some(5000));
        assert!(entries[0].get("ago_s").unwrap().as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn stats_cmd_reports_per_template_histograms() {
        let e = engine();
        sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 10");
        sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 25"); // same template
        sql(&e, "SELECT sum(f_v) AS s FROM fact"); // different template
        let r = e.handle_line(r#"{"cmd":"stats"}"#);
        let templates = r.get("stats").unwrap().get("templates").unwrap().as_array().unwrap();
        assert_eq!(templates.len(), 2, "{templates:?}");
        let counts: Vec<i64> =
            templates.iter().map(|t| t.get("count").unwrap().as_i64().unwrap()).collect();
        assert_eq!(counts.iter().sum::<i64>(), 3);
        assert!(counts.contains(&2), "literal variants share one series: {counts:?}");
        for t in templates {
            assert!(t.get("p50_us").is_some() && t.get("p99_us").is_some(), "{t:?}");
        }
    }

    #[test]
    fn prepared_executions_land_in_template_stats() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let r = e.handle_line_session(
            r#"{"prepare":"SELECT count(*) AS n FROM fact WHERE f_v >= ?"}"#,
            &mut session,
        );
        let id = r.get("stmt_id").unwrap().as_i64().unwrap();
        for v in [10, 25] {
            let r = e.handle_line_session(
                &format!(r#"{{"execute":{{"id":{id},"params":[{v}]}}}}"#),
                &mut session,
            );
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        // The text-mode spelling of the same query shares the series.
        sql(&e, "SELECT count(*) AS n FROM fact WHERE f_v >= 99");
        let snap = e.templates().snapshot();
        assert_eq!(snap.len(), 1, "one canonical template: {snap:?}");
        assert_eq!(snap[0].1.count(), 3, "prepared and text executions share it");
    }

    fn sqls(e: &Engine, session: &mut StatementRegistry, s: &str) -> Json {
        e.handle_line_session(&Json::obj([("sql", Json::Str(s.into()))]).to_string(), session)
    }

    #[test]
    fn set_engine_air_or_auto_answers_ok_and_changes_nothing() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let q = "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let before = sqls(&e, &mut session, q);
        assert_eq!(before.get("engine").unwrap().as_str(), Some("air"), "{before:?}");
        for set in ["SET engine = air", "SET engine=auto", "set ENGINE AIR;"] {
            let r = sqls(&e, &mut session, set);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{set}: {r:?}");
            assert_eq!(r.get("engine").unwrap().as_str(), Some("air"), "{set}: {r:?}");
            let after = sqls(&e, &mut session, q);
            assert_eq!(after.get("engine").unwrap().as_str(), Some("air"), "{after:?}");
            assert_eq!(after.get("rows"), before.get("rows"));
            assert_eq!(after.get("columns"), before.get("columns"));
        }
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().queries.load(Relaxed), 4, "SET runs no query");
        assert_eq!(e.stats().errors.load(Relaxed), 0);
    }

    #[test]
    fn set_engine_to_any_other_engine_is_a_typed_error_and_the_session_stays_usable() {
        let e = engine();
        let mut session = StatementRegistry::default();
        for engine_name in ["join", "denorm", "quantum"] {
            let r = sqls(&e, &mut session, &format!("SET engine = {engine_name}"));
            assert_eq!(r.get("code").unwrap().as_str(), Some("plan_error"), "{r:?}");
            let error = r.get("error").unwrap().as_str().unwrap();
            assert!(error.contains(engine_name) && error.contains("AIR"), "{error}");
            let next = sqls(&e, &mut session, "SELECT sum(f_v) AS s FROM fact");
            assert_eq!(next.get("ok").unwrap().as_bool(), Some(true), "{next:?}");
            assert_eq!(next.get("engine").unwrap().as_str(), Some("air"), "{next:?}");
        }
        let r = sqls(&e, &mut session, "SET engine");
        assert_eq!(r.get("code").unwrap().as_str(), Some("parse_error"), "{r:?}");
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().errors.load(Relaxed), 4);
        assert_eq!(e.stats().queries.load(Relaxed), 3);
    }

    #[test]
    fn unpinned_statements_run_on_air_and_are_counted() {
        let e = engine();
        let q = "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let baseline = sql(&e, q);
        for _ in 0..40 {
            let r = sql(&e, q);
            assert_eq!(r.get("rows"), baseline.get("rows"));
            assert_eq!(r.get("engine").unwrap().as_str(), Some("air"));
        }
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().queries.load(Relaxed), 41, "every statement counted in stats");
        assert_eq!(e.stats().execute_latency.count(), 41, "and timed at its execute stage");
    }

    /// A text statement's literals are lifted into parameter slots and
    /// bound back by the one bind stage, so a literal that does not fit its
    /// column reads the same whether the statement runs or is explained.
    #[test]
    fn a_lifted_literal_that_does_not_fit_reports_alike_under_explain() {
        let e = engine();
        let q = "SELECT count(*) AS n FROM fact, dim WHERE d_name = 5";
        let run = sql(&e, q);
        assert_eq!(run.get("code").unwrap().as_str(), Some("plan_error"), "{run:?}");
        let error = run.get("error").unwrap().as_str().unwrap();
        assert!(error.starts_with("type mismatch in predicate literal: "), "{run:?}");
        for prefix in ["EXPLAIN", "EXPLAIN ANALYZE"] {
            let r = sql(&e, &format!("{prefix} {q}"));
            assert_eq!(r.get("code"), run.get("code"), "{prefix}: {r:?}");
            assert_eq!(r.get("error"), run.get("error"), "{prefix}: {r:?}");
        }
    }

    #[test]
    fn bare_explain_previews_without_executing() {
        let e = engine();
        let r = sql(&e, "EXPLAIN SELECT d_name, sum(f_v) AS s FROM fact, dim GROUP BY d_name");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("air"));
        assert!(r.get("reason").is_none(), "there is no choice to give a reason for");
        assert!(r.get("rows").is_none(), "EXPLAIN does not execute");
        let lines: Vec<&str> = r
            .get("explain")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap())
            .collect();
        assert_eq!(lines[0], "engine: air", "{lines:?}");
        assert!(!lines.iter().any(|l| l.starts_with("eligible:")), "{lines:?}");
        let joined = lines.join("\n");
        assert!(joined.contains("template: select d_name"), "{joined}");
        assert!(joined.contains("selection: live rows"), "no filter, nothing builds: {joined}");
        let r = sql(
            &e,
            "EXPLAIN SELECT sum(f_v) AS s FROM fact, dim WHERE d_name = 'beta' AND f_v > 1",
        );
        let explain = r.get("explain").unwrap().as_array().unwrap();
        assert!(
            explain
                .iter()
                .any(|l| l.as_str().unwrap().starts_with("selection: builds range f_dim")),
            "one name is one key run: {r:?}"
        );
        assert_eq!(e.stats().queries.load(Ordering::Relaxed), 0, "no query ran");
        assert_eq!(e.stats().execute_latency.count(), 0, "nothing was executed");
        // Writes are rejected with a typed error, same as EXPLAIN ANALYZE.
        let r = sql(&e, "EXPLAIN INSERT INTO fact VALUES (0, 1)");
        assert_eq!(r.get("code").unwrap().as_str(), Some("plan_error"), "{r:?}");
    }

    #[test]
    fn explain_analyze_names_air() {
        let e = engine();
        let r = sql(&e, "EXPLAIN ANALYZE SELECT sum(f_v) AS s FROM fact, dim");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("air"));
        let analyze = r.get("analyze").unwrap().as_array().unwrap();
        let head = analyze[0].as_str().unwrap();
        assert!(head.starts_with("engine: air elapsed="), "{head}");
        assert!(!analyze.iter().any(|l| l.as_str().unwrap().contains("router")), "{r:?}");
    }

    #[test]
    fn set_engine_parser_accepts_reasonable_spellings() {
        for input in ["SET engine = air", "set ENGINE=AIR;", "  SET engine auto", "SET engine=auto"]
        {
            assert!(parse_set_engine(input).unwrap().is_ok(), "{input}");
        }
        let code = |input: &str| {
            let frame = parse_set_engine(input).unwrap().unwrap_err();
            frame.get("code").and_then(Json::as_str).unwrap().to_owned()
        };
        for other in ["set ENGINE=join;", "  SET engine denorm", "SET engine = warp"] {
            assert_eq!(code(other), "plan_error", "{other}");
        }
        assert_eq!(code("SET engine"), "parse_error");
        assert!(parse_set_engine("SELECT 1").is_none());
        assert!(parse_set_engine("SET other = 1").is_none());
    }

    #[test]
    fn snapshot_reads_do_not_block_writes() {
        // A reader holding a snapshot mid-query must not see a concurrent
        // multi-row insert tear. Exercised via raw engine calls.
        let e = std::sync::Arc::new(engine());
        let writer = {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let r = sql(&e, "INSERT INTO fact VALUES (0, 1), (1, -1)");
                    assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
                }
            })
        };
        for _ in 0..50 {
            let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
            let rows = r.get("rows").unwrap().as_array().unwrap();
            let s = rows[0].as_array().unwrap()[0].as_i64().unwrap();
            // Base sum is 60; each atomic batch adds 1 - 1 = 0.
            assert_eq!(s, 60, "reader observed a torn multi-row insert");
        }
        writer.join().unwrap();
    }
}
