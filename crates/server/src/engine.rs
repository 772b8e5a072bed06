//! The query engine behind the wire protocol: statement dispatch over a
//! [`SharedDatabase`], independent of any transport.
//!
//! One [`Engine`] is shared by every connection. Reads execute against an
//! O(1) copy-on-write snapshot ([`SharedDatabase::snapshot`]) so they never
//! block writers; writes are routed through [`SharedDatabase::write`] and
//! become visible atomically (a multi-row `INSERT` is one write call, so a
//! concurrent reader sees all of its rows or none).
//!
//! SELECT plans are reused across sessions via the [`PlanCache`], keyed by
//! the *canonical statement template*: text-mode queries are
//! auto-parameterized (WHERE literals lifted into slots), so SSB Q1.1 with
//! different date literals is one cache entry and every request is a cheap
//! bind instead of a re-plan. Protocol v2 (`{"prepare":…}` /
//! `{"execute":{"id":…,"params":[…]}}` frames, per-session
//! [`StatementRegistry`]) removes the per-request parse as well.
//!
//! Writes commit in **groups**: each writer stages its statement and the
//! first stager becomes the batch leader, which validates and applies the
//! whole batch onto a private copy-on-write clone, appends every surviving
//! statement to the write-ahead log with **one fsync**, and publishes the
//! new catalog image with a single pointer swap. Statements that fail
//! validation are bounced out of the batch individually (per-statement
//! conflict detection) — one bad write never aborts its batchmates. The
//! write latch is held only for the pointer swap, so readers taking
//! snapshots never wait on statement application or WAL I/O, and an
//! acknowledged write is always on disk before its response frame leaves.
//! The private clone is pointer bumps, and applying a statement copies only
//! the chunks of the segments it touches (see `astore_storage::table`), so
//! a batch's cost does not grow with the tables it writes to.
//! The WAL is folded back into the snapshot by `{"cmd":"checkpoint"}` or
//! automatically once it accumulates `checkpoint_every` records: the
//! committing leader only *notes* that the fold is due and the maintenance
//! thread ([`Engine::run_maintenance`]) runs it, so no client's
//! acknowledgement waits for a fold. The fold encodes from a COW snapshot
//! *outside* the commit lock, so checkpoints do not stall writers either.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::exec::{execute, execute_granted, plan_selection, ExecOptions, ExecOutput};
use astore_core::graph::JoinGraph;
use astore_core::query::Query;
use astore_core::result::QueryResult;
use astore_core::universal::bind_root;
use astore_obs::TraceBuf;
use astore_persist::apply::{apply_statement, validate_statement};
use astore_persist::store;
use astore_persist::wal::Wal;
use astore_sql::prepared::{
    canonicalize, extract_select_params, prepare_template, BoundStatement, PrepareError, Prepared,
};
use astore_sql::statement::{
    parse_template, strip_explain, strip_explain_analyze, Statement, StatementTemplate,
};
use astore_storage::catalog::Database;
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::Value;

use crate::budget::CoreBudget;
use crate::cache::PlanCache;
use crate::json::Json;
use crate::metrics::{render_prometheus, SlowLog, TemplateStats};
use crate::router::{query_rewritable, DenormCache, EngineChoice, Features, Router, RouterConfig};
use crate::session::StatementRegistry;
use crate::stats::ServerStats;

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

/// Maps a prepare failure to its wire error frame.
fn prepare_error_frame(e: PrepareError) -> Json {
    match e {
        PrepareError::Parse(e) => error_frame(ErrorCode::ParseError, e.to_string()),
        PrepareError::Plan(e) => error_frame(ErrorCode::PlanError, e.to_string()),
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

/// One staged write waiting for its result: the committing leader fills
/// `done` and signals `cv`; the staging connection blocks on the pair.
#[derive(Debug, Default)]
struct WriteSlot {
    done: Mutex<Option<Result<usize, Json>>>,
    cv: Condvar,
}

impl WriteSlot {
    fn finish(&self, result: Result<usize, Json>) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        *done = Some(result);
        self.cv.notify_one();
    }

    fn wait(&self) -> Result<usize, Json> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = done.take() {
                return r;
            }
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// A write staged for the next group-commit batch.
#[derive(Debug)]
struct PendingWrite {
    stmt: Statement,
    wal_sql: String,
    slot: Arc<WriteSlot>,
}

/// The group-commit staging area. `leader_active` makes leader election
/// race-free: exactly one stager flips it and drains the queue; everyone
/// else parks on their slot.
#[derive(Debug, Default)]
struct CommitState {
    pending: Vec<PendingWrite>,
    leader_active: bool,
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
    router: Router,
    denorm_cache: DenormCache,
    durability: Option<Durability>,
    /// Write staging area (see [`CommitState`]).
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

/// Per unsealed complete segment of one table: the write stamp the
/// compactor last saw, and when it first saw it.
type UnsealedSegments = HashMap<usize, (u64, Instant)>;

impl Engine {
    /// Wraps a shared database with default execution options (serial
    /// per-query execution — parallelism comes from serving many queries
    /// at once, not from splitting one).
    pub fn new(db: SharedDatabase) -> Self {
        Engine::with_options(db, ExecOptions::default())
    }

    /// Wraps a shared database with explicit per-query execution options.
    ///
    /// `opts.threads` is the per-query fan-out *ceiling* (`--engine-threads`
    /// on `astore-serve`). Each query's actual thread count is decided at
    /// run time: the planner clamps it to the estimated scan size, and the
    /// [`CoreBudget`] — sized to the machine's available parallelism —
    /// grants only the cores not already busy serving other statements. An
    /// `opts.threads` above the host's parallelism no longer inflates the
    /// budget (that oversubscribed every statement at once); it is kept as
    /// the per-query ceiling but the budget clamps to real cores.
    pub fn with_options(db: SharedDatabase, opts: ExecOptions) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        if opts.threads > cores {
            eprintln!(
                "astore-server: --engine-threads {} exceeds host parallelism {cores}; \
                 core budget clamped to {cores}",
                opts.threads
            );
        }
        let budget = Arc::new(CoreBudget::new(cores));
        let engine = Engine {
            db,
            cache: PlanCache::default(),
            stats: ServerStats::new(),
            templates: TemplateStats::new(),
            slowlog: SlowLog::default(),
            opts,
            budget,
            router: Router::new(RouterConfig::default()),
            denorm_cache: DenormCache::new(),
            durability: None,
            commit: Mutex::new(CommitState::default()),
            commit_lock: Mutex::new(()),
            checkpoint_lock: Mutex::new(()),
            unsealed_since: Mutex::default(),
        };
        // Seal whatever the boot image carried flat (a v1/v2 snapshot, the
        // chunks a WAL replay decoded, a hand-built database) and prime the
        // footprint gauges. A generated or checkpointed image arrives
        // sealed and this finds nothing to do.
        engine.seal_and_gauge();
        engine
    }

    /// Seals every segment that needs it and refreshes the footprint
    /// gauges. Boot only — once the engine is shared, mutation outside the
    /// commit lock would race the group-commit leader; checkpoints seal
    /// under the commit lock instead.
    fn seal_and_gauge(&self) {
        self.db.write(seal_all);
        self.gauge_footprint();
    }

    /// Refreshes the `encoded_bytes` / `raw_bytes` / `flat_chunks` /
    /// `flat_bytes` / `dict_bytes` / `str_heap_bytes` / `append_copies`
    /// gauges from a snapshot (a walk over the chunk slots, dictionaries
    /// and heaps, no row data). Chunk bytes count the rows the image sees,
    /// not the space reserved behind a filling tail; dictionary and heap
    /// bytes count capacity.
    fn gauge_footprint(&self) {
        let snap = self.db.snapshot();
        let (mut resident, mut raw, mut chunks, mut bytes, mut copies) = (0u64, 0u64, 0, 0, 0);
        let (mut dicts, mut heaps) = (0u64, 0u64);
        for t in snap.table_names().iter().filter_map(|name| snap.table(name)) {
            let ((r, w), (c, b)) = (t.encoded_footprint(), t.flat_chunks());
            (resident, raw, chunks, bytes) = (resident + r, raw + w, chunks + c, bytes + b);
            let (d, h) = t.string_footprint();
            (dicts, heaps) = (dicts + d, heaps + h);
            copies += t.append_copies();
        }
        self.stats.append_copies.store(copies, Ordering::Relaxed);
        self.stats.encoded_bytes.store(resident, Ordering::Relaxed);
        self.stats.raw_bytes.store(raw, Ordering::Relaxed);
        self.stats.flat_chunks.store(chunks, Ordering::Relaxed);
        self.stats.flat_bytes.store(bytes, Ordering::Relaxed);
        self.stats.dict_bytes.store(dicts, Ordering::Relaxed);
        self.stats.str_heap_bytes.store(heaps, Ordering::Relaxed);
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
    /// ([`crate::sched::PriorityPool::with_budget`]).
    pub fn budget_handle(&self) -> Arc<CoreBudget> {
        Arc::clone(&self.budget)
    }

    /// Replaces the adaptive router's configuration (`--engine` pin,
    /// explore cadence, warmup window). Construction-time only: any learned
    /// per-template history is discarded.
    pub fn router_config(mut self, config: RouterConfig) -> Self {
        self.router = Router::new(config);
        self
    }

    /// The adaptive engine router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The denormalized-materialization cache (epoch-invalidated on write).
    pub fn denorm_cache(&self) -> &DenormCache {
        &self.denorm_cache
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

    /// Folds the live database into a fresh snapshot and truncates the WAL
    /// through the folded LSN. Returns `(checkpoint LSN, snapshot bytes)`.
    ///
    /// The expensive part — encoding and writing the snapshot file — runs
    /// against a COW snapshot with **no locks held**: writers keep
    /// committing and readers keep scanning while the file is built. Only
    /// two brief phases take the commit lock: fixing the (image, LSN) pair
    /// at the start, and truncating the WAL + flipping clean flags at the
    /// end. Writes that land mid-encode survive in the truncated WAL tail
    /// and replay on the next boot.
    pub fn checkpoint(&self) -> Result<(u64, usize), String> {
        let d = self.durability.as_ref().ok_or("server is running without --data-dir")?;
        let _one = self.checkpoint_lock.lock().unwrap_or_else(|p| p.into_inner());
        self.checkpoint_locked(d)
    }

    /// The checkpoint body; caller holds `checkpoint_lock`.
    fn checkpoint_locked(&self, d: &Durability) -> Result<(u64, usize), String> {
        // Phase 1 (commit lock, brief): seal, then fix the image and the
        // last LSN it covers. No batch can publish between the two reads,
        // so every statement with LSN ≤ `last` is in `snap`. Readers
        // holding the previous image do not delay the seal: a shared table
        // is cloned (pointer bumps) and only re-sealed segments change.
        let (snap, last) = {
            let _c = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            self.db.write(seal_all);
            let wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            (self.db.snapshot(), wal.last_lsn())
        };

        // Phase 2 (no locks): encode and write the snapshot file from the
        // frozen image while the server keeps serving.
        let bytes = store::write_checkpoint(&d.dir, &snap, last).map_err(|e| e.to_string())?;

        // Phase 3 (commit lock, brief): drop WAL records the file now
        // covers, then flip clean flags on tables the live catalog still
        // shares with the image (a table written mid-encode is *not* in
        // the file as encoded — it must stay dirty for the next round).
        {
            let _c = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            {
                let mut wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
                wal.truncate_through(last).map_err(|e| e.to_string())?;
            }
            let cur = self.db.snapshot();
            let unchanged: Vec<String> = cur
                .table_names()
                .iter()
                .filter(|name| match (cur.table_arc(name), snap.table_arc(name)) {
                    (Some(a), Some(b)) => Arc::ptr_eq(&a, &b),
                    _ => false,
                })
                .cloned()
                .collect();
            self.db.write(|db| {
                for name in &unchanged {
                    if let Some(t) = db.table_mut(name) {
                        t.mark_segments_clean();
                    }
                }
            });
        }
        self.stats.checkpoints.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.gauge_footprint();
        Ok((last, bytes))
    }

    /// Is an auto-checkpoint noted as due and not yet run?
    pub fn checkpoint_due(&self) -> bool {
        self.durability.as_ref().is_some_and(|d| d.checkpoint_due.load(Ordering::SeqCst))
    }

    /// Runs the auto-checkpoint if one is due. The note is re-checked
    /// against the log itself, so a note raised while the previous fold was
    /// still encoding does not trigger a second fold over a log that fold
    /// just truncated.
    fn run_due_checkpoint(&self) {
        let Some(d) = &self.durability else { return };
        if !d.checkpoint_due.swap(false, Ordering::SeqCst) {
            return;
        }
        let _one = self.checkpoint_lock.lock().unwrap_or_else(|p| p.into_inner());
        let due = {
            let wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            wal.appended_since_reset() >= d.checkpoint_every
        };
        if due {
            if let Err(e) = self.checkpoint_locked(d) {
                eprintln!("auto-checkpoint failed: {e}");
            }
        }
    }

    /// One pass of background maintenance, run by the server's maintenance
    /// thread: the auto-checkpoint if the write path noted one as due, then
    /// one compaction pass. Returns the number of segments compaction
    /// installed.
    pub fn run_maintenance(&self) -> usize {
        self.run_due_checkpoint();
        self.run_compaction_pass()
    }

    /// The underlying shared database handle.
    pub fn database(&self) -> &SharedDatabase {
        &self.db
    }

    /// The server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
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

    /// Looks a canonical template up in the shared plan cache, planning
    /// and inserting on miss. Returns the plan and whether it was cached.
    fn cached_plan(
        &self,
        key: String,
        tmpl: StatementTemplate,
        snap: &Arc<Database>,
    ) -> Result<(Arc<Prepared>, bool), Json> {
        match self.cache.get(&key) {
            Some(p) => Ok((p, true)),
            None => {
                let p = Arc::new(prepare_template(tmpl, snap).map_err(prepare_error_frame)?);
                self.cache.insert(key, Arc::clone(&p));
                Ok((p, false))
            }
        }
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

    /// Runs a statement-shaped request, recording latency and the error
    /// counter, and stamping `elapsed_us` into success frames.
    fn timed(&self, f: impl FnOnce() -> Result<Json, Json>) -> Json {
        use std::sync::atomic::Ordering::Relaxed;
        let t = Instant::now();
        let resp = f();
        let us = t.elapsed().as_micros() as u64;
        self.stats.latency.record(us);
        match resp {
            Ok(mut ok) => {
                if let Json::Object(m) = &mut ok {
                    m.insert("elapsed_us".into(), Json::Int(us as i64));
                }
                ok
            }
            Err(frame) => {
                self.stats.errors.fetch_add(1, Relaxed);
                frame
            }
        }
    }

    /// Handles one parsed request frame.
    pub fn handle_request(&self, req: &Json, session: &mut StatementRegistry) -> Json {
        use std::sync::atomic::Ordering::Relaxed;
        if let Some(sql) = req.get("sql").and_then(Json::as_str) {
            self.timed(|| self.run_statement(sql, session))
        } else if let Some(sql) = req.get("prepare").and_then(Json::as_str) {
            match self.run_prepare(sql, session) {
                Ok(ok) => ok,
                Err(frame) => {
                    self.stats.errors.fetch_add(1, Relaxed);
                    frame
                }
            }
        } else if let Some(ex) = req.get("execute") {
            self.timed(|| self.run_execute(ex, session))
        } else if let Some(id) = req.get("close") {
            match id.as_i64() {
                Some(id) if id >= 0 => {
                    let closed = session.close(id as u64);
                    Json::obj([("ok", Json::Bool(true)), ("closed", Json::Bool(closed))])
                }
                _ => {
                    self.stats.errors.fetch_add(1, Relaxed);
                    error_frame(ErrorCode::BadRequest, "\"close\" takes a statement id")
                }
            }
        } else if let Some(cmd) = req.get("cmd").and_then(Json::as_str) {
            match cmd {
                "stats" => {
                    self.gauge_footprint();
                    let mut s = self.stats.to_json(&self.cache);
                    if let Json::Object(m) = &mut s {
                        m.insert("engine_threads".into(), Json::Int(self.opts.threads as i64));
                        m.insert("core_budget_total".into(), Json::Int(self.budget.total() as i64));
                        m.insert(
                            "core_budget_in_use".into(),
                            Json::Int(self.budget.in_use() as i64),
                        );
                        let version = self.db.snapshot().version();
                        m.insert("db_version".into(), Json::Int(version as i64));
                        m.insert("templates".into(), self.templates.to_json());
                        let rsnap = self.router.snapshot();
                        m.insert(
                            "router_templates".into(),
                            Json::Int(rsnap.templates.len() as i64),
                        );
                        m.insert("router_regret_us".into(), Json::Float(rsnap.total_regret_us));
                        m.insert(
                            "denorm_cache_entries".into(),
                            Json::Int(self.denorm_cache.len() as i64),
                        );
                    }
                    Json::obj([("ok", Json::Bool(true)), ("stats", s)])
                }
                "metrics" => {
                    self.gauge_footprint();
                    let gauges = [
                        (
                            "astore_server_engine_threads",
                            "Per-query fan-out ceiling.",
                            self.opts.threads as f64,
                        ),
                        (
                            "astore_server_core_budget_total",
                            "Cores in the shared budget.",
                            self.budget.total() as f64,
                        ),
                        (
                            "astore_server_core_budget_in_use",
                            "Cores currently granted to statements.",
                            self.budget.in_use() as f64,
                        ),
                    ];
                    let body = render_prometheus(
                        &self.stats,
                        &self.cache,
                        &self.templates,
                        &self.slowlog,
                        &gauges,
                    );
                    Json::obj([("ok", Json::Bool(true)), ("metrics", Json::Str(body))])
                }
                "slowlog" => {
                    Json::obj([("ok", Json::Bool(true)), ("slowlog", self.slowlog.to_json())])
                }
                "ping" => Json::obj([("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
                "checkpoint" => match self.checkpoint() {
                    Ok((lsn, bytes)) => Json::obj([
                        ("ok", Json::Bool(true)),
                        ("lsn", Json::Int(lsn as i64)),
                        ("snapshot_bytes", Json::Int(bytes as i64)),
                    ]),
                    Err(e) => {
                        self.stats.errors.fetch_add(1, Relaxed);
                        error_frame(ErrorCode::BadRequest, e)
                    }
                },
                other => {
                    self.stats.errors.fetch_add(1, Relaxed);
                    error_frame(ErrorCode::BadRequest, format!("unknown cmd {other:?}"))
                }
            }
        } else {
            self.stats.errors.fetch_add(1, Relaxed);
            error_frame(
                ErrorCode::BadRequest,
                "request needs a \"sql\", \"prepare\", \"execute\", \"close\" or \"cmd\" member",
            )
        }
    }

    /// The text path (`{"sql":…}`): parse, canonicalize into a parameter
    /// template (WHERE literals lifted out), look the template up in the
    /// shared plan cache, bind the extracted literals back, execute. Two
    /// literal variants of the same query — or two formattings of it —
    /// share one plan.
    fn run_statement(&self, sql: &str, session: &mut StatementRegistry) -> Result<Json, Json> {
        if let Some(parsed) = parse_set_engine(sql) {
            let pin = parsed.map_err(|m| error_frame(ErrorCode::ParseError, m))?;
            session.set_engine_pin(pin);
            return Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("engine", Json::Str(pin.map_or("auto", EngineChoice::as_str).to_owned())),
            ]));
        }
        let pin = session.engine_pin();
        if let Some(inner) = strip_explain_analyze(sql) {
            return self.run_explain_analyze(inner, pin);
        }
        if let Some(inner) = strip_explain(sql) {
            return self.run_explain(inner, pin);
        }
        let mut tmpl =
            parse_template(sql).map_err(|e| error_frame(ErrorCode::ParseError, e.to_string()))?;
        // Whether the *client* wrote placeholders: decides how a bind
        // failure is reported (auto-extracted literals are not the
        // client's parameters, so their type errors are plan errors).
        let explicit_params = tmpl.param_count() > 0;
        let inline = extract_select_params(&mut tmpl);
        // This statement's worker thread occupies one core for the
        // duration; the budget must know so concurrent queries' fan-out
        // grants shrink accordingly.
        let _slot = self.budget.enter_statement();
        let key = canonicalize(&mut tmpl);
        let t = Instant::now();
        if tmpl.is_select() {
            let snap = self.db.snapshot();
            let (prepared, cached) = self.cached_plan(key.clone(), tmpl, &snap)?;
            let bind_code =
                if explicit_params { ErrorCode::ParamError } else { ErrorCode::PlanError };
            let out =
                self.exec_select(&snap, &prepared, &inline, cached, bind_code, None, &key, pin);
            if out.is_ok() {
                self.observe_template(&key, t);
            }
            out
        } else {
            // Text-mode writes carry no parameters; a placeholder here is
            // a protocol error (prepare/execute is the parameterized path).
            let stmt = tmpl
                .into_concrete()
                .map_err(|e| error_frame(ErrorCode::ParamError, e.to_string()))?;
            // canonicalize() above case-folded identifiers in place, so the
            // applied statement may differ from the client's raw text (e.g.
            // `INSERT INTO FACT` applies to table `fact`). The WAL must
            // record the canonical rendering: replay parses it verbatim,
            // without case-folding.
            let wal_sql = stmt.to_sql().expect("concrete write renders");
            let out = self.exec_write(&stmt, &wal_sql);
            if out.is_ok() {
                self.observe_template(&key, t);
            }
            out
        }
    }

    /// `EXPLAIN ANALYZE <select>`: runs the statement with a span recorder
    /// attached — regardless of the global tracing toggle — and returns
    /// the query result plus an `analyze` member: the executed plan
    /// annotated with actual per-phase times, morsel spans and per-segment
    /// prune decisions.
    fn run_explain_analyze(&self, sql: &str, pin: Option<EngineChoice>) -> Result<Json, Json> {
        let mut tmpl =
            parse_template(sql).map_err(|e| error_frame(ErrorCode::ParseError, e.to_string()))?;
        let explicit_params = tmpl.param_count() > 0;
        let inline = extract_select_params(&mut tmpl);
        if !tmpl.is_select() {
            return Err(error_frame(
                ErrorCode::PlanError,
                "EXPLAIN ANALYZE supports SELECT statements only",
            ));
        }
        let _slot = self.budget.enter_statement();
        let key = canonicalize(&mut tmpl);
        let t = Instant::now();
        let snap = self.db.snapshot();
        let (prepared, cached) = self.cached_plan(key.clone(), tmpl, &snap)?;
        let bind_code = if explicit_params { ErrorCode::ParamError } else { ErrorCode::PlanError };
        let trace = Arc::new(TraceBuf::new());
        let out =
            self.exec_select(&snap, &prepared, &inline, cached, bind_code, Some(trace), &key, pin);
        if out.is_ok() {
            self.observe_template(&key, t);
        }
        out
    }

    /// The `{"prepare":…}` path: plan (or fetch from the shared plan
    /// cache) and register the template in the session's registry.
    fn run_prepare(&self, sql: &str, session: &mut StatementRegistry) -> Result<Json, Json> {
        use std::sync::atomic::Ordering::Relaxed;
        let mut tmpl =
            parse_template(sql).map_err(|e| error_frame(ErrorCode::ParseError, e.to_string()))?;
        let key = canonicalize(&mut tmpl);
        let key_arc: Arc<str> = Arc::from(key.as_str());
        let is_select = tmpl.is_select();
        // Only fully parameterized SELECTs go through the shared plan
        // cache: write templates carry no plan, and a SELECT with inline
        // WHERE literals would key per-literal — a client preparing fresh
        // literal SQL each request could flood the FIFO and evict the hot
        // shared templates. (The text path extracts literals before
        // keying, so its templates are always cacheable.)
        let cacheable = is_select && !tmpl.has_predicate_literals();
        let prepared = match cacheable.then(|| self.cache.get(&key)).flatten() {
            Some(p) => p,
            None => {
                let snap = self.db.snapshot();
                let p = Arc::new(prepare_template(tmpl, &snap).map_err(prepare_error_frame)?);
                if cacheable {
                    self.cache.insert(key, Arc::clone(&p));
                }
                p
            }
        };
        let param_count = prepared.param_count() as i64;
        let columns =
            prepared.columns().map(|cs| Json::Array(cs.iter().cloned().map(Json::Str).collect()));
        let column_types = prepared
            .column_types()
            .map(|ts| Json::Array(ts.iter().map(|t| Json::Str(t.to_string())).collect()));
        let (id, evicted) = session.register(key_arc, prepared);
        self.stats.prepares.fetch_add(1, Relaxed);
        let mut frame = Json::obj([
            ("ok", Json::Bool(true)),
            ("stmt_id", Json::Int(id as i64)),
            ("param_count", Json::Int(param_count)),
            ("kind", Json::Str(if is_select { "select".into() } else { "write".into() })),
        ]);
        if let Json::Object(m) = &mut frame {
            if let Some(cols) = columns {
                m.insert("columns".into(), cols);
            }
            if let Some(types) = column_types {
                m.insert("column_types".into(), types);
            }
            if let Some(old) = evicted {
                m.insert("evicted_stmt".into(), Json::Int(old as i64));
            }
        }
        Ok(frame)
    }

    /// The `{"execute":{"id":…,"params":[…]}}` path: look the statement up
    /// in the session registry, bind, run. No SQL text is parsed here —
    /// this is the bind-per-request hot path.
    fn run_execute(&self, ex: &Json, session: &StatementRegistry) -> Result<Json, Json> {
        use std::sync::atomic::Ordering::Relaxed;
        let id = ex.get("id").and_then(Json::as_i64).filter(|id| *id >= 0).ok_or_else(|| {
            error_frame(ErrorCode::BadRequest, "\"execute\" needs a statement \"id\"")
        })?;
        let registered = session.get(id as u64).ok_or_else(|| {
            error_frame(
                ErrorCode::UnknownStatement,
                format!("statement {id} is not prepared in this session"),
            )
        })?;
        let prepared = registered.prepared;
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
        let _slot = self.budget.enter_statement();
        self.stats.prepared_execs.fetch_add(1, Relaxed);
        let t = Instant::now();
        let out = if prepared.is_select() {
            let snap = self.db.snapshot();
            self.exec_select(
                &snap,
                &prepared,
                &params,
                true,
                ErrorCode::ParamError,
                None,
                &registered.key,
                session.engine_pin(),
            )
        } else {
            let stmt = match prepared
                .bind(&params)
                .map_err(|e| error_frame(ErrorCode::ParamError, e.to_string()))?
            {
                BoundStatement::Write(s) => s,
                BoundStatement::Select(_) => unreachable!("is_select checked"),
            };
            let wal_sql = stmt.to_sql().expect("bound write renders");
            self.exec_write(&stmt, &wal_sql)
        };
        if out.is_ok() {
            self.observe_template(&registered.key, t);
        }
        out
    }

    /// Binds parameters into a prepared SELECT, routes it to an engine, and
    /// executes it against a snapshot. `bind_code` is the error code a bind
    /// failure maps to: `param_error` when the client supplied the
    /// parameters, `plan_error` when they are auto-extracted literals of a
    /// text-mode statement (the client never wrote a `$n`). With `trace`
    /// attached (the `EXPLAIN ANALYZE` path), spans are recorded during
    /// execution and the response gains an `analyze` member.
    ///
    /// Engine dispatch: the adaptive [`Router`] picks AIR, the hash-join
    /// baseline, or a cached denormalized scan per canonical template
    /// (`key`), honoring a session/server `pin`. The non-AIR arms are bound
    /// by a hard result-identity contract and **fall back to AIR** on any
    /// engine failure or unrewritable shape — routing can never fail a
    /// query that forced-AIR would answer. The observed engine latency
    /// feeds the router's per-arm history and the per-engine histograms.
    #[allow(clippy::too_many_arguments)]
    fn exec_select(
        &self,
        snap: &Arc<Database>,
        prepared: &Prepared,
        params: &[Value],
        cached: bool,
        bind_code: ErrorCode,
        trace: Option<Arc<TraceBuf>>,
        key: &str,
        pin: Option<EngineChoice>,
    ) -> Result<Json, Json> {
        use std::sync::atomic::Ordering::Relaxed;
        let query = match prepared.bind(params).map_err(|e| match bind_code {
            ErrorCode::PlanError => error_frame(
                ErrorCode::PlanError,
                format!("type mismatch in predicate literal: {e}"),
            ),
            code => error_frame(code, e.to_string()),
        })? {
            BoundStatement::Select(q) => q,
            BoundStatement::Write(_) => {
                return Err(error_frame(ErrorCode::BadRequest, "statement is not a SELECT"))
            }
        };
        let eligible = self.engine_eligibility(snap, &query, key);
        let decision = self.router.decide(key, eligible, pin);
        let mut engine_used = decision.choice;
        let t_engine = Instant::now();
        let run = match decision.choice {
            EngineChoice::Air => self.run_air(snap, &query, &trace)?,
            EngineChoice::Join => match self.run_join(snap, &query, trace.is_some()) {
                Some(r) => r,
                None => {
                    engine_used = EngineChoice::Air;
                    self.run_air(snap, &query, &trace)?
                }
            },
            EngineChoice::Denorm => match self.run_denorm(snap, &query, key, trace.is_some()) {
                Some(r) => r,
                None => {
                    engine_used = EngineChoice::Air;
                    self.run_air(snap, &query, &trace)?
                }
            },
        };
        let engine_us = t_engine.elapsed().as_micros() as u64;
        let obs = self.router.observe(key, engine_used, engine_us as f64);
        self.stats.engine_latency[engine_used.index()].record(engine_us);
        let (result, scanned, pruned, parallel, denied) = match &run {
            EngineRun::Air { out, want } => (
                &out.result,
                out.plan.segments_scanned,
                out.plan.segments_pruned,
                out.plan.executor.is_parallel(),
                // The planner wanted to fan out but the query ran serial
                // (budget exhausted or final row-count clamp). A fully-pruned
                // scan is excluded: zone maps proving there is nothing to scan
                // is not a denial.
                !out.plan.executor.is_parallel() && *want > 1 && out.plan.segments_scanned > 0,
            ),
            EngineRun::Other { result, .. } => (result, 0, 0, false, false),
        };
        {
            // One statement's counter updates form one seqlock write
            // group, so a concurrent stats snapshot sees all of them or
            // none (e.g. never pruned bumped but scanned not yet).
            let _group = self.stats.group.begin_write();
            self.stats.router_decisions[engine_used.index()].fetch_add(1, Relaxed);
            if obs.mispredicted {
                self.stats.router_mispredictions.fetch_add(1, Relaxed);
            }
            if parallel {
                self.stats.parallel_queries.fetch_add(1, Relaxed);
            } else if denied {
                self.stats.parallel_denied.fetch_add(1, Relaxed);
            }
            self.stats.segments_scanned.fetch_add(scanned as u64, Relaxed);
            self.stats.segments_pruned.fetch_add(pruned as u64, Relaxed);
            self.stats.queries.fetch_add(1, Relaxed);
        }
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
            ("engine", Json::Str(engine_used.as_str().to_owned())),
            ("segments_scanned", Json::Int(scanned as i64)),
            ("segments_pruned", Json::Int(pruned as i64)),
        ]);
        if let (Some(t), Json::Object(m)) = (&trace, &mut frame) {
            let mut lines = vec![format!(
                "router: engine={} reason={} elapsed={engine_us}us",
                engine_used.as_str(),
                decision.reason.as_str()
            )];
            match &run {
                EngineRun::Air { out, .. } => {
                    lines.extend(astore_core::analyze::render_analyze(out, t));
                }
                EngineRun::Other { lines: engine_lines, .. } => {
                    lines.extend(engine_lines.iter().cloned());
                }
            }
            m.insert("analyze".into(), Json::Array(lines.into_iter().map(Json::Str).collect()));
        }
        Ok(frame)
    }

    /// Which engines can serve this query. AIR always can. Neither the
    /// join pipeline's universal relation nor the denormalized wide table
    /// carries positional row addresses, so any `rowid` predicate is
    /// AIR-only. Denorm is additionally gated on fact size (materializing a
    /// huge fact would dwarf any benefit) and on the cached shape probe.
    fn engine_eligibility(&self, snap: &Database, query: &Query, key: &str) -> [bool; 3] {
        let uses_rowid = query.selections.iter().any(|(_, p)| p.columns().contains(&"rowid"));
        let mut eligible = [true; 3];
        eligible[EngineChoice::Join.index()] = !uses_rowid;
        eligible[EngineChoice::Denorm.index()] = !uses_rowid
            && estimated_scan_rows(snap, query) <= self.router.config().denorm_max_fact_rows
            && self.router.denorm_rewritable(key) != Some(false);
        eligible
    }

    /// The production AIR arm: morsel fan-out under the core budget's
    /// grant. Zero grant = serial — never blocking, never oversubscribing.
    /// The request is sized by the executor from the rows its zone-map
    /// survey keeps, so a pruned statement asks for no permit it would not
    /// use.
    fn run_air(
        &self,
        snap: &Arc<Database>,
        query: &Query,
        trace: &Option<Arc<TraceBuf>>,
    ) -> Result<EngineRun, Json> {
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
        .map_err(|e| error_frame(ErrorCode::ExecError, e.to_string()))?;
        Ok(EngineRun::Air { out, want })
    }

    /// The hash-join baseline arm. `None` = engine failure; the caller
    /// falls back to AIR, so a routed query never fails where forced AIR
    /// would succeed.
    fn run_join(&self, snap: &Database, query: &Query, traced: bool) -> Option<EngineRun> {
        let hp = execute_hash_pipeline(snap, query).ok()?;
        let lines = if traced {
            vec![format!(
                "engine: join  build={}us probe={}us selected_rows={}",
                hp.build_time.as_micros(),
                hp.probe_time.as_micros(),
                hp.selected_rows
            )]
        } else {
            Vec::new()
        };
        Some(EngineRun::Other { result: hp.result, lines })
    }

    /// The cached-denormalization arm: rewrite the query onto the wide
    /// table and scan it serially. The cache entry is epoch-validated
    /// against this snapshot, so a write to any folded table forces a
    /// rebuild — stale rows are never served. An unrewritable shape is
    /// remembered (`set_denorm_rewritable`) so the router stops offering
    /// this arm for the template; `None` falls back to AIR.
    fn run_denorm(
        &self,
        snap: &Arc<Database>,
        query: &Query,
        key: &str,
        traced: bool,
    ) -> Option<EngineRun> {
        let graph = JoinGraph::build(snap);
        let root = bind_root(&graph, query.root.as_deref(), &query.referenced_tables()).ok()?;
        let entry = self.denorm_cache.get_or_build(snap, &root).ok()?;
        if !query_rewritable(&entry.denorm, query, &root) {
            self.router.set_denorm_rewritable(key, false);
            return None;
        }
        self.router.set_denorm_rewritable(key, true);
        let wide = entry.denorm.rewrite(query, &root);
        let exec_opts = ExecOptions { threads: 1, ..self.opts.clone() };
        let out = execute(&entry.denorm.db, &wide, &exec_opts).ok()?;
        let lines = if traced {
            vec![format!(
                "engine: denorm  wide={} wide_rows={} segments_scanned={}",
                entry.denorm.wide_name,
                entry.denorm.table().num_live(),
                out.plan.segments_scanned
            )]
        } else {
            Vec::new()
        };
        Some(EngineRun::Other { result: out.result, lines })
    }

    /// Bare `EXPLAIN <select>`: plans the statement and previews the
    /// router's verdict — engine, reason, the static feature vector, the
    /// per-arm latency history and regret-to-date — without executing
    /// anything or perturbing the learned state ([`Router::peek`]).
    fn run_explain(&self, sql: &str, pin: Option<EngineChoice>) -> Result<Json, Json> {
        let mut tmpl =
            parse_template(sql).map_err(|e| error_frame(ErrorCode::ParseError, e.to_string()))?;
        let explicit_params = tmpl.param_count() > 0;
        let inline = extract_select_params(&mut tmpl);
        if !tmpl.is_select() {
            return Err(error_frame(
                ErrorCode::PlanError,
                "EXPLAIN supports SELECT statements only",
            ));
        }
        let key = canonicalize(&mut tmpl);
        let snap = self.db.snapshot();
        let (prepared, cached) = self.cached_plan(key.clone(), tmpl, &snap)?;
        let bind_code = if explicit_params { ErrorCode::ParamError } else { ErrorCode::PlanError };
        let query =
            match prepared.bind(&inline).map_err(|e| error_frame(bind_code, e.to_string()))? {
                BoundStatement::Select(q) => q,
                BoundStatement::Write(_) => {
                    return Err(error_frame(ErrorCode::BadRequest, "statement is not a SELECT"))
                }
            };
        let selection = plan_selection(&snap, &query, &self.opts)
            .map_err(|e| error_frame(ErrorCode::ExecError, e.to_string()))?;
        let features = Features::extract(&snap, &query);
        let eligible = self.engine_eligibility(&snap, &query, &key);
        let decision = self.router.peek(&key, eligible, pin);
        let (top_name, top_value) = features.top_feature();
        let eligible_list = EngineChoice::ALL
            .into_iter()
            .filter(|e| eligible[e.index()])
            .map(EngineChoice::as_str)
            .collect::<Vec<_>>()
            .join(",");
        let mut lines = vec![
            format!("engine: {} ({})", decision.choice.as_str(), decision.reason.as_str()),
            format!("template: {key}"),
            format!(
                "features: fact_rows_live={} segments={}/{} group_domain={} selectivity={:.4}",
                features.fact_rows_live,
                features.segments_surviving,
                features.segments_total,
                features.group_domain,
                features.selectivity
            ),
            format!("top_feature: {top_name}={top_value:.4}"),
            format!("eligible: {eligible_list}"),
            format!("selection: {selection}"),
        ];
        if let Some(ts) = self.router.template_snapshot(&key) {
            for e in EngineChoice::ALL {
                let (tries, ewma) = ts.arms[e.index()];
                lines.push(format!("arm: {} tries={tries} ewma_us={ewma:.0}", e.as_str()));
            }
            lines.push(format!("regret_us: {:.0}", ts.regret_us));
        }
        Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("engine", Json::Str(decision.choice.as_str().to_owned())),
            ("reason", Json::Str(decision.reason.as_str().to_owned())),
            ("top_feature", Json::Str(top_name.to_owned())),
            ("cached_plan", Json::Bool(cached)),
            ("explain", Json::Array(lines.into_iter().map(Json::Str).collect())),
        ]))
    }

    /// Commits one concrete write statement through the group-commit
    /// pipeline. `wal_sql` is the text the write-ahead log records — always
    /// the canonical rendering ([`Statement::to_sql`]) of the statement
    /// being applied, never the client's raw text, so replay (which parses
    /// the log verbatim) sees exactly the statement that mutated memory.
    ///
    /// The statement is staged; the first stager becomes the batch leader
    /// and commits everything staged so far as one batch (see
    /// [`Engine::commit_batch`]), everyone else parks on their slot until
    /// the leader posts their result. Either way the statement is on disk
    /// before the acknowledgment frame can be sent.
    fn exec_write(&self, write_stmt: &Statement, wal_sql: &str) -> Result<Json, Json> {
        let slot = Arc::new(WriteSlot::default());
        let lead = {
            let mut st = self.commit.lock().unwrap_or_else(|p| p.into_inner());
            st.pending.push(PendingWrite {
                stmt: write_stmt.clone(),
                wal_sql: wal_sql.to_owned(),
                slot: Arc::clone(&slot),
            });
            !std::mem::replace(&mut st.leader_active, true)
        };
        if lead {
            self.lead_commits();
        }
        let affected = slot.wait()?;
        Ok(Json::obj([("ok", Json::Bool(true)), ("rows_affected", Json::Int(affected as i64))]))
    }

    /// The leader loop: drain the staging queue and commit each drained
    /// batch, until a drain comes up empty. Stepping down happens under the
    /// staging mutex in the same critical section as the emptiness check,
    /// so a write staged concurrently either joined a drained batch or sees
    /// `leader_active == false` and elects itself.
    fn lead_commits(&self) {
        let _publish = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            let batch = {
                let mut st = self.commit.lock().unwrap_or_else(|p| p.into_inner());
                if st.pending.is_empty() {
                    st.leader_active = false;
                    return;
                }
                std::mem::take(&mut st.pending)
            };
            self.commit_batch(batch);
        }
    }

    /// Commits one batch. Caller holds `commit_lock`, so the snapshot taken
    /// here is the latest published image and nobody else can publish
    /// until this batch lands.
    ///
    /// Per-statement conflict detection: each statement validates against
    /// the batch-in-progress image (earlier batchmates' effects included);
    /// a failure bounces that statement alone with a `write_error` — its
    /// batchmates commit. After validation the apply cannot fail, so the
    /// one WAL append (one fsync for the whole batch, LSNs assigned in
    /// apply order) is the commit point: if it errors, every applied
    /// statement is thrown away with the private clone and memory, log and
    /// clients all agree the batch never happened.
    ///
    /// The private clone shares every table with the published image;
    /// applying a statement clones the written table's chunk *pointers* and
    /// copies only the chunks it overwrites. An appending `INSERT` copies
    /// no column chunk: the row goes into the space reserved behind each
    /// tail chunk, which the published image keeps sharing (it reads the
    /// shorter prefix it knows). Publishing the batch is what hands the
    /// right to extend those tails to the next batch; a batch thrown away
    /// after a failed WAL append has already claimed the slots it wrote,
    /// so the next batch — built on the published image again — copies
    /// each tail once and goes on in its own buffers, and the orphaned rows
    /// are never visible to anyone.
    fn commit_batch(&self, batch: Vec<PendingWrite>) {
        use std::sync::atomic::Ordering::Relaxed;
        let mut work = (*self.db.snapshot()).clone();
        let mut applied: Vec<(Arc<WriteSlot>, usize)> = Vec::with_capacity(batch.len());
        let mut sqls: Vec<String> = Vec::with_capacity(batch.len());
        for pw in batch {
            match validate_statement(&work, &pw.stmt) {
                Ok(()) => {
                    let n =
                        apply_statement(&mut work, &pw.stmt).expect("validated statement applies");
                    sqls.push(pw.wal_sql);
                    applied.push((pw.slot, n));
                }
                Err(msg) => pw.slot.finish(Err(error_frame(ErrorCode::WriteError, msg))),
            }
        }
        if applied.is_empty() {
            return;
        }
        if let Some(d) = &self.durability {
            let mut wal = d.wal.lock().unwrap_or_else(|p| p.into_inner());
            if let Err(e) = wal.append_batch(&sqls) {
                let frame = error_frame(
                    ErrorCode::InternalError,
                    format!("WAL append failed, write aborted: {e}"),
                );
                for (slot, _) in applied {
                    slot.finish(Err(frame.clone()));
                }
                return;
            }
            // Only note that the fold is due: the maintenance thread runs
            // it, so the batch's clients are acknowledged without waiting.
            if d.checkpoint_every > 0 && wal.appended_since_reset() >= d.checkpoint_every {
                d.checkpoint_due.store(true, Ordering::SeqCst);
            }
        }
        work.bump_version();
        self.db.replace(Arc::new(work));
        {
            let _group = self.stats.group.begin_write();
            self.stats.writes.fetch_add(applied.len() as u64, Relaxed);
            if self.durability.is_some() {
                self.stats.wal_records.fetch_add(sqls.len() as u64, Relaxed);
            }
            self.stats.group_commits.fetch_add(1, Relaxed);
        }
        for (slot, n) in applied {
            slot.finish(Ok(n));
        }
    }

    /// One background-compaction pass. The rule, in full: a **complete**
    /// segment (the filling tail is left to appends) that is unsealed — a
    /// value write decoded or rewrote some of its chunks — is re-encoded
    /// once its write stamp
    /// ([`astore_storage::table::Table::segment_written`]) has not moved for
    /// [`COMPACT_QUIET`]. A segment a writer keeps touching is therefore
    /// never picked, however often the pass runs: encoding a chunk that the
    /// next write decodes again would be pure churn. (Checkpoints do not
    /// wait: they seal everything they persist.)
    ///
    /// Due segments — up to a handful per pass — are encoded against a COW
    /// snapshot with no locks held and installed under the commit lock;
    /// [`astore_storage::table::Table::install_compacted`] refuses a result if any chunk of the
    /// segment is no longer the allocation the encode read, i.e. if a write
    /// slipped in, and the segment starts a new quiet period. Readers
    /// holding the current image never delay an install: a shared table is
    /// cloned (pointer bumps) and only the installed chunks change. Returns
    /// the number of segments installed.
    pub fn run_compaction_pass(&self) -> usize {
        const MAX_SEGMENTS_PER_PASS: usize = 8;
        let snap = self.db.snapshot();
        let now = Instant::now();
        let mut encoded = Vec::new();
        {
            let mut seen = self.unsealed_since.lock().unwrap_or_else(|p| p.into_inner());
            seen.retain(|name, _| snap.table(name).is_some());
            'scan: for name in snap.table_names() {
                let Some(t) = snap.table(name) else { continue };
                let complete = t.num_slots() / t.segment_rows();
                let segs = seen.entry(name.clone()).or_default();
                segs.retain(|&seg, _| seg < complete && t.segment_written(seg).is_some());
                for seg in 0..complete {
                    let Some(stamp) = t.segment_written(seg) else { continue };
                    let first_seen = segs.entry(seg).or_insert((stamp, now));
                    if first_seen.0 != stamp {
                        *first_seen = (stamp, now);
                    } else if now.duration_since(first_seen.1) >= COMPACT_QUIET {
                        // The heavy part, off every lock: readers and
                        // writers proceed while this encodes.
                        encoded.push((name.clone(), seg, t.encode_segment_now(seg)));
                        if encoded.len() >= MAX_SEGMENTS_PER_PASS {
                            break 'scan;
                        }
                    }
                }
            }
        }
        drop(snap);
        if encoded.is_empty() {
            return 0;
        }
        let mut installed = 0usize;
        {
            let _publish = self.commit_lock.lock().unwrap_or_else(|p| p.into_inner());
            self.db.write(|db| {
                for (name, seg, enc) in encoded {
                    let installs =
                        db.table_mut(&name).is_some_and(|t| t.install_compacted(seg, enc));
                    installed += usize::from(installs);
                }
            });
        }
        if installed > 0 {
            self.stats.compactions.fetch_add(installed as u64, Ordering::Relaxed);
            self.gauge_footprint();
        }
        installed
    }
}

/// How long a complete segment must have gone unwritten before the
/// background compactor re-encodes its flat chunks (see
/// [`Engine::run_compaction_pass`]). Long next to the gap between two writes
/// of a busy writer, short next to how long an idle table stays idle.
pub const COMPACT_QUIET: Duration = Duration::from_secs(1);

/// Seals every segment of every table that needs it.
fn seal_all(db: &mut Database) {
    for name in db.table_names().to_vec() {
        db.table_mut(&name).expect("listed table exists").seal_segments();
    }
}

/// One engine arm's execution output: the AIR path keeps its full
/// [`ExecOutput`] (plan diagnostics + trace-renderable spans); the join and
/// denorm arms produce bare rows plus pre-rendered analyze lines.
enum EngineRun {
    /// The AIR scan ran, under a fan-out request of `want` threads.
    Air { out: ExecOutput, want: usize },
    /// A non-AIR arm ran.
    Other { result: QueryResult, lines: Vec<String> },
}

/// Recognizes `SET engine = air|join|denorm|auto` (case-insensitive,
/// `=` optional, trailing `;` tolerated). `None` = not a SET-engine
/// statement; `Some(Err)` = it is one, with a bad value.
fn parse_set_engine(sql: &str) -> Option<Result<Option<EngineChoice>, String>> {
    let s = sql.trim().trim_end_matches(';').trim();
    let mut words = s.split_whitespace();
    if !words.next()?.eq_ignore_ascii_case("set") {
        return None;
    }
    let rest = words.collect::<Vec<_>>().join(" ");
    let lower = rest.to_ascii_lowercase();
    let after = lower.strip_prefix("engine")?;
    let value = after.trim_start().trim_start_matches('=').trim();
    if value.is_empty() {
        return Some(Err("SET engine takes a value: air|join|denorm|auto".to_owned()));
    }
    Some(EngineChoice::parse(value))
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

/// The denorm arm's fact-size gate: the largest table the query references
/// (the fact table dominates a star query). An explicit root is trusted
/// outright; a query referencing no known table estimates 0.
fn estimated_scan_rows(db: &astore_storage::catalog::Database, query: &Query) -> usize {
    if let Some(root) = &query.root {
        return db.table(root).map(|t| t.num_slots()).unwrap_or(0);
    }
    query
        .referenced_tables()
        .iter()
        .filter_map(|t| db.table(t))
        .map(|t| t.num_slots())
        .max()
        .unwrap_or(0)
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

    fn engine() -> Engine {
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

    fn sql(e: &Engine, s: &str) -> Json {
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
    fn write_validation_rejects_without_mutating() {
        let e = engine();
        for bad in [
            "INSERT INTO nope VALUES (1)",
            "INSERT INTO fact VALUES (1)",               // arity
            "INSERT INTO fact VALUES (1, 'str')",        // type
            "INSERT INTO fact VALUES (9, 1)",            // dangling key
            "INSERT INTO fact VALUES (0, 1), (0, NULL)", // later row invalid → whole stmt rejected
            "UPDATE fact SET nope = 1 WHERE rowid = 0",
            "UPDATE fact SET f_v = 1 WHERE rowid = 99",
        ] {
            let r = sql(&e, bad);
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(false), "{bad}");
            assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{bad}");
        }
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(3), "no partial writes");
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
    }

    #[test]
    fn boot_seal_primes_footprint_gauges() {
        // big_db spans two full segments; with_options seals them at boot,
        // so the footprint gauges report a real (and compressed) residency.
        let e = Engine::new(SharedDatabase::new(big_db()));
        let r = e.handle_line(r#"{"cmd":"stats"}"#);
        let s = r.get("stats").unwrap();
        let enc = s.get("encoded_bytes").unwrap().as_i64().unwrap();
        let raw = s.get("raw_bytes").unwrap().as_i64().unwrap();
        assert!(enc > 0, "boot seal produced no encoded segments");
        assert!(enc < raw, "encoded footprint should beat raw: {enc} vs {raw}");
        // Query results are unaffected by the sealed representation.
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
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

    #[test]
    fn mixed_case_text_write_replays_from_wal() {
        // Text writes are case-folded before apply (`INSERT INTO FACT`
        // mutates table `fact`), but WAL replay parses the log verbatim —
        // so the log must store the canonical rendering, never the raw
        // client text, or a committed write becomes unrecoverable.
        let dir = std::env::temp_dir().join(format!("astore-engine-case-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
        let r = sql(&e, "INSERT INTO FACT VALUES (1, 100)");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let r = sql(&e, "UPDATE Fact SET F_V = 11 WHERE ROWID = 0");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let live_sum = {
            let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap()
        };
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 2, "mixed-case committed writes replay");
        let e2 =
            Engine::new(SharedDatabase::new(rec.db)).durable(Durability::new(&dir, rec.wal, 0));
        let r = sql(&e2, "SELECT sum(f_v) AS s FROM fact");
        let sum2 =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(sum2, live_sum, "recovered state equals pre-crash state");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_without_data_dir_is_a_typed_error() {
        let e = engine();
        let r = e.handle_line(r#"{"cmd":"checkpoint"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("--data-dir"));
    }

    #[test]
    fn auto_checkpoint_is_noted_by_the_write_and_run_by_maintenance() {
        let dir = std::env::temp_dir().join(format!("astore-engine-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 3));
        let checkpoints = || e.stats().checkpoints.load(std::sync::atomic::Ordering::Relaxed);
        for i in 0..3 {
            assert!(!e.checkpoint_due(), "write {i} is below the threshold");
            let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        // The third write crossed the threshold and was acknowledged — the
        // fold is only noted, not charged to the writer's thread.
        assert!(e.checkpoint_due(), "third write crosses the threshold");
        assert_eq!(checkpoints(), 0, "no fold ran on the acknowledging thread");
        e.run_maintenance();
        assert_eq!(checkpoints(), 1, "the maintenance pass ran the due fold");
        assert!(!e.checkpoint_due());
        e.run_maintenance();
        assert_eq!(checkpoints(), 1, "nothing due, nothing folded");
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "everything folded into the snapshot");
        assert_eq!(rec.db.table("fact").unwrap().num_live(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A star schema with a fact table big enough (two full segments) that
    /// the default planner wants to fan out.
    fn big_db() -> Database {
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
        for i in 0..(2 * SEGMENT_ROWS as u32) {
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
    /// from the table: a statement that prunes to one segment takes no
    /// permit beyond its own, is not counted as denied, and leaves the
    /// budget free for the statements beside it.
    #[test]
    fn zone_pruned_statements_ask_for_no_extra_permit() {
        // Dimension row k is referenced by the k-th sixteenth of the fact
        // rows, so one name keeps one of the two segments.
        let db = big_db_keyed(|i| i / (2 * SEGMENT_ROWS as u32 / 16));
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
            let replies: Vec<Json> = (0..100)
                .map(|i| {
                    let q =
                        format!("SELECT sum(f_v) AS s FROM fact, dim WHERE d_name = 'd{}'", i % 16);
                    sqls(&e, &mut session, &q)
                })
                .collect();
            done.store(true, Ordering::Relaxed);
            replies
        });
        for r in &replies {
            assert_eq!(r.get("segments_scanned").and_then(Json::as_i64), Some(1), "{r:?}");
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

    #[test]
    fn concurrent_writes_group_commit_and_recover() {
        let dir = std::env::temp_dir().join(format!("astore-engine-group-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = std::sync::Arc::new(
            Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0)),
        );
        let (threads, per) = (8, 10);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                    }
                });
            }
        });
        use std::sync::atomic::Ordering::Relaxed;
        let total = (threads * per) as u64;
        assert_eq!(e.stats().writes.load(Relaxed), total);
        assert_eq!(e.stats().wal_records.load(Relaxed), total);
        let commits = e.stats().group_commits.load(Relaxed);
        assert!(commits >= 1 && commits <= total, "commits {commits}");
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let n =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(n, 3 + total as i64);
        drop(e);
        // Every acknowledged write replays: group commit batches on disk
        // carry per-statement LSNs.
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, total as usize);
        assert_eq!(rec.db.table("fact").unwrap().num_live(), 3 + total as usize);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_batchmates_bounce_individually() {
        // Valid and invalid writes race into the same batches; each invalid
        // one gets its own write_error and never drags a batchmate down.
        let e = std::sync::Arc::new(engine());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let r = sql(&e, "INSERT INTO fact VALUES (1, 7)");
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                    }
                });
            }
            for _ in 0..2 {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let r = sql(&e, "INSERT INTO fact VALUES (9, 1)"); // dangling key
                        assert_eq!(r.get("code").unwrap().as_str(), Some("write_error"), "{r:?}");
                    }
                });
            }
        });
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().writes.load(Relaxed), 40);
        let r = sql(&e, "SELECT count(*) AS n FROM fact");
        let n =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(n, 43, "valid writes all landed, invalid none");
    }

    #[test]
    fn compaction_waits_for_a_quiet_period_then_reseals() {
        use std::sync::atomic::Ordering::Relaxed;
        let e = Engine::new(SharedDatabase::new(big_db()));
        // Boot sealed both (complete) fact segments.
        let flat_chunks = |e: &Engine| {
            let r = e.handle_line(r#"{"cmd":"stats"}"#);
            r.get("stats").unwrap().get("flat_chunks").unwrap().as_i64().unwrap()
        };
        let sealed = flat_chunks(&e);
        let n = 2 * SEGMENT_ROWS as i64;
        let base_sum: i64 = n * (n - 1) / 2;
        let mut replaced = 0i64;
        let mut update = |row: i64| {
            let r = sql(&e, &format!("UPDATE fact SET f_v = 999999 WHERE rowid = {row}"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
            replaced += row;
        };
        // A writer touching every segment four times a second, for longer
        // than the quiet period: the compactor, polling all along, never
        // re-encodes anything.
        let start = Instant::now();
        let mut round = 0i64;
        while start.elapsed() < COMPACT_QUIET + Duration::from_millis(500) {
            update(round);
            update(SEGMENT_ROWS as i64 + round);
            round += 1;
            for _ in 0..5 {
                assert_eq!(e.run_compaction_pass(), 0, "a busy segment is not re-encoded");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
        assert_eq!(e.stats().compactions.load(Relaxed), 0);
        assert_eq!(flat_chunks(&e), sealed + 2, "each write decoded the one chunk it touched");
        // The writer stops: within two quiet periods both segments are
        // encoded again — while a reader holds the image; the install
        // replaces chunks, readers never delay the compactor.
        let held = e.database().snapshot();
        let stopped = Instant::now();
        while flat_chunks(&e) > sealed {
            assert!(stopped.elapsed() < 2 * COMPACT_QUIET, "segments still flat after two periods");
            e.run_compaction_pass();
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(e.stats().compactions.load(Relaxed), 2);
        assert_eq!(e.run_compaction_pass(), 0, "nothing left to do");
        let fact = held.table("fact").unwrap();
        assert!(
            fact.column_at(1).chunk_encoding(0).is_none(),
            "the held image keeps its flat chunk"
        );
        let r = sql(&e, "SELECT sum(f_v) AS s FROM fact");
        let s =
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap();
        assert_eq!(s, base_sum - replaced + 2 * round * 999999, "compaction preserved the values");
    }

    #[test]
    fn a_served_insert_leaves_the_tail_shared_with_the_published_image() {
        let e = engine();
        let copies = |e: &Engine| {
            let r = e.handle_line(r#"{"cmd":"stats"}"#);
            r.get("stats").unwrap().get("append_copies").unwrap().as_i64().unwrap()
        };
        // Boot sealed the (partial) fact segment: the first insert decodes
        // both tail chunks, reserving space behind them …
        sql(&e, "INSERT INTO fact VALUES (0, 1)");
        assert_eq!(copies(&e), 2);
        // … which the next inserts fill, each batch against a published
        // image (and a held snapshot) that shares the tail throughout.
        let held = e.database().snapshot();
        for v in 0..50 {
            let r = sql(&e, &format!("INSERT INTO fact VALUES (1, {v})"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        assert_eq!(copies(&e), 2, "fifty inserts copied no column chunk");
        let now = e.database().snapshot();
        let (old, new) = (held.table("fact").unwrap(), now.table("fact").unwrap());
        assert!((0..2).all(|c| new.column_at(c).shares_chunk(old.column_at(c), 0)));
        assert_eq!((old.num_slots(), new.num_slots()), (4, 54));
        let r = sql(&e, "SELECT count(*) AS n, sum(f_v) AS s FROM fact");
        let row = r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap();
        assert_eq!((row[0].as_i64(), row[1].as_i64()), (Some(54), Some(61 + 49 * 50 / 2)));
        let m = e.handle_line(r#"{"cmd":"metrics"}"#);
        let text = m.get("metrics").and_then(Json::as_str).unwrap_or_default().to_owned();
        assert!(text.contains("astore_server_append_copies 2"), "{m:?}");
    }

    #[test]
    fn checkpoint_races_writers_without_losing_acks() {
        let dir = std::env::temp_dir().join(format!("astore-engine-ckptw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = {
            let e = engine();
            e.database().snapshot().as_ref().clone()
        };
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let e = std::sync::Arc::new(
            Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0)),
        );
        let (threads, per) = (4, 25);
        std::thread::scope(|s| {
            for _ in 0..threads {
                let e = e.clone();
                s.spawn(move || {
                    for _ in 0..per {
                        let r = sql(&e, "INSERT INTO fact VALUES (0, 1)");
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
                    }
                });
            }
            // Checkpoints run concurrently with the writers: the encode
            // happens off-lock, the WAL truncation must never drop a record
            // the snapshot file does not cover.
            for _ in 0..5 {
                e.checkpoint().unwrap();
            }
        });
        let expect = 3 + (threads * per) as usize;
        drop(e);
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.db.table("fact").unwrap().num_live(), expect, "no acked write lost");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn sqls(e: &Engine, session: &mut StatementRegistry, s: &str) -> Json {
        e.handle_line_session(&Json::obj([("sql", Json::Str(s.into()))]).to_string(), session)
    }

    #[test]
    fn set_engine_pins_the_session_and_results_stay_identical() {
        let e = engine();
        let mut session = StatementRegistry::default();
        let q = "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let air = sqls(&e, &mut session, q);
        assert_eq!(air.get("engine").unwrap().as_str(), Some("air"), "{air:?}");

        for engine_name in ["join", "denorm"] {
            let r = sqls(&e, &mut session, &format!("SET engine = {engine_name}"));
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
            assert_eq!(r.get("engine").unwrap().as_str(), Some(engine_name));
            let pinned = sqls(&e, &mut session, q);
            assert_eq!(pinned.get("engine").unwrap().as_str(), Some(engine_name), "{pinned:?}");
            assert_eq!(pinned.get("rows"), air.get("rows"), "{engine_name} differs from air");
            assert_eq!(pinned.get("columns"), air.get("columns"));
        }

        // `auto` unpins; a bad value is a typed parse error; pins are
        // per-session (a throwaway-session statement routes adaptively).
        let r = sqls(&e, &mut session, "SET engine=auto");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("auto"));
        let r = sqls(&e, &mut session, "SET engine = quantum");
        assert_eq!(r.get("code").unwrap().as_str(), Some("parse_error"), "{r:?}");
        let fresh = sql(&e, q);
        assert_eq!(fresh.get("engine").unwrap().as_str(), Some("air"), "cold template → warmup");
    }

    #[test]
    fn unrewritable_shapes_fall_back_to_air_and_are_remembered() {
        let e = engine();
        let mut session = StatementRegistry::default();
        sqls(&e, &mut session, "SET engine = denorm");
        // Grouping by a key column: the wide table folds references away,
        // so the shape probe rejects the rewrite and the query falls back.
        let q = "SELECT f_dim, count(*) AS c FROM fact GROUP BY f_dim ORDER BY f_dim";
        let r = sqls(&e, &mut session, q);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("air"), "fallback, not failure");
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[1].as_i64(), Some(2));
        // The probe is cached: the template's denorm arm stays excluded.
        let snap = e.router().snapshot();
        assert_eq!(snap.templates.len(), 1);
        let r = sqls(&e, &mut session, q);
        assert_eq!(r.get("engine").unwrap().as_str(), Some("air"));
    }

    #[test]
    fn pinned_denorm_rebuilds_after_writes() {
        // End-to-end epoch invalidation: a pinned-denorm session must see
        // every committed write — stale wide tables are never served.
        let e = engine();
        let mut session = StatementRegistry::default();
        sqls(&e, &mut session, "SET engine = denorm");
        let q = "SELECT sum(f_v) AS s FROM fact";
        let r = sqls(&e, &mut session, q);
        assert_eq!(r.get("engine").unwrap().as_str(), Some("denorm"), "{r:?}");
        let sum = |r: &Json| {
            r.get("rows").unwrap().as_array().unwrap()[0].as_array().unwrap()[0].as_i64().unwrap()
        };
        assert_eq!(sum(&r), 60);
        assert_eq!(e.denorm_cache().len(), 1, "materialization cached");

        sqls(&e, &mut session, "INSERT INTO fact VALUES (1, 40)");
        let r = sqls(&e, &mut session, q);
        assert_eq!(r.get("engine").unwrap().as_str(), Some("denorm"));
        assert_eq!(sum(&r), 100, "write invalidated the cached wide table");

        sqls(&e, &mut session, "UPDATE fact SET f_v = 11 WHERE rowid = 0");
        let r = sqls(&e, &mut session, q);
        assert_eq!(sum(&r), 101, "update invalidated it too");
    }

    #[test]
    fn router_explores_alternatives_and_counts_decisions() {
        let e = engine();
        let q = "SELECT d_name, sum(f_v) AS total FROM fact, dim GROUP BY d_name ORDER BY d_name";
        let baseline = sql(&e, q);
        let mut engines_seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let r = sql(&e, q);
            assert_eq!(r.get("rows"), baseline.get("rows"), "result identity across engines");
            engines_seen.insert(r.get("engine").unwrap().as_str().unwrap().to_owned());
        }
        assert!(engines_seen.contains("air"));
        assert!(engines_seen.len() >= 2, "explore arms tried an alternative: {engines_seen:?}");
        let snap = e.router().snapshot();
        assert_eq!(snap.total_decisions, 41);
        assert_eq!(snap.templates.len(), 1);
        use std::sync::atomic::Ordering::Relaxed;
        let by_engine: u64 = e.stats().router_decisions.iter().map(|c| c.load(Relaxed)).sum();
        assert_eq!(by_engine, 41, "every decision counted in stats");
    }

    #[test]
    fn bare_explain_previews_without_executing() {
        let e = engine();
        let r = sql(&e, "EXPLAIN SELECT d_name, sum(f_v) AS s FROM fact, dim GROUP BY d_name");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("air"), "cold template previews AIR");
        assert_eq!(r.get("reason").unwrap().as_str(), Some("warmup"));
        assert!(r.get("rows").is_none(), "EXPLAIN does not execute");
        let lines: Vec<&str> = r
            .get("explain")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap())
            .collect();
        let joined = lines.join("\n");
        assert!(joined.contains("features: fact_rows_live=3"), "{joined}");
        assert!(joined.contains("top_feature:"), "{joined}");
        assert!(joined.contains("eligible: air,join,denorm"), "{joined}");
        assert!(joined.contains("selection: live rows"), "no filter, nothing builds: {joined}");
        let r = sql(&e, "EXPLAIN SELECT sum(f_v) AS s FROM fact, dim WHERE d_name = 'beta' AND f_v > 1");
        let explain = r.get("explain").unwrap().as_array().unwrap();
        assert!(
            explain.iter().any(|l| l.as_str().unwrap().starts_with("selection: builds range f_dim")),
            "one name is one key run: {r:?}"
        );
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(e.stats().queries.load(Relaxed), 0, "no query ran");
        assert_eq!(e.router().snapshot().total_decisions, 0, "no decision consumed");
        // Writes are rejected with a typed error, same as EXPLAIN ANALYZE.
        let r = sql(&e, "EXPLAIN INSERT INTO fact VALUES (0, 1)");
        assert_eq!(r.get("code").unwrap().as_str(), Some("plan_error"), "{r:?}");
    }

    #[test]
    fn explain_analyze_names_the_routed_engine() {
        let e = engine();
        let mut session = StatementRegistry::default();
        sqls(&e, &mut session, "SET engine = join");
        let r = sqls(&e, &mut session, "EXPLAIN ANALYZE SELECT sum(f_v) AS s FROM fact, dim");
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(r.get("engine").unwrap().as_str(), Some("join"));
        let lines: Vec<String> = r
            .get("analyze")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|l| l.as_str().unwrap().to_owned())
            .collect();
        let joined = lines.join("\n");
        assert!(joined.contains("router: engine=join reason=pinned"), "{joined}");
        assert!(joined.contains("engine: join"), "{joined}");
    }

    #[test]
    fn set_engine_parser_accepts_reasonable_spellings() {
        for (input, want) in [
            ("SET engine = air", Some(EngineChoice::Air)),
            ("set ENGINE=join;", Some(EngineChoice::Join)),
            ("  SET engine denorm", Some(EngineChoice::Denorm)),
            ("SET engine=auto", None),
        ] {
            assert_eq!(parse_set_engine(input).unwrap().unwrap(), want, "{input}");
        }
        assert!(parse_set_engine("SET engine = warp").unwrap().is_err());
        assert!(parse_set_engine("SET engine").unwrap().is_err());
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
