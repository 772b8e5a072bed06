//! The interactive session: command parsing and execution, decoupled from
//! stdin/stdout so it is unit-testable.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use astore_api::connection::json_to_value;
use astore_api::{Connection, EmbeddedConnection};
use astore_baseline::engine::execute_hash_pipeline;
use astore_core::prelude::*;
use astore_datagen::{ssb, tpch};
use astore_server::json::Json;
use astore_server::{Client, ClientError, Engine, Executed, StatementRegistry};
use astore_sql::{sql_to_query, strip_explain, strip_explain_analyze};
use astore_storage::snapshot::SharedDatabase;

/// A REPL session holding the loaded database and settings.
pub struct Session {
    /// Local mode's connection: the server's engine without a socket,
    /// rebuilt over the database on `\load`, `\open`, `\threads` and
    /// `\variant`.
    conn: EmbeddedConnection,
    dataset: String,
    opts: ExecOptions,
    /// When set, SQL is sent to a remote astore-server instead of the
    /// local database (`\connect host:port`).
    remote: Option<Remote>,
    /// Print wall time after each query.
    pub timing: bool,
    /// Print plan diagnostics after each query.
    pub show_plan: bool,
    /// Run every SELECT as `EXPLAIN ANALYZE`: rows plus the executed plan
    /// annotated with per-phase times and per-segment prune decisions.
    pub trace: bool,
}

/// An open remote-mode connection.
struct Remote {
    addr: String,
    client: Client,
}

/// Outcome of feeding one line to the session.
pub enum Outcome {
    /// Text to display.
    Text(String),
    /// The session should end.
    Quit,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session with an empty database.
    pub fn new() -> Self {
        let opts = ExecOptions::default();
        Session {
            conn: local(SharedDatabase::default(), &opts),
            dataset: "(empty)".into(),
            opts,
            remote: None,
            timing: true,
            show_plan: false,
            trace: false,
        }
    }

    /// The currently loaded dataset label (or the remote address).
    pub fn dataset(&self) -> &str {
        match &self.remote {
            Some(r) => &r.addr,
            None => &self.dataset,
        }
    }

    /// Rebuilds the local connection over `db` under the current execution
    /// options.
    fn rebuild(&mut self, db: SharedDatabase) {
        self.conn = local(db, &self.opts);
    }

    /// Processes one input line (a meta command starting with `\` or a SQL
    /// statement).
    pub fn feed(&mut self, line: &str) -> Outcome {
        let line = line.trim();
        if line.is_empty() {
            return Outcome::Text(String::new());
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.meta(rest);
        }
        if self.remote.is_some() {
            return self.run_remote_sql(line);
        }
        Outcome::Text(self.run_sql(line))
    }

    fn meta(&mut self, cmd: &str) -> Outcome {
        let mut parts = cmd.split_whitespace();
        let head = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("");
        match head {
            "q" | "quit" | "exit" => Outcome::Quit,
            "help" | "?" => Outcome::Text(HELP.to_owned()),
            "load" => {
                let sf: f64 = parts
                    .next()
                    .or(if arg.parse::<f64>().is_ok() { None } else { Some("0.01") })
                    .unwrap_or("0.01")
                    .parse()
                    .unwrap_or(0.01);
                let t = Instant::now();
                let (db, label, fact) = match arg {
                    "ssb" => (ssb::generate(sf, 42), "SSB", "lineorder"),
                    "tpch" => (tpch::generate(sf, 42), "TPC-H subset", "lineitem"),
                    other => {
                        return Outcome::Text(format!(
                            "unknown dataset {other:?}; try \\load ssb 0.01 or \\load tpch 0.01"
                        ))
                    }
                };
                let rows = db.table(fact).unwrap().num_slots();
                self.rebuild(SharedDatabase::new(db));
                self.dataset = format!("{arg} sf={sf}");
                Outcome::Text(format!(
                    "loaded {label} at SF={sf} ({rows} {fact} rows) in {:.1?}",
                    t.elapsed()
                ))
            }
            "tables" => {
                let db = self.conn.snapshot();
                let mut out = String::new();
                for name in db.table_names() {
                    let t = db.table(name).unwrap();
                    let _ = writeln!(
                        out,
                        "{name:<12} {:>10} rows  {:>2} columns",
                        t.num_live(),
                        t.schema().arity()
                    );
                }
                if out.is_empty() {
                    out = "no tables loaded; try \\load ssb 0.01".into();
                }
                Outcome::Text(out)
            }
            "schema" => match self.conn.snapshot().table(arg) {
                None => Outcome::Text(format!("no table {arg:?}")),
                Some(t) => {
                    let mut out = String::new();
                    for d in t.schema().defs() {
                        let _ = writeln!(out, "  {:<22} {}", d.name, d.dtype);
                    }
                    Outcome::Text(out)
                }
            },
            "graph" => {
                let db = self.conn.snapshot();
                let g = db.graph();
                let mut out = String::new();
                for root in g.roots() {
                    let _ = writeln!(out, "root: {root}");
                    for leaf in g.leaves_of(root) {
                        let path = g.path(root, leaf).unwrap();
                        let hops: Vec<&str> =
                            path.steps.iter().map(|s| s.key_column.as_str()).collect();
                        let _ = writeln!(out, "  -> {leaf} via {hops:?}");
                    }
                }
                Outcome::Text(out)
            }
            "timing" => {
                self.timing = arg != "off";
                Outcome::Text(format!("timing {}", if self.timing { "on" } else { "off" }))
            }
            "plan" => {
                self.show_plan = arg != "off";
                Outcome::Text(format!("plan {}", if self.show_plan { "on" } else { "off" }))
            }
            "trace" => {
                self.trace = arg != "off";
                Outcome::Text(format!(
                    "trace {} — SELECTs {}",
                    if self.trace { "on" } else { "off" },
                    if self.trace {
                        "run as EXPLAIN ANALYZE (rows + executed-plan report)"
                    } else {
                        "run normally"
                    }
                ))
            }
            "threads" => {
                let n: usize = arg.parse().unwrap_or(1);
                self.opts.threads = n.max(1);
                self.rebuild(self.conn.engine().database().clone());
                Outcome::Text(format!(
                    "threads = {} (a fan-out ceiling: small scans stay serial; \
                     \\plan on shows the executor that actually ran)",
                    self.opts.threads
                ))
            }
            "variant" => {
                let v = match arg {
                    "r" => Some(ScanVariant::RowWise),
                    "rp" => Some(ScanVariant::RowWisePredVec),
                    "c" => Some(ScanVariant::ColumnWise),
                    "cp" => Some(ScanVariant::ColumnWisePredVec),
                    "cpg" | "full" => Some(ScanVariant::Full),
                    _ => None,
                };
                match v {
                    Some(v) => {
                        self.opts.variant = v;
                        self.rebuild(self.conn.engine().database().clone());
                        Outcome::Text(format!("variant = {}", v.paper_name()))
                    }
                    None => Outcome::Text(
                        "usage: \\variant r|rp|c|cp|cpg (the paper's AIRScan variants)".into(),
                    ),
                }
            }
            "save" => Outcome::Text(self.save(arg)),
            "open" => Outcome::Text(self.open(arg)),
            "compare" => Outcome::Text(self.compare(parts.collect::<Vec<_>>().join(" "), arg)),
            "connect" => Outcome::Text(self.connect(arg)),
            "disconnect" => Outcome::Text(match self.remote.take() {
                Some(r) => format!("disconnected from {}", r.addr),
                None => "not connected".into(),
            }),
            "stats" => self.remote_cmd(|c| c.stats().map(|stats| render_stats(&stats))),
            "metrics" => self.remote_cmd(Client::metrics),
            "slowlog" => self.remote_cmd(|c| c.slowlog().map(|log| render_slowlog(&log))),
            other => Outcome::Text(format!("unknown command \\{other}; \\help lists commands")),
        }
    }

    /// `f` against the connected server (remote mode only). A failed
    /// connection drops back to local mode.
    fn remote_cmd(
        &mut self,
        f: impl FnOnce(&mut Client) -> Result<String, ClientError>,
    ) -> Outcome {
        Outcome::Text(match &mut self.remote {
            None => "not connected; \\connect host:port first".into(),
            Some(r) => match f(&mut r.client) {
                Ok(text) => text,
                Err(e) => {
                    self.remote = None;
                    format!("connection lost ({e}); back to local mode")
                }
            },
        })
    }

    /// `\save <path>`: snapshot the loaded database to disk.
    fn save(&mut self, path: &str) -> String {
        if path.is_empty() {
            return "usage: \\save <file> (e.g. \\save ssb.snapshot)".into();
        }
        if self.remote.is_some() {
            return "\\save works on the local database; \\disconnect first".into();
        }
        let db = self.conn.snapshot();
        if db.is_empty() {
            return "nothing to save; \\load a dataset first".into();
        }
        let t = Instant::now();
        match astore_persist::save_snapshot(&db, path) {
            Ok(bytes) => format!(
                "saved {} table(s), {:.1} MiB to {path} in {:.1?}",
                db.len(),
                bytes as f64 / (1 << 20) as f64,
                t.elapsed()
            ),
            Err(e) => format!("could not save {path}: {e}"),
        }
    }

    /// `\open <path>`: load a snapshot from disk, replacing the session DB.
    fn open(&mut self, path: &str) -> String {
        if path.is_empty() {
            return "usage: \\open <file> (a snapshot written by \\save or astore-serve)".into();
        }
        if self.remote.is_some() {
            return "\\open works on the local database; \\disconnect first".into();
        }
        let t = Instant::now();
        match astore_persist::load_snapshot(path) {
            Ok(db) => {
                let rows: usize =
                    db.table_names().iter().map(|n| db.table(n).unwrap().num_live()).sum();
                let tables = db.len();
                self.rebuild(SharedDatabase::new(db));
                self.dataset = path.to_owned();
                format!("opened {path}: {tables} table(s), {rows} live rows in {:.1?}", t.elapsed())
            }
            Err(e) => format!("could not open {path}: {e}"),
        }
    }

    /// `\connect host:port`: switch to remote mode over the wire protocol.
    fn connect(&mut self, addr: &str) -> String {
        if addr.is_empty() {
            return "usage: \\connect host:port (e.g. \\connect 127.0.0.1:3939)".into();
        }
        match Client::connect(addr) {
            Ok(client) => {
                self.remote = Some(Remote { addr: addr.to_owned(), client });
                format!(
                    "connected to {addr}; SQL now runs remotely (\\disconnect to go local, \
                     \\stats for server counters)"
                )
            }
            Err(e) => format!("could not connect to {addr}: {e}"),
        }
    }

    /// Executes SQL on the connected server and renders the response frame.
    /// With `\trace on`, SELECTs are wrapped as `EXPLAIN ANALYZE` so the
    /// server returns (and we render) the executed-plan report too.
    fn run_remote_sql(&mut self, sql: &str) -> Outcome {
        let wrapped;
        let sql = if self.trace && is_select(sql) && strip_explain_analyze(sql).is_none() {
            wrapped = format!("EXPLAIN ANALYZE {sql}");
            &wrapped
        } else {
            sql
        };
        let (timing, show_plan) = (self.timing, self.show_plan);
        self.remote_cmd(|client| {
            let frame = client.sql(sql)?;
            let mut out = render_frame(&frame, timing);
            // With \plan on, say which engine ran this statement.
            if let Some(engine) = frame.get("engine").and_then(Json::as_str).filter(|_| show_plan) {
                let _ = write!(out, "\nengine: {engine}");
            }
            Ok(out)
        })
    }

    /// Executes local SQL — reads *and* rowid-addressed writes — through
    /// the unified connection API ([`astore_api::Connection`]) on the
    /// session's engine: prepare, bind (no parameters at the REPL),
    /// execute. `EXPLAIN ANALYZE` (or any SELECT under `\trace on`) runs
    /// with a span recorder and prints the server's report after the rows.
    fn run_sql(&mut self, sql: &str) -> String {
        // Bare `EXPLAIN` runs nothing: it takes the engine's explain path,
        // the one a server's `{"sql":…}` frame takes.
        if strip_explain(sql).is_some() {
            let req = Json::obj([("sql", Json::Str(sql.into()))]);
            let frame = self.conn.engine().handle_request(&req, &mut StatementRegistry::default());
            return render_frame(&frame, self.timing);
        }
        let (analyze, sql) = match strip_explain_analyze(sql) {
            Some(inner) => (true, inner),
            None => (self.trace && is_select(sql), sql),
        };
        let stmt = match self.conn.prepare(sql) {
            Ok(s) if analyze && !s.is_select() => {
                return "error: EXPLAIN ANALYZE supports SELECT statements only".into()
            }
            Ok(s) => s,
            Err(e) => return e.render(),
        };
        let t = Instant::now();
        let answer = match self.conn.run(&stmt, &[], analyze) {
            Err(e) => return e.render(),
            Ok(Executed::Write(n)) => {
                let mut s = format!("{n} rows affected");
                if self.timing {
                    let _ = write!(s, "\ntime: {:.2} ms", t.elapsed().as_secs_f64() * 1e3);
                }
                return s;
            }
            Ok(Executed::Select(answer)) => answer,
        };
        let (result, plan) = (&answer.out.result, &answer.out.plan);
        let mut s = result.to_table_string();
        let _ = writeln!(s, "({} rows)", result.len());
        if self.timing {
            let _ = writeln!(s, "time: {:.2} ms", t.elapsed().as_secs_f64() * 1e3);
        }
        if self.show_plan {
            let _ = writeln!(
                s,
                "plan: root={} variant={} executor={} segments={}/{} \
                 predvec_chains={} agg={:?} selected={} groups={}",
                plan.root,
                self.opts.variant.paper_name(),
                plan.executor,
                plan.segments_scanned,
                plan.segments_pruned,
                plan.predvec_chains,
                plan.agg_strategy,
                plan.selected_rows,
                plan.groups
            );
        }
        for line in answer.analyze.iter().flatten() {
            let _ = writeln!(s, "{line}");
        }
        s
    }

    /// `\compare <sql>`: run on A-Store and the hash-join pipeline, check
    /// agreement, report both times.
    fn compare(&mut self, tail: String, first: &str) -> String {
        let sql = format!("{first} {tail}");
        let db = self.conn.snapshot();
        let q = match sql_to_query(&sql, &db) {
            Ok(q) => q,
            Err(e) => return format!("error: {e}"),
        };
        let t = Instant::now();
        let air = match execute(&db, &q, &self.opts) {
            Ok(o) => o,
            Err(e) => return format!("error: {e}"),
        };
        let air_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let hash = match execute_hash_pipeline(&db, &q) {
            Ok(o) => o,
            Err(e) => return format!("error: {e}"),
        };
        let hash_ms = t.elapsed().as_secs_f64() * 1e3;
        let agree = air.result.same_contents(&hash.result, 1e-6);
        format!(
            "A-Store: {air_ms:.2} ms, hash-join pipeline: {hash_ms:.2} ms, results {}",
            if agree { "agree ✓" } else { "DISAGREE ✗" }
        )
    }
}

/// Renders a wire-protocol response frame for the terminal.
fn render_frame(frame: &Json, timing: bool) -> String {
    if frame.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = frame.get("code").and_then(Json::as_str).unwrap_or("unknown");
        let msg = frame.get("error").and_then(Json::as_str).unwrap_or("(no message)");
        return format!("error [{code}]: {msg}");
    }
    let mut out = String::new();
    if let Some(n) = frame.get("rows_affected").and_then(Json::as_i64) {
        let _ = write!(out, "{n} rows affected");
    } else if frame.get("explain").is_none() {
        // Rebuild a QueryResult so local and remote mode share one table
        // renderer (and render identically).
        let result = QueryResult {
            columns: frame
                .get("columns")
                .and_then(Json::as_array)
                .map(|cs| cs.iter().filter_map(|c| c.as_str().map(str::to_owned)).collect())
                .unwrap_or_default(),
            rows: frame
                .get("rows")
                .and_then(Json::as_array)
                .map(|rs| {
                    rs.iter()
                        .filter_map(Json::as_array)
                        .map(|r| r.iter().map(json_to_value).collect())
                        .collect()
                })
                .unwrap_or_default(),
        };
        out.push_str(&result.to_table_string());
        let _ = write!(out, "({} rows)", result.len());
        if frame.get("cached_plan").and_then(Json::as_bool) == Some(true) {
            let _ = write!(out, " [cached plan]");
        }
    }
    let mut lines = Vec::new();
    if timing {
        if let Some(us) = frame.get("elapsed_us").and_then(Json::as_i64) {
            lines.push(format!("server time: {:.2} ms", us as f64 / 1e3));
        }
    }
    // A bare EXPLAIN's plan, or an EXPLAIN ANALYZE's report after the rows.
    for key in ["explain", "analyze"] {
        let plan = frame.get(key).and_then(Json::as_array).into_iter().flatten();
        lines.extend(plan.filter_map(Json::as_str).map(str::to_owned));
    }
    for line in lines {
        let sep = if out.is_empty() { "" } else { "\n" };
        let _ = write!(out, "{sep}{line}");
    }
    out
}

/// Whether the statement is a SELECT (the only kind `\trace` wraps).
fn is_select(sql: &str) -> bool {
    sql.trim_start().get(..6).is_some_and(|head| head.eq_ignore_ascii_case("select"))
}

/// Local mode's connection over `db`: a fresh engine under `opts`.
fn local(db: SharedDatabase, opts: &ExecOptions) -> EmbeddedConnection {
    EmbeddedConnection::over(Arc::new(Engine::with_options(db, opts.clone())))
}

fn render_cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Null => "NULL".into(),
        other => other.to_string(),
    }
}

/// Renders the `stats` payload as aligned `key value` lines.
fn render_stats(stats: &Json) -> String {
    let Json::Object(map) = stats else {
        return stats.to_string();
    };
    let w = map.keys().map(String::len).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in map {
        let _ = writeln!(out, "{k:<w$}  {}", render_cell(v));
    }
    out
}

/// Renders the `slowlog` payload: threshold header, one line per entry.
fn render_slowlog(log: &Json) -> String {
    let threshold = log.get("threshold_ms").and_then(Json::as_i64).unwrap_or(0);
    let mut out = if threshold == 0 {
        "slowlog disabled (start the server with --slow-ms <n>)\n".to_owned()
    } else {
        format!("slowlog threshold: {threshold} ms\n")
    };
    let entries = log.get("entries").and_then(Json::as_array).unwrap_or_default();
    if entries.is_empty() {
        out.push_str("(no slow statements captured)");
        return out;
    }
    for e in entries {
        let us = e.get("elapsed_us").and_then(Json::as_i64).unwrap_or(0);
        // The server emits ago_s as a float (fractional seconds).
        let ago = e.get("ago_s").and_then(Json::as_f64).unwrap_or(0.0);
        let tmpl = e.get("template").and_then(Json::as_str).unwrap_or("?");
        let _ = writeln!(out, "{:>9.2} ms  {ago:>7.1}s ago  {tmpl}", us as f64 / 1e3);
    }
    out
}

const HELP: &str = "\
commands:
  \\load ssb <sf>     generate and load the Star Schema Benchmark
  \\load tpch <sf>    generate and load the TPC-H snowflake subset
  \\tables            list tables
  \\schema <table>    show a table's columns
  \\graph             show the join graph (roots, AIR chains)
  \\variant <v>       r | rp | c | cp | cpg   (AIRScan variants)
  \\threads <n>       parallel workers
  \\timing on|off     per-query wall time
  \\plan on|off       plan diagnostics (remote mode: also the engine that
                     ran the statement)
  \\trace on|off      run SELECTs as EXPLAIN ANALYZE (rows + span report)
  \\save <file>       snapshot the loaded database to disk
  \\open <file>       load a snapshot written by \\save (or astore-serve)
  \\compare <sql>     run on A-Store and the hash-join baseline, verify agreement
  \\connect h:p       remote mode: send SQL to an astore-server
  \\disconnect        leave remote mode
  \\stats             remote server counters (remote mode only)
  \\metrics           remote Prometheus scrape body (remote mode only)
  \\slowlog           remote slow-query ring, newest first (remote mode only)
  \\help              this text
  \\q                 quit
anything else is executed as SQL: SPJGA SELECTs, plus INSERT / UPDATE /
DELETE addressed by rowid (local and remote mode alike); prefix a SELECT
with EXPLAIN ANALYZE for the executed plan annotated with actual times.
local mode runs every statement on the server's engine without a socket:
its plan cache, core budget, group commit and counters.";

#[cfg(test)]
mod tests {
    use super::*;

    fn text(o: Outcome) -> String {
        match o {
            Outcome::Text(s) => s,
            Outcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn load_and_query_ssb() {
        let mut s = Session::new();
        let msg = text(s.feed("\\load ssb 0.001"));
        assert!(msg.contains("loaded SSB"), "{msg}");
        assert_eq!(s.dataset(), "ssb sf=0.001");
        let out = text(s.feed(
            "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
             WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
        ));
        assert!(out.contains("d_year"), "{out}");
        assert!(out.contains("(7 rows)"), "{out}");
    }

    #[test]
    fn meta_commands() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        let tables = text(s.feed("\\tables"));
        assert!(tables.contains("lineorder"));
        let schema = text(s.feed("\\schema date"));
        assert!(schema.contains("d_year"));
        let graph = text(s.feed("\\graph"));
        assert!(graph.contains("root: lineorder"));
        assert!(text(s.feed("\\variant cp")).contains("AIRScan_C_P"));
        assert!(text(s.feed("\\threads 2")).contains("threads = 2"));
        assert!(text(s.feed("\\timing off")).contains("timing off"));
        assert!(text(s.feed("\\plan on")).contains("plan on"));
        assert!(text(s.feed("\\help")).contains("\\load"));
        assert!(matches!(s.feed("\\q"), Outcome::Quit));
    }

    #[test]
    fn sql_errors_are_reported_not_fatal() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        let out = text(s.feed("SELECT nope FROM lineorder"));
        assert!(out.contains("error"), "{out}");
        // The session still works.
        let out = text(s.feed("SELECT count(*) FROM lineorder"));
        assert!(out.contains("(1 rows)"), "{out}");
    }

    #[test]
    fn save_and_open_roundtrip_query_results() {
        let path = std::env::temp_dir().join(format!("astore-cli-{}.snapshot", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let path_s = path.to_str().unwrap().to_owned();

        let mut s = Session::new();
        assert!(text(s.feed("\\save x")).contains("nothing to save"));
        text(s.feed("\\load ssb 0.001"));
        let q = "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
                 WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year";
        let before = text(s.feed(q));
        let msg = text(s.feed(&format!("\\save {path_s}")));
        assert!(msg.contains("saved"), "{msg}");

        let mut fresh = Session::new();
        let msg = text(fresh.feed(&format!("\\open {path_s}")));
        assert!(msg.contains("opened"), "{msg}");
        assert_eq!(fresh.dataset(), path_s);
        let after = text(fresh.feed(q));
        // Identical rendering implies identical rows (timing lines differ).
        let table = |out: &str| {
            out.lines().take_while(|l| !l.starts_with("time:")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(table(&before), table(&after));

        assert!(text(fresh.feed("\\open /nonexistent/nope.snap")).contains("could not open"));
        assert!(text(fresh.feed("\\save")).contains("usage"));
        assert!(text(fresh.feed("\\open")).contains("usage"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn local_writes_work_through_the_connection_api() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        text(s.feed("\\timing off"));
        let before = text(s.feed("SELECT count(*) FROM lineorder"));
        let out = text(s.feed("UPDATE customer SET c_mktsegment = 'MACHINERY' WHERE rowid = 0"));
        assert!(out.contains("1 rows affected"), "{out}");
        // Parse errors render caret diagnostics instead of dying.
        let out = text(s.feed("DELETE FROM lineorder WHERE other = 1"));
        assert!(out.contains("error[parse_error]"), "{out}");
        let after = text(s.feed("SELECT count(*) FROM lineorder"));
        assert_eq!(before, after, "failed write mutated nothing");
    }

    #[test]
    fn compare_reports_agreement() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        let out = text(s.feed(
            "\\compare SELECT c_region, count(*) AS n FROM lineorder, customer \
             WHERE lo_custkey = c_custkey GROUP BY c_region",
        ));
        assert!(out.contains("agree ✓"), "{out}");
    }

    #[test]
    fn plan_output_shows_variant() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        text(s.feed("\\plan on"));
        text(s.feed("\\variant cpg"));
        let out = text(s.feed(
            "SELECT count(*) FROM lineorder, date WHERE lo_orderdate = d_datekey \
             AND d_year = 1994",
        ));
        assert!(out.contains("AIRScan_C_P_G"), "{out}");
        assert!(out.contains("predvec_chains=1"), "{out}");
        assert!(out.contains("executor=serial"), "{out}");
        assert!(out.contains("segments=1/0"), "one segment scanned, none pruned: {out}");
    }

    #[test]
    fn plan_output_reports_clamped_executor() {
        // \threads 4 on a tiny dataset: the planner keeps the scan serial
        // and the plan line says so instead of silently ignoring the knob.
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        text(s.feed("\\plan on"));
        assert!(text(s.feed("\\threads 4")).contains("threads = 4"));
        let out = text(s.feed("SELECT count(*) FROM lineorder"));
        assert!(out.contains("executor=serial (clamped from 4 requested)"), "{out}");
    }

    #[test]
    fn tpch_dataset_loads() {
        let mut s = Session::new();
        let msg = text(s.feed("\\load tpch 0.001"));
        assert!(msg.contains("TPC-H"), "{msg}");
        let out = text(s.feed(
            "SELECT n_name, count(*) AS n FROM lineitem, orders, customer, nation \
             WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey \
             AND c_nationkey = n_nationkey GROUP BY n_name ORDER BY n DESC LIMIT 3",
        ));
        assert!(out.contains("(3 rows)"), "{out}");
    }

    #[test]
    fn explain_analyze_local_renders_rows_and_spans() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        let out = text(s.feed(
            "EXPLAIN ANALYZE SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
             WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
        ));
        assert!(out.contains("(7 rows)"), "{out}");
        assert!(out.contains("phases: leaf="), "{out}");
        assert!(out.contains("segments: scanned="), "{out}");
        assert!(out.contains("phase2_scan"), "{out}");
    }

    #[test]
    fn bare_explain_local_prints_the_plan() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        let out = text(s.feed("EXPLAIN SELECT count(*) AS n FROM lineorder"));
        assert!(out.contains("engine: air"), "{out}");
        assert!(out.contains("selection:"), "{out}");
        assert!(!out.contains("rows)"), "nothing ran: {out}");
    }

    #[test]
    fn trace_toggle_annotates_local_selects() {
        let mut s = Session::new();
        text(s.feed("\\load ssb 0.001"));
        assert!(text(s.feed("\\trace on")).contains("trace on"));
        let out = text(s.feed("SELECT count(*) FROM lineorder"));
        assert!(out.contains("(1 rows)"), "{out}");
        assert!(out.contains("trace: "), "{out}");
        // Writes are untouched by the toggle.
        let out = text(s.feed("UPDATE customer SET c_mktsegment = 'MACHINERY' WHERE rowid = 0"));
        assert!(out.contains("1 rows affected"), "{out}");
        assert!(text(s.feed("\\trace off")).contains("trace off"));
        let out = text(s.feed("SELECT count(*) FROM lineorder"));
        assert!(!out.contains("trace: "), "{out}");
    }

    #[test]
    fn remote_mode_roundtrip() {
        use astore_server::{start, Engine, ServerConfig};
        use std::sync::Arc;

        let engine = Arc::new(Engine::new(SharedDatabase::new(ssb::generate(0.001, 42))));
        let h = start(
            engine,
            ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() },
        )
        .unwrap();

        let mut s = Session::new();
        let msg = text(s.feed(&format!("\\connect {}", h.addr())));
        assert!(msg.contains("connected"), "{msg}");
        assert_eq!(s.dataset(), h.addr().to_string());

        let out = text(s.feed(
            "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
             WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
        ));
        assert!(out.contains("d_year"), "{out}");
        assert!(out.contains("(7 rows)"), "{out}");
        assert!(out.contains("server time"), "{out}");

        let out = text(s.feed("SELECT nope FROM lineorder"));
        assert!(out.contains("error [plan_error]"), "{out}");

        let out = text(s.feed("\\stats"));
        assert!(out.contains("queries"), "{out}");
        assert!(out.contains("latency_p99_us"), "{out}");

        // Bare EXPLAIN ANALYZE passes through; the frame's report renders.
        let out = text(s.feed("EXPLAIN ANALYZE SELECT count(*) FROM lineorder"));
        assert!(out.contains("(1 rows)"), "{out}");
        assert!(out.contains("phases: leaf="), "{out}");

        // \plan on names the engine that ran the SELECT.
        text(s.feed("\\plan on"));
        let out = text(s.feed("SELECT count(*) AS n FROM lineorder"));
        assert!(out.contains("engine: air"), "{out}");
        text(s.feed("\\plan off"));

        // \trace on wraps plain SELECTs as EXPLAIN ANALYZE server-side.
        text(s.feed("\\trace on"));
        let out = text(s.feed("SELECT count(*) FROM lineorder"));
        assert!(out.contains("trace: "), "{out}");
        text(s.feed("\\trace off"));

        let metrics = text(s.feed("\\metrics"));
        assert!(metrics.contains("astore_server_queries_total"), "{metrics}");
        let slow = text(s.feed("\\slowlog"));
        assert!(slow.contains("slowlog disabled"), "{slow}");

        let out = text(s.feed("\\disconnect"));
        assert!(out.contains("disconnected"), "{out}");
        assert_eq!(s.dataset(), "(empty)");
        h.shutdown();
    }

    #[test]
    fn connect_failure_stays_local() {
        let mut s = Session::new();
        let msg = text(s.feed("\\connect 127.0.0.1:1")); // nothing listens there
        assert!(msg.contains("could not connect"), "{msg}");
        assert!(text(s.feed("\\connect")).contains("usage"));
        assert!(text(s.feed("\\disconnect")).contains("not connected"));
        assert!(text(s.feed("\\stats")).contains("not connected"));
        assert!(text(s.feed("\\metrics")).contains("not connected"));
        assert!(text(s.feed("\\slowlog")).contains("not connected"));
    }

    #[test]
    fn unknown_commands_and_empty_lines() {
        let mut s = Session::new();
        assert!(text(s.feed("\\wat")).contains("unknown command"));
        assert!(text(s.feed("   ")).is_empty());
        assert!(text(s.feed("\\load nope")).contains("unknown dataset"));
    }
}
