//! The inside-out half of a traced run: the same seeded inputs replayed
//! in-process, one public function of one layer at a time, each call
//! wrapped in a span. These numbers say where the time of an end-to-end
//! metric goes; they are never gated.

use std::time::{Duration, Instant};

use astore_baseline::denorm::denormalize;
use astore_baseline::engine::execute_hash_pipeline;
use astore_bench::replay::SSB_SQL;
use astore_core::exec::{execute, ExecOptions, ExecOutput};
use astore_core::query::Query;
use astore_datagen::ssb;
use astore_server::json::Json;
use astore_server::router::query_rewritable;
use astore_server::{Engine, StatementRegistry};
use astore_sql::prepared::{canonicalize, extract_select_params};
use astore_sql::{parse_template, prepare, sql_to_query};
use astore_storage::catalog::Database;
use astore_storage::snapshot::SharedDatabase;
use astore_storage::types::Value;

use crate::ops::{ShortUniverse, SHORT_TEMPLATES};
use crate::stats::median;
use crate::trace::SpanLog;
use crate::Metric;

/// Sweep passes per in-process timing (serial, parallel, served).
const PASSES: usize = 5;
/// Passes of the slower baselines (hash join, denormalised scan).
const BASELINE_PASSES: usize = 2;
/// The dataset seed `astore-serve` hard-codes.
const DATA_SEED: u64 = 42;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The span recorder plus the operation counter of the in-process replay.
struct Recorder<'a> {
    log: &'a mut SpanLog,
    op: u64,
}

impl Recorder<'_> {
    /// Starts the next operation; spans recorded until the next call share
    /// its number.
    fn next_op(&mut self) {
        self.op += 1;
    }

    /// Times `f` inside a span named `name`, within the current operation.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = self.log.within(name, SpanLog::root(), self.op, f);
        (out, t.elapsed())
    }

    /// [`Recorder::span`] as an operation of its own.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        self.next_op();
        self.span(name, f)
    }
}

/// Runs every in-process probe at scale factor `sf` and returns the
/// per-layer metrics of `datagen`, `storage`, `sql`, `core`, `baseline`
/// and the in-process half of `server`.
pub fn probe(sf: f64, universe: &ShortUniverse, log: &mut SpanLog) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut rec = Recorder { log, op: 0 };

    // datagen + storage: what the server does between exec and listen.
    let (mut db, d) = rec.timed("datagen.generate", || ssb::generate(sf, DATA_SEED));
    out.push(Metric::new("datagen.generate_s", d.as_secs_f64(), "s", 1));
    let ((), d) = rec.timed("storage.seal_segments", || {
        for name in db.table_names().to_vec() {
            db.table_mut(&name).expect("listed table").seal_segments();
        }
    });
    out.push(Metric::new("storage.seal_ms", ms(d), "ms", 1));
    let fact = db.table("lineorder").expect("ssb has lineorder");
    let rows = fact.num_live();
    let (encoded, raw) = fact.encoded_footprint();
    out.push(Metric::new("storage.encoded_bytes_per_row", encoded as f64 / rows as f64, "B", rows));
    out.push(Metric::new("storage.raw_bytes_per_row", raw as f64 / rows as f64, "B", rows));
    let encode: Vec<f64> = (0..fact.segment_count().min(8))
        .map(|seg| ms(rec.timed("storage.encode_segment", || fact.encode_segment_now(seg)).1))
        .collect();
    out.push(Metric::new("storage.encode_segment_ms", median(&encode), "ms", encode.len()));
    let segment_rows = fact.segment_rows();
    storage_write_probes(&db, &mut rec, &mut out);

    // sql: the per-statement front-end costs, over the statements the
    // workloads send (13 sweep queries + the short statement set).
    let texts: Vec<String> = SSB_SQL
        .iter()
        .map(|(_, sql)| (*sql).to_owned())
        .chain(universe.stmts.iter().map(|s| s.sql.clone()))
        .collect();
    let mut parse = Vec::new();
    let mut canon = Vec::new();
    let mut plan = Vec::new();
    for sql in &texts {
        let (tmpl, d) = rec.timed("sql.parse_template", || parse_template(sql));
        parse.push(us(d));
        let mut tmpl = tmpl.expect("benchmark statements parse");
        extract_select_params(&mut tmpl);
        canon.push(us(rec.span("sql.canonicalize", || canonicalize(&mut tmpl)).1));
        let (p, d) = rec.span("sql.prepare", || prepare(sql, &db));
        p.expect("benchmark statements plan");
        plan.push(us(d));
    }
    out.push(Metric::new("sql.parse_us", median(&parse), "us", parse.len()));
    out.push(Metric::new("sql.canonicalize_us", median(&canon), "us", canon.len()));
    out.push(Metric::new("sql.prepare_us", median(&plan), "us", plan.len()));
    let templates: Vec<_> =
        SHORT_TEMPLATES.iter().map(|t| prepare(t, &db).expect("short template plans")).collect();
    let bind: Vec<f64> = universe
        .stmts
        .iter()
        .map(|s| {
            let params: Vec<Value> =
                s.params.iter().map(|p| Value::Int(p.as_i64().expect("int parameter"))).collect();
            let (bound, d) = rec.timed("sql.bind", || templates[s.template].bind(&params));
            bound.expect("short statement binds");
            us(d)
        })
        .collect();
    out.push(Metric::new("sql.bind_us", median(&bind), "us", bind.len()));

    // core: the 13 sweep queries through `exec::execute`, serial and with
    // two threads, then the short statements.
    let queries: Vec<Query> =
        SSB_SQL.iter().map(|(_, sql)| sql_to_query(sql, &db).expect("ssb query plans")).collect();
    let serial = ExecOptions::default();
    let run = |rec: &mut Recorder, db: &Database, q: &Query, opts: &ExecOptions| {
        rec.span("core.execute", || execute(db, q, opts)).0.expect("benchmark query executes")
    };
    let sweeps = |rec: &mut Recorder, opts: &ExecOptions| -> Vec<Vec<ExecOutput>> {
        (0..PASSES)
            .map(|_| {
                rec.next_op();
                queries.iter().map(|q| run(rec, &db, q, opts)).collect()
            })
            .collect()
    };
    let pass_ms = |passes: &[Vec<ExecOutput>], f: &dyn Fn(&ExecOutput) -> Duration| -> f64 {
        median(&passes.iter().map(|p| ms(p.iter().map(f).sum())).collect::<Vec<_>>())
    };
    let passes = sweeps(&mut rec, &serial);
    let execute_ms = pass_ms(&passes, &|o| o.timings.total);
    let scan_ms = pass_ms(&passes, &|o| o.timings.scan);
    out.push(Metric::new("core.execute_ms", execute_ms, "ms", PASSES));
    out.push(Metric::new("core.leaf_ms", pass_ms(&passes, &|o| o.timings.leaf), "ms", PASSES));
    out.push(Metric::new("core.scan_ms", scan_ms, "ms", PASSES));
    out.push(Metric::new("core.agg_ms", pass_ms(&passes, &|o| o.timings.agg), "ms", PASSES));
    let count = |f: &dyn Fn(&ExecOutput) -> usize| passes[0].iter().map(f).sum::<usize>();
    let scanned = count(&|o| o.plan.segments_scanned);
    let scanned_rows = (scanned * segment_rows).max(1);
    out.push(Metric::new("core.segments_scanned", scanned as f64, "count", queries.len()));
    let pruned = count(&|o| o.plan.segments_pruned);
    out.push(Metric::new("core.segments_pruned", pruned as f64, "count", queries.len()));
    let selected = count(&|o| o.plan.selected_rows);
    out.push(Metric::new("core.selected_rows", selected as f64, "count", queries.len()));
    let ns_per_row = scan_ms * 1e6 / scanned_rows as f64;
    out.push(Metric::new("core.scan_ns_per_row", ns_per_row, "ns", scanned_rows));
    for (q, (name, _)) in SSB_SQL.iter().enumerate() {
        let per_query: Vec<f64> = passes.iter().map(|p| ms(p[q].timings.total)).collect();
        let name = format!("core.{}_ms", name.to_lowercase());
        out.push(Metric::new(name, median(&per_query), "ms", PASSES));
    }
    let par = sweeps(&mut rec, &ExecOptions::default().threads(2));
    let par_ms = pass_ms(&par, &|o| o.timings.total);
    out.push(Metric::new("core.execute_par_ms", par_ms, "ms", PASSES));
    out.push(Metric::new("core.par_speedup", execute_ms / par_ms, "x", PASSES));

    rec.next_op();
    let short_runs: Vec<ExecOutput> = universe
        .stmts
        .iter()
        .map(|s| sql_to_query(&s.sql, &db).expect("short statement plans"))
        .map(|q| run(&mut rec, &db, &q, &serial))
        .collect();
    let short_us: Vec<f64> = short_runs.iter().map(|o| us(o.timings.total)).collect();
    out.push(Metric::new("core.short_execute_us", median(&short_us), "us", short_us.len()));
    let short_pruned: usize = short_runs.iter().map(|o| o.plan.segments_pruned).sum();
    let short_seen: usize =
        short_pruned + short_runs.iter().map(|o| o.plan.segments_scanned).sum::<usize>();
    let share = short_pruned as f64 / short_seen.max(1) as f64;
    out.push(Metric::new("core.short_pruned_share", share, "ratio", short_seen));

    // baseline: the engines the router explores — what one exploration of
    // a sweep query costs next to AIR (the paper's ratio).
    let join_ms: Vec<f64> = (0..BASELINE_PASSES)
        .map(|_| {
            rec.next_op();
            let t = Instant::now();
            for q in &queries {
                let (joined, _) =
                    rec.span("baseline.hash_pipeline", || execute_hash_pipeline(&db, q));
                joined.expect("ssb query joins");
            }
            ms(t.elapsed())
        })
        .collect();
    let join_sweep_ms = median(&join_ms);
    out.push(Metric::new("baseline.join_sweep_ms", join_sweep_ms, "ms", BASELINE_PASSES));
    out.push(Metric::new("baseline.air_speedup", join_sweep_ms / execute_ms, "x", BASELINE_PASSES));
    let (wide, d) = rec.timed("baseline.denormalize", || denormalize(&db, Some("lineorder")));
    let wide = wide.expect("ssb denormalises");
    out.push(Metric::new("baseline.denorm_build_ms", ms(d), "ms", 1));
    let rewritten: Vec<Query> = queries
        .iter()
        .filter(|q| query_rewritable(&wide, q, "lineorder"))
        .map(|q| wide.rewrite(q, "lineorder"))
        .collect();
    let denorm_ms: Vec<f64> = (0..BASELINE_PASSES)
        .map(|_| {
            rec.next_op();
            let t = Instant::now();
            for q in &rewritten {
                let (scanned, _) =
                    rec.span("baseline.denorm_scan", || execute(&wide.db, q, &serial));
                scanned.expect("rewritten query executes");
            }
            ms(t.elapsed())
        })
        .collect();
    out.push(Metric::new("baseline.denorm_sweep_ms", median(&denorm_ms), "ms", rewritten.len()));
    drop(wide);

    // server, in-process: `Engine::handle_line_session` on the same
    // statements. Minus the `core.*` numbers above = engine overhead
    // (JSON, plan cache, router, result frames).
    let engine = Engine::new(SharedDatabase::new(db));
    let mut session = StatementRegistry::default();
    let mut handle = |rec: &mut Recorder, frame: Json| -> (Json, Duration) {
        let line = frame.to_string();
        let (reply, d) =
            rec.span("server.handle_line", || engine.handle_line_session(&line, &mut session));
        assert!(crate::drive::is_ok(&reply), "{line}: {reply}");
        (reply, d)
    };
    let sql_frame = |sql: &str| Json::obj([("sql", Json::Str(sql.to_owned()))]);
    handle(&mut rec, sql_frame("SET engine = air"));
    let handle_sweep: Vec<f64> = (0..PASSES)
        .map(|_| {
            rec.next_op();
            ms(SSB_SQL.iter().map(|(_, sql)| handle(&mut rec, sql_frame(sql)).1).sum())
        })
        .collect();
    out.push(Metric::new("server.handle_sweep_ms", median(&handle_sweep), "ms", PASSES));
    // Two rounds over the short statements on the default router; the
    // second is the steady state (plans cached, router past its warm-up).
    handle(&mut rec, sql_frame("SET engine = auto"));
    let mut handle_short = Vec::new();
    for _ in 0..2 {
        rec.next_op();
        handle_short =
            universe.stmts.iter().map(|s| us(handle(&mut rec, sql_frame(&s.sql)).1)).collect();
    }
    out.push(Metric::new(
        "server.handle_short_us",
        median(&handle_short),
        "us",
        handle_short.len(),
    ));
    let ids: Vec<i64> = SHORT_TEMPLATES
        .iter()
        .map(|t| {
            let (reply, _) = handle(&mut rec, Json::obj([("prepare", Json::Str((*t).to_owned()))]));
            reply.get("stmt_id").and_then(Json::as_i64).expect("prepare returns an id")
        })
        .collect();
    rec.next_op();
    let handle_prepared: Vec<f64> = universe
        .stmts
        .iter()
        .map(|s| {
            let exec = Json::obj([
                ("id", Json::Int(ids[s.template])),
                ("params", Json::Array(s.params.clone())),
            ]);
            us(handle(&mut rec, Json::obj([("execute", exec)])).1)
        })
        .collect();
    let prepared_us = median(&handle_prepared);
    out.push(Metric::new("server.handle_prepared_us", prepared_us, "us", handle_prepared.len()));
    out
}

/// `SharedDatabase` snapshot and fact-insert costs, on a private copy of
/// the fact table so the probes after this one see the generated data.
fn storage_write_probes(db: &Database, rec: &mut Recorder, out: &mut Vec<Metric>) {
    const SNAPSHOTS: u32 = 100_000;
    const INPLACE_INSERTS: usize = 200;
    const COW_INSERTS: usize = 5;
    let shared = SharedDatabase::new(db.clone());
    let row = db.table("lineorder").expect("ssb has lineorder").row(0);
    let (_, d) = rec.timed("storage.snapshot", || {
        for _ in 0..SNAPSHOTS {
            std::hint::black_box(shared.snapshot());
        }
    });
    let snapshot_ns = d.as_secs_f64() * 1e9 / f64::from(SNAPSHOTS);
    out.push(Metric::new("storage.snapshot_ns", snapshot_ns, "ns", SNAPSHOTS as usize));
    // `db` shares every table with `shared`, so the first insert copies the
    // fact table — as does any insert while a reader holds a snapshot.
    let mut insert =
        |name: &'static str| us(rec.timed(name, || shared.insert("lineorder", &row)).1);
    let mut cow = vec![insert("storage.insert_cow")];
    let inplace: Vec<f64> =
        (0..INPLACE_INSERTS).map(|_| insert("storage.insert_inplace")).collect();
    while cow.len() < COW_INSERTS {
        let reader = shared.snapshot();
        cow.push(insert("storage.insert_cow"));
        drop(reader);
    }
    out.push(Metric::new("storage.fact_insert_cow_us", median(&cow), "us", cow.len()));
    out.push(Metric::new("storage.fact_insert_inplace_us", median(&inplace), "us", inplace.len()));
}
