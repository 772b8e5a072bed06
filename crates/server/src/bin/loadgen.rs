//! `loadgen` — hammer an astore-server with N connections × M mixed SSB
//! queries and print a JSON throughput/latency summary (BENCH_server.json
//! format).
//!
//! ```text
//! loadgen --self-host --sf 0.01 --connections 8 --queries 150
//! loadgen --addr 127.0.0.1:3939 --connections 16 --queries 500 --write-every 50
//! loadgen --self-host --prepared          # text pass + prepare/execute pass, with deltas
//! ```
//!
//! The query mix rotates SSB flights 1–4 **with varying predicate
//! literals** — the workload the parameter-aware plan cache exists for. In
//! text mode each request is a fresh SQL string (the server canonicalizes
//! it to a shared template); with `--prepared` a second pass runs the same
//! workload over protocol v2 (`prepare` once per connection, `execute`
//! frames with bound parameters — no SQL text on the hot path) and the
//! summary reports q/s and cache hit-rate deltas between the two modes.
//!
//! Besides the client-side aggregates, the summary's `server_templates`
//! member carries the *server's* per-template latency histograms (count,
//! p50/p99/max in µs per canonical statement template) so per-query-shape
//! regressions are visible without client/transport noise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use astore_core::host_cores;
use astore_server::hist::LatencyHistogram;
use astore_server::json::Json;
use astore_server::{start, Client, Durability, Engine, ServerConfig};
use astore_storage::snapshot::SharedDatabase;

/// One workload entry: a `?`-placeholder template plus rotating parameter
/// sets (written as SQL literals; quoted values are strings). Text mode
/// substitutes them into the template client-side, prepared mode binds
/// them over the wire — both modes run the same logical queries.
struct MixEntry {
    name: &'static str,
    template: &'static str,
    param_sets: &'static [&'static [&'static str]],
}

const MIX: &[MixEntry] = &[
    MixEntry {
        name: "Q1.1",
        template: "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date \
                   WHERE lo_orderdate = d_datekey AND d_year = ? \
                     AND lo_discount BETWEEN ? AND ? AND lo_quantity < ?",
        param_sets: &[
            &["1993", "1", "3", "25"],
            &["1994", "2", "4", "30"],
            &["1995", "3", "5", "35"],
            &["1992", "1", "2", "20"],
        ],
    },
    MixEntry {
        name: "Q1.2",
        template: "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date \
                   WHERE lo_orderdate = d_datekey AND d_yearmonthnum = ? \
                     AND lo_discount BETWEEN ? AND ? AND lo_quantity BETWEEN ? AND ?",
        param_sets: &[&["199401", "4", "6", "26", "35"], &["199402", "5", "7", "20", "30"]],
    },
    MixEntry {
        name: "Q2.1",
        template: "SELECT d_year, p_brand1, sum(lo_revenue) AS revenue \
                   FROM lineorder, date, part, supplier \
                   WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey \
                     AND lo_suppkey = s_suppkey AND p_category = ? AND s_region = ? \
                   GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1",
        param_sets: &[&["'MFGR#12'", "'AMERICA'"], &["'MFGR#13'", "'ASIA'"]],
    },
    MixEntry {
        name: "Q3.1",
        template: "SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue \
                   FROM customer, lineorder, supplier, date \
                   WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                     AND lo_orderdate = d_datekey AND c_region = ? AND s_region = ? \
                     AND d_year >= ? AND d_year <= ? \
                   GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC",
        param_sets: &[
            &["'ASIA'", "'ASIA'", "1992", "1997"],
            &["'AMERICA'", "'AMERICA'", "1993", "1996"],
        ],
    },
    MixEntry {
        name: "Q4.1",
        template: "SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit \
                   FROM date, customer, supplier, part, lineorder \
                   WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
                     AND lo_partkey = p_partkey AND lo_orderdate = d_datekey \
                     AND c_region = ? AND s_region = ? \
                     AND (p_mfgr = ? OR p_mfgr = ?) \
                   GROUP BY d_year, c_nation ORDER BY d_year, c_nation",
        param_sets: &[&["'AMERICA'", "'AMERICA'", "'MFGR#1'", "'MFGR#2'"]],
    },
    MixEntry {
        name: "full-scan",
        template: "SELECT d_year, sum(lo_revenue) AS rev FROM lineorder, date \
                   WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year",
        param_sets: &[&[]],
    },
];

/// The write statement used when `--write-every` is active. Targets rotate
/// over [`WRITE_ROWS`] customer rows and a handful of segment values so a
/// mixed workload exercises many rows, not one hot cell.
const WRITE_TEMPLATE: &str = "UPDATE customer SET c_mktsegment = ? WHERE rowid = ?";
const WRITE_SEGMENTS: &[&str] = &["MACHINERY", "AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD"];
/// Rows 0..WRITE_ROWS are update targets; present at any sf ≥ 0.01.
const WRITE_ROWS: usize = 100;

/// The rotating parameters of the i-th write on connection `conn_id`.
fn write_params(conn_id: usize, i: usize) -> (&'static str, usize) {
    let k = conn_id.wrapping_mul(31).wrapping_add(i);
    (WRITE_SEGMENTS[k % WRITE_SEGMENTS.len()], k % WRITE_ROWS)
}

/// Substitutes the n-th `?` of `template` with `params[n]` (text mode).
fn substitute(template: &str, params: &[&str]) -> String {
    let mut out = String::with_capacity(template.len() + 16);
    let mut it = params.iter();
    for c in template.chars() {
        if c == '?' {
            out.push_str(it.next().expect("param set matches placeholder count"));
        } else {
            out.push(c);
        }
    }
    out
}

/// Parses a SQL-literal parameter into its wire (JSON) form.
fn literal_to_json(lit: &str) -> Json {
    if let Some(stripped) = lit.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
        Json::Str(stripped.replace("''", "'"))
    } else if let Ok(i) = lit.parse::<i64>() {
        Json::Int(i)
    } else {
        Json::Float(lit.parse::<f64>().expect("numeric literal"))
    }
}

struct Args {
    addr: Option<String>,
    sf: f64,
    seed: u64,
    connections: usize,
    queries: usize,
    write_every: usize,
    workers: usize,
    prepared: bool,
    durable: bool,
    /// Fraction of `connections` that connect, probe once, then just hold
    /// their socket open for the whole run (connection-scale mode).
    idle_fraction: f64,
    /// Self-host admission queue depth override (0 = auto). Small values
    /// force `server_busy` shedding under the hot core — the graceful
    /// degradation the connection-scale bench measures.
    queue: usize,
}

/// Per-mix-query zone-pruning totals accumulated over one pass.
#[derive(Debug, Default)]
struct PruneAgg {
    executions: AtomicU64,
    segments_scanned: AtomicU64,
    segments_pruned: AtomicU64,
}

/// Aggregate metrics of one load pass.
struct PassMetrics {
    label: &'static str,
    hist: LatencyHistogram,
    /// Read-statement latency only.
    read_hist: LatencyHistogram,
    /// Write-statement latency only.
    write_hist: LatencyHistogram,
    elapsed_s: f64,
    ok: u64,
    busy: u64,
    errors: u64,
    /// Plan-cache hit rate over exactly this pass (server counter deltas).
    cache_hit_rate: f64,
    /// Zone-pruning totals per mix query, in `MIX` order.
    pruning: Vec<PruneAgg>,
}

/// The per-class (read or write) summary block: count, throughput, tail.
fn class_json(hist: &LatencyHistogram, elapsed_s: f64) -> Json {
    Json::obj([
        ("count", Json::Int(hist.count() as i64)),
        ("per_s", Json::Float(hist.count() as f64 / elapsed_s.max(1e-9))),
        ("latency_mean_us", Json::Float(hist.mean_us())),
        ("latency_p50_us", Json::Int(hist.quantile_us(0.50) as i64)),
        ("latency_p99_us", Json::Int(hist.quantile_us(0.99) as i64)),
        ("latency_max_us", Json::Int(hist.max_us() as i64)),
    ])
}

impl PassMetrics {
    fn to_json(&self) -> Json {
        let pruning: Vec<Json> = MIX
            .iter()
            .zip(&self.pruning)
            .map(|(entry, agg)| {
                Json::obj([
                    ("query", Json::Str(entry.name.into())),
                    ("executions", Json::Int(agg.executions.load(Ordering::Relaxed) as i64)),
                    (
                        "segments_scanned",
                        Json::Int(agg.segments_scanned.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "segments_pruned",
                        Json::Int(agg.segments_pruned.load(Ordering::Relaxed) as i64),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("mode", Json::Str(self.label.into())),
            ("queries_ok", Json::Int(self.ok as i64)),
            ("rejected_busy", Json::Int(self.busy as i64)),
            ("errors", Json::Int(self.errors as i64)),
            ("elapsed_s", Json::Float(self.elapsed_s)),
            ("qps", Json::Float(self.ok as f64 / self.elapsed_s.max(1e-9))),
            ("cache_hit_rate_pass", Json::Float(self.cache_hit_rate)),
            ("latency_mean_us", Json::Float(self.hist.mean_us())),
            ("latency_p50_us", Json::Int(self.hist.quantile_us(0.50) as i64)),
            ("latency_p99_us", Json::Int(self.hist.quantile_us(0.99) as i64)),
            ("latency_max_us", Json::Int(self.hist.max_us() as i64)),
            ("reads", class_json(&self.read_hist, self.elapsed_s)),
            ("writes", class_json(&self.write_hist, self.elapsed_s)),
            ("pruning", Json::Array(pruning)),
        ])
    }
}

fn cache_counters(addr: &str) -> (u64, u64) {
    let stats = Client::connect(addr).ok().and_then(|mut c| c.stats().ok());
    let get =
        |k: &str| stats.as_ref().and_then(|s| s.get(k)).and_then(Json::as_i64).unwrap_or(0) as u64;
    (get("cache_hits"), get("cache_misses"))
}

/// Opens `n` idle connections. Each measures the connect → first-response
/// round trip (the accept-latency probe: a TCP handshake plus one
/// `{"cmd":"stats"}` frame through the full server path), then parks its
/// socket until the run ends — standing connection load for the reactor.
/// Returns the held sockets, the accept-latency histogram, and how many
/// connections the server refused.
fn open_idle(addr: &str, n: usize) -> (Vec<Client>, LatencyHistogram, u64) {
    let hist = LatencyHistogram::new();
    let mut held = Vec::with_capacity(n);
    let mut refused = 0u64;
    for _ in 0..n {
        let t = Instant::now();
        match Client::connect(addr) {
            Ok(mut c) => match c.stats() {
                Ok(_) => {
                    hist.record(t.elapsed().as_micros() as u64);
                    held.push(c);
                }
                Err(_) => refused += 1,
            },
            Err(_) => refused += 1,
        }
    }
    (held, hist, refused)
}

/// Runs one pass of the workload: every one of `conns` connections issues
/// `queries` statements from the rotating mix, in text or prepared mode.
fn run_pass(addr: &str, a: &Args, conns: usize, prepared: bool) -> PassMetrics {
    let hist = Arc::new(LatencyHistogram::new());
    let read_hist = Arc::new(LatencyHistogram::new());
    let write_hist = Arc::new(LatencyHistogram::new());
    let errors = Arc::new(AtomicU64::new(0));
    let busy = Arc::new(AtomicU64::new(0));
    let pruning: Arc<Vec<PruneAgg>> = Arc::new(MIX.iter().map(|_| PruneAgg::default()).collect());
    let (hits0, misses0) = cache_counters(addr);
    let t_run = Instant::now();
    std::thread::scope(|s| {
        for conn_id in 0..conns {
            let hist = Arc::clone(&hist);
            let read_hist = Arc::clone(&read_hist);
            let write_hist = Arc::clone(&write_hist);
            let errors = Arc::clone(&errors);
            let busy = Arc::clone(&busy);
            let pruning = Arc::clone(&pruning);
            s.spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("conn {conn_id}: connect failed: {e}");
                        errors.fetch_add(a.queries as u64, Ordering::Relaxed);
                        return;
                    }
                };
                // Prepared mode: plan each template (and the write) once.
                let mut stmt_ids: Vec<u64> = Vec::new();
                let mut write_id = 0u64;
                if prepared {
                    for entry in MIX {
                        match client.prepare(entry.template) {
                            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                                stmt_ids
                                    .push(r.get("stmt_id").unwrap().as_i64().unwrap_or(0) as u64);
                            }
                            other => {
                                eprintln!("conn {conn_id}: prepare failed: {other:?}");
                                errors.fetch_add(a.queries as u64, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                    if a.write_every > 0 {
                        match client.prepare(WRITE_TEMPLATE) {
                            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                                write_id = r.get("stmt_id").unwrap().as_i64().unwrap_or(0) as u64;
                            }
                            other => {
                                eprintln!("conn {conn_id}: write prepare failed: {other:?}");
                                errors.fetch_add(a.queries as u64, Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                }
                for i in 0..a.queries {
                    let is_write = a.write_every > 0 && i % a.write_every == a.write_every - 1;
                    let (mix_idx, entry) = {
                        let idx = (conn_id + i) % MIX.len();
                        (idx, &MIX[idx])
                    };
                    let params = entry.param_sets[i % entry.param_sets.len()];
                    let t = Instant::now();
                    let resp = if is_write {
                        let (seg, row) = write_params(conn_id, i);
                        if prepared {
                            client.execute(
                                write_id,
                                vec![Json::Str(seg.into()), Json::Int(row as i64)],
                            )
                        } else {
                            let seg_lit = format!("'{seg}'");
                            let row_lit = row.to_string();
                            client.sql(&substitute(WRITE_TEMPLATE, &[&seg_lit, &row_lit]))
                        }
                    } else if prepared {
                        client.execute(
                            stmt_ids[mix_idx],
                            params.iter().map(|p| literal_to_json(p)).collect(),
                        )
                    } else {
                        client.sql(&substitute(entry.template, params))
                    };
                    match resp {
                        Ok(resp) if resp.get("ok").and_then(Json::as_bool) == Some(true) => {
                            let us = t.elapsed().as_micros() as u64;
                            hist.record(us);
                            if is_write {
                                write_hist.record(us);
                            } else {
                                read_hist.record(us);
                                let get = |k: &str| {
                                    resp.get(k).and_then(Json::as_i64).unwrap_or(0) as u64
                                };
                                let agg = &pruning[mix_idx];
                                agg.executions.fetch_add(1, Ordering::Relaxed);
                                agg.segments_scanned
                                    .fetch_add(get("segments_scanned"), Ordering::Relaxed);
                                agg.segments_pruned
                                    .fetch_add(get("segments_pruned"), Ordering::Relaxed);
                            }
                        }
                        Ok(resp) => {
                            if resp.get("code").and_then(Json::as_str) == Some("server_busy") {
                                busy.fetch_add(1, Ordering::Relaxed);
                            } else {
                                eprintln!("conn {conn_id}: error frame: {resp}");
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) => {
                            eprintln!("conn {conn_id}: transport error: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    let elapsed_s = t_run.elapsed().as_secs_f64();
    let (hits1, misses1) = cache_counters(addr);
    let (dh, dm) = (hits1.saturating_sub(hits0), misses1.saturating_sub(misses0));
    let cache_hit_rate = if dh + dm == 0 { 0.0 } else { dh as f64 / (dh + dm) as f64 };
    let hist = Arc::try_unwrap(hist).expect("threads joined");
    let read_hist = Arc::try_unwrap(read_hist).expect("threads joined");
    let write_hist = Arc::try_unwrap(write_hist).expect("threads joined");
    let pruning = Arc::try_unwrap(pruning).expect("threads joined");
    PassMetrics {
        label: if prepared { "prepared" } else { "text" },
        elapsed_s,
        ok: hist.count(),
        hist,
        read_hist,
        write_hist,
        busy: busy.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        cache_hit_rate,
        pruning,
    }
}

fn main() {
    let mut a = Args {
        addr: None,
        sf: 0.01,
        seed: 42,
        connections: 8,
        queries: 150,
        write_every: 0,
        workers: host_cores(),
        prepared: false,
        durable: false,
        idle_fraction: 0.0,
        queue: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => a.addr = Some(value("--addr")),
            "--self-host" => a.addr = None,
            "--sf" => a.sf = parse_or_die(&value("--sf"), "--sf"),
            "--seed" => a.seed = parse_or_die(&value("--seed"), "--seed"),
            "--connections" => {
                a.connections = parse_or_die(&value("--connections"), "--connections")
            }
            "--queries" => a.queries = parse_or_die(&value("--queries"), "--queries"),
            "--write-every" => {
                a.write_every = parse_or_die(&value("--write-every"), "--write-every")
            }
            "--workers" => a.workers = parse_or_die(&value("--workers"), "--workers"),
            "--prepared" => a.prepared = true,
            "--durable" => a.durable = true,
            "--idle-fraction" => {
                a.idle_fraction = parse_or_die(&value("--idle-fraction"), "--idle-fraction")
            }
            "--queue" => a.queue = parse_or_die(&value("--queue"), "--queue"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
        }
    }

    if a.durable && a.addr.is_some() {
        eprintln!("--durable only applies to self-host mode (drop --addr)");
        exit(2);
    }
    if !(0.0..=1.0).contains(&a.idle_fraction) {
        eprintln!("--idle-fraction must be in [0, 1]");
        exit(2);
    }

    // Self-host mode: spin up an in-process server on a free port.
    let mut durable_dir: Option<std::path::PathBuf> = None;
    let handle = match &a.addr {
        Some(_) => None,
        None => {
            eprintln!("self-hosting: loading SSB sf={} seed={} …", a.sf, a.seed);
            let db = astore_datagen::ssb::generate(a.sf, a.seed);
            let mut engine = Engine::new(SharedDatabase::new(db));
            if a.durable {
                // A throwaway data dir so writes run the real WAL +
                // group-commit fsync path; removed again on exit.
                let dir =
                    std::env::temp_dir().join(format!("astore-loadgen-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let snap = engine.database().snapshot();
                let wal = astore_persist::store::bootstrap(&dir, &snap).unwrap_or_else(|e| {
                    eprintln!("failed to initialize durable dir: {e}");
                    exit(1);
                });
                eprintln!("durable: WAL + snapshot in {}", dir.display());
                engine = engine.durable(Durability::new(&dir, wal, 0));
                durable_dir = Some(dir);
            }
            let engine = Arc::new(engine);
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: a.workers,
                queue_depth: if a.queue > 0 { a.queue } else { a.workers * 4 + a.connections },
                max_connections: a.connections + 8,
                ..ServerConfig::default()
            };
            let h = start(engine, config).unwrap_or_else(|e| {
                eprintln!("failed to start in-process server: {e}");
                exit(1);
            });
            eprintln!("in-process server on {}", h.addr());
            Some(h)
        }
    };
    let addr: String = match (&a.addr, &handle) {
        (Some(addr), _) => addr.clone(),
        (None, Some(h)) => h.addr().to_string(),
        _ => unreachable!(),
    };

    // Connection-scale mode: a fraction of the connections just hold
    // sockets open (probing accept latency on the way in) while the rest
    // run the query mix — the reactor serves the hot core amid a standing
    // crowd of idle sessions.
    let n_idle = (a.connections as f64 * a.idle_fraction).round() as usize;
    let n_hot = a.connections - n_idle;
    let (idle_held, accept_hist, accept_refused) = open_idle(&addr, n_idle);
    if n_idle > 0 {
        eprintln!("holding {} idle connections ({accept_refused} refused)", idle_held.len());
    }

    let text = run_pass(&addr, &a, n_hot, false);
    let prepared = a.prepared.then(|| run_pass(&addr, &a, n_hot, true));

    let server_stats = Client::connect(addr.as_str()).ok().and_then(|mut c| c.stats().ok());
    // Server-side per-template latency (p50/p99 from the server's own
    // histograms, keyed by canonical template) — measured where the
    // statement ran, free of client/transport noise, and shared across
    // the text and prepared passes since both canonicalize to the same
    // templates.
    let server_templates = server_stats
        .as_ref()
        .and_then(|s| s.get("templates"))
        .cloned()
        .unwrap_or(Json::Array(Vec::new()));
    // Top-level fields mirror the text pass (the BENCH_server.json shape
    // older tooling reads); the prepared pass and deltas nest below.
    let mut summary = Json::obj([
        ("bench", Json::Str("astore-server loadgen".into())),
        ("addr", Json::Str(addr)),
        (
            "dataset",
            Json::Str(if a.addr.is_some() {
                "(remote)".into()
            } else if a.durable {
                format!("ssb sf={} (durable)", a.sf)
            } else {
                format!("ssb sf={}", a.sf)
            }),
        ),
        ("seed", Json::Int(a.seed as i64)),
        ("connections", Json::Int(a.connections as i64)),
        ("queries_per_connection", Json::Int(a.queries as i64)),
        ("queries_ok", Json::Int(text.ok as i64)),
        ("rejected_busy", Json::Int(text.busy as i64)),
        ("errors", Json::Int(text.errors as i64)),
        ("elapsed_s", Json::Float(text.elapsed_s)),
        ("qps", Json::Float(text.ok as f64 / text.elapsed_s.max(1e-9))),
        ("latency_mean_us", Json::Float(text.hist.mean_us())),
        ("latency_p50_us", Json::Int(text.hist.quantile_us(0.50) as i64)),
        ("latency_p99_us", Json::Int(text.hist.quantile_us(0.99) as i64)),
        ("latency_max_us", Json::Int(text.hist.max_us() as i64)),
        ("text", text.to_json()),
        ("server", server_stats.unwrap_or(Json::Null)),
        ("server_templates", server_templates),
    ]);
    if n_idle > 0 {
        if let Json::Object(m) = &mut summary {
            m.insert("hot_connections".into(), Json::Int(n_hot as i64));
            m.insert("idle_connections".into(), Json::Int(idle_held.len() as i64));
            m.insert(
                "accept".into(),
                Json::obj([
                    ("count", Json::Int(accept_hist.count() as i64)),
                    ("refused", Json::Int(accept_refused as i64)),
                    ("latency_p50_us", Json::Int(accept_hist.quantile_us(0.50) as i64)),
                    ("latency_p99_us", Json::Int(accept_hist.quantile_us(0.99) as i64)),
                    ("latency_max_us", Json::Int(accept_hist.max_us() as i64)),
                ]),
            );
        }
    }
    let mut total_errors = text.errors;
    if let Some(p) = &prepared {
        total_errors += p.errors;
        let qps_text = text.ok as f64 / text.elapsed_s.max(1e-9);
        let qps_prep = p.ok as f64 / p.elapsed_s.max(1e-9);
        if let Json::Object(m) = &mut summary {
            m.insert("prepared".into(), p.to_json());
            m.insert(
                "delta".into(),
                Json::obj([
                    ("qps_ratio_prepared_vs_text", Json::Float(qps_prep / qps_text.max(1e-9))),
                    ("cache_hit_rate_text", Json::Float(text.cache_hit_rate)),
                    ("cache_hit_rate_prepared", Json::Float(p.cache_hit_rate)),
                    (
                        "p50_us_prepared_minus_text",
                        Json::Int(
                            p.hist.quantile_us(0.50) as i64 - text.hist.quantile_us(0.50) as i64,
                        ),
                    ),
                ]),
            );
        }
    }
    println!("{summary}");

    drop(idle_held);
    if let Some(h) = handle {
        h.shutdown();
    }
    if let Some(dir) = durable_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if total_errors > 0 {
        exit(1);
    }
}

fn parse_or_die<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        exit(2);
    })
}

const USAGE: &str = "\
loadgen — astore-server load generator (prints a JSON summary to stdout)

flags:
  --addr <host:port>   target server (default: self-host in-process)
  --self-host          spawn an in-process server (the default)
  --sf <f>             SSB scale factor for self-host   (default 0.01)
  --seed <n>           dataset generation seed, recorded in the summary
                       so runs are reproducible          (default 42)
  --connections <n>    concurrent client connections    (default 8)
  --idle-fraction <f>  fraction of connections that connect, probe once
                       (recording the accept-latency round trip) and then
                       hold their socket open idle for the whole run; the
                       rest run the query mix. Connection-scale mode: the
                       summary gains accept-latency percentiles, refused
                       counts and idle/hot splits (default 0)
  --queries <n>        statements per connection        (default 150)
  --write-every <n>    make every n-th statement a write (default 0 = reads only;
                       2 = a 50/50 read/write mix); writes rotate over 100
                       customer rows and report separately under \"writes\"
  --durable            self-host with a throwaway data dir so writes hit the
                       real WAL + group-commit fsync path (removed on exit)
  --workers <n>        self-host worker threads         (default: cores)
  --queue <n>          self-host admission queue depth  (default: auto =
                       4*workers + connections); small values force
                       server_busy shedding, which the summary reports
                       under \"rejected_busy\" without failing the run
  --prepared           after the text pass, run the same workload over
                       protocol v2 (prepare/execute frames) and report
                       q/s + plan-cache hit-rate deltas between the modes";
