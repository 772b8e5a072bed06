//! `astore-serve` — serve an SSB / TPC-H dataset over the wire protocol.
//!
//! ```text
//! astore-serve --addr 127.0.0.1:3939 --dataset ssb --sf 0.01 --workers 8
//! astore-serve --data-dir ./data --dataset ssb --sf 0.01
//! ```
//!
//! With `--data-dir`, the server is durable and restartable: the first boot
//! generates the dataset, snapshots it into the directory and opens a WAL;
//! every later boot recovers from snapshot + WAL instead of regenerating.
//! Writes are logged before they are acknowledged; `{"cmd":"checkpoint"}`
//! (or `--checkpoint-every N`) folds the log back into the snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use astore_server::{host_cores, start, Durability, Engine, ServerConfig};
use astore_storage::snapshot::SharedDatabase;

fn main() {
    let mut config = ServerConfig::default();
    let mut dataset = "ssb".to_owned();
    let mut sf = 0.01f64;
    let mut queue_explicit = false;
    let mut data_dir: Option<String> = None;
    let mut cache_dir: Option<String> = None;
    let mut checkpoint_every: u64 = 4096;
    let mut engine_threads: usize = host_cores();
    let mut slow_ms: u64 = 0;
    let mut trace = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--workers" => config.workers = parse_or_die(&value("--workers"), "--workers"),
            "--queue" => {
                config.queue_depth = parse_or_die(&value("--queue"), "--queue");
                queue_explicit = true;
            }
            "--max-conn" => {
                config.max_connections = parse_or_die(&value("--max-conn"), "--max-conn")
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms =
                    parse_or_die(&value("--idle-timeout-ms"), "--idle-timeout-ms")
            }
            "--dataset" => dataset = value("--dataset"),
            "--sf" => sf = parse_or_die(&value("--sf"), "--sf"),
            "--data-dir" => data_dir = Some(value("--data-dir")),
            "--cache-dir" => cache_dir = Some(value("--cache-dir")),
            "--checkpoint-every" => {
                checkpoint_every = parse_or_die(&value("--checkpoint-every"), "--checkpoint-every")
            }
            "--engine-threads" => {
                engine_threads = parse_or_die(&value("--engine-threads"), "--engine-threads")
            }
            "--slow-ms" => slow_ms = parse_or_die(&value("--slow-ms"), "--slow-ms"),
            "--trace" => trace = true,
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

    if !queue_explicit {
        // Keep the documented "4x workers" default when --workers overrides
        // the core-count default.
        config.queue_depth = config.workers * 4;
    }

    let t = Instant::now();
    let mut booted = None;
    let (db, durability) = match &data_dir {
        Some(dir) if astore_persist::store::is_initialized(dir) => {
            // Warm boot: recover from snapshot + WAL, no regeneration.
            // --dataset/--sf are ignored here — the data dir is the truth.
            let rec = astore_persist::store::open(dir).unwrap_or_else(|e| {
                eprintln!("failed to recover from {dir}: {e}");
                exit(1);
            });
            eprintln!(
                "recovered from {dir} ({} WAL records replayed{})",
                rec.replayed,
                if rec.truncated_tail { ", torn tail truncated" } else { "" }
            );
            let rows: usize =
                rec.db.table_names().iter().map(|n| rec.db.table(n).unwrap().num_live()).sum();
            eprintln!(
                "loaded {rows} rows from disk in {:.1?} (snapshot {:.1?}, WAL replay {:.1?})",
                t.elapsed(),
                rec.snapshot_time,
                rec.replay_time
            );
            booted = Some((rec.snapshot_time, rec.replay_time, rec.replayed));
            (rec.db, Some(Durability::new(dir.clone(), rec.wal, checkpoint_every)))
        }
        _ => {
            let (db, cached) = generate(&dataset, sf, cache_dir.as_deref());
            let durability = data_dir.map(|dir| {
                // Cold boot: seed the data directory from the generated set.
                let wal = astore_persist::store::bootstrap(&dir, &db).unwrap_or_else(|e| {
                    eprintln!("failed to initialize {dir}: {e}");
                    exit(1);
                });
                eprintln!("initialized data dir {dir}");
                Durability::new(dir, wal, checkpoint_every)
            });
            let rows: usize =
                db.table_names().iter().map(|n| db.table(n).unwrap().num_live()).sum();
            eprintln!(
                "loaded {dataset} sf={sf} ({rows} rows{}) in {:.1?}",
                if cached { ", dataset cache hit" } else { "" },
                t.elapsed()
            );
            (db, durability)
        }
    };

    if trace {
        // Runtime toggle: arms the engine-wide timing counters (WAL
        // append/fsync, checkpoint encode) surfaced by {"cmd":"metrics"}.
        astore_obs::set_enabled(true);
    }
    let exec_opts = astore_core::exec::ExecOptions::default().threads(engine_threads.max(1));
    let mut engine = Engine::with_options(SharedDatabase::new(db), exec_opts).slow_ms(slow_ms);
    if let Some(d) = durability {
        engine = engine.durable(d);
    }
    if let Some((snapshot, replay, replayed)) = booted {
        engine = engine.booted(snapshot, replay, replayed);
    }
    let budget_total = engine.budget().total();
    let engine = Arc::new(engine);
    let workers = config.workers;
    let queue = config.queue_depth;
    match start(engine, config) {
        Ok(handle) => {
            eprintln!(
                "astore-serve listening on {} ({workers} workers, \
                 queue depth {queue}, engine threads {engine_threads}, \
                 core budget {budget_total})",
                handle.addr(),
            );
            handle.join();
        }
        Err(e) => {
            eprintln!("failed to bind: {e}");
            exit(1);
        }
    }
}

/// Generates (or, with `--cache-dir`, loads a memoized snapshot of) the
/// named dataset. Returns the database and whether the cache served it.
fn generate(
    dataset: &str,
    sf: f64,
    cache_dir: Option<&str>,
) -> (astore_storage::catalog::Database, bool) {
    const SEED: u64 = 42;
    if let Some(dir) = cache_dir {
        return astore_datagen::cached::generate_named_cached(dir, dataset, sf, SEED)
            .unwrap_or_else(|e| {
                eprintln!("dataset cache failed: {e}");
                exit(2);
            });
    }
    let db = match dataset {
        "ssb" => astore_datagen::ssb::generate(sf, SEED),
        "tpch" => astore_datagen::tpch::generate(sf, SEED),
        other => {
            eprintln!("unknown dataset {other:?} (try ssb or tpch)");
            exit(2);
        }
    };
    (db, false)
}

fn parse_or_die<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        exit(2);
    })
}

const USAGE: &str = "\
astore-serve — A-Store query server (newline-delimited JSON over TCP)

flags:
  --addr <host:port>      listen address              (default 127.0.0.1:3939)
  --dataset <name>        ssb | tpch                  (default ssb)
  --sf <f>                dataset scale factor        (default 0.01)
  --workers <n>           statement worker threads    (default: cores)
  --queue <n>             admission queue depth       (default: 4x workers)
  --max-conn <n>          connection limit            (default 256)
  --idle-timeout-ms <n>   close connections whose partial
                          frame stalls for n ms (slow-loris defence;
                          default 30000, 0 = off). Idle connections with
                          no buffered bytes are never reaped
  --data-dir <dir>        durable mode: snapshot + WAL live here; first boot
                          seeds from --dataset/--sf, later boots recover
                          (--dataset/--sf are then ignored)
  --cache-dir <dir>       memoize generated datasets as snapshots keyed by
                          (dataset, sf, seed): generate once, reload after
  --checkpoint-every <n>  auto-checkpoint after n WAL records (default 4096,
                          0 = only on {\"cmd\":\"checkpoint\"})
  --engine-threads <n>    per-query fan-out ceiling (default: cores; 1 =
                          serial). A scan whose surviving segments give each
                          worker two of them splits into morsels across up
                          to n worker threads, granted from a global core
                          budget shared with the statement worker pool, so
                          intra-query and inter-query parallelism never
                          oversubscribe cores
  --slow-ms <n>           capture statements slower than n ms in the
                          {\"cmd\":\"slowlog\"} ring buffer (default 0 = off)
  --trace                 arm the runtime tracing toggle: engine timing
                          counters (WAL fsync, checkpoint) are sampled and
                          exposed via {\"cmd\":\"metrics\"}";
