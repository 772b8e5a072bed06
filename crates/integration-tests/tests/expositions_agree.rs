//! The two expositions of a live server agree. After a short mix of text,
//! prepared and write statements, and once the server is quiet,
//! `{"cmd":"stats"}` and `{"cmd":"metrics"}` report the same value for
//! every metric both carry, and each template of the mix has its own
//! `astore_server_template_latency_us` series.
//!
//! The pairing of stats-frame keys with Prometheus series is read from the
//! metric table itself ([`astore_server::stats::METRICS`]), so a metric
//! added to the table is checked here without touching this file.
//!
//! And each engine's scrape is its own: two durable engines in one process
//! each report only their own checkpoints.

use std::collections::HashMap;
use std::sync::Arc;

use astore_datagen::ssb;
use astore_obs::prom::escape_label;
use astore_server::json::Json;
use astore_server::stats::{Key, Read, Stat, METRICS};
use astore_server::{start, Client, Durability, Engine, Priority, ServerConfig};
use astore_storage::snapshot::SharedDatabase;

/// Runs `text` `n` times as SQL text, expecting success.
fn run_text(c: &mut Client, text: &str, n: usize) {
    for _ in 0..n {
        let r = c.sql(text).unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{text}: {r:?}");
    }
}

/// Prepares `text` and executes it once per parameter list.
fn run_prepared(c: &mut Client, text: &str, params: &[Vec<Json>]) {
    let r = c.prepare(text).unwrap();
    let id = r.get("stmt_id").and_then(Json::as_i64).unwrap_or_else(|| panic!("{r:?}")) as u64;
    for p in params {
        let r = c.execute(id, p.clone()).unwrap();
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{text} {p:?}: {r:?}");
    }
}

#[test]
fn stats_frame_and_scrape_agree_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("astore-expositions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = ssb::generate(0.001, 7);
    let wal = astore_persist::store::bootstrap(&dir, &db).unwrap();
    let engine = Engine::new(SharedDatabase::new(db)).durable(Durability::new(&dir, wal, 0));
    let config = ServerConfig { addr: "127.0.0.1:0".into(), queue_depth: 64, ..Default::default() };
    let server = start(Arc::new(engine), config).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    // Five templates, run 1 to 5 times, so each series' count names it.
    run_text(&mut c, "SELECT count(*) AS n FROM lineorder", 1);
    for year in [1993, 1994] {
        let q = format!(
            "SELECT sum(lo_revenue) AS r FROM lineorder, date \
             WHERE lo_orderdate = d_datekey AND d_year = {year}"
        );
        run_text(&mut c, &q, 1);
    }
    let by_year = "SELECT d_year, sum(lo_revenue) AS r FROM lineorder, date \
                   WHERE lo_orderdate = d_datekey AND d_year >= ? GROUP BY d_year";
    run_prepared(&mut c, by_year, &[1992, 1994, 1996].map(|y| vec![Json::Int(y)]));
    run_text(&mut c, "UPDATE lineorder SET lo_quantity = 7 WHERE rowid = 1", 4);
    let update = "UPDATE lineorder SET lo_revenue = ? WHERE rowid = ?";
    run_prepared(
        &mut c,
        update,
        &(0..5).map(|i| vec![Json::Int(1000 + i), Json::Int(i)]).collect::<Vec<_>>(),
    );
    let r = c.request(&Json::obj([("cmd", Json::Str("checkpoint".into()))])).unwrap();
    assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");

    // Quiet: every statement is answered. The probes themselves move the
    // request-level metrics (queue wait, reply sizes, pipeline depth), so a
    // value the scrape carries must lie between the stats frames before
    // and after it — equal to both wherever nothing moved.
    let before = c.stats().unwrap();
    let body = c.metrics().unwrap();
    let after = c.stats().unwrap();
    let scrape: HashMap<&str, f64> = body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').unwrap();
            (series, value.parse().unwrap())
        })
        .collect();

    let mut checked = 0;
    let mut check = |series: &str, value: &dyn Fn(&Json) -> Option<f64>| {
        let (lo, hi) = (value(&before).unwrap(), value(&after).unwrap());
        let scraped = *scrape.get(series).unwrap_or_else(|| panic!("{series} not scraped"));
        assert!(lo <= scraped && scraped <= hi, "{series}: stats {lo}..{hi}, scrape {scraped}");
        checked += 1;
    };
    let count_of = |members: &[(&'static str, Stat)]| {
        members.iter().find(|(_, stat)| *stat == Stat::Count).unwrap().0
    };
    for metric in METRICS {
        let Some(family) = metric.family else { continue };
        match (metric.key, metric.read) {
            (Key::None, _) | (_, Read::Templates) => {}
            (Key::One(key), _) => check(family, &|s| s.get(key)?.as_f64()),
            (Key::Flat(members), _) => {
                let count = count_of(members);
                check(&format!("{family}_count"), &|s| s.get(count)?.as_f64());
            }
            (Key::Nested(key, members), Read::PerClass(_)) => {
                let count = count_of(members);
                for class in Priority::ALL.map(|p| p.as_str()) {
                    let series = format!("{family}_count{{class=\"{class}\"}}");
                    check(&series, &|s| s.get(key)?.get(class)?.get(count)?.as_f64());
                }
            }
            (Key::Nested(key, members), _) => {
                let count = count_of(members);
                check(&format!("{family}_count"), &|s| s.get(key)?.get(count)?.as_f64());
            }
        }
    }
    assert!(checked >= 40, "only {checked} values compared");
    for (key, expected) in
        [("queries", 6), ("writes", 9), ("prepared_execs", 8), ("checkpoints", 1)]
    {
        assert_eq!(after.get(key).and_then(Json::as_i64), Some(expected), "{key}");
    }

    // Each template of the mix has its own latency series.
    let templates = after.get("templates").and_then(Json::as_array).unwrap();
    let mut counts = Vec::new();
    for t in templates {
        let name = t.get("template").and_then(Json::as_str).unwrap();
        let count = t.get("count").and_then(Json::as_i64).unwrap();
        let (p50, p99) = (t.get("p50_us").unwrap(), t.get("p99_us").unwrap());
        assert!(p99.as_i64() >= p50.as_i64() && p50.as_i64() > Some(0), "{t:?}");
        let series = format!(
            "astore_server_template_latency_us_count{{template=\"{}\"}}",
            escape_label(name)
        );
        assert_eq!(scrape.get(series.as_str()), Some(&(count as f64)), "{series}");
        counts.push(count);
    }
    counts.sort_unstable();
    assert_eq!(counts, [1, 2, 3, 4, 5], "one series per template of the mix: {templates:?}");

    // The durability timings are rows of the table, with their help; the
    // two families that repeated `wal_records` and `checkpoints` are gone.
    assert!(body.contains("# HELP astore_wal_fsync_us_total Cumulative WAL fsync"), "{body}");
    assert!(scrape.get("astore_checkpoint_bytes_total") > Some(&0.0), "{body}");
    for gone in ["astore_wal_appends_total", "astore_checkpoints_total"] {
        assert!(!body.contains(gone), "{gone} is still scraped");
    }

    drop(c);
    drop(server);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads one unlabelled series of `engine`'s scrape.
fn scraped(engine: &Engine, series: &str) -> u64 {
    let r = engine.handle_line(r#"{"cmd":"metrics"}"#);
    let body = r.get("metrics").and_then(Json::as_str).unwrap();
    let line = body.lines().find_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
    line.unwrap_or_else(|| panic!("{series} not scraped")).parse().unwrap()
}

/// Two durable engines in one process each count their own checkpoints:
/// neither scrape reads the other's bytes.
#[test]
fn each_engine_scrapes_its_own_checkpoints() {
    let mut engines = Vec::new();
    for folds in [1, 2] {
        let dir = std::env::temp_dir()
            .join(format!("astore-own-counters-{}-{folds}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = ssb::generate(0.001, 7);
        let wal = astore_persist::store::bootstrap(&dir, &db).unwrap();
        let engine = Engine::new(SharedDatabase::new(db)).durable(Durability::new(&dir, wal, 0));
        engines.push((engine, dir, folds, 0));
    }
    // Interleaved, so each engine's folds happen between the other's.
    for round in 0..2 {
        for (engine, _, folds, bytes) in &mut engines {
            if round < *folds {
                let r = engine.handle_line(
                    r#"{"sql":"UPDATE lineorder SET lo_quantity = 7 WHERE rowid = 1"}"#,
                );
                assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r:?}");
                *bytes += engine.checkpoint().unwrap().1 as u64;
            }
        }
    }
    for (engine, dir, folds, bytes) in engines {
        assert_eq!(scraped(&engine, "astore_server_checkpoints_total"), folds as u64);
        assert_eq!(scraped(&engine, "astore_checkpoint_bytes_total"), bytes, "{folds} folds");
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
