//! The server's metrics, declared once, and the `{"cmd":"stats"}` frame.
//!
//! Every metric is one row of [`METRICS`]: its stats-frame key, its
//! Prometheus family, its kind, its help text and where its value is read
//! from ([`Read`]). A row the server bumps itself also declares the
//! [`ServerStats`] field that holds it — the kind gives the field's type —
//! so adding a counter is one row plus its bump site. The stats frame
//! ([`Sources::to_json`]) and the Prometheus scrape
//! ([`render_prometheus`](crate::metrics::render_prometheus)) are each one
//! loop over the table, and each loads every counter in one
//! [`SeqLock::read`] pass: counters a statement bumps as one write group
//! (`segments_scanned` and `segments_pruned`) never show torn.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use astore_core::parallel::{crew_stats, CrewStats};
use astore_obs::SeqLock;
use astore_storage::catalog::Database;

use crate::budget::CoreBudget;
use crate::cache::PlanCache;
use crate::hist::LatencyHistogram;
use crate::json::Json;
use crate::metrics::{SlowLog, TemplateStats};
use crate::sched::Priority;

/// One summary statistic of a histogram in the stats frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Samples recorded.
    Count,
    /// Their mean.
    Mean,
    /// The median.
    P50,
    /// The 99th percentile.
    P99,
    /// The largest sample.
    Max,
}

impl Stat {
    fn of(self, h: &LatencyHistogram) -> Json {
        match self {
            Stat::Count => Json::Int(h.count() as i64),
            Stat::Mean => Json::Float(h.mean_us()),
            Stat::P50 => Json::Int(h.quantile_us(0.50) as i64),
            Stat::P99 => Json::Int(h.quantile_us(0.99) as i64),
            Stat::Max => Json::Int(h.max_us() as i64),
        }
    }
}

/// Summary members of a microsecond histogram.
const US: &[(&str, Stat)] =
    &[("count", Stat::Count), ("p50_us", Stat::P50), ("p99_us", Stat::P99), ("max_us", Stat::Max)];

/// Where a metric sits in the stats frame.
#[derive(Debug, Clone, Copy)]
pub enum Key {
    /// Not in the stats frame: the scrape alone carries it.
    None,
    /// One member: a number, or the per-template array.
    One(&'static str),
    /// A histogram spread over top-level members (`latency_p50_us`, …).
    Flat(&'static [(&'static str, Stat)]),
    /// A histogram as one object of summary members — a per-class
    /// histogram as one such object per priority class.
    Nested(&'static str, &'static [(&'static str, Stat)]),
}

/// A scalar reading, rendered as an integer or a float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// An integer.
    Int(u64),
    /// A float.
    Float(f64),
}

/// Where a metric's value is read from.
#[derive(Debug, Clone, Copy)]
pub enum Read {
    /// A counter or gauge field of [`ServerStats`]. An exposition loads
    /// all of them in one seqlock pass.
    Field(fn(&ServerStats) -> &AtomicU64),
    /// A histogram field of [`ServerStats`].
    Hist(fn(&ServerStats) -> &LatencyHistogram),
    /// A [`ServerStats`] histogram per priority class, indexed by
    /// [`Priority`] discriminant.
    PerClass(fn(&ServerStats) -> &[LatencyHistogram; 3]),
    /// An owner beside [`ServerStats`] that every exposition has: the plan
    /// cache, the scan crew, the footprint, the uptime clock, and the
    /// tracing toggle — the one process-wide value a row reads.
    Value(fn(&Sources) -> Num),
    /// The serving engine's options, core budget, image or slow log.
    Engine(fn(&EngineSources) -> Num),
    /// The engine's per-template latency histograms.
    Templates,
}

/// One metric: a row of [`METRICS`].
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Where it sits in the stats frame.
    pub key: Key,
    /// Its Prometheus family, when the scrape carries it.
    pub family: Option<&'static str>,
    /// Its Prometheus type: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    /// Its help text (the scrape's `# HELP`).
    pub help: &'static str,
    /// Where its value is read from.
    pub read: Read,
}

/// The parts of a row of [`metric_table!`].
#[rustfmt::skip]
macro_rules! part {
    (ty histogram) => { LatencyHistogram };
    (ty per_class) => { [LatencyHistogram; 3] };
    (ty $scalar:ident) => { AtomicU64 };
    (field histogram $field:ident) => { Read::Hist(|s| &s.$field) };
    (field per_class $field:ident) => { Read::PerClass(|s| &s.$field) };
    (field $scalar:ident $field:ident) => { Read::Field(|s| &s.$field) };
    (kind per_class) => { "histogram" };
    (kind $kind:ident) => { stringify!($kind) };
    (key _) => { Key::None };
    (key $key:literal) => { Key::One($key) };
    (key $key:expr) => { $key };
    (family _) => { None };
    (family $family:literal) => { Some($family) };
    (read value |$s:ident| $e:expr) => { Read::Value(|$s| Num::Int($e)) };
    (read float |$s:ident| $e:expr) => { Read::Value(|$s| Num::Float($e)) };
    (read engine |$e:ident| $v:expr) => { Read::Engine(|$e| Num::Int($v)) };
    (read templates) => { Read::Templates };
}

/// Declares [`ServerStats`] and [`METRICS`] from one list of rows, `kind
/// key, family, help`; a key or family of `_` is absent. A row before the
/// `;;` is a field of [`ServerStats`] (`field: kind …`, documented by its
/// help): `counter` and `gauge` are `AtomicU64`s, `histogram` a
/// [`LatencyHistogram`], `per_class` one per priority class. A row after
/// it names the owner its value is read from: `=> value |sources| …` (an
/// integer), `=> float |sources| …`, `=> engine |engine| …` (an integer).
macro_rules! metric_table {
    (
        $( $(#[doc = $doc:literal])* $field:ident: $kind:ident $key:tt, $family:tt, $help:literal; )*
        ;;
        $( $okind:ident $okey:tt, $ofamily:tt, $ohelp:literal
            => $owner:ident $(|$arg:ident| $value:expr)?; )*
    ) => {
        /// The counters and histograms the server bumps, shared by every
        /// connection and worker: the rows of [`METRICS`] it owns.
        #[derive(Debug, Default)]
        pub struct ServerStats {
            $( #[doc = $help] $(#[doc = $doc])* pub $field: part!(ty $kind), )*
            /// Groups multi-counter updates (e.g. `queries` +
            /// `segments_scanned` + `segments_pruned` of one statement) so
            /// an exposition shows either all of an update or none of it.
            pub group: SeqLock,
            started: Started,
        }

        /// Every server metric, one row each: the stats frame and the
        /// Prometheus scrape are both rendered from this list.
        pub const METRICS: &[Metric] = &[
            $( Metric {
                key: part!(key $key), family: part!(family $family), kind: part!(kind $kind),
                help: $help, read: part!(field $kind $field),
            }, )*
            $( Metric {
                key: part!(key $okey), family: part!(family $ofamily), kind: part!(kind $okind),
                help: $ohelp, read: part!(read $owner $(|$arg| $value)?),
            }, )*
        ];
    };
}

metric_table! {
    queries: counter "queries", "astore_server_queries_total", "Read queries served.";
    writes: counter "writes", "astore_server_writes_total", "Write statements applied.";
    wal_records: counter "wal_records", "astore_server_wal_records_total",
        "Write statements appended to the WAL.";
    checkpoints: counter "checkpoints", "astore_server_checkpoints_total", "Checkpoints taken.";
    /// Timed around `Wal::append_batch`, only while the tracing toggle is on.
    wal_append_us: counter _, "astore_wal_append_us_total",
        "Cumulative WAL append time, µs — frame build + write + fsync.";
    /// The `fsync` time each append reports, only while the toggle is on.
    wal_fsync_us: counter _, "astore_wal_fsync_us_total",
        "Cumulative WAL fsync time, µs (the durability wait inside appends).";
    /// Timed around `write_checkpoint`, only while the toggle is on.
    checkpoint_us: counter _, "astore_checkpoint_us_total", "Cumulative checkpoint time, µs.";
    checkpoint_bytes: counter _, "astore_checkpoint_bytes_total",
        "Cumulative snapshot bytes written by checkpoints.";
    /// The statements a batch carried are counted by `writes`.
    group_commits: counter "group_commits", "astore_server_group_commits_total",
        "Group-commit batches published (one WAL fsync each).";
    compactions: counter "compactions", "astore_server_compactions_total",
        "Segments whose flat chunks the background compactor put back in encoded form.";
    parallel_queries: counter "parallel_queries", "astore_server_parallel_queries_total",
        "Queries run by the morsel-parallel executor.";
    /// The core budget was exhausted, or the final row-count clamp said no.
    parallel_denied: counter "parallel_denied", "astore_server_parallel_denied_total",
        "Queries that wanted to fan out but ran serial.";
    segments_scanned: counter "segments_scanned", "astore_server_segments_scanned_total",
        "Fact-table segments scanned.";
    segments_pruned: counter "segments_pruned", "astore_server_segments_pruned_total",
        "Fact-table segments skipped by zone maps.";
    prepares: counter "prepares", "astore_server_prepares_total",
        "Statements prepared (protocol v2).";
    prepared_execs: counter "prepared_execs", "astore_server_prepared_execs_total",
        "Prepared executions (protocol v2).";
    errors: counter "errors", "astore_server_errors_total",
        "Requests answered with an error frame.";
    rejected: counter "rejected", "astore_server_rejected_total",
        "Requests shed by admission control.";
    queued_frames: counter "queued_frames", "astore_server_queued_frames_total",
        "Frames that waited in a class queue instead of running on the thread that read them.";
    conn_rejected: counter "connections_rejected", "astore_server_connections_rejected_total",
        "Connections refused at the limit.";
    accepts_total: counter "accepts_total", "astore_server_accepts_total",
        "Sockets accepted (admitted or refused).";
    reads_blocked_on_backpressure: counter "reads_blocked_on_backpressure",
        "astore_server_reads_blocked_on_backpressure_total",
        "Connection reads paused by the write-buffer high watermark.";
    open_connections: gauge "open_connections", "astore_server_open_connections",
        "Currently open connections.";
    /// The stages of `astore_persist::store::open`, set once at attach
    /// ([`crate::Engine::booted`]).
    boot_snapshot_us: gauge "boot_snapshot_us", "astore_server_boot_snapshot_us",
        "Boot: microseconds spent loading the snapshot (0 on a cold boot).";
    boot_replay_us: gauge "boot_replay_us", "astore_server_boot_replay_us",
        "Boot: microseconds spent opening and replaying the WAL.";
    boot_replayed: gauge "boot_replayed", "astore_server_boot_replayed",
        "Boot: WAL records replayed on top of the snapshot.";
    /// Parse → response built.
    latency: histogram (Key::Flat(&[
            ("latency_count", Stat::Count),
            ("latency_mean_us", Stat::Mean),
            ("latency_p50_us", Stat::P50),
            ("latency_p99_us", Stat::P99),
            ("latency_max_us", Stat::Max),
        ])), "astore_server_latency_us", "End-to-end statement latency (all templates).";
    pipeline_depth: histogram (Key::Flat(&[
            ("pipeline_depth_count", Stat::Count),
            ("pipeline_depth_p50", Stat::P50),
            ("pipeline_depth_p99", Stat::P99),
            ("pipeline_depth_max", Stat::Max),
        ])), "astore_server_pipeline_depth",
        "Requests queued or in flight on a connection as each frame arrived (1 = no pipelining).";
    queue_wait: per_class (Key::Nested("queue_wait", US)), "astore_server_queue_wait_us",
        "Time from a frame being read to its execution starting, per priority class.";
    reply_bytes: per_class (Key::Nested("reply_bytes", &[
            ("count", Stat::Count),
            ("p50", Stat::P50),
            ("p99", Stat::P99),
            ("max", Stat::Max),
        ])), "astore_server_reply_bytes",
        "Reply frame size per priority class, newline included (reactor model).";
    /// The `serialise` stage of a request, which `elapsed_us` does not cover.
    serialize_us: per_class (Key::Nested("serialize_us", US)), "astore_server_serialize_us",
        "Time to serialise a reply frame per priority class (reactor model).";
    /// Parse, plan, bind and frame assembly excluded.
    execute_latency: histogram (Key::Nested("execute_latency", US)),
        "astore_server_execute_latency_us",
        "Execute-stage latency of each SELECT (the AIR scan alone).";
    ;;
    gauge "uptime_s", _, "Seconds since the counters started."
        => float |s| s.stats.started.0.elapsed().as_secs_f64();
    counter "cache_hits", "astore_server_plan_cache_hits_total", "Plan-cache hits."
        => value |s| s.cache.hits();
    counter "cache_misses", "astore_server_plan_cache_misses_total", "Plan-cache misses."
        => value |s| s.cache.misses();
    gauge "cache_hit_rate", _, "Plan-cache hits over lookups (0 before the first lookup)."
        => float |s| s.cache.hit_rate();
    gauge "cached_plans", "astore_server_cached_plans", "Templates in the plan cache."
        => value |s| s.cache.len() as u64;
    counter "scan_helper_wakes", "astore_server_scan_helper_wakes_total",
        "Scan workers handed to resident helper threads (one per extra worker per statement)."
        => value |s| s.crew.wakes;
    gauge "scan_helpers", "astore_server_scan_helpers",
        "Resident scan helper threads (the most extra workers ever wanted at once)."
        => value |s| s.crew.helpers as u64;
    gauge "encoded_bytes", "astore_server_encoded_bytes",
        "Resident bytes of the column chunks, each in the representation it is held in."
        => value |s| s.footprint.encoded_bytes;
    gauge "raw_bytes", "astore_server_raw_bytes", "Bytes the same chunks would occupy flat."
        => value |s| s.footprint.raw_bytes;
    gauge "flat_chunks", "astore_server_flat_chunks", "Column chunks currently held flat."
        => value |s| s.footprint.flat_chunks;
    gauge "flat_bytes", "astore_server_flat_bytes",
        "Bytes of the visible rows of the chunks held flat." => value |s| s.footprint.flat_bytes;
    gauge "dict_bytes", "astore_server_dict_bytes",
        "Heap bytes of the dictionaries (values and reverse index), by capacity."
        => value |s| s.footprint.dict_bytes;
    gauge "str_heap_bytes", "astore_server_str_heap_bytes",
        "Heap bytes of the string columns' heaps, by capacity."
        => value |s| s.footprint.str_heap_bytes;
    gauge "append_copies", "astore_server_append_copies",
        "Column tail chunks copied by appends since boot." => value |s| s.footprint.append_copies;
    gauge _, "astore_obs_enabled", "1 when the runtime tracing toggle is on."
        => value |_s| u64::from(astore_obs::enabled());
    gauge "engine_threads", "astore_server_engine_threads", "Per-query fan-out ceiling."
        => engine |e| e.threads as u64;
    gauge "core_budget_total", "astore_server_core_budget_total", "Cores in the shared budget."
        => engine |e| e.budget.total() as u64;
    gauge "core_budget_in_use", "astore_server_core_budget_in_use",
        "Cores currently granted to statements." => engine |e| e.budget.in_use() as u64;
    gauge "db_version", _, "Version of the catalog image being served." => engine |e| e.db_version;
    gauge _, "astore_server_slowlog_entries", "Entries in the slow-query ring."
        => engine |e| e.slowlog.len() as u64;
    histogram "templates", "astore_server_template_latency_us",
        "Statement latency per canonical template." => templates;
}

/// When the counters started (`uptime_s`).
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

impl ServerStats {
    /// Fresh counters with the uptime clock started now.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// The stats frame of these counters and `cache` alone: no engine
    /// members, a zero footprint.
    pub fn to_json(&self, cache: &PlanCache) -> Json {
        Sources::new(self, cache).to_json()
    }
}

/// Where an image's column memory is: a walk over its tables' chunk slots,
/// dictionaries and heaps, no row data. Chunk bytes count the rows the
/// image sees, not the space reserved behind a filling tail; dictionary
/// and heap bytes count capacity, so room allocated and never used shows.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Column chunk bytes, each chunk in the one form it is held in.
    pub encoded_bytes: u64,
    /// The bytes the same chunks would occupy flat.
    pub raw_bytes: u64,
    /// Chunks held flat: written since their last seal, the filling tail,
    /// or kinds with no smaller form.
    pub flat_chunks: u64,
    /// The visible rows' bytes of the chunks held flat.
    pub flat_bytes: u64,
    /// Dictionary heap bytes: values, their strings, reverse indexes.
    pub dict_bytes: u64,
    /// String heap bytes (neither this nor `dict_bytes` is a chunk byte).
    pub str_heap_bytes: u64,
    /// Tail chunks appends had to copy, rather than fill in place.
    pub append_copies: u64,
}

impl Footprint {
    /// Sums the footprint of `db`'s tables.
    pub fn of(db: &Database) -> Footprint {
        let mut f = Footprint::default();
        for t in db.table_names().iter().filter_map(|name| db.table(name)) {
            let ((resident, raw), (chunks, bytes)) = (t.encoded_footprint(), t.flat_chunks());
            let (dicts, heaps) = t.string_footprint();
            f.encoded_bytes += resident;
            f.raw_bytes += raw;
            f.flat_chunks += chunks;
            f.flat_bytes += bytes;
            f.dict_bytes += dicts;
            f.str_heap_bytes += heaps;
            f.append_copies += t.append_copies();
        }
        f
    }
}

/// What one exposition reads: the server's counters and the owners beside
/// them.
#[derive(Debug)]
pub struct Sources<'a> {
    /// The server's counters and histograms.
    pub stats: &'a ServerStats,
    /// The shared plan cache.
    pub cache: &'a PlanCache,
    /// The resident scan crew.
    pub crew: CrewStats,
    /// The served image's footprint, walked once for this exposition.
    pub footprint: Footprint,
    /// The serving engine's part; without it, its rows are left out.
    pub engine: Option<EngineSources<'a>>,
}

/// The serving engine's part of an exposition.
#[derive(Debug)]
pub struct EngineSources<'a> {
    /// Per-template latency histograms.
    pub templates: &'a TemplateStats,
    /// The slow-query ring.
    pub slowlog: &'a SlowLog,
    /// The core budget.
    pub budget: &'a CoreBudget,
    /// The per-query fan-out ceiling.
    pub threads: usize,
    /// The version of the served image.
    pub db_version: u64,
}

/// One metric's value in an exposition.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reading<'a> {
    Num(Num),
    Hist(&'a LatencyHistogram),
    PerClass(&'a [LatencyHistogram; 3]),
    Templates(&'a TemplateStats),
}

impl<'a> Sources<'a> {
    /// The counters and the plan cache alone: a zero footprint, no engine.
    pub fn new(stats: &'a ServerStats, cache: &'a PlanCache) -> Self {
        Sources { stats, cache, crew: crew_stats(), footprint: Footprint::default(), engine: None }
    }

    /// Each row of [`METRICS`] with its value, in table order; a row whose
    /// owner is absent is skipped. The [`Read::Field`]s are loaded up
    /// front, inside one [`SeqLock::read`] retry loop.
    pub(crate) fn readings(&self) -> impl Iterator<Item = (&'static Metric, Reading<'_>)> {
        let stats = self.stats;
        let fields: Vec<u64> = stats.group.read(|| {
            let fields = METRICS.iter().filter_map(|m| match m.read {
                Read::Field(field) => Some(field(stats).load(Ordering::Relaxed)),
                _ => None,
            });
            fields.collect()
        });
        let mut fields = fields.into_iter();
        METRICS.iter().filter_map(move |m| {
            let reading = match m.read {
                Read::Field(_) => Reading::Num(Num::Int(fields.next()?)),
                Read::Hist(field) => Reading::Hist(field(self.stats)),
                Read::PerClass(field) => Reading::PerClass(field(self.stats)),
                Read::Value(value) => Reading::Num(value(self)),
                Read::Engine(value) => Reading::Num(value(self.engine.as_ref()?)),
                Read::Templates => Reading::Templates(self.engine.as_ref()?.templates),
            };
            Some((m, reading))
        })
    }

    /// The `stats` payload of the wire protocol.
    pub fn to_json(&self) -> Json {
        let mut frame = BTreeMap::new();
        let mut put = |key: &str, value: Json| {
            frame.insert(key.to_owned(), value);
        };
        for (metric, reading) in self.readings() {
            match (metric.key, reading) {
                (Key::None, _) => {}
                (Key::One(key), Reading::Num(Num::Int(v))) => put(key, Json::Int(v as i64)),
                (Key::One(key), Reading::Num(Num::Float(v))) => put(key, Json::Float(v)),
                (Key::One(key), Reading::Templates(t)) => put(key, t.to_json()),
                (Key::Flat(members), Reading::Hist(h)) => {
                    members.iter().for_each(|&(key, stat)| put(key, stat.of(h)))
                }
                (Key::Nested(key, members), Reading::Hist(h)) => put(key, summary(h, members)),
                (Key::Nested(key, members), Reading::PerClass(hists)) => {
                    let per_class =
                        Priority::ALL.map(|p| (p.as_str(), summary(&hists[p as usize], members)));
                    put(key, Json::obj(per_class))
                }
                (key, reading) => unreachable!("stats-frame key {key:?} cannot hold {reading:?}"),
            }
        }
        Json::Object(frame)
    }
}

/// A histogram's summary members as one object.
fn summary(h: &LatencyHistogram, members: &[(&'static str, Stat)]) -> Json {
    Json::obj(members.iter().map(|&(key, stat)| (key, stat.of(h))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_report_contains_all_fields() {
        let stats = ServerStats::new();
        let cache = PlanCache::default();
        stats.queries.fetch_add(3, Ordering::Relaxed);
        stats.latency.record(100);
        let j = stats.to_json(&cache);
        assert_eq!(j.get("queries").unwrap().as_i64(), Some(3));
        assert_eq!(j.get("latency_count").unwrap().as_i64(), Some(1));
        assert!(j.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        for key in [
            "writes",
            "wal_records",
            "checkpoints",
            "group_commits",
            "compactions",
            "parallel_queries",
            "parallel_denied",
            "segments_scanned",
            "segments_pruned",
            "prepares",
            "prepared_execs",
            "errors",
            "rejected",
            "queued_frames",
            "encoded_bytes",
            "raw_bytes",
            "flat_chunks",
            "flat_bytes",
            "dict_bytes",
            "str_heap_bytes",
            "append_copies",
            "boot_snapshot_us",
            "boot_replay_us",
            "boot_replayed",
            "latency_p99_us",
            "scan_helpers",
            "scan_helper_wakes",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        stats.reply_bytes[2].record(16_700);
        stats.serialize_us[2].record(12);
        let j = stats.to_json(&cache);
        let scan_reply = j.get("reply_bytes").unwrap().get("scan").unwrap();
        assert_eq!(scan_reply.get("count").unwrap().as_i64(), Some(1));
        assert_eq!(scan_reply.get("max").unwrap().as_i64(), Some(16_700));
        let scan_ser = j.get("serialize_us").unwrap().get("scan").unwrap();
        assert_eq!(scan_ser.get("max_us").unwrap().as_i64(), Some(12));
        stats.execute_latency.record(40);
        let j = stats.to_json(&cache);
        let execute = j.get("execute_latency").unwrap();
        assert_eq!(execute.get("count").unwrap().as_i64(), Some(1));
        assert_eq!(execute.get("max_us").unwrap().as_i64(), Some(40));
        for gone in ["router_decisions", "engine_latency", "denorm_cache_entries"] {
            assert!(j.get(gone).is_none(), "{gone} is still reported");
        }
    }

    /// Every member path of a JSON object, `a.b.c` for nested members.
    fn key_tree(j: &Json, prefix: &str, out: &mut Vec<String>) {
        if let Json::Object(m) = j {
            for (k, v) in m {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                key_tree(v, &path, out);
                out.push(path);
            }
        }
    }

    #[test]
    fn stats_frame_key_tree_is_pinned() {
        let j = ServerStats::new().to_json(&PlanCache::default());
        let mut keys = Vec::new();
        key_tree(&j, "", &mut keys);
        keys.sort_unstable();
        let expected: Vec<String> = PINNED_KEYS.iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, expected);
    }

    const PINNED_KEYS: &[&str] = &[
        "accepts_total",
        "append_copies",
        "boot_replay_us",
        "boot_replayed",
        "boot_snapshot_us",
        "cache_hit_rate",
        "cache_hits",
        "cache_misses",
        "cached_plans",
        "checkpoints",
        "compactions",
        "connections_rejected",
        "dict_bytes",
        "encoded_bytes",
        "errors",
        "execute_latency",
        "execute_latency.count",
        "execute_latency.max_us",
        "execute_latency.p50_us",
        "execute_latency.p99_us",
        "flat_bytes",
        "flat_chunks",
        "group_commits",
        "latency_count",
        "latency_max_us",
        "latency_mean_us",
        "latency_p50_us",
        "latency_p99_us",
        "open_connections",
        "parallel_denied",
        "parallel_queries",
        "pipeline_depth_count",
        "pipeline_depth_max",
        "pipeline_depth_p50",
        "pipeline_depth_p99",
        "prepared_execs",
        "prepares",
        "queries",
        "queue_wait",
        "queue_wait.interactive",
        "queue_wait.interactive.count",
        "queue_wait.interactive.max_us",
        "queue_wait.interactive.p50_us",
        "queue_wait.interactive.p99_us",
        "queue_wait.metadata",
        "queue_wait.metadata.count",
        "queue_wait.metadata.max_us",
        "queue_wait.metadata.p50_us",
        "queue_wait.metadata.p99_us",
        "queue_wait.scan",
        "queue_wait.scan.count",
        "queue_wait.scan.max_us",
        "queue_wait.scan.p50_us",
        "queue_wait.scan.p99_us",
        "queued_frames",
        "raw_bytes",
        "reads_blocked_on_backpressure",
        "rejected",
        "reply_bytes",
        "reply_bytes.interactive",
        "reply_bytes.interactive.count",
        "reply_bytes.interactive.max",
        "reply_bytes.interactive.p50",
        "reply_bytes.interactive.p99",
        "reply_bytes.metadata",
        "reply_bytes.metadata.count",
        "reply_bytes.metadata.max",
        "reply_bytes.metadata.p50",
        "reply_bytes.metadata.p99",
        "reply_bytes.scan",
        "reply_bytes.scan.count",
        "reply_bytes.scan.max",
        "reply_bytes.scan.p50",
        "reply_bytes.scan.p99",
        "scan_helper_wakes",
        "scan_helpers",
        "segments_pruned",
        "segments_scanned",
        "serialize_us",
        "serialize_us.interactive",
        "serialize_us.interactive.count",
        "serialize_us.interactive.max_us",
        "serialize_us.interactive.p50_us",
        "serialize_us.interactive.p99_us",
        "serialize_us.metadata",
        "serialize_us.metadata.count",
        "serialize_us.metadata.max_us",
        "serialize_us.metadata.p50_us",
        "serialize_us.metadata.p99_us",
        "serialize_us.scan",
        "serialize_us.scan.count",
        "serialize_us.scan.max_us",
        "serialize_us.scan.p50_us",
        "serialize_us.scan.p99_us",
        "str_heap_bytes",
        "uptime_s",
        "wal_records",
        "writes",
    ];

    #[test]
    fn snapshot_never_tears_a_write_group() {
        // A writer bumps scanned and pruned together under the seqlock
        // (pruned ≤ scanned always holds at group boundaries); a reader
        // snapshotting concurrently must never see pruned > scanned.
        let stats = std::sync::Arc::new(ServerStats::new());
        let cache = PlanCache::default();
        std::thread::scope(|s| {
            let w = std::sync::Arc::clone(&stats);
            s.spawn(move || {
                for _ in 0..20_000 {
                    let _g = w.group.begin_write();
                    // Pruned first: an ungrouped reader between these two
                    // adds would observe the invariant violated.
                    w.segments_pruned.fetch_add(1, Ordering::Relaxed);
                    w.segments_scanned.fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..500 {
                let j = stats.to_json(&cache);
                let scanned = j.get("segments_scanned").unwrap().as_i64().unwrap();
                let pruned = j.get("segments_pruned").unwrap().as_i64().unwrap();
                assert!(pruned <= scanned, "torn snapshot: pruned={pruned} scanned={scanned}");
            }
        });
    }
}
