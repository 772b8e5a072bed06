//! Server-wide counters and the `{"cmd":"stats"}` report.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use astore_obs::SeqLock;

use crate::cache::PlanCache;
use crate::hist::LatencyHistogram;
use crate::json::Json;

/// Atomic counters shared by every connection and worker.
#[derive(Debug)]
pub struct ServerStats {
    /// Successfully served read queries.
    pub queries: AtomicU64,
    /// Successfully applied write statements.
    pub writes: AtomicU64,
    /// Write statements appended to the write-ahead log.
    pub wal_records: AtomicU64,
    /// Checkpoints taken (explicit or automatic).
    pub checkpoints: AtomicU64,
    /// Group-commit batches published (each batch is one WAL fsync; the
    /// statements it carried are counted by `writes`).
    pub group_commits: AtomicU64,
    /// Segments whose flat chunks the background compactor put back in
    /// encoded form (written segments that then went quiet).
    pub compactions: AtomicU64,
    /// Read queries executed by the morsel-driven parallel executor.
    pub parallel_queries: AtomicU64,
    /// Read queries the planner wanted to fan out but that ran serial
    /// (core budget exhausted, or the final row-count clamp said no).
    pub parallel_denied: AtomicU64,
    /// Fact-table segments read queries actually scanned.
    pub segments_scanned: AtomicU64,
    /// Fact-table segments skipped whole by zone-map pruning.
    pub segments_pruned: AtomicU64,
    /// Statements prepared via `{"prepare":…}` frames.
    pub prepares: AtomicU64,
    /// Statements executed via `{"execute":…}` frames (bind-per-request,
    /// no SQL text parsed).
    pub prepared_execs: AtomicU64,
    /// Requests that returned an error frame (parse/plan/execution).
    pub errors: AtomicU64,
    /// Requests shed by admission control (`server_busy`).
    pub rejected: AtomicU64,
    /// Connections refused because the connection limit was reached.
    pub conn_rejected: AtomicU64,
    /// Currently open connections.
    pub active_connections: AtomicUsize,
    /// Sockets accepted over the server's lifetime (admitted or refused).
    pub accepts_total: AtomicU64,
    /// Times the reactor paused reading a connection because its write
    /// backlog crossed the high watermark.
    pub reads_blocked_on_backpressure: AtomicU64,
    /// Per-connection pipeline depth (queued + in-flight requests)
    /// observed as each complete frame arrived. Depth 1 = no pipelining.
    pub pipeline_depth: LatencyHistogram,
    /// Queue wait per priority class, indexed by
    /// [`Priority`](crate::sched::Priority) discriminant
    /// (metadata / interactive / scan).
    pub queue_wait: [LatencyHistogram; 3],
    /// Size of each reply frame the reactor front-end serialised, newline
    /// included, per priority class (same indexing as `queue_wait`) …
    pub reply_bytes: [LatencyHistogram; 3],
    /// … and the time serialising it took, in microseconds: the
    /// `serialise` stage of a request, which `elapsed_us` does not cover.
    pub serialize_us: [LatencyHistogram; 3],
    /// Latency of the execute stage of each SELECT: the AIR scan alone,
    /// parse, plan, bind and frame assembly excluded.
    pub execute_latency: LatencyHistogram,
    /// Resident bytes of the column chunks, each counted in the one
    /// representation it is held in (encoded or flat): the sum of
    /// `Table::encoded_footprint().0` over the tables. Gauge, not counter:
    /// overwritten at boot, after each compaction install and checkpoint,
    /// and when the stats are read.
    pub encoded_bytes: AtomicU64,
    /// Flat columnar bytes the same chunks would occupy raw.
    pub raw_bytes: AtomicU64,
    /// Chunks currently held flat (written since their last seal, the
    /// filling tail, or kinds with no smaller form) …
    pub flat_chunks: AtomicU64,
    /// … and the bytes of their visible rows — the part of `encoded_bytes`
    /// that is not encoded. Space reserved behind a filling tail is not
    /// counted: untouched, it is address space, not resident memory.
    pub flat_bytes: AtomicU64,
    /// Heap bytes of the dictionaries — value arrays, value strings and
    /// reverse indexes — by capacity, not length, so room allocated and
    /// never used shows up (the sum of `Table::string_footprint().0`).
    pub dict_bytes: AtomicU64,
    /// Heap bytes of the string columns' heaps, by capacity (the sum of
    /// `Table::string_footprint().1`). Neither this nor `dict_bytes` is part
    /// of `encoded_bytes`, which counts the column chunks only.
    pub str_heap_bytes: AtomicU64,
    /// Column tail chunks that appends had to copy since boot (the sum of
    /// `Table::append_copies` over the tables of the current image): an
    /// insert that finds reserved space behind the tail adds nothing here.
    pub append_copies: AtomicU64,
    /// How the engine's image was recovered from its data directory
    /// (`astore_persist::store::open`'s two stages): µs spent loading the
    /// snapshot, µs opening the WAL and replaying it, and records replayed.
    /// Set once at attach ([`crate::Engine::booted`]); zero on a cold boot.
    pub boot_snapshot_us: AtomicU64,
    /// See `boot_snapshot_us`.
    pub boot_replay_us: AtomicU64,
    /// See `boot_snapshot_us`.
    pub boot_replayed: AtomicU64,
    /// End-to-end statement latency (parse → response built).
    pub latency: LatencyHistogram,
    /// Groups multi-counter updates (e.g. `queries` + `segments_scanned` +
    /// `segments_pruned` of one statement) so [`ServerStats::to_json`]
    /// snapshots either all of an update or none of it — a mid-burst scrape
    /// can no longer report `segments_pruned` ahead of `segments_scanned`.
    pub group: SeqLock,
    started: Instant,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            queries: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            parallel_queries: AtomicU64::new(0),
            parallel_denied: AtomicU64::new(0),
            segments_scanned: AtomicU64::new(0),
            segments_pruned: AtomicU64::new(0),
            prepares: AtomicU64::new(0),
            prepared_execs: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            conn_rejected: AtomicU64::new(0),
            active_connections: AtomicUsize::new(0),
            accepts_total: AtomicU64::new(0),
            reads_blocked_on_backpressure: AtomicU64::new(0),
            pipeline_depth: LatencyHistogram::new(),
            queue_wait: Default::default(),
            reply_bytes: Default::default(),
            serialize_us: Default::default(),
            execute_latency: LatencyHistogram::new(),
            encoded_bytes: AtomicU64::new(0),
            raw_bytes: AtomicU64::new(0),
            flat_chunks: AtomicU64::new(0),
            flat_bytes: AtomicU64::new(0),
            dict_bytes: AtomicU64::new(0),
            str_heap_bytes: AtomicU64::new(0),
            append_copies: AtomicU64::new(0),
            boot_snapshot_us: AtomicU64::new(0),
            boot_replay_us: AtomicU64::new(0),
            boot_replayed: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            group: SeqLock::new(),
            started: Instant::now(),
        }
    }
}

impl ServerStats {
    /// Fresh counters with the uptime clock started now.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Builds the `stats` payload of the wire protocol. The counter loads
    /// run inside a [`SeqLock::read`] retry loop — one cheap pass over all
    /// fifteen counters — so counters updated as one write group appear
    /// coherently even mid-burst.
    pub fn to_json(&self, cache: &PlanCache) -> Json {
        let crew = astore_core::parallel::crew_stats();
        let [queries, writes, wal_records, checkpoints, group_commits, compactions, parallel_queries, parallel_denied, segments_scanned, segments_pruned, prepares, prepared_execs, errors, rejected, conn_rejected] =
            self.group.read(|| {
                [
                    self.queries.load(Ordering::Relaxed),
                    self.writes.load(Ordering::Relaxed),
                    self.wal_records.load(Ordering::Relaxed),
                    self.checkpoints.load(Ordering::Relaxed),
                    self.group_commits.load(Ordering::Relaxed),
                    self.compactions.load(Ordering::Relaxed),
                    self.parallel_queries.load(Ordering::Relaxed),
                    self.parallel_denied.load(Ordering::Relaxed),
                    self.segments_scanned.load(Ordering::Relaxed),
                    self.segments_pruned.load(Ordering::Relaxed),
                    self.prepares.load(Ordering::Relaxed),
                    self.prepared_execs.load(Ordering::Relaxed),
                    self.errors.load(Ordering::Relaxed),
                    self.rejected.load(Ordering::Relaxed),
                    self.conn_rejected.load(Ordering::Relaxed),
                ]
            });
        Json::obj([
            ("uptime_s", Json::Float(self.started.elapsed().as_secs_f64())),
            ("queries", Json::Int(queries as i64)),
            ("writes", Json::Int(writes as i64)),
            ("wal_records", Json::Int(wal_records as i64)),
            ("checkpoints", Json::Int(checkpoints as i64)),
            ("group_commits", Json::Int(group_commits as i64)),
            ("compactions", Json::Int(compactions as i64)),
            ("parallel_queries", Json::Int(parallel_queries as i64)),
            ("parallel_denied", Json::Int(parallel_denied as i64)),
            ("segments_scanned", Json::Int(segments_scanned as i64)),
            ("segments_pruned", Json::Int(segments_pruned as i64)),
            ("prepares", Json::Int(prepares as i64)),
            ("prepared_execs", Json::Int(prepared_execs as i64)),
            ("errors", Json::Int(errors as i64)),
            ("rejected", Json::Int(rejected as i64)),
            ("connections_rejected", Json::Int(conn_rejected as i64)),
            (
                "active_connections",
                Json::Int(self.active_connections.load(Ordering::Relaxed) as i64),
            ),
            // Same gauge under the reactor-era name; `active_connections`
            // stays for callers written against the older name.
            ("open_connections", Json::Int(self.active_connections.load(Ordering::Relaxed) as i64)),
            ("accepts_total", Json::Int(self.accepts_total.load(Ordering::Relaxed) as i64)),
            (
                "reads_blocked_on_backpressure",
                Json::Int(self.reads_blocked_on_backpressure.load(Ordering::Relaxed) as i64),
            ),
            ("pipeline_depth_count", Json::Int(self.pipeline_depth.count() as i64)),
            ("pipeline_depth_p50", Json::Int(self.pipeline_depth.quantile_us(0.50) as i64)),
            ("pipeline_depth_p99", Json::Int(self.pipeline_depth.quantile_us(0.99) as i64)),
            ("pipeline_depth_max", Json::Int(self.pipeline_depth.max_us() as i64)),
            ("queue_wait", per_class_json(&self.queue_wait, US_KEYS)),
            ("reply_bytes", per_class_json(&self.reply_bytes, ["count", "p50", "p99", "max"])),
            ("serialize_us", per_class_json(&self.serialize_us, US_KEYS)),
            ("scan_helpers", Json::Int(crew.helpers as i64)),
            ("scan_helper_wakes", Json::Int(crew.wakes as i64)),
            ("execute_latency", quantiles_json(&self.execute_latency, US_KEYS)),
            ("encoded_bytes", Json::Int(self.encoded_bytes.load(Ordering::Relaxed) as i64)),
            ("raw_bytes", Json::Int(self.raw_bytes.load(Ordering::Relaxed) as i64)),
            ("flat_chunks", Json::Int(self.flat_chunks.load(Ordering::Relaxed) as i64)),
            ("flat_bytes", Json::Int(self.flat_bytes.load(Ordering::Relaxed) as i64)),
            ("dict_bytes", Json::Int(self.dict_bytes.load(Ordering::Relaxed) as i64)),
            ("str_heap_bytes", Json::Int(self.str_heap_bytes.load(Ordering::Relaxed) as i64)),
            ("append_copies", Json::Int(self.append_copies.load(Ordering::Relaxed) as i64)),
            ("boot_snapshot_us", Json::Int(self.boot_snapshot_us.load(Ordering::Relaxed) as i64)),
            ("boot_replay_us", Json::Int(self.boot_replay_us.load(Ordering::Relaxed) as i64)),
            ("boot_replayed", Json::Int(self.boot_replayed.load(Ordering::Relaxed) as i64)),
            ("cache_hits", Json::Int(cache.hits() as i64)),
            ("cache_misses", Json::Int(cache.misses() as i64)),
            ("cache_hit_rate", Json::Float(cache.hit_rate())),
            ("cached_plans", Json::Int(cache.len() as i64)),
            ("latency_count", Json::Int(self.latency.count() as i64)),
            ("latency_mean_us", Json::Float(self.latency.mean_us())),
            ("latency_p50_us", Json::Int(self.latency.quantile_us(0.50) as i64)),
            ("latency_p99_us", Json::Int(self.latency.quantile_us(0.99) as i64)),
            ("latency_max_us", Json::Int(self.latency.max_us() as i64)),
        ])
    }
}

/// Member names of a microsecond histogram's summary.
const US_KEYS: [&str; 4] = ["count", "p50_us", "p99_us", "max_us"];

/// A histogram's sample count and monitoring quantiles under `keys`
/// (count, p50, p99, max).
fn quantiles_json(h: &LatencyHistogram, keys: [&'static str; 4]) -> Json {
    Json::obj([
        (keys[0], Json::Int(h.count() as i64)),
        (keys[1], Json::Int(h.quantile_us(0.50) as i64)),
        (keys[2], Json::Int(h.quantile_us(0.99) as i64)),
        (keys[3], Json::Int(h.max_us() as i64)),
    ])
}

/// One [`quantiles_json`] object per priority class.
fn per_class_json(hists: &[LatencyHistogram; 3], keys: [&'static str; 4]) -> Json {
    Json::obj(
        crate::sched::Priority::ALL.map(|p| (p.as_str(), quantiles_json(&hists[p as usize], keys))),
    )
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
