//! Server-side metric surfaces: per-template latency histograms, the
//! slow-query ring buffer, and Prometheus text-format exposition.
//!
//! [`TemplateStats`] keys one [`LatencyHistogram`] per *canonical statement
//! template* — the same key the plan cache uses — so SSB Q1.1 with
//! different literals is one series, and `{"cmd":"metrics"}` can answer
//! "which query shape is slow" instead of only "the server is slow". The
//! map is bounded: past [`MAX_TEMPLATES`] distinct shapes, new ones fold
//! into the `(other)` series rather than growing without limit.
//!
//! [`SlowLog`] is a bounded ring of the most recent statements that ran
//! longer than the `--slow-ms` threshold, served by `{"cmd":"slowlog"}`
//! newest-first. A threshold of 0 disables capture entirely.
//!
//! [`render_prometheus`] writes the `{"cmd":"metrics"}` body. It declares
//! no metric of its own: each family is a row of the one metric table,
//! [`METRICS`](crate::stats::METRICS), which the stats frame is rendered
//! from too.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use astore_obs::PromWriter;

use crate::hist::LatencyHistogram;
use crate::json::Json;
use crate::sched::Priority;
use crate::stats::{Num, Reading, Sources};

/// Most distinct templates tracked before new shapes fold into `(other)`.
pub const MAX_TEMPLATES: usize = 128;
/// Capacity of the slow-query ring buffer.
pub const SLOWLOG_CAP: usize = 128;
/// Catch-all series name once the per-template map is full.
pub const OVERFLOW_TEMPLATE: &str = "(other)";

/// Per-canonical-template latency histograms, bounded at
/// [`MAX_TEMPLATES`] series.
#[derive(Debug, Default)]
pub struct TemplateStats {
    map: Mutex<HashMap<String, Arc<LatencyHistogram>>>,
}

impl TemplateStats {
    /// An empty map.
    pub fn new() -> Self {
        TemplateStats::default()
    }

    /// Records one sample under a template key. The lock covers only the
    /// map lookup — the histogram increment itself is lock-free.
    pub fn record(&self, template: &str, us: u64) {
        let hist = {
            let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(h) = map.get(template) {
                Arc::clone(h)
            } else if map.len() < MAX_TEMPLATES {
                let h = Arc::new(LatencyHistogram::new());
                map.insert(template.to_owned(), Arc::clone(&h));
                h
            } else {
                Arc::clone(
                    map.entry(OVERFLOW_TEMPLATE.to_owned())
                        .or_insert_with(|| Arc::new(LatencyHistogram::new())),
                )
            }
        };
        hist.record(us);
    }

    /// All series, name-ordered. The histograms are shared handles —
    /// concurrent recording continues while the caller reads them.
    pub fn snapshot(&self) -> Vec<(String, Arc<LatencyHistogram>)> {
        let map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        let mut out: Vec<_> = map.iter().map(|(k, v)| (k.clone(), Arc::clone(v))).collect();
        drop(map);
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Number of tracked series.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Returns `true` if no series are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `templates` member of the `{"cmd":"stats"}` payload: one object
    /// per series with count, mean and the monitoring quantiles.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.snapshot()
                .into_iter()
                .map(|(name, h)| {
                    Json::obj([
                        ("template", Json::Str(name)),
                        ("count", Json::Int(h.count() as i64)),
                        ("mean_us", Json::Float(h.mean_us())),
                        ("p50_us", Json::Int(h.quantile_us(0.50) as i64)),
                        ("p99_us", Json::Int(h.quantile_us(0.99) as i64)),
                        ("max_us", Json::Int(h.max_us() as i64)),
                    ])
                })
                .collect(),
        )
    }
}

/// One captured slow statement.
#[derive(Debug, Clone)]
pub struct SlowEntry {
    /// The canonical statement template that ran slow.
    pub template: String,
    /// End-to-end latency of the offending execution.
    pub elapsed_us: u64,
    /// When the statement finished (for `ago_s` rendering).
    pub at: Instant,
}

/// A bounded ring buffer of statements slower than a runtime threshold.
#[derive(Debug)]
pub struct SlowLog {
    entries: Mutex<VecDeque<SlowEntry>>,
    threshold_us: AtomicU64,
    cap: usize,
}

impl Default for SlowLog {
    fn default() -> Self {
        SlowLog::new(0)
    }
}

impl SlowLog {
    /// A ring of [`SLOWLOG_CAP`] entries capturing statements at or above
    /// `threshold_ms` (0 disables capture).
    pub fn new(threshold_ms: u64) -> Self {
        SlowLog {
            entries: Mutex::new(VecDeque::new()),
            threshold_us: AtomicU64::new(threshold_ms.saturating_mul(1000)),
            cap: SLOWLOG_CAP,
        }
    }

    /// Updates the capture threshold at run time.
    pub fn set_threshold_ms(&self, ms: u64) {
        self.threshold_us.store(ms.saturating_mul(1000), Ordering::Relaxed);
    }

    /// The current threshold in milliseconds (0 = disabled).
    pub fn threshold_ms(&self) -> u64 {
        self.threshold_us.load(Ordering::Relaxed) / 1000
    }

    /// Offers one finished statement; it is kept only when capture is
    /// enabled and the latency reaches the threshold. The fast path (not
    /// slow, or disabled) is a single relaxed load.
    pub fn observe(&self, template: &str, elapsed_us: u64) {
        let threshold = self.threshold_us.load(Ordering::Relaxed);
        if threshold == 0 || elapsed_us < threshold {
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(SlowEntry {
            template: template.to_owned(),
            elapsed_us,
            at: Instant::now(),
        });
    }

    /// Captured entries, newest first.
    pub fn entries(&self) -> Vec<SlowEntry> {
        let entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        entries.iter().rev().cloned().collect()
    }

    /// Number of captured entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Returns `true` if nothing has been captured (or capture is off).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `{"cmd":"slowlog"}` payload: entries newest first, each with
    /// how long ago it finished.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("threshold_ms", Json::Int(self.threshold_ms() as i64)),
            (
                "entries",
                Json::Array(
                    self.entries()
                        .into_iter()
                        .map(|e| {
                            Json::obj([
                                ("template", Json::Str(e.template)),
                                ("elapsed_us", Json::Int(e.elapsed_us as i64)),
                                ("ago_s", Json::Float(e.at.elapsed().as_secs_f64())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Emits one labeled series of a histogram family: `_bucket` samples with
/// cumulative `le` bounds, then `_sum` and `_count`. The family's
/// `# HELP`/`# TYPE` header is the caller's job (via [`PromWriter::header`],
/// exactly once per metric name) — a family like the per-template latency
/// histogram emits many labeled series under one header, and the Prometheus
/// text format rejects a repeated HELP/TYPE line for the same name.
fn emit_histogram_series(
    w: &mut PromWriter,
    name: &str,
    labels: &[(&str, &str)],
    h: &LatencyHistogram,
) {
    let bucket_name = format!("{name}_bucket");
    for (bound, cumulative) in h.buckets() {
        let le = bound.to_string();
        let mut with_le: Vec<(&str, &str)> = labels.to_vec();
        with_le.push(("le", &le));
        w.sample_u64(&bucket_name, &with_le, cumulative);
    }
    let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
    with_inf.push(("le", "+Inf"));
    w.sample_u64(&bucket_name, &with_inf, h.count());
    w.sample_u64(&format!("{name}_sum"), labels, h.sum_us());
    w.sample_u64(&format!("{name}_count"), labels, h.count());
}

/// Builds the full Prometheus text-format scrape body: one family per
/// scraped row of [`METRICS`](crate::stats::METRICS) — its `ServerStats`
/// counters loaded in one seqlock pass, as the stats frame loads them.
pub fn render_prometheus(sources: &Sources) -> String {
    let mut w = PromWriter::new();
    for (metric, reading) in sources.readings() {
        let Some(name) = metric.family else { continue };
        w.header(name, metric.help, metric.kind);
        match reading {
            Reading::Num(Num::Int(v)) => w.sample_u64(name, &[], v),
            Reading::Num(Num::Float(v)) => w.sample(name, &[], v),
            Reading::Hist(h) => emit_histogram_series(&mut w, name, &[], h),
            Reading::PerClass(hists) => {
                for class in Priority::ALL {
                    let labels = [("class", class.as_str())];
                    emit_histogram_series(&mut w, name, &labels, &hists[class as usize]);
                }
            }
            Reading::Templates(templates) => {
                for (template, hist) in templates.snapshot() {
                    emit_histogram_series(&mut w, name, &[("template", &template)], &hist);
                }
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::stats::{EngineSources, ServerStats};

    #[test]
    fn template_stats_bound_and_overflow() {
        let t = TemplateStats::new();
        for i in 0..MAX_TEMPLATES + 10 {
            t.record(&format!("SELECT {i}"), 100);
        }
        assert_eq!(t.len(), MAX_TEMPLATES + 1, "cap plus the (other) series");
        let snap = t.snapshot();
        let other = snap.iter().find(|(n, _)| n == OVERFLOW_TEMPLATE).unwrap();
        assert_eq!(other.1.count(), 10, "overflow shapes fold into one series");
        // Recording an existing key still lands on its own series.
        t.record("SELECT 0", 100);
        let snap = t.snapshot();
        assert_eq!(snap.iter().find(|(n, _)| n == "SELECT 0").unwrap().1.count(), 2);
    }

    #[test]
    fn slowlog_captures_above_threshold_newest_first() {
        let log = SlowLog::new(10); // 10ms
        log.observe("fast", 500);
        assert!(log.is_empty(), "below threshold is not captured");
        log.observe("slow-a", 20_000);
        log.observe("slow-b", 11_000);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].template, "slow-b", "newest first");
        assert_eq!(entries[1].elapsed_us, 20_000);
        log.set_threshold_ms(0);
        log.observe("slow-c", 99_000);
        assert_eq!(log.len(), 2, "threshold 0 disables capture");
    }

    #[test]
    fn slowlog_ring_is_bounded() {
        let log = SlowLog::new(1);
        for i in 0..SLOWLOG_CAP + 5 {
            log.observe(&format!("q{i}"), 2_000 + i as u64);
        }
        assert_eq!(log.len(), SLOWLOG_CAP);
        let entries = log.entries();
        assert_eq!(entries[0].template, format!("q{}", SLOWLOG_CAP + 4), "newest kept");
        assert_eq!(entries.last().unwrap().template, "q5", "oldest evicted");
    }

    #[test]
    fn prometheus_scrape_never_tears_a_write_group() {
        // As `stats::tests::snapshot_never_tears_a_write_group`, through the
        // scrape body: pruned ≤ scanned holds at every group boundary.
        let (stats, cache) = (ServerStats::new(), PlanCache::default());
        let sample = |body: &str, name: &str| -> u64 {
            let line =
                body.lines().find(|l| l.strip_prefix(name).is_some_and(|v| v.starts_with(' ')));
            line.and_then(|l| l.rsplit_once(' ')).unwrap().1.parse().unwrap()
        };
        /// Stops the writer when the scrapes end, panicking or not.
        struct Stop<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                // Until the scrapes are done, so every scrape races a writer.
                while !done.load(Ordering::Relaxed) {
                    let _g = stats.group.begin_write();
                    stats.segments_pruned.fetch_add(1, Ordering::Relaxed);
                    stats.segments_scanned.fetch_add(1, Ordering::Relaxed);
                }
            });
            let _stop = Stop(&done);
            for _ in 0..500 {
                let body = render_prometheus(&Sources::new(&stats, &cache));
                let scanned = sample(&body, "astore_server_segments_scanned_total");
                let pruned = sample(&body, "astore_server_segments_pruned_total");
                assert!(pruned <= scanned, "torn scrape: pruned={pruned} scanned={scanned}");
            }
        });
    }

    #[test]
    fn prometheus_families_are_pinned() {
        use astore_storage::catalog::Database;
        use astore_storage::snapshot::SharedDatabase;
        let e = crate::Engine::new(SharedDatabase::new(Database::new()));
        let r = e.handle_line(r#"{"cmd":"metrics"}"#);
        let body = r.get("metrics").and_then(Json::as_str).unwrap().to_owned();
        let mut families: Vec<(String, String, String)> = Vec::new();
        let mut lines = body.lines();
        while let Some(line) = lines.next() {
            let Some(rest) = line.strip_prefix("# HELP ") else { continue };
            let (name, help) = rest.split_once(' ').unwrap();
            let kind = lines.next().unwrap().strip_prefix(&format!("# TYPE {name} ")).unwrap();
            families.push((name.into(), kind.into(), help.into()));
        }
        families.sort();
        let expected: Vec<(String, String, String)> = PINNED_FAMILIES
            .iter()
            .map(|(n, k, h)| (n.to_string(), k.to_string(), h.to_string()))
            .collect();
        assert_eq!(families, expected);
    }

    const PINNED_FAMILIES: &[(&str, &str, &str)] = &[
        ("astore_checkpoint_bytes_total", "counter", "Cumulative snapshot bytes written by checkpoints."),
        ("astore_checkpoint_us_total", "counter", "Cumulative checkpoint time, µs."),
        ("astore_obs_enabled", "gauge", "1 when the runtime tracing toggle is on."),
        ("astore_server_accepts_total", "counter", "Sockets accepted (admitted or refused)."),
        ("astore_server_append_copies", "gauge", "Column tail chunks copied by appends since boot."),
        ("astore_server_boot_replay_us", "gauge", "Boot: microseconds spent opening and replaying the WAL."),
        ("astore_server_boot_replayed", "gauge", "Boot: WAL records replayed on top of the snapshot."),
        ("astore_server_boot_snapshot_us", "gauge", "Boot: microseconds spent loading the snapshot (0 on a cold boot)."),
        ("astore_server_cached_plans", "gauge", "Templates in the plan cache."),
        ("astore_server_checkpoints_total", "counter", "Checkpoints taken."),
        ("astore_server_compactions_total", "counter", "Segments whose flat chunks the background compactor put back in encoded form."),
        ("astore_server_connections_rejected_total", "counter", "Connections refused at the limit."),
        ("astore_server_core_budget_in_use", "gauge", "Cores currently granted to statements."),
        ("astore_server_core_budget_total", "gauge", "Cores in the shared budget."),
        ("astore_server_dict_bytes", "gauge", "Heap bytes of the dictionaries (values and reverse index), by capacity."),
        ("astore_server_encoded_bytes", "gauge", "Resident bytes of the column chunks, each in the representation it is held in."),
        ("astore_server_engine_threads", "gauge", "Per-query fan-out ceiling."),
        ("astore_server_errors_total", "counter", "Requests answered with an error frame."),
        ("astore_server_execute_latency_us", "histogram", "Execute-stage latency of each SELECT (the AIR scan alone)."),
        ("astore_server_flat_bytes", "gauge", "Bytes of the visible rows of the chunks held flat."),
        ("astore_server_flat_chunks", "gauge", "Column chunks currently held flat."),
        ("astore_server_group_commits_total", "counter", "Group-commit batches published (one WAL fsync each)."),
        ("astore_server_latency_us", "histogram", "End-to-end statement latency (all templates)."),
        ("astore_server_open_connections", "gauge", "Currently open connections."),
        ("astore_server_parallel_denied_total", "counter", "Queries that wanted to fan out but ran serial."),
        ("astore_server_parallel_queries_total", "counter", "Queries run by the morsel-parallel executor."),
        ("astore_server_pipeline_depth", "histogram", "Requests queued or in flight on a connection as each frame arrived (1 = no pipelining)."),
        ("astore_server_plan_cache_hits_total", "counter", "Plan-cache hits."),
        ("astore_server_plan_cache_misses_total", "counter", "Plan-cache misses."),
        ("astore_server_prepared_execs_total", "counter", "Prepared executions (protocol v2)."),
        ("astore_server_prepares_total", "counter", "Statements prepared (protocol v2)."),
        ("astore_server_queries_total", "counter", "Read queries served."),
        ("astore_server_queue_wait_us", "histogram", "Time from a frame being read to its execution starting, per priority class."),
        ("astore_server_queued_frames_total", "counter", "Frames that waited in a class queue instead of running on the thread that read them."),
        ("astore_server_raw_bytes", "gauge", "Bytes the same chunks would occupy flat."),
        ("astore_server_reads_blocked_on_backpressure_total", "counter", "Connection reads paused by the write-buffer high watermark."),
        ("astore_server_rejected_total", "counter", "Requests shed by admission control."),
        ("astore_server_reply_bytes", "histogram", "Reply frame size per priority class, newline included (reactor model)."),
        ("astore_server_scan_helper_wakes_total", "counter", "Scan workers handed to resident helper threads (one per extra worker per statement)."),
        ("astore_server_scan_helpers", "gauge", "Resident scan helper threads (the most extra workers ever wanted at once)."),
        ("astore_server_segments_pruned_total", "counter", "Fact-table segments skipped by zone maps."),
        ("astore_server_segments_scanned_total", "counter", "Fact-table segments scanned."),
        ("astore_server_serialize_us", "histogram", "Time to serialise a reply frame per priority class (reactor model)."),
        ("astore_server_slowlog_entries", "gauge", "Entries in the slow-query ring."),
        ("astore_server_str_heap_bytes", "gauge", "Heap bytes of the string columns' heaps, by capacity."),
        ("astore_server_template_latency_us", "histogram", "Statement latency per canonical template."),
        ("astore_server_wal_records_total", "counter", "Write statements appended to the WAL."),
        ("astore_server_writes_total", "counter", "Write statements applied."),
        ("astore_wal_append_us_total", "counter", "Cumulative WAL append time, µs — frame build + write + fsync."),
        ("astore_wal_fsync_us_total", "counter", "Cumulative WAL fsync time, µs (the durability wait inside appends)."),
    ];

    #[test]
    fn prometheus_body_is_well_formed() {
        let stats = ServerStats::new();
        stats.queries.fetch_add(3, Ordering::Relaxed);
        stats.latency.record(150);
        let cache = PlanCache::default();
        let templates = TemplateStats::new();
        templates.record("SELECT count(*) FROM fact", 150);
        templates.record("SELECT sum(x) FROM fact", 9_000);
        let slowlog = SlowLog::new(0);
        let budget = crate::CoreBudget::new(4);
        let engine = EngineSources {
            templates: &templates,
            slowlog: &slowlog,
            budget: &budget,
            threads: 4,
            db_version: 0,
        };
        let body =
            render_prometheus(&Sources { engine: Some(engine), ..Sources::new(&stats, &cache) });
        assert!(body.contains("astore_server_queries_total 3\n"));
        assert!(body.contains("# TYPE astore_server_latency_us histogram\n"));
        assert!(body.contains("astore_server_latency_us_count 1\n"));
        assert!(body.contains(r#"astore_server_latency_us_bucket{le="+Inf"} 1"#));
        assert!(body
            .contains(r#"astore_server_template_latency_us_bucket{template="SELECT count(*) FROM fact",le="+Inf"} 1"#));
        assert!(body.contains("astore_server_engine_threads 4\n"));
        assert!(!body.contains("astore_server_router_decisions_total"), "{body}");
        assert!(body.contains("# TYPE astore_server_scan_helpers gauge\n"));
        assert!(body.contains("# TYPE astore_server_scan_helper_wakes_total counter\n"));
        assert!(body.contains(r#"astore_server_reply_bytes_count{class="scan"} 0"#));
        assert!(body.contains(r#"astore_server_serialize_us_bucket{class="metadata",le="+Inf"} 0"#));
        assert!(body.contains(r#"astore_server_execute_latency_us_bucket{le="+Inf"} 0"#));
        assert!(!body.contains("engine_latency"), "{body}");
        assert!(body
            .contains(r#"astore_server_template_latency_us_bucket{template="SELECT sum(x) FROM fact",le="+Inf"} 1"#));
        // One HELP/TYPE header per family, no matter how many labeled
        // series it has — Prometheus rejects a repeated header.
        for header in ["# HELP", "# TYPE"] {
            let mut names: Vec<&str> = body
                .lines()
                .filter(|l| l.starts_with(header))
                .map(|l| l.split_whitespace().nth(2).unwrap())
                .collect();
            let total = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), total, "duplicate {header} lines in scrape body");
        }
        // Every line is a comment or `name{labels} value`.
        for line in body.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(m, v)| !m.is_empty() && v.parse::<f64>().is_ok()),
                "bad exposition line: {line}"
            );
        }
    }
}
