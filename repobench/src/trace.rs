//! Spans recorded by the benchmark itself, around its calls into each
//! layer: name, start, end, and the span that caused it. Spans of one
//! request share an operation number. They are held in memory and written
//! out when the run ends; a span's self time is its duration minus the
//! part of that interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use astore_server::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Operation sequence number shared by the spans of one request.
    pub op: u64,
    /// `layer.what`, e.g. `net.roundtrip`.
    pub name: &'static str,
    /// Nanoseconds since the run's trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's trace epoch.
    pub end_ns: u64,
}

/// A per-thread span recorder. Ids are `lane << 32 | index`, so recorders
/// of different threads can be merged without renumbering.
pub struct SpanLog {
    epoch: Instant,
    lane: u64,
    cap: usize,
    spans: Vec<Span>,
    /// Spans not kept because the recorder was full.
    pub dropped: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl SpanLog {
    /// A recorder for thread `lane` keeping at most `cap` spans.
    pub fn new(epoch: Instant, lane: u64, cap: usize) -> Self {
        SpanLog { epoch, lane, cap, spans: Vec::new(), dropped: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Open, op: u64) -> Open {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.lane << 32 | self.spans.len() as u64;
        let parent = parent.0.map(|i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op, name, start_ns, end_ns: start_ns });
        Open(Some(self.spans.len() - 1))
    }

    /// A handle meaning "no parent".
    pub fn root() -> Open {
        Open(None)
    }

    /// Closes a span opened by [`SpanLog::open`].
    pub fn close(&mut self, span: Open) {
        if let Some(i) = span.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(
        &mut self,
        name: &'static str,
        parent: Open,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, parent, op);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by id: duration minus the union of the
/// intervals its direct children cover (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += selfs[&s.id];
    }
    out
}

/// Writes the span file: run identity, the stats-frame counters taken at
/// the same boundaries, the per-name summary and every span.
pub fn write_file(
    path: &Path,
    workload: &str,
    seed: u64,
    counters: &Json,
    spans: &[Span],
    dropped: u64,
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{seed},\"spans_dropped\":{dropped},\"counters\":{counters},\
         \"summary\":{{",
        Json::Str(workload.to_owned())
    );
    for (i, (name, (count, total, own))) in summarize(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i > 0 { ",\n" } else { "" };
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, op: 0, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(1, None, "request", 0, 100),
            // Overlapping children cover 10..60 once, not twice.
            span(2, Some(1), "net.roundtrip", 10, 50),
            span(3, Some(1), "client.check", 40, 60),
            // A child leaking past its parent is clipped to it.
            span(4, Some(1), "client.late", 90, 130),
            span(5, Some(2), "server.elapsed", 15, 45),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10);
        assert_eq!(selfs[&2], 40 - 30);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 30);
        let summary = summarize(&spans);
        assert_eq!(summary["request"], (1, 100, 40));
        assert_eq!(summary["net.roundtrip"], (1, 40, 10));
    }

    #[test]
    fn recorder_links_parents_caps_and_writes_well_formed_json() {
        let mut log = SpanLog::new(Instant::now(), 2, 3);
        let root = log.open("request", SpanLog::root(), 7);
        let got = log.within("net.roundtrip", root, 7, || 5);
        assert_eq!(got, 5);
        log.close(root);
        log.within("request", SpanLog::root(), 8, || ());
        log.within("request", SpanLog::root(), 9, || ());
        assert_eq!(log.dropped, 1);
        let dropped = log.dropped;
        let spans = log.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, 2 << 32);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let path =
            std::env::temp_dir().join(format!("repobench-trace-{}.json", std::process::id()));
        let counters = Json::obj([("queries", Json::Int(3))]);
        write_file(&path, "ssb-sweep", 1, &counters, &spans, dropped).unwrap();
        let doc = astore_server::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(doc.get("spans").and_then(Json::as_array).map(<[Json]>::len), Some(3));
        assert_eq!(doc.get("spans_dropped").and_then(Json::as_i64), Some(1));
        assert!(doc.get("summary").and_then(|s| s.get("net.roundtrip")).is_some());
    }
}
