//! The protocol front-end: the [`astore_net::Service`] the serving threads
//! hand each complete frame to.
//!
//! The thread that owns a frame's connection decodes and trims it, parses
//! the JSON once and classifies it. Unless the frame must wait in its
//! class's queue ([`ClassQueues`]), the same thread runs it through the
//! engine's statement path ([`Engine::handle_request`]) and serialises the
//! reply. The reply bytes for a recorded request log are pinned by
//! `testdata/recorded-log-replies.jsonl`.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use astore_net::{ConnId, Queued, Service};
use astore_sql::lexer::tokens;
use astore_sql::opens_write;

use crate::engine::{error_frame, parse_set_engine, Engine, ErrorCode};
use crate::json::Json;
use crate::sched::{Admit, ClassQueues, Priority};
use crate::session::StatementRegistry;
use crate::stats::ServerStats;

/// Serialises a reply of `class` once, straight into the buffer the serving
/// thread writes to the socket ([`Json::frame`]), and records what that
/// cost: the `serialise` stage of the request, which `elapsed_us` inside
/// the frame cannot cover.
fn frame_bytes(frame: &Json, stats: &ServerStats, class: Priority) -> Vec<u8> {
    let t = Instant::now();
    let bytes = frame.frame();
    stats.serialize_us[class as usize].record(t.elapsed().as_micros() as u64);
    stats.reply_bytes[class as usize].record(bytes.len() as u64);
    bytes
}

/// Decides which class a parsed request belongs to.
///
/// - metadata: `cmd` / `prepare` / `close` frames and malformed requests,
///   SQL text with no statement included — cheap protocol work that should
///   never sit behind a queued scan;
/// - interactive: writes, text or prepared — short statements a user is
///   waiting on;
/// - scan: every SELECT.
///
/// For `execute` frames the session registry says whether the prepared
/// statement is a write.
fn classify(req: &Json, registry: &StatementRegistry) -> Priority {
    if let Some(sql) = req.get("sql").and_then(Json::as_str) {
        return classify_sql(sql);
    }
    if let Some(ex) = req.get("execute") {
        return match ex
            .get("id")
            .and_then(Json::as_i64)
            .filter(|id| *id >= 0)
            .and_then(|id| registry.get(id as u64))
        {
            Some(stmt) if !stmt.prepared.is_select() => Priority::Interactive,
            Some(_) => Priority::Scan,
            None => Priority::Metadata, // unknown id: a fast typed error
        };
    }
    // prepare / close / cmd / unrecognized: protocol housekeeping.
    Priority::Metadata
}

/// Classes a text statement by the first token of the one SQL lexer: a
/// token that opens a write is interactive, any other a scan. A frame
/// with no statement — empty, all comment, or a first token that does not
/// lex — is a parse error, and `SET engine` a session knob: both are
/// answered without touching data, so both are metadata.
fn classify_sql(sql: &str) -> Priority {
    match tokens(sql).next() {
        Some(Ok(first)) if opens_write(&first.tok) => Priority::Interactive,
        Some(Ok(_)) if parse_set_engine(sql).is_none() => Priority::Scan,
        _ => Priority::Metadata,
    }
}

/// A parsed, classified request that waits in its class's queue.
pub struct Job {
    req: Json,
    class: Priority,
    /// When the frame was read: its queue wait runs from here.
    read_at: Instant,
}

/// The [`Service`] wiring the serving threads to the engine.
pub struct EngineService {
    engine: Arc<Engine>,
    queues: ClassQueues<(ConnId, Job)>,
    workers: usize,
    max_connections: usize,
}

impl EngineService {
    /// A front-end over `engine` for `workers` serving threads, queueing up
    /// to `queue_depth` frames per class and quoting `max_connections` in
    /// rejection frames.
    pub fn new(
        engine: Arc<Engine>,
        workers: usize,
        queue_depth: usize,
        max_connections: usize,
    ) -> Self {
        let queues = ClassQueues::new(queue_depth, engine.budget_handle());
        EngineService { engine, queues, workers, max_connections }
    }

    /// A frame the front-end answers itself, before any request was
    /// classified: counted with the metadata class, where [`classify`]
    /// puts malformed requests.
    fn protocol_frame(&self, frame: &Json) -> Vec<u8> {
        frame_bytes(frame, self.engine.stats(), Priority::Metadata)
    }
}

impl Service for EngineService {
    type Session = StatementRegistry;
    type Job = Job;

    fn open(&self) -> StatementRegistry {
        self.engine.stats().open_connections.fetch_add(1, Relaxed);
        StatementRegistry::default()
    }

    fn closed(&self, _session: &mut StatementRegistry) {
        self.engine.stats().open_connections.fetch_sub(1, Relaxed);
    }

    fn dispatch(
        &self,
        conn: ConnId,
        registry: &mut StatementRegistry,
        frame: Vec<u8>,
        read_at: Instant,
    ) -> Option<Vec<u8>> {
        // Lossy decode, trim, silently skip whitespace-only frames.
        let line = String::from_utf8_lossy(&frame);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Some(Vec::new());
        }
        let req = match crate::json::parse(trimmed) {
            Ok(req) => req,
            Err(e) => {
                self.engine.stats().errors.fetch_add(1, Relaxed);
                return Some(
                    self.protocol_frame(&error_frame(ErrorCode::BadRequest, e.to_string())),
                );
            }
        };
        let class = classify(&req, registry);
        match self.queues.admit(class, (conn, Job { req, class, read_at })) {
            Admit::Run((_, job)) => Some(self.run(registry, job)),
            Admit::Queued => {
                self.engine.stats().queued_frames.fetch_add(1, Relaxed);
                None
            }
            Admit::Full => {
                self.engine.stats().rejected.fetch_add(1, Relaxed);
                let busy = error_frame(
                    ErrorCode::ServerBusy,
                    format!("admission queue full ({} workers busy)", self.workers),
                );
                Some(frame_bytes(&busy, self.engine.stats(), class))
            }
        }
    }

    fn next_queued(&self) -> Queued<(ConnId, Job)> {
        self.queues.next()
    }

    fn run(&self, registry: &mut StatementRegistry, job: Job) -> Vec<u8> {
        let stats = self.engine.stats();
        stats.queue_wait[job.class as usize].record(job.read_at.elapsed().as_micros() as u64);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.engine.handle_request(&job.req, registry)
        }))
        .unwrap_or_else(|_| error_frame(ErrorCode::InternalError, "statement execution panicked"));
        frame_bytes(&out, stats, job.class)
    }

    fn reject_frame(&self) -> Vec<u8> {
        self.engine.stats().conn_rejected.fetch_add(1, Relaxed);
        self.protocol_frame(&error_frame(
            ErrorCode::TooManyConnections,
            format!("connection limit ({}) reached", self.max_connections),
        ))
    }

    fn oversize_frame(&self) -> Vec<u8> {
        self.protocol_frame(&error_frame(ErrorCode::BadRequest, "request exceeds 1 MiB"))
    }

    fn on_accept(&self) {
        self.engine.stats().accepts_total.fetch_add(1, Relaxed);
    }

    fn on_backpressure(&self) {
        self.engine.stats().reads_blocked_on_backpressure.fetch_add(1, Relaxed);
    }

    fn on_pipeline_depth(&self, depth: usize) {
        self.engine.stats().pipeline_depth.record(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_classification() {
        assert_eq!(classify_sql("SELECT sum(v) FROM t GROUP BY k"), Priority::Scan);
        assert_eq!(classify_sql("  select * from t"), Priority::Scan);
        assert_eq!(classify_sql("INSERT INTO t VALUES (1)"), Priority::Interactive);
        assert_eq!(classify_sql("update t SET v = 2 WHERE rowid = 3"), Priority::Interactive);
        assert_eq!(classify_sql("DELETE FROM t WHERE rowid = 3"), Priority::Interactive);
        // The SELECT grammar has no `rowid`: naming it is no point lookup.
        assert_eq!(classify_sql("SELECT v FROM t WHERE rowid = 17"), Priority::Scan);
        assert_eq!(classify_sql("SET engine = join"), Priority::Metadata);
        assert_eq!(classify_sql("  set engine=auto;"), Priority::Metadata);
        // The lexer skips comments, so a commented write is still a write.
        assert_eq!(classify_sql("-- note\nINSERT INTO t VALUES (1)"), Priority::Interactive);
        assert_eq!(
            classify_sql("\n  -- c\n update t set v = 1 where rowid = 0"),
            Priority::Interactive
        );
        assert_eq!(classify_sql("SELECT 1 -- insert"), Priority::Scan);
        // No statement: a parse error, answered without touching data.
        assert_eq!(classify_sql("'oops"), Priority::Metadata);
        assert_eq!(classify_sql("  -- nothing else"), Priority::Metadata);
    }

    #[test]
    fn frame_classification() {
        let registry = StatementRegistry::default();
        let cmd = Json::obj([("cmd", Json::Str("stats".into()))]);
        assert_eq!(classify(&cmd, &registry), Priority::Metadata);
        let prepare = Json::obj([("prepare", Json::Str("SELECT count(*) FROM t".into()))]);
        assert_eq!(classify(&prepare, &registry), Priority::Metadata);
        let close = Json::obj([("close", Json::Int(1))]);
        assert_eq!(classify(&close, &registry), Priority::Metadata);
        let scan = Json::obj([("sql", Json::Str("SELECT sum(v) FROM t".into()))]);
        assert_eq!(classify(&scan, &registry), Priority::Scan);
        // Executing an id that was never prepared is a fast typed error.
        let exec = Json::obj([(
            "execute",
            Json::obj([("id", Json::Int(42)), ("params", Json::Array(vec![]))]),
        )]);
        assert_eq!(classify(&exec, &registry), Priority::Metadata);
        let garbage = Json::obj([("frobnicate", Json::Int(1))]);
        assert_eq!(classify(&garbage, &registry), Priority::Metadata);
    }
}
