//! The TCP serving layer. `--workers` serving threads share one
//! [`astore_net`] epoll instance: the thread a connection's readiness
//! reaches reads the frame, parses and classifies it, runs it through the
//! engine and writes the reply itself — no thread hands a frame or a reply
//! to another. Nonblocking accepts, incremental framing, request pipelining
//! and write-buffer backpressure live in the reactor; idle connections
//! cost no threads, so the model holds 10K+ of them.
//!
//! Under contention a frame waits in the strict-priority class queues
//! ([`crate::sched`]): a scan while every core of the budget is granted, or
//! any frame behind a queued one of its class or a higher one. Admission
//! control is their bound: when a frame's queue is full the server answers
//! at once with a `server_busy` error frame instead of stalling — it sheds
//! load, it never builds an unbounded backlog.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use astore_core::host_cores;
use astore_net::{Reactor, ReactorConfig, ReactorHandle};

use crate::engine::Engine;
use crate::front::EngineService;

/// Maximum accepted request-line length (1 MiB); longer lines are answered
/// with `bad_request` and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:3939` (`…:0` picks a free port).
    pub addr: String,
    /// Serving threads: each reads, runs and answers frames.
    pub workers: usize,
    /// Bounded admission-queue depth in frames, per priority class.
    pub queue_depth: usize,
    /// Maximum concurrently open connections.
    pub max_connections: usize,
    /// Write backlog (bytes) at which reading from a connection pauses.
    pub high_watermark: usize,
    /// Write backlog at which a paused connection resumes.
    pub low_watermark: usize,
    /// Close a connection whose *partial* frame has stalled
    /// this long (slow-loris defence; 0 disables). Fully idle connections
    /// are never reaped.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = host_cores();
        ServerConfig {
            addr: "127.0.0.1:3939".into(),
            workers,
            queue_depth: workers * 4,
            max_connections: 256,
            high_watermark: 256 * 1024,
            low_watermark: 64 * 1024,
            idle_timeout_ms: 30_000,
        }
    }
}

/// A handle to a running server. Dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the serving and maintenance threads.
pub struct ServerHandle {
    addr: SocketAddr,
    /// Stops the maintenance thread.
    stop: Arc<AtomicBool>,
    /// The serving threads.
    workers: Vec<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
    reactor: ReactorHandle,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine serving this listener.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Blocks until the serving threads exit (i.e. until another thread
    /// calls [`ServerHandle::shutdown`] via a clone-free path — typically
    /// never, for a foreground server process).
    pub fn join(mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Stops the serving threads — the last one out closes every
    /// connection, running their session teardown — and the maintenance
    /// thread, and joins them.
    pub fn shutdown(mut self) {
        self.stop_serving();
    }

    fn stop_serving(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.reactor.stop();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.workers.is_empty() || self.compactor.is_some() {
            self.stop_serving();
        }
    }
}

/// Binds the listener and starts serving `engine` in background threads.
pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let service = EngineService::new(
        Arc::clone(&engine),
        config.workers,
        config.queue_depth,
        config.max_connections,
    );
    let reactor_config = ReactorConfig {
        max_connections: config.max_connections,
        max_frame_bytes: MAX_LINE_BYTES,
        high_watermark: config.high_watermark,
        low_watermark: config.low_watermark.min(config.high_watermark),
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
    };
    let reactor = Reactor::new(listener, service, reactor_config)?;
    let handle = reactor.handle();
    // A scan the budget gate holds back runs as soon as a core frees: the
    // release wakes a serving thread to take it.
    let wake = handle.clone();
    engine.budget().on_release(move || wake.wake());
    let workers = reactor.spawn(config.workers, "astore-worker");
    // Background maintenance: due auto-checkpoints, and compaction — put
    // the chunks writes decoded back in encoded form once their segment
    // has gone quiet, so a write-heavy phase does not slowly grow the
    // resident table back to its flat size. Best-effort — after a spawn
    // failure segments re-encode at the next explicit checkpoint.
    let compactor = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("astore-compact".into())
            .spawn(move || compactor_loop(&engine, &stop))
            .ok()
    };
    Ok(ServerHandle { addr, stop, workers, compactor, engine, reactor: handle })
}

/// The maintenance thread: runs the auto-checkpoint the write path noted as
/// due (so no client's acknowledgement waits for a fold), then polls for
/// written segments that have gone quiet and re-encodes their flat chunks
/// ([`Engine::run_compaction_pass`]). Backs off to a
/// longer sleep when a pass finds nothing; every sleep is short enough that
/// shutdown is prompt (a checkpoint in flight finishes first).
fn compactor_loop(engine: &Arc<Engine>, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        let installed = engine.run_maintenance();
        let nap =
            if installed > 0 { Duration::from_millis(10) } else { Duration::from_millis(100) };
        std::thread::sleep(nap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;
    use astore_storage::catalog::Database;
    use astore_storage::snapshot::SharedDatabase;
    use astore_storage::table::{ColumnDef, Schema, Table};
    use astore_storage::types::{DataType, Value};

    fn tiny_engine() -> Arc<Engine> {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        for i in 0..10 {
            t.append_row(&[Value::Int(i)]);
        }
        let mut db = Database::new();
        db.add_table(t);
        Arc::new(Engine::new(SharedDatabase::new(db)))
    }

    fn start_tiny(config: ServerConfig) -> ServerHandle {
        start(tiny_engine(), ServerConfig { addr: "127.0.0.1:0".into(), ..config }).unwrap()
    }

    #[test]
    fn serves_queries_over_tcp() {
        let h = start_tiny(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        let r = c.sql("SELECT sum(v) AS s FROM t").unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let rows = r.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_i64(), Some(45));
        let r = c.request(&Json::obj([("cmd", Json::Str("ping".into()))])).unwrap();
        assert_eq!(r.get("pong").unwrap().as_bool(), Some(true));
        h.shutdown();
    }

    #[test]
    fn maintenance_thread_runs_the_auto_checkpoint_a_write_noted() {
        use crate::engine::Durability;
        let dir = std::env::temp_dir().join(format!("astore-serve-auto-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = tiny_engine().database().snapshot().as_ref().clone();
        let wal = astore_persist::store::bootstrap(&dir, &seed).unwrap();
        let engine =
            Arc::new(Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 2)));
        let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
        let h = start(engine, config).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        for _ in 0..2 {
            let r = c.sql("INSERT INTO t VALUES (7)").unwrap();
            assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        }
        // The second write crossed `checkpoint_every` and is acknowledged;
        // the maintenance thread picks the fold up within its poll interval.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while h.engine().stats().checkpoints.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "no auto-checkpoint within 10 s");
            std::thread::sleep(Duration::from_millis(10));
        }
        h.shutdown();
        let rec = astore_persist::store::open(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "both writes were folded into the snapshot");
        assert_eq!(rec.db.table("t").unwrap().num_live(), 12);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_concurrent_connections() {
        // Queue must hold all 8 in-flight statements even on a 1-core box,
        // where the default (4 × workers) would trigger admission control.
        let h = start_tiny(ServerConfig { queue_depth: 64, ..ServerConfig::default() });
        let addr = h.addr();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..20 {
                        let r = c.sql("SELECT count(*) AS n FROM t").unwrap();
                        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
                    }
                });
            }
        });
        let stats = h.engine().stats();
        assert!(stats.queries.load(Ordering::Relaxed) >= 160);
        h.shutdown();
    }

    #[test]
    fn connection_limit_rejects_with_typed_frame() {
        let h = start_tiny(ServerConfig { max_connections: 1, ..ServerConfig::default() });
        let mut keep = Client::connect(h.addr()).unwrap();
        // Make sure the first connection is registered before the second.
        keep.sql("SELECT count(*) AS n FROM t").unwrap();
        let mut second = Client::connect(h.addr()).unwrap();
        let r = second.read_frame().unwrap();
        assert_eq!(r.get("code").unwrap().as_str(), Some("too_many_connections"), "{r:?}");
        drop(second);
        keep.sql("SELECT count(*) AS n FROM t").unwrap();
        h.shutdown();
    }

    #[test]
    fn a_megabyte_frame_does_not_stall_other_connections() {
        // The largest legal frame is decoded on a serving thread: its cost
        // must be milliseconds. (The codec this one replaced took 14 s for
        // it in release.) Two workers whatever the host, so that B's pings
        // have a thread while A's frame is decoded.
        let h = start_tiny(ServerConfig { workers: 2, ..ServerConfig::default() });
        let ping = Json::obj([("cmd", Json::Str("ping".into()))]);
        let mut a = Client::connect(h.addr()).unwrap();
        let mut b = Client::connect(h.addr()).unwrap();
        b.request(&ping).unwrap(); // connected and warm before the clock starts
        let big = Json::obj([("sql", Json::Str("a".repeat(MAX_LINE_BYTES - 16)))]);
        // B pings for as long as A's frame is in the server — from its first
        // byte on the wire to its reply — so some ping is in flight while
        // a serving thread decodes the frame, whenever that is.
        let answered = AtomicBool::new(false);
        let (reply, slowest) = std::thread::scope(|s| {
            let a_thread = s.spawn(|| {
                let reply = a.request(&big);
                answered.store(true, Ordering::SeqCst);
                reply
            });
            let mut slowest = Duration::ZERO;
            while !answered.load(Ordering::SeqCst) {
                let t = std::time::Instant::now();
                let pong = b.request(&ping).unwrap();
                slowest = slowest.max(t.elapsed());
                assert_eq!(pong.get("pong").unwrap().as_bool(), Some(true));
            }
            (a_thread.join().unwrap().unwrap(), slowest)
        });
        assert!(slowest < Duration::from_secs(1), "a ping waited {slowest:?} behind a 1 MiB frame");
        assert_eq!(reply.get("code").unwrap().as_str(), Some("parse_error"), "{reply:?}");
        h.shutdown();
    }

    /// `queue_wait` runs from the read: about 0 for a frame its reading
    /// thread runs, the whole hold-up for one the scan gate queued — which
    /// the release of the last permit then starts.
    #[test]
    fn queue_wait_runs_from_the_read() {
        let db = tiny_engine().database().snapshot().as_ref().clone();
        let engine = Arc::new(Engine::new(SharedDatabase::new(db)).core_budget(1));
        let h = start(engine, ServerConfig { addr: "127.0.0.1:0".into(), ..Default::default() })
            .unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        let r = c.sql("SELECT count(*) AS n FROM t").unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        let stats = h.engine().stats();
        assert_eq!(stats.queued_frames.load(Ordering::Relaxed), 0, "ran on its reading thread");
        assert!(stats.queue_wait[2].max_us() < 100_000, "{}", stats.queue_wait[2].max_us());

        let held = Duration::from_millis(20);
        let permit = h.engine().budget().enter_statement(); // every core granted
        c.send(&Json::obj([("sql", Json::Str("SELECT count(*) AS n FROM t".into()))])).unwrap();
        c.flush().unwrap();
        std::thread::sleep(held);
        drop(permit);
        let r = c.read_frame().unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r:?}");
        assert_eq!(stats.queued_frames.load(Ordering::Relaxed), 1, "the gate queued it");
        // Less whatever the read itself took after the send.
        let waited = stats.queue_wait[2].max_us();
        assert!(waited >= held.as_micros() as u64 * 3 / 4, "queue wait {waited} us");
        h.shutdown();
    }

    /// The EXPLAIN prefix is read by the SQL lexer, so a comment before it
    /// still gets the plan.
    #[test]
    fn commented_explain_frame_answers_with_its_plan() {
        let h = start_tiny(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        let r = c.sql("-- c\nEXPLAIN SELECT count(*) AS n FROM t").unwrap();
        let lines = r.get("explain").and_then(Json::as_array).unwrap_or_else(|| panic!("{r:?}"));
        assert_eq!(lines[0].as_str(), Some("engine: air"), "{r:?}");
        assert!(lines.iter().any(|l| l.as_str().is_some_and(|l| l.starts_with("selection:"))));
        h.shutdown();
    }

    #[test]
    fn bad_requests_get_error_frames_and_connection_survives() {
        let h = start_tiny(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        let r = c.raw_line("not json").unwrap();
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        // Nesting is bounded by a counter: 200 KB of '[' used to recurse
        // through the decoding thread's stack and abort the process.
        let r = c.raw_line(&"[".repeat(200_000)).unwrap();
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("nesting too deep"), "{r:?}");
        let r = c.sql("SELECT count(*) AS n FROM t").unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        h.shutdown();
    }
}
