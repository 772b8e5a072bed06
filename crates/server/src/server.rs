//! The TCP serving layer, in two interchangeable io models:
//!
//! **Reactor (default).** One event-loop thread owns every socket via the
//! [`astore_net`] epoll/kqueue reactor: nonblocking accepts, incremental
//! frame parsing, request pipelining, and write-buffer backpressure. Each
//! complete frame is parsed and classified on the reactor thread, then
//! executed on the strict-priority [`PriorityPool`] — interactive point
//! lookups and metadata commands jump ahead of long scans. Idle
//! connections cost no threads, so the model holds 10K+ of them.
//!
//! **Threads (`IoModel::Threads`).** The previous model — one lightweight
//! I/O thread per connection feeding the bounded [`WorkerPool`] — kept for
//! one release as the differential oracle: both models answer the same
//! request stream with byte-identical frames.
//!
//! Either way, admission control is a bounded queue: when it is full the
//! server answers immediately with a `server_busy` error frame instead of
//! stalling — it sheds load, it never builds an unbounded backlog.

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use astore_net::{Reactor, ReactorConfig, ReactorStop};

use crate::engine::{error_frame, Engine, ErrorCode};
use crate::front::EngineService;
use crate::json::Json;
use crate::pool::{RejectReason, WorkerPool};
use crate::sched::PriorityPool;
use crate::session::StatementRegistry;
use std::sync::Mutex;

/// Maximum accepted request-line length (1 MiB); longer lines are answered
/// with `bad_request` and the connection is closed.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Which connection-handling model serves the listener.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// Event-driven: an epoll/kqueue reactor owns all sockets and a
    /// priority executor pool runs the statements (default).
    Reactor,
    /// One I/O thread per connection over the bounded worker pool — the
    /// differential oracle for the reactor.
    Threads,
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reactor" => Ok(IoModel::Reactor),
            "threads" => Ok(IoModel::Threads),
            other => Err(format!("unknown io model {other:?} (try reactor or threads)")),
        }
    }
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:3939` (`…:0` picks a free port).
    pub addr: String,
    /// Worker threads executing statements.
    pub workers: usize,
    /// Bounded admission-queue depth in statements (per priority class
    /// under the reactor model).
    pub queue_depth: usize,
    /// Maximum concurrently open connections.
    pub max_connections: usize,
    /// Connection-handling model.
    pub io_model: IoModel,
    /// Reactor only: write backlog (bytes) at which reading from a
    /// connection pauses.
    pub high_watermark: usize,
    /// Reactor only: write backlog at which a paused connection resumes.
    pub low_watermark: usize,
    /// Reactor only: close a connection whose *partial* frame has stalled
    /// this long (slow-loris defence; 0 disables). Fully idle connections
    /// are never reaped.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        ServerConfig {
            addr: "127.0.0.1:3939".into(),
            workers,
            queue_depth: workers * 4,
            max_connections: 256,
            io_model: IoModel::Reactor,
            high_watermark: 256 * 1024,
            low_watermark: 64 * 1024,
            idle_timeout_ms: 30_000,
        }
    }
}

/// A handle to a running server. Dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the serving threads and drains the
/// executor pool.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept-loop thread (threads model) or the reactor thread.
    accept: Option<JoinHandle<()>>,
    compactor: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
    reactor_stop: Option<ReactorStop>,
    /// Held so the executor pool outlives the reactor; the last Arc drop
    /// (after the reactor joined) drains and joins the workers.
    exec_pool: Option<Arc<PriorityPool>>,
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

    /// Blocks until the accept loop exits (i.e. until another thread calls
    /// [`ServerHandle::shutdown`] via a clone-free path — typically never,
    /// for a foreground server process).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stops accepting, unblocks the accept loop, and joins it. Connection
    /// threads notice the flag at their next read timeout and exit.
    pub fn shutdown(mut self) {
        self.stop_accept();
    }

    fn stop_accept(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        match self.reactor_stop.take() {
            // Reactor model: wake the event loop; it closes every
            // connection (running their session teardown) and exits.
            Some(stop) => stop.stop(),
            // Threads model: unblock the blocking accept with a throwaway
            // connection.
            None => {
                let _ = TcpStream::connect(self.addr);
            }
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // With the reactor joined, this is the last pool reference: the
        // drop drains queued statements and joins the executor workers.
        self.exec_pool.take();
        if let Some(h) = self.compactor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || self.compactor.is_some() {
            self.stop_accept();
        }
    }
}

/// Binds the listener and starts serving `engine` in background threads
/// using the configured [`IoModel`].
pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (accept, reactor_stop, exec_pool) = match config.io_model {
        IoModel::Reactor => {
            // Share the engine's core budget with the executor: when every
            // core is granted to running statements, the pool briefly defers
            // scan-class dispatch instead of piling more scans on.
            let pool = Arc::new(PriorityPool::with_budget(
                config.workers,
                config.queue_depth,
                engine.budget_handle(),
            ));
            let service =
                EngineService::new(Arc::clone(&engine), Arc::clone(&pool), config.max_connections);
            let reactor_config = ReactorConfig {
                max_connections: config.max_connections,
                max_frame_bytes: MAX_LINE_BYTES,
                high_watermark: config.high_watermark,
                low_watermark: config.low_watermark.min(config.high_watermark),
                idle_timeout: (config.idle_timeout_ms > 0)
                    .then(|| Duration::from_millis(config.idle_timeout_ms)),
            };
            let reactor = Reactor::new(listener, service, reactor_config)?;
            let reactor_stop = reactor.stop_handle();
            let accept = std::thread::Builder::new()
                .name("astore-reactor".into())
                .spawn(move || {
                    let _ = reactor.run();
                })
                .expect("failed to spawn reactor thread");
            (accept, Some(reactor_stop), Some(pool))
        }
        IoModel::Threads => {
            let pool = Arc::new(WorkerPool::new(config.workers, config.queue_depth));
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let accept = std::thread::Builder::new()
                .name("astore-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &engine, &pool, &stop, config.max_connections)
                })
                .expect("failed to spawn accept thread");
            (accept, None, None)
        }
    };
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
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
        compactor,
        engine,
        reactor_stop,
        exec_pool,
    })
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

fn accept_loop(
    listener: &TcpListener,
    engine: &Arc<Engine>,
    pool: &Arc<WorkerPool>,
    stop: &Arc<AtomicBool>,
    max_connections: usize,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            // Transient accept errors (EMFILE, ECONNABORTED) would otherwise
            // busy-spin the loop at 100% CPU; back off briefly.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let stats = engine.stats();
        stats.accepts_total.fetch_add(1, Ordering::Relaxed);
        if stats.active_connections.load(Ordering::Relaxed) >= max_connections {
            stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
            let mut w = BufWriter::new(&stream);
            let frame = error_frame(
                ErrorCode::TooManyConnections,
                format!("connection limit ({max_connections}) reached"),
            );
            let _ = w.write_all(&frame.frame());
            let _ = w.flush();
            continue; // stream drops → closed
        }
        stats.active_connections.fetch_add(1, Ordering::Relaxed);
        let conn_engine = Arc::clone(engine);
        let pool = Arc::clone(pool);
        let stop = Arc::clone(stop);
        // The connection thread gives the slot back itself (`ConnectionSlot`).
        let spawned = std::thread::Builder::new()
            .name("astore-conn".into())
            .spawn(move || serve_connection(stream, &conn_engine, &pool, &stop));
        if spawned.is_err() {
            // Thread exhaustion: give the slot back or the counter leaks
            // and the server eventually rejects everything while idle.
            stats.active_connections.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Reads newline-delimited request frames and answers each on the same
/// stream. Statement execution happens on the worker pool; this thread only
/// parses frames and shuttles bytes.
///
/// Framing is done on raw bytes: UTF-8 is only decoded once a full frame
/// (up to `\n`) is buffered, so a read stall in the middle of a multi-byte
/// character cannot corrupt the frame, and the buffer is bounds-checked
/// *before* every read, so a client streaming a newline-free line cannot
/// grow memory past [`MAX_LINE_BYTES`].
fn serve_connection(
    mut stream: TcpStream,
    engine: &Arc<Engine>,
    pool: &WorkerPool,
    stop: &AtomicBool,
) {
    // The connection's prepared-statement registry. Statements run on pool
    // workers one at a time per connection, so the mutex is uncontended —
    // it only carries the registry across worker threads. Declared before
    // the gauge slot so that it is dropped *after* it: whoever observes the
    // registry gone also observes the connection gone from the gauge.
    let session = Arc::new(Mutex::new(StatementRegistry::default()));
    let _slot = ConnectionSlot(engine);
    // A short read timeout doubles as the shutdown poll interval.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = BufWriter::new(write_half);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        // Answer every complete frame currently buffered.
        while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
            let frame: Vec<u8> = buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&frame);
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let response = execute_on_pool(engine, pool, trimmed, &session);
            if writer.write_all(&response.frame()).is_err() || writer.flush().is_err() {
                return;
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            let frame = error_frame(ErrorCode::BadRequest, "request exceeds 1 MiB");
            let _ = writer.write_all(&frame.frame());
            let _ = writer.flush();
            return; // close: the rest of the oversized line is unreadable
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Returns a connection's slot in the `active_connections` gauge (taken by
/// the accept loop) when the connection thread is done, on every exit path.
struct ConnectionSlot<'a>(&'a Engine);

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.stats().active_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one request on the worker pool, translating admission-control
/// rejections and worker panics into typed error frames.
fn execute_on_pool(
    engine: &Arc<Engine>,
    pool: &WorkerPool,
    request: &str,
    session: &Arc<Mutex<StatementRegistry>>,
) -> Json {
    let (tx, rx) = channel();
    let job_engine = Arc::clone(engine);
    let job_line = request.to_owned();
    let job_session = Arc::clone(session);
    let submitted = pool.try_execute(Box::new(move || {
        let mut reg = job_session.lock().unwrap_or_else(|p| p.into_inner());
        let _ = tx.send(job_engine.handle_line_session(&job_line, &mut reg));
    }));
    match submitted {
        Ok(()) => rx.recv().unwrap_or_else(|_| {
            // The worker panicked before sending (contained by the pool).
            error_frame(ErrorCode::InternalError, "statement execution panicked")
        }),
        Err(rejected) => {
            engine.stats().rejected.fetch_add(1, Ordering::Relaxed);
            let message = match rejected.reason {
                RejectReason::QueueFull => {
                    format!("admission queue full ({} workers busy)", pool.workers())
                }
                RejectReason::ShuttingDown => "server is shutting down".to_owned(),
            };
            error_frame(ErrorCode::ServerBusy, message)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
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
        // The largest legal frame is decoded on the reactor thread, which
        // serves every connection: its cost must be milliseconds. (The
        // codec this one replaced took 14 s for it in release.)
        // Two workers whatever the host: this is about the reactor thread,
        // not about a ping queueing behind A's statement on a 1-core box.
        let h = start_tiny(ServerConfig { workers: 2, ..ServerConfig::default() });
        let ping = Json::obj([("cmd", Json::Str("ping".into()))]);
        let mut a = Client::connect(h.addr()).unwrap();
        let mut b = Client::connect(h.addr()).unwrap();
        b.request(&ping).unwrap(); // connected and warm before the clock starts
        let big = Json::obj([("sql", Json::Str("a".repeat(MAX_LINE_BYTES - 16)))]);
        // B pings for as long as A's frame is in the server — from its first
        // byte on the wire to its reply — so some ping is in flight while
        // the reactor decodes the frame, whenever that is.
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

    #[test]
    fn bad_requests_get_error_frames_and_connection_survives() {
        let h = start_tiny(ServerConfig::default());
        let mut c = Client::connect(h.addr()).unwrap();
        let r = c.raw_line("not json").unwrap();
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        // Nesting is bounded by a counter: 200 KB of '[' used to recurse
        // through the reactor thread's stack and abort the process.
        let r = c.raw_line(&"[".repeat(200_000)).unwrap();
        assert_eq!(r.get("code").unwrap().as_str(), Some("bad_request"));
        assert!(r.get("error").unwrap().as_str().unwrap().contains("nesting too deep"), "{r:?}");
        let r = c.sql("SELECT count(*) AS n FROM t").unwrap();
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        h.shutdown();
    }
}
