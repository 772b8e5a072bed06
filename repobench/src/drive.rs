//! The measured windows: client sessions that drive a live server over
//! TCP, time every operation from outside, and check every answer.
//!
//! A transport error ends the run (`Err`): the server is gone and nothing
//! after it would mean anything. An error frame, a `server_busy`, a wrong
//! answer or a write that did not affect exactly one row is a *failed
//! operation*: counted, reported on stderr, and the window goes on. Time
//! never fails an operation: a right answer that came late is a latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use astore_bench::replay::SSB_SQL;
use astore_datagen::ssb::SsbSizes;
use astore_server::json::Json;
use astore_server::Client;
use rand::rngs::SmallRng;

use crate::child::Server;
use crate::host::HostProbe;
use crate::ops::{
    next_serve_op, stream_rng, sweep_order, ServeOp, ShortUniverse, WriteGen, WriteMix,
    SHORT_TEMPLATES, SWEEP_QUERIES, WRITE_TEMPLATES,
};
use crate::trace::{Open, Span, SpanLog};

/// Spans kept per connection in a traced window; later ones are counted
/// as dropped so a 50 000-statement window does not write a 30 MB file.
const SPAN_CAP: usize = 20_000;
/// An open-loop write acknowledged later than this after its due time is
/// counted as overdue (`client.openloop_overdue`): the user it stands for
/// has given up. It is not a failed operation — on a shared host a stolen
/// core is enough to cause it, and the answer was still right.
pub const OPEN_LOOP_LIMIT: Duration = Duration::from_secs(1);
/// Failed operations described on stderr per run; the rest are only counted.
const FAILURES_SHOWN: usize = 10;

/// Writes acknowledged so far — everything the end-state check needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acked {
    /// Acknowledged `INSERT INTO lineorder`.
    pub inserts: i64,
    /// Sum of their `lo_quantity`.
    pub insert_quantity: i64,
    /// Acknowledged `DELETE FROM lineorder`.
    pub deletes: i64,
}

/// What one window measured, merged over its connections.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each primary operation, ms.
    pub op_ms: Vec<f64>,
    /// Wall time from window start until the last operation completed.
    pub elapsed_s: f64,
    /// Host-speed probe samples taken between the primary operations, ms.
    pub host_ms: Vec<f64>,
    /// Operations sent (primary and side).
    pub attempted: u64,
    /// Operations that failed (see the module comment).
    pub failed: u64,
    /// `htap-mix` writer: latency of each write from its due time, ms.
    pub side_write_ms: Vec<f64>,
    /// `htap-mix` writer: how late after its due time each write was sent, ms.
    pub late_ms: Vec<f64>,
    /// `htap-mix` writer: writes acknowledged more than [`OPEN_LOOP_LIMIT`]
    /// after they were due.
    pub overdue: u64,
    /// Routed statements, and how many of them ran on another engine than
    /// the one their template ran on most (`serve-mix` only).
    pub routed: u64,
    /// See `routed`.
    pub off_engine: u64,
    /// Client round trip minus the server's own `elapsed_us`, per
    /// statement, µs (`serve-mix` only).
    pub transport_us: Vec<f64>,
    /// Client spans (traced windows only).
    pub spans: Vec<Span>,
    /// Spans dropped because a recorder was full.
    pub spans_dropped: u64,
}

impl Window {
    fn merge(&mut self, mut other: Window) {
        self.op_ms.append(&mut other.op_ms);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.host_ms.append(&mut other.host_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.side_write_ms.append(&mut other.side_write_ms);
        self.late_ms.append(&mut other.late_ms);
        self.overdue += other.overdue;
        self.routed += other.routed;
        self.off_engine += other.off_engine;
        self.transport_us.append(&mut other.transport_us);
        self.spans.append(&mut other.spans);
        self.spans_dropped += other.spans_dropped;
    }
}

/// One client connection plus its (optional) span recorder.
struct Conn {
    client: Client,
    log: Option<SpanLog>,
    lane: u64,
    next_op: u64,
}

impl Conn {
    fn open(server: &Server, lane: u64) -> Result<Conn, String> {
        Ok(Conn { client: server.connect()?, log: None, lane, next_op: 0 })
    }

    /// Starts (or stops) span recording; `epoch` is shared by all lanes.
    fn trace(&mut self, epoch: Option<Instant>) {
        self.log = epoch.map(|e| SpanLog::new(e, self.lane, SPAN_CAP));
    }

    /// Opens the root span of the next operation.
    fn begin_op(&mut self) -> (Open, u64) {
        let op = self.lane << 32 | self.next_op;
        self.next_op += 1;
        let root = match &mut self.log {
            Some(log) => log.open("client.op", SpanLog::root(), op),
            None => SpanLog::root(),
        };
        (root, op)
    }

    fn end_op(&mut self, root: Open) {
        if let Some(log) = &mut self.log {
            log.close(root);
        }
    }

    /// One request inside an operation: span `client.request` (build,
    /// round trip, check) with child `net.roundtrip` (the socket call).
    fn call<T>(
        &mut self,
        (root, op): (Open, u64),
        send: impl FnOnce(&mut Client) -> Result<Json, astore_server::ClientError>,
        check: impl FnOnce(&Json) -> T,
    ) -> Result<T, String> {
        let Some(log) = &mut self.log else {
            return Ok(check(&send(&mut self.client).map_err(|e| e.to_string())?));
        };
        let request = log.open("client.request", root, op);
        let trip = log.open("net.roundtrip", request, op);
        let frame = send(&mut self.client);
        log.close(trip);
        let out = frame.as_ref().map(check);
        log.close(request);
        out.map_err(|e| e.to_string())
    }

    fn take_spans(&mut self, into: &mut Window) {
        if let Some(log) = self.log.take() {
            into.spans_dropped += log.dropped;
            into.spans.append(&mut log.into_spans());
        }
    }
}

/// Is this a success frame?
pub fn is_ok(frame: &Json) -> bool {
    frame.get("ok").and_then(Json::as_bool) == Some(true)
}

/// Checks a reply with `good` and describes it on stderr if it fails, so a
/// run that ends with `failed > 0` says which operations and why.
fn checked(what: &str, frame: &Json, good: impl FnOnce(&Json) -> bool) -> bool {
    static SHOWN: AtomicUsize = AtomicUsize::new(0);
    let good = good(frame);
    if !good && SHOWN.fetch_add(1, Ordering::Relaxed) < FAILURES_SHOWN {
        let mut reply = frame.to_string();
        if let Some((cut, _)) = reply.char_indices().nth(300) {
            reply.truncate(cut);
        }
        eprintln!("repobench: failed operation: {what}: {reply}");
    }
    good
}

/// The `rows` of a warm-up answer — the reference later answers must equal.
fn reference_rows(frame: &Json, what: &str) -> Result<Json, String> {
    frame
        .get("rows")
        .filter(|_| is_ok(frame))
        .cloned()
        .ok_or_else(|| format!("{what} failed in warm-up: {frame}"))
}

/// A closed loop for `seconds`: the next operation starts when the last
/// one ends (or the host probe between them does). `op` says whether its
/// operation succeeded.
fn closed_loop(
    seconds: f64,
    mut op: impl FnMut() -> Result<bool, String>,
) -> Result<Window, String> {
    let mut w = Window::default();
    let mut host = HostProbe::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        host.tick(&mut w.host_ms);
        let t = Instant::now();
        let good = op()?;
        w.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        w.attempted += 1;
        w.failed += u64::from(!good);
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    Ok(w)
}

fn stmt_id(frame: &Json, sql: &str) -> Result<u64, String> {
    frame
        .get("stmt_id")
        .and_then(Json::as_i64)
        .filter(|_| is_ok(frame))
        .map(|id| id as u64)
        .ok_or_else(|| format!("prepare failed for {sql:?}: {frame}"))
}

fn pin_engine(client: &mut Client, engine: &str) -> Result<(), String> {
    let sql = format!("SET engine = {engine}");
    let frame = client.sql(&sql).map_err(|e| e.to_string())?;
    if is_ok(&frame) {
        Ok(())
    } else {
        Err(format!("{sql} failed: {frame}"))
    }
}

fn prepare_all(client: &mut Client, templates: &[&str]) -> Result<Vec<u64>, String> {
    templates
        .iter()
        .map(|sql| stmt_id(&client.prepare(sql).map_err(|e| e.to_string())?, sql))
        .collect()
}

/// A connection running sweep passes: `SET engine = air`, the 13 SSB
/// queries prepared once, one operation = one pass in a seeded order.
pub struct SweepSession {
    conn: Conn,
    ids: Vec<u64>,
    /// `rows` of each query as first answered; `None` when the data changes
    /// under the sweep (`htap-mix`) and only `ok` can be checked.
    reference: Option<Vec<Json>>,
    rng: SmallRng,
}

/// Passes a sweep session runs before its window (after the reference pass).
const WARM_SWEEPS: usize = 4;

impl SweepSession {
    /// Connects, pins AIR, prepares, records reference answers (when
    /// `verify`) and warms up with a fixed number of passes.
    pub fn open(server: &Server, seed: u64, verify: bool) -> Result<SweepSession, String> {
        let mut conn = Conn::open(server, 0)?;
        pin_engine(&mut conn.client, "air")?;
        let sqls: Vec<&str> = SSB_SQL.iter().map(|(_, sql)| *sql).collect();
        let ids = prepare_all(&mut conn.client, &sqls)?;
        let mut reference = Vec::new();
        for (&id, (name, _)) in ids.iter().zip(SSB_SQL) {
            let frame = conn.client.execute(id, Vec::new()).map_err(|e| e.to_string())?;
            reference.push(reference_rows(&frame, name)?);
        }
        let mut session = SweepSession {
            conn,
            ids,
            reference: verify.then_some(reference),
            rng: stream_rng(seed, 10),
        };
        for _ in 0..WARM_SWEEPS {
            if !session.pass()? {
                return Err("a warm-up sweep pass returned a wrong answer or an error".into());
            }
        }
        Ok(session)
    }

    /// One pass over the 13 queries; `true` if every answer was right.
    fn pass(&mut self) -> Result<bool, String> {
        let order: [usize; SWEEP_QUERIES] = sweep_order(&mut self.rng);
        let op = self.conn.begin_op();
        let mut good = true;
        for q in order {
            let id = self.ids[q];
            let expect = self.reference.as_ref().map(|r| &r[q]);
            good &= self.conn.call(
                op,
                |c| c.execute(id, Vec::new()),
                |frame| {
                    checked(SSB_SQL[q].0, frame, |f| {
                        is_ok(f) && expect.is_none_or(|rows| f.get("rows") == Some(rows))
                    })
                },
            )?;
        }
        self.conn.end_op(op.0);
        Ok(good)
    }

    /// Closed loop of passes for `seconds`.
    pub fn run(&mut self, seconds: f64, trace: Option<Instant>) -> Result<Window, String> {
        self.conn.trace(trace);
        let mut w = closed_loop(seconds, || self.pass())?;
        self.conn.take_spans(&mut w);
        Ok(w)
    }
}

/// Statements each `serve-mix` connection sends before its window — long
/// enough that, on an unpinned session, the router has left its warm-up
/// phase and tried every arm (the one-off denormalised build included) on
/// every template.
const WARM_SERVE_OPS: usize = 1_500;

/// The `serve-mix` clients: `connections` closed loops over one statement
/// set, answers checked against those recorded before warm-up.
pub struct ServeSessions {
    conns: Vec<(Conn, Vec<u64>, SmallRng)>,
    universe: ShortUniverse,
    reference: Vec<Json>,
}

impl ServeSessions {
    /// Connects (pinning every session to `engine`, or leaving the default
    /// router in charge for `None`), records the reference answer of every
    /// statement (text mode, connection 0), prepares the templates and
    /// warms up.
    pub fn open(
        server: &Server,
        seed: u64,
        universe: ShortUniverse,
        connections: usize,
        engine: Option<&str>,
    ) -> Result<ServeSessions, String> {
        let mut conns = Vec::new();
        for lane in 0..connections {
            let mut conn = Conn::open(server, lane as u64)?;
            if let Some(engine) = engine {
                pin_engine(&mut conn.client, engine)?;
            }
            let ids = prepare_all(&mut conn.client, &SHORT_TEMPLATES)?;
            conns.push((conn, ids, stream_rng(seed, 20 + lane as u64)));
        }
        let mut reference = Vec::new();
        for stmt in &universe.stmts {
            let frame = conns[0].0.client.sql(&stmt.sql).map_err(|e| e.to_string())?;
            reference.push(reference_rows(&frame, &stmt.sql)?);
        }
        let mut sessions = ServeSessions { conns, universe, reference };
        let warm = sessions.drive(|done, _| done >= WARM_SERVE_OPS, None)?;
        if warm.failed > 0 {
            return Err(format!("{} of {} warm-up statements failed", warm.failed, warm.attempted));
        }
        Ok(sessions)
    }

    /// Closed loops for `seconds`.
    pub fn run(&mut self, seconds: f64, trace: Option<Instant>) -> Result<Window, String> {
        self.drive(|_, elapsed| elapsed >= seconds, trace)
    }

    /// Closed loops of `ops` operations per connection.
    pub fn run_ops(&mut self, ops: usize) -> Result<Window, String> {
        self.drive(|done, _| done >= ops, None)
    }

    /// Runs every connection until `stop(ops done, seconds elapsed)`.
    fn drive(
        &mut self,
        stop: impl Fn(usize, f64) -> bool + Sync,
        trace: Option<Instant>,
    ) -> Result<Window, String> {
        let (universe, reference) = (&self.universe, &self.reference[..]);
        let stop = &stop;
        let parts: Vec<Result<Window, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|(conn, ids, rng)| {
                    s.spawn(move || serve_loop(conn, ids, rng, universe, reference, stop, trace))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut w = Window::default();
        for part in parts {
            w.merge(part?);
        }
        Ok(w)
    }
}

fn serve_loop(
    conn: &mut Conn,
    ids: &[u64],
    rng: &mut SmallRng,
    universe: &ShortUniverse,
    reference: &[Json],
    stop: &(impl Fn(usize, f64) -> bool + Sync),
    trace: Option<Instant>,
) -> Result<Window, String> {
    conn.trace(trace);
    let mut w = Window::default();
    // Per template: statements answered by each engine (air, join, denorm).
    let mut engines = [[0u64; 3]; SHORT_TEMPLATES.len()];
    let mut host = HostProbe::new();
    let start = Instant::now();
    let mut done = 0usize;
    while !stop(done, start.elapsed().as_secs_f64()) {
        host.tick(&mut w.host_ms);
        done += 1;
        let t = Instant::now();
        let op = conn.begin_op();
        w.attempted += 1;
        match next_serve_op(rng, universe) {
            ServeOp::Stats => {
                let req = Json::obj([("cmd", Json::Str("stats".into()))]);
                let good = conn.call(op, |c| c.request(&req), |f| checked("stats", f, is_ok))?;
                w.failed += u64::from(!good);
                conn.end_op(op.0);
                continue;
            }
            serve_op @ (ServeOp::Text(i) | ServeOp::Prepared(i)) => {
                let stmt = &universe.stmts[i];
                let check = |frame: &Json| {
                    let good = checked(&stmt.sql, frame, |f| {
                        is_ok(f) && f.get("rows") == Some(&reference[i])
                    });
                    let engine = ["air", "join", "denorm"]
                        .iter()
                        .position(|e| frame.get("engine").and_then(Json::as_str) == Some(e));
                    let server_us = frame.get("elapsed_us").and_then(Json::as_i64).unwrap_or(0);
                    (good, engine, server_us)
                };
                let (good, engine, server_us) = match serve_op {
                    ServeOp::Text(_) => conn.call(op, |c| c.sql(&stmt.sql), check)?,
                    _ => {
                        let (id, params) = (ids[stmt.template], stmt.params.clone());
                        conn.call(op, |c| c.execute(id, params), check)?
                    }
                };
                conn.end_op(op.0);
                let us = t.elapsed().as_secs_f64() * 1e6;
                w.op_ms.push(us / 1e3);
                w.transport_us.push(us - server_us as f64);
                w.failed += u64::from(!good);
                if let Some(e) = engine {
                    engines[stmt.template][e] += 1;
                }
            }
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    for per_template in engines {
        let total: u64 = per_template.iter().sum();
        w.routed += total;
        w.off_engine += total - per_template.iter().max().expect("three engines");
    }
    conn.take_spans(&mut w);
    Ok(w)
}

/// One writer connection: prepared write templates plus its seeded stream.
pub struct Writer {
    conn: Conn,
    ids: Vec<u64>,
    gen: WriteGen,
    /// Writes acknowledged since the connection opened (warm-up included).
    pub acked: Acked,
}

impl Writer {
    /// Connects, prepares the write templates and sends `warm_up` writes,
    /// every one of which must succeed.
    pub fn open(
        server: &Server,
        seed: u64,
        sizes: SsbSizes,
        mix: WriteMix,
        warm_up: usize,
    ) -> Result<Writer, String> {
        let mut conn = Conn::open(server, 8)?;
        let ids = prepare_all(&mut conn.client, &WRITE_TEMPLATES)?;
        let gen = WriteGen::new(seed, sizes, mix);
        let mut writer = Writer { conn, ids, gen, acked: Acked::default() };
        for _ in 0..warm_up {
            if !writer.write_one()? {
                return Err("a warm-up write was refused".into());
            }
        }
        Ok(writer)
    }

    /// Sends the next write; `true` if it was acknowledged for one row.
    fn write_one(&mut self) -> Result<bool, String> {
        let w = self.gen.next_op();
        let op = self.conn.begin_op();
        let (id, params) = (self.ids[w.template], w.params);
        let good = self.conn.call(
            op,
            |c| c.execute(id, params),
            |frame| {
                checked(WRITE_TEMPLATES[w.template], frame, |f| {
                    is_ok(f) && f.get("rows_affected").and_then(Json::as_i64) == Some(1)
                })
            },
        )?;
        self.conn.end_op(op.0);
        if good {
            match w.template {
                0 => {
                    self.acked.inserts += 1;
                    self.acked.insert_quantity += w.quantity;
                }
                2 => self.acked.deletes += 1,
                _ => {}
            }
        }
        Ok(good)
    }

    /// `ingest-durable`: closed loop for `seconds`.
    pub fn run_closed(&mut self, seconds: f64, trace: Option<Instant>) -> Result<Window, String> {
        self.conn.trace(trace);
        let mut w = closed_loop(seconds, || self.write_one())?;
        self.conn.take_spans(&mut w);
        Ok(w)
    }

    /// Open loop for `seconds`: write `i` is due at `i × interval` whatever
    /// happened to the writes before it, and is timed from that due time.
    fn run_open(
        &mut self,
        seconds: f64,
        interval: Duration,
        trace: Option<Instant>,
    ) -> Result<Window, String> {
        self.conn.trace(trace);
        let mut w = Window::default();
        let start = Instant::now();
        for i in 0.. {
            let due = interval * i;
            if due.as_secs_f64() >= seconds {
                break;
            }
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = start.elapsed();
            let good = self.write_one()?;
            let sample = OpenLoopSample::new(due, sent, start.elapsed());
            w.late_ms.push(sample.late_ms);
            w.side_write_ms.push(sample.latency_ms);
            w.attempted += 1;
            w.failed += u64::from(!good);
            w.overdue += u64::from(sample.overdue);
        }
        self.conn.take_spans(&mut w);
        Ok(w)
    }
}

/// Timing of one open-loop operation, all relative to the window start.
#[derive(Debug, PartialEq)]
pub struct OpenLoopSample {
    /// How long after its due time the generator sent it (a stalled
    /// predecessor on the same connection makes the generator late).
    pub late_ms: f64,
    /// Acknowledgement time minus *due* time: the wait a stall imposes on
    /// later requests is part of their latency.
    pub latency_ms: f64,
    /// Acknowledged later than [`OPEN_LOOP_LIMIT`] after it was due.
    pub overdue: bool,
}

impl OpenLoopSample {
    /// From the due, send and acknowledgement offsets.
    pub fn new(due: Duration, sent: Duration, acked: Duration) -> OpenLoopSample {
        let since_due = acked.saturating_sub(due);
        let ms = |d: Duration| d.as_nanos() as f64 / 1e6;
        OpenLoopSample {
            late_ms: ms(sent.saturating_sub(due)),
            latency_ms: ms(since_due),
            overdue: since_due > OPEN_LOOP_LIMIT,
        }
    }
}

/// `htap-mix`: the sweep connection in a closed loop beside one open-loop
/// writer on a fixed schedule. Primary operation = the sweep pass.
pub fn run_htap(
    sweep: &mut SweepSession,
    writer: &mut Writer,
    seconds: f64,
    interval: Duration,
    trace: Option<Instant>,
) -> Result<Window, String> {
    let (reads, writes) = std::thread::scope(|s| {
        let writes = s.spawn(|| writer.run_open(seconds, interval, trace));
        let reads = sweep.run(seconds, trace);
        (reads, writes.join().expect("writer thread panicked"))
    });
    let mut out = reads?;
    out.merge(writes?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        let ms = Duration::from_millis;
        // On time: sent when due, acknowledged 80 ms later.
        let s = OpenLoopSample::new(ms(500), ms(500), ms(580));
        assert_eq!((s.late_ms, s.latency_ms, s.overdue), (0.0, 80.0, false));
        // The write before it stalled: sent 300 ms late, and that wait is
        // part of its latency although the server answered in 50 ms.
        let s = OpenLoopSample::new(ms(1000), ms(1300), ms(1350));
        assert_eq!((s.late_ms, s.latency_ms, s.overdue), (300.0, 350.0, false));
        // Acknowledged more than the limit after it was due: overdue.
        let s = OpenLoopSample::new(ms(1500), ms(2400), ms(2501));
        assert_eq!((s.late_ms, s.latency_ms, s.overdue), (900.0, 1001.0, true));
        // Exactly at the limit still counts as served.
        assert!(!OpenLoopSample::new(ms(0), ms(0), OPEN_LOOP_LIMIT).overdue);
    }

    #[test]
    fn windows_merge_by_summing_counts_and_keeping_the_longest_span() {
        let mut a = Window {
            op_ms: vec![1.0],
            elapsed_s: 2.0,
            attempted: 3,
            failed: 1,
            ..Default::default()
        };
        let b =
            Window { op_ms: vec![2.0, 3.0], elapsed_s: 2.5, attempted: 4, ..Default::default() };
        a.merge(b);
        assert_eq!(a.op_ms, vec![1.0, 2.0, 3.0]);
        assert_eq!((a.elapsed_s, a.attempted, a.failed), (2.5, 7, 1));
    }
}
