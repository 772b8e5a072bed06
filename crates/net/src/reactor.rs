//! The serving loop: every serving thread waits on one epoll instance,
//! and the thread a connection's readiness reaches answers it — it reads,
//! frames, hands each frame to the [`Service`] and writes the reply itself
//! — then re-arms the connection. This is the Leader/Followers pattern
//! (Schmidt, O'Ryan, Pyarali, Kircher and Buschmann, PLoP 2000): no thread
//! hands a frame or a reply to another.
//!
//! - **One owner per connection.** Every socket is registered one-shot
//!   ([`Poller`]): its readiness reaches one thread, which owns the
//!   connection until it re-arms it, so no frame overtakes another.
//! - **One frame a turn.** A client may pipeline many frames. A turn
//!   answers one; while more are buffered the connection yields its turn
//!   to the back of a line that threads take from after polling for fresh
//!   readiness, so a ping waits for at most one statement per thread.
//!   Reading resumes once every buffered frame is answered.
//! - **Frames that wait.** When [`Service::dispatch`] queues a frame, its
//!   connection only flushes earlier replies until [`Service::next_queued`]
//!   hands the frame back. A thread polls for fresh readiness before it
//!   takes queued work, and takes queued work before it blocks.
//! - **Backpressure.** Past the write backlog's high watermark a
//!   connection is neither read nor answered until the low one.
//! - **Graceful overload.** Accept errors like EMFILE pause accepting
//!   briefly; over the connection limit the reject frame is written
//!   best-effort and the socket dropped.
//! - **Slow-loris defence without idle reaping.** The idle deadline
//!   applies only to connections holding an *incomplete* frame.

use crate::buffer::{Frame, ReadBuffer, WriteBuffer};
use crate::poller::{Event, Interest, Poller, Token, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the serving threads ask of the protocol layer. Every method runs on
/// a serving thread, several at once.
pub trait Service: Send + Sync + 'static {
    /// Per-connection protocol state (e.g. a prepared-statement registry).
    type Session: Send + 'static;
    /// A frame the service queued to run later.
    type Job: Send + 'static;

    /// A connection was accepted and admitted.
    fn open(&self) -> Self::Session;

    /// A connection ended (EOF, error, deadline, shutdown). Called exactly
    /// once per admitted connection.
    fn closed(&self, _session: &mut Self::Session) {}

    /// Handles a frame read at `read_at` and returns the reply bytes (with
    /// their newline; empty for none) — or `None` when it queued the frame
    /// under `conn` instead: [`Service::next_queued`] hands it back later.
    fn dispatch(
        &self,
        conn: ConnId,
        session: &mut Self::Session,
        frame: Vec<u8>,
        read_at: Instant,
    ) -> Option<Vec<u8>>;

    /// The queued frame to run next, if one may run now.
    fn next_queued(&self) -> Queued<(ConnId, Self::Job)>;

    /// Runs a frame [`Service::next_queued`] handed back and returns its
    /// reply, as [`Service::dispatch`] does.
    fn run(&self, session: &mut Self::Session, job: Self::Job) -> Vec<u8>;

    /// Frame written before dropping a connection over the limit.
    fn reject_frame(&self) -> Vec<u8>;

    /// Frame written before closing a connection whose unterminated input
    /// exceeded the frame limit.
    fn oversize_frame(&self) -> Vec<u8>;

    /// A socket was accepted (admitted or not).
    fn on_accept(&self) {}

    /// Reading from a connection was paused by the write-side watermark.
    fn on_backpressure(&self) {}

    /// Frames read from a connection and not yet answered, counted as a
    /// complete frame arrives (1 = no pipelining).
    fn on_pipeline_depth(&self, _depth: usize) {}
}

/// What [`Service::next_queued`] found.
#[derive(Debug, PartialEq, Eq)]
pub enum Queued<T> {
    /// Run this now.
    Run(T),
    /// Held back: look again within this long, or at [`ReactorHandle::wake`].
    Wait(Duration),
    /// Nothing is queued.
    Empty,
}

/// Names one admitted connection: its slot and the slot's generation, so
/// that a frame queued for a closed connection never reaches the next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnId {
    slot: u32,
    generation: u32,
}

impl ConnId {
    fn token(self) -> Token {
        u64::from(self.generation) << 32 | u64::from(self.slot)
    }

    fn of(token: Token) -> ConnId {
        ConnId { slot: token as u32, generation: (token >> 32) as u32 }
    }
}

/// Tuning knobs for a reactor instance.
#[derive(Clone, Copy)]
pub struct ReactorConfig {
    /// Admitted connections beyond this are sent `reject_frame` + dropped.
    pub max_connections: usize,
    /// Longest accepted frame, in bytes (newline excluded).
    pub max_frame_bytes: usize,
    /// Write backlog (bytes) at which reading from a connection pauses.
    pub high_watermark: usize,
    /// Write backlog at which a paused connection resumes reading.
    pub low_watermark: usize,
    /// Close a connection whose *partial* frame has made no progress to a
    /// newline for this long. `None` disables the deadline. Connections
    /// with no buffered bytes are never touched.
    pub idle_timeout: Option<Duration>,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 16 * 1024,
            max_frame_bytes: 1 << 20,
            high_watermark: 256 * 1024,
            low_watermark: 64 * 1024,
            idle_timeout: None,
        }
    }
}

const LISTENER_TOKEN: Token = u64::MAX;
const WAKER_TOKEN: Token = u64::MAX - 1;
const READ_CHUNK: usize = 16 * 1024;
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);
/// A closing connection's input is discarded until EOF after its last frame
/// is flushed — at most this many bytes, for at most [`CLOSE_DRAIN_TIME`]:
/// closing with unread input resets the socket and can destroy that frame.
const CLOSE_DRAIN_BYTES: usize = 16 << 20;
const CLOSE_DRAIN_TIME: Duration = Duration::from_secs(2);

/// The stop flag and the wake channel, shared with every [`ReactorHandle`].
struct Signal {
    stop: AtomicBool,
    waker: Waker,
}

/// Stops or wakes a running reactor from another thread.
#[derive(Clone)]
pub struct ReactorHandle {
    signal: Arc<Signal>,
}

impl ReactorHandle {
    /// Stops every serving thread; the last one out closes every connection.
    pub fn stop(&self) {
        self.signal.stop.store(true, Ordering::Release);
        self.signal.waker.wake();
    }

    /// Wakes one blocked serving thread to look at the queued frames again.
    pub fn wake(&self) {
        self.signal.waker.wake();
    }
}

struct Conn<S> {
    id: ConnId,
    stream: TcpStream,
    session: S,
    rbuf: ReadBuffer,
    wbuf: WriteBuffer,
    /// Complete frames read and not yet dispatched, with when each was read.
    frames: VecDeque<(Instant, Vec<u8>)>,
    /// A frame waits in the service's queue: nothing more is answered.
    queued: bool,
    /// Reading and answering paused by the write-side high watermark.
    read_blocked: bool,
    /// Flush pending output, then drain and close (oversize frame).
    closing: bool,
    /// Once a closing connection is flushed and shut down for writing: its
    /// drain deadline and the input bytes it may still discard.
    draining: Option<(Instant, usize)>,
    /// When the currently buffered partial frame started waiting.
    partial_since: Option<Instant>,
}

/// A slot's connection, if open. The thread that owns the connection (see
/// the module docs) holds the lock; others only ever `try_lock` it.
type Cell<S> = Arc<Mutex<Option<Conn<S>>>>;

struct Slot<S> {
    generation: u32,
    cell: Cell<S>,
}

struct Slab<S> {
    slots: Vec<Slot<S>>,
    free: Vec<usize>,
    open: usize,
}

/// The serving loop's shared state. Create with [`Reactor::new`], take a
/// [`ReactorHandle`], then [`Reactor::spawn`] the serving threads.
pub struct Reactor<S: Service> {
    poller: Poller,
    signal: Arc<Signal>,
    listener: TcpListener,
    service: S,
    config: ReactorConfig,
    conns: Mutex<Slab<S::Session>>,
    /// Accepting paused (listener disarmed) until then; the sweep resumes it.
    accept_paused_until: Mutex<Option<Instant>>,
    last_sweep: Mutex<Instant>,
    /// Connections that yielded their turn, oldest first, left disarmed.
    yielded: Mutex<VecDeque<ConnId>>,
    /// Serving threads blocked in the poller: a yielded turn wakes one.
    idle: AtomicUsize,
    /// Serving threads still in their loop; the last one out closes all.
    running: AtomicUsize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<S: Service> Reactor<S> {
    pub fn new(listener: TcpListener, service: S, config: ReactorConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let waker = Waker::new(&poller, WAKER_TOKEN)?;
        Ok(Reactor {
            poller,
            signal: Arc::new(Signal { stop: AtomicBool::new(false), waker }),
            listener,
            service,
            config,
            conns: Mutex::new(Slab { slots: Vec::new(), free: Vec::new(), open: 0 }),
            accept_paused_until: Mutex::new(None),
            last_sweep: Mutex::new(Instant::now()),
            yielded: Mutex::new(VecDeque::new()),
            idle: AtomicUsize::new(0),
            running: AtomicUsize::new(0),
        })
    }

    /// A handle that stops the serving threads or wakes one of them.
    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle { signal: Arc::clone(&self.signal) }
    }

    /// Serves on `workers` threads named `{name}-{i}` until
    /// [`ReactorHandle::stop`]; join them to wait for that.
    pub fn spawn(self, workers: usize, name: &str) -> Vec<JoinHandle<()>> {
        let workers = workers.max(1);
        self.running.store(workers, Ordering::Release);
        let reactor = Arc::new(self);
        (0..workers)
            .map(|i| {
                let reactor = Arc::clone(&reactor);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || reactor.serve())
                    .expect("failed to spawn a serving thread")
            })
            .collect()
    }

    /// One serving thread's loop.
    fn serve(&self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut timeout = SWEEP_INTERVAL;
        while !self.signal.stop.load(Ordering::Acquire) {
            // A turn yielded before this poll runs after its event.
            let yielded = lock(&self.yielded).pop_front();
            let ms = if yielded.is_some() { 0 } else { timeout.as_micros().div_ceil(1000) };
            self.idle.fetch_add(usize::from(ms > 0), Ordering::SeqCst);
            let polled = self.poller.wait(Some(ms as i32));
            self.idle.fetch_sub(usize::from(ms > 0), Ordering::SeqCst);
            match polled {
                Ok(Some(ev)) => self.on_event(ev, &mut scratch),
                Ok(None) => {}
                Err(_) => break,
            }
            if let Some(id) = yielded {
                self.with_conn(id, |guard| self.turn(guard, false, &mut scratch));
            }
            timeout = match self.service.next_queued() {
                Queued::Run((id, job)) => {
                    self.run_queued(id, job);
                    Duration::ZERO
                }
                Queued::Wait(left) => left.min(SWEEP_INTERVAL),
                Queued::Empty => SWEEP_INTERVAL,
            };
            self.sweep_if_due();
        }
        // Pass the stop on to a thread still blocked in the poller.
        self.signal.waker.wake();
        if self.running.fetch_sub(1, Ordering::AcqRel) == 1 {
            for cell in self.cells() {
                self.close(&mut lock(&cell));
            }
        }
    }

    fn on_event(&self, ev: Event, scratch: &mut [u8]) {
        match ev.token {
            LISTENER_TOKEN => self.accept_burst(),
            WAKER_TOKEN => self.signal.waker.drain(),
            token => self.with_conn(ConnId::of(token), |guard| {
                self.turn(guard, ev.readable || ev.closed, scratch)
            }),
        }
    }

    /// Runs `f` on connection `id`, holding its lock, if it is still open.
    fn with_conn(&self, id: ConnId, f: impl FnOnce(&mut Option<Conn<S::Session>>)) {
        let Some(cell) = self.cell(id) else { return };
        let mut guard = lock(&cell);
        if guard.as_ref().is_some_and(|c| c.id == id) {
            f(&mut guard);
        }
    }

    fn cell(&self, id: ConnId) -> Option<Cell<S::Session>> {
        let slab = lock(&self.conns);
        let slot = slab.slots.get(id.slot as usize)?;
        (slot.generation == id.generation).then(|| Arc::clone(&slot.cell))
    }

    fn cells(&self) -> Vec<Cell<S::Session>> {
        lock(&self.conns).slots.iter().map(|s| Arc::clone(&s.cell)).collect()
    }

    // -- accept path --------------------------------------------------------

    /// Accepts until the listener would block, then re-arms it — unless an
    /// error paused accepting.
    fn accept_burst(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.service.on_accept();
                    if lock(&self.conns).open >= self.config.max_connections {
                        // Best-effort typed rejection; never block.
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&self.service.reject_frame());
                        continue; // stream drops -> RST/FIN, slot never allocated
                    }
                    if self.admit(stream).is_err() {
                        // Registration failure (fd pressure): back off.
                        return self.pause_accept();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE/ECONNABORTED storms: pause briefly instead
                // of spinning on a ready listener; the sweep resumes.
                Err(_) => return self.pause_accept(),
            }
        }
        let _ = self.poller.modify(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE);
    }

    fn pause_accept(&self) {
        *lock(&self.accept_paused_until) = Some(Instant::now() + ACCEPT_PAUSE);
    }

    fn admit(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        // Replies are small frames: with Nagle on, a pipelined batch's tail
        // waits out the peer's delayed ACK (~40 ms). Best-effort.
        let _ = stream.set_nodelay(true);
        let (id, cell) = {
            let mut slab = lock(&self.conns);
            let slot = slab.free.pop().unwrap_or_else(|| {
                slab.slots.push(Slot { generation: 0, cell: Arc::default() });
                slab.slots.len() - 1
            });
            slab.open += 1;
            let Slot { generation, cell } = &slab.slots[slot];
            (ConnId { slot: slot as u32, generation: *generation }, Arc::clone(cell))
        };
        // Held across registration: the first event waits for the state.
        let mut guard = lock(&cell);
        if let Err(e) = self.poller.register(stream.as_raw_fd(), id.token(), Interest::READABLE) {
            let mut slab = lock(&self.conns);
            slab.free.push(id.slot as usize);
            slab.open -= 1;
            return Err(e);
        }
        *guard = Some(Conn {
            id,
            stream,
            session: self.service.open(),
            rbuf: ReadBuffer::new(self.config.max_frame_bytes),
            wbuf: WriteBuffer::new(self.config.high_watermark, self.config.low_watermark),
            frames: VecDeque::new(),
            queued: false,
            read_blocked: false,
            closing: false,
            draining: None,
            partial_since: None,
        });
        Ok(())
    }

    // -- connection turns ---------------------------------------------------

    /// One turn of the thread a connection's readiness reached: flush,
    /// read, answer the next frame, re-arm.
    fn turn(&self, guard: &mut Option<Conn<S::Session>>, read: bool, scratch: &mut [u8]) {
        let conn = guard.as_mut().unwrap();
        let open = self.flush(conn) && (!read || self.read(conn, scratch)) && self.answer(conn);
        self.rearm(guard, open);
    }

    /// Runs a frame the service queued on its connection, if that is still
    /// open, then re-arms the connection for the frames read behind it.
    fn run_queued(&self, id: ConnId, job: S::Job) {
        self.with_conn(id, |guard| {
            let conn = guard.as_mut().unwrap();
            conn.queued = false;
            let session = &mut conn.session;
            let reply = catch_unwind(AssertUnwindSafe(|| self.service.run(session, job)));
            if let Ok(reply) = &reply {
                conn.wbuf.push(reply);
            }
            let open = reply.is_ok() && self.flush(conn);
            self.rearm(guard, open);
        });
    }

    /// Answers the next buffered frame unless the connection is queued,
    /// paused or closing. Returns false if the connection failed.
    fn answer(&self, conn: &mut Conn<S::Session>) -> bool {
        if conn.closing || conn.read_blocked || conn.queued {
            return true;
        }
        let Some((read_at, frame)) = conn.frames.pop_front() else { return true };
        let (id, session) = (conn.id, &mut conn.session);
        match catch_unwind(AssertUnwindSafe(|| self.service.dispatch(id, session, frame, read_at)))
        {
            Ok(Some(reply)) => {
                conn.wbuf.push(&reply);
                self.flush(conn)
            }
            Ok(None) => {
                conn.queued = true;
                true
            }
            Err(_) => false,
        }
    }

    /// Re-arms the connection for what it waits on, or closes it when `open`
    /// is false or re-arming fails. With frames still buffered it yields its
    /// turn instead. A queued connection is armed only to flush its earlier
    /// replies; `run_queued` re-arms it.
    fn rearm(&self, guard: &mut Option<Conn<S::Session>>, mut open: bool) {
        let conn = guard.as_mut().unwrap();
        if open && conn.closing && conn.draining.is_none() && conn.wbuf.is_empty() {
            // Flushed: shut the write side and discard input until EOF.
            open = conn.stream.shutdown(std::net::Shutdown::Write).is_ok();
            conn.draining = Some((Instant::now() + CLOSE_DRAIN_TIME, CLOSE_DRAIN_BYTES));
            conn.read_blocked = false;
        }
        let answering = !conn.queued && !conn.read_blocked && !conn.closing;
        if open && answering && !conn.frames.is_empty() {
            lock(&self.yielded).push_back(conn.id);
            if self.idle.load(Ordering::SeqCst) > 0 {
                self.signal.waker.wake(); // this thread may have more to do first
            }
        } else if open {
            let want = Interest {
                readable: answering || conn.draining.is_some(),
                writable: !conn.wbuf.is_empty(),
            };
            if want.readable || want.writable {
                open = self.poller.modify(conn.stream.as_raw_fd(), conn.id.token(), want).is_ok();
            }
        }
        if !open {
            self.close(guard);
        }
    }

    /// Reads until the socket is drained, carving complete frames off.
    /// Returns false when the connection ended (EOF, error, drain limit).
    fn read(&self, conn: &mut Conn<S::Session>, scratch: &mut [u8]) -> bool {
        loop {
            if (conn.closing && conn.draining.is_none()) || conn.read_blocked {
                return true;
            }
            match conn.stream.read(scratch) {
                Ok(0) => return false,
                Ok(n) => {
                    match conn.draining.as_mut() {
                        Some((_, left)) => {
                            *left = left.saturating_sub(n);
                            if *left == 0 {
                                return false;
                            }
                        }
                        None => {
                            conn.rbuf.extend(&scratch[..n]);
                            self.take_frames(conn);
                        }
                    }
                    // A short read took all there was: the re-armed
                    // registration reports whatever arrives after it.
                    if n < scratch.len() {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Moves every complete frame out of the read buffer.
    fn take_frames(&self, conn: &mut Conn<S::Session>) {
        loop {
            match conn.rbuf.next_frame() {
                Frame::Complete(frame) => {
                    conn.partial_since = None;
                    conn.frames.push_back((Instant::now(), frame));
                    self.service.on_pipeline_depth(conn.frames.len());
                }
                Frame::Partial => {
                    if !conn.rbuf.has_partial() {
                        conn.partial_since = None;
                    } else if conn.partial_since.is_none() {
                        conn.partial_since = Some(Instant::now());
                    }
                    return;
                }
                Frame::Oversized => {
                    conn.wbuf.push(&self.service.oversize_frame());
                    conn.closing = true;
                    conn.frames.clear();
                    return;
                }
            }
        }
    }

    /// Writes as much pending output as the socket accepts, then moves the
    /// backpressure state: reading and answering pause at the high
    /// watermark and resume at the low one. Returns false if the connection
    /// failed.
    fn flush(&self, conn: &mut Conn<S::Session>) -> bool {
        while !conn.wbuf.is_empty() {
            match conn.stream.write(conn.wbuf.pending()) {
                Ok(0) => return false,
                Ok(n) => conn.wbuf.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.wbuf.above_high_watermark() && !conn.read_blocked {
            conn.read_blocked = true;
            self.service.on_backpressure();
        } else if conn.read_blocked && conn.wbuf.below_low_watermark() && !conn.closing {
            conn.read_blocked = false;
        }
        true
    }

    // -- bookkeeping --------------------------------------------------------

    fn close(&self, guard: &mut Option<Conn<S::Session>>) {
        let Some(mut conn) = guard.take() else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.service.closed(&mut conn.session);
        let mut slab = lock(&self.conns);
        let slot = &mut slab.slots[conn.id.slot as usize];
        slot.generation = slot.generation.wrapping_add(1);
        slab.free.push(conn.id.slot as usize);
        slab.open -= 1;
        // stream drops here, closing the fd
    }

    /// Every [`SWEEP_INTERVAL`], on whichever thread gets here first:
    /// resumes a paused accept, and closes connections past their drain
    /// deadline or stalled mid-frame past the idle timeout.
    fn sweep_if_due(&self) {
        let now = Instant::now();
        match self.last_sweep.try_lock() {
            Ok(mut last) if now.duration_since(*last) >= SWEEP_INTERVAL => *last = now,
            _ => return,
        }
        let resume = {
            let mut paused = lock(&self.accept_paused_until);
            let due = paused.is_some_and(|until| now >= until);
            if due {
                *paused = None;
            }
            due
        };
        if resume {
            self.accept_burst();
        }
        let idle = self.config.idle_timeout;
        for cell in self.cells() {
            // A connection some thread is serving is not stalled.
            let Ok(mut guard) = cell.try_lock() else { continue };
            let stale = guard.as_ref().is_some_and(|c| {
                c.draining.is_some_and(|(until, _)| now >= until)
                    || idle.is_some_and(|deadline| {
                        c.partial_since.is_some_and(|t| now.duration_since(t) > deadline)
                    })
            });
            if stale {
                self.close(&mut guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// Echoes each frame back uppercased. Frames starting with `q` — or
    /// every frame, when built with `queue_all` — go through the service's
    /// queue and come back through `next_queued`, which holds them back
    /// while `hold` is set.
    struct EchoService {
        queue_all: bool,
        queue: Mutex<VecDeque<(ConnId, Vec<u8>)>>,
        opens: Arc<AtomicUsize>,
        closes: Arc<AtomicUsize>,
        backpressure: Arc<AtomicUsize>,
        max_depth: Arc<AtomicUsize>,
        hold: Arc<AtomicBool>,
        queued: Arc<AtomicUsize>,
    }

    impl EchoService {
        fn new(queue_all: bool) -> EchoService {
            EchoService {
                queue_all,
                queue: Mutex::new(VecDeque::new()),
                opens: Arc::new(AtomicUsize::new(0)),
                closes: Arc::new(AtomicUsize::new(0)),
                backpressure: Arc::new(AtomicUsize::new(0)),
                max_depth: Arc::new(AtomicUsize::new(0)),
                hold: Arc::new(AtomicBool::new(false)),
                queued: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Service for EchoService {
        type Session = u64;
        type Job = Vec<u8>;

        fn open(&self) -> u64 {
            self.opens.fetch_add(1, Ordering::SeqCst);
            0
        }

        fn closed(&self, _session: &mut u64) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }

        fn dispatch(
            &self,
            conn: ConnId,
            session: &mut u64,
            frame: Vec<u8>,
            _read_at: Instant,
        ) -> Option<Vec<u8>> {
            assert_ne!(frame, b"panic", "statement exploded");
            if self.queue_all || frame.starts_with(b"q") {
                self.queue.lock().unwrap().push_back((conn, frame));
                self.queued.fetch_add(1, Ordering::SeqCst);
                return None;
            }
            Some(self.run(session, frame))
        }

        fn next_queued(&self) -> Queued<(ConnId, Vec<u8>)> {
            if self.hold.load(Ordering::SeqCst) {
                return Queued::Wait(Duration::from_millis(5));
            }
            match self.queue.lock().unwrap().pop_front() {
                Some(job) => Queued::Run(job),
                None => Queued::Empty,
            }
        }

        fn run(&self, session: &mut u64, frame: Vec<u8>) -> Vec<u8> {
            *session += 1;
            if frame == b"slow" {
                std::thread::sleep(Duration::from_millis(20));
            }
            // "amp:<tag>" asks for a fat response — lets tests overwhelm
            // kernel socket buffers with tiny requests.
            let mut out = if let Some(tag) = frame.strip_prefix(b"amp:") {
                let mut big = tag.to_vec();
                big.push(b':');
                big.resize(big.len() + 8192, b'Z');
                big
            } else {
                frame.to_ascii_uppercase()
            };
            out.push(b'\n');
            out
        }

        fn reject_frame(&self) -> Vec<u8> {
            b"REJECT\n".to_vec()
        }

        fn oversize_frame(&self) -> Vec<u8> {
            b"OVERSIZE\n".to_vec()
        }

        fn on_backpressure(&self) {
            self.backpressure.fetch_add(1, Ordering::SeqCst);
        }

        fn on_pipeline_depth(&self, depth: usize) {
            self.max_depth.fetch_max(depth, Ordering::SeqCst);
        }
    }

    struct Running {
        addr: std::net::SocketAddr,
        handle: ReactorHandle,
        threads: Vec<JoinHandle<()>>,
    }

    impl Running {
        fn stop(self) {
            self.handle.stop();
            for t in self.threads {
                t.join().unwrap();
            }
        }
    }

    fn spawn_reactor(service: EchoService, config: ReactorConfig, workers: usize) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, service, config).unwrap();
        let handle = reactor.handle();
        Running { addr, handle, threads: reactor.spawn(workers, "test-serve") }
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_owned()
    }

    #[test]
    fn admitted_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor =
            Reactor::new(listener, EchoService::new(false), ReactorConfig::default()).unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let accepted = loop {
            match reactor.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => panic!("accept failed: {e}"),
            }
        };
        assert!(!accepted.nodelay().unwrap(), "accepted sockets start with Nagle on");
        reactor.admit(accepted).unwrap();
        let cell = reactor.cell(ConnId { slot: 0, generation: 0 }).expect("admitted connection");
        let conn = cell.lock().unwrap();
        assert!(conn.as_ref().unwrap().stream.nodelay().unwrap(), "admit must set TCP_NODELAY");
    }

    #[test]
    fn echo_roundtrip_and_pipelining_order() {
        // Every frame waits in the service's queue: replies still come back
        // in request order.
        let service = EchoService::new(true);
        let max_depth = Arc::clone(&service.max_depth);
        let running = spawn_reactor(service, ReactorConfig::default(), 2);

        let mut stream = TcpStream::connect(running.addr).unwrap();
        // Pipeline: three frames in one write, no interleaved reads.
        stream.write_all(b"alpha\nbeta\ngamma\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for expect in ["ALPHA", "BETA", "GAMMA"] {
            assert_eq!(read_line(&mut reader), expect);
        }
        assert!(max_depth.load(Ordering::SeqCst) >= 2, "pipeline depth never exceeded 1");
        running.stop();
    }

    #[test]
    fn queued_and_answered_frames_keep_their_order() {
        let running = spawn_reactor(EchoService::new(false), ReactorConfig::default(), 2);
        let mut stream = TcpStream::connect(running.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for _ in 0..20 {
            stream.write_all(b"q1\nd2\nq3\nq4\nd5\n").unwrap();
            for expect in ["Q1", "D2", "Q3", "Q4", "D5"] {
                assert_eq!(read_line(&mut reader), expect);
            }
        }
        running.stop();
    }

    /// A pipelined batch does not hold its thread: with one serving
    /// thread, a frame another connection sends while the batch runs is
    /// answered before the batch is.
    #[test]
    fn a_pipelined_batch_yields_to_other_connections() {
        let running = spawn_reactor(EchoService::new(false), ReactorConfig::default(), 1);
        let mut a = TcpStream::connect(running.addr).unwrap();
        let mut b = TcpStream::connect(running.addr).unwrap();
        let mut b_reader = BufReader::new(b.try_clone().unwrap());
        b.write_all(b"hi\n").unwrap(); // admitted before A's batch
        assert_eq!(read_line(&mut b_reader), "HI");

        const BATCH: usize = 50; // 1 s of work on the one thread
        a.write_all(&b"slow\n".repeat(BATCH)).unwrap();
        let a_answered = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&a_answered);
        let a_reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(a);
            for _ in 0..BATCH {
                assert_eq!(read_line(&mut reader), "SLOW");
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        while a_answered.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        for i in 0..5 {
            b.write_all(b"ping\n").unwrap();
            assert_eq!(read_line(&mut b_reader), "PING", "ping {i}");
        }
        // Each ping waited for at most one of A's frames.
        let answered = a_answered.load(Ordering::SeqCst);
        assert!(answered < BATCH / 2, "{answered} of A's {BATCH} frames ran before B's pings");
        a_reader.join().unwrap();
        running.stop();
    }

    /// Replies written before a frame was queued keep flowing to the peer
    /// while that frame waits, however long it waits.
    #[test]
    fn earlier_replies_flow_while_a_frame_waits_in_the_queue() {
        let service = EchoService::new(false);
        let (hold, queued) = (Arc::clone(&service.hold), Arc::clone(&service.queued));
        hold.store(true, Ordering::SeqCst);
        // No watermark pause: the unsent replies stay behind in the buffer.
        let config = ReactorConfig { high_watermark: 64 << 20, ..ReactorConfig::default() };
        let running = spawn_reactor(service, config, 2);

        let mut stream = TcpStream::connect(running.addr).unwrap();
        // 16 MiB of replies, more than the kernel's socket buffers hold,
        // before the held frame.
        const N: usize = 2000;
        let mut batch: Vec<u8> = (0..N).flat_map(|i| format!("amp:{i}\n").into_bytes()).collect();
        batch.extend_from_slice(b"q-held\n");
        stream.write_all(&batch).unwrap();
        while queued.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..N {
            let line = read_line(&mut reader);
            assert_eq!(line.split_once(':').unwrap().0, i.to_string(), "response order");
        }
        hold.store(false, Ordering::SeqCst);
        assert_eq!(read_line(&mut reader), "Q-HELD");
        running.stop();
    }

    #[test]
    fn sessions_open_and_close_exactly_once() {
        let service = EchoService::new(false);
        let opens = Arc::clone(&service.opens);
        let closes = Arc::clone(&service.closes);
        let running = spawn_reactor(service, ReactorConfig::default(), 2);

        for _ in 0..20 {
            let mut stream = TcpStream::connect(running.addr).unwrap();
            stream.write_all(b"hi\n").unwrap();
            assert_eq!(read_line(&mut BufReader::new(stream.try_clone().unwrap())), "HI");
        }
        // Wait for the serving threads to observe all the EOFs.
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) < 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(opens.load(Ordering::SeqCst), 20);
        assert_eq!(closes.load(Ordering::SeqCst), 20);
        // A connection still open at stop is closed once, by the last
        // thread out.
        let open = TcpStream::connect(running.addr).unwrap();
        (&open).write_all(b"hi\n").unwrap();
        assert_eq!(read_line(&mut BufReader::new(open.try_clone().unwrap())), "HI");
        running.stop();
        assert_eq!(opens.load(Ordering::SeqCst), 21);
        assert_eq!(closes.load(Ordering::SeqCst), 21);
    }

    #[test]
    fn panicking_dispatch_does_not_kill_worker() {
        let running = spawn_reactor(EchoService::new(false), ReactorConfig::default(), 1);
        let mut doomed = TcpStream::connect(running.addr).unwrap();
        doomed.write_all(b"panic\n").unwrap();
        let mut reader = BufReader::new(doomed);
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "its connection is closed");
        // The one serving thread survived and answers the next connection.
        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(b"alive\n").unwrap();
        assert_eq!(read_line(&mut BufReader::new(stream)), "ALIVE");
        running.stop();
    }

    #[test]
    fn oversized_frame_gets_error_then_close() {
        let config = ReactorConfig { max_frame_bytes: 64, ..ReactorConfig::default() };
        let running = spawn_reactor(EchoService::new(false), config, 2);

        let mut stream = TcpStream::connect(running.addr).unwrap();
        stream.write_all(&[b'x'; 200]).unwrap(); // no newline, over the limit
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), "OVERSIZE");
        let mut line = String::new();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "connection should be closed after the oversize frame");
        running.stop();
    }

    /// A peer still writing its oversized frame when the error is sent
    /// finishes the write, reads the error and then EOF — never a reset.
    #[test]
    fn oversized_frame_is_answered_before_the_rest_of_it_is_discarded() {
        let service = EchoService::new(false);
        let closes = Arc::clone(&service.closes);
        let config = ReactorConfig { max_frame_bytes: 64, ..ReactorConfig::default() };
        let running = spawn_reactor(service, config, 2);

        let mut stream = TcpStream::connect(running.addr).unwrap();
        // The server answers the first write; the later ones reach it after
        // the answer — a closed socket would reset the connection.
        for _ in 0..5 {
            stream.write_all(&[b'x'; 64 << 10]).expect("the server reads every write");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), "OVERSIZE", "the error frame arrives intact");
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then a clean FIN");
        drop(reader);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(closes.load(Ordering::SeqCst), 1, "closed at the peer's EOF");
        running.stop();
    }

    #[test]
    fn connection_limit_sends_reject_frame() {
        let config = ReactorConfig { max_connections: 2, ..ReactorConfig::default() };
        let running = spawn_reactor(EchoService::new(false), config, 2);

        let keep1 = TcpStream::connect(running.addr).unwrap();
        let keep2 = TcpStream::connect(running.addr).unwrap();
        // Make sure both were admitted before the third connects.
        for s in [&keep1, &keep2] {
            let mut s2 = s.try_clone().unwrap();
            s2.write_all(b"ok\n").unwrap();
            assert_eq!(read_line(&mut BufReader::new(s2)), "OK");
        }
        let third = TcpStream::connect(running.addr).unwrap();
        let mut reader = BufReader::new(third);
        assert_eq!(read_line(&mut reader), "REJECT");
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "rejected conn must be dropped");
        running.stop();
    }

    #[test]
    fn backpressure_pauses_and_resumes_reading() {
        let service = EchoService::new(false);
        let backpressure = Arc::clone(&service.backpressure);
        // Tiny watermarks so a single unread response trips the pause.
        let config =
            ReactorConfig { high_watermark: 64, low_watermark: 16, ..ReactorConfig::default() };
        let running = spawn_reactor(service, config, 2);

        let stream = TcpStream::connect(running.addr).unwrap();
        // Tiny amplifying requests from a writer thread while the main
        // thread refuses to read: 8 KB responses pile up far past every
        // kernel buffer and the server must stop reading us. (A thread,
        // because once the server pauses reads our own writes may block —
        // exactly the flow control under test.)
        const N: usize = 2000;
        let mut writer = stream.try_clone().unwrap();
        let writer_thread = std::thread::spawn(move || {
            for i in 0..N {
                writer.write_all(format!("amp:{i}\n").as_bytes()).unwrap();
            }
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while backpressure.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(backpressure.load(Ordering::SeqCst) > 0, "backpressure never engaged");

        // Now drain: every single response must still arrive, in order.
        let mut reader = BufReader::new(stream);
        for i in 0..N {
            let line = read_line(&mut reader);
            let (tag, fat) = line.split_once(':').unwrap();
            assert_eq!(tag, i.to_string(), "response order");
            assert_eq!(fat.len(), 8192);
        }
        writer_thread.join().unwrap();
        running.stop();
    }

    #[test]
    fn slow_loris_partial_frame_reaped_but_idle_conn_survives() {
        let config = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ReactorConfig::default()
        };
        let running = spawn_reactor(EchoService::new(false), config, 2);

        // A fully idle connection (no bytes at all) must survive.
        let idle = TcpStream::connect(running.addr).unwrap();
        // A half-open frame must be reaped after the deadline.
        let mut loris = TcpStream::connect(running.addr).unwrap();
        loris.write_all(b"{\"never\":\"finish").unwrap();

        std::thread::sleep(Duration::from_millis(1500));

        loris.set_read_timeout(Some(Duration::from_millis(500))).unwrap();
        let mut buf = [0u8; 16];
        match loris.read(&mut buf) {
            Ok(0) => {} // clean close observed
            Ok(n) => panic!("unexpected {n} bytes from reaped connection"),
            Err(e) => panic!("expected EOF from reaped connection, got {e}"),
        }

        // The idle connection still works end to end.
        let mut idle2 = idle.try_clone().unwrap();
        idle2.write_all(b"alive\n").unwrap();
        assert_eq!(read_line(&mut BufReader::new(idle)), "ALIVE");
        running.stop();
    }

    #[test]
    fn frames_split_at_byte_boundaries_over_tcp() {
        let running = spawn_reactor(EchoService::new(false), ReactorConfig::default(), 2);

        let input = b"first\nsecond\n";
        for split in 1..input.len() {
            let mut stream = TcpStream::connect(running.addr).unwrap();
            stream.write_all(&input[..split]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
            stream.write_all(&input[split..]).unwrap();
            let mut reader = BufReader::new(stream);
            assert_eq!(read_line(&mut reader), "FIRST", "split {split}");
            assert_eq!(read_line(&mut reader), "SECOND", "split {split}");
        }
        running.stop();
    }
}
