//! The event loop: one thread owns every socket, a slab of per-connection
//! state machines turns readiness into complete frames, and a [`Service`]
//! decides what each frame means.
//!
//! Design points, in the order they matter:
//!
//! - **Pipelining, in order.** A client may send many frames without
//!   waiting. The reactor queues parsed frames per connection and keeps
//!   *at most one* dispatched at a time, so responses come back in request
//!   order without any reorder buffer — and per-session state is never
//!   contended between two in-flight jobs of the same connection.
//! - **Backpressure.** When a connection's write backlog crosses the high
//!   watermark the reactor stops reading from it; reading resumes at the
//!   low watermark. A slow reader therefore bounds its own memory, not the
//!   server's.
//! - **Graceful overload.** Accept errors like EMFILE pause the accept
//!   interest briefly instead of busy-spinning; over the connection limit
//!   the service's reject frame is written best-effort and the socket
//!   dropped. Nothing stalls the accept queue silently.
//! - **Slow-loris defence without idle reaping.** The idle deadline
//!   applies only to connections holding an *incomplete* frame. Thousands
//!   of fully-idle keep-alive connections cost nothing and are never
//!   reaped.

use crate::buffer::{Frame, ReadBuffer, WriteBuffer};
use crate::poller::{Event, Interest, Poller, Token, Waker};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the reactor asks of the protocol layer. Implementations must not
/// block inside `dispatch` — hand the frame to an executor (or complete
/// inline) and return; the reactor thread is the server's I/O heart.
pub trait Service {
    /// Per-connection protocol state (e.g. a prepared-statement registry).
    type Session: Send + 'static;

    /// A connection was accepted and admitted.
    fn open(&self) -> Self::Session;

    /// A connection ended (EOF, error, deadline, shutdown). Called exactly
    /// once per admitted connection; the session Arc is dropped after.
    fn closed(&self, _session: &Arc<Mutex<Self::Session>>) {}

    /// Handle one complete frame. Respond via `done.send(bytes)` — bytes
    /// must include the trailing newline; send empty bytes for "no
    /// response". Dropping `done` unanswered counts as an empty response.
    fn dispatch(&self, session: &Arc<Mutex<Self::Session>>, frame: Vec<u8>, done: Done);

    /// Frame written before dropping a connection over the limit.
    fn reject_frame(&self) -> Vec<u8>;

    /// Frame written before closing a connection whose unterminated input
    /// exceeded the frame limit.
    fn oversize_frame(&self) -> Vec<u8>;

    /// A socket was accepted (admitted or not).
    fn on_accept(&self) {}

    /// Reading from a connection was paused by the write-side watermark.
    fn on_backpressure(&self) {}

    /// Depth of a connection's pipeline (queued + in-flight) observed as a
    /// completed frame arrived.
    fn on_pipeline_depth(&self, _depth: usize) {}
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

const LISTENER_TOKEN: Token = usize::MAX;
const WAKER_TOKEN: Token = usize::MAX - 1;
const READ_CHUNK: usize = 16 * 1024;
const SWEEP_INTERVAL: Duration = Duration::from_millis(500);
const ACCEPT_PAUSE: Duration = Duration::from_millis(100);
/// After its last frame is flushed, a closing connection's write side is
/// shut down and its input discarded until EOF — at most this many bytes,
/// for at most [`CLOSE_DRAIN_TIME`] — so the peer reads that frame before
/// the socket closes: closing with unread input makes the kernel answer
/// with a reset, which can destroy the frame in the peer's receive queue.
const CLOSE_DRAIN_BYTES: usize = 16 << 20;
const CLOSE_DRAIN_TIME: Duration = Duration::from_secs(2);

struct Completion {
    slot: usize,
    generation: u64,
    bytes: Vec<u8>,
}

struct Shared {
    completions: Mutex<Vec<Completion>>,
    waker: Arc<Waker>,
    stop: AtomicBool,
}

/// One-shot response channel handed to [`Service::dispatch`]. Send from
/// any thread; the reactor wakes and flushes to the right connection (or
/// discards if the connection died in the meantime — the generation tag
/// prevents delivery to a recycled slot).
pub struct Done {
    shared: Arc<Shared>,
    slot: usize,
    generation: u64,
    sent: bool,
}

impl Done {
    /// Completes the frame with `bytes` (trailing newline included; empty
    /// means "no response").
    pub fn send(mut self, bytes: Vec<u8>) {
        self.deliver(bytes);
    }

    fn deliver(&mut self, bytes: Vec<u8>) {
        if self.sent {
            return;
        }
        self.sent = true;
        let mut q = self.shared.completions.lock().unwrap();
        q.push(Completion { slot: self.slot, generation: self.generation, bytes });
        drop(q);
        self.shared.waker.wake();
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        // A job that panicked or forgot to answer must not wedge the
        // connection's pipeline: treat it as an empty response.
        self.deliver(Vec::new());
    }
}

/// Stops a running reactor from another thread.
#[derive(Clone)]
pub struct ReactorStop {
    shared: Arc<Shared>,
}

impl ReactorStop {
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.waker.wake();
    }
}

struct Conn<S> {
    stream: TcpStream,
    session: Arc<Mutex<S>>,
    rbuf: ReadBuffer,
    wbuf: WriteBuffer,
    /// Parsed frames waiting their turn behind the in-flight one.
    queued: VecDeque<Vec<u8>>,
    in_flight: bool,
    interest: Interest,
    /// Reading paused by the write-side high watermark.
    read_blocked: bool,
    /// Flush pending output, then drain and close (oversize / fatal
    /// protocol state).
    closing: bool,
    /// Set once a closing connection's output is flushed and its write side
    /// shut down: input is discarded until EOF, this deadline, or
    /// [`CLOSE_DRAIN_BYTES`] more bytes, whichever comes first.
    draining: Option<(Instant, usize)>,
    /// When the currently buffered partial frame started waiting.
    partial_since: Option<Instant>,
}

struct Slot<S> {
    generation: u64,
    conn: Option<Conn<S>>,
}

/// The event loop. Create with [`Reactor::new`], grab a [`ReactorStop`]
/// via [`Reactor::stop_handle`], then hand the reactor to its own thread
/// and call [`Reactor::run`].
pub struct Reactor<S: Service> {
    poller: Poller,
    listener: TcpListener,
    service: S,
    config: ReactorConfig,
    shared: Arc<Shared>,
    slots: Vec<Slot<S::Session>>,
    free: Vec<usize>,
    open: usize,
    accept_paused_until: Option<Instant>,
    last_sweep: Instant,
}

impl<S: Service> Reactor<S> {
    pub fn new(listener: TcpListener, service: S, config: ReactorConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READABLE)?;
        let waker = Waker::new(&poller, WAKER_TOKEN)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            waker,
            stop: AtomicBool::new(false),
        });
        Ok(Reactor {
            poller,
            listener,
            service,
            config,
            shared,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            accept_paused_until: None,
            last_sweep: Instant::now(),
        })
    }

    pub fn stop_handle(&self) -> ReactorStop {
        ReactorStop { shared: Arc::clone(&self.shared) }
    }

    /// Runs the event loop until [`ReactorStop::stop`] is called. Consumes
    /// the reactor; every live connection gets its `closed` hook on exit.
    pub fn run(mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            events.clear();
            self.poller.wait(&mut events, Some(SWEEP_INTERVAL.as_millis() as i32))?;
            if self.shared.stop.load(Ordering::Acquire) {
                break;
            }
            let mut accept_ready = false;
            let batch = std::mem::take(&mut events);
            for &ev in &batch {
                match ev.token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKER_TOKEN => self.shared.waker.drain(),
                    slot => self.handle_conn_event(slot, ev, &mut scratch),
                }
            }
            events = batch;
            self.drain_completions();
            // Accept last so a slot freed in this batch can't be recycled
            // while stale events for it are still in `events`.
            if accept_ready {
                self.accept_burst();
            }
            self.sweep();
        }
        // Graceful shutdown: every admitted connection is closed exactly once.
        for slot in 0..self.slots.len() {
            if self.slots[slot].conn.is_some() {
                self.close_conn(slot);
            }
        }
        Ok(())
    }

    // -- accept path --------------------------------------------------------

    fn accept_burst(&mut self) {
        if let Some(until) = self.accept_paused_until {
            if Instant::now() < until {
                return;
            }
            self.accept_paused_until = None;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.service.on_accept();
                    if self.open >= self.config.max_connections {
                        // Best-effort typed rejection; never block the loop.
                        let _ = stream.set_nonblocking(true);
                        let _ = (&stream).write(&self.service.reject_frame());
                        continue; // stream drops -> RST/FIN, slot never allocated
                    }
                    if let Err(e) = self.admit(stream) {
                        // Registration failure (fd pressure): back off.
                        let _ = e;
                        self.pause_accept();
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE/ENFILE/ECONNABORTED storms: pause briefly so a
                    // level-triggered listener doesn't busy-spin, then let
                    // the sweep re-arm accepting.
                    self.pause_accept();
                    return;
                }
            }
        }
    }

    fn pause_accept(&mut self) {
        self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
    }

    fn admit(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        // Responses are small frames written as they complete: with Nagle
        // on, the tail of a pipelined batch waits out the peer's delayed
        // ACK (~40 ms per batch). Best-effort, like the threaded front end.
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(Slot { generation: 0, conn: None });
                self.slots.len() - 1
            }
        };
        self.poller.register(stream.as_raw_fd(), slot, Interest::READABLE)?;
        let session = Arc::new(Mutex::new(self.service.open()));
        self.slots[slot].conn = Some(Conn {
            stream,
            session,
            rbuf: ReadBuffer::new(self.config.max_frame_bytes),
            wbuf: WriteBuffer::new(self.config.high_watermark, self.config.low_watermark),
            queued: VecDeque::new(),
            in_flight: false,
            interest: Interest::READABLE,
            read_blocked: false,
            closing: false,
            draining: None,
            partial_since: None,
        });
        self.open += 1;
        Ok(())
    }

    // -- connection events --------------------------------------------------

    fn handle_conn_event(&mut self, slot: usize, ev: Event, scratch: &mut [u8]) {
        if slot >= self.slots.len() || self.slots[slot].conn.is_none() {
            return; // stale event for an already-closed connection
        }
        if (ev.readable || ev.closed) && !self.read_ready(slot, scratch) {
            return; // connection closed
        }
        if ev.writable && !self.write_ready(slot) {
            return;
        }
        self.update_interest(slot);
    }

    /// Drains the socket until WouldBlock. Returns false if the connection
    /// was closed.
    fn read_ready(&mut self, slot: usize, scratch: &mut [u8]) -> bool {
        loop {
            let conn = self.slots[slot].conn.as_mut().unwrap();
            if (conn.closing && conn.draining.is_none()) || conn.read_blocked {
                return true;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) if conn.draining.is_some() => {
                    let (_, left) = conn.draining.as_mut().unwrap();
                    *left = left.saturating_sub(n);
                    if *left == 0 {
                        self.close_conn(slot);
                        return false;
                    }
                }
                Ok(n) => {
                    conn.rbuf.extend(&scratch[..n]);
                    if !self.drain_frames(slot) {
                        return false;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        }
    }

    /// Parses every complete frame out of the read buffer, enqueueing or
    /// dispatching each. Returns false if the connection was closed.
    fn drain_frames(&mut self, slot: usize) -> bool {
        loop {
            let conn = self.slots[slot].conn.as_mut().unwrap();
            match conn.rbuf.next_frame() {
                Frame::Complete(frame) => {
                    conn.partial_since = None;
                    let depth = conn.queued.len() + conn.in_flight as usize + 1;
                    self.service.on_pipeline_depth(depth);
                    let conn = self.slots[slot].conn.as_mut().unwrap();
                    if conn.in_flight {
                        conn.queued.push_back(frame);
                    } else {
                        conn.in_flight = true;
                        let session = Arc::clone(&conn.session);
                        let done = self.done_for(slot);
                        self.service.dispatch(&session, frame, done);
                    }
                }
                Frame::Partial => {
                    if conn.rbuf.has_partial() && conn.partial_since.is_none() {
                        conn.partial_since = Some(Instant::now());
                    } else if !conn.rbuf.has_partial() {
                        conn.partial_since = None;
                    }
                    // A deep enough response backlog pauses further reads.
                    if conn.wbuf.above_high_watermark() && !conn.read_blocked {
                        conn.read_blocked = true;
                        self.service.on_backpressure();
                    }
                    return true;
                }
                Frame::Oversized => {
                    let oversize = self.service.oversize_frame();
                    let conn = self.slots[slot].conn.as_mut().unwrap();
                    conn.wbuf.push(&oversize);
                    conn.closing = true;
                    conn.queued.clear();
                    return self.flush_or_close(slot);
                }
            }
        }
    }

    /// Writes as much pending output as the socket accepts. Returns false
    /// if the connection was closed.
    fn write_ready(&mut self, slot: usize) -> bool {
        loop {
            let conn = self.slots[slot].conn.as_mut().unwrap();
            if conn.wbuf.is_empty() {
                break;
            }
            match conn.stream.write(conn.wbuf.pending()) {
                Ok(0) => {
                    self.close_conn(slot);
                    return false;
                }
                Ok(n) => conn.wbuf.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return false;
                }
            }
        }
        let conn = self.slots[slot].conn.as_mut().unwrap();
        if conn.read_blocked && conn.wbuf.below_low_watermark() && !conn.closing {
            conn.read_blocked = false;
        }
        self.flush_or_close(slot)
    }

    /// If the connection is closing and its output is flushed, shut down
    /// its write side and start discarding its input (see
    /// [`CLOSE_DRAIN_BYTES`]); it closes at EOF. Returns false when the
    /// shutdown failed and the connection closed.
    fn flush_or_close(&mut self, slot: usize) -> bool {
        let conn = self.slots[slot].conn.as_mut().unwrap();
        if conn.closing && conn.draining.is_none() && conn.wbuf.is_empty() && !conn.in_flight {
            if conn.stream.shutdown(std::net::Shutdown::Write).is_err() {
                self.close_conn(slot);
                return false;
            }
            conn.draining = Some((Instant::now() + CLOSE_DRAIN_TIME, CLOSE_DRAIN_BYTES));
            conn.read_blocked = false;
        }
        true
    }

    // -- completions --------------------------------------------------------

    fn done_for(&self, slot: usize) -> Done {
        Done {
            shared: Arc::clone(&self.shared),
            slot,
            generation: self.slots[slot].generation,
            sent: false,
        }
    }

    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for done in batch {
            let slot = done.slot;
            if slot >= self.slots.len() || self.slots[slot].generation != done.generation {
                continue; // connection died while the job ran
            }
            let Some(conn) = self.slots[slot].conn.as_mut() else { continue };
            conn.wbuf.push(&done.bytes);
            conn.in_flight = false;
            // Keep the pipeline moving: next queued frame goes in-flight.
            if let Some(next) = conn.queued.pop_front() {
                conn.in_flight = true;
                let session = Arc::clone(&conn.session);
                let done = self.done_for(slot);
                self.service.dispatch(&session, next, done);
            }
            // Opportunistic flush — don't wait for the next writable event.
            if self.write_ready(slot) {
                // The backlog grows on this path too: a slow reader must
                // stop being read from even between its own read events.
                if let Some(conn) = self.slots[slot].conn.as_mut() {
                    if conn.wbuf.above_high_watermark() && !conn.read_blocked {
                        conn.read_blocked = true;
                        self.service.on_backpressure();
                    }
                }
                self.update_interest(slot);
            }
        }
    }

    // -- bookkeeping --------------------------------------------------------

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.slots[slot].conn.as_mut() else { return };
        let want = Interest {
            readable: (!conn.closing || conn.draining.is_some()) && !conn.read_blocked,
            writable: !conn.wbuf.is_empty(),
        };
        if want != conn.interest && self.poller.modify(conn.stream.as_raw_fd(), slot, want).is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let conn = self.slots[slot].conn.take().unwrap();
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.service.closed(&conn.session);
        self.slots[slot].generation += 1;
        self.free.push(slot);
        self.open -= 1;
        // stream drops here, closing the fd
    }

    fn sweep(&mut self) {
        let now = Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        if let Some(until) = self.accept_paused_until {
            if now >= until {
                self.accept_paused_until = None;
                self.accept_burst();
            }
        }
        let idle = self.config.idle_timeout;
        for slot in 0..self.slots.len() {
            let stale = match &self.slots[slot].conn {
                Some(c) => {
                    c.draining.is_some_and(|(until, _)| now >= until)
                        || idle.is_some_and(|deadline| {
                            c.partial_since.is_some_and(|t| now.duration_since(t) > deadline)
                        })
                }
                None => false,
            };
            if stale {
                self.close_conn(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::atomic::AtomicUsize;

    /// Echoes each frame back uppercased, optionally via a worker thread.
    struct EchoService {
        threaded: bool,
        opens: Arc<AtomicUsize>,
        closes: Arc<AtomicUsize>,
        backpressure: Arc<AtomicUsize>,
        max_depth: Arc<AtomicUsize>,
    }

    impl EchoService {
        fn new(threaded: bool) -> EchoService {
            EchoService {
                threaded,
                opens: Arc::new(AtomicUsize::new(0)),
                closes: Arc::new(AtomicUsize::new(0)),
                backpressure: Arc::new(AtomicUsize::new(0)),
                max_depth: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Service for EchoService {
        type Session = u64;

        fn open(&self) -> u64 {
            self.opens.fetch_add(1, Ordering::SeqCst);
            0
        }

        fn closed(&self, _session: &Arc<Mutex<u64>>) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }

        fn dispatch(&self, session: &Arc<Mutex<u64>>, frame: Vec<u8>, done: Done) {
            *session.lock().unwrap() += 1;
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
            if self.threaded {
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(2));
                    done.send(out);
                });
            } else {
                done.send(out);
            }
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

    fn spawn_reactor(
        service: EchoService,
        config: ReactorConfig,
    ) -> (std::net::SocketAddr, ReactorStop, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, service, config).unwrap();
        let stop = reactor.stop_handle();
        let join = std::thread::spawn(move || reactor.run().unwrap());
        (addr, stop, join)
    }

    #[test]
    fn admitted_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut reactor =
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
        let conn = reactor.slots[0].conn.as_ref().expect("admitted connection");
        assert!(conn.stream.nodelay().unwrap(), "admit must set TCP_NODELAY");
    }

    #[test]
    fn echo_roundtrip_and_pipelining_order() {
        let service = EchoService::new(true);
        let max_depth = Arc::clone(&service.max_depth);
        let (addr, stop, join) = spawn_reactor(service, ReactorConfig::default());

        let mut stream = TcpStream::connect(addr).unwrap();
        // Pipeline: three frames in one write, no interleaved reads.
        stream.write_all(b"alpha\nbeta\ngamma\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        for expect in ["ALPHA", "BETA", "GAMMA"] {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), expect);
        }
        assert!(max_depth.load(Ordering::SeqCst) >= 2, "pipeline depth never exceeded 1");
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn sessions_open_and_close_exactly_once() {
        let service = EchoService::new(false);
        let opens = Arc::clone(&service.opens);
        let closes = Arc::clone(&service.closes);
        let (addr, stop, join) = spawn_reactor(service, ReactorConfig::default());

        for _ in 0..20 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"hi\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "HI");
            drop(reader);
            drop(stream);
        }
        // Wait for the reactor to observe all the EOFs.
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) < 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(opens.load(Ordering::SeqCst), 20);
        assert_eq!(closes.load(Ordering::SeqCst), 20);
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn oversized_frame_gets_error_then_close() {
        let service = EchoService::new(false);
        let config = ReactorConfig { max_frame_bytes: 64, ..ReactorConfig::default() };
        let (addr, stop, join) = spawn_reactor(service, config);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[b'x'; 200]).unwrap(); // no newline, over the limit
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OVERSIZE");
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "connection should be closed after the oversize frame");
        stop.stop();
        join.join().unwrap();
    }

    /// A peer still writing its oversized frame when the error is sent
    /// finishes the write, reads the error and then EOF — never a reset.
    #[test]
    fn oversized_frame_is_answered_before_the_rest_of_it_is_discarded() {
        let service = EchoService::new(false);
        let closes = Arc::clone(&service.closes);
        let config = ReactorConfig { max_frame_bytes: 64, ..ReactorConfig::default() };
        let (addr, stop, join) = spawn_reactor(service, config);

        let mut stream = TcpStream::connect(addr).unwrap();
        // The server answers the first write; the later ones reach it after
        // the answer — a closed socket would reset the connection.
        for _ in 0..5 {
            stream.write_all(&[b'x'; 64 << 10]).expect("the server reads every write");
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).expect("the error frame arrives intact");
        assert_eq!(line.trim_end(), "OVERSIZE");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then a clean FIN");
        drop(reader);
        drop(stream);
        let deadline = Instant::now() + Duration::from_secs(5);
        while closes.load(Ordering::SeqCst) < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(closes.load(Ordering::SeqCst), 1, "closed at the peer's EOF");
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn connection_limit_sends_reject_frame() {
        let service = EchoService::new(false);
        let config = ReactorConfig { max_connections: 2, ..ReactorConfig::default() };
        let (addr, stop, join) = spawn_reactor(service, config);

        let keep1 = TcpStream::connect(addr).unwrap();
        let keep2 = TcpStream::connect(addr).unwrap();
        // Make sure both were admitted before the third connects.
        for s in [&keep1, &keep2] {
            let mut s2 = s.try_clone().unwrap();
            s2.write_all(b"ok\n").unwrap();
            let mut reader = BufReader::new(s2);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "OK");
        }
        let third = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(third);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "REJECT");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "rejected conn must be dropped");
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn backpressure_pauses_and_resumes_reading() {
        let service = EchoService::new(false);
        let backpressure = Arc::clone(&service.backpressure);
        // Tiny watermarks so a single unread response trips the pause.
        let config =
            ReactorConfig { high_watermark: 64, low_watermark: 16, ..ReactorConfig::default() };
        let (addr, stop, join) = spawn_reactor(service, config);

        let stream = TcpStream::connect(addr).unwrap();
        // Tiny amplifying requests from a writer thread while the main
        // thread refuses to read: 8 KB responses pile up far past every
        // kernel buffer and the reactor must stop reading us. (A thread,
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
        let mut line = String::new();
        for i in 0..N {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let (tag, fat) = line.trim_end().split_once(':').unwrap();
            assert_eq!(tag, i.to_string(), "response order");
            assert_eq!(fat.len(), 8192);
        }
        writer_thread.join().unwrap();
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn slow_loris_partial_frame_reaped_but_idle_conn_survives() {
        let service = EchoService::new(false);
        let config = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ReactorConfig::default()
        };
        let (addr, stop, join) = spawn_reactor(service, config);

        // A fully idle connection (no bytes at all) must survive.
        let idle = TcpStream::connect(addr).unwrap();
        // A half-open frame must be reaped after the deadline.
        let mut loris = TcpStream::connect(addr).unwrap();
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
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ALIVE");
        stop.stop();
        join.join().unwrap();
    }

    #[test]
    fn frames_split_at_byte_boundaries_over_tcp() {
        let service = EchoService::new(false);
        let (addr, stop, join) = spawn_reactor(service, ReactorConfig::default());

        let input = b"first\nsecond\n";
        for split in 1..input.len() {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(&input[..split]).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
            stream.write_all(&input[split..]).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "FIRST", "split {split}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), "SECOND", "split {split}");
        }
        stop.stop();
        join.join().unwrap();
    }
}
