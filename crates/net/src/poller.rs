//! Safe wrapper over Linux's readiness facility (epoll + eventfd):
//! register fds with a token + interest, block for events, and wake the
//! blocked thread from outside.

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;
use std::sync::Arc;

/// Opaque per-registration cookie echoed back in events.
pub type Token = usize;

/// Which readiness directions a registration listens for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    pub const WRITABLE: Interest = Interest { readable: false, writable: true };
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub token: Token,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup — the owner should read to EOF / tear down.
    pub closed: bool,
}

const EVENT_CAPACITY: usize = 256;

pub struct Poller {
    epfd: RawFd,
    events: Vec<sys::EpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = sys::epoll_create()?;
        Ok(Poller { epfd, events: vec![sys::EpollEvent { events: 0, data: 0 }; EVENT_CAPACITY] })
    }

    fn bits(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLRDHUP;
        if interest.readable {
            bits |= sys::EPOLLIN;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::bits(interest), token as u64)
    }

    pub fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::bits(interest), token as u64)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (None = forever) and appends readiness
    /// events to `out`. EINTR is treated as an empty wakeup.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<()> {
        let n = match sys::epoll_poll(self.epfd, &mut self.events, timeout_ms.unwrap_or(-1)) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in &self.events[..n] {
            let bits = ev.events;
            out.push(Event {
                token: ev.data as Token,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

/// Wakes a `Poller` blocked in `wait` from another thread. Cloneable and
/// cheap: one eventfd registered under a caller-chosen token.
pub struct Waker {
    efd: RawFd,
}

impl Waker {
    /// Creates the waker and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Arc<Waker>> {
        let efd = sys::eventfd_create()?;
        poller.register(efd, token, Interest::READABLE)?;
        Ok(Arc::new(Waker { efd }))
    }

    /// Forces the poller's current/next `wait` to return.
    pub fn wake(&self) {
        sys::eventfd_signal(self.efd);
    }

    /// Called by the poll loop when the waker token fires, so the next
    /// `wake` is visible again.
    pub fn drain(&self) {
        sys::eventfd_drain(self.efd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        sys::close(self.efd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn readiness_roundtrip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        use std::os::unix::io::AsRawFd;
        poller.register(server.as_raw_fd(), 7, Interest::READABLE).unwrap();

        client.write_all(b"ping").unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(2000)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");

        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // Level-triggered with nothing buffered: a short wait times out.
        events.clear();
        poller.wait(&mut events, Some(50)).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable), "{events:?}");

        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_wait_across_threads() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 99).unwrap();
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        poller.wait(&mut events, Some(5000)).unwrap();
        assert!(events.iter().any(|e| e.token == 99), "{events:?}");
        waker.drain();
        t.join().unwrap();

        // Drained: next short wait must time out, then a second wake works.
        events.clear();
        poller.wait(&mut events, Some(50)).unwrap();
        assert!(events.is_empty(), "{events:?}");
        waker.wake();
        poller.wait(&mut events, Some(2000)).unwrap();
        assert!(events.iter().any(|e| e.token == 99), "{events:?}");
    }

    #[test]
    fn write_interest_fires_when_connected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (_server, _) = listener.accept().unwrap();

        use std::os::unix::io::AsRawFd;
        poller.register(client.as_raw_fd(), 3, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(2000)).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable), "{events:?}");
        poller.deregister(client.as_raw_fd()).unwrap();
    }
}
