//! Safe wrapper over Linux's readiness facility (epoll + eventfd). Every
//! registration is one-shot: it reports one event, then stays silent until
//! [`Poller::modify`] re-arms it. Of several threads waiting on one poller,
//! exactly one therefore receives a given fd's readiness, and it owns the
//! fd until it re-arms it.

use crate::sys;
use std::io;
use std::os::unix::io::RawFd;

/// Opaque per-registration cookie echoed back in events.
pub type Token = u64;

/// Which readiness directions a registration listens for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READABLE: Interest = Interest { readable: true, writable: false };
    pub const BOTH: Interest = Interest { readable: true, writable: true };
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

pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { epfd: sys::epoll_create()? })
    }

    fn bits(interest: Interest) -> u32 {
        let mut bits = sys::EPOLLONESHOT;
        if interest.readable {
            // A peer's half-close only matters to a connection that reads.
            bits |= sys::EPOLLIN | sys::EPOLLRDHUP;
        }
        if interest.writable {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    /// Registers `fd`, armed for one event.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_ADD, fd, Self::bits(interest), token)
    }

    /// Re-arms `fd` for one more event. A direction already ready reports
    /// at once.
    pub fn modify(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, fd, Self::bits(interest), token)
    }

    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        sys::epoll_control(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Blocks up to `timeout_ms` (None = forever) for one event: each
    /// waiting thread takes one at a time. EINTR is an empty wakeup.
    pub fn wait(&self, timeout_ms: Option<i32>) -> io::Result<Option<Event>> {
        let mut ev = [sys::EpollEvent { events: 0, data: 0 }];
        match sys::epoll_poll(self.epfd, &mut ev, timeout_ms.unwrap_or(-1)) {
            Ok(0) => Ok(None),
            Ok(_) => {
                let (bits, token) = (ev[0].events, ev[0].data);
                Ok(Some(Event {
                    token,
                    readable: bits & sys::EPOLLIN != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                }))
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close(self.epfd);
    }
}

/// Wakes one thread blocked in [`Poller::wait`]: an eventfd registered
/// under a caller-chosen token. It must not outlive its poller.
pub struct Waker {
    efd: RawFd,
    epfd: RawFd,
    token: Token,
}

impl Waker {
    /// Creates the waker and registers it with `poller` under `token`.
    pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
        let efd = sys::eventfd_create()?;
        let waker = Waker { efd, epfd: poller.epfd, token };
        poller.register(efd, token, Interest::READABLE)?;
        Ok(waker)
    }

    /// Makes one current or next `wait` return with the waker's token.
    pub fn wake(&self) {
        sys::eventfd_signal(self.efd);
    }

    /// Called by the thread the wake reached: consumes it and re-arms the
    /// registration, so the next `wake` reaches a waiting thread again.
    pub fn drain(&self) {
        sys::eventfd_drain(self.efd);
        let bits = Poller::bits(Interest::READABLE);
        let _ = sys::epoll_control(self.epfd, sys::EPOLL_CTL_MOD, self.efd, bits, self.token);
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
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[test]
    fn readiness_roundtrip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.register(server.as_raw_fd(), 7, Interest::READABLE).unwrap();

        client.write_all(b"ping").unwrap();
        let ev = poller.wait(Some(2000)).unwrap().expect("readable");
        assert!(ev.token == 7 && ev.readable, "{ev:?}");

        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // One-shot: silent until re-armed, and re-armed with nothing
        // buffered it stays silent.
        client.write_all(b"pong").unwrap();
        assert!(poller.wait(Some(50)).unwrap().is_none());
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"pong");
        poller.modify(server.as_raw_fd(), 7, Interest::READABLE).unwrap();
        assert!(poller.wait(Some(50)).unwrap().is_none());
        client.write_all(b"again").unwrap();
        let ev = poller.wait(Some(2000)).unwrap().expect("re-armed");
        assert!(ev.token == 7 && ev.readable, "{ev:?}");

        poller.deregister(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_interrupts_wait_across_threads() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 99).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let ev = poller.wait(Some(5000)).unwrap().expect("woken");
            assert_eq!(ev.token, 99);
        });
        waker.drain();

        // Drained: the next short wait times out, then a second wake works.
        assert!(poller.wait(Some(50)).unwrap().is_none());
        waker.wake();
        let ev = poller.wait(Some(2000)).unwrap().expect("woken again");
        assert_eq!(ev.token, 99);
    }

    #[test]
    fn write_interest_fires_when_connected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (_server, _) = listener.accept().unwrap();

        poller.register(client.as_raw_fd(), 3, Interest::BOTH).unwrap();
        let ev = poller.wait(Some(2000)).unwrap().expect("writable");
        assert!(ev.token == 3 && ev.writable, "{ev:?}");
        poller.deregister(client.as_raw_fd()).unwrap();
    }
}
