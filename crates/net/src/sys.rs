//! Thin raw-syscall FFI for the poller — the only `unsafe` in the crate.
//!
//! The build environment is offline, so instead of the `libc` crate these
//! are hand-written `extern "C"` declarations against the C library the
//! Rust standard library already links (glibc or musl: the crate is
//! Linux-only). Every wrapper converts the C return convention (-1 + `errno`)
//! into `std::io::Result` and hands ownership of file descriptors to the
//! caller as plain `RawFd`s — the safe modules above wrap them in types
//! whose `Drop` closes them exactly once.

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// Converts a `-1`-on-error C return into `io::Result`.
fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Closes a file descriptor (idempotence is the caller's job).
pub fn close(fd: RawFd) {
    extern "C" {
        fn close(fd: c_int) -> c_int;
    }
    // Ignore the result: double-close is excluded by ownership, and EINTR
    // on close must not retry (the fd is gone either way on Linux).
    unsafe {
        close(fd);
    }
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;
/// Disarm a registration after it reports one event; `EPOLL_CTL_MOD` re-arms it.
pub const EPOLLONESHOT: u32 = 1 << 30;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// One readiness record. The kernel and glibc pack the struct on
/// x86-64 only (12 bytes); every other architecture pads it to 16.
/// Mirror that exactly — the wrong layout would shear every second
/// event in the `epoll_wait` output array.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// `EPOLLIN | EPOLLOUT | …` readiness bits.
    pub events: u32,
    /// Caller-owned cookie (the poller stores its token here).
    pub data: u64,
}

const _: () = assert!(
    std::mem::size_of::<EpollEvent>() == if cfg!(target_arch = "x86_64") { 12 } else { 16 }
);

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// A fresh close-on-exec epoll instance.
pub fn epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Adds/modifies/removes `fd` with the given interest + token.
pub fn epoll_control(epfd: RawFd, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data: token };
    // DEL ignores the event argument but old kernels want it non-null.
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(drop)
}

/// Blocks for readiness; fills `events` and returns how many fired.
/// `timeout_ms` of -1 blocks indefinitely.
pub fn epoll_poll(epfd: RawFd, events: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
    let n =
        cvt(unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as c_int, timeout_ms) })?;
    Ok(n as usize)
}

/// A nonblocking close-on-exec eventfd (the serving threads' wake channel).
pub fn eventfd_create() -> io::Result<RawFd> {
    cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })
}

/// Posts one wake to an eventfd. Saturation (EAGAIN on an already-
/// signalled counter) is success: the reader will wake regardless.
pub fn eventfd_signal(fd: RawFd) {
    let one: u64 = 1;
    unsafe {
        write(fd, (&one as *const u64).cast(), 8);
    }
}

/// Drains an eventfd so it can signal again.
pub fn eventfd_drain(fd: RawFd) {
    let mut buf = [0u8; 8];
    unsafe {
        read(fd, buf.as_mut_ptr(), 8);
    }
}
