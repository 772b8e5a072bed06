//! astore-net — a std-only event-driven connection front-end.
//!
//! The offline build environment precludes tokio/mio, so this crate is a
//! small, self-contained reactor in the mio mold: a thin FFI layer over
//! epoll in `sys`, a safe [`poller::Poller`] + [`poller::Waker`] on top,
//! newline-framing byte buffers in [`buffer`],
//! and the [`reactor::Reactor`] event loop that turns 10K+ sockets into a
//! stream of complete frames handed to a [`reactor::Service`].
//!
//! ```text
//!   sockets ──► Poller (epoll) ─────────► Reactor ──► Service::dispatch
//!                        ▲                  │   per-conn state machine:
//!                        │ Waker            │   incremental framing,
//!   executor threads ────┴── Done::send ◄───┘   pipelining, watermarks
//! ```
//!
//! Everything `unsafe` lives in `sys`; the rest of the crate forbids it.

#![deny(unsafe_code)] // `sys` opts back in explicitly

#[cfg(not(target_os = "linux"))]
compile_error!("astore-net polls with epoll: the server builds for Linux only");

pub mod buffer;
pub mod poller;
#[allow(unsafe_code)]
mod sys;

pub mod reactor;

pub use buffer::{Frame, ReadBuffer, WriteBuffer};
pub use poller::{Event, Interest, Poller, Token, Waker};
pub use reactor::{Done, Reactor, ReactorConfig, ReactorStop, Service};
