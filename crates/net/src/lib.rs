//! astore-net — a std-only event-driven connection front-end.
//!
//! The offline build environment precludes tokio/mio, so this crate is a
//! small, self-contained serving loop: a thin FFI layer over epoll in
//! `sys`, a safe one-shot [`poller::Poller`] + [`poller::Waker`] on top,
//! newline-framing byte buffers in [`buffer`], and the [`reactor::Reactor`]
//! whose serving threads turn 10K+ sockets into complete frames and answer
//! each through a [`reactor::Service`] on the thread that owns its socket.
//!
//! ```text
//!   sockets ──► Poller (epoll, one-shot) ──► serving thread 0..n
//!                  ▲                           │ reads, frames, calls
//!                  │ re-arm after the turn     │ Service::dispatch, writes
//!                  └───────────────────────────┘ the reply itself
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
pub use reactor::{ConnId, Queued, Reactor, ReactorConfig, ReactorHandle, Service};
