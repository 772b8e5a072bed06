//! # astore-obs
//!
//! The observability substrate for the A-Store engine: a lightweight span
//! recorder ([`TraceBuf`]), a seqlock for coherent multi-counter snapshots
//! ([`SeqLock`]), and Prometheus text-format exposition helpers
//! ([`PromWriter`]). The counters themselves belong to whoever bumps them:
//! this crate holds none.
//!
//! Everything here is `std`-only and allocation-light. Tracing is designed
//! to be *feature-off cheap*: the global [`enabled`] toggle costs one
//! relaxed atomic load, and when no [`TraceBuf`] is attached to a query the
//! executor's instrumentation reduces to a single `Option` branch per
//! phase — no clock reads, no allocation.
//!
//! ```
//! use astore_obs::TraceBuf;
//!
//! let t = TraceBuf::new();
//! let root = t.alloc();
//! let start = t.now_us();
//! // ... do work ...
//! let child = t.add("scan", Some(root), t.now_us(), 0, vec![("rows", 42)]);
//! t.record(root, "query", None, start, t.now_us().saturating_sub(start), vec![]);
//! assert_eq!(t.spans().len(), 2);
//! assert_ne!(root, child);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod prom;
pub mod seqlock;
pub mod trace;

pub use prom::PromWriter;
pub use seqlock::SeqLock;
pub use trace::{Span, SpanId, TraceBuf, DEFAULT_SPAN_CAP};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the process-wide tracing toggle on or off.
///
/// The toggle does **not** gate counter arithmetic (counters are relaxed
/// atomics and always on); it gates the expensive parts — the serving
/// engine's clock samples around WAL appends and checkpoints, and whether
/// it attaches a [`TraceBuf`] to queries at all.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Returns the process-wide tracing toggle (off by default).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_defaults_off_and_flips() {
        // Other tests may flip the global; restore it when done.
        let before = enabled();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(before);
    }
}
