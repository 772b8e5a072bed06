//! Durability timing counters, registered in the process-wide
//! [`astore_obs::registry`].
//!
//! Event counters (`*_total`) are always on — two relaxed atomics per
//! event. The *timing* accumulators (`*_us`) sample `Instant::now` twice
//! per event, so they are gated on the global [`astore_obs::enabled`]
//! toggle; with tracing off a WAL append pays one relaxed load extra.
//! Counter handles are interned once per process behind `OnceLock`s — the
//! registry lock is never taken on the append path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

macro_rules! cached_counter {
    ($fn_name:ident, $metric:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static AtomicU64 {
            static C: OnceLock<&'static AtomicU64> = OnceLock::new();
            C.get_or_init(|| astore_obs::counter($metric, $doc))
        }
    };
}

cached_counter!(
    wal_appends_total,
    "astore_wal_appends_total",
    "WAL records appended (committed writes)."
);
cached_counter!(
    wal_append_us_total,
    "astore_wal_append_us_total",
    "Cumulative WAL append time, µs — frame build + write + fsync."
);
cached_counter!(
    wal_fsync_us_total,
    "astore_wal_fsync_us_total",
    "Cumulative WAL fsync time, µs (the durability wait inside appends)."
);
cached_counter!(
    checkpoints_total,
    "astore_checkpoints_total",
    "Checkpoints taken (snapshot fold + WAL truncation)."
);
cached_counter!(
    checkpoint_us_total,
    "astore_checkpoint_us_total",
    "Cumulative checkpoint time, µs."
);
cached_counter!(
    checkpoint_bytes_total,
    "astore_checkpoint_bytes_total",
    "Cumulative snapshot bytes written by checkpoints."
);

/// A timing sample that is armed only while the global tracing toggle is
/// on: `start` costs one relaxed load when disabled, `stop` adds the
/// elapsed µs into `into` when armed.
#[derive(Debug)]
pub struct TimedSample {
    started: Option<Instant>,
}

impl TimedSample {
    /// Starts a sample iff tracing is enabled.
    pub fn start() -> TimedSample {
        TimedSample { started: astore_obs::enabled().then(Instant::now) }
    }

    /// Folds the elapsed time into a cumulative µs counter (no-op when the
    /// sample was never armed).
    pub fn stop(self, into: &'static AtomicU64) {
        if let Some(t0) = self.started {
            into.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_interned_once() {
        assert!(std::ptr::eq(wal_appends_total(), wal_appends_total()));
        let again = astore_obs::counter("astore_wal_appends_total", "WAL records appended.");
        assert!(std::ptr::eq(wal_appends_total(), again));
    }

    #[test]
    fn disarmed_sample_adds_nothing() {
        let was = astore_obs::enabled();
        astore_obs::set_enabled(false);
        let before = checkpoint_us_total().load(Ordering::Relaxed);
        let s = TimedSample::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.stop(checkpoint_us_total());
        assert_eq!(checkpoint_us_total().load(Ordering::Relaxed), before);
        astore_obs::set_enabled(was);
    }
}
