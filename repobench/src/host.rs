//! The host-speed probe. The reference box is two vCPUs of a shared host
//! whose memory system serves this guest 15–40 % slower for minutes at a
//! time (README, "Host-speed correction"): whole runs of identical code
//! shift together, so no statistic inside a run steadies them. What does is
//! a control measurement taken *in the same window*: every client thread
//! sums a fixed 64 MiB array every quarter second between its operations,
//! and the gated latency is reported at the speed of a host that needs
//! [`NOMINAL_MS`] for that sum.

use std::time::{Duration, Instant};

/// Words summed per sample: 64 MiB, past every cache of the box, because
/// the slow phases slow memory traffic far more than arithmetic.
const WORDS: usize = 8 << 20;
/// What one sample takes on the quiet reference box (≈ 8.4 GB/s).
pub const NOMINAL_MS: f64 = 8.0;
/// Time between samples of one thread: ~3 % of its window.
const INTERVAL: Duration = Duration::from_millis(250);

/// One thread's probe: the array and when it was last summed.
pub struct HostProbe {
    data: Vec<u64>,
    last: Option<Instant>,
}

impl HostProbe {
    /// Allocates and fills the array (which also faults its pages in).
    pub fn new() -> HostProbe {
        HostProbe { data: (0..WORDS as u64).collect(), last: None }
    }

    /// Sums the array once; returns the milliseconds it took.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let sum = std::hint::black_box(&self.data).iter().fold(0u64, |a, &x| a.wrapping_add(x));
        assert_eq!(sum, (WORDS as u64 - 1) * WORDS as u64 / 2, "probe array changed");
        self.last = Some(Instant::now());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Takes a sample into `out` if none was taken for [`INTERVAL`]. Called
    /// between operations, never during one.
    pub fn tick(&mut self, out: &mut Vec<f64>) {
        if self.last.is_none_or(|t| t.elapsed() >= INTERVAL) {
            out.push(self.sample());
        }
    }
}

/// `raw` (any time) as it would read on a host whose probe takes
/// [`NOMINAL_MS`], given that it took `host_ms` while `raw` was measured.
pub fn at_nominal(raw: f64, host_ms: f64) -> f64 {
    raw * NOMINAL_MS / host_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_samples_once_per_interval_and_scales_to_nominal() {
        let mut probe = HostProbe::new();
        let mut out = Vec::new();
        probe.tick(&mut out);
        probe.tick(&mut out);
        assert_eq!(out.len(), 1, "the second tick came before the interval");
        assert!(out[0] > 0.0);
        // A host twice as slow as nominal: times read half.
        assert_eq!(at_nominal(50.0, 2.0 * NOMINAL_MS), 25.0);
        assert_eq!(at_nominal(50.0, NOMINAL_MS), 50.0);
    }
}
