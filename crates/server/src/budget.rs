//! The global core budget: one permit pool shared by inter-query
//! concurrency (the worker pool) and intra-query parallelism (the engine's
//! morsel-driven executor).
//!
//! Without a shared budget the two multiply: `workers × engine-threads`
//! runnable threads on `cores` cores, and every query gets slower under
//! load. The budget models each core as one permit. Every executing
//! statement holds one baseline permit for the worker thread that runs it;
//! a query whose planner wants to fan out asks for *extra* permits, gets
//! whatever is available right now (possibly zero — it then runs serial),
//! and returns them the moment it finishes. Acquisition never blocks, so a
//! loaded server degrades to one-core-per-query instead of deadlocking or
//! oversubscribing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The machine's available parallelism (4 when it cannot be read): the
/// size of the server's [`CoreBudget`], its default worker pool and its
/// default per-query fan-out ceiling.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// A non-blocking permit pool over the machine's cores.
#[derive(Debug)]
pub struct CoreBudget {
    /// Total permits (normally the machine's available parallelism).
    total: usize,
    /// Permits held: one per executing statement plus any extra engine
    /// threads granted to fanned-out queries.
    in_use: AtomicUsize,
    /// Extra-permit requests that were fully or partially denied.
    denied: AtomicU64,
}

impl CoreBudget {
    /// A budget of `total` permits (clamped to at least 1).
    pub fn new(total: usize) -> Self {
        CoreBudget { total: total.max(1), in_use: AtomicUsize::new(0), denied: AtomicU64::new(0) }
    }

    /// Total permits.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Permits currently held (baseline + extra).
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Extra-permit requests that could not be granted in full.
    pub fn denied(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }

    /// Permits currently free (`total − in_use`, saturating: the baseline
    /// overshoot clamps to zero). The scheduler's scan gate reads this to
    /// hold scan-class work back while every core is granted.
    pub fn available(&self) -> usize {
        self.total.saturating_sub(self.in_use())
    }

    /// Takes the baseline permit of one executing statement. Never fails:
    /// the statement's worker thread exists and will run regardless, so
    /// refusing the permit would not free its core — admission control (the
    /// bounded worker queue) is the layer that sheds load. The baseline may
    /// transiently push `in_use` past `total`; extra permits are what the
    /// budget refuses in that state.
    pub fn enter_statement(&self) -> Permits<'_> {
        self.in_use.fetch_add(1, Ordering::AcqRel);
        Permits { budget: self, held: 1 }
    }

    /// Tries to take up to `want` *extra* permits for intra-query fan-out.
    /// Grants `min(want, available)` — possibly zero — and never blocks.
    pub fn try_extra(&self, want: usize) -> Permits<'_> {
        let mut granted = 0;
        if want > 0 {
            let mut cur = self.in_use.load(Ordering::Acquire);
            loop {
                let avail = self.total.saturating_sub(cur);
                let take = want.min(avail);
                if take == 0 {
                    break;
                }
                match self.in_use.compare_exchange_weak(
                    cur,
                    cur + take,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        granted = take;
                        break;
                    }
                    Err(now) => cur = now,
                }
            }
            if granted < want {
                self.denied.fetch_add(1, Ordering::Relaxed);
            }
        }
        Permits { budget: self, held: granted }
    }
}

/// Permits held against a [`CoreBudget`]; released on drop.
#[derive(Debug)]
pub struct Permits<'a> {
    budget: &'a CoreBudget,
    held: usize,
}

impl Permits<'_> {
    /// How many permits this grant holds.
    pub fn held(&self) -> usize {
        self.held
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        if self.held > 0 {
            self.budget.in_use.fetch_sub(self.held, Ordering::AcqRel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_permits_grant_up_to_available() {
        let b = CoreBudget::new(4);
        let s = b.enter_statement();
        let extra = b.try_extra(3);
        assert_eq!(extra.held(), 3, "1 baseline + 3 extra = total");
        assert_eq!(b.in_use(), 4);
        let none = b.try_extra(2);
        assert_eq!(none.held(), 0, "budget exhausted");
        assert_eq!(b.denied(), 1);
        drop(none);
        drop(extra);
        drop(s);
        assert_eq!(b.in_use(), 0, "all permits returned");
    }

    #[test]
    fn partial_grants_under_contention() {
        let b = CoreBudget::new(4);
        let _a = b.enter_statement();
        let _b = b.enter_statement();
        let extra = b.try_extra(3);
        assert_eq!(extra.held(), 2, "only 2 cores left");
        assert_eq!(b.denied(), 1, "partial grant counts as denied");
    }

    #[test]
    fn baseline_never_fails_even_past_total() {
        let b = CoreBudget::new(1);
        let s1 = b.enter_statement();
        let s2 = b.enter_statement();
        assert_eq!(b.in_use(), 2, "baseline overshoots rather than blocks");
        assert_eq!(b.try_extra(1).held(), 0, "but extras are refused");
        drop(s1);
        drop(s2);
        assert_eq!(b.in_use(), 0);
    }

    #[test]
    fn want_zero_is_free() {
        let b = CoreBudget::new(2);
        let p = b.try_extra(0);
        assert_eq!(p.held(), 0);
        assert_eq!(b.denied(), 0, "asking for nothing is not a denial");
    }

    #[test]
    fn concurrent_grants_never_oversubscribe() {
        let b = std::sync::Arc::new(CoreBudget::new(8));
        let peak = std::sync::Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let b = std::sync::Arc::clone(&b);
                let peak = std::sync::Arc::clone(&peak);
                s.spawn(move || {
                    for _ in 0..500 {
                        let _extra = b.try_extra(3);
                        peak.fetch_max(b.in_use(), Ordering::Relaxed);
                    }
                });
            }
        });
        // Only extras here (no baselines), so in_use must never pass total.
        assert!(peak.load(Ordering::Relaxed) <= 8, "extras oversubscribed the budget");
        assert_eq!(b.in_use(), 0);
    }
}
