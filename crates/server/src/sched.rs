//! The strict-priority class queues a frame waits in when it may not run
//! at once on the serving thread that owns its connection.
//!
//! A frame runs at once unless a frame of its class or a higher one is
//! already queued — so no frame overtakes one of its own class — or, for a
//! scan, while the shared [`CoreBudget`] has every core granted (the scan
//! gate): a burst of analytical scans cannot then swallow the permits an
//! interactive statement needs. Each class's queue is bounded; a frame that
//! finds its queue full is refused, and the caller answers with a typed
//! `server_busy` frame. Serving threads take queued frames highest class
//! first. A scan held back by the gate runs as soon as a permit is released
//! ([`CoreBudget::exhausted_until_release`]), or after `SCAN_DEFER_MAX` —
//! scans are delayed, never starved.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use astore_net::Queued;

use crate::budget::CoreBudget;

/// Upper bound on how long the scan at the head of its queue is held back
/// by the budget gate. Past this the scan runs regardless — bounded delay,
/// not starvation.
const SCAN_DEFER_MAX: Duration = Duration::from_millis(50);

/// Request priority classes, highest first. The discriminant indexes the
/// per-class queues and the `queue_wait` histograms in
/// [`ServerStats`](crate::stats::ServerStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Protocol housekeeping: `cmd` frames, `prepare`, `close`,
    /// malformed requests. Cheap and latency-critical.
    Metadata = 0,
    /// Writes — short statements a user is waiting on.
    Interactive = 1,
    /// Everything else: analytical scans that may hold a thread for long.
    Scan = 2,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Metadata, Priority::Interactive, Priority::Scan];

    /// The class's label in stats frames and metric series.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::Metadata => "metadata",
            Priority::Interactive => "interactive",
            Priority::Scan => "scan",
        }
    }
}

/// What [`ClassQueues::admit`] decided for a frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit<T> {
    /// Run it now, on this thread.
    Run(T),
    /// It waits in its class's queue.
    Queued,
    /// Its class's queue is full: refuse it.
    Full,
}

struct State<T> {
    /// One FIFO per class, indexed by `Priority as usize`.
    queues: [VecDeque<T>; 3],
    /// When the gate first held back the scan now at the head of its queue.
    deferred_since: Option<Instant>,
}

/// Three bounded strict-priority queues, with the budget gate on scans.
pub struct ClassQueues<T> {
    state: Mutex<State<T>>,
    /// Per-class queue capacity.
    capacity: usize,
    budget: Arc<CoreBudget>,
}

impl<T> ClassQueues<T> {
    /// Queues of `queue_depth` frames per class, gating scans on `budget`.
    pub fn new(queue_depth: usize, budget: Arc<CoreBudget>) -> Self {
        let queues = [VecDeque::new(), VecDeque::new(), VecDeque::new()];
        ClassQueues {
            state: Mutex::new(State { queues, deferred_since: None }),
            capacity: queue_depth.max(1),
            budget,
        }
    }

    /// Decides whether a frame of `class` runs now, waits, or is refused.
    pub fn admit(&self, class: Priority, item: T) -> Admit<T> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let gated = class == Priority::Scan && self.budget.available() == 0;
        if !gated && state.queues[..=class as usize].iter().all(VecDeque::is_empty) {
            return Admit::Run(item);
        }
        let queue = &mut state.queues[class as usize];
        if queue.len() >= self.capacity {
            return Admit::Full;
        }
        queue.push_back(item);
        Admit::Queued
    }

    /// The queued frame to run next: highest class first, a scan once the
    /// gate opens or its defer runs out.
    pub fn next(&self) -> Queued<T> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(item) = state.queues[..2].iter_mut().find_map(VecDeque::pop_front) {
            return Queued::Run(item);
        }
        if state.queues[Priority::Scan as usize].is_empty() {
            return Queued::Empty;
        }
        let since = *state.deferred_since.get_or_insert_with(Instant::now);
        let left = SCAN_DEFER_MAX.saturating_sub(since.elapsed());
        if !left.is_zero() && self.budget.exhausted_until_release() {
            return Queued::Wait(left);
        }
        state.deferred_since = None;
        state.queues[Priority::Scan as usize].pop_front().map_or(Queued::Empty, Queued::Run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn free_budget_dispatches_scans_immediately() {
        let queues = ClassQueues::new(16, Arc::new(CoreBudget::new(4)));
        assert_eq!(queues.admit(Priority::Scan, "scan"), Admit::Run("scan"));
        assert_eq!(queues.next(), Queued::Empty);
    }

    /// No frame overtakes one of its own class, the higher classes overtake
    /// queued scans, and one thread draining the queues takes them in
    /// order.
    #[test]
    fn strict_priority_order_under_single_worker() {
        let budget = Arc::new(CoreBudget::new(1));
        let queues = ClassQueues::new(16, Arc::clone(&budget));
        let permit = budget.enter_statement(); // every core granted
        assert_eq!(queues.admit(Priority::Scan, "scan 1"), Admit::Queued);
        drop(permit); // the gate opens, but scan 2 still queues behind scan 1
        assert_eq!(queues.admit(Priority::Scan, "scan 2"), Admit::Queued);
        assert_eq!(queues.admit(Priority::Interactive, "write"), Admit::Run("write"));
        assert_eq!(queues.admit(Priority::Metadata, "ping"), Admit::Run("ping"));
        assert_eq!(queues.next(), Queued::Run("scan 1"));
        assert_eq!(queues.next(), Queued::Run("scan 2"));
        assert_eq!(queues.next(), Queued::Empty);
    }

    #[test]
    fn per_class_capacity_gates_admission() {
        let budget = Arc::new(CoreBudget::new(1));
        let queues = ClassQueues::new(2, Arc::clone(&budget));
        let _permit = budget.enter_statement();
        assert_eq!(queues.admit(Priority::Scan, 1), Admit::Queued);
        assert_eq!(queues.admit(Priority::Scan, 2), Admit::Queued);
        assert_eq!(queues.admit(Priority::Scan, 3), Admit::Full, "scan queue is full");
        assert_eq!(queues.admit(Priority::Metadata, 4), Admit::Run(4), "others are unaffected");
    }

    /// An exhausted core budget defers scans — a scan burst cannot claim
    /// the permit an interactive statement needs — but only boundedly
    /// (scans are delayed, never starved).
    #[test]
    fn exhausted_budget_defers_scans_but_not_interactive() {
        let budget = Arc::new(CoreBudget::new(1));
        let queues = ClassQueues::new(16, Arc::clone(&budget));
        let permit = budget.enter_statement(); // every core granted
        assert_eq!(queues.admit(Priority::Scan, "scan"), Admit::Queued);
        assert!(matches!(queues.next(), Queued::Wait(_)), "the gate holds the scan back");
        // An interactive frame overtakes the held-back scan.
        assert_eq!(queues.admit(Priority::Interactive, "write"), Admit::Run("write"));
        // The permit is never released, yet the defer is bounded.
        std::thread::sleep(SCAN_DEFER_MAX);
        assert_eq!(queues.next(), Queued::Run("scan"));
        drop(permit);
    }

    /// Releasing a permit wakes the dispatcher waiting on the gate, so the
    /// deferred scan starts when a core frees, not when its defer runs out.
    #[test]
    fn permit_release_wakes_the_deferred_scan() {
        let budget = Arc::new(CoreBudget::new(1));
        let (woken, wakes) = channel();
        budget.on_release(move || {
            let _ = woken.send(());
        });
        let queues = ClassQueues::new(16, Arc::clone(&budget));
        let permit = budget.enter_statement();
        let queued_at = Instant::now();
        assert_eq!(queues.admit(Priority::Scan, "scan"), Admit::Queued);
        let Queued::Wait(left) = queues.next() else { panic!("the gate holds the scan back") };
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(permit);
            });
            wakes.recv_timeout(left).expect("the release wakes the waiting dispatcher");
        });
        assert_eq!(queues.next(), Queued::Run("scan"));
        let started = queued_at.elapsed();
        assert!(started < SCAN_DEFER_MAX, "the scan started {started:?} after it was queued");
    }
}
