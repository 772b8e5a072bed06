//! The reactor's executor: a worker pool fed by three strict-priority
//! queues, so interactive writes and metadata commands jump ahead
//! of long scans instead of queueing behind them.
//!
//! Each class has its own bounded queue; a full queue is an *admission*
//! decision surfaced to the caller before a job is built — the reactor is
//! the only submitter, so check-then-submit is race-free — and the caller
//! answers with a typed `server_busy` frame. Workers always drain
//! metadata first, then interactive, then scan; every dequeued job learns
//! how long it waited, which feeds the per-class queue-wait histograms.
//!
//! A pool built with [`PriorityPool::with_budget`] additionally consults
//! the shared [`CoreBudget`] before dequeuing scan-class work: while every
//! core is granted, queued scans are *deferred* (briefly and boundedly)
//! instead of dispatched, so a burst of analytical scans cannot swallow
//! the permits an interactive statement would need. The defer is capped —
//! scans are delayed, never starved.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::budget::CoreBudget;

/// How long one polling step of a deferred scan dequeue waits. Permit
/// release does not signal the pool's condvar, so the gate polls.
const SCAN_DEFER_POLL: Duration = Duration::from_millis(1);

/// Upper bound on how long one scan dequeue can be deferred by the budget
/// gate. Past this the scan runs regardless — bounded delay, not
/// starvation.
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
    /// Everything else: analytical scans that may hold a worker for long.
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

/// A unit of work; receives its queue wait in microseconds.
pub type Job = Box<dyn FnOnce(u64) + Send + 'static>;

struct Inner {
    /// One FIFO per class, indexed by `Priority as usize`.
    queues: Mutex<[VecDeque<(Job, Instant)>; 3]>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Per-class queue capacity.
    capacity: usize,
    /// When present, scan-class dequeue is gated on free permits.
    budget: Option<Arc<CoreBudget>>,
}

impl Inner {
    /// `true` while scan-class work should be held back: every core in the
    /// shared budget is granted, so dispatching another scan would claim
    /// the baseline permit an interactive statement is about to need.
    /// Shutdown overrides the gate — drain beats deferral.
    fn scan_gate_closed(&self) -> bool {
        !self.shutdown.load(Ordering::Acquire)
            && self.budget.as_ref().is_some_and(|b| b.available() == 0)
    }
}

/// A fixed pool of workers draining three bounded strict-priority queues.
pub struct PriorityPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl PriorityPool {
    /// Spawns `workers` threads; each class's queue holds `queue_depth`
    /// jobs.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        PriorityPool::build(workers, queue_depth, None)
    }

    /// Like [`PriorityPool::new`], but scan-class dequeue consults the
    /// shared core budget: while every permit is granted, queued scans are
    /// deferred (up to `SCAN_DEFER_MAX`) so scan bursts cannot drain the
    /// permit pool ahead of interactive statements.
    pub fn with_budget(workers: usize, queue_depth: usize, budget: Arc<CoreBudget>) -> Self {
        PriorityPool::build(workers, queue_depth, Some(budget))
    }

    fn build(workers: usize, queue_depth: usize, budget: Option<Arc<CoreBudget>>) -> Self {
        let inner = Arc::new(Inner {
            queues: Mutex::new([VecDeque::new(), VecDeque::new(), VecDeque::new()]),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            capacity: queue_depth.max(1),
            budget,
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("astore-exec-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn executor thread")
            })
            .collect();
        PriorityPool { inner, handles }
    }

    /// Whether a job of this class would be admitted right now. With a
    /// single submitting thread (the reactor), a `true` here guarantees
    /// the following [`PriorityPool::submit`] is accepted.
    pub fn accepting(&self, priority: Priority) -> bool {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return false;
        }
        let queues = self.inner.queues.lock().unwrap_or_else(|p| p.into_inner());
        queues[priority as usize].len() < self.inner.capacity
    }

    /// Enqueues a job. Call [`PriorityPool::accepting`] first; a job
    /// submitted past capacity or during shutdown is dropped (its `Done`
    /// answers with an empty frame via its drop hook).
    pub fn submit(&self, priority: Priority, job: Job) {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut queues = self.inner.queues.lock().unwrap_or_else(|p| p.into_inner());
        if queues[priority as usize].len() >= self.inner.capacity {
            return;
        }
        queues[priority as usize].push_back((job, Instant::now()));
        drop(queues);
        self.inner.available.notify_one();
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Stops accepting work, drains what is queued, and joins the workers.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for PriorityPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    let mut queues = inner.queues.lock().unwrap_or_else(|p| p.into_inner());
    // When this worker is holding a scan back for the budget gate, the
    // instant the defer started; bounds the total delay per dequeue.
    let mut scan_deferred_since: Option<Instant> = None;
    loop {
        // Strict priority: metadata beats interactive beats scan. The scan
        // class additionally passes the budget gate (when configured).
        let next = match queues[..2].iter_mut().find_map(VecDeque::pop_front) {
            Some(job) => {
                scan_deferred_since = None;
                Some(job)
            }
            None if queues[Priority::Scan as usize].is_empty() => {
                scan_deferred_since = None;
                None
            }
            None => {
                let deferred = *scan_deferred_since.get_or_insert_with(Instant::now);
                if inner.scan_gate_closed() && deferred.elapsed() < SCAN_DEFER_MAX {
                    // All cores granted: hold the scan briefly. Permit
                    // release has no condvar, so poll; a higher-priority
                    // submit wakes the wait early and is dequeued first.
                    let (q, _) = inner
                        .available
                        .wait_timeout(queues, SCAN_DEFER_POLL)
                        .unwrap_or_else(|p| p.into_inner());
                    queues = q;
                    continue;
                }
                scan_deferred_since = None;
                queues[Priority::Scan as usize].pop_front()
            }
        };
        match next {
            Some((job, enqueued)) => {
                drop(queues);
                let wait_us = enqueued.elapsed().as_micros() as u64;
                // A panicking statement must not take the worker down.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(move || job(wait_us)));
                queues = inner.queues.lock().unwrap_or_else(|p| p.into_inner());
            }
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return; // shutdown after the queues drained
                }
                queues = inner.available.wait(queues).unwrap_or_else(|p| p.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn executes_and_reports_queue_wait() {
        let pool = PriorityPool::new(2, 16);
        let (tx, rx) = channel();
        for _ in 0..8 {
            let tx = tx.clone();
            assert!(pool.accepting(Priority::Scan));
            pool.submit(
                Priority::Scan,
                Box::new(move |wait_us| {
                    let _ = tx.send(wait_us);
                }),
            );
        }
        for _ in 0..8 {
            let _wait = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
    }

    #[test]
    fn strict_priority_order_under_single_worker() {
        let pool = PriorityPool::new(1, 16);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (block_tx, block_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        pool.submit(
            Priority::Scan,
            Box::new(move |_| {
                let _ = started_tx.send(());
                let _ = block_rx.recv();
            }),
        );
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // Queued while the worker is blocked: submitted scan-first, but
        // the metadata and interactive jobs must run first anyway.
        let (done_tx, done_rx) = channel::<()>();
        for prio in [Priority::Scan, Priority::Interactive, Priority::Metadata] {
            let order = Arc::clone(&order);
            let done = done_tx.clone();
            pool.submit(
                prio,
                Box::new(move |_| {
                    order.lock().unwrap().push(prio);
                    let _ = done.send(());
                }),
            );
        }
        block_tx.send(()).unwrap();
        for _ in 0..3 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![Priority::Metadata, Priority::Interactive, Priority::Scan]
        );
    }

    #[test]
    fn per_class_capacity_gates_admission() {
        let pool = PriorityPool::new(1, 2);
        let (block_tx, block_rx) = channel::<()>();
        let (started_tx, started_rx) = channel::<()>();
        pool.submit(
            Priority::Scan,
            Box::new(move |_| {
                let _ = started_tx.send(());
                let _ = block_rx.recv();
            }),
        );
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        pool.submit(Priority::Scan, Box::new(|_| {}));
        pool.submit(Priority::Scan, Box::new(|_| {}));
        assert!(!pool.accepting(Priority::Scan), "scan queue is full");
        assert!(pool.accepting(Priority::Metadata), "other classes are unaffected");
        block_tx.send(()).unwrap();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = PriorityPool::new(2, 64);
            for _ in 0..20 {
                let counter = Arc::clone(&counter);
                pool.submit(
                    Priority::Interactive,
                    Box::new(move |_| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    }),
                );
            }
        } // Drop shuts down after the queues drain.
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    /// ISSUE 10 satellite: an exhausted core budget defers scan-class
    /// dispatch — a scan burst cannot claim the permit an interactive
    /// statement needs — but only boundedly (scans are delayed, never
    /// starved).
    #[test]
    fn exhausted_budget_defers_scans_but_not_interactive() {
        let budget = Arc::new(CoreBudget::new(1));
        let pool = PriorityPool::with_budget(1, 16, Arc::clone(&budget));
        let permit = budget.enter_statement(); // every core granted
        let order = Arc::new(Mutex::new(Vec::new()));
        let (done_tx, done_rx) = channel::<()>();
        {
            let order = Arc::clone(&order);
            let done = done_tx.clone();
            pool.submit(
                Priority::Scan,
                Box::new(move |_| {
                    order.lock().unwrap().push(Priority::Scan);
                    let _ = done.send(());
                }),
            );
        }
        // Give the worker time to see the scan and start deferring, then
        // queue an interactive job: it must overtake the held-back scan.
        std::thread::sleep(Duration::from_millis(5));
        {
            let order = Arc::clone(&order);
            let done = done_tx.clone();
            pool.submit(
                Priority::Interactive,
                Box::new(move |_| {
                    order.lock().unwrap().push(Priority::Interactive);
                    let _ = done.send(());
                }),
            );
        }
        // Both complete even though the permit is never released: the
        // defer is bounded, so the scan eventually runs too.
        for _ in 0..2 {
            done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![Priority::Interactive, Priority::Scan]);
        drop(permit);
    }

    #[test]
    fn free_budget_dispatches_scans_immediately() {
        let budget = Arc::new(CoreBudget::new(4));
        let pool = PriorityPool::with_budget(2, 16, budget);
        let (tx, rx) = channel();
        pool.submit(
            Priority::Scan,
            Box::new(move |_| {
                let _ = tx.send(());
            }),
        );
        rx.recv_timeout(Duration::from_secs(5)).expect("open gate dispatches scans");
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = PriorityPool::new(1, 8);
        pool.submit(Priority::Scan, Box::new(|_| panic!("statement exploded")));
        let (tx, rx) = channel();
        pool.submit(
            Priority::Scan,
            Box::new(move |_| {
                let _ = tx.send(());
            }),
        );
        rx.recv_timeout(Duration::from_secs(5)).expect("worker survived the panic");
    }
}
