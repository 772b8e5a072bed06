//! A process-wide registry of named atomic counters.
//!
//! [`counter`] interns a `&'static AtomicU64` per name, with its help text;
//! the reference is leaked once and lives for the process, so hot paths can
//! cache it (e.g. behind a `OnceLock`) and pay only the atomic add.
//! [`counters`] snapshots every registered counter in name order for
//! exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Name → (help, counter).
type Registry = BTreeMap<&'static str, (&'static str, &'static AtomicU64)>;

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the process-wide counter registered under `name`, creating it
/// (initialised to 0, described by `help`) on first use. The same name
/// always yields the same counter, and keeps the help it was created with.
/// Takes a short lock — cache the returned reference on hot paths.
pub fn counter(name: &'static str, help: &'static str) -> &'static AtomicU64 {
    let mut map = registry().lock().expect("counter registry poisoned");
    map.entry(name).or_insert_with(|| (help, Box::leak(Box::new(AtomicU64::new(0))))).1
}

/// A name-ordered snapshot of every registered counter: name, help, value.
pub fn counters() -> Vec<(&'static str, &'static str, u64)> {
    let map = registry().lock().expect("counter registry poisoned");
    map.iter().map(|(name, (help, c))| (*name, *help, c.load(Ordering::Relaxed))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_counter() {
        let a = counter("obs_test_same_name", "A test counter.");
        let b = counter("obs_test_same_name", "A test counter.");
        a.fetch_add(2, Ordering::Relaxed);
        b.fetch_add(3, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn snapshot_is_sorted_and_contains_registered_names() {
        counter("obs_test_snap_b", "B.").fetch_add(1, Ordering::Relaxed);
        counter("obs_test_snap_a", "A.");
        let snap = counters();
        let names: Vec<&str> = snap.iter().map(|(n, _, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert!(names.contains(&"obs_test_snap_a"));
        let b = snap.iter().find(|(n, _, _)| *n == "obs_test_snap_b").unwrap();
        assert!(b.2 >= 1);
    }
}
