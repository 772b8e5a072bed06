//! Per-session prepared-statement registry for wire protocol v2.
//!
//! Each connection owns one [`StatementRegistry`]: `{"prepare":…}` frames
//! register a [`Prepared`] template under a session-local id, and
//! `{"execute":{"id":…,"params":[…]}}` frames look it up — so the hot path
//! binds parameters into an already-planned template instead of re-parsing
//! SQL text. The registry is bounded: preparing past the capacity evicts
//! the oldest statement (FIFO), and executing an evicted id is a typed
//! `unknown_statement` error, never unbounded memory.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use astore_sql::prepared::Prepared;

/// Default per-session statement capacity.
pub const DEFAULT_STATEMENTS_PER_SESSION: usize = 64;

/// Registries currently alive in this process. Connection teardown must
/// drop the session registry promptly — tests assert this count returns to
/// its baseline after open/close churn, so a leak in the connection
/// lifecycle shows up as a number, not an OOM.
static LIVE_REGISTRIES: AtomicUsize = AtomicUsize::new(0);

/// Number of [`StatementRegistry`] values currently alive.
pub fn live_registries() -> usize {
    LIVE_REGISTRIES.load(Ordering::SeqCst)
}

/// A registered statement: the planned template plus the canonical key it
/// was planned under — the key labels this statement's executions in the
/// per-template latency metrics and the slow-query log.
#[derive(Debug, Clone)]
pub struct SessionStatement {
    /// Canonical statement-template text (the plan-cache key).
    pub key: Arc<str>,
    /// The planned, bindable template.
    pub prepared: Arc<Prepared>,
}

/// A bounded id → prepared-statement map, one per connection.
#[derive(Debug)]
pub struct StatementRegistry {
    stmts: HashMap<u64, SessionStatement>,
    order: VecDeque<u64>,
    next_id: u64,
    capacity: usize,
}

impl Default for StatementRegistry {
    fn default() -> Self {
        StatementRegistry::with_capacity(DEFAULT_STATEMENTS_PER_SESSION)
    }
}

impl StatementRegistry {
    /// A registry holding at most `capacity` statements.
    pub fn with_capacity(capacity: usize) -> Self {
        LIVE_REGISTRIES.fetch_add(1, Ordering::SeqCst);
        StatementRegistry {
            stmts: HashMap::new(),
            order: VecDeque::new(),
            next_id: 1,
            capacity: capacity.max(1),
        }
    }

    /// Registers a statement under its canonical-template key, returning
    /// its fresh id and the id of the statement evicted to make room (if
    /// the registry was full).
    pub fn register(
        &mut self,
        key: impl Into<Arc<str>>,
        stmt: Arc<Prepared>,
    ) -> (u64, Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        self.stmts.insert(id, SessionStatement { key: key.into(), prepared: stmt });
        self.order.push_back(id);
        let evicted = if self.order.len() > self.capacity {
            self.order.pop_front().inspect(|old| {
                self.stmts.remove(old);
            })
        } else {
            None
        };
        (id, evicted)
    }

    /// Looks up a statement by id.
    pub fn get(&self, id: u64) -> Option<SessionStatement> {
        self.stmts.get(&id).cloned()
    }

    /// Deallocates a statement; `false` if the id was unknown (or already
    /// evicted).
    pub fn close(&mut self, id: u64) -> bool {
        let existed = self.stmts.remove(&id).is_some();
        if existed {
            self.order.retain(|x| *x != id);
        }
        existed
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Returns `true` if no statements are registered.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

impl Drop for StatementRegistry {
    fn drop(&mut self) {
        LIVE_REGISTRIES.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::catalog::Database;
    use astore_storage::table::{ColumnDef, Schema, Table};
    use astore_storage::types::{DataType, Value};

    fn prepared() -> Arc<Prepared> {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        t.append_row(&[Value::Int(1)]);
        let mut db = Database::new();
        db.add_table(t);
        Arc::new(astore_sql::prepare("SELECT count(*) FROM t", &db).unwrap())
    }

    #[test]
    fn register_get_close() {
        let mut r = StatementRegistry::default();
        let (id, evicted) = r.register("select count(*) from t", prepared());
        assert_eq!(id, 1);
        assert!(evicted.is_none());
        let stmt = r.get(id).unwrap();
        assert_eq!(&*stmt.key, "select count(*) from t");
        assert!(r.close(id));
        assert!(!r.close(id), "double close");
        assert!(r.get(id).is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r = StatementRegistry::with_capacity(2);
        let (a, _) = r.register("k", prepared());
        r.close(a);
        let (b, _) = r.register("k", prepared());
        assert_ne!(a, b);
    }

    #[test]
    fn fifo_eviction_past_capacity() {
        let mut r = StatementRegistry::with_capacity(2);
        let (a, _) = r.register("k", prepared());
        let (b, _) = r.register("k", prepared());
        let (c, evicted) = r.register("k", prepared());
        assert_eq!(evicted, Some(a), "oldest evicted");
        assert!(r.get(a).is_none());
        assert!(r.get(b).is_some());
        assert!(r.get(c).is_some());
        assert_eq!(r.len(), 2);
    }
}
