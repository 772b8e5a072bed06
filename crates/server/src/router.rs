//! Engine choice: which of the three engines answers a SELECT.
//!
//! * **air** — the production AIR scan (`astore_core::exec::execute`),
//! * **join** — the hash-join baseline (`astore_baseline::engine`),
//! * **denorm** — a scan over a cached materialized denormalization
//!   (`astore_baseline::denorm`), invalidated by table epoch on write.
//!
//! The choice is a rule, not a learned policy: AIR, unless the session's
//! `SET engine` pin names join or denorm and that engine can answer the
//! statement ([`route`]). AIR answers every SSB query fastest when the
//! three are measured side by side (README, "Engine choice"), so the other
//! two engines stay as pinned baselines and as differential oracles. All three are
//! bound by a hard result-identity contract — rows must be bit-identical —
//! which the differential suites enforce.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use astore_baseline::denorm::{denormalize, Denormalized};
use astore_core::graph::JoinGraph;
use astore_core::query::Query;
use astore_core::universal::BindError;
use astore_storage::catalog::Database;
use astore_storage::column::Column;
use astore_storage::segment::ZoneStats;
use astore_storage::table::Table;
use astore_storage::types::DataType;

/// The execution engines a statement can run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Join-free AIR scan — the production path.
    Air = 0,
    /// Hash-join baseline pipeline.
    Join = 1,
    /// Scan over a cached materialized denormalization.
    Denorm = 2,
}

impl EngineChoice {
    /// All engines, in index order.
    pub const ALL: [EngineChoice; 3] =
        [EngineChoice::Air, EngineChoice::Join, EngineChoice::Denorm];

    /// Stable wire/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineChoice::Air => "air",
            EngineChoice::Join => "join",
            EngineChoice::Denorm => "denorm",
        }
    }

    /// Index (0..3) into per-engine counters.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a wire/CLI label (`air`/`join`/`denorm`; `auto` → `None`).
    pub fn parse(s: &str) -> Result<Option<EngineChoice>, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "air" => Ok(Some(EngineChoice::Air)),
            "join" => Ok(Some(EngineChoice::Join)),
            "denorm" => Ok(Some(EngineChoice::Denorm)),
            "auto" => Ok(None),
            other => Err(format!("unknown engine {other:?} (expected air|join|denorm|auto)")),
        }
    }
}

/// The denorm engine is never used when the fact table holds more slots
/// than this: the materialization would dwarf its benefit.
pub const DENORM_MAX_FACT_ROWS: usize = 8_000_000;

/// The route stage: the engine that runs `query` on `snap` — `pin` when the
/// session pinned an engine that can answer the statement, AIR otherwise.
/// Reads the snapshot's schema and row counts only; takes no lock.
pub fn route(pin: Option<EngineChoice>, snap: &Database, query: &Query) -> EngineChoice {
    match pin {
        Some(engine) if eligible(engine, snap, query, DENORM_MAX_FACT_ROWS) => engine,
        _ => EngineChoice::Air,
    }
}

/// Can `engine` answer `query` on `snap`? AIR always can. Neither the join
/// pipeline's universal relation nor the denormalized wide table carries
/// positional row addresses, so a `rowid` predicate is AIR-only. Denorm
/// also needs a fact table of at most `max_fact_rows` slots, a shape the
/// wide table can answer — every column the statement reads is a value
/// (not a key) column, since the wide table folds references away — and a
/// wide table that holds every row the statement sees
/// ([`denorm_keeps_every_row`]).
fn eligible(engine: EngineChoice, snap: &Database, query: &Query, max_fact_rows: usize) -> bool {
    let uses_rowid = || query.selections.iter().any(|(_, p)| p.columns().contains(&"rowid"));
    match engine {
        EngineChoice::Air => true,
        EngineChoice::Join => !uses_rowid(),
        EngineChoice::Denorm => {
            let Some((root, fact)) = fact_table(snap, query) else { return false };
            let is_value = |table: &str, column: &str| {
                snap.table(table)
                    .and_then(|t| t.column(column))
                    .is_some_and(|c| !matches!(c, Column::Key { .. }))
            };
            !uses_rowid()
                && fact.num_slots() <= max_fact_rows
                && query
                    .selections
                    .iter()
                    .all(|(table, pred)| pred.columns().iter().all(|c| is_value(table, c)))
                && query.group_by.iter().all(|g| is_value(&g.table, &g.column))
                && query
                    .aggregates
                    .iter()
                    .filter_map(|a| a.expr.as_ref())
                    .all(|expr| expr.columns().iter().all(|c| is_value(root, c)))
                && denorm_keeps_every_row(snap, root, query)
        }
    }
}

/// Does the wide table hold every fact row `query` sees on AIR?
/// [`denormalize`] inner-joins every dimension reachable from `root`, so it
/// drops a fact row whose reference into a dimension is NULL or lands on a
/// deleted tuple; AIR drops it only when the statement reads that
/// dimension. The two agree when the statement reads every reachable
/// dimension (through the chain to it), or when no folded table's key
/// zone counts a NULL and no folded dimension has a dead slot.
fn denorm_keeps_every_row(snap: &Database, root: &str, query: &Query) -> bool {
    let graph = JoinGraph::build(snap);
    let read: Vec<&str> = query
        .referenced_tables()
        .into_iter()
        .filter_map(|t| graph.path(root, t))
        .flat_map(|path| path.steps.iter().map(|step| step.to_table.as_str()))
        .collect();
    let leaves = graph.leaves_of(root);
    if leaves.iter().all(|t| read.contains(t)) {
        return true;
    }
    let no_null_key = |table: &Table| {
        let keys: Vec<usize> = (table.schema().defs().iter().enumerate())
            .filter(|(_, def)| matches!(def.dtype, DataType::Key { .. }))
            .map(|(col, _)| col)
            .collect();
        table.zones().iter().all(|zone| {
            keys.iter().all(|&col| matches!(zone.stat(col), ZoneStats::Key { nulls: 0, .. }))
        })
    };
    snap.table(root).is_some_and(no_null_key)
        && leaves
            .iter()
            .filter_map(|t| snap.table(t))
            .all(|dim| no_null_key(dim) && !dim.has_deletes())
}

/// The table a star query scans: its explicit root, else the largest table
/// it references (the fact table dominates a star query).
fn fact_table<'a>(snap: &'a Database, query: &'a Query) -> Option<(&'a str, &'a Table)> {
    if let Some(root) = &query.root {
        return snap.table(root).map(|t| (root.as_str(), t));
    }
    query
        .referenced_tables()
        .into_iter()
        .filter_map(|name| snap.table(name).map(|t| (name, t)))
        .max_by_key(|(_, t)| t.num_slots())
}

/// Returns `true` when every column the query references maps onto the wide
/// denormalized table — the precondition for [`Denormalized::rewrite`]
/// (which panics on unmapped columns, e.g. `rowid` or key columns).
pub fn query_rewritable(denorm: &Denormalized, query: &Query, root: &str) -> bool {
    for (table, pred) in &query.selections {
        for col in pred.columns() {
            if denorm.wide_column(table, col).is_none() {
                return false;
            }
        }
    }
    for g in &query.group_by {
        if denorm.wide_column(&g.table, &g.column).is_none() {
            return false;
        }
    }
    for a in &query.aggregates {
        if let Some(expr) = &a.expr {
            for col in expr.columns() {
                if denorm.wide_column(root, col).is_none() {
                    return false;
                }
            }
        }
    }
    true
}

/// One cached materialization: the wide table plus the identity (Arc) and
/// epoch of every source table it was folded from.
pub struct DenormEntry {
    /// The materialized denormalization (wide db + column mapping).
    pub denorm: Denormalized,
    /// `(table, source Arc, epoch at build)` for the root and every folded
    /// dimension. An entry is valid only while each source is either the
    /// *same* Arc (pointer equality — untouched under COW snapshots) or an
    /// equal-epoch rebuild.
    sources: Vec<(String, Arc<Table>, u64)>,
}

impl DenormEntry {
    /// Is this materialization still current for `db`? Stale entries are
    /// dropped, never served (epoch-based invalidation on write).
    pub fn valid_for(&self, db: &Database) -> bool {
        self.sources.iter().all(|(name, arc, epoch)| match db.table_arc(name) {
            Some(cur) => Arc::ptr_eq(&cur, arc) || cur.epoch() == *epoch,
            None => false,
        })
    }
}

/// Cache of denormalized wide tables, keyed by root (fact) table name, with
/// epoch-based invalidation on write.
#[derive(Default)]
pub struct DenormCache {
    entries: Mutex<HashMap<String, Arc<DenormEntry>>>,
}

impl std::fmt::Debug for DenormCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenormCache").field("entries", &self.len()).finish()
    }
}

impl DenormCache {
    /// Creates an empty cache.
    pub fn new() -> DenormCache {
        DenormCache::default()
    }

    /// Returns a current materialization rooted at `root`, building (and
    /// caching) one if missing or stale. `db` must be the execution's
    /// immutable snapshot — sources are captured from it, so the entry is
    /// exactly as fresh as the snapshot.
    pub fn get_or_build(&self, db: &Database, root: &str) -> Result<Arc<DenormEntry>, BindError> {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get(root) {
            if entry.valid_for(db) {
                return Ok(Arc::clone(entry));
            }
            entries.remove(root);
        }
        let denorm = denormalize(db, Some(root))?;
        let graph = JoinGraph::build(db);
        let mut names: Vec<String> = vec![root.to_owned()];
        names.extend(graph.leaves_of(root).into_iter().map(str::to_owned));
        let mut sources = Vec::with_capacity(names.len());
        for name in names {
            if let Some(arc) = db.table_arc(&name) {
                let epoch = arc.epoch();
                sources.push((name, arc, epoch));
            }
        }
        let entry = Arc::new(DenormEntry { denorm, sources });
        entries.insert(root.to_owned(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Number of cached materializations (including any stale ones not yet
    /// probed).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached materialization.
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::prelude::*;

    fn star_db() -> Database {
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_name", DataType::Dict),
                ColumnDef::new("d_rank", DataType::I32),
            ]),
        );
        dim.append_row(&[Value::Str("alpha".into()), Value::Int(1)]);
        dim.append_row(&[Value::Str("beta".into()), Value::Int(2)]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        for (k, v) in [(0u32, 10i64), (1, 20), (0, 30)] {
            fact.append_row(&[Value::Key(k), Value::Int(v)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    fn query(db: &Database, sql: &str) -> Query {
        astore_sql::sql_to_query(sql, db).unwrap()
    }

    const GROUPED: &str =
        "SELECT d_name, sum(f_v) AS s FROM fact, dim WHERE d_rank = 1 GROUP BY d_name";

    #[test]
    fn pins_win_and_fall_back_to_air_when_ineligible() {
        let db = star_db();
        let q = query(&db, GROUPED);
        assert_eq!(route(None, &db, &q), EngineChoice::Air, "no pin: the rule says AIR");
        for pin in EngineChoice::ALL {
            assert_eq!(route(Some(pin), &db, &q), pin, "an eligible pin wins");
        }
        let keyed = query(&db, "SELECT f_dim, count(*) AS c FROM fact GROUP BY f_dim");
        assert_eq!(route(Some(EngineChoice::Join), &db, &keyed), EngineChoice::Join);
        assert_eq!(
            route(Some(EngineChoice::Denorm), &db, &keyed),
            EngineChoice::Air,
            "an ineligible pin degrades to AIR"
        );
    }

    #[test]
    fn rowid_predicates_route_to_air() {
        let db = star_db();
        let q = Query::new()
            .root("fact")
            .filter("fact", astore_core::expr::Pred::eq("rowid", 1))
            .agg(astore_core::query::Aggregate::count("c"));
        for pin in [None, Some(EngineChoice::Join), Some(EngineChoice::Denorm)] {
            assert_eq!(route(pin, &db, &q), EngineChoice::Air, "{pin:?}");
        }
    }

    /// The wide table folds references away, so a statement that reads a
    /// key column has no denormalized shape.
    #[test]
    fn denorm_rewritability_gates_the_arm() {
        let db = star_db();
        let denorm = denormalize(&db, Some("fact")).unwrap();
        for (sql, rewritable) in [
            (GROUPED, true),
            ("SELECT f_dim, count(*) AS c FROM fact GROUP BY f_dim", false),
            ("SELECT count(*) AS c FROM fact WHERE f_dim = 1", false),
        ] {
            let q = query(&db, sql);
            let want = if rewritable { EngineChoice::Denorm } else { EngineChoice::Air };
            assert_eq!(route(Some(EngineChoice::Denorm), &db, &q), want, "{sql}");
            assert_eq!(query_rewritable(&denorm, &q, "fact"), rewritable, "{sql}");
        }
    }

    #[test]
    fn a_fact_table_above_the_denorm_cap_routes_to_air() {
        let db = star_db();
        let q = query(&db, GROUPED);
        assert!(eligible(EngineChoice::Denorm, &db, &q, 3), "three fact rows, cap three");
        assert!(!eligible(EngineChoice::Denorm, &db, &q, 2), "three fact rows, cap two");
        assert!(eligible(EngineChoice::Join, &db, &q, 2), "the cap is the denorm arm's alone");
        assert!(db.table("fact").unwrap().num_slots() <= DENORM_MAX_FACT_ROWS);
    }

    /// A fact table keyed into `dim` and `other`; the second fact row's
    /// `other` key is `other_key`.
    fn two_dim_db(other_key: Key) -> Database {
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_v", DataType::Dict)]));
        dim.append_row(&[Value::Str("x".into())]);
        let mut other =
            Table::new("other", Schema::new(vec![ColumnDef::new("o_v", DataType::I32)]));
        for v in [1, 2] {
            other.append_row(&[Value::Int(v)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_other", DataType::Key { target: "other".into() }),
                ColumnDef::new("f_m", DataType::I64),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Key(0), Value::Int(1)]);
        fact.append_row(&[Value::Key(0), Value::Key(other_key), Value::Int(2)]);
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(other);
        db.add_table(fact);
        db
    }

    /// The one sum `sql` answers on AIR and on the wide table.
    fn air_and_denorm_sums(db: &Database, sql: &str) -> (Value, Value) {
        use astore_core::exec::{execute, ExecOptions};
        let q = query(db, sql);
        let sum = |db: &Database, q: &Query| {
            let rows = execute(db, q, &ExecOptions::default()).unwrap().result.rows;
            rows.first().map_or(Value::Null, |row| row.last().unwrap().clone())
        };
        let wide = denormalize(db, Some("fact")).unwrap();
        (sum(db, &q), sum(&wide.db, &wide.rewrite(&q, "fact")))
    }

    /// The wide table inner-joins every dimension, so it lost the fact rows
    /// whose key into a dimension is NULL or lands on a deleted row. AIR
    /// keeps such a row when the statement does not read that dimension,
    /// and the pin then falls back to AIR.
    #[test]
    fn denorm_is_refused_where_the_wide_table_lost_rows() {
        const DIM_ONLY: &str = "SELECT d_v, sum(f_m) AS s FROM fact, dim GROUP BY d_v";
        const BOTH: &str =
            "SELECT d_v, sum(f_m) AS s FROM fact, dim, other WHERE o_v > 0 GROUP BY d_v";
        let denorm =
            |db: &Database, sql: &str| route(Some(EngineChoice::Denorm), db, &query(db, sql));

        let nulled = two_dim_db(NULL_KEY);
        assert_eq!(
            air_and_denorm_sums(&nulled, DIM_ONLY),
            (Value::Float(3.0), Value::Float(1.0)),
            "the probe: the wide table lost the NULL-keyed row"
        );
        assert_eq!(denorm(&nulled, DIM_ONLY), EngineChoice::Air);
        // Reading `other` drops the row on AIR too.
        assert_eq!(air_and_denorm_sums(&nulled, BOTH), (Value::Float(1.0), Value::Float(1.0)));
        assert_eq!(denorm(&nulled, BOTH), EngineChoice::Denorm);

        // Every key set and every row live: nothing was lost.
        let mut whole = two_dim_db(1);
        assert_eq!(air_and_denorm_sums(&whole, DIM_ONLY), (Value::Float(3.0), Value::Float(3.0)));
        assert_eq!(denorm(&whole, DIM_ONLY), EngineChoice::Denorm);

        // A deleted `other` row leaves the second fact row's key dangling.
        whole.table_mut("other").unwrap().delete(1);
        assert_eq!(air_and_denorm_sums(&whole, DIM_ONLY), (Value::Float(3.0), Value::Float(1.0)));
        assert_eq!(denorm(&whole, DIM_ONLY), EngineChoice::Air);
        assert_eq!(denorm(&whole, BOTH), EngineChoice::Denorm);
    }

    #[test]
    fn engine_choice_labels_round_trip() {
        for e in EngineChoice::ALL {
            assert_eq!(EngineChoice::parse(e.as_str()).unwrap(), Some(e));
        }
        assert_eq!(EngineChoice::parse("auto").unwrap(), None);
        assert!(EngineChoice::parse("quantum").is_err());
    }

    #[test]
    fn denorm_cache_validates_by_epoch_and_rebuilds_on_write() {
        let mut db = star_db();
        let cache = DenormCache::new();
        let e1 = cache.get_or_build(&db, "fact").unwrap();
        assert!(e1.valid_for(&db));
        let e2 = cache.get_or_build(&db, "fact").unwrap();
        assert!(Arc::ptr_eq(&e1, &e2), "unchanged db reuses the entry");

        // A write to any folded table invalidates the materialization.
        db.table_mut("fact").unwrap().append_row(&[Value::Key(1), Value::Int(40)]);
        assert!(!e1.valid_for(&db), "stale entries are detected, never served");
        let e3 = cache.get_or_build(&db, "fact").unwrap();
        assert!(!Arc::ptr_eq(&e1, &e3), "stale entry was dropped and rebuilt");
        assert!(e3.valid_for(&db));
        assert_eq!(e3.denorm.table().num_live(), 4, "rebuild sees the new row");
    }

    #[test]
    fn rewritability_probe_matches_rewrite_preconditions() {
        let db = star_db();
        let denorm = denormalize(&db, Some("fact")).unwrap();
        let good = astore_sql::sql_to_query(
            "SELECT d_name, sum(f_v) AS s FROM fact, dim WHERE d_rank = 1 GROUP BY d_name",
            &db,
        )
        .unwrap();
        assert!(query_rewritable(&denorm, &good, "fact"));
        // rowid (and key columns) never map onto the wide table.
        let bad = astore_core::query::Query::new()
            .root("fact")
            .filter("fact", astore_core::expr::Pred::eq("rowid", 1))
            .agg(astore_core::query::Aggregate::count("c"));
        assert!(!query_rewritable(&denorm, &bad, "fact"));
    }
}
