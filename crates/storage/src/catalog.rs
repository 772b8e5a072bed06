//! The database catalog: a set of named tables connected by AIR columns.
//!
//! The catalog owns the schema's *join graph* (paper §3, [`JoinGraph`]):
//! the AIR edges (`fact.fk -> dimension`) of its tables, the roots and the
//! reference paths. [`Database::add_table`], the only schema change, rebuilds
//! it; every other image of the catalog shares it by pointer. The catalog
//! also implements the consolidation protocol (paper §4.4): compacting a
//! table requires rewriting every inbound reference column.

use std::collections::HashMap;
use std::sync::Arc;

use crate::column::Column;
use crate::graph::JoinGraph;
use crate::table::Table;
use crate::types::{Key, NULL_KEY};

/// A set of named tables. Tables are held behind [`Arc`] so snapshots
/// (see [`crate::snapshot`]) are cheap copy-on-write clones, and a table
/// itself clones in O(columns × segments) pointer bumps (see
/// [`crate::table`]), so [`Database::table_mut`] never copies row data
/// wholesale. A clone shares the join graph too.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: HashMap<String, Arc<Table>>,
    /// Table names in insertion order, for deterministic iteration.
    order: Vec<String>,
    /// The join graph of the tables' schemas, rebuilt by `add_table`.
    graph: Arc<JoinGraph>,
    /// Commit version: bumped once per published write batch (not per
    /// statement). Diagnostics only — never persisted, restarts from 0.
    version: u64,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The commit version of this catalog image.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Advances the commit version (call once per published write batch).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Adds (or replaces) a table, and rebuilds the join graph.
    pub fn add_table(&mut self, table: Table) {
        let name = table.name().to_owned();
        if self.tables.insert(name.clone(), Arc::new(table)).is_none() {
            self.order.push(name);
        }
        self.graph = Arc::new(JoinGraph::build(self));
    }

    /// The join graph of this image's schemas: its roots and reference
    /// paths. Built by [`Database::add_table`]; clones share it.
    pub fn graph(&self) -> &Arc<JoinGraph> {
        &self.graph
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Looks up a table's [`Arc`] (for sharing with worker threads).
    pub fn table_arc(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Mutable access to a table. If snapshots still hold it, the table is
    /// cloned first — pointer bumps only; the mutation then copies just the
    /// chunks of the segments it touches (copy-on-write).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).map(Arc::make_mut)
    }

    /// A copy of the database with every table decoded flat (see
    /// [`Table::decoded`]): the flat oracle of the differential tests.
    pub fn decoded(&self) -> Database {
        let mut db = self.clone();
        for t in db.tables.values_mut() {
            *t = Arc::new(t.decoded());
        }
        db
    }

    /// Table names in insertion order.
    pub fn table_names(&self) -> &[String] {
        &self.order
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Checks referential integrity of every AIR column: each key must be
    /// [`NULL_KEY`] or address a *live* slot of an existing target table.
    /// Returns the list of violations as human-readable strings.
    pub fn validate_references(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for edge in self.graph.edges() {
            let Some(target) = self.table(&edge.to_table) else {
                errors.push(format!(
                    "{}.{} references missing table {}",
                    edge.from_table, edge.key_column, edge.to_table
                ));
                continue;
            };
            let src = &self.tables[&edge.from_table];
            let (_, keys) = src.column(&edge.key_column).unwrap().as_key().unwrap();
            for (row, k) in keys.iter().enumerate() {
                if !src.is_live(row as u32) || k == NULL_KEY {
                    continue;
                }
                if k as usize >= target.num_slots() {
                    errors.push(format!(
                        "{}.{}[{}] = {} out of range for {} ({} slots)",
                        edge.from_table,
                        edge.key_column,
                        row,
                        k,
                        edge.to_table,
                        target.num_slots()
                    ));
                } else if !target.is_live(k) {
                    errors.push(format!(
                        "{}.{}[{}] = {} references dead tuple in {}",
                        edge.from_table, edge.key_column, row, k, edge.to_table
                    ));
                }
            }
        }
        errors
    }

    /// Consolidates (compacts) a table and rewrites every inbound AIR column
    /// with the resulting slot remap — the paper's expensive, idle-time
    /// operation (§4.4). References to dropped tuples become [`NULL_KEY`].
    ///
    /// # Panics
    /// Panics if the table does not exist.
    pub fn consolidate(&mut self, name: &str) {
        let remap = {
            let t = self.table_mut(name).unwrap_or_else(|| panic!("no table {name:?}"));
            t.compact()
        };
        let graph = Arc::clone(&self.graph);
        for edge in graph.edges().filter(|e| e.to_table == name) {
            let src = self.table_mut(&edge.from_table).unwrap();
            if let Some(Column::Key { keys, .. }) = src.column_mut(&edge.key_column) {
                *keys = keys.map(|k| match k {
                    NULL_KEY => NULL_KEY,
                    k => remap.get(k as usize).copied().flatten().unwrap_or(NULL_KEY),
                });
            }
            // The raw key rewrite invalidated the column's zone statistics;
            // restore exact bounds so data skipping keeps working.
            src.rebuild_zone_maps();
        }
    }

    /// Total live bytes across all numeric arrays and key columns —
    /// a rough footprint indicator used by EXPERIMENTS.md to contrast
    /// virtual vs materialized denormalization space usage.
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for name in &self.order {
            let t = &self.tables[name];
            for (_, col) in t.columns() {
                total += match col {
                    Column::I32(v) => v.len() * 4,
                    Column::I64(v) => v.len() * 8,
                    Column::F64(v) => v.len() * 8,
                    Column::Str(c) => c.heap_bytes() + c.len() * 8,
                    Column::Dict(c) => {
                        c.len() * 4 + c.dict().values().iter().map(String::len).sum::<usize>()
                    }
                    Column::Key { keys, .. } => keys.len() * 4,
                };
            }
        }
        total
    }
}

/// Validates and returns a key for indexing into a table of `n` slots,
/// treating [`NULL_KEY`] as absent.
#[inline]
pub fn checked_key(k: Key, n: usize) -> Option<usize> {
    if k == NULL_KEY || k as usize >= n {
        None
    } else {
        Some(k as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::AirEdge;
    use crate::table::{ColumnDef, Schema};
    use crate::types::{DataType, Value};

    fn tiny_star() -> Database {
        let mut db = Database::new();
        let mut date =
            Table::new("date", Schema::new(vec![ColumnDef::new("d_year", DataType::I32)]));
        for y in [1992, 1993, 1994] {
            date.append_row(&[Value::Int(y)]);
        }
        let mut fact = Table::new(
            "lineorder",
            Schema::new(vec![
                ColumnDef::new("lo_dk", DataType::Key { target: "date".into() }),
                ColumnDef::new("lo_rev", DataType::I64),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Int(10)]);
        fact.append_row(&[Value::Key(2), Value::Int(20)]);
        fact.append_row(&[Value::Key(1), Value::Int(30)]);
        db.add_table(date);
        db.add_table(fact);
        db
    }

    #[test]
    fn edges_discovered_from_key_columns() {
        let db = tiny_star();
        let edges: Vec<&AirEdge> = db.graph().edges().collect();
        assert_eq!(
            edges,
            [&AirEdge {
                from_table: "lineorder".into(),
                key_column: "lo_dk".into(),
                to_table: "date".into()
            }]
        );
    }

    #[test]
    fn clones_share_the_join_graph() {
        let db = tiny_star();
        let mut image = db.clone();
        assert!(Arc::ptr_eq(db.graph(), image.graph()));
        image.table_mut("lineorder").unwrap().append_row(&[Value::Key(1), Value::Int(40)]);
        image.consolidate("date");
        assert!(Arc::ptr_eq(db.graph(), image.graph()), "row writes keep the graph");
        assert!(Arc::ptr_eq(db.graph(), db.decoded().graph()));
    }

    #[test]
    fn add_table_rebuilds_the_join_graph() {
        let mut db = Database::new();
        assert_eq!(**db.graph(), JoinGraph::build(&db));
        let star = tiny_star();
        db.add_table(star.table("date").unwrap().clone());
        assert_eq!(db.graph().roots(), ["date".to_string()]);
        db.add_table(star.table("lineorder").unwrap().clone());
        assert_eq!(**db.graph(), JoinGraph::build(&db));
        assert_eq!(db.graph().roots(), ["lineorder".to_string()]);

        // Replacing a table with one of another schema rebuilds too: the
        // fact table loses its reference, so `date` is a root again.
        let before = Arc::clone(db.graph());
        db.add_table(Table::new(
            "lineorder",
            Schema::new(vec![ColumnDef::new("lo_rev", DataType::I64)]),
        ));
        assert!(!Arc::ptr_eq(&before, db.graph()));
        assert_eq!(**db.graph(), JoinGraph::build(&db));
        assert_eq!(db.graph().roots(), ["date".to_string(), "lineorder".into()]);
        assert!(db.graph().path("lineorder", "date").is_none());
    }

    #[test]
    fn validate_clean_database() {
        assert!(tiny_star().validate_references().is_empty());
    }

    #[test]
    fn validate_detects_dangling_and_dead_references() {
        let mut db = tiny_star();
        db.table_mut("lineorder").unwrap().update(0, "lo_dk", &Value::Key(99));
        db.table_mut("date").unwrap().delete(1);
        let errors = db.validate_references();
        assert_eq!(errors.len(), 2, "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("out of range")));
        assert!(errors.iter().any(|e| e.contains("dead tuple")));
    }

    #[test]
    fn consolidate_rewrites_inbound_references() {
        let mut db = tiny_star();
        // Kill date[0]; lineorder[0] references it and must become NULL.
        db.table_mut("date").unwrap().delete(0);
        db.consolidate("date");
        let fact = db.table("lineorder").unwrap();
        let (_, keys) = fact.column("lo_dk").unwrap().as_key().unwrap();
        // date[2] -> new slot 1, date[1] -> new slot 0.
        assert_eq!(keys.to_vec(), [NULL_KEY, 1, 0]);
        assert!(db.validate_references().is_empty());
        assert_eq!(db.table("date").unwrap().num_slots(), 2);
    }

    #[test]
    fn checked_key_rules() {
        assert_eq!(checked_key(0, 3), Some(0));
        assert_eq!(checked_key(2, 3), Some(2));
        assert_eq!(checked_key(3, 3), None);
        assert_eq!(checked_key(NULL_KEY, 3), None);
    }

    #[test]
    fn approx_bytes_counts_arrays() {
        let db = tiny_star();
        // date: 3 * 4; lineorder: 3 * 4 (keys) + 3 * 8 (i64).
        assert_eq!(db.approx_bytes(), 12 + 12 + 24);
    }

    #[test]
    fn table_names_in_insertion_order() {
        let db = tiny_star();
        assert_eq!(db.table_names(), &["date".to_string(), "lineorder".into()]);
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
    }
}
