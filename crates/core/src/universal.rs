//! The virtual universal table (paper §3).
//!
//! "Given a SPJGA query Q, we reserve only the join operations of Q … the
//! result of the remaining query is the universal table of Q. … A-Store
//! never materializes the universal table before the scan. The array index
//! references have already linked all the tables together, forming a
//! virtual denormalization."
//!
//! [`Universal`] binds a catalog image and a root table, and resolves any
//! [`ColRef`] into a [`ResolvedCol`]: the chain of AIR arrays to chase from
//! a fact row, plus the target column. The reference paths come from the
//! image's own join graph ([`Database::graph`]), and [`Universal::bind`] is
//! the one rule that picks a query's root. Chasing is a handful of
//! positional array lookups — the paper's "scan-and-address" join.

use astore_storage::catalog::Database;
use astore_storage::chunks::Chunked;
use astore_storage::column::Column;
use astore_storage::graph::{JoinGraph, RefPath};
use astore_storage::table::Table;
use astore_storage::types::{Key, NULL_KEY};

use crate::query::ColRef;

/// Errors raised while binding a query to a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The referenced table does not exist.
    NoTable(String),
    /// The referenced column does not exist.
    NoColumn(String, String),
    /// No reference path from the root to the table.
    Unreachable {
        /// The root table.
        root: String,
        /// The unreachable table.
        table: String,
    },
    /// No root table covers all referenced tables.
    NoRoot(Vec<String>),
    /// The query is still a template: it carries this many unbound
    /// parameter slots and must go through `Query::bind_params` first.
    UnboundParams(usize),
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::NoTable(t) => write!(f, "table {t:?} does not exist"),
            BindError::NoColumn(t, c) => write!(f, "column {t:?}.{c:?} does not exist"),
            BindError::Unreachable { root, table } => {
                write!(f, "table {table:?} is not reachable from root {root:?}")
            }
            BindError::NoRoot(tables) => {
                write!(f, "no single root table reaches all of {tables:?}")
            }
            BindError::UnboundParams(n) => {
                write!(f, "query template has {n} unbound parameter(s); bind them first")
            }
        }
    }
}

impl std::error::Error for BindError {}

/// A bound view of the virtually denormalized schema, rooted at one fact
/// table.
pub struct Universal<'a> {
    db: &'a Database,
    root: &'a Table,
}

impl<'a> Universal<'a> {
    /// Binds the universal table of a query: rooted at `explicit` when the
    /// query names its root, else at the first root of the join graph whose
    /// reference paths reach every table in `referenced`
    /// ([`JoinGraph::root_covering`]). AIR and the baseline engines bind
    /// through here, so they agree on the root.
    pub fn bind(
        db: &'a Database,
        explicit: Option<&str>,
        referenced: &[&str],
    ) -> Result<Self, BindError> {
        let root = match explicit {
            Some(root) => root,
            None => db.graph().root_covering(referenced).ok_or_else(|| {
                BindError::NoRoot(referenced.iter().map(|s| s.to_string()).collect())
            })?,
        };
        let root = db.table(root).ok_or_else(|| BindError::NoTable(root.to_owned()))?;
        Ok(Universal { db, root })
    }

    /// The root (fact) table name.
    pub fn root(&self) -> &'a str {
        self.root.name()
    }

    /// The root table.
    pub fn root_table(&self) -> &'a Table {
        self.root
    }

    /// The database.
    pub fn db(&self) -> &'a Database {
        self.db
    }

    /// The join graph of the bound image.
    pub fn graph(&self) -> &'a JoinGraph {
        self.db.graph()
    }

    /// The reference path `root -> table` (empty for the root itself).
    pub fn path(&self, table: &str) -> Result<&'a RefPath, BindError> {
        self.graph().path(self.root(), table).ok_or_else(|| BindError::Unreachable {
            root: self.root().to_owned(),
            table: table.to_owned(),
        })
    }

    /// The AIR hop arrays along the path `root -> table`, in traversal
    /// order. Empty for the root itself.
    pub fn hops_to(&self, table: &str) -> Result<Vec<&'a Chunked<Key>>, BindError> {
        let path = self.path(table)?;
        let mut hops = Vec::with_capacity(path.steps.len());
        for step in &path.steps {
            let t = self
                .db
                .table(&step.from_table)
                .ok_or_else(|| BindError::NoTable(step.from_table.clone()))?;
            let col = t.column(&step.key_column).ok_or_else(|| {
                BindError::NoColumn(step.from_table.clone(), step.key_column.clone())
            })?;
            let (_, keys) = col.as_key().unwrap_or_else(|| {
                panic!("{}.{} is not a key column", step.from_table, step.key_column)
            });
            hops.push(keys);
        }
        Ok(hops)
    }

    /// Resolves a column reference into its AIR chain + target column.
    pub fn resolve(&self, col: &ColRef) -> Result<ResolvedCol<'a>, BindError> {
        let table =
            self.db.table(&col.table).ok_or_else(|| BindError::NoTable(col.table.clone()))?;
        let column = table
            .column(&col.column)
            .ok_or_else(|| BindError::NoColumn(col.table.clone(), col.column.clone()))?;
        let hops = self.hops_to(&col.table)?;
        Ok(ResolvedCol { hops, table, column })
    }
}

/// A column of the universal table: the chain of AIR arrays from the root
/// plus the physical column it lands on.
pub struct ResolvedCol<'a> {
    /// AIR hop arrays, in traversal order (empty if the column lives on the
    /// root table).
    pub hops: Vec<&'a Chunked<Key>>,
    /// The table the column lives on.
    pub table: &'a Table,
    /// The physical column.
    pub column: &'a Column,
}

impl ResolvedCol<'_> {
    /// Chases the AIR chain from a root row to the row holding this column's
    /// value. Returns `None` if any hop is [`NULL_KEY`] or out of range —
    /// the virtual-denormalization analogue of a failed join match.
    #[inline]
    pub fn locate(&self, root_row: usize) -> Option<usize> {
        let mut row = root_row;
        for keys in &self.hops {
            let k = keys.get_checked(row)?;
            if k == NULL_KEY {
                return None;
            }
            row = k as usize;
        }
        Some(row)
    }

    /// Number of AIR hops (0 = root column).
    pub fn depth(&self) -> usize {
        self.hops.len()
    }

    /// Returns `true` if the column lives on the root table (no chasing
    /// needed — the scan is purely sequential).
    pub fn is_root_local(&self) -> bool {
        self.hops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::prelude::*;

    /// fact -> mid -> dim, with concrete data so chasing can be verified.
    fn chain_db() -> Database {
        let mut db = Database::new();
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_name", DataType::Str)]));
        dim.append_row(&[Value::Str("alpha".into())]);
        dim.append_row(&[Value::Str("beta".into())]);

        let mut mid = Table::new(
            "mid",
            Schema::new(vec![
                ColumnDef::new("m_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("m_v", DataType::I32),
            ]),
        );
        mid.append_row(&[Value::Key(1), Value::Int(10)]);
        mid.append_row(&[Value::Key(0), Value::Int(20)]);
        mid.append_row(&[Value::Key(NULL_KEY), Value::Int(30)]);

        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_mid", DataType::Key { target: "mid".into() }),
                ColumnDef::new("f_m", DataType::I64),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Int(100)]);
        fact.append_row(&[Value::Key(2), Value::Int(200)]);
        fact.append_row(&[Value::Key(1), Value::Int(300)]);
        db.add_table(dim);
        db.add_table(mid);
        db.add_table(fact);
        db
    }

    #[test]
    fn resolve_root_column_has_no_hops() {
        let db = chain_db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let r = u.resolve(&ColRef::new("fact", "f_m")).unwrap();
        assert!(r.is_root_local());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.locate(1), Some(1));
        assert_eq!(r.column.int_at(1), Some(200));
    }

    #[test]
    fn resolve_chases_two_hops() {
        let db = chain_db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let r = u.resolve(&ColRef::new("dim", "d_name")).unwrap();
        assert_eq!(r.depth(), 2);
        // fact row 0 -> mid 0 -> dim 1 = "beta"
        let dim_row = r.locate(0).unwrap();
        assert_eq!(r.column.str_at(dim_row), Some("beta"));
        // fact row 2 -> mid 1 -> dim 0 = "alpha"
        assert_eq!(r.column.str_at(r.locate(2).unwrap()), Some("alpha"));
    }

    #[test]
    fn null_key_breaks_the_chain() {
        let db = chain_db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let r = u.resolve(&ColRef::new("dim", "d_name")).unwrap();
        // fact row 1 -> mid 2 -> NULL
        assert_eq!(r.locate(1), None);
    }

    #[test]
    fn bind_errors() {
        let db = chain_db();
        let bind = |root| Universal::bind(&db, Some(root), &[]);
        assert!(matches!(bind("ghost"), Err(BindError::NoTable(_))));
        let u = bind("fact").unwrap();
        assert!(matches!(u.resolve(&ColRef::new("dim", "ghost")), Err(BindError::NoColumn(..))));
        // "dim" cannot reach "fact".
        let udim = bind("dim").unwrap();
        assert!(matches!(
            udim.resolve(&ColRef::new("fact", "f_m")),
            Err(BindError::Unreachable { .. })
        ));
    }

    #[test]
    fn bind_root_explicit_and_inferred() {
        let db = chain_db();
        let root = |explicit, referenced: &[&str]| {
            Universal::bind(&db, explicit, referenced).map(|u| u.root())
        };
        assert_eq!(root(Some("fact"), &[]).unwrap(), "fact");
        assert_eq!(root(Some("dim"), &["fact"]).unwrap(), "dim", "an explicit root wins");
        assert_eq!(root(None, &["dim", "mid"]).unwrap(), "fact");
        assert_eq!(root(None, &["dim"]).unwrap(), "fact", "a dimension is not a root");
        assert!(matches!(root(None, &["nonexistent"]), Err(BindError::NoRoot(_))));
    }

    #[test]
    fn hops_to_root_is_empty() {
        let db = chain_db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        assert!(u.hops_to("fact").unwrap().is_empty());
        assert_eq!(u.hops_to("dim").unwrap().len(), 2);
    }

    #[test]
    fn bind_error_display() {
        let e = BindError::Unreachable { root: "f".into(), table: "d".into() };
        assert!(e.to_string().contains("not reachable"));
        assert!(BindError::NoTable("x".into()).to_string().contains("does not exist"));
    }
}
