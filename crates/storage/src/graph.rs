//! Join graphs and reference paths (paper §3).
//!
//! "The structure of join can be modeled as a directed graph, where the
//! vertexes represent the tables and the edges represent the array index
//! references. … A vertex without incoming edges is known as a root of the
//! join graph. … Each leaf table can be reached from the root table through
//! a chain of array index references."
//!
//! A [`JoinGraph`] is derived from the AIR columns of a [`Database`]'s
//! schemas, and [`RefPath`] is the chain of [`AirEdge`]s from the root to
//! any reachable table. The graph is a property of the catalog: the
//! [`Database`] builds it when a table is added and shares it by pointer
//! with every clone of that image ([`Database::graph`]), so nothing outside
//! this crate builds one.

use std::collections::{HashMap, VecDeque};

use crate::catalog::Database;

/// An AIR edge: `from_table.key_column` references `to_table`. It is also
/// one hop of a [`RefPath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AirEdge {
    /// The referencing table.
    pub from_table: String,
    /// The AIR column of `from_table`.
    pub key_column: String,
    /// The referenced table.
    pub to_table: String,
}

/// A chain of AIR hops from the root table to a target table. An empty path
/// denotes the root itself.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefPath {
    /// The hops, in traversal order.
    pub steps: Vec<AirEdge>,
}

impl RefPath {
    /// The table this path ends at, or `None` for the empty (root) path.
    pub fn target(&self) -> Option<&str> {
        self.steps.last().map(|s| s.to_table.as_str())
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for the root path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// The join graph of a database: tables as vertexes, AIR columns as edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinGraph {
    /// Adjacency: table -> outgoing edges, in schema column order.
    out_edges: HashMap<String, Vec<AirEdge>>,
    /// All table names, in catalog order.
    tables: Vec<String>,
    /// Shortest reference path from each root to each reachable table,
    /// keyed by (root, table).
    paths: HashMap<(String, String), RefPath>,
    /// Root tables (no incoming AIR edge but at least one outgoing, or
    /// isolated tables).
    roots: Vec<String>,
}

impl JoinGraph {
    /// Builds the join graph of `db` from the `Key` columns of its schemas.
    /// Only [`Database::add_table`] calls this: the catalog image owns its
    /// graph.
    pub(crate) fn build(db: &Database) -> Self {
        let tables: Vec<String> = db.table_names().to_vec();
        let out_edges: HashMap<String, Vec<AirEdge>> = tables
            .iter()
            .map(|name| {
                let table = db.table(name).expect("listed table exists");
                let edges = table.columns().filter_map(|(column, col)| {
                    col.as_key().map(|(target, _)| AirEdge {
                        from_table: name.clone(),
                        key_column: column.to_owned(),
                        to_table: target.to_owned(),
                    })
                });
                (name.clone(), edges.collect())
            })
            .collect();
        let referenced = |t: &String| out_edges.values().flatten().any(|e| &e.to_table == t);
        let roots: Vec<String> = tables.iter().filter(|t| !referenced(t)).cloned().collect();

        // BFS from every root records the shortest AIR chain to each
        // reachable table (shortest = fewest random lookups per fact tuple).
        let mut paths: HashMap<(String, String), RefPath> = HashMap::new();
        for root in &roots {
            let mut queue = VecDeque::new();
            paths.insert((root.clone(), root.clone()), RefPath::default());
            queue.push_back(root.clone());
            while let Some(t) = queue.pop_front() {
                let base = paths[&(root.clone(), t.clone())].clone();
                for edge in out_edges.get(&t).into_iter().flatten() {
                    let key = (root.clone(), edge.to_table.clone());
                    if paths.contains_key(&key) {
                        continue;
                    }
                    let mut p = base.clone();
                    p.steps.push(edge.clone());
                    paths.insert(key, p);
                    queue.push_back(edge.to_table.clone());
                }
            }
        }

        JoinGraph { out_edges, tables, paths, roots }
    }

    /// The root tables (fact tables in a star/snowflake schema).
    pub fn roots(&self) -> &[String] {
        &self.roots
    }

    /// Returns `true` if the graph is single-rooted (the common OLAP case,
    /// Fig. 4 of the paper).
    pub fn is_single_rooted(&self) -> bool {
        self.roots.len() == 1
    }

    /// Tables reachable from `root` (excluding the root itself): the leaf
    /// (dimension) tables of that root.
    pub fn leaves_of(&self, root: &str) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .paths
            .keys()
            .filter(|(r, t)| r == root && t != root)
            .map(|(_, t)| t.as_str())
            .collect();
        out.sort_unstable();
        out
    }

    /// The reference path from `root` to `table` (empty for `table == root`),
    /// or `None` if unreachable.
    pub fn path(&self, root: &str, table: &str) -> Option<&RefPath> {
        self.paths.get(&(root.to_owned(), table.to_owned()))
    }

    /// Outgoing AIR edges of a table, in schema column order.
    pub fn out_edges(&self, table: &str) -> &[AirEdge] {
        self.out_edges.get(table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Every AIR edge, in catalog order, then schema column order.
    pub fn edges(&self) -> impl Iterator<Item = &AirEdge> {
        self.tables.iter().flat_map(|t| self.out_edges(t))
    }

    /// In-degree of a table: the AIR columns that reference it.
    pub fn in_degree(&self, table: &str) -> usize {
        self.edges().filter(|e| e.to_table == table).count()
    }

    /// All tables.
    pub fn tables(&self) -> &[String] {
        &self.tables
    }

    /// Picks the root able to reach every table mentioned in `needed`,
    /// preferring a single-rooted match. This is how queries that do not
    /// name their fact table get bound.
    pub fn root_covering<'a>(&'a self, needed: &[&str]) -> Option<&'a str> {
        self.roots
            .iter()
            .find(|r| needed.iter().all(|t| self.path(r, t).is_some()))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// lineitem -> orders -> customer -> nation -> region (paper Fig. 3),
    /// plus lineitem -> part.
    fn snowflake() -> Database {
        let mut db = Database::new();
        let mk = |name: &str, cols: Vec<ColumnDef>| Table::new(name, Schema::new(cols));
        db.add_table(mk("region", vec![ColumnDef::new("r_name", DataType::Str)]));
        db.add_table(mk(
            "nation",
            vec![
                ColumnDef::new("n_name", DataType::Str),
                ColumnDef::new("n_regionkey", DataType::Key { target: "region".into() }),
            ],
        ));
        db.add_table(mk(
            "customer",
            vec![ColumnDef::new("c_nationkey", DataType::Key { target: "nation".into() })],
        ));
        db.add_table(mk(
            "orders",
            vec![
                ColumnDef::new("o_custkey", DataType::Key { target: "customer".into() }),
                ColumnDef::new("o_price", DataType::I64),
            ],
        ));
        db.add_table(mk("part", vec![ColumnDef::new("p_name", DataType::Str)]));
        db.add_table(mk(
            "lineitem",
            vec![
                ColumnDef::new("l_orderkey", DataType::Key { target: "orders".into() }),
                ColumnDef::new("l_partkey", DataType::Key { target: "part".into() }),
                ColumnDef::new("l_extendedprice", DataType::F64),
            ],
        ));
        db
    }

    #[test]
    fn single_root_is_the_fact_table() {
        let db = snowflake();
        let g = db.graph();
        assert_eq!(g.roots(), &["lineitem".to_string()]);
        assert!(g.is_single_rooted());
    }

    #[test]
    fn leaves_are_all_dimensions() {
        let db = snowflake();
        let g = db.graph();
        assert_eq!(g.leaves_of("lineitem"), vec!["customer", "nation", "orders", "part", "region"]);
    }

    #[test]
    fn reference_path_chains_match_paper_figure3() {
        let db = snowflake();
        let g = db.graph();
        let p = g.path("lineitem", "region").unwrap();
        let chain: Vec<&str> = p.steps.iter().map(|s| s.to_table.as_str()).collect();
        assert_eq!(chain, vec!["orders", "customer", "nation", "region"]);
        let cols: Vec<&str> = p.steps.iter().map(|s| s.key_column.as_str()).collect();
        assert_eq!(cols, vec!["l_orderkey", "o_custkey", "c_nationkey", "n_regionkey"]);
        assert_eq!(p.target(), Some("region"));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn root_path_is_empty() {
        let db = snowflake();
        let g = db.graph();
        let p = g.path("lineitem", "lineitem").unwrap();
        assert!(p.is_empty());
        assert_eq!(p.target(), None);
    }

    #[test]
    fn unreachable_table_has_no_path() {
        let mut db = snowflake();
        db.add_table(Table::new("island", Schema::new(vec![ColumnDef::new("x", DataType::I32)])));
        let g = db.graph();
        assert!(g.path("lineitem", "island").is_none());
        // The island is itself a root (no incoming edges).
        assert!(g.roots().contains(&"island".to_string()));
    }

    #[test]
    fn in_degree_and_out_edges() {
        let db = snowflake();
        let g = db.graph();
        assert_eq!(g.in_degree("region"), 1);
        assert_eq!(g.in_degree("lineitem"), 0);
        assert_eq!(g.out_edges("lineitem").len(), 2);
        assert_eq!(g.out_edges("region").len(), 0);
    }

    #[test]
    fn root_covering_picks_reaching_root() {
        let db = snowflake();
        let g = db.graph();
        assert_eq!(g.root_covering(&["region", "part"]), Some("lineitem"));
        assert_eq!(g.root_covering(&["lineitem"]), Some("lineitem"));
        let mut db = snowflake();
        db.add_table(Table::new("island", Schema::new(vec![ColumnDef::new("x", DataType::I32)])));
        let g = db.graph();
        assert_eq!(g.root_covering(&["island"]), Some("island"));
        assert_eq!(g.root_covering(&["island", "region"]), None);
    }

    #[test]
    fn shortest_path_is_preferred_on_diamonds() {
        // fact -> a -> dim, fact -> dim: the direct edge must win.
        let mut db = Database::new();
        db.add_table(Table::new("dim", Schema::new(vec![ColumnDef::new("v", DataType::I32)])));
        db.add_table(Table::new(
            "a",
            Schema::new(vec![ColumnDef::new("a_dim", DataType::Key { target: "dim".into() })]),
        ));
        db.add_table(Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_a", DataType::Key { target: "a".into() }),
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
            ]),
        ));
        assert_eq!(db.graph().path("fact", "dim").unwrap().len(), 1);
    }
}
