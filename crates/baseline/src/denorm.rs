//! Fully materialized denormalization — the paper's "Denormalization"
//! comparator (hand-coded wide table, cf. Blink \[31\] and WideTable \[33\]).
//!
//! [`denormalize`] joins the entire star/snowflake into one wide table by
//! chasing the AIR chains once per fact row and materializing every
//! non-key column. Dictionary-compressed dimension columns keep their
//! dictionaries (only the code arrays are gathered), mirroring WideTable's
//! compression strategy. [`Denormalized::rewrite`] rebinds a normalized
//! SPJGA [`Query`] onto the wide table so the same engine can execute it —
//! the execution then has zero AIR hops, which is exactly the trade the
//! paper quantifies: faster scans for ~5× the RAM (§6.2.2).
//! [`Denormalized::answers`] says which statements the wide table answers
//! exactly as the normalized execution does.

use std::collections::HashMap;

use astore_core::query::{query_rewritable, ColRef, ColumnMap, Query};
use astore_core::universal::{BindError, Universal};
use astore_storage::column::Column;
use astore_storage::dictionary::DictColumn;
use astore_storage::prelude::*;
use astore_storage::segment::ZoneStats;

/// A materialized wide table plus the mapping back to the source schema.
pub struct Denormalized {
    /// A database holding the single wide table.
    pub db: Database,
    /// Name of the wide table.
    pub wide_name: String,
    /// `(source table, source column) -> wide column`.
    mapping: HashMap<(String, String), String>,
}

impl Denormalized {
    /// The wide table.
    pub fn table(&self) -> &Table {
        self.db.table(&self.wide_name).expect("wide table exists")
    }

    /// Rebinds a normalized query onto the wide table: all selections,
    /// grouping columns and measures become local columns of the wide
    /// table, so execution is a pure scan with no AIR hops.
    pub fn rewrite(&self, query: &Query, source_root: &str) -> Query {
        let mut out = Query::new().root(self.wide_name.clone());
        for (table, pred) in &query.selections {
            let table = table.clone();
            let renamed = pred.clone().map_columns(&|c| {
                self.wide_column(&table, c)
                    .unwrap_or_else(|| panic!("no wide column for {table}.{c}"))
                    .to_owned()
            });
            out = out.filter(self.wide_name.clone(), renamed);
        }
        for g in &query.group_by {
            let wide = self
                .wide_column(&g.table, &g.column)
                .unwrap_or_else(|| panic!("no wide column for {g}"));
            out.group_by.push(ColRef::new(self.wide_name.clone(), wide));
        }
        for a in &query.aggregates {
            let mut a = a.clone();
            a.expr = a.expr.map(|e| {
                e.map_columns(&|c| {
                    self.wide_column(source_root, c)
                        .unwrap_or_else(|| panic!("no wide column for {source_root}.{c}"))
                        .to_owned()
                })
            });
            out.aggregates.push(a);
        }
        out.order_by = query.order_by.clone();
        out.limit = query.limit;
        out
    }

    /// Does the wide table answer `query` exactly as the normalized
    /// execution on `db` — the database it was built from, rooted at
    /// `root` — does? It must carry every column the statement reads
    /// ([`query_rewritable`]: no key column, no `rowid`) and every fact row
    /// the statement sees (`keeps_every_row`: a NULL or dangling key drops
    /// a row from the wide table that AIR keeps when the statement does not
    /// read that dimension). [`Denormalized::rewrite`] panics on a
    /// statement that fails the first half.
    pub fn answers(&self, db: &Database, query: &Query, root: &str) -> bool {
        query_rewritable(self, query, root) && keeps_every_row(db, root, query)
    }

    /// Approximate bytes of the wide table (for the paper's §6.2.2 space
    /// comparison: 262 GB materialized vs 46 GB virtual at SF 100).
    pub fn approx_bytes(&self) -> usize {
        self.db.approx_bytes()
    }
}

impl ColumnMap for Denormalized {
    fn wide_column(&self, table: &str, column: &str) -> Option<&str> {
        self.mapping.get(&(table.to_owned(), column.to_owned())).map(String::as_str)
    }
}

/// Does the wide table of `db` rooted at `root` hold every fact row `query`
/// sees on AIR? [`denormalize`] inner-joins every dimension reachable from
/// `root`, so it drops a fact row whose reference into a dimension is NULL
/// or lands on a deleted tuple; AIR drops it only when the statement reads
/// that dimension. The two agree when the statement reads every reachable
/// dimension (through the chain to it), or when no folded table's key zone
/// counts a NULL and no folded dimension has a dead slot.
fn keeps_every_row(db: &Database, root: &str, query: &Query) -> bool {
    let graph = db.graph();
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
    db.table(root).is_some_and(no_null_key)
        && leaves
            .iter()
            .filter_map(|t| db.table(t))
            .all(|dim| no_null_key(dim) && !dim.has_deletes())
}

/// Materializes the full denormalization of the schema rooted at `root`
/// (explicit, or inferred as the single covering root).
///
/// Fact rows with an incomplete chain (a NULL or dangling reference, or a
/// reference to a deleted tuple) are dropped, as an inner join would do.
pub fn denormalize(db: &Database, root: Option<&str>) -> Result<Denormalized, BindError> {
    let all: Vec<&str> = db.table_names().iter().map(String::as_str).collect();
    let u = Universal::bind(db, root, &all)?;
    let fact = u.root_table();
    let n = fact.num_slots();

    // Tables to fold in: the root plus everything reachable, in a stable
    // order (root first, then leaves sorted).
    let mut tables: Vec<&str> = vec![u.root()];
    tables.extend(db.graph().leaves_of(u.root()));

    // Rows that survive the inner join: live fact rows whose chain to every
    // reachable table is complete and lands on live tuples. A chain's first
    // hop is a fact column, read in row order through a cursor; the later
    // hops land on dimension rows in fact order, read one value at a time.
    let mut keep: Vec<usize> = Vec::with_capacity(fact.num_live());
    {
        let mut chains = Vec::new();
        for t in &tables[1..] {
            let target = db.table(t).ok_or_else(|| BindError::NoTable(t.to_string()))?;
            let hops = u.hops_to(t)?;
            let (first, rest) = hops.split_first().expect("a dimension is at least one hop away");
            chains.push((first.cursor(), rest.to_vec(), target));
        }
        'rows: for row in 0..n {
            if !fact.is_live(row as RowId) {
                continue;
            }
            for (first, rest, target) in &mut chains {
                let mut k = first.get(row);
                for keys in rest.iter() {
                    if k == NULL_KEY || k as usize >= keys.len() {
                        continue 'rows;
                    }
                    k = keys.get(k as usize);
                }
                if k == NULL_KEY || k as usize >= target.num_slots() {
                    continue 'rows;
                }
                if target.has_deletes() && !target.is_live(k) {
                    continue 'rows;
                }
            }
            keep.push(row);
        }
    }

    // Materialize every non-key column of every table.
    let mut defs: Vec<ColumnDef> = Vec::new();
    let mut cols: Vec<Column> = Vec::new();
    let mut mapping: HashMap<(String, String), String> = HashMap::new();
    let mut used_names: HashMap<String, usize> = HashMap::new();

    for t in &tables {
        let table = db.table(t).unwrap();
        // Chase the chain one hop at a time for every kept row; only the
        // first hop (from the fact table) reads ascending rows.
        let mut dim_rows = keep.clone();
        for (hop, keys) in u.hops_to(t)?.into_iter().enumerate() {
            let mut key = reader(keys, hop == 0);
            dim_rows.iter_mut().for_each(|r| *r = key(*r) as usize);
        }
        let ascending = *t == u.root();
        for (name, col) in table.columns() {
            if matches!(col, Column::Key { .. }) {
                continue; // joins are materialized; references are dropped
            }
            let wide_name = match used_names.entry(name.to_owned()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(1);
                    name.to_owned()
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    *e.get_mut() += 1;
                    format!("{t}_{name}")
                }
            };
            mapping.insert((t.to_string(), name.to_owned()), wide_name.clone());
            let gathered = gather(col, &dim_rows, ascending);
            defs.push(ColumnDef::new(wide_name, gathered.dtype()));
            cols.push(gathered);
        }
    }

    let wide_name = "wide".to_owned();
    let wide = Table::from_columns(wide_name.clone(), Schema::new(defs), cols);
    let mut out = Database::new();
    out.add_table(wide);
    Ok(Denormalized { db: out, wide_name, mapping })
}

/// Reads `v` by row. Ascending rows (the fact table's own) go through a
/// [`ChunkCursor`](astore_storage::chunks::ChunkCursor), which decodes each
/// chunk once as the rows reach it. Rows in any other order (dimension rows
/// in fact order) read a copy of the column decoded once up front: the
/// cursor would decode a whole chunk on every miss.
fn reader<T: ChunkValue>(v: &Chunked<T>, ascending: bool) -> impl FnMut(usize) -> T + '_ {
    let mut cursor = v.cursor();
    let flat = if ascending { Vec::new() } else { v.to_vec() };
    move |row| if ascending { cursor.get(row) } else { flat[row] }
}

/// Gathers `col[rows[i]]` into a fresh column, built straight into
/// segment-sized chunks and read through [`reader`].
/// Dictionary columns share the source dictionary; only codes are gathered.
fn gather(col: &Column, rows: &[usize], ascending: bool) -> Column {
    fn values<T: ChunkValue>(v: &Chunked<T>, rows: &[usize], ascending: bool) -> Chunked<T> {
        let mut at = reader(v, ascending);
        Chunked::from_fn(rows.len(), |i| at(rows[i]))
    }
    match col {
        Column::I32(v) => Column::I32(values(v, rows, ascending)),
        Column::I64(v) => Column::I64(values(v, rows, ascending)),
        Column::F64(v) => Column::F64(values(v, rows, ascending)),
        Column::Dict(dc) => {
            let codes = values(dc.codes(), rows, ascending);
            Column::Dict(DictColumn::from_parts(codes, dc.dict_arc()))
        }
        Column::Str(sc) => {
            let mut out = astore_storage::strings::StrColumn::new();
            for &r in rows {
                out.push(sc.get(r));
            }
            Column::Str(out)
        }
        Column::Key { .. } => unreachable!("key columns are not materialized"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};
    use astore_core::expr::{CmpOp, MeasureExpr, Pred};
    use astore_core::query::{Aggregate, OrderKey};

    fn star_db() -> Database {
        let mut db = Database::new();
        let mut nation =
            Table::new("nation", Schema::new(vec![ColumnDef::new("n_name", DataType::Dict)]));
        for n in ["BRAZIL", "CHINA"] {
            nation.append_row(&[Value::Str(n.into())]);
        }
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_nation", DataType::Key { target: "nation".into() }),
                ColumnDef::new("c_seg", DataType::Dict),
            ]),
        );
        customer.append_row(&[Value::Key(0), Value::Str("AUTO".into())]);
        customer.append_row(&[Value::Key(1), Value::Str("BIKE".into())]);
        let mut fact = Table::new(
            "sales",
            Schema::new(vec![
                ColumnDef::new("s_cust", DataType::Key { target: "customer".into() }),
                ColumnDef::new("s_qty", DataType::I64),
            ]),
        );
        for (c, q) in [(0u32, 5i64), (1, 7), (0, 11), (1, 2)] {
            fact.append_row(&[Value::Key(c), Value::Int(q)]);
        }
        db.add_table(nation);
        db.add_table(customer);
        db.add_table(fact);
        db
    }

    #[test]
    fn wide_table_has_all_non_key_columns() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        let wide = d.table();
        assert_eq!(wide.num_slots(), 4);
        // s_qty, c_seg, n_name materialized; 2 key columns dropped.
        assert_eq!(wide.schema().arity(), 3);
        assert_eq!(d.wide_column("nation", "n_name"), Some("n_name"));
        assert_eq!(d.wide_column("sales", "s_qty"), Some("s_qty"));
    }

    #[test]
    fn wide_rows_are_the_join_result() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        let wide = d.table();
        let names: Vec<Value> = (0..4).map(|r| wide.column("n_name").unwrap().get(r)).collect();
        assert_eq!(
            names,
            vec![
                Value::Str("BRAZIL".into()),
                Value::Str("CHINA".into()),
                Value::Str("BRAZIL".into()),
                Value::Str("CHINA".into()),
            ]
        );
    }

    #[test]
    fn rewritten_query_matches_normalized_execution() {
        let db = star_db();
        let q = Query::new()
            .filter("customer", Pred::eq("c_seg", "AUTO"))
            .group("nation", "n_name")
            .agg(Aggregate::sum(MeasureExpr::col("s_qty"), "total"))
            .order(OrderKey::asc("n_name"));
        let normalized = execute(&db, &q, &ExecOptions::default()).unwrap();

        let d = denormalize(&db, None).unwrap();
        let wq = d.rewrite(&q, "sales");
        let wide = execute(&d.db, &wq, &ExecOptions::default()).unwrap();
        assert!(wide.result.same_contents(&normalized.result, 1e-9));
        assert_eq!(wide.result.rows, vec![vec![Value::Str("BRAZIL".into()), Value::Float(16.0)]]);
    }

    #[test]
    fn broken_chains_are_dropped_like_an_inner_join() {
        let mut db = star_db();
        db.table_mut("sales").unwrap().append_row(&[Value::Key(NULL_KEY), Value::Int(100)]);
        let d = denormalize(&db, None).unwrap();
        assert_eq!(d.table().num_slots(), 4, "NULL-chain row dropped");
    }

    /// Each hop of a chain is bounded by the table it lands in, not by the
    /// chain's last table: a sale keyed to a customer past the nations'
    /// row count is kept.
    #[test]
    fn each_hop_is_bounded_by_the_table_it_lands_in() {
        let mut db = star_db();
        let customer = db.table_mut("customer").unwrap();
        customer.append_row(&[Value::Key(1), Value::Str("AUTO".into())]);
        db.table_mut("sales").unwrap().append_row(&[Value::Key(2), Value::Int(13)]);
        let d = denormalize(&db, None).unwrap();
        assert_eq!(d.table().num_slots(), 5, "the sale of customer 2 is kept");
        assert_eq!(d.table().column("n_name").unwrap().get(4), Value::Str("CHINA".into()));
    }

    #[test]
    fn deleted_rows_are_dropped() {
        let mut db = star_db();
        db.table_mut("sales").unwrap().delete(0);
        db.table_mut("customer").unwrap().delete(1);
        let d = denormalize(&db, None).unwrap();
        // sales rows: 0 deleted; 1,3 reference deleted customer; only 2 left.
        assert_eq!(d.table().num_slots(), 1);
        assert_eq!(d.table().column("s_qty").unwrap().get(0), Value::Int(11));
    }

    #[test]
    fn column_name_collisions_are_prefixed() {
        let mut db = Database::new();
        let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("v", DataType::I32)]));
        dim.append_row(&[Value::Int(1)]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("k", DataType::Key { target: "dim".into() }),
                ColumnDef::new("v", DataType::I32),
            ]),
        );
        fact.append_row(&[Value::Key(0), Value::Int(2)]);
        db.add_table(dim);
        db.add_table(fact);
        let d = denormalize(&db, None).unwrap();
        assert_eq!(d.wide_column("fact", "v"), Some("v"));
        assert_eq!(d.wide_column("dim", "v"), Some("dim_v"));
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

    /// `sum(f_m)` grouped by `d_v`, reading `other` too when `both`.
    fn by_dim(both: bool) -> Query {
        let q = Query::new()
            .root("fact")
            .group("dim", "d_v")
            .agg(Aggregate::sum(MeasureExpr::col("f_m"), "s"));
        if both {
            q.filter("other", Pred::cmp("o_v", CmpOp::Gt, 0))
        } else {
            q
        }
    }

    /// Whether the wide table answers `q`, and the one sum `q` gives on AIR
    /// and on the wide table.
    fn verdict_and_sums(db: &Database, q: &Query) -> (bool, Value, Value) {
        let sum = |db: &Database, q: &Query| {
            let rows = execute(db, q, &ExecOptions::default()).unwrap().result.rows;
            rows.first().map_or(Value::Null, |row| row.last().unwrap().clone())
        };
        let wide = denormalize(db, Some("fact")).unwrap();
        (wide.answers(db, q, "fact"), sum(db, q), sum(&wide.db, &wide.rewrite(q, "fact")))
    }

    /// The wide table inner-joins every dimension, so it lost the fact rows
    /// whose key into a dimension is NULL or lands on a deleted row. AIR
    /// keeps such a row when the statement does not read that dimension,
    /// and the wide table then does not answer the statement.
    #[test]
    fn denorm_is_refused_where_the_wide_table_lost_rows() {
        let (f1, f3) = (Value::Float(1.0), Value::Float(3.0));
        let nulled = two_dim_db(NULL_KEY);
        assert_eq!(
            verdict_and_sums(&nulled, &by_dim(false)),
            (false, f3.clone(), f1.clone()),
            "the wide table lost the NULL-keyed row"
        );
        // Reading `other` drops the row on AIR too.
        assert_eq!(verdict_and_sums(&nulled, &by_dim(true)), (true, f1.clone(), f1.clone()));

        // Every key set and every row live: nothing was lost.
        let mut whole = two_dim_db(1);
        assert_eq!(verdict_and_sums(&whole, &by_dim(false)), (true, f3.clone(), f3.clone()));

        // A deleted `other` row leaves the second fact row's key dangling.
        whole.table_mut("other").unwrap().delete(1);
        assert_eq!(verdict_and_sums(&whole, &by_dim(false)), (false, f3, f1.clone()));
        assert_eq!(verdict_and_sums(&whole, &by_dim(true)), (true, f1.clone(), f1));
    }

    fn count() -> Query {
        Query::new().root("sales").agg(Aggregate::count("c"))
    }

    /// Asserts that neither the probe nor `answers` gives `q` a wide shape.
    fn assert_no_wide_shape(db: &Database, d: &Denormalized, q: &Query) {
        assert!(!query_rewritable(d, q, "sales"), "{q:?}");
        assert!(!d.answers(db, q, "sales"), "{q:?}");
    }

    #[test]
    fn rewritability_probe_matches_rewrite_preconditions() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        let by_nation = Query::new()
            .filter("customer", Pred::eq("c_seg", "AUTO"))
            .group("nation", "n_name")
            .agg(Aggregate::sum(MeasureExpr::col("s_qty"), "total"));
        assert!(query_rewritable(&d, &by_nation, "sales"));
        assert!(d.answers(&db, &by_nation, "sales"));
    }

    /// The wide table folds references away, so a statement that reads a
    /// key column has no wide shape.
    #[test]
    fn denorm_rewritability_gates_key_columns() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        for q in [
            count().group("sales", "s_cust"),
            count().filter("customer", Pred::eq("c_nation", 1)),
            count().agg(Aggregate::sum(MeasureExpr::col("s_cust"), "k")),
        ] {
            assert_no_wide_shape(&db, &d, &q);
        }
    }

    /// The wide table carries no row addresses, so a `rowid` predicate has
    /// no wide shape.
    #[test]
    fn rowid_predicates_have_no_wide_shape() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        assert_no_wide_shape(&db, &d, &count().filter("sales", Pred::eq("rowid", 1)));
    }

    /// A sealed dimension of two segments, read in fact order with keys
    /// that alternate between them: every wide value is its source row's.
    #[test]
    fn gathers_from_a_dimension_across_segments() {
        let dim_rows = SEGMENT_ROWS + 1_000;
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_a", DataType::I32),
                ColumnDef::new("d_b", DataType::Dict),
            ]),
        );
        for i in 0..dim_rows {
            dim.append_row(&[Value::Int(i as i64 % 7), Value::Str(format!("s{}", i % 5))]);
        }
        dim.seal_segments();
        let Some((_, Column::I32(d_a))) = dim.columns().next() else { panic!("d_a first") };
        assert!(d_a.chunk_encoding(1).is_some(), "the second segment is held encoded");
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        let key = |i: usize| if i.is_multiple_of(2) { i % 997 } else { SEGMENT_ROWS + i % 997 };
        for i in 0..4_000 {
            fact.append_row(&[Value::Key(key(i) as Key), Value::Int(i as i64)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);

        let d = denormalize(&db, Some("fact")).unwrap();
        let (wide, dim) = (d.table(), db.table("dim").unwrap());
        assert_eq!(wide.num_slots(), 4_000);
        for i in 0..4_000 {
            for name in ["d_a", "d_b"] {
                let source = dim.column(name).unwrap().get(key(i));
                assert_eq!(wide.column(name).unwrap().get(i), source, "{name} at fact row {i}");
            }
            assert_eq!(wide.column("f_v").unwrap().get(i), Value::Int(i as i64));
        }
    }

    #[test]
    fn wide_table_uses_more_space_than_normalized() {
        let db = star_db();
        let d = denormalize(&db, None).unwrap();
        // The dimension attributes are replicated per fact row, so the wide
        // table is at least as large as the fact table's own columns.
        assert!(d.approx_bytes() >= db.table("sales").unwrap().num_slots() * 8);
    }
}
