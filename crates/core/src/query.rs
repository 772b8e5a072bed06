//! SPJGA query descriptions (paper §3).
//!
//! A-Store "only deals with Selection-Projection-Join-Grouping-Aggregation
//! (SPJGA) queries on star/snowflake schemas". A [`Query`] captures exactly
//! that: per-table selections, grouping columns, aggregates over measure
//! expressions, and an order-by — joins are *implicit*, given by the AIR
//! edges of the schema (the join graph), which is the whole point of
//! virtual denormalization.

use crate::expr::{MeasureExpr, Pred};

/// A reference to a column of some table in the schema. The engine resolves
/// the AIR chain from the query's root table automatically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColRef {
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColRef {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColRef { table: table.into(), column: column.into() }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.table, self.column)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `SUM(expr)`
    Sum,
    /// `COUNT(*)` (or `COUNT(expr)`, which for non-null columns is the same)
    Count,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
    /// `AVG(expr)`
    Avg,
}

/// One output aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The function.
    pub func: AggFunc,
    /// The measure expression over the root table's columns (ignored for
    /// `COUNT(*)`, where it may be `None`).
    pub expr: Option<MeasureExpr>,
    /// Output column name.
    pub alias: String,
}

impl Aggregate {
    /// `SUM(expr) AS alias`.
    pub fn sum(expr: MeasureExpr, alias: impl Into<String>) -> Self {
        Aggregate { func: AggFunc::Sum, expr: Some(expr), alias: alias.into() }
    }

    /// `COUNT(*) AS alias`.
    pub fn count(alias: impl Into<String>) -> Self {
        Aggregate { func: AggFunc::Count, expr: None, alias: alias.into() }
    }

    /// `MIN(expr) AS alias`.
    pub fn min(expr: MeasureExpr, alias: impl Into<String>) -> Self {
        Aggregate { func: AggFunc::Min, expr: Some(expr), alias: alias.into() }
    }

    /// `MAX(expr) AS alias`.
    pub fn max(expr: MeasureExpr, alias: impl Into<String>) -> Self {
        Aggregate { func: AggFunc::Max, expr: Some(expr), alias: alias.into() }
    }

    /// `AVG(expr) AS alias`.
    pub fn avg(expr: MeasureExpr, alias: impl Into<String>) -> Self {
        Aggregate { func: AggFunc::Avg, expr: Some(expr), alias: alias.into() }
    }
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending.
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY key: either an output group column or an aggregate alias.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Name of the output column to sort by (a group column's output name or
    /// an aggregate alias).
    pub output: String,
    /// Direction.
    pub order: SortOrder,
}

impl OrderKey {
    /// Ascending key.
    pub fn asc(output: impl Into<String>) -> Self {
        OrderKey { output: output.into(), order: SortOrder::Asc }
    }

    /// Descending key.
    pub fn desc(output: impl Into<String>) -> Self {
        OrderKey { output: output.into(), order: SortOrder::Desc }
    }
}

/// A complete SPJGA query.
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// The root (fact) table. If `None`, the engine binds the single root
    /// that covers all referenced tables.
    pub root: Option<String>,
    /// Selection predicates, grouped per table (conjoined across tables).
    pub selections: Vec<(String, Pred)>,
    /// Grouping columns (possibly empty for a global aggregate).
    pub group_by: Vec<ColRef>,
    /// Output aggregates (at least one for a meaningful SPJGA query).
    pub aggregates: Vec<Aggregate>,
    /// Result ordering.
    pub order_by: Vec<OrderKey>,
    /// Optional row limit applied after sorting.
    pub limit: Option<usize>,
}

impl Query {
    /// Starts building a query.
    pub fn new() -> Self {
        Query::default()
    }

    /// Sets the root (fact) table explicitly.
    pub fn root(mut self, table: impl Into<String>) -> Self {
        self.root = Some(table.into());
        self
    }

    /// Adds a selection predicate on `table` (conjoined with any existing
    /// predicate on the same table).
    pub fn filter(mut self, table: impl Into<String>, pred: Pred) -> Self {
        let table = table.into();
        if let Some((_, existing)) = self.selections.iter_mut().find(|(t, _)| *t == table) {
            let prev = std::mem::replace(existing, Pred::Const(true));
            *existing = prev.and(pred);
        } else {
            self.selections.push((table, pred));
        }
        self
    }

    /// Adds a grouping column.
    pub fn group(mut self, table: impl Into<String>, column: impl Into<String>) -> Self {
        self.group_by.push(ColRef::new(table, column));
        self
    }

    /// Adds an aggregate.
    pub fn agg(mut self, agg: Aggregate) -> Self {
        self.aggregates.push(agg);
        self
    }

    /// Adds an order-by key.
    pub fn order(mut self, key: OrderKey) -> Self {
        self.order_by.push(key);
        self
    }

    /// Sets the row limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Predicate on a given table, if any.
    pub fn selection_on(&self, table: &str) -> Option<&Pred> {
        self.selections.iter().find(|(t, _)| t == table).map(|(_, p)| p)
    }

    /// All tables this query touches (selections, group-by; the root if
    /// set). Deduplicated, unordered.
    pub fn referenced_tables(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.selections.iter().map(|(t, _)| t.as_str()).collect();
        out.extend(self.group_by.iter().map(|c| c.table.as_str()));
        if let Some(r) = &self.root {
            out.push(r);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Is this query still a template (any unbound parameter slot left)?
    /// Early-exits on the first slot; the executor's per-query guard.
    pub fn has_params(&self) -> bool {
        self.selections.iter().any(|(_, p)| p.has_params())
    }

    /// Number of parameter slots this query template carries: one more than
    /// the highest [`crate::expr::Lit::Param`] index referenced anywhere in
    /// its selections (0 for a fully concrete query).
    pub fn param_count(&self) -> usize {
        self.selections
            .iter()
            .flat_map(|(_, p)| p.param_slots())
            .map(|i| usize::from(i) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Substitutes every parameter slot with the corresponding literal,
    /// returning a concrete, executable clone of this template. The plan
    /// structure (root, join chains, grouping, aggregates) is reused as-is —
    /// this is the cheap bind-per-execute step that replaces re-planning.
    ///
    /// Errors if `params` does not cover every referenced slot; extra
    /// parameters are an error too, so a caller cannot silently pass values
    /// the query never reads.
    pub fn bind_params(&self, params: &[crate::expr::Lit]) -> Result<Query, String> {
        let expected = self.param_count();
        if params.len() != expected {
            return Err(format!("statement takes {expected} parameter(s), {} given", params.len()));
        }
        let mut bound = self.clone();
        for (_, pred) in &mut bound.selections {
            *pred = pred.bind_params(params)?;
        }
        Ok(bound)
    }

    /// Output column names, group columns first, then aggregate aliases —
    /// the shape of the produced [`crate::result::QueryResult`].
    pub fn output_names(&self) -> Vec<String> {
        self.group_by
            .iter()
            .map(|c| c.column.clone())
            .chain(self.aggregates.iter().map(|a| a.alias.clone()))
            .collect()
    }
}

/// A relation a [`Query`] can be rebound onto column by column: the
/// denormalized wide table of `astore-baseline`, whose columns are the
/// value columns of every table of the star, renamed.
pub trait ColumnMap {
    /// The column `table.column` is renamed to, if this relation carries
    /// it.
    fn wide_column(&self, table: &str, column: &str) -> Option<&str>;
}

/// Does `map` carry every column `query` reads: the columns of its
/// selections and its grouping, and the measure columns of `root` its
/// aggregates read? The wide table maps neither a key column (it folds
/// references away) nor `rowid` (it has no row addresses), so a statement
/// that reads one cannot be rebound onto it.
pub fn query_rewritable(map: &impl ColumnMap, query: &Query, root: &str) -> bool {
    let carries = |table: &str, column: &str| map.wide_column(table, column).is_some();
    query.selections.iter().all(|(table, pred)| pred.columns().iter().all(|c| carries(table, c)))
        && query.group_by.iter().all(|g| carries(&g.table, &g.column))
        && (query.aggregates.iter().filter_map(|a| a.expr.as_ref()))
            .all(|expr| expr.columns().iter().all(|c| carries(root, c)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    /// The paper's Q1 (SSB Q-like) as a builder chain.
    fn paper_q1() -> Query {
        Query::new()
            .filter("customer", Pred::eq("c_region", "ASIA"))
            .filter("supplier", Pred::eq("s_region", "ASIA"))
            .filter("date", Pred::between("d_year", 1992, 1997))
            .group("customer", "c_nation")
            .group("supplier", "s_nation")
            .group("date", "d_year")
            .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "revenue"))
            .order(OrderKey::asc("d_year"))
            .order(OrderKey::desc("revenue"))
    }

    #[test]
    fn builder_accumulates() {
        let q = paper_q1();
        assert_eq!(q.selections.len(), 3);
        assert_eq!(q.group_by.len(), 3);
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.order_by.len(), 2);
        assert!(q.root.is_none());
        assert!(q.limit.is_none());
    }

    #[test]
    fn filter_conjoins_same_table() {
        let q = Query::new()
            .filter("date", Pred::cmp("d_year", CmpOp::Ge, 1992))
            .filter("date", Pred::cmp("d_year", CmpOp::Le, 1997));
        assert_eq!(q.selections.len(), 1);
        let p = q.selection_on("date").unwrap();
        assert_eq!(p.conjuncts().len(), 2);
    }

    #[test]
    fn referenced_tables_deduplicated() {
        let q = paper_q1().root("lineorder");
        assert_eq!(q.referenced_tables(), vec!["customer", "date", "lineorder", "supplier"]);
    }

    #[test]
    fn output_names_groups_then_aggs() {
        let q = paper_q1();
        assert_eq!(q.output_names(), vec!["c_nation", "s_nation", "d_year", "revenue"]);
    }

    #[test]
    fn aggregate_constructors() {
        assert_eq!(Aggregate::count("n").func, AggFunc::Count);
        assert!(Aggregate::count("n").expr.is_none());
        assert_eq!(Aggregate::min(MeasureExpr::col("x"), "m").func, AggFunc::Min);
        assert_eq!(Aggregate::max(MeasureExpr::col("x"), "m").func, AggFunc::Max);
        assert_eq!(Aggregate::avg(MeasureExpr::col("x"), "m").func, AggFunc::Avg);
    }

    #[test]
    fn colref_display() {
        assert_eq!(ColRef::new("t", "c").to_string(), "t.c");
    }
}
