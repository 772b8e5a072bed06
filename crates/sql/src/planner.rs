//! Binds a parsed [`SelectStmt`] to a database schema, producing an
//! executable [`Query`].
//!
//! This performs the paper's §3 transformation: equi-join conditions in the
//! WHERE clause are validated against the schema's AIR edges and then
//! *dropped* — "we reserve only the join operations of Q and truncate all
//! the other operations"; joins never execute, the universal-table scan
//! does. Everything else (selections, grouping, aggregation, ordering)
//! binds to concrete tables and columns.

use astore_core::expr::{Lit, MeasureExpr, Pred};
use astore_core::query::{AggFunc, Aggregate, OrderKey, Query, SortOrder};
use astore_storage::catalog::Database;
use astore_storage::types::DataType;

use crate::ast::{Arith, ColName, Cond, Scalar, SelectItem, SelectStmt};
use crate::parser::{parse, ParseError};

/// A planning error.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}

impl From<ParseError> for PlanError {
    fn from(e: ParseError) -> Self {
        PlanError { message: e.to_string() }
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, PlanError> {
    Err(PlanError { message: message.into() })
}

/// Parses and plans a SQL string against a database.
pub fn sql_to_query(sql: &str, db: &Database) -> Result<Query, PlanError> {
    plan(&parse(sql)?, db)
}

/// Plans a parsed statement against a database.
///
/// A statement containing `?`/`$n` placeholders plans to a query
/// *template* whose parameter slots must be bound
/// ([`Query::bind_params`]) before execution; use
/// [`plan_with_params`] to also learn each slot's expected column type.
pub fn plan(stmt: &SelectStmt, db: &Database) -> Result<Query, PlanError> {
    plan_with_params(stmt, db).map(|(q, _)| q)
}

/// Plans a parsed statement, returning the query (template) together with
/// the column type each parameter slot is compared against — the type
/// information the bind step checks incoming values with. Slot `i` of the
/// returned vector is `None` only if the statement never references `$i+1`
/// (a numbering gap).
pub fn plan_with_params(
    stmt: &SelectStmt,
    db: &Database,
) -> Result<(Query, Vec<Option<DataType>>), PlanError> {
    // FROM tables must exist.
    for t in &stmt.tables {
        if db.table(t).is_none() {
            return err(format!("unknown table {t:?}"));
        }
    }
    let binder = Binder { db, tables: &stmt.tables };

    // Bind the root: the single join-graph root covering all FROM tables.
    let froms: Vec<&str> = stmt.tables.iter().map(String::as_str).collect();
    let Some(root) = db.graph().root_covering(&froms) else {
        return err(format!("no fact table reaches all of {:?}", stmt.tables));
    };
    let root = root.to_owned();

    let mut query = Query::new().root(root.clone());
    let mut param_types: Vec<Option<DataType>> = Vec::new();

    // WHERE: validate joins, group selections per table.
    if let Some(w) = &stmt.where_clause {
        for cond in w.clone().conjuncts() {
            match cond {
                Cond::JoinEq(a, b) => binder.validate_join(&a, &b)?,
                other => {
                    let (table, pred) = binder.bind_cond(&other, &mut param_types)?;
                    query = query.filter(table, pred);
                }
            }
        }
    }

    // GROUP BY.
    let mut group_out_names = Vec::new();
    for g in &stmt.group_by {
        let (table, column) = binder.resolve(g)?;
        group_out_names.push(column.clone());
        query = query.group(table, column);
    }

    // SELECT list: plain columns must be grouping columns; aggregates bind
    // their measures against the root.
    let mut has_agg = false;
    let mut used_aliases: Vec<String> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Col { col, alias } => {
                let (_, column) = binder.resolve(col)?;
                if !group_out_names.contains(&column) {
                    return err(format!("column {col} appears in SELECT but not in GROUP BY"));
                }
                if alias.is_some() {
                    return err("aliases on grouping columns are not supported".to_string());
                }
            }
            SelectItem::Agg { func, arg, alias } => {
                has_agg = true;
                let func = match func.as_str() {
                    "sum" => AggFunc::Sum,
                    "count" => AggFunc::Count,
                    "min" => AggFunc::Min,
                    "max" => AggFunc::Max,
                    "avg" => AggFunc::Avg,
                    other => return err(format!("unknown aggregate {other:?}")),
                };
                let expr = match arg {
                    None => {
                        if func != AggFunc::Count {
                            return err("only count(*) may omit its argument".to_string());
                        }
                        None
                    }
                    Some(a) => Some(binder.bind_measure(a, &root)?),
                };
                let alias = alias.clone().unwrap_or_else(|| {
                    let base = match func {
                        AggFunc::Sum => "sum",
                        AggFunc::Count => "count",
                        AggFunc::Min => "min",
                        AggFunc::Max => "max",
                        AggFunc::Avg => "avg",
                    };
                    let mut name = base.to_owned();
                    let mut i = 1;
                    while used_aliases.contains(&name) || group_out_names.contains(&name) {
                        i += 1;
                        name = format!("{base}{i}");
                    }
                    name
                });
                used_aliases.push(alias.clone());
                query = query.agg(match (func, expr) {
                    (AggFunc::Count, None) => Aggregate::count(alias),
                    (f, Some(e)) => Aggregate { func: f, expr: Some(e), alias },
                    _ => unreachable!(),
                });
            }
        }
    }
    if !has_agg {
        return err(
            "A-Store executes SPJGA queries only; the SELECT list needs at least one aggregate"
                .to_string(),
        );
    }

    // ORDER BY keys must name an output column. Exact match wins (aliases
    // keep the case they were written with, and may differ only by case);
    // a case-insensitive match is the fallback.
    let outputs = query.output_names();
    for o in &stmt.order_by {
        let Some(pos) = outputs
            .iter()
            .position(|c| *c == o.name)
            .or_else(|| outputs.iter().position(|c| c.eq_ignore_ascii_case(&o.name)))
        else {
            return err(format!(
                "ORDER BY key {:?} is not an output column (outputs: {outputs:?})",
                o.name
            ));
        };
        query.order_by.push(OrderKey {
            output: outputs[pos].clone(),
            order: if o.desc { SortOrder::Desc } else { SortOrder::Asc },
        });
    }
    query.limit = stmt.limit;
    if param_types.len() < stmt.param_count() {
        param_types.resize(stmt.param_count(), None);
    }
    Ok((query, param_types))
}

struct Binder<'a> {
    db: &'a Database,
    tables: &'a [String],
}

impl Binder<'_> {
    /// Resolves a column name to `(table, column)`.
    fn resolve(&self, col: &ColName) -> Result<(String, String), PlanError> {
        if let Some(t) = &col.table {
            if !self.tables.contains(t) {
                return err(format!("table {t:?} not in FROM clause"));
            }
            let table = self.db.table(t).expect("FROM tables checked");
            if table.schema().position(&col.column).is_none() {
                return err(format!("no column {:?} in table {t:?}", col.column));
            }
            return Ok((t.clone(), col.column.clone()));
        }
        let owners: Vec<&String> = self
            .tables
            .iter()
            .filter(|t| {
                self.db.table(t).is_some_and(|tb| tb.schema().position(&col.column).is_some())
            })
            .collect();
        match owners.as_slice() {
            [t] => Ok(((*t).clone(), col.column.clone())),
            [] => err(format!("column {:?} not found in any FROM table", col.column)),
            many => err(format!("column {:?} is ambiguous across tables {many:?}", col.column)),
        }
    }

    /// Validates an equi-join condition against the AIR edges: one side
    /// must be a foreign-key (AIR) column and the other side must denote
    /// the referenced table's (virtual) primary key. The condition is then
    /// dropped — A-Store's joins are implicit.
    fn validate_join(&self, a: &ColName, b: &ColName) -> Result<(), PlanError> {
        for (fk, pk) in [(a, b), (b, a)] {
            if let Ok((t, c)) = self.resolve(fk) {
                let col = self.db.table(&t).unwrap().column(&c).unwrap();
                if let Some((target, _)) = col.as_key() {
                    // The PK side: either unresolvable (virtual array-index
                    // key, e.g. `c_custkey`) or any column of the target.
                    let pk_ok = match self.resolve(pk) {
                        Ok((pt, _)) => pt == target,
                        Err(_) => {
                            pk.table.as_deref().is_none_or(|qt| qt == target)
                                && self.tables.iter().any(|ft| ft == target)
                        }
                    };
                    if pk_ok {
                        // Sanity: the edge must exist in the join graph.
                        let edges = self.db.graph().out_edges(&t);
                        if edges.iter().any(|e| e.key_column == c && e.to_table == target) {
                            return Ok(());
                        }
                    }
                }
            }
        }
        err(format!(
            "join condition {a} = {b} does not follow a foreign-key (AIR) edge; \
             A-Store supports PK-FK joins only"
        ))
    }

    /// Binds a WHERE conjunct to `(table, predicate)`; every column inside
    /// must belong to the same table. Parameter slots found along the way
    /// record the column type they are compared against into `params`.
    fn bind_cond(
        &self,
        cond: &Cond,
        params: &mut Vec<Option<DataType>>,
    ) -> Result<(String, Pred), PlanError> {
        let mut table: Option<String> = None;
        let pred = self.cond_to_pred(cond, &mut table, params)?;
        match table {
            Some(t) => Ok((t, pred)),
            None => err("predicate references no column".to_string()),
        }
    }

    /// The declared type of a resolved column.
    fn dtype_of(&self, table: &str, column: &str) -> DataType {
        self.db
            .table(table)
            .expect("resolved table exists")
            .schema()
            .defs()
            .iter()
            .find(|d| d.name == column)
            .expect("resolved column exists")
            .dtype
            .clone()
    }

    fn cond_to_pred(
        &self,
        cond: &Cond,
        table: &mut Option<String>,
        params: &mut Vec<Option<DataType>>,
    ) -> Result<Pred, PlanError> {
        // Binds the column and returns its name plus declared type, so
        // parameter slots learn what they will be compared against.
        let mut bind_col = |col: &ColName| -> Result<(String, DataType), PlanError> {
            let (t, c) = self.resolve(col)?;
            match table {
                Some(prev) if *prev != t => err(format!(
                    "predicate mixes columns of tables {prev:?} and {t:?}; \
                     split it into per-table conjuncts"
                )),
                _ => {
                    let dtype = self.dtype_of(&t, &c);
                    *table = Some(t);
                    Ok((c, dtype))
                }
            }
        };
        Ok(match cond {
            Cond::Cmp { col, op, rhs } => {
                let (c, dt) = bind_col(col)?;
                let lit = scalar_to_lit(rhs, &c, &dt, params)?;
                Pred::Cmp { col: c, op: *op, lit }
            }
            Cond::Between { col, lo, hi } => {
                let (c, dt) = bind_col(col)?;
                let (lo, hi) =
                    (scalar_to_lit(lo, &c, &dt, params)?, scalar_to_lit(hi, &c, &dt, params)?);
                Pred::Between { col: c, lo, hi }
            }
            Cond::InList { col, list } => {
                let (c, dt) = bind_col(col)?;
                if matches!(dt, DataType::F64 | DataType::Key { .. }) {
                    return err(format!("IN list unsupported for {dt} column {c:?}"));
                }
                let lits = list
                    .iter()
                    .map(|s| scalar_to_lit(s, &c, &dt, params))
                    .collect::<Result<_, _>>()?;
                Pred::InList { col: c, lits }
            }
            Cond::And(cs) => Pred::And(
                cs.iter().map(|c| self.cond_to_pred(c, table, params)).collect::<Result<_, _>>()?,
            ),
            Cond::Or(cs) => Pred::Or(
                cs.iter().map(|c| self.cond_to_pred(c, table, params)).collect::<Result<_, _>>()?,
            ),
            Cond::Not(c) => Pred::Not(Box::new(self.cond_to_pred(c, table, params)?)),
            Cond::JoinEq(a, b) => {
                return err(format!("join condition {a} = {b} nested under OR/NOT is unsupported"))
            }
        })
    }

    /// Binds a measure expression; all columns must live on the root table.
    fn bind_measure(&self, a: &Arith, root: &str) -> Result<MeasureExpr, PlanError> {
        Ok(match a {
            Arith::Num(v) => MeasureExpr::Const(*v),
            Arith::Col(c) => {
                let (t, col) = self.resolve(c)?;
                if t != root {
                    return err(format!(
                        "measure column {c} lives on {t:?}; aggregates read the fact table \
                         ({root:?}) only"
                    ));
                }
                MeasureExpr::Col(col)
            }
            Arith::Add(x, y) => MeasureExpr::Add(
                Box::new(self.bind_measure(x, root)?),
                Box::new(self.bind_measure(y, root)?),
            ),
            Arith::Sub(x, y) => MeasureExpr::Sub(
                Box::new(self.bind_measure(x, root)?),
                Box::new(self.bind_measure(y, root)?),
            ),
            Arith::Mul(x, y) => MeasureExpr::Mul(
                Box::new(self.bind_measure(x, root)?),
                Box::new(self.bind_measure(y, root)?),
            ),
        })
    }
}

/// Records the column type a parameter slot is used with, enforcing the
/// `u16::MAX` slot cap and rejecting string/numeric family conflicts (no
/// single value kind could ever satisfy both uses). Shared by the SELECT
/// planner and the write-template preparer so the rules cannot diverge.
pub(crate) fn record_param_type(
    params: &mut Vec<Option<DataType>>,
    slot: usize,
    dtype: DataType,
) -> Result<(), String> {
    if slot > usize::from(u16::MAX) {
        return Err(format!("parameter ${} is out of range", slot + 1));
    }
    if params.len() <= slot {
        params.resize(slot + 1, None);
    }
    let stringy = |d: &DataType| matches!(d, DataType::Str | DataType::Dict);
    match &params[slot] {
        None => params[slot] = Some(dtype),
        Some(prev) if stringy(prev) != stringy(&dtype) => {
            return Err(format!(
                "parameter ${} is used with both string and numeric columns",
                slot + 1
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Converts one scalar compared with column `col` of type `dtype` to a
/// predicate literal: a string literal against a numeric column, or a
/// number against a string column, is refused. A parameter slot becomes
/// [`Lit::Param`] and records `dtype` as its expected type.
fn scalar_to_lit(
    s: &Scalar,
    col: &str,
    dtype: &DataType,
    params: &mut Vec<Option<DataType>>,
) -> Result<Lit, PlanError> {
    let stringy = matches!(dtype, DataType::Str | DataType::Dict);
    Ok(match s {
        Scalar::Int(_) | Scalar::Float(_) if stringy => {
            return err(format!("numeric literal {s} compared with {dtype} column {col:?}"))
        }
        Scalar::Str(_) if !stringy => {
            return err(format!("string literal {s} compared with {dtype} column {col:?}"))
        }
        Scalar::Int(v) => Lit::Int(*v),
        Scalar::Float(v) => Lit::Float(*v),
        Scalar::Str(v) => Lit::Str(v.clone()),
        Scalar::Param(slot) => {
            record_param_type(params, *slot, dtype.clone())
                .map_err(|message| PlanError { message })?;
            Lit::Param(*slot as u16)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};
    use astore_storage::prelude::*;

    fn star_db() -> Database {
        let mut db = Database::new();
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_nation", DataType::Dict),
                ColumnDef::new("c_region", DataType::Dict),
            ]),
        );
        for (n, r) in [("CHINA", "ASIA"), ("JAPAN", "ASIA"), ("BRAZIL", "AMERICA")] {
            customer.append_row(&[Value::Str(n.into()), Value::Str(r.into())]);
        }
        let mut date =
            Table::new("date", Schema::new(vec![ColumnDef::new("d_year", DataType::I32)]));
        for y in [1992, 1993] {
            date.append_row(&[Value::Int(y)]);
        }
        let mut lineorder = Table::new(
            "lineorder",
            Schema::new(vec![
                ColumnDef::new("lo_custkey", DataType::Key { target: "customer".into() }),
                ColumnDef::new("lo_orderdate", DataType::Key { target: "date".into() }),
                ColumnDef::new("lo_revenue", DataType::I64),
                ColumnDef::new("lo_discount", DataType::I32),
            ]),
        );
        for (c, d, r, disc) in [(0u32, 0u32, 100i64, 1i64), (1, 1, 200, 2), (2, 0, 300, 3)] {
            lineorder.append_row(&[Value::Key(c), Value::Key(d), Value::Int(r), Value::Int(disc)]);
        }
        db.add_table(customer);
        db.add_table(date);
        db.add_table(lineorder);
        db
    }

    #[test]
    fn plans_and_executes_a_star_query() {
        let db = star_db();
        let q = sql_to_query(
            "SELECT c_nation, sum(lo_revenue) AS revenue \
             FROM customer, lineorder, date \
             WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey \
               AND c_region = 'ASIA' \
             GROUP BY c_nation ORDER BY revenue DESC",
            &db,
        )
        .unwrap();
        assert_eq!(q.root.as_deref(), Some("lineorder"));
        assert_eq!(q.selections.len(), 1);
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(
            out.result.rows,
            vec![
                vec![Value::Str("JAPAN".into()), Value::Float(200.0)],
                vec![Value::Str("CHINA".into()), Value::Float(100.0)],
            ]
        );
    }

    #[test]
    fn join_conditions_are_validated_and_dropped() {
        let db = star_db();
        // A join that follows no AIR edge is rejected.
        let bad =
            sql_to_query("SELECT count(*) FROM customer, date WHERE c_nation = d_datekey", &db);
        assert!(bad.is_err());
        assert!(bad.unwrap_err().message.contains("PK-FK"));
    }

    #[test]
    fn count_star_and_default_aliases() {
        let db = star_db();
        let q =
            sql_to_query("SELECT count(*), sum(lo_revenue), sum(lo_discount) FROM lineorder", &db)
                .unwrap();
        assert_eq!(q.output_names(), vec!["count", "sum", "sum2"]);
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(3));
        assert_eq!(out.result.rows[0][1], Value::Float(600.0));
    }

    #[test]
    fn select_column_must_be_grouped() {
        let db = star_db();
        let e = sql_to_query(
            "SELECT c_nation, count(*) FROM customer, lineorder WHERE lo_custkey = c_custkey",
            &db,
        );
        assert!(e.unwrap_err().message.contains("GROUP BY"));
    }

    #[test]
    fn pure_projection_rejected() {
        let db = star_db();
        let e = sql_to_query("SELECT c_nation FROM customer GROUP BY c_nation", &db);
        assert!(e.unwrap_err().message.contains("SPJGA"));
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let db = star_db();
        let e = sql_to_query("SELECT count(*) FROM lineorder WHERE nonexistent = 1", &db);
        assert!(e.unwrap_err().message.contains("not found"));
        let e = sql_to_query("SELECT count(*) FROM ghost", &db);
        assert!(e.unwrap_err().message.contains("unknown table"));
    }

    #[test]
    fn measure_must_be_on_fact_table() {
        let db = star_db();
        let e = sql_to_query(
            "SELECT sum(d_year) FROM lineorder, date WHERE lo_orderdate = d_datekey",
            &db,
        );
        assert!(e.unwrap_err().message.contains("fact table"));
    }

    #[test]
    fn order_by_prefers_exact_alias_match_over_case_fold() {
        let db = star_db();
        // Two aliases differing only in case: ORDER BY x must bind the
        // exact-case alias, not the first case-insensitive hit.
        let q = sql_to_query(
            "SELECT sum(lo_revenue) AS X, sum(lo_discount) AS x FROM lineorder ORDER BY x",
            &db,
        )
        .unwrap();
        assert_eq!(q.order_by[0].output, "x");
        // Case-insensitive fallback still resolves lone mismatches.
        let q = sql_to_query("SELECT sum(lo_revenue) AS Rev FROM lineorder ORDER BY rev DESC", &db)
            .unwrap();
        assert_eq!(q.order_by[0].output, "Rev");
    }

    #[test]
    fn order_by_must_name_an_output() {
        let db = star_db();
        let e = sql_to_query("SELECT count(*) AS n FROM lineorder ORDER BY revenue", &db);
        assert!(e.unwrap_err().message.contains("not an output column"));
    }

    #[test]
    fn cross_table_predicate_rejected() {
        let db = star_db();
        let e = sql_to_query(
            "SELECT count(*) FROM customer, date, lineorder \
             WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey \
               AND (c_region = 'ASIA' OR d_year = 1992)",
            &db,
        );
        assert!(e.unwrap_err().message.contains("mixes columns"));
    }

    #[test]
    fn measure_arithmetic_binds() {
        let db = star_db();
        let q = sql_to_query(
            "SELECT sum(lo_revenue * (1 - lo_discount * 0.1)) AS adj FROM lineorder",
            &db,
        )
        .unwrap();
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        // 100*.9 + 200*.8 + 300*.7 = 460
        assert_eq!(out.result.rows, vec![vec![Value::Float(460.0)]]);
    }
}
