//! Prepared statements: parse + plan once, bind parameters and execute
//! many times.
//!
//! A [`Prepared`] is a *statement template*: the SQL is parsed, identifiers
//! are case-folded, the statement is planned against the schema, and every
//! `?`/`$n` placeholder becomes a typed parameter slot. Executing it is
//! then a cheap [`Prepared::bind`] — substitute concrete values into the
//! already-planned template — instead of a full parse→plan pass.
//!
//! Two entry points:
//!
//! * [`prepare`] — the client API path: placeholders are exactly the ones
//!   the statement wrote (`?` / `$n`).
//! * [`extract_select_params`] → [`canonicalize`] → [`prepare_template`] —
//!   the serving-layer path for plain literal SQL: WHERE-clause literals
//!   are *extracted* into parameters and returned as the initial bind set,
//!   so `d_year = 1993` and `d_year = 1997` share one template (and one
//!   plan-cache entry, keyed by the canonical text). Only predicate
//!   literals move; measure arithmetic and `LIMIT` stay part of the
//!   template, because their values shape the plan.
//!
//! [`Prepared::sql`] is the canonical template text — deterministic across
//! whitespace/case/formatting variants, which is what the serving layer
//! keys its plan cache on.

use astore_core::expr::Lit;
use astore_core::query::Query;
use astore_storage::catalog::Database;
use astore_storage::types::{DataType, Value};

use crate::ast::{Arith, ColName, Cond, Scalar, SelectItem, SelectStmt};
use crate::parser::parse_template;
use crate::parser::ParseError;
use crate::planner::{plan_with_params, PlanError};
use crate::statement::{render_write, Arg, StatementTemplate, Write};

/// An error from preparing a statement (parsing or planning).
#[derive(Debug, Clone, PartialEq)]
pub enum PrepareError {
    /// The SQL did not lex/parse.
    Parse(ParseError),
    /// The statement did not bind against the schema.
    Plan(PlanError),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::Parse(e) => write!(f, "{e}"),
            PrepareError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

impl From<ParseError> for PrepareError {
    fn from(e: ParseError) -> Self {
        PrepareError::Parse(e)
    }
}

impl From<PlanError> for PrepareError {
    fn from(e: PlanError) -> Self {
        PrepareError::Plan(e)
    }
}

/// A parameter-binding error: wrong parameter count, or a value whose kind
/// cannot satisfy the column its slot is compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    /// Description.
    pub message: String,
}

impl ParamError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParamError { message: message.into() }
    }
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parameter error: {}", self.message)
    }
}

impl std::error::Error for ParamError {}

/// The client-facing type of one result column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer (`count(*)`, integer group columns, AIR keys).
    Int,
    /// 64-bit float (`sum`/`avg`/`min`/`max` aggregates, float columns).
    Float,
    /// String (dictionary or heap string group columns).
    Str,
}

impl std::fmt::Display for ColumnType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnType::Int => write!(f, "int"),
            ColumnType::Float => write!(f, "float"),
            ColumnType::Str => write!(f, "str"),
        }
    }
}

/// The planned body of a [`Prepared`] statement.
#[derive(Debug, Clone)]
pub enum PreparedKind {
    /// A SELECT: the planned query template plus its output shape.
    Select {
        /// The planned query; parameter slots appear as `Lit::Param`.
        query: Query,
        /// Output column names (group columns, then aggregate aliases).
        columns: Vec<String>,
        /// Advertised type of each output column.
        column_types: Vec<ColumnType>,
    },
    /// An INSERT/UPDATE/DELETE template.
    Write(Write<Arg>),
}

/// A statement bound to concrete parameter values, ready to execute.
#[derive(Debug, Clone)]
pub enum BoundStatement {
    /// An executable SPJGA query (no parameter slots remain).
    Select(Query),
    /// A write with every slot filled.
    Write(Write<Value>),
}

/// A prepared statement template: planned once, bindable many times.
#[derive(Debug, Clone)]
pub struct Prepared {
    sql: String,
    param_types: Vec<Option<DataType>>,
    kind: PreparedKind,
}

/// Prepares one statement with explicit `?`/`$n` placeholders.
pub fn prepare(sql: &str, db: &Database) -> Result<Prepared, PrepareError> {
    Prepared::from_template(parse_template(sql)?, db)
}

/// The serving layer's auto-parameterization step: lifts WHERE literals of
/// a placeholder-free SELECT into parameters, returning the extracted bind
/// set (empty for writes and for statements with explicit placeholders).
/// Follow with [`canonicalize`] for the cache key and [`prepare_template`]
/// on a miss.
pub fn extract_select_params(tmpl: &mut StatementTemplate) -> Vec<Value> {
    match tmpl {
        StatementTemplate::Select(stmt) if stmt.param_count() == 0 => extract_params(stmt),
        _ => Vec::new(),
    }
}

/// Case-folds the template's identifiers in place and returns its
/// canonical text — the plan-cache key. Two statements that differ only in
/// formatting, identifier case, or (after [`extract_select_params`])
/// predicate literals, canonicalize identically.
pub fn canonicalize(tmpl: &mut StatementTemplate) -> String {
    lowercase_idents(tmpl);
    match tmpl {
        StatementTemplate::Select(s) => render_select(s),
        StatementTemplate::Write(w) => render_write(w),
    }
}

/// Plans an already-parsed template (the cache-miss path after
/// [`canonicalize`]).
pub fn prepare_template(tmpl: StatementTemplate, db: &Database) -> Result<Prepared, PrepareError> {
    Prepared::from_template(tmpl, db)
}

/// Lifts every WHERE-clause literal into a parameter slot, returning the
/// extracted values in slot order. The caller must ensure the statement has
/// no explicit placeholders yet.
fn extract_params(stmt: &mut SelectStmt) -> Vec<Value> {
    let mut out = Vec::new();
    if let Some(w) = &mut stmt.where_clause {
        w.visit_scalars_mut(&mut |s| {
            let slot = out.len();
            match s {
                Scalar::Int(v) => out.push(Value::Int(*v)),
                Scalar::Float(v) => out.push(Value::Float(*v)),
                Scalar::Str(v) => out.push(Value::Str(std::mem::take(v))),
                Scalar::Param(_) => return,
            }
            *s = Scalar::Param(slot);
        });
    }
    out
}

impl Prepared {
    fn from_template(mut tmpl: StatementTemplate, db: &Database) -> Result<Self, PrepareError> {
        lowercase_idents(&mut tmpl);
        match tmpl {
            StatementTemplate::Select(stmt) => {
                let sql = render_select(&stmt);
                let (query, param_types) = plan_with_params(&stmt, db)?;
                let columns = query.output_names();
                let column_types = output_types(&query, db);
                Ok(Prepared {
                    sql,
                    param_types,
                    kind: PreparedKind::Select { query, columns, column_types },
                })
            }
            StatementTemplate::Write(w) => {
                let param_types = write_param_types(&w, db)?;
                Ok(Prepared { sql: render_write(&w), param_types, kind: PreparedKind::Write(w) })
            }
        }
    }

    /// The canonical template text (whitespace/case-insensitive; parameter
    /// slots rendered as `$n`). The serving layer's plan-cache key.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of parameter values [`Prepared::bind`] expects.
    pub fn param_count(&self) -> usize {
        self.param_types.len()
    }

    /// The column type each parameter slot is checked against (`None` for a
    /// slot whose type the statement leaves open).
    pub fn param_types(&self) -> &[Option<DataType>] {
        &self.param_types
    }

    /// Is this a read-only SELECT?
    pub fn is_select(&self) -> bool {
        matches!(self.kind, PreparedKind::Select { .. })
    }

    /// The planned body.
    pub fn kind(&self) -> &PreparedKind {
        &self.kind
    }

    /// Output column names (SELECT only).
    pub fn columns(&self) -> Option<&[String]> {
        match &self.kind {
            PreparedKind::Select { columns, .. } => Some(columns),
            PreparedKind::Write(_) => None,
        }
    }

    /// Advertised output column types (SELECT only).
    pub fn column_types(&self) -> Option<&[ColumnType]> {
        match &self.kind {
            PreparedKind::Select { column_types, .. } => Some(column_types),
            PreparedKind::Write(_) => None,
        }
    }

    /// Binds concrete parameter values, producing an executable statement.
    /// Checks the parameter *count* exactly and each value's kind against
    /// the column type its slot is compared against.
    pub fn bind(&self, params: &[Value]) -> Result<BoundStatement, ParamError> {
        if params.len() != self.param_count() {
            return Err(ParamError::new(format!(
                "statement takes {} parameter(s), {} given",
                self.param_count(),
                params.len()
            )));
        }
        for (i, (v, expected)) in params.iter().zip(&self.param_types).enumerate() {
            check_param(i, v, expected.as_ref(), self.is_select())?;
        }
        match &self.kind {
            PreparedKind::Select { query, .. } => {
                let lits: Vec<Lit> = params.iter().map(value_to_lit).collect::<Result<_, _>>()?;
                let bound = query.bind_params(&lits).map_err(ParamError::new)?;
                Ok(BoundStatement::Select(bound))
            }
            PreparedKind::Write(w) => Ok(BoundStatement::Write(w.bind(params)?)),
        }
    }
}

/// Kind check for one parameter value against the column type its slot is
/// compared against (or stored into). `select` tightens the rules: NULL has
/// no meaning in a predicate, while writes may store it.
fn check_param(
    slot: usize,
    v: &Value,
    expected: Option<&DataType>,
    select: bool,
) -> Result<(), ParamError> {
    if let Value::Float(f) = v {
        if !f.is_finite() {
            return Err(ParamError::new(format!(
                "parameter ${} is {f}, which has no SQL literal form",
                slot + 1
            )));
        }
    }
    if select && v.is_null() {
        return Err(ParamError::new(format!(
            "parameter ${} is NULL, which never matches a predicate",
            slot + 1
        )));
    }
    let Some(expected) = expected else { return Ok(()) };
    let ok = match expected {
        DataType::I32 | DataType::I64 | DataType::F64 | DataType::Key { .. } => {
            matches!(v, Value::Int(_) | Value::Float(_) | Value::Key(_) | Value::Null)
        }
        DataType::Str | DataType::Dict => matches!(v, Value::Str(_) | Value::Null),
    };
    if ok {
        Ok(())
    } else {
        Err(ParamError::new(format!(
            "parameter ${} expects a {expected} value, got {v:?}",
            slot + 1
        )))
    }
}

fn value_to_lit(v: &Value) -> Result<Lit, ParamError> {
    Ok(match v {
        Value::Int(x) => Lit::Int(*x),
        Value::Float(f) => Lit::Float(*f),
        Value::Str(s) => Lit::Str(s.clone()),
        Value::Key(k) => Lit::Int(i64::from(*k)),
        Value::Null => return Err(ParamError::new("NULL parameter in a predicate")),
    })
}

/// Schema-derived expected types for every parameter slot of a write
/// template; also validates the template's shape (table, columns, arity)
/// so prepare fails early instead of at first execute.
fn write_param_types(w: &Write<Arg>, db: &Database) -> Result<Vec<Option<DataType>>, PrepareError> {
    let plan_err = |m: String| PrepareError::Plan(PlanError { message: m });
    let table =
        db.table(w.table()).ok_or_else(|| plan_err(format!("unknown table {:?}", w.table())))?;
    let defs = table.schema().defs();
    let mut types: Vec<Option<DataType>> = Vec::new();
    // Shared with the SELECT planner: enforces the u16::MAX slot cap (so a
    // hand-built template cannot request a giant parameter table) and the
    // string/numeric family-conflict rule.
    let mut record = |slot: usize, dtype: DataType| -> Result<(), PrepareError> {
        crate::planner::record_param_type(&mut types, slot, dtype).map_err(plan_err)
    };
    match w {
        Write::Insert { rows, .. } => {
            for row in rows {
                if row.len() != defs.len() {
                    return Err(plan_err(format!(
                        "arity mismatch: got {}, table has {}",
                        row.len(),
                        defs.len()
                    )));
                }
                for (def, arg) in defs.iter().zip(row) {
                    if let Arg::Param(i) = arg {
                        record(*i, def.dtype.clone())?;
                    }
                }
            }
        }
        Write::Update { assignments, row, .. } => {
            for (col, arg) in assignments {
                let def = defs
                    .iter()
                    .find(|d| d.name == *col)
                    .ok_or_else(|| plan_err(format!("no column {col:?} in {:?}", w.table())))?;
                if let Arg::Param(i) = arg {
                    record(*i, def.dtype.clone())?;
                }
            }
            if let Arg::Param(i) = row {
                record(*i, DataType::I64)?;
            }
        }
        Write::Delete { row, .. } => {
            if let Arg::Param(i) = row {
                record(*i, DataType::I64)?;
            }
        }
    }
    if types.len() < w.param_count() {
        types.resize(w.param_count(), None);
    }
    Ok(types)
}

/// The advertised type of each output column of a planned query.
fn output_types(query: &Query, db: &Database) -> Vec<ColumnType> {
    use astore_core::query::AggFunc;
    let group = query.group_by.iter().map(|c| {
        let dtype = db.table(&c.table).and_then(|t| {
            t.schema().defs().iter().find(|d| d.name == c.column).map(|d| d.dtype.clone())
        });
        match dtype {
            Some(DataType::Str | DataType::Dict) => ColumnType::Str,
            Some(DataType::F64) => ColumnType::Float,
            _ => ColumnType::Int,
        }
    });
    let aggs = query.aggregates.iter().map(|a| match a.func {
        AggFunc::Count => ColumnType::Int,
        _ => ColumnType::Float,
    });
    group.chain(aggs).collect()
}

// ---------------------------------------------------------------------------
// Canonical rendering (the cache-key text).
// ---------------------------------------------------------------------------

/// Case-folds every identifier in the template (tables, columns, aliases)
/// so two spellings of a name canonicalize identically. String literals
/// are untouched.
fn lowercase_idents(tmpl: &mut StatementTemplate) {
    fn col(c: &mut ColName) {
        if let Some(t) = &mut c.table {
            t.make_ascii_lowercase();
        }
        c.column.make_ascii_lowercase();
    }
    fn arith(a: &mut Arith) {
        match a {
            Arith::Col(c) => col(c),
            Arith::Add(x, y) | Arith::Sub(x, y) | Arith::Mul(x, y) => {
                arith(x);
                arith(y);
            }
            Arith::Num(_) => {}
        }
    }
    fn cond(c: &mut Cond) {
        match c {
            Cond::Cmp { col: cl, .. }
            | Cond::Between { col: cl, .. }
            | Cond::InList { col: cl, .. } => col(cl),
            Cond::JoinEq(a, b) => {
                col(a);
                col(b);
            }
            Cond::And(cs) | Cond::Or(cs) => cs.iter_mut().for_each(cond),
            Cond::Not(c) => cond(c),
        }
    }
    match tmpl {
        StatementTemplate::Select(s) => {
            // Aliases keep their case: they name *output* columns, which
            // the client reads back (two alias spellings are genuinely
            // different result shapes, so they may cache separately).
            // ORDER BY keys resolve case-insensitively at plan time.
            for item in &mut s.items {
                match item {
                    SelectItem::Col { col: c, .. } => col(c),
                    SelectItem::Agg { arg, .. } => {
                        if let Some(a) = arg {
                            arith(a);
                        }
                    }
                }
            }
            s.tables.iter_mut().for_each(|t| t.make_ascii_lowercase());
            if let Some(w) = &mut s.where_clause {
                cond(w);
            }
            s.group_by.iter_mut().for_each(col);
        }
        StatementTemplate::Write(w) => match w {
            Write::Insert { table, .. } => table.make_ascii_lowercase(),
            Write::Update { table, assignments, .. } => {
                table.make_ascii_lowercase();
                assignments.iter_mut().for_each(|(c, _)| c.make_ascii_lowercase());
            }
            Write::Delete { table, .. } => table.make_ascii_lowercase(),
        },
    }
}

fn op_str(op: astore_core::expr::CmpOp) -> &'static str {
    use astore_core::expr::CmpOp::*;
    match op {
        Eq => "=",
        Ne => "<>",
        Lt => "<",
        Le => "<=",
        Gt => ">",
        Ge => ">=",
    }
}

/// Renders a measure expression with the parentheses its shape needs and
/// no more — `+` and `-` chain to the left, `*` binds tighter — so the
/// text parses back to the same tree and nests no deeper than the source.
fn render_arith(a: &Arith) -> String {
    // Binding strength: `+`/`-`, then `*`, then an operand.
    fn strength(a: &Arith) -> u8 {
        match a {
            Arith::Add(..) | Arith::Sub(..) => 0,
            Arith::Mul(..) => 1,
            Arith::Col(_) | Arith::Num(_) => 2,
        }
    }
    let side = |x: &Arith, min: u8| {
        if strength(x) < min {
            format!("({})", render_arith(x))
        } else {
            render_arith(x)
        }
    };
    match a {
        Arith::Col(c) => c.to_string(),
        Arith::Num(v) if v.fract() == 0.0 && v.is_finite() && v.abs() < 9e15 => {
            format!("{}", *v as i64)
        }
        // A whole float must keep its decimal point or it lexes as an integer.
        Arith::Num(v) if v.fract() == 0.0 => format!("{v:.1}"),
        Arith::Num(v) => v.to_string(),
        Arith::Add(x, y) => format!("{} + {}", side(x, 0), side(y, 1)),
        Arith::Sub(x, y) => format!("{} - {}", side(x, 0), side(y, 1)),
        Arith::Mul(x, y) => format!("{} * {}", side(x, 1), side(y, 2)),
    }
}

/// Renders a condition with the parentheses its shape needs and no more:
/// `and` binds tighter than `or`, `not` tightest, and a conjunction or
/// disjunction nested in one of its own kind keeps its parentheses, so the
/// text parses back to the same tree (injective up to AST equality) and
/// nests no deeper than the source.
fn render_cond(c: &Cond) -> String {
    // Binding strength: `or`, then `and`, then a leaf or `not`.
    fn strength(c: &Cond) -> u8 {
        match c {
            Cond::Or(_) => 0,
            Cond::And(_) => 1,
            _ => 2,
        }
    }
    let side = |x: &Cond, above: u8| {
        if strength(x) <= above {
            format!("({})", render_cond(x))
        } else {
            render_cond(x)
        }
    };
    match c {
        Cond::Cmp { col, op, rhs } => format!("{col} {} {rhs}", op_str(*op)),
        Cond::JoinEq(a, b) => format!("{a} = {b}"),
        Cond::Between { col, lo, hi } => format!("{col} between {lo} and {hi}"),
        Cond::InList { col, list } => {
            let items: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            format!("{col} in ({})", items.join(", "))
        }
        Cond::And(cs) => cs.iter().map(|x| side(x, 1)).collect::<Vec<_>>().join(" and "),
        Cond::Or(cs) => cs.iter().map(|x| side(x, 0)).collect::<Vec<_>>().join(" or "),
        Cond::Not(x) => format!("not {}", side(x, 1)),
    }
}

/// Renders a (case-folded) SELECT template as canonical SQL text.
fn render_select(s: &SelectStmt) -> String {
    let mut out = String::from("select ");
    let items: Vec<String> = s
        .items
        .iter()
        .map(|item| match item {
            SelectItem::Col { col, alias } => match alias {
                Some(a) => format!("{col} as {a}"),
                None => col.to_string(),
            },
            SelectItem::Agg { func, arg, alias } => {
                let body = match arg {
                    None => "*".to_owned(),
                    Some(a) => render_arith(a),
                };
                match alias {
                    Some(a) => format!("{func}({body}) as {a}"),
                    None => format!("{func}({body})"),
                }
            }
        })
        .collect();
    out.push_str(&items.join(", "));
    out.push_str(" from ");
    out.push_str(&s.tables.join(", "));
    if let Some(w) = &s.where_clause {
        out.push_str(" where ");
        out.push_str(&render_cond(w));
    }
    if !s.group_by.is_empty() {
        out.push_str(" group by ");
        let cols: Vec<String> = s.group_by.iter().map(|c| c.to_string()).collect();
        out.push_str(&cols.join(", "));
    }
    if !s.order_by.is_empty() {
        out.push_str(" order by ");
        let keys: Vec<String> = s
            .order_by
            .iter()
            .map(|o| format!("{} {}", o.name, if o.desc { "desc" } else { "asc" }))
            .collect();
        out.push_str(&keys.join(", "));
    }
    if let Some(n) = s.limit {
        out.push_str(&format!(" limit {n}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_core::exec::{execute, ExecOptions};
    use astore_storage::table::{ColumnDef, Schema, Table};

    fn star_db() -> Database {
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_name", DataType::Dict),
                ColumnDef::new("d_rank", DataType::I32),
            ]),
        );
        for (n, r) in [("alpha", 1), ("beta", 2), ("gamma", 3)] {
            dim.append_row(&[Value::Str(n.into()), Value::Int(r)]);
        }
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_v", DataType::I64),
            ]),
        );
        for (k, v) in [(0u32, 10), (1, 20), (2, 30), (0, 40)] {
            fact.append_row(&[Value::Key(k), Value::Int(v)]);
        }
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    #[test]
    fn prepare_bind_execute_roundtrip() {
        let db = star_db();
        let p = prepare(
            "SELECT d_name, sum(f_v) AS s FROM fact, dim WHERE d_rank >= ? GROUP BY d_name \
             ORDER BY d_name",
            &db,
        )
        .unwrap();
        assert_eq!(p.param_count(), 1);
        assert!(p.is_select());
        assert_eq!(p.columns().unwrap(), ["d_name", "s"]);
        assert_eq!(p.column_types().unwrap(), [ColumnType::Str, ColumnType::Float]);

        let BoundStatement::Select(q) = p.bind(&[Value::Int(2)]).unwrap() else { panic!() };
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows.len(), 2, "beta and gamma");

        // Re-bind with a different value: no re-plan, different rows.
        let BoundStatement::Select(q) = p.bind(&[Value::Int(3)]).unwrap() else { panic!() };
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows.len(), 1, "gamma only");
    }

    #[test]
    fn bind_checks_count_and_type() {
        let db = star_db();
        let p = prepare("SELECT count(*) FROM fact, dim WHERE d_name = $1 AND d_rank < $2", &db)
            .unwrap();
        assert_eq!(p.param_count(), 2);
        let e = p.bind(&[Value::Str("alpha".into())]).unwrap_err();
        assert!(e.message.contains("2 parameter(s), 1 given"), "{e}");
        let e = p.bind(&[Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(e.message.contains("$1 expects"), "{e}");
        let e = p.bind(&[Value::Str("alpha".into()), Value::Str("x".into())]).unwrap_err();
        assert!(e.message.contains("$2 expects"), "{e}");
        let e = p.bind(&[Value::Null, Value::Int(2)]).unwrap_err();
        assert!(e.message.contains("NULL"), "{e}");
        assert!(p.bind(&[Value::Str("alpha".into()), Value::Int(2)]).is_ok());
    }

    #[test]
    fn conflicting_param_families_rejected_at_prepare() {
        let db = star_db();
        let e = prepare("SELECT count(*) FROM fact, dim WHERE d_name = $1 AND d_rank = $1", &db)
            .unwrap_err();
        assert!(e.to_string().contains("both string and numeric"), "{e}");
    }

    #[test]
    fn canonical_text_is_format_insensitive() {
        let db = star_db();
        let a = prepare("SELECT count(*) FROM fact WHERE f_v >= ?", &db).unwrap();
        let b = prepare("select   COUNT( * )\nfrom FACT where F_V>=$1 ;", &db).unwrap();
        assert_eq!(a.sql(), b.sql());
    }

    /// The serving layer's staged pipeline, as one helper: extract →
    /// canonicalize → plan.
    fn prepare_extracting(sql: &str, db: &Database) -> (Prepared, Vec<Value>) {
        let mut tmpl = parse_template(sql).unwrap();
        let params = extract_select_params(&mut tmpl);
        let _key = canonicalize(&mut tmpl);
        (prepare_template(tmpl, db).unwrap(), params)
    }

    #[test]
    fn extraction_unifies_literal_variants() {
        let db = star_db();
        let (a, pa) = prepare_extracting("SELECT count(*) FROM fact WHERE f_v >= 10", &db);
        let (b, pb) = prepare_extracting("SELECT count(*) FROM fact WHERE f_v >= 25", &db);
        assert_eq!(a.sql(), b.sql(), "literal variants share one template");
        assert_eq!(pa, vec![Value::Int(10)]);
        assert_eq!(pb, vec![Value::Int(25)]);

        // The extracted template executes identically to the literal SQL.
        let BoundStatement::Select(q) = a.bind(&pa).unwrap() else { panic!() };
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(4));
        let BoundStatement::Select(q) = b.bind(&pb).unwrap() else { panic!() };
        let out = execute(&db, &q, &ExecOptions::default()).unwrap();
        assert_eq!(out.result.rows[0][0], Value::Int(2), "40 and 30 pass");
    }

    #[test]
    fn extraction_leaves_measures_and_limit_alone() {
        let db = star_db();
        let (p, params) =
            prepare_extracting("SELECT sum(f_v * 2) AS s2 FROM fact WHERE f_v > 10 LIMIT 5", &db);
        assert_eq!(params, vec![Value::Int(10)], "only the WHERE literal moves");
        assert!(p.sql().contains("* 2"), "measure constant stays: {}", p.sql());
        assert!(p.sql().ends_with("limit 5"), "{}", p.sql());
    }

    #[test]
    fn explicit_placeholders_disable_extraction() {
        let db = star_db();
        let (p, params) =
            prepare_extracting("SELECT count(*) FROM fact WHERE f_v > ? AND f_v < 100", &db);
        assert!(params.is_empty(), "mixed statements keep their literals");
        assert_eq!(p.param_count(), 1);
    }

    #[test]
    fn prepared_writes_bind_and_validate() {
        let db = star_db();
        let p = prepare("INSERT INTO fact VALUES (?, ?)", &db).unwrap();
        assert!(!p.is_select());
        assert_eq!(p.param_count(), 2);
        let BoundStatement::Write(s) = p.bind(&[Value::Int(1), Value::Int(99)]).unwrap() else {
            panic!()
        };
        assert_eq!(
            s,
            Write::Insert { table: "fact".into(), rows: vec![vec![Value::Int(1), Value::Int(99)]] }
        );
        // Type mismatch caught at bind.
        let e = p.bind(&[Value::Str("x".into()), Value::Int(1)]).unwrap_err();
        assert!(e.message.contains("$1 expects"), "{e}");

        let p = prepare("UPDATE fact SET f_v = $2 WHERE rowid = $1", &db).unwrap();
        let BoundStatement::Write(s) = p.bind(&[Value::Int(3), Value::Int(-5)]).unwrap() else {
            panic!()
        };
        assert_eq!(
            s,
            Write::Update {
                table: "fact".into(),
                assignments: vec![("f_v".into(), Value::Int(-5))],
                row: Value::Int(3),
            }
        );
        let e = p.bind(&[Value::Int(-1), Value::Int(0)]).unwrap_err();
        assert!(e.message.contains("rowid"), "{e}");

        let p = prepare("DELETE FROM fact WHERE rowid = ?", &db).unwrap();
        let BoundStatement::Write(s) = p.bind(&[Value::Int(2)]).unwrap() else { panic!() };
        assert_eq!(s, Write::Delete { table: "fact".into(), row: Value::Int(2) });
    }

    #[test]
    fn write_templates_validate_shape_at_prepare() {
        let db = star_db();
        assert!(prepare("INSERT INTO nope VALUES (1)", &db).is_err());
        assert!(prepare("INSERT INTO fact VALUES (?)", &db).is_err(), "arity");
        assert!(prepare("UPDATE fact SET nope = ? WHERE rowid = 0", &db).is_err());
    }

    #[test]
    fn rendering_is_injective_for_nesting() {
        let db = star_db();
        let a = prepare("SELECT count(*) FROM fact WHERE f_v = 1 OR (f_v = 2 AND f_v = 3)", &db)
            .unwrap();
        let b = prepare("SELECT count(*) FROM fact WHERE (f_v = 1 OR f_v = 2) AND f_v = 3", &db)
            .unwrap();
        assert_ne!(a.sql(), b.sql());
    }
}
