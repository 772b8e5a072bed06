//! Top-level statement parsing: SELECT plus the write statements the
//! serving layer routes through `SharedDatabase::write`.
//!
//! A-Store's storage model makes the array index the primary key, so the
//! write grammar addresses rows by `rowid` directly (paper §2: "the array
//! index is the primary key"):
//!
//! ```text
//! INSERT INTO t VALUES (lit, …) [, (lit, …)]* [;]
//! UPDATE t SET col = lit [, col = lit]* WHERE rowid = n [;]
//! DELETE FROM t WHERE rowid = n [;]
//! ```
//!
//! Literals are integers, floats, single-quoted strings, or `NULL`. Key
//! (AIR) columns take integer literals; the executor coerces them using
//! the table schema. Every literal position (including `rowid`) also
//! accepts a `?`/`$n` placeholder — [`parse_template`] keeps the slots,
//! [`parse_statement`] requires a fully literal statement.

use astore_storage::types::{RowId, Value};

use crate::ast::SelectStmt;
use crate::lexer::{lex, Token};
use crate::parser::{parse, ParseError};

/// One parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A read-only SPJGA query.
    Select(SelectStmt),
    /// `INSERT INTO table VALUES (…), (…)` — one or more rows.
    Insert {
        /// Target table.
        table: String,
        /// Row literals, one `Vec<Value>` per row.
        rows: Vec<Vec<Value>>,
    },
    /// `UPDATE table SET col = lit, … WHERE rowid = n`.
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` pairs.
        assignments: Vec<(String, Value)>,
        /// The row to update (the array index is the primary key).
        row: RowId,
    },
    /// `DELETE FROM table WHERE rowid = n`.
    Delete {
        /// Target table.
        table: String,
        /// The row to delete.
        row: RowId,
    },
}

impl Statement {
    /// Returns `true` for statements that mutate the database.
    pub fn is_write(&self) -> bool {
        !matches!(self, Statement::Select(_))
    }

    /// Renders a *write* statement back to canonical SQL text — the form
    /// the write-ahead log stores, so a parameter-bound prepared write is
    /// logged (and replayed) exactly like its literal-SQL equivalent.
    /// Returns `None` for SELECT.
    pub fn to_sql(&self) -> Option<String> {
        match self {
            Statement::Select(_) => None,
            Statement::Insert { table, rows } => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        let vals: Vec<String> = r.iter().map(sql_value).collect();
                        format!("({})", vals.join(", "))
                    })
                    .collect();
                Some(format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
            }
            Statement::Update { table, assignments, row } => {
                let sets: Vec<String> =
                    assignments.iter().map(|(c, v)| format!("{c} = {}", sql_value(v))).collect();
                Some(format!("UPDATE {table} SET {} WHERE rowid = {row}", sets.join(", ")))
            }
            Statement::Delete { table, row } => {
                Some(format!("DELETE FROM {table} WHERE rowid = {row}"))
            }
        }
    }
}

/// Renders one literal as SQL source text that re-parses to the same
/// [`Value`].
pub(crate) fn sql_value(v: &Value) -> String {
    match v {
        Value::Int(x) => x.to_string(),
        // A whole float must keep its decimal point or it re-parses as Int.
        Value::Float(f) if f.fract() == 0.0 && f.is_finite() => format!("{f:.1}"),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Key(k) => k.to_string(),
        Value::Null => "NULL".into(),
    }
}

/// One slot of a write template: a concrete literal or a parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A literal value.
    Value(Value),
    /// A `?`/`$n` placeholder (0-based slot).
    Param(usize),
}

impl Arg {
    /// The parameter slot, if this argument is one.
    pub fn param(&self) -> Option<usize> {
        match self {
            Arg::Param(i) => Some(*i),
            Arg::Value(_) => None,
        }
    }
}

/// A write statement whose literal positions may be parameter slots.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteTemplate {
    /// `INSERT INTO table VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Row slots, one `Vec<Arg>` per row.
        rows: Vec<Vec<Arg>>,
    },
    /// `UPDATE table SET col = arg, … WHERE rowid = arg`.
    Update {
        /// Target table.
        table: String,
        /// `(column, slot)` pairs.
        assignments: Vec<(String, Arg)>,
        /// The row to update.
        row: Arg,
    },
    /// `DELETE FROM table WHERE rowid = arg`.
    Delete {
        /// Target table.
        table: String,
        /// The row to delete.
        row: Arg,
    },
}

impl WriteTemplate {
    /// The target table.
    pub fn table(&self) -> &str {
        match self {
            WriteTemplate::Insert { table, .. }
            | WriteTemplate::Update { table, .. }
            | WriteTemplate::Delete { table, .. } => table,
        }
    }

    /// Every argument slot, in source order.
    pub fn args(&self) -> Vec<&Arg> {
        match self {
            WriteTemplate::Insert { rows, .. } => rows.iter().flatten().collect(),
            WriteTemplate::Update { assignments, row, .. } => {
                assignments.iter().map(|(_, a)| a).chain(std::iter::once(row)).collect()
            }
            WriteTemplate::Delete { row, .. } => vec![row],
        }
    }

    /// Number of parameter slots (one more than the highest index).
    pub fn param_count(&self) -> usize {
        self.args().iter().filter_map(|a| a.param()).map(|i| i + 1).max().unwrap_or(0)
    }
}

/// A statement whose literal positions may be parameter slots — what
/// `prepare` produces before planning/binding.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementTemplate {
    /// A SELECT (placeholders live in its WHERE clause).
    Select(SelectStmt),
    /// An INSERT/UPDATE/DELETE.
    Write(WriteTemplate),
}

impl StatementTemplate {
    /// Number of parameter slots the template references.
    pub fn param_count(&self) -> usize {
        match self {
            StatementTemplate::Select(s) => s.param_count(),
            StatementTemplate::Write(w) => w.param_count(),
        }
    }

    /// Is this a read-only SELECT?
    pub fn is_select(&self) -> bool {
        matches!(self, StatementTemplate::Select(_))
    }

    /// Does a SELECT's WHERE clause embed literal values (as opposed to
    /// placeholders)? The serving layer declines to plan-cache such
    /// prepares: every distinct literal would occupy its own cache entry,
    /// letting a literal-per-request client flood the shared cache.
    pub fn has_predicate_literals(&self) -> bool {
        match self {
            StatementTemplate::Select(s) => {
                let mut found = false;
                if let Some(w) = &s.where_clause {
                    w.visit_scalars(&mut |sc| {
                        if !matches!(sc, crate::ast::Scalar::Param(_)) {
                            found = true;
                        }
                    });
                }
                found
            }
            StatementTemplate::Write(_) => false,
        }
    }

    /// Converts a placeholder-free template into a concrete [`Statement`];
    /// a template that still carries parameter slots is an error.
    pub fn into_concrete(self) -> Result<Statement, ParseError> {
        if self.param_count() > 0 {
            return Err(ParseError::new(format!(
                "statement has {} parameter placeholder(s); prepare and bind it instead",
                self.param_count()
            )));
        }
        Ok(match self {
            StatementTemplate::Select(s) => Statement::Select(s),
            StatementTemplate::Write(w) => concrete_write(w),
        })
    }
}

/// Parses one statement of any kind, keeping parameter placeholders.
pub fn parse_template(input: &str) -> Result<StatementTemplate, ParseError> {
    let head = first_keyword(input).unwrap_or_default();
    match head.as_str() {
        "insert" | "update" | "delete" => {
            let toks = lex(input)?;
            let mut c = Cursor { toks, pos: 0, anon_params: 0, numbered_params: false };
            let stmt = match head.as_str() {
                "insert" => c.insert_stmt()?,
                "update" => c.update_stmt()?,
                _ => c.delete_stmt()?,
            };
            c.eat(&Token::Semi);
            if !c.at_end() {
                return Err(c.err(format!("trailing input at token {}", c.peek_str())));
            }
            Ok(StatementTemplate::Write(stmt))
        }
        _ => Ok(StatementTemplate::Select(parse(input)?)),
    }
}

/// Parses one fully literal statement of any kind; placeholders are an
/// error here (the WAL replays concrete statements only).
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    parse_template(input)?.into_concrete()
}

/// Converts a placeholder-free write template into a concrete statement.
/// Panics if a parameter slot remains (callers check `param_count`).
pub(crate) fn concrete_write(w: WriteTemplate) -> Statement {
    let value = |a: Arg| match a {
        Arg::Value(v) => v,
        Arg::Param(i) => panic!("unbound parameter ${} in write statement", i + 1),
    };
    let rowid = |a: Arg| match value(a) {
        Value::Int(n) if n >= 0 && n <= i64::from(u32::MAX) => n as RowId,
        other => panic!("rowid slot holds non-rowid value {other:?}"),
    };
    match w {
        WriteTemplate::Insert { table, rows } => Statement::Insert {
            table,
            rows: rows.into_iter().map(|r| r.into_iter().map(value).collect()).collect(),
        },
        WriteTemplate::Update { table, assignments, row } => Statement::Update {
            table,
            assignments: assignments.into_iter().map(|(c, a)| (c, value(a))).collect(),
            row: rowid(row),
        },
        WriteTemplate::Delete { table, row } => Statement::Delete { table, row: rowid(row) },
    }
}

/// Strips a leading `EXPLAIN ANALYZE` prefix (case-insensitive, any
/// whitespace between and after the keywords), returning the inner
/// statement text. `None` when the input has no such prefix — callers fall
/// through to normal statement parsing. A bare `EXPLAIN` without `ANALYZE`
/// is not a prefix (the engine only reports *executed* plans).
pub fn strip_explain_analyze(input: &str) -> Option<&str> {
    let rest = strip_keyword(input.trim_start(), "explain")?;
    let rest = strip_keyword(rest.trim_start(), "analyze")?;
    let inner = rest.trim_start();
    (!inner.is_empty()).then_some(inner)
}

/// Strips a leading bare `EXPLAIN` prefix (case-insensitive), returning the
/// inner statement text. `None` when the input has no such prefix **or**
/// when the prefix is `EXPLAIN ANALYZE` — that form belongs to
/// [`strip_explain_analyze`], so callers must try that first (or this one
/// declines anyway). Bare `EXPLAIN` reports the *decision* — the engine
/// and the selection plan — without executing the statement.
pub fn strip_explain(input: &str) -> Option<&str> {
    let rest = strip_keyword(input.trim_start(), "explain")?;
    let inner = rest.trim_start();
    let first = inner.split_whitespace().next().unwrap_or("");
    if first.eq_ignore_ascii_case("analyze") {
        return None;
    }
    (!inner.is_empty()).then_some(inner)
}

/// Strips one leading keyword iff it is followed by whitespace.
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let head = s.get(..kw.len())?;
    if head.eq_ignore_ascii_case(kw)
        && s.as_bytes().get(kw.len()).is_some_and(u8::is_ascii_whitespace)
    {
        Some(&s[kw.len()..])
    } else {
        None
    }
}

/// The first word of the statement, lower-cased.
fn first_keyword(input: &str) -> Option<String> {
    input
        .split_whitespace()
        .next()
        .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()).to_ascii_lowercase())
}

struct Cursor {
    toks: Vec<Token>,
    pos: usize,
    anon_params: usize,
    numbered_params: bool,
}

impl Cursor {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn peek_str(&self) -> String {
        self.peek().map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: String) -> ParseError {
        ParseError::new(message)
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {}", self.peek_str())))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn param_slot(&mut self, p: Option<u32>) -> Result<usize, ParseError> {
        crate::parser::resolve_param_slot(p, &mut self.anon_params, &mut self.numbered_params)
            .map_err(ParseError::new)
    }

    /// A literal (number, string, `NULL`) or a placeholder.
    fn arg(&mut self) -> Result<Arg, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Arg::Value(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Arg::Value(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Arg::Value(Value::Str(s))),
            Some(Token::Param(p)) => Ok(Arg::Param(self.param_slot(p)?)),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(v)) => Ok(Arg::Value(Value::Int(-v))),
                Some(Token::Float(v)) => Ok(Arg::Value(Value::Float(-v))),
                other => Err(self.err(format!("expected number after '-', found {other:?}"))),
            },
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => Ok(Arg::Value(Value::Null)),
            other => Err(self.err(format!("expected literal, found {other:?}"))),
        }
    }

    /// `WHERE rowid = n` (or a placeholder for `n`).
    fn where_rowid(&mut self) -> Result<Arg, ParseError> {
        self.expect_kw("where")?;
        let col = self.ident()?;
        if !col.eq_ignore_ascii_case("rowid") {
            return Err(self.err(format!(
                "write statements address rows by primary key: expected `rowid`, found `{col}` \
                 (in A-Store the array index is the primary key)"
            )));
        }
        self.expect(&Token::Eq)?;
        match self.next() {
            Some(Token::Int(n)) if n >= 0 && n <= i64::from(u32::MAX) => {
                Ok(Arg::Value(Value::Int(n)))
            }
            Some(Token::Param(p)) => Ok(Arg::Param(self.param_slot(p)?)),
            other => Err(self.err(format!("expected row id, found {other:?}"))),
        }
    }

    fn insert_stmt(&mut self) -> Result<WriteTemplate, ParseError> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = vec![self.arg()?];
            while self.eat(&Token::Comma) {
                row.push(self.arg()?);
            }
            self.expect(&Token::RParen)?;
            rows.push(row);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(WriteTemplate::Insert { table, rows })
    }

    fn update_stmt(&mut self) -> Result<WriteTemplate, ParseError> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            assignments.push((col, self.arg()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let row = self.where_rowid()?;
        Ok(WriteTemplate::Update { table, assignments, row })
    }

    fn delete_stmt(&mut self) -> Result<WriteTemplate, ParseError> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        let row = self.where_rowid()?;
        Ok(WriteTemplate::Delete { table, row })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_routes_to_select_parser() {
        let s = parse_statement("SELECT count(*) FROM t").unwrap();
        assert!(matches!(s, Statement::Select(_)));
        assert!(!s.is_write());
    }

    #[test]
    fn insert_single_and_multi_row() {
        let s = parse_statement("INSERT INTO dim VALUES (1, 2.5, 'x', NULL)").unwrap();
        assert_eq!(
            s,
            Statement::Insert {
                table: "dim".into(),
                rows: vec![vec![
                    Value::Int(1),
                    Value::Float(2.5),
                    Value::Str("x".into()),
                    Value::Null
                ]],
            }
        );
        let s = parse_statement("insert into t values (1), (-2), (3);").unwrap();
        let Statement::Insert { rows, .. } = s else { panic!() };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], vec![Value::Int(-2)]);
    }

    #[test]
    fn update_by_rowid() {
        let s = parse_statement("UPDATE t SET a = 5, b = 'y' WHERE rowid = 7").unwrap();
        assert_eq!(
            s,
            Statement::Update {
                table: "t".into(),
                assignments: vec![
                    ("a".into(), Value::Int(5)),
                    ("b".into(), Value::Str("y".into()))
                ],
                row: 7,
            }
        );
    }

    #[test]
    fn delete_by_rowid() {
        let s = parse_statement("DELETE FROM t WHERE rowid = 3;").unwrap();
        assert_eq!(s, Statement::Delete { table: "t".into(), row: 3 });
        assert!(s.is_write());
    }

    #[test]
    fn write_templates_keep_placeholders() {
        let t = parse_template("INSERT INTO t VALUES (?, 'fixed', ?)").unwrap();
        assert_eq!(t.param_count(), 2);
        let StatementTemplate::Write(WriteTemplate::Insert { rows, .. }) = &t else { panic!() };
        assert_eq!(rows[0][0], Arg::Param(0));
        assert_eq!(rows[0][1], Arg::Value(Value::Str("fixed".into())));
        assert_eq!(rows[0][2], Arg::Param(1));

        let t = parse_template("UPDATE t SET v = $2 WHERE rowid = $1").unwrap();
        assert_eq!(t.param_count(), 2);
        let StatementTemplate::Write(WriteTemplate::Update { row, .. }) = &t else { panic!() };
        assert_eq!(*row, Arg::Param(0));

        let t = parse_template("DELETE FROM t WHERE rowid = ?").unwrap();
        assert_eq!(t.param_count(), 1);

        // parse_statement refuses templates.
        let e = parse_statement("DELETE FROM t WHERE rowid = ?").unwrap_err();
        assert!(e.message.contains("placeholder"), "{e}");
    }

    #[test]
    fn write_errors() {
        assert!(parse_statement("INSERT INTO t").is_err());
        assert!(parse_statement("INSERT INTO t VALUES 1, 2").is_err());
        assert!(parse_statement("DELETE FROM t WHERE other = 3").is_err());
        assert!(parse_statement("UPDATE t SET a = 1").is_err());
        assert!(parse_statement("DELETE FROM t WHERE rowid = -1").is_err());
        assert!(parse_statement("INSERT INTO t VALUES (1) garbage").is_err());
    }

    #[test]
    fn to_sql_roundtrips_through_the_parser() {
        for sql in [
            "INSERT INTO t VALUES (1, 2.5, 'x', NULL)",
            "INSERT INTO t VALUES (1), (-2), (3)",
            "UPDATE t SET a = 5, b = 'O''NEIL', c = 2.0 WHERE rowid = 7",
            "DELETE FROM t WHERE rowid = 3",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let rendered = stmt.to_sql().unwrap();
            assert_eq!(parse_statement(&rendered).unwrap(), stmt, "{sql} → {rendered}");
        }
        assert!(parse_statement("SELECT count(*) FROM t").unwrap().to_sql().is_none());
    }

    #[test]
    fn explain_analyze_prefix_strips() {
        assert_eq!(
            strip_explain_analyze("EXPLAIN ANALYZE SELECT count(*) FROM t"),
            Some("SELECT count(*) FROM t")
        );
        assert_eq!(
            strip_explain_analyze("  explain\n\tAnalyze  select 1 from t"),
            Some("select 1 from t")
        );
        // Not a prefix: bare EXPLAIN, missing body, unrelated statements,
        // or the keywords fused to the next token.
        assert_eq!(strip_explain_analyze("EXPLAIN SELECT count(*) FROM t"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZE"), None);
        assert_eq!(strip_explain_analyze("EXPLAIN ANALYZE   "), None);
        assert_eq!(strip_explain_analyze("SELECT count(*) FROM t"), None);
        assert_eq!(strip_explain_analyze("EXPLAINANALYZE SELECT 1"), None);
        assert_eq!(strip_explain_analyze("é"), None);
    }

    #[test]
    fn bare_explain_prefix_strips_but_never_claims_analyze() {
        assert_eq!(strip_explain("EXPLAIN SELECT count(*) FROM t"), Some("SELECT count(*) FROM t"));
        assert_eq!(strip_explain("  explain\n select 1 from t"), Some("select 1 from t"));
        // EXPLAIN ANALYZE belongs to strip_explain_analyze.
        assert_eq!(strip_explain("EXPLAIN ANALYZE SELECT count(*) FROM t"), None);
        assert_eq!(strip_explain("explain analyze select 1 from t"), None);
        // No prefix, empty body, fused keyword.
        assert_eq!(strip_explain("SELECT count(*) FROM t"), None);
        assert_eq!(strip_explain("EXPLAIN"), None);
        assert_eq!(strip_explain("EXPLAIN   "), None);
        assert_eq!(strip_explain("EXPLAINSELECT 1"), None);
    }

    #[test]
    fn placeholder_styles_cannot_mix_and_slots_are_capped() {
        // Mixing ? and $n would silently alias slots; it's a parse error.
        assert!(parse_template("INSERT INTO t VALUES ($1, ?)").is_err());
        assert!(parse_template("UPDATE t SET a = ? WHERE rowid = $1").is_err());
        // A hostile $4000000000 must not size a 4-billion-entry table.
        let e = parse_template("INSERT INTO t VALUES ($4000000000)").unwrap_err();
        assert!(e.message.contains("exceeds the maximum"), "{e}");
    }
}
