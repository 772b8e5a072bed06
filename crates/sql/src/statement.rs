//! Statements of every kind, and the one type a write has from parse to log.
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
//! accepts a `?`/`$n` placeholder.
//!
//! [`parse_template`](crate::parser::parse_template) parses every
//! statement kind with one parser. A write is a [`Write`] throughout:
//! `Write<Arg>` as parsed or prepared, and `Write<Value>` once
//! [`Write::bind`] has filled its slots — the value the commit path
//! validates and applies, and whose [`render_write`] text a WAL record
//! carries and replay parses back.

use astore_storage::types::{RowId, Value};

use crate::ast::SelectStmt;
use crate::lexer::{tokens, Token};
use crate::prepared::ParamError;

/// One slot of a write template: a concrete literal or a parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A literal value.
    Value(Value),
    /// A `?`/`$n` placeholder (0-based slot).
    Param(usize),
}

/// An INSERT, UPDATE or DELETE. `S` is what fills a literal position:
/// [`Arg`] in a template, [`Value`] once bound.
#[derive(Debug, Clone, PartialEq)]
pub enum Write<S> {
    /// `INSERT INTO table VALUES (…), (…)` — one or more rows.
    Insert {
        /// Target table.
        table: String,
        /// One `Vec` of slots per row.
        rows: Vec<Vec<S>>,
    },
    /// `UPDATE table SET col = slot, … WHERE rowid = slot`.
    Update {
        /// Target table.
        table: String,
        /// `(column, slot)` pairs.
        assignments: Vec<(String, S)>,
        /// The row to update (the array index is the primary key).
        row: S,
    },
    /// `DELETE FROM table WHERE rowid = slot`.
    Delete {
        /// Target table.
        table: String,
        /// The row to delete.
        row: S,
    },
}

impl<S> Write<S> {
    /// The target table.
    pub fn table(&self) -> &str {
        match self {
            Write::Insert { table, .. }
            | Write::Update { table, .. }
            | Write::Delete { table, .. } => table,
        }
    }
}

impl Write<Arg> {
    /// Number of parameter slots (one more than the highest index).
    pub fn param_count(&self) -> usize {
        let slot = |a: &Arg| match a {
            Arg::Param(i) => i + 1,
            Arg::Value(_) => 0,
        };
        match self {
            Write::Insert { rows, .. } => rows.iter().flatten().map(slot).max(),
            Write::Update { assignments, row, .. } => {
                assignments.iter().map(|(_, a)| slot(a)).chain([slot(row)]).max()
            }
            Write::Delete { row, .. } => Some(slot(row)),
        }
        .unwrap_or(0)
    }

    /// Fills the slots with `params` — none for a literal write. Checks the
    /// count and that the row id is an integer in `[0, RowId::MAX]`; column
    /// types are checked when the write is validated against a database.
    /// A key value binds as its integer, the form the WAL text replays.
    pub fn bind(&self, params: &[Value]) -> Result<Write<Value>, ParamError> {
        if params.len() != self.param_count() {
            return Err(ParamError::new(format!(
                "statement has {} parameter placeholder(s), {} value(s) given",
                self.param_count(),
                params.len()
            )));
        }
        let value = |a: &Arg| match a {
            Arg::Value(v) => v.clone(),
            Arg::Param(i) => match &params[*i] {
                Value::Key(k) => Value::Int(i64::from(*k)),
                v => v.clone(),
            },
        };
        let row = |a: &Arg| match value(a) {
            Value::Int(n) if (0..=i64::from(RowId::MAX)).contains(&n) => Ok(Value::Int(n)),
            other => Err(ParamError::new(format!(
                "rowid must be an integer in [0, {}], got {other:?}",
                RowId::MAX
            ))),
        };
        Ok(match self {
            Write::Insert { table, rows } => Write::Insert {
                table: table.clone(),
                rows: rows.iter().map(|r| r.iter().map(value).collect()).collect(),
            },
            Write::Update { table, assignments, row: r } => Write::Update {
                table: table.clone(),
                assignments: assignments.iter().map(|(c, a)| (c.clone(), value(a))).collect(),
                row: row(r)?,
            },
            Write::Delete { table, row: r } => Write::Delete { table: table.clone(), row: row(r)? },
        })
    }
}

/// The SQL text of one slot of a [`Write`].
pub trait SlotSql {
    /// Source text that parses back to the same slot.
    fn sql(&self) -> String;
}

impl SlotSql for Value {
    fn sql(&self) -> String {
        match self {
            Value::Int(x) => x.to_string(),
            // A whole float must keep its decimal point or it re-parses as Int.
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => format!("{f:.1}"),
            Value::Float(f) => f.to_string(),
            Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Key(k) => k.to_string(),
            Value::Null => "NULL".into(),
        }
    }
}

impl SlotSql for Arg {
    fn sql(&self) -> String {
        match self {
            Arg::Value(v) => v.sql(),
            Arg::Param(i) => format!("${}", i + 1),
        }
    }
}

/// A write's canonical SQL text: lower-case keywords, literals that parse
/// back to the same value, placeholders as `$n`. A template's text is its
/// plan-cache key; a bound write's text is what its WAL record carries.
pub fn render_write<S: SlotSql>(w: &Write<S>) -> String {
    let list = |slots: &[S]| slots.iter().map(S::sql).collect::<Vec<_>>().join(", ");
    match w {
        Write::Insert { table, rows } => {
            let rows: Vec<String> = rows.iter().map(|r| format!("({})", list(r))).collect();
            format!("insert into {table} values {}", rows.join(", "))
        }
        Write::Update { table, assignments, row } => {
            let sets: Vec<String> =
                assignments.iter().map(|(c, s)| format!("{c} = {}", s.sql())).collect();
            format!("update {table} set {} where rowid = {}", sets.join(", "), row.sql())
        }
        Write::Delete { table, row } => format!("delete from {table} where rowid = {}", row.sql()),
    }
}

/// A statement whose literal positions may be parameter slots — what
/// [`parse_template`](crate::parser::parse_template) produces before
/// planning/binding.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementTemplate {
    /// A SELECT (placeholders live in its WHERE clause).
    Select(SelectStmt),
    /// An INSERT/UPDATE/DELETE.
    Write(Write<Arg>),
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
}

/// Strips a leading `EXPLAIN ANALYZE` prefix (case-insensitive, with any
/// whitespace or `--` comments around the keywords — the SQL lexer reads
/// them), returning the inner statement text. `None` when the input has no
/// such prefix — callers fall through to normal statement parsing. A bare
/// `EXPLAIN` without `ANALYZE` is not this prefix ([`strip_explain`]).
pub fn strip_explain_analyze(input: &str) -> Option<&str> {
    after_keywords(input, &["explain", "analyze"]).map(|(inner, _)| inner)
}

/// Strips a leading bare `EXPLAIN` prefix (read as
/// [`strip_explain_analyze`] reads its keywords), returning the inner
/// statement text. `None` when the input has no such prefix **or** when
/// the prefix is `EXPLAIN ANALYZE` — that form belongs to
/// [`strip_explain_analyze`]. Bare `EXPLAIN` reports the *decision* — the
/// engine and the selection plan — without executing the statement.
pub fn strip_explain(input: &str) -> Option<&str> {
    match after_keywords(input, &["explain"])? {
        (_, Some(next)) if is_keyword(&next, "analyze") => None,
        (inner, _) => Some(inner),
    }
}

/// The text after a leading run of the keywords `kws`, read with the SQL
/// lexer, and the token that follows them (`None` if it does not lex).
/// `None` unless the input opens with exactly those keywords and something
/// follows them.
fn after_keywords<'a>(input: &'a str, kws: &[&str]) -> Option<(&'a str, Option<Token>)> {
    let mut toks = tokens(input);
    let mut end = 0;
    for kw in kws {
        let tok = toks.next()?.ok().filter(|t| is_keyword(&t.tok, kw))?;
        end = tok.end;
    }
    let next = toks.next()?.ok().map(|t| t.tok);
    Some((input[end..].trim_start(), next))
}

/// Whether `tok` is the keyword `kw` (keywords match case-insensitively).
fn is_keyword(tok: &Token, kw: &str) -> bool {
    matches!(tok, Token::Ident(word) if word.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_template;

    /// A literal write, parsed and bound with no parameters (the text path).
    fn write(sql: &str) -> Write<Value> {
        match parse_template(sql).unwrap() {
            StatementTemplate::Write(w) => w.bind(&[]).unwrap(),
            other => panic!("{sql} parsed as {other:?}"),
        }
    }

    #[test]
    fn select_routes_to_select_parser() {
        let s = parse_template("SELECT count(*) FROM t").unwrap();
        assert!(matches!(s, StatementTemplate::Select(_)));
        assert!(s.is_select());
    }

    #[test]
    fn insert_single_and_multi_row() {
        let s = write("INSERT INTO dim VALUES (1, 2.5, 'x', NULL)");
        assert_eq!(
            s,
            Write::Insert {
                table: "dim".into(),
                rows: vec![vec![
                    Value::Int(1),
                    Value::Float(2.5),
                    Value::Str("x".into()),
                    Value::Null
                ]],
            }
        );
        let Write::Insert { rows, .. } = write("insert into t values (1), (-2), (3);") else {
            panic!()
        };
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], vec![Value::Int(-2)]);
    }

    #[test]
    fn update_by_rowid() {
        let s = write("UPDATE t SET a = 5, b = 'y' WHERE rowid = 7");
        assert_eq!(
            s,
            Write::Update {
                table: "t".into(),
                assignments: vec![
                    ("a".into(), Value::Int(5)),
                    ("b".into(), Value::Str("y".into()))
                ],
                row: Value::Int(7),
            }
        );
    }

    #[test]
    fn delete_by_rowid() {
        let s = write("DELETE FROM t WHERE rowid = 3;");
        assert_eq!(s, Write::Delete { table: "t".into(), row: Value::Int(3) });
        assert!(!parse_template("DELETE FROM t WHERE rowid = 3").unwrap().is_select());
    }

    #[test]
    fn write_templates_keep_placeholders() {
        let t = parse_template("INSERT INTO t VALUES (?, 'fixed', ?)").unwrap();
        assert_eq!(t.param_count(), 2);
        let StatementTemplate::Write(Write::Insert { rows, .. }) = &t else { panic!() };
        assert_eq!(rows[0][0], Arg::Param(0));
        assert_eq!(rows[0][1], Arg::Value(Value::Str("fixed".into())));
        assert_eq!(rows[0][2], Arg::Param(1));

        let t = parse_template("UPDATE t SET v = $2 WHERE rowid = $1").unwrap();
        assert_eq!(t.param_count(), 2);
        let StatementTemplate::Write(Write::Update { row, .. }) = &t else { panic!() };
        assert_eq!(*row, Arg::Param(0));

        let t = parse_template("DELETE FROM t WHERE rowid = ?").unwrap();
        assert_eq!(t.param_count(), 1);

        // The text path binds no parameters, so a template refuses it.
        let StatementTemplate::Write(w) = t else { panic!() };
        let e = w.bind(&[]).unwrap_err();
        assert!(e.message.contains("1 parameter placeholder(s), 0 value(s) given"), "{e}");
        assert_eq!(w.bind(&[Value::Int(4)]).unwrap(), write("DELETE FROM t WHERE rowid = 4"));
    }

    #[test]
    fn write_errors() {
        for bad in [
            "INSERT INTO t",
            "INSERT INTO t VALUES 1, 2",
            "DELETE FROM t WHERE other = 3",
            "UPDATE t SET a = 1",
            "DELETE FROM t WHERE rowid = -1",
            "INSERT INTO t VALUES (1) garbage",
        ] {
            assert!(parse_template(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn write_errors_carry_spans() {
        for (sql, at) in [
            ("INSERT INTO t VALUES (1,", "<eof>"),
            ("UPDATE t SET v = 1 WHERE k = 3", "k"),
            ("DELETE FROM t WHERE rowid = x", "x"),
        ] {
            let e = parse_template(sql).unwrap_err();
            let (start, end) = e.span.unwrap_or_else(|| panic!("{sql}: no span in {e:?}"));
            assert!(start <= end && end <= sql.len(), "{sql}: span {start}..{end}");
            if at == "<eof>" {
                assert_eq!(start, sql.len(), "{sql}");
            } else {
                assert_eq!(&sql[start..end], at, "{sql}");
            }
            let text = e.to_string();
            assert!(text.contains(&format!("found {at}")), "{text}");
            assert!(text.ends_with(&format!("(at byte {start})")), "{text}");
            assert!(!text.contains("None") && !text.contains("Some("), "{text}");
        }
    }

    #[test]
    fn render_write_roundtrips_through_the_parser() {
        for sql in [
            "INSERT INTO t VALUES (1, 2.5, 'x', NULL)",
            "INSERT INTO t VALUES (1), (-2), (3)",
            "UPDATE t SET a = 5, b = 'O''NEIL', c = 2.0, d = 'Zürich' WHERE rowid = 7",
            "DELETE FROM t WHERE rowid = 3",
            "INSERT INTO t VALUES (-9223372036854775808, 9223372036854775807)",
        ] {
            let bound = write(sql);
            let rendered = render_write(&bound);
            assert_eq!(write(&rendered), bound, "{sql} → {rendered}");
        }
        assert_eq!(
            render_write(&write("DELETE FROM t WHERE rowid = 3")),
            "delete from t where rowid = 3"
        );
        // i64::MIN is a literal; one past i64::MAX is not.
        let e = parse_template("INSERT INTO t VALUES (9223372036854775808)").unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
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

    /// The keywords are read by the lexer: comments may sit before and
    /// between them.
    #[test]
    fn explain_prefixes_skip_comments() {
        assert_eq!(strip_explain("-- c\nEXPLAIN SELECT 1 FROM t"), Some("SELECT 1 FROM t"));
        assert_eq!(strip_explain("EXPLAIN -- c\nANALYZE SELECT 1 FROM t"), None);
        assert_eq!(
            strip_explain_analyze("-- a\nexplain -- b\n analyze\n select 1 from t"),
            Some("select 1 from t")
        );
        assert_eq!(strip_explain("EXPLAIN -- nothing else"), None);
        assert_eq!(strip_explain("SELECT 1 -- EXPLAIN"), None);
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
