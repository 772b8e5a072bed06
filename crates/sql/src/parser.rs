//! Recursive-descent parser for every statement A-Store runs: the SPJGA
//! SELECT subset and the `rowid`-keyed writes (grammar in
//! [`crate::statement`]).
//!
//! Supported SELECT grammar (keywords case-insensitive):
//!
//! ```text
//! SELECT item (',' item)*
//! FROM ident (',' ident)*
//! [WHERE cond]
//! [GROUP BY col (',' col)*]
//! [ORDER BY name [ASC|DESC] (',' …)*]
//! [LIMIT n] [';']
//!
//! item  := agg '(' ('*' | arith) ')' [AS? ident] | col [AS? ident]
//! arith := term (('+'|'-') term)* ; term := factor ('*' factor)*
//! factor:= number | col | '(' arith ')' | '-' factor
//! cond  := and (OR and)* ; and := not (AND not)*
//! not   := NOT not | '(' cond ')' | col (cmp (scalar|col) | BETWEEN … | IN (…))
//! scalar:= number | string | '?' | '$n'
//! ```
//!
//! Parameter placeholders: `?` takes the next free 0-based slot in source
//! order; `$n` names slot `n-1` explicitly and may repeat. The two styles
//! cannot mix within one statement (their numberings would silently
//! alias). Placeholders are accepted wherever a comparison/BETWEEN/IN
//! literal is — not in measure arithmetic or LIMIT, whose values shape
//! the plan itself.
//!
//! Every error carries the byte span of the token it points at (an empty
//! span just past the last token at end of input) and names that token as
//! written, or `<eof>`.
//!
//! Nesting — parentheses, `NOT` and unary minus, counted together — deeper
//! than [`MAX_DEPTH`] is an error, not recursion: a statement of
//! `((((…` costs a counter, not the thread's stack.

use astore_core::expr::CmpOp;
use astore_storage::types::{RowId, Value};

use crate::ast::{Arith, ColName, Cond, OrderItem, Scalar, SelectItem, SelectStmt};
use crate::lexer::{lex_spanned, LexError, SpannedToken, Token};
use crate::statement::{Arg, StatementTemplate, Write};

/// A parse error, with the byte span of the offending token when known.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// Byte range in the source text the error points at, if known.
    pub span: Option<(usize, usize)>,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)?;
        if let Some((start, _)) = self.span {
            write!(f, " (at byte {start})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError { message: e.to_string(), span: Some((e.pos, e.pos + 1)) }
    }
}

const AGG_FUNCS: [&str; 5] = ["sum", "count", "min", "max", "avg"];

/// The keywords that open a write — the one list of them: the parser
/// dispatches on it, and [`opens_write`] classes a statement by it.
const WRITE_KEYWORDS: [&str; 3] = ["insert", "update", "delete"];

/// The write keyword `tok` is, if it is one.
fn write_keyword(tok: &Token) -> Option<&'static str> {
    let Token::Ident(word) = tok else { return None };
    WRITE_KEYWORDS.into_iter().find(|kw| word.eq_ignore_ascii_case(kw))
}

/// Does a statement that starts with `first` parse as a write, if it
/// parses at all? Anything else is a SELECT or no statement. Lets a
/// scheduler class a statement from its first token without parsing it.
pub fn opens_write(first: &Token) -> bool {
    write_keyword(first).is_some()
}

/// Deepest nesting of parentheses, `NOT` and unary minus [`parse`] accepts
/// (the wire codec's JSON limit). Real statements nest a few levels; the
/// limit bounds the parser's recursion on input it did not write.
pub const MAX_DEPTH: usize = 128;

/// Parses one SELECT statement.
pub fn parse(input: &str) -> Result<SelectStmt, ParseError> {
    Parser::run(input, Parser::select_stmt)
}

/// Parses one statement of any kind — SELECT, INSERT, UPDATE or DELETE —
/// keeping parameter placeholders.
pub fn parse_template(input: &str) -> Result<StatementTemplate, ParseError> {
    Parser::run(input, Parser::statement)
}

pub(crate) struct Parser {
    toks: Vec<SpannedToken>,
    pos: usize,
    /// Open nesting levels; never above [`MAX_DEPTH`].
    depth: usize,
    anon_params: usize,
    numbered_params: bool,
}

impl Parser {
    /// Lexes `input` and parses all of it as one `top` (an optional `;`
    /// may end it).
    fn run<T>(input: &str, top: fn(&mut Self) -> Result<T, ParseError>) -> Result<T, ParseError> {
        let toks = lex_spanned(input)?;
        let mut p = Parser { toks, pos: 0, depth: 0, anon_params: 0, numbered_params: false };
        let stmt = top(&mut p)?;
        p.eat_token(&Token::Semi);
        if p.pos < p.toks.len() {
            return Err(p.err(format!("trailing input at token {}", p.peek_str())));
        }
        Ok(stmt)
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.pos + off).map(|s| &s.tok)
    }

    fn peek_str(&self) -> String {
        self.peek().map(|t| t.to_string()).unwrap_or_else(|| "<eof>".into())
    }

    /// Consumes the current token if `f` maps it to a value.
    fn take<T>(&mut self, f: impl FnOnce(&Token) -> Option<T>) -> Option<T> {
        let v = self.peek().and_then(f)?;
        self.pos += 1;
        Some(v)
    }

    /// An error pointing at the *current* token (or just past the last one).
    fn err(&self, message: String) -> ParseError {
        let span = match self.toks.get(self.pos) {
            Some(s) => Some((s.start, s.end)),
            None => self.toks.last().map(|s| (s.end, s.end)),
        };
        ParseError { message, span }
    }

    /// `expected {what}, found {the current token}`.
    fn unexpected(&self, what: &str) -> ParseError {
        self.err(format!("expected {what}, found {}", self.peek_str()))
    }

    /// An error pointing at the token just consumed.
    fn err_prev(&self, message: String) -> ParseError {
        let span = self.toks.get(self.pos.saturating_sub(1)).map(|s| (s.start, s.end));
        ParseError { message, span }
    }

    /// Runs `inner` one nesting level down, refusing to pass [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        inner: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err_prev("nesting too deep".into()));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    /// `item (',' item)*`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = vec![item(self)?];
        while self.eat_token(&Token::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Consumes the given token if present.
    fn eat_token(&mut self, t: &Token) -> bool {
        self.take(|cur| (cur == t).then_some(())).is_some()
    }

    fn expect_token(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{t}'")))
        }
    }

    /// Consumes an identifier equal (case-insensitively) to `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        self.take(|t| matches!(t, Token::Ident(s) if s.eq_ignore_ascii_case(kw)).then_some(()))
            .is_some()
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        self.take(|t| match t {
            Token::Ident(s) => Some(s.clone()),
            _ => None,
        })
        .ok_or_else(|| self.unexpected("identifier"))
    }

    fn colname(&mut self) -> Result<ColName, ParseError> {
        let first = self.ident()?;
        if self.eat_token(&Token::Dot) {
            let column = self.ident()?;
            Ok(ColName { table: Some(first), column })
        } else {
            Ok(ColName { table: None, column: first })
        }
    }

    /// A write, or else a SELECT.
    fn statement(&mut self) -> Result<StatementTemplate, ParseError> {
        let write = match self.take(write_keyword) {
            None => return Ok(StatementTemplate::Select(self.select_stmt()?)),
            Some("insert") => {
                self.expect_kw("into")?;
                let table = self.ident()?;
                self.expect_kw("values")?;
                let rows = self.list(|p| {
                    p.expect_token(&Token::LParen)?;
                    let row = p.list(Self::arg)?;
                    p.expect_token(&Token::RParen)?;
                    Ok(row)
                })?;
                Write::Insert { table, rows }
            }
            Some("update") => {
                let table = self.ident()?;
                self.expect_kw("set")?;
                let assignments = self.list(|p| {
                    let col = p.ident()?;
                    p.expect_token(&Token::Eq)?;
                    Ok((col, p.arg()?))
                })?;
                Write::Update { table, assignments, row: self.where_rowid()? }
            }
            Some(_delete) => {
                self.expect_kw("from")?;
                let table = self.ident()?;
                Write::Delete { table, row: self.where_rowid()? }
            }
        };
        Ok(StatementTemplate::Write(write))
    }

    /// A write's literal slot: a number, a string, `NULL` or a placeholder.
    fn arg(&mut self) -> Result<Arg, ParseError> {
        if self.eat_kw("null") {
            return Ok(Arg::Value(Value::Null));
        }
        Ok(match self.scalar()? {
            Scalar::Int(v) => Arg::Value(Value::Int(v)),
            Scalar::Float(v) => Arg::Value(Value::Float(v)),
            Scalar::Str(s) => Arg::Value(Value::Str(s)),
            Scalar::Param(i) => Arg::Param(i),
        })
    }

    /// `WHERE rowid = n` (or a placeholder for `n`): a write addresses its
    /// row by array index, A-Store's primary key.
    fn where_rowid(&mut self) -> Result<Arg, ParseError> {
        self.expect_kw("where")?;
        if !self.eat_kw("rowid") {
            return Err(self.unexpected("rowid (writes address a row by its array index)"));
        }
        self.expect_token(&Token::Eq)?;
        match self.peek() {
            Some(&Token::Int(n)) if n <= u64::from(RowId::MAX) => {
                self.pos += 1;
                Ok(Arg::Value(Value::Int(n as i64)))
            }
            Some(&Token::Param(p)) => {
                self.pos += 1;
                Ok(Arg::Param(self.param_slot(p)?))
            }
            _ => Err(self.unexpected("row id")),
        }
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("select")?;
        let items = self.list(Self::select_item)?;
        self.expect_kw("from")?;
        let tables = self.list(Self::ident)?;
        let where_clause = if self.eat_kw("where") { Some(self.or_cond()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by = self.list(Self::colname)?;
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            order_by = self.list(|p| {
                let name = p.colname()?.column;
                let desc = p.eat_kw("desc");
                if !desc {
                    p.eat_kw("asc");
                }
                Ok(OrderItem { name, desc })
            })?;
        }
        let limit = if self.eat_kw("limit") {
            let n = self.take(|t| match t {
                Token::Int(n) => Some(*n as usize),
                _ => None,
            });
            Some(n.ok_or_else(|| self.unexpected("LIMIT count"))?)
        } else {
            None
        };
        Ok(SelectStmt { items, tables, where_clause, group_by, order_by, limit })
    }
    fn select_item(&mut self) -> Result<SelectItem, ParseError> {
        // Aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            let lower = name.to_ascii_lowercase();
            if AGG_FUNCS.contains(&lower.as_str()) && self.peek_at(1) == Some(&Token::LParen) {
                self.pos += 2; // func + '('
                let arg = if self.eat_token(&Token::Star) { None } else { Some(self.arith()?) };
                self.expect_token(&Token::RParen)?;
                let alias = self.alias()?;
                return Ok(SelectItem::Agg { func: lower, arg, alias });
            }
        }
        let col = self.colname()?;
        let alias = self.alias()?;
        Ok(SelectItem::Col { col, alias })
    }

    fn alias(&mut self) -> Result<Option<String>, ParseError> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        // Bare alias: an identifier that is not a clause keyword.
        if let Some(Token::Ident(s)) = self.peek() {
            let lower = s.to_ascii_lowercase();
            if !["from", "where", "group", "order", "limit", "and", "or", "asc", "desc", "by"]
                .contains(&lower.as_str())
            {
                let s = s.clone();
                self.pos += 1;
                return Ok(Some(s));
            }
        }
        Ok(None)
    }

    fn arith(&mut self) -> Result<Arith, ParseError> {
        let mut left = self.term()?;
        loop {
            if self.eat_token(&Token::Plus) {
                left = Arith::Add(Box::new(left), Box::new(self.term()?));
            } else if self.eat_token(&Token::Minus) {
                left = Arith::Sub(Box::new(left), Box::new(self.term()?));
            } else {
                return Ok(left);
            }
        }
    }

    fn term(&mut self) -> Result<Arith, ParseError> {
        let mut left = self.factor()?;
        while self.eat_token(&Token::Star) {
            left = Arith::Mul(Box::new(left), Box::new(self.factor()?));
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<Arith, ParseError> {
        match self.peek().cloned() {
            Some(Token::Int(v)) => {
                self.pos += 1;
                Ok(Arith::Num(v as f64))
            }
            Some(Token::Float(v)) => {
                self.pos += 1;
                Ok(Arith::Num(v))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(Arith::Sub(Box::new(Arith::Num(0.0)), Box::new(self.nested(Self::factor)?)))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.nested(Self::arith)?;
                self.expect_token(&Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(_)) => Ok(Arith::Col(self.colname()?)),
            Some(Token::Param(_)) => Err(self.err(
                "parameter placeholders are not allowed inside measure expressions \
                 (their values shape the plan)"
                    .into(),
            )),
            _ => Err(self.unexpected("expression")),
        }
    }

    fn or_cond(&mut self) -> Result<Cond, ParseError> {
        self.chain("or", Self::and_cond, Cond::Or)
    }

    fn and_cond(&mut self) -> Result<Cond, ParseError> {
        self.chain("and", Self::not_cond, Cond::And)
    }

    /// `item (kw item)*`, joined by `join` when there is more than one.
    fn chain(
        &mut self,
        kw: &str,
        item: fn(&mut Self) -> Result<Cond, ParseError>,
        join: fn(Vec<Cond>) -> Cond,
    ) -> Result<Cond, ParseError> {
        let mut parts = vec![item(self)?];
        while self.eat_kw(kw) {
            parts.push(item(self)?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { join(parts) })
    }

    fn not_cond(&mut self) -> Result<Cond, ParseError> {
        if self.eat_kw("not") {
            return Ok(Cond::Not(Box::new(self.nested(Self::not_cond)?)));
        }
        if self.eat_token(&Token::LParen) {
            let c = self.nested(Self::or_cond)?;
            self.expect_token(&Token::RParen)?;
            return Ok(c);
        }
        let col = self.colname()?;
        if self.eat_kw("between") {
            let lo = self.scalar()?;
            self.expect_kw("and")?;
            let hi = self.scalar()?;
            return Ok(Cond::Between { col, lo, hi });
        }
        if self.eat_kw("in") {
            self.expect_token(&Token::LParen)?;
            let list = self.list(Self::scalar)?;
            self.expect_token(&Token::RParen)?;
            return Ok(Cond::InList { col, list });
        }
        let op = self.take(|t| match t {
            Token::Eq => Some(CmpOp::Eq),
            Token::Ne => Some(CmpOp::Ne),
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            _ => None,
        });
        let op = op.ok_or_else(|| self.unexpected("comparison operator"))?;
        // RHS: literal, placeholder, or column (join condition).
        if !matches!(self.peek(), Some(Token::Ident(_))) {
            return Ok(Cond::Cmp { col, op, rhs: self.scalar()? });
        }
        if op != CmpOp::Eq {
            return Err(self.err("only equality joins are supported between columns".into()));
        }
        Ok(Cond::JoinEq(col, self.colname()?))
    }

    /// A number (optionally negated), a string, or a placeholder.
    fn scalar(&mut self) -> Result<Scalar, ParseError> {
        let neg = self.eat_token(&Token::Minus);
        let scalar = match self.peek() {
            Some(&Token::Int(v)) => {
                let n = if neg { 0i64.checked_sub_unsigned(v) } else { i64::try_from(v).ok() };
                Scalar::Int(n.ok_or_else(|| self.err("integer literal out of range".into()))?)
            }
            Some(&Token::Float(v)) => Scalar::Float(if neg { -v } else { v }),
            Some(Token::Str(s)) if !neg => Scalar::Str(s.clone()),
            Some(&Token::Param(p)) if !neg => {
                self.pos += 1;
                return Ok(Scalar::Param(self.param_slot(p)?));
            }
            _ if neg => return Err(self.unexpected("number after '-'")),
            _ => return Err(self.unexpected("literal")),
        };
        self.pos += 1;
        Ok(scalar)
    }

    /// Resolves the placeholder token just consumed to a 0-based slot: `?`
    /// takes the next sequential slot, `$n` names slot `n-1` explicitly.
    /// The two styles cannot mix (their numberings would silently alias),
    /// and slots are capped at `u16::MAX` — the width of `Lit::Param` — so
    /// a hostile `$4000000000` cannot request a giant parameter table.
    fn param_slot(&mut self, p: Option<u32>) -> Result<usize, ParseError> {
        const MAX_SLOTS: usize = u16::MAX as usize + 1;
        if (p.is_some() && self.anon_params > 0) || (p.is_none() && self.numbered_params) {
            return Err(self.err_prev(
                "cannot mix ? and $n placeholders in one statement (their numberings would \
                 alias); use one style"
                    .into(),
            ));
        }
        let slot = match p {
            Some(n) => (n - 1) as usize,
            None => self.anon_params,
        };
        if slot >= MAX_SLOTS {
            return Err(self.err_prev(match p {
                Some(n) => format!("parameter ${n} exceeds the maximum of ${MAX_SLOTS}"),
                None => format!("statement exceeds the maximum of {MAX_SLOTS} parameters"),
            }));
        }
        match p {
            Some(_) => self.numbered_params = true,
            None => self.anon_params += 1,
        }
        Ok(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_q1() {
        let stmt = parse(
            "SELECT c_nation, s_nation, d_year, sum(lo_revenue) as revenue \
             FROM customer, lineorder, supplier, date \
             WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey \
               AND lo_orderdate = d_datekey AND c_region = 'ASIA' \
               AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997 \
             GROUP BY c_nation, s_nation, d_year \
             ORDER BY d_year asc, revenue desc;",
        )
        .unwrap();
        assert_eq!(stmt.items.len(), 4);
        assert_eq!(stmt.tables, vec!["customer", "lineorder", "supplier", "date"]);
        let conds = stmt.where_clause.unwrap().conjuncts();
        assert_eq!(conds.len(), 7);
        assert_eq!(conds.iter().filter(|c| matches!(c, Cond::JoinEq(..))).count(), 3);
        assert_eq!(stmt.group_by.len(), 3);
        assert_eq!(stmt.order_by.len(), 2);
        assert!(!stmt.order_by[0].desc);
        assert!(stmt.order_by[1].desc);
    }

    #[test]
    fn parses_count_star_and_limit() {
        let stmt = parse("SELECT count(*) FROM lineorder LIMIT 10").unwrap();
        assert_eq!(
            stmt.items,
            vec![SelectItem::Agg { func: "count".into(), arg: None, alias: None }]
        );
        assert_eq!(stmt.limit, Some(10));
    }

    #[test]
    fn parses_measure_arithmetic() {
        let stmt =
            parse("SELECT sum(l_extendedprice * (1 - l_discount)) AS rev FROM lineitem").unwrap();
        let SelectItem::Agg { func, arg, alias } = &stmt.items[0] else { panic!() };
        assert_eq!(func, "sum");
        assert_eq!(alias.as_deref(), Some("rev"));
        assert!(matches!(arg, Some(Arith::Mul(..))));
    }

    #[test]
    fn parses_between_in_or() {
        let stmt = parse(
            "SELECT count(*) FROM t WHERE a BETWEEN 1 AND 3 \
             AND b IN ('x', 'y') AND (c = 1 OR c = 2) AND NOT d = 5",
        )
        .unwrap();
        let conds = stmt.where_clause.unwrap().conjuncts();
        assert_eq!(conds.len(), 4);
        assert!(matches!(conds[0], Cond::Between { .. }));
        assert!(matches!(conds[1], Cond::InList { .. }));
        assert!(matches!(conds[2], Cond::Or(_)));
        assert!(matches!(conds[3], Cond::Not(_)));
    }

    #[test]
    fn anonymous_placeholders_number_sequentially() {
        let stmt =
            parse("SELECT count(*) FROM t WHERE a = ? AND b BETWEEN ? AND ? AND c IN (?, ?)")
                .unwrap();
        assert_eq!(stmt.param_count(), 5);
        let conds = stmt.where_clause.unwrap().conjuncts();
        assert_eq!(
            conds[1],
            Cond::Between {
                col: ColName { table: None, column: "b".into() },
                lo: Scalar::Param(1),
                hi: Scalar::Param(2),
            }
        );
    }

    #[test]
    fn numbered_placeholders_may_repeat() {
        let stmt = parse("SELECT count(*) FROM t WHERE a >= $1 AND b <= $1 AND c = $2").unwrap();
        assert_eq!(stmt.param_count(), 2);
        let conds = stmt.where_clause.unwrap().conjuncts();
        assert!(matches!(&conds[0], Cond::Cmp { rhs: Scalar::Param(0), .. }));
        assert!(matches!(&conds[1], Cond::Cmp { rhs: Scalar::Param(0), .. }));
        assert!(matches!(&conds[2], Cond::Cmp { rhs: Scalar::Param(1), .. }));
    }

    #[test]
    fn placeholders_rejected_in_measures_and_limit() {
        assert!(parse("SELECT sum(x * ?) FROM t").is_err());
        assert!(parse("SELECT count(*) FROM t LIMIT ?").is_err());
    }

    #[test]
    fn qualified_columns() {
        let stmt = parse("SELECT t.a FROM t WHERE t.b = 1").unwrap();
        let SelectItem::Col { col, .. } = &stmt.items[0] else { panic!() };
        assert_eq!(col.table.as_deref(), Some("t"));
    }

    #[test]
    fn negative_literals() {
        let stmt = parse("SELECT count(*) FROM t WHERE a >= -5 AND b BETWEEN -2.5 AND 0").unwrap();
        let conds = stmt.where_clause.unwrap().conjuncts();
        assert_eq!(
            conds[0],
            Cond::Cmp {
                col: ColName { table: None, column: "a".into() },
                op: CmpOp::Ge,
                rhs: Scalar::Int(-5)
            }
        );
    }

    #[test]
    fn the_first_token_says_what_parses() {
        for sql in [
            "INSERT INTO t VALUES (1)",
            "-- note\nupdate t SET v = 1 WHERE rowid = 0",
            "Delete FROM t WHERE rowid = 2",
            "SELECT v FROM t",
        ] {
            let first = crate::lexer::tokens(sql).next().unwrap().unwrap();
            assert_eq!(opens_write(&first.tok), !parse_template(sql).unwrap().is_select(), "{sql}");
        }
        assert!(!opens_write(&Token::Str("insert".into())), "a string is no keyword");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t extra garbage here").is_err());
        assert!(parse("SELECT a, FROM t").is_err());
        assert!(parse("SELECT count(*) FROM t WHERE a < b").is_err());
    }

    #[test]
    fn errors_carry_spans() {
        let src = "SELECT count(*) FROM t WHERE a = ";
        let e = parse(src).unwrap_err();
        assert!(e.span.is_some(), "{e:?}");
        let src = "SELEKT count(*) FROM t";
        let e = parse(src).unwrap_err();
        let (start, end) = e.span.unwrap();
        assert_eq!(&src[start..end], "SELEKT");
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, inner: &str, close: &str, d: usize| {
            format!("{}{inner}{}", open.repeat(d), close.repeat(d))
        };
        let shapes = [
            ("SELECT count(*) FROM t WHERE ", "(", "a = 1", ")"),
            ("SELECT count(*) FROM t WHERE ", "NOT ", "a = 1", ""),
            ("SELECT sum(", "(", "x", ")"),
            ("SELECT sum(", "- ", "x", ""),
        ];
        for (prefix, open, inner, close) in shapes {
            let sql = |d| {
                let tail = if prefix.ends_with('(') { ") FROM t" } else { "" };
                format!("{prefix}{}{tail}", nest(open, inner, close, d))
            };
            assert!(parse(&sql(MAX_DEPTH)).is_ok(), "{open:?} at the cap");
            let e = parse(&sql(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(e.message, "nesting too deep", "{open:?}");
            // The span is the opener one past the cap.
            let at = prefix.len() + MAX_DEPTH * open.len();
            assert_eq!(e.span.unwrap().0, at, "{open:?}");
            assert!(parse(&sql(20 * MAX_DEPTH)).is_err(), "{open:?} far past the cap");
        }
        // Siblings do not add up: depth is what is open, not what was seen.
        let wide = vec!["(a = 1)"; 1000].join(" AND ");
        assert!(parse(&format!("SELECT count(*) FROM t WHERE ({wide})")).is_ok());
    }

    #[test]
    fn bare_alias() {
        let stmt = parse("SELECT sum(x) total FROM t").unwrap();
        let SelectItem::Agg { alias, .. } = &stmt.items[0] else { panic!() };
        assert_eq!(alias.as_deref(), Some("total"));
    }
}
