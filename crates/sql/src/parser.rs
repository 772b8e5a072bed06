//! Recursive-descent parser for the SPJGA SQL subset.
//!
//! Supported grammar (keywords case-insensitive):
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
//! Nesting — parentheses, `NOT` and unary minus, counted together — deeper
//! than [`MAX_DEPTH`] is an error, not recursion: a statement of
//! `((((…` costs a counter, not the thread's stack.

use astore_core::expr::CmpOp;

use crate::ast::{Arith, ColName, Cond, OrderItem, Scalar, SelectItem, SelectStmt};
use crate::lexer::{lex_spanned, LexError, SpannedToken, Token};

/// A parse error, with the byte span of the offending token when known.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// Byte range in the source text the error points at, if known.
    pub span: Option<(usize, usize)>,
}

impl ParseError {
    /// An error without position information.
    pub fn new(message: impl Into<String>) -> Self {
        ParseError { message: message.into(), span: None }
    }
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

/// Deepest nesting of parentheses, `NOT` and unary minus [`parse`] accepts
/// (the wire codec's JSON limit). Real statements nest a few levels; the
/// limit bounds the parser's recursion on input it did not write.
pub const MAX_DEPTH: usize = 128;

/// Parses one SELECT statement.
pub fn parse(input: &str) -> Result<SelectStmt, ParseError> {
    let toks = lex_spanned(input)?;
    let mut p = Parser { toks, pos: 0, depth: 0, anon_params: 0, numbered_params: false };
    let stmt = p.select_stmt()?;
    p.eat_token(&Token::Semi);
    if !p.at_end() {
        return Err(p.err(format!("trailing input at token {}", p.peek_str())));
    }
    Ok(stmt)
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
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
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

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// An error pointing at the *current* token (or just past the last one).
    fn err(&self, message: String) -> ParseError {
        let span = match self.toks.get(self.pos) {
            Some(s) => Some((s.start, s.end)),
            None => self.toks.last().map(|s| (s.end, s.end + 1)),
        };
        ParseError { message, span }
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

    /// Consumes the given token if present.
    fn eat_token(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_token(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat_token(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {}", self.peek_str())))
        }
    }

    /// Consumes an identifier equal (case-insensitively) to `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected keyword {kw}, found {}", self.peek_str())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err_prev(format!("expected identifier, found {other:?}"))),
        }
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

    fn select_stmt(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat_token(&Token::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut tables = vec![self.ident()?];
        while self.eat_token(&Token::Comma) {
            tables.push(self.ident()?);
        }
        let where_clause = if self.eat_kw("where") { Some(self.or_cond()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.colname()?);
            while self.eat_token(&Token::Comma) {
                group_by.push(self.colname()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let col = self.colname()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { name: col.column, desc });
                if !self.eat_token(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(self.err_prev(format!("expected LIMIT count, found {other:?}")))
                }
            }
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
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn or_cond(&mut self) -> Result<Cond, ParseError> {
        let mut parts = vec![self.and_cond()?];
        while self.eat_kw("or") {
            parts.push(self.and_cond()?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { Cond::Or(parts) })
    }

    fn and_cond(&mut self) -> Result<Cond, ParseError> {
        let mut parts = vec![self.not_cond()?];
        while self.eat_kw("and") {
            parts.push(self.not_cond()?);
        }
        Ok(if parts.len() == 1 { parts.pop().unwrap() } else { Cond::And(parts) })
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
        // BETWEEN
        if self.eat_kw("between") {
            let lo = self.scalar()?;
            self.expect_kw("and")?;
            let hi = self.scalar()?;
            return Ok(Cond::Between { col, lo, hi });
        }
        // [NOT] IN
        if self.peek_kw("in") {
            self.pos += 1;
            self.expect_token(&Token::LParen)?;
            let mut list = vec![self.scalar()?];
            while self.eat_token(&Token::Comma) {
                list.push(self.scalar()?);
            }
            self.expect_token(&Token::RParen)?;
            return Ok(Cond::InList { col, list });
        }
        // Comparison.
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(self.err_prev(format!("expected comparison operator, found {other:?}")))
            }
        };
        // RHS: literal, placeholder, or column (join condition).
        match self.peek().cloned() {
            Some(Token::Ident(_)) => {
                let rhs = self.colname()?;
                if op != CmpOp::Eq {
                    return Err(ParseError::new(
                        "only equality joins are supported between columns",
                    ));
                }
                Ok(Cond::JoinEq(col, rhs))
            }
            _ => Ok(Cond::Cmp { col, op, rhs: self.scalar()? }),
        }
    }

    fn scalar(&mut self) -> Result<Scalar, ParseError> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Scalar::Int(v)),
            Some(Token::Float(v)) => Ok(Scalar::Float(v)),
            Some(Token::Str(s)) => Ok(Scalar::Str(s)),
            Some(Token::Param(p)) => Ok(Scalar::Param(self.param_slot(p)?)),
            Some(Token::Minus) => match self.next() {
                Some(Token::Int(v)) => Ok(Scalar::Int(-v)),
                Some(Token::Float(v)) => Ok(Scalar::Float(-v)),
                other => Err(self.err_prev(format!("expected number after '-', found {other:?}"))),
            },
            other => Err(self.err_prev(format!("expected literal, found {other:?}"))),
        }
    }

    /// Resolves a placeholder token to a 0-based slot: `?` takes the next
    /// sequential slot, `$n` names slot `n-1` explicitly. The two styles
    /// cannot mix (their numberings would silently alias), and slots are
    /// capped at `u16::MAX` — the width of `Lit::Param` — so a hostile
    /// `$4000000000` cannot request a giant parameter table.
    fn param_slot(&mut self, p: Option<u32>) -> Result<usize, ParseError> {
        resolve_param_slot(p, &mut self.anon_params, &mut self.numbered_params)
            .map_err(|m| self.err_prev(m))
    }
}

/// Shared `?`/`$n` slot resolution (also used by the write-statement
/// cursor). Errors are returned as bare messages for the caller to span.
pub(crate) fn resolve_param_slot(
    p: Option<u32>,
    anon_count: &mut usize,
    saw_numbered: &mut bool,
) -> Result<usize, String> {
    const MAX_SLOTS: usize = u16::MAX as usize + 1;
    match p {
        Some(n) => {
            if *anon_count > 0 {
                return Err("cannot mix ? and $n placeholders in one statement (their numberings \
                     would alias); use one style"
                    .into());
            }
            *saw_numbered = true;
            let slot = (n - 1) as usize;
            if slot >= MAX_SLOTS {
                return Err(format!("parameter ${n} exceeds the maximum of ${MAX_SLOTS}"));
            }
            Ok(slot)
        }
        None => {
            if *saw_numbered {
                return Err("cannot mix ? and $n placeholders in one statement (their numberings \
                     would alias); use one style"
                    .into());
            }
            let slot = *anon_count;
            if slot >= MAX_SLOTS {
                return Err(format!("statement exceeds the maximum of {MAX_SLOTS} parameters"));
            }
            *anon_count += 1;
            Ok(slot)
        }
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
