//! A hand-written lexer for the SPJGA SQL subset.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Identifier or keyword (keywords are matched case-insensitively by
    /// the parser).
    Ident(String),
    /// Integer literal: its magnitude, so that `-9223372036854775808`
    /// (`i64::MIN`) is a literal too. The parser range-checks it.
    Int(u64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// A parameter placeholder: `?` (positional, `None`) or `$n`
    /// (explicit 1-based position, `Some(n)`).
    Param(Option<u32>),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Float(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Token::Param(None) => write!(f, "?"),
            Token::Param(Some(n)) => write!(f, "${n}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Semi => write!(f, ";"),
        }
    }
}

/// A token together with its byte span in the source text — the raw
/// material for caret diagnostics in parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub tok: Token,
    /// Byte offset of the token's first character.
    pub start: usize,
    /// Byte offset one past the token's last character.
    pub end: usize,
}

/// A lexing error with byte position.
#[derive(Debug, Clone, PartialEq)]
pub struct LexError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes a SQL string, keeping each token's byte span.
pub fn lex_spanned(input: &str) -> Result<Vec<SpannedToken>, LexError> {
    tokens(input).collect()
}

/// The tokens of a SQL string, lexed one at a time as they are asked for:
/// a caller that needs only the first token lexes only that one.
pub fn tokens(input: &str) -> Tokens<'_> {
    Tokens { input, pos: 0 }
}

/// An iterator over the spanned tokens of a SQL string ([`tokens`]). It
/// skips whitespace and `--` comments — the only place these rules live —
/// and ends after the first error.
#[derive(Debug)]
pub struct Tokens<'a> {
    input: &'a str,
    /// Byte offset of the first character not yet lexed.
    pos: usize,
}

impl Iterator for Tokens<'_> {
    type Item = Result<SpannedToken, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let next = self.lex().transpose();
        if matches!(next, Some(Err(_))) {
            self.pos = self.input.len();
        }
        next
    }
}

impl Tokens<'_> {
    /// Lexes the token at or after `pos`; `None` at the end of the input.
    fn lex(&mut self) -> Result<Option<SpannedToken>, LexError> {
        let (input, bytes) = (self.input, self.input.as_bytes());
        let mut start = self.pos;
        loop {
            match bytes.get(start) {
                None => return Ok(None),
                Some(b' ' | b'\t' | b'\r' | b'\n') => start += 1,
                // `--` starts a comment to end of line.
                Some(b'-') if bytes.get(start + 1) == Some(&b'-') => {
                    while start < bytes.len() && bytes[start] != b'\n' {
                        start += 1;
                    }
                }
                Some(_) => break,
            }
        }
        let next = bytes.get(start + 1).copied();
        // The end of the run of bytes from `from` that `f` accepts.
        let run = |from: usize, f: fn(&u8) -> bool| {
            from + bytes[from..].iter().take_while(|b| f(b)).count()
        };
        let (tok, end) = match bytes[start] {
            b'(' => (Token::LParen, start + 1),
            b')' => (Token::RParen, start + 1),
            b',' => (Token::Comma, start + 1),
            b'.' => (Token::Dot, start + 1),
            b'*' => (Token::Star, start + 1),
            b'+' => (Token::Plus, start + 1),
            b'-' => (Token::Minus, start + 1),
            b'/' => (Token::Slash, start + 1),
            b';' => (Token::Semi, start + 1),
            b'=' => (Token::Eq, start + 1),
            b'?' => (Token::Param(None), start + 1),
            b'!' if next == Some(b'=') => (Token::Ne, start + 2),
            b'!' => return Err(LexError { pos: start, message: "expected '=' after '!'".into() }),
            b'<' if next == Some(b'=') => (Token::Le, start + 2),
            b'<' if next == Some(b'>') => (Token::Ne, start + 2),
            b'<' => (Token::Lt, start + 1),
            b'>' if next == Some(b'=') => (Token::Ge, start + 2),
            b'>' => (Token::Gt, start + 1),
            b'$' => {
                let end = run(start + 1, u8::is_ascii_digit);
                let n: u32 = input[start + 1..end].parse().map_err(|_| LexError {
                    pos: start,
                    message: "expected a parameter number after '$' (e.g. $1)".into(),
                })?;
                if n == 0 {
                    return Err(LexError {
                        pos: start,
                        message: "parameter numbers start at $1".into(),
                    });
                }
                (Token::Param(Some(n)), end)
            }
            b'\'' => {
                // Copied a run at a time, so multi-byte characters stay whole.
                let mut s = String::new();
                let mut i = start + 1;
                loop {
                    let Some(q) = input[i..].find('\'') else {
                        return Err(LexError {
                            pos: start,
                            message: "unterminated string literal".into(),
                        });
                    };
                    s.push_str(&input[i..i + q]);
                    i += q + 1;
                    if bytes.get(i) != Some(&b'\'') {
                        break;
                    }
                    s.push('\'');
                    i += 1;
                }
                (Token::Str(s), i)
            }
            b'0'..=b'9' => {
                let mut end = run(start, u8::is_ascii_digit);
                let is_float = bytes.get(end) == Some(&b'.')
                    && bytes.get(end + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    end = run(end + 1, u8::is_ascii_digit);
                }
                let text = &input[start..end];
                let bad = |kind: &str| LexError {
                    pos: start,
                    message: format!("bad {kind} literal {text:?}"),
                };
                let tok = if is_float {
                    Token::Float(text.parse().map_err(|_| bad("float"))?)
                } else {
                    Token::Int(text.parse().map_err(|_| bad("integer"))?)
                };
                (tok, end)
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let end = run(start, |b| b.is_ascii_alphanumeric() || *b == b'_');
                (Token::Ident(input[start..end].to_owned()), end)
            }
            _ => {
                let other = input[start..].chars().next().expect("start is inside the input");
                return Err(LexError {
                    pos: start,
                    message: format!("unexpected character {other:?}"),
                });
            }
        };
        self.pos = end;
        Ok(Some(SpannedToken { tok, start, end }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(input: &str) -> Result<Vec<Token>, LexError> {
        Ok(lex_spanned(input)?.into_iter().map(|s| s.tok).collect())
    }

    #[test]
    fn lexes_a_full_query() {
        let toks = lex("SELECT sum(lo_revenue) FROM lineorder WHERE d_year >= 1992;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Int(1992)));
        assert_eq!(*toks.last().unwrap(), Token::Semi);
    }

    #[test]
    fn operators() {
        let toks = lex("= <> != < <= > >= + - * / ( ) , .").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Eq,
                Token::Ne,
                Token::Ne,
                Token::Lt,
                Token::Le,
                Token::Gt,
                Token::Ge,
                Token::Plus,
                Token::Minus,
                Token::Star,
                Token::Slash,
                Token::LParen,
                Token::RParen,
                Token::Comma,
                Token::Dot,
            ]
        );
    }

    #[test]
    fn string_literals_and_escapes() {
        let toks = lex("'ASIA' 'O''NEIL' 'Zürich'").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Str("ASIA".into()),
                Token::Str("O'NEIL".into()),
                Token::Str("Zürich".into())
            ]
        );
    }

    #[test]
    fn numbers() {
        let toks = lex("42 3.25 199401").unwrap();
        assert_eq!(toks, vec![Token::Int(42), Token::Float(3.25), Token::Int(199401)]);
    }

    #[test]
    fn placeholders() {
        let toks = lex("WHERE a = ? AND b = $2").unwrap();
        assert!(toks.contains(&Token::Param(None)));
        assert!(toks.contains(&Token::Param(Some(2))));
        assert!(lex("$").is_err(), "bare dollar needs a number");
        assert!(lex("$0").is_err(), "parameters are 1-based");
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT -- the works\n 1").unwrap();
        assert_eq!(toks, vec![Token::Ident("SELECT".into()), Token::Int(1)]);
    }

    #[test]
    fn tokens_lex_on_demand_and_stop_at_an_error() {
        let first = tokens("\n  -- c\n update t set v = 1 'open").next().unwrap().unwrap();
        assert_eq!((first.tok, first.start), (Token::Ident("update".into()), 9));
        let mut toks = tokens("a 'open b");
        assert!(matches!(toks.next(), Some(Ok(_))));
        assert!(matches!(toks.next(), Some(Err(_))));
        assert!(toks.next().is_none(), "nothing after the error");
        assert!(tokens(" -- only a comment").next().is_none());
    }

    #[test]
    fn spans_cover_the_source() {
        let src = "SELECT 'it''s' >= 42";
        let toks = lex_spanned(src).unwrap();
        assert_eq!(&src[toks[0].start..toks[0].end], "SELECT");
        assert_eq!(&src[toks[1].start..toks[1].end], "'it''s'");
        assert_eq!(&src[toks[2].start..toks[2].end], ">=");
        assert_eq!(&src[toks[3].start..toks[3].end], "42");
    }

    #[test]
    fn string_display_reescapes_quotes() {
        assert_eq!(Token::Str("O'NEIL".into()).to_string(), "'O''NEIL'");
    }

    #[test]
    fn errors() {
        assert!(lex("'unterminated").is_err());
        assert!(lex("a ! b").is_err());
        assert!(lex("#").is_err());
        let e = lex("a = 'open").unwrap_err();
        assert_eq!(e.pos, 4, "an unterminated string points at its quote");
        let e = lex("a = é").unwrap_err();
        assert_eq!(e.message, "unexpected character 'é'");
    }
}
