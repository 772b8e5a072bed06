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
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let push = |tok: Token, start: usize, end: usize, out: &mut Vec<SpannedToken>| {
        out.push(SpannedToken { tok, start, end });
    };
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                i += 1;
                push(Token::LParen, start, i, &mut out);
            }
            ')' => {
                i += 1;
                push(Token::RParen, start, i, &mut out);
            }
            ',' => {
                i += 1;
                push(Token::Comma, start, i, &mut out);
            }
            '.' => {
                i += 1;
                push(Token::Dot, start, i, &mut out);
            }
            '*' => {
                i += 1;
                push(Token::Star, start, i, &mut out);
            }
            '+' => {
                i += 1;
                push(Token::Plus, start, i, &mut out);
            }
            '/' => {
                i += 1;
                push(Token::Slash, start, i, &mut out);
            }
            ';' => {
                i += 1;
                push(Token::Semi, start, i, &mut out);
            }
            '=' => {
                i += 1;
                push(Token::Eq, start, i, &mut out);
            }
            '?' => {
                i += 1;
                push(Token::Param(None), start, i, &mut out);
            }
            '$' => {
                i += 1;
                let digits = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: u32 = input[digits..i].parse().map_err(|_| LexError {
                    pos: start,
                    message: "expected a parameter number after '$' (e.g. $1)".into(),
                })?;
                if n == 0 {
                    return Err(LexError {
                        pos: start,
                        message: "parameter numbers start at $1".into(),
                    });
                }
                push(Token::Param(Some(n)), start, i, &mut out);
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    push(Token::Ne, start, i, &mut out);
                } else {
                    return Err(LexError { pos: i, message: "expected '=' after '!'".into() });
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    i += 2;
                    push(Token::Le, start, i, &mut out);
                }
                Some(&b'>') => {
                    i += 2;
                    push(Token::Ne, start, i, &mut out);
                }
                _ => {
                    i += 1;
                    push(Token::Lt, start, i, &mut out);
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    i += 2;
                    push(Token::Ge, start, i, &mut out);
                } else {
                    i += 1;
                    push(Token::Gt, start, i, &mut out);
                }
            }
            '-' => {
                // `--` starts a comment to end of line.
                if bytes.get(i + 1) == Some(&b'-') {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    i += 1;
                    push(Token::Minus, start, i, &mut out);
                }
            }
            '\'' => {
                // Copied a run at a time, so multi-byte characters stay whole.
                let mut s = String::new();
                i += 1;
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
                push(Token::Str(s), start, i, &mut out);
            }
            '0'..='9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                {
                    is_float = true;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let text = &input[start..i];
                if is_float {
                    let v = text.parse().map_err(|_| LexError {
                        pos: start,
                        message: format!("bad float literal {text:?}"),
                    })?;
                    push(Token::Float(v), start, i, &mut out);
                } else {
                    let v = text.parse().map_err(|_| LexError {
                        pos: start,
                        message: format!("bad integer literal {text:?}"),
                    })?;
                    push(Token::Int(v), start, i, &mut out);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                push(Token::Ident(input[start..i].to_owned()), start, i, &mut out);
            }
            _ => {
                let other = input[i..].chars().next().expect("i is inside the input");
                return Err(LexError {
                    pos: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(out)
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
