//! Seeded property tests for the SQL front-end: lexer round-trips and
//! parser robustness (no panics on arbitrary input, structural round-trips
//! on generated well-formed queries). Every property runs [`CASES`] cases
//! on each seed of [`SEEDS`].

use astore_sql::lexer::{lex_spanned, LexError, Token};
use astore_sql::parser::{parse, MAX_DEPTH};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn lex(input: &str) -> Result<Vec<Token>, LexError> {
    Ok(lex_spanned(input)?.into_iter().map(|s| s.tok).collect())
}

const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
const CASES: usize = 32;

/// Runs `property` on [`CASES`] cases per seed, each with its own
/// generator.
fn check(name: &str, mut property: impl FnMut(&mut SmallRng, &str)) {
    for seed in SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        for case in 0..CASES {
            property(&mut rng, &format!("{name}: seed {seed} case {case}"));
        }
    }
}

/// A string of `len` characters drawn from `alphabet`.
fn string(rng: &mut SmallRng, alphabet: &[u8], len: std::ops::RangeInclusive<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n).map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())])).collect()
}

const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
const DIGITS: &[u8] = b"0123456789";

/// Printable ASCII, `[ -~]`.
fn printable() -> Vec<u8> {
    (b' '..=b'~').collect()
}

/// A token whose display form re-lexes unambiguously when space-separated.
fn token(rng: &mut SmallRng) -> Token {
    match rng.gen_range(0..13) {
        0 => {
            let head = string(rng, &[LETTERS, b"_"].concat(), 1..=1);
            Token::Ident(head + &string(rng, &[LETTERS, DIGITS, b"_"].concat(), 0..=10))
        }
        1 => Token::Int(rng.gen_range(0..1_000_000u64)),
        2 => Token::Str(string(rng, b"abcdefghijklmnopqrstuvwxyz ", 0..=10)),
        3 => Token::LParen,
        4 => Token::RParen,
        5 => Token::Comma,
        6 => Token::Star,
        7 => Token::Plus,
        8 => Token::Eq,
        9 => Token::Ne,
        10 => Token::Le,
        11 => Token::Ge,
        _ => Token::Semi,
    }
}

/// Rendering a token stream and re-lexing it yields the same stream
/// (tokens are context-free).
#[test]
fn lexer_roundtrip() {
    check("lexer_roundtrip", |rng, ctx| {
        let n = rng.gen_range(0..40usize);
        let tokens: Vec<Token> = (0..n).map(|_| token(rng)).collect();
        let text: String = tokens.iter().map(|t| format!("{t} ")).collect();
        let relexed = lex(&text).unwrap_or_else(|e| panic!("{ctx}: {text:?} does not lex: {e}"));
        assert_eq!(relexed, tokens, "{ctx}: {text:?}");
    });
}

/// The lexer never panics on arbitrary ASCII input.
#[test]
fn lexer_never_panics() {
    let alphabet = printable();
    check("lexer_never_panics", |rng, _| {
        let _ = lex(&string(rng, &alphabet, 0..=200));
    });
}

/// The parser never panics on arbitrary token-ish input, nor on nesting
/// far past [`MAX_DEPTH`]: parentheses mixed with `NOT` in a condition, and
/// with unary minus in a measure.
#[test]
fn parser_never_panics() {
    let alphabet: Vec<u8> = [LETTERS, DIGITS, b"_'(),.*<>=! "].concat();
    check("parser_never_panics", |rng, _| {
        let _ = parse(&string(rng, &alphabet, 0..=200));
        let depth = rng.gen_range(0..=40 * MAX_DEPTH);
        let mut nest = |unary: &str| -> (String, String) {
            let open: String =
                (0..depth).map(|_| if rng.gen_bool(0.5) { "(" } else { unary }).collect();
            let close = ")".repeat(open.matches('(').count());
            (open, close)
        };
        let (open, close) = nest("NOT ");
        let _ = parse(&format!("SELECT count(*) FROM t WHERE {open}a = 1{close}"));
        let (open, close) = nest("- ");
        let _ = parse(&format!("SELECT sum({open}x{close}) FROM t"));
    });
}

/// Generated well-formed SPJGA queries always parse, and the parse
/// captures the right clause counts.
#[test]
fn wellformed_queries_parse() {
    check("wellformed_queries_parse", |rng, ctx| {
        let n_aggs = rng.gen_range(1..4usize);
        let n_tables = rng.gen_range(1..4usize);
        let n_preds = rng.gen_range(0..4usize);
        let n_groups = rng.gen_range(0..3usize);
        let limit = rng.gen_bool(0.5).then(|| rng.gen_range(0..1000usize));
        let aggs: Vec<String> = (0..n_aggs).map(|i| format!("sum(m{i}) AS a{i}")).collect();
        let tables: Vec<String> = (0..n_tables).map(|i| format!("t{i}")).collect();
        let preds: Vec<String> = (0..n_preds).map(|i| format!("c{i} >= {i}")).collect();
        let groups: Vec<String> = (0..n_groups).map(|i| format!("g{i}")).collect();

        let mut sql = format!(
            "SELECT {}{}{} FROM {}",
            groups.join(", "),
            if groups.is_empty() { "" } else { ", " },
            aggs.join(", "),
            tables.join(", "),
        );
        if !preds.is_empty() {
            sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if !groups.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", groups.join(", ")));
        }
        if let Some(n) = limit {
            sql.push_str(&format!(" LIMIT {n}"));
        }

        let stmt = parse(&sql).unwrap_or_else(|e| panic!("{ctx}: {sql} does not parse: {e}"));
        assert_eq!(stmt.items.len(), n_aggs + n_groups, "{ctx}: {sql}");
        assert_eq!(stmt.tables.len(), n_tables, "{ctx}: {sql}");
        assert_eq!(stmt.group_by.len(), n_groups, "{ctx}: {sql}");
        assert_eq!(stmt.limit, limit, "{ctx}: {sql}");
        match stmt.where_clause {
            None => assert_eq!(n_preds, 0, "{ctx}: {sql}"),
            Some(w) => assert_eq!(w.conjuncts().len(), n_preds, "{ctx}: {sql}"),
        }
    });
}

/// String literals survive the lexer including escaped quotes.
#[test]
fn string_literal_roundtrip() {
    let alphabet: Vec<u8> = [LETTERS, b" '.#-"].concat();
    check("string_literal_roundtrip", |rng, ctx| {
        let content = string(rng, &alphabet, 0..=30);
        let escaped = content.replace('\'', "''");
        let toks = lex(&format!("'{escaped}'")).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(toks, vec![Token::Str(content)], "{ctx}");
    });
}
