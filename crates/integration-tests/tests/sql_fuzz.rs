//! Seeded fuzz of the SQL front-end (`astore_sql::parse_template`), a
//! parser of untrusted bytes: statement text arrives in `{"sql":…}` and
//! `{"prepare":…}` frames, and WAL replay parses every record it reads.
//!
//! Inputs are the 13 SSB queries and the write shapes `wal_replay_shapes`
//! drives (literal, mixed-case and parameterized `INSERT`/`UPDATE`/
//! `DELETE`), mutated by byte flips, dropped or repeated tokens,
//! truncation, splicing and deep nesting. Properties:
//!
//! - `parse_template` never panics;
//! - every error's span lies inside the input;
//! - an accepted statement's canonical text re-parses to the same
//!   statement, and so to the same text;
//! - a bound write's rendered text parses and binds back to an equal
//!   write — the WAL round trip.
//!
//! `SQL_FUZZ_SEED=<n>` runs one extra seed.

use astore_bench::replay::SSB_SQL;
use astore_sql::lexer::lex_spanned;
use astore_sql::parser::MAX_DEPTH;
use astore_sql::prepared::canonicalize;
use astore_sql::{parse_template, render_write, StatementTemplate, Write};
use astore_storage::types::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Mutated inputs per seed.
const CASES: usize = 600;

/// The write shapes of `wal_replay_shapes`, with the literals its
/// generator draws from, plus the literal kinds it does not write.
fn write_seed(rng: &mut SmallRng) -> String {
    let v = rng.gen_range(0..5000);
    let r = rng.gen_range(0..8192);
    let sql = match rng.gen_range(0..9u32) {
        0 => format!("INSERT INTO fact VALUES ({}, {v}, {})", rng.gen_range(0..8), v % 50),
        1 => format!("UPDATE fact SET f_q = {} WHERE rowid = {r}", v % 50),
        2 => format!("DELETE FROM fact WHERE rowid = {r}"),
        3 => "INSERT INTO fact VALUES (?, ?, ?)".into(),
        4 => "UPDATE fact SET f_v = ? WHERE rowid = ?".into(),
        5 => "DELETE FROM fact WHERE rowid = ?".into(),
        6 => "UPDATE fact SET f_v = $2, f_q = $2 WHERE rowid = $1;".into(),
        7 => format!(
            "INSERT INTO dim VALUES ('O''Neil {v}', -{v}.25), ('Zürich', NULL), ({}, 2.0)",
            i64::MIN
        ),
        _ => "insert into FACT values (-9223372036854775808, 9223372036854775807, 0)".into(),
    };
    if rng.gen_bool(0.5) {
        mix_case(&sql, rng)
    } else {
        sql
    }
}

/// Random casing of ASCII letters (string literals included: they stay
/// valid, only their value changes).
fn mix_case(sql: &str, rng: &mut SmallRng) -> String {
    sql.chars()
        .map(|c| if rng.gen_bool(0.5) { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
        .collect()
}

fn seed_input(rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.5) {
        SSB_SQL[rng.gen_range(0..SSB_SQL.len())].1.to_owned()
    } else {
        write_seed(rng)
    }
}

/// Wraps `sql`'s first WHERE predicate, or its first aggregate's argument,
/// `depth` times — around the parser's nesting cap — in parentheses,
/// `NOT`s or unary minuses, or as the right operand of an operator whose
/// left operand is a leaf.
fn nest(sql: &str, rng: &mut SmallRng) -> String {
    let depth = match rng.gen_range(0..3u32) {
        0 => rng.gen_range(MAX_DEPTH - 2..=MAX_DEPTH + 2),
        1 => rng.gen_range(0..=MAX_DEPTH),
        _ => rng.gen_range(MAX_DEPTH..4 * MAX_DEPTH),
    };
    let lower = sql.to_ascii_lowercase();
    if let Some(at) = lower.find(" where ").map(|i| i + " where ".len()) {
        let end = lower[at..].find(" and ").map_or(sql.len(), |i| at + i);
        let (open, close) =
            [("(", ")"), ("NOT ", ""), ("d_year = 1 OR (", ")")][rng.gen_range(0..3usize)];
        return format!(
            "{}{}{}{}{}",
            &sql[..at],
            open.repeat(depth),
            &sql[at..end],
            close.repeat(depth),
            &sql[end..]
        );
    }
    if let Some(at) = lower.find("sum(").map(|i| i + "sum(".len()) {
        let (open, close) = [("(", ")"), ("- ", ""), ("lo_tax + (", ")"), ("lo_tax * (", ")")]
            [rng.gen_range(0..4usize)];
        let end = at + sql[at..].find(')').unwrap_or(sql.len() - at);
        return format!(
            "{}{}{}{}{}",
            &sql[..at],
            open.repeat(depth),
            &sql[at..end],
            close.repeat(depth),
            &sql[end..]
        );
    }
    sql.to_owned()
}

/// Applies one to four mutations to `sql`.
fn mutate(rng: &mut SmallRng, sql: String) -> String {
    const SPICE: &[u8] = b"()',;.*-+=<>!?$0123456789 \n\t'\"#\xc3\xa9\xff";
    let mut bytes = sql.into_bytes();
    for _ in 0..rng.gen_range(1..5u32) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let spans: Vec<(usize, usize)> = lex_spanned(&text)
            .map(|toks| toks.iter().map(|t| (t.start, t.end)).collect())
            .unwrap_or_default();
        match rng.gen_range(0..7u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                if rng.gen_bool(0.5) {
                    bytes[at] = SPICE[rng.gen_range(0..SPICE.len())];
                } else {
                    bytes[at] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            1 if !spans.is_empty() => {
                // Drop a token.
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                bytes = [&text.as_bytes()[..s], &text.as_bytes()[e..]].concat();
            }
            2 if !spans.is_empty() => {
                // Repeat a token (or a run of them).
                let i = rng.gen_range(0..spans.len());
                let j = rng.gen_range(i..spans.len().min(i + 4));
                let (s, e) = (spans[i].0, spans[j].1);
                let times = rng.gen_range(1..4usize);
                let piece = format!(" {}", &text[s..e]).repeat(times);
                bytes = format!("{}{piece}{}", &text[..e], &text[e..]).into_bytes();
            }
            3 if !bytes.is_empty() => bytes.truncate(rng.gen_range(0..bytes.len())),
            4 => {
                // Splice: this input's head onto another seed's tail.
                let other = seed_input(rng).into_bytes();
                let cut = rng.gen_range(0..=bytes.len());
                let from = rng.gen_range(0..=other.len());
                bytes.truncate(cut);
                bytes.extend_from_slice(&other[from..]);
            }
            5 => bytes = nest(&text, rng).into_bytes(),
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parameter values of every kind a client can send, extremes included.
fn param(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..8u32) {
        0 => Value::Int(i64::MIN),
        1 => Value::Int(i64::MAX),
        2 => Value::Int(rng.gen_range(-5..8200)),
        3 => Value::Float([0.5, -0.0, 1e300, -2.0, 5e-324, 0.1][rng.gen_range(0..6usize)]),
        4 => {
            Value::Str(["", "O'Neil", "Zürich", "a''b", "\n\t\0"][rng.gen_range(0..5usize)].into())
        }
        5 => Value::Key(rng.gen_range(0..8)),
        6 => Value::Null,
        _ => Value::Int(rng.gen_range(0..4)),
    }
}

/// Parses `sql` back into a literal write.
fn reparse_write(sql: &str) -> Write<Value> {
    match parse_template(sql) {
        Ok(StatementTemplate::Write(w)) => {
            w.bind(&[]).unwrap_or_else(|e| panic!("{sql:?} does not bind: {e}"))
        }
        other => panic!("{sql:?} does not parse back as a write: {other:?}"),
    }
}

/// Checks every property on one input.
fn check(sql: &str, rng: &mut SmallRng, ctx: &dyn Fn() -> String) {
    let mut tmpl = match parse_template(sql) {
        Err(e) => {
            if let Some((start, end)) = e.span {
                assert!(
                    start <= end && end <= sql.len(),
                    "{}: span {start}..{end} of {sql:?}",
                    ctx()
                );
            }
            return;
        }
        Ok(t) => t,
    };
    let key = canonicalize(&mut tmpl);
    let mut again = parse_template(&key)
        .unwrap_or_else(|e| panic!("{}: canonical text {key:?} does not parse: {e}", ctx()));
    assert_eq!(canonicalize(&mut again), key, "{}: of {sql:?}", ctx());
    assert_eq!(again, tmpl, "{}: {key:?} parses to another statement", ctx());
    if let StatementTemplate::Write(w) = &tmpl {
        let params: Vec<Value> = (0..w.param_count()).map(|_| param(rng)).collect();
        if let Ok(bound) = w.bind(&params) {
            let text = render_write(&bound);
            assert_eq!(reparse_write(&text), bound, "{}: WAL text {text:?}", ctx());
        }
    }
}

fn fuzz_seed(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_5a1f);
    for case in 0..CASES {
        let original = seed_input(&mut rng);
        let sql = mutate(&mut rng, original);
        check(&sql, &mut rng, &|| format!("seed {seed} case {case}"));
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("SQL_FUZZ_SEED").ok().map(|s| s.parse().expect("numeric seed"));
    (1..=10u64).chain(extra)
}

#[test]
fn unmutated_inputs_satisfy_every_property() {
    let mut rng = SmallRng::seed_from_u64(0);
    for (name, sql) in SSB_SQL {
        check(sql, &mut rng, &|| name.to_owned());
        assert!(parse_template(sql).is_ok(), "{name}");
    }
    for case in 0..200 {
        let sql = write_seed(&mut rng);
        assert!(parse_template(&sql).is_ok(), "{sql}");
        check(&sql, &mut rng, &|| format!("write {case}"));
    }
}

#[test]
fn mutated_statements_hold_every_property() {
    seeds().for_each(fuzz_seed);
}
