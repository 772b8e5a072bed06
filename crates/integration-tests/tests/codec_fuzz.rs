//! Seeded fuzz of the wire codec (`astore_server::json`), the first of the
//! three parsers of untrusted bytes (ROADMAP open item 2).
//!
//! - **Golden bytes.** `testdata/golden-frames.jsonl` holds the 13 SSB
//!   replies at SF 0.002 and the [`torture`] frame, all printed by the
//!   serialiser this codec replaced. Re-serialising them must reproduce the
//!   file byte for byte — that is what keeps reply frames identical across
//!   releases.
//! - **Round trip.** Random trees (deep nesting, every escape class,
//!   non-BMP characters, extreme integers, whole / subnormal / huge floats,
//!   empty containers) satisfy `parse(to_string(v)) == v`.
//! - **Hostile input.** Random byte mutations, truncations and splices of
//!   valid frames — and surrogate escapes, which only a foreign serialiser
//!   writes — never panic; whatever still parses re-serialises to a fixed
//!   point; and no parse holds more than [`ALLOC_FACTOR`] × the input.
//!
//! `JSON_FUZZ_SEED=<n>` runs one extra seed.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astore_server::json::{parse, Json, MAX_DEPTH};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const GOLDEN: &str = include_str!("../testdata/golden-frames.jsonl");

/// Peak live heap bytes a parse may hold, per input byte. The worst honest
/// case is an array of one-digit numbers: 32 bytes of `Json` per 2 bytes of
/// input, times the 3× a doubling `Vec` holds while it moves.
const ALLOC_FACTOR: usize = 64;

thread_local! {
    /// Live and peak heap bytes of the current thread, while armed.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator plus a per-thread high-water mark, so one test can
/// bound what a parse allocates while the others run beside it.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals without destructors, which
// neither allocate nor run after the thread's storage is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            let live = LIVE.with(|l| {
                l.set(l.get() + layout.size());
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(live)));
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.with(Cell::get) {
            LIVE.with(|l| l.set(l.get().saturating_sub(layout.size())));
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak heap bytes it held.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, PEAK.with(Cell::get))
}

/// The escape/number torture frame of the golden set: every escape class
/// of the serialiser and every branch of its number formatting. The golden
/// line was printed from this same tree by the serialiser this one replaced.
fn torture() -> Json {
    let all_controls: String = (0u8..0x20).map(char::from).collect();
    Json::obj([
        (
            "strings",
            Json::Array(
                [
                    "",
                    "plain",
                    "quote\" backslash\\ slash/",
                    "\n\r\t\u{8}\u{c}",
                    all_controls.as_str(),
                    "\u{7f}\u{80}\u{e9}\u{4e2d}\u{2028}\u{1f600}\u{10ffff}",
                    "ends with escape\n",
                    "\"",
                    "\\\\\"\"",
                ]
                .into_iter()
                .map(|s| Json::Str(s.to_owned()))
                .collect(),
            ),
        ),
        (
            "ints",
            Json::Array(
                [0, 1, -1, 9, 10, -10, 99, 100, 4_294_967_296, i64::MAX, i64::MIN, -i64::MAX]
                    .into_iter()
                    .map(Json::Int)
                    .collect(),
            ),
        ),
        (
            "floats",
            Json::Array(
                [
                    0.0,
                    -0.0,
                    1.0,
                    -1.0,
                    27185475.0,
                    999_999_999_999_999.0,
                    -999_999_999_999_999.0,
                    1e15,
                    -1e15,
                    1e16,
                    9.007199254740993e15,
                    1.5e300,
                    f64::MAX,
                    f64::MIN,
                    0.5,
                    -0.25,
                    0.1,
                    1.0 / 3.0,
                    123456789.125,
                    1e-7,
                    f64::MIN_POSITIVE,
                    5e-324,
                    -5e-324,
                    f64::EPSILON,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ]
                .into_iter()
                .map(Json::Float)
                .collect(),
            ),
        ),
        ("empty", Json::Array(vec![Json::Array(vec![]), Json::obj([]), Json::Str(String::new())])),
        (
            "nested",
            Json::Array(vec![Json::Array(vec![Json::obj([(
                "k\"ey\n",
                Json::Array(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            )])])]),
        ),
    ])
}

#[test]
fn golden_frames_reserialise_byte_for_byte() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len(), 14, "13 SSB replies and the torture frame");
    for (i, line) in lines.iter().enumerate() {
        let v = parse(line).unwrap_or_else(|e| panic!("golden frame {i}: {e}"));
        assert_eq!(v.to_string(), *line, "golden frame {i} via Display");
        let mut framed = v.frame();
        assert_eq!(framed.pop(), Some(b'\n'), "a frame ends in its newline");
        assert_eq!(framed, line.as_bytes(), "golden frame {i} via frame()");
    }
    // The last line was printed from this tree, not from a parse: the
    // serialiser is pinned independently of the parser.
    assert_eq!(torture().to_string(), lines[13]);
}

const ALPHABET: [&str; 24] = [
    "a",
    "Z",
    "0",
    " ",
    "_",
    "select",
    "\"",
    "\\",
    "/",
    "\n",
    "\r",
    "\t",
    "\u{8}",
    "\u{c}",
    "\u{0}",
    "\u{1f}",
    "\u{7f}",
    "\u{e9}",
    "\u{df}",
    "\u{4e2d}",
    "\u{2028}",
    "\u{fffd}",
    "\u{1f600}",
    "\u{10ffff}",
];

fn gen_string(rng: &mut SmallRng) -> String {
    let pieces = match rng.gen_range(0..10u32) {
        0 => 0,
        1 => rng.gen_range(20..200usize),
        _ => rng.gen_range(1..12usize),
    };
    (0..pieces).map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())]).collect()
}

/// A float that round-trips through the codec as a float: anything with a
/// fraction, and whole values below the 1e15 cut where the serialiser stops
/// writing a fraction marker (the pinned wart in the module docs).
fn gen_float(rng: &mut SmallRng) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    sign * match rng.gen_range(0..8u32) {
        0 => 0.0,
        1 => rng.gen_range(0..1_000_000_000_000_000u64) as f64, // whole
        2 => f64::from_bits(rng.gen_range(1..(1u64 << 52))),    // subnormal
        3 => f64::MIN_POSITIVE,
        4 => rng.gen_range(0.0..1.0),
        5 => rng.gen_range(0.0..1.0) * 1e12,
        6 => {
            // Any finite bit pattern, kept only if it has a fraction.
            let v = f64::from_bits(rng.gen::<u64>() >> 1);
            if v.is_finite() && v.fract() != 0.0 {
                v
            } else {
                0.1
            }
        }
        _ => rng.gen_range(0..1000u64) as f64 + 0.5,
    }
}

fn gen_int(rng: &mut SmallRng) -> i64 {
    match rng.gen_range(0..6u32) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => 0,
        3 => rng.gen_range(-1000..1000i64),
        4 => 10i64.pow(rng.gen_range(0..19u32)) - i64::from(rng.gen_bool(0.5)),
        _ => rng.gen::<i64>(),
    }
}

/// Most levels a [`gen_tree`] tree is built with; [`gen_chain`] may wrap it
/// in the rest of the parser's allowance.
const BUSHY_LEVELS: usize = 5;

fn gen_tree(rng: &mut SmallRng, levels: usize) -> Json {
    let leaf = levels == 0 || rng.gen_bool(0.3);
    match rng.gen_range(if leaf { 0..5u32 } else { 5..7u32 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(gen_int(rng)),
        3 => Json::Float(gen_float(rng)),
        4 => Json::Str(gen_string(rng)),
        5 => {
            Json::Array((0..rng.gen_range(0..6usize)).map(|_| gen_tree(rng, levels - 1)).collect())
        }
        _ => Json::Object(
            (0..rng.gen_range(0..6usize))
                .map(|_| (gen_string(rng), gen_tree(rng, levels - 1)))
                .collect(),
        ),
    }
}

/// Depth without breadth: `v` inside up to `MAX_DEPTH − BUSHY_LEVELS`
/// single-member containers, so the deepest trees sit at the parser's limit.
fn gen_chain(rng: &mut SmallRng, mut v: Json) -> Json {
    for _ in 0..rng.gen_range(1..=MAX_DEPTH - BUSHY_LEVELS) {
        v = if rng.gen_bool(0.5) {
            Json::Array(vec![v])
        } else {
            Json::Object([(gen_string(rng), v)].into_iter().collect())
        };
    }
    v
}

fn roundtrip_seed(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for case in 0..300 {
        let mut v = gen_tree(&mut rng, BUSHY_LEVELS);
        if rng.gen_bool(0.2) {
            v = gen_chain(&mut rng, v);
        }
        let text = v.to_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("seed {seed} case {case}: {e}\n{text}"));
        assert_eq!(back, v, "seed {seed} case {case}\n{text}");
        assert_eq!(back.to_string(), text, "seed {seed} case {case}");
    }
}

/// A valid frame to damage: a golden line or a generated tree, sometimes
/// with an escape sequence only a foreign serialiser writes spliced in.
fn gen_frame(rng: &mut SmallRng) -> Vec<u8> {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    let mut frame = if rng.gen_bool(0.5) {
        lines[rng.gen_range(0..lines.len())].to_owned()
    } else {
        gen_tree(rng, 4).to_string()
    };
    if rng.gen_bool(0.3) {
        const FOREIGN: [&str; 8] = [
            r#""😀""#,
            r#""\ud83d""#,
            r#""\ude00\ud83d""#,
            r#""\ud83dA""#,
            r#""é\/\b\f""#,
            "1e400",
            "-",
            "[[[[[[[[",
        ];
        let at = rng.gen_range(0..=frame.len());
        if frame.is_char_boundary(at) {
            frame.insert_str(at, FOREIGN[rng.gen_range(0..FOREIGN.len())]);
        }
    }
    frame.into_bytes()
}

fn mutate(rng: &mut SmallRng, frame: &mut Vec<u8>) {
    const SPICE: &[u8] = b"\"\\{}[],:-+.eEu0123456789 \n\t\x00\x1f\x7f\x80\xc3\xe4\xf0\xff";
    for _ in 0..rng.gen_range(1..6u32) {
        if frame.is_empty() {
            return;
        }
        let at = rng.gen_range(0..frame.len());
        match rng.gen_range(0..6u32) {
            0 => frame[at] = SPICE[rng.gen_range(0..SPICE.len())],
            1 => frame[at] ^= 1 << rng.gen_range(0..8u32),
            2 => frame.truncate(at),
            3 => {
                frame.remove(at);
            }
            4 => frame.insert(at, SPICE[rng.gen_range(0..SPICE.len())]),
            _ => {
                // Duplicate a slice: repeated keys, doubled brackets.
                let end = rng.gen_range(at..frame.len().min(at + 64));
                let piece = frame[at..=end].to_vec();
                frame.splice(at..at, piece);
            }
        }
    }
}

/// Parses what the server would parse from these bytes (lossy decode, then
/// trim) under the allocation bound; returns nothing, must not panic.
fn digest(bytes: &[u8], ctx: &dyn Fn() -> String) {
    let text = String::from_utf8_lossy(bytes);
    let text = text.trim();
    let (parsed, peak) = peak_of(|| parse(text));
    assert!(
        peak <= ALLOC_FACTOR * text.len() + 1024,
        "{}: {peak} bytes held for {} bytes of input",
        ctx(),
        text.len()
    );
    if let Ok(v) = parsed {
        // Whatever survived serialises to something that parses back to
        // the same bytes (bytes, not trees: 1e16 re-parses as an integer).
        let once = v.to_string();
        let again = parse(&once).unwrap_or_else(|e| panic!("{}: reparse: {e}\n{once}", ctx()));
        assert_eq!(again.to_string(), once, "{}", ctx());
    }
}

fn mutation_seed(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for case in 0..400 {
        let mut frame = gen_frame(&mut rng);
        mutate(&mut rng, &mut frame);
        digest(&frame, &|| format!("seed {seed} case {case}"));
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("JSON_FUZZ_SEED").ok().map(|s| s.parse().expect("numeric seed"));
    (1..=10u64).chain(extra)
}

#[test]
fn random_trees_round_trip() {
    seeds().for_each(roundtrip_seed);
}

#[test]
fn damaged_frames_error_without_panic_or_blowup() {
    seeds().for_each(mutation_seed);
}

#[test]
fn pathological_frames_stay_linear_in_memory_and_depth() {
    let n = 1 << 20;
    let cases: [(&str, String); 6] = [
        ("open brackets", "[".repeat(n)),
        ("open braces", "{\"a\":".repeat(n / 5)),
        ("one-digit array", format!("[{}0]", "0,".repeat(n / 2))),
        ("empty arrays", format!("[{}[]]", "[],".repeat(n / 3))),
        ("escapes", format!("\"{}\"", "\\n".repeat(n / 2))),
        ("surrogate pairs", format!("\"{}\"", "\\ud83d\\ude00".repeat(n / 12))),
    ];
    for (name, text) in &cases {
        digest(text.as_bytes(), &|| (*name).to_owned());
    }
    assert!(parse(&cases[0].1).is_err(), "a megabyte of '[' is an error, not a stack overflow");
    // The limit itself: MAX_DEPTH levels parse, one more does not.
    let nest = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
    assert!(parse(&nest(MAX_DEPTH)).is_ok());
    assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
}
