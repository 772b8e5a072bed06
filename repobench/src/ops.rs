//! Seeded input generation. Every operation a workload sends is a pure
//! function of `--seed` (plus the connection index), so the same seed
//! replays the same statements, literals and keys; the server only ever
//! sees the generated inputs.

use astore_datagen::ssb::{gen_date, SsbSizes};
use astore_server::json::Json;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Queries in one sweep pass (the canonical SSB flight).
pub const SWEEP_QUERIES: usize = astore_bench::replay::SSB_SQL.len();

/// An rng stream for `(seed, stream)`: connections and phases draw from
/// separate streams so adding a draw to one never shifts another.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The order one sweep pass visits the 13 queries in.
pub fn sweep_order(rng: &mut SmallRng) -> [usize; SWEEP_QUERIES] {
    let mut order: [usize; SWEEP_QUERIES] = std::array::from_fn(|i| i);
    order.shuffle(rng);
    order
}

/// The short-statement shapes of `serve-mix`, as prepared templates. The
/// first three are keyed on one day (zone maps prune all but the one or
/// two segments holding it), the last on one month (the Q1.2 shape).
pub const SHORT_TEMPLATES: [&str; 4] = [
    "SELECT sum(lo_revenue) AS revenue FROM lineorder, date \
     WHERE lo_orderdate = d_datekey AND d_datekey = ?",
    "SELECT count(*) AS orders, sum(lo_extendedprice * lo_discount) AS revenue \
     FROM lineorder, date WHERE lo_orderdate = d_datekey AND d_datekey = ? \
     AND lo_discount BETWEEN ? AND ?",
    "SELECT lo_shipmode, sum(lo_quantity) AS quantity FROM lineorder, date \
     WHERE lo_orderdate = d_datekey AND d_datekey = ? \
     GROUP BY lo_shipmode ORDER BY lo_shipmode",
    "SELECT sum(lo_extendedprice * lo_discount) AS revenue FROM lineorder, date \
     WHERE lo_orderdate = d_datekey AND d_yearmonthnum = ? \
     AND lo_discount BETWEEN ? AND ? AND lo_quantity BETWEEN ? AND ?",
];

/// Index of the month-keyed template in [`SHORT_TEMPLATES`].
const MONTH_TEMPLATE: usize = 3;
/// Distinct days the day-keyed statements draw from.
const DAY_KEYS: usize = 64;
/// Distinct months the month-keyed statements draw from.
const MONTH_KEYS: usize = 12;

/// One concrete short statement: a template plus its parameter values.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortStmt {
    /// Index into [`SHORT_TEMPLATES`].
    pub template: usize,
    /// Positional parameters for the prepared form.
    pub params: Vec<Json>,
    /// The text-mode form: the template with its literals written in
    /// (rendered once, so the measured loop does not pay for it).
    pub sql: String,
}

impl ShortStmt {
    fn new(template: usize, params: &[i64]) -> ShortStmt {
        let mut sql = String::new();
        for (i, piece) in SHORT_TEMPLATES[template].split('?').enumerate() {
            if i > 0 {
                sql.push_str(&params[i - 1].to_string());
            }
            sql.push_str(piece);
        }
        ShortStmt { template, params: params.iter().copied().map(Json::Int).collect(), sql }
    }
}

/// The finite statement set `serve-mix` draws from: small enough that
/// warm-up answers every member once (the reference for the bit-for-bit
/// check) and that it fits the server's plan cache and the CPU cache.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortUniverse {
    /// Day-keyed statements first (`day_keyed` of them), then month-keyed.
    pub stmts: Vec<ShortStmt>,
    /// How many leading statements are day-keyed.
    pub day_keyed: usize,
}

/// Builds the statement set for a seed: 64 days × 3 shapes + 12 months.
pub fn short_universe(seed: u64) -> ShortUniverse {
    let mut rng = stream_rng(seed, 1);
    let dates = gen_date();
    let mut days: Vec<i32> =
        dates.column("d_datekey").and_then(|c| c.as_i32()).expect("date calendar").to_vec();
    let mut months: Vec<i32> = days.iter().map(|d| d / 100).collect();
    months.dedup();
    days.shuffle(&mut rng);
    months.shuffle(&mut rng);
    let mut stmts = Vec::new();
    for &day in &days[..DAY_KEYS] {
        let (day, lo) = (i64::from(day), rng.gen_range(0..=7i64));
        stmts.push(ShortStmt::new(0, &[day]));
        stmts.push(ShortStmt::new(1, &[day, lo, lo + 2]));
        stmts.push(ShortStmt::new(2, &[day]));
    }
    let day_keyed = stmts.len();
    for &month in &months[..MONTH_KEYS] {
        let disc = rng.gen_range(0..=7i64);
        let qty = rng.gen_range(1..=40i64);
        let month = i64::from(month);
        stmts.push(ShortStmt::new(MONTH_TEMPLATE, &[month, disc, disc + 2, qty, qty + 9]));
    }
    ShortUniverse { stmts, day_keyed }
}

/// One `serve-mix` operation; the payload indexes [`ShortUniverse::stmts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// Text SQL with literals (lex, parse, canonicalise, plan-cache lookup).
    Text(usize),
    /// `execute` of the prepared template (bind only).
    Prepared(usize),
    /// A `{"cmd":"stats"}` metadata frame.
    Stats,
}

/// Draws the next `serve-mix` operation: 50 % day-keyed text, 25 %
/// day-keyed prepared, 15 % month-keyed text, 10 % metadata.
pub fn next_serve_op(rng: &mut SmallRng, universe: &ShortUniverse) -> ServeOp {
    let day = |rng: &mut SmallRng| rng.gen_range(0..universe.day_keyed);
    match rng.gen_range(0..100u32) {
        0..=49 => ServeOp::Text(day(rng)),
        50..=74 => ServeOp::Prepared(day(rng)),
        75..=89 => ServeOp::Text(rng.gen_range(universe.day_keyed..universe.stmts.len())),
        _ => ServeOp::Stats,
    }
}

/// The write statement shapes, as prepared templates.
pub const WRITE_TEMPLATES: [&str; 4] = [
    "INSERT INTO lineorder VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
    "UPDATE lineorder SET lo_quantity = ? WHERE rowid = ?",
    "DELETE FROM lineorder WHERE rowid = ?",
    "UPDATE customer SET c_mktsegment = ? WHERE rowid = ?",
];

/// `lo_orderkey` of generated inserts starts here, far above any generated
/// order key, so `lo_orderkey >= INSERT_KEY_BASE` selects exactly them.
pub const INSERT_KEY_BASE: i64 = 1_000_000_000;

const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"];
const SHIP_MODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];
const MKT_SEGMENTS: [&str; 5] = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];

/// Relative weights of the four [`WRITE_TEMPLATES`] in a write stream.
pub type WriteMix = [u32; 4];
/// `ingest-durable`: 70 % fact insert, 20 % fact update, 5 % fact delete,
/// 5 % dimension update.
pub const INGEST_MIX: WriteMix = [70, 20, 5, 5];
/// `htap-mix` writer: 80 % fact insert, 20 % fact update.
pub const HTAP_MIX: WriteMix = [80, 20, 0, 0];

/// One generated write.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOp {
    /// Index into [`WRITE_TEMPLATES`].
    pub template: usize,
    /// Positional parameters.
    pub params: Vec<Json>,
    /// `lo_quantity` of an insert (0 otherwise) — the end-state checksum.
    pub quantity: i64,
}

/// A writer's statement stream. Its statements never collide: insert keys
/// count up, deletes walk the even rowids (each at most once), and fact
/// updates touch only odd pre-existing rowids — so every statement affects
/// exactly one row and the end state is computable from the
/// acknowledgements alone.
pub struct WriteGen {
    rng: SmallRng,
    sizes: SsbSizes,
    mix: WriteMix,
    inserts: i64,
    deletes: usize,
    delete_start: usize,
}

/// A prime, hence coprime to every delete domain that is not a multiple of
/// it: stepping by it visits every slot once per cycle.
const DELETE_STRIDE: usize = 1_000_003;

impl WriteGen {
    /// The stream for a seed, at dataset size `sizes`.
    pub fn new(seed: u64, sizes: SsbSizes, mix: WriteMix) -> Self {
        let mut rng = stream_rng(seed, 100);
        let delete_start = rng.gen_range(0..sizes.lineorder / 2);
        WriteGen { rng, sizes, mix, inserts: 0, deletes: 0, delete_start }
    }

    /// Draws the next write.
    pub fn next_op(&mut self) -> WriteOp {
        let total: u32 = self.mix.iter().sum();
        let mut pick = self.rng.gen_range(0..total);
        let template = self
            .mix
            .iter()
            .position(|&w| {
                if pick < w {
                    true
                } else {
                    pick -= w;
                    false
                }
            })
            .expect("pick is below the weight total");
        let rng = &mut self.rng;
        let int = Json::Int;
        let (params, quantity) = match template {
            0 => {
                let key = INSERT_KEY_BASE + self.inserts;
                self.inserts += 1;
                let quantity = rng.gen_range(1..=50i64);
                let price = rng.gen_range(90_000..=10_000_000i64);
                let discount = rng.gen_range(0..=10i64);
                let pick = |rng: &mut SmallRng, xs: &[&str]| {
                    Json::Str(xs[rng.gen_range(0..xs.len())].to_owned())
                };
                let row = vec![
                    int(key),
                    int(1),
                    int(rng.gen_range(0..self.sizes.customer) as i64),
                    int(rng.gen_range(0..self.sizes.part) as i64),
                    int(rng.gen_range(0..self.sizes.supplier) as i64),
                    int(rng.gen_range(0..self.sizes.date) as i64),
                    pick(rng, &PRIORITIES),
                    int(0),
                    int(quantity),
                    int(price),
                    int(price),
                    int(discount),
                    int(price * (100 - discount) / 100),
                    int(price * 6 / 10),
                    int(rng.gen_range(0..=8i64)),
                    int(rng.gen_range(0..self.sizes.date) as i64),
                    pick(rng, &SHIP_MODES),
                ];
                (row, quantity)
            }
            1 => {
                let rowid = 2 * rng.gen_range(0..self.sizes.lineorder / 2) + 1;
                (vec![int(rng.gen_range(1..=50i64)), int(rowid as i64)], 0)
            }
            2 => {
                let domain = self.sizes.lineorder / 2;
                let slot = (self.delete_start + self.deletes * DELETE_STRIDE) % domain;
                self.deletes += 1;
                (vec![int(2 * slot as i64)], 0)
            }
            _ => {
                let seg = MKT_SEGMENTS[rng.gen_range(0..MKT_SEGMENTS.len())];
                let rowid = rng.gen_range(0..self.sizes.customer);
                (vec![Json::Str(seg.to_owned()), int(rowid as i64)], 0)
            }
        };
        WriteOp { template, params, quantity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_the_same_ops_and_another_seed_does_not() {
        let sizes = SsbSizes::at(0.05);
        let list = |seed: u64| {
            let universe = short_universe(seed);
            let mut rng = stream_rng(seed, 10);
            let serve: Vec<ServeOp> =
                (0..200).map(|_| next_serve_op(&mut rng, &universe)).collect();
            let sweeps: Vec<_> = (0..20).map(|_| sweep_order(&mut rng)).collect();
            let mut gen = WriteGen::new(seed, sizes, INGEST_MIX);
            let writes: Vec<WriteOp> = (0..200).map(|_| gen.next_op()).collect();
            (universe, serve, sweeps, writes)
        };
        assert_eq!(list(7), list(7));
        let (a, b) = (list(7), list(8));
        assert_ne!(a.0, b.0, "different literals");
        assert_ne!(a.1, b.1);
        assert_ne!(a.2, b.2);
        assert_ne!(a.3, b.3, "different keys");
    }

    #[test]
    fn short_statements_render_their_literals() {
        let u = short_universe(3);
        assert_eq!(u.day_keyed, 3 * DAY_KEYS);
        assert_eq!(u.stmts.len(), 3 * DAY_KEYS + MONTH_KEYS);
        for s in &u.stmts {
            assert!(!s.sql.contains('?'), "{}", s.sql);
            assert_eq!(s.params.len(), SHORT_TEMPLATES[s.template].matches('?').count());
        }
        let month = u.stmts.last().unwrap();
        assert_eq!(month.template, MONTH_TEMPLATE);
        let m = month.params[0].as_i64().unwrap();
        assert!((199_201..=199_812).contains(&m), "{m}");
        assert!(month.sql.contains(&format!("d_yearmonthnum = {m} ")));
    }

    #[test]
    fn a_writer_never_touches_the_same_row_twice_where_it_matters() {
        let sizes = SsbSizes::at(0.05);
        let mut keys = HashSet::new();
        let mut deleted = HashSet::new();
        {
            let mut gen = WriteGen::new(11, sizes, [40, 20, 35, 5]);
            for _ in 0..10_000 {
                let op = gen.next_op();
                assert_eq!(op.params.len(), WRITE_TEMPLATES[op.template].matches('?').count());
                match op.template {
                    0 => {
                        assert!(keys.insert(op.params[0].as_i64().unwrap()), "unique order key");
                        assert!(op.params[0].as_i64().unwrap() >= INSERT_KEY_BASE);
                        assert_eq!(op.params[8].as_i64(), Some(op.quantity));
                        assert!((op.params[2].as_i64().unwrap() as usize) < sizes.customer);
                    }
                    1 => assert_eq!(op.params[1].as_i64().unwrap() % 2, 1, "updates: odd rowids"),
                    2 => {
                        let rowid = op.params[0].as_i64().unwrap();
                        assert_eq!(rowid % 2, 0, "deletes: even rowids");
                        assert!((rowid as usize) < sizes.lineorder);
                        assert!(deleted.insert(rowid), "rowid {rowid} deleted twice");
                    }
                    _ => assert!((op.params[1].as_i64().unwrap() as usize) < sizes.customer),
                }
            }
        }
    }
}
