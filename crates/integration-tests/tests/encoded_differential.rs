//! Encoded-vs-flat result identity: the representation a chunk is resident
//! in must be observationally invisible. Every generated SPJGA query runs
//! through three arms — the table as it is (encoded chunks scanned in
//! encoded form), a decoded copy of it (every chunk flat: the same code
//! taking its flat paths), and zone-map pruning disabled — serially and
//! through the morsel executor, and all answers must agree.
//!
//! Between query batches the fact table takes interleaved writes (updates
//! and reuse-inserts decode the chunks they land in; deletes touch the
//! liveness bitmap only) followed by a re-seal, so the differential covers
//! the decode → re-encode lifecycle and tables that mix encoded and flat
//! chunks, not just a freshly encoded image. The generator deliberately
//! mixes float literals over integer columns — the encoded seed-range
//! derivation must round them exactly as the scalar path does.
//!
//! The date filters are one run of date keys, so they exercise the scan of
//! a chain as a key range on the packed foreign key against the same
//! filter on the flat copy.
//!
//! `ASTORE_SF` scales the dataset (CI's sf1 job smokes this at 0.2).

use astore_core::expr::{CmpOp, MeasureExpr, Pred};
use astore_core::prelude::*;
use astore_core::query::Aggregate;
use astore_datagen::{env_scale_factor, ssb};
use astore_storage::types::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const MFGRS: [&str; 5] = ["MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"];

/// One random dimension predicate. The date filters select one run of
/// date keys — a day, a week, a month, one or two years — which the scan
/// tests as a key range on `lo_orderdate` rather than a probe.
fn random_dim_pred(rng: &mut SmallRng) -> (&'static str, Pred) {
    let year = rng.gen_range(1992..=1998i64);
    match rng.gen_range(0..9u32) {
        6 => ("date", Pred::eq("d_datekey", year * 10_000 + rng.gen_range(1..=12i64) * 100 + 28)),
        7 => ("date", Pred::eq("d_yearmonthnum", year * 100 + rng.gen_range(1..=12i64))),
        8 => (
            "date",
            Pred::eq("d_weeknuminyear", rng.gen_range(1..=52i64)).and(Pred::eq("d_year", year)),
        ),
        0 => ("date", Pred::eq("d_year", year)),
        1 => {
            let lo = rng.gen_range(1992..=1997i64);
            ("date", Pred::between("d_year", lo, lo + 1))
        }
        2 => ("customer", Pred::eq("c_region", REGIONS[rng.gen_range(0..REGIONS.len())])),
        3 => ("supplier", Pred::eq("s_region", REGIONS[rng.gen_range(0..REGIONS.len())])),
        4 => ("part", Pred::eq("p_mfgr", MFGRS[rng.gen_range(0..MFGRS.len())])),
        _ => {
            let lo = rng.gen_range(1..=40i64);
            ("part", Pred::between("p_size", lo, lo + rng.gen_range(0..=10i64)))
        }
    }
}

/// One random fact-local predicate. Half the arms use float literals over
/// integer columns: the encoded kernels compare bit-packed *codes*, so the
/// literal→code rounding must match scalar comparison semantics exactly
/// (e.g. `lo_quantity < 24.5` ≡ `lo_quantity <= 24`, and a between over
/// fractional bounds must not widen to the enclosing integers).
fn random_fact_pred(rng: &mut SmallRng) -> Pred {
    match rng.gen_range(0..6u32) {
        0 => {
            let lo = rng.gen_range(1..=8i64);
            Pred::between("lo_discount", lo, lo + 2)
        }
        1 => Pred::cmp("lo_quantity", CmpOp::Lt, rng.gen_range(5..=50i64)),
        2 => Pred::cmp("lo_quantity", CmpOp::Lt, rng.gen_range(5..=50i64) as f64 - 0.5),
        3 => {
            let lo = rng.gen_range(1..=7i64) as f64;
            Pred::between("lo_discount", lo - 0.5, lo + 1.5)
        }
        4 => Pred::cmp("lo_extendedprice", CmpOp::Ge, rng.gen_range(100..=2000i64) as f64 * 100.5),
        _ => {
            let lo = rng.gen_range(1..=8i64);
            Pred::between("lo_discount", lo, lo + 1).and(Pred::cmp(
                "lo_quantity",
                CmpOp::Ge,
                rng.gen_range(1..=30i64) as f64 + 0.5,
            ))
        }
    }
}

/// A random SPJGA query over the SSB schema.
fn random_query(rng: &mut SmallRng) -> Query {
    const GROUPS: [(&str, &str); 6] = [
        ("date", "d_year"),
        ("date", "d_month"),
        ("customer", "c_region"),
        ("supplier", "s_region"),
        ("part", "p_mfgr"),
        ("lineorder", "lo_shipmode"),
    ];
    let mut q = Query::new().root("lineorder");
    for _ in 0..rng.gen_range(0..=2u32) {
        let (t, p) = random_dim_pred(rng);
        q = q.filter(t, p);
    }
    if rng.gen_bool(0.7) {
        q = q.filter("lineorder", random_fact_pred(rng));
    }
    let mut used = Vec::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        let (t, c) = GROUPS[rng.gen_range(0..GROUPS.len())];
        if !used.contains(&c) {
            used.push(c);
            q = q.group(t, c);
        }
    }
    for i in 0..rng.gen_range(1..=2u32) {
        let name = format!("agg{i}");
        q = q.agg(match rng.gen_range(0..4u32) {
            0 => Aggregate::sum(MeasureExpr::col("lo_revenue"), name),
            1 => Aggregate::sum(
                MeasureExpr::Mul(
                    Box::new(MeasureExpr::col("lo_extendedprice")),
                    Box::new(MeasureExpr::col("lo_discount")),
                ),
                name,
            ),
            2 => Aggregate::count(name),
            _ => Aggregate::min(MeasureExpr::col("lo_revenue"), name),
        });
    }
    q
}

/// The three serial arms: the table as it is resident, its decoded copy,
/// and pruning off (every segment admitted). `true` = run on the copy.
fn arms() -> [(&'static str, bool, ExecOptions); 3] {
    [
        ("encoded", false, ExecOptions::default()),
        ("flat", true, ExecOptions::default()),
        ("unpruned", false, ExecOptions::default().pruning(false)),
    ]
}

/// The same arm through the morsel executor, fan-out forced on the
/// test-sized dataset.
fn parallel(base: &ExecOptions) -> ExecOptions {
    let mut o = base.clone().threads(4).morsel_rows(1024);
    o.optimizer.parallel_min_rows_per_thread = 1;
    o.optimizer.host_threads = 64;
    o
}

#[test]
fn encoded_flat_unpruned_differential_with_interleaved_writes() {
    const ROUNDS: usize = 4;
    const PER_ROUND: usize = 50; // 200 queries total
    let sf = env_scale_factor(0.005);
    let mut db = ssb::generate(sf, 0xE2C0DE);
    {
        // Re-chunk the fact table into small segments so zone-map pruning
        // and per-segment encoding choices actually vary, then re-seal
        // (re-chunking unseals everything).
        let t = db.table_mut("lineorder").unwrap();
        t.set_segment_rows(4096);
        t.seal_segments();
        let key = t.schema().position("lo_custkey").unwrap();
        assert!(
            (0..t.segment_count()).all(|seg| t.column_at(key).chunk_encoding(seg).is_some()),
            "fixture must start fully encoded"
        );
    }

    let mut rng = SmallRng::seed_from_u64(0x0D1F_FE2C);
    let mut nonempty = 0usize;
    for round in 0..ROUNDS {
        let flat = db.decoded();
        let (resident, raw) = flat.table("lineorder").unwrap().encoded_footprint();
        assert_eq!(resident, raw, "the decoded copy holds no encoded chunk");
        for i in 0..PER_ROUND {
            let q = random_query(&mut rng);
            let qi = round * PER_ROUND + i;
            let mut reference: Option<ExecOutput> = None;
            for (name, on_copy, opts) in arms() {
                let db = if on_copy { &flat } else { &db };
                let serial = execute(db, &q, &opts)
                    .unwrap_or_else(|e| panic!("query {qi} failed on {name} arm: {e:?}\n{q:?}"));
                let par = execute(db, &q, &parallel(&opts)).unwrap_or_else(|e| {
                    panic!("query {qi} failed on parallel {name} arm: {e:?}\n{q:?}")
                });
                // Parallel merges re-associate float additions; everything
                // else is bit-identical work over identical rows.
                assert!(
                    par.result.same_contents(&serial.result, 1e-9),
                    "query {qi}: {name} arm diverged serial vs parallel\n{q:?}"
                );
                match &reference {
                    None => reference = Some(serial),
                    Some(r) => {
                        assert!(
                            serial.result.same_contents(&r.result, 0.0),
                            "query {qi}: {name} arm diverged from encoded arm \
                             ({} vs {} rows)\n{q:?}",
                            serial.result.len(),
                            r.result.len()
                        );
                        assert_eq!(
                            serial.plan.selected_rows, r.plan.selected_rows,
                            "query {qi}: {name} arm selected a different row count\n{q:?}"
                        );
                    }
                }
            }
            if !reference.expect("three arms ran").result.rows.is_empty() {
                nonempty += 1;
            }
        }

        // Interleaved writes: updates and reuse-inserts decode the chunks
        // they land in, deletes touch liveness only (consulted on scan),
        // appends fill the flat tail. The next round therefore runs over a
        // table that mixes encoded and flat chunks; the re-seal afterwards
        // exercises re-encoding of the written ones.
        let t = db.table_mut("lineorder").unwrap();
        let n = t.num_slots() as u32;
        for _ in 0..8 {
            let r = rng.gen_range(0..n);
            if t.is_live(r) {
                t.update(r, "lo_quantity", &Value::Int(rng.gen_range(1..=50)));
            }
        }
        for _ in 0..8 {
            let r = rng.gen_range(0..n);
            if t.is_live(r) {
                t.delete(r);
            }
        }
        for _ in 0..4 {
            let r = (0..n).find(|&r| t.is_live(r)).expect("a live row");
            let vals = t.row(r);
            t.insert(&vals);
        }
        if round % 2 == 0 {
            // Half the rounds run the next batch over the mixed state;
            // the other half re-seal first.
            t.seal_segments();
        }
    }
    assert!(
        nonempty > (ROUNDS * PER_ROUND) / 3,
        "generator degenerated: only {nonempty}/{} queries returned rows",
        ROUNDS * PER_ROUND
    );
}
