//! Seeded model check of segment-granular copy-on-write over chunk slots
//! that flip between their two representations.
//!
//! A fact table takes a random stream of inserts, updates, deletes, seals,
//! compaction installs (half of them raced by a write between encode and
//! install), re-segmentations and consolidations through a
//! [`SharedDatabase`] while several snapshots are held open. A naive
//! row-vector model mirrors every write. After every step the chunks the
//! new image no longer shares with the previous one must be exactly the
//! ones the step may touch, each in the representation the step leaves it
//! in (an overwrite: flat; an append: **shared**, unless the table counted
//! a tail copy; a seal or install: encoded, same values; a delete: none)
//! and a raced install must be refused — raced by an overwrite or by an
//! append. Appends write into buffers that older images go on sharing, so
//! after *every* step a window of the most recent images is re-read row for
//! row against the model each had: a snapshot must never see a row appended
//! after it. Two more shapes exercise the exchange that decides who may
//! extend a shared tail: a *fork* (two clones of one image both append; the
//! loser copies, both stay right, the loser stays held) and a *discarded
//! batch* (a clone appends in place and is dropped unpublished; the live
//! table appends next and must not expose the orphaned rows). At every
//! checkpoint each held snapshot must still read *its own* image and on
//! every image the engines must agree with each other and with the answer
//! computed from the model: the AIR scan, the AIR scan with pruning off,
//! the AIR scan over a decoded copy, and the hash-join pipeline.
//!
//! `COW_MODEL_SEED=<n>` runs one extra seed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use astore_baseline::engine::execute_hash_pipeline;
use astore_core::prelude::*;
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const DIM_ROWS: u32 = 24;
const GROUPS: [&str; 4] = ["north", "south", "east", "west"];
const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// One fact row of the model: `(f_d, f_i, f_l, f_s)`.
type Row = (u32, i64, i64, String);

fn seed_db() -> Database {
    let mut dim = Table::new(
        "d",
        Schema::new(vec![
            ColumnDef::new("d_grp", DataType::Dict),
            ColumnDef::new("d_flag", DataType::I32),
        ]),
    );
    for r in 0..DIM_ROWS {
        dim.append_row(&[
            Value::Str(GROUPS[r as usize % GROUPS.len()].into()),
            Value::Int(i64::from(r % 3)),
        ]);
    }
    let mut fact = Table::new(
        "f",
        Schema::new(vec![
            ColumnDef::new("f_d", DataType::Key { target: "d".into() }),
            ColumnDef::new("f_i", DataType::I32),
            ColumnDef::new("f_l", DataType::I64),
            ColumnDef::new("f_s", DataType::Dict),
        ]),
    );
    fact.set_segment_rows(32);
    dim.seal_segments(); // AIR chases and leaf predicates read encoded chunks
    let mut db = Database::new();
    db.add_table(dim);
    db.add_table(fact);
    db
}

fn random_row(rng: &mut SmallRng) -> Row {
    let key = if rng.gen_range(0..20u32) == 0 { NULL_KEY } else { rng.gen_range(0..DIM_ROWS) };
    (
        key,
        rng.gen_range(-50..50i64),
        rng.gen_range(0..1000i64),
        TAGS[rng.gen_range(0..TAGS.len())].to_owned(),
    )
}

fn values(row: &Row) -> Vec<Value> {
    vec![Value::Key(row.0), Value::Int(row.1), Value::Int(row.2), Value::Str(row.3.clone())]
}

/// A random live slot of the model, if any.
fn random_live(rng: &mut SmallRng, model: &[Option<Row>]) -> Option<usize> {
    let live: Vec<usize> = (0..model.len()).filter(|&r| model[r].is_some()).collect();
    (!live.is_empty()).then(|| live[rng.gen_range(0..live.len())])
}

/// The `(column, segment)` chunks `after` does not share with `before`.
fn unshared(before: &Table, after: &Table) -> Vec<(usize, usize)> {
    let segs = before.segment_count().max(after.segment_count());
    (0..after.schema().arity())
        .flat_map(|c| (0..segs).map(move |seg| (c, seg)))
        .filter(|&(c, seg)| !after.column_at(c).shares_chunk(before.column_at(c), seg))
        .collect()
}

/// Every column's chunk of segment `seg`.
fn whole_segment(t: &Table, seg: usize) -> Vec<(usize, usize)> {
    (0..t.schema().arity()).map(|c| (c, seg)).collect()
}

fn is_encoded(t: &Table, (c, seg): (usize, usize)) -> bool {
    t.column_at(c).chunk_encoding(seg).is_some()
}

/// The chunks a seal or an install replaced: each was flat, is encoded now,
/// and nothing else moved. (Values are checked against the model at the
/// next checkpoint.)
fn check_re_encoded(before: &Table, after: &Table, within: Option<usize>, ctx: &str) {
    for slot in unshared(before, after) {
        assert!(within.is_none_or(|seg| seg == slot.1), "{ctx}: touched {slot:?}");
        assert!(!is_encoded(before, slot) && is_encoded(after, slot), "{ctx}: {slot:?}");
    }
}

/// Applies one random write to the live database and mirrors it in the
/// model, checking which chunks the new image no longer shares with the
/// previous one. Returns a label for failure messages.
fn step(rng: &mut SmallRng, shared: &SharedDatabase, model: &mut Vec<Option<Row>>) -> &'static str {
    let fact = |f: &mut dyn FnMut(&mut Table)| shared.write(|db| f(db.table_mut("f").unwrap()));
    // Held across the write: every chunk is shared, so every touched chunk
    // is replaced and shows up in `unshared`.
    let before = shared.snapshot();
    let before = before.table("f").unwrap();
    let seg_rows = before.segment_rows();
    let after = || shared.snapshot();
    match rng.gen_range(0..100u32) {
        0..=39 => {
            let row = random_row(rng);
            let mut slot = 0;
            fact(&mut |t| slot = t.insert(&values(&row)) as usize);
            if slot == model.len() {
                model.push(Some(row));
            } else {
                assert!(model[slot].is_none(), "insert reused a live slot");
                model[slot] = Some(row);
            }
            let now = after();
            let now = now.table("f").unwrap();
            let touched = whole_segment(now, slot / seg_rows);
            assert!(touched.iter().all(|&s| !is_encoded(now, s)), "insert left a chunk encoded");
            let copied = now.append_copies() - before.append_copies();
            if slot < before.num_slots() {
                // A reuse overwrites: every column's chunk of one segment.
                assert_eq!(unshared(before, now), touched, "reuse of slot {slot}");
                assert_eq!(copied, 0, "a reuse is not an append");
                "insert (reuse)"
            } else if slot.is_multiple_of(seg_rows) {
                // A segment starts: new chunks, nothing to copy.
                assert_eq!(unshared(before, now), touched, "append opening slot {slot}");
                assert_eq!(copied, 0, "a fresh chunk is not a copy");
                "insert (new segment)"
            } else {
                // An append into the filling tail: shared with the held
                // image, except the chunks the table says it had to copy —
                // among them every one that was sealed.
                let moved = unshared(before, now);
                assert_eq!(moved.len() as u64, copied, "append into slot {slot}: {moved:?}");
                assert!(moved.iter().all(|s| touched.contains(s)), "append touched {moved:?}");
                assert!(touched.iter().all(|&s| !is_encoded(before, s) || moved.contains(&s)));
                "insert (append)"
            }
        }
        40..=64 => {
            let Some(r) = random_live(rng, model) else { return "update (no rows)" };
            let col = update_random_column(rng, shared, model, r);
            let now = after();
            let now = now.table("f").unwrap();
            assert_eq!(unshared(before, now), [(col, r / seg_rows)], "update of slot {r}");
            assert!(!is_encoded(now, (col, r / seg_rows)), "update left its chunk encoded");
            "update"
        }
        65..=79 => {
            let Some(r) = random_live(rng, model) else { return "delete (no rows)" };
            fact(&mut |t| assert!(t.delete(r as RowId)));
            model[r] = None;
            assert_eq!(unshared(before, after().table("f").unwrap()), [], "delete of slot {r}");
            "delete"
        }
        80..=84 => {
            fact(&mut |t| {
                t.seal_segments();
            });
            let now = after();
            let now = now.table("f").unwrap();
            check_re_encoded(before, now, None, "seal");
            assert!((0..now.segment_count()).all(|seg| now.segment_written(seg).is_none()));
            "seal"
        }
        85..=91 => {
            // The compactor's two halves: encode from a snapshot, install
            // against the live table — half the time with a write to the
            // segment in between, which must get the install refused.
            if before.segment_count() == 0 {
                return "compact (empty)";
            }
            let seg = rng.gen_range(0..before.segment_count());
            let mut enc = Some(before.encode_segment_now(seg));
            let mut racer = (seg * seg_rows..((seg + 1) * seg_rows).min(model.len()))
                .find(|&r| model[r].is_some())
                .filter(|_| rng.gen_range(0..2u32) == 0);
            if let Some(r) = racer {
                update_random_column(rng, shared, model, r);
            } else if !model.len().is_multiple_of(seg_rows) && seg == before.segment_count() - 1 {
                // The filling tail, raced by an append: the chunks stay the
                // allocations the encode read — only the row count tells.
                let row = random_row(rng);
                fact(&mut |t| assert_eq!(t.append_row(&values(&row)) as usize, model.len()));
                racer = Some(model.len());
                model.push(Some(row));
            }
            let raced = shared.snapshot();
            let mut installed = false;
            fact(&mut |t| installed = t.install_compacted(seg, enc.take().unwrap()));
            assert_eq!(installed, racer.is_none(), "install of segment {seg}, racer {racer:?}");
            let now = after();
            let now = now.table("f").unwrap();
            if installed {
                check_re_encoded(before, now, Some(seg), "install");
                assert!(now.segment_written(seg).is_none());
                assert_eq!(now.encode_segment_now(seg).encoded_cols(), 0, "nothing left to encode");
            } else {
                assert_eq!(
                    unshared(raced.table("f").unwrap(), now),
                    [],
                    "a refusal changes nothing"
                );
                assert!(now.segment_written(seg).is_some());
            }
            if installed {
                "compact"
            } else {
                "compact (raced)"
            }
        }
        92..=95 => {
            let rows = [8usize, 16, 32, 48, 64, 100][rng.gen_range(0..6usize)];
            fact(&mut |t| t.set_segment_rows(rows));
            "set_segment_rows"
        }
        _ => {
            shared.consolidate("f");
            model.retain(Option::is_some);
            "consolidate"
        }
    }
}

/// Updates one random column of live slot `r`, in the database and in the
/// model; returns the column's position.
fn update_random_column(
    rng: &mut SmallRng,
    shared: &SharedDatabase,
    model: &mut [Option<Row>],
    r: usize,
) -> usize {
    let fresh = random_row(rng);
    let row = model[r].as_mut().unwrap();
    let (pos, col, v) = match rng.gen_range(0..4u32) {
        0 => {
            row.0 = fresh.0;
            (0, "f_d", Value::Key(fresh.0))
        }
        1 => {
            row.1 = fresh.1;
            (1, "f_i", Value::Int(fresh.1))
        }
        2 => {
            row.2 = fresh.2;
            (2, "f_l", Value::Int(fresh.2))
        }
        _ => {
            // Sometimes a value the dictionary has never seen.
            let s = if rng.gen_range(0..4u32) == 0 {
                format!("new{}", rng.gen_range(0..1000u32))
            } else {
                fresh.3
            };
            row.3 = s.clone();
            (3, "f_s", Value::Str(s))
        }
    };
    shared.update("f", r as RowId, col, &v);
    pos
}

/// The engines on `q` over `db` (and over `flat`, its decoded copy),
/// checked against `expect`.
fn check_query(db: &Database, flat: &Database, q: &Query, expect: Vec<Vec<Value>>, ctx: &str) {
    let expect = QueryResult { columns: q.output_names(), rows: expect };
    let air = execute(db, q, &ExecOptions::default()).unwrap().result;
    let unpruned = execute(db, q, &ExecOptions::default().pruning(false)).unwrap().result;
    let decoded = execute(flat, q, &ExecOptions::default()).unwrap().result;
    let join = execute_hash_pipeline(db, q).unwrap().result;
    assert!(air.same_contents(&expect, 1e-9), "{ctx}: AIR\n{air:?}\nvs model\n{expect:?}");
    assert!(unpruned.same_contents(&air, 1e-9), "{ctx}: pruning(false)\n{unpruned:?}\nvs\n{air:?}");
    assert!(decoded.same_contents(&air, 0.0), "{ctx}: decoded copy\n{decoded:?}\nvs\n{air:?}");
    assert!(join.same_contents(&air, 1e-9), "{ctx}: hash join\n{join:?}\nvs AIR\n{air:?}");
}

/// Checks that `db`'s fact table holds exactly `model`, slot for slot.
fn check_rows(db: &Database, model: &[Option<Row>], ctx: &str) {
    let t = db.table("f").unwrap();
    assert_eq!(t.num_slots(), model.len(), "{ctx}: slot count");
    assert_eq!(t.num_live(), model.iter().flatten().count(), "{ctx}: live count");
    for (r, m) in model.iter().enumerate() {
        assert_eq!(t.is_live(r as RowId), m.is_some(), "{ctx}: liveness of slot {r}");
        if let Some(row) = m {
            assert_eq!(t.row(r as RowId), values(row), "{ctx}: slot {r}");
        }
    }
}

/// Checks that `db` holds exactly `model`, physically and through queries.
fn check_image(db: &Database, model: &[Option<Row>], rng: &mut SmallRng, ctx: &str) {
    check_rows(db, model, ctx);
    let flat = &db.decoded();
    let live = || model.iter().flatten();
    let grp = |k: u32| GROUPS[k as usize % GROUPS.len()];
    let flag = |k: u32| i64::from(k % 3);

    // Q1: fact range predicate, group by a dimension attribute.
    let (lo, hi) = (rng.gen_range(-50..0i64), rng.gen_range(0..50i64));
    let q = Query::new()
        .filter("f", Pred::between("f_i", lo, hi))
        .group("d", "d_grp")
        .agg(Aggregate::sum(MeasureExpr::col("f_l"), "s"))
        .agg(Aggregate::count("n"));
    let mut groups: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for row in live().filter(|r| r.0 != NULL_KEY && (lo..=hi).contains(&r.1)) {
        let e = groups.entry(grp(row.0)).or_default();
        e.0 += row.2;
        e.1 += 1;
    }
    let expect = groups
        .into_iter()
        .map(|(g, (s, n))| vec![Value::Str(g.into()), Value::Float(s as f64), Value::Int(n)])
        .collect();
    check_query(db, flat, &q, expect, &format!("{ctx} Q1[{lo},{hi}]"));

    // Q2: dimension predicate + dictionary predicate on the fact, scalar.
    let tag = TAGS[rng.gen_range(0..TAGS.len())];
    let q = Query::new()
        .root("f")
        .filter("d", Pred::eq("d_flag", 1))
        .filter("f", Pred::eq("f_s", tag))
        .agg(Aggregate::count("n"))
        .agg(Aggregate::sum(MeasureExpr::col("f_i"), "s"));
    let hits: Vec<&Row> =
        live().filter(|r| r.0 != NULL_KEY && flag(r.0) == 1 && r.3 == tag).collect();
    let sum: i64 = hits.iter().map(|r| r.1).sum();
    // A scalar aggregate over no rows yields no row.
    let expect = if hits.is_empty() {
        vec![]
    } else {
        vec![vec![Value::Int(hits.len() as i64), Value::Float(sum as f64)]]
    };
    check_query(db, flat, &q, expect, &format!("{ctx} Q2[{tag}]"));

    // Q3: fact-local grouping and predicate (no chain: NULL keys count).
    let floor = rng.gen_range(0..1000i64);
    let q = Query::new()
        .root("f")
        .filter("f", Pred::cmp("f_l", CmpOp::Ge, floor))
        .group("f", "f_s")
        .agg(Aggregate::sum(MeasureExpr::col("f_l"), "s"));
    let mut groups: BTreeMap<&str, i64> = BTreeMap::new();
    for row in live().filter(|r| r.2 >= floor) {
        *groups.entry(row.3.as_str()).or_default() += row.2;
    }
    let expect = groups
        .into_iter()
        .map(|(g, s)| vec![Value::Str(g.into()), Value::Float(s as f64)])
        .collect();
    check_query(db, flat, &q, expect, &format!("{ctx} Q3[{floor}]"));
}

/// An image and the model it must keep reading as.
type Held = (String, Arc<Database>, Vec<Option<Row>>);

/// The chunks of the filling tail `t` shares with `other`.
fn shared_tail(t: &Table, other: &Table) -> usize {
    let tail = t.segment_count() - 1;
    (0..t.schema().arity())
        .filter(|&c| t.column_at(c).shares_chunk(other.column_at(c), tail))
        .count()
}

/// Two clones of the published image both append. Whoever appends first
/// extends the shared tail in place; the other loses the exchange and
/// copies. Both must read as the model plus their own rows, the published
/// image as the model. The winner is published; the loser is returned, to
/// stay held beside it.
fn fork(rng: &mut SmallRng, shared: &SharedDatabase, model: &mut Vec<Option<Row>>) -> Held {
    let base = shared.snapshot();
    let (mut a, mut b) = ((*base).clone(), (*base).clone());
    let (mut model_a, mut model_b) = (model.clone(), model.clone());
    for _ in 0..rng.gen_range(1..4u32) {
        for (db, m) in [(&mut a, &mut model_a), (&mut b, &mut model_b)] {
            let row = random_row(rng);
            assert_eq!(db.table_mut("f").unwrap().append_row(&values(&row)) as usize, m.len());
            m.push(Some(row));
        }
    }
    check_rows(&base, model, "fork: base");
    check_rows(&a, &model_a, "fork: first appender");
    check_rows(&b, &model_b, "fork: second appender");
    // Inside one segment with room behind a flat tail, the first appender
    // wrote in place (still sharing with the base) and the second copied.
    let (tb, ta, tl) = (base.table("f").unwrap(), a.table("f").unwrap(), b.table("f").unwrap());
    if tb.segment_count() == ta.segment_count() && ta.append_copies() == tb.append_copies() {
        assert_eq!(shared_tail(ta, tb), tb.schema().arity(), "the winner extends in place");
        assert_eq!(shared_tail(tl, tb), 0, "the loser copies every tail chunk");
        assert_eq!(tl.append_copies() - tb.append_copies(), tb.schema().arity() as u64);
    }
    shared.replace(Arc::new(a));
    *model = model_a;
    ("fork loser".to_owned(), Arc::new(b), model_b)
}

/// A batch that is applied to a private clone and thrown away (the commit
/// path after a failed WAL append): its appends landed in the shared tail's
/// reserved space, beyond every length anybody holds. The next real append
/// must not expose them.
fn discarded_batch(rng: &mut SmallRng, shared: &SharedDatabase, model: &mut Vec<Option<Row>>) {
    let base = shared.snapshot();
    let mut work = (*base).clone();
    let mut then = model.clone();
    for _ in 0..rng.gen_range(1..4u32) {
        let row = random_row(rng);
        work.table_mut("f").unwrap().append_row(&values(&row));
        then.push(Some(row));
    }
    check_rows(&work, &then, "discarded batch, before the drop");
    drop(work);
    check_rows(&base, model, "discarded batch: published image");
    let row = random_row(rng);
    shared.write(|db| db.table_mut("f").unwrap().append_row(&values(&row)));
    model.push(Some(row));
    check_rows(&shared.snapshot(), model, "append after a discarded batch");
    check_rows(&base, &model[..model.len() - 1], "discarded batch: held image afterwards");
}

fn run(seed: u64) {
    const STEPS: usize = 1500;
    const CHECK_EVERY: usize = 40;
    const MAX_HELD: usize = 4;
    /// Images re-read after every step (besides the sparse `held` ones).
    const WINDOW: usize = 4;
    let mut rng = SmallRng::seed_from_u64(seed);
    let shared = SharedDatabase::new(seed_db());
    let mut model: Vec<Option<Row>> = Vec::new();
    let mut held: Vec<Held> = Vec::new();
    let mut recent: VecDeque<Held> = VecDeque::new();
    for i in 1..=STEPS {
        let op = match rng.gen_range(0..40u32) {
            0 => {
                let loser = fork(&mut rng, &shared, &mut model);
                if held.len() == MAX_HELD {
                    held.remove(rng.gen_range(0..MAX_HELD));
                }
                held.push(loser);
                "fork"
            }
            1 => {
                discarded_batch(&mut rng, &shared, &mut model);
                "discarded batch"
            }
            _ => step(&mut rng, &shared, &mut model),
        };
        if rng.gen_range(0..12u32) == 0 {
            if held.len() == MAX_HELD {
                held.remove(rng.gen_range(0..MAX_HELD));
            }
            held.push((format!("snapshot@{i}"), shared.snapshot(), model.clone()));
        }
        // Whatever this step appended, no earlier image may see it.
        if recent.len() == WINDOW {
            recent.pop_front();
        }
        recent.push_back((format!("image@{i}"), shared.snapshot(), model.clone()));
        for (what, snap, then) in recent.iter().chain(&held) {
            check_rows(snap, then, &format!("seed {seed} step {i} (after {op}) {what}"));
        }
        if i % CHECK_EVERY == 0 || i == STEPS {
            let ctx = format!("seed {seed} step {i} (after {op})");
            check_image(&shared.snapshot(), &model, &mut rng, &format!("{ctx} live"));
            for (what, snap, then) in &held {
                check_image(snap, then, &mut rng, &format!("{ctx} {what}"));
            }
        }
    }
}

/// Ten thousand appends, each against a held snapshot of the image before
/// it: an append that the table does not count as a copy leaves every tail
/// chunk shared, and the copies it does count are O(log) per column and
/// segment — the tail's reserved space doubles — not one per append.
#[test]
fn appends_against_held_snapshots_copy_the_tail_logarithmically() {
    const APPENDS: usize = 10_000;
    const SEG_ROWS: usize = 4096;
    let mut rng = SmallRng::seed_from_u64(7);
    let shared = SharedDatabase::new(seed_db());
    shared.write(|db| db.table_mut("f").unwrap().set_segment_rows(SEG_ROWS));
    let mut model: Vec<Option<Row>> = Vec::new();
    let mut window: VecDeque<(Arc<Database>, usize)> = VecDeque::new();
    let mut in_place = 0usize;
    for i in 0..APPENDS {
        let before = shared.snapshot();
        let row = random_row(&mut rng);
        shared.insert("f", &values(&row));
        model.push(Some(row));
        let now = shared.snapshot();
        let (old, new) = (before.table("f").unwrap(), now.table("f").unwrap());
        if !i.is_multiple_of(SEG_ROWS) && new.append_copies() == old.append_copies() {
            assert_eq!(shared_tail(new, old), 4, "append {i} left the tail shared");
            in_place += 1;
        }
        // Held images keep their length and their last row while the tail
        // they share grows under them; a full read every so often.
        window.push_back((before, i));
        if window.len() > 8 {
            window.pop_front();
        }
        for (snap, n) in &window {
            let t = snap.table("f").unwrap();
            assert_eq!(t.num_slots(), *n, "image of {n} rows after append {i}");
            if let Some(last) = n.checked_sub(1) {
                assert_eq!(t.row(last as RowId), values(model[last].as_ref().unwrap()));
            }
            if i % 1000 == 999 {
                check_rows(snap, &model[..*n], &format!("image of {n} rows after append {i}"));
            }
        }
    }
    let t = shared.snapshot();
    let t = t.table("f").unwrap();
    // Per column and segment: 64 → 128 → … → 4096 rows of room, six copies.
    let per_segment = (SEG_ROWS / 64).ilog2() as u64;
    let segments = APPENDS.div_ceil(SEG_ROWS) as u64;
    assert!(t.append_copies() <= 4 * segments * per_segment, "{} tail copies", t.append_copies());
    assert!(t.append_copies() >= 4 * (segments - 1) * per_segment, "the tail does grow by copying");
    assert_eq!(in_place + t.append_copies() as usize / 4 + segments as usize, APPENDS);
    check_image(&shared.snapshot(), &model, &mut rng, "after 10 000 appends");
}

#[test]
fn snapshots_keep_their_image_and_engines_agree_under_random_writes() {
    let extra = std::env::var("COW_MODEL_SEED").ok().map(|s| s.parse().expect("numeric seed"));
    for seed in [1u64, 2, 3].into_iter().chain(extra) {
        run(seed);
    }
}
