//! Readers re-scan held snapshots while a writer appends into the buffers
//! those snapshots share.
//!
//! One writer appends to a fact-like table through a [`SharedDatabase`],
//! across two segment boundaries, sealing the partial tail mid-run (the
//! seal must encode the rows the image sees, not what the buffer took
//! since) and appending on. Four readers take a snapshot at the start of
//! every round, when the row count — and so every answer — is known, and
//! then re-scan *every* snapshot they hold while the writer runs the round:
//! count and sum of an `I64`, an `I32`, a `Key` and a `Dict` column. A
//! snapshot's answers must stay what they were when it was taken, however
//! far the shared tail has grown.
//!
//! Rounds are fenced by barriers, so every snapshot is taken at a known row
//! count and every round's appends run beside scans of it; a reader keeps
//! scanning until the writer reports the round done and then once more.
//! Mismatches (and panics inside a scan) are collected, not propagated, so
//! a failure cannot strand the other threads at a barrier. Sized down under Miri
//! (`cargo miri test -p astore-storage`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use astore_storage::prelude::*;

const SEG_ROWS: usize = if cfg!(miri) { 8 } else { 128 };
const ROUNDS: usize = if cfg!(miri) { 5 } else { 20 };
/// 2.5 segments in all: two boundaries crossed, a partial tail at the end.
const PER_ROUND: usize = SEG_ROWS * 5 / 2 / ROUNDS;
const READERS: usize = 4;
/// The round after which the writer seals the (partial) tail.
const SEAL_AFTER: usize = ROUNDS / 2;
const TAGS: [&str; 3] = ["x", "y", "z"];

/// Count and column sums of an image: `(rows, Σl, Σi, Σk, Σ dict code)`.
type Answers = (usize, i64, i64, i64, i64);

fn row(i: usize) -> [Value; 4] {
    [
        Value::Int(i as i64 * 1_000_003),
        Value::Int(i as i64 % 97 - 40),
        Value::Key((i % 5) as u32),
        Value::Str(TAGS[i % TAGS.len()].into()),
    ]
}

/// What a scan of the first `n` rows must answer (codes are interned in
/// order of first appearance, so tag `t` has code `t`).
fn expected(n: usize) -> Answers {
    (0..n).fold((n, 0, 0, 0, 0), |(c, l, i, k, d), r| {
        let r = r as i64;
        (c, l + r * 1_000_003, i + r % 97 - 40, k + r % 5, d + r % 3)
    })
}

fn scan(db: &Database) -> Answers {
    let t = db.table("f").unwrap();
    let l = t.column("l").unwrap().as_i64().unwrap();
    let i = t.column("i").unwrap().as_i32().unwrap();
    let (_, k) = t.column("k").unwrap().as_key().unwrap();
    let d = t.column("d").unwrap().as_dict().unwrap().codes();
    // Chunk by chunk, as the scan kernels bind them.
    let mut sums = (t.num_slots(), 0i64, 0i64, 0i64, 0i64);
    let mut rows = 0;
    for seg in 0..t.segment_count() {
        rows += l.chunk(seg).len();
        sums.1 += l.chunk(seg).decoded().iter().sum::<i64>();
        sums.2 += i.chunk(seg).decoded().iter().map(|&v| i64::from(v)).sum::<i64>();
        sums.3 += k.chunk(seg).decoded().iter().map(|&v| i64::from(v)).sum::<i64>();
        sums.4 += d.chunk(seg).decoded().iter().map(|&v| i64::from(v)).sum::<i64>();
    }
    assert_eq!(rows, sums.0, "the chunks add up to the image's slots");
    sums
}

/// [`scan`], with a panic inside it turned into answers no image has.
fn scan_caught(db: &Database) -> Answers {
    std::panic::catch_unwind(|| scan(db)).unwrap_or((usize::MAX, 0, 0, 0, 0))
}

#[test]
fn held_snapshots_keep_their_answers_while_the_tail_they_share_grows() {
    let mut t = Table::new(
        "f",
        Schema::new(vec![
            ColumnDef::new("l", DataType::I64),
            ColumnDef::new("i", DataType::I32),
            ColumnDef::new("k", DataType::Key { target: "dim".into() }),
            ColumnDef::new("d", DataType::Dict),
        ]),
    );
    t.set_segment_rows(SEG_ROWS);
    let mut db = Database::new();
    db.add_table(t);
    let shared = SharedDatabase::new(db);
    // Rounds the writer has finished; `start`/`end` fence each round.
    let done = AtomicUsize::new(0);
    let (start, end) = (Barrier::new(READERS + 1), Barrier::new(READERS + 1));
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let check = |got: Answers, want: Answers, what: String| {
        if got != want {
            failures.lock().unwrap().push(format!("{what}: {got:?}, expected {want:?}"));
        }
    };

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let mut held: Vec<(Arc<Database>, Answers)> = Vec::new();
                    let mut scans = 0usize;
                    for round in 0..ROUNDS {
                        // Nobody writes between `end` and `start`: the image
                        // holds exactly the rows of the finished rounds.
                        let snap = shared.snapshot();
                        let then = expected(round * PER_ROUND);
                        check(scan_caught(&snap), then, format!("round {round}: fresh snapshot"));
                        held.push((snap, then));
                        start.wait();
                        let mut last_pass = false;
                        while !last_pass {
                            last_pass = done.load(Ordering::Acquire) > round;
                            for (taken, (snap, then)) in held.iter().enumerate() {
                                check(
                                    scan_caught(snap),
                                    *then,
                                    format!("round {round}: snapshot@{taken}"),
                                );
                                scans += 1;
                            }
                        }
                        end.wait();
                    }
                    scans
                })
            })
            .collect();

        let mut sealed = None;
        for round in 0..ROUNDS {
            start.wait();
            for i in round * PER_ROUND..(round + 1) * PER_ROUND {
                shared.insert("f", &row(i));
            }
            if round == SEAL_AFTER {
                shared.write(|db| db.table_mut("f").unwrap().seal_segments());
                sealed = Some(shared.snapshot());
            }
            done.store(round + 1, Ordering::Release);
            end.wait();
        }
        for r in readers {
            let scans = r.join().expect("reader panicked");
            assert!(scans >= ROUNDS * (ROUNDS + 1) / 2, "every held snapshot was re-scanned");
        }
        assert_eq!(*failures.lock().unwrap(), Vec::<String>::new());

        // The seal found a partial tail and encoded the rows its image saw.
        let sealed = sealed.expect("the writer sealed mid-run");
        let rows = (SEAL_AFTER + 1) * PER_ROUND;
        assert_eq!(scan(&sealed), expected(rows));
        let t = sealed.table("f").unwrap();
        assert!(
            !rows.is_multiple_of(SEG_ROWS)
                && t.column_at(0).chunk_encoding(rows / SEG_ROWS).is_some()
        );
        let copies = t.append_copies();
        let now = shared.snapshot();
        assert_eq!(scan(&now), expected(ROUNDS * PER_ROUND));
        let t = now.table("f").unwrap();
        assert_eq!(t.segment_count(), 3, "two segment boundaries were crossed");
        // The sealed tail was decoded once per column, and its reserved
        // space doubled at most once more before the segment filled.
        assert!([4, 8].contains(&(t.append_copies() - copies)), "{}", t.append_copies() - copies);
    });
}
