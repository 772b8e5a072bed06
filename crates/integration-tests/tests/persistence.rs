//! Crash-recovery and snapshot-durability tests.
//!
//! Three layers of paranoia:
//!
//! 1. **Kill-at-any-byte WAL recovery** — a WAL of random committed writes
//!    is cut at *every* byte boundary and bit-flipped at every byte;
//!    recovery must always yield exactly the state after some prefix of the
//!    committed statements, never panic, and never expose a torn row
//!    (a multi-column invariant violated mid-statement).
//! 2. **Snapshot round-trips** — SSB at SF 0.01 saved and reloaded must
//!    answer all 13 SSB queries bit-identically to the in-memory original.
//! 3. **Golden snapshot** — a checked-in fixture pins the version-1 byte
//!    layout; any silent format drift fails the suite until the version is
//!    bumped (regenerate with `ASTORE_BLESS_GOLDEN=1`).

use std::path::PathBuf;

use astore_core::prelude::*;
use astore_datagen::ssb;
use astore_persist::snapshot::{encode_snapshot, load_snapshot, save_snapshot};
use astore_persist::wal::scan_wal;
use astore_persist::{apply_statement, store};
use astore_sql::{parse_template, StatementTemplate};
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astore-it-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Full structural equality of two databases: schemas, slots, live bitmaps,
/// free lists and every slot's contents (dead slots included — recovery must
/// reproduce the exact array-family layout, not just the live rows).
fn assert_identical(a: &Database, b: &Database, ctx: &str) {
    assert_eq!(a.table_names(), b.table_names(), "{ctx}: table set");
    for name in a.table_names() {
        let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
        assert_eq!(ta.schema().defs(), tb.schema().defs(), "{ctx}: {name} schema");
        assert_eq!(ta.num_slots(), tb.num_slots(), "{ctx}: {name} slots");
        assert_eq!(ta.live_bitmap(), tb.live_bitmap(), "{ctx}: {name} live bitmap");
        assert_eq!(ta.free_slots(), tb.free_slots(), "{ctx}: {name} free list");
        for row in 0..ta.num_slots() as RowId {
            assert_eq!(ta.row(row), tb.row(row), "{ctx}: {name}[{row}]");
        }
    }
}

/// The crash-test schema: a dimension plus a fact whose rows carry the
/// invariant `b == 2 * a` — a torn (partially applied) multi-column write
/// would break it.
fn crash_seed() -> Database {
    let mut dim = Table::new("dim", Schema::new(vec![ColumnDef::new("d_v", DataType::I32)]));
    for v in 0..4 {
        dim.append_row(&[Value::Int(v)]);
    }
    let mut pair = Table::new(
        "pair",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Key { target: "dim".into() }),
            ColumnDef::new("a", DataType::I64),
            ColumnDef::new("b", DataType::I64),
        ]),
    );
    for i in 0..4i64 {
        pair.append_row(&[Value::Key((i % 4) as u32), Value::Int(i), Value::Int(2 * i)]);
    }
    let mut db = Database::new();
    db.add_table(dim);
    db.add_table(pair);
    db
}

/// A random committed write against the crash schema, always preserving the
/// `b == 2a` invariant *per statement* (multi-row inserts and multi-column
/// updates are atomic, so only whole-statement application may ever show).
fn random_stmt(rng: &mut SmallRng, db: &Database) -> String {
    let pair = db.table("pair").unwrap();
    let live: Vec<RowId> = (0..pair.num_slots() as RowId).filter(|&r| pair.is_live(r)).collect();
    match rng.gen_range(0..10u32) {
        // Multi-row insert (1–3 rows).
        0..=4 => {
            let n = rng.gen_range(1..=3u32);
            let rows: Vec<String> = (0..n)
                .map(|_| {
                    let k = rng.gen_range(0..4u32);
                    let a = rng.gen_range(-1000..1000i64);
                    format!("({k}, {a}, {})", 2 * a)
                })
                .collect();
            format!("INSERT INTO pair VALUES {}", rows.join(", "))
        }
        // Multi-column update keeping the invariant.
        5..=7 if !live.is_empty() => {
            let row = live[rng.gen_range(0..live.len())];
            let a = rng.gen_range(-1000..1000i64);
            format!("UPDATE pair SET a = {a}, b = {} WHERE rowid = {row}", 2 * a)
        }
        // Delete (keep at least one live row so updates stay possible).
        _ if live.len() > 1 => {
            let row = live[rng.gen_range(0..live.len())];
            format!("DELETE FROM pair WHERE rowid = {row}")
        }
        _ => "INSERT INTO pair VALUES (0, 1, 2)".into(),
    }
}

fn check_invariant(db: &Database, ctx: &str) {
    let pair = db.table("pair").unwrap();
    for row in 0..pair.num_slots() as RowId {
        if !pair.is_live(row) {
            continue;
        }
        let vals = pair.row(row);
        let (Value::Int(a), Value::Int(b)) = (&vals[1], &vals[2]) else {
            panic!("{ctx}: unexpected types in pair[{row}]: {vals:?}");
        };
        assert_eq!(*b, 2 * a, "{ctx}: torn row pair[{row}]");
    }
}

/// Builds the crash fixture: a bootstrapped data dir with `N` random
/// committed statements in the WAL, plus the expected database state after
/// every statement prefix (`states[k]` = state after `k` statements).
fn crash_fixture(dir: &PathBuf, n: usize, seed: u64) -> (Vec<Database>, Vec<u8>) {
    let mut db = crash_seed();
    let mut wal = store::bootstrap(dir, &db).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut states = vec![db.clone()];
    for _ in 0..n {
        let sql = random_stmt(&mut rng, &db);
        let Ok(StatementTemplate::Write(w)) = parse_template(&sql) else { panic!("{sql}") };
        let stmt = w.bind(&[]).unwrap();
        apply_statement(&mut db, &stmt).unwrap();
        wal.append(&sql).unwrap();
        states.push(db.clone());
    }
    drop(wal);
    let wal_bytes = std::fs::read(store::wal_path(dir)).unwrap();
    (states, wal_bytes)
}

#[test]
fn kill_at_every_byte_boundary_recovers_a_committed_prefix() {
    const N: usize = 30;
    let dir = tmpdir("killbyte");
    let (states, wal_bytes) = crash_fixture(&dir, N, 0xC4A5);
    let wal_file = store::wal_path(&dir);

    // Cut the WAL at every byte boundary — including mid-header, mid-length,
    // mid-CRC and mid-payload of every record — and recover each time.
    for cut in 0..=wal_bytes.len() {
        std::fs::write(&wal_file, &wal_bytes[..cut]).unwrap();
        let rec = store::open(&dir)
            .unwrap_or_else(|e| panic!("recovery must not fail at cut {cut}: {e}"));
        let k = rec.replayed;
        assert!(k <= N, "cut {cut}: replayed {k} > {N} committed");
        assert_identical(&states[k], &rec.db, &format!("cut {cut} (prefix {k})"));
        check_invariant(&rec.db, &format!("cut {cut}"));
        // Monotonicity: cutting at the full length yields everything.
        if cut == wal_bytes.len() {
            assert_eq!(k, N, "full WAL replays every committed statement");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupting_any_single_byte_recovers_a_committed_prefix() {
    const N: usize = 20;
    let dir = tmpdir("flipbyte");
    let (states, wal_bytes) = crash_fixture(&dir, N, 0xF11F);
    let wal_file = store::wal_path(&dir);

    for i in 0..wal_bytes.len() {
        let mut bad = wal_bytes.clone();
        bad[i] ^= 0x20;
        std::fs::write(&wal_file, &bad).unwrap();
        let rec = store::open(&dir)
            .unwrap_or_else(|e| panic!("recovery must not fail with byte {i} flipped: {e}"));
        let k = rec.replayed;
        assert!(k <= N, "flip {i}: replayed too much");
        assert_identical(&states[k], &rec.db, &format!("flip at byte {i} (prefix {k})"));
        check_invariant(&rec.db, &format!("flip {i}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crc_flip_drops_exactly_the_damaged_record() {
    const N: usize = 12;
    let dir = tmpdir("crcflip");
    let (states, wal_bytes) = crash_fixture(&dir, N, 0xCCCC);
    let wal_file = store::wal_path(&dir);

    // Locate the last record's CRC field: scan the intact file, then the
    // committed length of the N-1 prefix is where the last frame starts.
    let full = scan_wal(&wal_bytes);
    assert_eq!(full.records.len(), N);
    let mut cut = wal_bytes.len();
    while scan_wal(&wal_bytes[..cut - 1]).records.len() == N {
        cut -= 1;
    }
    let last_frame_start = {
        // Walk back to the frame boundary: committed_len of a scan that saw
        // one record fewer.
        let s = scan_wal(&wal_bytes[..cut - 1]);
        assert_eq!(s.records.len(), N - 1);
        s.committed_len
    };
    // Bytes 4..8 of a frame are its CRC.
    let mut bad = wal_bytes.clone();
    bad[last_frame_start + 5] ^= 0xFF;
    std::fs::write(&wal_file, &bad).unwrap();
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed, N - 1, "exactly the CRC-damaged record is dropped");
    assert!(rec.truncated_tail);
    assert_identical(&states[N - 1], &rec.db, "crc flip");
    // The truncation is persistent: a second recovery sees a clean log.
    let rec2 = store::open(&dir).unwrap();
    assert_eq!(rec2.replayed, N - 1);
    assert!(!rec2.truncated_tail);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An embedded connection over a durable engine writes through the
/// server's group commit and WAL: the acknowledged writes survive dropping
/// the connection without a checkpoint, recovery replays exactly them, and
/// a rejected write never reaches the log.
#[test]
fn embedded_writes_on_a_durable_engine_recover() {
    use astore_api::{Connection, EmbeddedConnection};
    use astore_server::{Durability, Engine};
    use astore_storage::snapshot::SharedDatabase;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    let dir = tmpdir("embedded");
    let seed = crash_seed();
    let wal = store::bootstrap(&dir, &seed).unwrap();
    let engine = Engine::new(SharedDatabase::new(seed)).durable(Durability::new(&dir, wal, 0));
    let mut conn = EmbeddedConnection::over(Arc::new(engine));
    let insert = conn.prepare("INSERT INTO pair VALUES (?, ?, ?)").unwrap();
    let update = conn.prepare("UPDATE pair SET a = ?, b = ? WHERE rowid = ?").unwrap();
    let delete = conn.prepare("DELETE FROM pair WHERE rowid = ?").unwrap();
    let mut acked = 0u64;
    for i in 0..20i64 {
        let row = [Value::Int(i % 4), Value::Int(i), Value::Int(2 * i)];
        assert_eq!(conn.execute_prepared(&insert, &row).unwrap(), 1);
        acked += 1;
    }
    let update_row = [Value::Int(7), Value::Int(14), Value::Int(0)];
    assert_eq!(conn.execute_prepared(&update, &update_row).unwrap(), 1);
    assert_eq!(conn.execute_prepared(&delete, &[Value::Int(1)]).unwrap(), 1);
    acked += 2;
    let dangling = [Value::Int(9), Value::Int(1), Value::Int(2)];
    let e = conn.execute_prepared(&insert, &dangling).unwrap_err();
    assert_eq!(e.code(), "write_error", "{e}");
    assert_eq!(conn.engine().stats().wal_records.load(Relaxed), acked);
    let live = conn.snapshot();
    assert_eq!(live.table("pair").unwrap().num_live(), 4 + 20 - 1);

    drop(conn); // crash: no checkpoint
    let rec = store::open(&dir).unwrap();
    assert_eq!(rec.replayed as u64, acked, "every acknowledged write replays, nothing else");
    assert_identical(&rec.db, &live, "recovered image");
    check_invariant(&rec.db, "recovered image");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ssb_snapshot_roundtrip_is_query_equivalent_for_all_13_queries() {
    let dir = tmpdir("ssb-roundtrip");
    let db = ssb::generate(0.01, 42);
    let path = dir.join("ssb.snapshot");
    save_snapshot(&db, &path).unwrap();
    let reloaded = load_snapshot(&path).unwrap();

    for sq in ssb::queries() {
        let mem = execute(&db, &sq.query, &ExecOptions::default()).unwrap();
        let disk = execute(&reloaded, &sq.query, &ExecOptions::default()).unwrap();
        // Zero tolerance: identical bytes in, bit-identical results out.
        assert!(
            mem.result.same_contents(&disk.result, 0.0),
            "{}: reloaded database answers differently",
            sq.id
        );
        assert_eq!(mem.result.rows.len(), disk.result.rows.len(), "{}", sq.id);
    }
    // And the byte encoding itself is stable under re-save.
    let again = encode_snapshot(&reloaded, 0);
    assert_eq!(std::fs::read(&path).unwrap(), again, "save→load→save must be byte-stable");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tpch_snapshot_roundtrip_is_byte_stable() {
    // Every TPC-H dictionary column comes out of the dictionary builder;
    // the file a save streams is the in-memory encoding, and it survives
    // load → save byte for byte.
    let dir = tmpdir("tpch-roundtrip");
    let db = astore_datagen::tpch::generate(0.01, 42);
    let path = dir.join("tpch.snapshot");
    save_snapshot(&db, &path).unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(on_disk, encode_snapshot(&db, 0), "one writer, file or Vec");
    let reloaded = load_snapshot(&path).unwrap();
    assert_identical(&db, &reloaded, "tpch");
    save_snapshot(&reloaded, &path).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), on_disk, "save→load→save must be byte-stable");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_loaded_image_reports_the_footprint_of_the_generated_one() {
    // The cold path (generate → seal) and the warm path (load) build the
    // same image: the per-owner gauges, which count capacity, agree.
    let gauges = |db: Database| -> [i64; 4] {
        let engine = astore_server::Engine::new(SharedDatabase::new(db));
        let reply = engine.handle_line(r#"{"cmd":"stats"}"#);
        let stats = reply.get("stats").unwrap();
        ["encoded_bytes", "flat_bytes", "dict_bytes", "str_heap_bytes"]
            .map(|k| stats.get(k).and_then(|v| v.as_i64()).unwrap_or_else(|| panic!("no {k}")))
    };
    let dir = tmpdir("gauges");
    let path = dir.join("ssb.snapshot");
    let db = ssb::generate(0.02, 42);
    save_snapshot(&db, &path).unwrap();
    let generated = gauges(db);
    let loaded = gauges(load_snapshot(&path).unwrap());
    assert!(generated.iter().all(|&g| g > 0), "every owner holds something: {generated:?}");
    assert_eq!(generated, loaded, "[encoded, flat, dict, str_heap] bytes");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_roundtrip_preserves_dirty_state() {
    // Deletes, slot reuse and in-place updates must survive, not just
    // bulk-loaded data.
    let dir = tmpdir("dirty");
    let mut db = ssb::generate(0.002, 7);
    {
        let lo = db.table_mut("lineorder").unwrap();
        let n = lo.num_slots();
        for i in (0..n).step_by(13) {
            lo.delete(i as RowId);
        }
    }
    let template = db.table("lineorder").unwrap().row(1);
    db.table_mut("lineorder").unwrap().insert(&template); // reuses a slot
    db.table_mut("lineorder").unwrap().update(1, "lo_revenue", &Value::Int(123_456));

    let path = dir.join("dirty.snapshot");
    save_snapshot(&db, &path).unwrap();
    let reloaded = load_snapshot(&path).unwrap();
    assert_identical(&db, &reloaded, "dirty state");

    // Same next-insert behaviour on both sides (free lists preserved).
    let mut a = db;
    let mut b = reloaded;
    let ra = a.table_mut("lineorder").unwrap().insert(&template);
    let rb = b.table_mut("lineorder").unwrap().insert(&template);
    assert_eq!(ra, rb, "slot reuse must match after reload");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Golden snapshot: pins the version-1 byte layout.
// ---------------------------------------------------------------------------

/// A deliberately small database touching every column kind, a dead slot, a
/// free-list entry, a NULL key and a dynamically-interned dictionary.
fn golden_database() -> Database {
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            ColumnDef::new("d_tag", DataType::Dict),
            ColumnDef::new("d_note", DataType::Str),
            ColumnDef::new("d_rank", DataType::I32),
        ]),
    );
    for (tag, note, rank) in
        [("zulu", "first", 3), ("alpha", "secönd", -1), ("mike", "", 7), ("alpha", "x", 0)]
    {
        dim.append_row(&[Value::Str(tag.into()), Value::Str(note.into()), Value::Int(rank)]);
    }
    dim.delete(2);
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
            ColumnDef::new("f_qty", DataType::I64),
            ColumnDef::new("f_price", DataType::F64),
        ]),
    );
    fact.append_row(&[Value::Key(0), Value::Int(10), Value::Float(1.25)]);
    fact.append_row(&[Value::Key(NULL_KEY), Value::Int(-3), Value::Float(-0.0)]);
    fact.append_row(&[Value::Key(3), Value::Int(1 << 40), Value::Float(2.5e-10)]);
    // Sealed, so the v3 golden exercises the encoded segment blocks
    // (packed dict codes, packed i32, packed keys with a NULL) alongside
    // raw fallbacks (strings, floats, the unpackable i64 span). The rows
    // themselves are frozen history — the v1/v2 fixtures decode to this
    // exact database, and their encoders ignore seals.
    dim.seal_segments();
    fact.seal_segments();
    let mut db = Database::new();
    db.add_table(dim);
    db.add_table(fact);
    db
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(format!("golden-v{}.snapshot", astore_persist::SNAPSHOT_VERSION))
}

#[test]
fn golden_snapshot_file_pins_the_format() {
    let expected = encode_snapshot(&golden_database(), 7);
    let path = golden_path();
    if std::env::var_os("ASTORE_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &expected).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), expected.len());
    }
    let on_disk = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "golden snapshot {} missing ({e}); if the format version was \
             bumped intentionally, regenerate it with ASTORE_BLESS_GOLDEN=1",
            path.display()
        )
    });
    // Writing today's encoder output must reproduce the checked-in bytes …
    assert_eq!(
        on_disk, expected,
        "snapshot byte layout drifted from the checked-in golden file: \
         bump SNAPSHOT_VERSION and re-bless instead of silently changing \
         a released format"
    );
    // … and reading the checked-in bytes must reproduce the database.
    let (db, lsn) = astore_persist::snapshot::decode_snapshot(&on_disk).unwrap();
    assert_eq!(lsn, 7);
    assert_identical(&golden_database(), &db, "golden decode");
}

// ---------------------------------------------------------------------------
// Backward compatibility: version-1 files keep loading after the v2 bump.
// ---------------------------------------------------------------------------

fn testdata_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("testdata").join(name)
}

#[test]
fn checked_in_v1_golden_still_loads() {
    // The v1 fixture is frozen history: it must decode forever, and the
    // legacy encoder must keep reproducing it byte for byte.
    let on_disk = std::fs::read(testdata_path("golden-v1.snapshot")).unwrap();
    let (db, lsn) = astore_persist::snapshot::decode_snapshot(&on_disk).unwrap();
    assert_eq!(lsn, 7);
    assert_identical(&golden_database(), &db, "v1 golden decode");
    assert_eq!(
        astore_persist::snapshot::encode_snapshot_v1(&golden_database(), 7),
        on_disk,
        "legacy v1 encoder drifted from the checked-in v1 bytes"
    );
}

#[test]
fn checked_in_v2_golden_still_loads() {
    // The v2 fixture (raw segmented columns, no encodings) is likewise
    // frozen: the v3 reader must keep decoding it, and the frozen v2
    // encoder must keep reproducing it byte for byte.
    let on_disk = std::fs::read(testdata_path("golden-v2.snapshot")).unwrap();
    let (db, lsn) = astore_persist::snapshot::decode_snapshot(&on_disk).unwrap();
    assert_eq!(lsn, 7);
    assert_identical(&golden_database(), &db, "v2 golden decode");
    // v2 carries no segment encodings: tables come up flat and unsealed.
    for name in db.table_names() {
        let t = db.table(name).unwrap();
        assert_eq!(t.encoded_footprint().0, t.encoded_footprint().1, "{name}: v2 loads flat");
        assert!(
            (0..t.segment_count()).all(|seg| t.segment_written(seg).is_some()),
            "{name}: v2 load must be unsealed"
        );
    }
    assert_eq!(
        astore_persist::snapshot::encode_snapshot_v2(&golden_database(), 7),
        on_disk,
        "frozen v2 encoder drifted from the checked-in v2 bytes"
    );
}

#[test]
fn checked_in_v1_ssb_snapshot_answers_all_13_queries_bit_identically() {
    // An SSB database frozen in the version-1 format. Loading it rebuilds
    // zone maps from scratch; the segmented engine must then answer every
    // SSB query bit-identically to the pre-segmentation flat scan, and a
    // re-save in today's v3 format (sealed, so segments persist encoded)
    // must round-trip to the same answers.
    let path = testdata_path("golden-ssb-v1.snapshot");
    if std::env::var_os("ASTORE_BLESS_GOLDEN").is_some() {
        let db = ssb::generate(0.001, 42);
        let bytes = astore_persist::snapshot::encode_snapshot_v1(&db, 0);
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("blessed {} ({} bytes)", path.display(), bytes.len());
    }
    let mut db = load_snapshot(&path).unwrap();
    // Fine-grained segments so the 6K-row fixture actually has zones to
    // prune (the default 64K segment would make pruning trivially void).
    db.table_mut("lineorder").unwrap().set_segment_rows(512);
    db.table_mut("lineorder").unwrap().seal_segments();

    let dir = tmpdir("ssb-v1-compat");
    let v3_path = dir.join("resaved-v3.snapshot");
    save_snapshot(&db, &v3_path).unwrap();
    let reloaded = load_snapshot(&v3_path).unwrap();
    let lineorder = reloaded.table("lineorder").unwrap();
    assert!(
        lineorder.encoded_footprint().0 * 2 < lineorder.encoded_footprint().1,
        "resaved SSB snapshot must carry encoded segments"
    );

    let mut q1_pruned = 0usize;
    for sq in ssb::queries() {
        let flat = execute(&db, &sq.query, &ExecOptions::default().pruning(false)).unwrap();
        let segmented = execute(&db, &sq.query, &ExecOptions::default()).unwrap();
        assert!(
            segmented.result.same_contents(&flat.result, 0.0),
            "{}: segmented scan over the v1-loaded database diverged",
            sq.id
        );
        let warm = execute(&reloaded, &sq.query, &ExecOptions::default()).unwrap();
        assert!(
            warm.result.same_contents(&flat.result, 0.0),
            "{}: v2 round trip answers differently",
            sq.id
        );
        assert_eq!(
            segmented.plan.segments_pruned, warm.plan.segments_pruned,
            "{}: persisted zone maps must prune like rebuilt ones",
            sq.id
        );
        if sq.id.starts_with("Q1") {
            q1_pruned += segmented.plan.segments_pruned;
        }
    }
    assert!(q1_pruned > 0, "date-selective Q1.x must skip segments of the date-clustered fixture");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Data directories written by the parent commit (PR 15, before a chunk had
// one resident representation) keep recovering with every acknowledged write.
// ---------------------------------------------------------------------------

/// Two directories a PR 15 `astore-serve --sf 0.0002` left behind under
/// SIGKILL: one still on its raw (`fmt 0`) bootstrap snapshot with five
/// acknowledged writes in the WAL, one checkpointed (sealed blocks) with
/// three more writes after the checkpoint. The expected `count(*)`,
/// `sum(lo_quantity)`, `sum(lo_revenue)` are what that server answered
/// right before it was killed.
#[test]
fn data_directories_written_by_the_parent_commit_recover() {
    let cases: [(&str, usize, [f64; 3]); 2] = [
        ("parent-pr15-bootstrap", 5, [1201.0, 29753.0, 28355380.0]),
        ("parent-pr15-checkpointed", 3, [1201.0, 29780.0, 28347714.0]),
    ];
    for (name, replayed, expected) in cases {
        // Recovery truncates and reopens the WAL: work on a copy.
        let dir = tmpdir(name);
        for file in [store::SNAPSHOT_FILE, store::WAL_FILE] {
            std::fs::copy(testdata_path(name).join(file), dir.join(file)).unwrap();
        }
        let rec = store::open(&dir).unwrap();
        assert_eq!(rec.replayed, replayed, "{name}: every acknowledged write replays");
        let answer = |db: &Database| -> Vec<f64> {
            let q = astore_sql::sql_to_query(
                "SELECT count(*) AS n, sum(lo_quantity) AS q, sum(lo_revenue) AS r FROM lineorder",
                db,
            )
            .unwrap();
            let out = execute(db, &q, &ExecOptions::default()).unwrap();
            out.result.rows[0].iter().map(|v| v.as_float().unwrap()).collect()
        };
        assert_eq!(answer(&rec.db), expected, "{name}: recovered answers");
        // Sealed, re-saved in today's form and reloaded: same answers, and
        // the reloaded fact table holds its integer chunks encoded.
        let mut db = rec.db;
        for table in db.table_names().to_vec() {
            db.table_mut(&table).unwrap().seal_segments();
        }
        let path = dir.join("resaved.snapshot");
        save_snapshot(&db, &path).unwrap();
        let reloaded = load_snapshot(&path).unwrap();
        assert_identical(&db, &reloaded, name);
        assert_eq!(answer(&reloaded), expected, "{name}: re-saved answers");
        let fact = reloaded.table("lineorder").unwrap();
        assert!(fact.encoded_footprint().0 * 2 < fact.encoded_footprint().1, "{name}: encoded");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
