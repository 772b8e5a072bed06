//! Seeded fuzz of the snapshot decoder (`astore_persist::snapshot`), the
//! second of the three parsers of untrusted bytes (`codec_fuzz.rs` is the
//! first).
//!
//! Inputs: a small version-3 snapshot — every column kind, deletes and free
//! slots, several segments, packed, run-length and raw blocks — and the
//! checked-in v1/v2 goldens. Damage comes in two kinds:
//!
//! - **Random:** bit flips, byte overwrites, truncations, deletions and
//!   duplicated ranges, checksums left as they are. The decoder now parses
//!   as it reads and checks the file checksum last, so these reach every
//!   structural check before the CRC does.
//! - **Length fields:** every length and count of the layout, one at a time,
//!   overwritten with a value the rest of its frame cannot hold, and every
//!   checksum recomputed — so the structural checks alone must refuse it.
//!
//! Every case must be an `Err`: never a panic, never an abort, and no single
//! allocation made while decoding may exceed the file's length plus 1 KiB —
//! a length field is untrusted until the bytes it claims are known to exist.
//!
//! `SNAPSHOT_FUZZ_SEED=<n>` runs one extra seed.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use astore_persist::crc::crc32;
use astore_persist::snapshot::{decode_snapshot, encode_snapshot};
use astore_storage::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// The largest single allocation of the current thread, while armed.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, noting the largest request of the armed thread.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals without destructors, which
// neither allocate nor run after the thread's storage is gone.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.with(Cell::get) {
            LARGEST.with(|l| l.set(l.get().max(layout.size())));
        }
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Decodes `bytes` without allocating more than the file plus 1 KiB in one
/// piece; returns whether they decoded.
fn decodes_within_bound(bytes: &[u8], ctx: &dyn Fn() -> String) -> bool {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let outcome = decode_snapshot(bytes).map(|_| ());
    ARMED.with(|a| a.set(false));
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= bytes.len() + 1024,
        "{}: a {largest} B allocation for a {} B file",
        ctx(),
        bytes.len()
    );
    outcome.is_ok()
}

/// Damaged bytes must be an error, within the allocation bound.
fn must_reject(bytes: &[u8], ctx: &dyn Fn() -> String) {
    assert!(!decodes_within_bound(bytes, ctx), "{}: damaged snapshot decoded", ctx());
}

/// The small v3 snapshot: a dimension with a dictionary, strings, deletes
/// and a free slot; a fact table in 32-row segments whose sealed chunks
/// cover packed and run-length blocks beside raw floats.
fn small_v3() -> Vec<u8> {
    let mut dim = Table::new(
        "dim",
        Schema::new(vec![
            ColumnDef::new("d_tag", DataType::Dict),
            ColumnDef::new("d_note", DataType::Str),
            ColumnDef::new("d_rank", DataType::I32),
        ]),
    );
    for i in 0..40i64 {
        dim.append_row(&[
            Value::Str(["zulu", "alpha", "mike", "straße"][i as usize % 4].into()),
            Value::Str(format!("note {i}")),
            Value::Int(i % 5),
        ]);
    }
    dim.delete(3);
    let mut fact = Table::new(
        "fact",
        Schema::new(vec![
            ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
            ColumnDef::new("f_qty", DataType::I64),
            ColumnDef::new("f_run", DataType::I32),
            ColumnDef::new("f_price", DataType::F64),
        ]),
    );
    fact.set_segment_rows(32);
    for i in 0..100i64 {
        fact.append_row(&[
            Value::Key((i % 40) as Key),
            Value::Int(1000 + i * 7 % 50),
            Value::Int(i / 10 * 1_000_000),
            Value::Float(i as f64 * 0.5),
        ]);
    }
    fact.delete(17);
    dim.seal_segments();
    fact.seal_segments();
    let mut db = Database::new();
    db.add_table(dim);
    db.add_table(fact);
    encode_snapshot(&db, 3)
}

fn golden(version: u32) -> Vec<u8> {
    let path = format!("{}/testdata/golden-v{version}.snapshot", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(path).unwrap()
}

fn inputs() -> [(&'static str, Vec<u8>); 4] {
    [
        ("small v3", small_v3()),
        ("golden v3", golden(3)),
        ("golden v2", golden(2)),
        ("golden v1", golden(1)),
    ]
}

/// Where a well-formed snapshot keeps its lengths and checksums.
#[derive(Debug, Default)]
struct Shape {
    /// Every length or count field: `(offset, width, bytes of its frame
    /// after it)` — the frame is the file, or the segment block it sits in.
    counts: Vec<(usize, usize, usize)>,
    /// Every checksum: `(start, end)` — the CRC at `end` covers
    /// `start..end`. Innermost first, so recomputing in order is sound.
    crcs: Vec<(usize, usize)>,
    /// Column blocks seen per encoding tag (raw, packed, run-length).
    blocks: [usize; 3],
}

/// Walks a snapshot the decoder accepts, per the layout in
/// `astore_persist::snapshot`'s module docs (versions 1–3).
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// End of the current frame (the file before its CRC, or a block).
    end: usize,
    shape: Shape,
}

impl Walk<'_> {
    fn skip(&mut self, n: usize) {
        self.pos += n;
        assert!(self.pos <= self.end, "walked past the frame");
    }

    fn u8(&mut self) -> u8 {
        self.skip(1);
        self.bytes[self.pos - 1]
    }

    fn u32(&mut self) -> usize {
        self.skip(4);
        u32::from_le_bytes(self.bytes[self.pos - 4..self.pos].try_into().unwrap()) as usize
    }

    fn count(&mut self, width: usize) -> usize {
        self.shape.counts.push((self.pos, width, self.end - self.pos - width));
        self.skip(width);
        let raw = &self.bytes[self.pos - width..self.pos];
        raw.iter().rev().fold(0usize, |acc, &b| acc << 8 | usize::from(b))
    }

    fn str(&mut self) {
        let len = self.count(4);
        self.skip(len);
    }

    /// A CRC over `start..pos` follows.
    fn crc(&mut self, start: usize) {
        self.shape.crcs.push((start, self.pos));
        self.skip(4);
    }

    fn dictionary(&mut self) {
        for _ in 0..self.count(4) {
            self.str();
        }
    }

    fn raw_column(&mut self, tag: u8, rows: usize) {
        match tag {
            0 | 4 | 5 => self.skip(rows * 4),
            1 | 2 => self.skip(rows * 8),
            _ => (0..rows).for_each(|_| self.str()),
        }
    }

    fn segment(&mut self, version: u32, tags: &[u8], rows: usize) {
        let len = self.count(4);
        let (start, outer) = (self.pos, self.end);
        self.end = start + len;
        let fmt = if version == 3 { self.u8() } else { 0 };
        self.skip(8);
        for _ in tags {
            match self.u8() {
                0 => {}
                1..=3 => self.skip(16),
                other => panic!("stat tag {other}"),
            }
        }
        for &tag in tags {
            let enc = if fmt == 1 { self.u8() } else { 0 };
            self.shape.blocks[enc as usize] += 1;
            let block = self.pos;
            match enc {
                0 => self.raw_column(tag, rows),
                1 => {
                    self.skip(9);
                    self.count(4);
                    self.skip(8);
                    let words = self.count(4);
                    self.skip(words * 8);
                    self.crc(block);
                }
                _ => {
                    let runs = self.count(4);
                    self.skip(runs * 12);
                    self.crc(block);
                }
            }
        }
        assert_eq!(self.pos, self.end, "segment block fully walked");
        self.end = outer;
        self.crc(start);
    }

    fn table(&mut self, version: u32) {
        self.str();
        let tags: Vec<u8> = (0..self.count(4))
            .map(|_| {
                self.str();
                let tag = self.u8();
                if tag == 5 {
                    self.str();
                }
                tag
            })
            .collect();
        let seg_rows = if version >= 2 { self.u32() } else { 1 << 16 };
        let slots = self.count(8);
        self.skip(slots.div_ceil(64) * 8);
        let free = self.count(4);
        self.skip(free * 4);
        if version == 1 {
            for &tag in &tags {
                if tag == 4 {
                    self.dictionary();
                }
                self.raw_column(tag, slots);
            }
            return;
        }
        tags.iter().filter(|&&t| t == 4).for_each(|_| self.dictionary());
        for seg in 0..self.count(4) {
            self.segment(version, &tags, (slots - seg * seg_rows).min(seg_rows));
        }
    }
}

fn shape(bytes: &[u8]) -> Shape {
    let mut w = Walk { bytes, pos: 0, end: bytes.len() - 4, shape: Shape::default() };
    w.skip(8);
    let version = w.u32() as u32;
    w.skip(8);
    for _ in 0..w.count(4) {
        w.table(version);
    }
    assert_eq!(w.pos, w.end, "every byte walked");
    w.end = bytes.len();
    w.crc(0);
    w.shape
}

/// Recomputes every checksum of a snapshot whose layout is `shape`.
fn refresh_crcs(bytes: &mut [u8], shape: &Shape) {
    for &(start, end) in &shape.crcs {
        let crc = crc32(&bytes[start..end]);
        bytes[end..end + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

#[test]
fn the_walker_sees_every_kind_of_block() {
    for (name, bytes) in inputs() {
        let shape = shape(&bytes);
        assert!(decode_snapshot(&bytes).is_ok(), "{name} is well-formed");
        let mut fixed = bytes.clone();
        refresh_crcs(&mut fixed, &shape);
        assert_eq!(fixed, bytes, "{name}: the walker found the checksums where they are");
        assert!(shape.counts.len() > 10, "{name}: {} length fields", shape.counts.len());
    }
    let v3 = shape(&small_v3());
    assert!(v3.blocks.iter().all(|&n| n > 0), "raw, packed and rle blocks: {:?}", v3.blocks);
}

#[test]
fn every_length_field_past_its_frame_is_refused_before_it_allocates() {
    for (name, bytes) in inputs() {
        let shape = shape(&bytes);
        for &(at, width, left) in &shape.counts {
            let values: [u64; 3] = match width {
                4 => [u64::from(u32::MAX), 1 << 31, (left as u64 + 1).min(u64::from(u32::MAX))],
                _ => [u64::MAX, 1 << 40, (left as u64 + 1) * 64],
            };
            for value in values {
                let mut bad = bytes.clone();
                bad[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                refresh_crcs(&mut bad, &shape);
                must_reject(&bad, &|| format!("{name}: field at {at} = {value:#x}"));
            }
        }
    }
}

fn mutate(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..4u32) {
        if bytes.is_empty() {
            return;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..5u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes[at] = [0x00, 0xff, 0x7f, 0x80, 0x01][rng.gen_range(0..5usize)],
            2 => bytes.truncate(at),
            3 => {
                let end = rng.gen_range(at..bytes.len().min(at + 16));
                bytes.drain(at..=end);
            }
            _ => {
                let end = rng.gen_range(at..bytes.len().min(at + 64));
                let piece = bytes[at..=end].to_vec();
                bytes.splice(at..at, piece);
            }
        }
    }
}

fn mutation_seed(seed: u64, inputs: &[(&str, Vec<u8>)]) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x05ee_d5a9_5eed);
    for case in 0..300 {
        let (name, good) = &inputs[rng.gen_range(0..inputs.len())];
        let mut bad = good.clone();
        mutate(&mut rng, &mut bad);
        if bad == *good {
            continue;
        }
        must_reject(&bad, &|| format!("seed {seed} case {case} ({name})"));
    }
}

/// Overwrites bytes in place and recomputes every checksum: what is left
/// for the decoder is structure alone. Such a file may be a different valid
/// snapshot, so `Ok` is allowed here — a panic or an outsized allocation is
/// not, and whatever decodes must encode again.
fn rechecked_seed(seed: u64, inputs: &[(&str, Vec<u8>, Shape)]) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4c_5eed);
    for case in 0..300 {
        let (name, good, shape) = &inputs[rng.gen_range(0..inputs.len())];
        let mut bad = good.clone();
        for _ in 0..rng.gen_range(1..3u32) {
            let at = rng.gen_range(0..bad.len() - 4);
            bad[at] = match rng.gen_range(0..3u32) {
                0 => bad[at] ^ 1 << rng.gen_range(0..8u32),
                1 => rng.gen_range(0..=255u32) as u8,
                _ => [0x00, 0xff, 0x7f, 0x80, 0x01, 0x05][rng.gen_range(0..6usize)],
            };
        }
        refresh_crcs(&mut bad, shape);
        let ctx = || format!("seed {seed} case {case} ({name}, checksums recomputed)");
        if decodes_within_bound(&bad, &ctx) {
            let (db, lsn) = decode_snapshot(&bad).unwrap();
            decode_snapshot(&encode_snapshot(&db, lsn))
                .unwrap_or_else(|e| panic!("{}: {e}", ctx()));
        }
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let extra = std::env::var("SNAPSHOT_FUZZ_SEED").ok().map(|s| s.parse().expect("numeric seed"));
    (1..=10u64).chain(extra)
}

#[test]
fn random_damage_is_an_error_not_a_panic() {
    let inputs = inputs();
    seeds().for_each(|seed| mutation_seed(seed, &inputs));
}

#[test]
fn structural_damage_under_fresh_checksums_never_panics() {
    let inputs: Vec<_> = inputs()
        .into_iter()
        .map(|(name, bytes)| {
            let shape = shape(&bytes);
            (name, bytes, shape)
        })
        .collect();
    seeds().for_each(|seed| rechecked_seed(seed, &inputs));
}
