//! The on-disk columnar snapshot format.
//!
//! A snapshot is a faithful, versioned serialization of a whole
//! [`Database`]: for every table its schema, its typed column arrays (AIR
//! key columns included), string heaps and dictionaries, the live bitmap
//! (inverse delete vector), the free-slot list, and — since version 2 —
//! its segmentation: per-segment column payloads framed with the segment's
//! zone map and a per-segment CRC. Loading a snapshot reproduces not just
//! the live tuples but the exact slot layout *and* the exact zone maps, so
//! array index references survive bit-for-bit, a warm boot prunes
//! immediately (no rebuild scan), and a re-save reproduces the same bytes.
//!
//! ## Layout (version 3, all integers little-endian)
//!
//! ```text
//! magic    8B  "ASTORESN"
//! version  u32  (3)
//! wal_lsn  u64   last WAL record folded into this snapshot (0 = none)
//! ntables  u32
//! table*:
//!   name       str            (u32 length + UTF-8 bytes)
//!   arity      u32
//!   coldef*:   name str, dtype u8 tag, [target str  if Key]
//!   seg_rows   u32            rows per segment
//!   nslots     u64
//!   live       u64-words      (⌈nslots/64⌉ words)
//!   free       u32 count + u32*  (slot-reuse stack, order preserved)
//!   dict*:     u32 size + str*   (one per Dict column, schema order)
//!   nsegs      u32
//!   segment block*:
//!     len      u32            payload bytes
//!     payload:
//!       fmt    u8             0 = raw columns, 1 = per-column encodings
//!       live   u64            live tuples in the segment
//!       stat*: u8 tag + data  (0 untracked; 1 int i64 min/max;
//!                              2 float f64-bits min/max;
//!                              3 key u32 min, u32 max, u64 nulls)
//!       column payload* for the segment's rows:
//!         fmt 0: the raw array —
//!           I32 raw i32*   I64 raw i64*   F64 raw f64-bits*
//!           Str  str per slot   Dict u32 code per slot   Key u32 per slot
//!         fmt 1: enc u8 tag, then
//!           0 raw:    the raw array, exactly as fmt 0
//!           1 packed: base i64, has_null u8, len u32, max_code u64,
//!                     nwords u32, word u64*, crc u32 (over the block)
//!           2 rle:    nruns u32, value i64*, end u32*, crc u32
//!     crc      u32            crc32 of the payload
//! crc32    u32   over every preceding byte
//! ```
//!
//! **Blocks ⇄ slots.** A column block of a segment is the serialized form
//! of that (column, segment) chunk *in the representation it is resident
//! in* (see `astore_storage::chunks`): an encoded chunk — frame-of-reference
//! bit-packed words or RLE runs — is written verbatim as a `packed` / `rle`
//! block straight from its slot, a flat chunk as the raw array; a segment
//! none of whose chunks is encoded writes `fmt 0`, the exact version-2
//! payload plus the format byte. The loader does the inverse: an encoded
//! block goes straight back into its slot — no flat array is rebuilt — so a
//! reboot holds, and scans, exactly the bytes the file holds. Each encoded
//! block carries its own CRC so a corrupt compressed column is pinpointed;
//! every packing invariant the kernels rely on (guard bits, tail lanes, run
//! monotonicity) is re-validated on load, and so is the value domain
//! (an `i32` block must decode inside `i32`, a dictionary block inside the
//! dictionary), from the block's bounds rather than row by row.
//!
//! The per-segment CRC + framing makes segments independently addressable:
//! an **incremental checkpoint** ([`crate::store::write_checkpoint`])
//! copies the framed block of every segment that has not been mutated since
//! the previous snapshot (its zone map is *clean*) out of the previous file
//! instead of re-encoding it — and because encoding is deterministic, the
//! result is byte-identical to a full encode. Version-2 files (raw
//! segmented columns, no encodings) and version-1 files (monolithic
//! per-column payloads, no zone maps) still load; v1 zone maps are rebuilt
//! on load, and both come up unsealed.
//!
//! The trailing CRC makes torn or bit-flipped snapshot files a detected
//! error instead of silently wrong data. Writes go through a temp file +
//! atomic rename, so a crash mid-save never clobbers the previous snapshot.
//!
//! ## What is held at once
//!
//! A snapshot is never whole in memory on the way to or from a file — the
//! database already is, and a second copy of it was once the largest
//! transient of a boot or a checkpoint. There is one code path per
//! direction, generic over where the bytes go or come from; the `Vec` /
//! slice instances ([`encode_snapshot`], [`decode_snapshot`]) are what the
//! goldens and the fuzzers drive.
//!
//! - **Writing** ([`save_snapshot`], the store's bootstrap and checkpoint)
//!   streams into the temp file's buffered writer under a running CRC. At
//!   any moment it holds the database, one segment block — assembled, length
//!   prefix to CRC, in one buffer reused for every block of the file — and
//!   the writer's buffer.
//! - **Loading** ([`load_snapshot`], a warm boot) reads through a buffered
//!   reader under a running CRC, one segment block at a time into one reused
//!   buffer, and decodes each block straight into its slots: it holds the
//!   database built so far plus one block. Every length and count is checked
//!   against the bytes left in the file before anything is sized by it, every
//!   block CRC is checked as its block is decoded, and the trailing file CRC
//!   before a [`Database`] is returned — a damaged file is an error, never a
//!   partial database.
//! - **An incremental checkpoint** indexes the previous file as (offset,
//!   length) per block — a walk over its table preambles that seeks past the
//!   blocks — and copies each clean block with a positioned read into the
//!   same block buffer, checking the block's own CRC on the way (a block that
//!   fails it is re-encoded from the database instead). It holds the
//!   database image, the index and one block.
//!
//! ## What is hashed, once
//!
//! The three nested checksums — an encoded column block's, its segment
//! payload's, the file's — once meant three passes over an encoded byte
//! (≈ 2.9 bytes hashed per file byte), about three quarters of a load. Now
//! every byte before the trailing CRC is hashed exactly once, on save, on
//! load and in a checkpoint, and every check still happens:
//!
//! - an **encoded column block** is hashed once; that CRC is its trailer
//!   (writing) or is compared with its trailer before the block is
//!   validated and slotted (loading), and the block enters its segment
//!   payload's CRC *by value* ([`crate::crc::Crc32::combine`]);
//! - a **segment payload**'s CRC is assembled from the bytes around its
//!   encoded blocks, hashed as they are passed, and the blocks' CRCs
//!   (`PayloadCrc`); the loader compares it with the stored one exactly as
//!   before, once the block is decoded and before the next is read;
//! - the **file** CRC hashes the header, the table preambles and each
//!   block's eight framing bytes, and enters each payload by its CRC —
//!   assembled or checked (loading), or checked as a clean block is copied
//!   out of the previous file (a checkpoint).
//!
//! The index walk of a checkpoint checks nothing and hashes nothing.
//! `tests/hashed_once.rs` counts it: bytes hashed = file length − 4.

use std::collections::{HashMap, HashSet};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use astore_storage::bitmap::Bitmap;
use astore_storage::catalog::Database;
use astore_storage::chunks::{ChunkedBuilder, Geometry};
use astore_storage::column::Column;
use astore_storage::dictionary::{DictColumn, Dictionary};
use astore_storage::encoded::{EncodedColumn, PackedInts, RleInts};
use astore_storage::segment::{SegmentZone, ZoneStats};
use astore_storage::strings::StrColumn;
use astore_storage::table::{ColumnDef, Schema, Table};
use astore_storage::types::{DataType, Key, RowId};

use crate::crc::{crc32, Crc32};
use crate::wire::{put_str, put_u32, put_u64, Cursor, Input};
use crate::PersistError;

/// File magic of the snapshot format.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ASTORESN";

/// Current snapshot format version (segmented, zone-mapped, compressed
/// segment encodings). Bump this when the byte layout changes — the
/// golden-snapshot test pins the layout for a given version.
pub const SNAPSHOT_VERSION: u32 = 3;

/// The raw segmented format (zone maps but no segment encodings). Still
/// readable; writable only via [`encode_snapshot_v2`] (compatibility
/// fixtures).
pub const SNAPSHOT_VERSION_V2: u32 = 2;

/// The legacy monolithic-column format. Still readable ([`decode_snapshot`]
/// rebuilds zone maps on load); writable only via [`encode_snapshot_v1`]
/// (compatibility fixtures).
pub const SNAPSHOT_VERSION_V1: u32 = 1;

const TAG_I32: u8 = 0;
const TAG_I64: u8 = 1;
const TAG_F64: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_DICT: u8 = 4;
const TAG_KEY: u8 = 5;

const STAT_UNTRACKED: u8 = 0;
const STAT_INT: u8 = 1;
const STAT_FLOAT: u8 = 2;
const STAT_KEY: u8 = 3;

/// v3 segment payload format byte: raw columns (exact v2 shape).
const SEG_FMT_RAW: u8 = 0;
/// v3 segment payload format byte: per-column encoding tags follow.
const SEG_FMT_ENCODED: u8 = 1;

/// v3 per-column encoding tag: the raw array.
const ENC_RAW: u8 = 0;
/// v3 per-column encoding tag: frame-of-reference bit-packed block.
const ENC_PACKED: u8 = 1;
/// v3 per-column encoding tag: run-length block.
const ENC_RLE: u8 = 2;

/// Bytes of a segment block's framing: the `u32` length before the payload
/// and the `u32` CRC after it.
const BLOCK_FRAMING: usize = 8;

/// Where the framed segment blocks of an existing version-3 snapshot sit in
/// it — per table, per segment, `(offset, framed length)` — plus the file
/// itself, for copying them: the reuse source of an incremental checkpoint.
/// Indexing a file reads its table preambles and seeks past its blocks;
/// nothing of the blocks is held.
#[derive(Debug)]
pub struct SegmentIndex<R> {
    source: R,
    blocks: HashMap<String, Vec<(u64, usize)>>,
}

impl<R: Read + Seek> SegmentIndex<R> {
    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.blocks.values().map(Vec::len).sum()
    }

    /// Returns `true` if no blocks are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of the largest framed block — what writing, loading or
    /// checkpointing this file holds beside the database.
    pub fn largest_block(&self) -> usize {
        self.blocks.values().flatten().map(|&(_, len)| len).max().unwrap_or(0)
    }

    /// Reads the framed block of segment `seg` of `table` into `buf` and
    /// returns its payload's CRC, checked against the one stored after it —
    /// the value the block enters the new file's CRC by. `None` if it is not
    /// indexed, cannot be read, or fails its own CRC: the caller then encodes
    /// the segment from the database instead.
    fn read_block(&mut self, table: &str, seg: usize, buf: &mut Vec<u8>) -> Option<u32> {
        let &(offset, len) = self.blocks.get(table)?.get(seg)?;
        clear_for(buf, len);
        buf.resize(len, 0);
        self.source.seek(SeekFrom::Start(offset)).ok()?;
        self.source.read_exact(buf).ok()?;
        let (payload, stored) = buf[4..].split_at(len - BLOCK_FRAMING);
        let crc = crc32(payload);
        (crc == u32::from_le_bytes(stored.try_into().unwrap())).then_some(crc)
    }
}

/// Empties `buf` with room for `n` bytes. A buffer that is too small is
/// freed *before* the exact-size replacement is allocated: the one block
/// buffer never holds two blocks' worth, nor doubles past the largest.
fn clear_for(buf: &mut Vec<u8>, n: usize) {
    buf.clear();
    if buf.capacity() < n {
        *buf = Vec::new();
        buf.reserve_exact(n);
    }
}

/// Serializes `db` into the current (version 3) byte layout. Deterministic:
/// equal databases in equal representations produce equal bytes — every
/// chunk is written in the form it is resident in.
pub fn encode_snapshot(db: &Database, wal_lsn: u64) -> Vec<u8> {
    encode_snapshot_with_prev(db, wal_lsn, None::<&mut SegmentIndex<std::fs::File>>).0
}

/// Serializes `db`, copying the framed block of every *clean* segment (not
/// mutated since its table was loaded from / checkpointed to the snapshot
/// `prev` indexes) instead of re-encoding it. Returns the bytes and the
/// number of reused segment blocks. The in-memory instance of what
/// [`crate::store::write_checkpoint`] streams to a file.
///
/// Correctness contract: `prev` must index the snapshot file this
/// database's clean flags are relative to — i.e. the file it was last
/// loaded from or checkpointed to (see [`crate::store::write_checkpoint`]).
/// Encoding is deterministic, so the output is byte-identical to a full
/// [`encode_snapshot`] either way.
pub fn encode_snapshot_with_prev<R: Read + Seek>(
    db: &Database,
    wal_lsn: u64,
    prev: Option<&mut SegmentIndex<R>>,
) -> (Vec<u8>, usize) {
    // Sized from what is resident (the blocks are the slots' bytes plus
    // framing), not from the flat size: a sealed database must not reserve
    // its decoded size to be written.
    let resident: u64 = db
        .table_names()
        .iter()
        .filter_map(|name| db.table(name))
        .map(|t| t.encoded_footprint().0)
        .sum();
    let out = Vec::with_capacity(4096 + resident as usize * 5 / 4);
    let (out, _, reused) =
        write_snapshot(out, db, wal_lsn, prev).expect("writing into a Vec cannot fail");
    (out, reused)
}

/// Where snapshot bytes go: a writer, and the running CRC of everything
/// written through it — the file's trailing checksum.
struct Sink<W> {
    out: W,
    crc: Crc32,
    len: u64,
}

impl<W: Write> Sink<W> {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.len += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    /// Writes a framed segment block whose payload CRC, `payload_crc`, was
    /// computed as the block was assembled or checked as it was copied: the
    /// eight framing bytes are hashed, the payload enters by that value.
    fn put_block(&mut self, block: &[u8], payload_crc: u32) -> std::io::Result<()> {
        let (prefix, rest) = block.split_at(4);
        let (payload, trailer) = rest.split_at(rest.len() - 4);
        self.crc.update(prefix);
        self.crc.combine(payload_crc, payload.len() as u64);
        self.crc.update(trailer);
        self.len += block.len() as u64;
        self.out.write_all(block)
    }

    /// Appends the trailing CRC; returns the writer and the bytes written.
    fn finish(mut self) -> std::io::Result<(W, u64)> {
        self.out.write_all(&self.crc.finish().to_le_bytes())?;
        Ok((self.out, self.len + 4))
    }
}

/// The version-3 writer behind every save, bootstrap, checkpoint and
/// [`encode_snapshot`]: header, then per table its preamble and its segment
/// blocks — each block copied out of `prev` when the segment is clean and
/// `prev` has it intact, encoded from the table otherwise — all through
/// one reused buffer. Returns the writer, the bytes written and the number
/// of reused blocks.
fn write_snapshot<W: Write, R: Read + Seek>(
    out: W,
    db: &Database,
    wal_lsn: u64,
    mut prev: Option<&mut SegmentIndex<R>>,
) -> std::io::Result<(W, u64, usize)> {
    let mut sink = Sink { out, crc: Crc32::new(), len: 0 };
    let mut buf = Vec::new();
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION);
    put_u64(&mut buf, wal_lsn);
    put_u32(&mut buf, db.len() as u32);
    sink.put(&buf)?;
    let mut reused = 0usize;
    for name in db.table_names() {
        let t = db.table(name).expect("listed table exists");
        buf.clear();
        encode_table_preamble(&mut buf, t);
        sink.put(&buf)?;
        for seg in 0..t.segment_count() {
            let clean = !t.zone(seg).is_dirty();
            let copied =
                prev.as_mut().filter(|_| clean).and_then(|p| p.read_block(name, seg, &mut buf));
            let crc = match copied {
                Some(crc) => {
                    reused += 1;
                    crc
                }
                None => encode_segment_block(&mut buf, t, seg, encode_segment_payload_v3),
            };
            sink.put_block(&buf, crc)?;
        }
    }
    let (out, len) = sink.finish()?;
    Ok((out, len, reused))
}

fn encode_coldefs(buf: &mut Vec<u8>, t: &Table) {
    put_str(buf, t.name());
    put_u32(buf, t.schema().arity() as u32);
    for def in t.schema().defs() {
        put_str(buf, &def.name);
        match &def.dtype {
            DataType::I32 => buf.push(TAG_I32),
            DataType::I64 => buf.push(TAG_I64),
            DataType::F64 => buf.push(TAG_F64),
            DataType::Str => buf.push(TAG_STR),
            DataType::Dict => buf.push(TAG_DICT),
            DataType::Key { target } => {
                buf.push(TAG_KEY);
                put_str(buf, target);
            }
        }
    }
}

/// Writes the per-table preamble shared by v2 and v3 (coldefs through the
/// segment count).
fn encode_table_preamble(buf: &mut Vec<u8>, t: &Table) {
    encode_coldefs(buf, t);
    put_u32(buf, t.segment_rows() as u32);
    put_u64(buf, t.num_slots() as u64);
    for w in t.live_bitmap().to_bitmap().words() {
        put_u64(buf, *w);
    }
    put_u32(buf, t.free_slots().len() as u32);
    for &slot in t.free_slots() {
        put_u32(buf, slot);
    }
    // Dictionaries at table level: segment blocks carry only codes, so a
    // dictionary growing in one segment never invalidates the others.
    for i in 0..t.schema().arity() {
        if let Column::Dict(c) = t.column_at(i) {
            put_u32(buf, c.dict().len() as u32);
            for v in c.dict().values() {
                put_str(buf, v);
            }
        }
    }
    put_u32(buf, t.segment_count() as u32);
}

/// Assembles segment `seg`'s framed block in `buf` (replacing what it
/// held): length prefix, the payload `payload` appends, CRC of the payload,
/// which is returned. Reserves the chunks' resident bytes up front, so the
/// buffer is sized once for the largest block rather than doubled into it.
fn encode_segment_block(
    buf: &mut Vec<u8>,
    t: &Table,
    seg: usize,
    payload: fn(&mut Vec<u8>, &Table, usize, &mut PayloadCrc),
) -> u32 {
    let arity = t.schema().arity();
    let held: usize = (0..arity).map(|i| t.column_at(i).chunk_bytes(seg).0).sum();
    clear_for(buf, held + 64 * arity + 64);
    put_u32(buf, 0);
    let mut sums = PayloadCrc::new(buf.len());
    payload(buf, t, seg, &mut sums);
    let len = buf.len() - 4;
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = sums.finish(buf);
    put_u32(buf, crc);
    crc
}

/// The CRC of a segment payload, assembled from what is hashed anyway: the
/// bytes around its encoded column blocks are hashed as they are passed,
/// and each encoded block — whose own CRC has just been computed over it —
/// enters by that value. Writer and reader alike read every payload byte
/// once.
struct PayloadCrc {
    crc: Crc32,
    /// Bytes of the buffer before this offset are in `crc`.
    upto: usize,
}

impl PayloadCrc {
    /// A payload that starts at offset `start` of its buffer.
    fn new(start: usize) -> Self {
        PayloadCrc { crc: Crc32::new(), upto: start }
    }

    /// Hashes the encoded column block `bytes[start..end]` and returns its
    /// CRC, for the block's own trailer or check; the bytes since the
    /// previous block are hashed into the payload CRC, the block enters it by
    /// value.
    fn block(&mut self, bytes: &[u8], start: usize, end: usize) -> u32 {
        self.crc.update(&bytes[self.upto..start]);
        let crc = crc32(&bytes[start..end]);
        self.crc.combine(crc, (end - start) as u64);
        self.upto = end;
        crc
    }

    /// The payload's CRC, `bytes` being the whole payload's buffer.
    fn finish(mut self, bytes: &[u8]) -> u32 {
        self.crc.update(&bytes[self.upto..]);
        self.crc.finish()
    }
}

/// Encodes one table in the frozen v2 layout (raw segmented columns).
fn encode_table_v2(buf: &mut Vec<u8>, t: &Table) {
    encode_table_preamble(buf, t);
    let mut block = Vec::new();
    for seg in 0..t.segment_count() {
        encode_segment_block(&mut block, t, seg, encode_segment_payload_v2);
        buf.extend_from_slice(&block);
    }
}

fn encode_zone_stats(buf: &mut Vec<u8>, zone: &SegmentZone) {
    for stat in zone.stats() {
        match stat {
            ZoneStats::Untracked => buf.push(STAT_UNTRACKED),
            ZoneStats::Int { min, max } => {
                buf.push(STAT_INT);
                buf.extend_from_slice(&min.to_le_bytes());
                buf.extend_from_slice(&max.to_le_bytes());
            }
            ZoneStats::Float { min, max } => {
                buf.push(STAT_FLOAT);
                buf.extend_from_slice(&min.to_bits().to_le_bytes());
                buf.extend_from_slice(&max.to_bits().to_le_bytes());
            }
            ZoneStats::Key { min, max, nulls } => {
                buf.push(STAT_KEY);
                put_u32(buf, *min);
                put_u32(buf, *max);
                put_u64(buf, *nulls);
            }
        }
    }
}

fn encode_segment_payload_v2(buf: &mut Vec<u8>, t: &Table, seg: usize, _: &mut PayloadCrc) {
    put_u64(buf, t.zone(seg).live());
    encode_zone_stats(buf, t.zone(seg));
    for i in 0..t.schema().arity() {
        encode_column_chunk(buf, t.column_at(i), seg);
    }
}

/// The v3 segment payload: the v2 payload prefixed with a format byte, and
/// — when at least one of the segment's chunks is resident encoded — one
/// tagged block per column, each in the form its chunk is held in.
fn encode_segment_payload_v3(buf: &mut Vec<u8>, t: &Table, seg: usize, sums: &mut PayloadCrc) {
    let encoded = (0..t.schema().arity()).any(|i| t.column_at(i).chunk_encoding(seg).is_some());
    buf.push(if encoded { SEG_FMT_ENCODED } else { SEG_FMT_RAW });
    put_u64(buf, t.zone(seg).live());
    encode_zone_stats(buf, t.zone(seg));
    for i in 0..t.schema().arity() {
        let col = t.column_at(i);
        match col.chunk_encoding(seg) {
            None => {
                if encoded {
                    buf.push(ENC_RAW);
                }
                encode_column_chunk(buf, col, seg);
            }
            Some(EncodedColumn::Packed(p)) => {
                buf.push(ENC_PACKED);
                let start = buf.len();
                buf.extend_from_slice(&p.base().to_le_bytes());
                buf.push(u8::from(p.null_code().is_some()));
                put_u32(buf, p.len() as u32);
                put_u64(buf, p.max_code());
                put_u32(buf, p.words().len() as u32);
                // Sized once and filled in place: the words are most of a
                // sealed snapshot's bytes.
                let at = buf.len();
                buf.resize(at + p.words().len() * 8, 0);
                for (dst, w) in buf[at..].chunks_exact_mut(8).zip(p.words()) {
                    dst.copy_from_slice(&w.to_le_bytes());
                }
                let crc = sums.block(buf, start, buf.len());
                put_u32(buf, crc);
            }
            Some(EncodedColumn::Rle(r)) => {
                buf.push(ENC_RLE);
                let start = buf.len();
                put_u32(buf, r.run_count() as u32);
                for v in r.values() {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
                for &e in r.ends() {
                    put_u32(buf, e);
                }
                let crc = sums.block(buf, start, buf.len());
                put_u32(buf, crc);
            }
        }
    }
}

/// Writes the raw values of `col`'s chunk of segment `seg` (an encoded
/// chunk — which only the legacy v1/v2 encoders meet here — through its
/// decode-once view).
fn encode_column_chunk(buf: &mut Vec<u8>, col: &Column, seg: usize) {
    match col {
        Column::I32(v) => {
            for x in v.chunk(seg).decoded().iter() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::I64(v) => {
            for x in v.chunk(seg).decoded().iter() {
                buf.extend_from_slice(&x.to_le_bytes());
            }
        }
        Column::F64(v) => {
            for x in v.chunk(seg).decoded().iter() {
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        Column::Str(c) => {
            let chunk = c.chunk(seg);
            for off in 0..c.slots().chunk(seg).len() {
                put_str(buf, chunk.get(off));
            }
        }
        Column::Dict(c) => {
            for &code in c.codes().chunk(seg).decoded().iter() {
                put_u32(buf, code);
            }
        }
        Column::Key { keys, .. } => {
            for &k in keys.chunk(seg).decoded().iter() {
                put_u32(buf, k);
            }
        }
    }
}

/// Serializes `db` into the **legacy version-2** byte layout (raw
/// segmented columns, no segment encodings). Kept so
/// backward-compatibility fixtures can be produced and verified;
/// production saves use [`encode_snapshot`].
pub fn encode_snapshot_v2(db: &Database, wal_lsn: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + db.approx_bytes() * 2);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION_V2);
    put_u64(&mut buf, wal_lsn);
    put_u32(&mut buf, db.len() as u32);
    for name in db.table_names() {
        let t = db.table(name).expect("listed table exists");
        encode_table_v2(&mut buf, t);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

/// Serializes `db` into the **legacy version-1** byte layout (monolithic
/// per-column payloads, no segmentation). Kept so backward-compatibility
/// fixtures can be produced and verified; production saves use
/// [`encode_snapshot`].
pub fn encode_snapshot_v1(db: &Database, wal_lsn: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + db.approx_bytes() * 2);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut buf, SNAPSHOT_VERSION_V1);
    put_u64(&mut buf, wal_lsn);
    put_u32(&mut buf, db.len() as u32);
    for name in db.table_names() {
        let t = db.table(name).expect("listed table exists");
        encode_table_v1(&mut buf, t);
    }
    let crc = crc32(&buf);
    put_u32(&mut buf, crc);
    buf
}

fn encode_table_v1(buf: &mut Vec<u8>, t: &Table) {
    encode_coldefs(buf, t);
    put_u64(buf, t.num_slots() as u64);
    for w in t.live_bitmap().to_bitmap().words() {
        put_u64(buf, *w);
    }
    put_u32(buf, t.free_slots().len() as u32);
    for &slot in t.free_slots() {
        put_u32(buf, slot);
    }
    for i in 0..t.schema().arity() {
        let col = t.column_at(i);
        if let Column::Dict(c) = col {
            put_u32(buf, c.dict().len() as u32);
            for v in c.dict().values() {
                put_str(buf, v);
            }
        }
        for seg in 0..t.segment_count() {
            encode_column_chunk(buf, col, seg);
        }
    }
}

/// Where snapshot bytes come from: a reader, the bytes left before the
/// trailing CRC, the running CRC of everything consumed, and the one
/// buffer every read lands in (a segment block at a time, reused).
struct Source<R> {
    inner: R,
    pos: u64,
    remaining: u64,
    /// `None` on the index walk, which checks no checksum and so hashes
    /// nothing.
    crc: Option<Crc32>,
    buf: Vec<u8>,
}

impl<R: Read> Source<R> {
    /// A source over a `len`-byte snapshot.
    fn new(inner: R, len: u64) -> Result<Self, PersistError> {
        if len < (SNAPSHOT_MAGIC.len() + 4) as u64 {
            return Err(PersistError::Corrupt("snapshot shorter than its header".into()));
        }
        Ok(Source { inner, pos: 0, remaining: len - 4, crc: Some(Crc32::new()), buf: Vec::new() })
    }

    fn truncated(&self, what: &str) -> PersistError {
        PersistError::Corrupt(format!("truncated {what} at byte {}", self.pos))
    }

    /// Checks that nothing follows the last table but the trailing CRC, and
    /// that the CRC matches every byte before it.
    fn finish(mut self) -> Result<(), PersistError> {
        if self.remaining != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes after the last table",
                self.remaining
            )));
        }
        let mut trailer = [0u8; 4];
        self.inner.read_exact(&mut trailer).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => self.truncated("snapshot checksum"),
            _ => PersistError::Io(e),
        })?;
        let stored = u32::from_le_bytes(trailer);
        let actual = self.crc.as_ref().map_or(!stored, Crc32::finish);
        if stored != actual {
            return Err(PersistError::Corrupt(format!(
                "snapshot checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        Ok(())
    }
}

impl<R: Read> Source<R> {
    /// Reads the next `n` bytes into the buffer without hashing them: a
    /// segment block, which enters the file CRC through [`Self::enter_block`]
    /// once its own CRC is checked.
    fn take_block(&mut self, n: usize, what: &str) -> Result<&[u8], PersistError> {
        if n as u64 > self.remaining {
            return Err(self.truncated(what));
        }
        clear_for(&mut self.buf, n);
        self.buf.resize(n, 0);
        if let Err(e) = self.inner.read_exact(&mut self.buf) {
            return Err(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => self.truncated(what),
                _ => PersistError::Io(e),
            });
        }
        self.pos += n as u64;
        self.remaining -= n as u64;
        Ok(&self.buf)
    }

    /// Enters the segment block just taken into the file CRC: its payload
    /// of `len` bytes by `payload_crc`, the CRC it was checked against, and
    /// the stored CRC after it (equal to `payload_crc`) as bytes.
    fn enter_block(&mut self, payload_crc: u32, len: usize) {
        if let Some(crc) = &mut self.crc {
            crc.combine(payload_crc, len as u64);
            crc.update(&payload_crc.to_le_bytes());
        }
    }
}

impl<R: Read> Input for Source<R> {
    fn remaining(&self) -> usize {
        usize::try_from(self.remaining).unwrap_or(usize::MAX)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], PersistError> {
        self.take_block(n, what)?;
        if let Some(crc) = &mut self.crc {
            crc.update(&self.buf);
        }
        Ok(&self.buf)
    }
}

impl<R: Read + Seek> Source<BufReader<R>> {
    /// Skips `n` bytes without reading them (the index walk: the running
    /// CRC is not kept).
    fn skip(&mut self, n: u64, what: &str) -> Result<(), PersistError> {
        if n > self.remaining {
            return Err(self.truncated(what));
        }
        let by = i64::try_from(n).map_err(|_| self.truncated(what))?;
        self.inner.seek_relative(by)?;
        self.pos += n;
        self.remaining -= n;
        Ok(())
    }
}

/// Parses snapshot bytes, verifying magic, version and every checksum.
/// Returns the database and the `wal_lsn` recorded in the header. Accepts
/// the current version 3 (zone maps and segment encodings loaded
/// verbatim), version 2 (zone maps verbatim, no encodings) and the legacy
/// version 1 (zone maps rebuilt). The in-memory instance of
/// [`load_snapshot_with_lsn`].
pub fn decode_snapshot(bytes: &[u8]) -> Result<(Database, u64), PersistError> {
    read_snapshot(Source::new(bytes, bytes.len() as u64)?)
}

/// The one snapshot reader (see the module docs for what it holds).
fn read_snapshot<R: Read>(mut src: Source<R>) -> Result<(Database, u64), PersistError> {
    let (version, wal_lsn, ntables) = read_header(&mut src)?;
    let mut db = Database::new();
    for _ in 0..ntables {
        let table = match version {
            SNAPSHOT_VERSION_V1 => decode_table_v1(&mut src)?,
            SNAPSHOT_VERSION_V2 => decode_table_segmented(&mut src, false)?,
            _ => decode_table_segmented(&mut src, true)?,
        };
        db.add_table(table);
    }
    src.finish()?;
    Ok((db, wal_lsn))
}

/// Reads magic and version; returns `(version, wal_lsn, ntables)`.
fn read_header<R: Read>(src: &mut Source<R>) -> Result<(u32, u64, u32), PersistError> {
    if src.take(8, "magic")? != SNAPSHOT_MAGIC {
        return Err(PersistError::Corrupt("bad snapshot magic".into()));
    }
    let version = src.u32("version")?;
    if !matches!(version, SNAPSHOT_VERSION | SNAPSHOT_VERSION_V2 | SNAPSHOT_VERSION_V1) {
        return Err(PersistError::Version { found: version, expected: SNAPSHOT_VERSION });
    }
    let wal_lsn = src.u64("wal_lsn")?;
    let ntables = src.u32("table count")?;
    Ok((version, wal_lsn, ntables))
}

/// Indexes the segment blocks of a current-version snapshot for checkpoint
/// reuse. Returns `None` for anything unusable (unreadable or malformed
/// structure, legacy version — v1/v2 blocks are laid out differently, so a
/// checkpoint over an old file falls back to a full encode and upgrades it
/// in place). The blocks themselves are not read here: each is checked
/// against its own CRC when it is copied (see [`SegmentIndex`]).
pub fn index_snapshot_segments<R: Read + Seek>(mut source: R) -> Option<SegmentIndex<R>> {
    let len = source.seek(SeekFrom::End(0)).ok()?;
    source.seek(SeekFrom::Start(0)).ok()?;
    let mut src = Source::new(BufReader::new(source), len).ok()?;
    src.crc = None;
    let (version, _, ntables) = read_header(&mut src).ok()?;
    if version != SNAPSHOT_VERSION {
        return None;
    }
    let mut blocks = HashMap::new();
    for _ in 0..ntables {
        let header = decode_table_header(&mut src, true).ok()?;
        let nsegs = read_segment_count(&mut src, &header).ok()?;
        let mut spans = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let offset = src.pos;
            let len = src.u32("segment length").ok()? as usize;
            src.skip(len as u64 + 4, "segment block").ok()?;
            spans.push((offset, len + BLOCK_FRAMING));
        }
        blocks.insert(header.name, spans);
    }
    (src.remaining == 0).then_some(())?;
    Some(SegmentIndex { source: src.inner.into_inner(), blocks })
}

/// The per-table preamble shared by v1 and v2 (v2 additionally carries
/// `seg_rows` and hoisted dictionaries).
struct TableHeader {
    name: String,
    defs: Vec<ColumnDef>,
    seg_rows: usize,
    nslots: usize,
    live: Bitmap,
    free: Vec<RowId>,
    /// Table-level dictionaries, one per `Dict` column (v2 only).
    dicts: Vec<Option<Dictionary>>,
}

/// Refuses a count of items, each at least `min_bytes` long in the file,
/// that the rest of the file cannot hold.
fn check_count(
    remaining: usize,
    count: usize,
    min_bytes: usize,
    what: &str,
) -> Result<(), PersistError> {
    if count > remaining / min_bytes {
        return Err(PersistError::Corrupt(format!("{what} {count} exceeds file size")));
    }
    Ok(())
}

fn decode_coldefs(c: &mut impl Input) -> Result<(String, Vec<ColumnDef>), PersistError> {
    let name = c.str("table name")?;
    let arity = c.u32("arity")? as usize;
    // A definition is at least a name length and a tag. Not pre-sized: a
    // `ColumnDef` is larger in memory than the bytes that describe it.
    check_count(c.remaining(), arity, 5, "arity")?;
    let mut defs = Vec::new();
    for _ in 0..arity {
        let col_name = c.str("column name")?;
        let tag = c.take(1, "dtype tag")?[0];
        let dtype = match tag {
            TAG_I32 => DataType::I32,
            TAG_I64 => DataType::I64,
            TAG_F64 => DataType::F64,
            TAG_STR => DataType::Str,
            TAG_DICT => DataType::Dict,
            TAG_KEY => DataType::Key { target: c.str("key target")? },
            other => {
                return Err(PersistError::Corrupt(format!("unknown dtype tag {other}")));
            }
        };
        defs.push(ColumnDef::new(col_name, dtype));
    }
    let mut names = HashSet::with_capacity(defs.len());
    if !defs.iter().all(|d| names.insert(d.name.as_str())) {
        return Err(PersistError::Corrupt(format!("duplicate column name in table {name:?}")));
    }
    Ok((name, defs))
}

fn decode_table_header(c: &mut impl Input, v2: bool) -> Result<TableHeader, PersistError> {
    let (name, defs) = decode_coldefs(c)?;
    let seg_rows = if v2 {
        let sr = c.u32("segment rows")? as usize;
        if sr == 0 {
            return Err(PersistError::Corrupt(format!("zero segment size in table {name:?}")));
        }
        sr
    } else {
        astore_storage::segment::SEGMENT_ROWS
    };
    let nslots = usize::try_from(c.u64("slot count")?)
        .map_err(|_| PersistError::Corrupt("slot count overflows usize".into()))?;
    // Guard against absurd counts decoded from corrupt bytes before any
    // allocation sized by them: every 64 slots cost a word of live bitmap.
    let nwords = nslots.div_ceil(64);
    check_count(c.remaining(), nwords, 8, "slot count")?;
    let words = c
        .take(nwords * 8, "live bitmap")?
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let live = Bitmap::from_words(words, nslots);
    let nfree = c.u32("free count")? as usize;
    if nfree > nslots {
        return Err(PersistError::Corrupt(format!("{nfree} free slots in {nslots}-slot table")));
    }
    check_count(c.remaining(), nfree, 4, "free count")?;
    let mut free = Vec::with_capacity(nfree);
    for _ in 0..nfree {
        let slot = c.u32("free slot")?;
        if slot as usize >= nslots || live.get(slot as usize) {
            return Err(PersistError::Corrupt(format!(
                "free slot {slot} out of range or live in table {name:?}"
            )));
        }
        free.push(slot as RowId);
    }
    let mut dicts = Vec::with_capacity(defs.len());
    for def in &defs {
        if v2 && def.dtype == DataType::Dict {
            dicts.push(Some(decode_dictionary(c)?));
        } else {
            dicts.push(None);
        }
    }
    Ok(TableHeader { name, defs, seg_rows, nslots, live, free, dicts })
}

fn decode_dictionary(c: &mut impl Input) -> Result<Dictionary, PersistError> {
    let dict_len = c.u32("dictionary size")? as usize;
    // Each value is at least its length prefix; not pre-sized (a `String`
    // outweighs an empty value's four bytes).
    check_count(c.remaining(), dict_len, 4, "dictionary size")?;
    let mut values = Vec::new();
    for _ in 0..dict_len {
        values.push(c.str("dictionary value")?);
    }
    Dictionary::try_from_values(values)
        .ok_or_else(|| PersistError::Corrupt("duplicate dictionary value".into()))
}

/// Per-column accumulator for segment-wise decoding: payloads are built
/// directly as the table's per-segment chunks (one `extend*` call per
/// segment hands over exactly one chunk) — no flat whole-table array.
enum ColumnBuilder {
    I32(ChunkedBuilder<i32>),
    I64(ChunkedBuilder<i64>),
    F64(ChunkedBuilder<f64>),
    Str(StrColumn),
    Dict { codes: ChunkedBuilder<Key>, dict: Dictionary },
    Key { target: String, keys: ChunkedBuilder<Key> },
}

impl ColumnBuilder {
    fn new(dtype: &DataType, dict: Option<Dictionary>, geo: Geometry) -> ColumnBuilder {
        match dtype {
            DataType::I32 => ColumnBuilder::I32(ChunkedBuilder::with_geometry(geo)),
            DataType::I64 => ColumnBuilder::I64(ChunkedBuilder::with_geometry(geo)),
            DataType::F64 => ColumnBuilder::F64(ChunkedBuilder::with_geometry(geo)),
            DataType::Str => ColumnBuilder::Str(StrColumn::with_geometry(geo)),
            DataType::Dict => ColumnBuilder::Dict {
                codes: ChunkedBuilder::with_geometry(geo),
                dict: dict.expect("v2 table header carries the dictionary"),
            },
            DataType::Key { target } => ColumnBuilder::Key {
                target: target.clone(),
                keys: ChunkedBuilder::with_geometry(geo),
            },
        }
    }

    /// Appends `n` rows decoded from `c`.
    fn extend(&mut self, c: &mut impl Input, n: usize) -> Result<(), PersistError> {
        match self {
            ColumnBuilder::I32(v) => {
                let raw = c.take(n * 4, "i32 column")?;
                v.extend(raw.chunks_exact(4).map(|b| i32::from_le_bytes(b.try_into().unwrap())));
            }
            ColumnBuilder::I64(v) => {
                let raw = c.take(n * 8, "i64 column")?;
                v.extend(raw.chunks_exact(8).map(|b| i64::from_le_bytes(b.try_into().unwrap())));
            }
            ColumnBuilder::F64(v) => {
                let raw = c.take(n * 8, "f64 column")?;
                v.extend(
                    raw.chunks_exact(8)
                        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap()))),
                );
            }
            ColumnBuilder::Str(col) => {
                for _ in 0..n {
                    col.push(c.str_ref("string value")?);
                }
            }
            ColumnBuilder::Dict { codes, dict } => {
                let raw = c.take(n * 4, "dictionary codes")?;
                for b in raw.chunks_exact(4) {
                    let code = u32::from_le_bytes(b.try_into().unwrap());
                    if code as usize >= dict.len() {
                        return Err(PersistError::Corrupt(format!(
                            "dictionary code {code} out of range {}",
                            dict.len()
                        )));
                    }
                    codes.push(code);
                }
            }
            ColumnBuilder::Key { keys, .. } => {
                let raw = c.take(n * 4, "key column")?;
                keys.extend(raw.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().unwrap())));
            }
        }
        Ok(())
    }

    /// Appends a compressed block of `n` rows as one encoded chunk, straight
    /// into its slot, after checking that it holds `n` rows and that every
    /// value it can decode to fits the column's domain (an encoded block is
    /// an untrusted `i64` stream until proven otherwise; its bounds are
    /// enough — see [`EncodedColumn::value_bounds`]).
    fn push_encoded(&mut self, enc: EncodedColumn, n: usize) -> Result<(), PersistError> {
        if enc.len() != n {
            return Err(PersistError::Corrupt(format!(
                "encoded block holds {} rows, segment needs {n}",
                enc.len()
            )));
        }
        let (lo, hi) = enc.value_bounds().unwrap_or((0, 0));
        let inside = |min: i64, max: i64, what: &str| {
            if min <= lo && hi <= max {
                Ok(())
            } else {
                Err(PersistError::Corrupt(format!("encoded {what} out of range")))
            }
        };
        match self {
            ColumnBuilder::I32(v) => {
                inside(i64::from(i32::MIN), i64::from(i32::MAX), "i32 value")?;
                v.push_encoded(enc);
            }
            ColumnBuilder::I64(v) => v.push_encoded(enc),
            ColumnBuilder::Dict { codes, dict } => {
                inside(0, dict.len() as i64 - 1, "dictionary code")?;
                codes.push_encoded(enc);
            }
            ColumnBuilder::Key { keys, .. } => {
                inside(0, i64::from(u32::MAX), "key")?;
                keys.push_encoded(enc);
            }
            ColumnBuilder::F64(_) | ColumnBuilder::Str(_) => {
                return Err(PersistError::Corrupt("encoded block on a float/string column".into()));
            }
        }
        Ok(())
    }

    fn finish(self) -> Column {
        match self {
            ColumnBuilder::I32(v) => Column::I32(v.finish()),
            ColumnBuilder::I64(v) => Column::I64(v.finish()),
            ColumnBuilder::F64(v) => Column::F64(v.finish()),
            ColumnBuilder::Str(c) => Column::Str(c),
            ColumnBuilder::Dict { codes, dict } => {
                Column::Dict(DictColumn::from_parts(codes.finish(), dict))
            }
            ColumnBuilder::Key { target, keys } => Column::Key { target, keys: keys.finish() },
        }
    }
}

fn decode_zone_stats(c: &mut Cursor<'_>, arity: usize) -> Result<Vec<ZoneStats>, PersistError> {
    let mut stats = Vec::with_capacity(arity);
    for _ in 0..arity {
        let tag = c.bytes(1, "zone stat tag")?[0];
        stats.push(match tag {
            STAT_UNTRACKED => ZoneStats::Untracked,
            STAT_INT => {
                let min = i64::from_le_bytes(c.bytes(8, "zone int min")?.try_into().unwrap());
                let max = i64::from_le_bytes(c.bytes(8, "zone int max")?.try_into().unwrap());
                ZoneStats::Int { min, max }
            }
            STAT_FLOAT => {
                let min = f64::from_bits(c.u64("zone float min")?);
                let max = f64::from_bits(c.u64("zone float max")?);
                ZoneStats::Float { min, max }
            }
            STAT_KEY => {
                let min = c.u32("zone key min")?;
                let max = c.u32("zone key max")?;
                let nulls = c.u64("zone key nulls")?;
                ZoneStats::Key { min, max, nulls }
            }
            other => {
                return Err(PersistError::Corrupt(format!("unknown zone stat tag {other}")));
            }
        });
    }
    Ok(stats)
}

/// Reads a v2/v3 table's segment count, which must cover its slots and
/// fit the rest of the file (a block is at least its framing).
fn read_segment_count(c: &mut impl Input, header: &TableHeader) -> Result<usize, PersistError> {
    let nsegs = c.u32("segment count")? as usize;
    if nsegs != header.nslots.div_ceil(header.seg_rows) {
        return Err(PersistError::Corrupt(format!(
            "{nsegs} segments do not cover {} slots of table {:?}",
            header.nslots, header.name
        )));
    }
    check_count(c.remaining(), nsegs, BLOCK_FRAMING, "segment count")?;
    Ok(nsegs)
}

/// Decodes a v2 (`v3 == false`) or v3 table: the preamble, then one framed
/// block per segment, each decoded straight into the columns' chunk slots.
///
/// A block's payload CRC is derived as it is decoded (see [`PayloadCrc`])
/// and compared with the stored one before the next block is read; an
/// encoded column block is checked against its own CRC before it is
/// validated and slotted. Rows of a block whose segment CRC then fails have
/// been slotted already — harmless, as the error drops the whole database.
fn decode_table_segmented<R: Read>(src: &mut Source<R>, v3: bool) -> Result<Table, PersistError> {
    let header = decode_table_header(src, true)?;
    let nsegs = read_segment_count(src, &header)?;
    let TableHeader { name, defs, seg_rows, nslots, live, free, dicts } = header;
    let geo = Geometry::new(seg_rows);
    let mut builders: Vec<ColumnBuilder> =
        defs.iter().zip(dicts).map(|(d, dict)| ColumnBuilder::new(&d.dtype, dict, geo)).collect();
    let mut zones = Vec::new();
    for seg in 0..nsegs {
        let len = src.u32("segment length")? as usize;
        let (payload, stored) = src.take_block(len + 4, "segment block")?.split_at(len);
        let stored = u32::from_le_bytes(stored.try_into().unwrap());
        let mut sums = PayloadCrc::new(0);
        let mut pc = Cursor::new(payload);
        let fmt = if v3 { pc.bytes(1, "segment format")?[0] } else { SEG_FMT_RAW };
        let live_count = pc.u64("segment live count")?;
        let stats = decode_zone_stats(&mut pc, defs.len())?;
        let start = seg * seg_rows;
        let rows = (nslots - start).min(seg_rows);
        match fmt {
            SEG_FMT_RAW => {
                for b in &mut builders {
                    b.extend(&mut pc, rows)?;
                }
            }
            SEG_FMT_ENCODED => {
                for b in &mut builders {
                    let tag = pc.bytes(1, "column encoding tag")?[0];
                    match tag {
                        ENC_RAW => b.extend(&mut pc, rows)?,
                        ENC_PACKED => {
                            let block = decode_packed_block(&mut pc, payload, &mut sums)?;
                            b.push_encoded(EncodedColumn::Packed(block), rows)?;
                        }
                        ENC_RLE => {
                            let block = decode_rle_block(&mut pc, payload, &mut sums)?;
                            b.push_encoded(EncodedColumn::Rle(block), rows)?;
                        }
                        other => {
                            return Err(PersistError::Corrupt(format!(
                                "unknown column encoding tag {other}"
                            )));
                        }
                    }
                }
            }
            other => {
                return Err(PersistError::Corrupt(format!("unknown segment format {other}")));
            }
        }
        if pc.remaining() != 0 {
            return Err(PersistError::Corrupt(format!(
                "{} trailing bytes in segment {seg} of table {name:?}",
                pc.remaining()
            )));
        }
        let actual = sums.finish(payload);
        if stored != actual {
            return Err(PersistError::Corrupt(format!(
                "segment {seg} of table {name:?} checksum mismatch \
                 (stored {stored:#010x}, computed {actual:#010x})"
            )));
        }
        src.enter_block(actual, len);
        zones.push(SegmentZone::from_parts(stats, live_count));
    }
    let columns: Vec<Column> = builders.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Table::from_parts_with_zones(name, Schema::new(defs), columns, live, free, seg_rows, zones))
}

/// Decodes and CRC-checks one bit-packed column block; every packing
/// invariant is re-validated by [`PackedInts::from_parts`].
fn decode_packed_block(
    pc: &mut Cursor<'_>,
    payload: &[u8],
    sums: &mut PayloadCrc,
) -> Result<PackedInts, PersistError> {
    let start = pc.position();
    let base = i64::from_le_bytes(pc.bytes(8, "packed base")?.try_into().unwrap());
    let has_null = pc.bytes(1, "packed null flag")?[0];
    if has_null > 1 {
        return Err(PersistError::Corrupt(format!("bad packed null flag {has_null}")));
    }
    let len = pc.u32("packed length")?;
    let max_code = pc.u64("packed max code")?;
    let nwords = pc.u32("packed word count")? as usize;
    if nwords > pc.remaining() / 8 {
        return Err(PersistError::Corrupt(format!("packed word count {nwords} exceeds block")));
    }
    let words = pc
        .bytes(nwords * 8, "packed words")?
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        .collect();
    check_block_crc(pc, payload, start, "packed", sums)?;
    PackedInts::from_parts(base, len, max_code, has_null == 1, words)
        .ok_or_else(|| PersistError::Corrupt("packed block violates packing invariants".into()))
}

/// Decodes and CRC-checks one run-length column block; run monotonicity
/// and canonical form are re-validated by [`RleInts::from_parts`].
fn decode_rle_block(
    pc: &mut Cursor<'_>,
    payload: &[u8],
    sums: &mut PayloadCrc,
) -> Result<RleInts, PersistError> {
    let start = pc.position();
    let nruns = pc.u32("rle run count")? as usize;
    if nruns > pc.remaining() / 12 {
        return Err(PersistError::Corrupt(format!("rle run count {nruns} exceeds block")));
    }
    let mut values = Vec::with_capacity(nruns);
    for _ in 0..nruns {
        values.push(i64::from_le_bytes(pc.bytes(8, "rle value")?.try_into().unwrap()));
    }
    let mut ends = Vec::with_capacity(nruns);
    for _ in 0..nruns {
        ends.push(pc.u32("rle end")?);
    }
    check_block_crc(pc, payload, start, "rle", sums)?;
    RleInts::from_parts(values, ends)
        .ok_or_else(|| PersistError::Corrupt("rle block violates run invariants".into()))
}

/// Verifies the trailing CRC of an encoded column block spanning
/// `payload[start..]` up to the cursor's current position — hashing it
/// once, into the payload's CRC as well.
fn check_block_crc(
    pc: &mut Cursor<'_>,
    payload: &[u8],
    start: usize,
    what: &str,
    sums: &mut PayloadCrc,
) -> Result<(), PersistError> {
    let end = pc.position();
    let stored = pc.u32("encoded block crc")?;
    let actual = sums.block(payload, start, end);
    if stored != actual {
        return Err(PersistError::Corrupt(format!(
            "{what} block checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    Ok(())
}

fn decode_table_v1(c: &mut impl Input) -> Result<Table, PersistError> {
    let header = decode_table_header(c, false)?;
    let mut columns = Vec::with_capacity(header.defs.len());
    for def in &header.defs {
        columns.push(decode_column_v1(c, &def.dtype, header.nslots)?);
    }
    Ok(Table::from_parts(header.name, Schema::new(header.defs), columns, header.live, header.free))
}

fn decode_column_v1(
    c: &mut impl Input,
    dtype: &DataType,
    n: usize,
) -> Result<Column, PersistError> {
    let dict = if *dtype == DataType::Dict { Some(decode_dictionary(c)?) } else { None };
    let mut b = ColumnBuilder::new(dtype, dict, Geometry::default());
    b.extend(c, n)?;
    Ok(b.finish())
}

/// Saves `db` to `path` atomically (temp file in the same directory, fsync,
/// rename, then fsync of the parent directory so the rename itself is
/// durable — without it, a power loss could persist a later WAL truncation while
/// the directory entry still points at the old snapshot, silently dropping
/// checkpointed writes). Records `wal_lsn` as the last WAL record folded
/// in. Returns the number of bytes written.
pub fn save_snapshot_with_lsn(
    db: &Database,
    path: impl AsRef<Path>,
    wal_lsn: u64,
) -> Result<usize, PersistError> {
    let (len, _) =
        write_snapshot_file(path.as_ref(), db, wal_lsn, None::<SegmentIndex<std::fs::File>>)?;
    Ok(len)
}

/// Atomically replaces the snapshot at `path` with `db`, streamed into the
/// temp file through [`write_snapshot`] (reusing `prev`'s clean blocks;
/// `prev` is closed before the rename). Returns the bytes written and the
/// number of reused blocks.
pub(crate) fn write_snapshot_file<R: Read + Seek>(
    path: &Path,
    db: &Database,
    wal_lsn: u64,
    mut prev: Option<SegmentIndex<R>>,
) -> Result<(usize, usize), PersistError> {
    let tmp = path.with_extension("tmp");
    let out = BufWriter::new(std::fs::File::create(&tmp)?);
    let (out, len, reused) = write_snapshot(out, db, wal_lsn, prev.as_mut())?;
    drop(prev);
    let file = out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // Windows cannot open directories as files; directory-entry
        // durability is a POSIX concern, so a failure here is non-fatal
        // there. On Unix, surface it: the rename is not durable without it.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all()?,
            Err(_) if !cfg!(unix) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok((len as usize, reused))
}

/// Saves a standalone snapshot (no WAL association).
pub fn save_snapshot(db: &Database, path: impl AsRef<Path>) -> Result<usize, PersistError> {
    save_snapshot_with_lsn(db, path, 0)
}

/// Loads a snapshot file, returning the database and the header's WAL LSN:
/// read through a buffered reader one block at a time, never whole (see
/// the module docs).
pub fn load_snapshot_with_lsn(path: impl AsRef<Path>) -> Result<(Database, u64), PersistError> {
    let file = std::fs::File::open(path)?;
    let len = file.metadata()?.len();
    read_snapshot(Source::new(BufReader::new(file), len)?)
}

/// Loads a snapshot file.
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Database, PersistError> {
    load_snapshot_with_lsn(path).map(|(db, _)| db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::types::{Value, NULL_KEY};

    /// A database exercising every column kind, deletes, free slots, a
    /// dynamic (non-sorted) dictionary, and multiple segments.
    fn kitchen_sink() -> Database {
        let mut dim = Table::new(
            "dim",
            Schema::new(vec![
                ColumnDef::new("d_tag", DataType::Dict),
                ColumnDef::new("d_note", DataType::Str),
            ]),
        );
        for (tag, note) in [("zulu", "first"), ("alpha", "secönd"), ("zulu", ""), ("mike", "x")] {
            dim.append_row(&[Value::Str(tag.into()), Value::Str(note.into())]);
        }
        dim.delete(2);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_dim", DataType::Key { target: "dim".into() }),
                ColumnDef::new("f_i32", DataType::I32),
                ColumnDef::new("f_i64", DataType::I64),
                ColumnDef::new("f_f64", DataType::F64),
            ]),
        );
        fact.set_segment_rows(2); // several segments even at toy scale
        fact.append_row(&[Value::Key(0), Value::Int(-5), Value::Int(1 << 40), Value::Float(2.5)]);
        fact.append_row(&[Value::Key(NULL_KEY), Value::Int(7), Value::Int(-1), Value::Float(-0.0)]);
        fact.append_row(&[Value::Key(3), Value::Int(0), Value::Int(0), Value::Float(f64::MIN)]);
        fact.delete(1);
        let mut db = Database::new();
        db.add_table(dim);
        db.add_table(fact);
        db
    }

    fn assert_same(a: &Database, b: &Database) {
        assert_eq!(a.table_names(), b.table_names());
        assert_eq!(**a.graph(), **b.graph(), "join graph");
        for name in a.table_names() {
            let (ta, tb) = (a.table(name).unwrap(), b.table(name).unwrap());
            assert_eq!(ta.num_slots(), tb.num_slots(), "{name}");
            assert_eq!(ta.live_bitmap(), tb.live_bitmap(), "{name}");
            assert_eq!(ta.free_slots(), tb.free_slots(), "{name}");
            assert_eq!(ta.schema().defs(), tb.schema().defs(), "{name}");
            for row in 0..ta.num_slots() as RowId {
                if ta.is_live(row) {
                    assert_eq!(ta.row(row), tb.row(row), "{name}[{row}]");
                }
            }
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = kitchen_sink();
        let bytes = encode_snapshot(&db, 42);
        let (back, lsn) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 42);
        assert_same(&db, &back);
        // Dynamic dictionary code order survives (codes, not just values).
        let orig = db.table("dim").unwrap().column("d_tag").unwrap().as_dict().unwrap();
        let load = back.table("dim").unwrap().column("d_tag").unwrap().as_dict().unwrap();
        assert_eq!(orig.codes(), load.codes());
        assert_eq!(orig.dict().values(), load.dict().values());
    }

    #[test]
    fn a_loaded_image_has_the_saved_join_graph() {
        let db = kitchen_sink();
        let (back, _) = decode_snapshot(&encode_snapshot(&db, 0)).unwrap();
        let (saved, loaded) = (db.graph(), back.graph());
        assert_eq!(loaded.roots(), saved.roots());
        assert_eq!(loaded.roots(), ["fact".to_string()]);
        for table in ["fact", "dim"] {
            assert_eq!(loaded.path("fact", table), saved.path("fact", table), "{table}");
        }
        assert_eq!(loaded.path("fact", "dim").unwrap().steps[0].key_column, "f_dim");
        assert_eq!(**loaded, **saved);
    }

    #[test]
    fn roundtrip_preserves_zone_maps_and_segmentation() {
        let db = kitchen_sink();
        let (back, _) = decode_snapshot(&encode_snapshot(&db, 0)).unwrap();
        let (orig, load) = (db.table("fact").unwrap(), back.table("fact").unwrap());
        assert_eq!(orig.segment_rows(), load.segment_rows());
        assert_eq!(orig.segment_count(), load.segment_count());
        for seg in 0..orig.segment_count() {
            assert_eq!(orig.zone(seg).stats(), load.zone(seg).stats(), "segment {seg}");
            assert_eq!(orig.zone(seg).live(), load.zone(seg).live(), "segment {seg}");
            assert!(!load.zone(seg).is_dirty(), "loaded segments are clean");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(encode_snapshot(&kitchen_sink(), 7), encode_snapshot(&kitchen_sink(), 7));
        assert_eq!(
            encode_snapshot(&sealed_kitchen_sink(), 7),
            encode_snapshot(&sealed_kitchen_sink(), 7)
        );
    }

    /// The kitchen sink with every segment sealed (encoded where smaller).
    fn sealed_kitchen_sink() -> Database {
        let mut db = kitchen_sink();
        // The toy tables are too small for packing to win; widen the fact
        // table so at least one segment genuinely encodes.
        let fact = db.table_mut("fact").unwrap();
        for i in 0..256 {
            fact.append_row(&[
                Value::Key(i % 4),
                Value::Int(i64::from(1000 + (i % 50))),
                Value::Int(i64::from(i / 128)),
                Value::Float(0.25),
            ]);
        }
        for name in ["dim", "fact"] {
            db.table_mut(name).unwrap().seal_segments();
        }
        db
    }

    /// The `(column, segment)` chunks of `t` that are resident encoded.
    fn encoded_chunks(t: &Table) -> Vec<(usize, usize)> {
        (0..t.schema().arity())
            .flat_map(|c| (0..t.segment_count()).map(move |seg| (c, seg)))
            .filter(|&(c, seg)| t.column_at(c).chunk_encoding(seg).is_some())
            .collect()
    }

    #[test]
    fn sealed_roundtrip_loads_blocks_straight_into_slots() {
        let db = sealed_kitchen_sink();
        let fact = db.table("fact").unwrap();
        assert!(!encoded_chunks(fact).is_empty(), "fixture must actually encode something");

        let bytes = encode_snapshot(&db, 21);
        let (back, lsn) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 21);
        assert_same(&db, &back);
        let bfact = back.table("fact").unwrap();
        // Every slot holds what the original held — the same words and runs
        // where it was encoded, and no flat chunk in their place.
        assert_eq!(encoded_chunks(bfact), encoded_chunks(fact));
        for (c, seg) in encoded_chunks(fact) {
            assert_eq!(
                bfact.column_at(c).chunk_encoding(seg),
                fact.column_at(c).chunk_encoding(seg),
                "column {c} segment {seg}"
            );
        }
        assert_eq!(bfact.encoded_footprint(), fact.encoded_footprint());
        for seg in 0..fact.segment_count() {
            assert!(!bfact.zone(seg).is_dirty(), "loaded segments are clean");
        }
        // sealed → save → load → save is byte-identical, and a seal of the
        // loaded image finds nothing to do.
        assert_eq!(encode_snapshot(&back, 21), bytes);
        let mut resealed = back.clone();
        resealed.table_mut("fact").unwrap().seal_segments();
        assert_eq!(encode_snapshot(&resealed, 21), bytes);
        // And the compressed footprint is genuinely smaller.
        let (enc, raw) = bfact.encoded_footprint();
        assert!(enc < raw, "encoded {enc} must beat raw {raw}");
    }

    #[test]
    fn written_chunks_checkpoint_raw_beside_encoded_neighbours() {
        // A write after a seal decodes the chunk it lands in (and an append
        // the partial tail): the snapshot persists each chunk in the form
        // it is held — the written ones raw, their neighbours encoded — and
        // the loaded image carries the current values.
        let mut db = sealed_kitchen_sink();
        let fact = db.table_mut("fact").unwrap();
        let i64_col = fact.schema().position("f_i64").unwrap();
        let (_, seg) = *encoded_chunks(fact)
            .iter()
            .find(|&&(c, _)| c == i64_col)
            .expect("fixture must encode an f_i64 chunk");
        let row = (seg * 2..seg * 2 + 2)
            .map(|r| r as u32)
            .find(|&r| fact.is_live(r))
            .expect("an encoded segment has a live row");
        fact.update(row, "f_i64", &Value::Int(777_777));
        fact.append_row(&[Value::Key(1), Value::Int(9), Value::Int(9), Value::Float(1.5)]);
        assert!(fact.column_at(i64_col).chunk_encoding(seg).is_none(), "the write decoded it");

        let bytes = encode_snapshot(&db, 7);
        let (back, _) = decode_snapshot(&bytes).unwrap();
        assert_same(&db, &back);
        let (fact, bfact) = (db.table("fact").unwrap(), back.table("fact").unwrap());
        assert_eq!(bfact.row(row)[2], Value::Int(777_777), "current value persisted");
        assert_eq!(
            encoded_chunks(bfact),
            encoded_chunks(fact),
            "each chunk in the form it was held"
        );
        assert_eq!(encode_snapshot(&back, 7), bytes);
        // The next seal puts the written chunks back in encoded form.
        let mut resealed = back.clone();
        resealed.table_mut("fact").unwrap().seal_segments();
        assert!(resealed.table("fact").unwrap().column_at(i64_col).chunk_encoding(seg).is_some());
    }

    #[test]
    fn a_tail_appended_in_place_is_written_from_the_visible_prefix() {
        // An image and a later one share the filling tail's buffers; each
        // must persist exactly the rows it sees, and a buffer holding rows
        // nobody sees any more (a discarded batch) must not leak them.
        let mut db = kitchen_sink();
        let fact = db.table_mut("fact").unwrap();
        fact.set_segment_rows(64);
        let row = |i: i64| [Value::Key(0), Value::Int(i), Value::Int(i * 3), Value::Float(0.5)];
        for i in 0..70 {
            fact.append_row(&row(i));
        }
        let early = db.clone();
        let early_bytes = encode_snapshot(&early, 1);
        let mut discarded = db.clone();
        discarded.table_mut("fact").unwrap().append_row(&row(-1));
        drop(discarded);
        let fact = db.table_mut("fact").unwrap();
        let copies = fact.append_copies();
        for i in 70..90 {
            fact.append_row(&row(i));
        }
        assert_eq!(fact.append_copies(), copies + 4, "only the orphaned slot forced a copy");
        assert_eq!(encode_snapshot(&early, 1), early_bytes, "the earlier image is unchanged");

        // save → load → save is byte-identical, flat tail …
        let bytes = encode_snapshot(&db, 2);
        let (back, _) = decode_snapshot(&bytes).unwrap();
        assert_same(&db, &back);
        assert_eq!(back.table("fact").unwrap().num_slots(), 93);
        assert_eq!(encode_snapshot(&back, 2), bytes);
        // … and sealed tail (the seal encodes the visible prefix only).
        let mut sealed = db.clone();
        sealed.table_mut("fact").unwrap().seal_segments();
        let bytes = encode_snapshot(&sealed, 3);
        let (back, _) = decode_snapshot(&bytes).unwrap();
        assert_same(&db, &back);
        assert_eq!(encode_snapshot(&back, 3), bytes);
        assert_same(&early, &decode_snapshot(&early_bytes).unwrap().0);
    }

    #[test]
    fn encoded_blocks_outside_the_column_domain_are_rejected() {
        use astore_storage::encoded::encode_values;
        let mut b = ColumnBuilder::new(&DataType::I32, None, Geometry::new(4));
        let wide = encode_values(&[1i64 << 40, (1 << 40) + 1, (1 << 40) + 1, 1 << 40]).unwrap();
        assert!(b.push_encoded(wide.clone(), 4).is_err(), "beyond i32");
        assert!(b.push_encoded(encode_values(&[7i64, 7, 7, 8]).unwrap(), 3).is_err(), "row count");
        assert!(b.push_encoded(encode_values(&[7i64, 7, 7, 8]).unwrap(), 4).is_ok());
        let dict = Dictionary::from_values(vec!["a".into(), "b".into()]);
        let mut d = ColumnBuilder::new(&DataType::Dict, Some(dict), Geometry::new(4));
        assert!(
            d.push_encoded(encode_values(&[0u32, 0, 2, 2]).unwrap(), 4).is_err(),
            "code 2 of 2"
        );
        assert!(d.push_encoded(encode_values(&[0u32, 0, 1, 1]).unwrap(), 4).is_ok());
        let mut k =
            ColumnBuilder::new(&DataType::Key { target: "t".into() }, None, Geometry::new(4));
        assert!(
            k.push_encoded(encode_values(&[-1i64, -1, -1, 0]).unwrap(), 4).is_err(),
            "negative"
        );
        assert!(k.push_encoded(wide, 4).is_err(), "beyond u32");
        assert!(k.push_encoded(encode_values(&[NULL_KEY, 5, 5, 5]).unwrap(), 4).is_ok());
        let mut f = ColumnBuilder::new(&DataType::F64, None, Geometry::new(4));
        assert!(f.push_encoded(encode_values(&[1i64, 1, 1, 1]).unwrap(), 4).is_err());
    }

    #[test]
    fn sealed_incremental_encode_reuses_encoded_blocks() {
        let db = sealed_kitchen_sink();
        let bytes = encode_snapshot(&db, 5);
        let (back, _) = decode_snapshot(&bytes).unwrap();
        let mut index = index_snapshot_segments(std::io::Cursor::new(&bytes)).unwrap();
        let nsegs = index.len();
        let (inc, reused) = encode_snapshot_with_prev(&back, 5, Some(&mut index));
        assert_eq!(reused, nsegs, "a loaded sealed database reuses every block");
        assert_eq!(inc, bytes);
    }

    #[test]
    fn v2_files_still_load_without_encodings() {
        let db = sealed_kitchen_sink();
        let bytes = encode_snapshot_v2(&db, 13);
        assert_eq!(u32::from_le_bytes(bytes[8..12].try_into().unwrap()), SNAPSHOT_VERSION_V2);
        let (back, lsn) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 13);
        assert_same(&db, &back);
        // Zone maps survive verbatim; encodings do not exist in v2, so the
        // tables come up unsealed (a boot-time seal rebuilds them).
        let fact = back.table("fact").unwrap();
        assert_eq!(fact.segment_rows(), db.table("fact").unwrap().segment_rows());
        assert!(encoded_chunks(fact).is_empty(), "v2 loads are flat");
        assert!(
            (0..fact.segment_count()).all(|s| fact.segment_written(s).is_some()),
            "and unsealed"
        );
        // v2 blocks are not reusable by a v3 checkpoint.
        assert!(index_snapshot_segments(std::io::Cursor::new(&bytes)).is_none());
    }

    #[test]
    fn corrupt_encoded_block_is_pinpointed() {
        let db = sealed_kitchen_sink();
        let good = encode_snapshot(&db, 0);
        // Find a packed block by its tag bytes: scan for any segment
        // payload and flip a byte inside it while fixing the outer CRCs is
        // fiddly — instead corrupt through the public surface: flip each
        // byte and require *an* error (the whole-file CRC backstops), then
        // separately prove from_parts-level validation fires by decoding a
        // hand-bent block.
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x40;
        assert!(decode_snapshot(&bad).is_err());
        // A structurally invalid packed block (nonzero guard bit) must be
        // rejected even with a correct block CRC.
        let p = PackedInts::from_parts(0, 3, 5, false, vec![1 | (1 << 3)]);
        assert!(p.is_none(), "guard-bit violation must not reassemble");
    }

    #[test]
    fn v1_files_still_load_with_rebuilt_zone_maps() {
        let db = kitchen_sink();
        let bytes = encode_snapshot_v1(&db, 11);
        let (back, lsn) = decode_snapshot(&bytes).unwrap();
        assert_eq!(lsn, 11);
        assert_same(&db, &back);
        // Zone maps are rebuilt on load: default segment size, exact stats.
        let fact = back.table("fact").unwrap();
        assert_eq!(fact.segment_rows(), astore_storage::segment::SEGMENT_ROWS);
        assert_eq!(fact.segment_count(), 1);
        assert_eq!(
            fact.zone(0).stat(1),
            &ZoneStats::Int { min: -5, max: 0 },
            "v1 load rebuilds exact bounds over live rows"
        );
    }

    #[test]
    fn incremental_encode_reuses_clean_segments_byte_identically() {
        let db = kitchen_sink();
        let bytes = encode_snapshot(&db, 5);
        // A loaded database is all-clean relative to those bytes.
        let (mut back, _) = decode_snapshot(&bytes).unwrap();
        let mut index = index_snapshot_segments(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(index.len(), 1 + 2, "dim has 1 segment, fact has 2");

        // No mutation: everything reuses, bytes identical to a full encode.
        let (inc, reused) = encode_snapshot_with_prev(&back, 5, Some(&mut index));
        assert_eq!(reused, 3);
        assert_eq!(inc, encode_snapshot(&back, 5), "reused encode must be byte-identical");

        // Mutate one fact segment: only it re-encodes; bytes still match.
        back.table_mut("fact").unwrap().update(0, "f_i32", &Value::Int(99));
        let (inc, reused) = encode_snapshot_with_prev(&back, 6, Some(&mut index));
        assert_eq!(reused, 2, "dim + the untouched fact segment reuse");
        assert_eq!(inc, encode_snapshot(&back, 6));
        let (again, _) = decode_snapshot(&inc).unwrap();
        assert_same(&back, &again);
    }

    #[test]
    fn v1_files_are_not_indexable_for_reuse() {
        let v1 = encode_snapshot_v1(&kitchen_sink(), 0);
        assert!(index_snapshot_segments(std::io::Cursor::new(&v1)).is_none());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("astore-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.snapshot");
        let db = kitchen_sink();
        let n = save_snapshot_with_lsn(&db, &path, 9).unwrap();
        assert_eq!(n, std::fs::metadata(&path).unwrap().len() as usize);
        let (back, lsn) = load_snapshot_with_lsn(&path).unwrap();
        assert_eq!(lsn, 9);
        assert_same(&db, &back);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&kitchen_sink(), 0);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut} must be detected");
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        for bytes in [
            encode_snapshot(&kitchen_sink(), 0),
            encode_snapshot(&sealed_kitchen_sink(), 0),
            encode_snapshot_v2(&kitchen_sink(), 0),
            encode_snapshot_v1(&kitchen_sink(), 0),
        ] {
            // Flip one bit in every byte (covers header, zone stats, segment
            // frames, payload and trailer).
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x10;
                assert!(decode_snapshot(&bad).is_err(), "flip at byte {i} must be detected");
            }
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode_snapshot(&kitchen_sink(), 0);
        bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        match decode_snapshot(&bytes) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, SNAPSHOT_VERSION + 1);
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    /// Recomputes the trailing checksum after an edit outside any block.
    fn reseal(bytes: &mut [u8]) {
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn an_arity_the_file_cannot_hold_is_refused_before_allocating() {
        // `dim`'s arity sits after the header (24 B) and its name (4 + 3 B).
        // 0xFFFF_FFFF column definitions would be a ~240 GB allocation —
        // an abort, not an error — if the count sized a vector unchecked.
        let mut bytes = encode_snapshot(&kitchen_sink(), 0);
        assert_eq!(&bytes[28..31], b"dim");
        assert_eq!(u32::from_le_bytes(bytes[31..35].try_into().unwrap()), 2);
        bytes[31..35].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut bytes);
        match decode_snapshot(&bytes) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("arity"), "{m}"),
            other => panic!("expected a corrupt-arity error, got {other:?}"),
        }
    }

    #[test]
    fn a_large_dictionary_is_checked_for_duplicates_in_linear_time() {
        // 100 000 distinct values: a pairwise duplicate check is 5·10⁹
        // string comparisons (seconds even optimised); a hash check is
        // milliseconds.
        let n = 100_000;
        let values: Vec<String> = (0..n).map(|i| format!("v{i:06}")).collect();
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("tag", DataType::Dict)]));
        for v in &values {
            t.append_row(&[Value::Str(v.clone())]);
        }
        let mut db = Database::new();
        db.add_table(t);
        let mut bytes = encode_snapshot(&db, 0);
        let started = std::time::Instant::now();
        let (back, _) = decode_snapshot(&bytes).unwrap();
        assert!(started.elapsed().as_secs_f64() < 2.0, "decode took {:?}", started.elapsed());
        assert_eq!(
            back.table("t").unwrap().column("tag").unwrap().as_dict().unwrap().dict().len(),
            n
        );
        // The last value rewritten as the first: refused, just as fast.
        let last = bytes.windows(7).rposition(|w| w == b"v099999").unwrap();
        bytes[last..last + 7].copy_from_slice(b"v000000");
        reseal(&mut bytes);
        let started = std::time::Instant::now();
        match decode_snapshot(&bytes) {
            Err(PersistError::Corrupt(m)) => assert!(m.contains("duplicate"), "{m}"),
            other => panic!("expected a duplicate-value error, got {other:?}"),
        }
        assert!(started.elapsed().as_secs_f64() < 2.0, "rejection took {:?}", started.elapsed());
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let (back, _) = decode_snapshot(&encode_snapshot(&db, 0)).unwrap();
        assert!(back.is_empty());
    }
}
