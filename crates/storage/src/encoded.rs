//! Per-segment column encodings: bit-packing, frame-of-reference, RLE.
//!
//! The paper stores dictionary codes in plain `u32` arrays ("array indexes
//! as compression codes", §2). This module tightens that to the *domain
//! width*: a sealed segment re-represents each integer-ish column (`i32`,
//! `i64`, AIR keys, dictionary codes) as either
//!
//! - [`PackedInts`] — frame-of-reference bit-packing: values become small
//!   unsigned offsets from a per-segment base, packed `width` bits per lane
//!   into `u64` words. Every lane carries one spare high **guard bit**
//!   (always 0) so the scan layer can evaluate range predicates on whole
//!   words at once with carry-less SWAR arithmetic; or
//! - [`RleInts`] — run-length encoding for value-clustered columns (the
//!   arrival-order date columns of the SSB generator, constant columns),
//!   where a range predicate accepts or rejects an entire run at a time.
//!
//! An encoding is chosen per column chunk ([`encode_values`]), only when
//! strictly smaller than the raw chunk, and covers **all** slots of the
//! segment (dead ones included) so decoding reproduces the raw chunk
//! byte-for-byte: liveness stays in the table's delete vector, exactly as
//! for flat chunks. The encoding then *replaces* the flat chunk in its
//! column slot ([`crate::chunks::Chunk`]): a (column, segment) is resident
//! in exactly one form, and every reader takes whichever it finds.
//!
//! ## The logical value domain
//!
//! Every encodable column reads as `i64`: `i32` widened, `i64` verbatim,
//! dictionary codes and AIR keys as their unsigned `u32` value. A NULL
//! reference ([`NULL_KEY`] = `u32::MAX`) is *literally the largest* key
//! value, and compiled predicates compare it as such — so the packed form
//! maps it to the largest stored code ([`PackedInts::null_code`]), which
//! keeps the value → code mapping order-preserving and lets range kernels
//! treat NULL like any other value. No special NULL path, no semantic
//! drift from the flat evaluator.

use crate::strings::StrRef;
use crate::types::{Key, NULL_KEY};

/// A fixed-width value a column chunk holds, and its image in the logical
/// `i64` domain the encodings store (see the module docs). Floats and
/// string references are chunk values too, but never encoding candidates.
pub trait ChunkValue: Copy + std::fmt::Debug + Send + Sync + 'static {
    /// Are chunks of this type encoding candidates?
    const ENCODABLE: bool;
    /// The logical value that stands for a NULL reference, for types that
    /// have one (keys).
    const NULL: Option<i64> = None;

    /// The value in the logical `i64` domain.
    ///
    /// # Panics
    /// Panics for types that are not [`ChunkValue::ENCODABLE`].
    fn to_logical(self) -> i64;

    /// The value a logical `i64` stands for (the inverse of
    /// [`ChunkValue::to_logical`]; out-of-domain input truncates).
    fn from_logical(v: i64) -> Self;
}

impl ChunkValue for i32 {
    const ENCODABLE: bool = true;
    #[inline]
    fn to_logical(self) -> i64 {
        i64::from(self)
    }
    #[inline]
    fn from_logical(v: i64) -> i32 {
        v as i32
    }
}

impl ChunkValue for i64 {
    const ENCODABLE: bool = true;
    #[inline]
    fn to_logical(self) -> i64 {
        self
    }
    #[inline]
    fn from_logical(v: i64) -> i64 {
        v
    }
}

/// AIR keys and dictionary codes. `NULL_KEY` only ever occurs in key
/// columns (a dictionary code is an index into its dictionary), so giving
/// the type one NULL treatment changes nothing for code chunks.
impl ChunkValue for Key {
    const ENCODABLE: bool = true;
    const NULL: Option<i64> = Some(NULL_KEY as i64);
    #[inline]
    fn to_logical(self) -> i64 {
        i64::from(self)
    }
    #[inline]
    fn from_logical(v: i64) -> Key {
        v as Key
    }
}

macro_rules! never_encoded {
    ($($t:ty),*) => {$(
        impl ChunkValue for $t {
            const ENCODABLE: bool = false;
            fn to_logical(self) -> i64 {
                unreachable!(concat!(stringify!($t), " chunks are never encoded"))
            }
            fn from_logical(_: i64) -> $t {
                unreachable!(concat!(stringify!($t), " chunks are never encoded"))
            }
        }
    )*};
}
never_encoded!(f64, StrRef);

/// Widest lane the packer emits (data bits + guard bit). Capping at 32
/// guarantees at least two lanes per word, so the SWAR path always beats
/// scalar; offsets needing more than 31 data bits stay raw.
pub const MAX_PACK_WIDTH: u8 = 32;

/// Frame-of-reference bit-packed integers.
///
/// Value `v` at row `i` is stored as the unsigned code `v - base` (or
/// [`PackedInts::null_code`] for a NULL key), `width` bits per lane,
/// `64 / width` lanes per word, lane `i % lanes` of word `i / lanes` at bit
/// `(i % lanes) * width`. Lanes never straddle a word; unused high bits of
/// a word and lanes past `len` are zero. `width` includes one guard bit, so
/// every stored code is `< 2^(width-1)` and the top bit of each lane is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedInts {
    base: i64,
    width: u8,
    /// `64 / width`, kept so that no row access divides.
    lanes: u8,
    /// `⌈2^64 / lanes⌉`: the high half of `i × lane_recip` is `i / lanes`
    /// exactly for every `i < 2^32` and `2 <= lanes <= 32` (the error term
    /// `i × (lane_recip − 2^64/lanes) / 2^64` stays below `2^-32 <
    /// 1/lanes`), so locating a row's word is one widening multiply.
    lane_recip: u64,
    len: u32,
    max_code: u64,
    null_code: Option<u64>,
    words: Vec<u64>,
}

impl PackedInts {
    /// Packs `vals` (logical values) relative to `base`. `null_code`, when
    /// present, is the largest stored code and stands for [`NULL_KEY`]; real
    /// values then occupy codes `0..null_code`. Returns `None` if the
    /// required width exceeds [`MAX_PACK_WIDTH`].
    fn build(
        vals: impl ExactSizeIterator<Item = i64>,
        base: i64,
        max_code: u64,
        null_code: Option<u64>,
    ) -> Option<PackedInts> {
        let width = Self::width_for(max_code)?;
        let lanes = (64 / width) as usize;
        let len = vals.len();
        let mut words = vec![0u64; len.div_ceil(lanes)];
        let (mut word, mut shift) = (0usize, 0usize);
        for v in vals {
            let code = match null_code {
                Some(nc) if v == NULL_KEY as i64 => nc,
                _ => v.wrapping_sub(base) as u64,
            };
            debug_assert!(code <= max_code);
            words[word] |= code << shift;
            shift += width as usize;
            if shift + width as usize > 64 {
                (word, shift) = (word + 1, 0);
            }
        }
        Some(PackedInts::assemble(base, width, len as u32, max_code, null_code, words))
    }

    /// The struct for already-validated parts, with the layout constants
    /// derived from `width`.
    fn assemble(
        base: i64,
        width: u8,
        len: u32,
        max_code: u64,
        null_code: Option<u64>,
        words: Vec<u64>,
    ) -> PackedInts {
        let lanes = 64 / width;
        let lane_recip = u64::MAX / u64::from(lanes) + 1;
        PackedInts { base, width, lanes, lane_recip, len, max_code, null_code, words }
    }

    /// Reassembles a [`PackedInts`] from serialized parts (the snapshot
    /// decoder). Every structural invariant `PackedInts::build`
    /// guarantees is re-checked, so corrupt or hand-rolled bytes cannot
    /// produce a value the scan kernels would misread: the width is
    /// re-derived from `max_code`, the word count must match `len`, every
    /// guard bit and every bit above the last full lane must be zero,
    /// every lane holding a row must carry a code `<= max_code`, and
    /// lanes past `len` must be zero. `has_null` reconstructs
    /// `null_code`, which is always the top code when present.
    pub fn from_parts(
        base: i64,
        len: u32,
        max_code: u64,
        has_null: bool,
        words: Vec<u64>,
    ) -> Option<PackedInts> {
        let width = Self::width_for(max_code)?;
        let lanes = (64 / width) as usize;
        if words.len() != (len as usize).div_ceil(lanes) {
            return None;
        }
        // Whole words at a time (this runs over every block of every boot):
        // with all guard bits clear every code is below `half`, and adding
        // `half − 1 − max_code` to each lane then sets a guard bit exactly
        // where a code exceeds `max_code` — no carry leaves a lane.
        let (width, half) = (width as usize, 1u64 << (width - 1));
        let replicate = |v: u64| (0..lanes).fold(0u64, |acc, lane| acc | v << (lane * width));
        let (guard, over) = (replicate(half), replicate(half - 1 - max_code));
        let used_bits = lanes * width;
        let well_formed = words.iter().all(|&w| {
            (used_bits == 64 || w >> used_bits == 0) // no residue above the last lane
                && w & guard == 0
                && w.wrapping_add(over) & guard == 0
        });
        // Tail lanes past `len` must stay zero.
        let tail = len as usize % lanes;
        let tail_clear = tail == 0 || words.last().is_none_or(|&w| w >> (tail * width) == 0);
        if !(well_formed && tail_clear) {
            return None;
        }
        let width = width as u8;
        Some(PackedInts::assemble(base, width, len, max_code, has_null.then_some(max_code), words))
    }

    /// Lane width (guard bit included) needed for codes up to `max_code`,
    /// or `None` if it would exceed [`MAX_PACK_WIDTH`].
    fn width_for(max_code: u64) -> Option<u8> {
        let data_bits = (64 - max_code.leading_zeros()) as u8;
        let width = data_bits + 1;
        (width <= MAX_PACK_WIDTH).then_some(width.max(2))
    }

    /// Packed size in bytes for `len` values with codes up to `max_code`
    /// (`None` if unpackable) — the seal-time cost estimate.
    fn bytes_for(len: usize, max_code: u64) -> Option<usize> {
        let width = Self::width_for(max_code)?;
        let lanes = (64 / width) as usize;
        Some(len.div_ceil(lanes) * 8)
    }

    /// The frame-of-reference base.
    #[inline]
    pub fn base(&self) -> i64 {
        self.base
    }

    /// Lane width in bits, guard bit included.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Number of encoded rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if no rows are encoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest stored code (equals `null_code` when NULLs are present).
    #[inline]
    pub fn max_code(&self) -> u64 {
        self.max_code
    }

    /// The code standing for [`NULL_KEY`], if the segment has NULL keys.
    #[inline]
    pub fn null_code(&self) -> Option<u64> {
        self.null_code
    }

    /// The packed words (the scan kernels read these directly).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Lanes per word.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// The stored code at row `i` (division-free, see `lane_recip`).
    #[inline]
    pub fn code_at(&self, i: usize) -> u64 {
        debug_assert!(i < self.len as usize);
        let lanes = self.lanes();
        let word = ((i as u128 * u128::from(self.lane_recip)) >> 64) as usize;
        let mask = (1u64 << self.width) - 1;
        (self.words[word] >> ((i - word * lanes) * self.width as usize)) & mask
    }

    /// The logical value a stored code stands for.
    #[inline]
    pub fn value_of(&self, code: u64) -> i64 {
        match self.null_code {
            Some(nc) if code == nc => NULL_KEY as i64,
            _ => self.base.wrapping_add(code as i64),
        }
    }

    /// The logical value at row `i` (NULL keys read back as [`NULL_KEY`]).
    #[inline]
    pub fn value_at(&self, i: usize) -> i64 {
        self.value_of(self.code_at(i))
    }

    /// The smallest and largest logical value a row can decode to (the
    /// loader's domain check: every stored code is `<= max_code`).
    pub fn value_bounds(&self) -> (i64, i64) {
        match self.null_code {
            Some(0) => (NULL_KEY as i64, NULL_KEY as i64),
            Some(nc) => (self.base, self.value_of(nc - 1).max(NULL_KEY as i64)),
            None => (self.base, self.value_of(self.max_code)),
        }
    }

    /// Appends every row's value to `out`, unpacking a word at a time.
    pub fn decode_into<T: ChunkValue>(&self, out: &mut Vec<T>) {
        let (width, lanes) = (self.width as usize, self.lanes());
        let mask = (1u64 << width) - 1;
        let mut left = self.len();
        out.reserve(left);
        for &word in &self.words {
            let mut word = word;
            for _ in 0..lanes.min(left) {
                out.push(T::from_logical(self.value_of(word & mask)));
                word >>= width;
            }
            left = left.saturating_sub(lanes);
        }
    }

    /// Maps an inclusive *logical* value range onto the inclusive stored
    /// code range it covers, or `None` if no stored code can satisfy it.
    /// Because the value → code mapping is order-preserving (NULL maps to
    /// the top code and *is* the top value), the kernel can compare codes
    /// where the flat evaluator compares values.
    pub fn code_bounds(&self, lo: i64, hi: i64) -> Option<(u64, u64)> {
        let null_val = NULL_KEY as i64;
        let clo = if lo <= self.base {
            0
        } else {
            // lo > base, so the difference is positive and fits u64.
            let off = lo.wrapping_sub(self.base) as u64;
            match self.null_code {
                None if off <= self.max_code => off,
                None => return None,
                Some(nc) if nc > 0 && off < nc => off,
                Some(nc) if lo <= null_val => nc,
                Some(_) => return None,
            }
        };
        let chi = match self.null_code {
            Some(nc) if hi >= null_val => nc,
            nc => {
                if hi < self.base {
                    return None;
                }
                let off = hi.wrapping_sub(self.base) as u64;
                let real_max = match nc {
                    None => self.max_code,
                    Some(n) => n.checked_sub(1)?,
                };
                off.min(real_max)
            }
        };
        (clo <= chi).then_some((clo, chi))
    }

    /// Heap bytes held by the packed representation.
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Run-length encoded integers: `values[k]` repeats for rows
/// `ends[k-1]..ends[k]` (with `ends[-1] == 0`); `ends` is strictly
/// increasing and `ends.last() == len`. Values are stored raw (a NULL key
/// is literally `NULL_KEY as i64`), so RLE is exact for any int-ish column.
#[derive(Debug, Clone, PartialEq)]
pub struct RleInts {
    values: Vec<i64>,
    ends: Vec<u32>,
}

impl RleInts {
    fn build(vals: impl Iterator<Item = i64>) -> RleInts {
        let mut values = Vec::new();
        let mut ends: Vec<u32> = Vec::new();
        for v in vals {
            match ends.last_mut() {
                Some(end) if values.last() == Some(&v) => *end += 1,
                _ => {
                    values.push(v);
                    ends.push(ends.last().map_or(1, |e| e + 1));
                }
            }
        }
        RleInts { values, ends }
    }

    /// Reassembles an [`RleInts`] from serialized parts (the snapshot
    /// decoder), re-checking the canonical-form invariants
    /// `RleInts::build` guarantees: one end per value, strictly
    /// increasing ends, and no two adjacent runs with the same value
    /// (so a re-encode of the decoded column is byte-identical).
    pub fn from_parts(values: Vec<i64>, ends: Vec<u32>) -> Option<RleInts> {
        if values.len() != ends.len() {
            return None;
        }
        let mut prev_end = 0u32;
        for (k, &e) in ends.iter().enumerate() {
            if (k > 0 && e <= prev_end) || (k == 0 && e == 0) {
                return None;
            }
            prev_end = e;
        }
        if values.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(RleInts { values, ends })
    }

    /// Number of encoded rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0) as usize
    }

    /// Returns `true` if no rows are encoded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of runs.
    #[inline]
    pub fn run_count(&self) -> usize {
        self.values.len()
    }

    /// Run values, in row order.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Exclusive cumulative run ends (`ends.last() == len`).
    #[inline]
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }

    /// The logical value at row `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> i64 {
        let run = self.ends.partition_point(|&e| e <= i as u32);
        self.values[run]
    }

    /// Appends every row's value to `out`, a run at a time.
    pub fn decode_into<T: ChunkValue>(&self, out: &mut Vec<T>) {
        out.reserve(self.len());
        let mut start = 0u32;
        for (&v, &end) in self.values.iter().zip(&self.ends) {
            out.extend(std::iter::repeat_n(T::from_logical(v), (end - start) as usize));
            start = end;
        }
    }

    /// Calls `f(run value, row range)` for every run overlapping `rows`
    /// (clipped to it), ascending — how the scan kernels reach one verdict
    /// per run.
    pub fn runs_in(
        &self,
        rows: std::ops::Range<usize>,
        mut f: impl FnMut(i64, std::ops::Range<usize>),
    ) {
        let first = self.ends.partition_point(|&e| e as usize <= rows.start);
        let mut start = rows.start;
        for (&v, &end) in self.values[first..].iter().zip(&self.ends[first..]) {
            if start >= rows.end {
                break;
            }
            let end = (end as usize).min(rows.end);
            f(v, start..end);
            start = end;
        }
    }

    /// Heap bytes held by the run representation.
    pub fn bytes(&self) -> usize {
        self.values.len() * 8 + self.ends.len() * 4
    }
}

/// One column of a sealed segment in encoded form.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodedColumn {
    /// Frame-of-reference bit-packed.
    Packed(PackedInts),
    /// Run-length encoded.
    Rle(RleInts),
}

impl EncodedColumn {
    /// Number of encoded rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Packed(p) => p.len(),
            EncodedColumn::Rle(r) => r.len(),
        }
    }

    /// Returns `true` if no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical value at row `i` (relative to the segment start).
    #[inline]
    pub fn value_at(&self, i: usize) -> i64 {
        match self {
            EncodedColumn::Packed(p) => p.value_at(i),
            EncodedColumn::Rle(r) => r.value_at(i),
        }
    }

    /// Heap bytes held by the encoded representation.
    pub fn bytes(&self) -> usize {
        match self {
            EncodedColumn::Packed(p) => p.bytes(),
            EncodedColumn::Rle(r) => r.bytes(),
        }
    }

    /// Appends every row's value to `out` — the decode a write into an
    /// encoded chunk pays, and the decode-once view of row-at-a-time
    /// readers ([`crate::chunks::ChunkRef::decoded`]).
    pub fn decode_into<T: ChunkValue>(&self, out: &mut Vec<T>) {
        match self {
            EncodedColumn::Packed(p) => p.decode_into(out),
            EncodedColumn::Rle(r) => r.decode_into(out),
        }
    }

    /// Bounds on the logical values the rows decode to, `None` when empty:
    /// what the snapshot loader checks against the column's domain instead
    /// of decoding every row.
    pub fn value_bounds(&self) -> Option<(i64, i64)> {
        match self {
            EncodedColumn::Packed(p) => (!p.is_empty()).then(|| p.value_bounds()),
            EncodedColumn::Rle(r) => {
                let min = r.values().iter().min()?;
                Some((*min, *r.values().iter().max()?))
            }
        }
    }

    /// Calls `f(row)` for every encoded row (relative to the segment start)
    /// whose logical value falls in `[lo, hi]`. Rows are visited ascending.
    /// This is the portable reference path; the scan layer ships wider
    /// kernels over the same representation.
    pub fn for_each_in_range(&self, lo: i64, hi: i64, mut f: impl FnMut(u32)) {
        match self {
            EncodedColumn::Packed(p) => {
                let Some((clo, chi)) = p.code_bounds(lo, hi) else {
                    return;
                };
                for i in 0..p.len() {
                    let c = p.code_at(i);
                    if clo <= c && c <= chi {
                        f(i as u32);
                    }
                }
            }
            EncodedColumn::Rle(r) => r.runs_in(0..r.len(), |v, run| {
                if lo <= v && v <= hi {
                    run.for_each(|i| f(i as u32));
                }
            }),
        }
    }
}

/// Chooses and builds the encoding of one chunk of values, or `None` if no
/// encoding is strictly smaller than the raw chunk (and always for floats
/// and string references). All slots are encoded, live or dead, so a decode
/// reproduces the chunk exactly.
pub fn encode_values<T: ChunkValue>(vals: &[T]) -> Option<EncodedColumn> {
    if !T::ENCODABLE || vals.is_empty() {
        return None;
    }
    // One stats pass: run count, real bounds, NULL count (keys only).
    let mut runs = 0usize;
    let mut prev: Option<i64> = None;
    let mut real_min = i64::MAX;
    let mut real_max = i64::MIN;
    let mut nulls = 0usize;
    for v in vals.iter().map(|v| v.to_logical()) {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
        if T::NULL == Some(v) {
            nulls += 1;
        } else {
            real_min = real_min.min(v);
            real_max = real_max.max(v);
        }
    }
    let (base, max_code, null_code) = if nulls == vals.len() {
        // All-NULL key segment: one code, standing for NULL.
        (NULL_KEY as i64, 0, Some(0))
    } else if nulls > 0 {
        let span = real_max.wrapping_sub(real_min) as u64;
        let nc = span.checked_add(1)?;
        (real_min, nc, Some(nc))
    } else {
        (real_min, real_max.wrapping_sub(real_min) as u64, None)
    };
    let raw_bytes = std::mem::size_of_val(vals);
    let packed_bytes = PackedInts::bytes_for(vals.len(), max_code);
    let rle_bytes = runs * 12;
    let packed_wins = packed_bytes.is_some_and(|p| p < raw_bytes && p <= rle_bytes);
    let logical = vals.iter().map(|v| v.to_logical());
    if packed_wins {
        PackedInts::build(logical, base, max_code, null_code).map(EncodedColumn::Packed)
    } else if rle_bytes < raw_bytes {
        Some(EncodedColumn::Rle(RleInts::build(logical)))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::Geometry;
    use crate::column::Column;
    use crate::dictionary::DictColumn;

    fn int_col(vals: &[i64]) -> Column {
        Column::I64(vals.to_vec().into())
    }

    fn encode_column(col: &Column, seg: usize) -> Option<EncodedColumn> {
        col.encode_chunk(seg)
    }

    fn oracle(vals: &[i64], lo: i64, hi: i64) -> Vec<u32> {
        vals.iter()
            .enumerate()
            .filter(|&(_, &v)| lo <= v && v <= hi)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn scan(enc: &EncodedColumn, lo: i64, hi: i64) -> Vec<u32> {
        let mut out = Vec::new();
        enc.for_each_in_range(lo, hi, |r| out.push(r));
        out
    }

    #[test]
    fn packed_roundtrips_every_slot() {
        let vals: Vec<i64> = (0..1000).map(|i| 1_000_000 + (i * 37) % 513).collect();
        let enc = encode_column(&int_col(&vals), 0).expect("should encode");
        assert_eq!(enc.len(), vals.len());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.value_at(i), v, "slot {i}");
        }
        assert!(enc.bytes() < vals.len() * 8, "must be smaller than raw");
    }

    #[test]
    fn packed_guard_bit_is_always_zero() {
        let vals: Vec<i64> = (0..777).map(|i| (i * 11) % 300).collect();
        let EncodedColumn::Packed(p) = encode_column(&int_col(&vals), 0).unwrap() else {
            panic!("expected packed")
        };
        let w = p.width() as usize;
        let lanes = p.lanes();
        let mut guard = 0u64;
        for j in 0..lanes {
            guard |= 1u64 << (j * w + w - 1);
        }
        for &word in p.words() {
            assert_eq!(word & guard, 0, "guard bit set in {word:#x}");
        }
    }

    #[test]
    fn scan_range_matches_oracle_across_widths() {
        // Domains sized to hit widths from 2 up to the cap.
        for bits in [1u32, 3, 7, 12, 20, 31] {
            let m = 1i64 << bits;
            let vals: Vec<i64> =
                (0..513).map(|i: i64| (i.wrapping_mul(2654435761) % m + m) % m).collect();
            let enc = encode_column(&int_col(&vals), 0).expect("encodes");
            for (lo, hi) in [
                (0, m - 1),
                (m / 4, m / 2),
                (-5, 3),
                (m - 1, m + 100),
                (i64::MIN, i64::MAX),
                (5, 4),
            ] {
                assert_eq!(scan(&enc, lo, hi), oracle(&vals, lo, hi), "bits={bits} [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn wide_offsets_stay_raw() {
        // A span needing > 31 data bits cannot pack; two runs won't RLE a
        // 4-row column below raw either.
        let vals = vec![0, i64::MAX, 0, i64::MAX];
        assert_eq!(encode_column(&int_col(&vals), 0), None);
    }

    #[test]
    fn negative_bases_work() {
        let vals: Vec<i64> = (0..200).map(|i| -500 + i * 3).collect();
        let enc = encode_column(&int_col(&vals), 0).unwrap();
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.value_at(i), v);
        }
        assert_eq!(scan(&enc, -100, 40), oracle(&vals, -100, 40));
    }

    #[test]
    fn key_nulls_map_to_top_code_order_preserved() {
        let keys: Vec<u32> =
            (0..300).map(|i| if i % 7 == 0 { NULL_KEY } else { 10 + (i % 50) }).collect();
        let col = Column::Key { target: "d".into(), keys: keys.clone().into() };
        let vals: Vec<i64> = keys.iter().map(|&k| i64::from(k)).collect();
        let EncodedColumn::Packed(p) = encode_column(&col, 0).unwrap() else {
            panic!("expected packed")
        };
        assert_eq!(p.null_code(), Some(p.max_code()));
        let enc = EncodedColumn::Packed(p);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.value_at(i), v, "NULL must read back as NULL_KEY");
        }
        // Predicates that include / exclude NULL_KEY behave like the flat
        // evaluator, which treats NULL_KEY as the literal largest key.
        for (lo, hi) in [
            (0, NULL_KEY as i64),     // everything, NULL included
            (0, NULL_KEY as i64 - 1), // everything but NULL
            (60, NULL_KEY as i64),    // NULL only (reals stop at 59)
            (NULL_KEY as i64, NULL_KEY as i64),
        ] {
            assert_eq!(scan(&enc, lo, hi), oracle(&vals, lo, hi), "[{lo},{hi}]");
        }
    }

    #[test]
    fn all_null_key_segment() {
        let keys = vec![NULL_KEY; 64];
        let col = Column::Key { target: "d".into(), keys: keys.into() };
        let enc = encode_column(&col, 0).unwrap();
        for i in 0..64 {
            assert_eq!(enc.value_at(i), NULL_KEY as i64);
        }
        assert_eq!(scan(&enc, 0, NULL_KEY as i64).len(), 64);
        assert_eq!(scan(&enc, 0, NULL_KEY as i64 - 1).len(), 0);
        assert_eq!(scan(&enc, 5, 4).len(), 0);
    }

    #[test]
    fn rle_wins_on_clustered_values() {
        // 8 long runs over 4096 rows: RLE ≈ 96 bytes vs packed ≈ 1 KiB.
        let vals: Vec<i64> = (0..4096).map(|i| i64::from(i / 512)).collect();
        let enc = encode_column(&int_col(&vals), 0).unwrap();
        let EncodedColumn::Rle(r) = &enc else { panic!("expected RLE, got {enc:?}") };
        assert_eq!(r.run_count(), 8);
        assert_eq!(enc.len(), 4096);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.value_at(i), v);
        }
        assert_eq!(scan(&enc, 2, 5), oracle(&vals, 2, 5));
        assert_eq!(scan(&enc, 3, 3), oracle(&vals, 3, 3));
        assert_eq!(scan(&enc, 9, 99), Vec::<u32>::new());
    }

    #[test]
    fn constant_column_is_one_run() {
        let vals = vec![0i64; 1000];
        let enc = encode_column(&int_col(&vals), 0).unwrap();
        let EncodedColumn::Rle(r) = &enc else { panic!("expected RLE") };
        assert_eq!(r.run_count(), 1);
        assert_eq!(r.ends(), &[1000]);
        assert_eq!(enc.bytes(), 12);
    }

    #[test]
    fn sub_range_encoding_is_segment_relative() {
        let vals: Vec<i64> = (0..100).collect();
        let col = Column::I64(crate::chunks::Chunked::from_vec(vals, Geometry::new(20)));
        let enc = encode_column(&col, 2).unwrap();
        assert_eq!(enc.len(), 20);
        assert_eq!(enc.value_at(0), 40);
        assert_eq!(scan(&enc, 45, 47), vec![5, 6, 7]);
    }

    #[test]
    fn floats_and_strings_never_encode() {
        assert_eq!(encode_column(&Column::F64(vec![1.0; 64].into()), 0), None);
        let mut s = crate::strings::StrColumn::new();
        for _ in 0..64 {
            s.push("x");
        }
        assert_eq!(encode_column(&Column::Str(s), 0), None);
    }

    #[test]
    fn dict_codes_pack_to_domain_width() {
        let vals: Vec<String> = (0..512).map(|i| format!("v{:02}", i % 12)).collect();
        let col = Column::Dict(DictColumn::from_values(vals.iter()));
        let EncodedColumn::Packed(p) = encode_column(&col, 0).unwrap() else {
            panic!("expected packed")
        };
        // 12 distinct codes → 4 data bits + guard = 5-bit lanes.
        assert_eq!(p.width(), 5);
        assert_eq!(p.bytes(), 512usize.div_ceil(12) * 8);
    }

    #[test]
    fn i32_extremes_stay_raw() {
        // A span of u32::MAX offsets needs 32 data bits: unpackable, and
        // two runs over two rows beat nothing.
        let col = Column::I32(vec![i32::MIN, i32::MAX].into());
        assert_eq!(encode_column(&col, 0), None);
    }

    /// The word-at-a-time decode, the per-row lane extraction and the run
    /// walk all reproduce the encoded chunk, for every lane count, with a
    /// negative base and with NULLs.
    #[test]
    fn decode_code_at_and_runs_agree_with_the_source() {
        for bits in 1u32..=31 {
            let m = 1i64 << bits;
            let vals: Vec<i64> =
                (0..301).map(|i: i64| -7 + (i.wrapping_mul(2654435761) % m + m) % m).collect();
            let Some(EncodedColumn::Packed(p)) = encode_values(&vals) else {
                assert!(bits >= 31, "a {bits}-bit span must pack");
                continue;
            };
            assert_eq!(p.lanes(), 64 / (bits as usize + 1).max(2));
            let mut out: Vec<i64> = Vec::new();
            p.decode_into(&mut out);
            assert_eq!(out, vals, "bits={bits}");
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(p.value_at(i), v, "bits={bits} slot {i}");
            }
            let (lo, hi) = p.value_bounds();
            assert_eq!((lo, hi), (*vals.iter().min().unwrap(), *vals.iter().max().unwrap()));
        }
        let keys: Vec<Key> =
            (0..100).map(|i| if i % 9 == 0 { NULL_KEY } else { 40 + i % 13 }).collect();
        let enc = encode_values(&keys).unwrap();
        let mut out: Vec<Key> = Vec::new();
        enc.decode_into(&mut out);
        assert_eq!(out, keys);
        assert_eq!(enc.value_bounds(), Some((40, NULL_KEY as i64)));

        let runs: Vec<i64> = (0..1000).map(|i| i / 300).collect();
        let Some(EncodedColumn::Rle(r)) = encode_values(&runs) else { panic!("expected RLE") };
        let mut out: Vec<i64> = Vec::new();
        r.decode_into(&mut out);
        assert_eq!(out, runs);
        let mut seen = Vec::new();
        r.runs_in(250..901, |v, rows| seen.push((v, rows)));
        assert_eq!(seen, vec![(0, 250..300), (1, 300..600), (2, 600..900), (3, 900..901)]);
        r.runs_in(10..10, |_, _| panic!("an empty range visits no run"));
        assert_eq!(encode_values(&[1.5f64; 64]), None, "floats never encode");
    }

    #[test]
    fn packed_from_parts_roundtrips_and_rejects_corruption() {
        let mut keys: Vec<i64> = (0..300).map(|i| 1000 + (i * 13) % 97).collect();
        keys[7] = NULL_KEY as i64;
        keys[200] = NULL_KEY as i64;
        let col =
            Column::Key { target: "d".into(), keys: keys.iter().map(|&k| k as u32).collect() };
        let EncodedColumn::Packed(p) = encode_column(&col, 0).unwrap() else {
            panic!("expected packed")
        };
        let rebuilt = PackedInts::from_parts(
            p.base(),
            p.len() as u32,
            p.max_code(),
            p.null_code().is_some(),
            p.words().to_vec(),
        )
        .expect("valid parts reassemble");
        assert_eq!(rebuilt, p);

        // Wrong word count.
        assert!(
            PackedInts::from_parts(p.base(), p.len() as u32, p.max_code(), true, vec![]).is_none()
        );
        // A set guard bit (a code above max_code) is rejected.
        let mut bad = p.words().to_vec();
        bad[0] |= 1u64 << (p.width() - 1);
        assert!(PackedInts::from_parts(p.base(), p.len() as u32, p.max_code(), true, bad).is_none());
        // A nonzero tail lane past `len` is rejected.
        let lanes = p.lanes();
        if p.len() % lanes != 0 {
            let mut bad = p.words().to_vec();
            let tail = p.len() % lanes;
            *bad.last_mut().unwrap() |= 1u64 << (tail * p.width() as usize);
            assert!(
                PackedInts::from_parts(p.base(), p.len() as u32, p.max_code(), true, bad).is_none()
            );
        }
        // An unpackable width is rejected.
        assert!(PackedInts::from_parts(0, 0, u64::MAX, false, vec![]).is_none());
    }

    #[test]
    fn rle_from_parts_roundtrips_and_rejects_corruption() {
        let vals: Vec<i64> = (0..200).map(|i| i / 50).collect();
        let EncodedColumn::Rle(r) = encode_column(&int_col(&vals), 0).unwrap() else {
            panic!("expected rle")
        };
        let rebuilt = RleInts::from_parts(r.values().to_vec(), r.ends().to_vec())
            .expect("valid parts reassemble");
        assert_eq!(rebuilt, r);

        // Length mismatch, non-increasing ends, zero first end, and
        // adjacent equal values (non-canonical) are all rejected.
        assert!(RleInts::from_parts(vec![1], vec![]).is_none());
        assert!(RleInts::from_parts(vec![1, 2], vec![50, 50]).is_none());
        assert!(RleInts::from_parts(vec![1, 2], vec![0, 50]).is_none());
        assert!(RleInts::from_parts(vec![3, 3], vec![10, 20]).is_none());
    }
}
