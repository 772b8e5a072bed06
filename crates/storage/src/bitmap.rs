//! Word-packed bitmaps.
//!
//! Bitmaps back two structures of the paper: *predicate vectors* (§4.2 — one
//! bit per dimension tuple, `1` = tuple satisfies the dimension predicates)
//! and *delete vectors* (§4.4 — one bit per slot, `1` = slot holds a live
//! tuple). The probe path (`get`) is branch-free and is the inner loop of
//! the AIR scan, so it must stay cheap.
//!
//! A table's delete vector is a [`SegBitmap`]: the same bits cut into one
//! `Arc`-held [`Bitmap`] per segment, so a delete or an append copies one
//! segment's 8 KiB of bits instead of the table's whole vector (see
//! [`crate::chunks`]).

use std::sync::Arc;

use crate::chunks::Geometry;

/// A fixed-length bitmap packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

const WORD_BITS: usize = 64;

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(WORD_BITS);
        let fill = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap { words: vec![fill; nwords], len };
        if value {
            bm.clear_tail();
        }
        bm
    }

    /// Builds a bitmap of `len` bits where bit `i` is `pred(i)`.
    pub fn from_fn(len: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut bm = Bitmap::new(len, false);
        for i in 0..len {
            if pred(i) {
                bm.set(i, true);
            }
        }
        bm
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Reads bit `i` without the range assertion; out-of-range reads return
    /// `false`. Useful when probing predicate vectors with possibly-null
    /// (`NULL_KEY`) references.
    #[inline]
    pub fn get_or_false(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Grows the bitmap to `new_len` bits; new bits are `value`.
    pub fn resize(&mut self, new_len: usize, value: bool) {
        if new_len <= self.len {
            self.len = new_len;
            self.words.truncate(new_len.div_ceil(WORD_BITS));
            self.clear_tail();
            return;
        }
        let old_len = self.len;
        self.words.resize(new_len.div_ceil(WORD_BITS), 0);
        self.len = new_len;
        if value {
            for i in old_len..new_len {
                self.set(i, true);
            }
        }
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        self.resize(self.len + 1, value);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection. Both bitmaps must be the same length.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place union. Both bitmaps must be the same length.
    pub fn or_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place complement.
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Returns `true` if any bit in the inclusive index range `lo..=hi` is
    /// set. Indexes beyond the bitmap read as unset, so an arbitrary key
    /// range can be probed directly. Word-parallel: the zone-map chain
    /// pruning test runs this once per (segment, chain), not per row.
    pub fn any_in_range(&self, lo: usize, hi: usize) -> bool {
        if lo > hi || lo >= self.len {
            return false;
        }
        let hi = hi.min(self.len - 1);
        let (wl, wh) = (lo / WORD_BITS, hi / WORD_BITS);
        let lo_mask = u64::MAX << (lo % WORD_BITS);
        let hi_mask = u64::MAX >> (WORD_BITS - 1 - hi % WORD_BITS);
        if wl == wh {
            return self.words[wl] & lo_mask & hi_mask != 0;
        }
        if self.words[wl] & lo_mask != 0 || self.words[wh] & hi_mask != 0 {
            return true;
        }
        self.words[wl + 1..wh].iter().any(|&w| w != 0)
    }

    /// The set bits as one inclusive run `(first, last)` when they form
    /// exactly one, `None` when no bit is set or there is a gap. A composed
    /// predicate vector that is one run is a key range, which the fact scan
    /// tests on the foreign key's packed codes instead of probing the bits.
    pub fn one_run(&self) -> Option<(usize, usize)> {
        let w0 = self.words.iter().position(|&w| w != 0)?;
        let w1 = self.words.iter().rposition(|&w| w != 0)?;
        let first = w0 * WORD_BITS + self.words[w0].trailing_zeros() as usize;
        let last = w1 * WORD_BITS + (WORD_BITS - 1 - self.words[w1].leading_zeros() as usize);
        let ones: usize = self.words[w0..=w1].iter().map(|w| w.count_ones() as usize).sum();
        (ones == last - first + 1).then_some((first, last))
    }

    /// Iterates over the indexes of set bits, in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes { bm: self, word_idx: 0, current: self.words.first().copied().unwrap_or(0) }
    }

    /// Approximate heap footprint in bytes (used by the optimizer's cache
    /// budget test, paper §4.2).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// The packed 64-bit words backing the bitmap (serialization hook; the
    /// tail bits beyond `len` are guaranteed zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitmap from its packed words and bit length (the inverse
    /// of [`Bitmap::words`], used when loading a snapshot from disk).
    ///
    /// # Panics
    /// Panics if the word count does not match `len`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(WORD_BITS), "word count mismatch for {len} bits");
        let mut bm = Bitmap { words, len };
        bm.clear_tail();
        bm
    }

    /// The bits `range` as a bitmap of their own (word copy when the range
    /// starts on a word boundary).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bitmap {
        assert!(range.start <= range.end && range.end <= self.len, "bit range out of bounds");
        let n = range.len();
        if range.start.is_multiple_of(WORD_BITS) {
            let w0 = range.start / WORD_BITS;
            return Bitmap::from_words(self.words[w0..w0 + n.div_ceil(WORD_BITS)].to_vec(), n);
        }
        Bitmap::from_fn(n, |i| self.get(range.start + i))
    }

    /// Appends all bits of `other` (word copy when `self` ends on a word
    /// boundary).
    pub fn extend_from(&mut self, other: &Bitmap) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.extend_from_slice(&other.words);
            self.len += other.len;
            return;
        }
        let base = self.len;
        self.resize(base + other.len, false);
        for i in other.iter_ones() {
            self.set(base + i, true);
        }
    }

    /// Zeroes the bits beyond `len` in the last word so `count_ones` and
    /// `not_assign` stay correct.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over set-bit positions, produced by [`Bitmap::iter_ones`].
pub struct IterOnes<'a> {
    bm: &'a Bitmap,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bm.words.len() {
                return None;
            }
            self.current = self.bm.words[self.word_idx];
        }
    }
}

/// A bitmap cut into one `Arc`-held [`Bitmap`] per table segment — the
/// table's live vector. Cloning bumps one reference count per segment; a
/// write copies only the segment it lands in, and only if a snapshot shares
/// it. The set-bit count is maintained incrementally.
#[derive(Debug, Clone)]
pub struct SegBitmap {
    chunks: Vec<Arc<Bitmap>>,
    geo: Geometry,
    len: usize,
    ones: usize,
}

impl SegBitmap {
    /// An empty bitmap cut into `geo`-sized segments.
    pub fn new(geo: Geometry) -> Self {
        SegBitmap { chunks: Vec::new(), geo, len: 0, ones: 0 }
    }

    /// `len` bits, all `value`.
    pub fn filled(len: usize, value: bool, geo: Geometry) -> Self {
        let chunks = (0..geo.segments_for(len))
            .map(|seg| Arc::new(Bitmap::new((len - seg * geo.rows()).min(geo.rows()), value)))
            .collect();
        SegBitmap { chunks, geo, len, ones: if value { len } else { 0 } }
    }

    /// Cuts a flat bitmap into `geo`-sized segments.
    pub fn from_bitmap(bm: &Bitmap, geo: Geometry) -> Self {
        let len = bm.len();
        let chunks = (0..geo.segments_for(len))
            .map(|seg| {
                let start = seg * geo.rows();
                Arc::new(bm.slice(start..(start + geo.rows()).min(len)))
            })
            .collect();
        SegBitmap { chunks, geo, len, ones: bm.count_ones() }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (O(1)).
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (seg, off) = self.geo.locate(i);
        self.chunks[seg].get(off)
    }

    /// Reads bit `i`; out-of-range reads return `false`.
    #[inline]
    pub fn get_or_false(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        let (seg, off) = self.geo.locate(i);
        self.chunks[seg].get_or_false(off)
    }

    /// The bits of segment `seg` (indexed by segment-local offset) — what
    /// scans bind per segment.
    #[inline]
    pub fn chunk(&self, seg: usize) -> &Bitmap {
        &self.chunks[seg]
    }

    /// Do `self` and `other` hold the same allocation for segment `seg`?
    pub fn shares_chunk(&self, other: &SegBitmap, seg: usize) -> bool {
        match (self.chunks.get(seg), other.chunks.get(seg)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Writes bit `i`, copying its segment first if a snapshot shares it.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (seg, off) = self.geo.locate(i);
        let chunk = &mut self.chunks[seg];
        if chunk.get(off) != value {
            Arc::make_mut(chunk).set(off, value);
            if value {
                self.ones += 1;
            } else {
                self.ones -= 1;
            }
        }
    }

    /// Appends one bit, copying the tail segment first if a snapshot shares
    /// it.
    pub fn push(&mut self, value: bool) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < self.geo.rows() => Arc::make_mut(tail).push(value),
            _ => self.chunks.push(Arc::new(Bitmap::new(1, value))),
        }
        self.len += 1;
        self.ones += usize::from(value);
    }

    /// The same bits as one flat [`Bitmap`].
    pub fn to_bitmap(&self) -> Bitmap {
        let mut out = Bitmap::new(0, false);
        for c in &self.chunks {
            out.extend_from(c);
        }
        out
    }

    /// Iterates over the indexes of set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.geo.rows();
        self.chunks
            .iter()
            .enumerate()
            .flat_map(move |(seg, c)| c.iter_ones().map(move |off| seg * rows + off))
    }

    /// Re-cuts the bitmap into `geo`-sized segments (a no-op when the
    /// geometry is unchanged).
    pub fn rechunk(&mut self, geo: Geometry) {
        if geo != self.geo {
            *self = SegBitmap::from_bitmap(&self.to_bitmap(), geo);
        }
    }
}

/// Bit equality (segment boundaries are not part of the value).
impl PartialEq for SegBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.ones == other.ones
            && if self.geo == other.geo {
                self.chunks.iter().zip(&other.chunks).all(|(a, b)| a == b)
            } else {
                self.to_bitmap() == other.to_bitmap()
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_false_and_true() {
        let f = Bitmap::new(70, false);
        assert_eq!(f.len(), 70);
        assert_eq!(f.count_ones(), 0);
        let t = Bitmap::new(70, true);
        assert_eq!(t.count_ones(), 70);
        assert!(t.get(69));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::new(130, false);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        assert!(bm.get(0) && bm.get(64) && bm.get(129));
        assert!(!bm.get(1) && !bm.get(63) && !bm.get(128));
        bm.set(64, false);
        assert!(!bm.get(64));
        assert_eq!(bm.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::new(10, false).get(10);
    }

    #[test]
    fn get_or_false_tolerates_overflow() {
        let bm = Bitmap::new(3, true);
        assert!(bm.get_or_false(2));
        assert!(!bm.get_or_false(3));
        assert!(!bm.get_or_false(usize::MAX));
    }

    #[test]
    fn from_fn_matches_predicate() {
        let bm = Bitmap::from_fn(100, |i| i % 3 == 0);
        for i in 0..100 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_ones(), 34);
    }

    #[test]
    fn and_or_not() {
        let a = Bitmap::from_fn(67, |i| i % 2 == 0);
        let b = Bitmap::from_fn(67, |i| i % 3 == 0);
        let mut and = a.clone();
        and.and_assign(&b);
        for i in 0..67 {
            assert_eq!(and.get(i), i % 6 == 0);
        }
        let mut or = a.clone();
        or.or_assign(&b);
        for i in 0..67 {
            assert_eq!(or.get(i), i % 2 == 0 || i % 3 == 0);
        }
        let mut not = a.clone();
        not.not_assign();
        for i in 0..67 {
            assert_eq!(not.get(i), i % 2 != 0);
        }
        // Complement must not corrupt the tail padding.
        assert_eq!(not.count_ones(), 33);
    }

    #[test]
    fn resize_grow_and_shrink() {
        let mut bm = Bitmap::new(5, true);
        bm.resize(70, false);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_ones(), 5);
        bm.resize(70, true); // no-op length
        bm.resize(3, false);
        assert_eq!(bm.len(), 3);
        assert_eq!(bm.count_ones(), 3);
        bm.resize(100, true);
        assert_eq!(bm.count_ones(), 3 + 97);
    }

    #[test]
    fn push_appends() {
        let mut bm = Bitmap::new(0, false);
        for i in 0..100 {
            bm.push(i % 5 == 0);
        }
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 20);
    }

    #[test]
    fn iter_ones_yields_ascending_positions() {
        let bm = Bitmap::from_fn(200, |i| i == 0 || i == 63 || i == 64 || i == 199);
        let ones: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 64, 199]);
    }

    #[test]
    fn iter_ones_empty() {
        assert_eq!(Bitmap::new(0, false).iter_ones().count(), 0);
        assert_eq!(Bitmap::new(100, false).iter_ones().count(), 0);
    }

    #[test]
    fn words_roundtrip() {
        let bm = Bitmap::from_fn(130, |i| i % 7 == 0);
        let rebuilt = Bitmap::from_words(bm.words().to_vec(), bm.len());
        assert_eq!(bm, rebuilt);
        // Dirty tail bits are cleared on reconstruction.
        let dirty = Bitmap::from_words(vec![u64::MAX], 3);
        assert_eq!(dirty.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn from_words_rejects_wrong_length() {
        Bitmap::from_words(vec![0, 0], 64);
    }

    #[test]
    fn any_in_range_probes_word_boundaries() {
        let mut bm = Bitmap::new(200, false);
        for i in [0, 63, 64, 130, 199] {
            bm.set(i, true);
        }
        assert!(bm.any_in_range(0, 0));
        assert!(bm.any_in_range(63, 64), "straddles the word boundary");
        assert!(bm.any_in_range(65, 199));
        assert!(!bm.any_in_range(65, 129), "gap between set bits");
        assert!(!bm.any_in_range(131, 198));
        assert!(bm.any_in_range(199, 10_000), "out-of-range tail is clamped");
        assert!(!bm.any_in_range(200, 10_000), "fully out of range");
        assert!(!bm.any_in_range(5, 3), "inverted range");
        assert!(!Bitmap::new(0, false).any_in_range(0, 100));
        // Exhaustive cross-check against the naive loop on a dense pattern.
        let bm = Bitmap::from_fn(150, |i| i % 37 == 5);
        for lo in 0..150 {
            for hi in lo..160 {
                let naive = (lo..=hi.min(149)).any(|i| bm.get(i));
                assert_eq!(bm.any_in_range(lo, hi), naive, "lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn one_run_finds_a_single_run_of_set_bits() {
        assert_eq!(Bitmap::new(0, false).one_run(), None);
        assert_eq!(Bitmap::new(200, false).one_run(), None, "no bit set");
        assert_eq!(Bitmap::new(200, true).one_run(), Some((0, 199)));
        // Every run inside, across and at the ends of words; then a gap.
        for (lo, hi) in [(0, 0), (63, 64), (5, 130), (199, 199), (64, 127)] {
            let mut bm = Bitmap::from_fn(200, |i| (lo..=hi).contains(&i));
            assert_eq!(bm.one_run(), Some((lo, hi)), "{lo}..={hi}");
            if hi > lo + 1 {
                bm.set(lo + 1, false);
                assert_eq!(bm.one_run(), None, "{lo}..={hi} with a hole");
            }
        }
        assert_eq!(Bitmap::from_fn(200, |i| i == 3 || i == 150).one_run(), None);
    }

    #[test]
    fn size_bytes_tracks_words() {
        assert_eq!(Bitmap::new(64, false).size_bytes(), 8);
        assert_eq!(Bitmap::new(65, false).size_bytes(), 16);
    }

    #[test]
    fn slice_and_extend_roundtrip_aligned_and_unaligned() {
        let bm = Bitmap::from_fn(300, |i| i % 7 == 0 || i == 299);
        for (a, b) in [(0, 300), (64, 200), (128, 128), (5, 77), (130, 300)] {
            let s = bm.slice(a..b);
            assert_eq!(s.len(), b - a);
            for i in 0..s.len() {
                assert_eq!(s.get(i), bm.get(a + i), "slice {a}..{b} bit {i}");
            }
        }
        for cut in [0, 64, 100, 192, 300] {
            let mut joined = bm.slice(0..cut);
            joined.extend_from(&bm.slice(cut..300));
            assert_eq!(joined, bm, "cut at {cut}");
        }
    }

    #[test]
    fn seg_bitmap_matches_flat_bitmap() {
        for rows in [4usize, 64, 100] {
            let geo = Geometry::new(rows);
            let flat = Bitmap::from_fn(333, |i| i % 3 != 0);
            let mut seg = SegBitmap::from_bitmap(&flat, geo);
            assert_eq!(seg.len(), 333);
            assert_eq!(seg.count_ones(), flat.count_ones());
            assert_eq!(seg.to_bitmap(), flat);
            assert_eq!(seg.iter_ones().collect::<Vec<_>>(), flat.iter_ones().collect::<Vec<_>>());
            assert!(!seg.get_or_false(333));
            seg.set(0, true);
            seg.set(1, false);
            seg.set(1, false); // idempotent: the count must not drift
            seg.push(true);
            assert_eq!(seg.len(), 334);
            assert_eq!(seg.count_ones(), seg.to_bitmap().count_ones());
            assert!(seg.get(0) && !seg.get(1) && seg.get(333));
            let mut other = seg.clone();
            other.rechunk(Geometry::new(rows + 1));
            assert_eq!(other, seg, "equality ignores segment boundaries");
        }
        let all = SegBitmap::filled(10, true, Geometry::new(4));
        assert_eq!(all.count_ones(), 10);
        assert_eq!(all.chunk(2).len(), 2);
    }

    #[test]
    fn seg_bitmap_writes_copy_one_segment() {
        let mut live = SegBitmap::filled(200, true, Geometry::new(64));
        let snap = live.clone();
        live.set(70, false);
        assert!(live.shares_chunk(&snap, 0));
        assert!(!live.shares_chunk(&snap, 1));
        assert!(live.shares_chunk(&snap, 2) && live.shares_chunk(&snap, 3));
        assert!(snap.get(70), "the snapshot keeps its bit");
        live.push(true);
        assert!(!live.shares_chunk(&snap, 3), "an append copies the shared tail");
        assert!(live.shares_chunk(&snap, 0));
    }
}
