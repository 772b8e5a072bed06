//! The three array-index-reference loops of the fact scan, vectorised.
//!
//! The paper's join is an array lookup — `PredVec[fact.fk[i]]` (§4.2) and
//! `GroupVec[fact.fk[i]]` (§4.3) — and the scan spends most of its time in
//! exactly three shapes of that lookup. Each has a portable scalar
//! implementation ([`scalar`], also the oracle of the differential tests) and
//! an AVX2 one built on `vpgatherdd`; the public functions of this module
//! pick between them from the CPU, once ([`avx2_available`]). Hosts without
//! AVX2 (and every non-x86-64 target) run the scalar loops — same results,
//! row for row.
//!
//! | kernel | computes |
//! |---|---|
//! | [`dense_probe`] | appends `base + off` for every `off` of a contiguous offset range with `bitmap[keys[off]]` set — the first predicate-vector probe of a segment, fused with the row-id fill |
//! | [`sparse_probe`] | keeps, in place and in order, the rows `r` of a selection with `bitmap[keys[r − base]]` set — every later probe |
//! | [`gather_codes`] | `codes[i] = table[keys[rows[i] − base]]`, or [`NULL_KEY`] when the key is [`NULL_KEY`] or past the table — the group-vector probe |
//! | [`sparse_range`] | keeps the rows of a selection whose bit-packed *code* lies in a code range — a fact-local range predicate refining a selection on a packed chunk (same unpack as `sparse_probe`, a compare instead of the bitmap probe) |
//!
//! `keys` is always one segment's chunk of a fact AIR column **in whichever
//! representation it is resident** ([`ChunkRef`]), `base` the table-wide
//! row id of its first row, and row ids are ascending:
//!
//! | chunk | how the key of a row is obtained |
//! |---|---|
//! | flat | a load (`dense`) or a `vpgatherdd` by offset (`sparse`, `gather`) |
//! | bit-packed | the unpack is fused into the kernel: codes are extracted in-register, the frame-of-reference base is added and the NULL code is turned into [`NULL_KEY`] before the probe — no decoded copy exists, not even a block of one |
//! | run-length | one verdict (or group code) per run, scalar — a run chunk is a handful of runs |
//!
//! # Lane layout (AVX2)
//!
//! Eight rows per iteration, one per 32-bit lane, lane 0 the lowest row.
//! A predicate vector is addressed as 32-bit words (`u64` words viewed
//! little-endian: bit `k` lives in 32-bit word `k >> 5` at position
//! `k & 31`), so one `vpgatherdd` fetches the eight words, a per-lane
//! variable shift (`vpsrlvd`) moves each tested bit to position 0, and
//! `vmovmskps` turns the eight verdicts into a byte. The byte indexes a
//! 256-entry table of lane permutations (`COMPACT_LUT`) that packs the
//! passing row ids to the front of the vector (`vpermd`); the whole vector
//! is stored at the write cursor and the cursor advances by the byte's
//! popcount. Tails shorter than eight rows run the scalar loop.
//!
//! ## The unpack
//!
//! A packed chunk stores `L = 64 / width` codes per `u64` word, code `i % L`
//! of word `i / L` at bit `(i % L) · width`, never straddling a word
//! ([`PackedInts`]). With three or more lanes to the word `width <= 21`, so
//! a code and the up to seven bits below it in its first byte fit the 32
//! bits of a vector lane: the unpack brings, to each lane, four bytes that
//! contain the lane's code, shifts the code down (`vpsrlvd`) and masks it.
//! What differs between the kernels is where the bytes come from:
//!
//! * **dense** (consecutive rows): four consecutive rows lie in at most two
//!   consecutive words, so rows 0..4 are served by the 128-bit word pair at
//!   the vector's first word and rows 4..8 by the pair at row 4's word
//!   (one load each, the second folded into `vinserti128`). One `vpshufb`
//!   routes each code's bytes to its lane. The byte routing and the shifts
//!   depend only on the bit phase `φ = row mod L` of the vector's first
//!   row, which eight rows advance by `8 mod L` and `L` vectors (eight
//!   words) bring back to where it started: a table of the `L` vectors of
//!   one period, built per call (`VectorTab`), serves the whole scan
//!   round-robin, and the loop carries no phase arithmetic.
//! * **sparse / gather** (arbitrary rows): word index `off / L` by a
//!   multiply-high with `⌈2^32 / L⌉` (`vpmuludq` over the even and the odd
//!   lanes, exact for `off < 2^27`), bit position `(off − L·⌊off / L⌋) ·
//!   width`, and one byte-granular `vpgatherdd` of the four bytes at the
//!   code's first byte (at byte 4 of the word when the code starts above
//!   it, so the load never leaves the word).
//!
//! In-register, `key = code + base` (wrapping `u32` addition — a key chunk's
//! values are `u32`s), and lanes whose code equals the chunk's NULL code are
//! OR-ed to all-ones, i.e. [`NULL_KEY`], which then fails the probe like any
//! key past the bitmap. Chunks packed two lanes to the word (widths 22–32)
//! take the scalar loop: that width never beats a raw `u32` chunk, so a key
//! chunk is never sealed into it.
//!
//! # Why the gathers are safe
//!
//! A gather reads `base_ptr + scale * lane_index` for every lane, so each
//! index vector is clamped *before* the gather, with an unsigned minimum
//! against the last valid index of the addressed array:
//!
//! * fact-chunk offsets `r − base` against `len − 1` (a packed chunk's word
//!   index `off / L` is then at most `(len − 1) / L`, its last word);
//! * keys against `bitmap.len() − 1` (then `>> 5` stays below the 32-bit
//!   word count) or `table.len() − 1`.
//!
//! Lanes that had to be clamped are remembered (`clamped != original`) and
//! forced to "no bit" / [`NULL_KEY`] afterwards, which is also how
//! [`NULL_KEY`] (`u32::MAX`, past every array) and dangling keys come out
//! right without a branch. Gather indexes are signed 32-bit: the wrappers
//! take the AVX2 path only for arrays of at most `i32::MAX` elements (packed
//! chunks: `2^27` rows, the range of the multiply-high) and non-empty
//! arrays, and run the scalar loop otherwise. The dense unpack's pair loads
//! read up to four words from the vector's first: the vector loop stops
//! while four words remain and the scalar loop finishes. Compaction stores write a full eight-lane
//! vector at the write cursor: the in-place kernel's cursor never passes the
//! block it has already loaded, and the appending kernel reserves eight
//! lanes of slack past the longest possible output.

use astore_storage::bitmap::Bitmap;
use astore_storage::chunks::ChunkRef;
use astore_storage::encoded::{PackedInts, RleInts};
use astore_storage::types::{Key, RowId, NULL_KEY};

/// Does this process run the AVX2 kernels? Decided from the CPU on first
/// use and cached; `false` on every non-x86-64 target.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Appends to `out`, ascending, the row id `base + off` of every offset
/// `off` in `offs` whose key passes the predicate vector
/// (`bitmap[keys[off]]`; [`NULL_KEY`] and keys past the bitmap fail).
///
/// # Panics
/// Panics if `offs` does not lie inside `keys`.
pub fn dense_probe(
    keys: ChunkRef<'_, Key>,
    offs: std::ops::Range<usize>,
    base: RowId,
    bitmap: &Bitmap,
    out: &mut Vec<RowId>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        match keys {
            ChunkRef::Flat(keys) => return avx2::dense_probe(keys, offs, base, bitmap, out),
            ChunkRef::Packed(keys) => {
                return avx2::dense_probe_packed(keys, offs, base, bitmap, out)
            }
            ChunkRef::Rle(_) => {}
        }
    }
    scalar::dense_probe(keys, offs, base, bitmap, out)
}

/// Keeps, in place and in order, the rows `r` of `rows` whose key passes the
/// predicate vector (`bitmap[keys[r − base]]`). Every row must lie in the
/// chunk, `base <= r < base + keys.len()`: the scalar path panics on a row
/// outside it, the AVX2 path clamps it into the chunk (memory-safe, but the
/// verdict for that row is then meaningless).
pub fn sparse_probe(keys: ChunkRef<'_, Key>, base: RowId, bitmap: &Bitmap, rows: &mut Vec<RowId>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && !matches!(keys, ChunkRef::Rle(_)) {
        return avx2::sparse_probe(keys, base, bitmap, rows);
    }
    scalar::sparse_probe(keys, base, bitmap, rows)
}

/// Overwrites `codes` with one entry per row of `rows`:
/// `table[keys[r − base]]`, or [`NULL_KEY`] when the key is [`NULL_KEY`] or
/// past the end of `table` (a group vector's code array). Rows must lie in
/// the chunk, as for [`sparse_probe`].
pub fn gather_codes(
    keys: ChunkRef<'_, Key>,
    base: RowId,
    table: &[Key],
    rows: &[RowId],
    codes: &mut Vec<Key>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() && !matches!(keys, ChunkRef::Rle(_)) {
        return avx2::gather_codes(keys, base, table, rows, codes);
    }
    scalar::gather_codes(keys, base, table, rows, codes)
}

/// Keeps, in place and in order, the rows `r` of `rows` whose stored *code*
/// in the packed chunk lies in `[clo, chi]` — how a fact-local range
/// predicate refines a selection on a bit-packed chunk: the caller maps the
/// predicate's value range onto the chunk's code domain once
/// ([`PackedInts::code_bounds`]), and no value is ever reconstructed. Rows
/// must lie in the chunk, as for [`sparse_probe`].
pub fn sparse_range(codes: &PackedInts, base: RowId, clo: u64, chi: u64, rows: &mut Vec<RowId>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::sparse_range(codes, base, clo, chi, rows);
    }
    scalar::sparse_range(codes, base, clo, chi, rows)
}

/// The portable implementations: what runs without AVX2, the tail loops of
/// the AVX2 kernels, the run-length variants on every host, and the oracle
/// the differential tests compare against.
pub mod scalar {
    use super::*;

    /// The key a packed code stands for (what the AVX2 unpack computes in
    /// register: base added, NULL code → [`NULL_KEY`]).
    #[inline]
    pub(super) fn packed_key(keys: &PackedInts, off: usize) -> Key {
        keys.value_at(off) as Key
    }

    /// Scalar [`super::dense_probe`].
    pub fn dense_probe(
        keys: ChunkRef<'_, Key>,
        offs: std::ops::Range<usize>,
        base: RowId,
        bitmap: &Bitmap,
        out: &mut Vec<RowId>,
    ) {
        let row = |off: usize| base + off as RowId;
        match keys {
            ChunkRef::Flat(keys) => out.extend(
                keys[offs.clone()]
                    .iter()
                    .zip(row(offs.start)..)
                    .filter(|(&k, _)| bitmap.get_or_false(k as usize))
                    .map(|(_, row)| row),
            ),
            ChunkRef::Packed(keys) => {
                assert!(offs.end <= keys.len(), "range {offs:?} outside the chunk");
                out.extend(
                    offs.filter(|&off| bitmap.get_or_false(packed_key(keys, off) as usize))
                        .map(row),
                )
            }
            ChunkRef::Rle(keys) => {
                assert!(offs.end <= keys.len(), "range {offs:?} outside the chunk");
                keys.runs_in(offs, |v, run| {
                    if bitmap.get_or_false(v as Key as usize) {
                        out.extend(row(run.start)..row(run.end));
                    }
                })
            }
        }
    }

    /// Scalar [`super::sparse_probe`].
    pub fn sparse_probe(
        keys: ChunkRef<'_, Key>,
        base: RowId,
        bitmap: &Bitmap,
        rows: &mut Vec<RowId>,
    ) {
        let pass = |k: Key| bitmap.get_or_false(k as usize);
        match keys {
            ChunkRef::Flat(keys) => retain(rows, |r| pass(keys[(r - base) as usize])),
            ChunkRef::Packed(keys) => retain(rows, |r| pass(packed_key(keys, (r - base) as usize))),
            ChunkRef::Rle(keys) => {
                let mut runs = RunCursor::new(keys, pass);
                retain(rows, |r| runs.at((r - base) as usize))
            }
        }
    }

    /// Scalar [`super::sparse_range`].
    pub fn sparse_range(
        codes: &PackedInts,
        base: RowId,
        clo: u64,
        chi: u64,
        rows: &mut Vec<RowId>,
    ) {
        retain(rows, code_in_range(codes, base, clo, chi))
    }

    /// The per-row test of [`sparse_range`].
    pub(super) fn code_in_range(
        codes: &PackedInts,
        base: RowId,
        clo: u64,
        chi: u64,
    ) -> impl Fn(RowId) -> bool + '_ {
        move |r| {
            let off = (r - base) as usize;
            assert!(off < codes.len(), "row {r} outside the chunk");
            (clo..=chi).contains(&codes.code_at(off))
        }
    }

    /// Walks the runs of a chunk under ascending offsets, computing `f` of a
    /// run's value once per run visited.
    struct RunCursor<'a, T, F> {
        keys: &'a RleInts,
        f: F,
        run: usize,
        cached: Option<T>,
    }

    impl<'a, T: Copy, F: FnMut(Key) -> T> RunCursor<'a, T, F> {
        fn new(keys: &'a RleInts, f: F) -> Self {
            RunCursor { keys, f, run: 0, cached: None }
        }

        /// `f` of the value at `off` (ascending across calls; panics past
        /// the last run).
        #[inline]
        fn at(&mut self, off: usize) -> T {
            while self.keys.ends()[self.run] as usize <= off {
                self.run += 1;
                self.cached = None;
            }
            let (keys, run, f) = (self.keys, self.run, &mut self.f);
            *self.cached.get_or_insert_with(|| f(keys.values()[run] as Key))
        }
    }

    /// Keeps the rows for which `keep` holds, in place and in order — the
    /// refinement step of the selection-vector scan for tests no kernel
    /// covers (fact-local predicates, direct AIR chases).
    pub(crate) fn retain(rows: &mut Vec<RowId>, keep: impl FnMut(RowId) -> bool) {
        let kept = compact_from(rows, 0, 0, keep);
        rows.truncate(kept);
    }

    /// Compacts `rows[from..]` down to `rows[w..]` by `keep`, in order;
    /// returns the new write cursor. Requires `w <= from`. Branch-free
    /// (store always, advance on keep): selectivities in the middle of the
    /// range would otherwise pay a mispredict on every other row.
    pub(super) fn compact_from(
        rows: &mut [RowId],
        from: usize,
        mut w: usize,
        mut keep: impl FnMut(RowId) -> bool,
    ) -> usize {
        for i in from..rows.len() {
            let r = rows[i];
            rows[w] = r;
            w += usize::from(keep(r));
        }
        w
    }

    /// The group-vector probe of one key.
    #[inline]
    pub(super) fn code_of(table: &[Key], key: Key) -> Key {
        table.get(key as usize).copied().unwrap_or(NULL_KEY)
    }

    /// Scalar [`super::gather_codes`].
    pub fn gather_codes(
        keys: ChunkRef<'_, Key>,
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        codes: &mut Vec<Key>,
    ) {
        codes.clear();
        match keys {
            ChunkRef::Flat(keys) => {
                codes.extend(rows.iter().map(|&r| code_of(table, keys[(r - base) as usize])))
            }
            ChunkRef::Packed(keys) => codes.extend(
                rows.iter().map(|&r| code_of(table, packed_key(keys, (r - base) as usize))),
            ),
            ChunkRef::Rle(keys) => {
                let mut runs = RunCursor::new(keys, |k| code_of(table, k));
                codes.extend(rows.iter().map(|&r| runs.at((r - base) as usize)))
            }
        }
    }
}

/// The AVX2 implementations. The only `unsafe` of this module lives here:
/// every block states why its pointer accesses stay inside their arrays.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{scalar, Bitmap, ChunkRef, Key, PackedInts, RowId, NULL_KEY};

    /// Rows per vector.
    const LANES: usize = 8;

    // `code_blocks` and the unpack OR all-ones into NULL lanes.
    const _: () = assert!(NULL_KEY == u32::MAX);

    /// The largest array a gather may address: its lane indexes are signed.
    const MAX_GATHER_LEN: usize = i32::MAX as usize;

    /// The longest packed chunk the sparse unpack addresses: `off / lanes`
    /// by multiply-high with `⌈2^32 / lanes⌉` is exact below it.
    const MAX_PACKED_LEN: usize = 1 << 27;

    /// For every 8-bit lane mask, the lanes whose bit is set, ascending, packed
    /// to the front (unused slots 0): the `vpermd` control that compacts a
    /// vector's passing lanes. One byte per lane (2 KiB), widened on load.
    pub(super) static COMPACT_LUT: [[u8; 8]; 256] = {
        let mut lut = [[0u8; 8]; 256];
        let mut mask = 0;
        while mask < 256 {
            let (mut lane, mut slot) = (0, 0);
            while lane < 8 {
                if mask >> lane & 1 == 1 {
                    lut[mask][slot] = lane as u8;
                    slot += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        lut
    };

    /// A predicate vector as the gather sees it: its `u64` words addressed
    /// as 32-bit words, and the last bit index a key may be clamped to.
    struct BitWords {
        words: *const i32,
        last_bit: u32,
    }

    impl BitWords {
        /// `None` for an empty bitmap (nothing can pass; there is no valid
        /// index to clamp to).
        fn new(bitmap: &Bitmap) -> Option<BitWords> {
            let last = bitmap.len().checked_sub(1)?;
            Some(BitWords {
                words: bitmap.words().as_ptr().cast(),
                last_bit: last.min(u32::MAX as usize) as u32,
            })
        }
    }

    /// The verdict byte for eight keys: bit `l` set iff lane `l`'s key is
    /// inside the bitmap and its bit is set.
    ///
    /// # Safety
    /// AVX2 must be available, and `bits` must have been built from a
    /// bitmap that is still alive.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn probe_mask(bits: &BitWords, keys: __m256i) -> usize {
        // SAFETY: every lane of `clamped` is at most `last_bit`, so the
        // gathered 32-bit word index `clamped >> 5` is at most
        // `(len − 1) >> 5`, which is below `2 * words().len()` — the number
        // of 32-bit words behind `bits.words` — and below 2^27, so it is
        // non-negative as a signed gather index.
        unsafe {
            let clamped = _mm256_min_epu32(keys, _mm256_set1_epi32(bits.last_bit as i32));
            let in_range = _mm256_cmpeq_epi32(clamped, keys);
            let words = _mm256_i32gather_epi32::<4>(bits.words, _mm256_srli_epi32::<5>(clamped));
            let bit = _mm256_srlv_epi32(words, _mm256_and_si256(clamped, _mm256_set1_epi32(31)));
            // Tested bit to the sign position, cleared for clamped lanes.
            let verdict = _mm256_and_si256(_mm256_slli_epi32::<31>(bit), in_range);
            _mm256_movemask_ps(_mm256_castsi256_ps(verdict)) as usize
        }
    }

    /// Packs the lanes of `rows` selected by `mask` to the front.
    ///
    /// # Safety
    /// AVX2 must be available; `mask < 256`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn compact(rows: __m256i, mask: usize) -> __m256i {
        // SAFETY: `COMPACT_LUT[mask]` is eight readable bytes; the 64-bit
        // load reads exactly those.
        unsafe {
            let lanes = _mm_loadl_epi64(COMPACT_LUT[mask].as_ptr().cast());
            _mm256_permutevar8x32_epi32(rows, _mm256_cvtepu8_epi32(lanes))
        }
    }

    /// What the unpack needs to know about a packed chunk (see the module
    /// docs, "The unpack").
    #[derive(Clone, Copy)]
    struct Packed<'a> {
        words: &'a [u64],
        len: usize,
        width: u32,
        lanes: u32,
        /// The frame-of-reference base as the `u32` the keys wrap in.
        base: u32,
        /// The NULL code, if the chunk has one.
        null: Option<u32>,
    }

    impl<'a> Packed<'a> {
        /// `None` for a chunk the vector loops do not address: empty, longer
        /// than [`MAX_PACKED_LEN`], or two lanes per word (lane widths
        /// 22..=32, where a code plus its in-byte shift can exceed the 32
        /// bits the unpack extracts; never beats a raw `u32` chunk, so no
        /// key chunk is sealed that wide).
        fn new(keys: &'a PackedInts) -> Option<Self> {
            (!keys.is_empty() && keys.len() <= MAX_PACKED_LEN && keys.lanes() >= 3).then(|| {
                Packed {
                    words: keys.words(),
                    len: keys.len(),
                    width: u32::from(keys.width()),
                    lanes: keys.lanes() as u32,
                    base: keys.base() as u32,
                    null: keys.null_code().map(|c| c as u32),
                }
            })
        }

        /// The code mask of one lane (`width <= 21`).
        fn mask(&self) -> u32 {
            (1u32 << self.width) - 1
        }
    }

    /// Eight extracted (still unmasked) codes to eight keys: mask, add the
    /// base, NULL code → all ones.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn finish_keys(p: &Packed<'_>, raw: __m256i) -> __m256i {
        let codes = _mm256_and_si256(raw, _mm256_set1_epi32(p.mask() as i32));
        let keys = _mm256_add_epi32(codes, _mm256_set1_epi32(p.base as i32));
        match p.null {
            Some(null) => {
                _mm256_or_si256(keys, _mm256_cmpeq_epi32(codes, _mm256_set1_epi32(null as i32)))
            }
            None => keys,
        }
    }

    /// The (still unmasked) codes at eight chunk offsets.
    ///
    /// # Safety
    /// AVX2 must be available; `p` came from [`Packed::new`]; every lane of
    /// `off` must be `< p.len`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn packed_raw_at(p: &Packed<'_>, off: __m256i) -> __m256i {
        // SAFETY: `vpmuludq` multiplies the low halves of the 64-bit lanes,
        // so the high half of `even` / `odd` is `⌊off · ⌈2^32/L⌉ / 2^32⌋ =
        // off / L` (exact for `off < 2^27`) of the even / odd rows, and the
        // blend collects them as `word`, per 32-bit lane. `off < len` makes
        // `word` at most `(len − 1) / L`, the index of the last of the
        // `⌈len / L⌉` words. `bit = (off − word · L) · width` is the code's
        // position in its word, `bit + width <= 64`. The gather reads the
        // four bytes at byte offset `8 · word + first` with `first <= 4`:
        // inside the word, hence inside the slice, and below `2^30`, so
        // non-negative as a signed index. The code then sits `bit − 8 ·
        // first` bits up — at most 7 (`first = bit / 8`), or `bit − 32`
        // (`first = 4`) — and `shift + width <= 32` either way (`width <=
        // 21` with three or more lanes), so the four bytes hold all of it.
        unsafe {
            let magic = _mm256_set1_epi32((1u64 << 32).div_ceil(u64::from(p.lanes)) as i32);
            let even = _mm256_mul_epu32(off, magic);
            let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(off), magic);
            let word = _mm256_blend_epi32::<0b1010_1010>(_mm256_srli_epi64::<32>(even), odd);
            let bit = _mm256_sub_epi32(
                _mm256_mullo_epi32(off, _mm256_set1_epi32(p.width as i32)),
                _mm256_mullo_epi32(word, _mm256_set1_epi32((p.lanes * p.width) as i32)),
            );
            let first = _mm256_min_epu32(_mm256_srli_epi32::<3>(bit), _mm256_set1_epi32(4));
            let shift = _mm256_sub_epi32(bit, _mm256_slli_epi32::<3>(first));
            let at = _mm256_add_epi32(_mm256_slli_epi32::<3>(word), first);
            let raw = _mm256_i32gather_epi32::<1>(p.words.as_ptr().cast(), at);
            _mm256_srlv_epi32(raw, shift)
        }
    }

    /// The offsets of the eight rows `r` in a chunk of `len` rows whose
    /// first row is `base`, clamped into the chunk.
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn clamped_offsets(r: __m256i, base: __m256i, len: usize) -> __m256i {
        _mm256_min_epu32(_mm256_sub_epi32(r, base), _mm256_set1_epi32((len - 1) as i32))
    }

    /// The keys of a fact chunk as the gathering kernels address them.
    #[derive(Clone, Copy)]
    enum Keys<'a> {
        Flat(&'a [Key]),
        Packed(Packed<'a>),
    }

    impl<'a> Keys<'a> {
        /// `None` when the chunk is not one the vector loops address (empty,
        /// too long for a gather index, run-length encoded, or packed two
        /// lanes to the word).
        fn new(keys: ChunkRef<'a, Key>) -> Option<Self> {
            match keys {
                ChunkRef::Flat(k) if !k.is_empty() && k.len() <= MAX_GATHER_LEN => {
                    Some(Keys::Flat(k))
                }
                ChunkRef::Packed(p) => Packed::new(p).map(Keys::Packed),
                _ => None,
            }
        }

        fn len(&self) -> usize {
            match self {
                Keys::Flat(k) => k.len(),
                Keys::Packed(p) => p.len,
            }
        }

        /// The keys of the eight rows `r`, each clamped into the chunk.
        ///
        /// # Safety
        /// AVX2 must be available; `self` came from [`Keys::new`].
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn at_rows(&self, r: __m256i, base: __m256i) -> __m256i {
            // SAFETY: `Keys::new` admits only `1 <= len <= i32::MAX`
            // (`2^27` packed), so `len − 1` is a valid last offset and the
            // clamped lanes are in bounds and non-negative as signed gather
            // indexes — what both key fetches require.
            unsafe {
                let off = clamped_offsets(r, base, self.len());
                match self {
                    Keys::Flat(k) => _mm256_i32gather_epi32::<4>(k.as_ptr().cast(), off),
                    Keys::Packed(p) => finish_keys(p, packed_raw_at(p, off)),
                }
            }
        }
    }

    pub(super) fn dense_probe(
        keys: &[Key],
        offs: std::ops::Range<usize>,
        base: RowId,
        bitmap: &Bitmap,
        out: &mut Vec<RowId>,
    ) {
        let keys = &keys[offs.clone()];
        let Some(bits) = BitWords::new(bitmap) else { return };
        let first = base + offs.start as RowId;
        let blocks = keys.len() / LANES;
        // Eight lanes of slack: block `b` stores a full vector at a cursor
        // that is at most `b * LANES` past the old length.
        out.reserve(keys.len() + LANES);
        let len = out.len();
        // SAFETY: AVX2 (and popcnt) were detected by the caller's dispatch.
        let written =
            unsafe { dense_blocks(keys, blocks, first, &bits, out.as_mut_ptr().add(len)) };
        // SAFETY: `dense_blocks` initialised `written <= blocks * LANES`
        // row ids past `len`, inside the reserved capacity.
        unsafe { out.set_len(len + written) };
        let tail = blocks * LANES;
        scalar::dense_probe(ChunkRef::Flat(keys), tail..keys.len(), first, bitmap, out);
    }

    /// Probes `blocks` full vectors of `keys`, writing passing row ids
    /// (`first + index`) to `dst`; returns how many were written.
    ///
    /// # Safety
    /// AVX2 and popcnt must be available; `blocks * LANES <= keys.len()`;
    /// `dst` must be valid for writes of `blocks * LANES + LANES` row ids.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn dense_blocks(
        keys: &[Key],
        blocks: usize,
        first: RowId,
        bits: &BitWords,
        dst: *mut RowId,
    ) -> usize {
        let mut w = 0usize;
        // SAFETY: block `b` loads `keys[b*8 .. b*8+8]`, inside the slice by
        // the precondition. Its store covers `dst[w .. w+8]` with
        // `w <= b*8` (at most eight ids are kept per earlier block), so it
        // ends at most `LANES` past `blocks * LANES` — inside the
        // caller-guaranteed window.
        unsafe {
            let mut rows = _mm256_add_epi32(
                _mm256_set1_epi32(first as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let step = _mm256_set1_epi32(LANES as i32);
            for b in 0..blocks {
                let k = _mm256_loadu_si256(keys.as_ptr().add(b * LANES).cast());
                let mask = probe_mask(bits, k);
                _mm256_storeu_si256(dst.add(w).cast(), compact(rows, mask));
                w += mask.count_ones() as usize;
                rows = _mm256_add_epi32(rows, step);
            }
        }
        w
    }

    /// The dense unpack's controls for one vector of a *period*. Eight rows
    /// advance the bit phase `φ` (the position of a vector's first row
    /// inside its word) by `8 mod L`, so after `L` vectors — `8 L` rows,
    /// exactly eight words — the phase is back where it started: the
    /// controls of a whole scan are the `L` entries of one period, used
    /// round-robin, with word positions relative to the period's first word.
    ///
    /// Rows 0..4 of the vector come from the word pair at `lo_word`, rows
    /// 4..8 from the pair at `hi_word` (the word of row 4), each pair in its
    /// own 128-bit half: `shuffle` is the `vpshufb` control that brings, to
    /// each 32-bit lane, the four bytes starting at its code's first byte
    /// (`0x80` = zero for bytes past the pair, which no code reaches),
    /// `shift` the bits left below the code.
    #[derive(Clone, Copy)]
    #[repr(C, align(32))]
    struct VectorTab {
        shuffle: [u8; 32],
        shift: [u32; 8],
        lo_word: usize,
        hi_word: usize,
    }

    /// Entries of a period table: the most lanes a word has.
    const PERIOD_MAX: usize = 32;

    impl VectorTab {
        /// The period that starts at bit phase `phase` (entries past
        /// `lanes` are unused). Requires `3 <= lanes <= 32`: four
        /// consecutive rows then span at most two words, and
        /// `7 + width <= 32`.
        fn period(width: u32, lanes: u32, phase: u32) -> [VectorTab; PERIOD_MAX] {
            let none = VectorTab { shuffle: [0x80; 32], shift: [0; 8], lo_word: 0, hi_word: 0 };
            let mut tabs = [none; PERIOD_MAX];
            for (v, tab) in tabs.iter_mut().enumerate().take(lanes as usize) {
                // Lane positions counted from the period's first word.
                let first = phase + 8 * v as u32;
                tab.lo_word = (first / lanes) as usize;
                tab.hi_word = ((first + 4) / lanes) as usize;
                for k in 0..LANES {
                    let (half, lane) = (k / 4, k % 4);
                    // Position of the row counted from its pair's first lane.
                    let pos = (first + 4 * half as u32) % lanes + lane as u32;
                    let bit = pos % lanes * width;
                    let byte0 = pos / lanes * 8 + bit / 8;
                    for byte in 0..4 {
                        if byte0 + byte < 16 {
                            tab.shuffle[16 * half + 4 * lane + byte as usize] =
                                (byte0 + byte) as u8;
                        }
                    }
                    tab.shift[k] = bit % 8;
                }
            }
            tabs
        }
    }

    pub(super) fn dense_probe_packed(
        keys: &PackedInts,
        offs: std::ops::Range<usize>,
        base: RowId,
        bitmap: &Bitmap,
        out: &mut Vec<RowId>,
    ) {
        assert!(
            offs.start <= offs.end && offs.end <= keys.len(),
            "range {offs:?} outside the chunk"
        );
        let (Some(bits), Some(p)) = (BitWords::new(bitmap), Packed::new(keys)) else {
            return scalar::dense_probe(ChunkRef::Packed(keys), offs, base, bitmap, out);
        };
        out.reserve(offs.len() + LANES);
        let len = out.len();
        // SAFETY: AVX2 (and popcnt) were detected by the caller's dispatch;
        // `offs` lies inside the chunk (asserted above), and `out` has room
        // for every row of it plus one vector of slack.
        let (done, written) = unsafe {
            dense_blocks_packed(&p, offs.clone(), base, &bits, out.as_mut_ptr().add(len))
        };
        // SAFETY: `dense_blocks_packed` initialised `written <= done` row
        // ids past `len`, inside the reserved capacity.
        unsafe { out.set_len(len + written) };
        scalar::dense_probe(ChunkRef::Packed(keys), offs.start + done..offs.end, base, bitmap, out);
    }

    /// Probes as many full vectors of the offsets `offs` as the word-pair
    /// loads allow, writing passing row ids (`base + offset`) to `dst`;
    /// returns `(offsets consumed, ids written)`.
    ///
    /// # Safety
    /// AVX2 and popcnt must be available; `p` came from [`Packed::new`];
    /// `offs.end <= p.len`; `dst` must be valid for writes of
    /// `offs.len() + LANES` row ids.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn dense_blocks_packed(
        p: &Packed<'_>,
        offs: std::ops::Range<usize>,
        base: RowId,
        bits: &BitWords,
        dst: *mut RowId,
    ) -> (usize, usize) {
        let lanes = p.lanes as usize;
        let period = VectorTab::period(p.width, p.lanes, (offs.start % lanes) as u32);
        // A vector reads words `first .. first + 4` at most, `first` the word
        // of its first row (see below), so it may start at any row whose
        // word is at most `words.len() − 4`.
        let loadable = p.words.len().saturating_sub(3) * lanes;
        let vectors = (offs.len() / LANES).min(loadable.saturating_sub(offs.start).div_ceil(LANES));
        let mut w = 0usize;
        // SAFETY: vector `v` covers the rows `offs.start + 8v .. + 8`, which
        // end at or before `offs.end <= len` — real rows — and start below
        // `loadable`, i.e. in a word `first <= words.len() − 4`. Periods
        // start every eight words from the word of `offs.start`, and
        // `lo_word` / `hi_word` are the words of the vector's row 0 and row
        // 4 counted from there: `first` and at most `first + 2` (`(φ + 4) /
        // L <= 2` for `L >= 3`), so the two 128-bit loads read words
        // `first .. first + 4` at most. Rows 0..4 lie in the first pair and
        // rows 4..8 in the second (four consecutive rows span two words at
        // most), which is what `VectorTab` assumes; its loads read whole,
        // 32-byte-aligned `[u8; 32]` / `[u32; 8]` fields. The store covers
        // `dst[w .. w+8]` with `w <= 8v`, inside the caller's window.
        unsafe {
            let mut rows = _mm256_add_epi32(
                _mm256_set1_epi32((base as usize + offs.start) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            let step = _mm256_set1_epi32(LANES as i32);
            let mut words = p.words.as_ptr().add(offs.start / lanes);
            let mut left = vectors;
            while left > 0 {
                let now = left.min(lanes);
                for tab in &period[..now] {
                    let pairs = _mm256_inserti128_si256::<1>(
                        _mm256_castsi128_si256(_mm_loadu_si128(words.add(tab.lo_word).cast())),
                        _mm_loadu_si128(words.add(tab.hi_word).cast()),
                    );
                    let raw = _mm256_srlv_epi32(
                        _mm256_shuffle_epi8(pairs, _mm256_load_si256(tab.shuffle.as_ptr().cast())),
                        _mm256_load_si256(tab.shift.as_ptr().cast()),
                    );
                    let mask = probe_mask(bits, finish_keys(p, raw));
                    _mm256_storeu_si256(dst.add(w).cast(), compact(rows, mask));
                    w += mask.count_ones() as usize;
                    rows = _mm256_add_epi32(rows, step);
                }
                // A full period is eight words; a partial one is the last.
                words = words.wrapping_add(8);
                left -= now;
            }
        }
        (vectors * LANES, w)
    }

    pub(super) fn sparse_probe(
        keys: ChunkRef<'_, Key>,
        base: RowId,
        bitmap: &Bitmap,
        rows: &mut Vec<RowId>,
    ) {
        let Some(bits) = BitWords::new(bitmap) else { return rows.clear() };
        let Some(src) = Keys::new(keys) else {
            return scalar::sparse_probe(keys, base, bitmap, rows);
        };
        let blocks = rows.len() / LANES;
        // SAFETY: AVX2 and popcnt were detected by the caller's dispatch;
        // `src` came from `Keys::new`.
        let w = unsafe { sparse_blocks(&src, base, &bits, rows, blocks) };
        let kept = scalar::compact_from(rows, blocks * LANES, w, |r| {
            bitmap.get_or_false(keys.at((r - base) as usize) as usize)
        });
        rows.truncate(kept);
    }

    /// Compacts the first `blocks` full vectors of `rows` in place; returns
    /// the write cursor.
    ///
    /// # Safety
    /// AVX2 and popcnt must be available; `keys` came from [`Keys::new`];
    /// `blocks * LANES <= rows.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn sparse_blocks(
        keys: &Keys<'_>,
        base: RowId,
        bits: &BitWords,
        rows: &mut [RowId],
        blocks: usize,
    ) -> usize {
        let mut w = 0usize;
        let p = rows.as_mut_ptr();
        // SAFETY: block `b` loads `rows[b*8 .. b*8+8]`, inside the slice by
        // the precondition; `at_rows` clamps every offset into the chunk.
        // The store covers `rows[w .. w+8]` with `w <= b*8`, so it ends at
        // or before the end of the block just loaded: it never touches a
        // row that has not been read yet, and stays inside the slice.
        unsafe {
            let basev = _mm256_set1_epi32(base as i32);
            for b in 0..blocks {
                let r = _mm256_loadu_si256(p.add(b * LANES).cast());
                let mask = probe_mask(bits, keys.at_rows(r, basev));
                _mm256_storeu_si256(p.add(w).cast(), compact(r, mask));
                w += mask.count_ones() as usize;
            }
        }
        w
    }

    pub(super) fn sparse_range(
        codes: &PackedInts,
        base: RowId,
        clo: u64,
        chi: u64,
        rows: &mut Vec<RowId>,
    ) {
        let Some(p) = Packed::new(codes) else {
            return scalar::sparse_range(codes, base, clo, chi, rows);
        };
        // Codes are below 2^21 here, so the bounds fit once capped.
        let (lo, hi) = (clo.min(u64::from(u32::MAX)) as u32, chi.min(u64::from(u32::MAX)) as u32);
        let blocks = rows.len() / LANES;
        // SAFETY: AVX2 and popcnt were detected by the caller's dispatch;
        // `p` came from `Packed::new`.
        let w = unsafe { range_blocks(&p, base, lo, hi, rows, blocks) };
        let tail = scalar::code_in_range(codes, base, clo, chi);
        let kept = scalar::compact_from(rows, blocks * LANES, w, tail);
        rows.truncate(kept);
    }

    /// [`sparse_blocks`] with the verdict `lo <= code <= hi` in place of the
    /// bitmap probe.
    ///
    /// # Safety
    /// AVX2 and popcnt must be available; `p` came from [`Packed::new`];
    /// `blocks * LANES <= rows.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn range_blocks(
        p: &Packed<'_>,
        base: RowId,
        lo: u32,
        hi: u32,
        rows: &mut [RowId],
        blocks: usize,
    ) -> usize {
        let mut w = 0usize;
        let ptr = rows.as_mut_ptr();
        // SAFETY: as `sparse_blocks` — block `b` loads `rows[b*8 .. b*8+8]`
        // and stores `rows[w .. w+8]` with `w <= b*8`; the offsets are
        // clamped into the chunk before `packed_raw_at`.
        unsafe {
            let basev = _mm256_set1_epi32(base as i32);
            let (lov, span) =
                (_mm256_set1_epi32(lo as i32), _mm256_set1_epi32(hi.wrapping_sub(lo) as i32));
            let maskv = _mm256_set1_epi32(p.mask() as i32);
            for b in 0..blocks {
                let r = _mm256_loadu_si256(ptr.add(b * LANES).cast());
                let raw = packed_raw_at(p, clamped_offsets(r, basev, p.len));
                // Unsigned `code − lo <= hi − lo` ⇔ `lo <= code <= hi`.
                let rel = _mm256_sub_epi32(_mm256_and_si256(raw, maskv), lov);
                let inside = _mm256_cmpeq_epi32(_mm256_min_epu32(rel, span), rel);
                let mask = _mm256_movemask_ps(_mm256_castsi256_ps(inside)) as usize;
                _mm256_storeu_si256(ptr.add(w).cast(), compact(r, mask));
                w += mask.count_ones() as usize;
            }
        }
        w
    }

    pub(super) fn gather_codes(
        keys: ChunkRef<'_, Key>,
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        codes: &mut Vec<Key>,
    ) {
        let Some(src) = Keys::new(keys).filter(|_| table.len() <= MAX_GATHER_LEN) else {
            return scalar::gather_codes(keys, base, table, rows, codes);
        };
        codes.clear();
        if table.is_empty() {
            return codes.resize(rows.len(), NULL_KEY);
        }
        let blocks = rows.len() / LANES;
        codes.reserve(rows.len());
        // SAFETY: AVX2 was detected by the caller's dispatch; `src` came
        // from `Keys::new`; the table is non-empty and at most `i32::MAX`
        // long; `codes` has room for `rows.len() >= blocks * LANES` entries.
        unsafe {
            code_blocks(&src, base, table, rows, blocks, codes.as_mut_ptr());
            // SAFETY: `code_blocks` initialised exactly `blocks * LANES`
            // entries.
            codes.set_len(blocks * LANES);
        }
        codes.extend(
            rows[blocks * LANES..]
                .iter()
                .map(|&r| scalar::code_of(table, keys.at((r - base) as usize))),
        );
    }

    /// Writes the codes of the first `blocks` full vectors of `rows` to
    /// `dst`.
    ///
    /// # Safety
    /// AVX2 must be available; `keys` came from [`Keys::new`];
    /// `1 <= table.len() <= i32::MAX`; `blocks * LANES <= rows.len()`;
    /// `dst` must be valid for writes of `blocks * LANES` codes.
    #[target_feature(enable = "avx2")]
    unsafe fn code_blocks(
        keys: &Keys<'_>,
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        blocks: usize,
        dst: *mut Key,
    ) {
        // SAFETY: block `b` loads `rows[b*8 .. b*8+8]` and stores
        // `dst[b*8 .. b*8+8]`, both inside their arrays by the
        // preconditions. `at_rows` clamps every offset into the chunk, and
        // the table gather clamps its lane indexes to the last element
        // (`<= i32::MAX − 1`): in bounds and non-negative.
        unsafe {
            let basev = _mm256_set1_epi32(base as i32);
            let last_key = _mm256_set1_epi32((table.len() - 1) as i32);
            for b in 0..blocks {
                let r = _mm256_loadu_si256(rows.as_ptr().add(b * LANES).cast());
                let k = keys.at_rows(r, basev);
                let clamped = _mm256_min_epu32(k, last_key);
                let in_range = _mm256_cmpeq_epi32(clamped, k);
                let code = _mm256_i32gather_epi32::<4>(table.as_ptr().cast(), clamped);
                // NULL_KEY is all ones: OR it into every clamped lane.
                let code = _mm256_or_si256(code, _mm256_xor_si256(in_range, _mm256_set1_epi32(-1)));
                _mm256_storeu_si256(dst.add(b * LANES).cast(), code);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::encoded::{encode_values, EncodedColumn};

    /// xorshift64: the seeded input generator of the differentials.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A predicate vector of `len` bits with about `per_mille`/1000 set.
    fn bitmap(rng: &mut Rng, len: usize, per_mille: u64) -> Bitmap {
        Bitmap::from_fn(len, |_| rng.below(1000) < per_mille)
    }

    /// A key chunk over a `dim`-row dimension: mostly valid keys, with
    /// `NULL_KEY`, just-past-the-end and far-out-of-range keys mixed in.
    fn keys(rng: &mut Rng, n: usize, dim: usize) -> Vec<Key> {
        (0..n)
            .map(|_| match rng.below(16) {
                0 => NULL_KEY,
                1 => dim as Key,
                2 => dim as Key + 1 + rng.below(1 << 20) as Key,
                3 => 1 << 31,
                _ => rng.below(dim.max(1) as u64) as Key,
            })
            .collect()
    }

    /// Ascending rows of a chunk of `n` rows starting at `base`, each kept
    /// with probability `per_mille`/1000.
    fn selection(rng: &mut Rng, base: RowId, n: usize, per_mille: u64) -> Vec<RowId> {
        (0..n as RowId).filter(|_| rng.below(1000) < per_mille).map(|off| base + off).collect()
    }

    /// Exactly `n` ascending rows of a chunk of `chunk_rows >= n` rows.
    fn pick(rng: &mut Rng, base: RowId, chunk_rows: usize, n: usize) -> Vec<RowId> {
        let mut rows = selection(rng, base, chunk_rows, 1000);
        while rows.len() > n {
            rows.remove(rng.below(rows.len() as u64) as usize);
        }
        rows
    }

    /// Bitmap lengths that are and are not multiples of 32 and 64, an empty
    /// one, and a single bit.
    const DIMS: [usize; 9] = [0, 1, 31, 32, 33, 64, 100, 2557, 4096];
    /// Selectivities: nothing, about 1 %, half, everything.
    const PER_MILLE: [u64; 4] = [0, 10, 500, 1000];

    fn skip_without_avx2() -> bool {
        if !avx2_available() {
            eprintln!("skipped: no AVX2 on this host");
        }
        !avx2_available()
    }

    #[test]
    fn avx2_dense_probe_matches_scalar() {
        if skip_without_avx2() {
            return;
        }
        let mut rng = Rng(0x5EED_0001);
        for dim in DIMS {
            for per_mille in PER_MILLE {
                let bm = bitmap(&mut rng, dim, per_mille);
                // Every length 0..=70 (all tail residues), from the chunk
                // start and from the middle of it.
                for n in 0..=70usize {
                    for start in [0usize, 5, 13] {
                        let chunk = keys(&mut rng, start + n + 3, dim);
                        let chunk = ChunkRef::Flat(&chunk);
                        let base = 65_536 * (n as RowId % 3);
                        let mut want = vec![7, 8, 9];
                        let mut got = want.clone();
                        scalar::dense_probe(chunk, start..start + n, base, &bm, &mut want);
                        dense_probe(chunk, start..start + n, base, &bm, &mut got);
                        assert_eq!(got, want, "dim={dim} sel={per_mille} n={n} start={start}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_sparse_probe_matches_scalar_in_place() {
        if skip_without_avx2() {
            return;
        }
        let mut rng = Rng(0x5EED_0002);
        for dim in DIMS {
            for per_mille in PER_MILLE {
                let bm = bitmap(&mut rng, dim, per_mille);
                for n in 0..=70usize {
                    // `n` selected rows out of a chunk of up to 4 * n.
                    let chunk_rows = 1 + n * (1 + rng.below(4) as usize);
                    let chunk = keys(&mut rng, chunk_rows, dim);
                    let base = 1000 + 65_536 * (n as RowId % 4);
                    let mut rows = pick(&mut rng, base, chunk_rows, n);
                    let mut want = rows.clone();
                    scalar::sparse_probe(ChunkRef::Flat(&chunk), base, &bm, &mut want);
                    // The kernel compacts the very buffer it reads.
                    sparse_probe(ChunkRef::Flat(&chunk), base, &bm, &mut rows);
                    assert_eq!(rows, want, "dim={dim} sel={per_mille} n={n}");
                }
            }
        }
    }

    /// A group vector over `dim` rows: codes below 50, with filtered (NULL)
    /// slots.
    fn group_vector(rng: &mut Rng, dim: usize) -> Vec<Key> {
        (0..dim).map(|_| if rng.below(5) == 0 { NULL_KEY } else { rng.below(50) as Key }).collect()
    }

    #[test]
    fn avx2_gather_codes_matches_scalar() {
        if skip_without_avx2() {
            return;
        }
        let mut rng = Rng(0x5EED_0003);
        for dim in DIMS {
            let table = group_vector(&mut rng, dim);
            for per_mille in PER_MILLE {
                for n in 0..=70usize {
                    let chunk = keys(&mut rng, n + 9, dim);
                    let base = 65_536 * (n as RowId % 5);
                    let rows = selection(&mut rng, base, n + 9, per_mille.max(10));
                    let (mut want, mut got) = (vec![1, 2], vec![3]);
                    scalar::gather_codes(ChunkRef::Flat(&chunk), base, &table, &rows, &mut want);
                    gather_codes(ChunkRef::Flat(&chunk), base, &table, &rows, &mut got);
                    assert_eq!(got, want, "dim={dim} sel={per_mille} n={n}");
                    assert_eq!(got.len(), rows.len());
                }
            }
        }
    }

    /// How a packed test chunk treats base and NULL.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Base 0, no NULL code.
        Plain,
        /// A positive base and a NULL code (the largest code).
        BasedWithNulls,
        /// A negative base: small codes wrap to keys far out of range.
        NegativeBase,
    }

    const SHAPES: [Shape; 3] = [Shape::Plain, Shape::BasedWithNulls, Shape::NegativeBase];

    /// A packed chunk of `n` rows at lane width `width` (so every lane
    /// count is reachable), assembled word by word: mostly codes that land
    /// inside a `dim`-row dimension, with full-range codes and — when the
    /// shape has them — NULL codes mixed in.
    fn packed(rng: &mut Rng, n: usize, width: u32, dim: usize, shape: Shape) -> PackedInts {
        let max_code = (1u64 << (width - 1)) - 1;
        let (base, has_null) = match shape {
            Shape::Plain => (0i64, false),
            Shape::BasedWithNulls => (7, true),
            Shape::NegativeBase => (-3, true),
        };
        let lanes = (64 / width) as usize;
        let mut words = vec![0u64; n.div_ceil(lanes)];
        for i in 0..n {
            let code = match rng.below(8) {
                0 if has_null => max_code,
                1 => rng.below(max_code + 1),
                _ => rng.below((dim as u64 + 4).min(max_code + 1)),
            };
            words[i / lanes] |= code << (i % lanes * width as usize);
        }
        let p = PackedInts::from_parts(base, n as u32, max_code, has_null, words)
            .expect("a well-formed packed chunk");
        assert_eq!((p.width() as u32, p.lanes()), (width, lanes));
        p
    }

    /// The flat chunk a packed or run chunk stands for.
    fn decoded(keys: ChunkRef<'_, Key>) -> Vec<Key> {
        keys.decoded().into_owned()
    }

    /// All three kernels on `chunk` — the dispatching entry points against
    /// the scalar twins over the same representation, and those against the
    /// scalar kernels over the decoded chunk — on the sub-range
    /// `start..start + n` (dense) and on `n` picked rows (sparse, gather).
    fn check_all(
        rng: &mut Rng,
        chunk: ChunkRef<'_, Key>,
        flat: &[Key],
        bm: &Bitmap,
        table: &[Key],
        (start, n): (usize, usize),
        ctx: &str,
    ) {
        let flat = ChunkRef::Flat(flat);
        let base = 65_536 * (n as RowId % 3);
        let (mut first, mut twin, mut got) = (vec![7, 8], vec![7, 8], vec![7, 8]);
        scalar::dense_probe(flat, start..start + n, base, bm, &mut first);
        scalar::dense_probe(chunk, start..start + n, base, bm, &mut twin);
        dense_probe(chunk, start..start + n, base, bm, &mut got);
        assert_eq!(twin, first, "dense twin {ctx} start={start} n={n}");
        assert_eq!(got, first, "dense {ctx} start={start} n={n}");

        let rows = pick(rng, base, chunk.len(), n.min(chunk.len()));
        let (mut first, mut twin, mut got) = (rows.clone(), rows.clone(), rows.clone());
        scalar::sparse_probe(flat, base, bm, &mut first);
        scalar::sparse_probe(chunk, base, bm, &mut twin);
        // In place: the kernel compacts the very buffer it reads.
        sparse_probe(chunk, base, bm, &mut got);
        assert_eq!(twin, first, "sparse twin {ctx} n={n}");
        assert_eq!(got, first, "sparse {ctx} n={n}");

        let (mut first, mut twin, mut got) = (vec![1], vec![2, 2], vec![3]);
        scalar::gather_codes(flat, base, table, &rows, &mut first);
        scalar::gather_codes(chunk, base, table, &rows, &mut twin);
        gather_codes(chunk, base, table, &rows, &mut got);
        assert_eq!(twin, first, "gather twin {ctx} n={n}");
        assert_eq!(got, first, "gather {ctx} n={n}");
    }

    /// [`sparse_range`] on `n` picked rows of `p` for a random code range:
    /// the dispatching entry point against the scalar twin against the
    /// codes themselves.
    fn check_range(rng: &mut Rng, p: &PackedInts, n: usize, ctx: &str) {
        let base = 65_536 * (n as RowId % 3);
        let rows = pick(rng, base, p.len(), n.min(p.len()));
        let (a, b) = (rng.below(p.max_code() + 2), rng.below(p.max_code() + 2));
        for (clo, chi) in [(a.min(b), a.max(b)), (0, p.max_code()), (a, a), (0, u64::MAX)] {
            let first: Vec<RowId> = rows
                .iter()
                .copied()
                .filter(|&r| (clo..=chi).contains(&p.code_at((r - base) as usize)))
                .collect();
            let (mut twin, mut got) = (rows.clone(), rows.clone());
            scalar::sparse_range(p, base, clo, chi, &mut twin);
            sparse_range(p, base, clo, chi, &mut got);
            assert_eq!(twin, first, "range twin {ctx} n={n} [{clo},{chi}]");
            assert_eq!(got, first, "range {ctx} n={n} [{clo},{chi}]");
        }
    }

    /// Every lane width 2..=32 (all 13 lane counts), every base/NULL shape,
    /// every bitmap length and selectivity; lengths 0..=70 from sub-ranges
    /// that start and end mid-word.
    #[test]
    fn packed_kernels_match_scalar_twins_at_every_width() {
        if !avx2_available() {
            eprintln!("skipped: no AVX2 on this host (the scalar twins still run)");
        }
        let mut rng = Rng(0x5EED_0005);
        let mut lane_counts = std::collections::BTreeSet::new();
        for width in 2..=32u32 {
            lane_counts.insert(64 / width);
            for (i, dim) in DIMS.into_iter().enumerate() {
                let shape = SHAPES[(width as usize + i) % 3];
                let p = packed(&mut rng, 160, width, dim, shape);
                let chunk = ChunkRef::Packed(&p);
                let flat = decoded(chunk);
                let table = group_vector(&mut rng, dim);
                for per_mille in PER_MILLE {
                    let bm = bitmap(&mut rng, dim, per_mille);
                    let ctx = format!("width={width} {shape:?} dim={dim} sel={per_mille}");
                    for n in 0..=70usize {
                        let start = [0, 5, 13, rng.below(80) as usize][n % 4];
                        check_all(&mut rng, chunk, &flat, &bm, &table, (start, n), &ctx);
                        if per_mille == 0 {
                            check_range(&mut rng, &p, n, &ctx);
                        }
                    }
                }
            }
        }
        assert_eq!(lane_counts.len(), 13, "widths 2..=32 cover every lane count");
    }

    /// A full 65 536-row chunk per width: the vector loops run to the last
    /// window and hand the right tail to the scalar loop.
    #[test]
    fn packed_kernels_match_on_a_full_chunk() {
        let mut rng = Rng(0x5EED_0006);
        let table = group_vector(&mut rng, 2557);
        for width in 2..=32u32 {
            let shape = SHAPES[width as usize % 3];
            let p = packed(&mut rng, 65_536, width, 2557, shape);
            let chunk = ChunkRef::Packed(&p);
            let flat = decoded(chunk);
            let bm = bitmap(&mut rng, 2557, [10, 500][width as usize % 2]);
            let base = 65_536 * 3;
            for offs in [0..65_536usize, 3..65_531, 65_500..65_536] {
                let (mut want, mut got) = (Vec::new(), Vec::new());
                scalar::dense_probe(ChunkRef::Flat(&flat), offs.clone(), base, &bm, &mut want);
                dense_probe(chunk, offs.clone(), base, &bm, &mut got);
                assert_eq!(got, want, "dense width={width} {offs:?}");
            }
            let rows = selection(&mut rng, base, 65_536, 300);
            let (mut want, mut got) = (rows.clone(), rows.clone());
            scalar::sparse_probe(ChunkRef::Flat(&flat), base, &bm, &mut want);
            sparse_probe(chunk, base, &bm, &mut got);
            assert_eq!(got, want, "sparse width={width}");
            let (mut want, mut got) = (Vec::new(), Vec::new());
            scalar::gather_codes(ChunkRef::Flat(&flat), base, &table, &rows, &mut want);
            gather_codes(chunk, base, &table, &rows, &mut got);
            assert_eq!(got, want, "gather width={width}");
            let (mut want, mut got) = (rows.clone(), rows.clone());
            scalar::sparse_range(&p, base, 3, p.max_code() / 2 + 3, &mut want);
            sparse_range(&p, base, 3, p.max_code() / 2 + 3, &mut got);
            assert_eq!(got, want, "range width={width}");
        }
    }

    /// An all-NULL key chunk packed the way `encode_values` would pack it
    /// (one code, standing for NULL, on a `NULL_KEY` base): nothing passes
    /// a probe, every group code is NULL.
    #[test]
    fn all_null_packed_chunk_fails_every_probe() {
        let p = PackedInts::from_parts(NULL_KEY as i64, 100, 0, true, vec![0; 4]).unwrap();
        assert_eq!((p.max_code(), p.null_code()), (0, Some(0)));
        assert_eq!(decoded(ChunkRef::Packed(&p)), vec![NULL_KEY; 100]);
        let chunk = ChunkRef::Packed(&p);
        let bm = Bitmap::new(64, true);
        let mut out = Vec::new();
        dense_probe(chunk, 0..100, 0, &bm, &mut out);
        assert!(out.is_empty());
        let mut rows: Vec<RowId> = (0..100).collect();
        sparse_probe(chunk, 0, &bm, &mut rows);
        assert!(rows.is_empty());
        let mut codes = Vec::new();
        gather_codes(chunk, 0, &[5; 64], &(0..100).collect::<Vec<_>>(), &mut codes);
        assert_eq!(codes, vec![NULL_KEY; 100]);
    }

    /// Run-length chunks: one verdict per run, same rows as the decoded
    /// chunk — constant chunks, long runs, and runs of length one.
    #[test]
    fn rle_kernels_match_the_decoded_chunk() {
        let mut rng = Rng(0x5EED_0007);
        for dim in DIMS {
            let table = group_vector(&mut rng, dim);
            for run_len in [1usize, 3, 40, 1000] {
                let mut flat = Vec::new();
                while flat.len() < 150 {
                    let k = keys(&mut rng, 1, dim)[0];
                    let n = 1 + rng.below(run_len as u64) as usize;
                    flat.extend(std::iter::repeat_n(k, n));
                }
                flat.truncate(150);
                // Force the run form whatever `encode_values` would pick.
                let mut values: Vec<i64> = Vec::new();
                let mut ends: Vec<u32> = Vec::new();
                for (i, &k) in flat.iter().enumerate() {
                    if values.last() == Some(&i64::from(k)) {
                        *ends.last_mut().unwrap() = i as u32 + 1;
                    } else {
                        values.push(i64::from(k));
                        ends.push(i as u32 + 1);
                    }
                }
                let r = RleInts::from_parts(values, ends).expect("canonical runs");
                let chunk = ChunkRef::Rle(&r);
                assert_eq!(decoded(chunk), flat);
                for per_mille in PER_MILLE {
                    let bm = bitmap(&mut rng, dim, per_mille);
                    let ctx = format!("rle dim={dim} run_len={run_len} sel={per_mille}");
                    for n in 0..=70usize {
                        let start = [0, 5, 13, rng.below(70) as usize][n % 4];
                        check_all(&mut rng, chunk, &flat, &bm, &table, (start, n), &ctx);
                    }
                }
            }
        }
    }

    /// The scalar kernels against first principles — they are the oracle of
    /// everything above, and the only path on hosts without AVX2.
    #[test]
    fn scalar_kernels_by_hand() {
        let bm = Bitmap::from_fn(4, |i| i % 2 == 1); // dims 1 and 3 pass
        let chunk = [0, 1, 2, 3, NULL_KEY, 1, 9];
        let flat = ChunkRef::Flat(&chunk[..]);
        let mut out = Vec::new();
        scalar::dense_probe(flat, 0..7, 100, &bm, &mut out);
        assert_eq!(out, vec![101, 103, 105]);
        out.clear();
        scalar::dense_probe(flat, 2..6, 100, &bm, &mut out);
        assert_eq!(out, vec![103, 105]);

        let mut rows = vec![100, 101, 104, 105, 106];
        scalar::sparse_probe(flat, 100, &bm, &mut rows);
        assert_eq!(rows, vec![101, 105]);

        let table = [7, NULL_KEY, 5, 6];
        let mut codes = Vec::new();
        scalar::gather_codes(flat, 100, &table, &[100, 101, 103, 104, 106], &mut codes);
        assert_eq!(codes, vec![7, NULL_KEY, 6, NULL_KEY, NULL_KEY]);

        // The same chunk packed (NULL → the top code) and as runs.
        let Some(EncodedColumn::Packed(p)) = encode_values(&chunk) else { panic!("packs") };
        assert_eq!(p.null_code(), Some(10));
        let packed = ChunkRef::Packed(&p);
        out.clear();
        scalar::dense_probe(packed, 0..7, 100, &bm, &mut out);
        assert_eq!(out, vec![101, 103, 105]);
        scalar::gather_codes(packed, 100, &table, &[100, 101, 103, 104, 106], &mut codes);
        assert_eq!(codes, vec![7, NULL_KEY, 6, NULL_KEY, NULL_KEY]);
        let r = RleInts::from_parts(vec![1, 2, 3], vec![3, 4, 8]).unwrap();
        out.clear();
        scalar::dense_probe(ChunkRef::Rle(&r), 1..7, 100, &bm, &mut out);
        assert_eq!(out, vec![101, 102, 104, 105, 106]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn compact_lut_packs_set_lanes_in_order() {
        for (mask, lanes) in avx2::COMPACT_LUT.iter().enumerate() {
            let set: Vec<u8> = (0..8).filter(|l| mask >> l & 1 == 1).collect();
            assert_eq!(&lanes[..set.len()], &set[..], "mask {mask:#010b}");
        }
    }

    #[test]
    fn public_kernels_agree_with_scalar_on_any_host() {
        // Whatever the dispatch picked, the results are the scalar ones.
        let mut rng = Rng(0x5EED_0004);
        let bm = bitmap(&mut rng, 777, 300);
        let flat: Vec<Key> = (0..5000)
            .map(|_| if rng.below(9) == 0 { NULL_KEY } else { rng.below(800) as Key })
            .collect();
        let encoded = encode_values(&flat).expect("keys below 800 pack");
        let EncodedColumn::Packed(p) = &encoded else { panic!("expected packed") };
        for chunk in [ChunkRef::Flat(&flat), ChunkRef::Packed(p)] {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            scalar::dense_probe(ChunkRef::Flat(&flat), 17..4999, 65_536, &bm, &mut want);
            dense_probe(chunk, 17..4999, 65_536, &bm, &mut got);
            assert_eq!(got, want);
            let mut rows = selection(&mut rng, 65_536, 5000, 400);
            let mut want_rows = rows.clone();
            scalar::sparse_probe(ChunkRef::Flat(&flat), 65_536, &bm, &mut want_rows);
            sparse_probe(chunk, 65_536, &bm, &mut rows);
            assert_eq!(rows, want_rows);
        }
    }

    /// The kernel's own micro-measurement: ns per row of the dense probe
    /// over a flat 64K-row key chunk and over the same keys packed at the
    /// lane counts `lineorder`'s key columns have. Not a test of anything —
    /// run it by name with `--release -- --ignored --nocapture`.
    #[test]
    #[ignore = "micro-measurement, prints timings"]
    fn dense_probe_ns_per_row() {
        let mut rng = Rng(0x5EED_0008);
        // (dimension rows, expected lanes): date, supplier, customer, part.
        for (dim, lanes) in [(2557usize, 7usize), (400, 6), (6000, 4), (40_000, 3)] {
            let flat: Vec<Key> = (0..65_536).map(|_| rng.below(dim as u64) as Key).collect();
            let Some(EncodedColumn::Packed(p)) = encode_values(&flat) else { panic!("packs") };
            let _ = lanes; // informational: p.lanes() is printed below
            let bm = bitmap(&mut rng, dim, 200);
            let mut out = Vec::with_capacity(70_000);
            let mut time = |chunk: ChunkRef<'_, Key>| {
                let reps = 2000;
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    out.clear();
                    dense_probe(std::hint::black_box(chunk), 0..65_536, 0, &bm, &mut out);
                    std::hint::black_box(&out);
                }
                t.elapsed().as_secs_f64() * 1e9 / (reps as f64 * 65_536.0)
            };
            let (f, k) = (time(ChunkRef::Flat(&flat)), time(ChunkRef::Packed(&p)));
            let mut rows = Vec::new();
            let mut time_sparse = |chunk: ChunkRef<'_, Key>| {
                let reps = 2000;
                let sel: Vec<RowId> = (0..65_536).step_by(5).collect();
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    rows.clear();
                    rows.extend_from_slice(&sel);
                    sparse_probe(std::hint::black_box(chunk), 0, &bm, &mut rows);
                    std::hint::black_box(&rows);
                }
                t.elapsed().as_secs_f64() * 1e9 / (reps as f64 * sel.len() as f64)
            };
            let (sf, sk) = (time_sparse(ChunkRef::Flat(&flat)), time_sparse(ChunkRef::Packed(&p)));
            eprintln!(
                "dim {dim:>6} lanes {}: dense flat {f:.3} packed {k:.3} ns/row ({:.2}x); \
                 sparse(1/5) flat {sf:.3} packed {sk:.3} ns/row ({:.2}x)",
                p.lanes(),
                k / f,
                sk / sf
            );
        }
    }
}
