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
//!
//! `keys` is always one segment's chunk of a fact AIR column, `base` the
//! table-wide row id of its first row, and row ids are ascending.
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
//! # Why the gathers are safe
//!
//! A gather reads `base_ptr + 4 * lane_index` for every lane, so each index
//! vector is clamped *before* the gather, with an unsigned minimum against
//! the last valid index of the addressed array:
//!
//! * fact-chunk offsets `r − base` against `keys.len() − 1`;
//! * keys against `bitmap.len() − 1` (then `>> 5` stays below the 32-bit
//!   word count) or `table.len() − 1`.
//!
//! Lanes that had to be clamped are remembered (`clamped != original`) and
//! forced to "no bit" / [`NULL_KEY`] afterwards, which is also how
//! [`NULL_KEY`] (`u32::MAX`, past every array) and dangling keys come out
//! right without a branch. Gather indexes are signed 32-bit: the wrappers
//! take the AVX2 path only for arrays of at most `i32::MAX` elements and
//! non-empty arrays, and run the scalar loop otherwise. Compaction stores
//! write a full eight-lane vector at the write cursor: the in-place kernel's
//! cursor never passes the block it has already loaded, and the appending
//! kernel reserves eight lanes of slack past the longest possible output.

use astore_storage::bitmap::Bitmap;
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
    keys: &[Key],
    offs: std::ops::Range<usize>,
    base: RowId,
    bitmap: &Bitmap,
    out: &mut Vec<RowId>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::dense_probe(keys, offs, base, bitmap, out);
    }
    scalar::dense_probe(keys, offs, base, bitmap, out)
}

/// Keeps, in place and in order, the rows `r` of `rows` whose key passes the
/// predicate vector (`bitmap[keys[r − base]]`). Every row must lie in the
/// chunk, `base <= r < base + keys.len()`: the scalar path panics on a row
/// outside it, the AVX2 path clamps it into the chunk (memory-safe, but the
/// verdict for that row is then meaningless).
pub fn sparse_probe(keys: &[Key], base: RowId, bitmap: &Bitmap, rows: &mut Vec<RowId>) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::sparse_probe(keys, base, bitmap, rows);
    }
    scalar::sparse_probe(keys, base, bitmap, rows)
}

/// Overwrites `codes` with one entry per row of `rows`:
/// `table[keys[r − base]]`, or [`NULL_KEY`] when the key is [`NULL_KEY`] or
/// past the end of `table` (a group vector's code array). Rows must lie in
/// the chunk, as for [`sparse_probe`].
pub fn gather_codes(
    keys: &[Key],
    base: RowId,
    table: &[Key],
    rows: &[RowId],
    codes: &mut Vec<Key>,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return avx2::gather_codes(keys, base, table, rows, codes);
    }
    scalar::gather_codes(keys, base, table, rows, codes)
}

/// The portable implementations: what runs without AVX2, the tail loops of
/// the AVX2 kernels, and the oracle the differential tests compare against.
pub mod scalar {
    use super::*;

    /// Scalar [`super::dense_probe`].
    pub fn dense_probe(
        keys: &[Key],
        offs: std::ops::Range<usize>,
        base: RowId,
        bitmap: &Bitmap,
        out: &mut Vec<RowId>,
    ) {
        let first = base + offs.start as RowId;
        out.extend(
            keys[offs]
                .iter()
                .zip(first..)
                .filter(|(&k, _)| bitmap.get_or_false(k as usize))
                .map(|(_, row)| row),
        );
    }

    /// Scalar [`super::sparse_probe`].
    pub fn sparse_probe(keys: &[Key], base: RowId, bitmap: &Bitmap, rows: &mut Vec<RowId>) {
        retain(rows, |r| bitmap.get_or_false(keys[(r - base) as usize] as usize));
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
        keys: &[Key],
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        codes: &mut Vec<Key>,
    ) {
        codes.clear();
        codes.extend(rows.iter().map(|&r| code_of(table, keys[(r - base) as usize])));
    }
}

/// The AVX2 implementations. The only `unsafe` of this module lives here:
/// every block states why its pointer accesses stay inside their arrays.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{scalar, Bitmap, Key, RowId, NULL_KEY};

    /// Rows per vector.
    const LANES: usize = 8;

    // `code_blocks` ORs all-ones into clamped lanes.
    const _: () = assert!(NULL_KEY == u32::MAX);

    /// The largest array a gather may address: its lane indexes are signed.
    const MAX_GATHER_LEN: usize = i32::MAX as usize;

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
        scalar::dense_probe(keys, tail..keys.len(), first, bitmap, out);
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

    pub(super) fn sparse_probe(keys: &[Key], base: RowId, bitmap: &Bitmap, rows: &mut Vec<RowId>) {
        let Some(bits) = BitWords::new(bitmap) else { return rows.clear() };
        if keys.is_empty() || keys.len() > MAX_GATHER_LEN {
            return scalar::sparse_probe(keys, base, bitmap, rows);
        }
        let blocks = rows.len() / LANES;
        // SAFETY: AVX2 and popcnt were detected by the caller's dispatch;
        // `keys` is non-empty and at most `i32::MAX` long.
        let w = unsafe { sparse_blocks(keys, base, &bits, rows, blocks) };
        let kept = scalar::compact_from(rows, blocks * LANES, w, |r| {
            bitmap.get_or_false(keys[(r - base) as usize] as usize)
        });
        rows.truncate(kept);
    }

    /// Compacts the first `blocks` full vectors of `rows` in place; returns
    /// the write cursor.
    ///
    /// # Safety
    /// AVX2 and popcnt must be available; `1 <= keys.len() <= i32::MAX`;
    /// `blocks * LANES <= rows.len()`.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn sparse_blocks(
        keys: &[Key],
        base: RowId,
        bits: &BitWords,
        rows: &mut [RowId],
        blocks: usize,
    ) -> usize {
        let mut w = 0usize;
        let p = rows.as_mut_ptr();
        // SAFETY: block `b` loads `rows[b*8 .. b*8+8]`, inside the slice by
        // the precondition. The key gather's lane indexes are clamped to
        // `keys.len() − 1 <= i32::MAX − 1`: in bounds and non-negative. The
        // store covers `rows[w .. w+8]` with `w <= b*8`, so it ends at or
        // before the end of the block just loaded: it never touches a row
        // that has not been read yet, and stays inside the slice.
        unsafe {
            let basev = _mm256_set1_epi32(base as i32);
            let last_off = _mm256_set1_epi32((keys.len() - 1) as i32);
            for b in 0..blocks {
                let r = _mm256_loadu_si256(p.add(b * LANES).cast());
                let off = _mm256_min_epu32(_mm256_sub_epi32(r, basev), last_off);
                let k = _mm256_i32gather_epi32::<4>(keys.as_ptr().cast(), off);
                let mask = probe_mask(bits, k);
                _mm256_storeu_si256(p.add(w).cast(), compact(r, mask));
                w += mask.count_ones() as usize;
            }
        }
        w
    }

    pub(super) fn gather_codes(
        keys: &[Key],
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        codes: &mut Vec<Key>,
    ) {
        if keys.is_empty() || keys.len() > MAX_GATHER_LEN || table.len() > MAX_GATHER_LEN {
            return scalar::gather_codes(keys, base, table, rows, codes);
        }
        codes.clear();
        if table.is_empty() {
            return codes.resize(rows.len(), NULL_KEY);
        }
        let blocks = rows.len() / LANES;
        codes.reserve(rows.len());
        // SAFETY: AVX2 was detected by the caller's dispatch; both arrays
        // are non-empty and at most `i32::MAX` long; `codes` has room for
        // `rows.len() >= blocks * LANES` entries.
        unsafe {
            code_blocks(keys, base, table, rows, blocks, codes.as_mut_ptr());
            // SAFETY: `code_blocks` initialised exactly `blocks * LANES`
            // entries.
            codes.set_len(blocks * LANES);
        }
        codes.extend(
            rows[blocks * LANES..]
                .iter()
                .map(|&r| scalar::code_of(table, keys[(r - base) as usize])),
        );
    }

    /// Writes the codes of the first `blocks` full vectors of `rows` to
    /// `dst`.
    ///
    /// # Safety
    /// AVX2 must be available; `1 <= keys.len() <= i32::MAX` and
    /// `1 <= table.len() <= i32::MAX`; `blocks * LANES <= rows.len()`;
    /// `dst` must be valid for writes of `blocks * LANES` codes.
    #[target_feature(enable = "avx2")]
    unsafe fn code_blocks(
        keys: &[Key],
        base: RowId,
        table: &[Key],
        rows: &[RowId],
        blocks: usize,
        dst: *mut Key,
    ) {
        // SAFETY: block `b` loads `rows[b*8 .. b*8+8]` and stores
        // `dst[b*8 .. b*8+8]`, both inside their arrays by the
        // preconditions. Both gathers clamp their lane indexes to the last
        // element of the addressed array (`<= i32::MAX − 1`): in bounds and
        // non-negative.
        unsafe {
            let basev = _mm256_set1_epi32(base as i32);
            let last_off = _mm256_set1_epi32((keys.len() - 1) as i32);
            let last_key = _mm256_set1_epi32((table.len() - 1) as i32);
            for b in 0..blocks {
                let r = _mm256_loadu_si256(rows.as_ptr().add(b * LANES).cast());
                let off = _mm256_min_epu32(_mm256_sub_epi32(r, basev), last_off);
                let k = _mm256_i32gather_epi32::<4>(keys.as_ptr().cast(), off);
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

    /// Bitmap lengths that are and are not multiples of 32 and 64, an empty
    /// one, and a single bit.
    const DIMS: [usize; 9] = [0, 1, 31, 32, 33, 64, 100, 2557, 4096];
    /// Selectivities: nothing, about 1 %, half, everything.
    const PER_MILLE: [u64; 4] = [0, 10, 500, 1000];

    #[test]
    fn avx2_dense_probe_matches_scalar() {
        if !avx2_available() {
            eprintln!("skipped: no AVX2 on this host");
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
                        let base = 65_536 * (n as RowId % 3);
                        let mut want = vec![7, 8, 9];
                        let mut got = want.clone();
                        scalar::dense_probe(&chunk, start..start + n, base, &bm, &mut want);
                        dense_probe(&chunk, start..start + n, base, &bm, &mut got);
                        assert_eq!(got, want, "dim={dim} sel={per_mille} n={n} start={start}");
                    }
                }
            }
        }
    }

    #[test]
    fn avx2_sparse_probe_matches_scalar_in_place() {
        if !avx2_available() {
            eprintln!("skipped: no AVX2 on this host");
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
                    let mut rows = selection(&mut rng, base, chunk_rows, 1000);
                    // Keep exactly n of them, still ascending.
                    while rows.len() > n {
                        rows.remove(rng.below(rows.len() as u64) as usize);
                    }
                    let mut want = rows.clone();
                    scalar::sparse_probe(&chunk, base, &bm, &mut want);
                    // The kernel compacts the very buffer it reads.
                    sparse_probe(&chunk, base, &bm, &mut rows);
                    assert_eq!(rows, want, "dim={dim} sel={per_mille} n={n}");
                }
            }
        }
    }

    #[test]
    fn avx2_gather_codes_matches_scalar() {
        if !avx2_available() {
            eprintln!("skipped: no AVX2 on this host");
            return;
        }
        let mut rng = Rng(0x5EED_0003);
        for dim in DIMS {
            // A group vector: codes below 50, with filtered (NULL) slots.
            let table: Vec<Key> = (0..dim)
                .map(|_| if rng.below(5) == 0 { NULL_KEY } else { rng.below(50) as Key })
                .collect();
            for per_mille in PER_MILLE {
                for n in 0..=70usize {
                    let chunk = keys(&mut rng, n + 9, dim);
                    let base = 65_536 * (n as RowId % 5);
                    let rows = selection(&mut rng, base, n + 9, per_mille.max(10));
                    let (mut want, mut got) = (vec![1, 2], vec![3]);
                    scalar::gather_codes(&chunk, base, &table, &rows, &mut want);
                    gather_codes(&chunk, base, &table, &rows, &mut got);
                    assert_eq!(got, want, "dim={dim} sel={per_mille} n={n}");
                    assert_eq!(got.len(), rows.len());
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
        let mut out = Vec::new();
        scalar::dense_probe(&chunk, 0..7, 100, &bm, &mut out);
        assert_eq!(out, vec![101, 103, 105]);
        out.clear();
        scalar::dense_probe(&chunk, 2..6, 100, &bm, &mut out);
        assert_eq!(out, vec![103, 105]);

        let mut rows = vec![100, 101, 104, 105, 106];
        scalar::sparse_probe(&chunk, 100, &bm, &mut rows);
        assert_eq!(rows, vec![101, 105]);

        let table = [7, NULL_KEY, 5, 6];
        let mut codes = Vec::new();
        scalar::gather_codes(&chunk, 100, &table, &[100, 101, 103, 104, 106], &mut codes);
        assert_eq!(codes, vec![7, NULL_KEY, 6, NULL_KEY, NULL_KEY]);
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
        let chunk = keys(&mut rng, 5000, 777);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        scalar::dense_probe(&chunk, 17..4999, 65_536, &bm, &mut want);
        dense_probe(&chunk, 17..4999, 65_536, &bm, &mut got);
        assert_eq!(got, want);
        let mut rows = selection(&mut rng, 65_536, 5000, 400);
        let mut want_rows = rows.clone();
        scalar::sparse_probe(&chunk, 65_536, &bm, &mut want_rows);
        sparse_probe(&chunk, 65_536, &bm, &mut rows);
        assert_eq!(rows, want_rows);
    }
}
