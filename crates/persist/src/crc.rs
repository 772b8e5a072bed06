//! CRC-32 (IEEE 802.3 polynomial, the same one zlib/gzip/PNG use). Both the
//! snapshot format and every WAL record are protected by this checksum; it
//! is what lets recovery distinguish a torn tail from a committed record.
//!
//! ## Two loops, one answer
//!
//! - **The fold** (x86-64 with `pclmulqdq` and `sse4.1`, inputs of 128 bytes
//!   and more — most of a snapshot's bytes). The register is xored into the
//!   first 16 input bytes, and four 128-bit lanes then move 64 bytes at a
//!   step: each lane's low and high halves are carry-less multiplied by
//!   x^(512+32) and x^(512−32) mod P and added to the lane 64 bytes on — a
//!   product by x^n is the CRC of the lane moved n bits further. The four
//!   lanes fold into one (the same step by x^(128±32)), 16-byte pieces fold
//!   into it one at a time, and the last 128 bits are reduced to 64 by x^96
//!   and x^64 mod P and to the 32-bit register by a **Barrett reduction**:
//!   the quotient by P is estimated with μ = ⌊x^64 / P⌋ and two multiplies
//!   take it back out (Gopal et al., *Fast CRC Computation for Generic
//!   Polynomials Using PCLMULQDQ Instruction*, Intel 2009; the constants,
//!   all in the bit-reflected form, are re-derived by a test). The last
//!   `len % 16` bytes go through the portable loop. 5–6 GB/s against
//!   slicing-by-8's 1.0–1.2.
//! - **Slicing-by-8** (everywhere else: other targets, CPUs without the
//!   instructions, short inputs such as WAL records and a snapshot's length
//!   fields). Eight input bytes per step through eight 256-entry tables,
//!   `TABLES[k][b]` being the CRC of byte `b` followed by `k` zero bytes.
//!   The bytewise loop over `TABLES[0]` finishes the last `len % 8` bytes
//!   and is the oracle of the tests.
//!
//! **Dispatch.** The CPU is asked once per process (`pclmulqdq` + `sse4.1`,
//! cached); under Miri run-time detection reports neither, so Miri checks
//! the portable path. The fold is a safe `#[target_feature]` function —
//! loads go through `u64::from_le_bytes`, no pointer is formed — and the
//! one `unsafe` is its call after the check.
//!
//! **Combining.** [`crc32_combine`] gives the CRC of `a ‖ b` from the CRCs
//! of `a` and `b` and the length of `b` alone: `crc(a)` is multiplied by
//! x^(8·|b|) mod P, assembled from a table of x^(2^k) mod P (zlib ≥ 1.2.12's
//! method, O(log |b|) multiplications). It is how a snapshot checksums each
//! byte once: a block's CRC, computed and checked once, enters the segment's
//! and the file's CRC by value (see `snapshot.rs`, "What is hashed, once").

use std::cell::Cell;

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slicing tables, computed at compile time: `TABLES[0]` is the classic
/// byte table, `TABLES[k][b] = (TABLES[k-1][b] >> 8) ^ TABLES[0][TABLES[k-1][b] & 0xFF]`.
/// A `static`, not a `const`: 8 KiB that every use site must address, not
/// copy.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

thread_local! {
    /// Bytes this thread has run through [`update`].
    static HASHED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes the calling thread has checksummed so far — every [`crc32`] and
/// [`Crc32::update`], whichever loop ran them. Bytes entered by value
/// through [`Crc32::combine`] are not read and not counted. How the tests
/// pin that saving, loading and checkpointing a snapshot checksum each of
/// its bytes once.
pub fn bytes_hashed() -> u64 {
    HASHED.with(Cell::get)
}

/// One byte at a time: the tail loop of [`update_sliced`] and the test
/// oracle.
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` (init `!0`, final xor `!0` — the standard presentation).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A running CRC-32: [`Crc32::finish`] is the [`crc32`] of everything
/// passed to [`Crc32::update`] (or entered by [`Crc32::combine`]), in
/// order — how a snapshot streamed block by block gets its trailing
/// checksum without ever being whole in memory.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The CRC of nothing yet.
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Feeds the next bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    /// Feeds the next `len` bytes by their [`crc32`], `crc`, without
    /// reading them: afterwards the state is what [`Crc32::update`] over
    /// those bytes would have left.
    pub fn combine(&mut self, crc: u32, len: u64) {
        self.0 = !crc32_combine(self.finish(), crc, len);
    }

    /// The CRC-32 of every byte fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// Advances the (pre-inversion) register `crc` over `data`: the fold where
/// the CPU has it and the input is long enough, slicing-by-8 otherwise.
#[allow(unsafe_code)]
fn update(crc: u32, data: &[u8]) -> u32 {
    HASHED.with(|h| h.set(h.get() + data.len() as u64));
    #[cfg(target_arch = "x86_64")]
    if data.len() >= fold::MIN_LEN && fold::available() {
        // SAFETY: `fold::available` found `pclmulqdq` and `sse4.1` on this
        // CPU, the only features `fold::update` is compiled for.
        return unsafe { fold::update(crc, data) };
    }
    update_sliced(crc, data)
}

/// The portable loop: slicing-by-8, then bytewise over the last `len % 8`.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][(lo >> 8 & 0xFF) as usize]
            ^ TABLES[5][(lo >> 16 & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][block[4] as usize]
            ^ TABLES[2][block[5] as usize]
            ^ TABLES[1][block[6] as usize]
            ^ TABLES[0][block[7] as usize];
    }
    update_bytewise(crc, blocks.remainder())
}

/// `a · b mod P`, both polynomials in the reflected form the register uses
/// (bit 31 is the coefficient of x^0).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X2N[k]` = x^(2^k) mod P. The order of x modulo P divides 2^32 − 1, so
/// x^(2^(k+32)) = x^(2^k) and 32 entries serve every exponent.
static X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod(p, p);
        k += 1;
    }
    table
};

/// x^(n·2^k) mod P, from the bits of `n`.
fn x_pow_mod(mut n: u64, mut k: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ‖ b`, given `crc_a` = [`crc32`]`(a)`, `crc_b` =
/// [`crc32`]`(b)` and `len_b` = `b.len()`: `crc_a` shifted past `len_b`
/// bytes (multiplied by x^(8·len_b) mod P), plus `crc_b`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    mul_mod(x_pow_mod(len_b, 3), crc_a) ^ crc_b
}

/// The carry-less-multiply fold (see the module docs). Its constants are
/// x^n mod P bit-reflected into 33 bits (`(x^n mod P)' << 1`), and P and μ
/// reflected likewise.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Inputs shorter than this take the portable loop even where the fold
    /// is available: it needs 64 bytes to fill its lanes, and below two
    /// steps its set-up and reduction cost more than the bytes.
    pub(super) const MIN_LEN: usize = 128;

    /// x^(4·128+32) and x^(4·128−32) mod P: a lane's low and high halves
    /// moved 64 bytes on.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32) mod P: the same for 16 bytes.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: the 96- to 64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P itself, and Barrett's μ = ⌊x^64 / P⌋.
    const P: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Does this CPU have what [`update`] is compiled for? Asked once per
    /// process.
    pub(super) fn available() -> bool {
        static CLMUL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *CLMUL.get_or_init(|| {
            is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
        })
    }

    /// The 16 bytes of `bytes[..16]` as one lane, first byte lowest.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(bytes: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        let hi = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// `lane` moved on by the distance whose constants `k` holds (low half
    /// by `k`'s low, high half by its high), added to the lane found there.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advances the register `crc` over `data` (at least 64 bytes). Code
    /// not itself compiled for `pclmulqdq` + `sse4.1` may call it only
    /// after [`available`] said yes.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let mut blocks = data.chunks_exact(64);
        let first = blocks.next().expect("the fold needs 64 bytes");
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let by_64 = _mm_set_epi64x(K2, K1);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, load(&block[16 * i..16 * i + 16]), by_64);
            }
        }
        let by_16 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], by_16);
        x = fold(x, lanes[2], by_16);
        x = fold(x, lanes[3], by_16);
        let mut pieces = blocks.remainder().chunks_exact(16);
        for piece in &mut pieces {
            x = fold(x, load(piece), by_16);
        }
        // 128 → 96 bits: the low half moved on by x^(128−32) …
        x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, by_16), _mm_srli_si128::<8>(x));
        // … 96 → 64: the low 32 bits by x^64 …
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let by_x64 = _mm_set_epi64x(0, K5);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), by_x64),
            _mm_srli_si128::<4>(x),
        );
        // … and Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
        // register is the upper half of R ⊕ T2 (reflected, so "upper").
        let p_mu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        super::update_sliced(crc, pieces.remainder())
    }

    #[cfg(test)]
    pub(super) const CONSTANTS: [(i64, u64); 5] =
        [(K1, 4 * 128 + 32), (K2, 4 * 128 - 32), (K3, 128 + 32), (K4, 128 - 32), (K5, 64)];
    #[cfg(test)]
    pub(super) const P_MU: (i64, i64) = (P, MU);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bytewise(data: &[u8]) -> u32 {
        !update_bytewise(!0, data)
    }

    fn sliced(data: &[u8]) -> u32 {
        !update_sliced(!0, data)
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Miri interprets every step; it gets the same checks on less data.
    const LONGEST: usize = if cfg!(miri) { 200 } else { 1024 };
    const ALIGNMENTS: usize = if cfg!(miri) { 3 } else { 16 };

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Slicing-by-8 and the dispatching [`crc32`] — the fold from 128
    /// bytes up on a CPU that has it — equal the bytewise oracle for every
    /// length 0..=1024 at every start alignment 0..16.
    #[test]
    fn slicing_matches_the_bytewise_loop() {
        let buf = seeded_bytes(0x5EED_C4C3, LONGEST + ALIGNMENTS);
        for start in 0..ALIGNMENTS {
            for len in 0..=LONGEST {
                let data = &buf[start..start + len];
                let want = bytewise(data);
                assert_eq!(sliced(data), want, "sliced: start={start} len={len}");
                assert_eq!(crc32(data), want, "dispatched: start={start} len={len}");
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fold_constants_are_powers_of_x_mod_p() {
        for (k, n) in fold::CONSTANTS {
            assert_eq!(k as u64, u64::from(x_pow_mod(n, 0)) << 1, "x^{n} mod P");
        }
        // P' is the reflected polynomial with its x^32 term; μ' reflects
        // the 33-bit quotient ⌊x^64 / P⌋, computed here by long division in
        // the unreflected form.
        let (p, mu) = fold::P_MU;
        assert_eq!(p as u64, u64::from(POLY) << 1 | 1);
        let unreflected: u128 = 0x1_04C1_1DB7;
        let (mut rem, mut quotient) = (1u128 << 64, 0u128);
        for bit in (0..=32).rev() {
            if rem >> (bit + 32) & 1 != 0 {
                rem ^= unreflected << bit;
                quotient |= 1 << bit;
            }
        }
        let reflected = (0..33).fold(0u64, |acc, i| acc | ((quotient >> i & 1) as u64) << (32 - i));
        assert_eq!(mu as u64, reflected);
    }

    /// A running CRC fed in uneven pieces — single bytes, pieces either side
    /// of the fold's threshold, long runs — equals the one-shot CRC, on a
    /// 1 MiB and a 27 MiB buffer (a SF 0.2 snapshot's size).
    #[test]
    fn a_running_crc_over_any_split_equals_the_whole() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
        for cut in [0, 1, 7, 8, 9, 100, 199, 200] {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finish(), crc32(&data), "cut at {cut}");
        }
        assert_eq!(Crc32::default().finish(), crc32(b""));

        let sizes: &[usize] = if cfg!(miri) { &[4096] } else { &[1 << 20, 27 << 20] };
        let mut rng = SmallRng::seed_from_u64(27);
        for &size in sizes {
            let buf = seeded_bytes(size as u64, size);
            let whole = crc32(&buf);
            assert_eq!(whole, sliced(&buf), "{size} B: the dispatched CRC is the portable one");
            let mut crc = Crc32::new();
            let mut at = 0;
            while at < buf.len() {
                let piece = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..16usize),
                    1 => rng.gen_range(100..200usize),
                    2 => rng.gen_range(0..5000usize),
                    _ => rng.gen_range(0..(1usize << 20)),
                };
                let end = (at + piece).min(buf.len());
                crc.update(&buf[at..end]);
                at = end;
            }
            assert_eq!(crc.finish(), whole, "{size} B in uneven pieces");
        }
    }

    /// `crc32_combine(crc(a), crc(b), |b|) == crc(a ‖ b)` for seeded random
    /// splits of random data, empty pieces included, and for `|b|` up to
    /// 2^26; [`Crc32::combine`] leaves the state `update` would.
    #[test]
    fn combine_joins_the_crcs_of_adjacent_pieces() {
        let mut rng = SmallRng::seed_from_u64(0xC0B1);
        let buf = seeded_bytes(0xC0B1, 5000);
        for _ in 0..if cfg!(miri) { 20 } else { 2000 } {
            let len = rng.gen_range(0..=buf.len());
            let cut = rng.gen_range(0..=len);
            let (a, b) = (&buf[..cut], &buf[cut..len]);
            let joined = crc32_combine(crc32(a), crc32(b), b.len() as u64);
            assert_eq!(joined, crc32(&buf[..len]), "|a| = {cut}, |b| = {}", b.len());
            let mut running = Crc32::new();
            running.update(a);
            running.combine(crc32(b), b.len() as u64);
            assert_eq!(running.finish(), joined);
        }
        assert_eq!(crc32_combine(crc32(b"abc"), crc32(b""), 0), crc32(b"abc"));
        assert_eq!(crc32_combine(crc32(b""), crc32(b"abc"), 3), crc32(b"abc"));
        let top = if cfg!(miri) { 12 } else { 26 };
        let big = seeded_bytes(0xB16B, (1 << top) + 37);
        for shift in [0, 1, 7, 8, 13, 20, top] {
            let b = &big[37..37 + (1usize << shift)];
            let a = &big[..37];
            let whole = crc32(&big[..37 + b.len()]);
            assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), whole, "|b| = 2^{shift}");
        }
    }

    #[test]
    fn bytes_hashed_counts_what_was_read() {
        let xyz = crc32(b"xyz");
        let before = bytes_hashed();
        crc32(&[0u8; 300]);
        let mut crc = Crc32::new();
        crc.update(b"abc");
        crc.combine(xyz, 3);
        assert_eq!(bytes_hashed() - before, 303, "combined bytes are not read");
        assert_eq!(crc.finish(), crc32(b"abcxyz"));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
    }
}
