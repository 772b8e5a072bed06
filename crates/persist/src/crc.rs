//! CRC-32 (IEEE 802.3 polynomial, the same one zlib/gzip/PNG use), table
//! driven. Both the snapshot trailer and every WAL record are protected by
//! this checksum; it is what lets recovery distinguish a torn tail from a
//! committed record.
//!
//! Every snapshot byte is hashed two to three times (encoded block, segment,
//! file) on save and again on load, so the hot loop is *slicing-by-8*: eight
//! input bytes per step through eight 256-entry tables, `TABLES[k][b]` being
//! the CRC of byte `b` followed by `k` zero bytes. The bytewise loop over
//! `TABLES[0]` finishes the last `len % 8` bytes and is the oracle of the
//! tests.

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

/// One byte at a time: the tail loop of [`update`] and the test oracle.
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
/// passed to [`Crc32::update`], in order — how a snapshot streamed block by
/// block gets its trailing checksum without ever being whole in memory.
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

/// Advances the (pre-inversion) register `crc` over `data`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn bytewise(data: &[u8]) -> u32 {
        !update_bytewise(!0, data)
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// Sliced == bytewise for every length 0..=70 at every start alignment
    /// 0..=7 of a seeded buffer.
    #[test]
    fn slicing_matches_the_bytewise_loop() {
        let mut state = 0x5EED_C4C3u64;
        let buf: Vec<u8> = (0..96)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=70 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start={start} len={len}");
            }
        }
    }

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
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[3] ^= 0x01;
        assert_ne!(crc32(&a), crc32(&b));
    }
}
