//! Little-endian byte encoding helpers shared by the snapshot format and
//! the WAL: an append-only encoder over `Vec<u8>`, and the [`Input`] trait
//! of bounds-checked decoders that never panic on truncated or corrupt
//! input — a [`Cursor`] over bytes in memory, or the snapshot's streaming
//! file source.

use crate::PersistError;

/// A bounds-checked little-endian reader. Every read that would run past
/// the end is a [`PersistError::Corrupt`], raised *before* anything sized
/// by the requested length is allocated — a length field is untrusted
/// until the bytes it claims are known to exist.
pub trait Input {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads the next `n` raw bytes.
    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], PersistError>;

    /// Reads a little-endian `u32`.
    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string in place.
    fn str_ref(&mut self, what: &str) -> Result<&str, PersistError> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|_| PersistError::Corrupt(format!("{what}: invalid UTF-8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    fn str(&mut self, what: &str) -> Result<String, PersistError> {
        self.str_ref(what).map(str::to_owned)
    }
}

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reading cursor over a byte slice. Every read returns
/// [`PersistError::Corrupt`] instead of panicking when the input is short —
/// corrupt files must yield errors, never crashes.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current absolute read offset (for slicing out framed sub-regions).
    pub fn position(&self) -> usize {
        self.pos
    }

    fn corrupt(&self, what: &str) -> PersistError {
        PersistError::Corrupt(format!("truncated {what} at byte {}", self.pos))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.corrupt(what));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

impl Input for Cursor<'_> {
    fn remaining(&self) -> usize {
        Cursor::remaining(self)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], PersistError> {
        self.bytes(n, what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32("a").unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(c.str("c").unwrap(), "héllo");
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "abcdef");
        for cut in 0..buf.len() {
            let mut c = Cursor::new(&buf[..cut]);
            assert!(c.str("s").is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn bad_utf8_is_an_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert!(Cursor::new(&buf).str("s").is_err());
    }
}
