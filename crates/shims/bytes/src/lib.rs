//! Minimal offline stand-in for the `bytes` crate.
//!
//! Implements only what `astore-storage` uses: an immutable, cheaply
//! clonable byte buffer ([`Bytes`]) and a growable builder ([`BytesMut`])
//! that can be frozen into one. Both deref to `[u8]`.

#![forbid(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable contiguous byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

/// A growable byte buffer that can be frozen into an immutable [`Bytes`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Appends the slice.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_freeze() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"hello ");
        m.extend_from_slice(b"world");
        assert_eq!(m.len(), 11);
        assert!(!m.is_empty());
        let frozen = m.freeze();
        assert_eq!(&frozen[0..5], b"hello");
        let clone = frozen.clone();
        assert_eq!(&*clone, b"hello world");
    }

    #[test]
    fn take_leaves_empty() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abc");
        let taken = std::mem::take(&mut m);
        assert_eq!(taken.len(), 3);
        assert!(m.is_empty());
    }
}
