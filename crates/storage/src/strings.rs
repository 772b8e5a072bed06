//! Variable-length string storage (paper §2).
//!
//! "As to a column of variable length, e.g., varchar, we do not store the
//! contents of the column in its array directly. Instead, we store its
//! contents in a dynamically allocated memory space and keep their addresses
//! in the array." The fixed-width slot array keeps tuples addressable by
//! position while the bytes live in an append-only heap, which is also what
//! makes *in-place update* (§4.4) possible: an update appends new bytes and
//! swaps the slot reference without touching neighbouring tuples.
//!
//! Under copy-on-write (see [`crate::chunks`]) the slot array is chunked per
//! segment like every other column, and the heap is shared by `Arc`: a
//! string write while a snapshot is held copies one slot chunk plus the
//! heap's *active* slab (at most 1 MiB) — frozen slabs are immutable and
//! only ever reference-counted.

use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::chunks::{Chunked, Geometry};

/// A fixed-width reference into a [`StrHeap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrRef {
    /// Byte offset of the string in the heap.
    pub offset: u32,
    /// Byte length of the string.
    pub len: u32,
}

impl StrRef {
    /// The reference used for never-written slots.
    pub const EMPTY: StrRef = StrRef { offset: 0, len: 0 };
}

/// Append-only UTF-8 byte heap. Frozen slabs are immutable [`Bytes`]; the
/// active slab is a [`BytesMut`] that is frozen once full.
#[derive(Debug, Clone, Default)]
pub struct StrHeap {
    frozen: Vec<Bytes>,
    active: BytesMut,
    /// Cumulative byte length of the frozen slabs, so offsets stay global.
    frozen_len: usize,
}

/// Bytes per slab before freezing. Small enough to bound copy amplification,
/// big enough that slab chasing is rare.
const SLAB_BYTES: usize = 1 << 20;

impl StrHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        StrHeap::default()
    }

    /// Appends a string and returns its reference.
    pub fn push(&mut self, s: &str) -> StrRef {
        assert!(s.len() <= u32::MAX as usize, "string too long");
        if self.active.len() + s.len() > SLAB_BYTES && !self.active.is_empty() {
            let full = std::mem::take(&mut self.active).freeze();
            self.frozen_len += full.len();
            self.frozen.push(full);
        }
        let offset = (self.frozen_len + self.active.len()) as u32;
        self.active.extend_from_slice(s.as_bytes());
        StrRef { offset, len: s.len() as u32 }
    }

    /// Resolves a reference to its string slice.
    pub fn get(&self, r: StrRef) -> &str {
        let start = r.offset as usize;
        let end = start + r.len as usize;
        // Locate the slab holding the range. References never straddle slabs
        // because a slab is frozen before an append would overflow it.
        let mut base = 0usize;
        for slab in &self.frozen {
            if end <= base + slab.len() {
                return std::str::from_utf8(&slab[start - base..end - base])
                    .expect("heap holds valid UTF-8");
            }
            base += slab.len();
        }
        std::str::from_utf8(&self.active[start - base..end - base]).expect("heap holds valid UTF-8")
    }

    /// Total stored bytes (including dead strings superseded by updates).
    pub fn size_bytes(&self) -> usize {
        self.frozen_len + self.active.len()
    }

    /// Heap bytes held, by capacity: the frozen slabs (exact) and the
    /// active slab with its unused room.
    pub fn capacity_bytes(&self) -> usize {
        self.frozen_len + self.active.capacity()
    }
}

/// A string column: an aligned (per-segment chunked) array of fixed-width
/// [`StrRef`] slots plus the shared heap.
#[derive(Debug, Clone, Default)]
pub struct StrColumn {
    slots: Chunked<StrRef>,
    heap: Arc<StrHeap>,
}

/// One segment of a [`StrColumn`]: its slot chunk plus the heap the slots
/// point into. Indexed by segment-local offset.
#[derive(Debug, Clone, Copy)]
pub struct StrChunk<'a> {
    slots: &'a [StrRef],
    heap: &'a StrHeap,
}

impl<'a> StrChunk<'a> {
    /// Reads the value at segment-local offset `off`.
    #[inline]
    pub fn get(&self, off: usize) -> &'a str {
        self.heap.get(self.slots[off])
    }
}

impl StrColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        StrColumn::default()
    }

    /// Creates an empty column cut into `geo`-sized slot chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        StrColumn { slots: Chunked::with_geometry(geo), heap: Arc::default() }
    }

    /// Creates a column from an iterator of strings.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<S: AsRef<str>>(values: impl IntoIterator<Item = S>) -> Self {
        let mut col = StrColumn::new();
        for v in values {
            col.push(v.as_ref());
        }
        col
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the column has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Appends a value. Returns whether the tail slot chunk had to be
    /// copied to take it (see [`Chunked::push`]).
    pub fn push(&mut self, s: &str) -> bool {
        let r = Arc::make_mut(&mut self.heap).push(s);
        self.slots.push(r)
    }

    /// Reads the value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> &str {
        self.heap.get(self.slots.get(row))
    }

    /// The slots of segment `seg` bound to the heap.
    #[inline]
    pub fn chunk(&self, seg: usize) -> StrChunk<'_> {
        let slots = self.slots.chunk(seg).as_flat().expect("string slots are never encoded");
        StrChunk { slots, heap: &self.heap }
    }

    /// The slot array (chunk-sharing diagnostics; values go through
    /// [`StrColumn::get`]).
    pub fn slots(&self) -> &Chunked<StrRef> {
        &self.slots
    }

    pub(crate) fn slots_mut(&mut self) -> &mut Chunked<StrRef> {
        &mut self.slots
    }

    /// In-place update (§4.4): the new bytes go to the heap; only this slot's
    /// reference changes, so inbound AIR references remain valid.
    pub fn update(&mut self, row: usize, s: &str) {
        let r = Arc::make_mut(&mut self.heap).push(s);
        self.slots.set(row, r);
    }

    /// Re-cuts the slot array into `geo`-sized chunks.
    pub fn rechunk(&mut self, geo: Geometry) {
        self.slots.rechunk(geo);
    }

    /// Heap bytes in use (live + superseded).
    pub fn heap_bytes(&self) -> usize {
        self.heap.size_bytes()
    }

    /// Heap bytes held, by capacity (see [`StrHeap::capacity_bytes`]).
    pub fn heap_capacity_bytes(&self) -> usize {
        self.heap.capacity_bytes()
    }

    /// Iterates over all values in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.slots.iter().map(move |r| self.heap.get(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut col = StrColumn::new();
        for s in ["ASIA", "EUROPE", ""] {
            col.push(s);
        }
        assert_eq!(col.get(0), "ASIA");
        assert_eq!(col.get(1), "EUROPE");
        assert_eq!(col.get(2), "");
        assert_eq!(col.len(), 3);
    }

    #[test]
    fn from_iter_preserves_order() {
        let col = StrColumn::from_iter(["x", "y", "z"]);
        let vals: Vec<&str> = col.iter().collect();
        assert_eq!(vals, vec!["x", "y", "z"]);
    }

    #[test]
    fn in_place_update_changes_only_target_slot() {
        let mut col = StrColumn::from_iter(["one", "two", "three"]);
        col.update(1, "a much longer replacement value");
        assert_eq!(col.get(0), "one");
        assert_eq!(col.get(1), "a much longer replacement value");
        assert_eq!(col.get(2), "three");
    }

    #[test]
    fn update_can_shrink_and_grow() {
        let mut col = StrColumn::from_iter(["abcdef"]);
        col.update(0, "x");
        assert_eq!(col.get(0), "x");
        col.update(0, "xxxxxxxxxxxxxxxx");
        assert_eq!(col.get(0), "xxxxxxxxxxxxxxxx");
    }

    #[test]
    fn slab_rollover_keeps_offsets_global() {
        let mut col = StrColumn::new();
        let big = "b".repeat(300_000);
        // 8 * 300 KB crosses the 1 MiB slab boundary more than once.
        for _ in 0..8 {
            col.push(&big);
        }
        col.push("tail");
        for i in 0..8 {
            assert_eq!(col.get(i).len(), 300_000);
        }
        assert_eq!(col.get(8), "tail");
        assert!(col.heap_bytes() >= 2_400_004);
    }

    #[test]
    fn unicode_content() {
        let mut col = StrColumn::new();
        col.push("héllo wörld");
        col.push("中国");
        assert_eq!(col.get(0), "héllo wörld");
        assert_eq!(col.get(1), "中国");
    }
}
