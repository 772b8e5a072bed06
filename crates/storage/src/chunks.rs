//! Per-segment column chunks — the unit of copy-on-write ownership.
//!
//! A column's payload is not one flat array but a sequence of *chunks*, one
//! per table segment ([`Geometry::rows`] rows each, the last one partial),
//! each held by an [`Arc`]. Cloning a [`Chunked`] column is therefore one
//! reference-count bump per chunk and copies no row data; a write un-shares
//! (copies) only the chunk it lands in, and only if a snapshot still holds
//! that chunk. This is what bounds the cost of a committed write by the
//! segments it touches instead of by the table's size (see
//! [`crate::snapshot`]).
//!
//! Readers reach the data two ways: [`Chunked::chunk`] hands out one
//! segment's rows as a plain slice — scans bind it once per segment so their
//! inner loops stay `slice[i]` — and [`Chunked::get`] addresses any row by
//! its table-wide index for the random-access paths (AIR chases into
//! dimension tables).

use std::sync::Arc;

use crate::segment::SEGMENT_ROWS;

/// How a table's row space is cut into segments: `rows` per segment, with a
/// shift/mask fast path when `rows` is a power of two (the production
/// default is; tests pick arbitrary sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    rows: usize,
    shift: Option<u32>,
}

impl Geometry {
    /// Segments of `rows` rows.
    ///
    /// # Panics
    /// Panics if `rows` is zero.
    pub fn new(rows: usize) -> Self {
        assert!(rows > 0, "segment size must be positive");
        Geometry { rows, shift: rows.is_power_of_two().then(|| rows.trailing_zeros()) }
    }

    /// Rows per segment.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Splits a table-wide row index into `(segment, offset in segment)`.
    #[inline]
    pub fn locate(&self, row: usize) -> (usize, usize) {
        match self.shift {
            Some(s) => (row >> s, row & (self.rows - 1)),
            None => (row / self.rows, row % self.rows),
        }
    }

    /// The segment holding `row`.
    #[inline]
    pub fn segment_of(&self, row: usize) -> usize {
        self.locate(row).0
    }

    /// Segments needed to hold `len` rows.
    pub fn segments_for(&self, len: usize) -> usize {
        len.div_ceil(self.rows)
    }
}

impl Default for Geometry {
    /// The production geometry: [`SEGMENT_ROWS`] rows per segment.
    fn default() -> Self {
        Geometry::new(SEGMENT_ROWS)
    }
}

/// Exclusive access to a chunk, copying it first if a snapshot shares it.
/// The copy reserves room for `extra` more rows so an append right after
/// does not reallocate what was just copied.
fn unshare<T: Copy>(chunk: &mut Arc<Vec<T>>, extra: usize) -> &mut Vec<T> {
    // Chunks are never downgraded to `Weak`, so a strong count of one means
    // unique; `get_mut` below stays the authority either way.
    if Arc::strong_count(chunk) > 1 {
        let mut own = Vec::with_capacity(chunk.len() + extra);
        own.extend_from_slice(chunk);
        *chunk = Arc::new(own);
    }
    Arc::get_mut(chunk).expect("chunk is uniquely owned after un-sharing")
}

/// Rows of headroom a tail chunk gets when an append has to copy it: enough
/// that the rest of a write batch appends in place, small next to the chunk.
const APPEND_HEADROOM: usize = 64;

/// A column payload as a sequence of `Arc`-held per-segment chunks. Every
/// chunk but the last holds exactly [`Geometry::rows`] rows.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
    geo: Geometry,
    len: usize,
}

impl<T: Copy> Chunked<T> {
    /// An empty column in the default geometry.
    pub fn new() -> Self {
        Chunked::with_geometry(Geometry::default())
    }

    /// An empty column cut into `geo`-sized chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        Chunked { chunks: Vec::new(), geo, len: 0 }
    }

    /// Cuts a flat array into `geo`-sized chunks. An array that fits one
    /// chunk is adopted without copying.
    pub fn from_vec(values: Vec<T>, geo: Geometry) -> Self {
        let len = values.len();
        let chunks = if len <= geo.rows() {
            if len == 0 {
                Vec::new()
            } else {
                vec![Arc::new(values)]
            }
        } else {
            values.chunks(geo.rows()).map(|c| Arc::new(c.to_vec())).collect()
        };
        Chunked { chunks, geo, len }
    }

    /// A column of `len` rows in the default geometry where row `i` is
    /// `f(i)`, built chunk by chunk (each chunk one exact-size collect).
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let geo = Geometry::default();
        let chunks = (0..geo.segments_for(len))
            .map(|seg| {
                let start = seg * geo.rows();
                Arc::new((start..(start + geo.rows()).min(len)).map(&mut f).collect())
            })
            .collect();
        Chunked { chunks, geo, len }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The rows of segment `seg` as a slice — what scans bind per segment.
    ///
    /// # Panics
    /// Panics if `seg` is out of range.
    #[inline]
    pub fn chunk(&self, seg: usize) -> &[T] {
        &self.chunks[seg]
    }

    /// Do `self` and `other` hold the *same allocation* for segment `seg`?
    /// (The observable of copy-on-write sharing, for tests and diagnostics.)
    pub fn shares_chunk(&self, other: &Chunked<T>, seg: usize) -> bool {
        match (self.chunks.get(seg), other.chunks.get(seg)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The value at table-wide row index `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn get(&self, row: usize) -> T {
        let (seg, off) = self.geo.locate(row);
        self.chunks[seg][off]
    }

    /// A reader that keeps the last chunk it touched bound — for loops
    /// that address rows by table-wide index but mostly stay inside one
    /// segment at a time (see [`ChunkCursor`]).
    pub fn cursor(&self) -> ChunkCursor<'_, T> {
        ChunkCursor { col: self, start: 0, chunk: &[] }
    }

    /// The value at `row`, or `None` past the end.
    #[inline]
    pub fn get_checked(&self, row: usize) -> Option<T> {
        (row < self.len).then(|| self.get(row))
    }

    /// Iterates all values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Copies the column into one flat array.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// A column of the same shape with `f` applied to every value.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Chunked<U> {
        Chunked {
            chunks: self
                .chunks
                .iter()
                .map(|c| Arc::new(c.iter().map(|&v| f(v)).collect()))
                .collect(),
            geo: self.geo,
            len: self.len,
        }
    }

    /// Appends a value. Copies the tail chunk first if a snapshot shares it.
    pub fn push(&mut self, value: T) {
        let rows = self.geo.rows();
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < rows => {
                let headroom = APPEND_HEADROOM.min(rows - tail.len());
                unshare(tail, headroom).push(value);
            }
            _ => self.chunks.push(Arc::new(vec![value])),
        }
        self.len += 1;
    }

    /// Appends one whole chunk (the bulk-load path: generators and the
    /// snapshot loader hand over segment-sized arrays without copying).
    ///
    /// # Panics
    /// Panics if the current tail is partial, or the chunk is empty or
    /// longer than a segment.
    pub fn push_chunk(&mut self, chunk: Vec<T>) {
        assert_eq!(self.len % self.geo.rows(), 0, "cannot append a chunk after a partial tail");
        assert!(!chunk.is_empty() && chunk.len() <= self.geo.rows(), "chunk size out of range");
        self.len += chunk.len();
        self.chunks.push(Arc::new(chunk));
    }

    /// Overwrites one row. Copies its chunk first if a snapshot shares it.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn set(&mut self, row: usize, value: T) {
        let (seg, off) = self.geo.locate(row);
        unshare(&mut self.chunks[seg], 0)[off] = value;
    }

    /// Reserves room for `additional` appends in the tail chunk (capped at
    /// the chunk boundary; later chunks are allocated as they start).
    pub fn reserve(&mut self, additional: usize) {
        let rows = self.geo.rows();
        if let Some(tail) = self.chunks.last_mut() {
            let room = rows - tail.len();
            if room > 0 {
                unshare(tail, 0).reserve(additional.min(room));
            }
        }
    }

    /// Re-cuts the column into `geo`-sized chunks (copies every row; a
    /// no-op when the geometry is unchanged).
    pub fn rechunk(&mut self, geo: Geometry) {
        if geo != self.geo {
            *self = Chunked::from_vec(self.to_vec(), geo);
        }
    }
}

impl<T: Copy> Default for Chunked<T> {
    fn default() -> Self {
        Chunked::new()
    }
}

impl<T: Copy> From<Vec<T>> for Chunked<T> {
    /// Cuts a flat array into chunks of the default geometry.
    fn from(values: Vec<T>) -> Self {
        Chunked::from_vec(values, Geometry::default())
    }
}

impl<T: Copy> FromIterator<T> for Chunked<T> {
    /// Collects straight into chunks of the default geometry — no flat
    /// intermediate.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut b = ChunkedBuilder::new();
        b.extend(iter);
        b.finish()
    }
}

impl<T: Copy> std::ops::Index<usize> for Chunked<T> {
    type Output = T;

    #[inline]
    fn index(&self, row: usize) -> &T {
        let (seg, off) = self.geo.locate(row);
        &self.chunks[seg][off]
    }
}

/// Value equality (chunk boundaries are not part of a column's value).
impl<T: Copy + PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// [`Chunked::get`] with the current chunk held as a slice: a row inside the
/// bound chunk costs a subtraction and an index, and only a row outside it
/// goes back through the geometry. Ascending rows (a gather over a scanned
/// table) rebind once per segment; a column that fits one segment (most
/// dimensions) binds once.
#[derive(Debug)]
pub struct ChunkCursor<'a, T> {
    col: &'a Chunked<T>,
    /// Table-wide index of the bound chunk's first row.
    start: usize,
    chunk: &'a [T],
}

impl<T: Copy> ChunkCursor<'_, T> {
    /// The value at table-wide row index `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn get(&mut self, row: usize) -> T {
        // A row before the bound chunk wraps to a huge offset and misses.
        if let Some(&v) = self.chunk.get(row.wrapping_sub(self.start)) {
            return v;
        }
        let (seg, off) = self.col.geo.locate(row);
        self.start = row - off;
        self.chunk = self.col.chunk(seg);
        self.chunk[off]
    }
}

/// Fills a [`Chunked`] column row by row with the cost of a plain `Vec`
/// push: rows accumulate in an un-shared tail and move into an `Arc` only
/// as whole chunks. The bulk-load companion of [`Chunked::push`], which
/// must check for sharing on every call.
#[derive(Debug)]
pub struct ChunkedBuilder<T> {
    done: Chunked<T>,
    tail: Vec<T>,
}

impl<T: Copy> ChunkedBuilder<T> {
    /// A builder in the default geometry.
    pub fn new() -> Self {
        ChunkedBuilder::with_geometry(Geometry::default())
    }

    /// A builder cutting `geo`-sized chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        ChunkedBuilder { done: Chunked::with_geometry(geo), tail: Vec::new() }
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.done.len() + self.tail.len()
    }

    /// Returns `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == self.done.geo.rows() {
            self.done.push_chunk(std::mem::take(&mut self.tail));
        }
    }

    /// Appends values, a chunk's worth per `Vec::extend` so sized iterators
    /// reserve once.
    pub fn extend(&mut self, values: impl IntoIterator<Item = T>) {
        let rows = self.done.geo.rows();
        let mut values = values.into_iter();
        loop {
            self.tail.extend(values.by_ref().take(rows - self.tail.len()));
            if self.tail.len() < rows {
                return;
            }
            self.done.push_chunk(std::mem::take(&mut self.tail));
        }
    }

    /// The finished column.
    pub fn finish(mut self) -> Chunked<T> {
        if !self.tail.is_empty() {
            self.tail.shrink_to_fit();
            self.done.push_chunk(self.tail);
        }
        self.done
    }
}

impl<T: Copy> Default for ChunkedBuilder<T> {
    fn default() -> Self {
        ChunkedBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_locates_rows_with_and_without_the_shift_path() {
        for rows in [1usize, 3, 4, 7, 64, 100] {
            let g = Geometry::new(rows);
            for row in 0..(3 * rows + 2) {
                assert_eq!(g.locate(row), (row / rows, row % rows), "rows={rows} row={row}");
            }
            assert_eq!(g.segments_for(0), 0);
            assert_eq!(g.segments_for(rows), 1);
            assert_eq!(g.segments_for(rows + 1), 2);
        }
    }

    #[test]
    fn cursor_reads_like_get_in_any_order() {
        for seg_rows in [3usize, 4, 64] {
            let c = Chunked::from_vec((0..23i64).map(|i| i * i).collect(), Geometry::new(seg_rows));
            let mut cur = c.cursor();
            // Ascending, backwards across chunk boundaries, and repeated.
            for row in (0..23).chain((0..23).rev()).chain([7, 7, 22, 0, 11]) {
                assert_eq!(cur.get(row), c.get(row), "seg_rows={seg_rows} row={row}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn cursor_panics_past_the_end() {
        let c = Chunked::from_vec(vec![1, 2, 3], Geometry::new(2));
        c.cursor().get(4);
    }

    #[test]
    fn push_get_and_chunk_views() {
        let mut c = Chunked::with_geometry(Geometry::new(4));
        for i in 0..10i32 {
            c.push(i * 10);
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.chunk_count(), 3);
        assert_eq!(c.chunk(1), &[40, 50, 60, 70]);
        assert_eq!(c.chunk(2), &[80, 90]);
        assert_eq!(c.get(5), 50);
        assert_eq!(c[9], 90);
        assert_eq!(c.get_checked(10), None);
        assert_eq!(c.to_vec(), (0..10).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(c.iter().copied().sum::<i32>(), 450);
        assert_eq!(c.map(i64::from).get(3), 30i64);
    }

    #[test]
    fn writes_copy_only_the_touched_chunk() {
        let mut live: Chunked<i64> = Chunked::from_vec((0..10).collect(), Geometry::new(4));
        let snap = live.clone();
        assert!((0..3).all(|s| live.shares_chunk(&snap, s)), "a clone shares every chunk");

        live.set(5, -1);
        assert!(live.shares_chunk(&snap, 0));
        assert!(!live.shares_chunk(&snap, 1), "the written chunk was copied");
        assert!(live.shares_chunk(&snap, 2));
        assert_eq!(snap.get(5), 5, "the snapshot keeps the old value");
        assert_eq!(live.get(5), -1);

        live.push(10);
        assert!(!live.shares_chunk(&snap, 2), "an append copies the shared tail");
        assert!(live.shares_chunk(&snap, 0));
        assert_eq!(snap.len(), 10);
        live.push(11); // fills chunk 2
        live.push(12); // opens chunk 3: nothing shared to copy
        assert_eq!(live.chunk_count(), 4);
        assert_eq!(live.chunk(3), &[12]);
    }

    #[test]
    fn from_vec_adopts_a_single_chunk_and_splits_larger_arrays() {
        let one = Chunked::from_vec(vec![1, 2, 3], Geometry::new(8));
        assert_eq!(one.chunk_count(), 1);
        let many = Chunked::from_vec((0..20).collect::<Vec<i32>>(), Geometry::new(8));
        assert_eq!(many.chunk_count(), 3);
        assert_eq!(many.chunk(2), &[16, 17, 18, 19]);
        assert_eq!(Chunked::<i32>::from_vec(vec![], Geometry::new(8)).chunk_count(), 0);
    }

    #[test]
    fn rechunk_preserves_values() {
        let mut c: Chunked<i32> = Chunked::from_vec((0..11).collect(), Geometry::new(4));
        let before = c.clone();
        c.rechunk(Geometry::new(3));
        assert_eq!(c.chunk_count(), 4);
        assert_eq!(c, before, "equality ignores chunk boundaries");
    }

    #[test]
    fn builder_matches_push() {
        let mut b = ChunkedBuilder::with_geometry(Geometry::new(4));
        let mut p = Chunked::with_geometry(Geometry::new(4));
        for i in 0..9u32 {
            b.push(i);
            p.push(i);
        }
        assert_eq!(b.len(), 9);
        let built = b.finish();
        assert_eq!(built, p);
        assert_eq!(built.chunk_count(), 3);
        let mut e = ChunkedBuilder::with_geometry(Geometry::new(4));
        e.extend(0..3u32);
        e.extend(3..9u32);
        assert_eq!(e.finish(), p);
        let collected: Chunked<u32> = (0..9).collect();
        assert_eq!(collected.to_vec(), p.to_vec());
        assert_eq!(Chunked::from_fn(9, |i| i as u32).to_vec(), p.to_vec());
        assert_eq!(Chunked::from_fn(0, |i| i as u32).chunk_count(), 0);
    }

    #[test]
    #[should_panic(expected = "partial tail")]
    fn push_chunk_rejects_a_partial_tail() {
        let mut c = Chunked::with_geometry(Geometry::new(4));
        c.push(1);
        c.push_chunk(vec![2, 3]);
    }
}
