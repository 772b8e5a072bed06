//! Per-segment column chunks — the unit of copy-on-write ownership and of
//! representation.
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
//! ## One resident representation per chunk
//!
//! A [`Chunk`] is **either** a flat array **or** its encoding
//! ([`crate::encoded`]: frame-of-reference bit-packed words, or runs) —
//! never both. Sealing ([`Chunked::seal_chunk`]) replaces a flat chunk by
//! its encoding when that is strictly smaller; a value write into an
//! encoded chunk decodes *that chunk* into a fresh flat one, which is
//! exactly the copy copy-on-write would have paid for a shared flat chunk.
//! Both transitions install a new `Arc`, so for a **complete** chunk pointer
//! identity ([`Chunked::shares_chunk`]) still tells whether it was written.
//!
//! ## Appends write into reserved space
//!
//! The flat array is an [`AppendBuf`]: fixed capacity, written rows never
//! change, and the next free slot can be written through a shared
//! reference. The buffer does not know how many rows a holder sees — the
//! `Chunked` does (its `len`), and every reader gets the *visible prefix*
//! of the filling tail. [`Chunked::push`] therefore copies nothing while
//! capacity remains: the new image and every snapshot taken before keep
//! sharing the tail allocation, each reading its own prefix of it. The
//! right to write slot `len` is claimed by a compare-exchange from the
//! appender's own `len` ([`AppendBuf::try_push`]), so exactly one lineage
//! extends a buffer; a forked clone, a holder whose clone appended and was
//! discarded, and an append into a full buffer or an encoded tail copy the
//! visible prefix **once** into a buffer of twice the rows (capped at the
//! segment) and go on from there — O(log) copies per segment, not one per
//! append. Overwrites ([`Chunked::set`]) stay copy-on-write: in place only
//! when no snapshot shares the chunk.
//!
//! Readers take a chunk as they find it: [`Chunked::chunk`] hands out a
//! [`ChunkRef`] — the flat slice, the packed words or the runs — which the
//! scan kernels consume directly and row-at-a-time code reads through
//! [`ChunkRef::at`]; [`ChunkRef::decoded`] and [`ChunkCursor`] are the
//! decode-once views for loops that touch most rows of a chunk; and
//! [`Chunked::get`] addresses any row by its table-wide index for the
//! random-access paths (AIR chases into dimension tables).

use std::any::Any;
use std::borrow::Cow;
use std::sync::Arc;

use crate::appendbuf::AppendBuf;
use crate::encoded::{encode_values, ChunkValue, EncodedColumn, PackedInts, RleInts};
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

/// One column's rows of one segment, in its one resident representation.
/// How many of a flat buffer's rows a holder sees is the holder's business
/// ([`Chunked::chunk`] supplies it); an encoding holds exactly the rows it
/// was made from.
#[derive(Debug)]
pub enum Chunk<T> {
    /// The plain array, with whatever space is reserved behind it.
    Flat(AppendBuf<T>),
    /// The compressed form; decodes to the array it replaced, slot for slot.
    Encoded(EncodedColumn),
}

impl<T> Chunk<T> {
    /// The encoding, if the chunk is held encoded.
    pub fn encoding(&self) -> Option<&EncodedColumn> {
        match self {
            Chunk::Flat(_) => None,
            Chunk::Encoded(e) => Some(e),
        }
    }
}

/// A borrowed chunk in whichever representation it is resident: what scans
/// bind once per segment. `Copy`, like the slice it generalises.
#[derive(Debug)]
pub enum ChunkRef<'a, T> {
    /// A flat array.
    Flat(&'a [T]),
    /// Frame-of-reference bit-packed codes.
    Packed(&'a PackedInts),
    /// Run-length encoded values.
    Rle(&'a RleInts),
}

impl<T> Clone for ChunkRef<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ChunkRef<'_, T> {}

impl<'a, T: ChunkValue> ChunkRef<'a, T> {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ChunkRef::Flat(v) => v.len(),
            ChunkRef::Packed(p) => p.len(),
            ChunkRef::Rle(r) => r.len(),
        }
    }

    /// Returns `true` if the chunk holds no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at segment-local offset `off` (a packed chunk extracts one
    /// lane without a division; a run chunk searches its run ends).
    ///
    /// # Panics
    /// Panics if `off` is out of range.
    #[inline]
    pub fn at(&self, off: usize) -> T {
        match self {
            ChunkRef::Flat(v) => v[off],
            ChunkRef::Packed(p) => {
                assert!(off < p.len(), "offset {off} out of range");
                T::from_logical(p.value_at(off))
            }
            ChunkRef::Rle(r) => T::from_logical(r.value_at(off)),
        }
    }

    /// The flat slice, if the chunk is resident flat.
    #[inline]
    pub fn as_flat(&self) -> Option<&'a [T]> {
        match self {
            ChunkRef::Flat(v) => Some(v),
            _ => None,
        }
    }

    /// Appends every row's value to `out`.
    pub fn decode_into(&self, out: &mut Vec<T>) {
        match self {
            ChunkRef::Flat(v) => out.extend_from_slice(v),
            ChunkRef::Packed(p) => p.decode_into(out),
            ChunkRef::Rle(r) => r.decode_into(out),
        }
    }

    /// The decode-once view: the flat slice itself, or an encoded chunk
    /// decoded into a buffer of the caller's — for loops that read most
    /// rows of the chunk and should not pay a lane extraction for each.
    pub fn decoded(&self) -> Cow<'a, [T]> {
        match self.as_flat() {
            Some(flat) => Cow::Borrowed(flat),
            None => {
                let mut out = Vec::new();
                self.decode_into(&mut out);
                Cow::Owned(out)
            }
        }
    }
}

/// Rows a chunk's first buffer has room for; each copy after that doubles
/// it, up to the segment.
const FIRST_CAPACITY: usize = 64;

/// A type-erased hold on one chunk allocation: keeps it alive (so its
/// address cannot be reused) and answers only "is this still the chunk in
/// the slot?" — see [`Chunked::chunk_handle`].
pub type ChunkHandle = Arc<dyn Any + Send + Sync>;

/// A column payload as a sequence of `Arc`-held per-segment chunks. Every
/// chunk but the last holds exactly [`Geometry::rows`] rows; of the last
/// this holder sees `len` minus the rows before it, whatever the buffer
/// under it has taken since.
#[derive(Debug, Clone)]
pub struct Chunked<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    geo: Geometry,
    len: usize,
}

impl<T: ChunkValue> Chunked<T> {
    /// An empty column in the default geometry.
    pub fn new() -> Self {
        Chunked::with_geometry(Geometry::default())
    }

    /// An empty column cut into `geo`-sized chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        Chunked { chunks: Vec::new(), geo, len: 0 }
    }

    /// Cuts a flat array into `geo`-sized (flat) chunks. An array that fits
    /// one chunk is adopted without copying.
    pub fn from_vec(values: Vec<T>, geo: Geometry) -> Self {
        let len = values.len();
        let chunks = if len <= geo.rows() {
            if len == 0 {
                Vec::new()
            } else {
                vec![Arc::new(Chunk::Flat(values.into()))]
            }
        } else {
            values.chunks(geo.rows()).map(|c| Arc::new(Chunk::Flat(c.to_vec().into()))).collect()
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
                let rows: Vec<T> = (start..(start + geo.rows()).min(len)).map(&mut f).collect();
                Arc::new(Chunk::Flat(rows.into()))
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

    /// Rows of segment `seg` this holder sees.
    #[inline]
    fn visible(&self, seg: usize) -> usize {
        if seg + 1 < self.chunks.len() {
            self.geo.rows()
        } else {
            self.len - seg * self.geo.rows()
        }
    }

    /// The rows of segment `seg` as they are resident — what scans bind per
    /// segment. Of a flat filling tail: the prefix this holder sees.
    ///
    /// # Panics
    /// Panics if `seg` is out of range.
    #[inline]
    pub fn chunk(&self, seg: usize) -> ChunkRef<'_, T> {
        match &*self.chunks[seg] {
            Chunk::Flat(buf) => ChunkRef::Flat(buf.prefix(self.visible(seg))),
            Chunk::Encoded(EncodedColumn::Packed(p)) => ChunkRef::Packed(p),
            Chunk::Encoded(EncodedColumn::Rle(r)) => ChunkRef::Rle(r),
        }
    }

    /// The encoding of segment `seg`'s chunk, if it is resident encoded.
    ///
    /// # Panics
    /// Panics if `seg` is out of range.
    pub fn chunk_encoding(&self, seg: usize) -> Option<&EncodedColumn> {
        self.chunks[seg].encoding()
    }

    /// Heap bytes of segment `seg`'s visible rows as `(resident, raw)`: in
    /// the representation they are held in, and flat. Space reserved behind
    /// a flat tail is not counted — untouched, it is address space.
    ///
    /// # Panics
    /// Panics if `seg` is out of range.
    pub fn chunk_bytes(&self, seg: usize) -> (usize, usize) {
        let raw = self.visible(seg) * std::mem::size_of::<T>();
        (self.chunk_encoding(seg).map_or(raw, EncodedColumn::bytes), raw)
    }

    /// Do `self` and `other` hold the *same allocation* for segment `seg`?
    /// (The observable of copy-on-write sharing, for tests and diagnostics.)
    pub fn shares_chunk(&self, other: &Chunked<T>, seg: usize) -> bool {
        match (self.chunks.get(seg), other.chunks.get(seg)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// A hold on the allocation currently in slot `seg`. While it is held
    /// every overwrite of the chunk installs a new allocation (the chunk is
    /// shared), so for a complete chunk [`Chunked::holds`] answering `true`
    /// later proves that nothing wrote to it in between. (Appends extend a
    /// filling tail inside its allocation: there the row count has to be
    /// compared too.)
    pub fn chunk_handle(&self, seg: usize) -> ChunkHandle {
        Arc::clone(&self.chunks[seg]) as ChunkHandle
    }

    /// Is `handle`'s allocation still the one in slot `seg`?
    pub fn holds(&self, seg: usize, handle: &ChunkHandle) -> bool {
        self.chunks.get(seg).is_some_and(|c| std::ptr::addr_eq(Arc::as_ptr(c), Arc::as_ptr(handle)))
    }

    /// The value at table-wide row index `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn get(&self, row: usize) -> T {
        let (seg, off) = self.geo.locate(row);
        self.chunk(seg).at(off)
    }

    /// A reader that keeps the last chunk it touched bound (and decoded) —
    /// for loops that address rows by table-wide index but mostly stay
    /// inside one segment at a time (see [`ChunkCursor`]).
    pub fn cursor(&self) -> ChunkCursor<'_, T> {
        ChunkCursor { col: self, start: 0, flat: Some(&[]), decoded: Vec::new() }
    }

    /// The value at `row`, or `None` past the end.
    #[inline]
    pub fn get_checked(&self, row: usize) -> Option<T> {
        (row < self.len).then(|| self.get(row))
    }

    /// Iterates all values in row order (an encoded chunk is decoded once,
    /// when the iteration reaches it).
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        (0..self.chunks.len()).flat_map(|seg| {
            let (flat, decoded) = match self.chunk(seg).decoded() {
                Cow::Borrowed(flat) => (flat, Vec::new()),
                Cow::Owned(decoded) => (&[][..], decoded),
            };
            flat.iter().copied().chain(decoded)
        })
    }

    /// Copies the column into one flat array.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for seg in 0..self.chunks.len() {
            self.chunk(seg).decode_into(&mut out);
        }
        out
    }

    /// A column of the same shape with `f` applied to every value, built a
    /// chunk at a time; chunks whose source was encoded are sealed again.
    pub fn map<U: ChunkValue>(&self, mut f: impl FnMut(T) -> U) -> Chunked<U> {
        let mut out = Chunked::with_geometry(self.geo);
        for seg in 0..self.chunks.len() {
            out.push_chunk(self.chunk(seg).decoded().iter().map(|&v| f(v)).collect());
            if self.chunk_encoding(seg).is_some() {
                out.seal_chunk(seg);
            }
        }
        out
    }

    /// The capacity a fresh flat buffer holding `rows` rows gets: twice the
    /// rows — the reserved free space appends then fill — and never more
    /// than the segment, so a complete chunk reserves nothing.
    fn capacity_for(&self, rows: usize) -> usize {
        let seg_rows = self.geo.rows();
        (2 * rows).clamp(FIRST_CAPACITY.min(seg_rows), seg_rows)
    }

    /// A private flat copy of segment `seg`'s visible rows (decoded, if the
    /// chunk is encoded) with the usual space reserved behind them, and
    /// room for `at_least` rows.
    fn flat_copy(&self, seg: usize, at_least: usize) -> Arc<Chunk<T>> {
        let mut own = Vec::with_capacity(self.capacity_for(self.visible(seg)).max(at_least));
        self.chunk(seg).decode_into(&mut own);
        Arc::new(Chunk::Flat(own.into()))
    }

    /// Appends `value` as row `rows` of the filling tail in place, if the
    /// tail is flat, this holder is the one lineage entitled to extend it
    /// and reserved space remains (see [`AppendBuf::try_push`]).
    fn push_in_place(&self, rows: usize, value: T) -> bool {
        match self.chunks.last().map(|tail| &**tail) {
            Some(Chunk::Flat(buf)) => buf.try_push(rows, value),
            _ => false,
        }
    }

    /// Appends a value, into the tail's reserved space: nothing is copied
    /// and the tail stays shared with every snapshot holding it. Returns
    /// `true` if that was not possible and the tail was copied first —
    /// another lineage extended the buffer, its space is used up, or the
    /// tail was sealed partial (decoded, then) — into a buffer of twice the
    /// rows.
    pub fn push(&mut self, value: T) -> bool {
        let rows = self.len % self.geo.rows();
        if rows == 0 {
            // A chunk starts; its buffer grows by copying like any other.
            let first = AppendBuf::with_capacity(self.capacity_for(0));
            self.chunks.push(Arc::new(Chunk::Flat(first)));
        }
        let copied = !self.push_in_place(rows, value);
        if copied {
            let tail = self.chunks.len() - 1;
            self.chunks[tail] = self.flat_copy(tail, 0);
            assert!(self.push_in_place(rows, value), "a private buffer with room takes the row");
        }
        self.len += 1;
        copied
    }

    /// Appends one whole flat chunk (the bulk-load path: generators and the
    /// snapshot loader hand over segment-sized arrays without copying).
    ///
    /// # Panics
    /// Panics if the current tail is partial, or the chunk is empty or
    /// longer than a segment.
    pub fn push_chunk(&mut self, chunk: Vec<T>) {
        self.push_slot(chunk.len(), Chunk::Flat(chunk.into()));
    }

    /// Appends one whole chunk that is already encoded — a snapshot block
    /// loaded straight into its slot.
    ///
    /// # Panics
    /// As [`Chunked::push_chunk`].
    pub fn push_encoded(&mut self, chunk: EncodedColumn) {
        self.push_slot(chunk.len(), Chunk::Encoded(chunk));
    }

    fn push_slot(&mut self, rows: usize, chunk: Chunk<T>) {
        assert_eq!(self.len % self.geo.rows(), 0, "cannot append a chunk after a partial tail");
        assert!(rows > 0 && rows <= self.geo.rows(), "chunk size out of range");
        self.len += rows;
        self.chunks.push(Arc::new(chunk));
    }

    /// Overwrites one row. Its chunk is made flat and exclusive first:
    /// decoded if it was encoded, copied if a snapshot shares it (a filling
    /// tail keeps reserved space behind the copy), written in place
    /// otherwise.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    pub fn set(&mut self, row: usize, value: T) {
        assert!(row < self.len, "row {row} out of range");
        let (seg, off) = self.geo.locate(row);
        // Chunks are never downgraded to `Weak`, so a strong count of one
        // means unique; `get_mut` below stays the authority either way.
        if self.chunk_encoding(seg).is_some() || Arc::strong_count(&self.chunks[seg]) > 1 {
            self.chunks[seg] = self.flat_copy(seg, 0);
        }
        match Arc::get_mut(&mut self.chunks[seg]).expect("chunk is uniquely owned after un-sharing")
        {
            Chunk::Flat(buf) => buf.written_mut()[off] = value,
            Chunk::Encoded(_) => unreachable!("an encoded chunk was just decoded"),
        }
    }

    /// Reserves free space behind the filling tail (paper §4.4) so that the
    /// next `additional` appends write in place — capped at the chunk
    /// boundary; later chunks are allocated as they start. Copies the tail
    /// once if it cannot take them as it is (see [`Chunked::push`]).
    pub fn reserve(&mut self, additional: usize) {
        let rows = self.len % self.geo.rows();
        if rows == 0 {
            return;
        }
        let want = (rows + additional).min(self.geo.rows());
        let tail = self.chunks.len() - 1;
        let ready = match &*self.chunks[tail] {
            Chunk::Flat(buf) => buf.len() == rows && buf.capacity() >= want,
            Chunk::Encoded(_) => false,
        };
        if !ready {
            self.chunks[tail] = self.flat_copy(tail, want);
        }
    }

    /// Re-cuts the column into `geo`-sized flat chunks (copies every row; a
    /// no-op when the geometry is unchanged).
    pub fn rechunk(&mut self, geo: Geometry) {
        if geo != self.geo {
            *self = Chunked::from_vec(self.to_vec(), geo);
        }
    }

    /// The encoding of segment `seg`'s chunk if it is resident flat and an
    /// encoding is strictly smaller ([`encode_values`]); the slot is not
    /// touched.
    pub fn encode_chunk(&self, seg: usize) -> Option<EncodedColumn> {
        self.chunk(seg).as_flat().and_then(encode_values)
    }

    /// Replaces segment `seg`'s chunk by `enc` (which must decode to it).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn install_encoded(&mut self, seg: usize, enc: EncodedColumn) {
        assert_eq!(enc.len(), self.visible(seg), "encoding length mismatch");
        self.chunks[seg] = Arc::new(Chunk::Encoded(enc));
    }

    /// Seals segment `seg`'s chunk: a flat chunk is replaced by its
    /// encoding when that is strictly smaller. Returns whether the slot
    /// changed representation.
    pub fn seal_chunk(&mut self, seg: usize) -> bool {
        self.encode_chunk(seg).map(|enc| self.install_encoded(seg, enc)).is_some()
    }

    /// Decodes every encoded chunk into a flat one (the flat oracle of the
    /// differential tests; a write does this to the one chunk it lands in).
    pub fn decode_all(&mut self) {
        for seg in 0..self.chunks.len() {
            if self.chunk_encoding(seg).is_some() {
                self.chunks[seg] = self.flat_copy(seg, 0);
            }
        }
    }
}

impl<T: ChunkValue> Default for Chunked<T> {
    fn default() -> Self {
        Chunked::new()
    }
}

impl<T: ChunkValue> From<Vec<T>> for Chunked<T> {
    /// Cuts a flat array into chunks of the default geometry.
    fn from(values: Vec<T>) -> Self {
        Chunked::from_vec(values, Geometry::default())
    }
}

impl<T: ChunkValue> FromIterator<T> for Chunked<T> {
    /// Collects straight into chunks of the default geometry — no flat
    /// intermediate.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut b = ChunkedBuilder::new();
        b.extend(iter);
        b.finish()
    }
}

/// Value equality (chunk boundaries and representations are not part of a
/// column's value).
impl<T: ChunkValue + PartialEq> PartialEq for Chunked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

/// [`Chunked::get`] with the current chunk held as a slice: a row inside the
/// bound chunk costs a subtraction and an index, and only a row outside it
/// goes back through the geometry. An encoded chunk is decoded into the
/// cursor's own buffer when it is bound, so a gather pays one decode per
/// chunk visit instead of a lane extraction per row. Ascending rows (a
/// gather over a scanned table) rebind once per segment; a column that fits
/// one segment (most dimensions) binds once.
#[derive(Debug)]
pub struct ChunkCursor<'a, T> {
    col: &'a Chunked<T>,
    /// Table-wide index of the bound chunk's first row.
    start: usize,
    /// The bound chunk when it is resident flat; `None` = `decoded` holds it.
    flat: Option<&'a [T]>,
    decoded: Vec<T>,
}

impl<T: ChunkValue> ChunkCursor<'_, T> {
    /// The value at table-wide row index `row`.
    ///
    /// # Panics
    /// Panics if `row` is out of range.
    #[inline]
    pub fn get(&mut self, row: usize) -> T {
        // A row before the bound chunk wraps to a huge offset and misses.
        let bound = self.flat.unwrap_or(&self.decoded);
        if let Some(&v) = bound.get(row.wrapping_sub(self.start)) {
            return v;
        }
        let (seg, off) = self.col.geo.locate(row);
        self.start = row - off;
        let chunk = self.col.chunk(seg);
        self.flat = chunk.as_flat();
        if self.flat.is_none() {
            self.decoded.clear();
            chunk.decode_into(&mut self.decoded);
        }
        self.flat.unwrap_or(&self.decoded)[off]
    }
}

/// Fills a [`Chunked`] column row by row with the cost of a plain `Vec`
/// push: rows accumulate in an un-shared tail and move into an `Arc` only
/// as whole chunks. The bulk-load companion of [`Chunked::push`], which
/// must check for sharing on every call. A [`ChunkedBuilder::sealing`]
/// builder seals each chunk as it completes, so a bulk load never holds
/// more than one chunk of the column flat.
#[derive(Debug)]
pub struct ChunkedBuilder<T> {
    done: Chunked<T>,
    tail: Vec<T>,
    seal: bool,
}

impl<T: ChunkValue> ChunkedBuilder<T> {
    /// A builder in the default geometry.
    pub fn new() -> Self {
        ChunkedBuilder::with_geometry(Geometry::default())
    }

    /// A builder cutting `geo`-sized chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        ChunkedBuilder { done: Chunked::with_geometry(geo), tail: Vec::new(), seal: false }
    }

    /// Seal every chunk the moment it completes (the trailing partial chunk
    /// stays flat: it is the one appends go to). The filling buffer is
    /// reserved at a whole chunk once, here, and reused for every chunk that
    /// encodes — never grown by doubling, so a bulk load leaves no trail of
    /// outgrown buffers behind it.
    pub fn sealing(mut self) -> Self {
        self.seal = true;
        self.tail.reserve_exact(self.done.geo.rows());
        self
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.done.len() + self.tail.len()
    }

    /// Returns `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves the full tail into the column: encoded straight from the
    /// builder's buffer (which is then reused) when sealing finds a smaller
    /// form, handed over as a flat chunk otherwise (a sealing builder then
    /// reserves its next chunk whole).
    fn complete_chunk(&mut self) {
        match self.seal.then(|| encode_values(&self.tail)).flatten() {
            Some(enc) => {
                self.done.push_encoded(enc);
                self.tail.clear();
            }
            None => {
                let next = Vec::with_capacity(if self.seal { self.done.geo.rows() } else { 0 });
                self.done.push_chunk(std::mem::replace(&mut self.tail, next));
            }
        }
    }

    /// Appends a value.
    #[inline]
    pub fn push(&mut self, value: T) {
        self.tail.push(value);
        if self.tail.len() == self.done.geo.rows() {
            self.complete_chunk();
        }
    }

    /// Appends one whole chunk that is already encoded (see
    /// [`Chunked::push_encoded`]).
    ///
    /// # Panics
    /// Panics unless the rows pushed so far end on a chunk boundary.
    pub fn push_encoded(&mut self, chunk: EncodedColumn) {
        assert!(self.tail.is_empty(), "cannot append a chunk after a partial tail");
        self.done.push_encoded(chunk);
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
            self.complete_chunk();
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

impl<T: ChunkValue> Default for ChunkedBuilder<T> {
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
        assert_eq!(c.chunk(1).as_flat(), Some(&[40, 50, 60, 70][..]));
        assert_eq!(c.chunk(2).as_flat(), Some(&[80, 90][..]));
        assert_eq!(c.get(5), 50);
        assert_eq!(c.get_checked(10), None);
        assert_eq!(c.to_vec(), (0..10).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(c.iter().sum::<i32>(), 450);
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

        // The tail came from `from_vec` with no room behind it: the first
        // append copies it (reserving space), the next one writes in place.
        assert!(live.push(10), "no reserved space: the tail is copied");
        assert!(!live.shares_chunk(&snap, 2));
        assert!(live.shares_chunk(&snap, 0));
        assert_eq!(snap.len(), 10);
        let snap = live.clone();
        assert!(!live.push(11), "fills chunk 2 in place");
        assert!(live.shares_chunk(&snap, 2), "an append leaves the tail shared");
        assert_eq!(snap.chunk(2).as_flat(), Some(&[8, 9, 10][..]), "the snapshot keeps its prefix");
        assert_eq!(live.chunk(2).as_flat(), Some(&[8, 9, 10, 11][..]));
        assert!(!live.push(12)); // opens chunk 3: nothing shared to copy
        assert_eq!(live.chunk_count(), 4);
        assert_eq!(live.chunk(3).as_flat(), Some(&[12][..]));
    }

    #[test]
    fn one_lineage_extends_a_tail_and_the_others_copy() {
        let mut a: Chunked<i32> = Chunked::with_geometry(Geometry::new(256));
        a.push(0);
        // A fork: both clones see one row; the first to append wins slot 1.
        let mut b = a.clone();
        assert!(!a.push(1));
        assert!(b.push(-1), "the loser of the exchange copies");
        assert!(!a.shares_chunk(&b, 0));
        assert_eq!((a.to_vec(), b.to_vec()), (vec![0, 1], vec![0, -1]));
        assert!(!b.push(-2), "and extends its own buffer from then on");

        // A discarded batch: the clone appends in place and is dropped; the
        // original must not expose the orphaned rows, and copies once.
        let mut batch = a.clone();
        assert!(!batch.push(7) && !batch.push(8));
        drop(batch);
        assert_eq!(a.to_vec(), [0, 1]);
        assert_eq!(a.chunk(0).len(), 2);
        assert!(a.push(2), "slot 2 was claimed by the discarded clone");
        assert_eq!(a.to_vec(), [0, 1, 2]);

        // Reserved space runs out at powers of two from the first capacity:
        // 1000 appends against held snapshots copy the tail a few times.
        let mut held = Vec::new();
        let mut c: Chunked<i64> = Chunked::with_geometry(Geometry::new(256));
        let copies: usize = (0..1000)
            .map(|i| {
                held.push(c.clone());
                usize::from(c.push(i))
            })
            .sum();
        assert_eq!(copies, 4 * 2, "64 → 128 → 256 rows of room in each of the four segments");
        for (n, snap) in held.iter().enumerate() {
            assert_eq!(snap.len(), n);
            assert!(snap.iter().eq(0..n as i64), "snapshot {n} sees exactly its rows");
        }

        // `reserve` sizes the space up front; a sealed partial tail is
        // decoded by it, and a full tail has nothing to reserve behind.
        let mut r: Chunked<i32> = Chunked::from_vec(vec![5; 300], Geometry::new(256));
        assert!(r.seal_chunk(1));
        r.reserve(10_000);
        assert!(r.chunk(1).as_flat().is_some());
        let snap = r.clone();
        assert!((0..212).all(|i| !r.push(i)), "reserved up to the chunk boundary");
        assert!(r.shares_chunk(&snap, 1) && snap.len() == 300);
        r.reserve(10);
        assert_eq!((r.len(), r.chunk_count()), (512, 2));
    }

    #[test]
    fn from_vec_adopts_a_single_chunk_and_splits_larger_arrays() {
        let one = Chunked::from_vec(vec![1, 2, 3], Geometry::new(8));
        assert_eq!(one.chunk_count(), 1);
        let many = Chunked::from_vec((0..20).collect::<Vec<i32>>(), Geometry::new(8));
        assert_eq!(many.chunk_count(), 3);
        assert_eq!(many.chunk(2).as_flat(), Some(&[16, 17, 18, 19][..]));
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

    /// A column of small values in 8-row chunks, sealed: two encoded chunks
    /// and a partial (still encodable) tail.
    fn sealed() -> Chunked<i32> {
        let mut c = Chunked::from_vec((0..20).map(|i| 100 + i % 3).collect(), Geometry::new(8));
        for seg in 0..3 {
            assert!(c.seal_chunk(seg), "chunk {seg} has a smaller encoding");
        }
        assert!(!c.seal_chunk(0), "sealing an encoded chunk changes nothing");
        c
    }

    #[test]
    fn a_slot_holds_one_representation_and_flips_on_seal_and_write() {
        let flat: Vec<i32> = (0..20).map(|i| 100 + i % 3).collect();
        let mut c = sealed();
        assert!((0..3).all(|seg| c.chunk(seg).as_flat().is_none()));
        assert!(c.chunk_bytes(1).0 < 8 * 4, "the encoding replaced the array");
        // Every reader sees the same values through the encoded form.
        assert_eq!(c.to_vec(), flat);
        assert_eq!(c.iter().collect::<Vec<_>>(), flat);
        assert_eq!((0..20).map(|r| c.get(r)).collect::<Vec<_>>(), flat);
        assert_eq!(c.chunk(2).len(), 4);
        assert_eq!(c.chunk(1).at(3), flat[11]);
        assert_eq!(&*c.chunk(1).decoded(), &flat[8..16]);
        assert_eq!(c, Chunked::from_vec(flat.clone(), Geometry::new(5)), "equality sees values");

        // A write decodes the one chunk it lands in, shared or not.
        let snap = c.clone();
        c.set(9, -7);
        assert_eq!(c.chunk(1).as_flat().map(|v| v[1]), Some(-7));
        assert!(c.chunk(0).as_flat().is_none() && c.chunk(2).as_flat().is_none());
        assert!(!c.shares_chunk(&snap, 1) && c.shares_chunk(&snap, 0));
        assert_eq!(snap.get(9), flat[9], "the snapshot keeps its encoded chunk");
        // An append decodes the sealed partial tail and fills it flat.
        assert!(c.push(5));
        assert_eq!(c.chunk(2).as_flat(), Some(&[flat[16], flat[17], flat[18], flat[19], 5][..]));
        // Re-sealing puts both back.
        assert!(c.seal_chunk(1) && c.seal_chunk(2));
        assert_eq!(c.get(9), -7);
        // decode_all leaves no encoded chunk; map keeps the representation.
        let doubled = c.map(|v| i64::from(v) * 2);
        assert!(doubled.chunk(0).as_flat().is_none());
        assert_eq!(doubled.get(9), -14);
        c.decode_all();
        assert!((0..3).all(|seg| c.chunk(seg).as_flat().is_some()));
        assert_eq!(c.get(20), 5);
    }

    #[test]
    fn a_handle_tells_whether_the_chunk_was_written() {
        let mut c = sealed();
        c.set(0, 100); // chunk 0 flat and uniquely owned: writes go in place
        let (h0, h1) = (c.chunk_handle(0), c.chunk_handle(1));
        assert!(c.holds(0, &h0) && c.holds(1, &h1) && !c.holds(1, &h0));
        // While a handle is held even an in-place-able write replaces the
        // chunk, so the handle notices; an untouched chunk still matches.
        c.set(1, 101);
        assert!(!c.holds(0, &h0), "the held chunk was written");
        assert!(c.holds(1, &h1));
        let enc = c.encode_chunk(0).expect("flat and encodable");
        c.install_encoded(0, enc);
        assert_eq!(c.get(1), 101);
        assert!(c.encode_chunk(0).is_none(), "nothing to encode in an encoded chunk");
        assert!(!c.holds(9, &h1), "out of range is just `false`");
    }

    #[test]
    fn cursor_decodes_an_encoded_chunk_once_per_visit() {
        let c = sealed();
        let mut cur = c.cursor();
        for row in (0..20).chain((0..20).rev()).chain([7, 7, 19, 0, 11]) {
            assert_eq!(cur.get(row), c.get(row), "row {row}");
        }
        // Mixed representations under one cursor.
        let mut mixed = sealed();
        mixed.set(10, 1);
        let mut cur = mixed.cursor();
        assert_eq!((0..20).map(|r| cur.get(r)).collect::<Vec<_>>(), mixed.to_vec());
    }

    #[test]
    fn a_sealing_builder_encodes_each_chunk_as_it_completes() {
        let mut b = ChunkedBuilder::with_geometry(Geometry::new(8)).sealing();
        b.extend((0..20).map(|i| 100 + i % 3));
        let c = b.finish();
        assert!(c.chunk(0).as_flat().is_none() && c.chunk(1).as_flat().is_none());
        assert!(c.chunk(2).as_flat().is_some(), "the trailing partial chunk stays flat");
        assert_eq!(c, sealed());
        // A chunk with no smaller encoding is handed over flat; floats never
        // encode.
        let mut wide = ChunkedBuilder::with_geometry(Geometry::new(2)).sealing();
        wide.extend([0i64, i64::MAX, 0, i64::MAX]);
        assert!(wide.finish().chunk(0).as_flat().is_some());
        let mut floats = ChunkedBuilder::with_geometry(Geometry::new(4)).sealing();
        floats.extend([1.5f64; 8]);
        assert!(floats.finish().chunk(1).as_flat().is_some());
        // An already-encoded chunk can be appended on a chunk boundary.
        let mut b = ChunkedBuilder::with_geometry(Geometry::new(8));
        b.extend(0..8);
        b.push_encoded(encode_values(&[3i32; 8]).unwrap());
        assert_eq!(b.finish().get(12), 3);
    }

    #[test]
    #[should_panic(expected = "partial tail")]
    fn push_chunk_rejects_a_partial_tail() {
        let mut c = Chunked::with_geometry(Geometry::new(4));
        c.push(1);
        c.push_chunk(vec![2, 3]);
    }
}
