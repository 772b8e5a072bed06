//! The unified column representation.
//!
//! A table is an *array family*: a set of equal-length arrays, one per
//! column (paper §2). [`Column`] is the sum of the physical array kinds.
//! Every payload is a [`Chunked`] sequence of per-segment chunks (the unit
//! of copy-on-write ownership and of representation, see
//! [`crate::chunks`]): hot paths downcast to the typed payload
//! ([`Column::as_i32`] etc.) and bind one segment's chunk as it is resident
//! — a plain slice, packed words or runs — while generic code uses
//! [`Column::get`].

use crate::chunks::{ChunkHandle, Chunked, Geometry};
use crate::dictionary::DictColumn;
use crate::encoded::{ChunkValue, EncodedColumn};
use crate::strings::StrColumn;
use crate::types::{DataType, Key, Value};

/// One column of an array family.
#[derive(Debug, Clone)]
pub enum Column {
    /// 32-bit integers.
    I32(Chunked<i32>),
    /// 64-bit integers.
    I64(Chunked<i64>),
    /// 64-bit floats.
    F64(Chunked<f64>),
    /// Variable-length strings (slot array + heap).
    Str(StrColumn),
    /// Dictionary-compressed strings.
    Dict(DictColumn),
    /// Array index references into `target` (a foreign key, AIR).
    Key {
        /// Referenced table name.
        target: String,
        /// The reference array.
        keys: Chunked<Key>,
    },
}

/// Runs `$body` with `$v` bound to the column's chunked payload, whatever
/// its element type (string columns: the slot array; dictionary columns:
/// the code array).
macro_rules! payload {
    ($col:expr, $v:ident => $body:expr) => {
        match $col {
            Column::I32($v) => $body,
            Column::I64($v) => $body,
            Column::F64($v) => $body,
            Column::Str(c) => {
                let $v = c.slots();
                $body
            }
            Column::Dict(c) => {
                let $v = c.codes();
                $body
            }
            Column::Key { keys: $v, .. } => $body,
        }
    };
    (mut $col:expr, $v:ident => $body:expr) => {
        match $col {
            Column::I32($v) => $body,
            Column::I64($v) => $body,
            Column::F64($v) => $body,
            Column::Str(c) => {
                let $v = c.slots_mut();
                $body
            }
            Column::Dict(c) => {
                let $v = c.codes_mut();
                $body
            }
            Column::Key { keys: $v, .. } => $body,
        }
    };
}

impl Column {
    /// Creates an empty column of the given type in the default geometry.
    pub fn new(dtype: &DataType) -> Self {
        Column::with_geometry(dtype, Geometry::default())
    }

    /// Creates an empty column of the given type cut into `geo`-sized
    /// chunks.
    pub fn with_geometry(dtype: &DataType, geo: Geometry) -> Self {
        match dtype {
            DataType::I32 => Column::I32(Chunked::with_geometry(geo)),
            DataType::I64 => Column::I64(Chunked::with_geometry(geo)),
            DataType::F64 => Column::F64(Chunked::with_geometry(geo)),
            DataType::Str => Column::Str(StrColumn::with_geometry(geo)),
            DataType::Dict => Column::Dict(DictColumn::with_geometry(geo)),
            DataType::Key { target } => {
                Column::Key { target: target.clone(), keys: Chunked::with_geometry(geo) }
            }
        }
    }

    /// Re-cuts the payload into `geo`-sized chunks (a no-op when the
    /// geometry is unchanged).
    pub fn rechunk(&mut self, geo: Geometry) {
        match self {
            Column::I32(v) => v.rechunk(geo),
            Column::I64(v) => v.rechunk(geo),
            Column::F64(v) => v.rechunk(geo),
            Column::Str(c) => c.rechunk(geo),
            Column::Dict(c) => c.rechunk(geo),
            Column::Key { keys, .. } => keys.rechunk(geo),
        }
    }

    /// The encoding of segment `seg`'s chunk, if it is resident encoded.
    pub fn chunk_encoding(&self, seg: usize) -> Option<&EncodedColumn> {
        payload!(self, v => v.chunk_encoding(seg))
    }

    /// Resident heap bytes of segment `seg`'s visible rows, and the bytes
    /// they would take flat (see [`Chunked::chunk_bytes`]; string heap
    /// payloads excluded from both).
    pub fn chunk_bytes(&self, seg: usize) -> (usize, usize) {
        payload!(self, v => v.chunk_bytes(seg))
    }

    /// A smaller encoding of segment `seg`'s chunk, if the chunk is
    /// resident flat and has one (see [`Chunked::encode_chunk`]).
    pub fn encode_chunk(&self, seg: usize) -> Option<EncodedColumn> {
        payload!(self, v => v.encode_chunk(seg))
    }

    /// Seals segment `seg`'s chunk (see [`Chunked::seal_chunk`]); returns
    /// whether it changed representation.
    pub fn seal_chunk(&mut self, seg: usize) -> bool {
        payload!(mut self, v => v.seal_chunk(seg))
    }

    /// Replaces segment `seg`'s chunk by `enc` (see
    /// [`Chunked::install_encoded`]).
    pub fn install_chunk(&mut self, seg: usize, enc: EncodedColumn) {
        payload!(mut self, v => v.install_encoded(seg, enc))
    }

    /// Decodes every encoded chunk (see [`Chunked::decode_all`]).
    pub fn decode_all(&mut self) {
        payload!(mut self, v => v.decode_all())
    }

    /// A hold on segment `seg`'s chunk allocation (see
    /// [`Chunked::chunk_handle`]).
    pub fn chunk_handle(&self, seg: usize) -> ChunkHandle {
        payload!(self, v => v.chunk_handle(seg))
    }

    /// Is `handle`'s allocation still segment `seg`'s chunk?
    pub fn holds_chunk(&self, seg: usize, handle: &ChunkHandle) -> bool {
        payload!(self, v => v.holds(seg, handle))
    }

    /// Do `self` and `other` hold the same payload allocation for segment
    /// `seg`? (The observable of copy-on-write sharing.)
    pub fn shares_chunk(&self, other: &Column, seg: usize) -> bool {
        match (self, other) {
            (Column::I32(a), Column::I32(b)) => a.shares_chunk(b, seg),
            (Column::I64(a), Column::I64(b)) => a.shares_chunk(b, seg),
            (Column::F64(a), Column::F64(b)) => a.shares_chunk(b, seg),
            (Column::Str(a), Column::Str(b)) => a.slots().shares_chunk(b.slots(), seg),
            (Column::Dict(a), Column::Dict(b)) => a.codes().shares_chunk(b.codes(), seg),
            (Column::Key { keys: a, .. }, Column::Key { keys: b, .. }) => a.shares_chunk(b, seg),
            _ => false,
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            Column::I32(_) => DataType::I32,
            Column::I64(_) => DataType::I64,
            Column::F64(_) => DataType::F64,
            Column::Str(_) => DataType::Str,
            Column::Dict(_) => DataType::Dict,
            Column::Key { target, .. } => DataType::Key { target: target.clone() },
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::I32(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::Str(c) => c.len(),
            Column::Dict(c) => c.len(),
            Column::Key { keys, .. } => keys.len(),
        }
    }

    /// Returns `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Generic scalar access. Not for hot loops.
    pub fn get(&self, row: usize) -> Value {
        match self {
            Column::I32(v) => Value::Int(i64::from(v.get(row))),
            Column::I64(v) => Value::Int(v.get(row)),
            Column::F64(v) => Value::Float(v.get(row)),
            Column::Str(c) => Value::Str(c.get(row).to_owned()),
            Column::Dict(c) => Value::Str(c.get(row).to_owned()),
            Column::Key { keys, .. } => Value::Key(keys.get(row)),
        }
    }

    /// Generic append. The value must match the column type (integers widen
    /// and narrow implicitly). Returns whether the tail chunk had to be
    /// copied to take the row (see [`Chunked::push`]).
    ///
    /// # Panics
    /// Panics on a type mismatch — schema enforcement happens in
    /// [`crate::table::Table::append_row`].
    pub fn push(&mut self, value: &Value) -> bool {
        match (self, value) {
            (Column::I32(v), Value::Int(x)) => {
                v.push(i32::try_from(*x).expect("i32 column overflow"))
            }
            (Column::I64(v), Value::Int(x)) => v.push(*x),
            (Column::F64(v), Value::Float(x)) => v.push(*x),
            (Column::F64(v), Value::Int(x)) => v.push(*x as f64),
            (Column::Str(c), Value::Str(s)) => c.push(s),
            (Column::Dict(c), Value::Str(s)) => c.push(s),
            (Column::Key { keys, .. }, Value::Key(k)) => keys.push(*k),
            (Column::Key { keys, .. }, Value::Int(k)) => {
                keys.push(Key::try_from(*k).expect("key out of range"))
            }
            (col, v) => panic!("type mismatch: cannot push {v:?} into {} column", col.dtype()),
        }
    }

    /// Appends `src[r]` for every `r` of `rows`, reading `src` through
    /// chunk cursors (an encoded chunk is decoded once per visit, not once
    /// per row). String and dictionary values are re-interned into `self`.
    ///
    /// # Panics
    /// Panics if the two columns are of different kinds.
    pub fn extend_from_rows(&mut self, src: &Column, rows: &[usize]) {
        fn copy<T: ChunkValue>(dst: &mut Chunked<T>, src: &Chunked<T>, rows: &[usize]) {
            let mut src = src.cursor();
            rows.iter().for_each(|&r| {
                dst.push(src.get(r));
            });
        }
        match (self, src) {
            (Column::I32(d), Column::I32(s)) => copy(d, s, rows),
            (Column::I64(d), Column::I64(s)) => copy(d, s, rows),
            (Column::F64(d), Column::F64(s)) => copy(d, s, rows),
            (Column::Key { keys: d, .. }, Column::Key { keys: s, .. }) => copy(d, s, rows),
            (Column::Dict(d), Column::Dict(s)) => {
                let mut codes = s.codes().cursor();
                rows.iter().for_each(|&r| {
                    d.push(s.dict().decode(codes.get(r)));
                });
            }
            (Column::Str(d), Column::Str(s)) => rows.iter().for_each(|&r| {
                d.push(s.get(r));
            }),
            (dst, src) => {
                panic!("type mismatch: {} rows into a {} column", src.dtype(), dst.dtype())
            }
        }
    }

    /// Generic in-place overwrite of one row (its chunk is decoded first if
    /// it is encoded, copied first if a snapshot shares it).
    pub fn set(&mut self, row: usize, value: &Value) {
        match (self, value) {
            (Column::I32(v), Value::Int(x)) => {
                v.set(row, i32::try_from(*x).expect("i32 column overflow"))
            }
            (Column::I64(v), Value::Int(x)) => v.set(row, *x),
            (Column::F64(v), Value::Float(x)) => v.set(row, *x),
            (Column::F64(v), Value::Int(x)) => v.set(row, *x as f64),
            (Column::Str(c), Value::Str(s)) => c.update(row, s),
            (Column::Dict(c), Value::Str(s)) => c.update(row, s),
            (Column::Key { keys, .. }, Value::Key(k)) => keys.set(row, *k),
            (Column::Key { keys, .. }, Value::Int(k)) => {
                keys.set(row, Key::try_from(*k).expect("key out of range"))
            }
            (col, v) => panic!("type mismatch: cannot set {v:?} in {} column", col.dtype()),
        }
    }

    /// Typed view: chunked `i32` payload.
    pub fn as_i32(&self) -> Option<&Chunked<i32>> {
        match self {
            Column::I32(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: chunked `i64` payload.
    pub fn as_i64(&self) -> Option<&Chunked<i64>> {
        match self {
            Column::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: chunked `f64` payload.
    pub fn as_f64(&self) -> Option<&Chunked<f64>> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Typed view: string column.
    pub fn as_str_col(&self) -> Option<&StrColumn> {
        match self {
            Column::Str(c) => Some(c),
            _ => None,
        }
    }

    /// Typed view: dictionary column.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Dict(c) => Some(c),
            _ => None,
        }
    }

    /// Typed view: AIR (foreign key) array and its target table.
    pub fn as_key(&self) -> Option<(&str, &Chunked<Key>)> {
        match self {
            Column::Key { target, keys } => Some((target, keys)),
            _ => None,
        }
    }

    /// Numeric read as `f64` (measures in aggregation accept any numeric
    /// column). Returns `None` for non-numeric columns.
    #[inline]
    pub fn numeric_at(&self, row: usize) -> Option<f64> {
        match self {
            Column::I32(v) => Some(f64::from(v.get(row))),
            Column::I64(v) => Some(v.get(row) as f64),
            Column::F64(v) => Some(v.get(row)),
            _ => None,
        }
    }

    /// Integer read as `i64`. Returns `None` for non-integer columns.
    #[inline]
    pub fn int_at(&self, row: usize) -> Option<i64> {
        match self {
            Column::I32(v) => Some(i64::from(v.get(row))),
            Column::I64(v) => Some(v.get(row)),
            Column::Key { keys, .. } => Some(i64::from(keys.get(row))),
            _ => None,
        }
    }

    /// String read (decodes dictionary columns). Returns `None` for
    /// non-string columns.
    #[inline]
    pub fn str_at(&self, row: usize) -> Option<&str> {
        match self {
            Column::Str(c) => Some(c.get(row)),
            Column::Dict(c) => Some(c.get(row)),
            _ => None,
        }
    }

    /// Reserves free space for `additional` more rows behind the tail chunk
    /// (paper §4.4; see [`Chunked::reserve`]).
    pub fn reserve(&mut self, additional: usize) {
        match self {
            Column::I32(v) => v.reserve(additional),
            Column::I64(v) => v.reserve(additional),
            Column::F64(v) => v.reserve(additional),
            Column::Str(c) => c.slots_mut().reserve(additional),
            Column::Dict(c) => c.codes_mut().reserve(additional),
            Column::Key { keys, .. } => keys.reserve(additional),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::NULL_KEY;

    #[test]
    fn new_matches_dtype() {
        for dt in [
            DataType::I32,
            DataType::I64,
            DataType::F64,
            DataType::Str,
            DataType::Dict,
            DataType::Key { target: "t".into() },
        ] {
            let col = Column::new(&dt);
            assert_eq!(col.dtype(), dt);
            assert_eq!(col.len(), 0);
            assert!(col.is_empty());
        }
    }

    #[test]
    fn push_get_each_kind() {
        let mut c = Column::new(&DataType::I32);
        c.push(&Value::Int(42));
        assert_eq!(c.get(0), Value::Int(42));

        let mut c = Column::new(&DataType::F64);
        c.push(&Value::Float(1.5));
        c.push(&Value::Int(2)); // int coerces into float column
        assert_eq!(c.get(1), Value::Float(2.0));

        let mut c = Column::new(&DataType::Str);
        c.push(&Value::Str("hi".into()));
        assert_eq!(c.get(0), Value::Str("hi".into()));

        let mut c = Column::new(&DataType::Dict);
        c.push(&Value::Str("lo".into()));
        assert_eq!(c.get(0), Value::Str("lo".into()));

        let mut c = Column::new(&DataType::Key { target: "d".into() });
        c.push(&Value::Key(9));
        c.push(&Value::Int(3));
        assert_eq!(c.get(0), Value::Key(9));
        assert_eq!(c.get(1), Value::Key(3));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn push_type_mismatch_panics() {
        let mut c = Column::new(&DataType::I32);
        c.push(&Value::Str("no".into()));
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut c = Column::new(&DataType::I64);
        c.push(&Value::Int(1));
        c.set(0, &Value::Int(99));
        assert_eq!(c.get(0), Value::Int(99));

        let mut s = Column::new(&DataType::Str);
        s.push(&Value::Str("a".into()));
        s.set(0, &Value::Str("bb".into()));
        assert_eq!(s.str_at(0), Some("bb"));
    }

    #[test]
    fn typed_views() {
        let mut c = Column::new(&DataType::I32);
        c.push(&Value::Int(1));
        c.push(&Value::Int(2));
        assert_eq!(c.as_i32().map(Chunked::to_vec), Some(vec![1, 2]));
        assert!(c.as_i64().is_none());
        assert!(c.as_f64().is_none());
        assert!(c.as_key().is_none());

        let mut k = Column::new(&DataType::Key { target: "date".into() });
        k.push(&Value::Key(NULL_KEY));
        let (target, keys) = k.as_key().unwrap();
        assert_eq!(target, "date");
        assert_eq!(keys.to_vec(), [NULL_KEY]);
    }

    #[test]
    fn numeric_and_int_accessors() {
        let mut f = Column::new(&DataType::F64);
        f.push(&Value::Float(2.5));
        assert_eq!(f.numeric_at(0), Some(2.5));
        assert_eq!(f.int_at(0), None);

        let mut i = Column::new(&DataType::I32);
        i.push(&Value::Int(-3));
        assert_eq!(i.numeric_at(0), Some(-3.0));
        assert_eq!(i.int_at(0), Some(-3));

        let mut s = Column::new(&DataType::Str);
        s.push(&Value::Str("x".into()));
        assert_eq!(s.numeric_at(0), None);
        assert_eq!(s.str_at(0), Some("x"));
    }
}
