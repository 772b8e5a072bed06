//! Dictionary compression (paper §2).
//!
//! "For columns with low cardinality … A-Store uses dictionary compression
//! to reduce their space consumption. A-Store uses arrays to store
//! dictionaries and uses array indexes as compression codes. … a dictionary
//! can be regarded as a reference table in A-Store. The compressed column
//! can be regarded as a foreign key to the reference table."
//!
//! Dictionaries here are *order-preserving* (codes sorted by value), so
//! range predicates on strings compile to code-range comparisons and
//! equality predicates compile to a single code comparison — no `strcmp` in
//! the scan loop (cf. §4.2's complaint about repeated `strcmp`).
//!
//! ## One build path, exact size
//!
//! Every order-preserving dictionary column is built by a [`DictBuilder`]:
//! each row's value is interned by hash into a first-appearance code as the
//! row arrives — one lookup per row, one allocation per *distinct* value,
//! and the per-row input is neither cloned nor held — and
//! [`DictBuilder::finish`] sorts the distinct values once and remaps the
//! codes to their ranks. The finished dictionary holds each distinct value
//! once in its value array and once as a key of its reverse index, both at
//! exact capacity: a generated dictionary is the size of the same
//! dictionary decoded from a snapshot. [`Dictionary::encode`] and
//! [`DictColumn::from_values`] are thin wrappers over the builder;
//! generators that know their values as codes already push those
//! ([`DictBuilder::intern`] + [`DictBuilder::push_code`]) and never format
//! a string per row.

use std::collections::HashMap;
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::chunks::{Chunked, ChunkedBuilder, Geometry};
use crate::types::{Key, NULL_KEY};

/// An order-preserving string dictionary.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Distinct values, sorted ascending; the code of a value is its index.
    values: Vec<String>,
    /// Reverse map from value to code.
    codes: HashMap<String, Key>,
}

impl Dictionary {
    /// Builds an order-preserving dictionary over the distinct values of
    /// `input`, returning the dictionary and the encoded column (a
    /// [`DictBuilder`] run over `input`).
    pub fn encode<S: AsRef<str>>(input: impl IntoIterator<Item = S>) -> (Self, Vec<Key>) {
        let mut b = DictBuilder::new();
        b.extend(input);
        let (dict, codes) = b.finish_parts();
        (dict, codes.to_vec())
    }

    /// Creates an empty dictionary (values are interned on demand via
    /// [`Dictionary::intern`]; this variant is *not* order-preserving).
    pub fn new_dynamic() -> Self {
        Dictionary::default()
    }

    /// Rebuilds a dictionary from its value array in code order — the exact
    /// inverse of [`Dictionary::values`], so codes assigned before
    /// serialization stay valid after a reload (order-preserving or not).
    ///
    /// # Panics
    /// Panics on duplicate values.
    pub fn from_values(values: Vec<String>) -> Self {
        Dictionary::try_from_values(values).expect("duplicate dictionary value")
    }

    /// [`Dictionary::from_values`], or `None` if a value repeats (one hash
    /// insert per value: the check untrusted input goes through). The value
    /// array is kept at exact capacity.
    pub fn try_from_values(mut values: Vec<String>) -> Option<Self> {
        values.shrink_to_fit();
        let codes: HashMap<String, Key> =
            values.iter().enumerate().map(|(i, v)| (v.clone(), i as Key)).collect();
        (codes.len() == values.len()).then_some(Dictionary { values, codes })
    }

    /// Heap bytes held, by capacity rather than length: the value array,
    /// each value's string, and the reverse index — its table (estimated
    /// from its capacity, one control byte per entry) and its own copy of
    /// each value.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize =
            self.values.iter().chain(self.codes.keys()).map(String::capacity).sum();
        self.values.capacity() * std::mem::size_of::<String>()
            + self.codes.capacity() * (std::mem::size_of::<(String, Key)>() + 1)
            + strings
    }

    /// Number of distinct values.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the dictionary holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Decodes a compression code back to its value: a plain array lookup,
    /// exactly the paper's "decompression can be performed by simple array
    /// lookup".
    #[inline]
    pub fn decode(&self, code: Key) -> &str {
        &self.values[code as usize]
    }

    /// The code of `value`, or [`NULL_KEY`] if the value does not occur.
    /// Predicates on dictionary columns call this once, then compare codes.
    pub fn code_of(&self, value: &str) -> Key {
        self.codes.get(value).copied().unwrap_or(NULL_KEY)
    }

    /// Interns a value into a dynamic dictionary, returning its (possibly
    /// new) code. Appending keeps existing codes stable, at the cost of the
    /// order-preserving property.
    pub fn intern(&mut self, value: &str) -> Key {
        if let Some(&c) = self.codes.get(value) {
            return c;
        }
        let c = self.values.len() as Key;
        self.values.push(value.to_owned());
        self.codes.insert(value.to_owned(), c);
        c
    }

    /// All distinct values in code order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Evaluates an arbitrary string predicate once per *distinct* value,
    /// producing a bitmap over codes. The scan then tests codes against the
    /// bitmap instead of re-evaluating the predicate per row (paper §4.2).
    pub fn codes_matching(&self, mut pred: impl FnMut(&str) -> bool) -> Bitmap {
        Bitmap::from_fn(self.values.len(), |c| pred(&self.values[c]))
    }

    /// For an order-preserving dictionary: the half-open code range whose
    /// values fall in `[lo, hi]` (inclusive string bounds). Range predicates
    /// become two integer comparisons.
    pub fn code_range(&self, lo: &str, hi: &str) -> std::ops::Range<Key> {
        let start = self.values.partition_point(|v| v.as_str() < lo) as Key;
        let end = self.values.partition_point(|v| v.as_str() <= hi) as Key;
        start..end
    }
}

/// A dictionary-compressed string column: the (per-segment chunked) code
/// array plus its dictionary. The dictionary is shared by `Arc` across
/// copy-on-write clones; interning a *new* value while a snapshot is held
/// copies it (dictionaries are small by construction), re-using an existing
/// value copies nothing but the written code chunk.
#[derive(Debug, Clone)]
pub struct DictColumn {
    codes: Chunked<Key>,
    dict: Arc<Dictionary>,
}

/// Builds an order-preserving [`DictColumn`] row by row: the one build
/// path of a dictionary column (see the module docs). Rows are interned by
/// hash into first-appearance codes as they arrive; [`DictBuilder::finish`]
/// remaps them to the sorted-domain codes, so the column is the same
/// whatever order its values first appeared in.
#[derive(Debug)]
pub struct DictBuilder {
    /// The distinct values so far, in first-appearance order.
    seen: Dictionary,
    /// The rows so far, as first-appearance codes.
    codes: ChunkedBuilder<Key>,
}

impl DictBuilder {
    /// A builder in the default geometry.
    pub fn new() -> Self {
        DictBuilder::with_geometry(Geometry::default())
    }

    /// A builder cutting `geo`-sized code chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        DictBuilder { seen: Dictionary::new_dynamic(), codes: ChunkedBuilder::with_geometry(geo) }
    }

    /// Seal each code chunk the moment it completes (see
    /// [`ChunkedBuilder::sealing`]) — for fact-sized columns.
    pub fn sealing(mut self) -> Self {
        self.codes = self.codes.sealing();
        self
    }

    /// The first-appearance code of `value`, interning it if new (one hash
    /// lookup; an allocation only for a value not seen before).
    pub fn intern(&mut self, value: &str) -> Key {
        self.seen.intern(value)
    }

    /// Appends a row by a code [`DictBuilder::intern`] returned — the path
    /// of generators that draw a value once and repeat it over rows.
    ///
    /// # Panics
    /// [`DictBuilder::finish`] panics if `code` was not returned by
    /// [`DictBuilder::intern`].
    pub fn push_code(&mut self, code: Key) {
        self.codes.push(code);
    }

    /// Appends a row.
    pub fn push(&mut self, value: &str) {
        let code = self.intern(value);
        self.push_code(code);
    }

    /// Appends every value of `input`.
    pub fn extend<S: AsRef<str>>(&mut self, input: impl IntoIterator<Item = S>) {
        input.into_iter().for_each(|v| self.push(v.as_ref()));
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` if nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The finished column: codes in sorted-domain order.
    pub fn finish(self) -> DictColumn {
        let (dict, codes) = self.finish_parts();
        DictColumn { codes, dict: Arc::new(dict) }
    }

    /// The order-preserving dictionary and the remapped codes. The values
    /// move (never cloned) into their sorted order; the reverse index keeps
    /// its keys and has its codes rewritten; both end at exact capacity.
    fn finish_parts(self) -> (Dictionary, Chunked<Key>) {
        let Dictionary { values, codes: mut index } = self.seen;
        let mut by_value: Vec<(String, Key)> = values.into_iter().zip(0..).collect();
        by_value.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rank = vec![0 as Key; by_value.len()];
        for (r, &(_, first)) in by_value.iter().enumerate() {
            rank[first as usize] = r as Key;
        }
        let mut values: Vec<String> = by_value.into_iter().map(|(v, _)| v).collect();
        values.shrink_to_fit();
        index.values_mut().for_each(|c| *c = rank[*c as usize]);
        index.shrink_to_fit();
        let codes = self.codes.finish();
        let sorted_already = rank.iter().enumerate().all(|(i, &r)| i as Key == r);
        let codes = if sorted_already { codes } else { codes.map(|c| rank[c as usize]) };
        (Dictionary { values, codes: index }, codes)
    }
}

impl Default for DictBuilder {
    fn default() -> Self {
        DictBuilder::new()
    }
}

impl DictColumn {
    /// Encodes `input` into a new dictionary column (a [`DictBuilder`] run
    /// over `input`).
    pub fn from_values<S: AsRef<str>>(input: impl IntoIterator<Item = S>) -> Self {
        let mut b = DictBuilder::new();
        b.extend(input);
        b.finish()
    }

    /// Creates an empty column with a dynamic dictionary.
    pub fn new() -> Self {
        DictColumn::with_geometry(Geometry::default())
    }

    /// Creates an empty column cut into `geo`-sized code chunks.
    pub fn with_geometry(geo: Geometry) -> Self {
        DictColumn { codes: Chunked::with_geometry(geo), dict: Arc::new(Dictionary::new_dynamic()) }
    }

    /// Assembles a column from an existing code array and dictionary (used
    /// when materializing a denormalized table: the gathered codes reuse the
    /// source dictionary instead of re-encoding every string).
    ///
    /// # Panics
    /// Panics if any code is out of the dictionary's range.
    pub fn from_parts(codes: impl Into<Chunked<Key>>, dict: impl Into<Arc<Dictionary>>) -> Self {
        let (codes, dict) = (codes.into(), dict.into());
        // An encoded chunk answers from its bounds; a flat one is scanned.
        let n = dict.len();
        let in_range = (0..codes.chunk_count()).all(|seg| match codes.chunk_encoding(seg) {
            None => codes.chunk(seg).decoded().iter().all(|&c| (c as usize) < n),
            Some(e) => e.value_bounds().is_none_or(|(lo, hi)| lo >= 0 && hi < n as i64),
        });
        assert!(in_range, "code out of dictionary range");
        DictColumn { codes, dict }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw code array (the "foreign key to the dictionary").
    #[inline]
    pub fn codes(&self) -> &Chunked<Key> {
        &self.codes
    }

    pub(crate) fn codes_mut(&mut self) -> &mut Chunked<Key> {
        &mut self.codes
    }

    /// The dictionary (the "reference table").
    #[inline]
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The shared dictionary handle (a gathered column re-uses it instead
    /// of copying the values).
    pub fn dict_arc(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// Decoded value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> &str {
        self.dict.decode(self.codes.get(row))
    }

    /// Code at `row`.
    #[inline]
    pub fn code(&self, row: usize) -> Key {
        self.codes.get(row)
    }

    /// The code of `value`, interning it if new. Only a new value needs
    /// exclusive access to the dictionary (and so may copy a shared one).
    fn intern(&mut self, value: &str) -> Key {
        match self.dict.code_of(value) {
            NULL_KEY => Arc::make_mut(&mut self.dict).intern(value),
            code => code,
        }
    }

    /// Appends a value, interning it if new. Returns whether the tail code
    /// chunk had to be copied to take it (see [`Chunked::push`]).
    pub fn push(&mut self, value: &str) -> bool {
        let c = self.intern(value);
        self.codes.push(c)
    }

    /// In-place update of one row's value.
    pub fn update(&mut self, row: usize, value: &str) {
        let c = self.intern(value);
        self.codes.set(row, c);
    }

    /// Re-cuts the code array into `geo`-sized chunks.
    pub fn rechunk(&mut self, geo: Geometry) {
        self.codes.rechunk(geo);
    }

    /// Iterates decoded values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.codes.iter().map(move |c| self.dict.decode(c))
    }
}

impl Default for DictColumn {
    fn default() -> Self {
        DictColumn::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let input = ["ASIA", "EUROPE", "ASIA", "AMERICA", "ASIA"];
        let (dict, codes) = Dictionary::encode(input);
        assert_eq!(dict.len(), 3);
        for (i, s) in input.iter().enumerate() {
            assert_eq!(dict.decode(codes[i]), *s);
        }
    }

    #[test]
    fn codes_are_order_preserving() {
        let (dict, _) = Dictionary::encode(["b", "a", "c", "a"]);
        assert_eq!(dict.values(), &["a".to_string(), "b".into(), "c".into()]);
        assert!(dict.code_of("a") < dict.code_of("b"));
        assert!(dict.code_of("b") < dict.code_of("c"));
    }

    #[test]
    fn code_of_missing_is_null_key() {
        let (dict, _) = Dictionary::encode(["x"]);
        assert_eq!(dict.code_of("nope"), NULL_KEY);
    }

    #[test]
    fn code_range_for_string_bounds() {
        let (dict, _) = Dictionary::encode(["MFGR#12", "MFGR#13", "MFGR#21", "MFGR#22", "MFGR#23"]);
        let r = dict.code_range("MFGR#21", "MFGR#22");
        let hits: Vec<&str> = (r.start..r.end).map(|c| dict.decode(c)).collect();
        assert_eq!(hits, vec!["MFGR#21", "MFGR#22"]);
        // Bounds that match nothing produce an empty range.
        let empty = dict.code_range("ZZZ", "ZZZZ");
        assert!(empty.is_empty());
    }

    #[test]
    fn codes_matching_builds_bitmap_over_codes() {
        let (dict, _) = Dictionary::encode(["apple", "banana", "avocado", "cherry"]);
        let bm = dict.codes_matching(|v| v.starts_with('a'));
        let matched: Vec<&str> = bm.iter_ones().map(|c| dict.decode(c as Key)).collect();
        assert_eq!(matched, vec!["apple", "avocado"]);
    }

    #[test]
    fn dynamic_intern_is_stable() {
        let mut dict = Dictionary::new_dynamic();
        let a = dict.intern("first");
        let b = dict.intern("second");
        assert_eq!(dict.intern("first"), a);
        assert_eq!(dict.decode(a), "first");
        assert_eq!(dict.decode(b), "second");
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn from_values_preserves_codes() {
        let mut dyn_dict = Dictionary::new_dynamic();
        dyn_dict.intern("zeta");
        dyn_dict.intern("alpha"); // non-sorted code order
        let rebuilt = Dictionary::from_values(dyn_dict.values().to_vec());
        assert_eq!(rebuilt.code_of("zeta"), dyn_dict.code_of("zeta"));
        assert_eq!(rebuilt.code_of("alpha"), dyn_dict.code_of("alpha"));
        assert_eq!(rebuilt.decode(0), "zeta");
    }

    #[test]
    #[should_panic(expected = "duplicate dictionary value")]
    fn from_values_rejects_duplicates() {
        Dictionary::from_values(vec!["a".into(), "a".into()]);
    }

    #[test]
    fn from_parts_reuses_dictionary() {
        let (dict, codes) = Dictionary::encode(["a", "b", "a"]);
        let col = DictColumn::from_parts(codes, dict);
        assert_eq!(col.get(0), "a");
        assert_eq!(col.get(1), "b");
        assert_eq!(col.get(2), "a");
    }

    #[test]
    #[should_panic(expected = "out of dictionary range")]
    fn from_parts_rejects_bad_codes() {
        let (dict, _) = Dictionary::encode(["a"]);
        DictColumn::from_parts(vec![5], dict);
    }

    /// The encoding the builder replaced, kept as its oracle: sort, dedup,
    /// then binary-search every row.
    fn sorted_encode(input: &[String]) -> (Vec<String>, Vec<Key>) {
        let mut distinct = input.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        let codes = input.iter().map(|v| distinct.binary_search(v).unwrap() as Key).collect();
        (distinct, codes)
    }

    /// A seeded xorshift stream (the storage crate has no `rand`).
    fn stream(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |below| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        }
    }

    #[test]
    fn the_builder_matches_the_sorted_encoding() {
        let mut next = stream(0x9E37_79B9_7F4A_7C15);
        const PIECES: [&str; 8] = ["a", "b", "é", "中", "😀", "Z", " ", "0"];
        let word = |next: &mut dyn FnMut(u64) -> u64| -> String {
            (0..1 + next(4)).map(|_| PIECES[next(8) as usize]).collect()
        };
        let unicode: Vec<String> = (0..500).map(|_| word(&mut next)).collect();
        let domain: Vec<String> = (0..1000).map(|i| format!("v{:04}", (i * 7919) % 1000)).collect();
        let wide: Vec<String> = (0..100_000).map(|_| domain[next(1000) as usize].clone()).collect();
        let cases: [(&str, Vec<String>); 6] = [
            ("empty", vec![]),
            ("one value", vec!["solo".into()]),
            ("all equal", vec!["same".into(); 1000]),
            ("unsorted", ["d", "c", "b", "a", "c", "d"].map(String::from).to_vec()),
            ("non-ASCII", unicode),
            ("10^5 rows", wide),
        ];
        for (name, input) in &cases {
            let (values, codes) = sorted_encode(input);
            let (dict, encoded) = Dictionary::encode(input);
            assert_eq!((dict.values(), &encoded), (&values[..], &codes), "{name}: encode");
            // Built through small sealing chunks, codes interned up front.
            let mut b = DictBuilder::with_geometry(Geometry::new(4096)).sealing();
            for v in input {
                let code = b.intern(v);
                b.push_code(code);
            }
            assert_eq!(b.len(), input.len());
            let col = b.finish();
            assert_eq!(col.dict().values(), &values[..], "{name}: values");
            assert_eq!(col.codes().to_vec(), codes, "{name}: codes");
            for (code, v) in values.iter().enumerate() {
                assert_eq!(col.dict().code_of(v), code as Key, "{name}: reverse index");
            }
            // Exact size: what the dictionary decoded from its values holds.
            let decoded = Dictionary::from_values(values.clone());
            assert_eq!(col.dict().heap_bytes(), decoded.heap_bytes(), "{name}: capacity");
        }
    }

    #[test]
    fn interning_is_a_hash_lookup_not_a_scan() {
        // 40 000 rows over 1 000 values: the first-appearance linear probe
        // the generators once ran compares ~500 strings a row.
        let domain: Vec<String> = (0..1000).map(|i| format!("value-{i:04}")).collect();
        let mut next = stream(42);
        let rows: Vec<&str> = (0..40_000).map(|_| domain[next(1000) as usize].as_str()).collect();
        let fastest = |f: &mut dyn FnMut()| {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .unwrap()
        };
        let hashed = fastest(&mut || {
            let mut b = DictBuilder::new();
            rows.iter().for_each(|r| b.push(r));
            std::hint::black_box(b.finish());
        });
        let probed = fastest(&mut || {
            let mut seen: Vec<&str> = Vec::new();
            let codes: Vec<usize> = (rows.iter())
                .map(|r| {
                    seen.iter().position(|s| s == r).unwrap_or_else(|| {
                        seen.push(r);
                        seen.len() - 1
                    })
                })
                .collect();
            std::hint::black_box(codes);
        });
        assert!(hashed * 4 < probed, "builder {hashed:?} vs linear probe {probed:?}");
    }

    #[test]
    fn dict_column_roundtrip_and_update() {
        let mut col = DictColumn::from_values(["red", "green", "red"]);
        assert_eq!(col.get(0), "red");
        assert_eq!(col.get(1), "green");
        assert_eq!(col.code(0), col.code(2));
        col.update(1, "blue");
        assert_eq!(col.get(1), "blue");
        col.push("red");
        assert_eq!(col.len(), 4);
        assert_eq!(col.get(3), "red");
        let vals: Vec<&str> = col.iter().collect();
        assert_eq!(vals, vec!["red", "blue", "red", "red"]);
    }
}
