//! Array-based column-wise aggregation (paper §4.3).
//!
//! "A-Store … chooses to use a multidimensional array instead of a hash
//! table to collect aggregation results. … Each element of the
//! multidimensional array corresponds to a group. … the array index of each
//! tuple's group will be identified and stored in a Measure Index. … As the
//! addressing mechanism of arrays is faster than that of hash tables, our
//! array based aggregation can outperform hash based aggregation
//! remarkably."
//!
//! When "the resulting aggregation array can be too sparse", the same
//! Measure-Index machinery runs against a hash table instead
//! ([`Grouper::Hash`]); the optimizer makes that call (§4.3, last
//! paragraph).

use std::collections::HashMap;

use astore_storage::types::{Key, RowId, NULL_KEY};

use crate::query::AggFunc;

/// Sentinel cell id for tuples that failed grouping (the paper's −1 in the
/// Measure Index).
pub const NO_CELL: i64 = -1;

/// Maps per-dimension group codes to a flat cell id.
#[derive(Debug)]
pub enum Grouper {
    /// No GROUP BY: a single cell.
    Scalar,
    /// The dense multidimensional aggregation array: cell = mixed-radix
    /// flattening of the group coordinates, one radix per grouping column
    /// (= its group dictionary size).
    Dense {
        /// Per-dimension radices.
        radices: Vec<u32>,
        /// Product of radices.
        n_cells: usize,
    },
    /// Sparse fallback: group coordinates (≤ 4 dimensions, 32 bits each)
    /// packed into a `u128` hash key.
    Hash {
        /// Packed-coordinates -> cell id.
        map: HashMap<u128, u32>,
        /// Reverse map: cell id -> packed coordinates.
        keys: Vec<u128>,
        /// Number of grouping dimensions.
        dims: usize,
    },
    /// Sparse fallback for more than 4 grouping dimensions.
    HashWide {
        /// Coordinates -> cell id.
        map: HashMap<Vec<Key>, u32>,
        /// Reverse map.
        keys: Vec<Vec<Key>>,
    },
}

impl Grouper {
    /// Builds the dense array grouper.
    ///
    /// # Panics
    /// Panics if the radix product overflows `usize` (the optimizer must
    /// prevent this by falling back to hashing).
    pub fn dense(radices: Vec<u32>) -> Self {
        let n_cells = radices
            .iter()
            .try_fold(1usize, |acc, &r| acc.checked_mul(r as usize))
            .expect("aggregation array too large; use hash fallback");
        Grouper::Dense { radices, n_cells }
    }

    /// Builds the hash fallback for `dims` grouping columns.
    pub fn hash(dims: usize) -> Self {
        if dims <= 4 {
            Grouper::Hash { map: HashMap::new(), keys: Vec::new(), dims }
        } else {
            Grouper::HashWide { map: HashMap::new(), keys: Vec::new() }
        }
    }

    /// Resolves the cell id for group coordinates, allocating it if the
    /// grouper is sparse. Coordinates must already be valid (no
    /// [`astore_storage::types::NULL_KEY`]).
    #[inline]
    pub fn cell(&mut self, coords: &[Key]) -> u32 {
        match self {
            Grouper::Scalar => 0,
            Grouper::Dense { radices, .. } => {
                debug_assert_eq!(coords.len(), radices.len());
                let mut cell = 0usize;
                for (&c, &r) in coords.iter().zip(radices.iter()) {
                    debug_assert!(c < r, "group code {c} out of radix {r}");
                    cell = cell * r as usize + c as usize;
                }
                cell as u32
            }
            Grouper::Hash { map, keys, dims } => {
                debug_assert_eq!(coords.len(), *dims);
                let mut packed = 0u128;
                for &c in coords {
                    packed = (packed << 32) | u128::from(c);
                }
                *map.entry(packed).or_insert_with(|| {
                    keys.push(packed);
                    (keys.len() - 1) as u32
                })
            }
            Grouper::HashWide { map, keys } => {
                if let Some(&c) = map.get(coords) {
                    return c;
                }
                let id = keys.len() as u32;
                keys.push(coords.to_vec());
                map.insert(coords.to_vec(), id);
                id
            }
        }
    }

    /// Current number of addressable cells.
    pub fn num_cells(&self) -> usize {
        match self {
            Grouper::Scalar => 1,
            Grouper::Dense { n_cells, .. } => *n_cells,
            Grouper::Hash { keys, .. } => keys.len(),
            Grouper::HashWide { keys, .. } => keys.len(),
        }
    }

    /// Recovers the group coordinates of a cell (for result emission).
    pub fn coords_of(&self, cell: u32) -> Vec<Key> {
        match self {
            Grouper::Scalar => Vec::new(),
            Grouper::Dense { radices, .. } => {
                let mut cell = cell as usize;
                let mut coords = vec![0 as Key; radices.len()];
                for (i, &r) in radices.iter().enumerate().rev() {
                    coords[i] = (cell % r as usize) as Key;
                    cell /= r as usize;
                }
                coords
            }
            Grouper::Hash { keys, dims, .. } => {
                let mut packed = keys[cell as usize];
                let mut coords = vec![0 as Key; *dims];
                for i in (0..*dims).rev() {
                    coords[i] = (packed & 0xFFFF_FFFF) as Key;
                    packed >>= 32;
                }
                coords
            }
            Grouper::HashWide { keys, .. } => keys[cell as usize].clone(),
        }
    }

    /// Returns `true` for the dense-array strategy.
    pub fn is_dense(&self) -> bool {
        matches!(self, Grouper::Dense { .. } | Grouper::Scalar)
    }

    /// Do both groupers give every coordinate tuple the same cell id,
    /// whatever was registered so far? True for two scalar groupers and for
    /// dense arrays of identical radices; sparse groupers number their
    /// cells in first-appearance order, which differs between scans.
    fn same_cell_ids(&self, other: &Grouper) -> bool {
        match (self, other) {
            (Grouper::Scalar, Grouper::Scalar) => true,
            (Grouper::Dense { radices: a, .. }, Grouper::Dense { radices: b, .. }) => a == b,
            _ => false,
        }
    }
}

/// The accumulator state of one aggregate across all cells.
#[derive(Debug, Clone)]
pub struct AggState {
    /// The aggregate function.
    pub func: AggFunc,
    /// Sum / min / max storage.
    sum: Vec<f64>,
    /// Count storage (COUNT and AVG).
    count: Vec<u64>,
}

impl AggState {
    /// Creates the state, pre-sized to `cells` (for dense groupers; hash
    /// groupers grow on demand).
    pub fn new(func: AggFunc, cells: usize) -> Self {
        let init = Self::init_value(func);
        AggState { func, sum: vec![init; cells], count: vec![0; cells] }
    }

    fn init_value(func: AggFunc) -> f64 {
        match func {
            AggFunc::Min => f64::INFINITY,
            AggFunc::Max => f64::NEG_INFINITY,
            _ => 0.0,
        }
    }

    /// Grows to cover `cells` cells.
    pub fn ensure(&mut self, cells: usize) {
        if self.sum.len() < cells {
            self.sum.resize(cells, Self::init_value(self.func));
            self.count.resize(cells, 0);
        }
    }

    /// Folds one measure value into a cell.
    #[inline]
    pub fn update(&mut self, cell: u32, v: f64) {
        let c = cell as usize;
        match self.func {
            AggFunc::Sum => self.sum[c] += v,
            AggFunc::Count => self.count[c] += 1,
            AggFunc::Min => {
                if v < self.sum[c] {
                    self.sum[c] = v;
                }
            }
            AggFunc::Max => {
                if v > self.sum[c] {
                    self.sum[c] = v;
                }
            }
            AggFunc::Avg => {
                self.sum[c] += v;
                self.count[c] += 1;
            }
        }
    }

    /// Folds one measure value per Measure-Index entry, in order:
    /// `value(i)` goes to `cells[i]`. The column-wise form of
    /// [`AggState::update`] — the aggregate function is dispatched once,
    /// not per tuple.
    pub fn fold(&mut self, cells: &[u32], mut value: impl FnMut(usize) -> f64) {
        let (sum, count) = (&mut self.sum, &mut self.count);
        match self.func {
            AggFunc::Sum => {
                for (i, &c) in cells.iter().enumerate() {
                    sum[c as usize] += value(i);
                }
            }
            AggFunc::Count => {
                for &c in cells {
                    count[c as usize] += 1;
                }
            }
            AggFunc::Min => {
                for (i, &c) in cells.iter().enumerate() {
                    let v = value(i);
                    if v < sum[c as usize] {
                        sum[c as usize] = v;
                    }
                }
            }
            AggFunc::Max => {
                for (i, &c) in cells.iter().enumerate() {
                    let v = value(i);
                    if v > sum[c as usize] {
                        sum[c as usize] = v;
                    }
                }
            }
            AggFunc::Avg => {
                for (i, &c) in cells.iter().enumerate() {
                    sum[c as usize] += value(i);
                    count[c as usize] += 1;
                }
            }
        }
    }

    /// The raw accumulator pair of a cell.
    pub fn acc(&self, cell: u32) -> (f64, u64) {
        (self.sum[cell as usize], self.count[cell as usize])
    }

    /// Overwrites the accumulator pair of a cell (the first partial result
    /// to reach it).
    fn set_acc(&mut self, cell: u32, acc: (f64, u64)) {
        self.sum[cell as usize] = acc.0;
        self.count[cell as usize] = acc.1;
    }

    /// Merges another accumulator pair into a cell (parallel merge path).
    pub fn merge_acc(&mut self, cell: u32, acc: (f64, u64)) {
        let c = cell as usize;
        match self.func {
            AggFunc::Sum => self.sum[c] += acc.0,
            AggFunc::Count => self.count[c] += acc.1,
            AggFunc::Min => {
                if acc.0 < self.sum[c] {
                    self.sum[c] = acc.0;
                }
            }
            AggFunc::Max => {
                if acc.0 > self.sum[c] {
                    self.sum[c] = acc.0;
                }
            }
            AggFunc::Avg => {
                self.sum[c] += acc.0;
                self.count[c] += acc.1;
            }
        }
    }

    /// The final output value of a cell.
    pub fn value(&self, cell: u32) -> f64 {
        let c = cell as usize;
        match self.func {
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => self.sum[c],
            AggFunc::Count => self.count[c] as f64,
            AggFunc::Avg => {
                if self.count[c] == 0 {
                    f64::NAN
                } else {
                    self.sum[c] / self.count[c] as f64
                }
            }
        }
    }
}

/// The aggregation table: a grouper plus one [`AggState`] per output
/// aggregate plus per-cell hit counts (to emit only non-empty cells of a
/// dense array).
#[derive(Debug)]
pub struct AggTable {
    /// Cell addressing.
    pub grouper: Grouper,
    /// One state per aggregate.
    pub states: Vec<AggState>,
    hits: Vec<u64>,
}

/// One emitted group: its coordinates and per-aggregate accumulators.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupCell {
    /// Group coordinates (one per grouping column).
    pub coords: Vec<Key>,
    /// Raw `(sum, count)` accumulators, one per aggregate.
    pub accs: Vec<(f64, u64)>,
    /// Number of contributing tuples.
    pub hits: u64,
}

impl AggTable {
    /// Creates an aggregation table.
    pub fn new(grouper: Grouper, funcs: &[AggFunc]) -> Self {
        let cells = if grouper.is_dense() { grouper.num_cells() } else { 0 };
        let states = funcs.iter().map(|&f| AggState::new(f, cells)).collect();
        AggTable { grouper, states, hits: vec![0; cells] }
    }

    /// Registers a tuple's group, returning its cell id. Called once per
    /// selected tuple in the grouping phase; the returned id goes into the
    /// Measure Index.
    #[inline]
    pub fn register(&mut self, coords: &[Key]) -> u32 {
        let cell = self.grouper.cell(coords);
        self.cover_cells();
        self.hits[cell as usize] += 1;
        cell
    }

    /// Sizes the hit counts and accumulators to the grouper's cell count
    /// (sparse groupers allocate cells as coordinates are first seen).
    fn cover_cells(&mut self) {
        let needed = self.grouper.num_cells();
        if self.hits.len() < needed {
            self.hits.resize(needed, 0);
            for s in &mut self.states {
                s.ensure(needed);
            }
        }
    }

    /// The Measure Index of one scanned segment, built column-wise (§4.3):
    /// `codes[d][i]` is the group id of selected tuple `rows[i]` in
    /// grouping dimension `d`. Tuples with a [`NULL_KEY`] coordinate are
    /// dropped from `rows` (the paper's −1 entries); `cells` is overwritten
    /// with the aggregation cell of every tuple that remains, and each
    /// cell's hit count advances. The dense array computes the mixed-radix
    /// cell one dimension at a time over whole code vectors; the sparse
    /// groupers still resolve one coordinate tuple per row.
    pub fn assign_cells(
        &mut self,
        codes: &mut [Vec<Key>],
        rows: &mut Vec<RowId>,
        cells: &mut Vec<u32>,
    ) {
        if codes.iter().any(|c| c.contains(&NULL_KEY)) {
            let mut w = 0;
            for i in 0..rows.len() {
                if codes.iter().all(|c| c[i] != NULL_KEY) {
                    rows[w] = rows[i];
                    for c in codes.iter_mut() {
                        c[w] = c[i];
                    }
                    w += 1;
                }
            }
            rows.truncate(w);
            for c in codes.iter_mut() {
                c.truncate(w);
            }
        }
        cells.clear();
        cells.resize(rows.len(), 0);
        match &mut self.grouper {
            Grouper::Scalar => {}
            Grouper::Dense { radices, .. } => {
                for (dim, &radix) in codes.iter().zip(radices.iter()) {
                    for (cell, &code) in cells.iter_mut().zip(dim) {
                        debug_assert!(code < radix, "group code {code} out of radix {radix}");
                        *cell = *cell * radix + code;
                    }
                }
            }
            sparse => {
                let mut coords = vec![0 as Key; codes.len()];
                for (i, cell) in cells.iter_mut().enumerate() {
                    for (coord, dim) in coords.iter_mut().zip(codes.iter()) {
                        *coord = dim[i];
                    }
                    *cell = sparse.cell(&coords);
                }
            }
        }
        self.cover_cells();
        for &cell in cells.iter() {
            self.hits[cell as usize] += 1;
        }
    }

    /// Re-addresses the table under another grouper over the same
    /// coordinate space: every non-empty cell keeps its coordinates, hit
    /// count and accumulators. Used when a scan-built dictionary outgrows
    /// a dense array's radix (wider dense array) or the optimizer's cell
    /// budget (dense → hash).
    pub fn relayout(&mut self, grouper: Grouper) {
        let funcs: Vec<AggFunc> = self.states.iter().map(|s| s.func).collect();
        let old = std::mem::replace(self, AggTable::new(grouper, &funcs));
        self.merge_from(&old, &[]);
    }

    /// Folds another scan's partial aggregates into this table ("the
    /// multidimensional arrays are integrated", §5). `remap[d]`, when
    /// present, translates the other table's group ids of dimension `d`
    /// into this table's — scan-built dictionaries number their groups per
    /// worker; `None` means both scans probed one shared dictionary. With
    /// nothing to translate and identical dense layouts the merge is by
    /// cell index; otherwise each non-empty cell is re-addressed through
    /// its coordinates. A cell that was empty here takes the other's
    /// accumulators verbatim. A dense target must already be wide enough
    /// for the translated ids.
    pub fn merge_from(&mut self, other: &AggTable, remap: &[Option<Vec<Key>>]) {
        let by_index =
            remap.iter().all(Option::is_none) && self.grouper.same_cell_ids(&other.grouper);
        for (cell, &hits) in other.hits.iter().enumerate().filter(|(_, &h)| h > 0) {
            let cell = cell as u32;
            let to = if by_index {
                cell
            } else {
                let mut coords = other.grouper.coords_of(cell);
                for (coord, map) in coords.iter_mut().zip(remap) {
                    if let Some(map) = map {
                        *coord = map[*coord as usize];
                    }
                }
                let to = self.grouper.cell(&coords);
                self.cover_cells();
                to
            };
            let fresh = self.hits[to as usize] == 0;
            self.hits[to as usize] += hits;
            for (mine, theirs) in self.states.iter_mut().zip(&other.states) {
                if fresh {
                    mine.set_acc(to, theirs.acc(cell));
                } else {
                    mine.merge_acc(to, theirs.acc(cell));
                }
            }
        }
    }

    /// Folds a measure value into aggregate `agg` at `cell` (aggregation
    /// phase, driven column-wise by the Measure Index).
    #[inline]
    pub fn update(&mut self, agg: usize, cell: u32, v: f64) {
        self.states[agg].update(cell, v);
    }

    /// Direct state access for tight per-aggregate loops.
    pub fn state_mut(&mut self, agg: usize) -> &mut AggState {
        &mut self.states[agg]
    }

    /// Emits all non-empty cells.
    pub fn emit(&self) -> Vec<GroupCell> {
        let mut out = Vec::new();
        for (cell, &h) in self.hits.iter().enumerate() {
            if h == 0 {
                continue;
            }
            let cell = cell as u32;
            out.push(GroupCell {
                coords: self.grouper.coords_of(cell),
                accs: self.states.iter().map(|s| s.acc(cell)).collect(),
                hits: h,
            });
        }
        out
    }

    /// Number of non-empty groups.
    pub fn occupied(&self) -> usize {
        self.hits.iter().filter(|&&h| h > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_grouper_mixed_radix_roundtrip() {
        let mut g = Grouper::dense(vec![3, 4, 5]);
        assert_eq!(g.num_cells(), 60);
        for a in 0..3u32 {
            for b in 0..4u32 {
                for c in 0..5u32 {
                    let cell = g.cell(&[a, b, c]);
                    assert_eq!(g.coords_of(cell), vec![a, b, c]);
                }
            }
        }
    }

    #[test]
    fn dense_cells_are_unique() {
        let mut g = Grouper::dense(vec![4, 7]);
        let mut seen = std::collections::HashSet::new();
        for a in 0..4u32 {
            for b in 0..7u32 {
                assert!(seen.insert(g.cell(&[a, b])));
            }
        }
        assert_eq!(seen.len(), 28);
    }

    #[test]
    fn hash_grouper_interning_and_roundtrip() {
        let mut g = Grouper::hash(2);
        let c1 = g.cell(&[100, 2_000_000]);
        let c2 = g.cell(&[101, 2_000_000]);
        assert_ne!(c1, c2);
        assert_eq!(g.cell(&[100, 2_000_000]), c1);
        assert_eq!(g.num_cells(), 2);
        assert_eq!(g.coords_of(c1), vec![100, 2_000_000]);
        assert!(!g.is_dense());
    }

    #[test]
    fn hash_wide_grouper_for_many_dims() {
        let mut g = Grouper::hash(6);
        assert!(matches!(g, Grouper::HashWide { .. }));
        let coords = [1u32, 2, 3, 4, 5, 6];
        let c = g.cell(&coords);
        assert_eq!(g.cell(&coords), c);
        assert_eq!(g.coords_of(c), coords.to_vec());
    }

    #[test]
    fn scalar_grouper_single_cell() {
        let mut g = Grouper::Scalar;
        assert_eq!(g.cell(&[]), 0);
        assert_eq!(g.num_cells(), 1);
        assert!(g.coords_of(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn dense_overflow_panics() {
        Grouper::dense(vec![u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    fn agg_state_functions() {
        let mut sum = AggState::new(AggFunc::Sum, 2);
        sum.update(0, 1.5);
        sum.update(0, 2.5);
        assert_eq!(sum.value(0), 4.0);
        assert_eq!(sum.value(1), 0.0);

        let mut count = AggState::new(AggFunc::Count, 1);
        count.update(0, 99.0);
        count.update(0, -1.0);
        assert_eq!(count.value(0), 2.0);

        let mut min = AggState::new(AggFunc::Min, 1);
        min.update(0, 5.0);
        min.update(0, 3.0);
        min.update(0, 4.0);
        assert_eq!(min.value(0), 3.0);

        let mut max = AggState::new(AggFunc::Max, 1);
        max.update(0, 5.0);
        max.update(0, 8.0);
        assert_eq!(max.value(0), 8.0);

        let mut avg = AggState::new(AggFunc::Avg, 1);
        avg.update(0, 2.0);
        avg.update(0, 4.0);
        assert_eq!(avg.value(0), 3.0);
    }

    #[test]
    fn merge_acc_per_function() {
        let mut s = AggState::new(AggFunc::Min, 1);
        s.update(0, 7.0);
        s.merge_acc(0, (3.0, 1));
        assert_eq!(s.value(0), 3.0);

        let mut s = AggState::new(AggFunc::Avg, 1);
        s.update(0, 2.0);
        s.merge_acc(0, (10.0, 3));
        assert_eq!(s.value(0), 3.0); // (2+10)/(1+3)
    }

    #[test]
    fn agg_table_dense_emit_skips_empty_cells() {
        let mut t = AggTable::new(Grouper::dense(vec![2, 3]), &[AggFunc::Sum, AggFunc::Count]);
        let c1 = t.register(&[0, 1]);
        t.update(0, c1, 10.0);
        t.update(1, c1, 0.0);
        let c2 = t.register(&[1, 2]);
        t.update(0, c2, 5.0);
        t.update(1, c2, 0.0);
        let c1b = t.register(&[0, 1]);
        assert_eq!(c1, c1b);
        t.update(0, c1b, 2.0);
        t.update(1, c1b, 0.0);

        let cells = t.emit();
        assert_eq!(cells.len(), 2, "4 empty cells of 6 are skipped");
        assert_eq!(t.occupied(), 2);
        let first = cells.iter().find(|c| c.coords == vec![0, 1]).unwrap();
        assert_eq!(first.accs[0].0, 12.0);
        assert_eq!(first.hits, 2);
        assert_eq!(first.accs[1].1, 2);
    }

    #[test]
    fn agg_table_hash_grows_on_demand() {
        let mut t = AggTable::new(Grouper::hash(1), &[AggFunc::Sum]);
        for i in 0..100u32 {
            let cell = t.register(&[i * 7]);
            t.update(0, cell, f64::from(i));
        }
        assert_eq!(t.emit().len(), 100);
    }

    /// The column-wise Measure Index must address the cells the per-tuple
    /// `register` addresses, drop exactly the tuples with a NULL
    /// coordinate, and count the hits — for the dense array and for both
    /// hash fallbacks.
    #[test]
    fn assign_cells_matches_per_tuple_register() {
        let dims: [&[Key]; 2] = [&[0, 2, NULL_KEY, 1, 2, 0, 1], &[3, 0, 1, NULL_KEY, 3, 3, 2]];
        let rows: Vec<RowId> = (100..107).collect();
        for wide in [0usize, 3] {
            // `wide` extra constant dimensions push the sparse grouper past
            // four coordinates (the `HashWide` variant).
            let mut codes: Vec<Vec<Key>> = dims.iter().map(|d| d.to_vec()).collect();
            codes.extend((0..wide).map(|_| vec![0; rows.len()]));
            let mut radices = vec![3, 4];
            radices.extend((0..wide).map(|_| 1));
            let dense = || Grouper::dense(radices.clone());
            let hash = || Grouper::hash(2 + wide);
            let groupers: [&dyn Fn() -> Grouper; 2] = [&dense, &hash];
            for grouper in groupers {
                let mut by_tuple = AggTable::new(grouper(), &[AggFunc::Count]);
                let mut want_rows = Vec::new();
                let mut want_cells = Vec::new();
                for (i, &r) in rows.iter().enumerate() {
                    let coords: Vec<Key> = codes.iter().map(|c| c[i]).collect();
                    if !coords.contains(&NULL_KEY) {
                        want_rows.push(r);
                        want_cells.push(by_tuple.register(&coords));
                    }
                }
                let mut table = AggTable::new(grouper(), &[AggFunc::Count]);
                let (mut got_rows, mut got_cells) = (rows.clone(), vec![9, 9]);
                table.assign_cells(&mut codes.clone(), &mut got_rows, &mut got_cells);
                assert_eq!(got_rows, want_rows);
                assert_eq!(got_cells, want_cells);
                assert_eq!(table.hits, by_tuple.hits);
            }
        }
    }

    #[test]
    fn assign_cells_without_grouping_is_one_cell() {
        let mut t = AggTable::new(Grouper::Scalar, &[AggFunc::Sum]);
        let (mut rows, mut cells) = (vec![4, 8, 15], Vec::new());
        t.assign_cells(&mut [], &mut rows, &mut cells);
        assert_eq!(cells, [0, 0, 0]);
        t.state_mut(0).fold(&cells, |i| f64::from(rows[i]));
        assert_eq!(t.emit()[0].accs[0].0, 27.0);
        assert_eq!(t.emit()[0].hits, 3);
    }

    #[test]
    fn fold_matches_update_for_every_function() {
        let cells = [0u32, 1, 0, 1, 1];
        let values = [3.0, -1.0, 7.5, 4.0, -2.5];
        for func in [AggFunc::Sum, AggFunc::Count, AggFunc::Min, AggFunc::Max, AggFunc::Avg] {
            let (mut folded, mut updated) = (AggState::new(func, 2), AggState::new(func, 2));
            folded.fold(&cells, |i| values[i]);
            for (&c, &v) in cells.iter().zip(&values) {
                updated.update(c, v);
            }
            for cell in 0..2 {
                assert_eq!(folded.acc(cell), updated.acc(cell), "{func:?} cell {cell}");
            }
        }
    }

    /// A table re-addressed under wider radices, then as a hash table, keeps
    /// every group's coordinates, hits and accumulators.
    #[test]
    fn relayout_keeps_every_group() {
        let mut t = AggTable::new(Grouper::dense(vec![2, 2]), &[AggFunc::Sum, AggFunc::Min]);
        for (coords, v) in [([0, 1], 5.0), ([1, 0], 2.0), ([0, 1], -1.0)] {
            let cell = t.register(&coords);
            t.update(0, cell, v);
            t.update(1, cell, v);
        }
        let mut before = t.emit();
        before.sort_by(|a, b| a.coords.cmp(&b.coords));
        for grouper in [Grouper::dense(vec![5, 3]), Grouper::hash(2)] {
            t.relayout(grouper);
            let mut after = t.emit();
            after.sort_by(|a, b| a.coords.cmp(&b.coords));
            assert_eq!(after, before);
        }
        // The re-addressed table keeps accumulating.
        let cell = t.register(&[4, 2]);
        t.update(0, cell, 1.0);
        assert_eq!(t.occupied(), 3);
    }

    #[test]
    fn merge_by_cell_index_and_through_remapped_coordinates() {
        let filled = |grouper: Grouper, groups: &[([Key; 2], f64)]| {
            let mut t = AggTable::new(grouper, &[AggFunc::Sum, AggFunc::Max]);
            for (coords, v) in groups {
                let cell = t.register(coords);
                t.update(0, cell, *v);
                t.update(1, cell, *v);
            }
            t
        };
        let sums = |t: &AggTable| {
            let mut cells = t.emit();
            cells.sort_by(|a, b| a.coords.cmp(&b.coords));
            cells
                .into_iter()
                .map(|c| (c.coords, c.accs[0].0, c.accs[1].0, c.hits))
                .collect::<Vec<_>>()
        };
        let want =
            vec![(vec![0, 1], 12.0, 7.0, 2), (vec![1, 0], 3.0, 3.0, 1), (vec![1, 2], 4.0, 4.0, 1)];

        // Same dense layout, shared dictionaries: merged by cell index.
        let mut a = filled(Grouper::dense(vec![2, 3]), &[([0, 1], 5.0), ([1, 0], 3.0)]);
        let b = filled(Grouper::dense(vec![2, 3]), &[([0, 1], 7.0), ([1, 2], 4.0)]);
        a.merge_from(&b, &[None, None]);
        assert_eq!(sums(&a), want);

        // The other scan numbered dimension 0 the other way round and used
        // a hash table: merged through translated coordinates.
        let mut a = filled(Grouper::dense(vec![2, 3]), &[([0, 1], 5.0), ([1, 0], 3.0)]);
        let b = filled(Grouper::hash(2), &[([1, 1], 7.0), ([0, 2], 4.0)]);
        a.merge_from(&b, &[Some(vec![1, 0]), None]);
        assert_eq!(sums(&a), want);

        // Hash target: cells appear as the merge meets new coordinates.
        let mut a = filled(Grouper::hash(2), &[([0, 1], 5.0), ([1, 0], 3.0)]);
        a.merge_from(&b, &[Some(vec![1, 0]), None]);
        assert_eq!(sums(&a), want);
    }
}
