//! Group vectors and group dictionaries (paper §4.3).
//!
//! "In most cases, grouping columns are located in leaf tables. Thus, when
//! we use the leaf tables to generate the predicate filters, we generate a
//! set of group vectors as well. A group vector is used to determine the
//! group each tuple belongs to. … dictionary compression is applied to
//! encode each group vector. … the null value is encoded as −1 and the
//! group IDs are encoded as the array indexes of the dictionary."
//!
//! A [`GroupVector`] lives on the *first-level* dimension of a chain (for
//! snowflakes the group value is chased down the chain once per dimension
//! row, not once per fact row). Grouping columns on the fact table itself
//! use a [`FactGrouper`] that interns codes during the fact scan; the same
//! interner numbers a group vector's groups while it is built.

use std::collections::HashMap;

use astore_storage::bitmap::Bitmap;
use astore_storage::column::Column;
use astore_storage::dictionary::DictColumn;
use astore_storage::types::{Key, RowId, Value, NULL_KEY};

use crate::query::ColRef;
use crate::universal::{BindError, Universal};

/// A group label: the distinct value a group is keyed on.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GroupLabel {
    /// Integer-valued grouping column.
    Int(i64),
    /// String-valued grouping column.
    Str(String),
}

impl GroupLabel {
    /// Converts to a result [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            GroupLabel::Int(v) => Value::Int(*v),
            GroupLabel::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// The dictionary of one grouping column: group id -> label (paper: "a
/// dictionary array is used to store the group IDs").
#[derive(Debug, Clone, Default)]
pub struct GroupDict {
    labels: Vec<GroupLabel>,
    index: HashMap<GroupLabel, Key>,
}

impl GroupDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        GroupDict::default()
    }

    /// Interns a label, returning its stable group id.
    pub fn intern(&mut self, label: GroupLabel) -> Key {
        if let Some(&c) = self.index.get(&label) {
            return c;
        }
        let c = self.labels.len() as Key;
        self.index.insert(label.clone(), c);
        self.labels.push(label);
        c
    }

    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if no group was interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The label of group `id`.
    pub fn label(&self, id: Key) -> &GroupLabel {
        &self.labels[id as usize]
    }

    /// All labels, ordered by group id.
    pub fn labels(&self) -> &[GroupLabel] {
        &self.labels
    }
}

/// Reads a grouping value from a column as a [`GroupLabel`].
///
/// # Panics
/// Panics for float columns (grouping on floats is not meaningful in the
/// SPJGA model) — integers, strings and dictionary strings are supported.
#[inline]
pub fn label_at(column: &Column, row: usize) -> GroupLabel {
    if let Some(v) = column.int_at(row) {
        GroupLabel::Int(v)
    } else if let Some(s) = column.str_at(row) {
        GroupLabel::Str(s.to_owned())
    } else {
        panic!("cannot group by column of type {}", column.dtype());
    }
}

/// A dictionary-compressed group vector over a first-level dimension.
#[derive(Debug, Clone)]
pub struct GroupVector {
    /// The fact AIR column used to probe this vector.
    pub fact_key_col: String,
    /// Per dimension slot: the group id, or [`NULL_KEY`] when the dimension
    /// row is filtered out / its snowflake chain is broken (paper's −1).
    pub codes: Vec<Key>,
    /// The group dictionary.
    pub dict: GroupDict,
}

impl GroupVector {
    /// Probes the vector with a fact foreign key.
    #[inline]
    pub fn probe(&self, fk: Key) -> Key {
        if fk == NULL_KEY || fk as usize >= self.codes.len() {
            NULL_KEY
        } else {
            self.codes[fk as usize]
        }
    }
}

/// Builds the group vector for a dimension grouping column.
///
/// * `colref` — the grouping column (on a leaf table);
/// * `filter` — the chain's composed predicate filter over the first-level
///   dimension (rows failing it get code −1, so aggregation never touches
///   them), or `None` when the chain has no predicates (liveness only).
pub fn build_group_vector(
    u: &Universal<'_>,
    colref: &ColRef,
    filter: Option<&Bitmap>,
) -> Result<GroupVector, BindError> {
    let path = u.path(&colref.table)?;
    assert!(!path.steps.is_empty(), "group column on the root table needs FactGrouper");
    let fact_key_col = path.steps[0].key_column.clone();
    let first_dim_name = &path.steps[0].to_table;
    let first_dim =
        u.db().table(first_dim_name).ok_or_else(|| BindError::NoTable(first_dim_name.clone()))?;

    // Hop arrays *within* the dimension chain (first-level dim -> target).
    let hops = u.hops_to(&colref.table)?.split_off(1);
    let target_table =
        u.db().table(&colref.table).ok_or_else(|| BindError::NoTable(colref.table.clone()))?;
    let column = target_table
        .column(&colref.column)
        .ok_or_else(|| BindError::NoColumn(colref.table.clone(), colref.column.clone()))?;

    let n = first_dim.num_slots();
    // Group ids in first-appearance order. A dictionary column interns by
    // storage code, so each distinct label is materialised once, not once
    // per dimension row.
    let mut groups = FactGrouper::new(column);
    let mut codes = vec![NULL_KEY; n];
    // Passing slots ascending, so group ids keep first-appearance order.
    // Walking the filter's set bits (instead of testing every slot) keeps a
    // half-selective filter from mispredicting on every other row.
    let mut assign = |slot: usize| {
        // Chase the chain to the grouping column's row.
        let mut row = slot;
        for keys in &hops {
            match keys.get_checked(row) {
                Some(k) if k != NULL_KEY => row = k as usize,
                _ => return,
            }
        }
        codes[slot] = groups.code_for(row);
    };
    match filter {
        Some(bm) => bm.iter_ones().take_while(|&slot| slot < n).for_each(&mut assign),
        None => (0..n).filter(|&slot| first_dim.is_live(slot as Key)).for_each(&mut assign),
    }
    Ok(GroupVector { fact_key_col, codes, dict: groups.dict })
}

/// Interns the values of one column into group ids, in first-appearance
/// order. Grouping on a root-table column runs it during the fact scan
/// itself (there is no smaller table to pre-compute a vector on);
/// [`build_group_vector`] runs it once per passing dimension row.
#[derive(Debug)]
pub struct FactGrouper<'a> {
    column: &'a Column,
    /// The dictionary grows as the scan encounters new values.
    pub dict: GroupDict,
    /// Fast path: for dictionary-compressed fact columns, maps storage codes
    /// to group ids directly (storage code space is dense and small).
    dict_code_map: Vec<Key>,
    /// Fast path for integer columns: the group id of value `v` sits at
    /// `int_map[v - int_base]` ([`NULL_KEY`] = not seen yet) while the
    /// values seen span fewer than [`INT_MAP_SPAN`]; values outside that
    /// window are interned through the dictionary's hash index every time.
    int_map: Vec<Key>,
    int_base: i64,
}

/// Widest value range the integer lookup vector covers (256 KiB of ids):
/// years, quantities, discounts, flags and small keys fit; a high-cardinality
/// column falls back to hashing past the window instead of growing it.
const INT_MAP_SPAN: i64 = 1 << 16;

impl<'a> FactGrouper<'a> {
    /// Creates a grouper over a root-table column.
    pub fn new(column: &'a Column) -> Self {
        let dict_code_map = match column {
            Column::Dict(dc) => vec![NULL_KEY; dc.dict().len()],
            _ => Vec::new(),
        };
        FactGrouper {
            column,
            dict: GroupDict::new(),
            dict_code_map,
            int_map: Vec::new(),
            int_base: 0,
        }
    }

    /// The group id of dictionary storage code `sc`, interning its string
    /// the first time the code is seen.
    #[inline]
    fn group_of_code(&mut self, dc: &DictColumn, sc: Key) -> Key {
        let cached = self.dict_code_map[sc as usize];
        if cached != NULL_KEY {
            return cached;
        }
        let id = self.dict.intern(GroupLabel::Str(dc.dict().decode(sc).to_owned()));
        self.dict_code_map[sc as usize] = id;
        id
    }

    /// The group id of integer value `v`: a lookup-vector hit for a value
    /// seen before inside the window, the dictionary's hash index otherwise.
    #[inline]
    fn group_of_int(&mut self, v: i64) -> Key {
        let slot = v.wrapping_sub(self.int_base) as u64 as usize;
        if let Some(&id) = self.int_map.get(slot).filter(|&&id| id != NULL_KEY) {
            return id;
        }
        let id = self.dict.intern(GroupLabel::Int(v));
        // Stretch the window over `v` if it still fits the span.
        let (lo, hi) = match self.int_map.len() {
            0 => (v, v),
            len => (v.min(self.int_base), v.max(self.int_base + (len as i64 - 1))),
        };
        if hi.checked_sub(lo).is_some_and(|span| span < INT_MAP_SPAN) {
            if !self.int_map.is_empty() && lo < self.int_base {
                let below = (self.int_base - lo) as usize;
                self.int_map.splice(0..0, std::iter::repeat_n(NULL_KEY, below));
            }
            self.int_base = lo;
            self.int_map.resize((hi - lo) as usize + 1, NULL_KEY);
            self.int_map[(v - lo) as usize] = id;
        }
        id
    }

    /// The group id of `row`'s value, interning new values.
    #[inline]
    pub fn code_for(&mut self, row: usize) -> Key {
        if let Column::Dict(dc) = self.column {
            return self.group_of_code(dc, dc.code(row));
        }
        match self.column.int_at(row) {
            Some(v) => self.group_of_int(v),
            None => self.dict.intern(label_at(self.column, row)),
        }
    }

    /// [`FactGrouper::code_for`] over the selected `rows` of segment `seg`
    /// (whose first row is `base`), in order, into `codes`. A dictionary
    /// column binds the segment's code chunk once.
    pub fn codes_for_segment(
        &mut self,
        seg: usize,
        base: RowId,
        rows: &[RowId],
        codes: &mut Vec<Key>,
    ) {
        codes.clear();
        match self.column {
            Column::Dict(dc) => {
                let chunk = dc.codes().chunk(seg);
                codes.extend(
                    rows.iter().map(|&r| self.group_of_code(dc, chunk.at((r - base) as usize))),
                );
            }
            _ => codes.extend(rows.iter().map(|&r| self.code_for(r as usize))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Pred;
    use crate::query::Query;
    use astore_storage::prelude::*;

    fn db() -> Database {
        let mut db = Database::new();
        let mut nation =
            Table::new("nation", Schema::new(vec![ColumnDef::new("n_name", DataType::Dict)]));
        for n in ["BRAZIL", "CANADA", "CHINA"] {
            nation.append_row(&[Value::Str(n.into())]);
        }
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                ColumnDef::new("c_nation", DataType::Key { target: "nation".into() }),
                ColumnDef::new("c_seg", DataType::Dict),
            ]),
        );
        customer.append_row(&[Value::Key(1), Value::Str("A".into())]); // CANADA
        customer.append_row(&[Value::Key(2), Value::Str("B".into())]); // CHINA
        customer.append_row(&[Value::Key(0), Value::Str("A".into())]); // BRAZIL
        customer.append_row(&[Value::Key(NULL_KEY), Value::Str("A".into())]);
        let mut fact = Table::new(
            "fact",
            Schema::new(vec![
                ColumnDef::new("f_cust", DataType::Key { target: "customer".into() }),
                ColumnDef::new("f_disc", DataType::I32),
            ]),
        );
        for (c, d) in [(0u32, 1), (1, 2), (2, 1), (3, 3)] {
            fact.append_row(&[Value::Key(c), Value::Int(d)]);
        }
        db.add_table(nation);
        db.add_table(customer);
        db.add_table(fact);
        db
    }

    #[test]
    fn group_dict_intern_is_stable() {
        let mut d = GroupDict::new();
        let a = d.intern(GroupLabel::Str("x".into()));
        let b = d.intern(GroupLabel::Int(5));
        assert_eq!(d.intern(GroupLabel::Str("x".into())), a);
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(a), &GroupLabel::Str("x".into()));
        assert_eq!(d.label(b).to_value(), Value::Int(5));
    }

    #[test]
    fn direct_dimension_group_vector() {
        let db = db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let gv = build_group_vector(&u, &ColRef::new("customer", "c_seg"), None).unwrap();
        assert_eq!(gv.fact_key_col, "f_cust");
        assert_eq!(gv.codes.len(), 4);
        // Codes are dictionary-compressed: A=0 (first seen), B=1.
        assert_eq!(gv.codes, vec![0, 1, 0, 0]);
        assert_eq!(gv.dict.len(), 2);
    }

    #[test]
    fn snowflake_group_vector_chases_chain() {
        let db = db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let gv = build_group_vector(&u, &ColRef::new("nation", "n_name"), None).unwrap();
        // Vector lives on customer (first-level dim), labels come from nation.
        assert_eq!(gv.codes.len(), 4);
        let labels: Vec<&GroupLabel> = gv.codes.iter().take(3).map(|&c| gv.dict.label(c)).collect();
        assert_eq!(
            labels,
            vec![
                &GroupLabel::Str("CANADA".into()),
                &GroupLabel::Str("CHINA".into()),
                &GroupLabel::Str("BRAZIL".into())
            ]
        );
        // Customer 3 has a broken chain: NULL code.
        assert_eq!(gv.codes[3], NULL_KEY);
    }

    #[test]
    fn filter_nulls_out_failing_rows() {
        let db = db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let q = Query::new().filter("customer", Pred::eq("c_seg", "A"));
        let bm = q.selection_on("customer").unwrap().eval_bitmap(db.table("customer").unwrap());
        let gv = build_group_vector(&u, &ColRef::new("nation", "n_name"), Some(&bm)).unwrap();
        assert_eq!(gv.codes[1], NULL_KEY, "customer 1 is segment B");
        assert_ne!(gv.codes[0], NULL_KEY);
        assert_ne!(gv.codes[2], NULL_KEY);
        // Only the labels of passing rows are interned (paper: group vector
        // built from tuples passing predicate evaluation).
        assert_eq!(gv.dict.len(), 2);
    }

    #[test]
    fn probe_handles_null_and_out_of_range() {
        let db = db();
        let u = Universal::bind(&db, Some("fact"), &[]).unwrap();
        let gv = build_group_vector(&u, &ColRef::new("customer", "c_seg"), None).unwrap();
        assert_eq!(gv.probe(NULL_KEY), NULL_KEY);
        assert_eq!(gv.probe(1000), NULL_KEY);
        assert_eq!(gv.probe(1), 1);
    }

    #[test]
    fn fact_grouper_interns_integer_values() {
        let db = db();
        let fact = db.table("fact").unwrap();
        let mut fg = FactGrouper::new(fact.column("f_disc").unwrap());
        let codes: Vec<Key> = (0..4).map(|r| fg.code_for(r)).collect();
        assert_eq!(codes, vec![0, 1, 0, 2]);
        assert_eq!(fg.dict.label(0), &GroupLabel::Int(1));
        assert_eq!(fg.dict.label(2), &GroupLabel::Int(3));
    }

    #[test]
    fn fact_grouper_integer_window_matches_plain_interning() {
        // Values below, inside, above and far outside the lookup window, in
        // an order that stretches it both ways; ids must equal what
        // interning each value through the dictionary alone would assign.
        let values: Vec<i64> = vec![
            1995,
            1995,
            1992,
            1998,
            i64::MIN,
            1992,
            5_000_000_000,
            -3,
            1995,
            i64::MAX,
            i64::MIN,
            70_000,
            -3,
            5_000_000_000,
        ];
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
        for &v in &values {
            t.append_row(&[Value::Int(v)]);
        }
        let mut fg = FactGrouper::new(t.column("v").unwrap());
        let mut plain = GroupDict::new();
        for (row, &v) in values.iter().enumerate() {
            assert_eq!(fg.code_for(row), plain.intern(GroupLabel::Int(v)), "row {row} value {v}");
        }
        assert_eq!(fg.dict.labels(), plain.labels());
    }

    #[test]
    fn fact_grouper_dict_column_fast_path() {
        let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("c", DataType::Dict)]));
        for v in ["x", "y", "x", "z", "y"] {
            t.append_row(&[Value::Str(v.into())]);
        }
        let mut fg = FactGrouper::new(t.column("c").unwrap());
        let codes: Vec<Key> = (0..5).map(|r| fg.code_for(r)).collect();
        assert_eq!(codes, vec![0, 1, 0, 2, 1]);
        assert_eq!(fg.dict.label(2), &GroupLabel::Str("z".into()));
    }
}
