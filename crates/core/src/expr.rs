//! Predicates and measure expressions.
//!
//! Predicates come in a small logical algebra ([`Pred`]) that is *compiled*
//! against a concrete table into [`CompiledPred`]: typed tests over the
//! table's columns. Compilation performs the paper's dictionary pushdown —
//! string predicates on dictionary-compressed columns are evaluated once per
//! *distinct value* and turn into code comparisons or code-bitmap probes, so
//! no `strcmp` runs inside a scan loop (§4.2).
//!
//! Columns are stored as per-segment chunks, so a compiled expression comes
//! in two *bindings* of one shape ([`PredOver`], [`MeasureOver`]): bound to
//! the [`Whole`] table it addresses rows by table-wide index (the
//! random-access form — AIR chases into dimension tables, samples); bound
//! [`InSegment`] by [`CompiledPred::bind`] it holds one segment's chunks as
//! they are resident ([`ChunkRef`]: a plain slice, bit-packed codes or
//! runs) and addresses rows by segment-local offset — the form every
//! sequential scan loop evaluates. A packed chunk answers a row with a
//! division-free lane extraction plus the frame-of-reference base, so
//! predicates refine and measures fold straight from the codes.

use std::fmt::Debug;
use std::sync::Arc;

use astore_storage::bitmap::Bitmap;
use astore_storage::chunks::{ChunkRef, Chunked};
use astore_storage::column::Column;
use astore_storage::encoded::ChunkValue;
use astore_storage::strings::{StrChunk, StrColumn};
use astore_storage::table::Table;
use astore_storage::types::Key;

/// A literal value in a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Lit {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// An unbound parameter slot (`?` / `$n` in SQL, 0-based). A query
    /// template carries these until [`crate::query::Query::bind_params`]
    /// substitutes concrete literals; the executor refuses to run a query
    /// that still contains one.
    Param(u16),
}

impl From<i64> for Lit {
    fn from(v: i64) -> Self {
        Lit::Int(v)
    }
}
impl From<i32> for Lit {
    fn from(v: i32) -> Self {
        Lit::Int(i64::from(v))
    }
}
impl From<f64> for Lit {
    fn from(v: f64) -> Self {
        Lit::Float(v)
    }
}
impl From<&str> for Lit {
    fn from(v: &str) -> Self {
        Lit::Str(v.to_owned())
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the operator to an [`Ord`] pair.
    #[inline]
    pub fn apply<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A logical predicate over the columns of one table.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `column <op> literal`.
    Cmp {
        /// Column name.
        col: String,
        /// Operator.
        op: CmpOp,
        /// Literal operand.
        lit: Lit,
    },
    /// `column BETWEEN lo AND hi` (inclusive).
    Between {
        /// Column name.
        col: String,
        /// Lower bound (inclusive).
        lo: Lit,
        /// Upper bound (inclusive).
        hi: Lit,
    },
    /// `column IN (l1, l2, …)`.
    InList {
        /// Column name.
        col: String,
        /// Accepted literals.
        lits: Vec<Lit>,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Constant truth (useful as a neutral element).
    Const(bool),
}

impl Pred {
    /// Convenience: `col = lit`.
    pub fn eq(col: impl Into<String>, lit: impl Into<Lit>) -> Pred {
        Pred::Cmp { col: col.into(), op: CmpOp::Eq, lit: lit.into() }
    }

    /// Convenience: `col BETWEEN lo AND hi`.
    pub fn between(col: impl Into<String>, lo: impl Into<Lit>, hi: impl Into<Lit>) -> Pred {
        Pred::Between { col: col.into(), lo: lo.into(), hi: hi.into() }
    }

    /// Convenience: comparison.
    pub fn cmp(col: impl Into<String>, op: CmpOp, lit: impl Into<Lit>) -> Pred {
        Pred::Cmp { col: col.into(), op, lit: lit.into() }
    }

    /// Convenience: membership.
    pub fn in_list<L: Into<Lit>>(col: impl Into<String>, lits: Vec<L>) -> Pred {
        Pred::InList { col: col.into(), lits: lits.into_iter().map(Into::into).collect() }
    }

    /// Splits a top-level conjunction into its conjuncts (a non-`And`
    /// predicate is its own single conjunct). The vectorized scan refines
    /// the selection vector one conjunct at a time (§4.1).
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(ps) => ps.iter().flat_map(|p| p.conjuncts()).collect(),
            other => vec![other],
        }
    }

    /// Conjoins two predicates, flattening `And`s.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::Const(true), b) => b,
            (a, Pred::Const(true)) => a,
            (Pred::And(mut a), Pred::And(b)) => {
                a.extend(b);
                Pred::And(a)
            }
            (Pred::And(mut a), b) => {
                a.push(b);
                Pred::And(a)
            }
            (a, Pred::And(mut b)) => {
                b.insert(0, a);
                Pred::And(b)
            }
            (a, b) => Pred::And(vec![a, b]),
        }
    }

    /// Column names referenced by this predicate.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pred::Cmp { col, .. } | Pred::Between { col, .. } | Pred::InList { col, .. } => {
                out.push(col)
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|p| p.collect_columns(out)),
            Pred::Not(p) => p.collect_columns(out),
            Pred::Const(_) => {}
        }
    }

    /// Does this predicate reference any parameter slot? Early-exits on
    /// the first one — the cheap guard the executor runs per query.
    pub fn has_params(&self) -> bool {
        let lit = |l: &Lit| matches!(l, Lit::Param(_));
        match self {
            Pred::Cmp { lit: l, .. } => lit(l),
            Pred::Between { lo, hi, .. } => lit(lo) || lit(hi),
            Pred::InList { lits, .. } => lits.iter().any(lit),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().any(Pred::has_params),
            Pred::Not(p) => p.has_params(),
            Pred::Const(_) => false,
        }
    }

    /// Parameter slots referenced by this predicate, unsorted, with
    /// duplicates (a slot may appear more than once).
    pub fn param_slots(&self) -> Vec<u16> {
        fn lit(l: &Lit, out: &mut Vec<u16>) {
            if let Lit::Param(i) = l {
                out.push(*i);
            }
        }
        fn walk(p: &Pred, out: &mut Vec<u16>) {
            match p {
                Pred::Cmp { lit: l, .. } => lit(l, out),
                Pred::Between { lo, hi, .. } => {
                    lit(lo, out);
                    lit(hi, out);
                }
                Pred::InList { lits, .. } => lits.iter().for_each(|l| lit(l, out)),
                Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
                Pred::Not(p) => walk(p, out),
                Pred::Const(_) => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Substitutes every [`Lit::Param`] slot with the corresponding entry of
    /// `params`. Errors on an out-of-range slot; leaves concrete literals
    /// untouched.
    pub fn bind_params(&self, params: &[Lit]) -> Result<Pred, String> {
        let lit = |l: &Lit| -> Result<Lit, String> {
            match l {
                Lit::Param(i) => params.get(usize::from(*i)).cloned().ok_or_else(|| {
                    format!("parameter ${} has no bound value ({} given)", i + 1, params.len())
                }),
                concrete => Ok(concrete.clone()),
            }
        };
        Ok(match self {
            Pred::Cmp { col, op, lit: l } => Pred::Cmp { col: col.clone(), op: *op, lit: lit(l)? },
            Pred::Between { col, lo, hi } => {
                Pred::Between { col: col.clone(), lo: lit(lo)?, hi: lit(hi)? }
            }
            Pred::InList { col, lits } => Pred::InList {
                col: col.clone(),
                lits: lits.iter().map(&lit).collect::<Result<_, _>>()?,
            },
            Pred::And(ps) => {
                Pred::And(ps.iter().map(|p| p.bind_params(params)).collect::<Result<_, _>>()?)
            }
            Pred::Or(ps) => {
                Pred::Or(ps.iter().map(|p| p.bind_params(params)).collect::<Result<_, _>>()?)
            }
            Pred::Not(p) => Pred::Not(Box::new(p.bind_params(params)?)),
            Pred::Const(b) => Pred::Const(*b),
        })
    }

    /// Rewrites every column reference through `f` (used when rebinding a
    /// query to a denormalized table).
    pub fn map_columns(self, f: &impl Fn(&str) -> String) -> Pred {
        match self {
            Pred::Cmp { col, op, lit } => Pred::Cmp { col: f(&col), op, lit },
            Pred::Between { col, lo, hi } => Pred::Between { col: f(&col), lo, hi },
            Pred::InList { col, lits } => Pred::InList { col: f(&col), lits },
            Pred::And(ps) => Pred::And(ps.into_iter().map(|p| p.map_columns(f)).collect()),
            Pred::Or(ps) => Pred::Or(ps.into_iter().map(|p| p.map_columns(f)).collect()),
            Pred::Not(p) => Pred::Not(Box::new(p.map_columns(f))),
            Pred::Const(b) => Pred::Const(b),
        }
    }

    /// Compiles the predicate against a table into an evaluable form.
    ///
    /// # Panics
    /// Panics if a referenced column is missing or a literal's type does not
    /// match its column.
    pub fn compile<'a>(&self, table: &'a Table) -> CompiledPred<'a> {
        match self {
            Pred::Const(b) => CompiledPred::Const(*b),
            Pred::And(ps) => CompiledPred::And(ps.iter().map(|p| p.compile(table)).collect()),
            Pred::Or(ps) => CompiledPred::Or(ps.iter().map(|p| p.compile(table)).collect()),
            Pred::Not(p) => CompiledPred::Not(Box::new(p.compile(table))),
            Pred::Cmp { col, op, lit } => compile_cmp(table, col, *op, lit),
            Pred::Between { col, lo, hi } => compile_between(table, col, lo, hi),
            Pred::InList { col, lits } => compile_in(table, col, lits),
        }
    }

    /// Evaluates over all live rows of a table into a bitmap (the predicate
    /// vector path, §4.2). Dead slots evaluate to `false`. Runs as the
    /// column-wise selection scan ([`crate::scan::select_bitmap`]), so a
    /// dimension's predicates meet its chunks the way the fact table's do.
    pub fn eval_bitmap(&self, table: &Table) -> Bitmap {
        crate::scan::select_bitmap(table, self)
    }
}

fn col_of<'a>(table: &'a Table, name: &str) -> &'a Column {
    table.column(name).unwrap_or_else(|| panic!("no column {name:?} in table {:?}", table.name()))
}

fn int_lit(lit: &Lit, col: &str) -> i64 {
    match lit {
        Lit::Int(v) => *v,
        Lit::Float(v) => *v as i64,
        Lit::Str(_) => panic!("string literal used with numeric column {col:?}"),
        Lit::Param(i) => panic!("unbound parameter ${} compared with column {col:?}", i + 1),
    }
}

fn float_lit(lit: &Lit, col: &str) -> f64 {
    match lit {
        Lit::Int(v) => *v as f64,
        Lit::Float(v) => *v,
        Lit::Str(_) => panic!("string literal used with float column {col:?}"),
        Lit::Param(i) => panic!("unbound parameter ${} compared with column {col:?}", i + 1),
    }
}

fn str_lit<'l>(lit: &'l Lit, col: &str) -> &'l str {
    match lit {
        Lit::Str(s) => s,
        other => panic!("non-string literal {other:?} used with string column {col:?}"),
    }
}

fn compile_cmp<'a>(table: &'a Table, col: &str, op: CmpOp, lit: &Lit) -> CompiledPred<'a> {
    match col_of(table, col) {
        Column::I32(data) => {
            let domain = (i32::MIN.into(), i32::MAX.into());
            int_cmp(op, int_lit(lit, col), domain, |lo, hi| CompiledPred::I32Between {
                data,
                lo: lo as i32,
                hi: hi as i32,
            })
        }
        Column::I64(data) => int_cmp(op, int_lit(lit, col), (i64::MIN, i64::MAX), |lo, hi| {
            CompiledPred::I64Between { data, lo, hi }
        }),
        Column::F64(data) => CompiledPred::F64Cmp { data, op, v: float_lit(lit, col) },
        Column::Key { keys, .. } => {
            int_cmp(op, int_lit(lit, col), (0, Key::MAX.into()), |lo, hi| {
                CompiledPred::KeyBetween { keys, lo: lo as Key, hi: hi as Key }
            })
        }
        Column::Dict(dict_col) => {
            let s = str_lit(lit, col);
            let dict = dict_col.dict();
            match op {
                CmpOp::Eq => {
                    CompiledPred::DictEq { codes: dict_col.codes(), code: dict.code_of(s) }
                }
                // Non-equality string ops: evaluate once per distinct value.
                _ => CompiledPred::DictSet {
                    codes: dict_col.codes(),
                    matches: Arc::new(dict.codes_matching(|v| op.apply(v, s))),
                },
            }
        }
        Column::Str(sc) => CompiledPred::StrCmp { col: sc, op, v: str_lit(lit, col).into() },
    }
}

/// The integer comparison `x <op> v` over a column whose values lie in
/// `[min, max]`, compiled as the range of values it accepts (`range(lo,
/// hi)`; `<>` as the negated point), so the compiled test states its
/// interval.
fn int_cmp<'a>(
    op: CmpOp,
    v: i64,
    (min, max): (i64, i64),
    range: impl Fn(i64, i64) -> CompiledPred<'a>,
) -> CompiledPred<'a> {
    if v < min || v > max {
        // Out-of-range literal: constant-fold.
        return CompiledPred::Const(fold_oob_cmp(op, v > max));
    }
    match op {
        CmpOp::Eq => range(v, v),
        CmpOp::Ne => CompiledPred::Not(Box::new(range(v, v))),
        CmpOp::Le => range(min, v),
        CmpOp::Ge => range(v, max),
        CmpOp::Lt if v == min => CompiledPred::Const(false),
        CmpOp::Gt if v == max => CompiledPred::Const(false),
        CmpOp::Lt => range(min, v - 1),
        CmpOp::Gt => range(v + 1, max),
    }
}

/// Constant folding for comparisons against out-of-range integer literals:
/// `x < HUGE` is true, `x > HUGE` is false, etc.
fn fold_oob_cmp(op: CmpOp, lit_above_range: bool) -> bool {
    match (op, lit_above_range) {
        (CmpOp::Lt | CmpOp::Le | CmpOp::Ne, true) => true,
        (CmpOp::Gt | CmpOp::Ge | CmpOp::Eq, true) => false,
        (CmpOp::Gt | CmpOp::Ge | CmpOp::Ne, false) => true,
        (CmpOp::Lt | CmpOp::Le | CmpOp::Eq, false) => false,
    }
}

fn compile_between<'a>(table: &'a Table, col: &str, lo: &Lit, hi: &Lit) -> CompiledPred<'a> {
    match col_of(table, col) {
        Column::I32(data) => {
            let lo = int_lit(lo, col).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            let hi = int_lit(hi, col).clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            CompiledPred::I32Between { data, lo, hi }
        }
        Column::I64(data) => {
            CompiledPred::I64Between { data, lo: int_lit(lo, col), hi: int_lit(hi, col) }
        }
        Column::F64(data) => {
            CompiledPred::F64Between { data, lo: float_lit(lo, col), hi: float_lit(hi, col) }
        }
        Column::Dict(dc) => {
            let (lo, hi) = (str_lit(lo, col), str_lit(hi, col));
            CompiledPred::DictSet {
                codes: dc.codes(),
                matches: Arc::new(dc.dict().codes_matching(|v| v >= lo && v <= hi)),
            }
        }
        Column::Str(sc) => CompiledPred::StrBetween {
            col: sc,
            lo: str_lit(lo, col).into(),
            hi: str_lit(hi, col).into(),
        },
        Column::Key { keys, .. } => {
            let lo = int_lit(lo, col).clamp(0, i64::from(u32::MAX)) as Key;
            let hi = int_lit(hi, col).clamp(0, i64::from(u32::MAX)) as Key;
            CompiledPred::KeyBetween { keys, lo, hi }
        }
    }
}

fn compile_in<'a>(table: &'a Table, col: &str, lits: &[Lit]) -> CompiledPred<'a> {
    match col_of(table, col) {
        Column::I32(data) => CompiledPred::I32In {
            data,
            set: lits.iter().filter_map(|l| i32::try_from(int_lit(l, col)).ok()).collect(),
        },
        Column::I64(data) => {
            CompiledPred::I64In { data, set: lits.iter().map(|l| int_lit(l, col)).collect() }
        }
        Column::Dict(dc) => {
            let wanted: Vec<&str> = lits.iter().map(|l| str_lit(l, col)).collect();
            CompiledPred::DictSet {
                codes: dc.codes(),
                matches: Arc::new(dc.dict().codes_matching(|v| wanted.contains(&v))),
            }
        }
        Column::Str(sc) => CompiledPred::StrIn {
            col: sc,
            set: lits.iter().map(|l| str_lit(l, col).into()).collect(),
        },
        other => panic!("IN list unsupported for column type {}", other.dtype()),
    }
}

/// Read access to one column payload by row position: a whole chunked
/// column (position = table-wide row index) or one segment's chunk
/// (position = segment-local offset).
pub trait Rows<T>: Copy + Debug {
    /// The value at position `i`.
    fn at(self, i: usize) -> T;
}

impl<T: ChunkValue> Rows<T> for &Chunked<T> {
    #[inline]
    fn at(self, i: usize) -> T {
        self.get(i)
    }
}

impl<T: ChunkValue> Rows<T> for ChunkRef<'_, T> {
    #[inline]
    fn at(self, i: usize) -> T {
        ChunkRef::at(&self, i)
    }
}

/// [`Rows`] for heap-backed string columns.
pub trait StrRows: Copy + Debug {
    /// The string at position `i`.
    fn str_at(&self, i: usize) -> &str;
}

impl StrRows for &StrColumn {
    #[inline]
    fn str_at(&self, i: usize) -> &str {
        self.get(i)
    }
}

impl StrRows for StrChunk<'_> {
    #[inline]
    fn str_at(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// What a compiled expression is bound to: [`Whole`] columns or the chunks
/// of one segment ([`InSegment`]). Chooses the column-handle types of
/// [`PredOver`] and [`MeasureOver`]; the evaluation code is shared.
pub trait Binding<'a>: Debug {
    /// Handle to a fixed-width column payload.
    type Of<T: ChunkValue>: Rows<T>;
    /// Handle to a string column.
    type Strs: StrRows;
}

/// Bound to whole columns: positions are table-wide row indexes.
#[derive(Debug)]
pub struct Whole;

/// Bound to one segment's chunks: positions are segment-local offsets.
#[derive(Debug)]
pub struct InSegment;

impl<'a> Binding<'a> for Whole {
    type Of<T: ChunkValue> = &'a Chunked<T>;
    type Strs = &'a StrColumn;
}

impl<'a> Binding<'a> for InSegment {
    type Of<T: ChunkValue> = ChunkRef<'a, T>;
    type Strs = StrChunk<'a>;
}

/// A predicate compiled against one table's columns, over binding `B`.
/// `eval(i)` is the per-row test used inside scan loops. Literal payloads
/// are `Arc`-held so re-binding per segment shares them.
#[derive(Debug)]
pub enum PredOver<'a, B: Binding<'a>> {
    /// Constant truth value.
    Const(bool),
    /// `i32` inclusive range.
    I32Between {
        /// Column data.
        data: B::Of<i32>,
        /// Lower bound.
        lo: i32,
        /// Upper bound.
        hi: i32,
    },
    /// `i32` membership (small lists: linear scan beats hashing).
    I32In {
        /// Column data.
        data: B::Of<i32>,
        /// Accepted values.
        set: Arc<[i32]>,
    },
    /// `i64` inclusive range.
    I64Between {
        /// Column data.
        data: B::Of<i64>,
        /// Lower bound.
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// `i64` membership.
    I64In {
        /// Column data.
        data: B::Of<i64>,
        /// Accepted values.
        set: Arc<[i64]>,
    },
    /// `f64` comparison.
    F64Cmp {
        /// Column data.
        data: B::Of<f64>,
        /// Operator.
        op: CmpOp,
        /// Literal.
        v: f64,
    },
    /// `f64` inclusive range.
    F64Between {
        /// Column data.
        data: B::Of<f64>,
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Key inclusive range.
    KeyBetween {
        /// Column data.
        keys: B::Of<Key>,
        /// Lower bound.
        lo: Key,
        /// Upper bound.
        hi: Key,
    },
    /// Dictionary equality: one code comparison per row.
    DictEq {
        /// Code array.
        codes: B::Of<Key>,
        /// The matching code ([`astore_storage::types::NULL_KEY`] if the
        /// value is absent, which matches nothing).
        code: Key,
    },
    /// Dictionary set membership: the string predicate was pre-evaluated per
    /// distinct value into a bitmap over codes.
    DictSet {
        /// Code array.
        codes: B::Of<Key>,
        /// Bitmap over codes.
        matches: Arc<Bitmap>,
    },
    /// Raw string comparison (no dictionary available).
    StrCmp {
        /// String column.
        col: B::Strs,
        /// Operator.
        op: CmpOp,
        /// Literal.
        v: Arc<str>,
    },
    /// Raw string inclusive range.
    StrBetween {
        /// String column.
        col: B::Strs,
        /// Lower bound.
        lo: Arc<str>,
        /// Upper bound.
        hi: Arc<str>,
    },
    /// Raw string membership.
    StrIn {
        /// String column.
        col: B::Strs,
        /// Accepted values.
        set: Arc<[Arc<str>]>,
    },
    /// Conjunction.
    And(Vec<PredOver<'a, B>>),
    /// Disjunction.
    Or(Vec<PredOver<'a, B>>),
    /// Negation.
    Not(Box<PredOver<'a, B>>),
}

/// A predicate bound to whole columns; `eval(row)` takes a table-wide row
/// index.
pub type CompiledPred<'a> = PredOver<'a, Whole>;

/// A predicate bound to one segment's chunks ([`CompiledPred::bind`]);
/// `eval(off)` takes a segment-local offset.
pub type SegPred<'a> = PredOver<'a, InSegment>;

impl<'a, B: Binding<'a>> PredOver<'a, B> {
    /// Evaluates the predicate on the row at position `i` (of the binding).
    #[inline]
    pub fn eval(&self, i: usize) -> bool {
        match self {
            PredOver::Const(b) => *b,
            PredOver::I32Between { data, lo, hi } => {
                let x = data.at(i);
                x >= *lo && x <= *hi
            }
            PredOver::I32In { data, set } => set.contains(&data.at(i)),
            PredOver::I64Between { data, lo, hi } => {
                let x = data.at(i);
                x >= *lo && x <= *hi
            }
            PredOver::I64In { data, set } => set.contains(&data.at(i)),
            PredOver::F64Cmp { data, op, v } => op.apply(data.at(i), *v),
            PredOver::F64Between { data, lo, hi } => {
                let x = data.at(i);
                x >= *lo && x <= *hi
            }
            PredOver::KeyBetween { keys, lo, hi } => {
                let k = keys.at(i);
                k >= *lo && k <= *hi
            }
            PredOver::DictEq { codes, code } => codes.at(i) == *code,
            PredOver::DictSet { codes, matches } => matches.get_or_false(codes.at(i) as usize),
            PredOver::StrCmp { col, op, v } => op.apply(col.str_at(i), v),
            PredOver::StrBetween { col, lo, hi } => {
                let s = col.str_at(i);
                s >= &**lo && s <= &**hi
            }
            PredOver::StrIn { col, set } => {
                let s = col.str_at(i);
                set.iter().any(|w| &**w == s)
            }
            PredOver::And(ps) => ps.iter().all(|p| p.eval(i)),
            PredOver::Or(ps) => ps.iter().any(|p| p.eval(i)),
            PredOver::Not(p) => !p.eval(i),
        }
    }
}

impl<'a> CompiledPred<'a> {
    /// Binds the predicate to segment `seg` of its table: every column
    /// handle becomes that segment's chunk, in whichever representation it
    /// is resident. Cheap (no row data or literal is copied); done once per
    /// scanned segment.
    pub fn bind(&self, seg: usize) -> SegPred<'a> {
        match self {
            PredOver::Const(b) => PredOver::Const(*b),
            PredOver::I32Between { data, lo, hi } => {
                PredOver::I32Between { data: data.chunk(seg), lo: *lo, hi: *hi }
            }
            PredOver::I32In { data, set } => {
                PredOver::I32In { data: data.chunk(seg), set: Arc::clone(set) }
            }
            PredOver::I64Between { data, lo, hi } => {
                PredOver::I64Between { data: data.chunk(seg), lo: *lo, hi: *hi }
            }
            PredOver::I64In { data, set } => {
                PredOver::I64In { data: data.chunk(seg), set: Arc::clone(set) }
            }
            PredOver::F64Cmp { data, op, v } => {
                PredOver::F64Cmp { data: data.chunk(seg), op: *op, v: *v }
            }
            PredOver::F64Between { data, lo, hi } => {
                PredOver::F64Between { data: data.chunk(seg), lo: *lo, hi: *hi }
            }
            PredOver::KeyBetween { keys, lo, hi } => {
                PredOver::KeyBetween { keys: keys.chunk(seg), lo: *lo, hi: *hi }
            }
            PredOver::DictEq { codes, code } => {
                PredOver::DictEq { codes: codes.chunk(seg), code: *code }
            }
            PredOver::DictSet { codes, matches } => {
                PredOver::DictSet { codes: codes.chunk(seg), matches: Arc::clone(matches) }
            }
            PredOver::StrCmp { col, op, v } => {
                PredOver::StrCmp { col: col.chunk(seg), op: *op, v: Arc::clone(v) }
            }
            PredOver::StrBetween { col, lo, hi } => {
                PredOver::StrBetween { col: col.chunk(seg), lo: Arc::clone(lo), hi: Arc::clone(hi) }
            }
            PredOver::StrIn { col, set } => {
                PredOver::StrIn { col: col.chunk(seg), set: Arc::clone(set) }
            }
            PredOver::And(ps) => PredOver::And(ps.iter().map(|p| p.bind(seg)).collect()),
            PredOver::Or(ps) => PredOver::Or(ps.iter().map(|p| p.bind(seg)).collect()),
            PredOver::Not(p) => PredOver::Not(Box::new(p.bind(seg))),
        }
    }

    /// The values of its one column the compiled test accepts, or `None`
    /// when it tests several columns or raw strings. Read from the compiled
    /// form, so every literal coercion the compiler applied — float
    /// literals truncated against integer columns, `BETWEEN` bounds clamped
    /// into the i32 domain, out-of-range literals folded, strings resolved
    /// to dictionary codes — is already in the interval. The zone survey,
    /// the encoded-scan seed and the selection estimate all read this one
    /// answer.
    pub fn accepts(&self) -> Option<Accepts> {
        let int = |lo: i64, hi: i64| Interval::Int { lo, hi };
        // The smallest interval holding every value (empty for none).
        let envelope = |vs: &mut dyn Iterator<Item = i64>| {
            let (lo, hi) = vs.fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
            int(lo, hi)
        };
        Some(match self {
            PredOver::Const(false) => Accepts::Exactly(Interval::EMPTY),
            // `<>` over integers compiles to the negated point.
            PredOver::Not(p) => match p.accepts()? {
                Accepts::Exactly(iv) => Accepts::AllBut(iv),
                _ => return None,
            },
            PredOver::F64Cmp { op, v, .. } => {
                let (lo, hi) = match op {
                    CmpOp::Eq | CmpOp::Ne => (*v, *v),
                    CmpOp::Lt | CmpOp::Le => (f64::NEG_INFINITY, *v),
                    CmpOp::Gt | CmpOp::Ge => (*v, f64::INFINITY),
                };
                match op {
                    CmpOp::Ne => Accepts::AllBut(Interval::Float { lo, hi }),
                    // A strict float bound is relaxed to an inclusive one.
                    CmpOp::Lt | CmpOp::Gt => Accepts::Within(Interval::Float { lo, hi }),
                    _ => Accepts::Exactly(Interval::Float { lo, hi }),
                }
            }
            PredOver::I32Between { lo, hi, .. } => {
                Accepts::Exactly(int((*lo).into(), (*hi).into()))
            }
            PredOver::I64Between { lo, hi, .. } => Accepts::Exactly(int(*lo, *hi)),
            PredOver::KeyBetween { lo, hi, .. } => {
                Accepts::Exactly(int((*lo).into(), (*hi).into()))
            }
            PredOver::F64Between { lo, hi, .. } => {
                Accepts::Exactly(Interval::Float { lo: *lo, hi: *hi })
            }
            PredOver::I32In { set, .. } => {
                Accepts::Within(envelope(&mut set.iter().map(|&v| i64::from(v))))
            }
            PredOver::I64In { set, .. } => Accepts::Within(envelope(&mut set.iter().copied())),
            // An absent value compiles to `NULL_KEY`, which no stored code
            // reaches.
            PredOver::DictEq { code, .. } => Accepts::Exactly(int((*code).into(), (*code).into())),
            // A string range over an order-preserving dictionary (and any
            // other set that is one run of codes) is exactly a code range.
            PredOver::DictSet { matches, .. } => {
                match envelope(&mut matches.iter_ones().map(|c| c as i64)) {
                    Interval::Int { lo, hi }
                        if lo <= hi && (hi - lo + 1) as usize != matches.count_ones() =>
                    {
                        Accepts::Within(int(lo, hi))
                    }
                    run => Accepts::Exactly(run),
                }
            }
            _ => return None,
        })
    }
}

/// An inclusive interval of one column's values. Integer, key and
/// dictionary-code columns are ordered over the logical `i64` domain (i32
/// widened, keys and codes as raw `u32`, in which
/// [`NULL_KEY`](astore_storage::types::NULL_KEY) is the largest value) —
/// the order the encodings preserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interval {
    /// Integer, key or dictionary-code values.
    Int {
        /// Smallest value (inclusive).
        lo: i64,
        /// Largest value (inclusive).
        hi: i64,
    },
    /// `f64` values.
    Float {
        /// Smallest value (inclusive).
        lo: f64,
        /// Largest value (inclusive).
        hi: f64,
    },
}

impl Interval {
    /// The interval that holds no value.
    pub const EMPTY: Interval = Interval::Int { lo: i64::MAX, hi: i64::MIN };

    /// Does the interval hold no value?
    pub fn is_empty(self) -> bool {
        match self {
            Interval::Int { lo, hi } => lo > hi,
            // A NaN bound holds nothing either.
            Interval::Float { lo, hi } => lo.partial_cmp(&hi).is_none_or(std::cmp::Ordering::is_gt),
        }
    }

    /// The bounds as floats (the estimates' domain).
    pub fn as_f64(self) -> (f64, f64) {
        match self {
            Interval::Int { lo, hi } => (lo as f64, hi as f64),
            Interval::Float { lo, hi } => (lo, hi),
        }
    }
}

/// Which values of its column a compiled test accepts
/// ([`CompiledPred::accepts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Accepts {
    /// Every value of the interval and no other: an integer one seeds the
    /// encoded scan.
    Exactly(Interval),
    /// No value outside the interval, not every value in it: an `IN`
    /// list's envelope, a strict float bound, a dictionary code set with
    /// gaps.
    Within(Interval),
    /// Every value outside the interval (`<>`).
    AllBut(Interval),
}

/// A measure expression evaluated per selected fact tuple during the
/// aggregation phase — e.g. TPC-H Q3's `l_extendedprice * (1 - l_discount)`.
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureExpr {
    /// A column of the (root) table the measure is bound against.
    Col(String),
    /// A constant.
    Const(f64),
    /// Addition.
    Add(Box<MeasureExpr>, Box<MeasureExpr>),
    /// Subtraction.
    Sub(Box<MeasureExpr>, Box<MeasureExpr>),
    /// Multiplication.
    Mul(Box<MeasureExpr>, Box<MeasureExpr>),
}

impl MeasureExpr {
    /// Convenience: a column reference.
    pub fn col(name: impl Into<String>) -> Self {
        MeasureExpr::Col(name.into())
    }

    /// Column names referenced by the expression.
    pub fn columns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            MeasureExpr::Col(c) => out.push(c),
            MeasureExpr::Const(_) => {}
            MeasureExpr::Add(a, b) | MeasureExpr::Sub(a, b) | MeasureExpr::Mul(a, b) => {
                a.collect(out);
                b.collect(out);
            }
        }
    }

    /// Rewrites every column reference through `f` (denormalized rebinding).
    pub fn map_columns(self, f: &impl Fn(&str) -> String) -> MeasureExpr {
        match self {
            MeasureExpr::Col(c) => MeasureExpr::Col(f(&c)),
            MeasureExpr::Const(v) => MeasureExpr::Const(v),
            MeasureExpr::Add(a, b) => {
                MeasureExpr::Add(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            MeasureExpr::Sub(a, b) => {
                MeasureExpr::Sub(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            MeasureExpr::Mul(a, b) => {
                MeasureExpr::Mul(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
        }
    }

    /// Compiles against a table into a per-row evaluator.
    pub fn compile<'a>(&self, table: &'a Table) -> CompiledMeasure<'a> {
        match self {
            MeasureExpr::Col(c) => {
                let col = col_of(table, c);
                match col {
                    Column::I32(d) => CompiledMeasure::I32(d),
                    Column::I64(d) => CompiledMeasure::I64(d),
                    Column::F64(d) => CompiledMeasure::F64(d),
                    other => panic!("measure column {c:?} must be numeric, got {}", other.dtype()),
                }
            }
            MeasureExpr::Const(v) => CompiledMeasure::Const(*v),
            MeasureExpr::Add(a, b) => {
                CompiledMeasure::Add(Box::new(a.compile(table)), Box::new(b.compile(table)))
            }
            MeasureExpr::Sub(a, b) => {
                CompiledMeasure::Sub(Box::new(a.compile(table)), Box::new(b.compile(table)))
            }
            MeasureExpr::Mul(a, b) => {
                CompiledMeasure::Mul(Box::new(a.compile(table)), Box::new(b.compile(table)))
            }
        }
    }
}

/// A compiled measure expression over binding `B` (see [`PredOver`]).
#[derive(Debug)]
pub enum MeasureOver<'a, B: Binding<'a>> {
    /// i32 column.
    I32(B::Of<i32>),
    /// i64 column.
    I64(B::Of<i64>),
    /// f64 column.
    F64(B::Of<f64>),
    /// Constant.
    Const(f64),
    /// Addition.
    Add(Box<MeasureOver<'a, B>>, Box<MeasureOver<'a, B>>),
    /// Subtraction.
    Sub(Box<MeasureOver<'a, B>>, Box<MeasureOver<'a, B>>),
    /// Multiplication.
    Mul(Box<MeasureOver<'a, B>>, Box<MeasureOver<'a, B>>),
}

/// A measure bound to whole columns; `eval(row)` takes a table-wide row
/// index.
pub type CompiledMeasure<'a> = MeasureOver<'a, Whole>;

/// A measure bound to one segment's chunks ([`CompiledMeasure::bind`]).
pub type SegMeasure<'a> = MeasureOver<'a, InSegment>;

impl<'a, B: Binding<'a>> MeasureOver<'a, B> {
    /// Evaluates the measure on the row at position `i` (of the binding).
    #[inline]
    pub fn eval(&self, i: usize) -> f64 {
        match self {
            MeasureOver::I32(d) => f64::from(d.at(i)),
            MeasureOver::I64(d) => d.at(i) as f64,
            MeasureOver::F64(d) => d.at(i),
            MeasureOver::Const(v) => *v,
            MeasureOver::Add(a, b) => a.eval(i) + b.eval(i),
            MeasureOver::Sub(a, b) => a.eval(i) - b.eval(i),
            MeasureOver::Mul(a, b) => a.eval(i) * b.eval(i),
        }
    }
}

impl<'a> CompiledMeasure<'a> {
    /// Binds the measure to segment `seg` of its table (see
    /// [`CompiledPred::bind`]).
    pub fn bind(&self, seg: usize) -> SegMeasure<'a> {
        let both = |a: &CompiledMeasure<'a>, b: &CompiledMeasure<'a>| {
            (Box::new(a.bind(seg)), Box::new(b.bind(seg)))
        };
        match self {
            MeasureOver::I32(d) => MeasureOver::I32(d.chunk(seg)),
            MeasureOver::I64(d) => MeasureOver::I64(d.chunk(seg)),
            MeasureOver::F64(d) => MeasureOver::F64(d.chunk(seg)),
            MeasureOver::Const(v) => MeasureOver::Const(*v),
            MeasureOver::Add(a, b) => {
                let (a, b) = both(a, b);
                MeasureOver::Add(a, b)
            }
            MeasureOver::Sub(a, b) => {
                let (a, b) = both(a, b);
                MeasureOver::Sub(a, b)
            }
            MeasureOver::Mul(a, b) => {
                let (a, b) = both(a, b);
                MeasureOver::Mul(a, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astore_storage::prelude::*;

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("qty", DataType::I32),
            ColumnDef::new("price", DataType::I64),
            ColumnDef::new("disc", DataType::F64),
            ColumnDef::new("region", DataType::Dict),
            ColumnDef::new("note", DataType::Str),
        ]);
        let mut t = Table::new("t", schema);
        let regions = ["ASIA", "EUROPE", "ASIA", "AMERICA", "AFRICA"];
        for i in 0..5i64 {
            t.append_row(&[
                Value::Int(i * 10),
                Value::Int(1000 + i),
                Value::Float(i as f64 / 10.0),
                Value::Str(regions[i as usize].into()),
                Value::Str(format!("note{i}")),
            ]);
        }
        t
    }

    #[test]
    fn int_comparisons() {
        let t = table();
        let p = Pred::cmp("qty", CmpOp::Ge, 20).compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![2, 3, 4]);

        let p = Pred::between("price", 1001i64, 1003i64).compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![1, 2, 3]);

        let p = Pred::in_list("qty", vec![0, 40]).compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![0, 4]);
    }

    #[test]
    fn float_comparisons() {
        let t = table();
        let p = Pred::between("disc", 0.1, 0.3).compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn dict_eq_compiles_to_code_compare() {
        let t = table();
        let p = Pred::eq("region", "ASIA").compile(&t);
        assert!(matches!(p, CompiledPred::DictEq { .. }));
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![0, 2]);
    }

    #[test]
    fn dict_eq_missing_value_matches_nothing() {
        let t = table();
        let p = Pred::eq("region", "ATLANTIS").compile(&t);
        assert_eq!((0..5).filter(|&r| p.eval(r)).count(), 0);
    }

    #[test]
    fn dict_in_and_range_use_code_bitmaps() {
        let t = table();
        let p = Pred::in_list("region", vec!["ASIA", "AFRICA"]).compile(&t);
        assert!(matches!(p, CompiledPred::DictSet { .. }));
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![0, 2, 4]);

        let p = Pred::between("region", "AFRICA", "ASIA").compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![0, 2, 3, 4]);
    }

    #[test]
    fn raw_string_predicates() {
        let t = table();
        let p = Pred::eq("note", "note3").compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![3]);
        let p = Pred::in_list("note", vec!["note0", "note4"]).compile(&t);
        assert_eq!((0..5).filter(|&r| p.eval(r)).count(), 2);
    }

    #[test]
    fn boolean_algebra() {
        let t = table();
        let p = Pred::eq("region", "ASIA").and(Pred::cmp("qty", CmpOp::Gt, 0)).compile(&t);
        let hits: Vec<usize> = (0..5).filter(|&r| p.eval(r)).collect();
        assert_eq!(hits, vec![2]);

        let p = Pred::Or(vec![Pred::eq("qty", 0), Pred::eq("qty", 40)]).compile(&t);
        assert_eq!((0..5).filter(|&r| p.eval(r)).count(), 2);

        let p = Pred::Not(Box::new(Pred::eq("region", "ASIA"))).compile(&t);
        assert_eq!((0..5).filter(|&r| p.eval(r)).count(), 3);
    }

    #[test]
    fn conjunct_flattening() {
        let p = Pred::eq("a", 1).and(Pred::eq("b", 2)).and(Pred::eq("c", 3));
        assert_eq!(p.conjuncts().len(), 3);
        assert_eq!(Pred::Const(true).and(Pred::eq("x", 1)), Pred::eq("x", 1));
    }

    #[test]
    fn columns_listed() {
        let p = Pred::eq("a", 1).and(Pred::Or(vec![Pred::eq("b", 2), Pred::eq("a", 3)]));
        assert_eq!(p.columns(), vec!["a", "b"]);
    }

    #[test]
    fn eval_bitmap_skips_dead_rows() {
        let mut t = table();
        t.delete(2);
        let bm = Pred::eq("region", "ASIA").eval_bitmap(&t);
        let hits: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(hits, vec![0]);
    }

    #[test]
    fn out_of_range_literal_constant_folds() {
        let t = table();
        let p = Pred::cmp("qty", CmpOp::Lt, 1i64 << 40).compile(&t);
        assert!(matches!(p, CompiledPred::Const(true)));
        let p = Pred::cmp("qty", CmpOp::Gt, 1i64 << 40).compile(&t);
        assert!(matches!(p, CompiledPred::Const(false)));
    }

    #[test]
    fn measure_expression_arithmetic() {
        let t = table();
        // price * (1 - disc)
        let m = MeasureExpr::Mul(
            Box::new(MeasureExpr::col("price")),
            Box::new(MeasureExpr::Sub(
                Box::new(MeasureExpr::Const(1.0)),
                Box::new(MeasureExpr::col("disc")),
            )),
        );
        assert_eq!(m.columns(), vec!["disc", "price"]);
        let c = m.compile(&t);
        assert!((c.eval(0) - 1000.0).abs() < 1e-9);
        assert!((c.eval(2) - 1002.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn map_columns_rewrites_references() {
        let p = Pred::eq("a", 1).and(Pred::Or(vec![
            Pred::between("b", 1, 2),
            Pred::Not(Box::new(Pred::in_list("c", vec![3]))),
        ]));
        let renamed = p.map_columns(&|c| format!("t_{c}"));
        assert_eq!(renamed.columns(), vec!["t_a", "t_b", "t_c"]);

        let m = MeasureExpr::Mul(
            Box::new(MeasureExpr::col("x")),
            Box::new(MeasureExpr::Add(
                Box::new(MeasureExpr::Const(1.0)),
                Box::new(MeasureExpr::Sub(
                    Box::new(MeasureExpr::col("y")),
                    Box::new(MeasureExpr::Const(2.0)),
                )),
            )),
        );
        assert_eq!(m.map_columns(&|c| format!("w_{c}")).columns(), vec!["w_x", "w_y"]);
    }

    #[test]
    #[should_panic(expected = "must be numeric")]
    fn measure_on_string_column_panics() {
        let t = table();
        MeasureExpr::col("note").compile(&t);
    }
}
