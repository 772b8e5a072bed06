//! # astore-core
//!
//! **A-Store**: a main-memory OLAP engine built on *virtual denormalization
//! via array index reference (AIR)*, reproducing Zhang et al. (ICDE/TKDE
//! 2016).
//!
//! The engine executes SPJGA (Select-Project-Join-Group-Aggregate) queries
//! over star and snowflake schemas without running a single join operator:
//! foreign keys are array indexes into dimension tables (see
//! `astore-storage`), so the whole schema forms a *virtual universal table*
//! that is simply scanned. Execution is three phases (paper §3):
//!
//! 1. **Scan & filter** — a vectorized column scan of the fact table,
//!    probing per-dimension *predicate vectors* (§4.2) through the foreign
//!    keys;
//! 2. **Grouping** — *group vectors* map dimension rows to group ids; the
//!    per-tuple aggregation cell goes into the *Measure Index* (§4.3);
//! 3. **Aggregation** — measure columns are scanned through the Measure
//!    Index into a dense multidimensional aggregation array (or a hash
//!    table when the array would be too sparse).
//!
//! Phases 2–3 run one fact segment at a time, the array lookups through
//! the vectorised [`kernels`] (AVX2 where the CPU has it, scalar
//! otherwise). Multicore execution (§5) is morsel-driven: a shared atomic
//! cursor hands out fixed-size fact-table row ranges to workers that share
//! the phase-1 artifacts read-only, each fold their morsels into one
//! private aggregation table, and merge those tables once; the workers
//! beside the statement's own thread are resident helpers that park between
//! statements (see [`parallel`]).
//!
//! ## Quick example
//!
//! ```
//! use astore_storage::prelude::*;
//! use astore_core::prelude::*;
//!
//! // Schema: lineorder -> date (AIR foreign key).
//! let mut date = Table::new("date", Schema::new(vec![
//!     ColumnDef::new("d_year", DataType::I32),
//! ]));
//! for y in [1992, 1993] { date.append_row(&[Value::Int(y)]); }
//!
//! let mut lineorder = Table::new("lineorder", Schema::new(vec![
//!     ColumnDef::new("lo_dk", DataType::Key { target: "date".into() }),
//!     ColumnDef::new("lo_revenue", DataType::I64),
//! ]));
//! for (d, r) in [(0u32, 10i64), (1, 20), (0, 30)] {
//!     lineorder.append_row(&[Value::Key(d), Value::Int(r)]);
//! }
//!
//! let mut db = Database::new();
//! db.add_table(date);
//! db.add_table(lineorder);
//!
//! // SELECT d_year, SUM(lo_revenue) FROM lineorder, date
//! // WHERE lo_dk = d_datekey GROUP BY d_year ORDER BY d_year;
//! let q = Query::new()
//!     .group("date", "d_year")
//!     .agg(Aggregate::sum(MeasureExpr::col("lo_revenue"), "revenue"))
//!     .order(OrderKey::asc("d_year"));
//! let out = execute(&db, &q, &ExecOptions::default()).unwrap();
//! assert_eq!(out.result.rows.len(), 2);
//! assert_eq!(out.result.rows[0], vec![Value::Int(1992), Value::Float(40.0)]);
//! ```

#![warn(missing_docs)]
// `deny`, not `forbid`: there are three sanctioned exceptions, each a scoped
// `#[allow(unsafe_code)]` with a SAFETY argument per block — the SSE2 wide
// path of the packed-segment scan kernel in `filter.rs`; the AVX2 gather
// kernels of the fact scan, confined to the private `avx2` module of
// `kernels.rs` (every gather index is clamped into its array first; the
// safe wrappers own the length checks the intrinsics rely on); and the one
// lifetime erasure in `parallel::Crew::run`, which lends a statement's
// borrowed closure to resident helper threads (a completion guard, dropped
// on every path out of `run` before anything the closure borrows, proves
// what the erased lifetime no longer states: each helper that was handed
// the closure has returned from it). Everything else stays safe.
#![deny(unsafe_code)]

pub mod agg;
pub mod air_join;
pub mod analyze;
pub mod exec;
pub mod expr;
pub mod filter;
pub mod groupvec;
pub mod kernels;
pub mod optimizer;
pub mod parallel;
pub mod query;
pub mod result;
pub mod scan;
pub mod universal;
pub mod zone;

pub use parallel::host_cores;

/// Convenient glob import of the engine's public surface.
pub mod prelude {
    pub use crate::analyze::render_analyze;
    pub use crate::exec::{
        execute, ExecOptions, ExecOutput, ExecutorInfo, PhaseTimings, PlanInfo, ScanVariant,
        SelectionStrategy,
    };
    pub use crate::expr::{CmpOp, Lit, MeasureExpr, Pred};
    pub use crate::optimizer::{AggStrategy, OptimizerConfig};
    pub use crate::parallel::{MorselDispatcher, DEFAULT_MORSEL_ROWS};
    pub use crate::query::{AggFunc, Aggregate, ColRef, OrderKey, Query, SortOrder};
    pub use crate::result::QueryResult;
    pub use crate::universal::{BindError, Universal};
    pub use crate::zone::SegmentSurvey;
}
