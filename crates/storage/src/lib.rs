//! # astore-storage
//!
//! The storage layer of **A-Store**, a main-memory OLAP engine built on
//! *virtual denormalization via array index reference* (Zhang et al.,
//! ICDE/TKDE 2016).
//!
//! A table is an **array family**: a set of equal-length arrays, one per
//! column, completely aligned so the `i`-th elements of all arrays form the
//! `i`-th tuple (paper §2). The array index *is* the primary key — no key
//! column is stored — and every foreign key column is an **array index
//! reference (AIR)**: an array of `u32` positions into the referenced
//! table. PK-FK joins thus reduce to positional array lookups.
//!
//! Provided building blocks:
//!
//! - [`column::Column`] — typed arrays (`i32`/`i64`/`f64`), heap-backed
//!   varchars ([`strings::StrColumn`]), dictionary-compressed strings
//!   ([`dictionary::DictColumn`]), and AIR key arrays;
//! - [`chunks::Chunked`] — the physical form of every array: one
//!   `Arc`-held chunk per table segment, the unit of copy-on-write
//!   ownership, resident either flat or in its compressed encoding
//!   ([`encoded`]), never both; the flat form is an
//!   [`appendbuf::AppendBuf`], so appends fill space reserved behind the
//!   tail instead of copying it;
//! - [`bitmap::Bitmap`] — predicate vectors (§4.2) and delete vectors (§4.4;
//!   per-segment as [`bitmap::SegBitmap`]);
//! - [`selvec::SelVec`] — selection vectors for the vectorized column scan
//!   (§4.1);
//! - [`table::Table`] — the array family plus lazy deletion, slot reuse,
//!   in-place update and compaction (§4.4), partitioned into fixed-size
//!   segments;
//! - [`segment::SegmentZone`] — per-segment zone maps (min/max statistics,
//!   NULL/live counts) maintained incrementally, the basis of segment
//!   skipping in the scan layer;
//! - [`catalog::Database`] — named tables, referential validation, and
//!   consolidation; each image owns its [`graph::JoinGraph`] (paper §3: the
//!   AIR edges, roots and reference paths), rebuilt when a table is added
//!   and shared by every clone;
//! - [`snapshot::SharedDatabase`] — copy-on-write snapshots isolating OLAP
//!   readers from concurrent updates (§4.4): a write copies the chunks of
//!   the segments it touches, never the table.
//!
//! ## Example
//!
//! ```
//! use astore_storage::prelude::*;
//!
//! // A dimension table: the array index is the primary key.
//! let mut date = Table::new(
//!     "date",
//!     Schema::new(vec![
//!         ColumnDef::new("d_year", DataType::I32),
//!         ColumnDef::new("d_month", DataType::Dict),
//!     ]),
//! );
//! date.append_row(&[Value::Int(1997), Value::Str("May".into())]);
//! date.append_row(&[Value::Int(1998), Value::Str("June".into())]);
//!
//! // A fact table whose foreign key is an array index reference (AIR).
//! let mut lineorder = Table::new(
//!     "lineorder",
//!     Schema::new(vec![
//!         ColumnDef::new("lo_dk", DataType::Key { target: "date".into() }),
//!         ColumnDef::new("lo_revenue", DataType::I64),
//!     ]),
//! );
//! lineorder.append_row(&[Value::Key(1), Value::Int(420)]);
//!
//! let mut db = Database::new();
//! db.add_table(date);
//! db.add_table(lineorder);
//! assert!(db.validate_references().is_empty());
//!
//! // Following the AIR resolves the join positionally.
//! let (_, keys) = db.table("lineorder").unwrap().column("lo_dk").unwrap().as_key().unwrap();
//! let year = db.table("date").unwrap().column("d_year").unwrap().get(keys.get(0) as usize);
//! assert_eq!(year, Value::Int(1998));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)] // `appendbuf` opts back in explicitly

pub mod appendbuf;
pub mod bitmap;
pub mod catalog;
pub mod chunks;
pub mod column;
pub mod dictionary;
pub mod encoded;
pub mod graph;
pub mod segment;
pub mod selvec;
pub mod snapshot;
pub mod strings;
pub mod table;
pub mod types;

/// Convenient glob import of the commonly used names.
pub mod prelude {
    pub use crate::bitmap::{Bitmap, SegBitmap};
    pub use crate::catalog::{checked_key, Database};
    pub use crate::chunks::{Chunk, ChunkRef, Chunked, ChunkedBuilder, Geometry};
    pub use crate::column::Column;
    pub use crate::dictionary::{DictColumn, Dictionary};
    pub use crate::encoded::{ChunkValue, EncodedColumn, PackedInts, RleInts};
    pub use crate::graph::{AirEdge, JoinGraph, RefPath};
    pub use crate::segment::{SegmentZone, ZoneStats, SEGMENT_ROWS};
    pub use crate::selvec::SelVec;
    pub use crate::snapshot::SharedDatabase;
    pub use crate::strings::{StrColumn, StrHeap, StrRef};
    pub use crate::table::{ColumnDef, Schema, SegmentEncoding, Table};
    pub use crate::types::{DataType, Key, RowId, Value, NULL_KEY};
}
