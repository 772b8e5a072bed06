//! # astore-persist
//!
//! Durability for A-Store (conf_icde_ZhangZZZSW16): the paper's engine is
//! main-memory only, so this crate adds the two classic pieces that turn it
//! into a restartable system —
//!
//! - [`snapshot`] — a versioned, checksummed on-disk **columnar snapshot**
//!   of a whole [`Database`](astore_storage::catalog::Database): typed
//!   arrays, AIR key columns, dictionaries, string heaps, delete vectors
//!   and free-slot lists, reproduced exactly so array-index primary keys
//!   survive a round trip;
//! - [`wal`] — a CRC-framed, fsync-on-commit **write-ahead log** of the
//!   validated write statements (`INSERT`/`UPDATE`/`DELETE`), with
//!   torn-tail truncation so recovery always yields a prefix of the
//!   acknowledged writes;
//! - [`apply`] — the validated application of a bound write, shared by the
//!   serving engine's group commit and by WAL replay (one code path,
//!   identical results);
//! - [`store`] — data-directory orchestration: `bootstrap` → `open`
//!   (recover) → `write_checkpoint` (then [`Wal::truncate_through`]),
//!   crash-safe at every step via atomic renames and LSN-gated replay.
//!
//! Everything is `std`-only and panic-free on corrupt input: a damaged file
//! is an [`PersistError`], never a crash or silently wrong data.
//!
//! ## Example
//!
//! ```
//! use astore_persist::{store, wal::Wal};
//! use astore_storage::prelude::*;
//!
//! let dir = std::env::temp_dir().join(format!("astore-doc-{}", std::process::id()));
//! let mut db = Database::new();
//! let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("v", DataType::I64)]));
//! t.append_row(&[Value::Int(7)]);
//! db.add_table(t);
//!
//! // Bootstrap a data directory, log one write, crash (drop), recover.
//! let mut wal = store::bootstrap(&dir, &db).unwrap();
//! wal.append("INSERT INTO t VALUES (35)").unwrap();
//! drop(wal);
//! let recovered = store::open(&dir).unwrap();
//! assert_eq!(recovered.replayed, 1);
//! assert_eq!(recovered.db.table("t").unwrap().num_live(), 2);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
// One exception: the call of the CRC fold after CPU detection (`crc.rs`).
#![deny(unsafe_code)]

pub mod apply;
pub mod crc;
pub mod snapshot;
pub mod store;
pub mod wal;
mod wire;

pub use apply::apply_statement;
pub use snapshot::{load_snapshot, save_snapshot, SNAPSHOT_VERSION};
pub use store::{bootstrap, open, write_checkpoint, Recovered};
pub use wal::{Wal, WalRecord};

/// Errors of the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file's bytes are damaged or inconsistent (bad magic, checksum
    /// mismatch, truncation, out-of-range structure).
    Corrupt(String),
    /// The file was written by an incompatible format version.
    Version {
        /// Version found in the file header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt file: {m}"),
            PersistError::Version { found, expected } => {
                write!(f, "format version {found} is not the supported version {expected}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}
