//! Every snapshot byte is checksummed once, counted by the CRC itself
//! (`astore_persist::crc::bytes_hashed`, per thread).
//!
//! A version-3 file nests three checksums — each encoded column block's,
//! each segment payload's, the file's — and hashing each level over its
//! bytes read an encoded byte three times. Saving, loading and an
//! incremental checkpoint of a SF 0.02 database must now each hash exactly
//! the file's bytes before its trailing CRC: blocks are hashed once and
//! enter the outer checksums by value, and a block copied from the previous
//! file is checked once, on the way in.
//!
//! Alone in its process so nothing else hashes on its thread.

use astore_datagen::ssb;
use astore_persist::crc::bytes_hashed;
use astore_persist::snapshot::{encode_snapshot_with_prev, index_snapshot_segments};
use astore_persist::store;
use astore_storage::types::Value;

/// Runs `f`; returns its result and the bytes it checksummed.
fn hashed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = bytes_hashed();
    let out = f();
    (out, bytes_hashed() - before)
}

#[test]
fn save_load_and_checkpoint_hash_each_byte_once() {
    let dir = std::env::temp_dir().join(format!("astore-hashed-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = store::snapshot_path(&dir);
    let file_len = || std::fs::metadata(&path).unwrap().len();
    let db = ssb::generate(0.02, 42);

    let (wal, saved) = hashed(|| store::bootstrap(&dir, &db).unwrap());
    drop(wal);
    assert_eq!(saved, file_len() - 4, "save: every byte before the trailer, once");

    let (rec, loaded) = hashed(|| store::open(&dir).unwrap());
    assert_eq!(loaded, file_len() - 4, "load: every byte before the trailer, once");

    // Dirty one fact segment: the checkpoint encodes it and copies the rest.
    let mut db = rec.db;
    db.table_mut("lineorder").unwrap().update(70_000, "lo_quantity", &Value::Int(7));
    let mut index = index_snapshot_segments(std::fs::File::open(&path).unwrap()).unwrap();
    let ((bytes, reused), in_memory) =
        hashed(|| encode_snapshot_with_prev(&db, 1, Some(&mut index)));
    assert!(reused > 0 && reused < index.len(), "{reused} of {} blocks reused", index.len());
    assert_eq!(in_memory, bytes.len() as u64 - 4, "a reused block is hashed once");

    let (_, checkpointed) = hashed(|| store::write_checkpoint(&dir, &db, 1).unwrap());
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the file the in-memory writer makes");
    assert_eq!(checkpointed, file_len() - 4, "checkpoint: every byte before the trailer, once");
    eprintln!(
        "{} B file: save {saved}, load {loaded}, checkpoint {checkpointed} bytes hashed",
        file_len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
