//! What a boot holds, counted by the allocator.
//!
//! - **(a) A cold boot holds what a warm boot holds.** The live heap of
//!   `ssb::generate(0.05, 42)` is within 2 % of the live heap of the same
//!   database decoded from its snapshot: generation leaves nothing behind —
//!   no dictionary at its input's capacity, no per-row strings.
//! - **(b) Saving and loading never hold the data twice.** The peak live
//!   heap while `save_snapshot` writes, or `load_snapshot` reads, a file is
//!   at most the database plus two of the file's largest segment blocks.
//! - **(c) Neither does an incremental checkpoint** (`write_checkpoint`
//!   over a file it copies clean blocks from).
//!
//! The counting allocator is this test binary's alone (one process), and
//! counts per thread, so the tests may run side by side.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use astore_datagen::ssb;
use astore_persist::snapshot::{
    decode_snapshot, encode_snapshot, index_snapshot_segments, load_snapshot, save_snapshot,
};
use astore_persist::store;
use astore_storage::types::Value;

thread_local! {
    /// Live heap bytes of the current thread (allocated minus freed here).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `LIVE` since the last [`measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator plus per-thread live and peak counters.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals without destructors, which
// neither allocate nor run after the thread's storage is gone. `realloc` is
// the trait's default (alloc, copy, dealloc), so a move is counted with
// both buffers alive, as it is.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.with(|l| {
            l.set(l.get() + layout.size() as isize);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|l| l.set(l.get() - layout.size() as isize));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f`; returns its result, the bytes it left live (its result
/// included) and the most it held live at once, both counted from the
/// moment it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    let (live, peak) = (LIVE.with(Cell::get), PEAK.with(Cell::get));
    (out, (live - start).max(0) as usize, (peak - start) as usize)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("astore-boot-mem-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Bytes of the largest framed segment block of the snapshot at `path`.
fn largest_block(path: &Path) -> usize {
    let index = index_snapshot_segments(std::fs::File::open(path).unwrap()).unwrap();
    index.largest_block()
}

const SF: f64 = 0.05;

#[test]
fn a_generated_database_holds_what_its_decoded_image_holds() {
    let (db, generated, _) = measure(|| ssb::generate(SF, 42));
    let bytes = encode_snapshot(&db, 0);
    drop(db);
    let (back, decoded, _) = measure(|| decode_snapshot(&bytes).unwrap().0);
    drop(back);
    let gap = generated.abs_diff(decoded) as f64 / decoded as f64;
    assert!(
        gap <= 0.02,
        "generated image {generated} B vs decoded image {decoded} B: {:.2} % apart",
        gap * 100.0
    );
}

#[test]
fn save_and_load_hold_one_block_beside_the_data() {
    let dir = tmpdir("save-load");
    let path = dir.join("db.snapshot");
    let db = ssb::generate(SF, 42);
    let (_, _, save_peak) = measure(|| save_snapshot(&db, &path).unwrap());
    let block = largest_block(&path);
    let file = std::fs::metadata(&path).unwrap().len() as usize;
    assert!(block * 3 < file, "the bound must be able to tell: block {block} B, file {file} B");
    assert!(
        save_peak <= 2 * block,
        "save held {save_peak} B beside the database; largest block {block} B, file {file} B"
    );
    drop(db);
    let (db, resident, load_peak) = measure(|| load_snapshot(&path).unwrap());
    assert!(
        load_peak <= resident + 2 * block,
        "load peaked at {load_peak} B for a {resident} B database; largest block {block} B"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_incremental_checkpoint_holds_one_block_beside_the_data() {
    let dir = tmpdir("checkpoint");
    let mut db = ssb::generate(SF, 42);
    drop(store::bootstrap(&dir, &db).unwrap());
    // The image is now the one the file holds; dirty one fact segment.
    for name in db.table_names().to_vec() {
        db.table_mut(&name).unwrap().mark_segments_clean();
    }
    db.table_mut("lineorder").unwrap().update(70_000, "lo_quantity", &Value::Int(7));
    let (_, _, peak) = measure(|| store::write_checkpoint(&dir, &db, 1).unwrap());
    let path = store::snapshot_path(&dir);
    let block = largest_block(&path);
    assert!(peak <= 2 * block, "checkpoint held {peak} B beside the database; block {block} B");
    // The clean blocks it copied and the one it encoded make the file a
    // full encode would.
    assert_eq!(std::fs::read(&path).unwrap(), encode_snapshot(&db, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}
