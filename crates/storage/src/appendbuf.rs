//! The append-only buffer under a flat chunk — the crate's only `unsafe`.
//!
//! "A-Store preserves a certain proportion of free space at the end of each
//! array" (paper §4.4) so that an insert writes into space that is already
//! there. An [`AppendBuf`] is that array for one (column, segment): a
//! fixed-capacity allocation whose written rows never change and whose next
//! free slot can be written **through a shared reference**, so the image a
//! writer is building and every published snapshot keep sharing one
//! allocation while the writer extends it.
//!
//! The buffer does not know how many rows a given holder may see — each
//! holder ([`crate::chunks::Chunked`]) carries its own length and reads the
//! prefix [`AppendBuf::prefix`] hands it. Appending is
//! [`AppendBuf::try_push`]`(len, value)`: "I see `len` rows; make `value`
//! row `len`". It succeeds only if the buffer holds exactly `len` rows, so
//!
//! - exactly one lineage extends a buffer: of two clones that both see `len`
//!   rows, the first to append wins slot `len`; the other's exchange fails
//!   and it copies its prefix elsewhere (as does a holder whose clone
//!   appended and was then thrown away — the orphaned rows stay in the
//!   buffer, beyond every length anybody still holds);
//! - a row, once written, is never written again, so a snapshot's prefix is
//!   immutable without any copy having been taken.
//!
//! Overwriting a row needs `&mut` access ([`AppendBuf::written_mut`]), which
//! callers get through `Arc::get_mut` — that is, only when no snapshot
//! shares the buffer: value writes stay copy-on-write.

#![allow(unsafe_code)]

use std::fmt;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-capacity array of `T` that grows by appending through `&self`
/// (see the module docs). `T: Copy`, so rows need no drop and a torn-down
/// buffer frees one allocation.
pub struct AppendBuf<T> {
    /// Start of an allocation of `cap` slots obtained from a `Vec<T>`.
    ptr: NonNull<T>,
    cap: usize,
    /// `2 × rows written`, plus `1` while the winner of the exchange in
    /// [`AppendBuf::try_push`] is writing the next slot. Only ever grows.
    /// The `Release` store that ends an append pairs with the `Acquire`
    /// loads in `prefix`/`len`: whoever observes `rows ≥ n` also observes
    /// the contents of slots `0..n`.
    state: AtomicUsize,
}

// SAFETY: the buffer owns its allocation (`ptr` is not aliased by anything
// outside it) and `T: Copy` values carry no drop glue, so moving the buffer
// to another thread moves plain `Send` data.
unsafe impl<T: Copy + Send> Send for AppendBuf<T> {}
// SAFETY: through `&self` a slot is written at most once, by the unique
// winner of the compare-exchange from `2 × slot`, and read only below a row
// count loaded with `Acquire` after the writer's `Release` store — so no
// slot is ever read and written concurrently, and `&T`s are handed out to
// several threads only for published rows (hence `T: Sync`; `T: Send`
// because a row pushed on one thread is copied out on another).
unsafe impl<T: Copy + Send + Sync> Sync for AppendBuf<T> {}

impl<T: Copy> AppendBuf<T> {
    /// An empty buffer with room for at least `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        Vec::with_capacity(cap).into()
    }

    /// Rows the buffer has room for, written or not.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Rows written so far. A holder's own length may be smaller (it was
    /// cloned before later appends) but never larger.
    #[inline]
    pub fn len(&self) -> usize {
        self.state.load(Ordering::Acquire) >> 1
    }

    /// Returns `true` if no row was written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `len` rows.
    ///
    /// # Panics
    /// Panics if fewer than `len` rows were written.
    #[inline]
    pub fn prefix(&self, len: usize) -> &[T] {
        assert!(len <= self.len(), "prefix of {len} rows out of an append buffer holding fewer");
        // SAFETY: `len` rows were written and published (the `Acquire` load
        // in `self.len()` pairs with the `Release` store that followed the
        // write of row `len - 1`), lie inside the allocation (`len ≤ cap`),
        // and are never written again through `&self`; `&mut self` access
        // cannot coexist with the returned borrow.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), len) }
    }

    /// Appends `value` as row `len` — if and only if the buffer holds
    /// exactly `len` rows and has room for one more. On `false` nothing was
    /// written: the caller saw a stale length (another lineage extended the
    /// buffer first) or the reserved space is used up, and must copy its
    /// prefix into a buffer of its own.
    #[inline]
    pub fn try_push(&self, len: usize, value: T) -> bool {
        if len >= self.cap {
            return false;
        }
        // Claim slot `len`: from "`len` rows, idle" to "`len` rows, busy".
        // `Acquire` orders this append after the one that published row
        // `len - 1`; a lost exchange publishes nothing (`Relaxed`).
        if self
            .state
            .compare_exchange(2 * len, 2 * len + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        // SAFETY: `len < cap`, so the slot is inside the allocation. The
        // exchange succeeds once per value of `len` (the state only grows),
        // so this is the only write slot `len` ever gets through `&self`,
        // and no reader touches it before the `Release` store below makes
        // the row count exceed `len`.
        unsafe { self.ptr.as_ptr().add(len).write(value) };
        self.state.store(2 * (len + 1), Ordering::Release);
        true
    }

    /// All written rows, for overwriting in place — exclusive access proves
    /// no snapshot shares the buffer.
    #[inline]
    pub fn written_mut(&mut self) -> &mut [T] {
        // No append can be in flight while `&mut self` exists, so the busy
        // bit is clear and the state is exactly `2 × rows`.
        let len = *self.state.get_mut() >> 1;
        // SAFETY: `len` rows were written, inside the allocation, and
        // `&mut self` excludes every other access for the borrow's life.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), len) }
    }
}

impl<T: Copy> From<Vec<T>> for AppendBuf<T> {
    /// Adopts the vector's allocation — rows, spare capacity and all —
    /// without copying.
    fn from(v: Vec<T>) -> Self {
        // A zero-sized row has no slot to claim (and `2 × len` no bound).
        const { assert!(std::mem::size_of::<T>() > 0, "append buffers hold sized rows") };
        let mut v = ManuallyDrop::new(v);
        let ptr = NonNull::new(v.as_mut_ptr()).expect("a Vec's pointer is never null");
        AppendBuf { ptr, cap: v.capacity(), state: AtomicUsize::new(2 * v.len()) }
    }
}

impl<T> Drop for AppendBuf<T> {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`cap` came from a `Vec<T>` that was never dropped
        // (both constructors), and length 0 is always valid: rows are
        // `Copy`, there is nothing to drop but the allocation itself.
        drop(unsafe { Vec::from_raw_parts(self.ptr.as_ptr(), 0, self.cap) });
    }
}

impl<T> fmt::Debug for AppendBuf<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppendBuf")
            .field("len", &(self.state.load(Ordering::Relaxed) >> 1))
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::marker::PhantomData;
    use std::sync::{Arc, Barrier};

    #[test]
    fn appends_extend_the_prefix_and_leave_older_prefixes_alone() {
        let buf = AppendBuf::with_capacity(4);
        assert!(buf.is_empty() && buf.capacity() >= 4);
        assert_eq!(buf.prefix(0), &[] as &[i64], "the zero-length prefix of an empty buffer");
        assert!(buf.try_push(0, 10));
        let one = buf.prefix(1);
        assert!(buf.try_push(1, 20));
        assert_eq!(one, [10], "a prefix taken earlier is unchanged by a later append");
        assert_eq!(buf.prefix(2), [10, 20]);
        assert_eq!(buf.prefix(0), []);
        assert_eq!(buf.len(), 2);
        assert!(format!("{buf:?}").contains("len: 2"));
    }

    #[test]
    fn a_lost_exchange_writes_nothing() {
        let mut v = Vec::with_capacity(8);
        v.extend([1, 2, 3, 4]);
        let buf: AppendBuf<i32> = v.into();
        // A holder that still sees 2 rows — or one that claims to see more
        // than exist — is not the one lineage entitled to extend the buffer.
        assert!(!buf.try_push(2, -1));
        assert!(!buf.try_push(5, -1));
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.prefix(4), [1, 2, 3, 4]);
        assert!(buf.try_push(4, 5), "the holder that sees every row extends it");
        assert!(!buf.try_push(4, -1), "once");
        assert_eq!(buf.prefix(5), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn an_exhausted_buffer_writes_nothing() {
        let mut v = Vec::with_capacity(3);
        v.extend([7u32, 8]);
        let cap = v.capacity();
        let buf: AppendBuf<u32> = v.into();
        for row in 2..cap {
            assert!(buf.try_push(row, row as u32));
        }
        assert!(!buf.try_push(cap, 0), "no room left");
        assert_eq!(buf.len(), cap);
        assert_eq!(buf.prefix(2), [7, 8]);
        // An empty, capacity-less buffer is a valid (useless) buffer.
        let none: AppendBuf<u32> = Vec::new().into();
        assert!(!none.try_push(0, 1));
        assert_eq!((none.capacity(), none.prefix(0).len()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "holding fewer")]
    fn a_prefix_longer_than_what_was_written_panics() {
        let buf: AppendBuf<u8> = Vec::with_capacity(8).into();
        buf.try_push(0, 1);
        buf.prefix(2);
    }

    #[test]
    fn adopting_a_vec_copies_nothing_and_exclusive_access_overwrites() {
        let mut v = Vec::with_capacity(16);
        v.extend([1i64, 2, 3]);
        let (addr, cap) = (v.as_ptr(), v.capacity());
        let mut buf: AppendBuf<i64> = v.into();
        assert_eq!(buf.prefix(3).as_ptr(), addr, "the allocation was adopted as it is");
        assert_eq!((buf.len(), buf.capacity()), (3, cap));
        assert!(buf.try_push(3, 4), "the vector's spare capacity is the reserved space");
        buf.written_mut()[0] = -1;
        assert_eq!(buf.written_mut().len(), 4);
        assert_eq!(buf.prefix(4), [-1, 2, 3, 4]);
    }

    #[test]
    fn exactly_one_of_racing_appenders_wins_each_slot() {
        const ROUNDS: usize = if cfg!(miri) { 8 } else { 500 };
        let buf = Arc::new(AppendBuf::<usize>::with_capacity(ROUNDS));
        let barrier = Arc::new(Barrier::new(3));
        let racers: Vec<_> = (1..=2usize)
            .map(|id| {
                let (buf, barrier) = (Arc::clone(&buf), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    (0..ROUNDS)
                        .filter(|&slot| {
                            barrier.wait(); // both racers and the reader are at `slot`
                            let won = buf.try_push(slot, id * 1_000_000 + slot);
                            barrier.wait(); // the slot is decided
                            won
                        })
                        .collect::<Vec<usize>>()
                })
            })
            .collect();
        for slot in 0..ROUNDS {
            barrier.wait();
            // Concurrent with the race: the rows published so far.
            let seen = buf.prefix(slot);
            assert!(seen.iter().enumerate().all(|(i, &v)| v % 1_000_000 == i));
            barrier.wait();
            assert_eq!(buf.len(), slot + 1, "one racer took the slot");
        }
        let won: Vec<Vec<usize>> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(won[0].len() + won[1].len(), ROUNDS, "and only one");
        for (id, slots) in won.iter().enumerate() {
            assert!(slots.iter().all(|&s| buf.prefix(ROUNDS)[s] == (id + 1) * 1_000_000 + s));
        }
    }

    /// `Probe::<X>::SYNC` is `true` iff `X: Sync` (the inherent constant
    /// shadows the trait's when its bound holds), likewise `SEND`.
    struct Probe<X>(PhantomData<X>);
    trait Neither {
        const SEND: bool = false;
        const SYNC: bool = false;
    }
    impl<X> Neither for Probe<X> {}
    impl<X: Send> Probe<X> {
        const SEND: bool = true;
    }
    impl<X: Sync> Probe<X> {
        const SYNC: bool = true;
    }

    /// Shared across threads only for `Copy` rows — checked when this
    /// module compiles.
    const _: () = {
        assert!(Probe::<AppendBuf<i64>>::SEND && Probe::<AppendBuf<i64>>::SYNC);
        assert!(Probe::<AppendBuf<(u32, f64)>>::SYNC);
        // `String` is `Send + Sync` but not `Copy`: rows with drop glue or
        // interior pointers must never be shared through this buffer.
        assert!(Probe::<String>::SEND && Probe::<String>::SYNC);
        assert!(!Probe::<AppendBuf<String>>::SEND && !Probe::<AppendBuf<String>>::SYNC);
        // `Copy` alone is not enough either.
        assert!(!Probe::<AppendBuf<*const u8>>::SEND && !Probe::<AppendBuf<*const u8>>::SYNC);
    };
}
