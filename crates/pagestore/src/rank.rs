//! Rank-checked locks: static deadlock prevention for the page store.
//!
//! Every lock in this crate is a [`RankedMutex`] (or, for the commit
//! write barrier, a [`RankedRwLock`]) carrying a compile-time rank from
//! the table of constants below.  A thread may only acquire a lock
//! whose rank is *strictly greater* than the highest rank it already
//! holds; in debug builds a thread-local stack of held ranks enforces
//! this and panics on violation, turning any potential lock-order
//! inversion into a deterministic test failure instead of a
//! once-a-month deadlock.
//!
//! The rank order is derived from an audit of the acquisition pairs that
//! actually occur in the buffer pool (`buffer/`):
//!
//! * `allocate` holds the **allocator** lock while touching the **pager**
//!   (grow-on-allocate),
//! * `free_page` holds the **allocator** lock while dropping a cached
//!   frame from the **LRU** (rank `SHARD`; stale-frame race prevention),
//! * `with_page` / eviction / flush hold the **LRU** lock while reading or
//!   writing through the **pager**.
//!
//! The unique total order consistent with all three pairs is
//! `ALLOCATOR < SHARD < PAGER`.  (This deliberately differs from the
//! illustrative `shard < pager < allocator` sketch in the original design
//! note, which predates the allocator-holds-shard stale-frame fix; the
//! checker exists precisely to validate the order against the code rather
//! than the other way around.)  `WAL` sits at the very bottom: the commit
//! mutex is held across the whole commit protocol — LRU capture, log
//! appends, in-place writes, truncation — so everything those steps lock
//! must rank above it.  `SUPERBLOCK` is held across the page-0 write that
//! publishes a catalog update, so it ranks below the barrier, LRU,
//! node-cache and pager locks that write takes.  `BARRIER` is the commit
//! write barrier: writers hold it shared around each page mutation (before the
//! allocator in `free_page` and the LRU in `write_page`), a commit
//! holds it exclusively across its dirty-frame snapshot — so it must sit
//! above `SUPERBLOCK` (whose holder writes page 0) and below `ALLOCATOR`.
//! `SNAPSHOT` guards the pool's pinned-epoch table and retained page
//! versions: a commit's flip phase takes it while holding the barrier
//! exclusively (and then touches the LRU and the pager to retain
//! superseded images), and a snapshot reader takes it under a shared
//! barrier before falling back to the LRU — so it must sit between
//! `BARRIER` and `ALLOCATOR`.  `WAL_IO` guards the pool's
//! [`WalFile`](crate::wal::WalFile) handle — the only way to the log.
//! The log phase of a commit takes it holding nothing but the commit
//! mutex, and holds it across appends and log fsyncs; it ranks *below*
//! the LRU, node-cache and pager locks so that log I/O under any of
//! them — a commit's fsync stalling every cache-miss reader — is an
//! ordering violation, not a convention.  `NODE_CACHE` guards a shard
//! of the committed-image node cache (`nodecache.rs`); it is a *leaf*
//! lock — never held across any other acquisition — and sits just above
//! `SHARD`: an entry lives only as long as its page's frame, so the
//! pool inserts, drops, validates and asks for an entry's second chance
//! under the LRU lock (a pinned hit takes a shard with no other lock
//! held).
//! `PAGER` is the top: nothing is ranked above it. ([`crate::fault`]'s
//! schedule, consulted under the pager or log-handle lock, is a leaf
//! lock in `boxagg_common`, released before the faulted operation runs;
//! [`crate::buffer::IoStats`] counters are atomics and take no lock.)
//!
//! Release builds compile the checker away entirely: `acquire` is then a
//! plain `Mutex::lock` with poison recovery.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

// The static lock-rank table.  Locks must be acquired in strictly
// increasing rank order.

/// The commit mutex
/// ([`SharedStore::commit`](crate::store::SharedStore::commit)): held
/// across the entire WAL commit protocol — the LRU scan, log appends,
/// in-place writes and the log truncation — so it ranks below every
/// lock those steps take (LRU, pager, allocator is not taken but
/// ordering it first keeps commit free to grow).
pub const WAL: u32 = 0;
/// The in-memory superblock image ([`crate::store`]): held across the
/// page-0 write that publishes a named-root update (so concurrent
/// catalog updates cannot persist out of order), hence below the
/// barrier, LRU, node-cache and pager locks that write takes.
pub const SUPERBLOCK: u32 = 1;
/// The commit write barrier ([`RankedRwLock`] in the buffer pool):
/// page writers hold it shared for the duration of one mutation, a
/// commit holds it exclusively across its dirty-frame snapshot so the
/// snapshot is a single point-in-time cut.
/// Writers take it before the allocator (`free_page`) and the LRU
/// (`write_page`), and `set_root` reaches it while holding the
/// superblock lock, which pins it between the two.
pub const BARRIER: u32 = 2;
/// The snapshot table (in the buffer pool): pinned commit epochs
/// plus page images retained for them.  A commit's flip phase
/// holds it (under the exclusive barrier) while touching the LRU and the
/// pager to retain superseded images and while invalidating
/// committed-image cache entries under the LRU; snapshot readers
/// behind the current epoch hold it briefly under a shared barrier.  Hence above
/// `BARRIER`, below `ALLOCATOR`.
pub const SNAPSHOT: u32 = 3;
/// Free-list / high-water-mark allocator state.  Held across pager grow
/// and across the LRU frame-drop, so it must rank below both.
pub const ALLOCATOR: u32 = 4;
/// The pool's write-ahead-log handle ([`crate::wal::WalFile`], handed
/// out by the pager when the store opens).  The log phase of a commit
/// holds it across appends and log fsyncs with only the commit mutex
/// beneath it; nothing in this crate is acquired while it is held.  Below
/// `SHARD`, `NODE_CACHE` and `PAGER`, so taking it under any of them is
/// a rank violation.
pub const WAL_IO: u32 = 5;
/// The buffer pool's one LRU (its frames, their directory and their
/// recency order).  Held across pager I/O on miss, eviction, and flush,
/// and across the committed-image cache inserts, drops and checks that
/// keep each entry beside its frame.  The name dates from when the byte
/// pool was split into shards; the committed-image node cache's shards
/// rank as [`NODE_CACHE`].
pub const SHARD: u32 = 6;
/// A shard of the committed-image node cache (`nodecache.rs`).
/// A leaf lock: lookups, inserts and invalidations never touch another
/// lock while holding it.  Taken under the LRU (a pinned miss's insert,
/// the no-steal eviction's second-chance ask, a frame's release, the
/// flip's invalidation, `validate`) or with no pool lock held (a pinned
/// hit), hence above `SHARD`, below `PAGER`.
pub const NODE_CACHE: u32 = 7;
/// The backing pager (file or memory).  Nothing in this crate is
/// acquired while it is held.
pub const PAGER: u32 = 8;
#[cfg(debug_assertions)]
thread_local! {
    /// Ranks (and labels, for diagnostics) of locks currently held by
    /// this thread, in acquisition order.
    static HELD: std::cell::RefCell<Vec<(u32, &'static str)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Panics if acquiring a lock of `lock_rank` would violate the rank
/// order for this thread, then records it as held.  Shared and
/// exclusive acquisitions are checked identically: a reader can still
/// deadlock a writer through an inverted order.
#[cfg(debug_assertions)]
fn check_and_push(lock_rank: u32, label: &'static str) {
    HELD.with(|held| {
        let top = held.borrow().last().copied();
        if let Some((top_rank, top_label)) = top {
            assert!(
                lock_rank > top_rank,
                "lock-rank violation: acquiring `{label}` (rank {lock_rank}) \
                 while holding `{top_label}` (rank {top_rank}); locks must be \
                 taken in strictly increasing rank order (wal < superblock < \
                 barrier < snapshot < allocator < wal io < shard < node cache < \
                 pager)",
            );
        }
        held.borrow_mut().push((lock_rank, label));
    });
}

/// Removes the last held-rank entry matching `lock_rank`.  Guards
/// usually drop LIFO, but scopes like `(a.acquire(), b.acquire())` may
/// release out of order, so the matching entry is removed rather than
/// the top blindly popped.
#[cfg(debug_assertions)]
fn pop_rank(lock_rank: u32) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&(r, _)| r == lock_rank) {
            held.remove(pos);
        }
    });
}

/// A `Mutex` that participates in the crate-wide lock-rank order.
///
/// Acquisition goes through [`RankedMutex::acquire`], which (in debug
/// builds) panics if the calling thread already holds a lock of equal or
/// greater rank.  The method is deliberately *not* named `lock` so that
/// the `boxagg-lint` raw-lock rule can tell ranked acquisitions apart
/// from raw `Mutex::lock` calls at the token level.
pub struct RankedMutex<T: ?Sized> {
    lock_rank: u32,
    label: &'static str,
    inner: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// Wraps `value` in a mutex at position `lock_rank` (one of this
    /// module's constants) in the lock order.  `label` names the lock in
    /// rank-panic messages.
    pub fn new(lock_rank: u32, label: &'static str, value: T) -> Self {
        Self {
            lock_rank,
            label,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until it is available.
    ///
    /// In debug builds, panics if this thread already holds a lock whose
    /// rank is `>=` this one — the caller is about to deadlock with some
    /// interleaving, even if not this run.  Poisoning is recovered: the
    /// pool's invariants are re-established by the panicking thread's
    /// unwound guards, so the data is safe to hand out.
    pub fn acquire(&self) -> RankedGuard<'_, T> {
        #[cfg(debug_assertions)]
        check_and_push(self.lock_rank, self.label);
        let guard = self
            .inner
            // lint: allow(raw-lock) -- RankedMutex's own internal acquisition; the rank check above is the wrapper
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        RankedGuard {
            #[cfg(debug_assertions)]
            lock_rank: self.lock_rank,
            guard,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedMutex")
            .field("rank", &self.lock_rank)
            .field("label", &self.label)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`RankedMutex::acquire`].  Dropping it releases the
/// lock and (in debug builds) pops the rank from the thread's held stack.
pub struct RankedGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_rank: u32,
    guard: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for RankedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RankedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RankedGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.lock_rank);
    }
}

/// An `RwLock` that participates in the crate-wide lock-rank order —
/// the rank-checked wrapper the `boxagg-lint` raw-lock rule (R3) asks
/// for before a reader-writer lock may enter `pagestore`.
///
/// Both acquisition modes are rank-checked identically: a shared
/// acquisition in the wrong order can still deadlock an exclusive
/// waiter, so readers get no exemption.  Used for the commit write
/// barrier (rank [`BARRIER`]): page writers hold it shared for the
/// duration of one mutation, [`SharedStore::commit`] holds it
/// exclusively while snapshotting dirty frames, so the snapshot is a
/// point-in-time cut that can never capture half of a single page
/// write.
///
/// [`SharedStore::commit`]: crate::store::SharedStore::commit
pub struct RankedRwLock<T: ?Sized> {
    lock_rank: u32,
    label: &'static str,
    // lint: allow(raw-lock) -- RankedRwLock IS the rank-checked wrapper over RwLock
    inner: std::sync::RwLock<T>,
}

impl<T> RankedRwLock<T> {
    /// Wraps `value` in a reader-writer lock at position `lock_rank` (a
    /// [`rank`](self) constant) in the lock order.  `label` names the
    /// lock in rank-panic messages.
    pub fn new(lock_rank: u32, label: &'static str, value: T) -> Self {
        Self {
            lock_rank,
            label,
            // lint: allow(raw-lock) -- RankedRwLock IS the rank-checked wrapper over RwLock
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires the lock shared, blocking until no writer holds it.
    ///
    /// In debug builds, panics on a rank-order violation exactly like
    /// [`RankedMutex::acquire`]; the shared mode is *not* reentrant —
    /// a thread must not take the same lock shared twice (a queued
    /// writer between the two acquisitions would deadlock it).
    pub fn acquire_shared(&self) -> RankedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        check_and_push(self.lock_rank, self.label);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RankedReadGuard {
            #[cfg(debug_assertions)]
            lock_rank: self.lock_rank,
            guard,
        }
    }

    /// Acquires the lock exclusively, blocking until every reader and
    /// writer has released it.
    pub fn acquire_excl(&self) -> RankedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        check_and_push(self.lock_rank, self.label);
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RankedWriteGuard {
            #[cfg(debug_assertions)]
            lock_rank: self.lock_rank,
            guard,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for RankedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RankedRwLock")
            .field("rank", &self.lock_rank)
            .field("label", &self.label)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard returned by [`RankedRwLock::acquire_shared`].
pub struct RankedReadGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_rank: u32,
    guard: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RankedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RankedReadGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.lock_rank);
    }
}

/// Exclusive guard returned by [`RankedRwLock::acquire_excl`].
pub struct RankedWriteGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    lock_rank: u32,
    guard: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RankedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for RankedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T: ?Sized> Drop for RankedWriteGuard<'_, T> {
    fn drop(&mut self) {
        pop_rank(self.lock_rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increasing_order_is_allowed() {
        let a = RankedMutex::new(ALLOCATOR, "alloc", 1u32);
        let s = RankedMutex::new(SHARD, "shard", 2u32);
        let p = RankedMutex::new(PAGER, "pager", 3u32);
        let ga = a.acquire();
        let gs = s.acquire();
        let gp = p.acquire();
        assert_eq!(*ga + *gs + *gp, 6);
    }

    #[test]
    fn reacquire_after_release_is_allowed() {
        let s = RankedMutex::new(SHARD, "shard", 0u32);
        let p = RankedMutex::new(PAGER, "pager", 0u32);
        {
            let _gs = s.acquire();
            let _gp = p.acquire();
        }
        // Everything released; starting over from the bottom is fine.
        let _gs = s.acquire();
    }

    #[test]
    fn out_of_order_drop_keeps_stack_consistent() {
        let a = RankedMutex::new(ALLOCATOR, "alloc", 0u32);
        let s = RankedMutex::new(SHARD, "shard", 0u32);
        let p = RankedMutex::new(PAGER, "pager", 0u32);
        let ga = a.acquire();
        let gs = s.acquire();
        drop(ga); // release the *bottom* lock first
        let gp = p.acquire(); // still legal: top of stack is SHARD
        drop(gs);
        drop(gp);
        // Would panic here if SHARD or PAGER were still recorded.
        let _ga = a.acquire();
    }

    #[test]
    fn snapshot_sits_between_barrier_and_shard() {
        // A commit's flip phase: exclusive barrier, then the snapshot
        // table, then shards and the pager for retained images.
        let barrier = RankedRwLock::new(BARRIER, "write barrier", 0u32);
        let snaps = RankedMutex::new(SNAPSHOT, "snapshot table", 0u32);
        let shard = RankedMutex::new(SHARD, "shard", 0u32);
        let pager = RankedMutex::new(PAGER, "pager", 0u32);
        let _b = barrier.acquire_excl();
        let _n = snaps.acquire();
        let _s = shard.acquire();
        let _p = pager.acquire();
    }

    #[test]
    fn rwlock_orders_with_mutexes() {
        let barrier = RankedRwLock::new(BARRIER, "write barrier", 0u32);
        let shard = RankedMutex::new(SHARD, "shard", 0u32);
        {
            let _r = barrier.acquire_shared();
            let _s = shard.acquire();
        }
        {
            let _w = barrier.acquire_excl();
            let _s = shard.acquire();
        }
        // Released in between: either mode reacquires cleanly.
        let _r = barrier.acquire_shared();
    }

    #[test]
    fn rwlock_shared_does_not_exclude_shared() {
        let barrier = std::sync::Arc::new(RankedRwLock::new(BARRIER, "write barrier", 0u32));
        let g = barrier.acquire_shared();
        let other = std::sync::Arc::clone(&barrier);
        // A second reader on another thread must get through while this
        // thread still holds its shared guard.
        std::thread::scope(|s| {
            s.spawn(move || {
                let _r = other.acquire_shared();
            });
        });
        drop(g);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn rwlock_violation_panics_in_either_mode() {
        let barrier = RankedRwLock::new(BARRIER, "write barrier", 0u32);
        let shard = RankedMutex::new(SHARD, "shard", 0u32);
        let _s = shard.acquire();
        for excl in [false, true] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if excl {
                    let _ = barrier.acquire_excl();
                } else {
                    let _ = barrier.acquire_shared();
                }
            }))
            .expect_err("barrier after shard must trip the rank checker");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("lock-rank violation"), "got: {msg}");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_reacquisition_panics() {
        let s1 = RankedMutex::new(SHARD, "shard-1", 0u32);
        let s2 = RankedMutex::new(SHARD, "shard-2", 0u32);
        let _g = s1.acquire();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s2.acquire();
        }))
        .expect_err("acquiring an equal-rank lock must panic in debug builds");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lock-rank violation"), "got: {msg}");
    }
}
