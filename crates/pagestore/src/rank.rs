//! Rank-checked locks: static deadlock prevention for the page store.
//!
//! Every lock in this crate is a [`RankedMutex`] (or, for the commit
//! barrier, a [`RankedRwLock`]) carrying a compile-time rank from
//! the table of constants below.  A thread may only acquire a lock
//! whose rank is *strictly greater* than the highest rank it already
//! holds; in debug builds a thread-local stack of held ranks enforces
//! this and panics on violation, turning any potential lock-order
//! inversion into a deterministic test failure instead of a
//! once-a-month deadlock.
//!
//! The rank order is derived from an audit of the acquisition pairs that
//! actually occur in the buffer pool (`buffer/`) and the store:
//!
//! * every mutation — `allocate`, `write_page`, `free_page`, `commit`,
//!   `flush_all` — runs under the **writer** lock, which a commit holds
//!   from its capture to its last phase, so everything a mutation or a
//!   commit locks ranks above it;
//! * `set_root` takes the writer lock, then the **superblock** lock, and
//!   holds both across the page-0 write;
//! * the epoch flip holds the **barrier** exclusively while it takes the
//!   **snapshot** table and retains pre-images through the **LRU** and
//!   the **pager**; a pinned miss holds the barrier shared across the
//!   snapshot table and the LRU;
//! * a commit's log phase takes the **wal io** handle holding nothing
//!   but the writer lock;
//! * `with_page` / eviction / flush hold the **LRU** lock while reading
//!   or writing through the **pager**, and reach a **node cache** shard
//!   under it.
//!
//! That gives `WRITER < SUPERBLOCK < BARRIER < SNAPSHOT < WAL_IO < SHARD
//! < NODE_CACHE < PAGER`.  `WAL_IO` has nothing constraining it from
//! below but the writer lock, so it is placed under every hot lock: log
//! I/O under the LRU, a node-cache shard or the pager — a commit's
//! fsync stalling every cache-miss reader — is an ordering violation,
//! not a convention.  `NODE_CACHE` is a *leaf* lock — never held across
//! any other acquisition — and sits just above `SHARD`: an entry lives
//! only as long as its page's frame, so the pool inserts, drops,
//! validates and asks for an entry's second chance under the LRU lock
//! (a pinned hit takes a shard with no other lock held).
//! `PAGER` is the top: nothing is ranked above it. ([`crate::fault`]'s
//! schedule, consulted under the pager or log-handle lock, is a leaf
//! lock in `boxagg_common`, released before the faulted operation runs;
//! [`crate::buffer::IoStats`] counters are atomics and take no lock.)
//!
//! Debug builds also check one rule that is not an order:
//! `assert_no_lru_held_for_sync`, called first thing in every data
//! `sync`, panics if the thread holds the LRU (`SHARD`).
//!
//! These checks are dynamic: they see the paths the debug tests run,
//! and nothing else. `crates/lint/tests/lint_workspace.rs` checks that
//! the constants below match DESIGN.md's lock-rank table and that each
//! one builds a lock; `boxagg-lint`'s `raw-lock` rule makes every
//! `pagestore` lock one of these wrappers, so the checker sees them all.
//!
//! Release builds compile the checker away entirely: `acquire` is then a
//! plain `Mutex::lock` with poison recovery.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, PoisonError};

// The static lock-rank table.  Locks must be acquired in strictly
// increasing rank order.

/// The writer lock (the buffer pool's `Writer`, which owns the page
/// allocator's free list): every page mutation takes it, and a commit
/// holds it from its capture through its last phase, so no write or
/// free lands inside a commit.  Below every lock a mutation or a commit
/// takes.
pub const WRITER: u32 = 0;
/// The in-memory superblock image ([`crate::store`]): held across the
/// page-0 write that publishes a named-root update (so catalog updates
/// cannot persist out of order), under the writer lock and below the
/// LRU, node-cache and pager locks that write takes.
pub const SUPERBLOCK: u32 = 1;
/// The commit barrier ([`RankedRwLock`] in the buffer pool): a pinned
/// read that misses the committed-image cache holds it shared from its
/// snapshot-table lookup to its read of the committed image, and the
/// epoch flip holds it exclusively, so the flip never falls between the
/// two.
pub const BARRIER: u32 = 2;
/// The snapshot table (in the buffer pool): pinned commit epochs
/// plus page images retained for them.  A commit's flip phase
/// holds it (under the exclusive barrier) while touching the LRU and the
/// pager to retain superseded images and while invalidating
/// committed-image cache entries under the LRU; snapshot readers
/// behind the current epoch hold it briefly under a shared barrier.  Hence above
/// `BARRIER`, below `SHARD`.
pub const SNAPSHOT: u32 = 3;
/// The pool's write-ahead-log handle ([`crate::wal::WalFile`], handed
/// out by the pager when the store opens).  The log phase of a commit
/// holds it across appends and log fsyncs with only the writer lock
/// beneath it; nothing in this crate is acquired while it is held.  Below
/// `SHARD`, `NODE_CACHE` and `PAGER`, so taking it under any of them is
/// a rank violation.
pub const WAL_IO: u32 = 4;
/// The buffer pool's one LRU (its frames, their directory and their
/// recency order).  Held across pager I/O on miss, eviction, and flush,
/// and across the committed-image cache inserts, drops and checks that
/// keep each entry beside its frame.  The name dates from when the byte
/// pool was split into shards; the committed-image node cache's shards
/// rank as [`NODE_CACHE`].
pub const SHARD: u32 = 5;
/// A shard of the committed-image node cache (`nodecache.rs`).
/// A leaf lock: lookups, inserts and invalidations never touch another
/// lock while holding it.  Taken under the LRU (a pinned miss's insert,
/// the no-steal eviction's second-chance ask, a frame's release, the
/// flip's invalidation, `validate`) or with no pool lock held (a pinned
/// hit), hence above `SHARD`, below `PAGER`.
pub const NODE_CACHE: u32 = 6;
/// The backing pager (file or memory).  Nothing in this crate is
/// acquired while it is held.
pub const PAGER: u32 = 7;
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
                 taken in strictly increasing rank order (writer < superblock \
                 < barrier < snapshot < wal io < shard < node cache < pager)",
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

/// Panics in debug builds if this thread holds the buffer LRU (rank
/// [`SHARD`]): a data sync under it would make every reader that misses
/// wait out a disk flush. [`MemPager`](crate::MemPager) and
/// [`FilePager`](crate::FilePager) call it first thing in `sync`; a
/// release build compiles it to nothing. Log I/O needs no such check:
/// taking the log handle under the LRU, a node-cache shard or the pager
/// is already a rank violation, since [`WAL_IO`] ranks below all three.
#[inline]
pub(crate) fn assert_no_lru_held_for_sync() {
    #[cfg(debug_assertions)]
    HELD.with(|held| {
        let lru = held.borrow().iter().find(|&&(r, _)| r == SHARD).copied();
        assert!(
            lru.is_none(),
            "data sync while holding `{}` (rank {SHARD}): a reader that \
             misses would wait out the flush; sync before taking the LRU",
            lru.map_or("", |(_, label)| label),
        );
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
/// waiter, so readers get no exemption.  Used for the commit barrier
/// (rank [`BARRIER`]): a pinned miss holds it shared across its two
/// steps, the epoch flip of [`SharedStore::commit`] holds it
/// exclusively, so no reader sees the flip half done.
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
        let a = RankedMutex::new(WRITER, "writer", 1u32);
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
        let a = RankedMutex::new(WRITER, "writer", 0u32);
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
        let barrier = RankedRwLock::new(BARRIER, "commit barrier", 0u32);
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
        let barrier = RankedRwLock::new(BARRIER, "commit barrier", 0u32);
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
        let barrier = std::sync::Arc::new(RankedRwLock::new(BARRIER, "commit barrier", 0u32));
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
        let barrier = RankedRwLock::new(BARRIER, "commit barrier", 0u32);
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
