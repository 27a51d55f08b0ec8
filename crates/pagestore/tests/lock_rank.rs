//! Lock-rank checker tests (satellite of the static-analysis pass).
//!
//! The interesting assertions only exist in debug builds — release builds
//! compile the checker away — so the violation tests are gated on
//! `debug_assertions`.  The workspace test run (`cargo test --workspace`,
//! debug profile) exercises them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use boxagg_pagestore::rank::{self, RankedMutex};
use boxagg_pagestore::{BufferPool, MemPager, PageId};

/// Acquiring pager-then-shard is the wrong order (`SHARD < PAGER`): the
/// checker must panic before the second lock blocks.
#[cfg(debug_assertions)]
#[test]
fn pager_then_shard_panics() {
    let pager = RankedMutex::new(rank::PAGER, "pager", ());
    let shard = RankedMutex::new(rank::SHARD, "buffer shard", ());
    let _gp = pager.acquire();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gs = shard.acquire();
    }))
    .expect_err("shard-after-pager must trip the rank checker in debug builds");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lock-rank violation"),
        "panic should name the violation, got: {msg}"
    );
    assert!(
        msg.contains("pager") && msg.contains("buffer shard"),
        "panic should name both locks, got: {msg}"
    );
}

/// Log I/O under the pager lock is the shape the log handle exists to
/// rule out — a commit's log fsync in front of every cache-miss reader.
/// `WAL_IO < PAGER` makes reaching for the handle there a violation.
#[cfg(debug_assertions)]
#[test]
fn log_handle_under_the_pager_lock_panics() {
    let pager = RankedMutex::new(rank::PAGER, "pager", ());
    let log = RankedMutex::new(rank::WAL_IO, "wal io", ());
    let _gp = pager.acquire();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gl = log.acquire();
    }))
    .expect_err("the log handle after the pager must trip the rank checker");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("pager") && msg.contains("wal io"),
        "panic should name both locks, got: {msg}"
    );
}

/// Same pair in the correct order must not panic, and the full
/// allocator < shard < pager chain must be accepted.
#[test]
fn shard_then_pager_is_accepted() {
    let alloc = RankedMutex::new(rank::ALLOCATOR, "page allocator", ());
    let shard = RankedMutex::new(rank::SHARD, "buffer shard", ());
    let pager = RankedMutex::new(rank::PAGER, "pager", ());
    let _ga = alloc.acquire();
    let _gs = shard.acquire();
    let _gp = pager.acquire();
}

/// The rank panic must not wedge the thread: after the violation is
/// caught and all guards are dropped, clean acquisition works again.
#[cfg(debug_assertions)]
#[test]
fn checker_recovers_after_a_caught_violation() {
    let shard = RankedMutex::new(rank::SHARD, "buffer shard", 0u32);
    let pager = RankedMutex::new(rank::PAGER, "pager", 0u32);
    {
        let _gp = pager.acquire();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _gs = shard.acquire();
        }));
        assert!(result.is_err());
    }
    // All guards released; the correct order is clean again.
    let _gs = shard.acquire();
    let _gp = pager.acquire();
}

/// End-to-end: every `BufferPool` code path (hit, miss, eviction,
/// allocate, free, flush) respects the rank order, including under
/// multi-threaded load.  In a debug build any inversion would panic.
#[test]
fn buffer_pool_paths_respect_rank_order() {
    let pool = Arc::new(BufferPool::new(Box::new(MemPager::new(256)), 8));

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut ids: Vec<PageId> = Vec::new();
                for round in 0..50u8 {
                    let id = pool.allocate().expect("allocate");
                    pool.write_page(id, &[round; 8]).expect("write");
                    ids.push(id);
                    // Re-read an older page: exercises hit and miss paths.
                    let probe = ids[usize::from(round) / 2];
                    pool.with_page(probe, |_| ()).expect("read");
                    if round % 8 == t {
                        let victim = ids.swap_remove(0);
                        pool.free_page(victim).expect("free");
                    }
                }
                pool.flush_all().expect("flush");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no rank panic on any worker thread");
    }
}
