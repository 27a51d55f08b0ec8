//! Lock-rank checker tests (satellite of the static-analysis pass).
//!
//! The interesting assertions only exist in debug builds — release builds
//! compile the checker away — so the violation tests are gated on
//! `debug_assertions`.  The workspace test run (`cargo test --workspace`,
//! debug profile) exercises them.

use std::panic::{catch_unwind, AssertUnwindSafe};

use boxagg_pagestore::rank::{self, RankedMutex};
use boxagg_pagestore::{PageId, SharedStore, StoreConfig};

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

/// A committed-image entry lives and dies with its page's buffer
/// frame, so the pool reaches a cache shard under the LRU:
/// `SHARD < NODE_CACHE < PAGER` accepts that order.
#[test]
fn node_cache_shard_under_the_lru_is_accepted() {
    let lru = RankedMutex::new(rank::SHARD, "buffer lru", ());
    let cache = RankedMutex::new(rank::NODE_CACHE, "node cache shard", ());
    let pager = RankedMutex::new(rank::PAGER, "pager", ());
    {
        let _gl = lru.acquire();
        let _gc = cache.acquire();
    }
    let _gl = lru.acquire();
    let _gp = pager.acquire();
}

/// …and the reverse — the LRU under a cache shard — panics.
#[cfg(debug_assertions)]
#[test]
fn lru_under_a_node_cache_shard_panics() {
    let lru = RankedMutex::new(rank::SHARD, "buffer lru", ());
    let cache = RankedMutex::new(rank::NODE_CACHE, "node cache shard", ());
    let _gc = cache.acquire();
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _gl = lru.acquire();
    }))
    .expect_err("the LRU after a cache shard must trip the rank checker");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("node cache shard") && msg.contains("buffer lru"),
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

/// End-to-end: every buffer-pool code path (hit, miss, eviction,
/// allocate, free, flush) respects the rank order, including under
/// multi-threaded load.  In a debug build any inversion would panic.
#[test]
fn buffer_pool_paths_respect_rank_order() {
    let store = SharedStore::open(&StoreConfig::small(256, 8).with_node_cache(0)).expect("open");

    let workers: Vec<_> = (0..4)
        .map(|t| {
            let store = store.clone();
            std::thread::spawn(move || {
                let mut ids: Vec<PageId> = Vec::new();
                for round in 0..50u8 {
                    let id = store.allocate().expect("allocate");
                    store.write_page(id, &[round; 8]).expect("write");
                    ids.push(id);
                    // Re-read an older page: exercises hit and miss paths.
                    let probe = ids[usize::from(round) / 2];
                    store.with_page(probe, |_| ()).expect("read");
                    if round % 8 == t {
                        let victim = ids.swap_remove(0);
                        store.free(victim).expect("free");
                    }
                }
                store.flush().expect("flush");
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no rank panic on any worker thread");
    }
    store.validate().expect("valid pool");
}
