//! Decoded nodes held by buffer frames: update visibility, the hit/miss
//! accounting invariant (single- and multi-threaded, decodes kept or
//! not), and staleness across every way a frame's bytes change or leave
//! — a write, free/realloc of a page id, eviction, a failed write, a WAL
//! commit — plus a pinned read taking over a clean frame's decode.
//!
//! The decoded type used throughout is plain `u8`/`u64` — a frame holds
//! an `Arc<dyn Any>`, so byte-level payloads exercise the same paths the
//! tree nodes do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxagg_pagestore::fault::is_injected;
use boxagg_pagestore::{
    FaultPager, FaultSpec, MemPager, OpFilter, PageId, SharedStore, StoreConfig,
};

fn store(buffer_pages: usize, cache_pages: usize) -> SharedStore {
    SharedStore::open(&StoreConfig::small(128, buffer_pages).with_node_cache(cache_pages)).unwrap()
}

fn first_byte(b: &[u8]) -> boxagg_common::error::Result<u8> {
    Ok(b[0])
}

/// A page written with `byte`.
fn page(s: &SharedStore, byte: u8) -> PageId {
    let id = s.allocate().unwrap();
    s.write_page(id, &[byte]).unwrap();
    id
}

/// Reads `id` as a node and reports its value and whether it decoded.
fn read(s: &SharedStore, id: PageId) -> (u8, bool) {
    let misses = s.stats().decode_misses;
    let got = *s.read_node(id, first_byte).unwrap();
    (got, s.stats().decode_misses > misses)
}

#[test]
fn write_invalidates_cached_decode() {
    let s = store(8, 8);
    let id = s.allocate().unwrap();
    s.write_page(id, &[1]).unwrap();
    let first = s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
    assert_eq!(*first, 1);
    // Cached now: a second read must not decode again.
    let before = s.stats();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 1);
    let after = s.stats();
    assert_eq!(after.decode_hits, before.decode_hits + 1);
    // Overwrite: the cached decode must be invisible afterwards.
    s.write_page(id, &[2]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 2);
    assert!(
        s.stats().decode_invalidations >= 2,
        "each write counts an invalidation"
    );
}

#[test]
fn decode_accounting_invariant_holds() {
    for cache_pages in [16, 0] {
        let s = store(16, cache_pages);
        let ids: Vec<PageId> = (0..10u8).map(|i| page(&s, i)).collect();
        s.reset_stats();
        let mut accesses = 0u64;
        for round in 0..5 {
            for (i, &id) in ids.iter().enumerate() {
                let got = *s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
                assert_eq!(got, i as u8, "round {round}");
                accesses += 1;
            }
        }
        let st = s.stats();
        assert_eq!(
            st.decode_hits + st.decode_misses,
            accesses,
            "every node access is exactly one counted hit or miss ({cache_pages})"
        );
        if cache_pages > 0 {
            // First round decodes cold, later rounds hit.
            assert_eq!((st.decode_hits, st.decode_misses), (40, 10));
        } else {
            assert_eq!(st.decode_hits, 0, "no decode kept, none served");
        }
    }
}

#[test]
fn disabled_cache_counts_all_accesses_as_misses() {
    let s = store(8, 0);
    let id = s.allocate().unwrap();
    s.write_page(id, &[7]).unwrap();
    s.reset_stats();
    for _ in 0..5 {
        assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 7);
    }
    let st = s.stats();
    assert_eq!((st.decode_hits, st.decode_misses), (0, 5));
}

#[test]
fn cache_does_not_change_byte_level_accounting() {
    // Identical access sequences against a cached and an uncached store:
    // byte reads/writes/hits must be equal in every position.
    let run = |cache_pages: usize| {
        let s = store(4, cache_pages); // tiny buffer: forces evictions
        let mut ids = Vec::new();
        for i in 0..12u8 {
            let id = s.allocate().unwrap();
            s.write_page(id, &[i]).unwrap();
            ids.push(id);
        }
        let mut trace = Vec::new();
        for round in 0..4usize {
            for &id in ids.iter().skip(round % 3) {
                let _ = s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap();
                let st = s.stats();
                trace.push((st.reads, st.writes, st.hits));
            }
        }
        trace
    };
    assert_eq!(
        run(64),
        run(0),
        "byte-level I/O must be identical with the decoded cache on or off"
    );
}

#[test]
fn no_stale_reads_after_free_and_realloc() {
    let s = store(8, 8);
    let id = s.allocate().unwrap();
    s.write_page(id, &[1]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |b| Ok(b[0])).unwrap(), 1);
    s.free(id).unwrap();
    // The freed id is reused (LIFO free list) with fresh contents.
    let id2 = s.allocate().unwrap();
    assert_eq!(id2, id, "free list must hand the id back for this test");
    s.write_page(id2, &[9]).unwrap();
    assert_eq!(
        *s.read_node::<u8, _>(id2, |b| Ok(b[0])).unwrap(),
        9,
        "decode cached before the free must not survive realloc"
    );
}

/// A `write_page` that fails at the pager (here: the eviction write-back
/// it forces) must leave the decoded cache consistent with the bytes —
/// the old decode may keep being served (the bytes are unchanged), but a
/// successful retry must invalidate it.
#[test]
fn failing_write_never_leaves_stale_decode_servable() {
    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
    let s = SharedStore::with_pager(
        Box::new(pager),
        &StoreConfig::small(128, 2).with_node_cache(8),
    );
    let a = s.allocate().unwrap();
    let b = s.allocate().unwrap();
    let c = s.allocate().unwrap();
    s.write_page(a, &[1]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(), 1);
    // Push `a` out of the 2-frame pool and leave both frames dirty, so
    // rewriting `a` must evict — and therefore write to the pager.
    s.write_page(b, &[5]).unwrap();
    s.write_page(c, &[6]).unwrap();
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 1));
    let err = s.write_page(a, &[2]).unwrap_err();
    assert!(is_injected(&err), "got: {err}");
    s.validate().unwrap();
    faults.disarm();
    // The failed write changed nothing: decode and bytes must agree.
    assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 1);
    assert_eq!(
        *s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(),
        1,
        "decode disagrees with the bytes after a failed write"
    );
    // A successful retry invalidates the cached decode of the old bytes.
    s.write_page(a, &[2]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(a, |d| Ok(d[0])).unwrap(), 2);
    assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 2);
    s.validate().unwrap();
}

/// `free` performs no pager I/O, so it must invalidate the decoded entry
/// even while every pager write is failing — the reallocated id's fresh
/// contents must never lose to a decode cached before the free.
#[test]
fn free_under_write_faults_still_invalidates_the_decode() {
    let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
    let s = SharedStore::with_pager(
        Box::new(pager),
        &StoreConfig::small(128, 4).with_node_cache(8),
    );
    let id = s.allocate().unwrap();
    s.write_page(id, &[3]).unwrap();
    assert_eq!(*s.read_node::<u8, _>(id, |d| Ok(d[0])).unwrap(), 3);
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 1));
    s.free(id).unwrap();
    let id2 = s.allocate().unwrap();
    assert_eq!(id2, id, "free list must hand the id back for this test");
    // Whole-page writes never read and the frame fits the pool, so this
    // succeeds without touching the (failing) pager.
    s.write_page(id2, &[8]).unwrap();
    assert_eq!(
        *s.read_node::<u8, _>(id2, |d| Ok(d[0])).unwrap(),
        8,
        "decode cached before the free must not survive realloc"
    );
    faults.disarm();
    s.validate().unwrap();
}

/// Multi-threaded stress: writers keep rewriting their own pages while
/// every thread reads all pages. Readers must never observe a decode
/// older than the last value the owner acknowledged, and the global
/// accounting invariant must hold exactly.
#[test]
fn concurrent_stress_no_stale_decodes() {
    const THREADS: usize = 4;
    const PAGES_PER_THREAD: usize = 4;
    const ROUNDS: u64 = 200;

    let s = store(32, 16);
    let all_ids: Vec<_> = (0..THREADS * PAGES_PER_THREAD)
        .map(|_| {
            let id = s.allocate().unwrap();
            s.write_page(id, &[0; 8]).unwrap();
            id
        })
        .collect();
    s.reset_stats();
    let accesses = Arc::new(AtomicU64::new(0));
    // Per-page monotonic floor: the owner publishes the value it wrote;
    // any reader must decode a value >= the floor it last observed.
    let floors: Vec<AtomicU64> = all_ids.iter().map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let s = s.clone();
            let all_ids = &all_ids;
            let floors = &floors;
            let accesses = Arc::clone(&accesses);
            scope.spawn(move || {
                let own = t * PAGES_PER_THREAD..(t + 1) * PAGES_PER_THREAD;
                for round in 1..=ROUNDS {
                    // Rewrite one owned page, then publish the floor.
                    let slot = own.start + (round as usize % PAGES_PER_THREAD);
                    let mut payload = [0u8; 8];
                    payload.copy_from_slice(&round.to_le_bytes());
                    s.write_page(all_ids[slot], &payload).unwrap();
                    floors[slot].store(round, Ordering::SeqCst);
                    // Read every page; decoded values may lag the write
                    // we race with but never the published floor.
                    for (i, &id) in all_ids.iter().enumerate() {
                        let floor = floors[i].load(Ordering::SeqCst);
                        let got = *s
                            .read_node::<u64, _>(id, |b| {
                                let mut raw = [0u8; 8];
                                raw.copy_from_slice(&b[..8]);
                                Ok(u64::from_le_bytes(raw))
                            })
                            .unwrap();
                        accesses.fetch_add(1, Ordering::Relaxed);
                        assert!(
                            got >= floor,
                            "stale decode on page {i}: read {got}, floor was {floor}"
                        );
                    }
                }
            });
        }
    });

    let st = s.stats();
    assert_eq!(
        st.decode_hits + st.decode_misses,
        accesses.load(Ordering::Relaxed),
        "hit/miss accounting must balance under concurrency"
    );
    assert_eq!(
        st.decode_invalidations,
        THREADS as u64 * ROUNDS,
        "one invalidation per write_page"
    );
    assert!(st.decode_hits > 0, "warm pages must hit");
}

/// A frame's decode leaves with the frame: a page evicted and read back
/// decodes its fetched bytes again.
#[test]
fn eviction_drops_the_decode_with_its_frame() {
    let s = store(2, 8);
    let [a, b, c] = [1, 2, 3].map(|byte| page(&s, byte));
    assert_eq!(read(&s, a), (1, true));
    assert_eq!(read(&s, a), (1, false), "kept in a's frame");
    assert_eq!(read(&s, b), (2, true));
    assert_eq!(read(&s, c), (3, true), "evicts a");
    let reads = s.stats().reads;
    assert_eq!(read(&s, a), (1, true), "a's decode went with its frame");
    assert_eq!(s.stats().reads, reads + 1);
    s.validate().unwrap();
}

/// A commit changes no frame's bytes, so a frame's decode survives it;
/// the next write drops it.
#[test]
fn a_wal_commit_keeps_each_frames_decode_current() {
    let s =
        SharedStore::open(&StoreConfig::small(128, 4).with_wal(true).with_node_cache(4)).unwrap();
    let a = page(&s, 1);
    assert_eq!(read(&s, a), (1, true));
    s.commit().unwrap();
    assert_eq!(read(&s, a), (1, false));
    s.write_page(a, &[2]).unwrap();
    assert_eq!(read(&s, a), (2, true), "the write dropped the decode");
    s.commit().unwrap();
    assert_eq!(read(&s, a), (2, false));
    s.validate().unwrap();
}

/// A pinned miss on a clean frame takes the live read's decode instead
/// of running the codec, and leaves a decode it makes in the frame for
/// the next live read. After a write and a commit the pin decodes the
/// new image, and a dirty frame's decode — of uncommitted bytes — is
/// never handed to a pin.
#[test]
fn a_pinned_miss_takes_a_clean_frames_decode() {
    let s =
        SharedStore::open(&StoreConfig::small(128, 8).with_wal(true).with_node_cache(8)).unwrap();
    let a = page(&s, 1);
    // A fresh pin reads `a`: its value, and (node reads, decodes).
    let pinned = |want: u8, reads: (u64, u64)| {
        let snap = s.snapshot().unwrap();
        assert_eq!(*snap.read_node(a, first_byte).unwrap(), want);
        assert_eq!(snap.node_reads(), reads);
    };
    s.commit().unwrap();
    assert_eq!(read(&s, a), (1, true));
    pinned(1, (1, 0));

    s.write_page(a, &[2]).unwrap();
    s.commit().unwrap();
    pinned(2, (1, 1));

    assert_eq!(
        read(&s, a),
        (2, false),
        "the pin's decode, left in the frame"
    );
    s.write_page(a, &[3]).unwrap();
    assert_eq!(read(&s, a), (3, true), "a decode of uncommitted bytes");
    pinned(2, (1, 0));
    s.commit().unwrap();
    pinned(3, (1, 0));
    s.validate().unwrap();
}

/// Each successful `write_page` and `free` counts one invalidation,
/// resident or not; a rejected write counts none.
#[test]
fn one_invalidation_per_write_or_free() {
    let s = store(2, 8);
    let ids: Vec<PageId> = (0..6u8).map(|i| page(&s, i)).collect();
    s.reset_stats();
    for &id in &ids {
        s.read_node(id, first_byte).unwrap();
        s.write_page(id, &[9]).unwrap();
    }
    for &id in &ids[..3] {
        s.free(id).unwrap();
    }
    assert!(s.free(ids[0]).is_err(), "double free");
    assert!(
        s.write_page(PageId(1 << 40), &[1]).is_err(),
        "never allocated"
    );
    assert_eq!(s.stats().decode_invalidations, 6 + 3);
    s.validate().unwrap();
}

/// `node_cache_pages: 0` keeps no decodes anywhere: every live and every
/// pinned read runs the codec, and the byte-level reads are unchanged.
#[test]
fn zero_node_cache_pages_keeps_no_decodes() {
    let s =
        SharedStore::open(&StoreConfig::small(128, 8).with_wal(true).with_node_cache(0)).unwrap();
    let a = page(&s, 5);
    s.commit().unwrap();
    s.reset_stats();
    for _ in 0..3 {
        assert_eq!(read(&s, a), (5, true));
    }
    let snap = s.snapshot().unwrap();
    for _ in 0..3 {
        assert_eq!(*snap.read_node(a, first_byte).unwrap(), 5);
    }
    assert_eq!(snap.node_reads(), (3, 3));
    let st = s.stats();
    assert_eq!((st.decode_hits, st.decode_misses), (0, 6));
    assert_eq!((st.hits, st.reads), (6, 0));
}
