//! Decoded-node cache of *committed* page images, for pinned reads.
//!
//! A live read keeps its decode in the buffer frame that holds the page
//! (see [`BufferPool::read_node`](crate::buffer::BufferPool::read_node)):
//! the paper's LRU is the only LRU a live read goes through. A pinned
//! read cannot use a frame's decode when the frame is dirty — its bytes
//! are the writer's, not the pinned commit's — so a WAL store keeps this
//! second, typed cache: an entry is the decode of its page's *current
//! committed image*, an `Arc<dyn Any + Send + Sync>` keyed by page id,
//! and it serves every pinned read
//! ([`StoreSnapshot::read_node`](crate::store::StoreSnapshot::read_node))
//! of every pin. It changes nothing about byte-level I/O accounting.
//!
//! # Why no generations
//!
//! A committed image changes only inside a commit's epoch flip, under
//! the exclusive write barrier, and only for that transaction's pages:
//! the flip publishes the new epoch, then [`invalidate`]s exactly those
//! entries before it releases the barrier. A read that decodes holds the
//! barrier shared from its [`lookup`] to its [`insert`], so no flip can
//! fall between them and the insert is always of the current image.
//! A pinned *hit* takes no barrier: [`try_hit`] re-reads the pool's
//! epoch under the shard lock that found the entry and keeps the entry
//! only if the epoch is still the reader's (the argument is on
//! [`BufferPool::read_node_at`](crate::buffer::BufferPool::read_node_at)).
//! A page superseded *after* a reader's epoch is decoded from its
//! retained image and never cached.
//!
//! Each shard's mutex is a [`RankedMutex`] at rank
//! [`NODE_CACHE`](crate::rank::NODE_CACHE), a leaf lock, and each shard
//! finds its entries through a dense `PageMap`: the shard is a page
//! id's low bits, as in the buffer pool.
//!
//! [`lookup`]: NodeCache::lookup
//! [`insert`]: NodeCache::insert
//! [`invalidate`]: NodeCache::invalidate
//! [`try_hit`]: NodeCache::try_hit

use std::any::Any;
use std::sync::Arc;

use crate::pagemap::PageMap;
use crate::pager::PageId;
use crate::rank::{self, RankedMutex};

/// Type-erased decoded node, as a buffer frame or the cache holds it.
pub(crate) type CachedNode = Arc<dyn Any + Send + Sync>;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    id: PageId,
    node: Option<CachedNode>,
    prev: usize,
    next: usize,
}

/// One independent LRU list over a slice of the page-id space.
struct CacheShard {
    capacity: usize,
    slots: Vec<Slot>,
    map: PageMap,
    /// Most recently used slot index.
    head: usize,
    /// Least recently used slot index.
    tail: usize,
    free: Vec<usize>,
    /// Reads of this shard's pages served from a cached node / that
    /// found none, and invalidations — counted under the shard lock the
    /// operation already holds, so concurrent readers share no counter
    /// cache line.
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl CacheShard {
    fn new(capacity: usize, shards: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            map: PageMap::new(shards),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head != idx {
            self.detach(idx);
            self.push_front(idx);
        }
    }

    /// Removes the entry caching `id`, if any (LRU eviction or explicit
    /// invalidation).
    fn remove(&mut self, id: PageId) {
        if let Some(idx) = self.map.remove(id) {
            self.detach(idx);
            self.slots[idx].node = None;
            self.slots[idx].id = PageId::NULL;
            self.free.push(idx);
        }
    }

    fn insert(&mut self, id: PageId, node: CachedNode) {
        if self.capacity == 0 {
            return;
        }
        if let Some(idx) = self.map.get(id) {
            self.slots[idx].node = Some(node);
            self.touch(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.slots[self.tail].id;
            self.remove(victim);
        }
        let slot = Slot {
            id,
            node: Some(node),
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = slot;
            idx
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(id, idx);
        self.push_front(idx);
    }
}

/// A sharded LRU cache of decoded committed images.
///
/// The buffer pool of a WAL store owns one (see the module docs);
/// capacity 0 disables storage entirely (every lookup is a counted
/// miss, preserving the `decode_hits + decode_misses == node accesses`
/// invariant even when disabled). The counters live in the shards and
/// are summed on demand.
pub(crate) struct NodeCache {
    shards: Box<[RankedMutex<CacheShard>]>,
}

impl std::fmt::Debug for NodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl NodeCache {
    /// Creates a cache holding at most `capacity` decoded nodes split
    /// across `shards` LRU lists: rounded up to a power of two, then
    /// clamped to the largest power of two ≤ `capacity`, so every shard
    /// holds at least one node and together they hold exactly
    /// `capacity`. `capacity == 0` disables storage (one empty shard)
    /// but keeps counting accesses.
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        let n = shards
            .max(1)
            .next_power_of_two()
            .min(1 << capacity.max(1).ilog2());
        let shards: Vec<RankedMutex<CacheShard>> = (0..n)
            .map(|i| {
                // Split capacity as evenly as possible.
                let cap = capacity / n + usize::from(i < capacity % n);
                RankedMutex::new(
                    rank::NODE_CACHE,
                    "node cache shard",
                    CacheShard::new(cap, n),
                )
            })
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
        }
    }

    fn shard_index(&self, id: PageId) -> usize {
        PageMap::shard_of(id, self.shards.len())
    }

    fn shard_for(&self, id: PageId) -> &RankedMutex<CacheShard> {
        &self.shards[self.shard_index(id)]
    }

    /// Total node capacity (summed across shards).
    pub(crate) fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.acquire().capacity).sum()
    }

    /// The cached node for `id`, counting a hit; a missing entry — or
    /// one whose concrete type is not `N`, which is dropped — counts a
    /// miss, and the caller decodes and [`insert`](Self::insert)s.
    pub(crate) fn lookup<N: Any + Send + Sync>(&self, id: PageId) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        if let Some(idx) = shard.map.get(id) {
            let node = shard.slots[idx]
                .node
                .clone()
                .and_then(|n| n.downcast::<N>().ok());
            if let Some(node) = node {
                shard.touch(idx);
                shard.hits += 1;
                return Some(node);
            }
            shard.remove(id);
        }
        shard.misses += 1;
        None
    }

    /// The cached node for `id`, if there is one of type `N` and
    /// `still_valid()` — called under the shard lock, after the entry
    /// was found — returns true; only then is a hit counted and the
    /// entry refreshed. Otherwise nothing is counted or changed and the
    /// caller falls back to [`lookup`](Self::lookup), which counts the
    /// read: every read is one hit or one miss, however it was served.
    pub(crate) fn try_hit<N: Any + Send + Sync>(
        &self,
        id: PageId,
        still_valid: impl FnOnce() -> bool,
    ) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        let idx = shard.map.get(id)?;
        let node = shard.slots[idx].node.clone()?.downcast::<N>().ok()?;
        if !still_valid() {
            return None;
        }
        shard.touch(idx);
        shard.hits += 1;
        Some(node)
    }

    /// Caches `node` as the decode of `id`'s current committed image.
    /// The caller holds what keeps that image from changing since its
    /// [`lookup`](Self::lookup) (module docs).
    pub(crate) fn insert(&self, id: PageId, node: CachedNode) {
        self.shard_for(id).acquire().insert(id, node);
    }

    /// Drops any cached node of `id` and counts an invalidation.
    pub(crate) fn invalidate(&self, id: PageId) {
        let mut shard = self.shard_for(id).acquire();
        shard.remove(id);
        shard.invalidations += 1;
    }

    /// Counts a read of `id` that decoded without consulting the cache
    /// (a pinned read of a superseded image), keeping `hits + misses`
    /// equal to the node reads served.
    pub(crate) fn count_miss(&self, id: PageId) {
        self.shard_for(id).acquire().misses += 1;
    }

    /// `(hits, misses, invalidations)`, summed over every shard.
    pub(crate) fn counters(&self) -> (u64, u64, u64) {
        let mut sum = (0, 0, 0);
        for shard in self.shards.iter() {
            let s = shard.acquire();
            sum = (sum.0 + s.hits, sum.1 + s.misses, sum.2 + s.invalidations);
        }
        sum
    }

    /// Zeroes every shard's hit/miss/invalidation counters.
    pub(crate) fn reset_counters(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.acquire();
            s.hits = 0;
            s.misses = 0;
            s.invalidations = 0;
        }
    }

    /// Checks the cache's structural invariants — used by the
    /// fault-sweep harness after injected failures. Per shard: the LRU
    /// list is well-formed over exactly the mapped slots, every slot is
    /// mapped or free (none leaked), free slots are truly emptied, live
    /// entries hold a node, and occupancy respects capacity.
    pub(crate) fn validate(&self) -> boxagg_common::error::Result<()> {
        use boxagg_common::error::corrupt;
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.acquire();
            let fail = |msg: &str| Err(corrupt(format!("node cache shard {si}: {msg}")));
            let mut linked = 0usize;
            let mut prev = NIL;
            let mut idx = shard.head;
            while idx != NIL {
                let s = &shard.slots[idx];
                if s.prev != prev {
                    return fail("LRU back-link mismatch");
                }
                if s.id.is_null() || s.node.is_none() {
                    return fail("linked slot holds no entry");
                }
                if self.shard_index(s.id) != si || shard.map.get(s.id) != Some(idx) {
                    return fail("linked slot not mapped to itself");
                }
                linked += 1;
                if linked > shard.slots.len() {
                    return fail("LRU list cycles");
                }
                prev = idx;
                idx = s.next;
            }
            if shard.tail != prev {
                return fail("tail does not end the LRU list");
            }
            if linked != shard.map.len() {
                return fail("mapped slots missing from the LRU list");
            }
            if shard.map.len() > shard.capacity {
                return fail("occupancy exceeds capacity (or a disabled shard stored an entry)");
            }
            let mut free_set = std::collections::HashSet::new();
            for &i in &shard.free {
                if !free_set.insert(i) {
                    return fail("slot on the free list twice");
                }
                if !shard.slots[i].id.is_null() || shard.slots[i].node.is_some() {
                    return fail("free slot not emptied");
                }
            }
            if linked + shard.free.len() != shard.slots.len() {
                return fail("slot leaked (neither mapped nor free)");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> PageId {
        PageId(n)
    }

    fn put(cache: &NodeCache, n: u64) {
        assert!(cache.lookup::<u64>(pid(n)).is_none());
        cache.insert(pid(n), Arc::new(n));
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = NodeCache::new(8, 1);
        assert!(cache.lookup::<String>(pid(1)).is_none());
        cache.insert(pid(1), Arc::new("node".to_string()));
        let got = cache.lookup::<String>(pid(1));
        assert_eq!(got.unwrap().as_str(), "node");
        assert_eq!(cache.counters(), (1, 1, 0));
    }

    #[test]
    fn invalidate_drops_the_entry_and_a_later_insert_sticks() {
        let cache = NodeCache::new(8, 1);
        put(&cache, 7);
        cache.invalidate(pid(7));
        assert!(cache.lookup::<u64>(pid(7)).is_none(), "entry dropped");
        cache.insert(pid(7), Arc::new(2u64));
        assert_eq!(*cache.lookup::<u64>(pid(7)).unwrap(), 2);
        // Invalidating an absent page still counts.
        cache.invalidate(pid(8));
        assert_eq!(cache.counters(), (1, 2, 2));
        cache.validate().unwrap();
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = NodeCache::new(2, 1);
        for n in [1u64, 2] {
            put(&cache, n);
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup::<u64>(pid(1)).is_some());
        put(&cache, 3);
        assert!(cache.lookup::<u64>(pid(2)).is_none(), "2 was evicted");
        assert!(cache.lookup::<u64>(pid(1)).is_some());
        assert!(cache.lookup::<u64>(pid(3)).is_some());
    }

    #[test]
    fn zero_capacity_counts_misses_but_stores_nothing() {
        let cache = NodeCache::new(0, 4);
        for n in 0..10u64 {
            put(&cache, n);
        }
        for n in 0..10u64 {
            assert!(cache.lookup::<u64>(pid(n)).is_none());
        }
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (0, 20));
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn wrong_type_is_a_counted_miss_and_reinsertable() {
        let cache = NodeCache::new(4, 1);
        assert!(cache.lookup::<u32>(pid(9)).is_none());
        cache.insert(pid(9), Arc::new(5u32));
        // Same page asked for as a different type: miss, entry dropped.
        assert!(cache.lookup::<String>(pid(9)).is_none());
        cache.insert(pid(9), Arc::new("s".to_string()));
        assert_eq!(cache.lookup::<String>(pid(9)).unwrap().as_str(), "s");
        // Three lookups total: one counted hit, two counted misses.
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn more_shards_than_nodes_are_clamped_to_the_capacity() {
        let cache = NodeCache::new(8, 64);
        assert_eq!(cache.capacity(), 8);
        assert_eq!(cache.shards.len(), 8, "largest power of two <= 8");
        assert_eq!(NodeCache::new(6, 64).shards.len(), 4);
        assert_eq!(NodeCache::new(6, 64).capacity(), 6);
        assert_eq!(NodeCache::new(0, 64).shards.len(), 1);
        let resident = |c: &NodeCache| {
            c.shards
                .iter()
                .map(|s| s.acquire().map.len())
                .sum::<usize>()
        };
        // One page per shard fills the cache…
        let mut first_per_shard = std::collections::BTreeMap::new();
        let mut n = 0u64;
        while first_per_shard.len() < 8 {
            first_per_shard
                .entry(cache.shard_index(pid(n)))
                .or_insert(n);
            n += 1;
        }
        for &n in first_per_shard.values() {
            put(&cache, n);
        }
        assert_eq!(resident(&cache), 8);
        // …and a ninth insert evicts.
        let ninth = (0u64..)
            .find(|n| !first_per_shard.values().any(|m| m == n))
            .unwrap();
        put(&cache, ninth);
        assert_eq!(resident(&cache), 8);
        let still = first_per_shard
            .values()
            .filter(|&&n| cache.lookup::<u64>(pid(n)).is_some())
            .count();
        assert_eq!(still, 7, "the ninth page's shard evicted its one node");
        cache.validate().unwrap();
    }

    #[test]
    fn try_hit_counts_only_the_hits_it_keeps() {
        let cache = NodeCache::new(4, 1);
        assert!(cache.try_hit::<u64>(pid(1), || true).is_none(), "absent");
        put(&cache, 1);
        assert!(
            cache.try_hit::<u32>(pid(1), || true).is_none(),
            "wrong type"
        );
        assert!(
            cache.try_hit::<u64>(pid(1), || false).is_none(),
            "not valid"
        );
        assert_eq!(cache.counters(), (0, 1, 0), "only put's lookup counted");
        assert_eq!(*cache.try_hit::<u64>(pid(1), || true).unwrap(), 1);
        assert_eq!(cache.counters(), (1, 1, 0));
    }

    #[test]
    fn counters_and_their_reset_cover_every_shard() {
        const PAGES: u64 = 512;
        let cache = NodeCache::new(PAGES as usize, 64);
        assert_eq!(cache.shards.len(), 64);
        for n in 0..PAGES {
            put(&cache, n); // a miss
            assert!(cache.lookup::<u64>(pid(n)).is_some());
            assert!(cache.try_hit::<u64>(pid(n), || true).is_some());
            assert!(cache.try_hit::<u64>(pid(n), || false).is_none());
            cache.count_miss(pid(n));
            cache.invalidate(pid(n));
        }
        for shard in cache.shards.iter() {
            let s = shard.acquire();
            assert!(s.hits > 0 && s.misses > 0 && s.invalidations > 0);
        }
        assert_eq!(cache.counters(), (2 * PAGES, 2 * PAGES, PAGES));
        cache.reset_counters();
        assert_eq!(cache.counters(), (0, 0, 0));
    }

    #[test]
    fn counters_reset() {
        let cache = NodeCache::new(4, 2);
        put(&cache, 3);
        cache.lookup::<u8>(pid(3));
        cache.invalidate(pid(3));
        assert_ne!(cache.counters(), (0, 0, 0));
        cache.reset_counters();
        assert_eq!(cache.counters(), (0, 0, 0));
    }
}
