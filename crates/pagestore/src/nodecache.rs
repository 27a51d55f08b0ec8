//! Decoded-node cache: a typed object cache layered *above* the byte
//! buffer pool.
//!
//! A dominance-sum traversal decodes every node it touches, so a byte
//! buffer *hit* still re-parses points, values and polynomial tuples on
//! every visit.  This cache keeps the decoded representation — an
//! `Arc<dyn Any + Send + Sync>` — keyed by page id, so warm traversals
//! skip the codec entirely.  It deliberately changes *nothing* about
//! byte-level I/O accounting: the store still performs exactly one
//! byte-pool access per node read (see
//! [`SharedStore::read_node`](crate::store::SharedStore::read_node)), so
//! the paper-faithful `IoStats` reads/hits/eviction order are
//! byte-identical with the cache on or off.
//!
//! # Generation protocol
//!
//! Staleness is prevented with per-page *generations*:
//!
//! * [`lookup`](NodeCache::lookup) returns the cached node (if any) and
//!   the page's current generation `g`.
//! * The caller decodes **outside** the cache lock and then calls
//!   [`insert_if_current`](NodeCache::insert_if_current) with `g`; the
//!   insert is dropped if the generation moved in the meantime.
//! * [`invalidate`](NodeCache::invalidate) — called by the store *after*
//!   a byte write or free completes — bumps the generation and removes
//!   any cached entry.
//!
//! Any decode racing a writer either (a) inserts before the writer's
//! invalidate, which then removes it, or (b) inserts after, in which case
//! its generation check fails.  An entry that survives was inserted with
//! the post-write generation and therefore decoded the post-write bytes.
//!
//! Each shard's mutex is a [`RankedMutex`] at rank
//! [`NODE_CACHE`](crate::rank::NODE_CACHE); only the byte-pool locks
//! below it in the rank table are acquired while it is held.
//!
//! # Relation to commit epochs
//!
//! The `(page, generation)` pairs here are the single-version
//! ancestor of the buffer pool's store-wide *commit epochs* (see the
//! `buffer` module docs): a generation says "these decoded bytes are
//! current", an epoch says "these bytes were current as of commit
//! `e`".  A cache instance stays single-version, so a WAL store runs
//! **two** of them, one per image a page can have between commits:
//!
//! * the *live* instance, owned by
//!   [`SharedStore`](crate::store::SharedStore), tracks the bytes
//!   writers see and is invalidated by every `write_page` / `free`;
//! * the *committed* instance, owned by
//!   [`BufferPool`](crate::buffer::BufferPool), tracks each page's
//!   current **committed** image and serves every pinned read
//!   ([`StoreSnapshot::read_node`](crate::store::StoreSnapshot::read_node)).
//!   A committed image changes only inside the commit's epoch flip,
//!   under the exclusive write barrier, and only for that
//!   transaction's pages — so the flip publishes the new epoch, then
//!   invalidates exactly those entries before it releases the
//!   barrier, and a pinned read that decodes holds the barrier shared
//!   from its lookup to its insert.  A pinned *hit* takes no barrier:
//!   [`try_hit`](NodeCache::try_hit) re-reads the pool's epoch under
//!   the shard lock that found the entry and keeps the entry only if
//!   the epoch is still the reader's (the argument is on
//!   [`BufferPool::read_node_at`](crate::buffer::BufferPool::read_node_at)).
//!   Validity is the epoch check ordered by the shard lock; the
//!   generation check is never the deciding vote there.  A page
//!   superseded *after* a reader's epoch is decoded from its retained
//!   image and never cached.
//!
//! One instance cannot do both jobs: a BA-tree insert dirties its
//! whole root-to-leaf path, so between commits the hottest pages have
//! two different images (measured in EXPERIMENTS.md, PR 13).

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use crate::pager::PageId;
use crate::rank::{self, RankedMutex};

/// Type-erased decoded node as stored in the cache.
pub type CachedNode = Arc<dyn Any + Send + Sync>;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    id: PageId,
    gen: u64,
    node: Option<CachedNode>,
    prev: usize,
    next: usize,
}

/// One independent LRU list over a slice of the page-id space, mirroring
/// the byte pool's shard structure.
struct CacheShard {
    capacity: usize,
    slots: Vec<Slot>,
    map: HashMap<PageId, usize>,
    /// Current generation per page id.  Outlives the cached entry: a
    /// generation recorded here rejects in-flight decodes that started
    /// before the write that bumped it.  Absent means generation 0.
    gens: HashMap<PageId, u64>,
    /// Most recently used slot index.
    head: usize,
    /// Least recently used slot index.
    tail: usize,
    free: Vec<usize>,
    /// Reads of this shard's pages served from a cached node / that had
    /// to decode, and generation bumps — counted under the shard lock
    /// the operation already holds, so concurrent readers share no
    /// counter cache line.
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl CacheShard {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::new(),
            map: HashMap::new(),
            gens: HashMap::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            hits: 0,
            misses: 0,
            invalidations: 0,
        }
    }

    fn generation(&self, id: PageId) -> u64 {
        self.gens.get(&id).copied().unwrap_or(0)
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
    fn remove(&mut self, id: PageId) -> bool {
        if let Some(idx) = self.map.remove(&id) {
            self.detach(idx);
            self.slots[idx].node = None;
            self.slots[idx].id = PageId::NULL;
            self.free.push(idx);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, id: PageId, gen: u64, node: CachedNode) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&id) {
            self.slots[idx].gen = gen;
            self.slots[idx].node = Some(node);
            self.touch(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.slots[self.tail].id;
            self.remove(victim);
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Slot {
                id,
                gen,
                node: Some(node),
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.slots.push(Slot {
                id,
                gen,
                node: Some(node),
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(id, idx);
        self.push_front(idx);
    }
}

/// A sharded, generation-checked LRU cache of decoded nodes.
///
/// A store runs one instance over live bytes and, with WAL on, a
/// second over committed images (see the module docs); capacity 0
/// disables storage entirely (every lookup is a counted miss,
/// preserving the `decode_hits + decode_misses == node accesses`
/// invariant even when disabled). The counters live in the shards and
/// are summed on demand.
pub struct NodeCache {
    shards: Box<[RankedMutex<CacheShard>]>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
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
    pub fn new(capacity: usize, shards: usize) -> Self {
        let n = shards
            .max(1)
            .next_power_of_two()
            .min(1 << capacity.max(1).ilog2());
        let shards: Vec<RankedMutex<CacheShard>> = (0..n)
            .map(|i| {
                // Split capacity as evenly as possible.
                let cap = capacity / n + usize::from(i < capacity % n);
                RankedMutex::new(rank::NODE_CACHE, "node cache shard", CacheShard::new(cap))
            })
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
            shard_mask: (n - 1) as u64,
        }
    }

    fn shard_index(&self, id: PageId) -> usize {
        // Fibonacci hashing, matching the byte pool's spread.
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h & self.shard_mask) as usize
    }

    fn shard_for(&self, id: PageId) -> &RankedMutex<CacheShard> {
        &self.shards[self.shard_index(id)]
    }

    /// Total node capacity (summed across shards).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.acquire().capacity).sum()
    }

    /// Looks up the decoded node for `id` and returns it (counting a hit)
    /// together with the page's current generation. A missing entry — or
    /// one whose concrete type is not `N` — counts as a miss; the caller
    /// decodes and calls [`insert_if_current`](Self::insert_if_current)
    /// with the returned generation.
    pub fn lookup<N: Any + Send + Sync>(&self, id: PageId) -> (Option<Arc<N>>, u64) {
        let mut shard = self.shard_for(id).acquire();
        let gen = shard.generation(id);
        if let Some(&idx) = shard.map.get(&id) {
            let node = shard.slots[idx]
                .node
                .clone()
                .and_then(|n| n.downcast::<N>().ok());
            if let Some(node) = node {
                shard.touch(idx);
                shard.hits += 1;
                return (Some(node), gen);
            }
            // Same page decoded as a different type: drop the entry and
            // let the caller re-decode.
            shard.remove(id);
        }
        shard.misses += 1;
        (None, gen)
    }

    /// The cached node for `id`, if there is one of type `N` and
    /// `still_valid()` — called under the shard lock, after the entry
    /// was found — returns true; only then is a hit counted and the
    /// entry refreshed. Otherwise nothing is counted or changed and the
    /// caller falls back to [`lookup`](Self::lookup), which counts the
    /// read: every read is one hit or one miss, however it was served.
    pub fn try_hit<N: Any + Send + Sync>(
        &self,
        id: PageId,
        still_valid: impl FnOnce() -> bool,
    ) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        let idx = *shard.map.get(&id)?;
        let node = shard.slots[idx].node.clone()?.downcast::<N>().ok()?;
        if !still_valid() {
            return None;
        }
        shard.touch(idx);
        shard.hits += 1;
        Some(node)
    }

    /// Caches `node` for `id` unless the page's generation moved past
    /// `gen` since the matching [`lookup`](Self::lookup) — in which case
    /// the decode raced a write and is silently dropped.
    pub fn insert_if_current(&self, id: PageId, gen: u64, node: CachedNode) {
        let mut shard = self.shard_for(id).acquire();
        if shard.capacity == 0 || shard.generation(id) != gen {
            return;
        }
        shard.insert(id, gen, node);
    }

    /// Bumps `id`'s generation and removes any cached entry.  Must be
    /// called after the byte-level write (or free) has completed, so that
    /// any decode that survives the bump has seen the new bytes.
    pub fn invalidate(&self, id: PageId) {
        let mut shard = self.shard_for(id).acquire();
        let gen = shard.generation(id);
        shard.gens.insert(id, gen + 1);
        shard.remove(id);
        shard.invalidations += 1;
    }

    /// Counts a read of `id` that decoded without consulting the cache
    /// (a pinned read of a superseded image), keeping `hits + misses`
    /// equal to the node reads served.
    pub fn count_miss(&self, id: PageId) {
        self.shard_for(id).acquire().misses += 1;
    }

    /// `(hits, misses, invalidations)`, summed over every shard.
    pub fn counters(&self) -> (u64, u64, u64) {
        let mut sum = (0, 0, 0);
        for shard in self.shards.iter() {
            let s = shard.acquire();
            sum = (sum.0 + s.hits, sum.1 + s.misses, sum.2 + s.invalidations);
        }
        sum
    }

    /// Zeroes every shard's hit/miss/invalidation counters.
    pub fn reset_counters(&self) {
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
    /// entries hold a node, occupancy respects capacity, and no live
    /// entry's generation exceeds the page's current generation.
    pub fn validate(&self) -> boxagg_common::error::Result<()> {
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
                if shard.map.get(&s.id) != Some(&idx) {
                    return fail("linked slot not mapped to itself");
                }
                if s.gen > shard.generation(s.id) {
                    return fail("cached generation ahead of the page's");
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

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = NodeCache::new(8, 1);
        let (got, gen) = cache.lookup::<String>(pid(1));
        assert!(got.is_none());
        cache.insert_if_current(pid(1), gen, Arc::new("node".to_string()));
        let (got, _) = cache.lookup::<String>(pid(1));
        assert_eq!(got.unwrap().as_str(), "node");
        assert_eq!(cache.counters(), (1, 1, 0));
    }

    #[test]
    fn invalidate_rejects_stale_insert_and_drops_entry() {
        let cache = NodeCache::new(8, 1);
        let (_, gen) = cache.lookup::<u32>(pid(7));
        cache.invalidate(pid(7));
        // The decode started before the write: its insert must be dropped.
        cache.insert_if_current(pid(7), gen, Arc::new(1u32));
        let (got, gen2) = cache.lookup::<u32>(pid(7));
        assert!(got.is_none(), "stale insert must not be observable");
        assert_ne!(gen, gen2);
        // An insert carrying the post-write generation sticks.
        cache.insert_if_current(pid(7), gen2, Arc::new(2u32));
        assert_eq!(*cache.lookup::<u32>(pid(7)).0.unwrap(), 2);
        // Invalidation removes a live entry too.
        cache.invalidate(pid(7));
        assert!(cache.lookup::<u32>(pid(7)).0.is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = NodeCache::new(2, 1);
        for n in [1u64, 2] {
            let (_, gen) = cache.lookup::<u64>(pid(n));
            cache.insert_if_current(pid(n), gen, Arc::new(n));
        }
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup::<u64>(pid(1)).0.is_some());
        let (_, gen) = cache.lookup::<u64>(pid(3));
        cache.insert_if_current(pid(3), gen, Arc::new(3u64));
        assert!(cache.lookup::<u64>(pid(2)).0.is_none(), "2 was evicted");
        assert!(cache.lookup::<u64>(pid(1)).0.is_some());
        assert!(cache.lookup::<u64>(pid(3)).0.is_some());
    }

    #[test]
    fn zero_capacity_counts_misses_but_stores_nothing() {
        let cache = NodeCache::new(0, 4);
        for n in 0..10u64 {
            let (got, gen) = cache.lookup::<u64>(pid(n));
            assert!(got.is_none());
            cache.insert_if_current(pid(n), gen, Arc::new(n));
        }
        for n in 0..10u64 {
            assert!(cache.lookup::<u64>(pid(n)).0.is_none());
        }
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (0, 20));
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn wrong_type_is_a_counted_miss_and_reinsertable() {
        let cache = NodeCache::new(4, 1);
        let (_, gen) = cache.lookup::<u32>(pid(9));
        cache.insert_if_current(pid(9), gen, Arc::new(5u32));
        // Same page asked for as a different type: miss, entry dropped.
        let (got, gen2) = cache.lookup::<String>(pid(9));
        assert!(got.is_none());
        cache.insert_if_current(pid(9), gen2, Arc::new("s".to_string()));
        assert_eq!(cache.lookup::<String>(pid(9)).0.unwrap().as_str(), "s");
        // Three lookups total: one counted hit, two counted misses.
        let (hits, misses, _) = cache.counters();
        assert_eq!((hits, misses), (1, 2));
    }

    fn put(cache: &NodeCache, n: u64) {
        let (_, gen) = cache.lookup::<u64>(pid(n));
        cache.insert_if_current(pid(n), gen, Arc::new(n));
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
            .filter(|&&n| cache.lookup::<u64>(pid(n)).0.is_some())
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
            assert!(cache.lookup::<u64>(pid(n)).0.is_some());
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
        let (_, gen) = cache.lookup::<u8>(pid(3));
        cache.insert_if_current(pid(3), gen, Arc::new(1u8));
        cache.lookup::<u8>(pid(3));
        cache.invalidate(pid(3));
        assert_ne!(cache.counters(), (0, 0, 0));
        cache.reset_counters();
        assert_eq!(cache.counters(), (0, 0, 0));
    }
}
