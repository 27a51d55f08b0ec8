//! Decoded-node cache of *committed* page images, for pinned reads.
//!
//! A live read keeps its decode in the buffer frame that holds the page
//! (see [`BufferPool::read_node`](crate::buffer::BufferPool::read_node)).
//! A pinned read cannot use a frame's decode when the frame is dirty —
//! its bytes are the writer's, not the pinned commit's — so a WAL store
//! keeps this second, typed index: an entry is the decode of its page's
//! *current committed image*, an `Arc<dyn Any + Send + Sync>` keyed by
//! page id, and it serves every pinned read
//! ([`StoreSnapshot::read_node`](crate::store::StoreSnapshot::read_node))
//! of every pin. A hit performs no page access, so it is neither a
//! buffer hit nor a touch of the LRU; its one effect on the buffer is
//! the second chance its mark earns the page's frame (below).
//!
//! # No eviction policy of its own
//!
//! The cache holds decodes of *resident* pages only, and has no
//! capacity, recency list or victim choice: the buffer pool inserts an
//! entry while it holds the page's frame under the LRU lock, and
//! [`remove`]s it under that lock when the frame goes — evicted, freed
//! or reused. So every entry's page has a frame, the paper's LRU decides
//! what a pinned read finds decoded, and the cache is bounded by the
//! buffer.
//!
//! A hit does not reach the LRU (that is what keeps it lock-light), so
//! it leaves its recency here instead: it marks the entry *referenced*.
//! The pool's no-steal eviction asks [`second_chance`] before it takes a
//! clean frame, and a referenced page's frame goes back to the front of
//! the LRU with its mark cleared — so a page only pinned readers use
//! stays resident, and decoded, for as long as they keep using it.
//!
//! # Why no generations
//!
//! A committed image changes only inside a commit's epoch flip, under
//! the exclusive commit barrier, and only for that transaction's pages:
//! the flip publishes the new epoch, then [`invalidate`]s exactly those
//! entries before it releases the barrier. A read that decodes holds the
//! barrier shared from its [`lookup`] to its [`insert`], so no flip can
//! fall between them and the insert is always of the current image.
//! A pinned *hit* takes no barrier and no LRU lock: [`try_hit`] re-reads
//! the pool's epoch under the shard lock that found the entry and keeps
//! the entry only if the epoch is still the reader's (the argument is on
//! [`BufferPool::read_node_at`](crate::buffer::BufferPool::read_node_at)).
//! A page superseded *after* a reader's epoch is decoded from its
//! retained image and never cached.
//!
//! Each of the [`SHARDS`] shards' mutex is a [`RankedMutex`] at rank
//! [`NODE_CACHE`](crate::rank::NODE_CACHE), a leaf lock taken under the
//! LRU or with no lock held. The shard is a page id's low bits, and a
//! shard is a dense `Vec` indexed by the rest: page ids are dense, and
//! only a resident page's id is ever inserted, so the shards grow no
//! further than the buffer's own directory.
//!
//! [`lookup`]: NodeCache::lookup
//! [`insert`]: NodeCache::insert
//! [`remove`]: NodeCache::remove
//! [`invalidate`]: NodeCache::invalidate
//! [`try_hit`]: NodeCache::try_hit
//! [`second_chance`]: NodeCache::second_chance

use std::any::Any;
use std::sync::Arc;

use crate::pager::PageId;
use crate::rank::{self, RankedMutex};

/// Type-erased decoded node, as a buffer frame or the cache holds it.
pub(crate) type CachedNode = Arc<dyn Any + Send + Sync>;

/// `log2` of the fixed shard count: pinned hits on every core go through
/// the shards, beside the byte pool's one paper-faithful LRU.
const SHARD_BITS: u32 = 6;
const SHARDS: usize = 1 << SHARD_BITS;

/// One cached decode.
struct Entry {
    node: CachedNode,
    /// Hit since it was inserted or last given a
    /// [second chance](NodeCache::second_chance).
    referenced: bool,
}

/// The decodes of one slice of the page-id space.
struct CacheShard {
    /// `entries[id >> SHARD_BITS]` is page `id`'s entry, if any.
    entries: Vec<Option<Entry>>,
    /// Reads of this shard's pages served from a cached node / that
    /// found none, and invalidations — counted under the shard lock the
    /// operation already holds, so concurrent readers share no counter
    /// cache line.
    hits: u64,
    misses: u64,
    invalidations: u64,
}

/// Position of page `id` in its shard; saturates, so an id no `Vec`
/// could reach is simply past the end.
fn pos(id: PageId) -> usize {
    usize::try_from(id.0 >> SHARD_BITS).unwrap_or(usize::MAX)
}

impl CacheShard {
    fn get_mut(&mut self, id: PageId) -> Option<&mut Entry> {
        self.entries.get_mut(pos(id))?.as_mut()
    }

    /// Takes `id`'s entry out of the shard.
    fn take(&mut self, id: PageId) -> Option<Entry> {
        self.entries.get_mut(pos(id))?.take()
    }

    /// The node of `id`'s entry if it is an `N`, marking the entry
    /// referenced; uncounted.
    fn hit<N: Any + Send + Sync>(&mut self, id: PageId) -> Option<Arc<N>> {
        let entry = self.get_mut(id)?;
        let node = Arc::clone(&entry.node).downcast::<N>().ok()?;
        entry.referenced = true;
        Some(node)
    }
}

/// A sharded index of the decoded committed images of resident pages.
///
/// The buffer pool of a WAL store keeps entries in one (see the module
/// docs); every pool counts its pinned reads in one, so that
/// `decode_hits + decode_misses` equals the node reads served whether
/// decodes are kept or not. The counters live in the shards and are
/// summed on demand.
pub(crate) struct NodeCache {
    shards: Box<[RankedMutex<CacheShard>]>,
}

impl NodeCache {
    /// An empty cache of [`SHARDS`] shards.
    pub(crate) fn new() -> Self {
        let shards: Vec<RankedMutex<CacheShard>> = (0..SHARDS)
            .map(|_| {
                let shard = CacheShard {
                    entries: Vec::new(),
                    hits: 0,
                    misses: 0,
                    invalidations: 0,
                };
                RankedMutex::new(rank::NODE_CACHE, "node cache shard", shard)
            })
            .collect();
        Self {
            shards: shards.into_boxed_slice(),
        }
    }

    fn shard_for(&self, id: PageId) -> &RankedMutex<CacheShard> {
        &self.shards[(id.0 & (SHARDS as u64 - 1)) as usize]
    }

    /// The cached node for `id`, counting a hit; a missing entry — or
    /// one whose concrete type is not `N`, which is dropped — counts a
    /// miss, and the caller decodes and [`insert`](Self::insert)s.
    pub(crate) fn lookup<N: Any + Send + Sync>(&self, id: PageId) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        if let Some(node) = shard.hit(id) {
            shard.hits += 1;
            return Some(node);
        }
        shard.take(id);
        shard.misses += 1;
        None
    }

    /// The cached node for `id`, if there is one of type `N` and
    /// `still_valid()` — called under the shard lock, after the entry
    /// was found — returns true; only then is a hit counted. Otherwise
    /// nothing is counted and the caller falls back to
    /// [`lookup`](Self::lookup), which counts the read: every read is
    /// one hit or one miss, however it was served.
    pub(crate) fn try_hit<N: Any + Send + Sync>(
        &self,
        id: PageId,
        still_valid: impl FnOnce() -> bool,
    ) -> Option<Arc<N>> {
        let mut shard = self.shard_for(id).acquire();
        let node = shard.hit(id)?;
        if !still_valid() {
            return None;
        }
        shard.hits += 1;
        Some(node)
    }

    /// Caches `node` as the decode of `id`'s current committed image.
    /// The caller holds `id`'s frame under the LRU lock, and what keeps
    /// that image from changing since its [`lookup`](Self::lookup)
    /// (module docs).
    pub(crate) fn insert(&self, id: PageId, node: CachedNode) {
        let mut shard = self.shard_for(id).acquire();
        let at = pos(id);
        if at >= shard.entries.len() {
            shard.entries.resize_with(at + 1, || None);
        }
        shard.entries[at] = Some(Entry {
            node,
            referenced: false,
        });
    }

    /// Whether `id`'s entry was hit since it was inserted or last asked;
    /// clears the mark. The pool asks before it evicts `id`'s frame,
    /// and spares a frame this returns true for.
    pub(crate) fn second_chance(&self, id: PageId) -> bool {
        let mut shard = self.shard_for(id).acquire();
        shard
            .get_mut(id)
            .is_some_and(|entry| std::mem::take(&mut entry.referenced))
    }

    /// Drops any cached node of `id`, uncounted: its frame is going.
    pub(crate) fn remove(&self, id: PageId) {
        self.shard_for(id).acquire().take(id);
    }

    /// Drops any cached node of `id` and counts an invalidation: its
    /// committed image changed.
    pub(crate) fn invalidate(&self, id: PageId) {
        let mut shard = self.shard_for(id).acquire();
        shard.take(id);
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

    /// Checks that `may_hold(page)` accepts every entry's page — the
    /// buffer pool's check that each entry's page has a frame.
    pub(crate) fn validate(
        &self,
        may_hold: impl Fn(PageId) -> bool,
    ) -> boxagg_common::error::Result<()> {
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.acquire();
            for (at, entry) in shard.entries.iter().enumerate() {
                let id = PageId((at as u64) << SHARD_BITS | si as u64);
                if entry.is_some() && !may_hold(id) {
                    return Err(boxagg_common::error::corrupt(format!(
                        "node cache: entry of {id:?}, whose page has no frame"
                    )));
                }
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

    fn entries(cache: &NodeCache) -> usize {
        cache
            .shards
            .iter()
            .map(|s| s.acquire().entries.iter().flatten().count())
            .sum()
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache = NodeCache::new();
        assert!(cache.lookup::<String>(pid(1)).is_none());
        cache.insert(pid(1), Arc::new("node".to_string()));
        let got = cache.lookup::<String>(pid(1));
        assert_eq!(got.unwrap().as_str(), "node");
        assert_eq!(cache.counters(), (1, 1, 0));
    }

    #[test]
    fn invalidate_drops_the_entry_and_a_later_insert_sticks() {
        let cache = NodeCache::new();
        put(&cache, 7);
        cache.invalidate(pid(7));
        assert!(cache.lookup::<u64>(pid(7)).is_none(), "entry dropped");
        cache.insert(pid(7), Arc::new(2u64));
        assert_eq!(*cache.lookup::<u64>(pid(7)).unwrap(), 2);
        // Invalidating an absent page still counts.
        cache.invalidate(pid(8));
        assert_eq!(cache.counters(), (1, 2, 2));
        cache.validate(|_| true).unwrap();
    }

    #[test]
    fn remove_drops_the_entry_uncounted() {
        let cache = NodeCache::new();
        put(&cache, 3);
        cache.remove(pid(3));
        cache.remove(pid(4));
        assert_eq!(entries(&cache), 0);
        assert_eq!(cache.counters(), (0, 1, 0), "only put's lookup counted");
    }

    #[test]
    fn a_hit_earns_one_second_chance() {
        let cache = NodeCache::new();
        put(&cache, 2);
        assert!(!cache.second_chance(pid(2)), "inserted, never hit");
        assert!(cache.try_hit::<u64>(pid(2), || true).is_some());
        assert!(cache.lookup::<u64>(pid(2)).is_some());
        assert!(cache.second_chance(pid(2)), "hit since");
        assert!(!cache.second_chance(pid(2)), "the mark is spent");
        assert!(!cache.second_chance(pid(3)), "no entry");
        assert_eq!(entries(&cache), 1, "asking drops nothing");
    }

    #[test]
    fn validate_names_the_page_it_refuses() {
        let cache = NodeCache::new();
        for n in [0, 5, 64 * 3 + 5, 1 << 20] {
            put(&cache, n);
        }
        cache.validate(|_| true).unwrap();
        let err = cache.validate(|id| id != pid(64 * 3 + 5)).unwrap_err();
        assert!(err.to_string().contains("PageId(197)"), "got: {err}");
    }

    #[test]
    fn wrong_type_is_a_counted_miss_and_reinsertable() {
        let cache = NodeCache::new();
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
    fn try_hit_counts_only_the_hits_it_keeps() {
        let cache = NodeCache::new();
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
        let cache = NodeCache::new();
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
}
