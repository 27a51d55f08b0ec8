//! Thread-safe sharded LRU buffer pool with I/O accounting.
//!
//! The paper's experiments (§6) report the number of I/Os incurred under a
//! 10 MB LRU buffer over 8 KB pages. This pool reproduces that cost model:
//! a *read I/O* is a buffer miss that must fetch the page from the pager;
//! a *write I/O* is a dirty page written back on eviction or flush. Buffer
//! hits are free (counted separately for diagnostics).
//!
//! ## Concurrency model
//!
//! The pool is sharded: a page id's low bits pick one of `shards`
//! independent LRU lists, each behind its own mutex, so concurrent
//! accesses to different shards never contend. Page ids are dense, so a
//! shard finds a frame through a dense `PageMap` — one `Vec` load, not a
//! hash probe — which grows only for a page the pager has. The pager
//! sits behind a single mutex and is only locked on misses, evictions
//! and flushes — buffer hits (the common case under the paper's
//! cache-friendly workloads) touch exactly one shard lock. I/O statistics are atomic counters, so they still sum
//! to the paper's single-pool accounting regardless of interleaving.
//!
//! Every lock is a [`RankedMutex`] (plus one [`RankedRwLock`], the
//! commit write barrier) in the order `commit < barrier < snapshot <
//! allocator < wal io < shard < pager` (see [`crate::rank`] for the
//! derivation); debug builds panic on any out-of-order acquisition, so
//! a lock-order inversion cannot survive the test suite.
//!
//! The barrier makes a WAL commit's dirty-frame snapshot a point-in-time
//! cut: [`BufferPool::write_page`] and [`BufferPool::free_page`] hold it
//! shared around one mutation, [`BufferPool::commit`] holds it
//! exclusively across the whole scan. Note the cut is *per call*: a
//! logical update spanning several `write_page` calls (a tree split, say)
//! is only commit-atomic if no commit runs between the calls — callers
//! that commit concurrently with multi-page writers must quiesce them
//! first (every current caller commits from the writing thread).
//!
//! ## Commit epochs and snapshot reads
//!
//! A WAL pool numbers its committed states with a monotonically
//! increasing *commit epoch*. Readers may pin the current epoch
//! ([`BufferPool::pin_snapshot`]) and then read pages *as of* that
//! epoch through [`BufferPool::with_page_at`], lock-free with respect
//! to commits: a committer prepares the next epoch (logs and syncs the
//! transaction through the pool's log handle, without the pager lock)
//! while pinned readers keep observing the previous one. The flip to
//! the new epoch happens under the exclusive barrier — the only moment
//! a snapshot reader and a committer exclude each other — and retains
//! the superseded page images for every still-pinned older epoch, so a
//! reader never observes a half-applied transaction.
//!
//! ## A frame holds its decode
//!
//! A live node read ([`BufferPool::read_node`]) is one shard lock and
//! one directory probe: the page access, counted as any other, and then
//! the decode the frame keeps beside its bytes, or a fresh decode the
//! frame keeps for next time. Whatever changes a frame's bytes or page —
//! a write, a free, an eviction, the frame's reuse — drops its decode
//! under the same lock, so no decode can outlive its bytes, and the
//! paper's LRU is the only LRU a live read goes through.
//!
//! Pinned reads of *decoded* nodes ([`BufferPool::read_node_at`]) go
//! through a [`NodeCache`] of committed images: an entry is the decode
//! of its page's current committed image, and a clean frame's decode is
//! that decode, so the two share it. That image changes only in
//! the flip, which publishes the new epoch and then drops the entry of
//! every transaction page before it releases the barrier. A hit takes
//! no pool-wide lock: it reads the epoch (an atomic), looks the page up
//! under one cache-shard lock and reads the epoch again, and keeps the
//! node only if both reads are the reader's pinned epoch — the shard
//! lock orders any later flip's invalidation, and any insert made after
//! it, before that second read. Every other pinned read holds the
//! barrier shared from lookup to insert, and decodes a page superseded
//! after its epoch from the retained image without caching it.
//!
//! Commits themselves *group*: concurrent committers collapse into one
//! WAL append run and one log sync. Each committer notes the global
//! mutation stamp it must see durable; whoever wins the commit lock
//! commits everything staged so far, and the others return without
//! issuing any I/O once they observe their stamp covered.
//!
//! With one shard (the default, [`BufferPool::new`]) the pool degenerates
//! to exactly the paper's single global LRU: eviction order, and hence
//! every I/O count, is byte-identical to a sequential implementation.
//! Multiple shards trade strict global LRU order for parallelism.
//!
//! Page-access closures passed to [`BufferPool::with_page`] run while the
//! page's shard is locked and therefore must not re-enter the pool.
//!
//! ## Checksums and the page trailer
//!
//! The last [`checksum::TRAILER`] bytes of every page are reserved for a
//! checksum trailer (see [`crate::checksum`]); callers only ever see the
//! remaining [`payload_size`](BufferPool::payload_size) bytes. The
//! trailer is stamped on every write-back and commit capture, and
//! checked on every read off the pager — a buffer miss, a pinned read
//! of a committed image that lives only on disk, the epoch flip's
//! pre-image fallback: all through one `read_verified` — surfacing
//! torn or flipped pages as
//! [`Error::Corruption`](boxagg_common::error::Error::Corruption). The
//! sum is [`checksum::sum64`], ≈ 0.5 µs per 8 KB page, so a miss is
//! dominated by the pager read and the node decode, not by the check.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxagg_common::error::{corrupt, invalid_arg, Error, Result};

use crate::checksum;
use crate::nodecache::{CachedNode, NodeCache};
use crate::pagemap::PageMap;
use crate::pager::{PageId, Pager};
use crate::rank::{self, RankedMutex, RankedRwLock};
use crate::wal::{self, WalFile};

/// The widest the byte pool is split ([`StoreConfig`]'s shard count
/// tops out here), and the fixed shard count of the committed-image
/// node cache, clamped to its capacity: pinned hits on every core go
/// through it, whatever `parallelism` the byte pool keeps for its
/// paper-faithful LRU.
///
/// [`StoreConfig`]: crate::store::StoreConfig
pub(crate) const MAX_SHARDS: usize = 64;

/// Cumulative I/O statistics of a [`BufferPool`].
///
/// The `decode_*` counters count node reads and the decodes kept for
/// them: live reads ([`BufferPool::read_node`]), served from the decode
/// a frame holds, and pinned reads ([`BufferPool::read_node_at`]),
/// served from the committed-image cache (see [`crate::nodecache`]).
/// They never contribute to [`total`](IoStats::total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from the pager (buffer misses).
    pub reads: u64,
    /// Dirty pages written back to the pager (evictions + flushes).
    pub writes: u64,
    /// Page accesses satisfied from the buffer.
    pub hits: u64,
    /// Node reads served from a kept decode (decode skipped).
    pub decode_hits: u64,
    /// Node reads that found no kept decode (cold, rewritten, or
    /// decodes not kept): they decoded from bytes — or, a pinned read,
    /// took over a clean frame's decode.
    pub decode_misses: u64,
    /// `write_page` and `free` calls, each of which drops the page's
    /// decode, plus the committed-image entries commits dropped.
    pub decode_invalidations: u64,
    /// Records appended to the write-ahead log by commits.
    pub wal_appends: u64,
    /// Write-ahead-log syncs (the durability points of the protocol).
    pub wal_syncs: u64,
    /// Page images replayed from the log by recovery at open.
    pub wal_replays: u64,
    /// Data-file syncs issued by the pool: the durability sync of an
    /// empty commit, the apply-phase sync of a WAL commit, the final
    /// sync of a flush. Accounted separately from `total()` like the
    /// `wal_*` counters — the §6 I/O counts must not move.
    pub syncs: u64,
    /// High-water mark of simultaneously dirty (uncommitted, pinned)
    /// frames since the last [`reset_stats`](BufferPool::reset_stats) —
    /// the no-steal pool's memory obligation. Only maintained by WAL
    /// pools; zero otherwise.
    pub dirty_high_water: u64,
}

impl IoStats {
    /// Total I/Os: reads plus writes — the paper's reported metric. WAL
    /// traffic is accounted separately (`wal_*`): the §6 experiments
    /// predate the commit protocol and their I/O counts must not move.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Statistics delta since `earlier`. Saturates at zero per counter,
    /// so a [`reset_stats`](BufferPool::reset_stats) between the two
    /// snapshots yields zeros instead of underflowing.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            hits: self.hits.saturating_sub(earlier.hits),
            decode_hits: self.decode_hits.saturating_sub(earlier.decode_hits),
            decode_misses: self.decode_misses.saturating_sub(earlier.decode_misses),
            decode_invalidations: self
                .decode_invalidations
                .saturating_sub(earlier.decode_invalidations),
            wal_appends: self.wal_appends.saturating_sub(earlier.wal_appends),
            wal_syncs: self.wal_syncs.saturating_sub(earlier.wal_syncs),
            wal_replays: self.wal_replays.saturating_sub(earlier.wal_replays),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            dirty_high_water: self
                .dirty_high_water
                .saturating_sub(earlier.dirty_high_water),
        }
    }
}

const NIL: usize = usize::MAX;

/// The decode of `bytes` a frame's `slot` holds, if it is an `N`, or
/// else `decode(bytes)`, left in the slot when `keep`; and whether
/// `decode` ran.
fn frame_node<N, F>(
    slot: &mut Option<CachedNode>,
    bytes: &[u8],
    keep: bool,
    decode: F,
) -> Result<(Arc<N>, bool)>
where
    N: Any + Send + Sync,
    F: FnOnce(&[u8]) -> Result<N>,
{
    if let Some(node) = slot.clone().and_then(|n| n.downcast::<N>().ok()) {
        return Ok((node, false));
    }
    let node = Arc::new(decode(bytes)?);
    if keep {
        *slot = Some(Arc::clone(&node) as CachedNode);
    }
    Ok((node, true))
}

#[derive(Debug)]
struct Frame {
    id: PageId,
    data: Box<[u8]>,
    dirty: bool,
    /// Global mutation stamp of the last `write_page` into this frame
    /// (from the pool-wide counter, so it is unique across the pool's
    /// lifetime). A commit captures the stamp alongside the image and
    /// un-dirties the frame only if the stamp still matches — a page
    /// freed and re-allocated mid-commit gets a fresh stamp and can
    /// never be mistaken for the captured incarnation, even if its
    /// bytes happen to coincide.
    seq: u64,
    /// The page's committed image, retained while the frame is dirty
    /// so snapshot readers (and epoch-flip retention) can serve the
    /// pre-transaction bytes without touching disk. Invariants:
    /// `base.is_some()` implies `dirty`; a dirty frame with no base
    /// has never been committed from the buffer — its committed image
    /// (if any) is on disk, where no-steal guarantees it stays until
    /// the next commit applies over it.
    base: Option<Arc<[u8]>>,
    /// The decode of `data`'s payload a live
    /// [`read_node`](BufferPool::read_node) made, kept for the next one.
    /// Whatever changes `data` or the page the frame holds — a write, a
    /// free, an eviction, the frame's reuse — drops it.
    node: Option<CachedNode>,
    prev: usize,
    next: usize,
}

impl Frame {
    /// Empties the frame for the shard's free list.
    fn reset(&mut self) {
        self.id = PageId::NULL;
        self.dirty = false;
        self.base = None;
        self.node = None;
    }
}

/// One independent LRU list over a slice of the page-id space.
#[derive(Debug)]
struct Shard {
    capacity: usize,
    frames: Vec<Frame>,
    map: PageMap,
    /// Most recently used frame index.
    head: usize,
    /// Least recently used frame index.
    tail: usize,
    free: Vec<usize>,
    /// Live node reads of this shard's pages served from a frame's
    /// decode / that decoded, and the writes and frees that dropped (or
    /// pre-empted) one — counted under the shard lock the operation
    /// already holds.
    decode_hits: u64,
    decode_misses: u64,
    invalidations: u64,
}

impl Shard {
    fn new(capacity: usize, shards: usize) -> Self {
        Self {
            capacity,
            frames: Vec::new(),
            map: PageMap::new(shards),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            decode_hits: 0,
            decode_misses: 0,
            invalidations: 0,
        }
    }

    /// Unlinks and unmaps frame `idx`, holding page `id`, and puts it
    /// on the free list.
    fn release(&mut self, idx: usize, id: PageId) {
        self.detach(idx);
        self.map.remove(id);
        self.frames[idx].reset();
        self.free.push(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.frames[idx].prev = NIL;
        self.frames[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.frames[idx].prev = NIL;
        self.frames[idx].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = idx;
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

    /// Drops the frame caching `id`, if any, without a write-back.
    /// Returns whether the dropped frame was dirty (the caller owns the
    /// pool-wide dirty-frame counter).
    fn drop_frame(&mut self, id: PageId) -> bool {
        let Some(idx) = self.map.get(id) else {
            return false;
        };
        let was_dirty = self.frames[idx].dirty;
        self.release(idx, id);
        was_dirty
    }
}

/// A fixed-capacity, thread-safe sharded LRU page cache over a [`Pager`].
///
/// All methods take `&self`; clone-free sharing is provided by
/// [`SharedStore`](crate::store::SharedStore), which wraps the pool in an
/// [`Arc`](std::sync::Arc).
pub struct BufferPool {
    pager: RankedMutex<Box<dyn Pager>>,
    page_size: usize,
    /// `page_size - checksum::TRAILER`: the bytes callers may use.
    payload: usize,
    /// Precomputed `checksum::zero_mask(payload)`.
    zero_mask: u64,
    capacity: usize,
    /// Power-of-two many LRU lists; page `id` lives in shard
    /// [`PageMap::shard_of`]`(id, shards.len())`.
    shards: Box<[RankedMutex<Shard>]>,
    /// Whether a frame keeps the decode a live read made of it
    /// (`node_cache_pages > 0`).
    keep_nodes: bool,
    alloc: RankedMutex<AllocState>,
    /// Serializes commits; rank [`WAL`](rank::WAL), below every lock the
    /// protocol takes.
    commit_lock: RankedMutex<()>,
    /// The commit write barrier (rank [`BARRIER`](rank::BARRIER)):
    /// [`write_page`](Self::write_page) and
    /// [`free_page`](Self::free_page) hold it shared for the duration of
    /// one mutation; [`commit`](Self::commit) holds it exclusively while
    /// snapshotting dirty frames, so the snapshot is a point-in-time cut
    /// across all shards rather than a shard-by-shard crawl a concurrent
    /// writer could race through.
    barrier: RankedRwLock<()>,
    /// The write-ahead-log handle (rank [`WAL_IO`](rank::WAL_IO),
    /// *below* the shards and the pager). A WAL pool is a pool that has
    /// a log: with `Some`, dirty pages go through the commit protocol
    /// ([`commit`](Self::commit)) — whose log I/O, the fsync at the
    /// atomicity point included, runs through this handle without the
    /// pager lock, so reads proceed while a committer waits on the log;
    /// with `None`, they are written back in place.
    log: Option<RankedMutex<Box<dyn WalFile>>>,
    /// Pin bookkeeping (rank [`SNAPSHOT`](rank::SNAPSHOT)): reader
    /// pins and superseded page images retained for pinned epochs.
    snapshots: RankedMutex<SnapshotTable>,
    /// The current commit epoch. Epoch 1 is the store's opening state;
    /// every non-empty commit creates the next one. Stored only in
    /// [`flip_epoch`](Self::flip_epoch), under the exclusive barrier
    /// *and* the snapshot lock, so a load under either is exact: a pin
    /// (which reads it under the snapshot lock) can never capture an
    /// epoch whose retention pass already ran, and a reader holding the
    /// barrier shared sees no flip in progress. Lock-free loads serve
    /// the hit path of [`read_node_at`](Self::read_node_at). The
    /// `Release` store and `Acquire` loads publish nothing beyond the
    /// value: what makes a lock-free load conclusive is the cache-shard
    /// lock ordering argued on `read_node_at`.
    epoch: AtomicU64,
    /// Decoded nodes of *committed* page images, for pinned reads (see
    /// [`read_node_at`](Self::read_node_at)), in [`MAX_SHARDS`] shards.
    /// An entry is the decode of its page's current committed image;
    /// the epoch flip drops the entries of its transaction's pages
    /// under the exclusive barrier. Capacity 0 (nothing stored) on
    /// pools without WAL, which have no epochs to pin.
    committed: NodeCache,
    /// Pool-wide mutation stamp source (see [`Frame::seq`]).
    seq: AtomicU64,
    /// Highest mutation stamp covered by a durable commit: every write
    /// stamped at or below it has reached the synced log (or the synced
    /// data file). Group-commit followers compare their entry stamp
    /// against this to detect that a leader already committed for them.
    synced_seq: AtomicU64,
    /// Count of successful commits (empty ones included) — the
    /// second half of the group-commit follower test, distinguishing
    /// "a leader committed while we waited" from "nothing happened".
    commits_done: AtomicU64,
    /// Currently dirty frames across all shards (WAL pools only).
    dirty_frames: AtomicU64,
    /// High-water mark of `dirty_frames` since the last stats reset.
    dirty_high_water: AtomicU64,
    /// Dirty-frame ceiling for backpressure; 0 disables it.
    dirty_ceiling: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    hits: AtomicU64,
    wal_appends: AtomicU64,
    wal_syncs: AtomicU64,
    wal_replays: AtomicU64,
    syncs: AtomicU64,
}

/// One retained committed page image, superseded when epoch
/// `superseded_at` was created: it is the image readers pinned at any
/// epoch `< superseded_at` must see.
#[derive(Debug)]
struct PageVersion {
    superseded_at: u64,
    data: Arc<[u8]>,
}

/// One page of a commit in flight: its id, the mutation stamp of the
/// captured frame, and the captured image — one allocation shared by
/// the log records, the frame's committed base and (while an older
/// epoch is pinned) the snapshot table.
type TxnPage = (PageId, u64, Arc<[u8]>);

/// Commit-epoch bookkeeping behind the pool's snapshot lock.
#[derive(Debug)]
struct SnapshotTable {
    /// Pinned epoch → pin count. Readers pin before traversing and
    /// unpin when done; retention at the flip consults this map.
    pins: BTreeMap<u64, usize>,
    /// Superseded images per page, each list ascending in
    /// `superseded_at`. Only populated while older epochs stay pinned;
    /// garbage-collected as pins drain.
    versions: HashMap<PageId, Vec<PageVersion>>,
}

#[derive(Debug, Default)]
struct AllocState {
    /// Freed ids in LIFO reuse order.
    free_pages: Vec<PageId>,
    /// Same ids as a set, for O(1) double-free detection.
    freed: HashSet<PageId>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Creates a single-shard pool holding at most `capacity` pages of
    /// `pager` — the paper-faithful global LRU whose eviction order (and
    /// therefore I/O counts) matches a sequential implementation exactly.
    pub fn new(pager: Box<dyn Pager>, capacity: usize) -> Self {
        Self::with_shards(pager, capacity, 1)
    }

    /// Creates a pool of `shards` independent LRU lists (rounded up to a
    /// power of two) splitting `capacity` between them.
    pub fn with_shards(pager: Box<dyn Pager>, capacity: usize, shards: usize) -> Self {
        Self::with_config(pager, capacity, shards, None, 0)
    }

    /// [`with_shards`](Self::with_shards) plus the log. Given `log` —
    /// the handle `pager` hands out ([`Pager::wal`]) — dirty pages are
    /// pinned in the buffer (no-steal: an eviction never writes an
    /// uncommitted page in place) until a [`commit`](Self::commit)
    /// streams them through it; the pool soft-exceeds its capacity when
    /// every frame of a shard is dirty. Without one (the default
    /// everywhere else), behavior — including every I/O count — is
    /// byte-identical to the pre-WAL pool. `node_cache_pages` sizes the
    /// decoded-node cache of committed images that pinned reads go
    /// through (WAL pools only); 0 keeps no decodes at all — neither
    /// there nor in the frames [`read_node`](Self::read_node) serves.
    pub fn with_config(
        pager: Box<dyn Pager>,
        capacity: usize,
        shards: usize,
        log: Option<Box<dyn WalFile>>,
        node_cache_pages: usize,
    ) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let n = shards.max(1).next_power_of_two();
        let page_size = pager.page_size();
        assert!(
            page_size > checksum::TRAILER,
            "page size must exceed the checksum trailer"
        );
        let payload = page_size - checksum::TRAILER;
        let shards: Vec<RankedMutex<Shard>> = (0..n)
            .map(|i| {
                // Split capacity as evenly as possible, at least one
                // frame per shard.
                let cap = (capacity / n + usize::from(i < capacity % n)).max(1);
                RankedMutex::new(rank::SHARD, "buffer shard", Shard::new(cap, n))
            })
            .collect();
        Self {
            pager: RankedMutex::new(rank::PAGER, "pager", pager),
            page_size,
            payload,
            zero_mask: checksum::zero_mask(payload),
            capacity,
            shards: shards.into_boxed_slice(),
            keep_nodes: node_cache_pages > 0,
            alloc: RankedMutex::new(rank::ALLOCATOR, "page allocator", AllocState::default()),
            commit_lock: RankedMutex::new(rank::WAL, "commit", ()),
            barrier: RankedRwLock::new(rank::BARRIER, "write barrier", ()),
            committed: NodeCache::new(if log.is_some() { node_cache_pages } else { 0 }, MAX_SHARDS),
            log: log.map(|h| RankedMutex::new(rank::WAL_IO, "wal io", h)),
            snapshots: RankedMutex::new(
                rank::SNAPSHOT,
                "snapshot table",
                SnapshotTable {
                    pins: BTreeMap::new(),
                    versions: HashMap::new(),
                },
            ),
            epoch: AtomicU64::new(1),
            seq: AtomicU64::new(0),
            synced_seq: AtomicU64::new(0),
            commits_done: AtomicU64::new(0),
            dirty_frames: AtomicU64::new(0),
            dirty_high_water: AtomicU64::new(0),
            dirty_ceiling: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_replays: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, id: PageId) -> &RankedMutex<Shard> {
        // Low bits: sequential page ids deal round-robin across shards,
        // and each shard's directory stays dense.
        &self.shards[PageMap::shard_of(id, self.shards.len())]
    }

    /// Page size of the underlying pager.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable bytes per page: the page size minus the checksum trailer.
    /// This is the slice length [`with_page`](Self::with_page) closures
    /// see and the limit [`write_page`](Self::write_page) enforces.
    pub fn payload_size(&self) -> usize {
        self.payload
    }

    /// Whether the pool runs the WAL commit protocol.
    pub fn wal(&self) -> bool {
        self.log.is_some()
    }

    /// Folds `n` recovery replays into the statistics (called by
    /// [`SharedStore::open`](crate::store::SharedStore::open) after
    /// [`wal::recover`](crate::wal::recover) ran below the pool).
    pub fn note_wal_replays(&self, n: u64) {
        self.wal_replays.fetch_add(n, Ordering::Relaxed);
    }

    /// Number of LRU shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total pages allocated in the underlying pager (index size metric).
    pub fn allocated_pages(&self) -> u64 {
        self.pager.acquire().num_pages()
    }

    /// Buffer capacity in pages (summed across shards).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current statistics (a consistent-enough snapshot: each counter is
    /// exact; under concurrent load the three are read independently).
    pub fn stats(&self) -> IoStats {
        let (mut decode_hits, mut decode_misses, mut decode_invalidations) =
            self.committed.counters();
        for shard in self.shards.iter() {
            let s = shard.acquire();
            decode_hits += s.decode_hits;
            decode_misses += s.decode_misses;
            decode_invalidations += s.invalidations;
        }
        IoStats {
            decode_hits,
            decode_misses,
            decode_invalidations,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            wal_replays: self.wal_replays.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            dirty_high_water: self.dirty_high_water.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the statistics counters (e.g. after a bulk-load, before a
    /// query phase).
    pub fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_syncs.store(0, Ordering::Relaxed);
        self.wal_replays.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.committed.reset_counters();
        for shard in self.shards.iter() {
            let mut s = shard.acquire();
            s.decode_hits = 0;
            s.decode_misses = 0;
            s.invalidations = 0;
        }
        // The high-water mark restarts from the *current* obligation,
        // not zero — frames dirty right now are still pinned.
        self.dirty_high_water
            .store(self.dirty_frames.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Currently dirty (uncommitted, memory-pinned) frames. Always zero
    /// on non-WAL pools, whose dirty pages are evictable and unpinned.
    pub fn dirty_pages(&self) -> u64 {
        self.dirty_frames.load(Ordering::Relaxed)
    }

    /// Sets the dirty-frame ceiling: once this many frames are dirty,
    /// further dirtying writes fail with
    /// [`Error::Backpressure`](boxagg_common::error::Error::Backpressure)
    /// until a commit releases them. `0` (the default) disables the
    /// ceiling. The bound is soft by a racing write or two — it guards
    /// memory, not an exact invariant.
    pub fn set_dirty_ceiling(&self, ceiling: u64) {
        self.dirty_ceiling.store(ceiling, Ordering::Relaxed);
    }

    /// The configured dirty-frame ceiling (`0` = disabled).
    pub fn dirty_ceiling(&self) -> u64 {
        self.dirty_ceiling.load(Ordering::Relaxed)
    }

    /// Allocates a page, reusing a previously freed one when available.
    /// The page is *not* fetched into the buffer; it is expected to be
    /// written next.
    pub fn allocate(&self) -> Result<PageId> {
        let mut alloc = self.alloc.acquire();
        if let Some(id) = alloc.free_pages.pop() {
            alloc.freed.remove(&id);
            return Ok(id);
        }
        self.pager.acquire().allocate()
    }

    /// Returns page `id` to the free list for reuse. The caller guarantees
    /// no live structure references it. Frees drop the cached frame (and
    /// any dirty contents) without a write-back.
    ///
    /// Freeing an already-free (or null) page returns an error instead of
    /// corrupting the free list — a double free means some structure still
    /// holds a stale reference.
    pub fn free_page(&self, id: PageId) -> Result<()> {
        if id.is_null() {
            return Err(invalid_arg("free of the NULL page"));
        }
        // Shared side of the commit write barrier (see `write_page`).
        let _writer = self.barrier.acquire_shared();
        let mut alloc = self.alloc.acquire();
        if !alloc.freed.insert(id) {
            return Err(invalid_arg(format!("double free of page {id:?}")));
        }
        alloc.free_pages.push(id);
        // Hold the alloc lock while dropping the cached frame (and its
        // decode) so a concurrent re-allocation cannot observe either.
        let was_dirty = {
            let mut shard = self.shard_for(id).acquire();
            shard.invalidations += 1;
            shard.drop_frame(id)
        };
        if self.wal() && was_dirty {
            self.dirty_frames.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Pages allocated in the pager minus freed pages — the live-size
    /// metric used by the index-size experiments (Fig. 9a).
    pub fn live_pages(&self) -> u64 {
        let freed = self.alloc.acquire().free_pages.len() as u64;
        self.pager.acquire().num_pages() - freed
    }

    /// Stamps `frame`'s checksum trailer, writes it to the pager and —
    /// only on success — counts the write and clears the dirty bit. On
    /// error the frame is untouched apart from the (idempotent) trailer
    /// stamp, so the write-back can be retried.
    fn write_back(&self, frame: &mut Frame) -> Result<()> {
        checksum::stamp(&mut frame.data, self.zero_mask);
        self.pager.acquire().write_page(frame.id, &frame.data)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        frame.dirty = false;
        Ok(())
    }

    /// Evicts `shard`'s LRU frame, writing it back first if dirty. On a
    /// write-back error the victim frame is left fully intact (still
    /// linked, still mapped, still dirty), so the pool stays consistent
    /// and the operation can be retried.
    fn evict_one(&self, shard: &mut Shard) -> Result<()> {
        let victim = shard.tail;
        debug_assert_ne!(victim, NIL);
        let id = shard.frames[victim].id;
        if shard.frames[victim].dirty {
            self.write_back(&mut shard.frames[victim])?;
        }
        shard.release(victim, id);
        Ok(())
    }

    /// Evicts the least-recently-used *clean* frame of `shard`, if any —
    /// the WAL pool's no-steal eviction: uncommitted dirty pages must
    /// never reach the data file outside a commit, so dirty frames are
    /// pinned and eviction considers clean victims only.
    fn evict_clean(&self, shard: &mut Shard) -> bool {
        let mut idx = shard.tail;
        while idx != NIL {
            if !shard.frames[idx].dirty {
                let id = shard.frames[idx].id;
                shard.release(idx, id);
                return true;
            }
            idx = shard.frames[idx].prev;
        }
        false
    }

    /// Reads page `id` from the pager into `buf` and verifies its
    /// checksum trailer: the one way on-disk bytes enter the pool. A
    /// mismatch is a typed [`Error::Corruption`].
    fn read_verified(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.pager.acquire().read_page(id, buf)?;
        checksum::verify(buf, self.zero_mask).map_err(|(stored, computed)| Error::Corruption {
            page: id.0,
            expected: stored,
            found: computed,
        })
    }

    /// Whether the pager has page `id`.
    fn allocated(&self, id: PageId) -> bool {
        id.0 < self.pager.acquire().num_pages()
    }

    /// Returns the frame index for `id` in `shard`, fetching
    /// (`fetch = true`) or zero-filling (`fetch = false`, for whole-page
    /// overwrites) on a miss. Either way the shard's directory grows
    /// only for a page the pager has: a fetch is verified first, and a
    /// write past the directory's end is checked against the pager's
    /// page count.
    fn frame_for(&self, shard: &mut Shard, id: PageId, fetch: bool) -> Result<usize> {
        if let Some(idx) = shard.map.get(id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            shard.touch(idx);
            return Ok(idx);
        }
        if !fetch && !shard.map.covers(id) && !self.allocated(id) {
            return Err(invalid_arg(format!(
                "write of page {id:?}, which was never allocated"
            )));
        }
        if self.wal() {
            // No-steal: evict clean frames (also shrinking back after a
            // commit cleaned an over-capacity shard); when every frame
            // is dirty, soft-exceed capacity rather than leak an
            // uncommitted image in place.
            while shard.map.len() >= shard.capacity {
                if !self.evict_clean(shard) {
                    break;
                }
            }
        } else if shard.map.len() >= shard.capacity {
            self.evict_one(shard)?;
        }
        let idx = match shard.free.pop() {
            Some(i) => i,
            None => {
                shard.frames.push(Frame {
                    id: PageId::NULL,
                    data: vec![0u8; self.page_size].into_boxed_slice(),
                    dirty: false,
                    seq: 0,
                    base: None,
                    node: None,
                    prev: NIL,
                    next: NIL,
                });
                shard.frames.len() - 1
            }
        };
        if fetch {
            if let Err(e) = self.read_verified(id, &mut shard.frames[idx].data) {
                // A page that failed to read or verify never enters
                // the buffer — the unused frame stays on the free list
                // — and its fetch is not counted: only verified reads
                // are I/Os the caller can use.
                shard.free.push(idx);
                return Err(e);
            }
            self.reads.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.frames[idx].data.fill(0);
        }
        let f = &mut shard.frames[idx];
        f.reset();
        f.id = id;
        f.seq = 0;
        shard.map.insert(id, idx);
        shard.push_front(idx);
        Ok(idx)
    }

    // -- public page access ---------------------------------------------

    /// Runs `f` over the payload of page `id` (fetching it on a miss).
    /// The slice is [`payload_size`](Self::payload_size) bytes long — the
    /// checksum trailer is never exposed.
    ///
    /// `f` runs while the page's shard is locked: it must not access the
    /// pool (directly or through a [`SharedStore`](crate::store::SharedStore)
    /// handle), or it will deadlock.
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let mut shard = self.shard_for(id).acquire();
        let idx = self.frame_for(&mut shard, id, true)?;
        Ok(f(&shard.frames[idx].data[..self.payload]))
    }

    /// Reads page `id` as a decoded node of type `N`: the live read
    /// every index traversal makes. One shard lock and one directory
    /// probe serve it — the page access [`with_page`](Self::with_page)
    /// would make, counted the same way (a hit, or a miss that fetches
    /// and verifies) — and then the frame's own decode, when it holds
    /// one of type `N`. Otherwise `decode` runs over the payload and,
    /// unless the pool keeps no decodes (`node_cache_pages == 0`), the
    /// frame keeps the result for the next read. A frame's decode lives
    /// exactly as long as its bytes: [`write_page`](Self::write_page),
    /// [`free_page`](Self::free_page), eviction and the frame's reuse
    /// drop it, so it can never outlive them. The paper's LRU is thus
    /// the only LRU a live read goes through, and the §6 counts are the
    /// same whether decodes are kept or not.
    ///
    /// Counts one decode hit or one decode miss per call. `decode` runs
    /// under the shard lock and must not re-enter the pool.
    pub fn read_node<N, F>(&self, id: PageId, decode: F) -> Result<Arc<N>>
    where
        N: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        let mut shard = self.shard_for(id).acquire();
        let idx = self.frame_for(&mut shard, id, true)?;
        let frame = &mut shard.frames[idx];
        let got = frame_node(
            &mut frame.node,
            &frame.data[..self.payload],
            self.keep_nodes,
            decode,
        );
        match got {
            Ok((_, false)) => shard.decode_hits += 1,
            _ => shard.decode_misses += 1,
        }
        got.map(|(node, _)| node)
    }

    /// Overwrites page `id`'s payload with `bytes` (shorter payloads are
    /// zero-padded). No read I/O is incurred on a miss: pages are always
    /// written whole. Payloads longer than
    /// [`payload_size`](Self::payload_size) are rejected as
    /// [`RecordTooLarge`](boxagg_common::error::Error::RecordTooLarge).
    pub fn write_page(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        if bytes.len() > self.payload {
            return Err(Error::RecordTooLarge {
                record: bytes.len(),
                page: self.payload,
            });
        }
        // Shared side of the commit write barrier: a concurrent commit's
        // dirty-frame snapshot can never capture this mutation half-done.
        let _writer = self.barrier.acquire_shared();
        let mut shard = self.shard_for(id).acquire();
        // Peek residency *before* installing a frame: a rejected write
        // must leave no trace — in particular no zero-filled clean frame
        // a later read could mistake for page content.
        let resident = shard.map.get(id);
        let newly_dirty = resident.is_none_or(|idx| !shard.frames[idx].dirty);
        let wal = self.wal();
        if wal && newly_dirty {
            let ceiling = self.dirty_ceiling.load(Ordering::Relaxed);
            if ceiling != 0 {
                let dirty = self.dirty_frames.load(Ordering::Relaxed);
                if dirty >= ceiling {
                    return Err(Error::Backpressure { dirty, ceiling });
                }
            }
        }
        let idx = self.frame_for(&mut shard, id, false)?;
        shard.invalidations += 1;
        let f = &mut shard.frames[idx];
        if wal && newly_dirty {
            // A resident clean frame holds the committed image — keep
            // it as the base for snapshot readers. A miss means the
            // committed image (if any) is on disk.
            f.base = resident.map(|_| Arc::from(&f.data[..]));
        }
        f.data[..bytes.len()].copy_from_slice(bytes);
        f.data[bytes.len()..].fill(0);
        f.node = None;
        f.dirty = true;
        if wal {
            f.seq = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
            if newly_dirty {
                let dirty = self.dirty_frames.fetch_add(1, Ordering::Relaxed) + 1;
                self.dirty_high_water.fetch_max(dirty, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Makes every dirty page durable, atomically when the pool runs
    /// the WAL protocol.
    ///
    /// Without WAL this is [`flush_all`](Self::flush_all). With WAL it
    /// is the commit boundary: every dirty page image is streamed to
    /// the write-ahead log (begin / per-page / commit records, each
    /// checksummed), the log is synced — the durability point —
    /// then the images are written in place, the data file is synced,
    /// and the log is truncated. A crash anywhere in between recovers
    /// to exactly the pre-commit or post-commit state: before the log
    /// sync the partial transaction has no commit record and is
    /// discarded; after it, recovery replays the full physical images.
    ///
    /// A frame's dirty bit is cleared only if its mutation stamp still
    /// matches the captured one (a concurrent writer may have moved on
    /// — its update then belongs to the *next* commit). Errors leave
    /// every dirty bit set, so a failed commit can simply be retried: a
    /// transaction that failed while being *logged* is rolled back out
    /// of the log (so the retry's `begin` never lands inside the torn
    /// one), while a transaction that failed while being *applied*
    /// stays in the log, committed, for recovery or the retry to finish.
    ///
    /// Concurrent commits *group*: whoever wins the commit lock logs
    /// everything dirty at that moment in a single log append run with
    /// a single log sync; the committers that waited behind it return
    /// without I/O once they observe a commit completed that covers
    /// every write staged before they arrived.
    ///
    /// Readers are never blocked: the pager lock is not held across the
    /// log fsync (log I/O runs through the pool's log handle, under
    /// its own lock), and pinned snapshot readers keep
    /// observing the previous epoch throughout — the flip to the new
    /// epoch is the commit's only barrier-exclusive section after the
    /// dirty-frame capture.
    pub fn commit(&self) -> Result<()> {
        let Some(log) = &self.log else {
            return self.flush_all_inner();
        };
        // Group commit, follower side: note what must be durable for
        // *this* call — every mutation staged so far — and whether any
        // commit completes while we wait for the lock.
        let my_target = self.seq.load(Ordering::SeqCst);
        let done0 = self.commits_done.load(Ordering::SeqCst);
        let _commit = self.commit_lock.acquire();
        if self.commits_done.load(Ordering::SeqCst) != done0
            && self.synced_seq.load(Ordering::SeqCst) >= my_target
        {
            // A leader committed (and synced) while we queued, and its
            // capture covered every write we are responsible for: our
            // commit already happened. A *failed* leader updates
            // neither counter, so its followers retry as leaders.
            return Ok(());
        }
        // Phase A — capture: snapshot every dirty frame's physical
        // image (trailer stamped) and mutation stamp. The exclusive
        // barrier blocks writers across the whole scan, so the
        // transaction is a point-in-time cut over all shards; it is
        // released before the I/O below — a writer changing a page
        // after its image was captured just stays dirty for the next
        // commit.
        let mut txn: Vec<TxnPage> = Vec::new();
        let capture_seq;
        {
            let _quiesced = self.barrier.acquire_excl();
            // Exact cut: no writer is concurrent with this load.
            capture_seq = self.seq.load(Ordering::SeqCst);
            for shard in self.shards.iter() {
                let mut shard = shard.acquire();
                for idx in 0..shard.frames.len() {
                    let f = &mut shard.frames[idx];
                    if f.dirty && !f.id.is_null() {
                        checksum::stamp(&mut f.data, self.zero_mask);
                        txn.push((f.id, f.seq, Arc::from(&f.data[..])));
                    }
                }
            }
        }
        txn.sort_by_key(|&(id, _, _)| id);
        if txn.is_empty() {
            // Nothing to log; still honor "commit means durable".
            self.pager.acquire().sync()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.finish_commit(capture_seq);
            return Ok(());
        }
        // Phase B — log: append the whole transaction and sync the
        // log; the commit record hitting stable storage is the
        // atomicity point. This runs under the log handle's own lock,
        // so the pager lock is NOT held across the log fsync and
        // readers proceed meanwhile. On failure, roll the log back to
        // its pre-txn length — the log may legitimately hold earlier
        // *committed* transactions (a commit whose apply phase failed
        // leaves its txn for recovery), but an *incomplete* tail must
        // not survive into the retry, or the retry's `begin` would land
        // inside the open transaction and recovery would report
        // `WalCorrupt`.
        {
            let mut log = log.acquire();
            let pre_txn_len = log.len()?;
            if let Err(e) = Self::log_records(log.as_mut(), &txn) {
                // lint: allow(discarded-result) -- best-effort rollback; the log error is what the caller must see
                let _ = log.rollback(pre_txn_len);
                return Err(e);
            }
        }
        self.wal_appends
            .fetch_add(txn.len() as u64 + 2, Ordering::Relaxed);
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
        // Phase C — flip: publish the new commit epoch, retaining the
        // superseded images for pinned readers. From here on the
        // transaction is visible (and durable); followers may return.
        self.flip_epoch(capture_seq, &txn)?;
        // Phase D — apply: write the same images in place and sync the
        // data file.
        {
            let mut pager = self.pager.acquire();
            for (id, _, image) in &txn {
                pager.write_page(*id, image)?;
                self.writes.fetch_add(1, Ordering::Relaxed);
            }
            pager.sync()?;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        // Phase E — the transaction is fully applied: drop the log.
        {
            let mut log = log.acquire();
            log.truncate()?;
            log.sync()?;
        }
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
        // Phase F — un-dirty exactly the frame incarnations we
        // captured: stamp equality, not byte equality, so a page freed
        // and re-allocated mid-commit (whose bytes may coincide with
        // the captured image) stays dirty for the next commit.
        let mut undirtied = 0u64;
        for (id, cap_seq, _) in &txn {
            let mut shard = self.shard_for(*id).acquire();
            if let Some(idx) = shard.map.get(*id) {
                let f = &mut shard.frames[idx];
                if f.dirty && f.seq == *cap_seq {
                    f.dirty = false;
                    f.base = None;
                    undirtied += 1;
                }
            }
        }
        self.dirty_frames.fetch_sub(undirtied, Ordering::Relaxed);
        Ok(())
    }

    /// Appends `begin` + every page image + `commit` to the log and
    /// syncs it. On `Ok(())` the transaction is durably committed; on
    /// error the caller rolls the log back to its pre-transaction
    /// length. The caller owns the statistics.
    fn log_records(w: &mut dyn WalFile, txn: &[TxnPage]) -> Result<()> {
        w.append(&wal::encode_begin(txn.len() as u32))?;
        for (id, _, image) in txn {
            w.append(&wal::encode_page(*id, image))?;
        }
        w.append(&wal::encode_commit())?;
        w.sync()
    }

    /// Phase C of the commit protocol: under the exclusive barrier,
    /// retain the superseded image of every transaction page for
    /// still-pinned older epochs, bump the commit epoch, drop the
    /// transaction pages' decoded nodes from the committed-image cache,
    /// and re-base the dirty frames onto the just-committed images so
    /// new-epoch readers see committed bytes from the buffer before the
    /// apply phase reaches disk. The only fallible step (reading and
    /// verifying a pre-image off disk) runs before any state changes, so
    /// an I/O error or a corrupt pre-image leaves the epoch — and every
    /// frame and cached node — untouched for the retry.
    ///
    /// The new epoch is stored *before* the invalidations, and the
    /// snapshot lock is held across them: a lock-free hit that observes
    /// an invalidation is thereby ordered after the store, and no pin
    /// can capture the new epoch while an old decode is still cached
    /// (see [`read_node_at`](Self::read_node_at)).
    fn flip_epoch(&self, capture_seq: u64, txn: &[TxnPage]) -> Result<()> {
        let _quiesced = self.barrier.acquire_excl();
        let mut snaps = self.snapshots.acquire();
        let old_epoch = self.epoch.load(Ordering::Relaxed);
        let mut retained: Vec<(PageId, Arc<[u8]>)> = Vec::new();
        if snaps.pins.range(..=old_epoch).next().is_some() {
            for (id, _, _) in txn {
                retained.push((*id, self.pre_image(*id)?));
            }
        }
        let superseded_at = old_epoch + 1;
        self.epoch.store(superseded_at, Ordering::Release);
        for (id, image) in retained {
            snaps.versions.entry(id).or_default().push(PageVersion {
                superseded_at,
                data: image,
            });
        }
        for (id, _, image) in txn {
            // The page's committed image just changed: readers pinned
            // at the old epoch now fail their hit's epoch check, and
            // new-epoch readers cannot pin until this loop is done.
            self.committed.invalidate(*id);
            let mut shard = self.shard_for(*id).acquire();
            if let Some(idx) = shard.map.get(*id) {
                let f = &mut shard.frames[idx];
                if f.dirty {
                    // `image` is the committed bytes of this page as
                    // of the new epoch — even if the frame is a fresh
                    // incarnation (freed and re-allocated mid-commit),
                    // the base is keyed by page id, not incarnation.
                    f.base = Some(Arc::clone(image));
                }
            }
        }
        drop(snaps);
        self.finish_commit(capture_seq);
        Ok(())
    }

    /// The committed image of page `id` as of the *current* (pre-flip)
    /// epoch: a dirty frame's base, a clean frame's bytes, or — for a
    /// dirty frame that was never committed from the buffer, and for
    /// pages whose frame is gone — the on-disk image, which no-steal
    /// guarantees is still the pre-transaction one at flip time. Read
    /// off disk it is verified like any fetch: pinned readers will be
    /// served these bytes for as long as their epoch lives.
    fn pre_image(&self, id: PageId) -> Result<Arc<[u8]>> {
        {
            let shard = self.shard_for(id).acquire();
            if let Some(idx) = shard.map.get(id) {
                let f = &shard.frames[idx];
                if let Some(base) = &f.base {
                    return Ok(Arc::clone(base));
                }
                if !f.dirty {
                    return Ok(Arc::from(&f.data[..]));
                }
            }
        }
        let mut buf = vec![0u8; self.page_size];
        self.read_verified(id, &mut buf)?;
        Ok(Arc::from(buf))
    }

    /// Publishes a successful commit to group-commit followers: every
    /// mutation stamped at or below `capture_seq` is durable, and one
    /// more commit completed.
    fn finish_commit(&self, capture_seq: u64) {
        self.synced_seq.fetch_max(capture_seq, Ordering::SeqCst);
        self.commits_done.fetch_add(1, Ordering::SeqCst);
    }

    // -- commit epochs and snapshot reads --------------------------------

    /// The current commit epoch (1 before the first non-empty commit;
    /// each non-empty commit creates the next).
    pub fn commit_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current commit epoch and returns it. Until the matching
    /// [`unpin_snapshot`](Self::unpin_snapshot), reads through
    /// [`with_page_at`](Self::with_page_at) at the returned epoch keep
    /// observing exactly the state this commit epoch froze — commits
    /// proceed concurrently, retaining the superseded images. Pins
    /// nest; each pin must be unpinned exactly once.
    pub fn pin_snapshot(&self) -> u64 {
        let mut snaps = self.snapshots.acquire();
        // Exact: only a flip stores the epoch, under this lock.
        let epoch = self.epoch.load(Ordering::Relaxed);
        *snaps.pins.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases one pin on `epoch` and garbage-collects any retained
    /// page images no remaining pin can reach. Unpinning an epoch that
    /// was never pinned is a no-op.
    pub fn unpin_snapshot(&self, epoch: u64) {
        let mut snaps = self.snapshots.acquire();
        let drained = match snaps.pins.get_mut(&epoch) {
            Some(n) => {
                *n -= 1;
                *n == 0
            }
            None => false,
        };
        if !drained {
            return;
        }
        snaps.pins.remove(&epoch);
        // A version superseded at S serves pins strictly below S; keep
        // it only while such a pin remains.
        match snaps.pins.keys().next().copied() {
            None => snaps.versions.clear(),
            Some(min_pin) => {
                snaps.versions.retain(|_, vs| {
                    vs.retain(|v| v.superseded_at > min_pin);
                    !vs.is_empty()
                });
            }
        }
    }

    /// Runs `f` over the payload of page `id` *as of* commit `epoch`
    /// (which the caller pinned via [`pin_snapshot`](Self::pin_snapshot)).
    ///
    /// Never blocks on a concurrent commit's log or data fsync: the
    /// read holds the shared side of the write barrier (excluding only
    /// the capture and flip sections) and serves, in order: a retained
    /// superseded image, a dirty frame's committed base, a clean
    /// frame's bytes, or the on-disk image. Uncommitted bytes are never
    /// observable through this method.
    ///
    /// Like [`with_page`](Self::with_page), `f` runs under pool locks
    /// and must not re-enter the pool.
    pub fn with_page_at<T>(&self, id: PageId, epoch: u64, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let _reader = self.barrier.acquire_shared();
        match self.superseded_image(id, epoch) {
            Some(image) => Ok(f(&image[..self.payload])),
            None => self.with_committed_page(id, |bytes, _| f(bytes)),
        }
    }

    /// Reads page `id` *as of* commit `epoch` as a decoded node of type
    /// `N`, through the committed-image node cache. Returns the node
    /// and whether this call ran `decode`. A hit performs no byte-pool
    /// access, and each call counts exactly one cache hit or miss. A
    /// miss on a page whose clean frame holds a live read's decode of
    /// type `N` takes that decode instead of running `decode`, and a
    /// decode of a clean frame's bytes is left in the frame: those bytes
    /// *are* the current committed image, so a clean page has one
    /// decoded copy, shared by live and pinned reads.
    ///
    /// **The hit path takes no pool-wide lock.** It loads the epoch,
    /// looks `id` up under its cache-shard lock, and loads the epoch
    /// again under that lock; the node is kept only if both loads are
    /// `epoch`. Why a kept node is the decode of the bytes
    /// [`with_page_at`](Self::with_page_at) would show:
    ///
    /// * *Not older than `epoch`.* Every flip up to `epoch` invalidated
    ///   its pages while holding the snapshot lock, which the pin of
    ///   `epoch` took afterwards; an insert is a decode of the image
    ///   committed while its reader held the barrier shared, so no
    ///   insert can bring a superseded image back.
    /// * *Not newer.* A later flip stores `epoch + 1` before it
    ///   invalidates, and any insert of a newer decode is made after
    ///   that flip released the barrier. Either is a shard-lock critical
    ///   section that ends after the store; a lookup that observed it
    ///   took the same lock afterwards, so the second load — sequenced
    ///   after that lookup — reads `epoch + 1` or later, and the node is
    ///   discarded.
    ///
    /// A discarded or absent hit counts nothing and falls back to the
    /// barrier path, which counts the read: the shared barrier is held
    /// from the lookup to the insert, so no flip can fall in between. A
    /// page superseded after `epoch` is decoded from its retained image
    /// and not cached: the cache describes current committed images
    /// only.
    ///
    /// `decode` runs under pool locks and must not re-enter the pool.
    pub fn read_node_at<N, F>(&self, id: PageId, epoch: u64, decode: F) -> Result<(Arc<N>, bool)>
    where
        N: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        if self.epoch.load(Ordering::Acquire) == epoch {
            if let Some(node) = self.committed_hit(id, epoch) {
                return Ok((node, false));
            }
        }
        let _reader = self.barrier.acquire_shared();
        if let Some(image) = self.superseded_image(id, epoch) {
            self.committed.count_miss(id);
            return Ok((Arc::new(decode(&image[..self.payload])?), true));
        }
        if let Some(node) = self.committed.lookup::<N>(id) {
            return Ok((node, false));
        }
        let (node, decoded) = self.with_committed_page(id, |bytes, held| match held {
            Some(slot) => frame_node(slot, bytes, self.keep_nodes, decode),
            None => Ok((Arc::new(decode(bytes)?), true)),
        })??;
        self.committed.insert(id, Arc::clone(&node) as CachedNode);
        Ok((node, decoded))
    }

    /// The second half of [`read_node_at`](Self::read_node_at)'s hit
    /// path, for a reader whose first epoch load read `epoch`: the
    /// cached node of `id`, kept only if the epoch — loaded again under
    /// the shard lock that found it — is still `epoch`.
    fn committed_hit<N: Any + Send + Sync>(&self, id: PageId, epoch: u64) -> Option<Arc<N>> {
        self.committed
            .try_hit(id, || self.epoch.load(Ordering::Acquire) == epoch)
    }

    /// The image of page `id` a reader pinned at `epoch` must see, when
    /// a later commit superseded it (counted as a buffer hit); `None`
    /// when the page's current committed image is still the one. The
    /// caller holds the barrier shared.
    fn superseded_image(&self, id: PageId, epoch: u64) -> Option<Arc<[u8]>> {
        // No flip is in progress under the shared barrier, so the epoch
        // is exact, and every retained version was superseded at or
        // before it: a pin of the current epoch has nothing to find.
        if epoch == self.epoch.load(Ordering::Acquire) {
            return None;
        }
        let snaps = self.snapshots.acquire();
        // Lists ascend in `superseded_at`: the first version superseded
        // *after* `epoch` is the image that epoch saw.
        let image = snaps
            .versions
            .get(&id)?
            .iter()
            .find(|v| v.superseded_at > epoch)
            .map(|v| Arc::clone(&v.data))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(image)
    }

    /// Runs `f` over page `id`'s current committed image and, when that
    /// image is a clean frame's bytes, the frame's decode slot. The
    /// caller holds the barrier shared, so no flip can interleave.
    fn with_committed_page<T>(
        &self,
        id: PageId,
        f: impl FnOnce(&[u8], Option<&mut Option<CachedNode>>) -> T,
    ) -> Result<T> {
        let mut shard = self.shard_for(id).acquire();
        if let Some(idx) = shard.map.get(id) {
            if shard.frames[idx].dirty {
                if let Some(base) = &shard.frames[idx].base {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(f(&base[..self.payload], None));
                }
                // Dirty with no base: the committed image lives on
                // disk (no-steal). Read it without disturbing the
                // uncommitted frame.
                let mut buf = vec![0u8; self.page_size].into_boxed_slice();
                self.read_verified(id, &mut buf)?;
                self.reads.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&buf[..self.payload], None));
            }
        }
        let idx = self.frame_for(&mut shard, id, true)?;
        let frame = &mut shard.frames[idx];
        Ok(f(&frame.data[..self.payload], Some(&mut frame.node)))
    }

    /// Writes every dirty page back to the pager, then syncs it.
    ///
    /// Every dirty frame is attempted even when one fails: a frame's
    /// dirty bit is cleared only after *its* write succeeded, the first
    /// error is remembered and returned after the full pass, and the
    /// `sync` is attempted (and its failure reported) regardless — so
    /// `Ok(())` always means "every page written and synced", and a
    /// failed flush can simply be retried.
    ///
    /// On a WAL pool this delegates to [`commit`](Self::commit):
    /// writing uncommitted dirty pages in place would break the
    /// no-steal invariant recovery depends on.
    pub fn flush_all(&self) -> Result<()> {
        if self.wal() {
            return self.commit();
        }
        self.flush_all_inner()
    }

    fn flush_all_inner(&self) -> Result<()> {
        let mut first_err: Option<Error> = None;
        for shard in self.shards.iter() {
            let mut shard = shard.acquire();
            for idx in 0..shard.frames.len() {
                if shard.frames[idx].dirty && !shard.frames[idx].id.is_null() {
                    if let Err(e) = self.write_back(&mut shard.frames[idx]) {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        let sync_res = self.pager.acquire().sync();
        if sync_res.is_ok() {
            self.syncs.fetch_add(1, Ordering::Relaxed);
        }
        match first_err {
            Some(e) => Err(e),
            None => sync_res,
        }
    }

    /// Number of pages currently resident in the buffer.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.acquire().map.len()).sum()
    }

    /// Checks the pool's structural invariants — intended for tests and
    /// the fault-sweep harness after injected failures. Verifies, per
    /// shard: the LRU list is a well-formed doubly linked list over
    /// exactly the mapped frames, every frame is either mapped or on the
    /// shard's free list (none leaked), free frames are truly reset, and
    /// occupancy respects capacity. Also checks the allocator's free
    /// list against its double-free set, the committed-image node cache
    /// ([`NodeCache::validate`]), and — on a WAL pool — the dirty-frame
    /// counter and the snapshot table's invariants.
    pub fn validate(&self) -> Result<()> {
        // Quiesce writers on a WAL pool so the dirty count is exact.
        let _quiesced = if self.wal() {
            Some(self.barrier.acquire_excl())
        } else {
            None
        };
        if self.wal() {
            let snaps = self.snapshots.acquire();
            let epoch = self.epoch.load(Ordering::Relaxed);
            if epoch == 0 {
                return Err(corrupt("snapshot table: epoch zero".to_string()));
            }
            if snaps.pins.is_empty() && !snaps.versions.is_empty() {
                return Err(corrupt(
                    "snapshot table: retained versions with no pins".to_string(),
                ));
            }
            for (id, vs) in snaps.versions.iter() {
                if vs.is_empty() {
                    return Err(corrupt(format!("snapshot table: empty list for {id:?}")));
                }
                if vs
                    .windows(2)
                    .any(|w| w[0].superseded_at >= w[1].superseded_at)
                {
                    return Err(corrupt(format!(
                        "snapshot table: versions of {id:?} not ascending"
                    )));
                }
                if vs.iter().any(|v| v.superseded_at > epoch) {
                    return Err(corrupt(format!(
                        "snapshot table: version of {id:?} from the future"
                    )));
                }
            }
        }
        let mut dirty_seen = 0u64;
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.acquire();
            let fail = |msg: &str| Err(corrupt(format!("pool shard {si}: {msg}")));
            let mut linked = 0usize;
            let mut prev = NIL;
            let mut idx = shard.head;
            while idx != NIL {
                let f = &shard.frames[idx];
                if f.prev != prev {
                    return fail("LRU back-link mismatch");
                }
                if f.id.is_null() {
                    return fail("linked frame holds no page");
                }
                if PageMap::shard_of(f.id, self.shards.len()) != si
                    || shard.map.get(f.id) != Some(idx)
                {
                    return fail("linked frame not mapped to itself");
                }
                if f.base.is_some() && !f.dirty {
                    return fail("clean frame retains a committed base");
                }
                if f.dirty {
                    dirty_seen += 1;
                }
                linked += 1;
                if linked > shard.frames.len() {
                    return fail("LRU list cycles");
                }
                prev = idx;
                idx = f.next;
            }
            if shard.tail != prev {
                return fail("tail does not end the LRU list");
            }
            if linked != shard.map.len() {
                return fail("mapped frames missing from the LRU list");
            }
            // A WAL pool pins dirty frames (no-steal) and may therefore
            // legitimately exceed capacity until the next commit + miss
            // shrinks it back; the bound only holds strictly without WAL.
            if !self.wal() && shard.map.len() > shard.capacity {
                return fail("occupancy exceeds capacity");
            }
            let mut free_set = HashSet::new();
            for &i in &shard.free {
                if !free_set.insert(i) {
                    return fail("frame on the free list twice");
                }
                let f = &shard.frames[i];
                if !f.id.is_null() || f.dirty || f.base.is_some() || f.node.is_some() {
                    return fail("free frame not reset");
                }
            }
            if linked + shard.free.len() != shard.frames.len() {
                return fail("frame leaked (neither mapped nor free)");
            }
        }
        if self.wal() && dirty_seen != self.dirty_frames.load(Ordering::Relaxed) {
            return Err(corrupt(format!(
                "dirty-frame counter {} disagrees with {} dirty frames",
                self.dirty_frames.load(Ordering::Relaxed),
                dirty_seen
            )));
        }
        self.committed.validate()?;
        let alloc = self.alloc.acquire();
        if alloc.free_pages.len() != alloc.freed.len()
            || alloc.free_pages.iter().any(|id| !alloc.freed.contains(id))
        {
            return Err(corrupt(
                "allocator free list and double-free set disagree".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Box::new(MemPager::new(128)), cap)
    }

    fn page_with(pool: &BufferPool, byte: u8) -> PageId {
        let id = pool.allocate().unwrap();
        pool.write_page(id, &[byte; 16]).unwrap();
        id
    }

    #[test]
    fn write_then_read_hits_buffer() {
        let p = pool(4);
        let id = page_with(&p, 7);
        let v = p.with_page(id, |d| d[0]).unwrap();
        assert_eq!(v, 7);
        let s = p.stats();
        assert_eq!(s.reads, 0, "freshly written page must not incur a read");
        assert_eq!(s.hits, 1);
        assert_eq!(s.writes, 0, "nothing evicted yet");
    }

    #[test]
    fn eviction_writes_dirty_pages_and_rereads_cost_io() {
        let p = pool(2);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);
        let c = page_with(&p, 3); // evicts a (LRU)
        let s = p.stats();
        assert_eq!(s.writes, 1, "dirty eviction of page a");
        // Re-reading a misses (1 read) and evicts b (1 write).
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 1);
        let s = p.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        // b and c still correct.
        assert_eq!(p.with_page(c, |d| d[0]).unwrap(), 3);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 2);
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn lru_order_respects_recency() {
        let p = pool(2);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);
        // Touch a so that b becomes LRU.
        p.with_page(a, |_| ()).unwrap();
        let _c = page_with(&p, 3); // must evict b, not a
        p.reset_stats();
        p.with_page(a, |_| ()).unwrap();
        assert_eq!(p.stats().reads, 0, "a should still be resident");
        p.with_page(b, |_| ()).unwrap();
        assert_eq!(p.stats().reads, 1, "b was evicted");
    }

    #[test]
    fn flush_all_persists_and_clears_dirty() {
        let p = pool(4);
        let a = page_with(&p, 9);
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes, 1);
        // Flushing again writes nothing.
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes, 1);
        // Content survives eviction without further dirty writes.
        for i in 0..4 {
            page_with(&p, i);
        }
        p.reset_stats();
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 9);
        assert_eq!(p.stats().reads, 1);
    }

    #[test]
    fn short_writes_zero_pad() {
        let p = pool(2);
        let id = p.allocate().unwrap();
        let full = vec![0xFF; p.payload_size()];
        p.write_page(id, &full).unwrap();
        p.write_page(id, &[1, 2, 3]).unwrap();
        p.with_page(id, |d| {
            assert_eq!(d.len(), 120, "closures see the payload, not the page");
            assert_eq!(&d[..3], &[1, 2, 3]);
            assert!(
                d[3..].iter().all(|&x| x == 0),
                "stale bytes must be cleared"
            );
        })
        .unwrap();
    }

    #[test]
    fn oversized_writes_are_typed_errors() {
        let p = pool(2);
        assert_eq!(p.page_size(), 128);
        assert_eq!(p.payload_size(), 128 - checksum::TRAILER);
        let id = p.allocate().unwrap();
        let err = p.write_page(id, &[0u8; 121]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::RecordTooLarge {
                    record: 121,
                    page: 120
                }
            ),
            "got: {err}"
        );
        // The failed write leaves the pool valid and the page writable.
        p.validate().unwrap();
        p.write_page(id, &[0u8; 120]).unwrap();
    }

    #[test]
    fn stats_since_computes_deltas() {
        let p = pool(1);
        let a = page_with(&p, 1);
        let before = p.stats();
        let _b = page_with(&p, 2); // evicts dirty a
        p.with_page(a, |_| ()).unwrap(); // miss
        let d = p.stats().since(&before);
        assert_eq!(d.writes, 2, "evictions of both dirty pages");
        assert_eq!(d.reads, 1);
        assert_eq!(d.total(), 3);
    }

    #[test]
    fn stats_since_saturates_across_reset() {
        // Regression: a reset_stats between two snapshots used to
        // underflow (panicking in debug builds). The delta must clamp to
        // zero instead.
        let p = pool(1);
        let _a = page_with(&p, 1);
        let _b = page_with(&p, 2); // evicts dirty a: writes = 1
        let before = p.stats();
        assert!(before.total() > 0);
        p.reset_stats();
        let d = p.stats().since(&before);
        assert_eq!(d, IoStats::default());
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn allocated_pages_tracks_pager() {
        let p = pool(2);
        assert_eq!(p.allocated_pages(), 0);
        page_with(&p, 0);
        page_with(&p, 1);
        page_with(&p, 2);
        assert_eq!(p.allocated_pages(), 3);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn freed_pages_are_reused_and_uncached() {
        let p = pool(4);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);
        assert_eq!(p.live_pages(), 2);
        p.free_page(a).unwrap();
        assert_eq!(p.live_pages(), 1);
        // The freed page's frame is gone; reuse returns the same id.
        let c = p.allocate().unwrap();
        assert_eq!(c, a, "freed page must be recycled");
        assert_eq!(p.live_pages(), 2);
        // Freeing a dirty page must not write it back.
        let before = p.stats().writes;
        p.free_page(b).unwrap();
        assert_eq!(p.stats().writes, before);
        // Recycled page, once rewritten, reads fresh content.
        p.write_page(c, &[9; 4]).unwrap();
        assert_eq!(p.with_page(c, |d| d[0]).unwrap(), 9);
    }

    #[test]
    fn double_free_is_detected_in_release_builds() {
        let p = pool(4);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);
        p.free_page(a).unwrap();
        let err = p.free_page(a).unwrap_err();
        assert!(err.to_string().contains("double free"), "got: {err}");
        assert!(p.free_page(PageId::NULL).is_err());
        // The free list is unharmed: one page free, b still live.
        assert_eq!(p.live_pages(), 1);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 2);
        // Re-allocating the freed page makes a later free legal again.
        let c = p.allocate().unwrap();
        assert_eq!(c, a);
        p.write_page(c, &[5; 4]).unwrap();
        p.free_page(c).unwrap();
    }

    #[test]
    fn heavy_traffic_is_consistent() {
        // Interleave writes/reads over many pages with a tiny buffer and
        // verify every page retains its distinct contents.
        let p = pool(3);
        let ids: Vec<PageId> = (0..50u8).map(|i| page_with(&p, i)).collect();
        for (i, &id) in ids.iter().enumerate().rev() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn sharded_pool_keeps_contents_and_accounting() {
        let p = BufferPool::with_shards(Box::new(MemPager::new(128)), 8, 4);
        assert_eq!(p.shard_count(), 4);
        let ids: Vec<PageId> = (0..40u8).map(|i| page_with(&p, i)).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        assert!(p.resident() <= 8 + 3, "per-shard capacity roughly holds");
        let s = p.stats();
        // Every one of the 40 read accesses is either a hit or a read.
        assert_eq!(s.reads + s.hits, 40);
    }

    #[test]
    fn failed_eviction_write_back_leaves_pool_consistent() {
        // Regression: a failed dirty write-back used to leave the victim
        // frame detached from the LRU list but still mapped, so the next
        // hit on that page touched a detached frame and corrupted the
        // list. The victim must stay fully intact on the error path.
        use crate::fault::{FaultPager, FaultSpec, OpFilter};
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = BufferPool::new(Box::new(pager), 2);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);

        // Make write-backs fail: inserting a third page must error while
        // trying to evict the dirty LRU victim.
        p.with_page(a, |_| ()).unwrap(); // b is now LRU
        let c = p.allocate().unwrap();
        faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 1));
        let err = p.write_page(c, &[3; 4]).unwrap_err();
        assert!(err.to_string().contains("injected"), "got: {err}");
        let writes_after_failure = p.stats().writes;

        // Heal the pager; the pool must still be fully usable and both
        // cached pages must round-trip correctly through touch/evict
        // cycles (this used to corrupt the LRU list).
        faults.disarm();
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 2);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 1);
        p.write_page(c, &[3; 4]).unwrap();
        assert_eq!(p.with_page(c, |d| d[0]).unwrap(), 3);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 2);
        assert!(p.stats().writes > writes_after_failure, "retry succeeded");
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
        assert_send_sync::<IoStats>();
    }

    #[test]
    fn validate_accepts_live_pool_states() {
        let p = BufferPool::with_shards(Box::new(MemPager::new(128)), 6, 4);
        p.validate().unwrap();
        let ids: Vec<PageId> = (0..20u8).map(|i| page_with(&p, i)).collect();
        p.validate().unwrap();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        p.free_page(ids[3]).unwrap();
        p.flush_all().unwrap();
        p.validate().unwrap();
    }

    /// Satellite regression: `flush_all` must attempt *every* dirty
    /// frame, clear dirty bits only after their own successful write,
    /// still sync, and leave the failed page retryable — under a pager
    /// failing exactly the Nth write.
    #[test]
    fn flush_all_survives_a_failing_nth_write() {
        use crate::fault::{is_injected, FaultPager, FaultSpec, OpFilter};

        // 8 dirty pages in a single shard; fail the 3rd flush write.
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = BufferPool::new(Box::new(pager), 16);
        let ids: Vec<PageId> = (0..8u8).map(|i| page_with(&p, i)).collect();
        faults.arm(FaultSpec::error_at(OpFilter::Writes, 3));

        let err = p.flush_all().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        // All 8 writes were attempted (7 succeeded) and sync still ran.
        let c = faults.counts();
        assert_eq!(c.writes, 8, "every dirty frame must be attempted");
        assert_eq!(c.syncs, 1, "sync must run even after a failed write");
        assert_eq!(p.stats().writes, 7, "only successful writes count");
        p.validate().unwrap();

        // Retry with the fault gone: exactly the one failed page is
        // still dirty and gets written; flush now reports success.
        faults.disarm();
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes, 8);
        assert_eq!(faults.counts().writes, 9, "only the failed page rewrote");

        // Every page still carries its contents.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        p.validate().unwrap();
    }

    /// A failed sync must fail the flush even when every write worked.
    #[test]
    fn flush_all_reports_sync_failure() {
        use crate::fault::{is_injected, FaultPager, FaultSpec, OpFilter};

        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = BufferPool::new(Box::new(pager), 4);
        page_with(&p, 1);
        faults.arm(FaultSpec::error_at(OpFilter::Syncs, 1));
        let err = p.flush_all().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        // The write-back happened; only the sync needs retrying.
        assert_eq!(p.stats().writes, 1);
        p.flush_all().unwrap();
        assert_eq!(p.stats().writes, 1, "no page was dirty on retry");
    }

    #[test]
    fn checksummed_round_trip_through_eviction() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..6u8).map(|i| page_with(&p, i)).collect();
        p.flush_all().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        p.validate().unwrap();
    }

    #[test]
    fn torn_write_surfaces_as_corruption_on_fetch() {
        use crate::fault::{is_injected, FaultPager, FaultSpec};

        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = BufferPool::new(Box::new(pager), 4);
        let id = p.allocate().unwrap();
        p.write_page(id, &[0xAB; 100]).unwrap();
        // Tear the flush write after 33 bytes, then drop the frame so
        // the next access must fetch the torn image from the pager.
        faults.arm(FaultSpec::torn_write_at(1, 33));
        let err = p.flush_all().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        faults.disarm();
        p.free_page(id).unwrap(); // drops the (still dirty) frame
        assert_eq!(p.allocate().unwrap(), id);

        let reads_before = p.stats().reads;
        let err = p.with_page(id, |_| ()).unwrap_err();
        match err {
            Error::Corruption {
                page,
                expected,
                found,
            } => {
                assert_eq!(page, id.0);
                assert_ne!(expected, found);
            }
            other => panic!("expected Corruption, got: {other}"),
        }
        assert_eq!(
            p.stats().reads,
            reads_before,
            "a corrupt fetch is not a usable read"
        );
        p.validate().unwrap();
        // The page is recoverable by rewriting it whole.
        p.write_page(id, &[7; 10]).unwrap();
        p.flush_all().unwrap();
        p.free_page(id).unwrap();
        assert_eq!(p.allocate().unwrap(), id);
        assert_eq!(p.with_page(id, |d| d[0]).unwrap(), 7);
    }

    fn wal_pool(cap: usize) -> (BufferPool, crate::fault::FaultHandle) {
        let (mut pager, faults) = crate::fault::FaultPager::new(Box::new(MemPager::new(128)));
        let log = pager.wal().unwrap();
        let p = BufferPool::with_config(Box::new(pager), cap, 1, Some(log), cap);
        (p, faults)
    }

    #[test]
    fn wal_pool_never_steals_dirty_pages() {
        let (p, faults) = wal_pool(2);
        assert!(p.wal());
        let ids: Vec<PageId> = (0..6u8).map(|i| page_with(&p, i)).collect();
        // All six dirty pages are resident: no-steal pinned them past
        // capacity, and not one reached the data file.
        assert_eq!(p.resident(), 6);
        assert_eq!(faults.counts().writes, 0, "no in-place write before commit");
        p.validate().unwrap();

        p.commit().unwrap();
        let c = faults.counts();
        assert_eq!(c.writes, 6, "commit wrote every dirty page in place");
        assert_eq!(c.wal_appends, 8, "begin + 6 images + commit");
        assert_eq!(
            c.wal_syncs, 2,
            "once at the atomicity point, once after truncate"
        );
        assert_eq!(c.wal_truncates, 1);
        let s = p.stats();
        assert_eq!((s.wal_appends, s.wal_syncs, s.writes), (8, 2, 6));

        // Post-commit frames are clean: the next miss shrinks the shard
        // back within capacity by evicting clean frames without I/O.
        let extra = page_with(&p, 9);
        assert!(p.resident() <= 2, "clean eviction shrinks to capacity");
        p.validate().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        assert_eq!(p.with_page(extra, |d| d[0]).unwrap(), 9);
        // Accounting invariant holds across WAL traffic.
        let s = p.stats();
        assert!(s.reads > 0);
    }

    #[test]
    fn empty_commit_only_syncs() {
        let (p, faults) = wal_pool(2);
        page_with(&p, 1);
        p.commit().unwrap();
        faults.reset_counts();
        p.commit().unwrap();
        let c = faults.counts();
        assert_eq!(c.wal_appends, 0, "nothing dirty, nothing logged");
        assert_eq!(c.writes, 0);
        assert_eq!(c.syncs, 1, "commit still means durable");
    }

    #[test]
    fn commit_trace_is_write_ahead() {
        let (p, faults) = wal_pool(4);
        page_with(&p, 1);
        page_with(&p, 2);
        faults.start_trace();
        p.commit().unwrap();
        let trace = faults.take_trace();
        let first_wal_sync = trace
            .iter()
            .position(|&op| op == crate::fault::OpKind::WalSync)
            .expect("commit must sync the log");
        for (i, &op) in trace.iter().enumerate() {
            match op {
                crate::fault::OpKind::WalAppend => {
                    assert!(i < first_wal_sync, "append after the log sync")
                }
                crate::fault::OpKind::Write | crate::fault::OpKind::Sync => {
                    assert!(i > first_wal_sync, "in-place I/O before the log was synced")
                }
                crate::fault::OpKind::WalTruncate => {
                    let last_sync = trace
                        .iter()
                        .rposition(|&o| o == crate::fault::OpKind::Sync)
                        .expect("data sync must happen");
                    assert!(i > last_sync, "log truncated before the data sync");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn failed_commit_keeps_frames_dirty_and_retries() {
        use crate::fault::{is_injected, FaultSpec, OpFilter};
        let (p, faults) = wal_pool(4);
        let ids: Vec<PageId> = (0..3u8).map(|i| page_with(&p, i)).collect();
        faults.arm(FaultSpec::error_at(OpFilter::Writes, 2));
        let err = p.commit().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        p.validate().unwrap();
        // Retry commits the full transaction; contents intact.
        faults.disarm();
        p.commit().unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
        // Nothing left dirty: a third commit logs nothing.
        faults.reset_counts();
        p.commit().unwrap();
        assert_eq!(faults.counts().wal_appends, 0);
    }

    #[test]
    fn failed_wal_append_rolls_log_back_for_retry() {
        // Regression: a commit that died while *logging* used to leave
        // the torn transaction tail in the WAL, so the retry's `begin`
        // landed inside the open transaction and a crash between the
        // retry's log sync and truncate made recovery fail WalCorrupt.
        use crate::fault::{is_injected, FaultSpec, OpFilter};
        let (p, faults) = wal_pool(4);
        let ids: Vec<PageId> = (0..3u8).map(|i| page_with(&p, i)).collect();
        // Die on the second append (the first page image): begin is
        // already in the log and must be rolled back out.
        faults.arm(FaultSpec::error_at(OpFilter::WalAppends, 1));
        let err = p.commit().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        assert_eq!(
            faults.counts().wal_truncates,
            1,
            "torn log tail rolled back on the error path"
        );
        p.validate().unwrap();
        // The retry re-logs the whole transaction from a clean tail.
        faults.disarm();
        faults.reset_counts();
        p.commit().unwrap();
        assert_eq!(faults.counts().wal_appends, 5, "begin + 3 images + commit");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
    }

    #[test]
    fn flush_all_on_a_wal_pool_routes_through_commit() {
        let (p, faults) = wal_pool(4);
        page_with(&p, 5);
        p.flush_all().unwrap();
        let c = faults.counts();
        assert_eq!(c.wal_appends, 3, "flush on a WAL pool is a commit");
        assert_eq!(c.writes, 1);
    }

    /// Satellite regression: a dirtying write at the ceiling must fail
    /// typed, leave no trace, and clear after a commit.
    #[test]
    fn backpressure_rejects_dirtying_writes_at_the_ceiling() {
        let (p, _faults) = wal_pool(8);
        p.set_dirty_ceiling(2);
        let a = page_with(&p, 1);
        let b = page_with(&p, 2);
        assert_eq!(p.dirty_pages(), 2);
        let c = p.allocate().unwrap();
        let err = p.write_page(c, &[3; 4]).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Backpressure {
                    dirty: 2,
                    ceiling: 2
                }
            ),
            "got: {err}"
        );
        // The rejected write left no trace — in particular no
        // zero-filled frame a later read could mistake for content.
        p.validate().unwrap();
        assert_eq!(p.resident(), 2);
        // Re-dirtying an already-dirty page consumes no new frame and
        // is still allowed at the ceiling.
        p.write_page(a, &[9; 4]).unwrap();
        assert_eq!(p.dirty_pages(), 2);
        // Commit releases the obligation; the failed write retries.
        p.commit().unwrap();
        assert_eq!(p.dirty_pages(), 0);
        p.write_page(c, &[3; 4]).unwrap();
        assert_eq!(p.with_page(c, |d| d[0]).unwrap(), 3);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 9);
        assert_eq!(p.with_page(b, |d| d[0]).unwrap(), 2);
        // The high-water stat recorded the peak obligation, and a
        // reset restarts it from the *current* dirty count.
        assert_eq!(p.stats().dirty_high_water, 2);
        p.reset_stats();
        assert_eq!(p.stats().dirty_high_water, 1);
        p.validate().unwrap();
    }

    /// Satellite regression: every pool-issued data-file sync is
    /// accounted — the empty commit's durability sync included.
    #[test]
    fn sync_accounting_covers_empty_commits_and_applies() {
        let (p, faults) = wal_pool(2);
        assert_eq!(p.stats().syncs, 0);
        p.commit().unwrap(); // empty: still one durability sync
        assert_eq!(p.stats().syncs, 1);
        assert_eq!(faults.counts().syncs, 1, "stat matches the pager op");
        page_with(&p, 1);
        p.commit().unwrap(); // apply-phase data sync
        assert_eq!(p.stats().syncs, 2);
        p.commit().unwrap(); // empty again
        assert_eq!(p.stats().syncs, 3);
        assert_eq!(faults.counts().syncs, 3);
    }

    #[test]
    fn epoch_advances_only_on_nonempty_commits() {
        let (p, _faults) = wal_pool(2);
        assert_eq!(p.commit_epoch(), 1);
        p.commit().unwrap();
        assert_eq!(p.commit_epoch(), 1, "an empty commit creates no state");
        page_with(&p, 3);
        p.commit().unwrap();
        assert_eq!(p.commit_epoch(), 2);
    }

    #[test]
    fn snapshot_readers_see_their_pinned_epoch() {
        let (p, _faults) = wal_pool(4);
        let a = p.allocate().unwrap();
        p.write_page(a, &[1; 8]).unwrap();
        p.commit().unwrap();
        let e = p.pin_snapshot();
        assert_eq!(e, 2);
        // Uncommitted overwrite: the snapshot serves the committed
        // base while the live read sees the new bytes.
        p.write_page(a, &[2; 8]).unwrap();
        assert_eq!(p.with_page_at(a, e, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 2);
        // Committed overwrite: the flip retained the superseded image
        // for the pin.
        p.commit().unwrap();
        assert_eq!(p.commit_epoch(), 3);
        assert_eq!(p.with_page_at(a, e, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 2);
        // A fresh pin sees the new epoch.
        let e2 = p.pin_snapshot();
        assert_eq!(p.with_page_at(a, e2, |d| d[0]).unwrap(), 2);
        p.validate().unwrap();
        // Draining the pins garbage-collects the retained images.
        p.unpin_snapshot(e);
        p.unpin_snapshot(e2);
        p.validate().unwrap();
        let e3 = p.pin_snapshot();
        assert_eq!(p.with_page_at(a, e3, |d| d[0]).unwrap(), 2);
        p.unpin_snapshot(e3);
    }

    #[test]
    fn snapshot_read_falls_back_to_disk_when_no_base_is_buffered() {
        let (p, _faults) = wal_pool(2);
        let a = p.allocate().unwrap();
        p.write_page(a, &[5; 8]).unwrap();
        p.commit().unwrap();
        // Push `a`'s clean frame out, then overwrite the page while it
        // is not resident: the dirty frame has no base, so the
        // committed image survives only on disk (no-steal).
        page_with(&p, 1);
        page_with(&p, 2);
        assert_eq!(p.resident(), 2, "the clean frame for `a` was evicted");
        let e = p.pin_snapshot();
        p.write_page(a, &[6; 8]).unwrap();
        let reads0 = p.stats().reads;
        assert_eq!(p.with_page_at(a, e, |d| d[0]).unwrap(), 5);
        assert_eq!(p.stats().reads, reads0 + 1, "served from disk");
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 6);
        p.unpin_snapshot(e);
        p.validate().unwrap();
    }

    #[test]
    fn corrupt_pre_image_on_disk_fails_the_flip_before_any_state_changes() {
        use crate::fault::{is_injected, FaultSpec};

        let (p, faults) = wal_pool(2);
        let a = p.allocate().unwrap();
        p.write_page(a, &[5; 8]).unwrap();
        // The commit's in-place write of `a` tears after 33 bytes: the
        // transaction is durable in the log and published, the data
        // file holds a torn image.
        faults.arm(FaultSpec::torn_write_at(1, 33));
        assert!(is_injected(&p.commit().unwrap_err()));
        faults.disarm();
        // Drop the dirty frame (and with it the committed base), then
        // overwrite the recycled page while it is not resident: the
        // new dirty frame has no base, so the flip's fallback for the
        // pinned epoch's image of `a` is the torn bytes on disk.
        p.free_page(a).unwrap();
        assert_eq!(p.allocate().unwrap(), a);
        let e = p.pin_snapshot();
        p.write_page(a, &[6; 8]).unwrap();

        let epoch = p.commit_epoch();
        for attempt in 0..2 {
            match p.commit().unwrap_err() {
                Error::Corruption { page, .. } => assert_eq!(page, a.0),
                other => panic!("attempt {attempt}: expected Corruption, got: {other}"),
            }
            // Nothing moved: no new epoch, no retained garbage for the
            // pin, the uncommitted write still live and dirty.
            assert_eq!(p.commit_epoch(), epoch);
            assert!(p.snapshots.acquire().versions.is_empty());
            assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 6);
            p.validate().unwrap();
        }
        // With the pin gone the flip needs no pre-image; the apply
        // phase rewrites `a` whole, which heals the file.
        p.unpin_snapshot(e);
        p.commit().unwrap();
        assert_eq!(p.commit_epoch(), epoch + 1);
        page_with(&p, 1);
        page_with(&p, 2);
        let reads0 = p.stats().reads;
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 6);
        assert_eq!(p.stats().reads, reads0 + 1, "fetched from disk, verified");
        p.validate().unwrap();
    }

    /// Parks the pool's next log sync until the test opens the gate — a
    /// deterministic window into the middle of a concurrent commit
    /// (past capture, before the flip).
    fn park_next_log_sync(faults: &crate::fault::FaultHandle) {
        faults.close_gate();
        faults.arm(crate::fault::FaultSpec::park_at(
            crate::fault::OpFilter::WalSyncs,
            1,
        ));
    }

    /// Satellite regression for the un-dirty pass: a page freed and
    /// re-allocated while its commit is in flight gets a fresh
    /// mutation stamp, so even byte-identical content must stay dirty
    /// and be logged by the *next* commit. (The old byte-compare pass
    /// could confuse the two incarnations.)
    #[test]
    fn free_then_realloc_mid_commit_stays_dirty() {
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = p.allocate().unwrap();
        p.write_page(a, &[7; 16]).unwrap();
        park_next_log_sync(&faults);
        let committer = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        // The committer is parked inside the log sync — past capture,
        // before the flip. Recycle the page with identical bytes.
        assert!(faults.wait_parked());
        p.free_page(a).unwrap();
        assert_eq!(p.allocate().unwrap(), a, "freed page must be recycled");
        p.write_page(a, &[7; 16]).unwrap();
        faults.open_gate();
        committer.join().unwrap().unwrap();
        // The re-allocated incarnation is a different write than the
        // captured one: it stays dirty and the next commit logs it.
        assert_eq!(p.dirty_pages(), 1);
        p.validate().unwrap();
        let appends = p.stats().wal_appends;
        p.commit().unwrap();
        assert_eq!(
            p.stats().wal_appends - appends,
            3,
            "begin + image + commit re-logged"
        );
        assert_eq!(p.dirty_pages(), 0);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 7);
        p.validate().unwrap();
    }

    /// A reader pinned before a commit keeps its epoch across the
    /// commit's entire window, including while the committer is parked
    /// mid-log — the tentpole's non-blocking read guarantee in
    /// miniature.
    #[test]
    fn snapshot_reads_proceed_while_a_commit_is_in_flight() {
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = p.allocate().unwrap();
        p.write_page(a, &[1; 8]).unwrap();
        p.commit().unwrap();
        let e = p.pin_snapshot();
        p.write_page(a, &[2; 8]).unwrap();
        park_next_log_sync(&faults);
        let committer = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        assert!(faults.wait_parked());
        // The committer holds the commit lock and the WAL handle, and
        // is blocked inside the log fsync. Reads do not wait for it.
        assert_eq!(p.with_page_at(a, e, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 2);
        faults.open_gate();
        committer.join().unwrap().unwrap();
        // Post-commit, the pinned epoch still serves the old image.
        assert_eq!(p.with_page_at(a, e, |d| d[0]).unwrap(), 1);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 2);
        p.unpin_snapshot(e);
        p.validate().unwrap();
    }

    /// The interleaving the hit path's second epoch load exists for: a
    /// reader pinned at `e` loads `e`, then a flip lands and a reader
    /// of `e + 1` caches the new image's decode before the first
    /// reader's lookup. That lookup finds the `e + 1` node and must
    /// discard it, uncounted; the read it falls back to is counted once
    /// and serves `e`'s retained image.
    #[test]
    fn a_hit_found_after_a_flip_is_discarded_and_counted_once() {
        let (p, _) = wal_pool(4);
        let a = p.allocate().unwrap();
        p.write_page(a, &[1; 8]).unwrap();
        p.commit().unwrap();
        let e = p.pin_snapshot();
        let decode = |d: &[u8]| Ok(d[0]);
        assert_eq!(*p.read_node_at(a, e, decode).unwrap().0, 1);
        // The reader's first load read `e` here.
        assert_eq!(p.commit_epoch(), e);
        p.write_page(a, &[2; 8]).unwrap();
        p.commit().unwrap();
        let newer = p.pin_snapshot();
        assert_eq!(
            p.read_node_at(a, newer, decode).unwrap(),
            (Arc::new(2), true)
        );
        let before = p.stats();
        assert!(p.committed_hit::<u8>(a, e).is_none(), "e + 1's node kept");
        assert_eq!(p.stats(), before, "a discarded hit counts nothing");
        assert_eq!(p.read_node_at(a, e, decode).unwrap(), (Arc::new(1), true));
        let after = p.stats();
        assert_eq!(after.decode_misses - before.decode_misses, 1);
        assert_eq!(after.decode_hits, before.decode_hits);
        // The newer pin's own hit is kept.
        assert_eq!(*p.committed_hit::<u8>(a, newer).unwrap(), 2);
        p.unpin_snapshot(e);
        p.unpin_snapshot(newer);
        p.validate().unwrap();
    }

    /// Committers queued behind an in-flight leader group: the
    /// transaction is logged exactly once with one atomicity-point
    /// sync, and followers add no log I/O.
    #[test]
    fn queued_committers_group_behind_the_leader() {
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = p.allocate().unwrap();
        p.write_page(a, &[4; 4]).unwrap();
        park_next_log_sync(&faults);
        let leader = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        assert!(faults.wait_parked());
        let follower = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        faults.open_gate();
        leader.join().unwrap().unwrap();
        follower.join().unwrap().unwrap();
        let s = p.stats();
        // Whether the follower queued in time (zero-op return) or
        // arrived after the leader finished (empty commit), the
        // transaction was logged exactly once.
        assert_eq!(s.wal_appends, 3, "one transaction, logged once");
        assert_eq!(s.wal_syncs, 2, "atomicity point + truncate only");
        assert!(s.syncs <= 2, "at most one extra empty-commit sync");
        assert_eq!(p.dirty_pages(), 0);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 4);
        p.validate().unwrap();
    }
}
