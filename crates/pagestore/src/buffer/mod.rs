//! Thread-safe LRU buffer pool with I/O accounting.
//!
//! The paper's experiments (§6) report the number of I/Os incurred under a
//! 10 MB LRU buffer over 8 KB pages. This pool reproduces that cost model:
//! a *read I/O* is a buffer miss that must fetch the page from the pager;
//! a *write I/O* is a dirty page written back on eviction or flush. Buffer
//! hits are free (counted separately for diagnostics).
//!
//! ## Concurrency model
//!
//! The pool is the paper's one global LRU list behind one mutex, so its
//! eviction order — and hence every I/O count — is exactly that of a
//! sequential implementation. Page ids are dense, so the list finds a
//! frame through a dense `PageMap` — one `Vec` load, not a hash probe —
//! which grows only for a page the pager has. The pager sits behind a
//! single mutex and is only locked on misses, evictions and flushes —
//! buffer hits (the common case under the paper's cache-friendly
//! workloads) touch exactly the LRU lock. I/O statistics are atomic
//! counters, exact regardless of interleaving.
//!
//! The pool has one writer at a time. Every mutation —
//! [`allocate`](BufferPool::allocate), [`write_page`](BufferPool::write_page),
//! [`free_page`](BufferPool::free_page), [`commit`](BufferPool::commit),
//! [`flush_all`](BufferPool::flush_all) — takes `&mut` [`Writer`], the
//! contents of the writer lock ([`BufferPool::writer`]), which also owns
//! the allocator's free list; a commit holds it from its capture to its
//! last phase, so no write or free ever lands inside a commit. Readers
//! never take it.
//!
//! Every lock is a [`RankedMutex`] (plus one [`RankedRwLock`], the
//! commit barrier) in the order `writer < superblock < barrier <
//! snapshot < wal io < shard < node cache < pager` — the LRU's rank is
//! `SHARD` — (see [`crate::rank`] for the derivation); debug builds panic
//! on any out-of-order acquisition, so a lock-order inversion cannot
//! survive the test suite.
//!
//! ## Layout
//!
//! This file holds the frames, the LRU, page access, flush and
//! [`validate`](BufferPool::validate). `snapshot.rs` holds the snapshot
//! table, pins and pinned reads; `commit.rs` holds the commit protocol
//! (phases A–F and the epoch flip). Both are child modules, so they reach
//! the pool's private fields directly.
//!
//! ## A frame holds its decode
//!
//! A live node read ([`BufferPool::visit_node`]) is one LRU lock and
//! one directory probe: the page access, counted as any other, and then
//! the decode the frame keeps beside its bytes, or a fresh decode the
//! frame keeps for next time — or, for a leaf a [`Scan`] reads in
//! place, an answer from the bytes and, from the leaf's second visit
//! on, the few sums the frame keeps instead of a decode. Whatever
//! changes a frame's bytes or page — a write, a free, an eviction, the
//! frame's reuse — drops what it keeps under the same lock, so nothing
//! kept can outlive its bytes, and the
//! paper's LRU is the only LRU a live read goes through. A WAL pool's
//! committed-image cache, which pinned reads go through, follows the
//! same rule: its entry for a page leaves with the page's frame
//! ([`release`](BufferPool::release)), so the paper's LRU is the only
//! eviction policy in the pool. A pinned hit skips the LRU lock, so it
//! marks its entry instead, and the no-steal eviction gives a marked
//! frame a second chance ([`evict_clean`](BufferPool::evict_clean)):
//! pinned readers keep their pages as live readers do.
//!
//! Page-access closures passed to [`BufferPool::with_page`] run while the
//! LRU is locked and therefore must not re-enter the pool.
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
use std::collections::HashSet;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxagg_common::error::{corrupt, invalid_arg, Error, Result};

use crate::checksum;
use crate::nodecache::{CachedNode, NodeCache};
use crate::pagemap::PageMap;
use crate::pager::{PageId, Pager};
use crate::rank::{self, RankedGuard, RankedMutex, RankedRwLock};
use crate::wal::WalFile;

use snapshot::SnapshotTable;

mod commit;
mod snapshot;

/// Cumulative I/O statistics of a store's buffer pool
/// ([`SharedStore::stats`](crate::store::SharedStore::stats)).
///
/// The `decode_*` counters count node reads and the decodes kept for
/// them: live reads
/// ([`SharedStore::read_node`](crate::store::SharedStore::read_node)),
/// served from the decode a frame holds, and pinned reads
/// ([`StoreSnapshot::read_node`](crate::store::StoreSnapshot::read_node)),
/// served from the committed-image cache.
/// They never contribute to [`total`](IoStats::total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages fetched from the pager (buffer misses).
    pub reads: u64,
    /// Dirty pages written back to the pager (evictions + flushes).
    pub writes: u64,
    /// Page accesses satisfied from the buffer.
    pub hits: u64,
    /// Node reads served from a kept decode, or answered from a leaf's
    /// kept sums (decode skipped).
    pub decode_hits: u64,
    /// Node reads that found nothing kept (cold, rewritten, or nothing
    /// kept): they decoded from bytes, answered from them alone
    /// (`leaf_scans`) or from the sums they built (`sums_built`), or —
    /// a pinned read — took over what a clean frame kept.
    /// `decode_hits + decode_misses` is the node reads served.
    pub decode_misses: u64,
    /// Node reads answered from a leaf page's bytes alone: a leaf's
    /// first visit since its frame last changed, any leaf visit when
    /// nothing is kept, and a pinned read of a superseded leaf image.
    /// Each is also a decode miss.
    pub leaf_scans: u64,
    /// Node reads answered from a leaf page's bytes and the sums they
    /// built and left kept: a leaf's second visit. Each is also a decode
    /// miss; `decode_misses − leaf_scans − sums_built` ran the codec or
    /// took over a clean frame's decode.
    pub sums_built: u64,
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
    /// frames since the last
    /// [`reset_stats`](crate::store::SharedStore::reset_stats) —
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
    /// so a [`reset_stats`](crate::store::SharedStore::reset_stats)
    /// between the two snapshots yields zeros instead of underflowing.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            hits: self.hits.saturating_sub(earlier.hits),
            decode_hits: self.decode_hits.saturating_sub(earlier.decode_hits),
            decode_misses: self.decode_misses.saturating_sub(earlier.decode_misses),
            leaf_scans: self.leaf_scans.saturating_sub(earlier.leaf_scans),
            sums_built: self.sums_built.saturating_sub(earlier.sums_built),
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

/// What a node read that offered a [`Scan`] got: the decoded node, or
/// the scan's answer from the page's bytes (see
/// [`ReadHandle::visit_node`](crate::store::ReadHandle::visit_node)).
#[derive(Debug)]
pub enum Visit<N, T> {
    /// The page's decode: kept, or made by this read.
    Node(Arc<N>),
    /// The scan's answer: the page was not decoded.
    Scanned(T),
}

impl<N> Visit<N, Infallible> {
    /// The node of a read whose scan always declines.
    pub(crate) fn into_node(self) -> Arc<N> {
        match self {
            Visit::Node(node) => node,
            Visit::Scanned(never) => match never {},
        }
    }
}

/// What a node read may answer from a page's bytes instead of decoding
/// them ([`ReadHandle::visit_node`](crate::store::ReadHandle::visit_node)).
/// A page's first visit answers from its bytes alone; its second builds
/// the page's [`Sums`](Scan::Sums), which the buffer keeps in place of
/// a decode for as long as it keeps the bytes, and its later visits
/// answer from both.
pub trait Scan {
    /// What the scan answers.
    type Answer;
    /// What a page keeps beside its bytes for the scan.
    type Sums: Any + Send + Sync;

    /// The sums of the page `bytes`, or `None` where the scan declines
    /// the page.
    fn sums(&self, bytes: &[u8]) -> Option<Self::Sums>;

    /// The answer from the page `bytes`, helped by their `sums` when
    /// the page keeps them, or `None`: the read decodes instead.
    fn answer(&self, bytes: &[u8], sums: Option<&Self::Sums>) -> Option<Self::Answer>;
}

/// The scan of a plain node read: it declines, so the read decodes.
pub(crate) struct Decline;

impl Scan for Decline {
    type Answer = Infallible;
    type Sums = Infallible;

    fn sums(&self, _: &[u8]) -> Option<Infallible> {
        None
    }

    fn answer(&self, _: &[u8], _: Option<&Infallible>) -> Option<Infallible> {
        None
    }
}

/// A frame's slot for what it keeps and its visit bit
/// ([`Frame::node`], [`Frame::visited`]).
type Held<'a> = (&'a mut Option<CachedNode>, &'a mut bool);

/// How a node read was served, for its counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Served {
    /// From a kept decode or kept sums: a decode hit.
    Kept,
    /// From the bytes alone, on a first visit: a miss and a leaf scan.
    Scanned,
    /// From the bytes and the sums this read built: a miss.
    Built,
    /// By a decode: a miss, and a codec run.
    Decoded,
}

/// One node read of a frame's `bytes`:
///
/// * the decode the frame holds, if it is an `N`, or the scan's answer
///   from the sums it holds;
/// * else, on the frame's first visit or when nothing is kept, the
///   scan's answer from the bytes alone, setting the visit bit;
/// * else, on a later visit, the scan's answer from the sums it builds,
///   left in the frame;
/// * else `decode(bytes)`, left in the frame when `keep`.
fn frame_node<N, Sc, F>(
    (slot, visited): Held<'_>,
    bytes: &[u8],
    keep: bool,
    decode: F,
    scan: &Sc,
) -> Result<(Visit<N, Sc::Answer>, Served)>
where
    N: Any + Send + Sync,
    Sc: Scan,
    F: FnOnce(&[u8]) -> Result<N>,
{
    if let Some(held) = slot {
        if held.is::<N>() {
            let node = Arc::clone(held).downcast::<N>().expect("an N");
            return Ok((Visit::Node(node), Served::Kept));
        }
        let sums = held.downcast_ref::<Sc::Sums>();
        if let Some(answer) = sums.and_then(|sums| scan.answer(bytes, Some(sums))) {
            return Ok((Visit::Scanned(answer), Served::Kept));
        }
    }
    if keep && *visited {
        if let Some(sums) = scan.sums(bytes) {
            if let Some(answer) = scan.answer(bytes, Some(&sums)) {
                *slot = Some(Arc::new(sums));
                return Ok((Visit::Scanned(answer), Served::Built));
            }
        }
    } else if let Some(answer) = scan.answer(bytes, None) {
        *visited = true;
        return Ok((Visit::Scanned(answer), Served::Scanned));
    }
    let node = Arc::new(decode(bytes)?);
    if keep {
        *slot = Some(Arc::clone(&node) as CachedNode);
    }
    Ok((Visit::Node(node), Served::Decoded))
}

#[derive(Debug)]
struct Frame {
    id: PageId,
    /// The page image. The frame owns this buffer and writes it in
    /// place; a commit's capture, the log records, the flip's `base`, a
    /// pinned epoch's retained pre-image and a committed-image leaf
    /// entry share it by refcount instead of copying it. No write runs
    /// inside a commit, so a writer finds it shared only after a failed
    /// apply (the flip's `base` still holds it), while a retained
    /// pre-image does, or while a committed-image entry does (then the
    /// buffer becomes the frame's `base`); it then copies first
    /// ([`Arc::make_mut`]), so every holder keeps the bytes it took.
    data: Arc<[u8]>,
    dirty: bool,
    /// The page's committed image, retained while the frame is dirty
    /// so snapshot readers (and epoch-flip retention) can serve the
    /// pre-transaction bytes without touching disk. Invariants:
    /// `base.is_some()` implies `dirty`; a dirty frame with no base
    /// has never been committed from the buffer — its committed image
    /// (if any) is on disk, where no-steal guarantees it stays until
    /// the next commit applies over it.
    base: Option<Arc<[u8]>>,
    /// What a node read made of `data`'s payload, kept for the next
    /// one: its decode, or — for a leaf a [`Scan`] reads in place — the
    /// scan's sums. Whatever changes `data` or the page the frame holds
    /// — a write, a free, an eviction, the frame's reuse — drops it, and
    /// clears `visited` with it.
    node: Option<CachedNode>,
    /// Set by a node read that answered from `data` alone: the frame's
    /// next read builds the scan's sums. Meaningful only while `node` is
    /// `None`; cleared wherever `node` is dropped, so a frame whose
    /// bytes or page changed is at its first visit again.
    visited: bool,
    prev: usize,
    next: usize,
}

impl Frame {
    /// Empties the frame for the free list.
    fn reset(&mut self) {
        self.id = PageId::NULL;
        self.dirty = false;
        self.base = None;
        self.node = None;
        self.visited = false;
    }
}

/// The pool's LRU list of frames.
#[derive(Debug)]
struct Lru {
    frames: Vec<Frame>,
    map: PageMap,
    /// Most recently used frame index.
    head: usize,
    /// Least recently used frame index.
    tail: usize,
    free: Vec<usize>,
    /// Live node reads served from a frame's decode / that decoded, and
    /// the writes and frees that dropped (or pre-empted) one — counted
    /// under the LRU lock the operation already holds.
    decode_hits: u64,
    decode_misses: u64,
    invalidations: u64,
}

impl Lru {
    fn new() -> Self {
        Self {
            frames: Vec::new(),
            map: PageMap::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            decode_hits: 0,
            decode_misses: 0,
            invalidations: 0,
        }
    }

    /// Unlinks and unmaps frame `idx`, puts it on the free list and
    /// returns the page it held.
    fn release(&mut self, idx: usize) -> PageId {
        let id = self.frames[idx].id;
        self.detach(idx);
        self.map.remove(id);
        self.frames[idx].reset();
        self.free.push(idx);
        id
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
}

/// A fixed-capacity, thread-safe LRU page cache over a [`Pager`].
///
/// All methods take `&self`, and a mutation also the writer's
/// `&mut` [`Writer`]; clone-free sharing is provided by
/// [`SharedStore`](crate::store::SharedStore), which wraps the pool in an
/// [`Arc`](std::sync::Arc).
pub(crate) struct BufferPool {
    pager: RankedMutex<Box<dyn Pager>>,
    page_size: usize,
    /// `page_size - checksum::TRAILER`: the bytes callers may use.
    payload: usize,
    /// Precomputed `checksum::zero_mask(payload)`.
    zero_mask: u64,
    capacity: usize,
    /// The frames and their LRU order (rank [`SHARD`](rank::SHARD)).
    lru: RankedMutex<Lru>,
    /// Whether decodes and leaf sums are kept: a live read's in its
    /// frame and, on a WAL pool, a pinned read's in `committed`.
    keep_nodes: bool,
    /// The writer lock (rank [`WRITER`](rank::WRITER)), below every lock
    /// a mutation or a commit takes: see [`Writer`].
    writer: RankedMutex<Writer>,
    /// The commit barrier (rank [`BARRIER`](rank::BARRIER)): a pinned
    /// read that misses the committed-image cache holds it shared from
    /// its look at the snapshot table to its read of the committed image
    /// ([`with_page_at`](Self::with_page_at),
    /// [`read_node_at`](Self::read_node_at)); the epoch flip holds it
    /// exclusively, so it never falls between the two.
    barrier: RankedRwLock<()>,
    /// The write-ahead-log handle (rank [`WAL_IO`](rank::WAL_IO),
    /// *below* the LRU and the pager). A WAL pool is a pool that has
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
    ///
    /// It has a cache line of its own: a pinned hit loads it twice, and
    /// on a line with the counters a writer bumps (`dirty_frames`, …)
    /// every write stalls those loads — `serve-mixed`'s reader lost
    /// ≈ 13 % of its box-sums that way on a 2-core x86-64 box
    /// (EXPERIMENTS.md, "A writer inside a commit").
    epoch: CacheLine<AtomicU64>,
    /// *Committed* page images, for pinned reads (see
    /// [`read_node_at`](Self::read_node_at)). An entry is the decode of
    /// its page's current committed image — or a leaf's image buffer
    /// and scan sums — and its page has a frame:
    /// it is inserted under the LRU lock with the frame held and leaves
    /// with the frame ([`release`](Self::release)); the epoch flip
    /// drops the entries of its transaction's pages. Entries are kept
    /// only when [`keeps_committed`](Self::keeps_committed); every pool
    /// counts its pinned reads here.
    committed: NodeCache,
    /// Currently dirty frames (WAL pools only). Changed only under the
    /// writer lock.
    dirty_frames: AtomicU64,
    /// High-water mark of `dirty_frames` since the last stats reset.
    dirty_high_water: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    hits: AtomicU64,
    /// Node reads, live or pinned, answered from a leaf page's bytes
    /// alone, and from the sums they built (each also a decode miss).
    leaf_scans: AtomicU64,
    sums_built: AtomicU64,
    wal_appends: AtomicU64,
    wal_syncs: AtomicU64,
    wal_replays: AtomicU64,
    syncs: AtomicU64,
}

/// A value alone on its cache line(s).
#[repr(align(64))]
struct CacheLine<T>(T);

impl<T> std::ops::Deref for CacheLine<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// What the writer lock guards: the page allocator's free list.
///
/// Every mutation takes `&mut Writer`, so nothing in the crate changes a
/// page without the guard ([`BufferPool::writer`]); a commit holds it
/// from its capture through its last phase, so no write or free lands
/// inside a commit. Only the pool constructs one.
#[derive(Debug)]
pub(crate) struct Writer {
    /// Freed ids in LIFO reuse order.
    free_pages: Vec<PageId>,
    /// Same ids as a set, for O(1) double-free detection.
    freed: HashSet<PageId>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages of `pager` — the
    /// paper-faithful global LRU whose eviction order (and therefore I/O
    /// counts) matches a sequential implementation exactly.
    ///
    /// Given `log` — the handle `pager` hands out ([`Pager::wal`]) —
    /// dirty pages are pinned in the buffer (no-steal: an eviction never
    /// writes an uncommitted page in place) until a
    /// [`commit`](Self::commit) streams them through it; the pool
    /// soft-exceeds its capacity when every frame is dirty. Without one,
    /// behavior — including every I/O count — is byte-identical to the
    /// pre-WAL pool. `keep_nodes` keeps decodes: a live read's in the
    /// frame [`read_node`](Self::read_node) serves, and — WAL pools
    /// only — a pinned read's in the committed-image cache, for as long
    /// as the page has a frame. Without it every node read decodes.
    pub(crate) fn new(
        pager: Box<dyn Pager>,
        capacity: usize,
        log: Option<Box<dyn WalFile>>,
        keep_nodes: bool,
    ) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let page_size = pager.page_size();
        assert!(
            page_size > checksum::TRAILER,
            "page size must exceed the checksum trailer"
        );
        let payload = page_size - checksum::TRAILER;
        Self {
            pager: RankedMutex::new(rank::PAGER, "pager", pager),
            page_size,
            payload,
            zero_mask: checksum::zero_mask(payload),
            capacity,
            lru: RankedMutex::new(rank::SHARD, "buffer lru", Lru::new()),
            keep_nodes,
            writer: RankedMutex::new(
                rank::WRITER,
                "writer",
                Writer {
                    free_pages: Vec::new(),
                    freed: HashSet::new(),
                },
            ),
            barrier: RankedRwLock::new(rank::BARRIER, "commit barrier", ()),
            committed: NodeCache::new(),
            log: log.map(|h| RankedMutex::new(rank::WAL_IO, "wal io", h)),
            snapshots: RankedMutex::new(rank::SNAPSHOT, "snapshot table", SnapshotTable::default()),
            epoch: CacheLine(AtomicU64::new(1)),
            dirty_frames: AtomicU64::new(0),
            dirty_high_water: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            leaf_scans: AtomicU64::new(0),
            sums_built: AtomicU64::new(0),
            wal_appends: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_replays: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// Page size of the underlying pager.
    pub(crate) fn page_size(&self) -> usize {
        self.page_size
    }

    /// Usable bytes per page: the page size minus the checksum trailer.
    /// This is the slice length [`with_page`](Self::with_page) closures
    /// see and the limit [`write_page`](Self::write_page) enforces.
    pub(crate) fn payload_size(&self) -> usize {
        self.payload
    }

    /// Takes the writer lock: the `&mut Writer` every mutation needs.
    pub(crate) fn writer(&self) -> RankedGuard<'_, Writer> {
        self.writer.acquire()
    }

    /// Whether the pool runs the WAL commit protocol.
    pub(crate) fn wal(&self) -> bool {
        self.log.is_some()
    }

    /// Whether pinned reads keep their decodes in the committed-image
    /// cache: on WAL pools that keep decodes. Without WAL a write
    /// changes the committed image in place, so there is none to keep.
    fn keeps_committed(&self) -> bool {
        self.keep_nodes && self.wal()
    }

    /// Folds `n` recovery replays into the statistics (called by
    /// [`SharedStore::open`](crate::store::SharedStore::open) after
    /// [`wal::recover`](crate::wal::recover) ran below the pool).
    pub(crate) fn note_wal_replays(&self, n: u64) {
        self.wal_replays.fetch_add(n, Ordering::Relaxed);
    }

    /// Total pages allocated in the underlying pager (index size metric).
    pub(crate) fn allocated_pages(&self) -> u64 {
        self.pager.acquire().num_pages()
    }

    /// Current statistics (a consistent-enough snapshot: each counter is
    /// exact; under concurrent load the three are read independently).
    pub(crate) fn stats(&self) -> IoStats {
        let (mut decode_hits, mut decode_misses, mut decode_invalidations) =
            self.committed.counters();
        {
            let lru = self.lru.acquire();
            decode_hits += lru.decode_hits;
            decode_misses += lru.decode_misses;
            decode_invalidations += lru.invalidations;
        }
        IoStats {
            decode_hits,
            decode_misses,
            decode_invalidations,
            leaf_scans: self.leaf_scans.load(Ordering::Relaxed),
            sums_built: self.sums_built.load(Ordering::Relaxed),
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
    pub(crate) fn reset_stats(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.leaf_scans.store(0, Ordering::Relaxed);
        self.sums_built.store(0, Ordering::Relaxed);
        self.wal_appends.store(0, Ordering::Relaxed);
        self.wal_syncs.store(0, Ordering::Relaxed);
        self.wal_replays.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.committed.reset_counters();
        {
            let mut lru = self.lru.acquire();
            lru.decode_hits = 0;
            lru.decode_misses = 0;
            lru.invalidations = 0;
        }
        // The high-water mark restarts from the *current* obligation,
        // not zero — frames dirty right now are still pinned.
        self.dirty_high_water
            .store(self.dirty_frames.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Allocates a page, reusing a previously freed one when available.
    /// The page is *not* fetched into the buffer; it is expected to be
    /// written next.
    pub(crate) fn allocate(&self, w: &mut Writer) -> Result<PageId> {
        if let Some(id) = w.free_pages.pop() {
            w.freed.remove(&id);
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
    pub(crate) fn free_page(&self, w: &mut Writer, id: PageId) -> Result<()> {
        if id.is_null() {
            return Err(invalid_arg("free of the NULL page"));
        }
        if !w.freed.insert(id) {
            return Err(invalid_arg(format!("double free of page {id:?}")));
        }
        w.free_pages.push(id);
        let was_dirty = {
            let mut lru = self.lru.acquire();
            lru.invalidations += 1;
            lru.map.get(id).is_some_and(|idx| {
                let dirty = lru.frames[idx].dirty;
                self.release(&mut lru, idx);
                dirty
            })
        };
        if self.wal() && was_dirty {
            self.dirty_frames.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Pages allocated in the pager minus freed pages — the live-size
    /// metric used by the index-size experiments (Fig. 9a).
    pub(crate) fn live_pages(&self) -> u64 {
        let freed = self.writer().free_pages.len() as u64;
        self.pager.acquire().num_pages() - freed
    }

    /// Stamps `frame`'s checksum trailer, writes it to the pager and —
    /// only on success — counts the write and clears the dirty bit. On
    /// error the frame is untouched apart from the (idempotent) trailer
    /// stamp, so the write-back can be retried.
    fn write_back(&self, frame: &mut Frame) -> Result<()> {
        checksum::stamp(Arc::make_mut(&mut frame.data), self.zero_mask);
        self.pager.acquire().write_page(frame.id, &frame.data)?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        frame.dirty = false;
        Ok(())
    }

    /// Puts frame `idx` on the free list — the one way a frame leaves
    /// its page (eviction, `free_page`), so also the one place its
    /// page's committed-image entry goes: every entry's page has a
    /// frame. Only a pool that keeps such entries takes a cache lock.
    fn release(&self, lru: &mut Lru, idx: usize) {
        let id = lru.release(idx);
        if self.keeps_committed() {
            self.committed.remove(id);
        }
    }

    /// Evicts the least-recently-used frame, writing it back first if dirty. On a
    /// write-back error the victim frame is left fully intact (still
    /// linked, still mapped, still dirty), so the pool stays consistent
    /// and the operation can be retried.
    fn evict_one(&self, lru: &mut Lru) -> Result<()> {
        let victim = lru.tail;
        debug_assert_ne!(victim, NIL);
        if lru.frames[victim].dirty {
            self.write_back(&mut lru.frames[victim])?;
        }
        self.release(lru, victim);
        Ok(())
    }

    /// Evicts the least-recently-used *clean* frame, if any —
    /// the WAL pool's no-steal eviction: uncommitted dirty pages must
    /// never reach the data file outside a commit, so dirty frames are
    /// pinned and eviction considers clean victims only.
    ///
    /// A pinned hit does not touch the LRU; it marks its committed-image
    /// entry instead, and here a marked clean frame is spared once:
    /// moved to the front, its mark cleared
    /// ([`NodeCache::second_chance`]). When every clean frame is marked,
    /// the least recently used of them goes after all.
    fn evict_clean(&self, lru: &mut Lru) -> bool {
        let keeps = self.keeps_committed();
        let mut spared = NIL;
        let mut idx = lru.tail;
        // Each frame once: a spared frame moves to the front, where
        // the walk would meet it again.
        for _ in 0..lru.map.len() {
            let prev = lru.frames[idx].prev;
            if !lru.frames[idx].dirty {
                if !(keeps && self.committed.second_chance(lru.frames[idx].id)) {
                    self.release(lru, idx);
                    return true;
                }
                lru.touch(idx);
                if spared == NIL {
                    spared = idx;
                }
            }
            idx = prev;
        }
        if spared == NIL {
            return false;
        }
        self.release(lru, spared);
        true
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

    /// Returns the frame index for `id` in `lru`, fetching
    /// (`fetch = true`) or zero-filling (`fetch = false`, for whole-page
    /// overwrites) on a miss. Either way the directory grows
    /// only for a page the pager has: a fetch is verified first, and a
    /// write past the directory's end is checked against the pager's
    /// page count.
    fn frame_for(&self, lru: &mut Lru, id: PageId, fetch: bool) -> Result<usize> {
        if let Some(idx) = lru.map.get(id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            lru.touch(idx);
            return Ok(idx);
        }
        if !fetch && !lru.map.covers(id) && !self.allocated(id) {
            return Err(invalid_arg(format!(
                "write of page {id:?}, which was never allocated"
            )));
        }
        if self.wal() {
            // No-steal: evict clean frames (also shrinking back after a
            // commit cleaned an over-capacity pool); when every frame
            // is dirty, soft-exceed capacity rather than leak an
            // uncommitted image in place.
            while lru.map.len() >= self.capacity {
                if !self.evict_clean(lru) {
                    break;
                }
            }
        } else if lru.map.len() >= self.capacity {
            self.evict_one(lru)?;
        }
        let idx = match lru.free.pop() {
            Some(i) => i,
            None => {
                lru.frames.push(Frame {
                    id: PageId::NULL,
                    // One zeroed allocation: `Arc::from(vec![..])`
                    // would allocate and copy twice.
                    data: std::iter::repeat_n(0, self.page_size).collect(),
                    dirty: false,
                    base: None,
                    node: None,
                    visited: false,
                    prev: NIL,
                    next: NIL,
                });
                lru.frames.len() - 1
            }
        };
        if fetch {
            if let Err(e) = self.read_verified(id, Arc::make_mut(&mut lru.frames[idx].data)) {
                // A page that failed to read or verify never enters
                // the buffer — the unused frame stays on the free list
                // — and its fetch is not counted: only verified reads
                // are I/Os the caller can use.
                lru.free.push(idx);
                return Err(e);
            }
            self.reads.fetch_add(1, Ordering::Relaxed);
        } else {
            Arc::make_mut(&mut lru.frames[idx].data).fill(0);
        }
        let f = &mut lru.frames[idx];
        f.reset();
        f.id = id;
        lru.map.insert(id, idx);
        lru.push_front(idx);
        Ok(idx)
    }

    // -- public page access ---------------------------------------------

    /// Runs `f` over the payload of page `id` (fetching it on a miss).
    /// The slice is [`payload_size`](Self::payload_size) bytes long — the
    /// checksum trailer is never exposed.
    ///
    /// `f` runs while the LRU is locked: it must not access the
    /// pool (directly or through a [`SharedStore`](crate::store::SharedStore)
    /// handle), or it will deadlock.
    pub(crate) fn with_page<T>(&self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        let mut lru = self.lru.acquire();
        let idx = self.frame_for(&mut lru, id, true)?;
        Ok(f(&lru.frames[idx].data[..self.payload]))
    }

    /// Counts a node read answered from a leaf page's bytes: alone, or
    /// with the sums it built.
    fn count_leaf_read(&self, served: Served) {
        let counter = match served {
            Served::Scanned => &self.leaf_scans,
            Served::Built => &self.sums_built,
            Served::Kept | Served::Decoded => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads page `id` as a decoded node of type `N`, or answers from
    /// its bytes: the live read every index traversal makes. One LRU
    /// lock and one directory probe serve it — the page access
    /// [`with_page`](Self::with_page) would make, counted the same way
    /// (a hit, or a miss that fetches and verifies) — and then the
    /// frame's own decode, when it holds one of type `N`. Otherwise
    /// `scan` may answer from the payload, and the page is not decoded:
    /// on the frame's first visit since it last changed, or on every
    /// visit when the pool keeps nothing (`node_cache_pages == 0`), from
    /// the bytes alone; on its second, from the [`Scan::Sums`] it builds
    /// and the frame keeps; and from those sums on every later visit.
    /// When it declines, `decode` runs over the payload and, unless the
    /// pool keeps nothing, the frame keeps the result for the next read.
    /// What a frame keeps, and its visit, live exactly as long as its
    /// bytes: [`write_page`](Self::write_page),
    /// [`free_page`](Self::free_page), eviction and the frame's reuse
    /// drop them, so nothing kept can outlive the bytes. The paper's LRU
    /// is thus the only LRU a live read goes through, and the §6 counts
    /// are the same whatever is kept.
    ///
    /// Counts one decode hit (an answer from what the frame keeps) or
    /// one decode miss per call, and a first-visit scan also as a leaf
    /// scan. `decode` and `scan` run under the LRU lock and must not
    /// re-enter the pool.
    pub(crate) fn visit_node<N, Sc, F>(
        &self,
        id: PageId,
        decode: F,
        scan: &Sc,
    ) -> Result<Visit<N, Sc::Answer>>
    where
        N: Any + Send + Sync,
        Sc: Scan,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        let mut lru = self.lru.acquire();
        let idx = self.frame_for(&mut lru, id, true)?;
        let frame = &mut lru.frames[idx];
        let got = frame_node(
            (&mut frame.node, &mut frame.visited),
            &frame.data[..self.payload],
            self.keep_nodes,
            decode,
            scan,
        );
        match got {
            Ok((_, Served::Kept)) => lru.decode_hits += 1,
            Ok((_, served)) => {
                lru.decode_misses += 1;
                self.count_leaf_read(served);
            }
            Err(_) => lru.decode_misses += 1,
        }
        got.map(|(visit, _)| visit)
    }

    /// Overwrites page `id`'s payload with `bytes` (shorter payloads are
    /// zero-padded). No read I/O is incurred on a miss: pages are always
    /// written whole. Payloads longer than
    /// [`payload_size`](Self::payload_size) are rejected as
    /// [`RecordTooLarge`](boxagg_common::error::Error::RecordTooLarge).
    pub(crate) fn write_page(&self, _: &mut Writer, id: PageId, bytes: &[u8]) -> Result<()> {
        if bytes.len() > self.payload {
            return Err(Error::RecordTooLarge {
                record: bytes.len(),
                page: self.payload,
            });
        }
        let mut lru = self.lru.acquire();
        // Peek residency *before* installing a frame, which makes
        // every page resident.
        let resident = lru.map.get(id);
        let newly_dirty = resident.is_none_or(|idx| !lru.frames[idx].dirty);
        let wal = self.wal();
        let idx = self.frame_for(&mut lru, id, false)?;
        lru.invalidations += 1;
        let f = &mut lru.frames[idx];
        f.node = None;
        f.visited = false;
        if wal && newly_dirty {
            // A resident clean frame holds the committed image: it
            // becomes the base for snapshot readers. A buffer the frame
            // owns alone is copied into the base and written in place
            // (handing it over would move the page into the writing
            // thread's allocations); one a committed-image entry shares
            // is handed over as it is, and the write below copies it
            // once. A miss means the committed image (if any) is on
            // disk.
            f.base = resident.map(|_| {
                if Arc::strong_count(&f.data) > 1 {
                    Arc::clone(&f.data)
                } else {
                    Arc::from(&f.data[..])
                }
            });
        }
        let data = Arc::make_mut(&mut f.data);
        data[..bytes.len()].copy_from_slice(bytes);
        data[bytes.len()..].fill(0);
        f.dirty = true;
        if wal && newly_dirty {
            let dirty = self.dirty_frames.fetch_add(1, Ordering::Relaxed) + 1;
            self.dirty_high_water.fetch_max(dirty, Ordering::Relaxed);
        }
        Ok(())
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
    pub(crate) fn flush_all(&self, w: &mut Writer) -> Result<()> {
        if self.wal() {
            return self.commit(w);
        }
        self.flush_all_inner()
    }

    fn flush_all_inner(&self) -> Result<()> {
        let mut first_err: Option<Error> = None;
        {
            let mut lru = self.lru.acquire();
            for f in lru.frames.iter_mut() {
                if f.dirty && !f.id.is_null() {
                    if let Err(e) = self.write_back(f) {
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
    pub(crate) fn resident(&self) -> usize {
        self.lru.acquire().map.len()
    }

    /// Checks the pool's structural invariants — intended for tests and
    /// the fault-sweep harness after injected failures. Verifies that
    /// the LRU list is a well-formed doubly linked list over exactly the
    /// mapped frames, every frame is either mapped or on the free list
    /// (none leaked), free frames are truly reset, and occupancy
    /// respects capacity. Also checks the committed-image node cache
    /// ([`NodeCache::validate`]): every entry's page has a frame, and a
    /// pool that keeps no entries holds none; the allocator's free list
    /// against its double-free set; and — on a WAL pool — the
    /// dirty-frame counter and the snapshot table's invariants.
    ///
    /// It takes the writer lock, so it waits out a write or a commit in
    /// flight: the dirty count, the free list and the epoch hold still.
    pub(crate) fn validate(&self) -> Result<()> {
        let w = self.writer();
        if self.wal() {
            self.snapshots
                .acquire()
                .validate(self.epoch.load(Ordering::Relaxed))?;
        }
        let mut dirty_seen = 0u64;
        {
            let lru = self.lru.acquire();
            let fail = |msg: &str| Err(corrupt(format!("buffer lru: {msg}")));
            let mut linked = 0usize;
            let mut prev = NIL;
            let mut idx = lru.head;
            while idx != NIL {
                let f = &lru.frames[idx];
                if f.prev != prev {
                    return fail("LRU back-link mismatch");
                }
                if f.id.is_null() {
                    return fail("linked frame holds no page");
                }
                if lru.map.get(f.id) != Some(idx) {
                    return fail("linked frame not mapped to itself");
                }
                if f.base.is_some() && !f.dirty {
                    return fail("clean frame retains a committed base");
                }
                if f.dirty {
                    dirty_seen += 1;
                }
                linked += 1;
                if linked > lru.frames.len() {
                    return fail("LRU list cycles");
                }
                prev = idx;
                idx = f.next;
            }
            if lru.tail != prev {
                return fail("tail does not end the LRU list");
            }
            if linked != lru.map.len() {
                return fail("mapped frames missing from the LRU list");
            }
            // A WAL pool pins dirty frames (no-steal) and may therefore
            // legitimately exceed capacity until the next commit + miss
            // shrinks it back; the bound only holds strictly without WAL.
            if !self.wal() && lru.map.len() > self.capacity {
                return fail("occupancy exceeds capacity");
            }
            let mut free_set = HashSet::new();
            for &i in &lru.free {
                if !free_set.insert(i) {
                    return fail("frame on the free list twice");
                }
                let f = &lru.frames[i];
                if !f.id.is_null() || f.dirty || f.base.is_some() || f.node.is_some() || f.visited {
                    return fail("free frame not reset");
                }
            }
            if linked + lru.free.len() != lru.frames.len() {
                return fail("frame leaked (neither mapped nor free)");
            }
            let keeps = self.keeps_committed();
            self.committed
                .validate(|id| keeps && lru.map.get(id).is_some())?;
        }
        if self.wal() && dirty_seen != self.dirty_frames.load(Ordering::Relaxed) {
            return Err(corrupt(format!(
                "dirty-frame counter {} disagrees with {} dirty frames",
                self.dirty_frames.load(Ordering::Relaxed),
                dirty_seen
            )));
        }
        if w.free_pages.len() != w.freed.len()
            || w.free_pages.iter().any(|id| !w.freed.contains(id))
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

    /// A pool whose mutations each take the writer lock for the one
    /// call, as `SharedStore`'s do; everything else is the pool's own.
    pub(super) struct TestPool(BufferPool);

    impl std::ops::Deref for TestPool {
        type Target = BufferPool;
        fn deref(&self) -> &BufferPool {
            &self.0
        }
    }

    impl TestPool {
        pub(super) fn allocate(&self) -> Result<PageId> {
            self.0.allocate(&mut self.writer())
        }

        pub(super) fn write_page(&self, id: PageId, bytes: &[u8]) -> Result<()> {
            self.0.write_page(&mut self.writer(), id, bytes)
        }

        pub(super) fn free_page(&self, id: PageId) -> Result<()> {
            self.0.free_page(&mut self.writer(), id)
        }

        pub(super) fn commit(&self) -> Result<()> {
            self.0.commit(&mut self.writer())
        }

        pub(super) fn flush_all(&self) -> Result<()> {
            self.0.flush_all(&mut self.writer())
        }

        /// Currently dirty (uncommitted, memory-pinned) frames; always
        /// zero on non-WAL pools.
        pub(super) fn dirty_pages(&self) -> u64 {
            self.0.dirty_frames.load(Ordering::Relaxed)
        }
    }

    fn pool(cap: usize) -> TestPool {
        TestPool(BufferPool::new(
            Box::new(MemPager::new(128)),
            cap,
            None,
            false,
        ))
    }

    /// A toy leaf scan: a page whose first byte is below 100 is a leaf
    /// whose answer, and whose sums, are that byte; any other page is
    /// declined, so it decodes.
    pub(super) struct FirstByte;

    impl Scan for FirstByte {
        type Answer = u8;
        type Sums = u8;

        fn sums(&self, bytes: &[u8]) -> Option<u8> {
            (bytes[0] < 100).then_some(bytes[0])
        }

        fn answer(&self, bytes: &[u8], sums: Option<&u8>) -> Option<u8> {
            sums.copied().or_else(|| self.sums(bytes))
        }
    }

    pub(super) fn page_with(pool: &TestPool, byte: u8) -> PageId {
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
        assert_eq!(p.capacity, 2);
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
    fn failed_eviction_write_back_leaves_pool_consistent() {
        // Regression: a failed dirty write-back used to leave the victim
        // frame detached from the LRU list but still mapped, so the next
        // hit on that page touched a detached frame and corrupted the
        // list. The victim must stay fully intact on the error path.
        use crate::fault::{FaultPager, FaultSpec, OpFilter};
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = TestPool(BufferPool::new(Box::new(pager), 2, None, false));
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
        let p = pool(6);
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

        // 8 dirty pages; fail the 3rd flush write.
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
        let p = TestPool(BufferPool::new(Box::new(pager), 16, None, false));
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
        let p = TestPool(BufferPool::new(Box::new(pager), 4, None, false));
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
        let p = TestPool(BufferPool::new(Box::new(pager), 4, None, false));
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

    pub(super) fn wal_pool(cap: usize) -> (TestPool, crate::fault::FaultHandle) {
        let (mut pager, faults) = crate::fault::FaultPager::new(Box::new(MemPager::new(128)));
        let log = pager.wal().unwrap();
        let p = TestPool(BufferPool::new(Box::new(pager), cap, Some(log), true));
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

        // Post-commit frames are clean: the next miss shrinks the pool
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

    /// Writers of several threads that race to dirty fresh pages are all
    /// admitted: the dirty count and its high-water mark, both kept under
    /// the writer lock, count every page exactly once, and a reset
    /// restarts the mark from the pages still dirty.
    #[test]
    fn racing_writers_dirty_every_page_and_count_each_once() {
        const PAGES: u64 = 64;
        let (p, _faults) = wal_pool(8);
        let ids: Vec<PageId> = (0..PAGES).map(|_| p.allocate().unwrap()).collect();
        std::thread::scope(|s| {
            for chunk in ids.chunks(16) {
                let p = &p;
                s.spawn(move || {
                    for &id in chunk {
                        p.write_page(id, &[7; 8]).unwrap();
                    }
                });
            }
        });
        assert_eq!(p.dirty_pages(), PAGES);
        assert_eq!(p.stats().dirty_high_water, PAGES);
        p.validate().unwrap();
        p.reset_stats();
        assert_eq!(p.stats().dirty_high_water, PAGES);
    }

    /// Parks the pool's next log sync until the test opens the gate — a
    /// deterministic window into the middle of a concurrent commit
    /// (past capture, before the flip).
    pub(super) fn park_next_log_sync(faults: &crate::fault::FaultHandle) {
        faults.close_gate();
        faults.arm(crate::fault::FaultSpec::park_at(
            crate::fault::OpFilter::WalSyncs,
            1,
        ));
    }
}
