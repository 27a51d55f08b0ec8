//! [`SharedStore`]: a clonable, thread-safe handle to one buffer pool.
//!
//! A BA-tree owns thousands of *border* trees (one per index record,
//! recursively); an ECDF-B-tree likewise nests lower-dimensional trees
//! inside its borders; and a simple box-sum engine maintains `2^d` corner
//! indexes. All of them must share one pager and one LRU buffer so that
//! index size and I/O counts are accounted the way the paper measures them
//! — for the whole structure. `SharedStore` is that shared handle: an
//! `Arc` over one internally synchronized buffer pool, so concurrent
//! readers can run on separate threads against one pool. The pool is
//! the paper's single global LRU: same eviction order, same I/O counts
//! as a sequential implementation.

use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use boxagg_common::error::{corrupt, invalid_arg, Error, Result};

use crate::buffer::{BufferPool, Decline, IoStats, Scan, Visit};
use crate::pager::{FilePager, MemPager, PageId, Pager, DEFAULT_PAGE_SIZE, MIN_PAGE_SIZE};
use crate::rank::{self, RankedMutex};
use crate::superblock::{RootEntry, Superblock};
use crate::wal::{self, RecoveryReport, WalFile};

/// Where pages live.
#[derive(Debug, Clone, Default)]
pub enum Backing {
    /// Pages in memory; I/Os are counted but cost nothing physically.
    #[default]
    Memory,
    /// Pages in a real file at the given path.
    File(PathBuf),
}

/// Configuration of a page store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Page size in bytes. Default: 8 KB (§6).
    pub page_size: usize,
    /// Buffer pool capacity in pages. Default: 10 MB / 8 KB = 1280 (§6).
    pub buffer_pages: usize,
    /// Backing storage. Default: memory.
    pub backing: Backing,
    /// Whether node reads keep what they make of a page: `0` keeps
    /// nothing, so every node read runs the codec and every leaf visit
    /// ([`ReadHandle::visit_node`]) scans its bytes alone (the reference
    /// tests compare against); any other value keeps decodes — and for
    /// a leaf a query reads in place, never decoded, only the few
    /// running sums its scan answers from. Live reads
    /// ([`SharedStore::read_node`]) keep them in the page's buffer
    /// frame; a WAL store's pinned reads ([`StoreSnapshot::read_node`])
    /// keep those of the page's committed image beside it (a leaf's with
    /// its shared page buffer). Either lives only as long as the page's
    /// frame, so the buffer
    /// (`buffer_pages`) bounds them and this number sizes nothing: it is
    /// still a count only so that struct literals written when it sized
    /// a cache of its own keep compiling, and it is to become a flag.
    /// Until then [`validate`](Self::validate) refuses a non-zero value
    /// below `buffer_pages`, a cap the store would not keep; set it to
    /// `buffer_pages`. Default: 1280. A live read's byte-level I/O is
    /// the same with decodes kept or not, so they default on.
    pub node_cache_pages: usize,
    /// Crash-consistent commits through the write-ahead log (default:
    /// off). When on, dirty pages are pinned in the pool (no-steal)
    /// until [`SharedStore::commit`] streams them to the sidecar log,
    /// syncs it, applies them in place and truncates the log — so a
    /// crash at any moment recovers to the last committed state. When
    /// off, [`SharedStore::flush`] writes back eagerly with no
    /// atomicity boundary, byte-identical to the pre-WAL pool.
    pub wal: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            page_size: DEFAULT_PAGE_SIZE,
            buffer_pages: 10 * 1024 * 1024 / DEFAULT_PAGE_SIZE,
            backing: Backing::Memory,
            node_cache_pages: 10 * 1024 * 1024 / DEFAULT_PAGE_SIZE,
            wal: false,
        }
    }
}

impl StoreConfig {
    /// A small configuration handy in tests: tiny pages force deep trees
    /// and frequent splits, tiny buffers force evictions.
    pub fn small(page_size: usize, buffer_pages: usize) -> Self {
        Self {
            page_size,
            buffer_pages,
            backing: Backing::Memory,
            node_cache_pages: buffer_pages,
            wal: false,
        }
    }

    /// Sets [`StoreConfig::node_cache_pages`]: `0` keeps no decodes;
    /// any other value, which must be at least `buffer_pages`, keeps
    /// them for as long as their pages are buffered.
    pub fn with_node_cache(mut self, pages: usize) -> Self {
        self.node_cache_pages = pages;
        self
    }

    /// Enables or disables crash-consistent WAL commits (see
    /// [`StoreConfig::wal`]).
    pub fn with_wal(mut self, on: bool) -> Self {
        self.wal = on;
        self
    }

    /// Refuses, as a typed [`Error::InvalidArgument`], a configuration
    /// no store can be opened with: pages under [`MIN_PAGE_SIZE`] bytes,
    /// a buffer pool of no pages, or a non-zero `node_cache_pages` below
    /// `buffer_pages` (see [`node_cache_pages`](Self::node_cache_pages)).
    /// Every [`SharedStore`] opener checks this before it creates or
    /// truncates a file.
    pub fn validate(&self) -> Result<()> {
        if self.page_size < MIN_PAGE_SIZE {
            return Err(invalid_arg(format!(
                "page size {} is below the minimum of {MIN_PAGE_SIZE} bytes",
                self.page_size
            )));
        }
        if self.buffer_pages == 0 {
            return Err(invalid_arg(
                "the buffer pool needs at least one page (buffer_pages is 0)",
            ));
        }
        if self.node_cache_pages != 0 && self.node_cache_pages < self.buffer_pages {
            return Err(invalid_arg(format!(
                "node_cache_pages {} is below buffer_pages {}: decodes are kept for every \
                 buffered page, so it caps nothing (0 keeps none)",
                self.node_cache_pages, self.buffer_pages
            )));
        }
        Ok(())
    }
}

/// Cheaply clonable, thread-safe handle to a shared buffer pool — the
/// only way into one.
#[derive(Clone, Debug)]
pub struct SharedStore {
    pool: Arc<BufferPool>,
    /// In-memory image of the page-0 superblock; `None` for the raw
    /// paper store (memory backing without WAL), which has no page 0.
    superblock: Option<Arc<RankedMutex<Superblock>>>,
    /// What recovery replayed when this store was opened.
    recovery: RecoveryReport,
    /// Mutating methods refuse with [`Error::ReadOnly`] — see
    /// [`Self::open_readonly`].
    readonly: bool,
}

impl SharedStore {
    /// Opens a store per `config`: builds the pager
    /// [`StoreConfig::backing`] names, then
    /// [`open_with_pager`](Self::open_with_pager), which decides the
    /// store's kind.
    ///
    /// File-backed stores are *durable*: a missing file is created and
    /// formatted with a page-0 [`Superblock`]; an existing file is
    /// opened (its recorded geometry is authoritative — see
    /// [`FilePager::open`]), any committed write-ahead-log transactions
    /// left by a crash are replayed, and the superblock's catalog of
    /// named roots is loaded so indexes can be reopened by name with no
    /// out-of-band state. Memory-backed stores get the same treatment
    /// when [`StoreConfig::wal`] is on; the plain memory default is the
    /// paper's store, with no log and no page 0.
    pub fn open(config: &StoreConfig) -> Result<Self> {
        config.validate()?;
        let pager: Box<dyn Pager> = match &config.backing {
            Backing::Memory => Box::new(MemPager::new(config.page_size)),
            Backing::File(path) if path.exists() => {
                Box::new(FilePager::open(path, config.page_size)?)
            }
            Backing::File(path) => Box::new(FilePager::create(path, config.page_size)?),
        };
        Self::open_with_pager(pager, config)
    }

    /// Opens an existing file-backed store strictly read-only.
    ///
    /// The data file is opened without write permission, the sidecar
    /// write-ahead log is *read* but never created, replayed in place
    /// or truncated, and every mutating method on the returned handle
    /// fails with a typed [`Error::ReadOnly`]. Committed transactions
    /// still sitting in the log are visible through an in-memory
    /// overlay (see [`crate::readonly`]), so the view equals what a
    /// recovering read-write open would observe — without performing
    /// recovery's writes.
    ///
    /// This is the safe way to inspect a store file another process
    /// (e.g. a query server) may have open read-write: the open cannot
    /// race the server's log or clobber its page 0. Only
    /// [`Backing::File`] is meaningful here, and a brand-new or
    /// unformatted file is refused — formatting page 0 is a write.
    pub fn open_readonly(config: &StoreConfig) -> Result<Self> {
        let Backing::File(path) = &config.backing else {
            return Err(invalid_arg(
                "read-only opens need a file backing: a memory store has \
                 no shared file to protect",
            ));
        };
        config.validate()?;
        let pager = crate::readonly::ReadOnlyPager::open(path, config.page_size)?;
        // No log: the pool must never touch the sidecar.
        Self::catalogued(
            Box::new(pager),
            None,
            RecoveryReport::default(),
            config,
            true,
        )
    }

    fn check_writable(&self, op: &'static str) -> Result<()> {
        if self.readonly {
            return Err(Error::ReadOnly { op });
        }
        Ok(())
    }

    /// Opens a store over an explicit pager; `config` alone decides
    /// its kind ([`open`](Self::open) is this plus the pager
    /// [`StoreConfig::backing`] names, and the crash-sweep harness uses
    /// it to interpose a [`FaultPager`](crate::fault::FaultPager)
    /// between the pool and the file).
    ///
    /// - [`Backing::Memory`] without [`StoreConfig::wal`] is the paper's
    ///   store: the pool over `pager` and nothing else — no log handle
    ///   is taken, no recovery runs and there is no page 0, so every
    ///   page I/O is an index page I/O.
    /// - Every other config is *catalogued*: the pager's log handle is
    ///   taken, WAL recovery runs on the raw pager through it, the handle
    ///   goes to the pool when `wal` is on, and the page-0 superblock is
    ///   loaded (or formatted into an empty pager).
    ///
    /// The pager defines the page size; `config.backing` only picks the
    /// kind. A config [`StoreConfig::validate`] refuses is refused here
    /// too, before the pager is touched.
    pub fn open_with_pager(mut pager: Box<dyn Pager>, config: &StoreConfig) -> Result<Self> {
        config.validate()?;
        if matches!(config.backing, Backing::Memory) && !config.wal {
            return Ok(Self::assemble(pager, None, config));
        }
        let mut log = pager.wal()?;
        let report = wal::recover(pager.as_mut(), log.as_mut())?;
        Self::catalogued(pager, config.wal.then_some(log), report, config, false)
    }

    /// The pool (a WAL pool iff `log` is given), with no superblock.
    fn assemble(
        pager: Box<dyn Pager>,
        log: Option<Box<dyn WalFile>>,
        config: &StoreConfig,
    ) -> Self {
        Self {
            pool: Arc::new(BufferPool::new(
                pager,
                config.buffer_pages,
                log,
                config.node_cache_pages > 0,
            )),
            superblock: None,
            recovery: RecoveryReport::default(),
            readonly: false,
        }
    }

    /// A store with a page-0 catalog, loaded from the pager or — unless
    /// `readonly` — formatted into it.
    fn catalogued(
        pager: Box<dyn Pager>,
        log: Option<Box<dyn WalFile>>,
        recovery: RecoveryReport,
        config: &StoreConfig,
        readonly: bool,
    ) -> Result<Self> {
        let mut store = Self::assemble(pager, log, config);
        store.recovery = recovery;
        store.readonly = readonly;
        store.pool.note_wal_replays(recovery.pages_replayed);
        let sb = store.load_or_format_superblock(config)?;
        store.superblock = Some(Arc::new(RankedMutex::new(
            rank::SUPERBLOCK,
            "superblock",
            sb,
        )));
        Ok(store)
    }

    /// Loads the superblock from page 0, formatting an empty or
    /// brand-new writable store in the process.
    fn load_or_format_superblock(&self, config: &StoreConfig) -> Result<Superblock> {
        let pages = self.pool.allocated_pages();
        if pages > 0 {
            let payload = self.pool.with_page(PageId(0), |d| d.to_vec())?;
            if payload.iter().any(|&b| b != 0) {
                let sb = Superblock::decode(&payload)?;
                if sb.page_size as usize != config.page_size {
                    return Err(Error::GeometryMismatch {
                        what: "page_size",
                        stored: sb.page_size as u64,
                        requested: config.page_size as u64,
                    });
                }
                return Ok(sb);
            }
        }
        // An all-zero page 0 is ambiguous: it is what a crash *during*
        // the initial format leaves (page 0 allocated, the superblock
        // image not yet durable — the commit protocol guarantees
        // nothing else was applied first), but a data page holding a
        // zero payload is stamped as all zeros too (the zero-mask
        // checksum). Only the former is safe to format over, and it is
        // recognizable by the file holding nothing *but* that one page;
        // a multi-page file is someone's data — refuse with a typed
        // error instead of silently clobbering page 0.
        if pages > 1 {
            return Err(corrupt(
                "page 0 is not a superblock (all zeros in a multi-page file)",
            ));
        }
        if self.readonly {
            return Err(corrupt(
                "page 0 is not a superblock; read-only opens never format",
            ));
        }
        let mut w = self.pool.writer();
        if pages == 0 {
            // Brand-new store: page 0 is the superblock, formatted
            // durably before anything else is written.
            let id = self.pool.allocate(&mut w)?;
            debug_assert_eq!(id, PageId(0));
        }
        let fresh = Superblock::new(config.page_size as u32);
        self.pool.write_page(&mut w, PageId(0), &fresh.encode())?;
        self.pool.flush_all(&mut w)?;
        Ok(fresh)
    }

    fn superblock_lock(&self) -> Result<&RankedMutex<Superblock>> {
        self.superblock.as_deref().ok_or_else(|| {
            invalid_arg(
                "store has no superblock: memory backing without WAL is the \
                 paper's raw store, with no page 0",
            )
        })
    }

    /// Publishes `entry` under `name` in the superblock catalog.
    ///
    /// The page-0 image is rewritten while the writer and catalog locks
    /// are held, so concurrent updates serialize and none lands inside a
    /// commit; durability follows the store's
    /// normal rules — the update becomes crash-atomic at the next
    /// [`commit`](Self::commit) (WAL stores) or durable at the next
    /// [`flush`](Self::flush), together with the index pages it names.
    pub fn set_root(&self, name: &str, entry: RootEntry) -> Result<()> {
        self.check_writable("set_root")?;
        let lock = self.superblock_lock()?;
        let mut w = self.pool.writer();
        let mut sb = lock.acquire();
        let previous = sb.root(name).cloned();
        sb.set_root(name, entry)?;
        let encoded = sb.encode();
        if encoded.len() > self.payload_size() {
            // Roll back to the entry `name` held before (if any): an
            // oversized catalog must not poison the in-memory image that
            // later writes would re-encode.
            match previous {
                Some(previous) => sb.set_root(name, previous)?,
                None => {
                    sb.remove_root(name);
                }
            }
            return Err(invalid_arg(format!(
                "superblock catalog overflow: {} bytes exceeds the {}-byte \
                 page-0 payload",
                encoded.len(),
                self.payload_size()
            )));
        }
        self.pool.write_page(&mut w, PageId(0), &encoded)
    }

    /// Looks up a named root in the superblock catalog.
    pub fn root(&self, name: &str) -> Result<Option<RootEntry>> {
        Ok(self.superblock_lock()?.acquire().root(name).cloned())
    }

    /// Removes a named root from the catalog (a no-op when absent).
    /// The pages it pointed to are not freed — that is the index's job.
    pub fn remove_root(&self, name: &str) -> Result<()> {
        self.check_writable("remove_root")?;
        let lock = self.superblock_lock()?;
        let mut w = self.pool.writer();
        let mut sb = lock.acquire();
        sb.remove_root(name);
        self.pool.write_page(&mut w, PageId(0), &sb.encode())
    }

    /// All named roots in the catalog, sorted by name.
    pub fn roots(&self) -> Result<Vec<(String, RootEntry)>> {
        Ok(self
            .superblock_lock()?
            .acquire()
            .roots()
            .map(|(n, e)| (n.to_string(), e.clone()))
            .collect())
    }

    /// Whether commits go through the write-ahead log.
    pub fn wal_enabled(&self) -> bool {
        self.pool.wal()
    }

    /// What WAL recovery replayed when this store was opened (all
    /// zeros for a clean open, a raw store or a read-only open).
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery
    }

    /// Commits all dirty pages as one crash-atomic transaction (WAL
    /// stores) or flushes them eagerly (stores without WAL). After a
    /// successful return the committed state survives any crash.
    ///
    /// On a WAL store, commits never block readers: concurrent queries
    /// keep reading (and pinned [`snapshot`](Self::snapshot)s keep
    /// their epoch) while the transaction is logged and synced.
    /// Concurrent `commit` calls run one after another, each as its own
    /// WAL transaction over what is dirty when its turn comes. A commit
    /// holds the store's writer lock throughout, so a write, free or
    /// catalog update called meanwhile waits for it to return and
    /// belongs to the next commit.
    pub fn commit(&self) -> Result<()> {
        self.check_writable("commit")?;
        self.pool.commit(&mut self.pool.writer())
    }

    /// The store's current commit epoch — advances once per non-empty
    /// committed transaction.
    pub fn commit_epoch(&self) -> u64 {
        self.pool.commit_epoch()
    }

    /// Pins the current commit epoch and returns an immutable view of
    /// the store as of that epoch. The snapshot observes exactly the
    /// state the last commit left — never any uncommitted write, never
    /// a half-applied transaction — no matter how many commits run
    /// while it is alive. Dropping the snapshot releases the pin (and
    /// the superseded page images retained for it).
    ///
    /// Decoded nodes are shared *across* snapshots: every pin reads
    /// through the store's cache of committed images (see
    /// [`StoreSnapshot::read_node`]), so a snapshot taken per request
    /// costs a warm read path, not a cold one.
    ///
    /// Only WAL stores have commit epochs; a store without WAL (no
    /// atomicity boundary) returns an error.
    pub fn snapshot(&self) -> Result<StoreSnapshot> {
        if !self.wal_enabled() {
            return Err(invalid_arg(
                "snapshots need the WAL commit protocol: only committed \
                 epochs are immutable, and a store without WAL has none",
            ));
        }
        let epoch = self.pool.pin_snapshot();
        Ok(StoreSnapshot {
            store: self.clone(),
            epoch,
            node_accesses: AtomicU64::new(0),
            node_decodes: AtomicU64::new(0),
        })
    }

    /// Page size in bytes (including the checksum trailer) — the unit of
    /// I/O and of the Fig. 9a size metric.
    pub fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Usable bytes per page: [`page_size`](Self::page_size) minus the
    /// checksum trailer. Index structures size their nodes from this.
    pub fn payload_size(&self) -> usize {
        self.pool.payload_size()
    }

    /// Allocates a fresh page.
    pub fn allocate(&self) -> Result<PageId> {
        self.check_writable("allocate")?;
        self.pool.allocate(&mut self.pool.writer())
    }

    /// Runs `f` over the contents of page `id`.
    ///
    /// `f` runs while the pool's LRU is locked: it must not access
    /// the store again (directly or through a clone of this handle).
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        self.pool.with_page(id, f)
    }

    /// Reads page `id` as a decoded node of type `N`: one buffer-pool
    /// access, served from the decode the page's frame holds when it
    /// has one.
    ///
    /// Byte-level accounting is identical whether decodes are kept or
    /// not (`node_cache_pages`): every call is exactly the page access
    /// a [`with_page`] would make, so buffer LRU order, hit/read
    /// counters and eviction I/O are what an undecoded read produces.
    /// The win is purely the skipped decode. Staleness is impossible by
    /// construction: the decode lives in the frame beside its bytes, and
    /// [`write_page`](Self::write_page), [`free`](Self::free), eviction
    /// and the frame's reuse drop it under the same LRU lock that
    /// changes them.
    ///
    /// `decode` runs while the pool's LRU is locked (exactly like
    /// a [`with_page`] closure): it must not access the store again.
    ///
    /// [`with_page`]: Self::with_page
    pub fn read_node<N, F>(&self, id: PageId, decode: F) -> Result<Arc<N>>
    where
        N: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        self.pool
            .visit_node(id, decode, &Decline)
            .map(Visit::into_node)
    }

    /// Overwrites page `id` (short payloads zero-padded).
    pub fn write_page(&self, id: PageId, bytes: &[u8]) -> Result<()> {
        self.check_writable("write_page")?;
        self.pool.write_page(&mut self.pool.writer(), id, bytes)
    }

    /// Flushes all dirty pages.
    pub fn flush(&self) -> Result<()> {
        self.check_writable("flush")?;
        self.pool.flush_all(&mut self.pool.writer())
    }

    /// Current I/O statistics, decode counters included.
    pub fn stats(&self) -> IoStats {
        self.pool.stats()
    }

    /// Resets the I/O statistics (byte and decode counters).
    pub fn reset_stats(&self) {
        self.pool.reset_stats();
    }

    /// Pages ever allocated in the pager (high-water mark).
    pub fn allocated_pages(&self) -> u64 {
        self.pool.allocated_pages()
    }

    /// Frees a page for reuse. The caller guarantees nothing references
    /// it. Errors on a double free.
    pub fn free(&self, id: PageId) -> Result<()> {
        self.check_writable("free")?;
        self.pool.free_page(&mut self.pool.writer(), id)
    }

    /// Live (allocated minus freed) pages — the index size metric of
    /// Fig. 9a (`size = live_pages × page_size`).
    pub fn live_pages(&self) -> u64 {
        self.pool.live_pages()
    }

    /// Live index size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.live_pages() * self.page_size() as u64
    }

    /// Checks the structural invariants of the buffer pool: a
    /// well-formed LRU over exactly the mapped frames, no leaked or
    /// unreset frame, occupancy within capacity (non-WAL pools; a WAL
    /// pool may soft-exceed it with dirty frames), the allocator's free
    /// list, the committed-image node cache and, on a WAL pool, the
    /// dirty-frame counter and the snapshot table. It waits out a write
    /// or commit in flight (it takes the writer lock); reads go on. The
    /// fault-sweep harness calls this after every injected failure.
    pub fn validate(&self) -> Result<()> {
        self.pool.validate()
    }
}

/// An immutable view of a [`SharedStore`] pinned to one commit epoch
/// (see [`SharedStore::snapshot`]). Reads through it are repeatable —
/// every page shows the bytes the pinned commit left, with writers and
/// committers running concurrently — and never block on a commit's log
/// or data fsync. The pin is released on drop.
pub struct StoreSnapshot {
    store: SharedStore,
    epoch: u64,
    /// Decoded-node reads served through this snapshot.
    node_accesses: AtomicU64,
    /// The subset of those reads that ran the codec.
    node_decodes: AtomicU64,
}

impl std::fmt::Debug for StoreSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreSnapshot")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl StoreSnapshot {
    /// The pinned commit epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying store (live, not pinned — reads through it see
    /// current bytes).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Runs `f` over the contents of page `id` as of the pinned epoch.
    ///
    /// Like [`SharedStore::with_page`], `f` runs under pool locks and
    /// must not access the store (or this snapshot) again.
    pub fn with_page<T>(&self, id: PageId, f: impl FnOnce(&[u8]) -> T) -> Result<T> {
        self.store.pool.with_page_at(id, self.epoch, f)
    }

    /// Reads page `id` as a decoded node of type `N`, as of the pinned
    /// epoch, through the store's decoded-node cache of **committed**
    /// images — not the frames' decodes [`SharedStore::read_node`]
    /// uses, because between commits a written page has two images
    /// (a clean frame's decode is taken over on a miss). The cache is
    /// shared by every snapshot of the store: a page's committed image
    /// changes only in a commit's epoch flip, which drops that page's
    /// entry, so a node decoded through one pin serves every later pin
    /// until a commit rewrites the page or the buffer evicts it — an
    /// entry leaves with its page's frame, so the buffer's one LRU
    /// decides what stays decoded. A page superseded after *this* pin's
    /// epoch is decoded from its retained image on every read and never
    /// cached.
    ///
    /// Unlike the live path, a cache hit performs no byte-pool access.
    /// `decode` runs under pool locks and must not access the store.
    pub fn read_node<N, F>(&self, id: PageId, decode: F) -> Result<Arc<N>>
    where
        N: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        self.visit_node(id, decode, &Decline).map(Visit::into_node)
    }

    /// [`read_node`](Self::read_node) with the visit rule of
    /// [`ReadHandle::visit_node`]: a clean frame's bytes are the
    /// committed image, so a pinned read of a page its frame keeps no
    /// decode of follows that frame's visits. A superseded image is
    /// scanned alone, and a dirty frame's committed image (its base, or
    /// the disk's copy) builds its sums on its first pinned read.
    fn visit_node<N, Sc, F>(&self, id: PageId, decode: F, scan: &Sc) -> Result<Visit<N, Sc::Answer>>
    where
        N: Any + Send + Sync,
        Sc: Scan,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        self.node_accesses.fetch_add(1, Ordering::Relaxed);
        let (got, decoded) = self.store.pool.read_node_at(id, self.epoch, decode, scan)?;
        if decoded {
            self.node_decodes.fetch_add(1, Ordering::Relaxed);
        }
        Ok(got)
    }

    /// Decoded-node read counters for this snapshot, as
    /// `(accesses, decodes)`: `accesses` counts every node read through
    /// it (catalog lookups included), `decodes` the subset that
    /// actually ran the codec — not those served from a kept decode or
    /// answered from a page's bytes.
    pub fn node_reads(&self) -> (u64, u64) {
        (
            self.node_accesses.load(Ordering::Relaxed),
            self.node_decodes.load(Ordering::Relaxed),
        )
    }

    /// Looks up a named root in the superblock catalog *as of the
    /// pinned epoch* — the root a query must traverse to see exactly
    /// the pinned commit's tree. `Ok(None)` for a name not in the
    /// catalog at that epoch. The catalog is a decoded node like any
    /// other: it decodes once per commit that rewrites page 0, not once
    /// per call.
    pub fn root(&self, name: &str) -> Result<Option<RootEntry>> {
        let catalog = self.read_node(PageId(0), Superblock::decode)?;
        Ok(catalog.root(name).cloned())
    }

    /// I/O statistics of the underlying store (snapshot reads count
    /// like any other page access).
    pub fn stats(&self) -> IoStats {
        self.store.stats()
    }
}

impl Drop for StoreSnapshot {
    fn drop(&mut self) {
        self.store.pool.unpin_snapshot(self.epoch);
    }
}

/// Where an index reads its pages from, fixed once when it is opened:
/// the live store, or a pinned [`StoreSnapshot`] shared by every tree
/// opened at that epoch. This is the one place that tells the two
/// apart — trees and engines hold a `ReadHandle` and never ask which.
#[derive(Clone, Debug)]
pub enum ReadHandle {
    /// Current bytes, decoded through the buffer frames; writable.
    Live(SharedStore),
    /// Page images as of the pinned epoch through the committed-image
    /// cache; read-only.
    Pinned(Arc<StoreSnapshot>),
}

impl ReadHandle {
    /// [`SharedStore::read_node`] or [`StoreSnapshot::read_node`].
    pub fn read_node<N, F>(&self, id: PageId, decode: F) -> Result<Arc<N>>
    where
        N: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        match self {
            ReadHandle::Live(store) => store.read_node(id, decode),
            ReadHandle::Pinned(snap) => snap.read_node(id, decode),
        }
    }

    /// A node read that may answer from the page's bytes instead of
    /// decoding them. A page `scan` reads (a fixed-width leaf) is never
    /// decoded here: its first visit since its buffer frame last changed
    /// — or any visit when the store keeps nothing
    /// (`node_cache_pages == 0`) — answers from the verified payload
    /// alone, and the frame records the visit and keeps nothing (a
    /// decode miss and a [leaf scan](IoStats::leaf_scans)); its second
    /// builds the page's [`Scan::Sums`], which the frame keeps in place
    /// of a decode, and answers from bytes and sums (a decode miss, and
    /// [`sums_built`](IoStats::sums_built)); every later visit answers
    /// from them (a decode hit). A page the scan declines (an index
    /// page, values of no fixed width) is [`read_node`](Self::read_node),
    /// and a decode of type `N` the frame already keeps is returned as a
    /// node. A pinned read keeps a leaf's sums with the committed image's
    /// own buffer in the committed-image cache, where every pin of the
    /// epoch shares them. The page access and its counts are a node
    /// read's in every case.
    ///
    /// `scan` must answer what `decode` followed by the caller's use of
    /// the node would, or decline with `None`. Like `decode`, it runs
    /// under pool locks and must not access the store.
    pub fn visit_node<N, Sc, F>(
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
        match self {
            ReadHandle::Live(store) => store.pool.visit_node(id, decode, scan),
            ReadHandle::Pinned(snap) => snap.visit_node(id, decode, scan),
        }
    }

    /// Looks up a named root in the catalog this handle sees.
    pub fn root(&self, name: &str) -> Result<Option<RootEntry>> {
        match self {
            ReadHandle::Live(store) => store.root(name),
            ReadHandle::Pinned(snap) => snap.root(name),
        }
    }

    /// The underlying store (geometry, statistics). Reads through it
    /// see current bytes, whatever this handle is pinned to.
    pub fn store(&self) -> &SharedStore {
        match self {
            ReadHandle::Live(store) => store,
            ReadHandle::Pinned(snap) => snap.store(),
        }
    }

    /// The store to mutate, or [`Error::ReadOnly`] when the handle is
    /// pinned: an index opened at an epoch describes that commit's
    /// pages, and writing through it would edit the live store from a
    /// stale root.
    pub fn writable(&self) -> Result<&SharedStore> {
        match self {
            ReadHandle::Live(store) => Ok(store),
            ReadHandle::Pinned(_) => Err(Error::ReadOnly {
                op: "a write through an index opened at a pinned epoch",
            }),
        }
    }
}

impl From<SharedStore> for ReadHandle {
    fn from(store: SharedStore) -> Self {
        ReadHandle::Live(store)
    }
}

impl From<&SharedStore> for ReadHandle {
    fn from(store: &SharedStore) -> Self {
        ReadHandle::Live(store.clone())
    }
}

impl From<StoreSnapshot> for ReadHandle {
    fn from(snap: StoreSnapshot) -> Self {
        ReadHandle::Pinned(Arc::new(snap))
    }
}

impl From<&Arc<StoreSnapshot>> for ReadHandle {
    fn from(snap: &Arc<StoreSnapshot>) -> Self {
        ReadHandle::Pinned(Arc::clone(snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::tempdir as tempfile;

    #[test]
    fn default_config_matches_paper() {
        let c = StoreConfig::default();
        assert_eq!(c.page_size, 8192);
        assert_eq!(c.buffer_pages, 1280); // 10 MB buffer
    }

    #[test]
    fn shared_handles_see_one_pool() {
        let s1 = SharedStore::open(&StoreConfig::small(128, 4)).unwrap();
        let s2 = s1.clone();
        let id = s1.allocate().unwrap();
        s1.write_page(id, &[42; 8]).unwrap();
        let v = s2.with_page(id, |d| d[0]).unwrap();
        assert_eq!(v, 42);
        assert_eq!(s1.allocated_pages(), 1);
        assert_eq!(s2.allocated_pages(), 1);
        assert_eq!(s1.stats(), s2.stats());
        assert_eq!(s1.size_bytes(), 128);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SharedStore>();
    }

    #[test]
    fn file_backed_store_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let cfg = StoreConfig {
            page_size: 256,
            buffer_pages: 2,
            backing: Backing::File(dir.path().join("store.db")),
            node_cache_pages: 2,
            wal: false,
        };
        let s = SharedStore::open(&cfg).unwrap();
        let ids: Vec<_> = (0..10u8)
            .map(|i| {
                let id = s.allocate().unwrap();
                s.write_page(id, &[i; 32]).unwrap();
                id
            })
            .collect();
        s.flush().unwrap();
        // Page 0 is the catalog: data pages start at 1.
        assert_eq!(ids[0], PageId(1));
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.with_page(id, |d| d[0]).unwrap(), i as u8);
        }

        // Reopen the file with a fresh pool and confirm persistence.
        drop(s);
        let s = SharedStore::open(&cfg).unwrap();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(s.with_page(id, |d| d[0]).unwrap(), i as u8);
        }
    }

    fn file_cfg(path: std::path::PathBuf) -> StoreConfig {
        StoreConfig {
            page_size: 256,
            buffer_pages: 4,
            backing: Backing::File(path),
            node_cache_pages: 4,
            wal: false,
        }
    }

    #[test]
    fn crash_during_initial_format_is_adopted_on_reopen() {
        // What a crash between "allocate page 0" and "superblock image
        // durable" leaves behind: a file holding exactly one all-zero
        // page. Reopening must format it as a fresh store.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("store.db");
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        let s = SharedStore::open(&file_cfg(path.clone())).unwrap();
        let id = s.allocate().unwrap();
        s.write_page(id, &[9; 8]).unwrap();
        s.flush().unwrap();
        drop(s);
        let s = SharedStore::open(&file_cfg(path)).unwrap();
        assert_eq!(s.with_page(id, |d| d[0]).unwrap(), 9);
    }

    #[test]
    fn zero_page0_in_multi_page_file_is_corrupt_not_clobbered() {
        // Regression: a catalog-less file whose page 0 holds a zero
        // payload (the zero-mask checksum stamps it as all zeros) used
        // to be treated as "never formatted" and silently overwritten
        // with a fresh superblock. A multi-page file cannot be the
        // crash-during-format case, so it must be refused,
        // byte-for-byte untouched.
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("raw.db");
        let mut raw = vec![0u8; 512];
        raw[300] = 7; // second page holds data
        std::fs::write(&path, &raw).unwrap();
        let err = SharedStore::open(&file_cfg(path.clone())).unwrap_err();
        assert!(
            err.to_string().contains("not a superblock"),
            "expected typed corrupt error, got: {err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), raw, "file left untouched");
    }

    #[test]
    fn catalogless_file_is_refused_not_clobbered() {
        // What a store written without a catalog looks like: data from
        // page 0 on. Its page 0 is stamped with the current `sum64`
        // trailer, with an FNV-1a trailer (format v1) or with none (the
        // pages are all payload). Every shape is refused with a typed
        // error by both opens, and the data file stays byte-for-byte
        // what it was.
        use crate::checksum;
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("raw.db");
        let split = 256 - checksum::TRAILER;
        let zero_mask = checksum::zero_mask(split);
        let mut data = vec![0u8; 512];
        data[256..256 + 32].fill(9);
        checksum::stamp(&mut data[256..], zero_mask);
        for trailer in ["sum64", "fnv1a", "none"] {
            let page0 = &mut data[..256];
            page0.fill(0);
            page0[..32].fill(7);
            match trailer {
                "sum64" => checksum::stamp(page0, zero_mask),
                "fnv1a" => {
                    let sum = checksum::fnv1a_64(&page0[..split]);
                    page0[split..].copy_from_slice(&sum.to_le_bytes());
                }
                _ => page0.fill(7),
            }
            std::fs::write(&path, &data).unwrap();
            for readonly in [false, true] {
                let cfg = file_cfg(path.clone());
                let err = if readonly {
                    SharedStore::open_readonly(&cfg)
                } else {
                    SharedStore::open(&cfg)
                }
                .unwrap_err();
                assert!(
                    matches!(err, Error::Corrupt(_) | Error::Corruption { .. }),
                    "{trailer} trailer, readonly {readonly}: {err}"
                );
                assert_eq!(
                    std::fs::read(&path).unwrap(),
                    data,
                    "{trailer} trailer, readonly {readonly}: data file untouched"
                );
            }
        }
    }

    #[test]
    fn refused_catalog_update_keeps_the_previous_entry() {
        let s = SharedStore::open(&StoreConfig::small(256, 8).with_wal(true)).unwrap();
        let mut names = Vec::new();
        for i in 0.. {
            let name = format!("r{i}");
            if s.set_root(&name, entry_at(PageId(1), i)).is_err() {
                break;
            }
            names.push(name);
        }
        assert!(names.len() > 1, "the catalog holds a few 1-d entries");
        assert_eq!(s.root(&format!("r{}", names.len())).unwrap(), None);

        // Replacing a 1-d entry with an 8-d one outgrows page 0: the
        // update is refused and the old entry stays.
        let wide = RootEntry {
            dims: 8,
            bounds: vec![(0.0, 1.0); 8],
            ..entry_at(PageId(2), 99)
        };
        let err = s.set_root(&names[0], wide).unwrap_err();
        assert!(err.to_string().contains("overflow"), "got: {err}");
        assert_eq!(s.root(&names[0]).unwrap(), Some(entry_at(PageId(1), 0)));
        s.commit().unwrap();
        assert_eq!(s.roots().unwrap().len(), names.len());
        s.validate().unwrap();
    }

    #[test]
    fn reset_stats_only_clears_counters() {
        let s = SharedStore::open(&StoreConfig::small(128, 2)).unwrap();
        let id = s.allocate().unwrap();
        s.write_page(id, &[1]).unwrap();
        s.flush().unwrap();
        assert!(s.stats().total() > 0);
        s.reset_stats();
        assert_eq!(s.stats().total(), 0);
        assert_eq!(s.with_page(id, |d| d[0]).unwrap(), 1);
    }

    #[test]
    fn snapshots_require_the_wal_protocol() {
        let s = SharedStore::open(&StoreConfig::small(128, 4)).unwrap();
        let err = s.snapshot().unwrap_err();
        assert!(err.to_string().contains("snapshots"), "got: {err}");
    }

    fn entry_at(root: PageId, len: u64) -> RootEntry {
        RootEntry {
            root,
            len,
            dims: 1,
            max_value_size: 8,
            kind: crate::superblock::RootKind::BaTree,
            bounds: vec![(0.0, 1.0)],
        }
    }

    #[test]
    fn snapshot_pins_roots_and_pages_across_commits() {
        let s = SharedStore::open(&StoreConfig::small(256, 8).with_wal(true)).unwrap();
        let a = s.allocate().unwrap();
        s.write_page(a, &[1; 8]).unwrap();
        s.set_root("tree", entry_at(a, 1)).unwrap();
        s.commit().unwrap();

        let snap = s.snapshot().unwrap();
        assert_eq!(snap.epoch(), s.commit_epoch());

        // Move the root to a new page and commit: the snapshot keeps
        // both the old catalog entry and the old page image.
        let b = s.allocate().unwrap();
        s.write_page(b, &[2; 8]).unwrap();
        s.write_page(a, &[9; 8]).unwrap();
        s.set_root("tree", entry_at(b, 2)).unwrap();
        s.commit().unwrap();

        let live = s.root("tree").unwrap().expect("live root");
        assert_eq!(live.root, b);
        let pinned = snap.root("tree").unwrap().expect("pinned root");
        assert_eq!(pinned.root, a);
        assert_eq!(snap.with_page(a, |d| d[0]).unwrap(), 1);
        assert_eq!(s.with_page(a, |d| d[0]).unwrap(), 9);

        // A snapshot taken now sees the new state; decoded reads on
        // the old snapshot come from its retained image.
        let snap2 = s.snapshot().unwrap();
        assert_eq!(snap2.root("tree").unwrap().expect("root").root, b);
        let n = snap.read_node(a, |d| Ok(d[0])).unwrap();
        assert_eq!(*n, 1);
        drop(snap);
        drop(snap2);
        s.validate().unwrap();
    }

    /// A toy leaf scan: a page whose first byte is 0 is a leaf, whose
    /// answer is the sum of its next three bytes and whose sums are that
    /// answer; any other page is declined, so it decodes.
    struct ToyLeaf;

    impl Scan for ToyLeaf {
        type Answer = u32;
        type Sums = u32;

        fn sums(&self, bytes: &[u8]) -> Option<u32> {
            (bytes[0] == 0).then(|| bytes[1..4].iter().map(|&b| u32::from(b)).sum())
        }

        fn answer(&self, bytes: &[u8], sums: Option<&u32>) -> Option<u32> {
            match sums {
                Some(&sum) => Some(sum),
                None => self.sums(bytes),
            }
        }
    }

    /// A node read of `id` through `pages` offering [`ToyLeaf`]: the
    /// leaf's answer, or the page's first byte decoded as its node.
    fn toy_visit(pages: &ReadHandle, id: PageId) -> u32 {
        match pages.visit_node(id, |d| Ok(d[0]), &ToyLeaf).unwrap() {
            Visit::Scanned(sum) => sum,
            Visit::Node(node) => 1000 + u32::from(*node),
        }
    }

    #[test]
    fn pinned_reads_share_one_kept_sums_entry_across_snapshots() {
        let s = SharedStore::open(&StoreConfig::small(256, 8).with_wal(true)).unwrap();
        let (leaf, index) = (s.allocate().unwrap(), s.allocate().unwrap());
        s.write_page(leaf, &[0, 1, 2, 3]).unwrap();
        s.write_page(index, &[7; 8]).unwrap();
        s.commit().unwrap();
        s.reset_stats();
        let counts = |since: &IoStats| {
            let d = s.stats().since(since);
            (d.leaf_scans, d.sums_built, d.decode_hits, d.decode_misses)
        };

        // The first pin: the leaf scans, builds its sums and then
        // answers from them; the index page decodes once and hits.
        let first: ReadHandle = s.snapshot().unwrap().into();
        let ReadHandle::Pinned(first_snap) = &first else {
            unreachable!()
        };
        for (visit, want) in [(1, (1, 0, 0, 1)), (2, (0, 1, 0, 1)), (3, (0, 0, 1, 0))] {
            let before = s.stats();
            assert_eq!(toy_visit(&first, leaf), 6);
            assert_eq!(counts(&before), want, "leaf visit {visit}");
        }
        for _ in 0..3 {
            assert_eq!(toy_visit(&first, index), 1007);
        }
        assert_eq!(first_snap.node_reads(), (6, 1), "one codec run: the index");

        // A second pin of the same epoch — what a server takes per
        // request — shares the leaf's one entry and the index's decode:
        // hits only, nothing built, nothing decoded.
        let second: ReadHandle = s.snapshot().unwrap().into();
        let before = s.stats();
        assert_eq!(toy_visit(&second, leaf), 6);
        assert_eq!(toy_visit(&second, index), 1007);
        assert_eq!(counts(&before), (0, 0, 2, 0));
        drop(first);
        let third: ReadHandle = s.snapshot().unwrap().into();
        assert_eq!(toy_visit(&third, leaf), 6);
        assert_eq!(counts(&before), (0, 0, 3, 0), "entries outlive the pin");

        // The pin's sums stayed in the clean frame, where a live read
        // answers from them: a hit.
        let live: ReadHandle = s.clone().into();
        assert_eq!(toy_visit(&live, leaf), 6);
        assert_eq!(counts(&before), (0, 0, 4, 0));

        // A plain node read of the leaf is a miss that leaves the
        // entry for the scans that use it and decodes; the decode then
        // takes the entry's place, and scans are served the node.
        let ReadHandle::Pinned(third_snap) = &third else {
            unreachable!()
        };
        assert_eq!(*third_snap.read_node(leaf, |d| Ok(d[0])).unwrap(), 0);
        assert_eq!(third_snap.node_reads(), (2, 1));
        assert_eq!(toy_visit(&third, leaf), 1000, "the decode is kept");
        drop((second, third));
        s.validate().unwrap();
    }

    #[test]
    fn pinned_reads_keep_their_epoch_across_commits() {
        let s = SharedStore::open(&StoreConfig::small(256, 8).with_wal(true)).unwrap();
        let a = s.allocate().unwrap();
        s.write_page(a, &[1; 8]).unwrap();
        s.commit().unwrap();
        let old = s.snapshot().unwrap();
        assert_eq!(*old.read_node(a, |d| Ok(d[0])).unwrap(), 1);

        // An uncommitted overwrite changes the live image only: the
        // committed one is still cached and still current.
        s.write_page(a, &[9; 8]).unwrap();
        assert_eq!(*old.read_node(a, |d| Ok(d[0])).unwrap(), 1);
        assert_eq!(*s.read_node(a, |d| Ok(d[0])).unwrap(), 9);
        assert_eq!(old.node_reads(), (2, 1));

        // The commit's flip drops the entry. The old pin now reads the
        // retained image, decoding every time and caching nothing; a
        // new pin takes the live read's decode, which the commit made
        // the decode of the new committed image, and decodes nothing.
        s.commit().unwrap();
        assert_eq!(*old.read_node(a, |d| Ok(d[0])).unwrap(), 1);
        assert_eq!(*old.read_node(a, |d| Ok(d[0])).unwrap(), 1);
        assert_eq!(old.node_reads(), (4, 3));
        let new = s.snapshot().unwrap();
        assert_eq!(*new.read_node(a, |d| Ok(d[0])).unwrap(), 9);
        assert_eq!(*new.read_node(a, |d| Ok(d[0])).unwrap(), 9);
        assert_eq!(new.node_reads(), (2, 0));
        assert_eq!(*old.read_node(a, |d| Ok(d[0])).unwrap(), 1);
        drop((old, new));
        s.validate().unwrap();
    }

    #[test]
    fn readonly_open_reads_but_refuses_every_mutation() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("store.db");
        let mut cfg = file_cfg(path.clone());
        cfg.wal = true;
        let s = SharedStore::open(&cfg).unwrap();
        let a = s.allocate().unwrap();
        s.write_page(a, &[7; 8]).unwrap();
        s.set_root("tree", entry_at(a, 1)).unwrap();
        s.commit().unwrap();
        drop(s);

        let before_pages = std::fs::read(&path).unwrap();
        let ro = SharedStore::open_readonly(&cfg).unwrap();
        assert_eq!(ro.root("tree").unwrap().expect("catalog entry").root, a);
        assert_eq!(ro.with_page(a, |d| d[0]).unwrap(), 7);
        assert_eq!(ro.read_node(a, |d| Ok(d[0])).map(|n| *n).unwrap(), 7);
        for (want, got) in [
            ("write_page", ro.write_page(a, &[0; 8]).unwrap_err()),
            ("allocate", ro.allocate().map(|_| ()).unwrap_err()),
            ("free", ro.free(a).unwrap_err()),
            ("set_root", ro.set_root("x", entry_at(a, 1)).unwrap_err()),
            ("remove_root", ro.remove_root("tree").unwrap_err()),
            ("commit", ro.commit().unwrap_err()),
            ("flush", ro.flush().unwrap_err()),
        ] {
            assert!(
                matches!(got, Error::ReadOnly { op } if op == want),
                "{want}: {got}"
            );
        }
        drop(ro);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before_pages,
            "read-only open left the file byte-identical"
        );
    }

    #[test]
    fn readonly_open_refuses_memory_and_unformatted_stores() {
        let err = SharedStore::open_readonly(&StoreConfig::small(128, 4)).unwrap_err();
        assert!(err.to_string().contains("file backing"), "got: {err}");

        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("zero.db");
        std::fs::write(&path, vec![0u8; 256]).unwrap();
        let err = SharedStore::open_readonly(&file_cfg(path.clone())).unwrap_err();
        assert!(err.to_string().contains("never format"), "got: {err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            vec![0u8; 256],
            "refused open did not format page 0"
        );
    }

    #[test]
    fn bad_configs_are_typed_errors_before_any_file_is_touched() {
        let dir = tempfile::tempdir().unwrap();
        let kept = dir.path().join("kept.db");
        {
            let s = SharedStore::open(&file_cfg(kept.clone()).with_wal(true)).unwrap();
            let id = s.allocate().unwrap();
            s.write_page(id, &[7; 32]).unwrap();
            s.commit().unwrap();
        }
        let files = |path: &std::path::Path| {
            let wal = crate::pager::wal_path(path);
            (std::fs::read(path).ok(), std::fs::read(wal).ok())
        };
        let before = files(&kept);
        let fresh = dir.path().join("fresh.db");
        for (page_size, buffer_pages, what) in [
            (0, 4, "page size 0 "),
            (32, 4, "page size 32 "),
            (63, 4, "page size 63 "),
            (256, 0, "buffer_pages is 0"),
        ] {
            for path in [&kept, &fresh] {
                let file = StoreConfig {
                    page_size,
                    buffer_pages,
                    ..file_cfg(path.clone())
                };
                let memory = StoreConfig::small(page_size, buffer_pages);
                for (opener, got) in [
                    ("open", SharedStore::open(&file)),
                    (
                        "open with WAL",
                        SharedStore::open(&file.clone().with_wal(true)),
                    ),
                    ("open_readonly", SharedStore::open_readonly(&file)),
                    ("open in memory", SharedStore::open(&memory)),
                ] {
                    match got {
                        Err(Error::InvalidArgument(msg)) => {
                            assert!(msg.contains(what), "{opener}: {msg}")
                        }
                        other => panic!("{opener} {what}: {other:?}"),
                    }
                }
            }
            assert_eq!(files(&kept), before, "{what}: the store was touched");
            assert_eq!(files(&fresh), (None, None), "{what}: a file was created");
        }
        let pager = Box::new(MemPager::new(256));
        match SharedStore::open_with_pager(pager, &StoreConfig::small(256, 0)) {
            Err(Error::InvalidArgument(msg)) => assert!(msg.contains("buffer_pages"), "{msg}"),
            other => panic!("open_with_pager: {other:?}"),
        }
        SharedStore::open(&file_cfg(kept)).unwrap();
    }

    #[test]
    fn a_node_cache_below_the_buffer_is_refused() {
        let cfg = StoreConfig::small(256, 8);
        for pages in [1, 7] {
            match SharedStore::open(&cfg.clone().with_node_cache(pages)) {
                Err(Error::InvalidArgument(msg)) => assert!(msg.contains("caps nothing"), "{msg}"),
                other => panic!("{pages}: {other:?}"),
            }
        }
        for pages in [0, 8, 1 << 20] {
            SharedStore::open(&cfg.clone().with_node_cache(pages)).unwrap();
        }
    }

    #[test]
    fn concurrent_handles_share_accounting() {
        let s = SharedStore::open(&StoreConfig::small(128, 8)).unwrap();
        let ids: Vec<PageId> = (0..16u8)
            .map(|i| {
                let id = s.allocate().unwrap();
                s.write_page(id, &[i; 16]).unwrap();
                id
            })
            .collect();
        s.flush().unwrap();
        s.reset_stats();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                let ids = &ids;
                scope.spawn(move || {
                    for (i, &id) in ids.iter().enumerate() {
                        let _ = t;
                        assert_eq!(s.with_page(id, |d| d[0]).unwrap(), i as u8);
                    }
                });
            }
        });
        let st = s.stats();
        // Every one of the 4 × 16 read accesses is a hit or a read.
        assert_eq!(st.reads + st.hits, 64);
    }
}
