//! Commit epochs as readers see them: the snapshot table, pins, and
//! reads of pages and decoded nodes as of a pinned epoch.
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
//! Pinned node reads ([`BufferPool::read_node_at`]) go through a
//! [`NodeCache`](crate::nodecache::NodeCache) of committed images: an
//! entry is the decode of its page's current committed image — or, for
//! a leaf a [`Scan`] reads in place, a [`KeptImage`]: that image's own
//! buffer and its sums, so no leaf is decoded for a pinned query — and a
//! clean frame's decode or sums are the entry's, so the two share them.
//! An entry lives only while its page has a frame: a miss inserts
//! it under the LRU lock with the frame held, and the frame's eviction,
//! free or reuse drops it, so the buffer's LRU is the cache's only
//! eviction policy. A hit, which takes no LRU lock, marks its entry,
//! and the eviction spares a marked frame once, so a page pinned
//! readers keep hitting stays resident. The committed image changes
//! only in the flip, which publishes the new epoch and then drops the
//! entry of every transaction page before it releases the barrier. A hit takes no
//! pool-wide lock: it reads the epoch (an atomic), looks the page up
//! under one cache-shard lock and reads the epoch again, and keeps the
//! node only if both reads are the reader's pinned epoch — the shard
//! lock orders any later flip's invalidation, and any insert made after
//! it, before that second read. Every other pinned read holds the
//! barrier shared from lookup to insert, and reads a page superseded
//! after its epoch from the retained image without caching it — a leaf
//! by a scan of its bytes, another page by a decode.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use boxagg_common::error::{corrupt, Result};

use crate::nodecache::CachedNode;
use crate::pager::PageId;

use super::{frame_node, BufferPool, Held, Scan, Served, Visit};

/// One retained committed page image, superseded when epoch
/// `superseded_at` was created: it is the image readers pinned at any
/// epoch `< superseded_at` must see.
#[derive(Debug)]
pub(super) struct PageVersion {
    pub(super) superseded_at: u64,
    pub(super) data: Arc<[u8]>,
}

/// Commit-epoch bookkeeping behind the pool's snapshot lock.
#[derive(Debug, Default)]
pub(super) struct SnapshotTable {
    /// Pinned epoch → pin count. Readers pin before traversing and
    /// unpin when done; retention at the flip consults this map.
    pub(super) pins: BTreeMap<u64, usize>,
    /// Superseded images per page, each list ascending in
    /// `superseded_at`. Only populated while older epochs stay pinned;
    /// garbage-collected as pins drain.
    pub(super) versions: HashMap<PageId, Vec<PageVersion>>,
}

impl SnapshotTable {
    /// Checks the table against the current commit `epoch`: no retained
    /// version without a pin, and every page's versions non-empty,
    /// ascending and none superseded after `epoch`.
    pub(super) fn validate(&self, epoch: u64) -> Result<()> {
        if epoch == 0 {
            return Err(corrupt("snapshot table: epoch zero".to_string()));
        }
        if self.pins.is_empty() && !self.versions.is_empty() {
            return Err(corrupt(
                "snapshot table: retained versions with no pins".to_string(),
            ));
        }
        for (id, vs) in self.versions.iter() {
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
        Ok(())
    }
}

impl BufferPool {
    // -- commit epochs and snapshot reads --------------------------------

    /// The current commit epoch (1 before the first non-empty commit;
    /// each non-empty commit creates the next).
    pub(crate) fn commit_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current commit epoch and returns it. Until the matching
    /// [`unpin_snapshot`](Self::unpin_snapshot), reads through
    /// [`with_page_at`](Self::with_page_at) at the returned epoch keep
    /// observing exactly the state this commit epoch froze — commits
    /// proceed concurrently, retaining the superseded images. Pins
    /// nest; each pin must be unpinned exactly once.
    pub(crate) fn pin_snapshot(&self) -> u64 {
        let mut snaps = self.snapshots.acquire();
        // Exact: only a flip stores the epoch, under this lock.
        let epoch = self.epoch.load(Ordering::Relaxed);
        *snaps.pins.entry(epoch).or_insert(0) += 1;
        epoch
    }

    /// Releases one pin on `epoch` and garbage-collects any retained
    /// page images no remaining pin can reach. Unpinning an epoch that
    /// was never pinned is a no-op.
    pub(crate) fn unpin_snapshot(&self, epoch: u64) {
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
    /// read holds the shared side of the commit barrier (excluding only
    /// the epoch flip) and serves, in order: a retained
    /// superseded image, a dirty frame's committed base, a clean
    /// frame's bytes, or the on-disk image. Uncommitted bytes are never
    /// observable through this method.
    ///
    /// Like [`with_page`](Self::with_page), `f` runs under pool locks
    /// and must not re-enter the pool.
    pub(crate) fn with_page_at<T>(
        &self,
        id: PageId,
        epoch: u64,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T> {
        let _reader = self.barrier.acquire_shared();
        match self.superseded_image(id, epoch) {
            Some(image) => Ok(f(&image[..self.payload])),
            None => self.with_committed_page(id, |bytes, _| f(bytes)),
        }
    }

    /// Reads page `id` *as of* commit `epoch` as a decoded node of type
    /// `N`, or answers from its bytes as [`Scan`] allows, through the
    /// committed-image node cache. Returns what the read got and whether
    /// it ran `decode`. A hit performs no byte-pool access, and each call
    /// counts exactly one cache hit or miss. An entry is a node, or — for
    /// a page `scan` reads in place, a leaf — a [`KeptImage`]: the
    /// committed image's own buffer, shared and not copied, and the sums
    /// the scan answers from, so no leaf is decoded for a pinned query.
    ///
    /// A miss on a page whose clean frame holds a live read's decode of
    /// type `N`, or its scan sums, takes them instead of running
    /// `decode` or building sums, and whatever it makes of a clean
    /// frame's bytes is left in the frame by the frame's visit rule
    /// ([`visit_node`](Self::visit_node)): those bytes *are* the current
    /// committed image, so a clean page has one decode, or one set of
    /// sums, shared by live and pinned reads. A miss caches what it got
    /// (when the pool [keeps committed decodes](Self::keeps_committed))
    /// inside [`with_committed_page`](Self::with_committed_page), under
    /// the LRU lock with the page's frame held — except a leaf's
    /// first-visit scan of a clean frame, which keeps nothing — and the
    /// entry goes when that frame does: a page the buffer evicted is a
    /// miss that fetches it again. A hit marks its entry, which spares
    /// the page's frame once at eviction, as an LRU touch would keep it.
    ///
    /// **The hit path takes no pool-wide lock.** It loads the epoch,
    /// looks `id` up under its cache-shard lock, and loads the epoch
    /// again under that lock; the entry is kept only if both loads are
    /// `epoch`. It clones the entry's one `Arc`, and a leaf's answer
    /// runs after the lock is released. Why a kept entry is of the bytes
    /// [`with_page_at`](Self::with_page_at) would show:
    ///
    /// * *Not older than `epoch`.* Every flip up to `epoch` invalidated
    ///   its pages while holding the snapshot lock, which the pin of
    ///   `epoch` took afterwards; an insert is of the image committed
    ///   while its reader held the barrier shared, so no insert can
    ///   bring a superseded image back.
    /// * *Not newer.* A later flip stores `epoch + 1` before it
    ///   invalidates, and any insert of a newer image is made after
    ///   that flip released the barrier. Either is a shard-lock critical
    ///   section that ends after the store; a lookup that observed it
    ///   took the same lock afterwards, so the second load — sequenced
    ///   after that lookup — reads `epoch + 1` or later, and the entry is
    ///   discarded.
    ///
    /// A discarded or absent hit counts nothing and falls back to the
    /// barrier path, which counts the read: the shared barrier is held
    /// from the lookup to the insert, so no flip can fall in between. A
    /// page superseded after `epoch` is answered from its retained image
    /// — scanned when `scan` reads it, decoded otherwise — and not
    /// cached: the cache describes current committed images only.
    ///
    /// `decode` and `scan` run under pool locks and must not re-enter
    /// the pool.
    pub(crate) fn read_node_at<N, Sc, F>(
        &self,
        id: PageId,
        epoch: u64,
        decode: F,
        scan: &Sc,
    ) -> Result<(Visit<N, Sc::Answer>, bool)>
    where
        N: Any + Send + Sync,
        Sc: Scan,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        if self.epoch.load(Ordering::Acquire) == epoch {
            if let Some(entry) = self.committed_hit(id, epoch) {
                return self.serve_entry(entry, decode, scan);
            }
        }
        let _reader = self.barrier.acquire_shared();
        if let Some(image) = self.superseded_image(id, epoch) {
            self.committed.count_miss(id);
            let bytes = &image[..self.payload];
            if let Some(answer) = scan.answer(bytes, None) {
                self.count_leaf_read(Served::Scanned);
                return Ok((Visit::Scanned(answer), false));
            }
            return Ok((Visit::Node(Arc::new(decode(bytes)?)), true));
        }
        if let Some(entry) = self.committed.lookup(id, resolve::<N, Sc::Sums>) {
            return self.serve_entry(entry, decode, scan);
        }
        let keep = self.keeps_committed();
        self.with_committed_page(id, |image, held| {
            // A committed image no clean frame holds (a dirty frame's
            // base, the disk's copy) has no visit bit to follow: its
            // first read builds the sums, or decodes, for the cache.
            let (mut own, mut built) = (None, true);
            let (slot, visited) = held.unwrap_or((&mut own, &mut built));
            let bytes = &image[..self.payload];
            let (got, served) =
                frame_node((&mut *slot, visited), bytes, self.keep_nodes, decode, scan)?;
            if keep {
                match &got {
                    Visit::Node(node) => {
                        self.committed.insert(id, Arc::clone(node) as CachedNode);
                    }
                    Visit::Scanned(_) => {
                        let sums = slot
                            .clone()
                            .and_then(|kept| kept.downcast::<Sc::Sums>().ok());
                        if let Some(sums) = sums {
                            let bytes = Arc::clone(image);
                            self.committed
                                .insert(id, Arc::new(KeptImage { bytes, sums }) as CachedNode);
                        }
                    }
                }
            }
            self.count_leaf_read(served);
            Ok((got, served == Served::Decoded))
        })?
    }

    /// A pinned read served from a committed-image entry: its node, or
    /// the scan's answer from its image and sums (a decode of the image
    /// should the scan decline).
    fn serve_entry<N, Sc, F>(
        &self,
        entry: Entry<N, Sc::Sums>,
        decode: F,
        scan: &Sc,
    ) -> Result<(Visit<N, Sc::Answer>, bool)>
    where
        Sc: Scan,
        F: FnOnce(&[u8]) -> Result<N>,
    {
        match entry {
            Entry::Node(node) => Ok((Visit::Node(node), false)),
            Entry::Image(image) => {
                let bytes = &image.bytes[..self.payload];
                match scan.answer(bytes, Some(&image.sums)) {
                    Some(answer) => Ok((Visit::Scanned(answer), false)),
                    None => Ok((Visit::Node(Arc::new(decode(bytes)?)), true)),
                }
            }
        }
    }

    /// The second half of [`read_node_at`](Self::read_node_at)'s hit
    /// path, for a reader whose first epoch load read `epoch`: the
    /// cached entry of `id`, kept only if the epoch — loaded again under
    /// the shard lock that found it — is still `epoch`.
    fn committed_hit<N: Any + Send + Sync, S: Any + Send + Sync>(
        &self,
        id: PageId,
        epoch: u64,
    ) -> Option<Entry<N, S>> {
        self.committed.try_hit(
            id,
            || self.epoch.load(Ordering::Acquire) == epoch,
            resolve::<N, S>,
        )
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
    /// image is a clean frame's bytes, the frame's decode slot and visit
    /// bit. The image is handed over as its buffer — the clean frame's
    /// own, a dirty frame's base, or one read off disk — so an entry
    /// `f` caches may share it. `f` runs under the LRU lock with `id`'s
    /// frame resident in every branch, so an entry `f` puts in the
    /// committed-image cache has its frame. The caller holds the barrier
    /// shared, so no flip can interleave.
    fn with_committed_page<T>(
        &self,
        id: PageId,
        f: impl FnOnce(&Arc<[u8]>, Option<Held<'_>>) -> T,
    ) -> Result<T> {
        let mut lru = self.lru.acquire();
        if let Some(idx) = lru.map.get(id) {
            if lru.frames[idx].dirty {
                if let Some(base) = &lru.frames[idx].base {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(f(base, None));
                }
                // Dirty with no base: the committed image lives on
                // disk (no-steal). Read it without disturbing the
                // uncommitted frame.
                let mut buf: Arc<[u8]> = std::iter::repeat_n(0, self.page_size).collect();
                self.read_verified(id, Arc::get_mut(&mut buf).expect("a fresh buffer"))?;
                self.reads.fetch_add(1, Ordering::Relaxed);
                return Ok(f(&buf, None));
            }
        }
        let idx = self.frame_for(&mut lru, id, true)?;
        let frame = &mut lru.frames[idx];
        Ok(f(&frame.data, Some((&mut frame.node, &mut frame.visited))))
    }
}

/// A leaf's committed image as the committed-image cache keeps it, in
/// one `Arc`: the image's buffer — a clean frame's own, shared and not
/// copied, or a dirty frame's base — and the [`Scan::Sums`] pinned
/// reads answer from.
struct KeptImage<S> {
    bytes: Arc<[u8]>,
    sums: Arc<S>,
}

/// What a committed-image entry holds for a pinned read of `N` whose
/// scan keeps `S`.
enum Entry<N, S> {
    Node(Arc<N>),
    Image(Arc<KeptImage<S>>),
}

/// The committed-image entry `held` as an [`Entry`], or `None` when it
/// is of another type: one `Arc` clone, under the shard lock.
fn resolve<N: Any + Send + Sync, S: Any + Send + Sync>(held: &CachedNode) -> Option<Entry<N, S>> {
    match Arc::clone(held).downcast::<N>() {
        Ok(node) => Some(Entry::Node(node)),
        Err(other) => other.downcast::<KeptImage<S>>().ok().map(Entry::Image),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::{page_with, park_next_log_sync, wal_pool};
    use crate::buffer::Decline;
    use std::convert::Infallible;

    /// A pinned read of page `id`'s first byte as a node, offering no
    /// scan: the node and whether the read decoded.
    fn read_at(p: &BufferPool, id: PageId, epoch: u64) -> (u8, bool) {
        let (got, decoded) = p
            .read_node_at(id, epoch, |d: &[u8]| Ok(d[0]), &Decline)
            .unwrap();
        (*got.into_node(), decoded)
    }

    /// A lock-free pinned hit of page `id`'s first byte as a node.
    fn hit_at(p: &BufferPool, id: PageId, epoch: u64) -> Option<u8> {
        match p.committed_hit::<u8, Infallible>(id, epoch)? {
            Entry::Node(node) => Some(*node),
            Entry::Image(_) => panic!("a node's entry held an image"),
        }
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
        // The committer holds the writer lock and the WAL handle, and
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
        assert_eq!(read_at(&p, a, e).0, 1);
        // The reader's first load read `e` here.
        assert_eq!(p.commit_epoch(), e);
        p.write_page(a, &[2; 8]).unwrap();
        p.commit().unwrap();
        let newer = p.pin_snapshot();
        assert_eq!(read_at(&p, a, newer), (2, true));
        let before = p.stats();
        assert!(hit_at(&p, a, e).is_none(), "e + 1's node kept");
        assert_eq!(p.stats(), before, "a discarded hit counts nothing");
        assert_eq!(read_at(&p, a, e), (1, true));
        let after = p.stats();
        assert_eq!(after.decode_misses - before.decode_misses, 1);
        assert_eq!(after.decode_hits, before.decode_hits);
        // The newer pin's own hit is kept.
        assert_eq!(hit_at(&p, a, newer), Some(2));
        p.unpin_snapshot(e);
        p.unpin_snapshot(newer);
        p.validate().unwrap();
    }

    /// Every committed-image entry's page has a frame: an eviction
    /// takes the entry with it, and `validate` refuses an entry left
    /// without one.
    #[test]
    fn validate_refuses_a_committed_entry_without_a_frame() {
        let (p, _) = wal_pool(2);
        let a = page_with(&p, 1);
        p.commit().unwrap();
        let e = p.pin_snapshot();
        assert_eq!(read_at(&p, a, e), (1, true));
        p.validate().unwrap();
        // Two dirty pages evict `a`'s clean frame — and its entry.
        page_with(&p, 2);
        page_with(&p, 3);
        assert!(p.lru.acquire().map.get(a).is_none(), "`a` was evicted");
        p.validate().unwrap();
        p.committed.insert(a, Arc::new(1u8));
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("no frame"), "got: {err}");
        p.unpin_snapshot(e);
    }
}
