//! The WAL commit protocol: capture the dirty frames, log and sync
//! them, flip the commit epoch, apply in place, truncate the log and
//! un-dirty what was captured (phases A–F of [`BufferPool::commit`]).
//!
//! A commit holds the writer lock (`&mut Writer`) from its capture
//! through phase F, so no write or free runs inside it: the capture is
//! a point-in-time cut under the LRU lock alone, and every frame it took
//! is still dirty, holding the captured bytes, when phase F un-dirties
//! it. The cut is *per call* of the writer lock: a logical update that
//! spans several `write_page` calls (a tree split, say) is only
//! commit-atomic if no commit runs between the calls — callers that
//! commit beside multi-page writers must quiesce them first (every
//! current caller commits from the writing thread). Only the flip takes
//! the commit barrier, and only against pinned readers.
//!
//! Commits run one at a time under the writer lock, each as its own WAL
//! transaction: a committer queued behind another logs whatever is
//! still dirty when it gets the lock — an empty commit, one data sync,
//! if the commit before it took everything.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use boxagg_common::error::Result;

use crate::checksum;
use crate::pager::PageId;
use crate::wal::{self, WalFile};

use super::snapshot::PageVersion;
use super::{BufferPool, Writer};

/// One page of a commit in flight: its id and the captured image. The
/// image is the frame's own buffer, taken by refcount, not copied: the
/// log records and the apply phase read it, the flip re-bases the frame
/// onto it, and it stays the frame's bytes throughout — no write runs
/// inside a commit.
type TxnPage = (PageId, Arc<[u8]>);

impl BufferPool {
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
    /// The caller's `&mut Writer` is held from the capture through the
    /// last phase, so every captured frame is still dirty, and still
    /// the captured bytes, when its dirty bit is cleared. Errors leave
    /// every dirty bit set, so a failed commit can simply be retried: a
    /// transaction that failed while being *logged* is rolled back out
    /// of the log (so the retry's `begin` never lands inside the torn
    /// one), while a transaction that failed while being *applied*
    /// stays in the log, committed, for recovery or the retry to finish.
    ///
    /// Concurrent commits run one after another under the writer lock,
    /// each as its own WAL transaction over exactly what is dirty when
    /// it takes the lock. A commit queued behind one that took every
    /// dirty page finds nothing to log and makes an empty commit.
    ///
    /// Readers are never blocked: the pager lock is not held across the
    /// log fsync (log I/O runs through the pool's log handle, under
    /// its own lock), readers never take the writer lock, and pinned
    /// snapshot readers keep observing the previous epoch throughout —
    /// the flip to the new epoch is the commit's only barrier-exclusive
    /// section.
    pub(crate) fn commit(&self, _: &mut Writer) -> Result<()> {
        let Some(log) = &self.log else {
            return self.flush_all_inner();
        };
        // Phase A — capture: take every dirty frame's physical image
        // (trailer stamped) by refcount. The writer lock keeps every
        // mutation out until the commit returns, and readers change no
        // frame's bytes or dirty bit, so this is a point-in-time cut.
        let mut txn: Vec<TxnPage> = Vec::new();
        {
            let mut lru = self.lru.acquire();
            for f in lru.frames.iter_mut() {
                if f.dirty && !f.id.is_null() {
                    checksum::stamp(Arc::make_mut(&mut f.data), self.zero_mask);
                    txn.push((f.id, Arc::clone(&f.data)));
                }
            }
        }
        txn.sort_by_key(|&(id, _)| id);
        if txn.is_empty() {
            // Nothing to log; still honor "commit means durable".
            self.pager.acquire().sync()?;
            self.syncs.fetch_add(1, Ordering::Relaxed);
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
        // transaction is visible (and durable).
        self.flip_epoch(&txn)?;
        // Phase D — apply: write the same images in place and sync the
        // data file.
        {
            let mut pager = self.pager.acquire();
            for (id, image) in &txn {
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
        // Phase F — un-dirty what was captured. No write or free ran
        // since the capture, and no-steal evicts no dirty frame, so
        // every captured page still has its dirty frame.
        let mut lru = self.lru.acquire();
        for (id, _) in &txn {
            let idx = lru.map.get(*id);
            debug_assert!(
                idx.is_some_and(|idx| lru.frames[idx].dirty),
                "captured page {id:?} lost its dirty frame mid-commit"
            );
            if let Some(idx) = idx {
                let f = &mut lru.frames[idx];
                f.dirty = false;
                f.base = None;
            }
        }
        self.dirty_frames
            .fetch_sub(txn.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Appends `begin` + every page image + `commit` to the log and
    /// syncs it. On `Ok(())` the transaction is durably committed; on
    /// error the caller rolls the log back to its pre-transaction
    /// length. The caller owns the statistics.
    fn log_records(w: &mut dyn WalFile, txn: &[TxnPage]) -> Result<()> {
        w.append(&wal::encode_begin(txn.len() as u32))?;
        for (id, image) in txn {
            w.append(&wal::encode_page(*id, image))?;
        }
        w.append(&wal::encode_commit())?;
        w.sync()
    }

    /// Phase C of the commit protocol: under the exclusive barrier,
    /// which orders it against pinned misses (the writer lock the
    /// commit holds already keeps every mutation out),
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
    fn flip_epoch(&self, txn: &[TxnPage]) -> Result<()> {
        let _quiesced = self.barrier.acquire_excl();
        let mut snaps = self.snapshots.acquire();
        let old_epoch = self.epoch.load(Ordering::Relaxed);
        let mut retained: Vec<(PageId, Arc<[u8]>)> = Vec::new();
        if snaps.pins.range(..=old_epoch).next().is_some() {
            for (id, _) in txn {
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
        for (id, image) in txn {
            // The page's committed image just changed: readers pinned
            // at the old epoch now fail their hit's epoch check, and
            // new-epoch readers cannot pin until this loop is done.
            let mut lru = self.lru.acquire();
            self.committed.invalidate(*id);
            if let Some(idx) = lru.map.get(*id) {
                // The frame is the captured one, still dirty: `image`
                // is its committed base as of the new epoch.
                lru.frames[idx].base = Some(Arc::clone(image));
            }
        }
        Ok(())
    }

    /// The committed image of transaction page `id` as of the
    /// *current* (pre-flip) epoch: its dirty frame's base, or — for a
    /// dirty frame that was never committed from the buffer — the
    /// on-disk image, which no-steal guarantees is still the
    /// pre-transaction one at flip time. Read off disk it is verified
    /// like any fetch: pinned readers will be served these bytes for as
    /// long as their epoch lives.
    fn pre_image(&self, id: PageId) -> Result<Arc<[u8]>> {
        {
            let lru = self.lru.acquire();
            if let Some(base) = lru
                .map
                .get(id)
                .and_then(|idx| lru.frames[idx].base.as_ref())
            {
                return Ok(Arc::clone(base));
            }
        }
        let mut buf = vec![0u8; self.page_size];
        self.read_verified(id, &mut buf)?;
        Ok(Arc::from(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::{page_with, park_next_log_sync, wal_pool};
    use boxagg_common::error::Error;

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

    /// The frame's buffer as it is now, and its page's committed base.
    fn frame_bytes(p: &BufferPool, id: PageId) -> (Arc<[u8]>, Option<Arc<[u8]>>) {
        let lru = p.lru.acquire();
        let f = &lru.frames[lru.map.get(id).expect("resident")];
        (Arc::clone(&f.data), f.base.clone())
    }

    /// The capture takes the frame's buffer by refcount: while the
    /// commit is in flight the frame and the capture hold one
    /// allocation, and when it is done the frame still owns it alone.
    #[test]
    fn a_commit_captures_the_frames_own_buffer() {
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = page_with(&p, 1);
        let own = frame_bytes(&p, a).0.as_ptr();
        park_next_log_sync(&faults);
        let committer = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        assert!(faults.wait_parked());
        let (held, _) = frame_bytes(&p, a);
        assert_eq!(held.as_ptr(), own, "stamped in place, not copied");
        // `held`, the frame and the capture: one allocation.
        assert_eq!(
            Arc::strong_count(&held),
            3,
            "the capture shares the frame's bytes"
        );
        drop(held);
        faults.open_gate();
        committer.join().unwrap().unwrap();
        let (after, base) = frame_bytes(&p, a);
        assert_eq!(after.as_ptr(), own, "the frame kept its buffer");
        assert!(base.is_none());
        assert_eq!(Arc::strong_count(&after), 2, "the commit let go of it");
        p.validate().unwrap();
    }

    /// A writer started while a commit is parked in its log sync waits
    /// for the whole commit, whether it reaches the writer lock before
    /// the gate opens or after: the commit logs and applies the bytes it
    /// captured, the write stays dirty for the next commit, and it lands
    /// in the frame's own buffer — the commit has let go of it, so
    /// nothing is copied.
    #[test]
    fn a_writer_beside_a_parked_commit_waits_for_it() {
        use crate::fault::OpKind;
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = page_with(&p, 1);
        let own = frame_bytes(&p, a).0.as_ptr();
        let payload = p.payload_size();
        faults.start_trace();
        park_next_log_sync(&faults);
        let committer = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        assert!(faults.wait_parked());
        let writer = {
            let p = p.clone();
            std::thread::spawn(move || p.write_page(a, &[2; 16]))
        };
        faults.open_gate();
        committer.join().unwrap().unwrap();
        writer.join().unwrap().unwrap();

        // One transaction of one page, and what reached the data file
        // is the captured bytes, not the write's.
        assert_eq!(
            faults.take_trace(),
            [
                OpKind::WalAppend,
                OpKind::WalAppend,
                OpKind::WalAppend,
                OpKind::WalSync,
                OpKind::Write,
                OpKind::Sync,
                OpKind::WalTruncate,
                OpKind::WalSync,
            ],
            "begin + one image + commit, applied once"
        );
        let mut on_disk = vec![0u8; p.page_size];
        p.pager.acquire().read_page(a, &mut on_disk).unwrap();
        assert!(on_disk[..16].iter().all(|&b| b == 1), "applied the capture");
        assert!(on_disk[16..payload].iter().all(|&b| b == 0));

        // The write is in the frame's own buffer, dirty, over the
        // committed image kept as its base.
        let (now, base) = frame_bytes(&p, a);
        assert_eq!(now.as_ptr(), own, "written in place, not copied");
        assert_eq!((now[0], base.map(|b| b[0])), (2, Some(1)));
        drop(now);
        assert_eq!(p.dirty_pages(), 1);
        p.validate().unwrap();

        let appends = p.stats().wal_appends;
        p.commit().unwrap();
        assert_eq!(
            p.stats().wal_appends - appends,
            3,
            "the next commit logs it"
        );
        assert_eq!(p.dirty_pages(), 0);
        p.pager.acquire().read_page(a, &mut on_disk).unwrap();
        assert_eq!(on_disk[0], 2);
        p.validate().unwrap();
    }

    /// Dirtying a clean resident frame copies its committed image into
    /// `base` and writes the frame's own buffer in place: the buffer
    /// does not move to the writing thread's allocations.
    #[test]
    fn a_write_to_a_clean_resident_frame_keeps_its_buffer() {
        let (p, _faults) = wal_pool(4);
        let a = page_with(&p, 1);
        p.commit().unwrap();
        let own = frame_bytes(&p, a).0.as_ptr();
        p.write_page(a, &[2; 16]).unwrap();
        let (data, base) = frame_bytes(&p, a);
        assert_eq!(data.as_ptr(), own, "written in place");
        let base = base.expect("a dirtied resident frame keeps its committed image");
        assert!(!Arc::ptr_eq(&base, &data));
        assert_eq!((base[0], data[0]), (1, 2));
        p.validate().unwrap();
    }

    /// A commit queued behind a parked one runs after it as its own
    /// transaction: the first logs and applies the dirty page, the
    /// second finds nothing left dirty and makes an empty commit — one
    /// data sync, no log I/O, no new epoch. Whether the second reaches
    /// the writer lock before the gate opens or after, that is what it
    /// does, so every count below is exact under any scheduling.
    #[test]
    fn a_queued_commit_runs_after_the_parked_one() {
        let (p, faults) = wal_pool(4);
        let p = Arc::new(p);
        let a = p.allocate().unwrap();
        p.write_page(a, &[4; 4]).unwrap();
        park_next_log_sync(&faults);
        let first = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        assert!(faults.wait_parked());
        let queued = {
            let p = p.clone();
            std::thread::spawn(move || p.commit())
        };
        faults.open_gate();
        first.join().unwrap().unwrap();
        queued.join().unwrap().unwrap();
        let s = p.stats();
        assert_eq!(s.wal_appends, 3, "begin + image + commit, once");
        assert_eq!(s.wal_syncs, 2, "atomicity point + truncate, once");
        assert_eq!(s.writes, 1, "one page applied in place");
        assert_eq!(s.syncs, 2, "the apply's data sync + the empty commit's");
        let c = faults.counts();
        assert_eq!(
            (
                c.wal_appends,
                c.wal_syncs,
                c.wal_truncates,
                c.writes,
                c.syncs
            ),
            (3, 2, 1, 1, 2),
            "the pager saw the same ops"
        );
        assert_eq!(p.commit_epoch(), 2, "the empty commit made no epoch");
        assert_eq!(p.dirty_pages(), 0);
        assert_eq!(p.with_page(a, |d| d[0]).unwrap(), 4);
        p.validate().unwrap();
    }
}
