//! The WAL commit protocol: capture the dirty frames, log and sync
//! them, flip the commit epoch, apply in place, truncate the log and
//! un-dirty what was captured (phases A–F of [`BufferPool::commit`]).
//!
//! The barrier makes a WAL commit's dirty-frame snapshot a point-in-time
//! cut: [`BufferPool::write_page`] and [`BufferPool::free_page`] hold it
//! shared around one mutation, [`BufferPool::commit`] holds it
//! exclusively across the whole capture. Note the cut is *per call*: a
//! logical update spanning several `write_page` calls (a tree split, say)
//! is only commit-atomic if no commit runs between the calls — callers
//! that commit concurrently with multi-page writers must quiesce them
//! first (every current caller commits from the writing thread).
//!
//! Commits themselves *group*: concurrent committers collapse into one
//! WAL append run and one log sync. Each committer notes the global
//! mutation stamp it must see durable; whoever wins the commit lock
//! commits everything staged so far, and the others return without
//! issuing any I/O once they observe their stamp covered.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use boxagg_common::error::Result;

use crate::checksum;
use crate::pager::PageId;
use crate::wal::{self, WalFile};

use super::snapshot::PageVersion;
use super::BufferPool;

/// One page of a commit in flight: its id, the mutation stamp of the
/// captured frame, and the captured image — one allocation shared by
/// the log records, the frame's committed base and (while an older
/// epoch is pinned) the snapshot table.
type TxnPage = (PageId, u64, Arc<[u8]>);

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
    pub(crate) fn commit(&self) -> Result<()> {
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
        // transaction is a point-in-time cut; it is released before the
        // I/O below — a writer changing a page after its image was
        // captured just stays dirty for the next commit.
        let mut txn: Vec<TxnPage> = Vec::new();
        let capture_seq;
        {
            let _quiesced = self.barrier.acquire_excl();
            // Exact cut: no writer is concurrent with this load.
            capture_seq = self.seq.load(Ordering::SeqCst);
            let mut lru = self.lru.acquire();
            for f in lru.frames.iter_mut() {
                if f.dirty && !f.id.is_null() {
                    checksum::stamp(&mut f.data, self.zero_mask);
                    txn.push((f.id, f.seq, Arc::from(&f.data[..])));
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
        let mut lru = self.lru.acquire();
        for (id, cap_seq, _) in &txn {
            if let Some(idx) = lru.map.get(*id) {
                let f = &mut lru.frames[idx];
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
            let mut lru = self.lru.acquire();
            self.committed.invalidate(*id);
            if let Some(idx) = lru.map.get(*id) {
                let f = &mut lru.frames[idx];
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
            let lru = self.lru.acquire();
            if let Some(idx) = lru.map.get(id) {
                let f = &lru.frames[idx];
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
