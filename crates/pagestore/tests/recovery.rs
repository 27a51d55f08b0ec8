//! Recovery-path integration tests: idempotent replay under crashes
//! *during* recovery and write-ahead fsync ordering at the store level.
//!
//! The exhaustive every-operation crash sweep lives in the workspace
//! root (`tests/crash_sweep.rs`); these tests pin the recovery
//! machinery itself.

use boxagg_common::tempdir;
use boxagg_pagestore::fault::{is_injected, OpKind};
use boxagg_pagestore::pager::wal_path;
use boxagg_pagestore::superblock::VERSION;
use boxagg_pagestore::{
    wal, Backing, FaultPager, FaultSpec, FilePager, OpFilter, PageId, Pager, SharedStore,
    StoreConfig,
};

const PAGE: usize = 256;

fn wal_config(path: std::path::PathBuf) -> StoreConfig {
    StoreConfig {
        page_size: PAGE,
        buffer_pages: 4,
        backing: Backing::File(path),
        node_cache_pages: 4,
        wal: true,
    }
}

/// Builds a store with a committed baseline, then leaves a fully
/// committed transaction sitting in the WAL by killing the in-place
/// write phase of a second commit. Returns the data page ids.
fn leave_pending_txn(path: &std::path::Path) -> Vec<PageId> {
    let cfg = wal_config(path.to_path_buf());
    let file = FilePager::create(path, PAGE).unwrap();
    let (pager, faults) = FaultPager::new(Box::new(file));
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).unwrap();
    let ids: Vec<PageId> = (0..4u8)
        .map(|i| {
            let id = store.allocate().unwrap();
            store.write_page(id, &[i; 32]).unwrap();
            id
        })
        .collect();
    store.commit().unwrap();
    // Second transaction: rewrite every page, then die on the first
    // in-place write — after the log sync, so the txn IS committed.
    for &id in &ids {
        store.write_page(id, &[0xA0 ^ id.0 as u8; 32]).unwrap();
    }
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 0));
    let err = store.commit().unwrap_err();
    assert!(is_injected(&err), "got: {err}");
    ids
    // Store dropped without another flush: the data file still holds
    // the first transaction's images, the WAL holds the second.
}

#[test]
fn recovery_is_idempotent_under_crashes_during_replay() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let ids = leave_pending_txn(&path);

    // Count the operations a clean replay of this log performs.
    let total = {
        let file = FilePager::open(&path, PAGE).unwrap();
        let (mut pager, faults) = FaultPager::new(Box::new(file));
        let mut log = pager.wal().unwrap();
        let report = wal::recover(&mut pager, log.as_mut()).unwrap();
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(report.pages_replayed, ids.len() as u64);
        faults.counts().total()
    };
    assert!(total > 0);

    // Re-create the crashed file set for every fault point: recovery
    // dies at op j, then a second, clean recovery must land in exactly
    // the committed (post-txn) state.
    for j in 0..total {
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(wal_path(&path)).ok();
        let ids = leave_pending_txn(&path);

        {
            let file = FilePager::open(&path, PAGE).unwrap();
            let (mut pager, faults) = FaultPager::new(Box::new(file));
            let mut log = pager.wal().unwrap();
            faults.arm(FaultSpec::sticky_from(OpFilter::Any, j));
            let err = wal::recover(&mut pager, log.as_mut()).unwrap_err();
            assert!(is_injected(&err), "op {j}: {err}");
            // Crash: pager dropped mid-recovery.
        }

        let store = SharedStore::open(&wal_config(path.clone())).unwrap();
        store.validate().unwrap();
        for &id in &ids {
            assert_eq!(
                store.with_page(id, |d| d[0]).unwrap(),
                0xA0 ^ id.0 as u8,
                "op {j}: page {id:?} not at committed state after re-recovery"
            );
        }
    }
}

#[test]
fn recovered_state_is_committed_exactly_once_even_after_double_replay() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let ids = leave_pending_txn(&path);

    // Replay the same log twice back-to-back without truncation in
    // between (recover truncates at the end; simulate a kill between
    // replay and truncate by replaying on a pager that errors the
    // truncation, then recovering again).
    {
        let file = FilePager::open(&path, PAGE).unwrap();
        let (mut pager, faults) = FaultPager::new(Box::new(file));
        let mut log = pager.wal().unwrap();
        faults.arm(FaultSpec::sticky_from(OpFilter::WalTruncates, 0));
        let err = wal::recover(&mut pager, log.as_mut()).unwrap_err();
        assert!(is_injected(&err), "got: {err}");
    }
    let store = SharedStore::open(&wal_config(path.clone())).unwrap();
    // The second recovery replayed the same physical images again —
    // idempotent by construction.
    assert_eq!(store.recovery_report().txns_replayed, 1);
    for &id in &ids {
        assert_eq!(store.with_page(id, |d| d[0]).unwrap(), 0xA0 ^ id.0 as u8);
    }
    store.validate().unwrap();
}

#[test]
fn another_format_version_is_refused_before_the_log_is_touched() {
    use boxagg_common::error::Error;

    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    leave_pending_txn(&path);
    // Patch the superblock's version field (bytes 8‥10 of the file's
    // position-stable prefix) to the previous format's: a reader that
    // did not check it would take that store's border directories or
    // record sums for corruption — its committed log for a torn tail,
    // truncated away.
    let (current, previous) = (VERSION, VERSION - 1);
    let mut pages = std::fs::read(&path).unwrap();
    assert_eq!(pages[8..10], current.to_le_bytes());
    pages[8..10].copy_from_slice(&previous.to_le_bytes());
    std::fs::write(&path, &pages).unwrap();
    let log = std::fs::read(wal_path(&path)).unwrap();
    assert!(!log.is_empty(), "a committed transaction is pending");

    let cfg = wal_config(path.clone());
    let refused = |how: &str, opened: boxagg_common::error::Result<SharedStore>| {
        match opened {
            Err(Error::GeometryMismatch {
                what: "version",
                stored,
                requested,
            }) if stored == u64::from(previous) && requested == u64::from(current) => {}
            Err(other) => panic!("{how}: expected a version mismatch, got: {other}"),
            Ok(_) => panic!("{how}: opened a store of another format version"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), pages, "{how}: data file");
        assert_eq!(std::fs::read(wal_path(&path)).unwrap(), log, "{how}: log");
    };
    refused("open", SharedStore::open(&cfg));
    refused("open_readonly", SharedStore::open_readonly(&cfg));

    // Patched back, the same files open and recover the transaction.
    pages[8..10].copy_from_slice(&current.to_le_bytes());
    std::fs::write(&path, &pages).unwrap();
    let store = SharedStore::open(&cfg).unwrap();
    assert_eq!(store.recovery_report().txns_replayed, 1);
    store.validate().unwrap();
}

#[test]
fn every_data_write_in_a_commit_is_preceded_by_a_wal_sync() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let cfg = wal_config(path.clone());
    let file = FilePager::create(&path, PAGE).unwrap();
    let (pager, faults) = FaultPager::new(Box::new(file));
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).unwrap();

    for round in 0..3u8 {
        for i in 0..6u8 {
            let id = if round == 0 {
                store.allocate().unwrap()
            } else {
                PageId(1 + i as u64)
            };
            store.write_page(id, &[round * 16 + i; 32]).unwrap();
        }
        faults.start_trace();
        store.commit().unwrap();
        let trace = faults.take_trace();
        let first_wal_sync = trace
            .iter()
            .position(|&op| op == OpKind::WalSync)
            .unwrap_or_else(|| panic!("round {round}: commit never synced the log"));
        for (i, &op) in trace.iter().enumerate() {
            if op == OpKind::Write {
                assert!(
                    i > first_wal_sync,
                    "round {round}: data-page write at op {i} before the WAL sync at \
                     {first_wal_sync}: {trace:?}"
                );
            }
            if op == OpKind::WalAppend {
                assert!(
                    i < first_wal_sync,
                    "round {round}: WAL append at op {i} after the atomicity point: {trace:?}"
                );
            }
        }
        let last_data_sync = trace
            .iter()
            .rposition(|&op| op == OpKind::Sync)
            .expect("commit must sync the data file");
        let truncate = trace
            .iter()
            .position(|&op| op == OpKind::WalTruncate)
            .expect("commit must truncate the applied log");
        assert!(
            truncate > last_data_sync,
            "round {round}: log truncated before data was durable: {trace:?}"
        );
    }
}

#[test]
fn failed_append_during_retry_keeps_log_decodable() {
    // Regression for the commit error path: a commit that dies while
    // *logging* must roll the WAL back to its pre-transaction length —
    // which is NOT always zero. An earlier commit whose apply phase
    // died leaves its fully committed transaction in the log; the
    // rollback must preserve it, and the retry's records must land
    // after it. Before the fix the torn tail stayed put, the retry's
    // `begin` landed inside the open transaction, and a crash before
    // the retry's truncate made the store permanently unopenable
    // (recovery reported WalCorrupt).
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let cfg = wal_config(path.clone());

    let file = FilePager::create(&path, PAGE).unwrap();
    let (pager, faults) = FaultPager::new(Box::new(file));
    let store = SharedStore::open_with_pager(Box::new(pager), &cfg).unwrap();
    let ids: Vec<PageId> = (0..4u8)
        .map(|i| {
            let id = store.allocate().unwrap();
            store.write_page(id, &[i; 32]).unwrap();
            id
        })
        .collect();
    store.commit().unwrap();

    // Txn T: the apply phase dies after the log sync, so T stays in
    // the WAL, committed.
    for &id in &ids {
        store.write_page(id, &[0xA0 ^ id.0 as u8; 32]).unwrap();
    }
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 0));
    assert!(is_injected(&store.commit().unwrap_err()));

    // The retry dies while logging (second append, mid-transaction):
    // the rollback must shed only the torn tail, leaving T intact.
    faults.disarm();
    store.write_page(ids[0], &[0xEE; 32]).unwrap();
    faults.arm(FaultSpec::error_at(OpFilter::WalAppends, 1));
    assert!(is_injected(&store.commit().unwrap_err()));

    // A second retry logs txn T2 cleanly after T, then dies applying.
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 0));
    assert!(is_injected(&store.commit().unwrap_err()));
    drop(store);

    // Crash + reopen: the log must decode as [T, T2], replay both,
    // and land in the post-T2 state.
    let recovered = SharedStore::open(&cfg).unwrap();
    let report = recovered.recovery_report();
    assert_eq!(report.txns_replayed, 2, "both committed txns replayed");
    for &id in &ids {
        let want = if id == ids[0] {
            0xEE
        } else {
            0xA0 ^ id.0 as u8
        };
        assert_eq!(recovered.with_page(id, |d| d[0]).unwrap(), want);
    }
    recovered.validate().unwrap();
}
