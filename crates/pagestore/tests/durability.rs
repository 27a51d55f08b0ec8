//! Durability tests for the file-backed substrate: on-disk corruption
//! (flipped bytes, torn final writes) must surface as typed
//! [`Error::Corruption`] on the first read after reopen, name the
//! damaged page, leave healthy pages readable, and be healable by a
//! whole-page rewrite.

use boxagg_common::error::Error;
use boxagg_common::tempdir;
use boxagg_pagestore::fault::is_injected;
use boxagg_pagestore::{
    Backing, FaultPager, FaultSpec, FilePager, PageId, SharedStore, StoreConfig,
};

const PAGE: usize = 256;

fn file_config(path: std::path::PathBuf) -> StoreConfig {
    StoreConfig {
        page_size: PAGE,
        buffer_pages: 4,
        backing: Backing::File(path),
        node_cache_pages: 4,
        wal: false,
    }
}

/// Writes pages `0..n` with payload `[i; 32]`, flushes, and returns ids.
fn build(s: &SharedStore, n: u8) -> Vec<PageId> {
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let id = s.allocate().unwrap();
            s.write_page(id, &[i; 32]).unwrap();
            id
        })
        .collect();
    s.flush().unwrap();
    ids
}

#[test]
fn flipped_byte_on_disk_surfaces_as_corruption() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let ids = {
        let s = SharedStore::open(&file_config(path.clone())).unwrap();
        build(&s, 8)
    };

    // Flip one payload bit of the sixth data page behind the store's
    // back (page 0 is the superblock, so data ids start at 1).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[ids[5].0 as usize * PAGE + 17] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let s = SharedStore::open(&file_config(path.clone())).unwrap();
    // Healthy pages read fine...
    assert_eq!(s.with_page(ids[0], |d| d[0]).unwrap(), 0);
    assert_eq!(s.with_page(ids[7], |d| d[0]).unwrap(), 7);
    // ...the damaged one is a typed error naming the page, and the
    // corrupt image never enters the buffer (the retry fails the same).
    for _ in 0..2 {
        match s.with_page(ids[5], |d| d[0]).unwrap_err() {
            Error::Corruption {
                page,
                expected,
                found,
            } => {
                assert_eq!(page, ids[5].0);
                assert_ne!(expected, found);
            }
            other => panic!("expected Corruption, got: {other}"),
        }
        s.validate().unwrap();
    }
}

#[test]
fn torn_final_write_surfaces_as_corruption_on_reopen() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("pages.db");
    let ids = {
        let file = FilePager::create(&path, PAGE).unwrap();
        let (pager, faults) = FaultPager::new(Box::new(file));
        let s = SharedStore::open_with_pager(Box::new(pager), &file_config(path.clone())).unwrap();
        let ids = build(&s, 4);
        // Rewrite the last page; its write-back tears after 100 bytes —
        // the on-disk image is a new-prefix/old-suffix hybrid whose
        // trailer matches neither payload.
        s.write_page(ids[3], &[0xBB; 32]).unwrap();
        faults.arm(FaultSpec::torn_write_at(1, 100));
        let err = s.flush().unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        ids
        // "Crash": the store is dropped without a successful flush.
    };

    let s = SharedStore::open(&file_config(path.clone())).unwrap();
    // Pages untouched by the tear reopen intact.
    for (i, &id) in ids.iter().take(3).enumerate() {
        assert_eq!(s.with_page(id, |d| d[0]).unwrap(), i as u8);
    }
    // The torn page is detected on its first read.
    let torn = ids[3];
    match s.with_page(torn, |d| d[0]).unwrap_err() {
        Error::Corruption { page, .. } => assert_eq!(page, torn.0),
        other => panic!("expected Corruption, got: {other}"),
    }
    // Recovery: whole-page writes never read, so rewriting heals it.
    s.write_page(torn, &[0xCC; 32]).unwrap();
    s.flush().unwrap();
    assert_eq!(s.with_page(torn, |d| d[0]).unwrap(), 0xCC);
    s.validate().unwrap();

    // And a clean reopen now verifies end to end.
    drop(s);
    let s = SharedStore::open(&file_config(path.clone())).unwrap();
    assert_eq!(s.with_page(torn, |d| d[0]).unwrap(), 0xCC);
}
