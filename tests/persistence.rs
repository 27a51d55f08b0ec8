//! Integration: file-backed persistence across process-like reopen
//! boundaries (fresh buffer pools over the same page file).
//!
//! The primary path is *named* reopen: trees publish themselves in the
//! page-0 superblock catalog with `persist_as`, and a later process
//! reopens them by name with no out-of-band state (`open_named`). One
//! test below keeps the legacy `open_at` + raw-`FilePager` path alive
//! as a compatibility pin.

use boxagg::batree::BATree;
use boxagg::common::traits::DominanceSumIndex;
use boxagg::common::{Point, Rect};
use boxagg::ecdf::{BorderPolicy, EcdfBTree};
use boxagg::pagestore::pager::wal_path;
use boxagg::pagestore::{Backing, FilePager, SharedStore, StoreConfig};
use boxagg_common::rng::StdRng;

fn tmpfile(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("boxagg_persistence_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    // A failed earlier run may have left files behind; start clean.
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
    path
}

#[test]
fn batree_survives_reopen_by_name() {
    let path = tmpfile("batree.pages");
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut rng = StdRng::seed_from_u64(41);
    let points: Vec<(Point, f64)> = (0..3000)
        .map(|_| (Point::new(&[rng.gen(), rng.gen()]), rng.gen::<f64>() * 5.0))
        .collect();
    let queries: Vec<Point> = (0..50)
        .map(|_| Point::new(&[rng.gen(), rng.gen()]))
        .collect();

    let cfg = StoreConfig {
        page_size: 1024,
        buffer_pages: 16,
        backing: Backing::File(path.clone()),
        node_cache_pages: 16,
        wal: true,
    };
    let expected: Vec<f64> = {
        let store = SharedStore::open(&cfg).unwrap();
        let mut tree: BATree<f64> = BATree::create(store.clone(), space, 8).unwrap();
        for (p, v) in &points {
            tree.insert(*p, *v).unwrap();
        }
        let expected = queries
            .iter()
            .map(|q| tree.dominance_sum(q).unwrap())
            .collect();
        // Publish under a name and commit: root, length, space and
        // value size all land in the superblock — nothing to remember.
        tree.persist_as("primary").unwrap();
        store.commit().unwrap();
        expected
    };

    // Reopen with a cold, tiny buffer and verify every answer.
    let store = SharedStore::open(&cfg).unwrap();
    let mut tree: BATree<f64> = BATree::open_named(store.clone(), "primary").unwrap();
    assert_eq!(tree.space(), &space);
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(tree.dominance_sum(q).unwrap(), *want);
    }
    assert_eq!(tree.len(), 3000);

    // Continue inserting after reopen, then spot check.
    tree.insert(Point::new(&[0.5, 0.5]), 1000.0).unwrap();
    let got = tree.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap();
    let total: f64 = points.iter().map(|(_, v)| v).sum::<f64>() + 1000.0;
    assert!((got - total).abs() < 1e-6);
    tree.persist_as("primary").unwrap();
    store.commit().unwrap();

    // Third generation sees the post-reopen insert through the catalog.
    drop(tree);
    drop(store);
    let store = SharedStore::open(&cfg).unwrap();
    let tree: BATree<f64> = BATree::open_named(store, "primary").unwrap();
    assert_eq!(tree.len(), 3001);
    let got = tree.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap();
    assert!((got - total).abs() < 1e-6);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
}

#[test]
fn ecdf_btree_survives_reopen_by_name() {
    let path = tmpfile("ecdf.pages");
    let mut rng = StdRng::seed_from_u64(43);
    let points: Vec<(Point, f64)> = (0..2000)
        .map(|_| (Point::new(&[rng.gen(), rng.gen()]), 1.0))
        .collect();
    let cfg = StoreConfig {
        page_size: 1024,
        buffer_pages: 8,
        backing: Backing::File(path.clone()),
        node_cache_pages: 8,
        wal: true,
    };
    {
        let store = SharedStore::open(&cfg).unwrap();
        let tree: EcdfBTree<f64> = EcdfBTree::bulk_load(
            store.clone(),
            2,
            BorderPolicy::QueryOptimized,
            8,
            points.clone(),
        )
        .unwrap();
        assert_eq!(
            tree.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(),
            2000.0
        );
        tree.persist_as("ecdf-q").unwrap();
        store.commit().unwrap();
    }

    // Dimension, policy, value size, root and length all come back from
    // the catalog — the reopen call takes only the name.
    let store = SharedStore::open(&cfg).unwrap();
    let reopened: EcdfBTree<f64> = EcdfBTree::open_named(store, "ecdf-q").unwrap();
    assert_eq!(reopened.policy(), BorderPolicy::QueryOptimized);
    assert_eq!(reopened.len(), 2000);
    assert_eq!(
        reopened.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(),
        2000.0
    );
    assert_eq!(
        reopened.dominance_sum(&Point::new(&[-0.1, 0.5])).unwrap(),
        0.0
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
}

/// Compatibility pin: the pre-superblock reopen path — raw
/// `FilePager::open` + `with_pager` + `open_at` with caller-remembered
/// root/len — keeps working for stores addressed by explicit page ids.
#[test]
fn open_at_compatibility_pin() {
    let path = tmpfile("compat.pages");
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut rng = StdRng::seed_from_u64(47);
    let points: Vec<(Point, f64)> = (0..500)
        .map(|_| (Point::new(&[rng.gen(), rng.gen()]), 1.0))
        .collect();
    let cfg = StoreConfig {
        page_size: 1024,
        buffer_pages: 8,
        backing: Backing::File(path.clone()),
        node_cache_pages: 8,
        wal: false,
    };
    let (root, len) = {
        let store = SharedStore::open(&cfg).unwrap();
        let tree: BATree<f64> = BATree::bulk_load(store.clone(), space, 8, points.clone()).unwrap();
        store.flush().unwrap();
        (tree.root_page(), tree.len())
    };

    let pager = FilePager::open(&path, 1024).unwrap();
    let store = SharedStore::with_pager(Box::new(pager), &cfg);
    let tree: BATree<f64> = BATree::open_at(store, space, 8, root, len).unwrap();
    assert_eq!(tree.len(), 500);
    assert_eq!(tree.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(), 500.0);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
}
