//! Disk-backed operation and I/O accounting.
//!
//! Demonstrates the storage substrate directly: a file-backed page
//! store with crash-consistent WAL commits, the LRU buffer's I/O
//! statistics (the paper's §6 metric), and reopening a persisted
//! BA-tree *by name* from the page-0 superblock catalog — no
//! out-of-band state survives between the two halves of this program.
//!
//! Run with `cargo run --release --example io_accounting`.

use boxagg::batree::BATree;
use boxagg::common::traits::DominanceSumIndex;
use boxagg::common::{Point, Rect};
use boxagg::pagestore::pager::wal_path;
use boxagg::pagestore::{Backing, SharedStore, StoreConfig};
use boxagg_common::rng::StdRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("boxagg_example_store");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("batree.pages");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();

    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let config = StoreConfig {
        page_size: 8192,
        buffer_pages: 64, // a deliberately small buffer: 512 KiB
        backing: Backing::File(path.clone()),
        node_cache_pages: 64,
        wal: true,
    };

    // Build a 50k-point dominance index on disk.
    {
        let store = SharedStore::open(&config)?;
        let mut tree: BATree<f64> = BATree::create(store.clone(), space, 8)?;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50_000 {
            let p = Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()]);
            tree.insert(p, rng.gen::<f64>() * 10.0)?;
        }
        let build = store.stats();
        println!(
            "build: {} page reads, {} page writes, {} buffer hits",
            build.reads, build.writes, build.hits
        );
        println!(
            "index: {} live pages = {:.1} MiB on {}",
            store.live_pages(),
            store.size_bytes() as f64 / (1024.0 * 1024.0),
            path.display()
        );

        store.reset_stats();
        let q = Point::new(&[0.75, 0.75]);
        let sum = tree.dominance_sum(&q)?;
        let s = store.stats();
        println!(
            "one cold-ish dominance query at {q:?}: sum = {sum:.1}, {} I/Os ({} hits)",
            s.total(),
            s.hits
        );

        // Publish the tree in the superblock and commit: one WAL
        // transaction covers the index pages and the catalog update.
        store.reset_stats();
        tree.persist_as("primary")?;
        store.commit()?;
        let c = store.stats();
        println!(
            "commit: {} WAL appends, {} WAL syncs, {} in-place writes",
            c.wal_appends, c.wal_syncs, c.writes
        );
    }

    // Reopen the persisted file with a fresh buffer pool and resume —
    // the name is the only thing this half knows.
    let store = SharedStore::open(&config)?;
    let tree: BATree<f64> = BATree::open_named(store.clone(), "primary")?;
    let q = Point::new(&[0.75, 0.75]);
    let sum = tree.dominance_sum(&q)?;
    let s = store.stats();
    println!(
        "reopened by name from disk: same query = {sum:.1}, {} cold I/Os",
        s.total()
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path(&path)).ok();
    Ok(())
}
