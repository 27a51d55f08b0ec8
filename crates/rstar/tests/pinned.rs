//! The aR-tree's page images and I/O counts, pinned.
//!
//! `tests/figures.rs` runs at a scale where the whole aR-tree fits the
//! buffer, so its aR and plain-R* I/O cells read 0 and cannot see a
//! change to how the tree reads or writes pages. This file can:
//!
//! * [`PAGES`] pins the page count and an FNV-1a digest of every page a
//!   seeded STR bulk load and a seeded insert run (with splits) write,
//!   for simple (`()`) and functional (`Poly`) payloads;
//! * [`IO`] pins the exact `(reads, writes, hits)` of each query kind,
//!   with the path buffer on and off, over a buffer smaller than the
//!   tree, and of the insert runs — with a digest of the answers' bits.
//!
//! A mismatch prints the new tables, ready to paste; a change that
//! moves them is a change to the baseline of §6, not a refactor.

use boxagg_common::rng::StdRng;
use boxagg_common::{AggValue, Point, Poly, Rect};
use boxagg_pagestore::{PageId, SharedStore, StoreConfig};
use boxagg_rstar::RStarTree;

/// Page size of the query runs and the bulk loads.
const PAGE: usize = 2048;
/// Buffer pages of the query runs: well under the bulk-loaded trees.
const BUFFER: usize = 24;
/// Objects bulk-loaded.
const BULK: usize = 3000;
/// Objects inserted one at a time, at [`SMALL_PAGE`].
const INSERTED: usize = 900;
const SMALL_PAGE: usize = 512;
/// Queries per run.
const QUERIES: usize = 60;
/// Worst-case encoded `Poly` payload of [`function`].
const MAX_POLY: usize = 64;

/// `(build, pages, digest)`: the pages the build allocated and FNV-1a
/// 64 over every page's bytes in page order.
const PAGES: [(&str, u64, u64); 4] = [
    ("bulk ()", 64, 0xbc68_1526_c480_c1bf),
    ("bulk Poly", 165, 0x71af_13b7_bc5c_c1b0),
    ("insert ()", 134, 0x44dc_4cda_2335_ee25),
    ("insert Poly", 480, 0xfc07_d71f_5a63_b1ce),
];

/// `(run, reads, writes, hits, answers)`: the store's counters over the
/// run and FNV-1a 64 over the `to_bits()` of its answers (the empty
/// digest, [`FNV_BASIS`], for the insert runs).
const IO: [(&str, u64, u64, u64, u64); 10] = [
    ("box_sum, path buffer", 160, 0, 262, 0x5c67_1c77_0c38_45ac),
    ("box_sum", 164, 0, 273, 0x5c67_1c77_0c38_45ac),
    (
        "box_sum_scan, path buffer",
        212,
        0,
        251,
        0x5c67_1c77_0c38_45ac,
    ),
    ("box_sum_scan", 212, 0, 267, 0x5c67_1c77_0c38_45ac),
    (
        "functional_sum, path buffer",
        462,
        0,
        188,
        0xb8c8_6e3d_30f5_a457,
    ),
    ("functional_sum", 468, 0, 193, 0xb8c8_6e3d_30f5_a457),
    ("insert ()", 730, 840, 7414, FNV_BASIS),
    ("insert Poly", 1465, 1921, 8372, FNV_BASIS),
    (
        "box_sum after inserts, path buffer",
        511,
        0,
        175,
        0x666c_9cee_7b89_be67,
    ),
    (
        "functional_sum after inserts",
        1005,
        0,
        121,
        0x3d5e_d096_c78c_ce11,
    ),
];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The page count of `store` and FNV-1a 64 over every page's bytes.
fn page_digest(store: &SharedStore) -> (u64, u64) {
    let pages = store.allocated_pages();
    let mut hash = FNV_BASIS;
    for id in 0..pages {
        store
            .with_page(PageId(id), |bytes| fnv(&mut hash, bytes))
            .unwrap();
    }
    (pages, hash)
}

fn rect(rng: &mut StdRng, side: f64) -> Rect {
    let low = Point::from_fn(2, |_| rng.gen::<f64>() * (1.0 - side));
    let high = Point::from_fn(2, |i| low.get(i) + rng.gen::<f64>() * side);
    Rect::new(low, high)
}

/// A degree-≤ 1 value function; its encoding is at most [`MAX_POLY`].
fn function(rng: &mut StdRng) -> Poly {
    let c = Poly::constant(rng.gen::<f64>() * 4.0 - 1.0);
    if rng.gen_range(0..2) == 0 {
        c
    } else {
        c.add(&Poly::monomial(rng.gen::<f64>(), &[1, 0]))
    }
}

fn simple(rng: &mut StdRng, n: usize, side: f64) -> Vec<(Rect, f64, ())> {
    (0..n)
        .map(|_| (rect(rng, side), rng.gen::<f64>() * 10.0 - 2.0, ()))
        .collect()
}

fn functional(rng: &mut StdRng, n: usize, side: f64) -> Vec<(Rect, f64, Poly)> {
    (0..n)
        .map(|_| {
            let r = rect(rng, side);
            let f = function(rng);
            (r, f.integral_over(r.low(), r.high()), f)
        })
        .collect()
}

/// Resets `store`'s counters, runs `f` over `queries`, and returns the
/// counters and the digest of the answers' bits.
fn measure(
    name: &'static str,
    store: &SharedStore,
    queries: &[Rect],
    mut f: impl FnMut(&Rect) -> f64,
) -> (&'static str, u64, u64, u64, u64) {
    store.reset_stats();
    let mut answers = FNV_BASIS;
    for q in queries {
        fnv(&mut answers, &f(q).to_bits().to_le_bytes());
    }
    let s = store.stats();
    (name, s.reads, s.writes, s.hits, answers)
}

#[test]
fn ar_tree_pages_and_io_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0xA2_7EE5);
    let queries: Vec<Rect> = [0.01, 0.1, 0.3, 0.6]
        .iter()
        .flat_map(|&side| {
            (0..QUERIES / 4)
                .map(|_| rect(&mut rng, side))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut pages = Vec::new();
    let mut io = Vec::new();

    let store = SharedStore::open(&StoreConfig::small(PAGE, BUFFER)).unwrap();
    let mut ar = RStarTree::bulk_load(store.clone(), 2, 0, simple(&mut rng, BULK, 0.03)).unwrap();
    pages.push(("bulk ()", page_digest(&store)));
    for (path_buffer, on, off) in [
        (true, "box_sum, path buffer", "box_sum_scan, path buffer"),
        (false, "box_sum", "box_sum_scan"),
    ] {
        ar.use_path_buffer = path_buffer;
        io.push(measure(on, &store, &queries, |q| {
            ar.box_sum(q).unwrap().sum
        }));
        io.push(measure(off, &store, &queries, |q| {
            ar.box_sum_scan(q).unwrap().sum
        }));
    }
    // Table order: both box_sum rows, then both scan rows.
    io.swap(1, 2);

    let fstore = SharedStore::open(&StoreConfig::small(PAGE, BUFFER)).unwrap();
    let objects = functional(&mut rng, BULK, 0.03);
    let mut far = RStarTree::bulk_load(fstore.clone(), 2, MAX_POLY, objects).unwrap();
    pages.push(("bulk Poly", page_digest(&fstore)));
    for (path_buffer, name) in [
        (true, "functional_sum, path buffer"),
        (false, "functional_sum"),
    ] {
        far.use_path_buffer = path_buffer;
        io.push(measure(name, &fstore, &queries, |q| {
            far.functional_sum(q).unwrap()
        }));
    }

    // Insert runs at small pages: every level splits many times.
    let istore = SharedStore::open(&StoreConfig::small(SMALL_PAGE, BUFFER)).unwrap();
    let mut iar: RStarTree<()> = RStarTree::create(istore.clone(), 2, 0).unwrap();
    let objects = simple(&mut rng, INSERTED, 0.05);
    istore.reset_stats();
    for (r, v, ()) in objects {
        iar.insert(r, v, ()).unwrap();
    }
    let s = istore.stats();
    io.push(("insert ()", s.reads, s.writes, s.hits, FNV_BASIS));
    assert!(iar.height() >= 3, "the insert run must split index nodes");
    pages.push(("insert ()", page_digest(&istore)));

    let fistore = SharedStore::open(&StoreConfig::small(SMALL_PAGE, BUFFER)).unwrap();
    let mut fiar: RStarTree<Poly> = RStarTree::create(fistore.clone(), 2, MAX_POLY).unwrap();
    let objects = functional(&mut rng, INSERTED, 0.05);
    fistore.reset_stats();
    for (r, m, f) in objects {
        fiar.insert(r, m, f).unwrap();
    }
    let s = fistore.stats();
    io.push(("insert Poly", s.reads, s.writes, s.hits, FNV_BASIS));
    assert!(fiar.height() >= 3, "the insert run must split index nodes");
    pages.push(("insert Poly", page_digest(&fistore)));

    iar.use_path_buffer = true;
    io.push(measure(
        "box_sum after inserts, path buffer",
        &istore,
        &queries,
        |q| iar.box_sum(q).unwrap().sum,
    ));
    fiar.use_path_buffer = false;
    io.push(measure(
        "functional_sum after inserts",
        &fistore,
        &queries,
        |q| fiar.functional_sum(q).unwrap(),
    ));

    let got_pages: Vec<(&str, u64, u64)> = pages.iter().map(|&(n, (p, d))| (n, p, d)).collect();
    if got_pages != PAGES || io != IO {
        println!("const PAGES: [(&str, u64, u64); 4] = [");
        for (n, p, d) in &got_pages {
            println!("    ({n:?}, {p}, {d:#x}),");
        }
        println!("];");
        println!("const IO: [(&str, u64, u64, u64, u64); 10] = [");
        for (n, r, w, h, a) in &io {
            println!("    ({n:?}, {r}, {w}, {h}, {a:#x}),");
        }
        println!("];");
        panic!("the aR-tree's pages or I/O moved; the new tables are printed above");
    }
}
