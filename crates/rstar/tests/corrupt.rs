//! A stored box whose high corner does not dominate its low corner is
//! corruption: every read of the page that holds it — a query, an
//! insert — is refused with `Error::Corrupt`, on leaf and index pages
//! alike.

use boxagg_common::error::Error;
use boxagg_common::{Poly, Rect};
use boxagg_pagestore::{SharedStore, StoreConfig};
use boxagg_rstar::RStarTree;

/// A page of one entry whose box is `[0.5, 0.2] × [0.5, 0.9]`: its low
/// corner exceeds its high one in the first dimension. `tail` follows
/// the box (a leaf's value, an index record's child, aggregate and
/// count).
fn page(tag: u8, tail: &[f64]) -> Vec<u8> {
    let mut bytes = vec![tag, 1, 0];
    for c in [0.5f64, 0.5, 0.2, 0.9].iter().chain(tail) {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    bytes
}

fn corrupt<T: std::fmt::Debug>(what: &str, got: Result<T, Error>) {
    assert!(matches!(got, Err(Error::Corrupt(_))), "{what}: {got:?}");
}

fn unit() -> Rect {
    Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
}

fn small(i: usize) -> Rect {
    let x = (i % 10) as f64 / 10.0;
    let y = (i / 10 % 10) as f64 / 10.0;
    Rect::from_bounds(&[(x, x + 0.05), (y, y + 0.05)])
}

#[test]
fn boxes_with_corners_out_of_order_are_refused() {
    // A leaf root.
    let store = SharedStore::open(&StoreConfig::small(512, 16)).unwrap();
    let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
    t.insert(small(0), 1.0, ()).unwrap();
    store.write_page(t.root_page(), &page(0, &[1.0])).unwrap();
    t.use_path_buffer = false;
    corrupt("leaf box_sum", t.box_sum(&unit()));
    corrupt("leaf box_sum_scan", t.box_sum_scan(&unit()));
    corrupt("leaf insert", t.insert(small(1), 1.0, ()));

    // An index root over leaves.
    let store = SharedStore::open(&StoreConfig::small(512, 64)).unwrap();
    let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
    for i in 0..100 {
        t.insert(small(i), 1.0, ()).unwrap();
    }
    assert!(t.height() >= 2);
    let child = f64::from_bits(2);
    store
        .write_page(t.root_page(), &page(1, &[child, 1.0, f64::from_bits(1)]))
        .unwrap();
    t.use_path_buffer = false;
    corrupt("index box_sum", t.box_sum(&unit()));
    corrupt("index insert", t.insert(small(1), 1.0, ()));

    // A functional leaf: the box precedes the mass and the function.
    let store = SharedStore::open(&StoreConfig::small(512, 16)).unwrap();
    let mut t: RStarTree<Poly> = RStarTree::create(store.clone(), 2, 64).unwrap();
    let f = Poly::constant(2.0);
    t.insert(small(0), 1.0, f.clone()).unwrap();
    let mut bytes = page(0, &[1.0]);
    let mut w = boxagg_common::bytes::ByteWriter::new();
    boxagg_common::AggValue::encode(&f, &mut w);
    bytes.extend_from_slice(w.as_slice());
    store.write_page(t.root_page(), &bytes).unwrap();
    t.use_path_buffer = false;
    corrupt("functional leaf", t.functional_sum(&unit()));
    corrupt("functional insert", t.insert(small(1), 1.0, f));
}
