//! Public BA-tree interface.

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::traits::{check_insert, check_query, DominanceSumIndex};
use boxagg_common::value::AggValue;
use boxagg_pagestore::paged::PagedTree;
use boxagg_pagestore::{PageId, ReadHandle, SharedStore};

use crate::bulk;
use crate::node::Ba;
use crate::ops;

/// The Box Aggregation Tree (§5): a disk-based, dynamic dominance-sum
/// index. A k-d-B-tree whose index records are augmented with a
/// `subtotal` and `d` border trees, giving poly-logarithmic average query
/// cost — a query walks a single root-to-leaf path and touches a constant
/// number of borders per node.
///
/// Generic over the aggregated value `V`: `f64` for the simple box-sum
/// problem, [`Poly`](boxagg_common::poly::Poly) for the functional one.
///
/// ```
/// use boxagg_batree::BATree;
/// use boxagg_common::{Point, Rect, DominanceSumIndex};
/// use boxagg_pagestore::{SharedStore, StoreConfig};
///
/// let store = SharedStore::open(&StoreConfig::default()).unwrap();
/// let space = Rect::from_bounds(&[(0.0, 100.0), (0.0, 100.0)]);
/// let mut tree: BATree<f64> = BATree::create(store, space, 8).unwrap();
/// tree.insert(Point::new(&[10.0, 10.0]), 5.0).unwrap();
/// tree.insert(Point::new(&[60.0, 60.0]), 7.0).unwrap();
/// assert_eq!(tree.dominance_sum(&Point::new(&[50.0, 50.0])).unwrap(), 5.0);
/// assert_eq!(tree.dominance_sum(&Point::new(&[99.0, 99.0])).unwrap(), 12.0);
/// ```
pub struct BATree<V: AggValue> {
    /// Pages (the live store, or the pinned epoch the tree was opened
    /// at, read-only), sizing, root and length.
    nodes: PagedTree<V, Ba>,
    space: Rect,
}

impl<V: AggValue> BATree<V> {
    /// Creates an empty BA-tree over `space`.
    ///
    /// `max_value_size` bounds the encoded size of any value that will be
    /// inserted (8 for `f64`; use
    /// [`max_poly_encoded_size`](boxagg_common::poly::max_poly_encoded_size)
    /// for polynomial tuples). It determines node fanout.
    pub fn create(store: SharedStore, space: Rect, max_value_size: usize) -> Result<Self> {
        Self::bulk_load(store, space, max_value_size, Vec::new())
    }

    /// Bulk-loads a tree from weighted points: the k-d-B partition is
    /// built top-down and every record's aggregation state is computed
    /// directly from the point sets (coincident points merge, as dynamic
    /// insertion would). Far cheaper than repeated [`insert`] for large
    /// batches; the result behaves identically afterwards. Every point
    /// is checked as [`insert`] checks it before the first page is
    /// written.
    ///
    /// [`insert`]: DominanceSumIndex::insert
    pub fn bulk_load(
        store: SharedStore,
        space: Rect,
        max_value_size: usize,
        points: Vec<(Point, V)>,
    ) -> Result<Self> {
        let nodes = PagedTree::open_in(store.into(), Ba::default(), space.dim(), max_value_size)?;
        let mut tree = Self { nodes, space };
        tree.nodes.len = points.len();
        for (p, v) in &points {
            tree.check_insert(p, v)?;
        }
        tree.nodes.root = if points.is_empty() {
            tree.nodes.ctx().new_leaf::<V>(space.dim())?
        } else {
            bulk::bulk_build(tree.nodes.ctx(), &space, points)?
        };
        Ok(tree)
    }

    /// The root page id (what [`persist_as`](Self::persist_as) records).
    pub fn root_page(&self) -> PageId {
        self.nodes.root
    }

    /// Publishes this tree under `name` in the store's superblock
    /// catalog, so [`open_named`](Self::open_named) can reopen it with
    /// no out-of-band state. Durable at the store's next
    /// [`commit`](SharedStore::commit) (or flush), together with the
    /// tree pages themselves. Call again after mutations to refresh the
    /// recorded root and length.
    pub fn persist_as(&self, name: &str) -> Result<()> {
        self.nodes.persist_as(name, self.space.bounds())
    }

    /// Reopens a tree published by [`persist_as`](Self::persist_as):
    /// space, value size, root and length all come from the superblock
    /// catalog `pages` sees.
    ///
    /// Pass the store (or a clone) for a live, writable tree. Pass a
    /// pinned snapshot — `&Arc<StoreSnapshot>`, so trees opened together
    /// share the pin — and root, length and every page read come from
    /// the images that commit epoch saw: the tree answers exactly that
    /// commit's state while writers keep committing, and refuses
    /// `insert`, `persist_as` and `destroy` with a typed error.
    pub fn open_named(pages: impl Into<ReadHandle>, name: &str) -> Result<Self> {
        let (nodes, entry) = PagedTree::open_named(pages, name)?;
        Ok(Self {
            nodes,
            space: Rect::from_bounds(&entry.bounds),
        })
    }

    /// The indexed space.
    pub fn space(&self) -> &Rect {
        &self.space
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.nodes.store()
    }

    /// Collects every point inserted so far (diagnostics and tests).
    pub fn enumerate(&self) -> Result<Vec<(Point, V)>> {
        self.nodes.enumerate()
    }

    /// Frees every page of the tree, leaving it unusable.
    pub fn destroy(self) -> Result<()> {
        self.nodes.destroy()
    }
}

impl BATree<f64> {
    /// Deep structural validation: every record's aggregation state
    /// (subtotal + borders) must balance exactly against the sibling
    /// subtrees a query would otherwise miss, at every node, recursively
    /// including spilled border trees. `O(n · fanout)` per level — for
    /// tests and debugging, not production paths.
    pub fn check_consistency(&self) -> Result<()> {
        ops::check_consistency(
            self.nodes.ctx(),
            self.space.dim(),
            &self.space,
            self.nodes.root,
        )
    }
}

impl<V: AggValue> DominanceSumIndex<V> for BATree<V> {
    fn dim(&self) -> usize {
        self.space.dim()
    }

    fn check_insert(&self, p: &Point, v: &V) -> Result<()> {
        check_insert(p, self.dim(), v)?;
        if !self.space.contains_point(p) {
            return Err(invalid_arg(format!(
                "point {p:?} outside the indexed space {:?}",
                self.space
            )));
        }
        Ok(())
    }

    fn insert(&mut self, p: Point, v: V) -> Result<()> {
        self.check_insert(&p, &v)?;
        debug_assert!(
            v.encoded_size() <= self.nodes.ctx().params.max_value_size,
            "value exceeds the configured max encoded size"
        );
        self.nodes.root = ops::tree_insert(
            self.nodes.ctx(),
            self.space.dim(),
            &self.space,
            self.nodes.root,
            p,
            v,
        )?;
        self.nodes.len += 1;
        Ok(())
    }

    fn dominance_sum(&self, q: &Point) -> Result<V> {
        check_query(q, self.dim())?;
        ops::tree_query(
            self.nodes.ctx(),
            self.space.dim(),
            &self.space,
            self.nodes.root,
            q,
        )
    }

    fn len(&self) -> usize {
        self.nodes.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{BorderRef, IndexRecord, Node};
    use boxagg_common::traits::NaiveDominanceIndex;
    use boxagg_pagestore::StoreConfig;
    use std::sync::Arc;

    fn unit_space(dim: usize) -> Rect {
        Rect::new(Point::zeros(dim), Point::splat(dim, 1.0))
    }

    fn small_tree(dim: usize, page_size: usize) -> BATree<f64> {
        let store = SharedStore::open(&StoreConfig::small(page_size, 64)).unwrap();
        BATree::create(store, unit_space(dim), 8).unwrap()
    }

    /// Deterministic pseudo-random f64 in [0, 1).
    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn empty_tree_queries_zero() {
        let t = small_tree(2, 512);
        assert_eq!(t.dominance_sum(&Point::new(&[0.5, 0.5])).unwrap(), 0.0);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn single_point_boundary_semantics() {
        let mut t = small_tree(2, 512);
        t.insert(Point::new(&[0.5, 0.5]), 2.0).unwrap();
        // Closed dominance: the query point itself is included.
        assert_eq!(t.dominance_sum(&Point::new(&[0.5, 0.5])).unwrap(), 2.0);
        assert_eq!(t.dominance_sum(&Point::new(&[0.4, 0.9])).unwrap(), 0.0);
        assert_eq!(t.dominance_sum(&Point::new(&[0.9, 0.4])).unwrap(), 0.0);
        assert_eq!(t.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(), 2.0);
    }

    #[test]
    fn duplicate_points_merge() {
        let mut t = small_tree(2, 512);
        for _ in 0..10 {
            t.insert(Point::new(&[0.3, 0.3]), 1.0).unwrap();
        }
        assert_eq!(t.dominance_sum(&Point::new(&[0.3, 0.3])).unwrap(), 10.0);
        assert_eq!(t.len(), 10);
        // All ten inserts merged into one leaf entry.
        assert_eq!(t.enumerate().unwrap().len(), 1);
    }

    #[test]
    fn rejects_out_of_space_and_wrong_dim() {
        let mut t = small_tree(2, 512);
        assert!(t.insert(Point::new(&[2.0, 0.5]), 1.0).is_err());
        assert!(t.insert(Point::new(&[0.5]), 1.0).is_err());
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(t.insert(Point::new(&[0.5, 0.5]), v).is_err(), "{v}");
        }
        assert!(t.is_empty());
        assert!(t.dominance_sum(&Point::new(&[0.1, 0.2, 0.3])).is_err());
    }

    #[test]
    fn queries_clamp_outside_space() {
        let mut t = small_tree(2, 512);
        t.insert(Point::new(&[0.2, 0.2]), 5.0).unwrap();
        // Above the space: same as querying the space corner.
        assert_eq!(t.dominance_sum(&Point::new(&[10.0, 10.0])).unwrap(), 5.0);
        // Below the space floor: nothing dominated.
        assert_eq!(t.dominance_sum(&Point::new(&[-1.0, 0.5])).unwrap(), 0.0);
    }

    #[test]
    fn a_nan_query_coordinate_is_refused_and_infinities_clamp() {
        let mut t = small_tree(2, 512);
        t.insert(Point::new(&[0.2, 0.3]), 1.0).unwrap();
        t.insert(Point::new(&[0.6, 0.4]), 2.0).unwrap();
        let nan = f64::NAN;
        for q in [[nan, 0.5], [0.5, nan], [nan, nan], [-nan, 1.0], [nan, -1.0]] {
            match t.dominance_sum(&Point::new(&q)) {
                Err(boxagg_common::Error::InvalidArgument(_)) => {}
                other => panic!("{q:?} answered {other:?}"),
            }
        }
        let inf = f64::INFINITY;
        assert_eq!(t.dominance_sum(&Point::new(&[inf, inf])).unwrap(), 3.0);
        assert_eq!(t.dominance_sum(&Point::new(&[inf, 0.35])).unwrap(), 1.0);
        assert_eq!(t.dominance_sum(&Point::new(&[-inf, inf])).unwrap(), 0.0);
    }

    #[test]
    fn two_threads_visiting_shared_leaf_slabs_answer_alike() {
        // 1-d leaves of ≈ 250 sorted entries: both threads make a page's
        // first visit (a scan of its bytes), its second (building the
        // running sums its frame keeps, which both then share) and its
        // later ones (answers from those sums) at once. The answers must
        // be those of a store that keeps nothing (every leaf visit a
        // scan of the bytes alone), to the bit.
        let mut s = 0x5AB5u64;
        let points: Vec<(Point, f64)> = (0..3000)
            .map(|_| (Point::new(&[rnd(&mut s)]), (rnd(&mut s) - 0.5) * 1e6))
            .collect();
        let queries: Vec<Point> = (0..60).map(|_| Point::new(&[rnd(&mut s)])).collect();
        let tree = |config: StoreConfig| -> BATree<f64> {
            let store = SharedStore::open(&config).unwrap();
            BATree::bulk_load(store, unit_space(1), 8, points.clone()).unwrap()
        };
        let scan = tree(StoreConfig {
            node_cache_pages: 0,
            ..StoreConfig::small(4096, 64)
        });
        let want: Vec<u64> = queries
            .iter()
            .map(|q| scan.dominance_sum(q).unwrap().to_bits())
            .collect();
        assert_eq!(scan.store().stats().decode_hits, 0, "nothing is kept");
        for _ in 0..20 {
            let shared = tree(StoreConfig::small(4096, 64));
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        barrier.wait();
                        for visit in 1..=3 {
                            for (q, want) in queries.iter().zip(&want) {
                                let got = shared.dominance_sum(q).unwrap().to_bits();
                                assert_eq!(got, *want, "visit {visit}, q {q:?}");
                            }
                        }
                    });
                }
            });
            assert!(
                shared.store().stats().decode_hits > 0,
                "the kept sums are shared"
            );
        }
    }

    /// `(leaf scans, sums built, codec runs, decode hits)` of one
    /// query, and its answer's bits.
    fn visit_counts(t: &BATree<f64>, q: &Point) -> ((u64, u64, u64, u64), u64) {
        let before = t.store().stats();
        let answer = t.dominance_sum(q).unwrap().to_bits();
        let d = t.store().stats().since(&before);
        let decodes = d.decode_misses - d.leaf_scans - d.sums_built;
        ((d.leaf_scans, d.sums_built, decodes, d.decode_hits), answer)
    }

    #[test]
    fn a_leaf_is_scanned_then_answers_from_kept_sums() {
        // A 1-d tree of a root and packed leaves, all resident: a query
        // reads the root and one leaf. The leaf is never decoded: its
        // first visit scans its bytes and keeps nothing, its second
        // builds the sums its frame keeps, and every later one answers
        // from them, a decode hit.
        const SCAN: (u64, u64, u64, u64) = (1, 0, 1, 0);
        const BUILD: (u64, u64, u64, u64) = (0, 1, 0, 1);
        const KEPT: (u64, u64, u64, u64) = (0, 0, 0, 2);
        let mut s = 0xF157u64;
        let points: Vec<(Point, f64)> = (0..2000)
            .map(|_| (Point::new(&[rnd(&mut s)]), (rnd(&mut s) - 0.5) * 1e3))
            .collect();
        let q = Point::new(&[0.61]);
        let tree = |config: StoreConfig| {
            let store = SharedStore::open(&config).unwrap();
            BATree::bulk_load(store, unit_space(1), 8, points.clone()).unwrap()
        };
        let kept = tree(StoreConfig::small(4096, 64));
        let (first, want) = visit_counts(&kept, &q);
        assert_eq!(first, SCAN, "visit 1: the leaf scans, the root decodes");
        let (second, got) = visit_counts(&kept, &q);
        assert_eq!(second, BUILD, "visit 2: the leaf builds its sums");
        assert_eq!(got, want);
        for visit in 3..=5 {
            let (later, got) = visit_counts(&kept, &q);
            assert_eq!(later, KEPT, "visit {visit}: both hit, nothing decodes");
            assert_eq!(got, want);
        }
        // A write drops the leaf's sums together with its bytes: the
        // leaf scans again, then builds, with one answer.
        let mut kept = kept;
        kept.insert(Point::new(&[0.6]), 2.5).unwrap();
        let (after, scanned) = visit_counts(&kept, &q);
        assert_eq!(
            (after.0, after.1),
            (1, 0),
            "the rewritten leaf scans: {after:?}"
        );
        let (next, built) = visit_counts(&kept, &q);
        assert_eq!(next, BUILD, "then builds");
        assert_eq!(visit_counts(&kept, &q), (KEPT, built));
        assert_eq!(scanned, built);
        assert_ne!(scanned, want, "the insert is in the answer");

        // An eviction drops them too: over a buffer of three frames, a
        // leaf the other leaves pushed out is at its first visit again.
        let small = tree(StoreConfig::small(4096, 3));
        assert_eq!(visit_counts(&small, &q), (SCAN, want));
        assert_eq!(visit_counts(&small, &q), (BUILD, want));
        for x in [0.05, 0.3, 0.95, 0.8] {
            small.dominance_sum(&Point::new(&[x])).unwrap();
        }
        assert_eq!(visit_counts(&small, &q), ((1, 0, 0, 1), want));
        small.store().validate().unwrap();

        // A store that keeps nothing scans every leaf visit, and decodes
        // the root every time.
        let bare = tree(StoreConfig {
            node_cache_pages: 0,
            ..StoreConfig::small(4096, 64)
        });
        for visit in 1..=3 {
            assert_eq!(visit_counts(&bare, &q), (SCAN, want), "visit {visit}");
        }

        // A pinned read follows the same rule, and a snapshot counts
        // only codec runs as decodes: the root's, once.
        let store = SharedStore::open(&StoreConfig::small(4096, 64).with_wal(true)).unwrap();
        let t = BATree::bulk_load(store.clone(), unit_space(1), 8, points.clone()).unwrap();
        t.persist_as("t").unwrap();
        store.commit().unwrap();
        let snap = Arc::new(store.snapshot().unwrap());
        let pinned: BATree<f64> = BATree::open_named(&snap, "t").unwrap();
        let visits = [(1, SCAN, 1), (2, BUILD, 0), (3, KEPT, 0), (4, KEPT, 0)];
        for (visit, counts, decodes) in visits {
            let before = snap.node_reads();
            let (got_counts, got) = visit_counts(&pinned, &q);
            let after = snap.node_reads();
            assert_eq!(got_counts, counts, "pinned visit {visit}");
            assert_eq!(got, want, "pinned visit {visit}");
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                (2, decodes),
                "pinned visit {visit}: snapshot node reads"
            );
        }
        // A second pin of the epoch shares the first one's entries.
        let again = Arc::new(store.snapshot().unwrap());
        let repinned: BATree<f64> = BATree::open_named(&again, "t").unwrap();
        assert_eq!(visit_counts(&repinned, &q), (KEPT, want));
    }

    #[test]
    fn a_1d_record_with_a_border_answers_corrupt() {
        // A 1-d tree of a root index page over packed leaves. Its first
        // record's border, always an empty held leaf, is rewritten as a
        // tree's root, then as a held entry: a query through the record
        // is refused as corrupt, where it once panicked projecting the
        // query onto no dimension.
        let mut s = 0x1DB0u64;
        let points: Vec<(Point, f64)> = (0..2000)
            .map(|_| (Point::new(&[rnd(&mut s)]), 1.0))
            .collect();
        let store = SharedStore::open(&StoreConfig::small(4096, 64)).unwrap();
        let t = BATree::bulk_load(store.clone(), unit_space(1), 8, points).unwrap();
        let ctx = t.nodes.ctx();
        let Node::Index(records) = ctx.read::<f64>(t.root_page(), 1).unwrap() else {
            panic!("a root leaf")
        };
        let q = records[0].rect.center();
        let mut page = boxagg_common::bytes::ByteWriter::new();
        Node::Index(records.clone()).encode(&ctx.layout, 1, &mut page);
        let page = page.into_vec();
        // Header, the first record's box and child, then its border.
        let at = 3 + Rect::encoded_size(1) + 8;
        assert_eq!(page[at..at + 3], [0, 0, 0], "an empty held leaf");
        let mut tree = vec![1];
        tree.extend(records[1].child.0.to_le_bytes());
        let mut entry = vec![0, 1, 0];
        entry.extend(2.0f64.to_le_bytes());
        for border in [tree, entry] {
            let mut bad = page.clone();
            bad.splice(at..at + 3, border);
            store.write_page(t.root_page(), &bad).unwrap();
            match t.dominance_sum(&q) {
                Err(boxagg_common::Error::Corrupt(_)) => {}
                other => panic!("{other:?}"),
            }
        }
    }

    fn compare_vs_naive(dim: usize, n: usize, page_size: usize, seed: u64) {
        let mut t = small_tree(dim, page_size);
        let mut oracle = NaiveDominanceIndex::new(dim);
        let mut s = seed;
        for i in 0..n {
            let p = Point::from_fn(dim, |_| rnd(&mut s));
            let v = (i % 7) as f64 - 3.0;
            t.insert(p, v).unwrap();
            oracle.insert(p, v).unwrap();
            if i % 50 == 0 {
                let q = Point::from_fn(dim, |_| rnd(&mut s));
                let got = t.dominance_sum(&q).unwrap();
                let want = oracle.dominance_sum(&q).unwrap();
                assert!(
                    (got - want).abs() < 1e-6,
                    "mid-build mismatch at i={i}: got {got}, want {want}"
                );
            }
        }
        for _ in 0..200 {
            let q = Point::from_fn(dim, |_| rnd(&mut s));
            let got = t.dominance_sum(&q).unwrap();
            let want = oracle.dominance_sum(&q).unwrap();
            assert!((got - want).abs() < 1e-6, "got {got}, want {want} at {q:?}");
        }
        // Every insert reached a leaf (lossless enumeration).
        assert_eq!(
            t.enumerate().unwrap().iter().map(|(_, v)| v).sum::<f64>(),
            oracle.points().iter().map(|(_, v)| v).sum::<f64>()
        );
    }

    #[test]
    fn matches_naive_1d_many_splits() {
        compare_vs_naive(1, 800, 256, 42);
    }

    #[test]
    fn matches_naive_2d_many_splits() {
        compare_vs_naive(2, 800, 256, 7);
    }

    #[test]
    fn matches_naive_2d_larger_pages() {
        compare_vs_naive(2, 1500, 1024, 99);
    }

    #[test]
    fn matches_naive_3d() {
        compare_vs_naive(3, 600, 512, 5);
    }

    #[test]
    fn matches_naive_4d() {
        compare_vs_naive(4, 350, 1024, 11);
    }

    #[test]
    fn clustered_points_force_uneven_splits() {
        // Heavy clustering exercises forced index splits and degenerate
        // medians.
        let mut t = small_tree(2, 256);
        let mut oracle = NaiveDominanceIndex::new(2);
        let mut s = 1234u64;
        for i in 0..600 {
            let cluster = (i % 3) as f64 * 0.3 + 0.1;
            let p = Point::new(&[cluster + rnd(&mut s) * 0.01, cluster + rnd(&mut s) * 0.01]);
            t.insert(p, 1.0).unwrap();
            oracle.insert(p, 1.0).unwrap();
        }
        for _ in 0..100 {
            let q = Point::from_fn(2, |_| rnd(&mut s));
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                oracle.dominance_sum(&q).unwrap()
            );
        }
    }

    #[test]
    fn grid_points_with_ties_on_split_planes() {
        // A regular grid creates many points exactly on split boundaries.
        let mut t = small_tree(2, 256);
        let mut oracle = NaiveDominanceIndex::new(2);
        for i in 0..20 {
            for j in 0..20 {
                let p = Point::new(&[i as f64 / 20.0, j as f64 / 20.0]);
                t.insert(p, 1.0).unwrap();
                oracle.insert(p, 1.0).unwrap();
            }
        }
        for i in 0..21 {
            for j in 0..21 {
                let q = Point::new(&[i as f64 / 20.0, j as f64 / 20.0]);
                assert_eq!(
                    t.dominance_sum(&q).unwrap(),
                    oracle.dominance_sum(&q).unwrap(),
                    "grid query {q:?}"
                );
            }
        }
    }

    #[test]
    fn boundary_clamped_points_stay_consistent() {
        // Regression: datasets clamped to the space boundary put many
        // points exactly at `space.high`, which can drive split values
        // onto the boundary and create a degenerate top slab whose box
        // overlaps its lower sibling under the top-closure rule. The
        // owner-selection rule must keep routing unambiguous; the deep
        // consistency checker validates every node and border tree.
        let mut t = small_tree(2, 2048);
        let mut oracle = NaiveDominanceIndex::new(2);
        let mut s = 77u64;
        for i in 0..500 {
            // ~1/3 of coordinates clamp to exactly 0.0 or 1.0.
            let c = |s: &mut u64| (rnd(s) * 3.0 - 1.0).clamp(0.0, 1.0);
            let p = Point::new(&[c(&mut s), c(&mut s)]);
            t.insert(p, 1.0 + (i % 3) as f64).unwrap();
            oracle.insert(p, 1.0 + (i % 3) as f64).unwrap();
            if i % 100 == 99 {
                t.check_consistency().unwrap();
            }
        }
        t.check_consistency().unwrap();
        // The space corners are the queries that exposed the bug.
        for q in [
            Point::new(&[1.0, 1.0]),
            Point::new(&[1.0, 0.5]),
            Point::new(&[0.5, 1.0]),
            Point::new(&[0.0, 0.0]),
            Point::new(&[1.0, 0.0]),
        ] {
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                oracle.dominance_sum(&q).unwrap(),
                "at {q:?}"
            );
        }
    }

    #[test]
    fn consistency_checker_passes_on_random_tree() {
        let mut t = small_tree(2, 512);
        let mut s = 123u64;
        for _ in 0..400 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        t.check_consistency().unwrap();
    }

    #[test]
    fn kept_sums_reflect_same_leaf_updates() {
        // Kept-sums invalidation, end to end: query a leaf until its
        // frame keeps its sums, insert into that same leaf (the write
        // drops the sums together with the bytes, and the visit), and
        // the next queries must see the new point — stale sums would
        // answer the old leaf.
        let mut t = small_tree(2, 512);
        t.insert(Point::new(&[0.4, 0.4]), 1.0).unwrap();
        let q = Point::new(&[0.9, 0.9]);
        assert_eq!(t.dominance_sum(&q).unwrap(), 1.0);
        // Same leaf (a single-node tree), repeatedly: insert, then four
        // queries — a scan of the bytes, a build of the sums and two
        // answers from them — each checking the sum after the update.
        for i in 2..=20u64 {
            t.insert(Point::new(&[0.4 + (i as f64) * 0.01, 0.4]), 1.0)
                .unwrap();
            let written = t.store().stats();
            for (visit, counts) in [
                (1, (1, 0, 0)),
                (2, (0, 1, 0)),
                (3, (0, 0, 1)),
                (4, (0, 0, 1)),
            ] {
                let before = t.store().stats();
                assert_eq!(
                    t.dominance_sum(&q).unwrap(),
                    i as f64,
                    "visit {visit} after insert #{i} must reflect the update"
                );
                let d = t.store().stats().since(&before);
                assert_eq!(d.decode_misses + d.decode_hits, 1, "one node read");
                assert_eq!(
                    (d.leaf_scans, d.sums_built, d.decode_hits),
                    counts,
                    "visit {visit} after insert #{i}: scan, build, kept, kept"
                );
            }
            let d = t.store().stats().since(&written);
            assert_eq!(d.decode_misses, d.leaf_scans + d.sums_built, "no decode");
        }
        assert!(
            t.store().stats().decode_invalidations >= 19,
            "every leaf write drops what its frame kept"
        );
    }

    #[test]
    fn destroy_frees_all_pages() {
        let store = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
        let baseline = store.live_pages();
        let mut t: BATree<f64> = BATree::create(store.clone(), unit_space(2), 8).unwrap();
        let mut s = 3u64;
        for _ in 0..400 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        assert!(store.live_pages() > baseline + 10);
        t.destroy().unwrap();
        assert_eq!(store.live_pages(), baseline);
    }

    #[test]
    fn bulk_load_matches_dynamic_and_is_consistent() {
        let mut s = 2024u64;
        let points: Vec<(Point, f64)> = (0..1500)
            .map(|i| (Point::from_fn(2, |_| rnd(&mut s)), (i % 7) as f64 + 0.5))
            .collect();
        let store_b = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        let bulk: BATree<f64> =
            BATree::bulk_load(store_b.clone(), unit_space(2), 8, points.clone()).unwrap();
        bulk.check_consistency().unwrap();
        let store_d = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        let mut dynamic: BATree<f64> = BATree::create(store_d.clone(), unit_space(2), 8).unwrap();
        for (p, v) in &points {
            dynamic.insert(*p, *v).unwrap();
        }
        for _ in 0..200 {
            let q = Point::from_fn(2, |_| rnd(&mut s));
            assert!(
                (bulk.dominance_sum(&q).unwrap() - dynamic.dominance_sum(&q).unwrap()).abs() < 1e-9,
                "bulk and dynamic disagree at {q:?}"
            );
        }
        // Bulk loading packs pages better than insert-and-split.
        assert!(store_b.live_pages() <= store_d.live_pages());
        assert_eq!(bulk.len(), 1500);
    }

    #[test]
    fn bulk_load_then_dynamic_inserts() {
        let mut s = 97u64;
        let points: Vec<(Point, f64)> = (0..800)
            .map(|_| (Point::from_fn(2, |_| rnd(&mut s)), 1.0))
            .collect();
        let store = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        let mut t: BATree<f64> =
            BATree::bulk_load(store, unit_space(2), 8, points.clone()).unwrap();
        let mut oracle = NaiveDominanceIndex::new(2);
        for (p, v) in points {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..500 {
            let p = Point::from_fn(2, |_| rnd(&mut s));
            t.insert(p, 2.0).unwrap();
            oracle.insert(p, 2.0).unwrap();
        }
        t.check_consistency().unwrap();
        for _ in 0..150 {
            let q = Point::from_fn(2, |_| rnd(&mut s));
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                oracle.dominance_sum(&q).unwrap()
            );
        }
    }

    #[test]
    fn bulk_load_3d_and_duplicates() {
        let mut s = 5u64;
        let mut points: Vec<(Point, f64)> = (0..600)
            .map(|_| {
                (
                    Point::from_fn(3, |_| (rnd(&mut s) * 10.0).floor() / 10.0),
                    1.0,
                )
            })
            .collect();
        points.extend(points.clone()); // force many duplicates
        let store = SharedStore::open(&StoreConfig::small(2048, 64)).unwrap();
        let t: BATree<f64> = BATree::bulk_load(store, unit_space(3), 8, points.clone()).unwrap();
        let mut oracle = NaiveDominanceIndex::new(3);
        for (p, v) in points {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..150 {
            let q = Point::from_fn(3, |_| rnd(&mut s));
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                oracle.dominance_sum(&q).unwrap()
            );
        }
    }

    #[test]
    fn bulk_load_empty_and_rejects_escapees() {
        let store = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        let t: BATree<f64> = BATree::bulk_load(store, unit_space(2), 8, vec![]).unwrap();
        assert_eq!(t.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(), 0.0);
        let store = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        assert!(BATree::bulk_load(
            store,
            unit_space(2),
            8,
            vec![(Point::new(&[2.0, 0.5]), 1.0)]
        )
        .is_err());
        let store = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
        let points = vec![
            (Point::new(&[0.5, 0.5]), 1.0),
            (Point::new(&[0.2, 0.5]), f64::NAN),
        ];
        assert!(BATree::bulk_load(store.clone(), unit_space(2), 8, points).is_err());
        assert_eq!(
            store.allocated_pages(),
            0,
            "refused before a page is written"
        );
    }

    #[test]
    fn corrupt_pages_error_instead_of_panicking() {
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let mut t: BATree<f64> = BATree::create(store.clone(), unit_space(2), 8).unwrap();
        let mut s = 4u64;
        for _ in 0..200 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        // Stomp the root page with garbage: queries must surface a
        // corruption error, not panic or return wrong data silently.
        store.write_page(t.root_page(), &[0xFF; 64]).unwrap();
        let err = t.dominance_sum(&Point::new(&[0.5, 0.5])).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "got: {err}");
        let err = t.insert(Point::new(&[0.5, 0.5]), 1.0).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "got: {err}");
    }

    #[test]
    fn snapshot_queries_are_stable_under_later_commits() {
        let store = SharedStore::open(&StoreConfig::small(512, 64).with_wal(true)).unwrap();
        let mut t: BATree<f64> = BATree::create(store.clone(), unit_space(2), 8).unwrap();
        let mut s = 21u64;
        for _ in 0..200 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        t.persist_as("t").unwrap();
        store.commit().unwrap();

        let snap = Arc::new(store.snapshot().unwrap());
        let frozen: BATree<f64> = BATree::open_named(&snap, "t").unwrap();
        assert_eq!(frozen.len(), 200);
        let q = Point::new(&[0.8, 0.8]);
        let want = frozen.dominance_sum(&q).unwrap();
        assert_eq!(t.dominance_sum(&q).unwrap(), want);

        // Keep inserting and committing: splits rewrite, free and
        // reallocate pages the pinned epoch still needs.
        for i in 0..300 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
            if i % 60 == 59 {
                t.persist_as("t").unwrap();
                store.commit().unwrap();
            }
        }
        t.persist_as("t").unwrap();
        store.commit().unwrap();

        // The snapshot still answers from its epoch — root, length and
        // every page image are the pinned commit's.
        assert_eq!(frozen.dominance_sum(&q).unwrap(), want);
        let refrozen: BATree<f64> = BATree::open_named(&snap, "t").unwrap();
        assert_eq!(refrozen.len(), 200);
        assert_eq!(refrozen.dominance_sum(&q).unwrap(), want);
        // The live tree has moved on.
        assert!(t.dominance_sum(&q).unwrap() > want);
        drop(snap);
        store.validate().unwrap();
    }

    #[test]
    fn pinned_reads_match_the_serial_schedule_while_a_writer_commits() {
        // The same seeded rounds twice, each on a file-backed WAL
        // store. Serially first, recording every committed state's
        // answers under the tree length its catalog entry carries
        // (unique per round); then with a writer replaying the rounds
        // while two reader threads keep pinning the current epoch and
        // reopening the catalogued tree there — so one reader's pins
        // fill the committed-image cache with an epoch the other may
        // already be behind. Whatever epoch a pin lands on —
        // mid-transaction or inside a commit's fsync — its answers must
        // be that committed state's, bit for bit.
        const ROUNDS: usize = 6;
        let mut s = 33u64;
        let mut points = |n: usize| -> Vec<(Point, f64)> {
            (0..n)
                .map(|_| (Point::from_fn(2, |_| rnd(&mut s)), rnd(&mut s) * 1000.0))
                .collect()
        };
        let base = points(400);
        let rounds: Vec<_> = (0..ROUNDS).map(|_| points(50)).collect();
        let queries: Vec<Point> = std::iter::once(Point::new(&[1.0, 1.0]))
            .chain(points(23).into_iter().map(|(p, _)| p))
            .collect();

        let dir = boxagg_common::tempdir::tempdir().unwrap();
        let open_with_base = |file: &str| {
            let config = StoreConfig {
                backing: boxagg_pagestore::Backing::File(dir.path().join(file)),
                ..StoreConfig::small(512, 64).with_wal(true)
            };
            let store = SharedStore::open(&config).unwrap();
            let mut t: BATree<f64> = BATree::create(store.clone(), unit_space(2), 8).unwrap();
            apply_round(&store, &mut t, &base);
            (store, t)
        };
        fn apply_round(store: &SharedStore, t: &mut BATree<f64>, round: &[(Point, f64)]) {
            for (p, v) in round {
                t.insert(*p, *v).unwrap();
            }
            t.persist_as("t").unwrap();
            store.commit().unwrap();
        }
        let answers = |t: &BATree<f64>| -> Vec<u64> {
            queries
                .iter()
                .map(|q| t.dominance_sum(q).unwrap().to_bits())
                .collect()
        };

        let (store, mut t) = open_with_base("serial.pages");
        let mut serial = std::collections::HashMap::new();
        serial.insert(t.len(), answers(&t));
        for round in &rounds {
            apply_round(&store, &mut t, round);
            serial.insert(t.len(), answers(&t));
        }
        assert_eq!(serial.len(), ROUNDS + 1, "one answer set per commit");

        let (store, mut t) = open_with_base("mixed.pages");
        // One pinned read of the whole query set; returns its epoch.
        let pinned_pass = || {
            let snap = Arc::new(store.snapshot().unwrap());
            let frozen: BATree<f64> = BATree::open_named(&snap, "t").unwrap();
            let want = serial.get(&frozen.len()).unwrap_or_else(|| {
                panic!(
                    "epoch {} sees length {}, which no serial commit produced",
                    snap.epoch(),
                    frozen.len()
                )
            });
            assert_eq!(&answers(&frozen), want, "epoch {}", snap.epoch());
            snap.epoch()
        };
        let first_epoch = pinned_pass();
        let writer_done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last_epoch = first_epoch;
                        while !writer_done.load(std::sync::atomic::Ordering::SeqCst) {
                            let epoch = pinned_pass();
                            assert!(epoch >= last_epoch, "epochs are monotone");
                            last_epoch = epoch;
                        }
                    })
                })
                .collect();
            // Set on the way out, by return or by a failed commit: the
            // readers must stop either way.
            struct Done<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for Done<'_> {
                fn drop(&mut self) {
                    self.0.store(true, std::sync::atomic::Ordering::SeqCst);
                }
            }
            let done = Done(&writer_done);
            for round in &rounds {
                apply_round(&store, &mut t, round);
            }
            drop(done);
            for reader in readers {
                reader.join().expect("reader thread");
            }
        });
        // The final committed state, with no writer alive.
        assert_eq!(pinned_pass(), first_epoch + ROUNDS as u64);
        store.validate().unwrap();
    }

    /// `(entries per leaf, index pages)` of the 1-d tree at `root`, in
    /// key order.
    fn leaf_sizes(ctx: ops::Ctx<'_>, root: PageId) -> (Vec<usize>, usize) {
        let (mut leaves, mut index) = (Vec::new(), 0);
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match &*ctx.read_shared::<f64>(id, 1).unwrap() {
                Node::Leaf(slab) => leaves.push(slab.len()),
                Node::Index(records) => {
                    index += 1;
                    stack.extend(records.iter().rev().map(|r| r.child));
                }
            }
        }
        (leaves, index)
    }

    #[test]
    fn the_1d_packer_spreads_entries_over_as_few_leaves_as_full_packing() {
        let space = unit_space(1);
        let probe: BATree<f64> = small_tree(1, 256);
        let (cap, index_cap) = (
            probe.nodes.ctx().leaf_cap(1),
            probe.nodes.ctx().index_cap(1),
        );
        assert!(cap > 4 && index_cap > 2, "cap {cap}, index cap {index_cap}");
        let mut s = 0x9AC4u64;
        let sizes = [
            0,
            1,
            cap,
            cap + 1,
            2 * cap + 1,
            3 * cap - 1,
            cap * index_cap + 1,
        ];
        for n in sizes {
            let t: BATree<f64> = small_tree(1, 256);
            let ctx = t.nodes.ctx();
            // Distinct ascending keys and small integer values, so every
            // sum is exact whatever order it adds in.
            let entries: Vec<(f64, f64)> = (0..n)
                .map(|i| {
                    (
                        (i as f64 + rnd(&mut s)) / n as f64,
                        (rnd(&mut s) * 64.0).floor() - 32.0,
                    )
                })
                .collect();
            let before = t.store().allocated_pages();
            let border = ops::bulk_build_1d(ctx, &space, entries.iter().copied()).unwrap();
            let written = t.store().allocated_pages() - before;
            // 256-byte pages hold no index node in a record.
            let BorderRef::Tree(root) = border else {
                assert!(n == 0 && border.is_empty(), "no entries, no tree");
                assert_eq!(written, 0);
                continue;
            };
            let (leaves, index) = leaf_sizes(ctx, root);
            assert_eq!(leaves.len(), n.div_ceil(cap), "n = {n}: leaves");
            assert_eq!(leaves.iter().sum::<usize>(), n, "n = {n}: entries");
            let (lo, hi) = (leaves.iter().min().unwrap(), leaves.iter().max().unwrap());
            assert!(hi - lo <= 1, "n = {n}: leaf sizes {leaves:?}");
            assert_eq!(written, (leaves.len() + index) as u64, "n = {n}: pages");
            ops::check_consistency(ctx, 1, &space, root).unwrap();
            let keys = entries.iter().map(|e| e.0);
            let probes = keys
                .clone()
                .chain(keys.map(f64::next_down))
                .chain([0.0, 1.0]);
            for q in probes {
                let want: f64 = entries.iter().filter(|e| e.0 <= q).map(|e| e.1).sum();
                let got: f64 = ops::tree_query(ctx, 1, &space, root, &Point::new(&[q])).unwrap();
                assert_eq!(got, want, "n = {n}, q = {q}");
            }
        }
    }

    /// Bulk-loads `n` seeded 2-d points at `page_size`, then inserts
    /// `batch` more one by one; returns the pages the load allocated
    /// and the pages the inserts did, after a consistency check.
    fn grow_a_bulk_load(page_size: usize, n: usize, batch: usize) -> (u64, u64) {
        let mut s = 0x6A0Fu64;
        let points: Vec<(Point, f64)> = (0..n)
            .map(|_| (Point::from_fn(2, |_| rnd(&mut s)), 1.0 + rnd(&mut s) * 99.0))
            .collect();
        let store = SharedStore::open(&StoreConfig::small(page_size, 64)).unwrap();
        let mut t: BATree<f64> =
            BATree::bulk_load(store.clone(), unit_space(2), 8, points).unwrap();
        let loaded = store.allocated_pages();
        for _ in 0..batch {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        t.check_consistency().unwrap();
        (loaded, store.allocated_pages() - loaded)
    }

    #[test]
    fn inserts_into_a_bulk_loaded_tree_find_room_in_its_border_leaves() {
        // At 512-byte pages no border is inline, and the borders of the
        // upper index records hold hundreds of points: 1-d trees of
        // several leaves each. An insert adds an entry to a leaf of
        // most of the borders on its path; a full leaf splits there.
        const BATCH: usize = 200;
        let (loaded, grown) = grow_a_bulk_load(512, 6000, BATCH);
        // The bound sits between what these inserts allocate with the
        // border leaves filled evenly (256 pages) and with each leaf
        // filled to capacity but a border's last (539), over the same
        // 2,348-page load cut at medians. Cut at the fill targets, the
        // load is 1,754 pages and these inserts allocate 254.
        assert!(
            grown <= 3 * BATCH as u64 / 2,
            "{BATCH} inserts allocated {grown} pages over a {loaded}-page load"
        );
    }

    #[test]
    fn inserts_into_a_bulk_loaded_tree_at_8k_pages_grow_it_boundedly() {
        // The benchmark's page size. Both bounds are what the loader
        // that halved cells at medians measured (1,261 + 222 pages): a
        // partition that saves pages at load must not pay them back as
        // these inserts split what it packed.
        const BATCH: usize = 2000;
        let (loaded, grown) = grow_a_bulk_load(8192, 50_000, BATCH);
        assert!(
            grown <= 222 && loaded + grown <= 1261 + 222,
            "{BATCH} inserts allocated {grown} pages over a {loaded}-page load"
        );
    }

    /// What a border is: a held leaf of so many entries, a tree's root
    /// leaf, a root index page of so many records, or a held index node
    /// (a directory) of so many.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Shape {
        Inline(usize),
        Leaf,
        Page(usize),
        Dir(usize),
    }

    fn shape(ctx: ops::Ctx<'_>, border: &BorderRef<f64>) -> Shape {
        match border {
            BorderRef::Held(Node::Leaf(entries)) => Shape::Inline(entries.len()),
            BorderRef::Held(Node::Index(records)) => Shape::Dir(records.len()),
            BorderRef::Tree(root) => match &*ctx.read_shared::<f64>(*root, 1).unwrap() {
                Node::Leaf(_) => Shape::Leaf,
                Node::Index(records) => Shape::Page(records.len()),
            },
        }
    }

    /// The shape of every border of every index record of the 2-d tree
    /// at `root`.
    fn border_shapes(ctx: ops::Ctx<'_>, root: PageId) -> Vec<Shape> {
        let mut shapes = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if let Node::Index(records) = &*ctx.read_shared::<f64>(id, 2).unwrap() {
                for r in records {
                    shapes.extend(r.borders.iter().map(|b| shape(ctx, b)));
                    stack.push(r.child);
                }
            }
        }
        shapes
    }

    #[test]
    fn bulk_loaded_nodes_keep_their_fill_targets() {
        use crate::bulk::{fill, INDEX_FILL, LEAF_FILL};
        // Distinct random coordinates, so no run of equal ones forces a
        // leaf past its target. 1 KB pages make a 2-d tree three levels
        // deep and give a 3-d tree's borders 2-d trees of index pages.
        let mut s = 0xF111u64;
        for dim in [2, 3] {
            let points: Vec<(Point, f64)> = (0..20_000)
                .map(|_| (Point::from_fn(dim, |_| rnd(&mut s)), 1.0))
                .collect();
            let store = SharedStore::open(&StoreConfig::small(1024, 64)).unwrap();
            let t: BATree<f64> = BATree::bulk_load(store, unit_space(dim), 8, points).unwrap();
            let ctx = t.nodes.ctx();
            // Every node of the tree and of its border trees of two or
            // more dimensions: (dimension, page, whether it is a top).
            let mut stack = vec![(dim, t.root_page(), true)];
            let (mut below_top, mut border_pages, mut border_records) = (0, 0, 0);
            while let Some((d, id, top)) = stack.pop() {
                match &*ctx.read_shared::<f64>(id, d).unwrap() {
                    Node::Leaf(slab) if !top => {
                        let most = fill(LEAF_FILL, ctx.leaf_cap(d));
                        assert!(slab.len() <= most, "{d}-d leaf of {}", slab.len());
                    }
                    Node::Leaf(_) => {}
                    Node::Index(records) => {
                        if !top {
                            let most = fill(INDEX_FILL, ctx.index_cap(d));
                            assert!(records.len() <= most, "{d}-d node of {}", records.len());
                            below_top += 1;
                        }
                        if d < dim {
                            border_pages += 1;
                            border_records += records.len();
                        }
                        for r in records {
                            stack.push((d, r.child, false));
                            for b in r.borders.iter().filter(|_| d > 2) {
                                if let BorderRef::Tree(root) = b {
                                    stack.push((d - 1, *root, true));
                                }
                            }
                        }
                    }
                }
            }
            assert!(below_top > 0, "{dim}-d: no index node below a top");
            if dim == 3 {
                // 823 2-d border index pages at a mean fill of 37.3 %
                // (of 15 records).
                assert_eq!(ctx.index_cap(2), 15);
                assert_eq!((border_pages, border_records), (823, 4608));
            }
            t.check_consistency().unwrap();
        }
    }

    /// Seeded 2-d points with small integer values, so every sum is
    /// exact whatever order it adds in.
    fn integer_points(n: usize, s: &mut u64) -> Vec<(Point, f64)> {
        (0..n)
            .map(|_| {
                (
                    Point::from_fn(2, |_| rnd(s)),
                    (rnd(s) * 64.0).floor() - 20.0,
                )
            })
            .collect()
    }

    #[test]
    fn directories_cap_per_page_size() {
        // The most records a 1-d border tree's top level keeps in its
        // record, for scalars and for the functional engine's smallest
        // tuples (degree 0).
        let tuple = boxagg_common::poly::max_poly_encoded_size(2, 1);
        for (page_size, scalars, tuples) in [
            (512, 0, 0),
            (2048, 0, 0),
            (4096, 0, 0),
            (8192, 3, 0),
            (16384, 8, 1),
        ] {
            let cap = |value_size: usize| {
                let store = SharedStore::open(&StoreConfig::small(page_size, 8)).unwrap();
                let t: BATree<f64> = BATree::create(store, unit_space(2), value_size).unwrap();
                let ctx = t.nodes.ctx();
                assert_eq!(ctx.layout.dir_cap(2), 0, "only 1-d border trees");
                ctx.layout.dir_cap(1)
            };
            assert_eq!(
                (cap(8), cap(tuple)),
                (scalars, tuples),
                "{page_size}-byte pages"
            );
        }
    }

    #[test]
    fn directories_after_a_bulk_load_hold_every_small_border_top() {
        let mut s = 0xD12u64;
        let points = integer_points(40_000, &mut s);
        let store = SharedStore::open(&StoreConfig::small(8192, 64)).unwrap();
        let t: BATree<f64> = BATree::bulk_load(store, unit_space(2), 8, points.clone()).unwrap();
        let ctx = t.nodes.ctx();
        let k = ctx.layout.dir_cap(1);
        assert_eq!(k, 3);
        let shapes = border_shapes(ctx, t.root_page());
        let small_pages: Vec<&Shape> = shapes
            .iter()
            .filter(|s| matches!(s, Shape::Page(c) if *c <= k))
            .collect();
        assert!(
            small_pages.is_empty(),
            "root pages of ≤ {k} records: {small_pages:?}"
        );
        for c in 2..=k {
            assert!(
                shapes.contains(&Shape::Dir(c)),
                "no directory of {c}: {shapes:?}"
            );
        }
        t.check_consistency().unwrap();
        let mut oracle = NaiveDominanceIndex::new(2);
        for (p, v) in points {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..200 {
            let q = Point::from_fn(2, |_| rnd(&mut s));
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                oracle.dominance_sum(&q).unwrap()
            );
        }
    }

    #[test]
    fn directories_grow_from_a_split_leaf_and_spill_at_four_records() {
        // Points left of a record over [0.5, 1] × [0, 1] all land in its
        // border 0, a 1-d tree over y. Its record sits in a one-record
        // root page, so the tree answers what the border holds.
        let t = small_tree(2, 8192);
        let (ctx, space) = (t.nodes.ctx(), unit_space(2));
        let mut rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.5, 1.0), (0.0, 1.0)]),
            child: ctx.new_leaf::<f64>(2).unwrap(),
            subtotal: 0.0,
            borders: vec![BorderRef::empty(1); 2],
        };
        let root = ctx.new_leaf::<f64>(2).unwrap();
        let mut s = 0x61D5u64;
        let mut inserted: Vec<(f64, f64)> = Vec::new();
        // (shape reached, pages the insert that reached it allocated)
        let mut steps = vec![(Shape::Inline(0), 0)];
        while !matches!(steps.last(), Some((Shape::Page(_), _))) {
            let (y, v) = (rnd(&mut s), (rnd(&mut s) * 64.0).floor());
            let before = t.store().allocated_pages();
            ops::register_against(ctx, 2, &space, &mut rec, &Point::new(&[0.25, y]), &v).unwrap();
            inserted.push((y, v));
            let grown = t.store().allocated_pages() - before;
            let now = match shape(ctx, &rec.borders[0]) {
                Shape::Inline(_) => Shape::Inline(0),
                other => other,
            };
            let moved = steps.last().unwrap().0 != now;
            if moved {
                steps.push((now, grown));
            } else {
                assert_eq!(grown, 0, "an insert that splits nothing allocates nothing");
            }
            if moved || inserted.len().is_multiple_of(97) {
                ctx.write(root, 2, &Node::Index(vec![rec.clone()])).unwrap();
                for y in [0.0, rnd(&mut s), y, y.next_down(), 1.0] {
                    let want: f64 = inserted.iter().filter(|e| e.0 <= y).map(|e| e.1).sum();
                    let q = Point::new(&[0.75, y]);
                    let got: f64 = ops::tree_query(ctx, 2, &space, root, &q).unwrap();
                    assert_eq!(got, want, "after {} inserts, y = {y}", inserted.len());
                }
            }
        }
        // The spill makes one leaf; each leaf split makes one leaf more;
        // only the fourth record takes a root page.
        let want = [
            (Shape::Inline(0), 0),
            (Shape::Leaf, 1),
            (Shape::Dir(2), 1),
            (Shape::Dir(3), 1),
            (Shape::Page(4), 2),
        ];
        assert_eq!(steps, want);
        let BorderRef::Tree(border) = rec.borders[0] else {
            unreachable!()
        };
        ops::check_consistency(ctx, 1, &space.drop_dim(0), border).unwrap();
    }

    #[test]
    fn directories_answer_as_a_scan_after_deletes_reopen_and_pins() {
        // A bulk load at 8 KB over a buffer of a few pages, then rounds
        // of inserts and deletes (an insert of the negated value), each
        // committed: the live tree, the tree reopened through the
        // catalog and a pin of each commit answer what a scan does.
        let mut s = 0xDE1u64;
        let points = integer_points(30_000, &mut s);
        let store = SharedStore::open(&StoreConfig::small(8192, 16).with_wal(true)).unwrap();
        let mut t: BATree<f64> =
            BATree::bulk_load(store.clone(), unit_space(2), 8, points.clone()).unwrap();
        let mut live = points.clone();
        let queries: Vec<Point> = (0..60)
            .map(|_| Point::from_fn(2, |_| rnd(&mut s)))
            .chain([Point::new(&[1.0, 1.0])])
            .collect();
        let scan = |objects: &[(Point, f64)]| -> Vec<f64> {
            queries
                .iter()
                .map(|q| {
                    objects
                        .iter()
                        .filter(|(p, _)| p.dominated_by(q))
                        .map(|(_, v)| v)
                        .sum()
                })
                .collect()
        };
        let answers = |t: &BATree<f64>| -> Vec<f64> {
            queries
                .iter()
                .map(|q| t.dominance_sum(q).unwrap())
                .collect()
        };
        let mut pins = Vec::new();
        for round in 0..4 {
            for i in 0..400usize {
                let (p, v) = if i.is_multiple_of(3) {
                    let (p, v) = live[(round * 977 + i * 31) % points.len()];
                    (p, -v)
                } else {
                    integer_points(1, &mut s)[0]
                };
                t.insert(p, v).unwrap();
                live.push((p, v));
            }
            t.persist_as("t").unwrap();
            store.commit().unwrap();
            let want = scan(&live);
            assert_eq!(answers(&t), want, "round {round}: live");
            let reopened: BATree<f64> = BATree::open_named(store.clone(), "t").unwrap();
            assert_eq!(answers(&reopened), want, "round {round}: reopened");
            let snap = Arc::new(store.snapshot().unwrap());
            pins.push((BATree::<f64>::open_named(&snap, "t").unwrap(), want, snap));
            for (pinned, want, _) in &pins {
                assert_eq!(&answers(pinned), want, "round {round}: a pin");
            }
        }
        t.check_consistency().unwrap();
        let shapes = border_shapes(t.nodes.ctx(), t.root_page());
        assert!(shapes.iter().any(|s| matches!(s, Shape::Dir(_))));
        drop(pins);
        store.validate().unwrap();
    }
}
