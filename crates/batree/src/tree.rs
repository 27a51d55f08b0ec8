//! Public BA-tree interface.

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::traits::{check_insert, check_query, DominanceSumIndex};
use boxagg_common::value::AggValue;
use boxagg_pagestore::{PageId, ReadHandle, RootEntry, RootKind, SharedStore};

use crate::bulk;
use crate::node::BaParams;
use crate::ops::{self, Ctx};

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
    /// Where pages come from: the live store, or the pinned epoch the
    /// tree was opened at (read-only).
    pages: ReadHandle,
    params: BaParams,
    space: Rect,
    root: PageId,
    len: usize,
    _marker: std::marker::PhantomData<V>,
}

impl<V: AggValue> BATree<V> {
    /// Creates an empty BA-tree over `space`.
    ///
    /// `max_value_size` bounds the encoded size of any value that will be
    /// inserted (8 for `f64`; use
    /// [`max_poly_encoded_size`](boxagg_common::poly::max_poly_encoded_size)
    /// for polynomial tuples). It determines node fanout.
    pub fn create(store: SharedStore, space: Rect, max_value_size: usize) -> Result<Self> {
        let mut tree = Self::open_in(store.into(), space, max_value_size, PageId::NULL, 0)?;
        tree.root = ops::tree_new::<V>(tree.ctx(), space.dim())?;
        Ok(tree)
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
        let mut tree = Self::open_in(
            store.into(),
            space,
            max_value_size,
            PageId::NULL,
            points.len(),
        )?;
        for (p, v) in &points {
            tree.check_insert(p, v)?;
        }
        tree.root = if points.is_empty() {
            ops::tree_new::<V>(tree.ctx(), space.dim())?
        } else {
            bulk::bulk_build(tree.ctx(), &space, points)?
        };
        Ok(tree)
    }

    fn open_in(
        pages: ReadHandle,
        space: Rect,
        max_value_size: usize,
        root: PageId,
        len: usize,
    ) -> Result<Self> {
        let params = BaParams {
            page_size: pages.store().payload_size(),
            max_value_size,
        };
        params.validate(space.dim())?;
        Ok(Self {
            pages,
            params,
            space,
            root,
            len,
            _marker: std::marker::PhantomData,
        })
    }

    /// The root page id (what [`persist_as`](Self::persist_as) records).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Publishes this tree under `name` in the store's superblock
    /// catalog, so [`open_named`](Self::open_named) can reopen it with
    /// no out-of-band state. Durable at the store's next
    /// [`commit`](SharedStore::commit) (or flush), together with the
    /// tree pages themselves. Call again after mutations to refresh the
    /// recorded root and length.
    pub fn persist_as(&self, name: &str) -> Result<()> {
        let d = self.space.dim();
        self.pages.writable()?.set_root(
            name,
            RootEntry {
                root: self.root,
                len: self.len as u64,
                dims: d as u32,
                max_value_size: self.params.max_value_size as u32,
                kind: RootKind::BaTree,
                bounds: (0..d)
                    .map(|i| (self.space.low().get(i), self.space.high().get(i)))
                    .collect(),
            },
        )
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
        let pages = pages.into();
        let entry = pages
            .root(name)?
            .ok_or_else(|| invalid_arg(format!("no root named {name:?} in the store catalog")))?;
        if entry.kind != RootKind::BaTree {
            return Err(invalid_arg(format!(
                "root {name:?} is a {:?}, not a BA-tree",
                entry.kind
            )));
        }
        let space = Rect::from_bounds(&entry.bounds);
        Self::open_in(
            pages,
            space,
            entry.max_value_size as usize,
            entry.root,
            entry.len as usize,
        )
    }

    /// The indexed space.
    pub fn space(&self) -> &Rect {
        &self.space
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.pages.store()
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            pages: &self.pages,
            params: &self.params,
        }
    }

    /// Collects every point inserted so far (diagnostics and tests).
    pub fn enumerate(&self) -> Result<Vec<(Point, V)>> {
        let mut out = Vec::new();
        ops::tree_enumerate(self.ctx(), self.space.dim(), self.root, &mut out)?;
        Ok(out)
    }

    /// Frees every page of the tree, leaving it unusable.
    pub fn destroy(self) -> Result<()> {
        ops::tree_free::<V>(self.ctx(), self.space.dim(), self.root)
    }
}

impl BATree<f64> {
    /// Deep structural validation: every record's aggregation state
    /// (subtotal + borders) must balance exactly against the sibling
    /// subtrees a query would otherwise miss, at every node, recursively
    /// including spilled border trees. `O(n · fanout)` per level — for
    /// tests and debugging, not production paths.
    pub fn check_consistency(&self) -> Result<()> {
        ops::check_consistency(self.ctx(), self.space.dim(), &self.space, self.root)
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
            v.encoded_size() <= self.params.max_value_size,
            "value exceeds the configured max encoded size"
        );
        self.root = ops::tree_insert(self.ctx(), self.space.dim(), &self.space, self.root, p, v)?;
        self.len += 1;
        Ok(())
    }

    fn dominance_sum(&self, q: &Point) -> Result<V> {
        check_query(q, self.dim())?;
        ops::tree_query(self.ctx(), self.space.dim(), &self.space, self.root, q)
    }

    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // 1-d leaves of ≈ 250 sorted entries, decoded once and shared:
        // both threads make their first, second and later visits to the
        // same decodes at once, which is when the running sums are built.
        // The answers must be those of a store that keeps no decodes
        // (every visit a first visit: a plain scan), to the bit.
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
        assert_eq!(scan.store().stats().decode_hits, 0, "every visit decodes");
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
                "the decodes are shared"
            );
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
    fn cached_nodes_reflect_same_leaf_updates() {
        // Decoded-node cache invalidation, end to end: query a leaf so
        // its decode is cached, insert into that same leaf (the write
        // bumps the page generation), and the next query must see the
        // new point — a stale cached decode would drop it.
        let mut t = small_tree(2, 512);
        t.insert(Point::new(&[0.4, 0.4]), 1.0).unwrap();
        let q = Point::new(&[0.9, 0.9]);
        assert_eq!(t.dominance_sum(&q).unwrap(), 1.0);
        let warm = t.store().stats();
        assert!(warm.decode_misses > 0, "first query decodes the root leaf");
        // Same leaf (single-node tree), repeatedly: query → insert →
        // query, checking the running sum after every update.
        for i in 2..=20u64 {
            t.insert(Point::new(&[0.4 + (i as f64) * 0.01, 0.4]), 1.0)
                .unwrap();
            assert_eq!(
                t.dominance_sum(&q).unwrap(),
                i as f64,
                "query after insert #{i} must reflect the update"
            );
        }
        let st = t.store().stats();
        assert!(st.decode_hits > 0, "warm queries hit the decoded cache");
        assert!(
            st.decode_invalidations > 0,
            "leaf writes must bump the generation"
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
}
