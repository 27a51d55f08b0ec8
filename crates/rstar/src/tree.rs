//! The disk-based R*-tree / aR-tree.

use std::sync::Arc;

use boxagg_common::error::{corrupt, invalid_arg, Result};
use boxagg_common::geom::{Rect, MAX_DIM};
use boxagg_common::poly::Poly;
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::paged::{self, Ar, ArRecord, Ctx, PagedTree};
use boxagg_pagestore::{PageId, SharedStore};

use crate::split::{rstar_split, HasRect};

/// Every node of the tree sits at `at = 0`: [`Ar`] has one shape.
pub(crate) const AT: usize = 0;

/// A leaf value: the object's scalar aggregate (its value, or its
/// functional mass) and its payload — `[agg: f64][payload]` on the page.
pub(crate) type Value<L> = (f64, L);

/// A decoded aR-tree node.
pub(crate) type Node<L> = paged::Node<Value<L>, Ar>;

/// One object while a node is rebuilt: its box and value.
pub(crate) type Object<L> = (Rect, Value<L>);

impl<L> HasRect for (Rect, L) {
    fn rect(&self) -> &Rect {
        &self.0
    }
}

impl HasRect for ArRecord {
    fn rect(&self) -> &Rect {
        &self.rect
    }
}

/// The box of leaf entry `i` of `slab`: `Corrupt` when its corners are
/// out of order, as an index record's would be.
fn leaf_rect<L: AggValue>(slab: &EntrySlab<Value<L>>, i: usize) -> Result<Rect> {
    Rect::from_corner_point(&slab.point(i))
}

/// A leaf of `objects`, `dim`-dimensional boxes, in order.
pub(crate) fn leaf<L: AggValue>(dim: usize, objects: &[Object<L>]) -> Node<L> {
    let mut slab = EntrySlab::with_capacity(2 * dim, objects.len());
    for (rect, v) in objects {
        slab.push(&rect.corner_point(), v.clone());
    }
    Node::Leaf(slab)
}

/// The parent record of `node` at page `child`: the node's bounding box,
/// aggregate and object count. Only the root may be empty, and it has no
/// parent: an empty node here is `Corrupt`, as is a count past `u64`.
pub(crate) fn summarize<L: AggValue>(child: PageId, node: &Node<L>) -> Result<ArRecord> {
    match node {
        Node::Leaf(slab) if !slab.is_empty() => {
            let mut rect = leaf_rect(slab, 0)?;
            let mut agg = 0.0;
            for i in 0..slab.len() {
                rect = rect.union(&leaf_rect(slab, i)?);
                agg += slab.value(i).0;
            }
            let count = slab.len() as u64;
            Ok(ArRecord {
                rect,
                child,
                agg,
                count,
            })
        }
        Node::Index(records) if !records.is_empty() => {
            let mut sum = ArRecord {
                rect: records[0].rect,
                child,
                agg: 0.0,
                count: 0,
            };
            for r in records {
                sum.rect = sum.rect.union(&r.rect);
                sum.agg += r.agg;
                sum.count = sum.count.checked_add(r.count).ok_or_else(|| {
                    corrupt(format!("aR-tree node {child:?}: object count overflows"))
                })?;
            }
            Ok(sum)
        }
        _ => Err(corrupt(format!("aR-tree node {child:?} is empty"))),
    }
}

/// Aggregate query result: SUM and COUNT (AVG = sum / count).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggResult {
    /// Total aggregate of the qualifying objects.
    pub sum: f64,
    /// Number of qualifying objects.
    pub count: u64,
}

impl AggResult {
    /// Adds a subtree's sum and count. Counts are read from pages: one
    /// past `u64` is `Corrupt`.
    fn add(&mut self, sum: f64, count: u64) -> Result<()> {
        self.sum += sum;
        self.count = self
            .count
            .checked_add(count)
            .ok_or_else(|| corrupt("aR-tree object count overflows".to_string()))?;
        Ok(())
    }

    /// AVG aggregate (`None` when no object qualifies).
    pub fn avg(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// A disk-based R*-tree over boxed objects with per-entry aggregate
/// summaries — i.e. the **aR-tree** of \[21, 25\] that the paper uses as
/// its baseline (§6). Querying with [`box_sum`](RStarTree::box_sum) uses
/// the aggregate shortcut; [`box_sum_scan`](RStarTree::box_sum_scan)
/// ignores it, behaving like a plain R*-tree reduced to range search.
///
/// `L` is the extra per-object payload, a group stored beside the
/// object's scalar aggregate: `()` for simple weighted boxes, [`Poly`]
/// for functional objects (see
/// [`functional_sum`](RStarTree::functional_sum)).
///
/// Pages are read and written through the shared paged layer
/// ([`Ar`]): a live read takes the decode its page's buffer frame
/// holds, so a warm node is not decoded again.
///
/// ```
/// use boxagg_rstar::RStarTree;
/// use boxagg_common::Rect;
/// use boxagg_pagestore::{SharedStore, StoreConfig};
///
/// let store = SharedStore::open(&StoreConfig::default()).unwrap();
/// let mut t: RStarTree<()> = RStarTree::create(store, 2, 0).unwrap();
/// t.insert(Rect::from_bounds(&[(0.0, 2.0), (0.0, 2.0)]), 3.0, ()).unwrap();
/// t.insert(Rect::from_bounds(&[(5.0, 7.0), (5.0, 7.0)]), 4.0, ()).unwrap();
/// let q = Rect::from_bounds(&[(1.0, 6.0), (1.0, 6.0)]);
/// assert_eq!(t.box_sum(&q).unwrap().sum, 7.0);
/// ```
pub struct RStarTree<L: AggValue> {
    /// Pages, sizing, root and length.
    tree: PagedTree<Value<L>, Ar>,
    /// Leaf level = 0; the root sits at `height - 1` (height ≥ 1).
    height: usize,
    /// Decoded nodes of the most recently traversed query path — the
    /// "path buffer" the paper grants the aR-tree in addition to the LRU
    /// buffer (§6). Reads served from it cost no page access. Cleared on
    /// any modification.
    path_buffer: Vec<(PageId, Arc<Node<L>>)>,
    /// Whether the path buffer is consulted (on by default).
    pub use_path_buffer: bool,
}

impl<L: AggValue> RStarTree<L> {
    /// Creates an empty tree over `dim`-dimensional boxes, `1 ≤ dim ≤
    /// MAX_DIM / 2` (a leaf stores a box as one `2·dim`-dim point).
    ///
    /// `max_payload_size` bounds the encoded payload size (0 for `()`).
    pub fn create(store: SharedStore, dim: usize, max_payload_size: usize) -> Result<Self> {
        if dim == 0 || 2 * dim > MAX_DIM {
            return Err(invalid_arg(format!(
                "aR-tree dimension must be in 1..={}, got {dim}",
                MAX_DIM / 2
            )));
        }
        // A leaf value is `[agg: f64][payload]`.
        let max_value_size = 8 + max_payload_size;
        let mut tree = PagedTree::open_in(store.into(), Ar { dim }, AT, max_value_size)?;
        tree.root = tree.ctx().new_leaf::<Value<L>>(AT)?;
        Ok(Self {
            tree,
            height: 1,
            path_buffer: Vec::new(),
            use_path_buffer: true,
        })
    }

    pub(crate) fn ctx(&self) -> Ctx<'_, Ar> {
        self.tree.ctx()
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.tree.store()
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.tree.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.tree.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.ctx().layout.dim
    }

    /// The root page id.
    pub fn root_page(&self) -> PageId {
        self.tree.root
    }

    fn read(&self, id: PageId) -> Result<Arc<Node<L>>> {
        self.ctx().read_shared(id, AT)
    }

    /// Reads a node during a query, consulting and feeding the path
    /// buffer.
    fn read_q(&mut self, id: PageId) -> Result<Arc<Node<L>>> {
        if self.use_path_buffer {
            if let Some((_, node)) = self.path_buffer.iter().find(|(pid, _)| *pid == id) {
                return Ok(Arc::clone(node));
            }
        }
        let node = self.read(id)?;
        if self.use_path_buffer {
            // Bound the buffer to one root-to-leaf path's worth of nodes.
            if self.path_buffer.len() >= self.height {
                self.path_buffer.remove(0);
            }
            self.path_buffer.push((id, Arc::clone(&node)));
        }
        Ok(node)
    }

    // -- insertion -------------------------------------------------------

    /// Inserts an object with scalar aggregate `agg` and payload.
    pub fn insert(&mut self, rect: Rect, agg: f64, payload: L) -> Result<()> {
        if rect.dim() != self.dim() {
            return Err(invalid_arg(format!(
                "object dimension {} != tree dimension {}",
                rect.dim(),
                self.dim()
            )));
        }
        if !rect.is_finite() {
            return Err(invalid_arg(format!(
                "object {rect:?} has a non-finite coordinate"
            )));
        }
        self.path_buffer.clear();
        let depth = self.height - 1;
        let object = (rect, (agg, payload));
        if let Some((left, right)) = self.insert_rec(self.tree.root, depth, object)? {
            // Root split: grow the tree.
            let new_root = self.store().allocate()?;
            self.ctx()
                .write(new_root, AT, &Node::<L>::Index(vec![left, right]))?;
            self.tree.root = new_root;
            self.height += 1;
        }
        self.tree.len += 1;
        Ok(())
    }

    /// Recursive insert at `depth` (0 = leaf). Returns the two
    /// replacement records when the node split.
    fn insert_rec(
        &self,
        node_id: PageId,
        depth: usize,
        object: Object<L>,
    ) -> Result<Option<(ArRecord, ArRecord)>> {
        let ctx = self.ctx();
        match &*self.read(node_id)? {
            Node::Leaf(slab) => {
                let mut objects = (0..slab.len())
                    .map(|i| Ok((leaf_rect(slab, i)?, slab.value(i).clone())))
                    .collect::<Result<Vec<_>>>()?;
                objects.push(object);
                let cap = ctx.leaf_cap(AT);
                if objects.len() <= cap {
                    ctx.write(node_id, AT, &leaf(self.dim(), &objects))?;
                    return Ok(None);
                }
                let (l, r) = rstar_split(objects, min_fill(cap));
                self.finish_split(node_id, leaf(self.dim(), &l), leaf(self.dim(), &r))
            }
            Node::Index(records) => {
                let mut records = records.clone();
                let i = choose_subtree(&records, &object.0, depth == 1);
                let child = records[i].child;
                match self.insert_rec(child, depth - 1, object)? {
                    // Refresh the descended record's summary.
                    None => records[i] = summarize(child, &*self.read(child)?)?,
                    Some((l, r)) => {
                        records[i] = l;
                        records.push(r);
                    }
                }
                let cap = ctx.index_cap(AT);
                if records.len() <= cap {
                    ctx.write(node_id, AT, &Node::<L>::Index(records))?;
                    return Ok(None);
                }
                let (l, r) = rstar_split(records, min_fill(cap));
                self.finish_split(node_id, Node::Index(l), Node::Index(r))
            }
        }
    }

    /// Writes split halves (low half reuses the page) and returns their
    /// parent records.
    fn finish_split(
        &self,
        node_id: PageId,
        left: Node<L>,
        right: Node<L>,
    ) -> Result<Option<(ArRecord, ArRecord)>> {
        let ctx = self.ctx();
        let right_id = self.store().allocate()?;
        ctx.write(node_id, AT, &left)?;
        ctx.write(right_id, AT, &right)?;
        Ok(Some((
            summarize(node_id, &left)?,
            summarize(right_id, &right)?,
        )))
    }

    // -- queries ---------------------------------------------------------

    /// Simple box-sum with the aR-tree aggregate shortcut: subtrees whose
    /// MBR is contained in `q` contribute their stored aggregate without
    /// being visited.
    pub fn box_sum(&mut self, q: &Rect) -> Result<AggResult> {
        self.query(self.tree.root, q, true)
    }

    /// Simple box-sum *without* the shortcut — the plain R*-tree reduced
    /// to a range search that accumulates object values (§1's
    /// "straightforward approach").
    pub fn box_sum_scan(&mut self, q: &Rect) -> Result<AggResult> {
        self.query(self.tree.root, q, false)
    }

    fn query(&mut self, node_id: PageId, q: &Rect, shortcut: bool) -> Result<AggResult> {
        let node = self.read_q(node_id)?;
        let mut acc = AggResult::default();
        match &*node {
            Node::Leaf(slab) => {
                for i in 0..slab.len() {
                    if leaf_rect(slab, i)?.intersects(q) {
                        acc.sum += slab.value(i).0;
                        acc.count += 1;
                    }
                }
            }
            Node::Index(records) => {
                for rec in records {
                    if shortcut && q.contains_rect(&rec.rect) {
                        acc.add(rec.agg, rec.count)?;
                    } else if rec.rect.intersects(q) {
                        let sub = self.query(rec.child, q, shortcut)?;
                        acc.add(sub.sum, sub.count)?;
                    }
                }
            }
        }
        Ok(acc)
    }

    /// Every object as `(box, aggregate, payload)`, leaves left to right
    /// (tests/diagnostics).
    pub fn enumerate(&self) -> Result<Vec<(Rect, f64, L)>> {
        self.tree
            .enumerate()?
            .into_iter()
            .map(|(p, (agg, payload))| Ok((Rect::from_corner_point(&p)?, agg, payload)))
            .collect()
    }

    pub(crate) fn set_root(&mut self, root: PageId, height: usize, len: usize) {
        self.tree.root = root;
        self.tree.len = len;
        self.height = height;
        self.path_buffer.clear();
    }
}

impl RStarTree<Poly> {
    /// Functional box-sum on the aR-tree: each object contributes the
    /// integral of its value function over its intersection with `q`
    /// (§3). Subtrees fully contained in `q` contribute their stored
    /// total mass without being visited.
    pub fn functional_sum(&mut self, q: &Rect) -> Result<f64> {
        self.functional_rec(self.tree.root, q)
    }

    fn functional_rec(&mut self, node_id: PageId, q: &Rect) -> Result<f64> {
        let node = self.read_q(node_id)?;
        let mut acc = 0.0;
        match &*node {
            Node::Leaf(slab) => {
                for i in 0..slab.len() {
                    let rect = leaf_rect(slab, i)?;
                    if let Some(cell) = rect.intersection(q) {
                        let (mass, f) = slab.value(i);
                        if q.contains_rect(&rect) {
                            // Whole object inside: its stored mass.
                            acc += mass;
                        } else {
                            acc += f.integral_over(cell.low(), cell.high());
                        }
                    }
                }
            }
            Node::Index(records) => {
                for rec in records {
                    if q.contains_rect(&rec.rect) {
                        acc += rec.agg;
                    } else if rec.rect.intersects(q) {
                        acc += self.functional_rec(rec.child, q)?;
                    }
                }
            }
        }
        Ok(acc)
    }
}

/// R* minimum fill: 40% of capacity, at least 1.
pub(crate) fn min_fill(cap: usize) -> usize {
    (cap * 2 / 5).max(1)
}

/// R* ChooseSubtree: when the children are leaves, minimize overlap
/// enlargement (ties: area enlargement, then area); otherwise minimize
/// area enlargement (ties: area).
fn choose_subtree(entries: &[ArRecord], rect: &Rect, children_are_leaves: bool) -> usize {
    debug_assert!(!entries.is_empty());
    let area_enlargement = |e: &ArRecord| {
        let u = e.rect.union(rect);
        u.volume() - e.rect.volume()
    };
    if children_are_leaves {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.rect.union(rect);
            let mut overlap_delta = 0.0;
            for (j, o) in entries.iter().enumerate() {
                if i != j {
                    overlap_delta +=
                        enlarged.overlap_volume(&o.rect) - e.rect.overlap_volume(&o.rect);
                }
            }
            let key = (overlap_delta, area_enlargement(e), e.rect.volume());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        let mut best = 0;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let key = (area_enlargement(e), e.rect.volume());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::geom::Point;
    use boxagg_pagestore::StoreConfig;

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, side: f64) -> Rect {
        let x = rnd(s) * (1.0 - side);
        let y = rnd(s) * (1.0 - side);
        let w = rnd(s) * side;
        let h = rnd(s) * side;
        Rect::from_bounds(&[(x, x + w), (y, y + h)])
    }

    fn new_tree(page: usize) -> RStarTree<()> {
        let store = SharedStore::open(&StoreConfig::small(page, 128)).unwrap();
        RStarTree::create(store, 2, 0).unwrap()
    }

    #[test]
    fn insert_rejects_non_finite_coordinates() {
        // Regression: NaN coordinates used to be accepted and silently
        // corrupt the child-choice ordering; they must error up front.
        let mut t = new_tree(512);
        let bad = Rect::degenerate(Point::new(&[f64::NAN, 0.5]));
        let err = t.insert(bad, 1.0, ()).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "got: {err}");
        let inf = Rect::degenerate(Point::new(&[0.5, f64::INFINITY]));
        assert!(t.insert(inf, 1.0, ()).is_err());
        assert!(t.is_empty(), "rejected inserts must not change the tree");
        // The tree stays fully usable.
        t.insert(Rect::degenerate(Point::new(&[0.5, 0.5])), 2.0, ())
            .unwrap();
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(t.box_sum(&q).unwrap().sum, 2.0);
    }

    #[test]
    fn empty_tree() {
        let mut t = new_tree(512);
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(t.box_sum(&q).unwrap(), AggResult::default());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn edge_touching_objects_count() {
        let mut t = new_tree(512);
        t.insert(Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]), 5.0, ())
            .unwrap();
        // Query touching the object's right edge intersects (closed).
        let q = Rect::from_bounds(&[(1.0, 2.0), (0.0, 1.0)]);
        assert_eq!(t.box_sum(&q).unwrap().sum, 5.0);
        let q2 = Rect::from_bounds(&[(1.0001, 2.0), (0.0, 1.0)]);
        assert_eq!(t.box_sum(&q2).unwrap().sum, 0.0);
    }

    fn brute(objs: &[(Rect, f64)], q: &Rect) -> AggResult {
        let mut acc = AggResult::default();
        for (r, v) in objs {
            if r.intersects(q) {
                acc.sum += v;
                acc.count += 1;
            }
        }
        acc
    }

    #[test]
    fn matches_brute_force_with_splits() {
        let mut t = new_tree(512);
        let mut objs = Vec::new();
        let mut s = 99u64;
        for i in 0..800 {
            let r = rand_rect(&mut s, 0.1);
            let v = (i % 11) as f64 - 5.0;
            t.insert(r, v, ()).unwrap();
            objs.push((r, v));
        }
        assert!(t.height() > 2, "tree must actually have split");
        for _ in 0..200 {
            let q = rand_rect(&mut s, 0.4);
            let got = t.box_sum(&q).unwrap();
            let want = brute(&objs, &q);
            assert!((got.sum - want.sum).abs() < 1e-6, "sum {got:?} vs {want:?}");
            assert_eq!(got.count, want.count);
            // The scan (plain R-tree) answer must agree.
            let scan = t.box_sum_scan(&q).unwrap();
            assert!((scan.sum - want.sum).abs() < 1e-6);
            assert_eq!(scan.count, want.count);
        }
        assert_eq!(t.enumerate().unwrap().len(), 800);
    }

    #[test]
    fn aggregate_shortcut_reads_fewer_pages() {
        let store = SharedStore::open(&StoreConfig::small(512, 10_000)).unwrap();
        let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
        let mut s = 5u64;
        for _ in 0..2000 {
            t.insert(rand_rect(&mut s, 0.02), 1.0, ()).unwrap();
        }
        let q = Rect::from_bounds(&[(0.1, 0.9), (0.1, 0.9)]);
        t.use_path_buffer = false;

        store.reset_stats();
        let a = t.box_sum(&q).unwrap();
        let agg_ios = store.stats().hits + store.stats().reads;

        store.reset_stats();
        let b = t.box_sum_scan(&q).unwrap();
        let scan_ios = store.stats().hits + store.stats().reads;

        assert_eq!(a, b);
        assert!(
            agg_ios < scan_ios / 2,
            "aggregate shortcut should visit far fewer pages: {agg_ios} vs {scan_ios}"
        );
    }

    #[test]
    fn avg_aggregate() {
        let mut t = new_tree(512);
        t.insert(Rect::from_bounds(&[(0.0, 0.1), (0.0, 0.1)]), 2.0, ())
            .unwrap();
        t.insert(Rect::from_bounds(&[(0.0, 0.2), (0.0, 0.2)]), 4.0, ())
            .unwrap();
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let r = t.box_sum(&q).unwrap();
        assert_eq!(r.avg(), Some(3.0));
        assert_eq!(AggResult::default().avg(), None);
    }

    #[test]
    fn functional_objects_integrate_over_intersection() {
        let store = SharedStore::open(&StoreConfig::small(1024, 128)).unwrap();
        let mut t: RStarTree<Poly> = RStarTree::create(store, 2, 200).unwrap();
        // Paper §3 / Fig. 3a: objects valued 4 and 3 (per unit area), and
        // an object valued 6 that misses the query box. Boxes recovered
        // from the worked corner tuples of Fig. 5b: value-4 object
        // [2,15]×[10,15], value-3 object [18,30]×[4,10].
        let o1 = Rect::from_bounds(&[(2.0, 15.0), (10.0, 15.0)]);
        let o2 = Rect::from_bounds(&[(18.0, 30.0), (4.0, 10.0)]);
        let o3 = Rect::from_bounds(&[(26.0, 30.0), (15.0, 26.0)]);
        let f1 = Poly::constant(4.0);
        let f2 = Poly::constant(3.0);
        let f3 = Poly::constant(6.0);
        t.insert(o1, f1.integral_over(o1.low(), o1.high()), f1)
            .unwrap();
        t.insert(o2, f2.integral_over(o2.low(), o2.high()), f2)
            .unwrap();
        t.insert(o3, f3.integral_over(o3.low(), o3.high()), f3)
            .unwrap();
        let q = Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]);
        // Intersections 10×5 and 2×6: 4·50 + 3·12 = 236 (the paper's
        // worked example).
        assert!((t.functional_sum(&q).unwrap() - 236.0).abs() < 1e-9);
    }

    #[test]
    fn functional_non_constant_function() {
        let store = SharedStore::open(&StoreConfig::small(1024, 128)).unwrap();
        let mut t: RStarTree<Poly> = RStarTree::create(store, 2, 200).unwrap();
        // Fig. 3b: f(x, y) = x − 2 over [5,20]×[3,15].
        let obj = Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]);
        use boxagg_common::value::AggValue as _;
        let f = Poly::monomial(1.0, &[1, 0]).sub(&Poly::constant(2.0));
        t.insert(obj, f.integral_over(obj.low(), obj.high()), f)
            .unwrap();
        // Query [15,23]×[7,11]: contribution (11−7)·∫₁₅²⁰(x−2)dx = 310.
        let q = Rect::from_bounds(&[(15.0, 23.0), (7.0, 11.0)]);
        assert!((t.functional_sum(&q).unwrap() - 310.0).abs() < 1e-9);
    }

    #[test]
    fn corrupt_pages_error_instead_of_panicking() {
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
        let mut s = 42u64;
        for _ in 0..300 {
            t.insert(rand_rect(&mut s, 0.05), 1.0, ()).unwrap();
        }
        store.write_page(t.root_page(), &[0xEE; 32]).unwrap();
        t.use_path_buffer = false;
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert!(t.box_sum(&q).is_err());
        assert!(t.insert(rand_rect(&mut s, 0.05), 1.0, ()).is_err());
    }

    #[test]
    fn path_buffer_saves_page_accesses_on_repeated_queries() {
        let store = SharedStore::open(&StoreConfig::small(512, 10_000)).unwrap();
        let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
        let mut s = 55u64;
        for _ in 0..1500 {
            t.insert(rand_rect(&mut s, 0.01), 1.0, ()).unwrap();
        }
        let q = Rect::from_bounds(&[(0.5, 0.500001), (0.5, 0.500001)]);
        let first = t.box_sum(&q).unwrap();
        store.reset_stats();
        let second = t.box_sum(&q).unwrap();
        assert_eq!(first, second);
        // The repeated point-like query touches (mostly) the same path,
        // which the path buffer now serves without page accesses.
        assert_eq!(store.stats().hits + store.stats().reads, 0);
    }

    #[test]
    fn stored_counts_past_u64_are_corrupt() {
        use boxagg_common::error::Error;
        let store = SharedStore::open(&StoreConfig::small(512, 64)).unwrap();
        let mut t: RStarTree<()> = RStarTree::create(store.clone(), 2, 0).unwrap();
        for i in 0..100 {
            let x = (i % 10) as f64 / 10.0;
            t.insert(Rect::from_bounds(&[(x, x + 0.05), (x, x + 0.05)]), 1.0, ())
                .unwrap();
        }
        let ArRecord { child, .. } = match &*t.read(t.root_page()).unwrap() {
            Node::Index(records) => records[0].clone(),
            other => panic!("{other:?}"),
        };
        let rect = Rect::from_bounds(&[(0.1, 0.2), (0.1, 0.2)]);
        let records = [u64::MAX, 1].map(|count| ArRecord {
            rect,
            child,
            agg: 1.0,
            count,
        });
        let root: Node<()> = Node::Index(records.to_vec());
        t.ctx().write(t.root_page(), AT, &root).unwrap();
        t.use_path_buffer = false;
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert!(matches!(t.box_sum(&q), Err(Error::Corrupt(_))));
    }

    #[test]
    fn dimensions_past_half_max_dim_are_refused() {
        use boxagg_common::error::Error;
        for dim in [0, MAX_DIM / 2 + 1] {
            let store = SharedStore::open(&StoreConfig::small(4096, 8)).unwrap();
            assert!(matches!(
                RStarTree::<()>::create(store.clone(), dim, 0),
                Err(Error::InvalidArgument(_))
            ));
            assert!(matches!(
                RStarTree::<()>::bulk_load(store, dim, 0, Vec::new()),
                Err(Error::InvalidArgument(_))
            ));
        }
        let store = SharedStore::open(&StoreConfig::small(4096, 8)).unwrap();
        RStarTree::<()>::create(store, MAX_DIM / 2, 0).unwrap();
    }

    /// The page bytes of `node` over `dim`-dim boxes.
    fn page_bytes<L: AggValue>(node: &Node<L>, dim: usize) -> Vec<u8> {
        let mut w = boxagg_common::bytes::ByteWriter::new();
        node.encode(&Ar { dim }, AT, &mut w);
        w.into_vec()
    }

    /// What a mutated page over `dim`-dim boxes must do: decode and
    /// re-encode to bytes that decode to the same bytes again, or be
    /// refused as `Corrupt`; and every box the tree would take from a
    /// decoded page — each leaf row, the node's summary — is a box or
    /// `Corrupt`, never a panic. Returns whether the page decoded.
    fn check_mutant<L: AggValue>(bytes: &[u8], dim: usize) -> bool {
        use boxagg_common::error::Error;
        let corrupt_or = |what: &str, e: &Error| {
            assert!(
                matches!(e, Error::Corrupt(_)),
                "{what}: untyped refusal {e:?}"
            );
        };
        let node = match Node::<L>::decode(bytes, &Ar { dim }, AT) {
            Ok(node) => node,
            Err(e) => {
                corrupt_or("decode", &e);
                return false;
            }
        };
        let again = page_bytes(&node, dim);
        let back = Node::<L>::decode(&again, &Ar { dim }, AT).unwrap();
        assert_eq!(page_bytes(&back, dim), again, "re-encoding is stable");
        if let Node::Leaf(slab) = &node {
            for i in 0..slab.len() {
                if let Err(e) = leaf_rect(slab, i) {
                    corrupt_or("leaf row", &e);
                }
            }
        }
        if let Err(e) = summarize(PageId(1), &node) {
            corrupt_or("summary", &e);
        }
        true
    }

    /// Seed pages `(dim, bytes)`: leaves over 2-d and 3-d boxes (one of
    /// them empty) and index pages of both dimensions.
    fn seed_pages<L: AggValue>(payload: impl Fn(usize) -> L) -> Vec<(usize, Vec<u8>)> {
        let rect = |dim: usize, i: usize| {
            let low = Point::from_fn(dim, |d| ((i * (d + 3)) % 17) as f64);
            let high = Point::from_fn(dim, |d| low.get(d) + (i % (d + 2)) as f64);
            Rect::new(low, high)
        };
        let leaf_page = |dim: usize, n: usize| {
            let objects: Vec<Object<L>> = (0..n)
                .map(|i| (rect(dim, i), (i as f64 - 1.5, payload(i))))
                .collect();
            (dim, page_bytes(&leaf(dim, &objects), dim))
        };
        let index_page = |dim: usize, n: usize| {
            let records = (0..n)
                .map(|i| ArRecord {
                    rect: rect(dim, i),
                    child: PageId(i as u64 + 1),
                    agg: [1.5, -0.0, 1e300][i % 3],
                    count: i as u64,
                })
                .collect();
            (dim, page_bytes(&Node::<L>::Index(records), dim))
        };
        vec![
            leaf_page(2, 40),
            leaf_page(3, 9),
            leaf_page(2, 0),
            index_page(2, 6),
            index_page(3, 4),
        ]
    }

    /// Runs `inputs` seeded mutants of every seed page through
    /// [`check_mutant`], for `()` and `Poly` payloads; returns how many
    /// decoded.
    fn fuzz(inputs: usize, seed: u64) -> usize {
        use boxagg_common::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let simple = seed_pages(|_| ());
        let poly = seed_pages(|i| Poly::monomial(i as f64 - 1.5, &[(i % 3) as u8, 1]));
        let mut decoded = 0;
        for i in 0..inputs {
            let pages = if i % 2 == 0 { &simple } else { &poly };
            let (dim, page) = &pages[i / 2 % pages.len()];
            let bytes = rng.mutate(page);
            decoded += usize::from(if i % 2 == 0 {
                check_mutant::<()>(&bytes, *dim)
            } else {
                check_mutant::<Poly>(&bytes, *dim)
            });
        }
        decoded
    }

    #[test]
    fn fuzz_mutated_pages_decode_or_refuse_and_their_boxes_are_checked() {
        // 20,000 mutants, ten per seed page and payload per round.
        let decoded = fuzz(20_000, 0xA2_F022);
        assert!(
            (2_000..18_000).contains(&decoded),
            "{decoded} of 20,000 mutants decoded: the mutator is degenerate"
        );
    }

    /// The documented longer run: `cargo test --release -p boxagg-rstar
    /// --lib fuzz -- --ignored`.
    #[test]
    #[ignore = "long fuzz run"]
    fn fuzz_long_run() {
        for seed in 0..50 {
            fuzz(200_000, seed);
        }
    }
}
