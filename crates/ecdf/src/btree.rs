//! The ECDF-B-trees: disk-based, dynamic extensions of the ECDF-tree (§4).
//!
//! A `d`-dimensional ECDF-B-tree at *level* `l` is a B⁺-tree over
//! coordinate `l`. Each internal entry carries a *border*; depending on
//! the [`BorderPolicy`]:
//!
//! * **Bu** (update-optimized): border `i` is a level-`l+1` ECDF-B-tree
//!   over the points of `subtree(e_i)` alone. An insert updates one
//!   border per level; a query must examine every border left of its
//!   search path (Fig. 6a/6b).
//! * **Bq** (query-optimized): border `i` covers the *prefix*
//!   `subtree(e_1) ∪ … ∪ subtree(e_i)`. An insert updates every border at
//!   or right of its path; a query reads exactly one border per level
//!   (Fig. 6c/6d).
//!
//! At the last level (`l = d − 1`) borders degenerate to plain value sums
//! stored inline in the entry. Leaves at every level store full
//! `d`-dimensional points, sorted by coordinate `l`; a leaf scan checks
//! dominance on dimensions `l..d` (lower dimensions were resolved by the
//! enclosing levels).
//!
//! Splits rebuild the affected borders by enumerating the relevant
//! subtrees and bulk-loading fresh border trees — the amortization
//! argument of Theorem 4. Bulk loading (§4) builds the whole structure
//! bottom-up from sorted runs, computing each border as it seals each
//! internal entry.

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::Point;
use boxagg_common::slab::EntrySlab;
use boxagg_common::traits::{check_insert, check_query, DominanceSumIndex};
use boxagg_common::value::AggValue;
use boxagg_pagestore::paged::{self, Cataloged, Layout, PageParams, PagedTree};
use boxagg_pagestore::{PageId, ReadHandle, RootEntry, RootKind, SharedStore, Visit};

/// Which prefix of subtrees each border covers (Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BorderPolicy {
    /// ECDF-Bu-tree: border `i` covers `subtree(e_i)`.
    UpdateOptimized,
    /// ECDF-Bq-tree: border `i` covers `subtree(e_1..e_i)`.
    QueryOptimized,
}

/// Border payload of one internal entry.
#[derive(Debug, Clone)]
enum Border<V> {
    /// Level `l + 1` tree (levels `0..d−1`). NULL = empty.
    Tree(PageId),
    /// Inline value sum (last level).
    Value(V),
}

#[derive(Debug, Clone)]
struct InternalEntry<V> {
    /// Maximum coordinate (this level's dimension) in the subtree.
    router: f64,
    child: PageId,
    border: Border<V>,
}

/// The ECDF-B-trees' page layout. Leaves at every level hold full
/// `dim`-dimensional points; a node's `at` is its level, and a
/// last-level entry's border is an inline value sum.
#[derive(Clone, Copy, Debug)]
struct Ecdf {
    dim: usize,
    policy: BorderPolicy,
}

type Node<V> = paged::Node<V, Ecdf>;

/// The page context every operation threads (see [`paged::Ctx`]).
type Ctx<'a> = paged::Ctx<'a, Ecdf>;

impl Layout for Ecdf {
    const NAME: &'static str = "ECDF-B-tree";
    type Record<V: AggValue> = InternalEntry<V>;

    fn leaf_dim(&self, _level: usize) -> usize {
        self.dim
    }

    /// Router + child + border (page id or inline value).
    fn record_size(&self, params: &PageParams, _level: usize) -> usize {
        8 + 8 + params.max_value_size.max(8)
    }

    fn min_record_size<V: AggValue>(&self, level: usize) -> usize {
        8 + 8
            + if level + 1 == self.dim {
                V::WIDTH.min()
            } else {
                8
            }
    }

    fn encode_record<V: AggValue>(&self, e: &InternalEntry<V>, level: usize, w: &mut ByteWriter) {
        w.put_f64(e.router);
        w.put_u64(e.child.0);
        match (&e.border, level + 1 == self.dim) {
            (Border::Tree(id), false) => w.put_u64(id.0),
            (Border::Value(v), true) => v.encode(w),
            _ => unreachable!("border kind inconsistent with level"),
        }
    }

    fn decode_record<V: AggValue>(
        &self,
        r: &mut ByteReader<'_>,
        level: usize,
    ) -> Result<InternalEntry<V>> {
        let router = r.get_f64()?;
        let child = PageId(r.get_u64()?);
        let border = if level + 1 == self.dim {
            Border::Value(V::decode(r)?)
        } else {
            Border::Tree(PageId(r.get_u64()?))
        };
        Ok(InternalEntry {
            router,
            child,
            border,
        })
    }

    fn child<V: AggValue>(e: &InternalEntry<V>) -> PageId {
        e.child
    }

    fn border_trees<V: AggValue>(
        &self,
        e: &InternalEntry<V>,
        level: usize,
        mut f: impl FnMut(usize, PageId) -> Result<()>,
    ) -> Result<()> {
        match e.border {
            Border::Tree(b) => f(level + 1, b),
            Border::Value(_) => Ok(()),
        }
    }
}

impl Cataloged for Ecdf {
    fn root_kind(&self) -> RootKind {
        match self.policy {
            BorderPolicy::UpdateOptimized => RootKind::EcdfUpdate,
            BorderPolicy::QueryOptimized => RootKind::EcdfQuery,
        }
    }

    fn from_entry(entry: &RootEntry) -> Option<(Self, usize)> {
        let policy = match entry.kind {
            RootKind::EcdfUpdate => BorderPolicy::UpdateOptimized,
            RootKind::EcdfQuery => BorderPolicy::QueryOptimized,
            _ => return None,
        };
        let layout = Ecdf {
            dim: entry.dims as usize,
            policy,
        };
        Some((layout, 0))
    }
}

// ---------------------------------------------------------------------
// bulk loading
// ---------------------------------------------------------------------

fn sum_values<V: AggValue>(points: &[(Point, V)]) -> V {
    let mut acc = V::zero();
    for (_, v) in points {
        acc.add_assign(v);
    }
    acc
}

/// Builds the border covering `points` (already the correct prefix /
/// subtree set for the entry), at the level *below* `node_level`.
fn make_border<V: AggValue>(
    ctx: Ctx<'_>,
    node_level: usize,
    points: Vec<(Point, V)>,
) -> Result<Border<V>> {
    if node_level + 1 == ctx.layout.dim {
        Ok(Border::Value(sum_values(&points)))
    } else {
        Ok(Border::Tree(bulk_build(ctx, node_level + 1, points)?))
    }
}

/// Bottom-up bulk load of a level-`level` tree over `points`
/// (unsorted; NULL root for empty input).
fn bulk_build<V: AggValue>(
    ctx: Ctx<'_>,
    level: usize,
    mut points: Vec<(Point, V)>,
) -> Result<PageId> {
    if points.is_empty() {
        return Ok(PageId::NULL);
    }
    points.sort_by(|a, b| a.0.get(level).total_cmp(&b.0.get(level)));

    // Leaf runs at ~full occupancy.
    let leaf_cap = ctx.leaf_cap(level);
    let mut level_items: Vec<(f64, PageId, std::ops::Range<usize>)> = Vec::new();
    let n = points.len();
    let mut start = 0;
    while start < n {
        let end = (start + leaf_cap).min(n);
        // Decode target is a slab; build it straight from the sorted
        // slice without an intermediate tuple clone.
        let chunk = EntrySlab::from_slice(ctx.layout.dim, &points[start..end]);
        let router = points[end - 1].0.get(level);
        let id = ctx.write_new(level, &Node::Leaf(chunk))?;
        level_items.push((router, id, start..end));
        start = end;
    }

    // Internal levels: seal entries in groups, computing borders from the
    // covered point ranges.
    let cap = ctx.index_cap(level);
    while level_items.len() > 1 {
        let mut next: Vec<(f64, PageId, std::ops::Range<usize>)> = Vec::new();
        let mut i = 0;
        while i < level_items.len() {
            let group_end = (i + cap).min(level_items.len());
            let group = &level_items[i..group_end];
            // lint: allow(unwrap) -- group is a non-empty slice: i < group_end
            let node_start = group.first().unwrap().2.start;
            // lint: allow(unwrap) -- group is a non-empty slice: i < group_end
            let node_end = group.last().unwrap().2.end;
            let mut entries = Vec::with_capacity(group.len());
            for (router, child, range) in group {
                let border_points = match ctx.layout.policy {
                    BorderPolicy::UpdateOptimized => points[range.clone()].to_vec(),
                    BorderPolicy::QueryOptimized => points[node_start..range.end].to_vec(),
                };
                entries.push(InternalEntry {
                    router: *router,
                    child: *child,
                    border: make_border(ctx, level, border_points)?,
                });
            }
            // lint: allow(unwrap) -- one entry per group member, group non-empty
            let router = entries.last().unwrap().router;
            let id = ctx.write_new(level, &Node::Index(entries))?;
            next.push((router, id, node_start..node_end));
            i = group_end;
        }
        level_items = next;
    }
    Ok(level_items[0].1)
}

// ---------------------------------------------------------------------
// query
// ---------------------------------------------------------------------

fn query_tree<V: AggValue>(ctx: Ctx<'_>, level: usize, root: PageId, q: &Point) -> Result<V> {
    if root.is_null() {
        return Ok(V::zero());
    }
    // Dominance on dimensions `level..d` only: the enclosing levels
    // already resolved the lower coordinates. A fixed-width leaf sums
    // from its page's bytes; a decoded leaf's slab scan runs column-wise
    // over contiguous coordinate runs.
    let node = match ctx.read_or_sum::<V>(root, level, level, q)? {
        Visit::Scanned(sum) => return Ok(sum),
        Visit::Node(node) => node,
    };
    match &*node {
        Node::Leaf(entries) => {
            let mut acc = V::zero();
            entries.sum_dominated_from_into(level, q, &mut acc);
            Ok(acc)
        }
        Node::Index(entries) => {
            // Entries with router ≤ q are wholly dominated in this
            // dimension; the first entry with router > q may straddle.
            let ql = q.get(level);
            let mut acc = V::zero();
            let mut straddler: Option<&InternalEntry<V>> = None;
            let mut last_full: Option<usize> = None;
            for (i, e) in entries.iter().enumerate() {
                if e.router <= ql {
                    last_full = Some(i);
                } else {
                    straddler = Some(e);
                    break;
                }
            }
            match ctx.layout.policy {
                BorderPolicy::UpdateOptimized => {
                    if let Some(last) = last_full {
                        for e in &entries[..=last] {
                            acc.add_assign(&query_border(ctx, level, &e.border, q)?);
                        }
                    }
                }
                BorderPolicy::QueryOptimized => {
                    if let Some(last) = last_full {
                        acc.add_assign(&query_border(ctx, level, &entries[last].border, q)?);
                    }
                }
            }
            if let Some(e) = straddler {
                acc.add_assign(&query_tree(ctx, level, e.child, q)?);
            }
            Ok(acc)
        }
    }
}

fn query_border<V: AggValue>(
    ctx: Ctx<'_>,
    node_level: usize,
    border: &Border<V>,
    q: &Point,
) -> Result<V> {
    match border {
        Border::Value(v) => Ok(v.clone()),
        Border::Tree(id) => query_tree(ctx, node_level + 1, *id, q),
    }
}

// ---------------------------------------------------------------------
// insertion
// ---------------------------------------------------------------------

/// Result of an insert that split the child: the low half kept the old
/// page (router shrank to `left_router`); the high half lives in
/// `right_page` with `right_router`.
struct SplitUp {
    left_router: f64,
    right_page: PageId,
    right_router: f64,
}

fn tree_insert<V: AggValue>(
    ctx: Ctx<'_>,
    level: usize,
    root: PageId,
    p: Point,
    v: V,
) -> Result<PageId> {
    let root = if root.is_null() {
        ctx.new_leaf::<V>(level)?
    } else {
        root
    };
    match insert_rec(ctx, level, root, p, v)? {
        None => Ok(root),
        Some(up) => {
            // Grow a new root with two entries.
            let mut entries: Vec<InternalEntry<V>> = vec![
                InternalEntry {
                    router: up.left_router,
                    child: root,
                    border: empty_border::<V>(ctx, level),
                },
                InternalEntry {
                    router: up.right_router,
                    child: up.right_page,
                    border: empty_border::<V>(ctx, level),
                },
            ];
            rebuild_borders(ctx, level, &mut entries, &[0, 1])?;
            ctx.write_new(level, &Node::Index(entries))
        }
    }
}

fn empty_border<V: AggValue>(ctx: Ctx<'_>, node_level: usize) -> Border<V> {
    if node_level + 1 == ctx.layout.dim {
        Border::Value(V::zero())
    } else {
        Border::Tree(PageId::NULL)
    }
}

/// Rebuilds the borders of `entries[indices]` from subtree enumerations,
/// freeing any previous border trees at those indices.
fn rebuild_borders<V: AggValue>(
    ctx: Ctx<'_>,
    node_level: usize,
    entries: &mut [InternalEntry<V>],
    indices: &[usize],
) -> Result<()> {
    for &i in indices {
        if let Border::Tree(old) = entries[i].border {
            ctx.free_tree::<V>(node_level + 1, old)?;
        }
        let mut pts = Vec::new();
        match ctx.layout.policy {
            BorderPolicy::UpdateOptimized => {
                ctx.enumerate::<V>(node_level, entries[i].child, &mut pts)?;
            }
            BorderPolicy::QueryOptimized => {
                for e in entries[..=i].iter() {
                    ctx.enumerate::<V>(node_level, e.child, &mut pts)?;
                }
            }
        }
        entries[i].border = make_border(ctx, node_level, pts)?;
    }
    Ok(())
}

fn add_to_border<V: AggValue>(
    ctx: Ctx<'_>,
    node_level: usize,
    border: &mut Border<V>,
    p: Point,
    v: V,
) -> Result<()> {
    match border {
        Border::Value(acc) => {
            acc.add_assign(&v);
            Ok(())
        }
        Border::Tree(id) => {
            *id = tree_insert(ctx, node_level + 1, *id, p, v)?;
            Ok(())
        }
    }
}

fn insert_rec<V: AggValue>(
    ctx: Ctx<'_>,
    level: usize,
    node_id: PageId,
    p: Point,
    v: V,
) -> Result<Option<SplitUp>> {
    let mut node = ctx.read::<V>(node_id, level)?;
    match &mut node {
        Node::Leaf(entries) => {
            let key = p.get(level);
            let pos = entries.partition_point_le(level, key);
            entries.insert_at(pos, &p, v);
            if entries.len() <= ctx.leaf_cap(level) {
                ctx.write(node_id, level, &node)?;
                return Ok(None);
            }
            // Split, keeping equal keys together when possible.
            let cut = split_position(entries.len(), |i| {
                entries.coord(level, i - 1) != entries.coord(level, i)
            });
            let right = entries.split_off(cut);
            // split_position cuts strictly inside: both halves non-empty.
            let left_router = entries.coord(level, entries.len() - 1);
            let right_router = right.coord(level, right.len() - 1);
            let right_page = ctx.write_new(level, &Node::Leaf(right))?;
            ctx.write(node_id, level, &node)?;
            Ok(Some(SplitUp {
                left_router,
                right_page,
                right_router,
            }))
        }
        Node::Index(entries) => {
            let key = p.get(level);
            // Descend into the first subtree whose router covers the key;
            // extend the last router when the key exceeds every subtree.
            let mut i = entries.partition_point(|e| e.router < key);
            if i == entries.len() {
                i -= 1;
                entries[i].router = key;
            }
            // Border maintenance on the way down (Fig. 6a / 6c).
            match ctx.layout.policy {
                BorderPolicy::UpdateOptimized => {
                    add_to_border(ctx, level, &mut entries[i].border, p, v.clone())?;
                }
                BorderPolicy::QueryOptimized => {
                    for e in entries[i..].iter_mut() {
                        add_to_border(ctx, level, &mut e.border, p, v.clone())?;
                    }
                }
            }
            let child = entries[i].child;
            if let Some(up) = insert_rec(ctx, level, child, p, v)? {
                entries[i].router = up.left_router;
                let new_entry = InternalEntry {
                    router: up.right_router,
                    child: up.right_page,
                    border: empty_border(ctx, level),
                };
                entries.insert(i + 1, new_entry);
                match ctx.layout.policy {
                    BorderPolicy::UpdateOptimized => {
                        // Both halves' borders cover their own subtrees.
                        rebuild_borders(ctx, level, entries, &[i, i + 1])?;
                    }
                    BorderPolicy::QueryOptimized => {
                        // The prefix through the high half equals the old
                        // prefix through the unsplit subtree: move it.
                        let old =
                            std::mem::replace(&mut entries[i].border, empty_border(ctx, level));
                        entries[i + 1].border = old;
                        rebuild_borders(ctx, level, entries, &[i])?;
                    }
                }
            }
            if entries.len() <= ctx.index_cap(level) {
                ctx.write(node_id, level, &node)?;
                return Ok(None);
            }
            // Internal split.
            let cut = entries.len() / 2;
            let mut right: Vec<InternalEntry<V>> = entries.split_off(cut);
            if ctx.layout.policy == BorderPolicy::QueryOptimized {
                // Prefixes are per-node: the high node's borders must no
                // longer include the low node's subtrees.
                let idx: Vec<usize> = (0..right.len()).collect();
                rebuild_borders(ctx, level, &mut right, &idx)?;
            }
            // lint: allow(unwrap) -- split_position cuts strictly inside, both halves non-empty
            let left_router = entries.last().unwrap().router;
            // lint: allow(unwrap) -- split_position cuts strictly inside, both halves non-empty
            let right_router = right.last().unwrap().router;
            let right_page = ctx.write_new(level, &Node::Index(right))?;
            ctx.write(node_id, level, &node)?;
            Ok(Some(SplitUp {
                left_router,
                right_page,
                right_router,
            }))
        }
    }
}

/// Finds a split index near the middle where `boundary(i)` holds
/// (typically "keys differ across i"), falling back to the middle.
fn split_position(len: usize, boundary: impl Fn(usize) -> bool) -> usize {
    let mid = len / 2;
    for off in 0..mid {
        if mid + off < len && boundary(mid + off) {
            return mid + off;
        }
        if mid - off > 0 && boundary(mid - off) {
            return mid - off;
        }
    }
    mid.max(1)
}

// ---------------------------------------------------------------------
// public interface
// ---------------------------------------------------------------------

/// A disk-based, dynamic ECDF-B-tree (§4): the ECDF-Bu-tree or
/// ECDF-Bq-tree depending on the [`BorderPolicy`].
///
/// ```
/// use boxagg_ecdf::{BorderPolicy, EcdfBTree};
/// use boxagg_common::{Point, DominanceSumIndex};
/// use boxagg_pagestore::{SharedStore, StoreConfig};
///
/// let store = SharedStore::open(&StoreConfig::default()).unwrap();
/// let mut t: EcdfBTree<f64> =
///     EcdfBTree::create(store, 2, BorderPolicy::QueryOptimized, 8).unwrap();
/// t.insert(Point::new(&[1.0, 5.0]), 2.0).unwrap();
/// t.insert(Point::new(&[4.0, 2.0]), 3.0).unwrap();
/// assert_eq!(t.dominance_sum(&Point::new(&[4.0, 5.0])).unwrap(), 5.0);
/// assert_eq!(t.dominance_sum(&Point::new(&[4.0, 4.0])).unwrap(), 3.0);
/// ```
pub struct EcdfBTree<V: AggValue> {
    /// Pages (the live store, or the pinned epoch the tree was opened
    /// at, read-only), sizing, dimension and policy, root and length.
    nodes: PagedTree<V, Ecdf>,
}

impl<V: AggValue> EcdfBTree<V> {
    /// Creates an empty tree over `dim`-dimensional points.
    pub fn create(
        store: SharedStore,
        dim: usize,
        policy: BorderPolicy,
        max_value_size: usize,
    ) -> Result<Self> {
        Self::bulk_load(store, dim, policy, max_value_size, Vec::new())
    }

    /// Bulk-loads a tree from `points` (§4): sorted runs bottom-up, with
    /// each border bulk-built as its entry is sealed.
    pub fn bulk_load(
        store: SharedStore,
        dim: usize,
        policy: BorderPolicy,
        max_value_size: usize,
        points: Vec<(Point, V)>,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(invalid_arg("dimension must be at least 1"));
        }
        let layout = Ecdf { dim, policy };
        let mut tree = Self {
            nodes: PagedTree::open_in(store.into(), layout, 0, max_value_size)?,
        };
        tree.nodes.len = points.len();
        // Refuse what `insert` would, before a page is written: a NaN
        // coordinate would silently corrupt the router ordering the whole
        // structure depends on, and a value that is not finite every sum.
        for (p, v) in &points {
            tree.check_insert(p, v)?;
        }
        tree.nodes.root = if points.is_empty() {
            tree.nodes.ctx().new_leaf::<V>(0)?
        } else {
            bulk_build(tree.nodes.ctx(), 0, points)?
        };
        Ok(tree)
    }

    /// Publishes this tree under `name` in the store's superblock
    /// catalog, so [`open_named`](Self::open_named) can reopen it with
    /// no out-of-band state. The border policy is recorded as the root
    /// kind; ECDF-B-trees have no bounding space, so every dimension
    /// records `(-∞, +∞)` (the catalog codec carries exactly one bound
    /// pair per dimension). Call again after mutations to refresh the
    /// recorded root and length.
    pub fn persist_as(&self, name: &str) -> Result<()> {
        let bounds = vec![(f64::NEG_INFINITY, f64::INFINITY); self.dim()];
        self.nodes.persist_as(name, bounds)
    }

    /// Reopens a tree published by [`persist_as`](Self::persist_as):
    /// dimension, policy, value size, root and length all come from the superblock
    /// catalog `pages` sees.
    ///
    /// Pass the store (or a clone) for a live, writable tree. Pass a
    /// pinned snapshot — `&Arc<StoreSnapshot>`, so trees opened together
    /// share the pin — and root, length and every page read come from
    /// the images that commit epoch saw: the tree answers exactly that
    /// commit's state while writers keep committing, and refuses
    /// `insert`, `persist_as` and `destroy` with a typed error.
    pub fn open_named(pages: impl Into<ReadHandle>, name: &str) -> Result<Self> {
        let (nodes, _) = PagedTree::open_named(pages, name)?;
        Ok(Self { nodes })
    }

    /// The border policy.
    pub fn policy(&self) -> BorderPolicy {
        self.nodes.ctx().layout.policy
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.nodes.store()
    }

    /// The root page id.
    pub fn root_page(&self) -> PageId {
        self.nodes.root
    }

    /// Collects every indexed point (tests/diagnostics).
    pub fn enumerate(&self) -> Result<Vec<(Point, V)>> {
        self.nodes.enumerate()
    }

    /// Frees every page of the tree.
    pub fn destroy(self) -> Result<()> {
        self.nodes.destroy()
    }
}

impl<V: AggValue> DominanceSumIndex<V> for EcdfBTree<V> {
    fn dim(&self) -> usize {
        self.nodes.ctx().layout.dim
    }

    fn check_insert(&self, p: &Point, v: &V) -> Result<()> {
        check_insert(p, self.dim(), v)?;
        if !p.is_finite() {
            return Err(invalid_arg(format!(
                "point {p:?} has a non-finite coordinate"
            )));
        }
        Ok(())
    }

    fn insert(&mut self, p: Point, v: V) -> Result<()> {
        self.check_insert(&p, &v)?;
        self.nodes.root = tree_insert(self.nodes.ctx(), 0, self.nodes.root, p, v)?;
        self.nodes.len += 1;
        Ok(())
    }

    fn dominance_sum(&self, q: &Point) -> Result<V> {
        check_query(q, self.dim())?;
        query_tree(self.nodes.ctx(), 0, self.nodes.root, q)
    }

    fn len(&self) -> usize {
        self.nodes.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::error::Error;
    use boxagg_common::poly::Poly;
    use boxagg_common::rng::StdRng;
    use boxagg_common::slab::LeafSums;
    use boxagg_common::traits::NaiveDominanceIndex;
    use boxagg_common::value::EncodedWidth;
    use boxagg_pagestore::StoreConfig;
    use std::sync::Arc;

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn layout(dim: usize) -> Ecdf {
        Ecdf {
            dim,
            policy: BorderPolicy::QueryOptimized,
        }
    }

    fn new_tree(dim: usize, policy: BorderPolicy, page: usize) -> EcdfBTree<f64> {
        let store = SharedStore::open(&StoreConfig::small(page, 64)).unwrap();
        EcdfBTree::create(store, dim, policy, 8).unwrap()
    }

    const POLICIES: [BorderPolicy; 2] =
        [BorderPolicy::UpdateOptimized, BorderPolicy::QueryOptimized];

    #[test]
    fn a_nan_query_coordinate_is_refused_and_infinities_clamp() {
        for policy in POLICIES {
            let mut t = new_tree(2, policy, 512);
            t.insert(Point::new(&[0.2, 0.3]), 1.0).unwrap();
            t.insert(Point::new(&[0.6, 0.4]), 2.0).unwrap();
            let nan = f64::NAN;
            for q in [[nan, 0.5], [0.5, nan], [nan, nan], [-nan, 1.0], [nan, -1.0]] {
                match t.dominance_sum(&Point::new(&q)) {
                    Err(Error::InvalidArgument(_)) => {}
                    other => panic!("{policy:?} {q:?} answered {other:?}"),
                }
            }
            let inf = f64::INFINITY;
            assert_eq!(t.dominance_sum(&Point::new(&[inf, inf])).unwrap(), 3.0);
            assert_eq!(t.dominance_sum(&Point::new(&[inf, 0.35])).unwrap(), 1.0);
            assert_eq!(t.dominance_sum(&Point::new(&[-inf, inf])).unwrap(), 0.0);
        }
    }

    #[test]
    fn node_codec_round_trip() {
        // Leaf nodes.
        let pts = [
            (Point::new(&[1.0, 2.0]), 3.5),
            (Point::new(&[-4.0, 0.25]), 1.0),
        ];
        let leaf: Node<f64> = Node::Leaf(EntrySlab::from_slice(2, &pts));
        let mut w = ByteWriter::new();
        leaf.encode(&layout(2), 0, &mut w);
        // The slab codec must be byte-identical to the historical
        // interleaved tuple layout.
        let mut tuple = ByteWriter::new();
        tuple.put_u8(0);
        tuple.put_u16(pts.len() as u16);
        for (p, v) in &pts {
            p.encode(&mut tuple);
            boxagg_common::value::AggValue::encode(v, &mut tuple);
        }
        assert_eq!(w.as_slice(), tuple.as_slice());
        let back: Node<f64> = Node::decode(w.as_slice(), &layout(2), 0).unwrap();
        match back {
            Node::Leaf(entries) => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries.point(0), Point::new(&[1.0, 2.0]));
                assert_eq!(*entries.value(0), 3.5);
                assert_eq!(entries.point(1), Point::new(&[-4.0, 0.25]));
            }
            Node::Index(_) => panic!("leaf decoded as index"),
        }

        // Internal node at the last level (value borders).
        let internal: Node<f64> = Node::Index(vec![InternalEntry {
            router: 7.5,
            child: PageId(42),
            border: Border::Value(9.0),
        }]);
        let mut w = ByteWriter::new();
        internal.encode(&layout(1), 0, &mut w);
        let back: Node<f64> = Node::decode(w.as_slice(), &layout(1), 0).unwrap();
        match back {
            Node::Index(entries) => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].router, 7.5);
                assert_eq!(entries[0].child, PageId(42));
                match entries[0].border {
                    Border::Value(v) => assert_eq!(v, 9.0),
                    Border::Tree(_) => panic!("value border decoded as tree"),
                }
            }
            Node::Leaf(_) => panic!("internal decoded as leaf"),
        }

        // Internal node above the last level (tree borders).
        let internal: Node<f64> = Node::Index(vec![InternalEntry {
            router: -1.0,
            child: PageId(7),
            border: Border::Tree(PageId(13)),
        }]);
        let mut w = ByteWriter::new();
        internal.encode(&layout(2), 0, &mut w);
        let back: Node<f64> = Node::decode(w.as_slice(), &layout(2), 0).unwrap();
        match back {
            Node::Index(entries) => match entries[0].border {
                Border::Tree(id) => assert_eq!(id, PageId(13)),
                Border::Value(_) => panic!("tree border decoded as value"),
            },
            Node::Leaf(_) => panic!("internal decoded as leaf"),
        }

        // Corrupt tag is rejected, not misparsed.
        assert!(Node::<f64>::decode(&[9u8, 0, 0], &layout(2), 0).is_err());
    }

    #[test]
    fn record_count_is_checked_before_anything_is_allocated() {
        // A header claiming 65,535 entries and not one byte of them: the
        // parent reserved all 65,535 (≈ 2 MB of internal entries, or
        // that many words per leaf column) before it read the first.
        for (dim, level) in [(1, 0), (2, 0), (2, 1)] {
            match Node::<f64>::decode(&[1u8, 0xFF, 0xFF], &layout(dim), level) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains("record count 65535"), "{msg}"),
                other => panic!("internal, dim {dim} level {level}: {other:?}"),
            }
            match Node::<f64>::decode(&[0u8, 0xFF, 0xFF], &layout(dim), level) {
                Err(Error::Corrupt(msg)) => {
                    assert!(
                        msg.contains(&format!("{} bytes", 65535 * (dim + 1) * 8)),
                        "{msg}"
                    )
                }
                other => panic!("leaf, dim {dim} level {level}: {other:?}"),
            }
        }
        // A full-count header over half a body, for both kinds.
        let pts: Vec<(Point, f64)> = (0..40)
            .map(|i| (Point::new(&[i as f64, 1.0]), 2.0))
            .collect();
        let entry = InternalEntry {
            router: 1.0,
            child: PageId(2),
            border: Border::Value(3.0),
        };
        for node in [
            Node::Leaf(EntrySlab::from_slice(2, &pts)),
            Node::Index(vec![entry; 12]),
        ] {
            let mut w = ByteWriter::new();
            node.encode(&layout(2), 1, &mut w);
            Node::<f64>::decode(w.as_slice(), &layout(2), 1).unwrap();
            let half = &w.as_slice()[..3 + (w.len() - 3) / 2];
            assert!(matches!(
                Node::<f64>::decode(half, &layout(2), 1),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn non_finite_points_are_rejected_not_corrupting() {
        // Regression: a NaN coordinate used to panic mid-bulk-load (after
        // pages were already allocated) and silently corrupt the router
        // ordering on dynamic insert. Both paths must error up front.
        for policy in POLICIES {
            let store = SharedStore::open(&StoreConfig::small(512, 64)).unwrap();
            let points = vec![
                (Point::new(&[0.25, 0.5]), 1.0),
                (Point::new(&[f64::NAN, 0.5]), 1.0),
            ];
            match EcdfBTree::<f64>::bulk_load(store, 2, policy, 8, points) {
                Err(err) => assert!(err.to_string().contains("non-finite"), "got: {err}"),
                Ok(_) => panic!("bulk_load must reject non-finite coordinates"),
            }

            let mut t = new_tree(2, policy, 512);
            assert!(t.insert(Point::new(&[0.5, f64::INFINITY]), 1.0).is_err());
            assert!(t.insert(Point::new(&[f64::NAN, 0.0]), 1.0).is_err());
            assert!(t.insert(Point::new(&[0.5, 0.5]), f64::NAN).is_err());
            assert!(t.insert(Point::new(&[0.5, 0.5]), f64::INFINITY).is_err());
            assert!(t.is_empty(), "rejected inserts must not change the tree");
            // The tree stays fully usable afterwards.
            t.insert(Point::new(&[0.5, 0.5]), 2.0).unwrap();
            assert_eq!(t.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(), 2.0);
        }
    }

    #[test]
    fn empty_tree_queries_zero() {
        for policy in POLICIES {
            let t = new_tree(2, policy, 512);
            assert_eq!(t.dominance_sum(&Point::new(&[5.0, 5.0])).unwrap(), 0.0);
            assert!(t.is_empty());
        }
    }

    #[test]
    fn closed_dominance_at_boundaries() {
        for policy in POLICIES {
            let mut t = new_tree(2, policy, 512);
            t.insert(Point::new(&[2.0, 3.0]), 4.0).unwrap();
            assert_eq!(t.dominance_sum(&Point::new(&[2.0, 3.0])).unwrap(), 4.0);
            assert_eq!(t.dominance_sum(&Point::new(&[1.99, 5.0])).unwrap(), 0.0);
            assert_eq!(t.dominance_sum(&Point::new(&[5.0, 2.99])).unwrap(), 0.0);
        }
    }

    fn compare(dim: usize, policy: BorderPolicy, n: usize, page: usize, seed: u64) {
        let mut t = new_tree(dim, policy, page);
        let mut oracle = NaiveDominanceIndex::new(dim);
        let mut s = seed;
        for i in 0..n {
            // Coarse grid to generate many duplicate coordinates.
            let p = Point::from_fn(dim, |_| (rnd(&mut s) * 25.0).floor());
            let v = (i % 9) as f64 - 4.0;
            t.insert(p, v).unwrap();
            oracle.insert(p, v).unwrap();
            if i % 97 == 0 {
                let q = Point::from_fn(dim, |_| (rnd(&mut s) * 26.0).floor());
                let got = t.dominance_sum(&q).unwrap();
                let want = oracle.dominance_sum(&q).unwrap();
                assert!(
                    (got - want).abs() < 1e-6,
                    "{policy:?} dim {dim} i={i}: got {got}, want {want} at {q:?}"
                );
            }
        }
        for _ in 0..200 {
            let q = Point::from_fn(dim, |_| (rnd(&mut s) * 26.0).floor());
            let got = t.dominance_sum(&q).unwrap();
            let want = oracle.dominance_sum(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-6,
                "{policy:?} dim {dim}: got {got}, want {want} at {q:?}"
            );
        }
        assert_eq!(t.enumerate().unwrap().len(), n);
    }

    #[test]
    fn bu_matches_naive_1d() {
        compare(1, BorderPolicy::UpdateOptimized, 700, 256, 3);
    }

    #[test]
    fn bq_matches_naive_1d() {
        compare(1, BorderPolicy::QueryOptimized, 700, 256, 4);
    }

    #[test]
    fn bu_matches_naive_2d() {
        compare(2, BorderPolicy::UpdateOptimized, 700, 256, 5);
    }

    #[test]
    fn bq_matches_naive_2d() {
        compare(2, BorderPolicy::QueryOptimized, 700, 256, 6);
    }

    #[test]
    fn bu_matches_naive_3d() {
        compare(3, BorderPolicy::UpdateOptimized, 500, 512, 7);
    }

    #[test]
    fn bq_matches_naive_3d() {
        compare(3, BorderPolicy::QueryOptimized, 400, 512, 8);
    }

    fn compare_bulk(dim: usize, policy: BorderPolicy, n: usize, seed: u64) {
        let mut s = seed;
        let mut pts = Vec::new();
        for i in 0..n {
            let p = Point::from_fn(dim, |_| (rnd(&mut s) * 25.0).floor());
            pts.push((p, (i % 5) as f64 + 1.0));
        }
        let store = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
        let t = EcdfBTree::bulk_load(store, dim, policy, 8, pts.clone()).unwrap();
        let mut oracle = NaiveDominanceIndex::new(dim);
        for (p, v) in pts {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..200 {
            let q = Point::from_fn(dim, |_| (rnd(&mut s) * 26.0).floor());
            let got = t.dominance_sum(&q).unwrap();
            let want = oracle.dominance_sum(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-6,
                "bulk {policy:?} dim {dim}: got {got}, want {want} at {q:?}"
            );
        }
        assert_eq!(t.len(), n);
    }

    #[test]
    fn bulk_bu_2d() {
        compare_bulk(2, BorderPolicy::UpdateOptimized, 900, 11);
    }

    #[test]
    fn bulk_bq_2d() {
        compare_bulk(2, BorderPolicy::QueryOptimized, 900, 12);
    }

    #[test]
    fn bulk_bu_3d() {
        compare_bulk(3, BorderPolicy::UpdateOptimized, 600, 13);
    }

    #[test]
    fn bulk_then_dynamic_inserts() {
        for policy in POLICIES {
            let mut s = 21u64;
            let mut pts = Vec::new();
            for _ in 0..400 {
                pts.push((Point::from_fn(2, |_| (rnd(&mut s) * 25.0).floor()), 1.0));
            }
            let store = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
            let mut t = EcdfBTree::bulk_load(store, 2, policy, 8, pts.clone()).unwrap();
            let mut oracle = NaiveDominanceIndex::new(2);
            for (p, v) in pts {
                oracle.insert(p, v).unwrap();
            }
            for _ in 0..300 {
                let p = Point::from_fn(2, |_| (rnd(&mut s) * 25.0).floor());
                t.insert(p, 2.0).unwrap();
                oracle.insert(p, 2.0).unwrap();
            }
            for _ in 0..150 {
                let q = Point::from_fn(2, |_| (rnd(&mut s) * 26.0).floor());
                assert_eq!(
                    t.dominance_sum(&q).unwrap(),
                    oracle.dominance_sum(&q).unwrap(),
                    "{policy:?} at {q:?}"
                );
            }
        }
    }

    #[test]
    fn bq_space_exceeds_bu_space() {
        // Table 1: the Bq-tree trades space for query time.
        let mut s = 33u64;
        let pts: Vec<(Point, f64)> = (0..2000)
            .map(|_| (Point::from_fn(2, |_| rnd(&mut s)), 1.0))
            .collect();
        let store_u = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
        let _u = EcdfBTree::bulk_load(
            store_u.clone(),
            2,
            BorderPolicy::UpdateOptimized,
            8,
            pts.clone(),
        )
        .unwrap();
        let store_q = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
        let _q =
            EcdfBTree::bulk_load(store_q.clone(), 2, BorderPolicy::QueryOptimized, 8, pts).unwrap();
        assert!(
            store_q.live_pages() > store_u.live_pages(),
            "Bq {} pages should exceed Bu {} pages",
            store_q.live_pages(),
            store_u.live_pages()
        );
    }

    #[test]
    fn destroy_frees_everything() {
        for policy in POLICIES {
            let store = SharedStore::open(&StoreConfig::small(256, 64)).unwrap();
            let baseline = store.live_pages();
            let mut t: EcdfBTree<f64> = EcdfBTree::create(store.clone(), 2, policy, 8).unwrap();
            let mut s = 9u64;
            for _ in 0..500 {
                t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
            }
            assert!(store.live_pages() > baseline);
            t.destroy().unwrap();
            assert_eq!(store.live_pages(), baseline, "{policy:?} leaked pages");
        }
    }

    #[test]
    fn all_points_identical_still_split_and_query() {
        for policy in POLICIES {
            let mut t = new_tree(2, policy, 256);
            let mut oracle = NaiveDominanceIndex::new(2);
            for _ in 0..100 {
                t.insert(Point::new(&[5.0, 5.0]), 1.0).unwrap();
                oracle.insert(Point::new(&[5.0, 5.0]), 1.0).unwrap();
            }
            assert_eq!(t.dominance_sum(&Point::new(&[5.0, 5.0])).unwrap(), 100.0);
            assert_eq!(t.dominance_sum(&Point::new(&[4.9, 5.0])).unwrap(), 0.0);
        }
    }

    #[test]
    fn corrupt_pages_error_instead_of_panicking() {
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let mut t: EcdfBTree<f64> =
            EcdfBTree::create(store.clone(), 2, BorderPolicy::QueryOptimized, 8).unwrap();
        let mut s = 61u64;
        for _ in 0..300 {
            t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
        }
        store.write_page(t.root_page(), &[0xAB; 48]).unwrap();
        assert!(t.dominance_sum(&Point::new(&[0.5, 0.5])).is_err());
        assert!(t.insert(Point::new(&[0.5, 0.5]), 1.0).is_err());
    }

    #[test]
    fn negative_values_cancel_exactly() {
        for policy in POLICIES {
            let mut t = new_tree(2, policy, 512);
            let mut s = 71u64;
            let pts: Vec<Point> = (0..300)
                .map(|_| Point::from_fn(2, |_| rnd(&mut s)))
                .collect();
            for p in &pts {
                t.insert(*p, 3.5).unwrap();
            }
            for p in &pts {
                t.insert(*p, -3.5).unwrap();
            }
            for _ in 0..50 {
                let q = Point::from_fn(2, |_| rnd(&mut s));
                assert_eq!(t.dominance_sum(&q).unwrap(), 0.0, "{policy:?}");
            }
        }
    }

    #[test]
    fn snapshot_queries_are_stable_under_later_commits() {
        for policy in POLICIES {
            let store = SharedStore::open(&StoreConfig::small(512, 64).with_wal(true)).unwrap();
            let mut t: EcdfBTree<f64> = EcdfBTree::create(store.clone(), 2, policy, 8).unwrap();
            let mut s = 33u64;
            for _ in 0..200 {
                t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
            }
            t.persist_as("e").unwrap();
            store.commit().unwrap();

            let snap = Arc::new(store.snapshot().unwrap());
            let frozen: EcdfBTree<f64> = EcdfBTree::open_named(&snap, "e").unwrap();
            assert_eq!(frozen.len(), 200, "{policy:?}");
            let q = Point::new(&[0.8, 0.8]);
            let want = frozen.dominance_sum(&q).unwrap();
            assert_eq!(t.dominance_sum(&q).unwrap(), want, "{policy:?}");

            // Keep inserting and committing: splits rebuild borders,
            // freeing and reallocating pages the pinned epoch still
            // needs.
            for i in 0..300 {
                t.insert(Point::from_fn(2, |_| rnd(&mut s)), 1.0).unwrap();
                if i % 60 == 59 {
                    t.persist_as("e").unwrap();
                    store.commit().unwrap();
                }
            }
            t.persist_as("e").unwrap();
            store.commit().unwrap();

            assert_eq!(
                frozen.dominance_sum(&q).unwrap(),
                want,
                "{policy:?}: snapshot answer moved under later commits"
            );
            let refrozen: EcdfBTree<f64> = EcdfBTree::open_named(&snap, "e").unwrap();
            assert_eq!(refrozen.len(), 200, "{policy:?}");
            assert_eq!(refrozen.dominance_sum(&q).unwrap(), want);
            assert!(t.dominance_sum(&q).unwrap() > want, "{policy:?}");
            drop(snap);
            store.validate().unwrap();
        }
    }

    #[test]
    fn split_position_prefers_key_boundaries() {
        // keys: [1,1,1,2,2]; boundary at index 3.
        let keys = [1, 1, 1, 2, 2];
        let cut = split_position(keys.len(), |i| keys[i - 1] != keys[i]);
        assert_eq!(cut, 3);
        // All equal: falls back near the middle.
        let cut = split_position(6, |_| false);
        assert_eq!(cut, 3);
    }

    /// A value's exact bits: its encoding.
    fn bits<V: AggValue>(v: &V) -> Vec<u8> {
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        w.into_vec()
    }

    /// What a mutated page of `layout` at `level` must do: decode, or
    /// refuse with a typed error. The leaf row scan over dimensions
    /// `level..` answers exactly what the decoded leaf's scan does,
    /// declines only values of no fixed width, and answers nothing the
    /// decode refuses. Returns whether the page decoded.
    fn check_mutant<V: AggValue>(
        bytes: &[u8],
        layout: &Ecdf,
        level: usize,
        queries: &[Point],
    ) -> bool {
        let node = Node::<V>::decode(bytes, layout, level);
        if let Err(e) = &node {
            assert!(matches!(e, Error::Corrupt(_)), "untyped refusal: {e:?}");
        }
        let sums = paged::leaf_sums::<V>(bytes, layout.dim);
        if sums.is_some() {
            assert!(matches!(node, Ok(Node::Leaf(_))), "sums of {node:?}");
        }
        let kept: &[Option<&LeafSums<V>>] = match &sums {
            Some(sums) => &[None, Some(sums)],
            None => &[None],
        };
        for q in queries {
            for &sums in kept {
                let at = format!("level {level} q {q:?}, sums kept {}", sums.is_some());
                match (
                    &node,
                    paged::sum_leaf_rows::<V>(bytes, layout.dim, level, q, sums),
                ) {
                    (Ok(Node::Leaf(s)), Some(sum)) => {
                        let mut want = V::zero();
                        s.sum_dominated_from_into(level, q, &mut want);
                        assert_eq!(bits(&sum), bits(&want), "{at}")
                    }
                    (Ok(Node::Leaf(_)), None) => {
                        assert!(matches!(V::WIDTH, EncodedWidth::AtLeast(_)), "declined")
                    }
                    (_, None) => {}
                    (got, Some(_)) => panic!("the scan answered a page that decoded to {got:?}"),
                }
            }
        }
        node.is_ok()
    }

    /// Seed pages `(layout, level, bytes)` of a 2-d and a 3-d family:
    /// leaves at every level, sorted and not, with ties; index pages
    /// with tree borders and, at the last level, value borders.
    fn seed_pages<V: AggValue>(value: impl Fn(usize) -> V) -> Vec<(Ecdf, usize, Vec<u8>)> {
        let mut pages = Vec::new();
        for dim in [2, 3] {
            let layout = layout(dim);
            for level in 0..dim {
                let point = |i: usize| Point::from_fn(dim, |d| ((i * (d + level + 2)) % 13) as f64);
                for n in [0, 1, 70] {
                    let slab = EntrySlab::from_entries(
                        dim,
                        (0..n).map(|i| (point(i), value(i))).collect(),
                    );
                    let mut w = ByteWriter::new();
                    Node::Leaf(slab).encode(&layout, level, &mut w);
                    pages.push((layout, level, w.into_vec()));
                }
                let entry = |i: usize| InternalEntry {
                    router: i as f64 - 0.0,
                    child: PageId(i as u64 + 1),
                    border: if level + 1 == dim {
                        Border::Value(value(i))
                    } else {
                        Border::Tree(PageId(40 + i as u64))
                    },
                };
                let mut w = ByteWriter::new();
                Node::Index((0..5).map(entry).collect()).encode(&layout, level, &mut w);
                pages.push((layout, level, w.into_vec()));
            }
        }
        pages
    }

    /// Runs `inputs` seeded mutants of every seed page through
    /// [`check_mutant`], for `f64` and `Poly` values; returns how many
    /// decoded.
    fn fuzz(inputs: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = seed_pages(|i| [1.5, -0.0, 0.0, -2.25, 1e300][i % 5]);
        let poly = seed_pages(|i| Poly::monomial(i as f64 - 1.5, &[(i % 3) as u8, 1]));
        let mut decoded = 0;
        for i in 0..inputs {
            let (layout, level, page) = if i % 2 == 0 {
                &flat[i / 2 % flat.len()]
            } else {
                &poly[i / 2 % poly.len()]
            };
            let dim = layout.dim;
            let queries = [
                Point::splat(dim, f64::INFINITY),
                Point::splat(dim, 0.0),
                Point::splat(dim, 6.5),
                Point::from_fn(dim, |d| [3.0, -0.0, 12.0][d % 3]),
            ];
            let bytes = rng.mutate(page);
            decoded += usize::from(if i % 2 == 0 {
                check_mutant::<f64>(&bytes, layout, *level, &queries)
            } else {
                check_mutant::<Poly>(&bytes, layout, *level, &queries)
            });
        }
        decoded
    }

    #[test]
    fn fuzz_mutated_pages_decode_or_refuse_and_the_row_scan_agrees() {
        // 20,000 mutants over 20 seed pages per value type.
        let decoded = fuzz(20_000, 0xECDF_F022);
        assert!(
            (2_000..18_000).contains(&decoded),
            "{decoded} of 20,000 mutants decoded: the mutator is degenerate"
        );
    }

    /// The documented longer run: `cargo test --release -p boxagg-ecdf
    /// --lib fuzz -- --ignored`.
    #[test]
    #[ignore = "long fuzz run"]
    fn fuzz_long_run() {
        for seed in 0..50 {
            fuzz(200_000, seed);
        }
    }
}
