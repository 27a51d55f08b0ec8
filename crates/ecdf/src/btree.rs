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

use std::sync::Arc;

use boxagg_common::bytes::ByteWriter;
use boxagg_common::error::{corrupt, invalid_arg, Error, Result};
use boxagg_common::geom::Point;
use boxagg_common::slab::EntrySlab;
use boxagg_common::traits::{check_insert, check_query, DominanceSumIndex};
use boxagg_common::value::AggValue;
use boxagg_pagestore::{PageId, ReadHandle, RootEntry, RootKind, SharedStore};

/// Which prefix of subtrees each border covers (Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BorderPolicy {
    /// ECDF-Bu-tree: border `i` covers `subtree(e_i)`.
    UpdateOptimized,
    /// ECDF-Bq-tree: border `i` covers `subtree(e_1..e_i)`.
    QueryOptimized,
}

#[derive(Clone, Copy, Debug)]
struct EcdfParams {
    page_size: usize,
    max_value_size: usize,
}

const HEADER: usize = 3;

impl EcdfParams {
    fn payload(&self) -> usize {
        self.page_size.saturating_sub(HEADER)
    }

    fn leaf_entry_size(&self, dim: usize) -> usize {
        Point::encoded_size(dim) + self.max_value_size
    }

    fn leaf_cap(&self, dim: usize) -> usize {
        self.payload() / self.leaf_entry_size(dim)
    }

    fn internal_entry_size(&self) -> usize {
        // router + child + border (page id or inline value)
        8 + 8 + self.max_value_size.max(8)
    }

    fn internal_cap(&self) -> usize {
        self.payload() / self.internal_entry_size()
    }

    fn validate(&self, dim: usize) -> Result<()> {
        if self.leaf_cap(dim) < 2 || self.internal_cap() < 3 {
            return Err(Error::RecordTooLarge {
                record: self.leaf_entry_size(dim).max(self.internal_entry_size()),
                page: self.payload() / 3,
            });
        }
        Ok(())
    }
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

#[derive(Debug, Clone)]
enum Node<V> {
    /// Decoded struct-of-arrays leaf: one coordinate column per
    /// dimension plus a values column, so the hot dominance scan walks
    /// contiguous `f64` runs. The on-page bytes are unchanged (the
    /// interleaved per-entry point/value layout).
    Leaf(EntrySlab<V>),
    Internal(Vec<InternalEntry<V>>),
}

impl<V: AggValue> Node<V> {
    fn fits(&self, params: &EcdfParams, dim: usize) -> bool {
        match self {
            Node::Leaf(es) => es.len() <= params.leaf_cap(dim),
            Node::Internal(es) => es.len() <= params.internal_cap(),
        }
    }

    fn encode(&self, dim: usize, level: usize, w: &mut ByteWriter) {
        match self {
            Node::Leaf(entries) => {
                debug_assert_eq!(entries.dim(), dim);
                w.put_u8(0);
                w.put_u16(entries.len() as u16);
                entries.encode_entries(w);
            }
            Node::Internal(entries) => {
                w.put_u8(1);
                w.put_u16(entries.len() as u16);
                for e in entries {
                    w.put_f64(e.router);
                    w.put_u64(e.child.0);
                    match (&e.border, level + 1 == dim) {
                        (Border::Tree(id), false) => w.put_u64(id.0),
                        (Border::Value(v), true) => v.encode(w),
                        _ => unreachable!("border kind inconsistent with level"),
                    }
                }
            }
        }
    }

    fn decode(bytes: &[u8], dim: usize, level: usize) -> Result<Self> {
        let mut r = boxagg_common::bytes::ByteReader::new(bytes);
        let tag = r.get_u8()?;
        let count = r.get_u16()? as usize;
        match tag {
            0 => Ok(Node::Leaf(EntrySlab::decode_entries(&mut r, dim, count)?)),
            1 => {
                // `count` is input: check it against the page before
                // allocating for it.
                let last = level + 1 == dim;
                let min_entry = 8 + 8 + if last { V::WIDTH.min() } else { 8 };
                r.expect_records(count, min_entry)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let router = r.get_f64()?;
                    let child = PageId(r.get_u64()?);
                    let border = if last {
                        Border::Value(V::decode(&mut r)?)
                    } else {
                        Border::Tree(PageId(r.get_u64()?))
                    };
                    entries.push(InternalEntry {
                        router,
                        child,
                        border,
                    });
                }
                Ok(Node::Internal(entries))
            }
            t => Err(corrupt(format!("unknown ECDF-B node tag {t}"))),
        }
    }
}

/// Shared context threaded through every operation. `pages` is where the
/// tree was opened from — the live store or a pinned commit epoch (see
/// [`ReadHandle`]). Reads go through it blindly; every mutation asks it
/// for the writable store first and so fails with a typed error on a
/// pinned tree.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    pages: &'a ReadHandle,
    params: &'a EcdfParams,
    dim: usize,
    policy: BorderPolicy,
}

impl<'a> Ctx<'a> {
    /// The store to mutate, or `Error::ReadOnly` on a pinned tree.
    fn store(&self) -> Result<&'a SharedStore> {
        self.pages.writable()
    }

    /// Shared read of a decoded node. Live trees take the decode their
    /// page's buffer frame holds (warm traversals skip `Node::decode` entirely;
    /// byte-level I/O accounting is unchanged, see
    /// `SharedStore::read_node`); pinned trees decode the pinned epoch's
    /// page image.
    fn read_shared<V: AggValue>(&self, id: PageId, level: usize) -> Result<Arc<Node<V>>> {
        let dim = self.dim;
        self.pages
            .read_node(id, |bytes| Node::decode(bytes, dim, level))
    }

    /// Owned read for mutation paths: a deep clone of the shared decode
    /// (cloning is cheaper than re-parsing bytes on a cache hit).
    fn read<V: AggValue>(&self, id: PageId, level: usize) -> Result<Node<V>> {
        let shared: Arc<Node<V>> = self.read_shared(id, level)?;
        Ok((*shared).clone())
    }

    fn write<V: AggValue>(&self, id: PageId, level: usize, node: &Node<V>) -> Result<()> {
        debug_assert!(node.fits(self.params, self.dim));
        let mut w = ByteWriter::with_capacity(self.params.page_size);
        node.encode(self.dim, level, &mut w);
        self.store()?.write_page(id, w.as_slice())
    }

    fn new_leaf<V: AggValue>(&self, level: usize) -> Result<PageId> {
        let id = self.store()?.allocate()?;
        self.write::<V>(id, level, &Node::Leaf(EntrySlab::new(self.dim)))?;
        Ok(id)
    }
}

// ---------------------------------------------------------------------
// enumeration / free / bulk loading
// ---------------------------------------------------------------------

fn enumerate<V: AggValue>(
    ctx: Ctx<'_>,
    level: usize,
    root: PageId,
    out: &mut Vec<(Point, V)>,
) -> Result<()> {
    if root.is_null() {
        return Ok(());
    }
    match &*ctx.read_shared::<V>(root, level)? {
        Node::Leaf(entries) => out.extend(entries.iter().map(|(p, v)| (p, v.clone()))),
        Node::Internal(entries) => {
            for e in entries {
                enumerate::<V>(ctx, level, e.child, out)?;
            }
        }
    }
    Ok(())
}

fn free_tree<V: AggValue>(ctx: Ctx<'_>, level: usize, root: PageId) -> Result<()> {
    if root.is_null() {
        return Ok(());
    }
    if let Node::Internal(entries) = &*ctx.read_shared::<V>(root, level)? {
        for e in entries {
            free_tree::<V>(ctx, level, e.child)?;
            if let Border::Tree(b) = e.border {
                free_tree::<V>(ctx, level + 1, b)?;
            }
        }
    }
    ctx.store()?.free(root)?;
    Ok(())
}

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
    if node_level + 1 == ctx.dim {
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
    let leaf_cap = ctx.params.leaf_cap(ctx.dim);
    let mut level_items: Vec<(f64, PageId, std::ops::Range<usize>)> = Vec::new();
    let n = points.len();
    let mut start = 0;
    while start < n {
        let end = (start + leaf_cap).min(n);
        // Decode target is a slab; build it straight from the sorted
        // slice without an intermediate tuple clone.
        let chunk = EntrySlab::from_slice(ctx.dim, &points[start..end]);
        let router = points[end - 1].0.get(level);
        let id = ctx.store()?.allocate()?;
        ctx.write(id, level, &Node::Leaf(chunk))?;
        level_items.push((router, id, start..end));
        start = end;
    }

    // Internal levels: seal entries in groups, computing borders from the
    // covered point ranges.
    let cap = ctx.params.internal_cap();
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
                let border_points = match ctx.policy {
                    BorderPolicy::UpdateOptimized => points[range.clone()].to_vec(),
                    BorderPolicy::QueryOptimized => points[node_start..range.end].to_vec(),
                };
                entries.push(InternalEntry {
                    router: *router,
                    child: *child,
                    border: make_border(ctx, level, border_points)?,
                });
            }
            let id = ctx.store()?.allocate()?;
            // lint: allow(unwrap) -- one entry per group member, group non-empty
            let router = entries.last().unwrap().router;
            ctx.write(id, level, &Node::Internal(entries))?;
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
    match &*ctx.read_shared::<V>(root, level)? {
        Node::Leaf(entries) => {
            // Dominance on dimensions `level..d` only: the enclosing
            // levels already resolved the lower coordinates. The slab
            // scan runs column-wise over contiguous coordinate runs.
            let mut acc = V::zero();
            entries.sum_dominated_from_into(level, q, &mut acc);
            Ok(acc)
        }
        Node::Internal(entries) => {
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
            match ctx.policy {
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
            let new_root = ctx.store()?.allocate()?;
            ctx.write(new_root, level, &Node::Internal(entries))?;
            Ok(new_root)
        }
    }
}

fn empty_border<V: AggValue>(ctx: Ctx<'_>, node_level: usize) -> Border<V> {
    if node_level + 1 == ctx.dim {
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
            free_tree::<V>(ctx, node_level + 1, old)?;
        }
        let mut pts = Vec::new();
        match ctx.policy {
            BorderPolicy::UpdateOptimized => {
                enumerate::<V>(ctx, node_level, entries[i].child, &mut pts)?;
            }
            BorderPolicy::QueryOptimized => {
                for e in entries[..=i].iter() {
                    enumerate::<V>(ctx, node_level, e.child, &mut pts)?;
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
            if entries.len() <= ctx.params.leaf_cap(ctx.dim) {
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
            let right_page = ctx.store()?.allocate()?;
            ctx.write(right_page, level, &Node::Leaf(right))?;
            ctx.write(node_id, level, &node)?;
            Ok(Some(SplitUp {
                left_router,
                right_page,
                right_router,
            }))
        }
        Node::Internal(entries) => {
            let key = p.get(level);
            // Descend into the first subtree whose router covers the key;
            // extend the last router when the key exceeds every subtree.
            let mut i = entries.partition_point(|e| e.router < key);
            if i == entries.len() {
                i -= 1;
                entries[i].router = key;
            }
            // Border maintenance on the way down (Fig. 6a / 6c).
            match ctx.policy {
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
                match ctx.policy {
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
            if entries.len() <= ctx.params.internal_cap() {
                ctx.write(node_id, level, &node)?;
                return Ok(None);
            }
            // Internal split.
            let cut = entries.len() / 2;
            let mut right: Vec<InternalEntry<V>> = entries.split_off(cut);
            if ctx.policy == BorderPolicy::QueryOptimized {
                // Prefixes are per-node: the high node's borders must no
                // longer include the low node's subtrees.
                let idx: Vec<usize> = (0..right.len()).collect();
                rebuild_borders(ctx, level, &mut right, &idx)?;
            }
            // lint: allow(unwrap) -- split_position cuts strictly inside, both halves non-empty
            let left_router = entries.last().unwrap().router;
            // lint: allow(unwrap) -- split_position cuts strictly inside, both halves non-empty
            let right_router = right.last().unwrap().router;
            let right_page = ctx.store()?.allocate()?;
            ctx.write(right_page, level, &Node::Internal(right))?;
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
    /// Where pages come from: the live store, or the pinned epoch the
    /// tree was opened at (read-only).
    pages: ReadHandle,
    params: EcdfParams,
    dim: usize,
    policy: BorderPolicy,
    root: PageId,
    len: usize,
    _marker: std::marker::PhantomData<V>,
}

impl<V: AggValue> EcdfBTree<V> {
    /// Creates an empty tree over `dim`-dimensional points.
    pub fn create(
        store: SharedStore,
        dim: usize,
        policy: BorderPolicy,
        max_value_size: usize,
    ) -> Result<Self> {
        let mut tree = Self::open_in(store.into(), dim, policy, max_value_size, PageId::NULL, 0)?;
        tree.root = tree.ctx().new_leaf::<V>(0)?;
        Ok(tree)
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
        let len = points.len();
        let mut tree = Self::open_in(store.into(), dim, policy, max_value_size, PageId::NULL, len)?;
        // Refuse what `insert` would, before a page is written: a NaN
        // coordinate would silently corrupt the router ordering the whole
        // structure depends on, and a value that is not finite every sum.
        for (p, v) in &points {
            tree.check_insert(p, v)?;
        }
        tree.root = if points.is_empty() {
            tree.ctx().new_leaf::<V>(0)?
        } else {
            bulk_build(tree.ctx(), 0, points)?
        };
        Ok(tree)
    }

    fn open_in(
        pages: ReadHandle,
        dim: usize,
        policy: BorderPolicy,
        max_value_size: usize,
        root: PageId,
        len: usize,
    ) -> Result<Self> {
        if dim == 0 {
            return Err(invalid_arg("dimension must be at least 1"));
        }
        let params = EcdfParams {
            page_size: pages.store().payload_size(),
            max_value_size,
        };
        params.validate(dim)?;
        Ok(Self {
            pages,
            params,
            dim,
            policy,
            root,
            len,
            _marker: std::marker::PhantomData,
        })
    }

    /// Publishes this tree under `name` in the store's superblock
    /// catalog, so [`open_named`](Self::open_named) can reopen it with
    /// no out-of-band state. The border policy is recorded as the root
    /// kind; ECDF-B-trees have no bounding space, so every dimension
    /// records `(-∞, +∞)` (the catalog codec carries exactly one bound
    /// pair per dimension). Call again after mutations to refresh the
    /// recorded root and length.
    pub fn persist_as(&self, name: &str) -> Result<()> {
        self.pages.writable()?.set_root(
            name,
            RootEntry {
                root: self.root,
                len: self.len as u64,
                dims: self.dim as u32,
                max_value_size: self.params.max_value_size as u32,
                kind: match self.policy {
                    BorderPolicy::UpdateOptimized => RootKind::EcdfUpdate,
                    BorderPolicy::QueryOptimized => RootKind::EcdfQuery,
                },
                bounds: vec![(f64::NEG_INFINITY, f64::INFINITY); self.dim],
            },
        )
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
        let pages = pages.into();
        let entry = pages
            .root(name)?
            .ok_or_else(|| invalid_arg(format!("no root named {name:?} in the store catalog")))?;
        let policy = match entry.kind {
            RootKind::EcdfUpdate => BorderPolicy::UpdateOptimized,
            RootKind::EcdfQuery => BorderPolicy::QueryOptimized,
            other => {
                return Err(invalid_arg(format!(
                    "root {name:?} is a {other:?}, not an ECDF-B-tree"
                )))
            }
        };
        Self::open_in(
            pages,
            entry.dims as usize,
            policy,
            entry.max_value_size as usize,
            entry.root,
            entry.len as usize,
        )
    }

    /// The border policy.
    pub fn policy(&self) -> BorderPolicy {
        self.policy
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.pages.store()
    }

    /// The root page id.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            pages: &self.pages,
            params: &self.params,
            dim: self.dim,
            policy: self.policy,
        }
    }

    /// Collects every indexed point (tests/diagnostics).
    pub fn enumerate(&self) -> Result<Vec<(Point, V)>> {
        let mut out = Vec::new();
        enumerate(self.ctx(), 0, self.root, &mut out)?;
        Ok(out)
    }

    /// Frees every page of the tree.
    pub fn destroy(self) -> Result<()> {
        free_tree::<V>(self.ctx(), 0, self.root)
    }
}

impl<V: AggValue> DominanceSumIndex<V> for EcdfBTree<V> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn check_insert(&self, p: &Point, v: &V) -> Result<()> {
        check_insert(p, self.dim, v)?;
        if !p.is_finite() {
            return Err(invalid_arg(format!(
                "point {p:?} has a non-finite coordinate"
            )));
        }
        Ok(())
    }

    fn insert(&mut self, p: Point, v: V) -> Result<()> {
        self.check_insert(&p, &v)?;
        self.root = tree_insert(self.ctx(), 0, self.root, p, v)?;
        self.len += 1;
        Ok(())
    }

    fn dominance_sum(&self, q: &Point) -> Result<V> {
        check_query(q, self.dim)?;
        query_tree(self.ctx(), 0, self.root, q)
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

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
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
        leaf.encode(2, 0, &mut w);
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
        let back: Node<f64> = Node::decode(w.as_slice(), 2, 0).unwrap();
        match back {
            Node::Leaf(entries) => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries.point(0), Point::new(&[1.0, 2.0]));
                assert_eq!(*entries.value(0), 3.5);
                assert_eq!(entries.point(1), Point::new(&[-4.0, 0.25]));
            }
            Node::Internal(_) => panic!("leaf decoded as internal"),
        }

        // Internal node at the last level (value borders).
        let internal: Node<f64> = Node::Internal(vec![InternalEntry {
            router: 7.5,
            child: PageId(42),
            border: Border::Value(9.0),
        }]);
        let mut w = ByteWriter::new();
        internal.encode(1, 0, &mut w);
        let back: Node<f64> = Node::decode(w.as_slice(), 1, 0).unwrap();
        match back {
            Node::Internal(entries) => {
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
        let internal: Node<f64> = Node::Internal(vec![InternalEntry {
            router: -1.0,
            child: PageId(7),
            border: Border::Tree(PageId(13)),
        }]);
        let mut w = ByteWriter::new();
        internal.encode(2, 0, &mut w);
        let back: Node<f64> = Node::decode(w.as_slice(), 2, 0).unwrap();
        match back {
            Node::Internal(entries) => match entries[0].border {
                Border::Tree(id) => assert_eq!(id, PageId(13)),
                Border::Value(_) => panic!("tree border decoded as value"),
            },
            Node::Leaf(_) => panic!("internal decoded as leaf"),
        }

        // Corrupt tag is rejected, not misparsed.
        assert!(Node::<f64>::decode(&[9u8, 0, 0], 2, 0).is_err());
    }

    #[test]
    fn record_count_is_checked_before_anything_is_allocated() {
        use boxagg_common::error::Error;
        // A header claiming 65,535 entries and not one byte of them: the
        // parent reserved all 65,535 (≈ 2 MB of internal entries, or
        // that many words per leaf column) before it read the first.
        for (dim, level) in [(1, 0), (2, 0), (2, 1)] {
            match Node::<f64>::decode(&[1u8, 0xFF, 0xFF], dim, level) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains("record count 65535"), "{msg}"),
                other => panic!("internal, dim {dim} level {level}: {other:?}"),
            }
            match Node::<f64>::decode(&[0u8, 0xFF, 0xFF], dim, level) {
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
            Node::Internal(vec![entry; 12]),
        ] {
            let mut w = ByteWriter::new();
            node.encode(2, 1, &mut w);
            Node::<f64>::decode(w.as_slice(), 2, 1).unwrap();
            let half = &w.as_slice()[..3 + (w.len() - 3) / 2];
            assert!(matches!(
                Node::<f64>::decode(half, 2, 1),
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
}
