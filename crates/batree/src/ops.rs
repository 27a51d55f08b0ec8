//! Recursive BA-tree operations.
//!
//! These free functions operate on *tree handles* — `(root page, dim,
//! space)` triples — rather than on a tree object, because a `d`-dim
//! BA-tree owns a forest of `(d−1)`-dim border trees (one per index
//! record per dimension, §5) that live in the same page store and are
//! manipulated by the same code.
//!
//! ## Region classification (insertion)
//!
//! Inserting point `p` against an index record `r` (where `p` is *not*
//! inside `r.rect`): let `S = { j : p[j] < r.rect.low()[j] }` and require
//! `p[j] ≤ r.rect.high()[j]` for every `j ∉ S` (otherwise `p` exceeds the
//! record somewhere and can never be dominated by a query point inside
//! `r.rect` — skip). Then:
//!
//! * `S` covers all dimensions → `p` is dominated by the record's low
//!   point: fold into `r.subtotal` (Fig. 7a);
//! * otherwise → insert `p` (projected, dropping `min(S)`) into border
//!   `min(S)` (Fig. 7b/7c). Any `k ∈ S` would be correct — the border
//!   query re-checks dominance on every retained dimension and dimension
//!   `k` is auto-dominated — and the split rules below exploit that
//!   freedom.
//!
//! Unlike the paper's §5 space optimization, a point inserted into the
//! containing record's subtree *always* descends to a leaf (it is never
//! absorbed into a border it falls on). This keeps leaves a lossless
//! record of every insert, which the split machinery relies on to
//! enumerate and rebuild border trees.
//!
//! ## Split rules (record `F` → low `Fb` / high `Ft` along dim `j` at `m`)
//!
//! Derived from the classification rule; matches Fig. 8 in 2-d:
//!
//! * both halves inherit `F.subtotal` (`Ft.low` only moved *up* in dim
//!   `j`, so everything below `F.low` stays below both lows);
//! * border `j` (anchored on the split dimension, coordinates of `j`
//!   dropped): every entry is below both halves in dim `j` → `Fb` keeps
//!   the tree, `Ft` takes a rebuilt copy; on a *leaf* split `Ft`'s copy
//!   additionally receives the low page's points (they are below `Ft`
//!   in dim `j` only); on an *index* split nothing is added — deeper
//!   records inside `Ft`'s subtree already account for the low region;
//! * border `k ≠ j` (entries retain a coordinate in dim `j`): entries
//!   with `x[j] ≤ m` stay valid for `Fb`; for `Ft`, entries with
//!   `x[j] ≥ m` stay in the border, and entries with `x[j] < m` are
//!   below `Ft` in dim `j` as well — if they are now below `Ft.low` in
//!   *every* retained dimension they fold into `Ft.subtotal`, otherwise
//!   they remain border entries (anchored on `k ∈ S`, still correct).
//!   In 2-d the "otherwise" set is empty and this is exactly the
//!   paper's "the border along the split dimension is split in two".
//!
//! ## Held nodes
//!
//! A border tree's top node lives in its owning record
//! ([`BorderRef::Held`]) while [`Ba::holds`] it: a leaf of at most
//! [`Ba::inline_border_cap`] entries, or a 1-d tree's root index node of
//! at most [`Ba::dir_cap`] records. A held node takes an insert through
//! `insert_node`, as a page's node does, and leaves its record by one
//! rule (`settle`) that mirrors [`paged::Ctx::fits`]: a leaf past its cap
//! is rebuilt by [`build_tree`], an index node past its cap is written
//! as the tree's root page, and a root page that splits into few enough
//! records comes back as a held index node. A query adds a held leaf
//! into the record's sum as it scans it, and visits a held index node as
//! it would the root page (`top_query`, `query_node`), so it adds
//! exactly what that page's visit would, in the same order.
//!
//! ## Building
//!
//! Every border tree is built by the column loader: a 1-d one by
//! [`bulk_build_1d`], a higher one by [`bulk::bulk_build`], whose own
//! borders come back through [`build_border`]. So the bulk load, the
//! border rebuilds of a split and a held leaf's spill all build the same
//! way; [`tree_insert`] takes single points only.

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::{paged, PageId, Visit};

use crate::bulk;
use crate::node::{Ba, BorderRef, IndexRecord, Node};

/// The page context every operation threads (see [`paged::Ctx`]).
pub(crate) type Ctx<'a> = paged::Ctx<'a, Ba>;

/// Semi-open containment used to make the k-d-B tiling a partition:
/// `low[i] ≤ p[i] < high[i]`, closed at the top where the record touches
/// the space boundary. Record boxes are produced by exact coordinate
/// splits of `space`, so the `==` comparison against the space bound is
/// exact.
fn contains_partition(rect: &Rect, p: &Point, space: &Rect) -> bool {
    for i in 0..rect.dim() {
        let c = p.get(i);
        if c < rect.low().get(i) {
            return false;
        }
        let hi = rect.high().get(i);
        if c > hi || (c == hi && hi != space.high().get(i)) {
            return false;
        }
    }
    true
}

/// The record owning point `p`. The top-closure of [`contains_partition`]
/// can make *two* records contain a point when a split boundary
/// coincides with the space boundary (the high side then being a
/// degenerate slab): the owner is the record with the largest low corner
/// (lexicographically) — its subtree holds the boundary points, while
/// the lower record's queries can never dominate them. Insertion and
/// query must agree on this rule.
fn find_owner<V: AggValue>(records: &[IndexRecord<V>], p: &Point, space: &Rect) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, r) in records.iter().enumerate() {
        if contains_partition(&r.rect, p, space) {
            best = match best {
                None => Some(i),
                Some(j) => {
                    let a = records[j].rect.low();
                    let b = r.rect.low();
                    if b.coords().partial_cmp(a.coords()) == Some(std::cmp::Ordering::Greater) {
                        Some(i)
                    } else {
                        Some(j)
                    }
                }
            };
        }
    }
    best
}

/// Inserts into the tree rooted at `root` (NULL = empty), returning the
/// possibly-new root.
pub(crate) fn tree_insert<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    root: PageId,
    p: Point,
    v: V,
) -> Result<PageId> {
    debug_assert_eq!(p.dim(), dim);
    let root = if root.is_null() {
        ctx.new_leaf::<V>(dim)?
    } else {
        root
    };
    match insert_rec(ctx, dim, space, root, p, v)? {
        None => Ok(root),
        Some(oversized) => {
            let records = split_root(ctx, dim, space, root, oversized)?;
            write_root(ctx, dim, space, records)
        }
    }
}

/// Splits `oversized`, the contents of the root page `root` of a tree
/// over `space`, into the records of a new top level.
fn split_root<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    root: PageId,
    oversized: Node<V>,
) -> Result<Vec<IndexRecord<V>>> {
    let whole = IndexRecord {
        rect: *space,
        child: root,
        subtotal: V::zero(),
        borders: vec![BorderRef::empty(dim - 1); dim],
    };
    split_subtree(ctx, dim, space, whole, oversized)
}

/// Writes `records`, the top level of a tree over `space`, as a new root
/// page, under as many new root levels as it takes to fit a page.
fn write_root<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    records: Vec<IndexRecord<V>>,
) -> Result<PageId> {
    let mut node = Node::Index(records);
    loop {
        let root = ctx.store()?.allocate()?;
        if ctx.fits(&node, dim) {
            ctx.write(root, dim, &node)?;
            return Ok(root);
        }
        node = Node::Index(split_root(ctx, dim, space, root, node)?);
    }
}

/// The border `node` makes as the top of a `dim`-dim tree over `space`:
/// held while [`Ba::holds`] it; past that a leaf is rebuilt by
/// [`build_tree`], and an index node is written as the tree's root page.
fn settle<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    node: Node<V>,
) -> Result<BorderRef<V>> {
    if ctx.layout.holds(ctx.params, &node, dim) {
        return Ok(BorderRef::Held(node));
    }
    match node {
        Node::Leaf(entries) => build_tree(ctx, dim, space, entries.into_entries()),
        Node::Index(records) => Ok(BorderRef::Tree(write_root(ctx, dim, space, records)?)),
    }
}

/// Recursive insert. Returns `Some(node)` when the updated node no longer
/// fits its page — the caller (parent or root growth) splits it. Border
/// and subtotal registrations against sibling records happen on the way
/// down and are persisted with the node they live in.
fn insert_rec<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    node_id: PageId,
    p: Point,
    v: V,
) -> Result<Option<Node<V>>> {
    let mut node: Node<V> = ctx.read(node_id, dim)?;
    insert_node(ctx, dim, space, &mut node, p, v)?;
    if !ctx.fits(&node, dim) {
        return Ok(Some(node));
    }
    ctx.write(node_id, dim, &node)?;
    Ok(None)
}

/// Inserts into `node`, a page's or a held one; the caller decides what
/// an outgrown node becomes. A leaf merges a coincident point or takes a
/// new entry. An index node registers the point against every record but
/// its owner, inserts it below the owner, and splices in the pieces of an
/// owner's child that outgrew its page.
fn insert_node<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    node: &mut Node<V>,
    p: Point,
    v: V,
) -> Result<()> {
    let records = match node {
        Node::Leaf(entries) => {
            // Coincident points merge, which keeps leaves splittable:
            // distinct points always differ in some dimension.
            match entries.find_exact(&p) {
                Some(i) => entries.value_mut(i).add_assign(&v),
                None => entries.push(&p, v),
            }
            return Ok(());
        }
        Node::Index(records) => records,
    };
    let i = find_owner(records, &p, space)
        .ok_or_else(|| invalid_arg(format!("point {p:?} outside every record of the node")))?;
    for (k, r) in records.iter_mut().enumerate() {
        if k != i {
            // A contained-but-not-owning record (top-closure
            // overlap) is skipped inside: p is not below it
            // anywhere.
            register_against(ctx, dim, space, r, &p, &v)?;
        }
    }
    if let Some(oversized) = insert_rec(ctx, dim, space, records[i].child, p, v)? {
        let rec = records.remove(i);
        let mut pieces = split_subtree(ctx, dim, space, rec, oversized)?;
        let at = i.min(records.len());
        records.splice(at..at, pieces.drain(..));
    }
    Ok(())
}

/// Applies the region classification of the module docs to one
/// non-containing record: fold into the subtotal, insert into a border,
/// or skip.
pub(crate) fn register_against<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    r: &mut IndexRecord<V>,
    p: &Point,
    v: &V,
) -> Result<()> {
    let mut below_mask = 0usize;
    for j in 0..dim {
        if p.get(j) < r.rect.low().get(j) {
            below_mask |= 1 << j;
        } else if p.get(j) > r.rect.high().get(j) {
            // Above the record somewhere: never dominated by a query
            // point inside r.rect.
            return Ok(());
        }
    }
    if below_mask == 0 {
        return Ok(());
    }
    if below_mask == (1 << dim) - 1 {
        r.subtotal.add_assign(v);
        return Ok(());
    }
    let k = below_mask.trailing_zeros() as usize;
    debug_assert!(dim >= 2);
    let (pp, v) = (p.drop_dim(k), v.clone());
    let sub_space = space.drop_dim(k);
    let border = &mut r.borders[k];
    let top = match border {
        BorderRef::Held(node) => {
            insert_node(ctx, dim - 1, &sub_space, node, pp, v)?;
            if ctx.layout.holds(ctx.params, node, dim - 1) {
                return Ok(());
            }
            std::mem::replace(node, Node::empty_leaf(0))
        }
        BorderRef::Tree(root) => match insert_rec(ctx, dim - 1, &sub_space, *root, pp, v)? {
            None => return Ok(()),
            Some(oversized) => Node::Index(split_root(ctx, dim - 1, &sub_space, *root, oversized)?),
        },
    };
    *border = settle(ctx, dim - 1, &sub_space, top)?;
    Ok(())
}

/// Dominance-sum over the tree rooted at `root` (NULL = empty): total
/// value of points `x` with `x[i] ≤ q[i]` in every dimension.
pub(crate) fn tree_query<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    root: PageId,
    q: &Point,
) -> Result<V> {
    if root.is_null() {
        return Ok(V::zero());
    }
    top_query(ctx, dim, space, &BorderRef::Tree(root), q)
}

/// Dominance-sum over the tree whose top is `top`: its root page, or a
/// node held in a record.
fn top_query<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    top: &BorderRef<V>,
    q: &Point,
) -> Result<V> {
    // Clamp the query into the space: below the space floor nothing is
    // dominated; above the ceiling the ceiling is equivalent.
    for i in 0..dim {
        if q.get(i) < space.low().get(i) {
            return Ok(V::zero());
        }
    }
    let qc = q.component_min(space.high());
    match top {
        BorderRef::Tree(root) => query_rec(ctx, dim, space, *root, &qc),
        BorderRef::Held(node) => query_node(ctx, dim, space, node, &qc),
    }
}

// The dominance scans below are the tree's hottest loops; the slab scan
// keeps the exact add order of the scalar loop it replaced (bit-identical
// aggregates, see `EntrySlab::sum_dominated_into`). A leaf page's fresh
// sum from zero comes from its page's bytes and the running sums its
// frame keeps (`paged::Ctx::read_or_sum`), with the same bits; only a
// leaf the read decodes (`Poly` values, or a decode a mutation left in
// its frame) answers from its slab (`EntrySlab::dominated_sum`).
fn query_rec<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    node_id: PageId,
    q: &Point,
) -> Result<V> {
    match ctx.read_or_sum::<V>(node_id, dim, 0, q)? {
        Visit::Scanned(sum) => Ok(sum),
        Visit::Node(node) => query_node(ctx, dim, space, &node, q),
    }
}

/// The dominance-sum below `node`, a page's or a held one: a leaf's
/// dominated entries; for an index node, the owner's subtotal, then each
/// of its borders, then its child's sum.
fn query_node<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    node: &Node<V>,
    q: &Point,
) -> Result<V> {
    let records = match node {
        Node::Leaf(entries) => return Ok(entries.dominated_sum(q)),
        Node::Index(records) => records,
    };
    let i = find_owner(records, q, space)
        .ok_or_else(|| invalid_arg(format!("query point {q:?} outside every record")))?;
    let r = &records[i];
    let mut acc = r.subtotal.clone();
    for (k, b) in r.borders.iter().enumerate() {
        match b {
            // A held leaf adds into the record's sum as it is scanned.
            BorderRef::Held(Node::Leaf(entries)) => {
                if !entries.is_empty() {
                    entries.sum_dominated_into(&q.drop_dim(k), &mut acc);
                }
            }
            top => {
                let sub = top_query::<V>(ctx, dim - 1, &space.drop_dim(k), top, &q.drop_dim(k))?;
                acc.add_assign(&sub);
            }
        }
    }
    let below = query_rec::<V>(ctx, dim, space, r.child, q)?;
    acc.add_assign(&below);
    Ok(acc)
}

/// Every entry of the `dim`-dim tree whose top is `top`: a held leaf's,
/// or its pages' leaves', left to right.
fn tree_entries<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    top: &BorderRef<V>,
) -> Result<Vec<(Point, V)>> {
    if let BorderRef::Held(Node::Leaf(entries)) = top {
        return Ok(entries.to_entries());
    }
    let mut out = Vec::new();
    for root in top.trees() {
        ctx.enumerate(dim, root, &mut out)?;
    }
    Ok(out)
}

/// Builds border `k` of a record of a `dim`-dim tree over `space` from
/// its projected entries: held while they fit a held leaf, built as a
/// tree past that (`settle`).
pub(crate) fn build_border<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    k: usize,
    entries: EntrySlab<V>,
) -> Result<BorderRef<V>> {
    if entries.is_empty() {
        // Held at every dimension; a 1-d record's border has no space.
        return Ok(BorderRef::Held(Node::Leaf(entries)));
    }
    settle(ctx, dim - 1, &space.drop_dim(k), Node::Leaf(entries))
}

/// Builds a fresh `dim`-dim border tree over `space` from entries with
/// the column loader: a 1-d tree by [`bulk_build_1d`], leaves filled
/// evenly, a higher one by [`bulk::bulk_build`].
fn build_tree<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    mut entries: Vec<(Point, V)>,
) -> Result<BorderRef<V>> {
    if dim > 1 {
        return Ok(BorderRef::Tree(bulk::bulk_build(ctx, space, entries)?));
    }
    // Stable: equal keys keep their order, which is the order they
    // merge in.
    entries.sort_by(|a, b| a.0.get(0).total_cmp(&b.0.get(0)));
    let sorted = entries.into_iter().map(|(p, v)| (p.get(0), v));
    bulk_build_1d(ctx, space, sorted)
}

/// Bottom-up bulk construction of a 1-d BA-tree (an aggregate B-tree),
/// a border, from `(key, value)` entries in ascending key order:
/// coincident keys merge into the first of them, in the order given.
/// The `n` merged entries fill `⌈n / leaf_cap⌉` leaves in key order —
/// as few as packing them full would — with entry counts that differ by
/// at most one (the earlier leaves take the extra entries), so every
/// leaf keeps its share of the free slots and an insert that reaches
/// one need not split it. Index levels are packed full. Each index
/// record's box spans from its subtree's first key to the next
/// sibling's first key (tiling the space), and its subtotal is the sum
/// of the earlier siblings' subtrees *within the node* — exactly the
/// state dynamic insertion would converge to, so later inserts and
/// splits work unchanged. A top level of at most [`Ba::dir_cap`]
/// records is returned held rather than written as a root page. No
/// entries build an empty held leaf.
pub(crate) fn bulk_build_1d<V: AggValue>(
    ctx: Ctx<'_>,
    space: &Rect,
    sorted: impl IntoIterator<Item = (f64, V)>,
) -> Result<BorderRef<V>> {
    debug_assert_eq!(space.dim(), 1);
    // Merge coincident points (the dynamic path does the same).
    let (mut keys, mut values): (Vec<f64>, Vec<V>) = (Vec::new(), Vec::new());
    for (key, v) in sorted {
        match values.last_mut() {
            Some(acc) if keys.last() == Some(&key) => acc.add_assign(&v),
            _ => {
                keys.push(key);
                values.push(v);
            }
        }
    }
    debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");

    // Spread the leaves. Item: (first key, page, subtree sum).
    let n = keys.len();
    let leaves = n.div_ceil(ctx.leaf_cap(1));
    let mut items: Vec<(f64, PageId, V)> = Vec::with_capacity(leaves);
    let mut start = 0;
    for i in 0..leaves {
        let end = start + n / leaves + usize::from(i < n % leaves);
        let mut sum = V::zero();
        for v in &values[start..end] {
            sum.add_assign(v);
        }
        let leaf =
            EntrySlab::from_columns(1, keys[start..end].to_vec(), values[start..end].to_vec());
        let id = ctx.write_new(1, &Node::Leaf(leaf))?;
        items.push((keys[start], id, sum));
        start = end;
    }
    match items.len() {
        0 => return Ok(BorderRef::empty(1)),
        1 => return Ok(BorderRef::Tree(items[0].1)),
        _ => {}
    }

    // Pack index levels.
    let index_cap = ctx.index_cap(1);
    loop {
        // Box boundaries: the space edges outside, the next item's first
        // key between siblings (keys are sorted, so boxes tile).
        let mut bounds: Vec<f64> = Vec::with_capacity(items.len() + 1);
        bounds.push(space.low().get(0));
        for it in items.iter().skip(1) {
            bounds.push(it.0);
        }
        bounds.push(space.high().get(0));
        // The records of the node over items `from..to`, and its sum.
        let node = |from: usize, to: usize| {
            let mut records = Vec::with_capacity(to - from);
            let mut prefix = V::zero();
            let mut node_sum = V::zero();
            for (k, (_, child, sum)) in items.iter().enumerate().take(to).skip(from) {
                records.push(IndexRecord {
                    rect: Rect::new(Point::new(&[bounds[k]]), Point::new(&[bounds[k + 1]])),
                    child: *child,
                    subtotal: prefix.clone(),
                    borders: vec![BorderRef::empty(0)],
                });
                prefix.add_assign(sum);
                node_sum.add_assign(sum);
            }
            (records, node_sum)
        };
        if items.len() <= ctx.layout.dir_cap(1) {
            return Ok(BorderRef::Held(Node::Index(node(0, items.len()).0)));
        }

        let mut next: Vec<(f64, PageId, V)> = Vec::new();
        for from in (0..items.len()).step_by(index_cap) {
            let (records, node_sum) = node(from, (from + index_cap).min(items.len()));
            let id = ctx.write_new(1, &Node::Index(records))?;
            next.push((items[from].0, id, node_sum));
        }
        if next.len() == 1 {
            return Ok(BorderRef::Tree(next[0].1));
        }
        items = next;
    }
}

/// Splits the subtree of `rec` (whose in-memory contents are `node`,
/// possibly oversized) until every piece fits a page. Returns the records
/// replacing `rec` in the parent.
pub(crate) fn split_subtree<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    rec: IndexRecord<V>,
    node: Node<V>,
) -> Result<Vec<IndexRecord<V>>> {
    let mut work = vec![(rec, node)];
    let mut out = Vec::new();
    while let Some((rec, node)) = work.pop() {
        if ctx.fits(&node, dim) {
            ctx.write(rec.child, dim, &node)?;
            out.push(rec);
            continue;
        }
        let (j, m) = choose_split(dim, space, &rec.rect, &node);
        let (rb, nb, rt, nt) = split_record_at(ctx, dim, space, rec, node, j, m)?;
        work.push((rt, nt));
        work.push((rb, nb));
    }
    Ok(out)
}

/// Picks a split dimension and coordinate for an oversized node.
///
/// Leaves split at a point median; index nodes split at an existing
/// record boundary minimizing the larger side (bounding forced splits and
/// guaranteeing progress). Dimension preference follows the largest
/// space-normalized extent, which alternates directions on uniform data
/// ("the BA-tree partitions the index page by alternating directions",
/// §5).
fn choose_split<V: AggValue>(
    dim: usize,
    space: &Rect,
    rect: &Rect,
    node: &Node<V>,
) -> (usize, f64) {
    let norm = |j: usize| {
        let s = space.extent(j);
        if s > 0.0 {
            rect.extent(j) / s
        } else {
            0.0
        }
    };
    match node {
        Node::Leaf(entries) => {
            // Widest dimension (normalized) that actually separates points.
            let mut dims: Vec<usize> = (0..dim).collect();
            dims.sort_by(|&a, &b| norm(b).total_cmp(&norm(a)));
            for j in dims {
                let mut coords: Vec<f64> = entries.col(j).to_vec();
                coords.sort_by(f64::total_cmp);
                let mut m = coords[coords.len() / 2];
                if m == coords[0] {
                    match coords.iter().find(|&&c| c > coords[0]) {
                        Some(&c) => m = c,
                        None => continue, // all equal in j: unusable
                    }
                }
                return (j, m);
            }
            unreachable!("leaf entries are distinct points; some dimension separates them");
        }
        Node::Index(records) => {
            let mut best: Option<(usize, f64, usize, f64)> = None; // (j, m, max_side, -norm)
            for j in 0..dim {
                let mut cands: Vec<f64> = Vec::with_capacity(records.len() * 2);
                for r in records {
                    for c in [r.rect.low().get(j), r.rect.high().get(j)] {
                        if c > rect.low().get(j) && c < rect.high().get(j) {
                            cands.push(c);
                        }
                    }
                }
                cands.sort_by(f64::total_cmp);
                cands.dedup();
                for &m in &cands {
                    let mut lo = 0usize;
                    let mut hi = 0usize;
                    for r in records {
                        if r.rect.high().get(j) <= m {
                            lo += 1;
                        } else if r.rect.low().get(j) >= m {
                            hi += 1;
                        } else {
                            lo += 1;
                            hi += 1;
                        }
                    }
                    let score = lo.max(hi);
                    let better = match best {
                        None => true,
                        Some((_, _, s, n)) => score < s || (score == s && -norm(j) < n),
                    };
                    if better {
                        best = Some((j, m, score, -norm(j)));
                    }
                }
            }
            let (j, m, _, _) =
                best.expect("an overfull index node has an interior record boundary");
            (j, m)
        }
    }
}

/// Splits record `rec` (contents `node`) along dimension `j` at `m`,
/// producing the low/high records and their contents. Neither content
/// node is written — the caller persists (forced splits) or re-splits
/// (worklist) them. Border trees are rebuilt per the module-doc rules;
/// discarded border pages are freed.
/// The two halves of a record split: `(low record, low contents,
/// high record, high contents)`.
type SplitHalves<V> = (IndexRecord<V>, Node<V>, IndexRecord<V>, Node<V>);

fn split_record_at<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    rec: IndexRecord<V>,
    node: Node<V>,
    j: usize,
    m: f64,
) -> Result<SplitHalves<V>> {
    let (rb_rect, rt_rect) = rec.rect.split_at(j, m);
    let mut rt_subtotal = rec.subtotal.clone();

    // --- content split -------------------------------------------------
    let mut low_leaf_points: Vec<(Point, V)> = Vec::new();
    let is_leaf = matches!(node, Node::Leaf(_));
    let (nb, nt) = match node {
        Node::Leaf(entries) => {
            let mut lo = EntrySlab::with_capacity(dim, entries.len());
            let mut hi = EntrySlab::with_capacity(dim, entries.len());
            for (p, v) in entries.iter() {
                if p.get(j) < m {
                    lo.push(&p, v.clone());
                } else {
                    hi.push(&p, v.clone());
                }
            }
            low_leaf_points = lo.to_entries();
            (Node::Leaf(lo), Node::Leaf(hi))
        }
        Node::Index(records) => {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for r in records {
                if r.rect.high().get(j) <= m {
                    lo.push(r);
                } else if r.rect.low().get(j) >= m {
                    hi.push(r);
                } else {
                    // Forced downward split (k-d-B): the straddling
                    // record's whole subtree splits at the same plane.
                    let child: Node<V> = ctx.read(r.child, dim)?;
                    let (rb2, nb2, rt2, nt2) = split_record_at(ctx, dim, space, r, child, j, m)?;
                    // Forced halves never grow past their source node's
                    // record count, so they fit.
                    ctx.write(rb2.child, dim, &normalize_empty(dim, nb2))?;
                    ctx.write(rt2.child, dim, &normalize_empty(dim, nt2))?;
                    lo.push(rb2);
                    hi.push(rt2);
                }
            }
            (
                normalize_empty(dim, Node::Index(lo)),
                normalize_empty(dim, Node::Index(hi)),
            )
        }
    };

    // --- border split ----------------------------------------------------
    let mut rb_borders: Vec<BorderRef<V>> = vec![BorderRef::empty(dim - 1); dim];
    let mut rt_borders: Vec<BorderRef<V>> = vec![BorderRef::empty(dim - 1); dim];
    let borders = if dim == 1 {
        // No borders in 1-d: "below in the split dimension" is "below in
        // every dimension", so the low page's points fold straight into
        // the high record's subtotal on a leaf split.
        if is_leaf {
            for (_, v) in &low_leaf_points {
                rt_subtotal.add_assign(v);
            }
        }
        Vec::new()
    } else {
        rec.borders
    };
    for (k, b) in borders.into_iter().enumerate() {
        if k == j {
            // Anchored on the split dimension: valid for both halves.
            let mut entries = EntrySlab::from_entries(dim - 1, tree_entries(ctx, dim - 1, &b)?);
            if is_leaf {
                // The low page's points sit below Ft in dim j only.
                for (p, v) in &low_leaf_points {
                    entries.push(&p.drop_dim(j), v.clone());
                }
            }
            rt_borders[k] = build_border(ctx, dim, space, k, entries)?;
            rb_borders[k] = b;
        } else {
            if b.is_empty() {
                continue;
            }
            let jp = if j < k { j } else { j - 1 };
            let entries = tree_entries(ctx, dim - 1, &b)?;
            for root in b.trees() {
                ctx.free_tree::<V>(dim - 1, root)?;
            }
            let rt_low_proj = rt_rect.low().drop_dim(k);
            let mut lo_entries = EntrySlab::new(dim - 1);
            let mut hi_entries = EntrySlab::new(dim - 1);
            for (p, v) in entries {
                let c = p.get(jp);
                if c <= m {
                    lo_entries.push(&p, v.clone());
                }
                if c >= m {
                    hi_entries.push(&p, v);
                } else {
                    // Below Ft in dim j too. Folds into the subtotal when
                    // below in every retained dimension (always, in 2-d);
                    // otherwise stays anchored on k.
                    let below_all = (0..dim - 1).all(|i| p.get(i) < rt_low_proj.get(i));
                    if below_all {
                        rt_subtotal.add_assign(&v);
                    } else {
                        hi_entries.push(&p, v);
                    }
                }
            }
            rb_borders[k] = build_border(ctx, dim, space, k, lo_entries)?;
            rt_borders[k] = build_border(ctx, dim, space, k, hi_entries)?;
        }
    }

    let rt_child = ctx.store()?.allocate()?;
    let rb = IndexRecord {
        rect: rb_rect,
        child: rec.child,
        subtotal: rec.subtotal,
        borders: rb_borders,
    };
    let rt = IndexRecord {
        rect: rt_rect,
        child: rt_child,
        subtotal: rt_subtotal,
        borders: rt_borders,
    };
    Ok((rb, nb, rt, nt))
}

/// An index node emptied by a forced split degenerates to an empty leaf
/// so that queries and inserts into its region still terminate.
fn normalize_empty<V: AggValue>(dim: usize, node: Node<V>) -> Node<V> {
    match node {
        Node::Index(rs) if rs.is_empty() => Node::empty_leaf(dim),
        other => other,
    }
}

/// Deep structural validation (tests and debugging).
///
/// For the main tree and, recursively, every spilled border tree
/// (each an independent BA-tree whose registrations all come from its
/// own inserts):
///
/// * every leaf/subtree point lies inside its record's box;
/// * dominance queries *from the tree's root* agree with a brute-force
///   scan of the tree's enumerated points, probed at every record's
///   center and pulled-in high corner across all nodes.
///
/// The invariant is deliberately root-level per tree: after an *index*
/// split, a node's records legitimately hold registrations for points
/// now under a sibling subtree (Fig. 8d) — the books only balance when
/// queries enter from the root. Only for `V = f64`.
pub(crate) fn check_consistency(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    root: PageId,
) -> Result<()> {
    check_top(ctx, dim, space, &BorderRef::Tree(root))
}

/// [`check_consistency`] for the tree whose top is `top`.
fn check_top(ctx: Ctx<'_>, dim: usize, space: &Rect, top: &BorderRef<f64>) -> Result<()> {
    // Walks one tree, collecting probe points, checking containment and
    // recursing into border trees (validated independently).
    fn collect(
        ctx: Ctx<'_>,
        dim: usize,
        space: &Rect,
        node: &Node<f64>,
        rect: &Rect,
        probes: &mut Vec<Point>,
    ) -> Result<()> {
        let records = match node {
            Node::Leaf(entries) => {
                return match entries.iter().find(|(p, _)| !rect.contains_point(p)) {
                    Some((p, _)) => Err(invalid_arg(format!(
                        "leaf point {p:?} escapes its region {rect:?}"
                    ))),
                    None => Ok(()),
                };
            }
            Node::Index(records) => records,
        };
        for r in records {
            probes.push(r.rect.center());
            probes.push(Point::from_fn(dim, |i| {
                let hi = r.rect.high().get(i);
                if hi == space.high().get(i) || hi == r.rect.low().get(i) {
                    hi
                } else {
                    hi.next_down()
                }
            }));
            for (k, b) in r.borders.iter().enumerate() {
                if !b.is_empty() {
                    check_top(ctx, dim - 1, &space.drop_dim(k), b)?;
                }
            }
            let child = ctx.read_shared::<f64>(r.child, dim)?;
            collect(ctx, dim, space, &child, &r.rect, probes)?;
        }
        Ok(())
    }

    let mut probes = vec![*space.high(), space.center()];
    match top {
        BorderRef::Tree(root) => {
            let node = ctx.read_shared::<f64>(*root, dim)?;
            collect(ctx, dim, space, &node, space, &mut probes)?;
        }
        BorderRef::Held(node) => collect(ctx, dim, space, node, space, &mut probes)?,
    }
    let all = tree_entries(ctx, dim, top)?;
    for q in &probes {
        let got = top_query::<f64>(ctx, dim, space, top, q)?;
        let want: f64 = all
            .iter()
            .filter(|(p, _)| p.dominated_by(q))
            .map(|(_, v)| v)
            .sum();
        if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
            return Err(invalid_arg(format!(
                "tree {top:?} over {space:?} ({dim}-d): query at {q:?} returns {got}, enumeration says {want}"
            )));
        }
    }
    Ok(())
}
