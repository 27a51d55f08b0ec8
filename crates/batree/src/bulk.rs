//! Bulk loading for the BA-tree.
//!
//! The paper describes bulk loading for the ECDF-B-trees (§4); the same
//! idea transfers to the BA-tree: build the k-d-B partition top-down and
//! compute each index record's aggregation state (subtotal + borders)
//! directly from the point sets, instead of paying per-insert border
//! maintenance. The resulting tree is exactly what dynamic insertion
//! converges to — the same classification rule decides what lands in
//! subtotals and borders — so later dynamic inserts, splits and the
//! consistency checker all work unchanged.
//!
//! The loader works on columns. The input is sorted lexicographically
//! and coincident points are merged, as dynamic insertion would merge
//! them; the merged points become one coordinate column per dimension
//! plus a value column, and a point is its index there (its rank in lex
//! order). Nodes and cells carry `u32` index lists, each kept
//! ascending; leaves and held leaves are packed straight from the
//! columns.
//!
//! Construction of one node over index list `P` within box `R`:
//!
//! 1. If `|P|` fits a leaf, write a leaf: `leaf_cap` points at the
//!    tree's top and in a cell cut to be one leaf (a run of equal
//!    coordinates can push such a cell past the target), `⌊f·leaf_cap⌋`
//!    elsewhere.
//! 2. Otherwise cut `R` into cells sized by what they will hold
//!    (STR: Leutenegger, Lopez and Edgington, ICDE 1997). `P` makes
//!    `L = ⌈|P| / ⌊f·leaf_cap⌋⌉` leaves at the fill target `f`
//!    ([`LEAF_FILL`]). A cell takes `S` of them, `S` the smallest power
//!    of the fan-out `⌊g·index_cap⌋` (`g` is [`INDEX_FILL`]) that leaves
//!    at most `index_cap` cells at the top and at most the fan-out
//!    below it. So the top may be full, and the nodes under it take
//!    the fan-out. The `⌈L / S⌉` cells are slabs: `P` sorted along its
//!    widest space-normalized dimension is cut at rank multiples of
//!    so many cells' worth (`S·⌊f·leaf_cap⌋` points each), and each
//!    slab is cut the same way along the next widest, down to single
//!    cells. A cut inside a run of equal coordinates moves forward to
//!    the next change of coordinate, or back if forward reaches the
//!    end. The cells tile `R`, and a cut leaves the points below it on
//!    its low side, as a k-d-B split does.
//! 3. For every cell record `r` and every point `x ∈ P` outside `r`,
//!    apply the §5 classification: below `r.low` everywhere → subtotal;
//!    below somewhere and within `r.high` elsewhere → border `min(S)`
//!    (projected). Points are taken in *classification order* — cells
//!    in order, each cell's points in index order: subtotals add in it
//!    and held leaves keep it. A border past a held leaf's cap is a tree
//!    built by this same loader one dimension down (`ops::build_border`),
//!    so the `(d−1)`-dim border trees of a `d ≥ 3` tree take their
//!    entries in lex order, coincident ones merged in classification
//!    order, and their bytes are fixed as this tree's are.
//!    A 2-d tree's borders are 1-d trees, which take their entries by
//!    key, equal keys in classification order. So the node's points are
//!    sorted once per border direction by (kept coordinate, cell,
//!    index), and border `k` of `r` is the `partition_point` range of
//!    `r`'s extent in the kept dimension, filtered to `x[k] < r.low[k]`:
//!    in the order the 1-d build packs, with nothing left to sort. That
//!    build (`ops::bulk_build_1d`) spreads a border's entries evenly
//!    over as few leaves as packing them full would take, so the leaves
//!    keep room for the inserts that reach them later.
//! 4. Recurse into each cell.
//!
//! Pages are allocated in one order: each record's borders in dimension
//! order, record after record, then the children in record order, then
//! the node's own page. That order, the cell order above and merging
//! equal keys in classification order fix every byte a bulk load writes
//! (`tests/golden_store.rs` pins digests of them).

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::PageId;

use crate::node::{Ba, BorderRef, IndexRecord, Node};
use crate::ops::{self, Ctx};

/// The merged input: one coordinate column per dimension and the
/// values. A point is its index here — its rank in lex order.
struct Columns<V> {
    coords: Vec<Vec<f64>>,
    values: Vec<V>,
}

impl<V: AggValue> Columns<V> {
    fn dim(&self) -> usize {
        self.coords.len()
    }

    fn coord(&self, d: usize, i: u32) -> f64 {
        self.coords[d][i as usize]
    }

    fn value(&self, i: u32) -> &V {
        &self.values[i as usize]
    }

    /// The points `idx`, in that order, as a slab — projected to drop
    /// dimension `drop` when one is given.
    fn slab(&self, idx: &[u32], drop: Option<usize>) -> EntrySlab<V> {
        let mut dim = 0;
        let mut coords = Vec::with_capacity(self.dim() * idx.len());
        for (d, col) in self.coords.iter().enumerate() {
            if Some(d) != drop {
                coords.extend(idx.iter().map(|&i| col[i as usize]));
                dim += 1;
            }
        }
        let values = idx.iter().map(|&i| self.value(i).clone()).collect();
        EntrySlab::from_columns(dim, coords, values)
    }
}

/// The share of a leaf's capacity a bulk load fills: a leaf takes at
/// most `⌊LEAF_FILL · leaf_cap⌋` points, so the inserts that reach it
/// find room.
pub(crate) const LEAF_FILL: f64 = 0.85;

/// The share of an index node's capacity a bulk load fills below the
/// top: such a node takes at most `⌊INDEX_FILL · index_cap⌋` cells,
/// which is the fan-out of every cell budget.
pub(crate) const INDEX_FILL: f64 = 0.7;

/// One cell of a node's partition: a box and the points it owns, in
/// ascending index order.
struct Cell {
    rect: Rect,
    idx: Vec<u32>,
}

/// Builds the tree over `points` within `space`, returning its root.
pub(crate) fn bulk_build<V: AggValue>(
    ctx: Ctx<'_>,
    space: &Rect,
    mut points: Vec<(Point, V)>,
) -> Result<PageId> {
    // Merge coincident points, as dynamic insertion would.
    points.sort_by(|a, b| a.0.lex_cmp(&b.0));
    points.dedup_by(|b, a| {
        if a.0 == b.0 {
            let bv = std::mem::replace(&mut b.1, V::zero());
            a.1.add_assign(&bv);
            true
        } else {
            false
        }
    });
    let n = u32::try_from(points.len()).map_err(|_| {
        invalid_arg(format!(
            "a bulk load takes at most {} distinct points",
            u32::MAX
        ))
    })?;
    let cols = Columns {
        coords: (0..space.dim())
            .map(|d| points.iter().map(|(p, _)| p.get(d)).collect())
            .collect(),
        values: points.into_iter().map(|(_, v)| v).collect(),
    };
    let root = Cell {
        rect: *space,
        idx: (0..n).collect(),
    };
    bulk_node(ctx, space, &cols, root, true, ctx.leaf_cap(space.dim()))
}

/// Builds the node over `node`'s points. `top` marks the tree's root,
/// which alone may take `index_cap` cells. `leaf` is the most points
/// the node takes as a leaf: `leaf_cap` at the top and in a cell cut
/// to be one leaf (a run of equal coordinates may have pushed it past
/// the fill target), the fill target elsewhere.
fn bulk_node<V: AggValue>(
    ctx: Ctx<'_>,
    space: &Rect,
    cols: &Columns<V>,
    mut node: Cell,
    top: bool,
    leaf: usize,
) -> Result<PageId> {
    let dim = cols.dim();
    let leaf_cap = ctx.leaf_cap(dim);
    let per_leaf = fill(LEAF_FILL, leaf_cap);
    if node.idx.len() <= leaf {
        return ctx.write_new(dim, &Node::Leaf(cols.slab(&node.idx, None)));
    }

    // Cells of `per_cell` leaves each: at most `index_cap` of them at
    // the top, at most the fan-out below it.
    let index_cap = ctx.index_cap(dim);
    let fanout = fill(INDEX_FILL, index_cap).max(2);
    let leaves = node.idx.len().div_ceil(per_leaf);
    let mut per_cell = 1;
    while leaves.div_ceil(per_cell) > if top { index_cap } else { fanout } {
        per_cell *= fanout;
    }
    let mut dims: Vec<usize> = (0..dim).collect();
    dims.sort_by(|&a, &b| {
        let na = norm_extent(&node.rect, space, a);
        let nb = norm_extent(&node.rect, space, b);
        nb.total_cmp(&na)
    });
    let (count, chunk) = (leaves.div_ceil(per_cell), per_cell * per_leaf);
    let mut cells = Vec::with_capacity(count);
    tile(
        &mut node.idx,
        node.rect,
        &dims,
        count,
        chunk,
        cols,
        &mut cells,
    );

    let cap = Ba::inline_border_cap(ctx.params, dim);
    let stripes = (dim == 2).then(|| [0, 1].map(|k| Stripe::new(cols, &cells, k)));
    let mut records: Vec<IndexRecord<V>> = Vec::with_capacity(cells.len());
    for (r, cell) in cells.iter().enumerate() {
        let borders = match &stripes {
            Some(stripes) => stripes
                .iter()
                .map(|s| s.border(ctx, space, cols, &cell.rect, cap))
                .collect::<Result<Vec<_>>>()?,
            None => border_lists(cols, &cells, r)
                .into_iter()
                .enumerate()
                .map(|(k, list)| ops::build_border(ctx, dim, space, k, cols.slab(&list, Some(k))))
                .collect::<Result<Vec<_>>>()?,
        };
        records.push(IndexRecord {
            rect: cell.rect,
            child: PageId::NULL, // filled below
            subtotal: subtotal(cols, &cells, r),
            borders,
        });
    }
    drop(stripes);

    // Children.
    let leaf = if per_cell == 1 { leaf_cap } else { per_leaf };
    for (rec, cell) in records.iter_mut().zip(cells) {
        rec.child = bulk_node(ctx, space, cols, cell, false, leaf)?;
    }

    ctx.write_new(dim, &Node::Index(records))
}

/// `⌊target · cap⌋`, at least one.
pub(crate) fn fill(target: f64, cap: usize) -> usize {
    ((target * cap as f64) as usize).max(1)
}

/// Cuts the box `rect` over the points `idx` into at most `count`
/// cells of `chunk` points each, the last taking what is left: slabs
/// along `dims[0]` of so many chunks each, every slab tiled the same
/// way along the rest. A cut falls at a multiple of the slab's rank
/// step; one inside a run of equal coordinates moves forward to the
/// run's end, or back to its start when forward reaches the end. So a
/// cut always separates points, and a slab past its share (a moved cut
/// made it) spreads its points over its cells instead.
fn tile<V>(
    idx: &mut [u32],
    rect: Rect,
    dims: &[usize],
    count: usize,
    chunk: usize,
    cols: &Columns<V>,
    out: &mut Vec<Cell>,
) {
    let Some((&j, rest)) = dims.split_first().filter(|_| count > 1) else {
        let mut idx = idx.to_vec();
        idx.sort_unstable();
        out.push(Cell { rect, idx });
        return;
    };
    // The fewest slabs whose `dims.len()`-th power covers the count.
    let slabs = (1..)
        .find(|s: &usize| s.pow(dims.len() as u32) >= count)
        .expect("a count has a root");
    let per_slab = count.div_ceil(slabs);
    let m = idx.len();
    let unit = chunk.max(m.div_ceil(count));
    let col = &cols.coords[j];
    idx.sort_unstable_by(|&a, &b| col[a as usize].total_cmp(&col[b as usize]));
    let key = |p: usize| col[idx[p] as usize];
    let (step, mut bounds) = (per_slab * unit, vec![0]);
    for rank in (step..m).step_by(step) {
        let cut = (rank..m)
            .find(|&p| key(p) != key(p - 1))
            .or_else(|| (1..=rank).rev().find(|&p| key(p) != key(p - 1)));
        if let Some(p) = cut.filter(|&p| p > bounds[bounds.len() - 1]) {
            bounds.push(p);
        }
    }
    bounds.push(m);

    // Each slab takes the cells its ranks reach, at least one, leaving
    // one for every slab after it.
    let (mut done, mut rect, mut idx) = (0, rect, idx);
    for (i, w) in bounds.windows(2).enumerate() {
        let after = bounds.len() - 2 - i;
        let (slab, tail) = std::mem::take(&mut idx).split_at_mut(w[1] - w[0]);
        let (upto, slab_rect) = if after == 0 {
            (count, rect)
        } else {
            let (lo, hi) = rect.split_at(j, col[tail[0] as usize]);
            rect = hi;
            (w[1].div_ceil(unit).clamp(done + 1, count - after), lo)
        };
        tile(slab, slab_rect, rest, upto - done, chunk, cols, out);
        (done, idx) = (upto, tail);
    }
}

fn norm_extent(rect: &Rect, space: &Rect, j: usize) -> f64 {
    let s = space.extent(j);
    if s > 0.0 {
        rect.extent(j) / s
    } else {
        0.0
    }
}

/// Record `r`'s subtotal: the values of the points below its low corner
/// in every dimension, added in classification order.
fn subtotal<V: AggValue>(cols: &Columns<V>, cells: &[Cell], r: usize) -> V {
    let low = cells[r].rect.low().coords();
    let mut sum = V::zero();
    for cell in cells {
        // Only a cell whose low corner is below the record's everywhere
        // can hold such a point; the record's own cell never does.
        let cell_low = cell.rect.low().coords();
        if !cell_low.iter().zip(low).all(|(c, l)| c < l) {
            continue;
        }
        for &i in &cell.idx {
            if low.iter().enumerate().all(|(d, &l)| cols.coord(d, i) < l) {
                sum.add_assign(cols.value(i));
            }
        }
    }
    sum
}

/// Record `r`'s border entries in a tree of any dimension but 2: the
/// points below its low corner somewhere but not everywhere and above
/// its high corner nowhere, listed under border `min S` in
/// classification order.
fn border_lists<V: AggValue>(cols: &Columns<V>, cells: &[Cell], r: usize) -> Vec<Vec<u32>> {
    let (low, high) = (cells[r].rect.low().coords(), cells[r].rect.high().coords());
    let dim = low.len();
    let everywhere = (1usize << dim) - 1;
    let mut lists = vec![Vec::new(); dim];
    for cell in cells {
        // A cell at or past the record's low corner everywhere (its own
        // cell among them), or past its high corner somewhere, holds none.
        let cell_low = cell.rect.low().coords();
        if cell_low.iter().zip(low).all(|(c, l)| c >= l)
            || cell_low.iter().zip(high).any(|(c, h)| c > h)
        {
            continue;
        }
        'point: for &i in &cell.idx {
            let mut below = 0usize;
            for (d, (&l, &h)) in low.iter().zip(high).enumerate() {
                let c = cols.coord(d, i);
                if c < l {
                    below |= 1 << d;
                } else if c > h {
                    continue 'point;
                }
            }
            if below != 0 && below != everywhere {
                lists[below.trailing_zeros() as usize].push(i);
            }
        }
    }
    lists
}

/// One point of a 2-d node as a border scan sees it.
#[derive(Clone, Copy)]
struct Keyed {
    /// The coordinate the border keeps.
    key: f64,
    /// The coordinate it drops.
    dropped: f64,
    /// Position of the point's cell in the node.
    cell: u32,
    i: u32,
}

/// A 2-d node's points for border `k`, sorted by (kept coordinate,
/// cell, index): the order a stable sort by key puts classification
/// order in, which is the order a 1-d border tree packs.
struct Stripe {
    k: usize,
    points: Vec<Keyed>,
}

impl Stripe {
    fn new<V>(cols: &Columns<V>, cells: &[Cell], k: usize) -> Self {
        let (kept, dropped) = (&cols.coords[1 - k], &cols.coords[k]);
        let mut points = Vec::with_capacity(cells.iter().map(|c| c.idx.len()).sum());
        for (c, cell) in cells.iter().enumerate() {
            points.extend(cell.idx.iter().map(|&i| Keyed {
                key: kept[i as usize],
                dropped: dropped[i as usize],
                cell: c as u32,
                i,
            }));
        }
        // Listed in (cell, index) order, so a stable sort by key leaves
        // equal keys in it.
        points.sort_by(|a, b| a.key.total_cmp(&b.key));
        Self { k, points }
    }

    /// Border `k` of the record over `rect`: the points within its
    /// extent in the kept dimension and below it in the dropped one.
    fn border<V: AggValue>(
        &self,
        ctx: Ctx<'_>,
        space: &Rect,
        cols: &Columns<V>,
        rect: &Rect,
        cap: usize,
    ) -> Result<BorderRef<V>> {
        let (k, kept) = (self.k, 1 - self.k);
        let (lo, hi) = (rect.low().get(kept), rect.high().get(kept));
        let from = self.points.partition_point(|p| p.key < lo);
        let to = self.points.partition_point(|p| p.key <= hi);
        let below = rect.low().get(k);
        let mut hits: Vec<Keyed> = self.points[from..to]
            .iter()
            .filter(|p| p.dropped < below)
            .copied()
            .collect();
        if hits.len() <= cap {
            hits.sort_unstable_by_key(|p| (p.cell, p.i));
            let idx: Vec<u32> = hits.iter().map(|p| p.i).collect();
            return Ok(BorderRef::Held(Node::Leaf(cols.slab(&idx, Some(k)))));
        }
        let entries = hits.iter().map(|p| (p.key, cols.value(p.i).clone()));
        ops::bulk_build_1d(ctx, &space.drop_dim(k), entries)
    }
}
