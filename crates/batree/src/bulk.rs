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
//! 1. If `|P|` fits a leaf, write a leaf.
//! 2. Otherwise cut `R` into at most `index_cap` cells. The most
//!    populated cell that does not fit a leaf (the last of equals) is
//!    `swap_remove`d and its two halves pushed. A cut takes the widest
//!    space-normalized dimension that separates the cell's points, at
//!    their `select_nth_unstable` median (the next larger coordinate
//!    when the median is the minimum), and stably partitions the
//!    indices.
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
    bulk_node(ctx, space, &cols, root)
}

fn bulk_node<V: AggValue>(
    ctx: Ctx<'_>,
    space: &Rect,
    cols: &Columns<V>,
    node: Cell,
) -> Result<PageId> {
    let dim = cols.dim();
    let leaf_cap = ctx.leaf_cap(dim);
    if node.idx.len() <= leaf_cap {
        return ctx.write_new(dim, &Node::Leaf(cols.slab(&node.idx, None)));
    }

    // Partition into at most index_cap cells, always cutting the most
    // populated cell that does not fit a leaf.
    let index_cap = ctx.index_cap(dim);
    let mut cells = vec![node];
    while cells.len() < index_cap {
        let Some((i, _)) = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.idx.len() > leaf_cap)
            .max_by_key(|(_, c)| c.idx.len())
        else {
            break; // every cell already fits a leaf
        };
        let (lo, hi) = split_cell(cells.swap_remove(i), space, cols);
        cells.push(lo);
        cells.push(hi);
    }

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
    for (rec, cell) in records.iter_mut().zip(cells) {
        rec.child = bulk_node(ctx, space, cols, cell)?;
    }

    ctx.write_new(dim, &Node::Index(records))
}

/// Splits `cell` at the median of its widest (space-normalized)
/// dimension that separates its points, honoring the semi-open
/// ownership rule: the low half takes the points below the cut.
fn split_cell<V: AggValue>(cell: Cell, space: &Rect, cols: &Columns<V>) -> (Cell, Cell) {
    let mut dims: Vec<usize> = (0..cols.dim()).collect();
    dims.sort_by(|&a, &b| {
        let na = norm_extent(&cell.rect, space, a);
        let nb = norm_extent(&cell.rect, space, b);
        nb.total_cmp(&na)
    });
    for j in dims {
        let col = &cols.coords[j];
        let mut coords: Vec<f64> = cell.idx.iter().map(|&i| col[i as usize]).collect();
        let min = coords
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("a cell to split holds points");
        let mid = coords.len() / 2;
        let mut m = *coords.select_nth_unstable_by(mid, f64::total_cmp).1;
        if m == min {
            match coords
                .iter()
                .copied()
                .filter(|&c| c > min)
                .min_by(f64::total_cmp)
            {
                Some(c) => m = c,
                None => continue, // all equal in j: unusable
            }
        }
        let (lo_rect, hi_rect) = cell.rect.split_at(j, m);
        let (lo, hi): (Vec<u32>, Vec<u32>) =
            cell.idx.iter().copied().partition(|&i| col[i as usize] < m);
        return (
            Cell {
                rect: lo_rect,
                idx: lo,
            },
            Cell {
                rect: hi_rect,
                idx: hi,
            },
        );
    }
    unreachable!("distinct points always admit a splitting dimension");
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
