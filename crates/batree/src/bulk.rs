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
//! Construction of one node over point multiset `P` within box `R`:
//!
//! 1. If `|P|` fits a leaf, write a leaf.
//! 2. Otherwise split `R` by recursive median cuts (widest normalized
//!    dimension first) into at most `index_cap` cells, each holding
//!    roughly `|P| / index_cap` points.
//! 3. For every cell record `r` and every point `x ∈ P` outside `r`,
//!    apply the §5 classification: below `r.low` everywhere → subtotal;
//!    below somewhere and within `r.high` elsewhere → border `min(S)`
//!    (projected). Borders build inline or as bulk 1-d/(d−1) trees.
//! 4. Recurse into each cell.

use boxagg_common::error::Result;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::PageId;

use crate::node::{IndexRecord, Node};
use crate::ops::{self, Ctx};

/// One cell of the top-down partition: a box and the points it owns.
struct Cell<V> {
    rect: Rect,
    points: Vec<(Point, V)>,
}

/// Splits `cell` at the median of its widest (space-normalized)
/// dimension, honoring the semi-open ownership rule.
fn split_cell<V: AggValue>(cell: Cell<V>, space: &Rect) -> (Cell<V>, Cell<V>) {
    let dim = cell.rect.dim();
    // Pick the widest splittable dimension.
    let mut dims: Vec<usize> = (0..dim).collect();
    dims.sort_by(|&a, &b| {
        let na = norm_extent(&cell.rect, space, a);
        let nb = norm_extent(&cell.rect, space, b);
        nb.total_cmp(&na)
    });
    for j in dims {
        let mut coords: Vec<f64> = cell.points.iter().map(|(p, _)| p.get(j)).collect();
        coords.sort_by(f64::total_cmp);
        let mut m = coords[coords.len() / 2];
        if m == coords[0] {
            match coords.iter().find(|&&c| c > coords[0]) {
                Some(&c) => m = c,
                None => continue,
            }
        }
        let (lo_rect, hi_rect) = cell.rect.split_at(j, m);
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        for (p, v) in cell.points {
            if p.get(j) < m {
                lo.push((p, v));
            } else {
                hi.push((p, v));
            }
        }
        return (
            Cell {
                rect: lo_rect,
                points: lo,
            },
            Cell {
                rect: hi_rect,
                points: hi,
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

/// Builds the subtree over `points` within `rect`, returning its root.
pub(crate) fn bulk_build<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    rect: &Rect,
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
    bulk_node(ctx, dim, space, rect, points)
}

fn bulk_node<V: AggValue>(
    ctx: Ctx<'_>,
    dim: usize,
    space: &Rect,
    rect: &Rect,
    points: Vec<(Point, V)>,
) -> Result<PageId> {
    let leaf_cap = ctx.params.leaf_cap(dim);
    if points.len() <= leaf_cap {
        let id = ctx.store()?.allocate()?;
        ctx.write_node(id, dim, &Node::Leaf(EntrySlab::from_entries(dim, points)))?;
        return Ok(id);
    }

    // Partition into at most index_cap cells; prefer cells that will fit
    // leaves directly when possible, else balance.
    let index_cap = ctx.params.index_cap(dim);
    let mut cells = vec![Cell {
        rect: *rect,
        points,
    }];
    while cells.len() < index_cap {
        // Split the most populated cell that still has > leaf_cap points.
        let (idx, _) = match cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.points.len() > leaf_cap)
            .max_by_key(|(_, c)| c.points.len())
        {
            Some((i, c)) => (i, c.points.len()),
            None => break, // every cell already fits a leaf
        };
        let cell = cells.swap_remove(idx);
        if cell.points.len() <= 1 {
            cells.push(cell);
            break;
        }
        let (a, b) = split_cell(cell, space);
        cells.push(a);
        cells.push(b);
    }

    // Classification of every point against every cell record.
    let mut records: Vec<IndexRecord<V>> = Vec::with_capacity(cells.len());
    for (ci, cell) in cells.iter().enumerate() {
        let mut subtotal = V::zero();
        let mut border_entries: Vec<Vec<(Point, V)>> = vec![Vec::new(); dim];
        for (cj, other) in cells.iter().enumerate() {
            if ci == cj {
                continue;
            }
            'point: for (p, v) in &other.points {
                let mut below_mask = 0usize;
                for j in 0..dim {
                    if p.get(j) < cell.rect.low().get(j) {
                        below_mask |= 1 << j;
                    } else if p.get(j) > cell.rect.high().get(j) {
                        continue 'point;
                    }
                }
                if below_mask == 0 {
                    continue;
                }
                if below_mask == (1 << dim) - 1 {
                    subtotal.add_assign(v);
                } else {
                    let k = below_mask.trailing_zeros() as usize;
                    border_entries[k].push((p.drop_dim(k), v.clone()));
                }
            }
        }
        let mut borders = Vec::with_capacity(dim);
        for (k, entries) in border_entries.into_iter().enumerate() {
            borders.push(ops::build_border(ctx, dim, space, k, entries)?);
        }
        records.push(IndexRecord {
            rect: cell.rect,
            child: PageId::NULL, // filled below
            subtotal,
            borders,
        });
    }

    // Children.
    for (rec, cell) in records.iter_mut().zip(cells) {
        rec.child = bulk_node(ctx, dim, space, &cell.rect, cell.points)?;
    }

    let id = ctx.store()?.allocate()?;
    ctx.write_node(id, dim, &Node::Index(records))?;
    Ok(id)
}
