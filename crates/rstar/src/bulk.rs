//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Packs objects into full leaves by recursively sorting on each
//! dimension's box center and slicing into tiles, then builds the index
//! levels bottom-up with exact aggregate summaries. Used by the
//! benchmark harness to build the 10⁵–10⁶-object baselines quickly; the
//! resulting tree is a valid R*-tree instance (dynamic inserts may
//! follow).

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::Rect;
use boxagg_common::value::AggValue;
use boxagg_pagestore::SharedStore;

use crate::tree::{leaf, summarize, Node, Object, RStarTree, AT};

fn sort_tile<L>(objs: &mut [Object<L>], dim: usize, axis: usize, cap: usize) {
    if axis >= dim || objs.len() <= cap {
        return;
    }
    objs.sort_by(|a, b| {
        let ca = a.0.center().get(axis);
        let cb = b.0.center().get(axis);
        ca.total_cmp(&cb)
    });
    if axis + 1 >= dim {
        return;
    }
    // Number of pages this run will need, spread over the remaining
    // dimensions: slice into `s = ceil(p^((d-axis-1)/(d-axis)))`… the
    // classical formulation simplifies to slabs of `slab = s · cap`
    // objects with `s = ceil(p^(1/(d-axis)))` tiles per slab dimension.
    let p = objs.len().div_ceil(cap);
    let remaining = (dim - axis) as f64;
    let s = (p as f64).powf((remaining - 1.0) / remaining).ceil() as usize;
    let slab = (s.max(1)) * cap;
    let mut start = 0;
    while start < objs.len() {
        let end = (start + slab).min(objs.len());
        sort_tile(&mut objs[start..end], dim, axis + 1, cap);
        start = end;
    }
}

impl<L: AggValue> RStarTree<L> {
    /// Bulk-loads a tree from objects `(rect, agg, payload)` using STR.
    pub fn bulk_load(
        store: SharedStore,
        dim: usize,
        max_payload_size: usize,
        objects: Vec<(Rect, f64, L)>,
    ) -> Result<Self> {
        let mut tree = RStarTree::create(store.clone(), dim, max_payload_size)?;
        if objects.is_empty() {
            return Ok(tree);
        }
        if objects.iter().any(|(r, _, _)| r.dim() != dim) {
            return Err(invalid_arg("object dimensionality mismatch"));
        }
        // NaN/infinite coordinates would silently corrupt the STR sort
        // order; reject them before any pages are allocated.
        if let Some((r, _, _)) = objects.iter().find(|(r, _, _)| !r.is_finite()) {
            return Err(invalid_arg(format!(
                "object {r:?} has a non-finite coordinate"
            )));
        }
        let ctx = tree.ctx();
        let leaf_cap = ctx.leaf_cap(AT);
        let index_cap = ctx.index_cap(AT);
        let n = objects.len();

        let mut objects: Vec<Object<L>> = objects
            .into_iter()
            .map(|(rect, agg, payload)| (rect, (agg, payload)))
            .collect();
        sort_tile(&mut objects, dim, 0, leaf_cap);

        // Pack leaves.
        let mut level = Vec::new();
        for chunk in objects.chunks(leaf_cap) {
            let node = leaf(dim, chunk);
            level.push(summarize(ctx.write_new(AT, &node)?, &node)?);
        }

        // Pack index levels, keeping sibling locality: the level's
        // records are already in tile order.
        let mut height = 1;
        while level.len() > 1 {
            let mut next = Vec::new();
            for chunk in level.chunks(index_cap) {
                let node = Node::<L>::Index(chunk.to_vec());
                next.push(summarize(ctx.write_new(AT, &node)?, &node)?);
            }
            level = next;
            height += 1;
        }

        // The create() call made a placeholder root leaf; release it and
        // install the packed root.
        store.free(tree.root_page())?;
        tree.set_root(level[0].child, height, n);
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AggResult;
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
        Rect::from_bounds(&[(x, x + rnd(s) * side), (y, y + rnd(s) * side)])
    }

    #[test]
    fn bulk_load_rejects_non_finite_coordinates() {
        // Regression: a NaN coordinate used to corrupt the STR sort order
        // (producing a structurally wrong tree); it must error before any
        // pages are built.
        let mut s = 5u64;
        let mut objs: Vec<(Rect, f64, ())> =
            (0..20).map(|_| (rand_rect(&mut s, 0.1), 1.0, ())).collect();
        objs.push((
            Rect::degenerate(boxagg_common::geom::Point::new(&[f64::NAN, 0.5])),
            1.0,
            (),
        ));
        let store = SharedStore::open(&StoreConfig::small(512, 64)).unwrap();
        match RStarTree::bulk_load(store, 2, 0, objs) {
            Err(err) => assert!(err.to_string().contains("non-finite"), "got: {err}"),
            Ok(_) => panic!("bulk_load must reject non-finite coordinates"),
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let mut s = 77u64;
        let objs: Vec<(Rect, f64, ())> = (0..3000)
            .map(|i| (rand_rect(&mut s, 0.05), (i % 7) as f64, ()))
            .collect();
        let store = SharedStore::open(&StoreConfig::small(512, 256)).unwrap();
        let mut t = RStarTree::bulk_load(store, 2, 0, objs.clone()).unwrap();
        assert_eq!(t.len(), 3000);
        assert!(t.height() >= 3);
        for _ in 0..100 {
            let q = rand_rect(&mut s, 0.3);
            let mut want = AggResult::default();
            for (r, v, _) in &objs {
                if r.intersects(&q) {
                    want.sum += v;
                    want.count += 1;
                }
            }
            let got = t.box_sum(&q).unwrap();
            assert!((got.sum - want.sum).abs() < 1e-6);
            assert_eq!(got.count, want.count);
        }
    }

    #[test]
    fn bulk_load_empty_and_tiny() {
        let store = SharedStore::open(&StoreConfig::small(512, 16)).unwrap();
        let mut t: RStarTree<()> = RStarTree::bulk_load(store, 2, 0, vec![]).unwrap();
        assert!(t.is_empty());
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert_eq!(t.box_sum(&q).unwrap(), AggResult::default());

        let store = SharedStore::open(&StoreConfig::small(512, 16)).unwrap();
        let one = vec![(Rect::from_bounds(&[(0.2, 0.3), (0.2, 0.3)]), 9.0, ())];
        let mut t: RStarTree<()> = RStarTree::bulk_load(store, 2, 0, one).unwrap();
        assert_eq!(t.box_sum(&q).unwrap().sum, 9.0);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn dynamic_inserts_after_bulk_load() {
        let mut s = 13u64;
        let objs: Vec<(Rect, f64, ())> = (0..1000)
            .map(|_| (rand_rect(&mut s, 0.05), 1.0, ()))
            .collect();
        let store = SharedStore::open(&StoreConfig::small(512, 256)).unwrap();
        let mut t = RStarTree::bulk_load(store, 2, 0, objs.clone()).unwrap();
        let mut all = objs;
        for _ in 0..500 {
            let r = rand_rect(&mut s, 0.05);
            t.insert(r, 2.0, ()).unwrap();
            all.push((r, 2.0, ()));
        }
        for _ in 0..50 {
            let q = rand_rect(&mut s, 0.4);
            let mut want = 0.0;
            for (r, v, _) in &all {
                if r.intersects(&q) {
                    want += v;
                }
            }
            assert!((t.box_sum(&q).unwrap().sum - want).abs() < 1e-6);
        }
    }
}
