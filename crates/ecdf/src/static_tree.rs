//! The classic ECDF-tree: static, main-memory (Bentley 1980; §4).
//!
//! A multi-level structure where each level handles one dimension. The
//! *main branch* at level `l` is a balanced binary tree over the points
//! ordered by coordinate `l`; every internal node stores a *border*: an
//! ECDF-tree at level `l + 1` over the points of the left subtree. At the
//! last level the border degenerates to the left subtree's value sum.
//!
//! A dominance query at `q` descends the main branch: where `q` falls in
//! the left half, recurse left; otherwise the whole left half is
//! dominated in this dimension — resolve it through the border (one
//! dimension lower) and recurse right.

use boxagg_common::geom::Point;
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;

enum BorderInfo<V> {
    /// Level `l + 1` tree over the left subtree's points.
    Tree(Box<LevelNode<V>>),
    /// At the last level: the left subtree's total value.
    Sum(V),
}

enum LevelNode<V> {
    Leaf(Point, V),
    Internal {
        /// Maximum coordinate (in this level's dimension) of the left
        /// subtree.
        split: f64,
        left: Box<LevelNode<V>>,
        right: Box<LevelNode<V>>,
        border: BorderInfo<V>,
    },
}

/// Static, main-memory ECDF-tree. Built once from a point set; answers
/// closed dominance-sum queries in `O(log^d n)`.
///
/// ```
/// use boxagg_ecdf::EcdfTree;
/// use boxagg_common::Point;
///
/// let tree = EcdfTree::build(
///     2,
///     vec![
///         (Point::new(&[1.0, 1.0]), 10.0),
///         (Point::new(&[2.0, 3.0]), 5.0),
///         (Point::new(&[5.0, 0.0]), 2.0),
///     ],
/// );
/// assert_eq!(tree.query(&Point::new(&[2.0, 3.0])), 15.0);
/// ```
pub struct EcdfTree<V> {
    dim: usize,
    root: Option<Box<LevelNode<V>>>,
    len: usize,
}

/// Builds the subtree over the slab range `[start, end)`. The input is
/// converted to a struct-of-arrays slab once up front; recursion works
/// over index ranges, sorting columns in place and copying borders
/// column-wise — no per-entry `(Point, V)` tuple clones anywhere on the
/// build path. The stable range sort reproduces the permutation of the
/// old `slice::sort_by` exactly, so tree shape and answers are unchanged.
fn build_level<V: AggValue>(
    dim: usize,
    level: usize,
    points: &mut EntrySlab<V>,
    start: usize,
    end: usize,
) -> Box<LevelNode<V>> {
    debug_assert!(start < end);
    if end - start == 1 {
        return Box::new(LevelNode::Leaf(
            points.point(start),
            points.value(start).clone(),
        ));
    }
    points.sort_range_by_dim(level, start, end);
    let mid = start + (end - start) / 2;
    let split = points.coord(level, mid - 1);
    let border = if level + 1 < dim {
        let mut left_pts = points.sub_slab(start, mid);
        let left_len = left_pts.len();
        BorderInfo::Tree(build_level(dim, level + 1, &mut left_pts, 0, left_len))
    } else {
        let mut acc = V::zero();
        for v in &points.values()[start..mid] {
            acc.add_assign(v);
        }
        BorderInfo::Sum(acc)
    };
    let left = build_level(dim, level, points, start, mid);
    let right = build_level(dim, level, points, mid, end);
    Box::new(LevelNode::Internal {
        split,
        left,
        right,
        border,
    })
}

fn query_level<V: AggValue>(dim: usize, level: usize, node: &LevelNode<V>, q: &Point) -> V {
    match node {
        LevelNode::Leaf(p, v) => {
            // Dimensions below `level` were resolved by outer levels.
            if (level..dim).all(|i| p.get(i) <= q.get(i)) {
                v.clone()
            } else {
                V::zero()
            }
        }
        LevelNode::Internal {
            split,
            left,
            right,
            border,
        } => {
            if q.get(level) < *split {
                // The right half's coordinates are ≥ every left
                // coordinate; with q below the left max, nothing right of
                // the split can have coordinate ≤ q unless it also
                // appears on the left — but equal coordinates sort into
                // the left half up to `split`, and the right half's
                // minimum is ≥ split > q. Recurse left only.
                query_level(dim, level, left, q)
            } else {
                // The whole left half is dominated in this dimension.
                let mut acc = match border {
                    BorderInfo::Tree(t) => query_level(dim, level + 1, t, q),
                    BorderInfo::Sum(s) => s.clone(),
                };
                acc.add_assign(&query_level(dim, level, right, q));
                acc
            }
        }
    }
}

impl<V: AggValue> EcdfTree<V> {
    /// Builds the tree over `points` (consumed). `O(n log^d n)` work.
    pub fn build(dim: usize, points: Vec<(Point, V)>) -> Self {
        let len = points.len();
        let root = if points.is_empty() {
            None
        } else {
            let mut slab = EntrySlab::from_entries(dim, points);
            Some(build_level(dim, 0, &mut slab, 0, len))
        };
        Self { dim, root, len }
    }

    /// Closed dominance-sum at `q`.
    pub fn query(&self, q: &Point) -> V {
        debug_assert_eq!(q.dim(), self.dim);
        match &self.root {
            None => V::zero(),
            Some(r) => query_level(self.dim, 0, r, q),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::traits::{DominanceSumIndex, NaiveDominanceIndex};

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn empty_tree() {
        let t: EcdfTree<f64> = EcdfTree::build(2, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.query(&Point::new(&[1.0, 1.0])), 0.0);
    }

    #[test]
    fn single_point_closed_semantics() {
        let t = EcdfTree::build(2, vec![(Point::new(&[3.0, 4.0]), 7.0)]);
        assert_eq!(t.query(&Point::new(&[3.0, 4.0])), 7.0);
        assert_eq!(t.query(&Point::new(&[2.9, 9.0])), 0.0);
        assert_eq!(t.query(&Point::new(&[9.0, 3.9])), 0.0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.dim(), 2);
    }

    fn compare(dim: usize, n: usize, seed: u64) {
        let mut s = seed;
        let mut pts = Vec::new();
        for i in 0..n {
            let p = Point::from_fn(dim, |_| (rnd(&mut s) * 20.0).floor());
            pts.push((p, (i % 5) as f64 + 0.5));
        }
        let t = EcdfTree::build(dim, pts.clone());
        let mut oracle = NaiveDominanceIndex::new(dim);
        for (p, v) in pts {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..300 {
            let q = Point::from_fn(dim, |_| (rnd(&mut s) * 21.0).floor());
            let got = t.query(&q);
            let want = oracle.dominance_sum(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-9,
                "dim {dim}: got {got} want {want} at {q:?}"
            );
        }
    }

    #[test]
    fn matches_naive_1d_with_duplicates() {
        compare(1, 500, 17);
    }

    #[test]
    fn matches_naive_2d_with_duplicates() {
        compare(2, 500, 23);
    }

    #[test]
    fn matches_naive_3d_with_duplicates() {
        compare(3, 400, 31);
    }

    #[test]
    fn matches_naive_5d() {
        compare(5, 200, 37);
    }

    #[test]
    fn coincident_points_accumulate() {
        let p = Point::new(&[1.0, 1.0]);
        let t = EcdfTree::build(2, vec![(p, 1.0); 8]);
        assert_eq!(t.query(&Point::new(&[1.0, 1.0])), 8.0);
    }
}
