//! Core index interfaces.

use crate::error::{invalid_arg, Result};
use crate::geom::Point;
use crate::value::AggValue;

/// An index answering *dominance-sum* queries (§2): given weighted points,
/// return the total value of all points dominated by a query point `q`
/// (closed semantics: `x[i] ≤ q[i]` in every dimension).
///
/// Implemented by the static ECDF-tree, the disk-based ECDF-Bu / ECDF-Bq
/// trees and the BA-tree. The box-sum engines in `boxagg-core` are generic
/// over this trait (Lemma 1 combines `2^d` dominance-sums into a box-sum).
///
/// Reads take `&self`: a dominance-sum is a pure function of the indexed
/// points, so one index can answer queries from many threads at once.
/// (Disk-based implementations keep buffer recency and I/O counters in
/// the shared, internally synchronized page store, not in the index.)
pub trait DominanceSumIndex<V: AggValue> {
    /// Dimensionality of the indexed points.
    fn dim(&self) -> usize;

    /// Refuses, with `InvalidArgument` and without touching the index,
    /// a point or value [`insert`](Self::insert) would refuse. An engine
    /// that writes one object as several points checks every one before
    /// it writes any, so a refused object leaves nothing behind. The
    /// default is [`check_insert`].
    fn check_insert(&self, p: &Point, v: &V) -> Result<()> {
        check_insert(p, self.dim(), v)
    }

    /// Inserts a weighted point.
    fn insert(&mut self, p: Point, v: V) -> Result<()>;

    /// Total value of all points dominated by `q` (closed: `x ≤ q`
    /// componentwise).
    fn dominance_sum(&self, q: &Point) -> Result<V>;

    /// Number of `insert` calls accepted so far.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Refuses a dominance-sum query point a `dim`-dimensional index cannot
/// answer: one of another dimension, or one with a NaN coordinate,
/// which no point is dominated by and which clamping into the indexed
/// space would silently turn into its ceiling. `±∞` is accepted: it
/// clamps to the space's floor or ceiling, which is what it means.
pub fn check_query(q: &Point, dim: usize) -> Result<()> {
    if q.dim() != dim {
        return Err(invalid_arg(format!(
            "query dimension {} != tree dimension {dim}",
            q.dim()
        )));
    }
    if q.coords().iter().any(|c| c.is_nan()) {
        return Err(invalid_arg(format!(
            "query point {q:?} has a NaN coordinate"
        )));
    }
    Ok(())
}

/// Refuses a point a `dim`-dimensional index cannot take — one of
/// another dimension — and a value that is not finite: a NaN or `±∞`
/// added into an aggregate poisons every sum over it, and adding its
/// negation cannot take it back out.
pub fn check_insert<V: AggValue>(p: &Point, dim: usize, v: &V) -> Result<()> {
    if p.dim() != dim {
        return Err(invalid_arg(format!(
            "point dimension {} != tree dimension {dim}",
            p.dim()
        )));
    }
    if !v.is_finite() {
        return Err(invalid_arg(format!("value {v:?} is not finite")));
    }
    Ok(())
}

/// Brute-force reference implementation: a flat list of weighted points.
///
/// Exists so that every real index can be property-tested against an
/// obviously-correct oracle, and to serve as the "no index" baseline in
/// benchmark sanity checks.
#[derive(Debug, Clone)]
pub struct NaiveDominanceIndex<V> {
    dim: usize,
    points: Vec<(Point, V)>,
}

impl<V: AggValue> NaiveDominanceIndex<V> {
    /// Creates an empty oracle over `dim`-dimensional points.
    pub fn new(dim: usize) -> Self {
        Self {
            dim,
            points: Vec::new(),
        }
    }

    /// The stored points.
    pub fn points(&self) -> &[(Point, V)] {
        &self.points
    }
}

impl<V: AggValue> DominanceSumIndex<V> for NaiveDominanceIndex<V> {
    fn dim(&self) -> usize {
        self.dim
    }

    fn insert(&mut self, p: Point, v: V) -> Result<()> {
        assert_eq!(p.dim(), self.dim);
        self.points.push((p, v));
        Ok(())
    }

    fn dominance_sum(&self, q: &Point) -> Result<V> {
        let mut acc = V::zero();
        for (p, v) in &self.points {
            if p.dominated_by(q) {
                acc.add_assign(v);
            }
        }
        Ok(acc)
    }

    fn len(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_index_sums_dominated_points() {
        let mut idx = NaiveDominanceIndex::new(2);
        idx.insert(Point::new(&[1.0, 1.0]), 10.0).unwrap();
        idx.insert(Point::new(&[2.0, 3.0]), 5.0).unwrap();
        idx.insert(Point::new(&[5.0, 0.0]), 2.0).unwrap();
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        let q = Point::new(&[2.0, 3.0]);
        // (1,1) and (2,3) are dominated (closed), (5,0) is not.
        assert_eq!(idx.dominance_sum(&q).unwrap(), 15.0);
        // Boundary inclusion: querying exactly at a point includes it.
        assert_eq!(idx.dominance_sum(&Point::new(&[1.0, 1.0])).unwrap(), 10.0);
        // Nothing below the origin.
        assert_eq!(idx.dominance_sum(&Point::new(&[0.0, 0.0])).unwrap(), 0.0);
    }

    #[test]
    fn empty_index() {
        let idx: NaiveDominanceIndex<f64> = NaiveDominanceIndex::new(3);
        assert!(idx.is_empty());
        assert_eq!(idx.dominance_sum(&Point::splat(3, 1e9)).unwrap(), 0.0);
    }
}
