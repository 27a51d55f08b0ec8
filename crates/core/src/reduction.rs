//! Reductions from box-sum to dominance-sum queries (§2).
//!
//! ## The corner reduction (Theorem 2 / Lemma 1)
//!
//! Maintain one dominance index per corner selector `s ∈ {0,1}^d`; for an
//! object `o`, index `s` stores the corner point whose `i`-th coordinate
//! is `o.l_i` when `s_i = 0` and `o.h_i` when `s_i = 1`. Then
//!
//! ```text
//! boxsum(q) = Σ_s (−1)^{|s|} · Sum{ o : ∧_i A_i^{s_i}(o, q) }
//! ```
//!
//! where `A_i^0 ≡ o.l_i ≤ q.h_i` and `A_i^1 ≡ o.h_i < q.l_i` — exactly
//! `2^d` dominance-sums. Strict comparisons are realized by nudging the
//! query coordinate to the previous representable float
//! ([`f64::next_down`]), keeping all index structures on uniform closed
//! (`≤`) semantics.
//!
//! ## The Edelsbrunner–Overmars reduction (Theorem 1, \[13\])
//!
//! The prior technique: `boxsum(q) = total − Sum{o misses q}`, expanding
//! "misses" by inclusion–exclusion over per-dimension *below*
//! (`o.h_i < q.l_i`) and *above* (`o.l_i > q.h_i`) events. This costs
//! `Σ_{i=1..d} 2^i·C(d,i) = 3^d − 1` dominance-sums per query — the
//! paper proves this is `Ω(3^d/√d)`, versus `2^d` for the corner
//! reduction. Implemented here as the ablation baseline; "above" events
//! become dominance conditions by negating the coordinate.

use std::sync::atomic::{AtomicU64, Ordering};

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect, MAX_DIM};
use boxagg_common::traits::DominanceSumIndex;

/// Number of dominance-sum queries the corner reduction issues per
/// box-sum (Theorem 2).
pub fn corner_query_count(dim: usize) -> u64 {
    1u64 << dim
}

/// Number of dominance-sum queries the reduction of \[13\] issues per
/// box-sum (Theorem 1): `Σ_{i=1..d} 2^i · C(d, i) = 3^d − 1`.
pub fn eo_query_count(dim: usize) -> u64 {
    3u64.pow(dim as u32) - 1
}

/// The dominance query point of the corner reduction for selector
/// `mask`: `q.h_i` (closed) where bit `i` is clear; just below `q.l_i`
/// (strict, via [`f64::next_down`]) where it is set.
///
/// [`CornerBoxSum::query`] evaluates exactly these points (from a
/// scratch buffer, bit for bit); external dominance-sum callers that
/// recompose a box-sum themselves must derive corner points through
/// this function so their answers stay bit-identical to it.
pub fn corner_query_point(q: &Rect, dim: usize, mask: usize) -> Point {
    Point::from_fn(dim, |i| {
        if mask & (1 << i) != 0 {
            q.low().get(i).next_down()
        } else {
            q.high().get(i)
        }
    })
}

/// Simple box-sum engine over the **corner reduction**: `2^d` dominance
/// indexes, `2^d` insertions per object, `2^d` dominance queries per
/// box-sum.
///
/// Queries take `&self` — one engine answers from any number of threads
/// — and read whatever its indexes were opened over: live pages, or one
/// pinned commit epoch (see `catalog::open_corner_engine`).
pub struct CornerBoxSum<I> {
    dim: usize,
    indexes: Vec<I>,
    len: usize,
    /// A statistic only; publishes no other data.
    queries_issued: AtomicU64,
}

impl<I> std::fmt::Debug for CornerBoxSum<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CornerBoxSum")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

impl<I: DominanceSumIndex<f64>> CornerBoxSum<I> {
    /// Builds the engine; `make(mask)` creates the dominance index for
    /// corner selector `mask` (bit `i` set ⇒ the index stores `o.h_i`).
    pub fn new(dim: usize, mut make: impl FnMut(usize) -> Result<I>) -> Result<Self> {
        let mut indexes = Vec::with_capacity(1 << dim.min(MAX_DIM));
        if dim > 0 && dim <= MAX_DIM {
            for mask in 0..(1usize << dim) {
                indexes.push(make(mask)?);
            }
        }
        Self::from_indexes(dim, indexes)
    }

    /// Builds the engine from `2^dim` already-constructed corner indexes
    /// in mask order (e.g. bulk-loaded in parallel).
    pub fn from_indexes(dim: usize, indexes: Vec<I>) -> Result<Self> {
        if dim == 0 || dim > MAX_DIM {
            return Err(invalid_arg(format!("dimension {dim} out of range")));
        }
        if indexes.len() != 1 << dim {
            return Err(invalid_arg(format!(
                "corner reduction over dimension {dim} needs {} indexes, got {}",
                1usize << dim,
                indexes.len()
            )));
        }
        if indexes.iter().any(|idx| idx.dim() != dim) {
            return Err(invalid_arg("corner index dimensionality mismatch"));
        }
        Ok(Self {
            dim,
            indexes,
            len: 0,
            queries_issued: AtomicU64::new(0),
        })
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of objects inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no object has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Restores the object count when reopening persisted indexes. The
    /// count cannot be recovered from the corner trees themselves:
    /// [`delete`](Self::delete) works by inserting negations, so tree
    /// point counts overcount deleted objects.
    pub fn restore_len(&mut self, n: usize) {
        self.len = n;
    }

    /// Dominance-sum queries issued so far (Theorem 2 instrumentation).
    pub fn queries_issued(&self) -> u64 {
        self.queries_issued.load(Ordering::Relaxed)
    }

    /// Access to the underlying corner indexes (diagnostics).
    pub fn indexes(&self) -> &[I] {
        &self.indexes
    }

    /// Mutable access to the underlying corner indexes (raw inserts).
    pub fn indexes_mut(&mut self) -> &mut [I] {
        &mut self.indexes
    }

    /// Records `n` objects loaded directly into the indexes by a bulk
    /// constructor (keeps `len` accurate).
    pub(crate) fn note_bulk_loaded(&mut self, n: usize) {
        self.len += n;
    }

    /// Inserts a weighted box: one corner point into each index. Every
    /// corner is checked against its index before any is written, so an
    /// object one index refuses — a box reaching past its space, a value
    /// that is not finite — leaves nothing behind.
    pub fn insert(&mut self, rect: &Rect, value: f64) -> Result<()> {
        self.add_corners(rect, value)?;
        self.len += 1;
        Ok(())
    }

    /// Deletes a previously inserted object by inserting its negation —
    /// exact for the group aggregates (SUM/COUNT/AVG) this engine
    /// serves. The box and value must match the original insertion.
    /// Refused, like [`insert`](Self::insert), before anything is written.
    pub fn delete(&mut self, rect: &Rect, value: f64) -> Result<()> {
        self.add_corners(rect, -value)?;
        self.len = self.len.saturating_sub(1);
        Ok(())
    }

    /// Inserts `value` at each corner of `rect` into that corner's index,
    /// once every index has accepted its corner.
    fn add_corners(&mut self, rect: &Rect, value: f64) -> Result<()> {
        if rect.dim() != self.dim {
            return Err(invalid_arg("object dimensionality mismatch"));
        }
        for (mask, index) in self.indexes.iter().enumerate() {
            index.check_insert(&rect.corner(mask), &value)?;
        }
        for (mask, index) in self.indexes.iter_mut().enumerate() {
            index.insert(rect.corner(mask), value)?;
        }
        Ok(())
    }

    /// Total value of objects intersecting `q` (closed intersection):
    /// the `2^d` corner dominance-sums, evaluated and combined in
    /// mask-ascending order — the paper's access pattern, so I/O
    /// accounting is exactly sequential. This loop is the only code in
    /// the workspace that combines corner terms.
    pub fn query(&self, q: &Rect) -> Result<f64> {
        if q.dim() != self.dim {
            return Err(invalid_arg("query dimensionality mismatch"));
        }
        // The `d` `next_down` nudges are computed once per query and
        // the corner point is rebuilt into a scratch buffer per mask —
        // coordinates bit-identical to `corner_query_point`.
        let mut lo = [0.0f64; MAX_DIM];
        let mut hi = [0.0f64; MAX_DIM];
        for i in 0..self.dim {
            lo[i] = q.low().get(i).next_down();
            hi[i] = q.high().get(i);
        }
        let mut y = Point::zeros(self.dim);
        let mut acc = 0.0;
        for (mask, index) in self.indexes.iter().enumerate() {
            y.from_fn_into(
                self.dim,
                |i| {
                    if mask & (1 << i) != 0 {
                        lo[i]
                    } else {
                        hi[i]
                    }
                },
            );
            let term = index.dominance_sum(&y)?;
            self.queries_issued.fetch_add(1, Ordering::Relaxed);
            if (mask.count_ones() & 1) == 0 {
                acc += term;
            } else {
                acc -= term;
            }
        }
        Ok(acc)
    }
}

/// Simple box-sum engine over the **reduction of \[13\]** (Theorem 1
/// baseline): also `2^d` indexes (one per below/above coordinate
/// selection), but `3^d − 1` dominance queries per box-sum.
pub struct EoBoxSum<I> {
    dim: usize,
    /// Index `mask` stores, per dimension `i`, coordinate `o.h_i` when
    /// bit `i` is clear ("below" events) and `−o.l_i` when set ("above"
    /// events, negated so that *above* becomes closed dominance).
    indexes: Vec<I>,
    total: f64,
    len: usize,
    /// A statistic only; publishes no other data.
    queries_issued: AtomicU64,
}

/// The space that index `mask` of an [`EoBoxSum`] over `space` must
/// cover: dimensions whose bit is set hold negated coordinates.
pub fn eo_index_space(space: &Rect, mask: usize) -> Rect {
    let dim = space.dim();
    let low = Point::from_fn(dim, |i| {
        if mask & (1 << i) != 0 {
            -space.high().get(i)
        } else {
            space.low().get(i)
        }
    });
    let high = Point::from_fn(dim, |i| {
        if mask & (1 << i) != 0 {
            -space.low().get(i)
        } else {
            space.high().get(i)
        }
    });
    Rect::new(low, high)
}

impl<I: DominanceSumIndex<f64>> EoBoxSum<I> {
    /// Builds the engine; `make(mask)` creates the index whose
    /// dimensions-with-set-bits store negated low coordinates (its space
    /// is [`eo_index_space`]).
    pub fn new(dim: usize, mut make: impl FnMut(usize) -> Result<I>) -> Result<Self> {
        if dim == 0 || dim > MAX_DIM {
            return Err(invalid_arg(format!("dimension {dim} out of range")));
        }
        let mut indexes = Vec::with_capacity(1 << dim);
        for mask in 0..(1usize << dim) {
            indexes.push(make(mask)?);
        }
        Ok(Self {
            dim,
            indexes,
            total: 0.0,
            len: 0,
            queries_issued: AtomicU64::new(0),
        })
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of objects inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no object has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dominance-sum queries issued so far (Theorem 1 instrumentation).
    pub fn queries_issued(&self) -> u64 {
        self.queries_issued.load(Ordering::Relaxed)
    }

    /// Access to the underlying indexes (diagnostics).
    pub fn indexes(&self) -> &[I] {
        &self.indexes
    }

    /// Inserts a weighted box. Every index's point is checked before any
    /// is written, as in [`CornerBoxSum::insert`].
    pub fn insert(&mut self, rect: &Rect, value: f64) -> Result<()> {
        self.add_points(rect, value)?;
        self.total += value;
        self.len += 1;
        Ok(())
    }

    /// Deletes a previously inserted object by inserting its negation —
    /// the same deletion-by-negation [`CornerBoxSum::delete`] uses,
    /// exact for the group aggregates (SUM/COUNT/AVG) this engine
    /// serves. The box and value must match the original insertion.
    pub fn delete(&mut self, rect: &Rect, value: f64) -> Result<()> {
        self.add_points(rect, -value)?;
        self.total -= value;
        self.len = self.len.saturating_sub(1);
        Ok(())
    }

    /// Inserts `value` into every index at the point it stores for
    /// `rect`, once every index has accepted its point.
    fn add_points(&mut self, rect: &Rect, value: f64) -> Result<()> {
        if rect.dim() != self.dim {
            return Err(invalid_arg("object dimensionality mismatch"));
        }
        let points: Vec<Point> = (0..self.indexes.len())
            .map(|mask| {
                Point::from_fn(self.dim, |i| {
                    if mask & (1 << i) != 0 {
                        -rect.low().get(i)
                    } else {
                        rect.high().get(i)
                    }
                })
            })
            .collect();
        for (index, p) in self.indexes.iter().zip(&points) {
            index.check_insert(p, &value)?;
        }
        for (index, p) in self.indexes.iter_mut().zip(points) {
            index.insert(p, value)?;
        }
        Ok(())
    }

    /// Total value of objects intersecting `q`, via
    /// `total − Sum{misses}` with inclusion–exclusion over per-dimension
    /// below/above events.
    pub fn query(&self, q: &Rect) -> Result<f64> {
        if q.dim() != self.dim {
            return Err(invalid_arg("query dimensionality mismatch"));
        }
        let mut missed = 0.0;
        // The `next_down` nudges are computed once per query; each
        // assignment's dominance point is rebuilt into a scratch buffer
        // with coordinates bit-identical to the old per-assignment
        // `Point::from_fn`.
        let mut below = [0.0f64; MAX_DIM];
        let mut above = [0.0f64; MAX_DIM];
        for i in 0..self.dim {
            below[i] = q.low().get(i).next_down();
            above[i] = (-q.high().get(i)).next_down();
        }
        let mut y = Point::zeros(self.dim);
        // Enumerate assignments t ∈ {none, below, above}^d, t ≠ none^d.
        let mut assignment = [0u8; MAX_DIM];
        loop {
            // Advance to the next assignment (ternary counter).
            let mut i = 0;
            loop {
                if i == self.dim {
                    // Wrapped: all assignments done.
                    let result = self.total - missed;
                    return Ok(result);
                }
                assignment[i] += 1;
                if assignment[i] == 3 {
                    assignment[i] = 0;
                    i += 1;
                } else {
                    break;
                }
            }
            // Build the dominance query for this assignment.
            let mut mask = 0usize;
            let mut involved = 0u32;
            for (i, &a) in assignment[..self.dim].iter().enumerate() {
                if a == 2 {
                    mask |= 1 << i;
                }
                if a != 0 {
                    involved += 1;
                }
            }
            y.from_fn_into(self.dim, |i| match assignment[i] {
                0 => f64::INFINITY, // unconstrained
                1 => below[i],      // below: o.h_i < q.l_i
                _ => above[i],      // above: −o.l_i < −q.h_i
            });
            let term = self.indexes[mask].dominance_sum(&y)?;
            self.queries_issued.fetch_add(1, Ordering::Relaxed);
            if involved % 2 == 1 {
                missed += term;
            } else {
                missed -= term;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::traits::NaiveDominanceIndex;

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, dim: usize, side: f64) -> Rect {
        let low = Point::from_fn(dim, |_| rnd(s) * (1.0 - side));
        let high = Point::from_fn(dim, |i| low.get(i) + rnd(s) * side);
        Rect::new(low, high)
    }

    fn brute(objs: &[(Rect, f64)], q: &Rect) -> f64 {
        objs.iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|(_, v)| v)
            .sum()
    }

    fn corner_engine(dim: usize) -> CornerBoxSum<NaiveDominanceIndex<f64>> {
        CornerBoxSum::new(dim, |_| Ok(NaiveDominanceIndex::new(dim))).unwrap()
    }

    fn eo_engine(dim: usize) -> EoBoxSum<NaiveDominanceIndex<f64>> {
        EoBoxSum::new(dim, |_| Ok(NaiveDominanceIndex::new(dim))).unwrap()
    }

    #[test]
    fn query_counts_match_theorems() {
        assert_eq!(corner_query_count(1), 2);
        assert_eq!(corner_query_count(2), 4);
        assert_eq!(corner_query_count(3), 8);
        assert_eq!(eo_query_count(1), 2);
        assert_eq!(eo_query_count(2), 8); // §2: four 1-d + four 2-d queries
        assert_eq!(eo_query_count(3), 26); // §2: "a method based on [13] would need 26"
    }

    #[test]
    fn engines_count_their_queries() {
        let c = corner_engine(2);
        let e = eo_engine(2);
        let q = rand_rect(&mut 7u64.clone(), 2, 0.5);
        c.query(&q).unwrap();
        e.query(&q).unwrap();
        assert_eq!(c.queries_issued(), corner_query_count(2));
        assert_eq!(e.queries_issued(), eo_query_count(2));
        c.query(&q).unwrap();
        assert_eq!(c.queries_issued(), 2 * corner_query_count(2));
    }

    fn compare_engines(dim: usize, n: usize, seed: u64) {
        let mut corner = corner_engine(dim);
        let mut eo = eo_engine(dim);
        let mut objs = Vec::new();
        let mut s = seed;
        for i in 0..n {
            let r = rand_rect(&mut s, dim, 0.3);
            let v = (i % 7) as f64 - 2.0;
            corner.insert(&r, v).unwrap();
            eo.insert(&r, v).unwrap();
            objs.push((r, v));
        }
        for _ in 0..120 {
            let q = rand_rect(&mut s, dim, 0.5);
            let want = brute(&objs, &q);
            let got_c = corner.query(&q).unwrap();
            let got_e = eo.query(&q).unwrap();
            assert!(
                (got_c - want).abs() < 1e-6,
                "corner d={dim}: {got_c} vs {want}"
            );
            assert!((got_e - want).abs() < 1e-6, "eo d={dim}: {got_e} vs {want}");
        }
    }

    #[test]
    fn corner_and_eo_match_brute_force_1d() {
        compare_engines(1, 150, 101);
    }

    #[test]
    fn corner_and_eo_match_brute_force_2d() {
        compare_engines(2, 150, 102);
    }

    #[test]
    fn corner_and_eo_match_brute_force_3d() {
        compare_engines(3, 120, 103);
    }

    #[test]
    fn corner_and_eo_match_brute_force_4d() {
        compare_engines(4, 80, 104);
    }

    #[test]
    fn boundary_touching_objects_are_counted() {
        // Objects touching the query edge intersect under closed
        // semantics; the strict A¹ condition must not drop them.
        let mut c = corner_engine(2);
        let obj = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        c.insert(&obj, 5.0).unwrap();
        // Query sharing only the right edge x = 1.
        let q = Rect::from_bounds(&[(1.0, 2.0), (0.5, 0.6)]);
        assert_eq!(c.query(&q).unwrap(), 5.0);
        // Query strictly beyond the edge.
        let q2 = Rect::from_bounds(&[(1.0 + 1e-9, 2.0), (0.5, 0.6)]);
        assert_eq!(c.query(&q2).unwrap(), 0.0);
        // Corner-touching (both dimensions at the boundary).
        let q3 = Rect::from_bounds(&[(1.0, 2.0), (1.0, 2.0)]);
        assert_eq!(c.query(&q3).unwrap(), 5.0);
    }

    #[test]
    fn degenerate_objects_and_queries() {
        // Point objects and point queries are valid boxes.
        let mut c = corner_engine(2);
        c.insert(&Rect::degenerate(Point::new(&[0.5, 0.5])), 3.0)
            .unwrap();
        let q = Rect::degenerate(Point::new(&[0.5, 0.5]));
        assert_eq!(c.query(&q).unwrap(), 3.0);
        let q2 = Rect::degenerate(Point::new(&[0.4, 0.5]));
        assert_eq!(c.query(&q2).unwrap(), 0.0);
    }

    #[test]
    fn eo_index_space_negates_masked_dims() {
        let space = Rect::from_bounds(&[(0.0, 10.0), (2.0, 4.0)]);
        let s0 = eo_index_space(&space, 0b00);
        assert_eq!(s0, space);
        let s1 = eo_index_space(&space, 0b01);
        assert_eq!(s1, Rect::from_bounds(&[(-10.0, 0.0), (2.0, 4.0)]));
        let s3 = eo_index_space(&space, 0b11);
        assert_eq!(s3, Rect::from_bounds(&[(-10.0, 0.0), (-4.0, -2.0)]));
    }

    #[test]
    fn scratch_corner_points_match_allocating_path() {
        // The query loop rebuilds the corner query point into a scratch
        // buffer from precomputed lo/hi arrays; it must be bit-identical
        // (all coordinates, every mask) to the allocating
        // `corner_query_point` external callers use.
        let mut s = 404u64;
        for dim in 1..=4usize {
            for _ in 0..50 {
                let q = rand_rect(&mut s, dim, 0.5);
                let mut lo = [0.0f64; MAX_DIM];
                let mut hi = [0.0f64; MAX_DIM];
                for i in 0..dim {
                    lo[i] = q.low().get(i).next_down();
                    hi[i] = q.high().get(i);
                }
                let mut scratch = Point::zeros(dim);
                for mask in 0..(1usize << dim) {
                    scratch.from_fn_into(dim, |i| if mask & (1 << i) != 0 { lo[i] } else { hi[i] });
                    let fresh = corner_query_point(&q, dim, mask);
                    for i in 0..dim {
                        assert_eq!(
                            scratch.get(i).to_bits(),
                            fresh.get(i).to_bits(),
                            "dim {dim} mask {mask} coord {i}"
                        );
                    }
                    assert!(scratch == fresh, "whole-point equality must hold too");
                }
            }
        }
    }

    #[test]
    fn eo_delete_mirrors_corner_delete() {
        let mut eo = eo_engine(2);
        let mut corner = corner_engine(2);
        let mut objs = Vec::new();
        let mut s = 606u64;
        for i in 0..80 {
            let r = rand_rect(&mut s, 2, 0.3);
            let v = (i % 5) as f64 - 1.0;
            eo.insert(&r, v).unwrap();
            corner.insert(&r, v).unwrap();
            objs.push((r, v));
        }
        for (r, v) in &objs[..40] {
            eo.delete(r, *v).unwrap();
            corner.delete(r, *v).unwrap();
        }
        assert_eq!(eo.len(), 40);
        for _ in 0..60 {
            let q = rand_rect(&mut s, 2, 0.5);
            let want = brute(&objs[40..], &q);
            let got_eo = eo.query(&q).unwrap();
            let got_c = corner.query(&q).unwrap();
            assert!((got_eo - want).abs() < 1e-6, "eo: {got_eo} vs {want}");
            assert!((got_c - want).abs() < 1e-6, "corner: {got_c} vs {want}");
        }
    }

    #[test]
    fn from_indexes_validates_shape() {
        let idxs = vec![NaiveDominanceIndex::new(2); 4];
        assert!(CornerBoxSum::from_indexes(2, idxs).is_ok());
        let too_few = vec![NaiveDominanceIndex::<f64>::new(2); 3];
        assert!(CornerBoxSum::from_indexes(2, too_few).is_err());
        let wrong_dim = vec![NaiveDominanceIndex::<f64>::new(3); 4];
        assert!(CornerBoxSum::from_indexes(2, wrong_dim).is_err());
    }

    #[test]
    fn rejects_dimension_mismatches() {
        let mut c = corner_engine(2);
        assert!(c.insert(&Rect::from_bounds(&[(0.0, 1.0)]), 1.0).is_err());
        assert!(c.query(&Rect::from_bounds(&[(0.0, 1.0)])).is_err());
        assert!(CornerBoxSum::<NaiveDominanceIndex<f64>>::new(0, |_| {
            Ok(NaiveDominanceIndex::new(0))
        })
        .is_err());
    }
}
