//! Dimension-generic points and boxes (§2 of the paper).
//!
//! Dimensionality is a *runtime* value rather than a type parameter: the
//! border recursion of the ECDF- and BA-trees steps from `d` dimensions to
//! `d−1`, which a const-generic design cannot express on stable Rust.
//! Points store their coordinates inline (up to [`MAX_DIM`]) so that they
//! are `Copy` and allocation-free — index nodes shuffle millions of them.

use std::fmt;
use std::ops::Index;

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::{corrupt, Result};

/// Coordinate type used throughout the workspace.
pub type Coord = f64;

/// Maximum supported dimensionality.
///
/// The paper's applications use 2–3 extensional dimensions; 8 leaves ample
/// headroom for the reduction-count experiments (Theorem 1/2, d ≤ 6).
pub const MAX_DIM: usize = 8;

/// A `d`-dimensional point (`d ≤ MAX_DIM`), stored inline.
#[derive(Clone, Copy, PartialEq)]
pub struct Point {
    coords: [Coord; MAX_DIM],
    dim: u8,
}

impl Point {
    /// Builds a point from a coordinate slice.
    ///
    /// # Panics
    /// Panics if `coords.len() > MAX_DIM` or is zero.
    pub fn new(coords: &[Coord]) -> Self {
        assert!(
            !coords.is_empty() && coords.len() <= MAX_DIM,
            "point dimension must be in 1..={MAX_DIM}, got {}",
            coords.len()
        );
        let mut c = [0.0; MAX_DIM];
        c[..coords.len()].copy_from_slice(coords);
        Self {
            coords: c,
            dim: coords.len() as u8,
        }
    }

    /// The origin of `dim`-dimensional space.
    pub fn zeros(dim: usize) -> Self {
        Self::splat(dim, 0.0)
    }

    /// A point with every coordinate equal to `v`.
    pub fn splat(dim: usize, v: Coord) -> Self {
        assert!((1..=MAX_DIM).contains(&dim));
        let mut c = [0.0; MAX_DIM];
        c[..dim].fill(v);
        Self {
            coords: c,
            dim: dim as u8,
        }
    }

    /// Builds a point by evaluating `f` on each dimension index.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize) -> Coord) -> Self {
        assert!((1..=MAX_DIM).contains(&dim));
        let mut c = [0.0; MAX_DIM];
        for (i, slot) in c[..dim].iter_mut().enumerate() {
            *slot = f(i);
        }
        Self {
            coords: c,
            dim: dim as u8,
        }
    }

    /// In-place counterpart of [`from_fn`](Self::from_fn) for hot loops
    /// reusing one scratch point: overwrites `self` with the point whose
    /// coordinate `i` is `f(i)`. Produces coordinates bit-identical to
    /// `Point::from_fn(dim, f)`.
    pub fn from_fn_into(&mut self, dim: usize, mut f: impl FnMut(usize) -> Coord) {
        assert!((1..=MAX_DIM).contains(&dim));
        for (i, slot) in self.coords[..dim].iter_mut().enumerate() {
            *slot = f(i);
        }
        // `PartialEq` compares the whole inline array: zero the tail so
        // the result is indistinguishable from a fresh `from_fn` point.
        self.coords[dim..].fill(0.0);
        self.dim = dim as u8;
    }

    /// Dimensionality of the point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Coordinate in dimension `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Coord {
        debug_assert!(i < self.dim());
        self.coords[i]
    }

    /// Overwrites coordinate `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: Coord) {
        debug_assert!(i < self.dim());
        self.coords[i] = v;
    }

    /// The active coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[Coord] {
        &self.coords[..self.dim()]
    }

    /// Every coordinate is finite (no NaN, no ±∞).
    ///
    /// Index structures require finite coordinates: NaN breaks the total
    /// order their node layouts rely on, silently corrupting searches.
    /// Public index APIs validate with this before accepting a point.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.coords().iter().all(|c| c.is_finite())
    }

    /// Lexicographic total order over the coordinates, using
    /// [`f64::total_cmp`] per component so the comparison is a valid
    /// `Ord` even in the presence of NaN or signed zeros.
    pub fn lex_cmp(&self, other: &Point) -> std::cmp::Ordering {
        debug_assert_eq!(self.dim, other.dim);
        for (a, b) in self.coords().iter().zip(other.coords()) {
            let ord = a.total_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    }

    /// `self` dominates `other`: `self[i] ≥ other[i]` for every dimension.
    ///
    /// This is the (closed) dominance relation of §2.
    #[inline]
    pub fn dominates(&self, other: &Point) -> bool {
        debug_assert_eq!(self.dim, other.dim);
        self.coords()
            .iter()
            .zip(other.coords())
            .all(|(a, b)| a >= b)
    }

    /// `self` is dominated by `other` (`self[i] ≤ other[i]` everywhere).
    #[inline]
    pub fn dominated_by(&self, other: &Point) -> bool {
        other.dominates(self)
    }

    /// Projection that removes dimension `j`, producing a `(d−1)`-dim point.
    ///
    /// Used when a point descends into a border structure, which indexes
    /// the remaining dimensions (§4, §5).
    pub fn drop_dim(&self, j: usize) -> Point {
        let d = self.dim();
        assert!(d >= 2, "cannot project a 1-dimensional point");
        assert!(j < d);
        let mut c = [0.0; MAX_DIM];
        let mut k = 0;
        for i in 0..d {
            if i != j {
                c[k] = self.coords[i];
                k += 1;
            }
        }
        Self {
            coords: c,
            dim: (d - 1) as u8,
        }
    }

    /// Componentwise minimum.
    pub fn component_min(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim, other.dim);
        Point::from_fn(self.dim(), |i| self.get(i).min(other.get(i)))
    }

    /// Componentwise maximum.
    fn component_max(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim, other.dim);
        Point::from_fn(self.dim(), |i| self.get(i).max(other.get(i)))
    }

    /// Serializes the active coordinates (the dimension is layout context
    /// known to the caller and is not re-encoded per point).
    pub fn encode(&self, w: &mut ByteWriter) {
        for &c in self.coords() {
            w.put_f64(c);
        }
    }

    /// Deserializes a point of known dimensionality.
    pub fn decode(r: &mut ByteReader<'_>, dim: usize) -> Result<Point> {
        if !(1..=MAX_DIM).contains(&dim) {
            return Err(corrupt(format!("point dimension {dim} out of range")));
        }
        let mut c = [0.0; MAX_DIM];
        for slot in c[..dim].iter_mut() {
            *slot = r.get_f64()?;
        }
        Ok(Self {
            coords: c,
            dim: dim as u8,
        })
    }

    /// Encoded size in bytes for a point of dimensionality `dim`.
    pub const fn encoded_size(dim: usize) -> usize {
        8 * dim
    }
}

impl Index<usize> for Point {
    type Output = Coord;
    fn index(&self, i: usize) -> &Coord {
        debug_assert!(i < self.dim());
        &self.coords[i]
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// An axis-aligned `d`-dimensional box, described by its low point
/// (dominated by every corner) and its high point (dominating every
/// corner), as in §2.
#[derive(Clone, Copy, PartialEq)]
pub struct Rect {
    low: Point,
    high: Point,
}

impl Rect {
    /// Builds a box from its low and high corners.
    ///
    /// # Panics
    /// Panics if the dimensions differ or `low` is not dominated by `high`.
    pub fn new(low: Point, high: Point) -> Self {
        assert_eq!(low.dim(), high.dim(), "corner dimensionality mismatch");
        assert!(
            high.dominates(&low),
            "low corner {low:?} must be dominated by high corner {high:?}"
        );
        Self { low, high }
    }

    /// A degenerate box holding exactly one point.
    pub fn degenerate(p: Point) -> Self {
        Self { low: p, high: p }
    }

    /// Builds a box from interleaved `[l1, h1, l2, h2, …]` bounds.
    pub fn from_bounds(bounds: &[(Coord, Coord)]) -> Self {
        let low = Point::from_fn(bounds.len(), |i| bounds[i].0);
        let high = Point::from_fn(bounds.len(), |i| bounds[i].1);
        Self::new(low, high)
    }

    /// The `(low, high)` pair of every dimension: the inverse of
    /// [`from_bounds`](Self::from_bounds).
    pub fn bounds(&self) -> Vec<(Coord, Coord)> {
        (0..self.dim())
            .map(|i| (self.low.get(i), self.high.get(i)))
            .collect()
    }

    /// Dimensionality of the box.
    #[inline]
    pub fn dim(&self) -> usize {
        self.low.dim()
    }

    /// The low corner.
    #[inline]
    pub fn low(&self) -> &Point {
        &self.low
    }

    /// The high corner.
    #[inline]
    pub fn high(&self) -> &Point {
        &self.high
    }

    /// Side length in dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> Coord {
        self.high.get(i) - self.low.get(i)
    }

    /// Both corners are finite (no NaN, no ±∞). See [`Point::is_finite`].
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.low.is_finite() && self.high.is_finite()
    }

    /// Closed containment of a point.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.dominates(&self.low) && self.high.dominates(p)
    }

    /// Closed containment of another box.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains_point(&other.low) && self.contains_point(&other.high)
    }

    /// Closed box intersection predicate: the projections to every
    /// dimension overlap (`o.l ≤ q.h ∧ o.h ≥ q.l`), §2.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dim(), other.dim());
        (0..self.dim())
            .all(|i| self.low.get(i) <= other.high.get(i) && self.high.get(i) >= other.low.get(i))
    }

    /// Geometric intersection, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            low: self.low.component_max(&other.low),
            high: self.high.component_min(&other.high),
        })
    }

    /// Smallest box enclosing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            low: self.low.component_min(&other.low),
            high: self.high.component_max(&other.high),
        }
    }

    /// `d`-dimensional volume (area for `d = 2`).
    pub fn volume(&self) -> Coord {
        (0..self.dim()).map(|i| self.extent(i)).product()
    }

    /// Sum of side lengths — the "margin" used by the R*-tree split.
    pub fn margin(&self) -> Coord {
        (0..self.dim()).map(|i| self.extent(i)).sum()
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::from_fn(self.dim(), |i| 0.5 * (self.low.get(i) + self.high.get(i)))
    }

    /// Volume of the overlap with `other` (0 when disjoint).
    pub fn overlap_volume(&self, other: &Rect) -> Coord {
        match self.intersection(other) {
            Some(r) => r.volume(),
            None => 0.0,
        }
    }

    /// The corner selected by bitmask `mask`: bit `i` set picks `high[i]`,
    /// clear picks `low[i]`. A `d`-box has `2^d` corners (Theorem 2).
    pub fn corner(&self, mask: usize) -> Point {
        debug_assert!(mask < (1usize << self.dim()));
        Point::from_fn(self.dim(), |i| {
            if mask & (1 << i) != 0 {
                self.high.get(i)
            } else {
                self.low.get(i)
            }
        })
    }

    /// Projection dropping dimension `j`.
    pub fn drop_dim(&self, j: usize) -> Rect {
        Rect {
            low: self.low.drop_dim(j),
            high: self.high.drop_dim(j),
        }
    }

    /// Splits the box at `at` along dimension `dim`, returning the
    /// `(low side, high side)` halves. `at` must lie inside the extent.
    pub fn split_at(&self, dim: usize, at: Coord) -> (Rect, Rect) {
        debug_assert!(self.low.get(dim) <= at && at <= self.high.get(dim));
        let mut lo = *self;
        let mut hi = *self;
        lo.high.set(dim, at);
        hi.low.set(dim, at);
        (lo, hi)
    }

    /// Serializes both corners.
    pub fn encode(&self, w: &mut ByteWriter) {
        self.low.encode(w);
        self.high.encode(w);
    }

    /// Deserializes a box of known dimensionality.
    pub fn decode(r: &mut ByteReader<'_>, dim: usize) -> Result<Rect> {
        let low = Point::decode(r, dim)?;
        let high = Point::decode(r, dim)?;
        Self::stored(low, high)
    }

    /// The box of stored corners: `Corrupt` unless `high` dominates
    /// `low` (no NaN either).
    #[inline]
    fn stored(low: Point, high: Point) -> Result<Rect> {
        if !high.dominates(&low) {
            return Err(corrupt("rect corners out of order".to_string()));
        }
        Ok(Rect { low, high })
    }

    /// Both corners as one `2·d`-dimensional point `[low…, high…]`: the
    /// coordinates [`encode`](Self::encode) writes, as a point a slab
    /// row can hold (`2·d ≤ MAX_DIM`).
    pub fn corner_point(&self) -> Point {
        let d = self.dim();
        Point::from_fn(2 * d, |i| {
            if i < d {
                self.low.get(i)
            } else {
                self.high.get(i - d)
            }
        })
    }

    /// The inverse of [`corner_point`](Self::corner_point), refusing
    /// what [`decode`](Self::decode) refuses: `Corrupt` when the high
    /// corner does not dominate the low one.
    pub fn from_corner_point(p: &Point) -> Result<Rect> {
        let d = p.dim() / 2;
        debug_assert_eq!(p.dim(), 2 * d, "a corner point has even dimension");
        Self::stored(
            Point::from_fn(d, |i| p.get(i)),
            Point::from_fn(d, |i| p.get(d + i)),
        )
    }

    /// Encoded size in bytes for a box of dimensionality `dim`.
    pub const fn encoded_size(dim: usize) -> usize {
        2 * Point::encoded_size(dim)
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?} .. {:?}]", self.low, self.high)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cs: &[f64]) -> Point {
        Point::new(cs)
    }

    #[test]
    fn point_basics() {
        let a = p(&[1.0, 2.0, 3.0]);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.get(1), 2.0);
        assert_eq!(a[2], 3.0);
        assert_eq!(a.coords(), &[1.0, 2.0, 3.0]);
        let mut b = a;
        b.set(0, 9.0);
        assert_eq!(b.coords(), &[9.0, 2.0, 3.0]);
        assert_eq!(a.coords(), &[1.0, 2.0, 3.0], "Point must be Copy");
    }

    #[test]
    fn dominance_is_closed_and_componentwise() {
        let a = p(&[2.0, 5.0]);
        let b = p(&[2.0, 4.0]);
        assert!(a.dominates(&b));
        assert!(a.dominates(&a), "dominance is reflexive (closed)");
        assert!(!b.dominates(&a));
        let c = p(&[3.0, 3.0]);
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        assert!(b.dominated_by(&a));
    }

    #[test]
    fn drop_dim_projects_correctly() {
        let a = p(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.drop_dim(0).coords(), &[2.0, 3.0, 4.0]);
        assert_eq!(a.drop_dim(2).coords(), &[1.0, 2.0, 4.0]);
        assert_eq!(a.drop_dim(3).coords(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.drop_dim(1).dim(), 3);
    }

    #[test]
    #[should_panic]
    fn drop_dim_rejects_1d() {
        p(&[1.0]).drop_dim(0);
    }

    #[test]
    fn point_encode_decode_round_trip() {
        let a = p(&[1.5, -2.5, 1e300]);
        let mut w = ByteWriter::new();
        a.encode(&mut w);
        assert_eq!(w.len(), Point::encoded_size(3));
        let bytes = w.into_vec();
        let b = Point::decode(&mut ByteReader::new(&bytes), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rect_contains_and_intersects_are_closed() {
        let r = Rect::from_bounds(&[(0.0, 10.0), (0.0, 5.0)]);
        assert!(r.contains_point(&p(&[0.0, 0.0])));
        assert!(r.contains_point(&p(&[10.0, 5.0])));
        assert!(!r.contains_point(&p(&[10.0, 5.1])));

        // Edge-touching boxes intersect under the closed semantics.
        let s = Rect::from_bounds(&[(10.0, 12.0), (5.0, 7.0)]);
        assert!(r.intersects(&s));
        let t = Rect::from_bounds(&[(10.1, 12.0), (0.0, 5.0)]);
        assert!(!r.intersects(&t));
    }

    #[test]
    fn rect_intersection_union_volume() {
        let a = Rect::from_bounds(&[(0.0, 4.0), (0.0, 4.0)]);
        let b = Rect::from_bounds(&[(2.0, 6.0), (1.0, 3.0)]);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Rect::from_bounds(&[(2.0, 4.0), (1.0, 3.0)]));
        assert_eq!(i.volume(), 4.0);
        assert_eq!(a.overlap_volume(&b), 4.0);
        let u = a.union(&b);
        assert_eq!(u, Rect::from_bounds(&[(0.0, 6.0), (0.0, 4.0)]));
        assert_eq!(a.margin(), 8.0);
        let far = Rect::from_bounds(&[(9.0, 10.0), (9.0, 10.0)]);
        assert!(a.intersection(&far).is_none());
        assert_eq!(a.overlap_volume(&far), 0.0);
    }

    #[test]
    fn rect_corners_enumerate_all_combinations() {
        let r = Rect::from_bounds(&[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(r.corner(0b00).coords(), &[1.0, 3.0]);
        assert_eq!(r.corner(0b01).coords(), &[2.0, 3.0]);
        assert_eq!(r.corner(0b10).coords(), &[1.0, 4.0]);
        assert_eq!(r.corner(0b11).coords(), &[2.0, 4.0]);
    }

    #[test]
    fn rect_split_partitions_volume() {
        let r = Rect::from_bounds(&[(0.0, 10.0), (0.0, 2.0)]);
        let (lo, hi) = r.split_at(0, 4.0);
        assert_eq!(lo, Rect::from_bounds(&[(0.0, 4.0), (0.0, 2.0)]));
        assert_eq!(hi, Rect::from_bounds(&[(4.0, 10.0), (0.0, 2.0)]));
        assert_eq!(lo.volume() + hi.volume(), r.volume());
    }

    #[test]
    fn rect_encode_decode_round_trip() {
        let r = Rect::from_bounds(&[(0.5, 1.5), (-3.0, 3.0), (7.0, 7.0)]);
        let mut w = ByteWriter::new();
        r.encode(&mut w);
        assert_eq!(w.len(), Rect::encoded_size(3));
        let bytes = w.into_vec();
        let s = Rect::decode(&mut ByteReader::new(&bytes), 3).unwrap();
        assert_eq!(r, s);
    }

    #[test]
    fn corner_point_round_trip_refuses_swapped_corners() {
        let r = Rect::from_bounds(&[(0.5, 1.5), (-3.0, 3.0)]);
        let c = r.corner_point();
        assert_eq!(c, p(&[0.5, -3.0, 1.5, 3.0]));
        let mut w = ByteWriter::new();
        c.encode(&mut w);
        let mut wr = ByteWriter::new();
        r.encode(&mut wr);
        assert_eq!(w.as_slice(), wr.as_slice(), "the bytes Rect::encode writes");
        assert_eq!(Rect::from_corner_point(&c).unwrap(), r);
        for bad in [p(&[2.0, 0.0, 1.0, 1.0]), p(&[0.0, f64::NAN, 1.0, 1.0])] {
            assert!(matches!(
                Rect::from_corner_point(&bad),
                Err(crate::error::Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn rect_decode_rejects_swapped_corners() {
        let mut w = ByteWriter::new();
        p(&[5.0]).encode(&mut w);
        p(&[1.0]).encode(&mut w);
        let bytes = w.into_vec();
        assert!(Rect::decode(&mut ByteReader::new(&bytes), 1).is_err());
    }

    #[test]
    fn degenerate_rect_is_a_point() {
        let r = Rect::degenerate(p(&[1.0, 2.0]));
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains_point(&p(&[1.0, 2.0])));
        assert!(!r.contains_point(&p(&[1.0, 2.1])));
    }

    #[test]
    fn center_and_extent() {
        let r = Rect::from_bounds(&[(0.0, 4.0), (2.0, 8.0)]);
        assert_eq!(r.center().coords(), &[2.0, 5.0]);
        assert_eq!(r.extent(1), 6.0);
    }

    #[test]
    fn component_min_max() {
        let a = p(&[1.0, 5.0]);
        let b = p(&[3.0, 2.0]);
        assert_eq!(a.component_min(&b).coords(), &[1.0, 2.0]);
        assert_eq!(a.component_max(&b).coords(), &[3.0, 5.0]);
    }

    #[test]
    fn rect_drop_dim() {
        let r = Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]);
        assert_eq!(r.drop_dim(1), Rect::from_bounds(&[(0.0, 1.0), (4.0, 5.0)]));
    }

    #[test]
    fn splat_and_zeros() {
        assert_eq!(Point::zeros(3).coords(), &[0.0, 0.0, 0.0]);
        assert_eq!(Point::splat(2, 7.5).coords(), &[7.5, 7.5]);
    }

    #[test]
    fn is_finite_rejects_nan_and_infinities() {
        assert!(p(&[1.0, -2.0]).is_finite());
        assert!(!p(&[1.0, f64::NAN]).is_finite());
        assert!(!p(&[f64::INFINITY, 0.0]).is_finite());
        assert!(!p(&[0.0, f64::NEG_INFINITY]).is_finite());
        let r = Rect::from_bounds(&[(0.0, 1.0)]);
        assert!(r.is_finite());
        let bad = Rect::degenerate(p(&[f64::NAN]));
        assert!(!bad.is_finite());
    }

    #[test]
    fn lex_cmp_is_a_total_order() {
        use std::cmp::Ordering;
        assert_eq!(p(&[1.0, 2.0]).lex_cmp(&p(&[1.0, 3.0])), Ordering::Less);
        assert_eq!(p(&[2.0, 0.0]).lex_cmp(&p(&[1.0, 9.0])), Ordering::Greater);
        assert_eq!(p(&[1.0, 2.0]).lex_cmp(&p(&[1.0, 2.0])), Ordering::Equal);
        // total_cmp semantics: NaN sorts above +inf instead of poisoning
        // the comparison.
        assert_eq!(
            p(&[f64::NAN]).lex_cmp(&p(&[f64::INFINITY])),
            Ordering::Greater
        );
    }
}
