//! The functional box-sum problem and its reduction (§3, Theorem 3).
//!
//! Each object carries a polynomial value function `f`; its contribution
//! to a query is `∫ f` over the intersection of its box with the query
//! box. The reduction:
//!
//! 1. A functional box-sum over `q` is the alternating sum of `2^d`
//!    *origin-involved* functional box-sums (OIFBS), one per corner of
//!    `q` (Fig. 4).
//! 2. An OIFBS index stores, for each object, `2^d` *corner tuples* —
//!    polynomials such that summing the tuples of the corners dominated
//!    by a point `p` and evaluating at `p` yields `∫ f` over
//!    `[l, min(p, h)]` (Fig. 5). OIFBS queries are therefore
//!    dominance-sums over polynomial values, answered by any
//!    [`DominanceSumIndex<Poly>`].
//!
//! ## Corner tuple construction
//!
//! For a monomial `a·Π xᵢ^{eᵢ}` of `f` over box `[l, h]`, define per
//! dimension the *partial integral* `Aᵢ(x) = (x^{eᵢ+1} − lᵢ^{eᵢ+1})/(eᵢ+1)`
//! and the *full integral* constant `Cᵢ = (hᵢ^{eᵢ+1} − lᵢ^{eᵢ+1})/(eᵢ+1)`.
//! Corner `s` (at `lᵢ`/`hᵢ` per `sᵢ`) receives
//! `a·Πᵢ (sᵢ = 0 ? Aᵢ : Cᵢ − Aᵢ)`: for a query point with `pᵢ < hᵢ` only
//! the low corner is dominated and the product contributes `Aᵢ(pᵢ)`; with
//! `pᵢ ≥ hᵢ` both corners are dominated and the telescoped factor is the
//! constant `Cᵢ` — exactly the clamped per-dimension integral. Because
//! domination factorizes over dimensions, the sum over dominated corners
//! is the product of the per-dimension sums.
//!
//! The degree grows by at most 1 per dimension (`k → k + d` overall,
//! matching the paper), so tuples stay constant-size.

use std::sync::atomic::{AtomicU64, Ordering};

use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect, MAX_DIM};
use boxagg_common::poly::{max_poly_encoded_size, HornerEval, Poly};
use boxagg_common::traits::DominanceSumIndex;
use boxagg_common::value::AggValue;

/// A weighted object of the functional box-sum problem: a box and a
/// polynomial value function over the box's dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalObject {
    /// The object's extent.
    pub rect: Rect,
    /// The value function (e.g. density per unit volume).
    pub f: Poly,
}

impl FunctionalObject {
    /// Creates an object, validating that the function only references
    /// the box's dimensions.
    pub fn new(rect: Rect, f: Poly) -> Result<Self> {
        let dim = rect.dim();
        for t in f.terms() {
            if t.exps[dim..].iter().any(|&e| e > 0) {
                return Err(invalid_arg(
                    "value function references a dimension beyond the object box",
                ));
            }
        }
        Ok(Self { rect, f })
    }

    /// The exact contribution of this object to a query box: `∫ f` over
    /// the intersection (0 if disjoint). Brute-force oracle used by the
    /// tests and by the plain R-tree baseline.
    pub fn contribution(&self, q: &Rect) -> f64 {
        match self.rect.intersection(q) {
            None => 0.0,
            Some(cell) => self.f.integral_over(cell.low(), cell.high()),
        }
    }

    /// Total mass: `∫ f` over the whole object.
    pub fn mass(&self) -> f64 {
        self.f.integral_over(self.rect.low(), self.rect.high())
    }
}

/// Computes the `2^d` corner tuples of an object (Fig. 5): the points to
/// insert into the OIFBS dominance index together with their polynomial
/// values.
pub fn corner_tuples(obj: &FunctionalObject) -> Vec<(Point, Poly)> {
    let dim = obj.rect.dim();
    let mut out: Vec<(Point, Poly)> = (0..(1usize << dim))
        .map(|mask| (obj.rect.corner(mask), Poly::new()))
        .collect();
    for term in obj.f.terms() {
        // Per-dimension partial integrals A_i and constants C_i.
        let mut partials: Vec<Poly> = Vec::with_capacity(dim);
        let mut fulls: Vec<f64> = Vec::with_capacity(dim);
        for i in 0..dim {
            let e = term.exps[i] as i32;
            let li = obj.rect.low().get(i);
            let hi = obj.rect.high().get(i);
            let inv = 1.0 / (e as f64 + 1.0);
            let mut exps = [0u8; MAX_DIM];
            exps[i] = (e + 1) as u8;
            let a = Poly::monomial(inv, &exps).sub(&Poly::constant(li.powi(e + 1) * inv));
            partials.push(a);
            fulls.push((hi.powi(e + 1) - li.powi(e + 1)) * inv);
        }
        for (mask, slot) in out.iter_mut().enumerate() {
            let mut prod = Poly::constant(term.coeff);
            for i in 0..dim {
                let factor = if mask & (1 << i) == 0 {
                    partials[i].clone()
                } else {
                    Poly::constant(fulls[i]).sub(&partials[i])
                };
                prod = prod.mul(&factor);
            }
            slot.1.add_assign(&prod);
        }
    }
    out.retain(|(_, p)| !p.is_zero());
    out
}

/// Worst-case encoded tuple size for objects over `dim` dimensions with
/// value functions of total degree at most `degree` — pass this as the
/// index's `max_value_size`.
pub fn tuple_value_size(dim: usize, degree: u32) -> usize {
    // Aggregated tuples mix corner tuples of many objects; per-dimension
    // exponents stay ≤ degree + 1.
    max_poly_encoded_size(dim, degree + 1)
}

/// Functional box-sum engine (§3): **one** dominance index over
/// polynomial tuples; `2^d` insertions per object, `2^d` dominance
/// queries (each followed by a polynomial evaluation) per box-sum.
pub struct FunctionalBoxSum<I> {
    dim: usize,
    index: I,
    len: usize,
    /// A statistic only; publishes no other data.
    queries_issued: AtomicU64,
}

impl<I: DominanceSumIndex<Poly>> FunctionalBoxSum<I> {
    /// Wraps a polynomial dominance index.
    pub fn new(index: I) -> Result<Self> {
        let dim = index.dim();
        if dim == 0 || dim > MAX_DIM {
            return Err(invalid_arg(format!("dimension {dim} out of range")));
        }
        Ok(Self {
            dim,
            index,
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

    /// Dominance queries issued so far.
    pub fn queries_issued(&self) -> u64 {
        self.queries_issued.load(Ordering::Relaxed)
    }

    /// The wrapped index (diagnostics).
    pub fn index(&self) -> &I {
        &self.index
    }

    /// Records `n` objects loaded directly into the index by a bulk
    /// constructor (keeps `len` accurate).
    pub(crate) fn note_bulk_loaded(&mut self, n: usize) {
        self.len += n;
    }

    /// Inserts an object: its `2^d` corner tuples go into the single
    /// index, once the index has accepted every one of them.
    pub fn insert(&mut self, obj: &FunctionalObject) -> Result<()> {
        self.add_tuples(obj, false)?;
        self.len += 1;
        Ok(())
    }

    /// Deletes a previously inserted object by inserting negated corner
    /// tuples (exact: polynomial tuples form a group under addition).
    pub fn delete(&mut self, obj: &FunctionalObject) -> Result<()> {
        self.add_tuples(obj, true)?;
        self.len = self.len.saturating_sub(1);
        Ok(())
    }

    /// Inserts `obj`'s corner tuples, negated for a delete, once the
    /// index has accepted every one of them.
    fn add_tuples(&mut self, obj: &FunctionalObject, negate: bool) -> Result<()> {
        if obj.rect.dim() != self.dim {
            return Err(invalid_arg("object dimensionality mismatch"));
        }
        let mut tuples = corner_tuples(obj);
        for (p, tuple) in &mut tuples {
            if negate {
                tuple.scale(-1.0);
            }
            self.index.check_insert(p, tuple)?;
        }
        for (p, tuple) in tuples {
            self.index.insert(p, tuple)?;
        }
        Ok(())
    }

    /// Origin-involved functional box-sum at `p`: the aggregated tuple
    /// over dominated corners, evaluated at `p`.
    pub fn oifbs(&self, p: &Point) -> Result<f64> {
        self.oifbs_with(&mut HornerEval::new(), p)
    }

    /// [`oifbs`](Self::oifbs) over a caller-held Horner scratch grid, so
    /// the `2^d` evaluations of one box-sum share one allocation.
    /// (`Poly::eval`, the sparse per-term sum Horner replaced, is what
    /// the layout-equivalence test holds this to.)
    fn oifbs_with(&self, horner: &mut HornerEval, p: &Point) -> Result<f64> {
        let tuple = self.index.dominance_sum(p)?;
        self.queries_issued.fetch_add(1, Ordering::Relaxed);
        Ok(horner.eval(&tuple, p))
    }

    /// Functional box-sum over `q`: the alternating OIFBS sum over `q`'s
    /// corners (Fig. 4).
    pub fn query(&self, q: &Rect) -> Result<f64> {
        if q.dim() != self.dim {
            return Err(invalid_arg("query dimensionality mismatch"));
        }
        let mut acc = 0.0;
        let mut horner = HornerEval::new();
        let mut corner = Point::zeros(self.dim);
        for mask in 0..(1usize << self.dim) {
            // Scratch reuse: overwrite one corner point per mask instead
            // of constructing 2^d fresh points.
            corner.from_fn_into(self.dim, |i| {
                if mask & (1 << i) != 0 {
                    q.high().get(i)
                } else {
                    q.low().get(i)
                }
            });
            let term = self.oifbs_with(&mut horner, &corner)?;
            // Sign: + for the all-high corner, alternating per low pick.
            let lows = self.dim as u32 - mask.count_ones();
            if lows.is_multiple_of(2) {
                acc += term;
            } else {
                acc -= term;
            }
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::traits::NaiveDominanceIndex;

    fn paper_objects() -> Vec<FunctionalObject> {
        // Fig. 3a / Fig. 5b: value-4 object [2,15]×[10,15], value-3
        // object [18,30]×[4,10], value-6 object placed away from the
        // query.
        vec![
            FunctionalObject::new(
                Rect::from_bounds(&[(2.0, 15.0), (10.0, 15.0)]),
                Poly::constant(4.0),
            )
            .unwrap(),
            FunctionalObject::new(
                Rect::from_bounds(&[(18.0, 30.0), (4.0, 10.0)]),
                Poly::constant(3.0),
            )
            .unwrap(),
            FunctionalObject::new(
                Rect::from_bounds(&[(26.0, 30.0), (15.0, 26.0)]),
                Poly::constant(6.0),
            )
            .unwrap(),
        ]
    }

    #[test]
    fn corner_tuples_match_papers_worked_example() {
        // §3: inserting the value-4 object produces at its low corner
        // c1 = (2, 10) the tuple 4xy − 40x − 8y + 80.
        let objs = paper_objects();
        let tuples = corner_tuples(&objs[0]);
        let (c1, t1) = tuples
            .iter()
            .find(|(p, _)| p.coords() == [2.0, 10.0])
            .expect("low corner tuple");
        assert_eq!(c1.coords(), &[2.0, 10.0]);
        let expected = Poly::from_terms(vec![
            boxagg_common::poly::Term::new(4.0, &[1, 1]),
            boxagg_common::poly::Term::new(-40.0, &[1, 0]),
            boxagg_common::poly::Term::new(-8.0, &[0, 1]),
            boxagg_common::poly::Term::new(80.0, &[]),
        ]);
        assert!(t1.approx_eq(&expected, 1e-9), "got {t1:?}");
        // Evaluating at q1 = (5, 15) gives 60 (paper).
        assert_eq!(t1.eval(&Point::new(&[5.0, 15.0])), 60.0);
    }

    fn engine() -> FunctionalBoxSum<NaiveDominanceIndex<Poly>> {
        FunctionalBoxSum::new(NaiveDominanceIndex::new(2)).unwrap()
    }

    #[test]
    fn paper_oifbs_values() {
        let mut e = engine();
        for o in paper_objects() {
            e.insert(&o).unwrap();
        }
        // §3: OIFBS(q1 = (5,15)) = 60; OIFBS(q2 = (20,15)) = 296.
        assert!((e.oifbs(&Point::new(&[5.0, 15.0])).unwrap() - 60.0).abs() < 1e-9);
        assert!((e.oifbs(&Point::new(&[20.0, 15.0])).unwrap() - 296.0).abs() < 1e-9);
    }

    #[test]
    fn paper_functional_box_sum_is_236() {
        let mut e = engine();
        for o in paper_objects() {
            e.insert(&o).unwrap();
        }
        let q = Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]);
        assert!((e.query(&q).unwrap() - 236.0).abs() < 1e-9);
        assert_eq!(e.queries_issued(), 4);
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn non_constant_function_fig3b() {
        // f(x, y) = x − 2 over [5,20]×[3,15]; query [15,23]×[7,11]
        // contributes (11−7)·∫₁₅²⁰(x−2)dx = 310; shifted to touch the
        // object's left border, (11−7)·∫₅¹⁰(x−2)dx = 110.
        let obj = FunctionalObject::new(
            Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]),
            Poly::monomial(1.0, &[1, 0]).sub(&Poly::constant(2.0)),
        )
        .unwrap();
        let mut e = engine();
        e.insert(&obj).unwrap();
        let q = Rect::from_bounds(&[(15.0, 23.0), (7.0, 11.0)]);
        assert!((e.query(&q).unwrap() - 310.0).abs() < 1e-9);
        let q_left = Rect::from_bounds(&[(0.0, 10.0), (7.0, 11.0)]);
        assert!((e.query(&q_left).unwrap() - 110.0).abs() < 1e-9);
        // The oracle agrees.
        assert!((obj.contribution(&q) - 310.0).abs() < 1e-9);
        assert!((obj.contribution(&q_left) - 110.0).abs() < 1e-9);
    }

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, dim: usize, side: f64) -> Rect {
        let low = Point::from_fn(dim, |_| rnd(s) * (1.0 - side));
        let high = Point::from_fn(dim, |i| low.get(i) + rnd(s) * side + 1e-3);
        Rect::new(low, high)
    }

    fn rand_poly(s: &mut u64, dim: usize, degree: u8) -> Poly {
        let mut p = Poly::new();
        for _ in 0..3 {
            let mut exps = [0u8; MAX_DIM];
            let mut left = degree;
            for e in exps.iter_mut().take(dim) {
                let pick = (rnd(s) * (left as f64 + 1.0)).floor() as u8;
                *e = pick.min(left);
                left -= *e;
            }
            p.add_assign(&Poly::monomial(rnd(s) * 4.0 - 2.0, &exps[..dim]));
        }
        p
    }

    fn compare_random(dim: usize, degree: u8, n: usize, seed: u64) {
        let mut e = FunctionalBoxSum::new(NaiveDominanceIndex::new(dim)).unwrap();
        let mut objs = Vec::new();
        let mut s = seed;
        for _ in 0..n {
            let o =
                FunctionalObject::new(rand_rect(&mut s, dim, 0.4), rand_poly(&mut s, dim, degree))
                    .unwrap();
            e.insert(&o).unwrap();
            objs.push(o);
        }
        for _ in 0..60 {
            let q = rand_rect(&mut s, dim, 0.6);
            let want: f64 = objs.iter().map(|o| o.contribution(&q)).sum();
            let got = e.query(&q).unwrap();
            let scale = want.abs().max(1.0);
            assert!(
                ((got - want) / scale).abs() < 1e-9,
                "d={dim} k={degree}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn random_constant_functions_2d() {
        compare_random(2, 0, 60, 1);
    }

    #[test]
    fn random_degree2_2d() {
        compare_random(2, 2, 60, 2);
    }

    #[test]
    fn random_degree1_3d() {
        compare_random(3, 1, 40, 3);
    }

    #[test]
    fn random_degree2_1d() {
        compare_random(1, 2, 60, 4);
    }

    #[test]
    fn tuple_size_bound_is_respected() {
        let mut s = 5u64;
        for _ in 0..50 {
            let o =
                FunctionalObject::new(rand_rect(&mut s, 2, 0.4), rand_poly(&mut s, 2, 2)).unwrap();
            for (_, t) in corner_tuples(&o) {
                assert!(t.encoded_size() <= tuple_value_size(2, 2));
            }
        }
    }

    #[test]
    fn functional_object_validation() {
        // A function referencing dimension 2 of a 2-d box is rejected.
        let r = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        assert!(FunctionalObject::new(r, Poly::monomial(1.0, &[0, 0, 1])).is_err());
        assert!(FunctionalObject::new(r, Poly::monomial(1.0, &[1, 1])).is_ok());
    }

    #[test]
    fn zero_function_contributes_nothing() {
        let mut e = engine();
        let o = FunctionalObject::new(Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]), Poly::new())
            .unwrap();
        e.insert(&o).unwrap();
        let q = Rect::from_bounds(&[(0.0, 10.0), (0.0, 10.0)]);
        assert_eq!(e.query(&q).unwrap(), 0.0);
        assert_eq!(o.mass(), 0.0);
    }
}
