//! Multivariate polynomial algebra for the functional box-sum problem (§3).
//!
//! Objects in the functional problem carry a value *function* — a
//! polynomial of constant degree over the extensional dimensions. The
//! reduction of Theorem 3 turns each object into `2^d` corner insertions
//! whose values are themselves polynomials ("coefficient tuples" in the
//! paper), and the index aggregates those tuples with `+`/`−`. A query
//! finally *evaluates* the aggregated tuple at the query corner.
//!
//! A [`Poly`] is a canonical (sorted, combined, zero-free) list of
//! monomial terms `coeff · Π xᵢ^eᵢ`. The degree stays bounded — corner
//! tuples of a degree-`k` function have per-dimension exponents at most
//! `k + 1` — so tuples are constant-size, as the paper requires.

use std::fmt;

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::{corrupt, Result};
use crate::geom::{Point, MAX_DIM};
use crate::value::{AggValue, EncodedWidth};

/// One monomial term: `coeff · Π xᵢ^exps[i]`.
#[derive(Clone, Copy, PartialEq)]
pub struct Term {
    /// Coefficient.
    pub coeff: f64,
    /// Per-dimension exponents; dimensions beyond the ambient space are 0.
    pub exps: [u8; MAX_DIM],
}

impl Term {
    /// Builds a term from a coefficient and explicit exponents.
    pub fn new(coeff: f64, exps: &[u8]) -> Self {
        assert!(exps.len() <= MAX_DIM);
        let mut e = [0u8; MAX_DIM];
        e[..exps.len()].copy_from_slice(exps);
        Self { coeff, exps: e }
    }

    /// Total degree of the term.
    pub fn degree(&self) -> u32 {
        self.exps.iter().map(|&e| e as u32).sum()
    }

    fn eval(&self, p: &Point) -> f64 {
        let mut v = self.coeff;
        for (i, &e) in self.exps.iter().enumerate() {
            if e > 0 {
                debug_assert!(i < p.dim(), "term references dimension beyond the point");
                v *= p.get(i).powi(e as i32);
            }
        }
        v
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.coeff)?;
        for (i, &e) in self.exps.iter().enumerate() {
            match e {
                0 => {}
                1 => write!(f, "·x{i}")?,
                _ => write!(f, "·x{i}^{e}")?,
            }
        }
        Ok(())
    }
}

/// A multivariate polynomial in canonical form.
///
/// Invariants: terms are sorted by exponent vector, like terms are
/// combined, and no term has a zero coefficient. The zero polynomial has
/// no terms.
#[derive(Clone, PartialEq, Default)]
pub struct Poly {
    terms: Vec<Term>,
}

impl Poly {
    /// The zero polynomial.
    pub fn new() -> Self {
        Self { terms: Vec::new() }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: f64) -> Self {
        if c == 0.0 {
            return Self::new();
        }
        Self {
            terms: vec![Term::new(c, &[])],
        }
    }

    /// A single monomial `coeff · Π xᵢ^exps[i]`.
    pub fn monomial(coeff: f64, exps: &[u8]) -> Self {
        if coeff == 0.0 {
            return Self::new();
        }
        Self {
            terms: vec![Term::new(coeff, exps)],
        }
    }

    /// Builds a polynomial from arbitrary terms (canonicalizing).
    pub fn from_terms(terms: Vec<Term>) -> Self {
        let mut p = Self { terms };
        p.normalize();
        p
    }

    /// The canonical term list.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Maximum total degree over all terms (0 for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.iter().map(Term::degree).max().unwrap_or(0)
    }

    fn normalize(&mut self) {
        self.terms.sort_by_key(|t| t.exps);
        let mut out: Vec<Term> = Vec::with_capacity(self.terms.len());
        for t in self.terms.drain(..) {
            match out.last_mut() {
                Some(last) if last.exps == t.exps => last.coeff += t.coeff,
                _ => out.push(t),
            }
        }
        out.retain(|t| t.coeff != 0.0);
        self.terms = out;
    }

    /// Multiplies two polynomials.
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut terms = Vec::with_capacity(self.terms.len() * other.terms.len());
        for a in &self.terms {
            for b in &other.terms {
                let mut exps = [0u8; MAX_DIM];
                for ((e, &ea), &eb) in exps.iter_mut().zip(&a.exps).zip(&b.exps) {
                    *e = ea.checked_add(eb).expect("polynomial degree overflow");
                }
                terms.push(Term {
                    coeff: a.coeff * b.coeff,
                    exps,
                });
            }
        }
        Poly::from_terms(terms)
    }

    /// Multiplies by a scalar in place.
    pub fn scale(&mut self, s: f64) {
        if s == 0.0 {
            self.terms.clear();
            return;
        }
        for t in &mut self.terms {
            t.coeff *= s;
        }
    }

    /// Evaluates the polynomial at a point.
    ///
    /// The point must have at least as many dimensions as the highest
    /// dimension referenced by any term.
    pub fn eval(&self, p: &Point) -> f64 {
        self.terms.iter().map(|t| t.eval(p)).sum()
    }

    /// Definite integral of the polynomial over the axis-aligned box
    /// `[low, high]`, integrating dimensions `0..dim`.
    ///
    /// This is the brute-force oracle used to validate the functional
    /// box-sum reduction: per term,
    /// `∫ c·Πxᵢ^eᵢ = c · Π (hᵢ^{eᵢ+1} − lᵢ^{eᵢ+1}) / (eᵢ+1)`.
    pub fn integral_over(&self, low: &Point, high: &Point) -> f64 {
        debug_assert_eq!(low.dim(), high.dim());
        let dim = low.dim();
        self.terms
            .iter()
            .map(|t| {
                let mut v = t.coeff;
                for i in 0..dim {
                    let e = t.exps[i] as i32;
                    v *= (high.get(i).powi(e + 1) - low.get(i).powi(e + 1)) / (e as f64 + 1.0);
                }
                for &e in &t.exps[dim..] {
                    debug_assert_eq!(e, 0, "term references dimension beyond the box");
                }
                v
            })
            .sum()
    }

    /// Approximate equality up to `tol` on each coefficient, comparing the
    /// difference's terms (useful in floating-point tests).
    pub fn approx_eq(&self, other: &Poly, tol: f64) -> bool {
        let diff = self.clone().sub(other);
        diff.terms.iter().all(|t| t.coeff.abs() <= tol)
    }
}

impl fmt::Debug for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{t:?}")?;
        }
        Ok(())
    }
}

impl AggValue for Poly {
    /// The term count alone; the terms vary.
    const WIDTH: EncodedWidth = EncodedWidth::AtLeast(2);

    fn zero() -> Self {
        Poly::new()
    }

    fn add_assign(&mut self, other: &Self) {
        self.terms.extend_from_slice(&other.terms);
        self.normalize();
    }

    fn sub_assign(&mut self, other: &Self) {
        self.terms.extend(other.terms.iter().map(|t| Term {
            coeff: -t.coeff,
            exps: t.exps,
        }));
        self.normalize();
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn is_finite(&self) -> bool {
        self.terms.iter().all(|t| t.coeff.is_finite())
    }

    fn encode(&self, w: &mut ByteWriter) {
        debug_assert!(self.terms.len() <= u16::MAX as usize);
        w.put_u16(self.terms.len() as u16);
        for t in &self.terms {
            w.put_f64(t.coeff);
            w.put_bytes(&t.exps);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.get_u16()? as usize;
        // `n` is input: refuse a count the bytes cannot back before
        // reserving room for it.
        r.expect_records(n, 8 + MAX_DIM)?;
        let mut terms = Vec::with_capacity(n);
        for _ in 0..n {
            let coeff = r.get_f64()?;
            let raw = r.get_bytes(MAX_DIM)?;
            let mut exps = [0u8; MAX_DIM];
            exps.copy_from_slice(raw);
            terms.push(Term { coeff, exps });
        }
        // Encoded polynomials are canonical; re-normalizing guards against
        // corrupt input while keeping valid input unchanged.
        let p = Poly::from_terms(terms);
        if p.terms.len() != n {
            return Err(corrupt("non-canonical polynomial encoding"));
        }
        Ok(p)
    }

    fn encoded_size(&self) -> usize {
        2 + self.terms.len() * (8 + MAX_DIM)
    }
}

/// Reusable Horner-scheme evaluator over a dense coefficient grid.
///
/// [`Poly::eval`] walks the sparse term list and calls `powi` per term and
/// dimension. For the functional box-sum query path — which evaluates one
/// aggregated corner tuple per query corner — it is faster to scatter the
/// terms into a dense per-dimension coefficient grid once and then collapse
/// the grid with nested Horner steps (one fused multiply-add chain per
/// dimension, no `powi`). The grid buffer is owned by the evaluator and
/// reused across calls, so the hot path performs no allocation after
/// warm-up.
///
/// Horner association differs from the sparse sum, so results are *not*
/// bit-identical to [`Poly::eval`] on arbitrary floats; on dyadic-rational
/// inputs (integer coordinates, small dyadic coefficients) both are exact
/// and therefore equal. The microbench and the layout-equivalence suite
/// pin that equality.
#[derive(Debug, Default)]
pub struct HornerEval {
    grid: Vec<f64>,
}

impl HornerEval {
    /// A fresh evaluator with an empty scratch grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `p` at `at` by Horner's rule over the dense grid.
    ///
    /// Equivalent to [`Poly::eval`] up to floating-point association.
    // lint: hot-path
    pub fn eval(&mut self, p: &Poly, at: &Point) -> f64 {
        if p.terms.is_empty() {
            return 0.0;
        }
        let dim = at.dim();
        // Per-dimension grid extents: max exponent + 1.
        let mut sizes = [1usize; MAX_DIM];
        for t in &p.terms {
            for (i, size) in sizes[..dim].iter_mut().enumerate() {
                *size = (*size).max(t.exps[i] as usize + 1);
            }
            for &e in &t.exps[dim..] {
                debug_assert_eq!(e, 0, "term references dimension beyond the point");
            }
        }
        let total: usize = sizes[..dim].iter().product();
        self.grid.clear();
        self.grid.resize(total, 0.0);
        // Scatter: dimension 0 is the fastest-varying axis.
        for t in &p.terms {
            let mut idx = 0;
            let mut stride = 1;
            for (i, &size) in sizes[..dim].iter().enumerate() {
                idx += t.exps[i] as usize * stride;
                stride *= size;
            }
            self.grid[idx] += t.coeff;
        }
        // Collapse one dimension at a time: each block of `sizes[i]`
        // consecutive cells is a univariate polynomial in x_i.
        let mut cells = total;
        for (i, &size) in sizes[..dim].iter().enumerate() {
            let x = at.get(i);
            let blocks = cells / size;
            for b in 0..blocks {
                let base = b * size;
                let mut acc = self.grid[base + size - 1];
                for k in (0..size - 1).rev() {
                    acc = acc * x + self.grid[base + k];
                }
                self.grid[b] = acc;
            }
            cells = blocks;
        }
        self.grid[0]
    }
}

/// Upper bound on the encoded size of any polynomial over `dim` dimensions
/// with per-dimension exponent at most `max_exp`.
///
/// Used by tree fanout computations: corner tuples of a degree-`k` value
/// function have per-dimension exponent at most `k + 1`, so their encoded
/// size never exceeds `max_poly_encoded_size(d, k + 1)`.
pub fn max_poly_encoded_size(dim: usize, max_exp: u32) -> usize {
    let monomials = ((max_exp as usize) + 1).pow(dim as u32);
    2 + monomials * (8 + MAX_DIM)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(cs: &[f64]) -> Point {
        Point::new(cs)
    }

    #[test]
    fn constant_and_zero() {
        assert!(Poly::new().is_zero());
        assert!(Poly::constant(0.0).is_zero());
        let c = Poly::constant(4.0);
        assert_eq!(c.eval(&pt(&[100.0, -3.0])), 4.0);
        assert_eq!(c.degree(), 0);
    }

    #[test]
    fn add_sub_combine_like_terms() {
        let a = Poly::monomial(2.0, &[1, 0]); // 2x
        let b = Poly::monomial(3.0, &[1, 0]); // 3x
        let s = a.clone().add(&b);
        assert_eq!(s.num_terms(), 1);
        assert_eq!(s.eval(&pt(&[2.0, 0.0])), 10.0);
        let d = s.sub(&Poly::monomial(5.0, &[1, 0]));
        assert!(d.is_zero(), "exact cancellation must yield the zero poly");
    }

    #[test]
    fn mul_expands_products() {
        // (x − 2)(y − 10) · 4 = 4xy − 40x − 8y + 80  (paper §3 example, c1)
        let fx = Poly::monomial(1.0, &[1, 0]).sub(&Poly::constant(2.0));
        let fy = Poly::monomial(1.0, &[0, 1]).sub(&Poly::constant(10.0));
        let mut p = fx.mul(&fy);
        p.scale(4.0);
        assert_eq!(p.num_terms(), 4);
        // Evaluate at q1 = (5, 15): paper computes 60.
        assert_eq!(p.eval(&pt(&[5.0, 15.0])), 60.0);
    }

    #[test]
    fn paper_example_corner_tuples_aggregate_to_296() {
        // §3: tuples at c1..c4 aggregate to ⟨0, 18, 52, −844⟩ and evaluate
        // to 296 at q2 = (20, 15).
        let tuple = |a: f64, b: f64, c: f64, d: f64| {
            Poly::from_terms(vec![
                Term::new(a, &[1, 1]),
                Term::new(b, &[1, 0]),
                Term::new(c, &[0, 1]),
                Term::new(d, &[]),
            ])
        };
        let c1 = tuple(4.0, -40.0, -8.0, 80.0);
        let c2 = tuple(-4.0, 40.0, 60.0, -600.0);
        let c3 = tuple(3.0, -12.0, -54.0, 216.0);
        let c4 = tuple(-3.0, 30.0, 54.0, -540.0);
        let agg = c1.add(&c2).add(&c3).add(&c4);
        let expect = tuple(0.0, 18.0, 52.0, -844.0);
        assert!(agg.approx_eq(&expect, 1e-9), "got {agg:?}");
        assert_eq!(agg.eval(&pt(&[20.0, 15.0])), 296.0);
    }

    #[test]
    fn integral_over_matches_hand_worked_values() {
        // Paper: (11−7)·∫₁₅²⁰(x−2)dx = 4·77.5 = 310.
        let f = Poly::monomial(1.0, &[1]).sub(&Poly::constant(2.0));
        assert_eq!(4.0 * f.integral_over(&pt(&[15.0]), &pt(&[20.0])), 310.0);
        // ∫₁²∫₀³ (3x²y + 2) dy dx = 7·(9/2) + 2·1·3 = 37.5.
        let f = Poly::from_terms(vec![Term::new(3.0, &[2, 1]), Term::new(2.0, &[])]);
        let direct = f.integral_over(&pt(&[1.0, 0.0]), &pt(&[2.0, 3.0]));
        assert!((direct - 37.5).abs() < 1e-9, "got {direct}");
    }

    #[test]
    fn scale_by_zero_empties() {
        let mut f = Poly::monomial(1.0, &[1]);
        f.scale(0.0);
        assert!(f.is_zero());
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = Poly::from_terms(vec![
            Term::new(1.5, &[1, 2]),
            Term::new(-2.0, &[0, 0, 3]),
            Term::new(7.0, &[]),
        ]);
        let mut w = ByteWriter::new();
        f.encode(&mut w);
        assert_eq!(w.len(), f.encoded_size());
        let bytes = w.into_vec();
        let g = Poly::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn a_term_count_the_bytes_cannot_back_is_refused_before_reserving() {
        // The parent reserved room for 65,535 terms (1 MB) and only then
        // met the end of the bytes.
        let mut w = ByteWriter::new();
        w.put_u16(u16::MAX);
        w.put_bytes(&[0; 16]);
        match Poly::decode(&mut ByteReader::new(w.as_slice())) {
            Err(crate::error::Error::Corrupt(msg)) => {
                assert!(msg.contains("record count 65535"), "{msg}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = Poly::monomial(1.0, &[1]);
        let mut w = ByteWriter::new();
        f.encode(&mut w);
        let bytes = w.into_vec();
        assert!(Poly::decode(&mut ByteReader::new(&bytes[..bytes.len() - 1])).is_err());
    }

    #[test]
    fn max_size_bound_holds_for_degree2_2d_tuples() {
        // Worst case degree-2 value function in 2-d: corner tuples have
        // per-dim exponent ≤ 3 → ≤ 16 monomials.
        let bound = max_poly_encoded_size(2, 3);
        let mut dense = Vec::new();
        for ex in 0..=3u8 {
            for ey in 0..=3u8 {
                dense.push(Term::new(1.0, &[ex, ey]));
            }
        }
        let p = Poly::from_terms(dense);
        assert!(p.encoded_size() <= bound);
    }

    #[test]
    fn horner_matches_sparse_eval_exactly_on_dyadic_inputs() {
        // Integer coordinates and dyadic coefficients keep every
        // intermediate exact, so Horner and the sparse sum agree bitwise.
        let p = Poly::from_terms(vec![
            Term::new(4.0, &[1, 1]),
            Term::new(-40.0, &[1, 0]),
            Term::new(-8.0, &[0, 1]),
            Term::new(80.0, &[]),
            Term::new(0.25, &[3, 2]),
        ]);
        let mut h = HornerEval::new();
        for q in [
            pt(&[5.0, 15.0]),
            pt(&[2.0, 10.0]),
            pt(&[0.0, 0.0]),
            pt(&[-4.0, 8.0]),
        ] {
            let a = p.eval(&q);
            let b = h.eval(&p, &q);
            assert_eq!(a.to_bits(), b.to_bits(), "at {q:?}: {a} vs {b}");
        }
        assert_eq!(h.eval(&Poly::new(), &pt(&[1.0])), 0.0);
    }

    #[test]
    fn horner_approximates_sparse_eval_on_general_floats() {
        let p = Poly::from_terms(vec![
            Term::new(1.37, &[2, 1]),
            Term::new(-0.61, &[0, 3]),
            Term::new(2.09, &[1, 0]),
        ]);
        let mut h = HornerEval::new();
        let q = pt(&[1.7, -2.3]);
        let a = p.eval(&q);
        let b = h.eval(&p, &q);
        assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0));
    }

    #[test]
    fn approx_eq_tolerates_float_noise() {
        let a = Poly::monomial(1.0, &[1]);
        let b = Poly::monomial(1.0 + 1e-12, &[1]);
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&Poly::monomial(2.0, &[1]), 1e-9));
    }
}
