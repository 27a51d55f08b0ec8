//! The abstraction over aggregated quantities.
//!
//! The simple box-sum problem aggregates plain numbers; the functional
//! box-sum problem aggregates *polynomial coefficient tuples* (§3). Both
//! only ever need an abelian group: addition, subtraction and a zero —
//! the inclusion–exclusion reductions of §2/§3 combine partial sums with
//! `+` and `−` exclusively. Every index structure in the workspace is
//! generic over this trait, so the same tree code serves both problems.

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::Result;

/// An aggregatable value: an element of an abelian group with a serialized
/// form of bounded size.
///
/// `Send + Sync` are required so that indexes over any `AggValue` can be
/// queried from many threads at once and bulk-loaded one corner per
/// thread.
pub trait AggValue: Clone + std::fmt::Debug + PartialEq + Send + Sync + 'static {
    /// What a page decoder may assume about [`encode`](Self::encode)'s
    /// output before it has read a byte of it.
    const WIDTH: EncodedWidth;

    /// The group identity.
    fn zero() -> Self;

    /// `self += other`.
    fn add_assign(&mut self, other: &Self);

    /// `self -= other`.
    fn sub_assign(&mut self, other: &Self);

    /// Whether this value equals the identity.
    fn is_zero(&self) -> bool;

    /// Whether every number in the value is finite (no NaN, no `±∞`).
    /// Indexes refuse a value that is not: see
    /// [`check_insert`](crate::traits::check_insert).
    fn is_finite(&self) -> bool;

    /// Serializes the value. The encoding must be self-delimiting.
    fn encode(&self, w: &mut ByteWriter);

    /// Deserializes a value previously produced by [`encode`](Self::encode).
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;

    /// Size in bytes [`encode`](Self::encode) will produce for this value.
    fn encoded_size(&self) -> usize;

    /// `self + other`, by value.
    fn add(mut self, other: &Self) -> Self {
        self.add_assign(other);
        self
    }

    /// `self - other`, by value.
    fn sub(mut self, other: &Self) -> Self {
        self.sub_assign(other);
        self
    }
}

/// The encoded size of a value type, as far as it is known without
/// decoding: what lets a slab decoder take a whole run of entries with
/// one bounds check ([`Fixed`](Self::Fixed)), and what lets any node
/// decoder refuse a record count the page cannot hold before it
/// allocates for it ([`min`](Self::min)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodedWidth {
    /// Every value encodes to exactly this many bytes.
    Fixed(usize),
    /// Sizes vary by value; none is shorter than this.
    AtLeast(usize),
}

impl EncodedWidth {
    /// The fewest bytes one encoded value occupies.
    pub const fn min(self) -> usize {
        match self {
            EncodedWidth::Fixed(n) | EncodedWidth::AtLeast(n) => n,
        }
    }

    /// The width of one value of `self` followed by one of `next`.
    const fn then(self, next: EncodedWidth) -> EncodedWidth {
        match (self, next) {
            (EncodedWidth::Fixed(a), EncodedWidth::Fixed(b)) => EncodedWidth::Fixed(a + b),
            _ => EncodedWidth::AtLeast(self.min() + next.min()),
        }
    }
}

impl AggValue for f64 {
    const WIDTH: EncodedWidth = EncodedWidth::Fixed(8);

    fn zero() -> Self {
        0.0
    }

    fn add_assign(&mut self, other: &Self) {
        *self += other;
    }

    fn sub_assign(&mut self, other: &Self) {
        *self -= other;
    }

    fn is_zero(&self) -> bool {
        *self == 0.0
    }

    fn is_finite(&self) -> bool {
        f64::is_finite(*self)
    }

    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }

    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_f64()
    }

    fn encoded_size(&self) -> usize {
        8
    }
}

/// The trivial group: a value that carries nothing and encodes to no
/// bytes, so a pair `(A, ())` is `A` on the page.
impl AggValue for () {
    const WIDTH: EncodedWidth = EncodedWidth::Fixed(0);

    fn zero() -> Self {}

    fn add_assign(&mut self, _other: &Self) {}

    fn sub_assign(&mut self, _other: &Self) {}

    fn is_zero(&self) -> bool {
        true
    }

    fn is_finite(&self) -> bool {
        true
    }

    fn encode(&self, _w: &mut ByteWriter) {}

    fn decode(_r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(())
    }

    fn encoded_size(&self) -> usize {
        0
    }
}

/// The direct product of two groups, component-wise; encoded as the
/// first value followed by the second.
impl<A: AggValue, B: AggValue> AggValue for (A, B) {
    const WIDTH: EncodedWidth = A::WIDTH.then(B::WIDTH);

    fn zero() -> Self {
        (A::zero(), B::zero())
    }

    fn add_assign(&mut self, other: &Self) {
        self.0.add_assign(&other.0);
        self.1.add_assign(&other.1);
    }

    fn sub_assign(&mut self, other: &Self) {
        self.0.sub_assign(&other.0);
        self.1.sub_assign(&other.1);
    }

    fn is_zero(&self) -> bool {
        self.0.is_zero() && self.1.is_zero()
    }

    fn is_finite(&self) -> bool {
        self.0.is_finite() && self.1.is_finite()
    }

    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }

    fn encoded_size(&self) -> usize {
        self.0.encoded_size() + self.1.encoded_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;

    #[test]
    fn f64_group_laws() {
        let mut a = 1.5f64;
        a.add_assign(&2.5);
        assert_eq!(a, 4.0);
        a.sub_assign(&4.0);
        assert!(a.is_zero());
        assert!(f64::zero().is_zero());
        assert!(AggValue::is_finite(&-1e300));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!AggValue::is_finite(&v), "{v}");
        }
        assert_eq!(3.0f64.add(&4.0), 7.0);
        assert_eq!(3.0f64.sub(&4.0), -1.0);
    }

    #[test]
    fn f64_round_trip() {
        let mut w = ByteWriter::new();
        let v = -17.25f64;
        v.encode(&mut w);
        assert_eq!(w.len(), v.encoded_size());
        let bytes = w.into_vec();
        assert_eq!(f64::decode(&mut ByteReader::new(&bytes)).unwrap(), v);
    }

    #[test]
    fn pair_and_unit_round_trip_and_add_component_wise() {
        let v = (2.5f64, ());
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        assert_eq!(w.as_slice(), 2.5f64.to_le_bytes(), "(f64, ()) is an f64");
        assert_eq!(<(f64, ())>::WIDTH, EncodedWidth::Fixed(8));
        assert_eq!(
            <(f64, ())>::decode(&mut ByteReader::new(w.as_slice())).unwrap(),
            v
        );

        let f = Poly::monomial(3.0, &[1, 0]);
        let v = (1.5f64, f.clone());
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        assert_eq!(w.len(), v.encoded_size());
        let mut bytes = 1.5f64.to_le_bytes().to_vec();
        let mut fw = ByteWriter::new();
        f.encode(&mut fw);
        bytes.extend_from_slice(fw.as_slice());
        assert_eq!(w.as_slice(), bytes, "the mass, then the function");
        assert_eq!(
            <(f64, Poly)>::WIDTH,
            EncodedWidth::AtLeast(8 + Poly::WIDTH.min())
        );
        let back = <(f64, Poly)>::decode(&mut ByteReader::new(w.as_slice())).unwrap();
        assert_eq!(back, v);

        let sum = v.clone().add(&(0.5, f.clone()));
        assert_eq!(sum, (2.0, f.clone().add(&f)));
        assert!(sum.clone().sub(&sum).is_zero());
        assert!(!(f64::NAN, ()).is_finite());
        assert!(<(f64, ())>::zero().is_zero());
    }
}
