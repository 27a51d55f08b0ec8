//! Struct-of-arrays entry storage for decoded index nodes.
//!
//! Leaf and border entries used to be decoded into `Vec<(Point, V)>` — an
//! array-of-structs whose 80-byte stride leaves the autovectorizer nothing
//! to chew on. An [`EntrySlab`] stores the same entries as one contiguous
//! `Vec<f64>` *column per dimension* plus a values column, so the hot
//! dominance scans (`coord[i] ≤ q[i]` across a column) compile to
//! branch-light vectorized passes.
//!
//! The on-disk codec is **byte-identical** to the tuple layout: entries are
//! still serialized as `coord₀ … coord_{d−1} value` per entry, in entry
//! order ([`EntrySlab::encode_entries`] / [`EntrySlab::decode_entries`]).
//! Only the decode *target* changed, so page checksums, the WAL and the
//! decoded-node cache are untouched.
//!
//! The accumulate-into scan API ([`EntrySlab::sum_dominated_into`])
//! preserves the exact per-entry `add_assign` order of the scalar loops it
//! replaced, so aggregates are bit-identical to the old layout; that
//! scalar loop is kept as
//! [`EntrySlab::sum_dominated_from_into_reference`] for the equivalence
//! tests and the inner-loop benchmark to compare against.

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::Result;
use crate::geom::{Point, MAX_DIM};
use crate::value::AggValue;

/// Chunk width of the vectorized dominance scan: the per-dimension column
/// passes mask `CHUNK` entries at a time through a stack bitmap.
const CHUNK: usize = 64;

/// Struct-of-arrays storage for `(Point, V)` entries of one fixed
/// dimensionality.
///
/// Coordinates live in `dim` contiguous `f64` columns; values live in a
/// parallel column. Entry order is the order of insertion (the same order
/// the tuple vector kept), and every aggregate walk visits entries in that
/// order so floating-point results match the old layout bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct EntrySlab<V> {
    dim: usize,
    cols: Vec<Vec<f64>>,
    values: Vec<V>,
}

impl<V: AggValue> EntrySlab<V> {
    /// An empty slab for `dim`-dimensional points.
    ///
    /// `dim == 0` is permitted for structurally-empty border lists (a
    /// 1-dimensional tree projects its borders to zero dimensions but
    /// never stores entries in them).
    pub fn new(dim: usize) -> Self {
        assert!(dim <= MAX_DIM, "slab dimension {dim} out of range");
        Self {
            dim,
            cols: vec![Vec::new(); dim],
            values: Vec::new(),
        }
    }

    /// An empty slab with room for `cap` entries per column.
    pub fn with_capacity(dim: usize, cap: usize) -> Self {
        assert!(dim <= MAX_DIM, "slab dimension {dim} out of range");
        Self {
            dim,
            // `vec![v; n]` clones, and a `Vec` clone drops its capacity.
            cols: (0..dim).map(|_| Vec::with_capacity(cap)).collect(),
            values: Vec::with_capacity(cap),
        }
    }

    /// Builds a slab from an owned entry vector, preserving order.
    pub fn from_entries(dim: usize, entries: Vec<(Point, V)>) -> Self {
        let mut s = Self::with_capacity(dim, entries.len());
        for (p, v) in entries {
            s.push(&p, v);
        }
        s
    }

    /// Builds a slab from a borrowed entry slice, preserving order.
    pub fn from_slice(dim: usize, entries: &[(Point, V)]) -> Self {
        let mut s = Self::with_capacity(dim, entries.len());
        for (p, v) in entries {
            s.push(p, v.clone());
        }
        s
    }

    /// Dimensionality of the stored points.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the slab holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends an entry.
    pub fn push(&mut self, p: &Point, v: V) {
        debug_assert_eq!(p.dim(), self.dim, "point dimension mismatch");
        for (d, col) in self.cols.iter_mut().enumerate() {
            col.push(p.get(d));
        }
        self.values.push(v);
    }

    /// Inserts an entry at position `i`, shifting later entries right.
    pub fn insert_at(&mut self, i: usize, p: &Point, v: V) {
        debug_assert_eq!(p.dim(), self.dim, "point dimension mismatch");
        for (d, col) in self.cols.iter_mut().enumerate() {
            col.insert(i, p.get(d));
        }
        self.values.insert(i, v);
    }

    /// Materializes the point of entry `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::from_fn(self.dim, |d| self.cols[d][i])
    }

    /// Coordinate of entry `i` in dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize, i: usize) -> f64 {
        self.cols[d][i]
    }

    /// The whole coordinate column of dimension `d`.
    #[inline]
    pub fn col(&self, d: usize) -> &[f64] {
        &self.cols[d]
    }

    /// Value of entry `i`.
    #[inline]
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// Mutable value of entry `i`.
    #[inline]
    pub fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.values[i]
    }

    /// The values column.
    #[inline]
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// Iterates entries in order, materializing each point.
    ///
    /// Cold-path convenience (enumeration, consistency checks); hot scans
    /// use [`sum_dominated_into`](Self::sum_dominated_into) instead.
    pub fn iter(&self) -> impl Iterator<Item = (Point, &V)> + '_ {
        (0..self.len()).map(move |i| (self.point(i), &self.values[i]))
    }

    /// Copies the entries back into tuple form (cold paths only).
    pub fn to_entries(&self) -> Vec<(Point, V)> {
        self.iter().map(|(p, v)| (p, v.clone())).collect()
    }

    /// Consumes the slab into tuple form (cold paths only).
    pub fn into_entries(self) -> Vec<(Point, V)> {
        (0..self.len())
            .map(|i| (self.point(i), self.values[i].clone()))
            .collect()
    }

    /// Index of the entry whose point equals `p` exactly, if any.
    pub fn find_exact(&self, p: &Point) -> Option<usize> {
        debug_assert_eq!(p.dim(), self.dim);
        (0..self.len()).find(|&i| (0..self.dim).all(|d| self.cols[d][i] == p.get(d)))
    }

    /// Splits the slab at `at`, returning the tail `[at..]`.
    pub fn split_off(&mut self, at: usize) -> Self {
        Self {
            dim: self.dim,
            cols: self.cols.iter_mut().map(|c| c.split_off(at)).collect(),
            values: self.values.split_off(at),
        }
    }

    /// For entries sorted ascending on dimension `d`: the number of
    /// leading entries with `coord ≤ key` (cf. `slice::partition_point`).
    pub fn partition_point_le(&self, d: usize, key: f64) -> usize {
        self.cols[d].partition_point(|&c| c <= key)
    }

    /// Stably sorts the entry range `[start, end)` by the coordinate in
    /// dimension `d` (`total_cmp` order), permuting every column and the
    /// values in lockstep. Equal keys keep their relative order, matching
    /// `slice::sort_by` on the tuple layout exactly.
    pub fn sort_range_by_dim(&mut self, d: usize, start: usize, end: usize) {
        let mut perm: Vec<usize> = (start..end).collect();
        perm.sort_by(|&a, &b| self.cols[d][a].total_cmp(&self.cols[d][b]));
        let mut scratch: Vec<f64> = Vec::with_capacity(end - start);
        for col in self.cols.iter_mut() {
            scratch.clear();
            scratch.extend(perm.iter().map(|&i| col[i]));
            col[start..end].copy_from_slice(&scratch);
        }
        let vals: Vec<V> = perm.iter().map(|&i| self.values[i].clone()).collect();
        for (slot, v) in self.values[start..end].iter_mut().zip(vals) {
            *slot = v;
        }
    }

    /// A column-wise copy of the entry range `[start, end)` as a fresh
    /// slab — no per-entry `Point` materialization.
    pub fn sub_slab(&self, start: usize, end: usize) -> Self {
        Self {
            dim: self.dim,
            cols: self.cols.iter().map(|c| c[start..end].to_vec()).collect(),
            values: self.values[start..end].to_vec(),
        }
    }

    /// Accumulates the values of every entry dominated by `q`
    /// (`coordᵈ ≤ q[d]` in all dimensions) into `acc`, in entry order.
    ///
    /// The accumulate-into shape (rather than returning a fresh sum)
    /// preserves the caller's `add_assign` order, keeping floating-point
    /// aggregates bit-identical to the scalar loop this replaces.
    #[inline]
    pub fn sum_dominated_into(&self, q: &Point, acc: &mut V) {
        self.sum_dominated_from_into(0, q, acc);
    }

    /// [`sum_dominated_into`](Self::sum_dominated_into) restricted to
    /// dimensions `from..dim` (the ECDF-B-tree scans a suffix of the
    /// dimensions at each level).
    // lint: hot-path
    pub fn sum_dominated_from_into(&self, from: usize, q: &Point, acc: &mut V) {
        debug_assert_eq!(q.dim(), self.dim);
        debug_assert!(from <= self.dim);
        let n = self.len();
        // Vectorized path: per-dimension column passes AND a stack mask
        // over CHUNK entries at a time, then a masked accumulate in entry
        // order. Same comparisons, same add order → bit-identical.
        let mut mask = [true; CHUNK];
        let mut start = 0;
        while start < n {
            let len = (n - start).min(CHUNK);
            mask[..len].fill(true);
            for d in from..self.dim {
                let qd = q.get(d);
                let col = &self.cols[d][start..start + len];
                for (m, &c) in mask[..len].iter_mut().zip(col) {
                    *m &= c <= qd;
                }
            }
            for (i, &m) in mask[..len].iter().enumerate() {
                if m {
                    acc.add_assign(&self.values[start + i]);
                }
            }
            start += len;
        }
    }

    /// The scalar loop [`sum_dominated_from_into`] replaced — per-entry
    /// early-exit dominance test, exactly the shape of the old tuple
    /// scan. Nothing in the product calls it; it is the reference the
    /// equivalence tests hold the vectorized scan to, bit for bit.
    ///
    /// [`sum_dominated_from_into`]: Self::sum_dominated_from_into
    pub fn sum_dominated_from_into_reference(&self, from: usize, q: &Point, acc: &mut V) {
        for i in 0..self.len() {
            if (from..self.dim).all(|d| self.cols[d][i] <= q.get(d)) {
                acc.add_assign(&self.values[i]);
            }
        }
    }

    /// Serializes all entries as `coord₀ … coord_{d−1} value`, in entry
    /// order — byte-identical to encoding `(Point, V)` tuples.
    pub fn encode_entries(&self, w: &mut ByteWriter) {
        for i in 0..self.len() {
            for col in &self.cols {
                w.put_f64(col[i]);
            }
            self.values[i].encode(w);
        }
    }

    /// Decodes `count` entries straight into slab columns — the same byte
    /// stream [`encode_entries`](Self::encode_entries) produces, with no
    /// intermediate tuple vector.
    pub fn decode_entries(r: &mut ByteReader<'_>, dim: usize, count: usize) -> Result<Self> {
        assert!(dim <= MAX_DIM, "slab dimension {dim} out of range");
        let mut s = Self::with_capacity(dim, count);
        for _ in 0..count {
            for col in s.cols.iter_mut() {
                col.push(r.get_f64()?);
            }
            s.values.push(V::decode(r)?);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(cs: &[f64]) -> Point {
        Point::new(cs)
    }

    fn sample() -> EntrySlab<f64> {
        let mut s = EntrySlab::new(2);
        s.push(&p(&[1.0, 4.0]), 1.0);
        s.push(&p(&[2.0, 2.0]), 2.0);
        s.push(&p(&[3.0, 1.0]), 4.0);
        s
    }

    #[test]
    fn push_point_value_round_trip() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.point(1), p(&[2.0, 2.0]));
        assert_eq!(*s.value(2), 4.0);
        assert_eq!(s.col(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.coord(1, 0), 4.0);
        let ts = s.to_entries();
        assert_eq!(ts[0], (p(&[1.0, 4.0]), 1.0));
        assert_eq!(EntrySlab::from_slice(2, &ts), s);
        assert_eq!(EntrySlab::from_entries(2, ts.clone()), s);
        assert_eq!(s.clone().into_entries(), ts);
    }

    #[test]
    fn dominance_scan_matches_scalar_loop() {
        let s = sample();
        for q in [p(&[2.5, 3.0]), p(&[0.0, 0.0]), p(&[10.0, 10.0])] {
            let mut want = 0.0f64;
            for (pt, v) in s.iter() {
                if pt.dominated_by(&q) {
                    want += v;
                }
            }
            let mut got = 0.0f64;
            s.sum_dominated_into(&q, &mut got);
            assert_eq!(got.to_bits(), want.to_bits(), "q = {q:?}");
            let mut refv = 0.0f64;
            s.sum_dominated_from_into_reference(0, &q, &mut refv);
            assert_eq!(refv.to_bits(), want.to_bits(), "reference, q = {q:?}");
        }
    }

    #[test]
    fn chunked_scan_crosses_chunk_boundaries() {
        // > CHUNK entries so the mask loop runs multiple chunks, with a
        // ragged tail.
        let n = CHUNK * 2 + 7;
        let mut s = EntrySlab::new(1);
        for i in 0..n {
            s.push(&p(&[i as f64]), 1.0);
        }
        let mut got = 0.0f64;
        s.sum_dominated_into(&p(&[(CHUNK + 3) as f64]), &mut got);
        assert_eq!(got, (CHUNK + 4) as f64);
    }

    #[test]
    fn suffix_scan_ignores_leading_dims() {
        let mut s = EntrySlab::new(2);
        s.push(&p(&[100.0, 1.0]), 1.0);
        s.push(&p(&[100.0, 9.0]), 2.0);
        let mut got = 0.0f64;
        s.sum_dominated_from_into(1, &p(&[0.0, 5.0]), &mut got);
        assert_eq!(got, 1.0, "dimension 0 must not participate");
    }

    #[test]
    fn codec_is_byte_identical_to_tuple_layout() {
        let s = sample();
        let mut w = ByteWriter::new();
        s.encode_entries(&mut w);
        let mut ref_w = ByteWriter::new();
        for (pt, v) in s.iter() {
            pt.encode(&mut ref_w);
            v.encode(&mut ref_w);
        }
        assert_eq!(w.as_slice(), ref_w.as_slice());
        let bytes = w.into_vec();
        let d = EntrySlab::<f64>::decode_entries(&mut ByteReader::new(&bytes), 2, 3).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn find_insert_split_partition() {
        let mut s = sample();
        assert_eq!(s.find_exact(&p(&[2.0, 2.0])), Some(1));
        assert_eq!(s.find_exact(&p(&[2.0, 2.5])), None);
        s.insert_at(1, &p(&[1.5, 3.0]), 8.0);
        assert_eq!(s.point(1), p(&[1.5, 3.0]));
        assert_eq!(s.len(), 4);
        assert_eq!(s.partition_point_le(0, 1.5), 2);
        let tail = s.split_off(2);
        assert_eq!(s.len(), 2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.point(0), p(&[2.0, 2.0]));
    }

    #[test]
    fn range_sort_matches_stable_tuple_sort() {
        let mut s = EntrySlab::new(2);
        // Duplicate keys in dimension 1 to exercise stability.
        for (i, k) in [5.0, 1.0, 3.0, 1.0, 2.0, 3.0].iter().enumerate() {
            s.push(&p(&[i as f64, *k]), i as f64);
        }
        let mut want = s.to_entries();
        want[1..5].sort_by(|a, b| a.0.get(1).total_cmp(&b.0.get(1)));
        s.sort_range_by_dim(1, 1, 5);
        assert_eq!(s.to_entries(), want);

        let sub = s.sub_slab(1, 4);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.to_entries(), s.to_entries()[1..4].to_vec());
    }

    #[test]
    fn zero_dim_slab_is_inert() {
        let s = EntrySlab::<f64>::new(0);
        assert!(s.is_empty());
        let mut w = ByteWriter::new();
        s.encode_entries(&mut w);
        assert!(w.is_empty());
    }
}
