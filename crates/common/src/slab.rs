//! Struct-of-arrays entry storage for decoded index nodes.
//!
//! Leaf and border entries used to be decoded into `Vec<(Point, V)>` — an
//! array-of-structs whose 80-byte stride leaves the autovectorizer nothing
//! to chew on. An [`EntrySlab`] stores the same entries as one contiguous
//! `f64` *column per dimension* plus a values column, so the hot
//! dominance scans (`coord[i] ≤ q[i]` across a column) compile to
//! branch-light vectorized passes.
//!
//! **One coordinate buffer.** All `dim` columns live in a single
//! `Vec<f64>` of `dim × cap` words, column `d` at
//! `coords[d·cap .. d·cap + len]`: a slab is two allocations at any
//! dimension (coordinates, values), not `dim + 1` behind a `Vec` of
//! `Vec`s. Words past `len` in a column are padding nobody reads —
//! [`col`](EntrySlab::col) slices to `len`, and `==` compares logical
//! columns, so two slabs with the same entries are equal whatever their
//! capacities.
//!
//! **Column passes.** The on-disk codec is **byte-identical** to the
//! tuple layout: entries are serialized as `coord₀ … coord_{d−1} value`
//! per entry, in entry order ([`EntrySlab::encode_entries`] /
//! [`EntrySlab::decode_entries`]). A cold read decodes one slab per
//! page, so the decoder is part of what a query costs: when the value
//! type has a fixed encoded width ([`AggValue::WIDTH`]) it takes the
//! whole run of rows with **one** bounds check and fills each column in
//! its own `chunks_exact` pass over them; variable-width values take
//! each row's coordinates in one check and decode the value after it.
//! Either way nothing is allocated until the bytes that must fill it are
//! known to be there, and a short slab is the same typed `Corrupt` error
//! it always was. The per-word loops these replaced (one
//! `Result`-returning read and one `push` per `f64`) survive only under
//! `#[cfg(test)]`, as the oracle the differential test holds the
//! kernels to — same slabs, same bytes, same errors at every truncation.
//!
//! The accumulate-into scan API ([`EntrySlab::sum_dominated_into`])
//! preserves the exact per-entry `add_assign` order of the scalar loops it
//! replaced, so aggregates are bit-identical to the old layout; that
//! scalar loop is kept as
//! [`EntrySlab::sum_dominated_from_into_reference`] for the equivalence
//! tests to compare against.
//!
//! **Sorted slabs stop early.** A slab knows, exactly, whether its
//! column 0 ascends — every mutation keeps the flag and a decode
//! recomputes it — and a scan from dimension 0 of a sorted slab stops
//! at the first chunk whose first key is past the query's. Bulk-loaded
//! leaves are sorted so; the skipped entries are not dominated, so the
//! sum is the same to the bit.
//!
//! **A sorted 1-d slab answers from running sums.** In one dimension
//! the entries a sorted slab dominates are a prefix, so the scan's sum
//! from zero is, at every chunk start, a running sum of the values
//! before it. [`EntrySlab::dominated_sum`] keeps those sums — one per
//! 64-entry chunk, taken from `V::zero()` in entry order, the order the
//! scan adds in — and answers with the sum at the last chunk whose first
//! key is dominated plus that chunk's dominated entries: the same adds
//! from the same start, so the same bits. The sums are built on a slab's
//! *second* visit since it last changed, not at decode: a slab decoded
//! for one more query never pays for them, and a first visit costs the
//! plain scan. Every mutation forgets them, and a clone has none.
//!
//! **A fixed-width leaf is never decoded for a query.**
//! [`EntrySlab::sum_dominated_rows`] answers a dominance sum from the
//! encoded rows themselves: the same entries, added in the same order
//! from `V::zero()`, as a decode followed by
//! [`sum_dominated_from_into`](EntrySlab::sum_dominated_from_into), so
//! the same bits — or `None`, and the caller decodes. What a decoded
//! slab knows beyond its entries, a page keeps beside its bytes as
//! [`LeafSums`]: the sorted flag, for the early stop, and a sorted 1-d
//! leaf's running sums, built and answered from by the same two helpers
//! as the slab's own.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::bytes::{ByteReader, ByteWriter};
use crate::error::Result;
use crate::geom::{Point, MAX_DIM};
use crate::value::{AggValue, EncodedWidth};

/// Chunk width of the vectorized dominance scan: the per-dimension column
/// passes mask `CHUNK` entries at a time through a stack bitmap.
const CHUNK: usize = 64;

/// Encoded bytes of one coordinate.
const WORD: usize = 8;

/// Struct-of-arrays storage for `(Point, V)` entries of one fixed
/// dimensionality.
///
/// Coordinates live in `dim` contiguous `f64` columns of one buffer;
/// values live in a parallel column. Entry order is the order of
/// insertion (the same order the tuple vector kept), and every aggregate
/// walk visits entries in that order so floating-point results match the
/// old layout bit for bit.
#[derive(Debug)]
pub struct EntrySlab<V> {
    /// Dimensionality of the points (≤ [`MAX_DIM`]).
    dim: u8,
    /// Exactly whether column 0 ascends — `col(0).windows(2).all(≤)`,
    /// false when there is no column 0 — kept by every mutation and
    /// recomputed at decode. A dominance scan of a sorted slab stops at
    /// the first key past the query's.
    sorted: bool,
    /// Whether [`dominated_sum`](Self::dominated_sum) has visited the
    /// slab since it last changed: the next visit builds `runs`.
    visited: AtomicBool,
    /// Entries each column has room for; `coords.len() == dim * cap`.
    cap: usize,
    /// Column `d` is `coords[d * cap .. d * cap + len]`.
    coords: Vec<f64>,
    values: Vec<V>,
    /// `runs[c]`: the sum from `V::zero()`, in entry order, of the values
    /// before chunk `c` — built for sorted 1-d slabs of more than one
    /// chunk on their second visit, dropped by every mutation.
    runs: OnceLock<Box<[V]>>,
}

impl<V: Clone> Clone for EntrySlab<V> {
    /// The same entries, without the running sums or the visit that
    /// would build them: a clone is made to be edited.
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            sorted: self.sorted,
            visited: AtomicBool::new(false),
            cap: self.cap,
            coords: self.coords.clone(),
            values: self.values.clone(),
            runs: OnceLock::new(),
        }
    }
}

impl<V: AggValue> PartialEq for EntrySlab<V> {
    /// Same dimension, same entries in the same order — capacity and
    /// whatever sits in the padding are not part of a slab's value.
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.values == other.values
            && (0..self.dim()).all(|d| self.col(d) == other.col(d))
    }
}

/// The `f64` at `bytes[at..at + WORD]`.
#[inline]
fn word(bytes: &[u8], at: usize) -> f64 {
    let b: [u8; WORD] = bytes[at..at + WORD]
        .try_into()
        .expect("a WORD-byte slice is a WORD-byte array");
    f64::from_le_bytes(b)
}

/// The running sums a sorted 1-d run answers from: entry `c` is the sum
/// from `V::zero()`, in entry order, of the values before chunk `c` —
/// the adds the scan makes before it reaches that chunk. `None` when a
/// value is missing.
fn chunk_start_sums<V: AggValue, B: Borrow<V>>(
    values: impl Iterator<Item = Option<B>>,
) -> Option<Box<[V]>> {
    let mut acc = V::zero();
    let mut runs = Vec::new();
    for (i, v) in values.enumerate() {
        if i % CHUNK == 0 {
            runs.push(acc.clone());
        }
        acc.add_assign(v?.borrow());
    }
    Some(runs.into())
}

/// The sum of the values of the entries of a sorted 1-d run of `len`
/// whose keys are at most `q0`, from its [`chunk_start_sums`]: the sum
/// before the last chunk whose first key is dominated, plus that
/// chunk's entries up to the first key past `q0`. Those are the scan's
/// own adds from the scan's own start, so the same bits. `key(i)` and
/// `value(i)` are entry `i`'s; `None` when a value is missing.
#[inline]
fn sum_by_runs<V: AggValue, B: Borrow<V>>(
    runs: &[V],
    len: usize,
    q0: f64,
    key: impl Fn(usize) -> f64,
    value: impl Fn(usize) -> Option<B>,
) -> Option<V> {
    let mut c = 0;
    while c + 1 < runs.len() && key((c + 1) * CHUNK) <= q0 {
        c += 1;
    }
    let mut acc = runs[c].clone();
    for i in (c * CHUNK..((c + 1) * CHUNK).min(len)).take_while(|&i| key(i) <= q0) {
        acc.add_assign(value(i)?.borrow());
    }
    Some(acc)
}

/// The first `count` rows of `dim`-d points and `V` values at the
/// start of `rows`, as [`EntrySlab::encode_entries`] writes them, and
/// their stride; `None` when `V` has no fixed width or the bytes do
/// not hold the rows.
fn fixed_rows<V: AggValue>(rows: &[u8], dim: usize, count: usize) -> Option<(&[u8], usize)> {
    let EncodedWidth::Fixed(width) = V::WIDTH else {
        return None;
    };
    let stride = dim * WORD + width;
    if stride == 0 {
        return None;
    }
    Some((rows.get(..count.checked_mul(stride)?)?, stride))
}

/// What a leaf page keeps beside its bytes, in place of a decode, for
/// [`EntrySlab::sum_dominated_rows`]: exactly whether its column 0
/// ascends — a scan from dimension 0 then stops at the first key past
/// the query's — and, for a sorted 1-d leaf of more than one chunk, the
/// running sums at every chunk start, from which it answers as
/// [`EntrySlab::dominated_sum`] does. A few words where the decode was
/// as large as the page.
#[derive(Debug)]
pub struct LeafSums<V> {
    sorted: bool,
    /// Chunk-start running sums; empty unless the leaf takes them.
    runs: Box<[V]>,
}

impl<V: AggValue> LeafSums<V> {
    /// The sums of `count` encoded rows of `dim`-d points at the start
    /// of `rows`: `None` where [`EntrySlab::sum_dominated_rows`] would
    /// decline them all (no fixed value width, short rows) or a value
    /// the running sums need does not decode.
    pub fn of_rows(rows: &[u8], dim: usize, count: usize) -> Option<Self> {
        let (rows, stride) = fixed_rows::<V>(rows, dim, count)?;
        let key = |i: usize| word(rows, i * stride);
        let sorted = dim > 0 && (1..count).all(|i| key(i - 1) <= key(i));
        let runs = if dim == 1 && sorted && count > CHUNK {
            chunk_start_sums(
                rows.chunks_exact(stride)
                    .map(|row| V::decode(&mut ByteReader::new(&row[WORD..])).ok()),
            )?
        } else {
            Box::default()
        };
        Some(Self { sorted, runs })
    }
}

impl<V: AggValue> EntrySlab<V> {
    /// An empty slab for `dim`-dimensional points.
    ///
    /// `dim == 0` is permitted for structurally-empty border lists (a
    /// 1-dimensional tree projects its borders to zero dimensions but
    /// never stores entries in them).
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// An empty slab with room for `cap` entries per column.
    pub fn with_capacity(dim: usize, cap: usize) -> Self {
        Self::from_parts(dim, cap, vec![0.0; dim * cap], Vec::with_capacity(cap))
    }

    /// A slab over ready columns (`coords` holds `dim` columns of stride
    /// `cap`, each as long as `values`), with its sorted flag computed.
    fn from_parts(dim: usize, cap: usize, coords: Vec<f64>, values: Vec<V>) -> Self {
        assert!(dim <= MAX_DIM, "slab dimension {dim} out of range");
        let mut s = Self {
            dim: dim as u8,
            sorted: false,
            visited: AtomicBool::new(false),
            cap,
            coords,
            values,
            runs: OnceLock::new(),
        };
        s.sorted = s.col0_ascends();
        s
    }

    /// Drops the running sums and the visit that would build them: the
    /// entries are about to change.
    fn forget_runs(&mut self) {
        *self.visited.get_mut() = false;
        self.runs = OnceLock::new();
    }

    /// Whether column 0 exists and ascends: the value the `sorted` flag
    /// must hold.
    fn col0_ascends(&self) -> bool {
        self.dim > 0 && self.col(0).windows(2).all(|w| w[0] <= w[1])
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

    /// Builds a slab over ready columns: `coords` holds the `dim`
    /// columns one after another, each as long as `values` — no
    /// per-entry push.
    pub fn from_columns(dim: usize, coords: Vec<f64>, values: Vec<V>) -> Self {
        assert_eq!(coords.len(), dim * values.len(), "{dim} full columns");
        Self::from_parts(dim, values.len(), coords, values)
    }

    /// Dimensionality of the stored points.
    #[inline]
    pub fn dim(&self) -> usize {
        usize::from(self.dim)
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

    /// Makes room for one more entry: a full slab moves every column
    /// into a buffer of twice the stride.
    fn reserve_one(&mut self) {
        let len = self.len();
        if len < self.cap {
            return;
        }
        let cap = (self.cap * 2).max(4);
        let mut coords = vec![0.0; self.dim() * cap];
        for d in 0..self.dim() {
            coords[d * cap..d * cap + len].copy_from_slice(self.col(d));
        }
        self.coords = coords;
        self.cap = cap;
    }

    /// Appends an entry.
    pub fn push(&mut self, p: &Point, v: V) {
        self.insert_at(self.len(), p, v);
    }

    /// Inserts an entry at position `i`, shifting later entries right.
    pub fn insert_at(&mut self, i: usize, p: &Point, v: V) {
        debug_assert_eq!(p.dim(), self.dim(), "point dimension mismatch");
        self.forget_runs();
        let len = self.len();
        if self.sorted {
            // An unsorted slab stays unsorted: the neighbours that
            // disagreed still do, or disagree with `p`.
            let (keys, key) = (self.col(0), p.get(0));
            self.sorted = (i == 0 || keys[i - 1] <= key) && (i == len || key <= keys[i]);
        }
        self.reserve_one();
        self.values.insert(i, v);
        for d in 0..self.dim() {
            let col = &mut self.coords[d * self.cap..d * self.cap + len + 1];
            col.copy_within(i..len, i + 1);
            col[i] = p.get(d);
        }
    }

    /// Materializes the point of entry `i`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        Point::from_fn(self.dim(), |d| self.col(d)[i])
    }

    /// Coordinate of entry `i` in dimension `d`.
    #[inline]
    pub fn coord(&self, d: usize, i: usize) -> f64 {
        self.col(d)[i]
    }

    /// The whole coordinate column of dimension `d`.
    #[inline]
    pub fn col(&self, d: usize) -> &[f64] {
        assert!(d < self.dim(), "column {d} of a {}-d slab", self.dim());
        &self.coords[d * self.cap..d * self.cap + self.values.len()]
    }

    /// Value of entry `i`.
    #[inline]
    pub fn value(&self, i: usize) -> &V {
        &self.values[i]
    }

    /// Mutable value of entry `i`.
    #[inline]
    pub fn value_mut(&mut self, i: usize) -> &mut V {
        self.forget_runs();
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
        debug_assert_eq!(p.dim(), self.dim());
        (0..self.len()).find(|&i| (0..self.dim()).all(|d| self.col(d)[i] == p.get(d)))
    }

    /// Splits the slab at `at`, returning the tail `[at..]`.
    pub fn split_off(&mut self, at: usize) -> Self {
        self.forget_runs();
        let len = self.len();
        let coords = self.packed_cols(at, len);
        let tail = Self::from_parts(self.dim(), len - at, coords, self.values.split_off(at));
        self.sorted = self.col0_ascends();
        tail
    }

    /// For entries sorted ascending on dimension `d`: the number of
    /// leading entries with `coord ≤ key` (cf. `slice::partition_point`).
    pub fn partition_point_le(&self, d: usize, key: f64) -> usize {
        self.col(d).partition_point(|&c| c <= key)
    }

    /// Stably sorts the entry range `[start, end)` by the coordinate in
    /// dimension `d` (`total_cmp` order), permuting every column and the
    /// values in lockstep. Equal keys keep their relative order, matching
    /// `slice::sort_by` on the tuple layout exactly.
    pub fn sort_range_by_dim(&mut self, d: usize, start: usize, end: usize) {
        self.forget_runs();
        let key = self.col(d);
        let mut perm: Vec<usize> = (start..end).collect();
        perm.sort_by(|&a, &b| key[a].total_cmp(&key[b]));
        let mut scratch: Vec<f64> = Vec::with_capacity(end - start);
        for col in self.coords.chunks_exact_mut(self.cap.max(1)) {
            scratch.clear();
            scratch.extend(perm.iter().map(|&i| col[i]));
            col[start..end].copy_from_slice(&scratch);
        }
        let vals: Vec<V> = perm.iter().map(|&i| self.values[i].clone()).collect();
        for (slot, v) in self.values[start..end].iter_mut().zip(vals) {
            *slot = v;
        }
        self.sorted = self.col0_ascends();
    }

    /// A column-wise copy of the entry range `[start, end)` as a fresh
    /// slab — no per-entry `Point` materialization.
    pub fn sub_slab(&self, start: usize, end: usize) -> Self {
        Self::from_parts(
            self.dim(),
            end - start,
            self.packed_cols(start, end),
            self.values[start..end].to_vec(),
        )
    }

    /// Rows `[start, end)` of every column, as the coordinate buffer of
    /// a slab whose capacity is exactly `end - start`.
    fn packed_cols(&self, start: usize, end: usize) -> Vec<f64> {
        let mut coords = Vec::with_capacity(self.dim() * (end - start));
        for d in 0..self.dim() {
            coords.extend_from_slice(&self.col(d)[start..end]);
        }
        coords
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

    /// The values of every entry dominated by `q`, summed from
    /// `V::zero()` in entry order: what
    /// [`sum_dominated_into`](Self::sum_dominated_into) leaves in a zero
    /// accumulator, to the bit.
    ///
    /// A sorted 1-d slab of more than one chunk answers its second and
    /// later visits from running sums: the sum before the last chunk
    /// whose first key is dominated, plus that chunk's entries up to the
    /// first key past `q[0]`. Those are the scan's own adds from the
    /// scan's own start.
    // lint: hot-path
    pub fn dominated_sum(&self, q: &Point) -> V {
        debug_assert_eq!(q.dim(), self.dim());
        let Some(runs) = self.running_sums() else {
            let mut acc = V::zero();
            self.sum_dominated_from_into(0, q, &mut acc);
            return acc;
        };
        let keys = self.col(0);
        sum_by_runs(
            runs,
            self.len(),
            q.get(0),
            |i| keys[i],
            |i| Some(&self.values[i]),
        )
        .expect("a slab holds every value")
    }

    /// The running sums [`dominated_sum`](Self::dominated_sum) answers
    /// from, if the slab takes them (1-d, sorted, more than one chunk)
    /// and this is not its first visit since it last changed. The second
    /// visit builds them here, so a leaf decoded for one query never
    /// pays for them. Racing visits are harmless: the flag only picks
    /// which visit builds, and either answer has the same bits.
    fn running_sums(&self) -> Option<&[V]> {
        if !(self.dim == 1 && self.sorted && self.len() > CHUNK) {
            return None;
        }
        if let Some(runs) = self.runs.get() {
            return Some(runs);
        }
        if !self.visited.load(Ordering::Relaxed) {
            self.visited.store(true, Ordering::Relaxed);
            return None;
        }
        let runs = self.runs.get_or_init(|| {
            chunk_start_sums(self.values.iter().map(Some)).expect("a slab holds every value")
        });
        Some(runs)
    }

    /// [`sum_dominated_into`](Self::sum_dominated_into) restricted to
    /// dimensions `from..dim` (the ECDF-B-tree scans a suffix of the
    /// dimensions at each level).
    ///
    /// A slab sorted on dimension 0, scanned from it, stops at the first
    /// chunk whose first key exceeds `q[0]`: no later entry can be
    /// dominated, so the skipped entries add nothing and the sum keeps
    /// every bit.
    // lint: hot-path
    pub fn sum_dominated_from_into(&self, from: usize, q: &Point, acc: &mut V) {
        debug_assert_eq!(q.dim(), self.dim());
        debug_assert!(from <= self.dim());
        let n = self.len();
        // Column 0 and `q[0]`, when the scan may stop early.
        let stop = (from == 0 && self.sorted).then(|| (self.col(0), q.get(0)));
        // Vectorized path: per-dimension column passes AND a stack mask
        // over CHUNK entries at a time, then a masked accumulate in entry
        // order. Same comparisons, same add order → bit-identical.
        let mut mask = [true; CHUNK];
        let mut start = 0;
        while start < n {
            if stop.is_some_and(|(keys, q0)| keys[start] > q0) {
                break;
            }
            let len = (n - start).min(CHUNK);
            mask[..len].fill(true);
            for d in from..self.dim() {
                let qd = q.get(d);
                let col = &self.col(d)[start..start + len];
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
            if (from..self.dim()).all(|d| self.col(d)[i] <= q.get(d)) {
                acc.add_assign(&self.values[i]);
            }
        }
    }

    /// The dominated sum of `count` entries straight from their bytes,
    /// laid out as [`encode_entries`](Self::encode_entries) writes them
    /// at the start of `rows`: the values of every entry dominated by `q`
    /// in dimensions `from..dim`, added in entry order from `V::zero()`.
    /// That is what [`decode_entries`](Self::decode_entries) of the same
    /// bytes and then
    /// [`sum_dominated_from_into`](Self::sum_dominated_from_into) into a
    /// zero accumulator give, to the bit, with no column built.
    ///
    /// `sums`, the rows' [`LeafSums`] when the page keeps them, serve a
    /// scan from dimension 0 as the decoded slab's state serves it: a
    /// sorted leaf stops at the first key past `q[0]`, and a sorted 1-d
    /// leaf answers from its running sums
    /// ([`dominated_sum`](Self::dominated_sum)'s adds). Either way the
    /// skipped entries are not dominated, so the bits are the same.
    ///
    /// `None`, and the caller decodes instead, when `V` has no fixed
    /// width, when the rows are not all there, or when a dominated value
    /// does not decode: whatever the decode makes of such bytes, the
    /// caller takes from the decode.
    // lint: hot-path
    pub fn sum_dominated_rows(
        rows: &[u8],
        dim: usize,
        count: usize,
        from: usize,
        q: &Point,
        sums: Option<&LeafSums<V>>,
    ) -> Option<V> {
        debug_assert_eq!(q.dim(), dim);
        let (rows, stride) = fixed_rows::<V>(rows, dim, count)?;
        let point = dim * WORD;
        let value = |row: &[u8]| V::decode(&mut ByteReader::new(&row[point..])).ok();
        let sums = sums.filter(|_| from == 0);
        if let Some(runs) = sums.map(|s| &s.runs[..]).filter(|r| !r.is_empty()) {
            debug_assert_eq!(runs.len(), count.div_ceil(CHUNK), "sums of other rows");
            let row = |i: usize| &rows[i * stride..(i + 1) * stride];
            return sum_by_runs(
                runs,
                count,
                q.get(0),
                |i| word(row(i), 0),
                |i| value(row(i)),
            );
        }
        let stop = sums.is_some_and(|s| s.sorted);
        let (from, qs) = (from.min(dim), q.coords());
        let mut acc = V::zero();
        for row in rows.chunks_exact(stride) {
            if stop && word(row, 0) > qs[0] {
                break;
            }
            let dominated = row[from * WORD..point]
                .chunks_exact(WORD)
                .zip(&qs[from.min(qs.len())..])
                .all(|(c, &qd)| word(c, 0) <= qd);
            if dominated {
                acc.add_assign(&value(row)?);
            }
        }
        Some(acc)
    }

    /// Serializes all entries as `coord₀ … coord_{d−1} value`, in entry
    /// order — byte-identical to encoding `(Point, V)` tuples. The
    /// mirror of [`decode_entries`](Self::decode_entries): the writer
    /// grows once; fixed-width rows are filled a column at a time,
    /// variable-width rows go out coordinates first, then the value.
    pub fn encode_entries(&self, w: &mut ByteWriter) {
        let point = self.dim() * WORD;
        match V::WIDTH {
            EncodedWidth::Fixed(width) if point + width > 0 => {
                let stride = point + width;
                // `encode` appends; the values column is packed here
                // and dealt into the rows like any other column.
                let mut packed = ByteWriter::with_capacity(self.len() * width);
                for v in &self.values {
                    v.encode(&mut packed);
                }
                assert_eq!(packed.len(), self.len() * width, "AggValue::WIDTH");
                let rows = w.put_zeroed(self.len() * stride);
                for d in 0..self.dim() {
                    let at = d * WORD;
                    for (row, c) in rows.chunks_exact_mut(stride).zip(self.col(d)) {
                        row[at..at + WORD].copy_from_slice(&c.to_le_bytes());
                    }
                }
                let packed = packed.as_slice().chunks_exact(width);
                for (row, v) in rows.chunks_exact_mut(stride).zip(packed) {
                    row[point..].copy_from_slice(v);
                }
            }
            _ => {
                let values: usize = self.values.iter().map(V::encoded_size).sum();
                w.reserve(self.len() * point + values);
                let mut row = [0u8; MAX_DIM * WORD];
                for (i, v) in self.values.iter().enumerate() {
                    for (d, c) in row[..point].chunks_exact_mut(WORD).enumerate() {
                        c.copy_from_slice(&self.coords[d * self.cap + i].to_le_bytes());
                    }
                    w.put_bytes(&row[..point]);
                    v.encode(w);
                }
            }
        }
    }

    /// Decodes `count` entries straight into slab columns — the same byte
    /// stream [`encode_entries`](Self::encode_entries) produces, with no
    /// intermediate tuple vector. `count` is input: no column is
    /// allocated before the bytes that fill it are known to be there.
    pub fn decode_entries(r: &mut ByteReader<'_>, dim: usize, count: usize) -> Result<Self> {
        assert!(dim <= MAX_DIM, "slab dimension {dim} out of range");
        let point = dim * WORD;
        match V::WIDTH {
            // Rows of one known stride: one bounds check for the slab,
            // then one pass over the rows per column.
            EncodedWidth::Fixed(width) if point + width > 0 => {
                let stride = point + width;
                let rows = r.get_bytes(count.saturating_mul(stride))?;
                let mut coords = Vec::with_capacity(dim * count);
                for d in 0..dim {
                    let at = d * WORD;
                    coords.extend(rows.chunks_exact(stride).map(|row| word(row, at)));
                }
                let mut values = Vec::with_capacity(count);
                for row in rows.chunks_exact(stride) {
                    values.push(V::decode(&mut ByteReader::new(&row[point..]))?);
                }
                Ok(Self::from_parts(dim, count, coords, values))
            }
            // Values delimit themselves: a row's coordinates are one
            // check, its value whatever `V::decode` takes.
            width => {
                r.expect_records(count, point + width.min())?;
                let mut s = Self::with_capacity(dim, count);
                for i in 0..count {
                    let row = r.get_bytes(point)?;
                    for d in 0..dim {
                        s.coords[d * count + i] = word(row, d * WORD);
                    }
                    s.values.push(V::decode(r)?);
                }
                s.sorted = s.col0_ascends();
                Ok(s)
            }
        }
    }
}

#[cfg(test)]
impl<V: AggValue> EntrySlab<V> {
    /// The decode [`decode_entries`](Self::decode_entries) replaced: one
    /// checked read and one push per word. The oracle of
    /// `kernels_agree_with_the_per_word_oracle`.
    fn decode_entries_per_word(r: &mut ByteReader<'_>, dim: usize, count: usize) -> Result<Self> {
        let mut s = Self::new(dim);
        for i in 0..count {
            s.reserve_one();
            for d in 0..dim {
                s.coords[d * s.cap + i] = r.get_f64()?;
            }
            s.values.push(V::decode(r)?);
        }
        s.sorted = s.col0_ascends();
        Ok(s)
    }

    /// The encode [`encode_entries`](Self::encode_entries) replaced.
    fn encode_entries_per_word(&self, w: &mut ByteWriter) {
        for i in 0..self.len() {
            for d in 0..self.dim() {
                w.put_f64(self.coord(d, i));
            }
            self.values[i].encode(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::poly::{Poly, Term};
    use crate::rng::StdRng;

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
        let columns = vec![1.0, 2.0, 3.0, 4.0, 2.0, 1.0];
        assert_eq!(EntrySlab::from_columns(2, columns, vec![1.0, 2.0, 4.0]), s);
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

    /// Bit-level view of a value, for comparisons `==` cannot make (NaN)
    /// or makes too kindly (`-0.0 == 0.0`).
    trait Bits {
        fn bits(&self) -> Vec<u64>;
    }

    impl Bits for f64 {
        fn bits(&self) -> Vec<u64> {
            vec![self.to_bits()]
        }
    }

    impl Bits for Poly {
        fn bits(&self) -> Vec<u64> {
            self.terms()
                .iter()
                .flat_map(|t| [t.coeff.to_bits(), u64::from_le_bytes(t.exps)])
                .collect()
        }
    }

    fn slab_bits<V: AggValue + Bits>(s: &EntrySlab<V>) -> (Vec<Vec<u64>>, Vec<Vec<u64>>) {
        let cols = (0..s.dim())
            .map(|d| s.col(d).iter().map(|c| c.to_bits()).collect())
            .collect();
        (cols, s.values().iter().map(Bits::bits).collect())
    }

    fn random_f64(rng: &mut StdRng) -> f64 {
        (rng.gen::<f64>() - 0.5) * 1e6
    }

    fn random_poly(rng: &mut StdRng) -> Poly {
        let terms = (0..rng.gen_range(0..4))
            .map(|_| Term::new(random_f64(rng), &[rng.gen::<u8>() % 3, rng.gen::<u8>() % 3]))
            .collect();
        Poly::from_terms(terms)
    }

    fn random_slab(rng: &mut StdRng, dim: usize, count: usize) -> EntrySlab<f64> {
        let mut s = EntrySlab::new(dim);
        for _ in 0..count {
            s.push(&Point::from_fn(dim, |_| random_f64(rng)), random_f64(rng));
        }
        s
    }

    /// `count` encoded rows, written word by word — a zero-dimensional
    /// slab has no `Point` to push, but it has bytes.
    fn random_rows<V: AggValue>(
        rng: &mut StdRng,
        dim: usize,
        count: usize,
        value: fn(&mut StdRng) -> V,
    ) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for _ in 0..count {
            for _ in 0..dim {
                w.put_f64(random_f64(rng));
            }
            value(rng).encode(&mut w);
        }
        w.into_vec()
    }

    /// Both codecs on one encoded slab: the same slab out of the bytes,
    /// the same bytes back out of the slab, and the same refusal of
    /// every proper prefix. Hands back (kernel's, oracle's) slab.
    fn check_against_oracle<V: AggValue + Bits>(
        bytes: &[u8],
        dim: usize,
        count: usize,
        sweep_oracle: bool,
    ) -> (EntrySlab<V>, EntrySlab<V>) {
        let at = format!("dim {dim} count {count}");
        let mut r = ByteReader::new(bytes);
        let got = EntrySlab::<V>::decode_entries(&mut r, dim, count).unwrap();
        assert_eq!(r.remaining(), 0, "{at}: the kernel takes exactly the slab");
        let want = EntrySlab::<V>::decode_entries_per_word(&mut ByteReader::new(bytes), dim, count)
            .unwrap();
        assert_eq!((got.dim(), got.len()), (dim, count), "{at}");
        assert_eq!(slab_bits(&got), slab_bits(&want), "{at}");

        let mut w = ByteWriter::new();
        got.encode_entries(&mut w);
        assert_eq!(w.as_slice(), bytes, "{at}");
        let mut w = ByteWriter::new();
        want.encode_entries_per_word(&mut w);
        assert_eq!(w.as_slice(), bytes, "{at}");

        for cut in 0..bytes.len() {
            let short = &bytes[..cut];
            match EntrySlab::<V>::decode_entries(&mut ByteReader::new(short), dim, count) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("{at} cut {cut}: {other:?}"),
            }
            if sweep_oracle {
                let mut r = ByteReader::new(short);
                let e = EntrySlab::<V>::decode_entries_per_word(&mut r, dim, count);
                assert!(matches!(e, Err(Error::Corrupt(_))), "{at} cut {cut}");
            }
        }
        (got, want)
    }

    /// The oracle check at every dimension, from an empty slab through
    /// the chunk boundary to `full(dim)` entries — about a page of them.
    fn sweep_dims<V: AggValue + Bits>(
        rng: &mut StdRng,
        value: fn(&mut StdRng) -> V,
        full: fn(usize) -> usize,
    ) {
        for dim in 0..=MAX_DIM {
            let full = full(dim);
            for count in [0, 1, CHUNK - 1, CHUNK + 1, full] {
                let bytes = random_rows(rng, dim, count, value);
                let (got, want) = check_against_oracle::<V>(&bytes, dim, count, count < full);
                // The values are finite, so `==` must agree with the bits.
                assert_eq!(got, want, "dim {dim} count {count}");
            }
        }
    }

    #[test]
    fn kernels_agree_with_the_per_word_oracle() {
        const PAGE: usize = 8192 - 3;
        let mut rng = StdRng::seed_from_u64(0x51AB_C0DE);
        sweep_dims(&mut rng, random_f64, |dim| PAGE / (dim * WORD + 8));
        // A polynomial here is 0 to 3 terms of 16 bytes behind a
        // two-byte count.
        sweep_dims(&mut rng, random_poly, |dim| PAGE / (dim * WORD + 26));
    }

    #[test]
    fn kernels_keep_every_bit_of_unusual_floats() {
        let odd = [
            f64::NAN,
            -f64::NAN,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(0x7FF0_0000_0000_0001),
        ];
        let mut s = EntrySlab::new(2);
        for (i, &a) in odd.iter().enumerate() {
            s.push(&p(&[a, odd[(i + 3) % odd.len()]]), odd[(i + 5) % odd.len()]);
        }
        let mut w = ByteWriter::new();
        s.encode_entries(&mut w);
        check_against_oracle::<f64>(w.as_slice(), 2, odd.len(), true);
    }

    #[test]
    fn a_count_the_bytes_cannot_back_allocates_nothing() {
        // `count` is input. The parent reserved `count` words per column
        // before reading one — a capacity-overflow abort here, and 4 MB
        // per slab for the largest count a page header can carry.
        let huge = usize::MAX / 16;
        for bytes in [&[][..], &[0u8; 40][..]] {
            for dim in [0, 2, MAX_DIM] {
                let e = EntrySlab::<f64>::decode_entries(&mut ByteReader::new(bytes), dim, huge);
                assert!(matches!(e, Err(Error::Corrupt(_))), "f64 dim {dim}");
                let e = EntrySlab::<Poly>::decode_entries(&mut ByteReader::new(bytes), dim, huge);
                assert!(matches!(e, Err(Error::Corrupt(_))), "Poly dim {dim}");
                let e = EntrySlab::<f64>::decode_entries(
                    &mut ByteReader::new(bytes),
                    dim,
                    usize::from(u16::MAX),
                );
                assert!(matches!(e, Err(Error::Corrupt(_))), "u16::MAX, dim {dim}");
            }
        }
    }

    #[test]
    fn growth_moves_every_column() {
        // Push and insert across several doublings of the stride; the
        // tuple vector is the model.
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = EntrySlab::<f64>::new(3);
        let mut model: Vec<(Point, f64)> = Vec::new();
        for i in 0..70 {
            let pt = Point::from_fn(3, |_| random_f64(&mut rng));
            let at = if i % 3 == 0 {
                model.len()
            } else {
                rng.gen_range(0..model.len() + 1)
            };
            s.insert_at(at, &pt, i as f64);
            model.insert(at, (pt, i as f64));
            assert_eq!(s.to_entries(), model, "after {i} inserts");
        }
        for d in 0..3 {
            assert_eq!(s.col(d).len(), 70);
        }
        // A slab built at its exact size is full: the next push grows it.
        let mut exact = EntrySlab::from_slice(3, &model);
        assert_eq!(exact, s);
        exact.push(&p(&[1.0, 2.0, 3.0]), -1.0);
        s.push(&p(&[1.0, 2.0, 3.0]), -1.0);
        assert_eq!(exact, s);
        assert_eq!(exact.point(70), p(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn both_halves_of_a_split_take_pushes() {
        let mut rng = StdRng::seed_from_u64(8);
        let s = random_slab(&mut rng, 2, 9);
        let all = s.to_entries();
        let mut head = s.clone();
        let mut tail = head.split_off(4);
        assert_eq!(head.to_entries(), all[..4]);
        assert_eq!(tail.to_entries(), all[4..]);
        // The head keeps its stride and stale words past `len`; the tail
        // is exactly full. Neither may show through.
        head.push(&p(&[-1.0, -2.0]), 10.0);
        tail.push(&p(&[-3.0, -4.0]), 20.0);
        tail.insert_at(0, &p(&[-5.0, -6.0]), 30.0);
        let mut want_head = all[..4].to_vec();
        want_head.push((p(&[-1.0, -2.0]), 10.0));
        let mut want_tail = vec![(p(&[-5.0, -6.0]), 30.0)];
        want_tail.extend_from_slice(&all[4..]);
        want_tail.push((p(&[-3.0, -4.0]), 20.0));
        assert_eq!(head.to_entries(), want_head);
        assert_eq!(tail.to_entries(), want_tail);
        assert_eq!(head.col(1).len(), 5);
        // Splitting at either end.
        let mut whole = s.clone();
        assert!(whole.split_off(9).is_empty());
        assert_eq!(whole, s);
        assert_eq!(whole.split_off(0), s);
        assert!(whole.is_empty());
    }

    #[test]
    fn range_sort_and_sub_slab_ignore_the_padding() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = EntrySlab::<f64>::with_capacity(2, 32);
        for i in 0..11 {
            s.push(&p(&[(i % 4) as f64, random_f64(&mut rng)]), i as f64);
        }
        let mut want = s.to_entries();
        want[2..9].sort_by(|a, b| a.0.get(0).total_cmp(&b.0.get(0)));
        s.sort_range_by_dim(0, 2, 9);
        assert_eq!(s.to_entries(), want);
        let sub = s.sub_slab(3, 8);
        assert_eq!(sub.to_entries(), want[3..8]);
        assert_eq!(sub.sub_slab(1, 3).to_entries(), want[4..6]);
        assert!(s.sub_slab(5, 5).is_empty());
    }

    #[test]
    fn equality_is_of_entries_not_of_buffers() {
        let mut rng = StdRng::seed_from_u64(10);
        let entries = random_slab(&mut rng, 3, 6).to_entries();
        let exact = EntrySlab::from_slice(3, &entries);
        let mut roomy = EntrySlab::with_capacity(3, 50);
        let mut grown = EntrySlab::new(3);
        for (pt, v) in &entries {
            roomy.push(pt, *v);
            grown.push(pt, *v);
        }
        // Leave stale words behind the length of one of them.
        grown.push(&p(&[9.0, 9.0, 9.0]), 9.0);
        let _ = grown.split_off(6);
        assert_eq!(exact, roomy);
        assert_eq!(exact, grown);
        assert_eq!(roomy.clone(), grown.clone());
        let mut other = grown.clone();
        *other.value_mut(2) += 1.0;
        assert_ne!(other, exact);
        let mut longer = roomy.clone();
        longer.push(&p(&[0.0, 0.0, 0.0]), 0.0);
        assert_ne!(longer, exact);
        assert_ne!(EntrySlab::<f64>::new(2), EntrySlab::<f64>::new(3));
    }

    /// What the sorted flag must say: column 0 ascends.
    fn ascends<V: AggValue>(s: &EntrySlab<V>) -> bool {
        s.col(0).windows(2).all(|w| w[0] <= w[1])
    }

    /// A key from a small grid, so ties and ordered runs are common, and
    /// now and then a signed zero or a NaN.
    fn grid_key(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..40) {
            0 => f64::NAN,
            1 => -0.0,
            _ => rng.gen_range(0..12) as f64,
        }
    }

    #[test]
    fn the_sorted_flag_is_exact_after_every_step() {
        let mut rng = StdRng::seed_from_u64(0x0050_27ED);
        for dim in 1..=3 {
            for seq in 0..60 {
                let mut s = EntrySlab::<f64>::new(dim);
                for step in 0..150 {
                    let at = format!("dim {dim} seq {seq} step {step}");
                    let len = s.len();
                    let mut pt = Point::from_fn(dim, |_| grid_key(&mut rng));
                    match rng.gen_range(0..10) {
                        0..=2 => {
                            // Mostly in order, so sorted slabs grow long.
                            if len > 0 && rng.gen_range(0..4) != 0 {
                                let last = s.coord(0, len - 1);
                                let mut c: Vec<f64> = (0..dim).map(|d| pt.get(d)).collect();
                                c[0] = last + rng.gen_range(0..2) as f64;
                                pt = Point::new(&c);
                            }
                            s.push(&pt, random_f64(&mut rng));
                        }
                        3 => s.insert_at(rng.gen_range(0..len + 1), &pt, 1.0),
                        4 => {
                            let pos = s.partition_point_le(0, pt.get(0));
                            s.insert_at(pos.min(len), &pt, 2.0);
                        }
                        5 => {
                            let mut tail = s.split_off(rng.gen_range(0..len + 1));
                            assert_eq!(tail.sorted, ascends(&tail), "{at}: tail");
                            if rng.gen_range(0..2) == 0 {
                                std::mem::swap(&mut s, &mut tail);
                            }
                        }
                        6 => {
                            let a = rng.gen_range(0..len + 1);
                            s = s.sub_slab(a, a + rng.gen_range(0..len - a + 1));
                        }
                        7 => {
                            let a = rng.gen_range(0..len + 1);
                            let b = a + rng.gen_range(0..len - a + 1);
                            s.sort_range_by_dim(rng.gen_range(0..dim), a, b);
                        }
                        8 => s.sort_range_by_dim(0, 0, len),
                        _ => {
                            let mut w = ByteWriter::new();
                            s.encode_entries(&mut w);
                            let mut r = ByteReader::new(w.as_slice());
                            s = EntrySlab::decode_entries(&mut r, dim, len).unwrap();
                            let mut r = ByteReader::new(w.as_slice());
                            let oracle =
                                EntrySlab::<f64>::decode_entries_per_word(&mut r, dim, len)
                                    .unwrap();
                            assert_eq!(oracle.sorted, ascends(&oracle), "{at}: oracle");
                            // The same points under variable-width values.
                            let mut poly = EntrySlab::<Poly>::new(dim);
                            for (pt, _) in s.iter() {
                                poly.push(&pt, random_poly(&mut rng));
                            }
                            let mut w = ByteWriter::new();
                            poly.encode_entries(&mut w);
                            let mut r = ByteReader::new(w.as_slice());
                            let poly = EntrySlab::<Poly>::decode_entries(&mut r, dim, len).unwrap();
                            assert_eq!(poly.sorted, ascends(&poly), "{at}: Poly");
                        }
                    }
                    assert_eq!(s.sorted, ascends(&s), "{at}");
                }
            }
        }
    }

    /// Column-0 keys of a slab: ascending (with ties) when `sorted`,
    /// otherwise the same keys with one inversion at least.
    fn scan_keys(rng: &mut StdRng, count: usize, sorted: bool) -> Vec<f64> {
        let mut keys: Vec<f64> = (0..count)
            .map(|_| (rng.gen_range(0..50) * 4) as f64)
            .collect();
        keys.sort_by(f64::total_cmp);
        if !sorted && count >= 2 {
            let i = rng.gen_range(0..count - 1);
            keys.swap(i, count - 1);
            if keys.windows(2).all(|w| w[0] <= w[1]) {
                keys.reverse();
                keys[0] += 1.0;
            }
        }
        keys
    }

    #[test]
    fn an_early_stop_sums_exactly_what_the_full_scan_does() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        let mut stopped = 0;
        for dim in 1..=3 {
            for sorted in [true, false] {
                for count in [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 340] {
                    let keys = scan_keys(&mut rng, count, sorted);
                    let mut flat = EntrySlab::<f64>::new(dim);
                    let mut poly = EntrySlab::<Poly>::new(dim);
                    for &k in &keys {
                        let pt =
                            Point::from_fn(dim, |d| if d == 0 { k } else { random_f64(&mut rng) });
                        flat.push(&pt, random_f64(&mut rng));
                        poly.push(&pt, random_poly(&mut rng));
                    }
                    assert_eq!(flat.sorted, ascends(&flat));
                    assert_eq!(flat.sorted, sorted || count < 2, "dim {dim} count {count}");
                    // q₀ below, equal to, between and above the keys.
                    let (lo, hi) = (keys.first().copied(), keys.last().copied());
                    let mut q0s = vec![-1.0, 2.0, 1e9];
                    q0s.extend(lo.iter().chain(&hi).copied());
                    q0s.extend(keys.iter().step_by(17).flat_map(|&k| [k, k + 1.0]));
                    for q0 in q0s {
                        for rest in [f64::INFINITY, 0.0] {
                            let q = Point::from_fn(dim, |d| if d == 0 { q0 } else { rest });
                            for from in 0..=1.min(dim) {
                                let at = format!(
                                    "dim {dim} sorted {sorted} n {count} q0 {q0} from {from}"
                                );
                                let (mut got, mut want) = (0.0f64, 0.0f64);
                                flat.sum_dominated_from_into(from, &q, &mut got);
                                flat.sum_dominated_from_into_reference(from, &q, &mut want);
                                assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                                let (mut got, mut want) = (Poly::zero(), Poly::zero());
                                poly.sum_dominated_from_into(from, &q, &mut got);
                                poly.sum_dominated_from_into_reference(from, &q, &mut want);
                                assert!(got == want, "{at}: Poly");
                                if from == 0 && flat.sorted && keys.iter().any(|&k| k > q0) {
                                    stopped += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(stopped > 100, "the early stop was reached {stopped} times");
    }

    /// What `dominated_sum` must return: the reference scan from zero.
    fn scanned<V: AggValue>(s: &EntrySlab<V>, q: &Point) -> V {
        let mut acc = V::zero();
        s.sum_dominated_from_into_reference(0, q, &mut acc);
        acc
    }

    /// Whether `dominated_sum` may build running sums for `s`.
    fn takes_runs<V: AggValue>(s: &EntrySlab<V>) -> bool {
        s.dim() == 1 && s.sorted && s.len() > CHUNK
    }

    /// A value whose magnitude varies over many binades, so a sum that
    /// took its adds in another order or from another start would show
    /// it in the low bits.
    fn spread_f64(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..12) {
            0 => -0.0,
            1 => 0.0,
            e => random_f64(rng) * 1e3f64.powi(e as i32 - 6),
        }
    }

    #[test]
    fn a_running_sum_answers_exactly_what_the_scan_does() {
        let mut rng = StdRng::seed_from_u64(0x00AB_5005);
        let mut built = 0;
        for dim in 1..=3 {
            for sorted in [true, false] {
                for count in [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 511] {
                    let keys = signed_keys(&mut rng, count, sorted);
                    let mut flat = EntrySlab::<f64>::new(dim);
                    let mut poly = EntrySlab::<Poly>::new(dim);
                    for &k in &keys {
                        let pt =
                            Point::from_fn(dim, |d| if d == 0 { k } else { random_f64(&mut rng) });
                        flat.push(&pt, spread_f64(&mut rng));
                        poly.push(&pt, random_poly(&mut rng));
                    }
                    let queries = queries_over(&keys, dim);
                    let at = format!("dim {dim} sorted {sorted} n {count}");
                    // A fresh copy per query, visited three times (the
                    // first scans, the second builds, the third reuses),
                    // and one long-lived slab visited by every query.
                    for q in &queries {
                        let (f, p) = (flat.clone(), poly.clone());
                        for visit in 1..=3 {
                            let at = format!("{at} q {q:?} visit {visit}");
                            assert_eq!(f.dominated_sum(q).bits(), scanned(&f, q).bits(), "{at}");
                            assert_eq!(p.dominated_sum(q).bits(), scanned(&p, q).bits(), "{at}");
                            let runs = visit >= 2 && takes_runs(&f);
                            assert_eq!(f.runs.get().is_some(), runs, "{at}");
                            assert_eq!(p.runs.get().is_some(), runs, "{at}: Poly");
                        }
                    }
                    for round in 0..2 {
                        for q in &queries {
                            let at = format!("{at} q {q:?} round {round}");
                            assert_eq!(
                                flat.dominated_sum(q).bits(),
                                scanned(&flat, q).bits(),
                                "{at}"
                            );
                            assert_eq!(
                                poly.dominated_sum(q).bits(),
                                scanned(&poly, q).bits(),
                                "{at}"
                            );
                        }
                    }
                    if takes_runs(&flat) {
                        assert_eq!(
                            flat.runs.get().map(|r| r.len()),
                            Some(count.div_ceil(CHUNK))
                        );
                        built += 1;
                    } else {
                        assert!(flat.runs.get().is_none(), "{at}");
                    }
                }
            }
        }
        assert_eq!(
            built, 3,
            "sorted 1-d slabs past one chunk: 65, 192 and 511 entries"
        );
    }

    /// A sorted 1-d slab of 200 entries whose running sums are built.
    fn warmed_slab() -> EntrySlab<f64> {
        let mut rng = StdRng::seed_from_u64(0x0FF5);
        let mut s = EntrySlab::new(1);
        for i in 0..200 {
            s.push(&p(&[(i / 2) as f64]), spread_f64(&mut rng));
        }
        let q = p(&[150.0]);
        s.dominated_sum(&q);
        s.dominated_sum(&q);
        assert!(s.runs.get().is_some(), "the second visit builds the sums");
        s
    }

    #[test]
    fn every_mutation_forgets_the_running_sums() {
        type Mutation = fn(&mut EntrySlab<f64>);
        let mutations: [(&str, Mutation); 6] = [
            ("push", |s| s.push(&p(&[1e6]), 3.5)),
            ("insert_at", |s| s.insert_at(0, &p(&[-1.0]), 1e12)),
            ("value_mut", |s| *s.value_mut(5) += 1e-3),
            ("split_off", |s| drop(s.split_off(150))),
            ("sort_range_by_dim", |s| s.sort_range_by_dim(0, 10, 90)),
            ("sort_range_by_dim, whole", |s| {
                s.sort_range_by_dim(0, 0, s.len())
            }),
        ];
        let queries: Vec<Point> = [-5.0, 0.0, 31.5, 32.0, 64.0, 77.0, 99.0, 1e9]
            .iter()
            .map(|&q0| p(&[q0]))
            .collect();
        for (name, mutate) in mutations {
            let mut s = warmed_slab();
            mutate(&mut s);
            assert!(s.runs.get().is_none(), "{name} kept the running sums");
            assert!(!*s.visited.get_mut(), "{name} kept the first visit");
            assert!(takes_runs(&s), "{name}: the slab still takes running sums");
            for visit in 1..=3 {
                for q in &queries {
                    let at = format!("{name}, visit {visit}, q {q:?}");
                    assert_eq!(
                        s.dominated_sum(q).to_bits(),
                        scanned(&s, q).to_bits(),
                        "{at}"
                    );
                }
            }
            assert!(
                s.runs.get().is_some(),
                "{name}: rebuilt on the next second visit"
            );
        }
    }

    #[test]
    fn a_clone_carries_no_running_sums() {
        let s = warmed_slab();
        let c = s.clone();
        assert_eq!(c, s);
        assert!(c.runs.get().is_none() && !c.visited.load(Ordering::Relaxed));
        assert!(s.runs.get().is_some(), "the original keeps its sums");
        let q = p(&[70.0]);
        assert_eq!(c.dominated_sum(&q).to_bits(), s.dominated_sum(&q).to_bits());
        assert!(c.runs.get().is_none(), "a clone's first visit scans");
        assert_eq!(c.dominated_sum(&q).to_bits(), s.dominated_sum(&q).to_bits());
        assert!(c.runs.get().is_some(), "a clone's second visit builds");
    }

    #[test]
    fn two_threads_visiting_one_slab_answer_alike() {
        let mut rng = StdRng::seed_from_u64(0x7EAD);
        let mut keys = scan_keys(&mut rng, 340, true);
        keys.sort_by(f64::total_cmp);
        let mut base = EntrySlab::<f64>::new(1);
        for k in keys {
            base.push(&p(&[k]), spread_f64(&mut rng));
        }
        let queries: Vec<Point> = (0..24).map(|i| p(&[(i * 9) as f64 - 4.0])).collect();
        let want: Vec<u64> = queries
            .iter()
            .map(|q| scanned(&base, q).to_bits())
            .collect();
        for _ in 0..200 {
            // A fresh copy each round, so both threads race its first
            // and second visits.
            let shared = base.clone();
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        barrier.wait();
                        for visit in 1..=3 {
                            for (q, want) in queries.iter().zip(&want) {
                                let got = shared.dominated_sum(q).to_bits();
                                assert_eq!(got, *want, "visit {visit}, q {q:?}");
                            }
                        }
                    });
                }
            });
            assert!(shared.runs.get().is_some());
        }
    }

    /// `s` through its codec: the slab a page holding it decodes to.
    fn decoded<V: AggValue>(s: &EntrySlab<V>) -> EntrySlab<V> {
        let mut w = ByteWriter::new();
        s.encode_entries(&mut w);
        EntrySlab::decode_entries(&mut ByteReader::new(w.as_slice()), s.dim(), s.len()).unwrap()
    }

    /// Keys from `scan_keys`, some of their zeros signed: ties, and
    /// `-0.0` beside `0.0`, which `≤` calls equal.
    fn signed_keys(rng: &mut StdRng, count: usize, sorted: bool) -> Vec<f64> {
        scan_keys(rng, count, sorted)
            .into_iter()
            .map(|k| {
                if k == 0.0 && rng.gen_range(0..2) == 0 {
                    -0.0
                } else {
                    k
                }
            })
            .collect()
    }

    /// Queries whose dimension 0 falls below, on, between and above
    /// `keys`, the other dimensions all-in or at zero.
    fn queries_over(keys: &[f64], dim: usize) -> Vec<Point> {
        let mut q0s = vec![-1.0, -0.0, 0.0, 2.0, 1e9];
        q0s.extend(keys.first().iter().chain(&keys.last()).copied());
        q0s.extend(keys.iter().step_by(29).flat_map(|&k| [k, k + 1.0]));
        q0s.iter()
            .flat_map(|&q0| {
                [f64::INFINITY, 0.0, -0.0]
                    .map(|rest| Point::from_fn(dim, |d| if d == 0 { q0 } else { rest }))
            })
            .collect()
    }

    /// The reference scan of dimensions `from..` from zero: what the
    /// row kernel must return for `s`'s bytes.
    fn scanned_from<V: AggValue>(s: &EntrySlab<V>, from: usize, q: &Point) -> V {
        let mut acc = V::zero();
        s.sum_dominated_from_into_reference(from, q, &mut acc);
        acc
    }

    #[test]
    fn the_row_kernel_sums_exactly_what_the_decoded_scan_does() {
        let mut rng = StdRng::seed_from_u64(0x0520_05C4);
        let mut checked = 0;
        for dim in 1..=3 {
            let full = (8192 - 3) / (dim * WORD + 8);
            for sorted in [true, false] {
                for count in [0, 1, CHUNK, CHUNK + 1, full] {
                    let keys = signed_keys(&mut rng, count, sorted);
                    let mut s = EntrySlab::<f64>::new(dim);
                    for &k in &keys {
                        // Later dimensions on a grid too, so ties and
                        // signed zeros meet the query there as well.
                        let pt =
                            Point::from_fn(
                                dim,
                                |d| {
                                    if d == 0 {
                                        k
                                    } else {
                                        grid_key(&mut rng).abs()
                                    }
                                },
                            );
                        s.push(&pt, spread_f64(&mut rng));
                    }
                    let mut w = ByteWriter::new();
                    s.encode_entries(&mut w);
                    // Trailing bytes past the rows are not the kernel's.
                    w.put_bytes(&[0xA5; 11]);
                    let bytes = w.as_slice();
                    let back = decoded(&s);
                    let mut queries = queries_over(&keys, dim);
                    queries.extend((0..8).map(|_| Point::from_fn(dim, |_| grid_key(&mut rng))));
                    for q in &queries {
                        for from in 0..=dim {
                            let at =
                                format!("dim {dim} sorted {sorted} n {count} from {from} q {q:?}");
                            let got = EntrySlab::<f64>::sum_dominated_rows(
                                bytes, dim, count, from, q, None,
                            )
                            .unwrap_or_else(|| panic!("{at}: declined"));
                            let mut want = 0.0;
                            back.sum_dominated_from_into(from, q, &mut want);
                            assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                            assert_eq!(got.to_bits(), scanned_from(&s, from, q).to_bits(), "{at}");
                            checked += 1;
                        }
                    }
                    // Rows the bytes cannot hold: declined, as the
                    // decode refuses them.
                    let rows = count * (dim * WORD + 8);
                    if count > 0 {
                        let q = Point::splat(dim, f64::INFINITY);
                        assert!(EntrySlab::<f64>::sum_dominated_rows(
                            &bytes[..rows - 1],
                            dim,
                            count,
                            0,
                            &q,
                            None
                        )
                        .is_none());
                        assert!(EntrySlab::<f64>::decode_entries(
                            &mut ByteReader::new(&bytes[..rows - 1]),
                            dim,
                            count
                        )
                        .is_err());
                    }
                }
            }
        }
        assert_eq!(checked, 4_554, "sums checked");
    }

    #[test]
    fn kept_sums_answer_exactly_what_the_decoded_slab_does() {
        let mut rng = StdRng::seed_from_u64(0x1EAF_5035);
        let (mut checked, mut with_runs, mut stops) = (0, 0, 0);
        for page in [512, 8192] {
            for dim in 1..=3 {
                let full = (page - 3) / (dim * WORD + 8);
                let mut counts = vec![
                    0,
                    1,
                    2,
                    CHUNK - 1,
                    CHUNK,
                    CHUNK + 1,
                    2 * CHUNK,
                    2 * CHUNK + 1,
                ];
                counts.retain(|&c| c < full);
                counts.push(full);
                for sorted in [true, false] {
                    for &count in &counts {
                        let keys = signed_keys(&mut rng, count, sorted);
                        let mut s = EntrySlab::<f64>::new(dim);
                        for &k in &keys {
                            let pt = Point::from_fn(dim, |d| {
                                if d == 0 {
                                    k
                                } else {
                                    grid_key(&mut rng).abs()
                                }
                            });
                            s.push(&pt, spread_f64(&mut rng));
                        }
                        let mut w = ByteWriter::new();
                        s.encode_entries(&mut w);
                        w.put_bytes(&[0x5A; 9]);
                        let bytes = w.as_slice();
                        let back = decoded(&s);
                        let at = format!("page {page} dim {dim} sorted {sorted} n {count}");
                        let sums = LeafSums::<f64>::of_rows(bytes, dim, count)
                            .unwrap_or_else(|| panic!("{at}: fixed-width rows declined"));
                        assert_eq!(sums.sorted, back.sorted, "{at}");
                        assert_eq!(!sums.runs.is_empty(), takes_runs(&back), "{at}");
                        with_runs += usize::from(!sums.runs.is_empty());
                        // Queries on the keys either side of every chunk
                        // boundary, as well as below, on, between and
                        // above the keys.
                        let mut queries = queries_over(&keys, dim);
                        for c in (CHUNK..count).step_by(CHUNK) {
                            for k in [keys[c - 1], keys[c], keys[c] - 1.0] {
                                queries.push(Point::from_fn(dim, |d| if d == 0 { k } else { 7.0 }));
                            }
                        }
                        queries.extend((0..6).map(|_| Point::from_fn(dim, |_| grid_key(&mut rng))));
                        for q in &queries {
                            for from in 0..=dim {
                                let at = format!("{at} from {from} q {q:?}");
                                let got = EntrySlab::<f64>::sum_dominated_rows(
                                    bytes,
                                    dim,
                                    count,
                                    from,
                                    q,
                                    Some(&sums),
                                )
                                .unwrap_or_else(|| panic!("{at}: declined"));
                                let want = scanned_from(&back, from, q);
                                assert_eq!(got.to_bits(), want.to_bits(), "{at}");
                                if from == 0 {
                                    let slab = back.dominated_sum(q);
                                    assert_eq!(got.to_bits(), slab.to_bits(), "{at}: slab");
                                    let past = keys.iter().any(|&k| k > q.get(0));
                                    stops += usize::from(sums.sorted && past);
                                }
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(
            with_runs, 4,
            "sorted 1-d leaves past a chunk: 65, 128, 129 and 511 entries"
        );
        assert!(
            stops > 500,
            "the sorted early stop was reached {stops} times"
        );
        assert!(checked > 5_000, "{checked} sums checked");
    }

    #[test]
    fn the_row_kernel_declines_what_it_cannot_read_in_place() {
        let q = p(&[f64::INFINITY, f64::INFINITY]);
        let mut poly = EntrySlab::<Poly>::new(2);
        poly.push(&p(&[1.0, 2.0]), Poly::constant(3.0));
        let mut w = ByteWriter::new();
        poly.encode_entries(&mut w);
        assert!(EntrySlab::<Poly>::sum_dominated_rows(w.as_slice(), 2, 1, 0, &q, None).is_none());
        // A count the page cannot back, however large: no allocation, no
        // overflow, no panic.
        assert!(
            EntrySlab::<f64>::sum_dominated_rows(&[0; 64], 2, usize::MAX, 0, &q, None).is_none()
        );
        assert!(EntrySlab::<f64>::sum_dominated_rows(&[0; 64], 2, 3, 0, &q, None).is_none());
        assert_eq!(
            EntrySlab::<f64>::sum_dominated_rows(&[0; 64], 2, 0, 0, &q, None),
            Some(0.0)
        );
    }

    /// Not a test of anything: prints what decoding and encoding one
    /// full leaf costs through the kernels and through the oracle, what
    /// summing it costs from its bytes and from its decode, and what
    /// building its [`LeafSums`] costs. Run
    /// with `cargo test --release -p boxagg-common --lib slab -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing report, not a check"]
    fn kernel_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        type Decode = fn(&mut ByteReader<'_>, usize, usize) -> Result<EntrySlab<f64>>;
        type Encode = fn(&EntrySlab<f64>, &mut ByteWriter);
        const ITERS: usize = 20_000;
        let mut rng = StdRng::seed_from_u64(1);
        for dim in [1, 2, 3] {
            let count = (8192 - 3) / (dim * WORD + 8);
            let bytes = random_rows(&mut rng, dim, count, random_f64);
            let slab =
                EntrySlab::<f64>::decode_entries(&mut ByteReader::new(&bytes), dim, count).unwrap();
            let decode = |f: Decode| {
                let start = Instant::now();
                for _ in 0..ITERS {
                    black_box(f(&mut ByteReader::new(black_box(&bytes)), dim, count).unwrap());
                }
                start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
            };
            let encode = |f: Encode| {
                let mut w = ByteWriter::with_capacity(8192);
                let start = Instant::now();
                for _ in 0..ITERS {
                    w.clear();
                    f(black_box(&slab), &mut w);
                    black_box(w.as_slice());
                }
                start.elapsed().as_secs_f64() * 1e6 / ITERS as f64
            };
            // The floor: the same de-interleave into columns that are
            // already there — no allocation, no checks, no slab.
            let stride = (dim + 1) * WORD;
            let mut cols = vec![0.0f64; (dim + 1) * count];
            let start = Instant::now();
            for _ in 0..ITERS {
                let rows = black_box(&bytes).chunks_exact(stride);
                for (d, col) in cols.chunks_exact_mut(count).enumerate() {
                    for (c, row) in col.iter_mut().zip(rows.clone()) {
                        *c = word(row, d * WORD);
                    }
                }
                black_box(&mut cols);
            }
            let floor = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            // The row kernel over the same bytes, every row dominated
            // (each value added); building the leaf's sums; and the
            // decoded slab's scan.
            let all = Point::splat(dim, f64::INFINITY);
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(EntrySlab::<f64>::sum_dominated_rows(
                    black_box(&bytes),
                    dim,
                    count,
                    0,
                    &all,
                    None,
                ));
            }
            let rows = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(LeafSums::<f64>::of_rows(black_box(&bytes), dim, count));
            }
            let sums = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(black_box(&slab).dominated_sum(&all));
            }
            let scan = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
            println!(
                "{dim}-d leaf, {count} entries: decode {:.3} us (per word {:.3}, \
                 gather alone {floor:.3}), encode {:.3} us (per word {:.3}), \
                 row scan {rows:.3} us, sums {sums:.3} us, decoded scan {scan:.3} us",
                decode(EntrySlab::decode_entries),
                decode(EntrySlab::decode_entries_per_word),
                encode(EntrySlab::encode_entries),
                encode(EntrySlab::encode_entries_per_word),
            );
        }
    }
}
