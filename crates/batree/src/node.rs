//! On-page node layout of the BA-tree.
//!
//! A BA-tree page is either a **leaf** (weighted points) or an **index**
//! node (k-d-B records augmented with aggregation state, §5):
//!
//! ```text
//! leaf:   [tag=0:u8][count:u16] ([point: 8·d][value: var])*
//! index:  [tag=1:u8][count:u16] ([rect: 16·d][child: u64]
//!                                [border roots: 8·d][subtotal: var])*
//! ```
//!
//! Values are variable-size (scalars vs polynomial tuples), so node
//! capacities are computed from the configured worst-case value size —
//! a node that passes the capacity check always fits its page.

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{corrupt, Error, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::PageId;

/// Sizing parameters of a BA-tree family (the tree and all its borders).
#[derive(Clone, Copy, Debug)]
pub struct BaParams {
    /// Page size in bytes.
    pub page_size: usize,
    /// Worst-case encoded size of one aggregate value, in bytes.
    pub max_value_size: usize,
}

/// Per-node header: tag byte + record count.
const HEADER: usize = 3;

/// Fanout floor used to size the inline-border budget.
const MIN_INDEX_FANOUT: usize = 32;

impl BaParams {
    /// Usable payload bytes per page.
    pub fn payload(&self) -> usize {
        self.page_size.saturating_sub(HEADER)
    }

    /// Worst-case bytes of one leaf entry in `dim` dimensions.
    pub fn leaf_entry_size(&self, dim: usize) -> usize {
        Point::encoded_size(dim) + self.max_value_size
    }

    /// Bytes of one inline border entry (a projected point + value).
    pub fn border_entry_size(&self, dim: usize) -> usize {
        debug_assert!(dim >= 2);
        Point::encoded_size(dim - 1) + self.max_value_size
    }

    /// Maximum entries a border may hold *inline* in its index record
    /// before spilling to a dedicated tree.
    ///
    /// This is the paper's §4 space optimization ("use a single disk
    /// page to keep multiple borders, preferably the borders in the same
    /// index page"): small borders cost no extra pages and no extra
    /// I/O. The cap is sized so a full record still allows a fanout of
    /// at least `MIN_INDEX_FANOUT` (32).
    pub fn inline_border_cap(&self, dim: usize) -> usize {
        if dim < 2 {
            return 0; // 1-d trees have no borders
        }
        let budget = self.payload() / MIN_INDEX_FANOUT;
        let base = self.index_record_base_size(dim);
        if budget <= base {
            return 0;
        }
        ((budget - base) / (dim * self.border_entry_size(dim))).min(64)
    }

    /// Record bytes excluding inline border entries: box + child +
    /// subtotal + per-border header (tag byte + the larger of a count or
    /// a page id).
    fn index_record_base_size(&self, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + self.max_value_size + dim * (1 + 8)
    }

    /// Worst-case bytes of one index record in `dim` dimensions
    /// (all borders inline at the cap).
    pub fn index_record_size(&self, dim: usize) -> usize {
        self.index_record_base_size(dim)
            + if dim >= 2 {
                dim * self.inline_border_cap(dim) * self.border_entry_size(dim)
            } else {
                0
            }
    }

    /// Maximum leaf entries per page.
    pub fn leaf_cap(&self, dim: usize) -> usize {
        self.payload() / self.leaf_entry_size(dim)
    }

    /// Maximum index records per page.
    pub fn index_cap(&self, dim: usize) -> usize {
        self.payload() / self.index_record_size(dim)
    }

    /// Rejects configurations whose pages cannot hold a workable number of
    /// records. Capacities only grow as the border recursion lowers the
    /// dimension, so checking the top dimension covers all sub-trees.
    pub fn validate(&self, dim: usize) -> Result<()> {
        if self.leaf_cap(dim) < 2 {
            return Err(Error::RecordTooLarge {
                record: self.leaf_entry_size(dim),
                page: self.payload() / 2,
            });
        }
        if self.index_cap(dim) < 3 {
            return Err(Error::RecordTooLarge {
                record: self.index_record_size(dim),
                page: self.payload() / 3,
            });
        }
        Ok(())
    }
}

/// One border of an index record: the `(d−1)`-dimensional weighted point
/// set below the record's low corner in one dimension's direction.
///
/// Small borders live *inline* in the record (§4's multiple-borders-per-
/// page optimization); beyond [`BaParams::inline_border_cap`] they spill
/// into a dedicated `(d−1)`-dim BA-tree.
#[derive(Debug, Clone)]
pub(crate) enum BorderRef<V> {
    /// Entries stored in the record itself (projected points, decoded
    /// into struct-of-arrays columns for the dominance scans).
    Inline(EntrySlab<V>),
    /// Root of a dedicated border tree.
    Tree(PageId),
}

impl<V: AggValue> BorderRef<V> {
    /// An empty border over `projected_dim`-dimensional points
    /// (`dim − 1` for a `dim`-dimensional tree; 0 for 1-d trees, whose
    /// borders are structurally empty).
    pub(crate) fn empty(projected_dim: usize) -> Self {
        BorderRef::Inline(EntrySlab::new(projected_dim))
    }

    /// Whether the border holds no entries (inline only; a spilled tree
    /// is never empty).
    pub(crate) fn is_empty_inline(&self) -> bool {
        matches!(self, BorderRef::Inline(v) if v.is_empty())
    }
}

/// One k-d-B index record augmented with aggregation state (§5).
#[derive(Debug, Clone)]
pub(crate) struct IndexRecord<V> {
    /// Region covered by the child subtree. Records of a node tile the
    /// node's region without overlap.
    pub rect: Rect,
    /// Page of the child node.
    pub child: PageId,
    /// Total value of points dominated by `rect.low()` in every dimension
    /// (group 2 of Fig. 7).
    pub subtotal: V,
    /// Borders, one per dimension; `borders[k]` covers the points below
    /// `rect.low()[k]` whose other coordinates fall under `rect.high()`
    /// (groups 3/4 of Fig. 7).
    pub borders: Vec<BorderRef<V>>,
}

/// Decoded node contents.
#[derive(Debug, Clone)]
pub(crate) enum Node<V> {
    /// Weighted points, stored struct-of-arrays for the dominance scans.
    Leaf(EntrySlab<V>),
    /// Augmented k-d-B records.
    Index(Vec<IndexRecord<V>>),
}

impl<V: AggValue> Node<V> {
    /// An empty leaf of `dim`-dimensional points.
    pub(crate) fn empty_leaf(dim: usize) -> Self {
        Node::Leaf(EntrySlab::new(dim))
    }

    /// Whether the node respects the page capacity for its kind.
    pub(crate) fn fits(&self, params: &BaParams, dim: usize) -> bool {
        match self {
            Node::Leaf(es) => es.len() <= params.leaf_cap(dim),
            Node::Index(rs) => rs.len() <= params.index_cap(dim),
        }
    }

    /// Serializes the node into page bytes.
    pub(crate) fn encode(&self, dim: usize, w: &mut ByteWriter) {
        match self {
            Node::Leaf(entries) => {
                w.put_u8(0);
                w.put_u16(entries.len() as u16);
                debug_assert_eq!(entries.dim(), dim);
                entries.encode_entries(w);
            }
            Node::Index(records) => {
                w.put_u8(1);
                w.put_u16(records.len() as u16);
                for r in records {
                    debug_assert_eq!(r.rect.dim(), dim);
                    debug_assert_eq!(r.borders.len(), dim);
                    r.rect.encode(w);
                    w.put_u64(r.child.0);
                    for b in &r.borders {
                        match b {
                            BorderRef::Inline(entries) => {
                                w.put_u8(0);
                                w.put_u16(entries.len() as u16);
                                debug_assert_eq!(entries.dim(), dim - 1);
                                entries.encode_entries(w);
                            }
                            BorderRef::Tree(id) => {
                                w.put_u8(1);
                                w.put_u64(id.0);
                            }
                        }
                    }
                    r.subtotal.encode(w);
                }
            }
        }
    }

    /// Deserializes a node of known dimensionality from page bytes.
    pub(crate) fn decode(bytes: &[u8], dim: usize) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        let count = r.get_u16()? as usize;
        match tag {
            0 => {
                // Decode straight into slab columns — no intermediate
                // tuple vector. Byte stream unchanged.
                Ok(Node::Leaf(EntrySlab::decode_entries(&mut r, dim, count)?))
            }
            1 => {
                // Box, child, `dim` empty inline borders, subtotal: the
                // least a record can be. `count` is input; check it
                // before allocating ≈ 184 bytes per record for it.
                let min_record = Rect::encoded_size(dim) + 8 + dim * 3 + V::WIDTH.min();
                r.expect_records(count, min_record)?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    let rect = Rect::decode(&mut r, dim)?;
                    let child = PageId(r.get_u64()?);
                    let mut borders = Vec::with_capacity(dim);
                    for _ in 0..dim {
                        match r.get_u8()? {
                            0 => {
                                let n = r.get_u16()? as usize;
                                let entries = EntrySlab::decode_entries(&mut r, dim - 1, n)?;
                                borders.push(BorderRef::Inline(entries));
                            }
                            1 => borders.push(BorderRef::Tree(PageId(r.get_u64()?))),
                            t => {
                                return Err(corrupt(format!("unknown border tag {t}")));
                            }
                        }
                    }
                    let subtotal = V::decode(&mut r)?;
                    records.push(IndexRecord {
                        rect,
                        child,
                        subtotal,
                        borders,
                    });
                }
                Ok(Node::Index(records))
            }
            t => Err(corrupt(format!("unknown BA-tree node tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::poly::Poly;

    fn params() -> BaParams {
        BaParams {
            page_size: 8192,
            max_value_size: 8,
        }
    }

    #[test]
    fn capacities_for_2d_scalars() {
        let p = params();
        // leaf entry: 16 (point) + 8 (value) = 24 → 8189/24 = 341
        assert_eq!(p.leaf_entry_size(2), 24);
        assert_eq!(p.leaf_cap(2), 341);
        // base record: 32 (rect) + 8 (child) + 8 (subtotal) + 2·9 = 66;
        // inline budget (8189/32 − 66)/(2·16) = 5 entries per border.
        assert_eq!(p.inline_border_cap(2), 5);
        assert_eq!(p.index_record_size(2), 66 + 2 * 5 * 16);
        assert!(p.index_cap(2) >= 16, "fanout floor respected");
        p.validate(2).unwrap();
        // Borders (lower dimension) can only be roomier.
        assert!(p.leaf_cap(1) > p.leaf_cap(2));
        assert_eq!(p.inline_border_cap(1), 0, "1-d trees have no borders");
    }

    #[test]
    fn encoded_record_at_inline_cap_respects_worst_case() {
        let p = params();
        let k = p.inline_border_cap(2);
        let entries: Vec<(Point, f64)> = (0..k).map(|i| (Point::new(&[i as f64]), 1.0)).collect();
        let inline = EntrySlab::from_slice(1, &entries);
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![BorderRef::Inline(inline.clone()), BorderRef::Inline(inline)],
        };
        let node = Node::Index(vec![rec; p.index_cap(2)]);
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        assert!(w.len() <= p.page_size, "{} > {}", w.len(), p.page_size);
    }

    #[test]
    fn tiny_pages_are_rejected() {
        let p = BaParams {
            page_size: 64,
            max_value_size: 256,
        };
        assert!(p.validate(2).is_err());
    }

    #[test]
    fn leaf_round_trip() {
        let node: Node<f64> = Node::Leaf(EntrySlab::from_slice(
            2,
            &[
                (Point::new(&[1.0, 2.0]), 3.5),
                (Point::new(&[-4.0, 0.0]), -1.25),
            ],
        ));
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        let bytes = w.into_vec();
        match Node::<f64>::decode(&bytes, 2).unwrap() {
            Node::Leaf(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es.point(0), Point::new(&[1.0, 2.0]));
                assert_eq!(*es.value(0), 3.5);
                assert_eq!(es.point(1), Point::new(&[-4.0, 0.0]));
                assert_eq!(*es.value(1), -1.25);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn leaf_bytes_match_tuple_layout() {
        // The slab codec must be byte-identical to the old per-entry
        // `Point::encode` + value layout.
        let entries = [
            (Point::new(&[1.0, 2.0]), 3.5),
            (Point::new(&[-4.0, 0.0]), -1.25),
        ];
        let node: Node<f64> = Node::Leaf(EntrySlab::from_slice(2, &entries));
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        let mut ref_w = ByteWriter::new();
        ref_w.put_u8(0);
        ref_w.put_u16(entries.len() as u16);
        for (p, v) in &entries {
            p.encode(&mut ref_w);
            v.encode(&mut ref_w);
        }
        assert_eq!(w.as_slice(), ref_w.as_slice());
    }

    #[test]
    fn index_round_trip_with_poly_values() {
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]),
            child: PageId(42),
            subtotal: Poly::monomial(2.0, &[1, 1]),
            borders: vec![
                BorderRef::Inline(EntrySlab::from_slice(
                    1,
                    &[(Point::new(&[0.25]), Poly::constant(3.0))],
                )),
                BorderRef::Tree(PageId(7)),
            ],
        };
        let node = Node::Index(vec![rec]);
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        let bytes = w.into_vec();
        match Node::<Poly>::decode(&bytes, 2).unwrap() {
            Node::Index(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].child, PageId(42));
                match &rs[0].borders[0] {
                    BorderRef::Inline(es) => {
                        assert_eq!(es.len(), 1);
                        assert_eq!(es.point(0), Point::new(&[0.25]));
                        assert_eq!(*es.value(0), Poly::constant(3.0));
                    }
                    _ => panic!("expected inline border"),
                }
                assert!(matches!(rs[0].borders[1], BorderRef::Tree(PageId(7))));
                assert_eq!(rs[0].subtotal, Poly::monomial(2.0, &[1, 1]));
                assert_eq!(rs[0].rect, Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]));
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn border_ref_helpers() {
        let b: BorderRef<f64> = BorderRef::empty(1);
        assert!(b.is_empty_inline());
        let t: BorderRef<f64> = BorderRef::Tree(PageId(1));
        assert!(!t.is_empty_inline());
    }

    #[test]
    fn decode_rejects_garbage_tag() {
        let bytes = [9u8, 0, 0];
        assert!(Node::<f64>::decode(&bytes, 2).is_err());
    }

    #[test]
    fn record_count_is_checked_before_anything_is_allocated() {
        use boxagg_common::error::Error;
        // The whole payload is a header claiming 65,535 records. The
        // parent reserved `count` records (≈ 12 MB of `IndexRecord`s, or
        // 65,535 words per leaf column) before reading the first one
        // and only then met the end of the page.
        for tag in [0u8, 1] {
            let claim = [tag, 0xFF, 0xFF];
            for dim in 1..=3 {
                match Node::<f64>::decode(&claim, dim) {
                    Err(Error::Corrupt(msg)) if tag == 1 => {
                        assert!(msg.contains("record count 65535"), "{msg}")
                    }
                    Err(Error::Corrupt(msg)) => {
                        assert!(
                            msg.contains(&format!("{} bytes", 65535 * (dim + 1) * 8)),
                            "{msg}"
                        )
                    }
                    other => panic!("tag {tag} dim {dim}: {other:?}"),
                }
                assert!(matches!(
                    Node::<Poly>::decode(&claim, dim),
                    Err(Error::Corrupt(_))
                ));
            }
        }
        // A full-count header over half a body, for both kinds.
        let leaf: Node<f64> = Node::Leaf(EntrySlab::from_slice(
            2,
            &(0..40)
                .map(|i| (Point::new(&[i as f64, 1.0]), 2.0))
                .collect::<Vec<_>>(),
        ));
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![BorderRef::empty(1), BorderRef::Tree(PageId(9))],
        };
        for node in [leaf, Node::Index(vec![rec; 12])] {
            let mut w = ByteWriter::new();
            node.encode(2, &mut w);
            let bytes = w.into_vec();
            Node::<f64>::decode(&bytes, 2).unwrap();
            let half = &bytes[..3 + (bytes.len() - 3) / 2];
            assert!(matches!(
                Node::<f64>::decode(half, 2),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn fits_respects_capacity() {
        let p = BaParams {
            page_size: 128,
            max_value_size: 8,
        };
        // leaf cap in 1-d: (128-3)/16 = 7
        assert_eq!(p.leaf_cap(1), 7);
        let fill = |n: usize| {
            let mut s = EntrySlab::new(1);
            for i in 0..n {
                s.push(&Point::new(&[i as f64]), 1.0);
            }
            Node::Leaf(s)
        };
        let small: Node<f64> = fill(7);
        assert!(small.fits(&p, 1));
        let big: Node<f64> = fill(8);
        assert!(!big.fits(&p, 1));
    }

    #[test]
    fn encoded_leaf_at_capacity_fits_page() {
        let p = BaParams {
            page_size: 256,
            max_value_size: 8,
        };
        let cap = p.leaf_cap(3);
        let mut s = EntrySlab::new(3);
        for i in 0..cap {
            s.push(&Point::new(&[i as f64, 0.0, 1.0]), 2.0);
        }
        let node: Node<f64> = Node::Leaf(s);
        let mut w = ByteWriter::new();
        node.encode(3, &mut w);
        assert!(w.len() <= p.page_size);
    }

    #[test]
    fn encoded_index_at_capacity_fits_page() {
        let p = BaParams {
            page_size: 512,
            max_value_size: 8,
        };
        let cap = p.index_cap(2);
        assert!(cap >= 3);
        let recs: Vec<IndexRecord<f64>> = (0..cap)
            .map(|i| IndexRecord {
                rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (0.0, 1.0)]),
                child: PageId(i as u64),
                subtotal: 1.0,
                borders: vec![BorderRef::empty(1), BorderRef::empty(1)],
            })
            .collect();
        let node = Node::Index(recs);
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        assert!(w.len() <= p.page_size);
    }
}
