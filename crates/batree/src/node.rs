//! On-page node layout of the BA-tree.
//!
//! A BA-tree page is either a **leaf** (weighted points) or an **index**
//! node (k-d-B records augmented with aggregation state, §5):
//!
//! ```text
//! leaf:   [tag=0:u8][count:u16] ([point: 8·d][value: var])*
//! index:  [tag=1:u8][count:u16] ([rect: 16·d][child: u64]
//!                                [border: var]·d [subtotal: var])*
//! border: [tag=0:u8][count:u16] ([point: 8·(d−1)][value: var])*   a held leaf
//!       | [tag=1:u8][root: u64]                                   a border tree's root page
//!       | [tag=2:u8][c:u8] [bound: f64]·(c+1)                     a held index node
//!                          ([child: u64][subtotal: var])·c
//! ```
//!
//! Every border is a `(d−1)`-dim BA-tree ([`BorderRef`]), and its top
//! node may be held in the record instead of on a page of its own: a
//! leaf's projected entries (tag 0), or the records of a 1-d tree's root
//! index node (tag 2, a *directory*): record `i` covers
//! `[bound_i, bound_(i+1)]` and holds its child's page and the sum of
//! its earlier siblings' subtrees. A 1-d record's one border is always
//! an empty held leaf.
//!
//! Values are variable-size (scalars vs polynomial tuples), so node
//! capacities are computed from the configured worst-case value size —
//! a node that passes the capacity check always fits its page.
//!
//! The header, the leaf codec and the capacity arithmetic are the
//! shared [`paged`] layer's, as for the ECDF-B-trees; this module
//! supplies the BA-tree's [`Layout`]: the index record, its worst-case
//! size and its catalog kind.

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{corrupt, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_pagestore::paged::{self, Cataloged, Layout, PageParams};
use boxagg_pagestore::{PageId, RootEntry, RootKind};

/// Fanout floor used to size the inline-border budget.
const MIN_INDEX_FANOUT: usize = 32;

/// Border tag: a held leaf, its entries in the record.
const LEAF: u8 = 0;
/// Border tag: the root page of a border tree.
const TREE: u8 = 1;
/// Border tag: a held index node (a 1-d border tree's top level).
const DIR: u8 = 2;

/// The BA-tree's page layout. A node's `at` is its dimension: the
/// border trees of a `d`-dim node are `(d−1)`-dim BA-trees.
///
/// The default layout holds no directories; [`Layout::sized`] gives it
/// its page size's [`dir_cap`](Ba::dir_cap).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ba {
    /// Most records a directory holds.
    dir_cap: usize,
}

/// A decoded BA-tree node.
pub(crate) type Node<V> = paged::Node<V, Ba>;

impl Ba {
    /// Bytes of one inline border entry (a projected point + value).
    fn border_entry_size(params: &PageParams, dim: usize) -> usize {
        debug_assert!(dim >= 2);
        Point::encoded_size(dim - 1) + params.max_value_size
    }

    /// Maximum entries a border may hold *inline* in its index record
    /// before spilling to a dedicated tree.
    ///
    /// This is the paper's §4 space optimization ("use a single disk
    /// page to keep multiple borders, preferably the borders in the same
    /// index page"): small borders cost no extra pages and no extra
    /// I/O. The cap is sized so a full record still allows a fanout of
    /// at least `MIN_INDEX_FANOUT` (32).
    pub(crate) fn inline_border_cap(params: &PageParams, dim: usize) -> usize {
        if dim < 2 {
            return 0; // 1-d trees have no borders
        }
        let budget = params.payload() / MIN_INDEX_FANOUT;
        let base = Self::index_record_base_size(params, dim);
        if budget <= base {
            return 0;
        }
        ((budget - base) / (dim * Self::border_entry_size(params, dim))).min(64)
    }

    /// Most records a directory holds at this page size: as many as
    /// keep it (a tag, a count and its last bound, then a bound, a child
    /// and a subtotal per record) within the bytes a full inline border
    /// takes, so the record's worst case — and the index fan-out — stays
    /// that of the inline cap.
    fn directory_cap(params: &PageParams) -> usize {
        let inline = Self::inline_border_cap(params, 2) * Self::border_entry_size(params, 2);
        inline.saturating_sub(8) / (16 + params.max_value_size)
    }

    /// Most records a `border_dim`-dimensional border tree's top index
    /// node may hold in its owning record: only 1-d border trees hold
    /// one.
    pub(crate) fn dir_cap(&self, border_dim: usize) -> usize {
        if border_dim == 1 {
            self.dir_cap
        } else {
            0
        }
    }

    /// Whether `node`, the top of a `border_dim`-dimensional border
    /// tree, stays held in its owning record — the held counterpart of
    /// [`paged::Ctx::fits`]: a leaf of at most
    /// [`inline_border_cap`](Ba::inline_border_cap) entries, an index
    /// node of at most [`dir_cap`](Ba::dir_cap) records.
    pub(crate) fn holds<V: AggValue>(
        &self,
        params: &PageParams,
        node: &Node<V>,
        border_dim: usize,
    ) -> bool {
        match node {
            Node::Leaf(entries) => entries.len() <= Self::inline_border_cap(params, border_dim + 1),
            Node::Index(records) => records.len() <= self.dir_cap(border_dim),
        }
    }

    /// Record bytes excluding inline border entries: box + child +
    /// subtotal + per-border header (tag byte + the larger of a count or
    /// a page id).
    fn index_record_base_size(params: &PageParams, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + params.max_value_size + dim * (1 + 8)
    }

    /// A held index node's records, after its tag, in a record of a
    /// tree one dimension above `border_dim`: `Corrupt` unless it holds 1 to
    /// [`dir_cap`](Ba::dir_cap) records over bounds in order.
    fn decode_dir<V: AggValue>(
        &self,
        r: &mut ByteReader<'_>,
        border_dim: usize,
    ) -> Result<Vec<IndexRecord<V>>> {
        let c = usize::from(r.get_u8()?);
        let cap = self.dir_cap(border_dim);
        if c == 0 || c > cap {
            return Err(corrupt(format!(
                "a border directory of {c} records (this page size holds 1 to {cap})"
            )));
        }
        let bounds = (0..=c).map(|_| r.get_f64()).collect::<Result<Vec<_>>>()?;
        // A NaN bound is in no order.
        if !bounds.windows(2).all(|b| b[0] <= b[1]) {
            return Err(corrupt("border directory bounds out of order".to_string()));
        }
        bounds
            .windows(2)
            .map(|b| {
                Ok(IndexRecord {
                    rect: Rect::new(Point::new(&[b[0]]), Point::new(&[b[1]])),
                    child: PageId(r.get_u64()?),
                    subtotal: V::decode(r)?,
                    borders: vec![BorderRef::empty(0)],
                })
            })
            .collect()
    }
}

impl Layout for Ba {
    const NAME: &'static str = "BA-tree";
    type Record<V: AggValue> = IndexRecord<V>;

    fn sized(self, params: &PageParams) -> Self {
        Ba {
            dir_cap: Self::directory_cap(params),
        }
    }

    fn leaf_dim(&self, dim: usize) -> usize {
        dim
    }

    /// All borders inline at the cap.
    fn record_size(&self, params: &PageParams, dim: usize) -> usize {
        Self::index_record_base_size(params, dim)
            + if dim >= 2 {
                dim * Self::inline_border_cap(params, dim) * Self::border_entry_size(params, dim)
            } else {
                0
            }
    }

    /// Box, child, `dim` empty inline borders, subtotal.
    fn min_record_size<V: AggValue>(&self, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + dim * 3 + V::WIDTH.min()
    }

    fn encode_record<V: AggValue>(&self, r: &IndexRecord<V>, dim: usize, w: &mut ByteWriter) {
        debug_assert_eq!(r.rect.dim(), dim);
        debug_assert_eq!(r.borders.len(), dim);
        r.rect.encode(w);
        w.put_u64(r.child.0);
        for b in &r.borders {
            match b {
                BorderRef::Held(Node::Leaf(entries)) => {
                    w.put_u8(LEAF);
                    w.put_u16(entries.len() as u16);
                    debug_assert_eq!(entries.dim(), dim - 1);
                    entries.encode_entries(w);
                }
                BorderRef::Tree(id) => {
                    w.put_u8(TREE);
                    w.put_u64(id.0);
                }
                BorderRef::Held(Node::Index(records)) => {
                    debug_assert!((1..=self.dir_cap(dim - 1)).contains(&records.len()));
                    debug_assert!(records
                        .windows(2)
                        .all(|w| w[0].rect.high() == w[1].rect.low()));
                    w.put_u8(DIR);
                    w.put_u8(records.len() as u8);
                    for r in records {
                        w.put_f64(r.rect.low().get(0));
                    }
                    w.put_f64(records[records.len() - 1].rect.high().get(0));
                    for r in records {
                        w.put_u64(r.child.0);
                        r.subtotal.encode(w);
                    }
                }
            }
        }
        r.subtotal.encode(w);
    }

    fn decode_record<V: AggValue>(
        &self,
        r: &mut ByteReader<'_>,
        dim: usize,
    ) -> Result<IndexRecord<V>> {
        let rect = Rect::decode(r, dim)?;
        let child = PageId(r.get_u64()?);
        let mut borders = Vec::with_capacity(dim);
        for _ in 0..dim {
            let border = match r.get_u8()? {
                LEAF => {
                    let n = r.get_u16()? as usize;
                    BorderRef::Held(Node::Leaf(EntrySlab::decode_entries(r, dim - 1, n)?))
                }
                TREE => BorderRef::Tree(PageId(r.get_u64()?)),
                DIR => BorderRef::Held(Node::Index(self.decode_dir(r, dim - 1)?)),
                t => return Err(corrupt(format!("unknown border tag {t}"))),
            };
            // A 1-d record has nothing to project a border onto.
            if dim == 1 && !border.is_empty() {
                return Err(corrupt("a 1-d index record with a border".to_string()));
            }
            borders.push(border);
        }
        let subtotal = V::decode(r)?;
        Ok(IndexRecord {
            rect,
            child,
            subtotal,
            borders,
        })
    }

    fn child<V: AggValue>(r: &IndexRecord<V>) -> PageId {
        r.child
    }

    /// A held index node's children each root a border tree of their
    /// own.
    fn border_trees<V: AggValue>(
        &self,
        r: &IndexRecord<V>,
        dim: usize,
        mut f: impl FnMut(usize, PageId) -> Result<()>,
    ) -> Result<()> {
        for b in &r.borders {
            for id in b.trees() {
                f(dim - 1, id)?;
            }
        }
        Ok(())
    }
}

impl Cataloged for Ba {
    fn root_kind(&self) -> RootKind {
        RootKind::BaTree
    }

    fn from_entry(entry: &RootEntry) -> Option<(Self, usize)> {
        (entry.kind == RootKind::BaTree).then_some((Ba::default(), entry.dims as usize))
    }
}

/// One border of an index record: the `(d−1)`-dimensional weighted point
/// set below the record's low corner in one dimension's direction, a
/// `(d−1)`-dim BA-tree.
///
/// While [`Ba::holds`] its top node, the record holds it (§4's
/// multiple-borders-per-page optimization): a query reads no page for
/// it. Past that, the tree's top is a page.
#[derive(Debug, Clone)]
pub(crate) enum BorderRef<V: AggValue> {
    /// The tree's top node, held in the record: a leaf of projected
    /// points (decoded into struct-of-arrays columns for the dominance
    /// scans), or a 1-d tree's root index node — its records in key
    /// order, each box ending where the next begins, each subtotal the
    /// sum of the earlier siblings' subtrees.
    Held(Node<V>),
    /// The root page of the border tree.
    Tree(PageId),
}

impl<V: AggValue> BorderRef<V> {
    /// An empty border over `projected_dim`-dimensional points
    /// (`dim − 1` for a `dim`-dimensional tree; 0 for 1-d trees, whose
    /// borders are structurally empty).
    pub(crate) fn empty(projected_dim: usize) -> Self {
        BorderRef::Held(Node::empty_leaf(projected_dim))
    }

    /// Whether the border is an empty held leaf (a tree is never empty).
    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, BorderRef::Held(Node::Leaf(v)) if v.is_empty())
    }

    /// The roots of the border's pages: a tree's root, or each of a held
    /// index node's children.
    pub(crate) fn trees(&self) -> impl Iterator<Item = PageId> + '_ {
        let (root, held) = match self {
            BorderRef::Held(Node::Leaf(_)) => (None, &[][..]),
            BorderRef::Tree(id) => (Some(*id), &[][..]),
            BorderRef::Held(Node::Index(records)) => (None, &records[..]),
        };
        root.into_iter().chain(held.iter().map(|r| r.child))
    }
}

/// One k-d-B index record augmented with aggregation state (§5).
#[derive(Debug, Clone)]
pub(crate) struct IndexRecord<V: AggValue> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::error::Error;
    use boxagg_common::poly::Poly;
    use boxagg_common::rng::StdRng;
    use boxagg_common::slab::LeafSums;
    use boxagg_common::value::EncodedWidth;

    fn params() -> PageParams {
        PageParams {
            page_size: 8192,
            max_value_size: 8,
        }
    }

    /// The layout sized for 8 KB pages of scalars: directories of up
    /// to three records.
    fn ba() -> Ba {
        Ba::default().sized(&params())
    }

    fn index_cap(p: &PageParams, dim: usize) -> usize {
        p.payload() / ba().record_size(p, dim)
    }

    fn encode(node: &Node<f64>, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        node.encode(&ba(), dim, &mut w);
        w.into_vec()
    }

    #[test]
    fn capacities_for_2d_scalars() {
        let p = params();
        // leaf entry: 16 (point) + 8 (value) = 24 → 8189/24 = 341
        assert_eq!(p.leaf_cap(2), 341);
        // base record: 32 (rect) + 8 (child) + 8 (subtotal) + 2·9 = 66;
        // inline budget (8189/32 − 66)/(2·16) = 5 entries per border.
        assert_eq!(Ba::inline_border_cap(&p, 2), 5);
        assert_eq!(ba().record_size(&p, 2), 66 + 2 * 5 * 16);
        assert!(index_cap(&p, 2) >= 16, "fanout floor respected");
        // Borders (lower dimension) can only be roomier.
        assert!(p.leaf_cap(1) > p.leaf_cap(2));
        assert_eq!(Ba::inline_border_cap(&p, 1), 0, "1-d trees have no borders");
    }

    #[test]
    fn encoded_record_at_inline_cap_respects_worst_case() {
        let p = params();
        let k = Ba::inline_border_cap(&p, 2);
        let entries: Vec<(Point, f64)> = (0..k).map(|i| (Point::new(&[i as f64]), 1.0)).collect();
        let held = BorderRef::Held(Node::Leaf(EntrySlab::from_slice(1, &entries)));
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![held.clone(), held],
        };
        let bytes = encode(&Node::Index(vec![rec; index_cap(&p, 2)]), 2);
        assert!(
            bytes.len() <= p.page_size,
            "{} > {}",
            bytes.len(),
            p.page_size
        );
    }

    #[test]
    fn index_round_trip_with_poly_values() {
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]),
            child: PageId(42),
            subtotal: Poly::monomial(2.0, &[1, 1]),
            borders: vec![
                BorderRef::Held(Node::Leaf(EntrySlab::from_slice(
                    1,
                    &[(Point::new(&[0.25]), Poly::constant(3.0))],
                ))),
                BorderRef::Tree(PageId(7)),
            ],
        };
        let node: Node<Poly> = Node::Index(vec![rec]);
        let mut w = ByteWriter::new();
        node.encode(&ba(), 2, &mut w);
        match Node::<Poly>::decode(w.as_slice(), &ba(), 2).unwrap() {
            Node::Index(rs) => {
                assert_eq!(rs.len(), 1);
                assert_eq!(rs[0].child, PageId(42));
                match &rs[0].borders[0] {
                    BorderRef::Held(Node::Leaf(es)) => {
                        assert_eq!(es.len(), 1);
                        assert_eq!(es.point(0), Point::new(&[0.25]));
                        assert_eq!(*es.value(0), Poly::constant(3.0));
                    }
                    _ => panic!("expected a held leaf"),
                }
                assert!(matches!(rs[0].borders[1], BorderRef::Tree(PageId(7))));
                assert_eq!(rs[0].subtotal, Poly::monomial(2.0, &[1, 1]));
                assert_eq!(rs[0].rect, Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]));
            }
            _ => panic!("wrong kind"),
        }
    }

    /// A held index node (a directory) of `c` records over `[0, 1]`:
    /// record `i` covers `[i/c, (i+1)/c]`, with child page `100 + i` and
    /// subtotal `value(i)`.
    fn dir<V: AggValue>(c: usize, value: impl Fn(usize) -> V) -> BorderRef<V> {
        BorderRef::Held(Node::Index(
            (0..c)
                .map(|i| IndexRecord {
                    rect: Rect::from_bounds(&[(i as f64 / c as f64, (i + 1) as f64 / c as f64)]),
                    child: PageId(100 + i as u64),
                    subtotal: value(i),
                    borders: vec![BorderRef::empty(0)],
                })
                .collect(),
        ))
    }

    /// An 8 KB index page whose records carry directories of one, two
    /// and three records beside held leaves and tree borders.
    fn directory_page() -> Node<f64> {
        let rec = |i: usize, borders| IndexRecord {
            rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (0.0, 1.0)]),
            child: PageId(i as u64 + 1),
            subtotal: i as f64 - 0.5,
            borders,
        };
        Node::Index(vec![
            rec(0, vec![dir(1, |_| 0.0), BorderRef::empty(1)]),
            rec(1, vec![BorderRef::Tree(PageId(9)), dir(2, |i| -(i as f64))]),
            rec(2, vec![dir(3, |i| i as f64 * 1.5), dir(2, |_| -0.0)]),
        ])
    }

    #[test]
    fn directories_round_trip() {
        let node = directory_page();
        let bytes = encode(&node, 2);
        let Node::Index(got) = Node::<f64>::decode(&bytes, &ba(), 2).unwrap() else {
            panic!("wrong kind")
        };
        let Node::Index(want) = &node else {
            unreachable!()
        };
        for (g, w) in got.iter().zip(want) {
            for (gb, wb) in g.borders.iter().zip(&w.borders) {
                match (gb, wb) {
                    (BorderRef::Held(Node::Index(g)), BorderRef::Held(Node::Index(w))) => {
                        assert_eq!(g.len(), w.len());
                        for (g, w) in g.iter().zip(w) {
                            assert_eq!(g.rect, w.rect);
                            assert_eq!(g.child, w.child);
                            assert_eq!(g.subtotal.to_bits(), w.subtotal.to_bits());
                            assert!(g.borders[0].is_empty());
                        }
                    }
                    (BorderRef::Tree(g), BorderRef::Tree(w)) => assert_eq!(g, w),
                    (BorderRef::Held(Node::Leaf(g)), BorderRef::Held(Node::Leaf(w))) => {
                        assert_eq!(g.len(), w.len())
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(
            encode(&Node::Index(got), 2),
            bytes,
            "re-encodes to the same bytes"
        );
        // A directory's children root its trees, in order.
        let trees: Vec<PageId> = want
            .iter()
            .flat_map(|r| &r.borders)
            .flat_map(|b| b.trees())
            .collect();
        let ids = [100, 9, 100, 101, 100, 101, 102, 100, 101];
        assert_eq!(trees, ids.map(PageId));
    }

    #[test]
    fn full_directories_fit_the_record_worst_case() {
        // A record whose borders are both directories at the cap fits
        // the worst case the index fan-out is sized by.
        for page_size in [8192, 16384] {
            let p = PageParams {
                page_size,
                max_value_size: 8,
            };
            let layout = Ba::default().sized(&p);
            let k = layout.dir_cap(1);
            assert!(k > 0, "{page_size}");
            let rec = IndexRecord {
                rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
                child: PageId(1),
                subtotal: 0.5,
                borders: vec![dir(k, |i| i as f64), dir(k, |i| i as f64)],
            };
            let mut w = ByteWriter::new();
            layout.encode_record(&rec, 2, &mut w);
            assert!(
                w.as_slice().len() <= layout.record_size(&p, 2),
                "{page_size}"
            );
        }
    }

    #[test]
    fn directories_past_the_cap_or_out_of_order_are_refused() {
        let refused =
            |bytes: &[u8], layout: &Ba, want: &str| match Node::<f64>::decode(bytes, layout, 2) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                other => panic!("{other:?}"),
            };
        let rec = |borders| IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders,
        };
        let bytes = encode(
            &Node::Index(vec![rec(vec![dir(3, |_| 1.0), BorderRef::empty(1)])]),
            2,
        );
        // The directory's tag and count follow the header, box and child.
        let at = 3 + Rect::encoded_size(2) + 8;
        assert_eq!(bytes[at..at + 2], [2, 3]);
        Node::<f64>::decode(&bytes, &ba(), 2).unwrap();
        // A layout sized for pages that hold no directory refuses one.
        let none = Ba::default();
        refused(
            &bytes,
            &none,
            "a border directory of 3 records (this page size holds 1 to 0)",
        );
        // A count past the cap, and a count of zero.
        for c in [4u8, 0, 255] {
            let mut bad = bytes.clone();
            bad[at + 1] = c;
            refused(&bad, &ba(), &format!("a border directory of {c} records"));
        }
        // Bounds out of order, and a NaN bound.
        let bound = |i: usize| at + 2 + 8 * i;
        for patch in [2.0f64.to_le_bytes(), f64::NAN.to_le_bytes()] {
            let mut bad = bytes.clone();
            bad[bound(1)..bound(2)].copy_from_slice(&patch);
            refused(&bad, &ba(), "border directory bounds out of order");
        }
        // Equal bounds (a degenerate top slab) are in order.
        let mut tie = bytes.clone();
        let third = bytes[bound(2)..bound(3)].to_vec();
        tie[bound(1)..bound(2)].copy_from_slice(&third);
        Node::<f64>::decode(&tie, &ba(), 2).unwrap();
        // In a 1-d record, whose borders are empty, a directory is refused.
        let one_d = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![BorderRef::<f64>::empty(0)],
        };
        let mut bytes = encode(&Node::Index(vec![one_d]), 1);
        let at = 3 + Rect::encoded_size(1) + 8;
        bytes.splice(at..at + 3, [2, 1, 0]);
        match Node::<f64>::decode(&bytes, &ba(), 1) {
            Err(Error::Corrupt(msg)) => assert!(msg.contains("holds 1 to 0"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn border_ref_helpers() {
        let b: BorderRef<f64> = BorderRef::empty(1);
        assert!(b.is_empty());
        let t: BorderRef<f64> = BorderRef::Tree(PageId(1));
        assert!(!t.is_empty());
        assert!(!dir(1, |_| 0.0).is_empty());
    }

    #[test]
    fn decode_rejects_garbage_tag() {
        let bytes = [9u8, 0, 0];
        assert!(Node::<f64>::decode(&bytes, &ba(), 2).is_err());
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![BorderRef::empty(1), BorderRef::Tree(PageId(9))],
        };
        let mut bytes = encode(&Node::Index(vec![rec]), 2);
        // The second border's tag follows box, child and the first
        // (empty inline) border.
        let at = 3 + Rect::encoded_size(2) + 8 + 3;
        assert_eq!(bytes[at], 1);
        bytes[at] = 7;
        match Node::<f64>::decode(&bytes, &ba(), 2) {
            Err(boxagg_common::error::Error::Corrupt(msg)) => {
                assert!(msg.contains("unknown border tag 7"), "{msg}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn record_count_is_checked_before_anything_is_allocated() {
        // The whole payload is a header claiming 65,535 records. The
        // parent reserved `count` records (≈ 12 MB of `IndexRecord`s, or
        // 65,535 words per leaf column) before reading the first one
        // and only then met the end of the page.
        for tag in [0u8, 1] {
            let claim = [tag, 0xFF, 0xFF];
            for dim in 1..=3 {
                match Node::<f64>::decode(&claim, &ba(), dim) {
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
                    Node::<Poly>::decode(&claim, &ba(), dim),
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
            let bytes = encode(&node, 2);
            Node::<f64>::decode(&bytes, &ba(), 2).unwrap();
            let half = &bytes[..3 + (bytes.len() - 3) / 2];
            assert!(matches!(
                Node::<f64>::decode(half, &ba(), 2),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn encoded_leaf_at_capacity_fits_page() {
        let p = PageParams {
            page_size: 256,
            max_value_size: 8,
        };
        let cap = p.leaf_cap(3);
        let mut s = EntrySlab::new(3);
        for i in 0..cap {
            s.push(&Point::new(&[i as f64, 0.0, 1.0]), 2.0);
        }
        assert!(encode(&Node::Leaf(s), 3).len() <= p.page_size);
    }

    #[test]
    fn encoded_index_at_capacity_fits_page() {
        let p = PageParams {
            page_size: 512,
            max_value_size: 8,
        };
        let cap = index_cap(&p, 2);
        assert!(cap >= 3);
        let recs: Vec<IndexRecord<f64>> = (0..cap)
            .map(|i| IndexRecord {
                rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (0.0, 1.0)]),
                child: PageId(i as u64),
                subtotal: 1.0,
                borders: vec![BorderRef::empty(1), BorderRef::empty(1)],
            })
            .collect();
        assert!(encode(&Node::Index(recs), 2).len() <= p.page_size);
    }

    /// A value's exact bits: its encoding.
    fn bits<V: AggValue>(v: &V) -> Vec<u8> {
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        w.into_vec()
    }

    /// What a mutated page at `dim` must do: decode, or refuse with a
    /// typed error. The leaf row scan answers exactly what the decoded
    /// leaf does — from the bytes alone, and from the sums the page
    /// keeps from its second visit on, which only a page that decodes
    /// to a leaf has — declines only values of no fixed width, and
    /// answers nothing the decode refuses. Returns whether the page
    /// decoded.
    fn check_mutant<V: AggValue>(bytes: &[u8], dim: usize, queries: &[Point]) -> bool {
        let node = Node::<V>::decode(bytes, &ba(), dim);
        if let Err(e) = &node {
            assert!(matches!(e, Error::Corrupt(_)), "untyped refusal: {e:?}");
        }
        let sums = paged::leaf_sums::<V>(bytes, dim);
        if sums.is_some() {
            assert!(matches!(node, Ok(Node::Leaf(_))), "sums of {node:?}");
        }
        let kept: &[Option<&LeafSums<V>>] = match &sums {
            Some(sums) => &[None, Some(sums)],
            None => &[None],
        };
        for q in queries {
            for &sums in kept {
                let at = format!("q {q:?}, sums kept {}", sums.is_some());
                match (&node, paged::sum_leaf_rows::<V>(bytes, dim, 0, q, sums)) {
                    (Ok(Node::Leaf(s)), Some(sum)) => {
                        assert_eq!(bits(&sum), bits(&s.dominated_sum(q)), "{at}")
                    }
                    (Ok(Node::Leaf(_)), None) => {
                        assert!(matches!(V::WIDTH, EncodedWidth::AtLeast(_)), "declined")
                    }
                    (_, None) => {}
                    (got, Some(_)) => panic!("the scan answered a page that decoded to {got:?}"),
                }
            }
        }
        node.is_ok()
    }

    /// Seed pages at `(dim, bytes)`: leaves of one to three dimensions —
    /// a sorted 1-d leaf past one running-sum chunk among them — 1-d
    /// index records, and 2-d ones with held leaves and tree borders,
    /// and with held index nodes of one to three records.
    fn seed_pages<V: AggValue>(value: impl Fn(usize) -> V) -> Vec<(usize, Vec<u8>)> {
        let leaf = |dim: usize, n: usize| {
            // A 1-d leaf sorted with ties takes running sums; the others
            // are unsorted, with ties.
            let point = |i: usize| match dim {
                1 => Point::new(&[(i / 2) as f64]),
                _ => Point::from_fn(dim, |d| ((i * (d + 3)) % 17) as f64),
            };
            let slab = EntrySlab::from_entries(dim, (0..n).map(|i| (point(i), value(i))).collect());
            let mut w = ByteWriter::new();
            Node::Leaf(slab).encode(&ba(), dim, &mut w);
            (dim, w.into_vec())
        };
        let rec = |i: usize| IndexRecord {
            rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (-0.0, 1.0)]),
            child: PageId(i as u64 + 1),
            subtotal: value(i),
            borders: vec![
                BorderRef::Held(Node::Leaf(EntrySlab::from_entries(
                    1,
                    (0..i % 4)
                        .map(|j| (Point::new(&[j as f64]), value(j)))
                        .collect(),
                ))),
                BorderRef::Tree(PageId(9)),
            ],
        };
        let mut w = ByteWriter::new();
        Node::Index((0..6).map(rec).collect()).encode(&ba(), 2, &mut w);
        // Directories of one, two and three records.
        let dirs = |i: usize| IndexRecord {
            rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (0.0, 1.0)]),
            child: PageId(i as u64 + 1),
            subtotal: value(i),
            borders: vec![dir(i % 3 + 1, &value), dir((i + 1) % 3 + 1, &value)],
        };
        let mut dir_page = ByteWriter::new();
        Node::Index((0..3).map(dirs).collect()).encode(&ba(), 2, &mut dir_page);
        let one_d = |i: usize| IndexRecord {
            rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0)]),
            child: PageId(i as u64 + 1),
            subtotal: value(i),
            borders: vec![BorderRef::empty(0)],
        };
        let mut one_d_page = ByteWriter::new();
        Node::Index((0..4).map(one_d).collect()).encode(&ba(), 1, &mut one_d_page);
        vec![
            leaf(1, 150),
            leaf(2, 40),
            leaf(3, 9),
            leaf(2, 0),
            (2, w.into_vec()),
            (2, dir_page.into_vec()),
            (1, one_d_page.into_vec()),
        ]
    }

    /// Runs `inputs` seeded mutants of every seed page through
    /// [`check_mutant`], for `f64` and `Poly` values; returns how many
    /// decoded.
    fn fuzz(inputs: usize, seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = seed_pages(|i| [1.5, -0.0, 0.0, -2.25, 1e300][i % 5]);
        let poly = seed_pages(|i| Poly::monomial(i as f64 - 1.5, &[(i % 3) as u8, 1]));
        let mut decoded = 0;
        for i in 0..inputs {
            let (dim, page) = if i % 2 == 0 {
                &flat[i / 2 % flat.len()]
            } else {
                &poly[i / 2 % poly.len()]
            };
            let queries = [
                Point::splat(*dim, f64::INFINITY),
                Point::splat(*dim, 0.0),
                Point::splat(*dim, 7.5),
                Point::from_fn(*dim, |d| [3.0, -0.0, 16.0][d % 3]),
            ];
            let bytes = rng.mutate(page);
            decoded += usize::from(if i % 2 == 0 {
                check_mutant::<f64>(&bytes, *dim, &queries)
            } else {
                check_mutant::<Poly>(&bytes, *dim, &queries)
            });
        }
        decoded
    }

    #[test]
    fn fuzz_mutated_pages_decode_or_refuse_and_the_row_scan_agrees() {
        // 20,000 mutants, ten per seed page and value type per round.
        let decoded = fuzz(20_000, 0xBA_F022);
        assert!(
            (2_000..18_000).contains(&decoded),
            "{decoded} of 20,000 mutants decoded: the mutator is degenerate"
        );
    }

    /// The documented longer run: `cargo test --release -p boxagg-batree
    /// --lib fuzz -- --ignored`.
    #[test]
    #[ignore = "long fuzz run"]
    fn fuzz_long_run() {
        for seed in 0..50 {
            fuzz(200_000, seed);
        }
    }
}
