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

/// The BA-tree's page layout. A node's `at` is its dimension: the
/// border trees of a `d`-dim node are `(d−1)`-dim BA-trees.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ba;

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

    /// Record bytes excluding inline border entries: box + child +
    /// subtotal + per-border header (tag byte + the larger of a count or
    /// a page id).
    fn index_record_base_size(params: &PageParams, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + params.max_value_size + dim * (1 + 8)
    }
}

impl Layout for Ba {
    const NAME: &'static str = "BA-tree";
    type Record<V: AggValue> = IndexRecord<V>;

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

    fn decode_record<V: AggValue>(
        &self,
        r: &mut ByteReader<'_>,
        dim: usize,
    ) -> Result<IndexRecord<V>> {
        let rect = Rect::decode(r, dim)?;
        let child = PageId(r.get_u64()?);
        let mut borders = Vec::with_capacity(dim);
        for _ in 0..dim {
            match r.get_u8()? {
                0 => {
                    let n = r.get_u16()? as usize;
                    borders.push(BorderRef::Inline(EntrySlab::decode_entries(r, dim - 1, n)?));
                }
                1 => borders.push(BorderRef::Tree(PageId(r.get_u64()?))),
                t => return Err(corrupt(format!("unknown border tag {t}"))),
            }
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

    fn border_trees<V: AggValue>(
        &self,
        r: &IndexRecord<V>,
        dim: usize,
        mut f: impl FnMut(usize, PageId) -> Result<()>,
    ) -> Result<()> {
        for b in &r.borders {
            if let BorderRef::Tree(id) = b {
                f(dim - 1, *id)?;
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
        (entry.kind == RootKind::BaTree).then_some((Ba, entry.dims as usize))
    }
}

/// One border of an index record: the `(d−1)`-dimensional weighted point
/// set below the record's low corner in one dimension's direction.
///
/// Small borders live *inline* in the record (§4's multiple-borders-per-
/// page optimization); beyond [`Ba::inline_border_cap`] they spill
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

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::error::Error;
    use boxagg_common::poly::Poly;
    use boxagg_common::rng::StdRng;
    use boxagg_common::value::EncodedWidth;

    fn params() -> PageParams {
        PageParams {
            page_size: 8192,
            max_value_size: 8,
        }
    }

    fn index_cap(p: &PageParams, dim: usize) -> usize {
        p.payload() / Ba.record_size(p, dim)
    }

    fn encode(node: &Node<f64>, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        node.encode(&Ba, dim, &mut w);
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
        assert_eq!(Ba.record_size(&p, 2), 66 + 2 * 5 * 16);
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
        let inline = EntrySlab::from_slice(1, &entries);
        let rec = IndexRecord {
            rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            child: PageId(1),
            subtotal: 0.5,
            borders: vec![BorderRef::Inline(inline.clone()), BorderRef::Inline(inline)],
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
                BorderRef::Inline(EntrySlab::from_slice(
                    1,
                    &[(Point::new(&[0.25]), Poly::constant(3.0))],
                )),
                BorderRef::Tree(PageId(7)),
            ],
        };
        let node: Node<Poly> = Node::Index(vec![rec]);
        let mut w = ByteWriter::new();
        node.encode(&Ba, 2, &mut w);
        match Node::<Poly>::decode(w.as_slice(), &Ba, 2).unwrap() {
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
        assert!(Node::<f64>::decode(&bytes, &Ba, 2).is_err());
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
        match Node::<f64>::decode(&bytes, &Ba, 2) {
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
                match Node::<f64>::decode(&claim, &Ba, dim) {
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
                    Node::<Poly>::decode(&claim, &Ba, dim),
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
            Node::<f64>::decode(&bytes, &Ba, 2).unwrap();
            let half = &bytes[..3 + (bytes.len() - 3) / 2];
            assert!(matches!(
                Node::<f64>::decode(half, &Ba, 2),
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
    /// leaf does, declines only values of no fixed width, and answers
    /// nothing the decode refuses. Returns whether the page decoded.
    fn check_mutant<V: AggValue>(bytes: &[u8], dim: usize, queries: &[Point]) -> bool {
        let node = Node::<V>::decode(bytes, &Ba, dim);
        if let Err(e) = &node {
            assert!(matches!(e, Error::Corrupt(_)), "untyped refusal: {e:?}");
        }
        for q in queries {
            match (&node, paged::sum_leaf_rows::<V>(bytes, dim, 0, q)) {
                (Ok(Node::Leaf(s)), Some(sum)) => {
                    assert_eq!(bits(&sum), bits(&s.dominated_sum(q)), "q {q:?}")
                }
                (Ok(Node::Leaf(_)), None) => {
                    assert!(matches!(V::WIDTH, EncodedWidth::AtLeast(_)), "declined")
                }
                (_, None) => {}
                (got, Some(_)) => panic!("the scan answered a page that decoded to {got:?}"),
            }
        }
        node.is_ok()
    }

    /// Seed pages at `(dim, bytes)`: leaves of one to three dimensions —
    /// a sorted 1-d leaf past one running-sum chunk among them — and
    /// index records with inline and tree borders.
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
            Node::Leaf(slab).encode(&Ba, dim, &mut w);
            (dim, w.into_vec())
        };
        let rec = |i: usize| IndexRecord {
            rect: Rect::from_bounds(&[(i as f64, i as f64 + 1.0), (-0.0, 1.0)]),
            child: PageId(i as u64 + 1),
            subtotal: value(i),
            borders: vec![
                BorderRef::Inline(EntrySlab::from_entries(
                    1,
                    (0..i % 4)
                        .map(|j| (Point::new(&[j as f64]), value(j)))
                        .collect(),
                )),
                BorderRef::Tree(PageId(9)),
            ],
        };
        let mut w = ByteWriter::new();
        Node::Index((0..6).map(rec).collect()).encode(&Ba, 2, &mut w);
        vec![
            leaf(1, 150),
            leaf(2, 40),
            leaf(3, 9),
            leaf(2, 0),
            (2, w.into_vec()),
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
