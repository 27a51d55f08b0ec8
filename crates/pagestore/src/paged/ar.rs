//! The aR-tree's page layout (`crates/rstar`, the §6 baseline):
//!
//! ```text
//! leaf:  [tag=0:u8][count:u16] ([rect: 16·d][value: var])*
//! index: [tag=1:u8][count:u16] ([rect: 16·d][child: u64][agg: f64][count: u64])*
//! ```
//!
//! A leaf is an [`EntrySlab`](boxagg_common::slab::EntrySlab) of
//! dimension `2·d`: an object's box, as [`Rect::corner_point`]
//! `[low…, high…]` — the bytes [`Rect::encode`] writes — and its value.
//! The slab decode does not check a row's corners; the tree turns rows
//! into boxes with [`Rect::from_corner_point`], which refuses what
//! [`Rect::decode`] refuses on an index record.

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::Result;
use boxagg_common::geom::Rect;
use boxagg_common::value::AggValue;

use super::{Layout, PageParams};
use crate::PageId;

/// The aR-tree's layout over `dim`-dimensional boxes. Every node has
/// the same shape, so `at` is unused.
#[derive(Clone, Copy, Debug)]
pub struct Ar {
    /// Dimension of the indexed boxes (`2·dim ≤ MAX_DIM`).
    pub dim: usize,
}

/// One child of an aR-tree index node: its subtree's bounding box,
/// page, aggregate and object count (the aR augmentation of \[21, 25\]).
#[derive(Clone, Debug, PartialEq)]
pub struct ArRecord {
    /// Minimum bounding rectangle of the subtree.
    pub rect: Rect,
    /// Child page.
    pub child: PageId,
    /// Sum of the aggregates of every object in the subtree.
    pub agg: f64,
    /// Number of objects in the subtree (for COUNT / AVG).
    pub count: u64,
}

impl Layout for Ar {
    const NAME: &'static str = "aR-tree";
    type Record<V: AggValue> = ArRecord;

    fn leaf_dim(&self, _at: usize) -> usize {
        2 * self.dim
    }

    fn record_size(&self, _params: &PageParams, _at: usize) -> usize {
        Rect::encoded_size(self.dim) + 8 + 8 + 8
    }

    fn min_record_size<V: AggValue>(&self, _at: usize) -> usize {
        Rect::encoded_size(self.dim) + 8 + 8 + 8
    }

    fn encode_record<V: AggValue>(&self, rec: &ArRecord, _at: usize, w: &mut ByteWriter) {
        debug_assert_eq!(rec.rect.dim(), self.dim);
        rec.rect.encode(w);
        w.put_u64(rec.child.0);
        w.put_f64(rec.agg);
        w.put_u64(rec.count);
    }

    fn decode_record<V: AggValue>(&self, r: &mut ByteReader<'_>, _at: usize) -> Result<ArRecord> {
        Ok(ArRecord {
            rect: Rect::decode(r, self.dim)?,
            child: PageId(r.get_u64()?),
            agg: r.get_f64()?,
            count: r.get_u64()?,
        })
    }

    fn child<V: AggValue>(rec: &ArRecord) -> PageId {
        rec.child
    }

    fn border_trees<V: AggValue>(
        &self,
        _rec: &ArRecord,
        _at: usize,
        _f: impl FnMut(usize, PageId) -> Result<()>,
    ) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paged::Node;
    use boxagg_common::error::Error;
    use boxagg_common::poly::Poly;
    use boxagg_common::slab::EntrySlab;

    type ArNode<L> = Node<(f64, L), Ar>;

    fn encode<L: AggValue>(node: &ArNode<L>, dim: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        node.encode(&Ar { dim }, 0, &mut w);
        w.into_vec()
    }

    fn leaf<L: AggValue>(entries: &[(Rect, (f64, L))]) -> ArNode<L> {
        let dim = 2 * entries[0].0.dim();
        let rows = entries.iter().map(|(r, v)| (r.corner_point(), v.clone()));
        Node::Leaf(EntrySlab::from_entries(dim, rows.collect()))
    }

    #[test]
    fn ar_pages_round_trip_in_the_record_layout() {
        let boxes = [
            Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]),
            Rect::from_bounds(&[(4.0, 5.0), (6.0, 7.0)]),
        ];
        // A simple leaf: `[rect][agg]` per object.
        let node = leaf(&[(boxes[0], (5.0, ())), (boxes[1], (-2.0, ()))]);
        let bytes = encode(&node, 2);
        let mut want = ByteWriter::new();
        want.put_u8(0);
        want.put_u16(2);
        for (r, agg) in boxes.iter().zip([5.0, -2.0]) {
            r.encode(&mut want);
            want.put_f64(agg);
        }
        assert_eq!(bytes, want.as_slice());
        match ArNode::<()>::decode(&bytes, &Ar { dim: 2 }, 0).unwrap() {
            Node::Leaf(s) => {
                assert_eq!(s.len(), 2);
                assert_eq!(Rect::from_corner_point(&s.point(1)).unwrap(), boxes[1]);
                assert_eq!(s.value(1).0, -2.0);
            }
            other => panic!("{other:?}"),
        }

        // A functional leaf: `[rect][mass][poly]`.
        let f = Poly::monomial(2.0, &[1]);
        let unit = Rect::from_bounds(&[(0.0, 1.0)]);
        let bytes = encode(&leaf(&[(unit, (1.5, f.clone()))]), 1);
        let mut want = ByteWriter::new();
        want.put_u8(0);
        want.put_u16(1);
        unit.encode(&mut want);
        want.put_f64(1.5);
        f.encode(&mut want);
        assert_eq!(bytes, want.as_slice());
        match ArNode::<Poly>::decode(&bytes, &Ar { dim: 1 }, 0).unwrap() {
            Node::Leaf(s) => assert_eq!(s.value(0), &(1.5, f)),
            other => panic!("{other:?}"),
        }

        // An index node: `[rect][child][agg][count]` per record.
        let rec = ArRecord {
            rect: Rect::from_bounds(&[(0.0, 8.0), (1.0, 9.0)]),
            child: PageId(3),
            agg: 100.0,
            count: 42,
        };
        let bytes = encode(&ArNode::<()>::Index(vec![rec.clone()]), 2);
        let mut want = ByteWriter::new();
        want.put_u8(1);
        want.put_u16(1);
        rec.rect.encode(&mut want);
        want.put_u64(3);
        want.put_f64(100.0);
        want.put_u64(42);
        assert_eq!(bytes, want.as_slice());
        match ArNode::<()>::decode(&bytes, &Ar { dim: 2 }, 0).unwrap() {
            Node::Index(recs) => assert_eq!(recs, vec![rec]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn index_boxes_with_corners_out_of_order_are_corrupt() {
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_u16(1);
        for c in [5.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0] {
            w.put_f64(c);
        }
        assert!(matches!(
            ArNode::<()>::decode(w.as_slice(), &Ar { dim: 2 }, 0),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn capacities_at_8k_are_the_baselines() {
        // Leaf: 32 + 8 bytes → 204 objects; index: 32 + 24 → 146.
        let params = PageParams {
            page_size: 8192,
            max_value_size: 8,
        };
        let ar = Ar { dim: 2 };
        assert_eq!(params.leaf_cap(ar.leaf_dim(0)), 204);
        assert_eq!(params.payload() / ar.record_size(&params, 0), 146);
    }
}
