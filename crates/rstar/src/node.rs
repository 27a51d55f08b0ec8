//! On-page layout of R*-tree nodes.
//!
//! ```text
//! leaf:  [tag=0:u8][count:u16] ([rect: 16·d][agg: f64][payload: var])*
//! index: [tag=1:u8][count:u16] ([rect: 16·d][child: u64][agg: f64][count: u64])*
//! ```
//!
//! Every entry carries a scalar aggregate: for leaf entries it is the
//! object's contribution (its value, or its total "mass" for functional
//! objects); for index entries it is the sum over the subtree, plus an
//! object count — this is the aR-tree augmentation of \[21, 25\] that the
//! paper benchmarks against. A plain R*-tree is the same structure
//! queried without the aggregate shortcut.

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{corrupt, Error, Result};
use boxagg_common::geom::Rect;
use boxagg_common::poly::Poly;
use boxagg_common::value::AggValue;
use boxagg_pagestore::PageId;

/// Extra data stored with each leaf object beyond its box and scalar
/// aggregate. `()` for simple box-sum objects (the scalar is the value);
/// [`Poly`] for functional objects (the value function).
pub trait LeafPayload: Clone + std::fmt::Debug + 'static {
    /// Serializes the payload.
    fn encode(&self, w: &mut ByteWriter);
    /// Deserializes the payload.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;
    /// Encoded size in bytes.
    fn encoded_size(&self) -> usize;
}

impl LeafPayload for () {
    fn encode(&self, _w: &mut ByteWriter) {}
    fn decode(_r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(())
    }
    fn encoded_size(&self) -> usize {
        0
    }
}

impl LeafPayload for Poly {
    fn encode(&self, w: &mut ByteWriter) {
        AggValue::encode(self, w)
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        <Poly as AggValue>::decode(r)
    }
    fn encoded_size(&self) -> usize {
        AggValue::encoded_size(self)
    }
}

/// One indexed object.
#[derive(Debug, Clone)]
pub struct LeafEntry<L> {
    /// The object's bounding box.
    pub rect: Rect,
    /// Scalar aggregate contribution (value, or functional mass).
    pub agg: f64,
    /// Extra payload (e.g. the value function).
    pub payload: L,
}

/// One child pointer with aggregate summary (the aR augmentation).
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Minimum bounding rectangle of the subtree.
    pub rect: Rect,
    /// Child page.
    pub child: PageId,
    /// Sum of `agg` over every object in the subtree.
    pub agg: f64,
    /// Number of objects in the subtree (for COUNT / AVG).
    pub count: u64,
}

/// Decoded node contents.
#[derive(Debug, Clone)]
pub enum Node<L> {
    /// Indexed objects.
    Leaf(Vec<LeafEntry<L>>),
    /// Child summaries.
    Index(Vec<IndexEntry>),
}

/// Sizing parameters.
#[derive(Debug, Clone, Copy)]
pub struct RParams {
    /// Page size in bytes.
    pub page_size: usize,
    /// Worst-case payload encoding size.
    pub max_payload_size: usize,
}

const HEADER: usize = 3;

impl RParams {
    fn payload(&self) -> usize {
        self.page_size.saturating_sub(HEADER)
    }

    /// Worst-case leaf entry bytes.
    pub fn leaf_entry_size(&self, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + self.max_payload_size
    }

    /// Index entry bytes.
    pub fn index_entry_size(&self, dim: usize) -> usize {
        Rect::encoded_size(dim) + 8 + 8 + 8
    }

    /// Maximum objects per leaf.
    pub fn leaf_cap(&self, dim: usize) -> usize {
        self.payload() / self.leaf_entry_size(dim)
    }

    /// Maximum entries per index node.
    pub fn index_cap(&self, dim: usize) -> usize {
        self.payload() / self.index_entry_size(dim)
    }

    /// R* minimum fill (40% of capacity, at least 1).
    pub fn min_fill(cap: usize) -> usize {
        (cap * 2 / 5).max(1)
    }

    /// Rejects unusably small configurations.
    pub fn validate(&self, dim: usize) -> Result<()> {
        if self.leaf_cap(dim) < 2 || self.index_cap(dim) < 4 {
            return Err(Error::RecordTooLarge {
                record: self.leaf_entry_size(dim).max(self.index_entry_size(dim)),
                page: self.payload() / 4,
            });
        }
        Ok(())
    }
}

impl<L: LeafPayload> Node<L> {
    /// Whether the node respects its page capacity.
    pub fn fits(&self, params: &RParams, dim: usize) -> bool {
        match self {
            Node::Leaf(es) => es.len() <= params.leaf_cap(dim),
            Node::Index(es) => es.len() <= params.index_cap(dim),
        }
    }

    /// Serializes into page bytes.
    pub fn encode(&self, dim: usize, w: &mut ByteWriter) {
        match self {
            Node::Leaf(entries) => {
                w.put_u8(0);
                w.put_u16(entries.len() as u16);
                for e in entries {
                    debug_assert_eq!(e.rect.dim(), dim);
                    e.rect.encode(w);
                    w.put_f64(e.agg);
                    e.payload.encode(w);
                }
            }
            Node::Index(entries) => {
                w.put_u8(1);
                w.put_u16(entries.len() as u16);
                for e in entries {
                    e.rect.encode(w);
                    w.put_u64(e.child.0);
                    w.put_f64(e.agg);
                    w.put_u64(e.count);
                }
            }
        }
    }

    /// Deserializes from page bytes.
    pub fn decode(bytes: &[u8], dim: usize) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        let count = r.get_u16()? as usize;
        match tag {
            0 => {
                // `count` is input: check it against the page before
                // allocating for it. A payload may encode to nothing.
                r.expect_records(count, Rect::encoded_size(dim) + 8)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let rect = Rect::decode(&mut r, dim)?;
                    let agg = r.get_f64()?;
                    let payload = L::decode(&mut r)?;
                    entries.push(LeafEntry { rect, agg, payload });
                }
                Ok(Node::Leaf(entries))
            }
            1 => {
                r.expect_records(count, Rect::encoded_size(dim) + 8 + 8 + 8)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let rect = Rect::decode(&mut r, dim)?;
                    let child = PageId(r.get_u64()?);
                    let agg = r.get_f64()?;
                    let cnt = r.get_u64()?;
                    entries.push(IndexEntry {
                        rect,
                        child,
                        agg,
                        count: cnt,
                    });
                }
                Ok(Node::Index(entries))
            }
            t => Err(corrupt(format!("unknown R-tree node tag {t}"))),
        }
    }
}

/// Summary (MBR, aggregate, count) of a node, used to build its parent
/// entry.
pub(crate) fn summarize<L: LeafPayload>(node: &Node<L>) -> (Rect, f64, u64) {
    match node {
        Node::Leaf(entries) => {
            assert!(!entries.is_empty(), "cannot summarize an empty node");
            let mut rect = entries[0].rect;
            let mut agg = 0.0;
            for e in entries {
                rect = rect.union(&e.rect);
                agg += e.agg;
            }
            (rect, agg, entries.len() as u64)
        }
        Node::Index(entries) => {
            assert!(!entries.is_empty(), "cannot summarize an empty node");
            let mut rect = entries[0].rect;
            let mut agg = 0.0;
            let mut count = 0;
            for e in entries {
                rect = rect.union(&e.rect);
                agg += e.agg;
                count += e.count;
            }
            (rect, agg, count)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_round_trip_unit_payload() {
        let node: Node<()> = Node::Leaf(vec![
            LeafEntry {
                rect: Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]),
                agg: 5.0,
                payload: (),
            },
            LeafEntry {
                rect: Rect::from_bounds(&[(4.0, 5.0), (6.0, 7.0)]),
                agg: -2.0,
                payload: (),
            },
        ]);
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        let bytes = w.into_vec();
        match Node::<()>::decode(&bytes, 2).unwrap() {
            Node::Leaf(es) => {
                assert_eq!(es.len(), 2);
                assert_eq!(es[1].agg, -2.0);
                assert_eq!(es[0].rect, Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn leaf_round_trip_poly_payload() {
        let node: Node<Poly> = Node::Leaf(vec![LeafEntry {
            rect: Rect::from_bounds(&[(0.0, 1.0)]),
            agg: 1.5,
            payload: Poly::monomial(2.0, &[1]),
        }]);
        let mut w = ByteWriter::new();
        node.encode(1, &mut w);
        let bytes = w.into_vec();
        match Node::<Poly>::decode(&bytes, 1).unwrap() {
            Node::Leaf(es) => assert_eq!(es[0].payload, Poly::monomial(2.0, &[1])),
            _ => panic!(),
        }
    }

    #[test]
    fn index_round_trip() {
        let node: Node<()> = Node::Index(vec![IndexEntry {
            rect: Rect::from_bounds(&[(0.0, 8.0), (1.0, 9.0)]),
            child: PageId(3),
            agg: 100.0,
            count: 42,
        }]);
        let mut w = ByteWriter::new();
        node.encode(2, &mut w);
        let bytes = w.into_vec();
        match Node::<()>::decode(&bytes, 2).unwrap() {
            Node::Index(es) => {
                assert_eq!(es[0].child, PageId(3));
                assert_eq!(es[0].agg, 100.0);
                assert_eq!(es[0].count, 42);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn record_count_is_checked_before_anything_is_allocated() {
        use boxagg_common::error::Error;
        // A header claiming 65,535 entries and not one byte of them: the
        // parent reserved all 65,535 (≈ 10 MB of leaf entries) before it
        // read the first.
        for tag in [0u8, 1] {
            match Node::<()>::decode(&[tag, 0xFF, 0xFF], 2) {
                Err(Error::Corrupt(msg)) => assert!(msg.contains("record count 65535"), "{msg}"),
                other => panic!("tag {tag}: {other:?}"),
            }
        }
        // A full-count header over half a body, for both kinds.
        let leaf = LeafEntry {
            rect: Rect::from_bounds(&[(0.0, 1.0), (2.0, 3.0)]),
            agg: 5.0,
            payload: (),
        };
        let index = IndexEntry {
            rect: Rect::from_bounds(&[(0.0, 8.0), (1.0, 9.0)]),
            child: PageId(3),
            agg: 100.0,
            count: 42,
        };
        for node in [Node::Leaf(vec![leaf; 12]), Node::Index(vec![index; 12])] {
            let mut w = ByteWriter::new();
            node.encode(2, &mut w);
            Node::<()>::decode(w.as_slice(), 2).unwrap();
            let half = &w.as_slice()[..3 + (w.len() - 3) / 2];
            assert!(matches!(
                Node::<()>::decode(half, 2),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn summarize_unions_and_sums() {
        let node: Node<()> = Node::Leaf(vec![
            LeafEntry {
                rect: Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
                agg: 2.0,
                payload: (),
            },
            LeafEntry {
                rect: Rect::from_bounds(&[(3.0, 4.0), (2.0, 5.0)]),
                agg: 3.0,
                payload: (),
            },
        ]);
        let (rect, agg, count) = summarize(&node);
        assert_eq!(rect, Rect::from_bounds(&[(0.0, 4.0), (0.0, 5.0)]));
        assert_eq!(agg, 5.0);
        assert_eq!(count, 2);
    }

    #[test]
    fn capacities_2d() {
        let p = RParams {
            page_size: 8192,
            max_payload_size: 0,
        };
        // leaf: 32 + 8 = 40 → 204 objects; index: 32+24 = 56 → 146
        assert_eq!(p.leaf_cap(2), 204);
        assert_eq!(p.index_cap(2), 146);
        assert_eq!(RParams::min_fill(10), 4);
        p.validate(2).unwrap();
        assert!(RParams {
            page_size: 64,
            max_payload_size: 512
        }
        .validate(2)
        .is_err());
    }
}
