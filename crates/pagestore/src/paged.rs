//! One paged-node layer for every tree.
//!
//! The paper's three disk-resident indexes — the ECDF-B-trees (§4), the
//! BA-tree (§5) and the aR-tree it is measured against (§6) — store the
//! same kind of page:
//!
//! ```text
//! leaf:   [tag=0:u8][count:u16] ([point: 8·d][value: var])*
//! index:  [tag=1:u8][count:u16] (record)*
//! ```
//!
//! This module owns everything around that page: the header and the
//! leaf codec (an [`EntrySlab`]), the capacity arithmetic, the page
//! context [`Ctx`] every tree operation threads, and the catalog handle
//! [`PagedTree`]. A tree supplies only what differs, as a [`Layout`]:
//! its index-record codec and worst-case record size, and how a record
//! names its child and border trees; a tree the catalog records also
//! names its [`RootKind`] ([`Cataloged`]). Everything is monomorphised
//! per layout and value type; the node read path holds no `dyn`.
//!
//! A node's place in its tree family is one number, `at`: a BA-tree
//! node's dimension (its border trees sit one dimension lower), or an
//! ECDF-B-tree node's level (its border trees sit one level deeper).
//! The aR-tree's layout, [`Ar`], lives here too: its leaf point is an
//! object's box (`d`-dim corners as one `2·d`-dim point), and its
//! nodes have one shape at every `at`.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{corrupt, invalid_arg, Error, Result};
use boxagg_common::geom::Point;
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;

use crate::{PageId, ReadHandle, RootEntry, RootKind, SharedStore, Visit};

mod ar;

pub use ar::{Ar, ArRecord};

/// Per-node header: tag byte + record count.
const HEADER: usize = 3;

const LEAF_TAG: u8 = 0;
const INDEX_TAG: u8 = 1;

/// Sizing of one tree family's pages (a tree and all its border trees).
#[derive(Clone, Copy, Debug)]
pub struct PageParams {
    /// Usable bytes per page (the store's
    /// [`payload_size`](SharedStore::payload_size)).
    pub page_size: usize,
    /// Worst-case encoded size of one aggregate value, in bytes.
    pub max_value_size: usize,
}

impl PageParams {
    /// Bytes per page after the node header.
    pub fn payload(&self) -> usize {
        self.page_size.saturating_sub(HEADER)
    }

    /// Worst-case bytes of one leaf entry in `dim` dimensions.
    fn leaf_entry_size(&self, dim: usize) -> usize {
        Point::encoded_size(dim) + self.max_value_size
    }

    /// Maximum leaf entries per page.
    pub fn leaf_cap(&self, dim: usize) -> usize {
        self.payload() / self.leaf_entry_size(dim)
    }

    /// [`Error::RecordTooLarge`] unless a page holds `min` records of
    /// `record` bytes.
    fn require(&self, record: usize, min: usize) -> Result<()> {
        if self.payload() / record < min {
            return Err(Error::RecordTooLarge {
                record,
                page: self.payload() / min,
            });
        }
        Ok(())
    }
}

/// What a tree supplies to the shared layer: everything about its index
/// records and its error name.
pub trait Layout: Copy + Debug + Send + Sync + 'static {
    /// The tree's name in errors.
    const NAME: &'static str;

    /// One index record over values `V`.
    type Record<V: AggValue>: Clone + Debug + Send + Sync + 'static;

    /// The layout for a family whose pages `params` sizes: a layout
    /// whose record codec depends on the page size takes it here
    /// ([`PagedTree::open_in`] calls it). Unchanged by default.
    fn sized(self, _params: &PageParams) -> Self {
        self
    }

    /// Dimension of a leaf's points at `at`.
    fn leaf_dim(&self, at: usize) -> usize;

    /// Worst-case encoded bytes of one index record at `at`; a node
    /// within the capacity it implies always fits its page.
    fn record_size(&self, params: &PageParams, at: usize) -> usize;

    /// Fewest encoded bytes one index record at `at` can take. A page's
    /// record count is input: the decoder checks it against this before
    /// allocating for it.
    fn min_record_size<V: AggValue>(&self, at: usize) -> usize;

    /// Serializes one index record.
    fn encode_record<V: AggValue>(&self, rec: &Self::Record<V>, at: usize, w: &mut ByteWriter);

    /// Deserializes one index record.
    fn decode_record<V: AggValue>(
        &self,
        r: &mut ByteReader<'_>,
        at: usize,
    ) -> Result<Self::Record<V>>;

    /// The record's child node, a node at the same `at`.
    fn child<V: AggValue>(rec: &Self::Record<V>) -> PageId;

    /// Calls `f` with the `at` and root of every border tree the record
    /// owns, in the order they are freed.
    fn border_trees<V: AggValue>(
        &self,
        rec: &Self::Record<V>,
        at: usize,
        f: impl FnMut(usize, PageId) -> Result<()>,
    ) -> Result<()>;
}

/// A layout whose trees the store catalog records by name
/// ([`PagedTree::persist_as`], [`PagedTree::open_named`]).
pub trait Cataloged: Layout {
    /// The catalog kind a tree of this layout is recorded under.
    fn root_kind(&self) -> RootKind;

    /// The layout a catalog entry describes and its root's `at`, or
    /// `None` when the entry belongs to another kind of index.
    fn from_entry(entry: &RootEntry) -> Option<(Self, usize)>;
}

/// Decoded node contents.
#[derive(Clone, Debug)]
pub enum Node<V: AggValue, L: Layout> {
    /// Weighted points, stored struct-of-arrays for the dominance scans.
    /// The on-page bytes are the interleaved per-entry point/value
    /// layout.
    Leaf(EntrySlab<V>),
    /// Index records.
    Index(Vec<L::Record<V>>),
}

impl<V: AggValue, L: Layout> Node<V, L> {
    /// An empty leaf of `dim`-dimensional points.
    pub fn empty_leaf(dim: usize) -> Self {
        Node::Leaf(EntrySlab::new(dim))
    }

    /// Serializes the node at `at` into page bytes.
    pub fn encode(&self, layout: &L, at: usize, w: &mut ByteWriter) {
        match self {
            Node::Leaf(entries) => {
                debug_assert_eq!(entries.dim(), layout.leaf_dim(at));
                w.put_u8(LEAF_TAG);
                w.put_u16(entries.len() as u16);
                entries.encode_entries(w);
            }
            Node::Index(records) => {
                w.put_u8(INDEX_TAG);
                w.put_u16(records.len() as u16);
                for rec in records {
                    layout.encode_record(rec, at, w);
                }
            }
        }
    }

    /// Deserializes a node at `at` from page bytes.
    pub fn decode(bytes: &[u8], layout: &L, at: usize) -> Result<Self> {
        let mut r = ByteReader::new(bytes);
        let tag = r.get_u8()?;
        let count = r.get_u16()? as usize;
        match tag {
            // Straight into slab columns — no intermediate tuple vector.
            LEAF_TAG => Ok(Node::Leaf(EntrySlab::decode_entries(
                &mut r,
                layout.leaf_dim(at),
                count,
            )?)),
            INDEX_TAG => {
                r.expect_records(count, layout.min_record_size::<V>(at))?;
                let mut records = Vec::with_capacity(count);
                for _ in 0..count {
                    records.push(layout.decode_record(&mut r, at)?);
                }
                Ok(Node::Index(records))
            }
            t => Err(corrupt(format!("unknown {} node tag {t}", L::NAME))),
        }
    }
}

/// The scan [`Ctx::read_or_sum`] offers: the sum of the values of the
/// entries of the leaf page `bytes` dominated by `q` in dimensions
/// `from..dim`, straight from its rows
/// ([`EntrySlab::sum_dominated_rows`]). `None` for a page that is not a
/// leaf, and wherever the row scan declines: the read then decodes.
pub fn sum_leaf_rows<V: AggValue>(bytes: &[u8], dim: usize, from: usize, q: &Point) -> Option<V> {
    match bytes {
        [LEAF_TAG, lo, hi, rows @ ..] => {
            let count = usize::from(u16::from_le_bytes([*lo, *hi]));
            EntrySlab::sum_dominated_rows(rows, dim, count, from, q)
        }
        _ => None,
    }
}

/// The page context threaded through every tree operation.
///
/// `pages` is where the tree was opened from — the live store or a
/// pinned commit epoch (see [`ReadHandle`]). Reads go through it
/// blindly; every mutation asks it for the writable store first and so
/// fails with a typed error on a pinned tree.
#[derive(Clone, Copy)]
pub struct Ctx<'a, L> {
    /// Where pages are read from.
    pub pages: &'a ReadHandle,
    /// The family's page sizing.
    pub params: &'a PageParams,
    /// The tree's layout.
    pub layout: L,
}

impl<'a, L: Layout> Ctx<'a, L> {
    /// The store to mutate, or `Error::ReadOnly` on a pinned tree.
    pub fn store(&self) -> Result<&'a SharedStore> {
        self.pages.writable()
    }

    /// Maximum leaf entries per page at `at`.
    pub fn leaf_cap(&self, at: usize) -> usize {
        self.params.leaf_cap(self.layout.leaf_dim(at))
    }

    /// Maximum index records per page at `at`.
    pub fn index_cap(&self, at: usize) -> usize {
        self.params.payload() / self.layout.record_size(self.params, at)
    }

    /// Whether `node` respects the page capacity for its kind at `at`.
    pub fn fits<V: AggValue>(&self, node: &Node<V, L>, at: usize) -> bool {
        match node {
            Node::Leaf(entries) => entries.len() <= self.leaf_cap(at),
            Node::Index(records) => records.len() <= self.index_cap(at),
        }
    }

    /// Shared read of a decoded node. Live trees take the decode their
    /// page's buffer frame holds (warm traversals skip [`Node::decode`]
    /// entirely; byte-level I/O accounting is unchanged, see
    /// [`SharedStore::read_node`]); pinned trees decode the pinned
    /// epoch's page image.
    pub fn read_shared<V: AggValue>(&self, id: PageId, at: usize) -> Result<Arc<Node<V, L>>> {
        self.pages
            .read_node(id, |bytes| Node::decode(bytes, &self.layout, at))
    }

    /// A node read for a dominance sum: the node at `at`, or, on a leaf
    /// page's first visit ([`ReadHandle::visit_node`]), the sum of the
    /// values of its entries dominated by `q` in dimensions `from..`,
    /// added in entry order from `V::zero()` straight from the page's
    /// bytes ([`EntrySlab::sum_dominated_rows`]) — what the decoded
    /// leaf's [`sum_dominated_from_into`](EntrySlab::sum_dominated_from_into)
    /// into a zero accumulator gives, to the bit. Index pages, and leaves
    /// whose values have no fixed width, read the node.
    pub fn read_or_sum<V: AggValue>(
        &self,
        id: PageId,
        at: usize,
        from: usize,
        q: &Point,
    ) -> Result<Visit<Node<V, L>, V>> {
        let dim = self.layout.leaf_dim(at);
        self.pages.visit_node(
            id,
            |bytes| Node::decode(bytes, &self.layout, at),
            |bytes| sum_leaf_rows(bytes, dim, from, q),
        )
    }

    /// Owned read for mutation paths: a deep clone of the shared decode
    /// (cloning is cheaper than re-parsing bytes on a cache hit).
    pub fn read<V: AggValue>(&self, id: PageId, at: usize) -> Result<Node<V, L>> {
        Ok((*self.read_shared::<V>(id, at)?).clone())
    }

    /// Encodes `node` into page `id`.
    pub fn write<V: AggValue>(&self, id: PageId, at: usize, node: &Node<V, L>) -> Result<()> {
        debug_assert!(self.fits(node, at), "writing oversized node");
        let mut w = ByteWriter::with_capacity(self.params.page_size);
        node.encode(&self.layout, at, &mut w);
        self.store()?.write_page(id, w.as_slice())
    }

    /// Allocates a page and encodes `node` into it.
    pub fn write_new<V: AggValue>(&self, at: usize, node: &Node<V, L>) -> Result<PageId> {
        let id = self.store()?.allocate()?;
        self.write(id, at, node)?;
        Ok(id)
    }

    /// Allocates a page holding an empty leaf at `at`.
    pub fn new_leaf<V: AggValue>(&self, at: usize) -> Result<PageId> {
        self.write_new::<V>(at, &Node::empty_leaf(self.layout.leaf_dim(at)))
    }

    /// Appends every leaf entry of the tree at `root` (NULL = empty) to
    /// `out`, leaves left to right.
    pub fn enumerate<V: AggValue>(
        &self,
        at: usize,
        root: PageId,
        out: &mut Vec<(Point, V)>,
    ) -> Result<()> {
        if root.is_null() {
            return Ok(());
        }
        match &*self.read_shared::<V>(root, at)? {
            Node::Leaf(entries) => out.extend(entries.iter().map(|(p, v)| (p, v.clone()))),
            Node::Index(records) => {
                for rec in records {
                    self.enumerate(at, L::child(rec), out)?;
                }
            }
        }
        Ok(())
    }

    /// Frees every page of the tree at `root` (NULL = empty): each
    /// record's child subtree, then its border trees, then the node.
    pub fn free_tree<V: AggValue>(&self, at: usize, root: PageId) -> Result<()> {
        if root.is_null() {
            return Ok(());
        }
        if let Node::Index(records) = &*self.read_shared::<V>(root, at)? {
            for rec in records {
                self.free_tree::<V>(at, L::child(rec))?;
                self.layout
                    .border_trees(rec, at, |sub_at, sub| self.free_tree::<V>(sub_at, sub))?;
            }
        }
        self.store()?.free(root)
    }
}

/// A tree's handle on its pages and its catalog entry: where pages come
/// from, the family's sizing and layout, the root and the length.
pub struct PagedTree<V, L> {
    pages: ReadHandle,
    params: PageParams,
    layout: L,
    root_at: usize,
    /// The root page (NULL until one is written).
    pub root: PageId,
    /// Number of inserted points.
    pub len: usize,
    _values: PhantomData<fn() -> V>,
}

impl<V: AggValue, L: Layout> PagedTree<V, L> {
    /// A handle over `pages` for a tree whose root sits at `root_at`,
    /// with no root page yet and length 0.
    /// Refuses sizing under which a page cannot hold two leaf entries or
    /// three index records at `root_at`; capacities only grow towards
    /// the border trees, so that covers the whole family.
    pub fn open_in(
        pages: ReadHandle,
        layout: L,
        root_at: usize,
        max_value_size: usize,
    ) -> Result<Self> {
        let params = PageParams {
            page_size: pages.store().payload_size(),
            max_value_size,
        };
        params.require(params.leaf_entry_size(layout.leaf_dim(root_at)), 2)?;
        params.require(layout.record_size(&params, root_at), 3)?;
        let layout = layout.sized(&params);
        Ok(Self {
            pages,
            params,
            layout,
            root_at,
            root: PageId::NULL,
            len: 0,
            _values: PhantomData,
        })
    }

    /// The page context for this tree's operations.
    pub fn ctx(&self) -> Ctx<'_, L> {
        Ctx {
            pages: &self.pages,
            params: &self.params,
            layout: self.layout,
        }
    }

    /// The shared page store.
    pub fn store(&self) -> &SharedStore {
        self.pages.store()
    }

    /// Every indexed point, leaves left to right.
    pub fn enumerate(&self) -> Result<Vec<(Point, V)>> {
        let mut out = Vec::new();
        self.ctx().enumerate(self.root_at, self.root, &mut out)?;
        Ok(out)
    }

    /// Frees every page of the tree.
    pub fn destroy(self) -> Result<()> {
        self.ctx().free_tree::<V>(self.root_at, self.root)
    }
}

impl<V: AggValue, L: Cataloged> PagedTree<V, L> {
    /// Reopens the tree recorded under `name` in the catalog `pages`
    /// sees, returning it with its catalog entry. A missing name, or an
    /// entry of another kind, is a typed
    /// [`InvalidArgument`](Error::InvalidArgument) naming the kind
    /// wanted.
    pub fn open_named(pages: impl Into<ReadHandle>, name: &str) -> Result<(Self, RootEntry)> {
        let pages = pages.into();
        let entry = pages.root(name)?.ok_or_else(|| {
            invalid_arg(format!(
                "no root named {name:?} in the store catalog (wanted a {})",
                L::NAME
            ))
        })?;
        let (layout, root_at) = L::from_entry(&entry).ok_or_else(|| {
            invalid_arg(format!(
                "root {name:?} is a {:?}, not a {}",
                entry.kind,
                L::NAME
            ))
        })?;
        let mut tree = Self::open_in(pages, layout, root_at, entry.max_value_size as usize)?;
        tree.root = entry.root;
        tree.len = entry.len as usize;
        Ok((tree, entry))
    }

    /// Records root, length, sizing and `bounds` (one pair per
    /// dimension) under `name` in the store's catalog, durable at the
    /// store's next commit.
    pub fn persist_as(&self, name: &str, bounds: Vec<(f64, f64)>) -> Result<()> {
        self.pages.writable()?.set_root(
            name,
            RootEntry {
                root: self.root,
                len: self.len as u64,
                dims: bounds.len() as u32,
                max_value_size: self.params.max_value_size as u32,
                kind: self.layout.root_kind(),
                bounds,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;

    /// A toy layout: leaves hold 2-d points at every `at`; a record is a
    /// router key, a child and one border tree a step deeper.
    #[derive(Clone, Copy, Debug)]
    struct Toy;

    #[derive(Clone, Debug, PartialEq)]
    struct Rec {
        key: f64,
        child: PageId,
        border: PageId,
    }

    impl Layout for Toy {
        const NAME: &'static str = "toy tree";
        type Record<V: AggValue> = Rec;

        fn leaf_dim(&self, _at: usize) -> usize {
            2
        }

        fn record_size(&self, _params: &PageParams, _at: usize) -> usize {
            24
        }

        fn min_record_size<V: AggValue>(&self, _at: usize) -> usize {
            24
        }

        fn encode_record<V: AggValue>(&self, rec: &Rec, _at: usize, w: &mut ByteWriter) {
            w.put_f64(rec.key);
            w.put_u64(rec.child.0);
            w.put_u64(rec.border.0);
        }

        fn decode_record<V: AggValue>(&self, r: &mut ByteReader<'_>, _at: usize) -> Result<Rec> {
            Ok(Rec {
                key: r.get_f64()?,
                child: PageId(r.get_u64()?),
                border: PageId(r.get_u64()?),
            })
        }

        fn child<V: AggValue>(rec: &Rec) -> PageId {
            rec.child
        }

        fn border_trees<V: AggValue>(
            &self,
            rec: &Rec,
            at: usize,
            mut f: impl FnMut(usize, PageId) -> Result<()>,
        ) -> Result<()> {
            f(at + 1, rec.border)
        }
    }

    impl Cataloged for Toy {
        fn root_kind(&self) -> RootKind {
            RootKind::EcdfQuery
        }

        fn from_entry(entry: &RootEntry) -> Option<(Self, usize)> {
            (entry.kind == RootKind::EcdfQuery).then_some((Toy, 0))
        }
    }

    type ToyNode = Node<f64, Toy>;

    fn points(n: usize, from: f64) -> Vec<(Point, f64)> {
        (0..n)
            .map(|i| {
                (
                    Point::new(&[from + i as f64, -0.5 * i as f64]),
                    1.0 + i as f64,
                )
            })
            .collect()
    }

    fn encode(node: &ToyNode) -> Vec<u8> {
        let mut w = ByteWriter::new();
        node.encode(&Toy, 0, &mut w);
        w.into_vec()
    }

    #[test]
    fn node_round_trip() {
        // Leaf: the slab codec writes the interleaved per-entry layout.
        let pts = points(3, 1.0);
        let leaf: ToyNode = Node::Leaf(EntrySlab::from_slice(2, &pts));
        let bytes = encode(&leaf);
        let mut tuple = ByteWriter::new();
        tuple.put_u8(LEAF_TAG);
        tuple.put_u16(pts.len() as u16);
        for (p, v) in &pts {
            p.encode(&mut tuple);
            v.encode(&mut tuple);
        }
        assert_eq!(bytes, tuple.as_slice());
        match ToyNode::decode(&bytes, &Toy, 0).unwrap() {
            Node::Leaf(entries) => assert_eq!(entries.to_entries(), pts),
            other => panic!("leaf decoded as {other:?}"),
        }
        assert_eq!(encode(&ToyNode::decode(&bytes, &Toy, 0).unwrap()), bytes);

        // Index: header, then the layout's records back to back.
        let recs = vec![
            Rec {
                key: -1.5,
                child: PageId(4),
                border: PageId(9),
            },
            Rec {
                key: 2.0,
                child: PageId(5),
                border: PageId::NULL,
            },
        ];
        let bytes = encode(&Node::Index(recs.clone()));
        assert_eq!(bytes.len(), HEADER + 2 * 24);
        assert_eq!(&bytes[..HEADER], &[INDEX_TAG, 2, 0]);
        match ToyNode::decode(&bytes, &Toy, 0).unwrap() {
            Node::Index(back) => assert_eq!(back, recs),
            other => panic!("index decoded as {other:?}"),
        }
    }

    #[test]
    fn decode_refuses_unknown_tags_and_counts_the_page_cannot_hold() {
        match ToyNode::decode(&[9, 0, 0], &Toy, 0) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains("unknown toy tree node tag 9"), "{msg}")
            }
            other => panic!("{other:?}"),
        }
        for tag in [LEAF_TAG, INDEX_TAG] {
            assert!(
                matches!(
                    ToyNode::decode(&[tag, 0xFF, 0xFF], &Toy, 0),
                    Err(Error::Corrupt(_))
                ),
                "tag {tag}"
            );
        }
        let bytes = encode(&Node::Leaf(EntrySlab::from_slice(2, &points(5, 0.0))));
        assert!(matches!(
            ToyNode::decode(&bytes[..bytes.len() - 1], &Toy, 0),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn ctx_writes_reads_walks_and_frees_a_tree() {
        let store = SharedStore::open(&StoreConfig::small(256, 16)).unwrap();
        let tree: PagedTree<f64, Toy> =
            PagedTree::open_in(store.clone().into(), Toy, 0, 8).unwrap();
        let ctx = tree.ctx();
        // Capacity: (payload − header) / (16 + 8) per leaf, / 24 per index.
        let payload = store.payload_size() - HEADER;
        assert_eq!(ctx.leaf_cap(0), payload / 24);
        assert_eq!(ctx.index_cap(0), payload / 24);
        let full: ToyNode = Node::Leaf(EntrySlab::from_slice(2, &points(ctx.leaf_cap(0), 0.0)));
        assert!(ctx.fits(&full, 0));
        let over: ToyNode = Node::Leaf(EntrySlab::from_slice(2, &points(ctx.leaf_cap(0) + 1, 0.0)));
        assert!(!ctx.fits(&over, 0));

        // Root → two leaves; the first record owns a border tree.
        let before = store.live_pages();
        let leaf = |pts: &[(Point, f64)], at: usize| -> PageId {
            let id = ctx.new_leaf::<f64>(at).unwrap();
            ctx.write::<f64>(id, at, &Node::Leaf(EntrySlab::from_slice(2, pts)))
                .unwrap();
            id
        };
        let (lo, hi) = (points(3, 0.0), points(2, 10.0));
        let (a, b, border) = (leaf(&lo, 0), leaf(&hi, 0), leaf(&points(4, 0.0), 1));
        let root = store.allocate().unwrap();
        let recs = vec![
            Rec {
                key: 2.0,
                child: a,
                border,
            },
            Rec {
                key: 11.0,
                child: b,
                border: PageId::NULL,
            },
        ];
        ctx.write::<f64>(root, 0, &Node::Index(recs.clone()))
            .unwrap();
        assert_eq!(store.live_pages(), before + 4);

        match ctx.read::<f64>(root, 0).unwrap() {
            Node::Index(back) => assert_eq!(back, recs),
            other => panic!("{other:?}"),
        }
        let mut all = Vec::new();
        ctx.enumerate::<f64>(0, root, &mut all).unwrap();
        assert_eq!(
            all,
            [lo, hi].concat(),
            "leaves left to right, borders skipped"
        );
        ctx.free_tree::<f64>(0, root).unwrap();
        assert_eq!(
            store.live_pages(),
            before,
            "children, border and node freed"
        );
        ctx.free_tree::<f64>(0, PageId::NULL).unwrap();
    }

    #[test]
    fn catalog_handle_round_trips_and_checks_the_kind() {
        let store = SharedStore::open(&StoreConfig::small(512, 16).with_wal(true)).unwrap();
        let mut tree: PagedTree<f64, Toy> =
            PagedTree::open_in(store.clone().into(), Toy, 0, 8).unwrap();
        tree.root = tree.ctx().new_leaf::<f64>(0).unwrap();
        tree.len = 7;
        tree.persist_as("t", vec![(0.0, 1.0), (2.0, 3.0)]).unwrap();
        let (back, entry) = PagedTree::<f64, Toy>::open_named(&store, "t").unwrap();
        assert_eq!((back.root, back.len), (tree.root, 7));
        assert_eq!(back.ctx().params.max_value_size, 8);
        assert_eq!(entry.kind, RootKind::EcdfQuery);
        assert_eq!(entry.dims, 2);
        assert_eq!(entry.bounds, vec![(0.0, 1.0), (2.0, 3.0)]);

        let refused = |name: &str| match PagedTree::<f64, Toy>::open_named(&store, name) {
            Err(Error::InvalidArgument(msg)) => msg,
            Err(other) => panic!("{name}: {other:?}"),
            Ok(_) => panic!("{name}: opened"),
        };
        let msg = refused("missing");
        assert!(
            msg.contains("\"missing\"") && msg.contains("toy tree"),
            "{msg}"
        );
        store
            .set_root(
                "other",
                RootEntry {
                    kind: RootKind::BaTree,
                    ..entry
                },
            )
            .unwrap();
        let msg = refused("other");
        assert!(msg.contains("BaTree") && msg.contains("toy tree"), "{msg}");
    }

    #[test]
    fn pages_too_small_for_the_family_are_refused() {
        let store = SharedStore::open(&StoreConfig::small(128, 4)).unwrap();
        let payload = store.payload_size() - HEADER;
        match PagedTree::<f64, Toy>::open_in(store.into(), Toy, 0, 64) {
            Err(Error::RecordTooLarge { record, page }) => {
                assert_eq!((record, page), (16 + 64, payload / 2))
            }
            Err(other) => panic!("{other:?}"),
            Ok(_) => panic!("opened"),
        }
    }
}
