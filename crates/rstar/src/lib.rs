#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-rstar — R*-tree and aggregate R-tree (aR-tree) baselines
//!
//! The comparison structures of the paper's §6 evaluation:
//!
//! * the **R\*-tree** (Beckmann et al. 1990) answering box-sum queries by
//!   plain range search — [`RStarTree::box_sum_scan`] accumulates the
//!   values of every intersecting object; its cost grows with the number
//!   of objects in the query box;
//! * the **aR-tree** (\[21, 25\]): the same tree with per-entry aggregate
//!   values and object counts, so subtrees fully contained in the query
//!   contribute without being visited — [`RStarTree::box_sum`];
//! * the **functional aR-tree**: leaf objects carry polynomial value
//!   functions; internal entries store each subtree's total integral
//!   ("mass"), preserving the containment shortcut —
//!   [`RStarTree::functional_sum`].
//!
//! As in §6, the tree pairs the shared LRU buffer with a *path buffer*
//! holding the most recently traversed path of decoded nodes.
//! STR bulk loading builds large baselines quickly.
//!
//! Its pages are the shared paged layer's
//! ([`boxagg_pagestore::paged::Ar`]), as the BA-tree's and the
//! ECDF-B-trees' are: one header, one leaf codec and one page access
//! path for all three trees, so a figure compares indexes, not codecs.

mod bulk;
mod split;
mod tree;

pub use split::rstar_split;
pub use tree::{AggResult, RStarTree};

/// The aggregate R-tree over simple weighted boxes (§6's `aR`).
pub type AggRTree = RStarTree<()>;

/// The aggregate R-tree over functional objects (§6's functional
/// comparison).
pub type FunctionalAggRTree = RStarTree<boxagg_common::Poly>;
