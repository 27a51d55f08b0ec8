#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-batree — the Box Aggregation Tree (§5 of the paper)
//!
//! The BA-tree is the paper's primary index: a disk-based, dynamic
//! structure answering *dominance-sum* queries with poly-logarithmic
//! average cost. It is a k-d-B-tree (Robinson 1981) in which every index
//! record is augmented with
//!
//! * a `subtotal` — the total value of points dominated by the record's
//!   low corner in every dimension, and
//! * `d` *borders* — each a `(d−1)`-dimensional BA-tree over the points
//!   lying below the record's low corner in exactly that dimension's
//!   direction (within the record's other bounds).
//!
//! A dominance query then follows a *single* root-to-leaf path: at each
//! index node it adds the containing record's subtotal, queries that
//! record's `d` borders (each one dimension lower), and recurses into the
//! child. The recursion bottoms out at `d = 1`, where borders vanish and
//! the structure degenerates to an aggregate B-tree.
//!
//! The combination of the BA-tree with the corner reduction of §2 (which
//! turns a box-sum over objects with extent into `2^d` dominance-sums)
//! lives in the `boxagg-core` crate.

mod bulk;
mod node;
mod ops;
mod tree;

pub use tree::BATree;
