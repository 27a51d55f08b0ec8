#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-core — box-sum aggregation over objects with extent
//!
//! The paper's primary contribution, assembled: reductions from box
//! aggregation over objects with extent to *dominance-sum* queries, over
//! pluggable dominance-sum backends (BA-tree, ECDF-Bu/Bq-trees, or any
//! [`DominanceSumIndex`](boxagg_common::traits::DominanceSumIndex)).
//!
//! * [`reduction`] — the simple box-sum problem (§2): the `2^d`-query
//!   corner reduction (Theorem 2 / Lemma 1) and the `3^d − 1`-query
//!   Edelsbrunner–Overmars baseline (Theorem 1).
//! * [`functional`] — the functional box-sum problem (§3, Theorem 3):
//!   objects carry polynomial value functions and contribute the
//!   integral of the function over their intersection with the query.
//! * [`engine`] — ready-made engines wiring the reductions to the
//!   concrete disk-based backends, sharing one page store per engine so
//!   the paper's size and I/O metrics apply to whole structures. The
//!   `2^d` per-corner bulk loads run there too, as one loop over the
//!   masks.
//! * [`catalog`] — the catalog naming scheme persisted engines use and
//!   the one opener that reads it back, from the live store or from a
//!   pinned commit epoch (what a query server answers each read
//!   against) — the same engine either way.

pub mod catalog;
pub mod engine;
pub mod functional;
pub mod reduction;

pub use catalog::{
    corner_root_name, open_corner_engine, persist_corner_engine, SnapshotBoxSum, OBJECTS_ROOT,
};
pub use engine::SimpleBoxSum;
pub use functional::{corner_tuples, FunctionalBoxSum, FunctionalObject};
pub use reduction::{
    corner_query_count, corner_query_point, eo_query_count, CornerBoxSum, EoBoxSum,
};
