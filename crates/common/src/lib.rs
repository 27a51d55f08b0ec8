#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! Shared foundations for the `boxagg` workspace.
//!
//! This crate contains the pieces every index structure in the workspace
//! depends on:
//!
//! * [`geom`] — dimension-generic points and boxes with the dominance and
//!   intersection predicates of the paper (§2),
//! * [`value`] — the [`value::AggValue`] abstraction over the
//!   quantities being aggregated (scalars for simple box-sum, polynomial
//!   coefficient tuples for functional box-sum),
//! * [`poly`] — multivariate polynomial algebra used by the functional
//!   box-sum reduction (§3),
//! * [`bytes`] — a small little-endian codec used by every on-page record
//!   layout,
//! * [`slab`] — struct-of-arrays entry storage for decoded index nodes
//!   (the hot-path layout; the on-disk codec is byte-identical to the
//!   tuple layout it replaced),
//! * [`traits`] — the [`traits::DominanceSumIndex`]
//!   interface implemented by the ECDF-B-trees and the BA-tree,
//! * [`error`] — the common error type,
//! * [`fault`] — the k-th-operation fault trigger and park gate behind
//!   the pager and socket fault-injection wrappers,
//! * [`rng`] — a deterministic seedable RNG for workloads and tests
//!   (the workspace builds offline, without the `rand` crate),
//! * [`tempdir`] — self-deleting temp directories for tests.

pub mod bytes;
pub mod error;
pub mod fault;
pub mod geom;
pub mod poly;
pub mod rng;
pub mod slab;
pub mod tempdir;
pub mod traits;
pub mod value;

pub use bytes::{ByteReader, ByteWriter};
pub use error::{Error, Result};
pub use geom::{Coord, Point, Rect, MAX_DIM};
pub use poly::Poly;
pub use slab::EntrySlab;
pub use traits::DominanceSumIndex;
pub use value::AggValue;
