#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg — Efficient Aggregation over Objects with Extent
//!
//! Facade crate re-exporting the whole workspace: a reproduction of
//! *"Efficient Aggregation over Objects with Extent"* (Zhang, Tsotras,
//! Gunopulos — PODS 2002).
//!
//! The headline API lives in [`engine`]: build a [`engine::SimpleBoxSum`]
//! over one of the dominance-sum backends (BA-tree, ECDF-Bu, ECDF-Bq) or a
//! [`engine::FunctionalBoxSum`] for polynomial value functions, then answer
//! box aggregation queries in poly-logarithmic I/O.
//!
//! ```
//! use boxagg::prelude::*;
//!
//! // Space: the unit square. Index: BA-trees behind the corner reduction.
//! let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
//! let mut index = SimpleBoxSum::batree(space, StoreConfig::default()).unwrap();
//!
//! // Two weighted rectangles.
//! index.insert(&Rect::from_bounds(&[(0.1, 0.4), (0.1, 0.4)]), 3.0).unwrap();
//! index.insert(&Rect::from_bounds(&[(0.5, 0.9), (0.5, 0.9)]), 4.0).unwrap();
//!
//! // Total value of objects intersecting a query box.
//! let q = Rect::from_bounds(&[(0.3, 0.6), (0.3, 0.6)]);
//! assert_eq!(index.query(&q).unwrap(), 7.0);
//! ```

pub use boxagg_batree as batree;
pub use boxagg_common as common;
pub use boxagg_core as core;
pub use boxagg_core::engine;
pub use boxagg_core::functional;
pub use boxagg_core::reduction;
pub use boxagg_ecdf as ecdf;
pub use boxagg_pagestore as pagestore;
pub use boxagg_rstar as rstar;
pub use boxagg_workload as workload;

/// One-stop imports for applications.
pub mod prelude {
    pub use boxagg_common::{AggValue, Coord, Point, Poly, Rect};
    pub use boxagg_core::engine::{FunctionalBoxSum, SimpleBoxSum};
    pub use boxagg_core::functional::FunctionalObject;
    pub use boxagg_pagestore::StoreConfig;
    pub use boxagg_rstar::{AggRTree, RStarTree};
}
