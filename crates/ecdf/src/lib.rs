#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-ecdf — ECDF dominance-sum structures (§4 of the paper)
//!
//! Three structures answering dominance-sum queries:
//!
//! * [`static_tree::EcdfTree`] — Bentley's multidimensional
//!   divide-and-conquer structure (1980): static, main-memory. The
//!   starting point the paper extends.
//! * [`btree::EcdfBTree`] with
//!   [`BorderPolicy::UpdateOptimized`](btree::BorderPolicy) — the
//!   **ECDF-Bu-tree**: each internal entry's border holds the points of
//!   *that entry's* subtree. Updates touch one border per level
//!   (`O(log_B^d n)` amortized); queries must examine every border left
//!   of the search path (`O(B^{d-1} log_B^d n)`).
//! * [`btree::EcdfBTree`] with
//!   [`BorderPolicy::QueryOptimized`](btree::BorderPolicy) — the
//!   **ECDF-Bq-tree**: borders hold *prefixes* (subtrees 1..i). Queries
//!   touch one border per level (`O(log_B^d n)`); updates and space pay
//!   the price (Table 1).
//!
//! Both B-tree variants share one implementation parameterized by the
//! border policy, support dynamic inserts (with amortized border rebuilds
//! on splits) and bulk loading (§4).

pub mod btree;
pub mod static_tree;

pub use btree::{BorderPolicy, EcdfBTree};
pub use static_tree::EcdfTree;
