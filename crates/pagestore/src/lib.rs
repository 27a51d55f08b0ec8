#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! Paged storage substrate for the `boxagg` index structures.
//!
//! Every index in the workspace (ECDF-B-trees, BA-tree, R*-/aR-tree) is
//! *disk-based*: nodes are serialized into fixed-size pages and all access
//! goes through an LRU buffer pool that counts I/Os — the paper's §6
//! experiments report exactly this metric (8 KB pages, 10 MB LRU buffer).
//!
//! Layers, bottom to top:
//!
//! * [`pager`] — raw page storage ([`pager::MemPager`] for
//!   benchmarks where only the *count* of I/Os matters, and
//!   [`pager::FilePager`] for real files),
//! * `buffer` (private) — the buffer pool: LRU caching, dirty
//!   write-back, [`IoStats`]; a frame also holds the decode a live read
//!   made of its bytes, so warm traversals skip codec cost without
//!   perturbing byte-level I/O accounting,
//! * `nodecache` (private) — an index of decoded *committed* images of
//!   resident pages, which pinned reads go through; an entry lives and
//!   dies with its page's buffer frame, so it has no eviction policy of
//!   its own (a hit's mark only earns the frame a second chance),
//! * [`rank`] — [`rank::RankedMutex`], the rank-checked lock wrapper
//!   every mutex in this crate goes through (debug builds panic on
//!   out-of-order acquisition; see the module docs for the lock order),
//! * [`wal`] — the redo-only write-ahead log behind the
//!   [`commit`](store::SharedStore::commit) boundary: checksummed
//!   physical page images, replayed by [`wal::recover`] on reopen,
//! * [`superblock`] — page 0 as durable store metadata: geometry plus a
//!   catalog of named index roots, so reopening needs no out-of-band
//!   state,
//! * [`readonly`] — a strictly read-only pager for inspecting a store
//!   file another process may be serving: mutations are refused by
//!   construction and committed WAL state is overlaid in memory (see
//!   [`store::SharedStore::open_readonly`]),
//! * [`store`] — [`store::SharedStore`], the one way into a pool: a
//!   [`store::StoreConfig`] alone decides the store's kind, and the
//!   cheaply-clonable handle lets many trees (e.g. a BA-tree and its
//!   recursive border trees) share one pool so space and I/O are
//!   accounted jointly, and
//!   [`store::ReadHandle`], through which an index reads either that
//!   live store or one pinned commit epoch,
//! * [`paged`] — the one paged-node layer over a `ReadHandle` both
//!   dominance-sum trees (BA-tree, ECDF-B-trees) are built on: node
//!   header and leaf codec, capacities, the page context and the
//!   catalog handle; a tree supplies its index records as a
//!   [`paged::Layout`].

mod buffer;
pub mod checksum;
pub mod fault;
mod nodecache;
pub mod paged;
mod pagemap;
pub mod pager;
pub mod rank;
pub mod readonly;
pub mod store;
pub mod superblock;
pub mod wal;

pub use buffer::{IoStats, Visit};
pub use fault::{FaultHandle, FaultPager, FaultSpec, OpFilter};
pub use pager::{FilePager, MemPager, PageId, Pager, DEFAULT_PAGE_SIZE};
pub use rank::{RankedGuard, RankedMutex, RankedReadGuard, RankedRwLock, RankedWriteGuard};
pub use store::{Backing, ReadHandle, SharedStore, StoreConfig, StoreSnapshot};
pub use superblock::{RootEntry, RootKind, Superblock};
pub use wal::RecoveryReport;
