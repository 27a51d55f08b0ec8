//! `boxagg-serve`: a network query service over persisted box-sum
//! stores.
//!
//! The crate has three layers:
//!
//! - [`proto`] — the length-framed, checksummed wire codec (requests,
//!   responses, and the frame layer shared by both sides);
//! - [`server`] — the serving loop: one thread per connection, each
//!   read answered inline on a pinned snapshot and each commit run on
//!   its own connection thread under the write lock, connections past
//!   the limit refused with a typed `OVERLOADED` frame, deadlines
//!   enforced end to end;
//! - [`client`] — a blocking request/response client with capped,
//!   jittered reconnect backoff and idempotency-token retry;
//! - [`fault`] — deterministic network fault injection
//!   ([`fault::FaultStream`]), the socket-level mirror of the
//!   pagestore's `FaultPager`.
//!
//! Answers through the server are bit-identical to running the same
//! queries in process against the store: a served read is the same
//! engine opened on a snapshot of the last committed epoch, and
//! concurrent reads share nothing but decoded index pages.

#![deny(unreachable_pub)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
mod idem;
pub mod proto;
pub mod server;

pub use client::Client;
pub use fault::{FaultStream, NetStream, StreamFaultHandle, StreamFaultSpec, StreamOpFilter};
pub use proto::{Hello, Request, Response, ServeStats, PROTO_VERSION};
pub use server::{ServeConfig, ServerHandle};
