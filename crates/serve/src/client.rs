//! A blocking client for the `boxagg serve` protocol.
//!
//! One [`Client`] owns one connection and runs strictly
//! request/response: each call writes one frame and blocks for the
//! matching reply. Typed [`Error`](proto::Response::Error) frames from
//! the server come back as `Err` values, and no request is retried on
//! its own; the connection stays usable after an `INVALID_ARGUMENT` or
//! `DEADLINE_EXCEEDED` (the server only hangs up on protocol damage).
//! A server at its connection limit refuses the dial itself with a
//! typed `OVERLOADED` frame, which [`Client::connect`] returns as
//! [`Error::Overloaded`].
//!
//! ## Reconnect backoff
//!
//! [`reconnect`](Client::reconnect) retries the dial with capped
//! exponential backoff (doubling up to [`BACKOFF_CAP_MS`]) and a jitter
//! factor in `[0.5, 1.5)` drawn from the client's RNG, which
//! decorrelates clients that lost their server at the same moment.
//!
//! ## Retry-safe writes
//!
//! Buffered writes ride an **idempotency token**: the first
//! `insert`/`delete` of a batch stamps the batch's token, every op
//! carries `(token, seq)`, and the matching `commit` carries the
//! token. The client keeps the ops pended until the commit succeeds,
//! so [`commit_durable`](Client::commit_durable) can survive a dead
//! connection — or a dead *server* — by reconnecting, replaying the
//! pended ops (the server skips the ones it already applied) and
//! re-committing. A commit whose token the server already recorded
//! durably answers `Ok` with the original result instead of applying
//! anything twice.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use boxagg_common::error::{corrupt, invalid_arg, Error, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;

use crate::fault::{FaultStream, NetStream, StreamFaultHandle};
use crate::proto::{
    self, closed, code, encode_request_with_deadline, read_frame, write_frame, Hello, Request,
    Response, ServeStats, PROTO_VERSION,
};

/// Ceiling on one backoff sleep.
pub const BACKOFF_CAP_MS: u64 = 1000;

/// Most reconnect-and-replay cycles one
/// [`commit_durable`](Client::commit_durable) attempts.
pub const MAX_RECONNECTS: u32 = 10;

/// The seed of a client's RNG, which draws its batch tokens: one no
/// other client shares, or two clients of one server would send the
/// same tokens and the server would drop the second one's writes as
/// replays. `RandomState` is keyed by the OS and differs for each
/// instance; the connection's local address is mixed in.
fn client_seed(local: Option<SocketAddr>) -> u64 {
    RandomState::new().hash_one(local)
}

/// One write pended until its batch commits (for replay after a
/// reconnect).
#[derive(Debug, Clone)]
struct PendingOp {
    rect: Rect,
    value: f64,
    insert: bool,
    seq: u32,
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    stream: Box<dyn NetStream>,
    addr: SocketAddr,
    hello: Hello,
    rng: StdRng,
    deadline_ms: u32,
    /// Token of the currently forming write batch (`0` = none yet).
    token: u64,
    /// Explicit token for the *next* batch, if the caller chose one.
    next_token: Option<u64>,
    next_seq: u32,
    pending: Vec<PendingOp>,
}

impl Client {
    /// Connects and consumes the server's hello frame, checking the
    /// protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let addr = resolve(addr)?;
        let stream = Box::new(TcpStream::connect(addr)?);
        Self::handshake(stream, addr)
    }

    /// Like [`connect`](Self::connect), but interposes a
    /// [`FaultStream`] driven by `handle` — every socket op of this
    /// connection counts against the handle's armed schedule.
    pub fn connect_faulted(addr: impl ToSocketAddrs, handle: StreamFaultHandle) -> Result<Self> {
        let addr = resolve(addr)?;
        let stream = Box::new(FaultStream::new(TcpStream::connect(addr)?, handle));
        Self::handshake(stream, addr)
    }

    fn handshake(mut stream: Box<dyn NetStream>, addr: SocketAddr) -> Result<Self> {
        // lint: allow(discarded-result) -- Nagle stays on if the socket refuses; only latency suffers
        let _ = stream.set_nodelay(true);
        let body = read_frame(&mut stream)?
            .ok_or_else(|| closed("server closed the connection before saying hello"))?;
        let hello = match proto::decode_response(&body)? {
            Response::Hello(hello) => hello,
            Response::Error {
                code: c,
                message,
                retry_after_ms,
            } => {
                // An accept-time refusal: the server is full, not broken.
                return Err(error_from_frame(c, &message, retry_after_ms));
            }
            other => {
                return Err(corrupt(format!(
                    "expected a hello frame, got {}",
                    frame_kind(&other)
                )))
            }
        };
        if hello.version != PROTO_VERSION {
            return Err(invalid_arg(format!(
                "server speaks protocol v{}, this client speaks v{PROTO_VERSION}",
                hello.version
            )));
        }
        let rng = StdRng::seed_from_u64(client_seed(stream.local_addr().ok()));
        Ok(Self {
            stream,
            addr,
            hello,
            rng,
            deadline_ms: 0,
            token: 0,
            next_token: None,
            next_seq: 0,
            pending: Vec::new(),
        })
    }

    /// The server's hello: store geometry and object count at connect
    /// time (refreshed on reconnect).
    pub fn hello(&self) -> &Hello {
        &self.hello
    }

    /// Deadline carried by every subsequent request, in milliseconds
    /// (`0` = none).
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Chooses the idempotency token the *next* write batch will use
    /// (must be nonzero). Without this, tokens are drawn from the
    /// client's RNG.
    pub fn set_next_token(&mut self, token: u64) {
        self.next_token = Some(token.max(1));
    }

    /// Writes pended for the current uncommitted batch.
    pub fn pending_writes(&self) -> usize {
        self.pending.len()
    }

    /// Drops the connection and dials the server again (same address),
    /// consuming the fresh hello. Pended writes stay pended — call
    /// [`replay_pending`](Self::replay_pending) (or let
    /// [`commit_durable`](Self::commit_durable) do it) to re-apply
    /// them under their original `(token, seq)` identities.
    ///
    /// Retries the dial itself a few times with backoff, so a server
    /// that is mid-restart does not immediately fail the call.
    pub fn reconnect(&mut self) -> Result<()> {
        let mut delay = Duration::from_millis(20);
        let mut last = None;
        for _ in 0..MAX_RECONNECTS {
            match TcpStream::connect(self.addr)
                .map_err(Error::from)
                .and_then(|s| Self::handshake(Box::new(s), self.addr))
            {
                Ok(fresh) => {
                    self.stream = fresh.stream;
                    self.hello = fresh.hello;
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(self.jitter(delay));
                    delay = (delay * 2).min(Duration::from_millis(BACKOFF_CAP_MS));
                }
            }
        }
        Err(last.unwrap_or_else(|| corrupt("reconnect failed")))
    }

    /// Re-points the client at `addr` — a restarted server usually
    /// binds a fresh ephemeral port — and dials it like
    /// [`reconnect`](Self::reconnect). Pended writes stay pended; the
    /// durable token record on the server's store makes replaying them
    /// against the reborn process exactly-once.
    pub fn redirect(&mut self, addr: impl ToSocketAddrs) -> Result<()> {
        self.addr = resolve(addr)?;
        self.reconnect()
    }

    /// Re-sends every pended write under its original `(token, seq)`.
    /// The server applies the ones it has not seen and skips the rest,
    /// so replaying after a reconnect is exactly-once.
    pub fn replay_pending(&mut self) -> Result<()> {
        let ops = self.pending.clone();
        let token = self.token;
        for op in ops {
            let req = if op.insert {
                Request::Insert {
                    rect: op.rect,
                    value: op.value,
                    token,
                    seq: op.seq,
                }
            } else {
                Request::Delete {
                    rect: op.rect,
                    value: op.value,
                    token,
                    seq: op.seq,
                }
            };
            self.expect_ok(&req)?;
        }
        Ok(())
    }

    fn jitter(&mut self, d: Duration) -> Duration {
        // A factor in [0.5, 1.5): decorrelates clients that lost
        // their server at the same moment.
        d.mul_f64(0.5 + self.rng.gen::<f64>())
    }

    /// One request/response exchange; a typed error frame comes back
    /// as `Err`, and nothing is retried.
    fn call_once(&mut self, req: &Request) -> Result<Response> {
        write_frame(
            &mut self.stream,
            &encode_request_with_deadline(req, self.deadline_ms),
        )?;
        let body = read_frame(&mut self.stream)?
            .ok_or_else(|| closed("server closed the connection mid-request"))?;
        let resp = proto::decode_response(&body)?;
        if let Response::Error {
            code: c,
            message,
            retry_after_ms,
        } = &resp
        {
            return Err(error_from_frame(*c, message, *retry_after_ms));
        }
        Ok(resp)
    }

    fn expect_sum(&mut self, req: &Request) -> Result<f64> {
        match self.call_once(req)? {
            Response::Sum(v) => Ok(v),
            other => Err(corrupt(format!(
                "expected a sum frame, got {}",
                frame_kind(&other)
            ))),
        }
    }

    fn expect_ok(&mut self, req: &Request) -> Result<u64> {
        match self.call_once(req)? {
            Response::Ok { objects } => Ok(objects),
            other => Err(corrupt(format!(
                "expected an ok frame, got {}",
                frame_kind(&other)
            ))),
        }
    }

    /// Aggregate over all objects intersecting `q` (the box-sum query).
    pub fn box_sum(&mut self, q: &Rect) -> Result<f64> {
        self.expect_sum(&Request::BoxSum(*q))
    }

    /// One corner term: the dominance sum of corner tree `mask` at `point`.
    pub fn dominance_sum(&mut self, mask: u32, point: &Point) -> Result<f64> {
        self.expect_sum(&Request::DomSum {
            mask,
            point: *point,
        })
    }

    fn batch_token(&mut self) -> u64 {
        if self.token == 0 {
            self.token = match self.next_token.take() {
                Some(t) => t,
                None => self.rng.next_u64() | 1,
            };
        }
        self.token
    }

    /// Buffers an insert on the server; visible to queries after the
    /// next [`commit`](Self::commit). Returns the live object count.
    /// The op is pended locally (under the batch's idempotency token)
    /// until a commit succeeds.
    pub fn insert(&mut self, rect: &Rect, value: f64) -> Result<u64> {
        self.write_op(rect, value, true)
    }

    /// Buffers a delete on the server (mirror of [`insert`](Self::insert)).
    pub fn delete(&mut self, rect: &Rect, value: f64) -> Result<u64> {
        self.write_op(rect, value, false)
    }

    fn write_op(&mut self, rect: &Rect, value: f64, insert: bool) -> Result<u64> {
        let token = self.batch_token();
        let seq = self.next_seq + 1;
        let req = if insert {
            Request::Insert {
                rect: *rect,
                value,
                token,
                seq,
            }
        } else {
            Request::Delete {
                rect: *rect,
                value,
                token,
                seq,
            }
        };
        let n = self.expect_ok(&req)?;
        self.next_seq = seq;
        self.pending.push(PendingOp {
            rect: *rect,
            value,
            insert,
            seq,
        });
        Ok(n)
    }

    /// Makes all buffered writes durable and visible. Concurrent
    /// commits from many clients run one after another on the server,
    /// each as its own WAL transaction. Returns the committed object
    /// count.
    ///
    /// The commit carries the batch's idempotency token; on success
    /// the pended ops are released. A *connection* failure leaves them
    /// pended — use [`commit_durable`](Self::commit_durable) to ride
    /// through it.
    pub fn commit(&mut self) -> Result<u64> {
        let token = self.token;
        let n = self.expect_ok(&Request::Commit { token })?;
        self.finish_batch();
        Ok(n)
    }

    /// A commit that survives connection and server death: on an I/O
    /// failure it reconnects (waiting out a server restart if needed),
    /// replays the pended writes under their original `(token, seq)`
    /// identities, and retries the tokened commit. The server's
    /// durable token record makes the whole cycle exactly-once — a
    /// commit that *did* land before the connection died is answered
    /// from the record, and replayed ops are skipped, no matter how
    /// many times this loops.
    pub fn commit_durable(&mut self) -> Result<u64> {
        // Stamp the token before the first attempt so every retry
        // speaks the same identity even if no write ever ran (an
        // empty tokened commit is fine).
        let token = self.batch_token();
        let mut last = None;
        for attempt in 0..MAX_RECONNECTS {
            if attempt > 0 {
                self.reconnect()?;
                if let Err(e) = self.replay_pending() {
                    // Replay can itself die mid-stream; try the cycle
                    // again from a fresh connection.
                    last = Some(e);
                    continue;
                }
            }
            match self.expect_ok(&Request::Commit { token }) {
                Ok(n) => {
                    self.finish_batch();
                    return Ok(n);
                }
                // Only connection-shaped failures earn another cycle;
                // a typed server-side refusal (invalid argument,
                // fail-stop, deadline) will not improve by retrying.
                Err(e) if is_connection_error(&e) => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| corrupt("commit_durable exhausted its retries")))
    }

    fn finish_batch(&mut self) {
        self.token = 0;
        self.next_seq = 0;
        self.pending.clear();
    }

    /// Fetches the server's serving statistics.
    pub fn stats(&mut self) -> Result<ServeStats> {
        match self.call_once(&Request::Stats)? {
            Response::StatsReply(stats) => Ok(stats),
            other => Err(corrupt(format!(
                "expected a stats frame, got {}",
                frame_kind(&other)
            ))),
        }
    }
}

fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr> {
    addr.to_socket_addrs()?
        .next()
        .ok_or_else(|| invalid_arg("address resolved to nothing"))
}

fn frame_kind(resp: &Response) -> &'static str {
    match resp {
        Response::Hello(_) => "hello",
        Response::Sum(_) => "sum",
        Response::Ok { .. } => "ok",
        Response::Error { .. } => "error",
        Response::StatsReply(_) => "stats",
    }
}

/// Whether `e` means the *connection* died (and a reconnect may
/// succeed) rather than the server refusing the request: an
/// [`Error::Io`]. That covers the raw socket error, a hangup where a
/// reply was owed, and every torn frame [`read_frame`] reports when the
/// peer vanishes mid-frame; a refusal is never one, whatever its text
/// says. The workspace's one definition of "the connection died":
/// [`Client::commit_durable`] retries on it, and the connection-kill
/// sweep asserts by it.
pub fn is_connection_error(e: &Error) -> bool {
    matches!(e, Error::Io(_))
}

/// Maps a typed error frame back onto the crate's error taxonomy.
fn error_from_frame(c: u16, message: &str, retry_after_ms: u32) -> Error {
    match c {
        code::INVALID_ARGUMENT => invalid_arg(format!("server refused the request: {message}")),
        code::READ_ONLY => invalid_arg(format!("server is read-only: {message}")),
        code::DEADLINE_EXCEEDED => Error::DeadlineExceeded { budget_ms: 0 },
        code::OVERLOADED => Error::Overloaded { retry_after_ms },
        _ => corrupt(format!("server error {c}: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_torn_frame_is_a_connection_error() {
        let mut full = Vec::new();
        write_frame(
            &mut full,
            &proto::encode_request(&Request::Commit { token: 0 }),
        )
        .unwrap();
        let body = full.len() - 4 - 8;
        // Inside the length prefix, mid-body, before the checksum, and
        // every other cut.
        let shapes = [1, 4 + body / 2, 4 + body + 3];
        for cut in shapes.into_iter().chain(1..full.len()) {
            let err = read_frame(&mut &full[..cut]).expect_err("a torn frame");
            assert!(
                matches!(&err, Error::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut {cut}: {err:?}"
            );
            assert!(is_connection_error(&err), "cut {cut}: {err}");
        }
        let hangup = closed("server closed the connection mid-request");
        assert!(is_connection_error(&hangup), "{hangup}");
    }

    #[test]
    fn a_refusal_is_not_a_connection_error_whatever_it_says() {
        let text = "connection closed by a peer; the server closed the connection";
        for c in [
            code::INVALID_ARGUMENT,
            code::READ_ONLY,
            code::PROTOCOL,
            code::INTERNAL,
        ] {
            let refusal = error_from_frame(c, text, 0);
            assert!(!is_connection_error(&refusal), "code {c}: {refusal}");
        }
    }
}
