//! The `boxagg serve` server: one thread per TCP connection, and every
//! request — read, write or commit — runs on the thread that read it.
//!
//! ## Connections — a connection is a thread
//!
//! The accept thread owns a `std::thread::scope`; every admitted
//! connection is one scoped thread that lives exactly as long as the
//! connection does. An idle server is one thread (accept). Leaving the
//! scope joins every connection thread, which is the join
//! [`ServerHandle::shutdown`] waits for.
//!
//! ## Read path — inline on a pinned snapshot
//!
//! A box-sum / dominance-sum request is answered on the connection
//! thread that read its frame: pin a snapshot of the current commit epoch,
//! open the persisted engine at that epoch, run the `2^d` dominance
//! sums, publish the snapshot's node counters, reply. No queue and no
//! thread hand-off stand between the frame and the traversal. Every
//! pinned read goes through the store's decoded-node cache of committed
//! images (see `StoreSnapshot::read_node`), whose entries live as long
//! as their pages' buffer frames, and whose hits keep those frames
//! resident as an LRU touch would, so on an unchanged epoch a request
//! over a resident index decodes nothing, and after a commit only the
//! pages that commit rewrote decode again; a pin and a catalog open cost about
//! 1.5 µs per request. Answers are bit-identical to an in-process
//! `SnapshotBoxSum` on the same epoch, whatever else is in flight.
//!
//! ## Write path — commits under the write lock, idempotency tokens
//!
//! Inserts and deletes mutate the live engine under a mutex and stay
//! buffered in the store's no-steal pool; they become visible to reads
//! only at the next commit (reads run on snapshots of the last
//! committed epoch). A `Commit` runs on its own connection thread: it
//! takes the same write lock, publishes the catalog and calls
//! `SharedStore::commit`. Concurrent commits wait their turn for the
//! lock, as writes do; each is its own WAL transaction.
//!
//! Writes are retry-safe end to end. A tokened op (`token != 0`)
//! carries a per-token sequence number; the server skips `(token,
//! seq)` pairs it has already applied, so a client replaying its
//! buffered ops after a reconnect never double-applies. At commit, the
//! token is recorded durably in the superblock catalog *inside the
//! same WAL transaction* as the data — so after a server restart, a
//! retried `Commit` whose token is on disk answers `Ok` with the
//! originally recorded result instead of re-committing, and any re-sent
//! ops under a durable token are skipped outright.
//!
//! ## Deadlines, overload, failure
//!
//! Requests may carry a deadline (milliseconds, in the frame header).
//! Work whose deadline has already expired is dropped with a typed
//! [`DEADLINE_EXCEEDED`](proto::code::DEADLINE_EXCEEDED) frame instead
//! of being done for a caller who has stopped waiting: every request
//! is checked on arrival (a read never waits after that), and a write
//! or a commit again once it holds the write lock. Each *frame read*
//! is separately bounded by [`ServeConfig::read_deadline`]: a
//! slowloris peer trickling one byte a second cannot hold a thread
//! past it, because the per-read socket timeout shrinks as the frame
//! deadline approaches. Idle connections are reaped after
//! [`ServeConfig::idle_timeout`].
//!
//! [`ServeConfig::max_connections`] is the one admission bound: a
//! connection carries one request at a time, so it bounds the requests
//! in flight too. The accept loop refuses a connection past it with one
//! typed [`OVERLOADED`](proto::code::OVERLOADED) frame, then closes —
//! never a silent drop. A connection's slot is released by a guard its
//! thread owns, so a handler that dies still gives the slot back. An
//! admitted request is never answered `OVERLOADED`.
//!
//! Malformed frames (bad checksum, truncation, alien tags) get a typed
//! [`code::PROTOCOL`] error frame and the connection closes;
//! semantically invalid requests on a well-formed frame get
//! [`code::INVALID_ARGUMENT`] and the connection stays usable. Every
//! error path answers a typed frame before closing; the server never
//! panics on hostile bytes. If a commit fails, the write path
//! **fail-stops** (every later write answers
//! `INTERNAL` until the process restarts): continuing to mutate an
//! engine whose durable state is unknown would forfeit the exactly-once
//! guarantee.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use boxagg_batree::BATree;
use boxagg_common::error::{invalid_arg, Error, Result};
use boxagg_common::geom::Rect;
use boxagg_common::traits::DominanceSumIndex;
use boxagg_core::catalog::{open_corner_engine, persist_corner_engine};
use boxagg_core::reduction::CornerBoxSum;
use boxagg_pagestore::SharedStore;

use crate::idem;
use crate::proto::{
    self, code, code_for, encode_response, read_frame, retry_after_for, write_frame, Hello,
    Request, Response, ServeStats, PROTO_VERSION,
};

/// Tuning knobs of the serving loop.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Budget for reading one complete frame off a connection. A peer
    /// that cannot deliver a whole frame within it (slowloris) is cut
    /// off with a typed `DEADLINE_EXCEEDED` frame. Also the write
    /// budget for replies.
    pub read_deadline: Duration,
    /// Connections silent for longer than this are reaped (typed
    /// frame, then close) so half-open peers cannot pin threads.
    pub idle_timeout: Duration,
    /// Most concurrent connections served, one thread each; further
    /// accepts get a typed `OVERLOADED` refusal. A connection carries
    /// one request at a time, so this also bounds requests in flight.
    pub max_connections: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_connections: 48,
        }
    }
}

/// The retry-after hint carried by `OVERLOADED` frames, in milliseconds.
const RETRY_AFTER_MS: u32 = 25;

/// A request's life deadline, as computed when its frame arrived.
#[derive(Clone, Copy)]
struct Deadline {
    at: Option<Instant>,
    budget_ms: u32,
}

impl Deadline {
    fn from_budget(budget_ms: u32) -> Self {
        Self {
            at: (budget_ms > 0).then(|| Instant::now() + Duration::from_millis(budget_ms.into())),
            budget_ms,
        }
    }

    fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }

    fn error(&self) -> Error {
        Error::DeadlineExceeded {
            budget_ms: self.budget_ms,
        }
    }
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    node_accesses: AtomicU64,
    node_decodes: AtomicU64,
    commits: AtomicU64,
    protocol_errors: AtomicU64,
    expired: AtomicU64,
    replays: AtomicU64,
    refused_conns: AtomicU64,
}

/// Tokened `(token, seq)` pairs applied since the last restart, kept
/// so a client replaying buffered ops after a reconnect never
/// double-applies. Bounded FIFO: with more than [`IDEM_MEM_CAP`]
/// *uncommitted* tokens in flight the oldest forgets its progress —
/// far beyond any realistic concurrent-writer count.
const IDEM_MEM_CAP: usize = 1024;

/// Durable idempotency tokens retained in the superblock catalog; a
/// commit retried within this many later commits deduplicates.
const IDEM_RETAIN: usize = 16;

/// Everything the write path mutates, under one lock: the live
/// engine, the in-memory `(token, seq)` replay filter, and the
/// fail-stop flag.
struct WriteState {
    engine: CornerBoxSum<BATree<f64>>,
    /// token → highest applied sequence number.
    applied: HashMap<u64, u32>,
    /// Admission order of `applied`, for FIFO eviction.
    order: VecDeque<u64>,
    /// Set when a commit failed; every later write answers
    /// `INTERNAL` until the server restarts.
    poisoned: bool,
}

impl WriteState {
    /// Whether the `(token, seq)` op was already applied (replay).
    fn seen(&self, token: u64, seq: u32) -> bool {
        self.applied.get(&token).is_some_and(|&hi| seq <= hi)
    }

    fn record(&mut self, token: u64, seq: u32) {
        match self.applied.get_mut(&token) {
            Some(hi) => *hi = (*hi).max(seq),
            None => {
                if self.applied.len() >= IDEM_MEM_CAP {
                    if let Some(old) = self.order.pop_front() {
                        self.applied.remove(&old);
                    }
                }
                self.applied.insert(token, seq);
                self.order.push_back(token);
            }
        }
    }

    fn forget(&mut self, token: u64) {
        if self.applied.remove(&token).is_some() {
            self.order.retain(|&t| t != token);
        }
    }
}

struct Shared {
    store: SharedStore,
    write: Mutex<WriteState>,
    space: Rect,
    dim: usize,
    cfg: ServeConfig,
    /// The live engine's object count, stored under the write lock
    /// after every applied insert/delete so the handshake can say it
    /// without waiting out a commit.
    objects: AtomicU64,
    /// Live connections, one [`Slot`] each (accept-time guard).
    conns: AtomicU64,
    counters: Counters,
    shutdown: AtomicBool,
}

impl Shared {
    /// `groups` and `commit_rounds` keep their places on the wire and
    /// equal `queries` and `commits`: each read pins its own snapshot,
    /// and each commit runs alone under the write lock. `shed` keeps
    /// its place as 0: no admitted request is shed.
    fn stats(&self) -> ServeStats {
        let queries = self.counters.queries.load(Ordering::Relaxed);
        let commits = self.counters.commits.load(Ordering::Relaxed);
        ServeStats {
            queries,
            groups: queries,
            node_accesses: self.counters.node_accesses.load(Ordering::Relaxed),
            node_decodes: self.counters.node_decodes.load(Ordering::Relaxed),
            commits,
            commit_rounds: commits,
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            shed: 0,
            expired: self.counters.expired.load(Ordering::Relaxed),
            replays: self.counters.replays.load(Ordering::Relaxed),
            refused_conns: self.counters.refused_conns.load(Ordering::Relaxed),
            validate_ok: self.store.validate().is_ok(),
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Opens the persisted engine in `store` and starts serving on
    /// `addr` (use port 0 for an ephemeral port; see
    /// [`local_addr`](Self::local_addr)). The store must be WAL-enabled
    /// and hold a persisted, committed box-sum engine.
    pub fn bind(store: SharedStore, addr: impl ToSocketAddrs, cfg: ServeConfig) -> Result<Self> {
        if !store.wal_enabled() {
            return Err(invalid_arg(
                "serving needs a WAL store: reads run on commit-epoch \
                 snapshots and writes on the commit protocol",
            ));
        }
        let (engine, space) = open_corner_engine(&store)?;
        let dim = engine.dim();
        let objects = engine.len() as u64;

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;

        let shared = Arc::new(Shared {
            store,
            write: Mutex::new(WriteState {
                engine,
                applied: HashMap::new(),
                order: VecDeque::new(),
                poisoned: false,
            }),
            space,
            dim,
            cfg,
            objects: AtomicU64::new(objects),
            conns: AtomicU64::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            addr: local,
            shared,
            accept: Some(accept),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// In-process statistics snapshot (same numbers a
    /// [`Request::Stats`] returns over the wire).
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Stops accepting, drains the serving threads and joins them: the
    /// accept thread returns only once every connection thread in its
    /// scope has. Connected clients are cut loose (handlers notice the
    /// shutdown flag within their poll interval); a request in progress
    /// is finished first.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(Err(payload)) = self.accept.take().map(JoinHandle::join) {
            // The accept thread never panics by design; if it ever
            // does, the payload must not re-detonate here.
            std::mem::forget(payload);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock_write(shared: &Shared) -> std::sync::MutexGuard<'_, WriteState> {
    shared.write.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The INTERNAL-class error every write answers once the write path
/// has fail-stopped.
fn poisoned_error() -> Error {
    Error::Io(std::io::Error::other(
        "write path fail-stopped by an earlier commit failure; restart the server",
    ))
}

/// Refuses a connection with one typed `OVERLOADED` frame written on
/// the accept thread — never a silent drop.
fn refuse(stream: &mut TcpStream, shared: &Shared, message: String) {
    shared
        .counters
        .refused_conns
        .fetch_add(1, Ordering::Relaxed);
    // lint: allow(discarded-result) -- best-effort refusal write; the peer may already be gone
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    send_response(
        stream,
        &Response::Error {
            code: code::OVERLOADED,
            message,
            retry_after_ms: RETRY_AFTER_MS,
        },
    );
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let limit = shared.cfg.max_connections as u64;
    // Every connection thread is spawned into this scope, so returning
    // from it is the join of all of them.
    std::thread::scope(|scope| {
        while !shared.shutdown.load(Ordering::SeqCst) {
            let mut stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            let Some(slot) = Slot::claim(&shared.conns, limit) else {
                refuse(
                    &mut stream,
                    shared,
                    format!("connection limit of {limit} reached"),
                );
                continue;
            };
            // The thread serves a second handle to the socket; this one
            // stays here to carry the refusal if the thread cannot be
            // started. The slot moves into the thread and is released
            // when it ends, however it ends — or right here, with the
            // closure a failed spawn drops.
            let spawned = stream.try_clone().and_then(|conn| {
                std::thread::Builder::new().spawn_scoped(scope, move || {
                    let _slot = slot;
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| handle_conn(conn, shared)))
                    {
                        // A handler never panics by design. If one does,
                        // its connection dies with it and the server
                        // goes on; a payload whose own `Drop` panics
                        // must not detonate in the scope's join.
                        std::mem::forget(payload);
                    }
                })
            });
            if let Err(e) = spawned {
                refuse(
                    &mut stream,
                    shared,
                    format!("cannot start a connection thread: {e}"),
                );
            }
        }
    });
}

/// How long a connection handler waits in `peek` before re-checking
/// the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

fn send_response(stream: &mut TcpStream, resp: &Response) -> bool {
    write_frame(stream, &encode_response(resp)).is_ok()
}

/// A read view over a socket that enforces an overall deadline for one
/// frame: before every read the remaining budget becomes the socket
/// timeout, so a peer trickling bytes (slowloris) exhausts the budget
/// just like a silent one — the per-byte progress never resets it.
struct DeadlineReader<'a> {
    stream: &'a mut TcpStream,
    deadline: Instant,
    timed_out: bool,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        if now >= self.deadline {
            self.timed_out = true;
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                "frame read deadline elapsed",
            ));
        }
        // lint: allow(discarded-result) -- timeout support is best-effort; a blocking read still works
        let _ = self
            .stream
            .set_read_timeout(Some((self.deadline - now).max(Duration::from_millis(1))));
        match self.stream.read(buf) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                self.timed_out = true;
                Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "frame read deadline elapsed",
                ))
            }
            r => r,
        }
    }
}

fn handle_conn(mut stream: TcpStream, shared: &Shared) {
    // lint: allow(discarded-result) -- Nagle stays on if the socket refuses; only latency suffers
    let _ = stream.set_nodelay(true);
    // A peer that stops draining replies cannot hold the thread past
    // the write budget either.
    // lint: allow(discarded-result) -- timeout support is best-effort; a blocking write still works
    let _ = stream.set_write_timeout(Some(shared.cfg.read_deadline));
    // The object count comes from the published atomic, not from the
    // engine: a connect during a commit must not wait for the write lock.
    let hello = Hello {
        version: PROTO_VERSION,
        dims: shared.dim as u32,
        page_size: shared.store.page_size() as u32,
        objects: shared.objects.load(Ordering::SeqCst),
        bounds: shared.space.bounds(),
    };
    if !send_response(&mut stream, &Response::Hello(hello)) {
        return;
    }
    let mut last_active = Instant::now();
    loop {
        // Idle-wait with a timeout so shutdown is honored even while
        // the peer is silent; actual frame reads then block normally.
        // lint: allow(discarded-result) -- timeout support is best-effort; a blocking read still works
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if last_active.elapsed() >= shared.cfg.idle_timeout {
                    // Reap the idle (possibly half-open) connection —
                    // typed frame first, like every close path.
                    send_response(
                        &mut stream,
                        &Response::Error {
                            code: code::DEADLINE_EXCEEDED,
                            message: format!(
                                "connection idle past the {:?} limit, reaping",
                                shared.cfg.idle_timeout
                            ),
                            retry_after_ms: 0,
                        },
                    );
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Bytes are waiting: the whole frame must now arrive within
        // the read deadline, however slowly the peer feeds it.
        let (body, timed_out) = {
            let mut reader = DeadlineReader {
                stream: &mut stream,
                deadline: Instant::now() + shared.cfg.read_deadline,
                timed_out: false,
            };
            let body = read_frame(&mut reader);
            let timed_out = reader.timed_out;
            (body, timed_out)
        };
        let body = match body {
            Ok(Some(body)) => body,
            Ok(None) => return,
            Err(e) => {
                // Structural damage or a starved frame: typed error
                // frame, then close — the stream can no longer be
                // trusted to be framed.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let resp = if timed_out {
                    Response::Error {
                        code: code::DEADLINE_EXCEEDED,
                        message: format!(
                            "frame not completed within the {:?} read deadline",
                            shared.cfg.read_deadline
                        ),
                        retry_after_ms: 0,
                    }
                } else {
                    Response::Error {
                        code: code::PROTOCOL,
                        message: e.to_string(),
                        retry_after_ms: 0,
                    }
                };
                send_response(&mut stream, &resp);
                return;
            }
        };
        let (req, deadline_ms) = match proto::decode_request(&body) {
            Ok(pair) => pair,
            Err(e) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                send_response(
                    &mut stream,
                    &Response::Error {
                        code: code::PROTOCOL,
                        message: e.to_string(),
                        retry_after_ms: 0,
                    },
                );
                return;
            }
        };
        let resp = dispatch(shared, req, Deadline::from_budget(deadline_ms));
        last_active = Instant::now();
        if !send_response(&mut stream, &resp) {
            return;
        }
    }
}

fn error_response(e: &Error) -> Response {
    Response::Error {
        code: code_for(e),
        message: e.to_string(),
        retry_after_ms: retry_after_for(e, RETRY_AFTER_MS),
    }
}

fn dispatch(shared: &Shared, req: Request, deadline: Deadline) -> Response {
    if deadline.expired() {
        shared.counters.expired.fetch_add(1, Ordering::Relaxed);
        return error_response(&deadline.error());
    }
    match req {
        Request::BoxSum(rect) => {
            if rect.dim() != shared.dim {
                return error_response(&invalid_arg(format!(
                    "query is {}-d but the index is {}-d",
                    rect.dim(),
                    shared.dim
                )));
            }
            run_read(shared, |engine| engine.query(&rect))
        }
        Request::DomSum { mask, point } => {
            if point.dim() != shared.dim {
                return error_response(&invalid_arg(format!(
                    "point is {}-d but the index is {}-d",
                    point.dim(),
                    shared.dim
                )));
            }
            if mask as usize >= (1usize << shared.dim) {
                return error_response(&invalid_arg(format!(
                    "corner mask {mask} out of range for dimension {}",
                    shared.dim
                )));
            }
            run_read(shared, |engine| {
                engine.indexes()[mask as usize].dominance_sum(&point)
            })
        }
        Request::Insert {
            rect,
            value,
            token,
            seq,
        } => apply_write(shared, deadline, token, seq, |w| {
            w.engine.insert(&rect, value)
        }),
        Request::Delete {
            rect,
            value,
            token,
            seq,
        } => apply_write(shared, deadline, token, seq, |w| {
            w.engine.delete(&rect, value)
        }),
        Request::Commit { token } => commit(shared, deadline, token),
        Request::Stats => Response::StatsReply(shared.stats()),
    }
}

/// Commits the live engine on the calling connection thread. A token
/// already durable on disk means this commit (and everything under it)
/// happened: it answers the recorded result without touching the
/// engine. Otherwise, under the write lock, the deadline and the
/// fail-stop flag are checked again, and the token is recorded, the
/// catalog published and the store committed — so the token lands in
/// the same WAL transaction as the data it guards, and no insert can
/// interleave between the roots being published and the transaction
/// committing.
fn commit(shared: &Shared, deadline: Deadline, token: u64) -> Response {
    if token != 0 {
        match idem::lookup(&shared.store, token) {
            Ok(Some(objects)) => {
                shared.counters.replays.fetch_add(1, Ordering::Relaxed);
                return Response::Ok { objects };
            }
            Ok(None) => {}
            Err(e) => return error_response(&e),
        }
    }
    let mut w = lock_write(shared);
    if deadline.expired() {
        shared.counters.expired.fetch_add(1, Ordering::Relaxed);
        return error_response(&deadline.error());
    }
    shared.counters.commits.fetch_add(1, Ordering::Relaxed);
    if w.poisoned {
        return error_response(&poisoned_error());
    }
    let objects = w.engine.len() as u64;
    let recorded = if token == 0 {
        Ok(())
    } else {
        idem::record(&shared.store, token, objects, IDEM_RETAIN)
    };
    let res = recorded
        .and_then(|()| persist_corner_engine(&w.engine, &shared.space))
        .and_then(|()| shared.store.commit());
    match res {
        Ok(()) => {
            // The token is durable; the in-memory replay filter no
            // longer needs its progress.
            w.forget(token);
            Response::Ok { objects }
        }
        Err(e) => {
            // Fail-stop: the engine's durable state is now unknown;
            // more writes could smear a half-committed image. Reads
            // (snapshots of the last committed epoch) stay safe.
            w.poisoned = true;
            error_response(&e)
        }
    }
}

/// The shared insert/delete path: deadline re-check, fail-stop check,
/// `(token, seq)` replay filtering (in-memory and against durable
/// tokens), then the engine mutation.
fn apply_write(
    shared: &Shared,
    deadline: Deadline,
    token: u64,
    seq: u32,
    op: impl FnOnce(&mut WriteState) -> Result<()>,
) -> Response {
    let mut w = lock_write(shared);
    // The write lock is held across a whole commit, so the wait
    // for it can outlast the caller's deadline. An expired op is
    // refused before it touches the engine or the replay filter: the
    // caller's retry under the same `(token, seq)` applies it once.
    if deadline.expired() {
        shared.counters.expired.fetch_add(1, Ordering::Relaxed);
        return error_response(&deadline.error());
    }
    if w.poisoned {
        return error_response(&poisoned_error());
    }
    if token != 0 {
        // Already applied in this incarnation, or already *committed*
        // in a previous one: either way, applying again would double
        // the op.
        let committed = match idem::lookup(&shared.store, token) {
            Ok(t) => t.is_some(),
            Err(e) => return error_response(&e),
        };
        if committed || w.seen(token, seq) {
            shared.counters.replays.fetch_add(1, Ordering::Relaxed);
            return Response::Ok {
                objects: w.engine.len() as u64,
            };
        }
    }
    match op(&mut w) {
        Ok(()) => {
            if token != 0 {
                w.record(token, seq);
            }
            let objects = w.engine.len() as u64;
            shared.objects.store(objects, Ordering::SeqCst);
            Response::Ok { objects }
        }
        Err(e) => error_response(&e),
    }
}

/// One claim on a live-connection slot, released on drop, so a holder
/// that unwinds still gives it back.
struct Slot<'a>(&'a AtomicU64);

impl<'a> Slot<'a> {
    /// `None` once `limit` claims are already held.
    fn claim(held: &'a AtomicU64, limit: u64) -> Option<Self> {
        let slot = Self(held);
        (held.fetch_add(1, Ordering::SeqCst) < limit).then_some(slot)
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answers one read on the calling connection thread: pin the current commit
/// epoch, open the engine the writer mutates at that epoch instead of
/// over live pages, and run `read` against it. A read that cannot pin
/// or open its engine answers with that error's own class — a corrupt
/// page is the server's fault (`INTERNAL`), not the caller's.
fn run_read(
    shared: &Shared,
    read: impl FnOnce(&CornerBoxSum<BATree<f64>>) -> Result<f64>,
) -> Response {
    let opened = shared
        .store
        .snapshot()
        .map(Arc::new)
        .and_then(|snap| Ok((open_corner_engine(&snap)?.0, snap)));
    let (engine, snap) = match opened {
        Ok(pair) => pair,
        Err(e) => return error_response(&e),
    };
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    let answer = read(&engine);
    // Counters are published before the reply: a caller that saw its
    // answer may immediately read stats and must find this traversal
    // accounted for — and a reply that lands on a dead connection
    // leaves its work counted exactly once.
    let (accesses, decodes) = snap.node_reads();
    shared
        .counters
        .node_accesses
        .fetch_add(accesses, Ordering::Relaxed);
    shared
        .counters
        .node_decodes
        .fetch_add(decodes, Ordering::Relaxed);
    match answer {
        Ok(sum) => Response::Sum(sum),
        Err(e) => error_response(&e),
    }
}
