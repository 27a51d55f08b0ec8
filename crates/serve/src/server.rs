//! The `boxagg serve` server: one thread per TCP connection, reads
//! answered inline on pinned snapshots, writes collapsed into commit
//! rounds.
//!
//! ## Connections — a connection is a thread
//!
//! The accept thread owns a `std::thread::scope`; every admitted
//! connection is one scoped thread that lives exactly as long as the
//! connection does. An idle server is two threads (accept, committer).
//! Leaving the scope joins every connection thread, which is the join
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
//! ## Write path — group commit, idempotency tokens
//!
//! Inserts and deletes mutate the live engine under a mutex and stay
//! buffered in the store's no-steal pool; they become visible to reads
//! only at the next commit (reads run on snapshots of the last
//! committed epoch). `Commit` requests queue to a committer thread,
//! the only caller of `SharedStore::commit`. It collapses a round
//! itself: it drains everything waiting, publishes the catalog once
//! and commits once, so N concurrent network commits cost one WAL
//! transaction and one set of syncs, not N.
//!
//! Writes are retry-safe end to end. A tokened op (`token != 0`)
//! carries a per-token sequence number; the server skips `(token,
//! seq)` pairs it has already applied, so a client replaying its
//! buffered ops after a reconnect never double-applies. At commit, the
//! round's tokens are recorded durably in the superblock catalog
//! *inside the same WAL transaction* as the data — so after a server
//! restart, a retried `Commit` whose token is on disk answers `Ok`
//! with the originally recorded result instead of re-committing, and
//! any re-sent ops under a durable token are skipped outright.
//!
//! ## Deadlines, overload, failure
//!
//! Requests may carry a deadline (milliseconds, in the frame header).
//! Work whose deadline has already expired is dropped with a typed
//! [`DEADLINE_EXCEEDED`](proto::code::DEADLINE_EXCEEDED) frame instead
//! of being done for a caller who has stopped waiting: every request
//! is checked on arrival (a read never waits after that), a write
//! again once it holds the write lock, a commit again when the
//! committer takes it off its queue. Each *frame read* is separately bounded by [`ServeConfig::read_deadline`]: a
//! slowloris peer trickling one byte a second cannot hold a thread
//! past it, because the per-read socket timeout shrinks as the frame
//! deadline approaches. Idle connections are reaped after
//! [`ServeConfig::idle_timeout`].
//!
//! Overload is shed, not queued without bound, writes first: the
//! commit queue refuses at a quarter of [`ServeConfig::queue_limit`],
//! reads only once `queue_limit` of them are in flight at the same
//! moment. Shed requests — and writes refused by the pagestore's dirty-page ceiling
//! (`Error::Backpressure`) — answer a typed
//! [`OVERLOADED`](proto::code::OVERLOADED) frame carrying a
//! retry-after hint; the connection stays open. The accept loop
//! enforces [`ServeConfig::max_connections`] the same way: a refused
//! connection gets one typed `OVERLOADED` frame, then closes — never a
//! silent drop. A connection's slot is released by a guard its thread
//! owns, so a handler that dies still gives the slot back.
//!
//! Malformed frames (bad checksum, truncation, alien tags) get a typed
//! [`code::PROTOCOL`] error frame and the connection closes;
//! semantically invalid requests on a well-formed frame get
//! [`code::INVALID_ARGUMENT`] and the connection stays usable. Every
//! error path answers a typed frame before closing; the server never
//! panics on hostile bytes. If a commit round fails for a non-overload
//! reason, the write path **fail-stops** (every later write answers
//! `INTERNAL` until the process restarts): continuing to mutate an
//! engine whose durable state is unknown would forfeit the exactly-once
//! guarantee.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
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
    /// accepts get a typed `OVERLOADED` refusal.
    pub max_connections: usize,
    /// Where load shedding begins. Commits shed once a quarter of
    /// this many are queued, reads once this many are in flight.
    pub queue_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            read_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            max_connections: 48,
            queue_limit: 256,
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

struct CommitJob {
    token: u64,
    deadline: Deadline,
    reply: Sender<Result<u64>>,
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    groups: AtomicU64,
    node_accesses: AtomicU64,
    node_decodes: AtomicU64,
    commits: AtomicU64,
    commit_rounds: AtomicU64,
    protocol_errors: AtomicU64,
    shed: AtomicU64,
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
    /// Set when a commit round failed for a non-overload reason; every
    /// later write answers `INTERNAL` until the server restarts.
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
    /// The committer's queue; `None` tells it to stop.
    commit_tx: Sender<Option<CommitJob>>,
    /// Depth of the commit queue.
    commit_depth: AtomicU64,
    /// Reads being answered right now, one per connection thread
    /// inside [`run_read`].
    reads_in_flight: AtomicU64,
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
    fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            groups: self.counters.groups.load(Ordering::Relaxed),
            node_accesses: self.counters.node_accesses.load(Ordering::Relaxed),
            node_decodes: self.counters.node_decodes.load(Ordering::Relaxed),
            commits: self.counters.commits.load(Ordering::Relaxed),
            commit_rounds: self.counters.commit_rounds.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            replays: self.counters.replays.load(Ordering::Relaxed),
            refused_conns: self.counters.refused_conns.load(Ordering::Relaxed),
            validate_ok: self.store.validate().is_ok(),
        }
    }

    fn overloaded(&self) -> Error {
        Error::Overloaded {
            retry_after_ms: RETRY_AFTER_MS,
        }
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
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

        let (commit_tx, commit_rx) = channel::<Option<CommitJob>>();
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
            commit_tx,
            commit_depth: AtomicU64::new(0),
            reads_in_flight: AtomicU64::new(0),
            objects: AtomicU64::new(objects),
            conns: AtomicU64::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
        });

        let committer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || committer_loop(&shared, &commit_rx))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Self {
            addr: local,
            shared,
            accept: Some(accept),
            committer: Some(committer),
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
    /// shutdown flag within their poll interval). The committer is
    /// woken by a stop message queued behind every commit.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread returns only once every connection thread
        // has, so no commit can be queued behind the stop message.
        join(self.accept.take());
        if let Some(committer) = self.committer.take() {
            // lint: allow(discarded-result) -- a committer that already returned has dropped its queue
            let _ = self.shared.commit_tx.send(None);
            join(Some(committer));
        }
    }
}

fn join(thread: Option<JoinHandle<()>>) {
    if let Some(Err(payload)) = thread.map(JoinHandle::join) {
        // A serving thread never panics by design; if one ever does,
        // the payload must not re-detonate here.
        std::mem::forget(payload);
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

/// Re-creates a typed error for fan-out to every member of a commit
/// round ([`Error`] is not `Clone`; the wire code and payload must
/// survive the copy).
fn replicate(e: &Error) -> Error {
    match e {
        Error::Backpressure { dirty, ceiling } => Error::Backpressure {
            dirty: *dirty,
            ceiling: *ceiling,
        },
        Error::Overloaded { retry_after_ms } => Error::Overloaded {
            retry_after_ms: *retry_after_ms,
        },
        Error::DeadlineExceeded { budget_ms } => Error::DeadlineExceeded {
            budget_ms: *budget_ms,
        },
        Error::ReadOnly { op } => Error::ReadOnly { op },
        Error::InvalidArgument(m) => Error::InvalidArgument(m.clone()),
        other => Error::Io(std::io::Error::other(other.to_string())),
    }
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

fn committer_loop(shared: &Shared, rx: &Receiver<Option<CommitJob>>) {
    // `None` is the stop message, queued behind every commit (see
    // `ServerHandle::stop`).
    while let Ok(Some(first)) = rx.recv() {
        shared.commit_depth.fetch_sub(1, Ordering::SeqCst);
        let mut round = vec![first];
        while let Ok(msg) = rx.try_recv() {
            let Some(job) = msg else { return };
            shared.commit_depth.fetch_sub(1, Ordering::SeqCst);
            round.push(job);
        }
        // Members whose deadline expired while queued drop out before
        // the round runs. (The round itself still commits for the
        // survivors; an expired member's buffered writes may ride
        // along — its token is *not* recorded, so its retry will
        // re-commit and record it then.)
        let mut live = Vec::with_capacity(round.len());
        for job in round {
            if job.deadline.expired() {
                shared.counters.expired.fetch_add(1, Ordering::Relaxed);
                // lint: allow(discarded-result) -- a receiver that hung up no longer wants the verdict
                let _ = job.reply.send(Err(job.deadline.error()));
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }
        // One catalog publish + one commit for the whole round. The
        // write lock is held across token recording, root publish and
        // the commit itself, so the tokens land in the same WAL
        // transaction as the data they guard and no insert can
        // interleave between the roots being published and the
        // transaction committing.
        let result = {
            let mut w = lock_write(shared);
            if w.poisoned {
                Err(poisoned_error())
            } else {
                let objects = w.engine.len() as u64;
                let mut tokens: Vec<u64> =
                    live.iter().map(|j| j.token).filter(|&t| t != 0).collect();
                tokens.sort_unstable();
                tokens.dedup();
                let mut res = Ok(());
                for &t in &tokens {
                    res = res.and_then(|()| {
                        shared
                            .store
                            .record_idempotency_token(t, objects, IDEM_RETAIN)
                    });
                }
                let res = res
                    .and_then(|()| persist_corner_engine(&w.engine, &shared.space))
                    .and_then(|()| shared.store.commit());
                match res {
                    Ok(()) => {
                        // The tokens are durable; the in-memory replay
                        // filter no longer needs their progress.
                        for &t in &tokens {
                            w.forget(t);
                        }
                        Ok(objects)
                    }
                    Err(e) => {
                        if !matches!(e, Error::Backpressure { .. }) {
                            // Fail-stop: the engine's durable state is
                            // now unknown; more writes could smear a
                            // half-committed image. Reads (snapshots of
                            // the last committed epoch) stay safe.
                            w.poisoned = true;
                        }
                        Err(e)
                    }
                }
            }
        };
        shared
            .counters
            .commits
            .fetch_add(live.len() as u64, Ordering::Relaxed);
        shared
            .counters
            .commit_rounds
            .fetch_add(1, Ordering::Relaxed);
        for job in live {
            let reply = match &result {
                Ok(n) => Ok(*n),
                Err(e) => Err(replicate(e)),
            };
            // lint: allow(discarded-result) -- a receiver that hung up no longer wants the outcome
            let _ = job.reply.send(reply);
        }
    }
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
        Request::Commit { token } => {
            // A token already durable on disk means this commit (and
            // everything under it) happened: answer the recorded
            // result without touching the engine.
            if token != 0 {
                match shared.store.idempotency_token(token) {
                    Ok(Some(result)) => {
                        shared.counters.replays.fetch_add(1, Ordering::Relaxed);
                        return Response::Ok { objects: result };
                    }
                    Ok(None) => {}
                    Err(e) => return error_response(&e),
                }
            }
            // Writes shed first: commits refuse at a quarter of the
            // queue limit.
            let commit_limit = (shared.cfg.queue_limit / 4).max(1) as u64;
            if shared.commit_depth.load(Ordering::SeqCst) >= commit_limit {
                shared.counters.shed.fetch_add(1, Ordering::Relaxed);
                return error_response(&shared.overloaded());
            }
            let (tx, rx) = channel();
            shared.commit_depth.fetch_add(1, Ordering::SeqCst);
            if shared
                .commit_tx
                .send(Some(CommitJob {
                    token,
                    deadline,
                    reply: tx,
                }))
                .is_err()
            {
                shared.commit_depth.fetch_sub(1, Ordering::SeqCst);
                return error_response(&invalid_arg("server is shutting down"));
            }
            match rx.recv() {
                Ok(Ok(objects)) => Response::Ok { objects },
                Ok(Err(e)) => error_response(&e),
                Err(_) => error_response(&invalid_arg("server is shutting down")),
            }
        }
        Request::Stats => Response::StatsReply(shared.stats()),
    }
}

/// The shared insert/delete path: deadline re-check, fail-stop check,
/// backpressure admission, `(token, seq)` replay filtering (in-memory
/// and against durable tokens), then the engine mutation. Dirty-page
/// `Backpressure` from the store passes through typed — the wire maps
/// it to `OVERLOADED`.
fn apply_write(
    shared: &Shared,
    deadline: Deadline,
    token: u64,
    seq: u32,
    op: impl FnOnce(&mut WriteState) -> Result<()>,
) -> Response {
    let mut w = lock_write(shared);
    // The write lock is held across a whole commit round, so the wait
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
        let committed = match shared.store.idempotency_token(token) {
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
    // Admission check: a store already at its dirty-page ceiling would
    // refuse the op midway through its page writes, leaving the engine
    // partially mutated — and a partially applied op is NOT made safe
    // by the `(token, seq)` filter, because a failed op is never
    // recorded and its retry re-applies it whole. Refusing up front
    // keeps refused writes side-effect-free, so the client's backoff
    // retry is exactly-once. (Replays are answered above even at the
    // ceiling: they touch no pages.)
    let ceiling = shared.store.dirty_ceiling();
    if ceiling != 0 {
        let dirty = shared.store.dirty_pages();
        if dirty >= ceiling {
            return error_response(&Error::Backpressure { dirty, ceiling });
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

/// One claim on a bounded tier — a read in flight, a live connection —
/// released on drop, so a holder that unwinds still gives it back.
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
    // Reads shed last: only with `queue_limit` of them in flight.
    let limit = shared.cfg.queue_limit.max(1) as u64;
    let Some(_slot) = Slot::claim(&shared.reads_in_flight, limit) else {
        shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        return error_response(&shared.overloaded());
    };
    let opened = shared
        .store
        .snapshot()
        .map(Arc::new)
        .and_then(|snap| Ok((open_corner_engine(&snap)?.0, snap)));
    let (engine, snap) = match opened {
        Ok(pair) => pair,
        Err(e) => return error_response(&e),
    };
    // `groups` stays on the wire and counts one per executed read.
    shared.counters.queries.fetch_add(1, Ordering::Relaxed);
    shared.counters.groups.fetch_add(1, Ordering::Relaxed);
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
