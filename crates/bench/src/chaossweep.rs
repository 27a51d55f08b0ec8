//! Every-operation *network* chaos sweep over the serving protocol.
//!
//! Where [`crashsweep`](crate::crashsweep) kills the process at every
//! pager operation of an embedded workload, this sweep asks the same
//! question one layer up: *is there any point in a served conversation
//! at which killing the connection — or the whole server — loses a
//! committed write, applies a retried write twice, or changes a single
//! answer bit?*
//!
//! The workload is a scripted conversation between two clients and one
//! server over a file-backed, WAL-enabled store: a *writer* applies
//! `batches` tokened write batches (each ending in
//! [`commit_durable`](boxagg_serve::Client::commit_durable) under an
//! explicit idempotency token) while a *reader* records the bit
//! patterns of every query answer at each commit boundary. A clean run
//! measures the sweep's two domains: `T_conn`, the writer connection's
//! socket operations (via an unarmed
//! [`StreamFaultHandle`](boxagg_serve::StreamFaultHandle)), and
//! `T_store`, the server store's serving-phase pager operations (via an
//! unarmed [`FaultHandle`] under the store).
//!
//! **Connection kills** — for every `k` in `1..=T_conn`: the workload
//! re-runs from scratch with a sticky kill armed at the writer's `k`-th
//! socket operation. The socket dies mid-protocol; the server stays up.
//! The writer reconnects, replays its pended ops under their original
//! `(token, seq)` identities (the server skips the ones it already
//! applied) and retries; `commit_durable` rides kills that land inside
//! the commit exchange. Every checkpoint must stay bit-identical to
//! the fault-free run and the final object count must prove every op
//! applied exactly once.
//!
//! **Server kills** — for every `k` in `1..=T_store`: the workload
//! re-runs with a sticky fault armed at the store's `k`-th
//! serving-phase pager operation, which is what process death looks
//! like from below the buffer pool. The run dies on its first error;
//! the server is torn down without a flush; the file set is reopened
//! *cold* through [`SharedStore::open`], which runs WAL recovery. The
//! recovered store must validate and answer bit-identically to exactly
//! one commit boundary — at least the batches whose commits had
//! returned, at most one more (a commit in flight may have landed).
//! A fresh server is bound on a new port; the writer follows it with
//! [`redirect`](boxagg_serve::Client::redirect), replays, re-commits
//! under the same token (a commit that *did* land is answered from the
//! durable token record), and finishes the workload. The final state
//! must be bit-identical to the fault-free run — never a double-apply,
//! never a lost batch.

use std::net::SocketAddr;
use std::path::Path;

use boxagg_common::error::Error;
use boxagg_common::geom::Rect;
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::fault::FaultHandle;
use boxagg_pagestore::pager::wal_path;
use boxagg_pagestore::{
    Backing, FaultPager, FaultSpec, FilePager, OpFilter, SharedStore, StoreConfig,
};
use boxagg_serve::{
    Client, ServeConfig, ServerHandle, StreamFaultHandle, StreamFaultSpec, StreamOpFilter,
};

/// Idempotency tokens are `TOKEN_BASE + batch + 1`, stable across the
/// baseline and every faulted re-run (each run gets fresh store files,
/// so reuse is deliberate: a retried run must speak the same identity).
const TOKEN_BASE: u64 = 0xCA05_0000;

/// Parameters of one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Objects committed into the store before serving starts.
    pub base_objects: usize,
    /// Tokened write batches the writer applies while serving.
    pub batches: usize,
    /// Inserts per batch.
    pub ops_per_batch: usize,
    /// Reader queries per commit-boundary checkpoint.
    pub queries: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Seed for the dataset, the queries and the client backoff jitter.
    pub seed: u64,
    /// Test every `stride`-th op index; 1 is exhaustive.
    pub stride: u64,
}

impl ChaosConfig {
    /// A workload small enough for an exhaustive (`stride == 1`) sweep
    /// in a release-build bench run, yet crossing every protocol phase:
    /// handshake, queries, tokened writes, durable commits.
    pub fn small() -> Self {
        Self {
            base_objects: 48,
            batches: 3,
            ops_per_batch: 4,
            queries: 4,
            // Page 0's catalog payload holds the engine roots plus the
            // retained durable idempotency tokens; 512-byte pages
            // overflow it with this many batches.
            page_size: 1024,
            buffer_pages: 64,
            seed: 0xCA05,
            stride: 1,
        }
    }

    /// A minutes-to-seconds shrink of [`small`](Self::small) for CI
    /// smoke runs and the in-crate canary. Still stride 1 — the sweep
    /// stays exhaustive, only the workload shrinks.
    pub fn smoke() -> Self {
        Self {
            base_objects: 16,
            batches: 2,
            ops_per_batch: 2,
            queries: 2,
            ..Self::small()
        }
    }
}

/// What an entire chaos sweep observed.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Writer socket operations of the clean run (connection-kill domain).
    pub conn_ops: u64,
    /// Serving-phase pager operations of the clean run (server-kill domain).
    pub store_ops: u64,
    /// Connection-kill positions tested.
    pub conn_kills_tested: u64,
    /// Connection kills whose armed fault actually fired. (TCP read
    /// chunking can merge two reads into one, so a late `k` may go
    /// unfired; the run is then a clean re-run and still checked.)
    pub conn_kills_fired: u64,
    /// Connection-kill runs that exercised the explicit
    /// reconnect-replay-retry path (the rest rode through
    /// `commit_durable`'s internal cycle or never fired).
    pub conn_reconnects: u64,
    /// Server-kill positions tested; every one restarts the server.
    pub server_kills_tested: u64,
    /// Cold recover-and-rebind cycles performed (one per server kill).
    pub server_restarts: u64,
    /// Server kills whose recovery landed mid-batch commits: the
    /// in-flight commit had already reached durability, so the retry
    /// was answered from the token record instead of re-applying.
    pub in_flight_commits_landed: u64,
    /// WAL transactions replayed across all cold reopens.
    pub wal_txns_replayed: u64,
    /// Replayed ops and commits the servers skipped or answered from
    /// the token record (summed server `replays` counters).
    pub replays_skipped: u64,
    /// Checkpoint answer vectors compared bit-for-bit against the
    /// fault-free run.
    pub answers_checked: u64,
    /// Histogram over recovery boundaries: entry `m` counts server
    /// kills that recovered to "seed state plus the first `m` batches".
    /// Sums to [`server_kills_tested`](Self::server_kills_tested) —
    /// every kill lands on exactly one committed state.
    pub recovered_boundaries: Vec<u64>,
}

/// The scripted conversation: per-batch inserts and the checkpoint
/// queries, fixed up front so every re-run replays the same bytes.
struct Workload {
    space: Rect,
    batches: Vec<Vec<(Rect, f64)>>,
    queries: Vec<Rect>,
}

fn rand_rect(rng: &mut StdRng, side: f64) -> Rect {
    let bounds: Vec<(f64, f64)> = (0..2)
        .map(|_| {
            let l = rng.gen::<f64>() * (1.0 - side);
            (l, l + rng.gen::<f64>() * side)
        })
        .collect();
    Rect::from_bounds(&bounds)
}

fn gen_workload(cfg: &ChaosConfig) -> Workload {
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
    let batches = (0..cfg.batches)
        .map(|_| {
            (0..cfg.ops_per_batch)
                .map(|_| {
                    let r = rand_rect(&mut rng, 0.3);
                    let v = rng.gen_range(1..1000) as f64;
                    (r, v)
                })
                .collect()
        })
        .collect();
    // The whole space is always queried first, so every commit boundary
    // is guaranteed to differ from its neighbours in at least one bit.
    let queries = std::iter::once(space)
        .chain((1..cfg.queries).map(|_| rand_rect(&mut rng, 0.6)))
        .collect();
    Workload {
        space,
        batches,
        queries,
    }
}

fn store_config(cfg: &ChaosConfig, path: &Path) -> StoreConfig {
    StoreConfig {
        page_size: cfg.page_size,
        buffer_pages: cfg.buffer_pages,
        backing: Backing::File(path.to_path_buf()),
        parallelism: 1,
        node_cache_pages: cfg.buffer_pages,
        wal: true,
    }
}

/// The driver is strictly serial (one request in flight at a time):
/// four connections cover the driver's own, its reconnects and the
/// probes.
fn serve_config() -> ServeConfig {
    ServeConfig {
        max_connections: 4,
        ..ServeConfig::default()
    }
}

/// Removes any previous file-set generation, opens a fresh
/// fault-instrumented store over it and seeds + commits the engine.
/// The fault counters reset after the seed commit, so op index 1 is
/// the first *serving-phase* pager operation — faulted runs arm their
/// sticky spec at the same point.
fn fresh_store(cfg: &ChaosConfig, wl: &Workload, path: &Path) -> (SharedStore, FaultHandle) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
    let file = match FilePager::create(path, cfg.page_size) {
        Ok(f) => f,
        // lint: allow(panic) -- tempdir file creation is sweep scaffolding, not the system under test
        Err(e) => panic!("create {}: {e}", path.display()),
    };
    let (pager, faults) = FaultPager::new(Box::new(file));
    let store = SharedStore::open_with_pager(Box::new(pager), &store_config(cfg, path))
        .expect("open chaos store");
    let mut engine = SimpleBoxSum::batree_in(wl.space, store.clone()).expect("create engine");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for _ in 0..cfg.base_objects {
        let r = rand_rect(&mut rng, 0.3);
        let v = rng.gen_range(1..1000) as f64;
        engine.insert(&r, v).expect("seed insert");
    }
    boxagg_core::catalog::persist_corner_engine(&engine, &wl.space).expect("persist seed engine");
    store.commit().expect("seed commit");
    faults.reset_counts();
    (store, faults)
}

/// One checkpoint: every query answer as its raw `f64` bit pattern, so
/// "bit-identical to the fault-free run" is literal.
fn checkpoint(reader: &mut Client, queries: &[Rect]) -> Result<Vec<u64>, Error> {
    queries
        .iter()
        .map(|q| reader.box_sum(q).map(f64::to_bits))
        .collect()
}

fn token_for(batch: usize) -> u64 {
    TOKEN_BASE + batch as u64 + 1
}

/// The clean run's committed states and the two sweep domains.
struct Baseline {
    conn_ops: u64,
    store_ops: u64,
    /// `answers[m]`: checkpoint bits with the first `m` batches committed.
    answers: Vec<Vec<u64>>,
    /// `counts[m]`: object count at the same boundary.
    counts: Vec<u64>,
}

fn baseline(cfg: &ChaosConfig, wl: &Workload, path: &Path) -> Baseline {
    let (store, faults) = fresh_store(cfg, wl, path);
    let server = ServerHandle::bind(store.clone(), "127.0.0.1:0", serve_config())
        .expect("bind chaos server");
    let addr = server.local_addr();
    let conn = StreamFaultHandle::new();
    let mut writer = Client::connect_faulted(addr, conn.clone()).expect("writer connect");
    let mut reader = Client::connect(addr).expect("reader connect");

    let mut counts = vec![cfg.base_objects as u64];
    let mut answers = vec![checkpoint(&mut reader, &wl.queries).expect("baseline checkpoint 0")];
    for (b, ops) in wl.batches.iter().enumerate() {
        writer.set_next_token(token_for(b));
        for (r, v) in ops {
            writer.insert(r, *v).expect("baseline insert");
        }
        let n = writer.commit_durable().expect("baseline commit");
        assert_eq!(
            n,
            counts[b] + ops.len() as u64,
            "baseline batch {b} commit count"
        );
        counts.push(n);
        answers.push(checkpoint(&mut reader, &wl.queries).expect("baseline checkpoint"));
    }
    // The domains are measured at the end of the last checkpoint:
    // every swept k lands inside the scripted conversation.
    let conn_ops = conn.counts().total();
    let store_ops = faults.counts().total();
    for m in 1..answers.len() {
        assert_ne!(
            answers[m - 1][0],
            answers[m][0],
            "batch {m} must move the whole-space sum: boundaries must be tellable apart"
        );
    }
    drop(writer);
    drop(reader);
    server.shutdown();
    Baseline {
        conn_ops,
        store_ops,
        answers,
        counts,
    }
}

/// Asserts a connection-kill error is connection-shaped — the injected
/// socket failure or the resulting mid-frame hangup — and not a typed
/// server-side refusal (which would mean the kill was misattributed).
fn assert_conn_error(k: u64, e: &Error) {
    // A mid-frame kill surfaces as the injected I/O error, a hangup
    // noticed by the frame reader ("connection closed mid-frame" /
    // "... before the frame checksum" / "server closed the
    // connection"), or a truncated-frame decode — never as a typed
    // server refusal.
    let msg = e.to_string();
    let ok = matches!(e, Error::Io(_)) || msg.contains("closed") || msg.contains("injected");
    assert!(
        ok,
        "conn kill at op {k}: expected a connection error, got: {e}"
    );
}

struct ConnOutcome {
    fired: bool,
    recovered: bool,
    replays: u64,
    answers_checked: u64,
}

/// One connection-kill run: sticky socket kill at the writer's `k`-th
/// stream op; the server stays up throughout.
fn conn_kill_run(
    cfg: &ChaosConfig,
    wl: &Workload,
    base: &Baseline,
    path: &Path,
    k: u64,
) -> ConnOutcome {
    let (store, _faults) = fresh_store(cfg, wl, path);
    let server =
        ServerHandle::bind(store, "127.0.0.1:0", serve_config()).expect("bind chaos server");
    let addr = server.local_addr();

    let conn = StreamFaultHandle::new();
    conn.arm(StreamFaultSpec::kill_at(StreamOpFilter::Any, k));
    let mut recovered = false;
    let mut writer = match Client::connect_faulted(addr, conn.clone()) {
        Ok(w) => w,
        Err(e) => {
            // Killed inside the handshake: dial again on a plain socket.
            assert_conn_error(k, &e);
            recovered = true;
            Client::connect(addr).expect("writer redial after handshake kill")
        }
    };
    writer.set_backoff_seed(cfg.seed ^ k);
    let mut reader = Client::connect(addr).expect("reader connect");

    let mut answers = vec![checkpoint(&mut reader, &wl.queries).expect("checkpoint 0")];
    for (b, ops) in wl.batches.iter().enumerate() {
        writer.set_next_token(token_for(b));
        for (r, v) in ops {
            if let Err(e) = writer.insert(r, *v) {
                // The server is alive: reconnect swaps the killed
                // stream for a plain socket, replay re-applies the
                // pended prefix (the server skips what it already
                // applied), and the failed op retries under its
                // original sequence number — exactly-once either way.
                assert_conn_error(k, &e);
                recovered = true;
                writer.reconnect().expect("writer reconnect");
                writer.replay_pending().expect("replay after reconnect");
                writer.insert(r, *v).expect("retried insert");
            }
        }
        // A kill inside the commit exchange rides commit_durable's own
        // reconnect-replay-retry cycle.
        let n = writer.commit_durable().expect("durable commit");
        assert_eq!(
            n,
            base.counts[b + 1],
            "conn kill at op {k}: object count after batch {b} — an op was lost or doubled"
        );
        answers.push(checkpoint(&mut reader, &wl.queries).expect("checkpoint"));
    }
    assert_eq!(
        answers, base.answers,
        "conn kill at op {k}: answers must be bit-identical to the fault-free run"
    );
    let stats = reader.stats().expect("final stats");
    assert!(
        stats.validate_ok,
        "conn kill at op {k}: store failed validation after the run"
    );
    let fired = conn.injected() > 0;
    let answers_checked = answers.len() as u64;
    drop(writer);
    drop(reader);
    server.shutdown();
    ConnOutcome {
        fired,
        recovered,
        replays: stats.replays,
        answers_checked,
    }
}

/// Where a server-kill run's first error surfaced.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// The engine reopen inside `bind` died: nothing was ever served.
    Bind,
    /// Checkpoint `c`'s queries died.
    Checkpoint(usize),
    /// Batch `b`, op `i` died.
    Insert(usize, usize),
    /// Batch `b`'s durable commit died.
    Commit(usize),
}

struct ServerOutcome {
    boundary: usize,
    in_flight_landed: bool,
    txns_replayed: u64,
    replays: u64,
    answers_checked: u64,
}

/// One server-kill run: sticky pager fault at the store's `k`-th
/// serving-phase operation, then a full process-death teardown, cold
/// recovery, restart on a fresh port and scripted resumption.
fn server_kill_run(
    cfg: &ChaosConfig,
    wl: &Workload,
    base: &Baseline,
    path: &Path,
    k: u64,
) -> ServerOutcome {
    let (store, faults) = fresh_store(cfg, wl, path);
    faults.arm(FaultSpec::sticky_from(OpFilter::Any, k));

    let mut server: Option<ServerHandle> = None;
    let mut writer: Option<Client> = None;
    let mut reader: Option<Client> = None;
    let mut done = 0usize; // commits the driver saw return Ok
    let mut answers_checked = 0u64;

    // Phase 1: run the script against the doomed server until its
    // first error. Pre-kill answers are part of the bit-identity claim.
    let stop = {
        let run = |server: &mut Option<ServerHandle>,
                   writer: &mut Option<Client>,
                   reader: &mut Option<Client>,
                   done: &mut usize,
                   answers_checked: &mut u64|
         -> Result<(), Stop> {
            let s = ServerHandle::bind(store.clone(), "127.0.0.1:0", serve_config())
                .map_err(|_| Stop::Bind)?;
            let addr = s.local_addr();
            *server = Some(s);
            let mut w = Client::connect(addr).expect("writer connect");
            w.set_backoff_seed(cfg.seed ^ k ^ 1);
            *writer = Some(w);
            *reader = Some(Client::connect(addr).expect("reader connect"));
            let a = checkpoint(reader.as_mut().expect("reader"), &wl.queries)
                .map_err(|_| Stop::Checkpoint(0))?;
            assert_eq!(a, base.answers[0], "server kill at op {k}: checkpoint 0");
            *answers_checked += 1;
            for (b, ops) in wl.batches.iter().enumerate() {
                let w = writer.as_mut().expect("writer");
                w.set_next_token(token_for(b));
                for (i, (r, v)) in ops.iter().enumerate() {
                    w.insert(r, *v).map_err(|_| Stop::Insert(b, i))?;
                }
                let n = w.commit_durable().map_err(|_| Stop::Commit(b))?;
                assert_eq!(
                    n,
                    base.counts[b + 1],
                    "server kill at op {k}: pre-kill commit count for batch {b}"
                );
                *done += 1;
                let a = checkpoint(reader.as_mut().expect("reader"), &wl.queries)
                    .map_err(|_| Stop::Checkpoint(b + 1))?;
                assert_eq!(
                    a,
                    base.answers[b + 1],
                    "server kill at op {k}: pre-kill checkpoint {}",
                    b + 1
                );
                *answers_checked += 1;
            }
            Ok(())
        };
        match run(
            &mut server,
            &mut writer,
            &mut reader,
            &mut done,
            &mut answers_checked,
        ) {
            // k ≤ store_ops and the serial script's pager stream is
            // deterministic, so the kill fired; completing anyway
            // means a layer swallowed the injected failure.
            // lint: allow(panic) -- a swallowed kill is exactly the bug the sweep exists to catch
            Ok(()) => panic!(
                "server kill at op {k} fired ({} injections) but the workload completed — \
                 an error was swallowed",
                faults.injected()
            ),
            Err(stop) => stop,
        }
    };
    assert!(
        faults.injected() >= 1,
        "server kill at op {k}: run died at {stop:?} without the fault firing"
    );

    // Process death: tear down every in-process reference without a
    // flush. (Nothing flushes on drop, and the sticky fault would fail
    // it anyway.)
    drop(reader.take());
    if let Some(s) = server.take() {
        s.shutdown();
    }
    drop(store);

    // Rebirth: a cold open over the same files runs WAL recovery.
    let recovered = match SharedStore::open(&store_config(cfg, path)) {
        Ok(s) => s,
        // lint: allow(panic) -- recovery refusing to open after a kill is a durability bug
        Err(e) => panic!("server kill at op {k}: cold reopen failed: {e}"),
    };
    recovered
        .validate()
        // lint: allow(panic) -- an invalid recovered store is the durability failure under test
        .unwrap_or_else(|e| panic!("server kill at op {k}: recovered store invalid: {e}"));
    let rec = recovered.recovery_report();

    // Restart on a fresh ephemeral port, as a reborn process would.
    let new_server = ServerHandle::bind(recovered, "127.0.0.1:0", serve_config())
        .expect("rebind after recovery");
    let addr: SocketAddr = new_server.local_addr();
    let mut r = Client::connect(addr).expect("reader redial");
    let n_rec = r.hello().objects;
    let a_rec = checkpoint(&mut r, &wl.queries).expect("post-recovery checkpoint");
    answers_checked += 1;

    // Exactly one committed state: the recovered answers must be
    // bit-identical to a single batch boundary (the baseline sanity
    // check guarantees boundaries are pairwise distinguishable), and
    // that boundary must be consistent with the commits the driver saw
    // return before the kill.
    let m = base
        .answers
        .iter()
        .position(|a| *a == a_rec)
        .unwrap_or_else(|| {
            // lint: allow(panic) -- an in-between state is the chaos-consistency failure itself
            panic!("server kill at op {k}: recovered store matches no commit boundary")
        });
    assert_eq!(
        n_rec, base.counts[m],
        "server kill at op {k}: recovered object count disagrees with boundary {m}"
    );
    let in_flight = matches!(stop, Stop::Commit(_));
    assert!(
        m >= done,
        "server kill at op {k}: recovery lost a batch whose commit had returned \
         (boundary {m}, {done} commits acknowledged)"
    );
    assert!(
        m <= done + usize::from(in_flight),
        "server kill at op {k}: recovery invented boundary {m} with only {done} commits \
         acknowledged and {} in flight",
        usize::from(in_flight)
    );

    // Resume the script. The writer follows the restart with its
    // pended batch intact; replaying against the reborn server is
    // exactly-once through the durable token record.
    let mut w = match writer.take() {
        Some(mut w) => {
            w.redirect(addr).expect("writer redirect");
            w
        }
        None => Client::connect(addr).expect("writer connect after recovery"),
    };
    let check = |r: &mut Client, c: usize, checked: &mut u64| {
        let a = checkpoint(r, &wl.queries).expect("resumed checkpoint");
        assert_eq!(
            a, base.answers[c],
            "server kill at op {k}: checkpoint {c} after recovery"
        );
        *checked += 1;
    };
    let resume_b = match stop {
        Stop::Bind => {
            check(&mut r, 0, &mut answers_checked);
            0
        }
        Stop::Checkpoint(c) => {
            check(&mut r, c, &mut answers_checked);
            c
        }
        Stop::Insert(b, i) => {
            // The pended prefix replays (applied fresh — its effects
            // died with the old process), the failed op retries under
            // its original sequence number, the tail runs for the
            // first time.
            w.replay_pending().expect("replay after restart");
            for (r2, v) in &wl.batches[b][i..] {
                w.insert(r2, *v).expect("resumed insert");
            }
            let n = w.commit_durable().expect("commit after restart");
            assert_eq!(
                n,
                base.counts[b + 1],
                "server kill at op {k}: resumed batch {b} commit count"
            );
            check(&mut r, b + 1, &mut answers_checked);
            b + 1
        }
        Stop::Commit(b) => {
            // If the in-flight commit landed (m == b + 1), the replay
            // is skipped against the durable token record and the
            // commit is answered from it; otherwise both run for real.
            w.replay_pending().expect("replay after restart");
            let n = w.commit_durable().expect("commit after restart");
            assert_eq!(
                n,
                base.counts[b + 1],
                "server kill at op {k}: re-committed batch {b} count"
            );
            check(&mut r, b + 1, &mut answers_checked);
            b + 1
        }
    };
    for b in resume_b..cfg.batches {
        w.set_next_token(token_for(b));
        for (r2, v) in &wl.batches[b] {
            w.insert(r2, *v).expect("post-recovery insert");
        }
        let n = w.commit_durable().expect("post-recovery commit");
        assert_eq!(
            n,
            base.counts[b + 1],
            "server kill at op {k}: post-recovery batch {b} commit count"
        );
        check(&mut r, b + 1, &mut answers_checked);
    }

    let stats = r.stats().expect("final stats");
    assert!(
        stats.validate_ok,
        "server kill at op {k}: store failed validation after the resumed run"
    );
    // A final empty tokened commit probes the live object count one
    // last time: any lost or doubled op would show here even if every
    // query rect happened to miss it.
    let final_n = w.commit_durable().expect("empty tail commit");
    assert_eq!(
        final_n,
        *base.counts.last().expect("counts"),
        "server kill at op {k}: final object count — an op was lost or doubled"
    );
    drop(w);
    drop(r);
    new_server.shutdown();
    ServerOutcome {
        boundary: m,
        in_flight_landed: in_flight && m == done + 1,
        txns_replayed: rec.txns_replayed,
        replays: stats.replays,
        answers_checked,
    }
}

/// Runs the full chaos sweep for `cfg`, panicking on any lost batch,
/// double-applied op, diverging answer bit or invalid recovered store.
/// See the module docs for the two sweep families.
pub fn run(cfg: &ChaosConfig) -> ChaosReport {
    let wl = gen_workload(cfg);
    let dir = tempdir::tempdir().expect("tempdir");
    let path = dir.path().join("chaos.pages");

    let base = baseline(cfg, &wl, &path);
    let mut report = ChaosReport {
        conn_ops: base.conn_ops,
        store_ops: base.store_ops,
        recovered_boundaries: vec![0; cfg.batches + 1],
        ..ChaosReport::default()
    };

    let stride = cfg.stride.max(1);
    let mut k = 1;
    while k <= base.conn_ops {
        report.conn_kills_tested += 1;
        let o = conn_kill_run(cfg, &wl, &base, &path, k);
        report.conn_kills_fired += u64::from(o.fired);
        report.conn_reconnects += u64::from(o.recovered);
        report.replays_skipped += o.replays;
        report.answers_checked += o.answers_checked;
        k = k.saturating_add(stride);
    }
    let mut k = 1;
    while k <= base.store_ops {
        report.server_kills_tested += 1;
        let o = server_kill_run(cfg, &wl, &base, &path, k);
        report.recovered_boundaries[o.boundary] += 1;
        report.in_flight_commits_landed += u64::from(o.in_flight_landed);
        report.wal_txns_replayed += o.txns_replayed;
        report.replays_skipped += o.replays;
        report.answers_checked += o.answers_checked;
        k = k.saturating_add(stride);
    }
    report.server_restarts = report.server_kills_tested;
    assert_eq!(
        report.recovered_boundaries.iter().sum::<u64>(),
        report.server_kills_tested,
        "every server kill must recover to exactly one committed state"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_exhaustive_chaos_sweep_is_exactly_once_and_bit_identical() {
        // The full-size sweep lives in the `chaos` bench binary; this
        // is the in-crate canary at smoke scale (still stride 1).
        let report = run(&ChaosConfig::smoke());
        assert_eq!(report.conn_kills_tested, report.conn_ops);
        assert_eq!(report.server_kills_tested, report.store_ops);
        assert!(report.conn_kills_fired > 0, "{report:?}");
        assert!(
            report.conn_reconnects > 0,
            "some connection kills must exercise the reconnect path: {report:?}"
        );
        assert!(
            report.recovered_boundaries[0] > 0,
            "some server kills must land before the first serving commit: {report:?}"
        );
        assert!(
            report.replays_skipped > 0,
            "retried writes must exercise the replay filter: {report:?}"
        );
        assert!(report.answers_checked > 0);
    }
}
