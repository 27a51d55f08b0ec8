//! Every-operation crash sweep over the WAL + superblock commit
//! protocol.
//!
//! Where [`faultsweep`](crate::faultsweep) asks "does every single I/O
//! failure surface as a typed error?", this sweep asks the durability
//! question: *is there any point in the I/O stream at which killing the
//! process loses or corrupts committed data?*
//!
//! The workload is two explicit transactions against a file-backed,
//! WAL-enabled store: txn 1 bulk-loads an index, publishes it in the
//! superblock catalog ([`persist_as`](boxagg_batree::BATree::persist_as))
//! and commits; a query pass records its answers; txn 2 adds dynamic
//! inserts, re-publishes and commits; a second query pass records the
//! grown answers. A clean run counts its pager operations `T` (WAL
//! traffic included) and the op index of each commit's return.
//!
//! Then, for every swept `k` in `1..=T`, the workload is re-run from
//! scratch on fresh files with a *sticky* fault armed at the `k`-th
//! pager operation — every operation from `k` on fails, which is what a
//! process death looks like from the pager's point of view. (The
//! torn-kill variant makes the first failing write a torn prefix, the
//! way a crash mid-sector-sequence tears a page or the log tail.) The
//! run dies on its first error; the store is dropped without a flush;
//! then the file set is reopened cold through the ordinary
//! [`SharedStore::open`] path, which runs WAL recovery. The recovered
//! store must:
//!
//! * open and [`validate`](SharedStore::validate) without error — a
//!   recovery that reports corruption for a clean kill is a bug,
//! * answer **bit-identically** to exactly one committed state — the
//!   empty store (no catalog entry yet), the txn-1 answers, or the
//!   txn-2 answers — and never an in-between hybrid,
//! * respect the commit boundaries: the txn-1 state can only vanish if
//!   the kill happened before txn 1's commit returned, and the txn-2
//!   state can only appear if the kill happened after txn 2 began.
//!
//! A faulted run that completes anyway means a layer swallowed the
//! injected failure — a hard panic, as in the fault sweep.
//!
//! ## Grouped commits
//!
//! With [`CrashConfig::concurrent_commit2`] set, transaction 2's
//! commit is issued from **two threads**: a leader that is parked
//! inside its WAL fsync (past capture and the log append, before the
//! atomicity point) and a second committer that starts while the
//! leader is parked. The group-commit protocol makes the second
//! committer a zero-I/O follower — the leader's WAL sync covers it —
//! so the swept op stream stays deterministic while every kill point
//! now lands inside a *grouped* commit. Recovery must still land on
//! exactly one committed state: a kill before the leader's sync loses
//! the whole group, a kill after it loses nothing.

use boxagg_batree::BATree;
use boxagg_common::error::Error;
use boxagg_common::geom::Point;
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir;
use boxagg_common::traits::DominanceSumIndex;
use boxagg_common::Result;
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use boxagg_pagestore::fault::{is_injected, FaultHandle};
use boxagg_pagestore::pager::wal_path;
use boxagg_pagestore::wal::WalFile;
use boxagg_pagestore::{
    Backing, FaultPager, FaultSpec, FilePager, OpFilter, PageId, Pager, SharedStore, StoreConfig,
};

use crate::faultsweep::SweepScheme;

/// Catalog name both transactions publish under.
const ROOT: &str = "primary";

/// Parameters of one crash sweep.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Index structure under test.
    pub scheme: SweepScheme,
    /// Points bulk-loaded and committed by transaction 1.
    pub bulk_points: usize,
    /// Points inserted and committed by transaction 2.
    pub insert_points: usize,
    /// Dominance-sum queries per query pass.
    pub queries: usize,
    /// Page size in bytes (small pages force deep trees).
    pub page_size: usize,
    /// Buffer pool capacity in pages.
    pub buffer_pages: usize,
    /// Seed for the dataset, the queries and torn-write prefixes.
    pub seed: u64,
    /// Test every `stride`-th op index; 1 is exhaustive.
    pub stride: u64,
    /// Kill with a torn write (a prefix of the page image or log record
    /// persists) instead of a clean error.
    pub torn_kills: bool,
    /// Issue transaction 2's commit from two threads, grouping the
    /// second committer behind a leader parked in its WAL fsync (see
    /// the module docs).
    pub concurrent_commit2: bool,
}

impl CrashConfig {
    /// A workload small enough for an exhaustive (`stride == 1`) sweep
    /// in a debug-build test, yet crossing bulk-load, commit, recovery
    /// replay and post-commit queries.
    pub fn small(scheme: SweepScheme) -> Self {
        Self {
            scheme,
            bulk_points: 48,
            insert_points: 12,
            queries: 8,
            page_size: 256,
            buffer_pages: 8,
            seed: 0xC_4A54,
            stride: 1,
            torn_kills: false,
            concurrent_commit2: false,
        }
    }

    /// The torn-kill variant of [`small`](Self::small).
    pub fn small_torn(scheme: SweepScheme) -> Self {
        Self {
            torn_kills: true,
            ..Self::small(scheme)
        }
    }

    /// The grouped-commit variant of [`small`](Self::small): every
    /// kill position is swept against a two-thread commit of txn 2.
    pub fn small_grouped(scheme: SweepScheme) -> Self {
        Self {
            concurrent_commit2: true,
            ..Self::small(scheme)
        }
    }
}

/// What an entire crash sweep observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashReport {
    /// Pager operations of the clean run — the sweep's domain.
    pub total_ops: u64,
    /// Op index at which transaction 1's commit returned.
    pub commit1_ops: u64,
    /// Op index at which transaction 2's commit returned.
    pub commit2_ops: u64,
    /// Kill positions actually tested.
    pub ks_tested: u64,
    /// Kills that recovered to the empty store (no catalog entry).
    pub recovered_initial: u64,
    /// Kills that recovered to the transaction-1 answers.
    pub recovered_txn1: u64,
    /// Kills that recovered to the transaction-2 answers.
    pub recovered_txn2: u64,
    /// Committed transactions replayed from the WAL across all reopens.
    pub txns_replayed: u64,
    /// Reopens that discarded a torn log tail or an uncommitted txn.
    pub tails_discarded: u64,
}

/// Weighted points of one workload phase.
type Weighted = Vec<(Point, f64)>;

/// Deterministic dataset + query points for `cfg`.
fn gen_data(cfg: &CrashConfig) -> (Weighted, Weighted, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut pts = |n: usize| -> Weighted {
        (0..n)
            .map(|_| {
                let p = Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()]);
                let v = (rng.gen_range(1..1000)) as f64;
                (p, v)
            })
            .collect()
    };
    let bulk = pts(cfg.bulk_points);
    let inserts = pts(cfg.insert_points);
    // The top corner dominates every point, so its answer is the total
    // weight — at least one query is guaranteed to tell the two
    // committed states apart.
    let queries = std::iter::once(Point::new(&[1.0, 1.0]))
        .chain((1..cfg.queries).map(|_| Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()])))
        .collect();
    (bulk, inserts, queries)
}

fn store_config(cfg: &CrashConfig, path: &std::path::Path) -> StoreConfig {
    StoreConfig {
        page_size: cfg.page_size,
        buffer_pages: cfg.buffer_pages,
        backing: Backing::File(path.to_path_buf()),
        parallelism: 1,
        node_cache_pages: cfg.buffer_pages,
        wal: true,
    }
}

/// Driver-side handle to the parking WAL: `armed` makes the next WAL
/// sync park (signalling `parked`) until `resume` fires. `signal` is a
/// clone of `parked`'s sender so a committer that dies *before*
/// reaching the sync can still unblock the driver.
struct ParkHandle {
    armed: Arc<AtomicBool>,
    parked: Receiver<()>,
    resume: Sender<()>,
    signal: Sender<()>,
}

/// A [`WalFile`] that, once armed, parks its first sync on the
/// [`ParkHandle`] channels — holding a commit leader still, mid-fsync,
/// while the sweep lines a second committer up behind it.
struct ParkWal {
    inner: Box<dyn WalFile>,
    armed: Arc<AtomicBool>,
    hook: Option<(Sender<()>, Receiver<()>)>,
}

impl WalFile for ParkWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&mut self) -> Result<()> {
        if self.armed.load(Ordering::SeqCst) {
            if let Some((signal, resume)) = self.hook.take() {
                // The driver holds both channel ends; a send/recv can
                // only fail if it panicked, which already fails the
                // sweep.
                // lint: allow(discarded-result) -- a dead driver already failed the sweep
                let _ = signal.send(());
                // lint: allow(discarded-result) -- same as the send above.
                let _ = resume.recv();
            }
        }
        self.inner.sync()
    }
    fn len(&mut self) -> Result<u64> {
        self.inner.len()
    }
    fn rollback(&mut self, len: u64) -> Result<()> {
        self.inner.rollback(len)
    }
    fn truncate(&mut self) -> Result<()> {
        self.inner.truncate()
    }
    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }
}

/// A pass-through pager whose log handle is a [`ParkWal`].
struct ParkPager {
    inner: FaultPager,
    armed: Arc<AtomicBool>,
    hook: Option<(Sender<()>, Receiver<()>)>,
}

impl Pager for ParkPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn allocate(&mut self) -> Result<PageId> {
        self.inner.allocate()
    }
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        self.inner.write_page(id, data)
    }
    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        Ok(Box::new(ParkWal {
            inner: self.inner.wal()?,
            armed: self.armed.clone(),
            hook: self.hook.take(),
        }))
    }
}

/// Indexes the sweep can persist by name and reopen by name.
trait CrashIndex: DominanceSumIndex<f64> {
    fn persist(&self, name: &str) -> Result<()>;
}

impl CrashIndex for BATree<f64> {
    fn persist(&self, name: &str) -> Result<()> {
        self.persist_as(name)
    }
}

impl CrashIndex for EcdfBTree<f64> {
    fn persist(&self, name: &str) -> Result<()> {
        self.persist_as(name)
    }
}

fn bulk_build(
    cfg: &CrashConfig,
    store: &SharedStore,
    bulk: &[(Point, f64)],
) -> Result<Box<dyn CrashIndex>> {
    Ok(match cfg.scheme {
        SweepScheme::BaTree => Box::new(BATree::<f64>::bulk_load(
            store.clone(),
            crate::faultsweep::unit_square(),
            8,
            bulk.to_vec(),
        )?),
        SweepScheme::EcdfB => Box::new(EcdfBTree::<f64>::bulk_load(
            store.clone(),
            2,
            BorderPolicy::UpdateOptimized,
            8,
            bulk.to_vec(),
        )?),
    })
}

fn reopen_named(cfg: &CrashConfig, store: &SharedStore) -> Result<Box<dyn CrashIndex>> {
    Ok(match cfg.scheme {
        SweepScheme::BaTree => Box::new(BATree::<f64>::open_named(store.clone(), ROOT)?),
        SweepScheme::EcdfB => Box::new(EcdfBTree::<f64>::open_named(store.clone(), ROOT)?),
    })
}

/// Every dominance sum as raw `f64` bit patterns, so "bit-identical
/// committed state" is literal.
fn query_all(index: &mut dyn CrashIndex, queries: &[Point]) -> Result<Vec<u64>> {
    queries
        .iter()
        .map(|q| index.dominance_sum(q).map(f64::to_bits))
        .collect()
}

/// The two-transaction workload. `boundaries` receives the cumulative
/// pager-op count right after each commit returns; the answers of the
/// two query passes come back on success. Any injected failure
/// propagates out of here at the point it fired.
#[allow(clippy::too_many_arguments)] // internal driver: the sweep threads one context through, not an API
fn drive(
    cfg: &CrashConfig,
    store: &SharedStore,
    faults: &FaultHandle,
    park: &ParkHandle,
    bulk: &[(Point, f64)],
    inserts: &[(Point, f64)],
    queries: &[Point],
    boundaries: &mut Vec<u64>,
) -> Result<(Vec<u64>, Vec<u64>)> {
    let mut index = bulk_build(cfg, store, bulk)?;
    index.persist(ROOT)?;
    store.commit()?;
    boundaries.push(faults.counts().total());
    let a1 = query_all(&mut *index, queries)?;
    for (p, v) in inserts {
        index.insert(*p, *v)?;
    }
    index.persist(ROOT)?;
    if cfg.concurrent_commit2 {
        commit_grouped(store, park)?;
    } else {
        store.commit()?;
    }
    boundaries.push(faults.counts().total());
    let a2 = query_all(&mut *index, queries)?;
    Ok((a1, a2))
}

/// Commits from two threads, grouped: the leader parks inside its WAL
/// fsync; the follower enters `commit()` while the leader is parked,
/// so the group-commit protocol must absorb it with zero I/O of its
/// own (keeping the swept op stream deterministic).
///
/// If a kill fells the leader, the follower retries as leader and dies
/// on the same sticky fault; the first error is returned either way.
fn commit_grouped(store: &SharedStore, park: &ParkHandle) -> Result<()> {
    park.armed.store(true, Ordering::SeqCst);
    let leader = {
        let s = store.clone();
        let death = park.signal.clone();
        std::thread::spawn(move || {
            let r = s.commit();
            // Unblocks the driver when a kill fired before the park.
            // lint: allow(discarded-result) -- the driver may have moved on.
            let _ = death.send(());
            r
        })
    };
    // Either the leader is now parked mid-fsync, or it died first.
    // lint: allow(discarded-result) -- a disconnect means the leader died; the join below reports it
    let _ = park.parked.recv();
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let follower = {
        let s = store.clone();
        std::thread::spawn(move || {
            // lint: allow(discarded-result) -- the driver outlives this send.
            let _ = started_tx.send(());
            s.commit()
        })
    };
    // Resume the leader only once the follower is queued behind it (it
    // samples the group-commit state on entry, then blocks on the
    // commit lock the parked leader holds). The sleep is margin for a
    // preemption between the follower's signal and that sample.
    // lint: allow(discarded-result) -- a disconnect means the follower died; the join below reports it
    let _ = started_rx.recv();
    std::thread::sleep(std::time::Duration::from_micros(200));
    // lint: allow(discarded-result) -- the leader may have died unparked.
    let _ = park.resume.send(());
    let lr = leader.join().expect("leader thread");
    let fr = follower.join().expect("follower thread");
    lr.and(fr)
}

/// Removes any previous generation of the file set, then opens a fresh
/// fault-instrumented store over it. The fault `spec`, if any, is armed
/// *before* the store opens so the sweep also covers the superblock
/// formatting ops.
fn fresh_faulted_store(
    cfg: &CrashConfig,
    path: &std::path::Path,
    spec: Option<FaultSpec>,
) -> (Result<SharedStore>, FaultHandle, ParkHandle) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(wal_path(path)).ok();
    let file = match FilePager::create(path, cfg.page_size) {
        Ok(f) => f,
        // lint: allow(panic) -- tempdir file creation is sweep scaffolding, not the system under test
        Err(e) => panic!("create {}: {e}", path.display()),
    };
    let (pager, faults) = FaultPager::new(Box::new(file));
    if let Some(spec) = spec {
        faults.arm(spec);
    }
    let (park_tx, park_rx) = std::sync::mpsc::channel();
    let (resume_tx, resume_rx) = std::sync::mpsc::channel();
    let armed = Arc::new(AtomicBool::new(false));
    let park = ParkHandle {
        armed: armed.clone(),
        parked: park_rx,
        resume: resume_tx,
        signal: park_tx.clone(),
    };
    let pager = ParkPager {
        inner: pager,
        armed,
        hook: Some((park_tx, resume_rx)),
    };
    let store = SharedStore::open_with_pager(Box::new(pager), &store_config(cfg, path));
    (store, faults, park)
}

/// The clean run's committed states and op-index geometry.
struct Baseline {
    total_ops: u64,
    commit1_ops: u64,
    commit2_ops: u64,
    a1: Vec<u64>,
    a2: Vec<u64>,
}

fn baseline(
    cfg: &CrashConfig,
    path: &std::path::Path,
    bulk: &[(Point, f64)],
    inserts: &[(Point, f64)],
    queries: &[Point],
) -> Baseline {
    let (store, counter, park) = fresh_faulted_store(cfg, path, None);
    let store = store.expect("clean open must succeed");
    let mut boundaries = Vec::new();
    let (a1, a2) = drive(
        cfg,
        &store,
        &counter,
        &park,
        bulk,
        inserts,
        queries,
        &mut boundaries,
    )
    .expect("clean workload must succeed");
    store.validate().expect("clean run leaves a valid store");
    let total_ops = counter.counts().total();
    // The query passes may be fully absorbed by the decoded-node cache
    // (zero pager ops), so the sweep's last window can be empty — the
    // commit boundaries are the only guaranteed structure.
    assert!(total_ops >= boundaries[1]);
    assert_ne!(a1, a2, "txn 2 must change at least one answer bit");
    Baseline {
        total_ops,
        commit1_ops: boundaries[0],
        commit2_ops: boundaries[1],
        a1,
        a2,
    }
}

/// Asserts `err` is an acceptable dying-run error: the injection itself
/// or a checksum `Corruption` caused by a torn image the kill left
/// behind and the run then re-read.
fn assert_typed(cfg: &CrashConfig, k: u64, err: &Error) {
    let ok = is_injected(err) || (cfg.torn_kills && matches!(err, Error::Corruption { .. }));
    assert!(
        ok,
        "{} crash sweep, kill at op {k}: expected the injected error (or a \
         torn-page Corruption), got: {err}",
        cfg.scheme.name()
    );
}

/// Runs the full crash sweep for `cfg`, panicking on any lost or
/// corrupted committed state. See the module docs for the properties
/// checked per kill position.
pub fn run(cfg: &CrashConfig) -> CrashReport {
    let (bulk, inserts, queries) = gen_data(cfg);
    let dir = tempdir::tempdir().expect("tempdir");
    let path = dir.path().join("crash.pages");

    let base = baseline(cfg, &path, &bulk, &inserts, &queries);
    let mut report = CrashReport {
        total_ops: base.total_ops,
        commit1_ops: base.commit1_ops,
        commit2_ops: base.commit2_ops,
        ..CrashReport::default()
    };

    let stride = cfg.stride.max(1);
    let mut k = 1;
    while k <= base.total_ops {
        report.ks_tested += 1;

        // Kill: every pager op from the k-th on fails (sticky), which is
        // what process death looks like from below the buffer pool. The
        // torn variant lets the first failing write persist a prefix.
        let spec = if cfg.torn_kills {
            let mut spec = FaultSpec::random_torn_write(k, cfg.page_size, cfg.seed ^ k);
            spec.ops = OpFilter::Any;
            spec.sticky = true;
            spec
        } else {
            FaultSpec::sticky_from(OpFilter::Any, k)
        };
        let (store, faults, park) = fresh_faulted_store(cfg, &path, Some(spec));
        let died = match store {
            Err(e) => Err(e),
            Ok(store) => drive(
                cfg,
                &store,
                &faults,
                &park,
                &bulk,
                &inserts,
                &queries,
                &mut Vec::new(),
            )
            .map(|_| ()),
        };
        match died {
            Err(e) => assert_typed(cfg, k, &e),
            Ok(()) => {
                // k ≤ total_ops and the op stream is deterministic, so
                // the kill fired; completing anyway means some layer
                // swallowed the error.
                // lint: allow(panic) -- a swallowed kill is exactly the bug the sweep exists to catch
                panic!(
                    "{} crash sweep: kill at op {k} fired ({} injections) but the \
                     workload completed — an error was swallowed",
                    cfg.scheme.name(),
                    faults.injected()
                );
            }
        }
        assert!(
            faults.injected() >= 1,
            "kill at op {k} never fired (clean run had {} ops)",
            base.total_ops
        );
        // Process death: drop without flushing. (Nothing in the store
        // flushes on drop, and the sticky fault would fail it anyway.)

        // Rebirth: a cold open over the same files runs WAL recovery.
        let store = match SharedStore::open(&store_config(cfg, &path)) {
            Ok(s) => s,
            // lint: allow(panic) -- recovery refusing to open after a kill is a durability bug
            Err(e) => panic!(
                "{} crash sweep: reopen after kill at op {k} failed: {e}",
                cfg.scheme.name()
            ),
        };
        store
            .validate()
            // lint: allow(panic) -- an invalid recovered store is the durability failure under test
            .unwrap_or_else(|e| panic!("invalid store after kill at op {k}: {e}"));
        let rec = store.recovery_report();
        report.txns_replayed += rec.txns_replayed;
        if rec.torn_tail_discarded || rec.incomplete_txn_discarded {
            report.tails_discarded += 1;
        }

        // The recovered store must be bit-identical to exactly one
        // committed state, and that state must be consistent with where
        // in the op stream the kill landed.
        match store
            .root(ROOT)
            .expect("superblock catalog must be readable")
        {
            None => {
                assert!(
                    k <= base.commit1_ops,
                    "{}: kill at op {k} lost txn 1, whose commit returned at op {}",
                    cfg.scheme.name(),
                    base.commit1_ops
                );
                report.recovered_initial += 1;
            }
            Some(_) => {
                let mut index =
                    reopen_named(cfg, &store).expect("catalog entry must reopen by name");
                let answers =
                    query_all(&mut *index, &queries).expect("queries on the recovered store");
                if answers == base.a1 {
                    assert!(
                        k <= base.commit2_ops,
                        "{}: kill at op {k} lost txn 2, whose commit returned at op {}",
                        cfg.scheme.name(),
                        base.commit2_ops
                    );
                    report.recovered_txn1 += 1;
                } else if answers == base.a2 {
                    assert!(
                        k > base.commit1_ops,
                        "{}: kill at op {k} recovered txn 2's state before txn 2 began \
                         (txn 1 committed at op {})",
                        cfg.scheme.name(),
                        base.commit1_ops
                    );
                    report.recovered_txn2 += 1;
                } else {
                    // lint: allow(panic) -- an in-between state is the crash-consistency failure itself
                    panic!(
                        "{} crash sweep: kill at op {k} recovered an intermediate state — \
                         neither the txn-1 nor the txn-2 answers",
                        cfg.scheme.name()
                    );
                }
            }
        }
        k = k.saturating_add(stride);
    }
    assert_eq!(
        report.recovered_initial + report.recovered_txn1 + report.recovered_txn2,
        report.ks_tested,
        "every kill must land in exactly one committed state"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scheme: SweepScheme) -> CrashConfig {
        CrashConfig {
            bulk_points: 16,
            insert_points: 4,
            queries: 4,
            ..CrashConfig::small(scheme)
        }
    }

    #[test]
    fn tiny_exhaustive_crash_sweep_recovers_every_committed_state() {
        // The full-size exhaustive sweeps live in tests/crash_sweep.rs
        // and the `crashes` bench binary; this is the in-crate canary.
        let report = run(&tiny(SweepScheme::BaTree));
        assert_eq!(report.ks_tested, report.total_ops);
        assert!(report.recovered_initial > 0, "{report:?}");
        assert!(report.recovered_txn1 > 0, "{report:?}");
        assert!(report.recovered_txn2 > 0, "{report:?}");
        assert!(
            report.txns_replayed > 0,
            "some kills must replay from the WAL"
        );
    }

    #[test]
    fn tiny_grouped_commit_sweep_recovers_every_committed_state() {
        // Transaction 2 commits from two threads (follower grouped
        // behind a parked leader); the op stream must stay identical to
        // the serial schedule and every kill must still land on exactly
        // one committed state.
        let report = run(&CrashConfig {
            concurrent_commit2: true,
            ..tiny(SweepScheme::BaTree)
        });
        assert_eq!(report.ks_tested, report.total_ops);
        assert!(report.recovered_initial > 0, "{report:?}");
        assert!(report.recovered_txn1 > 0, "{report:?}");
        assert!(report.recovered_txn2 > 0, "{report:?}");
        assert!(
            report.txns_replayed > 0,
            "some kills must replay from the WAL"
        );
    }

    #[test]
    fn tiny_torn_kill_sweep_discards_torn_tails() {
        let report = run(&CrashConfig {
            torn_kills: true,
            ..tiny(SweepScheme::BaTree)
        });
        assert_eq!(report.ks_tested, report.total_ops);
        assert!(
            report.tails_discarded > 0,
            "torn kills must exercise tail discard: {report:?}"
        );
    }
}
