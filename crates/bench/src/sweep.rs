//! One fault kernel for every correctness sweep.
//!
//! A sweep asks whether one failing operation, anywhere in a workload,
//! can break the system, and answers by brute force. [`run`] makes a
//! clean run of a [`Scenario`] to learn its domain `T` — the operations
//! in the stream its faults count — and to record what faulted runs are
//! checked against. Then, for every swept `k` in `1..=T`, a fresh run
//! has one fault armed at op `k`, asserts the scenario's properties and
//! says where it *landed*; the kernel tallies the landings.
//!
//! Four scenarios run on it:
//!
//! * [`Retry`] — a one-shot pager error, or torn write, during a
//!   bulk-load, dynamic inserts and dominance-sum queries over a memory
//!   store. The failure must surface as a typed error, the store must
//!   stay valid, and a retry must converge to bit-identical answers: a
//!   failed build is rebuilt on a fresh store, failed queries re-run in
//!   place. Lands on `build` or `query`, the phase that failed.
//! * [`Crash`] — process death as the pager sees it (every op from `k`
//!   on fails) during two committed transactions over a WAL file store.
//!   [`Kill`] can also tear the first failing write, or commit
//!   transaction 2 from two threads, the second queued on the writer
//!   lock while the first is parked in its log sync. A cold
//!   reopen runs WAL recovery, and must land bit-identically on exactly
//!   one committed state, never losing one whose commit had returned.
//!   Lands on `empty`, `txn1` or `txn2`.
//! * [`ConnKill`] — the writer's socket dies at its `k`-th operation of
//!   a served conversation while the server stays up. The writer
//!   reconnects and replays under its idempotency token; every op must
//!   apply exactly once and every answer stay bit-identical. Lands on
//!   `reconnect` (the script reconnected), `commit` (`commit_durable`
//!   rode the kill) or `unfired` (TCP merged two reads, so op `k` never
//!   came).
//! * [`ServerKill`] — process death under a serving store. The server
//!   is torn down without a flush, the file set recovered cold, a new
//!   server bound, and the writer follows it and finishes the script.
//!   Recovery must land on one commit boundary: every batch whose commit
//!   was acknowledged, and at most the one in flight. Lands on
//!   `boundary m`, the seed state plus `m` batches.

use std::path::PathBuf;

use boxagg_batree::BATree;
use boxagg_common::error::{Error, Result};
use boxagg_common::fault::is_injected;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir::{self, TempDir};
use boxagg_common::traits::DominanceSumIndex;
use boxagg_core::catalog::persist_corner_engine;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::pager::wal_path;
use boxagg_pagestore::{
    Backing, FaultHandle, FaultPager, FaultSpec, FilePager, MemPager, OpFilter, SharedStore,
    StoreConfig,
};
use boxagg_serve::client::is_connection_error;
use boxagg_serve::{
    Client, ServeConfig, ServerHandle, StreamFaultHandle, StreamFaultSpec, StreamOpFilter,
};

// ---------------------------------------------------------------------
// The kernel

/// A workload the kernel can sweep.
pub trait Scenario {
    /// Runs the workload fault-free, records what faulted runs are
    /// checked against, and returns the domain: the operations in the
    /// stream the faults count.
    fn clean(&mut self) -> u64;

    /// Runs the workload afresh with one fault armed at op `k`, asserts
    /// the scenario's properties, adds any further counts to `tally`,
    /// and returns where the run landed.
    fn faulted(&mut self, k: u64, tally: &mut Tally) -> String;
}

/// The `runs` that sweeps every op.
pub const EXHAUSTIVE: u64 = u64::MAX;

/// What a sweep observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations of the clean run: the sweep's domain.
    pub domain: u64,
    /// Fault positions run.
    pub swept: u64,
    /// Landings and the scenario's other counts, by label, in the order
    /// first seen.
    counts: Vec<(String, u64)>,
}

impl Tally {
    /// Adds `n` to the count labelled `label`.
    pub fn add(&mut self, label: &str, n: u64) {
        match self.counts.iter_mut().find(|(l, _)| l == label) {
            Some((_, count)) => *count += n,
            None => self.counts.push((label.to_string(), n)),
        }
    }

    /// The count labelled `label`; 0 if none was ever added.
    pub fn get(&self, label: &str) -> u64 {
        self.counts
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, count)| *count)
    }
}

/// Sweeps `scenario`: a clean run learns the domain `T`, then one
/// faulted run per swept op. About `runs` ops are swept, evenly strided
/// — every op when `T ≤ runs` (see [`EXHAUSTIVE`]).
pub fn run(scenario: &mut impl Scenario, runs: u64) -> Tally {
    let domain = scenario.clean();
    assert!(domain > 0, "the workload never reached the faulted stream");
    let stride = (domain / runs).max(1);
    let mut tally = Tally {
        domain,
        ..Tally::default()
    };
    let mut k = 1;
    while k <= domain {
        tally.swept += 1;
        let landing = scenario.faulted(k, &mut tally);
        tally.add(&landing, 1);
        k += stride;
    }
    tally
}

// ---------------------------------------------------------------------
// What the scenarios share

/// Weighted items of one workload phase.
type Weighted<T> = Vec<(T, f64)>;

/// `n` items from `draw`, each with an integer weight in `1..1000`:
/// every sweep workload is drawn by this.
fn weighted<T>(rng: &mut StdRng, n: usize, mut draw: impl FnMut(&mut StdRng) -> T) -> Weighted<T> {
    (0..n)
        .map(|_| {
            let item = draw(rng);
            (item, rng.gen_range(1..1000) as f64)
        })
        .collect()
}

fn point(rng: &mut StdRng) -> Point {
    Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()])
}

fn rect(rng: &mut StdRng, side: f64) -> Rect {
    let bounds: Vec<(f64, f64)> = (0..2)
        .map(|_| {
            let l = rng.gen::<f64>() * (1.0 - side);
            (l, l + rng.gen::<f64>() * side)
        })
        .collect();
    Rect::from_bounds(&bounds)
}

fn unit_square() -> Rect {
    Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
}

/// Every answer as its `f64` bit pattern, so "bit-identical" is literal.
fn bits<Q>(queries: &[Q], mut answer: impl FnMut(&Q) -> Result<f64>) -> Result<Vec<u64>> {
    queries
        .iter()
        .map(|q| answer(q).map(f64::to_bits))
        .collect()
}

/// Asserts that a faulted run died of an error `typed` accepts. A run
/// that completes although its fault fired swallowed an error somewhere.
fn died_of<T>(what: &str, run: Result<T>, typed: impl Fn(&Error) -> bool) {
    let Err(e) = run else {
        // lint: allow(panic) -- a swallowed fault is exactly the bug a sweep exists to catch
        panic!("{what}: the fault fired but the workload completed — an error was swallowed");
    };
    assert!(typed(&e), "{what}: expected the injected fault, got: {e}");
}

/// What a pager fault may surface as: the injected error or, when the
/// fault tore a write, the checksum failure of reading the torn page.
fn pager_fault(torn: bool) -> impl Fn(&Error) -> bool {
    move |e| is_injected(e) || (torn && matches!(e, Error::Corruption { .. }))
}

/// The pager fault armed at op `k`. `sticky` fails every op from `k`
/// on, which is process death seen from below the buffer pool; `torn`
/// makes the first failing write persist a prefix drawn from `cfg`'s
/// seed.
fn fault_at(k: u64, sticky: bool, torn: bool, cfg: &Points) -> FaultSpec {
    let spec = if torn {
        FaultSpec {
            ops: OpFilter::Any,
            ..FaultSpec::random_torn_write(k, POINT_PAGE, cfg.seed ^ k)
        }
    } else {
        FaultSpec::error_at(OpFilter::Any, k)
    };
    FaultSpec { sticky, ..spec }
}

/// A temp directory holding one WAL store's file set, which every run
/// recreates.
struct Files {
    _dir: TempDir,
    path: PathBuf,
    config: StoreConfig,
}

impl Files {
    fn new(name: &str, page_size: usize, buffer_pages: usize) -> Self {
        let dir = tempdir::tempdir().expect("tempdir");
        let path = dir.path().join(name);
        let config = StoreConfig {
            page_size,
            buffer_pages,
            backing: Backing::File(path.clone()),
            node_cache_pages: buffer_pages,
            wal: true,
        };
        Self {
            _dir: dir,
            path,
            config,
        }
    }

    /// A fresh file set, any previous one removed, opened behind a
    /// [`FaultPager`]. `spec` is armed before the store opens, so a
    /// sweep also covers formatting the superblock.
    fn fresh(&self, spec: Option<FaultSpec>) -> (Result<SharedStore>, FaultHandle) {
        std::fs::remove_file(&self.path).ok();
        std::fs::remove_file(wal_path(&self.path)).ok();
        let file = FilePager::create(&self.path, self.config.page_size).expect("create store file");
        let (pager, faults) = FaultPager::new(Box::new(file));
        if let Some(spec) = spec {
            faults.arm(spec);
        }
        let store = SharedStore::open_with_pager(Box::new(pager), &self.config);
        (store, faults)
    }

    /// After a process death: a cold open of the file set, which runs
    /// WAL recovery. The recovered store must open and validate.
    fn recover(&self, what: &str) -> SharedStore {
        let store = SharedStore::open(&self.config).unwrap_or_else(|e| {
            // lint: allow(panic) -- recovery refusing to open after a kill is the durability bug under test
            panic!("{what}: the cold reopen failed: {e}")
        });
        let valid = store.validate();
        assert!(
            valid.is_ok(),
            "{what}: the recovered store is invalid: {valid:?}"
        );
        store
    }
}

// ---------------------------------------------------------------------
// The point workload: retry and crash

/// Which index the retry and crash sweeps drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The dynamic BA-tree.
    BaTree,
    /// The update-optimized ECDF-B-tree.
    EcdfB,
}

impl Scheme {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::BaTree => "BAT",
            Scheme::EcdfB => "ECDFu",
        }
    }

    fn bulk(self, store: &SharedStore, points: &[(Point, f64)]) -> Result<Box<dyn SweepIndex>> {
        let points = points.to_vec();
        Ok(match self {
            Scheme::BaTree => Box::new(BATree::bulk_load(store.clone(), unit_square(), 8, points)?),
            Scheme::EcdfB => Box::new(EcdfBTree::bulk_load(
                store.clone(),
                2,
                BorderPolicy::UpdateOptimized,
                8,
                points,
            )?),
        })
    }

    fn open(self, store: &SharedStore, name: &str) -> Result<Box<dyn SweepIndex>> {
        Ok(match self {
            Scheme::BaTree => Box::new(BATree::<f64>::open_named(store.clone(), name)?),
            Scheme::EcdfB => Box::new(EcdfBTree::<f64>::open_named(store.clone(), name)?),
        })
    }
}

/// An index the point sweeps can publish by name and reopen by name.
trait SweepIndex: DominanceSumIndex<f64> {
    fn persist(&self, name: &str) -> Result<()>;
}

impl SweepIndex for BATree<f64> {
    fn persist(&self, name: &str) -> Result<()> {
        self.persist_as(name)
    }
}

impl SweepIndex for EcdfBTree<f64> {
    fn persist(&self, name: &str) -> Result<()> {
        self.persist_as(name)
    }
}

/// The workload of the retry and crash sweeps: points bulk-loaded,
/// points inserted afterwards, and dominance-sum queries.
#[derive(Debug, Clone)]
pub struct Points {
    /// Index under test.
    pub scheme: Scheme,
    /// Points bulk-loaded up front.
    pub bulk: usize,
    /// Points inserted after the bulk-load.
    pub inserts: usize,
    /// Dominance-sum queries per query pass.
    pub queries: usize,
    /// Buffer capacity in pages (small buffers force evictions).
    pub buffer_pages: usize,
    /// Seed of the data, the queries and the torn-write prefixes.
    pub seed: u64,
}

/// Page size of the point sweeps: small pages force deep trees.
const POINT_PAGE: usize = 256;

impl Points {
    /// The retry sweep at smoke size: exhaustive in a debug build, yet
    /// deep enough for bulk-load, splits, evictions and flushes.
    pub fn retry_smoke(scheme: Scheme) -> Self {
        Self {
            scheme,
            bulk: 80,
            inserts: 20,
            queries: 16,
            buffer_pages: 8,
            seed: 0xFA_017,
        }
    }

    /// The crash sweep at smoke size: crosses bulk-load, both commits,
    /// recovery replay and post-commit queries. With 64 bulk points
    /// both trees' last query pass still reads pages after the second
    /// commit; at 48 the BA-tree's read none (and at 56 the ECDF-B's),
    /// so no kill landed in it.
    pub fn crash_smoke(scheme: Scheme) -> Self {
        Self {
            bulk: 64,
            inserts: 12,
            queries: 8,
            seed: 0xC_4A54,
            ..Self::retry_smoke(scheme)
        }
    }

    /// The recorded full size of both sweeps.
    pub fn full(scheme: Scheme, seed: u64) -> Self {
        Self {
            scheme,
            bulk: 600,
            inserts: 150,
            queries: 64,
            buffer_pages: 16,
            seed,
        }
    }
}

struct PointData {
    bulk: Weighted<Point>,
    inserts: Weighted<Point>,
    queries: Vec<Point>,
}

impl PointData {
    /// `cfg`'s data; `first`, if given, leads the queries.
    fn draw(cfg: &Points, first: Option<Point>) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let bulk = weighted(&mut rng, cfg.bulk, point);
        let inserts = weighted(&mut rng, cfg.inserts, point);
        let queries = first
            .into_iter()
            .chain(std::iter::repeat_with(|| point(&mut rng)))
            .take(cfg.queries)
            .collect();
        Self {
            bulk,
            inserts,
            queries,
        }
    }

    fn insert_all(&self, index: &mut dyn SweepIndex) -> Result<()> {
        self.inserts
            .iter()
            .try_for_each(|(p, v)| index.insert(*p, *v))
    }

    fn answers(&self, index: &dyn SweepIndex) -> Result<Vec<u64>> {
        bits(&self.queries, |q| index.dominance_sum(q))
    }
}

/// The retry sweep (see the module docs).
pub struct Retry {
    cfg: Points,
    torn: bool,
    data: PointData,
    answers: Vec<u64>,
}

impl Retry {
    /// The retry sweep of `cfg`; `torn` tears the failing write (a
    /// seeded prefix of the new image persists) instead of failing it
    /// cleanly.
    pub fn new(cfg: Points, torn: bool) -> Self {
        let data = PointData::draw(&cfg, None);
        Self {
            cfg,
            torn,
            data,
            answers: Vec::new(),
        }
    }

    /// The paper's raw memory store behind a [`FaultPager`]; the handle
    /// counts ops exactly even with nothing armed.
    fn store(&self) -> (SharedStore, FaultHandle) {
        let (pager, faults) = FaultPager::new(Box::new(MemPager::new(POINT_PAGE)));
        let config = StoreConfig::small(POINT_PAGE, self.cfg.buffer_pages);
        let store = SharedStore::open_with_pager(Box::new(pager), &config)
            .expect("a raw memory store opens without I/O");
        (store, faults)
    }

    /// The build phase: bulk-load, inserts, flush.
    fn build(&self, store: &SharedStore) -> Result<Box<dyn SweepIndex>> {
        let mut index = self.cfg.scheme.bulk(store, &self.data.bulk)?;
        self.data.insert_all(&mut *index)?;
        store.flush()?;
        Ok(index)
    }
}

impl Scenario for Retry {
    fn clean(&mut self) -> u64 {
        let (store, faults) = self.store();
        let index = self.build(&store).expect("a clean build succeeds");
        self.answers = self.data.answers(&*index).expect("clean queries succeed");
        store.validate().expect("a clean run leaves a valid store");
        faults.counts().total()
    }

    fn faulted(&mut self, k: u64, _: &mut Tally) -> String {
        let what = format!("{} retry sweep, fault at op {k}", self.cfg.scheme.name());
        let (store, faults) = self.store();
        faults.arm(fault_at(k, false, self.torn, &self.cfg));
        let mut built = None;
        let run = self
            .build(&store)
            .and_then(|index| self.data.answers(&**built.insert(index)));
        died_of(&what, run, pager_fault(self.torn));
        let valid = store.validate();
        assert!(valid.is_ok(), "{what}: the store is invalid: {valid:?}");
        assert_eq!(faults.injected(), 1, "{what}: exactly one injection");
        faults.disarm();
        // A failed build is rebuilt on a fresh store; failed queries,
        // being read-only, re-run in place.
        let (phase, retried) = match built {
            None => {
                let (store, _) = self.store();
                let rebuilt = self.build(&store);
                (
                    "build",
                    rebuilt.and_then(|index| self.data.answers(&*index)),
                )
            }
            Some(index) => ("query", self.data.answers(&*index)),
        };
        let retried = retried.expect("the retry succeeds");
        assert_eq!(retried, self.answers, "{what}: the retry diverged");
        phase.to_string()
    }
}

/// How the crash sweep kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// Every pager op from `k` on fails.
    Clean,
    /// As `Clean`, and the first failing write persists a seeded prefix
    /// — a page or log tail torn by a crash mid-sector-sequence.
    Torn,
    /// As `Clean`, with transaction 2 committed from two threads: the
    /// first parked inside its log fsync, the second waiting on the
    /// writer lock behind it. The second runs its own commit after the
    /// first, an empty one (one data sync) when the first succeeded, so
    /// the op stream is the serial one plus that sync.
    Queued,
}

impl Kill {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Kill::Clean => "kill",
            Kill::Torn => "torn-kill",
            Kill::Queued => "queued-kill",
        }
    }
}

/// Catalog name both transactions publish under.
const ROOT: &str = "primary";

/// The crash sweep (see the module docs).
pub struct Crash {
    cfg: Points,
    kill: Kill,
    data: PointData,
    files: Files,
    /// The op index at which each of the clean run's commits returned.
    commits: [u64; 2],
    /// The answers after each commit.
    answers: [Vec<u64>; 2],
}

impl Crash {
    /// The crash sweep of `cfg`, killing by `kill`.
    pub fn new(cfg: Points, kill: Kill) -> Self {
        // The top corner dominates every point, so its answer is the
        // total weight: one query always tells the two states apart.
        let data = PointData::draw(&cfg, Some(Point::new(&[1.0, 1.0])));
        let files = Files::new("crash.pages", POINT_PAGE, cfg.buffer_pages);
        Self {
            cfg,
            kill,
            data,
            files,
            commits: [0; 2],
            answers: Default::default(),
        }
    }

    /// The op indices at which the clean run's two commits returned.
    pub fn commits(&self) -> [u64; 2] {
        self.commits
    }

    /// Transaction 1 bulk-loads, publishes and commits; a query pass;
    /// transaction 2 inserts, republishes and commits; a query pass.
    /// `commits` receives the op count as each commit returns.
    fn drive(
        &self,
        store: &SharedStore,
        faults: &FaultHandle,
        commits: &mut Vec<u64>,
    ) -> Result<[Vec<u64>; 2]> {
        let mut index = self.cfg.scheme.bulk(store, &self.data.bulk)?;
        index.persist(ROOT)?;
        store.commit()?;
        commits.push(faults.counts().total());
        let first = self.data.answers(&*index)?;
        self.data.insert_all(&mut *index)?;
        index.persist(ROOT)?;
        if self.kill == Kill::Queued {
            commit_queued(store, faults)?;
        } else {
            store.commit()?;
        }
        commits.push(faults.counts().total());
        Ok([first, self.data.answers(&*index)?])
    }
}

/// Commits from two threads: the first parks inside its log fsync,
/// and the second calls `commit()` while it is parked, so it queues on
/// the writer lock. If a kill fells the first, the second retries the
/// transaction and dies of the same sticky fault; the first error is
/// returned either way.
fn commit_queued(store: &SharedStore, faults: &FaultHandle) -> Result<()> {
    faults.close_gate();
    faults.arm(FaultSpec::park_at(OpFilter::WalSyncs, 1));
    let first = {
        let (store, faults) = (store.clone(), faults.clone());
        std::thread::spawn(move || {
            let r = store.commit();
            // Frees the driver if the kill fired before the park.
            faults.open_gate();
            r
        })
    };
    // The first is parked mid-fsync, or it died first and opened the
    // gate.
    faults.wait_parked();
    let queued = {
        let store = store.clone();
        std::thread::spawn(move || store.commit())
    };
    faults.open_gate();
    let first = first.join().expect("first committer thread");
    let queued = queued.join().expect("queued committer thread");
    first.and(queued)
}

impl Scenario for Crash {
    fn clean(&mut self) -> u64 {
        let (store, faults) = self.files.fresh(None);
        let store = store.expect("a clean open succeeds");
        let mut commits = Vec::new();
        self.answers = self
            .drive(&store, &faults, &mut commits)
            .expect("a clean run succeeds");
        store.validate().expect("a clean run leaves a valid store");
        assert_ne!(self.answers[0], self.answers[1], "txn 2 changes no answer");
        self.commits = [commits[0], commits[1]];
        faults.counts().total()
    }

    fn faulted(&mut self, k: u64, tally: &mut Tally) -> String {
        let scheme = self.cfg.scheme.name();
        let what = format!("{scheme} {} sweep, kill at op {k}", self.kill.name());
        let torn = self.kill == Kill::Torn;
        let (store, faults) = self.files.fresh(Some(fault_at(k, true, torn, &self.cfg)));
        // The run dies on its first error and the store is dropped
        // without a flush: process death.
        let run = store.and_then(|store| self.drive(&store, &faults, &mut Vec::new()));
        died_of(&what, run, pager_fault(torn));
        assert!(faults.injected() >= 1, "{what}: the kill never fired");
        let store = self.files.recover(&what);
        let rec = store.recovery_report();
        tally.add("replays", rec.txns_replayed);
        let discarded = rec.torn_tail_discarded || rec.incomplete_txn_discarded;
        tally.add("tails", u64::from(discarded));
        // The recovered store must be bit-identical to exactly one
        // committed state, and that state must fit where the kill landed.
        let [c1, c2] = self.commits;
        if store.root(ROOT).expect("the catalog is readable").is_none() {
            assert!(
                k <= c1,
                "{what}: lost txn 1, whose commit returned at op {c1}"
            );
            return "empty".into();
        }
        let index = self
            .cfg
            .scheme
            .open(&store, ROOT)
            .expect("the root reopens");
        let answers = self
            .data
            .answers(&*index)
            .expect("the recovered store answers");
        if answers == self.answers[0] {
            assert!(
                k <= c2,
                "{what}: lost txn 2, whose commit returned at op {c2}"
            );
            return "txn1".into();
        }
        assert_eq!(
            answers, self.answers[1],
            "{what}: recovered an in-between state"
        );
        assert!(
            k > c1,
            "{what}: txn 2 surfaced before txn 1 committed at op {c1}"
        );
        "txn2".into()
    }
}

// ---------------------------------------------------------------------
// The served conversation: connection kill and server kill

/// The conversation the connection-kill and server-kill sweeps run: a
/// writer applies tokened batches, each ending in `commit_durable`,
/// while a reader checkpoints every answer at each commit boundary.
#[derive(Debug, Clone)]
pub struct Served {
    /// Objects committed before serving starts.
    pub base_objects: usize,
    /// Tokened write batches.
    pub batches: usize,
    /// Inserts per batch.
    pub ops_per_batch: usize,
    /// Queries per checkpoint.
    pub queries: usize,
    /// Seed of the data and the queries.
    pub seed: u64,
}

/// Page size of the served store. Page 0's catalog holds the engine
/// roots plus the retained idempotency tokens; 512-byte pages overflow
/// it with three batches.
const SERVED_PAGE: usize = 1024;

impl Served {
    /// The smoke size: every protocol phase — handshake, queries,
    /// tokened writes, durable commits — in seconds.
    pub fn smoke() -> Self {
        Self {
            base_objects: 16,
            batches: 2,
            ops_per_batch: 2,
            queries: 2,
            ..Self::full(0xCA05)
        }
    }

    /// The recorded full size.
    pub fn full(seed: u64) -> Self {
        Self {
            base_objects: 96,
            batches: 3,
            ops_per_batch: 4,
            queries: 4,
            seed,
        }
    }
}

/// Idempotency tokens are `TOKEN_BASE + batch + 1` in every run: each
/// run has fresh files, and a retried run must speak the same identity.
const TOKEN_BASE: u64 = 0xCA05_0000;

fn token_for(batch: usize) -> u64 {
    TOKEN_BASE + batch as u64 + 1
}

/// A server over `store` on an ephemeral port. The driver is strictly
/// serial, one request in flight: four connections cover its own, its
/// reconnects and the probes.
fn serve(store: SharedStore) -> Result<ServerHandle> {
    let cfg = ServeConfig {
        max_connections: 4,
        ..ServeConfig::default()
    };
    ServerHandle::bind(store, "127.0.0.1:0", cfg)
}

/// The conversation's fixed script and its clean run's boundaries.
struct Conversation {
    cfg: Served,
    batches: Vec<Weighted<Rect>>,
    queries: Vec<Rect>,
    files: Files,
    /// `answers[m]`: the checkpoint with the first `m` batches committed.
    answers: Vec<Vec<u64>>,
    /// `counts[m]`: the object count at the same boundary.
    counts: Vec<u64>,
}

impl Conversation {
    fn new(cfg: Served) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED);
        let batches = (0..cfg.batches)
            .map(|_| weighted(&mut rng, cfg.ops_per_batch, |rng| rect(rng, 0.3)))
            .collect();
        // The whole space leads the queries, so every boundary differs
        // from its neighbours in at least one bit.
        let queries = std::iter::once(unit_square())
            .chain(std::iter::repeat_with(|| rect(&mut rng, 0.6)))
            .take(cfg.queries)
            .collect();
        let files = Files::new("chaos.pages", SERVED_PAGE, 64);
        Self {
            cfg,
            batches,
            queries,
            files,
            answers: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A fresh file set with the seed engine committed. The pager counts
    /// restart after the seed commit: op 1 is the first serving-phase
    /// pager op.
    fn fresh_store(&self) -> (SharedStore, FaultHandle) {
        let (store, faults) = self.files.fresh(None);
        let store = store.expect("open the served store");
        let space = unit_square();
        let mut engine = SimpleBoxSum::batree_in(space, store.clone()).expect("create the engine");
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        for (r, v) in weighted(&mut rng, self.cfg.base_objects, |rng| rect(rng, 0.3)) {
            engine.insert(&r, v).expect("seed insert");
        }
        persist_corner_engine(&engine, &space).expect("persist the seed engine");
        store.commit().expect("seed commit");
        faults.reset_counts();
        (store, faults)
    }

    fn checkpoint(&self, reader: &mut Client) -> Result<Vec<u64>> {
        bits(&self.queries, |q| reader.box_sum(q))
    }

    /// The whole script: the reader's checkpoint, then per batch the
    /// writer's inserts, its durable commit and another checkpoint.
    /// Returns the checkpoints and the object count at every commit
    /// boundary. An insert that fails goes to `failed`, which must make
    /// the writer whole again before the insert is retried.
    fn script(
        &self,
        writer: &mut Client,
        reader: &mut Client,
        mut failed: impl FnMut(&mut Client, Error),
    ) -> (Vec<Vec<u64>>, Vec<u64>) {
        let mut answers = vec![self.checkpoint(reader).expect("checkpoint 0")];
        let mut counts = vec![self.cfg.base_objects as u64];
        for (b, batch) in self.batches.iter().enumerate() {
            writer.set_next_token(token_for(b));
            for (r, v) in batch {
                if let Err(e) = writer.insert(r, *v) {
                    failed(writer, e);
                    writer.insert(r, *v).expect("retried insert");
                }
            }
            // A kill inside the commit exchange rides commit_durable's
            // own reconnect-replay-retry cycle.
            counts.push(writer.commit_durable().expect("durable commit"));
            answers.push(self.checkpoint(reader).expect("checkpoint"));
        }
        (answers, counts)
    }

    /// The clean run: records every boundary, and returns the writer's
    /// socket ops and the store's serving-phase pager ops.
    fn clean(&mut self) -> (u64, u64) {
        let (store, faults) = self.fresh_store();
        let server = serve(store).expect("bind the server");
        let conn = StreamFaultHandle::new();
        let addr = server.local_addr();
        let mut writer = Client::connect_faulted(addr, conn.clone()).expect("writer connect");
        let mut reader = Client::connect(addr).expect("reader connect");
        (self.answers, self.counts) = self.script(&mut writer, &mut reader, |_, e| {
            // lint: allow(panic) -- the clean run has no fault to survive
            panic!("clean insert failed: {e}")
        });
        // Measured at the end of the last checkpoint: every swept k
        // lands inside the script.
        let domains = (conn.counts().total(), faults.counts().total());
        for (m, pair) in self.answers.windows(2).enumerate() {
            let grown = self.counts[m] + self.batches[m].len() as u64;
            assert_eq!(self.counts[m + 1], grown, "batch {m}'s count");
            assert_ne!(
                pair[0][0], pair[1][0],
                "batch {m} must move the whole-space sum, or boundaries are indistinguishable"
            );
        }
        drop((writer, reader));
        server.shutdown();
        domains
    }
}

/// The connection-kill sweep (see the module docs).
pub struct ConnKill(Conversation);

impl ConnKill {
    /// The connection-kill sweep of `cfg`.
    pub fn new(cfg: Served) -> Self {
        Self(Conversation::new(cfg))
    }
}

impl Scenario for ConnKill {
    fn clean(&mut self) -> u64 {
        self.0.clean().0
    }

    fn faulted(&mut self, k: u64, tally: &mut Tally) -> String {
        let c = &self.0;
        let what = format!("conn kill at op {k}");
        let died = |e: &Error| {
            assert!(
                is_connection_error(e),
                "{what}: expected a connection error, got: {e}"
            );
        };
        let server = serve(c.fresh_store().0).expect("bind the server");
        let addr = server.local_addr();
        let conn = StreamFaultHandle::new();
        conn.arm(StreamFaultSpec::kill_at(StreamOpFilter::Any, k));
        let mut landing = "commit";
        let mut writer = Client::connect_faulted(addr, conn.clone()).unwrap_or_else(|e| {
            // Killed inside the handshake: dial again on a plain socket.
            died(&e);
            landing = "reconnect";
            Client::connect(addr).expect("writer redial")
        });
        let mut reader = Client::connect(addr).expect("reader connect");
        let (answers, counts) = c.script(&mut writer, &mut reader, |writer, e| {
            // The server is alive: reconnecting swaps the killed stream
            // for a plain socket, and the replay re-sends the pended
            // prefix (the server skips what it applied) before the failed
            // op retries under its own sequence number — exactly once
            // either way.
            died(&e);
            landing = "reconnect";
            writer.reconnect().expect("writer reconnect");
            writer.replay_pending().expect("replay after reconnect");
        });
        assert_eq!(counts, c.counts, "{what}: an op was lost or doubled");
        assert_eq!(answers, c.answers, "{what}: the answers moved");
        let stats = reader.stats().expect("final stats");
        assert!(stats.validate_ok, "{what}: the store failed validation");
        tally.add("replays", stats.replays);
        tally.add("answers", answers.len() as u64);
        drop((writer, reader));
        server.shutdown();
        if conn.injected() == 0 {
            landing = "unfired";
        }
        landing.into()
    }
}

/// The server-kill sweep (see the module docs).
pub struct ServerKill(Conversation);

/// Where a server-kill run's first error surfaced.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Opening the engine in `bind` died: nothing was served.
    Bind,
    /// Checkpoint `c` died.
    Checkpoint(usize),
    /// Batch `b`'s op `i` died; `i` past the batch's last insert is its
    /// durable commit.
    Write(usize, usize),
}

/// What the doomed server's run leaves behind.
#[derive(Default)]
struct Doomed {
    server: Option<ServerHandle>,
    writer: Option<Client>,
    reader: Option<Client>,
    /// Commits the driver saw return.
    acked: usize,
    /// Checkpoints compared bit for bit.
    checked: u64,
}

impl ServerKill {
    /// The server-kill sweep of `cfg`.
    pub fn new(cfg: Served) -> Self {
        Self(Conversation::new(cfg))
    }

    /// Runs the script against a server over `store` until its first
    /// error; every answer before it must match the clean run.
    fn doomed(
        &self,
        store: &SharedStore,
        what: &str,
        run: &mut Doomed,
    ) -> std::result::Result<(), (Stop, Error)> {
        let c = &self.0;
        let server = serve(store.clone()).map_err(|e| (Stop::Bind, e))?;
        let addr = server.local_addr();
        run.server = Some(server);
        let writer = run
            .writer
            .insert(Client::connect(addr).expect("writer connect"));
        let reader = run
            .reader
            .insert(Client::connect(addr).expect("reader connect"));
        for b in 0..=c.batches.len() {
            if b > 0 {
                let batch = &c.batches[b - 1];
                writer.set_next_token(token_for(b - 1));
                for (i, (r, v)) in batch.iter().enumerate() {
                    let inserted = writer.insert(r, *v);
                    inserted.map_err(|e| (Stop::Write(b - 1, i), e))?;
                }
                let committed = writer.commit_durable();
                let n = committed.map_err(|e| (Stop::Write(b - 1, batch.len()), e))?;
                assert_eq!(
                    n,
                    c.counts[b],
                    "{what}: batch {} count before the kill",
                    b - 1
                );
                run.acked += 1;
            }
            let a = c.checkpoint(reader).map_err(|e| (Stop::Checkpoint(b), e))?;
            assert_eq!(a, c.answers[b], "{what}: checkpoint {b} before the kill");
            run.checked += 1;
        }
        Ok(())
    }
}

impl Scenario for ServerKill {
    fn clean(&mut self) -> u64 {
        self.0.clean().1
    }

    fn faulted(&mut self, k: u64, tally: &mut Tally) -> String {
        let c = &self.0;
        let what = format!("server kill at op {k}");
        let (store, faults) = c.fresh_store();
        faults.arm(FaultSpec::sticky_from(OpFilter::Any, k));
        let mut run = Doomed::default();
        let mut stop = Stop::Bind;
        let doomed = self.doomed(&store, &what, &mut run).map_err(|(at, e)| {
            stop = at;
            e
        });
        died_of(&what, doomed, |e| e.to_string().contains("injected fault"));
        // Process death: drop every in-process reference without a
        // flush. The writer lives on, its pended batch intact.
        drop(run.reader.take());
        if let Some(server) = run.server.take() {
            server.shutdown();
        }
        drop(store);

        let recovered = c.files.recover(&what);
        let rec = recovered.recovery_report();
        // Restart on a fresh port, as a reborn process would.
        let server = serve(recovered).expect("rebind after recovery");
        let addr = server.local_addr();
        let mut reader = Client::connect(addr).expect("reader redial");
        let objects = reader.hello().objects;
        let answers = c.checkpoint(&mut reader).expect("post-recovery checkpoint");
        run.checked += 1;
        // Exactly one committed state — a single boundary, which the
        // clean run proved distinguishable — and one that fits the
        // commits acknowledged before the kill.
        let m = c.answers.iter().position(|a| *a == answers);
        // lint: allow(panic) -- an in-between state is the failure under test
        let m = m.unwrap_or_else(|| panic!("{what}: recovered no commit boundary"));
        assert_eq!(objects, c.counts[m], "{what}: object count of boundary {m}");
        let in_flight = matches!(stop, Stop::Write(b, i) if i == c.batches[b].len());
        let in_flight = usize::from(in_flight);
        let acked = run.acked;
        assert!(
            m >= acked,
            "{what}: boundary {m} lost one of {acked} acked commits"
        );
        assert!(
            m <= acked + in_flight,
            "{what}: boundary {m} invented with {acked} acked and {in_flight} in flight"
        );

        // Resume the script. The writer follows the restart with its
        // pended batch; replaying it against the reborn server is
        // exactly-once through the durable token record.
        let mut writer = match run.writer.take() {
            Some(mut w) => {
                w.redirect(addr).expect("writer redirect");
                w
            }
            None => Client::connect(addr).expect("writer connect after recovery"),
        };
        let mut check = |reader: &mut Client, boundary: usize| {
            let a = c.checkpoint(reader).expect("resumed checkpoint");
            assert_eq!(
                a, c.answers[boundary],
                "{what}: checkpoint {boundary} after recovery"
            );
            run.checked += 1;
        };
        let resume = match stop {
            Stop::Bind => 0,
            Stop::Checkpoint(b) => b,
            Stop::Write(b, i) => {
                // The pended prefix replays — applied afresh, its effects
                // died with the old process — the failed op retries under
                // its sequence number, and the tail runs for the first
                // time. If the commit in flight had landed, the replay is
                // skipped and the commit answered from the durable token
                // record instead.
                writer.replay_pending().expect("replay after restart");
                for (r, v) in &c.batches[b][i..] {
                    writer.insert(r, *v).expect("resumed insert");
                }
                let n = writer.commit_durable().expect("commit after restart");
                assert_eq!(
                    n,
                    c.counts[b + 1],
                    "{what}: batch {b}'s count after restart"
                );
                b + 1
            }
        };
        check(&mut reader, resume);
        for b in resume..c.batches.len() {
            writer.set_next_token(token_for(b));
            for (r, v) in &c.batches[b] {
                writer.insert(r, *v).expect("post-recovery insert");
            }
            let n = writer.commit_durable().expect("post-recovery commit");
            assert_eq!(
                n,
                c.counts[b + 1],
                "{what}: batch {b}'s count after recovery"
            );
            check(&mut reader, b + 1);
        }
        let stats = reader.stats().expect("final stats");
        assert!(
            stats.validate_ok,
            "{what}: the resumed store failed validation"
        );
        // A last empty tokened commit probes the live object count: a
        // lost or doubled op shows here even if every query missed it.
        let n = writer.commit_durable().expect("empty tail commit");
        assert_eq!(Some(&n), c.counts.last(), "{what}: final object count");
        drop((writer, reader));
        server.shutdown();
        let landed = in_flight == 1 && m == acked + 1;
        tally.add("in-flight landed", u64::from(landed));
        tally.add("wal replays", rec.txns_replayed);
        tally.add("replays", stats.replays);
        tally.add("answers", run.checked);
        format!("boundary {m}")
    }
}
