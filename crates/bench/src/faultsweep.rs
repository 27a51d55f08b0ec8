//! Exhaustive fault-sweep driver for the disk substrate.
//!
//! The sweep answers one question: *is there any single I/O failure that
//! the stack mishandles?* A workload (bulk-load + dynamic inserts +
//! dominance-sum queries over a BA-tree or ECDF-B-tree) is first run
//! cleanly to count its pager operations `T` and record its answers.
//! Then, for every `k` in `1..=T` (or a stride of it), the workload is
//! re-run from scratch with a one-shot fault armed at the `k`-th pager
//! operation. Each faulted run must:
//!
//! * surface the injection as a typed [`Error`] — never a panic, and
//!   never swallow it (a completed run with a fired fault is a bug),
//! * leave the buffer pool and decoded-node cache structurally valid
//!   ([`SharedStore::validate`]),
//! * converge back to *bit-identical* answers on retry: a failed build
//!   is rebuilt on a fresh store, failed queries are simply re-run in
//!   place (they are read-only).
//!
//! The torn-write variant swaps clean errors for
//! [`FaultMode::TornWrite`](boxagg_pagestore::fault::FaultMode) on write
//! ops, leaving a prefix of the new image on disk; the checksum trailer
//! then guards recovery.

use boxagg_batree::BATree;
use boxagg_common::error::Error;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_common::traits::DominanceSumIndex;
use boxagg_common::Result;
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::fault::{is_injected, FaultHandle, OpCounts};
use boxagg_pagestore::{
    FaultPager, FaultSpec, IoStats, MemPager, OpFilter, SharedStore, StoreConfig,
};

/// Which index structure the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepScheme {
    /// The dynamic BA-tree (bulk-load, then inserts).
    BaTree,
    /// The update-optimized ECDF-B-tree (bulk-load, then inserts).
    EcdfB,
}

impl SweepScheme {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SweepScheme::BaTree => "BAT",
            SweepScheme::EcdfB => "ECDFu",
        }
    }
}

/// Parameters of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Index structure under test.
    pub scheme: SweepScheme,
    /// Points bulk-loaded up front.
    pub bulk_points: usize,
    /// Points inserted dynamically after the bulk-load.
    pub insert_points: usize,
    /// Dominance-sum queries per run.
    pub queries: usize,
    /// Page size in bytes (small pages force deep trees).
    pub page_size: usize,
    /// Buffer pool capacity in pages (small buffers force evictions, so
    /// the sweep exercises the write-back paths).
    pub buffer_pages: usize,
    /// Seed for the dataset, the queries and torn-write prefixes.
    pub seed: u64,
    /// Test every `stride`-th op index; 1 is exhaustive.
    pub stride: u64,
    /// Replace clean write failures with torn writes (a random prefix of
    /// the new image reaches the pager before the error).
    pub torn_writes: bool,
}

impl SweepConfig {
    /// A workload small enough for an exhaustive (`stride == 1`) sweep
    /// in a debug-build test, yet deep enough to exercise bulk-load,
    /// splits, evictions and flushes.
    pub fn small(scheme: SweepScheme) -> Self {
        Self {
            scheme,
            bulk_points: 80,
            insert_points: 20,
            queries: 16,
            page_size: 256,
            buffer_pages: 8,
            seed: 0xFA_017,
            stride: 1,
            torn_writes: false,
        }
    }

    /// The torn-write variant of [`small`](Self::small).
    pub fn small_torn(scheme: SweepScheme) -> Self {
        Self {
            torn_writes: true,
            ..Self::small(scheme)
        }
    }
}

/// What an entire sweep observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepReport {
    /// Pager operations of the clean run — the sweep's domain.
    pub total_ops: u64,
    /// Fault positions actually tested (`total_ops / stride`, rounded up).
    pub ks_tested: u64,
    /// Runs whose injection surfaced during build (bulk/insert/flush);
    /// recovery was a fresh rebuild.
    pub build_failures: u64,
    /// Runs whose injection surfaced during the query phase; recovery
    /// was an in-place re-run.
    pub query_failures: u64,
}

pub(crate) fn unit_square() -> Rect {
    Rect::new(Point::new(&[0.0, 0.0]), Point::new(&[1.0, 1.0]))
}

/// Weighted points of one workload phase.
type Weighted = Vec<(Point, f64)>;

/// Deterministic dataset + query points for `cfg`.
fn gen_data(cfg: &SweepConfig) -> (Weighted, Weighted, Vec<Point>) {
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
    let queries = (0..cfg.queries)
        .map(|_| Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()]))
        .collect();
    (bulk, inserts, queries)
}

/// A store over a fresh in-memory pager wrapped in a [`FaultPager`]; the
/// handle doubles as an exact pager-op counter even when nothing is
/// armed.
fn fresh_store(cfg: &SweepConfig) -> (SharedStore, FaultHandle) {
    let (pager, handle) = FaultPager::new(Box::new(MemPager::new(cfg.page_size)));
    let store = SharedStore::with_pager(
        Box::new(pager),
        &StoreConfig::small(cfg.page_size, cfg.buffer_pages),
    );
    (store, handle)
}

/// Build phase: bulk-load, dynamic inserts, then a flush. Any injected
/// failure propagates out of here.
fn build(
    cfg: &SweepConfig,
    store: &SharedStore,
    bulk: &[(Point, f64)],
    inserts: &[(Point, f64)],
) -> Result<Box<dyn DominanceSumIndex<f64>>> {
    let mut index: Box<dyn DominanceSumIndex<f64>> = match cfg.scheme {
        SweepScheme::BaTree => Box::new(BATree::<f64>::bulk_load(
            store.clone(),
            unit_square(),
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
    };
    for (p, v) in inserts {
        index.insert(*p, *v)?;
    }
    store.flush()?;
    Ok(index)
}

/// Query phase: every dominance sum, as raw `f64` bit patterns so that
/// "bit-identical" is literal.
fn query_all(index: &dyn DominanceSumIndex<f64>, queries: &[Point]) -> Result<Vec<u64>> {
    queries
        .iter()
        .map(|q| index.dominance_sum(q).map(f64::to_bits))
        .collect()
}

/// Asserts `err` is an acceptable faulted-run error: the injection
/// itself, or a checksum failure caused by a torn image it left behind.
fn assert_typed(cfg: &SweepConfig, k: u64, err: &Error) {
    let ok = is_injected(err) || (cfg.torn_writes && matches!(err, Error::Corruption { .. }));
    assert!(
        ok,
        "{} sweep, fault at op {k}: expected the injected error (or a \
         torn-page Corruption), got: {err}",
        cfg.scheme.name()
    );
}

/// Runs the full sweep for `cfg`, panicking on any mishandled failure.
/// See the module docs for the properties checked per `k`.
pub fn run(cfg: &SweepConfig) -> SweepReport {
    let (bulk, inserts, queries) = gen_data(cfg);

    // Clean baseline: answers and the op-count domain of the sweep.
    let (store, counter) = fresh_store(cfg);
    let index = build(cfg, &store, &bulk, &inserts).expect("clean build must succeed");
    let baseline = query_all(&*index, &queries).expect("clean queries must succeed");
    store.validate().expect("clean run leaves a valid store");
    let total_ops = counter.counts().total();
    assert!(total_ops > 0, "workload must touch the pager");
    drop(index);

    let mut report = SweepReport {
        total_ops,
        ..SweepReport::default()
    };
    let stride = cfg.stride.max(1);
    let mut k = 1;
    while k <= total_ops {
        report.ks_tested += 1;
        let (store, faults) = fresh_store(cfg);
        if cfg.torn_writes {
            let mut spec = FaultSpec::random_torn_write(k, cfg.page_size, cfg.seed ^ k);
            spec.ops = OpFilter::Any;
            faults.arm(spec);
        } else {
            faults.arm(FaultSpec::error_at(OpFilter::Any, k));
        }

        match build(cfg, &store, &bulk, &inserts) {
            Err(e) => {
                assert_typed(cfg, k, &e);
                let valid = store.validate();
                assert!(
                    valid.is_ok(),
                    "invalid pool after build fault at op {k}: {valid:?}"
                );
                report.build_failures += 1;
                // Retry protocol for mutations: rebuild on a fresh store.
                faults.disarm();
                let (store2, _counter2) = fresh_store(cfg);
                let rebuilt = build(cfg, &store2, &bulk, &inserts).expect("rebuild after fault");
                let answers = query_all(&*rebuilt, &queries).expect("queries after rebuild");
                assert_eq!(
                    answers, baseline,
                    "rebuild after a fault at op {k} diverged from the baseline"
                );
            }
            Ok(idx) => match query_all(&*idx, &queries) {
                Err(e) => {
                    assert_typed(cfg, k, &e);
                    let valid = store.validate();
                    assert!(
                        valid.is_ok(),
                        "invalid pool after query fault at op {k}: {valid:?}"
                    );
                    report.query_failures += 1;
                    // Retry protocol for queries: re-run in place.
                    faults.disarm();
                    let answers = query_all(&*idx, &queries).expect("query retry");
                    assert_eq!(
                        answers, baseline,
                        "query retry after a fault at op {k} diverged from the baseline"
                    );
                }
                Ok(_) => {
                    // k ≤ total_ops and the op stream is deterministic, so
                    // the fault fired; completing anyway means some layer
                    // swallowed the error.
                    // lint: allow(panic) -- the sweep's whole point: a swallowed injected error is a hard failure
                    panic!(
                        "{} sweep: fault at op {k} fired ({} injections) but the \
                         workload completed — an error was swallowed",
                        cfg.scheme.name(),
                        faults.injected()
                    );
                }
            },
        }
        assert_eq!(
            faults.injected(),
            1,
            "exactly one injection expected at op {k}"
        );
        k += stride;
    }
    report
}

/// One clean run: the pager op counts (how a full-size sweep picks its
/// stride), the buffer statistics and the answers.
pub fn clean_run(cfg: &SweepConfig) -> (OpCounts, IoStats, Vec<u64>) {
    let (bulk, inserts, queries) = gen_data(cfg);
    let (store, counter) = fresh_store(cfg);
    let index = build(cfg, &store, &bulk, &inserts).expect("clean build");
    let answers = query_all(&*index, &queries).expect("clean queries");
    (counter.counts(), store.stats(), answers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_workloads_are_deterministic() {
        for scheme in [SweepScheme::BaTree, SweepScheme::EcdfB] {
            let cfg = SweepConfig {
                bulk_points: 24,
                insert_points: 6,
                queries: 8,
                ..SweepConfig::small(scheme)
            };
            let (a_ops, a_stats, a) = clean_run(&cfg);
            let (b_ops, b_stats, b) = clean_run(&cfg);
            assert_eq!(a_ops, b_ops, "op stream must be deterministic");
            assert_eq!(a_stats, b_stats);
            assert_eq!(a, b);
            assert!(a_ops.total() > 0);
        }
    }

    #[test]
    fn tiny_exhaustive_sweep_passes() {
        // The full-size exhaustive sweeps live in tests/fault_sweep.rs
        // and the `faults` bench binary; this is the in-crate canary.
        let cfg = SweepConfig {
            bulk_points: 24,
            insert_points: 6,
            queries: 8,
            ..SweepConfig::small(SweepScheme::BaTree)
        };
        let report = run(&cfg);
        assert_eq!(report.ks_tested, report.total_ops);
        assert_eq!(
            report.build_failures + report.query_failures,
            report.ks_tested,
            "every tested op index must surface its failure"
        );
        assert!(report.build_failures > 0 && report.query_failures > 0);
    }
}
