//! **Mixed read/write benchmark** — MVCC snapshot reads under a
//! concurrent committer, the proof artifact for the commit-epoch
//! protocol.
//!
//! Two passes over the same seeded workload:
//!
//! 1. **Serial baseline.** Bulk-insert a base BA-tree, then apply `R`
//!    insert rounds, committing after each; record every committed
//!    state's answers to a fixed query set, keyed by the tree length
//!    the superblock catalog records (unique per round).
//! 2. **Concurrent run.** Rebuild the same base in a fresh store, then
//!    let a writer thread replay the same rounds — each ending in
//!    `persist_as` + `commit` — while the main thread continuously
//!    pins a [`StoreSnapshot`], reopens the catalogued tree *at that
//!    epoch*, and evaluates the full query set, timing every query.
//!
//! Every snapshot answer must be **bit-identical** to the serial
//! baseline for the same committed state: a reader pinned to epoch `e`
//! sees exactly the tree the `e`-th commit published, no matter how
//! many commits (or half-applied transactions) are in flight around
//! it. Reads that complete while the writer is inside `commit()` are
//! counted separately — with a file-backed WAL every commit blocks in
//! fsync, and the count being non-zero is the tentpole's point:
//! writers no longer block readers.
//!
//! After the writer finishes, the same snapshot read path is re-timed
//! with no writer alive — the read-only yardstick the mixed-run
//! latency percentiles are compared against.
//!
//! `--smoke` shrinks the workload to seconds, keeps every assertion
//! and writes nothing — the CI gate. The full run reports p50/p99/max
//! per-query read latency for both modes and writes
//! `BENCH_PR6_MIXED.json`.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin mixed -- \
//!     [--n 20000] [--queries 256] [--seed S] [--smoke]`

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_bench::{fmt_u64, print_table, Args};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir::tempdir;
use boxagg_common::traits::DominanceSumIndex;
use boxagg_pagestore::{Backing, SharedStore, StoreConfig};

const ROOT: &str = "mixed";

struct Workload {
    base: Vec<(Point, f64)>,
    rounds: Vec<Vec<(Point, f64)>>,
    queries: Vec<Point>,
}

fn workload(n: usize, rounds: usize, batch: usize, queries: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = |k: usize| -> Vec<(Point, f64)> {
        (0..k)
            .map(|_| {
                let p = Point::new(&[rng.gen::<f64>(), rng.gen::<f64>()]);
                (p, rng.gen_range(1..1000) as f64)
            })
            .collect()
    };
    let base = pts(n);
    let rounds = (0..rounds).map(|_| pts(batch)).collect();
    let mut rng_q = StdRng::seed_from_u64(seed ^ 0x5eed);
    let queries = std::iter::once(Point::new(&[1.0, 1.0]))
        .chain((1..queries).map(|_| Point::new(&[rng_q.gen::<f64>(), rng_q.gen::<f64>()])))
        .collect();
    Workload {
        base,
        rounds,
        queries,
    }
}

fn store_config(args: &Args, path: &std::path::Path) -> StoreConfig {
    let buffer_pages = (args.buffer_mb * 1024 * 1024 / args.page_size).max(16);
    StoreConfig {
        page_size: args.page_size,
        buffer_pages,
        backing: Backing::File(path.to_path_buf()),
        parallelism: 2,
        node_cache_pages: buffer_pages,
        wal: true,
    }
}

fn space() -> Rect {
    Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
}

/// Builds the base tree, publishes it and commits epoch 2.
fn build_base(store: &SharedStore, w: &Workload) -> BATree<f64> {
    let mut t: BATree<f64> = BATree::create(store.clone(), space(), 8).expect("create");
    for (p, v) in &w.base {
        t.insert(*p, *v).expect("insert");
    }
    t.persist_as(ROOT).expect("persist");
    store.commit().expect("commit");
    t
}

/// Serial baseline: every committed state's query answers, keyed by
/// the tree length the catalog records for that state.
fn serial_answers(args: &Args, w: &Workload) -> HashMap<u64, Vec<f64>> {
    let dir = tempdir().expect("tempdir");
    let store =
        SharedStore::open(&store_config(args, &dir.path().join("mixed.pages"))).expect("store");
    let mut t = build_base(&store, w);
    let mut answers = HashMap::new();
    let eval = |t: &mut BATree<f64>| -> Vec<f64> {
        w.queries
            .iter()
            .map(|q| t.dominance_sum(q).expect("query"))
            .collect()
    };
    answers.insert(t.len() as u64, eval(&mut t));
    for round in &w.rounds {
        for (p, v) in round {
            t.insert(*p, *v).expect("insert");
        }
        t.persist_as(ROOT).expect("persist");
        store.commit().expect("commit");
        answers.insert(t.len() as u64, eval(&mut t));
    }
    answers
}

struct MixedReport {
    snapshot_reads: u64,
    queries_executed: u64,
    reads_during_commit: u64,
    commits: u64,
    first_epoch: u64,
    last_epoch: u64,
    latencies_ns: Vec<u64>,
    read_only_latencies_ns: Vec<u64>,
}

/// Concurrent run: a writer thread replays the rounds while the main
/// thread reads snapshots, verifying bit-identity against `serial`.
fn run_mixed(args: &Args, w: &Workload, serial: &HashMap<u64, Vec<f64>>) -> MixedReport {
    let dir = tempdir().expect("tempdir");
    let store =
        SharedStore::open(&store_config(args, &dir.path().join("mixed.pages"))).expect("store");
    let t = build_base(&store, w);
    drop(t);

    let in_commit = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let commits = Arc::new(AtomicU64::new(0));

    let writer = {
        let store = store.clone();
        let in_commit = in_commit.clone();
        let done = done.clone();
        let commits = commits.clone();
        let rounds = w.rounds.clone();
        std::thread::spawn(move || {
            let mut t: BATree<f64> = BATree::open_named(store.clone(), ROOT).expect("open");
            for round in &rounds {
                for (p, v) in round {
                    t.insert(*p, *v).expect("insert");
                }
                t.persist_as(ROOT).expect("persist");
                in_commit.store(true, Ordering::SeqCst);
                store.commit().expect("commit");
                in_commit.store(false, Ordering::SeqCst);
                commits.fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let mut report = MixedReport {
        snapshot_reads: 0,
        queries_executed: 0,
        reads_during_commit: 0,
        commits: 0,
        first_epoch: 0,
        last_epoch: 0,
        latencies_ns: Vec::new(),
        read_only_latencies_ns: Vec::new(),
    };
    let mut last_epoch = 0u64;
    // One extra pass after the writer finishes, so the final committed
    // state is verified too.
    let mut final_pass = false;
    loop {
        let writer_done = done.load(Ordering::SeqCst);
        let snap = Arc::new(store.snapshot().expect("snapshot"));
        assert!(
            snap.epoch() >= last_epoch,
            "epochs must be monotone: {} then {}",
            last_epoch,
            snap.epoch()
        );
        last_epoch = snap.epoch();
        if report.first_epoch == 0 {
            report.first_epoch = snap.epoch();
        }
        report.last_epoch = snap.epoch();
        let frozen: BATree<f64> = BATree::open_named(&snap, ROOT).expect("open at epoch");
        let want = serial.get(&(frozen.len() as u64)).unwrap_or_else(|| {
            // lint: allow(panic) -- bench harness: a length outside the serial catalog is the bug this binary exists to catch
            panic!(
                "snapshot at epoch {} sees length {}, which no serial commit produced",
                snap.epoch(),
                frozen.len()
            )
        });
        for (q, want) in w.queries.iter().zip(want) {
            let started_in_commit = in_commit.load(Ordering::SeqCst);
            let t0 = Instant::now();
            let got = frozen.dominance_sum(q).expect("snapshot query");
            let ns = t0.elapsed().as_nanos() as u64;
            report.latencies_ns.push(ns);
            report.queries_executed += 1;
            if started_in_commit || in_commit.load(Ordering::SeqCst) {
                report.reads_during_commit += 1;
            }
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "epoch {} (len {}): snapshot answer {} != serial answer {} at {:?}",
                snap.epoch(),
                frozen.len(),
                got,
                want,
                q
            );
        }
        report.snapshot_reads += 1;
        if final_pass {
            break;
        }
        final_pass = writer_done;
    }
    writer.join().expect("writer thread");
    report.commits = commits.load(Ordering::SeqCst);

    // Read-only baseline: the identical snapshot read path with no
    // writer alive — the yardstick the mixed-run percentiles are
    // compared against.
    for _ in 0..5 {
        let snap = Arc::new(store.snapshot().expect("snapshot"));
        let frozen: BATree<f64> = BATree::open_named(&snap, ROOT).expect("open at epoch");
        let want = serial
            .get(&(frozen.len() as u64))
            .expect("final committed state must be in the serial catalog");
        for (q, want) in w.queries.iter().zip(want) {
            let t0 = Instant::now();
            let got = frozen.dominance_sum(q).expect("snapshot query");
            report
                .read_only_latencies_ns
                .push(t0.elapsed().as_nanos() as u64);
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    store.validate().expect("validate");
    report
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args = Args::parse_with(20_000, 1);
    let (n, rounds, batch, queries) = if args.smoke {
        (2_000, 5, 200, args.queries.min(64))
    } else {
        (args.n, 30, 1_000, args.queries.min(256))
    };
    println!(
        "mixed: base {} points, {rounds} rounds x {batch} inserts, {queries} queries per snapshot",
        fmt_u64(n as u64),
    );

    let w = workload(n, rounds, batch, queries, args.seed);
    let serial = serial_answers(&args, &w);
    assert_eq!(serial.len(), rounds + 1, "one answer set per commit");
    let mut report = run_mixed(&args, &w, &serial);

    assert!(report.snapshot_reads >= 2, "reader must make progress");
    assert_eq!(report.commits, rounds as u64);
    assert!(
        report.last_epoch > report.first_epoch,
        "the reader must observe the epoch advancing ({} -> {})",
        report.first_epoch,
        report.last_epoch
    );
    if !args.smoke {
        // Every commit blocks in fsync on the file-backed WAL; a
        // snapshot reader must slip queries into those windows.
        assert!(
            report.reads_during_commit > 0,
            "no query overlapped a commit — readers are being blocked"
        );
    }

    report.latencies_ns.sort_unstable();
    report.read_only_latencies_ns.sort_unstable();
    let p50 = percentile(&report.latencies_ns, 0.50);
    let p99 = percentile(&report.latencies_ns, 0.99);
    let max = report.latencies_ns.last().copied().unwrap_or(0);
    let ro_p50 = percentile(&report.read_only_latencies_ns, 0.50);
    let ro_p99 = percentile(&report.read_only_latencies_ns, 0.99);
    let ro_max = report.read_only_latencies_ns.last().copied().unwrap_or(0);
    print_table(
        "Snapshot reads vs a concurrent committer",
        &[
            "mode",
            "snapshots",
            "queries",
            "in-commit",
            "commits",
            "epochs",
            "p50 ns",
            "p99 ns",
            "max ns",
        ],
        &[
            vec![
                "mixed".to_string(),
                fmt_u64(report.snapshot_reads),
                fmt_u64(report.queries_executed),
                fmt_u64(report.reads_during_commit),
                fmt_u64(report.commits),
                format!("{}..{}", report.first_epoch, report.last_epoch),
                fmt_u64(p50),
                fmt_u64(p99),
                fmt_u64(max),
            ],
            vec![
                "read-only".to_string(),
                "5".to_string(),
                fmt_u64(report.read_only_latencies_ns.len() as u64),
                "0".to_string(),
                "0".to_string(),
                "-".to_string(),
                fmt_u64(ro_p50),
                fmt_u64(ro_p99),
                fmt_u64(ro_max),
            ],
        ],
    );
    let p99_ratio = p99 as f64 / ro_p99.max(1) as f64;
    println!(
        "answers bit-identical to the serial schedule across {} snapshot reads; \
         mixed p99 = {:.1}x read-only p99",
        report.snapshot_reads, p99_ratio
    );

    if !args.smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"mixed\",\n",
                "  \"n\": {}, \"rounds\": {}, \"batch\": {}, \"queries\": {},\n",
                "  \"seed\": {}, \"page_size\": {},\n",
                "  \"commits\": {}, \"snapshot_reads\": {}, \"queries_executed\": {},\n",
                "  \"reads_during_commit\": {},\n",
                "  \"read_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
                "  \"read_only_latency_ns\": {{\"p50\": {}, \"p99\": {}, \"max\": {}}},\n",
                "  \"mixed_p99_over_read_only_p99\": {:.2},\n",
                "  \"epochs_observed\": {{\"first\": {}, \"last\": {}}},\n",
                "  \"answers_bit_identical_to_serial\": true\n",
                "}}\n"
            ),
            n,
            rounds,
            batch,
            queries,
            args.seed,
            args.page_size,
            report.commits,
            report.snapshot_reads,
            report.queries_executed,
            report.reads_during_commit,
            p50,
            p99,
            max,
            ro_p50,
            ro_p99,
            ro_max,
            p99_ratio,
            report.first_epoch,
            report.last_epoch,
        );
        std::fs::write("BENCH_PR6_MIXED.json", json).expect("write BENCH_PR6_MIXED.json");
        println!("wrote BENCH_PR6_MIXED.json");
    }
}
