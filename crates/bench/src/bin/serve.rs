//! **Serving benchmark** — the load generator for `boxagg serve`:
//! open-loop Poisson arrivals against the network service, batching
//! on-vs-off, and a many-client soak.
//!
//! Three phases over one seeded dataset:
//!
//! 1. **Unbatched run.** Serve with a zero admission window (every
//!    request is its own group on its own snapshot — the serial
//!    execution) and drive it with `C` clients issuing box-sum queries
//!    on independent open-loop Poisson schedules. Latency is measured
//!    from the *scheduled* arrival, so queueing delay is charged to
//!    the server, not hidden by a closed loop.
//! 2. **Batched run.** Same clients, same seeded schedules and
//!    queries, with the admission window on. In both runs every reply
//!    must be **bit-identical** to a local in-process evaluation, and
//!    — the epoch being unchanged since that evaluation decoded it —
//!    steady-state decodes per query must stay below 1: pinned reads
//!    share decoded nodes across snapshots, batched or not.
//! 3. **Soak.** ≥ 32 concurrent connections, three quarters issuing
//!    reads and a quarter buffering inserts/deletes and committing.
//!    Must finish with zero protocol errors and a clean `validate()`;
//!    the commit count vs commit-round count shows N network commits
//!    collapsing into fewer WAL fsyncs.
//!
//! `--smoke` shrinks everything to seconds, keeps every assertion and
//! writes nothing — the CI gate. The full run writes `BENCH_PR9.json`.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin serve -- \
//!     [--n 20000] [--queries 1280] [--seed S] [--smoke]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use boxagg_bench::{fmt_u64, print_table, Args};
use boxagg_common::geom::Rect;
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir::tempdir;
use boxagg_core::catalog::{persist_corner_engine, SnapshotBoxSum};
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::{Backing, SharedStore};
use boxagg_serve::{Client, ServeConfig, ServeStats, ServerHandle};

fn rand_rect(rng: &mut StdRng, side: f64) -> Rect {
    let lx = rng.gen::<f64>() * (1.0 - side);
    let ly = rng.gen::<f64>() * (1.0 - side);
    Rect::from_bounds(&[
        (lx, lx + rng.gen::<f64>() * side),
        (ly, ly + rng.gen::<f64>() * side),
    ])
}

/// Builds a committed file-backed store holding the seeded dataset.
fn build_store(args: &Args, dir: &std::path::Path) -> (SharedStore, Rect) {
    let mut cfg = args.store_config();
    cfg.backing = Backing::File(dir.join("serve.pages"));
    cfg.wal = true;
    // Node caches that hold the whole index: the decode gate below is
    // about sharing across snapshots, not about capacity.
    cfg.node_cache_pages = cfg.node_cache_pages.max(1 << 16);
    let store = SharedStore::open(&cfg).expect("open store");
    let space = args.space();
    let mut engine = SimpleBoxSum::batree_in(space, store.clone()).expect("create engine");
    for (rect, value) in args.dataset() {
        engine.insert(&rect, value).expect("insert");
    }
    persist_corner_engine(&engine, &space).expect("persist");
    store.commit().expect("commit");
    (store, space)
}

struct LoadReport {
    /// Per-query latency from *scheduled* arrival, nanoseconds.
    latencies_ns: Vec<u64>,
    /// Answer bits, indexed by global query number.
    answers: Vec<u64>,
    stats: ServeStats,
}

/// Drives `clients` connections, each sending its slice of `queries`
/// on an open-loop Poisson schedule at `rate_hz / clients` per client.
fn run_load(
    addr: std::net::SocketAddr,
    clients: usize,
    queries: &Arc<Vec<Rect>>,
    rate_hz: f64,
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let per_client = queries.len() / clients;
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let queries = Arc::clone(queries);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 + c as u64));
                let rate = rate_hz / clients as f64;
                barrier.wait();
                let start = Instant::now();
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(per_client);
                for j in 0..per_client {
                    // Exponential interarrival; the schedule never
                    // slips even if the server falls behind (open loop).
                    let u = (1.0 - rng.gen::<f64>()).max(1e-12);
                    t += -u.ln() / rate;
                    let target = start + Duration::from_secs_f64(t);
                    let now = Instant::now();
                    if target > now {
                        std::thread::sleep(target - now);
                    }
                    let q = &queries[c * per_client + j];
                    let sum = client.box_sum(q).expect("box_sum");
                    let lat = Instant::now().saturating_duration_since(target);
                    out.push((c * per_client + j, sum.to_bits(), lat.as_nanos() as u64));
                }
                out
            })
        })
        .collect();
    barrier.wait();
    let mut answers = vec![0u64; per_client * clients];
    let mut latencies = Vec::with_capacity(per_client * clients);
    for h in handles {
        for (i, bits, lat) in h.join().expect("client thread") {
            answers[i] = bits;
            latencies.push(lat);
        }
    }
    latencies.sort_unstable();
    (latencies, answers)
}

fn percentile(sorted: &[u64], thousandths: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * thousandths) / 1000]
}

fn serve_on(store: &SharedStore, window: Duration, threads: usize) -> ServerHandle {
    ServerHandle::bind(
        store.clone(),
        "127.0.0.1:0",
        ServeConfig {
            batch_window: window,
            max_batch: 64,
            threads,
            ..ServeConfig::default()
        },
    )
    .expect("bind server")
}

fn load_phase(
    store: &SharedStore,
    window: Duration,
    clients: usize,
    queries: &Arc<Vec<Rect>>,
    rate_hz: f64,
    seed: u64,
) -> LoadReport {
    let server = serve_on(store, window, clients + 4);
    let (latencies_ns, answers) = run_load(server.local_addr(), clients, queries, rate_hz, seed);
    let stats = server.stats();
    server.shutdown();
    LoadReport {
        latencies_ns,
        answers,
        stats,
    }
}

struct SoakReport {
    reads: u64,
    writes: u64,
    stats: ServeStats,
    elapsed_s: f64,
}

/// Many-client soak: `readers + writers` concurrent connections, the
/// writers buffering inserts/deletes and committing as they go.
fn soak(
    store: &SharedStore,
    readers: usize,
    writers: usize,
    duration: Duration,
    seed: u64,
) -> SoakReport {
    let server = serve_on(store, Duration::from_micros(300), readers + writers + 4);
    let addr = server.local_addr();
    let deadline = Instant::now() + duration;
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut handles = Vec::new();
    for r in 0..readers {
        let reads = Arc::clone(&reads);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect reader");
            let mut rng = StdRng::seed_from_u64(seed ^ (0xAAAA + r as u64));
            while Instant::now() < deadline {
                let q = rand_rect(&mut rng, 0.4);
                let sum = client.box_sum(&q).expect("soak read");
                assert!(sum.is_finite(), "non-finite sum under soak");
                reads.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for w in 0..writers {
        let writes = Arc::clone(&writes);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect writer");
            let mut rng = StdRng::seed_from_u64(seed ^ (0xBBBB + w as u64));
            let mut pending: Vec<(Rect, f64)> = Vec::new();
            while Instant::now() < deadline {
                let rect = rand_rect(&mut rng, 0.05);
                let value = rng.gen_range(1..100) as f64;
                client.insert(&rect, value).expect("soak insert");
                pending.push((rect, value));
                writes.fetch_add(1, Ordering::Relaxed);
                if pending.len() >= 8 {
                    // Take half back out, then make the batch durable.
                    for (rect, value) in pending.drain(..4) {
                        client.delete(&rect, value).expect("soak delete");
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                    client.commit().expect("soak commit");
                }
            }
            if !pending.is_empty() {
                client.commit().expect("final soak commit");
            }
        }));
    }
    for h in handles {
        h.join().expect("soak thread");
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = server.stats();
    server.shutdown();
    SoakReport {
        reads: reads.load(Ordering::Relaxed),
        writes: writes.load(Ordering::Relaxed),
        stats,
        elapsed_s,
    }
}

fn main() {
    let args = Args::parse_with(20_000, 4);
    let (n, clients, per_client, rate_hz, soak_conns, soak_secs) = if args.smoke {
        (3_000.min(args.n), 8, 12, 800.0, 32, 1.5)
    } else {
        (args.n, 32, 40, 8_000.0, 32, 8.0)
    };
    let mut args = args;
    args.n = n;
    let total_queries = clients * per_client;

    let dir = tempdir().expect("tempdir");
    println!(
        "serving benchmark: n={n}, {clients} clients x {per_client} queries, \
         open-loop {rate_hz}/s Poisson",
    );
    let (store, _space) = build_store(&args, dir.path());

    let mut qrng = StdRng::seed_from_u64(args.seed ^ 0xCAFE);
    let queries = Arc::new(
        (0..total_queries)
            .map(|_| rand_rect(&mut qrng, 0.5))
            .collect::<Vec<_>>(),
    );

    // Ground truth: every query evaluated in process, one snapshot
    // each. Being the epoch's first pass, it pays the decodes.
    let mut expected = Vec::with_capacity(total_queries);
    let mut serial_decodes = 0u64;
    for q in queries.iter() {
        let snap = Arc::new(store.snapshot().expect("snapshot"));
        let engine = SnapshotBoxSum::open(&snap).expect("open");
        expected.push(engine.query(q).expect("serial query").to_bits());
        serial_decodes += snap.node_reads().1;
    }

    let off = load_phase(
        &store,
        Duration::ZERO,
        clients,
        &queries,
        rate_hz,
        args.seed,
    );
    let on = load_phase(
        &store,
        Duration::from_micros(300),
        clients,
        &queries,
        rate_hz,
        args.seed,
    );

    assert_eq!(
        off.answers, expected,
        "unbatched replies drifted from in-process"
    );
    assert_eq!(
        on.answers, expected,
        "batched replies drifted from in-process"
    );
    assert_eq!(off.stats.queries, total_queries as u64);
    assert_eq!(on.stats.queries, total_queries as u64);
    assert_eq!(off.stats.protocol_errors, 0);
    assert_eq!(on.stats.protocol_errors, 0);
    let dpq = |s: &ServeStats| s.node_decodes as f64 / s.queries.max(1) as f64;
    let cold_dpq = serial_decodes as f64 / total_queries as f64;
    for (mode, stats) in [("unbatched", &off.stats), ("batched", &on.stats)] {
        assert!(
            dpq(stats) < 1.0,
            "{mode}: {:.2} decodes per query on an unchanged epoch \
             (the cold in-process pass paid {cold_dpq:.2})",
            dpq(stats)
        );
    }

    let soak_report = soak(
        &store,
        soak_conns * 3 / 4,
        soak_conns / 4,
        Duration::from_secs_f64(soak_secs),
        args.seed,
    );
    assert_eq!(
        soak_report.stats.protocol_errors, 0,
        "soak hit protocol errors"
    );
    assert!(
        soak_report.stats.validate_ok,
        "store failed validate() after soak"
    );
    assert!(
        soak_report.stats.commit_rounds <= soak_report.stats.commits,
        "commit rounds cannot exceed commits"
    );

    let row = |name: &str, r: &LoadReport| {
        vec![
            name.to_string(),
            fmt_u64(r.stats.queries),
            fmt_u64(r.stats.groups),
            format!("{:.1}", dpq(&r.stats)),
            fmt_u64(percentile(&r.latencies_ns, 500)),
            fmt_u64(percentile(&r.latencies_ns, 990)),
            fmt_u64(percentile(&r.latencies_ns, 999)),
        ]
    };
    print_table(
        "open-loop Poisson load, batching off vs on",
        &[
            "mode",
            "queries",
            "groups",
            "decodes/q",
            "p50 ns",
            "p99 ns",
            "p999 ns",
        ],
        &[row("unbatched", &off), row("batched", &on)],
    );
    println!(
        "replies bit-identical across in-process / unbatched / batched; \
         decodes per query {cold_dpq:.2} on the cold in-process pass, \
         {:.2} unbatched and {:.2} batched on the then-unchanged epoch",
        dpq(&off.stats),
        dpq(&on.stats),
    );
    println!(
        "soak: {} connections, {} reads + {} writes, {} client commits in {} WAL rounds, \
         0 protocol errors, validate() clean ({:.1}s)",
        soak_conns,
        fmt_u64(soak_report.reads),
        fmt_u64(soak_report.writes),
        fmt_u64(soak_report.stats.commits),
        fmt_u64(soak_report.stats.commit_rounds),
        soak_report.elapsed_s
    );

    if !args.smoke {
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serve\",\n",
                "  \"n\": {}, \"clients\": {}, \"queries\": {}, \"seed\": {},\n",
                "  \"open_loop_rate_hz\": {}, \"batch_window_us\": 300,\n",
                "  \"unbatched\": {{\"decodes_per_query\": {:.2}, \"groups\": {}, ",
                "\"latency_ns\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}}}},\n",
                "  \"batched\": {{\"decodes_per_query\": {:.2}, \"groups\": {}, ",
                "\"latency_ns\": {{\"p50\": {}, \"p99\": {}, \"p999\": {}}}}},\n",
                "  \"cold_pass_decodes_per_query\": {:.2},\n",
                "  \"answers_bit_identical\": true,\n",
                "  \"soak\": {{\"connections\": {}, \"seconds\": {:.1}, \"reads\": {}, ",
                "\"writes\": {}, \"client_commits\": {}, \"wal_commit_rounds\": {}, ",
                "\"protocol_errors\": {}, \"validate_ok\": {}}}\n",
                "}}\n"
            ),
            n,
            clients,
            total_queries,
            args.seed,
            rate_hz,
            dpq(&off.stats),
            off.stats.groups,
            percentile(&off.latencies_ns, 500),
            percentile(&off.latencies_ns, 990),
            percentile(&off.latencies_ns, 999),
            dpq(&on.stats),
            on.stats.groups,
            percentile(&on.latencies_ns, 500),
            percentile(&on.latencies_ns, 990),
            percentile(&on.latencies_ns, 999),
            cold_dpq,
            soak_conns,
            soak_report.elapsed_s,
            soak_report.reads,
            soak_report.writes,
            soak_report.stats.commits,
            soak_report.stats.commit_rounds,
            soak_report.stats.protocol_errors,
            soak_report.stats.validate_ok,
        );
        std::fs::write("BENCH_PR9.json", json).expect("write BENCH_PR9.json");
        println!("wrote BENCH_PR9.json");
    }
}
