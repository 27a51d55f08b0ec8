//! The two served workloads: the BA-tree engine bulk-loaded into a
//! file-backed WAL store, committed, and put behind `ServerHandle`
//! with the shipped configuration. `serve-read` is box-sums only;
//! `serve-mixed` runs one writer beside one reader.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use boxagg_batree::BATree;
use boxagg_common::geom::Rect;
use boxagg_core::{
    open_corner_engine, persist_corner_engine, CornerBoxSum, SimpleBoxSum, SnapshotBoxSum,
};
use boxagg_pagestore::{Backing, SharedStore, StoreConfig};
use boxagg_serve::{Client, ServeConfig, ServeStats, ServerHandle};

use crate::harness::{
    check_against_scan, generator_threads, peak_rss_mib, record_box_sum, record_p99,
    record_setup_spans, repeated_setup, write_trace, Outcome, RunCfg, Tally, RESIDENT_PAGES,
};
use crate::inputs::{
    generate, poisson_due_times, run_open_loop, scan_box_sum, scan_tolerance, total_abs_value,
    FreshObjects, Inputs, OpenSample,
};
use crate::metrics::Measured;
use crate::probes;
use crate::stats::{median, median_window_rate, p50, percentile_of};
use crate::trace::Tracer;

/// Total request rate of the open-loop phase: a third of what the
/// closed loop sustains on the box the workloads were sized on.
const OPEN_LOOP_HZ: f64 = 1_000.0;

/// Operations of one writer batch: 56 inserts of fresh objects, then 8
/// deletes of the oldest objects this writer inserted, then a commit.
const BATCH_INSERTS: usize = 56;
const BATCH_DELETES: usize = 8;
const BATCH_OPS: usize = BATCH_INSERTS + BATCH_DELETES;

/// Batches the in-process writer replica runs.
const REPLICA_BATCHES: usize = 20;

/// Requests each connection sends before the first timed one.
const WARM_UP_REQUESTS: usize = 200;

/// Window of a served throughput sample.
const RATE_WINDOW_NS: u64 = 1_000_000_000;

/// A connection that fails this many requests in a row is given up on.
const MAX_CONSECUTIVE_ERRORS: u32 = 10;

fn store_config(path: PathBuf) -> StoreConfig {
    StoreConfig {
        buffer_pages: RESIDENT_PAGES,
        node_cache_pages: RESIDENT_PAGES,
        backing: Backing::File(path),
        wal: true,
        ..StoreConfig::default()
    }
}

/// A committed store behind a running server.
struct Served {
    // Dropped first: stops the server's threads before the store goes.
    server: ServerHandle,
    store: SharedStore,
    inputs: Inputs,
    path: PathBuf,
}

impl Served {
    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }
}

/// Generate, bulk-load into a WAL file, publish, commit, bind, and
/// send a few requests down each connection a load phase will use.
fn build_served(cfg: &RunCfg, tracer: &mut Tracer) -> Served {
    let dir = cfg.scratch.join("served");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("remove the previous set-up's store");
    }
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let path = dir.join("served.pages");
    let inputs = tracer.span("workload.gen", 0, |_| {
        generate(cfg.n, cfg.per_qbs, cfg.seed)
    });
    let engine = tracer.span("batree.bulk_load", 0, |_| {
        SimpleBoxSum::batree_bulk(inputs.space, store_config(path.clone()), &inputs.objects)
            .expect("bulk-load the BA-tree engine into a WAL store")
    });
    let store = engine.indexes()[0].store().clone();
    tracer.span("core.persist", 0, |_| {
        persist_corner_engine(&engine, &inputs.space).expect("publish the engine's roots")
    });
    tracer.span("pagestore.commit", 0, |_| {
        store.commit().expect("commit the bulk load")
    });
    drop(engine);
    let server = tracer.span("serve.bind", 0, |_| {
        ServerHandle::bind(store.clone(), "127.0.0.1:0", ServeConfig::default())
            .expect("bind the server")
    });
    let addr = server.local_addr();
    tracer.span("harness.warm_up", 0, |_| {
        std::thread::scope(|s| {
            for c in 0..generator_threads() {
                let queries = &inputs.queries;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect for warm-up");
                    for q in queries.iter().cycle().skip(c * 7).take(WARM_UP_REQUESTS) {
                        client.box_sum(q).expect("warm-up box-sum");
                    }
                });
            }
        });
    });
    Served {
        server,
        store,
        inputs,
        path,
    }
}

/// The in-process answer to every query of `Q` on the served store's
/// current epoch, with the latency of each call.
fn snapshot_answers(store: &SharedStore, queries: &[Rect]) -> (Vec<u64>, Vec<u64>) {
    let engine = SnapshotBoxSum::open(store.snapshot().expect("pin a snapshot"))
        .expect("open the persisted engine");
    let mut bits = Vec::with_capacity(queries.len());
    let mut lat_ns = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let v = engine.query(q).expect("in-process snapshot query");
        lat_ns.push(t.elapsed().as_nanos() as u64);
        bits.push(v.to_bits());
    }
    (bits, lat_ns)
}

/// One reply as the caller saw it.
#[derive(Debug, Clone, Copy)]
struct Reply {
    /// Completion time since the phase opened.
    done_ns: u64,
    lat_ns: u64,
    query: usize,
    bits: u64,
}

/// What one connection's closed loop produced.
struct ConnLog {
    replies: Vec<Reply>,
    errors: Vec<String>,
    tracer: Tracer,
}

/// `conns` connections, each calling `Client::box_sum` back to back on
/// its own rotation of `queries` for `window`. With `traced`, every
/// call is a `client.box_sum` span.
fn closed_loop_conns(
    addr: SocketAddr,
    conns: usize,
    queries: &[Rect],
    window: Duration,
    traced: Option<Instant>,
) -> Vec<ConnLog> {
    // Connections are made before the phase opens.
    let open_at = Instant::now() + Duration::from_millis(20 * conns as u64);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut log = ConnLog {
                        replies: Vec::new(),
                        errors: Vec::new(),
                        tracer: Tracer::new(traced.unwrap_or(open_at)),
                    };
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => {
                            log.errors.push(format!("connect: {e}"));
                            return log;
                        }
                    };
                    std::thread::sleep(open_at.saturating_duration_since(Instant::now()));
                    let mut i = c * queries.len() / conns;
                    let mut consecutive = 0;
                    while open_at.elapsed() < window && consecutive < MAX_CONSECUTIVE_ERRORS {
                        let query = i % queries.len();
                        i += 1;
                        let request = ((c as u32) << 24) | (i as u32 & 0xFF_FFFF);
                        let span = match traced {
                            Some(_) => Some(log.tracer.begin("client.box_sum", request)),
                            None => None,
                        };
                        let t = Instant::now();
                        let answer = client.box_sum(&queries[query]);
                        let lat_ns = t.elapsed().as_nanos() as u64;
                        if let Some(id) = span {
                            log.tracer.end(id);
                        }
                        match answer {
                            Ok(v) => {
                                consecutive = 0;
                                log.replies.push(Reply {
                                    done_ns: open_at.elapsed().as_nanos() as u64,
                                    lat_ns,
                                    query,
                                    bits: v.to_bits(),
                                });
                            }
                            Err(e) => {
                                consecutive += 1;
                                log.errors.push(format!("box_sum {query}: {e}"));
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread"))
            .collect()
    })
}

/// Replies of a phase, checked: errors count as failures, and every
/// answer must satisfy `accept(query, bits)`.
fn collect_replies(
    logs: Vec<ConnLog>,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
    accept: impl Fn(usize, u64) -> bool,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    let mut tracer = tracer;
    for log in logs {
        for e in log.errors {
            tally.check(false, || e);
        }
        for r in &log.replies {
            tally.check(accept(r.query, r.bits), || {
                format!(
                    "served answer to query {} is {:e}, not the in-process answer",
                    r.query,
                    f64::from_bits(r.bits)
                )
            });
        }
        replies.extend(log.replies);
        if let Some(t) = tracer.as_deref_mut() {
            t.absorb(log.tracer);
        }
    }
    replies
}

fn latencies(replies: &[Reply]) -> Vec<u64> {
    replies.iter().map(|r| r.lat_ns).collect()
}

fn p50_us(lat_ns: Vec<u64>) -> f64 {
    p50(lat_ns) / 1e3
}

fn record_served_box_sum(metrics: &mut Measured, replies: &[Reply], window: Duration) {
    let done: Vec<u64> = replies.iter().map(|r| r.done_ns).collect();
    let qps = median_window_rate(&done, window.as_nanos() as u64, RATE_WINDOW_NS);
    record_box_sum(metrics, qps, latencies(replies));
}

/// Requests the server turned away or answered with a protocol error
/// are failures even where the client's retry hid them.
fn check_server_stats(stats: &ServeStats, tally: &mut Tally, metrics: &mut Measured) {
    tally.check(stats.validate_ok, || "store failed validate()".into());
    for (what, count) in [
        ("shed", stats.shed),
        ("expired", stats.expired),
        ("protocol errors", stats.protocol_errors),
    ] {
        tally.failed += count;
        if count > 0 {
            eprintln!("FAILED: server counted {count} {what}");
        }
    }
    metrics.set("serve.shed", stats.shed as f64);
    metrics.set("serve.expired", stats.expired as f64);
    metrics.set("serve.protocol_errors", stats.protocol_errors as f64);
}

fn record_sharing(metrics: &mut Measured, before: &ServeStats, after: &ServeStats) {
    let queries = (after.queries - before.queries).max(1) as f64;
    let groups = (after.groups - before.groups).max(1) as f64;
    metrics.set("serve.group_size", queries / groups);
    metrics.set(
        "serve.decodes_per_query",
        (after.node_decodes - before.node_decodes) as f64 / queries,
    );
}

pub fn run_read(cfg: &RunCfg) -> Outcome {
    let (served, setup_s, mut tracer) = repeated_setup(cfg, |tracer| build_served(cfg, tracer));
    let mut out = Outcome::default();
    let queries = &served.inputs.queries;
    let (expected, inproc_lat) = snapshot_answers(&served.store, queries);
    let conns = generator_threads();
    let addr = served.addr();
    let exact = |query: usize, bits: u64| expected[query] == bits;

    if cfg.trace {
        let m = &mut out.metrics;
        record_setup_spans(m, &tracer);
        let opens: Vec<u64> = (0..2_000)
            .map(|_| {
                let t = Instant::now();
                let engine = SnapshotBoxSum::open(served.store.snapshot().expect("pin"));
                let ns = t.elapsed().as_nanos() as u64;
                engine.expect("open the persisted engine");
                ns
            })
            .collect();
        m.set("core.snapshot_open_us", p50_us(opens));
        let inproc_us = p50_us(inproc_lat);
        m.set("core.snapshot_query_us", inproc_us);

        let logs = closed_loop_conns(addr, 1, queries, cfg.share(0.2), None);
        let single = collect_replies(logs, &mut out.tally, None, exact);
        let single_us = p50_us(latencies(&single));
        m.set("serve.single_conn_p50_us", single_us);
        m.set("serve.overhead_us", single_us - inproc_us);

        // Phase A twice, untraced then traced, for the tracing overhead.
        let before = served.server.stats();
        let logs = closed_loop_conns(addr, conns, queries, cfg.share(0.15), None);
        let plain = collect_replies(logs, &mut out.tally, None, exact);
        let origin = tracer.origin();
        let logs = closed_loop_conns(addr, conns, queries, cfg.share(0.15), Some(origin));
        let traced = collect_replies(logs, &mut out.tally, Some(&mut tracer), exact);
        record_sharing(m, &before, &served.server.stats());
        let plain_us = p50_us(latencies(&plain));
        record_p99(m, latencies(&plain));
        m.set(
            "harness.trace_overhead_pct",
            (p50_us(latencies(&traced)) - plain_us) / plain_us * 100.0,
        );

        // Phase B: open loop below capacity, timed from the due time.
        let window = cfg.share(0.4);
        let samples = open_loop_conns(
            addr,
            conns,
            queries,
            window,
            cfg.seed,
            &mut out.tally,
            exact,
        );
        let mut lat: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
        let mut late: Vec<u64> = samples.iter().map(|s| s.lateness_ns).collect();
        m.set("open_p50_us", percentile_of(&mut lat, 0.5) as f64 / 1e3);
        m.set("open_p99_us", percentile_of(&mut lat, 0.99) as f64 / 1e3);
        m.set(
            "serve.gen_lateness_p99_us",
            percentile_of(&mut late, 0.99) as f64 / 1e3,
        );
        out.notes.push(format!(
            "budget: serve.overhead_us ({:.1}) + core.snapshot_query_us ({inproc_us:.1}) = serve.single_conn_p50_us \
             ({single_us:.1} us) by construction; {conns} connections see p50 {plain_us:.1} us closed loop, \
             {:.1} us open loop at {OPEN_LOOP_HZ} req/s ({} requests)",
            single_us - inproc_us,
            m.get("open_p50_us").unwrap_or(0.0),
            samples.len(),
        ));
        probes::run(cfg.share(0.02), cfg.seed, &cfg.scratch, m);
    } else {
        let window = cfg.share(1.0);
        let logs = closed_loop_conns(addr, conns, queries, window, None);
        let replies = collect_replies(logs, &mut out.tally, None, exact);
        record_served_box_sum(&mut out.metrics, &replies, window);
        out.metrics.set("setup_s", setup_s);
        out.metrics.set(
            "bytes_per_object",
            served.store.size_bytes() as f64 / cfg.n as f64,
        );
    }
    check_server_stats(&served.server.stats(), &mut out.tally, &mut out.metrics);
    let mut client = Client::connect(addr).expect("connect for the scan check");
    check_against_scan(
        "served box_sum",
        queries,
        cfg.seed,
        scan_tolerance(total_abs_value(&served.inputs.objects)),
        &mut out.tally,
        |q| client.box_sum(q),
        |q| scan_box_sum(&served.inputs.objects, q),
    );
    drop(client);
    if cfg.trace {
        write_trace(cfg, &tracer);
    }
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    out
}

/// The query an open-loop request asked and the bits it was answered.
type OpenAnswer = (usize, Result<u64, String>);

/// `conns` connections, each following its own Poisson schedule at
/// `OPEN_LOOP_HZ / conns`; latency runs from each request's due time.
fn open_loop_conns(
    addr: SocketAddr,
    conns: usize,
    queries: &[Rect],
    window: Duration,
    seed: u64,
    tally: &mut Tally,
    accept: impl Fn(usize, u64) -> bool,
) -> Vec<OpenSample> {
    let open_at = Instant::now() + Duration::from_millis(20 * conns as u64);
    let per_conn: Vec<(Vec<OpenSample>, Vec<OpenAnswer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let due = poisson_due_times(
                        OPEN_LOOP_HZ / conns as f64,
                        window.as_nanos() as u64,
                        seed ^ (c as u64 + 1),
                    );
                    let mut client = match Client::connect(addr) {
                        Ok(client) => client,
                        Err(e) => return (Vec::new(), vec![(0, Err(format!("connect: {e}")))]),
                    };
                    let now = || open_at.elapsed().as_nanos() as u64;
                    // Sleep to within 100 µs of the due time, then
                    // spin: a plain sleep overshoots by about that.
                    let wait_until = |t: u64| loop {
                        let left = t.saturating_sub(now());
                        match left {
                            0 => break,
                            150_000.. => std::thread::sleep(Duration::from_nanos(left - 100_000)),
                            _ => std::hint::spin_loop(),
                        }
                    };
                    std::thread::sleep(open_at.saturating_duration_since(Instant::now()));
                    let first = c * queries.len() / conns;
                    let mut answers = Vec::with_capacity(due.len());
                    let samples = run_open_loop(&due, now, wait_until, |i| {
                        let query = (first + i) % queries.len();
                        let answer = client.box_sum(&queries[query]);
                        answers.push((query, answer.map(f64::to_bits).map_err(|e| e.to_string())));
                    });
                    (samples, answers)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread"))
            .collect()
    });
    let mut samples = Vec::new();
    for (s, answers) in per_conn {
        samples.extend(s);
        for (query, answer) in answers {
            match answer {
                Ok(bits) => tally.check(accept(query, bits), || {
                    format!("open-loop answer to query {query} is not the in-process answer")
                }),
                Err(e) => tally.check(false, || format!("open-loop query {query}: {e}")),
            }
        }
    }
    samples
}

/// What the writer connection did.
#[derive(Default)]
struct WriterLog {
    /// `Client::commit` round trips.
    commit_ns: Vec<u64>,
    /// Whole batch cycles (64 writes and their commit).
    batch_ns: Vec<u64>,
    /// Objects inserted and not deleted, oldest first.
    live: VecDeque<(Rect, f64)>,
    inserts: u64,
    deletes: u64,
    /// Sum of every value ever inserted.
    inserted_value: f64,
    /// Object count the last successful commit reported.
    committed_objects: u64,
    errors: Vec<String>,
}

/// One writer batch against `client`; `Err` on the first refused op.
fn writer_batch(
    client: &mut Client,
    fresh: &mut FreshObjects,
    log: &mut WriterLog,
) -> boxagg_common::error::Result<()> {
    let started = Instant::now();
    for _ in 0..BATCH_INSERTS {
        let (rect, value) = fresh.next_object();
        client.insert(&rect, value)?;
        log.live.push_back((rect, value));
        log.inserts += 1;
        log.inserted_value += value;
    }
    for _ in 0..BATCH_DELETES {
        let (rect, value) = log.live.pop_front().expect("56 inserts precede 8 deletes");
        client.delete(&rect, value)?;
        log.deletes += 1;
    }
    let t = Instant::now();
    log.committed_objects = client.commit()?;
    log.commit_ns.push(t.elapsed().as_nanos() as u64);
    log.batch_ns.push(started.elapsed().as_nanos() as u64);
    Ok(())
}

/// One writer and one reader connection for `window`.
fn mixed_load(
    addr: SocketAddr,
    queries: &[Rect],
    window: Duration,
    seed: u64,
    traced: Option<Instant>,
) -> (ConnLog, WriterLog) {
    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut log = WriterLog::default();
            let mut fresh = FreshObjects::new(seed);
            let started = Instant::now();
            match Client::connect(addr) {
                Ok(mut client) => {
                    // A batch that has begun is finished and committed,
                    // so every acknowledged write is in the final state.
                    while started.elapsed() < window {
                        if let Err(e) = writer_batch(&mut client, &mut fresh, &mut log) {
                            log.errors.push(format!("writer batch: {e}"));
                            break;
                        }
                    }
                }
                Err(e) => log.errors.push(format!("writer connect: {e}")),
            }
            log
        });
        let reader = closed_loop_conns(addr, 1, queries, window, traced)
            .pop()
            .expect("one reader connection");
        (reader, writer.join().expect("writer thread"))
    })
}

pub fn run_mixed(cfg: &RunCfg) -> Outcome {
    let (served, setup_s, mut tracer) = repeated_setup(cfg, |tracer| build_served(cfg, tracer));
    let mut out = Outcome::default();
    let queries = &served.inputs.queries;
    let objects = &served.inputs.objects;
    let tolerance = scan_tolerance(total_abs_value(objects));
    let (base, _) = snapshot_answers(&served.store, queries);
    let addr = served.addr();
    let bytes_per_object = served.store.size_bytes() as f64 / cfg.n as f64;
    let window = if cfg.trace {
        cfg.share(0.5)
    } else {
        cfg.share(1.0)
    };

    let before = served.server.stats();
    let (reader, writer) = mixed_load(
        addr,
        queries,
        window,
        cfg.seed,
        cfg.trace.then(|| tracer.origin()),
    );
    let after = served.server.stats();

    // The writer only adds positive values and only deletes its own
    // objects, so a read can never see less than the base answer nor
    // more than the base plus everything ever inserted.
    let inserted_total = writer.inserted_value;
    let in_range = |query: usize, bits: u64| {
        let v = f64::from_bits(bits);
        let floor = f64::from_bits(base[query]);
        v.is_finite() && v >= floor - tolerance && v <= floor + inserted_total + tolerance
    };
    let reader_tracer = cfg.trace.then_some(&mut tracer);
    let replies = collect_replies(vec![reader], &mut out.tally, reader_tracer, in_range);
    for e in &writer.errors {
        out.tally.check(false, || e.clone());
    }
    out.tally.attempted += writer.inserts + writer.deletes + writer.commit_ns.len() as u64;
    let expected_objects = cfg.n as u64 + writer.inserts - writer.deletes;
    out.tally.check(writer.committed_objects == expected_objects, || {
        format!(
            "last commit reported {} objects, expected base + inserts - deletes = {expected_objects}",
            writer.committed_objects
        )
    });
    check_server_stats(&after, &mut out.tally, &mut out.metrics);

    if cfg.trace {
        let m = &mut out.metrics;
        record_setup_spans(m, &tracer);
        record_sharing(m, &before, &after);
        let rates: Vec<f64> = writer
            .batch_ns
            .iter()
            .map(|&ns| BATCH_OPS as f64 * 1e9 / ns as f64)
            .collect();
        m.set("write_objs_s", median(&rates));
        let mut commits = writer.commit_ns.clone();
        m.set(
            "commit_p50_ms",
            percentile_of(&mut commits, 0.5) as f64 / 1e6,
        );
        m.set(
            "serve.commit_p90_ms",
            percentile_of(&mut commits, 0.9) as f64 / 1e6,
        );
        m.set(
            "serve.commits_per_round",
            (after.commits - before.commits) as f64
                / (after.commit_rounds - before.commit_rounds).max(1) as f64,
        );
        record_p99(m, latencies(&replies));
        out.notes.push(format!(
            "reader beside the writer: {} box-sums, p50 {:.1} us; {} commits",
            replies.len(),
            p50_us(latencies(&replies)),
            writer.commit_ns.len(),
        ));
    } else {
        record_served_box_sum(&mut out.metrics, &replies, window);
        out.metrics.set("setup_s", setup_s);
        out.metrics.set("bytes_per_object", bytes_per_object);
    }

    // Shut down, drop the store, reopen it from its file, and hold the
    // recovered state to a scan of the final object set.
    let Served {
        server,
        store,
        inputs,
        path,
    } = served;
    server.shutdown();
    drop(store);
    let started = Instant::now();
    let store = SharedStore::open(&store_config(path)).expect("reopen the served store");
    let (mut engine, _) = open_corner_engine(&store).expect("reopen the engine by name");
    if cfg.trace {
        out.metrics
            .set("pagestore.reopen_s", started.elapsed().as_secs_f64());
    }
    out.tally
        .check(engine.len() as u64 == expected_objects, || {
            format!(
                "reopened engine holds {} objects, expected {expected_objects}",
                engine.len()
            )
        });
    out.tally.check(store.validate().is_ok(), || {
        "reopened store failed validate()".into()
    });
    let final_objects: Vec<(Rect, f64)> =
        inputs.objects.iter().chain(&writer.live).copied().collect();
    check_against_scan(
        "reopened box_sum",
        &inputs.queries,
        cfg.seed,
        scan_tolerance(total_abs_value(&final_objects)),
        &mut out.tally,
        |q| engine.query(q),
        |q| scan_box_sum(&final_objects, q),
    );

    if cfg.trace {
        let batch_p50_ms = percentile_of(&mut writer.batch_ns.clone(), 0.5) as f64 / 1e6;
        writer_replica(
            cfg,
            &store,
            &mut engine,
            &inputs.space,
            batch_p50_ms,
            &mut tracer,
            &mut out,
        );
        probes::run(cfg.share(0.02), cfg.seed, &cfg.scratch, &mut out.metrics);
        write_trace(cfg, &tracer);
    }
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    out
}

/// The writer's batches replayed in process on the reopened store, one
/// span per call into each layer: where a network commit's time goes.
fn writer_replica(
    cfg: &RunCfg,
    store: &SharedStore,
    engine: &mut CornerBoxSum<BATree<f64>>,
    space: &Rect,
    served_batch_p50_ms: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let mut fresh = FreshObjects::new(cfg.seed ^ 0x2E_911C);
    let mut live = VecDeque::new();
    let before = store.stats();
    for batch in 0..REPLICA_BATCHES {
        let request = batch as u32 + 1;
        let id = tracer.begin("replica.batch", request);
        let mut ok = true;
        for _ in 0..BATCH_INSERTS {
            let (rect, value) = fresh.next_object();
            ok &= tracer
                .span("batree.insert", request, |_| engine.insert(&rect, value))
                .is_ok();
            live.push_back((rect, value));
        }
        for _ in 0..BATCH_DELETES {
            let (rect, value) = live.pop_front().expect("56 inserts precede 8 deletes");
            ok &= tracer
                .span("batree.insert", request, |_| engine.delete(&rect, value))
                .is_ok();
        }
        ok &= tracer
            .span("core.persist", request, |_| {
                persist_corner_engine(engine, space)
            })
            .is_ok();
        ok &= tracer
            .span("pagestore.commit", request, |_| store.commit())
            .is_ok();
        tracer.end(id);
        out.tally
            .check(ok, || format!("replica batch {batch} hit an error"));
    }
    let delta = store.stats().since(&before);
    let commits = REPLICA_BATCHES as f64;
    let objects = (REPLICA_BATCHES * BATCH_OPS) as f64;
    let m = &mut out.metrics;
    // Every non-empty commit logs one begin and one commit record
    // around its page images.
    m.set(
        "pagestore.wal_pages_per_object",
        (delta.wal_appends as f64 - 2.0 * commits) / objects,
    );
    m.set(
        "pagestore.wal_syncs_per_commit",
        delta.wal_syncs as f64 / commits,
    );
    m.set(
        "pagestore.data_syncs_per_commit",
        delta.syncs as f64 / commits,
    );
    m.set(
        "pagestore.page_writes_per_commit",
        delta.writes as f64 / commits,
    );
    let span_p50 = |name: &str, from: usize| {
        let mut d: Vec<u64> = tracer.durations(name).split_off(from);
        percentile_of(&mut d, 0.5) as f64
    };
    // The set-up recorded one persist and one commit span of its own.
    let insert_us = span_p50("batree.insert", 0) / 1e3;
    let persist_us = span_p50("core.persist", 1) / 1e3;
    let commit_ms = span_p50("pagestore.commit", 1) / 1e6;
    m.set("batree.insert_us_per_object", insert_us);
    m.set("core.persist_us", persist_us);
    m.set("pagestore.commit_ms", commit_ms);
    // A served commit does the persist and the commit; the 64 writes
    // before it are requests of their own, so they show in the batch.
    let commit_sum_ms = persist_us / 1e3 + commit_ms;
    let batch_sum_ms = BATCH_OPS as f64 * insert_us / 1e3 + commit_sum_ms;
    let served_commit_ms = m.get("commit_p50_ms").unwrap_or(0.0);
    out.notes.push(format!(
        "budget: core.persist_us ({persist_us:.1}) + pagestore.commit_ms ({commit_ms:.2}) = {commit_sum_ms:.2} ms \
         against commit_p50_ms {served_commit_ms:.2} ms: residual {:+.1} %; with 64 x batree.insert_us_per_object \
         ({insert_us:.1}) = {batch_sum_ms:.2} ms against the served batch cycle p50 {served_batch_p50_ms:.2} ms: \
         residual {:+.1} %",
        (commit_sum_ms - served_commit_ms) / served_commit_ms * 100.0,
        (batch_sum_ms - served_batch_p50_ms) / served_batch_p50_ms * 100.0,
    ));
}
