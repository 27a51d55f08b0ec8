//! The two in-process workloads: the same BA-tree engine and the same
//! queries, once with everything resident (`warm-inproc`, CPU-bound
//! traversal) and once with a buffer a tenth of the index
//! (`cold-inproc`, buffer misses and node decodes).

use std::path::PathBuf;
use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_common::error::Result;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::traits::DominanceSumIndex;
use boxagg_core::{
    corner_query_point, open_corner_engine, persist_corner_engine, CornerBoxSum, FunctionalBoxSum,
    SimpleBoxSum,
};
use boxagg_ecdf::BorderPolicy;
use boxagg_pagestore::{Backing, IoStats, SharedStore, StoreConfig};

use crate::harness::{
    check_against_scan, closed_loop, peak_rss_mib, record_box_sum, record_p99, record_setup_spans,
    repeated_setup, write_trace, Limit, Outcome, RunCfg, Tally, RESIDENT_PAGES,
};
use crate::inputs::{
    functional_objects, generate, scan_box_sum, scan_functional_sum, scan_tolerance,
    total_abs_mass, total_abs_value, Inputs,
};
use crate::metrics::Measured;
use crate::probes;
use crate::stats::{median, median_rate, p50};
use crate::trace::Tracer;

/// Queries that warm the cold store: enough to fill its buffer.
const COLD_WARM_UP: usize = 1_000;

/// Alternations of an untraced and a traced pass in a traced run.
const PROFILE_ROUNDS: usize = 5;

/// 8 KB pages, checksums on, one thread; `pages` buffer frames and as
/// many decoded nodes.
fn store_config(pages: usize, backing: Backing) -> StoreConfig {
    StoreConfig {
        buffer_pages: pages,
        node_cache_pages: pages,
        backing,
        ..StoreConfig::default()
    }
}

/// A built engine with the inputs it was built from and the first
/// answer to every query seen so far.
struct Built {
    inputs: Inputs,
    engine: CornerBoxSum<BATree<f64>>,
    reference: Vec<Option<u64>>,
}

impl Built {
    fn store(&self) -> SharedStore {
        self.engine.indexes()[0].store().clone()
    }
}

fn warm_up(
    engine: &mut CornerBoxSum<BATree<f64>>,
    queries: &[Rect],
    count: usize,
) -> Vec<Option<u64>> {
    let mut reference = vec![None; queries.len()];
    for (q, slot) in queries.iter().zip(&mut reference).take(count) {
        *slot = Some(engine.query(q).expect("warm-up query").to_bits());
    }
    reference
}

/// Generates, bulk-loads into memory, and asks every query once: the
/// pass that fills the buffer pool and the node cache also gives the
/// answers later passes are held to.
fn build_warm(cfg: &RunCfg, tracer: &mut Tracer) -> Built {
    let inputs = tracer.span("workload.gen", 0, |_| {
        generate(cfg.n, cfg.per_qbs, cfg.seed)
    });
    let mut engine = tracer.span("batree.bulk_load", 0, |_| {
        SimpleBoxSum::batree_bulk(
            inputs.space,
            store_config(RESIDENT_PAGES, Backing::Memory),
            &inputs.objects,
        )
        .expect("bulk-load the BA-tree engine")
    });
    let reference = tracer.span("harness.warm_up", 0, |_| {
        warm_up(&mut engine, &inputs.queries, inputs.queries.len())
    });
    Built {
        inputs,
        engine,
        reference,
    }
}

/// Generates, bulk-loads into a file, then reopens the file with the
/// small buffer and warms it with the head of `Q`.
fn build_cold(cfg: &RunCfg, tracer: &mut Tracer) -> Built {
    let path: PathBuf = cfg.scratch.join("cold.pages");
    if path.exists() {
        std::fs::remove_file(&path).expect("remove the previous set-up's store file");
    }
    let inputs = tracer.span("workload.gen", 0, |_| {
        generate(cfg.n, cfg.per_qbs, cfg.seed)
    });
    tracer.span("batree.bulk_load", 0, |_| {
        let engine = SimpleBoxSum::batree_bulk(
            inputs.space,
            store_config(RESIDENT_PAGES, Backing::File(path.clone())),
            &inputs.objects,
        )
        .expect("bulk-load the BA-tree engine into a file");
        persist_corner_engine(&engine, &inputs.space).expect("publish the engine's roots");
        engine.indexes()[0]
            .store()
            .flush()
            .expect("flush the bulk-loaded file");
    });
    let store = SharedStore::open(&store_config(cfg.cold_pages(), Backing::File(path)))
        .expect("reopen the file with the small buffer");
    let (mut engine, _) = open_corner_engine(&store).expect("reopen the engine by name");
    let reference = tracer.span("harness.warm_up", 0, |_| {
        warm_up(&mut engine, &inputs.queries, COLD_WARM_UP)
    });
    Built {
        inputs,
        engine,
        reference,
    }
}

pub fn run_warm(cfg: &RunCfg) -> Outcome {
    run(cfg, build_warm, warm_layers)
}

pub fn run_cold(cfg: &RunCfg) -> Outcome {
    run(cfg, build_cold, |_, _, _, _| ())
}

fn run(
    cfg: &RunCfg,
    build: fn(&RunCfg, &mut Tracer) -> Built,
    more_layers: fn(&RunCfg, &Built, &mut Tracer, &mut Outcome),
) -> Outcome {
    let (mut built, setup_s, mut tracer) = repeated_setup(cfg, |tracer| build(cfg, tracer));
    let mut out = Outcome::default();
    if cfg.trace {
        let untraced_p50_us = ba_layers(cfg, &mut built, &mut tracer, &mut out);
        more_layers(cfg, &built, &mut tracer, &mut out);
        probes::run(cfg.share(0.02), cfg.seed, &cfg.scratch, &mut out.metrics);
        budget_note(&mut out, untraced_p50_us);
        write_trace(cfg, &tracer);
    } else {
        let Built {
            inputs,
            engine,
            reference,
        } = &mut built;
        let stats = closed_loop(
            &inputs.queries,
            reference,
            Limit::Time(cfg.share(1.0)),
            &mut out.tally,
            |q| engine.query(q),
        );
        record_box_sum(&mut out.metrics, median_rate(&stats.chunks), stats.lat_ns);
        out.metrics.set("setup_s", setup_s);
        out.metrics.set(
            "bytes_per_object",
            built.store().size_bytes() as f64 / cfg.n as f64,
        );
    }
    check_box_sums(cfg, &mut built, &mut out.tally);
    out.metrics.set("peak_rss_mib", peak_rss_mib());
    out
}

/// The seeded sample of `Q` against a scan of the objects.
fn check_box_sums(cfg: &RunCfg, built: &mut Built, tally: &mut Tally) {
    let Built { inputs, engine, .. } = built;
    check_against_scan(
        "box_sum",
        &inputs.queries,
        cfg.seed,
        scan_tolerance(total_abs_value(&inputs.objects)),
        tally,
        |q| engine.query(q),
        |q| scan_box_sum(&inputs.objects, q),
    );
}

/// Counter ratios of a read-only pass of `queries` queries.
fn record_read_counters(metrics: &mut Measured, delta: &IoStats, queries: usize) {
    let node_accesses = delta.decode_hits + delta.decode_misses;
    let page_accesses = delta.hits + delta.reads;
    metrics.set(
        "pagestore.node_accesses_per_query",
        node_accesses as f64 / queries as f64,
    );
    metrics.set("ios_per_query", delta.total() as f64 / queries as f64);
    metrics.set(
        "pagestore.buffer_hit_rate",
        delta.hits as f64 / page_accesses.max(1) as f64,
    );
    metrics.set(
        "pagestore.decode_hit_rate",
        delta.decode_hits as f64 / node_accesses.max(1) as f64,
    );
}

/// The corner reduction done by the harness, one span per dominance
/// sum: same corner points and the same mask-ascending `+=`/`-=` as
/// `CornerBoxSum::query`, so the result is bit-identical to it.
fn traced_corner_sum<I: DominanceSumIndex<f64>>(
    engine: &mut CornerBoxSum<I>,
    q: &Rect,
    (outer, inner): (&'static str, &'static str),
    request: u32,
    tracer: &mut Tracer,
) -> Result<f64> {
    let dim = engine.dim();
    let id = tracer.begin(outer, request);
    let mut acc = 0.0;
    let mut failed = None;
    for mask in 0..(1usize << dim) {
        let y = corner_query_point(q, dim, mask);
        let child = tracer.begin(inner, request);
        let term = engine.indexes_mut()[mask].dominance_sum(&y);
        tracer.end(child);
        match term {
            Ok(t) if mask.count_ones() & 1 == 0 => acc += t,
            Ok(t) => acc -= t,
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    tracer.end(id);
    failed.map_or(Ok(acc), Err)
}

/// What alternating untraced and traced passes over the same queries
/// measured.
struct Profile {
    untraced_lat_ns: Vec<u64>,
    untraced_pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
}

impl Profile {
    /// Traced against untraced elapsed time on the same operations.
    fn overhead_pct(&self) -> f64 {
        let plain = median(&self.untraced_pass_s);
        (median(&self.traced_pass_s) - plain) / plain * 100.0
    }
}

fn profile_corner<I: DominanceSumIndex<f64> + Send + 'static>(
    engine: &mut CornerBoxSum<I>,
    queries: &[Rect],
    reference: &mut [Option<u64>],
    rounds: usize,
    names: (&'static str, &'static str),
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Profile {
    let mut profile = Profile {
        untraced_lat_ns: Vec::new(),
        untraced_pass_s: Vec::new(),
        traced_pass_s: Vec::new(),
    };
    for round in 0..rounds {
        let started = Instant::now();
        let plain = closed_loop(queries, reference, Limit::Passes(1), tally, |q| {
            engine.query(q)
        });
        profile
            .untraced_pass_s
            .push(started.elapsed().as_secs_f64());
        profile.untraced_lat_ns.extend(plain.lat_ns);

        let started = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            let request = (round * queries.len() + i + 1) as u32;
            match traced_corner_sum(engine, q, names, request, tracer) {
                Ok(v) => tally.check(Some(v.to_bits()) == reference[i], || {
                    format!(
                        "{} {i}: harness reduction differs in bits from query()",
                        names.0
                    )
                }),
                Err(e) => tally.check(false, || format!("{} {i}: {e}", names.0)),
            }
        }
        profile.traced_pass_s.push(started.elapsed().as_secs_f64());
    }
    profile
}

/// Per-layer numbers both in-process workloads produce: set-up spans,
/// counters from one exact pass over `Q`, and the traced reduction.
/// Returns the untraced box-sum median of this run, in µs.
fn ba_layers(cfg: &RunCfg, built: &mut Built, tracer: &mut Tracer, out: &mut Outcome) -> f64 {
    let store = built.store();
    let Built {
        inputs,
        engine,
        reference,
    } = built;
    let m = &mut out.metrics;
    record_setup_spans(m, tracer);

    let before = store.stats();
    closed_loop(
        &inputs.queries,
        reference,
        Limit::Passes(1),
        &mut out.tally,
        |q| engine.query(q),
    );
    record_read_counters(m, &store.stats().since(&before), inputs.queries.len());

    let subset = cfg.traced_queries();
    let profile = profile_corner(
        engine,
        &inputs.queries[..subset],
        &mut reference[..subset],
        PROFILE_ROUNDS,
        ("core.box_sum", "batree.dominance_sum"),
        tracer,
        &mut out.tally,
    );
    m.set(
        "batree.dominance_sum_us",
        p50(tracer.durations("batree.dominance_sum")) / 1e3,
    );
    m.set(
        "core.reduction_self_ns",
        p50(tracer.self_times("core.box_sum")),
    );
    m.set("harness.trace_overhead_pct", profile.overhead_pct());
    record_p99(m, profile.untraced_lat_ns.clone());
    p50(profile.untraced_lat_ns) / 1e3
}

/// ECDF-Bu box-sums and functional box-sums: the paper's other two
/// contributions, measured only where everything is resident.
fn warm_layers(cfg: &RunCfg, built: &Built, tracer: &mut Tracer, out: &mut Outcome) {
    let inputs = &built.inputs;
    let queries = &inputs.queries[..cfg.traced_queries()];
    let resident = store_config(RESIDENT_PAGES, Backing::Memory);

    // ECDF-Bu.
    let mut ecdf = tracer.span("ecdf.bulk_load", 0, |_| {
        SimpleBoxSum::ecdf_bulk(
            2,
            BorderPolicy::UpdateOptimized,
            resident.clone(),
            &inputs.objects,
        )
        .expect("bulk-load the ECDF-Bu engine")
    });
    out.metrics
        .set("ecdf.bulk_load_s", tracer.last_s("ecdf.bulk_load"));
    let mut reference = vec![None; queries.len()];
    closed_loop(
        queries,
        &mut reference,
        Limit::Passes(1),
        &mut out.tally,
        |q| ecdf.query(q),
    );
    let timed = closed_loop(
        queries,
        &mut reference,
        Limit::Time(cfg.share(0.2)),
        &mut out.tally,
        |q| ecdf.query(q),
    );
    out.metrics.set("ecdf_sum_qps", median_rate(&timed.chunks));
    let store = ecdf.indexes()[0].store().clone();
    let before = store.stats();
    profile_corner(
        &mut ecdf,
        queries,
        &mut reference,
        1,
        ("core.ecdf_box_sum", "ecdf.dominance_sum"),
        tracer,
        &mut out.tally,
    );
    let delta = store.stats().since(&before);
    // One untraced and one traced pass went through the store.
    out.metrics.set(
        "ecdf.node_accesses_per_query",
        (delta.decode_hits + delta.decode_misses) as f64 / (2 * queries.len()) as f64,
    );
    out.metrics.set(
        "ecdf.dominance_sum_us",
        p50(tracer.durations("ecdf.dominance_sum")) / 1e3,
    );
    check_against_scan(
        "ecdf_sum",
        queries,
        cfg.seed,
        scan_tolerance(total_abs_value(&inputs.objects)),
        &mut out.tally,
        |q| ecdf.query(q),
        |q| scan_box_sum(&inputs.objects, q),
    );
    drop(ecdf);

    // Functional box-sum, degree 2.
    let objects = functional_objects(&inputs.objects, cfg.n_func, cfg.seed);
    let mut func = tracer.span("core.func_bulk_load", 0, |_| {
        FunctionalBoxSum::batree_bulk(inputs.space, resident, 2, &objects)
            .expect("bulk-load the functional engine")
    });
    let mut reference = vec![None; queries.len()];
    closed_loop(
        queries,
        &mut reference,
        Limit::Passes(1),
        &mut out.tally,
        |q| func.query(q),
    );
    let timed = closed_loop(
        queries,
        &mut reference,
        Limit::Time(cfg.share(0.2)),
        &mut out.tally,
        |q| func.query(q),
    );
    out.metrics.set("func_sum_qps", median_rate(&timed.chunks));
    for (i, q) in queries.iter().enumerate() {
        match traced_functional_sum(&mut func, q, i as u32 + 1, tracer) {
            Ok(v) => out.tally.check(Some(v.to_bits()) == reference[i], || {
                format!("func_sum {i}: harness reduction differs in bits from query()")
            }),
            Err(e) => out.tally.check(false, || format!("func_sum {i}: {e}")),
        }
    }
    out.metrics
        .set("core.oifbs_us", p50(tracer.durations("core.oifbs")) / 1e3);
    check_against_scan(
        "func_sum",
        queries,
        cfg.seed,
        scan_tolerance(total_abs_mass(&objects)),
        &mut out.tally,
        |q| func.query(q),
        |q| scan_functional_sum(&objects, q),
    );
}

/// The functional reduction done by the harness, one span per OIFBS:
/// the same corners and signs as `FunctionalBoxSum::query`.
fn traced_functional_sum(
    engine: &mut FunctionalBoxSum<BATree<boxagg_common::poly::Poly>>,
    q: &Rect,
    request: u32,
    tracer: &mut Tracer,
) -> Result<f64> {
    let dim = engine.dim();
    let id = tracer.begin("core.func_box_sum", request);
    let mut acc = 0.0;
    let mut failed = None;
    for mask in 0..(1usize << dim) {
        let corner = Point::from_fn(dim, |i| {
            if mask & (1 << i) != 0 {
                q.high().get(i)
            } else {
                q.low().get(i)
            }
        });
        let child = tracer.begin("core.oifbs", request);
        let term = engine.oifbs(&corner);
        tracer.end(child);
        let lows = dim as u32 - mask.count_ones();
        match term {
            Ok(t) if lows.is_multiple_of(2) => acc += t,
            Ok(t) => acc -= t,
            Err(e) => {
                failed = Some(e);
                break;
            }
        }
    }
    tracer.end(id);
    failed.map_or(Ok(acc), Err)
}

/// Interaction note 1: nothing waits in process, so the layers' shares
/// should add up to the caller's median.
fn budget_note(out: &mut Outcome, p50: f64) {
    let get = |name: &str| out.metrics.get(name).unwrap_or(0.0);
    let dominance = get("batree.dominance_sum_us");
    let reduction = get("core.reduction_self_ns") / 1e3;
    let sum = 4.0 * dominance + reduction;
    let pagestore =
        get("pagestore.node_accesses_per_query") * get("pagestore.read_node_hit_ns") / 1e3;
    out.notes.push(format!(
        "budget: 4 x batree.dominance_sum_us ({dominance:.3}) + core.reduction_self_ns ({reduction:.3} us) \
         = {sum:.3} us against box_sum_p50_us {p50:.3} us: residual {:+.1} %; \
         pagestore share node_accesses_per_query x read_node_hit_ns = {pagestore:.3} us ({:.1} % of p50)",
        (sum - p50) / p50 * 100.0,
        pagestore / p50 * 100.0,
    ));
}
