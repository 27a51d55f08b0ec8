//! **Inner-loop microbenchmark** — pinned ns/entry for the three hottest
//! loops, struct-of-arrays slab path vs the retained tuple/sparse
//! reference:
//!
//! * `batree_leaf_scan` — the BA-tree leaf/border dominance scan:
//!   [`EntrySlab::sum_dominated_into`] vs the old array-of-structs
//!   `Vec<(Point, V)>` early-exit loop.
//! * `ecdf_suffix_scan` — the ECDF-B-tree leaf scan over a dimension
//!   suffix: [`EntrySlab::sum_dominated_from_into`] vs the tuple loop.
//! * `corner_horner` — corner-tuple evaluation: [`HornerEval`] over a
//!   dense coefficient grid vs the sparse per-term `Poly::eval`.
//!
//! Every loop first proves its contract on the benchmark workload:
//! answers bit-identical between the two paths (the Horner workload is
//! dyadic-rational, where both association orders are exact), and the
//! on-disk encoding byte-identical to the historical layout. Then both
//! paths are timed and ns/entry reported.
//!
//! The full run writes `BENCH_PR8.json` (committed), including a
//! smoke-sized baseline speedup per loop. `--smoke` reruns the
//! smoke-sized workload and fails if any loop's speedup regressed more
//! than 25% against the committed baseline; it writes nothing.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin innerloop -- \
//!     [--n 200000] [--smoke]`

use std::hint::black_box;
use std::time::Instant;

use boxagg_bench::{fmt_u64, print_table, Args};
use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::{HornerEval, Poly};
use boxagg_common::rng::StdRng;
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_core::functional::{corner_tuples, FunctionalObject};

struct LoopResult {
    name: &'static str,
    ns_slab: f64,
    ns_reference: f64,
    /// Same measurement on the smoke-sized workload: the regression
    /// baseline CI compares against (same shape ⇒ comparable).
    smoke_speedup: f64,
}

impl LoopResult {
    fn speedup(&self) -> f64 {
        self.ns_reference / self.ns_slab
    }
}

/// Times `f` over `iters` repetitions and returns ns per entry, where one
/// repetition processes `entries` entries.
fn time_ns_per_entry(entries: u64, iters: u64, mut f: impl FnMut() -> f64) -> f64 {
    let mut sink = 0.0f64;
    sink += f(); // warmup
    let t0 = Instant::now();
    for _ in 0..iters {
        sink += black_box(f());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(sink);
    ns / (iters * entries) as f64
}

/// The old array-of-structs leaf scan, retained verbatim as the timing
/// reference: per-entry early-exit dominance test over `(Point, V)`
/// tuples, dimensions `from..dim`.
fn aos_scan(entries: &[(Point, f64)], from: usize, q: &Point) -> f64 {
    let dim = q.dim();
    let mut acc = 0.0;
    for (p, v) in entries {
        if (from..dim).all(|i| p.get(i) <= q.get(i)) {
            acc += v;
        }
    }
    acc
}

/// Builds one dominance-scan workload: `n` entries in `dim` dimensions
/// plus `queries` probe points with per-dimension pass rates around 50%
/// (maximally branch-hostile for the reference loop).
fn scan_workload(
    dim: usize,
    n: usize,
    queries: usize,
    seed: u64,
) -> (EntrySlab<f64>, Vec<(Point, f64)>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut slab = EntrySlab::with_capacity(dim, n);
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        let p = Point::from_fn(dim, |_| rng.gen::<f64>());
        let v = (rng.gen_range(0..16) as f64) - 7.5;
        slab.push(&p, v);
        tuples.push((p, v));
    }
    let probes = (0..queries)
        .map(|_| Point::from_fn(dim, |_| 0.3 + 0.4 * rng.gen::<f64>()))
        .collect();
    (slab, tuples, probes)
}

/// Proves the slab contract on this workload: scan answers bit-identical
/// to the tuple reference (chunked scan and retained scalar scan both), and
/// the encoded bytes identical to the historical interleaved layout.
fn check_scan_identities(
    name: &str,
    slab: &EntrySlab<f64>,
    tuples: &[(Point, f64)],
    from: usize,
    probes: &[Point],
) {
    for q in probes {
        let want = aos_scan(tuples, from, q).to_bits();
        let mut got = 0.0f64;
        slab.sum_dominated_from_into(from, q, &mut got);
        assert_eq!(got.to_bits(), want, "{name}: slab answer differs at {q:?}");
        let mut refv = 0.0f64;
        slab.sum_dominated_from_into_reference(from, q, &mut refv);
        assert_eq!(
            refv.to_bits(),
            want,
            "{name}: reference-scan answer differs"
        );
    }
    let mut slab_bytes = ByteWriter::new();
    slab.encode_entries(&mut slab_bytes);
    let mut tuple_bytes = ByteWriter::new();
    for (p, v) in tuples {
        p.encode(&mut tuple_bytes);
        AggValue::encode(v, &mut tuple_bytes);
    }
    assert_eq!(
        slab_bytes.as_slice(),
        tuple_bytes.as_slice(),
        "{name}: slab codec must be byte-identical to the tuple layout"
    );
}

/// Measures one dominance-scan loop at the given workload size and
/// returns (ns_slab, ns_reference).
fn measure_scan(
    dim: usize,
    from: usize,
    n: usize,
    queries: usize,
    iters: u64,
    seed: u64,
) -> (f64, f64) {
    let (slab, tuples, probes) = scan_workload(dim, n, queries, seed);
    check_scan_identities("scan", &slab, &tuples, from, &probes);
    let entries = (n * probes.len()) as u64;
    let ns_slab = time_ns_per_entry(entries, iters, || {
        let mut acc = 0.0f64;
        for q in &probes {
            slab.sum_dominated_from_into(from, black_box(q), &mut acc);
        }
        acc
    });
    let ns_reference = time_ns_per_entry(entries, iters, || {
        let mut acc = 0.0f64;
        for q in &probes {
            acc += aos_scan(&tuples, from, black_box(q));
        }
        acc
    });
    (ns_slab, ns_reference)
}

/// Builds aggregated 2-d corner tuples on a **dyadic-rational** workload:
/// integer object boxes in `[0, 4]²`, value functions with exponents in
/// `{0, 1, 3}` and half-integer coefficients, probed at integer points.
/// Every intermediate in both evaluation orders is an exact dyadic
/// rational well inside 2⁵³, so Horner and the sparse sum agree bit for
/// bit.
fn horner_workload(objects: usize, probes: usize, seed: u64) -> Vec<(Poly, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut corners: Vec<(Point, Poly)> = Vec::new();
    for _ in 0..objects {
        let lx = rng.gen_range(0..4) as f64;
        let ly = rng.gen_range(0..4) as f64;
        let hx = (lx + 1.0 + rng.gen_range(0..2) as f64).min(4.0);
        let hy = (ly + 1.0 + rng.gen_range(0..2) as f64).min(4.0);
        let rect = Rect::from_bounds(&[(lx, hx), (ly, hy)]);
        let half = |r: &mut StdRng| (r.gen_range(0..9) as f64 - 4.0) / 2.0;
        let mut f = Poly::constant(half(&mut rng));
        f.add_assign(&Poly::monomial(half(&mut rng), &[1, 0]));
        f.add_assign(&Poly::monomial(half(&mut rng), &[0, 1]));
        f.add_assign(&Poly::monomial(half(&mut rng), &[3, 3]));
        let obj = FunctionalObject::new(rect, f).expect("valid object");
        corners.extend(corner_tuples(&obj));
    }
    (0..probes)
        .map(|_| {
            let q = Point::new(&[rng.gen_range(1..5) as f64, rng.gen_range(1..5) as f64]);
            let mut tuple = Poly::new();
            for (c, t) in &corners {
                if c.dominated_by(&q) {
                    tuple.add_assign(t);
                }
            }
            (tuple, q)
        })
        .collect()
}

/// Measures corner-tuple evaluation and returns (ns_slab, ns_reference),
/// "entry" = one polynomial term.
fn measure_horner(objects: usize, probes: usize, iters: u64, seed: u64) -> (f64, f64) {
    let work = horner_workload(objects, probes, seed);
    let mut horner = HornerEval::new();
    // Identity on the dyadic workload, plus on-disk codec round-trip:
    // the polynomial value layout is untouched by this PR.
    for (tuple, q) in &work {
        let want = tuple.eval(q);
        assert_eq!(
            horner.eval(tuple, q).to_bits(),
            want.to_bits(),
            "horner must be exact on the dyadic workload"
        );
        let mut w = ByteWriter::new();
        AggValue::encode(tuple, &mut w);
        let bytes = w.into_vec();
        let back: Poly = AggValue::decode(&mut ByteReader::new(&bytes)).expect("decode");
        assert_eq!(&back, tuple, "poly codec round-trip");
    }
    let entries: u64 = work.iter().map(|(t, _)| t.terms().len() as u64).sum();
    let entries = entries.max(1);
    let ns_slab = time_ns_per_entry(entries, iters, || {
        let mut acc = 0.0f64;
        for (tuple, q) in &work {
            acc += horner.eval(black_box(tuple), q);
        }
        acc
    });
    let ns_reference = time_ns_per_entry(entries, iters, || {
        let mut acc = 0.0f64;
        for (tuple, q) in &work {
            acc += black_box(tuple).eval(q);
        }
        acc
    });
    (ns_slab, ns_reference)
}

/// Smoke-sized workload parameters shared by the full run (to record the
/// baseline) and `--smoke` (to compare against it).
const SMOKE_SCAN_N: usize = 20_000;
const SMOKE_QUERIES: usize = 16;
const SMOKE_ITERS: u64 = 8;
const SMOKE_OBJECTS: usize = 24;
const SMOKE_PROBES: usize = 48;

/// Best-of-3 smoke speedup for one loop (timing in CI is noisy; the
/// regression gate wants the capability, not the median).
fn smoke_speedup(measure: impl Fn() -> (f64, f64)) -> f64 {
    (0..3)
        .map(|_| {
            let (ns_slab, ns_reference) = measure();
            ns_reference / ns_slab
        })
        .fold(0.0f64, f64::max)
}

fn smoke_measures(seed: u64) -> [(&'static str, f64); 3] {
    [
        (
            "batree_leaf_scan",
            smoke_speedup(|| measure_scan(2, 0, SMOKE_SCAN_N, SMOKE_QUERIES, SMOKE_ITERS, seed)),
        ),
        (
            "ecdf_suffix_scan",
            smoke_speedup(|| {
                measure_scan(3, 1, SMOKE_SCAN_N, SMOKE_QUERIES, SMOKE_ITERS, seed ^ 0x11)
            }),
        ),
        (
            "corner_horner",
            smoke_speedup(|| measure_horner(SMOKE_OBJECTS, SMOKE_PROBES, SMOKE_ITERS, seed ^ 0x22)),
        ),
    ]
}

/// Extracts the recorded `smoke_speedup` for `name` from the committed
/// JSON (hand-rolled: the workspace has no JSON dependency).
fn recorded_smoke_speedup(json: &str, name: &str) -> Option<f64> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let key = "\"smoke_speedup\": ";
    let s = rest.find(key)? + key.len();
    let tail = &rest[s..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let args = Args::parse_with(200_000, 64);

    if args.smoke {
        let json = std::fs::read_to_string("BENCH_PR8.json")
            .expect("BENCH_PR8.json must be committed at the workspace root");
        let mut failed = false;
        for (name, got) in smoke_measures(args.seed) {
            let want = recorded_smoke_speedup(&json, name)
                // lint: allow(panic) -- a baseline entry missing from the committed JSON makes the gate unrunnable
                .unwrap_or_else(|| panic!("no smoke_speedup for {name} in BENCH_PR8.json"));
            let floor = want / 1.25;
            let ok = got >= floor;
            println!(
                "{name}: speedup {got:.2} vs recorded {want:.2} (floor {floor:.2}) {}",
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        assert!(
            !failed,
            "inner-loop speedup regressed >25% vs BENCH_PR8.json"
        );
        println!(
            "\nsmoke checks passed: bit-identical answers, byte-identical codec, no regression"
        );
        return;
    }

    let n = args.n;
    let queries = 32usize;
    let iters = 20u64;
    println!(
        "scan entries = {}, probes = {queries} x{iters}, seed = {}",
        fmt_u64(n as u64),
        args.seed
    );

    let full: Vec<(&'static str, (f64, f64))> = vec![
        (
            "batree_leaf_scan",
            measure_scan(2, 0, n, queries, iters, args.seed),
        ),
        (
            "ecdf_suffix_scan",
            measure_scan(3, 1, n, queries, iters, args.seed ^ 0x11),
        ),
        (
            "corner_horner",
            measure_horner(96, 256, 200, args.seed ^ 0x22),
        ),
    ];
    let smoke = smoke_measures(args.seed);
    let results: Vec<LoopResult> = full
        .into_iter()
        .zip(smoke)
        .map(|((name, (ns_slab, ns_reference)), (sname, sspeed))| {
            assert_eq!(name, sname);
            LoopResult {
                name,
                ns_slab,
                ns_reference,
                smoke_speedup: sspeed,
            }
        })
        .collect();

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.3}", r.ns_slab),
                format!("{:.3}", r.ns_reference),
                format!("{:.2}x", r.speedup()),
                format!("{:.2}x", r.smoke_speedup),
            ]
        })
        .collect();
    print_table(
        "Inner-loop ns/entry: slab/Horner vs retained tuple/sparse reference",
        &["loop", "ns slab", "ns ref", "speedup", "smoke"],
        &rows,
    );

    let loops_json = results
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"ns_per_entry_slab\": {:.4}, ",
                    "\"ns_per_entry_reference\": {:.4}, \"speedup\": {:.3}, ",
                    "\"smoke_speedup\": {:.3}, ",
                    "\"answers_bit_identical\": true, \"bytes_identical\": true}}"
                ),
                r.name,
                r.ns_slab,
                r.ns_reference,
                r.speedup(),
                r.smoke_speedup,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"innerloop\",\n",
            "  \"config\": {{\"n\": {}, \"queries\": {}, \"iters\": {}, \"seed\": {}}},\n",
            "  \"loops\": [\n{}\n  ]\n",
            "}}\n"
        ),
        n, queries, iters, args.seed, loops_json,
    );
    std::fs::write("BENCH_PR8.json", json).expect("write BENCH_PR8.json");
    println!("\nwrote BENCH_PR8.json");
}
