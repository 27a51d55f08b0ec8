//! Layout-equivalence model test: the struct-of-arrays slab scan and
//! Horner evaluation answer identically — bit for bit — to the scalar
//! loops they replaced, on what every engine actually stores and asks.
//!
//! The scalar loops are plain functions nothing in the product calls
//! ([`EntrySlab::sum_dominated_from_into_reference`], [`Poly::eval`]),
//! so the comparison needs no process-wide switch:
//!
//! * every dominance index of every `f64` engine (BAT corner, EO,
//!   ECDF-Bu, ECDF-Bq) is enumerated back out of its pages and scanned
//!   both ways at every corner point of every query, over every
//!   dimension suffix. The slab scan preserves the per-entry
//!   `add_assign` order, so bit-identity holds on arbitrary floats;
//! * the functional engine's `query` is held to the same reduction done
//!   here over `index().dominance_sum` + `Poly::eval`, with identical
//!   byte-level I/O. Horner associates differently from the sparse
//!   per-term sum, so this slice uses a dyadic-rational workload
//!   (integer boxes, exponents `{0, 1, 3}`, half-integer coefficients,
//!   integer query corners) where both orders are exact — and equal;
//! * the decoded-node cache changes neither an answer nor a byte-level
//!   I/O count: BAT, ECDF-Bu and ECDF-Bq built with `node_cache_pages`
//!   on and off answer the same warm queries `to_bits()`-equal with
//!   equal `(reads, writes, hits)`, and only the cached store records
//!   decode hits.

use boxagg_batree::BATree;
use boxagg_common::error::Result;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::Poly;
use boxagg_common::rng::StdRng;
use boxagg_common::slab::EntrySlab;
use boxagg_common::traits::DominanceSumIndex;
use boxagg_common::value::AggValue;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_core::functional::{FunctionalBoxSum, FunctionalObject};
use boxagg_core::reduction::{corner_query_point, EoBoxSum};
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::{SharedStore, StoreConfig};

fn config() -> StoreConfig {
    StoreConfig::small(512, 64)
}

fn rand_rect(rng: &mut StdRng, dim: usize, side: f64) -> Rect {
    let low = Point::from_fn(dim, |_| rng.gen::<f64>() * (1.0 - side));
    let high = Point::from_fn(dim, |i| low.get(i) + rng.gen::<f64>() * side + 1e-3);
    Rect::new(low, high)
}

fn simple_workload(seed: u64, n: usize, queries: usize) -> (Vec<(Rect, f64)>, Vec<Rect>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let objects = (0..n)
        .map(|i| (rand_rect(&mut rng, 2, 0.3), (i % 9) as f64 - 3.5))
        .collect();
    let qs = (0..queries).map(|_| rand_rect(&mut rng, 2, 0.5)).collect();
    (objects, qs)
}

/// Integer boxes in `[0, 4]²`, value functions with exponents `{0, 1, 3}`
/// and half-integer coefficients: every quantity both evaluation orders
/// produce is an exact dyadic rational far inside 2⁵³.
fn dyadic_workload(seed: u64, n: usize, queries: usize) -> (Vec<FunctionalObject>, Vec<Rect>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let lx = rng.gen_range(0..4) as f64;
        let ly = rng.gen_range(0..4) as f64;
        let hx = (lx + 1.0 + rng.gen_range(0..2) as f64).min(4.0);
        let hy = (ly + 1.0 + rng.gen_range(0..2) as f64).min(4.0);
        let half = |r: &mut StdRng| (r.gen_range(0..9) as f64 - 4.0) / 2.0;
        let mut f = Poly::constant(half(&mut rng));
        f.add_assign(&Poly::monomial(half(&mut rng), &[1, 0]));
        f.add_assign(&Poly::monomial(half(&mut rng), &[0, 1]));
        f.add_assign(&Poly::monomial(half(&mut rng), &[3, 3]));
        objects.push(FunctionalObject::new(Rect::from_bounds(&[(lx, hx), (ly, hy)]), f).unwrap());
    }
    let qs = (0..queries)
        .map(|_| {
            let lx = rng.gen_range(0..4) as f64;
            let ly = rng.gen_range(0..4) as f64;
            Rect::from_bounds(&[(lx, lx + 1.0), (ly, ly + 1.0)])
        })
        .collect();
    (objects, qs)
}

/// Both scans of `points` at every corner point of every query, over
/// every dimension suffix. Returns how many scans saw a nonzero sum.
fn assert_scans_agree(name: &str, points: Vec<(Point, f64)>, queries: &[Rect]) -> usize {
    let slab = EntrySlab::from_entries(2, points);
    let mut nonzero = 0;
    for q in queries {
        for mask in 0..4 {
            let y = corner_query_point(q, 2, mask);
            for from in 0..2 {
                let mut got = 0.0f64;
                slab.sum_dominated_from_into(from, &y, &mut got);
                let mut want = 0.0f64;
                slab.sum_dominated_from_into_reference(from, &y, &mut want);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{name}: slab and scalar scans differ at {y:?}, dims {from}.."
                );
                nonzero += usize::from(got != 0.0);
            }
        }
    }
    nonzero
}

/// The points each index stores, read back out of its pages.
type Stored = Vec<(Point, f64)>;

fn enumerate_all<I>(indexes: &[I], enumerate: fn(&I) -> Result<Stored>) -> Vec<Stored> {
    indexes.iter().map(|t| enumerate(t).unwrap()).collect()
}

#[test]
fn slab_scans_are_bit_identical_on_every_engines_points() {
    let (objects, queries) = simple_workload(20020601, 400, 60);
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);

    let mut bat = SimpleBoxSum::batree(space, config()).unwrap();
    let mut eo = EoBoxSum::batree(space, config()).unwrap();
    let mut ecdfu = SimpleBoxSum::ecdf(2, BorderPolicy::UpdateOptimized, config()).unwrap();
    let mut ecdfq = SimpleBoxSum::ecdf(2, BorderPolicy::QueryOptimized, config()).unwrap();
    for (r, v) in &objects {
        bat.insert(r, *v).unwrap();
        eo.insert(r, *v).unwrap();
        ecdfu.insert(r, *v).unwrap();
        ecdfq.insert(r, *v).unwrap();
    }
    let stored = [
        (
            "BAT corner",
            enumerate_all(bat.indexes(), BATree::enumerate),
        ),
        ("EO", enumerate_all(eo.indexes(), BATree::enumerate)),
        (
            "ECDFu",
            enumerate_all(ecdfu.indexes(), EcdfBTree::enumerate),
        ),
        (
            "ECDFq",
            enumerate_all(ecdfq.indexes(), EcdfBTree::enumerate),
        ),
    ];
    for (name, indexes) in stored {
        assert_eq!(indexes.len(), 4, "{name}: one index per corner mask");
        let mut nonzero = 0;
        for points in indexes {
            assert!(!points.is_empty(), "{name}: an index holds no points");
            nonzero += assert_scans_agree(name, points, &queries);
        }
        assert!(nonzero > 0, "{name}: degenerate workload, every scan was 0");
    }
}

/// The functional reduction (Fig. 4) over the engine's own index, each
/// aggregated tuple evaluated by the sparse per-term `Poly::eval`.
fn functional_reference<I: DominanceSumIndex<Poly>>(engine: &FunctionalBoxSum<I>, q: &Rect) -> f64 {
    let dim = engine.dim();
    let mut acc = 0.0;
    for mask in 0..(1usize << dim) {
        let corner = Point::from_fn(dim, |i| {
            if mask & (1 << i) != 0 {
                q.high().get(i)
            } else {
                q.low().get(i)
            }
        });
        let term = engine.index().dominance_sum(&corner).unwrap().eval(&corner);
        if (dim as u32 - mask.count_ones()).is_multiple_of(2) {
            acc += term;
        } else {
            acc -= term;
        }
    }
    acc
}

#[test]
fn horner_engine_is_bit_identical_to_sparse_evaluation() {
    let (objects, queries) = dyadic_workload(20020602, 48, 40);
    let space = Rect::from_bounds(&[(0.0, 4.0), (0.0, 4.0)]);
    // Degree-3 corner tuples need ~420 B each: use a page large enough
    // to hold a couple per node.
    let mut e = FunctionalBoxSum::batree(space, StoreConfig::small(4096, 64), 3).unwrap();
    let store = e.index().store().clone();
    for o in &objects {
        e.insert(o).unwrap();
    }
    let pass = |f: &dyn Fn(&Rect) -> f64| {
        let before = store.stats();
        let answers: Vec<u64> = queries.iter().map(|q| f(q).to_bits()).collect();
        (answers, store.stats().since(&before))
    };
    // One pass to settle the buffer, then one of each kind.
    pass(&|q| e.query(q).unwrap());
    let (horner, horner_io) = pass(&|q| e.query(q).unwrap());
    let (sparse, sparse_io) = pass(&|q| functional_reference(&e, q));
    assert_eq!(
        horner, sparse,
        "functional: answers must be bit-identical between Horner and sparse evaluation"
    );
    assert_eq!(
        horner_io, sparse_io,
        "functional: byte-level I/O traces must be identical"
    );
    assert!(
        horner.iter().any(|&b| b != 0),
        "functional: degenerate workload, every answer was +0.0"
    );
    assert!(
        horner_io.total() + horner_io.hits > 0,
        "functional: no page traffic recorded"
    );
}

/// One scheme of the node-cache identity check: the same bulk-loaded
/// engine over a store with the decoded-node cache on and one with it
/// off, driven through the same warm query sequence.
fn assert_node_cache_is_invisible<I: DominanceSumIndex<f64>>(
    name: &str,
    build: impl Fn(StoreConfig) -> SimpleBoxSum<I>,
    store_of: fn(&I) -> &SharedStore,
    queries: &[Rect],
) {
    // The whole index stays resident: decode is the only work a warm
    // query can save.
    let cfg = StoreConfig::small(512, 4096);
    let on = build(cfg.clone());
    let off = build(cfg.with_node_cache(0));
    let store_on = store_of(&on.indexes()[0]);
    let store_off = store_of(&off.indexes()[0]);
    let pass = |engine: &SimpleBoxSum<I>| -> Vec<u64> {
        let probe = &engine.indexes()[0];
        queries
            .iter()
            .flat_map(|q| {
                let corner = Point::from_fn(2, |i| q.high().get(i));
                [
                    engine.query(q).unwrap().to_bits(),
                    probe.dominance_sum(&corner).unwrap().to_bits(),
                ]
            })
            .collect()
    };
    // Warm both byte buffers and the decoded cache, then count.
    let want = pass(&on);
    assert_eq!(pass(&off), want, "{name}: cache-off answers differ");
    store_on.reset_stats();
    store_off.reset_stats();
    assert_eq!(pass(&on), want, "{name}: warm answers drifted");
    assert_eq!(pass(&off), want, "{name}: warm cache-off answers drifted");
    let (io_on, io_off) = (store_on.stats(), store_off.stats());
    assert_eq!(
        (io_on.reads, io_on.writes, io_on.hits),
        (io_off.reads, io_off.writes, io_off.hits),
        "{name}: byte-level I/O must not depend on the decoded-node cache"
    );
    assert!(io_on.hits > 0, "{name}: the warm pass touched no page");
    assert!(
        io_on.decode_hits > 0,
        "{name}: warm queries never hit the cache"
    );
    assert_eq!(
        io_off.decode_hits, 0,
        "{name}: a disabled cache recorded a hit"
    );
}

#[test]
fn node_cache_changes_no_answer_and_no_byte_level_io() {
    let (objects, queries) = simple_workload(0x407, 2_000, 25);
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    assert_node_cache_is_invisible(
        "BAT",
        |cfg| SimpleBoxSum::batree_bulk(space, cfg, &objects).unwrap(),
        BATree::store,
        &queries,
    );
    for (name, policy) in [
        ("ECDFu", BorderPolicy::UpdateOptimized),
        ("ECDFq", BorderPolicy::QueryOptimized),
    ] {
        assert_node_cache_is_invisible(
            name,
            |cfg| SimpleBoxSum::ecdf_bulk(2, policy, cfg, &objects).unwrap(),
            EcdfBTree::store,
            &queries,
        );
    }
}
