//! Box-sums against an exact oracle, within a derived error bound.
//!
//! Every value is in `[1, 2^11)`, so `v · 2^52` is an integer and an
//! `i128` sum of them is exact: the oracle scans every object and adds
//! the fixed-point values of those that meet the query box. The engine
//! answers in `f64`, in whatever order its trees add.
//!
//! The bound: with only inserts, the corner engine's dominance-sum for
//! corner `s` adds positive values only, each object's once, so however
//! the tree groups the adds its error is at most `γ(m) · D_s`, where
//! `D_s` is the exact dominance-sum, `m` the number of objects and
//! `γ(k) = k·u / (1 − k·u)` with `u = 2^-53`. Combining the `2^d` terms
//! adds `2^d − 1` more roundings of partial sums no larger than
//! `Σ_s D_s`. So every answer is within `γ(m + 2^d) · Σ_s D_s` of the
//! exact box-sum, whatever order the adds take. A change that reorders
//! adds must stay inside it on every query, in two dimensions and in
//! three (where the border trees are themselves BA-trees with borders).

use boxagg::common::Rect;
use boxagg::core::engine::SimpleBoxSum;
use boxagg::core::reduction::corner_query_point;
use boxagg::pagestore::StoreConfig;
use boxagg::workload::{gen_objects, gen_queries, DatasetConfig};
use boxagg_common::rng::StdRng;

/// `2^52`: the fixed-point scale at which every value is an integer.
const SCALE: f64 = 4_503_599_627_370_496.0;

fn fixed(v: f64) -> i128 {
    let x = v * SCALE;
    assert_eq!(x.fract(), 0.0, "{v} is not a multiple of 2^-52");
    x as i128
}

fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::EPSILON / 2.0;
    ku / (1.0 - ku)
}

#[test]
fn box_sums_stay_within_the_derived_bound_of_an_exact_scan() {
    // In 3-d, larger boxes, so that the box-sums add as many objects.
    for (dim, mean_side) in [(2, 0.01), (3, 0.05)] {
        check(dim, mean_side);
    }
}

fn check(dim: usize, mean_side: f64) {
    const BULK: usize = 3_000;
    const INSERTS: usize = 600;
    let cfg = DatasetConfig {
        n: BULK + INSERTS,
        dim,
        mean_side,
        ..DatasetConfig::paper(0, 0xE8AC7)
    };
    let mut rng = StdRng::seed_from_u64(0xE8AC7);
    let objects: Vec<(Rect, f64)> = gen_objects(&cfg)
        .into_iter()
        .map(|(r, _)| (r, 1.0 + rng.gen::<f64>() * 2047.0))
        .collect();
    let queries: Vec<Rect> = [1e-4, 1e-3, 1e-2, 1e-1]
        .iter()
        .enumerate()
        .flat_map(|(i, qbs)| gen_queries(dim, 100, *qbs, 0xE8AC7 + i as u64))
        .collect();

    // 1 KB pages: the borders are trees of several leaves, and the
    // inserts after the load split leaves and rebuild borders.
    let config = StoreConfig::small(1024, 256);
    let mut engine = SimpleBoxSum::batree_bulk(cfg.space(), config, &objects[..BULK]).unwrap();
    for (rect, value) in &objects[BULK..] {
        engine.insert(rect, *value).unwrap();
    }

    let values: Vec<i128> = objects.iter().map(|(_, v)| fixed(*v)).collect();
    // One more `u` for rounding the exact answer to `f64` to compare.
    let bound = gamma(objects.len() + (1 << dim) + 1);
    let (mut worst, mut closest) = (0.0f64, 0.0f64);
    for q in &queries {
        let exact: i128 = objects
            .iter()
            .zip(&values)
            .filter(|((r, _), _)| r.intersects(q))
            .map(|(_, v)| v)
            .sum();
        // The corner terms, exactly: their alternating sum is the
        // box-sum, and their sum scales the bound.
        let mut alternating = 0i128;
        let mut terms = 0i128;
        for mask in 0..1 << dim {
            let y = corner_query_point(q, dim, mask);
            let d: i128 = objects
                .iter()
                .zip(&values)
                .filter(|((r, _), _)| r.corner(mask).dominated_by(&y))
                .map(|(_, v)| v)
                .sum();
            alternating += if mask.count_ones() % 2 == 0 { d } else { -d };
            terms += d;
        }
        assert_eq!(alternating, exact, "the corner identity at {q:?}");

        let got = engine.query(q).unwrap();
        let err = (got - exact as f64 / SCALE).abs();
        let allowed = bound * (terms as f64 / SCALE);
        assert!(
            err <= allowed,
            "{q:?}: answer {got}, exact {}, error {err:e} over the bound {allowed:e}",
            exact as f64 / SCALE
        );
        if exact != 0 {
            worst = worst.max(err / (exact as f64 / SCALE));
        }
        closest = closest.max(err / allowed);
    }
    println!(
        "{dim}-d over {} queries: max relative error against exact {worst:.3e}, \
         at most {closest:.1e} of the bound",
        queries.len()
    );
}
