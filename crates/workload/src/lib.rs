#![deny(unreachable_pub)]
#![warn(missing_docs)]

//! # boxagg-workload — datasets and query workloads of the §6 evaluation
//!
//! The paper evaluates on randomly generated spatial objects in a
//! 2-dimensional space where "each side of an object MBR is on average
//! 1/10,000 of the total dimension size", querying with 1000 random
//! boxes of fixed *query box size* (QBS: the query area as a fraction of
//! the space). This crate reproduces those generators, plus clustered
//! variants and polynomial value-function assignment for the functional
//! experiments (Fig. 9c).

use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::Poly;
use boxagg_common::rng::StdRng;

/// How object centers are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Uniform over the space (the paper's dataset).
    Uniform,
    /// Gaussian clusters around `k` random centers (skew stress).
    Clustered {
        /// Number of cluster centers.
        clusters: usize,
    },
}

/// Dataset generator configuration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    /// Number of objects.
    pub n: usize,
    /// Dimensionality (the paper uses 2).
    pub dim: usize,
    /// Mean MBR side as a fraction of each space side (paper: 1e-4).
    pub mean_side: f64,
    /// Center placement.
    pub placement: Placement,
    /// RNG seed (datasets are reproducible).
    pub seed: u64,
}

impl DatasetConfig {
    /// The paper's §6 dataset, scaled to `n` objects.
    pub fn paper(n: usize, seed: u64) -> Self {
        Self {
            n,
            dim: 2,
            mean_side: 1e-4,
            placement: Placement::Uniform,
            seed,
        }
    }

    /// The unit-cube space the generators fill.
    pub fn space(&self) -> Rect {
        Rect::new(Point::zeros(self.dim), Point::splat(self.dim, 1.0))
    }
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Generates weighted rectangles per the configuration. Values are
/// uniform in `\[1, 100\]` (any positive range works; SUM/COUNT/AVG only
/// need a value per object).
pub fn gen_objects(cfg: &DatasetConfig) -> Vec<(Rect, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let centers: Vec<Point> = match cfg.placement {
        Placement::Uniform => Vec::new(),
        Placement::Clustered { clusters } => (0..clusters.max(1))
            .map(|_| Point::from_fn(cfg.dim, |_| rng.gen::<f64>()))
            .collect(),
    };
    let mut out = Vec::with_capacity(cfg.n);
    for _ in 0..cfg.n {
        let center = match cfg.placement {
            Placement::Uniform => Point::from_fn(cfg.dim, |_| rng.gen::<f64>()),
            Placement::Clustered { .. } => {
                let c = &centers[rng.gen_range(0..centers.len())];
                // Box–Muller Gaussian spread around the cluster center.
                Point::from_fn(cfg.dim, |i| {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    let v: f64 = rng.gen();
                    let g = (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos();
                    clamp01(c.get(i) + 0.05 * g)
                })
            }
        };
        // Sides uniform in [0, 2·mean], giving the requested mean side.
        let rect = Rect::new(
            Point::from_fn(cfg.dim, |i| {
                clamp01(center.get(i) - rng.gen::<f64>() * cfg.mean_side)
            }),
            Point::from_fn(cfg.dim, |i| {
                clamp01(center.get(i) + rng.gen::<f64>() * cfg.mean_side)
            }),
        );
        let value = 1.0 + rng.gen::<f64>() * 99.0;
        out.push((rect, value));
    }
    out
}

/// Generates `count` square query boxes whose area is `qbs` of the
/// space (§6's fixed-shape, fixed-size query workload; `qbs` is the
/// fraction, e.g. `0.01` for the paper's "1%").
pub fn gen_queries(dim: usize, count: usize, qbs: f64, seed: u64) -> Vec<Rect> {
    assert!(qbs > 0.0 && qbs <= 1.0, "QBS must be in (0, 1]");
    let side = qbs.powf(1.0 / dim as f64);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let low = Point::from_fn(dim, |_| rng.gen::<f64>() * (1.0 - side));
            let high = Point::from_fn(dim, |i| low.get(i) + side);
            Rect::new(low, high)
        })
        .collect()
}

/// Assigns polynomial value functions of exactly `degree` to the
/// dataset's objects, producing functional workload objects (Fig. 9c's
/// degree-0 and degree-2 variants). Degree 0 treats the object's value
/// as a constant density.
pub fn assign_functions(objects: &[(Rect, f64)], degree: u32, seed: u64) -> Vec<(Rect, Poly)> {
    use boxagg_common::value::AggValue;
    let mut rng = StdRng::seed_from_u64(seed);
    objects
        .iter()
        .map(|(rect, value)| {
            let dim = rect.dim();
            let mut f = Poly::constant(*value);
            if degree > 0 {
                // Every monomial with 1 ≤ total degree ≤ `degree`.
                let mut exps = vec![0u8; dim];
                'outer: loop {
                    let mut i = 0;
                    loop {
                        if i == dim {
                            break 'outer;
                        }
                        exps[i] += 1;
                        if exps.iter().map(|&e| e as u32).sum::<u32>() > degree {
                            exps[i] = 0;
                            i += 1;
                        } else {
                            break;
                        }
                    }
                    let coeff = rng.gen::<f64>() * 2.0 - 1.0;
                    f.add_assign(&Poly::monomial(coeff, &exps));
                }
            }
            (*rect, f)
        })
        .collect()
}

/// Generates weighted points (dominance-sum microbenchmarks, Table 1).
pub fn gen_points(dim: usize, n: usize, seed: u64) -> Vec<(Point, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let p = Point::from_fn(dim, |_| rng.gen::<f64>());
            (p, 1.0 + rng.gen::<f64>() * 9.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dataset_shape() {
        let cfg = DatasetConfig::paper(2000, 7);
        let objs = gen_objects(&cfg);
        assert_eq!(objs.len(), 2000);
        let space = cfg.space();
        let mut side_sum = 0.0;
        for (r, v) in &objs {
            assert!(space.contains_rect(r), "object escapes the space");
            assert!(*v >= 1.0 && *v <= 100.0);
            side_sum += r.extent(0) + r.extent(1);
        }
        let mean_side = side_sum / (2.0 * objs.len() as f64);
        // Mean side ≈ 1e-4 of the space (±50% tolerance over randomness).
        assert!(
            (5e-5..2e-4).contains(&mean_side),
            "mean side {mean_side} drifted from 1e-4"
        );
    }

    #[test]
    fn datasets_are_reproducible_and_seeded() {
        let cfg = DatasetConfig::paper(100, 42);
        assert_eq!(gen_objects(&cfg), gen_objects(&cfg));
        let other = DatasetConfig::paper(100, 43);
        assert_ne!(gen_objects(&cfg), gen_objects(&other));
    }

    #[test]
    fn clustered_placement_clusters() {
        let cfg = DatasetConfig {
            n: 500,
            dim: 2,
            mean_side: 1e-3,
            placement: Placement::Clustered { clusters: 3 },
            seed: 5,
        };
        let objs = gen_objects(&cfg);
        assert_eq!(objs.len(), 500);
        // Clustered data should concentrate: the variance of centers is
        // far below uniform's 1/12 ≈ 0.083.
        let xs: Vec<f64> = objs.iter().map(|(r, _)| r.center().get(0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(var < 0.07, "variance {var} too high for clustered data");
    }

    #[test]
    fn queries_have_requested_area() {
        for qbs in [0.0001, 0.001, 0.01, 0.1] {
            let qs = gen_queries(2, 50, qbs, 9);
            assert_eq!(qs.len(), 50);
            for q in &qs {
                assert!(
                    (q.volume() - qbs).abs() < 1e-12,
                    "area {} != {qbs}",
                    q.volume()
                );
                assert!(q.low().get(0) >= 0.0 && q.high().get(0) <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn queries_3d_cube_root_side() {
        let qs = gen_queries(3, 10, 0.001, 1);
        for q in &qs {
            assert!((q.volume() - 0.001).abs() < 1e-12);
            assert!((q.extent(0) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn degree0_functions_are_the_values() {
        let objs = vec![(Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]), 7.5)];
        let f = assign_functions(&objs, 0, 3);
        assert_eq!(f[0].1, Poly::constant(7.5));
    }

    #[test]
    fn degree2_functions_have_degree_2() {
        let cfg = DatasetConfig::paper(20, 11);
        let objs = gen_objects(&cfg);
        let fs = assign_functions(&objs, 2, 12);
        assert!(fs.iter().all(|(_, f)| f.degree() == 2));
        // Full quadratic in 2-d: 6 monomials.
        assert!(fs.iter().all(|(_, f)| f.num_terms() == 6));
    }

    #[test]
    fn points_generator() {
        let pts = gen_points(3, 100, 1);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|(p, v)| p.dim() == 3 && *v >= 1.0));
    }
}
