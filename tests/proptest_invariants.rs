//! Randomized model tests on the core invariants (deterministic seeds —
//! the workspace builds offline, without the `proptest` crate):
//!
//! * every dominance-sum index equals the brute-force oracle on
//!   arbitrary inputs,
//! * the corner and EO reductions equal brute-force box-sums on
//!   arbitrary boxes (including degenerate ones and shared edges),
//! * polynomial algebra laws and the corner-tuple telescoping identity
//!   behind Theorem 3,
//! * geometric predicates (intersection symmetry, corner/dominance
//!   consistency).

use boxagg::batree::BATree;
use boxagg::common::poly::Term;
use boxagg::common::traits::{DominanceSumIndex, NaiveDominanceIndex};
use boxagg::common::value::AggValue;
use boxagg::common::{Point, Poly, Rect};
use boxagg::core::functional::{corner_tuples, FunctionalBoxSum, FunctionalObject};
use boxagg::core::reduction::{CornerBoxSum, EoBoxSum};
use boxagg::ecdf::{BorderPolicy, EcdfBTree, EcdfTree};
use boxagg::pagestore::{SharedStore, StoreConfig};
use boxagg_common::rng::StdRng;

const CASES: usize = 48;

/// Coordinates on a coarse grid to provoke ties, boundary hits and
/// duplicate points.
fn coord(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..21) as f64 / 20.0
}

fn point2(rng: &mut StdRng) -> Point {
    let (x, y) = (coord(rng), coord(rng));
    Point::new(&[x, y])
}

fn rect2(rng: &mut StdRng) -> Rect {
    let (a, b, c, d) = (coord(rng), coord(rng), coord(rng), coord(rng));
    Rect::new(
        Point::new(&[a.min(b), c.min(d)]),
        Point::new(&[a.max(b), c.max(d)]),
    )
}

fn value(rng: &mut StdRng) -> f64 {
    rng.gen_range(0..17) as f64 - 8.0
}

fn points_vec(rng: &mut StdRng, max: usize) -> Vec<(Point, f64)> {
    let n = 1 + rng.gen_range(0..max);
    (0..n).map(|_| (point2(rng), value(rng))).collect()
}

fn rects_vec(rng: &mut StdRng, max: usize) -> Vec<(Rect, f64)> {
    let n = 1 + rng.gen_range(0..max);
    (0..n).map(|_| (rect2(rng), value(rng))).collect()
}

fn unit_space() -> Rect {
    Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
}

#[test]
fn batree_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0xBA01);
    for _ in 0..CASES {
        let points = points_vec(&mut rng, 119);
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let mut tree: BATree<f64> = BATree::create(store, unit_space(), 8).unwrap();
        let mut oracle = NaiveDominanceIndex::new(2);
        for (p, v) in &points {
            tree.insert(*p, *v).unwrap();
            oracle.insert(*p, *v).unwrap();
        }
        for _ in 0..12 {
            let q = point2(&mut rng);
            assert!(
                (tree.dominance_sum(&q).unwrap() - oracle.dominance_sum(&q).unwrap()).abs() < 1e-9
            );
        }
    }
}

#[test]
fn ecdf_btrees_match_oracle() {
    let mut rng = StdRng::seed_from_u64(0xEC01);
    for _ in 0..CASES / 2 {
        let points = points_vec(&mut rng, 119);
        let queries: Vec<Point> = (0..12).map(|_| point2(&mut rng)).collect();
        for policy in [BorderPolicy::UpdateOptimized, BorderPolicy::QueryOptimized] {
            let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
            let mut tree: EcdfBTree<f64> = EcdfBTree::create(store, 2, policy, 8).unwrap();
            let mut oracle = NaiveDominanceIndex::new(2);
            for (p, v) in &points {
                tree.insert(*p, *v).unwrap();
                oracle.insert(*p, *v).unwrap();
            }
            for q in &queries {
                assert!(
                    (tree.dominance_sum(q).unwrap() - oracle.dominance_sum(q).unwrap()).abs()
                        < 1e-9
                );
            }
        }
    }
}

#[test]
fn static_ecdf_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(0x5EC);
    for _ in 0..CASES {
        let points = points_vec(&mut rng, 149);
        let tree = EcdfTree::build(2, points.clone());
        let mut oracle = NaiveDominanceIndex::new(2);
        for (p, v) in points {
            oracle.insert(p, v).unwrap();
        }
        for _ in 0..12 {
            let q = point2(&mut rng);
            assert!((tree.query(&q) - oracle.dominance_sum(&q).unwrap()).abs() < 1e-9);
        }
    }
}

#[test]
fn reductions_match_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xC02);
    for _ in 0..CASES {
        let objects = rects_vec(&mut rng, 59);
        let mut corner = CornerBoxSum::new(2, |_| Ok(NaiveDominanceIndex::new(2))).unwrap();
        let mut eo = EoBoxSum::new(2, |_| Ok(NaiveDominanceIndex::new(2))).unwrap();
        for (r, v) in &objects {
            corner.insert(r, *v).unwrap();
            eo.insert(r, *v).unwrap();
        }
        for _ in 0..8 {
            let q = rect2(&mut rng);
            let want: f64 = objects
                .iter()
                .filter(|(r, _)| r.intersects(&q))
                .map(|(_, v)| v)
                .sum();
            assert!(
                (corner.query(&q).unwrap() - want).abs() < 1e-9,
                "corner at {q:?}"
            );
            assert!((eo.query(&q).unwrap() - want).abs() < 1e-9, "eo at {q:?}");
        }
    }
}

#[test]
fn functional_engine_matches_integral_oracle() {
    let mut rng = StdRng::seed_from_u64(0xF03);
    for _ in 0..CASES {
        let mut engine = FunctionalBoxSum::new(NaiveDominanceIndex::new(2)).unwrap();
        let n = 1 + rng.gen_range(0..29);
        let objs: Vec<FunctionalObject> = (0..n)
            .map(|_| {
                let r = rect2(&mut rng);
                let c = rng.gen::<f64>() * 6.0 - 3.0;
                let cx = rng.gen::<f64>() * 6.0 - 3.0;
                let f = Poly::from_terms(vec![Term::new(c, &[]), Term::new(cx, &[1, 1])]);
                FunctionalObject::new(r, f).unwrap()
            })
            .collect();
        for o in &objs {
            engine.insert(o).unwrap();
        }
        for _ in 0..6 {
            let q = rect2(&mut rng);
            let want: f64 = objs.iter().map(|o| o.contribution(&q)).sum();
            let got = engine.query(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "functional at {q:?}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn corner_tuples_telescope_to_clamped_integral() {
    let mut rng = StdRng::seed_from_u64(0x7E1E);
    let mut checked = 0;
    while checked < CASES {
        let rect = rect2(&mut rng);
        let p = point2(&mut rng);
        let c0 = rng.gen::<f64>() * 6.0 - 3.0;
        let cx = rng.gen::<f64>() * 6.0 - 3.0;
        let cy = rng.gen::<f64>() * 6.0 - 3.0;
        // The Theorem 3 construction: summing the tuples of the corners
        // dominated by p and evaluating at p equals ∫f over [l, min(p,h)]
        // (zero when p does not dominate l).
        if rect.volume() <= 0.0 {
            continue;
        }
        checked += 1;
        let f = Poly::from_terms(vec![
            Term::new(c0, &[]),
            Term::new(cx, &[1, 0]),
            Term::new(cy, &[0, 2]),
        ]);
        let obj = FunctionalObject::new(rect, f.clone()).unwrap();
        let mut agg = Poly::new();
        for (corner, tuple) in corner_tuples(&obj) {
            if corner.dominated_by(&p) {
                agg.add_assign(&tuple);
            }
        }
        let got = agg.eval(&p);
        let want = if p.dominates(rect.low()) {
            let hi = p.component_min(rect.high());
            f.integral_over(rect.low(), &hi)
        } else {
            0.0
        };
        assert!(
            (got - want).abs() < 1e-9 * want.abs().max(1.0),
            "telescope at {p:?} over {rect:?}: {got} vs {want}"
        );
    }
}

#[test]
fn poly_ring_laws() {
    let mut rng = StdRng::seed_from_u64(0x9017);
    for _ in 0..CASES {
        let mk = |rng: &mut StdRng| {
            let n = rng.gen_range(0..4);
            Poly::from_terms(
                (0..n)
                    .map(|_| {
                        let c = rng.gen_range(0..8) as f64 - 4.0;
                        let ex = rng.gen_range(0..3) as u8;
                        let ey = rng.gen_range(0..3) as u8;
                        Term::new(c, &[ex, ey])
                    })
                    .collect(),
            )
        };
        let (a, b, c) = (mk(&mut rng), mk(&mut rng), mk(&mut rng));
        let p = point2(&mut rng);
        // Commutativity and distributivity, checked both structurally
        // and by evaluation.
        assert_eq!(a.clone().add(&b), b.clone().add(&a));
        assert_eq!(a.mul(&b), b.mul(&a));
        let left = a.mul(&b.clone().add(&c));
        let right = a.mul(&b).add(&a.mul(&c));
        assert!(left.approx_eq(&right, 1e-9));
        // Subtraction is the additive inverse.
        assert!(a.clone().sub(&a).is_zero());
        // Evaluation is a ring homomorphism.
        let ev = |x: &Poly| x.eval(&p);
        assert!((ev(&a.clone().add(&b)) - (ev(&a) + ev(&b))).abs() < 1e-9);
        assert!((ev(&a.mul(&b)) - ev(&a) * ev(&b)).abs() < 1e-6);
    }
}

#[test]
fn geometry_predicates() {
    let mut rng = StdRng::seed_from_u64(0x6E0);
    for _ in 0..CASES * 4 {
        let r1 = rect2(&mut rng);
        let r2 = rect2(&mut rng);
        let p = point2(&mut rng);
        // Intersection is symmetric and consistent with the geometric
        // intersection box.
        assert_eq!(r1.intersects(&r2), r2.intersects(&r1));
        match r1.intersection(&r2) {
            Some(i) => {
                assert!(r1.intersects(&r2));
                assert!(r1.contains_rect(&i) && r2.contains_rect(&i));
                assert!((i.volume() - r1.overlap_volume(&r2)).abs() < 1e-12);
            }
            None => assert!(!r1.intersects(&r2)),
        }
        // Containment ⇔ dominance of both corners.
        assert_eq!(
            r1.contains_point(&p),
            p.dominates(r1.low()) && r1.high().dominates(&p)
        );
        // Every corner is inside its box; the high corner dominates all.
        for mask in 0..4 {
            let c = r1.corner(mask);
            assert!(r1.contains_point(&c));
            assert!(r1.high().dominates(&c));
            assert!(c.dominates(r1.low()));
        }
    }
}

#[test]
fn bulk_loaders_equal_dynamic_insertion() {
    let mut rng = StdRng::seed_from_u64(0xB01);
    for _ in 0..CASES {
        let points = points_vec(&mut rng, 99);
        // BA-tree bulk loader.
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let bulk_bat: BATree<f64> =
            BATree::bulk_load(store, unit_space(), 8, points.clone()).unwrap();
        // ECDF bulk loaders.
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let bulk_bq: EcdfBTree<f64> =
            EcdfBTree::bulk_load(store, 2, BorderPolicy::QueryOptimized, 8, points.clone())
                .unwrap();
        let mut oracle = NaiveDominanceIndex::new(2);
        for (p, v) in &points {
            oracle.insert(*p, *v).unwrap();
        }
        for _ in 0..8 {
            let q = point2(&mut rng);
            let want = oracle.dominance_sum(&q).unwrap();
            assert!((bulk_bat.dominance_sum(&q).unwrap() - want).abs() < 1e-9);
            assert!((bulk_bq.dominance_sum(&q).unwrap() - want).abs() < 1e-9);
        }
    }
}

#[test]
fn deletion_restores_prior_answers() {
    use boxagg::core::engine::SimpleBoxSum;
    let mut rng = StdRng::seed_from_u64(0xDE1);
    for _ in 0..CASES {
        let objects = {
            let n = 2 + rng.gen_range(0..38);
            (0..n)
                .map(|_| (rect2(&mut rng), value(&mut rng)))
                .collect::<Vec<_>>()
        };
        let queries: Vec<Rect> = (0..6).map(|_| rect2(&mut rng)).collect();
        let mut e = SimpleBoxSum::new(2, |_| Ok(NaiveDominanceIndex::new(2))).unwrap();
        let split = objects.len() / 2;
        for (r, v) in &objects[..split] {
            e.insert(r, *v).unwrap();
        }
        let before: Vec<f64> = queries.iter().map(|q| e.query(q).unwrap()).collect();
        // Insert then delete the second half: answers must be restored.
        for (r, v) in &objects[split..] {
            e.insert(r, *v).unwrap();
        }
        for (r, v) in &objects[split..] {
            e.delete(r, *v).unwrap();
        }
        for (q, want) in queries.iter().zip(&before) {
            let got = e.query(q).unwrap();
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}

#[test]
fn batree_enumeration_is_lossless() {
    let mut rng = StdRng::seed_from_u64(0xE00);
    for _ in 0..CASES {
        let points = points_vec(&mut rng, 99);
        // Inserts never vanish into aggregation state: the leaf
        // enumeration recovers the exact multiset sum.
        let store = SharedStore::open(&StoreConfig::small(512, 32)).unwrap();
        let mut tree: BATree<f64> = BATree::create(store, unit_space(), 8).unwrap();
        for (p, v) in &points {
            tree.insert(*p, *v).unwrap();
        }
        let want: f64 = points.iter().map(|(_, v)| v).sum();
        let got: f64 = tree.enumerate().unwrap().iter().map(|(_, v)| v).sum();
        assert!((got - want).abs() < 1e-9);
    }
}
