//! Integration: the functional box-sum engines (BA-tree backend,
//! ECDF-B-tree backends, functional aR-tree) agree with the exact
//! integral oracle and with each other, across function degrees.

use boxagg::common::poly::Term;
use boxagg::common::{Point, Poly, Rect};
use boxagg::core::functional;
use boxagg::core::functional::{FunctionalBoxSum, FunctionalObject};
use boxagg::ecdf::BorderPolicy;
use boxagg::pagestore::{SharedStore, StoreConfig};
use boxagg::rstar::RStarTree;
use boxagg::workload::{assign_functions, gen_objects, gen_queries, DatasetConfig};

fn objects(n: usize, degree: u32, seed: u64) -> Vec<FunctionalObject> {
    let cfg = DatasetConfig {
        mean_side: 0.15,
        ..DatasetConfig::paper(n, seed)
    };
    assign_functions(&gen_objects(&cfg), degree, seed ^ 0xF00D)
        .into_iter()
        .map(|(r, f)| FunctionalObject::new(r, f).unwrap())
        .collect()
}

fn oracle(objs: &[FunctionalObject], q: &Rect) -> f64 {
    objs.iter().map(|o| o.contribution(q)).sum()
}

fn check_degree(degree: u32, seed: u64) {
    let objs = objects(150, degree, seed);
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let cfg = StoreConfig::small(4096, 128);

    let mut bat = FunctionalBoxSum::batree(space, cfg.clone(), degree).unwrap();
    let mut ecdf_u =
        FunctionalBoxSum::ecdf(2, BorderPolicy::UpdateOptimized, cfg.clone(), degree).unwrap();
    let ecdf_q =
        FunctionalBoxSum::ecdf_bulk(2, BorderPolicy::QueryOptimized, cfg.clone(), degree, &objs)
            .unwrap();

    let store = SharedStore::open(&cfg).unwrap();
    let mut ar: RStarTree<Poly> =
        RStarTree::create(store, 2, functional::tuple_value_size(2, degree)).unwrap();

    for o in &objs {
        bat.insert(o).unwrap();
        ecdf_u.insert(o).unwrap();
        ar.insert(o.rect, o.mass(), o.f.clone()).unwrap();
    }

    for q in gen_queries(2, 30, 0.05, seed ^ 0xBEEF) {
        let want = oracle(&objs, &q);
        let tol = 1e-9 * want.abs().max(1.0);
        let results = [
            ("BAT", bat.query(&q).unwrap()),
            ("ECDFu", ecdf_u.query(&q).unwrap()),
            ("ECDFq-bulk", ecdf_q.query(&q).unwrap()),
            ("aR", ar.functional_sum(&q).unwrap()),
        ];
        for (name, got) in results {
            assert!(
                (got - want).abs() < tol,
                "degree {degree}, {name} at {q:?}: got {got}, want {want}"
            );
        }
    }
}

#[test]
fn degree0_constant_functions() {
    check_degree(0, 100);
}

#[test]
fn degree1_linear_functions() {
    check_degree(1, 200);
}

#[test]
fn degree2_quadratic_functions() {
    check_degree(2, 300);
}

#[test]
fn paper_worked_example_end_to_end() {
    // Fig. 3a / Fig. 5b through the real disk-backed BA-tree engine.
    let space = Rect::from_bounds(&[(0.0, 40.0), (0.0, 40.0)]);
    let mut e = FunctionalBoxSum::batree(space, StoreConfig::small(2048, 64), 0).unwrap();
    let objs = [
        (Rect::from_bounds(&[(2.0, 15.0), (10.0, 15.0)]), 4.0),
        (Rect::from_bounds(&[(18.0, 30.0), (4.0, 10.0)]), 3.0),
        (Rect::from_bounds(&[(26.0, 30.0), (15.0, 26.0)]), 6.0),
    ];
    for (r, c) in objs {
        e.insert(&FunctionalObject::new(r, Poly::constant(c)).unwrap())
            .unwrap();
    }
    // OIFBS at the two corner points computed in §3.
    assert!((e.oifbs(&Point::new(&[5.0, 15.0])).unwrap() - 60.0).abs() < 1e-9);
    assert!((e.oifbs(&Point::new(&[20.0, 15.0])).unwrap() - 296.0).abs() < 1e-9);
    // The functional box-sum of the query box: 4·50 + 3·12 = 236.
    let q = Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]);
    assert!((e.query(&q).unwrap() - 236.0).abs() < 1e-9);
}

#[test]
fn simple_vs_functional_distinction() {
    // §3's opening observation: the same three objects give 7 under the
    // simple box-sum (two intersecting objects of values 3 and 4) but
    // 236 under the functional interpretation.
    use boxagg::core::engine::SimpleBoxSum;
    let space = Rect::from_bounds(&[(0.0, 40.0), (0.0, 40.0)]);
    let mut simple = SimpleBoxSum::batree(space, StoreConfig::small(2048, 64)).unwrap();
    let objs = [
        (Rect::from_bounds(&[(2.0, 15.0), (10.0, 15.0)]), 4.0),
        (Rect::from_bounds(&[(18.0, 30.0), (4.0, 10.0)]), 3.0),
        (Rect::from_bounds(&[(26.0, 30.0), (15.0, 26.0)]), 6.0),
    ];
    for (r, v) in objs {
        simple.insert(&r, v).unwrap();
    }
    let q = Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]);
    assert_eq!(simple.query(&q).unwrap(), 7.0);
}

#[test]
fn nonuniform_density_fig3b() {
    // The Fig. 3b scenario through the engine with a 1-d-varying density.
    let space = Rect::from_bounds(&[(0.0, 40.0), (0.0, 40.0)]);
    let mut e = FunctionalBoxSum::batree(space, StoreConfig::small(2048, 64), 1).unwrap();
    let f = Poly::from_terms(vec![Term::new(-2.0, &[]), Term::new(1.0, &[1, 0])]);
    let obj = FunctionalObject::new(Rect::from_bounds(&[(5.0, 20.0), (3.0, 15.0)]), f).unwrap();
    e.insert(&obj).unwrap();
    let q = Rect::from_bounds(&[(15.0, 23.0), (7.0, 11.0)]);
    assert!((e.query(&q).unwrap() - 310.0).abs() < 1e-9);
    let q_left = Rect::from_bounds(&[(0.0, 10.0), (7.0, 11.0)]);
    assert!((e.query(&q_left).unwrap() - 110.0).abs() < 1e-9);
}
