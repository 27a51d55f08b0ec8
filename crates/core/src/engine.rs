//! Ready-to-use box-sum engines over the concrete index backends.
//!
//! [`SimpleBoxSum`] wires the corner reduction (§2) to a chosen
//! dominance-sum backend: `2^d` BA-trees, ECDF-Bu-trees or ECDF-Bq-trees
//! sharing one page store (so index size and I/O are accounted for the
//! whole structure, as in §6). [`FunctionalBoxSum`] does the same for
//! the functional problem's single polynomial index.

use boxagg_batree::BATree;
use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::Poly;
use boxagg_common::traits::{check_insert, DominanceSumIndex};
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::{SharedStore, StoreConfig};

pub use crate::functional::FunctionalBoxSum;
pub use crate::reduction::{CornerBoxSum, EoBoxSum};

use crate::functional::{corner_tuples, tuple_value_size, FunctionalObject};
use crate::reduction::eo_index_space;

/// A simple box-sum engine: the corner reduction over any backend.
///
/// This is the type alias applications normally use; see the
/// constructors on [`SimpleBoxSum`].
pub type SimpleBoxSum<I> = CornerBoxSum<I>;

/// Scalar value size on pages.
const F64_SIZE: usize = 8;

impl SimpleBoxSum<BATree<f64>> {
    /// Corner reduction over `2^d` BA-trees sharing a fresh store — the
    /// paper's `BAT` configuration (§6).
    pub fn batree(space: Rect, config: StoreConfig) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        Self::batree_in(space, store)
    }

    /// Same, over an existing store.
    pub fn batree_in(space: Rect, store: SharedStore) -> Result<Self> {
        CornerBoxSum::new(space.dim(), |_| {
            BATree::create(store.clone(), space, F64_SIZE)
        })
    }

    /// Bulk-loads the `2^d` corner BA-trees from a dataset. An object
    /// reaching past `space`, or with a value that is not finite, refuses
    /// the load before any corner tree is built.
    pub fn batree_bulk(space: Rect, config: StoreConfig, objects: &[(Rect, f64)]) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        let fits = |r: &Rect| {
            if space.contains_rect(r) {
                Ok(())
            } else {
                Err(invalid_arg(format!(
                    "object {r:?} outside the indexed space {space:?}"
                )))
            }
        };
        bulk_corner_engine(space.dim(), objects, fits, move |pts| {
            BATree::bulk_load(store.clone(), space, F64_SIZE, pts)
        })
    }
}

/// Builds the `2^dim` corner indexes from `objects` with `load`, one
/// mask after another in mask order, and assembles the engine. Every
/// object is checked first — its value must be finite and `fits` must
/// take its box — so a refused object leaves no corner tree behind; a
/// failure while building reports the error earliest in mask order.
fn bulk_corner_engine<I, F>(
    dim: usize,
    objects: &[(Rect, f64)],
    fits: impl Fn(&Rect) -> Result<()>,
    load: F,
) -> Result<CornerBoxSum<I>>
where
    I: DominanceSumIndex<f64>,
    F: Fn(Vec<(Point, f64)>) -> Result<I>,
{
    for (rect, value) in objects {
        check_insert(rect.low(), dim, value)?;
        fits(rect)?;
    }
    let indexes = (0..1usize << dim)
        .map(|mask| load(objects.iter().map(|(r, v)| (r.corner(mask), *v)).collect()))
        .collect::<Result<Vec<I>>>()?;
    let mut engine = CornerBoxSum::from_indexes(dim, indexes)?;
    engine.note_bulk_loaded(objects.len());
    Ok(engine)
}

impl SimpleBoxSum<EcdfBTree<f64>> {
    /// Corner reduction over `2^d` ECDF-B-trees sharing a fresh store —
    /// the paper's `ECDFu` / `ECDFq` configurations (§6).
    pub fn ecdf(dim: usize, policy: BorderPolicy, config: StoreConfig) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        Self::ecdf_in(dim, policy, store)
    }

    /// Same, over an existing store.
    pub fn ecdf_in(dim: usize, policy: BorderPolicy, store: SharedStore) -> Result<Self> {
        CornerBoxSum::new(dim, |_| {
            EcdfBTree::create(store.clone(), dim, policy, F64_SIZE)
        })
    }

    /// Bulk-loads the `2^d` corner indexes from a dataset (§4) — how the
    /// large §6 configurations are built.
    pub fn ecdf_bulk(
        dim: usize,
        policy: BorderPolicy,
        config: StoreConfig,
        objects: &[(Rect, f64)],
    ) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        let fits = |r: &Rect| {
            if r.is_finite() {
                Ok(())
            } else {
                Err(invalid_arg(format!(
                    "object {r:?} has a non-finite coordinate"
                )))
            }
        };
        bulk_corner_engine(dim, objects, fits, move |pts| {
            EcdfBTree::bulk_load(store.clone(), dim, policy, F64_SIZE, pts)
        })
    }
}

impl EoBoxSum<BATree<f64>> {
    /// The Edelsbrunner–Overmars reduction over BA-trees (Theorem 1
    /// ablation baseline). Index `mask` covers the partially negated
    /// space of [`eo_index_space`].
    pub fn batree(space: Rect, config: StoreConfig) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        EoBoxSum::new(space.dim(), |mask| {
            BATree::create(store.clone(), eo_index_space(&space, mask), F64_SIZE)
        })
    }
}

impl FunctionalBoxSum<BATree<Poly>> {
    /// Functional box-sum over a single polynomial BA-tree (§3 + §5):
    /// the paper's functional `BAT` configuration. `max_degree` bounds
    /// the total degree of any object's value function.
    pub fn batree(space: Rect, config: StoreConfig, max_degree: u32) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        Self::batree_in(space, store, max_degree)
    }

    /// Same, over an existing store.
    pub fn batree_in(space: Rect, store: SharedStore, max_degree: u32) -> Result<Self> {
        let tree = BATree::create(
            store.clone(),
            space,
            tuple_value_size(space.dim(), max_degree),
        )?;
        FunctionalBoxSum::new(tree)
    }

    /// Bulk-loads the functional index: all corner tuples are computed
    /// up front and the single polynomial BA-tree is built in one pass.
    pub fn batree_bulk(
        space: Rect,
        config: StoreConfig,
        max_degree: u32,
        objects: &[FunctionalObject],
    ) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        let mut pts = Vec::with_capacity(objects.len() << space.dim());
        for o in objects {
            pts.extend(corner_tuples(o));
        }
        let tree = BATree::bulk_load(
            store.clone(),
            space,
            tuple_value_size(space.dim(), max_degree),
            pts,
        )?;
        let mut engine = FunctionalBoxSum::new(tree)?;
        engine.note_bulk_loaded(objects.len());
        Ok(engine)
    }
}

impl FunctionalBoxSum<EcdfBTree<Poly>> {
    /// Functional box-sum over a single polynomial ECDF-B-tree.
    pub fn ecdf(
        dim: usize,
        policy: BorderPolicy,
        config: StoreConfig,
        max_degree: u32,
    ) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        let tree = EcdfBTree::create(
            store.clone(),
            dim,
            policy,
            tuple_value_size(dim, max_degree),
        )?;
        FunctionalBoxSum::new(tree)
    }

    /// Bulk-loads the functional index from objects (corner tuples
    /// computed up front, one bulk build).
    pub fn ecdf_bulk(
        dim: usize,
        policy: BorderPolicy,
        config: StoreConfig,
        max_degree: u32,
        objects: &[FunctionalObject],
    ) -> Result<Self> {
        let store = SharedStore::open(&config)?;
        let mut pts = Vec::with_capacity(objects.len() << dim);
        for o in objects {
            pts.extend(corner_tuples(o));
        }
        let tree = EcdfBTree::bulk_load(
            store.clone(),
            dim,
            policy,
            tuple_value_size(dim, max_degree),
            pts,
        )?;
        let mut engine = FunctionalBoxSum::new(tree)?;
        engine.note_bulk_loaded(objects.len());
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::FunctionalObject;
    use boxagg_common::traits::NaiveDominanceIndex;
    use boxagg_common::value::AggValue;

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, side: f64) -> Rect {
        let low = Point::from_fn(2, |_| rnd(s) * (1.0 - side));
        let high = Point::from_fn(2, |i| low.get(i) + rnd(s) * side);
        Rect::new(low, high)
    }

    fn unit_space() -> Rect {
        Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)])
    }

    fn dataset(n: usize, seed: u64) -> Vec<(Rect, f64)> {
        let mut s = seed;
        (0..n)
            .map(|i| (rand_rect(&mut s, 0.1), (i % 5) as f64 + 1.0))
            .collect()
    }

    fn brute(objs: &[(Rect, f64)], q: &Rect) -> f64 {
        objs.iter()
            .filter(|(r, _)| r.intersects(q))
            .map(|(_, v)| v)
            .sum()
    }

    #[test]
    fn batree_backend_answers_box_sums() {
        let objs = dataset(300, 11);
        let mut e = SimpleBoxSum::batree(unit_space(), StoreConfig::small(1024, 256)).unwrap();
        for (r, v) in &objs {
            e.insert(r, *v).unwrap();
        }
        let mut s = 12u64;
        for _ in 0..60 {
            let q = rand_rect(&mut s, 0.4);
            let got = e.query(&q).unwrap();
            let want = brute(&objs, &q);
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
        assert_eq!(e.len(), 300);
    }

    #[test]
    fn a_box_sum_with_a_nan_coordinate_is_refused() {
        fn check<I: DominanceSumIndex<f64>>(e: &SimpleBoxSum<I>, objs: &[(Rect, f64)]) {
            for q in [[f64::NAN, 0.5], [0.5, f64::NAN]] {
                match e.query(&Rect::degenerate(Point::new(&q))) {
                    Err(boxagg_common::Error::InvalidArgument(_)) => {}
                    other => panic!("{q:?} answered {other:?}"),
                }
            }
            let all = Rect::from_bounds(&[(f64::NEG_INFINITY, f64::INFINITY); 2]);
            assert_eq!(e.query(&all).unwrap(), brute(objs, &all));
        }
        let objs = dataset(50, 13);
        let config = || StoreConfig::small(1024, 64);
        check(
            &SimpleBoxSum::batree_bulk(unit_space(), config(), &objs).unwrap(),
            &objs,
        );
        let policy = BorderPolicy::UpdateOptimized;
        check(
            &SimpleBoxSum::ecdf_bulk(2, policy, config(), &objs).unwrap(),
            &objs,
        );
    }

    #[test]
    fn batree_bulk_matches_dynamic_engine() {
        let objs = dataset(600, 71);
        let bulk =
            SimpleBoxSum::batree_bulk(unit_space(), StoreConfig::small(1024, 256), &objs).unwrap();
        let mut dynamic =
            SimpleBoxSum::batree(unit_space(), StoreConfig::small(1024, 256)).unwrap();
        for (r, v) in &objs {
            dynamic.insert(r, *v).unwrap();
        }
        assert_eq!(bulk.len(), 600);
        let mut s = 72u64;
        for _ in 0..50 {
            let q = rand_rect(&mut s, 0.3);
            let a = bulk.query(&q).unwrap();
            let b = dynamic.query(&q).unwrap();
            assert!((a - b).abs() < 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn deletion_by_negation() {
        let objs = dataset(200, 81);
        let mut e = SimpleBoxSum::batree(unit_space(), StoreConfig::small(1024, 128)).unwrap();
        for (r, v) in &objs {
            e.insert(r, *v).unwrap();
        }
        // Delete half the objects; queries must match brute force over
        // the survivors.
        for (r, v) in &objs[..100] {
            e.delete(r, *v).unwrap();
        }
        assert_eq!(e.len(), 100);
        let mut s = 82u64;
        for _ in 0..40 {
            let q = rand_rect(&mut s, 0.4);
            let want = brute(&objs[100..], &q);
            let got = e.query(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-6 * want.abs().max(1.0),
                "after deletes: {got} vs {want}"
            );
        }
    }

    #[test]
    fn eo_deletion_by_negation() {
        let objs = dataset(200, 81);
        let mut e = EoBoxSum::batree(unit_space(), StoreConfig::small(1024, 128)).unwrap();
        for (r, v) in &objs {
            e.insert(r, *v).unwrap();
        }
        // Delete half the objects; queries must match brute force over
        // the survivors (mirrors `deletion_by_negation` above).
        for (r, v) in &objs[..100] {
            e.delete(r, *v).unwrap();
        }
        assert_eq!(e.len(), 100);
        let mut s = 82u64;
        for _ in 0..40 {
            let q = rand_rect(&mut s, 0.4);
            let want = brute(&objs[100..], &q);
            let got = e.query(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-6 * want.abs().max(1.0),
                "after deletes: {got} vs {want}"
            );
        }
    }

    #[test]
    fn functional_deletion_by_negation() {
        let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let mut e = FunctionalBoxSum::batree(space, StoreConfig::small(2048, 128), 1).unwrap();
        let keep = FunctionalObject::new(
            Rect::from_bounds(&[(0.1, 0.6), (0.1, 0.6)]),
            Poly::monomial(2.0, &[1, 0]),
        )
        .unwrap();
        let gone = FunctionalObject::new(
            Rect::from_bounds(&[(0.2, 0.9), (0.3, 0.8)]),
            Poly::constant(5.0),
        )
        .unwrap();
        e.insert(&keep).unwrap();
        e.insert(&gone).unwrap();
        e.delete(&gone).unwrap();
        assert_eq!(e.len(), 1);
        let q = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
        let want = keep.contribution(&q);
        let got = e.query(&q).unwrap();
        assert!((got - want).abs() < 1e-9 * want.abs().max(1.0));
    }

    #[test]
    fn bulk_load_keeps_mask_order_and_reports_the_earliest_error() {
        // 8 masks. The mask a load call is working on is recovered from
        // the corner it was handed.
        let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]);
        let objs = vec![(
            Rect::from_bounds(&[(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]),
            1.0,
        )];
        let probe = objs[0].0;
        let mask_of = move |pts: &[(Point, f64)]| (0..8).find(|&m| probe.corner(m) == pts[0].0);
        let load = move |failing: &'static [usize]| {
            move |pts: Vec<(Point, f64)>| {
                let mask = mask_of(&pts).expect("a corner of the only object");
                if failing.contains(&mask) {
                    return Err(boxagg_common::error::invalid_arg(format!("mask {mask}")));
                }
                let mut index = NaiveDominanceIndex::new(3);
                for (p, v) in pts {
                    index.insert(p, v)?;
                }
                Ok(index)
            }
        };
        let fits = |_: &Rect| Ok(());
        let engine = bulk_corner_engine(space.dim(), &objs, fits, load(&[])).unwrap();
        assert_eq!(engine.len(), 1);
        for (mask, index) in engine.indexes().iter().enumerate() {
            assert_eq!(index.points()[0].0, probe.corner(mask), "slot {mask}");
        }
        let Err(err) = bulk_corner_engine(space.dim(), &objs, fits, load(&[3, 1])) else {
            panic!("masks 1 and 3 fail");
        };
        assert!(err.to_string().contains("mask 1"), "{err}");
    }

    #[test]
    fn a_refused_object_leaves_nothing_behind() {
        // Over [0,100]², [50,200]×[10,20] has corners inside the space
        // and outside it.
        let space = Rect::from_bounds(&[(0.0, 100.0), (0.0, 100.0)]);
        let past = Rect::from_bounds(&[(50.0, 200.0), (10.0, 20.0)]);
        let inside = Rect::from_bounds(&[(50.0, 55.0), (10.0, 20.0)]);
        let refused = [
            (past, 5.0),
            (inside, f64::NAN),
            (inside, f64::INFINITY),
            (inside, f64::NEG_INFINITY),
        ];
        let invalid = |r: Result<()>| matches!(r, Err(boxagg_common::Error::InvalidArgument(_)));
        let config = || StoreConfig::small(1024, 64);
        let mut corner = SimpleBoxSum::batree(space, config()).unwrap();
        let mut eo = EoBoxSum::batree(space, config()).unwrap();
        let mut func = FunctionalBoxSum::batree(space, config(), 0).unwrap();
        for (rect, v) in refused {
            let obj = FunctionalObject::new(rect, Poly::constant(v)).unwrap();
            let at = format!("{rect:?} value {v}");
            assert!(invalid(corner.insert(&rect, v)), "{at}");
            assert!(invalid(corner.delete(&rect, v)), "{at}");
            assert!(invalid(eo.insert(&rect, v)), "{at}");
            assert!(invalid(eo.delete(&rect, v)), "{at}");
            assert!(invalid(func.insert(&obj)), "{at}");
            assert!(invalid(func.delete(&obj)), "{at}");
        }
        assert_eq!((corner.len(), eo.len(), func.len()), (0, 0, 0));
        let stripe = Rect::from_bounds(&[(40.0, 60.0), (0.0, 100.0)]);
        for q in [stripe, space] {
            assert_eq!(corner.query(&q).unwrap(), 0.0, "{q:?}");
            assert_eq!(eo.query(&q).unwrap(), 0.0, "{q:?}");
            assert_eq!(func.query(&q).unwrap(), 0.0, "{q:?}");
        }
        corner.insert(&inside, 5.0).unwrap();
        eo.insert(&inside, 5.0).unwrap();
        assert_eq!(corner.query(&stripe).unwrap(), 5.0);
        assert_eq!(eo.query(&stripe).unwrap(), 5.0);
    }

    #[test]
    fn a_bulk_build_checks_every_object_before_any_corner() {
        let space = Rect::from_bounds(&[(0.0, 100.0), (0.0, 100.0)]);
        let good = (Rect::from_bounds(&[(10.0, 20.0), (10.0, 20.0)]), 1.0);
        let config = || StoreConfig::small(1024, 64);
        let fits = |r: &Rect| {
            if space.contains_rect(r) {
                Ok(())
            } else {
                Err(boxagg_common::error::invalid_arg("outside"))
            }
        };
        for bad in [
            (Rect::from_bounds(&[(50.0, 200.0), (10.0, 20.0)]), 5.0),
            (good.0, f64::NAN),
            (good.0, f64::INFINITY),
        ] {
            let objs = [good, bad];
            assert!(SimpleBoxSum::batree_bulk(space, config(), &objs).is_err());
            let loads = std::cell::Cell::new(0);
            let load = |pts: Vec<(Point, f64)>| {
                loads.set(loads.get() + 1);
                let mut index = NaiveDominanceIndex::new(2);
                for (p, v) in pts {
                    index.insert(p, v)?;
                }
                Ok(index)
            };
            assert!(bulk_corner_engine(2, &objs, fits, load).is_err(), "{bad:?}");
            assert_eq!(loads.get(), 0, "{bad:?}: a corner was built");
        }
        let policy = BorderPolicy::UpdateOptimized;
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let objs = [good, (good.0, bad)];
            assert!(SimpleBoxSum::ecdf_bulk(2, policy, config(), &objs).is_err());
        }
        let objs = [FunctionalObject::new(good.0, Poly::constant(f64::NAN)).unwrap()];
        assert!(FunctionalBoxSum::batree_bulk(space, config(), 0, &objs).is_err());
        assert!(FunctionalBoxSum::ecdf_bulk(2, policy, config(), 0, &objs).is_err());
    }

    #[test]
    fn ecdf_backends_answer_box_sums() {
        let objs = dataset(250, 21);
        for policy in [BorderPolicy::UpdateOptimized, BorderPolicy::QueryOptimized] {
            let mut e = SimpleBoxSum::ecdf(2, policy, StoreConfig::small(1024, 256)).unwrap();
            for (r, v) in &objs {
                e.insert(r, *v).unwrap();
            }
            let mut s = 22u64;
            for _ in 0..40 {
                let q = rand_rect(&mut s, 0.4);
                let got = e.query(&q).unwrap();
                let want = brute(&objs, &q);
                assert!(
                    (got - want).abs() < 1e-6,
                    "{policy:?}: got {got}, want {want}"
                );
            }
        }
    }

    #[test]
    fn ecdf_bulk_matches_dynamic() {
        let objs = dataset(400, 31);
        let bulk = SimpleBoxSum::ecdf_bulk(
            2,
            BorderPolicy::QueryOptimized,
            StoreConfig::small(1024, 256),
            &objs,
        )
        .unwrap();
        assert_eq!(bulk.len(), 400);
        let mut s = 32u64;
        for _ in 0..40 {
            let q = rand_rect(&mut s, 0.3);
            let got = bulk.query(&q).unwrap();
            let want = brute(&objs, &q);
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
        }
    }

    #[test]
    fn eo_batree_matches_corner_batree() {
        let objs = dataset(200, 41);
        let mut corner = SimpleBoxSum::batree(unit_space(), StoreConfig::small(1024, 256)).unwrap();
        let mut eo = EoBoxSum::batree(unit_space(), StoreConfig::small(1024, 256)).unwrap();
        for (r, v) in &objs {
            corner.insert(r, *v).unwrap();
            eo.insert(r, *v).unwrap();
        }
        let mut s = 42u64;
        for _ in 0..40 {
            let q = rand_rect(&mut s, 0.5);
            let a = corner.query(&q).unwrap();
            let b = eo.query(&q).unwrap();
            assert!((a - b).abs() < 1e-6, "corner {a} vs eo {b}");
        }
        assert!(eo.queries_issued() > corner.queries_issued());
    }

    #[test]
    fn functional_batree_matches_oracle() {
        let mut s = 51u64;
        let mut e = FunctionalBoxSum::batree(
            Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]),
            StoreConfig::small(2048, 256),
            2,
        )
        .unwrap();
        let mut objs = Vec::new();
        for _ in 0..120 {
            let r = rand_rect(&mut s, 0.3);
            let f = Poly::monomial(rnd(&mut s), &[1, 0])
                .add(&Poly::monomial(rnd(&mut s), &[0, 2]))
                .add(&Poly::constant(rnd(&mut s)));
            let o = FunctionalObject::new(r, f).unwrap();
            e.insert(&o).unwrap();
            objs.push(o);
        }
        for _ in 0..30 {
            let q = rand_rect(&mut s, 0.5);
            let want: f64 = objs.iter().map(|o| o.contribution(&q)).sum();
            let got = e.query(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "got {got}, want {want}"
            );
        }
    }

    #[test]
    fn functional_ecdf_bulk_matches_oracle() {
        let mut s = 61u64;
        let mut objs = Vec::new();
        for _ in 0..150 {
            let r = rand_rect(&mut s, 0.3);
            let o = FunctionalObject::new(r, Poly::constant(rnd(&mut s) * 3.0)).unwrap();
            objs.push(o);
        }
        let e = FunctionalBoxSum::ecdf_bulk(
            2,
            BorderPolicy::QueryOptimized,
            StoreConfig::small(2048, 256),
            0,
            &objs,
        )
        .unwrap();
        assert_eq!(e.len(), 150);
        for _ in 0..30 {
            let q = rand_rect(&mut s, 0.5);
            let want: f64 = objs.iter().map(|o| o.contribution(&q)).sum();
            let got = e.query(&q).unwrap();
            assert!(
                (got - want).abs() < 1e-9 * want.abs().max(1.0),
                "got {got}, want {want}"
            );
        }
    }
}
