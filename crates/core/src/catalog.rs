//! Persisted corner engines: the catalog naming scheme and the one
//! opener that reads it back.
//!
//! A [`CornerBoxSum`] over BA-trees is published into the store catalog
//! as one root per corner mask ([`corner_root_name`]) plus an
//! [`OBJECTS_ROOT`] meta entry recording the object count and space —
//! the CLI and the server agree on the scheme by construction because
//! both go through [`persist_corner_engine`] / [`open_corner_engine`].
//!
//! Opening is the same from either source: hand [`open_corner_engine`]
//! the live store and the engine reads (and writes) current pages; hand
//! it a pinned `StoreSnapshot` and the same engine answers that commit
//! epoch's state through `&self`, unmoved by later commits and refusing
//! mutation — what a query server executes a batch of requests against.
//! Answers are bit-identical either way: there is one reduction loop,
//! [`CornerBoxSum::query`].

use boxagg_batree::BATree;
use boxagg_common::error::{invalid_arg, Result};
use boxagg_common::geom::{Rect, MAX_DIM};
use boxagg_pagestore::{PageId, ReadHandle, RootEntry, RootKind};

use crate::reduction::CornerBoxSum;

/// Catalog name of the meta entry recording the engine's object count
/// and space (no pages of its own — see `RootKind::Meta`).
pub const OBJECTS_ROOT: &str = "meta/objects";

/// Catalog name of the corner tree for selector `mask`.
pub fn corner_root_name(mask: usize) -> String {
    format!("corner/{mask}")
}

/// The persisted engine opened at a pinned epoch — the same type as the
/// live engine; the name survives for callers that pin.
pub type SnapshotBoxSum = CornerBoxSum<BATree<f64>>;

impl CornerBoxSum<BATree<f64>> {
    /// [`open_corner_engine`] without the space: the engine a snapshot
    /// (or a live store) describes.
    pub fn open(pages: impl Into<ReadHandle>) -> Result<Self> {
        Ok(open_corner_engine(pages)?.0)
    }
}

/// Publishes a [`CornerBoxSum`] over BA-trees into the store catalog
/// under the shared naming scheme: each corner tree under
/// [`corner_root_name`], plus the [`OBJECTS_ROOT`] meta entry recording
/// the object count and space. The caller commits.
pub fn persist_corner_engine(engine: &CornerBoxSum<BATree<f64>>, space: &Rect) -> Result<()> {
    let trees = engine.indexes();
    let store = trees
        .first()
        .ok_or_else(|| invalid_arg("engine has no corner trees"))?
        .store()
        .clone();
    for (mask, tree) in trees.iter().enumerate() {
        tree.persist_as(&corner_root_name(mask))?;
    }
    let d = engine.dim();
    store.set_root(
        OBJECTS_ROOT,
        RootEntry {
            root: PageId::NULL,
            len: engine.len() as u64,
            dims: d as u32,
            max_value_size: 0,
            kind: RootKind::Meta,
            bounds: space.bounds(),
        },
    )
}

/// Restores the engine [`persist_corner_engine`] published, and its
/// space, from whatever `pages` sees: the [`OBJECTS_ROOT`] entry and
/// every corner root are read once, here. Fails with a typed error when
/// the catalog has no [`OBJECTS_ROOT`] entry (no engine was ever
/// persisted) or a corner tree is missing.
pub fn open_corner_engine(
    pages: impl Into<ReadHandle>,
) -> Result<(CornerBoxSum<BATree<f64>>, Rect)> {
    let pages = pages.into();
    let meta = pages.root(OBJECTS_ROOT)?.ok_or_else(|| {
        invalid_arg(format!(
            "no {OBJECTS_ROOT:?} entry in the store catalog: \
             the store holds no persisted box-sum engine"
        ))
    })?;
    let dim = meta.dims as usize;
    if dim == 0 || dim > MAX_DIM {
        return Err(invalid_arg(format!(
            "{OBJECTS_ROOT:?} records dimension {dim}, out of range"
        )));
    }
    let space = Rect::from_bounds(&meta.bounds);
    let mut engine = CornerBoxSum::new(dim, |mask| {
        BATree::open_named(pages.clone(), &corner_root_name(mask))
    })?;
    engine.restore_len(meta.len as usize);
    Ok((engine, space))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimpleBoxSum;
    use crate::reduction::corner_query_point;
    use boxagg_common::error::Error;
    use boxagg_common::geom::Point;
    use boxagg_common::traits::DominanceSumIndex;
    use boxagg_ecdf::{BorderPolicy, EcdfBTree};
    use boxagg_pagestore::{SharedStore, StoreConfig, StoreSnapshot};
    use std::sync::{Arc, Barrier};

    fn rnd(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn rand_rect(s: &mut u64, dim: usize, side: f64) -> Rect {
        let low = Point::from_fn(dim, |_| rnd(s) * (1.0 - side));
        let high = Point::from_fn(dim, |i| low.get(i) + rnd(s) * side);
        Rect::new(low, high)
    }

    fn unit_space(dim: usize) -> Rect {
        Rect::from_bounds(&vec![(0.0, 1.0); dim])
    }

    /// A buffer large enough that no page here — and so no decode kept
    /// with it — is ever evicted: the decode counts below are about
    /// sharing, not capacity.
    fn wal_store() -> SharedStore {
        SharedStore::open(&StoreConfig::small(1024, 1 << 14).with_wal(true))
            .expect("open memory WAL store")
    }

    fn answers<I: DominanceSumIndex<f64>>(e: &CornerBoxSum<I>, queries: &[Rect]) -> Vec<u64> {
        queries
            .iter()
            .map(|q| e.query(q).unwrap().to_bits())
            .collect()
    }

    fn assert_read_only(what: &str, got: Result<()>) {
        match got {
            Err(Error::ReadOnly { .. }) => {}
            other => panic!("{what} through a pinned handle: expected ReadOnly, got {other:?}"),
        }
    }

    /// A backend's own `persist_as` / `open_named` / `destroy`.
    struct Backend<I> {
        name: &'static str,
        persist: fn(&I, &str) -> Result<()>,
        open: fn(ReadHandle, &str) -> Result<I>,
        destroy: fn(I) -> Result<()>,
    }

    /// One row of the table: `live` (an empty engine over `store`) is
    /// filled, published and answered from four sources — itself, the
    /// first pin of the epoch (cold: decodes), a second pin of the same
    /// epoch (warm: decodes nothing), and both pins again after later
    /// commits rewrote their roots.
    fn one_engine_every_source<I>(store: &SharedStore, mut live: CornerBoxSum<I>, b: Backend<I>)
    where
        I: DominanceSumIndex<f64> + Sync,
    {
        let name = b.name;
        let mut s = 77u64;
        for i in 0..200 {
            live.insert(&rand_rect(&mut s, 2, 0.3), (i % 7) as f64 - 2.0)
                .unwrap();
        }
        let publish = |e: &CornerBoxSum<I>| {
            for (mask, index) in e.indexes().iter().enumerate() {
                (b.persist)(index, &corner_root_name(mask)).unwrap();
            }
            store.commit().unwrap();
        };
        let pin = |snap: StoreSnapshot| {
            let snap = Arc::new(snap);
            let engine = CornerBoxSum::new(2, |mask| {
                (b.open)(ReadHandle::from(&snap), &corner_root_name(mask))
            })
            .unwrap();
            (snap, engine)
        };
        publish(&live);
        let queries: Vec<Rect> = (0..60).map(|_| rand_rect(&mut s, 2, 0.5)).collect();
        let want = answers(&live, &queries);
        assert!(want.iter().any(|&w| w != 0), "{name}: degenerate workload");

        let (plain_snap, mut plain) = pin(store.snapshot().unwrap());
        assert_eq!(answers(&plain, &queries), want, "{name}: pinned cold");
        let (accesses, decodes) = plain_snap.node_reads();
        assert!(
            0 < decodes && decodes < accesses,
            "{name}: the epoch's first pin decodes each page once ({decodes} of {accesses})"
        );
        let (warm_snap, warm) = pin(store.snapshot().unwrap());
        assert_eq!(answers(&warm, &queries), want, "{name}: pinned warm");
        let (accesses, decodes) = warm_snap.node_reads();
        assert!(accesses > 0, "{name}: warm pin never read");
        assert_eq!(decodes, 0, "{name}: a second pin of the epoch decoded");

        // One pinned engine shared by `&` across two threads, both
        // released into `query` together.
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        answers(&plain, &queries)
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(
                    reader.join().unwrap(),
                    want,
                    "{name}: shared by two threads"
                );
            }
        });

        // Mutation through a pinned handle is a typed error — release
        // builds included — and leaves the store as it was.
        let obj = rand_rect(&mut s, 2, 0.3);
        assert_read_only("insert", plain.insert(&obj, 1.0));
        assert_read_only("delete", plain.delete(&obj, 1.0));
        assert_read_only("persist_as", (b.persist)(&plain.indexes()[0], "stolen"));
        let doomed = (b.open)(ReadHandle::from(&plain_snap), &corner_root_name(0)).unwrap();
        assert_read_only("destroy", (b.destroy)(doomed));
        assert!(store.root("stolen").unwrap().is_none());
        store.validate().unwrap();
        assert_eq!(
            answers(&live, &queries),
            want,
            "{name}: live after refusals"
        );
        assert_eq!(
            answers(&plain, &queries),
            want,
            "{name}: pin after refusals"
        );

        // Later commits — each rewrites every corner root — move the
        // live engine and nothing pinned, whichever side read last.
        for round in 0..3 {
            for i in 0..50 {
                live.insert(&rand_rect(&mut s, 2, 0.3), (i % 5) as f64 + 1.0)
                    .unwrap();
            }
            publish(&live);
            let moved = answers(&live, &queries);
            assert_ne!(moved, want, "{name}: live engine moved on");
            assert_eq!(
                answers(&plain, &queries),
                want,
                "{name}: pin moved by later commit {round}"
            );
            let (fresh_snap, fresh) = pin(store.snapshot().unwrap());
            assert_eq!(answers(&fresh, &queries), moved, "{name}: fresh pin");
            // The new epoch's nodes are cached now; the old pins must
            // never be served one.
            assert_eq!(answers(&plain, &queries), want, "{name}: cold pin");
            assert_eq!(answers(&warm, &queries), want, "{name}: warm pin");
            let (_, before) = fresh_snap.node_reads();
            assert_eq!(answers(&fresh, &queries), moved, "{name}: fresh again");
            assert_eq!(
                fresh_snap.node_reads().1,
                before,
                "{name}: a second pass over an unchanged epoch decoded"
            );
        }
    }

    #[test]
    fn one_engine_answers_bit_identically_from_every_source_on_every_backend() {
        let store = wal_store();
        one_engine_every_source(
            &store,
            SimpleBoxSum::batree_in(unit_space(2), store.clone()).unwrap(),
            Backend {
                name: "BA-tree",
                persist: BATree::persist_as,
                open: |pages, name| BATree::open_named(pages, name),
                destroy: BATree::destroy,
            },
        );
        for (name, policy) in [
            ("ECDF-Bu", BorderPolicy::UpdateOptimized),
            ("ECDF-Bq", BorderPolicy::QueryOptimized),
        ] {
            // Two ECDF roots beside each other in one catalog: also the
            // regression test for the asymmetric catalog codec.
            let store = wal_store();
            one_engine_every_source(
                &store,
                SimpleBoxSum::ecdf_in(2, policy, store.clone()).unwrap(),
                Backend {
                    name,
                    persist: EcdfBTree::persist_as,
                    open: |pages, name| EcdfBTree::open_named(pages, name),
                    destroy: EcdfBTree::destroy,
                },
            );
        }
    }

    #[test]
    fn catalog_opener_is_bit_identical_to_the_engine_it_persisted() {
        let store = wal_store();
        let space = unit_space(3);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 99u64;
        for i in 0..80 {
            live.insert(&rand_rect(&mut s, 3, 0.3), (i % 5) as f64 + 1.0)
                .unwrap();
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let (reopened, got_space) = open_corner_engine(&store).unwrap();
        let pinned = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        assert_eq!(got_space, space);
        for e in [&reopened, &pinned] {
            assert_eq!(e.dim(), 3);
            assert_eq!(e.len(), 80);
        }
        let queries: Vec<Rect> = (0..30).map(|_| rand_rect(&mut s, 3, 0.5)).collect();
        let want = answers(&live, &queries);
        assert_eq!(answers(&reopened, &queries), want);
        assert_eq!(answers(&pinned, &queries), want);
    }

    #[test]
    fn pinned_engine_keeps_its_epochs_count_across_later_commits() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let obj = Rect::from_bounds(&[(0.2, 0.4), (0.2, 0.4)]);
        live.insert(&obj, 5.0).unwrap();
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let pinned = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        let q = unit_space(2);
        assert_eq!(pinned.query(&q).unwrap(), 5.0);

        // Mutate and commit after the snapshot: the pinned engine keeps
        // answering from its epoch.
        live.insert(&obj, 3.0).unwrap();
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();
        assert_eq!(pinned.query(&q).unwrap(), 5.0);
        assert_eq!(pinned.len(), 1, "len frozen at the pinned epoch");
        assert_read_only("persist", persist_corner_engine(&pinned, &space));

        let fresh = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        assert_eq!(fresh.query(&q).unwrap(), 8.0);
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn raw_corner_terms_recompose_to_the_box_sum() {
        // What the serving protocol's dominance-sum request exposes:
        // clients recombining `indexes()[mask]` terms at
        // `corner_query_point` get `query`'s answer, bit for bit.
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 5u64;
        for i in 0..100 {
            live.insert(&rand_rect(&mut s, 2, 0.3), (i % 3) as f64 + 1.0)
                .unwrap();
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();
        let eng = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap();
        let q = rand_rect(&mut s, 2, 0.5);
        let mut acc = 0.0;
        for (mask, index) in eng.indexes().iter().enumerate() {
            let t = index
                .dominance_sum(&corner_query_point(&q, 2, mask))
                .unwrap();
            if (mask.count_ones() & 1) == 0 {
                acc += t;
            } else {
                acc -= t;
            }
        }
        assert_eq!(acc.to_bits(), eng.query(&q).unwrap().to_bits());
    }

    #[test]
    fn open_without_a_persisted_engine_is_a_typed_error() {
        let store = wal_store();
        store.commit().unwrap();
        let err = SnapshotBoxSum::open(store.snapshot().unwrap()).unwrap_err();
        assert!(err.to_string().contains("meta/objects"), "got: {err}");
        let err = open_corner_engine(&store).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("meta/objects"), "got: {err}");
    }

    #[test]
    fn each_tree_opens_only_its_own_kind_of_root() {
        let store = wal_store();
        let space = unit_space(2);
        let engine = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        persist_corner_engine(&engine, &space).unwrap();
        let ecdf: EcdfBTree<f64> =
            EcdfBTree::create(store.clone(), 2, BorderPolicy::QueryOptimized, 8).unwrap();
        ecdf.persist_as("ecdf").unwrap();
        store.commit().unwrap();
        let ba = corner_root_name(0);
        BATree::<f64>::open_named(&store, &ba).unwrap();
        EcdfBTree::<f64>::open_named(&store, "ecdf").unwrap();

        fn refused<T>(what: &str, got: Result<T>, wants: &[&str]) {
            match got {
                Err(Error::InvalidArgument(msg)) => {
                    for want in wants {
                        assert!(msg.contains(want), "{what}: {msg:?} lacks {want:?}");
                    }
                }
                Err(other) => panic!("{what}: {other:?}"),
                Ok(_) => panic!("{what}: opened"),
            }
        }
        let snap = Arc::new(store.snapshot().unwrap());
        for pages in [ReadHandle::from(&store), ReadHandle::from(&snap)] {
            for (name, kind) in [
                ("missing", None),
                ("ecdf", Some("EcdfQuery")),
                (OBJECTS_ROOT, Some("Meta")),
            ] {
                let got = BATree::<f64>::open_named(pages.clone(), name);
                refused(
                    name,
                    got,
                    &[name, kind.unwrap_or("no root named"), "BA-tree"],
                );
            }
            for (name, kind) in [
                ("missing", None),
                (ba.as_str(), Some("BaTree")),
                (OBJECTS_ROOT, Some("Meta")),
            ] {
                let got = EcdfBTree::<f64>::open_named(pages.clone(), name);
                refused(
                    name,
                    got,
                    &[name, kind.unwrap_or("no root named"), "ECDF-B-tree"],
                );
            }
        }
    }

    #[test]
    fn pinned_snapshots_share_index_levels_across_queries() {
        let store = wal_store();
        let space = unit_space(2);
        let mut live = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
        let mut s = 31u64;
        for i in 0..400 {
            live.insert(&rand_rect(&mut s, 2, 0.2), (i % 4) as f64 + 1.0)
                .unwrap();
        }
        persist_corner_engine(&live, &space).unwrap();
        store.commit().unwrap();

        let queries: Vec<Rect> = (0..16).map(|_| rand_rect(&mut s, 2, 0.4)).collect();

        // Unbatched: one snapshot per query, `(answers, accesses,
        // decodes)` over the pass.
        let serial_pass = || {
            let mut answers = Vec::new();
            let (mut accesses, mut decodes) = (0u64, 0u64);
            for q in &queries {
                let snap = Arc::new(store.snapshot().unwrap());
                let eng = SnapshotBoxSum::open(&snap).unwrap();
                answers.push(eng.query(q).unwrap());
                let (a, d) = snap.node_reads();
                accesses += a;
                decodes += d;
            }
            (answers, accesses, decodes)
        };
        // The first pass after the commit decodes each page it touches
        // once, whichever query's snapshot got there first.
        let (serial_answers, accesses, decodes) = serial_pass();
        assert!(
            0 < decodes && decodes < accesses,
            "cold pass never shared: {decodes} decodes for {accesses} accesses"
        );
        // A second pass on the unchanged epoch decodes nothing,
        // unbatched...
        let (again, _, decodes) = serial_pass();
        assert_eq!(decodes, 0, "unbatched pass over an unchanged epoch decoded");
        // ...or batched: one snapshot executes the whole batch.
        let snap = Arc::new(store.snapshot().unwrap());
        let eng = SnapshotBoxSum::open(&snap).unwrap();
        let batched_answers: Vec<f64> = queries.iter().map(|q| eng.query(q).unwrap()).collect();
        assert_eq!(snap.node_reads().1, 0, "batched pass decoded");

        for ((a, b), c) in serial_answers.iter().zip(&batched_answers).zip(&again) {
            assert_eq!(a.to_bits(), b.to_bits(), "batching must be invisible");
            assert_eq!(a.to_bits(), c.to_bits(), "the cache must be invisible");
        }
    }
}
