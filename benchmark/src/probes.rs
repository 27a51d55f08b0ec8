//! Unit-cost probes: tight loops over one public function of a layer,
//! on small inputs of their own. They do not depend on the workload, so
//! every traced run reports them; a later change to a layer should move
//! its probe and, through it, the end-to-end metric BENCHMARK.json
//! names beside it.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::{HornerEval, Poly};
use boxagg_common::rng::StdRng;
use boxagg_common::slab::EntrySlab;
use boxagg_common::value::AggValue;
use boxagg_core::functional::corner_tuples;
use boxagg_pagestore::{Backing, PageId, SharedStore, StoreConfig};
use boxagg_serve::proto::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
};
use boxagg_serve::{Request, Response};

use crate::inputs::functional_objects;
use crate::metrics::Measured;
use crate::stats::median;

/// Entries of a full 2-d `f64` leaf in an 8 KB page (24 B each).
const LEAF_ENTRIES: usize = 340;

/// Nanoseconds per call of `f`: the median over batches of `batch`
/// calls, run until `budget` has passed (at least five batches).
fn ns_per_call(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch {
        f(); // warm caches and lazy state
    }
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&per_call)
}

fn leaf_slab(seed: u64) -> (EntrySlab<f64>, Vec<Point>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51AB);
    let mut slab = EntrySlab::with_capacity(2, LEAF_ENTRIES);
    for _ in 0..LEAF_ENTRIES {
        let p = Point::from_fn(2, |_| rng.gen::<f64>());
        slab.push(&p, 1.0 + rng.gen::<f64>() * 99.0);
    }
    // Per-dimension pass rates around one half: the scan's worst case.
    let probes = (0..64)
        .map(|_| Point::from_fn(2, |_| 0.3 + 0.4 * rng.gen::<f64>()))
        .collect();
    (slab, probes)
}

fn encoded_leaf(slab: &EntrySlab<f64>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    slab.encode_entries(&mut w);
    w.into_vec()
}

fn decode_leaf(bytes: &[u8]) -> boxagg_common::error::Result<EntrySlab<f64>> {
    EntrySlab::decode_entries(&mut ByteReader::new(bytes), 2, LEAF_ENTRIES)
}

/// A store holding one page with an encoded full leaf.
fn one_leaf_store(slab: &EntrySlab<f64>, wal: bool) -> (SharedStore, PageId) {
    let store = SharedStore::open(&StoreConfig::default().with_wal(wal)).expect("probe store");
    let id = store.allocate().expect("allocate probe page");
    store
        .write_page(id, &encoded_leaf(slab))
        .expect("write probe page");
    if wal {
        store.commit().expect("commit probe page");
    }
    (store, id)
}

/// Runs every probe for `budget` each and records its metric. `dir` is
/// where the page-miss probe keeps its file.
pub fn run(budget: Duration, seed: u64, dir: &Path, out: &mut Measured) {
    out.set(
        "harness.timer_ns",
        ns_per_call(budget, 10_000, || {
            black_box(Instant::now().elapsed());
        }),
    );

    let (slab, points) = leaf_slab(seed);
    let mut next = 0;
    let per_scan = ns_per_call(budget, 2_000, || {
        let mut acc = 0.0f64;
        slab.sum_dominated_into(black_box(&points[next % points.len()]), &mut acc);
        black_box(acc);
        next += 1;
    });
    out.set(
        "common.slab_scan_ns_per_entry",
        per_scan / LEAF_ENTRIES as f64,
    );

    out.set("common.horner_ns_per_eval", horner(budget, seed));

    let (store, id) = one_leaf_store(&slab, false);
    store
        .read_node(id, decode_leaf)
        .expect("first read decodes");
    out.set(
        "pagestore.read_node_hit_ns",
        ns_per_call(budget, 5_000, || {
            black_box(store.read_node(id, decode_leaf).expect("resident node"));
        }),
    );

    let (store, id) = one_leaf_store(&slab, true);
    let snap = store.snapshot().expect("snapshot of a WAL store");
    out.set(
        "pagestore.snapshot_read_node_ns",
        ns_per_call(budget, 500, || {
            black_box(snap.read_node(id, decode_leaf).expect("snapshot node"));
        }),
    );
    drop(snap);
    out.set(
        "pagestore.snapshot_pin_ns",
        ns_per_call(budget, 5_000, || {
            black_box(store.snapshot().expect("pin"));
        }),
    );

    out.set("pagestore.page_miss_us", page_miss(budget, dir) / 1e3);

    let (encode, decode) = proto(budget);
    out.set("serve.proto_encode_ns", encode);
    out.set("serve.proto_decode_ns", decode);
}

/// `HornerEval` on degree-2 corner tuples aggregated over a handful of
/// objects, as a dominance-sum hands them to `oifbs`.
fn horner(budget: Duration, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4082);
    let boxes: Vec<(Rect, f64)> = (0..16)
        .map(|_| {
            let low = Point::from_fn(2, |_| rng.gen::<f64>() * 0.5);
            let high = Point::from_fn(2, |i| low.get(i) + 0.1 + rng.gen::<f64>() * 0.4);
            (Rect::new(low, high), 1.0 + rng.gen::<f64>() * 99.0)
        })
        .collect();
    let mut tuple = Poly::new();
    for obj in functional_objects(&boxes, boxes.len(), seed) {
        for (_, p) in corner_tuples(&obj) {
            tuple.add_assign(&p);
        }
    }
    let at: Vec<Point> = (0..64)
        .map(|_| Point::from_fn(2, |_| rng.gen::<f64>()))
        .collect();
    let mut eval = HornerEval::new();
    let mut next = 0;
    ns_per_call(budget, 5_000, || {
        black_box(eval.eval(&tuple, black_box(&at[next % at.len()])));
        next += 1;
    })
}

/// `with_page` cycling through more pages than the buffer holds, on a
/// file: every access is a miss (pager read + checksum verify).
fn page_miss(budget: Duration, dir: &Path) -> f64 {
    const PAGES: u64 = 1024;
    let path = dir.join("probe-miss.pages");
    let config = StoreConfig {
        buffer_pages: 64,
        node_cache_pages: 64,
        backing: Backing::File(path.clone()),
        ..StoreConfig::default()
    };
    let store = SharedStore::open(&config).expect("open miss-probe store");
    let payload = vec![0xA5u8; store.payload_size()];
    let ids: Vec<PageId> = (0..PAGES)
        .map(|_| {
            let id = store.allocate().expect("allocate");
            store.write_page(id, &payload).expect("write");
            id
        })
        .collect();
    store.flush().expect("flush miss-probe store");
    let before = store.stats();
    let mut next = 0;
    let ns = ns_per_call(budget, PAGES, || {
        let first = store
            .with_page(ids[next % ids.len()], |bytes| bytes[0])
            .expect("read page");
        black_box(first);
        next += 1;
    });
    let delta = store.stats().since(&before);
    assert_eq!(delta.hits, 0, "the miss probe must never hit the buffer");
    drop(store);
    // Best-effort: the run's scratch directory is removed anyway.
    let _ = std::fs::remove_file(&path);
    ns
}

/// Encode (`encode_* + write_frame`) and decode (`read_frame +
/// decode_*`) of one box-sum request and its reply, on memory buffers.
fn proto(budget: Duration) -> (f64, f64) {
    let request = Request::BoxSum(Rect::from_bounds(&[(0.25, 0.26), (0.5, 0.51)]));
    let response = Response::Sum(12_345.678);
    let mut wire = Vec::with_capacity(256);
    let encode = ns_per_call(budget, 5_000, || {
        wire.clear();
        write_frame(&mut wire, &encode_request(black_box(&request))).expect("vec write");
        write_frame(&mut wire, &encode_response(black_box(&response))).expect("vec write");
        black_box(&wire);
    });
    let decode = ns_per_call(budget, 5_000, || {
        let mut r = black_box(wire.as_slice());
        let body = read_frame(&mut r).expect("frame").expect("request frame");
        black_box(decode_request(&body).expect("request"));
        let body = read_frame(&mut r).expect("frame").expect("response frame");
        black_box(decode_response(&body).expect("response"));
    });
    (encode, decode)
}
