//! The on-disk format, pinned on both sides by a committed store.
//!
//! `tests/golden/v3.pages` + `v3.pages.wal` are a small format-v3 store:
//! a 2-d BA-tree corner engine over 512-byte pages, [`APPLIED`] seeded
//! objects committed and applied in place, and one more transaction —
//! the remaining inserts and one delete — committed in the log but
//! never applied (the commit's in-place writes were killed with a
//! `FaultPager`), so opening them exercises recovery, and opening them
//! read-only the log overlay.
//!
//! * Reading: every build must open these bytes, recover them,
//!   validate, and answer [`BOXES`] seeded boxes bit-for-bit as
//!   [`ANSWERS`] records — the page codecs, the catalog, the record
//!   framing and both checksums all sit under that.
//! * Writing: rebuilding the store from its seed must reproduce the
//!   committed files byte for byte — so a change to anything a writer
//!   emits fails here and is made deliberately, not by drift. A new
//!   format (ROADMAP item 1's redo records, say) bumps the version and
//!   replaces the files. A change to what the trees write in the same
//!   format (how a split rebuilds a border, say) keeps the version: the
//!   old files must still open and answer [`ANSWERS`] before the files
//!   and the answers are regenerated.
//! * Bulk loading: [`BULK_DIGESTS`] pins a digest of every page four
//!   seeded bulk loads write, so a change to how the loader computes a
//!   tree cannot change what it writes.
//!
//! To regenerate: `cargo test --test golden_store -- --ignored
//! --nocapture` rewrites the files and prints the answers to paste.
//! After a version bump, write `v<N>` files and keep the old ones only
//! if a reader for them is kept.

use std::path::{Path, PathBuf};

use boxagg::common::{Point, Poly, Rect};
use boxagg::core::catalog::{open_corner_engine, persist_corner_engine};
use boxagg::engine::{FunctionalBoxSum, SimpleBoxSum};
use boxagg::functional::FunctionalObject;
use boxagg::pagestore::fault::is_injected;
use boxagg::pagestore::pager::wal_path;
use boxagg::pagestore::{
    Backing, FaultPager, FaultSpec, FilePager, OpFilter, PageId, SharedStore, StoreConfig,
};
use boxagg_common::rng::StdRng;
use boxagg_common::tempdir;

const SEED: u64 = 0x601D_E002;
const PAGE: usize = 512;
const OBJECTS: usize = 300;
/// Objects of the first, fully applied transaction.
const APPLIED: usize = 297;
/// Leading objects of the first transaction the pending one deletes.
const DELETED: usize = 1;
const BOXES: usize = 32;

/// `to_bits()` of the answers to the seeded boxes, in order.
const ANSWERS: [u64; BOXES] = [
    0x406a_893d_ae0d_3ed5,
    0x4047_f133_17e9_566c,
    0x405d_8e5b_3fe5_a6ea,
    0x4070_0d67_24ec_f252,
    0x4050_8ed6_123f_810a,
    0x406d_6319_870c_6b2a,
    0x4048_bb46_a4c9_a914,
    0x404a_52c4_1258_c2eb,
    0x4061_0f1a_0cf3_98e8,
    0x4047_71fa_e3ff_8c15,
    0x4055_2115_73a3_6fef,
    0x4059_b7f5_cd5b_9160,
    0x4061_8656_7702_91c7,
    0x4066_73a7_f97f_6d4a,
    0x4036_cce2_b671_6c08,
    0x4033_ecdf_0578_8ada,
    0x405e_7987_7651_a1e0,
    0x4032_4bcb_2150_abc8,
    0x4055_9f61_0a79_7e1e,
    0x4056_9309_ed56_0376,
    0x4038_8b39_33de_ae0e,
    0x4078_33e9_147c_dd33,
    0x4070_e162_085b_2709,
    0x4026_6596_4af8_4af0,
    0x4056_23be_8197_7837,
    0x405b_e469_cde6_2615,
    0x4067_76ad_d121_d60c,
    0x4066_a418_8855_3124,
    0x4064_611c_6742_9444,
    0x4055_18eb_0084_59ee,
    0x4044_7f1d_0299_9652,
    0x4050_8afe_1af5_d9c4,
];

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/v3.pages")
}

fn config(path: &Path) -> StoreConfig {
    StoreConfig {
        page_size: PAGE,
        buffer_pages: 64,
        backing: Backing::File(path.to_path_buf()),
        node_cache_pages: 64,
        wal: true,
    }
}

fn seeded_rect(rng: &mut StdRng, dim: usize, max_side: f64) -> Rect {
    let low = Point::from_fn(dim, |_| rng.gen::<f64>() * (1.0 - max_side));
    let high = Point::from_fn(dim, |i| low.get(i) + rng.gen::<f64>() * max_side);
    Rect::new(low, high)
}

/// The store's objects, then its query boxes, from one seeded stream.
fn inputs() -> (Vec<(Rect, f64)>, Vec<Rect>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let objects = (0..OBJECTS)
        .map(|_| (seeded_rect(&mut rng, 2, 0.1), rng.gen::<f64>() * 10.0 - 2.0))
        .collect();
    let boxes = (0..BOXES).map(|_| seeded_rect(&mut rng, 2, 0.5)).collect();
    (objects, boxes)
}

/// Writes the golden store at `path`.
fn build(path: &Path) {
    let (objects, _) = inputs();
    let space = Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]);
    let file = FilePager::create(path, PAGE).unwrap();
    let (pager, faults) = FaultPager::new(Box::new(file));
    let store = SharedStore::open_with_pager(Box::new(pager), &config(path)).unwrap();
    let mut engine = SimpleBoxSum::batree_in(space, store.clone()).unwrap();
    for (rect, value) in &objects[..APPLIED] {
        engine.insert(rect, *value).unwrap();
    }
    persist_corner_engine(&engine, &space).unwrap();
    store.commit().unwrap();
    // The pending transaction: logged, synced, then every in-place
    // write refused — committed, and in the log only.
    for (rect, value) in &objects[APPLIED..] {
        engine.insert(rect, *value).unwrap();
    }
    for (rect, value) in &objects[..DELETED] {
        engine.delete(rect, *value).unwrap();
    }
    persist_corner_engine(&engine, &space).unwrap();
    faults.arm(FaultSpec::sticky_from(OpFilter::Writes, 0));
    let err = store.commit().unwrap_err();
    assert!(is_injected(&err), "got: {err}");
}

fn answers(store: &SharedStore) -> Vec<u64> {
    let (engine, space) = open_corner_engine(store).unwrap();
    assert_eq!(space, Rect::from_bounds(&[(0.0, 1.0), (0.0, 1.0)]));
    assert_eq!(engine.len(), OBJECTS - DELETED);
    let (_, boxes) = inputs();
    boxes
        .iter()
        .map(|b| engine.query(b).unwrap().to_bits())
        .collect()
}

#[test]
fn golden_v3_store_opens_recovers_and_answers_bit_identically() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("v3.pages");
    std::fs::copy(golden(), &path).unwrap();
    std::fs::copy(wal_path(golden()), wal_path(&path)).unwrap();
    let pages = std::fs::read(&path).unwrap();
    let log = std::fs::read(wal_path(&path)).unwrap();

    // Read-only first: the pending transaction is overlaid from the
    // log, and neither file changes.
    let store = SharedStore::open_readonly(&config(&path)).unwrap();
    store.validate().unwrap();
    assert_eq!(answers(&store), ANSWERS, "read-only open");
    drop(store);
    assert_eq!(std::fs::read(&path).unwrap(), pages);
    assert_eq!(std::fs::read(wal_path(&path)).unwrap(), log);

    // Read-write: recovery replays the transaction and drops the log.
    let store = SharedStore::open(&config(&path)).unwrap();
    let report = store.recovery_report();
    assert_eq!(report.txns_replayed, 1);
    assert!(!report.torn_tail_discarded && !report.incomplete_txn_discarded);
    store.validate().unwrap();
    assert_eq!(answers(&store), ANSWERS, "recovering open");
    drop(store);
    assert_ne!(std::fs::read(&path).unwrap(), pages, "replayed in place");
    assert!(std::fs::read(wal_path(&path)).unwrap().is_empty());
}

#[test]
fn rebuilding_from_the_seed_reproduces_the_golden_bytes() {
    let dir = tempdir::tempdir().unwrap();
    let path = dir.path().join("v3.pages");
    build(&path);
    let same = |a: &Path, b: &Path| std::fs::read(a).unwrap() == std::fs::read(b).unwrap();
    assert!(
        same(&path, &golden()),
        "the data file a build writes today differs from tests/golden/v3.pages: \
         a writer moved — see this file's docs for when to bump superblock::VERSION"
    );
    assert!(
        same(&wal_path(&path), &wal_path(golden())),
        "the log a build writes today differs from tests/golden/v3.pages.wal: \
         a writer moved — see this file's docs for when to bump superblock::VERSION"
    );
}

#[test]
#[ignore = "rewrites tests/golden/ — run only on a deliberate change to what a writer emits"]
fn regenerate_golden_store() {
    std::fs::create_dir_all(golden().parent().unwrap()).unwrap();
    build(&golden());
    let store = SharedStore::open_readonly(&config(&golden())).unwrap();
    println!("const ANSWERS: [u64; BOXES] = [");
    for bits in answers(&store) {
        println!("    {bits:#018x},");
    }
    println!("];");
    for file in [golden(), wal_path(golden())] {
        let bytes = std::fs::metadata(&file).unwrap().len();
        println!("{}: {bytes} bytes", file.display());
    }
}

/// `(input, pages, digest)` of each bulk load [`bulk_digests`] makes:
/// the pages it allocated, and FNV-1a 64 over every page's bytes in
/// page order.
const BULK_DIGESTS: [(&str, u64, u64); 4] = [
    (
        "2-d grid with duplicates, 512-byte pages",
        1521,
        0xc585_14ad_638f_45b5,
    ),
    ("3-d, 512-byte pages", 2470, 0x5b63_91f4_c475_85f9),
    (
        "2-d functional, 512-byte pages",
        1537,
        0xa3ad_db80_c847_f7ad,
    ),
    ("2-d, 8 KB pages", 767, 0xe8aa_8ef1_91b1_c053),
];

/// The page count of `store` and FNV-1a 64 over every page's bytes, in
/// page order.
fn page_digest(store: &SharedStore) -> (u64, u64) {
    let pages = store.allocated_pages();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for id in 0..pages {
        store
            .with_page(PageId(id), |bytes| {
                for &b in bytes {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            })
            .unwrap();
    }
    (pages, hash)
}

/// Bulk-loads the seeded inputs of [`BULK_DIGESTS`] into fresh memory
/// stores and digests each store's pages.
fn bulk_digests() -> Vec<(&'static str, u64, u64)> {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xB01C);
    let unit = |dim: usize| Rect::from_bounds(&vec![(0.0, 1.0); dim]);
    let small = || StoreConfig::small(PAGE, 64);
    let mut digests = Vec::new();
    let mut push = |name: &'static str, store: &SharedStore| {
        let (pages, digest) = page_digest(store);
        digests.push((name, pages, digest));
    };

    // At 512 bytes no border entry fits inline, so every non-empty
    // border spills into its own tree. A 1/50 grid puts ties on every
    // cut and coincident corners everywhere, and the first 300 objects
    // come twice.
    let mut grid: Vec<(Rect, f64)> = (0..2500)
        .map(|_| {
            let low = Point::from_fn(2, |_| rng.gen_range(0..45) as f64 / 50.0);
            let high = Point::from_fn(2, |i| low.get(i) + rng.gen_range(0..6) as f64 / 50.0);
            (Rect::new(low, high), rng.gen::<f64>() * 10.0 - 2.0)
        })
        .collect();
    grid.extend_from_within(..300);
    let engine = SimpleBoxSum::batree_bulk(unit(2), small(), &grid).unwrap();
    push(BULK_DIGESTS[0].0, engine.indexes()[0].store());

    // A 3-d tree's borders are 2-d trees, built by the same loader.
    let cube: Vec<(Rect, f64)> = (0..400)
        .map(|_| (seeded_rect(&mut rng, 3, 0.2), rng.gen::<f64>() * 10.0 - 2.0))
        .collect();
    let engine = SimpleBoxSum::batree_bulk(unit(3), small(), &cube).unwrap();
    push(BULK_DIGESTS[1].0, engine.indexes()[0].store());

    // Polynomial values: one tree of corner tuples.
    let functional: Vec<FunctionalObject> = (0..300)
        .map(|_| {
            let f = Poly::constant(rng.gen::<f64>() * 4.0 - 1.0);
            FunctionalObject::new(seeded_rect(&mut rng, 2, 0.1), f).unwrap()
        })
        .collect();
    let engine = FunctionalBoxSum::batree_bulk(unit(2), small(), 0, &functional).unwrap();
    push(BULK_DIGESTS[2].0, engine.index().store());

    // At 8 KB a border of up to five entries stays inline, and a border
    // tree's top level of up to three records stays in its record.
    let wide: Vec<(Rect, f64)> = (0..12_000)
        .map(|_| {
            (
                seeded_rect(&mut rng, 2, 0.02),
                rng.gen::<f64>() * 10.0 - 2.0,
            )
        })
        .collect();
    let engine = SimpleBoxSum::batree_bulk(unit(2), StoreConfig::small(8192, 64), &wide).unwrap();
    push(BULK_DIGESTS[3].0, engine.indexes()[0].store());
    digests
}

#[test]
fn bulk_loads_write_the_pinned_page_images() {
    let got = bulk_digests();
    let lines: Vec<String> = got
        .iter()
        .map(|(name, pages, digest)| format!("    ({name:?}, {pages}, {digest:#018x}),"))
        .collect();
    assert!(
        got == BULK_DIGESTS,
        "a bulk load wrote other pages; they now read\n{}",
        lines.join("\n")
    );
}
