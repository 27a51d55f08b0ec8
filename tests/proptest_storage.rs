//! Randomized model tests of the storage substrate: the buffer pool
//! must behave exactly like a trivial model (a vector of page images)
//! under arbitrary interleavings of allocate / write / read / free /
//! flush, for any pool capacity. Deterministic seeds — the workspace
//! builds offline, without the `proptest` crate.

use boxagg::pagestore::{BufferPool, MemPager, PageId};
use boxagg_common::rng::StdRng;

#[derive(Debug, Clone)]
enum Op {
    Allocate,
    /// Write `fill` to page `idx % live` (skipped when none live).
    Write(u8, usize),
    /// Read page `idx % live`.
    Read(usize),
    /// Free page `idx % live`.
    Free(usize),
    Flush,
}

fn gen_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..12) {
        0 | 1 => Op::Allocate,
        2..=5 => Op::Write(rng.gen::<u8>(), rng.gen_range(0..64)),
        6..=9 => Op::Read(rng.gen_range(0..64)),
        10 => Op::Free(rng.gen_range(0..64)),
        _ => Op::Flush,
    }
}

fn run_case(capacity: usize, ops: &[Op]) {
    let pool = BufferPool::new(Box::new(MemPager::new(128)), capacity);
    // The pool exposes page *payloads* (the checksum trailer is
    // reserved inside the page), so the model mirrors payload images.
    let page = pool.payload_size();
    // Model: id → current contents (None = freed).
    let mut model: Vec<Option<Vec<u8>>> = Vec::new();
    let live = |m: &Vec<Option<Vec<u8>>>| -> Vec<usize> {
        m.iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .map(|(i, _)| i)
            .collect()
    };

    for o in ops {
        match *o {
            Op::Allocate => {
                let id = pool.allocate().unwrap();
                let idx = id.0 as usize;
                if idx < model.len() {
                    // Recycled page.
                    assert!(model[idx].is_none(), "allocator reused a live page");
                    model[idx] = Some(vec![0u8; page]);
                } else {
                    assert_eq!(idx, model.len(), "non-dense allocation");
                    model.push(Some(vec![0u8; page]));
                }
                // Fresh/recycled pages must be written before read;
                // write a known pattern right away like real callers.
                pool.write_page(id, &[idx as u8; 16]).unwrap();
                let mut img = vec![0u8; page];
                img[..16].copy_from_slice(&[idx as u8; 16]);
                model[idx] = Some(img);
            }
            Op::Write(fill, i) => {
                let ids = live(&model);
                if ids.is_empty() {
                    continue;
                }
                let idx = ids[i % ids.len()];
                pool.write_page(PageId(idx as u64), &[fill; 100]).unwrap();
                let mut img = vec![0u8; page];
                img[..100].copy_from_slice(&[fill; 100]);
                model[idx] = Some(img);
            }
            Op::Read(i) => {
                let ids = live(&model);
                if ids.is_empty() {
                    continue;
                }
                let idx = ids[i % ids.len()];
                let got = pool.with_page(PageId(idx as u64), |d| d.to_vec()).unwrap();
                assert_eq!(
                    &got,
                    model[idx].as_ref().unwrap(),
                    "page {idx} contents diverged"
                );
            }
            Op::Free(i) => {
                let ids = live(&model);
                if ids.is_empty() {
                    continue;
                }
                let idx = ids[i % ids.len()];
                pool.free_page(PageId(idx as u64)).unwrap();
                model[idx] = None;
                // A second free of the same page must be rejected.
                assert!(pool.free_page(PageId(idx as u64)).is_err());
            }
            Op::Flush => pool.flush_all().unwrap(),
        }
        assert_eq!(
            pool.live_pages() as usize,
            live(&model).len(),
            "live-page accounting diverged"
        );
        assert!(pool.resident() <= capacity, "capacity exceeded");
        pool.validate()
            .expect("pool invariants must hold after every op");
    }

    // Final sweep: every live page readable and correct.
    for idx in live(&model) {
        let got = pool.with_page(PageId(idx as u64), |d| d.to_vec()).unwrap();
        assert_eq!(&got, model[idx].as_ref().unwrap());
    }
}

#[test]
fn buffer_pool_matches_model() {
    let mut rng = StdRng::seed_from_u64(0x10DE1);
    for _ in 0..128 {
        let capacity = 1 + rng.gen_range(0..5);
        let n_ops = 1 + rng.gen_range(0..119);
        let ops: Vec<Op> = (0..n_ops).map(|_| gen_op(&mut rng)).collect();
        run_case(capacity, &ops);
    }
}
