//! **Ablations** called out in DESIGN.md:
//!
//! 1. *Reduction ablation* — the corner reduction (Theorem 2) versus the
//!    Edelsbrunner–Overmars reduction (Theorem 1) over identical BA-tree
//!    backends, measured in actual I/Os per box-sum query (the EO engine
//!    issues `3^d − 1` dominance-sums instead of `2^d`, and in 2-d four
//!    of its indexes are consulted twice per query).
//! 2. *Page-size ablation* — the BA-tree's query/update I/O as the page
//!    size varies (the `√B` borders-touched-per-split tradeoff of §5).
//!
//! Usage: `cargo run --release -p boxagg-bench --bin ablation [--n N]`

use boxagg_bench::{fmt_u64, print_table, Args};
use boxagg_core::engine::SimpleBoxSum;
use boxagg_core::reduction::EoBoxSum;
use boxagg_pagestore::{SharedStore, StoreConfig};
use boxagg_workload::gen_queries;

fn main() -> boxagg_common::error::Result<()> {
    let args = Args::parse(30_000);
    let objects = args.dataset();
    let queries = gen_queries(2, args.queries.min(300), 0.01, 555);
    eprintln!(
        "ablation: n = {}, {} queries at QBS 1%",
        args.n,
        queries.len()
    );

    // --- 1. corner vs EO reduction over BA-trees ------------------------
    let mut corner = SimpleBoxSum::batree(args.space(), args.store_config())?;
    let mut eo = EoBoxSum::batree(args.space(), args.store_config())?;
    for (r, v) in &objects {
        corner.insert(r, *v)?;
        eo.insert(r, *v)?;
    }
    eprintln!("  engines built");

    let corner_store = corner.indexes()[0].store().clone();
    corner_store.reset_stats();
    let mut sum_c = 0.0;
    for q in &queries {
        sum_c += corner.query(q)?;
    }
    let corner_ios = corner_store.stats().total();

    let eo_store = eo.indexes()[0].store().clone();
    eo_store.reset_stats();
    let mut sum_e = 0.0;
    for q in &queries {
        sum_e += eo.query(q)?;
    }
    let eo_ios = eo_store.stats().total();
    assert!(
        (sum_c - sum_e).abs() < 1e-6 * sum_c.abs().max(1.0),
        "reductions disagree: {sum_c} vs {sum_e}"
    );

    print_table(
        "Ablation 1: reduction choice over identical BA-tree backends (d = 2)",
        &[
            "reduction",
            "dominance queries",
            "total I/Os",
            "I/Os per box-sum",
        ],
        &[
            vec![
                "corner (2^d)".into(),
                fmt_u64(4 * queries.len() as u64),
                fmt_u64(corner_ios),
                format!("{:.1}", corner_ios as f64 / queries.len() as f64),
            ],
            vec![
                "EO (3^d - 1)".into(),
                fmt_u64(8 * queries.len() as u64),
                fmt_u64(eo_ios),
                format!("{:.1}", eo_ios as f64 / queries.len() as f64),
            ],
        ],
    );
    drop(corner);
    drop(eo);

    // --- 2. page size sweep on the BAT scheme ---------------------------
    let mut rows = Vec::new();
    for page_size in [2048usize, 4096, 8192, 16384] {
        let buffer_pages = (args.buffer_mb * 1024 * 1024 / page_size).max(1);
        let cfg = StoreConfig {
            page_size,
            buffer_pages,
            backing: Default::default(),
            node_cache_pages: buffer_pages,
            wal: false,
        };
        let store = SharedStore::open(&cfg)?;
        let mut engine = SimpleBoxSum::batree_in(args.space(), store.clone())?;
        let t0 = std::time::Instant::now();
        for (r, v) in &objects {
            engine.insert(r, *v)?;
        }
        let build_secs = t0.elapsed().as_secs_f64();
        store.reset_stats();
        for q in &queries {
            engine.query(q)?;
        }
        let q_ios = store.stats().total() as f64 / queries.len() as f64;
        eprintln!("  page {page_size}: {q_ios:.1} I/Os per query");
        rows.push(vec![
            page_size.to_string(),
            fmt_u64(store.live_pages()),
            format!("{:.1}", store.size_bytes() as f64 / (1024.0 * 1024.0)),
            format!("{q_ios:.1}"),
            format!("{build_secs:.1}"),
        ]);
    }
    print_table(
        "Ablation 2: BA-tree (corner engine) vs page size, QBS 1%",
        &["page B", "pages", "MiB", "I/Os per query", "build s"],
        &rows,
    );
    Ok(())
}
