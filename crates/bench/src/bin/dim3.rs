//! **Generalization check** — 3-dimensional box aggregation.
//!
//! The paper's §2/§5 constructions generalize beyond the 2-d evaluation:
//! the corner reduction needs `2³ = 8` dominance-sums and the 3-d
//! BA-tree recurses through 2-d borders into 1-d base trees. This
//! experiment runs the spatio-temporal setting the introduction
//! motivates (2-d space × time): uniform boxes in the unit cube, square
//! queries over a QBS sweep, BAT vs aR, with cross-scheme checksum
//! agreement asserted.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin dim3 [--n N]`

use boxagg_bench::{fmt_u64, print_table, Args, QBS_SWEEP};
use boxagg_common::geom::{Point, Rect};
use boxagg_common::rng::StdRng;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_pagestore::SharedStore;
use boxagg_rstar::RStarTree;
use boxagg_workload::gen_queries;

fn main() -> boxagg_common::error::Result<()> {
    let args = Args::parse_with(100_000, 2);
    eprintln!("dim3: n = {}, {} queries per QBS", args.n, args.queries);
    let space = Rect::new(Point::zeros(3), Point::splat(3, 1.0));

    // 3-d objects: mean side 1/100 per dimension (a day's interval in a
    // year, a field in a county).
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut objects: Vec<(Rect, f64)> = Vec::with_capacity(args.n);
    for _ in 0..args.n {
        let low = Point::from_fn(3, |_| rng.gen::<f64>() * 0.99);
        let high = Point::from_fn(3, |i| (low.get(i) + rng.gen::<f64>() * 0.02).min(1.0));
        objects.push((Rect::new(low, high), 1.0 + rng.gen::<f64>() * 9.0));
    }

    let t0 = std::time::Instant::now();
    let bat = SimpleBoxSum::batree_bulk(space, args.store_config(), &objects).expect("bulk BAT");
    let bat_store = bat.indexes()[0].store().clone();
    eprintln!(
        "  BAT (8 corner trees) built ({:.1}s, {:.1} MiB)",
        t0.elapsed().as_secs_f64(),
        bat_store.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    let t0 = std::time::Instant::now();
    let store = SharedStore::open(&args.store_config()).expect("store");
    let objs3: Vec<(Rect, f64, ())> = objects.iter().map(|(r, v)| (*r, *v, ())).collect();
    let mut ar: RStarTree<()> = RStarTree::bulk_load(store.clone(), 3, 0, objs3).expect("bulk aR");
    eprintln!(
        "  aR built ({:.1}s, {:.1} MiB)",
        t0.elapsed().as_secs_f64(),
        store.size_bytes() as f64 / (1024.0 * 1024.0)
    );

    let mut rows = Vec::new();
    for (qi, &qbs) in QBS_SWEEP.iter().enumerate() {
        let queries = gen_queries(3, args.queries, qbs, 990 + qi as u64);
        bat_store.reset_stats();
        let mut sum_b = 0.0;
        for q in &queries {
            sum_b += bat.query(q)?;
        }
        let bat_ios = bat_store.stats().total();

        store.reset_stats();
        let mut sum_a = 0.0;
        for q in &queries {
            sum_a += ar.box_sum(q)?.sum;
        }
        let ar_ios = store.stats().total();
        assert!(
            (sum_a - sum_b).abs() < 1e-6 * sum_a.abs().max(1.0),
            "3-d schemes disagree: {sum_a} vs {sum_b}"
        );
        eprintln!(
            "  QBS {:>6}%: aR {} | BAT {}",
            qbs * 100.0,
            fmt_u64(ar_ios),
            fmt_u64(bat_ios)
        );
        rows.push(vec![
            format!("{}%", qbs * 100.0),
            fmt_u64(ar_ios),
            fmt_u64(bat_ios),
        ]);
    }
    print_table(
        &format!(
            "3-d box-sum: total I/Os over {} queries (n = {}, 8 dominance-sums per query)",
            args.queries,
            fmt_u64(args.n as u64)
        ),
        &["QBS", "aR", "BAT"],
        &rows,
    );
    Ok(())
}
