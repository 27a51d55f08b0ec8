//! **§6 text claim** — "the BA-tree approach has a query time over 200
//! times faster than the plain R*-tree approach".
//!
//! Compares, over a QBS sweep, the plain R*-tree (range scan
//! accumulating object values), the aR-tree (aggregate shortcut) and the
//! BA-tree behind the corner reduction. Reports total I/Os and the
//! plain-R*/BAT ratio. Expected shape: the ratio grows with QBS and
//! reaches orders of magnitude at 10%.
//!
//! Usage: `cargo run --release -p boxagg-bench --bin r200 [--n N]`

use boxagg_bench::{build_ar, build_bat, fmt_u64, print_table, Args, QBS_SWEEP};
use boxagg_workload::gen_queries;

fn main() -> boxagg_common::error::Result<()> {
    let args = Args::parse_with(300_000, 2);
    eprintln!("r200: n = {}, {} queries per QBS", args.n, args.queries);
    let objects = args.dataset();

    // One physical R*-tree serves both the plain and the aR measurements
    // (the plain R-tree simply never uses the aggregate summaries).
    let mut ar = build_ar(&args, &objects);
    eprintln!("  R*/aR built ({:.1}s)", ar.build_secs);
    let bat = build_bat(&args, &objects);
    eprintln!("  BAT built ({:.1}s)", bat.build_secs);

    let mut rows = Vec::new();
    for (qi, &qbs) in QBS_SWEEP.iter().enumerate() {
        let queries = gen_queries(2, args.queries, qbs, 31_000 + qi as u64);

        ar.store.reset_stats();
        for q in &queries {
            ar.engine.box_sum_scan(q)?;
        }
        let plain_ios = ar.store.stats().total();

        ar.store.reset_stats();
        for q in &queries {
            ar.engine.box_sum(q)?;
        }
        let ar_ios = ar.store.stats().total();

        bat.store.reset_stats();
        for q in &queries {
            bat.engine.query(q)?;
        }
        let bat_ios = bat.store.stats().total().max(1);

        eprintln!(
            "  QBS {:>6}%: plain {} | aR {} | BAT {}",
            qbs * 100.0,
            fmt_u64(plain_ios),
            fmt_u64(ar_ios),
            fmt_u64(bat_ios)
        );
        rows.push(vec![
            format!("{}%", qbs * 100.0),
            fmt_u64(plain_ios),
            fmt_u64(ar_ios),
            fmt_u64(bat_ios),
            format!("{:.1}x", plain_ios as f64 / bat_ios as f64),
            format!("{:.1}x", ar_ios as f64 / bat_ios as f64),
        ]);
    }

    print_table(
        &format!(
            "Plain R*-tree vs aR-tree vs BA-tree: total I/Os over {} queries (n = {})",
            args.queries,
            fmt_u64(args.n as u64)
        ),
        &["QBS", "plain R*", "aR", "BAT", "plain/BAT", "aR/BAT"],
        &rows,
    );
    drop(ar);
    drop(bat);

    // The plain-R*/BAT ratio grows with n (the scan visits every object
    // in the box; the BAT is flat): sweep n at QBS 10% to expose the
    // trend toward the paper's ">200x" at 6M objects.
    use boxagg_core::engine::SimpleBoxSum;
    let sweep_queries = gen_queries(2, args.queries.min(300), 0.1, 8_888);
    let mut rows = Vec::new();
    for n in [args.n / 4, args.n / 2, args.n, args.n * 2] {
        let sweep_args = boxagg_bench::Args { n, ..args.clone() };
        let objects = sweep_args.dataset();
        let mut ar = build_ar(&sweep_args, &objects);
        ar.store.reset_stats();
        for q in &sweep_queries {
            ar.engine.box_sum_scan(q)?;
        }
        let plain_ios = ar.store.stats().total();
        drop(ar);
        let bat =
            SimpleBoxSum::batree_bulk(sweep_args.space(), sweep_args.store_config(), &objects)
                .expect("bulk");
        let store = bat.indexes()[0].store().clone();
        store.reset_stats();
        for q in &sweep_queries {
            bat.query(q)?;
        }
        let bat_ios = store.stats().total().max(1);
        eprintln!(
            "  n = {}: plain {} vs BAT {} -> {:.1}x",
            fmt_u64(n as u64),
            fmt_u64(plain_ios),
            fmt_u64(bat_ios),
            plain_ios as f64 / bat_ios as f64
        );
        rows.push(vec![
            fmt_u64(n as u64),
            fmt_u64(plain_ios),
            fmt_u64(bat_ios),
            format!("{:.1}x", plain_ios as f64 / bat_ios as f64),
        ]);
    }
    print_table(
        "Supplement: plain-R*/BAT ratio vs n (QBS 10%) — the gap grows toward the paper's >200x",
        &["n", "plain R*", "BAT", "ratio"],
        &rows,
    );
    Ok(())
}
