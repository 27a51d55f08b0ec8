#![forbid(unsafe_code)]
#![deny(unreachable_pub)]

//! Shared harness for the figure/table reproduction binaries.
//!
//! Each binary regenerates one artifact of the paper's §6 evaluation
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for recorded
//! runs). This module provides the common pieces: CLI parsing, scheme
//! builders over one shared dataset, and table formatting.

pub mod sweep;

use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_common::geom::Rect;
use boxagg_common::poly::Poly;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_core::functional::{FunctionalBoxSum, FunctionalObject};
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::{SharedStore, StoreConfig};
use boxagg_rstar::RStarTree;
use boxagg_workload::{gen_objects, DatasetConfig};

/// The QBS sweep of Fig. 9b: 0.01%, 0.1%, 1%, 10% of the space.
pub const QBS_SWEEP: [f64; 4] = [0.0001, 0.001, 0.01, 0.1];

/// I/O cost model of Fig. 9c: 10 ms per I/O.
pub const MS_PER_IO: f64 = 10.0;

/// Common command-line options (`--n`, `--queries`, `--seed`,
/// `--page-size`, `--buffer-mb`).
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset size. The paper uses 6,000,000; defaults here are scaled
    /// for a laptop run (see DESIGN.md §5).
    pub n: usize,
    /// Queries per configuration (paper: 1000).
    pub queries: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Page size in bytes (paper: 8192).
    pub page_size: usize,
    /// LRU buffer size in MiB (paper: 10).
    pub buffer_mb: usize,
}

impl Args {
    /// Parses `--flag value` pairs from `std::env::args`, with defaults.
    pub fn parse(default_n: usize) -> Self {
        Self::parse_with(default_n, 10)
    }

    /// [`parse`](Self::parse) with an explicit default buffer size —
    /// experiments whose default `n` is far below the paper's 6M scale
    /// the buffer down proportionally so the index ≫ buffer regime of §6
    /// is preserved.
    pub fn parse_with(default_n: usize, default_buffer_mb: usize) -> Self {
        let mut args = Args {
            n: default_n,
            queries: 1000,
            seed: 20020601,
            page_size: 8192,
            buffer_mb: default_buffer_mb,
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            let Some(val) = argv.get(i + 1) else {
                eprintln!("flag {} is missing its value", argv[i]);
                std::process::exit(2);
            };
            match argv[i].as_str() {
                "--n" => args.n = val.parse().expect("--n takes an integer"),
                "--queries" => args.queries = val.parse().expect("--queries takes an integer"),
                "--seed" => args.seed = val.parse().expect("--seed takes an integer"),
                "--page-size" => {
                    args.page_size = val.parse().expect("--page-size takes an integer")
                }
                "--buffer-mb" => {
                    args.buffer_mb = val.parse().expect("--buffer-mb takes an integer")
                }
                other => {
                    eprintln!("unknown flag {other}");
                    std::process::exit(2);
                }
            }
            i += 2;
        }
        args
    }

    /// Store configuration per these arguments. Decodes are kept (one
    /// per resident page, in its buffer frame); `with_node_cache(0)`
    /// keeps none.
    pub fn store_config(&self) -> StoreConfig {
        let buffer_pages = (self.buffer_mb * 1024 * 1024 / self.page_size).max(1);
        StoreConfig {
            page_size: self.page_size,
            buffer_pages,
            backing: Default::default(),
            node_cache_pages: buffer_pages,
            wal: false,
        }
    }

    /// The evaluation dataset for these arguments.
    pub fn dataset(&self) -> Vec<(Rect, f64)> {
        gen_objects(&DatasetConfig::paper(self.n, self.seed))
    }

    /// The indexed space (unit square).
    pub fn space(&self) -> Rect {
        DatasetConfig::paper(self.n, self.seed).space()
    }
}

/// A built simple box-sum scheme with its store (for size/I/O metrics).
pub struct Scheme<E> {
    /// Display name (`aR`, `ECDFu`, `ECDFq`, `BAT`, …).
    pub name: &'static str,
    /// The engine.
    pub engine: E,
    /// The page store every index of the engine lives in.
    pub store: SharedStore,
    /// Wall-clock build time in seconds.
    pub build_secs: f64,
}

impl<E> Scheme<E> {
    /// Index size in MiB (live pages × page size), Fig. 9a's metric.
    pub fn size_mib(&self) -> f64 {
        self.store.size_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Builds the `BAT` scheme: four BA-trees behind the corner reduction
/// (dynamic inserts; the BA-tree is the paper's dynamic structure).
pub fn build_bat(args: &Args, objects: &[(Rect, f64)]) -> Scheme<SimpleBoxSum<BATree<f64>>> {
    let t0 = Instant::now();
    let store = SharedStore::open(&args.store_config()).expect("store");
    let mut engine = SimpleBoxSum::batree_in(args.space(), store.clone()).expect("engine");
    for (r, v) in objects {
        engine.insert(r, *v).expect("insert");
    }
    Scheme {
        name: "BAT",
        engine,
        store,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Builds an ECDF scheme (`ECDFu` or `ECDFq`): four bulk-loaded
/// ECDF-B-trees behind the corner reduction.
pub fn build_ecdf(
    args: &Args,
    policy: BorderPolicy,
    objects: &[(Rect, f64)],
) -> Scheme<SimpleBoxSum<EcdfBTree<f64>>> {
    let t0 = Instant::now();
    let engine = SimpleBoxSum::ecdf_bulk(2, policy, args.store_config(), objects).expect("bulk");
    let store = engine.indexes()[0].store().clone();
    let name = match policy {
        BorderPolicy::UpdateOptimized => "ECDFu",
        BorderPolicy::QueryOptimized => "ECDFq",
    };
    Scheme {
        name,
        engine,
        store,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Builds the `aR` scheme: an STR-bulk-loaded aggregate R*-tree.
pub fn build_ar(args: &Args, objects: &[(Rect, f64)]) -> Scheme<RStarTree<()>> {
    let t0 = Instant::now();
    let store = SharedStore::open(&args.store_config()).expect("store");
    let objs: Vec<(Rect, f64, ())> = objects.iter().map(|(r, v)| (*r, *v, ())).collect();
    let engine = RStarTree::bulk_load(store.clone(), 2, 0, objs).expect("bulk");
    Scheme {
        name: "aR",
        engine,
        store,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Builds the functional `BAT` scheme: one polynomial BA-tree.
pub fn build_bat_functional(
    args: &Args,
    objects: &[FunctionalObject],
    max_degree: u32,
) -> Scheme<FunctionalBoxSum<BATree<Poly>>> {
    let t0 = Instant::now();
    let store = SharedStore::open(&args.store_config()).expect("store");
    let mut engine =
        FunctionalBoxSum::batree_in(args.space(), store.clone(), max_degree).expect("engine");
    for o in objects {
        engine.insert(o).expect("insert");
    }
    Scheme {
        name: "BAT",
        engine,
        store,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Builds the functional `aR` scheme: an aggregate R*-tree whose leaves
/// carry value functions and whose inner aggregates are total masses.
pub fn build_ar_functional(
    args: &Args,
    objects: &[FunctionalObject],
    max_payload: usize,
) -> Scheme<RStarTree<Poly>> {
    let t0 = Instant::now();
    let store = SharedStore::open(&args.store_config()).expect("store");
    let objs: Vec<(Rect, f64, Poly)> = objects
        .iter()
        .map(|o| (o.rect, o.mass(), o.f.clone()))
        .collect();
    let engine = RStarTree::bulk_load(store.clone(), 2, max_payload, objs).expect("bulk");
    Scheme {
        name: "aR",
        engine,
        store,
        build_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// `x` with thousands separators.
pub fn fmt_u64(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_u64(0), "0");
        assert_eq!(fmt_u64(999), "999");
        assert_eq!(fmt_u64(1000), "1,000");
        assert_eq!(fmt_u64(1234567), "1,234,567");
    }

    #[test]
    fn small_end_to_end_all_schemes_agree() {
        // A miniature of the fig9b pipeline: every scheme must produce
        // identical box-sums on identical workloads.
        let args = Args {
            n: 400,
            queries: 25,
            seed: 9,
            page_size: 1024,
            buffer_mb: 1,
        };
        let objects = args.dataset();
        let bat = build_bat(&args, &objects);
        let eu = build_ecdf(&args, BorderPolicy::UpdateOptimized, &objects);
        let eq = build_ecdf(&args, BorderPolicy::QueryOptimized, &objects);
        let mut ar = build_ar(&args, &objects);
        assert!(bat.size_mib() > 0.0);
        let queries = boxagg_workload::gen_queries(2, args.queries, 0.01, 17);
        for q in &queries {
            let want: f64 = objects
                .iter()
                .filter(|(r, _)| r.intersects(q))
                .map(|(_, v)| v)
                .sum();
            let a = bat.engine.query(q).unwrap();
            let b = eu.engine.query(q).unwrap();
            let c = eq.engine.query(q).unwrap();
            let d = ar.engine.box_sum(q).unwrap().sum;
            for (name, got) in [("BAT", a), ("ECDFu", b), ("ECDFq", c), ("aR", d)] {
                assert!(
                    (got - want).abs() < 1e-6 * want.abs().max(1.0),
                    "{name}: {got} vs {want}"
                );
            }
        }
    }
}
