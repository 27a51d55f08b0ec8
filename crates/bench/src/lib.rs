#![deny(unreachable_pub)]

//! Shared harness for the paper's figures and the fault sweeps.
//!
//! [`figures`] holds one function per artifact of the paper's §6
//! evaluation (see DESIGN.md's experiment index and EXPERIMENTS.md for
//! recorded runs); each returns its [`Table`]s as data, which the
//! `repro` binary prints and `tests/figures.rs` checks. This module
//! provides the common pieces: flag parsing, scheme builders over one
//! shared dataset, the measured query pass, and tables.

pub mod figures;
pub mod sweep;

use std::fmt;
use std::time::Instant;

use boxagg_batree::BATree;
use boxagg_common::error::Result;
use boxagg_common::geom::{Point, Rect};
use boxagg_common::poly::Poly;
use boxagg_core::engine::SimpleBoxSum;
use boxagg_core::functional::{FunctionalBoxSum, FunctionalObject};
use boxagg_ecdf::{BorderPolicy, EcdfBTree};
use boxagg_pagestore::checksum::TRAILER;
use boxagg_pagestore::{SharedStore, StoreConfig};
use boxagg_rstar::RStarTree;
use boxagg_workload::{gen_objects, DatasetConfig};

/// The QBS sweep of Fig. 9b: 0.01%, 0.1%, 1%, 10% of the space.
pub const QBS_SWEEP: [f64; 4] = [0.0001, 0.001, 0.01, 0.1];

/// I/O cost model of Fig. 9c: 10 ms per I/O.
pub const MS_PER_IO: f64 = 10.0;

/// Headers of the columns that hold wall-clock times (`exec ms` is CPU
/// time plus the I/O cost model). Every other cell is deterministic.
pub const TIMING_COLUMNS: [&str; 3] = ["build s", "CPU ms", "exec ms"];

/// A figure's parameters, set by `--n`, `--queries`, `--seed`,
/// `--page-size` and `--buffer-mb` over the figure's defaults.
#[derive(Debug, Clone, PartialEq)]
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
    /// The paper's query count, seed and page size, at `n` objects and
    /// a `buffer_mb` MiB buffer. Figures whose `n` is far below the
    /// paper's 6M scale the buffer down with it, so that §6's
    /// index ≫ buffer regime holds.
    pub const fn scaled(n: usize, buffer_mb: usize) -> Self {
        Args {
            n,
            queries: 1000,
            seed: 20020601,
            page_size: 8192,
            buffer_mb,
        }
    }

    /// These arguments with each `--flag value` pair of `flags` applied;
    /// an unknown flag, a missing value, a value that is not an unsigned
    /// integer or a page too small for its checksum is an error naming
    /// it.
    pub fn with_flags(mut self, flags: &[String]) -> std::result::Result<Self, String> {
        for pair in flags.chunks(2) {
            let [flag, val] = pair else {
                return Err(format!("flag {} is missing its value", pair[0]));
            };
            let bad = |_| format!("{flag} takes an unsigned integer, not {val:?}");
            match flag.as_str() {
                "--n" => self.n = val.parse().map_err(bad)?,
                "--queries" => self.queries = val.parse().map_err(bad)?,
                "--seed" => self.seed = val.parse().map_err(bad)?,
                "--page-size" => self.page_size = val.parse().map_err(bad)?,
                "--buffer-mb" => self.buffer_mb = val.parse().map_err(bad)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if self.page_size <= TRAILER {
            return Err(format!(
                "--page-size must exceed the {TRAILER}-byte page checksum"
            ));
        }
        Ok(self)
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
}

impl fmt::Display for Args {
    /// The flags that reproduce these arguments.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "--n {} --queries {} --seed {} --page-size {} --buffer-mb {}",
            self.n, self.queries, self.seed, self.page_size, self.buffer_mb
        )
    }
}

/// The unit cube of `dim` dimensions: every figure's indexed space.
pub fn unit_space(dim: usize) -> Rect {
    Rect::new(Point::zeros(dim), Point::splat(dim, 1.0))
}

/// The dimension of `objects` (2 when there are none).
fn dim_of(objects: &[(Rect, f64)]) -> usize {
    objects.first().map_or(2, |(r, _)| r.dim())
}

/// A built box-sum scheme with its store (for size/I/O metrics).
pub struct Scheme<E> {
    /// The engine.
    pub engine: E,
    /// The page store every index of the engine lives in.
    pub store: SharedStore,
    /// Wall-clock build time in seconds.
    pub build_secs: f64,
}

impl<E> Scheme<E> {
    /// Times `build`, which returns the engine and its store.
    fn timed(build: impl FnOnce() -> Result<(E, SharedStore)>) -> Result<Self> {
        let t0 = Instant::now();
        let (engine, store) = build()?;
        Ok(Scheme {
            engine,
            store,
            build_secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// Index size in MiB (live pages × page size), Fig. 9a's metric.
    pub fn size_mib(&self) -> f64 {
        self.store.size_bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Builds the `BAT` scheme by dynamic inserts: a BA-tree per corner
/// behind the corner reduction (the BA-tree is the paper's dynamic
/// structure).
pub fn build_bat(
    args: &Args,
    objects: &[(Rect, f64)],
) -> Result<Scheme<SimpleBoxSum<BATree<f64>>>> {
    Scheme::timed(|| {
        let store = SharedStore::open(&args.store_config())?;
        let mut engine = SimpleBoxSum::batree_in(unit_space(dim_of(objects)), store.clone())?;
        for (r, v) in objects {
            engine.insert(r, *v)?;
        }
        Ok((engine, store))
    })
}

/// Builds the `BAT` scheme by bulk loading each corner's BA-tree.
pub fn build_bat_bulk(
    args: &Args,
    objects: &[(Rect, f64)],
) -> Result<Scheme<SimpleBoxSum<BATree<f64>>>> {
    Scheme::timed(|| {
        let space = unit_space(dim_of(objects));
        let engine = SimpleBoxSum::batree_bulk(space, args.store_config(), objects)?;
        let store = engine.indexes()[0].store().clone();
        Ok((engine, store))
    })
}

/// Builds an ECDF scheme (`ECDFu` or `ECDFq`): four bulk-loaded
/// ECDF-B-trees behind the corner reduction.
pub fn build_ecdf(
    args: &Args,
    policy: BorderPolicy,
    objects: &[(Rect, f64)],
) -> Result<Scheme<SimpleBoxSum<EcdfBTree<f64>>>> {
    Scheme::timed(|| {
        let engine = SimpleBoxSum::ecdf_bulk(2, policy, args.store_config(), objects)?;
        let store = engine.indexes()[0].store().clone();
        Ok((engine, store))
    })
}

/// Builds the `aR` scheme: an STR-bulk-loaded aggregate R*-tree.
pub fn build_ar(args: &Args, objects: &[(Rect, f64)]) -> Result<Scheme<RStarTree<()>>> {
    Scheme::timed(|| {
        let store = SharedStore::open(&args.store_config())?;
        let objs = objects.iter().map(|(r, v)| (*r, *v, ())).collect();
        let engine = RStarTree::bulk_load(store.clone(), dim_of(objects), 0, objs)?;
        Ok((engine, store))
    })
}

/// Builds the functional `BAT` scheme: one bulk-loaded polynomial
/// BA-tree over 2-d objects.
pub fn build_bat_functional(
    args: &Args,
    objects: &[FunctionalObject],
    max_degree: u32,
) -> Result<Scheme<FunctionalBoxSum<BATree<Poly>>>> {
    Scheme::timed(|| {
        let config = args.store_config();
        let engine = FunctionalBoxSum::batree_bulk(unit_space(2), config, max_degree, objects)?;
        let store = engine.index().store().clone();
        Ok((engine, store))
    })
}

/// Builds the functional `aR` scheme: an aggregate R*-tree whose leaves
/// carry value functions and whose inner aggregates are total masses.
pub fn build_ar_functional(
    args: &Args,
    objects: &[FunctionalObject],
    max_payload: usize,
) -> Result<Scheme<RStarTree<Poly>>> {
    Scheme::timed(|| {
        let store = SharedStore::open(&args.store_config())?;
        let objs = objects
            .iter()
            .map(|o| (o.rect, o.mass(), o.f.clone()))
            .collect();
        let engine = RStarTree::bulk_load(store.clone(), 2, max_payload, objs)?;
        Ok((engine, store))
    })
}

/// What one pass of queries cost and answered.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Page I/Os of the store over the pass.
    pub ios: u64,
    /// The answers, summed in query order.
    pub sum: f64,
    /// Wall-clock time of the pass in milliseconds.
    pub cpu_ms: f64,
}

/// Resets `store`'s counters and answers every query in order; the
/// buffer keeps what earlier passes left in it.
pub fn run_queries<Q>(
    store: &SharedStore,
    queries: &[Q],
    mut answer: impl FnMut(&Q) -> Result<f64>,
) -> Result<Run> {
    store.reset_stats();
    let t0 = Instant::now();
    let mut sum = 0.0;
    for q in queries {
        sum += answer(q)?;
    }
    Ok(Run {
        ios: store.stats().total(),
        sum,
        cpu_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}

/// Asserts that the schemes whose answer sums over one query set are
/// `sums` agree to a relative 1e-6.
pub fn assert_agree(what: &str, sums: &[f64]) {
    let first = sums[0];
    for s in sums {
        assert!(
            (s - first).abs() < 1e-6 * first.abs().max(1.0),
            "{what}: the schemes disagree: {sums:?}"
        );
    }
}

/// One table of a figure: what `repro` prints and the gate checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// The title line.
    pub title: String,
    /// Column headers; those in [`TIMING_COLUMNS`] hold times.
    pub headers: Vec<&'static str>,
    /// The cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
    /// Lines printed under the table (empty for none).
    pub note: &'static str,
}

impl Table {
    /// A table without a note.
    pub fn new(title: impl Into<String>, headers: &[&'static str], rows: Vec<Vec<String>>) -> Self {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            rows,
            note: "",
        }
    }

    /// This table with every timing cell replaced by `-`: the cells
    /// that are the same on every run.
    pub fn masked(&self) -> Table {
        let mut t = self.clone();
        for (c, h) in self.headers.iter().enumerate() {
            if TIMING_COLUMNS.contains(h) {
                for row in &mut t.rows {
                    row[c] = "-".into();
                }
            }
        }
        t
    }
}

impl fmt::Display for Table {
    /// A titled fixed-width table, cells right-aligned.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(f, "{}", padded.join("  ").trim_end())
        };
        let headers: Vec<String> = self.headers.iter().map(|h| h.to_string()).collect();
        line(f, &headers)?;
        line(
            f,
            &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        )?;
        for row in &self.rows {
            line(f, row)?;
        }
        if !self.note.is_empty() {
            writeln!(f, "\n{}", self.note)?;
        }
        Ok(())
    }
}

/// The integer `x` with thousands separators.
pub fn commas(x: impl fmt::Display) -> String {
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
        assert_eq!(commas(0), "0");
        assert_eq!(commas(999), "999");
        assert_eq!(commas(1000), "1,000");
        assert_eq!(commas(1234567), "1,234,567");
    }

    #[test]
    fn flags_override_defaults_and_refuse_bad_input() {
        let argv = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let base = Args::scaled(100, 10);
        let args = base
            .clone()
            .with_flags(&argv("--n 7 --seed 3 --buffer-mb 1"))
            .unwrap();
        assert_eq!((args.n, args.seed, args.buffer_mb), (7, 3, 1));
        assert_eq!((args.queries, args.page_size), (1000, 8192));
        assert_eq!(
            Args::scaled(7, 2).with_flags(&argv(&args.to_string())),
            Ok(args)
        );
        for (flags, err) in [
            ("--n abc", "--n takes an unsigned integer, not \"abc\""),
            (
                "--queries -1",
                "--queries takes an unsigned integer, not \"-1\"",
            ),
            ("--seed", "flag --seed is missing its value"),
            ("--threads 2", "unknown flag --threads"),
            (
                "--page-size 0",
                "--page-size must exceed the 8-byte page checksum",
            ),
        ] {
            assert_eq!(base.clone().with_flags(&argv(flags)), Err(err.to_string()));
        }
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
        let bat = build_bat(&args, &objects).unwrap();
        let eu = build_ecdf(&args, BorderPolicy::UpdateOptimized, &objects).unwrap();
        let eq = build_ecdf(&args, BorderPolicy::QueryOptimized, &objects).unwrap();
        let mut ar = build_ar(&args, &objects).unwrap();
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
