//! The paper's evaluation as a gate.
//!
//! Every figure of `boxagg_bench::figures` runs at [`GATE`] — small
//! enough for a debug build, with pages small enough that most indexes
//! outgrow the 1 MiB buffer — and must return exactly the tables below
//! in every cell but its timing columns (`build s`, `CPU ms`,
//! `exec ms`), which are masked to `-`. The cells are page counts,
//! sizes, page I/Os and answers' error bounds: a change to a tree's
//! shape, a node's capacity, the buffer or the query path moves them,
//! and must then move them here, deliberately. A mismatch prints the
//! figure's whole masked output, ready to paste.
//!
//! Full scale is a manual run: `repro all` from the repository root
//! rewrites `results/*.txt` (EXPERIMENTS.md explains every column).

use boxagg_bench::figures::figure;

/// The flags every figure runs with here, over its own defaults.
const GATE: &str = "--n 2000 --queries 50 --page-size 2048 --buffer-mb 1";

/// Runs figure `name` at [`GATE`] and compares its masked tables.
fn check(name: &str, expected: &str) {
    let fig = figure(name).expect("a figure of that name");
    let flags: Vec<String> = GATE.split_whitespace().map(String::from).collect();
    let args = fig.defaults.clone().with_flags(&flags).unwrap();
    let tables = (fig.run)(&args).unwrap();
    let actual: String = tables.iter().map(|t| t.masked().to_string()).collect();
    assert!(
        actual == expected,
        "`repro {name} {GATE}` moved; its tables now read:\n{actual}"
    );
}

#[test]
fn thm12() {
    check("thm12", THM12);
}

#[test]
fn fig9a() {
    check("fig9a", FIG9A);
}

#[test]
fn fig9b() {
    check("fig9b", FIG9B);
}

#[test]
fn fig9c() {
    check("fig9c", FIG9C);
}

#[test]
fn table1() {
    check("table1", TABLE1);
}

#[test]
fn r200() {
    check("r200", R200);
}

#[test]
fn ablation() {
    check("ablation", ABLATION);
}

#[test]
fn dim3() {
    check("dim3", DIM3);
}

const THM12: &str = r#"
== Theorems 1-2: dominance-sum queries per box-sum query ==
d  corner 2^d  measured  EO 3^d-1  measured  ratio  max rel err
-  ----------  --------  --------  --------  -----  -----------
1           2         2         2         2   1.00      7.0e-15
2           4         4         8         8   2.00      2.6e-15
3           8         8        26        26   3.25      1.0e-14
4          16        16        80        80   5.00      1.5e-14
5          32        32       242       242   7.56      1.9e-13
6          64        64       728       728  11.38      2.3e-13

(§2: with d = 3 the method of [13] needs 26 dominance-sums; the corner reduction needs 8.)
"#;

const FIG9A: &str = r#"
== Figure 9a: simple box-sum index sizes (n = 2,000) ==
scheme  pages  MiB  build s
------  -----  ---  -------
    aR     43  0.1        -
 ECDFu    196  0.4        -
 ECDFq  1,392  2.7        -
   BAT    840  1.6        -
"#;

const FIG9B: &str = r#"
== Figure 9b: total I/Os for 50 queries per QBS (n = 2,000) ==
scheme  QBS 0.01%  QBS 0.1%  QBS 1%  QBS 10%
------  ---------  --------  ------  -------
    aR          0         0       0        0
 ECDFu          0         0       0        0
 ECDFq        476       270     168      130
   BAT        476       258     247      134
"#;

const FIG9C: &str = r#"
== Figure 9c: functional box-sum, 50 queries at QBS 1% (n = 2,000; time = CPU + 10 ms/IO) ==
scheme   I/Os  CPU ms  exec ms
------  -----  ------  -------
 aR_d0      0       -        -
BAT_d0  1,388       -        -
 aR_d2      0       -        -
BAT_d2  2,290       -        -

== Fig. 9c supplement: I/Os per query vs n (degree 0, QBS 1%) — aR grows ∝ √n, BAT ∝ log n ==
    n  aR I/O per q  BAT I/O per q  aR / BAT
-----  ------------  -------------  --------
  500           0.0            0.0      0.00
1,000           0.0           13.2      0.00
2,000           0.0           27.6      0.00
4,000           0.0           34.9      0.00
"#;

const TABLE1: &str = r#"
== Table 1 (measured): ECDF-B-tree space / bulk-load / query / update, d = 2 ==
   tree      n  pages  bulk writes  query I/O  update I/O
-------  -----  -----  -----------  ---------  ----------
ECDF-Bu    125      5            5       0.00        0.00
ECDF-Bu    250      7            7       0.00        0.00
ECDF-Bu    500     13           13       0.00        0.00
ECDF-Bu  1,000     25           25       0.00        0.00
ECDF-Bu  2,000     49           49       0.00        0.00
ECDF-Bq    125      7            7       0.00        0.00
ECDF-Bq    250     12           12       0.00        0.00
ECDF-Bq    500     33           33       0.00        0.00
ECDF-Bq  1,000    102          102       0.00        0.00
ECDF-Bq  2,000    348          348       0.00       54.86

theory: Bu space O(n/B·log_B n), query O(B·log²_B n), update O(log²_B n);
        Bq space O(n·log_B n),   query O(log²_B n),   update O(B·log²_B n)
"#;

const R200: &str = r#"
== Plain R*-tree vs aR-tree vs BA-tree: total I/Os over 50 queries (n = 2,000) ==
  QBS  plain R*  aR  BAT  plain/BAT  aR/BAT
-----  --------  --  ---  ---------  ------
0.01%         0   0  534       0.0x    0.0x
 0.1%         0   0  288       0.0x    0.0x
   1%         0   0  196       0.0x    0.0x
  10%         0   0   92       0.0x    0.0x

== Supplement: plain-R*/BAT ratio vs n (QBS 10%) — the gap grows toward the paper's >200x ==
    n  plain R*  BAT  ratio
-----  --------  ---  -----
  500         0    1   0.0x
1,000         0    1   0.0x
2,000         0  226   0.0x
4,000         0  874   0.0x
"#;

const ABLATION: &str = r#"
== Ablation 1: reduction choice over identical BA-tree backends (d = 2) ==
   reduction  dominance queries  total I/Os  I/Os per box-sum
------------  -----------------  ----------  ----------------
corner (2^d)                200         374               7.5
EO (3^d - 1)                400         564              11.3

== Ablation 2: BA-tree (corner engine) vs page size, QBS 1% ==
page B  pages  MiB  I/Os per query  build s
------  -----  ---  --------------  -------
  2048    840  1.6             7.5        -
  4096    292  1.1             1.6        -
  8192    100  0.8             0.0        -
 16384     36  0.6             0.0        -
"#;

const DIM3: &str = r#"
== 3-d box-sum: total I/Os over 50 queries (n = 2,000, 8 dominance-sums per query) ==
  QBS  aR    BAT
-----  --  -----
0.01%   0  2,953
 0.1%   0  2,475
   1%   0  1,926
  10%   0    613
"#;
