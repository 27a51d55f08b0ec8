//! Tier-1 fault sweeps: exhaustive single-fault injection over the
//! BA-tree and ECDF-B workloads (see `boxagg_bench::faultsweep` for the
//! driver and the properties asserted per op index).
//!
//! These are the debug-build twins of the `faults` bench binary's
//! `--smoke` run, scaled so an exhaustive (`stride == 1`) sweep stays
//! fast without a release build.

use boxagg_bench::faultsweep::{run, SweepConfig, SweepScheme};

fn tiny(scheme: SweepScheme) -> SweepConfig {
    SweepConfig {
        bulk_points: 48,
        insert_points: 12,
        queries: 12,
        ..SweepConfig::small(scheme)
    }
}

fn assert_exhaustive(cfg: &SweepConfig) {
    let report = run(cfg);
    assert_eq!(
        report.ks_tested, report.total_ops,
        "sweep must be exhaustive"
    );
    assert_eq!(
        report.build_failures + report.query_failures,
        report.ks_tested,
        "every op index must surface its injected failure"
    );
    assert!(
        report.build_failures > 0 && report.query_failures > 0,
        "the sweep must cross both workload phases: {report:?}"
    );
}

#[test]
fn batree_exhaustive_error_sweep() {
    assert_exhaustive(&tiny(SweepScheme::BaTree));
}

#[test]
fn ecdfb_exhaustive_error_sweep() {
    assert_exhaustive(&tiny(SweepScheme::EcdfB));
}

#[test]
fn batree_exhaustive_torn_write_sweep() {
    assert_exhaustive(&SweepConfig {
        torn_writes: true,
        ..tiny(SweepScheme::BaTree)
    });
}

#[test]
fn ecdfb_exhaustive_torn_write_sweep() {
    assert_exhaustive(&SweepConfig {
        torn_writes: true,
        ..tiny(SweepScheme::EcdfB)
    });
}
