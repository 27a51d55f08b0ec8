//! Every fault sweep, once, at its smoke size: each runs on the one
//! kernel in `boxagg_bench::sweep`, which documents the properties
//! asserted at every swept op. The sweeps are exhaustive (every op of
//! the clean run's domain is faulted once), and their tallies are
//! pinned exactly.
//!
//! The pager-op domains and commit points below are the workloads' I/O
//! streams, counted: a deliberate change to what a store reads, writes
//! or syncs moves them, and updates them here. The socket domain of the
//! connection-kill sweep is not pinned, because TCP can split a read.

use boxagg::pagestore::fault::is_injected;
use boxagg::pagestore::{FaultPager, FaultSpec, MemPager, OpFilter, Pager};
use boxagg_bench::sweep::{
    self, ConnKill, Crash, Kill, Points, Retry, Scheme, Served, ServerKill, Tally, EXHAUSTIVE,
};

/// Asserts an exhaustive sweep over `domain` ops and its `landed` tally.
fn assert_tally(t: &Tally, domain: u64, landed: &[(&str, u64)]) {
    assert_eq!((t.domain, t.swept), (domain, domain), "{t:?}");
    for &(label, n) in landed {
        assert_eq!(t.get(label), n, "{label}: {t:?}");
    }
}

fn retry(scheme: Scheme, torn: bool) -> Tally {
    sweep::run(
        &mut Retry::new(Points::retry_smoke(scheme), torn),
        EXHAUSTIVE,
    )
}

#[test]
fn batree_exhaustive_error_sweep() {
    let t = retry(Scheme::BaTree, false);
    assert_tally(&t, 407, &[("build", 326), ("query", 81)]);
}

#[test]
fn batree_exhaustive_torn_write_sweep() {
    let t = retry(Scheme::BaTree, true);
    assert_tally(&t, 407, &[("build", 326), ("query", 81)]);
}

#[test]
fn ecdfb_exhaustive_error_sweep() {
    let t = retry(Scheme::EcdfB, false);
    assert_tally(&t, 336, &[("build", 254), ("query", 82)]);
}

#[test]
fn ecdfb_exhaustive_torn_write_sweep() {
    let t = retry(Scheme::EcdfB, true);
    assert_tally(&t, 336, &[("build", 254), ("query", 82)]);
}

/// A crash sweep at smoke size, with the op indices at which its clean
/// run's two commits returned. The domain must run past the second
/// commit: the last query pass reads pages a kill can land in.
fn crash(scheme: Scheme, kill: Kill) -> (Tally, [u64; 2]) {
    let mut crash = Crash::new(Points::crash_smoke(scheme), kill);
    let t = sweep::run(&mut crash, EXHAUSTIVE);
    let commits = crash.commits();
    assert!(
        t.domain > commits[1],
        "the post-commit query pass reaches no pager op: {t:?}, commits {commits:?}"
    );
    (t, commits)
}

/// Columns: recovered empty / txn 1 / txn 2, and WAL transactions
/// replayed across all reopens.
fn assert_crash(t: &Tally, domain: u64, [empty, txn1, txn2, replays]: [u64; 4]) {
    let landed = [("empty", empty), ("txn1", txn1), ("txn2", txn2)];
    assert_tally(t, domain, &landed);
    assert_eq!(t.get("replays"), replays, "{t:?}");
}

#[test]
fn batree_exhaustive_crash_sweep() {
    let (t, commits) = crash(Scheme::BaTree, Kill::Clean);
    assert_eq!(commits, [105, 185]);
    assert_crash(&t, 232, [71, 78, 83, 72]);
}

#[test]
fn batree_exhaustive_torn_kill_sweep() {
    let (t, commits) = crash(Scheme::BaTree, Kill::Torn);
    assert_eq!(commits, [105, 185]);
    assert_crash(&t, 232, [70, 78, 84, 75]);
    assert!(
        t.get("tails") > 0,
        "torn kills leave tails to discard: {t:?}"
    );
}

#[test]
fn batree_exhaustive_queued_commit_sweep() {
    // Two committers on transaction 2: the first parked in its log fsync,
    // the second queued on the writer lock behind it. The second runs
    // after the first as an empty commit, whose one data sync is the
    // serial schedule's one extra op: it lands on txn 2.
    let (t, commits) = crash(Scheme::BaTree, Kill::Queued);
    assert_eq!(commits, [105, 186]);
    assert_crash(&t, 233, [71, 78, 84, 72]);
}

#[test]
fn ecdfb_exhaustive_crash_sweep() {
    let (t, commits) = crash(Scheme::EcdfB, Kill::Clean);
    assert_eq!(commits, [63, 192]);
    assert_crash(&t, 216, [43, 104, 69, 67]);
}

#[test]
fn ecdfb_exhaustive_torn_kill_sweep() {
    let (t, commits) = crash(Scheme::EcdfB, Kill::Torn);
    assert_eq!(commits, [63, 192]);
    assert_crash(&t, 216, [42, 104, 70, 70]);
    assert!(
        t.get("tails") > 0,
        "torn kills leave tails to discard: {t:?}"
    );
}

#[test]
fn ecdfb_exhaustive_queued_commit_sweep() {
    let (t, commits) = crash(Scheme::EcdfB, Kill::Queued);
    assert_eq!(commits, [63, 193]);
    assert_crash(&t, 217, [43, 104, 70, 67]);
}

#[test]
fn exhaustive_connection_kill_sweep() {
    let t = sweep::run(&mut ConnKill::new(Served::smoke()), EXHAUSTIVE);
    assert_eq!(t.swept, t.domain, "{t:?}");
    assert_eq!(t.get("unfired"), 0, "every kill fires: {t:?}");
    assert!(
        t.get("reconnect") > 0,
        "no kill took the reconnect path: {t:?}"
    );
    assert!(
        t.get("replays") > 0,
        "no retried write was deduplicated: {t:?}"
    );
}

#[test]
fn exhaustive_server_kill_sweep() {
    let t = sweep::run(&mut ServerKill::new(Served::smoke()), EXHAUSTIVE);
    let boundaries = [("boundary 0", 7), ("boundary 1", 16), ("boundary 2", 9)];
    assert_tally(&t, 32, &boundaries);
    // Ops and commits the reborn servers skipped as replays. (The chaos
    // table of the `sweep` bin adds the connection sweep's: 54 + 42 at
    // this size.)
    assert_eq!(t.get("replays"), 54, "{t:?}");
    assert_eq!(t.get("wal replays"), 16, "{t:?}");
    assert_eq!(t.get("in-flight landed"), 18, "{t:?}");
}

/// The kernel's queued-commit schedule rests on this: an op parked at
/// the gate is counted once, and a kill armed at that op still fails it
/// once it resumes.
#[test]
fn a_parked_op_counts_once_and_can_still_be_killed() {
    let (mut pager, faults) = FaultPager::new(Box::new(MemPager::new(128)));
    let mut log = pager.wal().expect("log handle");
    log.append(b"record").expect("append");
    faults.arm(FaultSpec::sticky_from(OpFilter::Any, 1));
    faults.close_gate();
    faults.arm(FaultSpec::park_at(OpFilter::WalSyncs, 1));
    let sync = std::thread::spawn(move || log.sync());
    assert!(faults.wait_parked(), "the log sync never parked");
    assert!(faults.is_parked());
    assert_eq!(faults.counts().wal_syncs, 1);
    assert_eq!(
        faults.injected(),
        1,
        "the kill is decided as the op arrives"
    );
    faults.open_gate();
    let err = sync
        .join()
        .expect("sync thread")
        .expect_err("killed after resuming");
    assert!(is_injected(&err), "got: {err}");
    assert_eq!(faults.counts().total(), 2, "the parked sync counted once");
}
