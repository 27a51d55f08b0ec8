//! Deterministic fault injection for the page substrate.
//!
//! [`FaultPager`] wraps any [`Pager`] and runs every operation past a
//! [`FaultHandle`]: a schedule of [`FaultSpec`]s such as "fail the 3rd
//! write", "fail every sync from the 2nd on", "tear the 7th write after
//! 113 bytes" or "hold the next log sync until the test opens the
//! gate". The k-th-operation trigger and the gate are
//! [`boxagg_common::fault`]'s; this module says what a fired spec does
//! to a page or a log record. Torn prefixes can be drawn from the
//! workspace RNG ([`FaultSpec::random_torn_write`]) so randomized
//! sweeps are seeded, not flaky.
//!
//! The pager's log handle ([`Pager::wal`]) reports to the same
//! schedule, so page and log traffic form one counted operation stream
//! whichever lock each ran under.

use boxagg_common::error::{Error, Result};
pub use boxagg_common::fault::is_injected;
use boxagg_common::fault::{injected_error, Schedule, Trigger};
use boxagg_common::rng::StdRng;

use crate::pager::{PageId, Pager};
use crate::wal::WalFile;

/// The pager operations a fault can target (data-page ops plus the
/// write-ahead-log byte-stream ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `read_page`.
    Read,
    /// `write_page`.
    Write,
    /// `sync`.
    Sync,
    /// `allocate`.
    Allocate,
    /// The log handle's `append`.
    WalAppend,
    /// The log handle's `sync`.
    WalSync,
    /// The log handle's `truncate` and `rollback`.
    WalTruncate,
    /// The log handle's `read_all`.
    WalRead,
}

/// Which operations a [`FaultSpec`] counts and can fire on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFilter {
    /// Only `read_page` calls.
    Reads,
    /// Only `write_page` calls.
    Writes,
    /// Only `sync` calls.
    Syncs,
    /// Only `allocate` calls.
    Allocates,
    /// Only log appends.
    WalAppends,
    /// Only log syncs.
    WalSyncs,
    /// Only log truncations and rollbacks.
    WalTruncates,
    /// Only whole-log reads.
    WalReads,
    /// Every pager operation, WAL traffic included.
    Any,
}

impl OpFilter {
    fn matches(self, op: OpKind) -> bool {
        match self {
            OpFilter::Reads => op == OpKind::Read,
            OpFilter::Writes => op == OpKind::Write,
            OpFilter::Syncs => op == OpKind::Sync,
            OpFilter::Allocates => op == OpKind::Allocate,
            OpFilter::WalAppends => op == OpKind::WalAppend,
            OpFilter::WalSyncs => op == OpKind::WalSync,
            OpFilter::WalTruncates => op == OpKind::WalTruncate,
            OpFilter::WalReads => op == OpKind::WalRead,
            OpFilter::Any => true,
        }
    }
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation has no effect and reports a typed error.
    Error,
    /// Writes and WAL appends only: persist the first `prefix` bytes of
    /// the new page image (resp. appended record) then report failure —
    /// a torn sector write. `prefix == page_size` models a lost ack
    /// (fully persisted, still reported as failed); for a log append
    /// the prefix is clamped to the record length, leaving a torn log
    /// tail for recovery to discard. Other operations treat this as
    /// [`FaultMode::Error`].
    TornWrite {
        /// Bytes of the new image that reach the inner pager.
        prefix: usize,
    },
    /// Reads only: the read *succeeds*, with the first bit of the
    /// returned image flipped — rot on the medium, which nothing but
    /// the caller's checksum verification can catch. Other operations
    /// treat this as [`FaultMode::Error`].
    BitRot,
    /// The operation waits at the handle's gate while it is closed,
    /// then runs (see [`FaultHandle::close_gate`]). Not a fault: it is
    /// not counted in [`injected`](FaultHandle::injected).
    Park,
}

/// One entry of a fault schedule.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Operations this spec counts.
    pub ops: OpFilter,
    /// 1-based index, among matching operations since arming, at which
    /// the fault fires.
    pub at: u64,
    /// `true`: fire on every matching operation from `at` onward.
    /// `false`: fire exactly once, on the `at`-th.
    pub sticky: bool,
    /// Failure behavior when firing.
    pub mode: FaultMode,
}

impl FaultSpec {
    /// One-shot clean failure of the `at`-th operation matching `ops`.
    pub fn error_at(ops: OpFilter, at: u64) -> Self {
        Self {
            ops,
            at,
            sticky: false,
            mode: FaultMode::Error,
        }
    }

    /// Sticky clean failure of every matching operation from the
    /// `at`-th onward.
    pub fn sticky_from(ops: OpFilter, at: u64) -> Self {
        Self {
            sticky: true,
            ..Self::error_at(ops, at)
        }
    }

    /// One-shot torn write: the `at`-th write persists only its first
    /// `prefix` bytes, then fails.
    pub fn torn_write_at(at: u64, prefix: usize) -> Self {
        Self {
            mode: FaultMode::TornWrite { prefix },
            ..Self::error_at(OpFilter::Writes, at)
        }
    }

    /// One-shot silent corruption: the `at`-th read returns a rotted
    /// image and reports success.
    pub fn rot_read_at(at: u64) -> Self {
        Self {
            mode: FaultMode::BitRot,
            ..Self::error_at(OpFilter::Reads, at)
        }
    }

    /// [`torn_write_at`](Self::torn_write_at) with the prefix drawn from
    /// the workspace RNG: reproducible for a given `seed`, never a full
    /// page (so the tear is always observable).
    pub fn random_torn_write(at: u64, page_size: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::torn_write_at(at, rng.gen_range(1..page_size))
    }

    /// One-shot park: the `at`-th operation matching `ops` waits at the
    /// gate while it is closed.
    pub fn park_at(ops: OpFilter, at: u64) -> Self {
        Self {
            mode: FaultMode::Park,
            ..Self::error_at(ops, at)
        }
    }
}

impl Trigger for FaultSpec {
    type Op = OpKind;
    type Counts = OpCounts;

    fn count(counts: &mut OpCounts, op: OpKind) {
        let n = match op {
            OpKind::Read => &mut counts.reads,
            OpKind::Write => &mut counts.writes,
            OpKind::Sync => &mut counts.syncs,
            OpKind::Allocate => &mut counts.allocates,
            OpKind::WalAppend => &mut counts.wal_appends,
            OpKind::WalSync => &mut counts.wal_syncs,
            OpKind::WalTruncate => &mut counts.wal_truncates,
            OpKind::WalRead => &mut counts.wal_reads,
        };
        *n += 1;
    }

    fn matches(&self, op: OpKind) -> bool {
        self.ops.matches(op)
    }

    fn at(&self) -> u64 {
        self.at
    }

    fn sticky(&self) -> bool {
        self.sticky
    }

    fn parks(&self) -> bool {
        self.mode == FaultMode::Park
    }
}

/// Exact counts of operations that reached a [`FaultPager`] since the
/// last [`reset_counts`](FaultHandle::reset_counts), including ones that
/// were failed by injection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `read_page` calls.
    pub reads: u64,
    /// `write_page` calls.
    pub writes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `allocate` calls.
    pub allocates: u64,
    /// Log `append` calls.
    pub wal_appends: u64,
    /// Log `sync` calls.
    pub wal_syncs: u64,
    /// Log `truncate` and `rollback` calls.
    pub wal_truncates: u64,
    /// Log `read_all` calls.
    pub wal_reads: u64,
}

impl OpCounts {
    /// All operations, WAL traffic included (the sweep index space of
    /// `OpFilter::Any`).
    pub fn total(&self) -> u64 {
        self.reads
            + self.writes
            + self.syncs
            + self.allocates
            + self.wal_appends
            + self.wal_syncs
            + self.wal_truncates
            + self.wal_reads
    }
}

/// Clonable control handle to a [`FaultPager`]'s schedule; usable while
/// the pager itself is owned by a buffer pool.
pub type FaultHandle = Schedule<FaultSpec>;

/// A [`Pager`] wrapper that injects deterministic failures.
///
/// Construct with [`FaultPager::new`], hand the pager to a buffer pool,
/// and drive the schedule through the returned [`FaultHandle`].
pub struct FaultPager {
    inner: Box<dyn Pager>,
    faults: FaultHandle,
}

impl std::fmt::Debug for FaultPager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPager")
            .field("faults", &self.faults)
            .finish()
    }
}

fn injected(op: &str) -> Error {
    Error::Io(injected_error(std::io::ErrorKind::Other, op))
}

/// The mode of the spec that fails `op`, if any. A park never comes
/// back: the operation already waited at the gate and now runs.
fn fired(faults: &FaultHandle, op: OpKind) -> Option<FaultMode> {
    faults.decide(op).map(|spec| spec.mode)
}

impl FaultPager {
    /// Wraps `inner`; the [`FaultHandle`] controls the schedule.
    pub fn new(inner: Box<dyn Pager>) -> (Self, FaultHandle) {
        let faults = FaultHandle::new();
        (
            Self {
                inner,
                faults: faults.clone(),
            },
            faults,
        )
    }
}

/// The log handle of a [`FaultPager`]: reports to the same schedule
/// (same counters, same specs, same trace — one global operation
/// stream).
struct FaultWal {
    inner: Box<dyn WalFile>,
    faults: FaultHandle,
}

impl WalFile for FaultWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        match fired(&self.faults, OpKind::WalAppend) {
            None | Some(FaultMode::Park) => self.inner.append(bytes),
            Some(FaultMode::Error | FaultMode::BitRot) => Err(injected("wal append")),
            Some(FaultMode::TornWrite { prefix }) => {
                // Persist a prefix of the record — a torn log tail that
                // recovery must detect by checksum and discard.
                let prefix = prefix.min(bytes.len());
                self.inner.append(&bytes[..prefix])?;
                Err(injected("torn wal append"))
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        if fired(&self.faults, OpKind::WalSync).is_some() {
            return Err(injected("wal sync"));
        }
        self.inner.sync()
    }

    fn len(&mut self) -> Result<u64> {
        // Metadata peek, not an I/O: never counted, never faulted — so
        // the commit protocol's rollback bookkeeping does not shift the
        // op indices of existing sweeps.
        self.inner.len()
    }

    fn rollback(&mut self, len: u64) -> Result<()> {
        // Counted and faulted as log-truncation traffic: from the crash
        // model's point of view, rolling a torn tail back is the same
        // kind of operation as dropping an applied transaction.
        if fired(&self.faults, OpKind::WalTruncate).is_some() {
            return Err(injected("wal rollback"));
        }
        self.inner.rollback(len)
    }

    fn truncate(&mut self) -> Result<()> {
        if fired(&self.faults, OpKind::WalTruncate).is_some() {
            return Err(injected("wal truncate"));
        }
        self.inner.truncate()
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        if fired(&self.faults, OpKind::WalRead).is_some() {
            return Err(injected("wal read"));
        }
        self.inner.read_all()
    }
}

impl Pager for FaultPager {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId> {
        if fired(&self.faults, OpKind::Allocate).is_some() {
            return Err(injected("allocate"));
        }
        self.inner.allocate()
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        match fired(&self.faults, OpKind::Read) {
            None | Some(FaultMode::Park) => self.inner.read_page(id, buf),
            Some(FaultMode::BitRot) => {
                self.inner.read_page(id, buf)?;
                buf[0] ^= 1;
                Ok(())
            }
            Some(FaultMode::Error | FaultMode::TornWrite { .. }) => Err(injected("read")),
        }
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        match fired(&self.faults, OpKind::Write) {
            None | Some(FaultMode::Park) => self.inner.write_page(id, data),
            Some(FaultMode::Error | FaultMode::BitRot) => Err(injected("write")),
            Some(FaultMode::TornWrite { prefix }) => {
                // Persist the new image's prefix over the old contents —
                // exactly what a crash mid-sector-sequence leaves behind.
                let prefix = prefix.min(data.len());
                let mut torn = vec![0u8; data.len()];
                self.inner.read_page(id, &mut torn)?;
                torn[..prefix].copy_from_slice(&data[..prefix]);
                self.inner.write_page(id, &torn)?;
                Err(injected("torn write"))
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        if fired(&self.faults, OpKind::Sync).is_some() {
            return Err(injected("sync"));
        }
        self.inner.sync()
    }

    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        Ok(Box::new(FaultWal {
            inner: self.inner.wal()?,
            faults: self.faults.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn faulty() -> (FaultPager, FaultHandle) {
        FaultPager::new(Box::new(MemPager::new(128)))
    }

    #[test]
    fn counts_every_operation_kind() {
        let (mut p, h) = faulty();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let buf = vec![1u8; 128];
        p.write_page(a, &buf).unwrap();
        p.write_page(b, &buf).unwrap();
        p.write_page(a, &buf).unwrap();
        let mut out = vec![0u8; 128];
        p.read_page(b, &mut out).unwrap();
        p.sync().unwrap();
        let c = h.counts();
        assert_eq!((c.allocates, c.writes, c.reads, c.syncs), (2, 3, 1, 1));
        assert_eq!(c.total(), 7);
        assert_eq!(h.injected(), 0);
        h.reset_counts();
        assert_eq!(h.counts(), OpCounts::default());
    }

    #[test]
    fn one_shot_fires_exactly_once_at_the_nth_matching_op() {
        let (mut p, h) = faulty();
        let a = p.allocate().unwrap();
        let buf = vec![7u8; 128];
        h.arm(FaultSpec::error_at(OpFilter::Writes, 2));
        p.write_page(a, &buf).unwrap(); // 1st write: fine
        let err = p.write_page(a, &buf).unwrap_err(); // 2nd: injected
        assert!(is_injected(&err), "got: {err}");
        p.write_page(a, &buf).unwrap(); // 3rd: fine again
        assert_eq!(h.injected(), 1);
        // The failed write must not have touched the page.
        let mut out = vec![0u8; 128];
        p.read_page(a, &mut out).unwrap();
        assert_eq!(out, buf);
    }

    #[test]
    fn bit_rot_corrupts_one_read_silently_and_leaves_the_medium_alone() {
        let (mut p, h) = faulty();
        let a = p.allocate().unwrap();
        let buf = vec![7u8; 128];
        p.write_page(a, &buf).unwrap();
        h.arm(FaultSpec::rot_read_at(1));
        let mut out = vec![0u8; 128];
        p.read_page(a, &mut out).unwrap(); // reports success…
        assert_ne!(out, buf, "…with a rotted image");
        assert_eq!(h.injected(), 1);
        p.read_page(a, &mut out).unwrap();
        assert_eq!(out, buf, "one-shot: the stored page was never touched");
    }

    #[test]
    fn filters_only_count_matching_ops() {
        let (mut p, h) = faulty();
        let a = p.allocate().unwrap();
        h.arm(FaultSpec::error_at(OpFilter::Reads, 1));
        // Dozens of non-reads never trip a read fault.
        for _ in 0..5 {
            p.write_page(a, &[0u8; 128]).unwrap();
            p.sync().unwrap();
        }
        let mut out = vec![0u8; 128];
        assert!(is_injected(&p.read_page(a, &mut out).unwrap_err()));
        p.read_page(a, &mut out).unwrap();
    }

    #[test]
    fn torn_write_persists_exactly_the_prefix() {
        let (mut p, h) = faulty();
        let a = p.allocate().unwrap();
        let old = vec![0xAAu8; 128];
        p.write_page(a, &old).unwrap();
        h.arm(FaultSpec::torn_write_at(1, 40));
        let new = vec![0xBBu8; 128];
        let err = p.write_page(a, &new).unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        let mut out = vec![0u8; 128];
        p.read_page(a, &mut out).unwrap();
        assert_eq!(&out[..40], &new[..40], "prefix is the new image");
        assert_eq!(&out[40..], &old[40..], "suffix is the old image");
        // One-shot: a retry persists fully.
        p.write_page(a, &new).unwrap();
        p.read_page(a, &mut out).unwrap();
        assert_eq!(out, new);
    }

    #[test]
    fn random_torn_prefix_is_seeded_and_partial() {
        let a = FaultSpec::random_torn_write(5, 8192, 42);
        let b = FaultSpec::random_torn_write(5, 8192, 42);
        let (FaultMode::TornWrite { prefix: pa }, FaultMode::TornWrite { prefix: pb }) =
            (a.mode, b.mode)
        else {
            panic!("expected torn-write modes");
        };
        assert_eq!(pa, pb, "same seed, same prefix");
        assert!((1..8192).contains(&pa));
        let c = FaultSpec::random_torn_write(5, 8192, 43);
        let FaultMode::TornWrite { prefix: pc } = c.mode else {
            panic!("expected a torn-write mode");
        };
        assert_ne!(pa, pc, "different seeds diverge (for these seeds)");
    }

    #[test]
    fn counts_and_filters_wal_operations() {
        let (mut p, h) = faulty();
        let mut w = p.wal().unwrap();
        w.append(b"aaa").unwrap();
        w.append(b"bbb").unwrap();
        w.sync().unwrap();
        assert_eq!(w.read_all().unwrap(), b"aaabbb");
        w.truncate().unwrap();
        let c = h.counts();
        assert_eq!(
            (c.wal_appends, c.wal_syncs, c.wal_reads, c.wal_truncates),
            (2, 1, 1, 1)
        );
        assert_eq!(c.total(), 5);
        // Targeted filters hit only their own kind.
        h.arm(FaultSpec::error_at(OpFilter::WalSyncs, 1));
        w.append(b"x").unwrap();
        assert!(is_injected(&w.sync().unwrap_err()));
        w.sync().unwrap();
        h.arm(FaultSpec::error_at(OpFilter::WalTruncates, 1));
        assert!(is_injected(&w.truncate().unwrap_err()));
        h.arm(FaultSpec::error_at(OpFilter::WalReads, 1));
        assert!(is_injected(&w.read_all().unwrap_err()));
    }

    #[test]
    fn torn_wal_append_persists_exactly_the_prefix() {
        let (mut p, h) = faulty();
        let mut w = p.wal().unwrap();
        w.append(b"good").unwrap();
        h.arm(FaultSpec {
            ops: OpFilter::WalAppends,
            at: 1,
            sticky: false,
            mode: FaultMode::TornWrite { prefix: 3 },
        });
        let err = w.append(b"torn-record").unwrap_err();
        assert!(is_injected(&err), "got: {err}");
        assert_eq!(w.read_all().unwrap(), b"goodtor", "3-byte torn tail");
        // Non-append WAL ops treat TornWrite as a clean error.
        h.arm(FaultSpec {
            ops: OpFilter::WalSyncs,
            at: 1,
            sticky: false,
            mode: FaultMode::TornWrite { prefix: 1 },
        });
        assert!(is_injected(&w.sync().unwrap_err()));
        assert_eq!(w.read_all().unwrap(), b"goodtor", "sync tore nothing");
    }

    #[test]
    fn trace_records_the_exact_op_sequence() {
        let (mut p, h) = faulty();
        p.allocate().unwrap(); // before the trace: not recorded
        let mut w = p.wal().unwrap(); // handing the handle out is not an op
        h.start_trace();
        let a = PageId(0);
        w.append(b"r").unwrap();
        w.sync().unwrap();
        p.write_page(a, &[0u8; 128]).unwrap();
        p.sync().unwrap();
        w.truncate().unwrap();
        assert_eq!(
            h.take_trace(),
            vec![
                OpKind::WalAppend,
                OpKind::WalSync,
                OpKind::Write,
                OpKind::Sync,
                OpKind::WalTruncate
            ]
        );
        // Trace is consumed; a second take is empty and tracing is off.
        assert!(h.take_trace().is_empty());
        p.sync().unwrap();
        assert!(h.take_trace().is_empty());
    }

    #[test]
    fn wal_handle_shares_plan_counts_and_faults() {
        let (mut p, h) = faulty();
        let mut w = p.wal().unwrap();
        // Page and log traffic land in one op stream.
        w.append(b"aaa").unwrap();
        p.allocate().unwrap();
        w.append(b"bbb").unwrap();
        assert_eq!(h.counts().wal_appends, 2);
        assert_eq!(h.counts().total(), 3);
        // Faults armed on the handle's traffic fire through the handle.
        h.arm(FaultSpec::error_at(OpFilter::WalSyncs, 1));
        assert!(is_injected(&w.sync().unwrap_err()));
        w.sync().unwrap();
        h.arm(FaultSpec {
            ops: OpFilter::WalAppends,
            at: 1,
            sticky: false,
            mode: FaultMode::TornWrite { prefix: 2 },
        });
        assert!(is_injected(&w.append(b"torn").unwrap_err()));
        assert_eq!(w.read_all().unwrap(), b"aaabbbto");
        // Rollback counts as truncation traffic and `len` stays an
        // unfaulted, uncounted metadata peek.
        h.arm(FaultSpec::sticky_from(OpFilter::WalTruncates, 1));
        assert!(is_injected(&w.rollback(0).unwrap_err()));
        assert!(is_injected(&w.truncate().unwrap_err()));
        let before = h.counts().total();
        assert_eq!(w.len().unwrap(), 8);
        assert_eq!(h.counts().total(), before);
        h.disarm();
        w.truncate().unwrap();
        assert_eq!(w.len().unwrap(), 0);
    }
}
