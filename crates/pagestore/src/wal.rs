//! Redo-only write-ahead log: the commit protocol's durability half.
//!
//! ## Protocol (no-steal / no-force, redo-only)
//!
//! A [`commit`](crate::store::SharedStore::commit) streams every dirty
//! page — as its full *physical* image, checksum trailer included — to
//! the sidecar log, syncs the log, writes the same images in place,
//! syncs the data file, then truncates the log. Dirty pages never reach
//! the data file outside a commit (no steal), so recovery never needs
//! undo; committed pages are always in the log before they are in
//! place, so redo alone suffices.
//!
//! ## Record format
//!
//! The log is a sequence of framed records:
//!
//! ```text
//! [body_len: u32][body: body_len bytes][crc: u64 = sum64(body)]
//! ```
//!
//! with three body shapes, distinguished by the first byte:
//!
//! ```text
//! begin   [1u8][pages: u32]                      — transaction opens
//! page    [2u8][page_id: u64][image: page_size]  — one physical image
//! commit  [3u8]                                  — transaction is durable
//! ```
//!
//! `sum64` is [`checksum::sum64`](crate::checksum::sum64), the kernel
//! behind the page trailers, taken plain (no zero mask: an empty log is
//! empty, not zeros). The record sum is part of the on-disk format — a
//! log written under another superblock version does not decode, which
//! is why both pagers check the version *before* they read a log byte
//! (see [`superblock::check_geometry`](crate::superblock::check_geometry)).
//!
//! ## Recovery
//!
//! [`recover`] scans the log, replays every *committed* transaction's
//! images through the raw pager, syncs, and only then truncates the
//! log — so a crash anywhere inside recovery leaves the log intact and
//! a second recovery replays the identical images (idempotent by
//! construction: images are physical, not deltas).
//!
//! Two kinds of badness are kept strictly apart:
//!
//! * a **torn tail** — short frame or checksum mismatch, exactly what a
//!   crash mid-append produces — ends the scan silently; everything
//!   after it is discarded, and an open transaction without its commit
//!   record is likewise discarded;
//! * **structural corruption inside a checksum-valid record** (commit
//!   without begin, wrong image length, unknown tag) cannot be produced
//!   by a crash and surfaces as a typed
//!   [`Error::WalCorrupt`].

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{Error, Result};

use crate::checksum::sum64;
use crate::pager::{PageId, Pager};

const TAG_BEGIN: u8 = 1;
const TAG_PAGE: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// The handle onto a pager's write-ahead log — the only way to the
/// log there is.
///
/// [`Pager::wal`] hands it out once per open;
/// [`recover`] borrows it before a pool exists, then the buffer pool
/// owns it (rank `WAL_IO`, taken under the commit lock alone) and runs
/// every commit's appends and log `sync`s through it — never under the
/// LRU or the pager lock, so cache-miss readers keep streaming pages
/// through the pager while a committer waits out a log fsync.
///
/// The log is an opaque byte stream — framing and checksumming live in
/// this module. `append` extends it or rolls its partial write back,
/// `rollback(len)` cuts it to a previously observed length (a no-op
/// past the end), `truncate` empties it, and `len` is a metadata peek:
/// no I/O worth accounting, never faulted.
#[allow(clippy::len_without_is_empty)] // `len` is a fallible metadata peek, not a container length
pub trait WalFile: Send {
    /// Appends raw bytes to the end of the log.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Forces appended bytes to durable storage.
    fn sync(&mut self) -> Result<()>;
    /// Current length of the log in bytes.
    fn len(&mut self) -> Result<u64>;
    /// Truncates the log back to `len` bytes (no-op if already shorter).
    fn rollback(&mut self, len: u64) -> Result<()>;
    /// Empties the log.
    fn truncate(&mut self) -> Result<()>;
    /// Reads the entire current log (for recovery).
    fn read_all(&mut self) -> Result<Vec<u8>>;
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(body.len() + 12);
    w.put_u32(body.len() as u32);
    w.put_bytes(body);
    w.put_u64(sum64(body));
    w.into_vec()
}

/// Encodes a framed `begin` record announcing `pages` page images.
pub fn encode_begin(pages: u32) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(5);
    w.put_u8(TAG_BEGIN);
    w.put_u32(pages);
    frame(w.as_slice())
}

/// Encodes a framed `page` record carrying one full physical image.
pub fn encode_page(id: PageId, image: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(9 + image.len());
    w.put_u8(TAG_PAGE);
    w.put_u64(id.0);
    w.put_bytes(image);
    frame(w.as_slice())
}

/// Encodes a framed `commit` record.
pub fn encode_commit() -> Vec<u8> {
    frame(&[TAG_COMMIT])
}

/// The committed content of a scanned log.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct ParsedLog {
    /// Committed transactions in log order; each is the transaction's
    /// page images in append order.
    pub(crate) committed: Vec<Vec<(PageId, Vec<u8>)>>,
    /// A short or checksum-mismatched frame ended the scan.
    pub(crate) torn_tail: bool,
    /// The log ended inside an uncommitted transaction.
    pub(crate) incomplete_txn: bool,
}

/// Scans a raw log byte stream into its committed transactions.
///
/// Torn tails end the scan silently (see module docs); structural
/// corruption inside checksum-valid records is a typed error.
pub(crate) fn decode_records(log: &[u8], page_size: usize) -> Result<ParsedLog> {
    let mut out = ParsedLog::default();
    // An open (not yet committed) transaction: declared page count and
    // the page images seen so far.
    type OpenTxn = (u32, Vec<(PageId, Vec<u8>)>);
    let mut open: Option<OpenTxn> = None;
    let mut pos = 0usize;
    while pos < log.len() {
        let rest = &log[pos..];
        if rest.len() < 4 {
            out.torn_tail = true;
            break;
        }
        let mut hdr = ByteReader::new(rest);
        let body_len = match hdr.get_u32() {
            Ok(n) => n as usize,
            Err(_) => {
                out.torn_tail = true;
                break;
            }
        };
        if rest.len() < 4 + body_len + 8 {
            out.torn_tail = true;
            break;
        }
        let body = &rest[4..4 + body_len];
        let mut crc_bytes = [0u8; 8];
        crc_bytes.copy_from_slice(&rest[4 + body_len..4 + body_len + 8]);
        if sum64(body) != u64::from_le_bytes(crc_bytes) {
            out.torn_tail = true;
            break;
        }
        let offset = pos as u64;
        let bad = |reason: &str| Error::WalCorrupt {
            offset,
            reason: reason.to_string(),
        };
        let mut r = ByteReader::new(body);
        let tag = r.get_u8().map_err(|_| bad("empty record body"))?;
        match tag {
            TAG_BEGIN => {
                if open.is_some() {
                    return Err(bad("begin inside an open transaction"));
                }
                let pages = r.get_u32().map_err(|_| bad("truncated begin record"))?;
                if r.remaining() != 0 {
                    return Err(bad("oversized begin record"));
                }
                open = Some((pages, Vec::new()));
            }
            TAG_PAGE => {
                let Some((_, pages)) = open.as_mut() else {
                    return Err(bad("page record outside a transaction"));
                };
                let id = PageId(r.get_u64().map_err(|_| bad("truncated page record"))?);
                if r.remaining() != page_size {
                    return Err(bad("page image length disagrees with page size"));
                }
                let image = r
                    .get_bytes(page_size)
                    .map_err(|_| bad("truncated page image"))?
                    .to_vec();
                pages.push((id, image));
            }
            TAG_COMMIT => {
                if r.remaining() != 0 {
                    return Err(bad("oversized commit record"));
                }
                let Some((declared, pages)) = open.take() else {
                    return Err(bad("commit without begin"));
                };
                if declared as usize != pages.len() {
                    return Err(bad("commit page count disagrees with begin"));
                }
                out.committed.push(pages);
            }
            _ => return Err(bad("unknown record tag")),
        }
        pos += 4 + body_len + 8;
    }
    if open.is_some() {
        out.incomplete_txn = true;
    }
    Ok(out)
}

/// What [`recover`] found and did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed in place.
    pub txns_replayed: u64,
    /// Page images written back during replay.
    pub pages_replayed: u64,
    /// A torn log tail (crash mid-append) was discarded.
    pub torn_tail_discarded: bool,
    /// An uncommitted trailing transaction was discarded.
    pub incomplete_txn_discarded: bool,
    /// Size of the log that was scanned, in bytes.
    pub log_bytes: u64,
}

/// Replays every committed transaction in `log` onto `pager`, then
/// truncates the log.
///
/// Runs against the *raw* pager — images are full physical pages,
/// trailer included, so no buffer-pool machinery is needed (or wanted:
/// recovery happens before a pool exists). Pages beyond the current
/// end of the data file are allocated as needed (a crash can lose
/// in-place extension that the log remembers).
///
/// The log is truncated only after replay *and* a data sync succeed, so
/// a crash anywhere inside `recover` is itself recoverable: the next
/// call sees the same log and replays the same physical images.
pub fn recover(pager: &mut dyn Pager, log: &mut dyn WalFile) -> Result<RecoveryReport> {
    let page_size = pager.page_size();
    let bytes = log.read_all()?;
    if bytes.is_empty() {
        return Ok(RecoveryReport::default());
    }
    let parsed = decode_records(&bytes, page_size)?;
    let mut report = RecoveryReport {
        txns_replayed: parsed.committed.len() as u64,
        pages_replayed: 0,
        torn_tail_discarded: parsed.torn_tail,
        incomplete_txn_discarded: parsed.incomplete_txn,
        log_bytes: bytes.len() as u64,
    };
    for txn in &parsed.committed {
        for (id, image) in txn {
            while pager.num_pages() <= id.0 {
                pager.allocate()?;
            }
            pager.write_page(*id, image)?;
            report.pages_replayed += 1;
        }
    }
    pager.sync()?;
    log.truncate()?;
    log.sync()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    const PS: usize = 64;

    fn img(fill: u8) -> Vec<u8> {
        vec![fill; PS]
    }

    fn txn_bytes(pages: &[(u64, u8)]) -> Vec<u8> {
        let mut log = encode_begin(pages.len() as u32);
        for &(id, fill) in pages {
            log.extend_from_slice(&encode_page(PageId(id), &img(fill)));
        }
        log.extend_from_slice(&encode_commit());
        log
    }

    #[test]
    fn record_round_trip() {
        let mut log = txn_bytes(&[(0, 0xAA), (3, 0x55)]);
        log.extend_from_slice(&txn_bytes(&[(1, 0x11)]));
        let parsed = decode_records(&log, PS).unwrap();
        assert!(!parsed.torn_tail && !parsed.incomplete_txn);
        assert_eq!(parsed.committed.len(), 2);
        assert_eq!(
            parsed.committed[0],
            vec![(PageId(0), img(0xAA)), (PageId(3), img(0x55))]
        );
        assert_eq!(parsed.committed[1], vec![(PageId(1), img(0x11))]);
    }

    #[test]
    fn empty_log_round_trip() {
        let parsed = decode_records(&[], PS).unwrap();
        assert_eq!(parsed, ParsedLog::default());
    }

    #[test]
    fn every_torn_tail_prefix_is_discarded_silently() {
        // One committed txn, then a second whose bytes are cut at every
        // possible length: the first txn must always survive, the torn
        // remainder must never error.
        let good = txn_bytes(&[(0, 0xAA)]);
        let tail = txn_bytes(&[(1, 0xBB), (2, 0xCC)]);
        for cut in 0..tail.len() {
            let mut log = good.clone();
            log.extend_from_slice(&tail[..cut]);
            let parsed = decode_records(&log, PS)
                .unwrap_or_else(|e| panic!("cut {cut}: unexpected error {e}"));
            assert_eq!(parsed.committed.len(), 1, "cut {cut}");
            if cut > 0 {
                assert!(
                    parsed.torn_tail || parsed.incomplete_txn,
                    "cut {cut}: a nonempty partial tail must be flagged"
                );
            }
        }
    }

    #[test]
    fn bitflip_in_tail_record_is_torn_not_corrupt() {
        let mut log = txn_bytes(&[(0, 0xAA)]);
        let n = log.len();
        log[n - 4] ^= 0x01; // inside the commit record's crc
        let parsed = decode_records(&log, PS).unwrap();
        assert!(parsed.torn_tail);
        assert!(parsed.incomplete_txn);
        assert!(parsed.committed.is_empty());
    }

    fn assert_wal_corrupt(log: &[u8], needle: &str) {
        match decode_records(log, PS) {
            Err(Error::WalCorrupt { reason, .. }) => {
                assert!(reason.contains(needle), "reason {reason:?} vs {needle:?}")
            }
            other => panic!("expected WalCorrupt({needle}), got {other:?}"),
        }
    }

    #[test]
    fn structurally_invalid_records_are_typed_errors() {
        // Commit with no begin.
        assert_wal_corrupt(&encode_commit(), "commit without begin");
        // Page outside a transaction.
        assert_wal_corrupt(&encode_page(PageId(0), &img(0)), "outside a transaction");
        // Begin inside an open transaction.
        let mut log = encode_begin(1);
        log.extend_from_slice(&encode_begin(1));
        assert_wal_corrupt(&log, "begin inside");
        // Wrong image length for the page size.
        let mut log = encode_begin(1);
        log.extend_from_slice(&encode_page(PageId(0), &[0u8; PS - 1]));
        assert_wal_corrupt(&log, "page size");
        // Commit whose page count disagrees with its begin.
        let mut log = encode_begin(2);
        log.extend_from_slice(&encode_page(PageId(0), &img(0)));
        log.extend_from_slice(&encode_commit());
        assert_wal_corrupt(&log, "count disagrees");
        // Unknown tag, valid crc.
        assert_wal_corrupt(&frame(&[9u8]), "unknown record tag");
    }

    #[test]
    fn recover_replays_committed_and_truncates() {
        let mut pager = MemPager::new(PS);
        let a = pager.allocate().unwrap();
        pager.write_page(a, &img(0x01)).unwrap();
        // Log commits a new image for page 0 and extends to page 2.
        let mut log = pager.wal().unwrap();
        log.append(&txn_bytes(&[(0, 0xAA), (2, 0xCC)])).unwrap();

        let report = recover(&mut pager, log.as_mut()).unwrap();
        assert_eq!(report.txns_replayed, 1);
        assert_eq!(report.pages_replayed, 2);
        assert!(!report.torn_tail_discarded);
        assert_eq!(pager.num_pages(), 3, "replay allocates through page 2");
        let mut buf = vec![0u8; PS];
        pager.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, img(0xAA));
        pager.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, img(0xCC));
        assert!(log.read_all().unwrap().is_empty(), "log truncated");

        // Second recovery over the truncated log is a no-op.
        let again = recover(&mut pager, log.as_mut()).unwrap();
        assert_eq!(again, RecoveryReport::default());
    }

    #[test]
    fn recover_discards_uncommitted_tail() {
        let mut pager = MemPager::new(PS);
        let a = pager.allocate().unwrap();
        pager.write_page(a, &img(0x01)).unwrap();
        let mut bytes = txn_bytes(&[(0, 0xAA)]);
        // An in-flight txn that never committed overwrites page 0 —
        // must NOT be replayed.
        bytes.extend_from_slice(&encode_begin(1));
        bytes.extend_from_slice(&encode_page(PageId(0), &img(0xEE)));
        let mut log = pager.wal().unwrap();
        log.append(&bytes).unwrap();

        let report = recover(&mut pager, log.as_mut()).unwrap();
        assert_eq!(report.txns_replayed, 1);
        assert!(report.incomplete_txn_discarded);
        let mut buf = vec![0u8; PS];
        pager.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, img(0xAA), "only the committed image is applied");
    }

    #[test]
    fn recover_is_idempotent_when_replay_dies() {
        // Simulate a crash mid-replay by hand: apply the first image,
        // "crash", then run full recovery — the end state must equal a
        // clean single recovery because images are physical.
        let bytes = txn_bytes(&[(0, 0xAA), (1, 0xBB)]);
        let two_pages_and_the_log = || {
            let mut pager = MemPager::new(PS);
            pager.allocate().unwrap();
            pager.allocate().unwrap();
            let mut log = pager.wal().unwrap();
            log.append(&bytes).unwrap();
            (pager, log)
        };
        let (mut clean, mut log) = two_pages_and_the_log();
        recover(&mut clean, log.as_mut()).unwrap();

        let (mut crashed, mut log) = two_pages_and_the_log();
        // Partial replay: first image lands, then the process dies —
        // the log is still intact because truncation comes last.
        crashed.write_page(PageId(0), &img(0xAA)).unwrap();
        recover(&mut crashed, log.as_mut()).unwrap();

        let mut a = vec![0u8; PS];
        let mut b = vec![0u8; PS];
        for id in 0..2 {
            clean.read_page(PageId(id), &mut a).unwrap();
            crashed.read_page(PageId(id), &mut b).unwrap();
            assert_eq!(a, b, "page {id}");
        }
    }
}
