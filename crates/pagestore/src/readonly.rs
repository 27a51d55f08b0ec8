//! A strictly read-only pager for inspecting a live store file.
//!
//! `boxagg query`/`boxagg info` used to open stores through the normal
//! read-write path, which has two side effects that are catastrophic
//! when *another process* is serving the same file: WAL recovery
//! replays and truncates the sidecar log out from under the server,
//! and an empty/all-zero file gets formatted with a fresh page-0
//! superblock. `ReadOnlyPager` removes the entire class of bugs by
//! construction: the data file is opened without write permission, the
//! sidecar log is read (never opened for writing, never created, never
//! truncated), and every mutating [`Pager`] entry point — asking for
//! the log handle included — returns a typed [`Error::ReadOnly`].
//!
//! Committed-but-unapplied WAL transactions still have to be visible —
//! a crash may have left the last commit sitting in the log, and a
//! read-only open must report *committed* state, not the stale in-place
//! bytes. Instead of replaying in place (a mutation), the committed
//! page images are folded into an in-memory **overlay**: reads check
//! the overlay first and fall through to the file. Torn tails and
//! uncommitted transactions are ignored exactly as recovery would
//! discard them.

use std::collections::HashMap;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;

use boxagg_common::error::{invalid_arg, Error, Result};

use crate::pager::{wal_path, PageId, Pager};
use crate::wal::{self, WalFile};

/// Read-only view of a page file plus the committed tail of its WAL.
pub(crate) struct ReadOnlyPager {
    file: File,
    page_size: usize,
    /// Pages physically present in the data file.
    file_pages: u64,
    /// Logical page count: file pages, extended by any page the
    /// committed log allocated past the end of the file.
    num_pages: u64,
    /// Committed WAL images not yet applied in place (last commit wins).
    overlay: HashMap<PageId, Vec<u8>>,
}

impl ReadOnlyPager {
    /// Opens `path` read-only at the given geometry and folds the
    /// committed transactions of its sidecar WAL into the overlay.
    ///
    /// Neither file is created, written, extended or truncated; a
    /// missing WAL is treated as empty (equivalent to a cleanly
    /// truncated log).
    pub(crate) fn open(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        let path = path.as_ref();
        let file = File::open(path)?;
        // Before the log is read: its record sums belong to the
        // format version.
        crate::superblock::check_geometry(&file, page_size)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(invalid_arg(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        let file_pages = len / page_size as u64;

        // Fold the committed log tail into the overlay without touching
        // either file. Structural corruption inside the checksum-valid
        // prefix surfaces exactly as recovery would report it.
        let log = match std::fs::read(wal_path(path)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut overlay = HashMap::new();
        let mut num_pages = file_pages;
        if !log.is_empty() {
            let parsed = wal::decode_records(&log, page_size)?;
            for txn in parsed.committed {
                for (id, image) in txn {
                    num_pages = num_pages.max(id.0 + 1);
                    overlay.insert(id, image.to_vec());
                }
            }
        }
        Ok(Self {
            file,
            page_size,
            file_pages,
            num_pages,
            overlay,
        })
    }

    fn denied<T>(op: &'static str) -> Result<T> {
        Err(Error::ReadOnly { op })
    }
}

impl Pager for ReadOnlyPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn allocate(&mut self) -> Result<PageId> {
        Self::denied("allocate")
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if id.0 >= self.num_pages {
            return Err(invalid_arg(format!(
                "page {} out of range ({} pages)",
                id.0, self.num_pages
            )));
        }
        if buf.len() != self.page_size {
            return Err(invalid_arg("read buffer does not match page size"));
        }
        if let Some(image) = self.overlay.get(&id) {
            buf.copy_from_slice(image);
            return Ok(());
        }
        if id.0 >= self.file_pages {
            // Allocated by a committed transaction but never written by
            // one: logically all zeros, like a fresh page.
            buf.fill(0);
            return Ok(());
        }
        self.file.read_exact_at(buf, id.0 * self.page_size as u64)?;
        Ok(())
    }

    fn write_page(&mut self, _id: PageId, _data: &[u8]) -> Result<()> {
        Self::denied("write_page")
    }

    fn sync(&mut self) -> Result<()> {
        Self::denied("sync")
    }

    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        Self::denied("wal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::FilePager;
    use boxagg_common::tempdir as tempfile;

    const PS: usize = 128;

    #[test]
    fn reads_pass_through_and_writes_are_refused() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        let mut fp = FilePager::create(&path, PS).unwrap();
        let a = fp.allocate().unwrap();
        fp.write_page(a, &[7u8; PS]).unwrap();
        fp.sync().unwrap();
        drop(fp);

        let mut ro = ReadOnlyPager::open(&path, PS).unwrap();
        let mut buf = vec![0u8; PS];
        ro.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; PS]);
        for (op, err) in [
            ("write_page", ro.write_page(a, &[0u8; PS]).unwrap_err()),
            ("allocate", ro.allocate().map(|_| ()).unwrap_err()),
            ("sync", ro.sync().unwrap_err()),
            ("wal", ro.wal().map(|_| ()).unwrap_err()),
        ] {
            assert!(
                matches!(err, Error::ReadOnly { op: o } if o == op),
                "{op}: {err}"
            );
        }
    }

    #[test]
    fn committed_wal_tail_is_overlaid_not_replayed() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        let mut fp = FilePager::create(&path, PS).unwrap();
        let a = fp.allocate().unwrap();
        fp.write_page(a, &[1u8; PS]).unwrap();
        fp.sync().unwrap();
        // A committed transaction sitting in the log: new image for
        // page 0, plus page 2 allocated past the end of the file.
        let mut log = wal::encode_begin(2);
        log.extend_from_slice(&wal::encode_page(PageId(0), &[9u8; PS]));
        log.extend_from_slice(&wal::encode_page(PageId(2), &[5u8; PS]));
        log.extend_from_slice(&wal::encode_commit());
        // And an uncommitted tail that must be ignored.
        log.extend_from_slice(&wal::encode_begin(1));
        log.extend_from_slice(&wal::encode_page(PageId(0), &[0xEE; PS]));
        let mut wal = fp.wal().unwrap();
        wal.append(&log).unwrap();
        wal.sync().unwrap();
        drop((fp, wal));

        let before_pages = std::fs::read(&path).unwrap();
        let before_wal = std::fs::read(wal_path(&path)).unwrap();

        let mut ro = ReadOnlyPager::open(&path, PS).unwrap();
        assert_eq!(ro.num_pages(), 3, "overlay extends the page range");
        let mut buf = vec![0u8; PS];
        ro.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; PS], "committed overlay wins");
        ro.read_page(PageId(2), &mut buf).unwrap();
        assert_eq!(buf, vec![5u8; PS], "log-allocated page is readable");
        // The page allocated between file end and overlay reads zero.
        ro.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, vec![0u8; PS]);
        drop(ro);

        assert_eq!(std::fs::read(&path).unwrap(), before_pages);
        assert_eq!(std::fs::read(wal_path(&path)).unwrap(), before_wal);
    }

    #[test]
    fn missing_wal_is_an_empty_log() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        std::fs::write(&path, vec![3u8; PS]).unwrap();
        let mut ro = ReadOnlyPager::open(&path, PS).unwrap();
        assert_eq!(ro.num_pages(), 1);
        let mut buf = vec![0u8; PS];
        ro.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; PS]);
        assert!(!wal_path(&path).exists(), "no sidecar was created");
    }
}
