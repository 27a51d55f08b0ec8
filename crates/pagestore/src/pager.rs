//! Raw page storage: the layer below the buffer pool.
//!
//! A [`Pager`] is pages plus one log: six page methods and
//! [`Pager::wal`], which hands out the [`WalFile`] handle every byte of
//! log traffic — recovery's read, a commit's appends and fsyncs — goes
//! through. There is no second way to the log, so a wrapper pager
//! (fault injection, a test gate) cannot route commits differently from
//! production by leaving a method out: it does not compile without one.
//!
//! The file-backed pager does **positional I/O**: every page read, page
//! write, allocation and log append names its own offset
//! (`read_exact_at` / `write_all_at`, one `pread` or `pwrite` each), so
//! neither file has a cursor to move first and nothing depends on where
//! the last operation left one. A buffer miss is one system call.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use boxagg_common::error::{invalid_arg, Result};

use crate::wal::WalFile;

/// Identifier of a page within a pager. Dense, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PageId(pub u64);

impl PageId {
    /// Sentinel for "no page" in on-page child pointers.
    pub const NULL: PageId = PageId(u64::MAX);

    /// Whether this is the [`NULL`](Self::NULL) sentinel.
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }
}

/// Page size used throughout the paper's experiments (§6).
pub const DEFAULT_PAGE_SIZE: usize = 8192;

/// The smallest page size a pager accepts. [`SharedStore`]'s openers
/// refuse a smaller one with a typed error before touching a file.
///
/// [`SharedStore`]: crate::SharedStore
pub const MIN_PAGE_SIZE: usize = 64;

/// Backing storage for fixed-size pages.
///
/// Implementations are dumb: no caching, no statistics. That is the
/// job of the buffer pool behind
/// [`SharedStore`](crate::store::SharedStore). Pagers must be `Send` so
/// the pool can be shared across threads; the pool serializes access
/// behind a mutex, so `Sync` is not needed.
pub trait Pager: Send {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages allocated so far.
    fn num_pages(&self) -> u64;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&mut self) -> Result<PageId>;

    /// Reads page `id` into `buf` (`buf.len() == page_size`).
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes `data` (`data.len() == page_size`) to page `id`.
    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()>;

    /// Flushes any pager-level buffering to durable storage.
    fn sync(&mut self) -> Result<()>;

    /// Hands out the handle onto this pager's sidecar write-ahead log.
    ///
    /// A log has one handle: the store asks once per open, lets
    /// [`wal::recover`](crate::wal::recover) borrow it, then gives it to
    /// the buffer pool, whose commits run their log I/O through it
    /// without the pager lock. Asking again is an error, as is asking a
    /// read-only pager at all.
    fn wal(&mut self) -> Result<Box<dyn WalFile>>;
}

/// [`Pager::wal`] for a pager that keeps its log in an `Option` until
/// asked: the first call moves it out, a second is refused.
fn hand_out<W: WalFile + 'static>(log: &mut Option<W>) -> Result<Box<dyn WalFile>> {
    match log.take() {
        Some(log) => Ok(Box::new(log)),
        None => Err(invalid_arg(
            "this pager's log handle was already handed out: a log has one handle",
        )),
    }
}

fn check_id(id: PageId, num_pages: u64) -> Result<usize> {
    if id.is_null() || id.0 >= num_pages {
        return Err(invalid_arg(format!(
            "page id {:?} out of range (allocated: {num_pages})",
            id
        )));
    }
    Ok(id.0 as usize)
}

/// In-memory pager: pages live in a `Vec`.
///
/// The experiments use this backing — the paper's metric is the *number*
/// of I/Os under a fixed LRU buffer, which is a property of the access
/// pattern, not of a spinning disk.
///
/// A page holds bytes only once it is written: an allocated page that
/// was never written is `None` and reads as the zero page, so a store
/// whose pages all stay in its buffer keeps no second copy here.
#[derive(Debug)]
pub struct MemPager {
    page_size: usize,
    pages: Vec<Option<Box<[u8]>>>,
    /// The log, until [`Pager::wal`] hands it out.
    wal: Option<MemWal>,
}

impl MemPager {
    /// Creates an empty in-memory pager.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= MIN_PAGE_SIZE, "page size unreasonably small");
        Self {
            page_size,
            pages: Vec::new(),
            wal: Some(MemWal(Vec::new())),
        }
    }
}

/// [`MemPager`]'s log: the bytes themselves.
#[derive(Debug)]
struct MemWal(Vec<u8>);

impl WalFile for MemWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.0.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn len(&mut self) -> Result<u64> {
        Ok(self.0.len() as u64)
    }

    fn rollback(&mut self, len: u64) -> Result<()> {
        self.0.truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }

    fn truncate(&mut self) -> Result<()> {
        self.0.clear();
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.0.clone())
    }
}

impl Pager for MemPager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = PageId(self.pages.len() as u64);
        self.pages.push(None);
        Ok(id)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let i = check_id(id, self.num_pages())?;
        debug_assert_eq!(buf.len(), self.page_size);
        match &self.pages[i] {
            Some(page) => buf.copy_from_slice(page),
            None => buf.fill(0),
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        let i = check_id(id, self.num_pages())?;
        debug_assert_eq!(data.len(), self.page_size);
        match &mut self.pages[i] {
            Some(page) => page.copy_from_slice(data),
            slot => *slot = Some(data.into()),
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        crate::rank::assert_no_lru_held_for_sync();
        Ok(())
    }

    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        hand_out(&mut self.wal)
    }
}

/// File-backed pager: page `i` occupies bytes `[i·P, (i+1)·P)` of the file.
///
/// The write-ahead log lives in a sidecar file at `<path>.wal` — created
/// alongside the page file, preserved across reopen so recovery can
/// replay it, and emptied by [`WalFile::truncate`] once a commit is
/// fully applied in place.
#[derive(Debug)]
pub struct FilePager {
    page_size: usize,
    file: File,
    num_pages: u64,
    /// What [`Pager::allocate`] appends: one zero page, built once.
    zero_page: Box<[u8]>,
    /// The log, until [`Pager::wal`] hands it out.
    wal: Option<FileWal>,
}

/// [`FilePager`]'s log: the sidecar file plus its tracked length.
#[derive(Debug)]
struct FileWal {
    file: File,
    len: u64,
}

impl WalFile for FileWal {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if let Err(e) = self.file.write_all_at(bytes, self.len) {
            // A short append leaves a torn tail; recovery would discard
            // it by checksum, but rolling back keeps the clean path
            // append-at-known-offset. Best effort: the write error is
            // what the caller must see.
            // lint: allow(discarded-result) -- best-effort rollback; the append error is what the caller must see
            let _ = self.file.set_len(self.len);
            return Err(e.into());
        }
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&mut self) -> Result<u64> {
        Ok(self.len)
    }

    fn rollback(&mut self, len: u64) -> Result<()> {
        if len < self.len {
            self.file.set_len(len)?;
            self.len = len;
        }
        Ok(())
    }

    fn truncate(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.len = 0;
        Ok(())
    }

    fn read_all(&mut self) -> Result<Vec<u8>> {
        let len = usize::try_from(self.len)
            .map_err(|_| invalid_arg("the log is too large to read into memory"))?;
        let mut out = vec![0u8; len];
        self.file.read_exact_at(&mut out, 0)?;
        Ok(out)
    }
}

/// The sidecar WAL path for a page file: `<path>.wal`.
pub fn wal_path(path: impl AsRef<Path>) -> std::path::PathBuf {
    let mut os = path.as_ref().as_os_str().to_os_string();
    os.push(".wal");
    std::path::PathBuf::from(os)
}

impl FilePager {
    /// Creates (truncating) a new page file and an empty sidecar WAL.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        assert!(page_size >= MIN_PAGE_SIZE, "page size unreasonably small");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(wal_path(path))?;
        Ok(Self {
            page_size,
            file,
            num_pages: 0,
            zero_page: vec![0u8; page_size].into_boxed_slice(),
            wal: Some(FileWal { file: wal, len: 0 }),
        })
    }

    /// Opens an existing page file (and its sidecar WAL, which is
    /// created empty when absent — a cleanly-truncated log and a
    /// missing one are equivalent).
    ///
    /// If the file begins with a [`superblock`](crate::superblock), the
    /// recorded geometry is authoritative: another format version, or
    /// opening with a different `page_size`, is a typed
    /// [`Error::GeometryMismatch`] — raised before the sidecar log is
    /// opened, so neither file is touched — instead of sheared page
    /// reads. Files without a superblock (raw pager files) fall back
    /// to the length-divisibility check.
    ///
    /// [`Error::GeometryMismatch`]: boxagg_common::error::Error::GeometryMismatch
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        // Before the log is so much as opened: its record sums belong
        // to the format version.
        crate::superblock::check_geometry(&file, page_size)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(invalid_arg(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        let wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // Never truncate: a pending committed transaction may be
            // sitting in the log, waiting for recovery to replay it.
            .truncate(false)
            .open(wal_path(path))?;
        let wal_len = wal.metadata()?.len();
        Ok(Self {
            page_size,
            file,
            num_pages: len / page_size as u64,
            zero_page: vec![0u8; page_size].into_boxed_slice(),
            wal: Some(FileWal {
                file: wal,
                len: wal_len,
            }),
        })
    }

    /// Byte offset of page `index` in the file.
    fn offset(&self, index: usize) -> u64 {
        index as u64 * self.page_size as u64
    }
}

impl Pager for FilePager {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn allocate(&mut self) -> Result<PageId> {
        let id = PageId(self.num_pages);
        let end = self.offset(self.num_pages as usize);
        if let Err(e) = self.file.write_all_at(&self.zero_page, end) {
            // A short write would leave a misaligned tail that
            // `open` rejects; truncate back to the last whole page.
            // lint: allow(discarded-result) -- best-effort rollback; the write error is what the caller must see
            let _ = self.file.set_len(end);
            return Err(e.into());
        }
        self.num_pages += 1;
        Ok(id)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let i = check_id(id, self.num_pages)?;
        debug_assert_eq!(buf.len(), self.page_size);
        self.file.read_exact_at(buf, self.offset(i))?;
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> Result<()> {
        let i = check_id(id, self.num_pages)?;
        debug_assert_eq!(data.len(), self.page_size);
        self.file.write_all_at(data, self.offset(i))?;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        crate::rank::assert_no_lru_held_for_sync();
        self.file.sync_data()?;
        Ok(())
    }

    fn wal(&mut self) -> Result<Box<dyn WalFile>> {
        hand_out(&mut self.wal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxagg_common::tempdir as tempfile;

    /// The pager contract: pages, then the one log handle.
    fn exercise(pager: &mut dyn Pager) {
        let a = pager.allocate().unwrap();
        let b = pager.allocate().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(pager.num_pages(), 2);

        let ps = pager.page_size();
        let mut buf = vec![0u8; ps];

        // Fresh pages read back zeroed.
        pager.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));

        let mut data = vec![0u8; ps];
        data[0] = 0xAA;
        data[ps - 1] = 0x55;
        pager.write_page(b, &data).unwrap();
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, data);

        // Page A untouched by writing B.
        pager.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));

        // Out-of-range and NULL ids are rejected.
        assert!(pager.read_page(PageId(99), &mut buf).is_err());
        assert!(pager.write_page(PageId::NULL, &data).is_err());
        pager.sync().unwrap();

        // The sidecar WAL round-trips as an opaque byte stream: appends
        // concatenate, reads see everything, truncate empties it.
        let mut log = pager.wal().unwrap();
        assert!(pager.wal().is_err(), "a log has one handle");
        assert_eq!(log.read_all().unwrap(), b"");
        assert_eq!(log.len().unwrap(), 0);
        log.append(b"alpha").unwrap();
        log.append(b"-beta").unwrap();
        log.sync().unwrap();
        assert_eq!(log.read_all().unwrap(), b"alpha-beta");
        assert_eq!(log.len().unwrap(), 10);
        // Appends after a full read continue at the tail.
        log.append(b"!").unwrap();
        assert_eq!(log.read_all().unwrap(), b"alpha-beta!");
        // Rollback drops only the bytes past the recorded offset; a
        // rollback to (or past) the current end is a no-op.
        log.rollback(5).unwrap();
        assert_eq!(log.read_all().unwrap(), b"alpha");
        log.rollback(999).unwrap();
        assert_eq!(log.read_all().unwrap(), b"alpha");
        log.append(b"!").unwrap();
        assert_eq!(log.read_all().unwrap(), b"alpha!");
        assert_eq!(log.len().unwrap(), 6);
        log.truncate().unwrap();
        assert_eq!(log.read_all().unwrap(), b"");
        assert_eq!(log.len().unwrap(), 0);
        // The log is independent of page storage.
        pager.read_page(b, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Left pending for whoever reopens the medium.
        log.append(b"pending-txn").unwrap();
        log.sync().unwrap();
    }

    #[test]
    fn an_allocated_page_holds_no_bytes_until_written() {
        let mut p = MemPager::new(64);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.write_page(b, &[3; 64]).unwrap();
        assert!(
            p.pages[a.0 as usize].is_none(),
            "never written, never stored"
        );
        assert!(p.pages[b.0 as usize].is_some());
        let mut buf = [9u8; 64];
        p.read_page(a, &mut buf).unwrap();
        assert_eq!(buf, [0; 64], "an unwritten page reads as zeros");
        let mask = crate::checksum::zero_mask(64 - crate::checksum::TRAILER);
        assert_eq!(crate::checksum::verify(&buf, mask), Ok(()), "and verifies");
    }

    #[test]
    fn mem_pager_basics() {
        exercise(&mut MemPager::new(256));
    }

    #[test]
    fn unarmed_fault_pager_is_a_pager() {
        let (mut p, faults) = crate::fault::FaultPager::new(Box::new(MemPager::new(256)));
        exercise(&mut p);
        assert_eq!(faults.injected(), 0);
    }

    #[test]
    fn file_pager_basics_and_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.db");
        // Dropped without truncating the log: death mid-commit.
        exercise(&mut FilePager::create(&path, 256).unwrap());
        assert!(wal_path(&path).exists());
        // Reopen: pages and the pending log persisted.
        let mut p = FilePager::open(&path, 256).unwrap();
        assert_eq!(p.num_pages(), 2);
        let mut buf = vec![0u8; 256];
        p.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[0], 0xAA);
        assert_eq!(buf[255], 0x55);
        let mut log = p.wal().unwrap();
        assert_eq!(log.len().unwrap(), 11);
        assert_eq!(log.read_all().unwrap(), b"pending-txn");
        // Further appends land after the surviving tail.
        log.append(b"+more").unwrap();
        assert_eq!(log.read_all().unwrap(), b"pending-txn+more");
        log.truncate().unwrap();
        assert_eq!(log.read_all().unwrap(), b"");
    }

    #[test]
    fn open_rejects_wrong_page_size_with_typed_geometry_error() {
        use crate::superblock::Superblock;
        use boxagg_common::error::Error;

        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("geo.db");
        // Format a 1024-byte-page store: page 0 carries the superblock.
        {
            let mut p = FilePager::create(&path, 1024).unwrap();
            let id = p.allocate().unwrap();
            let mut page = vec![0u8; 1024];
            let sb = Superblock::new(1024);
            let enc = sb.encode();
            page[..enc.len()].copy_from_slice(&enc);
            p.write_page(id, &page).unwrap();
            p.sync().unwrap();
        }
        // Reopening at 4096 must fail with the typed mismatch, not a
        // length complaint or sheared reads.
        let err = FilePager::open(&path, 4096).unwrap_err();
        match err {
            Error::GeometryMismatch {
                what,
                stored,
                requested,
            } => {
                assert_eq!(what, "page_size");
                assert_eq!(stored, 1024);
                assert_eq!(requested, 4096);
            }
            other => panic!("expected GeometryMismatch, got: {other}"),
        }
        // The recorded size still opens fine.
        let p = FilePager::open(&path, 1024).unwrap();
        assert_eq!(p.num_pages(), 1);
    }

    #[test]
    fn a_failed_allocate_changes_nothing() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("ro.db");
        {
            let mut p = FilePager::create(&path, 256).unwrap();
            p.allocate().unwrap();
            p.allocate().unwrap();
        }
        // The same pager over a descriptor that cannot be written: the
        // append fails, the page count and the file stay as they were,
        // and the pages already there still read by offset.
        let mut p = FilePager::open(&path, 256).unwrap();
        p.file = File::open(&path).unwrap();
        assert!(p.allocate().is_err());
        assert_eq!(p.num_pages(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 512);
        let mut buf = vec![0xFFu8; 256];
        p.read_page(PageId(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        assert!(p.read_page(PageId(2), &mut buf).is_err());
    }

    #[test]
    fn file_pager_rejects_misaligned_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("bad.db");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FilePager::open(&path, 256).is_err());
    }

    #[test]
    fn null_page_id_sentinel() {
        assert!(PageId::NULL.is_null());
        assert!(!PageId(0).is_null());
    }
}
