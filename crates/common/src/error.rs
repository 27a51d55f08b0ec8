//! Error handling shared across the workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the storage substrate and the index structures.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O failure from a file-backed pager.
    Io(std::io::Error),
    /// A page or record failed to decode (truncated or corrupt bytes).
    Corrupt(String),
    /// A record is too large to ever fit in a page of the configured size.
    RecordTooLarge {
        /// Encoded size of the offending record in bytes.
        record: usize,
        /// Usable payload bytes per page.
        page: usize,
    },
    /// A caller-supplied argument was invalid (e.g. dimension mismatch).
    InvalidArgument(String),
    /// A page's stored checksum did not match its contents — a torn
    /// write, bit flip or crash-truncated tail surfaced by the buffer
    /// pool's trailer verification.
    Corruption {
        /// The page whose verification failed.
        page: u64,
        /// Checksum stored in the page trailer.
        expected: u64,
        /// Checksum computed over the payload actually read.
        found: u64,
    },
    /// The write-ahead log is structurally invalid *inside* its
    /// checksum-valid prefix (e.g. a commit record without a begin, or
    /// a page image whose length disagrees with the page size). A torn
    /// tail is *not* this error — torn tails are expected after a crash
    /// and silently discarded by recovery.
    WalCorrupt {
        /// Byte offset of the offending record within the log.
        offset: u64,
        /// What was structurally wrong.
        reason: String,
    },
    /// A mutation was attempted through a read-only store handle
    /// (`SharedStore::open_readonly`). Read-only opens promise the
    /// file another process may be serving stays byte-for-byte
    /// untouched — no page writes, no page-0 formatting, no WAL
    /// truncation — so every mutating entry point fails with this
    /// typed error instead.
    ReadOnly {
        /// The refused operation (`"write_page"`, `"commit"`, …).
        op: &'static str,
    },
    /// A request's deadline elapsed before the server finished (or
    /// started) the work. The deadline travels in the request frame;
    /// the server checks it on arrival and again after any wait (the
    /// write lock, the commit queue), so an expired request is dropped
    /// instead of doing work nobody is waiting for.
    DeadlineExceeded {
        /// The budget the client granted, in milliseconds.
        budget_ms: u32,
    },
    /// The server refused the connection at accept: it already serves
    /// its connection limit. Nothing was sent, let alone applied;
    /// dialling again after the hinted delay is always safe.
    Overloaded {
        /// Server's hint for how long to back off before retrying,
        /// in milliseconds.
        retry_after_ms: u32,
    },
    /// A store was reopened with geometry that disagrees with what its
    /// superblock records (wrong page size, incompatible format
    /// version). Typed so callers can distinguish misconfiguration from
    /// on-disk corruption.
    GeometryMismatch {
        /// Which parameter disagreed (`"page_size"`, `"version"`, …).
        what: &'static str,
        /// The value recorded durably in the superblock.
        stored: u64,
        /// The value the caller asked to open with.
        requested: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Corrupt(msg) => write!(f, "corrupt page data: {msg}"),
            Error::RecordTooLarge { record, page } => write!(
                f,
                "record of {record} bytes cannot fit in a page payload of {page} bytes"
            ),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Corruption {
                page,
                expected,
                found,
            } => write!(
                f,
                "page {page} failed checksum verification \
                 (stored {expected:#018x}, computed {found:#018x})"
            ),
            Error::WalCorrupt { offset, reason } => {
                write!(f, "write-ahead log corrupt at byte {offset}: {reason}")
            }
            Error::ReadOnly { op } => {
                write!(f, "store is read-only: refusing {op}")
            }
            Error::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline exceeded: the {budget_ms} ms budget elapsed")
            }
            Error::Overloaded { retry_after_ms } => write!(
                f,
                "server overloaded: request shed, retry after {retry_after_ms} ms"
            ),
            Error::GeometryMismatch {
                what,
                stored,
                requested,
            } => write!(
                f,
                "store geometry mismatch: superblock records {what} = {stored}, \
                 caller requested {requested}"
            ),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenience constructor for [`Error::InvalidArgument`].
pub fn invalid_arg(msg: impl Into<String>) -> Error {
    Error::InvalidArgument(msg.into())
}

/// Convenience constructor for [`Error::Corrupt`].
pub fn corrupt(msg: impl Into<String>) -> Error {
    Error::Corrupt(msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        let e = invalid_arg("dim mismatch");
        assert_eq!(e.to_string(), "invalid argument: dim mismatch");
        let e = corrupt("bad tag");
        assert_eq!(e.to_string(), "corrupt page data: bad tag");
        let e = Error::RecordTooLarge {
            record: 9000,
            page: 8192,
        };
        assert!(e.to_string().contains("9000"));
        assert!(e.to_string().contains("8192"));
    }

    #[test]
    fn io_error_converts_and_sources() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn non_io_errors_have_no_source() {
        assert!(std::error::Error::source(&corrupt("x")).is_none());
    }

    #[test]
    fn wal_corrupt_reports_offset_and_reason() {
        let e = Error::WalCorrupt {
            offset: 4096,
            reason: "commit without begin".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("byte 4096"), "got: {s}");
        assert!(s.contains("commit without begin"), "got: {s}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn geometry_mismatch_reports_both_sides() {
        let e = Error::GeometryMismatch {
            what: "page_size",
            stored: 1024,
            requested: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("page_size"), "got: {s}");
        assert!(s.contains("1024"), "got: {s}");
        assert!(s.contains("4096"), "got: {s}");
    }

    #[test]
    fn deadline_and_overload_report_their_budgets() {
        let e = Error::DeadlineExceeded { budget_ms: 250 };
        let s = e.to_string();
        assert!(s.contains("deadline exceeded"), "got: {s}");
        assert!(s.contains("250"), "got: {s}");
        let e = Error::Overloaded { retry_after_ms: 40 };
        let s = e.to_string();
        assert!(s.contains("overloaded"), "got: {s}");
        assert!(s.contains("40"), "got: {s}");
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn corruption_reports_page_and_both_checksums() {
        let e = Error::Corruption {
            page: 17,
            expected: 0xDEAD,
            found: 0xBEEF,
        };
        let s = e.to_string();
        assert!(s.contains("page 17"), "got: {s}");
        assert!(s.contains("0x000000000000dead"), "got: {s}");
        assert!(s.contains("0x000000000000beef"), "got: {s}");
        assert!(std::error::Error::source(&e).is_none());
    }
}
