//! Durable store metadata: page 0 as a versioned superblock.
//!
//! The superblock makes a store self-describing: geometry (page size,
//! checksum flag) and a catalog of *named roots* — `{name → (root page,
//! length, dimensionality, value-size bound, index kind, space
//! bounds)}` — live in page 0, so reopening an index requires no
//! out-of-band state: the caller never has to remember
//! `(root, len, space)`.
//!
//! Layout of the page-0 payload (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"BOXAGGSB"
//!      8     2  format version (currently 2)
//!     10     1  flags (bit 0: page checksums verified — always written as
//!               1; files that recorded 0 still carry stamped trailers and
//!               open normally)
//!     11     1  reserved (0)
//!     12     4  page size in bytes
//!     16     4  root count
//!            …  root entries (name, kind, root, len, dims,
//!               max_value_size, dims × (lo, hi) f64 bounds)
//! ```
//!
//! The first [`PREFIX_LEN`] bytes are position-stable across versions so
//! both pagers ([`FilePager::open`](crate::pager::FilePager::open) and
//! the read-only one) can [`check_geometry`] from the raw file prefix
//! before any page-level machinery exists and **before a single log
//! byte is read**. That is what turns a wrong `page_size` into a typed
//! [`GeometryMismatch`](boxagg_common::error::Error::GeometryMismatch)
//! instead of sheared reads, and a store of another format version
//! into the same typed error instead of a committed log discarded as
//! a "torn tail" because its record sums are another version's.
//!
//! ## Format versions
//!
//! The version covers everything on disk, not just this page: **v2**
//! sums page trailers and log records with
//! [`checksum::sum64`](crate::checksum::sum64); v1 used bytewise
//! FNV-1a for both. There is no v1 reader — a v1 store is refused at
//! open with both files untouched; rebuild it with `boxagg build`. (A
//! raw pager file has no superblock and so no version: one written
//! before v2 opens, and its first fetched page fails verification as
//! a typed `Corruption`.)
//!
//! The superblock is updated *through* the WAL like any other page
//! (`SharedStore::set_root` marks page 0 dirty; `commit()` makes it
//! durable), so a crash between "index built" and "root published"
//! recovers to a store that simply does not list the root yet.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;

use boxagg_common::bytes::{ByteReader, ByteWriter};
use boxagg_common::error::{corrupt, invalid_arg, Error, Result};
use boxagg_common::geom::MAX_DIM;

use crate::pager::PageId;

/// Magic bytes identifying a boxagg superblock.
pub const MAGIC: [u8; 8] = *b"BOXAGGSB";

/// Current on-disk format version (see the module docs).
pub const VERSION: u16 = 2;

/// Length of the position-stable prefix (magic through page size).
pub const PREFIX_LEN: usize = 16;

fn version_mismatch(stored: u16) -> Error {
    Error::GeometryMismatch {
        what: "version",
        stored: stored as u64,
        requested: VERSION as u64,
    }
}

/// Checks a raw file prefix in the order magic → version → page size.
/// `Ok(None)` means "not a superblock" (raw pager files, or too short
/// to hold one) — absence of the magic is legitimate; a superblock of
/// another format version is the typed error; otherwise the recorded
/// page size.
fn parse_prefix(prefix: &[u8]) -> Result<Option<usize>> {
    if prefix.len() < PREFIX_LEN || prefix[..8] != MAGIC {
        return Ok(None);
    }
    let version = u16::from_le_bytes([prefix[8], prefix[9]]);
    if version != VERSION {
        return Err(version_mismatch(version));
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&prefix[12..16]);
    Ok(Some(u32::from_le_bytes(b) as usize))
}

/// Reads the position-stable prefix off the start of a store file and
/// returns the page size it records — `None` for a file without a
/// superblock, [`Error::GeometryMismatch`] on `"version"` for a store
/// of another format version. Touches nothing but those
/// [`PREFIX_LEN`] bytes, read in place: the file's cursor does not move.
pub fn stored_page_size(file: &File) -> Result<Option<usize>> {
    let mut prefix = [0u8; PREFIX_LEN];
    match file.read_exact_at(&mut prefix, 0) {
        Ok(()) => parse_prefix(&prefix),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The gate both pagers pass before they look at the write-ahead log:
/// if `file` begins with a superblock, its format version must be
/// [`VERSION`] and its page size `page_size`, else a typed
/// [`Error::GeometryMismatch`]. The log's record sums belong to the
/// format, so replaying (or overlaying) a log before this check would
/// silently drop another version's committed transactions.
pub fn check_geometry(file: &File, page_size: usize) -> Result<()> {
    match stored_page_size(file)? {
        Some(stored) if stored != page_size => Err(Error::GeometryMismatch {
            what: "page_size",
            stored: stored as u64,
            requested: page_size as u64,
        }),
        _ => Ok(()),
    }
}

/// What kind of index a named root points at, so `open_named` can
/// reject reopening a root under the wrong structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootKind {
    /// A BA-tree (`boxagg_batree`'s dominance-sum index).
    BaTree,
    /// An ECDF-B-tree with the update-optimized border policy.
    EcdfUpdate,
    /// An ECDF-B-tree with the query-optimized border policy.
    EcdfQuery,
    /// Not a page root at all: a metadata entry (e.g. an engine-level
    /// object count) riding in the catalog. `root` is conventionally
    /// [`PageId::NULL`].
    Meta,
}

impl RootKind {
    fn to_u8(self) -> u8 {
        match self {
            RootKind::BaTree => 0,
            RootKind::EcdfUpdate => 1,
            RootKind::EcdfQuery => 2,
            RootKind::Meta => 3,
        }
    }

    fn from_u8(x: u8) -> Result<Self> {
        match x {
            0 => Ok(RootKind::BaTree),
            1 => Ok(RootKind::EcdfUpdate),
            2 => Ok(RootKind::EcdfQuery),
            3 => Ok(RootKind::Meta),
            other => Err(corrupt(format!("unknown root kind {other}"))),
        }
    }
}

/// One catalog entry: everything needed to reopen an index by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RootEntry {
    /// The index's root page.
    pub root: PageId,
    /// Number of entries in the index (trees track an exact count).
    pub len: u64,
    /// Dimensionality of the indexed space.
    pub dims: u32,
    /// The value-size bound the tree was created with — together with
    /// the page size this determines the node fan-out, so it must
    /// round-trip exactly.
    pub max_value_size: u32,
    /// Which structure the root belongs to.
    pub kind: RootKind,
    /// Per-dimension `(lo, hi)` bounds of the indexed space
    /// (`bounds.len() == dims`).
    pub bounds: Vec<(f64, f64)>,
}

impl RootEntry {
    /// What both ends of the codec hold an entry to, so nothing is
    /// written that [`Superblock::decode`] would refuse and nothing is
    /// decoded that `Rect::from_bounds` would panic on: one bound pair
    /// per dimension, `lo ≤ hi` with neither NaN, at most
    /// [`MAX_DIM`] dimensions, and at least one for a tree root.
    fn check(&self, name: &str) -> std::result::Result<(), String> {
        let dims = self.dims as usize;
        if self.bounds.len() != dims {
            return Err(format!(
                "root `{name}` declares {dims} dimensions but carries {} bound pairs",
                self.bounds.len()
            ));
        }
        if dims > MAX_DIM || (dims == 0 && self.kind != RootKind::Meta) {
            return Err(format!(
                "root `{name}` ({:?}) declares {dims} dimensions, out of range",
                self.kind
            ));
        }
        let invalid = |(lo, hi): &&(f64, f64)| lo.is_nan() || hi.is_nan() || lo > hi;
        match self.bounds.iter().find(invalid) {
            Some((lo, hi)) => Err(format!("root `{name}` has an invalid bound ({lo}, {hi})")),
            None => Ok(()),
        }
    }
}

/// The decoded page-0 superblock.
#[derive(Debug, Clone, PartialEq)]
pub struct Superblock {
    /// Page size the store was created with.
    pub page_size: u32,
    roots: BTreeMap<String, RootEntry>,
}

impl Superblock {
    /// A fresh superblock with an empty root catalog.
    pub fn new(page_size: u32) -> Self {
        Self {
            page_size,
            roots: BTreeMap::new(),
        }
    }

    /// Looks up a named root.
    pub fn root(&self, name: &str) -> Option<&RootEntry> {
        self.roots.get(name)
    }

    /// Inserts or replaces a named root. An entry the codec could not
    /// round-trip (see [`RootEntry`]: a bound pair count other than
    /// `dims`, an out-of-range `dims`, an inverted or NaN bound) is
    /// refused with a typed error and the catalog is left as it was.
    pub fn set_root(&mut self, name: &str, entry: RootEntry) -> Result<()> {
        entry.check(name).map_err(invalid_arg)?;
        self.roots.insert(name.to_string(), entry);
        Ok(())
    }

    /// Removes a named root, returning it if present.
    pub fn remove_root(&mut self, name: &str) -> Option<RootEntry> {
        self.roots.remove(name)
    }

    /// All catalog entries in name order.
    pub fn roots(&self) -> impl Iterator<Item = (&str, &RootEntry)> {
        self.roots.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Encodes the superblock into the start of a page payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(VERSION);
        w.put_u8(1); // flags: checksums verified
        w.put_u8(0); // reserved
        w.put_u32(self.page_size);
        w.put_u32(self.roots.len() as u32);
        for (name, e) in &self.roots {
            w.put_u16(name.len() as u16);
            w.put_bytes(name.as_bytes());
            w.put_u8(e.kind.to_u8());
            w.put_u64(e.root.0);
            w.put_u64(e.len);
            w.put_u32(e.dims);
            w.put_u32(e.max_value_size);
            for &(lo, hi) in &e.bounds {
                w.put_f64(lo);
                w.put_f64(hi);
            }
        }
        w.into_vec()
    }

    /// Decodes a superblock from a page payload.
    ///
    /// Bad magic, an unsupported version, a structurally truncated
    /// catalog or an entry no writer could have produced (see
    /// [`RootEntry`]) are typed errors — an unsupported version surfaces as
    /// [`Error::GeometryMismatch`] on `"version"` so callers can tell
    /// "newer format" apart from corruption.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(payload);
        let magic = r.get_bytes(8)?;
        if magic != MAGIC {
            return Err(corrupt("page 0 is not a superblock (bad magic)"));
        }
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(version_mismatch(version));
        }
        let _flags = r.get_u8()?;
        let _reserved = r.get_u8()?;
        let page_size = r.get_u32()?;
        let count = r.get_u32()?;
        let mut roots = BTreeMap::new();
        for _ in 0..count {
            let name_len = r.get_u16()? as usize;
            let name_bytes = r.get_bytes(name_len)?;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| corrupt("root name is not valid UTF-8"))?
                .to_string();
            let kind = RootKind::from_u8(r.get_u8()?)?;
            let root = PageId(r.get_u64()?);
            let len = r.get_u64()?;
            let dims = r.get_u32()?;
            let max_value_size = r.get_u32()?;
            // Bound the pre-allocation before trusting `dims`: each
            // dimension needs 16 payload bytes, so a corrupt count is a
            // typed error here instead of a multi-GiB allocation.
            let need = (dims as usize).checked_mul(16);
            if need.is_none_or(|n| n > r.remaining()) {
                return Err(corrupt(format!(
                    "root `{name}` declares {dims} dimensions but only \
                     {} payload bytes remain",
                    r.remaining()
                )));
            }
            let mut bounds = Vec::with_capacity(dims as usize);
            for _ in 0..dims {
                let lo = r.get_f64()?;
                let hi = r.get_f64()?;
                bounds.push((lo, hi));
            }
            let entry = RootEntry {
                root,
                len,
                dims,
                max_value_size,
                kind,
                bounds,
            };
            entry.check(&name).map_err(corrupt)?;
            roots.insert(name, entry);
        }
        Ok(Self { page_size, roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Superblock {
        let mut sb = Superblock::new(4096);
        sb.set_root(
            "primary",
            RootEntry {
                root: PageId(7),
                len: 1234,
                dims: 2,
                max_value_size: 8,
                kind: RootKind::BaTree,
                bounds: vec![(0.0, 1.0), (-2.5, 2.5)],
            },
        )
        .unwrap();
        sb.set_root(
            "corner/3",
            RootEntry {
                root: PageId(42),
                len: 99,
                dims: 3,
                max_value_size: 16,
                kind: RootKind::EcdfQuery,
                bounds: vec![(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)],
            },
        )
        .unwrap();
        sb
    }

    #[test]
    fn superblock_round_trip() {
        let sb = sample();
        let bytes = sb.encode();
        let back = Superblock::decode(&bytes).unwrap();
        assert_eq!(back, sb);
        // Decoding tolerates trailing payload slack (the rest of the
        // page is zero padding).
        let mut padded = bytes.clone();
        padded.resize(4096, 0);
        assert_eq!(Superblock::decode(&padded).unwrap(), sb);
    }

    #[test]
    fn empty_catalog_round_trip() {
        let sb = Superblock::new(256);
        let back = Superblock::decode(&sb.encode()).unwrap();
        assert_eq!(back, sb);
        assert!(back.roots().next().is_none());
    }

    #[test]
    fn cleared_checksum_flag_still_opens() {
        // Stores created with verification off recorded flag bit 0 as
        // 0; their trailers were stamped all the same.
        let mut bytes = sample().encode();
        assert_eq!(bytes[10], 1);
        bytes[10] = 0;
        assert_eq!(Superblock::decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn prefix_check_is_magic_then_version_then_page_size() {
        let bytes = sample().encode();
        assert_eq!(parse_prefix(&bytes).unwrap(), Some(4096));
        assert_eq!(parse_prefix(&bytes[..PREFIX_LEN]).unwrap(), Some(4096));
        assert_eq!(parse_prefix(&bytes[..PREFIX_LEN - 1]).unwrap(), None);
        assert_eq!(parse_prefix(b"not a superblock").unwrap(), None);
        assert_eq!(parse_prefix(&[0u8; 64]).unwrap(), None);
        // Another version is refused whatever page size it records…
        let mut v1 = bytes.clone();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        v1[12..16].copy_from_slice(&512u32.to_le_bytes());
        match parse_prefix(&v1) {
            Err(Error::GeometryMismatch {
                what: "version",
                stored: 1,
                requested: 2,
            }) => {}
            other => panic!("expected a version mismatch, got {other:?}"),
        }
        // …but only behind the magic: a raw file is never "versioned".
        v1[0] ^= 0xFF;
        assert_eq!(parse_prefix(&v1).unwrap(), None);
    }

    #[test]
    fn stored_page_size_reads_the_prefix_off_a_real_file() {
        use crate::store::{Backing, SharedStore, StoreConfig};
        let dir = boxagg_common::tempdir::tempdir().unwrap();
        let read = |name: &str, bytes: Option<&[u8]>| {
            let path = dir.path().join(name);
            if let Some(bytes) = bytes {
                std::fs::write(&path, bytes).unwrap();
            }
            stored_page_size(&File::open(path).unwrap())
        };
        let bytes = sample().encode();
        // A file that ends inside the prefix holds no superblock.
        assert_eq!(read("empty", Some(&[])).unwrap(), None);
        assert_eq!(read("short", Some(&bytes[..PREFIX_LEN - 1])).unwrap(), None);
        assert_eq!(
            read("prefix", Some(&bytes[..PREFIX_LEN])).unwrap(),
            Some(4096)
        );

        let cfg = StoreConfig {
            backing: Backing::File(dir.path().join("store")),
            ..StoreConfig::small(512, 4)
        };
        drop(SharedStore::open(&cfg).unwrap());
        let formatted = dir.path().join("store");
        assert_eq!(read("store", None).unwrap(), Some(512));
        let file = File::open(&formatted).unwrap();
        check_geometry(&file, 512).unwrap();
        assert!(matches!(
            check_geometry(&file, 1024),
            Err(Error::GeometryMismatch {
                what: "page_size",
                stored: 512,
                requested: 1024,
            })
        ));

        let mut v1 = bytes[..PREFIX_LEN].to_vec();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            read("v1", Some(&v1)),
            Err(Error::GeometryMismatch {
                what: "version",
                stored: 1,
                requested: 2,
            })
        ));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(Superblock::decode(&bytes), Err(Error::Corrupt(_))));
    }

    #[test]
    fn corrupt_dims_is_typed_error_not_huge_allocation() {
        // A corrupted dims field used to drive Vec::with_capacity
        // directly (u32::MAX dims → a 64 GiB reservation attempt);
        // decode must bound it against the remaining payload first.
        let mut sb = Superblock::new(4096);
        sb.set_root(
            "t",
            RootEntry {
                root: PageId(3),
                len: 1,
                dims: 1,
                max_value_size: 0,
                kind: RootKind::BaTree,
                bounds: vec![(0.0, 1.0)],
            },
        )
        .unwrap();
        let mut bytes = sb.encode();
        // dims sits after magic(8) + version(2) + flags(1) +
        // reserved(1) + page_size(4) + count(4) + name_len(2) +
        // name(1) + kind(1) + root(8) + len(8) = offset 40.
        bytes[40..44].copy_from_slice(&[0xFF; 4]);
        match Superblock::decode(&bytes) {
            Err(Error::Corrupt(msg)) => {
                assert!(msg.contains("dimensions"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn future_version_is_geometry_mismatch() {
        let mut bytes = sample().encode();
        bytes[8] = 0xFF; // version low byte
        match Superblock::decode(&bytes) {
            Err(Error::GeometryMismatch { what, .. }) => assert_eq!(what, "version"),
            other => panic!("expected GeometryMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_catalog_is_corrupt() {
        let bytes = sample().encode();
        // Chop inside the first root entry.
        assert!(Superblock::decode(&bytes[..PREFIX_LEN + 10]).is_err());
    }

    #[test]
    fn unknown_root_kind_is_corrupt() {
        let mut sb = Superblock::new(256);
        sb.set_root(
            "x",
            RootEntry {
                root: PageId(1),
                len: 0,
                dims: 1,
                max_value_size: 0,
                kind: RootKind::BaTree,
                bounds: vec![(0.0, 1.0)],
            },
        )
        .unwrap();
        let mut bytes = sb.encode();
        // kind byte sits right after the 1-byte name.
        let kind_off = PREFIX_LEN + 4 + 2 + 1;
        assert_eq!(bytes[kind_off], 0);
        bytes[kind_off] = 9;
        assert!(Superblock::decode(&bytes).is_err());
    }

    fn ecdf_entry(root: u64, dims: u32) -> RootEntry {
        RootEntry {
            root: PageId(root),
            len: 10 * root,
            dims,
            max_value_size: 8,
            kind: RootKind::EcdfUpdate,
            bounds: vec![(f64::NEG_INFINITY, f64::INFINITY); dims as usize],
        }
    }

    #[test]
    fn unbounded_ecdf_roots_round_trip_beside_a_ba_root() {
        // Regression: ECDF-B roots used to record `dims = d` with no
        // bound pairs, and decode read `dims` pairs regardless — eating
        // 16·d bytes of whichever entry followed.
        let mut sb = sample();
        sb.set_root("corner/0", ecdf_entry(11, 2)).unwrap();
        sb.set_root("corner/1", ecdf_entry(12, 2)).unwrap();
        let mut padded = sb.encode();
        padded.resize(4096, 0);
        let back = Superblock::decode(&padded).unwrap();
        assert_eq!(back, sb);
        assert_eq!(back.root("corner/1"), Some(&ecdf_entry(12, 2)));
        assert_eq!(back.root("primary"), sample().root("primary"));

        // The asymmetric entry itself is refused where it is made.
        let mut bare = ecdf_entry(13, 2);
        bare.bounds.clear();
        let err = sb.set_root("corner/2", bare).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        assert!(sb.root("corner/2").is_none());
    }

    #[test]
    fn hostile_entries_are_corrupt_not_panics() {
        // One 1-d BA root named "t": dims sits at offset 40 (see
        // `corrupt_dims_is_typed_error_not_huge_allocation`), then
        // max_value_size(4), then the (lo, hi) pair at 48 and 56. The
        // zero padding behind it is payload a wide `dims` can read.
        let mut sb = Superblock::new(4096);
        let mut entry = ecdf_entry(3, 1);
        entry.bounds = vec![(0.0, 1.0)];
        sb.set_root("t", entry).unwrap();
        let mut good = sb.encode();
        good.resize(4096, 0);
        assert!(Superblock::decode(&good).is_ok());

        let hostile: [(&str, usize, Vec<u8>); 5] = [
            // `Rect::new` asserts lo ≤ hi.
            ("inverted", 48, 2.0f64.to_le_bytes().to_vec()),
            ("nan lo", 48, f64::NAN.to_le_bytes().to_vec()),
            ("nan hi", 56, f64::NAN.to_le_bytes().to_vec()),
            // `Point::from_fn` asserts 1..=MAX_DIM.
            ("zero dims", 40, 0u32.to_le_bytes().to_vec()),
            ("wide dims", 40, (MAX_DIM as u32 + 1).to_le_bytes().to_vec()),
        ];
        for (what, at, bytes) in hostile {
            let mut bad = good.clone();
            bad[at..at + bytes.len()].copy_from_slice(&bytes);
            match Superblock::decode(&bad) {
                Err(Error::Corrupt(_)) => {}
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn set_remove_and_iterate() {
        let mut sb = sample();
        assert_eq!(sb.root("primary").unwrap().root, PageId(7));
        assert!(sb.root("absent").is_none());
        let names: Vec<&str> = sb.roots().map(|(n, _)| n).collect();
        assert_eq!(names, ["corner/3", "primary"]);
        assert!(sb.remove_root("primary").is_some());
        assert!(sb.root("primary").is_none());
        assert!(sb.remove_root("primary").is_none());
    }
}
