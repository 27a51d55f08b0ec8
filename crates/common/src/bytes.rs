//! Little-endian byte codec used by every on-page record layout.
//!
//! The disk structures in this workspace serialize their nodes into
//! fixed-size pages by hand (no serde): page layouts are simple, fixed and
//! versionless, and hand-rolling keeps the encoded size of every record
//! predictable, which the fanout computations depend on.

use crate::error::{corrupt, Error, Result};

/// Append-only writer over a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Clears the buffer, retaining capacity (workhorse reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reserves room for at least `additional` more bytes, so a run of
    /// `put_*` calls of known total size grows the buffer once.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends `n` zero bytes and hands them back to be filled in place.
    #[inline]
    pub fn put_zeroed(&mut self, n: usize) -> &mut [u8] {
        let at = self.buf.len();
        self.buf.resize(at + n, 0);
        &mut self.buf[at..]
    }

    /// Writes a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its little-endian IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes verbatim.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining after the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.short(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The error of a read past the end, built off the decoders' path.
    #[cold]
    fn short(&self, n: usize) -> Error {
        corrupt(format!(
            "truncated at byte {}: wanted {n} bytes, {} remaining",
            self.pos,
            self.remaining()
        ))
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(f64::from_le_bytes(b))
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Fails unless `count` records of at least `min_size` bytes each
    /// could still follow the cursor. A decoder calls this on a count it
    /// read from the page *before* it allocates for that many records:
    /// the count is two bytes of input, the allocation it asks for is
    /// not.
    #[inline]
    pub fn expect_records(&self, count: usize, min_size: usize) -> Result<()> {
        if count.saturating_mul(min_size) > self.remaining() {
            return Err(corrupt(format!(
                "record count {count} needs at least {min_size} bytes each, {} remaining",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-1234.5678);
        w.put_bytes(b"hello");
        assert_eq!(w.len(), 1 + 2 + 4 + 8 + 8 + 5);

        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f64().unwrap(), -1234.5678);
        assert_eq!(r.get_bytes(5).unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn short_read_is_an_error_not_a_panic() {
        let bytes = [1u8, 2, 3];
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_u32().is_err());
        // A failed read must not consume input.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u16().unwrap(), 0x0201);
        assert!(r.get_u16().is_err());
    }

    #[test]
    fn record_count_is_checked_against_what_remains() {
        let bytes = [0u8; 24];
        let mut r = ByteReader::new(&bytes);
        r.expect_records(3, 8).unwrap();
        r.expect_records(0, usize::MAX).unwrap();
        r.expect_records(usize::MAX, 0).unwrap();
        assert!(r.expect_records(4, 8).is_err());
        assert!(r.expect_records(usize::MAX, 2).is_err(), "no overflow");
        r.get_u64().unwrap();
        assert!(r.expect_records(3, 8).is_err(), "counts from the cursor");
        assert_eq!(r.remaining(), 16, "a check consumes nothing");
    }

    #[test]
    fn f64_bit_patterns_survive_nan_and_signed_zero() {
        let mut w = ByteWriter::new();
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_f64(f64::INFINITY);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f64().unwrap().is_nan());
        let z = r.get_f64().unwrap();
        assert_eq!(z, 0.0);
        assert!(z.is_sign_negative());
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
    }

    #[test]
    fn writer_clear_retains_capacity() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u64(7);
        assert!(!w.is_empty());
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn position_tracks_cursor() {
        let bytes = [0u8; 16];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.position(), 0);
        r.get_u64().unwrap();
        assert_eq!(r.position(), 8);
    }
}
