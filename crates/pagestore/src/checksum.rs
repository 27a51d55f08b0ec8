//! Per-page checksums: a dependency-free 64-bit FNV-1a hash stored in a
//! fixed trailer at the end of every page.
//!
//! ## Layout
//!
//! The last [`TRAILER`] bytes of each page hold the checksum of the
//! preceding *payload* (little-endian `u64`); callers above the buffer
//! pool only ever see the payload
//! ([`BufferPool::payload_size`](crate::buffer::BufferPool::payload_size)
//! bytes). Because the trailer lives *inside* the fixed page size, the
//! byte-level I/O accounting of the paper's §6 experiments is unchanged:
//! a page read is a page read, checksummed or not.
//!
//! ## The zero mask
//!
//! Freshly allocated pages are all zeros — including their trailer. A
//! plain FNV of the zero payload is nonzero, so the raw convention would
//! flag every fresh page as corrupt. Instead the stored trailer is
//! `fnv1a(payload) XOR fnv1a(zero_payload)`: the all-zero page then
//! carries the *correct* trailer (0) by construction, while any torn or
//! flipped payload still mismatches. The mask is a pure function of the
//! payload length and is computed once per pool.

/// Bytes reserved at the end of every page for the checksum trailer.
pub const TRAILER: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The XOR mask making an all-zero page carry a valid (zero) trailer:
/// `fnv1a` of `payload_len` zero bytes.
pub fn zero_mask(payload_len: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..payload_len {
        // b == 0: the XOR is a no-op, only the multiply advances.
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Computes the trailer value for a page's payload.
pub fn trailer_for(payload: &[u8], zero_mask: u64) -> u64 {
    fnv1a_64(payload) ^ zero_mask
}

/// Writes the checksum trailer for `page`'s payload into its last
/// [`TRAILER`] bytes. `page.len()` must exceed `TRAILER`.
pub fn stamp(page: &mut [u8], zero_mask: u64) {
    let split = page.len() - TRAILER;
    let sum = trailer_for(&page[..split], zero_mask);
    page[split..].copy_from_slice(&sum.to_le_bytes());
}

/// Verifies `page`'s trailer against its payload. Returns
/// `Ok(())` on a match, otherwise `(stored, computed)`.
pub fn verify(page: &[u8], zero_mask: u64) -> std::result::Result<(), (u64, u64)> {
    let split = page.len() - TRAILER;
    let mut raw = [0u8; TRAILER];
    raw.copy_from_slice(&page[split..]);
    let stored = u64::from_le_bytes(raw);
    let computed = trailer_for(&page[..split], zero_mask);
    if stored == computed {
        Ok(())
    } else {
        Err((stored, computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn zero_mask_matches_hash_of_zeros() {
        for len in [0usize, 1, 7, 56, 120, 8184] {
            assert_eq!(zero_mask(len), fnv1a_64(&vec![0u8; len]), "len {len}");
        }
    }

    #[test]
    fn all_zero_page_has_zero_trailer() {
        let mut page = vec![0u8; 128];
        let mask = zero_mask(128 - TRAILER);
        stamp(&mut page, mask);
        assert!(page.iter().all(|&b| b == 0), "stamp of zeros is zeros");
        assert!(verify(&page, mask).is_ok());
    }

    #[test]
    fn stamp_verify_round_trip_and_flip_detection() {
        let mask = zero_mask(120);
        let mut page = vec![0u8; 128];
        for (i, b) in page[..120].iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        stamp(&mut page, mask);
        assert!(verify(&page, mask).is_ok());
        // Every single-bit flip in the payload must be detected.
        for byte in [0usize, 59, 119] {
            for bit in 0..8 {
                let mut torn = page.clone();
                torn[byte] ^= 1 << bit;
                let (stored, computed) = verify(&torn, mask).unwrap_err();
                assert_ne!(stored, computed);
            }
        }
        // A flipped trailer byte is detected too.
        let mut torn = page.clone();
        torn[127] ^= 0x80;
        assert!(verify(&torn, mask).is_err());
    }

    #[test]
    fn trailer_depends_on_every_payload_position() {
        let mask = zero_mask(56);
        let base = vec![0u8; 64];
        let mut seen = std::collections::HashSet::new();
        for pos in 0..56 {
            let mut page = base.clone();
            page[pos] = 1;
            stamp(&mut page, mask);
            let mut raw = [0u8; TRAILER];
            raw.copy_from_slice(&page[56..]);
            assert!(
                seen.insert(u64::from_le_bytes(raw)),
                "position {pos} collided"
            );
        }
    }
}
