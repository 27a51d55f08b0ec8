//! Checksums: one word-parallel 64-bit sum, [`sum64`], over every page
//! payload and every write-ahead-log record body (formats v2 on).
//!
//! ## The kernel
//!
//! Everything is built from one primitive, a multiply–xorshift *step*
//! absorbing a 64-bit word `w` into a 64-bit state `h`:
//!
//! ```text
//! step(h, w) = x ^ (x >> 32)   where x = (h ^ w) · MUL  (mod 2^64, MUL odd)
//! ```
//!
//! `sum64(bytes)` then is
//!
//! 1. **lanes** — four states start at four fixed seeds; every whole
//!    32-byte block feeds its four little-endian `u64` words to lanes
//!    0‥3, one `step` each. The lanes share nothing, so the four
//!    multiplies of a block issue back to back instead of waiting on
//!    each other — that independence, and eight bytes per multiply
//!    instead of one, is the whole speed-up over a bytewise hash;
//! 2. **fold** — `h = step(FOLD_SEED, len)`, then `h = step(h, lane)`
//!    for lanes 0‥3: the length seeds the fold, so inputs of different
//!    lengths never share a sum by padding;
//! 3. **tail** — the last `len mod 32` bytes, cut into up to four words
//!    (the final one zero-padded; the length is already in `h`), one
//!    `h = step(h, word)` each;
//! 4. **avalanche** — the splitmix64 finalizer, so every input bit
//!    reaches every bit of the result.
//!
//! ## What it detects by construction
//!
//! `step` is a bijection of `h` for fixed `w` and of `w` for fixed `h`
//! (xor, multiplication by an odd constant and `x ^ (x >> 32)` are each
//! invertible on 64 bits), and the avalanche is a bijection. Two inputs
//! of one length that differ only inside a single aligned 8-byte word
//! therefore disagree right after the step that absorbs it — a lane
//! step or a tail step — and every later step (rest of the lane, fold,
//! tail, avalanche) maps differing states to differing states: **any
//! change confined to one aligned word, every single-bit flip included,
//! changes the sum, with certainty**. Changes spanning several words —
//! a torn write mixing two images at a sector boundary — collide only
//! if a later word cancels an earlier state difference exactly, a
//! 2⁻⁶⁴ event for data not chosen against the constants. The sum is a
//! checksum against rot and tearing, not a MAC.
//!
//! ## Layout
//!
//! The last [`TRAILER`] bytes of each page hold the checksum of the
//! preceding *payload* (little-endian `u64`); callers above the buffer
//! pool only ever see the payload
//! ([`SharedStore::payload_size`](crate::store::SharedStore::payload_size)
//! bytes). Because the trailer lives *inside* the fixed page size, the
//! byte-level I/O accounting of the paper's §6 experiments is unchanged:
//! a page read is a page read, checksummed or not.
//!
//! ## The zero mask
//!
//! Freshly allocated pages are all zeros — including their trailer. The
//! plain sum of the zero payload is nonzero, so the raw convention would
//! flag every fresh page as corrupt. Instead the stored trailer is
//! `sum64(payload) XOR sum64(zero_payload)`: the all-zero page then
//! carries the *correct* trailer (0) by construction, while any torn or
//! flipped payload still mismatches. The mask is a pure function of the
//! payload length and is computed once per pool.
//!
//! ## The wire keeps FNV-1a
//!
//! [`fnv1a_64`] — the bytewise hash pages and log used through format
//! v1 — remains only because `boxagg-serve` frames its sub-100-byte
//! message bodies with it under its own protocol version; nothing in
//! this crate calls it.

/// Bytes reserved at the end of every page for the checksum trailer.
pub const TRAILER: usize = 8;

/// Bytes one round of the four lanes absorbs.
const BLOCK: usize = 32;
/// The odd multiplier of every step (2⁶⁴ ÷ golden ratio).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// Initial lane states (the xxHash64 primes: odd, unrelated bit patterns).
const LANE_SEEDS: [u64; 4] = [
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x85EB_CA77_C2B2_AE63,
    0x27D4_EB2F_1656_67C5,
];
/// Initial fold state, before the length is absorbed.
const FOLD_SEED: u64 = 0x2545_F491_4F6C_DD1D;

/// Absorbs `word` into `h`; a bijection in either argument.
fn step(h: u64, word: u64) -> u64 {
    let x = (h ^ word).wrapping_mul(MUL);
    x ^ (x >> 32)
}

/// `bytes` (at most 8) as a little-endian word, zero-padded.
fn le_word(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(raw)
}

/// The word-parallel 64-bit checksum of `bytes` (see the module docs
/// for the definition and its detection argument).
pub fn sum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = step(*lane, le_word(word));
        }
    }
    let mut h = step(FOLD_SEED, bytes.len() as u64);
    for lane in lanes {
        h = step(h, lane);
    }
    for word in blocks.remainder().chunks(8) {
        h = step(h, le_word(word));
    }
    // splitmix64 finalizer.
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`: the wire protocol's frame checksum.
/// Pages and log records use [`sum64`].
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The XOR mask making an all-zero page carry a valid (zero) trailer:
/// [`sum64`] of `payload_len` zero bytes.
pub fn zero_mask(payload_len: usize) -> u64 {
    sum64(&vec![0u8; payload_len])
}

/// Computes the trailer value for a page's payload.
fn trailer_for(payload: &[u8], zero_mask: u64) -> u64 {
    sum64(payload) ^ zero_mask
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
    use boxagg_common::rng::StdRng;

    const PAGE: usize = 8192;
    const PAYLOAD: usize = PAGE - TRAILER;

    fn seeded_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The definition of [`sum64`], written for reading rather than
    /// speed: whole-input index arithmetic, one byte at a time, no
    /// chunk iterators shared with the kernel.
    fn spec_sum64(bytes: &[u8]) -> u64 {
        fn spec_step(h: u64, word: u64) -> u64 {
            let x = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 32)
        }
        // Word `i` of the input: bytes 8i‥8i+8, little-endian, missing
        // bytes read as zero.
        let word = |i: usize| -> u64 {
            let mut w = 0u64;
            for k in 0..8 {
                if let Some(&b) = bytes.get(8 * i + k) {
                    w |= (b as u64) << (8 * k);
                }
            }
            w
        };
        let block_words = bytes.len() / 32 * 4;
        let all_words = bytes.len().div_ceil(8);
        let mut lanes = [
            0xC2B2_AE3D_27D4_EB4Fu64,
            0x1656_67B1_9E37_79F9,
            0x85EB_CA77_C2B2_AE63,
            0x27D4_EB2F_1656_67C5,
        ];
        for i in 0..block_words {
            lanes[i % 4] = spec_step(lanes[i % 4], word(i));
        }
        let mut h = spec_step(0x2545_F491_4F6C_DD1D, bytes.len() as u64);
        for lane in lanes {
            h = spec_step(h, lane);
        }
        for i in block_words..all_words {
            h = spec_step(h, word(i));
        }
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn kernel_matches_the_naive_spec() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        let long = seeded_bytes(&mut rng, 300);
        for len in 0..=300 {
            assert_eq!(sum64(&long[..len]), spec_sum64(&long[..len]), "len {len}");
        }
        for len in [56usize, 120, 2040, PAYLOAD] {
            let bytes = seeded_bytes(&mut rng, len);
            assert_eq!(sum64(&bytes), spec_sum64(&bytes), "len {len}");
        }
        // The WAL page-record body: tag + page id + one 8 KB image,
        // 8,201 bytes starting at an odd address inside a larger
        // buffer, as `decode_records` slices it out of the log.
        let log = seeded_bytes(&mut rng, 3 + 9 + PAGE);
        let body = &log[3..];
        assert_eq!(body.len(), 8201);
        assert_eq!(sum64(body), spec_sum64(body));
    }

    #[test]
    fn pinned_vectors() {
        // Formats v2 and v3 are these numbers: empty input, a six-byte tail, a
        // full 8 KB payload. A kernel that computes others needs a
        // superblock version of its own.
        assert_eq!(sum64(b""), 0xf243_bc6d_12b1_5dd7);
        assert_eq!(sum64(b"boxagg"), 0x446b_0a05_ad6a_f0ff);
        let ramp: Vec<u8> = (0..PAYLOAD).map(|i| (i * 7) as u8).collect();
        assert_eq!(sum64(&ramp), 0xc240_c999_2688_aa44);
    }

    #[test]
    fn zero_page_iff_zero_trailer() {
        for page_len in [64usize, 128, 512, PAGE] {
            let mask = zero_mask(page_len - TRAILER);
            let mut page = vec![0u8; page_len];
            stamp(&mut page, mask);
            assert!(page.iter().all(|&b| b == 0), "stamp of zeros is zeros");
            assert!(verify(&page, mask).is_ok());
            // …and only the zero payload earns the zero trailer: one
            // set bit anywhere (first, middle, last byte) moves it.
            for pos in [0, (page_len - TRAILER) / 2, page_len - TRAILER - 1] {
                let mut page = vec![0u8; page_len];
                page[pos] = 1;
                stamp(&mut page, mask);
                assert_ne!(&page[page_len - TRAILER..], &[0u8; TRAILER], "pos {pos}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_page_is_detected() {
        let mut rng = StdRng::seed_from_u64(0xB17_F11B);
        let mask = zero_mask(PAYLOAD);
        let mut page = seeded_bytes(&mut rng, PAGE);
        stamp(&mut page, mask);
        assert!(verify(&page, mask).is_ok());
        // Payload and trailer alike: 8,184 × 8 = 65,472 payload flips
        // plus the 64 trailer bits.
        for bit in 0..PAGE * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            assert!(verify(&page, mask).is_err(), "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert!(verify(&page, mask).is_ok());
    }

    #[test]
    fn any_change_within_one_aligned_word_is_detected() {
        // The by-construction guarantee (module docs), sampled: every
        // aligned word of the payload — block words of all four lanes
        // and the three tail words — replaced by seeded garbage.
        let mut rng = StdRng::seed_from_u64(0x0A11_60ED);
        let base = seeded_bytes(&mut rng, PAYLOAD);
        let sum = sum64(&base);
        for word in 0..PAYLOAD / 8 {
            let mut changed = base.clone();
            let at = 8 * word;
            loop {
                let garbage = rng.next_u64().to_le_bytes();
                if garbage != base[at..at + 8] {
                    changed[at..at + 8].copy_from_slice(&garbage);
                    break;
                }
            }
            assert_ne!(sum64(&changed), sum, "word {word}");
        }
    }

    #[test]
    fn torn_writes_never_verify() {
        // 1,000 (old, new) image pairs; `new` rewrites a few random
        // spans of `old`, as an index update does. A write torn at any
        // 512-byte sector boundary leaves a prefix of `new` before a
        // suffix of `old` — trailer included, it sits in the last
        // sector. The mix must fail unless it *is* one of the two.
        const SECTOR: usize = 512;
        let mut rng = StdRng::seed_from_u64(0x7024_3217);
        let mask = zero_mask(PAYLOAD);
        for pair in 0..1000 {
            let mut old = seeded_bytes(&mut rng, PAGE);
            stamp(&mut old, mask);
            let mut new = old.clone();
            for _ in 0..1 + rng.next_u64() % 6 {
                let at = (rng.next_u64() % PAYLOAD as u64) as usize;
                let len = (1 + rng.next_u64() % 64) as usize;
                for b in &mut new[at..(at + len).min(PAYLOAD)] {
                    *b = rng.next_u64() as u8;
                }
            }
            stamp(&mut new, mask);
            for cut in (SECTOR..PAGE).step_by(SECTOR) {
                let mut torn = new[..cut].to_vec();
                torn.extend_from_slice(&old[cut..]);
                assert_eq!(
                    verify(&torn, mask).is_ok(),
                    torn == old || torn == new,
                    "pair {pair} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn length_and_word_order_matter() {
        let mut rng = StdRng::seed_from_u64(0x0DE2_5EED);
        // Length extension: appending a zero byte changes the sum at
        // every length, across block and word boundaries.
        let mut x = seeded_bytes(&mut rng, 100);
        x.push(0);
        for len in 0..100 {
            assert_ne!(sum64(&x[..len]), sum64(&x[..len + 1]), "len {len}");
        }
        assert_ne!(sum64(&[]), sum64(&[0]));
        assert_ne!(sum64(&[0u8; 32]), sum64(&[0u8; 64]));
        // Swapping two words changes the sum wherever they sit: in one
        // lane (words 0 and 4), across lanes of one block (0 and 1),
        // across lanes and blocks (1 and 6), in the tail (1020 and
        // 1022), and between a lane and the tail (3 and 1021).
        let base = seeded_bytes(&mut rng, PAYLOAD);
        let sum = sum64(&base);
        for (a, b) in [(0usize, 4usize), (0, 1), (1, 6), (1020, 1022), (3, 1021)] {
            let mut swapped = base.clone();
            for k in 0..8 {
                swapped.swap(8 * a + k, 8 * b + k);
            }
            assert_ne!(sum64(&swapped), sum, "words {a} and {b}");
        }
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

    /// Not a test of anything: prints what one payload costs. Run with
    /// `cargo test --release -p boxagg-pagestore --lib checksum -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing report, not a check"]
    fn kernel_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        let mut rng = StdRng::seed_from_u64(1);
        let payload = seeded_bytes(&mut rng, PAYLOAD);
        let time = |f: fn(&[u8]) -> u64| {
            let iters = 20_000;
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..iters {
                acc ^= f(black_box(&payload));
            }
            black_box(acc);
            start.elapsed().as_secs_f64() * 1e6 / iters as f64
        };
        for round in 0..3 {
            println!(
                "round {round}: sum64 {:.3} us, fnv1a_64 {:.3} us per {PAYLOAD}-byte payload",
                time(sum64),
                time(fnv1a_64)
            );
        }
    }
}
