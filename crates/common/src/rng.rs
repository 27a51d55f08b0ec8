//! Deterministic pseudo-random number generation for workloads and tests.
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! the `rand` crate; every generator, benchmark and test instead uses this
//! small, seedable xoshiro256++ implementation. Streams are stable across
//! platforms and releases — dataset seeds in EXPERIMENTS.md reproduce
//! byte-identical workloads.

/// A seedable pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64).
///
/// The name mirrors `rand::rngs::StdRng` so call sites read familiarly,
/// but the stream is this crate's own and is guaranteed stable.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample of type `T` (see [`Sample`]); for `f64` this is
    /// uniform in `[0, 1)`.
    pub fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform index in `range` (which must be non-empty).
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range over an empty range");
        let span = (range.end - range.start) as u64;
        // Multiply-shift rejection-free mapping: bias is < 2^-64·span,
        // negligible for workload generation.
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }

    /// A seeded mutation of `seed`, for fuzzing a decoder of untrusted
    /// bytes: one to three edits, each a bit flip, a byte set to an
    /// edge value, a `u16` count or an `f64` word overwritten with an
    /// edge value, a truncation, an appended tail, or a span copied
    /// over another. Counts land on the first three bytes (a node's tag
    /// and record count) a third of the time.
    pub fn mutate(&mut self, seed: &[u8]) -> Vec<u8> {
        const COUNTS: [u16; 7] = [0, 1, 2, 64, 65, 0x7FFF, u16::MAX];
        const WORDS: [f64; 8] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            -1.0,
        ];
        let mut out = seed.to_vec();
        for _ in 0..=self.gen_range(0..3) {
            let len = out.len().max(1);
            match self.gen_range(0..7) {
                0 if !out.is_empty() => {
                    let at = self.gen_range(0..out.len());
                    out[at] ^= 1 << self.gen_range(0..8);
                }
                1 if !out.is_empty() => {
                    let at = self.gen_range(0..out.len());
                    out[at] = [0, 1, 0x7F, 0x80, 0xFF][self.gen_range(0..5)];
                }
                2 if out.len() >= 3 => {
                    let at = if self.gen_range(0..3) == 0 {
                        1
                    } else {
                        self.gen_range(0..out.len() - 1)
                    };
                    let count = COUNTS[self.gen_range(0..COUNTS.len())];
                    out[at..at + 2].copy_from_slice(&count.to_le_bytes());
                }
                3 if out.len() >= 8 => {
                    let at = self.gen_range(0..out.len() - 7);
                    let word = WORDS[self.gen_range(0..WORDS.len())];
                    out[at..at + 8].copy_from_slice(&word.to_le_bytes());
                }
                4 => out.truncate(self.gen_range(0..len)),
                5 => {
                    let tail = self.gen_range(1..64);
                    out.extend((0..tail).map(|_| self.next_u64() as u8));
                }
                _ if out.len() >= 2 => {
                    let span = self.gen_range(1..out.len());
                    let from = self.gen_range(0..out.len() - span + 1);
                    let to = self.gen_range(0..out.len() - span + 1);
                    out.copy_within(from..from + span, to);
                }
                _ => out.push(self.next_u64() as u8),
            }
        }
        out
    }
}

/// Types [`StdRng::gen`] can sample uniformly.
pub trait Sample {
    /// Draws one uniform sample.
    fn sample(rng: &mut StdRng) -> Self;
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Sample for u64 {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64()
    }
}

impl Sample for u8 {
    fn sample(rng: &mut StdRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Sample for usize {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for bool {
    fn sample(rng: &mut StdRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn f64_samples_are_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} drifted");
    }

    #[test]
    fn gen_range_covers_and_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let i = rng.gen_range(3..13);
            assert!((3..13).contains(&i));
            seen[i - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "some buckets never sampled");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn gen_range_rejects_empty() {
        StdRng::seed_from_u64(0).gen_range(5..5);
    }
}
