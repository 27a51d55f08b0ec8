//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, the median of per-window rates, and run-to-run spread.

/// Sorts `samples` and returns their nearest-rank `p` percentile, `p`
/// in `[0, 1]`. Empty input reads 0.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples`, as a float for unit conversion.
pub fn p50(mut samples: Vec<u64>) -> f64 {
    percentile_of(&mut samples, 0.5) as f64
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Operations per second as the median of per-chunk rates, each chunk
/// being `(operations, elapsed_ns)` — one scheduler hiccup moves one
/// chunk, not the reported rate.
pub fn median_rate(chunks: &[(u64, u64)]) -> f64 {
    let rates: Vec<f64> = chunks
        .iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|&(ops, ns)| ops as f64 * 1e9 / ns as f64)
        .collect();
    median(&rates)
}

/// Completions per second as the median over whole `window_ns` windows
/// of `[0, horizon_ns)`; a trailing partial window is dropped.
/// `done_ns` are completion times since the window opened, any order.
pub fn median_window_rate(done_ns: &[u64], horizon_ns: u64, window_ns: u64) -> f64 {
    let windows = (horizon_ns / window_ns) as usize;
    if windows == 0 {
        return done_ns.len() as f64 * 1e9 / horizon_ns.max(1) as f64;
    }
    let mut counts = vec![0u64; windows];
    for &t in done_ns {
        if let Some(c) = counts.get_mut((t / window_ns) as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&c| c as f64 * 1e9 / window_ns as f64)
        .collect();
    median(&rates)
}

/// `(max − min) / median`: the run-to-run spread `--compare` holds a
/// bound against. 0 for fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = min_max(values);
    (hi - lo) / m.abs()
}

/// Smallest and largest of `values` (`(0, 0)` when empty).
pub fn min_max(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_of(&mut v, 0.5), 50);
        assert_eq!(percentile_of(&mut v, 0.99), 99);
        assert_eq!(percentile_of(&mut v, 1.0), 100);
        assert_eq!(percentile_of(&mut v, 0.0), 1);
        assert_eq!(percentile_of(&mut [7], 0.99), 7);
        assert_eq!(percentile_of(&mut [], 0.5), 0);
        assert_eq!(p50(vec![9, 1, 5]), 5.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn median_rate_ignores_one_slow_chunk() {
        // Nine chunks at 1000 ops/s and one that stalled 10x: the
        // total/elapsed rate drops by half, the median does not move.
        let mut chunks = vec![(1000u64, 1_000_000_000u64); 9];
        chunks.push((1000, 10_000_000_000));
        assert_eq!(median_rate(&chunks), 1000.0);
        assert_eq!(median_rate(&[]), 0.0);
    }

    #[test]
    fn window_rate_drops_the_partial_window() {
        // 2.5 s horizon, 1 s windows: 10 completions in each whole
        // second, 99 in the trailing half second that must not count.
        let mut done = Vec::new();
        for s in 0..2u64 {
            done.extend((0..10).map(|i| s * 1_000_000_000 + i * 1000));
        }
        done.extend((0..99).map(|i| 2_000_000_000 + i));
        assert_eq!(
            median_window_rate(&done, 2_500_000_000, 1_000_000_000),
            10.0
        );
        // Shorter than one window: plain total / elapsed.
        assert_eq!(median_window_rate(&[1, 2], 500_000_000, 1_000_000_000), 4.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(min_max(&[2.0, -1.0, 3.0]), (-1.0, 3.0));
    }
}
