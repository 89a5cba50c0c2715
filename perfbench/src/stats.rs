//! Order statistics over latency samples.

/// Samples beyond a percentile that make it reportable: a percentile is
/// reported only where at least this many samples lie above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` at quantile `q` in
/// `[0, 1]`: the smallest sample with at least `q * n` samples at or below
/// it. Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `q`-percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-percentile when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn supported(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND)
        .then(|| percentile(sorted, q))
        .flatten()
}

/// Median (nearest rank) of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5).unwrap_or(0.0)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.999), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(10_000, 0.999), 10);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported(&v, 0.99), None);
        assert_eq!(supported(&v, 0.5), Some(500.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported(&v, 0.99), Some(990.0));
    }

    #[test]
    fn a_percentile_stays_inside_its_population() {
        // 504 cheap pushes, 6 flushes, 1 refresh and 1 copy-on-write
        // flush per 512: p99 must land among the flushes and p99.9 on the
        // copy-on-write flush, never on a boundary between populations.
        let mut v = Vec::new();
        for _ in 0..100 {
            v.extend(std::iter::repeat_n(1.0, 504));
            v.extend(std::iter::repeat_n(100.0, 6));
            v.push(500.0);
            v.push(1000.0);
        }
        let v = sorted(&v);
        assert_eq!(supported(&v, 0.5), Some(1.0));
        assert_eq!(supported(&v, 0.99), Some(100.0));
        assert_eq!(supported(&v, 0.999), Some(1000.0));
    }
}
