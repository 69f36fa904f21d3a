//! Order statistics over timing samples.

/// The nearest-rank percentile of an ascending sample: the smallest
/// value with at least `p` of the sample at or below it. `None` on an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len(), p)?;
    sorted.get(rank - 1).copied()
}

/// The 1-based nearest rank `ceil(p·n)`, clamped into `1..=n`.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// How many samples lie strictly above the nearest-rank `p` percentile.
/// A percentile is worth reporting once at least ten samples lie
/// beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// Median (nearest rank) of an unsorted sample; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(50.0));
        assert_eq!(percentile(&sorted, 0.99), Some(99.0));
        assert_eq!(percentile(&sorted, 1.0), Some(100.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        // Nearest rank never interpolates: p50 of an even sample is
        // the lower middle value.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
    }

    #[test]
    fn samples_beyond_a_percentile() {
        // p99 needs 1000 samples before ten lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(20, 0.5), 10);
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
