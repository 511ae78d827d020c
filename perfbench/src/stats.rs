//! Summary statistics shared by every workload: nearest-rank
//! percentiles, the tail rule, and self-time subtraction.

/// Percentiles tried for a tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its rank, as
/// `(percentile, value)`. `None` when even the median has fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n.max(1), p)) >= TAIL_MIN_BEYOND)?;
    percentile(samples, p).map(|v| (p, v))
}

/// A layer's self time: its span minus the time its children covered
/// inside that span. Timer noise can make the children's sum exceed
/// the span by a few nanoseconds, so the result is clamped at zero.
pub fn self_time(span: f64, children: f64) -> f64 {
    (span - children).max(0.0)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: the median (rank 10) has only 9 above it.
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&s), None);
        // 20 samples: the median has exactly 10 above it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50.0, 10.0)));
        // 100 samples: p90 (rank 90) leaves 10, p99 leaves 1.
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        // 1000 samples: p99 (rank 990) leaves 10.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        // 10 000 samples: p99.9 leaves 10.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn self_time_never_goes_negative() {
        assert_eq!(self_time(10.0, 4.0), 6.0);
        assert_eq!(self_time(10.0, 10.0), 0.0);
        assert_eq!(self_time(10.0, 10.000_001), 0.0);
        assert_eq!(self_time(0.0, 3.0), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
