//! Order statistics with the benchmark's reporting rule: a tail is
//! reported at the highest percentile that still has at least
//! [`MIN_BEYOND`] samples above it, always together with its sample
//! count.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the benchmark may report, lowest first.
pub const CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise (99.9 / 100 * 1000 = 999.0000000000001)
    // from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly above percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_reportable(n: usize) -> Option<f64> {
    CANDIDATES
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Whether percentile `p` may be reported from `n` samples.
pub fn reportable(n: usize, p: f64) -> bool {
    highest_reportable(n).is_some_and(|best| p <= best)
}

/// Nearest-rank percentile `p` of `values` (sorted here; `None` when
/// empty).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p)])
}

/// A percentile of a sample set together with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub count: usize,
}

impl Tail {
    /// Percentile `p` of `values`, only when the reporting rule allows it.
    pub fn of(values: &[f64], p: f64) -> Option<Tail> {
        if !reportable(values.len(), p) {
            return None;
        }
        percentile(values, p).map(|value| Tail {
            value,
            count: values.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousand_samples_allow_p99_but_not_p999() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(highest_reportable(1000), Some(99.0));
    }

    #[test]
    fn hundred_samples_allow_p90() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(highest_reportable(100), Some(90.0));
        assert!(reportable(100, 50.0));
        assert!(!reportable(100, 99.0));
    }

    #[test]
    fn the_median_needs_twenty_samples() {
        assert_eq!(highest_reportable(19), None);
        assert_eq!(highest_reportable(20), Some(50.0));
        assert_eq!(highest_reportable(0), None);
        assert_eq!(highest_reportable(1), None);
    }

    #[test]
    fn boundary_counts_step_up_exactly_at_ten_beyond() {
        assert_eq!(highest_reportable(99), Some(50.0));
        assert_eq!(highest_reportable(999), Some(90.0));
        assert_eq!(highest_reportable(10_000), Some(99.9));
    }

    #[test]
    fn tail_carries_value_and_count() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let t = Tail::of(&values, 90.0).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.count, 100);
        assert_eq!(
            beyond(100, 90.0),
            values.iter().filter(|&&v| v > t.value).count()
        );
        assert!(Tail::of(&values, 99.0).is_none());
    }

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 50.0), Some(3.0));
    }
}
