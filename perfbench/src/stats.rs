//! Order statistics and the bound comparison the runner reports with.

/// Median of `values` (sorts them). 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` of `values` (sorts them), by the exclusive method
/// Python's `statistics.quantiles(values, n=4)` uses, so a spread
/// computed here equals the one the contract's check computes. Fewer
/// than two values give that value (or 0) three times.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (values[0], values[0], values[0]),
        _ => {}
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        let delta = delta.clamp(0.0, 1.0);
        values[j - 1] + (values[j] - values[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0): the run-to-run spread the contract compares with a bound.
pub fn spread(values: &mut [f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest of p50/p75/p90/p95/p99 that still has at least ten
/// samples beyond it, as a whole percent; `None` under 20 samples.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    [99u32, 95, 90, 75, 50]
        .into_iter()
        .find(|&p| samples * (100 - p as usize) >= 10 * 100)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far `candidate` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, candidate: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if candidate == base {
            0.0
        } else {
            f64::INFINITY
        };
    }
    match better {
        Better::Lower => (candidate - base) / base.abs(),
        Better::Higher => (base - candidate) / base.abs(),
    }
}

/// Whether `candidate` stays within the bound of `base`: worse by at
/// most `relative` of `base`, or by at most `absolute` in the metric's
/// own unit, whichever allows more. The absolute floor keeps a metric
/// of a few milliseconds from failing on timer noise.
pub fn within_bound(
    base: f64,
    candidate: f64,
    better: Better,
    relative: f64,
    absolute: f64,
) -> bool {
    let worse_by = match better {
        Better::Lower => candidate - base,
        Better::Higher => base - candidate,
    };
    worse_by <= (relative * base.abs()).max(absolute)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&mut [5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        // is extrapolation; clamped to the data here.
        assert_eq!(quartiles(&mut [2.0, 1.0]), (1.0, 1.5, 2.0));
        assert_eq!(quartiles(&mut [7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&mut []), (0.0, 0.0, 0.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let mut ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&mut ten), 1.0);
        assert_eq!(spread(&mut [0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(99), Some(75));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(200), Some(95));
        assert_eq!(highest_supported_percentile(1000), Some(99));
    }

    #[test]
    fn bound_is_relative_or_absolute_whichever_is_larger() {
        // 12.5 % of 8 s allows 9 s (values a float holds exactly).
        assert!(within_bound(8.0, 9.0, Better::Lower, 0.125, 0.0));
        assert!(!within_bound(8.0, 9.5, Better::Lower, 0.125, 0.0));
        // 12.5 % of 0.5 s is 0.0625 s, but the 0.25 s floor allows 0.75 s.
        assert!(within_bound(0.5, 0.75, Better::Lower, 0.125, 0.25));
        assert!(!within_bound(0.5, 0.875, Better::Lower, 0.125, 0.25));
        // Higher-is-better turns the sign around.
        assert!(within_bound(128.0, 112.0, Better::Higher, 0.125, 0.0));
        assert!(!within_bound(128.0, 111.0, Better::Higher, 0.125, 0.0));
        // Improvements always pass; a bound of 0 demands equality.
        assert!(within_bound(100.0, 150.0, Better::Higher, 0.0, 0.0));
        assert!(within_bound(9.0, 9.0, Better::Lower, 0.0, 0.0));
        assert!(!within_bound(9.0, 10.0, Better::Lower, 0.0, 0.0));
    }

    #[test]
    fn worsening_is_signed_share_of_base() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
