//! Order statistics the benchmark reports: median, nearest-rank p90,
//! and the quartile spread used to judge whether a metric is steady.

/// The fewest samples a p90 may be reported from: nearest-rank p90 of
/// `n` samples leaves `n - ceil(0.9 n)` samples beyond it, and the
/// benchmark asks for at least ten.
pub const P90_MIN_SAMPLES: usize = 100;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Nearest-rank 90th percentile: the smallest sample with at least 90%
/// of the samples at or below it. Refuses (`None`) below
/// [`P90_MIN_SAMPLES`] samples.
pub fn p90(values: &[f64]) -> Option<f64> {
    if values.len() < P90_MIN_SAMPLES {
        return None;
    }
    let v = sorted(values);
    let rank = (v.len() * 9).div_ceil(10);
    Some(v[rank - 1])
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values);
    let len = v.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median, over consecutive windows of `window` completions, of each
/// window's completions per second. `done` holds completion times in
/// seconds since the measured interval began, ascending; a window runs
/// from the completion that ends the one before it (or the start) to its
/// own last completion, and a trailing partial window is left out.
/// `None` without a whole window.
pub fn windowed_rate(done: &[f64], window: usize) -> Option<f64> {
    let mut from = 0.0;
    let rates: Vec<f64> = done
        .chunks_exact(window.max(1))
        .map(|chunk| {
            let to = chunk[chunk.len() - 1];
            let rate = chunk.len() as f64 / (to - from);
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

/// Inter-quartile distance as a share of the median: the steadiness
/// measure a metric's bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    if mid == 0.0 {
        return None;
    }
    Some((q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_is_nearest_rank_and_refuses_small_samples() {
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&ninety_nine), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p90(&hundred), Some(90.0));
        let hundred_one: Vec<f64> = (1..=101).map(f64::from).collect();
        // ceil(0.9 * 101) = 91.
        assert_eq!(p90(&hundred_one), Some(91.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn windowed_rate_is_the_median_window_throughput() {
        // Windows of two: [0, 1] s, (1, 2] s, (2, 6] s; the last
        // completion makes no whole window.
        let done = [0.5, 1.0, 1.5, 2.0, 3.0, 6.0, 6.5];
        assert_eq!(windowed_rate(&done, 2), Some(2.0));
        // One slow window in three leaves the median where it was.
        let slowed = [1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(windowed_rate(&slowed, 3), Some(1.0));
        assert_eq!(windowed_rate(&[1.0, 2.0], 3), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[7.0; 10]), Some(0.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
