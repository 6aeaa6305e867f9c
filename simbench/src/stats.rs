//! Order statistics for timings: the median and a tail percentile that
//! never claims more than its samples can support.

/// The median of `xs` (the mean of the middle pair for an even count);
/// `0.0` when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `xs`; `0.0` when `xs` is empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Samples a percentile must leave above it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `[50, 100)`.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank), or the median.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The highest percentile, capped at `cap` (e.g. 99), that still leaves
/// at least [`MIN_BEYOND`] samples beyond it, by nearest rank.
///
/// With `n` samples the nearest rank of percentile `p` is
/// `ceil(p/100 · n)` and `n - rank` samples lie beyond it, so the answer
/// is `p = min(cap, 100 · (n - 10) / n)`.  Below twenty samples that
/// would fall under the median, so the median is reported instead, as the
/// 50th percentile with its fewer than ten samples beyond: a thin tail
/// shows as thin rather than as its noisiest sample, the maximum.
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p = cap.min(100.0 * n.saturating_sub(MIN_BEYOND) as f64 / n.max(1) as f64);
    if p < 50.0 {
        return Tail {
            percentile: 50.0,
            value: median(&v),
            samples: n,
            beyond: n / 2,
        };
    }
    // Nearest rank, guarded against float round-up past the bound the
    // formula guarantees.
    let rank = ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n - MIN_BEYOND);
    Tail {
        percentile: p,
        value: v[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_once_a_thousand_samples_back_it() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.samples, 2000);
        assert_eq!(t.beyond, 20);
    }

    #[test]
    fn tail_backs_off_to_the_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert!((t.percentile - 95.0).abs() < 1e-9, "{t:?}");
        assert_eq!(t.value, 190.0);
        assert_eq!(t.beyond, MIN_BEYOND);
        // A lower cap: the fastest decile of 200 rates.
        assert_eq!(tail(&xs, 90.0).value, 180.0);
        // Exactly the boundary of p99: 1000 samples leave 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        // Any count from twenty on leaves at least ten beyond.
        for n in 20..300 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let t = tail(&xs, 99.0);
            assert!(t.beyond >= MIN_BEYOND, "n={n}: {t:?}");
            assert!((50.0..=99.0).contains(&t.percentile));
        }
    }

    #[test]
    fn tail_of_fewer_than_twenty_is_the_median() {
        let t = tail(&[5.0, 9.0, 1.0], 99.0);
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (50.0, 5.0, 3, 1)
        );
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0).value, 10.0);
        let t = tail(&[], 99.0);
        assert_eq!((t.value, t.samples), (0.0, 0));
    }
}
