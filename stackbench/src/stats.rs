//! Order statistics. A metric is the median over repeats of a per-repeat
//! statistic, reported with its quartiles and the number of repeats.

/// `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation between
/// the closest ranks. `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// First and third quartile the way Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), which is what the driver judges spread
/// by. Needs two samples; with fewer both quartiles are the sample itself.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return samples.first().map(|&v| (v, v));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Median, quartiles and count of the per-repeat values of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over repeats: the metric's value.
    pub median: f64,
    /// First quartile over repeats.
    pub q1: f64,
    /// Third quartile over repeats.
    pub q3: f64,
    /// Number of repeats summarised.
    pub n: usize,
}

impl Summary {
    /// Summarises per-repeat values; `None` when there are none.
    pub fn of(repeats: &[f64]) -> Option<Summary> {
        let (q1, q3) = quartiles(repeats)?;
        Some(Summary {
            median: median(repeats)?,
            q1,
            q3,
            n: repeats.len(),
        })
    }

    /// A value measured once (a count or a total), with no spread.
    pub fn single(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), Some((5.0, 5.0)));
    }

    #[test]
    fn summary_is_median_of_repeats_with_spread() {
        // Five repeats, each already reduced to its own p50.
        let per_repeat = [2.1, 1.9, 2.0, 2.4, 2.0];
        let s = Summary::of(&per_repeat).unwrap();
        assert_eq!(s.median, 2.0);
        assert_eq!(s.n, 5);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!((s.spread() - (s.q3 - s.q1) / 2.0).abs() < 1e-12);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }
}
