//! Percentiles and boxplot summaries for simulation output.

/// Percentile (nearest-rank) of a sample; `p` in `[0, 1]`.
///
/// # Panics
///
/// Panics if `p` is out of range.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile must be in [0,1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Five-number summary + mean, as printed for the paper's boxplots
/// (Fig. 7(e), Fig. 8(f)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl BoxplotStats {
    /// Summarizes a sample. Returns zeros for an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return BoxplotStats {
                min: 0.0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
                max: 0.0,
                mean: 0.0,
                count: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        BoxplotStats {
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.50),
            q3: percentile(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            count: sorted.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_p_panics() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn boxplot_of_known_sample() {
        let s = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let b = BoxplotStats::of(&s);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 8.0);
        assert_eq!(b.median, 4.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 6.0);
        assert_eq!(b.mean, 4.5);
        assert_eq!(b.count, 8);
    }

    #[test]
    fn empty_sample_is_zeroed() {
        let b = BoxplotStats::of(&[]);
        assert_eq!(b.count, 0);
        assert_eq!(b.mean, 0.0);
    }

    #[test]
    fn unsorted_input_is_fine() {
        let b = BoxplotStats::of(&[5.0, 1.0, 3.0]);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.median, 3.0);
    }
}
