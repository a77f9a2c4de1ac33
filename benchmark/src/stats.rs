//! The timing reducer: every host-time figure the benchmark reports is a
//! median with its quartiles and sample count, never a single reading.

/// Median, quartiles and extremes of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Quartiles {
    /// Inter-quartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Reduces `samples` with the "exclusive" quantile method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so numbers printed here can be
/// compared with a driver that recomputes them there. `None` when empty;
/// a single sample is its own median and quartiles.
pub fn quartiles(samples: &[f64]) -> Option<Quartiles> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return s[0];
        }
        // Position i·(n+1)/4 in 1-based ranks, interpolated linearly and
        // clamped to the data.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some(Quartiles {
        n,
        min: s[0],
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max: s[n - 1],
    })
}

/// Median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).map_or(0.0, |q| q.median)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!((q.n, q.min, q.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(quartiles(&[]).is_none());
        let q = quartiles(&[7.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartiles(&v).unwrap().spread() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
