//! Multi-seed aggregation for experiment tables.
//!
//! Single seeded runs are deterministic but one-sided; the headline tables
//! average each measurement over several seeds and report mean ± standard
//! deviation so run-to-run spread is visible.

use std::fmt;

/// Mean, standard deviation and range of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises the samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot summarise zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            mean,
            std: var.sqrt(),
            min,
            max,
            n,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.std)
    }
}

/// Log₂-bucket histogram reducer for latency percentiles.
///
/// Serving benchmarks fold millions of request→grant waits into p50/p95/p99
/// columns; an exact percentile would need every sample retained. This
/// reducer keeps 65 counters instead: one bucket per power of two (bucket
/// `i ≥ 1` has inclusive upper bound `2^(i-1)`; bucket 0 holds zero), and
/// reports a percentile as the inclusive upper bound of the bucket the
/// nearest-rank sample falls in. Exact powers of two are therefore reported
/// exactly; everything else rounds up by less than 2×, which is the right
/// fidelity for a log-scale latency column.
///
/// # Examples
///
/// ```
/// use mobidist_bench::stats::LatencyHist;
/// let mut h = LatencyHist::new();
/// for v in [1, 2, 4, 8] {
///     h.record(v);
/// }
/// assert_eq!(h.percentile(0.5), 2);
/// assert_eq!(h.percentile(1.0), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    /// `counts[0]` holds zeros; `counts[i]` holds `(2^(i-1), 2^i]`.
    counts: [u64; 65],
    n: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHist {
            counts: [0; 65],
            n: 0,
        }
    }

    /// Folds one sample in. Bucket index for `v ≥ 1` is `ceil(log2(v)) + 1`;
    /// values above `2^63` saturate into the top bucket.
    pub fn record(&mut self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            (65 - (v - 1).leading_zeros() as usize).min(64)
        };
        self.counts[bucket] += 1;
        self.n += 1;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), reported as the inclusive
    /// upper bound of the bucket holding the ranked sample. Returns 0 for an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << (i - 1) };
            }
        }
        1u64 << 63
    }
}

/// Jain's fairness index: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly even allocation across the `n` participants; `1/n`
/// means one participant got everything. Conventionally applied to
/// per-client throughput; the serving benchmark applies it to per-MH mean
/// waits, where a value below 1 exposes latency starvation. Empty input and
/// all-zero input are defined as perfectly fair (1.0).
///
/// # Examples
///
/// ```
/// use mobidist_bench::stats::jain;
/// assert_eq!(jain(&[4.0, 4.0, 4.0]), 1.0);
/// assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
/// ```
pub fn jain(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = samples.iter().sum();
    let sq: f64 = samples.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_samples() {
        let s = Summary::of(&[5.0, 5.0, 5.0]);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!((s.min, s.max, s.n), (5.0, 5.0, 3));
        assert_eq!(s.to_string(), "5.00 ± 0.00");
    }

    #[test]
    fn summary_basic_statistics() {
        let s = Summary::of(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.mean, 5.0);
        assert!((s.std - 5.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = LatencyHist::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0, "p={p}");
        }
    }

    #[test]
    fn single_sample_dominates_every_percentile() {
        let mut h = LatencyHist::new();
        h.record(100);
        assert_eq!(h.len(), 1);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 128, "one sample rounds up to 2^7");
        }
        let mut z = LatencyHist::new();
        z.record(0);
        assert_eq!(z.percentile(0.5), 0, "zero has its own exact bucket");
    }

    #[test]
    fn exact_boundary_buckets_round_trip_powers_of_two() {
        // Every power of two is its own bucket's upper bound, so a
        // histogram of one value reports that value exactly.
        for k in 0..63u32 {
            let v = 1u64 << k;
            let mut h = LatencyHist::new();
            h.record(v);
            assert_eq!(h.percentile(1.0), v, "2^{k} must report exactly");
        }
        // Off-boundary values round up to the next power of two, never down.
        let mut h = LatencyHist::new();
        h.record(5);
        assert_eq!(h.percentile(1.0), 8);
        // Saturation: values above 2^63 land in the top bucket.
        let mut top = LatencyHist::new();
        top.record(u64::MAX);
        assert_eq!(top.percentile(1.0), 1u64 << 63);
    }

    #[test]
    fn percentiles_use_nearest_rank_over_buckets() {
        let mut h = LatencyHist::new();
        for v in [1, 1, 2, 4, 8, 16, 32, 64, 128, 256] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 1, "p0 clamps to the first sample");
        assert_eq!(h.percentile(0.5), 8, "rank 5 of 10 is the fifth sample");
        assert_eq!(h.percentile(0.95), 256);
        assert_eq!(h.percentile(1.0), 256);
    }

    #[test]
    fn jain_index_bounds_and_known_values() {
        assert_eq!(jain(&[]), 1.0, "vacuously fair");
        assert_eq!(jain(&[7.0]), 1.0, "a single participant is fair");
        assert_eq!(jain(&[0.0, 0.0]), 1.0, "all-zero defined as fair");
        assert_eq!(jain(&[3.0, 3.0, 3.0, 3.0]), 1.0);
        // One of two participants starved: J = 1/n = 0.5.
        assert!((jain(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
        // Monotone: a more even split scores higher.
        assert!(jain(&[6.0, 4.0]) > jain(&[9.0, 1.0]));
    }
}
