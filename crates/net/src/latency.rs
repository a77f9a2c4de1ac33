//! Message latency distributions.
//!
//! The paper's static network delivers with "arbitrary message latency";
//! experiments choose a distribution per channel class. FIFO order is
//! enforced by the kernel regardless of sampled latencies (see
//! [`FifoChains`](crate::channel::FifoChains)).

use crate::rng::SimRng;

/// A latency distribution, sampled per message, in ticks.
///
/// # Examples
///
/// ```
/// use mobidist_net::latency::LatencyModel;
/// use mobidist_net::rng::SimRng;
/// let mut rng = SimRng::seed_from(1);
/// assert_eq!(LatencyModel::Fixed(4).sample(&mut rng), 4);
/// let v = LatencyModel::Uniform { lo: 2, hi: 6 }.sample(&mut rng);
/// assert!((2..=6).contains(&v));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Constant latency.
    Fixed(u64),
    /// Uniform latency in `lo..=hi`.
    Uniform {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
}

impl LatencyModel {
    /// Draws one latency in ticks (always at least 1).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        match *self {
            LatencyModel::Fixed(v) => v.max(1),
            LatencyModel::Uniform { lo, hi } => rng.between(lo.max(1), hi.max(lo).max(1)),
        }
    }

    /// The smallest latency [`sample`](Self::sample) can ever return — the
    /// conservative lookahead of the channel class. Every model delivers in
    /// at least one tick, so this is always ≥ 1; a sharded simulation may
    /// safely process a whole window of this width before exchanging
    /// cross-shard traffic.
    pub fn lower_bound(&self) -> u64 {
        match *self {
            LatencyModel::Fixed(v) => v.max(1),
            LatencyModel::Uniform { lo, .. } => lo.max(1),
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Fixed(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant_and_nonzero() {
        let mut rng = SimRng::seed_from(2);
        assert_eq!(LatencyModel::Fixed(0).sample(&mut rng), 1);
        for _ in 0..10 {
            assert_eq!(LatencyModel::Fixed(9).sample(&mut rng), 9);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let mut rng = SimRng::seed_from(3);
        let m = LatencyModel::Uniform { lo: 3, hi: 11 };
        for _ in 0..100 {
            let v = m.sample(&mut rng);
            assert!((3..=11).contains(&v));
        }
    }

    #[test]
    fn lower_bounds() {
        assert_eq!(LatencyModel::Fixed(5).lower_bound(), 5);
        assert_eq!(LatencyModel::Fixed(0).lower_bound(), 1);
        assert_eq!(LatencyModel::Uniform { lo: 3, hi: 8 }.lower_bound(), 3);
        assert_eq!(LatencyModel::Uniform { lo: 0, hi: 8 }.lower_bound(), 1);
    }

    #[test]
    fn samples_respect_lower_bound() {
        let mut rng = SimRng::seed_from(8);
        for m in [
            LatencyModel::Fixed(4),
            LatencyModel::Uniform { lo: 2, hi: 9 },
        ] {
            let lb = m.lower_bound();
            for _ in 0..200 {
                assert!(m.sample(&mut rng) >= lb);
            }
        }
    }
}
