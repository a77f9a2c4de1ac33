//! Runtime invariant checking for mutual exclusion.
//!
//! The checker observes every critical-section entry and exit and verifies:
//!
//! * **Safety** — at most one mobile host is in the critical section at any
//!   simulated instant;
//! * **Ordering** — when the algorithm supplies total-order keys (Lamport
//!   timestamps), grants occur in nondecreasing key order, the fairness
//!   property Lamport's algorithm guarantees;
//! * **Liveness** (checked by the harness report) — every issued request is
//!   eventually granted or explicitly aborted.

use mobidist_net::ids::MhId;
use mobidist_net::time::SimTime;

/// One completed (or in-flight) critical-section episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// The MH that held the critical section.
    pub mh: MhId,
    /// When the workload issued the request.
    pub requested_at: SimTime,
    /// When the algorithm granted entry.
    pub granted_at: SimTime,
    /// When the MH released (None while still inside).
    pub released_at: Option<SimTime>,
    /// Ordering key supplied by the algorithm, if any.
    pub key: Option<u64>,
}

impl Episode {
    /// Request-to-grant latency in ticks.
    pub fn wait(&self) -> u64 {
        self.granted_at.saturating_since(self.requested_at)
    }
}

/// Observes entries/exits and accumulates invariant violations.
#[derive(Debug, Clone, Default)]
pub struct SafetyChecker {
    holder: Option<MhId>,
    last_key: Option<u64>,
    episodes: Vec<Episode>,
    /// Number of times a grant overlapped an existing holder.
    safety_violations: u64,
    /// Number of times a keyed grant regressed below an earlier key.
    order_violations: u64,
    /// Number of exits with no matching holder.
    unmatched_exits: u64,
}

impl SafetyChecker {
    /// Creates a checker.
    pub fn new() -> Self {
        SafetyChecker::default()
    }

    /// Creates a checker whose episode log has room for `episodes` entries.
    pub fn with_capacity(episodes: usize) -> Self {
        SafetyChecker {
            episodes: Vec::with_capacity(episodes),
            ..SafetyChecker::default()
        }
    }

    /// Records a critical-section entry.
    pub fn enter(&mut self, mh: MhId, requested_at: SimTime, now: SimTime, key: Option<u64>) {
        if self.holder.is_some() {
            self.safety_violations += 1;
        }
        if let (Some(k), Some(prev)) = (key, self.last_key) {
            if k < prev {
                self.order_violations += 1;
            }
        }
        if key.is_some() {
            self.last_key = key;
        }
        self.holder = Some(mh);
        self.episodes.push(Episode {
            mh,
            requested_at,
            granted_at: now,
            released_at: None,
            key,
        });
    }

    /// Records a critical-section exit.
    pub fn exit(&mut self, mh: MhId, now: SimTime) {
        if self.holder == Some(mh) {
            self.holder = None;
            if let Some(ep) = self
                .episodes
                .iter_mut()
                .rev()
                .find(|e| e.mh == mh && e.released_at.is_none())
            {
                ep.released_at = Some(now);
            }
        } else {
            self.unmatched_exits += 1;
        }
    }

    /// The MH currently inside the critical section, if any.
    pub fn holder(&self) -> Option<MhId> {
        self.holder
    }

    /// All recorded episodes, in grant order.
    pub fn episodes(&self) -> &[Episode] {
        &self.episodes
    }

    /// Total mutual-exclusion violations observed.
    pub fn safety_violations(&self) -> u64 {
        self.safety_violations
    }

    /// Total ordering (fairness) violations observed.
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// Exits that did not match the current holder.
    pub fn unmatched_exits(&self) -> u64 {
        self.unmatched_exits
    }

    /// True when no invariant was ever violated.
    pub fn clean(&self) -> bool {
        self.safety_violations == 0 && self.order_violations == 0 && self.unmatched_exits == 0
    }

    /// Mean request-to-grant latency over completed episodes.
    pub fn mean_wait(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.episodes.iter().map(|e| e.wait()).sum();
        sum as f64 / self.episodes.len() as f64
    }

    /// The `p`-th percentile (`0.0..=1.0`) of request-to-grant latency,
    /// by the nearest-rank method. Returns 0 with no episodes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn wait_percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        if self.episodes.is_empty() {
            return 0;
        }
        let mut waits: Vec<u64> = self.episodes.iter().map(|e| e.wait()).collect();
        waits.sort_unstable();
        let rank = ((p * waits.len() as f64).ceil() as usize).clamp(1, waits.len());
        waits[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn clean_serial_episodes() {
        let mut c = SafetyChecker::new();
        c.enter(MhId(0), t(0), t(5), Some(1));
        c.exit(MhId(0), t(10));
        c.enter(MhId(1), t(2), t(12), Some(2));
        c.exit(MhId(1), t(20));
        assert!(c.clean());
        assert_eq!(c.episodes().len(), 2);
        assert_eq!(c.episodes()[0].wait(), 5);
        assert_eq!(c.episodes()[1].released_at, Some(t(20)));
        assert!(c.holder().is_none());
        assert!((c.mean_wait() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn overlapping_grants_are_flagged() {
        let mut c = SafetyChecker::new();
        c.enter(MhId(0), t(0), t(1), None);
        c.enter(MhId(1), t(0), t(2), None);
        assert_eq!(c.safety_violations(), 1);
        assert!(!c.clean());
    }

    #[test]
    fn key_regression_is_flagged() {
        let mut c = SafetyChecker::new();
        c.enter(MhId(0), t(0), t(1), Some(5));
        c.exit(MhId(0), t(2));
        c.enter(MhId(1), t(0), t(3), Some(4));
        assert_eq!(c.order_violations(), 1);
    }

    #[test]
    fn unkeyed_grants_do_not_affect_ordering() {
        let mut c = SafetyChecker::new();
        c.enter(MhId(0), t(0), t(1), Some(5));
        c.exit(MhId(0), t(2));
        c.enter(MhId(1), t(0), t(3), None);
        c.exit(MhId(1), t(4));
        c.enter(MhId(2), t(0), t(5), Some(6));
        assert_eq!(c.order_violations(), 0);
        assert_eq!(c.safety_violations(), 0);
    }

    #[test]
    fn unmatched_exit_is_flagged() {
        let mut c = SafetyChecker::new();
        c.exit(MhId(3), t(1));
        assert_eq!(c.unmatched_exits(), 1);
        assert!(!c.clean());
    }

    #[test]
    fn mean_wait_of_empty_checker_is_zero() {
        assert_eq!(SafetyChecker::new().mean_wait(), 0.0);
        assert_eq!(SafetyChecker::new().wait_percentile(0.95), 0);
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut c = SafetyChecker::new();
        for (i, w) in [10u64, 20, 30, 40, 50].iter().enumerate() {
            c.enter(MhId(i as u32), t(0), t(*w), None);
            c.exit(MhId(i as u32), t(*w + 1));
        }
        assert_eq!(c.wait_percentile(0.5), 30);
        assert_eq!(c.wait_percentile(0.95), 50);
        assert_eq!(c.wait_percentile(0.0), 10);
        assert_eq!(c.wait_percentile(1.0), 50);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = SafetyChecker::new().wait_percentile(1.5);
    }
}
