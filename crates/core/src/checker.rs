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
use std::fmt;

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

/// Worst-case packed size of one episode: a 5-byte head varint (a 32-bit
/// host id and two flags) and four 10-byte deltas.
const MAX_PACKED_EPISODE: usize = 45;

/// Every episode of a run, in grant order, packed.
///
/// All but the newest episode are stored as a LEB128 byte stream, per
/// episode:
///
/// * a head varint `mh << 2 | has_release << 1 | has_key`;
/// * `granted − previous granted`;
/// * `granted − requested`;
/// * `released − granted`, only if the episode has a release;
/// * `key − previous key`, only if it has a key.
///
/// Differences wrap, so every field is exact for any `u64`. A ring run packs
/// about six bytes per episode where the unpacked [`Episode`] takes 56.
///
/// The newest episode stays unpacked: it is the only one an exit can still
/// close, because [`SafetyChecker::exit`] closes an episode only while its
/// host holds the critical section, that is, while no other grant has
/// followed it. Every packed episode is therefore final.
///
/// The bytes are a function of the episode sequence and decode back to it,
/// so two logs compare equal exactly when their episodes do.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EpisodeLog {
    packed: Vec<u8>,
    newest: Option<Episode>,
    len: usize,
    /// Grant time of the last packed episode, the base of the next delta.
    last_granted: u64,
    /// Key of the last packed keyed episode, the base of the next key delta.
    last_key: u64,
}

impl EpisodeLog {
    /// An empty log with room to pack `episodes` entries without regrowth.
    fn with_capacity(episodes: usize) -> Self {
        EpisodeLog {
            packed: Vec::with_capacity(episodes.saturating_mul(MAX_PACKED_EPISODE)),
            ..EpisodeLog::default()
        }
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no episode was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The episodes in grant order, decoded.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            rest: &self.packed,
            newest: self.newest,
            granted: 0,
            key: 0,
        }
    }

    fn push(&mut self, ep: Episode) {
        if let Some(prev) = self.newest.replace(ep) {
            self.pack(prev);
        }
        self.len += 1;
    }

    /// Closes the newest episode at `now` (see the type's doc).
    fn close_newest(&mut self, mh: MhId, now: SimTime) {
        let ep = self.newest.as_mut().expect("a held section has an episode");
        debug_assert!(ep.mh == mh && ep.released_at.is_none());
        ep.released_at = Some(now);
    }

    fn pack(&mut self, ep: Episode) {
        let granted = ep.granted_at.ticks();
        let head = u64::from(ep.mh.0) << 2
            | u64::from(ep.released_at.is_some()) << 1
            | u64::from(ep.key.is_some());
        let out = &mut self.packed;
        put(out, head);
        put(out, granted.wrapping_sub(self.last_granted));
        put(out, granted.wrapping_sub(ep.requested_at.ticks()));
        if let Some(rel) = ep.released_at {
            put(out, rel.ticks().wrapping_sub(granted));
        }
        if let Some(key) = ep.key {
            put(out, key.wrapping_sub(self.last_key));
            self.last_key = key;
        }
        self.last_granted = granted;
    }
}

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

impl fmt::Debug for EpisodeLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self).finish()
    }
}

impl<'a> IntoIterator for &'a EpisodeLog {
    type Item = Episode;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Decoding iterator over an [`EpisodeLog`], yielding episodes by value.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    rest: &'a [u8],
    newest: Option<Episode>,
    granted: u64,
    key: u64,
}

impl Iter<'_> {
    /// Reads the next LEB128 varint. Most fields of a serving run fit one
    /// byte, so that case is inlined and skips the loop.
    #[inline]
    fn varint(&mut self) -> u64 {
        let (&b, rest) = self.rest.split_first().expect("a whole episode");
        if b < 0x80 {
            self.rest = rest;
            return u64::from(b);
        }
        self.varint_slow()
    }

    fn varint_slow(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let (&b, rest) = self.rest.split_first().expect("a whole episode");
            self.rest = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = Episode;

    fn next(&mut self) -> Option<Episode> {
        if self.rest.is_empty() {
            return self.newest.take();
        }
        let head = self.varint();
        self.granted = self.granted.wrapping_add(self.varint());
        let requested = self.granted.wrapping_sub(self.varint());
        let released_at = if head & 2 != 0 {
            Some(SimTime::from_ticks(
                self.granted.wrapping_add(self.varint()),
            ))
        } else {
            None
        };
        let key = if head & 1 != 0 {
            self.key = self.key.wrapping_add(self.varint());
            Some(self.key)
        } else {
            None
        };
        Some(Episode {
            mh: MhId((head >> 2) as u32),
            requested_at: SimTime::from_ticks(requested),
            granted_at: SimTime::from_ticks(self.granted),
            released_at,
            key,
        })
    }
}

/// Observes entries/exits and accumulates invariant violations.
#[derive(Debug, Clone, Default)]
pub struct SafetyChecker {
    holder: Option<MhId>,
    last_key: Option<u64>,
    episodes: EpisodeLog,
    /// Sum of every episode's wait; a `u128` cannot overflow.
    wait_sum: u128,
    /// Largest wait of any episode.
    wait_max: u64,
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
            episodes: EpisodeLog::with_capacity(episodes),
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
        let ep = Episode {
            mh,
            requested_at,
            granted_at: now,
            released_at: None,
            key,
        };
        self.wait_sum += u128::from(ep.wait());
        self.wait_max = self.wait_max.max(ep.wait());
        self.episodes.push(ep);
    }

    /// Records a critical-section exit.
    pub fn exit(&mut self, mh: MhId, now: SimTime) {
        if self.holder == Some(mh) {
            self.holder = None;
            // `holder` is `mh` only while `mh`'s grant is the newest.
            self.episodes.close_newest(mh, now);
        } else {
            self.unmatched_exits += 1;
        }
    }

    /// The MH currently inside the critical section, if any.
    pub fn holder(&self) -> Option<MhId> {
        self.holder
    }

    /// All recorded episodes, in grant order.
    pub fn episodes(&self) -> &EpisodeLog {
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

    /// Mean request-to-grant latency over every granted episode, including
    /// one still in the critical section. Returns 0 with no episodes.
    pub fn mean_wait(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        self.wait_sum as f64 / self.episodes.len() as f64
    }

    /// The `p`-th percentile (`0.0..=1.0`) of request-to-grant latency,
    /// by the nearest-rank method. Returns 0 with no episodes.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn wait_percentile(&self, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        let n = self.episodes.len();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        nth_smallest(
            || self.episodes.iter().map(|e| e.wait()),
            n,
            rank - 1,
            self.wait_max,
        )
    }
}

/// The `rank`-th smallest (from 0) of the `n` values `values()` yields, every
/// one at most `max`: a most-significant-digit radix select that walks the
/// values once per digit and counts only those under the digits settled so
/// far. Digits split `max`'s bit length evenly and are at most 16 bits wide,
/// or as wide as `n`'s bit length when that is narrower (but at least 8), so
/// a walk costs `O(n)` plus a count table of `O(min(max, n, 2¹⁶))` entries.
/// Values below 2¹⁶ take one walk once `n` reaches 2¹⁵.
fn nth_smallest<I: Iterator<Item = u64>>(
    values: impl Fn() -> I,
    n: usize,
    mut rank: usize,
    max: u64,
) -> u64 {
    let bits = u64::BITS - max.leading_zeros();
    if bits == 0 {
        return 0;
    }
    let widest = (usize::BITS - n.leading_zeros()).clamp(8, 16);
    let width = bits.div_ceil(bits.div_ceil(widest));
    let mut counts = vec![0usize; 1 << width];
    let mut prefix = 0u64;
    // Bits below the settled prefix.
    let mut low = bits;
    loop {
        let w = width.min(low);
        low -= w;
        let counts = &mut counts[..1 << w];
        let mask = (1u64 << w) - 1;
        for v in values() {
            if v.checked_shr(low + w).unwrap_or(0) == prefix {
                counts[((v >> low) & mask) as usize] += 1;
            }
        }
        let mut digit = 0;
        while rank >= counts[digit] {
            rank -= counts[digit];
            digit += 1;
        }
        prefix = prefix << w | digit as u64;
        if low == 0 {
            return prefix;
        }
        counts.fill(0);
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
        let eps: Vec<Episode> = c.episodes().iter().collect();
        assert_eq!(c.episodes().len(), 2);
        assert_eq!(eps[0].wait(), 5);
        assert_eq!(eps[1].released_at, Some(t(20)));
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

    /// Deterministic xorshift, for the scripts below.
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A ring-shaped run: 256 hosts granted in ring order, waits below
    /// 8 000 ticks, short gaps and holds, and, when `keyed`, Lamport keys
    /// (a counter above a 16-bit station id) as L2 supplies them.
    fn ring_script(keyed: bool) -> SafetyChecker {
        let mut c = SafetyChecker::new();
        let (mut s, mut now, mut counter) = (0x9e37_79b9_7f4a_7c15u64, 10_000u64, 0u64);
        for i in 0..100_000u64 {
            let mh = MhId((i % 256) as u32);
            now += 1 + rng(&mut s) % 64;
            let wait = rng(&mut s) % 8_000;
            counter += 1 + rng(&mut s) % 8;
            let key = keyed.then_some(counter << 16 | (i % 256 / 32));
            c.enter(mh, t(now - wait), t(now), key);
            now += 1 + rng(&mut s) % 32;
            c.exit(mh, t(now));
        }
        assert!(c.clean());
        c
    }

    #[test]
    fn ring_episodes_pack_small() {
        for (keyed, bound) in [(false, 7.0), (true, 11.0)] {
            let c = ring_script(keyed);
            let per = c.episodes.packed.len() as f64 / (c.episodes().len() - 1) as f64;
            assert!(per <= bound, "keyed {keyed}: {per:.2} B per episode");
        }
    }

    #[test]
    fn extreme_fields_round_trip() {
        let max = u64::MAX;
        let script = [
            (7, 0, 0, Some(0), Some(max)),
            (u32::MAX, max, 0, Some(max), Some(0)),
            (0, 0, max, None, None),
            (3, 5, 2, Some(1), Some(max)),
            (3, max, max, Some(max), None),
        ];
        let mut c = SafetyChecker::new();
        let mut want = Vec::new();
        for (mh, req, now, rel, key) in script {
            c.enter(MhId(mh), t(req), t(now), key);
            if let Some(r) = rel {
                c.exit(MhId(mh), t(r));
            }
            want.push(Episode {
                mh: MhId(mh),
                requested_at: t(req),
                granted_at: t(now),
                released_at: rel.map(t),
                key,
            });
        }
        assert_eq!(c.episodes().iter().collect::<Vec<_>>(), want);
        let mut waits: Vec<u64> = want.iter().map(Episode::wait).collect();
        waits.sort_unstable();
        assert_eq!(c.wait_percentile(0.0), waits[0]);
        assert_eq!(c.wait_percentile(1.0), max);
        let sum: u128 = waits.iter().map(|&w| u128::from(w)).sum();
        assert_eq!(c.mean_wait(), sum as f64 / waits.len() as f64);
    }

    #[test]
    fn radix_select_matches_a_sort_at_every_width() {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        for bits in [1u32, 3, 16, 17, 31, 33, 48, 63, 64] {
            let values: Vec<u64> = (0..997)
                .map(|_| rng(&mut s) >> (64 - bits))
                .chain([0, u64::MAX >> (64 - bits)])
                .collect();
            let max = values.iter().copied().max().unwrap();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            // `n` only sets the digit width: a claimed 2²⁰ values takes the
            // 16-bit digits a long run gets.
            for n in [values.len(), 1 << 20] {
                for rank in [0, 1, 17, 499, 500, 997, 998] {
                    let got = nth_smallest(|| values.iter().copied(), n, rank, max);
                    assert_eq!(got, sorted[rank], "{bits} bits, n {n}, rank {rank}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = SafetyChecker::new().wait_percentile(1.5);
    }
}
