//! FIFO channel machinery.
//!
//! The system model requires: reliable FIFO delivery between any two MSSs
//! (with arbitrary latency), FIFO delivery on each wireless channel between
//! an MSS and a local MH, and — for algorithms like L1 that run directly on
//! MHs — a *logical* FIFO channel between any pair of MHs regardless of
//! location. The first two are enforced by [`FifoChains`]: a delivery may
//! never be scheduled before the previous delivery on the same directed
//! channel. The third is enforced end-to-end by [`ReorderBuffers`], which
//! releases MH→MH messages to the destination in send order even when
//! re-searches make them arrive out of order. The paper calls this an
//! "additional burden on the underlying network protocols" of L1.

use crate::hash::FxHashMap;
use crate::ids::{MhId, MssId};
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// A directed channel on which FIFO order must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainKey {
    /// Wired channel between two MSSs (directed).
    Fixed(MssId, MssId),
    /// Wireless downlink from an MSS to a local MH.
    Down(MssId, MhId),
    /// Wireless uplink from an MH to its local MSS.
    Up(MhId, MssId),
}

/// Tracks the last scheduled delivery per directed channel and clamps new
/// deliveries to preserve FIFO order.
///
/// Storage is three flat arrays indexed by topology, not a hash map — the
/// schedule/reset pair sits on the per-message hot path:
///
/// * `Fixed(a, b)` → `fixed[a * num_mss + b]` (every directed MSS pair);
/// * `Down(_, mh)` → `down[mh]` and `Up(mh, _)` → `up[mh]`: at any instant
///   an MH has at most one live wireless channel in each direction (to its
///   serving cell), and the kernel resets both chains whenever the MH leaves
///   or disconnects, so one slot per MH per direction is exact.
///
/// `SimTime::ZERO` is the "no history" sentinel; it never clamps, because no
/// delivery can be scheduled before the epoch.
///
/// # Examples
///
/// ```
/// use mobidist_net::channel::{ChainKey, FifoChains};
/// use mobidist_net::ids::MssId;
/// use mobidist_net::time::SimTime;
///
/// let mut f = FifoChains::new(2, 2);
/// let k = ChainKey::Fixed(MssId(0), MssId(1));
/// let t1 = f.schedule(k, SimTime::from_ticks(10));
/// let t2 = f.schedule(k, SimTime::from_ticks(5)); // would overtake: clamped
/// assert!(t2 >= t1);
/// ```
#[derive(Debug, Clone)]
pub struct FifoChains {
    num_mss: usize,
    fixed: Vec<SimTime>,
    down: Vec<SimTime>,
    up: Vec<SimTime>,
    /// Channels currently holding a (nonzero) recorded delivery time.
    recorded: usize,
}

impl FifoChains {
    /// Creates chains for a topology of `num_mss` stations and `num_mh`
    /// hosts, all without history.
    pub fn new(num_mss: usize, num_mh: usize) -> Self {
        FifoChains {
            num_mss,
            fixed: vec![SimTime::ZERO; num_mss * num_mss],
            down: vec![SimTime::ZERO; num_mh],
            up: vec![SimTime::ZERO; num_mh],
            recorded: 0,
        }
    }

    #[inline]
    fn slot_mut(&mut self, key: ChainKey) -> &mut SimTime {
        match key {
            ChainKey::Fixed(a, b) => &mut self.fixed[a.index() * self.num_mss + b.index()],
            ChainKey::Down(_, mh) => &mut self.down[mh.index()],
            ChainKey::Up(mh, _) => &mut self.up[mh.index()],
        }
    }

    /// Returns the actual delivery time for a message that would naively
    /// arrive at `earliest`, clamping so it cannot overtake the previous
    /// message on the same channel, and records it.
    pub fn schedule(&mut self, key: ChainKey, earliest: SimTime) -> SimTime {
        let slot = self.slot_mut(key);
        let prev = *slot;
        let t = if prev > earliest { prev } else { earliest };
        *slot = t;
        if prev == SimTime::ZERO && t > SimTime::ZERO {
            self.recorded += 1;
        }
        t
    }

    /// Forgets a channel's history (used when an MH leaves a cell: the
    /// wireless channel to the old cell ceases to exist).
    pub fn reset(&mut self, key: ChainKey) {
        let slot = self.slot_mut(key);
        if *slot > SimTime::ZERO {
            *slot = SimTime::ZERO;
            self.recorded -= 1;
        }
    }

    /// Number of channels with recorded history.
    pub fn len(&self) -> usize {
        self.recorded
    }

    /// True when no channel has history.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }
}

/// What one pair's receiver waits on: arrivals that ran ahead of
/// `expected`, and sequence numbers the transport aborted (e.g. the
/// destination was disconnected), skipped rather than waited for.
#[derive(Debug, Clone)]
struct Waiting<M> {
    held: BTreeMap<u64, M>,
    cancelled: BTreeSet<u64>,
}

impl<M> Default for Waiting<M> {
    fn default() -> Self {
        Waiting {
            held: BTreeMap::new(),
            cancelled: BTreeSet::new(),
        }
    }
}

/// One ordered MH pair's sequencing state.
#[derive(Debug, Clone)]
struct PairSeq<M> {
    /// Next sequence number the sender assigns.
    sent: u64,
    /// Next sequence number the receiver releases.
    expected: u64,
    /// Set only while an arrival is held or a slot is cancelled ahead of
    /// `expected`, so an in-order arrival on a quiet pair touches no tree.
    waiting: Option<Box<Waiting<M>>>,
}

impl<M> Default for PairSeq<M> {
    fn default() -> Self {
        PairSeq {
            sent: 0,
            expected: 0,
            waiting: None,
        }
    }
}

impl<M> PairSeq<M> {
    /// Releases every held message that is now in order, skipping cancelled
    /// slots and advancing `expected` past both; drops `waiting` once
    /// nothing in it can matter again.
    fn drain(&mut self, release: &mut impl FnMut(M)) {
        let Some(w) = &mut self.waiting else {
            return;
        };
        loop {
            if let Some(m) = w.held.remove(&self.expected) {
                release(m);
            } else if !w.cancelled.remove(&self.expected) {
                break;
            }
            self.expected += 1;
        }
        if w.held.is_empty() && w.cancelled.last().is_none_or(|&c| c < self.expected) {
            self.waiting = None;
        }
    }
}

/// End-to-end reorder buffers realising logical FIFO channels between MH
/// pairs.
///
/// The sender side assigns a per-pair sequence number with [`next_seq`]; the
/// receiver side passes arrivals to [`accept`], which hands the messages now
/// deliverable, in order, to its `release` callback.
///
/// [`next_seq`]: ReorderBuffers::next_seq
/// [`accept`]: ReorderBuffers::accept
///
/// # Examples
///
/// ```
/// use mobidist_net::channel::ReorderBuffers;
/// use mobidist_net::ids::MhId;
///
/// let mut b: ReorderBuffers<&'static str> = ReorderBuffers::default();
/// let (a, z) = (MhId(0), MhId(1));
/// let s0 = b.next_seq(a, z);
/// let s1 = b.next_seq(a, z);
/// let mut out = Vec::new();
/// b.accept(a, z, s1, "second", |m| out.push(m)); // held back
/// assert!(out.is_empty());
/// b.accept(a, z, s0, "first", |m| out.push(m));
/// assert_eq!(out, ["first", "second"]);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffers<M> {
    // Keyed lookups only, never iterated, so the hash order cannot leak
    // into a run.
    pairs: FxHashMap<(MhId, MhId), PairSeq<M>>,
}

impl<M> Default for ReorderBuffers<M> {
    fn default() -> Self {
        ReorderBuffers {
            pairs: FxHashMap::default(),
        }
    }
}

impl<M> ReorderBuffers<M> {
    /// Allocates the next sequence number for the `src → dst` pair.
    pub fn next_seq(&mut self, src: MhId, dst: MhId) -> u64 {
        let pair = self.pairs.entry((src, dst)).or_default();
        pair.sent += 1;
        pair.sent - 1
    }

    /// Accepts an arrival and passes every message now deliverable to
    /// `release`, in send order (none if `seq` is ahead of the next expected
    /// message). An arrival that is next in order goes straight out; only
    /// one that runs ahead is held.
    ///
    /// Duplicate or already-delivered sequence numbers are ignored.
    pub fn accept(&mut self, src: MhId, dst: MhId, seq: u64, msg: M, mut release: impl FnMut(M)) {
        let pair = self.pairs.entry((src, dst)).or_default();
        if seq > pair.expected {
            let w = pair.waiting.get_or_insert_with(Box::default);
            w.held.entry(seq).or_insert(msg);
        } else if seq == pair.expected {
            pair.expected += 1;
            release(msg);
            pair.drain(&mut release);
        }
    }

    /// Marks `seq` as aborted by the transport (its message will never
    /// arrive) and passes any successors that become deliverable to
    /// `release`.
    pub fn cancel(&mut self, src: MhId, dst: MhId, seq: u64, mut release: impl FnMut(M)) {
        let pair = self.pairs.entry((src, dst)).or_default();
        if seq < pair.expected {
            return; // already delivered or skipped
        }
        let w = pair.waiting.get_or_insert_with(Box::default);
        w.cancelled.insert(seq);
        pair.drain(&mut release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<M> ReorderBuffers<M> {
        /// Messages held back waiting for a predecessor, over all pairs.
        fn held(&self) -> usize {
            self.pairs
                .values()
                .filter_map(|p| p.waiting.as_ref())
                .map(|w| w.held.len())
                .sum()
        }

        /// True when no pair keeps anything held or cancelled.
        fn quiet(&self) -> bool {
            self.pairs.values().all(|p| p.waiting.is_none())
        }
    }

    /// What one `accept` call releases, in order.
    fn accept(b: &mut ReorderBuffers<u32>, src: MhId, dst: MhId, seq: u64, m: u32) -> Vec<u32> {
        let mut out = Vec::new();
        b.accept(src, dst, seq, m, |x| out.push(x));
        out
    }

    /// What one `cancel` call releases, in order.
    fn cancel(b: &mut ReorderBuffers<u32>, src: MhId, dst: MhId, seq: u64) -> Vec<u32> {
        let mut out = Vec::new();
        b.cancel(src, dst, seq, |x| out.push(x));
        out
    }

    #[test]
    fn fifo_chain_clamps_overtaking() {
        let mut f = FifoChains::new(2, 2);
        let k = ChainKey::Fixed(MssId(0), MssId(1));
        assert_eq!(f.schedule(k, SimTime::from_ticks(10)).ticks(), 10);
        assert_eq!(f.schedule(k, SimTime::from_ticks(4)).ticks(), 10);
        assert_eq!(f.schedule(k, SimTime::from_ticks(12)).ticks(), 12);
    }

    #[test]
    fn distinct_chains_do_not_interact() {
        let mut f = FifoChains::new(2, 2);
        let ab = ChainKey::Fixed(MssId(0), MssId(1));
        let ba = ChainKey::Fixed(MssId(1), MssId(0));
        f.schedule(ab, SimTime::from_ticks(100));
        assert_eq!(f.schedule(ba, SimTime::from_ticks(3)).ticks(), 3);
        assert_eq!(f.len(), 2);
        assert!(!f.is_empty());
    }

    #[test]
    fn reset_forgets_history() {
        let mut f = FifoChains::new(2, 2);
        let k = ChainKey::Down(MssId(0), MhId(1));
        f.schedule(k, SimTime::from_ticks(50));
        f.reset(k);
        assert_eq!(f.schedule(k, SimTime::from_ticks(2)).ticks(), 2);
    }

    #[test]
    fn reorder_in_order_passthrough() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for i in 0..5u64 {
            let s = b.next_seq(a, z);
            assert_eq!(s, i);
            assert_eq!(accept(&mut b, a, z, s, i as u32), vec![i as u32]);
        }
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn reorder_releases_in_send_order() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(2), MhId(3));
        let s: Vec<u64> = (0..4).map(|_| b.next_seq(a, z)).collect();
        assert!(accept(&mut b, a, z, s[2], 2).is_empty());
        assert!(accept(&mut b, a, z, s[1], 1).is_empty());
        assert_eq!(b.held(), 2);
        assert_eq!(accept(&mut b, a, z, s[0], 0), vec![0, 1, 2]);
        assert_eq!(accept(&mut b, a, z, s[3], 3), vec![3]);
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn reorder_ignores_duplicates() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s0 = b.next_seq(a, z);
        assert_eq!(accept(&mut b, a, z, s0, 7), vec![7]);
        assert!(accept(&mut b, a, z, s0, 7).is_empty());
    }

    #[test]
    fn pairs_are_independent_and_directed() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s_az = b.next_seq(a, z);
        let s_za = b.next_seq(z, a);
        assert_eq!(s_az, 0);
        assert_eq!(s_za, 0);
        assert_eq!(accept(&mut b, z, a, s_za, 9), vec![9]);
        assert_eq!(accept(&mut b, a, z, s_az, 8), vec![8]);
    }

    #[test]
    fn in_order_arrival_releases_the_held_run_behind_it() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(4), MhId(5));
        for _ in 0..5 {
            b.next_seq(a, z);
        }
        for s in [1, 2, 4] {
            assert!(accept(&mut b, a, z, s, s as u32).is_empty());
        }
        assert_eq!(b.held(), 3);
        // 0 is next: it goes out and pulls 1 and 2 behind it; 4 waits for 3.
        assert_eq!(accept(&mut b, a, z, 0, 0), vec![0, 1, 2]);
        assert_eq!(b.held(), 1);
        assert_eq!(accept(&mut b, a, z, 3, 3), vec![3, 4]);
        assert_eq!(b.held(), 0);
        assert!(b.quiet());
    }

    #[test]
    fn in_order_arrival_after_a_cancel_skips_the_burnt_slot() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for _ in 0..5 {
            b.next_seq(a, z);
        }
        // 0 burnt while next: skipped at once, so 1 is in order.
        assert!(cancel(&mut b, a, z, 0).is_empty());
        assert_eq!(accept(&mut b, a, z, 1, 1), vec![1]);
        // 3 burnt ahead of 2: releasing 2 steps over it, so 4 is in order.
        assert!(cancel(&mut b, a, z, 3).is_empty());
        assert_eq!(accept(&mut b, a, z, 2, 2), vec![2]);
        assert_eq!(b.held(), 0);
        assert_eq!(accept(&mut b, a, z, 4, 4), vec![4]);
        assert_eq!(b.held(), 0);
        assert!(b.quiet(), "a spent pair drops its waiting state");
    }

    #[test]
    fn arrival_for_a_cancelled_slot_is_released_in_order() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for _ in 0..3 {
            b.next_seq(a, z);
        }
        // 1 is burnt ahead of time, then arrives anyway: it is held like
        // any early arrival and goes out behind 0.
        assert!(cancel(&mut b, a, z, 1).is_empty());
        assert!(accept(&mut b, a, z, 1, 1).is_empty());
        assert_eq!(b.held(), 1);
        assert_eq!(accept(&mut b, a, z, 0, 0), vec![0, 1]);
        assert_eq!(b.held(), 0);
        assert!(b.quiet());
        assert_eq!(accept(&mut b, a, z, 2, 2), vec![2]);
    }

    #[test]
    fn duplicate_of_a_released_message_is_dropped() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for _ in 0..3 {
            b.next_seq(a, z);
        }
        assert_eq!(accept(&mut b, a, z, 0, 0), vec![0]);
        assert!(accept(&mut b, a, z, 2, 2).is_empty());
        // 0 again, released already: nothing goes out and 2 stays held.
        assert!(accept(&mut b, a, z, 0, 0).is_empty());
        assert_eq!(b.held(), 1);
        assert_eq!(accept(&mut b, a, z, 1, 1), vec![1, 2]);
        assert!(accept(&mut b, a, z, 1, 1).is_empty());
        assert_eq!(b.held(), 0);
        assert!(b.quiet());
    }
}
