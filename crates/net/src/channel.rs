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
//! "additional burden on the underlying network protocols" of L1; the buffer
//! occupancy counter quantifies it.

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
        let mut f = FifoChains {
            num_mss: 0,
            fixed: Vec::new(),
            down: Vec::new(),
            up: Vec::new(),
            recorded: 0,
        };
        f.reset_topology(num_mss, num_mh);
        f
    }

    /// Clears all history and re-sizes for a (possibly different) topology,
    /// retaining the allocations when they already fit.
    pub fn reset_topology(&mut self, num_mss: usize, num_mh: usize) {
        self.num_mss = num_mss;
        self.fixed.clear();
        self.fixed.resize(num_mss * num_mss, SimTime::ZERO);
        self.down.clear();
        self.down.resize(num_mh, SimTime::ZERO);
        self.up.clear();
        self.up.resize(num_mh, SimTime::ZERO);
        self.recorded = 0;
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

/// Per-(source MH, destination MH) sequencing state.
#[derive(Debug, Clone)]
struct PairState<M> {
    next_expected: u64,
    held: BTreeMap<u64, M>,
    /// Sequence numbers the transport aborted (e.g. the destination was
    /// disconnected); skipped rather than waited for.
    cancelled: BTreeSet<u64>,
}

impl<M> Default for PairState<M> {
    fn default() -> Self {
        PairState {
            next_expected: 0,
            held: BTreeMap::new(),
            cancelled: BTreeSet::new(),
        }
    }
}

impl<M> PairState<M> {
    /// Releases every in-order message, skipping cancelled slots. Returns
    /// `(released, held_delta)` where `held_delta` is how many held entries
    /// were drained.
    fn drain(&mut self) -> (Vec<M>, usize) {
        let mut out = Vec::new();
        let mut drained = 0;
        loop {
            if let Some(m) = self.held.remove(&self.next_expected) {
                self.next_expected += 1;
                drained += 1;
                out.push(m);
            } else if self.cancelled.remove(&self.next_expected) {
                self.next_expected += 1;
            } else {
                break;
            }
        }
        (out, drained)
    }
}

/// End-to-end reorder buffers realising logical FIFO channels between MH
/// pairs.
///
/// The sender side assigns a per-pair sequence number with [`next_seq`]; the
/// receiver side passes arrivals to [`accept`], which returns the messages
/// now deliverable, in order.
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
/// assert_eq!(b.accept(a, z, s1, "second"), Vec::<&str>::new()); // held back
/// assert_eq!(b.accept(a, z, s0, "first"), vec!["first", "second"]);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffers<M> {
    // Keyed lookups only — never iterated (see FifoChains::last).
    tx_seq: FxHashMap<(MhId, MhId), u64>,
    rx: FxHashMap<(MhId, MhId), PairState<M>>,
    /// Messages held back waiting for a predecessor, over all pairs.
    currently_held: usize,
}

impl<M> Default for ReorderBuffers<M> {
    fn default() -> Self {
        ReorderBuffers {
            tx_seq: FxHashMap::default(),
            rx: FxHashMap::default(),
            currently_held: 0,
        }
    }
}

impl<M> ReorderBuffers<M> {
    /// Allocates the next sequence number for the `src → dst` pair.
    pub fn next_seq(&mut self, src: MhId, dst: MhId) -> u64 {
        let c = self.tx_seq.entry((src, dst)).or_insert(0);
        let s = *c;
        *c += 1;
        s
    }

    /// Accepts an arrival and returns every message now deliverable in send
    /// order (empty if `seq` is ahead of the next expected message).
    ///
    /// Duplicate or already-delivered sequence numbers are ignored.
    pub fn accept(&mut self, src: MhId, dst: MhId, seq: u64, msg: M) -> Vec<M> {
        let st = self.rx.entry((src, dst)).or_default();
        if seq < st.next_expected || st.held.contains_key(&seq) {
            return Vec::new(); // duplicate
        }
        st.held.insert(seq, msg);
        self.currently_held += 1;
        let (out, drained) = st.drain();
        self.currently_held -= drained;
        out
    }

    /// Marks `seq` as aborted by the transport (its message will never
    /// arrive) and returns any successors that become deliverable.
    pub fn cancel(&mut self, src: MhId, dst: MhId, seq: u64) -> Vec<M> {
        let st = self.rx.entry((src, dst)).or_default();
        if seq < st.next_expected {
            return Vec::new(); // already delivered or skipped
        }
        st.cancelled.insert(seq);
        let (out, drained) = st.drain();
        self.currently_held -= drained;
        out
    }

    /// Messages currently held back waiting for a predecessor.
    pub fn held(&self) -> usize {
        self.currently_held
    }

    /// Forgets all sequencing state and statistics, retaining the map
    /// allocations for reuse.
    pub fn clear(&mut self) {
        self.tx_seq.clear();
        self.rx.clear();
        self.currently_held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reset_topology_clears_history() {
        let mut f = FifoChains::new(2, 2);
        f.schedule(ChainKey::Up(MhId(1), MssId(0)), SimTime::from_ticks(9));
        f.schedule(ChainKey::Fixed(MssId(1), MssId(0)), SimTime::from_ticks(9));
        assert_eq!(f.len(), 2);
        f.reset_topology(4, 8);
        assert!(f.is_empty());
        // Larger topology is addressable after the reset.
        assert_eq!(
            f.schedule(ChainKey::Fixed(MssId(3), MssId(2)), SimTime::from_ticks(1))
                .ticks(),
            1
        );
        assert_eq!(
            f.schedule(ChainKey::Down(MssId(0), MhId(7)), SimTime::from_ticks(1))
                .ticks(),
            1
        );
    }

    #[test]
    fn reorder_clear_forgets_everything() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s0 = b.next_seq(a, z);
        let s1 = b.next_seq(a, z);
        assert!(b.accept(a, z, s1, 1).is_empty());
        b.clear();
        assert_eq!(b.held(), 0);
        // Sequence numbers restart, as on a fresh buffer.
        assert_eq!(b.next_seq(a, z), 0);
        assert_eq!(b.accept(a, z, s0, 0), vec![0]);
    }

    #[test]
    fn reorder_in_order_passthrough() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        for i in 0..5u64 {
            let s = b.next_seq(a, z);
            assert_eq!(s, i);
            assert_eq!(b.accept(a, z, s, i as u32), vec![i as u32]);
        }
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn reorder_releases_in_send_order() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(2), MhId(3));
        let s: Vec<u64> = (0..4).map(|_| b.next_seq(a, z)).collect();
        assert!(b.accept(a, z, s[2], 2).is_empty());
        assert!(b.accept(a, z, s[1], 1).is_empty());
        assert_eq!(b.held(), 2);
        assert_eq!(b.accept(a, z, s[0], 0), vec![0, 1, 2]);
        assert_eq!(b.accept(a, z, s[3], 3), vec![3]);
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn reorder_ignores_duplicates() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s0 = b.next_seq(a, z);
        assert_eq!(b.accept(a, z, s0, 7), vec![7]);
        assert!(b.accept(a, z, s0, 7).is_empty());
    }

    #[test]
    fn pairs_are_independent_and_directed() {
        let mut b: ReorderBuffers<u32> = ReorderBuffers::default();
        let (a, z) = (MhId(0), MhId(1));
        let s_az = b.next_seq(a, z);
        let s_za = b.next_seq(z, a);
        assert_eq!(s_az, 0);
        assert_eq!(s_za, 0);
        assert_eq!(b.accept(z, a, s_za, 9), vec![9]);
        assert_eq!(b.accept(a, z, s_az, 8), vec![8]);
    }
}
