//! Runtime state of hosts.
//!
//! Each MSS keeps the list of MHs local to its cell plus the "disconnected"
//! flags required by the model: when an MH disconnects, its last MSS marks it
//! so that a later search can be answered with the disconnected status.

use crate::ids::{DenseId, MhId, MssId};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;
use std::marker::PhantomData;

/// An uplink message buffered while its sender is between cells.
#[derive(Debug, Clone)]
pub enum OutMsg<M> {
    /// A plain uplink payload for the (next) local MSS.
    Plain(M),
    /// An MH→MH payload that the local MSS must search-forward, carrying its
    /// logical-FIFO sequence number.
    ToMh {
        /// Final destination.
        dst: MhId,
        /// Per-pair sequence number assigned at send time.
        seq: u64,
        /// Payload.
        msg: M,
    },
}

/// Connectivity status of a mobile host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MhStatus {
    /// Attached to a cell and reachable.
    Connected,
    /// Has sent `leave(r)` and not yet joined a new cell.
    BetweenCells,
    /// Has sent `disconnect(r)`; may reconnect later.
    Disconnected,
}

/// Per-MH kernel state.
#[derive(Debug, Clone)]
pub struct MhState<M> {
    /// Current cell, when connected.
    pub cell: Option<MssId>,
    /// Connectivity status.
    pub status: MhStatus,
    /// Whether the MH is in doze mode (deliveries still succeed but count as
    /// interruptions).
    pub dozing: bool,
    /// Incremented on every leave/disconnect; wireless downlink deliveries
    /// carry the epoch they were sent under and are dropped when stale
    /// (prefix-delivery semantics).
    pub epoch: u64,
    /// The id of the cell the MH most recently left (supplied with `join()`
    /// / `reconnect()` when the configuration says so).
    pub prev_cell: Option<MssId>,
    /// Home base cell for locality-biased mobility.
    pub home: MssId,
    /// MSS holding this MH's "disconnected" flag, if disconnected.
    pub disconnected_at: Option<MssId>,
    /// Uplink messages issued while between cells, flushed on join.
    pub outbox: VecDeque<OutMsg<M>>,
    /// Messages received on the current cell's downlink (the `r` of
    /// `leave(r)`).
    pub down_received: u64,
    /// Messages sent on the current cell's downlink.
    pub down_sent: u64,
}

impl<M> MhState<M> {
    /// A freshly-connected MH in `cell` with the given home base.
    pub fn new(cell: MssId, home: MssId) -> Self {
        MhState {
            cell: Some(cell),
            status: MhStatus::Connected,
            dozing: false,
            epoch: 0,
            prev_cell: None,
            home,
            disconnected_at: None,
            outbox: VecDeque::new(),
            down_received: 0,
            down_sent: 0,
        }
    }

    /// Zeroes the per-dwell downlink counters (on every leave/join: the `r`
    /// of `leave(r)` restarts per cell).
    pub(crate) fn reset_down_counts(&mut self) {
        self.down_received = 0;
        self.down_sent = 0;
    }
}

/// A set of dense ids (MH ids unless said otherwise), stored as a bitmap.
///
/// Ids are small dense integers, so membership tests and the
/// every-broadcast iteration the kernel performs are word operations instead
/// of `BTreeSet` pointer chases. Iteration order is ascending id — the same
/// deterministic order the tree set gave, so event ordering is unaffected.
/// [`IdMap`](crate::ids::IdMap) is the map counterpart.
#[derive(Clone)]
pub struct HostSet<K = MhId> {
    words: Vec<u64>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K> Default for HostSet<K> {
    fn default() -> Self {
        HostSet {
            words: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseId> HostSet<K> {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id`; returns `true` when it was not already present.
    pub fn insert(&mut self, id: K) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & (1u64 << b) == 0;
        self.words[w] |= 1u64 << b;
        self.len += fresh as usize;
        fresh
    }

    /// Removes `id`; returns `true` when it was present.
    pub fn remove(&mut self, id: &K) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        match self.words.get_mut(w) {
            Some(word) if *word & (1u64 << b) != 0 => {
                *word &= !(1u64 << b);
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// True when `id` is a member.
    pub fn contains(&self, id: &K) -> bool {
        self.words
            .get(id.index() / 64)
            .is_some_and(|w| w & (1u64 << (id.index() % 64)) != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no member.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes all members, retaining the bitmap allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> HostSetIter<'_, K> {
        HostSetIter {
            words: &self.words,
            word_idx: 0,
            bits: self.words.first().copied().unwrap_or(0),
            _key: PhantomData,
        }
    }
}

impl<'a, K: DenseId> IntoIterator for &'a HostSet<K> {
    type Item = K;
    type IntoIter = HostSetIter<'a, K>;
    fn into_iter(self) -> HostSetIter<'a, K> {
        self.iter()
    }
}

impl<K: DenseId> FromIterator<K> for HostSet<K> {
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        let mut set = HostSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

/// Equal when the members are the same, whatever either bitmap's allocated
/// length.
impl<K> PartialEq for HostSet<K> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|w| *w == 0)
    }
}

impl<K: DenseId + Ord> PartialEq<BTreeSet<K>> for HostSet<K> {
    fn eq(&self, other: &BTreeSet<K>) -> bool {
        self.len == other.len() && self.iter().all(|id| other.contains(&id))
    }
}

impl<K: DenseId + fmt::Debug> fmt::Debug for HostSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Ascending-id iterator over a [`HostSet`].
#[derive(Debug)]
pub struct HostSetIter<'a, K = MhId> {
    words: &'a [u64],
    word_idx: usize,
    bits: u64,
    _key: PhantomData<K>,
}

impl<K: DenseId> Iterator for HostSetIter<'_, K> {
    type Item = K;

    fn next(&mut self) -> Option<K> {
        while self.bits == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word_idx];
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(K::from_index(self.word_idx * 64 + b))
    }
}

/// Per-MSS kernel state.
#[derive(Debug, Clone, Default)]
pub struct MssState {
    /// MHs that have identified themselves with this MSS (the paper's list
    /// of local MH ids).
    pub local: HostSet,
    /// MHs whose "disconnected" flag is set at this MSS.
    pub disconnected_here: HostSet,
}

impl MssState {
    /// True when `mh` is local to this cell.
    pub fn has_local(&self, mh: MhId) -> bool {
        self.local.contains(&mh)
    }

    /// Empties both sets, retaining allocations.
    pub fn clear(&mut self) {
        self.local.clear();
        self.disconnected_here.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_set_basics() {
        let mut s = HostSet::new();
        assert!(s.is_empty());
        assert!(s.insert(MhId(3)));
        assert!(s.insert(MhId(130)));
        assert!(s.insert(MhId(0)));
        assert!(!s.insert(MhId(3)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(&MhId(130)));
        assert!(!s.contains(&MhId(131)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![MhId(0), MhId(3), MhId(130)]
        );
        assert!(s.remove(&MhId(3)));
        assert!(!s.remove(&MhId(3)));
        assert!(!s.remove(&MhId(999)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![MhId(0), MhId(130)]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }

    #[test]
    fn mss_local_list() {
        let mut m = MssState::default();
        assert!(!m.has_local(MhId(1)));
        m.local.insert(MhId(1));
        assert!(m.has_local(MhId(1)));
        m.local.remove(&MhId(1));
        m.disconnected_here.insert(MhId(1));
        assert!(!m.has_local(MhId(1)));
        assert!(m.disconnected_here.contains(&MhId(1)));
    }
}
