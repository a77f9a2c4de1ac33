//! Strongly-typed identifiers for the entities of the two-tier system model.
//!
//! The paper's model has two kinds of hosts: *mobile support stations* (MSSs,
//! the fixed hosts of the wired network) and *mobile hosts* (MHs) that attach
//! to one cell — one MSS — at a time. Newtypes keep the two id spaces from
//! being confused at compile time ([C-NEWTYPE]).
//!
//! Both id spaces are dense (`0..M`, `0..N`), so per-id protocol state lives
//! in an [`IdMap`] — a flat table indexed by the id — rather than in a tree.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Index;

/// An identifier drawn from a dense range `0..n`, usable as a table index.
pub trait DenseId: Copy {
    /// The id with dense index `index`.
    fn from_index(index: usize) -> Self;
    /// The id as a dense `usize` index.
    fn index(self) -> usize;
}

/// Identifier of a mobile support station (fixed host).
///
/// MSSs are numbered densely from `0..M`; the numbering doubles as the ring
/// order used by the token-ring algorithms.
///
/// # Examples
///
/// ```
/// use mobidist_net::ids::MssId;
/// let m = MssId(3);
/// assert_eq!(m.index(), 3);
/// assert_eq!(m.to_string(), "mss3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MssId(pub u32);

impl MssId {
    /// The id as a dense `usize` index into per-MSS tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DenseId for MssId {
    #[inline]
    fn from_index(index: usize) -> Self {
        MssId(index as u32)
    }
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MssId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mss{}", self.0)
    }
}

impl From<u32> for MssId {
    fn from(v: u32) -> Self {
        MssId(v)
    }
}

/// Identifier of a mobile host.
///
/// MHs are numbered densely from `0..N`.
///
/// # Examples
///
/// ```
/// use mobidist_net::ids::MhId;
/// let h = MhId(17);
/// assert_eq!(h.index(), 17);
/// assert_eq!(h.to_string(), "mh17");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MhId(pub u32);

impl MhId {
    /// The id as a dense `usize` index into per-MH tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DenseId for MhId {
    #[inline]
    fn from_index(index: usize) -> Self {
        MhId(index as u32)
    }
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MhId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mh{}", self.0)
    }
}

impl From<u32> for MhId {
    fn from(v: u32) -> Self {
        MhId(v)
    }
}

/// A map keyed by a [`DenseId`], stored as a flat table indexed by the id.
///
/// The drop-in replacement for `BTreeMap<MssId, V>` / `BTreeMap<MhId, V>`:
/// lookups are one bounds-checked array read instead of a tree descent, and
/// iteration is in ascending id order — exactly the tree's order, so
/// replacing one with the other leaves every run bit-identical. The table
/// grows on insert to the largest id seen, so it suits ids that really are
/// dense; [`HostSet`](crate::host::HostSet) is the set counterpart.
///
/// # Examples
///
/// ```
/// use mobidist_net::ids::{IdMap, MhId};
/// let mut m = IdMap::new();
/// m.insert(MhId(5), "five");
/// m.insert(MhId(1), "one");
/// assert_eq!(m.get(&MhId(5)), Some(&"five"));
/// assert_eq!(m.get(&MhId(2)), None);
/// assert_eq!(m.keys().collect::<Vec<_>>(), vec![MhId(1), MhId(5)]);
/// assert_eq!(m.remove(&MhId(1)), Some("one"));
/// assert_eq!(m.len(), 1);
/// ```
#[derive(Clone)]
pub struct IdMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `value` at `key`, returning the value it replaced, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.slot_mut(key).replace(value);
        self.len += old.is_none() as usize;
        old
    }

    /// The slot of `key`, growing the table to reach it.
    fn slot_mut(&mut self, key: K) -> &mut Option<V> {
        let i = key.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// The value at `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// The value at `key`, mutably, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// The value at `key`, inserting `default()` first when absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if !self.contains_key(&key) {
            self.len += 1;
        }
        self.slot_mut(key).get_or_insert_with(default)
    }

    /// Removes and returns the value at `key`, if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let old = self.slots.get_mut(key.index())?.take();
        self.len -= old.is_some() as usize;
        old
    }

    /// True when `key` has a value.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(key, &value)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (K::from_index(i), v)))
    }

    /// Iterates the keys present, ascending.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.slots.iter().flatten()
    }
}

impl<K: DenseId, V> Index<&K> for IdMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `key` is absent.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry for this id")
    }
}

impl<K: DenseId, V> FromIterator<(K, V)> for IdMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = IdMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K: DenseId, V> IntoIterator for IdMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::iter::FilterMap<
        std::iter::Enumerate<std::vec::IntoIter<Option<V>>>,
        fn((usize, Option<V>)) -> Option<(K, V)>,
    >;

    /// Consumes the map, yielding `(key, value)` in ascending key order.
    fn into_iter(self) -> Self::IntoIter {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (K::from_index(i), v)))
    }
}

/// Equal when the same keys map to equal values, whatever either table's
/// allocated length.
impl<K, V: PartialEq> PartialEq for IdMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.slots.len() <= other.slots.len() {
            (&self.slots, &other.slots)
        } else {
            (&other.slots, &self.slots)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(Option::is_none)
    }
}

impl<K: DenseId + fmt::Debug, V: fmt::Debug> fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Identifier of a process group of mobile hosts (Section 4 of the paper).
///
/// # Examples
///
/// ```
/// use mobidist_net::ids::GroupId;
/// assert_eq!(GroupId(1).to_string(), "grp1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grp{}", self.0)
    }
}

/// Either kind of host — the source or destination of a message.
///
/// # Examples
///
/// ```
/// use mobidist_net::ids::{Endpoint, MhId, MssId};
/// let e = Endpoint::Mh(MhId(2));
/// assert!(e.as_mh().is_some());
/// assert!(Endpoint::Mss(MssId(0)).as_mss().is_some());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A fixed host / mobile support station.
    Mss(MssId),
    /// A mobile host.
    Mh(MhId),
}

impl Endpoint {
    /// Returns the MSS id if this endpoint is a fixed host.
    pub fn as_mss(self) -> Option<MssId> {
        match self {
            Endpoint::Mss(m) => Some(m),
            Endpoint::Mh(_) => None,
        }
    }

    /// Returns the MH id if this endpoint is a mobile host.
    pub fn as_mh(self) -> Option<MhId> {
        match self {
            Endpoint::Mh(h) => Some(h),
            Endpoint::Mss(_) => None,
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Mss(m) => m.fmt(f),
            Endpoint::Mh(h) => h.fmt(f),
        }
    }
}

impl From<MssId> for Endpoint {
    fn from(m: MssId) -> Self {
        Endpoint::Mss(m)
    }
}

impl From<MhId> for Endpoint {
    fn from(h: MhId) -> Self {
        Endpoint::Mh(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_forms() {
        assert_eq!(MssId(0).to_string(), "mss0");
        assert_eq!(MhId(41).to_string(), "mh41");
        assert_eq!(GroupId(7).to_string(), "grp7");
        assert_eq!(Endpoint::Mh(MhId(1)).to_string(), "mh1");
        assert_eq!(Endpoint::Mss(MssId(2)).to_string(), "mss2");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(MssId(9).index(), 9);
        assert_eq!(MhId(123).index(), 123);
        assert_eq!(MssId::from(4u32), MssId(4));
        assert_eq!(MhId::from(4u32), MhId(4));
    }

    #[test]
    fn endpoint_projections() {
        assert_eq!(Endpoint::Mss(MssId(1)).as_mss(), Some(MssId(1)));
        assert_eq!(Endpoint::Mss(MssId(1)).as_mh(), None);
        assert_eq!(Endpoint::Mh(MhId(2)).as_mh(), Some(MhId(2)));
        assert_eq!(Endpoint::Mh(MhId(2)).as_mss(), None);
        assert_eq!(Endpoint::from(MssId(3)), Endpoint::Mss(MssId(3)));
        assert_eq!(Endpoint::from(MhId(3)), Endpoint::Mh(MhId(3)));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let set: BTreeSet<MhId> = [MhId(3), MhId(1), MhId(2)].into_iter().collect();
        let v: Vec<_> = set.into_iter().collect();
        assert_eq!(v, vec![MhId(1), MhId(2), MhId(3)]);
    }
}
