//! Canonical run fingerprints for content-addressed memoization.
//!
//! Every simulation run in this workspace is a pure function of its
//! canonical descriptor — the [`NetworkConfig`], the workload, the
//! algorithm tag and any tuning knobs — so a *stable 128-bit fingerprint*
//! of that descriptor identifies the run's entire observable outcome
//! (report, ledger, derived statistics). The `runcache` crate keys its
//! content-addressed store on these fingerprints.
//!
//! # Canonical hashing
//!
//! [`CanonHash`] is deliberately separate from `std::hash::Hash`:
//!
//! * the digest must be **stable across processes, platforms and
//!   compilations** — `std`'s `Hash` makes no such promise (layout changes,
//!   `SipHash` keys, prefix-freedom details are all unspecified);
//! * every value is reduced to an explicit little-endian word stream with
//!   length prefixes for variable-width data and discriminant tags for
//!   enums, so the encoding is prefix-free by construction;
//! * `f64` fields hash their IEEE-754 bit pattern ([`f64::to_bits`]),
//!   making `-0.0` ≠ `0.0` — fine for a cache key (a false mismatch only
//!   costs a recompute, never a wrong hit).
//!
//! The 128-bit width comes from two independently-seeded multiply-rotate
//! lanes (the same scheme as [`FxHasher`](crate::hash::FxHasher)). Each
//! lane alone is a weak 64-bit mixer; together they make accidental
//! collisions across the few thousand descriptors a sweep produces
//! astronomically unlikely, while staying allocation-free and dependency-
//! free.
//!
//! # Version salt
//!
//! [`KERNEL_VERSION_SALT`] folds the simulator's *behaviour version* into
//! every fingerprint. Any change that can alter the event stream or the
//! ledger of some run — RNG draw order, event scheduling, cost charging,
//! protocol logic — **must bump the salt**, which atomically invalidates
//! every previously cached result (old records are simply never looked up
//! again; they are content-addressed, not versioned in place). Changes
//! that cannot affect results (docs, new accessors, faster containers with
//! identical iteration order) must leave it alone so caches survive.
//!
//! # Examples
//!
//! ```
//! use mobidist_net::fingerprint::{CanonHash, Fingerprint};
//! use mobidist_net::config::NetworkConfig;
//!
//! let a = Fingerprint::of(&("l1", NetworkConfig::new(4, 8).with_seed(7), 50u64));
//! let b = Fingerprint::of(&("l1", NetworkConfig::new(4, 8).with_seed(7), 50u64));
//! let c = Fingerprint::of(&("l1", NetworkConfig::new(4, 8).with_seed(8), 50u64));
//! assert_eq!(a, b);
//! assert_ne!(a, c);
//! assert_eq!(a.to_hex().len(), 32);
//! assert_eq!(Fingerprint::from_hex(&a.to_hex()), Some(a));
//! ```

use crate::config::{DeliveryMode, LatencyConfig, NetworkConfig, Placement};
use crate::cost::{CostModel, EnergyModel};
use crate::ids::{GroupId, MhId, MssId};
use crate::latency::LatencyModel;
use crate::mobility::{DisconnectConfig, MobilityConfig, MovePattern};
use crate::search::SearchPolicy;

/// Behaviour version of the simulation kernel, folded into every
/// [`Fingerprint`].
///
/// Bump this on **any behaviour-affecting change** — anything that could
/// alter the event stream, the ledger, or a report of at least one run:
/// RNG sequencing, event scheduling, charging rules, protocol or harness
/// logic, default parameters. Doc, API-surface and pure-performance
/// changes with bit-identical results keep the salt. The policy is
/// documented in DESIGN.md ("Run cache").
pub const KERNEL_VERSION_SALT: u64 = 5;

const LANE0_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const LANE1_SEED: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// A stable 128-bit content fingerprint of a canonical run descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    /// High 64 bits (lane 0).
    pub hi: u64,
    /// Low 64 bits (lane 1).
    pub lo: u64,
}

impl Fingerprint {
    /// Fingerprints `value`, folding in [`KERNEL_VERSION_SALT`].
    pub fn of(value: &impl CanonHash) -> Self {
        let mut h = CanonHasher::new();
        h.write_u64(KERNEL_VERSION_SALT);
        value.canon_hash(&mut h);
        h.finish()
    }

    /// Lower-case 32-character hex form (`hi` then `lo`), used as the
    /// on-disk record name by the run cache.
    pub fn to_hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the [`to_hex`](Self::to_hex) form back; `None` unless the
    /// input is exactly 32 lower-case hex digits.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32
            || !s
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        {
            return None;
        }
        Some(Fingerprint {
            hi: u64::from_str_radix(&s[..16], 16).ok()?,
            lo: u64::from_str_radix(&s[16..], 16).ok()?,
        })
    }
}

/// Two-lane multiply-rotate hasher producing a [`Fingerprint`].
///
/// Not a `std::hash::Hasher`: values feed it through [`CanonHash`], which
/// fixes the encoding instead of inheriting `Hash`'s unspecified one.
#[derive(Debug, Clone, Copy)]
pub struct CanonHasher {
    lane0: u64,
    lane1: u64,
}

impl CanonHasher {
    /// A fresh hasher (no salt mixed in; [`Fingerprint::of`] adds it).
    pub fn new() -> Self {
        CanonHasher { lane0: 0, lane1: 0 }
    }

    /// Feeds one 64-bit word to both lanes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.lane0 = (self.lane0.rotate_left(5) ^ word).wrapping_mul(LANE0_SEED);
        self.lane1 = (self.lane1.rotate_left(23) ^ word).wrapping_mul(LANE1_SEED);
    }

    /// Feeds raw bytes: a length prefix, then zero-padded LE words, so the
    /// stream stays prefix-free.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.write_u64(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    /// Final 128-bit digest.
    pub fn finish(&self) -> Fingerprint {
        // One extra round per lane so short inputs still avalanche.
        let mut h = *self;
        h.write_u64(0x6d6f_6269_6469_7374); // "mobidist"
        Fingerprint {
            hi: h.lane0,
            lo: h.lane1,
        }
    }
}

impl Default for CanonHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable, explicit reduction of a value to the canonical word stream.
///
/// Implementations must be **total and unambiguous**: two values hash to
/// the same stream iff a simulation could not tell them apart. Enum
/// variants write a discriminant tag before their payload; collections
/// write a length prefix first.
pub trait CanonHash {
    /// Feeds this value's canonical encoding to `h`.
    fn canon_hash(&self, h: &mut CanonHasher);
}

impl CanonHash for u64 {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(*self);
    }
}

impl CanonHash for u32 {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(*self as u64);
    }
}

impl CanonHash for usize {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(*self as u64);
    }
}

impl CanonHash for bool {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(*self as u64);
    }
}

impl CanonHash for f64 {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(self.to_bits());
    }
}

impl CanonHash for str {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_bytes(self.as_bytes());
    }
}

impl CanonHash for String {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_bytes(self.as_bytes());
    }
}

impl<T: CanonHash> CanonHash for [T] {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.canon_hash(h);
        }
    }
}

impl<T: CanonHash> CanonHash for Vec<T> {
    fn canon_hash(&self, h: &mut CanonHasher) {
        self.as_slice().canon_hash(h);
    }
}

impl<T: CanonHash> CanonHash for Option<T> {
    fn canon_hash(&self, h: &mut CanonHasher) {
        match self {
            None => h.write_u64(0),
            Some(v) => {
                h.write_u64(1);
                v.canon_hash(h);
            }
        }
    }
}

impl<T: CanonHash + ?Sized> CanonHash for &T {
    fn canon_hash(&self, h: &mut CanonHasher) {
        (*self).canon_hash(h);
    }
}

macro_rules! canon_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: CanonHash),+> CanonHash for ($($name,)+) {
            fn canon_hash(&self, h: &mut CanonHasher) {
                $(self.$idx.canon_hash(h);)+
            }
        }
    };
}

canon_tuple!(A: 0);
canon_tuple!(A: 0, B: 1);
canon_tuple!(A: 0, B: 1, C: 2);
canon_tuple!(A: 0, B: 1, C: 2, D: 3);
canon_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);
canon_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

impl CanonHash for MhId {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(self.0 as u64);
    }
}

impl CanonHash for MssId {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(self.0 as u64);
    }
}

impl CanonHash for GroupId {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(self.0 as u64);
    }
}

impl CanonHash for CostModel {
    fn canon_hash(&self, h: &mut CanonHasher) {
        let CostModel {
            c_fixed,
            c_wireless,
            c_search,
        } = *self;
        h.write_u64(c_fixed);
        h.write_u64(c_wireless);
        h.write_u64(c_search);
    }
}

impl CanonHash for EnergyModel {
    fn canon_hash(&self, h: &mut CanonHasher) {
        let EnergyModel { tx, rx } = *self;
        h.write_u64(tx);
        h.write_u64(rx);
    }
}

impl CanonHash for LatencyModel {
    fn canon_hash(&self, h: &mut CanonHasher) {
        match *self {
            LatencyModel::Fixed(v) => {
                h.write_u64(0);
                h.write_u64(v);
            }
            LatencyModel::Uniform { lo, hi } => {
                h.write_u64(1);
                h.write_u64(lo);
                h.write_u64(hi);
            }
            LatencyModel::Exp { mean } => {
                h.write_u64(2);
                h.write_u64(mean);
            }
        }
    }
}

impl CanonHash for LatencyConfig {
    fn canon_hash(&self, h: &mut CanonHasher) {
        let LatencyConfig {
            fixed,
            wireless,
            search,
        } = *self;
        fixed.canon_hash(h);
        wireless.canon_hash(h);
        search.canon_hash(h);
    }
}

impl CanonHash for SearchPolicy {
    fn canon_hash(&self, h: &mut CanonHasher) {
        h.write_u64(match self {
            SearchPolicy::Oracle => 0,
            SearchPolicy::Flood => 1,
            SearchPolicy::HomeAgent => 2,
        });
    }
}

impl CanonHash for MovePattern {
    fn canon_hash(&self, h: &mut CanonHasher) {
        match *self {
            MovePattern::UniformRandom => h.write_u64(0),
            MovePattern::Locality { p_local, home_span } => {
                h.write_u64(1);
                p_local.canon_hash(h);
                h.write_u64(home_span as u64);
            }
            MovePattern::RandomWaypoint { leg } => {
                h.write_u64(2);
                h.write_u64(leg as u64);
            }
            MovePattern::GaussMarkov { memory } => {
                h.write_u64(3);
                memory.canon_hash(h);
            }
            MovePattern::GroupPlatoon { groups, p_follow } => {
                h.write_u64(4);
                h.write_u64(groups as u64);
                p_follow.canon_hash(h);
            }
        }
    }
}

impl CanonHash for MobilityConfig {
    fn canon_hash(&self, h: &mut CanonHasher) {
        let MobilityConfig {
            enabled,
            mean_dwell,
            mean_gap,
            pattern,
        } = *self;
        enabled.canon_hash(h);
        h.write_u64(mean_dwell);
        h.write_u64(mean_gap);
        pattern.canon_hash(h);
    }
}

impl CanonHash for DisconnectConfig {
    fn canon_hash(&self, h: &mut CanonHasher) {
        let DisconnectConfig {
            enabled,
            mean_uptime,
            mean_downtime,
            p_supply_prev,
        } = *self;
        enabled.canon_hash(h);
        h.write_u64(mean_uptime);
        h.write_u64(mean_downtime);
        p_supply_prev.canon_hash(h);
    }
}

impl CanonHash for Placement {
    fn canon_hash(&self, h: &mut CanonHasher) {
        match *self {
            Placement::RoundRobin => h.write_u64(0),
            Placement::Random => h.write_u64(1),
            Placement::Clustered { cells } => {
                h.write_u64(2);
                h.write_u64(cells as u64);
            }
        }
    }
}

impl CanonHash for DeliveryMode {
    fn canon_hash(&self, h: &mut CanonHasher) {
        // The batched engine and the per-event reference are proven
        // byte-identical by the delivery equivalence tests, but they are
        // hashed apart anyway: a test that runs both through one run cache
        // must recompute the second, not replay the first's records.
        h.write_u64(match self {
            DeliveryMode::Batched => 0,
            DeliveryMode::Unbatched => 1,
        });
    }
}

impl CanonHash for NetworkConfig {
    fn canon_hash(&self, h: &mut CanonHasher) {
        // Destructured so adding a config field without extending the
        // fingerprint is a compile error (a silently un-hashed field would
        // make the cache return results for the wrong configuration).
        let NetworkConfig {
            num_mss,
            num_mh,
            cost,
            energy,
            latency,
            search,
            mobility,
            disconnect,
            fault,
            placement,
            delivery,
            supply_prev_on_join,
            seed,
        } = self;
        h.write_u64(*num_mss as u64);
        h.write_u64(*num_mh as u64);
        cost.canon_hash(h);
        energy.canon_hash(h);
        latency.canon_hash(h);
        search.canon_hash(h);
        mobility.canon_hash(h);
        disconnect.canon_hash(h);
        fault.canon_hash(h);
        placement.canon_hash(h);
        delivery.canon_hash(h);
        supply_prev_on_join.canon_hash(h);
        h.write_u64(*seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(v: &impl CanonHash) -> Fingerprint {
        Fingerprint::of(v)
    }

    #[test]
    fn identical_configs_agree() {
        let a = NetworkConfig::new(8, 32).with_seed(9);
        let b = NetworkConfig::new(8, 32).with_seed(9);
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn every_config_knob_changes_the_fingerprint() {
        let base = NetworkConfig::new(8, 32).with_seed(9);
        let variants = vec![
            NetworkConfig::new(9, 32).with_seed(9),
            NetworkConfig::new(8, 33).with_seed(9),
            base.clone().with_seed(10),
            base.clone().with_cost(CostModel::new(1, 10, 6)),
            base.clone().with_search(SearchPolicy::Flood),
            base.clone().with_search(SearchPolicy::HomeAgent),
            base.clone().with_mobility(MobilityConfig::moving(100)),
            base.clone().with_mobility(
                MobilityConfig::moving(100).with_pattern(MovePattern::RandomWaypoint { leg: 4 }),
            ),
            base.clone().with_mobility(
                MobilityConfig::moving(100).with_pattern(MovePattern::GaussMarkov { memory: 0.8 }),
            ),
            base.clone()
                .with_mobility(MobilityConfig::moving(100).with_pattern(
                    MovePattern::GroupPlatoon {
                        groups: 4,
                        p_follow: 0.9,
                    },
                )),
            base.clone()
                .with_fault(crate::fault::FaultConfig::none().with_event(
                    50,
                    crate::fault::FaultKind::MssCrash {
                        mss: 0,
                        down_for: 10,
                    },
                )),
            base.clone()
                .with_fault(crate::fault::FaultConfig::none().with_event(
                    50,
                    crate::fault::FaultKind::Partition {
                        cut: 4,
                        heal_after: 10,
                    },
                )),
            base.clone().with_fault(
                crate::fault::FaultConfig::none()
                    .with_event(50, crate::fault::FaultKind::HandoffStorm { count: 8 }),
            ),
            base.clone().with_disconnect(DisconnectConfig {
                enabled: true,
                ..DisconnectConfig::default()
            }),
            base.clone()
                .with_placement(Placement::Clustered { cells: 2 }),
            base.clone().with_placement(Placement::Random),
            base.clone().with_latency(LatencyConfig {
                fixed: LatencyModel::Exp { mean: 5 },
                ..LatencyConfig::default()
            }),
            base.clone().with_delivery(match base.delivery {
                DeliveryMode::Batched => DeliveryMode::Unbatched,
                DeliveryMode::Unbatched => DeliveryMode::Batched,
            }),
        ];
        let mut seen = vec![fp(&base)];
        for v in &variants {
            let f = fp(v);
            assert!(!seen.contains(&f), "collision for {v:?}");
            seen.push(f);
        }
    }

    #[test]
    fn labels_and_params_separate_runs() {
        let cfg = NetworkConfig::new(4, 8);
        let a = fp(&("l1", cfg.clone(), 1u64));
        let b = fp(&("l2", cfg.clone(), 1u64));
        let c = fp(&("l1", cfg, 2u64));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prefix_freedom_of_variable_width_data() {
        // ("ab", "c") must not collide with ("a", "bc").
        let a = fp(&("ab", "c"));
        let b = fp(&("a", "bc"));
        assert_ne!(a, b);
        // Vec length prefixes: [1, 2] + [] vs [1] + [2].
        let c = fp(&(vec![1u64, 2], Vec::<u64>::new()));
        let d = fp(&(vec![1u64], vec![2u64]));
        assert_ne!(c, d);
    }

    #[test]
    fn hex_round_trip() {
        let f = fp(&NetworkConfig::new(3, 5));
        assert_eq!(Fingerprint::from_hex(&f.to_hex()), Some(f));
        assert_eq!(Fingerprint::from_hex("zz"), None);
        assert_eq!(Fingerprint::from_hex(&"A".repeat(32)), None); // upper-case rejected
    }

    #[test]
    fn option_none_differs_from_some_zero() {
        assert_ne!(fp(&Option::<u64>::None), fp(&Some(0u64)));
    }
}
