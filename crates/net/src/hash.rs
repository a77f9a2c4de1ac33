//! Fast, deterministic hashing for kernel-internal maps.
//!
//! `std`'s default hasher (SipHash-1-3 with per-process random keys) is
//! DoS-resistant but costs ~2–3× more per lookup than the kernel needs for
//! its small fixed-width keys ([`ChainKey`](crate::channel::ChainKey),
//! `(MhId, MhId)` pairs). [`FxHasher`] is an in-repo implementation of the
//! multiply-rotate scheme used by rustc's `FxHash`: a few cycles per word,
//! **no random state** — so hash maps behave identically in every process,
//! which the determinism guarantees of the simulator require whenever a map
//! is iterated.
//!
//! Only use these maps for keyed lookup or with sorted iteration; anything
//! whose iteration order can influence event ordering must stay on
//! `BTreeMap`/`BTreeSet` (see DESIGN.md, "Performance architecture").

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over native words (the rustc `FxHash` scheme).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Zero-sized `BuildHasher` producing [`FxHasher`]s (no random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"chain"), hash_of(&"chain"));
        assert_eq!(hash_of(&(7u32, 9u32, 1u8)), hash_of(&(7u32, 9u32, 1u8)));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&(0u32, 1u32)), hash_of(&(1u32, 0u32)));
    }

    #[test]
    fn byte_stream_tail_handled() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Zero-padded tail must still distinguish lengths going through
        // the map API (Hash impls write length separately), but raw writes
        // of padded vs unpadded bytes may collide — only assert stability.
        let mut a2 = FxHasher::default();
        a2.write(&[1, 2, 3]);
        assert_eq!(a.finish(), a2.finish());
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert((i, i + 1), i as u64);
        }
        for i in 0..100u32 {
            assert_eq!(m.get(&(i, i + 1)), Some(&(i as u64)));
        }
    }
}
