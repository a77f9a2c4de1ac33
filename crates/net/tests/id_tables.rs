//! Differential tests of the dense id tables against the tree containers
//! they replaced.
//!
//! [`IdMap`] and [`HostSet`] stand in for `BTreeMap<MhId|MssId, _>` and
//! `BTreeSet<MhId|MssId>` throughout the protocol layer, and every run is
//! expected to stay bit-identical across the swap — so each must agree with
//! its tree oracle on every answer *and* on iteration order, under any
//! sequence of operations. The sequences are drawn from the simulator's own
//! [`SimRng`], so every run exercises the identical cases.

use mobidist_net::host::HostSet;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::rng::SimRng;
use std::collections::{BTreeMap, BTreeSet};

/// Ids drawn from `0..span`, with id 0 and the top id over-represented so
/// the table's first slot and its growth/last-element paths are hit often.
fn draw_id(rng: &mut SimRng, span: u64) -> u32 {
    match rng.below(8) {
        0 => 0,
        1 => (span - 1) as u32,
        _ => rng.below(span) as u32,
    }
}

fn assert_same_map(map: &IdMap<MhId, u64>, oracle: &BTreeMap<MhId, u64>, step: u64) {
    assert_eq!(map.len(), oracle.len(), "len at step {step}");
    assert_eq!(map.is_empty(), oracle.is_empty(), "is_empty at step {step}");
    let got: Vec<(MhId, u64)> = map.iter().map(|(k, v)| (k, *v)).collect();
    let want: Vec<(MhId, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "iter order/content at step {step}");
    assert!(map.keys().eq(oracle.keys().copied()), "keys at step {step}");
    assert!(map.values().eq(oracle.values()), "values at step {step}");
}

#[test]
fn id_map_agrees_with_btreemap_under_random_operations() {
    // Dense (span 8), moderate (span 70) and sparse (span 5000) id ranges:
    // the sparse one grows the table far past its initial length and leaves
    // long runs of empty slots for iteration to skip.
    for (case, span) in [8u64, 70, 5000].into_iter().enumerate() {
        let mut rng = SimRng::seed_from(0x1D7A_B1E0 + case as u64);
        let mut map: IdMap<MhId, u64> = IdMap::new();
        let mut oracle: BTreeMap<MhId, u64> = BTreeMap::new();
        for step in 0..4000u64 {
            let key = MhId(draw_id(&mut rng, span));
            match rng.below(7) {
                // insert / overwrite
                0 | 1 => assert_eq!(map.insert(key, step), oracle.insert(key, step)),
                2 => assert_eq!(map.remove(&key), oracle.remove(&key)),
                3 => {
                    assert_eq!(map.get(&key), oracle.get(&key));
                    assert_eq!(map.contains_key(&key), oracle.contains_key(&key));
                }
                4 => {
                    if let Some(v) = map.get_mut(&key) {
                        *v += 1;
                    }
                    if let Some(v) = oracle.get_mut(&key) {
                        *v += 1;
                    }
                }
                5 => {
                    *map.get_or_insert_with(key, || step) += 1;
                    *oracle.entry(key).or_insert(step) += 1;
                }
                // remove the last (largest-id) element
                _ => {
                    let last = oracle.keys().next_back().copied();
                    assert_eq!(map.keys().last(), last);
                    if let Some(last) = last {
                        assert_eq!(map.remove(&last), oracle.remove(&last));
                    }
                }
            }
            if step % 16 == 0 {
                assert_same_map(&map, &oracle, step);
            }
        }
        assert_same_map(&map, &oracle, u64::MAX);
        // Rebuilding from the oracle's pairs gives an equal map even though
        // the survivor's table is longer (it once held larger ids), and
        // consuming it yields the oracle's pairs in the oracle's order.
        let rebuilt: IdMap<MhId, u64> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(map, rebuilt);
        assert!(map.into_iter().eq(oracle));
    }
}

#[test]
fn id_map_corner_cases() {
    let mut m: IdMap<MssId, &str> = IdMap::new();
    assert!(m.is_empty());
    assert_eq!(m.get(&MssId(0)), None);
    assert_eq!(m.remove(&MssId(9)), None, "remove beyond the table");
    assert_eq!(m.insert(MssId(0), "zero"), None);
    assert_eq!(m.insert(MssId(0), "nought"), Some("zero"), "overwrite");
    assert_eq!(m.len(), 1);
    assert_eq!(m[&MssId(0)], "nought");
    assert_eq!(m.insert(MssId(40), "forty"), None, "growth past the length");
    assert_eq!(
        format!("{m:?}"),
        r#"{MssId(0): "nought", MssId(40): "forty"}"#
    );
    assert_eq!(
        m.remove(&MssId(40)),
        Some("forty"),
        "remove the last element"
    );
    assert_eq!(m.keys().collect::<Vec<_>>(), vec![MssId(0)]);
    assert_eq!(m.remove(&MssId(0)), Some("nought"));
    assert!(m.is_empty());
    assert_eq!(m, IdMap::new(), "an emptied table equals a fresh one");
}

#[test]
#[should_panic(expected = "no entry for this id")]
fn id_map_index_of_absent_key_panics() {
    let m: IdMap<MhId, u64> = IdMap::new();
    let _ = m[&MhId(3)];
}

#[test]
fn host_set_agrees_with_btreeset_under_random_operations() {
    for (case, span) in [8u64, 70, 5000].into_iter().enumerate() {
        let mut rng = SimRng::seed_from(0x5E70_F1D5 + case as u64);
        let mut set: HostSet<MssId> = HostSet::new();
        let mut oracle: BTreeSet<MssId> = BTreeSet::new();
        for step in 0..4000u64 {
            let id = MssId(draw_id(&mut rng, span));
            match rng.below(4) {
                0 | 1 => assert_eq!(set.insert(id), oracle.insert(id)),
                2 => assert_eq!(set.remove(&id), oracle.remove(&id)),
                _ => {
                    let last = oracle.iter().next_back().copied();
                    assert_eq!(set.iter().last(), last);
                    if let Some(last) = last {
                        assert_eq!(set.remove(&last), oracle.remove(&last));
                    }
                }
            }
            assert_eq!(set.contains(&id), oracle.contains(&id));
            if step % 16 == 0 {
                assert_eq!(set.len(), oracle.len(), "len at step {step}");
                assert!(set.iter().eq(oracle.iter().copied()), "order at {step}");
                assert_eq!(set, oracle, "set vs tree at step {step}");
            }
        }
        // Equality is by membership, not by bitmap length.
        let rebuilt: HostSet<MssId> = oracle.iter().copied().collect();
        assert_eq!(set, rebuilt);
        assert_eq!(set, oracle);
        oracle.insert(MssId(span as u32 + 1));
        assert_ne!(set, oracle);
    }
}
