//! Tier-1 smoke of the protocol layer: one short seeded run of every mutex
//! algorithm under [`MutexHarness`] and of every group strategy under
//! [`GroupHarness`], hosts roaming throughout.
//!
//! The crates' own suites (`cargo test --workspace`) pin these algorithms in
//! depth; this file makes the root `cargo test` notice when the per-id state
//! tables they all stand on break, by asserting the same invariants those
//! suites assert: a clean, live report for every mutex algorithm, and for
//! every group strategy no duplicate delivery plus the delivery ratio its
//! crate tests hold it to.

use mobidist::prelude::*;

const M: usize = 4;
const N: usize = 10;
const HORIZON: u64 = 3_000_000;

fn roaming(seed: u64) -> NetworkConfig {
    NetworkConfig::new(M, N)
        .with_seed(seed)
        .with_mobility(MobilityConfig::moving(400))
}

fn mutex_smoke<A: MutexAlgorithm>(algo: A, seed: u64) {
    let name = algo.name();
    let wl = WorkloadConfig::all_mhs(N, 3).with_think(200);
    let mut sim = Simulation::new(roaming(seed), MutexHarness::new(algo, wl));
    sim.run_until(SimTime::from_ticks(HORIZON));
    let rep = sim.protocol().report();
    assert!(rep.is_clean_and_live(), "{name}: {rep:?}");
    assert_eq!(rep.completed, (N * 3) as u64, "{name}: {rep:?}");
    assert!(sim.protocol().checker().clean(), "{name}");
    assert!(sim.ledger().moves > 0, "{name}: hosts were meant to roam");
}

fn members() -> Vec<MhId> {
    (0..N as u32).map(MhId).collect()
}

/// Runs `strategy` over 25 group messages under mobility and checks the
/// audit: nothing delivered twice, and at least `floor` of the expected
/// deliveries made.
fn group_smoke<S: LocationStrategy>(strategy: S, seed: u64, floor: f64) -> GroupReport {
    let name = strategy.name();
    let wl = GroupWorkload::new(members(), 25, 400);
    let mut sim = Simulation::new(roaming(seed), GroupHarness::new(strategy, wl));
    sim.run_until(SimTime::from_ticks(HORIZON));
    let rep = sim.protocol().report();
    assert_eq!(rep.sent, 25, "{name}: {rep:?}");
    assert!(rep.member_moves > 0, "{name}: members were meant to roam");
    assert_eq!(rep.duplicates, 0, "{name}: {rep:?}");
    assert!(rep.delivery_ratio() >= floor, "{name}: {rep:?}");
    rep
}

#[test]
fn smoke_l1() {
    mutex_smoke(L1::new(members()), 101);
}

#[test]
fn smoke_l2() {
    mutex_smoke(L2::new(M), 102);
}

#[test]
fn smoke_l2c() {
    mutex_smoke(L2c::new(M), 103);
}

#[test]
fn smoke_r1() {
    mutex_smoke(R1::new(members(), R1DisconnectPolicy::Stall), 104);
}

#[test]
fn smoke_r2_every_guard() {
    for guard in [RingGuard::Plain, RingGuard::Counter, RingGuard::TokenList] {
        mutex_smoke(R2::new(M, guard), 105);
    }
}

#[test]
fn smoke_pure_search() {
    // A search chases its target across moves, so lost copies are rare.
    group_smoke(PureSearch::new(members()), 201, 0.9);
}

#[test]
fn smoke_always_inform() {
    // Stale directory entries fall back to a search (the crate's floor).
    group_smoke(AlwaysInform::new(members()), 202, 0.9);
}

#[test]
fn smoke_location_view() {
    // Members between cells at fan-out time miss the copy (the crate's
    // floor under mobility).
    group_smoke(LocationView::new(members(), MssId(0)), 203, 0.85);
}

#[test]
fn smoke_exactly_once() {
    let rep = group_smoke(ExactlyOnce::new(members(), MssId(0)), 204, 1.0);
    assert_eq!(rep.missed, 0, "exactly-once never misses: {rep:?}");
}
