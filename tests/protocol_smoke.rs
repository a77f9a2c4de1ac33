//! Tier-1 smoke of the protocol layer: one short seeded run of every mutex
//! algorithm under [`MutexHarness`] and of every group strategy under
//! [`GroupHarness`], hosts roaming throughout.
//!
//! The crates' own suites (`cargo test --workspace`) pin these algorithms in
//! depth; this file makes the root `cargo test` notice when the per-id state
//! tables they all stand on break, by asserting the same invariants those
//! suites assert: a clean, live report for every mutex algorithm, and for
//! every group strategy no duplicate delivery plus the delivery ratio its
//! crate tests hold it to. The Lamport-queue algorithms' runs are also
//! pinned exactly, by hash.

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

/// Runs `algo` to the smoke horizon on `cfg` and returns the FNV-1a hash of
/// its episode sequence `(mh, granted_at, key)` followed by its ledger.
fn replay_hash<A: MutexAlgorithm>(algo: A, cfg: NetworkConfig) -> u64 {
    let wl = WorkloadConfig::all_mhs(N, 3).with_think(200);
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    sim.run_until(SimTime::from_ticks(HORIZON));
    let mut text = String::new();
    for ep in sim.protocol().checker().episodes() {
        text += &format!("{} {} {:?}\n", ep.mh.0, ep.granted_at.ticks(), ep.key);
    }
    text += &format!("{:?}", sim.ledger());
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn lamport_queue_runs_replay_exactly() {
    // The three algorithms that keep Lamport's request queue, replayed
    // against constants recorded with the queue as a `BTreeSet`: any change
    // to the head, a grant or a message moves a hash. E7-style disconnection
    // (static cells, downtime a quarter of uptime) makes L2 withdraw three
    // requests whose grant search failed and L2C lose one result forward;
    // L1 has no answer to disconnection, so it only roams.
    let disconnecting = |seed| {
        NetworkConfig::new(M, N)
            .with_seed(seed)
            .with_disconnect(DisconnectConfig {
                enabled: true,
                mean_uptime: 1_000,
                mean_downtime: 250,
                p_supply_prev: 1.0,
            })
    };
    let got = [
        replay_hash(L1::new(members()), roaming(101)),
        replay_hash(L2::new(M), roaming(102)),
        replay_hash(L2c::new(M), roaming(103)),
        replay_hash(L2::new(M), disconnecting(102)),
        replay_hash(L2c::new(M), disconnecting(103)),
    ];
    let want: [u64; 5] = [
        0x7e64de839e7fab3f,
        0x0215bb218f45808b,
        0x1656595e723e3d0d,
        0x9756488a76ff04ed,
        0x77e04c0be409fc61,
    ];
    assert_eq!(
        got, want,
        "runs moved (L1, L2, L2C, then L2 and L2C disconnecting): {got:#018x?}"
    );
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

#[test]
fn l1_with_spread_search_latency_reports_the_recorded_run() {
    // Searches that take 1..=120 ticks let MH→MH messages overtake each
    // other, so the logical FIFO channels under L1 hold arrivals back and
    // release runs of them; every `Release` takes one peer's entry out of
    // each replica's queue. Recorded when every arrival went through the
    // hold-back map and every `Release` swept the whole queue.
    let mut cfg = roaming(106);
    cfg.latency.search = LatencyModel::Uniform { lo: 1, hi: 120 };
    let wl = WorkloadConfig::all_mhs(N, 3).with_think(200);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L1::new(members()), wl));
    sim.run_until(SimTime::from_ticks(HORIZON));
    assert_eq!(
        sim.protocol().report(),
        MutexReport {
            issued: 30,
            completed: 30,
            aborted: 0,
            outstanding: 0,
            safety_violations: 0,
            order_violations: 0,
            mean_wait: 523.0666666666667,
            p95_wait: 797,
        }
    );
    assert_eq!(sim.ledger().searches, 1062);
}
