//! Pins the EXPERIMENTS.md record for the L2C batch-size cap at N = 64
//! closed-loop requesters over 8 MSSs, in saturation (think = 50).
//!
//! The measured result — deliberately pinned as a *negative* one — is that
//! capping does NOT improve the wait-time Jain index: uncapped combining
//! already grants batch members in FIFO station order, so splitting a
//! batch only pushes the leftover members out by a full token rotation.
//! Jain slips slightly (≈0.998 → ≈0.992 at cap = 4) and the maximum wait
//! grows, while the combining-round count strictly rises. What the cap
//! buys is a bound on per-round token-holding time (no station can drain
//! an unbounded queue in one grant), not better mean-wait fairness. The
//! assertions below hold the direction and the band of that record so a
//! behaviour drift shows up as a test failure, not a stale document.

use mobidist_bench::stats::jain;
use mobidist_core::prelude::*;
use mobidist_net::prelude::*;
use mobidist_net::time::SimTime;
use std::collections::BTreeMap;

const M: usize = 8;
const N: usize = 64;
const REQS: usize = 16;
const THINK: u64 = 50;

/// Runs the fixed-work N=64 saturation cell and reduces it to
/// (jain over per-MH mean waits, combining rounds, max wait).
fn serve_at(cap: Option<u32>) -> (f64, u64, u64) {
    let mut algo = L2c::new(M);
    if let Some(cap) = cap {
        algo = algo.with_batch_cap(cap);
    }
    let wl = WorkloadConfig::all_mhs(N, REQS)
        .with_think(THINK)
        .with_hold(10);
    let target = (N * REQS) as u64;
    let cfg = NetworkConfig::new(M, N)
        .with_seed(64)
        .with_mobility(MobilityConfig::moving(2_000));
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    let mut t = 100_000u64;
    while sim.protocol().completed() < target {
        assert!(t <= 500_000_000, "fixed work did not finish");
        sim.run_until(SimTime::from_ticks(t));
        t += 100_000;
    }
    let report = sim.protocol().report();
    assert_eq!(report.safety_violations, 0);
    assert_eq!(report.order_violations, 0);
    assert_eq!(report.completed, target);
    let mut per_mh: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut max_wait = 0u64;
    for ep in sim.protocol().checker().episodes() {
        let e = per_mh.entry(ep.mh.0).or_insert((0, 0));
        e.0 += ep.wait();
        e.1 += 1;
        max_wait = max_wait.max(ep.wait());
    }
    let means: Vec<f64> = per_mh
        .values()
        .map(|(sum, n)| *sum as f64 / *n as f64)
        .collect();
    (
        jain(&means),
        sim.ledger().custom("combine_batches"),
        max_wait,
    )
}

#[test]
fn batch_cap_trades_rounds_for_bounded_batches_not_jain_at_n64() {
    let (jain_uncapped, batches_uncapped, max_uncapped) = serve_at(None);
    let (jain_capped, batches_capped, max_capped) = serve_at(Some(4));
    // The cap splits oversize batches, so the capped run takes strictly
    // more combining rounds and mean batch size drops below the cap.
    assert!(
        batches_capped > batches_uncapped,
        "cap did not split batches: {batches_capped} vs {batches_uncapped}"
    );
    let target = (N * REQS) as f64;
    assert!(
        target / batches_capped as f64 <= 4.0,
        "capped mean batch exceeds the cap"
    );
    // The recorded direction: Jain does NOT improve — it slips slightly
    // (leftovers wait out a token rotation) and the max wait grows.
    assert!(
        jain_capped <= jain_uncapped,
        "record says the cap must not improve Jain here: {jain_capped:.3} vs {jain_uncapped:.3}"
    );
    assert!(
        max_capped >= max_uncapped,
        "record says the cap lengthens the worst wait: {max_capped} vs {max_uncapped}"
    );
    // And the recorded band: the slip is small — combining stays fair.
    assert!(
        jain_uncapped > 0.97 && jain_capped > 0.97,
        "jain indices left the recorded band: {jain_uncapped:.3}, {jain_capped:.3}"
    );
    assert!(
        jain_uncapped - jain_capped < 0.02,
        "jain slip larger than the recorded ~0.006: {:.3}",
        jain_uncapped - jain_capped
    );
    println!(
        "uncapped: jain={jain_uncapped:.3} batches={batches_uncapped} max_wait={max_uncapped}; \
         cap=4: jain={jain_capped:.3} batches={batches_capped} max_wait={max_capped}"
    );
}
