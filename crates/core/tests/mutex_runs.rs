//! End-to-end runs of every mutual-exclusion algorithm under the shared
//! harness: safety, liveness, ordering, mobility and disconnection
//! behaviour, and the cost shapes the paper derives.
//!
//! Note on horizons: L1/L2 runs quiesce once all requests are served, so a
//! generous `run_until` bound just stops early. The ring algorithms keep the
//! token circulating forever (as the paper describes), so their runs use
//! explicit horizons sized to the workload.

use mobidist_core::prelude::*;
use mobidist_net::prelude::*;

fn net(m: usize, n: usize, seed: u64) -> NetworkConfig {
    NetworkConfig::new(m, n).with_seed(seed)
}

fn run<A: MutexAlgorithm>(
    cfg: NetworkConfig,
    algo: A,
    wl: WorkloadConfig,
    horizon: u64,
) -> (MutexReport, Simulation<MutexHarness<A>>) {
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    sim.run_until(SimTime::from_ticks(horizon));
    let report = sim.protocol().report();
    (report, sim)
}

/// Steps the simulation until some MH holds the critical section.
fn wait_for_holder<A: MutexAlgorithm>(sim: &mut Simulation<MutexHarness<A>>, max: u64) -> MhId {
    let deadline = SimTime::from_ticks(max);
    loop {
        if let Some(h) = sim.protocol().checker().holder() {
            return h;
        }
        assert!(sim.now() < deadline, "no CS holder appeared by {deadline}");
        assert!(sim.step(), "simulation went quiescent with no holder");
    }
}

// ---------------------------------------------------------------- L1 ----

#[test]
fn l1_serves_all_requests_safely_static() {
    let n = 6;
    let wl = WorkloadConfig::all_mhs(n, 3);
    let participants = wl.requesters.clone();
    let (r, sim) = run(net(3, n, 1), L1::new(participants), wl, 10_000_000);
    assert!(r.is_clean_and_live(), "{r:?}");
    assert_eq!(r.completed, 18);
    assert!(sim.protocol().checker().clean());
}

#[test]
fn l1_respects_timestamp_order() {
    let n = 5;
    let wl = WorkloadConfig::all_mhs(n, 4).with_think(30);
    let participants = wl.requesters.clone();
    let (r, _) = run(net(2, n, 2), L1::new(participants), wl, 10_000_000);
    assert_eq!(r.order_violations, 0, "grants must follow timestamp order");
    assert_eq!(r.completed, 20);
}

#[test]
fn l1_works_under_mobility() {
    let n = 5;
    let cfg = net(4, n, 3).with_mobility(MobilityConfig::moving(400));
    let wl = WorkloadConfig::all_mhs(n, 3);
    let participants = wl.requesters.clone();
    let mut sim = Simulation::new(cfg, MutexHarness::new(L1::new(participants), wl));
    sim.run_until(SimTime::from_ticks(1_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 15, "{r:?}");
}

#[test]
fn l1_cost_scales_linearly_with_n() {
    // One complete execution by one requester; everyone else passive.
    let measure = |n: usize| -> u64 {
        let wl = WorkloadConfig::only(vec![MhId(0)], 1);
        let algo = L1::new((0..n as u32).map(MhId).collect());
        let (r, sim) = run(net(4, n, 5), algo, wl, 10_000_000);
        assert!(r.is_clean_and_live());
        sim.ledger().total_cost()
    };
    let c8 = measure(8);
    let c16 = measure(16);
    let c32 = measure(32);
    // Paper: 3(N−1)(2C_w + C_s). Ratios should be ≈ (N−1) ratios.
    let r1 = c16 as f64 / c8 as f64;
    let r2 = c32 as f64 / c16 as f64;
    assert!((r1 - 15.0 / 7.0).abs() < 0.25, "c16/c8 = {r1}");
    assert!((r2 - 31.0 / 15.0).abs() < 0.25, "c32/c16 = {r2}");
}

#[test]
fn l1_exact_paper_cost_for_single_execution() {
    // Static hosts, one requester, default cost model: the measured total
    // must be exactly 3(N−1)(2·C_w + C_s).
    let n = 10;
    let wl = WorkloadConfig::only(vec![MhId(0)], 1);
    let algo = L1::new((0..n as u32).map(MhId).collect());
    let (r, sim) = run(net(4, n, 6), algo, wl, 10_000_000);
    assert!(r.is_clean_and_live());
    let c = sim.kernel().config().cost;
    let predicted = 3 * (n as u64 - 1) * (2 * c.c_wireless + c.c_search);
    assert_eq!(sim.ledger().total_cost(), predicted);
    // Energy: 6(N−1) wireless ops total, 3(N−1) at the initiator.
    assert_eq!(sim.ledger().total_energy(), 6 * (n as u64 - 1));
    assert_eq!(sim.ledger().mh_energy[0], 3 * (n as u64 - 1));
}

#[test]
fn l1_stalls_when_a_participant_disconnects() {
    let n = 5;
    let wl = WorkloadConfig::only(vec![MhId(0)], 1).with_think(500);
    let algo = L1::new((0..n as u32).map(MhId).collect());
    let cfg = net(3, n, 7);
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    // Disconnect a passive participant before the request goes out.
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(4)));
    sim.run_until(SimTime::from_ticks(5_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 0, "L1 cannot finish without mh4's reply");
    assert_eq!(r.outstanding, 1, "the request stalls forever");
}

// ---------------------------------------------------------------- L2 ----

#[test]
fn l2_serves_all_requests_safely_static() {
    let n = 8;
    let (r, sim) = run(
        net(4, n, 1),
        L2::new(4),
        WorkloadConfig::all_mhs(n, 3),
        10_000_000,
    );
    assert!(r.is_clean_and_live(), "{r:?}");
    assert_eq!(r.completed, 24);
    assert!(sim.protocol().checker().clean());
}

#[test]
fn l2_respects_timestamp_order() {
    let n = 8;
    let (r, _) = run(
        net(4, n, 11),
        L2::new(4),
        WorkloadConfig::all_mhs(n, 3).with_think(20),
        10_000_000,
    );
    assert_eq!(r.order_violations, 0);
    assert_eq!(r.completed, 24);
}

#[test]
fn l2_works_under_heavy_mobility() {
    let n = 10;
    let cfg = net(5, n, 12).with_mobility(MobilityConfig::moving(150));
    let mut sim = Simulation::new(
        cfg,
        MutexHarness::new(L2::new(5), WorkloadConfig::all_mhs(n, 3)),
    );
    sim.run_until(SimTime::from_ticks(1_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 30, "{r:?}");
}

#[test]
fn l2_exact_paper_cost_for_single_execution() {
    // One requester, static hosts: cost must be exactly
    // 3C_w + C_s + 3(M−1)C_f (the paper's extra C_fixed term pays the
    // release relay when the MH has moved; here it stays local).
    let m = 6;
    let n = 12;
    let wl = WorkloadConfig::only(vec![MhId(0)], 1);
    let (r, sim) = run(net(m, n, 13), L2::new(m), wl, 10_000_000);
    assert!(r.is_clean_and_live());
    let c = sim.kernel().config().cost;
    let predicted = 3 * c.c_wireless + c.c_search + 3 * (m as u64 - 1) * c.c_fixed;
    assert_eq!(sim.ledger().total_cost(), predicted);
    // Exactly three wireless messages touch the MH.
    assert_eq!(sim.ledger().wireless_msgs, 3);
    assert_eq!(sim.ledger().total_energy(), 3);
}

#[test]
fn l2_cost_constant_in_n() {
    let measure = |n: usize| -> u64 {
        let wl = WorkloadConfig::only(vec![MhId(0)], 1);
        let (r, sim) = run(net(4, n, 14), L2::new(4), wl, 10_000_000);
        assert!(r.is_clean_and_live());
        sim.ledger().total_cost()
    };
    let c8 = measure(8);
    let c64 = measure(64);
    assert_eq!(c8, c64, "L2 cost must not depend on N");
}

#[test]
fn l2_withdraws_request_of_disconnected_initiator() {
    let n = 6;
    let wl = WorkloadConfig::only(vec![MhId(0), MhId(1)], 1).with_think(10);
    let cfg = net(3, n, 15);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(3), wl));
    // Let both requests get issued, then disconnect mh0 while it may be
    // waiting for its grant.
    sim.run_until(SimTime::from_ticks(40));
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(0)));
    sim.run_until(SimTime::from_ticks(10_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.outstanding, 0, "no request may stall: {r:?}");
    assert_eq!(
        r.completed + r.aborted,
        r.issued,
        "every request completes or aborts"
    );
    assert!(r.completed >= 1, "the connected requester must finish");
}

#[test]
fn l2_holder_disconnecting_releases_on_reconnect() {
    let n = 4;
    let wl = WorkloadConfig::only(vec![MhId(0), MhId(1)], 1)
        .with_think(5)
        .with_hold(2_000);
    let cfg = net(2, n, 16);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(2), wl));
    let holder = wait_for_holder(&mut sim, 100_000);
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(holder));
    // The hold timer fires while disconnected; release is deferred.
    sim.run_until(SimTime::from_ticks(sim.now().ticks() + 10_000));
    sim.with_ctx(|ctx, _| ctx.initiate_reconnect(holder, None, 10));
    sim.run_until(SimTime::from_ticks(10_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 2, "both finish after the reconnect: {r:?}");
}

// --------------------------------------------------------------- L2C ----

#[test]
fn l2c_serves_all_requests_safely_static() {
    let n = 8;
    let (r, sim) = run(
        net(4, n, 1),
        L2c::new(4),
        WorkloadConfig::all_mhs(n, 3),
        10_000_000,
    );
    assert!(r.is_clean_and_live(), "{r:?}");
    assert_eq!(r.completed, 24);
    assert!(sim.protocol().checker().clean());
}

#[test]
fn l2c_respects_batch_then_index_order() {
    let n = 8;
    let (r, _) = run(
        net(4, n, 11),
        L2c::new(4),
        WorkloadConfig::all_mhs(n, 3).with_think(20),
        10_000_000,
    );
    assert_eq!(r.order_violations, 0, "grant keys must be nondecreasing");
    assert_eq!(r.completed, 24);
}

#[test]
fn l2c_single_execution_costs_two_wireless_messages() {
    // One requester, static: init uplink + the batch-done cell broadcast —
    // two charged wireless messages against L2's three, even with nothing
    // to combine.
    let m = 6;
    let n = 12;
    let wl = WorkloadConfig::only(vec![MhId(0)], 1);
    let (r, sim) = run(net(m, n, 13), L2c::new(m), wl, 10_000_000);
    assert!(r.is_clean_and_live());
    assert_eq!(sim.ledger().wireless_msgs, 2);
    assert_eq!(sim.ledger().fixed_msgs, 3 * (m as u64 - 1));
    assert_eq!(sim.ledger().custom("combine_batches"), 1);
    assert_eq!(sim.ledger().searches, 0, "nobody moved, nobody is searched");
}

#[test]
fn l2c_batches_under_contention_and_beats_l2_on_wireless() {
    // Saturated cell: every MH requests at once, repeatedly. The combiner
    // should serve many operations per Lamport acquisition, pushing
    // wireless messages per execution toward 1 (init) + 1/k (broadcast).
    let n = 24;
    let wl = WorkloadConfig::all_mhs(n, 4).with_think(5).with_hold(8);
    let (rc, simc) = run(net(4, n, 17), L2c::new(4), wl.clone(), 10_000_000);
    assert!(rc.is_clean_and_live(), "{rc:?}");
    assert_eq!(rc.completed, 96);
    let batches = simc.ledger().custom("combine_batches");
    assert!(
        batches * 2 < rc.completed,
        "mean batch size must exceed 2 under saturation: {batches} batches"
    );
    let (rl, siml) = run(net(4, n, 17), L2::new(4), wl, 10_000_000);
    assert_eq!(rl.completed, 96);
    assert!(
        simc.ledger().wireless_msgs * 2 <= siml.ledger().wireless_msgs,
        "L2C must at least halve L2's wireless traffic under load: {} vs {}",
        simc.ledger().wireless_msgs,
        siml.ledger().wireless_msgs
    );
}

#[test]
fn l2c_works_under_heavy_mobility() {
    let n = 10;
    let cfg = net(5, n, 12).with_mobility(MobilityConfig::moving(150));
    let mut sim = Simulation::new(
        cfg,
        MutexHarness::new(L2c::new(5), WorkloadConfig::all_mhs(n, 3)),
    );
    sim.run_until(SimTime::from_ticks(1_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.order_violations, 0);
    assert_eq!(r.completed, 30, "{r:?}");
}

#[test]
fn l2c_serves_members_that_disconnect_while_waiting() {
    // In L2 a waiter's disconnection aborts its request (the grant search
    // fails). In L2C the operation already lives at the combiner, so it is
    // served anyway — the paper's thesis taken to its limit.
    let n = 6;
    let wl = WorkloadConfig::only(vec![MhId(0), MhId(1)], 1)
        .with_think(10)
        .with_hold(2_000);
    let cfg = net(3, n, 15);
    let mut sim = Simulation::new(cfg, MutexHarness::new(L2c::new(3), wl));
    // Let both requests get collected, then disconnect one waiter.
    sim.run_until(SimTime::from_ticks(40));
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(0)));
    sim.run_until(SimTime::from_ticks(10_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, r.issued, "every collected op is served: {r:?}");
    assert_eq!(r.outstanding, 0);
}

#[test]
fn l2c_batch_cap_bounds_batches_and_stays_live() {
    // Same saturated workload as the uncapped contention test: every batch
    // must respect the cap, every operation must still be served, and the
    // capped run must close more (smaller) batches than the uncapped one.
    let n = 24;
    let wl = WorkloadConfig::all_mhs(n, 4).with_think(5).with_hold(8);
    let (rc, simc) = run(
        net(4, n, 17),
        L2c::new(4).with_batch_cap(3),
        wl.clone(),
        10_000_000,
    );
    assert!(rc.is_clean_and_live(), "{rc:?}");
    assert_eq!(rc.completed, 96);
    let capped_batches = simc.ledger().custom("combine_batches");
    assert!(
        capped_batches * 3 >= rc.completed,
        "no batch may exceed the cap of 3: {capped_batches} batches for {} ops",
        rc.completed
    );
    let (ru, simu) = run(net(4, n, 17), L2c::new(4), wl, 10_000_000);
    assert_eq!(ru.completed, 96);
    assert!(
        capped_batches > simu.ledger().custom("combine_batches"),
        "capping splits the backlog into more acquisitions"
    );
}

#[test]
fn l2c_mixed_hold_profile_is_safe_and_live() {
    // The fairness workload: alternating short/long critical sections.
    let n = 8;
    let wl = WorkloadConfig::all_mhs(n, 3)
        .with_think(30)
        .with_hold_profile(vec![3, 30]);
    let (r, _) = run(net(4, n, 18), L2c::new(4), wl, 10_000_000);
    assert!(r.is_clean_and_live(), "{r:?}");
    assert_eq!(r.completed, 24);
}

// ---------------------------------------------------------------- R1 ----

#[test]
fn r1_serves_all_requests_safely_static() {
    let n = 6;
    let wl = WorkloadConfig::all_mhs(n, 3);
    let ring = wl.requesters.clone();
    let (r, sim) = run(
        net(3, n, 21),
        R1::new(ring, R1DisconnectPolicy::Stall),
        wl,
        400_000,
    );
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 18, "{r:?}");
    assert!(sim.protocol().algorithm().traversals() > 0);
}

#[test]
fn r1_token_circulates_even_with_no_requests() {
    let n = 4;
    let wl = WorkloadConfig::only(vec![], 0);
    let ring: Vec<MhId> = (0..n as u32).map(MhId).collect();
    let (_, sim) = run(
        net(2, n, 22),
        R1::new(ring, R1DisconnectPolicy::Stall),
        wl,
        100_000,
    );
    let a = sim.protocol().algorithm();
    assert!(
        a.traversals() >= 10,
        "token keeps burning cost with zero demand: {}",
        a.traversals()
    );
    // Every completed hop cost the paper's MH→MH price (the final hop may
    // still be in flight at the horizon).
    let c = sim.kernel().config().cost;
    let total = sim.ledger().total_cost();
    assert!(total <= a.hops() * c.mh_to_mh());
    assert!(total >= (a.hops() - 1) * c.mh_to_mh());
}

#[test]
fn r1_interrupts_dozing_mhs() {
    let n = 6;
    // Only mh0 requests; everyone else dozes — and still gets interrupted.
    let wl = WorkloadConfig::only(vec![MhId(0)], 2).with_doze();
    let ring: Vec<MhId> = (0..n as u32).map(MhId).collect();
    let (_, sim) = run(
        net(3, n, 23),
        R1::new(ring, R1DisconnectPolicy::Stall),
        wl,
        100_000,
    );
    assert!(
        sim.ledger().doze_interruptions > 10,
        "dozing relays are interrupted: {}",
        sim.ledger().doze_interruptions
    );
}

#[test]
fn r1_stalls_on_disconnection_until_reconnect() {
    let n = 4;
    let wl = WorkloadConfig::only(vec![MhId(0)], 2).with_think(100);
    let ring: Vec<MhId> = (0..n as u32).map(MhId).collect();
    let cfg = net(2, n, 24);
    let mut sim = Simulation::new(
        cfg,
        MutexHarness::new(R1::new(ring, R1DisconnectPolicy::Stall), wl),
    );
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(2)));
    sim.run_until(SimTime::from_ticks(200_000));
    let stalled = sim.protocol().algorithm().stalls();
    assert!(stalled > 0, "ring must stall on the disconnected relay");
    // Reconnect lets the ring resume.
    sim.with_ctx(|ctx, _| ctx.initiate_reconnect(MhId(2), None, 10));
    sim.run_until(SimTime::from_ticks(3_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 2, "resumes after reconnect: {r:?}");
}

#[test]
fn r1_skip_policy_heals_the_ring() {
    let n = 4;
    let wl = WorkloadConfig::only(vec![MhId(0)], 2).with_think(100);
    let ring: Vec<MhId> = (0..n as u32).map(MhId).collect();
    let cfg = net(2, n, 25);
    let mut sim = Simulation::new(
        cfg,
        MutexHarness::new(R1::new(ring, R1DisconnectPolicy::Skip), wl),
    );
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(2)));
    sim.run_until(SimTime::from_ticks(1_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 2, "skip policy keeps the ring alive: {r:?}");
    assert!(sim.protocol().algorithm().skips() > 0);
}

// ---------------------------------------------------------------- R2 ----

#[test]
fn r2_serves_all_requests_safely_static() {
    let n = 8;
    let (r, sim) = run(
        net(4, n, 31),
        R2::new(4, RingGuard::Plain),
        WorkloadConfig::all_mhs(n, 3),
        400_000,
    );
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 24, "{r:?}");
    assert!(sim.protocol().algorithm().traversals() > 0);
}

#[test]
fn r2_counter_guard_limits_one_access_per_traversal() {
    let n = 6;
    let (r, sim) = run(
        net(3, n, 32),
        R2::new(3, RingGuard::Counter),
        WorkloadConfig::all_mhs(n, 4).with_think(5),
        400_000,
    );
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 24, "{r:?}");
    assert_eq!(
        sim.protocol().algorithm().max_services_per_traversal(),
        1,
        "R2' must serve each MH at most once per traversal"
    );
}

#[test]
fn r2_token_list_limits_one_access_per_traversal() {
    let n = 6;
    let (r, sim) = run(
        net(3, n, 33),
        R2::new(3, RingGuard::TokenList),
        WorkloadConfig::all_mhs(n, 4).with_think(5),
        400_000,
    );
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 24, "{r:?}");
    assert_eq!(sim.protocol().algorithm().max_services_per_traversal(), 1);
}

#[test]
fn r2_counter_guard_is_fooled_by_a_liar_but_token_list_is_not() {
    // The liar always reports access-count 0. Under R2' it can be served
    // multiple times per traversal by re-requesting at the next ring MSS;
    // the token-list variant shuts this down.
    let n = 4;
    let liar = MhId(0);
    let mobility = MobilityConfig {
        enabled: true,
        mean_dwell: 60,
        mean_gap: 5,
        ..MobilityConfig::default()
    };
    let max_served = |guard: RingGuard, seed: u64| -> u64 {
        let wl = WorkloadConfig::only(vec![liar], 40)
            .with_think(10)
            .with_hold(3);
        let cfg = net(4, n, seed).with_mobility(mobility);
        let (r, sim) = run(cfg, R2::new(4, guard).with_liar(liar), wl, 150_000);
        assert_eq!(r.safety_violations, 0);
        sim.protocol().algorithm().max_services_per_traversal()
    };
    let mut fooled = 0;
    let mut protected_ok = true;
    for seed in 40..46 {
        if max_served(RingGuard::Counter, seed) > 1 {
            fooled += 1;
        }
        if max_served(RingGuard::TokenList, seed) > 1 {
            protected_ok = false;
        }
    }
    assert!(fooled > 0, "the liar should beat R2' in at least one run");
    assert!(protected_ok, "the token-list guard must never be beaten");
}

#[test]
fn r2_exact_paper_cost_for_single_request() {
    // Static hosts, one requester at its local MSS, measured from request to
    // completion: serving costs 3C_w + C_s (the MH never moved, so the
    // return relay is local) plus M·C_f token passing per traversal.
    let m = 4;
    let n = 4;
    let wl = WorkloadConfig::only(vec![MhId(0)], 1).with_think(1);
    let cfg = net(m, n, 34);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(m, RingGuard::Plain), wl));
    sim.run_until(SimTime::from_ticks(500));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 1, "{r:?}");
    let c = sim.kernel().config().cost;
    let a = sim.protocol().algorithm();
    let serve_cost = 3 * c.c_wireless + c.c_search; // grant + CS + return, local MH
    let ring_cost = a.token_passes() * c.c_fixed;
    assert_eq!(sim.ledger().total_cost(), serve_cost + ring_cost);
}

#[test]
fn r2_skips_disconnected_requester_and_token_survives() {
    let n = 6;
    // Two requesters with long holds; whoever wins first keeps the token
    // long enough for us to disconnect the other *while it waits*.
    let wl = WorkloadConfig::only(vec![MhId(1), MhId(2)], 1)
        .with_think(5)
        .with_hold(2_000);
    let cfg = net(3, n, 4);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(3, RingGuard::Plain), wl));
    let holder = wait_for_holder(&mut sim, 100_000);
    let waiter = if holder == MhId(1) { MhId(2) } else { MhId(1) };
    // Make sure the waiter has actually issued its request, then kill it.
    sim.run_until(SimTime::from_ticks(sim.now().ticks() + 500));
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(waiter));
    sim.run_until(SimTime::from_ticks(sim.now().ticks() + 300_000));
    let r = sim.protocol().report();
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 1, "{r:?}");
    assert_eq!(
        r.outstanding, 0,
        "the dead request must be withdrawn: {r:?}"
    );
    assert!(r.aborted >= 1 || r.issued == 1, "{r:?}");
    // Ring still turning afterwards.
    assert!(sim.protocol().algorithm().traversals() > 1);
}

#[test]
fn r2_disconnection_of_passive_mh_costs_nothing() {
    let n = 8;
    let wl = WorkloadConfig::only(vec![MhId(0)], 2).with_think(50);
    let cfg = net(4, n, 36);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(4, RingGuard::Plain), wl));
    sim.with_ctx(|ctx, _| {
        ctx.initiate_disconnect(MhId(5));
        ctx.initiate_disconnect(MhId(6));
    });
    sim.run_until(SimTime::from_ticks(300_000));
    let r = sim.protocol().report();
    assert_eq!(
        r.completed, 2,
        "passive disconnections are invisible: {r:?}"
    );
}

#[test]
fn r2_never_interrupts_passive_dozers() {
    let n = 6;
    let wl = WorkloadConfig::only(vec![MhId(0)], 2).with_doze();
    let cfg = net(3, n, 37);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(3, RingGuard::Counter), wl));
    sim.run_until(SimTime::from_ticks(300_000));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 2);
    assert_eq!(
        sim.ledger().doze_interruptions,
        0,
        "R2 interrupts only requesters (contrast with R1)"
    );
}

#[test]
fn r2_works_under_heavy_mobility() {
    let n = 10;
    let cfg = net(5, n, 38).with_mobility(MobilityConfig::moving(200));
    let (r, _) = run(
        cfg,
        R2::new(5, RingGuard::Counter),
        WorkloadConfig::all_mhs(n, 3),
        400_000,
    );
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 30, "{r:?}");
}

#[test]
fn r2_holder_disconnect_stalls_ring_until_reconnect() {
    let n = 4;
    let wl = WorkloadConfig::only(vec![MhId(0), MhId(1)], 1)
        .with_think(5)
        .with_hold(1_000);
    let cfg = net(2, n, 39);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(2, RingGuard::Plain), wl));
    let holder = wait_for_holder(&mut sim, 100_000);
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(holder));
    sim.run_until(SimTime::from_ticks(sim.now().ticks() + 5_000));
    // Ring is stalled: the other request cannot complete.
    assert!(sim.protocol().report().completed <= 1);
    sim.with_ctx(|ctx, _| ctx.initiate_reconnect(holder, None, 10));
    sim.run_until(SimTime::from_ticks(sim.now().ticks() + 500_000));
    let r = sim.protocol().report();
    assert_eq!(r.completed, 2, "token returns after reconnect: {r:?}");
    assert_eq!(r.safety_violations, 0);
}

// ------------------------------------------------------------ cross ----

#[test]
fn all_algorithms_same_workload_same_grants() {
    // Identical workload and seed: every algorithm serves all requests
    // exactly once, whatever the internal machinery.
    let n = 6;
    let wl = WorkloadConfig::all_mhs(n, 2);
    let total = (n * 2) as u64;

    let (r, _) = run(
        net(3, n, 50),
        L1::new(wl.requesters.clone()),
        wl.clone(),
        5_000_000,
    );
    assert_eq!((r.completed, r.safety_violations), (total, 0), "L1");

    let (r, _) = run(net(3, n, 50), L2::new(3), wl.clone(), 5_000_000);
    assert_eq!((r.completed, r.safety_violations), (total, 0), "L2");

    let (r, _) = run(
        net(3, n, 50),
        R1::new(wl.requesters.clone(), R1DisconnectPolicy::Stall),
        wl.clone(),
        1_000_000,
    );
    assert_eq!((r.completed, r.safety_violations), (total, 0), "R1");

    let (r, _) = run(net(3, n, 50), R2::new(3, RingGuard::Counter), wl, 400_000);
    assert_eq!((r.completed, r.safety_violations), (total, 0), "R2'");
}

#[test]
fn deterministic_replay_same_seed() {
    let n = 8;
    let wl = WorkloadConfig::all_mhs(n, 2);
    let go = || {
        let cfg = net(4, n, 99).with_mobility(MobilityConfig::moving(300));
        let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(4), wl.clone()));
        sim.run_until(SimTime::from_ticks(1_000_000));
        (sim.protocol().report(), sim.ledger().clone())
    };
    let (ra, la) = go();
    let (rb, lb) = go();
    assert_eq!(ra, rb);
    assert_eq!(la, lb);
}

#[test]
fn batched_delivery_matches_the_per_event_reference() {
    // Every run in the repository uses the kernel's batched delivery
    // engine; `DeliveryMode::Unbatched` is the one-event-per-message
    // reference it must be indistinguishable from. Broadcast-heavy (L2),
    // combining (L2C) and unicast-ring (R2) traffic, mobility on.
    fn check<A: MutexAlgorithm>(name: &str, algo: impl Fn() -> A, horizon: u64) {
        let n = 16;
        let wl = WorkloadConfig::all_mhs(n, 3).with_think(100);
        let go = |mode| {
            let cfg = net(4, n, 77)
                .with_mobility(MobilityConfig::moving(300))
                .with_delivery(mode);
            let (report, sim) = run(cfg, algo(), wl.clone(), horizon);
            assert_eq!(report.completed, 48, "{name}: {report:?}");
            (
                report,
                sim.ledger().clone(),
                sim.protocol().checker().episodes().to_vec(),
                sim.kernel().events_processed(),
            )
        };
        assert_eq!(
            go(DeliveryMode::Batched),
            go(DeliveryMode::Unbatched),
            "{name}"
        );
    }
    check("L2", || L2::new(4), 1_000_000);
    check("L2C", || L2c::new(4), 1_000_000);
    check("R2", || R2::new(4, RingGuard::Counter), 400_000);
}

// ------------------------------------------------ request handoff ----

#[test]
fn r2_request_handoff_serves_the_request_at_the_new_cell() {
    // mh1 requests at mss1 and immediately moves to mss2 while the token is
    // still at mss0. Without the Section-2 handoff the request stays (and
    // is served from) mss1; with it, the request follows the MH to mss2.
    let serve_site = |handoff: bool| -> MssId {
        let mut algo = R2::new(3, RingGuard::Plain);
        if handoff {
            algo = algo.with_request_handoff();
        }
        // Slow the wired plane so the token is still in flight to mss1 when
        // the move completes.
        let mut cfg = net(3, 3, 60);
        cfg.latency.fixed = LatencyModel::Fixed(200);
        let wl = WorkloadConfig::only(vec![MhId(1)], 1).with_think(1);
        let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
        // Let the request reach mss1, then move mh1 to mss2.
        sim.run_until(SimTime::from_ticks(20));
        sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(1), Some(MssId(2))));
        sim.run_until(SimTime::from_ticks(sim.now().ticks() + 100_000));
        let r = sim.protocol().report();
        assert_eq!(r.completed, 1, "handoff={handoff}: {r:?}");
        sim.protocol().algorithm().service_log()[0].0
    };
    assert_eq!(serve_site(false), MssId(1), "request stays at the old cell");
    assert_eq!(serve_site(true), MssId(2), "request travels with the MH");
}

#[test]
fn r2_request_handoff_is_safe_under_churn() {
    let n = 8;
    let cfg = net(4, n, 61).with_mobility(MobilityConfig {
        enabled: true,
        mean_dwell: 80,
        mean_gap: 10,
        ..MobilityConfig::default()
    });
    let wl = WorkloadConfig::all_mhs(n, 3).with_think(20);
    let algo = R2::new(4, RingGuard::Counter).with_request_handoff();
    let (r, sim) = run(cfg, algo, wl, 600_000);
    assert_eq!(r.safety_violations, 0);
    assert_eq!(r.completed, 24, "{r:?}");
    assert!(
        sim.ledger().custom("r2_request_handoffs") > 0,
        "this much churn must trigger at least one queue handoff"
    );
}
