//! End-to-end runs of the proxy framework: static algorithms served to
//! mobile clients under both proxy policies, with the paper's predicted
//! trade-off between location updates and handoffs.

use mobidist_net::prelude::*;
use mobidist_proxy::prelude::*;

fn clients(n: usize) -> Vec<MhId> {
    (0..n as u32).map(MhId).collect()
}

fn run<A: StaticAlgorithm>(
    cfg: NetworkConfig,
    algo: A,
    policy: ProxyPolicy,
    wl: ProxyWorkload,
    horizon: u64,
) -> (ProxyReport, Simulation<ProxyRuntime<A>>) {
    let n = cfg.num_mh;
    let mut sim = Simulation::new(cfg, ProxyRuntime::new(algo, clients(n), policy, wl));
    sim.run_until(SimTime::from_ticks(horizon));
    let r = sim.protocol().report();
    (r, sim)
}

#[test]
fn echo_static_serves_every_input_both_policies() {
    for policy in [ProxyPolicy::Fixed, ProxyPolicy::LocalMss] {
        let cfg = NetworkConfig::new(4, 6).with_seed(1);
        let wl = ProxyWorkload {
            inputs_per_client: 4,
            mean_interval: 50,
        };
        let (r, _) = run(cfg, EchoService::new(), policy, wl, 1_000_000);
        assert_eq!(r.inputs_sent, 24, "{policy:?}");
        assert_eq!(r.outputs_delivered, 24, "{policy:?}: {r:?}");
        assert_eq!(r.loc_updates, 0);
        assert_eq!(r.handoffs, 0);
    }
}

#[test]
fn echo_mobile_serves_every_input_both_policies() {
    for policy in [ProxyPolicy::Fixed, ProxyPolicy::LocalMss] {
        let cfg = NetworkConfig::new(4, 6)
            .with_seed(2)
            .with_mobility(MobilityConfig::moving(300));
        let wl = ProxyWorkload {
            inputs_per_client: 4,
            mean_interval: 80,
        };
        let (r, _) = run(cfg, EchoService::new(), policy, wl, 1_000_000);
        assert_eq!(r.inputs_sent, 24, "{policy:?}");
        assert_eq!(r.outputs_delivered, 24, "{policy:?}: {r:?}");
    }
}

#[test]
fn fixed_policy_pays_location_updates_proportional_to_moves() {
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(3)
        .with_mobility(MobilityConfig::moving(200));
    let wl = ProxyWorkload {
        inputs_per_client: 2,
        mean_interval: 500,
    };
    let (r, sim) = run(cfg, EchoService::new(), ProxyPolicy::Fixed, wl, 200_000);
    let moves = sim.ledger().moves;
    assert!(moves > 0);
    assert_eq!(
        r.loc_updates, moves,
        "every move informs the fixed proxy: {r:?}"
    );
    assert_eq!(r.handoffs, 0);
}

#[test]
fn local_policy_pays_handoffs_not_updates() {
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(3)
        .with_mobility(MobilityConfig::moving(200));
    let wl = ProxyWorkload {
        inputs_per_client: 2,
        mean_interval: 500,
    };
    let (r, sim) = run(cfg, EchoService::new(), ProxyPolicy::LocalMss, wl, 200_000);
    assert!(sim.ledger().moves > 0);
    assert_eq!(r.loc_updates, 0);
    assert!(r.handoffs > 0, "moves migrate the proxy: {r:?}");
}

#[test]
fn local_policy_keeps_proxy_colocated() {
    let cfg = NetworkConfig::new(4, 2).with_seed(4);
    let wl = ProxyWorkload {
        inputs_per_client: 0,
        mean_interval: 100,
    };
    let mut sim = Simulation::new(
        cfg,
        ProxyRuntime::new(EchoService::new(), clients(2), ProxyPolicy::LocalMss, wl),
    );
    sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(3))));
    sim.run_to_quiescence(1_000_000);
    assert_eq!(sim.protocol().proxy_of(ProcId(0)), MssId(3));
    assert_eq!(sim.protocol().proxy_of(ProcId(1)), MssId(1));
}

#[test]
fn central_counter_serializes_increments_from_mobile_clients() {
    let cfg = NetworkConfig::new(3, 5)
        .with_seed(5)
        .with_mobility(MobilityConfig::moving(400));
    let wl = ProxyWorkload {
        inputs_per_client: 3,
        mean_interval: 70,
    };
    let (r, sim) = run(
        cfg,
        CentralCounter::new(),
        ProxyPolicy::LocalMss,
        wl,
        1_000_000,
    );
    assert_eq!(r.inputs_sent, 15);
    assert_eq!(r.outputs_delivered, 15, "{r:?}");
    assert_eq!(sim.protocol().algorithm().value(), 15);
}

#[test]
fn barrier_completes_rounds_with_mobile_participants() {
    let cfg = NetworkConfig::new(3, 4)
        .with_seed(6)
        .with_mobility(MobilityConfig::moving(500));
    let wl = ProxyWorkload {
        inputs_per_client: 3,
        mean_interval: 100,
    };
    let (r, sim) = run(cfg, Barrier::new(), ProxyPolicy::LocalMss, wl, 2_000_000);
    assert_eq!(sim.protocol().algorithm().rounds(), 3, "{r:?}");
    // Every round notifies every client.
    assert_eq!(r.outputs_delivered, 3 * 4, "{r:?}");
}

#[test]
fn fixed_policy_update_traffic_grows_with_move_rate() {
    let measure = |dwell: u64| -> u64 {
        let cfg = NetworkConfig::new(6, 6)
            .with_seed(7)
            .with_mobility(MobilityConfig::moving(dwell));
        let wl = ProxyWorkload {
            inputs_per_client: 2,
            mean_interval: 1_000,
        };
        let (r, _) = run(cfg, EchoService::new(), ProxyPolicy::Fixed, wl, 100_000);
        r.loc_updates
    };
    let slow = measure(2_000);
    let fast = measure(200);
    assert!(
        fast > 3 * slow.max(1),
        "wide-area movers overwhelm a fixed proxy: {fast} vs {slow}"
    );
}

#[test]
fn adaptive_policy_serves_everything_and_mixes_currencies() {
    let cfg = NetworkConfig::new(8, 6)
        .with_seed(9)
        .with_mobility(MobilityConfig::moving(250));
    let wl = ProxyWorkload {
        inputs_per_client: 4,
        mean_interval: 150,
    };
    let (r, _) = run(
        cfg,
        CentralCounter::new(),
        ProxyPolicy::Adaptive { radius: 2 },
        wl,
        1_000_000,
    );
    assert_eq!(r.inputs_sent, 24);
    assert_eq!(r.outputs_delivered, 24, "{r:?}");
    assert!(r.loc_updates > 0, "nearby moves pay updates: {r:?}");
    assert!(r.handoffs > 0, "wide-area moves migrate the proxy: {r:?}");
}

#[test]
fn adaptive_radius_controls_the_trade() {
    // Larger radius ⇒ fewer migrations, more updates.
    let measure = |radius: u32| -> (u64, u64) {
        let cfg = NetworkConfig::new(8, 6)
            .with_seed(10)
            .with_mobility(MobilityConfig::moving(250));
        let wl = ProxyWorkload {
            inputs_per_client: 2,
            mean_interval: 400,
        };
        let (r, _) = run(
            cfg,
            EchoService::new(),
            ProxyPolicy::Adaptive { radius },
            wl,
            300_000,
        );
        (r.loc_updates, r.handoffs)
    };
    let (u1, h1) = measure(1);
    let (u3, h3) = measure(3);
    assert!(h3 < h1, "radius 3 migrates less: {h3} vs {h1}");
    assert!(u3 > u1, "…and updates more: {u3} vs {u1}");
}

#[test]
fn service_rides_out_an_mss_crash() {
    // An MSS hosting proxies crashes mid-run. Fail-stop with stable state:
    // deferred traffic flushes at recovery, so every input is still served
    // and the runtime's recovery hooks observe the outage.
    for policy in [ProxyPolicy::Fixed, ProxyPolicy::LocalMss] {
        let cfg = NetworkConfig::new(4, 6)
            .with_seed(31)
            .with_mobility(MobilityConfig::moving(400))
            .with_fault(FaultConfig::none().with_event(
                500,
                FaultKind::MssCrash {
                    mss: 1,
                    down_for: 2_000,
                },
            ));
        let wl = ProxyWorkload {
            inputs_per_client: 4,
            mean_interval: 120,
        };
        let (r, sim) = run(cfg, EchoService::new(), policy, wl, 2_000_000);
        assert_eq!(r.inputs_sent, 24, "{policy:?}");
        assert_eq!(r.outputs_delivered, 24, "{policy:?}: {r:?}");
        assert!(r.proxy_outages > 0, "{policy:?}: crash hook fired: {r:?}");
        assert_eq!(sim.ledger().custom("fault_crashes"), 1);
        assert_eq!(sim.ledger().custom("fault_recovers"), 1);
    }
}

#[test]
fn deterministic_replay_proxy_runs() {
    let go = || {
        let cfg = NetworkConfig::new(4, 6)
            .with_seed(8)
            .with_mobility(MobilityConfig::moving(300));
        let wl = ProxyWorkload {
            inputs_per_client: 3,
            mean_interval: 90,
        };
        let (r, sim) = run(cfg, CentralCounter::new(), ProxyPolicy::Fixed, wl, 500_000);
        (r, sim.ledger().clone())
    };
    let (ra, la) = go();
    let (rb, lb) = go();
    assert_eq!(ra, rb);
    assert_eq!(la, lb);
}

#[test]
fn output_lost_to_a_departure_is_recovered_by_search() {
    // Regression (found by proptest: m=3, n=4, seed=82, radius=1): in a
    // 3-cell ring every move is within radius 1, so the adaptive policy
    // degenerates to Fixed — and an output on the air when its client
    // leaves the cell must be recovered, not dropped.
    let cfg = NetworkConfig::new(3, 4)
        .with_seed(82)
        .with_mobility(MobilityConfig::moving(400));
    let wl = ProxyWorkload {
        inputs_per_client: 2,
        mean_interval: 150,
    };
    let clients: Vec<MhId> = (0..4u32).map(MhId).collect();
    let mut sim = Simulation::new(
        cfg,
        ProxyRuntime::new(
            EchoService::new(),
            clients,
            ProxyPolicy::Adaptive { radius: 1 },
            wl,
        ),
    );
    sim.run_until(SimTime::from_ticks(2_000_000));
    let r = sim.protocol().report();
    assert_eq!(r.inputs_sent, 8);
    assert_eq!(r.outputs_delivered, 8, "{r:?}");
}
