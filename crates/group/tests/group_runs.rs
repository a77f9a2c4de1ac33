//! End-to-end runs of the three group-location strategies: delivery audit,
//! cost shapes, view maintenance, and the paper's comparative claims.

use mobidist_group::prelude::*;
use mobidist_net::prelude::*;
use std::collections::BTreeSet;

fn members(n: usize) -> Vec<MhId> {
    (0..n as u32).map(MhId).collect()
}

fn run<S: LocationStrategy>(
    cfg: NetworkConfig,
    strategy: S,
    wl: GroupWorkload,
    horizon: u64,
) -> (GroupReport, Simulation<GroupHarness<S>>) {
    let mut sim = Simulation::new(cfg, GroupHarness::new(strategy, wl));
    sim.run_until(SimTime::from_ticks(horizon));
    let r = sim.protocol().report();
    (r, sim)
}

// ------------------------------------------------------- pure search ----

#[test]
fn pure_search_delivers_everything_static() {
    let g = members(6);
    let cfg = NetworkConfig::new(4, 6).with_seed(1);
    let wl = GroupWorkload::new(g.clone(), 8, 50);
    let (r, _) = run(cfg, PureSearch::new(g), wl, 1_000_000);
    assert_eq!(r.sent, 8);
    assert_eq!(r.missed, 0, "{r:?}");
    assert_eq!(r.duplicates, 0);
    assert_eq!(r.expected, 8 * 5);
    assert_eq!(r.delivered, 40);
}

#[test]
fn pure_search_cost_matches_paper_formula() {
    // Static network, one message: (|G|−1)(2C_w + C_s), exactly.
    let g = members(8);
    let cfg = NetworkConfig::new(4, 8).with_seed(2);
    let wl = GroupWorkload::new(g.clone(), 1, 10);
    let (r, sim) = run(cfg, PureSearch::new(g), wl, 1_000_000);
    assert_eq!(r.missed, 0);
    let c = sim.kernel().config().cost;
    assert_eq!(sim.ledger().total_cost(), 7 * c.mh_to_mh());
}

#[test]
fn pure_search_cost_is_mobility_independent() {
    let g = members(6);
    let measure = |dwell: Option<u64>| -> u64 {
        let mut cfg = NetworkConfig::new(6, 6).with_seed(3);
        if let Some(d) = dwell {
            cfg = cfg.with_mobility(MobilityConfig::moving(d));
        }
        let wl = GroupWorkload::new(g.clone(), 20, 200);
        let (r, sim) = run(cfg, PureSearch::new(g.clone()), wl, 1_000_000);
        assert_eq!(r.sent, 20);
        // Normalize: cost per send (re-searches for mid-move targets add
        // noise; they are part of search cost).
        sim.ledger().total_cost()
    };
    let static_cost = measure(None);
    let mobile_cost = measure(Some(500));
    // Identical number of messages; search price per copy unchanged. Allow
    // a little headroom for re-searches of mid-move members.
    let per = static_cost as f64;
    assert!(
        (mobile_cost as f64) < per * 1.35,
        "pure search cost should not grow with mobility: {static_cost} vs {mobile_cost}"
    );
}

#[test]
fn pure_search_disconnected_members_are_skipped() {
    let g = members(5);
    let cfg = NetworkConfig::new(3, 5).with_seed(4);
    let wl = GroupWorkload::new(g.clone(), 3, 100);
    let mut sim = Simulation::new(cfg, GroupHarness::new(PureSearch::new(g), wl));
    sim.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(4)));
    sim.run_until(SimTime::from_ticks(1_000_000));
    let r = sim.protocol().report();
    // mh4 was disconnected at send time, so it is not an expected receiver.
    assert_eq!(r.sent, 3);
    assert_eq!(r.missed, 0, "{r:?}");
    assert_eq!(r.expected, 3 * 3);
    assert!(sim.ledger().custom("ps_undeliverable") > 0);
}

// ----------------------------------------------------- always inform ----

#[test]
fn always_inform_delivers_everything_static() {
    let g = members(6);
    let cfg = NetworkConfig::new(4, 6).with_seed(5);
    let wl = GroupWorkload::new(g.clone(), 8, 50);
    let (r, sim) = run(cfg, AlwaysInform::new(g), wl, 1_000_000);
    assert_eq!(r.missed, 0, "{r:?}");
    assert_eq!(r.duplicates, 0);
    // No moves → zero searches: the whole point of the directory.
    assert_eq!(sim.ledger().searches, 0);
}

#[test]
fn always_inform_static_cost_matches_paper_formula() {
    // One message, static: (|G|−1)(2C_w + C_f) — but members in the
    // sender's own cell need no fixed hop, so the measured value is the
    // formula minus C_f per co-located member. Use one member per cell to
    // hit the formula exactly.
    let g = members(5);
    let cfg = NetworkConfig::new(5, 5).with_seed(6); // round-robin: 1 per cell
    let wl = GroupWorkload::new(g.clone(), 1, 10);
    let (r, sim) = run(cfg, AlwaysInform::new(g), wl, 1_000_000);
    assert_eq!(r.missed, 0);
    let c = sim.kernel().config().cost;
    assert_eq!(
        sim.ledger().total_cost(),
        4 * (2 * c.c_wireless + c.c_fixed)
    );
}

#[test]
fn always_inform_updates_directories_after_moves() {
    let g = members(4);
    let cfg = NetworkConfig::new(4, 4).with_seed(7);
    let wl = GroupWorkload::new(g.clone(), 0, 100);
    let mut sim = Simulation::new(cfg, GroupHarness::new(AlwaysInform::new(g), wl));
    sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(3))));
    sim.run_to_quiescence(1_000_000);
    let s = sim.protocol().strategy();
    for owner in members(4) {
        if owner != MhId(0) {
            assert_eq!(
                s.recorded_location(owner, MhId(0)),
                Some(MssId(3)),
                "{owner} must learn the new location"
            );
        }
    }
    assert_eq!(sim.ledger().custom("ai_location_updates"), 1);
}

#[test]
fn always_inform_cost_grows_with_mobility_ratio() {
    let g = members(6);
    let measure = |dwell: u64| -> (f64, u64) {
        let cfg = NetworkConfig::new(6, 6)
            .with_seed(8)
            .with_mobility(MobilityConfig::moving(dwell));
        let wl = GroupWorkload::new(g.clone(), 15, 300);
        let (r, sim) = run(cfg, AlwaysInform::new(g.clone()), wl, 1_000_000);
        (r.mobility_ratio(), sim.ledger().total_cost())
    };
    let (slow_ratio, slow_cost) = measure(3_000);
    let (fast_ratio, fast_cost) = measure(300);
    assert!(fast_ratio > slow_ratio, "{fast_ratio} vs {slow_ratio}");
    assert!(
        fast_cost > slow_cost,
        "more moves ⇒ more update traffic: {fast_cost} vs {slow_cost}"
    );
}

#[test]
fn always_inform_stale_entries_fall_back_to_search() {
    let g = members(4);
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(9)
        .with_mobility(MobilityConfig::moving(200));
    let wl = GroupWorkload::new(g.clone(), 25, 60);
    let (r, sim) = run(cfg, AlwaysInform::new(g), wl, 2_000_000);
    // With the search fallback, misses should stay rare (only mid-move
    // races), and any stale hit is visible in the counter.
    assert!(
        r.delivery_ratio() > 0.9,
        "fallback keeps delivery high: {r:?}"
    );
    let _ = sim.ledger().custom("ai_stale_fallbacks"); // may be 0 on calm seeds
}

// ----------------------------------------------------- location view ----

#[test]
fn location_view_delivers_everything_static() {
    let g = members(8);
    let cfg = NetworkConfig::new(4, 8).with_seed(10);
    let wl = GroupWorkload::new(g.clone(), 10, 50);
    let (r, sim) = run(cfg, LocationView::new(g, MssId(0)), wl, 1_000_000);
    assert_eq!(r.missed, 0, "{r:?}");
    assert_eq!(r.duplicates, 0);
    assert_eq!(sim.ledger().searches, 0, "LV never searches");
}

#[test]
fn location_view_static_cost_matches_paper_formula() {
    // One message, members clustered in 2 cells of 4 MSSs:
    // C_w (uplink) + (|LV|−1)·C_f + (|G|−1)·C_w (downlinks; sender excluded).
    let g = members(6);
    let cfg = NetworkConfig::new(4, 6)
        .with_seed(11)
        .with_placement(Placement::Clustered { cells: 2 });
    let wl = GroupWorkload::new(g.clone(), 1, 10);
    let (r, sim) = run(cfg, LocationView::new(g, MssId(0)), wl, 1_000_000);
    assert_eq!(r.missed, 0);
    let c = sim.kernel().config().cost;
    // C_w (uplink) + (|LV|−1 = 1)·C_f + 5 downlinks.
    let expected = c.c_wireless + c.c_fixed + 5 * c.c_wireless;
    assert_eq!(sim.ledger().total_cost(), expected);
}

#[test]
fn location_view_tracks_significant_moves_only() {
    let g = members(4);
    // Two members in each of cells 0,1 (clustered placement over 4 MSSs).
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(12)
        .with_placement(Placement::Clustered { cells: 2 });
    let wl = GroupWorkload::new(g.clone(), 0, 100);
    let mut sim = Simulation::new(cfg, GroupHarness::new(LocationView::new(g, MssId(0)), wl));
    // Non-significant move: mh0 goes from cell0 to cell1 (both in LV, and
    // cell0 still hosts mh2).
    sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(1))));
    sim.run_to_quiescence(1_000_000);
    {
        let s = sim.protocol().strategy();
        assert_eq!(s.significant_moves(), 0, "intra-view move with survivors");
        assert_eq!(s.view().len(), 2);
        assert!(s.is_consistent());
    }
    // Significant move: mh2 (last member in cell0) moves to cell3 (outside
    // the view) — one delete AND one add.
    sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(2), Some(MssId(3))));
    sim.run_to_quiescence(2_000_000);
    let s = sim.protocol().strategy();
    assert_eq!(s.significant_moves(), 2, "one add + one delete");
    let want: BTreeSet<MssId> = [MssId(1), MssId(3)].into_iter().collect();
    assert_eq!(*s.view(), want);
    assert!(s.is_consistent());
}

#[test]
fn location_view_stays_consistent_under_churn() {
    let g = members(8);
    let cfg = NetworkConfig::new(6, 8)
        .with_seed(13)
        .with_mobility(MobilityConfig::moving(150));
    let wl = GroupWorkload::new(g.clone(), 0, 100);
    let mut sim = Simulation::new(cfg, GroupHarness::new(LocationView::new(g, MssId(0)), wl));
    sim.run_until(SimTime::from_ticks(20_000));
    // Under live churn the copies are transiently out of sync by design;
    // the quiescent-convergence property is covered by
    // `location_view_tracks_significant_moves_only` and the proptest suite.
    // Here we check the live run's bookkeeping stays within bounds.
    let s = sim.protocol().strategy();
    assert!(s.member_moves() > 0);
    assert!(s.max_view_size() <= 6);
}

#[test]
fn location_view_size_stays_small_for_localised_groups() {
    let g = members(12);
    let cfg = NetworkConfig::new(12, 12)
        .with_seed(14)
        .with_placement(Placement::Clustered { cells: 3 })
        .with_mobility(MobilityConfig {
            enabled: true,
            mean_dwell: 300,
            mean_gap: 10,
            pattern: MovePattern::Locality {
                p_local: 0.95,
                home_span: 3,
            },
        });
    let wl = GroupWorkload::new(g.clone(), 20, 150);
    let (r, sim) = run(cfg, LocationView::new(g.clone(), MssId(0)), wl, 1_000_000);
    let s = sim.protocol().strategy();
    assert!(
        s.max_view_size() < g.len(),
        "|LV| = {} should stay below |G| = {}",
        s.max_view_size(),
        g.len()
    );
    assert!(
        s.significant_fraction() < 0.9,
        "locality makes many moves non-significant: f = {}",
        s.significant_fraction()
    );
    assert!(r.delivery_ratio() > 0.85, "{r:?}");
}

#[test]
fn location_view_beats_always_inform_on_high_mobility_ratio() {
    // High MOB/MSG with a localised group: LV pays only for significant
    // moves, AI pays a full directory broadcast for every move.
    let g = members(8);
    let build_cfg = |seed| {
        NetworkConfig::new(8, 8)
            .with_seed(seed)
            .with_placement(Placement::Clustered { cells: 2 })
            .with_mobility(MobilityConfig {
                enabled: true,
                mean_dwell: 100,
                mean_gap: 5,
                pattern: MovePattern::Locality {
                    p_local: 0.9,
                    home_span: 2,
                },
            })
    };
    let wl = GroupWorkload::new(g.clone(), 10, 2_000); // sparse messages
    let (_, sim_ai) = run(
        build_cfg(15),
        AlwaysInform::new(g.clone()),
        wl.clone(),
        3_000_000,
    );
    let (_, sim_lv) = run(build_cfg(15), LocationView::new(g, MssId(0)), wl, 3_000_000);
    let ai = sim_ai.ledger().total_cost();
    let lv = sim_lv.ledger().total_cost();
    assert!(
        lv < ai / 2,
        "location view must win big at high MOB/MSG: lv={lv} ai={ai}"
    );
}

#[test]
fn pure_search_beats_always_inform_when_moves_dominate() {
    // MOB/MSG ≫ 1: AI's update traffic dwarfs PS's per-send search cost.
    let g = members(6);
    let build_cfg = |seed| {
        NetworkConfig::new(6, 6)
            .with_seed(seed)
            .with_mobility(MobilityConfig::moving(80))
    };
    let wl = GroupWorkload::new(g.clone(), 5, 3_000);
    let (_, sim_ps) = run(
        build_cfg(16),
        PureSearch::new(g.clone()),
        wl.clone(),
        3_000_000,
    );
    let (_, sim_ai) = run(build_cfg(16), AlwaysInform::new(g), wl, 3_000_000);
    let ps = sim_ps.ledger().total_cost();
    let ai = sim_ai.ledger().total_cost();
    assert!(
        ps < ai,
        "pure search wins when moves dominate: ps={ps} ai={ai}"
    );
}

#[test]
fn always_inform_beats_pure_search_when_messages_dominate() {
    // MOB/MSG ≈ 0: AI sends at C_f per hop where PS pays C_s per copy.
    let g = members(6);
    let build_cfg = |seed| NetworkConfig::new(6, 6).with_seed(seed);
    let wl = GroupWorkload::new(g.clone(), 30, 50);
    let (_, sim_ps) = run(
        build_cfg(17),
        PureSearch::new(g.clone()),
        wl.clone(),
        2_000_000,
    );
    let (_, sim_ai) = run(build_cfg(17), AlwaysInform::new(g), wl, 2_000_000);
    let ps = sim_ps.ledger().total_cost();
    let ai = sim_ai.ledger().total_cost();
    assert!(
        ai < ps,
        "always inform wins when messages dominate: ai={ai} ps={ps}"
    );
}

#[test]
fn location_view_wireless_load_is_constant_per_member() {
    // The static segment absorbs the update traffic: MH energy per message
    // is one tx for the sender plus one rx per recipient, regardless of
    // mobility.
    let g = members(6);
    let cfg = NetworkConfig::new(6, 6)
        .with_seed(18)
        .with_mobility(MobilityConfig::moving(400));
    let wl = GroupWorkload::new(g.clone(), 12, 150);
    let (r, sim) = run(cfg, LocationView::new(g, MssId(0)), wl, 2_000_000);
    let energy = sim.ledger().total_energy();
    // Upper bound: each sent message costs 1 tx + (|G|−1) rx = 6 ops.
    assert!(
        energy <= r.sent * 6,
        "no wireless overhead beyond data delivery: {energy} > {}",
        r.sent * 6
    );
}

#[test]
fn deterministic_replay_group_runs() {
    let g = members(6);
    let go = || {
        let cfg = NetworkConfig::new(4, 6)
            .with_seed(77)
            .with_mobility(MobilityConfig::moving(250));
        let wl = GroupWorkload::new(g.clone(), 10, 100);
        let (r, sim) = run(cfg, LocationView::new(g.clone(), MssId(0)), wl, 1_000_000);
        (r, sim.ledger().clone())
    };
    let (ra, la) = go();
    let (rb, lb) = go();
    assert_eq!(ra, rb);
    assert_eq!(la, lb);
}

#[test]
fn location_view_delivers_to_members_only() {
    // Members 0..6 and bystanders 6..12 start packed into the same two
    // cells, and everyone keeps moving. Downlinks go only to local members
    // other than the sender: a bystander never receives a wireless message,
    // and nobody gets a copy it was not owed — the sender's own included,
    // since the sender is never an expected recipient.
    let g = members(6);
    let cfg = NetworkConfig::new(4, 12)
        .with_seed(1)
        .with_placement(Placement::Clustered { cells: 2 })
        .with_mobility(MobilityConfig::moving(600));
    let wl = GroupWorkload::new(g.clone(), 12, 150);
    let (r, sim) = run(cfg, LocationView::new(g, MssId(0)), wl, 20_000);
    assert!(r.member_moves > 0, "{r:?}");
    assert_eq!(r.sent, 12);
    assert_eq!((r.missed, r.duplicates, r.unexpected), (0, 0, 0), "{r:?}");
    for mh in 6..12 {
        assert_eq!(sim.ledger().mh_rx[mh], 0, "bystander mh{mh} received");
    }
}
