//! Behavioural tests of the kernel against the paper's system model
//! (Section 2): cost assignments, FIFO and prefix-delivery semantics,
//! search with eventual delivery, disconnection flags, doze interruptions.

use mobidist_net::prelude::*;

/// A scriptable protocol that records everything it observes.
#[derive(Debug, Default)]
struct Recorder {
    mss_msgs: Vec<(MssId, Src, String)>,
    mh_msgs: Vec<(MhId, Src, String)>,
    joined: Vec<(MhId, MssId, Option<MssId>)>,
    left: Vec<(MhId, MssId)>,
    disconnected: Vec<(MhId, MssId)>,
    reconnected: Vec<(MhId, MssId, Option<MssId>)>,
    search_failed: Vec<(MssId, MhId, String)>,
    wireless_lost: Vec<(MssId, MhId, String)>,
    timers: Vec<u32>,
}

impl Protocol for Recorder {
    type Msg = String;
    type Timer = u32;

    fn on_mss_msg(&mut self, _: &mut Ctx<'_, String, u32>, at: MssId, src: Src, msg: String) {
        self.mss_msgs.push((at, src, msg));
    }
    fn on_mh_msg(&mut self, _: &mut Ctx<'_, String, u32>, at: MhId, src: Src, msg: String) {
        self.mh_msgs.push((at, src, msg));
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, String, u32>, t: u32) {
        self.timers.push(t);
    }
    fn on_mh_joined(
        &mut self,
        _: &mut Ctx<'_, String, u32>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.joined.push((mh, mss, prev));
    }
    fn on_mh_left(&mut self, _: &mut Ctx<'_, String, u32>, mh: MhId, mss: MssId) {
        self.left.push((mh, mss));
    }
    fn on_mh_disconnected(&mut self, _: &mut Ctx<'_, String, u32>, mh: MhId, mss: MssId) {
        self.disconnected.push((mh, mss));
    }
    fn on_mh_reconnected(
        &mut self,
        _: &mut Ctx<'_, String, u32>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.reconnected.push((mh, mss, prev));
    }
    fn on_search_failed(
        &mut self,
        _: &mut Ctx<'_, String, u32>,
        origin: MssId,
        target: MhId,
        msg: String,
    ) {
        self.search_failed.push((origin, target, msg));
    }
    fn on_wireless_lost(
        &mut self,
        _: &mut Ctx<'_, String, u32>,
        mss: MssId,
        mh: MhId,
        msg: String,
    ) {
        self.wireless_lost.push((mss, mh, msg));
    }
}

fn sim(m: usize, n: usize) -> Simulation<Recorder> {
    Simulation::new(NetworkConfig::new(m, n).with_seed(42), Recorder::default())
}

#[test]
fn fixed_send_charges_c_fixed_and_delivers() {
    let mut s = sim(4, 4);
    s.with_ctx(|ctx, _| ctx.send_fixed(MssId(0), MssId(3), "hello".into()));
    s.run_to_quiescence(10_000);
    let r = s.protocol();
    assert_eq!(r.mss_msgs.len(), 1);
    assert_eq!(r.mss_msgs[0].0, MssId(3));
    assert_eq!(r.mss_msgs[0].1, Src::Mss(MssId(0)));
    let l = s.ledger();
    assert_eq!(l.fixed_msgs, 1);
    assert_eq!(l.fixed_cost, s.kernel().config().cost.c_fixed);
    assert_eq!(l.wireless_msgs, 0);
}

#[test]
fn fixed_self_send_is_free() {
    let mut s = sim(2, 2);
    s.with_ctx(|ctx, _| ctx.send_fixed(MssId(1), MssId(1), "self".into()));
    s.run_to_quiescence(10_000);
    assert_eq!(s.protocol().mss_msgs.len(), 1);
    assert_eq!(s.ledger().fixed_msgs, 0);
    assert_eq!(s.ledger().total_cost(), 0);
}

#[test]
fn wireless_round_trip_costs_and_energy() {
    let mut s = sim(2, 2);
    // mh0 starts at mss0 (round-robin placement).
    s.with_ctx(|ctx, _| ctx.send_wireless_up(MhId(0), "up".into()).unwrap());
    s.run_to_quiescence(10_000);
    assert_eq!(s.protocol().mss_msgs.len(), 1);
    assert_eq!(s.protocol().mss_msgs[0].1, Src::Mh(MhId(0)));
    s.with_ctx(|ctx, _| {
        ctx.send_wireless_down(MssId(0), MhId(0), "down".into())
            .unwrap()
    });
    s.run_to_quiescence(20_000);
    assert_eq!(s.protocol().mh_msgs.len(), 1);
    let l = s.ledger();
    assert_eq!(l.wireless_msgs, 2);
    assert_eq!(l.wireless_cost, 2 * s.kernel().config().cost.c_wireless);
    assert_eq!(l.mh_tx[0], 1);
    assert_eq!(l.mh_rx[0], 1);
    assert_eq!(l.mh_energy[0], 2);
    // No energy at any other MH.
    assert_eq!(l.mh_energy[1], 0);
}

#[test]
fn wireless_down_to_non_local_mh_is_rejected() {
    let mut s = sim(2, 2);
    let err = s.with_ctx(|ctx, _| ctx.send_wireless_down(MssId(0), MhId(1), "x".into()));
    assert_eq!(
        err.unwrap_err(),
        NetError::NotLocal {
            mss: MssId(0),
            mh: MhId(1)
        }
    );
}

#[test]
fn search_send_costs_c_search_plus_wireless() {
    let mut s = sim(4, 8);
    // mh5 lives at mss1 (5 % 4). Search from mss0.
    s.with_ctx(|ctx, _| ctx.search_send(MssId(0), MhId(5), "find".into()));
    s.run_to_quiescence(10_000);
    let r = s.protocol();
    assert_eq!(r.mh_msgs.len(), 1);
    assert_eq!(r.mh_msgs[0].0, MhId(5));
    assert_eq!(
        r.mh_msgs[0].1,
        Src::Mss(MssId(0)),
        "src is the search origin"
    );
    let l = s.ledger();
    let c = s.kernel().config().cost;
    assert_eq!(l.searches, 1);
    assert_eq!(l.search_cost, c.c_search);
    assert_eq!(l.wireless_cost, c.c_wireless);
    assert_eq!(l.total_cost(), c.mss_to_remote_mh());
}

#[test]
fn mh_to_mh_message_costs_paper_formula() {
    let mut s = sim(4, 8);
    s.with_ctx(|ctx, _| ctx.mh_send_to_mh(MhId(0), MhId(5), "hi".into()).unwrap());
    s.run_to_quiescence(10_000);
    let r = s.protocol();
    assert_eq!(r.mh_msgs.len(), 1);
    assert_eq!(r.mh_msgs[0].0, MhId(5));
    assert_eq!(r.mh_msgs[0].1, Src::Mh(MhId(0)));
    let c = s.kernel().config().cost;
    // 2 * C_wireless + C_search, exactly the paper's MH→MH cost.
    assert_eq!(s.ledger().total_cost(), c.mh_to_mh());
}

#[test]
fn flood_search_charges_control_messages() {
    let cfg = NetworkConfig::new(8, 8)
        .with_seed(1)
        .with_search(SearchPolicy::Flood);
    let mut s = Simulation::new(cfg, Recorder::default());
    s.with_ctx(|ctx, _| ctx.search_send(MssId(0), MhId(5), "find".into()));
    s.run_to_quiescence(10_000);
    let l = s.ledger();
    let c = s.kernel().config().cost;
    assert_eq!(l.searches, 1);
    // M - 1 queries + reply + forward at C_fixed each.
    assert_eq!(
        l.search_cost,
        SearchPolicy::flood_message_count(8) * c.c_fixed
    );
    assert!(l.search_cost > c.c_fixed, "flood must exceed one fixed hop");
}

#[test]
fn home_agent_search_costs_two_fixed_hops_plus_registrations() {
    let cfg = NetworkConfig::new(8, 8)
        .with_seed(1)
        .with_search(SearchPolicy::HomeAgent);
    let mut s = Simulation::new(cfg, Recorder::default());
    // Move mh5 away from its home cell; the new cell registers.
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(5), Some(MssId(0))));
    s.run_to_quiescence(50_000);
    assert_eq!(s.ledger().custom("ha_registrations"), 1);
    s.with_ctx(|ctx, _| ctx.search_send(MssId(2), MhId(5), "find".into()));
    s.run_to_quiescence(100_000);
    assert_eq!(s.protocol().mh_msgs.len(), 1);
    let l = s.ledger();
    let c = s.kernel().config().cost;
    assert_eq!(l.searches, 1);
    assert_eq!(
        l.search_cost,
        SearchPolicy::home_agent_message_count() * c.c_fixed,
        "two fixed hops per home-agent search"
    );
    assert!(
        l.search_cost < c.c_search,
        "home-agent routing undercuts the abstract C_search default"
    );
}

#[test]
fn home_agent_move_back_home_needs_no_registration() {
    let cfg = NetworkConfig::new(4, 4)
        .with_seed(2)
        .with_search(SearchPolicy::HomeAgent);
    let mut s = Simulation::new(cfg, Recorder::default());
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(1), Some(MssId(3))));
    s.run_to_quiescence(50_000);
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(1), Some(MssId(1))));
    s.run_to_quiescence(100_000);
    // Only the move *away* registered; returning home is free.
    assert_eq!(s.ledger().custom("ha_registrations"), 1);
}

#[test]
fn moved_mh_is_found_with_re_search() {
    let mut s = sim(4, 4);
    // Move mh1 from mss1 to mss3, then search while it is settled there.
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(1), Some(MssId(3))));
    s.run_to_quiescence(50_000);
    assert_eq!(s.kernel().current_cell(MhId(1)), Some(MssId(3)));
    s.with_ctx(|ctx, _| ctx.search_send(MssId(0), MhId(1), "where".into()));
    s.run_to_quiescence(50_000);
    assert_eq!(s.protocol().mh_msgs.len(), 1);
    // Oracle search found it directly: one search, no re-search.
    assert_eq!(s.ledger().searches, 1);
    assert_eq!(s.ledger().re_searches, 0);
}

#[test]
fn search_for_mid_move_mh_eventually_delivers() {
    let mut s = sim(4, 4);
    // Start the move and search while the MH is between cells.
    s.with_ctx(|ctx, _| {
        ctx.initiate_move(MhId(1), Some(MssId(2)));
        ctx.search_send(MssId(0), MhId(1), "catch-me".into());
    });
    s.run_to_quiescence(100_000);
    assert_eq!(
        s.protocol().mh_msgs.len(),
        1,
        "eventual delivery despite the move"
    );
    assert!(
        s.ledger().searches >= 1,
        "at least the initial search is charged"
    );
}

#[test]
fn join_supplies_previous_mss() {
    let mut s = sim(4, 4);
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(2))));
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert_eq!(r.left, vec![(MhId(0), MssId(0))]);
    assert_eq!(r.joined, vec![(MhId(0), MssId(2), Some(MssId(0)))]);
    assert_eq!(s.ledger().moves, 1);
    assert_eq!(s.ledger().handoffs, 1);
}

#[test]
fn prefix_delivery_drops_in_flight_downlink_on_leave() {
    let mut s = sim(2, 2);
    // Send a local downlink and immediately have the MH leave the cell.
    s.with_ctx(|ctx, _| {
        ctx.send_wireless_down(MssId(0), MhId(0), "too-late".into())
            .unwrap();
        ctx.initiate_move(MhId(0), Some(MssId(1)));
    });
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert!(r.mh_msgs.is_empty(), "message must be lost");
    assert_eq!(r.wireless_lost.len(), 1);
    assert_eq!(r.wireless_lost[0].2, "too-late");
    assert_eq!(s.ledger().wireless_losses, 1);
}

#[test]
fn prefix_delivery_drops_in_flight_downlink_after_a_return_to_the_cell() {
    let mut s = sim(2, 2);
    // The downlink lands at tick 2; by then the MH has disconnected and
    // reconnected in the same cell. It was sent to the earlier visit, so it
    // is lost all the same.
    s.with_ctx(|ctx, _| {
        ctx.send_wireless_down(MssId(0), MhId(0), "stale".into())
            .unwrap();
        ctx.initiate_disconnect(MhId(0));
        ctx.initiate_reconnect(MhId(0), Some(MssId(0)), 1);
    });
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert_eq!(r.reconnected.len(), 1);
    assert_eq!(r.reconnected[0].1, MssId(0));
    assert!(r.mh_msgs.is_empty(), "message must be lost");
    assert_eq!(r.wireless_lost.len(), 1);
    assert_eq!(r.wireless_lost[0].2, "stale");
}

#[test]
fn searched_message_survives_leave_and_redelivers() {
    let mut s = sim(4, 4);
    s.with_ctx(|ctx, _| {
        ctx.search_send(MssId(2), MhId(0), "persistent".into());
    });
    // Let the search get under way, then yank the MH out of its cell.
    s.step();
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(3))));
    s.run_to_quiescence(100_000);
    assert_eq!(
        s.protocol().mh_msgs.len(),
        1,
        "search-routed delivery is eventual"
    );
    assert_eq!(s.protocol().mh_msgs[0].2, "persistent");
}

#[test]
fn uplink_while_between_cells_is_buffered_until_join() {
    let mut s = sim(3, 3);
    s.set_trace_sink(Box::new(RingSink::new(64)));
    // The leave takes effect synchronously; the join is a future event.
    s.with_ctx(|ctx, _| {
        ctx.initiate_move(MhId(0), Some(MssId(2)));
        assert_eq!(ctx.mh_status(MhId(0)), MhStatus::BetweenCells);
        ctx.send_wireless_up(MhId(0), "deferred".into()).unwrap();
    });
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert_eq!(r.mss_msgs.len(), 1);
    assert_eq!(r.mss_msgs[0].0, MssId(2), "flushed to the NEW cell");
    assert_eq!(r.mss_msgs[0].2, "deferred");
    // The join is traced before the uplink it flushes.
    let sink = s.finish_trace().expect("sink installed");
    let ring = sink.as_any().downcast_ref::<RingSink>().expect("ring sink");
    let names: Vec<&str> = ring.iter().map(|(_, _, ev)| ev.name()).collect();
    assert_eq!(
        names,
        ["handoff_begin", "handoff_end", "up_send", "up_recv"]
    );
}

#[test]
fn disconnect_sets_flag_and_search_fails_back_to_origin() {
    let mut s = sim(4, 4);
    s.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(1)));
    s.run_to_quiescence(10_000);
    assert_eq!(s.kernel().mh_status(MhId(1)), MhStatus::Disconnected);
    assert!(s.kernel().mh_disconnected_here(MssId(1), MhId(1)));
    s.with_ctx(|ctx, _| ctx.search_send(MssId(0), MhId(1), "lost-cause".into()));
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert!(r.mh_msgs.is_empty());
    assert_eq!(r.search_failed.len(), 1);
    assert_eq!(r.search_failed[0].0, MssId(0), "origin is notified");
    assert_eq!(r.search_failed[0].2, "lost-cause");
    assert_eq!(s.ledger().search_failures, 1);
}

#[test]
fn disconnected_mh_cannot_transmit() {
    let mut s = sim(2, 2);
    s.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(0)));
    s.run_to_quiescence(10_000);
    let err = s.with_ctx(|ctx, _| ctx.send_wireless_up(MhId(0), "nope".into()));
    assert_eq!(err.unwrap_err(), NetError::Disconnected { mh: MhId(0) });
}

#[test]
fn reconnect_clears_flag_and_resumes_delivery() {
    let mut s = sim(4, 4);
    s.with_ctx(|ctx, _| ctx.initiate_disconnect(MhId(1)));
    s.run_to_quiescence(10_000);
    s.with_ctx(|ctx, _| ctx.initiate_reconnect(MhId(1), Some(MssId(2)), 5));
    s.run_to_quiescence(10_000);
    assert_eq!(s.kernel().mh_status(MhId(1)), MhStatus::Connected);
    assert_eq!(s.kernel().current_cell(MhId(1)), Some(MssId(2)));
    assert!(!s.kernel().mh_disconnected_here(MssId(1), MhId(1)));
    assert_eq!(s.protocol().reconnected.len(), 1);
    // Deliveries work again.
    s.with_ctx(|ctx, _| ctx.search_send(MssId(0), MhId(1), "back".into()));
    s.run_to_quiescence(50_000);
    assert_eq!(s.protocol().mh_msgs.len(), 1);
}

#[test]
fn doze_interruptions_are_counted() {
    let mut s = sim(2, 2);
    s.with_ctx(|ctx, _| {
        ctx.set_doze(MhId(0), true);
        ctx.send_wireless_down(MssId(0), MhId(0), "wake!".into())
            .unwrap();
    });
    s.run_to_quiescence(10_000);
    assert_eq!(s.ledger().doze_interruptions, 1);
    assert_eq!(s.protocol().mh_msgs.len(), 1, "delivery still happens");
    // Non-dozing delivery adds no interruption.
    s.with_ctx(|ctx, _| {
        ctx.set_doze(MhId(0), false);
        ctx.send_wireless_down(MssId(0), MhId(0), "again".into())
            .unwrap();
    });
    s.run_to_quiescence(20_000);
    assert_eq!(s.ledger().doze_interruptions, 1);
}

#[test]
fn timers_fire_in_order() {
    let mut s = sim(1, 1);
    s.with_ctx(|ctx, _| {
        ctx.set_timer(30, 3);
        ctx.set_timer(10, 1);
        ctx.set_timer(20, 2);
    });
    s.run_to_quiescence(10_000);
    assert_eq!(s.protocol().timers, vec![1, 2, 3]);
}

#[test]
fn fixed_channel_is_fifo_per_pair() {
    // With uniform random latencies, later sends could overtake earlier
    // ones; the FIFO chain must prevent it.
    let mut cfg = NetworkConfig::new(2, 1).with_seed(77);
    cfg.latency.fixed = LatencyModel::Uniform { lo: 1, hi: 50 };
    let mut s = Simulation::new(cfg, Recorder::default());
    s.with_ctx(|ctx, _| {
        for i in 0..50 {
            ctx.send_fixed(MssId(0), MssId(1), format!("m{i}"));
        }
    });
    s.run_to_quiescence(100_000);
    let got: Vec<&str> = s
        .protocol()
        .mss_msgs
        .iter()
        .map(|(_, _, m)| m.as_str())
        .collect();
    let want: Vec<String> = (0..50).map(|i| format!("m{i}")).collect();
    assert_eq!(got, want.iter().map(|s| s.as_str()).collect::<Vec<_>>());
}

#[test]
fn mh_to_mh_is_fifo_even_across_moves() {
    let mut cfg = NetworkConfig::new(4, 4).with_seed(5);
    cfg.latency.search = LatencyModel::Uniform { lo: 1, hi: 40 };
    cfg.latency.wireless = LatencyModel::Uniform { lo: 1, hi: 10 };
    let mut s = Simulation::new(cfg, Recorder::default());
    s.with_ctx(|ctx, _| {
        for i in 0..10 {
            ctx.mh_send_to_mh(MhId(0), MhId(3), format!("f{i}"))
                .unwrap();
        }
        // Receiver moves while messages are in flight.
        ctx.initiate_move(MhId(3), Some(MssId(0)));
    });
    s.run_to_quiescence(500_000);
    let got: Vec<&str> = s
        .protocol()
        .mh_msgs
        .iter()
        .map(|(_, _, m)| m.as_str())
        .collect();
    let want: Vec<String> = (0..10).map(|i| format!("f{i}")).collect();
    assert_eq!(got, want.iter().map(|s| s.as_str()).collect::<Vec<_>>());
}

#[test]
fn autonomous_mobility_generates_moves_deterministically() {
    let cfg = NetworkConfig::new(4, 16)
        .with_seed(3)
        .with_mobility(MobilityConfig::moving(100));
    let mut a = Simulation::new(cfg.clone(), Recorder::default());
    let mut b = Simulation::new(cfg, Recorder::default());
    a.run_until(SimTime::from_ticks(5_000));
    b.run_until(SimTime::from_ticks(5_000));
    assert!(
        a.ledger().moves > 10,
        "expected many moves, saw {}",
        a.ledger().moves
    );
    assert_eq!(a.ledger(), b.ledger(), "same seed ⇒ identical run");
    assert_eq!(a.protocol().joined, b.protocol().joined);
}

#[test]
fn autonomous_disconnects_reconnect_eventually() {
    let cfg = NetworkConfig::new(4, 8)
        .with_seed(8)
        .with_disconnect(DisconnectConfig {
            enabled: true,
            mean_uptime: 300,
            mean_downtime: 50,
            p_supply_prev: 1.0,
        });
    let mut s = Simulation::new(cfg, Recorder::default());
    s.run_until(SimTime::from_ticks(5_000));
    assert!(s.ledger().disconnects > 0);
    assert!(s.ledger().reconnects > 0);
    assert_eq!(
        s.protocol().disconnected.len() as u64,
        s.ledger().disconnects
    );
}

#[test]
fn control_messages_do_not_pollute_algorithm_counters() {
    let cfg = NetworkConfig::new(4, 8)
        .with_seed(4)
        .with_mobility(MobilityConfig::moving(50));
    let mut s = Simulation::new(cfg, Recorder::default());
    s.run_until(SimTime::from_ticks(2_000));
    let l = s.ledger();
    assert!(l.moves > 0);
    assert_eq!(
        l.fixed_msgs, 0,
        "no algorithm ran; counters must stay clean"
    );
    assert_eq!(l.wireless_msgs, 0);
    assert!(
        l.custom("control_wireless") > 0,
        "control plane is accounted separately"
    );
}

#[test]
fn local_mh_lists_track_membership() {
    let mut s = sim(3, 6);
    assert_eq!(
        s.kernel().local_mhs(MssId(0)).collect::<Vec<_>>(),
        vec![MhId(0), MhId(3)]
    );
    s.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(1))));
    s.run_to_quiescence(50_000);
    assert_eq!(
        s.kernel().local_mhs(MssId(0)).collect::<Vec<_>>(),
        vec![MhId(3)]
    );
    assert!(s.kernel().is_local(MssId(1), MhId(0)));
}

#[test]
fn cell_broadcast_charges_once_and_reaches_all_locals() {
    let mut s = sim(2, 6); // mh0,2,4 at mss0; mh1,3,5 at mss1
    let n = s.with_ctx(|ctx, _| ctx.broadcast_cell(MssId(0), "hi".into()));
    assert_eq!(n, 3);
    s.run_to_quiescence(10_000);
    let r = s.protocol();
    assert_eq!(r.mh_msgs.len(), 3);
    let mut who: Vec<MhId> = r.mh_msgs.iter().map(|(mh, _, _)| *mh).collect();
    who.sort();
    assert_eq!(who, vec![MhId(0), MhId(2), MhId(4)]);
    let l = s.ledger();
    // One channel use; three receptions' worth of energy.
    assert_eq!(l.wireless_msgs, 1);
    assert_eq!(l.wireless_cost, s.kernel().config().cost.c_wireless);
    assert_eq!(l.total_energy(), 3);
}

#[test]
fn cell_broadcast_to_empty_cell_is_free() {
    let mut s = sim(3, 2); // mss2 has no MHs
    let n = s.with_ctx(|ctx, _| ctx.broadcast_cell(MssId(2), "void".into()));
    assert_eq!(n, 0);
    s.run_to_quiescence(10_000);
    assert_eq!(s.ledger().wireless_msgs, 0);
    assert!(s.protocol().mh_msgs.is_empty());
}

#[test]
fn cell_broadcast_respects_prefix_delivery() {
    let mut s = sim(2, 4);
    s.with_ctx(|ctx, _| {
        ctx.broadcast_cell(MssId(0), "catch".into());
        // mh0 leaves before the broadcast lands; mh2 stays.
        ctx.initiate_move(MhId(0), Some(MssId(1)));
    });
    s.run_to_quiescence(50_000);
    let r = s.protocol();
    assert_eq!(r.mh_msgs.len(), 1, "only the staying MH hears it");
    assert_eq!(r.mh_msgs[0].0, MhId(2));
    assert_eq!(r.wireless_lost.len(), 1);
    assert_eq!(r.wireless_lost[0].1, MhId(0));
}
