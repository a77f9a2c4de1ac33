//! Batched vs unbatched delivery must be observationally equivalent.
//!
//! The delivery engine's contract (DESIGN.md §7): flipping
//! [`DeliveryMode`] changes how many wheel events and protocol callbacks
//! carry a same-tick run — never *what* the protocol observes or what the
//! run costs. These tests drive a chatty workload — wired broadcast storms,
//! cell broadcasts, uplink echo storms, mobility, a crash and a partition —
//! through both modes and require:
//!
//! * identical callback sequences (the protocol's own log),
//! * identical cost ledgers and `events_processed` totals,
//! * per-tick trace **multiset** equality (within one tick the batched
//!   trace groups a run's receive records before the fused callback, so
//!   only the interleaving may differ — never the events themselves),
//! * that batches really form (`deliver_batch` appears, lengths ≥ 2) and
//!   flatten in arrival order,
//! * and that the reference really runs one wheel event per message.

use mobidist_net::prelude::*;
use mobidist_net::time::SimTime;
use std::collections::BTreeMap;

/// Payloads of the storm protocol.
#[derive(Debug, Clone)]
enum SMsg {
    /// MSS↔MSS wave, carrying its round.
    Wired(u32),
    /// MSS→cell broadcast payload.
    Down(u32),
    /// MH→MSS echo.
    Up,
}

/// Creates same-(tick, destination) pileups on purpose: every MSS opens
/// with a wired broadcast, every wired arrival below the round cap
/// re-broadcasts, round-1 arrivals also broadcast to their cell, and every
/// MH echoes the first downlink back up — so each MSS sees `M - 1` wired
/// arrivals per tick and each cell's echoes land together two ticks later.
#[derive(Debug, Default)]
struct Storm {
    log: Vec<String>,
}

impl Protocol for Storm {
    type Msg = SMsg;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, SMsg, ()>) {
        for m in 0..ctx.num_mss() {
            ctx.broadcast_fixed(MssId(m as u32), SMsg::Wired(0));
        }
    }

    fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, SMsg, ()>, at: MssId, src: Src, msg: SMsg) {
        self.log.push(format!("mss {at:?} {src:?} {msg:?}"));
        match msg {
            SMsg::Wired(h) if h < 2 => {
                ctx.broadcast_fixed(at, SMsg::Wired(h + 1));
                if h == 1 {
                    ctx.broadcast_cell(at, SMsg::Down(0));
                }
            }
            _ => {}
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut Ctx<'_, SMsg, ()>, at: MhId, src: Src, msg: SMsg) {
        self.log.push(format!("mh {at:?} {src:?} {msg:?}"));
        if let SMsg::Down(0) = msg {
            let _ = ctx.send_wireless_up(at, SMsg::Up);
        }
    }
}

struct RunOut {
    log: Vec<String>,
    ledger: CostLedger,
    events_processed: u64,
    /// Per-kind event counts over the whole trace.
    kinds: BTreeMap<String, usize>,
    /// Serialized trace events grouped per tick, each group sorted — the
    /// within-tick order is the one thing the modes may disagree on.
    per_tick: BTreeMap<u64, Vec<String>>,
}

fn storm_run(mode: DeliveryMode) -> RunOut {
    let cfg = NetworkConfig::new(6, 24)
        .with_seed(9)
        .with_delivery(mode)
        .with_mobility(MobilityConfig::moving(150))
        .with_fault(
            FaultConfig::none()
                .with_event(
                    40,
                    FaultKind::MssCrash {
                        mss: 2,
                        down_for: 60,
                    },
                )
                .with_event(
                    70,
                    FaultKind::Partition {
                        cut: 3,
                        heal_after: 50,
                    },
                ),
        );
    let mut sim = Simulation::new(cfg, Storm::default());
    sim.set_trace_sink(Box::new(RingSink::new(1 << 20)));
    sim.run_until(SimTime::from_ticks(5_000));
    let events_processed = sim.kernel().events_processed();
    let sink = sim.finish_trace().expect("sink installed");
    let ring = sink.as_any().downcast_ref::<RingSink>().expect("ring sink");
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_tick: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for (t, _, ev) in ring.iter() {
        *kinds.entry(ev.name().to_string()).or_default() += 1;
        if ev.name() != "deliver_batch" {
            per_tick
                .entry(t.ticks())
                .or_default()
                .push(format!("{ev:?}"));
        }
    }
    for group in per_tick.values_mut() {
        group.sort();
    }
    RunOut {
        log: std::mem::take(&mut sim.protocol_mut().log),
        ledger: sim.ledger().clone(),
        events_processed,
        kinds,
        per_tick,
    }
}

#[test]
fn storm_runs_are_equivalent_across_modes() {
    let batched = storm_run(DeliveryMode::Batched);
    let unbatched = storm_run(DeliveryMode::Unbatched);

    assert!(
        batched.log.len() > 500,
        "the storm must actually generate traffic, got {} callbacks",
        batched.log.len()
    );
    assert_eq!(batched.log, unbatched.log, "callback sequences diverged");
    assert_eq!(batched.ledger, unbatched.ledger, "cost ledgers diverged");
    assert_eq!(
        batched.events_processed, unbatched.events_processed,
        "logical event totals diverged"
    );

    // Batches must really form, and only in batched mode.
    let deliver_batches = batched.kinds.get("deliver_batch").copied().unwrap_or(0);
    assert!(deliver_batches > 0, "no run ever coalesced");
    assert!(!unbatched.kinds.contains_key("deliver_batch"));

    // Per-kind counts agree once the diagnostic marker is set aside.
    let mut batched_kinds = batched.kinds.clone();
    batched_kinds.remove("deliver_batch");
    assert_eq!(batched_kinds, unbatched.kinds, "event-kind counts diverged");

    // Per-tick multiset equality: same events at every tick, whatever the
    // within-tick interleaving.
    assert_eq!(
        batched.per_tick, unbatched.per_tick,
        "per-tick trace multisets diverged"
    );
}

#[test]
fn reruns_are_identical_within_each_mode() {
    for mode in [DeliveryMode::Batched, DeliveryMode::Unbatched] {
        let a = storm_run(mode);
        let b = storm_run(mode);
        assert_eq!(a.log, b.log);
        assert_eq!(a.ledger, b.ledger);
        assert_eq!(a.kinds, b.kinds);
    }
}

/// Records whether deliveries arrived alone or in a batch, flattening
/// batches itself (no default unroll) so the test can compare order.
#[derive(Debug, Default)]
struct BatchObserver {
    singles: Vec<(MssId, Src, u32)>,
    batch_lens: Vec<usize>,
}

impl Protocol for BatchObserver {
    type Msg = u32;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        // Every MH fires at once: each cell's uplinks share one arrival
        // tick, so each MSS gets one N/M-long run.
        for mh in 0..ctx.num_mh() {
            let _ = ctx.send_wireless_up(MhId(mh as u32), mh as u32);
        }
    }

    fn on_mss_msg(&mut self, _: &mut Ctx<'_, u32, ()>, at: MssId, src: Src, msg: u32) {
        self.singles.push((at, src, msg));
    }

    fn on_mh_msg(&mut self, _: &mut Ctx<'_, u32, ()>, _: MhId, _: Src, _: u32) {}

    fn on_mss_batch(&mut self, _: &mut Ctx<'_, u32, ()>, at: MssId, batch: MsgBatch<'_, u32>) {
        self.batch_lens.push(batch.len());
        for (src, msg) in batch {
            self.singles.push((at, src, msg));
        }
    }
}

#[test]
fn batches_flatten_in_arrival_order() {
    // All 20 hosts in one cell: their uplinks form one consecutive
    // same-(tick, destination) run, i.e. exactly one batch. (Batch
    // formation is *run*-based — round-robin placement would interleave
    // destinations in `(time, seq)` order, and a coalescer that skipped
    // over other destinations to merge them would reorder callbacks.)
    let run = |mode| {
        let cfg = NetworkConfig::new(4, 20)
            .with_seed(3)
            .with_placement(Placement::Clustered { cells: 1 })
            .with_delivery(mode);
        let mut sim = Simulation::new(cfg, BatchObserver::default());
        sim.run_to_quiescence(10_000);
        (
            sim.protocol().singles.clone(),
            sim.protocol().batch_lens.clone(),
        )
    };
    let (batched_singles, batched_lens) = run(DeliveryMode::Batched);
    let (unbatched_singles, unbatched_lens) = run(DeliveryMode::Unbatched);

    assert_eq!(batched_singles.len(), 20, "every uplink must arrive");
    assert_eq!(batched_singles, unbatched_singles, "arrival order diverged");
    assert!(unbatched_lens.is_empty(), "unbatched mode must never batch");
    assert_eq!(batched_lens, vec![20]);
}

/// One wired broadcast and one cell broadcast from MSS 0, counting the
/// callbacks they yield.
#[derive(Debug, Default)]
struct TwoBroadcasts {
    callbacks: usize,
}

impl Protocol for TwoBroadcasts {
    type Msg = ();
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        ctx.broadcast_fixed(MssId(0), ());
        ctx.broadcast_cell(MssId(0), ());
    }

    fn on_mss_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MssId, _: Src, _: ()) {
        self.callbacks += 1;
    }

    fn on_mh_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MhId, _: Src, _: ()) {
        self.callbacks += 1;
    }
}

#[test]
fn the_reference_runs_one_wheel_event_per_message() {
    // The equivalence tests above cannot tell a reference that fuses from
    // one that does not, since both sides would then run the same path;
    // this one counts wheel events. Five cells, fifteen hosts (three in
    // cell 0), default latencies: the wired broadcast's four deliveries
    // share a tick, and so do the cell broadcast's three.
    let run = |mode| {
        let cfg = NetworkConfig::new(5, 15).with_delivery(mode);
        let mut sim = Simulation::new(cfg, TwoBroadcasts::default());
        let mut steps = 0;
        while sim.step() {
            steps += 1;
        }
        (steps, sim.protocol().callbacks)
    };
    // Batched: one `FixedFanout` and one `DownFanout`.
    assert_eq!(run(DeliveryMode::Batched), (2, 7));
    assert_eq!(run(DeliveryMode::Unbatched), (7, 7));
}
