//! Tier-1 pin of the order in which the kernel calls a protocol.
//!
//! One seeded scenario produces every [`Protocol`] callback kind: wired
//! fan-outs and same-tick coalesced batches, cell broadcasts, uplinks,
//! searched sends and search failures, MH→MH sends reordered by uneven
//! search latency, roaming, disconnection with and without the previous
//! MSS supplied, a crash with recovery, a partition with a heal and a
//! handoff storm — and callbacks that themselves move, disconnect and send.
//! [`Recorder`] logs each callback as `(now, kind, ids, src, msg)`; the log
//! is hashed with FNV-1a and pinned per [`DeliveryMode`] (the two modes
//! differ only in how a coalesced run reaches the protocol). The pins were
//! recorded before the kernel learned to call an event's single callback
//! straight off the wheel, so any reordering that change could make moves
//! them.
//!
//! The same scenario also runs through a `step()` loop, which must log
//! exactly what `run_until` logs; [`Guard`] checks that no callback is
//! entered while another is running and that a move or disconnection a
//! callback initiates reaches the protocol at the tick it was initiated;
//! and a move initiated through the kernel outside any callback keeps its
//! place ahead of the next event's callback.

use mobidist::net::prelude::*;
use std::collections::BTreeMap;

const M: usize = 5;
const N: usize = 14;
const HORIZON: u64 = 16_000;
/// Timer period of the scenario's traffic driver.
const PERIOD: u64 = 37;

/// FNV-1a of the `Batched` log, recorded before the direct callback hop.
const BATCHED_HASH: u64 = 0x0553_8e74_83ba_4a59;
/// FNV-1a of the `Unbatched` log, recorded before the direct callback hop.
const UNBATCHED_HASH: u64 = 0xcd17_b715_6d73_b88e;

#[derive(Debug, Clone)]
enum Msg {
    /// A wired broadcast wave and its round.
    Wave(u32),
    /// MH → its MSS.
    Up(u32),
    /// MSS → a local MH, answering an `Up`.
    Down(u32),
    /// A cell broadcast.
    Cell(u32),
    /// Plain wired unicast; the receiver searches for an MH with it.
    Hop(u32),
    /// A search-routed MSS → MH message.
    Found(u32),
    /// MH → MH transport.
    Peer(u32),
}

/// Logs every callback and drives the scenario's traffic from them.
#[derive(Debug, Default)]
struct Recorder {
    log: Vec<String>,
    /// Searched payloads sent and not yet delivered or failed, per id.
    searching: BTreeMap<u32, u32>,
    /// Last `Peer` payload each ordered MH pair delivered.
    peer_last: BTreeMap<(MhId, MhId), u32>,
}

impl Recorder {
    fn note(
        &mut self,
        ctx: &Ctx<'_, Msg, u32>,
        kind: &str,
        ids: String,
        src: Option<Src>,
        msg: Option<&Msg>,
    ) {
        self.log.push(format!(
            "{} {kind} {ids} {src:?} {msg:?}",
            ctx.now().ticks()
        ));
    }

    fn search(&mut self, ctx: &mut Ctx<'_, Msg, u32>, origin: MssId, mh: MhId, k: u32) {
        *self.searching.entry(k).or_default() += 1;
        ctx.search_send(origin, mh, Msg::Found(k));
    }

    /// A searched payload ends exactly once: delivered, or handed back.
    fn search_ended(&mut self, k: u32) {
        let n = self.searching.get_mut(&k).filter(|n| **n > 0);
        *n.expect("a searched payload ended twice") -= 1;
    }

    /// What an MSS does with one delivered message, whether it came alone
    /// or in a batch, so both delivery modes act identically.
    fn act_at_mss(&mut self, ctx: &mut Ctx<'_, Msg, u32>, at: MssId, src: Src, msg: Msg) {
        match msg {
            Msg::Wave(r) if r < 2 => ctx.broadcast_fixed(at, Msg::Wave(r + 1)),
            Msg::Up(k) => {
                let Src::Mh(mh) = src else { return };
                // Answer, then sometimes move or disconnect the sender at
                // once: the answer is then lost on the downlink.
                let _ = ctx.send_wireless_down(at, mh, Msg::Down(k));
                if k.is_multiple_of(5) {
                    ctx.initiate_move(mh, None);
                } else if k.is_multiple_of(7) {
                    ctx.initiate_disconnect(mh);
                } else if k.is_multiple_of(3) {
                    ctx.send_fixed(at, MssId((at.0 + 1) % M as u32), Msg::Hop(k));
                }
            }
            Msg::Hop(k) => self.search(ctx, at, MhId(k % N as u32), k),
            _ => {}
        }
    }
}

impl Protocol for Recorder {
    type Msg = Msg;
    type Timer = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg, u32>) {
        // Every MSS broadcasts at tick 0 and every MH uplinks: the wired
        // arrivals and each cell's uplinks share a tick, so runs coalesce.
        for m in 0..M as u32 {
            ctx.broadcast_fixed(MssId(m), Msg::Wave(0));
        }
        for h in 0..N as u32 {
            let _ = ctx.send_wireless_up(MhId(h), Msg::Up(1000 + h));
        }
        ctx.set_timer(PERIOD, 0);
    }

    fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, Msg, u32>, at: MssId, src: Src, msg: Msg) {
        self.note(ctx, "mss", format!("{at:?}"), Some(src), Some(&msg));
        self.act_at_mss(ctx, at, src, msg);
    }

    fn on_mss_batch(&mut self, ctx: &mut Ctx<'_, Msg, u32>, at: MssId, batch: MsgBatch<'_, Msg>) {
        let msgs: Vec<(Src, Msg)> = batch.collect();
        self.note(ctx, "batch", format!("{at:?} {msgs:?}"), None, None);
        for (src, msg) in msgs {
            self.act_at_mss(ctx, at, src, msg);
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut Ctx<'_, Msg, u32>, at: MhId, src: Src, msg: Msg) {
        self.note(ctx, "mh", format!("{at:?}"), Some(src), Some(&msg));
        match msg {
            Msg::Down(k) if k < 1000 && k.is_multiple_of(2) => {
                let _ = ctx.send_wireless_up(at, Msg::Up(k + 1000));
            }
            Msg::Cell(r) if r.is_multiple_of(2) => {
                let _ = ctx.send_wireless_up(at, Msg::Up(2000 + r));
            }
            Msg::Found(k) => self.search_ended(k),
            Msg::Peer(k) => {
                // Per ordered pair, MH→MH delivery keeps send order.
                let Src::Mh(from) = src else {
                    panic!("MH→MH payload from {src:?}")
                };
                let last = self.peer_last.insert((from, at), k);
                assert!(last < Some(k), "{from:?}→{at:?}: {k} after {last:?}");
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg, u32>, round: u32) {
        self.note(ctx, "timer", format!("{round}"), None, None);
        let (m, n) = (M as u32, N as u32);
        let _ = ctx.send_wireless_up(MhId(round % n), Msg::Up(round));
        // Two back-to-back MH→MH sends on one pair: uneven search latency
        // and moves make the second overtake the first now and then.
        let (a, b) = (MhId((round * 3) % n), MhId((round * 5 + 1) % n));
        if a != b {
            let _ = ctx.mh_send_to_mh(a, b, Msg::Peer(2 * round));
            let _ = ctx.mh_send_to_mh(a, b, Msg::Peer(2 * round + 1));
        }
        if round.is_multiple_of(3) {
            ctx.broadcast_cell(MssId(round % m), Msg::Cell(round));
        }
        if round.is_multiple_of(4) {
            ctx.broadcast_fixed(MssId(round % m), Msg::Wave(0));
        }
        if round.is_multiple_of(5) {
            self.search(ctx, MssId(0), MhId((round * 7) % n), round);
        }
        if ctx.now().ticks() + PERIOD <= HORIZON {
            ctx.set_timer(PERIOD, round + 1);
        }
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, Msg, u32>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.note(
            ctx,
            "joined",
            format!("{mh:?} {mss:?} {prev:?}"),
            None,
            None,
        );
        if mh.0.is_multiple_of(4) {
            ctx.send_fixed(mss, prev.unwrap_or(mss), Msg::Hop(mh.0));
        }
    }

    fn on_mh_left(&mut self, ctx: &mut Ctx<'_, Msg, u32>, mh: MhId, mss: MssId) {
        self.note(ctx, "left", format!("{mh:?} {mss:?}"), None, None);
    }

    fn on_mh_disconnected(&mut self, ctx: &mut Ctx<'_, Msg, u32>, mh: MhId, mss: MssId) {
        self.note(ctx, "disconnected", format!("{mh:?} {mss:?}"), None, None);
        if mh.0.is_multiple_of(2) {
            ctx.initiate_reconnect(mh, None, 50);
        }
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut Ctx<'_, Msg, u32>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.note(
            ctx,
            "reconnected",
            format!("{mh:?} {mss:?} {prev:?}"),
            None,
            None,
        );
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut Ctx<'_, Msg, u32>,
        origin: MssId,
        target: MhId,
        msg: Msg,
    ) {
        self.note(
            ctx,
            "search_failed",
            format!("{origin:?} {target:?}"),
            None,
            Some(&msg),
        );
        if let Msg::Found(k) = msg {
            self.search_ended(k);
        }
    }

    fn on_wireless_lost(&mut self, ctx: &mut Ctx<'_, Msg, u32>, mss: MssId, mh: MhId, msg: Msg) {
        self.note(
            ctx,
            "wireless_lost",
            format!("{mss:?} {mh:?}"),
            None,
            Some(&msg),
        );
    }

    fn on_mss_crashed(&mut self, ctx: &mut Ctx<'_, Msg, u32>, mss: MssId) {
        self.note(ctx, "crashed", format!("{mss:?}"), None, None);
    }

    fn on_mss_recovered(&mut self, ctx: &mut Ctx<'_, Msg, u32>, mss: MssId) {
        self.note(ctx, "recovered", format!("{mss:?}"), None, None);
    }
}

fn scenario(mode: DeliveryMode) -> NetworkConfig {
    NetworkConfig::new(M, N)
        .with_seed(27)
        .with_delivery(mode)
        .with_latency(LatencyConfig {
            fixed: LatencyModel::Fixed(4),
            wireless: LatencyModel::Uniform { lo: 1, hi: 3 },
            search: LatencyModel::Uniform { lo: 3, hi: 14 },
        })
        .with_mobility(MobilityConfig::moving(900))
        .with_disconnect(DisconnectConfig {
            enabled: true,
            mean_uptime: 4_000,
            mean_downtime: 300,
            p_supply_prev: 0.5,
        })
        .with_fault(
            FaultConfig::none()
                .with_event(
                    3_000,
                    FaultKind::MssCrash {
                        mss: 1,
                        down_for: 900,
                    },
                )
                .with_event(
                    6_000,
                    FaultKind::Partition {
                        cut: 2,
                        heal_after: 700,
                    },
                )
                .with_event(9_000, FaultKind::HandoffStorm { count: 6 }),
        )
}

fn run_until_log(mode: DeliveryMode) -> Vec<String> {
    let mut sim = Simulation::new(scenario(mode), Recorder::default());
    sim.run_until(SimTime::from_ticks(HORIZON));
    std::mem::take(&mut sim.protocol_mut().log)
}

/// Downlink arrivals the MH→MH resequencer held back: an MH that receives
/// more messages in a tick than it gets callbacks for kept one waiting for
/// a predecessor that was overtaken in flight. The trace only observes, so
/// this run's log is the one [`run_until_log`] returns.
fn held_arrivals(mode: DeliveryMode) -> usize {
    let mut sim = Simulation::new(scenario(mode), Recorder::default());
    sim.set_trace_sink(Box::new(RingSink::new(1 << 20)));
    sim.run_until(SimTime::from_ticks(HORIZON));
    let sink = sim.finish_trace().expect("sink installed");
    let ring = sink.as_any().downcast_ref::<RingSink>().expect("ring sink");
    let mut surplus: BTreeMap<(u64, String), i64> = BTreeMap::new();
    for (t, _, ev) in ring.iter() {
        if let TraceEvent::DownRecv { mh, .. } = ev {
            *surplus.entry((t.ticks(), format!("{mh:?}"))).or_default() += 1;
        }
    }
    for line in &sim.protocol().log {
        let mut f = line.split(' ');
        let (t, kind, mh) = (f.next(), f.next(), f.next());
        if kind == Some("mh") {
            let t = t.and_then(|t| t.parse().ok()).expect("tick");
            *surplus.entry((t, mh.expect("mh").to_string())).or_default() -= 1;
        }
    }
    surplus.values().filter(|&&d| d > 0).count()
}

fn step_log(mode: DeliveryMode) -> Vec<String> {
    let mut sim = Simulation::new(scenario(mode), Recorder::default());
    let horizon = SimTime::from_ticks(HORIZON);
    sim.start();
    while sim.kernel().next_event_time().is_some_and(|t| t <= horizon) {
        assert!(sim.step());
    }
    std::mem::take(&mut sim.protocol_mut().log)
}

fn fnv1a(log: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in log {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn count(log: &[String], kind: &str) -> usize {
    log.iter()
        .filter(|l| l.split(' ').nth(1) == Some(kind))
        .count()
}

/// The scenario must reach every callback kind, or the pins prove little.
fn assert_covers_every_kind(log: &[String], batched: bool) {
    for kind in [
        "mss",
        "mh",
        "timer",
        "joined",
        "left",
        "disconnected",
        "reconnected",
        "search_failed",
        "wireless_lost",
        "crashed",
        "recovered",
    ] {
        assert!(count(log, kind) > 0, "no {kind} callback in the scenario");
    }
    assert_eq!(
        count(log, "batch") > 0,
        batched,
        "batch callbacks iff batched"
    );
    let reconnects = log
        .iter()
        .filter(|l| l.split(' ').nth(1) == Some("reconnected"));
    let (with_prev, without): (Vec<&String>, Vec<&String>) =
        reconnects.partition(|l| !l.ends_with("None None None"));
    assert!(
        !with_prev.is_empty() && !without.is_empty(),
        "reconnects both with and without prev"
    );
}

#[test]
fn callback_order_matches_the_recorded_hashes() {
    let batched = run_until_log(DeliveryMode::Batched);
    let unbatched = run_until_log(DeliveryMode::Unbatched);
    assert_covers_every_kind(&batched, true);
    assert_covers_every_kind(&unbatched, false);
    assert!(
        held_arrivals(DeliveryMode::Batched) > 0,
        "no MH→MH send was overtaken in flight"
    );
    let (hb, hu) = (fnv1a(&batched), fnv1a(&unbatched));
    assert_eq!(
        (hb, hu),
        (BATCHED_HASH, UNBATCHED_HASH),
        "callback order moved: batched {hb:#018x} ({} callbacks), unbatched {hu:#018x} ({} callbacks)",
        batched.len(),
        unbatched.len()
    );
}

#[test]
fn step_loop_logs_what_run_until_logs() {
    for mode in [DeliveryMode::Batched, DeliveryMode::Unbatched] {
        let stepped = step_log(mode);
        let ran = run_until_log(mode);
        assert_eq!(stepped.len(), ran.len(), "{mode:?}");
        if let Some(i) = stepped.iter().zip(&ran).position(|(a, b)| a != b) {
            panic!(
                "{mode:?}: callback {i} differs: {} vs {}",
                stepped[i], ran[i]
            );
        }
    }
}

/// Moves and disconnects hosts from inside its callbacks and panics if a
/// callback is entered while another one runs, or if a move or
/// disconnection it initiated is not delivered at the tick it began.
#[derive(Debug, Default)]
struct Guard {
    busy: bool,
    /// Initiated leaves and disconnections not yet delivered, with their
    /// tick.
    owed: Vec<(MhId, SimTime)>,
    initiated: u32,
    delivered: u32,
}

impl Guard {
    fn enter(&mut self, ctx: &Ctx<'_, u32, u32>) {
        assert!(!self.busy, "a callback was entered while another one ran");
        self.busy = true;
        let now = ctx.now();
        assert!(
            self.owed.iter().all(|&(_, t)| t == now),
            "an initiated move or disconnection was not delivered at its tick: {:?} at {now:?}",
            self.owed
        );
    }

    fn exit(&mut self) {
        self.busy = false;
    }

    /// Moves or disconnects `mh` when it is connected, and sends on its
    /// behalf either way.
    fn stir(&mut self, ctx: &mut Ctx<'_, u32, u32>, mh: MhId, k: u32) {
        if ctx.mh_status(mh) == MhStatus::Connected {
            if k.is_multiple_of(3) {
                ctx.initiate_disconnect(mh);
            } else {
                ctx.initiate_move(mh, None);
            }
            self.owed.push((mh, ctx.now()));
            self.initiated += 1;
        } else if ctx.mh_status(mh) == MhStatus::Disconnected {
            ctx.initiate_reconnect(mh, None, 5);
        }
        let _ = ctx.send_wireless_up(mh, k);
        ctx.broadcast_fixed(MssId(k % M as u32), k);
    }

    fn settle(&mut self, mh: MhId) {
        if let Some(i) = self.owed.iter().position(|&(h, _)| h == mh) {
            self.owed.swap_remove(i);
            self.delivered += 1;
        }
    }
}

impl Protocol for Guard {
    type Msg = u32;
    type Timer = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, u32>) {
        ctx.set_timer(3, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, u32>, k: u32) {
        self.enter(ctx);
        self.stir(ctx, MhId(k % N as u32), k);
        if k < 400 {
            ctx.set_timer(7, k + 1);
        }
        self.exit();
    }

    fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, u32, u32>, _at: MssId, src: Src, k: u32) {
        self.enter(ctx);
        if let Src::Mh(mh) = src {
            self.stir(ctx, MhId((mh.0 + 1) % N as u32), k + 1);
        }
        self.exit();
    }

    fn on_mh_msg(&mut self, ctx: &mut Ctx<'_, u32, u32>, _at: MhId, _src: Src, _k: u32) {
        self.enter(ctx);
        self.exit();
    }

    fn on_mh_left(&mut self, ctx: &mut Ctx<'_, u32, u32>, mh: MhId, _mss: MssId) {
        self.enter(ctx);
        self.settle(mh);
        // A leave's callback moves a neighbour in turn.
        self.stir(ctx, MhId((mh.0 + 3) % N as u32), mh.0);
        self.exit();
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, u32, u32>,
        mh: MhId,
        _mss: MssId,
        _prev: Option<MssId>,
    ) {
        self.enter(ctx);
        if mh.0.is_multiple_of(2) {
            self.stir(ctx, mh, mh.0);
        }
        self.exit();
    }

    fn on_mh_disconnected(&mut self, ctx: &mut Ctx<'_, u32, u32>, mh: MhId, _mss: MssId) {
        self.enter(ctx);
        self.settle(mh);
        self.exit();
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut Ctx<'_, u32, u32>,
        _mh: MhId,
        _mss: MssId,
        _prev: Option<MssId>,
    ) {
        self.enter(ctx);
        self.exit();
    }

    fn on_wireless_lost(&mut self, ctx: &mut Ctx<'_, u32, u32>, _mss: MssId, _mh: MhId, _k: u32) {
        self.enter(ctx);
        self.exit();
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut Ctx<'_, u32, u32>,
        _origin: MssId,
        _target: MhId,
        _k: u32,
    ) {
        self.enter(ctx);
        self.exit();
    }
}

#[test]
fn no_callback_re_enters_the_protocol() {
    for mode in [DeliveryMode::Batched, DeliveryMode::Unbatched] {
        let cfg = NetworkConfig::new(M, N)
            .with_seed(5)
            .with_delivery(mode)
            .with_mobility(MobilityConfig::moving(200))
            .with_disconnect(DisconnectConfig {
                enabled: true,
                mean_uptime: 1_000,
                ..DisconnectConfig::default()
            });
        let mut sim = Simulation::new(cfg, Guard::default());
        sim.run_until(SimTime::from_ticks(20_000));
        let g = sim.protocol();
        assert!(!g.busy);
        assert!(g.owed.is_empty(), "{mode:?}: undelivered {:?}", g.owed);
        assert!(
            g.initiated > 100,
            "{mode:?}: only {} initiated",
            g.initiated
        );
        assert_eq!(g.initiated, g.delivered, "{mode:?}");
    }
}

/// Logs callback names; its only traffic is one timer due at tick 1.
#[derive(Debug, Default)]
struct Names(Vec<&'static str>);

impl Protocol for Names {
    type Msg = ();
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        ctx.set_timer(1, ());
    }

    fn on_mss_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MssId, _: Src, _: ()) {}

    fn on_mh_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MhId, _: Src, _: ()) {}

    fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: ()) {
        self.0.push("timer");
    }

    fn on_mh_left(&mut self, _: &mut Ctx<'_, (), ()>, _: MhId, _: MssId) {
        self.0.push("left");
    }
}

/// A move initiated outside any callback, through `with_ctx`, delivers its
/// `left` before the next event pops; that event's lone callback runs after
/// it.
#[test]
fn callbacks_queued_outside_a_callback_run_first() {
    let mut sim = Simulation::new(NetworkConfig::new(2, 2), Names::default());
    sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(1))));
    assert_eq!(sim.protocol().0, ["left"]);
    assert!(sim.step());
    assert_eq!(sim.protocol().0, ["left", "timer"]);
}
