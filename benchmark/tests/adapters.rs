//! The timing adapters forward everything and perturb nothing.

use mobidist_benchmark::adapters::{
    Timed, TimedAlgo, TimedSink, TimedStrategy, FORWARDED_CALLBACKS,
};
use mobidist_benchmark::spans::{self, CALLBACKS};
use mobidist_core::prelude::*;
use mobidist_group::prelude::*;
use mobidist_net::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

/// Records which callbacks reached it.
#[derive(Debug, Default)]
struct Probe {
    seen: Vec<&'static str>,
}

type PCtx<'a> = Ctx<'a, u8, u8>;

impl Protocol for Probe {
    type Msg = u8;
    type Timer = u8;

    fn on_start(&mut self, _: &mut PCtx<'_>) {
        self.seen.push("on_start");
    }
    fn on_mss_msg(&mut self, _: &mut PCtx<'_>, _: MssId, _: Src, _: u8) {
        self.seen.push("on_mss_msg");
    }
    fn on_mh_msg(&mut self, _: &mut PCtx<'_>, _: MhId, _: Src, _: u8) {
        self.seen.push("on_mh_msg");
    }
    fn on_mss_batch(&mut self, _: &mut PCtx<'_>, _: MssId, batch: MsgBatch<'_, u8>) {
        assert_eq!(batch.len(), 2, "the batch arrives whole");
        self.seen.push("on_mss_batch");
    }
    fn on_timer(&mut self, _: &mut PCtx<'_>, _: u8) {
        self.seen.push("on_timer");
    }
    fn on_mh_joined(&mut self, _: &mut PCtx<'_>, _: MhId, _: MssId, _: Option<MssId>) {
        self.seen.push("on_mh_joined");
    }
    fn on_mh_left(&mut self, _: &mut PCtx<'_>, _: MhId, _: MssId) {
        self.seen.push("on_mh_left");
    }
    fn on_mh_disconnected(&mut self, _: &mut PCtx<'_>, _: MhId, _: MssId) {
        self.seen.push("on_mh_disconnected");
    }
    fn on_mh_reconnected(&mut self, _: &mut PCtx<'_>, _: MhId, _: MssId, _: Option<MssId>) {
        self.seen.push("on_mh_reconnected");
    }
    fn on_search_failed(&mut self, _: &mut PCtx<'_>, _: MssId, _: MhId, _: u8) {
        self.seen.push("on_search_failed");
    }
    fn on_wireless_lost(&mut self, _: &mut PCtx<'_>, _: MssId, _: MhId, _: u8) {
        self.seen.push("on_wireless_lost");
    }
    fn on_mss_crashed(&mut self, _: &mut PCtx<'_>, _: MssId) {
        self.seen.push("on_mss_crashed");
    }
    fn on_mss_recovered(&mut self, _: &mut PCtx<'_>, _: MssId) {
        self.seen.push("on_mss_recovered");
    }
}

#[test]
fn timed_forwards_all_thirteen_protocol_callbacks() {
    let before = spans::with(|r| r.snapshot());
    let mut sim = Simulation::new(NetworkConfig::new(2, 2), Timed::new(Probe::default()));
    let (s, h) = (MssId(0), MhId(0));
    // `with_ctx` starts the simulation first, which delivers `on_start`.
    sim.with_ctx(|ctx, p| {
        p.on_mss_msg(ctx, s, Src::Mh(h), 1);
        p.on_mh_msg(ctx, h, Src::Mss(s), 2);
        let mut batch = vec![(Src::Mss(s), 3), (Src::Mss(s), 4)];
        p.on_mss_batch(ctx, s, batch.drain(..));
        p.on_timer(ctx, 5);
        p.on_mh_joined(ctx, h, s, None);
        p.on_mh_left(ctx, h, s);
        p.on_mh_disconnected(ctx, h, s);
        p.on_mh_reconnected(ctx, h, s, Some(s));
        p.on_search_failed(ctx, s, h, 6);
        p.on_wireless_lost(ctx, s, h, 7);
        p.on_mss_crashed(ctx, s);
        p.on_mss_recovered(ctx, s);
    });
    let p = sim.protocol();
    assert_eq!(p.inner().seen, FORWARDED_CALLBACKS);
    assert_eq!((p.callbacks, p.batch_callbacks, p.batch_events), (13, 1, 2));
    // One span per callback, each under its own name.
    let after = spans::with(|r| r.snapshot());
    for name in CALLBACKS {
        assert_eq!(spans::delta(&after, &before, &[name]).count, 1, "{name:?}");
    }
}

/// Names of the `fn`s declared in the first block of `path` that starts at a
/// line containing `header` and ends at the next line that is exactly `}`.
fn fns_in_block(path: &Path, header: &str) -> BTreeSet<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines().skip_while(|l| !l.contains(header));
    assert!(
        lines.next().is_some(),
        "no '{header}' in {}",
        path.display()
    );
    lines
        .take_while(|l| *l != "}")
        .filter_map(|l| l.trim_start().strip_prefix("fn "))
        .map(|l| l.split(['(', '<']).next().unwrap_or("").to_owned())
        .collect()
}

/// A method added to a wrapped trait upstream, with a default body, would
/// compile here and silently bypass the adapter. So the adapters' method
/// sets are compared with the traits' *source*.
#[test]
fn adapters_implement_every_method_of_the_traits_they_wrap() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let adapters = root.join("src/adapters.rs");
    let crates = root.join("../crates");

    let protocol = fns_in_block(&crates.join("net/src/proto.rs"), "pub trait Protocol");
    let forwarded: BTreeSet<String> = FORWARDED_CALLBACKS.iter().map(|s| s.to_string()).collect();
    assert_eq!(protocol, forwarded, "Protocol changed: update Timed<P>");
    assert_eq!(protocol.len(), 13);
    assert_eq!(fns_in_block(&adapters, "Protocol for Timed<P>"), protocol);
    assert_eq!(
        fns_in_block(&adapters, "MutexAlgorithm for TimedAlgo<A>"),
        fns_in_block(
            &crates.join("core/src/algorithm.rs"),
            "pub trait MutexAlgorithm"
        ),
        "MutexAlgorithm changed: update TimedAlgo<A>"
    );
    assert_eq!(
        fns_in_block(&adapters, "LocationStrategy for TimedStrategy<S>"),
        fns_in_block(
            &crates.join("group/src/strategy.rs"),
            "pub trait LocationStrategy"
        ),
        "LocationStrategy changed: update TimedStrategy<S>"
    );
    assert_eq!(
        fns_in_block(&adapters, "TraceSink for TimedSink<S>"),
        fns_in_block(&crates.join("net/src/obs.rs"), "pub trait TraceSink"),
        "TraceSink changed: update TimedSink<S>"
    );
}

const HORIZON: u64 = 400_000;

fn mutex_cell<A: MutexAlgorithm, B: MutexAlgorithm>(plain: A, wrapped: B, seed: u64) {
    let cfg = NetworkConfig::new(4, 24)
        .with_seed(seed)
        .with_mobility(MobilityConfig::moving(3000));
    let wl = WorkloadConfig::all_mhs(24, 6).with_think(300).with_hold(10);

    let mut a = Simulation::new(cfg.clone(), MutexHarness::new(plain, wl.clone()));
    a.run_until(SimTime::from_ticks(HORIZON));

    let mut b = Simulation::new(
        cfg.clone(),
        Timed::new(MutexHarness::new(TimedAlgo(wrapped), wl)),
    );
    b.set_trace_sink(Box::new(TimedSink::timed(RingSink::new(0))));
    b.run_until(SimTime::from_ticks(HORIZON));

    assert!(a.kernel().events_processed() > 1000, "the cell did work");
    assert_eq!(a.kernel().events_processed(), b.kernel().events_processed());
    assert_eq!(a.ledger(), b.ledger());
    let (ea, eb) = (
        a.protocol().checker().episodes(),
        b.protocol().inner().checker().episodes(),
    );
    assert!(!ea.is_empty());
    assert_eq!(ea, eb);
    // And the sink saw exactly the ledger's charged messages.
    let sink = b.finish_trace().expect("sink installed");
    let seen = sink
        .as_any()
        .downcast_ref::<TimedSink<RingSink>>()
        .expect("the sink is the one installed");
    assert_eq!(
        (seen.fixed_msgs, seen.wireless_msgs),
        (b.ledger().fixed_msgs, b.ledger().wireless_msgs)
    );
}

#[test]
fn wrapping_l2_changes_nothing() {
    mutex_cell(L2::new(4), L2::new(4), 21);
}

#[test]
fn wrapping_r2_changes_nothing() {
    mutex_cell(
        R2::new(4, RingGuard::Plain),
        R2::new(4, RingGuard::Plain),
        22,
    );
}

#[test]
fn wrapping_location_view_changes_nothing() {
    let members: Vec<MhId> = (0..12u32).map(MhId).collect();
    let cfg = NetworkConfig::new(4, 16)
        .with_seed(23)
        .with_mobility(MobilityConfig::moving(400));
    let wl = GroupWorkload::new(members.clone(), 60, 500);
    let view = || LocationView::new(members.clone(), MssId(0));

    let mut a = Simulation::new(cfg.clone(), GroupHarness::new(view(), wl.clone()));
    a.run_until(SimTime::from_ticks(HORIZON));
    let mut b = Simulation::new(
        cfg,
        Timed::new(GroupHarness::new(TimedStrategy(view()), wl)),
    );
    b.run_until(SimTime::from_ticks(HORIZON));

    assert!(a.protocol().report().delivered > 0);
    assert_eq!(a.kernel().events_processed(), b.kernel().events_processed());
    assert_eq!(a.ledger(), b.ledger());
    assert_eq!(a.protocol().report(), b.protocol().inner().report());
    assert_eq!(
        a.protocol().delivery_sequences(),
        b.protocol().inner().delivery_sequences()
    );
}
