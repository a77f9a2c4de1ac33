//! Timing adapters around the public traits.
//!
//! The benchmark may not edit the crates it measures, so host time is
//! attributed from outside: each adapter implements one of the public traits
//! (`Protocol`, `MutexAlgorithm`, `LocationStrategy`, `TraceSink`), forwards
//! every call unchanged to the value it wraps, and brackets the call with a
//! span on the thread-local [`crate::spans`] recorder.
//!
//! What a span covers: everything the wrapped callback does, **including the
//! `Ctx` sends it issues** (queue pushes, FIFO clamping, ledger charges).
//! `Ctx` is a concrete struct with a crate-private field; it cannot be
//! wrapped from here, so kernel work done on behalf of a callback is
//! attributed to that callback, and `net.kernel.self` is only what the
//! kernel does between callbacks (pop, dispatch, batch formation, mobility).
//!
//! The adapters never touch the simulation: no RNG draw, no send, no state
//! of their own that a callback can observe (pinned by `tests/adapters.rs`).

use crate::spans::{self, Name};
use mobidist_core::algorithm::{AlgoCtx, MutexAlgorithm};
use mobidist_group::strategy::{GroupCtx, LocationStrategy};
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::ledger::CostLedger;
use mobidist_net::obs::{TraceEvent, TraceSink};
use mobidist_net::proto::{Ctx, MsgBatch, Protocol, Src};
use mobidist_net::time::SimTime;
use std::any::Any;
use std::collections::BTreeMap;

/// The `Protocol` callbacks [`Timed`] forwards — all thirteen. A callback
/// added upstream must be added here and to the `impl`, or
/// `tests/adapters.rs` fails (it reads the trait's source).
pub const FORWARDED_CALLBACKS: [&str; 13] = [
    "on_start",
    "on_mss_msg",
    "on_mh_msg",
    "on_mss_batch",
    "on_timer",
    "on_mh_joined",
    "on_mh_left",
    "on_mh_disconnected",
    "on_mh_reconnected",
    "on_search_failed",
    "on_wireless_lost",
    "on_mss_crashed",
    "on_mss_recovered",
];

/// A [`Protocol`] wrapper: one span per callback, plus exact delivery counts.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    /// Callbacks dispatched (a batch counts once).
    pub callbacks: u64,
    /// `on_mss_batch` dispatches.
    pub batch_callbacks: u64,
    /// Messages delivered inside `on_mss_batch` dispatches.
    pub batch_events: u64,
}

impl<P> Timed<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Timed {
            inner,
            callbacks: 0,
            batch_callbacks: 0,
            batch_events: 0,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Timed<P> {
    #[inline]
    fn call<R>(&mut self, name: Name, f: impl FnOnce(&mut P) -> R) -> R {
        self.callbacks += 1;
        spans::enter(name);
        let out = f(&mut self.inner);
        spans::exit();
        out
    }
}

type PCtx<'a, P> = Ctx<'a, <P as Protocol>::Msg, <P as Protocol>::Timer>;

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn on_start(&mut self, ctx: &mut PCtx<'_, P>) {
        self.call(Name::OnStart, |p| p.on_start(ctx));
    }

    fn on_mss_msg(&mut self, ctx: &mut PCtx<'_, P>, at: MssId, src: Src, msg: P::Msg) {
        self.call(Name::OnMssMsg, |p| p.on_mss_msg(ctx, at, src, msg));
    }

    fn on_mh_msg(&mut self, ctx: &mut PCtx<'_, P>, at: MhId, src: Src, msg: P::Msg) {
        self.call(Name::OnMhMsg, |p| p.on_mh_msg(ctx, at, src, msg));
    }

    fn on_mss_batch(&mut self, ctx: &mut PCtx<'_, P>, at: MssId, batch: MsgBatch<'_, P::Msg>) {
        self.batch_callbacks += 1;
        self.batch_events += batch.len() as u64;
        self.call(Name::OnMssBatch, |p| p.on_mss_batch(ctx, at, batch));
    }

    fn on_timer(&mut self, ctx: &mut PCtx<'_, P>, timer: P::Timer) {
        self.call(Name::OnTimer, |p| p.on_timer(ctx, timer));
    }

    fn on_mh_joined(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId, prev: Option<MssId>) {
        self.call(Name::OnMhJoined, |p| p.on_mh_joined(ctx, mh, mss, prev));
    }

    fn on_mh_left(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId) {
        self.call(Name::OnMhLeft, |p| p.on_mh_left(ctx, mh, mss));
    }

    fn on_mh_disconnected(&mut self, ctx: &mut PCtx<'_, P>, mh: MhId, mss: MssId) {
        self.call(Name::OnMhDisconnected, |p| {
            p.on_mh_disconnected(ctx, mh, mss)
        });
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut PCtx<'_, P>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.call(Name::OnMhReconnected, |p| {
            p.on_mh_reconnected(ctx, mh, mss, prev)
        });
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut PCtx<'_, P>,
        origin: MssId,
        target: MhId,
        msg: P::Msg,
    ) {
        self.call(Name::OnSearchFailed, |p| {
            p.on_search_failed(ctx, origin, target, msg)
        });
    }

    fn on_wireless_lost(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId, mh: MhId, msg: P::Msg) {
        self.call(Name::OnWirelessLost, |p| {
            p.on_wireless_lost(ctx, mss, mh, msg)
        });
    }

    fn on_mss_crashed(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId) {
        self.call(Name::OnMssCrashed, |p| p.on_mss_crashed(ctx, mss));
    }

    fn on_mss_recovered(&mut self, ctx: &mut PCtx<'_, P>, mss: MssId) {
        self.call(Name::OnMssRecovered, |p| p.on_mss_recovered(ctx, mss));
    }
}

/// A [`MutexAlgorithm`] wrapper: a child span ([`Name::Algo`]) per call.
#[derive(Debug)]
pub struct TimedAlgo<A>(pub A);

type ACtx<'a, 'k, A> = AlgoCtx<'a, 'k, <A as MutexAlgorithm>::Msg, <A as MutexAlgorithm>::Timer>;

impl<A: MutexAlgorithm> MutexAlgorithm for TimedAlgo<A> {
    type Msg = A::Msg;
    type Timer = A::Timer;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_start(&mut self, ctx: &mut ACtx<'_, '_, A>) {
        spans::span(Name::Algo, || self.0.on_start(ctx));
    }

    fn request(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId) {
        spans::span(Name::Algo, || self.0.request(ctx, mh));
    }

    fn release(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId) {
        spans::span(Name::Algo, || self.0.release(ctx, mh));
    }

    fn on_mss_msg(&mut self, ctx: &mut ACtx<'_, '_, A>, at: MssId, src: Src, msg: A::Msg) {
        spans::span(Name::Algo, || self.0.on_mss_msg(ctx, at, src, msg));
    }

    fn on_mh_msg(&mut self, ctx: &mut ACtx<'_, '_, A>, at: MhId, src: Src, msg: A::Msg) {
        spans::span(Name::Algo, || self.0.on_mh_msg(ctx, at, src, msg));
    }

    fn on_timer(&mut self, ctx: &mut ACtx<'_, '_, A>, timer: A::Timer) {
        spans::span(Name::Algo, || self.0.on_timer(ctx, timer));
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut ACtx<'_, '_, A>,
        origin: MssId,
        target: MhId,
        msg: A::Msg,
    ) {
        spans::span(Name::Algo, || {
            self.0.on_search_failed(ctx, origin, target, msg)
        });
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut ACtx<'_, '_, A>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        spans::span(Name::Algo, || self.0.on_mh_joined(ctx, mh, mss, prev));
    }

    fn on_mh_disconnected(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId, mss: MssId) {
        spans::span(Name::Algo, || self.0.on_mh_disconnected(ctx, mh, mss));
    }

    fn on_mh_reconnected(&mut self, ctx: &mut ACtx<'_, '_, A>, mh: MhId, mss: MssId) {
        spans::span(Name::Algo, || self.0.on_mh_reconnected(ctx, mh, mss));
    }
}

/// A [`LocationStrategy`] wrapper: a child span ([`Name::Strategy`]) per call.
#[derive(Debug)]
pub struct TimedStrategy<S>(pub S);

type GCtx<'a, 'k, S> =
    GroupCtx<'a, 'k, <S as LocationStrategy>::Msg, <S as LocationStrategy>::Timer>;

impl<S: LocationStrategy> LocationStrategy for TimedStrategy<S> {
    type Msg = S::Msg;
    type Timer = S::Timer;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn on_start(&mut self, ctx: &mut GCtx<'_, '_, S>, placement: &BTreeMap<MhId, MssId>) {
        spans::span(Name::Strategy, || self.0.on_start(ctx, placement));
    }

    fn send_group_message(&mut self, ctx: &mut GCtx<'_, '_, S>, from: MhId, msg_id: u64) {
        spans::span(Name::Strategy, || {
            self.0.send_group_message(ctx, from, msg_id)
        });
    }

    fn on_mss_msg(&mut self, ctx: &mut GCtx<'_, '_, S>, at: MssId, src: Src, msg: S::Msg) {
        spans::span(Name::Strategy, || self.0.on_mss_msg(ctx, at, src, msg));
    }

    fn on_mh_msg(&mut self, ctx: &mut GCtx<'_, '_, S>, at: MhId, src: Src, msg: S::Msg) {
        spans::span(Name::Strategy, || self.0.on_mh_msg(ctx, at, src, msg));
    }

    fn on_timer(&mut self, ctx: &mut GCtx<'_, '_, S>, timer: S::Timer) {
        spans::span(Name::Strategy, || self.0.on_timer(ctx, timer));
    }

    fn on_member_joined(
        &mut self,
        ctx: &mut GCtx<'_, '_, S>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        spans::span(Name::Strategy, || {
            self.0.on_member_joined(ctx, mh, mss, prev)
        });
    }

    fn on_member_left(&mut self, ctx: &mut GCtx<'_, '_, S>, mh: MhId, mss: MssId) {
        spans::span(Name::Strategy, || self.0.on_member_left(ctx, mh, mss));
    }

    fn on_member_disconnected(&mut self, ctx: &mut GCtx<'_, '_, S>, mh: MhId, mss: MssId) {
        spans::span(Name::Strategy, || {
            self.0.on_member_disconnected(ctx, mh, mss)
        });
    }

    fn on_member_reconnected(
        &mut self,
        ctx: &mut GCtx<'_, '_, S>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        spans::span(Name::Strategy, || {
            self.0.on_member_reconnected(ctx, mh, mss, prev)
        });
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut GCtx<'_, '_, S>,
        origin: MssId,
        target: MhId,
        msg: S::Msg,
    ) {
        spans::span(Name::Strategy, || {
            self.0.on_search_failed(ctx, origin, target, msg)
        });
    }
}

/// A [`TraceSink`] wrapper: a span per `record`, plus the ledger-side sums
/// the `ledger = trace` check needs (charged fixed / wireless messages seen).
#[derive(Debug)]
pub struct TimedSink<S> {
    inner: S,
    timed: bool,
    /// Records observed.
    pub records: u64,
    /// Σ `TraceEvent::fixed_msgs()` over the records.
    pub fixed_msgs: u64,
    /// Σ `TraceEvent::wireless_msgs()` over the records.
    pub wireless_msgs: u64,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`, opening a span per record.
    pub fn timed(inner: S) -> Self {
        TimedSink {
            inner,
            timed: true,
            records: 0,
            fixed_msgs: 0,
            wireless_msgs: 0,
        }
    }

    /// Wraps `inner` and only counts — the untraced run's `ledger = trace`
    /// check uses this, so it costs three additions per record and no clock
    /// read.
    pub fn counting(inner: S) -> Self {
        TimedSink {
            timed: false,
            ..Self::timed(inner)
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: TraceSink + 'static> TraceSink for TimedSink<S> {
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent) {
        self.records += 1;
        self.fixed_msgs += ev.fixed_msgs();
        self.wireless_msgs += ev.wireless_msgs();
        if self.timed {
            spans::enter(Name::SinkRecord);
            self.inner.record(at, seq, ev);
            spans::exit();
        } else {
            self.inner.record(at, seq, ev);
        }
    }

    fn rewind(&mut self) {
        self.inner.rewind();
    }

    fn finish(&mut self, ledger: &CostLedger) {
        self.inner.finish(ledger);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
