//! The interface between mutual-exclusion algorithms and the shared
//! workload/invariant harness.
//!
//! Every algorithm in the suite — the paper's redesigns (L2, R2, R2′,
//! token-list) and the baselines it argues against (L1, R1) — implements
//! [`MutexAlgorithm`] and is driven by the same
//! [`MutexHarness`](crate::harness::MutexHarness), so cost comparisons are
//! apples-to-apples: identical workload, identical mobility, identical
//! invariant checks.

use mobidist_net::error::NetError;
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::proto::{Ctx, Src};
use std::fmt::Debug;

/// Timer payload of the harness: workload ticks plus algorithm timers.
#[derive(Debug, Clone)]
pub enum HarnessTimer<T> {
    /// The algorithm's own timer.
    Algo(T),
    /// Workload: `mh` finished thinking and now wants the critical section.
    Think(MhId),
    /// Workload: `mh` finished its critical-section work and releases.
    Hold(MhId),
}

/// Side effects an algorithm reports to the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `mh` has entered the critical section. `key` is an optional total
    /// -order tag (Lamport timestamp) the checker verifies is nondecreasing.
    Granted {
        /// The MH now in the critical section.
        mh: MhId,
        /// Optional ordering key for fairness checking.
        key: Option<u64>,
    },
    /// `mh`'s outstanding request was abandoned (e.g. it disconnected before
    /// the grant could be delivered).
    Aborted {
        /// The MH whose request was dropped.
        mh: MhId,
    },
}

/// Context handed to algorithm callbacks: the network operations of the
/// system model plus the effect channel back to the harness.
///
/// Algorithm timers are transparently wrapped in
/// [`HarnessTimer::Algo`], so algorithms never see workload timers.
#[derive(Debug)]
pub struct AlgoCtx<'a, 'k, M, T> {
    net: &'a mut Ctx<'k, M, HarnessTimer<T>>,
    effects: &'a mut Vec<Effect>,
}

impl<'a, 'k, M: Debug + Clone + 'static, T: Debug + 'static> AlgoCtx<'a, 'k, M, T> {
    /// Creates a context (used by the harness).
    pub(crate) fn new(
        net: &'a mut Ctx<'k, M, HarnessTimer<T>>,
        effects: &'a mut Vec<Effect>,
    ) -> Self {
        AlgoCtx { net, effects }
    }

    /// Reports that `mh` entered the critical section.
    pub fn grant(&mut self, mh: MhId) {
        self.effects.push(Effect::Granted { mh, key: None });
    }

    /// Reports a grant with a total-order key (e.g. a Lamport timestamp) for
    /// the fairness checker.
    pub fn grant_with_key(&mut self, mh: MhId, key: u64) {
        self.effects.push(Effect::Granted { mh, key: Some(key) });
    }

    /// Reports that `mh`'s request was abandoned.
    pub fn abort(&mut self, mh: MhId) {
        self.effects.push(Effect::Aborted { mh });
    }

    /// Number of MSSs.
    pub fn num_mss(&self) -> usize {
        self.net.num_mss()
    }

    /// Point-to-point fixed-network send (`C_fixed`).
    pub fn send_fixed(&mut self, from: MssId, to: MssId, msg: M) {
        self.net.send_fixed(from, to, msg);
    }

    /// Sends a copy of a message to every other MSS (`(M−1)·C_fixed`).
    /// The kernel clones the payload per receiver (or shares one copy on
    /// the batched fan-out path).
    pub fn broadcast_fixed(&mut self, from: MssId, msg: M) {
        self.net.broadcast_fixed(from, msg);
    }

    /// Wireless uplink to the current local MSS (`C_wireless`).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the MH has disconnected.
    pub fn send_wireless_up(&mut self, mh: MhId, msg: M) -> Result<(), NetError> {
        self.net.send_wireless_up(mh, msg)
    }

    /// Locate-and-forward to an MH (`C_search + C_wireless`).
    pub fn search_send(&mut self, origin: MssId, mh: MhId, msg: M) {
        self.net.search_send(origin, mh, msg);
    }

    /// Cell-wide wireless broadcast from `mss` to every local MH — one
    /// `C_wireless` charge regardless of listeners (the lever combining
    /// algorithms amortize batched replies over). Returns the listener
    /// count; an empty cell sends (and charges) nothing.
    pub fn broadcast_cell(&mut self, mss: MssId, msg: M) -> usize {
        self.net.broadcast_cell(mss, msg)
    }

    /// Emits an algorithm-level trace event (no-op without a sink).
    pub fn emit(&mut self, ev: mobidist_net::obs::TraceEvent) {
        self.net.emit(ev);
    }

    /// MH→MH transport (`2·C_wireless + C_search`), logically FIFO.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the sender has disconnected.
    pub fn mh_send_to_mh(&mut self, src: MhId, dst: MhId, msg: M) -> Result<(), NetError> {
        self.net.mh_send_to_mh(src, dst, msg)
    }

    /// Schedules an algorithm timer.
    pub fn set_timer(&mut self, delay: u64, t: T) {
        self.net.set_timer(delay, HarnessTimer::Algo(t));
    }

    /// True when `mh` is local to `mss`.
    pub fn is_local(&self, mss: MssId, mh: MhId) -> bool {
        self.net.is_local(mss, mh)
    }

    /// Increments a named ledger counter.
    pub fn bump(&mut self, name: &str) {
        self.net.bump(name);
    }
}

/// A distributed mutual-exclusion algorithm for the two-tier model.
///
/// The harness calls [`request`](MutexAlgorithm::request) when a mobile host
/// wants the critical section and [`release`](MutexAlgorithm::release) when
/// it is done; the algorithm reports entry via [`AlgoCtx::grant`].
pub trait MutexAlgorithm: Sized + 'static {
    /// Message payload exchanged by the algorithm. `Clone` lets the kernel's
    /// broadcast fan-outs share one payload per arrival tick.
    type Msg: Debug + Clone + 'static;
    /// Algorithm-internal timer payload.
    type Timer: Debug + 'static;

    /// Short display name ("L1", "L2", …).
    fn name(&self) -> &'static str;

    /// One-time initialisation (e.g. minting the ring token).
    fn on_start(&mut self, ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// `mh` wants to enter the critical section. Only called while `mh` is
    /// connected and has no outstanding request.
    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>, mh: MhId);

    /// `mh` finished its critical-section work (it was previously granted).
    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>, mh: MhId);

    /// A message arrived at a fixed host.
    fn on_mss_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        at: MssId,
        src: Src,
        msg: Self::Msg,
    );

    /// A message arrived at a mobile host.
    fn on_mh_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        at: MhId,
        src: Src,
        msg: Self::Msg,
    );

    /// An algorithm timer fired.
    fn on_timer(&mut self, ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        let _ = (ctx, timer);
    }

    /// A search-routed message bounced off a disconnected MH.
    fn on_search_failed(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        origin: MssId,
        target: MhId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, origin, target, msg);
    }

    /// Mobility hook: `mh` joined `mss`.
    fn on_mh_joined(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let _ = (ctx, mh, mss, prev);
    }

    /// Mobility hook: `mh` disconnected at `mss`.
    fn on_mh_disconnected(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        let _ = (ctx, mh, mss);
    }

    /// Mobility hook: `mh` reconnected at `mss`.
    fn on_mh_reconnected(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        let _ = (ctx, mh, mss);
    }
}
