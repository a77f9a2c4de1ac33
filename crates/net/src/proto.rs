//! The protocol interface: how an algorithm plugs into the kernel.
//!
//! An algorithm implements [`Protocol`] and receives callbacks for message
//! deliveries, timers, and the mobility events of the system model (join,
//! leave, disconnect, reconnect, failed searches, wireless losses). All
//! effects go through [`Ctx`], which exposes exactly the communication
//! primitives of the paper's model — nothing more. In particular there is no
//! way for an algorithm to send directly to a non-local MH without paying the
//! search cost.

use crate::error::NetError;
use crate::host::MhStatus;
use crate::ids::{MhId, MssId};
use crate::kernel::Kernel;
use crate::ledger::CostLedger;
use crate::obs::TraceEvent;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::fmt::Debug;

/// The origin of a delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// Sent by a fixed host.
    Mss(MssId),
    /// Sent by a mobile host.
    Mh(MhId),
}

impl Src {
    /// The MSS id, if the sender was a fixed host.
    pub fn as_mss(self) -> Option<MssId> {
        match self {
            Src::Mss(m) => Some(m),
            Src::Mh(_) => None,
        }
    }

    /// The MH id, if the sender was a mobile host.
    pub fn as_mh(self) -> Option<MhId> {
        match self {
            Src::Mh(h) => Some(h),
            Src::Mss(_) => None,
        }
    }
}

/// Events queued by the kernel for dispatch to the protocol.
#[derive(Debug)]
pub enum ProtoEvent<M, T> {
    /// A message arrived at a fixed host.
    MssMsg {
        /// Receiving MSS.
        at: MssId,
        /// Sender.
        src: Src,
        /// Payload.
        msg: M,
    },
    /// A message arrived at a mobile host.
    MhMsg {
        /// Receiving MH.
        at: MhId,
        /// Sender.
        src: Src,
        /// Payload.
        msg: M,
    },
    /// A coalesced run of messages (two or more) arrived at one fixed host
    /// at the same tick. Dispatched through [`Protocol::on_mss_batch`] in
    /// the exact `(time, seq)` order the messages would have arrived
    /// individually; the kernel only forms batches where that order is
    /// provably unobservable (see DESIGN.md §7). The `Vec` is recycled by
    /// the driver after dispatch.
    MssBatch {
        /// Receiving MSS.
        at: MssId,
        /// `(sender, payload)` pairs in arrival order.
        msgs: Vec<(Src, M)>,
    },
    /// A protocol timer fired.
    Timer(T),
    /// An MH joined a cell (`join(mh, prev)`); `prev` names the MSS it left,
    /// which the new MSS contacts for the handoff.
    Joined {
        /// The joining MH.
        mh: MhId,
        /// The new local MSS.
        mss: MssId,
        /// The previous cell. Every join follows a `leave()`, so the kernel
        /// always supplies it.
        prev: Option<MssId>,
    },
    /// An MH left its cell (`leave(r)`).
    Left {
        /// The leaving MH.
        mh: MhId,
        /// The cell it left.
        mss: MssId,
    },
    /// An MH voluntarily disconnected (`disconnect(r)`).
    Disconnected {
        /// The disconnecting MH.
        mh: MhId,
        /// The MSS holding its "disconnected" flag.
        mss: MssId,
    },
    /// An MH reconnected (`reconnect(mh, prev)`).
    Reconnected {
        /// The reconnecting MH.
        mh: MhId,
        /// The new local MSS.
        mss: MssId,
        /// Where it had disconnected, when supplied.
        prev: Option<MssId>,
    },
    /// A search-routed message could not be delivered because the target is
    /// disconnected; the MSS of the disconnection cell informed the origin.
    SearchFailed {
        /// The MSS that initiated the search.
        origin: MssId,
        /// The unreachable MH.
        target: MhId,
        /// The undeliverable payload, returned to the protocol.
        msg: M,
    },
    /// A plain (non-searched) wireless downlink message was lost because the
    /// MH left the cell first (prefix-delivery semantics).
    WirelessLost {
        /// The sending MSS.
        mss: MssId,
        /// The departed MH.
        mh: MhId,
        /// The lost payload.
        msg: M,
    },
    /// The fault plane crashed an MSS (fail-stop with stable state; see
    /// SCENARIOS.md). Its wired traffic is deferred and its residents
    /// evacuate; delivered to the protocol so survivors can react.
    MssCrashed {
        /// The crashed station.
        mss: MssId,
    },
    /// A crashed MSS recovered with its protocol state intact; deferred
    /// wired messages are being re-delivered.
    MssRecovered {
        /// The recovered station.
        mss: MssId,
    },
}

/// A coalesced same-tick run of `(sender, payload)` pairs delivered to one
/// fixed host, in arrival order. Passed by value to
/// [`Protocol::on_mss_batch`]; dropping it discards undelivered messages.
pub type MsgBatch<'a, M> = std::vec::Drain<'a, (Src, M)>;

/// A distributed algorithm (or harness) running on the two-tier network.
///
/// All methods have no-op defaults except the two message deliveries, so
/// simple protocols implement only what they use.
pub trait Protocol: Sized + 'static {
    /// Application message payload. `Clone` lets broadcast fan-outs share
    /// one payload and copy only at delivery (every payload in this
    /// workspace is `Copy` or a cheap clone).
    type Msg: Debug + Clone + 'static;
    /// Timer payload.
    type Timer: Debug + 'static;

    /// Called once before the first event is processed.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// A message arrived at a fixed host.
    fn on_mss_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MssId,
        src: Src,
        msg: Self::Msg,
    );

    /// A message arrived at a mobile host.
    fn on_mh_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MhId,
        src: Src,
        msg: Self::Msg,
    );

    /// A coalesced run of same-tick messages arrived at one fixed host
    /// (always two or more messages, in the exact order
    /// [`on_mss_msg`](Protocol::on_mss_msg) would have seen them). The
    /// default unrolls the batch through `on_mss_msg`, so a protocol
    /// observes the per-message callback sequence unless it overrides this
    /// for batch-aware handling.
    fn on_mss_batch(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MssId,
        batch: MsgBatch<'_, Self::Msg>,
    ) {
        for (src, msg) in batch {
            self.on_mss_msg(ctx, at, src, msg);
        }
    }

    /// A protocol timer fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        let _ = (ctx, timer);
    }

    /// An MH completed a `join()` into a new cell. `prev` is the cell it
    /// left; the kernel always supplies it (§2's handoff).
    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let _ = (ctx, mh, mss, prev);
    }

    /// An MH sent `leave(r)` and exited its cell.
    fn on_mh_left(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mh: MhId, mss: MssId) {
        let _ = (ctx, mh, mss);
    }

    /// An MH voluntarily disconnected.
    fn on_mh_disconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        let _ = (ctx, mh, mss);
    }

    /// An MH reconnected after a disconnection.
    fn on_mh_reconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let _ = (ctx, mh, mss, prev);
    }

    /// A search terminated at a disconnected MH; the payload is handed back.
    fn on_search_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        origin: MssId,
        target: MhId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, origin, target, msg);
    }

    /// A plain local wireless downlink message was lost to a departure.
    fn on_wireless_lost(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mss: MssId,
        mh: MhId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, mss, mh, msg);
    }

    /// The fault plane crashed `mss` (fail-stop with stable state): its
    /// wired traffic is deferred until recovery and its resident MHs are
    /// evacuating. Default: no-op — the model's deferral semantics already
    /// keep safe algorithms safe.
    fn on_mss_crashed(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mss: MssId) {
        let _ = (ctx, mss);
    }

    /// A crashed `mss` recovered with its protocol state intact; deferred
    /// wired messages are re-delivered in order right after this callback.
    fn on_mss_recovered(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mss: MssId) {
        let _ = (ctx, mss);
    }
}

/// Handle through which a protocol interacts with the kernel — the only
/// mutable one: a driver outside any callback gets one from
/// [`Simulation::with_ctx`](crate::sim::Simulation::with_ctx).
///
/// Wraps the kernel mutably for the duration of one callback.
#[derive(Debug)]
pub struct Ctx<'a, M, T> {
    pub(crate) k: &'a mut Kernel<M, T>,
}

impl<'a, M: Debug + Clone + 'static, T: Debug + 'static> Ctx<'a, M, T> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.now()
    }

    /// Number of fixed hosts, `M`.
    pub fn num_mss(&self) -> usize {
        self.k.config().num_mss
    }

    /// Number of mobile hosts, `N`.
    pub fn num_mh(&self) -> usize {
        self.k.config().num_mh
    }

    /// All MSS ids.
    pub fn mss_ids(&self) -> impl Iterator<Item = MssId> {
        (0..self.k.config().num_mss as u32).map(MssId)
    }

    /// All MH ids.
    pub fn mh_ids(&self) -> impl Iterator<Item = MhId> {
        (0..self.k.config().num_mh as u32).map(MhId)
    }

    /// Sends a point-to-point message on the fixed network (cost `C_fixed`;
    /// free and near-immediate when `from == to`).
    pub fn send_fixed(&mut self, from: MssId, to: MssId, msg: M) {
        self.k.send_fixed(from, to, msg);
    }

    /// Sends `msg` to every other MSS (cost `(M − 1)·C_fixed`). One payload
    /// is stored for the whole fan-out and cloned only at delivery; the
    /// charge and the wheel traffic are fused across the fan-out too.
    pub fn broadcast_fixed(&mut self, from: MssId, msg: M) {
        self.k.broadcast_fixed(from, msg);
    }

    /// Sends on the wireless downlink to a local MH (cost `C_wireless`).
    ///
    /// # Errors
    ///
    /// [`NetError::NotLocal`] when `mh` is not currently local to `mss`.
    pub fn send_wireless_down(&mut self, mss: MssId, mh: MhId, msg: M) -> Result<(), NetError> {
        self.k.send_wireless_down(mss, mh, msg)
    }

    /// Broadcasts on the cell's wireless channel: one `C_wireless` charge
    /// reaches every MH local to `mss` (each pays reception energy). One
    /// payload is stored for the fan-out and cloned per delivery.
    /// Returns the recipient count.
    pub fn broadcast_cell(&mut self, mss: MssId, msg: M) -> usize {
        self.k.broadcast_cell(mss, msg)
    }

    /// Sends on the wireless uplink from an MH to its current local MSS
    /// (cost `C_wireless`). While the MH is between cells the message is
    /// buffered and flushed — and charged — on the next `join()`.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when `mh` has disconnected.
    pub fn send_wireless_up(&mut self, mh: MhId, msg: M) -> Result<(), NetError> {
        self.k.send_wireless_up(mh, msg)
    }

    /// Locates `mh` and forwards `msg` to it from `origin` (cost `C_search +
    /// C_wireless`, more after in-flight moves). Delivery is guaranteed
    /// unless the MH disconnects, in which case
    /// [`Protocol::on_search_failed`] fires at the origin.
    pub fn search_send(&mut self, origin: MssId, mh: MhId, msg: M) {
        self.k.search_send(origin, mh, msg);
    }

    /// Sends from one MH to another over the two-tier network (cost
    /// `2·C_wireless + C_search`), preserving logical FIFO order per sender
    /// pair — the service L1 demands from the network layer.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the *sender* has disconnected.
    pub fn mh_send_to_mh(&mut self, src: MhId, dst: MhId, msg: M) -> Result<(), NetError> {
        self.k.mh_send_to_mh(src, dst, msg)
    }

    /// Schedules a protocol timer after `delay` ticks.
    pub fn set_timer(&mut self, delay: u64, timer: T) {
        self.k.set_timer(delay, timer);
    }

    /// True when `mh` is currently local to `mss`.
    pub fn is_local(&self, mss: MssId, mh: MhId) -> bool {
        self.k.is_local(mss, mh)
    }

    /// Connectivity status of `mh`.
    pub fn mh_status(&self, mh: MhId) -> MhStatus {
        self.k.mh_status(mh)
    }

    /// Oracle view of the MH's current cell. Intended for harnesses,
    /// checkers and workload drivers — algorithms must locate MHs through
    /// [`search_send`](Ctx::search_send) to incur the model's costs.
    pub fn current_cell(&self, mh: MhId) -> Option<MssId> {
        self.k.current_cell(mh)
    }

    /// Puts `mh` into or out of doze mode. Deliveries to a dozing MH count
    /// as doze interruptions in the ledger.
    pub fn set_doze(&mut self, mh: MhId, dozing: bool) {
        self.k.set_doze(mh, dozing);
    }

    /// Forces `mh` to leave its cell now and join `dest` (or a
    /// pattern-chosen cell) after the configured gap. No-op when the MH is
    /// not connected.
    pub fn initiate_move(&mut self, mh: MhId, dest: Option<MssId>) {
        self.k.initiate_move(mh, dest);
    }

    /// Forces `mh` to disconnect now. No-op when not connected.
    pub fn initiate_disconnect(&mut self, mh: MhId) {
        self.k.initiate_disconnect(mh);
    }

    /// Forces a disconnected `mh` to reconnect at `at` (or its previous
    /// cell) after `delay` ticks. No-op when not disconnected.
    pub fn initiate_reconnect(&mut self, mh: MhId, at: Option<MssId>, delay: u64) {
        self.k.initiate_reconnect(mh, at, delay);
    }

    /// Read-only view of the cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        self.k.ledger()
    }

    /// Increments a protocol-defined named ledger counter.
    pub fn bump(&mut self, name: &str) {
        self.k.ledger_mut().bump(name);
    }

    /// Protocol-visible random stream (deterministic per seed).
    pub fn rng(&mut self) -> &mut SimRng {
        self.k.proto_rng()
    }

    /// Emits an algorithm-level [`TraceEvent`] (CS phases, `LV(G)` updates,
    /// proxy forwards) into the kernel's structured trace stream, in order
    /// with the kernel's own emissions. One branch and no event
    /// construction when no sink is installed.
    pub fn emit(&mut self, ev: TraceEvent) {
        self.k.emit(|| ev);
    }
}
