//! The simulation kernel: message plane, mobility orchestration, cost
//! accounting.
//!
//! The kernel realises Section 2 of the paper:
//!
//! * a wired plane of `M` MSSs with reliable, FIFO, arbitrary-latency
//!   channels;
//! * per-cell wireless FIFO channels with *prefix delivery* — when an MH
//!   leaves, messages still in flight on its downlink are lost;
//! * `join`/`leave`/`disconnect`/`reconnect` choreography, with the previous
//!   MSS id supplied on join (handoff support);
//! * a search service that locates an MH and forwards a message, re-searching
//!   as the MH moves, and reporting disconnection back to the origin;
//! * a [`CostLedger`] charging every operation per the paper's cost model.
//!
//! Mobility-signalling messages (`leave`, `join`, `disconnect`, `reconnect`,
//! handoff queries) are charged to dedicated `control_*` custom counters
//! rather than to the main message counters, so experiments measure exactly
//! what the paper's formulas measure: the messages of the *algorithm* under
//! study.

use crate::channel::{ChainKey, FifoChains, ReorderBuffers};
use crate::config::{DeliveryMode, NetworkConfig};
use crate::error::NetError;
use crate::event::EventQueue;
use crate::host::{MhState, MhStatus, MssState, OutMsg};
use crate::ids::{MhId, MssId};
use crate::ledger::CostLedger;
use crate::obs::{TraceEvent, TraceSink, Tracer};
use crate::proto::{ProtoEvent, Src};
use crate::rng::SimRng;
use crate::search::SearchPolicy;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::fmt::Debug;

/// How a wireless downlink delivery is routed, which determines what happens
/// if the MH has left the cell by delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DownMode {
    /// Plain local send: loss is surfaced to the protocol.
    Local,
    /// Search-routed from `origin`: the kernel re-searches on loss (the
    /// model's eventual-delivery guarantee).
    Searched { origin: MssId },
    /// MH→MH transport: search-routed plus end-to-end FIFO resequencing.
    FromMh { origin: MssId, src: MhId, seq: u64 },
}

impl DownMode {
    fn src_for(&self, serving: MssId) -> Src {
        match *self {
            DownMode::Local => Src::Mss(serving),
            DownMode::Searched { origin } => Src::Mss(origin),
            DownMode::FromMh { src, .. } => Src::Mh(src),
        }
    }
}

/// Internal timed events.
#[derive(Debug)]
enum Ev<M, T> {
    FixedDeliver {
        from: MssId,
        to: MssId,
        msg: M,
    },
    UpDeliver {
        mh: MhId,
        mss: MssId,
        msg: M,
    },
    /// An uplinked MH→MH message reached the serving MSS, which now
    /// search-forwards it to the destination MH.
    RelayMhMh {
        at: MssId,
        src: MhId,
        dst: MhId,
        seq: u64,
        msg: M,
    },
    DownDeliver {
        mss: MssId,
        mh: MhId,
        epoch: u64,
        mode: DownMode,
        msg: M,
    },
    /// A fused fixed-network fan-out: one shared payload delivered to a run
    /// of destinations whose deliveries share this arrival tick (batched
    /// delivery mode only). The destinations were scheduled by consecutive
    /// pushes, so delivering them in `dsts` order at this event's position
    /// reproduces the per-destination pop order exactly.
    FixedFanout {
        from: MssId,
        dsts: Vec<MssId>,
        msg: M,
    },
    /// A fused wireless cell-broadcast fan-out sharing one payload across a
    /// same-arrival-tick run of recipients (batched delivery mode only).
    /// Each recipient keeps its own captured epoch for the freshness check.
    DownFanout {
        mss: MssId,
        recipients: Vec<(MhId, u64)>,
        msg: M,
    },
    /// A search-forwarded message arrived at the MSS believed to serve the
    /// target.
    SearchArrive {
        target: MhId,
        at: MssId,
        mode: DownMode,
        msg: M,
    },
    /// Notification headed back to the origin MSS that the search target is
    /// disconnected.
    SearchFail {
        origin: MssId,
        target: MhId,
        msg: M,
    },
    AutoLeave {
        mh: MhId,
    },
    DoJoin {
        mh: MhId,
        mss: MssId,
    },
    AutoDisconnect {
        mh: MhId,
    },
    DoReconnect {
        mh: MhId,
        mss: MssId,
    },
    Timer {
        t: T,
    },
    /// A scheduled fault fires (index into `cfg.fault.events`).
    Fault {
        idx: usize,
    },
    /// A crashed MSS comes back up (fault plane).
    MssRecover {
        mss: MssId,
    },
    /// The active wired partition heals (fault plane).
    PartitionHeal,
}

/// Simulation kernel state. Owned by [`Simulation`](crate::sim::Simulation);
/// protocols access it through [`Ctx`](crate::proto::Ctx).
#[derive(Debug)]
pub struct Kernel<M, T> {
    cfg: NetworkConfig,
    now: SimTime,
    queue: EventQueue<Ev<M, T>>,
    rng: SimRng,
    proto_rng: SimRng,
    msss: Vec<MssState>,
    mhs: Vec<MhState<M>>,
    fifo: FifoChains,
    reorder: ReorderBuffers<M>,
    ledger: CostLedger,
    pending: VecDeque<ProtoEvent<M, T>>,
    /// Structured event sink and per-run emission counter; no sink (the
    /// default) costs one branch per emission site and never constructs the
    /// event. Rewound with the kernel.
    trace: Tracer,
    /// Reusable buffer for cell-broadcast recipient lists, so the hot path
    /// never allocates per call.
    scratch_locals: Vec<MhId>,
    /// Per-MSS crashed flag (fault plane). All-false on fault-free runs.
    down: Vec<bool>,
    /// Active wired-plane partition: cells `< cut` vs cells `≥ cut`.
    partition_cut: Option<u32>,
    /// Wired messages deferred by the fault plane (endpoint down, or the
    /// pair straddles an active partition), in arrival order. Flushed —
    /// still in order, without re-charging — when the blocking condition
    /// clears. Always empty on fault-free runs.
    blocked: Vec<(MssId, MssId, M)>,
    /// Logical events processed since reset. Batch and fan-out members are
    /// counted individually, so the batched engine and the per-event
    /// reference report identical totals for the same run (pinned by
    /// `tests/delivery_equivalence.rs`).
    events_processed: u64,
    /// Recycled backing store for the single in-flight coalesced MSS batch
    /// (the driver drains every batch before the next advance, so one slot
    /// suffices; it round-trips through `ProtoEvent::MssBatch` and
    /// [`recycle_batch`](Self::recycle_batch)).
    batch_slot: Vec<(Src, M)>,
    /// Freelist backing `Ev::FixedFanout` destination lists.
    mss_pool: Vec<Vec<MssId>>,
    /// Freelist backing `Ev::DownFanout` recipient lists.
    down_pool: Vec<Vec<(MhId, u64)>>,
}

impl<M: Debug + Clone + 'static, T: Debug + 'static> Kernel<M, T> {
    /// Builds a kernel: places MHs into cells and primes the autonomous
    /// mobility/disconnection processes.
    pub fn new(cfg: NetworkConfig) -> Self {
        let mut k = Kernel {
            cfg: cfg.clone(),
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::seed_from(cfg.seed),
            proto_rng: SimRng::seed_from(cfg.seed),
            msss: Vec::new(),
            mhs: Vec::new(),
            fifo: FifoChains::new(cfg.num_mss, cfg.num_mh),
            reorder: ReorderBuffers::default(),
            ledger: CostLedger::new(cfg.num_mh),
            pending: VecDeque::new(),
            trace: Tracer::new(None),
            scratch_locals: Vec::new(),
            down: Vec::new(),
            partition_cut: None,
            blocked: Vec::new(),
            events_processed: 0,
            batch_slot: Vec::new(),
            mss_pool: Vec::new(),
            down_pool: Vec::new(),
        };
        k.reset(cfg);
        k
    }

    /// Rewinds the kernel to the fresh-`new(cfg)` state while retaining
    /// every allocation (event-wheel slots, FIFO chain arrays, reorder maps,
    /// the per-MH table, ledger vectors, scratch buffers).
    ///
    /// Observable behaviour is bit-identical to a freshly built kernel: the
    /// RNG streams are reseeded and forked in the same order, MH placement
    /// draws the same values, and the event queue's insertion-sequence
    /// counter restarts at zero, so a reused kernel replays the exact event
    /// order of a fresh one (pinned by the bench crate's `differential`
    /// test).
    pub(crate) fn reset(&mut self, cfg: NetworkConfig) {
        // Same RNG derivation order as the original construction path:
        // seed, fork the protocol stream, fork the placement stream, then
        // draw mobility/disconnect delays from the root stream.
        self.rng = SimRng::seed_from(cfg.seed);
        self.proto_rng = self.rng.fork(0xA11C);
        let mut place_rng = self.rng.fork(0xB0B1);
        let m = cfg.num_mss;
        let n = cfg.num_mh;
        self.now = SimTime::ZERO;
        self.queue.clear();
        self.msss.truncate(m);
        for s in &mut self.msss {
            s.clear();
        }
        self.msss.resize_with(m, MssState::default);
        self.mhs.clear();
        for i in 0..n {
            let cell = cfg.placement.initial_cell(i, m, &mut place_rng);
            self.mhs.push(MhState::new(cell, cell));
            self.msss[cell.index()].local.insert(MhId(i as u32));
        }
        self.fifo.reset_topology(m, n);
        self.reorder.clear();
        self.ledger.reset(n);
        self.pending.clear();
        self.trace.rewind();
        self.cfg = cfg;
        if self.cfg.mobility.enabled {
            for i in 0..n {
                let d = self.rng.exp_delay(self.cfg.mobility.mean_dwell);
                self.queue
                    .push(self.now + d, Ev::AutoLeave { mh: MhId(i as u32) });
            }
        }
        if self.cfg.disconnect.enabled {
            for i in 0..n {
                let d = self.rng.exp_delay(self.cfg.disconnect.mean_uptime);
                self.queue
                    .push(self.now + d, Ev::AutoDisconnect { mh: MhId(i as u32) });
            }
        }
        // Fault plane: scheduling consumes NO rng draws, so a fault-free
        // config replays bit-identically to one built before the fault plane
        // existed. Events sharing a tick fire in schedule order (insertion
        // sequence breaks the tie).
        self.down.clear();
        self.down.resize(m, false);
        self.partition_cut = None;
        self.blocked.clear();
        self.events_processed = 0;
        self.batch_slot.clear();
        for (idx, fe) in self.cfg.fault.events.iter().enumerate() {
            self.queue.push(self.now + fe.at.max(1), Ev::Fault { idx });
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configuration this kernel runs.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Read access to the cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Mutable access to the cost ledger (custom counters).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// The protocol-visible random stream.
    pub fn proto_rng(&mut self) -> &mut SimRng {
        &mut self.proto_rng
    }

    /// Installs a structured trace sink; it observes every subsequent typed
    /// emission. Replaces any previously installed sink.
    ///
    /// Sinks only observe: installing one never changes simulation results
    /// (no RNG draws, no scheduling — pinned byte-for-byte by the `trace`
    /// axis of the bench crate's `differential` test).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace.sink = Some(sink);
    }

    /// Detaches and returns the installed trace sink, if any, without
    /// notifying it (see [`finish_trace`](Self::finish_trace) for the
    /// end-of-run path).
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.sink.take()
    }

    /// Borrows the installed trace sink for inspection (downcast through
    /// [`TraceSink::as_any`] to reach a concrete sink's accessors).
    pub fn trace_sink(&self) -> Option<&dyn TraceSink> {
        self.trace.sink.as_deref()
    }

    /// Ends the traced run: calls [`TraceSink::finish`] with the final
    /// ledger (the JSONL sink writes its `run_end` summary line here) and
    /// detaches the sink.
    pub fn finish_trace(&mut self) -> Option<Box<dyn TraceSink>> {
        self.trace.finish(&self.ledger)
    }

    /// Typed-emission hook, stamped with the current time (see
    /// [`Tracer::emit`] for what it costs).
    #[inline]
    pub(crate) fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        self.trace.emit(self.now, f);
    }

    /// True when `mh` is local to `mss`.
    pub fn is_local(&self, mss: MssId, mh: MhId) -> bool {
        self.msss[mss.index()].has_local(mh)
    }

    /// MHs currently local to `mss`, in ascending id order.
    ///
    /// Borrows the cell's membership bitset directly — no allocation per
    /// call; `.collect()` when a `Vec` is genuinely needed.
    pub fn local_mhs(&self, mss: MssId) -> impl Iterator<Item = MhId> + '_ {
        self.msss[mss.index()].local.iter()
    }

    /// Connectivity status of `mh`.
    pub fn mh_status(&self, mh: MhId) -> MhStatus {
        self.mhs[mh.index()].status
    }

    /// True when the disconnected flag for `mh` is set at `mss`.
    pub fn mh_disconnected_here(&self, mss: MssId, mh: MhId) -> bool {
        self.msss[mss.index()].disconnected_here.contains(&mh)
    }

    /// Oracle view of the current cell of `mh`.
    pub fn current_cell(&self, mh: MhId) -> Option<MssId> {
        self.mhs[mh.index()].cell
    }

    /// Sets doze mode for `mh`.
    pub fn set_doze(&mut self, mh: MhId, dozing: bool) {
        self.mhs[mh.index()].dozing = dozing;
    }

    /// Time of the next timed event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    pub(crate) fn take_pending(&mut self) -> Option<ProtoEvent<M, T>> {
        self.pending.pop_front()
    }

    /// Logical events processed since construction/reset. Coalesced batch
    /// members and fused fan-out recipients count individually, so the
    /// total equals the per-`advance` step count of the
    /// one-event-per-message reference ([`DeliveryMode::Unbatched`]).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Returns an emptied [`ProtoEvent::MssBatch`] vector to the kernel so
    /// the next coalesced batch reuses its capacity.
    pub(crate) fn recycle_batch(&mut self, mut msgs: Vec<(Src, M)>) {
        msgs.clear();
        self.batch_slot = msgs;
    }

    pub(crate) fn advance(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "event time regressed");
        self.now = t;
        self.dispatch(ev);
        true
    }

    /// Like [`advance`](Self::advance), but only consumes an event due at or
    /// before `limit`. Fuses the peek/pop pair the run loops would otherwise
    /// perform — one heap-root access per event instead of two.
    pub(crate) fn advance_up_to(&mut self, limit: SimTime) -> bool {
        let Some((t, ev)) = self.queue.pop_if_at_or_before(limit) else {
            return false;
        };
        debug_assert!(t >= self.now, "event time regressed");
        self.now = t;
        self.dispatch(ev);
        true
    }

    /// Routes a popped event: a unicast delivery to a fixed host opens a
    /// coalescing run over the current tick; everything else (and everything
    /// under the per-event test reference) processes one event at a time.
    #[inline]
    fn dispatch(&mut self, ev: Ev<M, T>) {
        if self.cfg.delivery == DeliveryMode::Batched {
            let at = match &ev {
                Ev::FixedDeliver { to, .. } => Some(*to),
                Ev::UpDeliver { mss, .. } => Some(*mss),
                _ => None,
            };
            if let Some(at) = at {
                self.coalesce_at(at, ev);
                return;
            }
        }
        self.process(ev);
    }

    /// Coalesces the maximal run of consecutive same-tick unicast deliveries
    /// to fixed host `at` — starting with the already-popped `first` — into
    /// one batch, dispatched through a single `MssBatch` protocol event.
    ///
    /// Determinism: the run is contiguous in `(time, seq)` pop order (the
    /// O(1) [`EventQueue::pop_same_tick_if`] only claims the true next
    /// event), processing a member reads only fault-plane state that no
    /// protocol callback can mutate, and every kernel push is at least one
    /// tick ahead of `now` — so nothing a deferred callback does can
    /// reorder, admit into, or evict from the run. The batch's callbacks
    /// then run in exactly the order the per-event path would have produced
    /// (see DESIGN.md §7 for the full argument).
    fn coalesce_at(&mut self, at: MssId, first: Ev<M, T>) {
        // Singleton fast path: no same-tick follower to this destination,
        // so no run can form — dispatch through the plain per-event path
        // without touching the batch buffer. Unicast-heavy workloads (ring
        // topologies, search traffic) take this branch almost always, and
        // it is exactly the per-event reference path plus one O(1) slot
        // peek.
        if !self.queue.next_same_tick_matches(|e| {
            matches!(e, Ev::FixedDeliver { to, .. } if *to == at)
                || matches!(e, Ev::UpDeliver { mss, .. } if *mss == at)
        }) {
            self.process(first);
            return;
        }
        let mut batch = std::mem::take(&mut self.batch_slot);
        debug_assert!(batch.is_empty());
        self.append_mss_delivery(at, first, &mut batch);
        while let Some((_, ev)) = self.queue.pop_same_tick_if(|e| {
            matches!(e, Ev::FixedDeliver { to, .. } if *to == at)
                || matches!(e, Ev::UpDeliver { mss, .. } if *mss == at)
        }) {
            self.append_mss_delivery(at, ev, &mut batch);
        }
        match batch.len() {
            // Every member was deferred by the fault plane: no callback.
            0 => {}
            // Singletons dispatch as a plain message — batches are always
            // two or more, so `on_mss_batch` overrides only see real runs.
            1 => {
                let (src, msg) = batch.pop().expect("len checked");
                self.pending.push_back(ProtoEvent::MssMsg { at, src, msg });
            }
            len => {
                let len = len as u32;
                self.emit(|| TraceEvent::DeliverBatch { at, len });
                self.pending
                    .push_back(ProtoEvent::MssBatch { at, msgs: batch });
                // The driver recycles the vector after dispatch.
                return;
            }
        }
        self.batch_slot = batch;
    }

    /// Processes one coalesced-run member: fault-plane deferral and receive
    /// tracing exactly as the per-event path, with the delivery itself
    /// appended to `batch` instead of `pending`.
    fn append_mss_delivery(&mut self, at: MssId, ev: Ev<M, T>, batch: &mut Vec<(Src, M)>) {
        self.events_processed += 1;
        match ev {
            Ev::FixedDeliver { from, to, msg } => {
                debug_assert_eq!(to, at);
                if let Some(msg) = self.admit_wired(from, to, msg) {
                    batch.push((Src::Mss(from), msg));
                }
            }
            Ev::UpDeliver { mh, mss, msg } => {
                debug_assert_eq!(mss, at);
                self.emit(|| TraceEvent::UpRecv { mss, mh });
                batch.push((Src::Mh(mh), msg));
            }
            _ => unreachable!("only unicast MSS deliveries are coalesced"),
        }
    }

    // ----- send operations -------------------------------------------------

    /// Point-to-point fixed-network send. Self-sends are free and take one
    /// tick — they are not messages in the model.
    pub fn send_fixed(&mut self, from: MssId, to: MssId, msg: M) {
        if from == to {
            self.queue
                .push(self.now + 1, Ev::FixedDeliver { from, to, msg });
            return;
        }
        self.ledger.charge_fixed(&self.cfg.cost);
        self.emit(|| TraceEvent::FixedSend { from, to });
        let lat = self.cfg.latency.fixed.sample(&mut self.rng);
        let at = self
            .fifo
            .schedule(ChainKey::Fixed(from, to), self.now + lat);
        self.queue.push(at, Ev::FixedDeliver { from, to, msg });
    }

    /// Sends `msg` to every other MSS over the fixed network (cost
    /// `(M − 1)·C_fixed`). Charges, trace emissions, latency draws and FIFO
    /// clamping are per destination, identical to a loop of
    /// [`send_fixed`](Self::send_fixed); in batched delivery mode one
    /// payload is stored per same-arrival-tick run of destinations and the
    /// ledger charge is fused across the fan-out.
    pub fn broadcast_fixed(&mut self, from: MssId, msg: M) {
        let m = self.cfg.num_mss as u32;
        if m <= 1 {
            return;
        }
        if self.cfg.delivery == DeliveryMode::Unbatched {
            let mut msg = Some(msg);
            for i in 0..m {
                let to = MssId(i);
                if to == from {
                    continue;
                }
                let last = if from == MssId(m - 1) { m - 2 } else { m - 1 };
                let payload = if i == last {
                    msg.take().expect("payload present until last")
                } else {
                    msg.as_ref().expect("payload present until last").clone()
                };
                self.send_fixed(from, to, payload);
            }
            return;
        }
        // Batched: one fused charge, then group consecutive destinations
        // whose FIFO-clamped arrivals share a tick into shared-payload
        // fan-out events. With the default constant latency and un-clamped
        // chains this is a single event for the whole fan-out.
        self.ledger.charge_fixed_n(&self.cfg.cost, (m - 1) as u64);
        let mut group = self.mss_pool.pop().unwrap_or_default();
        debug_assert!(group.is_empty());
        let mut group_at = SimTime::ZERO;
        let mut msg = Some(msg);
        for i in 0..m {
            let to = MssId(i);
            if to == from {
                continue;
            }
            self.emit(|| TraceEvent::FixedSend { from, to });
            let lat = self.cfg.latency.fixed.sample(&mut self.rng);
            let at = self
                .fifo
                .schedule(ChainKey::Fixed(from, to), self.now + lat);
            if !group.is_empty() && at != group_at {
                let payload = msg.as_ref().expect("payload present until last").clone();
                let flushed =
                    std::mem::replace(&mut group, self.mss_pool.pop().unwrap_or_default());
                self.push_fixed_group(from, flushed, group_at, payload);
            }
            group_at = at;
            group.push(to);
        }
        let payload = msg.take().expect("payload present until last");
        self.push_fixed_group(from, group, group_at, payload);
    }

    /// Enqueues one arrival-tick group of a fixed broadcast: singletons as a
    /// plain delivery (recycling the list), larger groups as a fused
    /// fan-out.
    fn push_fixed_group(&mut self, from: MssId, mut dsts: Vec<MssId>, at: SimTime, msg: M) {
        debug_assert!(!dsts.is_empty());
        if dsts.len() == 1 {
            let to = dsts[0];
            dsts.clear();
            self.mss_pool.push(dsts);
            self.queue.push(at, Ev::FixedDeliver { from, to, msg });
        } else {
            self.queue.push(at, Ev::FixedFanout { from, dsts, msg });
        }
    }

    /// Wireless downlink send to a local MH.
    ///
    /// # Errors
    ///
    /// [`NetError::NotLocal`] when `mh` is not currently local to `mss`.
    pub fn send_wireless_down(&mut self, mss: MssId, mh: MhId, msg: M) -> Result<(), NetError> {
        if !self.is_local(mss, mh) {
            return Err(NetError::NotLocal { mss, mh });
        }
        let epoch = self.mhs[mh.index()].epoch;
        self.schedule_down(mss, mh, epoch, DownMode::Local, msg);
        Ok(())
    }

    /// Broadcasts over the cell's wireless channel: **one** transmission
    /// (one `C_wireless` charge) reaches every MH currently local to `mss`;
    /// each listener still pays its own reception energy. One payload is
    /// stored per same-arrival-tick run of recipients and cloned only at
    /// delivery. Returns the number of recipients.
    pub fn broadcast_cell(&mut self, mss: MssId, msg: M) -> usize {
        // Reuse the kernel-owned scratch buffer: BTreeSet iteration is
        // sorted (deterministic) and the Vec's capacity survives the call.
        let mut locals = std::mem::take(&mut self.scratch_locals);
        locals.clear();
        locals.extend(self.msss[mss.index()].local.iter());
        if locals.is_empty() {
            self.scratch_locals = locals;
            return 0;
        }
        // One channel use regardless of listener count.
        self.ledger.wireless_msgs += 1;
        self.ledger.wireless_cost += self.cfg.cost.c_wireless;
        let listeners = locals.len() as u32;
        self.emit(|| TraceEvent::CellBroadcast { mss, listeners });
        let lat = self.cfg.latency.wireless.sample(&mut self.rng);
        let n = locals.len();
        let mut msg = Some(msg);
        if self.cfg.delivery == DeliveryMode::Unbatched {
            for (i, mh) in locals.iter().enumerate() {
                let h = &mut self.mhs[mh.index()];
                let epoch = h.epoch;
                h.down_sent += 1;
                let at = self.fifo.schedule(ChainKey::Down(mss, *mh), self.now + lat);
                let payload = if i == n - 1 {
                    msg.take().expect("payload present until last")
                } else {
                    msg.as_ref().expect("payload present until last").clone()
                };
                self.queue.push(
                    at,
                    Ev::DownDeliver {
                        mss,
                        mh: *mh,
                        epoch,
                        mode: DownMode::Local,
                        msg: payload,
                    },
                );
            }
        } else {
            // Batched: group consecutive recipients whose FIFO-clamped
            // arrivals share a tick into shared-payload fan-out events —
            // one wheel entry and one payload for the whole cell with the
            // default constant latency.
            let mut group = self.down_pool.pop().unwrap_or_default();
            debug_assert!(group.is_empty());
            let mut group_at = SimTime::ZERO;
            for mh in &locals {
                let h = &mut self.mhs[mh.index()];
                let epoch = h.epoch;
                h.down_sent += 1;
                let at = self.fifo.schedule(ChainKey::Down(mss, *mh), self.now + lat);
                if !group.is_empty() && at != group_at {
                    let payload = msg.as_ref().expect("payload present until last").clone();
                    let flushed =
                        std::mem::replace(&mut group, self.down_pool.pop().unwrap_or_default());
                    self.push_down_group(mss, flushed, group_at, payload);
                }
                group_at = at;
                group.push((*mh, epoch));
            }
            let payload = msg.take().expect("payload present until last");
            self.push_down_group(mss, group, group_at, payload);
        }
        self.scratch_locals = locals;
        n
    }

    /// Enqueues one arrival-tick group of a cell broadcast: singletons as a
    /// plain downlink delivery (recycling the list), larger groups as a
    /// fused fan-out.
    fn push_down_group(
        &mut self,
        mss: MssId,
        mut recipients: Vec<(MhId, u64)>,
        at: SimTime,
        msg: M,
    ) {
        debug_assert!(!recipients.is_empty());
        if recipients.len() == 1 {
            let (mh, epoch) = recipients[0];
            recipients.clear();
            self.down_pool.push(recipients);
            self.queue.push(
                at,
                Ev::DownDeliver {
                    mss,
                    mh,
                    epoch,
                    mode: DownMode::Local,
                    msg,
                },
            );
        } else {
            self.queue.push(
                at,
                Ev::DownFanout {
                    mss,
                    recipients,
                    msg,
                },
            );
        }
    }

    /// Wireless uplink send from an MH to its current local MSS; buffered
    /// while between cells and flushed on the next join.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when `mh` has disconnected.
    pub fn send_wireless_up(&mut self, mh: MhId, msg: M) -> Result<(), NetError> {
        match self.mhs[mh.index()].status {
            MhStatus::Disconnected => Err(NetError::Disconnected { mh }),
            MhStatus::BetweenCells => {
                self.mhs[mh.index()].outbox.push_back(OutMsg::Plain(msg));
                Ok(())
            }
            MhStatus::Connected => {
                let mss = self.mhs[mh.index()].cell.expect("connected MH has a cell");
                self.push_uplink(mh, mss, OutMsg::Plain(msg));
                Ok(())
            }
        }
    }

    /// Locate-and-forward from `origin` to `mh` (the model's search).
    pub fn search_send(&mut self, origin: MssId, mh: MhId, msg: M) {
        self.begin_search(mh, DownMode::Searched { origin }, msg, false);
    }

    /// MH→MH transport with logical FIFO per ordered sender/receiver pair.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the *sender* has disconnected.
    pub fn mh_send_to_mh(&mut self, src: MhId, dst: MhId, msg: M) -> Result<(), NetError> {
        if self.mhs[src.index()].status == MhStatus::Disconnected {
            return Err(NetError::Disconnected { mh: src });
        }
        let seq = self.reorder.next_seq(src, dst);
        match self.mhs[src.index()].status {
            MhStatus::Connected => {
                let mss = self.mhs[src.index()].cell.expect("connected MH has a cell");
                self.push_uplink(src, mss, OutMsg::ToMh { dst, seq, msg });
            }
            MhStatus::BetweenCells => {
                self.mhs[src.index()]
                    .outbox
                    .push_back(OutMsg::ToMh { dst, seq, msg });
            }
            MhStatus::Disconnected => unreachable!("checked above"),
        }
        Ok(())
    }

    /// Schedules a protocol timer (minimum delay of one tick).
    pub fn set_timer(&mut self, delay: u64, t: T) {
        self.queue.push(self.now + delay.max(1), Ev::Timer { t });
    }

    // ----- mobility control --------------------------------------------------

    /// Forces `mh` to leave now and join `dest` (or a pattern-chosen cell)
    /// after the configured gap. No-op when not connected.
    pub fn initiate_move(&mut self, mh: MhId, dest: Option<MssId>) {
        if self.mhs[mh.index()].status == MhStatus::Connected {
            self.do_leave(mh, dest);
        }
    }

    /// Forces `mh` to disconnect now. No-op when not connected.
    pub fn initiate_disconnect(&mut self, mh: MhId) {
        if self.mhs[mh.index()].status == MhStatus::Connected {
            self.do_disconnect(mh, false);
        }
    }

    /// Forces a disconnected `mh` to reconnect at `at` (or its previous
    /// cell) after `delay` ticks. No-op when not disconnected.
    pub fn initiate_reconnect(&mut self, mh: MhId, at: Option<MssId>, delay: u64) {
        if self.mhs[mh.index()].status != MhStatus::Disconnected {
            return;
        }
        let dest = at
            .or(self.mhs[mh.index()].disconnected_at)
            .unwrap_or(MssId(0));
        self.queue
            .push(self.now + delay.max(1), Ev::DoReconnect { mh, mss: dest });
    }

    // ----- internals ----------------------------------------------------------

    /// Charges and schedules one uplink transmission (plain or MH→MH relay).
    fn push_uplink(&mut self, mh: MhId, mss: MssId, out: OutMsg<M>) {
        let energy = self.cfg.energy.tx;
        self.ledger.charge_wireless_tx(&self.cfg.cost, mh, energy);
        self.emit(|| TraceEvent::UpSend { mh, mss });
        let lat = self.cfg.latency.wireless.sample(&mut self.rng);
        let at = self.fifo.schedule(ChainKey::Up(mh, mss), self.now + lat);
        match out {
            OutMsg::Plain(msg) => self.queue.push(at, Ev::UpDeliver { mh, mss, msg }),
            OutMsg::ToMh { dst, seq, msg } => self.queue.push(
                at,
                Ev::RelayMhMh {
                    at: mss,
                    src: mh,
                    dst,
                    seq,
                    msg,
                },
            ),
        }
    }

    /// Charges and schedules a downlink delivery from `mss` to `mh`.
    fn schedule_down(&mut self, mss: MssId, mh: MhId, epoch: u64, mode: DownMode, msg: M) {
        self.ledger.wireless_msgs += 1;
        self.ledger.wireless_cost += self.cfg.cost.c_wireless;
        self.emit(|| TraceEvent::DownSend { mss, mh });
        self.mhs[mh.index()].down_sent += 1;
        let lat = self.cfg.latency.wireless.sample(&mut self.rng);
        let at = self.fifo.schedule(ChainKey::Down(mss, mh), self.now + lat);
        self.queue.push(
            at,
            Ev::DownDeliver {
                mss,
                mh,
                epoch,
                mode,
                msg,
            },
        );
    }

    /// Charges one search and routes `msg` toward the target's current cell.
    fn begin_search(&mut self, target: MhId, mode: DownMode, msg: M, re: bool) {
        let lat = match self.cfg.search {
            SearchPolicy::Oracle => {
                self.ledger.charge_search_abstract(&self.cfg.cost, re);
                self.cfg.latency.search.sample(&mut self.rng)
            }
            SearchPolicy::Flood => {
                let msgs = SearchPolicy::flood_message_count(self.cfg.num_mss);
                self.ledger.charge_search_flood(&self.cfg.cost, msgs, re);
                let f = &self.cfg.latency.fixed;
                f.sample(&mut self.rng) + f.sample(&mut self.rng) + f.sample(&mut self.rng)
            }
            SearchPolicy::HomeAgent => {
                // Origin asks the home agent, which tunnels to the current
                // cell (the registration performed at join keeps it exact).
                let msgs = SearchPolicy::home_agent_message_count();
                self.ledger.charge_search_flood(&self.cfg.cost, msgs, re);
                let f = &self.cfg.latency.fixed;
                f.sample(&mut self.rng) + f.sample(&mut self.rng)
            }
        };
        self.emit(|| TraceEvent::Search { target, re });
        match self.mhs[target.index()].status {
            MhStatus::Disconnected => {
                // The MSS where the MH disconnected answers with its status.
                let back = self.cfg.latency.fixed.sample(&mut self.rng);
                self.search_failed(target, mode, msg, lat + back);
            }
            MhStatus::Connected | MhStatus::BetweenCells => {
                // Forward to the current cell, or toward the last known cell
                // when mid-move; arrival there triggers a counted re-search.
                let h = &self.mhs[target.index()];
                let at = h
                    .cell
                    .or(h.prev_cell)
                    .expect("an MH always has a current or previous cell");
                self.queue.push(
                    self.now + lat,
                    Ev::SearchArrive {
                        target,
                        at,
                        mode,
                        msg,
                    },
                );
            }
        }
    }

    /// Common handling for a search terminating at a disconnected target:
    /// notify the origin, and for MH→MH transport cancel the burnt sequence
    /// number so later messages on the pair are not held back forever.
    fn search_failed(&mut self, target: MhId, mode: DownMode, msg: M, delay: u64) {
        let origin = match mode {
            DownMode::Searched { origin } | DownMode::FromMh { origin, .. } => origin,
            DownMode::Local => unreachable!("plain sends are never searched"),
        };
        self.ledger.search_failures += 1;
        self.ledger.charge_fixed(&self.cfg.cost);
        self.emit(|| TraceEvent::SearchFail { origin, target });
        if let DownMode::FromMh { src, seq, .. } = mode {
            for m in self.reorder.cancel(src, target, seq) {
                self.pending.push_back(ProtoEvent::MhMsg {
                    at: target,
                    src: Src::Mh(src),
                    msg: m,
                });
            }
        }
        self.queue.push(
            self.now + delay,
            Ev::SearchFail {
                origin,
                target,
                msg,
            },
        );
    }

    fn deliver_down(&mut self, mss: MssId, mh: MhId, epoch: u64, mode: DownMode, msg: M) {
        let h = &mut self.mhs[mh.index()];
        let fresh = h.status == MhStatus::Connected && h.cell == Some(mss) && h.epoch == epoch;
        if fresh {
            h.down_received += 1;
            let dozing = h.dozing;
            self.emit(|| TraceEvent::DownRecv { mh, mss });
            if dozing {
                self.ledger.doze_interruptions += 1;
                self.emit(|| TraceEvent::DozeInterrupt { mh });
            }
            let energy = self.cfg.energy.rx;
            self.ledger.mh_rx[mh.index()] += 1;
            self.ledger.mh_energy[mh.index()] += energy;
            match mode {
                DownMode::Local | DownMode::Searched { .. } => {
                    self.pending.push_back(ProtoEvent::MhMsg {
                        at: mh,
                        src: mode.src_for(mss),
                        msg,
                    });
                }
                DownMode::FromMh { src, seq, .. } => {
                    for m in self.reorder.accept(src, mh, seq, msg) {
                        self.pending.push_back(ProtoEvent::MhMsg {
                            at: mh,
                            src: Src::Mh(src),
                            msg: m,
                        });
                    }
                }
            }
        } else {
            // Prefix-delivery semantics: the MH left (or disconnected) first.
            self.ledger.wireless_losses += 1;
            self.emit(|| TraceEvent::DownLost { mss, mh });
            match mode {
                DownMode::Local => {
                    self.pending
                        .push_back(ProtoEvent::WirelessLost { mss, mh, msg });
                }
                DownMode::Searched { .. } | DownMode::FromMh { .. } => {
                    self.begin_search(mh, mode, msg, true);
                }
            }
        }
    }

    fn process(&mut self, ev: Ev<M, T>) {
        self.events_processed += match &ev {
            // Fused fan-outs carry one logical message per receiver.
            Ev::FixedFanout { dsts, .. } => dsts.len() as u64,
            Ev::DownFanout { recipients, .. } => recipients.len() as u64,
            _ => 1,
        };
        match ev {
            Ev::FixedDeliver { from, to, msg } => {
                if let Some(msg) = self.admit_wired(from, to, msg) {
                    self.pending.push_back(ProtoEvent::MssMsg {
                        at: to,
                        src: Src::Mss(from),
                        msg,
                    });
                }
            }
            Ev::UpDeliver { mh, mss, msg } => {
                self.emit(|| TraceEvent::UpRecv { mss, mh });
                self.pending.push_back(ProtoEvent::MssMsg {
                    at: mss,
                    src: Src::Mh(mh),
                    msg,
                });
            }
            Ev::RelayMhMh {
                at,
                src,
                dst,
                seq,
                msg,
            } => {
                self.emit(|| TraceEvent::UpRecv { mss: at, mh: src });
                self.begin_search(
                    dst,
                    DownMode::FromMh {
                        origin: at,
                        src,
                        seq,
                    },
                    msg,
                    false,
                );
            }
            Ev::DownDeliver {
                mss,
                mh,
                epoch,
                mode,
                msg,
            } => self.deliver_down(mss, mh, epoch, mode, msg),
            Ev::FixedFanout {
                from,
                mut dsts,
                msg,
            } => {
                // Per-destination delivery in push order — exactly the order
                // the per-event path pops, since the fan-out's members were
                // scheduled by consecutive pushes at one tick. The shared
                // payload clones per destination; the last takes it.
                let last = dsts.len() - 1;
                let mut msg = Some(msg);
                for (i, to) in dsts.drain(..).enumerate() {
                    let payload = if i == last {
                        msg.take().expect("payload present until last")
                    } else {
                        msg.as_ref().expect("payload present until last").clone()
                    };
                    if let Some(msg) = self.admit_wired(from, to, payload) {
                        self.pending.push_back(ProtoEvent::MssMsg {
                            at: to,
                            src: Src::Mss(from),
                            msg,
                        });
                    }
                }
                self.mss_pool.push(dsts);
            }
            Ev::DownFanout {
                mss,
                mut recipients,
                msg,
            } => {
                let last = recipients.len() - 1;
                let mut msg = Some(msg);
                for (i, (mh, epoch)) in recipients.drain(..).enumerate() {
                    let payload = if i == last {
                        msg.take().expect("payload present until last")
                    } else {
                        msg.as_ref().expect("payload present until last").clone()
                    };
                    self.deliver_down(mss, mh, epoch, DownMode::Local, payload);
                }
                self.down_pool.push(recipients);
            }
            Ev::SearchArrive {
                target,
                at,
                mode,
                msg,
            } => {
                if self.msss[at.index()].has_local(target) {
                    let epoch = self.mhs[target.index()].epoch;
                    self.schedule_down(at, target, epoch, mode, msg);
                } else if self.msss[at.index()].disconnected_here.contains(&target) {
                    let back = self.cfg.latency.fixed.sample(&mut self.rng);
                    self.search_failed(target, mode, msg, back);
                } else {
                    // The MH moved on: re-search from here.
                    self.begin_search(target, mode, msg, true);
                }
            }
            Ev::SearchFail {
                origin,
                target,
                msg,
            } => {
                self.pending.push_back(ProtoEvent::SearchFailed {
                    origin,
                    target,
                    msg,
                });
            }
            Ev::AutoLeave { mh } => {
                // Leave only if still connected; moving/disconnected MHs get
                // a fresh dwell scheduled when they next join/reconnect.
                if self.mhs[mh.index()].status == MhStatus::Connected {
                    self.do_leave(mh, None);
                }
            }
            Ev::DoJoin { mh, mss } => self.do_join(mh, mss),
            Ev::AutoDisconnect { mh } => {
                if self.mhs[mh.index()].status == MhStatus::Connected {
                    self.do_disconnect(mh, true);
                } else {
                    let d = self.rng.exp_delay(self.cfg.disconnect.mean_uptime);
                    self.queue.push(self.now + d, Ev::AutoDisconnect { mh });
                }
            }
            Ev::DoReconnect { mh, mss } => self.do_reconnect(mh, mss),
            Ev::Timer { t } => self.pending.push_back(ProtoEvent::Timer(t)),
            Ev::Fault { idx } => self.apply_fault(idx),
            Ev::MssRecover { mss } => self.apply_recover(mss),
            Ev::PartitionHeal => self.apply_heal(),
        }
    }

    // ----- fault plane --------------------------------------------------------

    /// True when the fault plane currently has `mss` crashed.
    pub fn mss_down(&self, mss: MssId) -> bool {
        self.down.get(mss.index()).copied().unwrap_or(false)
    }

    /// True when wired traffic between `from` and `to` is currently
    /// deferred: either endpoint is crashed, or the pair straddles the
    /// active partition.
    fn wired_blocked(&self, from: MssId, to: MssId) -> bool {
        if self.mss_down(from) || self.mss_down(to) {
            return true;
        }
        match self.partition_cut {
            Some(cut) => (from.0 < cut) != (to.0 < cut),
            None => false,
        }
    }

    /// Wired admission, the one rule every fixed-network arrival passes
    /// through: the fault plane defers the message while either endpoint is
    /// down or the pair straddles an active partition — or while older
    /// messages of the same pair are already deferred (per-pair FIFO).
    /// Returns the message when it is delivered now, after tracing the
    /// receive; self-sends are not messages in the model, so only real
    /// fixed-network deliveries appear in the trace.
    #[inline]
    fn admit_wired(&mut self, from: MssId, to: MssId, msg: M) -> Option<M> {
        if self.wired_blocked(from, to)
            || (!self.blocked.is_empty()
                && self.blocked.iter().any(|(f, t, _)| *f == from && *t == to))
        {
            self.blocked.push((from, to, msg));
            return None;
        }
        if from != to {
            self.emit(|| TraceEvent::FixedRecv { at: to, from });
        }
        Some(msg)
    }

    /// `want`, unless it is crashed — then the next live cell in ascending
    /// ring order (joins are redirected there; `want` itself if every cell
    /// is down).
    fn live_cell(&self, want: MssId) -> MssId {
        if !self.mss_down(want) {
            return want;
        }
        let m = self.cfg.num_mss as u32;
        (1..m)
            .map(|k| MssId((want.0 + k) % m))
            .find(|c| !self.mss_down(*c))
            .unwrap_or(want)
    }

    fn apply_fault(&mut self, idx: usize) {
        let fe = self.cfg.fault.events[idx];
        match fe.kind {
            crate::fault::FaultKind::MssCrash { mss, down_for } => {
                let mss = MssId(mss % self.cfg.num_mss as u32);
                if self.mss_down(mss) {
                    return; // already down: overlapping crash is a no-op
                }
                self.down[mss.index()] = true;
                self.ledger.bump("fault_crashes");
                self.emit(|| TraceEvent::FaultCrash { mss });
                self.pending.push_back(ProtoEvent::MssCrashed { mss });
                // Resident MHs evacuate through the ordinary leave/join
                // choreography (destinations from the run's MovePattern,
                // redirected if they land on a down cell at join time).
                // Snapshotted through the kernel's scratch buffer — `do_leave`
                // mutates the membership set but never touches the scratch.
                let mut locals = std::mem::take(&mut self.scratch_locals);
                locals.clear();
                locals.extend(self.msss[mss.index()].local.iter());
                for mh in locals.drain(..) {
                    self.do_leave(mh, None);
                }
                self.scratch_locals = locals;
                self.queue
                    .push(self.now + down_for.max(1), Ev::MssRecover { mss });
            }
            crate::fault::FaultKind::Partition { cut, heal_after } => {
                if self.partition_cut.is_some() || self.cfg.num_mss < 2 {
                    return; // one partition at a time; 1-cell planes can't split
                }
                let cut = cut.clamp(1, self.cfg.num_mss as u32 - 1);
                self.partition_cut = Some(cut);
                self.ledger.bump("fault_partitions");
                self.emit(|| TraceEvent::FaultPartition { cut, healed: false });
                self.queue
                    .push(self.now + heal_after.max(1), Ev::PartitionHeal);
            }
            crate::fault::FaultKind::HandoffStorm { count } => {
                let mut moved = 0u32;
                for i in 0..self.cfg.num_mh {
                    if moved >= count {
                        break;
                    }
                    let mh = MhId(i as u32);
                    if self.mhs[mh.index()].status == MhStatus::Connected {
                        self.do_leave(mh, None);
                        moved += 1;
                    }
                }
                self.ledger.bump("fault_storms");
                self.emit(|| TraceEvent::FaultStorm { moved });
            }
        }
    }

    fn apply_recover(&mut self, mss: MssId) {
        self.down[mss.index()] = false;
        self.ledger.bump("fault_recovers");
        self.emit(|| TraceEvent::FaultRecover { mss });
        self.pending.push_back(ProtoEvent::MssRecovered { mss });
        self.flush_unblocked();
    }

    fn apply_heal(&mut self) {
        if let Some(cut) = self.partition_cut.take() {
            self.ledger.bump("fault_heals");
            self.emit(|| TraceEvent::FaultPartition { cut, healed: true });
            self.flush_unblocked();
        }
    }

    /// Re-delivers deferred wired messages whose blocking condition has
    /// cleared, preserving arrival order (and never re-charging — the send
    /// was billed when it happened).
    fn flush_unblocked(&mut self) {
        if self.blocked.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.blocked);
        for (from, to, msg) in pending {
            if self.wired_blocked(from, to) {
                self.blocked.push((from, to, msg));
            } else {
                self.queue
                    .push(self.now + 1, Ev::FixedDeliver { from, to, msg });
            }
        }
    }

    /// Where the run's mobility pattern sends `mh` after it left `from`.
    fn next_cell(&mut self, mh: MhId, from: MssId) -> MssId {
        let h = &self.mhs[mh.index()];
        let ctx = crate::mobility::MoveCtx {
            mh,
            from,
            m: self.cfg.num_mss,
            home: h.home,
            era: h.epoch,
            seed: self.cfg.seed,
        };
        self.cfg.mobility.pattern.next_cell(&mut self.rng, ctx)
    }

    fn do_leave(&mut self, mh: MhId, dest: Option<MssId>) {
        let h = &mut self.mhs[mh.index()];
        let mss = h.cell.take().expect("connected MH has a cell");
        h.status = MhStatus::BetweenCells;
        h.prev_cell = Some(mss);
        h.epoch += 1;
        h.reset_down_counts();
        self.msss[mss.index()].local.remove(&mh);
        self.fifo.reset(ChainKey::Down(mss, mh));
        self.fifo.reset(ChainKey::Up(mh, mss));
        self.ledger.bump("control_wireless"); // leave(r)
        self.emit(|| TraceEvent::HandoffBegin { mh, from: mss });
        self.pending.push_back(ProtoEvent::Left { mh, mss });
        let gap = self.rng.exp_delay(self.cfg.mobility.mean_gap.max(1));
        let dest = dest.unwrap_or_else(|| self.next_cell(mh, mss));
        self.queue
            .push(self.now + gap, Ev::DoJoin { mh, mss: dest });
    }

    fn do_join(&mut self, mh: MhId, mss: MssId) {
        // Fault plane: a join aimed at a crashed cell lands at the next
        // live one instead (no MSS to run the join choreography).
        let mss = self.live_cell(mss);
        let h = &mut self.mhs[mh.index()];
        let prev = h.prev_cell;
        h.cell = Some(mss);
        h.status = MhStatus::Connected;
        h.reset_down_counts();
        self.msss[mss.index()].local.insert(mh);
        self.ledger.moves += 1;
        self.ledger.bump("control_wireless"); // join(mh-id)
        if self.cfg.search == SearchPolicy::HomeAgent && self.mhs[mh.index()].home != mss {
            // The new cell registers the MH's location with its home agent.
            self.ledger.bump("ha_registrations");
            self.ledger.bump("control_fixed");
        }
        let supplied = if self.cfg.supply_prev_on_join {
            prev
        } else {
            None
        };
        if let Some(p) = supplied {
            if p != mss {
                self.ledger.handoffs += 1;
                self.ledger.bump("control_fixed"); // handoff state request
            }
        }
        self.emit(|| TraceEvent::HandoffEnd {
            mh,
            to: mss,
            prev: supplied,
        });
        self.pending.push_back(ProtoEvent::Joined {
            mh,
            mss,
            prev: supplied,
        });
        self.flush_outbox(mh, mss);
        if self.cfg.mobility.enabled {
            let d = self.rng.exp_delay(self.cfg.mobility.mean_dwell);
            self.queue.push(self.now + d, Ev::AutoLeave { mh });
        }
    }

    fn do_disconnect(&mut self, mh: MhId, schedule_auto_reconnect: bool) {
        let h = &mut self.mhs[mh.index()];
        let mss = h.cell.take().expect("connected MH has a cell");
        h.status = MhStatus::Disconnected;
        h.prev_cell = Some(mss);
        h.epoch += 1;
        h.disconnected_at = Some(mss);
        self.msss[mss.index()].local.remove(&mh);
        self.msss[mss.index()].disconnected_here.insert(mh);
        self.fifo.reset(ChainKey::Down(mss, mh));
        self.fifo.reset(ChainKey::Up(mh, mss));
        self.ledger.disconnects += 1;
        self.ledger.bump("control_wireless"); // disconnect(r)
        self.emit(|| TraceEvent::Disconnect { mh, mss });
        self.pending.push_back(ProtoEvent::Disconnected { mh, mss });
        if schedule_auto_reconnect {
            let down = self.rng.exp_delay(self.cfg.disconnect.mean_downtime.max(1));
            let dest = self.next_cell(mh, mss);
            self.queue
                .push(self.now + down, Ev::DoReconnect { mh, mss: dest });
        }
    }

    fn do_reconnect(&mut self, mh: MhId, mss: MssId) {
        if self.mhs[mh.index()].status != MhStatus::Disconnected {
            return;
        }
        let mss = self.live_cell(mss);
        let old = self.mhs[mh.index()].disconnected_at;
        if let Some(o) = old {
            self.msss[o.index()].disconnected_here.remove(&mh);
        }
        let supplies_prev = self.rng.chance(self.cfg.disconnect.p_supply_prev);
        if supplies_prev {
            self.ledger.bump("control_fixed"); // handoff with the previous MSS
        } else {
            // The new MSS queries every fixed host for the previous location.
            self.ledger
                .bump_by("control_fixed", (self.cfg.num_mss as u64).saturating_sub(1));
        }
        let h = &mut self.mhs[mh.index()];
        h.status = MhStatus::Connected;
        h.cell = Some(mss);
        h.disconnected_at = None;
        h.prev_cell = old;
        h.reset_down_counts();
        self.msss[mss.index()].local.insert(mh);
        self.ledger.reconnects += 1;
        self.ledger.bump("control_wireless"); // reconnect(mh, prev)
        if self.cfg.search == SearchPolicy::HomeAgent && self.mhs[mh.index()].home != mss {
            self.ledger.bump("ha_registrations");
            self.ledger.bump("control_fixed");
        }
        self.emit(|| TraceEvent::Reconnect {
            mh,
            mss,
            prev: if supplies_prev { old } else { None },
        });
        self.pending.push_back(ProtoEvent::Reconnected {
            mh,
            mss,
            prev: if supplies_prev { old } else { None },
        });
        self.flush_outbox(mh, mss);
        if self.cfg.mobility.enabled {
            let d = self.rng.exp_delay(self.cfg.mobility.mean_dwell);
            self.queue.push(self.now + d, Ev::AutoLeave { mh });
        }
        if self.cfg.disconnect.enabled {
            let d = self.rng.exp_delay(self.cfg.disconnect.mean_uptime);
            self.queue.push(self.now + d, Ev::AutoDisconnect { mh });
        }
    }

    fn flush_outbox(&mut self, mh: MhId, mss: MssId) {
        // Popped one at a time so the outbox keeps its allocation for the
        // host's next move (`push_uplink` never touches it).
        while let Some(out) = self.mhs[mh.index()].outbox.pop_front() {
            self.push_uplink(mh, mss, out);
        }
    }
}
