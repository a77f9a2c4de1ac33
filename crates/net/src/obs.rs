//! Structured observability: typed trace events, sinks, and the JSONL
//! schema.
//!
//! The paper's arguments are *accounting* arguments — wireless vs. fixed
//! message counts, search cost, doze interruptions — so the simulator
//! records not just totals (the [`CostLedger`])
//! but a typed, replayable stream of [`TraceEvent`]s: one event per charged
//! operation plus the algorithm-level phases (critical-section request /
//! enter / exit, location-view updates, proxy forwards) that the per-phase
//! breakdowns in `tracereport` are built from.
//!
//! # Architecture
//!
//! The kernel owns at most one boxed [`TraceSink`]. When no sink is
//! installed (the default), every emission site reduces to one branch on an
//! `Option` discriminant and the event is never even constructed — tracing
//! is zero-cost when disabled, and enabling it never perturbs simulation
//! results because sinks only *observe* kernel state (no RNG draws, no
//! scheduling).
//!
//! Two sinks ship with the crate:
//!
//! * [`RingSink`] — a bounded in-memory ring for tests and debugging;
//! * [`JsonlSink`] — a buffered line-oriented JSON writer with the stable,
//!   versioned schema documented in `OBSERVABILITY.md` and parsed back by
//!   [`parse_line`].
//!
//! # Example
//!
//! ```
//! use mobidist_net::obs::{RingSink, TraceEvent};
//! use mobidist_net::prelude::*;
//!
//! struct Ping;
//! impl Protocol for Ping {
//!     type Msg = ();
//!     type Timer = ();
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
//!         ctx.send_wireless_up(MhId(0), ()).unwrap();
//!     }
//!     fn on_mss_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MssId, _: Src, _: ()) {}
//!     fn on_mh_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MhId, _: Src, _: ()) {}
//! }
//!
//! let mut sim = Simulation::new(NetworkConfig::new(2, 2), Ping);
//! sim.kernel_mut().set_trace_sink(Box::new(RingSink::new(64)));
//! sim.run_to_quiescence(10_000);
//! let ring = sim.kernel_mut().take_trace_sink().unwrap();
//! let ring = ring.as_any().downcast_ref::<RingSink>().unwrap();
//! assert!(ring.iter().any(|(_, _, e)| matches!(e, TraceEvent::UpSend { .. })));
//! ```

use crate::config::NetworkConfig;
use crate::ids::{MhId, MssId};
use crate::ledger::CostLedger;
use crate::search::SearchPolicy;
use crate::time::SimTime;
use std::any::Any;
use std::collections::VecDeque;
use std::io::Write;

/// Version stamp written as `"v"` on every JSONL line.
///
/// The schema is append-only within a version: new event kinds or new
/// optional fields may appear, but the meaning and spelling of existing
/// fields never changes. Removing or renaming anything bumps this number.
/// See `OBSERVABILITY.md` for the policy and the full field reference.
pub const SCHEMA_VERSION: u32 = 1;

/// One typed observation of kernel or algorithm activity.
///
/// Kernel events are emitted exactly once per *charged* operation, so
/// counting events reproduces the [`CostLedger`]
/// exactly:
///
/// * `fixed_msgs` = [`FixedSend`](Self::FixedSend) + [`SearchFail`](Self::SearchFail)
///   (the disconnection notice back to the origin is a charged fixed
///   message);
/// * `wireless_msgs` = [`UpSend`](Self::UpSend) +
///   [`DownSend`](Self::DownSend) + [`CellBroadcast`](Self::CellBroadcast)
///   (one charge per broadcast regardless of listeners);
/// * `searches` = [`Search`](Self::Search), with `re = true` marking the
///   counted re-searches.
///
/// Receive events (`*Recv`) are free in the cost model but carry the
/// latency information span analyses need. Algorithm-level events
/// ([`CsRequest`](Self::CsRequest)…, [`LvUpdate`](Self::LvUpdate),
/// [`ProxyForward`](Self::ProxyForward)) are emitted by the harness /
/// strategy crates through [`Ctx::emit`](crate::proto::Ctx::emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A charged point-to-point send on the fixed network.
    FixedSend {
        /// Sending MSS.
        from: MssId,
        /// Receiving MSS.
        to: MssId,
    },
    /// A fixed-network message arrived.
    FixedRecv {
        /// Receiving MSS.
        at: MssId,
        /// Sending MSS.
        from: MssId,
    },
    /// A charged wireless uplink transmission.
    UpSend {
        /// Transmitting MH.
        mh: MhId,
        /// Serving MSS the message is headed for.
        mss: MssId,
    },
    /// An uplink message arrived at the serving MSS.
    UpRecv {
        /// Receiving MSS.
        mss: MssId,
        /// Transmitting MH.
        mh: MhId,
    },
    /// A charged wireless downlink transmission to one MH.
    DownSend {
        /// Transmitting MSS.
        mss: MssId,
        /// Target MH.
        mh: MhId,
    },
    /// A downlink message was received by a still-local MH.
    DownRecv {
        /// Receiving MH.
        mh: MhId,
        /// Transmitting MSS.
        mss: MssId,
    },
    /// One charged cell-wide wireless broadcast (every listener still pays
    /// its own reception, reported as separate [`DownRecv`](Self::DownRecv)s).
    CellBroadcast {
        /// Broadcasting MSS.
        mss: MssId,
        /// MHs local to the cell at transmission time.
        listeners: u32,
    },
    /// A downlink message was lost because the MH left the cell first
    /// (prefix-delivery semantics).
    DownLost {
        /// Transmitting MSS.
        mss: MssId,
        /// The departed MH.
        mh: MhId,
    },
    /// A search was issued (initial or counted re-search after a move).
    Search {
        /// The MH being located.
        target: MhId,
        /// True when this is a re-search caused by an in-flight move.
        re: bool,
    },
    /// A search terminated at a disconnected MH; the disconnection cell's
    /// MSS sends one charged fixed message back to the origin.
    SearchFail {
        /// MSS that initiated the search.
        origin: MssId,
        /// The unreachable MH.
        target: MhId,
    },
    /// A delivery interrupted an MH in doze mode.
    DozeInterrupt {
        /// The dozing MH.
        mh: MhId,
    },
    /// An MH left its cell: the handoff begins (`leave(r)`).
    HandoffBegin {
        /// The moving MH.
        mh: MhId,
        /// The cell it left.
        from: MssId,
    },
    /// An MH joined a cell: the handoff ends (`join(mh, prev)`).
    HandoffEnd {
        /// The arriving MH.
        mh: MhId,
        /// The new cell.
        to: MssId,
        /// The previous MSS, when the configuration supplies it with the
        /// join. A ledger `handoff` is counted iff `prev` is present and
        /// differs from `to`.
        prev: Option<MssId>,
    },
    /// An MH voluntarily disconnected.
    Disconnect {
        /// The disconnecting MH.
        mh: MhId,
        /// The MSS holding its "disconnected" flag.
        mss: MssId,
    },
    /// An MH reconnected after a voluntary disconnection.
    Reconnect {
        /// The reconnecting MH.
        mh: MhId,
        /// The new cell.
        mss: MssId,
        /// Where it had disconnected, when supplied with the reconnect.
        prev: Option<MssId>,
    },
    /// An MH asked its algorithm for the critical section (workload-level).
    CsRequest {
        /// The requesting MH.
        mh: MhId,
    },
    /// An MH entered the critical section.
    CsEnter {
        /// The entering MH.
        mh: MhId,
    },
    /// An MH released the critical section.
    CsExit {
        /// The releasing MH.
        mh: MhId,
    },
    /// The location-view coordinator applied a significant view change
    /// (Section 4's `LV(G)` update).
    LvUpdate {
        /// The cell added to or removed from the view.
        cell: MssId,
        /// True for an addition, false for a deletion.
        added: bool,
    },
    /// A proxy forwarded an output to a moved client with a search
    /// (Section 5's proxy obligation).
    ProxyForward {
        /// The proxy MSS doing the forwarding.
        mss: MssId,
        /// The moved client MH.
        mh: MhId,
    },
    /// The run cache satisfied this run from a stored result instead of
    /// simulating it. Emitted (by the experiment drivers, not the kernel)
    /// as the only event of a synthetic run whose `run_end` carries the
    /// cached ledger; such runs are exempt from event-count identity
    /// checks because no kernel events were replayed.
    CacheHit {
        /// High 64 bits of the run descriptor fingerprint.
        fp_hi: u64,
        /// Low 64 bits of the run descriptor fingerprint.
        fp_lo: u64,
    },
    /// A conservative-sync barrier in a space-sharded run: the shard
    /// finished a lookahead window and exchanged cross-shard traffic. The
    /// emission time is the window-end time, so per-shard `(t, seq)` order
    /// is preserved. Only *processed* windows emit a sync; a stretch the
    /// kernel fast-forwarded over in one barrier round is folded into the
    /// next sync's `skipped` count, so `Σ (1 + skipped)` over a shard's
    /// syncs equals the run's total window count.
    ShardSync {
        /// The reporting shard.
        shard: u32,
        /// Zero-based window index.
        window: u64,
        /// Empty windows fast-forwarded over immediately before this one
        /// (serialized only when non-zero; schema-additive).
        skipped: u64,
    },
    /// A wired message was delivered out of a cross-shard mailbox. The
    /// sharded kernel charges wired messages at *delivery*, so each
    /// `shard_recv` represents exactly one ledger `fixed_msgs` charge —
    /// `tracereport --check` validates that identity per shard.
    ShardRecv {
        /// The delivering (destination) shard.
        shard: u32,
        /// Source cell of the wired message.
        from: MssId,
        /// Destination cell.
        to: MssId,
    },
    /// A combining proxy (the L2C mutex variant or a combining
    /// `ProxyRuntime` delivery) finished one batch: `size`
    /// client operations were served under a single logical-clock exchange /
    /// cell broadcast. Emitted by the algorithm layer, not the kernel, so it
    /// carries no message charge of its own — the charged operations it
    /// amortizes appear as their own events. For L2C runs the sum of `size`
    /// over all `combine_batch` events equals the run's `cs_enter` count
    /// (`tracereport --check` validates that identity).
    CombineBatch {
        /// The combining MSS.
        mss: MssId,
        /// Number of client operations served in this batch.
        size: u32,
    },
    /// The delivery engine coalesced `len` same-tick wired/uplink arrivals
    /// at one MSS into a single batched protocol callback
    /// (`DeliveryMode::Batched` only; `len >= 2`). Purely diagnostic: the
    /// coalesced messages were each charged and traced at their own
    /// send/receive events, so this carries no message charge of its own and
    /// is excluded from message-class accounting.
    DeliverBatch {
        /// The MSS whose arrivals were coalesced.
        at: MssId,
        /// Number of messages dispatched in the batch.
        len: u32,
    },
    /// The fault plane crashed an MSS (fail-stop with stable state; see
    /// SCENARIOS.md). One ledger `fault_crashes` custom counter bump per
    /// event — `tracereport --check` reconciles the counts.
    FaultCrash {
        /// The crashed station.
        mss: MssId,
    },
    /// A crashed MSS recovered with its state intact; wired messages
    /// deferred during the outage re-deliver in order right after this
    /// event. One ledger `fault_recovers` bump per event.
    FaultRecover {
        /// The recovered station.
        mss: MssId,
    },
    /// The wired plane partitioned (`healed = false`, ledger
    /// `fault_partitions`) or healed (`healed = true`, ledger
    /// `fault_heals`): cells `< cut` and cells `≥ cut` defer wired traffic
    /// across the split while it lasts.
    FaultPartition {
        /// The cut point separating the two halves.
        cut: u32,
        /// False when the partition starts, true when it heals.
        healed: bool,
    },
    /// A mass handoff storm fired: `moved` connected MHs were forced to
    /// leave their cells at once. One ledger `fault_storms` bump per event.
    FaultStorm {
        /// Number of MHs forced to move.
        moved: u32,
    },
}

/// Appends `v` in decimal, exactly as `u64::to_string` prints it.
fn push_u64(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

impl TraceEvent {
    /// The stable snake_case kind name written to the `"ev"` JSONL field.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::FixedSend { .. } => "fixed_send",
            TraceEvent::FixedRecv { .. } => "fixed_recv",
            TraceEvent::UpSend { .. } => "up_send",
            TraceEvent::UpRecv { .. } => "up_recv",
            TraceEvent::DownSend { .. } => "down_send",
            TraceEvent::DownRecv { .. } => "down_recv",
            TraceEvent::CellBroadcast { .. } => "cell_broadcast",
            TraceEvent::DownLost { .. } => "down_lost",
            TraceEvent::Search { .. } => "search",
            TraceEvent::SearchFail { .. } => "search_fail",
            TraceEvent::DozeInterrupt { .. } => "doze_interrupt",
            TraceEvent::HandoffBegin { .. } => "handoff_begin",
            TraceEvent::HandoffEnd { .. } => "handoff_end",
            TraceEvent::Disconnect { .. } => "disconnect",
            TraceEvent::Reconnect { .. } => "reconnect",
            TraceEvent::CsRequest { .. } => "cs_request",
            TraceEvent::CsEnter { .. } => "cs_enter",
            TraceEvent::CsExit { .. } => "cs_exit",
            TraceEvent::LvUpdate { .. } => "lv_update",
            TraceEvent::ProxyForward { .. } => "proxy_forward",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::ShardSync { .. } => "shard_sync",
            TraceEvent::ShardRecv { .. } => "shard_recv",
            TraceEvent::CombineBatch { .. } => "combine_batch",
            TraceEvent::DeliverBatch { .. } => "deliver_batch",
            TraceEvent::FaultCrash { .. } => "fault_crash",
            TraceEvent::FaultRecover { .. } => "fault_recover",
            TraceEvent::FaultPartition { .. } => "fault_partition",
            TraceEvent::FaultStorm { .. } => "fault_storm",
        }
    }

    /// Number of charged fixed-network messages this event represents.
    pub fn fixed_msgs(&self) -> u64 {
        match self {
            TraceEvent::FixedSend { .. }
            | TraceEvent::SearchFail { .. }
            | TraceEvent::ShardRecv { .. } => 1,
            _ => 0,
        }
    }

    /// Number of charged wireless-channel uses this event represents.
    pub fn wireless_msgs(&self) -> u64 {
        match self {
            TraceEvent::UpSend { .. }
            | TraceEvent::DownSend { .. }
            | TraceEvent::CellBroadcast { .. } => 1,
            _ => 0,
        }
    }

    /// Appends this event's `"ev"` and payload fields (no braces, no
    /// version/run/seq/time envelope) to `buf` as JSONL fragments, each with
    /// its leading comma. Static fragments and [`push_u64`] only: this runs
    /// once per traced operation, so `core::fmt` stays off the path.
    fn write_fields(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b",\"ev\":\"");
        buf.extend_from_slice(self.name().as_bytes());
        buf.push(b'"');
        let mut num = |key: &str, v: u64| {
            buf.extend_from_slice(b",\"");
            buf.extend_from_slice(key.as_bytes());
            buf.extend_from_slice(b"\":");
            push_u64(buf, v);
        };
        match *self {
            TraceEvent::FixedSend { from, to } => {
                num("from", from.0 as u64);
                num("to", to.0 as u64);
            }
            TraceEvent::FixedRecv { at, from } => {
                num("at", at.0 as u64);
                num("from", from.0 as u64);
            }
            TraceEvent::UpSend { mh, mss } | TraceEvent::UpRecv { mss, mh } => {
                num("mh", mh.0 as u64);
                num("mss", mss.0 as u64);
            }
            TraceEvent::DownSend { mss, mh }
            | TraceEvent::DownRecv { mh, mss }
            | TraceEvent::DownLost { mss, mh }
            | TraceEvent::Disconnect { mh, mss }
            | TraceEvent::ProxyForward { mss, mh } => {
                num("mh", mh.0 as u64);
                num("mss", mss.0 as u64);
            }
            TraceEvent::CellBroadcast { mss, listeners } => {
                num("mss", mss.0 as u64);
                num("listeners", listeners as u64);
            }
            TraceEvent::Search { target, re } => {
                num("target", target.0 as u64);
                num("re", re as u64);
            }
            TraceEvent::SearchFail { origin, target } => {
                num("origin", origin.0 as u64);
                num("target", target.0 as u64);
            }
            TraceEvent::DozeInterrupt { mh }
            | TraceEvent::CsRequest { mh }
            | TraceEvent::CsEnter { mh }
            | TraceEvent::CsExit { mh } => {
                num("mh", mh.0 as u64);
            }
            TraceEvent::HandoffBegin { mh, from } => {
                num("mh", mh.0 as u64);
                num("from", from.0 as u64);
            }
            TraceEvent::HandoffEnd { mh, to, prev } => {
                num("mh", mh.0 as u64);
                num("to", to.0 as u64);
                if let Some(p) = prev {
                    num("prev", p.0 as u64);
                }
            }
            TraceEvent::Reconnect { mh, mss, prev } => {
                num("mh", mh.0 as u64);
                num("mss", mss.0 as u64);
                if let Some(p) = prev {
                    num("prev", p.0 as u64);
                }
            }
            TraceEvent::LvUpdate { cell, added } => {
                num("cell", cell.0 as u64);
                num("added", added as u64);
            }
            TraceEvent::CacheHit { fp_hi, fp_lo } => {
                num("fp_hi", fp_hi);
                num("fp_lo", fp_lo);
            }
            TraceEvent::ShardSync {
                shard,
                window,
                skipped,
            } => {
                num("shard", shard as u64);
                num("window", window);
                if skipped > 0 {
                    num("skipped", skipped);
                }
            }
            TraceEvent::ShardRecv { shard, from, to } => {
                num("shard", shard as u64);
                num("from", from.0 as u64);
                num("to", to.0 as u64);
            }
            TraceEvent::CombineBatch { mss, size } => {
                num("mss", mss.0 as u64);
                num("size", size as u64);
            }
            TraceEvent::DeliverBatch { at, len } => {
                num("at", at.0 as u64);
                num("len", len as u64);
            }
            TraceEvent::FaultCrash { mss } | TraceEvent::FaultRecover { mss } => {
                num("mss", mss.0 as u64);
            }
            TraceEvent::FaultPartition { cut, healed } => {
                num("cut", cut as u64);
                num("healed", healed as u64);
            }
            TraceEvent::FaultStorm { moved } => {
                num("moved", moved as u64);
            }
        }
    }
}

/// Receiver of the kernel's typed event stream.
///
/// A sink is installed on a kernel with
/// [`Kernel::set_trace_sink`](crate::kernel::Kernel::set_trace_sink) and
/// from then on observes every emission in event order. Sinks must never
/// influence the simulation: they get read-only views and the kernel calls
/// them *after* all state changes and ledger charges for the operation.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Observes one event. `seq` is the kernel's per-run emission counter
    /// (dense from 0); `at` is the simulated time of the emission. `(at,
    /// seq)` is strictly increasing lexicographically within a run.
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent);

    /// Called when the owning kernel is rewound
    /// ([`Simulation::reset`](crate::sim::Simulation::reset) / pool reuse):
    /// drop any per-run state so the previous run cannot leak into the next.
    /// Append-only sinks should flush instead.
    fn rewind(&mut self) {}

    /// Called at the end of a measured run with the final ledger, before
    /// the sink is detached; the JSONL sink writes its `run_end` summary
    /// line here.
    fn finish(&mut self, ledger: &CostLedger) {
        let _ = ledger;
    }

    /// Upcast for read access to a concrete sink after
    /// [`take_trace_sink`](crate::kernel::Kernel::take_trace_sink).
    fn as_any(&self) -> &dyn Any;

    /// Upcast for mutable access to a concrete sink.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Bounded in-memory ring of typed events, oldest dropped first. Entries
/// are [`TraceEvent`]s, to be matched on rather than substring searched.
///
/// A capacity of `0` is an explicit no-op sink: it observes and drops every
/// event (useful to measure emission overhead without retention).
///
/// # Examples
///
/// ```
/// use mobidist_net::obs::{RingSink, TraceEvent, TraceSink};
/// use mobidist_net::ids::MhId;
/// use mobidist_net::time::SimTime;
///
/// let mut r = RingSink::new(2);
/// for i in 0..3 {
///     r.record(SimTime::from_ticks(i), i, &TraceEvent::CsRequest { mh: MhId(i as u32) });
/// }
/// assert_eq!(r.len(), 2); // bounded: oldest dropped
/// assert_eq!(r.iter().next().unwrap().1, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    cap: usize,
    entries: VecDeque<(SimTime, u64, TraceEvent)>,
}

impl RingSink {
    /// Creates a ring holding at most `cap` events (`0` = retain nothing).
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap,
            entries: VecDeque::new(),
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retained `(time, seq, event)` triples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(SimTime, u64, TraceEvent)> {
        self.entries.iter()
    }

    /// Count of retained events with the given kind name.
    pub fn count_kind(&self, name: &str) -> usize {
        self.entries
            .iter()
            .filter(|(_, _, e)| e.name() == name)
            .count()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back((at, seq, *ev));
    }

    fn rewind(&mut self) {
        self.entries.clear();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Per-run metadata written as the `run_begin` JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Run id, unique within one trace file set.
    pub run: u64,
    /// Free-form lower-case label naming what ran (e.g. `"l2"`, `"r1"`).
    pub label: String,
    /// Number of MSSs, `M`.
    pub m: u64,
    /// Number of MHs, `N`.
    pub n: u64,
    /// Root seed of the run.
    pub seed: u64,
    /// `C_fixed` cost units.
    pub c_fixed: u64,
    /// `C_wireless` cost units.
    pub c_wireless: u64,
    /// `C_search` cost units (oracle policy).
    pub c_search: u64,
    /// Search policy name: `"oracle"`, `"flood"` or `"home_agent"`.
    pub policy: String,
}

impl RunMeta {
    /// Builds the metadata for `run`/`label` from a network configuration.
    ///
    /// # Panics
    ///
    /// Panics when `label` contains characters outside `[a-z0-9_-]` — the
    /// schema writes labels unescaped.
    pub fn new(run: u64, label: &str, cfg: &NetworkConfig) -> Self {
        assert!(
            label
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'),
            "trace label must be [a-z0-9_-]: {label:?}"
        );
        RunMeta {
            run,
            label: label.to_owned(),
            m: cfg.num_mss as u64,
            n: cfg.num_mh as u64,
            seed: cfg.seed,
            c_fixed: cfg.cost.c_fixed,
            c_wireless: cfg.cost.c_wireless,
            c_search: cfg.cost.c_search,
            policy: match cfg.search {
                SearchPolicy::Oracle => "oracle",
                SearchPolicy::Flood => "flood",
                SearchPolicy::HomeAgent => "home_agent",
            }
            .to_owned(),
        }
    }
}

/// Ledger snapshot written as the `run_end` JSONL line, used by
/// `tracereport --check` to diff trace-derived counts against the ledger's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Run id this summary closes.
    pub run: u64,
    /// Ledger `fixed_msgs`.
    pub fixed_msgs: u64,
    /// Ledger `wireless_msgs`.
    pub wireless_msgs: u64,
    /// Ledger `searches`.
    pub searches: u64,
    /// Ledger `re_searches`.
    pub re_searches: u64,
    /// Ledger `search_failures`.
    pub search_failures: u64,
    /// Ledger `moves`.
    pub moves: u64,
    /// Ledger `handoffs`.
    pub handoffs: u64,
    /// Ledger `disconnects`.
    pub disconnects: u64,
    /// Ledger `reconnects`.
    pub reconnects: u64,
    /// Ledger `doze_interruptions`.
    pub doze_interruptions: u64,
    /// Ledger `wireless_losses`.
    pub wireless_losses: u64,
    /// Ledger `total_cost()`.
    pub total_cost: u64,
    /// Ledger `total_energy()`.
    pub total_energy: u64,
    /// Ledger custom counter `fault_crashes` (optional in the JSONL schema:
    /// written only when nonzero, parsed as 0 when absent).
    pub fault_crashes: u64,
    /// Ledger custom counter `fault_recovers` (optional, see above).
    pub fault_recovers: u64,
    /// Ledger custom counter `fault_partitions` (optional, see above).
    pub fault_partitions: u64,
    /// Ledger custom counter `fault_heals` (optional, see above).
    pub fault_heals: u64,
    /// Ledger custom counter `fault_storms` (optional, see above).
    pub fault_storms: u64,
}

impl RunSummary {
    /// Snapshots the counters `tracereport` cross-checks from `ledger`.
    pub fn from_ledger(run: u64, ledger: &CostLedger) -> Self {
        RunSummary {
            run,
            fixed_msgs: ledger.fixed_msgs,
            wireless_msgs: ledger.wireless_msgs,
            searches: ledger.searches,
            re_searches: ledger.re_searches,
            search_failures: ledger.search_failures,
            moves: ledger.moves,
            handoffs: ledger.handoffs,
            disconnects: ledger.disconnects,
            reconnects: ledger.reconnects,
            doze_interruptions: ledger.doze_interruptions,
            wireless_losses: ledger.wireless_losses,
            total_cost: ledger.total_cost(),
            total_energy: ledger.total_energy(),
            fault_crashes: ledger.custom("fault_crashes"),
            fault_recovers: ledger.custom("fault_recovers"),
            fault_partitions: ledger.custom("fault_partitions"),
            fault_heals: ledger.custom("fault_heals"),
            fault_storms: ledger.custom("fault_storms"),
        }
    }
}

/// Buffered JSONL writer sink with the stable schema of `OBSERVABILITY.md`.
///
/// Writes one `run_begin` line at construction, one line per observed
/// event, and one `run_end` ledger summary from [`TraceSink::finish`]. The
/// writer is flushed on `finish`, `rewind` and drop, so a sink that is
/// simply dropped still leaves a complete file.
///
/// Each line is one `write_all` into the supplied writer (wrap files in a
/// `BufWriter`, as [`jsonl_file_sink`] does). An I/O error drops that line
/// and never aborts the run; `run_end.events` counts lines attempted, so
/// `tracereport --check` notices the gap.
///
/// # Examples
///
/// ```
/// use mobidist_net::obs::{parse_line, JsonlSink, Line, RunMeta, TraceEvent, TraceSink};
/// use mobidist_net::ids::{MhId, MssId};
/// use mobidist_net::prelude::*;
///
/// let meta = RunMeta::new(0, "demo", &NetworkConfig::new(2, 2));
/// let mut sink = JsonlSink::new(Vec::new(), meta).unwrap();
/// sink.record(
///     SimTime::from_ticks(5),
///     0,
///     &TraceEvent::FixedSend { from: MssId(0), to: MssId(1) },
/// );
/// let out = String::from_utf8(sink.into_inner().unwrap()).unwrap();
/// let mut lines = out.lines();
/// assert!(matches!(parse_line(lines.next().unwrap()), Ok(Line::RunBegin(_))));
/// match parse_line(lines.next().unwrap()) {
///     Ok(Line::Event { seq: 0, ev: TraceEvent::FixedSend { .. }, .. }) => {}
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    // `Option` so `into_inner` can move the writer out despite `Drop`.
    out: Option<W>,
    run: u64,
    // Reused line buffer. Its first `prefix` bytes are the run's event-line
    // envelope `{"v":1,"run":R,"seq":`, rendered once; `record` truncates
    // back to it instead of formatting it again.
    buf: Vec<u8>,
    prefix: usize,
    events: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates the sink and writes the `run_begin` line for `meta`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W, meta: RunMeta) -> std::io::Result<Self> {
        let mut buf = Vec::with_capacity(160);
        let _ = writeln!(
            buf,
            "{{\"v\":{SCHEMA_VERSION},\"run\":{},\"ev\":\"run_begin\",\"label\":\"{}\",\
             \"m\":{},\"n\":{},\"seed\":{},\"c_fixed\":{},\"c_wireless\":{},\"c_search\":{},\
             \"policy\":\"{}\"}}",
            meta.run,
            meta.label,
            meta.m,
            meta.n,
            meta.seed,
            meta.c_fixed,
            meta.c_wireless,
            meta.c_search,
            meta.policy,
        );
        out.write_all(&buf)?;
        buf.clear();
        let _ = write!(
            buf,
            "{{\"v\":{SCHEMA_VERSION},\"run\":{},\"seq\":",
            meta.run
        );
        Ok(JsonlSink {
            out: Some(out),
            run: meta.run,
            prefix: buf.len(),
            buf,
            events: 0,
        })
    }

    /// Event lines attempted so far (excluding the envelope lines).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let mut out = self.out.take().expect("writer present until into_inner");
        out.flush()?;
        Ok(out)
    }
}

/// Opens `path` in append mode and wraps it in a buffered [`JsonlSink`].
///
/// Append mode lets many consecutive runs (e.g. all runs processed by one
/// sweep worker) share a single file; each contributes its own
/// `run_begin`/`run_end` envelope.
///
/// # Errors
///
/// Propagates file-open and header-write errors.
pub fn jsonl_file_sink(
    path: &std::path::Path,
    meta: RunMeta,
) -> std::io::Result<JsonlSink<std::io::BufWriter<std::fs::File>>> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    JsonlSink::new(std::io::BufWriter::new(file), meta)
}

impl<W: Write + Send + std::fmt::Debug + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent) {
        let buf = &mut self.buf;
        buf.truncate(self.prefix);
        push_u64(buf, seq);
        buf.extend_from_slice(b",\"t\":");
        push_u64(buf, at.ticks());
        ev.write_fields(buf);
        buf.extend_from_slice(b"}\n");
        if let Some(out) = self.out.as_mut() {
            // Trace I/O failures must not abort a simulation; drop the line.
            let _ = out.write_all(buf);
        }
        self.events += 1;
    }

    fn rewind(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }

    fn finish(&mut self, ledger: &CostLedger) {
        let s = RunSummary::from_ledger(self.run, ledger);
        let mut line = Vec::with_capacity(400);
        let _ = write!(
            line,
            "{{\"v\":{SCHEMA_VERSION},\"run\":{},\"ev\":\"run_end\",\"events\":{},\
             \"fixed_msgs\":{},\"wireless_msgs\":{},\"searches\":{},\"re_searches\":{},\
             \"search_failures\":{},\"moves\":{},\"handoffs\":{},\"disconnects\":{},\
             \"reconnects\":{},\"doze_interruptions\":{},\"wireless_losses\":{},\
             \"total_cost\":{},\"total_energy\":{}}}",
            self.run,
            self.events,
            s.fixed_msgs,
            s.wireless_msgs,
            s.searches,
            s.re_searches,
            s.search_failures,
            s.moves,
            s.handoffs,
            s.disconnects,
            s.reconnects,
            s.doze_interruptions,
            s.wireless_losses,
            s.total_cost,
            s.total_energy,
        );
        // Fault counters are optional fields (schema v1 is append-only):
        // written only when nonzero, so fault-free traces are byte-identical
        // to those produced before the fault plane existed.
        for (key, v) in [
            ("fault_crashes", s.fault_crashes),
            ("fault_recovers", s.fault_recovers),
            ("fault_partitions", s.fault_partitions),
            ("fault_heals", s.fault_heals),
            ("fault_storms", s.fault_storms),
        ] {
            if v != 0 {
                line.pop(); // reopen the object: drop the closing '}'
                let _ = write!(line, ",\"{key}\":{v}}}");
            }
        }
        line.push(b'\n');
        if let Some(out) = self.out.as_mut() {
            let _ = out.write_all(&line);
            let _ = out.flush();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }
}

// ----- schema parsing -------------------------------------------------------

/// One parsed JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Line {
    /// A `run_begin` envelope line.
    RunBegin(RunMeta),
    /// An event line.
    Event {
        /// Run id the event belongs to.
        run: u64,
        /// Kernel emission sequence number within the run.
        seq: u64,
        /// Simulated time of the emission.
        t: SimTime,
        /// The decoded event.
        ev: TraceEvent,
    },
    /// A `run_end` envelope line; `events` is the producer's event count.
    RunEnd {
        /// The ledger snapshot.
        summary: RunSummary,
        /// Events the producer claims to have written for this run.
        events: u64,
    },
}

/// A schema violation found while parsing a JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace schema error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

#[cold]
fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// A `ParseError` about one field: `what` is formatted around its key.
#[cold]
fn field_err(key: &str, what: std::fmt::Arguments<'_>) -> ParseError {
    ParseError(format!("field {key:?} {what}"))
}

/// The widest v1 line, `run_end` with every fault counter, has 22 fields.
const MAX_FIELDS: usize = 24;

/// A field's value: the slice between the quotes or the bare digits, and for
/// bare digits that fit `u64` their value, read in the pass that checks them.
#[derive(Clone, Copy)]
struct Value<'a> {
    raw: &'a str,
    num: Option<u64>,
}

/// One flat JSONL object of the trace schema — string and unsigned integer
/// values only, no nesting, no escapes — as keys and values borrowed from
/// the line, so reading a line never touches the allocator.
struct Fields<'a> {
    slots: [(&'a str, Value<'a>); MAX_FIELDS],
    len: usize,
}

impl<'a> Fields<'a> {
    const EMPTY: Self = Fields {
        slots: [("", Value { raw: "", num: None }); MAX_FIELDS],
        len: 0,
    };

    /// Reads `line` into `self` (in place: the table is too big to move).
    fn scan(&mut self, line: &'a str) -> Result<(), ParseError> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| ParseError(format!("not an object: {line:?}")))?;
        // Keys and values are a few bytes long: a byte loop beats `memchr`.
        let quote = |s: &str| s.bytes().position(|b| b == b'"');
        let mut rest = body;
        while !rest.is_empty() {
            let Some(after_quote) = rest.strip_prefix('"') else {
                return err(format!("expected key quote at {rest:?}"));
            };
            let Some(kq) = quote(after_quote) else {
                return err("unterminated key");
            };
            let key = &after_quote[..kq];
            let Some(after_colon) = after_quote[kq + 1..].strip_prefix(':') else {
                return err(format!("expected ':' after key {key:?}"));
            };
            let (value, tail) = if let Some(v) = after_colon.strip_prefix('"') {
                let Some(vq) = quote(v) else {
                    return err(format!("unterminated string value for {key:?}"));
                };
                let raw = &v[..vq];
                (Value { raw, num: None }, &v[vq + 1..])
            } else {
                let (mut digits, mut num) = (0, Some(0u64));
                for b in after_colon.bytes().take_while(u8::is_ascii_digit) {
                    num = num.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
                    digits += 1;
                }
                let (raw, tail) = after_colon.split_at(digits);
                if digits == 0 || !(tail.is_empty() || tail.starts_with(',')) {
                    let v = after_colon.split(',').next().unwrap_or_default();
                    return err(format!(
                        "value of {key:?} is not an unsigned integer: {v:?}"
                    ));
                }
                (Value { raw, num }, tail)
            };
            if self.get(key).is_some() {
                return err(format!("duplicate key {key:?}"));
            }
            let Some(slot) = self.slots.get_mut(self.len) else {
                return err(format!("more than {MAX_FIELDS} fields"));
            };
            *slot = (key, value);
            self.len += 1;
            rest = match tail.strip_prefix(',') {
                Some(t) => t,
                None if tail.is_empty() => tail,
                None => return err(format!("expected ',' at {tail:?}")),
            };
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<Value<'a>> {
        let mut known = self.slots[..self.len].iter();
        known.find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    fn value(&self, key: &str) -> Result<Value<'a>, ParseError> {
        self.get(key)
            .ok_or_else(|| field_err(key, format_args!("is missing")))
    }

    fn string(&self, key: &str) -> Result<&'a str, ParseError> {
        self.value(key).map(|v| v.raw)
    }

    fn num(&self, key: &str) -> Result<u64, ParseError> {
        let Value { raw, num } = self.value(key)?;
        num.ok_or_else(|| field_err(key, format_args!("is not a number: {raw:?}")))
    }

    /// An id or count the event types hold as `u32`.
    fn id(&self, key: &str) -> Result<u32, ParseError> {
        let v = self.num(key)?;
        u32::try_from(v).map_err(|_| field_err(key, format_args!("exceeds u32: {v}")))
    }

    fn flag(&self, key: &str) -> Result<bool, ParseError> {
        match self.num(key)? {
            v @ 0..=1 => Ok(v == 1),
            v => Err(field_err(key, format_args!("is not 0 or 1: {v}"))),
        }
    }

    fn opt_num(&self, key: &str) -> Result<Option<u64>, ParseError> {
        self.get(key).map(|_| self.num(key)).transpose()
    }

    fn opt_id(&self, key: &str) -> Result<Option<u32>, ParseError> {
        self.get(key).map(|_| self.id(key)).transpose()
    }
}

fn mss(f: &Fields, key: &str) -> Result<MssId, ParseError> {
    f.id(key).map(MssId)
}

fn mh(f: &Fields, key: &str) -> Result<MhId, ParseError> {
    f.id(key).map(MhId)
}

/// Parses one line of the versioned JSONL schema back into a [`Line`].
///
/// Inverse of what [`JsonlSink`] writes; `tracereport` and the tracecheck
/// gate are built on it.
///
/// # Errors
///
/// Returns a [`ParseError`] naming the violated schema rule (unknown event
/// kind, missing field, bad version, malformed JSON).
pub fn parse_line(line: &str) -> Result<Line, ParseError> {
    let mut f = Fields::EMPTY;
    f.scan(line)?;
    let v = f.num("v")?;
    if v != SCHEMA_VERSION as u64 {
        return err(format!("unsupported schema version {v}"));
    }
    let run = f.num("run")?;
    match f.string("ev")? {
        "run_begin" => Ok(Line::RunBegin(RunMeta {
            run,
            label: f.string("label")?.to_owned(),
            m: f.num("m")?,
            n: f.num("n")?,
            seed: f.num("seed")?,
            c_fixed: f.num("c_fixed")?,
            c_wireless: f.num("c_wireless")?,
            c_search: f.num("c_search")?,
            policy: f.string("policy")?.to_owned(),
        })),
        "run_end" => Ok(Line::RunEnd {
            events: f.num("events")?,
            summary: RunSummary {
                run,
                fixed_msgs: f.num("fixed_msgs")?,
                wireless_msgs: f.num("wireless_msgs")?,
                searches: f.num("searches")?,
                re_searches: f.num("re_searches")?,
                search_failures: f.num("search_failures")?,
                moves: f.num("moves")?,
                handoffs: f.num("handoffs")?,
                disconnects: f.num("disconnects")?,
                reconnects: f.num("reconnects")?,
                doze_interruptions: f.num("doze_interruptions")?,
                wireless_losses: f.num("wireless_losses")?,
                total_cost: f.num("total_cost")?,
                total_energy: f.num("total_energy")?,
                fault_crashes: f.opt_num("fault_crashes")?.unwrap_or(0),
                fault_recovers: f.opt_num("fault_recovers")?.unwrap_or(0),
                fault_partitions: f.opt_num("fault_partitions")?.unwrap_or(0),
                fault_heals: f.opt_num("fault_heals")?.unwrap_or(0),
                fault_storms: f.opt_num("fault_storms")?.unwrap_or(0),
            },
        }),
        kind => {
            let event = match kind {
                "fixed_send" => TraceEvent::FixedSend {
                    from: mss(&f, "from")?,
                    to: mss(&f, "to")?,
                },
                "fixed_recv" => TraceEvent::FixedRecv {
                    at: mss(&f, "at")?,
                    from: mss(&f, "from")?,
                },
                "up_send" => TraceEvent::UpSend {
                    mh: mh(&f, "mh")?,
                    mss: mss(&f, "mss")?,
                },
                "up_recv" => TraceEvent::UpRecv {
                    mss: mss(&f, "mss")?,
                    mh: mh(&f, "mh")?,
                },
                "down_send" => TraceEvent::DownSend {
                    mss: mss(&f, "mss")?,
                    mh: mh(&f, "mh")?,
                },
                "down_recv" => TraceEvent::DownRecv {
                    mh: mh(&f, "mh")?,
                    mss: mss(&f, "mss")?,
                },
                "cell_broadcast" => TraceEvent::CellBroadcast {
                    mss: mss(&f, "mss")?,
                    listeners: f.id("listeners")?,
                },
                "down_lost" => TraceEvent::DownLost {
                    mss: mss(&f, "mss")?,
                    mh: mh(&f, "mh")?,
                },
                "search" => TraceEvent::Search {
                    target: mh(&f, "target")?,
                    re: f.flag("re")?,
                },
                "search_fail" => TraceEvent::SearchFail {
                    origin: mss(&f, "origin")?,
                    target: mh(&f, "target")?,
                },
                "doze_interrupt" => TraceEvent::DozeInterrupt { mh: mh(&f, "mh")? },
                "handoff_begin" => TraceEvent::HandoffBegin {
                    mh: mh(&f, "mh")?,
                    from: mss(&f, "from")?,
                },
                "handoff_end" => TraceEvent::HandoffEnd {
                    mh: mh(&f, "mh")?,
                    to: mss(&f, "to")?,
                    prev: f.opt_id("prev")?.map(MssId),
                },
                "disconnect" => TraceEvent::Disconnect {
                    mh: mh(&f, "mh")?,
                    mss: mss(&f, "mss")?,
                },
                "reconnect" => TraceEvent::Reconnect {
                    mh: mh(&f, "mh")?,
                    mss: mss(&f, "mss")?,
                    prev: f.opt_id("prev")?.map(MssId),
                },
                "cs_request" => TraceEvent::CsRequest { mh: mh(&f, "mh")? },
                "cs_enter" => TraceEvent::CsEnter { mh: mh(&f, "mh")? },
                "cs_exit" => TraceEvent::CsExit { mh: mh(&f, "mh")? },
                "lv_update" => TraceEvent::LvUpdate {
                    cell: mss(&f, "cell")?,
                    added: f.flag("added")?,
                },
                "proxy_forward" => TraceEvent::ProxyForward {
                    mss: mss(&f, "mss")?,
                    mh: mh(&f, "mh")?,
                },
                "cache_hit" => TraceEvent::CacheHit {
                    fp_hi: f.num("fp_hi")?,
                    fp_lo: f.num("fp_lo")?,
                },
                "shard_sync" => TraceEvent::ShardSync {
                    shard: f.id("shard")?,
                    window: f.num("window")?,
                    skipped: f.opt_num("skipped")?.unwrap_or(0),
                },
                "shard_recv" => TraceEvent::ShardRecv {
                    shard: f.id("shard")?,
                    from: mss(&f, "from")?,
                    to: mss(&f, "to")?,
                },
                "combine_batch" => TraceEvent::CombineBatch {
                    mss: mss(&f, "mss")?,
                    size: f.id("size")?,
                },
                "deliver_batch" => TraceEvent::DeliverBatch {
                    at: mss(&f, "at")?,
                    len: f.id("len")?,
                },
                "fault_crash" => TraceEvent::FaultCrash {
                    mss: mss(&f, "mss")?,
                },
                "fault_recover" => TraceEvent::FaultRecover {
                    mss: mss(&f, "mss")?,
                },
                "fault_partition" => TraceEvent::FaultPartition {
                    cut: f.id("cut")?,
                    healed: f.flag("healed")?,
                },
                "fault_storm" => TraceEvent::FaultStorm {
                    moved: f.id("moved")?,
                },
                other => return err(format!("unknown event kind {other:?}")),
            };
            Ok(Line::Event {
                run,
                seq: f.num("seq")?,
                t: SimTime::from_ticks(f.num("t")?),
                ev: event,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_bounds_and_rewinds() {
        let mut r = RingSink::new(3);
        for i in 0..5u64 {
            r.record(
                SimTime::from_ticks(i),
                i,
                &TraceEvent::CsExit { mh: MhId(0) },
            );
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().next().unwrap().1, 2);
        assert_eq!(r.count_kind("cs_exit"), 3);
        r.rewind();
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_ring_is_a_no_op() {
        let mut r = RingSink::new(0);
        r.record(SimTime::ZERO, 0, &TraceEvent::CsExit { mh: MhId(0) });
        assert!(r.is_empty());
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"v\":99,\"run\":0,\"ev\":\"run_begin\"}").is_err());
        assert!(
            parse_line("{\"v\":1,\"run\":0,\"ev\":\"no_such_kind\",\"seq\":0,\"t\":0}").is_err()
        );
        // Missing required field.
        assert!(parse_line(
            "{\"v\":1,\"run\":0,\"seq\":0,\"t\":0,\"ev\":\"fixed_send\",\"from\":1}"
        )
        .is_err());
        // Negative / non-integer values are rejected.
        assert!(
            parse_line("{\"v\":1,\"run\":-1,\"ev\":\"cs_exit\",\"seq\":0,\"t\":0,\"mh\":0}")
                .is_err()
        );
        // Ids and counts above `u32::MAX`, booleans other than 0/1 and
        // duplicated keys are errors, not silently narrowed or first-wins.
        let event =
            |fields: &str| parse_line(&format!("{{\"v\":1,\"run\":0,\"seq\":0,\"t\":0,{fields}}}"));
        assert!(event("\"ev\":\"fault_crash\",\"mss\":4294967295").is_ok());
        // An unknown key that merely resembles `mh` is not a duplicate.
        assert!(event("\"ev\":\"cs_exit\",\"mh\":0,\"mx\":1").is_ok());
        for bad in [
            "\"ev\":\"fault_crash\",\"mss\":4294967296",
            "\"ev\":\"cs_exit\",\"mh\":4294967296",
            "\"ev\":\"handoff_end\",\"mh\":0,\"to\":1,\"prev\":4294967296",
            "\"ev\":\"cell_broadcast\",\"mss\":0,\"listeners\":4294967296",
            "\"ev\":\"shard_sync\",\"shard\":4294967296,\"window\":0",
            "\"ev\":\"combine_batch\",\"mss\":0,\"size\":4294967296",
            "\"ev\":\"deliver_batch\",\"at\":0,\"len\":4294967296",
            "\"ev\":\"fault_partition\",\"cut\":4294967296,\"healed\":0",
            "\"ev\":\"fault_storm\",\"moved\":4294967296",
            "\"ev\":\"cache_hit\",\"fp_hi\":18446744073709551616,\"fp_lo\":0",
            "\"ev\":\"search\",\"target\":0,\"re\":2",
            "\"ev\":\"lv_update\",\"cell\":0,\"added\":2",
            "\"ev\":\"fault_partition\",\"cut\":1,\"healed\":2",
            "\"ev\":\"cs_exit\",\"mh\":0,\"mh\":0",
            "\"ev\":\"cs_exit\",\"mh\":0,\"seq\":1",
            "\"ev\":\"cs_exit\",\"mh\":\"0\"",
        ] {
            assert!(event(bad).is_err(), "accepted {bad}");
        }
        // Unknown keys are tolerated up to the table's size, not beyond it.
        let padded = |n: usize| {
            let pad: String = (0..n).map(|i| format!(",\"x{i}\":0")).collect();
            event(&format!("\"ev\":\"cs_exit\",\"mh\":0{pad}"))
        };
        assert!(padded(MAX_FIELDS - 6).is_ok());
        assert!(padded(MAX_FIELDS - 5).is_err());
    }

    #[test]
    #[should_panic(expected = "trace label")]
    fn labels_are_restricted_to_schema_safe_characters() {
        let _ = RunMeta::new(0, "bad label!", &NetworkConfig::new(1, 1));
    }
}
