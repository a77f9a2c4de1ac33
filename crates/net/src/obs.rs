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
//! * [`JsonlSink`] — a block-buffered line-oriented JSON writer with the
//!   stable, versioned schema documented in `OBSERVABILITY.md` and parsed
//!   back by [`parse_line`].
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
//! sim.set_trace_sink(Box::new(RingSink::new(64)));
//! sim.run_to_quiescence(10_000);
//! let ring = sim.finish_trace().unwrap();
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

/// Bytes a [`JsonlSink`] collects before it hands them to its writer.
const BLOCK: usize = 8 * 1024;

/// `"00" "01" … "99"`: integers are rendered two digits per division.
const PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// The widest decimal `u64`.
const U64_WIDTH: usize = 20;

/// Writes `v` in decimal at the start of `dst`, exactly as `u64::to_string`
/// prints it, and returns its length.
#[inline]
fn put_decimal(dst: &mut [u8; U64_WIDTH], mut v: u64) -> usize {
    let len = v.checked_ilog10().map_or(1, |l| l as usize + 1);
    let mut end = len;
    while v >= 100 {
        let p = 2 * (v % 100) as usize;
        v /= 100;
        end -= 2;
        dst[end..end + 2].copy_from_slice(&PAIRS[p..p + 2]);
    }
    if v >= 10 {
        let p = 2 * v as usize;
        dst[..2].copy_from_slice(&PAIRS[p..p + 2]);
    } else {
        dst[0] = b'0' + v as u8;
    }
    len
}

/// The larger of `widths`, for sizing buffers in constants.
const fn widest(widths: &[usize]) -> usize {
    let (mut max, mut i) = (0, 0);
    while i < widths.len() {
        if widths[i] > max {
            max = widths[i];
        }
        i += 1;
    }
    max
}

/// One line being encoded in place, at the end of a [`JsonlSink`]'s block:
/// a window with room for the widest line, and how far the line reaches into
/// it. Every store has a size known at compile time; a fixed-width store may
/// run past the line's end, into bytes the next store overwrites.
struct LineOut<'a> {
    win: &'a mut [u8; LINE_ROOM],
    at: usize,
}

impl<'a> LineOut<'a> {
    /// A line that starts at byte `from` of `block`.
    #[inline]
    fn new(block: &'a mut [u8; BLOCK + LINE_ROOM], from: usize) -> Self {
        let win = (&mut block[from..from + LINE_ROOM]).try_into();
        LineOut {
            win: win.expect("the window is LINE_ROOM long"),
            at: 0,
        }
    }

    #[inline(always)]
    fn put(&mut self, bytes: &[u8]) {
        self.win[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// Stores all of `window` and keeps its first `len` bytes.
    #[inline(always)]
    fn window<const N: usize>(&mut self, window: &[u8; N], len: usize) {
        self.win[self.at..self.at + N].copy_from_slice(window);
        self.at += len;
    }

    /// Appends `v` in decimal; ids of up to three digits, what most fields
    /// carry, take one branch and at most two stores.
    #[inline(always)]
    fn u64(&mut self, v: u64) {
        let at = self.at;
        if v < 10 {
            self.win[at] = b'0' + v as u8;
            self.at += 1;
        } else if v < 100 {
            let p = 2 * v as usize;
            self.win[at..at + 2].copy_from_slice(&PAIRS[p..p + 2]);
            self.at += 2;
        } else if v < 1000 {
            let p = 2 * (v % 100) as usize;
            self.win[at] = b'0' + (v / 100) as u8;
            self.win[at + 1..at + 3].copy_from_slice(&PAIRS[p..p + 2]);
            self.at += 3;
        } else {
            let dst = (&mut self.win[at..at + U64_WIDTH]).try_into();
            self.at += put_decimal(dst.expect("U64_WIDTH long"), v);
        }
    }
}

/// How one field of type `T` travels in a JSONL line. Every field type
/// carries itself; a row of a schema table names another carrier (`as
/// Additive`) where the wire form differs from what the type alone implies.
trait Wire<T = Self> {
    /// The most digits the value can take on the wire.
    const WIDTH: usize;

    /// Appends `frag` — the field's `,"key":` — and the value. Static
    /// fragments and [`LineOut::u64`] only: this runs once per traced
    /// operation, so `core::fmt` and the allocator stay off the path.
    fn put(v: T, frag: &str, line: &mut LineOut<'_>);

    /// Reads the field `key` back out of a scanned line.
    fn get(f: &Fields<'_>, key: &str) -> Result<T, ParseError>;
}

impl Wire for u64 {
    const WIDTH: usize = U64_WIDTH;

    #[inline(always)]
    fn put(v: u64, frag: &str, line: &mut LineOut<'_>) {
        line.put(frag.as_bytes());
        line.u64(v);
    }

    fn get(f: &Fields<'_>, key: &str) -> Result<u64, ParseError> {
        f.num(key)
    }
}

/// An id or count the event types hold as `u32`; wider is an error.
impl Wire for u32 {
    const WIDTH: usize = 10;

    #[inline(always)]
    fn put(v: u32, frag: &str, line: &mut LineOut<'_>) {
        u64::put(u64::from(v), frag, line);
    }

    fn get(f: &Fields<'_>, key: &str) -> Result<u32, ParseError> {
        let v = f.num(key)?;
        u32::try_from(v).map_err(|_| field_err(key, format_args!("exceeds u32: {v}")))
    }
}

/// `0` or `1`; any other number is an error.
impl Wire for bool {
    const WIDTH: usize = 1;

    #[inline(always)]
    fn put(v: bool, frag: &str, line: &mut LineOut<'_>) {
        u64::put(u64::from(v), frag, line);
    }

    fn get(f: &Fields<'_>, key: &str) -> Result<bool, ParseError> {
        match f.num(key)? {
            v @ 0..=1 => Ok(v == 1),
            v => Err(field_err(key, format_args!("is not 0 or 1: {v}"))),
        }
    }
}

macro_rules! wire_id {
    ($($id:ident)*) => {$(
        impl Wire for $id {
            const WIDTH: usize = u32::WIDTH;

            #[inline(always)]
            fn put(v: $id, frag: &str, line: &mut LineOut<'_>) {
                u32::put(v.0, frag, line);
            }

            fn get(f: &Fields<'_>, key: &str) -> Result<$id, ParseError> {
                u32::get(f, key).map($id)
            }
        }
    )*};
}
wire_id!(MssId MhId);

/// Absent when `None`.
impl<T: Wire> Wire for Option<T> {
    const WIDTH: usize = T::WIDTH;

    #[inline(always)]
    fn put(v: Option<T>, frag: &str, line: &mut LineOut<'_>) {
        if let Some(v) = v {
            T::put(v, frag, line);
        }
    }

    fn get(f: &Fields<'_>, key: &str) -> Result<Option<T>, ParseError> {
        f.get(key).map(|_| T::get(f, key)).transpose()
    }
}

/// Carrier of a counter added to a line after schema v1 shipped: absent
/// when 0 and read as 0 when absent, so lines that never needed it are
/// byte-identical to those written before it existed.
struct Additive;

impl Wire<u64> for Additive {
    const WIDTH: usize = u64::WIDTH;

    #[inline(always)]
    fn put(v: u64, frag: &str, line: &mut LineOut<'_>) {
        Option::put((v != 0).then_some(v), frag, line);
    }

    fn get(f: &Fields<'_>, key: &str) -> Result<u64, ParseError> {
        Ok(Option::get(f, key)?.unwrap_or(0))
    }
}

/// The carrier of a table field: the one the row names, else its own type.
macro_rules! carrier {
    ($ty:ty) => {
        $ty
    };
    ($ty:ty, $via:ty) => {
        $via
    };
}

/// The event schema, written once. Each row is a kind: its docs, its
/// variant, its wire name, and its fields **in wire order** with their docs
/// and types. From the rows come [`TraceEvent`] (so the enum's declared
/// field order is the wire order), [`TraceEvent::name`], the encoder behind
/// [`JsonlSink`], the decoder behind [`parse_line`], and [`SCHEMA`]. A row's
/// first doc line is its one-line meaning in `SCHEMA` and `tracereport
/// --help`, so it has to stand on its own.
macro_rules! trace_schema {
    ($(
        #[doc = $summary:literal]
        $(#[doc = $more:literal])*
        $variant:ident = $wire:literal {$(
            $(#[doc = $fdoc:literal])+
            $field:ident: $ty:ty $(as $via:ty)?,
        )*}
    )*) => {
        /// One typed observation of kernel or algorithm activity.
        ///
        /// Kernel events are emitted exactly once per *charged* operation, so
        /// counting events reproduces the [`CostLedger`] exactly.
        /// [`RunSummary::tally`] is that identity in full; its message rows:
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
        pub enum TraceEvent {$(
            #[doc = $summary]
            $(#[doc = $more])*
            $variant {$(
                $(#[doc = $fdoc])+
                $field: $ty,
            )*},
        )*}

        /// Every event kind as `(wire name, field keys in wire order,
        /// one-line meaning)`, in declaration order.
        pub const SCHEMA: &[(&str, &[&str], &str)] = &[$(
            ($wire, &[$(stringify!($field)),*], $summary.trim_ascii()),
        )*];

        impl TraceEvent {
            /// The stable snake_case kind name written to the `"ev"` JSONL field.
            pub fn name(&self) -> &'static str {
                match self {$(
                    TraceEvent::$variant { .. } => $wire,
                )*}
            }

            /// The widest `"ev"` and payload fields [`write_fields`](Self::write_fields)
            /// appends, over every kind.
            const FIELDS_WIDTH: usize = widest(&[$(
                concat!(",\"ev\":\"", $wire, "\"").len()
                $(+ concat!(",\"", stringify!($field), "\":").len()
                    + <carrier!($ty $(, $via)?) as Wire<$ty>>::WIDTH)*
            ),*]);

            /// Appends this event's `"ev"` and payload fields (no braces, no
            /// version/run/seq/time envelope) to `line` as JSONL fragments,
            /// each with its leading comma.
            #[inline(always)]
            fn write_fields(&self, line: &mut LineOut<'_>) {
                match *self {$(
                    TraceEvent::$variant { $($field),* } => {
                        line.put(concat!(",\"ev\":\"", $wire, "\"").as_bytes());
                        $(<carrier!($ty $(, $via)?) as Wire<$ty>>::put(
                            $field,
                            concat!(",\"", stringify!($field), "\":"),
                            line,
                        );)*
                    }
                )*}
            }

            /// Rebuilds the event of kind `kind` from a scanned line.
            fn read_fields(kind: &str, f: &Fields<'_>) -> Result<Self, ParseError> {
                Ok(match kind {
                    $($wire => TraceEvent::$variant {$(
                        $field: <carrier!($ty $(, $via)?) as Wire<$ty>>::get(
                            f,
                            stringify!($field),
                        )?,
                    )*},)*
                    other => return err(format!("unknown event kind {other:?}")),
                })
            }
        }
    };
}

trace_schema! {
    /// A charged point-to-point send on the fixed network.
    FixedSend = "fixed_send" {
        /// Sending MSS.
        from: MssId,
        /// Receiving MSS.
        to: MssId,
    }
    /// A fixed-network message arrived.
    FixedRecv = "fixed_recv" {
        /// Receiving MSS.
        at: MssId,
        /// Sending MSS.
        from: MssId,
    }
    /// A charged wireless uplink transmission.
    UpSend = "up_send" {
        /// Transmitting MH.
        mh: MhId,
        /// Serving MSS the message is headed for.
        mss: MssId,
    }
    /// An uplink message arrived at the serving MSS.
    UpRecv = "up_recv" {
        /// Transmitting MH.
        mh: MhId,
        /// Receiving MSS.
        mss: MssId,
    }
    /// A charged wireless downlink transmission to one MH.
    DownSend = "down_send" {
        /// Target MH.
        mh: MhId,
        /// Transmitting MSS.
        mss: MssId,
    }
    /// A downlink message was received by a still-local MH.
    DownRecv = "down_recv" {
        /// Receiving MH.
        mh: MhId,
        /// Transmitting MSS.
        mss: MssId,
    }
    /// One charged cell-wide wireless broadcast.
    ///
    /// Every listener still pays its own reception, reported as separate
    /// [`DownRecv`](Self::DownRecv)s.
    CellBroadcast = "cell_broadcast" {
        /// Broadcasting MSS.
        mss: MssId,
        /// MHs local to the cell at transmission time.
        listeners: u32,
    }
    /// A downlink message was lost: the MH left the cell first.
    ///
    /// Prefix-delivery semantics.
    DownLost = "down_lost" {
        /// The departed MH.
        mh: MhId,
        /// Transmitting MSS.
        mss: MssId,
    }
    /// A search was issued (initial or counted re-search after a move).
    Search = "search" {
        /// The MH being located.
        target: MhId,
        /// True when this is a re-search caused by an in-flight move.
        re: bool,
    }
    /// A search terminated at a disconnected MH.
    ///
    /// The disconnection cell's MSS sends one charged fixed message back to
    /// the origin.
    SearchFail = "search_fail" {
        /// MSS that initiated the search.
        origin: MssId,
        /// The unreachable MH.
        target: MhId,
    }
    /// A delivery interrupted an MH in doze mode.
    DozeInterrupt = "doze_interrupt" {
        /// The dozing MH.
        mh: MhId,
    }
    /// An MH left its cell: the handoff begins (`leave(r)`).
    HandoffBegin = "handoff_begin" {
        /// The moving MH.
        mh: MhId,
        /// The cell it left.
        from: MssId,
    }
    /// An MH joined a cell: the handoff ends (`join(mh, prev)`).
    HandoffEnd = "handoff_end" {
        /// The arriving MH.
        mh: MhId,
        /// The new cell.
        to: MssId,
        /// The previous MSS, which every join names. A ledger `handoff` is
        /// counted iff `prev` is present and differs from `to`.
        prev: Option<MssId>,
    }
    /// An MH voluntarily disconnected.
    Disconnect = "disconnect" {
        /// The disconnecting MH.
        mh: MhId,
        /// The MSS holding its "disconnected" flag.
        mss: MssId,
    }
    /// An MH reconnected after a voluntary disconnection.
    Reconnect = "reconnect" {
        /// The reconnecting MH.
        mh: MhId,
        /// The new cell.
        mss: MssId,
        /// Where it had disconnected, when supplied with the reconnect.
        prev: Option<MssId>,
    }
    /// An MH asked its algorithm for the critical section (workload-level).
    CsRequest = "cs_request" {
        /// The requesting MH.
        mh: MhId,
    }
    /// An MH entered the critical section.
    CsEnter = "cs_enter" {
        /// The entering MH.
        mh: MhId,
    }
    /// An MH released the critical section.
    CsExit = "cs_exit" {
        /// The releasing MH.
        mh: MhId,
    }
    /// The location-view coordinator applied a significant view change.
    ///
    /// Section 4's `LV(G)` update.
    LvUpdate = "lv_update" {
        /// The cell added to or removed from the view.
        cell: MssId,
        /// True for an addition, false for a deletion.
        added: bool,
    }
    /// A proxy forwarded an output to a moved client with a search.
    ///
    /// Section 5's proxy obligation.
    ProxyForward = "proxy_forward" {
        /// The moved client MH.
        mh: MhId,
        /// The proxy MSS doing the forwarding.
        mss: MssId,
    }
    /// An older binary replayed this run from its run cache; nothing was simulated.
    ///
    /// No current binary writes it. Older experiment drivers emitted it as
    /// the only event of a stub run whose `run_end` carries the cached
    /// ledger; `tracereport --check` exempts exactly that stub from the
    /// count identities. The kind stays in schema v1 because removing one
    /// is a breaking change.
    CacheHit = "cache_hit" {
        /// High 64 bits of the run descriptor fingerprint.
        fp_hi: u64,
        /// Low 64 bits of the run descriptor fingerprint.
        fp_lo: u64,
    }
    /// A worker of a space-sharded run finished a lookahead window at a barrier.
    ///
    /// At that conservative-sync barrier the shard exchanges cross-shard
    /// traffic. The emission time is the window-end time, so per-shard
    /// `(t, seq)` order is preserved. Only *processed* windows emit a sync; a
    /// stretch the kernel fast-forwarded over in one barrier round is folded
    /// into the next sync's `skipped` count, so `Σ (1 + skipped)` over a
    /// shard's syncs equals the run's total window count.
    ShardSync = "shard_sync" {
        /// The reporting shard.
        shard: u32,
        /// Zero-based window index.
        window: u64,
        /// Empty windows fast-forwarded over immediately before this one
        /// (serialized only when non-zero; schema-additive).
        skipped: u64 as Additive,
    }
    /// A wired message was delivered out of a cross-shard mailbox.
    ///
    /// The sharded kernel charges wired messages at *delivery*, so each
    /// `shard_recv` represents exactly one ledger `fixed_msgs` charge —
    /// `tracereport --check` validates that identity per shard.
    ShardRecv = "shard_recv" {
        /// The delivering (destination) shard.
        shard: u32,
        /// Source cell of the wired message.
        from: MssId,
        /// Destination cell.
        to: MssId,
    }
    /// A combining proxy served `size` client operations in one batch.
    ///
    /// The proxy is the L2C mutex variant; the batch went out under a single
    /// logical-clock exchange / cell broadcast. Emitted by the algorithm
    /// layer, not the kernel, so it carries no message charge of its own —
    /// the charged operations it amortizes appear as their own events. The
    /// sum of `size` over all `combine_batch` events equals the run's
    /// `cs_enter` count (`tracereport --check` validates that identity).
    CombineBatch = "combine_batch" {
        /// The combining MSS.
        mss: MssId,
        /// Number of client operations served in this batch.
        size: u32,
    }
    /// The delivery engine coalesced `len` same-tick arrivals at one MSS into one callback.
    ///
    /// The arrivals are wired/uplink messages (`DeliveryMode::Batched` only;
    /// `len >= 2`). Purely diagnostic: the coalesced messages were each
    /// charged and traced at their own send/receive events, so this carries
    /// no message charge of its own and is excluded from message-class
    /// accounting.
    DeliverBatch = "deliver_batch" {
        /// The MSS whose arrivals were coalesced.
        at: MssId,
        /// Number of messages dispatched in the batch.
        len: u32,
    }
    /// The fault plane crashed an MSS (fail-stop with stable state).
    ///
    /// See SCENARIOS.md. One ledger `fault_crashes` custom counter bump per
    /// event — `tracereport --check` reconciles the counts.
    FaultCrash = "fault_crash" {
        /// The crashed station.
        mss: MssId,
    }
    /// A crashed MSS recovered with its state intact.
    ///
    /// Wired messages deferred during the outage re-deliver in order right
    /// after this event. One ledger `fault_recovers` bump per event.
    FaultRecover = "fault_recover" {
        /// The recovered station.
        mss: MssId,
    }
    /// The wired plane partitioned at `cut` (`healed` = 0) or healed (`healed` = 1).
    ///
    /// A partition bumps ledger `fault_partitions`, a heal `fault_heals`;
    /// cells `< cut` and cells `≥ cut` defer wired traffic across the split
    /// while it lasts.
    FaultPartition = "fault_partition" {
        /// The cut point separating the two halves.
        cut: u32,
        /// False when the partition starts, true when it heals.
        healed: bool,
    }
    /// A handoff storm forced `moved` connected MHs out of their cells at once.
    ///
    /// One ledger `fault_storms` bump per event.
    FaultStorm = "fault_storm" {
        /// Number of MHs forced to move.
        moved: u32,
    }
}

impl TraceEvent {
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
}

/// Receiver of the kernel's typed event stream.
///
/// A sink is installed on a simulation with
/// [`Simulation::set_trace_sink`](crate::sim::Simulation::set_trace_sink) and
/// from then on observes every emission in event order. Sinks must never
/// influence the simulation: they get read-only views and the kernel calls
/// them *after* all state changes and ledger charges for the operation.
pub trait TraceSink: Send + std::fmt::Debug {
    /// Observes one event. `seq` is the kernel's per-run emission counter
    /// (dense from 0); `at` is the simulated time of the emission. `(at,
    /// seq)` is strictly increasing lexicographically within a run.
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent);

    /// Never called: kernels are built fresh for every run and are not
    /// rewound. Kept as a no-op only because the benchmark package's
    /// `TimedSink` implements it.
    fn rewind(&mut self) {}

    /// Called at the end of a measured run with the final ledger, before
    /// the sink is detached; the JSONL sink writes its `run_end` summary
    /// line here.
    fn finish(&mut self, ledger: &CostLedger) {
        let _ = ledger;
    }

    /// Upcast for read access to a concrete sink after
    /// [`finish_trace`](crate::sim::Simulation::finish_trace).
    fn as_any(&self) -> &dyn Any;

    /// Upcast for mutable access to a concrete sink.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The one emission path, shared by [`Kernel`](crate::kernel::Kernel) and
/// the sharded workers: the installed sink, if any, and the per-run emission
/// counter. `(at, seq)` is strictly increasing, which gives trace consumers
/// a total order.
#[derive(Debug)]
pub(crate) struct Tracer {
    pub(crate) sink: Option<Box<dyn TraceSink>>,
    seq: u64,
}

impl Tracer {
    pub(crate) fn new(sink: Option<Box<dyn TraceSink>>) -> Self {
        Tracer { sink, seq: 0 }
    }

    /// One branch when no sink is installed; `f` — so the event is never
    /// even constructed — runs only with one.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, f: impl FnOnce() -> TraceEvent) {
        if let Some(s) = self.sink.as_deref_mut() {
            s.record(at, self.seq, &f());
            self.seq += 1;
        }
    }

    /// Ends the traced run: hands the sink the final ledger and detaches it.
    pub(crate) fn finish(&mut self, ledger: &CostLedger) -> Option<Box<dyn TraceSink>> {
        let mut s = self.sink.take()?;
        s.finish(ledger);
        Some(s)
    }
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

/// The last column of a `run_end` row: does the counter count events, or is
/// it a ledger value no event count reproduces?
const EVENTS: bool = true;
const VALUE: bool = false;

/// The `run_end` counters, written once. Each row is a counter: its docs,
/// its key, its carrier (`u64`: always written; [`Additive`]: a later
/// addition, written when non-zero), the ledger expression it snapshots, and
/// whether it is an event count. From the rows come [`RunSummary`],
/// [`RunSummary::from_ledger`], the `run_end` field writer and reader, and
/// the in-order views [`RunSummary::counters`] and
/// [`RunSummary::event_counters`].
macro_rules! run_end_schema {
    ($ledger:ident => $(
        $(#[doc = $doc:literal])+
        $key:ident: $via:ty = $from:expr, $counts:ident;
    )*) => {
        /// Ledger snapshot written as the `run_end` JSONL line — and, filled
        /// by [`tally`](Self::tally) instead, the same counters re-derived
        /// from a run's events, which is what `tracereport --check` diffs it
        /// against.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct RunSummary {
            /// Run id this summary closes.
            pub run: u64,
            $(
                $(#[doc = $doc])+
                pub $key: u64,
            )*
        }

        impl RunSummary {
            /// Snapshots the counters `tracereport` cross-checks from `ledger`.
            pub fn from_ledger(run: u64, $ledger: &CostLedger) -> Self {
                RunSummary { run, $($key: $from),* }
            }

            /// `(key, value, is an event count)` per counter, in wire order.
            fn rows(&self) -> impl Iterator<Item = (&'static str, u64, bool)> {
                [$((stringify!($key), self.$key, $counts)),*].into_iter()
            }

            /// The widest counters [`write_fields`](Self::write_fields) appends.
            const FIELDS_WIDTH: usize = 0 $(
                + concat!(",\"", stringify!($key), "\":").len()
                + <$via as Wire<u64>>::WIDTH
            )*;

            /// Appends the counters to a `run_end` line, each with its
            /// leading comma.
            fn write_fields(&self, line: &mut LineOut<'_>) {
                $(<$via as Wire<u64>>::put(
                    self.$key,
                    concat!(",\"", stringify!($key), "\":"),
                    line,
                );)*
            }

            /// Reads the counters of run `run` back from a scanned `run_end` line.
            fn read_fields(run: u64, f: &Fields<'_>) -> Result<Self, ParseError> {
                Ok(RunSummary {
                    run,
                    $($key: <$via as Wire<u64>>::get(f, stringify!($key))?,)*
                })
            }
        }
    };
}

run_end_schema! { ledger =>
    /// Ledger `fixed_msgs`.
    fixed_msgs: u64 = ledger.fixed_msgs, EVENTS;
    /// Ledger `wireless_msgs`.
    wireless_msgs: u64 = ledger.wireless_msgs, EVENTS;
    /// Ledger `searches`.
    searches: u64 = ledger.searches, EVENTS;
    /// Ledger `re_searches`.
    re_searches: u64 = ledger.re_searches, EVENTS;
    /// Ledger `search_failures`.
    search_failures: u64 = ledger.search_failures, EVENTS;
    /// Ledger `moves`.
    moves: u64 = ledger.moves, EVENTS;
    /// Ledger `handoffs`.
    handoffs: u64 = ledger.handoffs, EVENTS;
    /// Ledger `disconnects`.
    disconnects: u64 = ledger.disconnects, EVENTS;
    /// Ledger `reconnects`.
    reconnects: u64 = ledger.reconnects, EVENTS;
    /// Ledger `doze_interruptions`.
    doze_interruptions: u64 = ledger.doze_interruptions, EVENTS;
    /// Ledger `wireless_losses`.
    wireless_losses: u64 = ledger.wireless_losses, EVENTS;
    /// Ledger `total_cost()`.
    total_cost: u64 = ledger.total_cost(), VALUE;
    /// Ledger `total_energy()`.
    total_energy: u64 = ledger.total_energy(), VALUE;
    /// Ledger custom counter `fault_crashes` (optional in the JSONL schema:
    /// written only when nonzero, parsed as 0 when absent).
    fault_crashes: Additive = ledger.custom("fault_crashes"), EVENTS;
    /// Ledger custom counter `fault_recovers` (optional, see above).
    fault_recovers: Additive = ledger.custom("fault_recovers"), EVENTS;
    /// Ledger custom counter `fault_partitions` (optional, see above).
    fault_partitions: Additive = ledger.custom("fault_partitions"), EVENTS;
    /// Ledger custom counter `fault_heals` (optional, see above).
    fault_heals: Additive = ledger.custom("fault_heals"), EVENTS;
    /// Ledger custom counter `fault_storms` (optional, see above).
    fault_storms: Additive = ledger.custom("fault_storms"), EVENTS;
}

impl RunSummary {
    /// Folds one event into the counters it accounts for: the `ledger =
    /// trace` identity, stated once. Tallying every event of a run into a
    /// default summary reproduces that run's
    /// [`event_counters`](Self::event_counters) exactly (`run`, `total_cost`
    /// and `total_energy` are not event counts and stay put).
    pub fn tally(&mut self, ev: &TraceEvent) {
        self.fixed_msgs += ev.fixed_msgs();
        self.wireless_msgs += ev.wireless_msgs();
        match *ev {
            TraceEvent::Search { re, .. } => {
                self.searches += 1;
                self.re_searches += u64::from(re);
            }
            TraceEvent::SearchFail { .. } => self.search_failures += 1,
            TraceEvent::HandoffEnd { to, prev, .. } => {
                self.moves += 1;
                self.handoffs += u64::from(prev.is_some_and(|p| p != to));
            }
            TraceEvent::Disconnect { .. } => self.disconnects += 1,
            TraceEvent::Reconnect { .. } => self.reconnects += 1,
            TraceEvent::DozeInterrupt { .. } => self.doze_interruptions += 1,
            TraceEvent::DownLost { .. } => self.wireless_losses += 1,
            TraceEvent::FaultCrash { .. } => self.fault_crashes += 1,
            TraceEvent::FaultRecover { .. } => self.fault_recovers += 1,
            TraceEvent::FaultPartition { healed: false, .. } => self.fault_partitions += 1,
            TraceEvent::FaultPartition { healed: true, .. } => self.fault_heals += 1,
            TraceEvent::FaultStorm { .. } => self.fault_storms += 1,
            _ => {}
        }
    }

    /// Every `run_end` counter as `(key, value)`, in wire order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.rows().map(|(key, v, _)| (key, v))
    }

    /// The counters [`tally`](Self::tally) re-derives from events — all but
    /// `total_cost` and `total_energy` — as `(key, value)`, in wire order.
    pub fn event_counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
        self.rows()
            .filter(|&(_, _, counted)| counted)
            .map(|(key, v, _)| (key, v))
    }
}

/// What an event line's head spells besides its numbers.
const HEAD_TEXT: &str = "{\"v\":,\"run\":,\"seq\":,\"t\":";

/// The widest event-line head, `{"v":1,"run":R,"seq":S,"t":`.
const HEAD_WIDTH: usize = HEAD_TEXT.len() + <u32 as Wire>::WIDTH + 2 * U64_WIDTH;

/// What a `run_end` line spells besides its numbers and counters.
const RUN_END_TEXT: &str = "{\"v\":,\"run\":,\"ev\":\"run_end\",\"events\":}\n";

/// The widest line a sink encodes, event or `run_end`, plus the overrun of
/// one fixed-width store past its end.
const LINE_ROOM: usize = widest(&[
    HEAD_WIDTH + U64_WIDTH + TraceEvent::FIELDS_WIDTH + "}\n".len(),
    RUN_END_TEXT.len() + <u32 as Wire>::WIDTH + 2 * U64_WIDTH + RunSummary::FIELDS_WIDTH,
]) + U64_WIDTH;

/// The key that closes an event line's head.
const T_KEY: &[u8] = b",\"t\":";

/// An event line's `{"v":1,"run":R,"seq":S,"t":`, kept from line to line,
/// with `S` at `bytes[seq_at..len - T_KEY.len()]`. The kernel's `seq` is
/// dense, so `S` almost always moves on by an odometer tick.
#[derive(Debug)]
struct Head {
    bytes: [u8; HEAD_WIDTH],
    len: usize,
    seq_at: usize,
    seq: u64,
}

impl Head {
    fn new(run: u64) -> Self {
        let prefix = format!("{{\"v\":{SCHEMA_VERSION},\"run\":{run},\"seq\":");
        let mut bytes = [0; HEAD_WIDTH];
        bytes[..prefix.len()].copy_from_slice(prefix.as_bytes());
        let mut head = Head {
            bytes,
            len: 0,
            seq_at: prefix.len(),
            seq: 0,
        };
        head.render(0);
        head
    }

    /// Renders `S` in full.
    fn render(&mut self, seq: u64) {
        let at = self.seq_at;
        let digits = (&mut self.bytes[at..at + U64_WIDTH]).try_into();
        let end = at + put_decimal(digits.expect("U64_WIDTH long"), seq);
        self.bytes[end..end + T_KEY.len()].copy_from_slice(T_KEY);
        self.len = end + T_KEY.len();
        self.seq = seq;
    }

    /// Moves `S` to `seq`.
    #[inline]
    fn set_seq(&mut self, seq: u64) {
        if seq == self.seq {
            return;
        }
        if self.seq.checked_add(1) == Some(seq) {
            // An odometer tick: the last digit short of 9 goes up by one and
            // the 9s after it roll over to 0. All 9s lengthen `S`: render it.
            let digits = &mut self.bytes[self.seq_at..self.len - T_KEY.len()];
            if let Some(i) = digits.iter().rposition(|&d| d != b'9') {
                digits[i] += 1;
                digits[i + 1..].fill(b'0');
                self.seq = seq;
                return;
            }
        }
        self.render(seq);
    }
}

/// JSONL writer sink with the stable schema of `OBSERVABILITY.md`.
///
/// Writes one `run_begin` line at construction, one line per observed
/// event, and one `run_end` ledger summary from [`TraceSink::finish`].
///
/// Lines are encoded straight into a block the sink owns, which goes to the
/// writer in one `write_all` once it holds 8 KiB, and on `finish`,
/// [`into_inner`](Self::into_inner) and drop: a sink that is simply dropped
/// still leaves a complete file, and a file needs no `BufWriter`. An I/O
/// error drops that block — whole lines — and never aborts the run;
/// `run_end.events` counts lines attempted, so `tracereport --check` notices
/// the gap.
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
pub struct JsonlSink<W: Write> {
    // `Option` so `into_inner` can move the writer out despite `Drop`.
    out: Option<W>,
    run: u64,
    // Whole lines not yet written are `block[..len]`, with `len < BLOCK`
    // between lines and room after it for the widest line.
    block: Box<[u8; BLOCK + LINE_ROOM]>,
    len: usize,
    head: Head,
    // The last line's `t`, and its digits `t_text[..t_len]`.
    t: u64,
    t_text: [u8; U64_WIDTH],
    t_len: usize,
    events: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Creates the sink and writes the `run_begin` line for `meta`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the header.
    pub fn new(mut out: W, meta: RunMeta) -> std::io::Result<Self> {
        let mut header = Vec::with_capacity(160);
        let _ = writeln!(
            header,
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
        out.write_all(&header)?;
        Ok(JsonlSink {
            out: Some(out),
            run: meta.run,
            block: Box::new([0; BLOCK + LINE_ROOM]),
            len: 0,
            head: Head::new(meta.run),
            t: 0,
            t_text: [b'0'; U64_WIDTH],
            t_len: 1,
            events: 0,
        })
    }

    /// Event lines attempted so far (excluding the envelope lines).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Writes what the block holds, flushes, and returns the underlying
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates the write or flush error.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.write_block()?;
        let mut out = self.out.take().expect("writer present until into_inner");
        out.flush()?;
        Ok(out)
    }

    /// Takes the `n`-byte line just encoded after `block[..len]` into the
    /// block, and writes the block once it is full. Trace I/O failures must
    /// not abort a simulation: a failed write loses the block.
    #[inline]
    fn end_line(&mut self, n: usize) {
        self.len += n;
        if self.len >= BLOCK {
            let _ = self.write_block();
        }
    }

    /// Hands the block's lines to the writer in one `write_all` and empties
    /// it, whether or not the write succeeds.
    fn write_block(&mut self) -> std::io::Result<()> {
        let len = std::mem::take(&mut self.len);
        match self.out.as_mut() {
            Some(out) if len > 0 => out.write_all(&self.block[..len]),
            _ => Ok(()),
        }
    }
}

// Not derived: that would print the block byte by byte.
impl<W: Write + std::fmt::Debug> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("out", &self.out)
            .field("run", &self.run)
            .field("pending", &self.len)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

/// Opens `path` in append mode and wraps it in a [`JsonlSink`].
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
) -> std::io::Result<JsonlSink<std::fs::File>> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    JsonlSink::new(file, meta)
}

impl<W: Write + Send + std::fmt::Debug + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, at: SimTime, seq: u64, ev: &TraceEvent) {
        self.head.set_seq(seq);
        let t = at.ticks();
        if t != self.t {
            self.t = t;
            self.t_len = put_decimal(&mut self.t_text, t);
        }
        let mut line = LineOut::new(&mut self.block, self.len);
        line.window(&self.head.bytes, self.head.len);
        line.window(&self.t_text, self.t_len);
        ev.write_fields(&mut line);
        line.put(b"}\n");
        let n = line.at;
        self.end_line(n);
        self.events += 1;
    }

    fn finish(&mut self, ledger: &CostLedger) {
        let mut line = LineOut::new(&mut self.block, self.len);
        line.put(b"{\"v\":");
        line.u64(u64::from(SCHEMA_VERSION));
        line.put(b",\"run\":");
        line.u64(self.run);
        line.put(b",\"ev\":\"run_end\",\"events\":");
        line.u64(self.events);
        RunSummary::from_ledger(self.run, ledger).write_fields(&mut line);
        line.put(b"}\n");
        self.len += line.at;
        let _ = self.write_block();
        if let Some(out) = self.out.as_mut() {
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
        let _ = self.write_block();
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
                // The writer never pads: `03` and `00` are not its numbers.
                if digits == 0
                    || (digits > 1 && raw.starts_with('0'))
                    || !(tail.is_empty() || tail.starts_with(','))
                {
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
                Some("") => return err("empty member before '}'"),
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
            summary: RunSummary::read_fields(run, &f)?,
        }),
        kind => {
            let ev = TraceEvent::read_fields(kind, &f)?;
            Ok(Line::Event {
                run,
                seq: f.num("seq")?,
                t: SimTime::from_ticks(f.num("t")?),
                ev,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_sink_is_bounded() {
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
        assert!(
            parse_line("{\"v\":1,\"run\":0,\"seq\":0,\"t\":00,\"ev\":\"cs_exit\",\"mh\":0}")
                .is_err()
        );
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
            // Leading zeros and a trailing comma are not JSON the writer
            // emits.
            "\"ev\":\"cs_request\",\"mh\":03",
            "\"ev\":\"cs_request\",\"mh\":00",
            "\"ev\":\"cs_request\",\"mh\":3,",
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

    /// The doc gate: OBSERVABILITY.md's schema reference is checked against
    /// the two tables, both ways, so neither can move without the other.
    #[test]
    fn observability_md_documents_exactly_the_tables() {
        let doc = include_str!("../../../OBSERVABILITY.md");
        let section = |heading: &str| {
            let from = doc
                .find(heading)
                .unwrap_or_else(|| panic!("no {heading:?} section"));
            let body = &doc[from + heading.len()..];
            &body[..body.find("\n### ").unwrap_or(body.len())]
        };
        // The text between backticks, cell by cell.
        let ticked = |cell: &'static str| cell.split('`').skip(1).step_by(2);

        let documented: Vec<(&str, Vec<&str>)> = section("### Event lines")
            .lines()
            .filter(|l| l.starts_with("| `") && !l.starts_with("| `ev` |")) // not the header
            .map(|row| {
                let mut cells = row.split('|').skip(1);
                let kind = ticked(cells.next().unwrap()).next().unwrap();
                (kind, ticked(cells.next().expect("a fields cell")).collect())
            })
            .collect();
        let defined: Vec<(&str, Vec<&str>)> = SCHEMA
            .iter()
            .map(|&(kind, keys, _)| (kind, keys.to_vec()))
            .collect();
        for row in &defined {
            assert!(
                documented.contains(row),
                "OBSERVABILITY.md lacks the row {row:?}"
            );
        }
        for row in &documented {
            assert!(
                defined.contains(row),
                "OBSERVABILITY.md's row {row:?} is not in SCHEMA"
            );
        }

        let run_end = section("### `run_end`");
        for (key, _, _) in RunSummary::default().rows() {
            assert!(
                run_end.contains(&format!("`{key}`")),
                "OBSERVABILITY.md's run_end section never mentions `{key}`"
            );
        }
    }

    #[test]
    #[should_panic(expected = "trace label")]
    fn labels_are_restricted_to_schema_safe_characters() {
        let _ = RunMeta::new(0, "bad label!", &NetworkConfig::new(1, 1));
    }
}
