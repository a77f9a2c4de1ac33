//! The simulation driver: owns a [`Kernel`] and a [`Protocol`] and runs the
//! event loop.

use crate::config::NetworkConfig;
use crate::kernel::Kernel;
use crate::ledger::CostLedger;
use crate::proto::{Ctx, ProtoEvent, Protocol};
use crate::time::SimTime;
use std::marker::PhantomData;

/// A running simulation: the two-tier network plus one protocol instance.
///
/// # Examples
///
/// A protocol that bounces one message from an MH to its MSS and back:
///
/// ```
/// use mobidist_net::prelude::*;
///
/// struct PingPong { done: bool }
///
/// impl Protocol for PingPong {
///     type Msg = &'static str;
///     type Timer = ();
///     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
///         ctx.send_wireless_up(MhId(0), "ping").unwrap();
///     }
///     fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
///                   at: MssId, _src: Src, _msg: Self::Msg) {
///         ctx.send_wireless_down(at, MhId(0), "pong").unwrap();
///     }
///     fn on_mh_msg(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
///                  _at: MhId, _src: Src, msg: Self::Msg) {
///         assert_eq!(msg, "pong");
///         self.done = true;
///     }
/// }
///
/// let cfg = NetworkConfig::new(2, 2);
/// let mut sim = Simulation::new(cfg, PingPong { done: false });
/// sim.run_to_quiescence(10_000);
/// assert!(sim.protocol().done);
/// ```
#[derive(Debug)]
pub struct Simulation<P: Protocol> {
    kernel: Kernel<P::Msg, P::Timer>,
    proto: P,
    started: bool,
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation; `Protocol::on_start` runs at the first step.
    pub fn new(cfg: NetworkConfig, proto: P) -> Self {
        Simulation {
            kernel: Kernel::new(cfg),
            proto,
            started: false,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// The protocol under simulation.
    pub fn protocol(&self) -> &P {
        &self.proto
    }

    /// Mutable access to the protocol (for workload inspection between
    /// phases).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.proto
    }

    /// The kernel, read-only (topology queries, configuration, ledger).
    /// Drivers change a running simulation through
    /// [`with_ctx`](Self::with_ctx) and the trace methods below.
    pub fn kernel(&self) -> &Kernel<P::Msg, P::Timer> {
        &self.kernel
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        self.kernel.ledger()
    }

    /// Installs a structured trace sink on the kernel; it observes every
    /// subsequent typed emission. Replaces any previously installed sink.
    ///
    /// Sinks only observe: installing one never changes simulation results
    /// (no RNG draws, no scheduling — pinned byte-for-byte by the `trace`
    /// axis of the bench crate's `differential` test).
    pub fn set_trace_sink(&mut self, sink: Box<dyn crate::obs::TraceSink>) {
        self.kernel.set_trace_sink(sink);
    }

    /// Ends the traced run: calls [`TraceSink::finish`](crate::obs::TraceSink::finish)
    /// with the final ledger (the JSONL sink writes its `run_end` summary
    /// line here), then detaches and returns the sink.
    pub fn finish_trace(&mut self) -> Option<Box<dyn crate::obs::TraceSink>> {
        self.kernel.finish_trace()
    }

    /// Runs the protocol's `on_start` hook plus anything it scheduled at
    /// time zero. Called implicitly by the run methods.
    pub fn start(&mut self) {
        if !self.started {
            self.started = true;
            self.proto.on_start(&mut Ctx {
                k: &mut self.kernel,
            });
            self.drain_pending();
        }
    }

    /// Processes one timed event (and all protocol events it triggers).
    /// Returns `false` when the event queue is exhausted.
    ///
    /// Runs exactly the callbacks, in exactly the order, that
    /// [`run_until`](Self::run_until) runs for the same event: both go
    /// through one advance path.
    pub fn step(&mut self) -> bool {
        self.start();
        self.advance(SimTime::MAX)
    }

    /// Runs until simulated time passes `until` or the queue empties.
    ///
    /// Per event: the kernel pops it (one fused peek-and-pop) and does its
    /// kernel work; an event with a single protocol callback then runs it
    /// straight off the pop, and every other callback — later outputs of
    /// the event and anything queued from inside a callback — follows in
    /// order before the next pop.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        while self.advance(until) {}
    }

    /// Runs until no events remain or simulated time exceeds `max_ticks`.
    /// Returns `true` when the system went quiescent within the bound.
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> bool {
        let deadline = SimTime::from_ticks(max_ticks);
        self.start();
        while self.advance(deadline) {}
        self.kernel.next_event_time().is_none()
    }

    /// Allows a test or workload driver to act on the protocol directly with
    /// a kernel context, outside any event — the one way to change a running
    /// simulation besides the trace methods. Every callback the closure
    /// queues (a `Left` from `initiate_move`, say) runs before this returns,
    /// so the next event pops with nothing waiting.
    pub fn with_ctx<R>(
        &mut self,
        f: impl FnOnce(&mut Ctx<'_, P::Msg, P::Timer>, &mut P) -> R,
    ) -> R {
        self.start();
        let r = f(
            &mut Ctx {
                k: &mut self.kernel,
            },
            &mut self.proto,
        );
        self.drain_pending();
        r
    }

    /// Pops the next event due at or before `limit` and runs every
    /// callback it yields: its lone callback directly, then whatever waits
    /// in the kernel's queue. `false` when nothing was due.
    fn advance(&mut self, limit: SimTime) -> bool {
        let proto = &mut self.proto;
        if !self
            .kernel
            .advance(limit, |k, pe| Self::deliver(proto, k, pe))
        {
            return false;
        }
        self.drain_pending();
        true
    }

    fn drain_pending(&mut self) {
        while let Some(pe) = self.kernel.take_pending() {
            Self::deliver(&mut self.proto, &mut self.kernel, pe);
        }
    }

    /// Runs the protocol callback for one kernel output.
    // Inlined into the direct hop as well as the drain: out of line, the
    // direct hop copies the event `process` has just written into the
    // argument slot, and that 16-byte reload of fresh narrower stores stalls
    // store forwarding (about 4 % of an untraced `ring_unicast`; DESIGN.md
    // §7).
    #[inline(always)]
    fn deliver(proto: &mut P, k: &mut Kernel<P::Msg, P::Timer>, pe: ProtoEvent<P::Msg, P::Timer>) {
        let ctx = &mut Ctx { k };
        match pe {
            ProtoEvent::MssMsg { at, src, msg } => proto.on_mss_msg(ctx, at, src, msg),
            ProtoEvent::MhMsg { at, src, msg } => proto.on_mh_msg(ctx, at, src, msg),
            ProtoEvent::MssBatch { at, mut msgs } => {
                // Drain by value: dropping the iterator clears leftovers,
                // and the emptied vector's capacity goes back to the
                // kernel for the next batch.
                proto.on_mss_batch(ctx, at, msgs.drain(..));
                ctx.k.recycle_batch(msgs);
            }
            ProtoEvent::Timer(t) => proto.on_timer(ctx, t),
            ProtoEvent::Joined { mh, mss, prev } => proto.on_mh_joined(ctx, mh, mss, prev),
            ProtoEvent::Left { mh, mss } => proto.on_mh_left(ctx, mh, mss),
            ProtoEvent::Disconnected { mh, mss } => proto.on_mh_disconnected(ctx, mh, mss),
            ProtoEvent::Reconnected { mh, mss, prev } => {
                proto.on_mh_reconnected(ctx, mh, mss, prev)
            }
            ProtoEvent::SearchFailed {
                origin,
                target,
                msg,
            } => proto.on_search_failed(ctx, origin, target, msg),
            ProtoEvent::WirelessLost { mss, mh, msg } => proto.on_wireless_lost(ctx, mss, mh, msg),
            ProtoEvent::MssCrashed { mss } => proto.on_mss_crashed(ctx, mss),
            ProtoEvent::MssRecovered { mss } => proto.on_mss_recovered(ctx, mss),
        }
    }
}

/// Runs each point of a sweep on a freshly built [`Simulation`].
///
/// Holds no state: [`run`](Self::run) builds `Simulation::new(cfg, proto)`
/// and hands it to the closure. Kept only because the benchmark package
/// compiles against it (its `net.sim.reset_us` row times `run`); the sweeps
/// themselves call `Simulation::new` directly.
///
/// # Examples
///
/// ```
/// use mobidist_net::prelude::*;
///
/// #[derive(Debug, Default)]
/// struct Nop;
/// impl Protocol for Nop {
///     type Msg = ();
///     type Timer = ();
///     fn on_mss_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MssId, _: Src, _: ()) {}
///     fn on_mh_msg(&mut self, _: &mut Ctx<'_, (), ()>, _: MhId, _: Src, _: ()) {}
/// }
///
/// let mut pool: SimPool<Nop> = SimPool::new();
/// for seed in 0..3 {
///     let cfg = NetworkConfig::new(2, 4).with_seed(seed);
///     let quiesced = pool.run(cfg, Nop, |sim| sim.run_to_quiescence(10_000));
///     assert!(quiesced);
/// }
/// ```
pub struct SimPool<P: Protocol> {
    _proto: PhantomData<fn() -> P>,
}

impl<P: Protocol> SimPool<P> {
    /// Creates a pool.
    pub fn new() -> Self {
        SimPool {
            _proto: PhantomData,
        }
    }

    /// Runs `f` on a simulation freshly built from `(cfg, proto)`.
    pub fn run<R>(
        &mut self,
        cfg: NetworkConfig,
        proto: P,
        f: impl FnOnce(&mut Simulation<P>) -> R,
    ) -> R {
        f(&mut Simulation::new(cfg, proto))
    }
}

impl<P: Protocol> Default for SimPool<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> std::fmt::Debug for SimPool<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimPool").finish()
    }
}
