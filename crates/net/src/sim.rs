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

    /// The kernel (topology queries, trace sink, ledger).
    pub fn kernel(&self) -> &Kernel<P::Msg, P::Timer> {
        &self.kernel
    }

    /// Mutable kernel access (trace sinks, custom counters).
    pub fn kernel_mut(&mut self) -> &mut Kernel<P::Msg, P::Timer> {
        &mut self.kernel
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        self.kernel.ledger()
    }

    /// Installs a structured trace sink on the kernel (see
    /// [`Kernel::set_trace_sink`]).
    pub fn set_trace_sink(&mut self, sink: Box<dyn crate::obs::TraceSink>) {
        self.kernel.set_trace_sink(sink);
    }

    /// Ends the traced run — the sink sees the final ledger and is
    /// detached and returned (see [`Kernel::finish_trace`]).
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
    pub fn step(&mut self) -> bool {
        self.start();
        if !self.kernel.advance() {
            return false;
        }
        self.drain_pending();
        true
    }

    /// Runs until simulated time passes `until` or the queue empties.
    pub fn run_until(&mut self, until: SimTime) {
        self.start();
        // Fused pop: one heap-root access per event instead of peek + pop.
        while self.kernel.advance_up_to(until) {
            self.drain_pending();
        }
    }

    /// Runs until no events remain or simulated time exceeds `max_ticks`.
    /// Returns `true` when the system went quiescent within the bound.
    pub fn run_to_quiescence(&mut self, max_ticks: u64) -> bool {
        let deadline = SimTime::from_ticks(max_ticks);
        self.start();
        while self.kernel.advance_up_to(deadline) {
            self.drain_pending();
        }
        self.kernel.next_event_time().is_none()
    }

    /// Allows a test or workload driver to act on the protocol directly with
    /// a kernel context, outside any event.
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

    fn drain_pending(&mut self) {
        while let Some(pe) = self.kernel.take_pending() {
            let ctx = &mut Ctx {
                k: &mut self.kernel,
            };
            match pe {
                ProtoEvent::MssMsg { at, src, msg } => self.proto.on_mss_msg(ctx, at, src, msg),
                ProtoEvent::MhMsg { at, src, msg } => self.proto.on_mh_msg(ctx, at, src, msg),
                ProtoEvent::MssBatch { at, mut msgs } => {
                    // Drain by value: dropping the iterator clears leftovers,
                    // and the emptied vector's capacity goes back to the
                    // kernel for the next batch.
                    self.proto.on_mss_batch(ctx, at, msgs.drain(..));
                    self.kernel.recycle_batch(msgs);
                }
                ProtoEvent::Timer(t) => self.proto.on_timer(ctx, t),
                ProtoEvent::Joined { mh, mss, prev } => self.proto.on_mh_joined(ctx, mh, mss, prev),
                ProtoEvent::Left { mh, mss } => self.proto.on_mh_left(ctx, mh, mss),
                ProtoEvent::Disconnected { mh, mss } => self.proto.on_mh_disconnected(ctx, mh, mss),
                ProtoEvent::Reconnected { mh, mss, prev } => {
                    self.proto.on_mh_reconnected(ctx, mh, mss, prev)
                }
                ProtoEvent::SearchFailed {
                    origin,
                    target,
                    msg,
                } => self.proto.on_search_failed(ctx, origin, target, msg),
                ProtoEvent::WirelessLost { mss, mh, msg } => {
                    self.proto.on_wireless_lost(ctx, mss, mh, msg)
                }
                ProtoEvent::MssCrashed { mss } => self.proto.on_mss_crashed(ctx, mss),
                ProtoEvent::MssRecovered { mss } => self.proto.on_mss_recovered(ctx, mss),
            }
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
