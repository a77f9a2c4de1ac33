//! The proxy framework (Section 5): decoupling host mobility from algorithm
//! design.
//!
//! A *proxy* is the MSS currently responsible for communicating with a
//! mobile host. A distributed algorithm written for **static** hosts — a
//! [`StaticAlgorithm`] — is executed unchanged at the proxies; the
//! [`ProxyRuntime`] is the second layer of the paper's two-layer structure,
//! handling everything mobility-related:
//!
//! * routing a client's *inputs* up from wherever it currently is to its
//!   proxy, and the algorithm's *outputs* back down;
//! * maintaining the MH↔proxy association per the chosen
//!   [`ProxyPolicy`]:
//!   [`Fixed`](ProxyPolicy::Fixed) — one proxy for the MH's lifetime, which
//!   must be informed of *every* move (the paper's warning: infeasible for
//!   frequent wide-area movers);
//!   [`LocalMss`](ProxyPolicy::LocalMss) — the proxy follows the MH, with a
//!   handoff state transfer on every move (the scope used by L2 and R2).
//!
//! The static algorithm sees none of this: total separation of mobility
//! from the algorithm, at a measurable price the experiments quantify.

use mobidist_net::host::MhStatus;
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::proto::{Ctx, Protocol, Src};
use std::fmt::Debug;

/// Index of a static process (one per mobile client).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How proxies are associated with mobile hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProxyPolicy {
    /// The MH's initial MSS stays its proxy forever; every move triggers a
    /// location update to the proxy.
    Fixed,
    /// The proxy is always the current local MSS; every move triggers a
    /// handoff state transfer between MSSs.
    #[default]
    LocalMss,
    /// The "less static solution" the paper's Section 5 calls for: the
    /// proxy stays put while the client remains within `radius` cells
    /// (ring distance) of it — local moves cost only a cheap location
    /// update — and migrates via handoff on a *wide-area* move beyond the
    /// radius.
    Adaptive {
        /// Maximum ring distance before the proxy migrates.
        radius: u32,
    },
}

/// Ring distance between two cells in a system of `m` MSSs.
fn ring_distance(a: MssId, b: MssId, m: usize) -> u32 {
    let d = (a.0 as i64 - b.0 as i64).unsigned_abs() as u32;
    d.min(m as u32 - d)
}

/// Context handed to the static algorithm: the world according to a program
/// that believes all hosts are fixed.
#[derive(Debug)]
pub struct StaticCtx<AM> {
    num_procs: usize,
    sends: Vec<(ProcId, ProcId, AM)>,
    outputs: Vec<(ProcId, u64)>,
}

impl<AM> StaticCtx<AM> {
    /// Creates a detached context (useful for unit-testing a
    /// [`StaticAlgorithm`] without a network).
    pub fn new(num_procs: usize) -> Self {
        StaticCtx {
            num_procs,
            sends: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of processes in the computation.
    pub fn num_procs(&self) -> usize {
        self.num_procs
    }

    /// Sends an algorithm message from one process to another.
    pub fn send(&mut self, from: ProcId, to: ProcId, msg: AM) {
        self.sends.push((from, to, msg));
    }

    /// Emits an output for the mobile client bound to `proc`.
    pub fn output(&mut self, proc: ProcId, value: u64) {
        self.outputs.push((proc, value));
    }
}

/// A distributed algorithm written for static hosts, oblivious to mobility.
pub trait StaticAlgorithm: Sized + 'static {
    /// Inter-process message type.
    type Msg: Debug + Clone + 'static;

    /// Short display name.
    fn name(&self) -> &'static str;

    /// Called once with the process count.
    fn on_init(&mut self, ctx: &mut StaticCtx<Self::Msg>) {
        let _ = ctx;
    }

    /// The mobile client bound to `proc` submitted `input`.
    fn on_input(&mut self, ctx: &mut StaticCtx<Self::Msg>, proc: ProcId, input: u64);

    /// An inter-process message arrived.
    fn on_msg(&mut self, ctx: &mut StaticCtx<Self::Msg>, at: ProcId, from: ProcId, msg: Self::Msg);
}

/// Runtime messages wrapping the static algorithm's traffic.
#[derive(Debug, Clone)]
pub enum PrxMsg<AM> {
    /// Uplink: client input, possibly needing relay to the proxy.
    Input {
        /// The submitting process.
        proc: ProcId,
        /// The input value.
        value: u64,
    },
    /// Fixed: input relayed to the proxy.
    FwdInput {
        /// The submitting process.
        proc: ProcId,
        /// The input value.
        value: u64,
    },
    /// Fixed: inter-proxy algorithm message.
    Algo {
        /// Sending process.
        from: ProcId,
        /// Receiving process.
        to: ProcId,
        /// Algorithm payload.
        msg: AM,
    },
    /// Output headed for a mobile client.
    Output {
        /// The process whose client receives it.
        proc: ProcId,
        /// The output value.
        value: u64,
    },
    /// Uplink + fixed: the client tells its fixed proxy where it now is.
    LocUpdate {
        /// The moving process.
        proc: ProcId,
        /// Its new cell.
        now_at: MssId,
    },
    /// Fixed: handoff of a process's proxy state to the new local MSS.
    Handoff {
        /// The migrating process.
        proc: ProcId,
    },
}

/// Workload: each mobile client submits inputs and awaits outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyWorkload {
    /// Inputs each client submits.
    pub inputs_per_client: usize,
    /// Mean interval between a client's submissions.
    pub mean_interval: u64,
}

impl Default for ProxyWorkload {
    fn default() -> Self {
        ProxyWorkload {
            inputs_per_client: 3,
            mean_interval: 100,
        }
    }
}

/// Summary of one proxy-runtime run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyReport {
    /// Inputs submitted by clients.
    pub inputs_sent: u64,
    /// Outputs delivered back to clients.
    pub outputs_delivered: u64,
    /// Location updates sent to fixed proxies.
    pub loc_updates: u64,
    /// Handoffs between local proxies.
    pub handoffs: u64,
    /// Outputs that needed a search because the client had moved again.
    pub stale_outputs: u64,
    /// Proxy processes caught on an MSS when it crashed (their wired
    /// traffic defers until the MSS recovers — fail-stop with stable
    /// state, so no proxy state is lost).
    pub proxy_outages: u64,
    /// Proxy processes still resident on an MSS when it recovered.
    pub proxy_recoveries: u64,
}

/// Executes a [`StaticAlgorithm`] at MSS proxies on behalf of mobile
/// clients. See the module docs.
#[derive(Debug)]
pub struct ProxyRuntime<A: StaticAlgorithm> {
    algo: A,
    policy: ProxyPolicy,
    clients: Vec<MhId>,
    /// Current proxy of each process.
    proxy_of: Vec<MssId>,
    /// Fixed policy: where the proxy believes its client currently is.
    last_known: Vec<MssId>,
    wl: ProxyWorkload,
    remaining: Vec<usize>,
    report: ProxyReport,
}

/// Runtime timers.
#[derive(Debug, Clone, Copy)]
pub enum PrxTimer {
    /// A client submits its next input.
    NextInput(ProcId),
}

impl<A: StaticAlgorithm> ProxyRuntime<A> {
    /// Creates a runtime binding each client MH to one static process.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(algo: A, clients: Vec<MhId>, policy: ProxyPolicy, wl: ProxyWorkload) -> Self {
        assert!(!clients.is_empty(), "at least one client is required");
        let n = clients.len();
        ProxyRuntime {
            algo,
            policy,
            clients,
            proxy_of: vec![MssId(0); n],
            last_known: vec![MssId(0); n],
            wl,
            remaining: vec![0; n],
            report: ProxyReport {
                inputs_sent: 0,
                outputs_delivered: 0,
                loc_updates: 0,
                handoffs: 0,
                stale_outputs: 0,
                proxy_outages: 0,
                proxy_recoveries: 0,
            },
        }
    }

    /// The final report.
    pub fn report(&self) -> ProxyReport {
        self.report.clone()
    }

    /// The wrapped static algorithm.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Current proxy of `proc` (test aid).
    pub fn proxy_of(&self, proc: ProcId) -> MssId {
        self.proxy_of[proc.index()]
    }

    fn proc_of(&self, mh: MhId) -> Option<ProcId> {
        self.clients
            .iter()
            .position(|c| *c == mh)
            .map(|i| ProcId(i as u32))
    }

    /// Applies queued static-algorithm effects to the real network.
    fn flush_static(
        &mut self,
        ctx: &mut Ctx<'_, PrxMsg<A::Msg>, PrxTimer>,
        sctx: StaticCtx<A::Msg>,
    ) {
        for (from, to, msg) in sctx.sends {
            let src_mss = self.proxy_of[from.index()];
            let dst_mss = self.proxy_of[to.index()];
            ctx.send_fixed(src_mss, dst_mss, PrxMsg::Algo { from, to, msg });
        }
        for (proc, value) in sctx.outputs {
            self.route_output(ctx, proc, value);
        }
    }

    fn route_output(
        &mut self,
        ctx: &mut Ctx<'_, PrxMsg<A::Msg>, PrxTimer>,
        proc: ProcId,
        value: u64,
    ) {
        let proxy = self.proxy_of[proc.index()];
        let mh = self.clients[proc.index()];
        let believed = match self.policy {
            ProxyPolicy::Fixed | ProxyPolicy::Adaptive { .. } => self.last_known[proc.index()],
            ProxyPolicy::LocalMss => proxy,
        };
        if believed == proxy {
            self.deliver_output(ctx, proxy, proc, mh, value);
        } else {
            ctx.send_fixed(proxy, believed, PrxMsg::Output { proc, value });
        }
    }

    fn deliver_output(
        &mut self,
        ctx: &mut Ctx<'_, PrxMsg<A::Msg>, PrxTimer>,
        at: MssId,
        proc: ProcId,
        mh: MhId,
        value: u64,
    ) {
        if ctx.is_local(at, mh) {
            let _ = ctx.send_wireless_down(at, mh, PrxMsg::Output { proc, value });
        } else {
            // The client moved since we last heard: fall back to a search.
            self.report.stale_outputs += 1;
            ctx.emit(mobidist_net::obs::TraceEvent::ProxyForward { mss: at, mh });
            ctx.search_send(at, mh, PrxMsg::Output { proc, value });
        }
    }

    fn with_static(
        &mut self,
        ctx: &mut Ctx<'_, PrxMsg<A::Msg>, PrxTimer>,
        f: impl FnOnce(&mut A, &mut StaticCtx<A::Msg>),
    ) {
        let mut sctx = StaticCtx::new(self.clients.len());
        f(&mut self.algo, &mut sctx);
        self.flush_static(ctx, sctx);
    }

    fn schedule_input(&self, ctx: &mut Ctx<'_, PrxMsg<A::Msg>, PrxTimer>, proc: ProcId) {
        let d = ctx.rng().exp_delay(self.wl.mean_interval.max(1));
        ctx.set_timer(d, PrxTimer::NextInput(proc));
    }
}

impl<A: StaticAlgorithm> Protocol for ProxyRuntime<A> {
    type Msg = PrxMsg<A::Msg>;
    type Timer = PrxTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        for i in 0..self.clients.len() {
            let mh = self.clients[i];
            let cell = ctx.current_cell(mh).unwrap_or(MssId(0));
            // Every policy starts with the proxy at the initial cell; they
            // differ only in how the association evolves with moves.
            self.proxy_of[i] = cell;
            self.last_known[i] = cell;
            self.remaining[i] = self.wl.inputs_per_client;
            if self.wl.inputs_per_client > 0 {
                self.schedule_input(ctx, ProcId(i as u32));
            }
        }
        self.with_static(ctx, |a, s| a.on_init(s));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        let PrxTimer::NextInput(proc) = timer;
        let i = proc.index();
        if self.remaining[i] == 0 {
            return;
        }
        let mh = self.clients[i];
        if ctx.mh_status(mh) != MhStatus::Connected {
            self.schedule_input(ctx, proc);
            return;
        }
        self.remaining[i] -= 1;
        self.report.inputs_sent += 1;
        let value = self.report.inputs_sent;
        let _ = ctx.send_wireless_up(mh, PrxMsg::Input { proc, value });
        if self.remaining[i] > 0 {
            self.schedule_input(ctx, proc);
        }
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MssId,
        _src: Src,
        msg: Self::Msg,
    ) {
        match msg {
            PrxMsg::Input { proc, value } => {
                // Arrived at the client's current MSS; relay to the proxy if
                // it lives elsewhere (only possible under the Fixed policy).
                let proxy = self.proxy_of[proc.index()];
                if proxy == at {
                    self.with_static(ctx, |a, s| a.on_input(s, proc, value));
                } else {
                    ctx.send_fixed(at, proxy, PrxMsg::FwdInput { proc, value });
                }
            }
            PrxMsg::FwdInput { proc, value } => {
                let proxy = self.proxy_of[proc.index()];
                if proxy == at {
                    self.with_static(ctx, |a, s| a.on_input(s, proc, value));
                } else {
                    // The proxy migrated while the input was in flight.
                    ctx.send_fixed(at, proxy, PrxMsg::FwdInput { proc, value });
                }
            }
            PrxMsg::Algo { from, to, msg } => {
                let proxy = self.proxy_of[to.index()];
                if proxy == at {
                    self.with_static(ctx, |a, s| a.on_msg(s, to, from, msg));
                } else {
                    // The proxy migrated while the message was in flight.
                    ctx.send_fixed(at, proxy, PrxMsg::Algo { from, to, msg });
                }
            }
            PrxMsg::Output { proc, value } => {
                let mh = self.clients[proc.index()];
                self.deliver_output(ctx, at, proc, mh, value);
            }
            PrxMsg::LocUpdate { proc, now_at } => {
                debug_assert_ne!(self.policy, ProxyPolicy::LocalMss);
                let proxy = self.proxy_of[proc.index()];
                if proxy == at {
                    self.last_known[proc.index()] = now_at;
                } else {
                    // The uplink landed at the client's new cell; relay the
                    // update over the wire to the fixed proxy.
                    ctx.send_fixed(at, proxy, PrxMsg::LocUpdate { proc, now_at });
                }
            }
            PrxMsg::Handoff { proc } => {
                debug_assert_ne!(self.policy, ProxyPolicy::Fixed);
                self.proxy_of[proc.index()] = at;
                self.last_known[proc.index()] = at;
            }
        }
    }

    fn on_mh_msg(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        _at: MhId,
        _src: Src,
        msg: Self::Msg,
    ) {
        match msg {
            PrxMsg::Output { .. } => {
                self.report.outputs_delivered += 1;
            }
            other => unreachable!("unexpected message at a client: {other:?}"),
        }
    }

    fn on_wireless_lost(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mss: MssId,
        mh: MhId,
        msg: Self::Msg,
    ) {
        if let PrxMsg::Output { proc, value } = msg {
            // The client left the cell while its output was on the air
            // (prefix-delivery semantics). The serving MSS recovers with
            // a search — part of the proxy's obligations.
            self.report.stale_outputs += 1;
            ctx.emit(mobidist_net::obs::TraceEvent::ProxyForward { mss, mh });
            ctx.search_send(mss, mh, PrxMsg::Output { proc, value });
        }
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let Some(proc) = self.proc_of(mh) else { return };
        match self.policy {
            ProxyPolicy::Fixed => {
                // The client must inform its proxy of every move: one
                // wireless uplink + one fixed hop.
                self.report.loc_updates += 1;
                let _ = ctx.send_wireless_up(mh, PrxMsg::LocUpdate { proc, now_at: mss });
            }
            ProxyPolicy::LocalMss => {
                // Handoff: the previous proxy ships the process state over.
                let from = prev.unwrap_or(self.proxy_of[proc.index()]);
                if from != mss {
                    self.report.handoffs += 1;
                    ctx.send_fixed(from, mss, PrxMsg::Handoff { proc });
                }
            }
            ProxyPolicy::Adaptive { radius } => {
                let proxy = self.proxy_of[proc.index()];
                if ring_distance(proxy, mss, ctx.num_mss()) <= radius {
                    // A local move: cheap location update, proxy stays.
                    self.report.loc_updates += 1;
                    let _ = ctx.send_wireless_up(mh, PrxMsg::LocUpdate { proc, now_at: mss });
                } else {
                    // A wide-area move: migrate the proxy via handoff.
                    self.report.handoffs += 1;
                    ctx.send_fixed(proxy, mss, PrxMsg::Handoff { proc });
                }
            }
        }
    }

    fn on_mss_crashed(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mss: MssId) {
        // Fail-stop with stable state: proxies resident on the crashed MSS
        // keep their state, and their wired traffic (inputs, algorithm
        // messages, handoffs *from* them) defers in the kernel until
        // recovery. Nothing to migrate — the state is on the down machine —
        // so the runtime only records the outage. Evacuated clients re-home
        // through the ordinary on_mh_joined path, whose handoff from the
        // crashed cell is itself deferred and flushes at recovery.
        self.report.proxy_outages +=
            self.proxy_of.iter().filter(|proxy| **proxy == mss).count() as u64;
    }

    fn on_mss_recovered(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mss: MssId) {
        // The kernel flushes deferred traffic (including pending handoffs
        // away from the recovered MSS) right after this hook runs; count the
        // processes whose proxy rode out the outage here.
        self.report.proxy_recoveries +=
            self.proxy_of.iter().filter(|proxy| **proxy == mss).count() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_distance_is_symmetric_and_wraps() {
        assert_eq!(ring_distance(MssId(0), MssId(1), 8), 1);
        assert_eq!(ring_distance(MssId(1), MssId(0), 8), 1);
        assert_eq!(ring_distance(MssId(0), MssId(7), 8), 1, "wraps around");
        assert_eq!(ring_distance(MssId(0), MssId(4), 8), 4, "antipode");
        assert_eq!(ring_distance(MssId(3), MssId(3), 8), 0);
    }

    #[test]
    fn static_ctx_collects_effects() {
        let mut ctx: StaticCtx<u8> = StaticCtx::new(3);
        assert_eq!(ctx.num_procs(), 3);
        ctx.send(ProcId(0), ProcId(1), 7);
        ctx.output(ProcId(2), 99);
        assert_eq!(ctx.sends, vec![(ProcId(0), ProcId(1), 7)]);
        assert_eq!(ctx.outputs, vec![(ProcId(2), 99)]);
    }
}
