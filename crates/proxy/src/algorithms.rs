//! Static algorithms used to demonstrate the proxy framework.
//!
//! These are deliberately classical programs written for *fixed* hosts —
//! none of them knows mobility exists. Lifted by
//! [`ProxyRuntime`](crate::framework::ProxyRuntime), they serve mobile
//! clients unchanged.

use crate::framework::{ProcId, StaticAlgorithm, StaticCtx};

/// Echo service: every input is answered with `input + 1` by the client's
/// own proxy. No inter-process traffic — isolates the pure mobility
/// overhead of the runtime.
#[derive(Debug, Default)]
pub struct EchoService {
    handled: u64,
}

impl EchoService {
    /// Creates the service.
    pub fn new() -> Self {
        EchoService::default()
    }

    /// Inputs handled so far.
    pub fn handled(&self) -> u64 {
        self.handled
    }
}

impl StaticAlgorithm for EchoService {
    type Msg = ();

    fn name(&self) -> &'static str {
        "echo"
    }

    fn on_input(&mut self, ctx: &mut StaticCtx<()>, proc: ProcId, input: u64) {
        self.handled += 1;
        ctx.output(proc, input + 1);
    }

    fn on_msg(&mut self, _: &mut StaticCtx<()>, _: ProcId, _: ProcId, _msg: ()) {
        unreachable!("the echo service sends no inter-process messages");
    }
}

/// Messages of the [`CentralCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterMsg {
    /// Ask the counter process to add `1` and report the new value.
    Add {
        /// Who asked (so the reply can find its way back).
        client: ProcId,
    },
    /// The new counter value for `client`.
    Value {
        /// The requester.
        client: ProcId,
        /// The counter after the increment.
        value: u64,
    },
}

/// A shared counter owned by process 0: every input is an increment routed
/// to the owner, whose reply is delivered to the requesting client. A
/// minimal client-server workload exercising inter-proxy traffic.
#[derive(Debug, Default)]
pub struct CentralCounter {
    value: u64,
}

impl CentralCounter {
    /// Creates the counter at zero.
    pub fn new() -> Self {
        CentralCounter::default()
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl StaticAlgorithm for CentralCounter {
    type Msg = CounterMsg;

    fn name(&self) -> &'static str {
        "central-counter"
    }

    fn on_input(&mut self, ctx: &mut StaticCtx<CounterMsg>, proc: ProcId, _input: u64) {
        let owner = ProcId(0);
        if proc == owner {
            self.value += 1;
            ctx.output(proc, self.value);
        } else {
            ctx.send(proc, owner, CounterMsg::Add { client: proc });
        }
    }

    fn on_msg(
        &mut self,
        ctx: &mut StaticCtx<CounterMsg>,
        at: ProcId,
        _from: ProcId,
        msg: CounterMsg,
    ) {
        match msg {
            CounterMsg::Add { client } => {
                debug_assert_eq!(at, ProcId(0));
                self.value += 1;
                ctx.send(
                    at,
                    client,
                    CounterMsg::Value {
                        client,
                        value: self.value,
                    },
                );
            }
            CounterMsg::Value { client, value } => {
                ctx.output(client, value);
            }
        }
    }
}

/// Messages of the [`Barrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMsg {
    /// A process reached the barrier.
    Arrived {
        /// The arriving process.
        who: ProcId,
    },
    /// Everyone arrived; round `round` is released.
    Release {
        /// The completed round.
        round: u64,
    },
}

/// A barrier coordinated by process 0: each client input is an "arrival";
/// when all processes have arrived, everyone's client is notified with the
/// round number. Arrivals are counted, so a fast client may bank arrivals
/// for future rounds. All-to-one plus one-to-all inter-proxy traffic.
#[derive(Debug, Default)]
pub struct Barrier {
    /// Banked arrivals per process, indexed by [`ProcId::index`].
    arrivals: Vec<u64>,
    round: u64,
}

impl Barrier {
    /// Creates the barrier at round zero.
    pub fn new() -> Self {
        Barrier::default()
    }

    /// Completed rounds.
    pub fn rounds(&self) -> u64 {
        self.round
    }
}

impl StaticAlgorithm for Barrier {
    type Msg = BarrierMsg;

    fn name(&self) -> &'static str {
        "barrier"
    }

    fn on_input(&mut self, ctx: &mut StaticCtx<BarrierMsg>, proc: ProcId, _input: u64) {
        if proc == ProcId(0) {
            self.note_arrival(ctx, proc);
        } else {
            ctx.send(proc, ProcId(0), BarrierMsg::Arrived { who: proc });
        }
    }

    fn on_msg(
        &mut self,
        ctx: &mut StaticCtx<BarrierMsg>,
        at: ProcId,
        _from: ProcId,
        msg: BarrierMsg,
    ) {
        match msg {
            BarrierMsg::Arrived { who } => {
                debug_assert_eq!(at, ProcId(0));
                self.note_arrival(ctx, who);
            }
            BarrierMsg::Release { round } => {
                ctx.output(at, round);
            }
        }
    }
}

impl Barrier {
    fn note_arrival(&mut self, ctx: &mut StaticCtx<BarrierMsg>, who: ProcId) {
        if self.arrivals.len() < ctx.num_procs() {
            self.arrivals.resize(ctx.num_procs(), 0);
        }
        self.arrivals[who.index()] += 1;
        while self.arrivals.iter().all(|c| *c > 0) {
            for c in &mut self.arrivals {
                *c -= 1;
            }
            self.round += 1;
            let round = self.round;
            ctx.output(ProcId(0), round);
            for p in 1..ctx.num_procs() as u32 {
                ctx.send(ProcId(0), ProcId(p), BarrierMsg::Release { round });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_answers_with_increment() {
        let mut e = EchoService::new();
        let mut ctx = StaticCtx::new(3);
        e.on_input(&mut ctx, ProcId(1), 41);
        assert_eq!(e.handled(), 1);
    }

    #[test]
    fn counter_increments_for_remote_clients() {
        let mut c = CentralCounter::new();
        let mut ctx = StaticCtx::new(3);
        // Remote client routes through the owner.
        c.on_input(&mut ctx, ProcId(2), 0);
        assert_eq!(c.value(), 0, "not incremented until the owner hears");
        c.on_msg(
            &mut ctx,
            ProcId(0),
            ProcId(2),
            CounterMsg::Add { client: ProcId(2) },
        );
        assert_eq!(c.value(), 1);
        // Local client is immediate.
        c.on_input(&mut ctx, ProcId(0), 0);
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn barrier_releases_once_everyone_arrives() {
        let mut b = Barrier::new();
        let mut ctx = StaticCtx::new(3);
        b.on_input(&mut ctx, ProcId(0), 0);
        b.on_msg(
            &mut ctx,
            ProcId(0),
            ProcId(1),
            BarrierMsg::Arrived { who: ProcId(1) },
        );
        assert_eq!(b.rounds(), 0);
        b.on_msg(
            &mut ctx,
            ProcId(0),
            ProcId(2),
            BarrierMsg::Arrived { who: ProcId(2) },
        );
        assert_eq!(b.rounds(), 1);
    }
}
