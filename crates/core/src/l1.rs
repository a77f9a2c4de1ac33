//! **Algorithm L1** — Lamport's mutual exclusion executed directly on the
//! mobile hosts (the baseline of Section 3.1.1).
//!
//! Each of the `N` participating MHs keeps a logical clock and a replicated
//! request queue. To enter the critical section a participant broadcasts a
//! timestamped `Request` to the other `N − 1` participants, waits for a
//! message with a larger timestamp from each of them, and enters when its
//! request heads the queue. On exit it broadcasts `Release`.
//!
//! Every message travels MH→MH, costing `2·C_wireless + C_search` and
//! draining battery at both endpoints — the paper's argument for why the
//! overall cost is `3(N−1)(2·C_wireless + C_search)` per execution with
//! energy proportional to `6(N−1)`, and why the algorithm has no answer to
//! disconnection (the run simply stalls).

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use crate::lamport::{order_key, Replica};
use mobidist_clock::Timestamp;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;

/// L1 protocol messages (all MH→MH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Msg {
    /// Timestamped request for the critical section.
    Request(Timestamp),
    /// Acknowledgement carrying the replier's clock.
    Reply(Timestamp),
    /// The sender has left the critical section.
    Release(Timestamp),
}

impl L1Msg {
    fn timestamp(&self) -> Timestamp {
        match *self {
            L1Msg::Request(t) | L1Msg::Reply(t) | L1Msg::Release(t) => t,
        }
    }
}

/// Per-participant replicated state (lives *on the MH*, which is exactly the
/// paper's objection).
#[derive(Debug)]
struct Participant {
    lamport: Replica<MhId, (Timestamp, MhId)>,
    /// Each peer's queued request stamp, so a `Release` removes its entry by
    /// key instead of sweeping the queue.
    queued: IdMap<MhId, Timestamp>,
    /// A peer's `Request` found its previous one still queued: a `Release`
    /// never arrived here (the transport burnt it while this host was
    /// disconnected), so that peer may hold two entries, and every later
    /// `Release` sweeps the queue for the sender as well.
    lost_release: bool,
    /// Own outstanding request, if any.
    own: Option<Timestamp>,
    granted: bool,
}

/// Lamport's algorithm on mobile hosts. See the module docs.
#[derive(Debug)]
pub struct L1 {
    participants: Vec<MhId>,
    state: IdMap<MhId, Participant>,
}

impl L1 {
    /// Creates an instance over the given participant set.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is empty.
    pub fn new(participants: Vec<MhId>) -> Self {
        assert!(
            !participants.is_empty(),
            "L1 needs at least one participant"
        );
        let state = participants
            .iter()
            .map(|mh| {
                (
                    *mh,
                    Participant {
                        lamport: Replica::new(mh.0),
                        queued: IdMap::new(),
                        lost_release: false,
                        own: None,
                        granted: false,
                    },
                )
            })
            .collect();
        L1 {
            participants,
            state,
        }
    }

    /// The participant set.
    pub fn participants(&self) -> &[MhId] {
        &self.participants
    }

    /// Lamport's grant condition: own request heads the queue and a message
    /// with a larger timestamp has arrived from every other participant.
    fn try_grant(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, me: MhId) {
        let p = self.state.get_mut(&me).expect("known participant");
        let Some(own_ts) = p.own else { return };
        if p.granted {
            return;
        }
        if p.lamport.queue.first() != Some(&(own_ts, me)) {
            return;
        }
        let others = self.participants.iter().copied().filter(|o| *o != me);
        if p.lamport.heard_after(own_ts, others) {
            p.granted = true;
            ctx.grant_with_key(me, order_key(own_ts));
        }
    }
}

impl MutexAlgorithm for L1 {
    type Msg = L1Msg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "L1"
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, mh: MhId) {
        let p = self.state.get_mut(&mh).expect("requester is a participant");
        debug_assert!(p.own.is_none(), "one outstanding request per MH");
        let ts = p.lamport.clock.tick();
        p.own = Some(ts);
        p.granted = false;
        p.lamport.queue.insert((ts, mh));
        for o in self.participants.iter().copied().filter(|o| *o != mh) {
            // Each request is an MH→MH message: 2·C_wireless + C_search.
            let _ = ctx.mh_send_to_mh(mh, o, L1Msg::Request(ts));
        }
        self.try_grant(ctx, mh);
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, mh: MhId) {
        let p = self.state.get_mut(&mh).expect("known participant");
        let Some(own_ts) = p.own.take() else { return };
        p.granted = false;
        p.lamport.queue.remove(&(own_ts, mh));
        let ts = p.lamport.clock.tick();
        for o in self.participants.iter().copied().filter(|o| *o != mh) {
            let _ = ctx.mh_send_to_mh(mh, o, L1Msg::Release(ts));
        }
    }

    fn on_mss_msg(&mut self, _: &mut AlgoCtx<'_, '_, L1Msg, ()>, _: MssId, _: Src, _: L1Msg) {
        unreachable!("L1 exchanges messages only between mobile hosts");
    }

    fn on_mh_msg(&mut self, ctx: &mut AlgoCtx<'_, '_, L1Msg, ()>, at: MhId, src: Src, msg: L1Msg) {
        let from = src.as_mh().expect("L1 peers are MHs");
        let ts = msg.timestamp();
        let p = self.state.get_mut(&at).expect("known participant");
        match msg {
            L1Msg::Request(_) => {
                let reply_ts = p.lamport.request(from, ts, (ts, from));
                if p.queued.insert(from, ts).is_some() {
                    p.lost_release = true;
                }
                let _ = ctx.mh_send_to_mh(at, from, L1Msg::Reply(reply_ts));
            }
            L1Msg::Reply(_) => p.lamport.receive(from, ts),
            L1Msg::Release(_) => {
                p.lamport.receive(from, ts);
                // Remove the releaser's queued request: one entry, since a
                // peer has one outstanding request at a time.
                if let Some(req) = p.queued.remove(&from) {
                    p.lamport.queue.remove(&(req, from));
                }
                if p.lost_release {
                    p.lamport.queue.retain(|(_, who)| *who != from);
                }
            }
        }
        self.try_grant(ctx, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::HarnessTimer;
    use mobidist_net::config::NetworkConfig;
    use mobidist_net::proto::{Ctx, Protocol};
    use mobidist_net::sim::Simulation;

    #[test]
    fn participants_are_recorded() {
        let l1 = L1::new(vec![MhId(2), MhId(5), MhId(7)]);
        assert_eq!(l1.participants(), &[MhId(2), MhId(5), MhId(7)]);
        assert_eq!(l1.name(), "L1");
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn empty_participants_rejected() {
        let _ = L1::new(vec![]);
    }

    /// A protocol that ignores everything, so a test can hand L1 a live
    /// kernel context and drive its handlers by hand.
    struct Idle;

    impl Protocol for Idle {
        type Msg = L1Msg;
        type Timer = HarnessTimer<()>;
        fn on_mss_msg(&mut self, _: &mut Ctx<'_, L1Msg, Self::Timer>, _: MssId, _: Src, _: L1Msg) {}
        fn on_mh_msg(&mut self, _: &mut Ctx<'_, L1Msg, Self::Timer>, _: MhId, _: Src, _: L1Msg) {}
    }

    /// How many entries `mh0` has queued, and its head as `(counter, peer)`.
    fn queue_at_mh0(l1: &L1) -> (usize, Option<(u64, u32)>) {
        let q = &l1.state[&MhId(0)].lamport.queue;
        (q.len(), q.first().map(|(ts, mh)| (ts.counter, mh.0)))
    }

    #[test]
    fn release_removes_only_the_releasers_entry() {
        let mut l1 = L1::new((0..4).map(MhId).collect());
        let mut sim = Simulation::new(NetworkConfig::new(2, 4), Idle);
        sim.with_ctx(|net, _| {
            let mut effects = Vec::new();
            let ctx = &mut AlgoCtx::new(net, &mut effects);
            let mut at_mh0 = |l1: &mut L1, from: u32, msg: L1Msg| {
                l1.on_mh_msg(ctx, MhId(0), Src::Mh(MhId(from)), msg);
            };
            at_mh0(&mut l1, 1, L1Msg::Request(Timestamp::new(1, 1)));
            at_mh0(&mut l1, 2, L1Msg::Request(Timestamp::new(1, 2)));
            at_mh0(&mut l1, 3, L1Msg::Request(Timestamp::new(2, 3)));
            at_mh0(&mut l1, 2, L1Msg::Release(Timestamp::new(3, 2)));
            assert_eq!(queue_at_mh0(&l1), (2, Some((1, 1))));
            at_mh0(&mut l1, 1, L1Msg::Release(Timestamp::new(4, 1)));
            assert_eq!(queue_at_mh0(&l1), (1, Some((2, 3))));
            assert!(!l1.state[&MhId(0)].lost_release);
            // mh1's next two requests with no Release between them: the
            // second finds the first still queued, and mh1's Release then
            // clears both while mh3's entry stays.
            at_mh0(&mut l1, 1, L1Msg::Request(Timestamp::new(5, 1)));
            at_mh0(&mut l1, 1, L1Msg::Request(Timestamp::new(7, 1)));
            assert!(l1.state[&MhId(0)].lost_release);
            at_mh0(&mut l1, 1, L1Msg::Release(Timestamp::new(8, 1)));
            assert_eq!(queue_at_mh0(&l1), (1, Some((2, 3))));
        });
    }

    #[test]
    fn message_timestamps_extracted() {
        let ts = Timestamp::new(4, 1);
        assert_eq!(L1Msg::Request(ts).timestamp(), ts);
        assert_eq!(L1Msg::Reply(ts).timestamp(), ts);
        assert_eq!(L1Msg::Release(ts).timestamp(), ts);
    }
}
