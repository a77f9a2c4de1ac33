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
        let r = &mut self.state.get_mut(&at).expect("known participant").lamport;
        match msg {
            L1Msg::Request(_) => {
                let reply_ts = r.request(from, ts, (ts, from));
                let _ = ctx.mh_send_to_mh(at, from, L1Msg::Reply(reply_ts));
            }
            L1Msg::Reply(_) => r.receive(from, ts),
            L1Msg::Release(_) => {
                r.receive(from, ts);
                // Remove the releaser's (unique) queued request.
                r.queue.retain(|(_, who)| *who != from);
            }
        }
        self.try_grant(ctx, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn message_timestamps_extracted() {
        let ts = Timestamp::new(4, 1);
        assert_eq!(L1Msg::Request(ts).timestamp(), ts);
        assert_eq!(L1Msg::Reply(ts).timestamp(), ts);
        assert_eq!(L1Msg::Release(ts).timestamp(), ts);
    }
}
