//! **Exactly-once group delivery** — the extension the paper points to via
//! its reference \[1\] (Acharya & Badrinath, *Delivering multicast messages in
//! networks with mobile hosts*, ICDCS 1993).
//!
//! The three Section-4 strategies lose messages to members that are between
//! cells when a group message goes out (the paper's accounting footnote
//! simply disregards the case). This strategy buys *exactly-once* delivery
//! for every member regardless of movement:
//!
//! * a **sequencer** MSS assigns consecutive sequence numbers to group
//!   messages and broadcasts them to every MSS (FIFO wired channels make
//!   each MSS's log a prefix of the sequencer's);
//! * every MSS buffers the sequenced log and tracks, per local member, the
//!   next sequence number to deliver;
//! * on a move, the member's delivery cursor travels with the handoff; any
//!   downlink copies that were in flight when the member left are rolled
//!   back at `leave` time (their loss is certain under prefix-delivery
//!   semantics) and retransmitted by the *new* cell from its buffer.
//!
//! The price is static-network bandwidth: every message costs a full
//! `(M−1)`-MSS broadcast instead of a location-view fan-out. Experiment
//! E11 quantifies the trade.

use crate::strategy::{GroupCtx, LocationStrategy};
use mobidist_net::host::HostSet;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::BTreeMap;

/// Exactly-once protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EoMsg {
    /// Uplink: a member submits a group message.
    Submit {
        /// The group message id.
        msg_id: u64,
    },
    /// Fixed: relayed submission on its way to the sequencer.
    ToSequencer {
        /// The group message id.
        msg_id: u64,
        /// The submitting member.
        sender: MhId,
    },
    /// Fixed: the sequenced message, broadcast to every MSS.
    Sequenced {
        /// Position in the global order.
        seq: u64,
        /// The group message id.
        msg_id: u64,
        /// The submitting member (skipped at delivery).
        sender: MhId,
    },
    /// Downlink: in-order delivery to a member.
    Deliver {
        /// Position in the global order.
        seq: u64,
        /// The group message id.
        msg_id: u64,
    },
}

/// The exactly-once strategy. See the module docs.
#[derive(Debug)]
pub struct ExactlyOnce {
    members: HostSet,
    sequencer: MssId,
    /// Next sequence number the sequencer will assign.
    next_seq: u64,
    /// The sequenced log: `log[i]` has seq `i`.
    log: Vec<(u64, MhId)>, // (msg_id, sender)
    /// Highest sequence number each MSS has received (exclusive bound:
    /// the MSS holds seqs `0..high[mss]`).
    high: IdMap<MssId, u64>,
    /// Per-member delivery cursor: next seq to hand to the member.
    cursor: IdMap<MhId, u64>,
    /// Copies sent on the member's current downlink but not yet confirmed
    /// received (rolled back wholesale on leave).
    pending: IdMap<MhId, Vec<u64>>,
    /// Retransmissions performed after moves.
    retransmissions: u64,
}

impl ExactlyOnce {
    /// Creates the strategy with the given sequencer MSS.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<MhId>, sequencer: MssId) -> Self {
        assert!(!members.is_empty(), "a group needs members");
        let cursor = members.iter().map(|m| (*m, 0)).collect();
        ExactlyOnce {
            members: members.into_iter().collect(),
            sequencer,
            next_seq: 0,
            log: Vec::new(),
            high: IdMap::new(),
            cursor,
            pending: IdMap::new(),
            retransmissions: 0,
        }
    }

    /// Copies retransmitted from a new cell's buffer after a move.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// The global sequence length so far.
    pub fn sequenced(&self) -> u64 {
        self.next_seq
    }

    /// Pushes every due log entry down to `mh`, which must be local to
    /// `mss`.
    fn drain_to(&mut self, ctx: &mut GroupCtx<'_, '_, EoMsg, ()>, mss: MssId, mh: MhId) {
        let high = self.high.get(&mss).copied().unwrap_or(0);
        let cur = self.cursor.get_mut(&mh).expect("known member");
        while *cur < high {
            let seq = *cur;
            let (msg_id, sender) = self.log[seq as usize];
            *cur += 1;
            if sender == mh {
                continue; // members do not receive their own messages
            }
            if ctx
                .send_wireless_down(mss, mh, EoMsg::Deliver { seq, msg_id })
                .is_ok()
            {
                self.pending.get_or_insert_with(mh, Vec::new).push(seq);
            }
        }
    }
}

impl LocationStrategy for ExactlyOnce {
    type Msg = EoMsg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "exactly-once"
    }

    fn on_start(
        &mut self,
        _ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        _placement: &BTreeMap<MhId, MssId>,
    ) {
    }

    fn send_group_message(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        from: MhId,
        msg_id: u64,
    ) {
        let _ = ctx.send_wireless_up(from, EoMsg::Submit { msg_id });
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        at: MssId,
        src: Src,
        msg: EoMsg,
    ) {
        match msg {
            EoMsg::Submit { msg_id } => {
                let sender = src.as_mh().expect("submissions arrive on the uplink");
                if at == self.sequencer {
                    self.on_mss_msg(ctx, at, Src::Mss(at), EoMsg::ToSequencer { msg_id, sender });
                } else {
                    ctx.send_fixed(at, self.sequencer, EoMsg::ToSequencer { msg_id, sender });
                }
            }
            EoMsg::ToSequencer { msg_id, sender } => {
                debug_assert_eq!(at, self.sequencer);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.log.push((msg_id, sender));
                // Broadcast the sequenced message to every MSS (including
                // this one, locally).
                let all: Vec<MssId> = ctx.mss_ids().collect();
                for mss in all {
                    if mss == at {
                        self.high.insert(at, seq + 1);
                        let locals: Vec<MhId> = self
                            .members
                            .iter()
                            .filter(|m| ctx.is_local(at, *m))
                            .collect();
                        for mh in locals {
                            self.drain_to(ctx, at, mh);
                        }
                    } else {
                        ctx.send_fixed(
                            at,
                            mss,
                            EoMsg::Sequenced {
                                seq,
                                msg_id,
                                sender,
                            },
                        );
                    }
                }
            }
            EoMsg::Sequenced { seq, .. } => {
                // FIFO from the sequencer ⇒ seqs arrive in order.
                self.high.insert(at, seq + 1);
                let locals: Vec<MhId> = self
                    .members
                    .iter()
                    .filter(|m| ctx.is_local(at, *m))
                    .collect();
                for mh in locals {
                    self.drain_to(ctx, at, mh);
                }
            }
            EoMsg::Deliver { .. } => unreachable!("deliveries terminate at MHs"),
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut GroupCtx<'_, '_, EoMsg, ()>, at: MhId, _: Src, msg: EoMsg) {
        let EoMsg::Deliver { seq, msg_id } = msg else {
            unreachable!("MHs only receive deliveries");
        };
        // Confirmed received: it can no longer be rolled back.
        if let Some(p) = self.pending.get_mut(&at) {
            p.retain(|s| *s != seq);
        }
        ctx.deliver(at, msg_id);
    }

    fn on_member_left(&mut self, _ctx: &mut GroupCtx<'_, '_, EoMsg, ()>, mh: MhId, _mss: MssId) {
        // Copies still on the wire are certain losses (prefix delivery):
        // rewind the cursor to the earliest unconfirmed copy.
        if let Some(p) = self.pending.remove(&mh) {
            if let Some(min) = p.into_iter().min() {
                let cur = self.cursor.get_mut(&mh).expect("known member");
                *cur = (*cur).min(min);
            }
        }
    }

    fn on_member_disconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        mh: MhId,
        mss: MssId,
    ) {
        self.on_member_left(ctx, mh, mss);
    }

    fn on_member_joined(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        mh: MhId,
        mss: MssId,
        _prev: Option<MssId>,
    ) {
        // The cursor arrived with the handoff; the new cell retransmits
        // whatever the member missed.
        let before = self.cursor.get(&mh).copied().unwrap_or(0);
        self.drain_to(ctx, mss, mh);
        let after = self.cursor.get(&mh).copied().unwrap_or(0);
        self.retransmissions += after.saturating_sub(before);
    }

    fn on_member_reconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, EoMsg, ()>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.on_member_joined(ctx, mh, mss, prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_strategy_state() {
        let eo = ExactlyOnce::new(vec![MhId(0), MhId(1)], MssId(2));
        assert_eq!(eo.sequenced(), 0);
        assert_eq!(eo.retransmissions(), 0);
        assert_eq!(eo.name(), "exactly-once");
    }

    #[test]
    #[should_panic(expected = "a group needs members")]
    fn empty_group_rejected() {
        let _ = ExactlyOnce::new(vec![], MssId(0));
    }

    #[test]
    fn cursor_rollback_on_leave_rewinds_to_earliest_pending() {
        let mut eo = ExactlyOnce::new(vec![MhId(0)], MssId(0));
        eo.cursor.insert(MhId(0), 7);
        eo.pending.insert(MhId(0), vec![5, 6]);
        // Simulate the leave bookkeeping without a network.
        if let Some(p) = eo.pending.remove(&MhId(0)) {
            if let Some(min) = p.into_iter().min() {
                let cur = eo.cursor.get_mut(&MhId(0)).unwrap();
                *cur = (*cur).min(min);
            }
        }
        assert_eq!(eo.cursor[&MhId(0)], 5);
        assert!(eo.pending.is_empty());
    }
}
