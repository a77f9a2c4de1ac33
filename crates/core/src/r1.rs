//! **Algorithm R1** — Le Lann's token ring executed directly on the mobile
//! hosts (the baseline of Section 3.1.2).
//!
//! The `N` MHs form a unidirectional logical ring; a single token circulates
//! continuously. Each MH waits for the token from its predecessor, enters
//! the critical section if it wants to, and forwards the token to its
//! successor. Every hop is an MH→MH message costing
//! `2·C_wireless + C_search`, so one traversal costs
//! `N(2·C_wireless + C_search)` *independent of how many requests were
//! served* — and every MH pays battery to relay the token even when it never
//! wanted it, and is interrupted even while dozing.
//!
//! Disconnection: R1 has no graceful answer. The implementation offers the
//! two options the paper contemplates: stall (retry until the successor
//! reconnects) or rebuild the ring by skipping the disconnected member,
//! each exposing its cost.

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use mobidist_net::host::HostSet;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;

/// What R1 does when the next token holder is disconnected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum R1DisconnectPolicy {
    /// Keep retrying the same successor until it reconnects (the ring
    /// stalls; progress stops for everyone).
    #[default]
    Stall,
    /// Re-establish the logical ring among the remaining MHs by skipping the
    /// disconnected member (extra searches, ring-maintenance cost).
    Skip,
}

/// R1 protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R1Msg {
    /// The circulating token.
    Token,
}

/// R1 timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum R1Timer {
    /// Retry forwarding the token from `from` to `to` after a stall.
    RetryForward {
        /// Current token holder.
        from: MhId,
        /// Intended next holder.
        to: MhId,
    },
}

/// Le Lann's ring on mobile hosts. See the module docs.
#[derive(Debug)]
pub struct R1 {
    ring: Vec<MhId>,
    pos: IdMap<MhId, usize>,
    /// Ring members with an unserved request.
    wants: HostSet,
    /// MH currently holding (relaying or using) the token.
    holder: Option<MhId>,
    /// Holder is inside the critical section.
    in_cs: bool,
    policy: R1DisconnectPolicy,
    retry_delay: u64,
    /// Completed traversals (token back at ring position 0).
    traversals: u64,
    /// Token-forward messages sent.
    hops: u64,
    /// Times the ring had to skip a disconnected member.
    skips: u64,
    /// Times forwarding stalled on a disconnected member.
    stalls: u64,
}

impl R1 {
    /// Creates a ring over the given MHs, token starting at the first.
    ///
    /// # Panics
    ///
    /// Panics if `ring` is empty.
    pub fn new(ring: Vec<MhId>, policy: R1DisconnectPolicy) -> Self {
        assert!(!ring.is_empty(), "R1 needs at least one MH in the ring");
        let pos = ring.iter().enumerate().map(|(i, mh)| (*mh, i)).collect();
        R1 {
            ring,
            pos,
            wants: HostSet::new(),
            holder: None,
            in_cs: false,
            policy,
            retry_delay: 50,
            traversals: 0,
            hops: 0,
            skips: 0,
            stalls: 0,
        }
    }

    /// Completed ring traversals.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Token-forward hops sent.
    pub fn hops(&self) -> u64 {
        self.hops
    }

    /// Times a disconnected member was skipped (Skip policy).
    pub fn skips(&self) -> u64 {
        self.skips
    }

    /// Times forwarding stalled on a disconnected member (Stall policy).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// The current token holder (None only while the token is in flight).
    pub fn holder(&self) -> Option<MhId> {
        self.holder
    }

    fn successor(&self, of: MhId, step: usize) -> MhId {
        let i = self.pos[&of];
        self.ring[(i + step) % self.ring.len()]
    }

    fn forward(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, from: MhId) {
        let to = self.successor(from, 1);
        if to == from {
            // Single-member ring: the holder keeps the token; nothing to send.
            self.token_arrived(ctx, from);
            return;
        }
        self.hops += 1;
        self.holder = None;
        let _ = ctx.mh_send_to_mh(from, to, R1Msg::Token);
    }

    fn token_arrived(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, at: MhId) {
        self.holder = Some(at);
        if self.pos[&at] == 0 {
            self.traversals += 1;
        }
        if self.wants.remove(&at) {
            self.in_cs = true;
            ctx.grant(at);
            // The token parks here until the harness calls release().
        } else {
            self.forward(ctx, at);
        }
    }
}

impl MutexAlgorithm for R1 {
    type Msg = R1Msg;
    type Timer = R1Timer;

    fn name(&self) -> &'static str {
        "R1"
    }

    fn on_start(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>) {
        // Mint the token at ring position 0.
        let first = self.ring[0];
        self.token_arrived(ctx, first);
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, mh: MhId) {
        self.wants.insert(mh);
        // Only in a single-member ring can the token be parked at an idle
        // MH; enter immediately in that case.
        if self.holder == Some(mh) && !self.in_cs {
            self.wants.remove(&mh);
            self.in_cs = true;
            ctx.grant(mh);
        }
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, mh: MhId) {
        debug_assert_eq!(self.holder, Some(mh), "release from the token holder");
        self.in_cs = false;
        self.forward(ctx, mh);
    }

    fn on_mss_msg(&mut self, _: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, _: MssId, _: Src, _: R1Msg) {
        unreachable!("R1 exchanges messages only between mobile hosts");
    }

    fn on_mh_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>,
        at: MhId,
        _: Src,
        msg: R1Msg,
    ) {
        match msg {
            R1Msg::Token => self.token_arrived(ctx, at),
        }
    }

    fn on_timer(&mut self, ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>, timer: R1Timer) {
        match timer {
            R1Timer::RetryForward { from, to } => {
                self.hops += 1;
                let _ = ctx.mh_send_to_mh(from, to, R1Msg::Token);
            }
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, R1Msg, R1Timer>,
        _origin: MssId,
        target: MhId,
        msg: R1Msg,
    ) {
        let R1Msg::Token = msg;
        // The token bounced off a disconnected successor. Its logical sender
        // is the predecessor of `target`; recover per policy.
        let sender = {
            let i = self.pos[&target];
            let n = self.ring.len();
            self.ring[(i + n - 1) % n]
        };
        match self.policy {
            R1DisconnectPolicy::Stall => {
                self.stalls += 1;
                ctx.set_timer(
                    self.retry_delay,
                    R1Timer::RetryForward {
                        from: sender,
                        to: target,
                    },
                );
            }
            R1DisconnectPolicy::Skip => {
                self.skips += 1;
                let next = self.successor(target, 1);
                self.hops += 1;
                let _ = ctx.mh_send_to_mh(sender, next, R1Msg::Token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring4() -> R1 {
        R1::new(
            vec![MhId(0), MhId(1), MhId(2), MhId(3)],
            R1DisconnectPolicy::Stall,
        )
    }

    #[test]
    fn successor_wraps_around_the_ring() {
        let r = ring4();
        assert_eq!(r.successor(MhId(0), 1), MhId(1));
        assert_eq!(r.successor(MhId(3), 1), MhId(0));
        assert_eq!(r.successor(MhId(2), 2), MhId(0));
    }

    #[test]
    fn fresh_ring_has_no_holder_and_zero_stats() {
        let r = ring4();
        assert_eq!(r.holder(), None);
        assert_eq!(
            (r.traversals(), r.hops(), r.skips(), r.stalls()),
            (0, 0, 0, 0)
        );
        assert_eq!(r.name(), "R1");
    }

    #[test]
    #[should_panic(expected = "at least one MH")]
    fn empty_ring_rejected() {
        let _ = R1::new(vec![], R1DisconnectPolicy::Skip);
    }
}
