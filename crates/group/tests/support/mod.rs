//! The test oracle for the group harness's order check: a strategy wrapper
//! that records every member's delivery sequence from the deliveries each
//! callback reports, and the pairwise total-order check over them. The
//! harness keeps only an O(members) digest; small runs check it against
//! this.

use mobidist_group::strategy::{Delivery, GroupCtx, GroupHarness, LocationStrategy};
use mobidist_net::ids::{MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::{BTreeMap, BTreeSet};

/// True when the per-member delivery sequences are mutually consistent
/// with one global total order: for every pair of messages delivered to
/// two members, both saw them in the same relative order.
pub fn sequences_consistent<'a>(seqs: impl IntoIterator<Item = &'a Vec<u64>>) -> bool {
    // rank[m][msg] = position of msg in m's sequence.
    let ranks: Vec<BTreeMap<u64, usize>> = seqs
        .into_iter()
        .map(|s| s.iter().enumerate().map(|(i, m)| (*m, i)).collect())
        .collect();
    for (i, a) in ranks.iter().enumerate() {
        for b in ranks.iter().skip(i + 1) {
            let common: Vec<u64> = a.keys().filter(|k| b.contains_key(k)).copied().collect();
            for (x, xs) in common.iter().enumerate() {
                for ys in common.iter().skip(x + 1) {
                    if (a[xs] < a[ys]) != (b[xs] < b[ys]) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// True when the harness's digests agree with the recorded sequences: the
/// same members, the same lengths, and equal folds exactly where the
/// sequences are equal.
pub fn digests_agree<S: LocationStrategy>(h: &GroupHarness<Recording<S>>) -> bool {
    let (digests, seqs) = (h.delivery_sequences(), h.strategy().sequences());
    let pairs: Vec<_> = digests.iter().zip(seqs).collect();
    digests.len() == seqs.len()
        && pairs
            .iter()
            .all(|((m, d), (sm, s))| m == *sm && d.len == s.len() as u64)
        && pairs.iter().all(|((_, a), (_, sa))| {
            pairs
                .iter()
                .all(|((_, b), (_, sb))| (a.fold == b.fold) == (sa == sb))
        })
}

/// Wraps a strategy and records, per member, its first receipts of sent
/// messages in arrival order — the sequence the harness folds into its
/// digest.
#[derive(Debug)]
pub struct Recording<S> {
    inner: S,
    /// Group messages sent so far; ids are dense from 0.
    sent: u64,
    sequences: BTreeMap<MhId, Vec<u64>>,
    seen: BTreeSet<(MhId, u64)>,
}

impl<S> Recording<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Recording {
            inner,
            sent: 0,
            sequences: BTreeMap::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Every member's recorded sequence, by ascending id.
    pub fn sequences(&self) -> &BTreeMap<MhId, Vec<u64>> {
        &self.sequences
    }

    /// The pairwise oracle over the recorded sequences.
    pub fn total_order_consistent(&self) -> bool {
        sequences_consistent(self.sequences.values())
    }

    fn record(&mut self, reported: &[Delivery]) {
        for d in reported {
            if d.msg_id < self.sent && self.seen.insert((d.to, d.msg_id)) {
                self.sequences.entry(d.to).or_default().push(d.msg_id);
            }
        }
    }
}

/// Runs `$call` on the inner strategy, then records what it reported.
macro_rules! recorded {
    ($self:ident, $ctx:ident, $call:expr) => {{
        let from = $ctx.delivered().len();
        $call;
        $self.record(&$ctx.delivered()[from..]);
    }};
}

impl<S: LocationStrategy> LocationStrategy for Recording<S> {
    type Msg = S::Msg;
    type Timer = S::Timer;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        placement: &BTreeMap<MhId, MssId>,
    ) {
        recorded!(self, ctx, self.inner.on_start(ctx, placement));
    }

    fn send_group_message(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        from: MhId,
        msg_id: u64,
    ) {
        self.sent = msg_id + 1;
        recorded!(self, ctx, self.inner.send_group_message(ctx, from, msg_id));
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        at: MssId,
        src: Src,
        msg: S::Msg,
    ) {
        recorded!(self, ctx, self.inner.on_mss_msg(ctx, at, src, msg));
    }

    fn on_mh_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        at: MhId,
        src: Src,
        msg: S::Msg,
    ) {
        recorded!(self, ctx, self.inner.on_mh_msg(ctx, at, src, msg));
    }

    fn on_timer(&mut self, ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>, timer: S::Timer) {
        recorded!(self, ctx, self.inner.on_timer(ctx, timer));
    }

    fn on_member_joined(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        recorded!(self, ctx, self.inner.on_member_joined(ctx, mh, mss, prev));
    }

    fn on_member_left(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        recorded!(self, ctx, self.inner.on_member_left(ctx, mh, mss));
    }

    fn on_member_disconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        recorded!(self, ctx, self.inner.on_member_disconnected(ctx, mh, mss));
    }

    fn on_member_reconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        recorded!(
            self,
            ctx,
            self.inner.on_member_reconnected(ctx, mh, mss, prev)
        );
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, S::Msg, S::Timer>,
        origin: MssId,
        target: MhId,
        msg: S::Msg,
    ) {
        recorded!(
            self,
            ctx,
            self.inner.on_search_failed(ctx, origin, target, msg)
        );
    }
}
