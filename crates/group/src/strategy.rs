//! The interface between group-location strategies and the shared workload
//! harness.
//!
//! A [`LocationStrategy`] implements one of Section 4's approaches to
//! delivering *group messages* to a set of mobile hosts: pure search, always
//! inform, or location view. The [`GroupHarness`] drives a message workload
//! while the kernel's mobility process generates moves, and audits delivery
//! (who got each message, misses, duplicates) and cost.

use mobidist_net::config::NetworkConfig;
use mobidist_net::error::NetError;
use mobidist_net::host::{HostSet, MhStatus};
use mobidist_net::ids::{GroupId, IdMap, MhId, MssId};
use mobidist_net::proto::{Ctx, Protocol, Src};
use mobidist_net::rng::SimRng;
use mobidist_net::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Timer payload of the group harness.
#[derive(Debug, Clone)]
pub enum GroupTimer<T> {
    /// The strategy's own timer.
    Algo(T),
    /// Workload: send the next group message.
    SendNext,
}

/// Delivery effects reported by strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving member.
    pub to: MhId,
    /// The group message id.
    pub msg_id: u64,
}

/// Context for strategy callbacks: network operations plus the delivery
/// audit channel.
#[derive(Debug)]
pub struct GroupCtx<'a, 'k, M, T> {
    net: &'a mut Ctx<'k, M, GroupTimer<T>>,
    deliveries: &'a mut Vec<Delivery>,
}

impl<'a, 'k, M: Debug + Clone + 'static, T: Debug + 'static> GroupCtx<'a, 'k, M, T> {
    pub(crate) fn new(
        net: &'a mut Ctx<'k, M, GroupTimer<T>>,
        deliveries: &'a mut Vec<Delivery>,
    ) -> Self {
        GroupCtx { net, deliveries }
    }

    /// Reports that member `to` received group message `msg_id`.
    pub fn deliver(&mut self, to: MhId, msg_id: u64) {
        self.deliveries.push(Delivery { to, msg_id });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        self.net.config()
    }

    /// Number of MSSs.
    pub fn num_mss(&self) -> usize {
        self.net.num_mss()
    }

    /// All MSS ids.
    pub fn mss_ids(&self) -> impl Iterator<Item = MssId> {
        self.net.mss_ids()
    }

    /// Point-to-point fixed-network send (`C_fixed`).
    pub fn send_fixed(&mut self, from: MssId, to: MssId, msg: M) {
        self.net.send_fixed(from, to, msg);
    }

    /// Wireless downlink to a local MH (`C_wireless`).
    ///
    /// # Errors
    ///
    /// [`NetError::NotLocal`] when the MH is not local to `mss`.
    pub fn send_wireless_down(&mut self, mss: MssId, mh: MhId, msg: M) -> Result<(), NetError> {
        self.net.send_wireless_down(mss, mh, msg)
    }

    /// Wireless uplink to the current local MSS (`C_wireless`).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the MH has disconnected.
    pub fn send_wireless_up(&mut self, mh: MhId, msg: M) -> Result<(), NetError> {
        self.net.send_wireless_up(mh, msg)
    }

    /// Cell-wide wireless broadcast (one `C_wireless` charge for all local
    /// MHs). Returns the recipient count.
    pub fn broadcast_cell(&mut self, mss: MssId, msg: M) -> usize {
        self.net.broadcast_cell(mss, msg)
    }

    /// Locate-and-forward (`C_search + C_wireless`).
    pub fn search_send(&mut self, origin: MssId, mh: MhId, msg: M) {
        self.net.search_send(origin, mh, msg);
    }

    /// MH→MH transport (`2·C_wireless + C_search`).
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] when the sender has disconnected.
    pub fn mh_send_to_mh(&mut self, src: MhId, dst: MhId, msg: M) -> Result<(), NetError> {
        self.net.mh_send_to_mh(src, dst, msg)
    }

    /// Schedules a strategy timer.
    pub fn set_timer(&mut self, delay: u64, t: T) {
        self.net.set_timer(delay, GroupTimer::Algo(t));
    }

    /// True when `mh` is local to `mss`.
    pub fn is_local(&self, mss: MssId, mh: MhId) -> bool {
        self.net.is_local(mss, mh)
    }

    /// Connectivity status of `mh`.
    pub fn mh_status(&self, mh: MhId) -> MhStatus {
        self.net.mh_status(mh)
    }

    /// Increments a named ledger counter.
    pub fn bump(&mut self, name: &str) {
        self.net.bump(name);
    }

    /// Adds to a named ledger counter.
    pub fn bump_by(&mut self, name: &str, by: u64) {
        self.net.bump_by(name, by);
    }

    /// Protocol random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.net.rng()
    }

    /// Emits a strategy-level event (e.g.
    /// [`TraceEvent::LvUpdate`](mobidist_net::obs::TraceEvent::LvUpdate))
    /// into the kernel's structured trace stream.
    pub fn emit(&mut self, ev: mobidist_net::obs::TraceEvent) {
        self.net.emit(ev);
    }
}

/// A strategy for delivering group messages to mobile members (Section 4).
pub trait LocationStrategy: Sized + 'static {
    /// Message payload. `Clone` lets the kernel's broadcast fan-outs share
    /// one payload per arrival tick.
    type Msg: Debug + Clone + 'static;
    /// Timer payload.
    type Timer: Debug + 'static;

    /// Short display name.
    fn name(&self) -> &'static str;

    /// One-time initialisation with the initial member placement
    /// (member → initial cell).
    fn on_start(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        placement: &BTreeMap<MhId, MssId>,
    ) {
        let _ = (ctx, placement);
    }

    /// Member `from` sends group message `msg_id` to the whole group.
    /// Only called while `from` is connected.
    fn send_group_message(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        from: MhId,
        msg_id: u64,
    );

    /// A message arrived at a fixed host.
    fn on_mss_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        at: MssId,
        src: Src,
        msg: Self::Msg,
    );

    /// A message arrived at a mobile host.
    fn on_mh_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        at: MhId,
        src: Src,
        msg: Self::Msg,
    );

    /// A strategy timer fired.
    fn on_timer(&mut self, ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        let _ = (ctx, timer);
    }

    /// A member joined a new cell (`prev` supplied with the join).
    fn on_member_joined(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let _ = (ctx, mh, mss, prev);
    }

    /// A member left its cell.
    fn on_member_left(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        let _ = (ctx, mh, mss);
    }

    /// A member disconnected.
    fn on_member_disconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        let _ = (ctx, mh, mss);
    }

    /// A member reconnected.
    fn on_member_reconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        let _ = (ctx, mh, mss, prev);
    }

    /// A search bounced off a disconnected member.
    fn on_search_failed(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, Self::Msg, Self::Timer>,
        origin: MssId,
        target: MhId,
        msg: Self::Msg,
    ) {
        let _ = (ctx, origin, target, msg);
    }
}

/// Group-message workload parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupWorkload {
    /// The group being exercised.
    pub group: GroupId,
    /// Members of the group.
    pub members: Vec<MhId>,
    /// Total group messages to send (`MSG`).
    pub messages: usize,
    /// Mean interval between group messages.
    pub mean_interval: u64,
}

impl mobidist_net::fingerprint::CanonHash for GroupWorkload {
    fn canon_hash(&self, h: &mut mobidist_net::fingerprint::CanonHasher) {
        // Destructured so a new workload knob cannot silently escape the
        // run-cache fingerprint.
        let GroupWorkload {
            group,
            members,
            messages,
            mean_interval,
        } = self;
        group.canon_hash(h);
        members.canon_hash(h);
        messages.canon_hash(h);
        mean_interval.canon_hash(h);
    }
}

impl GroupWorkload {
    /// A workload over the given members.
    pub fn new(members: Vec<MhId>, messages: usize, mean_interval: u64) -> Self {
        GroupWorkload {
            group: GroupId(0),
            members,
            messages,
            mean_interval,
        }
    }
}

/// Delivery audit and cost summary of one group workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// Group messages sent (`MSG`).
    pub sent: u64,
    /// Member moves observed during the run (`MOB`).
    pub member_moves: u64,
    /// Deliveries expected (connected members at send time, minus sender).
    pub expected: u64,
    /// Deliveries that happened.
    pub delivered: u64,
    /// Expected deliveries that never happened.
    pub missed: u64,
    /// Deliveries of a message to a member more than once.
    pub duplicates: u64,
    /// Deliveries to members that were not expected (e.g. reconnected late).
    pub unexpected: u64,
}

impl GroupReport {
    /// Fraction of expected deliveries that arrived.
    pub fn delivery_ratio(&self) -> f64 {
        if self.expected == 0 {
            return 1.0;
        }
        self.delivered.min(self.expected) as f64 / self.expected as f64
    }

    /// The workload's mobility-to-message ratio `MOB/MSG`.
    pub fn mobility_ratio(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.member_moves as f64 / self.sent as f64
    }
}

/// True when the per-member delivery sequences are mutually consistent
/// with one global total order: for every pair of messages delivered to
/// two members, both saw them in the same relative order.
///
/// This is the "message ordering" semantics of group communication the
/// paper names in Section 4. Sequencer-based delivery (the exactly-once
/// extension) guarantees it; the search- and directory-based strategies do
/// not.
///
/// # Examples
///
/// ```
/// use mobidist_group::strategy::sequences_consistent;
/// use mobidist_net::ids::{IdMap, MhId};
///
/// let mut seqs = IdMap::new();
/// seqs.insert(MhId(0), vec![1, 2, 3]);
/// seqs.insert(MhId(1), vec![2, 3]); // a subsequence: fine
/// assert!(sequences_consistent(&seqs));
/// seqs.insert(MhId(2), vec![3, 2]); // contradicts the others
/// assert!(!sequences_consistent(&seqs));
/// ```
pub fn sequences_consistent(seqs: &IdMap<MhId, Vec<u64>>) -> bool {
    // rank[m][msg] = position of msg in m's sequence.
    let ranks: Vec<BTreeMap<u64, usize>> = seqs
        .values()
        .map(|s| s.iter().enumerate().map(|(i, m)| (*m, i)).collect())
        .collect();
    for (i, a) in ranks.iter().enumerate() {
        for b in ranks.iter().skip(i + 1) {
            let common: Vec<u64> = a.keys().filter(|k| b.contains_key(k)).copied().collect();
            for (x, xs) in common.iter().enumerate() {
                for ys in common.iter().skip(x + 1) {
                    let in_a = a[xs] < a[ys];
                    let in_b = b[xs] < b[ys];
                    if in_a != in_b {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// Workload + audit harness around a [`LocationStrategy`].
#[derive(Debug)]
pub struct GroupHarness<S: LocationStrategy> {
    strategy: S,
    wl: GroupWorkload,
    member_set: HostSet,
    deliveries: Vec<Delivery>,
    /// msg_id → expected recipients at send time.
    expected: BTreeMap<u64, HostSet>,
    /// msg_id → actual recipients (with duplicate count).
    received: BTreeMap<u64, IdMap<MhId, u64>>,
    /// Per-member delivery order (first deliveries only).
    sequences: IdMap<MhId, Vec<u64>>,
    next_msg: u64,
    member_moves: u64,
    sender_cursor: usize,
}

impl<S: LocationStrategy> GroupHarness<S> {
    /// Wraps `strategy` under workload `wl`.
    pub fn new(strategy: S, wl: GroupWorkload) -> Self {
        let member_set = wl.members.iter().copied().collect();
        GroupHarness {
            strategy,
            wl,
            member_set,
            deliveries: Vec::new(),
            expected: BTreeMap::new(),
            received: BTreeMap::new(),
            sequences: IdMap::new(),
            next_msg: 0,
            member_moves: 0,
            sender_cursor: 0,
        }
    }

    /// Per-member delivery sequences (first delivery of each message).
    pub fn delivery_sequences(&self) -> &IdMap<MhId, Vec<u64>> {
        &self.sequences
    }

    /// True when all members saw common messages in the same relative
    /// order (see [`sequences_consistent`]).
    pub fn total_order_consistent(&self) -> bool {
        sequences_consistent(&self.sequences)
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// Builds the delivery/cost report.
    pub fn report(&self) -> GroupReport {
        let mut delivered = 0;
        let mut missed = 0;
        let mut duplicates = 0;
        let mut unexpected = 0;
        let mut expected_total = 0;
        for (msg, exp) in &self.expected {
            let got = self.received.get(msg);
            expected_total += exp.len() as u64;
            for m in exp {
                match got.and_then(|g| g.get(&m)) {
                    None => missed += 1,
                    Some(n) => {
                        delivered += 1;
                        duplicates += n - 1;
                    }
                }
            }
            if let Some(g) = got {
                for (m, n) in g.iter() {
                    if !exp.contains(&m) {
                        unexpected += n;
                    }
                }
            }
        }
        GroupReport {
            sent: self.next_msg,
            member_moves: self.member_moves,
            expected: expected_total,
            delivered,
            missed,
            duplicates,
            unexpected,
        }
    }

    fn apply_deliveries(&mut self) {
        for d in self.deliveries.drain(..) {
            let count = self
                .received
                .entry(d.msg_id)
                .or_default()
                .get_or_insert_with(d.to, || 0);
            *count += 1;
            if *count == 1 {
                self.sequences
                    .get_or_insert_with(d.to, Vec::new)
                    .push(d.msg_id);
            }
        }
    }

    fn with_strategy(
        &mut self,
        ctx: &mut Ctx<'_, S::Msg, GroupTimer<S::Timer>>,
        f: impl FnOnce(&mut S, &mut GroupCtx<'_, '_, S::Msg, S::Timer>),
    ) {
        {
            let mut gctx = GroupCtx::new(ctx, &mut self.deliveries);
            f(&mut self.strategy, &mut gctx);
        }
        self.apply_deliveries();
    }

    fn schedule_send(&self, ctx: &mut Ctx<'_, S::Msg, GroupTimer<S::Timer>>) {
        let d = ctx.rng().exp_delay(self.wl.mean_interval.max(1));
        ctx.set_timer(d, GroupTimer::SendNext);
    }
}

impl<S: LocationStrategy> Protocol for GroupHarness<S> {
    type Msg = S::Msg;
    type Timer = GroupTimer<S::Timer>;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let placement: BTreeMap<MhId, MssId> = self
            .wl
            .members
            .iter()
            .filter_map(|m| ctx.current_cell(*m).map(|c| (*m, c)))
            .collect();
        self.with_strategy(ctx, |s, gctx| s.on_start(gctx, &placement));
        if self.wl.messages > 0 {
            self.schedule_send(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer) {
        match timer {
            GroupTimer::Algo(t) => self.with_strategy(ctx, |s, gctx| s.on_timer(gctx, t)),
            GroupTimer::SendNext => {
                if self.next_msg as usize >= self.wl.messages {
                    return;
                }
                // Round-robin through members to find a connected sender.
                let n = self.wl.members.len();
                let mut sender = None;
                for i in 0..n {
                    let cand = self.wl.members[(self.sender_cursor + i) % n];
                    if ctx.mh_status(cand) == MhStatus::Connected {
                        sender = Some(cand);
                        self.sender_cursor = (self.sender_cursor + i + 1) % n;
                        break;
                    }
                }
                let Some(sender) = sender else {
                    // Nobody can send right now; retry shortly.
                    self.schedule_send(ctx);
                    return;
                };
                let msg_id = self.next_msg;
                self.next_msg += 1;
                // Expected recipients: connected members at send time,
                // excluding the sender (the paper's accounting footnote
                // disregards in-transit moves; we *count* them as misses).
                let exp: HostSet = self
                    .wl
                    .members
                    .iter()
                    .copied()
                    .filter(|m| *m != sender && ctx.mh_status(*m) == MhStatus::Connected)
                    .collect();
                self.expected.insert(msg_id, exp);
                self.with_strategy(ctx, |s, gctx| s.send_group_message(gctx, sender, msg_id));
                if (self.next_msg as usize) < self.wl.messages {
                    self.schedule_send(ctx);
                }
            }
        }
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MssId,
        src: Src,
        msg: Self::Msg,
    ) {
        self.with_strategy(ctx, |s, gctx| s.on_mss_msg(gctx, at, src, msg));
    }

    fn on_mh_msg(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        at: MhId,
        src: Src,
        msg: Self::Msg,
    ) {
        self.with_strategy(ctx, |s, gctx| s.on_mh_msg(gctx, at, src, msg));
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        if self.member_set.contains(&mh) {
            self.member_moves += 1;
            self.with_strategy(ctx, |s, gctx| s.on_member_joined(gctx, mh, mss, prev));
        }
    }

    fn on_mh_left(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, mh: MhId, mss: MssId) {
        if self.member_set.contains(&mh) {
            self.with_strategy(ctx, |s, gctx| s.on_member_left(gctx, mh, mss));
        }
    }

    fn on_mh_disconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
    ) {
        if self.member_set.contains(&mh) {
            self.with_strategy(ctx, |s, gctx| s.on_member_disconnected(gctx, mh, mss));
        }
    }

    fn on_mh_reconnected(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        if self.member_set.contains(&mh) {
            self.with_strategy(ctx, |s, gctx| s.on_member_reconnected(gctx, mh, mss, prev));
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        origin: MssId,
        target: MhId,
        msg: Self::Msg,
    ) {
        self.with_strategy(ctx, |s, gctx| s.on_search_failed(gctx, origin, target, msg));
    }
}
