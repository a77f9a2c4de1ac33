//! **Location view** (Section 4.3): group location kept on the static
//! network, at cell granularity.
//!
//! For a group `G`, the *location view* `LV(G)` is the set of MSSs that have
//! at least one member in their cell. Each MSS in the view keeps a copy of
//! `LV(G)` and the list of local members; a designated *coordinator* MSS
//! serialises view changes so every copy applies updates in the same order
//! (the static network's FIFO channels make this sufficient).
//!
//! Only *significant* moves change the view: a member entering a cell
//! outside `LV(G)`, or the last member leaving a cell in `LV(G)`. The
//! update protocol is the paper's: the new MSS `M` (told the previous MSS
//! `M'` by the join's handoff) asks `M'` to notify the coordinator; `M'`
//! sends a combined add/delete request; the coordinator forwards incremental
//! updates to the view and a full copy to a newly added `M` — at most
//! `(|LV| + 3) · C_fixed` per significant move.
//!
//! A group message costs one wireless uplink, `|LV| − 1` fixed hops, and one
//! wireless downlink per recipient: the static-network message count is
//! proportional to `|LV(G)|`, not `|G|`, and the *effective* cost depends
//! only on the significant fraction `f` of the mobility-to-message ratio.

use crate::strategy::{GroupCtx, LocationStrategy};
use mobidist_net::host::HostSet;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::BTreeMap;

/// Location-view protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LvMsg {
    /// Uplink: a member submits a group message.
    GroupSend {
        /// The group message id.
        msg_id: u64,
    },
    /// Fixed: fan-out of a group message to a view MSS.
    GroupFwd {
        /// The group message id.
        msg_id: u64,
        /// The original sender (never delivered back to itself).
        sender: MhId,
    },
    /// Fixed: a cell without a view copy relays the send via the
    /// coordinator (transient, while its own add is still propagating).
    RelayViaCoord {
        /// The group message id.
        msg_id: u64,
        /// The original sender.
        sender: MhId,
        /// The cell the send came from (receives the fan-out too).
        origin: MssId,
    },
    /// Downlink: deliver to a local member.
    GroupDeliver {
        /// The group message id.
        msg_id: u64,
    },
    /// Fixed, new MSS → previous MSS: a member arrived here; decide whether
    /// the coordinator must be told (the paper's handoff step).
    HandoffNotify {
        /// The member that moved.
        mh: MhId,
        /// The cell it moved into.
        new_mss: MssId,
    },
    /// Fixed, previous MSS → coordinator: combined add/delete request.
    ViewChange {
        /// Cell to add to the view, if any.
        add: Option<MssId>,
        /// Cell to delete from the view, if any.
        del: Option<MssId>,
    },
    /// Fixed, coordinator → newly added MSS: the latest full view.
    ViewCopy {
        /// The view contents.
        view: Vec<MssId>,
    },
    /// Fixed, coordinator → view members: incremental addition.
    ViewAdd {
        /// The added cell.
        mss: MssId,
    },
    /// Fixed, coordinator → view members: incremental deletion.
    ViewDel {
        /// The removed cell.
        mss: MssId,
    },
}

/// The location-view strategy. See the module docs.
#[derive(Debug)]
pub struct LocationView {
    members: HostSet,
    coordinator: MssId,
    /// The coordinator's master copy of LV(G).
    master: HostSet<MssId>,
    /// Per-MSS copies of LV(G) (present only at view members… and the
    /// coordinator, which always tracks the master).
    copies: IdMap<MssId, HostSet<MssId>>,
    /// Group members local to each cell (strategy-side bookkeeping fed by
    /// the join/leave hooks — the MSS "list of local MHs that belong to G").
    local_members: IdMap<MssId, HostSet>,
    /// Largest view size observed.
    max_view: usize,
    /// Significant moves (view actually changed).
    significant: u64,
    /// All member moves seen.
    moves: u64,
}

impl LocationView {
    /// Creates the strategy with the given coordinator MSS.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<MhId>, coordinator: MssId) -> Self {
        assert!(!members.is_empty(), "a group needs members");
        LocationView {
            members: members.into_iter().collect(),
            coordinator,
            master: HostSet::new(),
            copies: IdMap::new(),
            local_members: IdMap::new(),
            max_view: 0,
            significant: 0,
            moves: 0,
        }
    }

    /// Current master view (coordinator's copy).
    pub fn view(&self) -> &HostSet<MssId> {
        &self.master
    }

    /// Largest view size observed during the run (`|LV(G)|max`).
    pub fn max_view_size(&self) -> usize {
        self.max_view
    }

    /// Member moves that changed the view.
    pub fn significant_moves(&self) -> u64 {
        self.significant
    }

    /// All member moves observed.
    pub fn member_moves(&self) -> u64 {
        self.moves
    }

    /// Measured significant fraction `f`.
    pub fn significant_fraction(&self) -> f64 {
        if self.moves == 0 {
            return 0.0;
        }
        self.significant as f64 / self.moves as f64
    }

    /// True when every view copy matches the master and the master matches
    /// the cells that actually host members. Only meaningful at quiescence.
    pub fn is_consistent(&self) -> bool {
        let occupied: HostSet<MssId> = self
            .local_members
            .iter()
            .filter(|(_, ms)| !ms.is_empty())
            .map(|(m, _)| m)
            .collect();
        if occupied != self.master {
            return false;
        }
        self.master
            .iter()
            .all(|m| self.copies.get(&m).is_some_and(|c| *c == self.master))
    }

    fn deliver_local(
        &self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        at: MssId,
        msg_id: u64,
        sender: MhId,
    ) {
        for mh in self.local_members.get(&at).into_iter().flatten() {
            if mh != sender {
                let _ = ctx.send_wireless_down(at, mh, LvMsg::GroupDeliver { msg_id });
            }
        }
    }

    fn fan_out(
        &self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        from_mss: MssId,
        msg_id: u64,
        sender: MhId,
    ) {
        for mss in self.copies.get(&from_mss).into_iter().flatten() {
            if mss == from_mss {
                self.deliver_local(ctx, mss, msg_id, sender);
            } else {
                ctx.send_fixed(from_mss, mss, LvMsg::GroupFwd { msg_id, sender });
            }
        }
    }

    fn coordinator_apply(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        add: Option<MssId>,
        del: Option<MssId>,
    ) {
        let at = self.coordinator;
        if let Some(a) = add {
            if !self.master.contains(&a) {
                self.significant += 1;
                ctx.bump("lv_significant_adds");
                ctx.emit(mobidist_net::obs::TraceEvent::LvUpdate {
                    cell: a,
                    added: true,
                });
                // Incremental update to current members, full copy to the
                // newcomer.
                for m in &self.master {
                    if m != a {
                        ctx.send_fixed(at, m, LvMsg::ViewAdd { mss: a });
                        ctx.bump("lv_update_msgs");
                    }
                }
                self.master.insert(a);
                ctx.send_fixed(
                    at,
                    a,
                    LvMsg::ViewCopy {
                        view: self.master.iter().collect(),
                    },
                );
                ctx.bump("lv_update_msgs");
                self.max_view = self.max_view.max(self.master.len());
            }
        }
        if let Some(d) = del {
            if self.master.contains(&d) && self.local_members.get(&d).is_none_or(|s| s.is_empty()) {
                self.significant += 1;
                ctx.bump("lv_significant_dels");
                ctx.emit(mobidist_net::obs::TraceEvent::LvUpdate {
                    cell: d,
                    added: false,
                });
                self.master.remove(&d);
                for m in self.master.iter().chain([d]) {
                    ctx.send_fixed(at, m, LvMsg::ViewDel { mss: d });
                    ctx.bump("lv_update_msgs");
                }
            }
        }
        // Keep the coordinator's own copy current when it is a view member.
        if self.copies.contains_key(&at) || self.master.contains(&at) {
            self.copies.insert(at, self.master.clone());
        }
    }

    /// Handles a member arriving at `mss` (join or reconnect).
    fn member_arrived(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.moves += 1;
        self.local_members
            .get_or_insert_with(mss, HostSet::new)
            .insert(mh);
        match prev {
            Some(p) if p != mss => {
                // Paper protocol: M asks M' to notify the coordinator.
                ctx.send_fixed(mss, p, LvMsg::HandoffNotify { mh, new_mss: mss });
                ctx.bump("lv_update_msgs");
            }
            Some(_) => {
                // Returned to the same cell: nothing can have changed.
            }
            None => {
                // No handoff information: conservatively ask the coordinator
                // to add this cell (it ignores no-ops).
                ctx.send_fixed(
                    mss,
                    self.coordinator,
                    LvMsg::ViewChange {
                        add: Some(mss),
                        del: None,
                    },
                );
                ctx.bump("lv_update_msgs");
            }
        }
    }
}

impl LocationStrategy for LocationView {
    type Msg = LvMsg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "location-view"
    }

    fn on_start(
        &mut self,
        _ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        placement: &BTreeMap<MhId, MssId>,
    ) {
        // Bootstrap: the initial view is distributed out of band.
        for (mh, mss) in placement {
            self.local_members
                .get_or_insert_with(*mss, HostSet::new)
                .insert(*mh);
            self.master.insert(*mss);
        }
        for mss in &self.master {
            self.copies.insert(mss, self.master.clone());
        }
        self.copies.insert(self.coordinator, self.master.clone());
        self.max_view = self.master.len();
    }

    fn send_group_message(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        from: MhId,
        msg_id: u64,
    ) {
        let _ = ctx.send_wireless_up(from, LvMsg::GroupSend { msg_id });
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        at: MssId,
        src: Src,
        msg: LvMsg,
    ) {
        match msg {
            LvMsg::GroupSend { msg_id } => {
                let sender = src.as_mh().expect("group sends arrive on the uplink");
                if self.copies.contains_key(&at) {
                    self.fan_out(ctx, at, msg_id, sender);
                } else {
                    // Transient: our own add hasn't reached us yet. Relay
                    // through the coordinator, which knows the master view.
                    ctx.bump("lv_relay_via_coord");
                    ctx.send_fixed(
                        at,
                        self.coordinator,
                        LvMsg::RelayViaCoord {
                            msg_id,
                            sender,
                            origin: at,
                        },
                    );
                }
            }
            LvMsg::RelayViaCoord {
                msg_id,
                sender,
                origin,
            } => {
                let mut targets = self.master.clone();
                targets.insert(origin);
                for mss in &targets {
                    if mss == at {
                        self.deliver_local(ctx, at, msg_id, sender);
                    } else {
                        ctx.send_fixed(at, mss, LvMsg::GroupFwd { msg_id, sender });
                    }
                }
            }
            LvMsg::GroupFwd { msg_id, sender } => {
                self.deliver_local(ctx, at, msg_id, sender);
            }
            LvMsg::HandoffNotify { mh, new_mss } => {
                // We are M': decide what the coordinator must change.
                let _ = mh;
                let my_view = self.copies.get(&at);
                let add = match my_view {
                    Some(v) if v.contains(&new_mss) => None,
                    _ => Some(new_mss),
                };
                let del = if self.local_members.get(&at).is_none_or(|s| s.is_empty()) {
                    Some(at)
                } else {
                    None
                };
                if add.is_some() || del.is_some() {
                    ctx.send_fixed(at, self.coordinator, LvMsg::ViewChange { add, del });
                    ctx.bump("lv_update_msgs");
                }
            }
            LvMsg::ViewChange { add, del } => {
                debug_assert_eq!(at, self.coordinator);
                self.coordinator_apply(ctx, add, del);
            }
            LvMsg::ViewCopy { view } => {
                self.copies.insert(at, view.into_iter().collect());
            }
            LvMsg::ViewAdd { mss } => {
                if let Some(c) = self.copies.get_mut(&at) {
                    c.insert(mss);
                }
            }
            LvMsg::ViewDel { mss } => {
                if mss == at {
                    self.copies.remove(&at);
                } else if let Some(c) = self.copies.get_mut(&at) {
                    c.remove(&mss);
                }
            }
            LvMsg::GroupDeliver { .. } => unreachable!("deliveries terminate at MHs"),
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut GroupCtx<'_, '_, LvMsg, ()>, at: MhId, _: Src, msg: LvMsg) {
        let LvMsg::GroupDeliver { msg_id } = msg else {
            unreachable!("MHs only receive deliveries");
        };
        // Downlinks go to local members other than the sender only.
        debug_assert!(self.members.contains(&at), "{at:?} is not a member");
        ctx.deliver(at, msg_id);
    }

    fn on_member_joined(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.member_arrived(ctx, mh, mss, prev);
    }

    fn on_member_left(&mut self, _ctx: &mut GroupCtx<'_, '_, LvMsg, ()>, mh: MhId, mss: MssId) {
        if let Some(s) = self.local_members.get_mut(&mss) {
            s.remove(&mh);
        }
    }

    fn on_member_disconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        mh: MhId,
        mss: MssId,
    ) {
        if let Some(s) = self.local_members.get_mut(&mss) {
            s.remove(&mh);
        }
        // The disconnection cell can tell immediately whether it emptied.
        if self.local_members.get(&mss).is_none_or(|s| s.is_empty())
            && self.copies.contains_key(&mss)
        {
            ctx.send_fixed(
                mss,
                self.coordinator,
                LvMsg::ViewChange {
                    add: None,
                    del: Some(mss),
                },
            );
            ctx.bump("lv_update_msgs");
        }
    }

    fn on_member_reconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, LvMsg, ()>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        self.member_arrived(ctx, mh, mss, prev);
    }
}
