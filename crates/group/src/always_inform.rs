//! **Always inform** (Section 4.2): every member maintains a location
//! directory.
//!
//! Each member MH keeps `LD(G)`, a map from every other member to that
//! member's last announced MSS. Group messages go point-to-point to the
//! *recorded* location — one wireless uplink, one fixed hop, one wireless
//! downlink per member: `(|G|−1)(2·C_wireless + C_fixed)`. After every move
//! a member sends a *location update* to each member at its recorded
//! location — the same cost again, so the effective per-message cost is
//! `(1 + MOB/MSG)(|G|−1)(2·C_wireless + C_fixed)`: cheap sends, but cost
//! grows with the mobility-to-message ratio.
//!
//! When a recorded location is stale (the target moved after the last
//! update reached us), the paper's accounting footnote "disregards" the
//! in-transit case; this implementation falls back to a search from the
//! stale MSS, counted in `ai_stale_fallbacks`.

use crate::strategy::{GroupCtx, LocationStrategy};
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::BTreeMap;

/// Always-inform protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AiMsg {
    /// Uplink: route `inner` to `dest`, believed to be at `dest_mss`.
    Route {
        /// Final recipient.
        dest: MhId,
        /// Recipient's recorded location.
        dest_mss: MssId,
        /// The payload to deliver.
        inner: AiPayload,
    },
    /// Fixed hop carrying the payload to the recorded MSS.
    Forward {
        /// Final recipient.
        dest: MhId,
        /// The payload to deliver.
        inner: AiPayload,
    },
    /// Downlink delivery to the member.
    Deliver {
        /// The payload.
        inner: AiPayload,
    },
}

/// The application-visible payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AiPayload {
    /// A group message.
    Group {
        /// The group message id.
        msg_id: u64,
    },
    /// A location update: `who` is now at `now_at`.
    LocationUpdate {
        /// The member that moved.
        who: MhId,
        /// Its new cell.
        now_at: MssId,
    },
}

/// The always-inform strategy. See the module docs.
#[derive(Debug)]
pub struct AlwaysInform {
    members: Vec<MhId>,
    /// Per-member location directory: `ld[h]` is h's copy of LD(G).
    ld: IdMap<MhId, IdMap<MhId, MssId>>,
}

impl AlwaysInform {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<MhId>) -> Self {
        assert!(!members.is_empty(), "a group needs members");
        AlwaysInform {
            members,
            ld: IdMap::new(),
        }
    }

    /// The location `owner` has recorded for `target` (test aid).
    pub fn recorded_location(&self, owner: MhId, target: MhId) -> Option<MssId> {
        self.ld.get(&owner).and_then(|d| d.get(&target)).copied()
    }

    /// Sends `inner` from `from` to every other member per the directory.
    fn fan_out(&self, ctx: &mut GroupCtx<'_, '_, AiMsg, ()>, from: MhId, inner: AiPayload) {
        let dir = self.ld.get(&from);
        for &m in &self.members {
            if m == from {
                continue;
            }
            // The paper charges 2·C_w + C_f per member copy: a wireless
            // uplink per copy, one fixed hop, one wireless downlink.
            let dest_mss = dir.and_then(|d| d.get(&m)).copied().unwrap_or(MssId(0));
            let _ = ctx.send_wireless_up(
                from,
                AiMsg::Route {
                    dest: m,
                    dest_mss,
                    inner,
                },
            );
        }
    }
}

impl LocationStrategy for AlwaysInform {
    type Msg = AiMsg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "always-inform"
    }

    fn on_start(
        &mut self,
        _ctx: &mut GroupCtx<'_, '_, AiMsg, ()>,
        placement: &BTreeMap<MhId, MssId>,
    ) {
        // Bootstrap: every member knows the initial location of every other.
        let placement: IdMap<MhId, MssId> = placement.iter().map(|(m, c)| (*m, *c)).collect();
        for owner in &self.members {
            self.ld.insert(*owner, placement.clone());
        }
    }

    fn send_group_message(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, AiMsg, ()>,
        from: MhId,
        msg_id: u64,
    ) {
        self.fan_out(ctx, from, AiPayload::Group { msg_id });
    }

    fn on_member_joined(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, AiMsg, ()>,
        mh: MhId,
        mss: MssId,
        _prev: Option<MssId>,
    ) {
        // Update own directory entry, then inform every member.
        self.ld.get_or_insert_with(mh, IdMap::new).insert(mh, mss);
        ctx.bump("ai_location_updates");
        self.fan_out(
            ctx,
            mh,
            AiPayload::LocationUpdate {
                who: mh,
                now_at: mss,
            },
        );
    }

    fn on_member_reconnected(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, AiMsg, ()>,
        mh: MhId,
        mss: MssId,
        _prev: Option<MssId>,
    ) {
        self.ld.get_or_insert_with(mh, IdMap::new).insert(mh, mss);
        ctx.bump("ai_location_updates");
        self.fan_out(
            ctx,
            mh,
            AiPayload::LocationUpdate {
                who: mh,
                now_at: mss,
            },
        );
    }

    fn on_mss_msg(&mut self, ctx: &mut GroupCtx<'_, '_, AiMsg, ()>, at: MssId, _: Src, msg: AiMsg) {
        match msg {
            AiMsg::Route {
                dest,
                dest_mss,
                inner,
            } => {
                if dest_mss == at {
                    // Recorded location is this very cell.
                    self.on_mss_msg(ctx, at, Src::Mss(at), AiMsg::Forward { dest, inner });
                } else {
                    ctx.send_fixed(at, dest_mss, AiMsg::Forward { dest, inner });
                }
            }
            AiMsg::Forward { dest, inner } => {
                if ctx.is_local(at, dest) {
                    let _ = ctx.send_wireless_down(at, dest, AiMsg::Deliver { inner });
                } else {
                    // Stale directory entry: search from here.
                    ctx.bump("ai_stale_fallbacks");
                    ctx.search_send(at, dest, AiMsg::Deliver { inner });
                }
            }
            AiMsg::Deliver { .. } => unreachable!("deliveries terminate at MHs"),
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut GroupCtx<'_, '_, AiMsg, ()>, at: MhId, _: Src, msg: AiMsg) {
        let AiMsg::Deliver { inner } = msg else {
            unreachable!("MHs only receive deliveries");
        };
        match inner {
            AiPayload::Group { msg_id } => ctx.deliver(at, msg_id),
            AiPayload::LocationUpdate { who, now_at } => {
                self.ld
                    .get_or_insert_with(at, IdMap::new)
                    .insert(who, now_at);
            }
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut GroupCtx<'_, '_, AiMsg, ()>,
        _origin: MssId,
        _target: MhId,
        _msg: AiMsg,
    ) {
        ctx.bump("ai_undeliverable");
    }
}
