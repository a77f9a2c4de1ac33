//! **Algorithms R2, R2′ and the token-list variation** — the token ring
//! restructured onto the static network (Section 3.1.2).
//!
//! A single token circulates among the `M` MSSs arranged in a unidirectional
//! ring. Each MSS keeps a *request queue* fed by local MHs over the wireless
//! uplink. When the token arrives, pending requests move to a *grant queue*
//! and are served sequentially: the MSS searches for the requesting MH,
//! lends it the token (`C_search + C_wireless`), and waits for the token to
//! come back (`C_wireless + C_fixed`). When the grant queue empties, the
//! token moves to the next MSS (`C_fixed`).
//!
//! Serving `K` requests in one traversal costs
//! `K(3·C_wireless + C_fixed + C_search) + M·C_fixed` — proportional to the
//! work done, unlike R1's `N(2·C_wireless + C_search)` per traversal.
//!
//! Three admission guards realise the paper's variants:
//!
//! * [`RingGuard::Plain`] (**R2**) — every pending request is served;
//!   an MH that moves ahead of the token can be served up to `N·M` times in
//!   one traversal (throughput over fairness).
//! * [`RingGuard::Counter`] (**R2′**) — the token carries `token-val`,
//!   incremented per traversal; each MH submits its `access-count`, is served
//!   only if `access-count < token-val`, and sets `access-count = token-val`
//!   when it gets the token: at most one access per traversal — unless the
//!   MH lies about its count.
//! * [`RingGuard::TokenList`] — the token carries `⟨MSS, MH⟩` pairs of
//!   services performed this traversal; a request is admitted only if its MH
//!   is absent from the list. Immune to malicious under-reporting.

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use mobidist_net::host::HostSet;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;
use std::collections::VecDeque;

/// Admission guard selecting the R2 variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingGuard {
    /// R2: serve every pending request.
    #[default]
    Plain,
    /// R2′: `access-count < token-val` admission.
    Counter,
    /// Token-list variation: one service per MH per traversal, tamper-proof.
    TokenList,
}

/// The circulating token's state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TokenState {
    /// Traversal counter (R2′).
    pub val: u64,
    /// `⟨MSS, MH⟩` services this traversal (token-list variant).
    pub list: Vec<(MssId, MhId)>,
}

/// R2-family protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum R2Msg {
    /// MH→MSS (wireless): request the token, reporting an access count.
    MhRequest {
        /// The MH's claimed access count (R2′ admission).
        access_count: u64,
    },
    /// MSS→MSS (fixed): the token moves to its ring successor.
    Token(TokenState),
    /// MSS→MH (searched): the token is lent to a requester.
    GrantToken {
        /// The MSS awaiting the token's return.
        granting: MssId,
        /// Token-val at grant time (the MH adopts it as its access count).
        token_val: u64,
    },
    /// MH→MSS (wireless): the token returns from the critical section.
    ReturnToken {
        /// The MSS the token must reach.
        granting: MssId,
    },
    /// MSS→MSS (fixed): relayed token return from a moved MH.
    ReturnRelay {
        /// The MH that finished.
        mh: MhId,
    },
}

/// Per-MSS queues.
#[derive(Debug, Default)]
struct Station {
    request_q: VecDeque<(MhId, u64)>,
    grant_q: VecDeque<(MhId, u64)>,
    has_token: bool,
    serving: Option<MhId>,
}

/// The token ring among the MSSs, in three variants. See the module docs.
#[derive(Debug)]
pub struct R2 {
    guard: RingGuard,
    m: usize,
    stations: Vec<Station>,
    token: TokenState,
    /// True access count per MH (what an honest MH reports).
    access_count: IdMap<MhId, u64>,
    /// MHs that always report an access count of 0 (malice injection).
    liars: HostSet,
    /// Granting MSS for each MH currently holding the token.
    holding: IdMap<MhId, MssId>,
    /// MHs that disconnected while holding; they return the token on
    /// reconnection.
    pending_return: IdMap<MhId, MssId>,
    /// Per MH, `(traversal, services in it)` of its latest service. Exact
    /// as a streak because `token.val` never decreases.
    streak: IdMap<MhId, (u64, u64)>,
    /// Largest streak count so far.
    max_streak: u64,
    /// Section 2's handoff of algorithm-specific data structures: pending
    /// (unadmitted) requests travel with the MH to its new cell.
    request_handoff: bool,
    traversals: u64,
    token_passes: u64,
    minted: bool,
}

impl R2 {
    /// Creates a ring over `m` MSSs with the given admission guard.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize, guard: RingGuard) -> Self {
        assert!(m > 0, "R2 needs at least one MSS");
        R2 {
            guard,
            m,
            stations: (0..m).map(|_| Station::default()).collect(),
            token: TokenState {
                val: 1,
                list: Vec::new(),
            },
            access_count: IdMap::new(),
            liars: HostSet::new(),
            holding: IdMap::new(),
            pending_return: IdMap::new(),
            streak: IdMap::new(),
            max_streak: 0,
            request_handoff: false,
            traversals: 0,
            token_passes: 0,
            minted: false,
        }
    }

    /// Marks `mh` as malicious: it always claims an access count of 0.
    pub fn with_liar(mut self, mh: MhId) -> Self {
        self.liars.insert(mh);
        self
    }

    /// Enables the Section-2 handoff of algorithm state: when an MH with a
    /// pending (not yet admitted) request moves, the request is transferred
    /// to its new local MSS, so the token serves it where the MH actually
    /// is instead of searching from the old cell.
    pub fn with_request_handoff(mut self) -> Self {
        self.request_handoff = true;
        self
    }

    /// Completed traversals of the ring.
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Token transfers between MSSs.
    pub fn token_passes(&self) -> u64 {
        self.token_passes
    }

    /// Maximum number of services a single MH received within one traversal.
    pub fn max_services_per_traversal(&self) -> u64 {
        self.max_streak
    }

    fn successor(&self, of: MssId) -> MssId {
        MssId(((of.index() + 1) % self.m) as u32)
    }

    fn token_arrived(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, at: MssId) {
        if at.index() == 0 && self.minted {
            // Completed one traversal of the ring.
            self.token.val += 1;
            self.traversals += 1;
        }
        self.minted = true;
        if self.guard == RingGuard::TokenList {
            self.token.list.retain(|(m, _)| *m != at);
        }
        // Move admissible requests to the grant queue, in arrival order.
        let (guard, token) = (self.guard, &self.token);
        let st = &mut self.stations[at.index()];
        st.has_token = true;
        let grant_q = &mut st.grant_q;
        st.request_q.retain(|&(mh, ac)| {
            let admit = match guard {
                RingGuard::Plain => true,
                RingGuard::Counter => ac < token.val,
                RingGuard::TokenList => !token.list.iter().any(|(_, h)| *h == mh),
            };
            if admit {
                grant_q.push_back((mh, ac));
            }
            !admit
        });
        self.serve_next(ctx, at);
    }

    fn serve_next(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, at: MssId) {
        let next_grant = self.stations[at.index()].grant_q.pop_front();
        match next_grant {
            Some((mh, _)) => {
                self.stations[at.index()].serving = Some(mh);
                // The MH may have moved since requesting: search for it.
                ctx.search_send(
                    at,
                    mh,
                    R2Msg::GrantToken {
                        granting: at,
                        token_val: self.token.val,
                    },
                );
            }
            None => {
                // Grant queue exhausted: pass the token along the ring.
                let st = &mut self.stations[at.index()];
                st.has_token = false;
                st.serving = None;
                let next = self.successor(at);
                self.token_passes += 1;
                ctx.send_fixed(at, next, R2Msg::Token(self.token.clone()));
            }
        }
    }

    fn token_returned(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, at: MssId, mh: MhId) {
        debug_assert_eq!(self.stations[at.index()].serving, Some(mh));
        self.holding.remove(&mh);
        if self.guard == RingGuard::TokenList {
            self.token.list.push((at, mh));
        }
        let val = self.token.val;
        let streak = self.streak.get_or_insert_with(mh, || (0, 0));
        *streak = (val, if streak.0 == val { streak.1 + 1 } else { 1 });
        self.max_streak = self.max_streak.max(streak.1);
        self.stations[at.index()].serving = None;
        self.serve_next(ctx, at);
    }

    /// Total number of tokens in the system — must always be exactly one
    /// (held by an MSS, lent to an MH, or in flight, never duplicated).
    pub fn stations_with_token(&self) -> usize {
        self.stations.iter().filter(|s| s.has_token).count()
    }
}

impl MutexAlgorithm for R2 {
    type Msg = R2Msg;
    type Timer = ();

    fn name(&self) -> &'static str {
        match self.guard {
            RingGuard::Plain => "R2",
            RingGuard::Counter => "R2'",
            RingGuard::TokenList => "R2-list",
        }
    }

    fn on_start(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>) {
        self.token_arrived(ctx, MssId(0));
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, mh: MhId) {
        let true_count = self.access_count.get(&mh).copied().unwrap_or(0);
        let reported = if self.liars.contains(&mh) {
            0
        } else {
            true_count
        };
        let _ = ctx.send_wireless_up(
            mh,
            R2Msg::MhRequest {
                access_count: reported,
            },
        );
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, mh: MhId) {
        let Some(granting) = self.holding.get(&mh).copied() else {
            return;
        };
        match ctx.send_wireless_up(mh, R2Msg::ReturnToken { granting }) {
            Ok(()) => {}
            Err(_) => {
                // Disconnected while holding the token: must reconnect to
                // return it (the ring stalls meanwhile — by design).
                self.pending_return.insert(mh, granting);
            }
        }
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>,
        at: MssId,
        src: Src,
        msg: R2Msg,
    ) {
        match msg {
            R2Msg::MhRequest { access_count } => {
                let mh = src.as_mh().expect("requests arrive on the uplink");
                self.stations[at.index()]
                    .request_q
                    .push_back((mh, access_count));
            }
            R2Msg::Token(state) => {
                self.token = state;
                self.token_arrived(ctx, at);
            }
            R2Msg::ReturnToken { granting } => {
                let mh = src.as_mh().expect("returns arrive on the uplink");
                if granting == at {
                    self.token_returned(ctx, at, mh);
                } else {
                    // The MH moved before returning: relay over the wire.
                    ctx.send_fixed(at, granting, R2Msg::ReturnRelay { mh });
                }
            }
            R2Msg::ReturnRelay { mh } => {
                self.token_returned(ctx, at, mh);
            }
            R2Msg::GrantToken { .. } => unreachable!("grants are delivered to MHs"),
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, at: MhId, _src: Src, msg: R2Msg) {
        match msg {
            R2Msg::GrantToken {
                granting,
                token_val,
            } => {
                // Adopt the token's traversal counter as the access count.
                self.access_count.insert(at, token_val);
                self.holding.insert(at, granting);
                ctx.grant(at);
            }
            other => unreachable!("unexpected message at an MH: {other:?}"),
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>,
        origin: MssId,
        target: MhId,
        msg: R2Msg,
    ) {
        if let R2Msg::GrantToken { granting, .. } = msg {
            debug_assert_eq!(origin, granting);
            // The requester disconnected: its "disconnected" flag came back
            // with the search; drop the entry and keep serving.
            debug_assert_eq!(self.stations[origin.index()].serving, Some(target));
            self.stations[origin.index()].serving = None;
            ctx.abort(target);
            self.serve_next(ctx, origin);
        }
    }

    fn on_mh_reconnected(&mut self, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, mh: MhId, _mss: MssId) {
        if let Some(granting) = self.pending_return.remove(&mh) {
            let _ = ctx.send_wireless_up(mh, R2Msg::ReturnToken { granting });
        }
    }

    fn on_mh_joined(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>,
        mh: MhId,
        mss: MssId,
        prev: Option<MssId>,
    ) {
        if !self.request_handoff {
            return;
        }
        let Some(p) = prev.filter(|p| *p != mss) else {
            return;
        };
        // Transfer any unadmitted pending request with the handoff.
        let [old, new] = self
            .stations
            .get_disjoint_mut([p.index(), mss.index()])
            .expect("a handoff joins two distinct cells");
        let mut moved = false;
        old.request_q.retain(|&req| {
            let mine = req.0 == mh;
            if mine {
                new.request_q.push_back(req);
                moved = true;
            }
            !mine
        });
        if moved {
            ctx.bump("r2_request_handoffs");
        }
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
    fn successor_wraps() {
        let r = R2::new(3, RingGuard::Plain);
        assert_eq!(r.successor(MssId(0)), MssId(1));
        assert_eq!(r.successor(MssId(2)), MssId(0));
    }

    #[test]
    fn names_reflect_variants() {
        assert_eq!(R2::new(1, RingGuard::Plain).name(), "R2");
        assert_eq!(R2::new(1, RingGuard::Counter).name(), "R2'");
        assert_eq!(R2::new(1, RingGuard::TokenList).name(), "R2-list");
    }

    /// A protocol that ignores everything, so a test can hand R2 a live
    /// kernel context and drive its handlers by hand.
    struct Idle;

    impl Protocol for Idle {
        type Msg = R2Msg;
        type Timer = HarnessTimer<()>;
        fn on_mss_msg(&mut self, _: &mut Ctx<'_, R2Msg, Self::Timer>, _: MssId, _: Src, _: R2Msg) {}
        fn on_mh_msg(&mut self, _: &mut Ctx<'_, R2Msg, Self::Timer>, _: MhId, _: Src, _: R2Msg) {}
    }

    /// One token visit at `at`: `mhs` request there, are granted in order
    /// and each returns the token before the next grant.
    fn visit(r: &mut R2, ctx: &mut AlgoCtx<'_, '_, R2Msg, ()>, at: u32, mhs: &[u32]) {
        let at = MssId(at);
        let queue = &mut r.stations[at.index()].request_q;
        queue.extend(mhs.iter().map(|&mh| (MhId(mh), 0)));
        r.token_arrived(ctx, at);
        for &mh in mhs {
            r.token_returned(ctx, at, MhId(mh));
        }
    }

    #[test]
    fn max_services_counts_per_traversal() {
        let mut r = R2::new(2, RingGuard::Plain);
        let mut sim = Simulation::new(NetworkConfig::new(2, 2), Idle);
        sim.with_ctx(|net, _| {
            let mut effects = Vec::new();
            let ctx = &mut AlgoCtx::new(net, &mut effects);
            assert_eq!(r.max_services_per_traversal(), 0);
            // Traversal 1: mh0 twice at mss0.
            visit(&mut r, ctx, 0, &[0, 0, 1]);
            visit(&mut r, ctx, 1, &[]);
            assert_eq!(r.max_services_per_traversal(), 2);
            // Traversal 2: mh0 once at each MSS — two in this traversal,
            // not four in a row.
            visit(&mut r, ctx, 0, &[0]);
            visit(&mut r, ctx, 1, &[0]);
            assert_eq!(r.max_services_per_traversal(), 2);
            // Traversal 3: mh1 three times.
            visit(&mut r, ctx, 0, &[1, 1, 1]);
            assert_eq!(r.max_services_per_traversal(), 3);
        });
        assert_eq!(r.traversals(), 2);
    }

    #[test]
    fn liars_are_registered() {
        let r = R2::new(2, RingGuard::Counter).with_liar(MhId(3));
        assert!(r.liars.contains(&MhId(3)));
    }

    #[test]
    #[should_panic(expected = "at least one MSS")]
    fn zero_stations_rejected() {
        let _ = R2::new(0, RingGuard::Plain);
    }
}
