//! **Algorithm L2** — Lamport's mutual exclusion shifted onto the static
//! network (Section 3.1.1, the paper's redesign).
//!
//! The `M` MSSs maintain the request queues and exchange the timestamped
//! `request`/`reply`/`release` messages *among themselves*; a mobile host
//! participates with exactly three wireless messages per execution:
//!
//! 1. `init(h)` to its local MSS, which becomes its proxy and runs Lamport's
//!    algorithm on its behalf (tagging messages with `h`);
//! 2. the `grant-request` delivered to wherever `h` has moved (one search);
//! 3. `release-resource` relayed via `h`'s *current* local MSS back to the
//!    proxy, which then broadcasts `release`.
//!
//! Total cost per execution: `3·C_wireless + C_fixed + C_search +
//! 3(M−1)·C_fixed` — constant in `N`.
//!
//! Disconnection handling follows the paper exactly: if `h` disconnects
//! before the grant arrives, the search fails back to the proxy, which
//! withdraws the request (broadcasting `release`); if `h` disconnects while
//! *holding* the critical section, L2 requires it to reconnect and send
//! `release-resource`, which this implementation does on the reconnect hook.

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use crate::lamport::{order_key, Replica};
use mobidist_clock::Timestamp;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::proto::Src;

/// A queue entry: a request timestamped at its proxy on behalf of an MH.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Timestamp assigned when the proxy received `init`.
    pub ts: Timestamp,
    /// The proxy MSS that owns the request.
    pub proxy: MssId,
    /// The mobile initiator.
    pub mh: MhId,
}

/// L2 protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Msg {
    /// MH→MSS (wireless): begin an execution on my behalf.
    Init,
    /// MSS→MSS: timestamped request tagged with the initiating MH.
    Request(Entry),
    /// MSS→MSS: acknowledgement carrying the replier's clock.
    Reply(Timestamp),
    /// MSS→MSS: the tagged request has been satisfied/withdrawn.
    Release(Timestamp, Entry),
    /// Proxy→MH (searched): you hold the critical section.
    GrantRequest {
        /// The proxy to which `release-resource` must return.
        proxy: MssId,
    },
    /// MH→MSS (wireless): I am done; relay to my proxy.
    ReleaseResource {
        /// The proxy that granted the request.
        proxy: MssId,
        /// The releasing MH.
        mh: MhId,
    },
    /// MSS→proxy (fixed): relayed `release-resource`.
    RelayRelease {
        /// The releasing MH.
        mh: MhId,
    },
}

/// Per-MSS Lamport state.
#[derive(Debug)]
struct Station {
    lamport: Replica<MssId, Entry>,
    /// Requests this MSS proxies, by MH, with grant status.
    owned: IdMap<MhId, (Entry, bool)>,
}

/// Lamport's algorithm at the MSS proxies. See the module docs.
#[derive(Debug)]
pub struct L2 {
    stations: IdMap<MssId, Station>,
    /// MHs that hold the CS but disconnected before releasing; they must
    /// reconnect to send `release-resource`.
    pending_release: IdMap<MhId, MssId>,
}

impl L2 {
    /// Creates an instance for `m` MSSs.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "L2 needs at least one MSS");
        let stations = (0..m as u32)
            .map(|i| {
                (
                    MssId(i),
                    Station {
                        lamport: Replica::new(i),
                        owned: IdMap::new(),
                    },
                )
            })
            .collect();
        L2 {
            stations,
            pending_release: IdMap::new(),
        }
    }

    /// Number of requests currently queued at `mss` (for tests).
    pub fn queue_len(&self, mss: MssId) -> usize {
        self.stations[&mss].lamport.queue.len()
    }

    fn station(&mut self, me: MssId) -> &mut Station {
        self.stations.get_mut(&me).expect("known MSS")
    }

    /// The proxy whose grant `mh` holds: the first station, in ascending id
    /// order, with a granted entry for `mh`.
    fn granting_proxy(&self, mh: MhId) -> Option<MssId> {
        self.stations
            .iter()
            .find_map(|(m, s)| s.owned.get(&mh).and_then(|(_, g)| g.then_some(m)))
    }

    /// Grant check for the head entry when `me` proxies it (Lamport's
    /// condition over the MSS set).
    fn try_grant(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, me: MssId) {
        let m = ctx.num_mss();
        let s = self.station(me);
        let Some(head) = s.lamport.queue.first().copied() else {
            return;
        };
        if head.proxy != me {
            return;
        }
        let Some(&(entry, granted)) = s.owned.get(&head.mh) else {
            return;
        };
        if granted || entry != head {
            return;
        }
        let others = (0..m as u32).map(MssId).filter(|o| *o != me);
        if !s.lamport.heard_after(entry.ts, others) {
            return;
        }
        s.owned.insert(head.mh, (entry, true));
        // Locating the (possibly moved) initiator costs one search.
        ctx.search_send(me, head.mh, L2Msg::GrantRequest { proxy: me });
    }

    /// Proxy-side release: withdraw the entry and broadcast `Release`.
    fn proxy_release(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, proxy: MssId, mh: MhId) {
        let s = self.station(proxy);
        let Some((entry, _)) = s.owned.remove(&mh) else {
            return;
        };
        s.lamport.queue.remove(&entry);
        let ts = s.lamport.clock.tick();
        ctx.broadcast_fixed(proxy, L2Msg::Release(ts, entry));
        self.try_grant(ctx, proxy);
    }
}

impl Station {
    /// Removes `entry` from the queue, and from `owned` when `me` proxies it.
    fn drop_entry(&mut self, me: MssId, entry: Entry) {
        self.lamport.queue.remove(&entry);
        if entry.proxy == me {
            self.owned.remove(&entry.mh);
        }
    }
}

impl MutexAlgorithm for L2 {
    type Msg = L2Msg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "L2"
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, mh: MhId) {
        // The MH's entire contribution: one wireless init.
        let _ = ctx.send_wireless_up(mh, L2Msg::Init);
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, mh: MhId) {
        let Some(proxy) = self.granting_proxy(mh) else {
            return;
        };
        match ctx.send_wireless_up(mh, L2Msg::ReleaseResource { proxy, mh }) {
            Ok(()) => {}
            Err(_) => {
                // Disconnected while holding: the paper requires the MH to
                // reconnect to send release-resource.
                self.pending_release.insert(mh, proxy);
            }
        }
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>,
        at: MssId,
        src: Src,
        msg: L2Msg,
    ) {
        match msg {
            L2Msg::Init => {
                let mh = src.as_mh().expect("init arrives on the uplink");
                // Timestamp the request on behalf of the MH.
                let s = self.station(at);
                let ts = s.lamport.clock.tick();
                let entry = Entry { ts, proxy: at, mh };
                s.lamport.queue.insert(entry);
                s.owned.insert(mh, (entry, false));
                ctx.broadcast_fixed(at, L2Msg::Request(entry));
                self.try_grant(ctx, at);
            }
            L2Msg::Request(entry) => {
                let from = src.as_mss().expect("requests travel MSS to MSS");
                let reply_ts = self.station(at).lamport.request(from, entry.ts, entry);
                ctx.send_fixed(at, from, L2Msg::Reply(reply_ts));
            }
            L2Msg::Reply(ts) => {
                let from = src.as_mss().expect("replies travel MSS to MSS");
                self.station(at).lamport.receive(from, ts);
                self.try_grant(ctx, at);
            }
            L2Msg::Release(ts, entry) => {
                let from = src.as_mss().expect("releases travel MSS to MSS");
                let s = self.station(at);
                s.lamport.receive(from, ts);
                s.drop_entry(at, entry);
                self.try_grant(ctx, at);
            }
            L2Msg::ReleaseResource { proxy, mh } => {
                // Arrived on the uplink at the MH's *current* MSS.
                if proxy == at {
                    self.proxy_release(ctx, proxy, mh);
                } else {
                    ctx.send_fixed(at, proxy, L2Msg::RelayRelease { mh });
                }
            }
            L2Msg::RelayRelease { mh } => {
                self.proxy_release(ctx, at, mh);
            }
            L2Msg::GrantRequest { .. } => {
                unreachable!("grants are delivered to MHs, not MSSs");
            }
        }
    }

    fn on_mh_msg(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, at: MhId, _src: Src, msg: L2Msg) {
        match msg {
            L2Msg::GrantRequest { proxy } => {
                let entry = self.stations[&proxy]
                    .owned
                    .get(&at)
                    .map(|(e, _)| *e)
                    .expect("grant implies an owned entry");
                ctx.grant_with_key(at, order_key(entry.ts));
            }
            other => unreachable!("unexpected message at an MH: {other:?}"),
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>,
        origin: MssId,
        target: MhId,
        msg: L2Msg,
    ) {
        if let L2Msg::GrantRequest { proxy } = msg {
            debug_assert_eq!(origin, proxy);
            // The initiator is unreachable: withdraw its request so the rest
            // of the system makes progress.
            self.proxy_release(ctx, proxy, target);
            ctx.abort(target);
        }
    }

    fn on_mh_reconnected(&mut self, ctx: &mut AlgoCtx<'_, '_, L2Msg, ()>, mh: MhId, _mss: MssId) {
        if let Some(proxy) = self.pending_release.remove(&mh) {
            let _ = ctx.send_wireless_up(mh, L2Msg::ReleaseResource { proxy, mh });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_order_by_timestamp_then_proxy() {
        let a = Entry {
            ts: Timestamp::new(1, 0),
            proxy: MssId(9),
            mh: MhId(0),
        };
        let b = Entry {
            ts: Timestamp::new(2, 0),
            proxy: MssId(0),
            mh: MhId(1),
        };
        let c = Entry {
            ts: Timestamp::new(2, 1),
            proxy: MssId(0),
            mh: MhId(2),
        };
        assert!(a < b, "smaller timestamp wins regardless of proxy");
        assert!(b < c, "process id breaks timestamp ties");
    }

    #[test]
    fn fresh_instance_has_empty_queues() {
        let l2 = L2::new(3);
        for i in 0..3u32 {
            assert_eq!(l2.queue_len(MssId(i)), 0);
        }
        assert_eq!(l2.name(), "L2");
    }

    #[test]
    fn release_goes_to_the_first_granted_proxy_in_ascending_mss_order() {
        let mut l2 = L2::new(4);
        let mh = MhId(5);
        let own = |l2: &mut L2, at: u32, granted: bool| {
            let entry = Entry {
                ts: Timestamp::new(9 - u64::from(at), at),
                proxy: MssId(at),
                mh,
            };
            l2.station(MssId(at)).owned.insert(mh, (entry, granted));
        };
        assert_eq!(l2.granting_proxy(mh), None);
        // An ungranted entry at a lower id is passed over.
        own(&mut l2, 0, false);
        assert_eq!(l2.granting_proxy(mh), None);
        // Two stations hold a granted entry for the same MH: the lower id
        // wins, whichever was inserted first or carries the older timestamp.
        own(&mut l2, 3, true);
        assert_eq!(l2.granting_proxy(mh), Some(MssId(3)));
        own(&mut l2, 1, true);
        assert_eq!(l2.granting_proxy(mh), Some(MssId(1)));
        assert_eq!(l2.granting_proxy(MhId(6)), None, "other MHs hold nothing");
    }

    #[test]
    #[should_panic(expected = "at least one MSS")]
    fn zero_stations_rejected() {
        let _ = L2::new(0);
    }
}
