//! **Algorithm L2C** — L2 with *flat combining* at the MSS proxies.
//!
//! L2 already moves Lamport's queue machinery onto the fixed network, but it
//! still pays one full Lamport exchange (`3(M−1)` fixed messages) and three
//! wireless messages *per critical-section execution*. Under heavy traffic
//! that is the bottleneck — and it is exactly the situation flat combining
//! was invented for: a combiner thread collects every pending operation on a
//! shared structure and applies the whole batch under one lock acquisition.
//!
//! L2C applies that idea to the paper's "push work to the static network"
//! principle. Each MSS is a *combiner* for its cell:
//!
//! 1. An MH ships its critical-section operation with a single wireless
//!    `init` to its local MSS and is done transmitting — the operation
//!    executes *at the proxy*, so neither the grant nor the release crosses
//!    the wireless hop (flat-combining semantics: the CS is an operation on
//!    shared state, applied by whoever holds the lock).
//! 2. The MSS keeps a FIFO of collected operations. At most one *combined*
//!    entry per MSS is in the Lamport queue at a time; when the entry is
//!    granted, the proxy drains everything collected so far into one batch —
//!    the combining window is the queueing delay, so batches grow exactly
//!    when contention does — and serves the batch in arrival order under the
//!    single acquisition.
//! 3. When the batch finishes, results for members still in the cell are
//!    delivered with **one** cell broadcast (one `C_wireless` charge
//!    regardless of batch size); members that moved away get a searched
//!    forward each (the Section 5 proxy obligation). One `release`
//!    broadcast closes the batch, and a [`TraceEvent::CombineBatch`] records
//!    its size.
//!
//! Steady-state wireless cost per execution is therefore `(k + 1)/k` for
//! batch size `k` — against L2's constant 3 — and the `3(M−1)`-fixed-message
//! Lamport exchange is amortized over the whole batch
//! (`mobidist_cost::l2c_batch_cost` gives the closed form).
//!
//! Mutual exclusion and ordering are inherited from Lamport's argument over
//! the combined entries (FIFO fixed channels, grant only at the queue head
//! with later timestamps witnessed from every peer); within a batch the
//! combiner serves strictly sequentially. Grant keys encode
//! `(batch timestamp, serve index)`, so the checker's nondecreasing-key
//! invariant verifies both levels on every run.
//!
//! Disconnections are *cheaper* than in L2: a member that disconnects after
//! `init` still gets served (its operation already lives at the combiner),
//! and a holder that "disconnects" costs nothing because the release never
//! touches the wireless network. Only the result forward can fail, which is
//! recorded in the ledger and otherwise harmless.

use crate::algorithm::{AlgoCtx, MutexAlgorithm};
use crate::lamport::{order_key, Replica};
use mobidist_clock::Timestamp;
use mobidist_net::ids::{IdMap, MhId, MssId};
use mobidist_net::obs::TraceEvent;
use mobidist_net::proto::Src;
use std::collections::VecDeque;

/// A *combined* queue entry: one Lamport request standing for every
/// operation its proxy collected before the grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CEntry {
    /// Timestamp assigned when the proxy opened the combined request.
    pub ts: Timestamp,
    /// The combining proxy.
    pub proxy: MssId,
}

/// L2C protocol messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2cMsg {
    /// MH→MSS (wireless): my critical-section operation; combine it.
    Init,
    /// MSS→MSS: a timestamped combined request.
    Request(CEntry),
    /// MSS→MSS: acknowledgement carrying the replier's clock.
    Reply(Timestamp),
    /// MSS→MSS: the combined entry's whole batch has been served.
    Release(Timestamp, CEntry),
    /// MSS→cell (one broadcast): results of the finished batch, for every
    /// member still local. Non-members ignore it.
    BatchDone,
    /// MSS→moved MH (searched): your result, forwarded after you left the
    /// combiner's cell.
    Result,
}

/// One batch in service at its combiner.
#[derive(Debug)]
struct Batch {
    entry: CEntry,
    /// Members not yet served, in arrival order.
    members: VecDeque<MhId>,
    /// Members already served (result delivery owed).
    done: Vec<MhId>,
    serving: Option<MhId>,
    served: u32,
}

/// Per-MSS combiner state.
#[derive(Debug)]
struct Station {
    lamport: Replica<MssId, CEntry>,
    /// Operations collected but not yet drained into a batch.
    pending: VecDeque<MhId>,
    /// My outstanding combined request, if any (at most one).
    mine: Option<CEntry>,
    /// The batch currently being served, if any.
    batch: Option<Batch>,
    /// The last finished batch's emptied `members` / `done` buffers, handed
    /// to the next batch so a busy combiner stops reaching the allocator.
    spare: (VecDeque<MhId>, Vec<MhId>),
}

/// Flat-combining L2 at the MSS proxies. See the module docs.
#[derive(Debug)]
pub struct L2c {
    stations: IdMap<MssId, Station>,
    /// MH currently inside the critical section → its combiner.
    server_of: IdMap<MhId, MssId>,
}

/// Grant-order key: the batch's Lamport pair in the high bits, the serve
/// index (saturating at 4095) in the low 12 — nondecreasing across batches
/// by Lamport's order and within a batch by construction.
fn grant_key(ts: Timestamp, served: u32) -> u64 {
    (order_key(ts) << 12) | u64::from(served.min(0xFFF))
}

impl L2c {
    /// Creates an instance for `m` MSSs.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "L2C needs at least one MSS");
        let stations = (0..m as u32)
            .map(|i| {
                (
                    MssId(i),
                    Station {
                        lamport: Replica::new(i),
                        pending: VecDeque::new(),
                        mine: None,
                        batch: None,
                        spare: Default::default(),
                    },
                )
            })
            .collect();
        L2c {
            stations,
            server_of: IdMap::new(),
        }
    }

    /// Number of combined entries currently queued at `mss` (for tests).
    pub fn queue_len(&self, mss: MssId) -> usize {
        self.stations[&mss].lamport.queue.len()
    }

    /// Number of collected-but-unbatched operations at `mss` (for tests).
    pub fn pending_len(&self, mss: MssId) -> usize {
        self.stations[&mss].pending.len()
    }

    fn station(&mut self, me: MssId) -> &mut Station {
        self.stations.get_mut(&me).expect("known MSS")
    }

    /// Opens a combined request covering everything in `pending`.
    fn open_request(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, me: MssId) {
        let s = self.station(me);
        debug_assert!(s.mine.is_none() && s.batch.is_none());
        let ts = s.lamport.clock.tick();
        let entry = CEntry { ts, proxy: me };
        s.lamport.queue.insert(entry);
        s.mine = Some(entry);
        ctx.broadcast_fixed(me, L2cMsg::Request(entry));
    }

    /// Lamport grant check for this combiner's outstanding entry; on success
    /// the collected operations become the batch and service starts.
    fn try_grant(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, me: MssId) {
        let m = ctx.num_mss();
        {
            let s = self.station(me);
            if s.batch.is_some() {
                return;
            }
            let Some(head) = s.lamport.queue.first().copied() else {
                return;
            };
            if head.proxy != me || s.mine != Some(head) {
                return;
            }
            let others = (0..m as u32).map(MssId).filter(|o| *o != me);
            if !s.lamport.heard_after(head.ts, others) {
                return;
            }
            // The combining window closes here: everything collected while
            // the entry queued is served under this one acquisition.
            let (mut members, done) = std::mem::take(&mut s.spare);
            members.extend(s.pending.drain(..));
            debug_assert!(!members.is_empty(), "a combined request covers >= 1 op");
            s.mine = None;
            s.batch = Some(Batch {
                entry: head,
                members,
                done,
                serving: None,
                served: 0,
            });
        }
        self.serve_next(ctx, me);
    }

    /// Grants the next member of the in-service batch, or finishes it.
    fn serve_next(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, me: MssId) {
        let next = {
            let b = self.station(me).batch.as_mut().expect("batch in service");
            if let Some(mh) = b.members.pop_front() {
                b.serving = Some(mh);
                b.served += 1;
                Some((mh, grant_key(b.entry.ts, b.served)))
            } else {
                None
            }
        };
        match next {
            Some((mh, key)) => {
                self.server_of.insert(mh, me);
                ctx.grant_with_key(mh, key);
            }
            None => self.finish_batch(ctx, me),
        }
    }

    /// Closes the served batch: one result broadcast for the cell plus a
    /// searched forward per moved member, then the `release` broadcast.
    fn finish_batch(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, me: MssId) {
        let mut batch = self.station(me).batch.take().expect("batch in service");
        ctx.emit(TraceEvent::CombineBatch {
            mss: me,
            size: batch.served,
        });
        ctx.bump("combine_batches");
        let mut any_local = false;
        for &mh in &batch.done {
            if ctx.is_local(me, mh) {
                any_local = true;
            } else {
                // The member left (or disconnected) after init: the proxy
                // obligation — forward its result with a search.
                ctx.search_send(me, mh, L2cMsg::Result);
            }
        }
        if any_local {
            // One charged broadcast delivers every still-local result.
            ctx.broadcast_cell(me, L2cMsg::BatchDone);
        }
        let s = self.station(me);
        s.lamport.queue.remove(&batch.entry);
        batch.done.clear();
        s.spare = (batch.members, batch.done);
        let ts = s.lamport.clock.tick();
        ctx.broadcast_fixed(me, L2cMsg::Release(ts, batch.entry));
        if !s.pending.is_empty() {
            self.open_request(ctx, me);
        }
        self.try_grant(ctx, me);
    }
}

impl MutexAlgorithm for L2c {
    type Msg = L2cMsg;
    type Timer = ();

    fn name(&self) -> &'static str {
        "L2C"
    }

    fn request(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, mh: MhId) {
        // The MH's entire contribution: one wireless init carrying its
        // operation. Everything else happens on the fixed network.
        let _ = ctx.send_wireless_up(mh, L2cMsg::Init);
    }

    fn release(&mut self, ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>, mh: MhId) {
        // The operation ran at the combiner, so "release" is a local step
        // there — no wireless messages, connected or not.
        let Some(me) = self.server_of.remove(&mh) else {
            return;
        };
        {
            let b = self.station(me).batch.as_mut().expect("batch in service");
            debug_assert_eq!(b.serving, Some(mh));
            b.serving = None;
            b.done.push(mh);
        }
        self.serve_next(ctx, me);
    }

    fn on_mss_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>,
        at: MssId,
        src: Src,
        msg: L2cMsg,
    ) {
        match msg {
            L2cMsg::Init => {
                let mh = src.as_mh().expect("init arrives on the uplink");
                let s = self.station(at);
                s.pending.push_back(mh);
                if s.mine.is_none() && s.batch.is_none() {
                    self.open_request(ctx, at);
                    self.try_grant(ctx, at);
                }
            }
            L2cMsg::Request(entry) => {
                let from = src.as_mss().expect("requests travel MSS to MSS");
                let reply_ts = self.station(at).lamport.request(from, entry.ts, entry);
                ctx.send_fixed(at, from, L2cMsg::Reply(reply_ts));
            }
            L2cMsg::Reply(ts) => {
                let from = src.as_mss().expect("replies travel MSS to MSS");
                self.station(at).lamport.receive(from, ts);
                self.try_grant(ctx, at);
            }
            L2cMsg::Release(ts, entry) => {
                let from = src.as_mss().expect("releases travel MSS to MSS");
                let r = &mut self.station(at).lamport;
                r.receive(from, ts);
                r.queue.remove(&entry);
                self.try_grant(ctx, at);
            }
            L2cMsg::BatchDone | L2cMsg::Result => {
                unreachable!("results are delivered to MHs, not MSSs");
            }
        }
    }

    fn on_mh_msg(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>,
        at: MhId,
        _src: Src,
        msg: L2cMsg,
    ) {
        match msg {
            // Result delivery: the episode already completed at the
            // combiner; the MH merely learns the outcome. The cell
            // broadcast also reaches non-members, which ignore it.
            L2cMsg::BatchDone | L2cMsg::Result => {
                let _ = (ctx, at);
            }
            other => unreachable!("unexpected message at an MH: {other:?}"),
        }
    }

    fn on_search_failed(
        &mut self,
        ctx: &mut AlgoCtx<'_, '_, L2cMsg, ()>,
        _origin: MssId,
        _target: MhId,
        msg: L2cMsg,
    ) {
        if let L2cMsg::Result = msg {
            // The member disconnected before its result could be forwarded.
            // Its operation still executed; only the notification is lost.
            ctx.bump("l2c_lost_results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_entries_order_by_timestamp_then_proxy() {
        let a = CEntry {
            ts: Timestamp::new(1, 5),
            proxy: MssId(5),
        };
        let b = CEntry {
            ts: Timestamp::new(2, 0),
            proxy: MssId(0),
        };
        assert!(a < b, "smaller timestamp wins regardless of proxy id");
    }

    #[test]
    fn grant_keys_are_increasing_within_and_across_batches() {
        let early = Timestamp::new(3, 1);
        let late = Timestamp::new(4, 0);
        let k1 = grant_key(early, 1);
        let k2 = grant_key(early, 2);
        let k3 = grant_key(late, 1);
        assert!(k1 < k2, "serve index orders members within a batch");
        assert!(k2 < k3, "a later batch outranks every earlier member");
        // The serve index saturates instead of corrupting the batch bits.
        assert!(grant_key(early, 50_000) < k3);
    }

    #[test]
    fn fresh_instance_is_empty() {
        let a = L2c::new(4);
        for i in 0..4u32 {
            assert_eq!(a.queue_len(MssId(i)), 0);
            assert_eq!(a.pending_len(MssId(i)), 0);
        }
        assert_eq!(a.name(), "L2C");
    }

    #[test]
    #[should_panic(expected = "at least one MSS")]
    fn zero_stations_rejected() {
        let _ = L2c::new(0);
    }
}
