//! One replica of Lamport's mutual exclusion: the state each process keeps
//! and the rules it applies to it. L1 runs one per mobile host, L2 and L2C
//! one per MSS proxy — the same algorithm, moved onto the static network.

use mobidist_clock::{LamportClock, RequestQueue, Timestamp};
use mobidist_net::ids::{DenseId, IdMap};

/// A process's clock, its copy of the request queue, and the newest
/// timestamp it has heard from each peer `P`.
#[derive(Debug)]
pub(crate) struct Replica<P: DenseId, E: Ord> {
    pub(crate) clock: LamportClock,
    /// The replicated request queue: its order *is* the algorithm.
    pub(crate) queue: RequestQueue<E>,
    heard: IdMap<P, Timestamp>,
}

// The rules are `#[inline]` because, without it, release builds kept them
// as out-of-line calls from the L2/L2C message handlers they sit in.
impl<P: DenseId, E: Ord> Replica<P, E> {
    /// A replica for process `process` with nothing queued or heard.
    pub(crate) fn new(process: u32) -> Self {
        Replica {
            clock: LamportClock::new(process),
            queue: RequestQueue::new(),
            heard: IdMap::new(),
        }
    }

    /// Lamport's receive rule for a message stamped `ts` from `from`.
    #[inline]
    pub(crate) fn receive(&mut self, from: P, ts: Timestamp) {
        let newest = self.heard.get_or_insert_with(from, || ts);
        if ts > *newest {
            *newest = ts;
        }
        self.clock.witness(ts);
    }

    /// Receives `from`'s request stamped `ts`, queues `entry` and returns
    /// the reply's stamp.
    #[inline]
    pub(crate) fn request(&mut self, from: P, ts: Timestamp, entry: E) -> Timestamp {
        self.receive(from, ts);
        self.queue.insert(entry);
        self.clock.tick()
    }

    /// Lamport's second grant condition for a request stamped `ts`: every
    /// one of `peers` has sent a message stamped later.
    #[inline]
    pub(crate) fn heard_after(&self, ts: Timestamp, mut peers: impl Iterator<Item = P>) -> bool {
        peers.all(|p| self.heard.get(&p).is_some_and(|t| *t > ts))
    }
}

/// Grant-order key of a request stamped `ts`: the counter in the high bits
/// and the low 16 bits of the process id below it, so keys order as the
/// timestamps do for process ids under 2^16.
#[inline]
pub(crate) fn order_key(ts: Timestamp) -> u64 {
    ts.counter << 16 | u64::from(ts.process & 0xFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidist_net::ids::MssId;

    fn replica() -> Replica<MssId, Timestamp> {
        Replica::new(0)
    }

    #[test]
    fn receive_keeps_the_newest_timestamp_and_moves_the_clock_past_it() {
        let mut r = replica();
        r.receive(MssId(1), Timestamp::new(5, 1));
        r.receive(MssId(1), Timestamp::new(3, 1));
        assert!(r.heard_after(Timestamp::new(4, 0), [MssId(1)].into_iter()));
        assert!(!r.heard_after(Timestamp::new(5, 1), [MssId(1)].into_iter()));
        assert_eq!(r.clock.peek(), Timestamp::new(7, 0));
    }

    #[test]
    fn request_queues_the_entry_and_stamps_a_later_reply() {
        let mut r = replica();
        let ts = Timestamp::new(9, 2);
        let reply = r.request(MssId(2), ts, ts);
        assert_eq!(r.queue.first(), Some(&ts));
        assert!(reply > ts);
        assert!(r.heard_after(Timestamp::new(8, 0), [MssId(2)].into_iter()));
    }

    #[test]
    fn heard_after_needs_a_later_message_from_every_peer() {
        let mut r = replica();
        let ts = Timestamp::new(4, 0);
        let peers = || [MssId(1), MssId(2), MssId(3)].into_iter();
        assert!(!r.heard_after(ts, peers()), "every peer is silent");
        r.receive(MssId(1), Timestamp::new(6, 1));
        r.receive(MssId(2), Timestamp::new(5, 2));
        assert!(!r.heard_after(ts, peers()), "peer 3 is silent");
        r.receive(MssId(3), Timestamp::new(3, 3));
        assert!(!r.heard_after(ts, peers()), "peer 3 sent nothing later");
        r.receive(MssId(3), Timestamp::new(4, 3));
        assert!(r.heard_after(ts, peers()));
    }
}
