//! Property test: the timing wheel ([`EventQueue`]) and the reference 4-ary
//! heap ([`EventHeap`]) produce identical `(time, payload)` pop sequences on
//! randomized workloads — including far-future times routed through the
//! wheel's overflow heap and bursts of same-tick ties, whose relative order
//! must follow insertion sequence — and on scripted cases that push single
//! slots of the wheel's chunk arena across chunk boundaries.
//!
//! The kernel only ever schedules at or after the current time, so the
//! generator keeps every pushed time `>=` the last popped time — the same
//! contract the wheel's cursor relies on.

use mobidist_net::event::{EventHeap, EventQueue};
use mobidist_net::rng::SimRng;
use mobidist_net::time::SimTime;

/// Wheel and reference heap behind one handle: every call is mirrored to
/// both and every observable compared.
#[derive(Default)]
struct Both {
    wheel: EventQueue<u64>,
    heap: EventHeap<u64>,
    pushed: u64,
    popped: u64,
}

impl Both {
    /// Schedules the next payload (payloads count pushes) at tick `t`.
    fn push(&mut self, t: u64) {
        self.wheel.push(SimTime::from_ticks(t), self.pushed);
        self.heap.push(SimTime::from_ticks(t), self.pushed);
        self.pushed += 1;
    }

    /// The read-only observables must agree before every removal.
    fn check(&self) {
        assert_eq!(self.wheel.len(), self.heap.len());
        assert_eq!(self.wheel.peek_time(), self.heap.peek_time());
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.check();
        let got = self.wheel.pop();
        assert_eq!(got, self.heap.pop());
        self.popped += got.is_some() as u64;
        got
    }

    fn pop_if_at_or_before(&mut self, limit: u64) -> Option<(SimTime, u64)> {
        self.check();
        let got = self.wheel.pop_if_at_or_before(SimTime::from_ticks(limit));
        assert_eq!(
            got,
            self.heap.pop_if_at_or_before(SimTime::from_ticks(limit))
        );
        self.popped += got.is_some() as u64;
        got
    }

    /// The batcher's step: probe, then claim the next event if it is at the
    /// cursor tick and `pred` accepts it. A claim must be the heap's next.
    fn pop_same_tick_if(&mut self, pred: impl Fn(&u64) -> bool) -> Option<(SimTime, u64)> {
        let probe = self.wheel.next_same_tick_matches(&pred);
        let got = self.wheel.pop_same_tick_if(&pred);
        assert_eq!(probe, got.is_some());
        if got.is_some() {
            assert_eq!(got, self.heap.pop());
            self.popped += 1;
        }
        got
    }

    /// Pops until empty; everything ever pushed must have come out.
    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty());
        assert_eq!(self.popped, self.pushed);
    }
}

/// Drives both queues through an identical randomized interleaving of pushes
/// and pops and asserts every observable agrees step by step.
fn run_interleaving(seed: u64, ops: usize, spread: impl Fn(&mut SimRng, u64) -> u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut q = Both::default();
    let mut now = 0u64; // lower bound for new pushes: the last popped time

    for _ in 0..ops {
        q.check();
        // Three ops, biased toward pushes so queues stay populated:
        // 0..=5 push, 6..=8 pop, 9 bounded pop (pop_if_at_or_before).
        let popped = match rng.below(10) {
            0..=5 => {
                q.push(spread(&mut rng, now));
                None
            }
            6..=8 => q.pop(),
            // A bound at, below, or above the next event: the kernel's
            // `advance_up_to` path. A refused pop must not change anything
            // (checked by `check` next iteration).
            _ => q.pop_if_at_or_before(now + rng.below(2_000)),
        };
        if let Some((t, _)) = popped {
            now = t.ticks();
        }
    }
    // The tails must match exactly too.
    q.drain();
}

#[test]
fn uniform_near_future_delays() {
    // Delays within one level-0 page most of the time.
    for seed in [1, 2, 3, 4, 5] {
        run_interleaving(seed, 4_000, |rng, now| now + rng.below(200));
    }
}

#[test]
fn wide_delays_cross_all_levels() {
    // Delays up to 2^26: exercises level 1, level 2 and cascading.
    for seed in [10, 11, 12] {
        run_interleaving(seed, 3_000, |rng, now| now + rng.below(1 << 26));
    }
}

#[test]
fn far_future_hits_overflow_heap() {
    // Mostly near events with occasional jumps far beyond the wheel horizon,
    // so entries land in the overflow heap and must drain back in order.
    for seed in [20, 21, 22] {
        run_interleaving(seed, 2_000, |rng, now| {
            if rng.chance(0.15) {
                now + (1 << 25) + rng.below(1 << 40)
            } else {
                now + rng.below(500)
            }
        });
    }
}

#[test]
fn same_tick_bursts_keep_insertion_order() {
    // Many pushes collapse onto few distinct ticks; ties must pop in
    // insertion order on both queues.
    for seed in [30, 31, 32] {
        run_interleaving(seed, 4_000, |rng, now| now + rng.below(4) * 64);
    }
}

#[test]
fn bimodal_near_far_mixture() {
    // The micro-bench distribution: half near, half just past the region
    // boundary, so cascades and overflow drains interleave with hot pops.
    for seed in [40, 41] {
        run_interleaving(seed, 3_000, |rng, now| {
            if rng.chance(0.5) {
                now + rng.below(64)
            } else {
                now + (1 << 24) + rng.below(1 << 20)
            }
        });
    }
}

// ---- Scripted cases for the wheel's chunk arena ----------------------------
//
// A wheel slot is a chain of fixed-size chunks. The chunk capacity is private
// and derived from the item size, but it never exceeds 256 items, so `MANY`
// entries in one slot always span at least four chunks — every case below
// crosses chunk boundaries on push, pop, cascade and clear.

const MANY: u64 = 3 * 256 + 17;

#[test]
fn one_slot_spans_many_chunks() {
    let mut q = Both::default();
    q.push(3);
    for _ in 0..MANY {
        q.push(7);
    }
    q.push(9);
    // Drain half of tick 7, then keep appending to the same (now cursor)
    // slot while it is being consumed from the front.
    for _ in 0..1 + MANY / 2 {
        q.pop().unwrap();
    }
    for _ in 0..MANY {
        q.push(7);
        q.pop().unwrap();
    }
    q.drain();
}

#[test]
fn cascades_carry_multi_chunk_slots_down() {
    // Tick 300 sits on level 1 and tick 70 000 on level 2 (relative to a
    // cursor of 0); each holds MANY entries, so the level-2 slot cascades
    // into one level-1 slot and on into one level-0 slot, multi-chunk at
    // every step, with neighbours interleaved to keep the slots honest.
    let mut q = Both::default();
    for i in 0..MANY {
        q.push(300);
        q.push(70_000);
        if i % 5 == 0 {
            q.push(300 + i % 200);
            q.push(70_000 + i % 3_000);
        }
    }
    q.push(1);
    assert_eq!(q.pop().unwrap().0.ticks(), 1);
    // Entries pushed after the cascade queue up behind the cascaded ones.
    for _ in 0..MANY {
        q.pop().unwrap();
        q.push(70_000);
    }
    q.drain();
}

#[test]
fn late_pushes_extend_a_multi_chunk_cursor_slot() {
    // Late entries (time < cursor) park FIFO in the cursor slot. The heap
    // orders them by time, so they are pushed in non-decreasing time order,
    // into a cursor slot with nothing else in it yet — the arrangement in
    // which FIFO and `(time, seq)` agree.
    let mut q = Both::default();
    q.push(5_000);
    q.pop().unwrap();
    for i in 0..MANY {
        q.push(1_000 + i / 4);
    }
    // The slot now spans several chunks; consume some, extend it again,
    // then put on-time entries behind the late ones.
    for _ in 0..300 {
        q.pop().unwrap();
    }
    for i in 0..MANY {
        q.push(2_000 + i / 4);
    }
    for _ in 0..MANY {
        q.push(5_000);
    }
    q.push(5_001);
    q.drain();
}

#[test]
fn same_tick_pops_cross_chunk_boundaries() {
    let mut q = Both::default();
    for _ in 0..MANY {
        q.push(50);
    }
    q.push(51);
    let stop = MANY - 10;
    assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(50), 0));
    // The batcher's loop: claim until the predicate refuses.
    let mut claimed = 1;
    while let Some(got) = q.pop_same_tick_if(|&p| p < stop) {
        assert_eq!(got, (SimTime::from_ticks(50), claimed));
        claimed += 1;
    }
    assert_eq!(claimed, stop);
    // Tick 50's tail is untouched; once it is gone, tick 51 is not a
    // same-tick continuation.
    for _ in 0..10 {
        assert_eq!(q.pop().unwrap().0.ticks(), 50);
    }
    assert_eq!(q.pop_same_tick_if(|_| true), None);
    q.drain();
}

#[test]
fn overflow_drains_more_than_a_chunk() {
    // Everything here starts beyond the 2^24-tick region, so it all sits in
    // the overflow heap until the wheel runs dry, then drains in one go:
    // MANY entries on one far tick, the rest spread over its neighbourhood.
    let far = 1u64 << 30;
    let mut q = Both::default();
    for i in 0..MANY {
        q.push(far);
        q.push(far + (i * 7919) % (1 << 20));
    }
    q.push(2);
    q.drain();
}

#[test]
fn clear_after_a_multi_chunk_state_replays_like_fresh() {
    let script = |q: &mut Both| {
        for i in 0..MANY {
            q.push(9);
            q.push(400 + i % 64);
            q.push(80_000 + i);
            q.push((1 << 28) + i % 3);
        }
        for _ in 0..MANY {
            q.pop().unwrap();
        }
    };
    // Leave every level and the overflow populated, mid-consumption.
    let mut reused = Both::default();
    script(&mut reused);
    reused.wheel.clear();
    reused.heap.clear();
    (reused.pushed, reused.popped) = (0, 0);
    let mut fresh = Both::default();
    script(&mut reused);
    script(&mut fresh);
    loop {
        let (a, b) = (reused.pop(), fresh.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}
