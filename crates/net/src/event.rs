//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`: ties in simulated time
//! are broken by insertion order, so a run is a total order fully determined
//! by the configuration seed.
//!
//! Two implementations share that contract:
//!
//! * [`EventQueue`] — a **hierarchical timing wheel** (three levels of 256
//!   slots covering a 2²⁴-tick region, plus an overflow min-heap for
//!   far-future timers). Push and pop are O(1) amortized for the near-future
//!   events that dominate discrete-event workloads, versus O(log n) for a
//!   heap. This is what the kernel runs on.
//! * [`EventHeap`] — the original hand-rolled four-ary min-heap, kept as the
//!   reference implementation (`tests/wheel_equivalence.rs` drives both with
//!   randomized workloads and asserts identical pop sequences; the benchmark
//!   package's `net.event.heap_hold_ns` races them head to head). The wheel's
//!   overflow is one of these too, so there is a single sift implementation.
//!
//! # Wheel layout
//!
//! The wheel tracks a monotone *cursor* (the tick of the last popped event).
//! A pending tick `t` lives at the level selected by `x = t ^ cursor`:
//! level 0 (`x < 2⁸`, one tick per slot), level 1 (`x < 2¹⁶`, 256 ticks per
//! slot), level 2 (`x < 2²⁴`, 2¹⁶ ticks per slot), or the overflow heap
//! (`x ≥ 2²⁴`). Slot indices are taken from *absolute* tick bits
//! (`(t >> 8·level) & 255`), not cursor-relative deltas, so a given tick maps
//! to the same slot for as long as it stays on a level — which is what keeps
//! same-tick entries in strict insertion order: they always append to the
//! same `VecDeque`, and cascades move whole deques without reordering.
//!
//! When level 0 has no slot at or after the cursor, the first occupied slot
//! of the lowest non-empty level is *cascaded*: the cursor jumps to that
//! slot's window start and the slot's entries are reinserted, each landing at
//! least one level lower (XOR with the new cursor clears the bits that chose
//! the old level). When the whole wheel is empty the cursor jumps straight to
//! the overflow minimum and every overflow entry now within the cursor's
//! 2²⁴-tick region is drained into the wheel in `(time, seq)` order.
//!
//! Pushing a time earlier than the cursor is allowed for generic users (the
//! kernel never does): the entry is *placed* at the cursor slot and pops with
//! its original timestamp, preserving `(time, seq)` order among late entries.

use crate::time::SimTime;
use std::collections::VecDeque;

/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Bitmap words per level (256 slots / 64 bits).
const WORDS: usize = SLOTS / 64;
/// Wheel levels; ticks within `2^(SLOT_BITS * LEVELS)` of the cursor fit.
const LEVELS: usize = 3;
/// Low-bits mask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Ticks covered by the wheel region (beyond this from the cursor →
/// overflow).
const REGION: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[derive(Debug)]
struct Entry<E> {
    time: u64,
    seq: u64,
    body: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// One wheel level: 256 slots of FIFO deques plus an occupancy bitmap.
#[derive(Debug)]
struct Level<E> {
    slots: Box<[VecDeque<Entry<E>>]>,
    occupied: [u64; WORDS],
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [0; WORDS],
        }
    }

    #[inline]
    fn mark(&mut self, s: usize) {
        self.occupied[s / 64] |= 1u64 << (s % 64);
    }

    #[inline]
    fn unmark(&mut self, s: usize) {
        self.occupied[s / 64] &= !(1u64 << (s % 64));
    }

    /// Lowest occupied slot index `>= start`, scanning the bitmap.
    #[inline]
    fn first_occupied_from(&self, start: usize) -> Option<usize> {
        if start >= SLOTS {
            return None;
        }
        let mut w = start / 64;
        let mut word = self.occupied[w] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w == WORDS {
                return None;
            }
            word = self.occupied[w];
        }
    }

    fn clear(&mut self) {
        for (w, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                self.slots[s].clear();
                bits &= bits - 1;
            }
            *word = 0;
        }
    }
}

/// Hierarchical timing-wheel event queue with deterministic tie-breaking.
///
/// Drop-in replacement for the previous heap-backed queue: same API, same
/// total pop order `(time, insertion seq)`. See the module docs for the
/// layout and ordering argument.
///
/// # Examples
///
/// ```
/// use mobidist_net::event::EventQueue;
/// use mobidist_net::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ticks(5), "later");
/// q.push(SimTime::from_ticks(2), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.ticks(), e), (2, "sooner"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    levels: [Level<E>; LEVELS],
    /// Far-future entries (`time ^ cursor >= REGION`), keyed by the wheel's
    /// own `(time, seq)`.
    overflow: EventHeap<E>,
    /// Tick of the last popped event; never decreases.
    cursor: u64,
    /// Next insertion sequence number.
    seq: u64,
    /// Total pending entries (wheel + overflow).
    len: usize,
    /// Pending entries in the wheel levels only.
    wheel_len: usize,
    /// Retired slot deques, recycled into cold slots on first push — one
    /// pool per level, because slot capacity scales with the level's window
    /// span (a level-1 slot covers 256 ticks of schedule, a level-0 slot
    /// one tick) and mixing them makes every reuse a fresh growth chain.
    ///
    /// Slots hand their deque back here the moment they empty and take one
    /// back when next occupied, so buffer capacity follows the *concurrent*
    /// occupancy profile rather than the wheel's rotation: without this, a
    /// steady-state run keeps allocating for a full 2^16-tick wrap as each
    /// upper-level slot is touched for the first time. With it, warmed-up
    /// windows are allocation-free (pinned by the `delivery_alloc` suite).
    deque_pool: [Vec<VecDeque<Entry<E>>>; LEVELS],
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: EventHeap::new(),
            cursor: 0,
            seq: 0,
            len: 0,
            wheel_len: 0,
            deque_pool: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Schedules `body` at `time`.
    pub fn push(&mut self, time: SimTime, body: E) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry {
            time: time.ticks(),
            seq,
            body,
        });
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (tick, slot) = self.settle()?;
        Some(self.pop_settled(tick, slot))
    }

    /// Fused peek-and-pop: removes the earliest event only when it is due at
    /// or before `limit`. The kernel main loop uses this instead of a
    /// `peek_time`/`pop` pair.
    ///
    /// When the earliest event is beyond `limit` the queue is left entirely
    /// untouched — in particular the cursor does not advance, so events the
    /// caller pushes afterwards (at times at or after the last *popped*
    /// tick) never count as late.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        // Eligibility is judged by the *placement* tick (what `pop` would
        // settle to), read without mutating: cascading here and then
        // returning `None` would advance the cursor past events the caller
        // is still allowed to push.
        //
        // Fast path: a due event already sitting in a level-0 slot — it
        // precedes everything at upper levels and in the overflow, so it can
        // be popped directly without the settle rescan.
        if self.len == 0 {
            return None;
        }
        let lim = limit.ticks();
        if self.wheel_len > 0 {
            let c0 = (self.cursor & SLOT_MASK) as usize;
            if let Some(s) = self.levels[0].first_occupied_from(c0) {
                let tick = (self.cursor & !SLOT_MASK) | s as u64;
                if tick > lim {
                    return None;
                }
                return Some(self.pop_settled(tick, s));
            }
        }
        // Slow path (cascade or overflow drain pending): judge read-only,
        // then let `pop` do the mutation.
        if self.due_tick().expect("len > 0") > lim {
            return None;
        }
        self.pop()
    }

    /// Pops the next pending event only when it is scheduled at exactly the
    /// tick of the last popped event (the cursor) *and* `pred` accepts its
    /// body. Returns `None` — touching nothing — otherwise.
    ///
    /// This is O(1), no settle or cascade: once an event at tick `t` has been
    /// popped (`cursor == t`), every remaining entry with `time == t` already
    /// sits in level-0 slot `t & 255`. An entry lands in the wheel either
    /// directly (placement clamps to the cursor, and `t ^ cursor < 256`
    /// selects level 0 slot `t & 255`) or via a cascade — and a cascade of
    /// the slot *containing* `t` reinserts its entries against a cursor that
    /// shares `t`'s upper bits, landing them in that same level-0 slot. An
    /// overflow jump cannot intervene: it only happens when the wheel is
    /// empty, which it isn't while a same-tick entry remains. Within the
    /// slot, entries are FIFO in insertion order, which for equal times *is*
    /// `(time, seq)` order — so the front of the slot is exactly the event
    /// `pop` would return next.
    ///
    /// The cursor does not move (it already equals the popped tick), so
    /// where later pushes land is unaffected. The kernel's delivery batcher
    /// leans on this to coalesce same-tick runs without disturbing the total
    /// order.
    pub fn pop_same_tick_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<(SimTime, E)> {
        if self.wheel_len == 0 {
            return None;
        }
        let s = (self.cursor & SLOT_MASK) as usize;
        let front = self.levels[0].slots[s].front()?;
        // `time != cursor` also rejects late-placed entries (time < cursor)
        // parked in the cursor slot — those must pop through the normal path
        // with their original timestamps.
        if front.time != self.cursor || !pred(&front.body) {
            return None;
        }
        Some(self.pop_settled(self.cursor, s))
    }

    /// Read-only twin of [`pop_same_tick_if`](Self::pop_same_tick_if): true
    /// exactly when that call would pop something. The kernel's delivery
    /// batcher probes this before committing to a coalescing run, so
    /// singleton deliveries — the common case in unicast-heavy workloads —
    /// skip the batch buffer entirely.
    #[inline]
    pub fn next_same_tick_matches(&self, pred: impl FnOnce(&E) -> bool) -> bool {
        if self.wheel_len == 0 {
            return false;
        }
        let s = (self.cursor & SLOT_MASK) as usize;
        match self.levels[0].slots[s].front() {
            Some(front) => front.time == self.cursor && pred(&front.body),
            None => false,
        }
    }

    /// Placement tick of the earliest pending event, computed read-only.
    /// Equals the tick `settle` would return, without cascading.
    fn due_tick(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            // The jump in `settle` sets the cursor to the overflow minimum,
            // which then settles at its own tick.
            return self.overflow.heap.first().map(|e| e.time);
        }
        let c0 = (self.cursor & SLOT_MASK) as usize;
        if let Some(s) = self.levels[0].first_occupied_from(c0) {
            return Some((self.cursor & !SLOT_MASK) | s as u64);
        }
        for l in 1..LEVELS {
            let ci = ((self.cursor >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
            if let Some(s) = self.levels[l].first_occupied_from(ci + 1) {
                // Upper-level entries are never cursor-clamped, so the
                // slot's minimum time is exactly where its earliest entry
                // will settle.
                let min = self.levels[l].slots[s]
                    .iter()
                    .map(|e| e.time)
                    .min()
                    .expect("occupied slot non-empty");
                return Some(min);
            }
        }
        unreachable!("wheel_len > 0 but no occupied slot");
    }

    /// Time of the earliest pending event. Read-only: unlike `pop`, this
    /// never advances the cursor or cascades slots.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            return self.overflow.peek_time();
        }
        let c0 = (self.cursor & SLOT_MASK) as usize;
        if let Some(s) = self.levels[0].first_occupied_from(c0) {
            return self.slot_min_time(0, s);
        }
        for l in 1..LEVELS {
            let ci = ((self.cursor >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
            if let Some(s) = self.levels[l].first_occupied_from(ci + 1) {
                return self.slot_min_time(l, s);
            }
        }
        unreachable!("wheel_len > 0 but no occupied slot");
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the queue while retaining every allocation (slot deques,
    /// overflow heap, recycled-deque pool) and rewinds the cursor and
    /// sequence counter, so a reused queue reproduces the exact pop order of
    /// a fresh one.
    pub fn clear(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.overflow.clear();
        self.cursor = 0;
        self.seq = 0;
        self.len = 0;
        self.wheel_len = 0;
    }

    /// Places an entry at the level/slot its time selects relative to the
    /// current cursor (or the overflow heap). Does not touch `len`.
    #[inline]
    fn insert(&mut self, e: Entry<E>) {
        // Times at or before the cursor are placed *at* the cursor tick;
        // the entry keeps its original `time` for the pop result and for
        // ordering among equally-late entries (all end up FIFO in the cursor
        // slot, i.e. seq order — and their `time`s are all <= cursor, so
        // (time, seq) order among *future* events is unaffected).
        let place = e.time.max(self.cursor);
        let x = place ^ self.cursor;
        if x < REGION {
            let level = if x < (1 << SLOT_BITS) {
                0
            } else if x < (1 << (2 * SLOT_BITS)) {
                1
            } else {
                2
            };
            let slot = ((place >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            let lv = &mut self.levels[level];
            if lv.slots[slot].capacity() == 0 {
                if let Some(d) = self.deque_pool[level].pop() {
                    lv.slots[slot] = d;
                }
            }
            lv.slots[slot].push_back(e);
            lv.mark(slot);
            self.wheel_len += 1;
        } else {
            self.overflow.push_entry(e);
        }
    }

    /// Advances wheel state (cascades, overflow drain) until the earliest
    /// pending event sits in a level-0 slot; returns `(tick, slot)`.
    /// Removes nothing and pushes nothing, so calling it twice is idempotent.
    fn settle(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if self.wheel_len == 0 {
                // Whole wheel empty: jump to the overflow minimum and pull
                // in everything that now fits the 2^24 region. Overflow
                // times always exceed any wheel/cursor time (they differ in
                // bits >= 24), so no pending event is skipped.
                let t = self.overflow.heap[0].time;
                debug_assert!(t >= self.cursor);
                self.cursor = t;
                self.drain_overflow();
                debug_assert!(self.wheel_len > 0);
            }
            let c0 = (self.cursor & SLOT_MASK) as usize;
            if let Some(s) = self.levels[0].first_occupied_from(c0) {
                return Some(((self.cursor & !SLOT_MASK) | s as u64, s));
            }
            let mut cascaded = false;
            for l in 1..LEVELS {
                let ci = ((self.cursor >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
                // Slots <= the cursor's own index hold windows that already
                // passed, so they are provably empty: scan from ci + 1.
                if let Some(s) = self.levels[l].first_occupied_from(ci + 1) {
                    self.cascade(l, s);
                    cascaded = true;
                    break;
                }
            }
            debug_assert!(cascaded, "wheel_len > 0 but no occupied slot");
        }
    }

    /// Pops the front of a settled level-0 slot.
    #[inline]
    fn pop_settled(&mut self, tick: u64, slot: usize) -> (SimTime, E) {
        let lv = &mut self.levels[0];
        let e = lv.slots[slot].pop_front().expect("settled slot non-empty");
        if lv.slots[slot].is_empty() {
            lv.unmark(slot);
            // Retire the emptied deque so the next cold slot reuses its
            // capacity instead of growing from scratch.
            let d = std::mem::take(&mut lv.slots[slot]);
            if d.capacity() > 0 {
                self.deque_pool[0].push(d);
            }
        }
        self.wheel_len -= 1;
        self.len -= 1;
        self.cursor = tick;
        (SimTime::from_ticks(e.time), e.body)
    }

    /// Moves every entry of `levels[l].slots[s]` down the hierarchy after
    /// advancing the cursor to the slot's window start. Entries re-land at a
    /// strictly lower level (their level-selecting XOR bits are now zero), so
    /// repeated cascades terminate.
    fn cascade(&mut self, l: usize, s: usize) {
        let span = SLOT_BITS * (l + 1) as u32;
        let window_start =
            (self.cursor & !((1u64 << span) - 1)) | ((s as u64) << (SLOT_BITS * l as u32));
        debug_assert!(window_start > self.cursor);
        self.cursor = window_start;
        let mut batch = std::mem::take(&mut self.levels[l].slots[s]);
        self.levels[l].unmark(s);
        self.wheel_len -= batch.len();
        for e in batch.drain(..) {
            debug_assert!(e.time ^ self.cursor < 1 << (SLOT_BITS * l as u32));
            self.insert(e);
        }
        if batch.capacity() > 0 {
            self.deque_pool[l].push(batch);
        }
    }

    /// Moves every overflow entry now within the cursor's region into the
    /// wheel, in `(time, seq)` heap order — which preserves FIFO seq order
    /// for same-tick runs.
    fn drain_overflow(&mut self) {
        while let Some(root) = self.overflow.heap.first() {
            if root.time ^ self.cursor >= REGION {
                break;
            }
            let e = self.overflow.pop_entry().expect("root just seen");
            self.insert(e);
        }
    }

    /// Minimum original `time` over one slot (entries placed late keep a
    /// `time` below their placement tick, so the front isn't necessarily the
    /// minimum). Slots are short; `peek_time` is not on the hot path.
    fn slot_min_time(&self, l: usize, s: usize) -> Option<SimTime> {
        self.levels[l].slots[s]
            .iter()
            .map(|e| e.time)
            .min()
            .map(SimTime::from_ticks)
    }
}

const ARITY: usize = 4;

/// Min-heap of timed events with deterministic tie-breaking.
///
/// The original hand-rolled **four-ary min-heap** event queue, kept as the
/// reference implementation for [`EventQueue`] (the timing wheel the kernel
/// now runs on): `tests/wheel_equivalence.rs` asserts both pop identical
/// `(time, seq, event)` sequences. It also backs the wheel's far-future
/// overflow, which pushes entries carrying the wheel's own sequence numbers.
///
/// # Examples
///
/// ```
/// use mobidist_net::event::EventHeap;
/// use mobidist_net::time::SimTime;
///
/// let mut q = EventHeap::new();
/// q.push(SimTime::from_ticks(5), "later");
/// q.push(SimTime::from_ticks(2), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t.ticks(), e), (2, "sooner"));
/// ```
#[derive(Debug)]
pub struct EventHeap<E> {
    heap: Vec<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventHeap {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Schedules `body` at `time`.
    pub fn push(&mut self, time: SimTime, body: E) {
        let seq = self.seq;
        self.seq += 1;
        self.push_entry(Entry {
            time: time.ticks(),
            seq,
            body,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry()
            .map(|e| (SimTime::from_ticks(e.time), e.body))
    }

    /// Keyed push: the entry carries a sequence number assigned by the
    /// caller (the wheel's overflow), bypassing this heap's own counter.
    fn push_entry(&mut self, e: Entry<E>) {
        self.heap.push(e);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_entry(&mut self) -> Option<Entry<E>> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(e)
    }

    /// Fused peek-and-pop: removes the earliest event only when it is due at
    /// or before `limit`.
    pub fn pop_if_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.heap.first()?.time > limit.ticks() {
            return None;
        }
        self.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime::from_ticks(e.time))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Empties the heap retaining its allocation and rewinding the sequence
    /// counter.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let end = (first + ARITY).min(len);
            for c in (first + 1)..end {
                if self.heap[c].key() < self.heap[min].key() {
                    min = c;
                }
            }
            if self.heap[min].key() < self.heap[i].key() {
                self.heap.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(30), 3);
        q.push(SimTime::from_ticks(10), 1);
        q.push(SimTime::from_ticks(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ticks(7);
        for i in 0..50 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ticks(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(4)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 'b');
        q.push(SimTime::from_ticks(1), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        q.push(SimTime::from_ticks(3), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn pop_if_at_or_before_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(10), 'x');
        q.push(SimTime::from_ticks(20), 'y');
        assert!(q.pop_if_at_or_before(SimTime::from_ticks(5)).is_none());
        assert_eq!(q.len(), 2);
        let (t, e) = q.pop_if_at_or_before(SimTime::from_ticks(10)).unwrap();
        assert_eq!((t.ticks(), e), (10, 'x'));
        assert!(q.pop_if_at_or_before(SimTime::from_ticks(15)).is_none());
        assert_eq!(
            q.pop_if_at_or_before(SimTime::from_ticks(20)).unwrap().1,
            'y'
        );
        assert!(q.pop_if_at_or_before(SimTime::from_ticks(99)).is_none());
    }

    #[test]
    fn pop_same_tick_if_drains_exactly_the_current_tick() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(5), 'a');
        q.push(SimTime::from_ticks(5), 'b');
        q.push(SimTime::from_ticks(5), 'c');
        q.push(SimTime::from_ticks(6), 'd');
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(5), 'a'));
        assert_eq!(
            q.pop_same_tick_if(|_| true).unwrap(),
            (SimTime::from_ticks(5), 'b')
        );
        assert_eq!(
            q.pop_same_tick_if(|_| true).unwrap(),
            (SimTime::from_ticks(5), 'c')
        );
        // Tick 6 is pending but not at the cursor tick: untouched.
        assert!(q.pop_same_tick_if(|_| true).is_none());
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(6), 'd'));
    }

    #[test]
    fn pop_same_tick_if_respects_predicate() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(9), 1);
        q.push(SimTime::from_ticks(9), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.pop_same_tick_if(|&e| e == 99).is_none());
        // The rejected entry stays and pops through the normal path.
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(9), 2));
    }

    #[test]
    fn pop_same_tick_if_sees_entries_that_cascaded_in() {
        // Tick 300 starts on level 1; popping past 100 cascades it down.
        // The same-tick invariant must hold for cascaded entries too.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(300), 'x');
        q.push(SimTime::from_ticks(300), 'y');
        q.push(SimTime::from_ticks(100), 'w');
        assert_eq!(q.pop().unwrap().1, 'w');
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(300), 'x'));
        assert_eq!(
            q.pop_same_tick_if(|_| true).unwrap(),
            (SimTime::from_ticks(300), 'y')
        );
        assert!(q.pop_same_tick_if(|_| true).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_same_tick_if_skips_late_entries() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(1000), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        // A late push parks at the front of the cursor slot with its
        // original (earlier) time; it must not be claimed as a same-tick
        // continuation even though a genuine tick-1000 entry sits behind it.
        q.push(SimTime::from_ticks(5), 'l');
        q.push(SimTime::from_ticks(1000), 'b');
        assert!(q.pop_same_tick_if(|_| true).is_none());
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(5), 'l'));
        // With the late entry out of the way the run resumes.
        assert_eq!(q.pop_same_tick_if(|_| true).unwrap().1, 'b');
    }

    #[test]
    fn pop_same_tick_if_interleaves_with_pushes() {
        // The batcher pops a run while the kernel pushes follow-on events at
        // later ticks; those pushes must not perturb the same-tick run.
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.push(SimTime::from_ticks(50), i);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime::from_ticks(55), 100);
        assert_eq!(q.pop_same_tick_if(|_| true).unwrap().1, 1);
        q.push(SimTime::from_ticks(52), 200);
        assert_eq!(q.pop_same_tick_if(|_| true).unwrap().1, 2);
        assert_eq!(q.pop_same_tick_if(|_| true).unwrap().1, 3);
        assert!(q.pop_same_tick_if(|_| true).is_none());
        assert_eq!(q.pop().unwrap().1, 200);
        assert_eq!(q.pop().unwrap().1, 100);
    }

    #[test]
    fn random_interleaving_matches_reference_sort() {
        // Deterministic pseudo-random pushes; popped order must equal the
        // stable sort by (time, insertion order).
        let mut q = EventQueue::new();
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut x = 0x2545F4914F6CDD1Du64;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 64;
            q.push(SimTime::from_ticks(t), i);
            expect.push((t, i));
        }
        expect.sort();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        // Beyond the 2^24-tick region from the cursor these land in the
        // overflow heap; popping must still interleave them correctly with
        // wheel-resident events pushed later.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(100_000_000), "far");
        q.push(SimTime::from_ticks(40_000_000), "mid");
        q.push(SimTime::from_ticks(3), "near");
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(3)));
        assert_eq!(q.pop().unwrap().1, "near");
        q.push(SimTime::from_ticks(40_000_001), "mid2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["mid", "mid2", "far"]);
    }

    #[test]
    fn same_tick_across_levels_keeps_insertion_order() {
        // Push a tick far enough ahead to sit on level 1, pop up to just
        // before it (moving the cursor), then push the same tick again — now
        // on level 0 after cascading. Insertion order must survive.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(300), 0u32);
        q.push(SimTime::from_ticks(100), 99);
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(100), 99));
        q.push(SimTime::from_ticks(300), 1);
        q.push(SimTime::from_ticks(300), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn push_at_or_before_cursor_pops_immediately() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ticks(1000), 'z');
        assert_eq!(q.pop().unwrap().1, 'z'); // cursor now 1000
        q.push(SimTime::from_ticks(5), 'a'); // earlier than cursor: late
        q.push(SimTime::from_ticks(1000), 'b'); // exactly at cursor
        q.push(SimTime::from_ticks(2000), 'c');
        let got: Vec<(u64, char)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect();
        // Late entries pop first (at the cursor) with their original times.
        assert_eq!(got, vec![(5, 'a'), (1000, 'b'), (2000, 'c')]);
    }

    #[test]
    fn clear_retains_determinism() {
        let run = |q: &mut EventQueue<u64>| -> Vec<(u64, u64)> {
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..300u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(SimTime::from_ticks(x % 100_000_000), i);
            }
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.ticks(), e))).collect()
        };
        let mut fresh = EventQueue::new();
        let expect = run(&mut fresh);
        let mut reused = EventQueue::new();
        reused.push(SimTime::from_ticks(123_456_789), 0);
        let _ = reused.pop();
        reused.push(SimTime::from_ticks(1), 0);
        reused.clear();
        assert_eq!(run(&mut reused), expect);
    }

    #[test]
    fn heap_matches_wheel_on_basic_workload() {
        let mut w = EventQueue::new();
        let mut h = EventHeap::new();
        let mut x = 0xD1B54A32D192ED03u64;
        for i in 0..400u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = SimTime::from_ticks(x % 4096);
            w.push(t, i);
            h.push(t, i);
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
