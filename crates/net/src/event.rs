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
//!   far-future timers) whose slots are FIFO chains of fixed-size chunks cut
//!   from one arena. Push and pop are O(1) amortized for the near-future
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
//! same slot, and a cascade walks its slot front to back.
//!
//! That is also why a wheel-resident item carries no sequence number. A slot
//! only ever appends at its tail and removes at its head, every item for one
//! tick reaches that tick's level-0 slot in insertion order, and so position
//! in the chain *is* the tie-break. Only the overflow heap, which orders by
//! comparison, needs `seq` — and since far-future entries enter it straight
//! from `push` and leave it only towards the wheel, the heap's own counter
//! numbers them.
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
//!
//! # Storage: one chunk arena
//!
//! All 768 slots share one slab. `items` is a single `Vec` cut into *chunks*
//! of `CAP` consecutive items; chunk `c` owns `items[c·CAP .. (c+1)·CAP]` and
//! has an 8-byte header in the parallel `chunks` vector (live range
//! `[head, tail)` plus the index of the next chunk in its chain). A slot is
//! just the `(head, tail)` chunk indices of its chain; drained chunks go on a
//! LIFO free list of `u32` indices, so the chunk a pop just emptied — still
//! in cache — is the one the next push fills. Memory therefore follows the
//! number of *pending* entries (live items plus at most one partial chunk at
//! each end of every occupied slot), not the wheel's rotation or the largest
//! burst any one slot ever saw, and a warmed-up run allocates nothing
//! (`tests/delivery_alloc.rs`).
//!
//! `CAP` is not a knob: it is derived from the item size so that a chunk is
//! about one 4 KiB page, rounded down to a power of two (64 for the sharded
//! kernel's 40-byte items; 32 for the generic kernel's under the mutex and
//! group protocols, whose events run 80–104 bytes, 64 under protocols with
//! small messages).
//!
//! Small chunks pay a cache miss per `CAP` pops and a header per `CAP`
//! items; large ones strand more of each sparsely filled slot's partial
//! chunk. One page is where the million-host run stopped getting faster
//! (DESIGN.md §7a has the ladder); whether deriving `CAP` beats a fixed 64 on
//! the small-kernel workloads' footprint is unresolved there.
//!
//! The arena grows by exactly one chunk — `CAP` items appended to `items` —
//! when the free list is empty. `Vec` doubles its *capacity*, but capacity
//! that was never written is address space, not memory: only pages a chunk
//! has touched are resident. (Pre-sizing with `None`s would touch them all.)
//! A cascade releases each source chunk the moment it is drained, so moving
//! a huge upper-level slot down needs one extra chunk per destination slot,
//! not a second copy of the slot.

use crate::time::SimTime;
use std::fmt;

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
/// "No chunk": an empty slot's head and tail, the last chunk's `next`.
const NIL: u32 = u32::MAX;

/// A wheel-resident event. No `seq`: slots are FIFO (module docs).
struct Item<E> {
    time: u64,
    body: E,
}

/// Header of one arena chunk: its live items are `[head, tail)` of its
/// `CAP`-item window, `next` the following chunk of the same slot.
#[derive(Clone, Copy)]
struct Chunk {
    next: u32,
    head: u16,
    tail: u16,
}

const FRESH: Chunk = Chunk {
    next: NIL,
    head: 0,
    tail: 0,
};

/// One wheel slot: first and last chunk of its FIFO chain, `NIL` when empty.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

const EMPTY: Slot = Slot {
    head: NIL,
    tail: NIL,
};

/// Hierarchical timing-wheel event queue with deterministic tie-breaking.
///
/// Drop-in replacement for the previous heap-backed queue: same API, same
/// total pop order `(time, insertion seq)`. See the module docs for the
/// layout, the ordering argument and the storage arena.
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
pub struct EventQueue<E> {
    /// The arena: chunk `c` owns `items[c * CAP..][..CAP]`; `None` outside
    /// its header's live range.
    items: Vec<Option<Item<E>>>,
    /// One header per chunk ever cut from `items`.
    chunks: Vec<Chunk>,
    /// Drained chunks (headers reset to [`FRESH`]), reused last-in first-out.
    free: Vec<u32>,
    /// Slot `s` of level `l` at `l * SLOTS + s`.
    slots: Box<[Slot]>,
    /// Occupancy bitmap over `slots`, one bit per slot.
    occupied: [u64; LEVELS * WORDS],
    /// Far-future entries (`time ^ cursor >= REGION`), in `(time, seq)`
    /// order by the heap's own insertion counter.
    overflow: EventHeap<E>,
    /// Tick of the last popped event; never decreases.
    cursor: u64,
    /// Total pending entries (wheel + overflow).
    len: usize,
    /// Pending entries in the wheel levels only.
    wheel_len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Compact on purpose: a kernel debug dump embeds its queue, and neither 768
/// slots nor the arena belong in it.
impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("wheel_len", &self.wheel_len)
            .field("cursor", &self.cursor)
            .field("chunks", &self.chunks.len())
            .field("free_chunks", &self.free.len())
            .field("overflow_len", &self.overflow.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Items per chunk: about one 4 KiB page of them, rounded down to a
    /// power of two so `chunk * CAP` is a shift (`| 1` only matters for an
    /// item over 4 KiB, which gets a chunk to itself). Derived, not tunable —
    /// see the module docs. At most 256 (an item is never under 16 bytes), so
    /// chunk offsets fit the header's `u16`s.
    const CAP: usize = 1 << ((4096 / std::mem::size_of::<Option<Item<E>>>()) | 1).ilog2();

    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            items: Vec::new(),
            chunks: Vec::new(),
            free: Vec::new(),
            slots: vec![EMPTY; LEVELS * SLOTS].into_boxed_slice(),
            occupied: [0; LEVELS * WORDS],
            overflow: EventHeap::new(),
            cursor: 0,
            len: 0,
            wheel_len: 0,
        }
    }

    /// Schedules `body` at `time`.
    pub fn push(&mut self, time: SimTime, body: E) {
        self.len += 1;
        let t = time.ticks();
        if t.max(self.cursor) ^ self.cursor < REGION {
            self.place(t, body);
        } else {
            self.overflow.push(time, body);
        }
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
        // Eligibility is judged read-only: cascading here and then returning
        // `None` would advance the cursor past events the caller is still
        // allowed to push.
        //
        // Fast path: a due event already sitting in a level-0 slot — it
        // precedes everything at upper levels and in the overflow, so it can
        // be popped directly without the settle rescan. Late entries sit at
        // the cursor slot, so it is the slot's tick that is judged.
        if self.wheel_len > 0 {
            let c0 = (self.cursor & SLOT_MASK) as usize;
            if let Some(s) = self.first_occupied_from(0, c0) {
                let tick = (self.cursor & !SLOT_MASK) | s as u64;
                if tick > limit.ticks() {
                    return None;
                }
                return Some(self.pop_settled(tick, s));
            }
        }
        // Slow path (cascade or overflow drain pending). Upper-level and
        // overflow entries are never cursor-clamped, so the earliest time is
        // exactly the tick `pop` will settle to.
        if self.peek_time()? > limit {
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
    // Inlined into the batcher's claim loop: left out of line it is a call
    // that makes a second call (`pop_settled`) per claimed event, and
    // `net.event.same_tick_pop_ns` reads 14 ns instead of 8.
    #[inline]
    pub fn pop_same_tick_if(&mut self, pred: impl FnOnce(&E) -> bool) -> Option<(SimTime, E)> {
        self.next_same_tick_matches(pred)
            .then(|| self.pop_settled(self.cursor, (self.cursor & SLOT_MASK) as usize))
    }

    /// Read-only twin of [`pop_same_tick_if`](Self::pop_same_tick_if): true
    /// exactly when that call would pop something. The kernel's delivery
    /// batcher probes this before committing to a coalescing run, so
    /// singleton deliveries — the common case in unicast-heavy workloads —
    /// skip the batch buffer entirely.
    #[inline]
    pub fn next_same_tick_matches(&self, pred: impl FnOnce(&E) -> bool) -> bool {
        let c = self.slots[(self.cursor & SLOT_MASK) as usize].head;
        if c == NIL {
            return false;
        }
        let front = self.items[c as usize * Self::CAP + self.chunks[c as usize].head as usize]
            .as_ref()
            .expect("chain head is live");
        // `time != cursor` also rejects late-placed entries (time < cursor)
        // parked in the cursor slot — those must pop through the normal path
        // with their original timestamps.
        front.time == self.cursor && pred(&front.body)
    }

    /// First occupied slot in pop order, read-only: level 0 from the
    /// cursor's slot on, else the lowest upper level's first slot *after*
    /// the cursor's own index (slots at or before it hold windows that
    /// already passed, so they are provably empty).
    fn first_slot(&self) -> Option<(usize, usize)> {
        (0..LEVELS).find_map(|l| {
            let ci = ((self.cursor >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
            let s = self.first_occupied_from(l, ci + (l > 0) as usize)?;
            Some((l, s))
        })
    }

    /// Time of the earliest pending event. Read-only: unlike `pop`, this
    /// never advances the cursor or cascades slots.
    pub fn peek_time(&self) -> Option<SimTime> {
        match self.first_slot() {
            Some((l, s)) => self.slot_min_time(l, s).map(SimTime::from_ticks),
            None => self.overflow.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lowest occupied slot index `>= start` on `level`, scanning the bitmap.
    #[inline]
    fn first_occupied_from(&self, level: usize, start: usize) -> Option<usize> {
        let words = &self.occupied[level * WORDS..][..WORDS];
        // Only the first word scanned is masked below `start`.
        let mut mask = !0u64 << (start % 64);
        for (w, &word) in words.iter().enumerate().skip(start / 64) {
            if word & mask != 0 {
                return Some(w * 64 + (word & mask).trailing_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// A chunk with a [`FRESH`] header: the most recently released one, else
    /// `CAP` more items appended to the arena (see the module docs for why
    /// one chunk at a time).
    fn grab(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let c = self.chunks.len();
            assert!(c < NIL as usize, "arena under 2^32 chunks");
            self.chunks.push(FRESH);
            self.items.resize_with((c + 1) * Self::CAP, || None);
            c as u32
        })
    }

    /// Returns drained chunk `c` (all items taken) to the free list.
    fn release(&mut self, c: u32) {
        self.chunks[c as usize] = FRESH;
        self.free.push(c);
    }

    /// Appends an event to the slot its time selects relative to the current
    /// cursor, which must be within the wheel region. Does not touch `len`.
    #[inline]
    fn place(&mut self, time: u64, body: E) {
        // Times at or before the cursor are placed *at* the cursor tick;
        // the entry keeps its original `time` for the pop result and for
        // ordering among equally-late entries (all end up FIFO in the cursor
        // slot, i.e. seq order — and their `time`s are all <= cursor, so
        // (time, seq) order among *future* events is unaffected).
        let place = time.max(self.cursor);
        let x = place ^ self.cursor;
        debug_assert!(x < REGION);
        // The level is the index of `x`'s highest non-zero byte.
        let level = ((x | 1).ilog2() / SLOT_BITS) as usize;
        let si = level * SLOTS + ((place >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let mut c = self.slots[si].tail;
        if c == NIL || self.chunks[c as usize].tail as usize == Self::CAP {
            let fresh = self.grab();
            if c == NIL {
                self.slots[si].head = fresh;
                self.occupied[si / 64] |= 1u64 << (si % 64);
            } else {
                self.chunks[c as usize].next = fresh;
            }
            self.slots[si].tail = fresh;
            c = fresh;
        }
        let chunk = &mut self.chunks[c as usize];
        self.items[c as usize * Self::CAP + chunk.tail as usize] = Some(Item { time, body });
        chunk.tail += 1;
        self.wheel_len += 1;
    }

    /// Advances wheel state (cascades, overflow drain) until the earliest
    /// pending event sits in a level-0 slot; returns `(tick, slot)`.
    /// Removes nothing and pushes nothing, so calling it twice is idempotent.
    fn settle(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        loop {
            match self.first_slot() {
                Some((0, s)) => return Some(((self.cursor & !SLOT_MASK) | s as u64, s)),
                Some((l, s)) => self.cascade(l, s),
                None => {
                    // Whole wheel empty: jump to the overflow minimum and
                    // pull in everything that now fits the 2^24 region.
                    // Overflow times always exceed any wheel/cursor time
                    // (they differ in bits >= 24), so no pending event is
                    // skipped.
                    let t = self.overflow.heap[0].time;
                    debug_assert!(t >= self.cursor);
                    self.cursor = t;
                    self.drain_overflow();
                    debug_assert!(self.wheel_len > 0);
                }
            }
        }
    }

    /// Pops the front of a settled level-0 slot, releasing its chunk if that
    /// drained it.
    #[inline]
    fn pop_settled(&mut self, tick: u64, slot: usize) -> (SimTime, E) {
        let c = self.slots[slot].head;
        let chunk = &mut self.chunks[c as usize];
        let item = self.items[c as usize * Self::CAP + chunk.head as usize]
            .take()
            .expect("settled slot non-empty");
        chunk.head += 1;
        if chunk.head == chunk.tail {
            // A partial chunk is always its chain's last, so a drained chunk
            // either hands over to a successor or leaves the slot empty.
            let next = chunk.next;
            self.release(c);
            self.slots[slot].head = next;
            if next == NIL {
                self.slots[slot].tail = NIL;
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
            }
        }
        self.wheel_len -= 1;
        self.len -= 1;
        self.cursor = tick;
        (SimTime::from_ticks(item.time), item.body)
    }

    /// Detaches slot `si`'s chain and hands its items to `f` front to back,
    /// releasing each chunk as soon as it is drained — so whatever `f`
    /// places can reuse it.
    fn drain_slot(&mut self, si: usize, mut f: impl FnMut(&mut Self, Item<E>)) {
        let mut c = std::mem::replace(&mut self.slots[si], EMPTY).head;
        self.occupied[si / 64] &= !(1u64 << (si % 64));
        while c != NIL {
            let Chunk { next, head, tail } = self.chunks[c as usize];
            for i in head..tail {
                let item = self.items[c as usize * Self::CAP + i as usize].take();
                f(self, item.expect("live range holds items"));
            }
            self.release(c);
            c = next;
        }
    }

    /// Moves every entry of level `l`'s slot `s` down the hierarchy after
    /// advancing the cursor to the slot's window start. Entries re-land at a
    /// strictly lower level (their level-selecting XOR bits are now zero), so
    /// repeated cascades terminate.
    fn cascade(&mut self, l: usize, s: usize) {
        let span = SLOT_BITS * (l + 1) as u32;
        let window_start =
            (self.cursor & !((1u64 << span) - 1)) | ((s as u64) << (SLOT_BITS * l as u32));
        debug_assert!(window_start > self.cursor);
        self.cursor = window_start;
        self.drain_slot(l * SLOTS + s, |q, item| {
            debug_assert!(item.time ^ q.cursor < 1 << (SLOT_BITS * l as u32));
            q.wheel_len -= 1;
            q.place(item.time, item.body);
        });
    }

    /// Moves every overflow entry now within the cursor's region into the
    /// wheel, in `(time, seq)` heap order — which preserves FIFO seq order
    /// for same-tick runs.
    fn drain_overflow(&mut self) {
        while let Some(root) = self.overflow.heap.first() {
            if root.time ^ self.cursor >= REGION {
                break;
            }
            let (time, body) = self.overflow.pop().expect("root just seen");
            self.place(time.ticks(), body);
        }
    }

    /// Minimum original `time` over one occupied slot (entries placed late
    /// keep a `time` below their placement tick, so the front isn't
    /// necessarily the minimum). `peek_time` is not on the hot path.
    fn slot_min_time(&self, l: usize, s: usize) -> Option<u64> {
        let next = |&c: &u32| Some(self.chunks[c as usize].next).filter(|&n| n != NIL);
        std::iter::successors(Some(self.slots[l * SLOTS + s].head), next)
            .flat_map(|c| &self.items[c as usize * Self::CAP..][..Self::CAP])
            .flatten()
            .map(|item| item.time)
            .min()
    }

    /// `(chunks cut from the arena, chunks on the free list)`.
    #[cfg(test)]
    fn arena(&self) -> (usize, usize) {
        (self.chunks.len(), self.free.len())
    }
}

const ARITY: usize = 4;

/// A heap-resident event; `seq` breaks ties among equal times.
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

/// Min-heap of timed events with deterministic tie-breaking.
///
/// The original hand-rolled **four-ary min-heap** event queue, kept as the
/// reference implementation for [`EventQueue`] (the timing wheel the kernel
/// now runs on): `tests/wheel_equivalence.rs` asserts both pop identical
/// `(time, seq, event)` sequences. It also backs the wheel's far-future
/// overflow.
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
        self.heap.push(Entry {
            time: time.ticks(),
            seq,
            body,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let e = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((SimTime::from_ticks(e.time), e.body))
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

    #[test]
    fn debug_is_a_summary_and_a_drained_arena_is_all_free() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.push(SimTime::from_ticks(i * 7919 % (1 << 26)), i);
        }
        assert!(format!("{q:?}").len() < 256, "{q:?}");
        while q.pop().is_some() {}
        let (cut, free) = q.arena();
        assert!(cut > 0 && free == cut, "{q:?}");
    }

    #[test]
    fn steady_hold_does_not_grow_the_arena() {
        // The classic hold model at depth 1024: pop one, push it back a
        // pseudo-random delay later. Past warm-up every push must find a
        // chunk on the free list.
        let mut q = EventQueue::new();
        for i in 0..1_024u64 {
            q.push(SimTime::from_ticks(i * 31 % 5_000), i);
        }
        let mut warm = 0;
        for i in 0..110_000u64 {
            if i == 10_000 {
                warm = q.arena().0;
            }
            let (t, e) = q.pop().unwrap();
            q.push(t + (e + i).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 5_000, e);
        }
        assert_eq!(q.arena().0, warm, "{q:?}");
    }

    #[test]
    fn cascade_reuses_the_chunks_it_drains() {
        // 200k entries in one level-1 slot, spread over all 256 of its
        // ticks: cascading them must recycle the source chunks as it goes
        // and so need at most one extra (partial) chunk per destination.
        let mut q = EventQueue::new();
        for i in 0..200_000u64 {
            q.push(SimTime::from_ticks(256 + i % 256), i);
        }
        let before = q.arena().0;
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(256), 0));
        assert!(q.arena().0 <= before + 256, "{before} chunks, then {q:?}");
    }
}
