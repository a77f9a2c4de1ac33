//! Space-sharded simulation kernel for million-host scale runs.
//!
//! The generic [`kernel`](crate::kernel) executes one global event queue —
//! ideal for protocol work, but a single thread and a global total order are
//! the wrong shape for populations six orders of magnitude above the paper's
//! examples. This module shards the *space* of the simulation instead: the
//! `M` MSS cells are partitioned across `S` workers by initial host weight
//! (see [`plan_partition`]), each worker owns the hosts currently resident
//! in its cells, and the workers advance a shared logical clock with
//! **conservative time synchronisation**.
//!
//! # Lookahead and windows
//!
//! The wired plane gives the sync protocol its lookahead: its latency is a
//! constant 5 ticks, and no influence can cross a cell boundary in less than
//! that (`W`). Simulated time is cut into windows `[kW, (k+1)W)`. Within a
//! window every worker runs its own event queue independently — any event it
//! pops was already enqueued locally, and nothing a *remote* worker does in
//! the same window can affect it, because every cross-cell transfer sent in
//! window `k` is timestamped `≥ (k+1)W` (all cross-cell delays are clamped
//! to `≥ W`).
//!
//! Workers exchange transfers over per-`(src, dst)` double-buffered SPSC
//! [`Lane`]s and meet at **one** sense-reversing [`EpochBarrier`] per
//! window (the seed implementation paid two `std::sync::Barrier` rendezvous
//! and a mutex per send). Each barrier round `r` runs, per worker:
//!
//! 1. **drain** — swap out the buffer every producer filled in round
//!    `r - 1` (the lane's epoch check proves nobody is still writing it)
//!    and push the transfers into the local queue in
//!    `(src_cell, send order)` order — one stable counting sort by source
//!    cell, linear in transfers plus cells — leaving the order of arrival
//!    times to the queue itself;
//! 2. **process** — pop all events `< (k+1)W`, appending outgoing transfers
//!    to the round-`r` side of each lane (no lock: one producer per lane);
//! 3. **publish + barrier** — release the round on every outgoing lane,
//!    post the worker's next pending tick, and cross the barrier once.
//!
//! After the barrier every worker sees every worker's next pending tick and
//! deterministically **fast-forwards**: if the earliest pending event or
//! in-flight arrival anywhere lies in window `j > k + 1`, the next round
//! processes window `j` directly — one barrier round instead of `j - k`
//! — and the skipped stretch is recorded on the next
//! [`TraceEvent::ShardSync`]'s `skipped` count.
//!
//! # Determinism
//!
//! A sharded run is **bit-identical at every worker count**, which the
//! `shard_equivalence` suite pins. The induction:
//!
//! * per-host decisions draw from a *stateless* RNG keyed by
//!   `(seed, host, decision counter)` — no draw interleaving exists to
//!   depend on;
//! * hosts interact only with the cell they occupy, and a host's entire
//!   record travels inside its single pending event, so no two workers ever
//!   share mutable host state;
//! * **every** cross-cell transfer goes through a lane, *including*
//!   transfers whose destination cell lives on the sending worker — the
//!   queue/lane residency of any in-flight event is therefore identical
//!   at every `S`;
//! * every worker seeds its own queue by replaying the whole placement in
//!   host order and keeping the hosts whose cell it owns, so per-queue
//!   insertion order is host order at every `S`;
//! * lane drains commit in `(source cell, index in lane)` order. A lane has
//!   one producer, so index order *is* send order; producers own disjoint
//!   cells, so all of a cell's transfers share one lane. The order is
//!   therefore total — the commit order at a destination never depends on
//!   thread timing *or* on which lane carried the transfer — and the pops
//!   it yields follow `(arrival, source cell, send order)`, as a commit
//!   sorted by that key would: (1) the queue orders two different ticks by
//!   time, never by insertion; (2) every drained transfer arrives at
//!   `≥ (k+1)W` for the window `k` it was sent in, past the cursor (the
//!   last popped tick, `< (k+1)W`), so none falls behind the wheel's
//!   floor; (3) transfers sharing a tick land FIFO in that tick's slot (past
//!   2²⁴ ticks, in the overflow heap under its own insertion counter) in
//!   `(source cell, send order)`, behind entries already queued at that
//!   tick and ahead of entries pushed later;
//! * the fast-forward jump is a pure function of the global minimum pending
//!   tick, which is partition-independent (the union of queue contents and
//!   in-flight transfers does not depend on who owns what), so every worker
//!   — and every shard count — skips exactly the same windows;
//! * cell ownership is planned once, before the workers start, from the
//!   spec alone; ledger counters are commutative sums
//!   ([`CostLedger::merge`]) and the final digest hashes per-host state in
//!   `MhId` order — each worker sorts its resident rows, the coordinator
//!   merges them by asking which worker holds the next id and *panics*,
//!   in release builds too, unless every host turns up exactly once — so
//!   neither depends on how cells were partitioned.
//!
//! # Workload and charging
//!
//! The sharded kernel runs the paper's *mobility churn* workload: every MH
//! alternates an exponential dwell in a cell with an exponential gap
//! between cells, and each inter-cell `join(mh, prev)` makes the new MSS
//! send one wired handoff notification back to the previous MSS. Wired
//! messages are charged **at delivery** (the receiving worker owns the
//! charge), and each delivery emits one
//! [`TraceEvent::ShardRecv`] — so `tracereport --check`'s
//! `fixed_msgs` identity holds per shard with no special casing. Leaves and
//! joins emit the ordinary `HandoffBegin`/`HandoffEnd` events, keeping the
//! `moves`/`handoffs` identities intact, and every *processed* window
//! boundary emits a [`TraceEvent::ShardSync`] stamped at the window-end
//! time so per-shard `(t, seq)` stays strictly increasing; summing
//! `1 + skipped` over a shard's syncs recovers the full window count.
//!
//! # Memory
//!
//! There is no per-host array at all: a host's record (20 bytes) lives
//! inside its one pending event, so host state is one queue entry per host
//! — [`ScaleReport::state_bytes`] reports a *nominal* entry size, 44 B.
//! What a million-host run actually keeps *resident* is ≈ 40 B/host at two
//! workers (38–49 at one to eight), below that nominal figure at one and
//! two: the wheel's arena holds each entry in 32 B (its time cut to the low
//! 32 bits) and stays within about 6 % of the live entries, and the rest is
//! the lanes and the process itself (`scalecheck` prints both figures;
//! DESIGN.md §6 has the census). The final-state rows the digest is taken
//! over cost nothing extra: a row has the arena slot's layout (32 B, 8-byte
//! aligned; it leaves out the home cell, which the digest recomputes from
//! the id), so `EventQueue::into_unordered` writes them over the arena in
//! place instead of popping the wheel into a second buffer as large as the
//! arena.
//! The only allocations on the hot path are the amortised growth
//! of the queues, the lane buffers and the commit-order scratch (8 B per
//! transfer; its `M + 1` cell offsets are allocated once). Lane buffers
//! circulate between each lane and its consumer's drain scratch
//! (`mem::swap`, never a fresh `Vec`), which a debug assertion pins: a
//! drained buffer's capacity never shrinks across rounds, as it would if
//! one were reallocated.
//!
//! # Examples
//!
//! ```
//! use mobidist_net::shard::{run_scale, ScaleSpec};
//!
//! let spec = ScaleSpec::new(8, 200).with_seed(7);
//! let a = run_scale(&spec, 1);
//! let b = run_scale(&spec, 4);
//! assert_eq!(a.digest, b.digest);
//! assert_eq!(a.ledger, b.ledger);
//! ```

use crate::cost::CostModel;
use crate::event::EventQueue;
use crate::fingerprint::{CanonHasher, Fingerprint};
use crate::ids::{MhId, MssId};
use crate::lanes::{EpochBarrier, Lane};
use crate::ledger::CostLedger;
use crate::mobility::{MoveCtx, MovePattern};
use crate::obs::{TraceEvent, TraceSink, Tracer};
use crate::rng::SimRng;
use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};

/// The fixed wired MSS↔MSS latency in ticks. No cross-cell influence travels
/// faster, so it is also the conservative lookahead `W`.
const W: u64 = 5;

/// Canonical description of one scale-curve run (experiment E12): the
/// mobility-churn parameters a run varies. Every leaving MH picks its next
/// cell uniformly ([`MovePattern::UniformRandom`]), host `h` starts in cell
/// `h mod M`, and the ledger charges with [`CostModel::default`].
///
/// The worker count is deliberately **not** part of the spec: results are
/// independent of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSpec {
    /// Number of MSS cells, `M`.
    pub num_mss: usize,
    /// Number of mobile hosts, `N`.
    pub num_mh: usize,
    /// Mean ticks an MH dwells in a cell before leaving.
    pub mean_dwell: u64,
    /// Mean ticks an MH spends between cells (clamped to the lookahead).
    pub mean_gap: u64,
    /// Simulated horizon in ticks; events at or after it never execute.
    pub horizon: u64,
    /// Root seed; together with the other fields it fully determines the
    /// run at every shard count.
    pub seed: u64,
}

impl ScaleSpec {
    /// A mobility-churn spec over `m` cells and `n` hosts with the default
    /// dwell/gap/horizon used by the scale curve.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n == 0`.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0, "at least one MSS is required");
        assert!(n > 0, "at least one MH is required");
        ScaleSpec {
            num_mss: m,
            num_mh: n,
            mean_dwell: 500,
            mean_gap: 20,
            horizon: 2_000,
            seed: 0,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the simulated horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// Replaces the mobility dwell/gap means.
    pub fn with_churn(mut self, mean_dwell: u64, mean_gap: u64) -> Self {
        self.mean_dwell = mean_dwell;
        self.mean_gap = mean_gap;
        self
    }

    /// Closed-form expected move count: each host completes one move per
    /// `mean_dwell + mean_gap` ticks on average. E12 reports measured
    /// moves against this prediction as a model-fidelity check.
    pub fn predicted_moves(&self) -> u64 {
        self.num_mh as u64 * self.horizon / (self.mean_dwell + self.mean_gap).max(1)
    }

    /// Host `h`'s initial cell, `h mod M`: the one definition the seeding
    /// loop and the partition planner share, so both always agree on where
    /// every host starts.
    fn initial_cell(&self, h: usize) -> u32 {
        (h % self.num_mss) as u32
    }
}

/// Result of one sharded scale run. Every field except
/// [`shards`](Self::shards) is identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Merged cost ledger (per-shard ledgers folded with
    /// [`CostLedger::merge`]).
    pub ledger: CostLedger,
    /// Simulation events executed (leaves + joins + wired deliveries).
    pub events: u64,
    /// Conservative-sync windows the run advanced through (including
    /// fast-forwarded ones).
    pub windows: u64,
    /// Windows the fast-forward skipped in bulk instead of paying a
    /// barrier round for. The skip schedule is a pure function of
    /// simulation state, so this too is identical at every worker count.
    pub skipped_windows: u64,
    /// Canonical digest of the complete final state — every host record
    /// (in `MhId` order) plus every undelivered wired message.
    pub digest: Fingerprint,
    /// Nominal host-state footprint: one queue entry per host, counted as
    /// `size_of::<SEv>()` plus 16 bytes of scheduling overhead — a
    /// convention E12's byte-pinned `B/host` column fixes, not a layout (the
    /// wheel's arena stores the event and its time in 32 bytes). The scale
    /// curve divides this by `N`; it is *not* the process's resident size
    /// (see the module docs, "Memory").
    pub state_bytes: u64,
    /// Worker count actually used (requested count clamped to `[1, M]`).
    pub shards: usize,
}

/// The complete per-host state, resident inside the host's single pending
/// event: current (or, mid-move, target) cell, home base, the stateless-RNG
/// decision counter, and completed moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HostRec {
    id: u32,
    home: u32,
    cell: u32,
    ctr: u32,
    moves: u32,
}

/// A worker-local scheduled event.
#[derive(Debug, Clone, Copy)]
enum SEv {
    /// The host leaves `rec.cell`.
    Leave(HostRec),
    /// The host joins `rec.cell`, arriving from cell `.1`.
    Join(HostRec, u32),
    /// A wired handoff notification from cell `.0` arrives at cell `.1`.
    Wired(u32, u32),
}

/// A cross-cell message in flight between workers. There is no send
/// sequence field: a lane has one producer, so a transfer's position in its
/// lane *is* its send order (see [`Inbox::drain`]).
#[derive(Debug, Clone, Copy)]
struct Transfer {
    arrival: u64,
    src_cell: u32,
    ev: SEv,
}

/// The planner's fixed cell→worker assignment for one run.
///
/// Computed once by [`plan_partition`] before the workers start and never
/// revised — results are partition-independent (see the module docs), so
/// the plan is free to chase balance without risking determinism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    /// `owner[cell]` is the worker index that owns the cell.
    pub owner: Vec<u32>,
    /// Initial host count owned by each worker (the bin-packing loads).
    pub load: Vec<u64>,
}

/// Host-weighted partition of cells over workers: greedy bin-packing on
/// initial occupancy.
///
/// Cells are taken heaviest-first (ties by cell id) and each is assigned to
/// the currently lightest worker (ties by worker id), so every worker's
/// initial load stays within one cell's weight of every other worker's,
/// even when the workers do not divide the cells evenly. On the round-robin
/// placement this is a scatter of cells over workers — and since **all**
/// transfers travel through lanes, ownership locality buys nothing a
/// contiguous layout would miss.
///
/// `shards` is clamped to `[1, M]` exactly as [`run_scale`] clamps it.
pub fn plan_partition(spec: &ScaleSpec, shards: usize) -> PartitionPlan {
    let m = spec.num_mss;
    let shards = shards.clamp(1, m);
    let mut weight = vec![0u64; m];
    for h in 0..spec.num_mh {
        weight[spec.initial_cell(h) as usize] += 1;
    }
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_unstable_by_key(|&c| (std::cmp::Reverse(weight[c as usize]), c));
    let mut owner = vec![0u32; m];
    let mut load = vec![0u64; shards];
    for c in order {
        let lightest = (0..shards).min_by_key(|&s| (load[s], s)).unwrap_or(0);
        owner[c as usize] = lightest as u32;
        load[lightest] += weight[c as usize];
    }
    PartitionPlan { owner, load }
}

/// The stateless per-decision RNG: host id in the high seed bits, decision
/// counter in the low bits, decorrelated by `seed_from`'s splitmix rounds.
#[inline]
fn decision_rng(seed: u64, id: u32, ctr: u32) -> SimRng {
    SimRng::seed_from(seed ^ ((id as u64) << 32) ^ ctr as u64)
}

/// One resident host flattened for digesting:
/// `(id, tag, due, cell, ctr, moves, prev)`. The home cell is left out: it
/// is always [`ScaleSpec::initial_cell`] of the id, which the digest hashes
/// in its place. It has the layout of the wheel's arena slot, so
/// [`final_state`] writes the rows over the arena (a widened row fails
/// [`EventQueue::into_unordered`]'s const assertion).
type HostRow = (u32, u8, u64, u32, u32, u32, u32);

/// Takes a worker's final state out of its queue, which by then holds every
/// resident host and undelivered wire: the host rows, sorted by id here on
/// the worker so the coordinator only has to merge, and the wires, in no
/// particular order. The rows reuse the queue's arena in place.
fn final_state(queue: EventQueue<SEv>) -> (Vec<HostRow>, Vec<(u64, u32, u32)>) {
    let mut wires = Vec::new();
    let mut hosts = queue.into_unordered(|t, ev| match ev {
        SEv::Leave(r) => Some((r.id, 0, t.ticks(), r.cell, r.ctr, r.moves, u32::MAX)),
        SEv::Join(r, prev) => Some((r.id, 1, t.ticks(), r.cell, r.ctr, r.moves, prev)),
        SEv::Wired(from, to) => {
            wires.push((t.ticks(), from, to));
            None
        }
    });
    hosts.sort_unstable_by_key(|row: &HostRow| row.0);
    (hosts, wires)
}

/// Everything a worker hands back when its windows are done.
struct ShardOut {
    ledger: CostLedger,
    events: u64,
    skipped: u64,
    /// Resident hosts, sorted by id.
    hosts: Vec<HostRow>,
    /// `(due, from, to)` for each undelivered wired notification.
    wires: Vec<(u64, u32, u32)>,
    sink: Option<Box<dyn TraceSink>>,
}

/// Runs `spec` across `shards` workers with tracing disabled.
///
/// See [`run_scale_traced`] for the full contract.
pub fn run_scale(spec: &ScaleSpec, shards: usize) -> ScaleReport {
    run_scale_traced(spec, shards, Vec::new()).0
}

/// Runs `spec` across `shards` workers, feeding each worker's trace into
/// its own [`TraceSink`].
///
/// `sinks` must be empty (tracing disabled, zero per-event cost) or hold
/// exactly one sink per *effective* worker (`shards` clamped to `[1, M]`).
/// Each shard is recorded as an independent run — dense `seq` from 0,
/// strictly increasing `(t, seq)`, and a `finish` carrying that shard's own
/// ledger — so `tracereport --check` validates every shard separately. The
/// sinks are returned after their `finish` so callers can inspect or drop
/// (and thereby flush) them.
///
/// # Panics
///
/// Panics if `sinks` is non-empty with a length other than the effective
/// worker count, or if a worker thread panics.
pub fn run_scale_traced(
    spec: &ScaleSpec,
    shards: usize,
    sinks: Vec<Box<dyn TraceSink>>,
) -> (ScaleReport, Vec<Box<dyn TraceSink>>) {
    let m = spec.num_mss;
    let n = spec.num_mh;
    let shards = shards.clamp(1, m);
    assert!(
        sinks.is_empty() || sinks.len() == shards,
        "expected 0 or {shards} trace sinks, got {}",
        sinks.len()
    );
    let windows = spec.horizon.div_ceil(W);
    let plan = plan_partition(spec, shards);

    // One SPSC lane per ordered worker pair, a single fused barrier, and a
    // per-worker slot pair for the fast-forward minimum. The slots are
    // double-buffered by round parity like the lane buffers: a worker one
    // round ahead writes the other parity, so slow workers still read an
    // intact snapshot of the round they just crossed the barrier for.
    let lanes: Vec<Lane<Transfer>> = (0..shards * shards).map(|_| Lane::new()).collect();
    let barrier = EpochBarrier::new(shards);
    let mins: Vec<AtomicU64> = (0..2 * shards).map(|_| AtomicU64::new(u64::MAX)).collect();
    let owner = &plan.owner;
    let lanes = &lanes;
    let barrier = &barrier;
    let mins = &mins;

    let mut slots: Vec<Option<Box<dyn TraceSink>>> = if sinks.is_empty() {
        (0..shards).map(|_| None).collect()
    } else {
        sinks.into_iter().map(Some).collect()
    };

    let mut outs: Vec<ShardOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .drain(..)
            .enumerate()
            .map(|(shard, sink)| {
                scope.spawn(move || {
                    run_shard(
                        spec, shard, shards, windows, owner, lanes, barrier, mins, sink,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    });

    // Merge: ledgers are commutative sums; the digest hashes hosts in MhId
    // order and wires in (due, from, to) order, so neither depends on the
    // partition.
    let mut ledger = CostLedger::new(0);
    let mut events = 0;
    let mut wires = Vec::new();
    let mut done_sinks = Vec::new();
    let skipped_windows = outs.first().map_or(0, |o| o.skipped);
    for out in &mut outs {
        debug_assert_eq!(
            out.skipped, skipped_windows,
            "fast-forward schedule must be global"
        );
        ledger.merge(&out.ledger);
        events += out.events;
        wires.append(&mut out.wires);
        if let Some(s) = out.sink.take() {
            done_sinks.push(s);
        }
    }
    wires.sort_unstable();
    let parts: Vec<&[HostRow]> = outs.iter().map(|o| &o.hosts[..]).collect();
    let digest = digest_state(spec, &parts, &wires);

    let entry = std::mem::size_of::<SEv>() + 2 * std::mem::size_of::<u64>();
    let report = ScaleReport {
        ledger,
        events,
        windows,
        skipped_windows,
        digest,
        state_bytes: n as u64 * entry as u64,
        shards,
    };
    (report, done_sinks)
}

/// Hashes the complete final state: every host row in `MhId` order (with
/// its home cell, `spec.initial_cell(id)`, after the cell), then every
/// undelivered wire. `parts` are the workers' resident rows, each
/// sorted by id; the merge asks "which worker holds id `next`" and streams
/// the row straight into the hasher, so no merged copy is ever built.
///
/// # Panics
///
/// Panics unless every id in `0..N` appears exactly once across `parts` —
/// a lost or duplicated host is a kernel bug, and must not become a
/// silently wrong digest in a release build.
fn digest_state(spec: &ScaleSpec, parts: &[&[HostRow]], wires: &[(u64, u32, u32)]) -> Fingerprint {
    let n = spec.num_mh;
    let rows: usize = parts.iter().map(|p| p.len()).sum();
    assert_eq!(rows, n, "every host must appear exactly once");
    let mut hasher = CanonHasher::new();
    hasher.write_u64(n as u64);
    let mut cursors = vec![0usize; parts.len()];
    for next in 0..n as u32 {
        let (id, tag, due, cell, ctr, moves, prev) = parts
            .iter()
            .zip(&mut cursors)
            .find_map(|(part, cur)| {
                let row = part.get(*cur).filter(|row| row.0 == next)?;
                *cur += 1;
                Some(*row)
            })
            .unwrap_or_else(|| panic!("host {next} was lost or duplicated"));
        let home = spec.initial_cell(id as usize);
        for v in [id as u64, tag as u64, due, cell as u64, home as u64] {
            hasher.write_u64(v);
        }
        hasher.write_u64(ctr as u64);
        hasher.write_u64(moves as u64);
        hasher.write_u64(prev as u64);
    }
    hasher.write_u64(wires.len() as u64);
    for &(due, from, to) in wires {
        hasher.write_u64(due);
        hasher.write_u64(from as u64);
        hasher.write_u64(to as u64);
    }
    hasher.finish()
}

/// A worker's inbound side: its `S` lanes, one pooled drain scratch per
/// lane, and the commit-order scratch.
struct Inbox<'a> {
    /// `lanes[src]` carries what worker `src` sends to this worker.
    lanes: Vec<&'a Lane<Transfer>>,
    /// Swapped with the lane buffer each round (`mem::swap`, never a fresh
    /// `Vec`), so the steady state allocates nothing.
    bufs: Vec<Vec<Transfer>>,
    /// Counting-sort offsets, `M + 1` entries: per-cell transfer counts,
    /// then (prefix-summed) each source cell's first position in `order`.
    starts: Vec<u32>,
    /// `(lane, index-in-lane)` of every inbound transfer, grouped by source
    /// cell in cell-id order, send order within a cell.
    order: Vec<(u32, u32)>,
    /// Each lane's two buffers and its drain scratch rotate positions in a
    /// 3-cycle (one swap per drain), so the same allocation comes back every
    /// third drain — and a `Vec`'s capacity never shrinks. Watermarking
    /// `drain count mod 3` per lane pins that the pool really is recycled
    /// (a fresh `Vec` would re-enter at capacity 0).
    #[cfg(debug_assertions)]
    caps: Vec<usize>,
}

impl<'a> Inbox<'a> {
    /// An inbox over `lanes` for transfers sent from `cells` source cells.
    fn new(lanes: Vec<&'a Lane<Transfer>>, cells: usize) -> Self {
        Inbox {
            bufs: lanes.iter().map(|_| Vec::new()).collect(),
            starts: vec![0; cells + 1],
            order: Vec::new(),
            #[cfg(debug_assertions)]
            caps: vec![0; 3 * lanes.len()],
            lanes,
        }
    }

    /// Takes everything the producers published in `round` and hands it to
    /// `commit` in `(src_cell, send order)` order — a stable counting sort
    /// by source cell, linear in transfers plus cells. Arrival times are
    /// left to the caller's queue, which pops in `(time, insertion)` order,
    /// so the commit only has to fix the order of transfers that share an
    /// arrival tick (see the module docs, "Determinism").
    ///
    /// A lane has one producer, so a transfer's index in its lane is its
    /// send order; producers own disjoint cells, so all of one cell's
    /// transfers sit in its owner's lane, and scanning the lanes in order
    /// keeps them in send order. The order is therefore total and
    /// independent of which lane carried what — i.e. of the partition.
    fn drain(&mut self, round: u64, owner: &[u32], mut commit: impl FnMut(u64, SEv)) {
        self.starts.fill(0);
        let mut total = 0;
        for (src, (lane, buf)) in self.lanes.iter().zip(&mut self.bufs).enumerate() {
            lane.take(round, buf);
            #[cfg(debug_assertions)]
            {
                let slot = 3 * src + (round % 3) as usize;
                debug_assert!(
                    buf.capacity() >= self.caps[slot],
                    "lane buffer was reallocated instead of recycled"
                );
                self.caps[slot] = buf.capacity();
            }
            for tr in buf.iter() {
                debug_assert_eq!(owner[tr.src_cell as usize] as usize, src);
                self.starts[tr.src_cell as usize + 1] += 1;
            }
            total += buf.len();
        }
        assert!(total <= u32::MAX as usize, "inbox outgrew its offsets");
        for c in 1..self.starts.len() {
            self.starts[c] += self.starts[c - 1];
        }
        self.order.resize(total, (0, 0));
        for (src, buf) in self.bufs.iter().enumerate() {
            for (i, tr) in buf.iter().enumerate() {
                let at = &mut self.starts[tr.src_cell as usize];
                self.order[*at as usize] = (src as u32, i as u32);
                *at += 1;
            }
        }
        for &(src, i) in &self.order {
            let tr = &self.bufs[src as usize][i as usize];
            commit(tr.arrival, tr.ev);
        }
        self.bufs.iter_mut().for_each(Vec::clear);
    }
}

/// One worker: processes its cells' events window by window, exchanging
/// cross-cell transfers over the SPSC lanes at the fused barrier.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    spec: &ScaleSpec,
    shard: usize,
    shards: usize,
    windows: u64,
    owner: &[u32],
    lanes: &[Lane<Transfer>],
    barrier: &EpochBarrier,
    mins: &[AtomicU64],
    sink: Option<Box<dyn TraceSink>>,
) -> ShardOut {
    let m = spec.num_mss;
    let cost = CostModel::default();
    let mut ledger = CostLedger::new(0);
    let mut events = 0u64;
    let mut tracer = Tracer::new(sink);
    let mut total_skipped = 0u64;
    let mut inbox = Inbox::new(
        (0..shards)
            .map(|src| &lanes[src * shards + shard])
            .collect(),
        m,
    );

    // Seed the hosts whose cell this worker owns. Every worker replays the
    // whole placement in host order (⇒ identical per-queue insertion order
    // at every shard count) and keeps only its own, so the build runs in
    // parallel and first-touches the wheel on the thread that will use it.
    // Host h dwells in its placement cell, then leaves; decision 0 is the
    // initial dwell draw.
    let mut queue = EventQueue::new();
    for h in 0..spec.num_mh {
        let cell = spec.initial_cell(h);
        if owner[cell as usize] as usize == shard {
            let id = h as u32;
            let dwell = decision_rng(spec.seed, id, 0).exp_delay(spec.mean_dwell);
            let rec = HostRec {
                id,
                home: cell,
                cell,
                ctr: 1,
                moves: 0,
            };
            queue.push(SimTime::from_ticks(dwell), SEv::Leave(rec));
        }
    }

    // `round` counts barrier rounds (= processed windows) and selects lane
    // buffer parity; `k` is the simulation window the round processes —
    // they diverge exactly when the fast-forward skips windows.
    let mut round = 0u64;
    let mut k = 0u64;
    let mut skipped = 0u64;
    while k < windows {
        // Drain everything the producers published last round. Transfers
        // sent in window k' arrive ≥ (k'+1)W, so draining at entry of the
        // next *processed* window is always timely.
        if round > 0 {
            inbox.drain(round - 1, owner, |arrival, ev| {
                queue.push(SimTime::from_ticks(arrival), ev)
            });
        }
        let end = ((k + 1) * W).min(spec.horizon);
        let limit = SimTime::from_ticks(end - 1);
        // Earliest arrival among this round's sends, for the fast-forward.
        let mut sent_min = u64::MAX;

        macro_rules! send {
            ($dst_cell:expr, $arrival:expr, $src_cell:expr, $sev:expr) => {{
                let arrival: u64 = $arrival;
                let tr = Transfer {
                    arrival,
                    src_cell: $src_cell,
                    ev: $sev,
                };
                sent_min = sent_min.min(arrival);
                lanes[shard * shards + owner[$dst_cell as usize] as usize].push(round, tr);
            }};
        }

        while let Some((t, ev)) = queue.pop_if_at_or_before(limit) {
            events += 1;
            match ev {
                SEv::Leave(rec) => {
                    tracer.emit(t, || TraceEvent::HandoffBegin {
                        mh: MhId(rec.id),
                        from: MssId(rec.cell),
                    });
                    let mut rng = decision_rng(spec.seed, rec.id, rec.ctr);
                    // The era is `rec.ctr`, the host's decision counter.
                    let next = MovePattern::UniformRandom.next_cell(
                        &mut rng,
                        MoveCtx {
                            mh: MhId(rec.id),
                            from: MssId(rec.cell),
                            m,
                            home: MssId(rec.home),
                            era: rec.ctr as u64,
                            seed: spec.seed,
                        },
                    );
                    // The gap clamp *is* the conservative-sync contract: a
                    // join sent in window k may not execute before window
                    // k+1, so no cross-cell delay may undercut W.
                    let gap = rng.exp_delay(spec.mean_gap).max(W);
                    let prev = rec.cell;
                    let moved = HostRec {
                        cell: next.0,
                        ctr: rec.ctr + 1,
                        ..rec
                    };
                    send!(next.0, t.ticks() + gap, prev, SEv::Join(moved, prev));
                }
                SEv::Join(mut rec, prev) => {
                    tracer.emit(t, || TraceEvent::HandoffEnd {
                        mh: MhId(rec.id),
                        to: MssId(rec.cell),
                        prev: Some(MssId(prev)),
                    });
                    ledger.moves += 1;
                    rec.moves += 1;
                    if prev != rec.cell {
                        // Handoff state transfer: the new MSS notifies the
                        // previous one over the wired plane; charged at
                        // delivery by the receiving worker.
                        ledger.handoffs += 1;
                        send!(prev, t.ticks() + W, rec.cell, SEv::Wired(rec.cell, prev));
                    }
                    let mut rng = decision_rng(spec.seed, rec.id, rec.ctr);
                    rec.ctr += 1;
                    let dwell = rng.exp_delay(spec.mean_dwell);
                    queue.push(t + dwell, SEv::Leave(rec));
                }
                SEv::Wired(from, to) => {
                    tracer.emit(t, || TraceEvent::ShardRecv {
                        shard: shard as u32,
                        from: MssId(from),
                        to: MssId(to),
                    });
                    // Coalesce the run of consecutive same-tick wired
                    // deliveries: pop each O(1) off the cursor slot, emit
                    // its ShardRecv in the exact order the outer loop would
                    // have, and fold its charge into one fused ledger
                    // update below — the same total as n single charges,
                    // which `traced_shard_events_reconcile_with_the_ledger`
                    // checks against the per-delivery trace. The run never
                    // crosses the window limit (the pops stay on this tick)
                    // and stops at the first non-wired same-tick event, so
                    // the global pop order is untouched.
                    let mut n = 1u64;
                    while let Some((_, run_ev)) =
                        queue.pop_same_tick_if(|e| matches!(e, SEv::Wired(..)))
                    {
                        let SEv::Wired(f, d) = run_ev else {
                            unreachable!("predicate admits only Wired")
                        };
                        events += 1;
                        tracer.emit(t, || TraceEvent::ShardRecv {
                            shard: shard as u32,
                            from: MssId(f),
                            to: MssId(d),
                        });
                        n += 1;
                    }
                    ledger.charge_fixed_n(&cost, n);
                }
            }
        }
        tracer.emit(SimTime::from_ticks(end), || TraceEvent::ShardSync {
            shard: shard as u32,
            window: k,
            skipped,
        });

        // Publish this round on every outgoing lane, post the worker's
        // earliest pending tick, and cross the one barrier.
        for dst in 0..shards {
            lanes[shard * shards + dst].publish(round);
        }
        let local_min = queue
            .peek_time()
            .map_or(u64::MAX, |t| t.ticks())
            .min(sent_min);
        let parity = (round % 2) as usize;
        mins[2 * shard + parity].store(local_min, Ordering::Release);
        barrier.wait();

        // Fast-forward: every worker computes the same global minimum from
        // the published slots, so every worker takes the same jump. The
        // final window is never skipped — it anchors the trace identity
        // Σ(1 + skipped) = windows.
        let global_min = (0..shards)
            .map(|s| mins[2 * s + parity].load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        let target = if global_min == u64::MAX {
            windows - 1
        } else {
            (global_min / W).min(windows - 1)
        };
        let next_k = target.max(k + 1);
        skipped = next_k - k - 1;
        total_skipped += skipped;
        k = next_k;
        round += 1;
    }
    // The final round's sends are still parked in the lanes; drain them so
    // the queue holds the complete end state.
    if round > 0 {
        inbox.drain(round - 1, owner, |arrival, ev| {
            queue.push(SimTime::from_ticks(arrival), ev)
        });
    }

    let (hosts, wires) = final_state(queue);
    let sink = tracer.finish(&ledger);
    ShardOut {
        ledger,
        events,
        skipped: total_skipped,
        hosts,
        wires,
        sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::RingSink;

    fn spec() -> ScaleSpec {
        ScaleSpec::new(16, 240)
            .with_seed(42)
            .with_horizon(1_500)
            .with_churn(120, 15)
    }

    /// Sparse enough that most windows are empty: 3 hosts over a 4,000-tick
    /// horizon with ~600-tick cycles leave long event-free stretches.
    fn sparse_spec() -> ScaleSpec {
        ScaleSpec::new(8, 3)
            .with_seed(11)
            .with_horizon(4_000)
            .with_churn(500, 40)
    }

    #[test]
    fn shard_counts_agree_bit_for_bit() {
        let spec = spec();
        let base = run_scale(&spec, 1);
        assert!(base.ledger.moves > 0, "churn workload must move hosts");
        assert!(base.ledger.fixed_msgs > 0, "handoffs must cross the wire");
        for s in [2, 3, 4, 8, 16] {
            let r = run_scale(&spec, s);
            assert_eq!(r.shards, s);
            assert_eq!(r.digest, base.digest, "digest diverged at {s} shards");
            assert_eq!(r.ledger, base.ledger, "ledger diverged at {s} shards");
            assert_eq!(r.events, base.events, "event count diverged at {s} shards");
            assert_eq!(
                r.skipped_windows, base.skipped_windows,
                "fast-forward schedule diverged at {s} shards"
            );
        }
    }

    #[test]
    fn reruns_are_identical() {
        let spec = spec();
        assert_eq!(run_scale(&spec, 4), run_scale(&spec, 4));
    }

    #[test]
    fn shard_request_is_clamped() {
        let spec = ScaleSpec::new(3, 30).with_seed(1);
        let r = run_scale(&spec, 64);
        assert_eq!(r.shards, 3);
        assert_eq!(r.digest, run_scale(&spec, 1).digest);
    }

    #[test]
    fn seed_and_spec_change_the_outcome() {
        let a = run_scale(&spec(), 2);
        let b = run_scale(&spec().with_seed(43), 2);
        let c = run_scale(&spec().with_churn(60, 15), 2);
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn ledger_charges_match_delivered_notifications() {
        // Every wired charge is a delivered handoff notification, so
        // fixed_msgs can never exceed handoffs, and with a horizon far past
        // the last gap most notifications are delivered.
        let r = run_scale(&spec(), 4);
        assert!(r.ledger.fixed_msgs <= r.ledger.handoffs);
        assert!(r.ledger.fixed_msgs + 64 >= r.ledger.handoffs);
        assert_eq!(r.ledger.wireless_msgs, 0);
    }

    #[test]
    fn traced_runs_expose_shard_events() {
        let spec = spec();
        let shards = 4;
        let sinks: Vec<Box<dyn TraceSink>> = (0..shards)
            .map(|_| Box::new(RingSink::new(1 << 20)) as Box<dyn TraceSink>)
            .collect();
        let (report, sinks) = run_scale_traced(&spec, shards, sinks);
        assert_eq!(sinks.len(), shards);
        let mut syncs = 0u64;
        let mut covered = 0u64;
        let mut recvs = 0;
        let mut ends = 0;
        for s in &sinks {
            let ring = s.as_any().downcast_ref::<RingSink>().expect("ring sink");
            syncs += ring.count_kind("shard_sync") as u64;
            recvs += ring.count_kind("shard_recv");
            ends += ring.count_kind("handoff_end");
            for (_, _, ev) in ring.iter() {
                if let TraceEvent::ShardSync { skipped, .. } = ev {
                    covered += 1 + skipped;
                }
            }
        }
        // One sync per *processed* window; fast-forwarded windows are folded
        // into the next sync's skipped count, so the coverage sums back to
        // the full window count on every shard.
        assert_eq!(covered, report.windows * shards as u64);
        assert_eq!(
            syncs,
            (report.windows - report.skipped_windows) * shards as u64
        );
        assert_eq!(recvs as u64, report.ledger.fixed_msgs);
        assert_eq!(ends as u64, report.ledger.moves);
        // Tracing must not perturb the simulation.
        assert_eq!(report.digest, run_scale(&spec, 1).digest);
    }

    #[test]
    fn drain_commits_in_cell_send_order_and_pops_in_arrival_cell_send_order() {
        // (a) The drain commits in `(src_cell, send order)` order. (b) Fed
        // into an event queue that already holds entries at some of the
        // same ticks, with more pushed after, the pops follow the rule the
        // key sort this replaced committed in — one sort of `(arrival,
        // src_cell, send index)` — behind what was queued before the drain
        // and ahead of what comes after. Cell `c` belongs to worker
        // `c % shards`.
        let m = 7;
        for shards in [1, 2, 4] {
            let owner: Vec<u32> = (0..m).map(|c| (c % shards) as u32).collect();
            let lanes: Vec<Lane<Transfer>> = (0..shards).map(|_| Lane::new()).collect();
            let mut inbox = Inbox::new(lanes.iter().collect(), m);
            let mut queue = EventQueue::new();
            let mut rng = SimRng::seed_from(0xD8A1 + shards as u64);
            let mut tag = 0;
            for round in 0..6 {
                // A handful of arrivals, so ties abound across and within
                // cells — some of them 2^32 and 2^40 ticks apart, past the
                // wheel's 2^24-tick region (the overflow heap). Each round
                // starts past the last one's pops, as every drained transfer
                // lies past the cursor.
                let base = round << 42;
                let arrival = |rng: &mut SimRng| {
                    base + 5 + rng.below(3) + (rng.below(3) << 32) + (rng.below(2) << 40)
                };
                // `(arrival, phase, src_cell, index, tag)`: phase 0 was
                // queued before the drain, 1 drained, 2 pushed after.
                let mut want = Vec::new();
                for i in 0..8 {
                    let at = arrival(&mut rng);
                    queue.push(SimTime::from_ticks(at), tag);
                    want.push((at, 0, 0, i, tag));
                    tag += 1;
                }
                let mut sent = Vec::new();
                for (src, lane) in lanes.iter().enumerate() {
                    // The last lane sits every other round out (at one
                    // shard: a wholly empty drain).
                    let idle = src + 1 == shards && round % 2 == 1;
                    let len = if idle { 0 } else { rng.below(40) };
                    for i in 0..len {
                        let owned = (m - src).div_ceil(shards) as u64;
                        let src_cell = (src + shards * rng.below(owned) as usize) as u32;
                        let at = arrival(&mut rng);
                        let ev = SEv::Wired(src_cell, tag);
                        let tr = Transfer {
                            arrival: at,
                            src_cell,
                            ev,
                        };
                        lane.push(round, tr);
                        sent.push((src_cell, i, at, tag));
                        want.push((at, 1, src_cell, i, tag));
                        tag += 1;
                    }
                    lane.publish(round);
                }
                sent.sort_unstable();
                let committed: Vec<(u64, u32)> =
                    sent.iter().map(|&(_, _, at, tag)| (at, tag)).collect();
                let mut got = Vec::new();
                inbox.drain(round, &owner, |at, ev| match ev {
                    SEv::Wired(_, tag) => {
                        got.push((at, tag));
                        queue.push(SimTime::from_ticks(at), tag);
                    }
                    other => panic!("unexpected {other:?}"),
                });
                assert_eq!(got, committed, "round {round} at {shards} shards");
                for i in 0..8 {
                    let at = arrival(&mut rng);
                    queue.push(SimTime::from_ticks(at), tag);
                    want.push((at, 2, 0, i, tag));
                    tag += 1;
                }
                want.sort_unstable();
                let want: Vec<(u64, u32)> = want.iter().map(|w| (w.0, w.4)).collect();
                let popped: Vec<(u64, u32)> =
                    std::iter::from_fn(|| queue.pop().map(|(t, tag)| (t.ticks(), tag))).collect();
                assert_eq!(popped, want, "round {round} at {shards} shards");
            }
        }
    }

    #[test]
    fn final_state_writes_the_rows_over_the_arena() {
        let rec = |id: u32| HostRec {
            id,
            home: id % 4,
            cell: id % 4,
            ctr: 1,
            moves: 0,
        };
        let mut queue = EventQueue::new();
        for id in (0..100u32).rev() {
            let ev = match id % 3 {
                0 => SEv::Join(rec(id), 7),
                _ => SEv::Leave(rec(id)),
            };
            queue.push(SimTime::from_ticks(10 + id as u64 * 7919 % 300), ev);
        }
        queue.push(SimTime::from_ticks(42), SEv::Wired(1, 2));
        // Past the wheel's 2^24-tick region: an overflow heap entry.
        queue.push(SimTime::from_ticks(1 << 30), SEv::Leave(rec(100)));
        let arena = queue.arena_ptr();
        let (hosts, wires) = final_state(queue);
        assert_eq!(hosts.as_ptr().cast(), arena, "rows must reuse the arena");
        let ids: Vec<u32> = hosts.iter().map(|row| row.0).collect();
        assert_eq!(ids, (0..=100).collect::<Vec<_>>());
        assert_eq!(hosts[3], (3, 1, 10 + 3 * 7919 % 300, 3, 1, 0, 7));
        assert_eq!(hosts[100], (100, 0, 1 << 30, 0, 1, 0, u32::MAX));
        assert_eq!(wires, [(42, 1, 2)]);
    }

    #[test]
    fn arena_slots_and_rows_are_32_bytes() {
        use crate::event::Item;
        fn layout<T>() -> (usize, usize) {
            (std::mem::size_of::<T>(), std::mem::align_of::<T>())
        }
        assert_eq!(layout::<Option<Item<SEv>>>(), (32, 8));
        assert_eq!(layout::<HostRow>(), (32, 8));
        // An 8-byte-aligned body keeps its slot size: the `u32` time only
        // frees padding, so the generic kernel's items do not move.
        assert_eq!(layout::<Option<Item<u64>>>(), (24, 8));
    }

    fn row(id: u32) -> HostRow {
        (id, 0, 100 + id as u64, id % 4, 1, 0, u32::MAX)
    }

    #[test]
    #[should_panic(expected = "lost or duplicated")]
    fn digest_rejects_a_duplicated_host() {
        // The row count of a sound state: host 3 twice, host 4 missing.
        let mut rows: Vec<HostRow> = (0..6).map(row).collect();
        rows[4] = row(3);
        digest_state(&ScaleSpec::new(4, 6), &[&rows[..3], &rows[3..]], &[]);
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn digest_rejects_a_lost_host() {
        let rows: Vec<HostRow> = (0..6).map(row).collect();
        digest_state(&ScaleSpec::new(4, 6), &[&rows[..3], &rows[4..]], &[]);
    }

    #[test]
    fn fast_forward_skips_empty_windows_without_changing_results() {
        let spec = sparse_spec();
        let base = run_scale(&spec, 1);
        assert!(
            base.skipped_windows > 0,
            "sparse workload must trigger the fast-forward"
        );
        assert!(base.skipped_windows < base.windows);
        for s in [2, 4, 8] {
            let r = run_scale(&spec, s);
            assert_eq!(r.digest, base.digest, "digest diverged at {s} shards");
            assert_eq!(r.ledger, base.ledger, "ledger diverged at {s} shards");
            assert_eq!(r.skipped_windows, base.skipped_windows);
        }
    }

    #[test]
    fn partition_of_round_robin_occupancy_is_balanced_within_one_cell() {
        // 1000 hosts over 64 cells: 40 cells hold 16 hosts, 24 hold 15, and
        // neither 3 nor 5 workers divide the cells evenly. Greedy
        // heaviest-first packing must still keep every worker's initial
        // load within one cell's weight of every other worker's.
        let spec = ScaleSpec::new(64, 1_000);
        let heaviest = 1_000u64.div_ceil(64);
        for shards in [3, 5] {
            let plan = plan_partition(&spec, shards);
            assert_eq!(plan.owner.len(), 64);
            assert_eq!(plan.load.len(), shards);
            assert_eq!(plan.load.iter().sum::<u64>(), 1_000);
            let (lo, hi) = (plan.load.iter().min(), plan.load.iter().max());
            let spread = hi.unwrap() - lo.unwrap();
            assert!(
                spread <= heaviest,
                "loads {:?} at {shards} shards spread by {spread} > {heaviest}",
                plan.load
            );
        }
    }

    #[test]
    fn predicted_moves_track_measured_moves() {
        let spec = ScaleSpec::new(32, 2_000)
            .with_seed(9)
            .with_horizon(3_000)
            .with_churn(300, 20);
        let r = run_scale(&spec, 4);
        let predicted = spec.predicted_moves();
        let measured = r.ledger.moves;
        let lo = predicted * 7 / 10;
        let hi = predicted * 13 / 10;
        assert!(
            (lo..=hi).contains(&measured),
            "measured {measured} outside 30% of predicted {predicted}"
        );
    }
}
