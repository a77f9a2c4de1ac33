//! Steady-state allocation discipline of `MutexHarness` and the serving
//! algorithms under it.
//!
//! The harness applies the algorithm's effects out of one reused buffer, and
//! `MutexHarness::new` reserves the checker's packed episode log at its
//! worst case, 45 B per entry, for the whole workload; the log packs about
//! 6–10 B per entry, so it never regrows, and the reserved pages it never
//! touches are never resident. The kernel's delivery path recycles its
//! buffers (`crates/net/tests/delivery_alloc.rs`). Above that, R2 moves a
//! token visit's admitted requests with one `retain` and keeps per-host
//! running counts rather than logs, L2 and L2C keep Lamport's queue in a
//! `RequestQueue` whose ring buffer stops growing once warm, and L2C hands
//! each finished batch's buffers to the next. So once a run is warm, nothing
//! reaches the allocator. A counting global allocator pins that on all three
//! algorithms, and pins that `report()` allocates no more on a longer run:
//! its mean is a running sum and its percentile a radix select over the
//! packed log, not a copy of every wait.

use mobidist_core::prelude::*;
use mobidist_net::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (see
/// `crates/net/tests/delivery_alloc.rs`); this file holds a single test, so
/// nothing else allocates while it measures.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What one steady-state stretch of a run allocated.
struct Steady {
    /// Allocations made while the completed-entry count went `warm → warm +
    /// measured`.
    allocs: u64,
    /// Bytes one `report()` allocated at `warm` and at `warm + measured`
    /// entries.
    report_bytes: (u64, u64),
}

/// Runs to `warm` entries, so that pools, wheel slots, queues and the
/// effects buffer reach capacity, then on to `warm + measured`.
fn steady_allocs<A: MutexAlgorithm>(
    cfg: NetworkConfig,
    algo: A,
    wl: WorkloadConfig,
    warm: u64,
    measured: u64,
) -> Steady {
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    run_to(&mut sim, warm);
    let warm_report = report_bytes(&sim);
    let before = ALLOCS.load(Ordering::SeqCst);
    run_to(&mut sim, warm + measured);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    Steady {
        allocs,
        report_bytes: (warm_report, report_bytes(&sim)),
    }
}

fn run_to<A: MutexAlgorithm>(sim: &mut Simulation<MutexHarness<A>>, entries: u64) {
    while sim.protocol().completed() < entries {
        assert!(sim.step(), "run went quiescent early");
    }
}

/// Bytes one `report()` allocates; also checks the run is safe.
fn report_bytes<A: MutexAlgorithm>(sim: &Simulation<MutexHarness<A>>) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    let r = sim.protocol().report();
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!((r.safety_violations, r.order_violations), (0, 0));
    bytes
}

#[test]
fn steady_state_serving_does_not_allocate() {
    // The benchmark's `ring_unicast` network and request stream, shortened.
    // Entries 20 000 → 70 000 cross 32 768 and 65 536, where any per-entry
    // log would double; the episode log was reserved for the whole
    // workload.
    let r2 = steady_allocs(
        NetworkConfig::new(8, 256).with_seed(11),
        R2::new(8, RingGuard::Plain),
        WorkloadConfig::all_mhs(256, 400)
            .with_think(200)
            .with_hold(10),
        20_000,
        50_000,
    );
    // `serve_lamport`'s request stream on a smaller network: every L2 entry
    // and every L2C batch inserts into and removes from eight Lamport queues.
    let lamport = || {
        (
            NetworkConfig::new(8, 256).with_seed(12),
            WorkloadConfig::all_mhs(256, 100)
                .with_think(1000)
                .with_hold(10),
        )
    };
    let (cfg, wl) = lamport();
    let l2 = steady_allocs(cfg, L2::new(8), wl, 5_000, 15_000);
    let (cfg, wl) = lamport();
    let l2c = steady_allocs(cfg, L2c::new(8), wl, 5_000, 15_000);
    // With R2's token visits partitioning their requests through three
    // `Vec`s, `BTreeSet` queues and a fresh buffer pair per L2C batch, the
    // same runs made 7 819 / 19 596 / 4 247; with R2's grant and service
    // logs, R2 still made 4.
    assert_eq!(
        (r2.allocs, l2.allocs, l2c.allocs),
        (0, 0, 0),
        "R2 allocations over 50 000 entries, L2 / L2C over 15 000"
    );
    // When `report()` sorted a copy of every wait, it allocated 8 B per
    // entry: 160 000 B at 20 000 entries and 560 000 B at 70 000.
    let (warm, end) = r2.report_bytes;
    assert_eq!(warm, end, "R2 report() bytes at 20 000 and 70 000 entries");
}
