//! Steady-state allocation discipline of `MutexHarness` and the serving
//! algorithms under it.
//!
//! The harness applies the algorithm's effects out of one reused buffer and
//! reserves its episode log up front; the kernel's delivery path recycles
//! its buffers (`crates/net/tests/delivery_alloc.rs`). Above that, R2 moves
//! a token visit's admitted requests with one `retain`, L2 and L2C keep
//! Lamport's queue in a `RequestQueue` whose ring buffer stops growing once
//! warm, and L2C hands each finished batch's buffers to the next. So once a
//! run is warm, what may still reach the allocator is a log that doubles: the
//! checker's episode log past its reservation, and R2's grant and service
//! logs. A counting global allocator pins that on all three algorithms.

use mobidist_core::prelude::*;
use mobidist_net::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation and reallocation (see
/// `crates/net/tests/delivery_alloc.rs`); this file holds a single test, so
/// nothing else allocates while it measures.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made while the completed-entry count goes `warm → warm +
/// measured`, after a warm-up to `warm` entries.
fn steady_allocs<A: MutexAlgorithm>(
    cfg: NetworkConfig,
    algo: A,
    wl: WorkloadConfig,
    warm: u64,
    measured: u64,
) -> u64 {
    let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
    let mut run_to = |entries: u64| {
        while sim.protocol().completed() < entries {
            assert!(sim.step(), "run went quiescent early");
        }
    };
    // Warm-up: pools, wheel slots, queues and the effects buffer reach
    // capacity.
    run_to(warm);
    let before = ALLOCS.load(Ordering::SeqCst);
    run_to(warm + measured);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let r = sim.protocol().report();
    assert_eq!((r.safety_violations, r.order_violations), (0, 0));
    allocs
}

#[test]
fn steady_state_serving_allocates_only_log_doublings() {
    // The benchmark's `ring_unicast` network and request stream, shortened.
    // Entries 20 000 → 70 000 cross 32 768 and 65 536, so R2's grant and
    // service logs double twice each; the episode log was reserved for the
    // whole workload.
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
    // Measured 4 / 0 / 0 (debug and release). With R2's token visits
    // partitioning their requests through three `Vec`s, `BTreeSet` queues
    // and a fresh buffer pair per L2C batch, the same runs made 7 819 /
    // 19 596 / 4 247.
    assert!(r2 <= 4, "R2: {r2} allocations over 50 000 entries");
    assert_eq!(
        (l2, l2c),
        (0, 0),
        "L2 / L2C allocations over 15 000 entries"
    );
}
