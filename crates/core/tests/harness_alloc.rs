//! Steady-state allocation discipline of `MutexHarness`.
//!
//! The harness applies the algorithm's effects out of one reused buffer, so
//! once a run is warm a critical-section entry must not reach the allocator
//! for the harness's own bookkeeping: the checker's episode log is a `Vec`
//! that doubles, a handful of reallocations however many entries follow.
//! What is left on an R2 ring is R2's own: a token visit that finds requests
//! waiting partitions them through short-lived `Vec`s. A counting global
//! allocator pins the difference: the harness used to free and re-allocate
//! its buffer on every grant, which put the count above one per entry.

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

#[test]
fn steady_state_ring_entries_do_not_allocate_per_grant() {
    // The benchmark's `ring_unicast` network and request stream, shortened.
    let cfg = NetworkConfig::new(8, 256).with_seed(11);
    let wl = WorkloadConfig::all_mhs(256, 400)
        .with_think(200)
        .with_hold(10);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(8, RingGuard::Plain), wl));
    let run_to = |sim: &mut Simulation<MutexHarness<R2>>, entries: u64| {
        while sim.protocol().completed() < entries {
            assert!(sim.step(), "ring went quiescent early");
        }
    };
    // Warm-up: pools, wheel slots and the effects buffer reach capacity.
    run_to(&mut sim, 20_000);
    let before = ALLOCS.load(Ordering::SeqCst);
    run_to(&mut sim, 70_000);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let r = sim.protocol().report();
    assert_eq!((r.safety_violations, r.order_violations), (0, 0));
    // Measured 0.16 per entry (R2's token-visit buffers plus two doublings
    // of the episode log); 1.16 with one harness allocation per grant.
    assert!(
        allocs * 4 < 50_000,
        "{allocs} allocations over 50 000 steady-state entries"
    );
}
