//! Memory discipline of `GroupHarness` on a `group_mobile`-shaped run.
//!
//! Once a run is warm, the only harness state that grows with it is the
//! audit's entry per message sent: the members expected at send time and
//! the members that received it, two `HostSet`s. What each member has
//! received is folded into a fixed-size digest, not kept as a sequence. A
//! global allocator that tracks live heap bytes pins that: doubling the
//! horizon grows the heap by no more than one audit entry per message sent.

use mobidist_group::prelude::*;
use mobidist_net::host::HostSet;
use mobidist_net::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Tracks live heap bytes; this file holds a single test, so nothing else
/// allocates while it measures.
struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn doubling_the_horizon_adds_only_the_audit_entry_per_message() {
    // The benchmark's `group_mobile` network and workload, shortened: 120
    // members of 160 hosts over 8 cells, moving constantly, one location-
    // view group message per 1 000 ticks.
    let horizon = 1_000_000;
    let members: Vec<MhId> = (0..120u32).map(MhId).collect();
    let cfg = NetworkConfig::new(8, 160)
        .with_seed(4)
        .with_mobility(MobilityConfig::moving(400));
    let wl = GroupWorkload::new(members.clone(), (2 * horizon / 1000) as usize, 1000);
    let view = LocationView::new(members, MssId(0));
    let mut sim = Simulation::new(cfg, GroupHarness::new(view, wl));
    let mut measure = |ticks: u64| {
        sim.run_until(SimTime::from_ticks(ticks));
        let r = sim.protocol().report();
        assert!(r.delivered > 0);
        (LIVE.load(Ordering::SeqCst), r.sent)
    };
    let (bytes0, sent0) = measure(horizon);
    let (bytes1, sent1) = measure(2 * horizon);
    let per_message = (bytes1 - bytes0) as f64 / (sent1 - sent0) as f64;
    // An audit entry is two `HostSet`s inline in the audit's `Vec`, plus
    // each set's two-word bitmap (ids below 128). The `Vec` doubles its
    // capacity as it grows, so between two lengths its inline bytes can
    // grow by up to three entries per entry added (a full buffer at the
    // first, a fresh doubling just past the second's power of two).
    let inline = std::mem::size_of::<(HostSet, HostSet)>();
    let entry = inline + 2 * 2 * std::mem::size_of::<u64>();
    let bound = (3 * inline + (entry - inline)) as f64;
    assert!(
        per_message <= bound,
        "live heap {bytes0} -> {bytes1} B while sent went {sent0} -> {sent1}: \
         {per_message:.1} B per message; an audit entry is {entry} B"
    );
}
