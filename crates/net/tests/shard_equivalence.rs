//! Shard-count equivalence for the space-sharded kernel.
//!
//! The contract under test: a sharded run is **byte-identical** to the
//! 1-shard run at every worker count — same ledger, same canonical
//! final-state digest, same event count, same per-shard trace order.

use mobidist_net::fingerprint::KERNEL_VERSION_SALT;
use mobidist_net::obs::{RingSink, TraceEvent, TraceSink};
use mobidist_net::shard::{run_scale, run_scale_traced, ScaleSpec};

/// Specs spanning the shapes the equivalence must hold for: tiny cell
/// counts (shards clamp), uneven cell/shard divisions, heavy churn, a
/// larger population in the E12 ladder's configuration, and hosts still in
/// the wheel's overflow heap when the run ends — mean dwell 2^23 ticks over
/// a 2^20-tick horizon, so about e^-2 ≈ 13 % of the first dwells end past
/// 2^24 ticks. The digest asserts every host exactly once, so a final-state
/// collection that leaves the overflow behind panics.
fn specs() -> Vec<ScaleSpec> {
    vec![
        ScaleSpec::new(2, 30).with_seed(7),
        ScaleSpec::new(5, 100).with_seed(8).with_churn(60, 10),
        ScaleSpec::new(64, 1_000).with_seed(1202),
        ScaleSpec::new(128, 20_000).with_seed(1202),
        ScaleSpec::new(16, 2_000)
            .with_seed(1223)
            .with_horizon(1 << 20)
            .with_churn(1 << 23, 20),
    ]
}

#[test]
fn every_worker_count_reproduces_the_single_shard_run() {
    for spec in specs() {
        let base = run_scale(&spec, 1);
        assert!(base.ledger.moves > 0, "workload must churn: {spec:?}");
        for shards in [2, 3, 4, 8] {
            let r = run_scale(&spec, shards);
            assert_eq!(r.digest, base.digest, "digest diverged at {shards} shards");
            assert_eq!(r.ledger, base.ledger, "ledger diverged at {shards} shards");
            assert_eq!(
                r.events, base.events,
                "event count diverged at {shards} shards"
            );
            assert_eq!(r.windows, base.windows);
            assert_eq!(r.state_bytes, base.state_bytes);
        }
    }
}

#[test]
fn kernel_salt_tracks_behaviour_changes() {
    // The sharded kernel (1 → 2), the workload hold-profile knob's new
    // canonical encoding (2 → 3), the mobility-zoo/fault-plane additions
    // (3 → 4), and the batched delivery engine with its canon-hashed
    // delivery mode (4 → 5) each changed what a fingerprint means, so the
    // version salt must sit at its post-delivery-engine value. Any future
    // behaviour-affecting change must move it again — update this pin when
    // it does.
    assert_eq!(KERNEL_VERSION_SALT, 5);
}

/// One ring sink per shard, each large enough to hold a whole test stream.
fn ring_sinks(shards: usize) -> Vec<Box<dyn TraceSink>> {
    (0..shards)
        .map(|_| Box::new(RingSink::new(1 << 20)) as Box<dyn TraceSink>)
        .collect()
}

#[test]
fn traced_shard_events_reconcile_with_the_ledger() {
    let spec = ScaleSpec::new(8, 500).with_seed(42);
    let shards = 4;
    let (r, sinks) = run_scale_traced(&spec, shards, ring_sinks(shards));
    assert_eq!(
        r.digest,
        run_scale(&spec, 1).digest,
        "tracing must not perturb"
    );

    let mut syncs = 0;
    let mut covered = 0u64;
    let mut recvs = 0;
    let mut ends = 0;
    for sink in &sinks {
        let ring = sink.as_any().downcast_ref::<RingSink>().unwrap();
        syncs += ring.count_kind("shard_sync");
        recvs += ring.count_kind("shard_recv");
        ends += ring.count_kind("handoff_end");
        for (_, _, ev) in ring.iter() {
            if let TraceEvent::ShardSync { skipped, .. } = ev {
                covered += 1 + skipped;
            }
        }
    }
    // Fast-forward may skip empty windows, so syncs count only *processed*
    // windows; each sync's `skipped` field accounts for the jumped-over
    // remainder, and together they must tile the horizon exactly.
    assert_eq!(
        covered,
        r.windows * shards as u64,
        "processed + skipped windows must cover the horizon on every shard"
    );
    assert_eq!(
        syncs as u64,
        (r.windows - r.skipped_windows) * shards as u64,
        "one sync per processed window per shard"
    );
    assert_eq!(
        recvs as u64, r.ledger.fixed_msgs,
        "every wired charge is traced"
    );
    assert_eq!(ends as u64, r.ledger.moves, "every move is traced");
}

/// FNV-1a of each shard's full `RingSink` stream `(t, seq, event)`.
fn stream_hashes(spec: &ScaleSpec, shards: usize) -> Vec<u64> {
    let (_, sinks) = run_scale_traced(spec, shards, ring_sinks(shards));
    sinks
        .iter()
        .map(|sink| {
            let ring = sink.as_any().downcast_ref::<RingSink>().unwrap();
            assert!(ring.len() < 1 << 20, "ring must hold the whole stream");
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (t, seq, ev) in ring.iter() {
                for b in format!("{} {seq} {ev:?}\n", t.ticks()).bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            h
        })
        .collect()
}

#[test]
fn per_shard_trace_order_is_pinned() {
    // The suites above reconcile *counts*; this is the test that fails if
    // the world build or the lane commit reorders same-tick events. The
    // constants were recorded with a serial build and a per-lane sort +
    // k-way merge, the rule's first implementation; 3 shards divide 16
    // cells unevenly.
    let spec = ScaleSpec::new(16, 240)
        .with_seed(42)
        .with_horizon(1_500)
        .with_churn(120, 15);
    let pins: [&[u64]; 3] = [
        &[0xa0877d330179bf58],
        &[0x19245c23b127119c, 0xd8625be6e1cc1193],
        &[0xd99a77757ee198e6, 0x4219387a8d50e434, 0x61834b7fb653d148],
    ];
    for (want, shards) in pins.into_iter().zip(1..) {
        assert_eq!(
            stream_hashes(&spec, shards),
            want,
            "trace order moved at {shards} shards"
        );
    }
}
