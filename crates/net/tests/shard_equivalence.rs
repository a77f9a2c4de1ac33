//! Shard-count equivalence for the space-sharded kernel.
//!
//! The contract under test: a sharded run is **byte-identical** to the
//! 1-shard run at every worker count — same ledger, same canonical
//! final-state digest, same event count — and the spec fingerprint does
//! not depend on the shard count (it is an execution knob, not part of
//! the simulated world).

use mobidist_net::config::Placement;
use mobidist_net::fingerprint::{Fingerprint, KERNEL_VERSION_SALT};
use mobidist_net::mobility::MovePattern;
use mobidist_net::obs::{RingSink, TraceEvent, TraceSink};
use mobidist_net::shard::{plan_partition, run_scale, run_scale_traced, ScaleSpec};

/// Specs spanning the shapes the equivalence must hold for: tiny cell
/// counts (shards clamp), uneven cell/shard divisions, heavy churn, and a
/// larger population in the E12 ladder's configuration.
fn specs() -> Vec<ScaleSpec> {
    vec![
        ScaleSpec::new(2, 30).with_seed(7),
        ScaleSpec::new(5, 100).with_seed(8).with_churn(60, 10),
        ScaleSpec::new(64, 1_000).with_seed(1202),
        ScaleSpec::new(128, 20_000).with_seed(1202),
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
fn spec_fingerprint_is_shard_count_free() {
    // The fingerprint hashes the spec alone; runs at different worker
    // counts therefore share a cache/trace identity, which is sound only
    // because the test above holds.
    let spec = ScaleSpec::new(64, 1_000).with_seed(1202);
    let fp = Fingerprint::of(&spec);
    assert_eq!(fp, Fingerprint::of(&spec));
    let mut other = spec.clone();
    other.seed += 1;
    assert_ne!(fp, Fingerprint::of(&other), "seed must change the identity");
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

#[test]
fn skewed_occupancy_stays_balanced_and_bit_identical() {
    // Deliberately hostile partition inputs: all hosts start clustered in a
    // handful of cells and the mobility keeps them concentrated (platoons
    // converging on shared anchors, locality-biased wanderers hugging small
    // home spans). A static block partition would pile the hot cells onto
    // one worker; the host-weighted partition must spread them — and the
    // rebalanced ownership must not perturb a single bit of the result.
    let specs = [
        ScaleSpec::new(48, 6_000)
            .with_seed(4801)
            .with_horizon(3_000)
            .with_churn(150, 15)
            .with_pattern(MovePattern::GroupPlatoon {
                groups: 6,
                p_follow: 0.9,
            })
            .with_placement(Placement::Clustered { cells: 5 }),
        ScaleSpec::new(48, 6_000)
            .with_seed(4802)
            .with_horizon(3_000)
            .with_churn(150, 15)
            .with_pattern(MovePattern::Locality {
                p_local: 0.85,
                home_span: 4,
            })
            .with_placement(Placement::Clustered { cells: 6 }),
    ];
    for spec in specs {
        for shards in [2, 3, 4, 8] {
            let plan = plan_partition(&spec, shards);
            assert_eq!(plan.load.iter().sum::<u64>(), spec.num_mh as u64);
            let mean = spec.num_mh as u64 / shards as u64;
            for (s, &load) in plan.load.iter().enumerate() {
                assert!(
                    load <= 2 * mean,
                    "worker {s} owns {load} hosts at t=0, over 2x the mean \
                     {mean} at {shards} shards: {spec:?}"
                );
            }
        }
        let base = run_scale(&spec, 1);
        assert!(base.ledger.moves > 0, "workload must churn: {spec:?}");
        for shards in [2, 3, 4, 8] {
            let r = run_scale(&spec, shards);
            assert_eq!(r.digest, base.digest, "digest diverged at {shards} shards");
            assert_eq!(r.ledger, base.ledger, "ledger diverged at {shards} shards");
            assert_eq!(r.events, base.events, "events diverged at {shards} shards");
        }
    }
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
    // k-way merge, the rule's first implementation. `Random` and
    // `Clustered` exercise each worker's replay of the placement stream;
    // 3 shards divide 16 cells unevenly.
    let base = ScaleSpec::new(16, 240)
        .with_seed(42)
        .with_horizon(1_500)
        .with_churn(120, 15);
    let pins: [(Placement, [&[u64]; 3]); 3] = [
        (
            Placement::RoundRobin,
            [
                &[0xa0877d330179bf58],
                &[0x19245c23b127119c, 0xd8625be6e1cc1193],
                &[0xd99a77757ee198e6, 0x4219387a8d50e434, 0x61834b7fb653d148],
            ],
        ),
        (
            Placement::Random,
            [
                &[0xe6b6df3521860d0f],
                &[0x60b1e8b322fbb9dc, 0xcbeda4af7dfd6a98],
                &[0xbc57d1c70cfcff4a, 0x43b9e76b62e83f5f, 0x6b6b6ab3a738eccb],
            ],
        ),
        (
            Placement::Clustered { cells: 5 },
            [
                &[0xce74c80f245f704b],
                &[0x88eea2fd212b1c67, 0xd402c1bc6a96cb3f],
                &[0xbcdddb69302c98c9, 0xbe7f833494e5d2fc, 0x481ce77443babb78],
            ],
        ),
    ];
    for (placement, by_shards) in pins {
        let spec = base.clone().with_placement(placement);
        for (want, shards) in by_shards.into_iter().zip(1..) {
            assert_eq!(
                stream_hashes(&spec, shards),
                want,
                "trace order moved: {placement:?} at {shards} shards"
            );
        }
    }
}
