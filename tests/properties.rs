//! Randomized-but-deterministic tests over the whole stack: for seeded
//! pseudo-random draws of network shape, cost parameters, seeds and
//! workloads, the core invariants of the paper's algorithms must hold.
//!
//! These replace an earlier proptest suite with an in-repo case generator
//! (the simulator's own [`SimRng`]), so the workspace builds with no
//! external crates and every CI run exercises the identical case set.

#[path = "../crates/group/tests/support/mod.rs"]
mod group_oracle;

use group_oracle::{digests_agree, Recording};
use mobidist::prelude::*;

/// Draws `cases` parameter tuples from a fixed stream and runs `f` on each.
fn for_cases(label: &str, cases: u64, mut f: impl FnMut(&mut SimRng)) {
    // Distinct label → distinct stream, so adding a test never perturbs
    // another test's cases.
    let mut seed = 0x5EED_BA5E_u64;
    for b in label.bytes() {
        seed = seed.wrapping_mul(31).wrapping_add(b as u64);
    }
    let mut rng = SimRng::seed_from(seed);
    for case in 0..cases {
        let mut case_rng = rng.fork(case);
        f(&mut case_rng);
    }
}

/// L2 never violates mutual exclusion or timestamp ordering, and serves
/// every request, whatever the network shape, seed and mobility.
#[test]
fn prop_l2_safe_live_ordered() {
    for_cases("l2_safe_live_ordered", 24, |r| {
        let m = r.between(2, 5) as usize;
        let n = r.between(2, 9) as usize;
        let seed = r.below(1000);
        let mut cfg = NetworkConfig::new(m, n).with_seed(seed);
        if r.chance(0.5) {
            cfg = cfg.with_mobility(MobilityConfig::moving(r.between(100, 1999)));
        }
        let wl = WorkloadConfig::all_mhs(n, 1);
        let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(m), wl));
        sim.run_until(SimTime::from_ticks(20_000_000));
        let rep = sim.protocol().report();
        assert_eq!(rep.safety_violations, 0);
        assert_eq!(rep.order_violations, 0);
        assert_eq!(rep.completed, n as u64, "{rep:?}");
    });
}

/// The R2 family preserves mutual exclusion and single-token semantics
/// under every guard and random mobility.
#[test]
fn prop_r2_safe_single_token() {
    for_cases("r2_safe_single_token", 24, |r| {
        let m = r.between(2, 5) as usize;
        let n = r.between(2, 7) as usize;
        let seed = r.below(1000);
        let guard = *r.pick(&[RingGuard::Plain, RingGuard::Counter, RingGuard::TokenList]);
        let cfg = NetworkConfig::new(m, n)
            .with_seed(seed)
            .with_mobility(MobilityConfig::moving(500));
        let wl = WorkloadConfig::all_mhs(n, 1).with_think(30);
        let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(m, guard), wl));
        sim.run_until(SimTime::from_ticks(300_000));
        let rep = sim.protocol().report();
        assert_eq!(rep.safety_violations, 0);
        assert_eq!(rep.completed, n as u64, "{rep:?}");
        // Token conservation: at most one MSS believes it holds the token.
        assert!(sim.protocol().algorithm().stations_with_token() <= 1);
    });
}

/// L1's measured cost equals the paper's closed form exactly on static
/// networks, for any population and cost parameters.
#[test]
fn prop_l1_cost_formula_exact() {
    for_cases("l1_cost_formula_exact", 24, |r| {
        let m = r.between(2, 5) as usize;
        let n = r.between(2, 11) as usize;
        let seed = r.below(500);
        let cw = r.between(1, 19);
        let cs = r.between(1, 19);
        let cost = CostModel::new(1, cw, cs);
        let cfg = NetworkConfig::new(m, n).with_seed(seed).with_cost(cost);
        let wl = WorkloadConfig::only(vec![MhId(0)], 1);
        let algo = L1::new((0..n as u32).map(MhId).collect());
        let mut sim = Simulation::new(cfg, MutexHarness::new(algo, wl));
        sim.run_until(SimTime::from_ticks(20_000_000));
        assert_eq!(sim.protocol().report().completed, 1);
        let p = Params {
            c_fixed: 1,
            c_wireless: cw,
            c_search: cs,
        };
        assert_eq!(
            sim.ledger().total_cost(),
            mobidist::cost::l1_execution_cost(n as u64, p)
        );
    });
}

/// Group messages on a static network are delivered exactly once to
/// every member, by every strategy.
#[test]
fn prop_group_exactly_once_static() {
    for_cases("group_exactly_once_static", 24, |r| {
        let m = r.between(2, 7) as usize;
        let g = r.between(2, 7) as usize;
        let seed = r.below(500);
        let which = r.below(3);
        let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
        let cfg = NetworkConfig::new(m, g).with_seed(seed);
        let wl = GroupWorkload::new(members.clone(), 5, 50);
        let report = match which {
            0 => {
                let mut sim = Simulation::new(cfg, GroupHarness::new(PureSearch::new(members), wl));
                sim.run_until(SimTime::from_ticks(1_000_000));
                sim.protocol().report()
            }
            1 => {
                let mut sim =
                    Simulation::new(cfg, GroupHarness::new(AlwaysInform::new(members), wl));
                sim.run_until(SimTime::from_ticks(1_000_000));
                sim.protocol().report()
            }
            _ => {
                let mut sim = Simulation::new(
                    cfg,
                    GroupHarness::new(LocationView::new(members, MssId(0)), wl),
                );
                sim.run_until(SimTime::from_ticks(1_000_000));
                sim.protocol().report()
            }
        };
        assert_eq!(report.sent, 5);
        assert_eq!(report.missed, 0);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.delivered, report.expected);
    });
}

/// The location view converges to exactly the set of occupied cells
/// after any sequence of forced member moves.
#[test]
fn prop_location_view_converges() {
    for_cases("location_view_converges", 24, |r| {
        let m = r.between(3, 7) as usize;
        let g = r.between(2, 5) as usize;
        let seed = r.below(500);
        let n_moves = r.between(1, 11) as usize;
        let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
        let cfg = NetworkConfig::new(m, g).with_seed(seed);
        let wl = GroupWorkload::new(members.clone(), 0, 100);
        let mut sim = Simulation::new(
            cfg,
            GroupHarness::new(LocationView::new(members, MssId(0)), wl),
        );
        for _ in 0..n_moves {
            let mh = MhId(r.below(g as u64) as u32);
            let cell = MssId(r.below(m as u64) as u32);
            sim.with_ctx(|ctx, _| {
                if ctx.current_cell(mh) != Some(cell) {
                    ctx.initiate_move(mh, Some(cell));
                }
            });
            // Let each move fully settle before the next (sequential moves;
            // concurrency is exercised by the churn tests).
            sim.run_to_quiescence(5_000_000);
        }
        assert!(sim.protocol().strategy().is_consistent());
    });
}

/// Ledger arithmetic: total cost always decomposes into its parts, and
/// deltas of later snapshots never underflow.
#[test]
fn prop_ledger_decomposition() {
    for_cases("ledger_decomposition", 24, |r| {
        let m = r.between(2, 5) as usize;
        let n = r.between(2, 7) as usize;
        let seed = r.below(500);
        let cfg = NetworkConfig::new(m, n)
            .with_seed(seed)
            .with_mobility(MobilityConfig::moving(200));
        let wl = WorkloadConfig::all_mhs(n, 1);
        let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(m), wl));
        sim.run_until(SimTime::from_ticks(5_000));
        let early = sim.ledger().clone();
        sim.run_until(SimTime::from_ticks(200_000));
        let late = sim.ledger().clone();
        let d = late.delta(&early);
        assert_eq!(
            d.total_cost(),
            d.fixed_cost + d.wireless_cost + d.search_cost
        );
        assert!(late.total_cost() >= early.total_cost());
        assert_eq!(late.wireless_msgs - early.wireless_msgs, d.wireless_msgs);
    });
}

/// Runs are bit-reproducible: identical seeds give identical ledgers.
#[test]
fn prop_determinism() {
    for_cases("determinism", 24, |r| {
        let seed = r.below(300);
        let go = || {
            let cfg = NetworkConfig::new(3, 6)
                .with_seed(seed)
                .with_mobility(MobilityConfig::moving(250));
            let wl = WorkloadConfig::all_mhs(6, 1);
            let mut sim = Simulation::new(cfg, MutexHarness::new(L2::new(3), wl));
            sim.run_until(SimTime::from_ticks(100_000));
            sim.ledger().clone()
        };
        assert_eq!(go(), go());
    });
}

/// The exactly-once extension holds its three guarantees — no miss, no
/// duplicate, one global total order — under arbitrary churn schedules.
#[test]
fn prop_exactly_once_invariants() {
    for_cases("exactly_once_invariants", 16, |r| {
        let m = r.between(3, 7) as usize;
        let g = r.between(2, 7) as usize;
        let seed = r.below(400);
        let dwell = r.between(80, 1499);
        let msgs = r.between(3, 14) as usize;
        let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
        let cfg = NetworkConfig::new(m, g)
            .with_seed(seed)
            .with_mobility(MobilityConfig::moving(dwell));
        let wl = GroupWorkload::new(members.clone(), msgs, 50);
        let eo = Recording::new(ExactlyOnce::new(members, MssId(0)));
        let mut sim = Simulation::new(cfg, GroupHarness::new(eo, wl));
        // Run past the last send, then give stragglers time to land.
        sim.run_until(SimTime::from_ticks(60 * msgs as u64 + 50_000));
        let h = sim.protocol();
        let rep = h.report();
        assert_eq!(rep.sent, msgs as u64);
        assert_eq!(rep.missed, 0, "{rep:?}");
        assert_eq!(rep.duplicates, 0, "{rep:?}");
        // The O(1) check against the sequencer's numbers and the pairwise
        // oracle over the recorded sequences agree.
        assert_eq!(h.order_violations(), 0);
        assert!(h.strategy().total_order_consistent());
        assert!(digests_agree(h));
    });
}

/// The adaptive proxy policy serves every interaction for any radius.
#[test]
fn prop_adaptive_proxy_serves_all() {
    for_cases("adaptive_proxy_serves_all", 16, |r| {
        let m = r.between(3, 7) as usize;
        let n = r.between(2, 5) as usize;
        let seed = r.below(400);
        let radius = r.below(4) as u32;
        let clients: Vec<MhId> = (0..n as u32).map(MhId).collect();
        let cfg = NetworkConfig::new(m, n)
            .with_seed(seed)
            .with_mobility(MobilityConfig::moving(400));
        let wl = ProxyWorkload {
            inputs_per_client: 2,
            mean_interval: 150,
        };
        let mut sim = Simulation::new(
            cfg,
            ProxyRuntime::new(
                EchoService::new(),
                clients,
                ProxyPolicy::Adaptive { radius },
                wl,
            ),
        );
        sim.run_until(SimTime::from_ticks(2_000_000));
        let rep = sim.protocol().report();
        assert_eq!(rep.inputs_sent, 2 * n as u64);
        assert_eq!(rep.outputs_delivered, rep.inputs_sent, "{rep:?}");
    });
}

/// The checker's packed episode log against a reference that keeps every
/// episode unpacked and closes an exit's episode by searching backwards, as
/// the checker did before packing. Scripts mix overlapping grants, repeat
/// entries by one host, unmatched exits, ticks at 0 and `u64::MAX`,
/// non-monotone request and grant times, and keys that are absent,
/// regressing or `u64::MAX`.
#[test]
fn prop_packed_episode_log_matches_the_unpacked_reference() {
    #[derive(Default)]
    struct Reference {
        holder: Option<MhId>,
        last_key: Option<u64>,
        episodes: Vec<Episode>,
        violations: (u64, u64, u64),
    }
    impl Reference {
        fn enter(&mut self, mh: MhId, requested_at: SimTime, now: SimTime, key: Option<u64>) {
            self.violations.0 += u64::from(self.holder.is_some());
            if let (Some(k), Some(prev)) = (key, self.last_key) {
                self.violations.1 += u64::from(k < prev);
            }
            self.last_key = key.or(self.last_key);
            self.holder = Some(mh);
            self.episodes.push(Episode {
                mh,
                requested_at,
                granted_at: now,
                released_at: None,
                key,
            });
        }
        fn exit(&mut self, mh: MhId, now: SimTime) {
            if self.holder != Some(mh) {
                self.violations.2 += 1;
                return;
            }
            self.holder = None;
            if let Some(ep) = self
                .episodes
                .iter_mut()
                .rev()
                .find(|e| e.mh == mh && e.released_at.is_none())
            {
                ep.released_at = Some(now);
            }
        }
        /// Sums in `u128`: a `u64` sum overflows on waits near `u64::MAX`.
        fn mean_wait(&self) -> f64 {
            if self.episodes.is_empty() {
                return 0.0;
            }
            let sum: u128 = self.episodes.iter().map(|e| u128::from(e.wait())).sum();
            sum as f64 / self.episodes.len() as f64
        }
        fn wait_percentile(&self, p: f64) -> u64 {
            let mut waits: Vec<u64> = self.episodes.iter().map(Episode::wait).collect();
            waits.sort_unstable();
            if waits.is_empty() {
                return 0;
            }
            let rank = ((p * waits.len() as f64).ceil() as usize).clamp(1, waits.len());
            waits[rank - 1]
        }
    }

    let tick = |r: &mut SimRng, base: u64| match r.below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => r.next_u64(),
        3 => base.saturating_sub(r.below(50)),
        _ => {
            let bits = r.below(40);
            base.saturating_add(r.below(1 << bits))
        }
    };
    for_cases("packed_episode_log", 300, |r| {
        let hosts = r.between(1, 4) as u32;
        let keyed = r.chance(0.7);
        let mut c = SafetyChecker::new();
        let mut reference = Reference::default();
        let (mut now, mut key) = (r.below(1 << 20), 0u64);
        let steps = r.between(0, 80);
        for step in 1..=steps {
            now = tick(r, now);
            let mh = if r.chance(0.05) {
                MhId(u32::MAX)
            } else {
                MhId(r.below(u64::from(hosts)) as u32)
            };
            if r.chance(0.55) {
                let requested = tick(r, now);
                let k = match r.below(8) {
                    _ if !keyed => None,
                    0 => None,
                    1 => Some(u64::MAX),
                    2 => Some(key.saturating_sub(r.below(100))),
                    _ => {
                        key = key.saturating_add(r.below(1 << 20));
                        Some(key)
                    }
                };
                let (requested, now) = (SimTime::from_ticks(requested), SimTime::from_ticks(now));
                c.enter(mh, requested, now, k);
                reference.enter(mh, requested, now, k);
            } else {
                let mh = match (r.chance(0.7), reference.holder) {
                    (true, Some(h)) => h,
                    _ => mh,
                };
                c.exit(mh, SimTime::from_ticks(now));
                reference.exit(mh, SimTime::from_ticks(now));
            }
            let log = c.episodes();
            assert_eq!(log.len(), reference.episodes.len());
            assert_eq!(log.is_empty(), reference.episodes.is_empty());
            assert!(log.iter().eq(reference.episodes.iter().copied()));
            assert_eq!(c.mean_wait().to_bits(), reference.mean_wait().to_bits());
            // Each percentile walks the log once per radix digit; every
            // eighth step and the last are enough.
            if step % 8 == 0 || step == steps {
                for p in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
                    assert_eq!(
                        c.wait_percentile(p),
                        reference.wait_percentile(p),
                        "p = {p}"
                    );
                }
            }
            assert_eq!(
                (
                    c.safety_violations(),
                    c.order_violations(),
                    c.unmatched_exits()
                ),
                reference.violations
            );
            assert_eq!(c.holder(), reference.holder);
        }
        assert_eq!(c.episodes().clone(), *c.episodes());
    });
}
