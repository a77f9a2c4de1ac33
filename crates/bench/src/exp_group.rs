//! Experiments E5–E6: group location management (Section 4).

use crate::cache::run_cached;
use crate::exp_mutex::params;
use crate::parallel::{default_jobs, map_indexed_with};
use crate::table::{f2, pct, Table};
use mobidist_cost as formulas;
use mobidist_group::prelude::*;
use mobidist_net::ledger::CostLedger;
use mobidist_net::prelude::*;

/// Outcome of one group-strategy run.
#[derive(Debug)]
pub struct GroupRun {
    /// Delivery audit.
    pub report: GroupReport,
    /// Final ledger.
    pub ledger: CostLedger,
    /// Location-view statistics, when the strategy was LV.
    pub lv: Option<(usize, f64)>, // (max view size, significant fraction)
}

impl GroupRun {
    /// Measured effective cost per group message.
    pub fn cost_per_message(&self) -> f64 {
        if self.report.sent == 0 {
            return f64::NAN;
        }
        self.ledger.total_cost() as f64 / self.report.sent as f64
    }
}

/// Per-worker simulation pools, one per strategy type, recycled across the
/// points a sweep worker processes.
#[derive(Debug, Default)]
pub struct StrategyPools {
    /// Pure-search simulations.
    pub ps: SimPool<GroupHarness<PureSearch>>,
    /// Always-inform simulations.
    pub ai: SimPool<GroupHarness<AlwaysInform>>,
    /// Location-view simulations.
    pub lv: SimPool<GroupHarness<LocationView>>,
    /// Exactly-once simulations (E11).
    pub eo: SimPool<GroupHarness<ExactlyOnce>>,
}

impl StrategyPools {
    /// Creates empty pools.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs one strategy under the given network/workload, recycling pooled
/// simulations.
pub fn run_strategy_in(
    pools: &mut StrategyPools,
    cfg: NetworkConfig,
    which: &str,
    members: Vec<MhId>,
    wl: GroupWorkload,
    horizon: u64,
) -> GroupRun {
    /// One run on the pool of its strategy's simulation type; `lv` reads
    /// the location-view statistics off the finished strategy.
    fn run<S: LocationStrategy>(
        pool: &mut SimPool<GroupHarness<S>>,
        which: &str,
        cfg: &NetworkConfig,
        extra: (&Vec<MhId>, &GroupWorkload, u64),
        strategy: S,
        lv: impl FnOnce(&S) -> Option<(usize, f64)>,
    ) -> GroupRun {
        let (_, wl, horizon) = extra;
        run_cached(
            pool,
            which,
            cfg,
            &extra,
            || GroupHarness::new(strategy, wl.clone()),
            |sim| {
                sim.run_until(SimTime::from_ticks(horizon));
                GroupRun {
                    report: sim.protocol().report(),
                    ledger: sim.ledger().clone(),
                    lv: lv(sim.protocol().strategy()),
                }
            },
        )
    }
    let extra = (&members, &wl, horizon);
    let m = || members.clone();
    match which {
        "pure-search" => run(
            &mut pools.ps,
            which,
            &cfg,
            extra,
            PureSearch::new(m()),
            |_| None,
        ),
        "always-inform" => run(
            &mut pools.ai,
            which,
            &cfg,
            extra,
            AlwaysInform::new(m()),
            |_| None,
        ),
        "location-view" => {
            let s = LocationView::new(m(), MssId(0));
            run(&mut pools.lv, which, &cfg, extra, s, |s| {
                Some((s.max_view_size(), s.significant_fraction()))
            })
        }
        "exactly-once" => {
            let s = ExactlyOnce::new(m(), MssId(0));
            run(&mut pools.eo, which, &cfg, extra, s, |_| None)
        }
        other => panic!("unknown strategy {other}"),
    }
}

/// **E5** — effective cost per group message vs the mobility-to-message
/// ratio, for all three strategies, against the paper's formulas.
pub fn e5_group_strategies(quick: bool) -> Table {
    let m = 8;
    let g = 8;
    let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
    let msgs = if quick { 8 } else { 30 };
    let interval = 500u64;
    let mut t = Table::new(
        format!("E5 — effective cost per group message (M = {m}, |G| = {g})"),
        &[
            "MOB/MSG",
            "PS paper",
            "PS measured",
            "AI paper",
            "AI measured",
            "LV paper",
            "LV measured",
            "delivery (PS/AI/LV)",
        ],
    );
    // Dwell times chosen to sweep the ratio from ~0 to ≫1.
    let dwells: &[Option<u64>] = if quick {
        &[None, Some(400)]
    } else {
        &[None, Some(4_000), Some(1_200), Some(400), Some(150)]
    };
    // Fan every (dwell, strategy) run out as its own task; rows are
    // assembled by index so the table is byte-identical at any worker count.
    const STRATEGIES: [&str; 3] = ["pure-search", "always-inform", "location-view"];
    let tasks: Vec<(Option<u64>, &str)> = dwells
        .iter()
        .flat_map(|&d| STRATEGIES.map(|s| (d, s)))
        .collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        StrategyPools::new,
        |pools, _, (dwell, which)| {
            let mut cfg = NetworkConfig::new(m, g)
                .with_seed(50)
                .with_placement(Placement::Clustered { cells: 3 });
            if let Some(d) = dwell {
                cfg = cfg.with_mobility(MobilityConfig {
                    enabled: true,
                    mean_dwell: d,
                    mean_gap: 10,
                    pattern: MovePattern::Locality {
                        p_local: 0.7,
                        home_span: 3,
                    },
                });
            }
            let horizon = (msgs as u64) * interval * 4;
            let wl = GroupWorkload::new(members.clone(), msgs, interval);
            run_strategy_in(pools, cfg, which, members.clone(), wl, horizon)
        },
    );
    for (i, _dwell) in dwells.iter().enumerate() {
        let p = params(CostModel::default());
        let (ps, ai, lv) = (&runs[3 * i], &runs[3 * i + 1], &runs[3 * i + 2]);

        let ratio = ai.report.mobility_ratio();
        let (lv_max, f) = lv.lv.expect("LV run records view stats");
        t.push(vec![
            f2(ratio),
            f2(formulas::pure_search_effective(g as u64, p)),
            f2(ps.cost_per_message()),
            f2(formulas::always_inform_effective(g as u64, ratio, p)),
            f2(ai.cost_per_message()),
            f2(formulas::location_view_effective(
                g as u64,
                lv_max as u64,
                f,
                lv.report.mobility_ratio(),
                p,
            )),
            f2(lv.cost_per_message()),
            format!(
                "{}/{}/{}",
                pct(ps.report.delivery_ratio()),
                pct(ai.report.delivery_ratio()),
                pct(lv.report.delivery_ratio())
            ),
        ]);
    }
    t
}

/// **E6** — locality: `|LV(G)| ≪ |G|` for concentrated groups, and the
/// significant fraction `f` falls as locality rises.
pub fn e6_locality(quick: bool) -> Table {
    let m = 16;
    let g = if quick { 8 } else { 16 };
    let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
    let mut t = Table::new(
        format!("E6 — location-view size vs locality (M = {m}, |G| = {g})"),
        &[
            "p_local",
            "|LV|max",
            "|G|",
            "f (significant fraction)",
            "LV cost/msg",
            "delivery",
        ],
    );
    let ps: &[f64] = if quick {
        &[0.0, 0.9]
    } else {
        &[0.0, 0.5, 0.8, 0.95]
    };
    // One task per locality point; rows come back in task order.
    let rows = map_indexed_with(
        ps.to_vec(),
        default_jobs(),
        StrategyPools::new,
        |pools, _, p_local| {
            let cfg = NetworkConfig::new(m, g)
                .with_seed(60)
                .with_placement(Placement::Clustered { cells: 3 })
                .with_mobility(MobilityConfig {
                    enabled: true,
                    mean_dwell: 400,
                    mean_gap: 10,
                    pattern: MovePattern::Locality {
                        p_local,
                        home_span: 3,
                    },
                });
            let msgs = if quick { 8 } else { 25 };
            let wl = GroupWorkload::new(members.clone(), msgs, 300);
            let run = run_strategy_in(pools, cfg, "location-view", members.clone(), wl, 1_000_000);
            let (lv_max, f) = run.lv.expect("LV stats");
            vec![
                f2(p_local),
                lv_max.to_string(),
                g.to_string(),
                f2(f),
                f2(run.cost_per_message()),
                pct(run.report.delivery_ratio()),
            ]
        },
    );
    rows.into_iter().for_each(|row| t.push(row));
    t
}

/// **E11** — the exactly-once extension (reference \[1\]): delivery and cost
/// of all four strategies under increasing churn, averaged over seeds.
pub fn e11_exactly_once(quick: bool) -> Table {
    let m = 8;
    let g = 8;
    let members: Vec<MhId> = (0..g as u32).map(MhId).collect();
    let msgs = if quick { 8 } else { 25 };
    let seeds: Vec<u64> = if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let mut t = Table::new(
        format!(
            "E11 — exactly-once extension under churn (M = {m}, |G| = {g}, {} seeds)",
            seeds.len()
        ),
        &[
            "mean dwell",
            "strategy",
            "delivery (mean)",
            "misses (mean)",
            "cost/msg (mean ± std)",
        ],
    );
    let dwells: &[u64] = if quick {
        &[10_000, 150]
    } else {
        &[10_000, 600, 150]
    };
    const STRATEGIES: [&str; 4] = [
        "pure-search",
        "always-inform",
        "location-view",
        "exactly-once",
    ];
    // Fan every (dwell, strategy, seed) run out as its own task — the finest
    // independent unit, so even the quick matrix saturates a small machine.
    // Per-seed samples are re-grouped in seed order before summarising, so
    // the means and std-devs are bit-identical to the sequential loops.
    let mut tasks: Vec<(u64, &str, u64)> =
        Vec::with_capacity(dwells.len() * STRATEGIES.len() * seeds.len());
    for &d in dwells {
        for w in STRATEGIES {
            for &s in &seeds {
                tasks.push((d, w, s));
            }
        }
    }
    let samples = map_indexed_with(
        tasks,
        default_jobs(),
        StrategyPools::new,
        |pools, _, (dwell, which, seed)| {
            let cfg = NetworkConfig::new(m, g)
                .with_seed(seed)
                .with_mobility(MobilityConfig {
                    enabled: true,
                    mean_dwell: dwell,
                    mean_gap: 40,
                    ..MobilityConfig::default()
                });
            let wl = GroupWorkload::new(members.clone(), msgs, 60);
            let horizon = 60 * msgs as u64 + 20_000;
            let run = run_strategy_in(pools, cfg, which, members.clone(), wl, horizon);
            (
                run.report.delivery_ratio(),
                run.report.missed as f64,
                run.cost_per_message(),
            )
        },
    );
    let mut rows = samples.chunks_exact(seeds.len());
    for &dwell in dwells {
        for which in STRATEGIES {
            let chunk = rows.next().expect("one chunk per (dwell, strategy)");
            let deliveries: Vec<f64> = chunk.iter().map(|s| s.0).collect();
            let misses: Vec<f64> = chunk.iter().map(|s| s.1).collect();
            let costs: Vec<f64> = chunk.iter().map(|s| s.2).collect();
            let d = crate::stats::Summary::of(&deliveries);
            let mi = crate::stats::Summary::of(&misses);
            let c = crate::stats::Summary::of(&costs);
            t.push(vec![
                dwell.to_string(),
                which.into(),
                pct(d.mean),
                f2(mi.mean),
                c.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e11_quick_exactly_once_never_misses() {
        let t = e11_exactly_once(true);
        for row in &t.rows {
            if row[1] == "exactly-once" {
                assert_eq!(row[3], "0.00", "{row:?}");
                assert_eq!(row[2], "100.0%", "{row:?}");
            }
        }
        // Under high churn at least one baseline missed something.
        let baseline_misses: f64 = t
            .rows
            .iter()
            .filter(|r| r[0] == "150" && r[1] != "exactly-once")
            .map(|r| r[3].parse::<f64>().unwrap())
            .sum();
        assert!(baseline_misses > 0.0, "churn row should show losses\n{t}");
    }

    #[test]
    fn e5_quick_static_row_matches_formulas() {
        let t = e5_group_strategies(true);
        let row = &t.rows[0]; // static: MOB/MSG = 0
        assert_eq!(row[0], "0.00");
        // Pure search static: measured == paper exactly.
        assert_eq!(row[1], row[2]);
        // All strategies deliver everything when static.
        assert!(row[7].starts_with("100.0%/100.0%/100.0%"), "{}", row[7]);
    }

    #[test]
    fn e5_quick_mobile_row_orders_strategies() {
        let t = e5_group_strategies(true);
        let row = &t.rows[1];
        let ratio: f64 = row[0].parse().unwrap();
        assert!(ratio > 0.5, "mobility should be significant: {ratio}");
        let ai: f64 = row[4].parse().unwrap();
        let lv: f64 = row[6].parse().unwrap();
        assert!(lv < ai, "LV must beat AI at high MOB/MSG: {lv} vs {ai}");
    }

    #[test]
    fn e6_quick_locality_shrinks_view() {
        let t = e6_locality(true);
        let loose: u64 = t.rows[0][1].parse().unwrap();
        let tight: u64 = t.rows[1][1].parse().unwrap();
        assert!(
            tight <= loose,
            "locality cannot grow the view: {tight} vs {loose}"
        );
        // The view never needs the whole network.
        assert!(tight < 16, "|LV| stays below M");
        let f_loose: f64 = t.rows[0][3].parse().unwrap();
        let f_tight: f64 = t.rows[1][3].parse().unwrap();
        assert!(
            f_tight <= f_loose + 0.05,
            "locality lowers the significant fraction: {f_tight} vs {f_loose}"
        );
    }
}
