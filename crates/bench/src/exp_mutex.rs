//! Experiments E1–E4 and E7–E9: the mutual-exclusion cost comparisons of
//! Section 3, regenerated by measurement and printed against the paper's
//! closed-form predictions.

use crate::obs;
use crate::parallel::{default_jobs, map_indexed_with};
use crate::table::{f2, pct, Table};
use mobidist_core::prelude::*;
use mobidist_cost as formulas;
use mobidist_cost::Params;
use mobidist_net::ledger::CostLedger;
use mobidist_net::prelude::*;

/// The paper's cost parameters as the closed-form module takes them.
pub(crate) fn params(c: CostModel) -> Params {
    Params {
        c_fixed: c.c_fixed,
        c_wireless: c.c_wireless,
        c_search: c.c_search,
    }
}

/// Outcome of one harnessed mutex run.
#[derive(Debug)]
pub struct MutexRun {
    /// Liveness/safety summary.
    pub report: MutexReport,
    /// Full ledger at the end of the run.
    pub ledger: CostLedger,
}

impl MutexRun {
    /// Mean total cost per completed execution.
    pub fn cost_per_execution(&self) -> f64 {
        if self.report.completed == 0 {
            return f64::NAN;
        }
        self.ledger.total_cost() as f64 / self.report.completed as f64
    }
}

fn finish<A: MutexAlgorithm>(sim: &mut Simulation<MutexHarness<A>>, horizon: u64) -> MutexRun {
    sim.run_until(SimTime::from_ticks(horizon));
    let report = sim.protocol().report();
    assert_eq!(report.safety_violations, 0, "mutual exclusion violated");
    MutexRun {
        report,
        ledger: sim.ledger().clone(),
    }
}

/// Worker state of the benchmark package's seed sweep, which passes
/// `L2Pool::new` to `map_indexed_with`. It holds nothing; kept only because
/// that package compiles against it.
pub type L2Pool = SimPool<MutexHarness<L2>>;

/// Runs L1 with every MH issuing `reqs` requests.
fn run_l1(cfg: NetworkConfig, reqs: usize, horizon: u64) -> MutexRun {
    let wl = WorkloadConfig::all_mhs(cfg.num_mh, reqs).with_think(200);
    obs::run(
        "l1",
        &cfg,
        || MutexHarness::new(L1::new(wl.requesters.clone()), wl),
        |sim| finish(sim, horizon),
    )
}

/// Runs L2 with every MH issuing `reqs` requests.
pub(crate) fn run_l2(cfg: NetworkConfig, reqs: usize, horizon: u64) -> MutexRun {
    let wl = WorkloadConfig::all_mhs(cfg.num_mh, reqs).with_think(200);
    obs::run(
        "l2",
        &cfg,
        || MutexHarness::new(L2::new(cfg.num_mss), wl),
        |sim| finish(sim, horizon),
    )
}

/// Runs L2 with every MH issuing `reqs` requests; the same run E1 and E4
/// make. The unused pool parameter is kept only because the benchmark
/// package's seed sweep compiles against this signature.
pub fn run_l2_in(_: &mut L2Pool, cfg: NetworkConfig, reqs: usize, horizon: u64) -> MutexRun {
    run_l2(cfg, reqs, horizon)
}

/// Runs R1; also returns `(traversals, hops)`.
pub(crate) fn run_r1(cfg: NetworkConfig, wl: WorkloadConfig, horizon: u64) -> (MutexRun, u64, u64) {
    obs::run(
        "r1",
        &cfg,
        || {
            let ring: Vec<MhId> = (0..cfg.num_mh as u32).map(MhId).collect();
            MutexHarness::new(R1::new(ring, R1DisconnectPolicy::Stall), wl)
        },
        |sim| {
            let run = finish(sim, horizon);
            let a = sim.protocol().algorithm();
            (run, a.traversals(), a.hops())
        },
    )
}

/// Runs an R2 variant; also returns `(traversals, token_passes,
/// max_services_per_traversal)`.
pub(crate) fn run_r2(
    cfg: NetworkConfig,
    guard: RingGuard,
    wl: WorkloadConfig,
    horizon: u64,
    liar: Option<MhId>,
) -> (MutexRun, u64, u64, u64) {
    obs::run(
        "r2",
        &cfg,
        || {
            let mut algo = R2::new(cfg.num_mss, guard);
            if let Some(l) = liar {
                algo = algo.with_liar(l);
            }
            MutexHarness::new(algo, wl)
        },
        |sim| {
            let run = finish(sim, horizon);
            let a = sim.protocol().algorithm();
            (
                run,
                a.traversals(),
                a.token_passes(),
                a.max_services_per_traversal(),
            )
        },
    )
}

/// E1's and E4's sweep unit: one request per MH on L1 or L2.
fn run_lamport(cfg: NetworkConfig, is_l2: bool) -> MutexRun {
    if is_l2 {
        run_l2(cfg, 1, 50_000_000)
    } else {
        run_l1(cfg, 1, 50_000_000)
    }
}

/// **E1** — L1 vs L2 cost per execution as `N` grows (Section 3.1.1).
pub fn e1_lamport(quick: bool) -> Table {
    let m = 8;
    let ns: &[usize] = if quick {
        &[4, 8]
    } else {
        &[4, 8, 16, 32, 64, 96]
    };
    let mut t = Table::new(
        "E1 — Lamport mutual exclusion: cost per execution (M = 8)",
        &[
            "N",
            "L1 paper 3(N-1)(2Cw+Cs)",
            "L1 measured",
            "L2 paper 3Cw+Cf+Cs+3(M-1)Cf",
            "L2 measured",
            "L1/L2",
        ],
    );
    // Fan every (N, algorithm) run out as its own task: runs are seeded and
    // independent, and rows are assembled by index, so the table is
    // byte-identical at any worker count.
    let tasks: Vec<(usize, bool)> = ns.iter().flat_map(|&n| [(n, false), (n, true)]).collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (n, is_l2)| run_lamport(NetworkConfig::new(m, n).with_seed(100 + n as u64), is_l2),
    );
    for (i, &n) in ns.iter().enumerate() {
        let (l1, l2) = (&runs[2 * i], &runs[2 * i + 1]);
        let p = params(NetworkConfig::new(m, n).cost);
        assert_eq!(l1.report.completed, n as u64);
        assert_eq!(l2.report.completed, n as u64);
        let ratio = l1.cost_per_execution() / l2.cost_per_execution();
        t.push(vec![
            n.to_string(),
            formulas::l1_execution_cost(n as u64, p).to_string(),
            f2(l1.cost_per_execution()),
            formulas::l2_execution_cost(m as u64, p).to_string(),
            f2(l2.cost_per_execution()),
            f2(ratio),
        ]);
    }
    t
}

/// **E2** — ring algorithms: cost per traversal vs requests served
/// (Section 3.1.2). R1's cost is flat in K; R2's is proportional.
pub fn e2_ring(quick: bool) -> Table {
    let m = 8;
    let n = if quick { 8 } else { 24 };
    let mut t = Table::new(
        format!("E2 — token rings: cost per traversal (M = {m}, N = {n})"),
        &[
            "think time",
            "K (req/traversal)",
            "R1 paper N(2Cw+Cs)",
            "R1 measured",
            "R2 paper K(3Cw+Cf+Cs)+MCf",
            "R2 measured",
        ],
    );
    let thinks: &[u64] = if quick {
        &[200]
    } else {
        &[2_000, 500, 120, 30]
    };
    let horizon = if quick { 150_000 } else { 400_000 };
    let tasks: Vec<(u64, bool)> = thinks
        .iter()
        .flat_map(|&th| [(th, false), (th, true)])
        .collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (think, is_r2)| {
            let cfg = NetworkConfig::new(m, n).with_seed(7);
            let wl = WorkloadConfig::all_mhs(n, usize::MAX / 2)
                .with_think(think)
                .with_hold(5);
            // Bound requests by horizon instead of count: use a large count
            // and a fixed horizon so K emerges from the think time.
            let wl = WorkloadConfig {
                requests_per_mh: 1_000_000,
                ..wl
            };
            // Either ring as `(run, traversals, hops or token passes)`.
            if is_r2 {
                let (r2, tr2, passes, _) = run_r2(cfg, RingGuard::Plain, wl, horizon, None);
                (r2, tr2, passes)
            } else {
                run_r1(cfg, wl, horizon)
            }
        },
    );
    for (i, &think) in thinks.iter().enumerate() {
        let p = params(NetworkConfig::new(m, n).cost);
        let ((_, tr1, hops), (r2, tr2, _)) = (&runs[2 * i], &runs[2 * i + 1]);
        let (tr1, hops, tr2) = (*tr1, *hops, *tr2);
        let k = if tr2 == 0 {
            0.0
        } else {
            r2.report.completed as f64 / tr2 as f64
        };
        let r1_per = if tr1 == 0 {
            f64::NAN
        } else {
            hops as f64 * p.mh_to_mh() as f64 / tr1 as f64
        };
        let r2_per = if tr2 == 0 {
            f64::NAN
        } else {
            r2.ledger.total_cost() as f64 / tr2 as f64
        };
        t.push(vec![
            think.to_string(),
            f2(k),
            formulas::r1_traversal_cost(n as u64, p).to_string(),
            f2(r1_per),
            f2(formulas::r2_cost(k.round() as u64, m as u64, p) as f64),
            f2(r2_per),
        ]);
    }
    t
}

/// **E3** — battery: wireless operations per execution (Sections
/// 3.1.1–3.1.2). The paper's core energy claims.
pub fn e3_energy(quick: bool) -> Table {
    let m = 8;
    let n = if quick { 8 } else { 32 };
    let mut t = Table::new(
        format!("E3 — wireless ops (energy) per execution (M = {m}, N = {n})"),
        &[
            "algorithm",
            "paper: total",
            "measured: total",
            "paper: at initiator",
            "measured: at initiator",
        ],
    );
    let cfg = || NetworkConfig::new(m, n).with_seed(31);
    // Each row is one independent run: fan the four out and push them in
    // task order.
    let rows = map_indexed_with(
        vec!["L1", "L2", "R1 (per traversal)", "R2' (per request)"],
        default_jobs(),
        || (),
        |(), _, row| match row {
            // L1: single execution by mh0.
            "L1" => {
                let wl = WorkloadConfig::only(vec![MhId(0)], 1);
                let run = obs::run(
                    "e3_l1",
                    &cfg(),
                    || MutexHarness::new(L1::new((0..n as u32).map(MhId).collect()), wl),
                    |sim| finish(sim, 50_000_000),
                );
                vec![
                    row.into(),
                    formulas::l1_energy_total(n as u64).to_string(),
                    run.ledger.total_energy().to_string(),
                    formulas::l1_energy_initiator(n as u64).to_string(),
                    run.ledger.mh_energy[0].to_string(),
                ]
            }
            // L2: single execution by mh0.
            "L2" => {
                let wl = WorkloadConfig::only(vec![MhId(0)], 1);
                let run = obs::run(
                    "e3_l2",
                    &cfg(),
                    || MutexHarness::new(L2::new(m), wl),
                    |sim| finish(sim, 50_000_000),
                );
                vec![
                    row.into(),
                    formulas::l2_wireless_msgs().to_string(),
                    run.ledger.total_energy().to_string(),
                    formulas::l2_wireless_msgs().to_string(),
                    run.ledger.mh_energy[0].to_string(),
                ]
            }
            // R1: per traversal (nobody requests; pure relay cost).
            "R1 (per traversal)" => {
                let wl = WorkloadConfig::only(vec![], 0);
                let (run, traversals, _) = run_r1(cfg(), wl, 60_000);
                let per = run.ledger.total_energy() as f64 / traversals.max(1) as f64;
                vec![
                    row.into(),
                    formulas::r1_energy_per_traversal(n as u64).to_string(),
                    f2(per),
                    "0 (no requester)".into(),
                    "-".into(),
                ]
            }
            // R2': per served request.
            _ => {
                let wl = WorkloadConfig::only(vec![MhId(0)], 4).with_think(50);
                let (run, _, _, _) = run_r2(cfg(), RingGuard::Counter, wl, 300_000, None);
                let per = run.ledger.total_energy() as f64 / run.report.completed.max(1) as f64;
                vec![
                    row.into(),
                    formulas::r2_wireless_ops_per_request().to_string(),
                    f2(per),
                    formulas::r2_wireless_ops_per_request().to_string(),
                    f2(run.ledger.mh_energy[0] as f64 / run.report.completed.max(1) as f64),
                ]
            }
        },
    );
    rows.into_iter().for_each(|row| t.push(row));
    t
}

/// **E4** — sensitivity to the search/fixed cost ratio: by how much does
/// L2 beat L1 as `C_search` grows (Section 3.1.1's comparison, swept).
pub fn e4_search_ratio(quick: bool) -> Table {
    let m = 8;
    let n = if quick { 8 } else { 32 };
    let mut t = Table::new(
        format!("E4 — L1/L2 improvement factor vs C_search/C_fixed (M = {m}, N = {n})"),
        &[
            "C_search/C_fixed",
            "policy",
            "L1 measured",
            "L2 measured",
            "factor",
            "paper factor",
        ],
    );
    let ratios: &[u64] = if quick {
        &[1, 8]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    // Oracle search at each ratio, then the two realised substrates: the
    // worst case, flooding (C_search ≈ (M+1)·C_fixed), and the best, home
    // agents (C_search ≈ 2·C_fixed).
    let oracle = |&cs: &u64| (cs.to_string(), "oracle", cs, 41, SearchPolicy::Oracle);
    let flood = m as u64 + 1;
    let rows: Vec<_> = ratios
        .iter()
        .map(oracle)
        .chain([
            (
                format!("{flood} (flood)"),
                "flood",
                flood,
                42,
                SearchPolicy::Flood,
            ),
            (
                "2 (home agent)".into(),
                "home-agent",
                2,
                43,
                SearchPolicy::HomeAgent,
            ),
        ])
        .map(|(label, policy, cs, seed, search)| {
            let cfg = NetworkConfig::new(m, n)
                .with_seed(seed)
                .with_cost(CostModel::new(1, 10, cs))
                .with_search(search);
            (label, policy, cfg)
        })
        .collect();
    // Fan every (row, L1|L2) run out as its own task, as E1 does.
    let tasks: Vec<(&NetworkConfig, bool)> = rows
        .iter()
        .flat_map(|(_, _, cfg)| [(cfg, false), (cfg, true)])
        .collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (cfg, is_l2)| run_lamport(cfg.clone(), is_l2),
    );
    for (i, (label, policy, cfg)) in rows.into_iter().enumerate() {
        let (l1, l2) = (&runs[2 * i], &runs[2 * i + 1]);
        let p = params(cfg.cost);
        let factor = l1.cost_per_execution() / l2.cost_per_execution();
        let paper = formulas::l1_execution_cost(n as u64, p) as f64
            / formulas::l2_execution_cost(m as u64, p) as f64;
        t.push(vec![
            label,
            policy.into(),
            f2(l1.cost_per_execution()),
            f2(l2.cost_per_execution()),
            f2(factor),
            f2(paper),
        ]);
    }
    t
}

/// **E7** — disconnection tolerance: executions completed within a fixed
/// horizon as voluntary disconnections become more frequent.
pub fn e7_disconnection(quick: bool) -> Table {
    let m = 4;
    let n = if quick { 6 } else { 12 };
    let horizon = if quick { 150_000 } else { 600_000 };
    let mut t = Table::new(
        format!("E7 — progress under disconnection (M = {m}, N = {n}, horizon {horizon})"),
        &[
            "mean uptime",
            "L1 done",
            "L2 done",
            "L2 aborted",
            "R1 done",
            "R2 done",
            "R2 aborted",
        ],
    );
    let uptimes: &[Option<u64>] = if quick {
        &[None, Some(3_000)]
    } else {
        &[None, Some(20_000), Some(6_000), Some(2_000)]
    };
    let reqs = 2;
    let wl = || WorkloadConfig::all_mhs(n, reqs).with_think(300);
    let expect = (n * reqs) as u64;
    // Fan every (uptime, algorithm) run out as its own task. L1, L2, R1 and
    // R2 run on seeds 1, 2, 3 and 4, so the seed names the algorithm.
    let tasks: Vec<(Option<u64>, u64)> = uptimes
        .iter()
        .flat_map(|&up| (1..=4).map(move |seed| (up, seed)))
        .collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (up, seed)| {
            let mut cfg = NetworkConfig::new(m, n).with_seed(seed);
            if let Some(u) = up {
                cfg = cfg.with_disconnect(DisconnectConfig {
                    enabled: true,
                    mean_uptime: u,
                    mean_downtime: u / 4,
                    p_supply_prev: 1.0,
                });
            }
            match seed {
                1 => obs::run(
                    "e7_l1",
                    &cfg,
                    || MutexHarness::new(L1::new(wl().requesters), wl()),
                    |sim| finish(sim, horizon),
                ),
                2 => obs::run(
                    "e7_l2",
                    &cfg,
                    || MutexHarness::new(L2::new(m), wl()),
                    |sim| finish(sim, horizon),
                ),
                3 => run_r1(cfg, wl(), horizon).0,
                _ => run_r2(cfg, RingGuard::Plain, wl(), horizon, None).0,
            }
        },
    );
    for (&up, quad) in uptimes.iter().zip(runs.chunks_exact(4)) {
        let [l1, l2, r1, r2] = quad else {
            unreachable!("chunks of four")
        };
        t.push(vec![
            up.map_or("static".into(), |u| u.to_string()),
            pct(l1.report.completed as f64 / expect as f64),
            pct(l2.report.completed as f64 / expect as f64),
            l2.report.aborted.to_string(),
            pct(r1.report.completed as f64 / expect as f64),
            pct(r2.report.completed as f64 / expect as f64),
            r2.report.aborted.to_string(),
        ]);
    }
    t
}

/// **E8** — doze-mode interruptions: R1 wakes every dozing relay, R2 only
/// its requesters.
pub fn e8_doze(quick: bool) -> Table {
    let m = 4;
    let n = if quick { 8 } else { 16 };
    let horizon = if quick { 60_000 } else { 200_000 };
    let mut t = Table::new(
        format!("E8 — doze interruptions (M = {m}, N = {n}, 2 requesters)"),
        &["algorithm", "completed", "doze interruptions"],
    );
    let wl = || WorkloadConfig::only(vec![MhId(0), MhId(1)], 3).with_doze();
    let cfg = || NetworkConfig::new(m, n).with_seed(81);
    // The two rings are independent runs, one task each.
    let rows = map_indexed_with(
        vec!["R1", "R2'"],
        default_jobs(),
        || (),
        |(), _, ring| {
            let run = match ring {
                "R1" => run_r1(cfg(), wl(), horizon).0,
                _ => run_r2(cfg(), RingGuard::Counter, wl(), horizon, None).0,
            };
            vec![
                ring.into(),
                run.report.completed.to_string(),
                run.ledger.doze_interruptions.to_string(),
            ]
        },
    );
    rows.into_iter().for_each(|row| t.push(row));
    t
}

/// **E9** — fairness and malice: services per MH per traversal for the
/// three R2 admission guards, with an honest population and with one MH
/// under-reporting its access count.
pub fn e9_fairness(quick: bool) -> Table {
    let m = 4;
    let n = if quick { 4 } else { 6 };
    let horizon = if quick { 80_000 } else { 250_000 };
    let mut t = Table::new(
        format!("E9 — max services per MH per traversal (M = {m}, N = {n})"),
        &["guard", "population", "max services/traversal", "completed"],
    );
    let mobility = MobilityConfig {
        enabled: true,
        mean_dwell: 80,
        mean_gap: 5,
        ..MobilityConfig::default()
    };
    // Fan every (guard, liar) run out as its own task.
    let tasks: Vec<(RingGuard, Option<MhId>)> =
        [RingGuard::Plain, RingGuard::Counter, RingGuard::TokenList]
            .into_iter()
            .flat_map(|guard| [(guard, None), (guard, Some(MhId(0)))])
            .collect();
    let rows = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (guard, liar)| {
            let wl = WorkloadConfig::only(vec![MhId(0)], if quick { 20 } else { 60 })
                .with_think(10)
                .with_hold(3);
            let cfg = NetworkConfig::new(m, n)
                .with_seed(91 + liar.map_or(0, |_| 1))
                .with_mobility(mobility);
            let (run, _, _, max) = run_r2(cfg, guard, wl, horizon, liar);
            let name = match guard {
                RingGuard::Plain => "R2",
                RingGuard::Counter => "R2'",
                RingGuard::TokenList => "R2-list",
            };
            vec![
                name.into(),
                if liar.is_some() { "1 liar" } else { "honest" }.into(),
                max.to_string(),
                run.report.completed.to_string(),
            ]
        },
    );
    rows.into_iter().for_each(|row| t.push(row));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_quick_matches_predictions_exactly() {
        let t = e1_lamport(true);
        for row in &t.rows {
            // Static hosts: L1 measured equals the formula exactly.
            assert_eq!(format!("{}.00", row[1]), row[2], "L1 at N={}", row[0]);
            // L2 measured is the formula minus C_fixed (no release relay
            // when the initiator never moves).
            let paper: f64 = row[3].parse().unwrap();
            let measured: f64 = row[4].parse().unwrap();
            assert_eq!(measured, paper - 1.0, "L2 at N={}", row[0]);
        }
    }

    #[test]
    fn e2_quick_r1_flat_r2_proportional() {
        let t = e2_ring(true);
        assert_eq!(t.rows.len(), 1);
        let r1_paper: f64 = t.rows[0][2].parse().unwrap();
        let r1_measured: f64 = t.rows[0][3].parse().unwrap();
        assert!((r1_measured - r1_paper).abs() / r1_paper < 0.05);
    }

    #[test]
    fn e3_quick_energy_matches() {
        let t = e3_energy(true);
        // L1 row: totals match exactly.
        assert_eq!(t.rows[0][1], t.rows[0][2]);
        assert_eq!(t.rows[0][3], t.rows[0][4]);
        // L2 row: 3 wireless ops.
        assert_eq!(t.rows[1][2], "3");
    }

    #[test]
    fn e4_quick_factor_grows_with_search_cost() {
        let t = e4_search_ratio(true);
        let f_low: f64 = t.rows[0][4].parse().unwrap();
        let f_high: f64 = t.rows[1][4].parse().unwrap();
        assert!(f_high > f_low, "{f_high} vs {f_low}");
        assert!(f_low > 1.0, "L2 wins even at C_search = C_fixed");
    }

    #[test]
    fn e7_quick_l2_r2_tolerate_disconnection() {
        let t = e7_disconnection(true);
        // Static row: everyone completes.
        assert_eq!(t.rows[0][1], "100.0%");
        assert_eq!(t.rows[0][4], "100.0%");
        // Disconnected row: L2 completes+aborts everything it was given,
        // L1 falls behind.
        let l1: f64 = t.rows[1][1].trim_end_matches('%').parse().unwrap();
        let l2: f64 = t.rows[1][2].trim_end_matches('%').parse().unwrap();
        assert!(l2 >= l1, "L2 ({l2}%) must not trail L1 ({l1}%)");
    }

    #[test]
    fn e8_quick_r1_interrupts_r2_does_not() {
        let t = e8_doze(true);
        let r1: u64 = t.rows[0][2].parse().unwrap();
        let r2: u64 = t.rows[1][2].parse().unwrap();
        assert!(r1 > 0);
        assert_eq!(r2, 0);
    }

    #[test]
    fn e9_quick_guards_behave() {
        let t = e9_fairness(true);
        // Counter guard honest: max 1. Token-list with liar: max 1.
        let find = |guard: &str, pop: &str| -> u64 {
            t.rows
                .iter()
                .find(|r| r[0] == guard && r[1] == pop)
                .map(|r| r[2].parse().unwrap())
                .expect("row present")
        };
        assert_eq!(find("R2'", "honest"), 1);
        assert_eq!(find("R2-list", "honest"), 1);
        assert_eq!(find("R2-list", "1 liar"), 1);
    }
}
