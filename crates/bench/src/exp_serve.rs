//! **E13** — heavy-traffic serving benchmark: closed-loop requesters
//! hammer one critical section and the five algorithms (L1, L2, L2C, R1,
//! R2) are compared on throughput, latency percentiles, fairness and
//! message cost.
//!
//! Unlike the horizon-bounded cost experiments (E1–E4), every E13 cell is
//! *fixed-work*: each requester issues a fixed number of requests and the
//! run executes until all of them completed, so throughput is
//! `completed / makespan` with makespan the tick of the last release. The
//! run still advances in fixed-size chunks bounded by a large horizon, so
//! idle background traffic (R1's token circulation) cannot spin forever.
//!
//! Every cell asserts the safety checker's verdict — zero mutual-exclusion
//! violations and zero ordering-key regressions — so the combining variant
//! L2C is proven safe on every configuration it is measured on.
//!
//! Latency percentiles come from the [`crate::stats::LatencyHist`] log₂
//! reducer; fairness is Jain's index over per-requester mean waits (in a
//! fixed-work run every requester completes the same count, so a
//! completion-count index would be trivially 1.0 — wait times are where
//! unfairness shows).

use crate::obs;
use crate::parallel::{default_jobs, map_indexed_with};
use crate::stats::{jain, LatencyHist};
use crate::table::{f2, Table};
use mobidist_core::prelude::*;
use mobidist_net::ledger::CostLedger;
use mobidist_net::prelude::*;
use std::collections::BTreeMap;

/// Ticks between completion checks of the chunked run loop. Chunk
/// boundaries are fixed, so when a run stops (first boundary at which all
/// work is done) is a deterministic function of the configuration alone.
const CHUNK: u64 = 100_000;

/// Hard ceiling on simulated time; a cell that cannot finish by here fails
/// its completion assertion instead of spinning.
const HORIZON: u64 = 500_000_000;

/// The algorithms the serving benchmark compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeAlgo {
    /// Lamport directly on the MHs.
    L1,
    /// Lamport lifted to the MSS proxies.
    L2,
    /// L2 with per-MSS request combining.
    L2c,
    /// Token ring over the MHs.
    R1,
    /// Token ring over the MSSs.
    R2,
}

impl ServeAlgo {
    /// Every compared algorithm, in display order.
    pub const ALL: [ServeAlgo; 5] = [
        ServeAlgo::L1,
        ServeAlgo::L2,
        ServeAlgo::L2c,
        ServeAlgo::R1,
        ServeAlgo::R2,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServeAlgo::L1 => "L1",
            ServeAlgo::L2 => "L2",
            ServeAlgo::L2c => "L2C",
            ServeAlgo::R1 => "R1",
            ServeAlgo::R2 => "R2",
        }
    }

    /// Trace label of this algorithm's E13 cells.
    fn label(self) -> &'static str {
        match self {
            ServeAlgo::L1 => "e13_l1",
            ServeAlgo::L2 => "e13_l2",
            ServeAlgo::L2c => "e13_l2c",
            ServeAlgo::R1 => "e13_r1",
            ServeAlgo::R2 => "e13_r2",
        }
    }
}

/// Reduced outcome of one fixed-work serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRun {
    /// Critical-section executions completed (equals the offered work).
    pub completed: u64,
    /// Tick of the last critical-section release.
    pub makespan: u64,
    /// Median request→grant wait (log₂-bucket upper bound).
    pub p50: u64,
    /// 95th-percentile wait.
    pub p95: u64,
    /// 99th-percentile wait.
    pub p99: u64,
    /// Mean request→grant wait.
    pub mean_wait: f64,
    /// Jain fairness index over per-requester mean waits.
    pub jain: f64,
    /// Combining rounds (`combine_batches` ledger counter; 0 for
    /// non-combining algorithms).
    pub batches: u64,
    /// Full cost ledger at the end of the run.
    pub ledger: CostLedger,
}

impl ServeRun {
    /// Throughput in critical-section entries per 1000 simulated ticks.
    pub fn throughput_per_ktick(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.completed as f64 * 1000.0 / self.makespan as f64
    }

    /// Wireless messages per completed execution.
    pub fn wireless_per_entry(&self) -> f64 {
        self.ledger.wireless_msgs as f64 / self.completed.max(1) as f64
    }

    /// Fixed-network messages per completed execution.
    pub fn fixed_per_entry(&self) -> f64 {
        self.ledger.fixed_msgs as f64 / self.completed.max(1) as f64
    }

    /// Mean members per combining round (0 when the run never combined).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.completed as f64 / self.batches as f64
    }
}

/// Advances `sim` in fixed [`CHUNK`]s until the workload completed
/// `target` executions (or [`HORIZON`] is hit), then reduces the run.
fn finish_serving<A: MutexAlgorithm>(
    sim: &mut Simulation<MutexHarness<A>>,
    target: u64,
) -> ServeRun {
    let mut t = CHUNK;
    loop {
        sim.run_until(SimTime::from_ticks(t.min(HORIZON)));
        if sim.protocol().completed() >= target || t >= HORIZON {
            break;
        }
        t += CHUNK;
    }
    let report = sim.protocol().report();
    assert_eq!(report.safety_violations, 0, "mutual exclusion violated");
    assert_eq!(report.order_violations, 0, "grant order regressed");
    assert_eq!(
        report.completed, target,
        "serving run did not finish its fixed work within the horizon"
    );

    let episodes = sim.protocol().checker().episodes();
    let mut hist = LatencyHist::new();
    let mut makespan = 0u64;
    let mut per_mh: BTreeMap<MhId, (u64, u64)> = BTreeMap::new();
    for ep in episodes {
        hist.record(ep.wait());
        if let Some(rel) = ep.released_at {
            makespan = makespan.max(rel.ticks());
        }
        let e = per_mh.entry(ep.mh).or_insert((0, 0));
        e.0 += ep.wait();
        e.1 += 1;
    }
    let means: Vec<f64> = per_mh
        .values()
        .map(|(sum, n)| *sum as f64 / *n as f64)
        .collect();
    let ledger = sim.ledger().clone();
    ServeRun {
        completed: report.completed,
        makespan,
        p50: hist.percentile(0.50),
        p95: hist.percentile(0.95),
        p99: hist.percentile(0.99),
        mean_wait: report.mean_wait,
        jain: jain(&means),
        batches: ledger.custom("combine_batches"),
        ledger,
    }
}

/// Runs one serving cell for `algo`, traced under `label`. E13 passes
/// [`ServeAlgo::label`]; E14's robustness grid reuses the serving machinery
/// under its own labels.
pub(crate) fn run_serve(
    algo: ServeAlgo,
    label: &'static str,
    cfg: NetworkConfig,
    wl: WorkloadConfig,
) -> ServeRun {
    /// One cell of one algorithm's simulation type.
    fn serve<A: MutexAlgorithm>(
        label: &str,
        cfg: &NetworkConfig,
        wl: &WorkloadConfig,
        algo: A,
    ) -> ServeRun {
        let target = (wl.requesters.len() * wl.requests_per_mh) as u64;
        obs::run(
            label,
            cfg,
            || MutexHarness::new(algo, wl.clone()),
            |sim| finish_serving(sim, target),
        )
    }
    let (cfg, wl, m) = (&cfg, &wl, cfg.num_mss);
    match algo {
        ServeAlgo::L1 => serve(label, cfg, wl, L1::new(wl.requesters.clone())),
        ServeAlgo::L2 => serve(label, cfg, wl, L2::new(m)),
        ServeAlgo::L2c => serve(label, cfg, wl, L2c::new(m)),
        ServeAlgo::R1 => {
            let ring: Vec<MhId> = (0..cfg.num_mh as u32).map(MhId).collect();
            serve(label, cfg, wl, R1::new(ring, R1DisconnectPolicy::Stall))
        }
        ServeAlgo::R2 => serve(label, cfg, wl, R2::new(m, RingGuard::Plain)),
    }
}

/// One planned row of the E13 table: either a real run or a skipped cell.
enum RowPlan {
    Run {
        sweep: &'static str,
        cell: String,
        algo: ServeAlgo,
        /// `(network, workload)` boxed: the enum is stored per table row
        /// and the skip variant should not pay the full config footprint.
        spec: Box<(NetworkConfig, WorkloadConfig)>,
    },
    Skip {
        sweep: &'static str,
        cell: String,
        algo: ServeAlgo,
        why: &'static str,
    },
}

/// The heavy-traffic serving cells: a contention sweep (think time), a
/// fairness cell (mixed CS lengths) and a requester-count sweep.
fn plan(quick: bool) -> Vec<RowPlan> {
    let m = 8;
    let reqs = 2;
    let mut rows = Vec::new();

    // E13a — contention: shrinking think time pushes the system from
    // light load into saturation.
    let n_a = if quick { 16 } else { 256 };
    let thinks: &[u64] = if quick { &[200] } else { &[10_000, 1_000, 100] };
    for (i, &think) in thinks.iter().enumerate() {
        for algo in ServeAlgo::ALL {
            rows.push(RowPlan::Run {
                sweep: "contention",
                cell: format!("N={n_a} think={think}"),
                algo,
                spec: Box::new((
                    NetworkConfig::new(m, n_a).with_seed(1301 + i as u64),
                    WorkloadConfig::all_mhs(n_a, reqs)
                        .with_think(think)
                        .with_hold(10),
                )),
            });
        }
    }

    // E13b — fairness: alternating short/long critical sections; Jain over
    // per-requester mean waits exposes starvation of either class.
    let n_b = if quick { 16 } else { 256 };
    for algo in ServeAlgo::ALL {
        rows.push(RowPlan::Run {
            sweep: "fairness",
            cell: format!("N={n_b} hold=5/50"),
            algo,
            spec: Box::new((
                NetworkConfig::new(m, n_b).with_seed(1340),
                WorkloadConfig::all_mhs(n_b, reqs)
                    .with_think(500)
                    .with_hold_profile(vec![5, 50]),
            )),
        });
    }

    // E13c — requester count: scaling the closed-loop population at fixed
    // think time. L1's per-execution cost is 3(N-1) wireless rounds, so it
    // is skipped at the largest population.
    let ns: &[usize] = if quick { &[8, 32] } else { &[64, 256, 1024] };
    let think_c = if quick { 200 } else { 1_000 };
    for (i, &n) in ns.iter().enumerate() {
        for algo in ServeAlgo::ALL {
            if algo == ServeAlgo::L1 && n > 512 {
                rows.push(RowPlan::Skip {
                    sweep: "requesters",
                    cell: format!("N={n} think={think_c}"),
                    algo,
                    why: "skipped: 3(N-1) wireless per entry",
                });
                continue;
            }
            rows.push(RowPlan::Run {
                sweep: "requesters",
                cell: format!("N={n} think={think_c}"),
                algo,
                spec: Box::new((
                    NetworkConfig::new(m, n).with_seed(1360 + i as u64),
                    WorkloadConfig::all_mhs(n, reqs)
                        .with_think(think_c)
                        .with_hold(10),
                )),
            });
        }
    }
    rows
}

/// **E13** — the serving benchmark table. One row per (cell, algorithm);
/// rows are fanned out as independent tasks and assembled by index, so the
/// table is byte-identical at any `--jobs` (and at any `MOBIDIST_SHARDS`:
/// E13 never consults the shard knob).
pub fn e13_serving(quick: bool) -> Table {
    let rows = plan(quick);
    let mut t = Table::new(
        format!(
            "E13 — heavy-traffic serving: closed-loop requesters (M = 8, {} req/MH)",
            2
        ),
        &[
            "sweep",
            "cell",
            "algo",
            "done",
            "thr/ktick",
            "p50",
            "p95",
            "p99",
            "jain",
            "wifi/entry",
            "wired/entry",
            "batch",
        ],
    );
    let tasks: Vec<(ServeAlgo, NetworkConfig, WorkloadConfig)> = rows
        .iter()
        .filter_map(|r| match r {
            RowPlan::Run { algo, spec, .. } => Some((*algo, spec.0.clone(), spec.1.clone())),
            RowPlan::Skip { .. } => None,
        })
        .collect();
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (algo, cfg, wl)| run_serve(algo, algo.label(), cfg, wl),
    );
    let mut next = 0usize;
    for row in &rows {
        match row {
            RowPlan::Run {
                sweep, cell, algo, ..
            } => {
                let r = &runs[next];
                next += 1;
                let batch = if r.batches > 0 {
                    f2(r.mean_batch())
                } else {
                    "-".into()
                };
                t.push(vec![
                    (*sweep).into(),
                    cell.clone(),
                    algo.name().into(),
                    r.completed.to_string(),
                    f2(r.throughput_per_ktick()),
                    r.p50.to_string(),
                    r.p95.to_string(),
                    r.p99.to_string(),
                    f2(r.jain),
                    f2(r.wireless_per_entry()),
                    f2(r.fixed_per_entry()),
                    batch,
                ]);
            }
            RowPlan::Skip {
                sweep,
                cell,
                algo,
                why,
            } => {
                t.push(vec![
                    (*sweep).into(),
                    cell.clone(),
                    algo.name().into(),
                    (*why).into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of<'a>(t: &'a Table, sweep: &str, algo: &str) -> Vec<&'a Vec<String>> {
        t.rows
            .iter()
            .filter(|r| r[0] == sweep && r[2] == algo)
            .collect()
    }

    #[test]
    fn e13_quick_all_cells_complete_and_l2c_combines() {
        let t = e13_serving(true);
        // Quick plan: 1 contention cell + 1 fairness cell + 2 requester
        // cells, 5 algorithms each.
        assert_eq!(t.rows.len(), 4 * 5);
        for r in &t.rows {
            assert_ne!(r[3], "0", "every cell completes its fixed work");
        }
        // L2C combines under contention and never spends more wireless
        // per entry than L2.
        for (l2c, l2) in
            rows_of(&t, "contention", "L2C")
                .iter()
                .zip(rows_of(&t, "contention", "L2"))
        {
            assert_ne!(l2c[11], "-", "L2C reports a mean batch size");
            let wc: f64 = l2c[9].parse().unwrap();
            let wl: f64 = l2[9].parse().unwrap();
            assert!(wc <= wl, "L2C wireless/entry {wc} must not exceed L2 {wl}");
        }
        // Non-combining algorithms have no batch column.
        for r in rows_of(&t, "contention", "L2") {
            assert_eq!(r[11], "-");
        }
        // The headline cell (largest requester count): combining spends
        // strictly less wireless without losing throughput.
        let num = |r: &[String], col: usize| r[col].parse::<f64>().unwrap();
        let l2 = *rows_of(&t, "requesters", "L2").last().unwrap();
        let l2c = *rows_of(&t, "requesters", "L2C").last().unwrap();
        assert_eq!(l2[1], "N=32 think=200");
        assert!(
            num(l2c, 9) < num(l2, 9),
            "combining must reduce wireless cost: {l2c:?} vs {l2:?}"
        );
        assert!(
            num(l2c, 4) >= num(l2, 4),
            "combining must not lose throughput: {l2c:?} vs {l2:?}"
        );
    }

    #[test]
    fn e13_quick_is_deterministic_per_cell() {
        // Two independent evaluations produce identical tables (this is
        // what makes --jobs fan-out sound).
        let a = e13_serving(true);
        let b = e13_serving(true);
        assert_eq!(a, b);
    }
}
