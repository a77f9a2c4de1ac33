//! **E14** — robustness grid: the proxy-structured algorithms (L2, L2C,
//! R2) are swept across a mobility-model × fault-injection grid and
//! compared on throughput, tail latency, fairness and message cost while
//! stations crash, the wired plane partitions, and handoff storms hit.
//!
//! Every cell reuses the E13 fixed-work serving machinery
//! ([`crate::exp_serve`]): each requester issues a fixed number of
//! requests, the run executes until all of them completed, and the cell
//! asserts the safety checker's verdict — zero mutual-exclusion violations
//! and zero ordering-key regressions — *on every fault cell*, which is the
//! point of the experiment: the algorithms stay safe and finish their work
//! through crashes, partitions and storms; faults only move the
//! throughput/latency needle.
//!
//! Faults are scheduled early (tick 5 000, `FAULT_AT`) so they land while the
//! serving workload is in full swing, and each cell additionally
//! reconciles the run's fault ledger counters against the schedule it was
//! configured with ([`check_fault_accounting`]) — a cell that silently
//! skipped its fault would fail the table build, not just look suspiciously
//! fast.
//!
//! The grid is fanned out as independent tasks and assembled by index, so
//! the table is byte-identical at any `--jobs` (and at any
//! `MOBIDIST_SHARDS`: E14 runs on the generic kernel, which never consults
//! the shard knob).

use crate::exp_serve::{run_serve, ServeAlgo, ServeRun};
use crate::parallel::{default_jobs, map_indexed_with};
use crate::table::{f2, Table};
use mobidist_core::prelude::*;
use mobidist_net::prelude::*;

/// Stations in every E14 cell.
const M: usize = 8;

/// Requests per requester (fixed work per cell is `N × REQS`).
const REQS: usize = 2;

/// Tick at which every fault fires: early enough to land inside the
/// serving run's first chunk, late enough that the workload is warmed up.
const FAULT_AT: u64 = 5_000;

/// The algorithms E14 compares — the proxy-structured trio. L1 and R1 are
/// excluded: they run on the MHs directly, so the MSS-level fault plane
/// exercises them only through deferred handoffs (E13 already covers
/// their serving behaviour).
pub const E14_ALGOS: [ServeAlgo; 3] = [ServeAlgo::L2, ServeAlgo::L2c, ServeAlgo::R2];

/// Trace labels of the E14 cells (one per algorithm), distinct from
/// E13's.
fn label_of(algo: ServeAlgo) -> &'static str {
    match algo {
        ServeAlgo::L2 => "e14_l2",
        ServeAlgo::L2c => "e14_l2c",
        ServeAlgo::R2 => "e14_r2",
        // Unused by E14; keep a stable label anyway so a future grid
        // extension cannot share E13's.
        ServeAlgo::L1 => "e14_l1",
        ServeAlgo::R1 => "e14_r1",
    }
}

/// The mobility axis: named [`MovePattern`]s from the model zoo. Quick
/// mode keeps the two extremes (memoryless uniform vs. spatially
/// correlated waypoint); the full grid adds direction persistence and
/// group mobility.
pub fn mobility_grid(quick: bool) -> Vec<(&'static str, MovePattern)> {
    let mut grid = vec![
        ("uniform", MovePattern::UniformRandom),
        ("waypoint", MovePattern::RandomWaypoint { leg: 6 }),
    ];
    if !quick {
        grid.push(("gauss-markov", MovePattern::GaussMarkov { memory: 0.8 }));
        grid.push((
            "platoon",
            MovePattern::GroupPlatoon {
                groups: 4,
                p_follow: 0.9,
            },
        ));
    }
    grid
}

/// The fault axis: named [`FaultConfig`] schedules. `n` is the cell's MH
/// population (the storm moves half of it). Quick mode keeps the
/// fault-free baseline and the crash; the full grid adds the partition
/// and the handoff storm.
pub fn fault_grid(quick: bool, n: usize) -> Vec<(&'static str, FaultConfig)> {
    let mut grid = vec![
        ("none", FaultConfig::none()),
        (
            "crash",
            FaultConfig::none().with_event(
                FAULT_AT,
                FaultKind::MssCrash {
                    mss: 1,
                    down_for: 20_000,
                },
            ),
        ),
    ];
    if !quick {
        grid.push((
            "partition",
            FaultConfig::none().with_event(
                FAULT_AT,
                FaultKind::Partition {
                    cut: M as u32 / 2,
                    heal_after: 15_000,
                },
            ),
        ));
        grid.push((
            "storm",
            FaultConfig::none().with_event(
                FAULT_AT,
                FaultKind::HandoffStorm {
                    count: (n / 2) as u32,
                },
            ),
        ));
    }
    grid
}

/// Population and workload knobs of one mode.
fn knobs(quick: bool) -> (usize, u64, u64) {
    // (requesters, think ticks, mean dwell ticks)
    if quick {
        (16, 200, 1_000)
    } else {
        (64, 500, 2_000)
    }
}

/// Network configuration of one E14 cell. The seed is a pure function of
/// the cell's grid coordinates.
fn e14_cfg(
    n: usize,
    dwell: u64,
    mob_idx: usize,
    pattern: MovePattern,
    fault_idx: usize,
    fault: &FaultConfig,
) -> NetworkConfig {
    NetworkConfig::new(M, n)
        .with_seed(1400 + (mob_idx * 16 + fault_idx) as u64)
        .with_mobility(MobilityConfig::moving(dwell).with_pattern(pattern))
        .with_fault(fault.clone())
}

/// Workload of one E14 cell.
fn e14_wl(n: usize, think: u64) -> WorkloadConfig {
    WorkloadConfig::all_mhs(n, REQS)
        .with_think(think)
        .with_hold(10)
}

/// Total fault events recorded by a run's ledger (crashes, recoveries,
/// partitions, heals and storms together).
pub fn fault_events(r: &ServeRun) -> u64 {
    [
        "fault_crashes",
        "fault_recovers",
        "fault_partitions",
        "fault_heals",
        "fault_storms",
    ]
    .iter()
    .map(|name| r.ledger.custom(name))
    .sum()
}

/// Reconciles a run's fault ledger counters against the named schedule it
/// was configured with. Panics on mismatch — a fault cell whose fault did
/// not actually fire (or a baseline cell that somehow recorded one) is a
/// harness bug, not a data point.
pub fn check_fault_accounting(fault: &str, r: &ServeRun) {
    let count = |name: &str| r.ledger.custom(name);
    match fault {
        "none" => assert_eq!(fault_events(r), 0, "fault-free cell recorded fault events"),
        "crash" => {
            assert_eq!(count("fault_crashes"), 1, "crash cell: crash did not fire");
            assert_eq!(
                count("fault_recovers"),
                1,
                "crash cell: recovery did not fire"
            );
        }
        "partition" => {
            assert_eq!(
                count("fault_partitions"),
                1,
                "partition cell: cut did not fire"
            );
            assert_eq!(count("fault_heals"), 1, "partition cell: heal did not fire");
        }
        "storm" => {
            assert_eq!(count("fault_storms"), 1, "storm cell: storm did not fire");
        }
        other => panic!("unknown fault cell name {other:?}"),
    }
}

/// **E14** — the robustness table. One row per
/// (mobility, fault, algorithm); every row is a completed fixed-work run
/// with safety asserted and fault accounting reconciled.
pub fn e14_fault(quick: bool) -> Table {
    let (n, think, dwell) = knobs(quick);
    let mobilities = mobility_grid(quick);
    let faults = fault_grid(quick, n);
    let mut t = Table::new(
        format!("E14 — robustness: mobility × faults under load (M = {M}, N = {n}, {REQS} req/MH)"),
        &[
            "mobility",
            "fault",
            "algo",
            "done",
            "thr/ktick",
            "p95",
            "jain",
            "wifi/entry",
            "wired/entry",
            "faults",
        ],
    );
    let mut tasks: Vec<(ServeAlgo, NetworkConfig, WorkloadConfig)> = Vec::new();
    let mut meta: Vec<(&'static str, &'static str, ServeAlgo)> = Vec::new();
    for (mi, (mob_name, pattern)) in mobilities.iter().enumerate() {
        for (fi, (fault_name, fault)) in faults.iter().enumerate() {
            for algo in E14_ALGOS {
                tasks.push((
                    algo,
                    e14_cfg(n, dwell, mi, *pattern, fi, fault),
                    e14_wl(n, think),
                ));
                meta.push((mob_name, fault_name, algo));
            }
        }
    }
    let runs = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (algo, cfg, wl)| run_serve(algo, label_of(algo), cfg, wl),
    );
    for ((mob_name, fault_name, algo), r) in meta.into_iter().zip(&runs) {
        check_fault_accounting(fault_name, r);
        let faults_cell = match fault_events(r) {
            0 => "-".into(),
            k => k.to_string(),
        };
        t.push(vec![
            mob_name.into(),
            fault_name.into(),
            algo.name().into(),
            r.completed.to_string(),
            f2(r.throughput_per_ktick()),
            r.p95.to_string(),
            f2(r.jain),
            f2(r.wireless_per_entry()),
            f2(r.fixed_per_entry()),
            faults_cell,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_quick_grid_completes_every_cell_with_faults_accounted() {
        let t = e14_fault(true);
        // 2 mobilities × 2 faults × 3 algorithms.
        assert_eq!(t.rows.len(), 12);
        let (n, ..) = knobs(true);
        let target = (n * REQS).to_string();
        for row in &t.rows {
            assert_eq!(
                row[3], target,
                "cell {}/{}/{} incomplete",
                row[0], row[1], row[2]
            );
            assert!(row[4].parse::<f64>().unwrap() > 0.0, "zero throughput");
            match row[1].as_str() {
                // Crash + recovery are two ledger events.
                "crash" => assert_eq!(row[9], "2", "crash cell missing fault events"),
                _ => assert_eq!(row[9], "-", "fault-free cell recorded fault events"),
            }
        }
    }

    #[test]
    fn e14_quick_is_deterministic() {
        let a = e14_fault(true);
        let b = e14_fault(true);
        assert_eq!(a.rows, b.rows);
    }
}
