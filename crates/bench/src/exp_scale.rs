//! **E12 — space-sharded scale curve** (million-host mobility churn).
//!
//! Runs the sharded kernel ([`mobidist_net::shard`]) over a geometric ladder
//! of populations and reports, per point: events executed, measured vs
//! closed-form-predicted moves (a model-fidelity check), delivered wired
//! handoff notifications, resident bytes per host, and the canonical
//! final-state digest.
//!
//! Two properties distinguish E12 from every other experiment:
//!
//! * **Every column is a pure function of the spec.** No wall-clock times
//!   appear (throughput is the benchmark's `churn_1m` workload, see
//!   `benchmark/README.md`), so the table is byte-identical at every shard
//!   count — which is exactly what CI's shard-soundness gate `cmp`s.
//! * **The run cache is deliberately bypassed.** A cached replay would let
//!   the 1-shard and 4-shard gate legs serve the same stored bytes without
//!   re-executing either, making the equivalence check vacuous.
//!
//! The shard count comes from `MOBIDIST_SHARDS` (the `experiments` CLI sets
//! it from `--shards N`), defaulting to the machine's parallelism.

use crate::obs::install_shard_sinks;
use crate::parallel::default_jobs;
use crate::table::Table;
use mobidist_net::config::NetworkConfig;
use mobidist_net::mobility::MobilityConfig;
use mobidist_net::shard::{run_scale_traced, ScaleSpec};

/// Environment variable selecting the worker count for sharded runs;
/// unset means the machine's available parallelism.
pub const SHARDS_ENV: &str = "MOBIDIST_SHARDS";

/// Worker count for sharded runs: `MOBIDIST_SHARDS` when set (clamped to
/// ≥ 1), otherwise [`default_jobs`] (which itself honours `MOBIDIST_JOBS`).
pub fn default_shards() -> usize {
    if let Ok(v) = std::env::var(SHARDS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    default_jobs()
}

/// The scale ladder: `(hosts, cells)` per point. The full curve tops out at
/// one million hosts across 1024 cells; quick mode keeps the same shape two
/// orders of magnitude smaller so tests and the CI gate stay fast.
pub fn scale_points(quick: bool) -> Vec<(usize, usize)> {
    if quick {
        vec![(1_000, 64), (4_000, 128), (10_000, 256)]
    } else {
        vec![
            (1_000, 64),
            (10_000, 128),
            (100_000, 512),
            (1_000_000, 1_024),
        ]
    }
}

/// The canonical E12 spec for a ladder point: mobility churn with the
/// default dwell/gap over a 2000-tick horizon.
pub fn scale_spec(hosts: usize, cells: usize) -> ScaleSpec {
    ScaleSpec::new(cells, hosts).with_seed(1202)
}

/// A [`NetworkConfig`] mirror of `spec`, used only as trace-run metadata
/// (the sharded kernel does not execute it).
pub fn meta_config(spec: &ScaleSpec) -> NetworkConfig {
    NetworkConfig::new(spec.num_mss, spec.num_mh)
        .with_seed(spec.seed)
        .with_mobility(MobilityConfig::moving(spec.mean_dwell))
}

/// Runs the scale-curve experiment.
pub fn e12_scale_curve(quick: bool) -> Table {
    let shards = default_shards();
    let mut t = Table::new(
        "E12 — space-sharded scale curve (mobility churn; shard-count invariant)",
        &[
            "hosts",
            "cells",
            "windows",
            "events",
            "moves",
            "predicted",
            "fidelity",
            "wired",
            "B/host",
            "digest",
        ],
    );
    for (hosts, cells) in scale_points(quick) {
        let spec = scale_spec(hosts, cells);
        let sinks = install_shard_sinks("e12_scale", &meta_config(&spec), shards.min(cells));
        let (r, _sinks) = run_scale_traced(&spec, shards, sinks);
        let predicted = spec.predicted_moves();
        let fidelity = 100.0 * r.ledger.moves as f64 / predicted.max(1) as f64;
        t.push(vec![
            hosts.to_string(),
            cells.to_string(),
            r.windows.to_string(),
            r.events.to_string(),
            r.ledger.moves.to_string(),
            predicted.to_string(),
            format!("{fidelity:.1}%"),
            r.ledger.fixed_msgs.to_string(),
            (r.state_bytes / hosts as u64).to_string(),
            r.digest.to_hex()[..16].to_owned(),
        ]);
    }
    t
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), `None` off Linux or if the field is missing.
///
/// `make scalecheck` runs the million-host point and asserts this stays
/// under the 256 MiB ceiling.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobidist_net::shard::run_scale;

    #[test]
    fn quick_table_is_shard_count_invariant() {
        // The table must be a pure function of the spec: recompute the
        // smallest point at several worker counts and diff the digests.
        let spec = scale_spec(1_000, 64);
        let base = run_scale(&spec, 1);
        for s in [2, 4, 7] {
            assert_eq!(run_scale(&spec, s).digest, base.digest);
        }
    }

    #[test]
    fn quick_table_shape_and_fidelity() {
        let t = e12_scale_curve(true);
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let fidelity: f64 = row[6].trim_end_matches('%').parse().unwrap();
            assert!(
                (70.0..=130.0).contains(&fidelity),
                "fidelity {fidelity}% outside the model envelope for {} hosts",
                row[0]
            );
            let moves: u64 = row[4].parse().unwrap();
            let wired: u64 = row[7].parse().unwrap();
            assert!(moves > 0 && wired > 0);
        }
    }

    #[test]
    fn rss_probe_reports_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_bytes().unwrap() > 0);
        }
    }
}
