//! Experiment E10: the proxy framework's mobility price (Section 5).

use crate::obs;
use crate::parallel::{default_jobs, map_indexed_with};
use crate::table::{f2, Table};
use mobidist_net::prelude::*;
use mobidist_proxy::prelude::*;

/// **E10** — fixed proxies vs local proxies as the move rate grows:
/// location-update traffic vs handoff traffic, plus end-to-end service.
pub fn e10_proxy(quick: bool) -> Table {
    let m = 8;
    let n = if quick { 6 } else { 12 };
    let mut t = Table::new(
        format!("E10 — proxy policies vs move rate (M = {m}, N = {n} clients)"),
        &[
            "mean dwell",
            "policy",
            "moves",
            "loc updates",
            "handoffs",
            "stale outputs",
            "served",
            "cost/interaction",
        ],
    );
    let dwells: &[u64] = if quick {
        &[2_000, 300]
    } else {
        &[4_000, 1_000, 400, 150]
    };
    // Fan every (dwell, policy) cell out as its own task.
    let tasks: Vec<(u64, ProxyPolicy)> = dwells
        .iter()
        .flat_map(|&dwell| {
            [
                ProxyPolicy::Fixed,
                ProxyPolicy::LocalMss,
                ProxyPolicy::Adaptive { radius: 2 },
            ]
            .map(|policy| (dwell, policy))
        })
        .collect();
    let rows = map_indexed_with(
        tasks,
        default_jobs(),
        || (),
        |(), _, (dwell, policy)| {
            let cfg = NetworkConfig::new(m, n)
                .with_seed(70)
                .with_mobility(MobilityConfig::moving(dwell));
            let wl = ProxyWorkload {
                inputs_per_client: if quick { 3 } else { 6 },
                mean_interval: 400,
            };
            let horizon: u64 = if quick { 200_000 } else { 500_000 };
            let (ledger, r) = obs::run(
                "e10_proxy",
                &cfg,
                || {
                    let clients: Vec<MhId> = (0..n as u32).map(MhId).collect();
                    ProxyRuntime::new(CentralCounter::new(), clients, policy, wl)
                },
                |sim| {
                    sim.run_until(SimTime::from_ticks(horizon));
                    (sim.ledger().clone(), sim.protocol().report())
                },
            );
            let cost = ledger.total_cost() as f64 / r.outputs_delivered.max(1) as f64;
            vec![
                dwell.to_string(),
                format!("{policy:?}"),
                ledger.moves.to_string(),
                r.loc_updates.to_string(),
                r.handoffs.to_string(),
                r.stale_outputs.to_string(),
                format!("{}/{}", r.outputs_delivered, r.inputs_sent),
                f2(cost),
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
    fn e10_quick_policies_pay_different_currencies() {
        let t = e10_proxy(true);
        for row in &t.rows {
            let updates: u64 = row[3].parse().unwrap();
            let handoffs: u64 = row[4].parse().unwrap();
            match row[1].as_str() {
                // Fixed pays updates only; LocalMss handoffs only; the
                // adaptive policy splits moves between the two currencies.
                "Fixed" => assert_eq!(handoffs, 0, "{row:?}"),
                "LocalMss" => assert_eq!(updates, 0, "{row:?}"),
                _ => assert!(updates + handoffs > 0, "{row:?}"),
            }
        }
        // Faster movement ⇒ more updates for Fixed (rows come in threes).
        let slow: u64 = t.rows[0][3].parse().unwrap();
        let fast: u64 = t.rows[3][3].parse().unwrap();
        assert!(fast > slow, "{fast} vs {slow}");
        // The adaptive policy migrates strictly less often than LocalMss.
        let local_h: u64 = t.rows[4][4].parse().unwrap();
        let adaptive_h: u64 = t.rows[5][4].parse().unwrap();
        assert!(adaptive_h < local_h, "{adaptive_h} vs {local_h}");
    }
}
