//! Million-host scale smoke check (`make scalecheck`).
//!
//! Runs E12's largest ladder point — one million mobile hosts under
//! mobility churn across 1024 cells — on the space-sharded kernel and
//! enforces the scale budget:
//!
//! * the run completes (every window advances to the horizon);
//! * peak RSS (`VmHWM`) stays under the 1 GiB ceiling (≈ 3× the measured
//!   0.31–0.32 GiB, so a regression well short of 10× trips it);
//! * the churn actually churned (moves and wired deliveries are non-zero).
//!
//! Prints one summary line per run plus the throughput, and exits non-zero
//! on any violation. `MOBIDIST_SHARDS` (or `--shards N`) picks the worker
//! count; the result is bit-identical at every choice.

use mobidist_bench::exp_scale::{default_shards, peak_rss_bytes, scale_spec};
use mobidist_net::shard::run_scale;
use std::process::ExitCode;

/// 1 GiB peak-RSS ceiling for the million-host point.
const RSS_CEILING: u64 = 1 << 30;

fn main() -> ExitCode {
    let mut shards = default_shards();
    let mut hosts = 1_000_000usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--shards" || a == "-s" {
            shards = it.next().and_then(|v| v.parse().ok()).unwrap_or(shards);
        } else if let Some(v) = a.strip_prefix("--shards=") {
            shards = v.parse().unwrap_or(shards);
        } else if a == "--hosts" {
            hosts = it.next().and_then(|v| v.parse().ok()).unwrap_or(hosts);
        } else if let Some(v) = a.strip_prefix("--hosts=") {
            hosts = v.parse().unwrap_or(hosts);
        } else {
            eprintln!("usage: scalecheck [--shards N] [--hosts N]");
            return ExitCode::FAILURE;
        }
    }

    let spec = scale_spec(hosts, 1_024);
    let start = std::time::Instant::now();
    let r = run_scale(&spec, shards);
    let secs = start.elapsed().as_secs_f64();
    let rate = r.events as f64 / secs.max(1e-9);
    println!(
        "scalecheck: hosts={} shards={} windows={} skipped={} events={} moves={} wired={} \
         digest={} {:.2}s ({:.0} events/s)",
        hosts,
        r.shards,
        r.windows,
        r.skipped_windows,
        r.events,
        r.ledger.moves,
        r.ledger.fixed_msgs,
        &r.digest.to_hex()[..16],
        secs,
        rate,
    );

    let mut ok = true;
    if r.ledger.moves == 0 || r.ledger.fixed_msgs == 0 {
        eprintln!("scalecheck: FAIL — churn produced no moves or no wired traffic");
        ok = false;
    }
    match peak_rss_bytes() {
        Some(rss) => {
            // Resident bytes per host are mostly timing-wheel capacity, not
            // host state; print them beside the nominal queue-entry size so
            // the two are never confused.
            println!(
                "scalecheck: peak RSS {:.2} GiB (ceiling {:.0} GiB), \
                 {} B/host resident vs {} B/host nominal",
                rss as f64 / (1u64 << 30) as f64,
                RSS_CEILING as f64 / (1u64 << 30) as f64,
                rss / hosts as u64,
                r.state_bytes / hosts as u64,
            );
            if rss >= RSS_CEILING {
                eprintln!("scalecheck: FAIL — peak RSS {rss} B over the {RSS_CEILING} B ceiling");
                ok = false;
            }
        }
        None => println!("scalecheck: peak RSS unavailable (non-Linux); ceiling not enforced"),
    }
    if ok {
        println!("scalecheck: OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
