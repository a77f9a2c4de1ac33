//! Million-host scale smoke check (`make scalecheck`).
//!
//! Runs E12's largest ladder point — one million mobile hosts under
//! mobility churn across 1024 cells — on the space-sharded kernel and
//! enforces the scale budget:
//!
//! * the run completes (every window advances to the horizon);
//! * peak RSS (`VmHWM`) stays under the 160 MiB ceiling (≈ 3× the measured
//!   44–51 MiB at 1–8 workers, so a regression well short of 10× trips it;
//!   32 workers read 69 MiB);
//! * the churn actually churned (moves and wired deliveries are non-zero).
//!
//! Prints one summary line per run plus the throughput, and exits non-zero
//! on any violation, or when stdout closes early. `--shards N` (else
//! `MOBIDIST_SHARDS`, else `MOBIDIST_JOBS`, else the machine's parallelism)
//! picks the worker count; the result is bit-identical at every choice.
//! `--hosts N` runs a smaller (or larger) population over the same 1024
//! cells. A malformed, zero or missing value — flag or variable — is a usage
//! error on stderr with a non-zero exit before anything runs, as in
//! `experiments`.

use mobidist_bench::exp_scale::{peak_rss_bytes, scale_spec, SHARDS_ENV};
use mobidist_bench::parallel::{default_jobs, JOBS_ENV};
use mobidist_net::shard::run_scale;
use std::io::Write;
use std::process::ExitCode;

/// 160 MiB peak-RSS ceiling for the million-host point.
const RSS_CEILING: u64 = 160 << 20;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\nusage: scalecheck [--shards N] [--hosts N]");
    ExitCode::FAILURE
}

/// A count of workers or hosts: host ids are `u32`, and zero of either is
/// no run at all.
fn positive(origin: &str, v: &str) -> Result<usize, String> {
    match v.parse::<u32>() {
        Ok(n) if n >= 1 => Ok(n as usize),
        _ => Err(format!("{origin} expects a positive integer, got '{v}'")),
    }
}

fn main() -> ExitCode {
    let (mut shards, mut hosts) = (None, 1_000_000usize);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        // `--flag V`, `-s V` or `--flag=V`.
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (a.as_str(), None),
        };
        if !(matches!(flag, "--shards" | "--hosts") || a == "-s") {
            return usage_error(&format!("unknown argument '{a}'"));
        }
        let Some(v) = inline.or_else(|| it.next().map(String::as_str)) else {
            return usage_error(&format!("{flag} requires a positive integer"));
        };
        match positive(flag, v) {
            Ok(n) if flag == "--hosts" => hosts = n,
            Ok(n) => shards = Some(n),
            Err(e) => return usage_error(&e),
        }
    }
    // The flag wins over its variable; an empty variable counts as unset.
    // `MOBIDIST_SHARDS` is parsed here and nowhere else. With neither given
    // the count is `default_jobs`, which is what `default_shards` falls back
    // to; it reads `MOBIDIST_JOBS` leniently, so that is checked here too.
    let exported = |var| std::env::var(var).ok().filter(|v| !v.is_empty());
    if let (None, Some(v)) = (shards, exported(SHARDS_ENV)) {
        match positive(SHARDS_ENV, &v) {
            Ok(n) => shards = Some(n),
            Err(e) => return usage_error(&e),
        }
    }
    if let Some(Err(e)) = exported(JOBS_ENV).map(|v| positive(JOBS_ENV, &v)) {
        return usage_error(&e);
    }
    let shards = shards.unwrap_or_else(default_jobs);

    let spec = scale_spec(hosts, 1_024);
    let start = std::time::Instant::now();
    let r = run_scale(&spec, shards);
    let secs = start.elapsed().as_secs_f64();
    let rate = r.events as f64 / secs.max(1e-9);
    let mut out = format!(
        "scalecheck: hosts={} shards={} windows={} skipped={} events={} moves={} wired={} \
         digest={} {:.2}s ({:.0} events/s)\n",
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
            // Resident bytes per host count everything the process holds —
            // the wheel's arena (which the final-state rows then reuse), the
            // lanes, the process itself — so print them beside the nominal
            // queue-entry size and never confuse the two.
            out += &format!(
                "scalecheck: peak RSS {:.0} MiB (ceiling {:.0} MiB), \
                 {} B/host resident vs {} B/host nominal\n",
                rss as f64 / (1u64 << 20) as f64,
                RSS_CEILING as f64 / (1u64 << 20) as f64,
                rss / hosts as u64,
                r.state_bytes / hosts as u64,
            );
            if rss >= RSS_CEILING {
                eprintln!("scalecheck: FAIL — peak RSS {rss} B over the {RSS_CEILING} B ceiling");
                ok = false;
            }
        }
        None => out += "scalecheck: peak RSS unavailable (non-Linux); ceiling not enforced\n",
    }
    if ok {
        out += "scalecheck: OK\n";
    }
    // A closed stdout (`scalecheck | head -0`) fails the run, quietly.
    let mut stdout = std::io::stdout().lock();
    let shown = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush());
    if shown.is_ok() && ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
