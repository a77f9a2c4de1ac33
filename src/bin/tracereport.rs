//! Reads structured JSONL traces written by `experiments --trace` and
//! prints per-run, per-phase cost breakdowns — or, with `--check`,
//! validates every line against the schema and diffs the trace-derived
//! message counts against the ledger counts recorded at `run_end`.
//!
//! ```text
//! cargo run --release --bin experiments -- e2 --quick --trace e2.jsonl
//! cargo run --release --bin tracereport -- e2.jsonl
//! cargo run --release --bin tracereport -- --check e2.jsonl
//! ```
//!
//! The full schema is documented in OBSERVABILITY.md and in `--help`.

use mobidist_cost as formulas;
use mobidist_cost::Params;
use mobidist_net::metrics::{Histogram, Metrics};
use mobidist_net::obs::{
    parse_line, Line, RunMeta, RunSummary, TraceEvent, SCHEMA, SCHEMA_VERSION,
};
use mobidist_net::time::SimTime;
use std::io::BufRead;
use std::process::ExitCode;

const HELP_HEAD: &str = "\
tracereport — inspect structured simulation traces

usage: tracereport [--check] [--no-hist] <trace.jsonl>...

modes:
  (default)   per-run report: message counts per channel class, cost
              breakdown, critical-section phase timings (wait/hold),
              handoff gaps, send inter-arrival histograms, and a
              predicted-vs-measured drill-down for the runs the paper
              gives closed forms for (labels `l1`, `l2`).
  --check     validate every line against the schema (version, known event
              kinds, required fields, dense per-run seq, monotone (t, seq))
              and diff the trace-derived counts against the `run_end`
              ledger snapshot. Exit code 1 on any violation or mismatch,
              and on input that holds no run at all.

options:
  --no-hist   omit the ASCII histograms from the report
  -h, --help  this text

schema (version 1) — one flat JSON object per line:
  envelope   {\"v\":1,\"run\":R,...} on every line; events also carry
             \"seq\" (dense from 0 per run) and \"t\" (sim ticks).
  run_begin  label, m, n, seed, c_fixed, c_wireless, c_search, policy
";

const HELP_TAIL: &str = "
count identities checked by --check (trace-derived == ledger):
  Every run_end counter except total_cost and total_energy counts events,
  and must equal what the run's own event lines add up to; OBSERVABILITY.md
  (section `run_end`) tabulates which kinds move which counter.
  Fault events charge no messages, so the message identities are unchanged
  by fault injection.
  Combining runs (label `l2c`): when a run has both kinds, the combine_batch
  sizes must sum to the cs_enter count — every grant is delivered in exactly
  one batch. Runs with only one of the two (e.g. proxy fan-out traces) skip
  this identity.
  Runs containing a cache_hit event were replayed from the run cache: their
  trace is a stub envelope (run_begin, cache_hit, run_end with the cached
  ledger), so they are exempt from the count identities. The envelope
  structure is still validated.
  Sharded runs (`experiments e12`, `scalecheck`) write one trace part per
  shard, merged into the output by run id; every identity above holds per
  shard because cross-shard wired messages are charged — and traced — at the
  delivering shard.
";

/// The `--help` text. The `run_end` counters and the event kinds are
/// rendered from the schema tables in `mobidist_net::obs`, so the list
/// cannot fall behind the codec.
fn help() -> String {
    let mut out = String::from(HELP_HEAD);
    let counters: Vec<&str> = RunSummary::default().counters().map(|(k, _)| k).collect();
    let rows: Vec<String> = counters.chunks(4).map(|row| row.join(", ")).collect();
    out += "  run_end    events, then the final ledger counters (fault_* only when\n";
    out += "             non-zero):\n               ";
    out += &rows.join(",\n               ");
    out += "\n  events     fields beyond the envelope, in wire order; the ones\n";
    out += "             OBSERVABILITY.md marks optional are left out when absent / zero\n";
    for (kind, fields, meaning) in SCHEMA {
        out += &format!("    {kind:<16} {}\n        {meaning}\n", fields.join(", "));
    }
    out + HELP_TAIL
}

/// Everything accumulated for one run while streaming a trace file.
#[derive(Default)]
struct RunAcc {
    meta: Option<RunMeta>,
    metrics: Metrics,
    summary: Option<(RunSummary, u64)>,
    next_seq: u64,
    last: (SimTime, u64),
    /// Sum of `combine_batch` sizes: grants/outputs delivered in batches.
    combined_outputs: u64,
    last_fixed_send: Option<SimTime>,
    last_wireless_send: Option<SimTime>,
    fixed_gaps: Histogram,
    wireless_gaps: Histogram,
    errors: Vec<String>,
}

impl RunAcc {
    fn observe(&mut self, seq: u64, t: SimTime, ev: &TraceEvent) {
        if self.meta.is_none() {
            self.errors
                .push(format!("event seq {seq} before run_begin"));
        }
        if self.summary.is_some() {
            self.errors.push(format!("event seq {seq} after run_end"));
        }
        if seq != self.next_seq {
            self.errors.push(format!(
                "seq not dense: expected {}, got {seq}",
                self.next_seq
            ));
        }
        if self.metrics.events > 0 && (t, seq) <= self.last {
            self.errors
                .push(format!("(t, seq) not increasing at seq {seq}"));
        }
        self.next_seq = seq + 1;
        self.last = (t, seq);
        self.metrics.observe(t, ev);
        if let TraceEvent::CombineBatch { size, .. } = *ev {
            self.combined_outputs += size as u64;
        }
        if ev.fixed_msgs() > 0 {
            if let Some(prev) = self.last_fixed_send.replace(t) {
                self.fixed_gaps.record(t.saturating_since(prev));
            }
        }
        if ev.wireless_msgs() > 0 {
            if let Some(prev) = self.last_wireless_send.replace(t) {
                self.wireless_gaps.record(t.saturating_since(prev));
            }
        }
    }

    /// Diffs every trace-derived counter against the `run_end` snapshot,
    /// pushing one error per mismatch.
    fn check_against_summary(&mut self) {
        let Some((s, claimed_events)) = self.summary else {
            self.errors.push("missing run_end".to_owned());
            return;
        };
        if self.meta.is_none() {
            self.errors.push("missing run_begin".to_owned());
        }
        if claimed_events != self.metrics.events {
            self.errors.push(format!(
                "run_end claims {claimed_events} events, file has {}",
                self.metrics.events
            ));
        }
        let m = &self.metrics;
        if m.kind_count("cache_hit") > 0 {
            // Warm cache hit: the run was replayed from the run cache, so
            // the trace is a stub envelope with no per-message events to
            // diff against the ledger. Structural checks above still apply.
            return;
        }
        // The `ledger = trace` identity: `Metrics` tallied the events into
        // the same counters the ledger snapshot holds.
        for ((name, derived), (_, ledger)) in m.tally.event_counters().zip(s.event_counters()) {
            if derived != ledger {
                self.errors.push(format!(
                    "{name}: trace-derived {derived} != ledger {ledger}"
                ));
            }
        }
        // Combining identity: in a mutual-exclusion run every grant is
        // delivered in exactly one batch, so the batch sizes sum to the
        // number of CS entries. Applies only when the run has both kinds —
        // proxy fan-out runs batch outputs without any critical section.
        let batches = m.kind_count("combine_batch");
        let entries = m.kind_count("cs_enter");
        if batches > 0 && entries > 0 && self.combined_outputs != entries {
            self.errors.push(format!(
                "combine_batch sizes sum to {} but the run has {entries} cs_enter events",
                self.combined_outputs
            ));
        }
    }

    /// The paper's closed-form per-execution cost for this run's label, when
    /// one exists (`l1`/`l2`).
    fn predicted_cost(&self) -> Option<u64> {
        let meta = self.meta.as_ref()?;
        let p = Params {
            c_fixed: meta.c_fixed,
            c_wireless: meta.c_wireless,
            c_search: meta.c_search,
        };
        match meta.label.as_str() {
            "l1" => Some(formulas::l1_execution_cost(meta.n, p)),
            "l2" => Some(formulas::l2_execution_cost(meta.m, p)),
            _ => None,
        }
    }

    fn print_report(&self, run: u64, hist: bool) {
        let label = self.meta.as_ref().map_or("?", |m| m.label.as_str());
        println!("run {run} [{label}]");
        if let Some(meta) = &self.meta {
            println!(
                "  config: m={} n={} seed={} policy={} (C_fixed={} C_wireless={} C_search={})",
                meta.m,
                meta.n,
                meta.seed,
                meta.policy,
                meta.c_fixed,
                meta.c_wireless,
                meta.c_search
            );
        }
        // `t`: the ledger counters as the events add up to them.
        let (m, t) = (&self.metrics, &self.metrics.tally);
        println!(
            "  events: {} ({} kinds); span {}..{}",
            m.events,
            m.by_kind.len(),
            SimTime::ZERO,
            self.last.0
        );
        println!(
            "  messages: fixed={} wireless={} (up={} down={} bcast={}) searches={} (re={} failed={}) lost={}",
            t.fixed_msgs,
            t.wireless_msgs,
            m.kind_count("up_send"),
            m.kind_count("down_send"),
            m.kind_count("cell_broadcast"),
            t.searches,
            t.re_searches,
            t.search_failures,
            t.wireless_losses,
        );
        println!(
            "  mobility: moves={} handoffs={} disconnects={} reconnects={} doze_interrupts={}",
            t.moves, t.handoffs, t.disconnects, t.reconnects, t.doze_interruptions,
        );
        if let Some((s, _)) = self.summary {
            println!(
                "  ledger: total_cost={} total_energy={}",
                s.total_cost, s.total_energy
            );
            let completions = m.kind_count("cs_exit");
            if completions > 0 {
                let measured = s.total_cost as f64 / completions as f64;
                let predicted = self
                    .predicted_cost()
                    .map_or("-".to_owned(), |p| p.to_string());
                println!(
                    "  cs: requests={} completions={} cost/execution: measured={measured:.2} predicted={predicted}",
                    m.kind_count("cs_request"),
                    completions,
                );
                println!(
                    "  cs wait: mean={:.1} p95<={} max={}   hold: mean={:.1} max={}",
                    m.cs_wait.mean(),
                    m.cs_wait.quantile(0.95),
                    m.cs_wait.max(),
                    m.cs_hold.mean(),
                    m.cs_hold.max(),
                );
            }
        }
        if t.fault_crashes + t.fault_partitions + t.fault_heals + t.fault_storms > 0 {
            println!(
                "  faults: crashes={} recovers={} partitions={} heals={} storms={}",
                t.fault_crashes,
                t.fault_recovers,
                t.fault_partitions,
                t.fault_heals,
                t.fault_storms,
            );
        }
        if m.handoff_gap.count() > 0 {
            println!(
                "  handoff gap: mean={:.1} p95<={} max={}",
                m.handoff_gap.mean(),
                m.handoff_gap.quantile(0.95),
                m.handoff_gap.max(),
            );
        }
        let lv = m.kind_count("lv_update");
        let proxy = m.kind_count("proxy_forward");
        let batches = m.kind_count("combine_batch");
        if lv + proxy + batches > 0 {
            print!("  algorithm: lv_updates={lv} proxy_forwards={proxy}");
            if batches > 0 {
                print!(
                    " combine_batches={batches} (mean size {:.2})",
                    self.combined_outputs as f64 / batches as f64
                );
            }
            println!();
        }
        if hist {
            if self.wireless_gaps.count() > 0 {
                println!("  wireless send inter-arrival (ticks):");
                print!("{}", self.wireless_gaps);
            }
            if self.fixed_gaps.count() > 0 {
                println!("  fixed send inter-arrival (ticks):");
                print!("{}", self.fixed_gaps);
            }
            if m.cs_wait.count() > 0 {
                println!("  cs wait (ticks):");
                print!("{}", m.cs_wait);
            }
        }
        println!();
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        print!("{}", help());
        return if args.is_empty() {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    let (flags, files): (Vec<&String>, Vec<&String>) =
        args.iter().partition(|a| a.starts_with('-'));
    if let Some(unknown) = flags
        .iter()
        .find(|f| !["--check", "--no-hist"].contains(&f.as_str()))
    {
        eprintln!("tracereport: unknown flag {unknown} (see --help)");
        return ExitCode::FAILURE;
    }
    let check = flags.iter().any(|f| *f == "--check");
    let hist = !flags.iter().any(|f| *f == "--no-hist");
    if files.is_empty() {
        eprintln!("tracereport: no trace files given (see --help)");
        return ExitCode::FAILURE;
    }

    // Run id -> accumulator, insertion-ordered so reports follow the file.
    let mut order: Vec<u64> = Vec::new();
    let mut runs: std::collections::BTreeMap<u64, RunAcc> = std::collections::BTreeMap::new();
    let mut parse_errors = 0u64;
    let mut total_lines = 0u64;

    for path in &files {
        let file = match std::fs::File::open(path) {
            Ok(f) => std::io::BufReader::new(f),
            Err(e) => {
                eprintln!("tracereport: cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for (lineno, line) in file.lines().enumerate() {
            let line = match line {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("{path}:{}: read error: {e}", lineno + 1);
                    return ExitCode::FAILURE;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            total_lines += 1;
            match parse_line(&line) {
                Ok(Line::RunBegin(meta)) => {
                    let run = meta.run;
                    let acc = runs.entry(run).or_default();
                    if acc.meta.replace(meta).is_some() {
                        acc.errors.push("duplicate run_begin".to_owned());
                    }
                    if !order.contains(&run) {
                        order.push(run);
                    }
                }
                Ok(Line::Event { run, seq, t, ev }) => {
                    runs.entry(run).or_default().observe(seq, t, &ev);
                }
                Ok(Line::RunEnd { summary, events }) => {
                    let acc = runs.entry(summary.run).or_default();
                    if acc.summary.replace((summary, events)).is_some() {
                        acc.errors.push("duplicate run_end".to_owned());
                    }
                }
                Err(e) => {
                    parse_errors += 1;
                    eprintln!("{path}:{}: {e}", lineno + 1);
                }
            }
        }
    }

    if check {
        let mut failed = parse_errors > 0;
        for (run, acc) in runs.iter_mut() {
            acc.check_against_summary();
            for e in &acc.errors {
                eprintln!("run {run}: {e}");
                failed = true;
            }
        }
        if runs.is_empty() {
            eprintln!("tracereport --check: no runs in the input — nothing was checked");
            failed = true;
        }
        if failed {
            eprintln!("tracereport --check: FAILED");
            return ExitCode::FAILURE;
        }
        let events: u64 = runs.values().map(|a| a.metrics.events).sum();
        println!(
            "tracereport --check: OK — {} lines, {} runs, {events} events, schema v{SCHEMA_VERSION}, all counts match the ledger",
            total_lines,
            runs.len(),
        );
        return ExitCode::SUCCESS;
    }

    for run in order {
        if let Some(acc) = runs.get(&run) {
            acc.print_report(run, hist);
        }
    }
    if parse_errors > 0 {
        eprintln!("tracereport: {parse_errors} malformed lines skipped");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
