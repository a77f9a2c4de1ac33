//! Command-line runner for the paper's experiment suite.
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! cargo run --release --bin experiments -- e1 e5 --quick
//! cargo run --release --bin experiments -- e2 --jobs 4
//! cargo run --release --bin experiments -- --list
//! ```
//!
//! The one launcher for the experiment tables (`make bench` runs `all`).
//!
//! `--jobs N` sets the worker count for sweep fan-out (`--jobs 1` forces the
//! sequential path; default is the machine's available parallelism). Tables
//! are byte-identical at every worker count.
//!
//! `--shards N` sets the worker count for the space-sharded kernel (E12).
//! Sharded runs are bit-identical at every shard count — CI enforces it —
//! so this knob trades wall-clock only.
//!
//! `--trace <path>` records every simulation run as structured JSONL trace
//! events (schema in OBSERVABILITY.md). Each sweep worker writes its own
//! part file; the parts are merged into `<path>` by run id when the runner
//! exits. Tracing never changes the tables — sinks only observe. Inspect
//! the output with `cargo run --release --bin tracereport -- <path>`.
//!
//! Each value flag has an environment twin the library layers read
//! (`MOBIDIST_JOBS`, `MOBIDIST_SHARDS`, `MOBIDIST_TRACE`);
//! the flag wins, an empty variable counts as unset, and both obey one rule,
//! checked before anything runs. Bad input — an unknown flag or experiment,
//! a missing or malformed value, a trace path that is a directory or lies in
//! one that does not exist — is a usage error on stderr with a non-zero exit and nothing on
//! stdout.

use mobidist_bench::{
    exp_fault, exp_group, exp_model, exp_mutex, exp_proxy, exp_scale, exp_serve, Table,
};
use mobidist_bench::{exp_scale::SHARDS_ENV, obs::TRACE_ENV, parallel::JOBS_ENV};
use std::io::Write;
use std::process::ExitCode;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("e0", "system-model message costs (Section 2)"),
    ("e1", "L1 vs L2 cost per execution (3.1.1)"),
    ("e2", "R1 vs R2 cost per traversal (3.1.2)"),
    ("e3", "wireless ops / battery per execution"),
    ("e4", "L1/L2 factor vs C_search/C_fixed"),
    ("e5", "group-message cost vs MOB/MSG (Section 4)"),
    ("e6", "location-view size vs locality (4.3)"),
    ("e7", "progress under disconnection"),
    ("e8", "doze interruptions, R1 vs R2'"),
    ("e9", "fairness guards and the malicious MH"),
    ("e10", "proxy policies vs move rate (Section 5)"),
    ("e11", "exactly-once extension under churn (ref [1])"),
    ("e12", "space-sharded scale curve (million-host churn)"),
    ("e13", "heavy-traffic serving: throughput/latency/fairness"),
    (
        "e14",
        "robustness: mobility zoo x fault injection under load",
    ),
];

fn run_one(name: &str, quick: bool) -> Option<Table> {
    Some(match name {
        "e0" => exp_model::run(),
        "e1" => exp_mutex::e1_lamport(quick),
        "e2" => exp_mutex::e2_ring(quick),
        "e3" => exp_mutex::e3_energy(quick),
        "e4" => exp_mutex::e4_search_ratio(quick),
        "e5" => exp_group::e5_group_strategies(quick),
        "e6" => exp_group::e6_locality(quick),
        "e7" => exp_mutex::e7_disconnection(quick),
        "e8" => exp_mutex::e8_doze(quick),
        "e9" => exp_mutex::e9_fairness(quick),
        "e10" => exp_proxy::e10_proxy(quick),
        "e11" => exp_group::e11_exactly_once(quick),
        "e12" => exp_scale::e12_scale_curve(quick),
        "e13" => exp_serve::e13_serving(quick),
        "e14" => exp_fault::e14_fault(quick),
        _ => return None,
    })
}

fn list() -> String {
    let mut s = String::from("available experiments:\n");
    for (id, what) in EXPERIMENTS {
        s += &format!("  {id:<5} {what}\n");
    }
    s
}

/// Writes to stdout; `false` once it is closed (`experiments all | head`).
fn emit(text: &str) -> bool {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .is_ok()
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!(
        "{msg}\nusage: experiments [--quick] [--csv] [--list] [--jobs N] [--shards N] \
         [--trace PATH] <e0..e14 | all>..."
    );
    ExitCode::FAILURE
}

fn positive(v: &str) -> Result<(), String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(()),
        _ => Err(format!("expects a positive integer, got '{v}'")),
    }
}

/// The trace's part files are created next to `v` as runs start and merged
/// into `v` at exit, so a path in a directory that does not exist, or one
/// that is itself a directory, is refused here, before any table prints.
/// Blank means unset to the library layers (`mobidist_bench::obs::trace_base`
/// trims), so a blank path is refused rather than silently ignored.
fn path(v: &str) -> Result<(), String> {
    if v.trim().is_empty() {
        return Err(format!("expects a non-blank path, got '{v}'"));
    }
    let path = std::path::Path::new(v);
    if path.is_dir() {
        return Err(format!("names a directory, '{v}', not a file"));
    }
    // A part file is `v` with `.wN` appended, so it lands in whatever
    // precedes `v`'s last separator: `missing/` and `missing/.` put it in
    // `missing`, though `Path::parent` would say `.` for both.
    let parent = match v.rfind(std::path::is_separator) {
        Some(0) => "/",
        Some(i) => &v[..i],
        None => ".",
    };
    if !std::path::Path::new(parent).is_dir() {
        return Err(format!(
            "names a path in '{parent}', which is not a directory"
        ));
    }
    Ok(())
}

/// A value flag: `(--long, -short, environment twin, what the value is,
/// rule)`. Each variable is read by the module that names it.
type Knob = (&'static str, &'static str, &'static str, &'static str, Rule);
type Rule = fn(&str) -> Result<(), String>;
const KNOBS: [Knob; 3] = [
    ("--jobs", "-j", JOBS_ENV, "a worker count", positive),
    ("--shards", "-s", SHARDS_ENV, "a worker count", positive),
    ("--trace", "-t", TRACE_ENV, "an output path", path),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut csv, mut list_only) = (false, false, false);
    let mut values: [Option<String>; 3] = Default::default();
    let mut selected: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" | "-q" => quick = true,
            "--csv" => csv = true,
            "--list" | "-l" => list_only = true,
            a if a.starts_with('-') => {
                // `--flag V`, `-f V` or `--flag=V`.
                let (flag, inline) = match a.split_once('=') {
                    Some((f, v)) => (f, Some(v.to_string())),
                    None => (a, None),
                };
                let Some(k) = KNOBS
                    .iter()
                    .position(|k| flag == k.0 || (flag == k.1 && inline.is_none()))
                else {
                    return usage_error(&format!("unknown flag '{a}'"));
                };
                values[k] = inline.or_else(|| it.next().cloned());
                if values[k].is_none() {
                    return usage_error(&format!("{} requires {}", KNOBS[k].0, KNOBS[k].3));
                }
            }
            name => selected.push(name),
        }
    }
    for (value, (flag, _, env, _, rule)) in values.iter_mut().zip(KNOBS) {
        let exported = || std::env::var(env).ok().filter(|v| !v.is_empty());
        let (v, origin) = match value.take() {
            Some(v) => (v, flag),
            None => match exported() {
                Some(v) => (v, env),
                None => continue,
            },
        };
        if let Err(e) = rule(&v) {
            return usage_error(&format!("{origin} {e}"));
        }
        std::env::set_var(env, &v);
        *value = Some(v);
    }
    let [_, _, trace] = &values;

    if list_only {
        return if emit(&list()) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // Every name is resolved before the first experiment runs.
    let names: Vec<&str> = if selected.contains(&"all") {
        EXPERIMENTS.iter().map(|(id, _)| *id).collect()
    } else {
        selected
    };
    if let Some(bad) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|(id, _)| id == *n))
    {
        return usage_error(&format!("unknown experiment '{bad}'\n{}", list()));
    }
    if names.is_empty() {
        return usage_error(&format!("no experiment selected\n{}", list()));
    }

    let mut status = ExitCode::SUCCESS;
    for name in names {
        let t = run_one(name, quick).expect("names were resolved above");
        let text = if csv {
            format!("# {name}\n{}", t.to_csv())
        } else {
            format!("{t}\n")
        };
        // A closed stdout is the reader saying "enough": stop quietly, but
        // say so in the exit code.
        if !emit(&text) {
            status = ExitCode::FAILURE;
            break;
        }
    }
    if let Some(path) = trace {
        match mobidist_bench::obs::merge_worker_files(std::path::Path::new(path)) {
            Ok(runs) => eprintln!("trace: {runs} runs written to {path}"),
            Err(e) => {
                eprintln!("trace merge failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    status
}
