//! Command line of the benchmark; `run.sh` builds this and passes its
//! arguments through.
//!
//! ```text
//! mobidist-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, in process
//! mobidist-benchmark [--seed N] [--trace] [--quick]                     all six, one child each
//! mobidist-benchmark --selfcheck [--quick]                              two suites, compared
//! mobidist-benchmark --update-golden                                    rewrite golden.json
//! ```
//!
//! The last line of standard output is one JSON object; the exit code is
//! non-zero when any correctness check missed.

use mobidist_benchmark::runner::{self, Config};
use mobidist_benchmark::suite::{self, SuiteArgs};
use mobidist_benchmark::workloads::Size;
use mobidist_benchmark::{alloc, sys, DEFAULT_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--quick] [--selfcheck] [--update-golden] [--golden FILE] [--out DIR]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    update_golden: bool,
    golden: Option<String>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
        update_golden: false,
        golden: None,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} requires {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                let v = value("a number")?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds: '{v}' is not a duration"))?;
            }
            "--golden" => a.golden = Some(value("a file")?),
            "--out" => a.out = Some(value("a directory")?),
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--update-golden" => a.update_golden = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // Before any thread exists: a workload sees only the knobs it sets.
    sys::clear_ambient_env();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let bench = sys::bench_dir();
    let out_dir = a.out.as_ref().map_or(bench.join("out"), PathBuf::from);
    let golden = a
        .golden
        .as_ref()
        .map_or(bench.join("golden.json"), PathBuf::from);
    let suite_args = SuiteArgs {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        quick: a.quick,
        golden: a.golden.clone(),
    };

    let ok = if a.update_golden {
        suite::update_golden(&golden)
    } else if a.selfcheck {
        suite::selfcheck(&suite_args, &bench.join("..").join("BENCHMARK.json"))
    } else if let Some(workload) = a.workload {
        let cfg = Config {
            workload,
            seed: a.seed,
            seconds: a.seconds,
            trace: a.trace,
            size: if a.quick { Size::Quick } else { Size::Full },
            golden,
            out_dir,
        };
        let report = match runner::run(&cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        };
        println!(
            "workload {} seed {} seconds {} trace {} quick {}",
            cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8, a.quick
        );
        for n in &report.notes {
            println!("note {n}");
        }
        println!("digest {} golden {}", report.digest, report.golden);
        for (name, value, unit) in &report.metrics {
            println!("metric {name} {value} {unit}");
        }
        let file = cfg.out_dir.join(format!(
            "{}{}.json",
            cfg.workload,
            if cfg.trace { "-trace" } else { "" }
        ));
        if let Err(e) = std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| std::fs::write(&file, report.to_json(&cfg)))
        {
            eprintln!("could not write {}: {e}", file.display());
        }
        println!("{}", report.result_line());
        report.correct
    } else {
        suite::report(&suite::run_all(&suite_args), &suite_args, &out_dir)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
