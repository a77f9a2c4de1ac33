//! Whole-suite modes: every workload in a fresh child process, `--selfcheck`
//! (two suites back to back, compared against each metric's own bound) and
//! `--update-golden`.

use crate::golden;
use crate::json::{self, Value};
use crate::sys;
use crate::workloads::{Size, NAMES};
use std::path::Path;
use std::process::{Command, Stdio};

/// Flags shared by every child of one suite.
#[derive(Debug, Clone)]
pub struct SuiteArgs {
    /// `--seed`
    pub seed: u64,
    /// `--seconds`
    pub seconds: f64,
    /// `--trace 1`
    pub trace: bool,
    /// `--quick`
    pub quick: bool,
    /// `--golden`, when overridden.
    pub golden: Option<String>,
}

/// One child's parsed result line plus the digest it printed.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// The workload.
    pub workload: String,
    /// Child exit status was 0 and the line said `correct`.
    pub ok: bool,
    /// The result line as printed (`null` when the child printed none).
    pub line: String,
    /// The same, parsed.
    pub result: Value,
    /// The `digest` line's value.
    pub digest: String,
}

fn run_child(workload: &str, a: &SuiteArgs) -> ChildResult {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.quick {
        cmd.arg("--quick");
    }
    if let Some(g) = &a.golden {
        cmd.args(["--golden", g]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn the workload's child process");
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let (line, result) = match text.lines().last().map(|l| (l, json::parse(l))) {
        Some((l, Ok(v))) => (l.to_owned(), v),
        _ => ("null".to_owned(), Value::Null),
    };
    let digest = text
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or("")
        .to_owned();
    ChildResult {
        workload: workload.to_owned(),
        ok: out.status.success() && result.get("correct").and_then(Value::as_bool) == Some(true),
        line,
        result,
        digest,
    }
}

/// Runs every workload, each in its own child process.
pub fn run_all(a: &SuiteArgs) -> Vec<ChildResult> {
    NAMES.iter().map(|w| run_child(w, a)).collect()
}

fn value_of(r: &ChildResult, metric: &str) -> Option<f64> {
    r.result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Prints the suite as one JSON document (last line) and writes it to
/// `out/`. Returns whether every workload was correct.
pub fn report(results: &[ChildResult], a: &SuiteArgs, out_dir: &Path) -> bool {
    let ok = results.iter().all(|r| r.ok);
    let body: Vec<String> = results
        .iter()
        .map(|r| format!("\"{}\": {}", r.workload, r.line))
        .collect();
    let doc = format!(
        "{{\"correct\": {ok}, \"seed\": {}, \"trace\": {}, \"quick\": {}, \"cpus\": {}, \
         \"threads\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"workloads\": {{{}}}}}",
        a.seed,
        a.trace,
        a.quick,
        sys::cpus(),
        sys::threads(),
        json::escape(&sys::env_or_unknown("BENCH_RUSTC")),
        json::escape(&sys::env_or_unknown("BENCH_COMMIT")),
        body.join(", ")
    );
    let file = out_dir.join(if a.trace {
        "suite-trace.json"
    } else {
        "suite.json"
    });
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&file, format!("{doc}\n")))
    {
        eprintln!("could not write {}: {e}", file.display());
    }
    println!("{doc}");
    ok
}

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds(benchmark_json: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("{}: {e}", benchmark_json.display()))?;
    let doc = json::parse(&text)?;
    let Some(Value::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry".into())
}

/// Two untraced suites back to back; per (workload, metric) prints both
/// values, their ratio and PASS/FAIL: the second may not be worse than the
/// first by more than the metric's bound. Returns overall success.
pub fn selfcheck(a: &SuiteArgs, benchmark_json: &Path) -> bool {
    let bounds = match bounds(benchmark_json) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            return false;
        }
    };
    let a = SuiteArgs {
        trace: false,
        ..a.clone()
    };
    let first = run_all(&a);
    let second = run_all(&a);
    let mut ok = first.iter().chain(&second).all(|r| r.ok);
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for (x, y) in first.iter().zip(&second) {
        for (metric, lower_better, bound) in &bounds {
            let (Some(v1), Some(v2)) = (value_of(x, metric), value_of(y, metric)) else {
                println!("{:<14} {:<18} missing  FAIL", x.workload, metric);
                ok = false;
                continue;
            };
            let ratio = v2 / v1;
            let worse_by = if *lower_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let pass = worse_by <= *bound;
            ok &= pass;
            println!(
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>8.4} {:>6.3}  {}",
                x.workload,
                metric,
                v1,
                v2,
                ratio,
                bound,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        if x.digest != y.digest {
            println!(
                "{:<14} digest {} vs {}  FAIL",
                x.workload, x.digest, y.digest
            );
            ok = false;
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Re-takes every workload's digest at the golden seed, both sizes, and
/// writes the golden file for the current salt.
pub fn update_golden(path: &Path) -> bool {
    let mut rows = Vec::new();
    for (size, quick) in [(Size::Full, false), (Size::Quick, true)] {
        let a = SuiteArgs {
            seed: golden::GOLDEN_SEED,
            seconds: 0.0,
            trace: false,
            quick,
            // Point the children at a file that does not exist, so a stale
            // entry cannot fail the very run that replaces it.
            golden: Some(path.with_extension("absent").display().to_string()),
        };
        for r in run_all(&a) {
            if !r.ok || r.digest.is_empty() {
                eprintln!("update-golden: {} did not run cleanly", r.workload);
                return false;
            }
            rows.push((size, r.workload, r.digest));
        }
    }
    match std::fs::write(path, golden::render(&rows)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("update-golden: {}: {e}", path.display());
            false
        }
    }
}
