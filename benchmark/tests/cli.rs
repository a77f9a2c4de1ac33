//! The binary end to end, at `--quick` size so the benchmark cannot rot
//! silently: result-line shape, seed behaviour, and the golden check.

use mobidist_benchmark::json::{self, Value};
use mobidist_benchmark::metrics::{END_TO_END, PER_LAYER};
use mobidist_benchmark::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::Command;

struct Run {
    code: Option<i32>,
    result: Value,
    digest: String,
    golden: String,
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Runs the binary at `--quick` size; `tag` names this test's own output
/// directory so concurrently running tests share no file.
fn run(tag: &str, workload: &str, seed: u64, trace: bool, golden: &Path) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_mobidist-benchmark"))
        .args(["--quick", "--workload", workload, "--seconds", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--golden")
        .arg(golden)
        .arg("--out")
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag))
        .env("BENCH_DIR", bench_dir())
        .output()
        .expect("run the benchmark binary");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let digest_line = text
        .lines()
        .find(|l| l.starts_with("digest "))
        .unwrap_or_else(|| panic!("no digest line in:\n{text}"));
    let mut words = digest_line.split_whitespace();
    Run {
        code: out.status.code(),
        result: json::parse(text.lines().last().expect("a result line")).expect("result is JSON"),
        digest: words.nth(1).expect("digest value").to_owned(),
        golden: words.nth(1).expect("golden verdict").to_owned(),
    }
}

fn shipped_golden() -> PathBuf {
    bench_dir().join("golden.json")
}

fn metric_names(r: &Value) -> Vec<&str> {
    r.get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn result_line_has_exactly_the_contract_keys_and_every_metric() {
    for w in ["ring_unicast", "sweep_tables"] {
        let r = run("shape", w, 1, false, &shipped_golden());
        assert_eq!(r.code, Some(0), "{w}");
        let keys: Vec<&str> = r.result.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(r.result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(r.result.get("failed").and_then(Value::as_f64), Some(0.0));
        let names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(metric_names(&r.result), names, "{w}");
        for (name, m) in r.result.get("metrics").unwrap().members() {
            let v = m.get("value").and_then(Value::as_f64).expect("value");
            assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
        }
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let r = run("traced", "ring_traced", 1, true, &shipped_golden());
    assert_eq!(r.code, Some(0));
    let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(metric_names(&r.result), names);
    let value = |n: &str| {
        r.result
            .get("metrics")
            .and_then(|m| m.get(n))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("no metric {n}"))
    };
    // The layers this workload enters are attributed…
    assert!(value("net.obs.emit_s") > 0.0);
    assert!(value("net.kernel.run_share") >= 0.98);
    assert!(value("core.r2.callback_s") > 0.0);
    assert!(value("trace_overhead_ratio") > 0.0);
    // …and the ones it bypasses read zero.
    assert_eq!(value("net.shard.windows"), 0.0);
    assert_eq!(value("core.l2.callback_s"), 0.0);
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("traced/trace-ring_traced.json");
    let doc =
        json::parse(&std::fs::read_to_string(trace).expect("trace file")).expect("trace parses");
    assert!(matches!(doc.get("spans"), Some(Value::Arr(s)) if !s.is_empty()));
}

#[test]
fn a_seed_fixes_the_digest_and_another_seed_changes_it() {
    for w in NAMES {
        let a = run("seeds", w, 1, false, &shipped_golden());
        let b = run("seeds", w, 1, false, &shipped_golden());
        let c = run("seeds", w, 2, false, &shipped_golden());
        assert_eq!((a.code, b.code, c.code), (Some(0), Some(0), Some(0)), "{w}");
        assert_eq!(a.digest, b.digest, "{w}: one seed, two digests");
        assert_ne!(
            a.digest, c.digest,
            "{w}: --seed 2 left the digest unchanged"
        );
        assert_eq!(a.golden, "ok", "{w}: golden.json is out of date");
        assert_eq!(c.golden, "absent", "{w}: goldens apply to seed 1 only");
    }
}

#[test]
fn a_corrupted_golden_entry_fails_the_run() {
    let good = std::fs::read_to_string(shipped_golden()).expect("golden.json");
    let clean = run("golden", "ring_unicast", 1, false, &shipped_golden());
    assert_eq!(clean.code, Some(0));
    let bad = good.replace(&clean.digest, "00000000deadbeef");
    assert_ne!(bad, good, "the quick digest is in golden.json");
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-corrupt.json");
    std::fs::write(&path, bad).expect("write the corrupted copy");

    let r = run("golden", "ring_unicast", 1, false, &path);
    assert_ne!(r.code, Some(0), "a golden mismatch must exit non-zero");
    assert_eq!(r.golden, "mismatch");
    assert_eq!(
        r.result.get("correct").and_then(Value::as_bool),
        Some(false)
    );
    let failed = r.result.get("failed").and_then(Value::as_f64).unwrap();
    let attempted = r.result.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(
        failed >= 1.0 && failed / attempted > 0.0,
        "failed share must be > 0"
    );
}
