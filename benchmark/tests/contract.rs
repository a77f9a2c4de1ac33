//! `BENCHMARK.json` and the binary agree on names, units and sizes.

use mobidist_benchmark::json::{self, Value};
use mobidist_benchmark::metrics::{END_TO_END, PER_LAYER};
use mobidist_benchmark::workloads::NAMES;
use mobidist_benchmark::DEFAULT_SECONDS;
use std::path::Path;

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    match doc.get(key) {
        Some(Value::Arr(a)) => a,
        other => panic!("{key} is not a list: {other:?}"),
    }
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string '{key}' in {v:?}"))
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let doc = spec();
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
}

#[test]
fn workloads_match_the_binary() {
    let doc = spec();
    let names: Vec<&str> = list(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, NAMES);
    for w in list(&doc, "workloads") {
        let why = text(w, "why");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why}"
        );
        assert_eq!(w.members().len(), 2);
    }
}

#[test]
fn metrics_match_the_catalogue() {
    let doc = spec();
    let e2e: Vec<(&str, &str)> = list(&doc, "end_to_end")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END);
    for m in list(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        assert!(matches!(text(m, "better"), "lower" | "higher"));
        assert_eq!(m.members().len(), 4);
    }
    let setup = list(&doc, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is mandatory");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));

    let layers: Vec<(&str, &str)> = list(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(layers, PER_LAYER);
    assert!(layers.len() <= 128);
    for m in list(&doc, "per_layer") {
        assert!(matches!(text(m, "better"), "lower" | "higher"));
        assert_eq!(m.members().len(), 3);
    }
    // Names are used once across both lists, and fit the contract's alphabet.
    let mut all: Vec<&str> = e2e.iter().chain(&layers).map(|(n, _)| *n).collect();
    for n in &all {
        assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{n}"
        );
    }
    let count = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), count, "a metric name is used twice");
}
