//! Negative coverage for `tracereport --check`: the ledger reconciliation
//! must actually *fail* on an incomplete trace, not just pass on complete
//! ones. One real E14 trace is produced through the CLI and verified to
//! check green; each test then surgically drops one event line from a copy
//! — renumbering the sequence numbers and the `run_end` event count so the
//! tamper is invisible to the density checks — and asserts that the identity
//! covering that event is the check that catches it.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Extracts the u64 value of `"key":N` from a trace line.
fn field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Replaces `"key":OLD` with `"key":NEW` in a trace line.
fn set_field(line: &str, key: &str, old: u64, new: u64) -> String {
    line.replacen(&format!("\"{key}\":{old}"), &format!("\"{key}\":{new}"), 1)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mobidist-tamper-{}-{name}", std::process::id()))
}

fn check(trace: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tracereport"))
        .arg("--check")
        .arg(trace)
        .output()
        .expect("run tracereport")
}

/// The `experiments --quick e14` trace, recorded once per test process and
/// verified to check green before any test tampers with a copy of it.
fn e14_trace() -> &'static str {
    static TRACE: OnceLock<String> = OnceLock::new();
    TRACE.get_or_init(|| {
        let path = temp_path("e14.jsonl");
        let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", "--trace"])
            .arg(&path)
            .arg("e14")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run experiments");
        assert!(status.success(), "experiments --quick --trace e14 failed");
        let clean = check(&path);
        assert!(
            clean.status.success(),
            "untampered trace must check green: {}",
            String::from_utf8_lossy(&clean.stderr)
        );
        let text = std::fs::read_to_string(&path).expect("read trace");
        let _ = std::fs::remove_file(&path);
        text
    })
}

/// Drops the first `"ev":"<kind>"` line of the E14 trace, keeping seq
/// density and the run's `run_end` event count consistent, and asserts that
/// `--check` fails with `needle` on stderr.
fn assert_dropping_first_is_caught(kind: &str, needle: &str) {
    let text = e14_trace();
    let victim = text
        .lines()
        .find(|l| l.contains(&format!("\"ev\":\"{kind}\"")))
        .unwrap_or_else(|| panic!("the E14 trace must emit {kind}"));
    let run = field(victim, "run").expect("victim run id");
    let victim_seq = field(victim, "seq").expect("victim seq");
    let mut tampered = String::with_capacity(text.len());
    let mut dropped = false;
    for line in text.lines() {
        if !dropped && line == victim {
            dropped = true;
            continue;
        }
        let mut line = line.to_owned();
        if field(&line, "run") == Some(run) {
            match field(&line, "seq") {
                Some(seq) if seq > victim_seq => {
                    line = set_field(&line, "seq", seq, seq - 1);
                }
                None if line.contains("\"ev\":\"run_end\"") => {
                    let events = field(&line, "events").expect("run_end events");
                    line = set_field(&line, "events", events, events - 1);
                }
                _ => {}
            }
        }
        tampered.push_str(&line);
        tampered.push('\n');
    }
    assert!(dropped, "victim line not found on rewrite");

    let path = temp_path(&format!("no-{kind}.jsonl"));
    std::fs::write(&path, tampered).expect("write tampered trace");
    let bad = check(&path);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        !bad.status.success(),
        "trace without one {kind} must fail --check, got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "failure must name the {needle:?} identity, got: {stderr}"
    );
}

#[test]
fn check_rejects_a_trace_missing_one_fault_event() {
    // `fault_recover` events == ledger `fault_recovers`.
    assert_dropping_first_is_caught("fault_recover", "fault_recovers");
}

#[test]
fn check_rejects_a_trace_missing_one_combine_batch() {
    // E14's L2C cells are the only source of `combine_batch`: its sizes
    // must sum to the run's `cs_enter` count.
    assert_dropping_first_is_caught("combine_batch", "combine_batch sizes sum to");
}
