//! The `experiments` command-line contract: bad input is a usage error on
//! stderr with a non-zero exit and *nothing* on stdout — never a silently
//! wrong table — and is caught before the first experiment runs. `scalecheck`
//! takes two of the same knobs and obeys the same contract, and so does
//! `tracereport`, whose `--check` additionally may not pass on nothing.

use std::process::{Command, Output, Stdio};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const SCALECHECK: &str = env!("CARGO_BIN_EXE_scalecheck");
const TRACEREPORT: &str = env!("CARGO_BIN_EXE_tracereport");

/// `bin` with the four knob variables cleared.
fn command(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for var in ["JOBS", "SHARDS", "TRACE", "CACHE"] {
        cmd.env_remove(format!("MOBIDIST_{var}"));
    }
    cmd
}

fn run(bin: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = command(bin);
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("run the binary")
}

fn experiments(args: &[&str], env: &[(&str, &str)]) -> Output {
    run(EXPERIMENTS, args, env)
}

fn scalecheck(args: &[&str], env: &[(&str, &str)]) -> Output {
    run(SCALECHECK, args, env)
}

fn tracereport(args: &[&str]) -> Output {
    run(TRACEREPORT, args, &[])
}

/// Asserts a usage error: failure status, silent stdout, `needle` on stderr.
fn assert_rejected(out: &Output, needle: &str) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(!out.status.success(), "must fail; stderr: {stderr}");
    assert!(stdout.is_empty(), "nothing may reach stdout, got: {stdout}");
    assert!(stderr.contains(needle), "stderr lacks {needle:?}: {stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    // A typo of `--quick` used to be ignored: full-size table, exit 0.
    assert_rejected(&experiments(&["--quik", "e0"], &[]), "--quik");
}

#[test]
fn unknown_name_is_rejected_before_anything_runs() {
    // E0 used to run and print before `nope` was looked at.
    assert_rejected(&experiments(&["e0", "nope"], &[]), "nope");
}

#[test]
fn exported_knobs_are_validated_like_their_flags() {
    let jobs = experiments(&["e0"], &[("MOBIDIST_JOBS", "abc")]);
    assert_rejected(&jobs, "MOBIDIST_JOBS");
    let shards = experiments(&["e0"], &[("MOBIDIST_SHARDS", "0")]);
    assert_rejected(&shards, "MOBIDIST_SHARDS");
    assert_rejected(&experiments(&["e0", "--jobs", "0"], &[]), "--jobs");
    // The flag wins over the variable, so a good flag rescues a bad export.
    let rescued = experiments(&["e0", "--jobs=1"], &[("MOBIDIST_JOBS", "abc")]);
    assert!(rescued.status.success());
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    for flag in ["--jobs", "--shards", "--trace", "--cache", "-j"] {
        assert_rejected(&experiments(&["e0", flag], &[]), "requires");
    }
}

#[test]
fn happy_path_prints_the_table() {
    let out = experiments(&["e0", "--quick"], &[]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("## E0"), "no E0 heading: {stdout}");
    assert!(stdout.lines().filter(|l| l.starts_with('|')).count() > 2);
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // `experiments all | head`: the reader goes away mid-run. That used to
    // be a panic with a backtrace.
    let mut child = command(EXPERIMENTS)
        .args(["e0", "e1", "e2", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn experiments");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a truncated run is not a success");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn scalecheck_rejects_what_it_used_to_default() {
    // Each of these used to run the million-host point at the default
    // instead (or, for the zeros, panic in `ScaleSpec::new` / clamp to 1).
    for (args, needle) in [
        (&["--shards", "abc"][..], "--shards"),
        (&["--hosts", "x"], "--hosts"),
        (&["--hosts=1e6"], "--hosts"),
        (&["--hosts", "0"], "--hosts"),
        (&["--shards", "0"], "--shards"),
        (&["--hosts", "2000", "--shards"], "requires"),
        (&["--hosts"], "requires"),
        (&["--host", "2000"], "--host"),
    ] {
        assert_rejected(&scalecheck(args, &[]), needle);
    }
    let exported = scalecheck(&["--hosts", "2000"], &[("MOBIDIST_SHARDS", "two")]);
    assert_rejected(&exported, "MOBIDIST_SHARDS");
}

#[test]
fn scalecheck_happy_path_reports_resident_bytes() {
    let out = scalecheck(&["--hosts", "2000", "--shards", "2"], &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("hosts=2000 shards=2 "), "{stdout}");
    assert!(stdout.contains("B/host resident"), "{stdout}");
    assert!(stdout.ends_with("scalecheck: OK\n"), "{stdout}");
}

/// Runs `experiments <exp> --quick --trace F` and hands `F` (as a string) to
/// `then`; the scratch directory is removed afterwards.
fn with_trace_of(exp: &str, then: impl FnOnce(&str)) {
    let dir = std::env::temp_dir().join(format!("mobidist-cli-{exp}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace = dir.join("trace.jsonl");
    let trace = trace.to_str().expect("utf-8 temp path");
    let out = experiments(&[exp, "--quick", "--trace", trace], &[]);
    assert!(out.status.success(), "experiments {exp} --trace failed");
    then(trace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracereport_unknown_flag_is_a_usage_error() {
    // A typo of `--check` used to be dropped: a report and exit 0 where a
    // gate meant to validate. Rejected before the (missing) file is opened.
    assert_rejected(&tracereport(&["--chek", "no-such-file.jsonl"]), "--chek");
}

#[test]
fn tracereport_check_fails_on_input_without_runs() {
    // E0 is the closed-form model: it simulates nothing, so its trace is
    // empty — which `--check` used to call "OK — 0 lines, 0 runs".
    with_trace_of("e0", |trace| {
        assert_eq!(std::fs::read(trace).expect("read trace"), b"");
        assert_rejected(&tracereport(&["--check", trace]), "no runs");
    });
}

#[test]
fn tracereport_check_happy_path() {
    with_trace_of("e1", |trace| {
        let out = tracereport(&["--check", trace]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        assert!(stdout.starts_with("tracereport --check: OK"), "{stdout}");
        assert!(stdout.contains("all counts match the ledger"), "{stdout}");
    });
}

#[test]
fn tracereport_help_lists_every_schema_kind() {
    let out = tracereport(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert_eq!(mobidist_net::obs::SCHEMA.len(), 29);
    for (kind, fields, meaning) in mobidist_net::obs::SCHEMA {
        let row = format!("    {kind:<16} {}\n        {meaning}\n", fields.join(", "));
        assert!(help.contains(&row), "--help lacks the row of {kind}: {row}");
    }
    let counters = mobidist_net::obs::RunSummary::default().counters();
    for (key, _) in counters {
        assert!(help.contains(key), "--help lacks run_end counter {key}");
    }
}
