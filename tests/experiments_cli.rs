//! The `experiments` command-line contract: bad input is a usage error on
//! stderr with a non-zero exit and *nothing* on stdout — never a silently
//! wrong table — and is caught before the first experiment runs.

use std::process::{Command, Output, Stdio};

/// `experiments` with the four knob variables cleared.
fn command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for var in ["JOBS", "SHARDS", "TRACE", "CACHE"] {
        cmd.env_remove(format!("MOBIDIST_{var}"));
    }
    cmd
}

fn experiments(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = command();
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("run experiments")
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
    let mut child = command()
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
