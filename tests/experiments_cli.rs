//! The `experiments` command-line contract: bad input is a usage error on
//! stderr with a non-zero exit and *nothing* on stdout — never a silently
//! wrong table — and is caught before the first experiment runs. `scalecheck`
//! takes two of the same knobs and obeys the same contract, and so does
//! `tracereport`, whose `--check` additionally may not pass on nothing.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const SCALECHECK: &str = env!("CARGO_BIN_EXE_scalecheck");
const TRACEREPORT: &str = env!("CARGO_BIN_EXE_tracereport");

/// `bin` with the three knob variables cleared.
fn command(bin: &str) -> Command {
    let mut cmd = Command::new(bin);
    for var in ["JOBS", "SHARDS", "TRACE"] {
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

/// A fresh, empty scratch directory: tests run in parallel, so no two calls
/// may share one.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mobidist-cli-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// 64-bit FNV-1a of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    // The library layers read a blank trace path as unset, so flag and
    // variable refuse one rather than trace nothing into a file named "  ".
    assert_trace_refused(&["e0", "--trace", "  "], &[], "--trace");
    assert_trace_refused(&["e0"], &[("MOBIDIST_TRACE", "  ")], "MOBIDIST_TRACE");
}

#[test]
fn trace_path_that_cannot_be_written_is_a_usage_error() {
    // A path in a missing directory used to run the table, print it, warn
    // once per run that the trace file could not be opened, and only then
    // fail the merge; a directory as the path left part files beside it.
    let missing = "no-such-dir/trace.jsonl";
    assert_trace_refused(&["e1", "--quick", "--trace", missing], &[], "--trace");
    let env = [("MOBIDIST_TRACE", missing)];
    assert_trace_refused(&["e1", "--quick"], &env, "MOBIDIST_TRACE");
    assert_trace_refused(&["e1", "--quick", "--trace", "."], &[], "--trace");
    for missing in ["no-such-dir/", "no-such-dir/."] {
        assert_trace_refused(&["e1", "--quick", "--trace", missing], &[], "--trace");
    }
}

/// Runs `experiments` in an empty scratch directory, asserts a usage error
/// naming `origin`, and that the directory is still empty afterwards.
fn assert_trace_refused(args: &[&str], env: &[(&str, &str)], origin: &str) {
    let dir = scratch_dir("trace");
    let out = command(EXPERIMENTS)
        .args(args)
        .envs(env.iter().copied())
        .current_dir(&dir)
        .output()
        .expect("run the binary");
    let left = std::fs::read_dir(&dir).expect("read scratch dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_rejected(&out, origin);
    assert_eq!(left, 0, "{origin}: a refused path created a file");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    for flag in ["--jobs", "--shards", "--trace", "-j"] {
        assert_rejected(&experiments(&["e0", flag], &[]), "requires");
    }
}

#[test]
fn the_run_cache_knob_is_gone() {
    // `--cache DIR` used to memoize every run under DIR; it is now an
    // unknown flag like any other.
    let dir = scratch_dir("cache");
    let store = dir.join("store");
    let store = store.to_str().expect("utf-8 scratch path");
    assert_rejected(&experiments(&["--cache", store, "e0"], &[]), "unknown flag");
    // The variable is read by nothing: same bytes, and nothing written.
    let plain = experiments(&["e1", "--quick"], &[]);
    let with_var = experiments(&["e1", "--quick"], &[("MOBIDIST_CACHE", store)]);
    let left = std::fs::read_dir(&dir).expect("read scratch dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(plain.status.success() && with_var.status.success());
    assert_eq!(
        plain.stdout, with_var.stdout,
        "MOBIDIST_CACHE changed the table"
    );
    assert_eq!(left, 0, "MOBIDIST_CACHE created {left} entries");
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
fn fanned_out_tables_do_not_depend_on_the_worker_count() {
    // The tables whose runs left their sequential loops for the sweep
    // fan-out: three workers (the caller plus two threads) must print what
    // one does, as text and as CSV.
    let quick_tables = ["e3", "e4", "e6", "e7", "e8", "e9", "e10", "--quick"];
    for csv in [&[][..], &["--csv"]] {
        let stdout_at = |jobs| {
            let args = [&quick_tables[..], csv, &["--jobs", jobs]].concat();
            let out = experiments(&args, &[]);
            assert!(out.status.success(), "experiments {args:?} failed");
            out.stdout
        };
        let one = stdout_at("1");
        assert!(!one.is_empty());
        assert!(
            one == stdout_at("3"),
            "--jobs 3 differs from --jobs 1 ({csv:?})"
        );
    }
}

#[test]
fn pooled_tables_print_the_recorded_bytes() {
    // The tables whose sweeps once recycled simulations through per-worker
    // pools, against the FNV-1a hash of their stdout recorded while they
    // still did: building every point fresh must not move a byte.
    let out = experiments(
        &[
            "e1", "e2", "e5", "e10", "e11", "e13", "e14", "--quick", "--jobs", "2",
        ],
        &[],
    );
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    let hash = fnv1a(&out.stdout);
    assert_eq!(hash, 0x8030_6b7c_ec42_6ffd, "tables moved: {hash:#018x}");
}

#[test]
fn sharded_trace_order_is_pinned() {
    // E12's tables and digests are blind to the order of same-tick ties: a
    // host's trajectory is a pure function of (seed, id, decision counter)
    // and the digest hashes end state, so a commit that reordered ties the
    // same way at every shard count would still print the recorded tables.
    // The trace records every event in pop order, so its bytes pin that
    // order — at one worker and at an uneven three-way partition — against
    // FNV-1a hashes recorded before the lane commit stopped sorting.
    let dir = std::env::temp_dir().join(format!("mobidist-cli-e12-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (shards, want) in [
        ("1", 0xe696_3e21_fdd6_4f80u64),
        ("3", 0xb131_ad5f_277c_88f6),
    ] {
        let trace = dir.join(format!("s{shards}.jsonl"));
        let trace = trace.to_str().expect("utf-8 temp path");
        let args = ["e12", "--quick", "--jobs", "1", "--trace", trace];
        let out = experiments(&args, &[("MOBIDIST_SHARDS", shards)]);
        assert!(out.status.success(), "stderr: {:?}", out.stderr);
        let hash = fnv1a(&std::fs::read(trace).expect("read trace"));
        assert_eq!(hash, want, "trace moved at {shards} shards: {hash:#018x}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `bin` with a stdout whose reader has already gone away, and asserts
/// a failed exit without a panic.
fn assert_quiet_on_closed_stdout(bin: &str, args: &[&str]) {
    // The read end is closed before the child starts, so even a run that
    // finishes in milliseconds meets a closed pipe on its first write.
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = command(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{bin}: a truncated run is not a success"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} must not panic: {stderr}"
    );
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    // `experiments all | head`: the reader goes away mid-run. That used to
    // be a panic with a backtrace, and still was for the other two binaries.
    assert_quiet_on_closed_stdout(EXPERIMENTS, &["e0", "e1", "e2", "--quick"]);
    assert_quiet_on_closed_stdout(SCALECHECK, &["--hosts", "2000"]);
    with_trace_of("e1", |trace| {
        assert_quiet_on_closed_stdout(TRACEREPORT, &[trace])
    });
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
    for (var, value) in [
        ("MOBIDIST_SHARDS", "two"),
        // Once read leniently: `abc` ran at the default, `0` at one shard.
        ("MOBIDIST_JOBS", "abc"),
        ("MOBIDIST_JOBS", "0"),
    ] {
        let exported = scalecheck(&["--hosts", "2000"], &[(var, value)]);
        assert_rejected(&exported, var);
    }
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
    let dir = scratch_dir(exp);
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
