//! One differential harness for every knob that must not change a result.
//!
//! The engine has four process-wide knobs — sweep workers (`MOBIDIST_JOBS`),
//! sharded-kernel workers (`MOBIDIST_SHARDS`), the run cache
//! (`MOBIDIST_CACHE`) and trace capture (`MOBIDIST_TRACE`) — and one contract
//! for all of them: the rendered tables are byte-identical whatever the knob
//! says. [`AXES`] states that contract as a table, one row per `(axis, env
//! var, baseline, variants, experiments)`; the driver renders the row's
//! experiments (text *and* CSV) at the baseline and at every variant and
//! diffs them. A new knob is a new row. Rows with state of their own (the
//! cache's tiers, the captured trace) wrap each render in their `steps`.
//!
//! The whole table runs inside ONE `#[test]` on purpose: the knobs travel
//! through environment variables, which are process-global, and the table
//! functions read them on every call — two tests flipping them in one
//! process would observe each other's settings mid-run. Only the tests that
//! never touch the environment stand on their own.

use mobidist_bench::exp_fault::e14_fault;
use mobidist_bench::exp_group::{e11_exactly_once, e5_group_strategies, e6_locality};
use mobidist_bench::exp_mutex::{
    e1_lamport, e2_ring, e3_energy, e4_search_ratio, e7_disconnection, e8_doze, e9_fairness,
};
use mobidist_bench::exp_proxy::e10_proxy;
use mobidist_bench::exp_scale::{e12_scale_curve, SHARDS_ENV};
use mobidist_bench::exp_serve::e13_serving;
use mobidist_bench::obs::{merge_worker_files, TRACE_ENV};
use mobidist_bench::table::Table;
use mobidist_core::prelude::*;
use mobidist_net::metrics::Metrics;
use mobidist_net::obs::{parse_line, Line, RingSink, RunMeta, TraceEvent};
use mobidist_net::prelude::*;
use mobidist_runcache::{store, CACHE_ENV};
use std::fs;
use std::io::BufRead;
use std::path::{Path, PathBuf};

type Exp = fn(bool) -> Table;

/// The experiments that run on the generic kernel and cover every plane:
/// mutex (E1, E2), group (E5, E11), serving with combining (E13) and the
/// fault plane (E14).
const CLASSIC: &[Exp] = &[
    e1_lamport,
    e2_ring,
    e5_group_strategies,
    e11_exactly_once,
    e13_serving,
    e14_fault,
];

/// Wraps one variant's render-and-compare: `(step, scratch path, render)`.
type Steps = fn(&str, &Path, &mut dyn FnMut());

/// One knob and the claim that it is invisible in `experiments`' tables.
struct Axis {
    name: &'static str,
    env: &'static str,
    /// The variable's value for the reference render; `None` = unset.
    baseline: Option<&'static str>,
    /// Values to render at — or, on a row with `steps`, step names, the
    /// value then being a per-process scratch path.
    variants: &'static [&'static str],
    experiments: &'static [Exp],
    steps: Option<Steps>,
}

const AXES: &[Axis] = &[
    Axis {
        name: "jobs",
        env: "MOBIDIST_JOBS",
        baseline: Some("1"),
        variants: &["4"],
        experiments: &[
            e1_lamport,
            e2_ring,
            e3_energy,
            e4_search_ratio,
            e5_group_strategies,
            e6_locality,
            e7_disconnection,
            e8_doze,
            e9_fairness,
            e10_proxy,
            e11_exactly_once,
            e13_serving,
            e14_fault,
        ],
        steps: None,
    },
    // The classic experiments never run on the sharded kernel, so its
    // worker count must be inert for them ...
    Axis {
        name: "shards, generic kernel",
        env: SHARDS_ENV,
        baseline: None,
        variants: &["4"],
        experiments: CLASSIC,
        steps: None,
    },
    // ... while E12 does run on it, and is identical at every count.
    Axis {
        name: "shards, sharded kernel",
        env: SHARDS_ENV,
        baseline: Some("1"),
        variants: &["2", "3", "8"],
        experiments: &[e12_scale_curve],
        steps: None,
    },
    Axis {
        name: "cache",
        env: CACHE_ENV,
        baseline: None,
        variants: &[
            "cold",
            "warm-mem",
            "warm-disk",
            "parallel",
            "corrupt",
            "healed",
        ],
        experiments: CLASSIC,
        steps: Some(cache_steps),
    },
    Axis {
        name: "trace",
        env: TRACE_ENV,
        baseline: None,
        variants: &["traced"],
        experiments: CLASSIC,
        steps: Some(trace_steps),
    },
];

fn set_env(var: &str, value: Option<&str>) {
    match value {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
}

/// Text and CSV of each experiment's quick table.
fn render(exps: &[Exp]) -> Vec<String> {
    let both = |t: Table| format!("{t}{}", t.to_csv());
    exps.iter().map(|table| both(table(true))).collect()
}

#[test]
fn no_knob_changes_a_table() {
    for axis in AXES {
        let tmp = std::env::temp_dir().join(format!(
            "mobidist-differential-{}-{}",
            axis.env,
            std::process::id()
        ));
        let prev = std::env::var(axis.env).ok();
        set_env(axis.env, axis.baseline);
        let reference = render(axis.experiments);
        for step in axis.variants {
            let mut check = || {
                let value = axis.steps.map_or(*step, |_| tmp.to_str().expect("utf-8"));
                set_env(axis.env, Some(value));
                let got = render(axis.experiments);
                set_env(axis.env, None);
                let (name, env) = (axis.name, axis.env);
                assert_eq!(reference, got, "axis {name:?} ({env}), variant {step:?}");
            };
            match axis.steps {
                Some(steps) => steps(step, &tmp, &mut check),
                None => check(),
            }
        }
        set_env(axis.env, prev.as_deref());
    }
}

// ----- cache axis -----------------------------------------------------------

/// Every record file in the sharded cache directory.
fn record_files(dir: &Path) -> Vec<PathBuf> {
    let entries = |d: &Path| {
        fs::read_dir(d)
            .expect("read cache dir")
            .map(|e| e.unwrap().path())
    };
    let mut out: Vec<PathBuf> = entries(dir)
        .filter(|shard| shard.is_dir())
        .flat_map(|shard| entries(&shard))
        .filter(|f| f.extension().is_some_and(|e| e == "mdrc"))
        .collect();
    out.sort();
    out
}

/// Walks the store through its tiers and failure modes: a corrupted record
/// must read as a miss and recompute — never panic, never change a table.
fn cache_steps(step: &str, dir: &Path, render: &mut dyn FnMut()) {
    let cache = store::global();
    match step {
        "cold" => {
            let _ = fs::remove_dir_all(dir);
            fs::create_dir_all(dir).expect("create cache dir");
            cache.clear_memory();
            render();
            let s = cache.stats();
            assert!(s.stores > 0, "cold pass stored nothing: {s:?}");
            assert_eq!(s.hits(), 0, "cold pass cannot hit: {s:?}");
        }
        // Memory tier: the map the cold pass filled is still there.
        "warm-mem" => {
            render();
            let s = cache.stats();
            assert!(s.mem_hits > 0, "warm pass never hit memory: {s:?}");
        }
        // Disk tier: drop the map so every hit decodes a record.
        "warm-disk" => {
            cache.clear_memory();
            render();
            let s = cache.stats();
            assert!(s.disk_hits > 0, "warm pass never hit disk: {s:?}");
        }
        // Replay under fan-out: workers share the one store.
        "parallel" => {
            std::env::set_var("MOBIDIST_JOBS", "3");
            cache.clear_memory();
            render();
            std::env::remove_var("MOBIDIST_JOBS");
        }
        // Truncate one record, garble another, replace a third with the
        // wrong magic: all three must be noticed and recomputed.
        "corrupt" => {
            let files = record_files(dir);
            assert!(files.len() >= 3, "only {} records", files.len());
            let mut bytes = fs::read(&files[0]).expect("read record");
            fs::write(&files[0], &bytes[..bytes.len() / 2]).expect("truncate record");
            bytes = fs::read(&files[1]).expect("read record");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            fs::write(&files[1], &bytes).expect("garble record");
            fs::write(&files[2], b"not a cache record at all").expect("replace record");
            let before = cache.stats().corrupt;
            cache.clear_memory();
            render();
            let s = cache.stats();
            assert!(s.corrupt >= before + 3, "corruption not detected: {s:?}");
        }
        // The recompute overwrote the bad records.
        "healed" => {
            cache.clear_memory();
            render();
            let _ = fs::remove_dir_all(dir);
        }
        other => unreachable!("no cache step {other:?}"),
    }
}

// ----- trace axis -----------------------------------------------------------

/// One run's event stream, folded: `Metrics` (which tallies the ledger
/// counters) plus the batch sizes it does not sum.
#[derive(Default)]
struct Derived {
    label: String,
    metrics: Metrics,
    combined: u64,
}

/// The captured stream is complete: every ledger counter re-derived from
/// the events alone equals the `run_end` snapshot the kernel wrote —
/// including the combining identity (L2C batch sizes sum to the CS-entry
/// count) and the fault identities.
fn trace_steps(_step: &str, trace: &Path, render: &mut dyn FnMut()) {
    let _ = fs::remove_file(trace);
    render();
    let merged = merge_worker_files(trace).expect("merge worker part files");
    assert!(merged >= 8, "expected >= 8 traced runs, got {merged}");

    // The merged file holds each run contiguously: begin, events, end.
    let (mut runs, mut combining, mut crashes) = (0, false, false);
    let mut open: Option<Derived> = None;
    let file = fs::File::open(trace).expect("open merged trace");
    for (lineno, line) in std::io::BufReader::new(file).lines().enumerate() {
        let line = line.expect("read trace line");
        match parse_line(&line).unwrap_or_else(|e| panic!("line {}: {e}", lineno + 1)) {
            Line::RunBegin(RunMeta { label, .. }) => {
                let fresh = Derived {
                    label,
                    ..Derived::default()
                };
                assert!(open.replace(fresh).is_none(), "run_begin inside a run");
            }
            Line::Event { run, seq, t, ev } => {
                let d = open.as_mut().expect("event outside a run");
                assert_eq!(seq, d.metrics.events, "run {run}: seq not dense");
                d.metrics.observe(t, &ev);
                if let TraceEvent::CombineBatch { size, .. } = ev {
                    d.combined += size as u64;
                }
            }
            Line::RunEnd { summary, events } => {
                let d = open.take().expect("run_end outside a run");
                let at = format!("run {} [{}]", summary.run, d.label);
                assert_eq!(events, d.metrics.events, "{at}: event count");
                let kind = |name| d.metrics.kind_count(name);
                let derived: Vec<_> = d.metrics.tally.event_counters().collect();
                let ledger: Vec<_> = summary.event_counters().collect();
                assert_eq!(derived, ledger, "{at}: trace-derived counters != ledger");
                // Combining identity (E13's L2C cells): every grant is
                // announced in exactly one batch.
                if kind("combine_batch") > 0 {
                    assert_eq!(d.combined, kind("cs_enter"), "{at}: batch sizes != entries");
                    combining = true;
                }
                crashes |= kind("fault_crash") > 0;
                runs += 1;
            }
        }
    }
    assert!(open.is_none(), "trace ends inside a run");
    assert_eq!(runs, merged);
    assert!(combining, "no traced run exercised the combining identity");
    assert!(
        crashes,
        "no traced run exercised the fault identities (E14)"
    );
    let _ = fs::remove_file(trace);
}

// ----- seed determinism ------------------------------------------------------

/// The last 2¹⁶ events of a run (their `seq` pins the length of the whole
/// stream) plus its final ledger.
type Outcome = (Vec<(SimTime, u64, TraceEvent)>, CostLedger);

fn mutex_cfg(seed: u64) -> NetworkConfig {
    NetworkConfig::new(4, 12)
        .with_seed(seed)
        .with_mobility(MobilityConfig::moving(300))
}

fn mutex_proto() -> MutexHarness<L2> {
    MutexHarness::new(L2::new(4), WorkloadConfig::all_mhs(12, 2))
}

/// A mobility-heavy mutex workload under a ring sink.
fn mutex_outcome(sim: &mut Simulation<MutexHarness<L2>>) -> Outcome {
    sim.set_trace_sink(Box::new(RingSink::new(1 << 16)));
    sim.run_until(SimTime::from_ticks(200_000));
    let sink = sim.finish_trace().expect("sink installed above");
    let ring = sink.as_any().downcast_ref::<RingSink>().expect("RingSink");
    assert!(!ring.is_empty(), "the workload must exercise the trace");
    (ring.iter().copied().collect(), sim.ledger().clone())
}

fn assert_same_run(a: &Outcome, b: &Outcome) {
    assert_eq!(a.0.len(), b.0.len());
    for (i, (a, b)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(a, b, "event stream diverged at entry {i}");
    }
    assert_eq!(a.1, b.1, "cost ledgers must match exactly");
}

/// The sweep runner is only sound because a run is a pure function of its
/// `(config, seed)` pair.
#[test]
fn same_seed_runs_produce_identical_event_streams() {
    let run = |seed| mutex_outcome(&mut Simulation::new(mutex_cfg(seed), mutex_proto()));
    assert_same_run(&run(21), &run(21));
    // A different seed must change the execution — otherwise the equality
    // above proves nothing.
    assert_ne!(run(21).0, run(22).0, "distinct seeds should diverge");
}
