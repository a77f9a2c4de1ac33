//! Runs one workload in this process and reduces it to named metrics.
//!
//! **Untraced run** (`--trace 0`, the end-to-end metrics): set up
//! [`SETUPS`] times — generate inputs from the seed, construct, run one
//! warm-up repetition — then repeat timed repetitions until `--seconds` have
//! passed. Every set-up and repetition is bracketed by two samples of the
//! machine-speed [`probe`] and scaled to nominal speed; a timing is reported
//! as the median over repetitions, with quartiles, `n` and the raw readings
//! on the human-readable lines.
//!
//! **Traced run** (`--trace 1`, the per-layer metrics): one warm-up, one
//! plain repetition under the counting allocator, then plain and traced
//! repetitions in alternation for most of the budget, then the workload's extra
//! units and its micro-drivers. The ratio of the two medians is the tracing
//! overhead, reported as `trace_overhead_ratio`.

use crate::golden::{self, Golden};
use crate::json;
use crate::metrics::{layer_unit, END_TO_END, PER_LAYER};
use crate::probe::{self, Probe, Speed};
use crate::stats::{median, quartiles};
use crate::workloads::{self, Outcome, Size, Workload};
use crate::{alloc, micro, spans, sys};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Share of `--seconds` the traced run spends alternating plain and traced
/// repetitions; the rest goes to the extra units and the micro-drivers, so
/// the whole traced run lasts about as long as an untraced one.
const TRACED_SHARE: f64 = 0.65;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`workloads::NAMES`].
    pub workload: String,
    /// Seeds every generated input.
    pub seed: u64,
    /// Length of the timed part, seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Full size or `--quick`.
    pub size: Size,
    /// The golden-digest file.
    pub golden: PathBuf,
    /// Where result and trace files go.
    pub out_dir: PathBuf,
}

/// A finished run: the result line's content plus what the report prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload that ran.
    pub workload: String,
    /// Every repetition passed every check.
    pub correct: bool,
    /// Repetitions attempted (warm-ups included).
    pub attempted: u64,
    /// Repetitions that missed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the simulated outputs (hex).
    pub digest: String,
    /// `ok`, `stale`, `absent` or `mismatch` — see [`golden`].
    pub golden: &'static str,
    /// Human-readable detail lines (quartiles, machine facts, check misses).
    pub notes: Vec<String>,
}

impl Report {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        let mut j = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                j,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                name,
                json::num(*value),
                unit
            );
        }
        j.push_str("}}");
        j
    }

    /// The fuller record written under `out/`.
    pub fn to_json(&self, cfg: &Config) -> String {
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json::escape(n)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
             \"digest\": \"{}\", \"golden\": \"{}\", \"cpus\": {}, \"threads\": {}, \
             \"rustc\": \"{}\", \"commit\": \"{}\", \"loadavg\": \"{}\", \"notes\": [{}], \
             \"result\": {}}}\n",
            self.workload,
            cfg.seed,
            json::num(cfg.seconds),
            cfg.trace,
            cfg.size == Size::Quick,
            self.digest,
            self.golden,
            sys::cpus(),
            sys::threads(),
            json::escape(&sys::env_or_unknown("BENCH_RUSTC")),
            json::escape(&sys::env_or_unknown("BENCH_COMMIT")),
            json::escape(&sys::loadavg()),
            notes.join(", "),
            self.result_line()
        )
    }
}

/// Tallies repetitions and their check misses across a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    misses: Vec<String>,
}

impl Tally {
    /// Counts one repetition: its own check misses, plus digest equality
    /// with the first repetition of the run.
    fn rep(&mut self, o: &Outcome) {
        self.attempted += 1;
        let mut misses = o.failures.clone();
        match self.digest {
            None => self.digest = Some(o.digest),
            Some(d) if d != o.digest => misses.push(format!(
                "digest {:016x} differs from the first repetition's {d:016x}",
                o.digest
            )),
            Some(_) => {}
        }
        if !misses.is_empty() {
            self.failed += 1;
            self.misses.extend(misses);
        }
    }

    /// Counts a check that is not tied to one repetition.
    fn check(&mut self, misses: Vec<String>) {
        if !misses.is_empty() {
            self.attempted += 1;
            self.failed += 1;
            self.misses.extend(misses);
        }
    }
}

fn build(cfg: &Config) -> Result<Box<dyn Workload>, String> {
    workloads::build(&cfg.workload, cfg.seed, cfg.size).ok_or_else(|| {
        format!(
            "unknown workload '{}' (one of: {})",
            cfg.workload,
            workloads::NAMES.join(", ")
        )
    })
}

/// Runs `cfg` and returns its report; `Err` only for a bad configuration.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let quick = cfg.size == Size::Quick;
    let mut tally = Tally::default();
    let mut notes = vec![format!(
        "cpus={} threads={} rustc='{}' commit={} loadavg='{}'",
        sys::cpus(),
        sys::threads(),
        sys::env_or_unknown("BENCH_RUSTC"),
        sys::env_or_unknown("BENCH_COMMIT"),
        sys::loadavg()
    )];
    let runq0 = sys::runq_wait_ns();
    let run_start = Instant::now();

    let (mut metrics, first) = if cfg.trace {
        traced(cfg, quick, &mut tally, &mut notes)?
    } else {
        untraced(cfg, quick, &mut tally, &mut notes)?
    };

    let runq_share = match (runq0, sys::runq_wait_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / run_start.elapsed().as_nanos() as f64,
        _ => 0.0,
    };
    notes.push(format!("runq_wait_share={runq_share:.4}"));

    let digest = first.digest;
    let verdict = Golden::load(&cfg.golden).verdict(&cfg.workload, cfg.seed, cfg.size, digest);
    if verdict == golden::MISMATCH {
        tally.check(vec![format!(
            "digest {digest:016x} differs from {} at an unchanged KERNEL_VERSION_SALT",
            cfg.golden.display()
        )]);
    }
    for m in &tally.misses {
        notes.push(format!("FAILED {m}"));
    }

    if cfg.trace {
        metrics.insert("runq_wait_share", runq_share);
    }
    let catalogue = if cfg.trace { PER_LAYER } else { &END_TO_END };
    Ok(Report {
        workload: cfg.workload.clone(),
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: catalogue
            .iter()
            .map(|&(n, u)| (n, metrics.get(n).copied().unwrap_or(0.0), u))
            .collect(),
        digest: format!("{digest:016x}"),
        golden: verdict,
        notes,
    })
}

type Metrics = BTreeMap<&'static str, f64>;

/// The machine-speed probe and every reading it took, in order.
struct Yardstick {
    probe: Probe,
    speeds: Vec<Speed>,
}

impl Yardstick {
    fn new() -> Self {
        let mut probe = Probe::new();
        // Building the table left part of it in cache: the first reading
        // flatters the loads, the second is the first usable one.
        probe.sample();
        let speeds = vec![probe.sample()];
        Yardstick { probe, speeds }
    }

    /// `raw_s`, measured since the last reading, at nominal machine speed;
    /// takes the closing reading.
    fn at_nominal(&mut self, raw_s: f64) -> f64 {
        let before = self.speeds[self.speeds.len() - 1];
        let after = self.probe.sample();
        self.speeds.push(after);
        raw_s * probe::correction(before, after)
    }
}

/// `samples` to six decimals, for a `note` line.
fn rounded(samples: &[f64]) -> Vec<f64> {
    samples.iter().map(|v| (v * 1e6).round() / 1e6).collect()
}

fn untraced(
    cfg: &Config,
    quick: bool,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<(Metrics, Outcome), String> {
    let mut yard = Yardstick::new();

    // Set-up: input generation, construction and the warm-up repetition,
    // several times over so one slow start does not decide `setup_s`.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..if quick { 1 } else { SETUPS } {
        let t0 = Instant::now();
        let w = build(cfg)?;
        tally.rep(&w.rep(false));
        let raw_s = t0.elapsed().as_secs_f64();
        setups.push(yard.at_nominal(raw_s));
        built = Some(w);
    }
    let w = built.expect("at least one set-up ran");

    // Peak RSS is sampled per repetition (the watermark is reset before each
    // one) and reported as a median, like the timings; where the kernel
    // refuses the reset, every sample is the process-wide peak.
    let (mut raw, mut walls, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Outcome> = None;
    let t0 = Instant::now();
    loop {
        sys::reset_peak_rss();
        let o = w.rep(false);
        peaks.extend(sys::peak_rss_mib());
        tally.rep(&o);
        raw.push(o.wall_s);
        walls.push(yard.at_nominal(o.wall_s));
        first.get_or_insert(o);
        if quick || t0.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    let first = first.expect("at least one repetition ran");
    let wall = quartiles(&walls).expect("at least one repetition ran");
    let table_mib = yard.probe.table_mib();
    notes.push(format!(
        "wall_s median={:.6} q1={:.6} q3={:.6} min={:.6} max={:.6} n={} spread={:.4} \
         (at nominal speed; raw median={:.6})",
        wall.median,
        wall.q1,
        wall.q3,
        wall.min,
        wall.max,
        wall.n,
        wall.spread(),
        median(&raw)
    ));
    notes.push(format!("wall_s samples={:?}", rounded(&walls)));
    notes.push(format!("wall_s raw samples={:?}", rounded(&raw)));
    let probe_note = |name: &str, nominal: f64, of: fn(&Speed) -> f64| {
        let samples: Vec<f64> = yard.speeds.iter().map(of).collect();
        format!(
            "probe {name} median={:.4} (nominal {nominal}) samples={:?}",
            median(&samples),
            rounded(&samples)
        )
    };
    notes.push(probe_note("step_ns", probe::NOMINAL.step_ns, |s| s.step_ns));
    notes.push(probe_note("load_ns", probe::NOMINAL.load_ns, |s| s.load_ns));
    notes.push(format!(
        "peak_rss_mb samples={peaks:?} less the probe table's {table_mib} MiB"
    ));
    notes.push(format!(
        "setup_s samples={:?} work={} per repetition",
        rounded(&setups),
        first.work
    ));

    let mut m = Metrics::new();
    m.insert("wall_s", wall.median);
    m.insert("work_per_s", first.work as f64 / wall.median);
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", median(&peaks) - table_mib);
    m.insert("sim_ops_per_ktick", first.ops_per_ktick);
    m.insert("sim_cost_per_op", first.cost_per_op);
    Ok((m, first))
}

fn traced(
    cfg: &Config,
    quick: bool,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<(Metrics, Outcome), String> {
    let w = build(cfg)?;
    tally.rep(&w.rep(false));

    // Steady state, one repetition, allocations counted.
    let (reference, allocs, bytes) = alloc::counted(|| w.rep(false));
    tally.rep(&reference);
    let kevents = reference.work as f64 / 1e3;

    // Plain and traced repetitions in alternation.
    let mut plain = vec![reference.wall_s];
    let mut with = Vec::new();
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // Span times are reported raw; the probe readings say how fast the box
    // was while they were taken.
    let mut probe = Probe::new();
    let mut speeds = Vec::new();
    let t0 = Instant::now();
    let mut rep = 0u32;
    loop {
        rep += 1;
        speeds.push(probe.sample());
        spans::with(|r| r.set_rep(rep));
        let o = w.rep(true);
        tally.rep(&o);
        with.push(o.wall_s);
        for (k, v) in &o.layer {
            layers.entry(k).or_default().push(*v);
        }
        if quick || t0.elapsed().as_secs_f64() >= cfg.seconds * TRACED_SHARE {
            break;
        }
        let o = w.rep(false);
        tally.rep(&o);
        plain.push(o.wall_s);
    }

    let mut m: Metrics = layers.iter().map(|(k, v)| (*k, median(v))).collect();
    let (extra, misses) = w.extras(&reference);
    tally.check(misses);
    m.extend(extra);
    m.extend(micro::for_workload(&cfg.workload, cfg.seed, cfg.size));

    let (plain_s, with_s) = (median(&plain), median(&with));
    m.insert("trace_overhead_ratio", with_s / plain_s);
    let reading = |f: fn(&Speed) -> f64| median(&speeds.iter().map(f).collect::<Vec<_>>());
    m.insert("bench.probe.step_ns", reading(|s| s.step_ns));
    m.insert("bench.probe.load_ns", reading(|s| s.load_ns));
    if w.work_is_events() {
        m.insert("alloc.count_per_kevent", allocs as f64 / kevents);
        m.insert("alloc.bytes_per_kevent", bytes as f64 / kevents);
    }
    // Emission against the *untraced* repetition: the share of `wall_s` a
    // user of this sink pays for it.
    if let Some(emit_s) = m.get("net.obs.emit_s").copied() {
        m.insert("net.obs.emit_share", emit_s / plain_s);
    }
    // How much of the sharded run the barrier could account for, were every
    // executed window to pay one uncontended round.
    if let (Some(round_ns), Some(windows), Some(skipped), Some(wall)) = (
        m.get("net.lanes.barrier_round_ns"),
        m.get("net.shard.windows"),
        m.get("net.shard.skipped_windows"),
        m.get("net.shard.wall_s.sP"),
    ) {
        let est = (windows - skipped) * round_ns / 1e9 / wall;
        m.insert("net.shard.barrier_share_est", est);
    }
    notes.push(format!(
        "traced wall_s median={with_s:.6} (n={}) vs plain {plain_s:.6} (n={}); \
         a callback span includes the Ctx sends it issues",
        with.len(),
        plain.len()
    ));
    for (k, _) in m.iter().filter(|(k, _)| layer_unit(k).is_none()) {
        notes.push(format!("unlisted layer metric {k}"));
    }

    let trace_file = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
    let body = spans::with(|r| r.to_json(&cfg.workload));
    match std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&trace_file, body)) {
        Ok(()) => notes.push(format!("spans written to {}", trace_file.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", trace_file.display())),
    }
    Ok((m, reference))
}
