//! The six workloads. Names are fixed; later issues refer to them.
//!
//! A workload is built once from `--seed` (input generation: every
//! `NetworkConfig` / `ScaleSpec` seed derives from it) and then repeated;
//! each repetition constructs a fresh `Simulation` / `run_scale` on the same
//! inputs, does a *fixed amount of simulated work*, and checks its outputs.
//! Only construction and the run are timed — reduction and checks happen
//! after the clock stops, so in the traced run the `run_until` spans cover
//! the repetition.
//!
//! Why each workload exists is recorded in `BENCHMARK.json` and README.md.

use crate::adapters::{Timed, TimedAlgo, TimedSink, TimedStrategy};
use crate::spans::{self, delta, Acc, Name, CALLBACKS};
use mobidist_bench::parallel::map_indexed_with;
use mobidist_bench::stats::LatencyHist;
use mobidist_bench::table::Table;
use mobidist_bench::{exp_fault, exp_group, exp_model, exp_mutex, exp_proxy};
use mobidist_core::prelude::*;
use mobidist_group::prelude::*;
use mobidist_net::obs::RunMeta;
use mobidist_net::prelude::*;
use mobidist_net::shard::plan_partition;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The workload names, in suite order.
pub const NAMES: [&str; 6] = [
    "serve_lamport",
    "ring_unicast",
    "ring_traced",
    "group_mobile",
    "churn_1m",
    "sweep_tables",
];

/// Full size, or `--quick` (every workload at about 1/20 size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` freezes.
    Full,
    /// About a twentieth of that; used by the package's tests.
    Quick,
}

/// Per-layer `(metric, value)` pairs one repetition contributes.
pub type Layer = Vec<(&'static str, f64)>;

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Host time of construction + run.
    pub wall_s: f64,
    /// Units of work done: logical events (table rows on `sweep_tables`).
    pub work: u64,
    /// Digest of the simulated outputs; equal across repetitions.
    pub digest: u64,
    /// Simulated operations per 1000 ticks.
    pub ops_per_ktick: f64,
    /// Simulated cost units per operation.
    pub cost_per_op: f64,
    /// Correctness checks this repetition missed (empty = correct).
    pub failures: Vec<String>,
    /// Per-layer values (exact counts always; span-derived ones when traced).
    pub layer: Layer,
}

/// One of the six workloads, inputs already generated.
pub trait Workload {
    /// Runs one repetition; `traced` turns the timing adapters and spans on.
    fn rep(&self, traced: bool) -> Outcome;

    /// Traced run only: the workload's extra timed units and cross-checks
    /// (other shard counts, other job counts, cache cold/warm). Returns
    /// per-layer values and any correctness misses.
    fn extras(&self, _reference: &Outcome) -> (Layer, Vec<String>) {
        (Vec::new(), Vec::new())
    }

    /// Whether [`Outcome::work`] counts logical events (it counts table rows
    /// on `sweep_tables`, where per-event figures would mean nothing).
    fn work_is_events(&self) -> bool {
        true
    }
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    let quick = size == Size::Quick;
    Some(match name {
        "serve_lamport" => Box::new(ServeLamport::new(seed, quick)),
        "ring_unicast" => Box::new(Ring::new(seed, quick, false)),
        "ring_traced" => Box::new(Ring::new(seed, quick, true)),
        "group_mobile" => Box::new(GroupMobile::new(seed, quick)),
        "churn_1m" => Box::new(Churn::new(seed, quick)),
        "sweep_tables" => Box::new(Sweep::new(seed, quick)),
        _ => return None,
    })
}

/// A per-purpose seed derived from the run's `--seed`.
fn sub_seed(seed: u64, lane: u64) -> u64 {
    SimRng::seed_from(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// FNV-1a, 64 bit: the digest every workload reduces its outputs to.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for x in b {
            self.0 = (self.0 ^ *x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn ledger(&mut self, l: &CostLedger) {
        for w in [
            l.fixed_msgs,
            l.wireless_msgs,
            l.searches,
            l.re_searches,
            l.search_failures,
            l.total_cost(),
            l.total_energy(),
            l.moves,
            l.handoffs,
            l.wireless_losses,
        ] {
            self.word(w);
        }
        for (k, v) in &l.custom {
            self.bytes(k.as_bytes());
            self.word(*v);
        }
    }
}

// ----- kernel workloads: shared pieces --------------------------------------

/// Ticks per `run_until` chunk. Chunk boundaries are fixed, so where a run
/// stops is a function of the configuration alone.
const CHUNK: u64 = 100_000;

/// Ceiling on simulated time for the fixed-work serving runs; a run that
/// cannot finish by here fails its completion check instead of spinning.
const HORIZON: u64 = 2_000_000_000;

fn run_chunk<P: Protocol>(sim: &mut Simulation<P>, until: u64, traced: bool) {
    let until = SimTime::from_ticks(until);
    if traced {
        spans::span(Name::RunUntil, || sim.run_until(until));
    } else {
        sim.run_until(until);
    }
}

/// Exact counts [`Timed`] collected over one simulation.
#[derive(Debug, Clone, Copy, Default)]
struct Dispatch {
    callbacks: u64,
    batch_callbacks: u64,
    batch_events: u64,
}

impl Dispatch {
    fn of<P>(t: &Timed<P>) -> Self {
        Dispatch {
            callbacks: t.callbacks,
            batch_callbacks: t.batch_callbacks,
            batch_events: t.batch_events,
        }
    }

    fn add(self, o: Dispatch) -> Dispatch {
        Dispatch {
            callbacks: self.callbacks + o.callbacks,
            batch_callbacks: self.batch_callbacks + o.batch_callbacks,
            batch_events: self.batch_events + o.batch_events,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Span-derived and exact per-layer values of one traced kernel repetition,
/// from the accumulator snapshots bracketing it.
fn kernel_layer(before: &[Acc], after: &[Acc], events: u64, wall_s: f64, d: Dispatch) -> Layer {
    let run = delta(after, before, &[Name::RunUntil]);
    let cb = delta(after, before, &CALLBACKS);
    let one = |n: Name| delta(after, before, &[n]).total_s();
    let new = delta(after, before, &[Name::SimNew]);
    // A batch callback stands for `len` events; the rest are one each, so
    // events per callback says how much dispatch the batching saved.
    vec![
        ("net.kernel.run_s", run.total_s()),
        ("net.kernel.self_s", run.self_s()),
        (
            "net.kernel.self_ns_per_event",
            ratio(run.self_ns() as f64, events as f64),
        ),
        ("net.kernel.run_share", ratio(run.total_s(), wall_s)),
        ("net.kernel.events", events as f64),
        ("net.kernel.callbacks", d.callbacks as f64),
        (
            "net.kernel.events_per_callback",
            ratio(events as f64, d.callbacks as f64),
        ),
        ("net.kernel.batch_callbacks", d.batch_callbacks as f64),
        (
            "net.kernel.batch_mean_len",
            ratio(d.batch_events as f64, d.batch_callbacks as f64),
        ),
        (
            "net.kernel.batched_event_share",
            ratio(d.batch_events as f64, events as f64),
        ),
        ("net.proto.callback_s", cb.total_s()),
        ("net.proto.on_mss_msg_s", one(Name::OnMssMsg)),
        ("net.proto.on_mss_batch_s", one(Name::OnMssBatch)),
        ("net.proto.on_mh_msg_s", one(Name::OnMhMsg)),
        ("net.proto.on_timer_s", one(Name::OnTimer)),
        ("net.proto.on_mh_joined_s", one(Name::OnMhJoined)),
        ("net.proto.on_mh_left_s", one(Name::OnMhLeft)),
        (
            "net.sim.new_us",
            ratio(new.total_ns as f64 / 1e3, new.count as f64),
        ),
    ]
}

fn ledger_layer(l: &CostLedger) -> Layer {
    vec![
        ("net.ledger.fixed_msgs", l.fixed_msgs as f64),
        ("net.ledger.wireless_msgs", l.wireless_msgs as f64),
        ("net.ledger.total_cost", l.total_cost() as f64),
        ("net.ledger.searches", l.searches as f64),
    ]
}

// ----- mutual-exclusion serving runs ----------------------------------------

/// A writer that discards its input and counts the bytes, so JSONL encoding
/// is measured and the disk is not.
#[derive(Debug, Clone, Default)]
pub struct CountingDiscard(Arc<AtomicU64>);

impl Write for CountingDiscard {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Relaxed: a statistic read after the run, on the same thread.
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

type Jsonl = JsonlSink<CountingDiscard>;

/// What the installed sink saw, for the `ledger = trace` check.
#[derive(Debug, Clone, Copy, Default)]
struct SinkSeen {
    records: u64,
    fixed_msgs: u64,
    wireless_msgs: u64,
    written: u64,
    bytes: u64,
}

#[derive(Debug, Clone)]
struct MutexSpec {
    label: &'static str,
    cfg: NetworkConfig,
    wl: WorkloadConfig,
    jsonl: bool,
}

impl MutexSpec {
    fn target(&self) -> u64 {
        (self.wl.requesters.len() * self.wl.requests_per_mh) as u64
    }
}

/// One fixed-work serving run, reduced.
#[derive(Debug, Clone, Default)]
struct MutexOut {
    wall_s: f64,
    events: u64,
    completed: u64,
    makespan: u64,
    p99: u64,
    p99_log2: u64,
    ledger: CostLedger,
    dispatch: Dispatch,
    sink: Option<SinkSeen>,
    digest: u64,
    failures: Vec<String>,
}

impl MutexOut {
    fn cs_per_ktick(&self) -> f64 {
        ratio(self.completed as f64 * 1000.0, self.makespan as f64)
    }

    fn wireless_per_cs(&self) -> f64 {
        ratio(self.ledger.wireless_msgs as f64, self.completed as f64)
    }

    fn cost_per_cs(&self) -> f64 {
        ratio(self.ledger.total_cost() as f64, self.completed as f64)
    }
}

fn drive_mutex<P: Protocol>(
    sim: &mut Simulation<P>,
    target: u64,
    checker: impl Fn(&P) -> &SafetyChecker,
    traced: bool,
) {
    // Completion is polled on the episode list, not `MutexHarness::report()`:
    // `report()` recomputes a percentile over every episode, which at this
    // size costs more than the simulation (see `core.harness.report_us`).
    let mut t = CHUNK;
    loop {
        run_chunk(sim, t, traced);
        let c = checker(sim.protocol());
        let done = c.episodes().len() as u64 >= target && c.holder().is_none();
        if done || t >= HORIZON {
            return;
        }
        t += CHUNK;
    }
}

fn reduce_mutex(
    spec: &MutexSpec,
    wall_s: f64,
    events: u64,
    checker: &SafetyChecker,
    ledger: &CostLedger,
) -> MutexOut {
    let mut hist = LatencyHist::new();
    let mut makespan = 0u64;
    let mut completed = 0u64;
    let mut h = Fnv::default();
    for ep in checker.episodes() {
        hist.record(ep.wait());
        h.word(ep.mh.0 as u64);
        h.word(ep.granted_at.ticks());
        if let Some(rel) = ep.released_at {
            completed += 1;
            makespan = makespan.max(rel.ticks());
        }
    }
    h.word(events);
    h.ledger(ledger);

    let mut failures = Vec::new();
    let label = spec.label;
    if checker.safety_violations() != 0 {
        failures.push(format!("{label}: mutual exclusion violated"));
    }
    if checker.order_violations() != 0 {
        failures.push(format!("{label}: grant order regressed"));
    }
    if completed != spec.target() {
        failures.push(format!(
            "{label}: completed {completed} of {} entries",
            spec.target()
        ));
    }
    MutexOut {
        wall_s,
        events,
        completed,
        makespan,
        p99: checker.wait_percentile(0.99),
        p99_log2: hist.percentile(0.99),
        ledger: ledger.clone(),
        digest: h.0,
        failures,
        ..MutexOut::default()
    }
}

fn jsonl_sink(spec: &MutexSpec, bytes: &CountingDiscard) -> Jsonl {
    JsonlSink::new(bytes.clone(), RunMeta::new(0, spec.label, &spec.cfg))
        .expect("a discarding writer cannot fail")
}

fn sink_seen(sink: Option<Box<dyn TraceSink>>, bytes: &CountingDiscard) -> Option<SinkSeen> {
    let sink = sink?;
    let s = sink.as_any().downcast_ref::<TimedSink<Jsonl>>()?;
    Some(SinkSeen {
        records: s.records,
        fixed_msgs: s.fixed_msgs,
        wireless_msgs: s.wireless_msgs,
        written: s.inner().events_written(),
        bytes: bytes.0.load(Ordering::Relaxed),
    })
}

/// Constructs, runs to completion and reduces one serving run of `make()`.
fn mutex_rep<A: MutexAlgorithm>(spec: &MutexSpec, make: impl Fn() -> A, traced: bool) -> MutexOut {
    let target = spec.target();
    let bytes = CountingDiscard::default();
    let t0 = Instant::now();
    let mut out = if traced {
        spans::enter(Name::Rep);
        let mut sim = spans::span(Name::SimNew, || {
            let proto = Timed::new(MutexHarness::new(TimedAlgo(make()), spec.wl.clone()));
            Simulation::new(spec.cfg.clone(), proto)
        });
        if spec.jsonl {
            sim.set_trace_sink(Box::new(TimedSink::timed(jsonl_sink(spec, &bytes))));
        }
        drive_mutex(&mut sim, target, |p| p.inner().checker(), true);
        let sink = spans::span(Name::FinishTrace, || sim.finish_trace());
        spans::exit();
        let wall_s = t0.elapsed().as_secs_f64();
        let p = sim.protocol();
        let mut out = reduce_mutex(
            spec,
            wall_s,
            sim.kernel().events_processed(),
            p.inner().checker(),
            sim.ledger(),
        );
        out.dispatch = Dispatch::of(p);
        out.sink = sink_seen(sink, &bytes);
        out
    } else {
        let mut sim = Simulation::new(spec.cfg.clone(), MutexHarness::new(make(), spec.wl.clone()));
        if spec.jsonl {
            sim.set_trace_sink(Box::new(TimedSink::counting(jsonl_sink(spec, &bytes))));
        }
        drive_mutex(&mut sim, target, |p| p.checker(), false);
        let sink = sim.finish_trace();
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = reduce_mutex(
            spec,
            wall_s,
            sim.kernel().events_processed(),
            sim.protocol().checker(),
            sim.ledger(),
        );
        out.sink = sink_seen(sink, &bytes);
        out
    };
    if spec.jsonl {
        // Ledger = trace: the charged messages the sink saw are the ledger's.
        match out.sink {
            None => out.failures.push(format!("{}: sink was lost", spec.label)),
            Some(s) => {
                if (s.fixed_msgs, s.wireless_msgs)
                    != (out.ledger.fixed_msgs, out.ledger.wireless_msgs)
                {
                    out.failures.push(format!(
                        "{}: trace saw {}/{} fixed/wireless msgs, ledger has {}/{}",
                        spec.label,
                        s.fixed_msgs,
                        s.wireless_msgs,
                        out.ledger.fixed_msgs,
                        out.ledger.wireless_msgs
                    ));
                }
                if s.written != s.records {
                    out.failures.push(format!(
                        "{}: sink wrote {} events but observed {}",
                        spec.label, s.written, s.records
                    ));
                }
            }
        }
    }
    out
}

fn mutex_layer(o: &MutexOut) -> Layer {
    let mut l = ledger_layer(&o.ledger);
    l.extend([
        ("core.mutex.wait_p99_ticks", o.p99 as f64),
        ("core.mutex.wait_p99_log2_ticks", o.p99_log2 as f64),
        ("core.mutex.wireless_per_cs", o.wireless_per_cs()),
    ]);
    l
}

/// Broadcast-burst traffic: L2 then L2C on 16 MSSs / 1024 MHs.
#[derive(Debug)]
struct ServeLamport {
    l2: MutexSpec,
    l2c: MutexSpec,
}

impl ServeLamport {
    fn new(seed: u64, quick: bool) -> Self {
        let (r2, rc) = if quick { (5, 26) } else { (96, 512) };
        let spec = |label, lane, r| MutexSpec {
            label,
            cfg: NetworkConfig::new(16, 1024).with_seed(sub_seed(seed, lane)),
            wl: WorkloadConfig::all_mhs(1024, r)
                .with_think(1000)
                .with_hold(10),
            jsonl: false,
        };
        ServeLamport {
            l2: spec("l2", 1, r2),
            l2c: spec("l2c", 2, rc),
        }
    }
}

impl Workload for ServeLamport {
    fn rep(&self, traced: bool) -> Outcome {
        let s0 = spans::with(|r| r.snapshot());
        let a = mutex_rep(&self.l2, || L2::new(16), traced);
        let s1 = spans::with(|r| r.snapshot());
        let b = mutex_rep(&self.l2c, || L2c::new(16), traced);
        let s2 = spans::with(|r| r.snapshot());

        let wall_s = a.wall_s + b.wall_s;
        let events = a.events + b.events;
        let mut h = Fnv::default();
        h.word(a.digest);
        h.word(b.digest);
        // The L2C leg supplies the end-to-end simulated numbers; the L2
        // leg's are per-layer, so each name has one value per workload.
        let mut layer = mutex_layer(&b);
        layer.extend([
            ("core.l2.cs_per_ktick", a.cs_per_ktick()),
            ("core.l2.wireless_per_cs", a.wireless_per_cs()),
            (
                "core.l2c.mean_batch",
                ratio(
                    b.completed as f64,
                    b.ledger.custom("combine_batches") as f64,
                ),
            ),
        ]);
        if traced {
            layer.extend(kernel_layer(
                &s0,
                &s2,
                events,
                wall_s,
                a.dispatch.add(b.dispatch),
            ));
            let cb = delta(&s2, &s0, &CALLBACKS);
            layer.extend([
                ("core.harness.self_s", cb.self_s()),
                (
                    "core.l2.callback_s",
                    delta(&s1, &s0, &[Name::Algo]).total_s(),
                ),
                (
                    "core.l2c.callback_s",
                    delta(&s2, &s1, &[Name::Algo]).total_s(),
                ),
            ]);
        }
        let mut failures = a.failures;
        failures.extend(b.failures.iter().cloned());
        Outcome {
            wall_s,
            work: events,
            digest: h.0,
            ops_per_ktick: b.cs_per_ktick(),
            cost_per_op: b.cost_per_cs(),
            failures,
            layer,
        }
    }
}

/// Pure unicast: the R2 token ring on 8 MSSs / 256 MHs; `ring_traced` is the
/// same network with a JSONL sink installed.
#[derive(Debug)]
struct Ring {
    spec: MutexSpec,
}

impl Ring {
    fn new(seed: u64, quick: bool, jsonl: bool) -> Self {
        let r = match (jsonl, quick) {
            (false, false) => 4000,
            (false, true) => 200,
            (true, false) => 1500,
            (true, true) => 75,
        };
        Ring {
            spec: Self::spec(seed, r, jsonl),
        }
    }

    fn spec(seed: u64, requests_per_mh: usize, jsonl: bool) -> MutexSpec {
        MutexSpec {
            label: if jsonl { "ring_traced" } else { "ring_unicast" },
            // Both ring workloads share one seed lane: same network, same
            // request stream, only the sink differs.
            cfg: NetworkConfig::new(8, 256).with_seed(sub_seed(seed, 3)),
            wl: WorkloadConfig::all_mhs(256, requests_per_mh)
                .with_think(200)
                .with_hold(10),
            jsonl,
        }
    }
}

impl Workload for Ring {
    fn rep(&self, traced: bool) -> Outcome {
        let s0 = spans::with(|r| r.snapshot());
        let o = mutex_rep(&self.spec, || R2::new(8, RingGuard::Plain), traced);
        let s1 = spans::with(|r| r.snapshot());
        let mut layer = mutex_layer(&o);
        if let Some(s) = o.sink {
            layer.extend([
                ("net.obs.events", s.records as f64),
                ("net.obs.bytes", s.bytes as f64),
            ]);
        }
        if traced {
            layer.extend(kernel_layer(&s0, &s1, o.events, o.wall_s, o.dispatch));
            let cb = delta(&s1, &s0, &CALLBACKS);
            let emit = delta(&s1, &s0, &[Name::SinkRecord]);
            layer.extend([
                ("core.harness.self_s", cb.self_s()),
                (
                    "core.r2.callback_s",
                    delta(&s1, &s0, &[Name::Algo]).total_s(),
                ),
                ("net.obs.emit_s", emit.total_s()),
                (
                    "net.obs.emit_ns_per_event",
                    ratio(emit.total_ns as f64, emit.count as f64),
                ),
            ]);
        }
        Outcome {
            wall_s: o.wall_s,
            work: o.events,
            digest: o.digest,
            ops_per_ktick: o.cs_per_ktick(),
            cost_per_op: o.cost_per_cs(),
            failures: o.failures,
            layer,
        }
    }

    fn extras(&self, reference: &Outcome) -> (Layer, Vec<String>) {
        if !self.spec.jsonl {
            return (Vec::new(), Vec::new());
        }
        // What tracing costs: this workload's wall over the same run with no
        // sink installed (two untraced repetitions each way would double the
        // traced run's length; one pair, taken back to back, is reported).
        let plain = MutexSpec {
            jsonl: false,
            ..self.spec.clone()
        };
        let bare = mutex_rep(&plain, || R2::new(8, RingGuard::Plain), false);
        let with = mutex_rep(&self.spec, || R2::new(8, RingGuard::Plain), false);
        let mut failures = Vec::new();
        if bare.digest != with.digest || with.digest != reference.digest {
            failures.push("ring_traced: installing a sink changed the simulation".into());
        }
        (
            vec![("net.obs.trace_cost_ratio", ratio(with.wall_s, bare.wall_s))],
            failures,
        )
    }
}

// ----- group_mobile ---------------------------------------------------------

/// Location-view group messaging under constant mobility.
#[derive(Debug)]
struct GroupMobile {
    cfg: NetworkConfig,
    members: Vec<MhId>,
    wl: GroupWorkload,
    horizon: u64,
}

impl GroupMobile {
    fn new(seed: u64, quick: bool) -> Self {
        let horizon = if quick { 300_000 } else { 6_000_000 };
        let members: Vec<MhId> = (0..120u32).map(MhId).collect();
        GroupMobile {
            cfg: NetworkConfig::new(8, 160)
                .with_seed(sub_seed(seed, 4))
                .with_mobility(MobilityConfig::moving(400)),
            // One group message per 1000 ticks on average, so sends keep
            // arriving while members move for the whole horizon.
            wl: GroupWorkload::new(members.clone(), (horizon / 1000) as usize, 1000),
            members,
            horizon,
        }
    }

    fn drive<P: Protocol>(&self, sim: &mut Simulation<P>, traced: bool) {
        let mut t = 0;
        while t < self.horizon {
            t = (t + CHUNK).min(self.horizon);
            run_chunk(sim, t, traced);
        }
    }

    fn reduce(
        &self,
        wall_s: f64,
        events: u64,
        report: &GroupReport,
        ledger: &CostLedger,
    ) -> Outcome {
        let mut h = Fnv::default();
        h.word(events);
        for w in [
            report.sent,
            report.member_moves,
            report.expected,
            report.delivered,
            report.missed,
            report.duplicates,
        ] {
            h.word(w);
        }
        h.ledger(ledger);
        let mut failures = Vec::new();
        if report.delivered == 0 {
            failures.push("group_mobile: nothing was delivered".into());
        }
        let mut layer = ledger_layer(ledger);
        layer.push((
            "group.location_view.updates",
            ledger.custom("lv_update_msgs") as f64,
        ));
        Outcome {
            wall_s,
            work: events,
            digest: h.0,
            ops_per_ktick: ratio(report.delivered as f64 * 1000.0, self.horizon as f64),
            cost_per_op: ratio(ledger.total_cost() as f64, report.delivered as f64),
            failures,
            layer,
        }
    }
}

impl Workload for GroupMobile {
    fn rep(&self, traced: bool) -> Outcome {
        let view = || LocationView::new(self.members.clone(), MssId(0));
        let t0 = Instant::now();
        if !traced {
            let mut sim =
                Simulation::new(self.cfg.clone(), GroupHarness::new(view(), self.wl.clone()));
            self.drive(&mut sim, false);
            let wall_s = t0.elapsed().as_secs_f64();
            return self.reduce(
                wall_s,
                sim.kernel().events_processed(),
                &sim.protocol().report(),
                sim.ledger(),
            );
        }
        let s0 = spans::with(|r| r.snapshot());
        spans::enter(Name::Rep);
        let mut sim = spans::span(Name::SimNew, || {
            let proto = Timed::new(GroupHarness::new(TimedStrategy(view()), self.wl.clone()));
            Simulation::new(self.cfg.clone(), proto)
        });
        self.drive(&mut sim, true);
        spans::exit();
        let wall_s = t0.elapsed().as_secs_f64();
        let s1 = spans::with(|r| r.snapshot());
        let events = sim.kernel().events_processed();
        let p = sim.protocol();
        let mut out = self.reduce(wall_s, events, &p.inner().report(), sim.ledger());
        out.layer
            .extend(kernel_layer(&s0, &s1, events, wall_s, Dispatch::of(p)));
        out.layer.extend([
            ("group.harness.self_s", delta(&s1, &s0, &CALLBACKS).self_s()),
            (
                "group.location_view.callback_s",
                delta(&s1, &s0, &[Name::Strategy]).total_s(),
            ),
        ]);
        out
    }
}

// ----- churn_1m -------------------------------------------------------------

/// The sharded kernel: a million hosts of mobility churn across 1024 cells.
#[derive(Debug)]
struct Churn {
    spec: ScaleSpec,
    shards: usize,
    sparse: ScaleSpec,
}

impl Churn {
    fn new(seed: u64, quick: bool) -> Self {
        let (hosts, cells) = if quick {
            (50_000, 256)
        } else {
            (1_000_000, 1024)
        };
        Churn {
            spec: ScaleSpec::new(cells, hosts).with_seed(sub_seed(seed, 5)),
            shards: crate::sys::threads().min(2),
            // Few hosts, long dwell, long horizon: most windows are empty, so
            // the run is dominated by fast-forward rather than by events.
            sparse: ScaleSpec::new(1024, 10_000)
                .with_seed(sub_seed(seed, 6))
                .with_churn(500_000, 20)
                .with_horizon(if quick { 200_000 } else { 2_000_000 }),
        }
    }

    fn reduce(&self, wall_s: f64, r: &ScaleReport) -> Outcome {
        let predicted = self.spec.predicted_moves();
        let mut failures = Vec::new();
        // E12's model-fidelity envelope.
        if r.ledger.moves * 10 < predicted * 7 || r.ledger.moves * 10 > predicted * 13 {
            failures.push(format!(
                "churn_1m: {} moves is outside 70-130% of the predicted {predicted}",
                r.ledger.moves
            ));
        }
        let mut layer = ledger_layer(&r.ledger);
        layer.extend([
            ("net.shard.windows", r.windows as f64),
            ("net.shard.skipped_windows", r.skipped_windows as f64),
            (
                "net.shard.events_per_window",
                ratio(r.events as f64, (r.windows - r.skipped_windows) as f64),
            ),
            (
                "net.shard.bytes_per_host",
                ratio(r.state_bytes as f64, self.spec.num_mh as f64),
            ),
        ]);
        Outcome {
            wall_s,
            work: r.events,
            digest: r.digest.hi ^ r.digest.lo.rotate_left(1),
            ops_per_ktick: ratio(r.ledger.moves as f64 * 1000.0, self.spec.horizon as f64),
            cost_per_op: ratio(r.ledger.total_cost() as f64, r.ledger.moves as f64),
            failures,
            layer,
        }
    }
}

impl Workload for Churn {
    fn rep(&self, traced: bool) -> Outcome {
        let t0 = Instant::now();
        let r = if traced {
            spans::enter(Name::Rep);
            let r = spans::span(Name::RunScale, || run_scale(&self.spec, self.shards));
            spans::exit();
            r
        } else {
            run_scale(&self.spec, self.shards)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = self.reduce(wall_s, &r);
        if traced {
            out.layer.push(("net.shard.wall_s.sP", wall_s));
        }
        out
    }

    fn extras(&self, reference: &Outcome) -> (Layer, Vec<String>) {
        let mut failures = Vec::new();
        let t0 = Instant::now();
        let one = run_scale(&self.spec, 1);
        let s1 = t0.elapsed().as_secs_f64();
        if self.reduce(s1, &one).digest != reference.digest {
            failures.push(format!(
                "churn_1m: digest differs between 1 and {} shards",
                self.shards
            ));
        }
        let t0 = Instant::now();
        let plan = plan_partition(&self.spec, self.shards);
        let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(plan);
        let t0 = Instant::now();
        let sparse = run_scale(&self.sparse, self.shards);
        let sparse_s = t0.elapsed().as_secs_f64();
        (
            vec![
                ("net.shard.wall_s.s1", s1),
                ("net.shard.speedup", ratio(s1, reference.wall_s)),
                ("net.shard.plan_ms", plan_ms),
                ("net.shard.sparse_wall_s", sparse_s),
                (
                    "net.shard.sparse_skipped_share",
                    ratio(sparse.skipped_windows as f64, sparse.windows as f64),
                ),
            ],
            failures,
        )
    }
}

// ----- sweep_tables ---------------------------------------------------------

type TableFn = fn(bool) -> Table;

/// Every table function of `experiments` except E12/E13 (`churn_1m` and the
/// two serving workloads cover those engines at benchmark length).
const TABLES: [(&str, Name, TableFn); 13] = [
    ("bench.exp.e0_s", Name::E0, |_| exp_model::run()),
    ("bench.exp.e1_s", Name::E1, exp_mutex::e1_lamport),
    ("bench.exp.e2_s", Name::E2, exp_mutex::e2_ring),
    ("bench.exp.e3_s", Name::E3, exp_mutex::e3_energy),
    ("bench.exp.e4_s", Name::E4, exp_mutex::e4_search_ratio),
    ("bench.exp.e5_s", Name::E5, exp_group::e5_group_strategies),
    ("bench.exp.e6_s", Name::E6, exp_group::e6_locality),
    ("bench.exp.e7_s", Name::E7, exp_mutex::e7_disconnection),
    ("bench.exp.e8_s", Name::E8, exp_mutex::e8_doze),
    ("bench.exp.e9_s", Name::E9, exp_mutex::e9_fairness),
    ("bench.exp.e10_s", Name::E10, exp_proxy::e10_proxy),
    ("bench.exp.e11_s", Name::E11, exp_group::e11_exactly_once),
    ("bench.exp.e14_s", Name::E14, exp_fault::e14_fault),
];

/// Simulations in the seeded part of `sweep_tables`.
const SEED_SWEEP_RUNS: u64 = 32;

/// The batch users of `experiments` wait for: several hundred short
/// simulations through the sweep fan-out, pools and the cache wrapper.
#[derive(Debug)]
struct Sweep {
    /// Root of the seeded L2 sweep's seeds. The table functions fix their
    /// own simulation seeds, so this sweep — the same `map_indexed_with` +
    /// `SimPool` + `cached()` path, over `--seed`-derived seeds — is the part
    /// of the workload whose inputs the seed generates.
    seed: u64,
    quick: bool,
}

/// Mean of the numeric cells of column `header` in the table whose title
/// starts with `title`.
fn column_mean(tables: &[Table], title: &str, header: &str) -> Option<f64> {
    let t = tables.iter().find(|t| t.title.starts_with(title))?;
    let col = t.headers.iter().position(|h| h == header)?;
    let cells: Vec<f64> = t
        .rows
        .iter()
        .filter_map(|r| r[col].trim().parse().ok())
        .collect();
    (!cells.is_empty()).then(|| cells.iter().sum::<f64>() / cells.len() as f64)
}

impl Sweep {
    fn new(seed: u64, quick: bool) -> Self {
        Sweep {
            seed: sub_seed(seed, 7),
            quick,
        }
    }

    /// `SEED_SWEEP_RUNS` mobile L2 cells fanned out like a multi-seed
    /// experiment column; returns a digest of their outcomes, in seed order.
    fn seed_sweep(&self) -> u64 {
        let seeds: Vec<u64> = (0..SEED_SWEEP_RUNS)
            .map(|i| self.seed.wrapping_add(i))
            .collect();
        let runs = map_indexed_with(
            seeds,
            crate::sys::threads(),
            exp_mutex::L2Pool::new,
            |pool, _, seed| {
                let cfg = NetworkConfig::new(8, 24)
                    .with_seed(seed)
                    .with_mobility(MobilityConfig::moving(2000));
                exp_mutex::run_l2_in(pool, cfg, 2, 250_000)
            },
        );
        let mut h = Fnv::default();
        for r in &runs {
            h.word(r.report.completed);
            h.word(r.report.mean_wait.to_bits());
            h.ledger(&r.ledger);
        }
        h.0
    }

    /// One pass: every table, then the seeded sweep; `traced` records a span
    /// per table function.
    fn pass(&self, traced: bool) -> Outcome {
        let s0 = spans::with(|r| r.snapshot());
        let mut tables = Vec::with_capacity(TABLES.len());
        let t0 = Instant::now();
        if traced {
            spans::enter(Name::Rep);
        }
        for (_, name, f) in TABLES {
            tables.push(if traced {
                spans::span(name, || f(self.quick))
            } else {
                f(self.quick)
            });
        }
        let seeded = if traced {
            spans::span(Name::SeedSweep, || self.seed_sweep())
        } else {
            self.seed_sweep()
        };
        if traced {
            spans::exit();
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let s1 = spans::with(|r| r.snapshot());

        let mut h = Fnv::default();
        h.word(seeded);
        let mut rows = 0u64;
        for t in &tables {
            h.bytes(t.to_string().as_bytes());
            rows += t.rows.len() as u64;
        }
        let mut failures = Vec::new();
        // The simulated figures a reader of the tables takes away: E14's
        // serving throughput across the robustness grid and E1's cost of one
        // L2 critical section.
        let mut cell = |title, header| {
            column_mean(&tables, title, header).unwrap_or_else(|| {
                failures.push(format!("sweep_tables: no '{header}' column in {title}"));
                0.0
            })
        };
        let ops_per_ktick = cell("E14", "thr/ktick");
        let cost_per_op = cell("E1 ", "L2 measured");
        let mut layer = Layer::new();
        if traced {
            let mut sum = 0.0;
            for (metric, name, _) in TABLES {
                let s = delta(&s1, &s0, &[name]).total_s();
                sum += s;
                layer.push((metric, s));
            }
            let seeded = delta(&s1, &s0, &[Name::SeedSweep]).total_s();
            layer.push(("bench.exp.seed_sweep_s", seeded));
            layer.push(("bench.exp.span_share", ratio(sum + seeded, wall_s)));
        }
        Outcome {
            wall_s,
            work: rows,
            digest: h.0,
            ops_per_ktick,
            cost_per_op,
            failures,
            layer,
        }
    }
}

/// Runs `f` with `MOBIDIST_JOBS` set to `jobs`, restoring the old value.
/// Only called between passes, when no sweep worker thread is alive.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let old = std::env::var_os("MOBIDIST_JOBS");
    std::env::set_var("MOBIDIST_JOBS", jobs.to_string());
    let out = f();
    match old {
        Some(v) => std::env::set_var("MOBIDIST_JOBS", v),
        None => std::env::remove_var("MOBIDIST_JOBS"),
    }
    out
}

impl Workload for Sweep {
    fn rep(&self, traced: bool) -> Outcome {
        // The table functions take no jobs argument; they read MOBIDIST_JOBS.
        with_jobs(crate::sys::threads(), || self.pass(traced))
    }

    fn work_is_events(&self) -> bool {
        false
    }

    fn extras(&self, reference: &Outcome) -> (Layer, Vec<String>) {
        let mut failures = Vec::new();
        let p = crate::sys::threads();
        let seq = with_jobs(1, || self.pass(false));
        let par = with_jobs(p, || self.pass(false));
        if seq.digest != par.digest || par.digest != reference.digest {
            failures.push(format!(
                "sweep_tables: table text differs between jobs=1 and jobs={p}"
            ));
        }
        // One unit against an empty, then a warm, run-cache directory.
        let dir = crate::sys::bench_dir()
            .join("out")
            .join(format!("tmp-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut cold, mut warm) = (Outcome::default(), Outcome::default());
        if std::fs::create_dir_all(&dir).is_ok() {
            std::env::set_var(mobidist_runcache::CACHE_ENV, &dir);
            mobidist_runcache::store::global().clear_memory();
            cold = with_jobs(p, || self.pass(false));
            warm = with_jobs(p, || self.pass(false));
            std::env::remove_var(mobidist_runcache::CACHE_ENV);
            mobidist_runcache::store::global().clear_memory();
            let _ = std::fs::remove_dir_all(&dir);
            if cold.digest != reference.digest || warm.digest != reference.digest {
                failures.push("sweep_tables: the run cache changed the table text".into());
            }
        } else {
            failures.push(format!("sweep_tables: cannot create {}", dir.display()));
        }
        (
            vec![
                ("bench.parallel.speedup", ratio(seq.wall_s, par.wall_s)),
                ("bench.cache.cold_s", cold.wall_s),
                ("bench.cache.warm_s", warm.wall_s),
            ],
            failures,
        )
    }
}
