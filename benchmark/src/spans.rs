//! In-memory wall-clock spans for the traced run.
//!
//! A span is `(name, start, end, parent, rep)`. The recorder keeps a stack of
//! open spans, so nesting — and therefore self time — falls out of the call
//! structure: when a span closes, its duration is added to its own
//! accumulator *and* to the enclosing span's "covered by children" total, so
//! **self time = duration − covered child time** and a grandchild is never
//! subtracted twice.
//!
//! Low-frequency spans (a repetition, `Simulation::new`, a `run_until` chunk,
//! a table function) are all kept as full records. The hot ones (protocol
//! callbacks, algorithm callbacks, sink records — ~10⁷ per repetition) are
//! folded into per-name `(count, total ns, child ns)` accumulators and only
//! every [`HOT_SAMPLE`]-th top-level hot span is kept in full, together with
//! everything nested inside it, so a kept span always has a kept parent.
//!
//! The recorder is thread-local: the adapters in [`crate::adapters`] live
//! inside a `Simulation` and reach it without carrying a handle. Every
//! workload that uses the adapters runs on one thread.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Every `HOT_SAMPLE`-th top-level hot span is kept as a full record.
pub const HOT_SAMPLE: u64 = 1024;

/// Full-span records kept per process before further ones are only counted.
pub const SPAN_CAPACITY: usize = 1 << 18;

macro_rules! names {
    ($($variant:ident => $label:literal, $hot:literal;)*) => {
        /// A span name. Names are this repo's layers, not free-form strings.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Name { $(#[doc = $label] $variant,)* }

        impl Name {
            /// Every name, in declaration order.
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            /// The label written to the trace file.
            pub fn label(self) -> &'static str {
                match self { $(Name::$variant => $label,)* }
            }

            /// Hot spans are sampled; the rest are all kept.
            pub fn hot(self) -> bool {
                match self { $(Name::$variant => $hot,)* }
            }
        }
    };
}

names! {
    Rep => "bench.rep", false;
    SimNew => "net.sim.new", false;
    RunUntil => "net.kernel.run_until", false;
    FinishTrace => "net.obs.finish", false;
    RunScale => "net.shard.run_scale", false;
    OnStart => "net.proto.on_start", false;
    OnMssMsg => "net.proto.on_mss_msg", true;
    OnMhMsg => "net.proto.on_mh_msg", true;
    OnMssBatch => "net.proto.on_mss_batch", true;
    OnTimer => "net.proto.on_timer", true;
    OnMhJoined => "net.proto.on_mh_joined", true;
    OnMhLeft => "net.proto.on_mh_left", true;
    OnMhDisconnected => "net.proto.on_mh_disconnected", true;
    OnMhReconnected => "net.proto.on_mh_reconnected", true;
    OnSearchFailed => "net.proto.on_search_failed", true;
    OnWirelessLost => "net.proto.on_wireless_lost", true;
    OnMssCrashed => "net.proto.on_mss_crashed", true;
    OnMssRecovered => "net.proto.on_mss_recovered", true;
    Algo => "core.algo.callback", true;
    Strategy => "group.strategy.callback", true;
    SinkRecord => "net.obs.record", true;
    E0 => "bench.exp.e0", false;
    E1 => "bench.exp.e1", false;
    E2 => "bench.exp.e2", false;
    E3 => "bench.exp.e3", false;
    E4 => "bench.exp.e4", false;
    E5 => "bench.exp.e5", false;
    E6 => "bench.exp.e6", false;
    E7 => "bench.exp.e7", false;
    E8 => "bench.exp.e8", false;
    E9 => "bench.exp.e9", false;
    E10 => "bench.exp.e10", false;
    E11 => "bench.exp.e11", false;
    E14 => "bench.exp.e14", false;
    SeedSweep => "bench.exp.seed_sweep", false;
}

/// The thirteen protocol-callback span names, in trait order.
pub const CALLBACKS: [Name; 13] = [
    Name::OnStart,
    Name::OnMssMsg,
    Name::OnMhMsg,
    Name::OnMssBatch,
    Name::OnTimer,
    Name::OnMhJoined,
    Name::OnMhLeft,
    Name::OnMhDisconnected,
    Name::OnMhReconnected,
    Name::OnSearchFailed,
    Name::OnWirelessLost,
    Name::OnMssCrashed,
    Name::OnMssRecovered,
];

/// Per-name totals over every span of that name, kept or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Spans closed.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Part of that covered by spans nested directly inside them.
    pub child_ns: u64,
}

impl Acc {
    /// Duration not covered by nested spans.
    pub fn self_ns(&self) -> u64 {
        self.total_ns - self.child_ns
    }

    /// Total duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns() as f64 / 1e9
    }
}

/// One kept span. `parent` indexes [`Recorder::spans`]; `-1` means root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What ran.
    pub name: Name,
    /// Start, ns since the recorder's epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while still open).
    pub end: u64,
    /// The kept span that caused this one.
    pub parent: i32,
    /// Repetition the span belongs to (shared identifier of one unit of work).
    pub rep: u32,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    name: Name,
    start: u64,
    child: u64,
    /// Index into `spans` when this frame is kept.
    kept: i32,
}

/// Span stack, accumulators and the kept-span vector.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    acc: Vec<Acc>,
    spans: Vec<Span>,
    dropped: u64,
    hot_seen: u64,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now. The span vector is pre-sized on
    /// first use so recording never reallocates mid-run.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            acc: vec![Acc::default(); Name::ALL.len()],
            spans: Vec::new(),
            dropped: 0,
            hot_seen: 0,
            rep: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span at `t` ns.
    pub fn enter_at(&mut self, name: Name, t: u64) {
        let parent = self.stack.last().map_or(-1, |f| f.kept);
        let keep = if !name.hot() {
            true
        } else if self.stack.last().is_some_and(|f| f.name.hot()) {
            // Nested inside a hot span: share its fate.
            parent >= 0
        } else {
            self.hot_seen += 1;
            self.hot_seen % HOT_SAMPLE == 1
        };
        let mut kept = -1;
        if keep {
            if self.spans.capacity() == 0 {
                self.spans.reserve_exact(SPAN_CAPACITY);
            }
            if self.spans.len() < SPAN_CAPACITY {
                kept = self.spans.len() as i32;
                self.spans.push(Span {
                    name,
                    start: t,
                    end: 0,
                    parent,
                    rep: self.rep,
                });
            } else {
                self.dropped += 1;
            }
        }
        self.stack.push(Frame {
            name,
            start: t,
            child: 0,
            kept,
        });
    }

    /// Closes the innermost open span at `t` ns. A stray call is ignored.
    pub fn exit_at(&mut self, t: u64) {
        let Some(f) = self.stack.pop() else {
            return;
        };
        let dur = t.saturating_sub(f.start);
        let a = &mut self.acc[f.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.child_ns += f.child;
        if let Some(p) = self.stack.last_mut() {
            p.child += dur;
        }
        if f.kept >= 0 {
            self.spans[f.kept as usize].end = t;
        }
    }

    /// Totals for `name`.
    pub fn acc(&self, name: Name) -> Acc {
        self.acc[name as usize]
    }

    /// A copy of every accumulator, indexed by `Name as usize`; two
    /// snapshots bracket a region and [`delta`] reads what it added.
    pub fn snapshot(&self) -> Vec<Acc> {
        self.acc.clone()
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the trace file: the name table, per-name accumulators and the
    /// kept spans as `[name, start_ns, end_ns, parent, rep]` rows.
    pub fn to_json(&self, workload: &str) -> String {
        let mut j = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(
            j,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"hot_sample\":{HOT_SAMPLE},\
             \"dropped\":{},\"note\":\"a callback span includes the Ctx sends it issues; \
             Ctx cannot be wrapped from outside the crate\",\"names\":[",
            self.dropped
        );
        for (i, n) in Name::ALL.iter().enumerate() {
            let _ = write!(j, "{}\"{}\"", if i > 0 { "," } else { "" }, n.label());
        }
        j.push_str("],\"accumulators\":[");
        let mut first = true;
        for n in Name::ALL {
            let a = self.acc(*n);
            if a.count == 0 {
                continue;
            }
            let _ = write!(
                j,
                "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"child_ns\":{},\"self_ns\":{}}}",
                if first { "" } else { "," },
                n.label(),
                a.count,
                a.total_ns,
                a.child_ns,
                a.self_ns()
            );
            first = false;
        }
        j.push_str("],\"span_fields\":[\"name\",\"start\",\"end\",\"parent\",\"rep\"],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                j,
                "{}[{},{},{},{},{}]",
                if i > 0 { "," } else { "" },
                s.name as u8,
                s.start,
                s.end,
                s.parent,
                s.rep
            );
        }
        j.push_str("]}\n");
        j
    }
}

/// What the region between two [`Recorder::snapshot`]s added under `names`.
pub fn delta(after: &[Acc], before: &[Acc], names: &[Name]) -> Acc {
    names.iter().fold(Acc::default(), |mut s, n| {
        let (a, b) = (after[*n as usize], before[*n as usize]);
        s.count += a.count - b.count;
        s.total_ns += a.total_ns - b.total_ns;
        s.child_ns += a.child_ns - b.child_ns;
        s
    })
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Runs `f` on this thread's recorder.
pub fn with<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    REC.with(|r| f(&mut r.borrow_mut()))
}

/// Opens a span on this thread's recorder, timed now.
#[inline]
pub fn enter(name: Name) {
    with(|r| {
        let t = r.now();
        r.enter_at(name, t);
    });
}

/// Closes the innermost span on this thread's recorder, timed now.
#[inline]
pub fn exit() {
    with(|r| {
        let t = r.now();
        r.exit_at(t);
    });
}

/// Runs `f` inside a span.
#[inline]
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    enter(name);
    let out = f();
    exit();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_and_sibling_self_time() {
        let mut r = Recorder::new();
        // run_until [0, 100]
        //   on_timer [10, 40]
        //     algo [15, 25]
        //       record [18, 20]
        //     record [30, 35]
        //   record [50, 60]
        //   on_mss_msg [70, 90]
        r.enter_at(Name::RunUntil, 0);
        r.enter_at(Name::OnTimer, 10);
        r.enter_at(Name::Algo, 15);
        r.enter_at(Name::SinkRecord, 18);
        r.exit_at(20);
        r.exit_at(25);
        r.enter_at(Name::SinkRecord, 30);
        r.exit_at(35);
        r.exit_at(40);
        r.enter_at(Name::SinkRecord, 50);
        r.exit_at(60);
        r.enter_at(Name::OnMssMsg, 70);
        r.exit_at(90);
        r.exit_at(100);

        let run = r.acc(Name::RunUntil);
        assert_eq!((run.count, run.total_ns), (1, 100));
        // Direct children only: on_timer 30 + record 10 + on_mss_msg 20. The
        // records nested inside on_timer are taken from on_timer, not again
        // from run_until.
        assert_eq!(run.child_ns, 60);
        assert_eq!(run.self_ns(), 40);

        let timer = r.acc(Name::OnTimer);
        assert_eq!(
            (timer.total_ns, timer.child_ns, timer.self_ns()),
            (30, 15, 15)
        );
        let algo = r.acc(Name::Algo);
        assert_eq!((algo.total_ns, algo.child_ns, algo.self_ns()), (10, 2, 8));
        let rec = r.acc(Name::SinkRecord);
        assert_eq!((rec.count, rec.total_ns, rec.child_ns), (3, 17, 0));
        // Self times partition the root exactly.
        let total_self: u64 = Name::ALL.iter().map(|n| r.acc(*n).self_ns()).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn hot_spans_are_sampled_with_their_children() {
        let mut r = Recorder::new();
        r.enter_at(Name::RunUntil, 0);
        let mut t = 1;
        for _ in 0..(2 * HOT_SAMPLE) {
            r.enter_at(Name::OnMssMsg, t);
            r.enter_at(Name::Algo, t + 1);
            r.exit_at(t + 2);
            r.exit_at(t + 3);
            t += 4;
        }
        r.exit_at(t);
        assert_eq!(r.acc(Name::OnMssMsg).count, 2 * HOT_SAMPLE);
        assert_eq!(r.acc(Name::Algo).count, 2 * HOT_SAMPLE);
        // run_until + two sampled callbacks, each with its algorithm child.
        let kept: Vec<Name> = r.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            kept,
            [
                Name::RunUntil,
                Name::OnMssMsg,
                Name::Algo,
                Name::OnMssMsg,
                Name::Algo
            ]
        );
        assert_eq!(r.spans()[1].parent, 0);
        assert_eq!(r.spans()[2].parent, 1);
        assert_eq!(r.spans()[4].parent, 3);
        assert!(r.spans().iter().all(|s| s.end > s.start));
    }

    #[test]
    fn rep_ids_and_json_shape() {
        let mut r = Recorder::new();
        r.set_rep(3);
        r.enter_at(Name::Rep, 5);
        r.exit_at(9);
        r.exit_at(10); // stray exit is ignored
        assert_eq!(r.spans()[0].rep, 3);
        let j = r.to_json("w");
        assert!(j.contains("\"spans\":[[0,5,9,-1,3]]"), "{j}");
        assert!(j.contains(
            "{\"name\":\"bench.rep\",\"count\":1,\"total_ns\":4,\"child_ns\":0,\"self_ns\":4}"
        ));
    }
}
