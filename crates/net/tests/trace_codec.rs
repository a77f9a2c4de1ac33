//! The JSONL trace codec against its checked-in oracle.
//!
//! `data/trace_v1.jsonl` was written by the `write!`-based encoder that
//! schema v1 shipped with, before the codec was rebuilt without `core::fmt`.
//! The bytes on disk are the contract: the encoder must reproduce the file
//! exactly, `parse_line` must read every line of it back to the value that
//! produced it, and in steady state neither direction may touch the
//! allocator for an event line.

use mobidist_net::ledger::CostLedger;
use mobidist_net::obs::{
    parse_line, JsonlSink, Line, RunMeta, RunSummary, TraceEvent, TraceSink, SCHEMA,
};
use mobidist_net::prelude::*;
use mobidist_net::rng::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};

const GOLDEN: &str = include_str!("data/trace_v1.jsonl");

/// Counts the allocations and reallocations made by a thread while it is
/// inside [`allocations_during`]. Per thread, because the test harness starts
/// its other test threads (which allocate) whenever it pleases.
struct CountingAlloc;

thread_local! {
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    COUNTED.with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    COUNTED.with(|c| c.set(Some(0)));
    f();
    COUNTED
        .with(|c| c.take())
        .expect("counting was switched on above")
}

/// One event per `TraceEvent` variant, with both shapes of every optional
/// field and ids/counters from one digit up to the type's maximum.
fn events() -> Vec<TraceEvent> {
    let (a, b, big) = (MssId(0), MssId(17), MssId(u32::MAX));
    let (h, far) = (MhId(9), MhId(1_000_000));
    vec![
        TraceEvent::FixedSend { from: a, to: b },
        TraceEvent::FixedRecv { at: b, from: a },
        TraceEvent::UpSend { mh: h, mss: b },
        TraceEvent::UpRecv { mss: b, mh: h },
        TraceEvent::DownSend { mss: big, mh: far },
        TraceEvent::DownRecv { mh: far, mss: big },
        TraceEvent::CellBroadcast {
            mss: b,
            listeners: 100,
        },
        TraceEvent::DownLost { mss: a, mh: h },
        TraceEvent::Search {
            target: far,
            re: false,
        },
        TraceEvent::Search {
            target: h,
            re: true,
        },
        TraceEvent::SearchFail {
            origin: b,
            target: h,
        },
        TraceEvent::DozeInterrupt { mh: h },
        TraceEvent::HandoffBegin { mh: h, from: a },
        TraceEvent::HandoffEnd {
            mh: h,
            to: b,
            prev: Some(a),
        },
        TraceEvent::HandoffEnd {
            mh: h,
            to: b,
            prev: None,
        },
        TraceEvent::Disconnect { mh: far, mss: b },
        TraceEvent::Reconnect {
            mh: far,
            mss: a,
            prev: Some(b),
        },
        TraceEvent::Reconnect {
            mh: far,
            mss: a,
            prev: None,
        },
        TraceEvent::CsRequest { mh: h },
        TraceEvent::CsEnter { mh: h },
        TraceEvent::CsExit { mh: h },
        TraceEvent::LvUpdate {
            cell: b,
            added: true,
        },
        TraceEvent::LvUpdate {
            cell: b,
            added: false,
        },
        TraceEvent::ProxyForward { mss: b, mh: h },
        TraceEvent::CacheHit {
            fp_hi: u64::MAX,
            fp_lo: 12345,
        },
        TraceEvent::ShardSync {
            shard: 2,
            window: 17,
            skipped: 0,
        },
        TraceEvent::ShardSync {
            shard: u32::MAX,
            window: 10_000_000_000,
            skipped: 22,
        },
        TraceEvent::ShardRecv {
            shard: 1,
            from: b,
            to: a,
        },
        TraceEvent::CombineBatch { mss: b, size: 64 },
        TraceEvent::DeliverBatch { at: a, len: 15 },
        TraceEvent::FaultCrash { mss: b },
        TraceEvent::FaultRecover { mss: b },
        TraceEvent::FaultPartition {
            cut: 4,
            healed: false,
        },
        TraceEvent::FaultPartition {
            cut: 4,
            healed: true,
        },
        TraceEvent::FaultStorm { moved: 999 },
    ]
}

fn meta(run: u64) -> RunMeta {
    RunMeta::new(run, "codec-v1", &NetworkConfig::new(18, 40).with_seed(77))
}

/// Emission time of the `i`-th golden event: irregular, growing digit counts.
fn tick(i: usize) -> SimTime {
    SimTime::from_ticks((i as u64).pow(5) + 7 * i as u64)
}

/// Two runs: run 7 closes with a fault-free ledger (no optional `run_end`
/// fields), run 18446744073709551615 with every fault counter set.
fn render() -> Vec<u8> {
    let mut plain = CostLedger::new(40);
    plain.fixed_msgs = 12;
    plain.wireless_msgs = 3456;
    plain.searches = 7;
    let mut faulty = plain.clone();
    for (i, key) in [
        "fault_crashes",
        "fault_recovers",
        "fault_partitions",
        "fault_heals",
        "fault_storms",
    ]
    .iter()
    .enumerate()
    {
        faulty.bump_by(key, 10u64.pow(i as u32));
    }
    let mut out = Vec::new();
    for (run, ledger) in [(7, &plain), (u64::MAX, &faulty)] {
        let mut sink = JsonlSink::new(out, meta(run)).unwrap();
        for (i, e) in events().iter().enumerate() {
            sink.record(tick(i), i as u64, e);
        }
        sink.finish(ledger);
        out = sink.into_inner().unwrap();
    }
    out
}

#[test]
fn encoder_reproduces_the_golden_file_byte_for_byte() {
    let got = String::from_utf8(render()).unwrap();
    for (n, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from data/trace_v1.jsonl", n + 1);
    }
    assert_eq!(got, GOLDEN);
}

#[test]
fn parse_line_round_trips_the_golden_file() {
    let evs = events();
    let lines: Vec<Line> = GOLDEN
        .lines()
        .map(|l| parse_line(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(lines.len(), 2 * (evs.len() + 2));
    for (half, run) in lines.chunks(evs.len() + 2).zip([7, u64::MAX]) {
        assert_eq!(half[0], Line::RunBegin(meta(run)));
        for (i, e) in evs.iter().enumerate() {
            let want = Line::Event {
                run,
                seq: i as u64,
                t: tick(i),
                ev: *e,
            };
            assert_eq!(half[1 + i], want);
        }
        let Line::RunEnd { summary, events } = &half[evs.len() + 1] else {
            panic!("run {run} does not close with run_end");
        };
        assert_eq!(*events, evs.len() as u64);
        assert_eq!((summary.run, summary.wireless_msgs), (run, 3456));
        let faults = [
            summary.fault_crashes,
            summary.fault_recovers,
            summary.fault_partitions,
            summary.fault_heals,
            summary.fault_storms,
        ];
        let want = if run == 7 {
            [0; 5]
        } else {
            [1, 10, 100, 1000, 10_000]
        };
        assert_eq!(faults, want);
    }
}

#[test]
fn message_class_helpers_count_the_charged_events() {
    let fixed: u64 = events().iter().map(TraceEvent::fixed_msgs).sum();
    let wireless: u64 = events().iter().map(TraceEvent::wireless_msgs).sum();
    assert_eq!(fixed, 3); // fixed_send + search_fail + shard_recv
    assert_eq!(wireless, 3); // up_send + down_send + cell_broadcast
}

/// Every decimal length boundary, the type maxima and 10 k seeded values go
/// through all four integer positions of a line (`run`, `seq`, `t`, payload
/// fields) and must read as `u64::to_string()` prints them.
#[test]
fn integer_writer_matches_to_string() {
    let mut values = vec![0, u32::MAX as u64, u64::MAX];
    let mut p = 1u64;
    for _ in 0..19 {
        p *= 10;
        values.extend([p - 1, p]);
    }
    let mut rng = SimRng::seed_from(0x0b5e_c0de);
    for _ in 0..10_000 {
        // Uniform over bit lengths, so short and long numbers both occur.
        let v = rng.next_u64();
        values.push(v >> (v % 64));
    }
    for v in values {
        let mut sink = JsonlSink::new(Vec::new(), meta(v)).unwrap();
        sink.record(
            SimTime::from_ticks(v),
            v,
            &TraceEvent::CacheHit { fp_hi: v, fp_lo: v },
        );
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        let s = v.to_string();
        let want = format!(
            "{{\"v\":1,\"run\":{s},\"seq\":{s},\"t\":{s},\"ev\":\"cache_hit\",\"fp_hi\":{s},\"fp_lo\":{s}}}"
        );
        assert_eq!(text.lines().nth(1), Some(want.as_str()));
    }
}

#[test]
fn record_and_parse_line_allocate_nothing_once_warm() {
    // The counter is live: one boxed byte is one allocation.
    assert_eq!(allocations_during(|| drop(black_box(Box::new(0u8)))), 1);
    let evs = events();
    let mut sink = JsonlSink::new(Vec::with_capacity(1 << 16), meta(7)).unwrap();
    // Warm-up: the line buffer grows to the longest line once.
    for (i, e) in evs.iter().enumerate() {
        sink.record(tick(i), i as u64, e);
    }
    let encode = allocations_during(|| {
        for (i, e) in evs.iter().enumerate() {
            sink.record(tick(i), i as u64, e);
        }
    });
    assert_eq!(sink.events_written(), 2 * evs.len() as u64);
    assert_eq!(encode, 0, "JsonlSink::record allocated {encode} times");

    let event_lines: Vec<&str> = GOLDEN.lines().filter(|l| l.contains("\"seq\":")).collect();
    assert_eq!(event_lines.len(), 2 * evs.len());
    let mut parsed = 0;
    let decode = allocations_during(|| {
        for l in &event_lines {
            parsed += usize::from(matches!(parse_line(l), Ok(Line::Event { .. })));
        }
    });
    assert_eq!(parsed, event_lines.len());
    assert_eq!(decode, 0, "parse_line allocated {decode} times");
}

// ----- the schema tables ------------------------------------------------------

/// The line a sink writes after its `run_begin` when `drive` uses it once.
fn line_after_begin(drive: impl FnOnce(&mut JsonlSink<Vec<u8>>)) -> String {
    let mut sink = JsonlSink::new(Vec::new(), meta(7)).unwrap();
    drive(&mut sink);
    let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    text.lines().nth(1).expect("a second line").to_owned()
}

/// The event line `JsonlSink` writes for `ev`.
fn encode(ev: &TraceEvent) -> String {
    line_after_begin(|sink| sink.record(tick(3), 5, ev))
}

/// The keys that follow `"ev"` in a line, in order.
fn payload_keys(line: &str) -> Vec<&str> {
    let tail = &line[line.find("\"ev\":").expect("an ev field")..];
    let fields = tail.split(",\"").skip(1);
    fields.map(|kv| kv.split('"').next().unwrap()).collect()
}

/// `line` without its numeric field `key`.
fn without(line: &str, key: &str) -> String {
    let pat = format!(",\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + pat.len()..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    format!("{}{}", &line[..at], &rest[digits..])
}

/// A new `SCHEMA` row without a golden sample, an optional field sampled in
/// one shape only, or a key the encoder writes and the decoder does not
/// demand (or the reverse) all fail here.
#[test]
fn samples_cover_every_schema_row_and_the_codec_agrees_with_it() {
    let evs = events();
    for e in &evs {
        assert!(SCHEMA.iter().any(|row| row.0 == e.name()), "{e:?}");
    }
    for &(kind, keys, _) in SCHEMA {
        let samples: Vec<&TraceEvent> = evs.iter().filter(|e| e.name() == kind).collect();
        assert!(!samples.is_empty(), "no golden sample of {kind}");
        let (mut written, mut left_out, mut optional) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for &ev in &samples {
            let line = encode(ev);
            let present = payload_keys(&line);
            let in_schema_order: Vec<&str> = keys
                .iter()
                .copied()
                .filter(|k| present.contains(k))
                .collect();
            assert_eq!(present, in_schema_order, "{kind}: {line}");
            written.extend(in_schema_order);
            left_out.extend(keys.iter().copied().filter(|k| !present.contains(k)));
            for key in present {
                let cut = without(&line, key);
                match parse_line(&cut) {
                    // A required key: its absence is an error naming it.
                    Err(e) => assert!(e.0.contains(&format!("{key:?}")), "{kind}: {e}"),
                    // An optional or additive one: what is left is the
                    // event's other shape.
                    Ok(Line::Event { ev: other, .. }) => {
                        assert_ne!(other, *ev, "{kind}: {key} is not decoded");
                        assert_eq!(encode(&other), cut);
                        optional.extend(keys.iter().copied().filter(|k| *k == key));
                    }
                    Ok(other) => panic!("{kind} without {key} parsed as {other:?}"),
                }
            }
        }
        let keys: BTreeSet<&str> = keys.iter().copied().collect();
        assert_eq!(written, keys, "{kind}: a key no golden sample writes");
        assert_eq!(left_out, optional, "{kind}: an optional key always sampled");
    }
}

/// OBSERVABILITY.md's identity table, restated as the oracle: the `run_end`
/// counters one event accounts for.
fn accounted_by(ev: &TraceEvent) -> &'static [&'static str] {
    match *ev {
        TraceEvent::FixedSend { .. } | TraceEvent::ShardRecv { .. } => &["fixed_msgs"],
        TraceEvent::SearchFail { .. } => &["fixed_msgs", "search_failures"],
        TraceEvent::UpSend { .. }
        | TraceEvent::DownSend { .. }
        | TraceEvent::CellBroadcast { .. } => &["wireless_msgs"],
        TraceEvent::Search { re: false, .. } => &["searches"],
        TraceEvent::Search { re: true, .. } => &["searches", "re_searches"],
        TraceEvent::HandoffEnd { to, prev, .. } if prev.is_some_and(|p| p != to) => {
            &["moves", "handoffs"]
        }
        TraceEvent::HandoffEnd { .. } => &["moves"],
        TraceEvent::Disconnect { .. } => &["disconnects"],
        TraceEvent::Reconnect { .. } => &["reconnects"],
        TraceEvent::DozeInterrupt { .. } => &["doze_interruptions"],
        TraceEvent::DownLost { .. } => &["wireless_losses"],
        TraceEvent::FaultCrash { .. } => &["fault_crashes"],
        TraceEvent::FaultRecover { .. } => &["fault_recovers"],
        TraceEvent::FaultPartition { healed: false, .. } => &["fault_partitions"],
        TraceEvent::FaultPartition { healed: true, .. } => &["fault_heals"],
        TraceEvent::FaultStorm { .. } => &["fault_storms"],
        _ => &[],
    }
}

fn tally<'a>(stream: impl IntoIterator<Item = &'a TraceEvent>) -> RunSummary {
    let mut sum = RunSummary::default();
    stream.into_iter().for_each(|e| sum.tally(e));
    sum
}

/// `tests/trace_tamper.rs` without the CLI, for every accounting kind: an
/// event moves exactly its counters by one, and a stream that lost any one
/// event is off in exactly those.
#[test]
fn tally_moves_exactly_the_counters_of_the_identity_table() {
    let mut stream = events();
    // A join that names the cell the host is already in is a move, not a
    // handoff.
    stream.push(TraceEvent::HandoffEnd {
        mh: MhId(3),
        to: MssId(5),
        prev: Some(MssId(5)),
    });
    let total = tally(&stream);
    let mut exercised = BTreeSet::new();
    for (i, ev) in stream.iter().enumerate() {
        let want: BTreeSet<&str> = accounted_by(ev).iter().copied().collect();
        let alone: BTreeSet<&str> = tally([ev])
            .counters()
            .filter(|&(_, v)| v != 0)
            .inspect(|&(key, v)| assert_eq!(v, 1, "{ev:?} moved {key} by {v}"))
            .map(|(key, _)| key)
            .collect();
        assert_eq!(alone, want, "{ev:?} alone");

        let rest = tally(
            stream
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, e)| e),
        );
        let lost: BTreeSet<&str> = total
            .counters()
            .zip(rest.counters())
            .filter(|((_, all), (_, fewer))| all != fewer)
            .inspect(|((key, all), (_, fewer))| assert_eq!(*all, fewer + 1, "{ev:?}: {key}"))
            .map(|((key, _), _)| key)
            .collect();
        assert_eq!(lost, want, "the stream without {ev:?}");
        exercised.extend(want);
    }
    // Every event counter was exercised; nothing else ever moves.
    let counted: BTreeSet<&str> = total.event_counters().map(|(key, _)| key).collect();
    assert_eq!(exercised, counted);
    let fixed: Vec<&str> = total
        .counters()
        .map(|(key, _)| key)
        .filter(|key| !counted.contains(key))
        .collect();
    assert_eq!(fixed, ["total_cost", "total_energy"]);
    assert_eq!((total.run, total.total_cost, total.total_energy), (0, 0, 0));
}

#[test]
fn run_end_round_trips_with_and_without_each_additive_counter() {
    let mut ledger = CostLedger::new(40);
    ledger.fixed_msgs = 2;
    ledger.wireless_msgs = 3;
    ledger.searches = 5;
    ledger.re_searches = 7;
    ledger.search_failures = 11;
    ledger.moves = 13;
    ledger.handoffs = 17;
    ledger.disconnects = 19;
    ledger.reconnects = 23;
    ledger.doze_interruptions = 29;
    ledger.wireless_losses = 31;
    let round_trip = |ledger: &CostLedger| {
        let line = line_after_begin(|sink| sink.finish(ledger));
        let want = RunSummary::from_ledger(7, ledger);
        let got = parse_line(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(
            got,
            Line::RunEnd {
                summary: want,
                events: 0
            },
            "{line}"
        );
        (line, want)
    };

    // The additive counters are the ones a ledger without them leaves out.
    let (plain, summary) = round_trip(&ledger);
    let additive: Vec<&str> = summary
        .counters()
        .map(|(key, _)| key)
        .filter(|key| !payload_keys(&plain).contains(key))
        .collect();
    let faults = [
        "fault_crashes",
        "fault_recovers",
        "fault_partitions",
        "fault_heals",
        "fault_storms",
    ];
    assert_eq!(additive, faults);
    // Every other counter is required: dropping it is an error naming it.
    for key in payload_keys(&plain) {
        let e = parse_line(&without(&plain, key)).expect_err(key);
        assert!(e.0.contains(&format!("{key:?}")), "{e}");
    }

    // Each additive counter alone, then all of them: written iff non-zero,
    // in table order, and read back to the same summary.
    let mut all = ledger.clone();
    for (i, key) in faults.iter().enumerate() {
        let mut one = ledger.clone();
        one.bump_by(key, 37 + i as u64);
        all.bump_by(key, 37 + i as u64);
        let (line, summary) = round_trip(&one);
        assert_eq!(
            line,
            format!(
                "{},\"{key}\":{}}}",
                plain.trim_end_matches('}'),
                37 + i as u64
            )
        );
        assert_eq!(without(&line, key), plain);
        let moved: Vec<_> = summary
            .counters()
            .filter(|&(k, _)| faults.contains(&k))
            .collect();
        assert_eq!(moved.iter().filter(|&&(_, v)| v != 0).count(), 1);
    }
    let (line, _) = round_trip(&all);
    let keys = payload_keys(&line);
    assert_eq!(keys[keys.len() - faults.len()..], faults);
}

// ----- the block writer against a reference encoder ---------------------------

/// `ev`'s field values in `SCHEMA` order, `None` where the line leaves the
/// field out.
fn wire_values(ev: &TraceEvent) -> Vec<Option<u64>> {
    use TraceEvent::*;
    let id = |v: u32| Some(u64::from(v));
    let flag = |b: bool| Some(u64::from(b));
    match *ev {
        FixedSend { from, to } => vec![id(from.0), id(to.0)],
        FixedRecv { at, from } => vec![id(at.0), id(from.0)],
        UpSend { mh, mss }
        | UpRecv { mh, mss }
        | DownSend { mh, mss }
        | DownRecv { mh, mss }
        | DownLost { mh, mss }
        | Disconnect { mh, mss }
        | ProxyForward { mh, mss } => vec![id(mh.0), id(mss.0)],
        CellBroadcast { mss, listeners } => vec![id(mss.0), id(listeners)],
        Search { target, re } => vec![id(target.0), flag(re)],
        SearchFail { origin, target } => vec![id(origin.0), id(target.0)],
        DozeInterrupt { mh } | CsRequest { mh } | CsEnter { mh } | CsExit { mh } => {
            vec![id(mh.0)]
        }
        HandoffBegin { mh, from } => vec![id(mh.0), id(from.0)],
        HandoffEnd { mh, to, prev } => vec![id(mh.0), id(to.0), prev.map(|p| p.0.into())],
        Reconnect { mh, mss, prev } => vec![id(mh.0), id(mss.0), prev.map(|p| p.0.into())],
        LvUpdate { cell, added } => vec![id(cell.0), flag(added)],
        CacheHit { fp_hi, fp_lo } => vec![Some(fp_hi), Some(fp_lo)],
        ShardSync {
            shard,
            window,
            skipped,
        } => vec![id(shard), Some(window), (skipped != 0).then_some(skipped)],
        ShardRecv { shard, from, to } => vec![id(shard), id(from.0), id(to.0)],
        CombineBatch { mss, size } => vec![id(mss.0), id(size)],
        DeliverBatch { at, len } => vec![id(at.0), id(len)],
        FaultCrash { mss } | FaultRecover { mss } => vec![id(mss.0)],
        FaultPartition { cut, healed } => vec![id(cut), flag(healed)],
        FaultStorm { moved } => vec![id(moved)],
        other => panic!("no reference encoding for {other:?}"),
    }
}

/// The reference encoder: `format!` over `SCHEMA`'s keys.
fn reference_line(run: u64, at: SimTime, seq: u64, ev: &TraceEvent) -> String {
    let keys = SCHEMA.iter().find(|row| row.0 == ev.name()).unwrap().1;
    let values = wire_values(ev);
    assert_eq!(values.len(), keys.len(), "{ev:?}");
    let mut line = format!(
        "{{\"v\":1,\"run\":{run},\"seq\":{seq},\"t\":{},\"ev\":\"{}\"",
        at.ticks(),
        ev.name()
    );
    for (key, v) in keys.iter().zip(values) {
        if let Some(v) = v {
            line += &format!(",\"{key}\":{v}");
        }
    }
    line + "}\n"
}

fn reference_run_begin(m: &RunMeta) -> String {
    format!(
        "{{\"v\":1,\"run\":{},\"ev\":\"run_begin\",\"label\":\"{}\",\"m\":{},\"n\":{},\
         \"seed\":{},\"c_fixed\":{},\"c_wireless\":{},\"c_search\":{},\"policy\":\"{}\"}}\n",
        m.run, m.label, m.m, m.n, m.seed, m.c_fixed, m.c_wireless, m.c_search, m.policy
    )
}

/// The `run_end` line; the fault counters are written only when non-zero.
fn reference_run_end(events: u64, s: &RunSummary) -> String {
    let mut line = format!(
        "{{\"v\":1,\"run\":{},\"ev\":\"run_end\",\"events\":{events}",
        s.run
    );
    for (key, v) in s.counters() {
        if v != 0 || !key.starts_with("fault_") {
            line += &format!(",\"{key}\":{v}");
        }
    }
    line + "}\n"
}

/// The decimal-length edges `9`, `10`, `99`, `100`, … up to `max`, and `max`.
fn edges(max: u64) -> Vec<u64> {
    let mut v = vec![0, max];
    let mut p = 1u64;
    while let Some(next) = p.checked_mul(10) {
        p = next;
        v.extend([p - 1, p].into_iter().filter(|&x| x <= max));
    }
    v
}

/// A field value: mostly the short ids most lines carry, else a
/// decimal-length edge or any length at all, never above `max`.
fn value(rng: &mut SimRng, max: u64) -> u64 {
    match rng.below(4) {
        0 | 1 => rng.below(1000),
        2 => *rng.pick(&edges(max)),
        _ => {
            let v = rng.next_u64();
            (v >> (v % 64)) & max
        }
    }
}

/// A random event of `SCHEMA` row `kind`, optional and additive fields
/// present about half the time.
fn random_event(rng: &mut SimRng, kind: &str) -> TraceEvent {
    use TraceEvent::*;
    let n = |rng: &mut SimRng| value(rng, u32::MAX.into()) as u32;
    let (a, b, c) = (n(rng), n(rng), n(rng));
    let (mss, mh, flag) = (MssId(a), MhId(b), rng.chance(0.5));
    let maybe = rng.chance(0.5).then_some(MssId(c));
    let (w1, w2) = (value(rng, u64::MAX), value(rng, u64::MAX));
    match kind {
        "fixed_send" => FixedSend {
            from: mss,
            to: MssId(c),
        },
        "fixed_recv" => FixedRecv {
            at: mss,
            from: MssId(c),
        },
        "up_send" => UpSend { mh, mss },
        "up_recv" => UpRecv { mh, mss },
        "down_send" => DownSend { mh, mss },
        "down_recv" => DownRecv { mh, mss },
        "cell_broadcast" => CellBroadcast { mss, listeners: c },
        "down_lost" => DownLost { mh, mss },
        "search" => Search {
            target: mh,
            re: flag,
        },
        "search_fail" => SearchFail {
            origin: mss,
            target: mh,
        },
        "doze_interrupt" => DozeInterrupt { mh },
        "handoff_begin" => HandoffBegin { mh, from: mss },
        "handoff_end" => HandoffEnd {
            mh,
            to: mss,
            prev: maybe,
        },
        "disconnect" => Disconnect { mh, mss },
        "reconnect" => Reconnect {
            mh,
            mss,
            prev: maybe,
        },
        "cs_request" => CsRequest { mh },
        "cs_enter" => CsEnter { mh },
        "cs_exit" => CsExit { mh },
        "lv_update" => LvUpdate {
            cell: mss,
            added: flag,
        },
        "proxy_forward" => ProxyForward { mh, mss },
        "cache_hit" => CacheHit {
            fp_hi: w1,
            fp_lo: w2,
        },
        "shard_sync" => ShardSync {
            shard: a,
            window: w1,
            skipped: if flag { w2 } else { 0 },
        },
        "shard_recv" => ShardRecv {
            shard: a,
            from: MssId(b),
            to: MssId(c),
        },
        "combine_batch" => CombineBatch { mss, size: b },
        "deliver_batch" => DeliverBatch { at: mss, len: b },
        "fault_crash" => FaultCrash { mss },
        "fault_recover" => FaultRecover { mss },
        "fault_partition" => FaultPartition {
            cut: a,
            healed: flag,
        },
        "fault_storm" => FaultStorm { moved: a },
        other => panic!("no generator for SCHEMA row {other:?}"),
    }
}

/// `(t, seq)` streams the sink must encode exactly.
fn streams(rng: &mut SimRng) -> Vec<(&'static str, Vec<(u64, u64)>)> {
    // The kernel's: dense `seq`, `t` repeated on about half the lines.
    let mut t = 0;
    let kernel: Vec<(u64, u64)> = (0..6000)
        .map(|seq| {
            t += if rng.chance(0.45) { 0 } else { rng.below(40) };
            (t, seq)
        })
        .collect();
    // Both counting across every decimal-length edge up to `u64::MAX`,
    // then `seq` restarting and `t` running backwards.
    let mut edge = Vec::new();
    for p in edges(u64::MAX) {
        for d in 0..4u64 {
            let x = p.saturating_sub(2).saturating_add(d);
            edge.extend([(x, x), (x, x)]);
        }
    }
    edge.extend((0..30u64).map(|i| (u64::MAX - 7 * i * i, i)));
    // Gaps, restarts, repeats and jumps in both.
    let (mut t, mut seq) = (0u64, 0u64);
    let jumpy: Vec<(u64, u64)> = (0..6000)
        .map(|_| {
            seq = match rng.below(8) {
                0 => 0,
                1 => seq.saturating_add(1 + rng.below(3)),
                2 => value(rng, u64::MAX),
                3 => seq,
                _ => seq.wrapping_add(1),
            };
            t = match rng.below(6) {
                0 => value(rng, u64::MAX),
                1 => t.saturating_sub(rng.below(1000)),
                2 | 3 => t,
                _ => t.saturating_add(rng.below(100)),
            };
            (t, seq)
        })
        .collect();
    vec![("kernel", kernel), ("edges", edge), ("jumpy", jumpy)]
}

/// A writer whose bytes outlive the sink: every `write` call's bytes in
/// order, flagged `false` for the one call, the `fail_at`-th (from 1; 0 =
/// none), that fails.
#[derive(Debug, Clone, Default)]
struct Tap(Arc<Mutex<TapLog>>);

#[derive(Debug, Default)]
struct TapLog {
    fail_at: usize,
    writes: Vec<(bool, Vec<u8>)>,
}

impl Tap {
    fn failing_at(k: usize) -> Self {
        let tap = Tap::default();
        tap.0.lock().unwrap().fail_at = k;
        tap
    }

    /// What reached the writer: the bytes of every call but the failed one.
    fn written(&self) -> Vec<u8> {
        let log = self.0.lock().unwrap();
        let ok = log.writes.iter().filter(|w| w.0);
        ok.flat_map(|w| w.1.iter().copied()).collect()
    }

    fn writes(&self) -> Vec<(bool, Vec<u8>)> {
        self.0.lock().unwrap().writes.clone()
    }
}

impl Write for Tap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut log = self.0.lock().unwrap();
        let ok = log.writes.len() + 1 != log.fail_at;
        log.writes.push((ok, buf.to_vec()));
        if ok {
            Ok(buf.len())
        } else {
            Err(std::io::Error::other("the tap failed this write"))
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Seeded random events of every schema row, over `(t, seq)` streams with
/// gaps, restarts, repeats, decreasing `t` and every decimal-length edge,
/// under run ids of every width: the sink writes what the reference
/// encoder does, byte for byte, in whole-line blocks of at least 8 KiB, and
/// a sink dropped without `finish` loses nothing but its `run_end`.
#[test]
fn block_writer_matches_the_reference_encoder() {
    let mut rng = SimRng::seed_from(0x7ace_b10c);
    let mut kinds = BTreeSet::new();
    for (name, stream) in streams(&mut rng) {
        for run in [0, 7, 123_456, u64::MAX] {
            for finished in [true, false] {
                let m = meta(run);
                let tap = Tap::default();
                let mut sink = JsonlSink::new(tap.clone(), m.clone()).unwrap();
                let mut want = reference_run_begin(&m);
                let mut stream_sum = RunSummary::default();
                for &(t, seq) in &stream {
                    let row = rng.pick(SCHEMA);
                    let ev = random_event(&mut rng, row.0);
                    kinds.insert(row.0);
                    stream_sum.tally(&ev);
                    let at = SimTime::from_ticks(t);
                    sink.record(at, seq, &ev);
                    want += &reference_line(run, at, seq, &ev);
                }
                if finished {
                    let mut ledger = CostLedger::new(40);
                    ledger.fixed_msgs = stream_sum.fixed_msgs;
                    ledger.wireless_msgs = stream_sum.wireless_msgs;
                    ledger.bump_by("fault_storms", stream_sum.fault_storms);
                    sink.finish(&ledger);
                    let summary = RunSummary::from_ledger(run, &ledger);
                    want += &reference_run_end(stream.len() as u64, &summary);
                }
                drop(sink);
                let got = String::from_utf8(tap.written()).unwrap();
                let first_difference = got.lines().zip(want.lines()).position(|(g, w)| g != w);
                assert!(
                    got == want,
                    "stream {name}, run {run}, finished {finished}: line {first_difference:?} differs"
                );
                // The header alone, then whole-line blocks of 8 KiB or more
                // but for the last.
                let writes = tap.writes();
                assert_eq!(writes[0].1, reference_run_begin(&m).as_bytes());
                let blocks = &writes[1..];
                for (i, (_, block)) in blocks.iter().enumerate() {
                    assert_eq!(block.last(), Some(&b'\n'), "{name}: block {i}");
                    assert!(
                        i + 1 == blocks.len() || block.len() >= 8192,
                        "{name}: block {i}"
                    );
                }
            }
        }
    }
    let schema: BTreeSet<&str> = SCHEMA.iter().map(|row| row.0).collect();
    assert_eq!(kinds, schema, "a schema row was never drawn");
}

/// Relays one wired message around the ring of MSSs `hops` times: a run of
/// two trace lines per hop.
struct Relay {
    hops: u32,
}

impl Protocol for Relay {
    type Msg = u32;
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, ()>) {
        ctx.send_fixed(MssId(0), MssId(1), 0);
    }

    fn on_mss_msg(&mut self, ctx: &mut Ctx<'_, u32, ()>, at: MssId, _: Src, hop: u32) {
        if hop < self.hops {
            let next = MssId((at.0 + 1) % ctx.num_mss() as u32);
            ctx.send_fixed(at, next, hop + 1);
        }
    }

    fn on_mh_msg(&mut self, _: &mut Ctx<'_, u32, ()>, _: MhId, _: Src, _: u32) {}
}

/// One traced relay run into `tap`: the sink's event count and its output.
fn relay_run(tap: &Tap) -> (u64, Vec<Line>) {
    let cfg = NetworkConfig::new(4, 4).with_seed(3);
    let mut sim = Simulation::new(cfg.clone(), Relay { hops: 2000 });
    let sink = JsonlSink::new(tap.clone(), RunMeta::new(1, "relay", &cfg)).unwrap();
    sim.set_trace_sink(Box::new(sink));
    assert!(sim.run_to_quiescence(u64::MAX), "the run completes");
    let sink = sim.finish_trace().unwrap();
    let sink = sink.as_any().downcast_ref::<JsonlSink<Tap>>().unwrap();
    let text = String::from_utf8(tap.written()).unwrap();
    let lines = text.lines().map(|l| parse_line(l).unwrap()).collect();
    (sink.events_written(), lines)
}

/// `(events claimed, events present, the run_end summary, the tally of the
/// events present)`.
fn reconcile(lines: &[Line]) -> (u64, u64, RunSummary, RunSummary) {
    let (mut present, mut tally) = (0, RunSummary::default());
    let mut end = None;
    for line in lines {
        match line {
            Line::Event { ev, .. } => {
                present += 1;
                tally.tally(ev);
            }
            Line::RunEnd { summary, events } => end = Some((*events, *summary)),
            Line::RunBegin(_) => {}
        }
    }
    let (claimed, summary) = end.expect("a run_end line");
    (claimed, present, summary, tally)
}

/// A writer that fails one write: the run still completes and the sink
/// still counts every line; the file is short by that one block — whole
/// lines — so the `ledger = trace` check flags the run. A failed header
/// write is `JsonlSink::new`'s error.
#[test]
fn a_failed_write_loses_one_block_and_the_check_sees_it() {
    let healthy = Tap::default();
    let (events, lines) = relay_run(&healthy);
    let (claimed, present, summary, tally) = reconcile(&lines);
    assert_eq!((claimed, present), (events, events));
    assert!(summary.event_counters().eq(tally.event_counters()));
    let writes = healthy.writes().len();
    assert!(writes > 5, "{writes} writes: too few blocks to lose one");

    for k in [2, writes / 2, writes] {
        let tap = Tap::failing_at(k);
        let (written, lines) = relay_run(&tap);
        assert_eq!(written, events, "failing write {k}");
        let all = tap.writes();
        let (lost, before) = (&all[k - 1].1, &all[k - 2].1);
        assert!(!all[k - 1].0 && all.iter().filter(|w| !w.0).count() == 1);
        assert_eq!(before.last(), Some(&b'\n'), "the lost block starts a line");
        assert_eq!(lost.last(), Some(&b'\n'), "the lost block ends a line");
        let mut whole = tap.written();
        let at: usize = all[..k - 1].iter().map(|w| w.1.len()).sum();
        whole.splice(at..at, lost.iter().copied());
        assert_eq!(whole, healthy.written(), "failing write {k}");

        if k == writes {
            // The last block carried the `run_end` line too.
            assert!(!lines.iter().any(|l| matches!(l, Line::RunEnd { .. })));
            continue;
        }
        let (claimed, present, summary, tally) = reconcile(&lines);
        let missing = lost.iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!((claimed, present), (events, events - missing));
        assert!(!summary.event_counters().eq(tally.event_counters()));
    }

    let header = JsonlSink::new(Tap::failing_at(1), meta(0));
    assert_eq!(header.unwrap_err().to_string(), "the tap failed this write");
}
