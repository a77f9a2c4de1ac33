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
