//! The JSONL trace codec against its checked-in oracle.
//!
//! `data/trace_v1.jsonl` was written by the `write!`-based encoder that
//! schema v1 shipped with, before the codec was rebuilt without `core::fmt`.
//! The bytes on disk are the contract: the encoder must reproduce the file
//! exactly, `parse_line` must read every line of it back to the value that
//! produced it, and in steady state neither direction may touch the
//! allocator for an event line.

use mobidist_net::ledger::CostLedger;
use mobidist_net::obs::{parse_line, JsonlSink, Line, RunMeta, TraceEvent, TraceSink};
use mobidist_net::prelude::*;
use mobidist_net::rng::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
