//! Micro-drivers: timed loops over the public functions of layers that have
//! no callable seam inside a run (wheel, FIFO chains, ledger, sinks, lanes,
//! barrier, cache, codec…).
//!
//! Each loop runs for at least [`MIN_S`] with inputs shaped like the workload
//! it is listed under in [`for_workload`], and reports time per operation.
//! The traced run of a workload executes only that workload's drivers; on
//! every other workload the metric reads 0.

use crate::workloads::{CountingDiscard, Layer, Size};
use mobidist_bench::parallel::map_indexed_with;
use mobidist_bench::stats::LatencyHist;
use mobidist_core::prelude::*;
use mobidist_net::channel::{ChainKey, FifoChains};
use mobidist_net::event::{EventHeap, EventQueue};
use mobidist_net::fingerprint::Fingerprint;
use mobidist_net::lanes::{EpochBarrier, Lane};
use mobidist_net::obs::{parse_line, RunMeta};
use mobidist_net::prelude::*;
use mobidist_runcache::codec::{Codec, Reader};
use mobidist_runcache::store::RunCache;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shortest timed loop, seconds.
pub const MIN_S: f64 = 0.2;

/// Calls `batch` (which performs `ops` operations) until `min_s` has passed
/// and returns nanoseconds per operation. One untimed call warms up.
fn ns_per_op(min_s: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let min = Duration::from_secs_f64(min_s);
    let t0 = Instant::now();
    let mut done = 0u64;
    loop {
        batch();
        done += ops;
        if t0.elapsed() >= min {
            break;
        }
    }
    t0.elapsed().as_nanos() as f64 / done as f64
}

/// Pseudo-random latencies, precomputed so the timed loop draws none.
fn latencies(seed: u64, n: usize, mut draw: impl FnMut(&mut SimRng) -> u64) -> Vec<u64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| draw(&mut rng).max(1)).collect()
}

/// The classic hold model: pop the earliest event, push it back at
/// `now + latency`, at a steady queue depth.
macro_rules! hold {
    ($queue:expr, $depth:expr, $lat:expr, $min_s:expr) => {{
        let mut q = $queue;
        let lat: &[u64] = $lat;
        for i in 0..$depth {
            q.push(SimTime::from_ticks(lat[i % lat.len()]), i as u64);
        }
        let mut i = 0usize;
        ns_per_op($min_s, 4096, || {
            for _ in 0..4096 {
                let (t, e) = q.pop().expect("the hold model never drains the queue");
                q.push(t + lat[i % lat.len()], e);
                i += 1;
            }
        })
    }};
}

fn hold_wheel(depth: usize, lat: &[u64], min_s: f64) -> f64 {
    hold!(EventQueue::<u64>::new(), depth, lat, min_s)
}

fn hold_heap(depth: usize, lat: &[u64], min_s: f64) -> f64 {
    hold!(EventHeap::<u64>::new(), depth, lat, min_s)
}

/// Bursts of 15 same-tick events (an L2 entry's `M − 1` replies), drained
/// with one `pop` and fourteen `pop_same_tick_if`; ns per same-tick pop.
fn same_tick_pop(min_s: f64) -> f64 {
    let mut q = EventQueue::<u64>::new();
    let mut now = 0u64;
    let min = Duration::from_secs_f64(min_s);
    let (mut spent, mut pops) = (Duration::ZERO, 0u64);
    while spent < min {
        for _ in 0..256 {
            now += 5;
            for e in 0..15 {
                q.push(SimTime::from_ticks(now), e);
            }
            black_box(q.pop());
            let t0 = Instant::now();
            for _ in 0..14 {
                black_box(q.pop_same_tick_if(|_| true));
            }
            spent += t0.elapsed();
            pops += 14;
        }
    }
    spent.as_nanos() as f64 / pops as f64
}

/// `FifoChains::schedule` over the three channel classes of a 16 × 1024 net.
fn channel_schedule(min_s: f64) -> f64 {
    let (m, n) = (16u32, 1024u32);
    let mut f = FifoChains::new(m as usize, n as usize);
    let mut now = 0u64;
    ns_per_op(min_s, 3 * 1024, || {
        for i in 0..1024u32 {
            now += 1;
            let (a, b, h) = (MssId(i % m), MssId((i * 7 + 1) % m), MhId(i % n));
            black_box(f.schedule(ChainKey::Fixed(a, b), SimTime::from_ticks(now + 5)));
            black_box(f.schedule(ChainKey::Up(h, a), SimTime::from_ticks(now + 2)));
            black_box(f.schedule(ChainKey::Down(a, h), SimTime::from_ticks(now + 2)));
        }
    })
}

/// The charge mix of one L2 entry: 15 wired sends, an uplink, two downlinks.
fn ledger_charge(min_s: f64) -> f64 {
    let cost = CostModel::default();
    let mut l = CostLedger::new(1024);
    let mut i = 0u32;
    ns_per_op(min_s, 18 * 256, || {
        for _ in 0..256 {
            i = (i + 1) % 1024;
            for _ in 0..15 {
                l.charge_fixed(&cost);
            }
            l.charge_wireless_tx(&cost, MhId(i), 1);
            l.charge_wireless_rx(&cost, MhId(i), 1);
            l.charge_wireless_rx(&cost, MhId(i), 1);
        }
        black_box(l.total_cost());
    })
}

/// String-keyed `bump` on the hit path, over the names the algorithms use.
fn ledger_bump(min_s: f64) -> f64 {
    let names = [
        "combine_batches",
        "lv_update_msgs",
        "lv_significant_adds",
        "token_passes",
    ];
    let mut l = CostLedger::new(4);
    ns_per_op(min_s, 4 * 256, || {
        for _ in 0..256 {
            for n in names {
                l.bump(n);
            }
        }
        black_box(l.custom("token_passes"));
    })
}

/// One `MutexHarness::report()` at 100 000 episodes, microseconds.
fn harness_report_us(seed: u64, size: Size, min_s: f64) -> f64 {
    let r = if size == Size::Quick { 40 } else { 391 };
    let cfg = NetworkConfig::new(8, 256).with_seed(seed);
    let wl = WorkloadConfig::all_mhs(256, r)
        .with_think(200)
        .with_hold(10);
    let target = 256 * r;
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(8, RingGuard::Plain), wl));
    let mut t = 0;
    while sim.protocol().checker().episodes().len() < target && t < 1_000_000_000 {
        t += 100_000;
        sim.run_until(SimTime::from_ticks(t));
    }
    ns_per_op(min_s, 1, || {
        black_box(sim.protocol().report());
    }) / 1e3
}

/// Records the trace of a short ring run, for replay into each sink.
fn recorded_events(seed: u64) -> Vec<(SimTime, u64, TraceEvent)> {
    let cfg = NetworkConfig::new(8, 256).with_seed(seed);
    let wl = WorkloadConfig::all_mhs(256, 40)
        .with_think(200)
        .with_hold(10);
    let mut sim = Simulation::new(cfg, MutexHarness::new(R2::new(8, RingGuard::Plain), wl));
    sim.set_trace_sink(Box::new(RingSink::new(250_000)));
    sim.run_until(SimTime::from_ticks(2_000_000));
    let sink = sim.finish_trace().expect("sink was installed");
    let ring = sink
        .as_any()
        .downcast_ref::<RingSink>()
        .expect("the installed sink is a RingSink");
    ring.iter().copied().collect()
}

/// Replays `events` into `sink` until at least a million records and
/// `min_s` seconds have gone through it; ns per record.
fn replay(events: &[(SimTime, u64, TraceEvent)], sink: &mut dyn TraceSink, min_s: f64) -> f64 {
    let passes = (1_000_000 / events.len().max(1)).max(1);
    ns_per_op(min_s / passes as f64, events.len() as u64, || {
        for (at, seq, ev) in events {
            sink.record(*at, *seq, ev);
        }
    })
}

fn obs_micros(seed: u64, min_s: f64) -> Layer {
    let events = recorded_events(seed);
    let meta = RunMeta::new(0, "micro", &NetworkConfig::new(8, 256));
    let mut jsonl = JsonlSink::new(CountingDiscard::default(), meta.clone())
        .expect("a discarding writer cannot fail");
    let mut ring = RingSink::new(65_536);
    let mut metrics = MetricsSink::default();
    // The text parse_line reads back: the first 50 000 records as JSONL.
    let mut text = JsonlSink::new(Vec::new(), meta).expect("a Vec writer cannot fail");
    for (at, seq, ev) in events.iter().take(50_000) {
        text.record(*at, *seq, ev);
    }
    let text = String::from_utf8(text.into_inner().expect("a Vec writer cannot fail"))
        .expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    vec![
        (
            "net.obs.jsonl_ns_per_event",
            replay(&events, &mut jsonl, min_s),
        ),
        (
            "net.obs.ring_ns_per_event",
            replay(&events, &mut ring, min_s),
        ),
        (
            "net.obs.metrics_ns_per_event",
            replay(&events, &mut metrics, min_s),
        ),
        (
            "net.obs.parse_line_ns",
            ns_per_op(min_s, lines.len() as u64, || {
                for l in &lines {
                    black_box(parse_line(l).is_ok());
                }
            }),
        ),
    ]
}

/// Wait-like values spread over the log2 buckets.
fn hist_values(seed: u64) -> Vec<u64> {
    latencies(seed, 4096, |r| r.exp_delay(3000))
}

fn metrics_hist_record(seed: u64, min_s: f64) -> f64 {
    let v = hist_values(seed);
    let mut h = Histogram::default();
    ns_per_op(min_s, v.len() as u64, || {
        for x in &v {
            h.record(*x);
        }
        black_box(h.count());
    })
}

fn latency_hist_record(seed: u64, min_s: f64) -> f64 {
    let v = hist_values(seed);
    let mut h = LatencyHist::new();
    ns_per_op(min_s, v.len() as u64, || {
        for x in &v {
            h.record(*x);
        }
        black_box(h.len());
    })
}

/// `Simulation::new` and `SimPool::run` entry→closure for a sweep-sized
/// configuration, microseconds each.
fn sim_construction(seed: u64, min_s: f64) -> Layer {
    let cfg = NetworkConfig::new(8, 60).with_seed(seed);
    let wl = WorkloadConfig::all_mhs(60, 2);
    let proto = || MutexHarness::new(L2::new(8), wl.clone());
    let new_ns = ns_per_op(min_s, 1, || {
        black_box(Simulation::new(cfg.clone(), proto()));
    });
    let mut pool: SimPool<MutexHarness<L2>> = SimPool::new();
    let reset_ns = ns_per_op(min_s, 1, || {
        pool.run(cfg.clone(), proto(), |sim| {
            black_box(sim.now());
        });
    });
    vec![
        ("net.sim.new_us", new_ns / 1e3),
        ("net.sim.reset_us", reset_ns / 1e3),
    ]
}

/// 10 000 no-op items through the sweep fan-out, microseconds per item.
fn parallel_item_overhead(min_s: f64) -> f64 {
    let jobs = crate::sys::threads();
    ns_per_op(min_s, 10_000, || {
        let out = map_indexed_with((0..10_000u64).collect(), jobs, || (), |(), _, x| x);
        black_box(out);
    }) / 1e3
}

/// `RunCache::{put,get}` in a temp dir, the ledger codec and the run
/// fingerprint.
fn cache_micros(seed: u64, min_s: f64) -> Layer {
    // A record the size sweeps store: the ledger of a 60-host run.
    let cost = CostModel::default();
    let mut ledger = CostLedger::new(60);
    for i in 0..60 {
        ledger.charge_wireless_tx(&cost, MhId(i), 1);
        ledger.charge_fixed_n(&cost, 7);
    }
    ledger.bump("combine_batches");
    let mut payload = Vec::new();
    ledger.encode(&mut payload);
    let cfg = NetworkConfig::new(8, 60).with_seed(seed);
    let wl = WorkloadConfig::all_mhs(60, 2);
    let fps: Vec<Fingerprint> = (0..256u64)
        .map(|i| Fingerprint::of(&("micro", &cfg, &(&wl, i))))
        .collect();

    let dir = crate::sys::bench_dir()
        .join("out")
        .join(format!("tmp-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temp cache dir under benchmark/out");
    let cache = RunCache::new();
    // Each timed call touches all 256 records, so min_s bounds the loop.
    let put = ns_per_op(min_s, fps.len() as u64, || {
        for fp in &fps {
            cache.put(Some(&dir), *fp, payload.clone());
        }
    });
    let get_disk = ns_per_op(min_s, fps.len() as u64, || {
        cache.clear_memory();
        for fp in &fps {
            black_box(cache.get(Some(&dir), *fp));
        }
    });
    let get_mem = ns_per_op(min_s, fps.len() as u64, || {
        for fp in &fps {
            black_box(cache.get(Some(&dir), *fp));
        }
    });
    let _ = std::fs::remove_dir_all(&dir);

    let mut buf = Vec::with_capacity(payload.len());
    let encode = ns_per_op(min_s, 64, || {
        for _ in 0..64 {
            buf.clear();
            ledger.encode(&mut buf);
        }
        black_box(buf.len());
    });
    let decode = ns_per_op(min_s, 64, || {
        for _ in 0..64 {
            black_box(CostLedger::decode(&mut Reader::new(&payload)));
        }
    });
    let of = ns_per_op(min_s, 64, || {
        for i in 0..64u64 {
            black_box(Fingerprint::of(&("micro", &cfg, &(&wl, i))));
        }
    });
    vec![
        ("runcache.store.put_us", put / 1e3),
        ("runcache.store.get_disk_us", get_disk / 1e3),
        ("runcache.store.get_mem_us", get_mem / 1e3),
        ("runcache.codec.encode_ns", encode),
        ("runcache.codec.decode_ns", decode),
        ("net.fingerprint.of_ns", of),
    ]
}

/// `Lane::push` → `publish` → `take` between two threads, ns per item, and
/// one `EpochBarrier::wait` round among `parties` threads, ns.
fn lane_micros(parties: usize, min_s: f64) -> Layer {
    const ITEMS: u64 = 512;
    let rounds_for = |per_round_s: f64| ((min_s / per_round_s) as u64).clamp(200, 200_000);

    // Two parties always: a lane has exactly one producer and one consumer.
    let transfer = {
        let lane: Lane<u64> = Lane::new();
        let barrier = EpochBarrier::new(2);
        let rounds = rounds_for(20e-6);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                for r in 0..rounds {
                    for i in 0..ITEMS {
                        lane.push(r, i);
                    }
                    lane.publish(r);
                    barrier.wait();
                }
            });
            let mut scratch = Vec::new();
            for r in 0..rounds {
                barrier.wait();
                lane.take(r, &mut scratch);
                black_box(scratch.len());
                scratch.clear();
            }
        });
        t0.elapsed().as_nanos() as f64 / (rounds * ITEMS) as f64
    };

    let barrier_round = {
        let barrier = EpochBarrier::new(parties);
        let rounds = rounds_for(5e-6);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..parties {
                s.spawn(|| {
                    for _ in 0..rounds {
                        barrier.wait();
                    }
                });
            }
            for _ in 0..rounds {
                barrier.wait();
            }
        });
        t0.elapsed().as_nanos() as f64 / rounds as f64
    };
    vec![
        ("net.lanes.transfer_ns", transfer),
        ("net.lanes.barrier_round_ns", barrier_round),
    ]
}

/// `MovePattern::next_cell` averaged over the five patterns.
fn mobility_next_cell(seed: u64, min_s: f64) -> f64 {
    let patterns = [
        MovePattern::UniformRandom,
        MovePattern::Locality {
            p_local: 0.8,
            home_span: 4,
        },
        MovePattern::RandomWaypoint { leg: 6 },
        MovePattern::GaussMarkov { memory: 0.7 },
        MovePattern::GroupPlatoon {
            groups: 8,
            p_follow: 0.8,
        },
    ];
    let mut rng = SimRng::seed_from(seed);
    let mut era = 0u64;
    ns_per_op(min_s, 5 * 256, || {
        for h in 0..256u32 {
            era += 1;
            for p in &patterns {
                let ctx = MoveCtx {
                    mh: MhId(h),
                    from: MssId(h % 1024),
                    m: 1024,
                    home: MssId((h * 3) % 1024),
                    era,
                    seed,
                };
                black_box(p.next_cell(&mut rng, ctx));
            }
        }
    })
}

/// Runs the micro-drivers listed under `workload`; `seed` shapes their
/// inputs. `--quick` shortens every loop.
pub fn for_workload(workload: &str, seed: u64, size: Size) -> Layer {
    let min_s = if size == Size::Quick { 0.01 } else { MIN_S };
    let mut out = Layer::new();
    match workload {
        // Broadcast bursts: deep wheel (1024 think timers + fan-outs in
        // flight), same-tick runs, and the heap the wheel replaced.
        "serve_lamport" => {
            let lat = latencies(seed, 4096, |r| {
                if r.chance(1.0 / 16.0) {
                    r.exp_delay(1000)
                } else {
                    r.between(1, 12)
                }
            });
            out.push(("net.event.hold_ns.d64k", hold_wheel(65_536, &lat, min_s)));
            out.push((
                "net.event.heap_hold_ns.d64k",
                hold_heap(65_536, &lat, min_s),
            ));
            out.push(("net.event.same_tick_pop_ns", same_tick_pop(min_s)));
            out.push(("net.channel.schedule_ns", channel_schedule(min_s)));
        }
        // Pure unicast: shallow wheel, per-event ledger charge, and the
        // episode list `report()` walks.
        "ring_unicast" => {
            let lat = latencies(seed, 4096, |r| r.between(1, 20));
            out.push(("net.event.hold_ns.d1k", hold_wheel(1024, &lat, min_s)));
            out.push(("net.ledger.charge_ns", ledger_charge(min_s)));
            out.push(("net.ledger.bump_ns", ledger_bump(min_s)));
            out.push((
                "core.harness.report_us",
                harness_report_us(seed, size, min_s),
            ));
        }
        "ring_traced" => {
            out.extend(obs_micros(seed, min_s));
            out.push((
                "net.metrics.hist_record_ns",
                metrics_hist_record(seed, min_s),
            ));
        }
        "group_mobile" => {
            out.push(("net.channel.schedule_ns", channel_schedule(min_s)));
            out.push(("net.mobility.next_cell_ns", mobility_next_cell(seed, min_s)));
        }
        "churn_1m" => {
            let depth = if size == Size::Quick {
                50_000
            } else {
                1_000_000
            };
            let lat = latencies(seed, 4096, |r| r.exp_delay(500));
            out.push(("net.event.hold_ns.d1m", hold_wheel(depth, &lat, min_s)));
            out.extend(lane_micros(crate::sys::threads().min(2), min_s));
            out.push(("net.mobility.next_cell_ns", mobility_next_cell(seed, min_s)));
        }
        "sweep_tables" => {
            out.extend(sim_construction(seed, min_s));
            out.push((
                "bench.parallel.item_overhead_us",
                parallel_item_overhead(min_s),
            ));
            out.extend(cache_micros(seed, min_s));
            out.push((
                "bench.stats.latency_hist_record_ns",
                latency_hist_record(seed, min_s),
            ));
        }
        _ => {}
    }
    out
}
