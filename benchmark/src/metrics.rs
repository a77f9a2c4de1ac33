//! The metric catalogue: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repo root lists the same names; `tests/contract.rs`
//! keeps the two in step. The untraced run (`--trace 0`) prints every
//! end-to-end metric; the traced run (`--trace 1`) prints every per-layer
//! metric — a layer the workload never enters reads 0 there, which is itself
//! the statement "this workload bypasses that layer".

/// `(name, unit)` of every end-to-end metric, on every workload.
///
/// The three host-time figures are scaled to nominal machine speed by the
/// probe readings that bracket them (see [`crate::probe`]); the raw readings
/// are on the `note` lines.
///
/// * `wall_s` — median host time of one timed repetition.
/// * `work_per_s` — units of work per second of host time: logical events
///   (`Kernel::events_processed` / `ScaleReport::events`) on the five
///   simulation workloads, table rows on `sweep_tables`.
/// * `setup_s` — input generation + construction + the warm-up repetition.
/// * `peak_rss_mb` — median over repetitions of the peak RSS (`VmHWM`,
///   reset before each repetition) the process reached during one, less the
///   probe's table.
/// * `sim_ops_per_ktick`, `sim_cost_per_op` — *simulated* throughput and
///   cost of the workload's own operation (a critical-section entry, a
///   delivered group message, a host move); exact for a given seed.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_ops_per_ktick", "ops/ktick"),
    ("sim_cost_per_op", "cost/op"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Kernel: spans around run_until, exact counts from Timed<P>.
    ("net.kernel.run_s", "s"),
    ("net.kernel.self_s", "s"),
    ("net.kernel.self_ns_per_event", "ns"),
    ("net.kernel.run_share", "ratio"),
    ("net.kernel.events", "count"),
    ("net.kernel.callbacks", "count"),
    ("net.kernel.events_per_callback", "ratio"),
    ("net.kernel.batch_callbacks", "count"),
    ("net.kernel.batch_mean_len", "count"),
    ("net.kernel.batched_event_share", "ratio"),
    // Protocol callbacks (each span includes the Ctx sends it issues).
    ("net.proto.callback_s", "s"),
    ("net.proto.on_mss_msg_s", "s"),
    ("net.proto.on_mss_batch_s", "s"),
    ("net.proto.on_mh_msg_s", "s"),
    ("net.proto.on_timer_s", "s"),
    ("net.proto.on_mh_joined_s", "s"),
    ("net.proto.on_mh_left_s", "s"),
    // Mutual-exclusion harness and algorithms.
    ("core.harness.self_s", "s"),
    ("core.harness.report_us", "us"),
    ("core.l2.callback_s", "s"),
    ("core.l2c.callback_s", "s"),
    ("core.r2.callback_s", "s"),
    ("core.l2.cs_per_ktick", "ops/ktick"),
    ("core.l2.wireless_per_cs", "msgs"),
    ("core.l2c.mean_batch", "count"),
    ("core.mutex.wait_p99_ticks", "ticks"),
    ("core.mutex.wait_p99_log2_ticks", "ticks"),
    ("core.mutex.wireless_per_cs", "msgs"),
    // Group location management.
    ("group.harness.self_s", "s"),
    ("group.location_view.callback_s", "s"),
    ("group.location_view.updates", "count"),
    ("net.ledger.searches", "count"),
    // Event queue micro-drivers.
    ("net.event.hold_ns.d1k", "ns"),
    ("net.event.hold_ns.d64k", "ns"),
    ("net.event.hold_ns.d1m", "ns"),
    ("net.event.heap_hold_ns.d64k", "ns"),
    ("net.event.same_tick_pop_ns", "ns"),
    ("net.channel.schedule_ns", "ns"),
    // Ledger.
    ("net.ledger.charge_ns", "ns"),
    ("net.ledger.bump_ns", "ns"),
    ("net.ledger.fixed_msgs", "count"),
    ("net.ledger.wireless_msgs", "count"),
    ("net.ledger.total_cost", "cost"),
    // Trace emission.
    ("net.obs.emit_s", "s"),
    ("net.obs.events", "count"),
    ("net.obs.emit_ns_per_event", "ns"),
    ("net.obs.emit_share", "ratio"),
    ("net.obs.bytes", "bytes"),
    ("net.obs.jsonl_ns_per_event", "ns"),
    ("net.obs.ring_ns_per_event", "ns"),
    ("net.obs.metrics_ns_per_event", "ns"),
    ("net.obs.parse_line_ns", "ns"),
    ("net.obs.trace_cost_ratio", "ratio"),
    // The two log2 histograms.
    ("net.metrics.hist_record_ns", "ns"),
    ("bench.stats.latency_hist_record_ns", "ns"),
    // Simulation construction and pool reuse.
    ("net.sim.new_us", "us"),
    ("net.sim.reset_us", "us"),
    // One span per table function.
    ("bench.exp.e0_s", "s"),
    ("bench.exp.e1_s", "s"),
    ("bench.exp.e2_s", "s"),
    ("bench.exp.e3_s", "s"),
    ("bench.exp.e4_s", "s"),
    ("bench.exp.e5_s", "s"),
    ("bench.exp.e6_s", "s"),
    ("bench.exp.e7_s", "s"),
    ("bench.exp.e8_s", "s"),
    ("bench.exp.e9_s", "s"),
    ("bench.exp.e10_s", "s"),
    ("bench.exp.e11_s", "s"),
    ("bench.exp.e14_s", "s"),
    ("bench.exp.seed_sweep_s", "s"),
    ("bench.exp.span_share", "ratio"),
    // Sweep fan-out.
    ("bench.parallel.item_overhead_us", "us"),
    ("bench.parallel.speedup", "ratio"),
    // Run cache.
    ("runcache.store.put_us", "us"),
    ("runcache.store.get_disk_us", "us"),
    ("runcache.store.get_mem_us", "us"),
    ("runcache.codec.encode_ns", "ns"),
    ("runcache.codec.decode_ns", "ns"),
    ("net.fingerprint.of_ns", "ns"),
    ("bench.cache.cold_s", "s"),
    ("bench.cache.warm_s", "s"),
    // Sharded kernel.
    ("net.shard.wall_s.s1", "s"),
    ("net.shard.wall_s.sP", "s"),
    ("net.shard.speedup", "ratio"),
    ("net.shard.windows", "count"),
    ("net.shard.skipped_windows", "count"),
    ("net.shard.events_per_window", "count"),
    ("net.shard.bytes_per_host", "bytes"),
    ("net.shard.plan_ms", "ms"),
    ("net.shard.sparse_wall_s", "s"),
    ("net.shard.sparse_skipped_share", "ratio"),
    ("net.lanes.transfer_ns", "ns"),
    ("net.lanes.barrier_round_ns", "ns"),
    ("net.shard.barrier_share_est", "ratio"),
    ("net.mobility.next_cell_ns", "ns"),
    // Allocation (counting allocator, one steady-state repetition).
    ("alloc.count_per_kevent", "count"),
    ("alloc.bytes_per_kevent", "bytes"),
    // Diagnostics.
    ("trace_overhead_ratio", "ratio"),
    ("runq_wait_share", "ratio"),
    ("bench.probe.step_ns", "ns"),
    ("bench.probe.load_ns", "ns"),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}
