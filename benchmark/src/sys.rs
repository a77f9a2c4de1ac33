//! Machine and process facts from procfs and the environment.

use std::path::{Path, PathBuf};

/// CPUs this process may use.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the benchmark uses at most: `min(cpus, 4)`.
pub fn threads() -> usize {
    cpus().min(4)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`) in MiB; `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k as f64 / 1024.0)
}

/// Resets the kernel's peak-RSS watermark for this process to its current
/// RSS (`echo 5 > /proc/self/clear_refs`), so `VmHWM` can be sampled per
/// repetition. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Nanoseconds the main thread has spent runnable but waiting for a CPU
/// (second field of `/proc/self/schedstat`); `None` where the kernel does
/// not export it.
pub fn runq_wait_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// `/proc/loadavg`, trimmed, or `"unknown"`.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// An environment fact `run.sh` exports (`rustc -V`, the git commit), or
/// `"unknown"` when the binary is started by hand.
pub fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The benchmark's own directory: `BENCH_DIR` when `run.sh` exports it,
/// else the manifest directory baked in at compile time.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf())
}

/// Removes every ambient `MOBIDIST_*` knob so a workload sees only what it
/// sets itself. Call before any thread is spawned.
pub fn clear_ambient_env() {
    for key in [
        "MOBIDIST_JOBS",
        "MOBIDIST_SHARDS",
        "MOBIDIST_DELIVERY",
        "MOBIDIST_CACHE",
        "MOBIDIST_TRACE",
    ] {
        std::env::remove_var(key);
    }
}
