//! # mobidist-benchmark — the repo's benchmark
//!
//! Six named workloads, end-to-end metrics in two currencies (host time and
//! simulated cost), and a per-layer attribution taken entirely **from
//! outside**: this package edits nothing under `crates/` or `src/`; it times
//! calls into each module's public functions and wraps the public traits
//! with the timing adapters in [`adapters`].
//!
//! See `README.md` for the workload and metric tables, and `BENCHMARK.json`
//! at the repo root for the frozen sizes and bounds.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapters;
pub mod alloc;
pub mod golden;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod probe;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod workloads;

/// `--seconds` when the flag is absent; equals `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;
