//! Experiment-level glue over the [`mobidist_runcache`] store.
//!
//! Every run in this crate goes through `run_cached`: given the canonical
//! descriptor of a run (site label + [`NetworkConfig`] + the
//! workload/tuning extras) it either replays a stored outcome or executes
//! the run on a pooled simulation, stores the outcome and returns it.
//! Because runs are deterministic and the fingerprint covers everything the
//! outcome depends on, a warm cache is **byte-indistinguishable** from cold
//! execution in every emitted table (pinned by the `cache` axis of the
//! bench crate's `differential` test).
//!
//! The cache is inactive — and this module reduces to one environment-
//! variable probe per run — unless `MOBIDIST_CACHE` names a directory
//! (the CLIs' `--cache DIR` flag sets it).
//!
//! Labels name the *construction site*, not just the algorithm: two call
//! sites that build their harness differently must not share a label, or
//! identical `(cfg, extras)` could alias different computations. Helpers
//! (`run_l1_in`, `run_strategy_in`, …) use the algorithm name; direct
//! construction sites in E3/E7/E10 use site-specific labels (`"e3_l1"`,
//! `"e10_proxy"`, …). The label doubles as the run's name in a trace.

use crate::exp_group::GroupRun;
use crate::exp_mutex::MutexRun;
use crate::exp_serve::ServeRun;
use mobidist_net::config::NetworkConfig;
use mobidist_net::fingerprint::{CanonHash, Fingerprint};
use mobidist_net::ledger::CostLedger;
use mobidist_net::proto::Protocol;
use mobidist_net::sim::{SimPool, Simulation};
use mobidist_runcache::codec::{Codec, Reader};
use mobidist_runcache::{cache_dir, store};

/// A storable run outcome: its codec, plus the ledger a cache hit's trace
/// envelope reports.
pub(crate) trait Outcome: Codec {
    fn ledger(&self) -> &CostLedger;
}

impl Outcome for CostLedger {
    fn ledger(&self) -> &CostLedger {
        self
    }
}

/// The outcome structs the tables read, stored field by field in the order
/// listed. Naming every field here means a new one cannot be forgotten: the
/// struct literal in `decode` stops compiling.
macro_rules! outcome_struct {
    ($t:ident { $($field:ident),+ }) => {
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }

            fn decode(r: &mut Reader<'_>) -> Option<Self> {
                Some($t { $($field: Codec::decode(r)?),+ })
            }
        }

        impl Outcome for $t {
            fn ledger(&self) -> &CostLedger {
                &self.ledger
            }
        }
    };
}
outcome_struct!(MutexRun { report, ledger });
outcome_struct!(GroupRun { report, ledger, lv });
outcome_struct!(ServeRun {
    completed,
    makespan,
    p50,
    p95,
    p99,
    mean_wait,
    jain,
    batches,
    ledger
});

/// An outcome followed by derived counters.
macro_rules! outcome_tuple {
    ($($extra:ident),+) => {
        impl<A: Outcome, $($extra: Codec),+> Outcome for (A, $($extra),+) {
            fn ledger(&self) -> &CostLedger {
                self.0.ledger()
            }
        }
    };
}
outcome_tuple!(B);
outcome_tuple!(B, C);
outcome_tuple!(B, C, D);

/// Runs one deterministic, memoized, optionally traced simulation.
///
/// The run itself: a simulation recycled from `pool` is reset to
/// `(cfg, build())`, gets a trace sink when tracing is enabled
/// ([`crate::obs`]), and `reduce` drives it and extracts the outcome.
///
/// When the cache is inactive that is all. When active, a hit decodes the
/// stored outcome instead — and, if tracing is enabled, emits a synthetic
/// one-event `cache_hit` trace envelope carrying the cached ledger — while
/// a miss runs, stores and returns.
///
/// `extra` carries everything beyond the [`NetworkConfig`] that the run's
/// outcome depends on — workload, horizon, algorithm tuning. Omitting a
/// knob from `extra` is the one way to corrupt results with this cache, so
/// err on the side of including too much: a spurious distinction only
/// costs a recompute.
pub(crate) fn run_cached<P: Protocol, T: Outcome>(
    pool: &mut SimPool<P>,
    label: &str,
    cfg: &NetworkConfig,
    extra: &impl CanonHash,
    build: impl FnOnce() -> P,
    reduce: impl FnOnce(&mut Simulation<P>) -> T,
) -> T {
    let run = || {
        pool.run(cfg.clone(), build(), |sim| {
            crate::obs::install(sim, label);
            let out = reduce(sim);
            // Writes `run_end` with the final ledger; no-op when untraced.
            let _ = sim.finish_trace();
            out
        })
    };
    let Some(dir) = cache_dir() else {
        return run();
    };
    let fp = Fingerprint::of(&(label, cfg, extra));
    let cache = store::global();
    if let Some(bytes) = cache.get(Some(&dir), fp) {
        let mut r = Reader::new(&bytes);
        if let Some(out) = T::decode(&mut r).filter(|_| r.is_empty()) {
            crate::obs::trace_cached_run(label, cfg, fp, out.ledger());
            return out;
        }
        // The record validated at the store layer but does not decode as
        // `T` (e.g. two sites sharing a fingerprint with different result
        // types — a bug, but one that must degrade to recomputation).
    }
    let out = run();
    let mut bytes = Vec::new();
    out.encode(&mut bytes);
    cache.put(Some(&dir), fp, bytes);
    out
}
