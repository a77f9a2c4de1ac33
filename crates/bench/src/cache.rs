//! Experiment-level glue over the [`mobidist_runcache`] store.
//!
//! Every run in this crate goes through `run_cached`: given the canonical
//! descriptor of a run (site label + [`NetworkConfig`] + the
//! workload/tuning extras) it either replays a stored outcome or executes
//! the run on a freshly built simulation, stores the outcome and returns it.
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
//! (`run_l1`, `run_strategy`, …) use the algorithm name; direct
//! construction sites in E3/E7/E10 use site-specific labels (`"e3_l1"`,
//! `"e10_proxy"`, …). The label doubles as the run's name in a trace.

use crate::exp_group::GroupRun;
use crate::exp_mutex::MutexRun;
use crate::exp_serve::ServeRun;
use mobidist_net::config::NetworkConfig;
use mobidist_net::fingerprint::{CanonHash, Fingerprint};
use mobidist_net::ledger::CostLedger;
use mobidist_net::proto::Protocol;
use mobidist_net::sim::Simulation;
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
/// The run itself: a simulation built from `(cfg, build())` gets a trace
/// sink when tracing is enabled ([`crate::obs`]), and `reduce` drives it
/// and extracts the outcome.
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
    label: &str,
    cfg: &NetworkConfig,
    extra: &impl CanonHash,
    build: impl FnOnce() -> P,
    reduce: impl FnOnce(&mut Simulation<P>) -> T,
) -> T {
    let run = || {
        let mut sim = Simulation::new(cfg.clone(), build());
        crate::obs::install(&mut sim, label);
        let out = reduce(&mut sim);
        // Writes `run_end` with the final ledger; no-op when untraced.
        let _ = sim.finish_trace();
        out
    };
    let Some(dir) = cache_dir() else {
        return run();
    };
    let fp = Fingerprint::of(&(label, cfg, extra));
    let cache = store::global();
    if let Some(bytes) = cache.get(Some(&dir), fp) {
        if let Some(out) = decode_exact::<T>(&bytes) {
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

/// Decodes a stored record as exactly one `T`: a record with bytes left
/// over is refused like one that does not decode at all.
fn decode_exact<T: Codec>(bytes: &[u8]) -> Option<T> {
    let mut r = Reader::new(bytes);
    T::decode(&mut r).filter(|_| r.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp_group::run_strategy;
    use crate::exp_mutex::{run_l2, run_r1, run_r2};
    use crate::exp_serve::{run_serve, ServeAlgo};
    use mobidist_core::prelude::*;
    use mobidist_group::prelude::*;
    use mobidist_net::prelude::*;
    use mobidist_net::rng::SimRng;

    /// Encodes `value` and checks what a damaged record can do to it: every
    /// truncation fails to decode, every single-byte flip (a seeded nonzero
    /// mask per position) decodes to `None` or to some value without
    /// panicking, and one trailing byte makes `run_cached`'s exact decode
    /// refuse the record.
    fn damage<T: Outcome>(value: &T, rng: &mut SimRng) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let back = decode_exact::<T>(&bytes).expect("an intact record decodes");
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes, "round trip changed the record");
        for len in 0..bytes.len() {
            let cut = T::decode(&mut Reader::new(&bytes[..len]));
            assert!(cut.is_none(), "a {len}-byte truncation decoded");
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 + rng.below(255) as u8;
            let _ = decode_exact::<T>(&flipped);
        }
        bytes.push(0);
        assert!(
            decode_exact::<T>(&bytes).is_none(),
            "trailing byte accepted"
        );
    }

    #[test]
    fn damaged_records_of_every_stored_shape_never_panic() {
        let mut rng = SimRng::seed_from(0xC0DEC);
        let roaming = |seed| {
            NetworkConfig::new(4, 6)
                .with_seed(seed)
                .with_mobility(MobilityConfig::moving(500))
        };
        let wl = || WorkloadConfig::all_mhs(6, 2).with_think(200);
        let l2 = run_l2(roaming(1), 2, 60_000);
        damage(&l2, &mut rng);
        // E10's shape: a ledger plus the proxy report's five counters.
        damage(
            &(l2.ledger.clone(), (1u64, 2u64, 3u64, 4u64, 5u64)),
            &mut rng,
        );
        damage(&run_r1(roaming(2), wl(), 60_000), &mut rng);
        let liar = Some(MhId(0));
        damage(
            &run_r2(roaming(3), RingGuard::Counter, wl(), 60_000, liar),
            &mut rng,
        );
        let members: Vec<MhId> = (0..6).map(MhId).collect();
        for which in ["pure-search", "location-view"] {
            let gwl = GroupWorkload::new(members.clone(), 6, 300);
            let run = run_strategy(roaming(4), which, members.clone(), gwl, 40_000);
            damage(&run, &mut rng);
        }
        let serve_wl = WorkloadConfig::all_mhs(6, 2).with_think(200).with_hold(10);
        let served = run_serve(ServeAlgo::L2c, "e13_l2c", roaming(5), serve_wl);
        assert!(served.batches > 0, "L2C combined nothing");
        damage(&served, &mut rng);
    }
}
