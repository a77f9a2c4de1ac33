//! # mobidist-core — mobile mutual exclusion
//!
//! The mutual-exclusion suite of *"Structuring Distributed Algorithms for
//! Mobile Hosts"* (ICDCS 1994), built on the
//! [`mobidist-net`](mobidist_net) two-tier simulator:
//!
//! | Algorithm | Where it runs | Paper's verdict |
//! |-----------|---------------|-----------------|
//! | [`L1`](l1::L1)   | Lamport's algorithm on the `N` MHs | baseline: `3(N−1)(2C_w+C_s)` per execution, stalls on disconnect |
//! | [`L2`](l2::L2)   | Lamport's algorithm at the `M` MSS proxies | redesign: constant search cost, 3 wireless msgs per execution |
//! | [`L2C`](l2c::L2c) | flat-combining L2: each MSS batches its cell's requests into one Lamport entry | extension: `(k+1)/k` wireless msgs per execution at batch size `k` |
//! | [`R1`](r1::R1)   | Le Lann token ring over the MHs | baseline: `N(2C_w+C_s)` per traversal regardless of demand |
//! | [`R2`](r2::R2)   | token ring over the MSSs (plain / counter / token-list guards) | redesign: cost ∝ requests served |
//!
//! All algorithms implement [`MutexAlgorithm`](algorithm::MutexAlgorithm)
//! and run under the shared [`MutexHarness`](harness::MutexHarness), which
//! drives a closed-loop workload and checks safety (one holder at a time),
//! fairness (timestamp order where applicable) and liveness.
//!
//! ## Example
//!
//! ```
//! use mobidist_core::prelude::*;
//! use mobidist_net::prelude::*;
//!
//! let cfg = NetworkConfig::new(4, 8).with_seed(7);
//! let wl = WorkloadConfig::all_mhs(8, 2);
//! let harness = MutexHarness::new(L2::new(4), wl);
//! let mut sim = Simulation::new(cfg, harness);
//! sim.run_until(SimTime::from_ticks(2_000_000));
//! let report = sim.protocol().report();
//! assert!(report.is_clean_and_live());
//! assert_eq!(report.completed, 16);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithm;
pub mod checker;
pub mod harness;
pub mod l1;
pub mod l2;
pub mod l2c;
mod lamport;
pub mod r1;
pub mod r2;

/// Convenient glob import.
pub mod prelude {
    pub use crate::algorithm::{AlgoCtx, Effect, HarnessTimer, MutexAlgorithm};
    pub use crate::checker::{Episode, EpisodeLog, SafetyChecker};
    pub use crate::harness::{MutexHarness, MutexReport, WorkloadConfig};
    pub use crate::l1::{L1Msg, L1};
    pub use crate::l2::{L2Msg, L2};
    pub use crate::l2c::{L2c, L2cMsg};
    pub use crate::r1::{R1DisconnectPolicy, R1Msg, R1Timer, R1};
    pub use crate::r2::{R2Msg, RingGuard, TokenState, R2};
}
