//! # mobidist-net — the two-tier mobile-host network substrate
//!
//! A deterministic discrete-event simulator of the operational system model
//! of *Badrinath, Acharya & Imieliński, "Structuring Distributed Algorithms
//! for Mobile Hosts" (ICDCS 1994)*:
//!
//! * `M` fixed hosts (**mobile support stations**, MSSs) joined by a wired
//!   network with reliable, FIFO, arbitrary-latency channels;
//! * `N ≫ M` **mobile hosts** (MHs), each local to at most one cell, talking
//!   to the local MSS over a FIFO wireless channel with *prefix delivery* —
//!   a departing MH receives only a prefix of what was sent;
//! * `join`/`leave`/`disconnect`/`reconnect` choreography with handoff
//!   (the previous MSS id travels with the join);
//! * a **search** service that locates an MH and forwards a message to its
//!   current cell, with eventual delivery however often the target moves;
//! * the paper's **cost model** (`C_fixed`, `C_wireless`, `C_search`) and
//!   battery-energy accounting, charged automatically on every operation.
//!
//! Algorithms implement [`proto::Protocol`] and run under [`sim::Simulation`].
//!
//! ## Example
//!
//! ```
//! use mobidist_net::prelude::*;
//!
//! // An MSS greets every MH that joins a cell.
//! struct Greeter { greetings: u32 }
//!
//! impl Protocol for Greeter {
//!     type Msg = String;
//!     type Timer = ();
//!     fn on_mss_msg(&mut self, _: &mut Ctx<'_, String, ()>, _: MssId, _: Src, _: String) {}
//!     fn on_mh_msg(&mut self, _: &mut Ctx<'_, String, ()>, _: MhId, _: Src, _: String) {
//!         self.greetings += 1;
//!     }
//!     fn on_mh_joined(&mut self, ctx: &mut Ctx<'_, String, ()>,
//!                     mh: MhId, mss: MssId, _prev: Option<MssId>) {
//!         ctx.send_wireless_down(mss, mh, format!("welcome to {mss}")).unwrap();
//!     }
//! }
//!
//! let cfg = NetworkConfig::new(4, 8).with_seed(1);
//! let mut sim = Simulation::new(cfg, Greeter { greetings: 0 });
//! sim.with_ctx(|ctx, _| ctx.initiate_move(MhId(0), Some(MssId(2))));
//! sim.run_to_quiescence(100_000);
//! assert_eq!(sim.protocol().greetings, 1);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod config;
pub mod cost;
pub mod error;
pub mod event;
pub mod fault;
pub mod fingerprint;
pub mod hash;
pub mod host;
pub mod ids;
pub mod kernel;
pub mod lanes;
pub mod latency;
pub mod ledger;
pub mod metrics;
pub mod mobility;
pub mod obs;
pub mod proto;
pub mod rng;
pub mod search;
pub mod shard;
pub mod sim;
pub mod time;

/// Convenient glob import for protocol authors.
pub mod prelude {
    pub use crate::config::{DeliveryMode, LatencyConfig, NetworkConfig, Placement};
    pub use crate::cost::CostModel;
    pub use crate::error::NetError;
    pub use crate::fault::{FaultConfig, FaultEvent, FaultKind};
    pub use crate::host::MhStatus;
    pub use crate::ids::{MhId, MssId};
    pub use crate::latency::LatencyModel;
    pub use crate::ledger::CostLedger;
    pub use crate::metrics::{Histogram, Metrics, MetricsSink};
    pub use crate::mobility::{DisconnectConfig, MobilityConfig, MoveCtx, MovePattern};
    pub use crate::obs::{JsonlSink, RingSink, TraceEvent, TraceSink};
    pub use crate::proto::{Ctx, MsgBatch, Protocol, Src};
    pub use crate::rng::SimRng;
    pub use crate::search::SearchPolicy;
    pub use crate::shard::{run_scale, run_scale_traced, ScaleReport, ScaleSpec};
    pub use crate::sim::{SimPool, Simulation};
    pub use crate::time::SimTime;
}
