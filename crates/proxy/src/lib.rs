//! # mobidist-proxy — separating mobility from algorithm design
//!
//! Section 5 of *"Structuring Distributed Algorithms for Mobile Hosts"*
//! (ICDCS 1994) proposes associating a **proxy** — a fixed host — with each
//! mobile host, and running distributed algorithms *at the proxies*: one
//! layer executes an unchanged static-host algorithm over the proxies, the
//! other layer handles mobility (input/output routing, location updates or
//! handoffs). The association is characterised by the proxy's **scope**
//! (which MHs it serves: [`ProxyPolicy::Fixed`](framework::ProxyPolicy) vs
//! [`ProxyPolicy::LocalMss`](framework::ProxyPolicy)) and its
//! **obligations** (what it does when its MH moves mid-computation — here,
//! forwarding outputs with a search).
//!
//! ## Example
//!
//! ```
//! use mobidist_proxy::prelude::*;
//! use mobidist_net::prelude::*;
//!
//! let clients: Vec<MhId> = (0..4u32).map(MhId).collect();
//! let rt = ProxyRuntime::new(
//!     EchoService::new(),
//!     clients,
//!     ProxyPolicy::LocalMss,
//!     ProxyWorkload::default(),
//! );
//! let mut sim = Simulation::new(NetworkConfig::new(3, 4).with_seed(1), rt);
//! sim.run_to_quiescence(1_000_000);
//! let r = sim.protocol().report();
//! assert_eq!(r.inputs_sent, r.outputs_delivered);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod algorithms;
pub mod framework;

/// Convenient glob import.
pub mod prelude {
    pub use crate::algorithms::{Barrier, BarrierMsg, CentralCounter, CounterMsg, EchoService};
    pub use crate::framework::{
        ProcId, ProxyPolicy, ProxyReport, ProxyRuntime, ProxyWorkload, PrxMsg, PrxTimer,
        StaticAlgorithm, StaticCtx,
    };
}
