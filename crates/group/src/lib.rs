//! # mobidist-group — location management for groups of mobile hosts
//!
//! Section 4 of *"Structuring Distributed Algorithms for Mobile Hosts"*
//! (ICDCS 1994) introduces **group location** — the set of current
//! locations of a process group's mobile members — and compares three
//! strategies for maintaining it:
//!
//! | Strategy | State kept | Group-message cost | Move cost |
//! |----------|-----------|--------------------|-----------|
//! | [`PureSearch`](pure_search::PureSearch) | membership only | `(G−1)(2C_w+C_s)` | 0 |
//! | [`AlwaysInform`](always_inform::AlwaysInform) | per-MH directory `LD(G)` at every member | `(G−1)(2C_w+C_f)` | one directory broadcast per move |
//! | [`LocationView`](location_view::LocationView) | `LV(G)` (occupied cells) at the MSSs + coordinator | `C_w + (LV−1)C_f + G·C_w` | `≤ (LV+3)C_f`, **only for significant moves** |
//!
//! All three implement [`LocationStrategy`](strategy::LocationStrategy) and
//! run under the shared [`GroupHarness`](strategy::GroupHarness), which
//! drives a message workload against the kernel's mobility process and
//! audits delivery and cost.
//!
//! ## Example
//!
//! ```
//! use mobidist_group::prelude::*;
//! use mobidist_net::prelude::*;
//!
//! let members: Vec<MhId> = (0..6u32).map(MhId).collect();
//! let cfg = NetworkConfig::new(4, 6).with_seed(3);
//! let wl = GroupWorkload::new(members.clone(), 10, 100);
//! let mut sim = Simulation::new(cfg, GroupHarness::new(PureSearch::new(members), wl));
//! sim.run_until(SimTime::from_ticks(1_000_000));
//! let r = sim.protocol().report();
//! assert_eq!(r.sent, 10);
//! assert_eq!(r.missed, 0);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod always_inform;
pub mod exactly_once;
pub mod location_view;
pub mod pure_search;
pub mod strategy;

/// Convenient glob import.
pub mod prelude {
    pub use crate::always_inform::{AiMsg, AiPayload, AlwaysInform};
    pub use crate::exactly_once::{EoMsg, ExactlyOnce};
    pub use crate::location_view::{LocationView, LvMsg};
    pub use crate::pure_search::{PsMsg, PureSearch};
    pub use crate::strategy::{
        Delivery, GroupCtx, GroupHarness, GroupReport, GroupTimer, GroupWorkload, LocationStrategy,
        SequenceDigest,
    };
}
