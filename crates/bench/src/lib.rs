//! # mobidist-bench — the experiment harness
//!
//! Regenerates every cost comparison in *"Structuring Distributed
//! Algorithms for Mobile Hosts"* (ICDCS 1994) as a measured table printed
//! against the paper's closed-form prediction. One table function exists
//! per experiment (`e0`…`e14`); the root crate's `experiments` binary is
//! their one launcher, so
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! ```
//!
//! (`make bench`) reprints the paper's entire evaluation. See DESIGN.md for the experiment
//! index and EXPERIMENTS.md for recorded paper-vs-measured results.
//!
//! Each experiment also has a `quick` mode exercised by unit tests, so the
//! claims are checked on every `cargo test` run as well.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod exp_fault;
pub mod exp_group;
pub mod exp_model;
pub mod exp_mutex;
pub mod exp_proxy;
pub mod exp_scale;
pub mod exp_serve;
pub mod obs;
pub mod parallel;
pub mod stats;
pub mod table;

pub use stats::Summary;
pub use table::Table;
