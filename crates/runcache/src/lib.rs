//! # mobidist-runcache — a content-addressed record store
//!
//! What is left of the run cache that once memoized experiment runs. The
//! experiments no longer use it: every table run executes. The crate stays
//! only because the benchmark package compiles against it — its store and
//! codec micro-drivers time [`RunCache`](store::RunCache) and the
//! [`CostLedger`](mobidist_net::ledger::CostLedger) codec, and its
//! `sweep_tables` workload sets [`CACHE_ENV`] around two passes.
//!
//! * [`codec`]: a tiny hand-rolled binary serialization layer, down to the
//!   impls the ledger's codec needs;
//! * [`store`]: the two-tier [`RunCache`](store::RunCache), an in-process
//!   `FxHash` map over an on-disk content-addressed store.
//!
//! ## Example
//!
//! ```
//! use mobidist_net::fingerprint::Fingerprint;
//! use mobidist_runcache::codec::{Codec, Reader};
//! use mobidist_runcache::store::RunCache;
//!
//! let dir = std::env::temp_dir().join(format!("runcache-doc-{}", std::process::id()));
//! let cache = RunCache::new();
//! let fp = Fingerprint::of(&("demo", 1u64));
//!
//! assert!(cache.get(Some(&dir), fp).is_none()); // cold
//! let mut bytes = Vec::new();
//! 42u64.encode(&mut bytes);
//! cache.put(Some(&dir), fp, bytes);
//!
//! let hit = cache.get(Some(&dir), fp).expect("warm");
//! assert_eq!(u64::decode(&mut Reader::new(&hit)), Some(42));
//! assert_eq!(cache.stats().hits(), 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod store;

/// `MOBIDIST_CACHE`, the variable that once named the experiments' cache
/// directory. Nothing in this workspace reads it any more; only the
/// benchmark package still sets it.
pub const CACHE_ENV: &str = "MOBIDIST_CACHE";
