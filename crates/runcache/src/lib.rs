//! # mobidist-runcache — content-addressed memoization of simulation runs
//!
//! Every run in this workspace is a pure function of its canonical
//! descriptor (configuration + workload + algorithm tag + seed), so its
//! observable outcome — report, ledger, derived counters — can be stored
//! once and replayed forever. This crate provides that store:
//!
//! * a [`codec`] module with a tiny hand-rolled binary serialization layer
//!   (no external deps, matching the workspace's JSONL-sink precedent);
//! * a [`store`] module with the two-tier [`RunCache`](store::RunCache):
//!   an in-process `FxHash` map for hits within one invocation (repeated
//!   sweep points, resampled seeds) and an on-disk content-addressed store
//!   shared by `experiments` invocations across sessions.
//!
//! The cache is **inactive unless [`CACHE_ENV`] (`MOBIDIST_CACHE`) names a
//! directory** — set by the CLIs' `--cache DIR` flag. When inactive every
//! entry point is a cheap no-op and runs execute exactly as before; results
//! served from a warm cache are byte-identical to cold runs by
//! construction (the fingerprint covers everything a run's outcome depends
//! on, and [`KERNEL_VERSION_SALT`](mobidist_net::fingerprint::KERNEL_VERSION_SALT)
//! invalidates everything on behaviour changes).
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
pub mod reports;
pub mod store;

/// Environment variable naming the on-disk cache directory; when unset the
/// run cache (both tiers) is inactive.
pub const CACHE_ENV: &str = "MOBIDIST_CACHE";

/// The directory configured via [`CACHE_ENV`], if any.
///
/// Read lazily on every call rather than latched at startup: the CLIs set
/// the variable while parsing arguments, and tests toggle it.
pub fn cache_dir() -> Option<std::path::PathBuf> {
    std::env::var_os(CACHE_ENV)
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from)
}
