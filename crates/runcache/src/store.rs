//! The two-tier content-addressed run store.
//!
//! **Memory tier** — an `FxHash` map from [`Fingerprint`] to the encoded
//! record, shared by every thread of the process. Bounded by
//! [`MEM_CAP_BYTES`] with FIFO eviction so it cannot exhaust memory.
//!
//! **Disk tier** — one flat binary file per fingerprint under the
//! configured directory, named by the fingerprint's hex form (sharded by
//! its first two digits to keep directories small):
//!
//! ```text
//! <dir>/ab/cdef0123…89.mdrc
//! ```
//!
//! Record layout: `"MDRC"` magic, format version (`u64` LE), payload
//! length (`u64` LE), payload bytes, and a 64-bit payload checksum. Writes
//! go to a temp file then `rename`, so concurrent writers (two threads or
//! two processes storing the same record) can only ever produce complete
//! records. Reads validate
//! everything — magic, version, length, checksum — and **any** failure is
//! a miss plus a `corrupt` count, never a panic: a damaged cache can cost
//! recomputation but can never poison results.

use crate::codec::Reader;
use mobidist_net::fingerprint::{CanonHasher, Fingerprint};
use mobidist_net::hash::FxHashMap;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk record format version. Bumped whenever any
/// [`Codec`](crate::codec::Codec) impl changes shape; records with another
/// version are treated as absent (not corrupt — they are simply for a
/// different reader).
pub const FORMAT_VERSION: u64 = 1;

/// Memory-tier capacity in payload bytes (records beyond it evict the
/// oldest entries first).
pub const MEM_CAP_BYTES: usize = 64 << 20;

const MAGIC: &[u8; 4] = b"MDRC";
const EXT: &str = "mdrc";

fn checksum(payload: &[u8]) -> u64 {
    let mut h = CanonHasher::new();
    h.write_bytes(payload);
    h.finish().hi
}

/// Monotonic counters describing cache behaviour; snapshot via
/// [`RunCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by the in-process map.
    pub mem_hits: u64,
    /// Lookups satisfied by reading a disk record.
    pub disk_hits: u64,
    /// Lookups that found nothing valid in either tier.
    pub misses: u64,
    /// Records stored.
    pub stores: u64,
    /// Memory-tier records evicted to stay under [`MEM_CAP_BYTES`].
    pub evictions: u64,
    /// Disk records rejected by validation (bad magic/length/checksum or
    /// undecodable payload).
    pub corrupt: u64,
}

impl CacheStats {
    /// Total lookups satisfied from either tier.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }
}

#[derive(Debug, Default)]
struct MemTier {
    map: FxHashMap<Fingerprint, Arc<Vec<u8>>>,
    order: VecDeque<Fingerprint>,
    bytes: usize,
}

/// The two-tier content-addressed store; usually accessed through
/// [`global`].
#[derive(Debug, Default)]
pub struct RunCache {
    mem: Mutex<MemTier>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
    corrupt: AtomicU64,
}

/// The process-wide cache instance.
pub fn global() -> &'static RunCache {
    static GLOBAL: OnceLock<RunCache> = OnceLock::new();
    GLOBAL.get_or_init(RunCache::default)
}

impl RunCache {
    /// An empty cache (tests; production code uses [`global`]).
    pub fn new() -> Self {
        RunCache::default()
    }

    /// Looks `fp` up in the memory tier, then (when `dir` is given) on
    /// disk. A disk hit is promoted into the memory tier. Returns the
    /// encoded payload, or `None` — which is counted as a miss.
    pub fn get(&self, dir: Option<&Path>, fp: Fingerprint) -> Option<Arc<Vec<u8>>> {
        if let Some(hit) = self.mem.lock().expect("cache lock").map.get(&fp).cloned() {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        if let Some(payload) = dir.and_then(|d| self.read_record(d, fp)) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            let payload = Arc::new(payload);
            self.insert_mem(fp, payload.clone());
            return Some(payload);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores `payload` under `fp` in the memory tier and (when `dir` is
    /// given) on disk. Disk failures are silently ignored — the cache is
    /// best-effort by design.
    pub fn put(&self, dir: Option<&Path>, fp: Fingerprint, payload: Vec<u8>) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        let payload = Arc::new(payload);
        self.insert_mem(fp, payload.clone());
        if let Some(dir) = dir {
            let _ = self.write_record(dir, fp, &payload);
        }
    }

    /// Drops every memory-tier record (counters keep accumulating). Used
    /// by tests and the benchmark to force the disk tier to be exercised.
    pub fn clear_memory(&self) {
        let mut mem = self.mem.lock().expect("cache lock");
        mem.map.clear();
        mem.order.clear();
        mem.bytes = 0;
    }

    /// Snapshot of the monotonic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    fn insert_mem(&self, fp: Fingerprint, payload: Arc<Vec<u8>>) {
        let mut mem = self.mem.lock().expect("cache lock");
        if let Some(old) = mem.map.insert(fp, payload.clone()) {
            // Replacement: same fingerprint, adjust bytes only.
            mem.bytes = mem.bytes - old.len() + payload.len();
            return;
        }
        mem.bytes += payload.len();
        mem.order.push_back(fp);
        while mem.bytes > MEM_CAP_BYTES {
            let Some(oldest) = mem.order.pop_front() else {
                break;
            };
            if let Some(evicted) = mem.map.remove(&oldest) {
                mem.bytes -= evicted.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Path of the record for `fp` under `dir`.
    pub fn record_path(dir: &Path, fp: Fingerprint) -> PathBuf {
        let hex = fp.to_hex();
        dir.join(&hex[..2]).join(format!("{}.{EXT}", &hex[2..]))
    }

    fn read_record(&self, dir: &Path, fp: Fingerprint) -> Option<Vec<u8>> {
        let bytes = match std::fs::read(Self::record_path(dir, fp)) {
            Ok(b) => b,
            Err(_) => return None, // absent (or unreadable): plain miss
        };
        let mut r = Reader::new(&bytes);
        let valid = (|| {
            if r.bytes(4)? != MAGIC {
                return None;
            }
            if r.u64()? != FORMAT_VERSION {
                // A different format version is absence, not corruption.
                return Some(None);
            }
            let len = usize::try_from(r.u64()?).ok()?;
            let payload = r.bytes(len)?.to_vec();
            let sum = r.u64()?;
            if !r.is_empty() || sum != checksum(&payload) {
                return None;
            }
            Some(Some(payload))
        })();
        match valid {
            Some(payload) => payload,
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn write_record(&self, dir: &Path, fp: Fingerprint, payload: &[u8]) -> std::io::Result<()> {
        let path = Self::record_path(dir, fp);
        let parent = path.parent().expect("record path has a shard directory");
        std::fs::create_dir_all(parent)?;
        let mut record = Vec::with_capacity(payload.len() + 28);
        record.extend_from_slice(MAGIC);
        record.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        record.extend_from_slice(payload);
        record.extend_from_slice(&checksum(payload).to_le_bytes());
        // Temp-then-rename: readers can never observe a partial record.
        let tmp = parent.join(format!(".{}.{}.tmp", std::process::id(), fp.to_hex()));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&record)?;
        }
        let renamed = std::fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mobidist-runcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&("store-test", n))
    }

    #[test]
    fn memory_tier_round_trip_and_counters() {
        let c = RunCache::new();
        assert!(c.get(None, fp(1)).is_none());
        c.put(None, fp(1), vec![1, 2, 3]);
        assert_eq!(c.get(None, fp(1)).as_deref(), Some(&vec![1, 2, 3]));
        let s = c.stats();
        assert_eq!((s.mem_hits, s.disk_hits, s.misses, s.stores), (1, 0, 1, 1));
    }

    #[test]
    fn disk_tier_survives_memory_clear_and_promotes() {
        let dir = temp_dir("disk");
        let c = RunCache::new();
        c.put(Some(&dir), fp(2), vec![9; 100]);
        c.clear_memory();
        assert_eq!(c.get(Some(&dir), fp(2)).as_deref(), Some(&vec![9; 100]));
        assert_eq!(c.stats().disk_hits, 1);
        // Promoted: second lookup is a memory hit.
        assert_eq!(c.get(Some(&dir), fp(2)).as_deref(), Some(&vec![9; 100]));
        assert_eq!(c.stats().mem_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_records_are_misses_never_panics() {
        let dir = temp_dir("corrupt");
        let c = RunCache::new();
        c.put(Some(&dir), fp(3), vec![5; 64]);
        let path = RunCache::record_path(&dir, fp(3));

        // Truncated record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        c.clear_memory();
        assert!(c.get(Some(&dir), fp(3)).is_none());

        // Garbled payload byte (checksum mismatch).
        let mut garbled = full.clone();
        garbled[24] ^= 0xff;
        std::fs::write(&path, &garbled).unwrap();
        assert!(c.get(Some(&dir), fp(3)).is_none());

        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(c.get(Some(&dir), fp(3)).is_none());

        // Empty file.
        std::fs::write(&path, b"").unwrap();
        assert!(c.get(Some(&dir), fp(3)).is_none());

        assert_eq!(c.stats().corrupt, 4);
        assert_eq!(c.stats().misses, 4);

        // A valid record written over the damage is served again.
        c.put(Some(&dir), fp(3), vec![5; 64]);
        c.clear_memory();
        assert_eq!(c.get(Some(&dir), fp(3)).as_deref(), Some(&vec![5; 64]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_format_version_is_absence_not_corruption() {
        let dir = temp_dir("version");
        let c = RunCache::new();
        c.put(Some(&dir), fp(4), vec![1]);
        let path = RunCache::record_path(&dir, fp(4));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..12].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        c.clear_memory();
        assert!(c.get(Some(&dir), fp(4)).is_none());
        assert_eq!(c.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_eviction_respects_the_byte_cap() {
        let c = RunCache::new();
        let big = MEM_CAP_BYTES / 2 + 1;
        c.put(None, fp(10), vec![0; big]);
        c.put(None, fp(11), vec![0; big]);
        c.put(None, fp(12), vec![0; big]); // evicts fp(10) then fp(11)
        assert!(c.get(None, fp(10)).is_none());
        assert!(c.get(None, fp(12)).is_some());
        assert_eq!(c.stats().evictions, 2);
    }
}
