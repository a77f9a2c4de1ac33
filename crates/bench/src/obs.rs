//! Opt-in trace capture for experiment sweeps.
//!
//! When `MOBIDIST_TRACE=<path>` is set (the `experiments` CLI sets it from
//! `--trace <path>`), every traced run attaches a
//! [`JsonlSink`] before it starts and writes
//! a `run_begin`/events/`run_end` envelope. Because sweeps fan out across
//! worker threads and one file cannot be appended from many threads without
//! interleaving lines, each worker thread writes its own part file
//! (`<path>.w<K>`); [`merge_worker_files`] then folds the parts into
//! `<path>`, grouping lines by run id — within a run, file order is already
//! `(time, seq)` order because both are monotone per kernel.
//!
//! Run ids come from a process-wide counter, so *which* id a run gets is
//! scheduling-dependent under `--jobs > 1` — but every run's event stream,
//! and therefore every trace-derived count, is byte-deterministic (pinned
//! by the `trace` axis of the bench crate's `differential` test).

use mobidist_net::config::NetworkConfig;
use mobidist_net::fingerprint::Fingerprint;
use mobidist_net::ledger::CostLedger;
use mobidist_net::obs::{jsonl_file_sink, JsonlSink, RunMeta, TraceEvent, TraceSink};
use mobidist_net::proto::Protocol;
use mobidist_net::sim::Simulation;
use mobidist_net::time::SimTime;
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable naming the trace output path; unset means tracing
/// is disabled and simulations run with no sink installed.
pub const TRACE_ENV: &str = "MOBIDIST_TRACE";

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);
static WORKER_COUNTER: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static WORKER_ID: u64 = WORKER_COUNTER.fetch_add(1, Ordering::Relaxed);
}

/// The trace base path from [`TRACE_ENV`], when tracing is enabled.
pub fn trace_base() -> Option<PathBuf> {
    match std::env::var(TRACE_ENV) {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Part file number `part` of `base`.
fn part_file(base: &Path, part: u64) -> PathBuf {
    let mut os = base.as_os_str().to_owned();
    os.push(format!(".w{part}"));
    PathBuf::from(os)
}

type FileSink = JsonlSink<std::fs::File>;

/// Opens a sink for a new run — the next run id, its `run_begin` line
/// written — appending to part file `part` (this thread's own when `None`).
/// A file that cannot be opened costs the run its trace, not its result.
fn open_run(base: &Path, part: Option<u64>, label: &str, cfg: &NetworkConfig) -> Option<FileSink> {
    let run = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    let part = part.unwrap_or_else(|| WORKER_ID.with(|id| *id));
    jsonl_file_sink(&part_file(base, part), RunMeta::new(run, label, cfg))
        .map_err(|e| eprintln!("warning: cannot open trace file: {e}"))
        .ok()
}

/// Attaches a JSONL sink for one labelled run when tracing is enabled
/// (no-op otherwise). Call after the simulation is built and before it
/// runs; `Simulation::finish_trace` ends the run's envelope.
pub fn install<P: Protocol>(sim: &mut Simulation<P>, label: &str) {
    let Some(base) = trace_base() else { return };
    if let Some(sink) = open_run(&base, None, label, sim.kernel().config()) {
        sim.set_trace_sink(Box::new(sink));
    }
}

/// Opens one trace sink per shard of a space-sharded run (empty when
/// tracing is disabled).
///
/// Each shard records as an independent run — its own run id, a dense
/// per-shard `seq`, and a `run_end` carrying the shard's own ledger — into
/// its own part file, because the shards write concurrently and one append
/// stream cannot be shared. Part suffixes draw from the same counter as
/// per-thread worker parts, so the two namespaces never collide, and
/// [`merge_worker_files`] folds shard parts into the final trace exactly
/// like worker parts: grouped by run id.
pub fn install_shard_sinks(
    label: &str,
    cfg: &NetworkConfig,
    shards: usize,
) -> Vec<Box<dyn TraceSink>> {
    let Some(base) = trace_base() else {
        return Vec::new();
    };
    let mut sinks: Vec<Box<dyn TraceSink>> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let part = WORKER_COUNTER.fetch_add(1, Ordering::Relaxed);
        match open_run(&base, Some(part), label, cfg) {
            Some(sink) => sinks.push(Box::new(sink)),
            None => return Vec::new(),
        }
    }
    sinks
}

/// Writes the trace envelope for a run served from the run cache (no-op
/// when tracing is disabled).
///
/// A cache hit replays a stored outcome without executing the kernel, so
/// there is no event stream to capture; instead the run appears in the
/// trace as `run_begin`, a single [`TraceEvent::CacheHit`] carrying the
/// descriptor fingerprint, and a `run_end` built from the **cached**
/// ledger. `tracereport --check` exempts such runs from event-count
/// identity for exactly this reason.
pub fn trace_cached_run(label: &str, cfg: &NetworkConfig, fp: Fingerprint, ledger: &CostLedger) {
    let Some(base) = trace_base() else { return };
    if let Some(mut sink) = open_run(&base, None, label, cfg) {
        let hit = TraceEvent::CacheHit {
            fp_hi: fp.hi,
            fp_lo: fp.lo,
        };
        sink.record(SimTime::ZERO, 0, &hit);
        sink.finish(ledger);
    }
}

/// Merges the per-worker part files of `base` into `base` itself and
/// deletes the parts.
///
/// Runs are emitted in ascending run id with their in-file line order
/// preserved (already `(time, seq)`-sorted within a run). Each run lives
/// wholly in one part file, so grouping lines by their `"run":N` envelope
/// field is a total, order-preserving merge.
///
/// One pass over the parts indexes `(run id, part, byte range)`; the ranges
/// are then copied out in run-id order, so memory holds the index and one
/// copy buffer whatever the size of the trace. A run normally is one range;
/// one whose lines are not contiguous in its part is several.
///
/// # Errors
///
/// Propagates I/O errors; a malformed part line (no `"run":` field) is
/// reported as `InvalidData`.
pub fn merge_worker_files(base: &Path) -> std::io::Result<usize> {
    use std::io::{Error, ErrorKind};
    let dir = base.parent().filter(|p| !p.as_os_str().is_empty());
    let stem = base
        .file_name()
        .ok_or_else(|| Error::new(ErrorKind::InvalidInput, "empty trace path"))?
        .to_string_lossy()
        .into_owned();
    let mut parts: Vec<PathBuf> = std::fs::read_dir(dir.unwrap_or(Path::new(".")))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().map(|n| n.to_string_lossy()).is_some_and(|n| {
                n.strip_prefix(&stem)
                    .and_then(|rest| rest.strip_prefix(".w"))
                    .is_some_and(|k| !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()))
            })
        })
        .collect();
    parts.sort();

    /// Bytes `start..end` of part number `part`: consecutive lines of `run`.
    struct Span {
        run: u64,
        part: usize,
        start: u64,
        end: u64,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut line = Vec::new();
    for (part, path) in parts.iter().enumerate() {
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut at = 0u64;
        loop {
            line.clear();
            let len = file.read_until(b'\n', &mut line)? as u64;
            if len == 0 {
                break;
            }
            let (start, end) = (at, at + len);
            at = end;
            let text = std::str::from_utf8(&line).map_err(|e| {
                Error::new(ErrorKind::InvalidData, format!("{}: {e}", path.display()))
            })?;
            if text.trim().is_empty() {
                continue;
            }
            let run = run_id_of(text).ok_or_else(|| {
                Error::new(
                    ErrorKind::InvalidData,
                    format!(
                        "trace line without run id in {}: {:?}",
                        path.display(),
                        text.trim_end()
                    ),
                )
            })?;
            match spans.last_mut() {
                Some(s) if (s.run, s.part, s.end) == (run, part, start) => s.end = end,
                _ => spans.push(Span {
                    run,
                    part,
                    start,
                    end,
                }),
            }
        }
    }
    // Stable: the spans of one run stay in scan order.
    spans.sort_by_key(|s| s.run);

    let mut count = 0;
    let mut out = std::io::BufWriter::new(std::fs::File::create(base)?);
    let mut open: Option<(usize, std::fs::File)> = None;
    let mut chunk = vec![0u8; 1 << 16];
    for (i, span) in spans.iter().enumerate() {
        count += usize::from(i == 0 || spans[i - 1].run != span.run);
        if open.as_ref().map(|o| o.0) != Some(span.part) {
            open = Some((span.part, std::fs::File::open(&parts[span.part])?));
        }
        let file = &mut open.as_mut().expect("opened above").1;
        file.seek(SeekFrom::Start(span.start))?;
        let (mut left, mut last) = (span.end - span.start, b'\n');
        while left > 0 {
            let want = chunk.len().min(usize::try_from(left).unwrap_or(usize::MAX));
            file.read_exact(&mut chunk[..want])?;
            out.write_all(&chunk[..want])?;
            last = chunk[want - 1];
            left -= want as u64;
        }
        // Only a part's final line can lack its newline.
        if last != b'\n' {
            out.write_all(b"\n")?;
        }
    }
    out.flush()?;
    for part in parts {
        let _ = std::fs::remove_file(part);
    }
    Ok(count)
}

/// Extracts the value of the `"run":` field from a schema line.
fn run_id_of(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"run\":")? + 6..];
    let end = rest
        .bytes()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_id_extraction() {
        assert_eq!(run_id_of("{\"v\":1,\"run\":42,\"ev\":\"x\"}"), Some(42));
        assert_eq!(run_id_of("{\"v\":1}"), None);
    }

    #[test]
    fn merge_groups_runs_across_parts() {
        let dir = std::env::temp_dir().join(format!("mobidist-merge-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("trace.jsonl");
        let line = |run: u64, ev: &str| format!("{{\"v\":1,\"run\":{run},\"ev\":\"{ev}\"}}\n");
        // Part 0 holds two runs whose ids interleave with part 1's, the
        // second of them split around a blank line and a line of run 1.
        let w0 = [
            line(1, "run_begin"),
            line(1, "run_end"),
            line(3, "run_begin"),
            "\n".to_owned(),
            line(3, "a"),
            line(1, "straggler"),
            line(3, "run_end"),
        ];
        // Part 1's last line lacks its newline.
        let w1 = [
            line(0, "run_begin"),
            line(0, "run_end"),
            line(2, "run_begin"),
            line(2, "run_end").trim_end().to_owned(),
        ];
        std::fs::write(dir.join("trace.jsonl.w0"), w0.concat()).unwrap();
        std::fs::write(dir.join("trace.jsonl.w1"), w1.concat()).unwrap();
        let merged = merge_worker_files(&base).unwrap();
        assert_eq!(merged, 4);
        let text = std::fs::read_to_string(&base).unwrap();
        let want = [
            line(0, "run_begin"),
            line(0, "run_end"),
            line(1, "run_begin"),
            line(1, "run_end"),
            line(1, "straggler"),
            line(2, "run_begin"),
            line(2, "run_end"),
            line(3, "run_begin"),
            line(3, "a"),
            line(3, "run_end"),
        ];
        assert_eq!(text, want.concat());
        assert!(!dir.join("trace.jsonl.w0").exists());
        assert!(!dir.join("trace.jsonl.w1").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
