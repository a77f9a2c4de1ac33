//! Deterministic fan-out of independent simulation runs.
//!
//! Every simulation run is fully determined by its `(config, seed)` pair, so
//! an experiment sweep is embarrassingly parallel: [`map_indexed_with`] fans the
//! work items across `std::thread::scope` workers and collects results **by
//! input index**, so the assembled output — and therefore every experiment
//! table — is byte-identical to the sequential path regardless of worker
//! count or scheduling. `--jobs 1` (or `MOBIDIST_JOBS=1`) falls back to a
//! plain in-thread loop.
//!
//! No external crates: work distribution is a mutex-guarded deque drained in
//! small adaptive chunks (up to 4 items per lock acquisition while the queue
//! is long, one-at-a-time near the tail for load balance) and results travel
//! over `std::sync::mpsc`.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Mutex;

/// Worker count to use: `MOBIDIST_JOBS` when set (clamped to ≥ 1),
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("MOBIDIST_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// True when spreading work over `jobs` threads would oversubscribe the
/// machine: more than one worker contending for a single hardware thread.
///
/// On a 1-CPU box the fan-out buys no concurrency and the queue/channel
/// overhead plus context switches make "parallel" runs *slower* than the
/// sequential loop. [`map_indexed_with`] consults this to fall back to the
/// sequential path — which is byte-identical by the ordering guarantee.
pub fn oversubscribed(jobs: usize) -> bool {
    jobs > 1 && std::thread::available_parallelism().map_or(1, |n| n.get()) == 1
}

/// Applies `f` to every `(index, item)` pair on up to `jobs` scoped worker
/// threads and returns the results **in input order**.
///
/// Ordering guarantee: the output vector at position `i` holds
/// `f(state, i, items[i])` exactly as the sequential loop would produce it;
/// thread scheduling can never reorder, duplicate or drop a slot. A panic in
/// any worker propagates once the scope joins.
///
/// Each worker thread (and the sequential fallback) builds one `W` with
/// `make_state` and threads it through every item it processes. Sweeps pass a
/// [`SimPool`](mobidist_net::prelude::SimPool) here so consecutive points on
/// the same worker recycle one simulation's allocations instead of
/// rebuilding them. `W` must not influence results (a pool doesn't: a reset
/// simulation replays byte-identically) — which worker processes which item
/// is scheduling-dependent.
///
/// # Examples
///
/// ```
/// use mobidist_bench::parallel::map_indexed_with;
/// // Per-worker scratch buffer, reused across items on the same worker.
/// let out = map_indexed_with(
///     vec![3u64, 1, 2],
///     2,
///     Vec::new,
///     |buf: &mut Vec<u64>, i, x| {
///         buf.clear();
///         buf.extend(0..x);
///         buf.len() as u64 + i as u64
///     },
/// );
/// assert_eq!(out, vec![3, 2, 4]);
/// ```
pub fn map_indexed_with<I, T, W>(
    items: Vec<I>,
    jobs: usize,
    make_state: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize, I) -> T + Sync,
) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    let mut jobs = jobs.max(1).min(n.max(1));
    if oversubscribed(jobs) {
        // Spawning threads a 1-CPU machine must time-slice only adds
        // overhead; the sequential path produces the same bytes.
        jobs = 1;
    }
    if jobs == 1 || n <= 1 {
        // Sequential fallback: the reference path parallel runs must match.
        let mut w = make_state();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(&mut w, i, x))
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let queue = &queue;
            let f = &f;
            let make_state = &make_state;
            s.spawn(move || {
                let mut w = make_state();
                // Pop work in small adaptive chunks: one lock acquisition
                // per chunk instead of per item cuts queue overhead on
                // fast items, while the `q.len() / (jobs * 2)` bound keeps
                // the tail balanced — near the end of the queue workers
                // fall back to one-at-a-time. Results still carry their
                // input index, so the ordering guarantee is untouched.
                let mut batch = Vec::with_capacity(4);
                'work: loop {
                    {
                        let mut q = queue.lock().expect("work queue poisoned");
                        if q.is_empty() {
                            break;
                        }
                        let take = (q.len() / (jobs * 2)).clamp(1, 4);
                        batch.extend(q.drain(..take));
                    }
                    for (i, x) in batch.drain(..) {
                        if tx.send((i, f(&mut w, i, x))).is_err() {
                            break 'work;
                        }
                    }
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        for (i, r) in rx {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|o| o.expect("every index produced exactly once"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        // Make later items finish first: result order must still be stable.
        let items: Vec<u64> = (0..32).collect();
        let out = map_indexed_with(
            items,
            8,
            || (),
            |(), _, x| {
                std::thread::sleep(std::time::Duration::from_micros(200 * (32 - x)));
                x * 10
            },
        );
        assert_eq!(out, (0..32).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let work = |(): &mut (), i: usize, x: u64| (i as u64) * 1000 + x * x;
        let items: Vec<u64> = (0..50).collect();
        let seq = map_indexed_with(items.clone(), 1, || (), work);
        let par = map_indexed_with(items, 7, || (), work);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = map_indexed_with(
            (0..100usize).collect(),
            4,
            || (),
            |(), i, x| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(i, x);
                x
            },
        );
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = map_indexed_with(Vec::new(), 8, || (), |(), _, x: u8| x);
        assert!(empty.is_empty());
        let one = map_indexed_with(vec![9], 8, || (), |(), _, x| x + 1);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn per_worker_state_is_isolated_and_reused() {
        // Each worker's counter only ever increments within that worker, so
        // every produced value equals the number of items that worker has
        // processed so far — and the sum over all items of "first time this
        // counter value was seen per worker" is consistent. The observable
        // contract: outputs are deterministic per (worker history), and
        // sequential (jobs=1) reuses a single state across all items.
        let seq = map_indexed_with(
            (0..10u64).collect(),
            1,
            || 0u64,
            |c, _, _| {
                *c += 1;
                *c
            },
        );
        assert_eq!(seq, (1..=10).collect::<Vec<_>>());
        let par = map_indexed_with(
            (0..100u64).collect(),
            4,
            || 0u64,
            |c, _, _| {
                *c += 1;
                *c
            },
        );
        // Across workers, each state starts at zero and increments by one
        // per item: the multiset of outputs partitions 100 items into at
        // most 4 runs of 1..=k.
        assert_eq!(par.len(), 100);
        assert!(par.iter().all(|&v| (1..=100).contains(&v)));
    }

    #[test]
    fn default_jobs_respects_env_floor() {
        // Whatever the environment, the contract is jobs >= 1.
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn oversubscription_is_about_extra_threads() {
        // One worker can never oversubscribe, whatever the machine; more
        // than one only oversubscribes a single-CPU box, so the two sides
        // of the predicate must agree with the machine's parallelism.
        assert!(!oversubscribed(0));
        assert!(!oversubscribed(1));
        let single_cpu = std::thread::available_parallelism().map_or(1, |n| n.get()) == 1;
        assert_eq!(oversubscribed(2), single_cpu);
        assert_eq!(oversubscribed(64), single_cpu);
    }
}
