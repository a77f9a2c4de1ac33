//! Deterministic fan-out of independent simulation runs.
//!
//! Every simulation run is fully determined by its `(config, seed)` pair, so
//! an experiment sweep is embarrassingly parallel: [`map_indexed_with`] fans the
//! work items across workers and collects results **by input index**, so the
//! assembled output — and therefore every experiment table — is
//! byte-identical at any worker count or scheduling.
//!
//! The calling thread is worker 0: `jobs` workers means `jobs − 1` spawned
//! `std::thread::scope` threads plus the caller, all running one shared
//! worker loop. `--jobs 1` (or `MOBIDIST_JOBS=1`) is that same loop with no
//! thread spawned, so it processes the items in input order.
//!
//! No external crates: work distribution is a mutex-guarded deque drained in
//! small adaptive chunks (up to 4 items per lock acquisition while the queue
//! is long, one-at-a-time near the tail for load balance); each worker keeps
//! its index-tagged results and hands them back when it is joined.

use std::collections::VecDeque;
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
/// overhead plus context switches make "parallel" runs *slower* than one
/// worker. [`map_indexed_with`] consults this to run on the calling thread
/// alone — which is byte-identical by the ordering guarantee.
pub fn oversubscribed(jobs: usize) -> bool {
    jobs > 1 && std::thread::available_parallelism().map_or(1, |n| n.get()) == 1
}

/// Applies `f` to every `(index, item)` pair on up to `jobs` workers — the
/// calling thread plus `jobs − 1` scoped threads — and returns the results
/// **in input order**.
///
/// Ordering guarantee: the output vector at position `i` holds
/// `f(state, i, items[i])` exactly as a one-worker run would produce it;
/// thread scheduling can never reorder, duplicate or drop a slot. A panic in
/// an item propagates with its own payload, whichever worker ran it.
///
/// Each worker builds one `W` with `make_state` and threads it through every
/// item it processes. Sweeps pass a
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
        // overhead; the caller alone produces the same bytes.
        jobs = 1;
    }
    let queue: Mutex<VecDeque<(usize, I)>> = Mutex::new(items.into_iter().enumerate().collect());
    // The one worker loop. Pop work in small adaptive chunks: one lock
    // acquisition per chunk instead of per item cuts queue overhead on fast
    // items, while the `q.len() / (jobs * 2)` bound keeps the tail balanced —
    // near the end of the queue workers fall back to one-at-a-time. Results
    // carry their input index, so the ordering guarantee is untouched.
    let work = || {
        let mut w = make_state();
        let (mut batch, mut done) = (Vec::with_capacity(4), Vec::new());
        loop {
            {
                let mut q = queue.lock().expect("work queue poisoned");
                if q.is_empty() {
                    return done;
                }
                let take = (q.len() / (jobs * 2)).clamp(1, 4);
                batch.extend(q.drain(..take));
            }
            done.extend(batch.drain(..).map(|(i, x)| (i, f(&mut w, i, x))));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        // `work` captures only references, so each spawn takes a copy.
        let spawned: Vec<_> = (1..jobs).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for h in spawned {
            done.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    // Already in order when one worker ran everything.
    done.sort_unstable_by_key(|&(i, _)| i);
    assert!(
        done.iter().enumerate().all(|(k, &(i, _))| k == i),
        "every index produced exactly once"
    );
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread::ThreadId;

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

    /// Runs `items` at `jobs`, recording which thread ran each item and how
    /// often `make_state` was called; `f` also learns whether it is on the
    /// caller. Returns `(results, per-item thread, make_state calls)`.
    fn traced_run<T: Send>(
        items: usize,
        jobs: usize,
        f: impl Fn(bool, usize) -> T + Sync,
    ) -> (Vec<T>, Vec<ThreadId>, usize) {
        let caller = std::thread::current().id();
        let states = AtomicUsize::new(0);
        let out = map_indexed_with(
            (0..items).collect(),
            jobs,
            || states.fetch_add(1, Ordering::Relaxed),
            |_, i, x| {
                assert_eq!(i, x);
                let me = std::thread::current().id();
                (f(me == caller, x), me)
            },
        );
        let (results, threads) = out.into_iter().unzip();
        (results, threads, states.into_inner())
    }

    /// Workers a run at `jobs` may use on this machine.
    fn workers(jobs: usize) -> usize {
        if oversubscribed(jobs) {
            1
        } else {
            jobs
        }
    }

    /// Which kinds of worker — `[spawned, caller]` — have started an item.
    type Started = [AtomicBool; 2];

    /// Holds every item until the caller and a spawned worker have each
    /// started one, so both kinds provably take part: a worker holds at most
    /// four items, so the other always finds work in a 20-item queue. A
    /// no-op on a 1-CPU box, which runs everything on the caller.
    fn rendezvous(on_caller: bool, started: &Started) {
        started[usize::from(on_caller)].store(true, Ordering::Release);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while workers(2) > 1 && !started.iter().all(|s| s.load(Ordering::Acquire)) {
            assert!(
                std::time::Instant::now() < deadline,
                "a worker never ran an item"
            );
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    #[test]
    fn one_job_runs_everything_on_the_caller() {
        let (out, threads, states) = traced_run(20, 1, |on_caller, x| {
            assert!(on_caller, "item {x} left the calling thread");
            x
        });
        assert_eq!(out, (0..20).collect::<Vec<_>>());
        let caller = std::thread::current().id();
        assert!(threads.iter().all(|&t| t == caller));
        assert_eq!(states, 1, "one worker, one state");
    }

    #[test]
    fn two_jobs_use_the_caller_and_at_most_one_thread_more() {
        let started = Started::default();
        let (_, threads, states) = traced_run(20, 2, |on_caller, _| {
            rendezvous(on_caller, &started);
        });
        let distinct: HashSet<ThreadId> = threads.into_iter().collect();
        assert!(distinct.contains(&std::thread::current().id()));
        assert_eq!(distinct.len(), workers(2));
        assert_eq!(states, workers(2), "make_state once per worker");
    }

    #[test]
    fn make_state_runs_once_per_worker() {
        for (items, jobs) in [(0, 4), (1, 4), (3, 8), (50, 3), (50, 1)] {
            let (_, _, states) = traced_run(items, jobs, |_, _| ());
            let want = workers(jobs.min(items.max(1)));
            assert_eq!(states, want, "{items} items at jobs={jobs}");
        }
    }

    #[test]
    fn order_holds_whether_the_caller_finishes_first_or_last() {
        for caller_slow in [false, true] {
            let started = Started::default();
            let (out, _, _) = traced_run(24, 2, |on_caller, x| {
                rendezvous(on_caller, &started);
                if on_caller == caller_slow {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x * 3
            });
            let want: Vec<usize> = (0..24).map(|x| x * 3).collect();
            assert_eq!(out, want, "caller_slow={caller_slow}");
        }
    }

    #[test]
    fn a_panicking_item_propagates_from_either_kind_of_worker() {
        for on in ["caller", "spawned"] {
            if on == "spawned" && workers(2) == 1 {
                continue; // nothing is spawned on a 1-CPU box
            }
            let started = Started::default();
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                traced_run(20, 2, |on_caller, _| {
                    rendezvous(on_caller, &started);
                    if on_caller == (on == "caller") {
                        panic!("item failed on the {on} worker");
                    }
                })
            }));
            let payload = caught.expect_err("the item's panic must propagate");
            let msg = payload.downcast_ref::<String>().expect("panic! payload");
            assert_eq!(msg, &format!("item failed on the {on} worker"));
        }
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
