//! A scoped worker pool over a fixed task list.
//!
//! The task set is fixed up front (path solves never spawn new path
//! solves) and no worker keeps state from one task to the next, so the
//! pool needs no queues and no placement: every worker claims the next
//! run of consecutive item indices from one shared atomic cursor with a
//! single `fetch_add` until the cursor passes the end. Results travel
//! back through each worker's join handle and are scattered once into a
//! pre-sized slice, so the hot path takes no locks at all. Built on
//! `std::thread::scope` — no external runtime.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The machine's available parallelism (at least 1), resolved once per
/// process. `std::thread::available_parallelism` reads cgroup files on
/// Linux (about 24 µs per call on a 2-vCPU VM), and every engine
/// construction and CLI run asks for it; a process keeps the first
/// answer.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many claims each worker makes on an even batch: few enough that
/// the cursor is touched rarely, enough that a slow claim near the end
/// leaves the other workers something to take.
const CHUNKS_PER_WORKER: usize = 4;

/// Runs `f` over every item on `workers` threads, returning results in
/// item order.
///
/// `worker_scope` runs once per executing thread before it claims any
/// work and its return value is held for the thread's whole task loop —
/// the engine uses it to publish an `engine.execute` profiler frame, so
/// every sampled tick on a worker (solving or claiming) is attributed
/// to the execute stage. On the serial fallback it wraps the in-place
/// loop on the calling thread. Worker threads are named
/// `whart-worker-{i}` so profiles and debuggers can tell them apart.
pub(crate) fn run<T, R, F, S, G>(workers: usize, items: &[T], worker_scope: S, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: Fn(usize) -> G + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        let _scope = worker_scope(0);
        return items.iter().map(&f).collect();
    }

    let chunk = n.div_ceil(workers * CHUNKS_PER_WORKER);
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let (cursor, f, worker_scope) = (&cursor, &f, &worker_scope);
                std::thread::Builder::new()
                    .name(format!("whart-worker-{me}"))
                    .spawn_scoped(scope, move || {
                        let _scope = worker_scope(me);
                        let mut out: Vec<(usize, R)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break out;
                            }
                            let end = (start + chunk).min(n);
                            out.extend((start..end).map(|i| (i, f(&items[i]))));
                        }
                    })
                    .expect("spawn pool worker thread")
            })
            .collect();
        // Scatter every worker's results into the pre-sized slice — the
        // only writer is this thread, after the workers have joined, so
        // no per-result synchronization is needed.
        for handle in handles {
            for (i, r) in handle.join().expect("pool workers do not panic") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every task ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let results = run(4, &items, |_| (), |&x| x * x);
        assert_eq!(results, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        let results = run(1, &[1, 2, 3], |_| (), |&x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let results = run(8, &[] as &[u32], |_| (), |&x| x);
        assert!(results.is_empty());
        let results = run(8, &[7u32], |_| (), |&x| x * 2);
        assert_eq!(results, vec![14]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any batch size, worker count and uneven per-item cost the
        /// pool returns the serial map in item order, runs every item
        /// exactly once, and runs on named pool threads whenever it runs
        /// in parallel at all.
        #[test]
        fn matches_the_serial_map_and_runs_each_item_once(
            n in 0usize..300,
            workers in 1usize..=8,
            cost_seed in any::<u64>(),
        ) {
            let items: Vec<u64> = (0..n as u64).collect();
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let results = run(workers, &items, |_| (), |&x| {
                runs[x as usize].fetch_add(1, Ordering::Relaxed);
                // Per-item cost ranges from nothing to a few thousand steps.
                let spins = (x ^ cost_seed) % 13 * 200;
                std::hint::black_box((0..spins).fold(x, |acc, _| acc.wrapping_mul(31) ^ 7));
                (x * x + 1, std::thread::current().name().map(str::to_owned))
            });
            let values: Vec<u64> = results.iter().map(|(v, _)| *v).collect();
            prop_assert_eq!(values, items.iter().map(|x| x * x + 1).collect::<Vec<_>>());
            prop_assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            if workers > 1 && n > 1 {
                prop_assert!(results
                    .iter()
                    .all(|(_, name)| name.as_deref().is_some_and(|n| n.starts_with("whart-worker-"))));
            }
        }
    }
}
