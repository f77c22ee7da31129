//! A scoped worker pool with chunked, affinity-partitioned scheduling.
//!
//! The task set is fixed up front (path solves never spawn new path
//! solves), so instead of mutex-guarded deques the pool pre-partitions
//! item indices onto workers by an affinity hash (cache-affine work
//! lands on the same worker), splits each worker's share into chunks,
//! and lets workers claim chunks with a single `fetch_add` on the
//! owner's atomic cursor — their own first, then whole chunks from the
//! most-loaded sibling. Results travel back through each worker's join
//! handle and are scattered once into a pre-sized slice, so the hot
//! path takes no locks at all. Built on `std::thread::scope` — no
//! external runtime.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How many chunks each worker's share is split into: small enough that
/// a chunk is worth migrating, large enough that stealing can rebalance
/// a skewed partition.
const CHUNKS_PER_WORKER: usize = 4;

/// Counters observed while a batch executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Peak length of any single worker queue (tasks not yet started) —
    /// with up-front partitioning, the largest initial share.
    pub max_queue_depth: usize,
    /// Number of *chunks* a worker claimed from a sibling's share.
    /// Stealing migrates whole chunks, so this counts migrations, not
    /// tasks; see [`PoolStats::stolen_tasks`] for the task count.
    pub steals: u64,
    /// Number of *tasks* (scenarios / path solves) that ran on a worker
    /// other than the one their affinity assigned them to — the sum of
    /// the sizes of all stolen chunks.
    pub stolen_tasks: u64,
}

/// One worker's share of the batch: the item indices its affinity class
/// mapped to, cut into `chunk`-sized runs claimed via `next`.
struct Share {
    indices: Vec<usize>,
    chunk: usize,
    chunks: usize,
    next: AtomicUsize,
}

impl Share {
    fn new(indices: Vec<usize>) -> Share {
        let chunk = indices.len().div_ceil(CHUNKS_PER_WORKER).max(1);
        let chunks = indices.len().div_ceil(chunk);
        Share {
            indices,
            chunk,
            chunks,
            next: AtomicUsize::new(0),
        }
    }

    /// Claims the next unclaimed chunk (a single `fetch_add`), or `None`
    /// when the share is exhausted.
    fn claim(&self) -> Option<&[usize]> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        if c >= self.chunks {
            return None;
        }
        let start = c * self.chunk;
        Some(&self.indices[start..(start + self.chunk).min(self.indices.len())])
    }

    /// Chunks not yet claimed (racy, used only to pick a steal victim).
    fn remaining(&self) -> usize {
        self.chunks
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Runs `f` over every item on `workers` threads, returning results in
/// item order plus the observed pool counters. `affinity` partitions
/// items onto workers (`affinity % workers`): items sharing an affinity
/// value always start on the same worker, so signature-affine work
/// shares that worker's warm cache lines unless stealing rebalances.
///
/// `worker_scope` runs once per executing thread before it claims any
/// work and its return value is held for the thread's whole task loop —
/// the engine uses it to publish an `engine.execute` profiler frame, so
/// every sampled tick on a worker (solving, claiming, stealing) is
/// attributed to the execute stage. On the serial fallback it wraps the
/// in-place loop on the calling thread. Worker threads are named
/// `whart-worker-{i}` so profiles and debuggers can tell them apart.
pub(crate) fn run<T, R, F, A, S, G>(
    workers: usize,
    items: &[T],
    affinity: A,
    worker_scope: S,
    f: F,
) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    A: Fn(&T) -> u64,
    S: Fn(usize) -> G + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        let scope = worker_scope(0);
        let results = items.iter().map(&f).collect();
        drop(scope);
        return (
            results,
            PoolStats {
                max_queue_depth: n,
                steals: 0,
                stolen_tasks: 0,
            },
        );
    }

    // Partition item indices by affinity class.
    let mut assigned: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.iter().enumerate() {
        assigned[(affinity(item) % workers as u64) as usize].push(i);
    }
    let max_queue_depth = assigned.iter().map(Vec::len).max().unwrap_or(0);
    let shares: Vec<Share> = assigned.into_iter().map(Share::new).collect();
    let steals = AtomicU64::new(0);
    let stolen_tasks = AtomicU64::new(0);

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for me in 0..workers {
            let shares = &shares;
            let steals = &steals;
            let stolen_tasks = &stolen_tasks;
            let f = &f;
            let worker_scope = &worker_scope;
            let builder = std::thread::Builder::new().name(format!("whart-worker-{me}"));
            let handle = builder.spawn_scoped(scope, move || {
                let _scope = worker_scope(me);
                let mut out: Vec<(usize, R)> = Vec::new();
                // Drain the worker's own share first (affinity order).
                while let Some(chunk) = shares[me].claim() {
                    out.extend(chunk.iter().map(|&i| (i, f(&items[i]))));
                }
                // Then steal whole chunks from the most-loaded sibling
                // until every share is exhausted. A lost claim race just
                // re-picks a victim; cursors only grow, so this
                // terminates.
                loop {
                    let victim = (0..workers)
                        .filter(|&w| w != me)
                        .max_by_key(|&w| shares[w].remaining());
                    match victim {
                        Some(v) if shares[v].remaining() > 0 => {
                            if let Some(chunk) = shares[v].claim() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                stolen_tasks.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                                out.extend(chunk.iter().map(|&i| (i, f(&items[i]))));
                            }
                        }
                        _ => break,
                    }
                }
                out
            });
            handles.push(handle.expect("spawn pool worker thread"));
        }
        // Scatter every worker's results into the pre-sized slice — the
        // only writer is this thread, after the workers have joined, so
        // no per-result synchronization is needed.
        for handle in handles {
            for (i, r) in handle.join().expect("pool workers do not panic") {
                results[i] = Some(r);
            }
        }
    });

    let results = results
        .into_iter()
        .map(|slot| slot.expect("every task ran"))
        .collect();
    let stats = PoolStats {
        max_queue_depth,
        steals: steals.load(Ordering::Relaxed),
        stolen_tasks: stolen_tasks.load(Ordering::Relaxed),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spread items round-robin, like the pre-chunking pool dealt them.
    fn round_robin(x: &u64) -> u64 {
        *x
    }

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let (results, stats) = run(4, &items, round_robin, |_| (), |&x| x * x);
        assert_eq!(results, (0..100).map(|x| x * x).collect::<Vec<_>>());
        assert!(stats.max_queue_depth >= 25);
    }

    #[test]
    fn serial_fallback_matches() {
        let (results, stats) = run(1, &[1, 2, 3], |&x| x, |_| (), |&x| x + 1);
        assert_eq!(results, vec![2, 3, 4]);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.stolen_tasks, 0);
    }

    #[test]
    fn empty_and_single_item_batches() {
        let (results, _) = run(8, &[] as &[u32], |&x| x.into(), |_| (), |&x| x);
        assert!(results.is_empty());
        let (results, _) = run(8, &[7u32], |&x| x.into(), |_| (), |&x| x * 2);
        assert_eq!(results, vec![14]);
    }

    #[test]
    fn affinity_classes_start_on_their_worker() {
        // All items share one affinity class, so one worker owns the
        // whole batch up front and the peak queue depth is the batch.
        let items: Vec<u64> = (0..64).collect();
        let (results, stats) = run(4, &items, |_| 7, |_| (), |&x| x + 1);
        assert_eq!(results, (1..=64).collect::<Vec<_>>());
        assert_eq!(stats.max_queue_depth, 64);
    }

    #[test]
    fn uneven_workloads_get_stolen() {
        // Worker 0's own tasks are slow; the cheap ones land elsewhere but
        // finish instantly, so its siblings steal from it.
        let items: Vec<u64> = (0..32).collect();
        let (results, stats) = run(
            4,
            &items,
            round_robin,
            |_| (),
            |&x| {
                if x % 4 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                x
            },
        );
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        // Chunk counts and task counts stay consistent: every stolen
        // chunk moves at least one task.
        assert!(stats.stolen_tasks >= stats.steals);
    }
}
