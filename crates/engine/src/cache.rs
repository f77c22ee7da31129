//! The engine's memoization layer.
//!
//! [`PathCache`] holds path evaluations keyed by the canonical
//! [`PathSignature`] of a compiled [`whart_model::PathProblem`] under
//! the requested [`whart_model::MeasurePlan`]; a fleet that revisits a
//! path DTMC (same hop dynamics, slots, super-frame, `Is` and TTL, same
//! artifact demand) solves it exactly once. Link models are not cached:
//! the channel-layer derivation (Eqs. 1-2, 4) is closed-form and costs
//! less than a probe.
//!
//! The cache has a single owner: only [`crate::Engine`] touches it,
//! through `&mut self` methods, so it takes no locks and counts with
//! plain integers. Concurrent callers share an engine behind their own
//! lock (serve's engine store, the experiments' `Mutex<Engine>`); the
//! worker pool never sees the cache.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use whart_model::signature::PathSignature;
use whart_model::PathEvaluation;

/// A memoized map with hit/miss/eviction counters and an optional
/// capacity bound with FIFO eviction (unbounded by default).
///
/// Keys hash with `std`'s per-process random state, so a hostile spec
/// cannot choose collisions. `order` holds every key in the map exactly
/// once, in insertion order: the eviction queue.
pub(crate) struct CountedCache<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> CountedCache<K, V> {
    pub(crate) fn new() -> Self {
        CountedCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: None,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Bounds (or unbounds, with `None`) the entry count. A bound of 0
    /// is treated as 1 — the cache always holds the entry just
    /// inserted. Shrinking below the current size evicts oldest-first
    /// on the next insert.
    pub(crate) fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
    }

    /// Looks up `key`, counting a hit or a miss.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let found = self.map.get(key).cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Inserts a freshly computed value (does not touch the hit/miss
    /// counters), evicting the oldest entries while over capacity.
    /// Returns how many entries were evicted.
    pub(crate) fn insert(&mut self, key: K, value: V) -> u64 {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
        }
        let Some(capacity) = self.capacity else {
            return 0;
        };
        let mut evicted = 0u64;
        while self.map.len() > capacity.max(1) {
            let oldest = self.order.pop_front().expect("every entry is queued");
            self.map.remove(&oldest);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }

    /// Records a hit satisfied outside the map itself — the engine uses
    /// this when an in-batch duplicate shares a solve planned moments
    /// earlier in the same drain (the solve has not landed in the map
    /// yet, so `get` would miscount it as a second miss).
    pub(crate) fn count_shared_hit(&mut self) {
        self.hits += 1;
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The path-evaluation memoization layer. Entries are shared behind an
/// [`Arc`]: a cache hit hands out a reference, not a copy of the
/// evaluation, so warm drains never deep-clone until a scenario result
/// materializes its own copy. The measure plan is part of the signature:
/// scalar-only entries hold `O(Is)` cycle PMFs, while trajectory entries
/// additionally carry the `O(Is^2 * F_up)` goal trajectory — the two must
/// not answer for each other.
///
/// The key and the value are one pointer each (16 + 8 bytes), and the
/// FIFO queue's copy of a key is a clone of the same `Arc`, so an entry
/// costs its signature slice, its evaluation and under 90 bytes of table
/// and queue (pinned by `crates/cli/tests/alloc_budget.rs`).
pub(crate) type PathCache = CountedCache<PathSignature, Arc<PathEvaluation>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_cache_counts() {
        let mut cache: CountedCache<u32, u32> = CountedCache::new();
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let mut cache: CountedCache<u32, u32> = CountedCache::new();
        cache.set_capacity(Some(2));
        assert_eq!(cache.insert(1, 10), 0);
        assert_eq!(cache.insert(2, 20), 0);
        assert_eq!(cache.insert(3, 30), 1, "one eviction over capacity");
        assert_eq!(cache.get(&1), None, "oldest entry evicted");
        assert_eq!(cache.get(&2), Some(20));
        assert_eq!(cache.get(&3), Some(30));
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // Re-inserting an existing key is an update, not growth.
        assert_eq!(cache.insert(3, 31), 0);
        assert_eq!(cache.get(&3), Some(31));
        // A zero capacity still retains the latest entry.
        cache.set_capacity(Some(0));
        cache.insert(4, 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&4), Some(40));
        // Unbounding stops eviction.
        cache.set_capacity(None);
        cache.insert(5, 50);
        cache.insert(6, 60);
        assert_eq!(cache.len(), 3);
    }

    /// One step of a scripted cache workload.
    #[derive(Debug, Clone)]
    enum Op {
        Get(u32),
        Insert(u32, u32),
        SetCapacity(Option<usize>),
        SharedHit,
    }

    /// Every observable output of a replayed workload, in order: the
    /// result of each get, the eviction count of each insert, and the
    /// final (hits, misses, evictions, len).
    type ReplayLog = (Vec<Option<u32>>, Vec<u64>, (u64, u64, u64, usize));

    /// The reference model: a FIFO of `(key, value)` pairs searched
    /// linearly, with the documented semantics spelled out directly.
    fn reference(ops: &[Op]) -> ReplayLog {
        let mut entries: VecDeque<(u32, u32)> = VecDeque::new();
        let mut capacity = None;
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut gets = Vec::new();
        let mut evicted_per_insert = Vec::new();
        for op in ops {
            match *op {
                Op::Get(k) => {
                    let found = entries.iter().find(|(key, _)| *key == k).map(|&(_, v)| v);
                    if found.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    gets.push(found);
                }
                Op::Insert(k, v) => {
                    match entries.iter_mut().find(|(key, _)| *key == k) {
                        // An update keeps the key's place in the queue.
                        Some(entry) => entry.1 = v,
                        None => entries.push_back((k, v)),
                    }
                    let mut evicted = 0;
                    if let Some(c) = capacity {
                        let bound: usize = std::cmp::max(c, 1);
                        while entries.len() > bound {
                            entries.pop_front();
                            evicted += 1;
                        }
                    }
                    evictions += evicted;
                    evicted_per_insert.push(evicted);
                }
                Op::SetCapacity(c) => capacity = c,
                Op::SharedHit => hits += 1,
            }
        }
        (
            gets,
            evicted_per_insert,
            (hits, misses, evictions, entries.len()),
        )
    }

    fn replay(ops: &[Op]) -> ReplayLog {
        let mut cache: CountedCache<u32, u32> = CountedCache::new();
        let mut gets = Vec::new();
        let mut evictions = Vec::new();
        for op in ops {
            match *op {
                Op::Get(k) => gets.push(cache.get(&k)),
                Op::Insert(k, v) => evictions.push(cache.insert(k, v)),
                Op::SetCapacity(c) => cache.set_capacity(c),
                Op::SharedHit => cache.count_shared_hit(),
            }
        }
        (
            gets,
            evictions,
            (cache.hits(), cache.misses(), cache.evictions(), cache.len()),
        )
    }

    use proptest::prelude::*;

    proptest! {
        /// Under any scripted access sequence the cache matches the
        /// reference FIFO model: the same get results, the same eviction
        /// count at every insert and the same final counters.
        #[test]
        fn cache_matches_the_reference_fifo_model(
            ops in proptest::collection::vec(
                ((0u8..11), (0u32..24), (0u32..1000)).prop_map(|(sel, k, v)| match sel {
                    0..=3 => Op::Get(k),
                    4..=7 => Op::Insert(k, v),
                    8 => Op::SetCapacity(None),
                    9 => Op::SharedHit,
                    _ => Op::SetCapacity(Some((v % 6) as usize)),
                }),
                0..120usize,
            ),
        ) {
            prop_assert_eq!(replay(&ops), reference(&ops));
        }
    }
}
