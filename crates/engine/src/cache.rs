//! The engine's memoization layer.
//!
//! [`PathCache`] holds path evaluations keyed by the canonical
//! [`whart_model::signature::PathSignature`] words of a compiled
//! [`whart_model::PathProblem`]; a fleet that revisits a path DTMC (same
//! hop dynamics, slots, super-frame, `Is` and TTL) solves it exactly
//! once. Link models are not cached: the channel-layer
//! derivation (Eqs. 1-2, 4) is closed-form and costs less than a probe.
//!
//! The cache has a single owner: only [`crate::Engine`] touches it,
//! through `&mut self` methods, so it takes no locks and counts with
//! plain integers. Concurrent callers share an engine behind their own
//! lock (serve's engine store, the experiments' `Mutex<Engine>`); the
//! worker pool never sees the cache.
//!
//! # Layout
//!
//! A bounded cache spends its steady state evicting keys it has not
//! touched for thousands of inserts, so the layout keeps an eviction
//! away from them:
//! - a FIFO **ring** of entries, oldest first: a 32-bit tag of the key's
//!   hash, where the key's words sit in the arena and how many there
//!   are, and the shared evaluation;
//! - a FIFO **word arena** holding every key's words in ring order, so
//!   an eviction pops the oldest words and frees no key allocation;
//! - an open-addressing **index** of 8-byte slots (tag, ring sequence
//!   number), probed linearly and cleared by backward shift, so it
//!   keeps no tombstones.
//!
//! An eviction pops the ring's front and finds its index slot through
//! the tag stored in the entry: it never reads or re-hashes the cold
//! key. All three structures grow with the live entry count, doubling
//! but never past what the capacity bound needs, so a large bound costs
//! nothing until it fills.

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::BuildHasher;
use std::sync::Arc;
use whart_model::PathEvaluation;

/// Ring entries the first growth allocates (fewer under a smaller
/// bound).
const MIN_RING: usize = 64;

/// Index slots the first growth allocates; a power of two.
const MIN_INDEX_SLOTS: usize = 128;

/// Arena words the first growth allocates (fewer under a smaller
/// bound): room for about 90 typical-network keys.
const MIN_ARENA_WORDS: usize = 1024;

/// A key's tag: 32 bits of its hash under the cache's per-process
/// random state, never 0 (an empty index slot). [`PathCache::get`]
/// returns it on a miss so that [`PathCache::insert`] of the solved
/// path does not hash the key again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyHash(u32);

/// The answer of a [`PathCache::get`].
pub(crate) enum Lookup {
    /// The cached evaluation.
    Hit(Arc<PathEvaluation>),
    /// Not cached; insert the solve under this hash.
    Miss(KeyHash),
}

/// One ring entry: 24 bytes.
struct Entry {
    tag: u32,
    /// Key words.
    len: u32,
    /// Absolute position of the key's first word in the arena's word
    /// stream (`arena_front` counts the words popped so far).
    start: u64,
    value: Arc<PathEvaluation>,
}

/// The path-evaluation memoization layer: a FIFO ring of entries with an
/// open-addressing index and a word arena for the keys (see the
/// [module docs](self)), hit/miss/eviction counters and an optional
/// capacity bound (unbounded by default).
///
/// Entries are shared behind an [`Arc`]: a cache hit hands out a
/// reference, not a copy of the evaluation, so warm drains never
/// deep-clone until a scenario result materializes its own copy.
///
/// Keys are word slices. Only word 0 is hashed (through `std`'s
/// per-process random state, so a hostile spec cannot choose
/// collisions): a key should lead with a content hash of itself, as a
/// `PathSignature` does. Every tag match is confirmed against the full
/// key, so keys sharing a first word are still told apart; they only
/// share a probe chain.
pub(crate) struct PathCache {
    state: RandomState,
    ring: VecDeque<Entry>,
    /// Sequence number of `ring[0]`; entry `i` has `front_seq + i`
    /// (wrapping, as the index stores it in 32 bits).
    front_seq: u32,
    /// Slots of `tag << 32 | sequence number`, 0 when empty; the length
    /// is a power of two, grown to keep the load at most 1/2 (linear
    /// probing walks long runs above that).
    index: Vec<u64>,
    arena: VecDeque<u64>,
    /// Absolute stream position of `arena[0]`.
    arena_front: u64,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PathCache {
    pub(crate) fn new() -> Self {
        PathCache {
            state: RandomState::new(),
            ring: VecDeque::new(),
            front_seq: 0,
            index: Vec::new(),
            arena: VecDeque::new(),
            arena_front: 0,
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

    fn bound(&self) -> usize {
        self.capacity.map_or(usize::MAX, |c| c.max(1))
    }

    fn hash(&self, words: &[u64]) -> KeyHash {
        let hash = self.state.hash_one(words[0]);
        KeyHash(((hash >> 32) as u32).max(1))
    }

    /// Looks up the key `words` (non-empty), counting a hit or a miss.
    pub(crate) fn get(&mut self, words: &[u64]) -> Lookup {
        let hash = self.hash(words);
        match self.find(hash, words) {
            Some(i) => {
                self.hits += 1;
                Lookup::Hit(Arc::clone(&self.ring[i].value))
            }
            None => {
                self.misses += 1;
                Lookup::Miss(hash)
            }
        }
    }

    /// Inserts a freshly computed value under the key `words`, whose
    /// hash a [`Lookup::Miss`] returned (does not touch the hit/miss
    /// counters), evicting the oldest entries while over capacity.
    /// Re-inserting a cached key replaces its value in place. Returns
    /// how many entries were evicted.
    pub(crate) fn insert(
        &mut self,
        hash: KeyHash,
        words: &[u64],
        value: Arc<PathEvaluation>,
    ) -> u64 {
        debug_assert_eq!(hash, self.hash(words), "the hash of another key");
        let bound = self.bound();
        let before = self.evictions;
        match self.find(hash, words) {
            Some(i) => {
                self.ring[i].value = value;
                while self.ring.len() > bound {
                    self.evict_oldest();
                }
            }
            None => {
                // Evict first, so a full ring reuses the victim's room.
                while self.ring.len() >= bound {
                    self.evict_oldest();
                }
                self.push(hash.0, words, value);
            }
        }
        self.evictions - before
    }

    /// The ring position of the entry keyed `words`.
    fn find(&self, hash: KeyHash, words: &[u64]) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut at = hash.0 as usize & mask;
        loop {
            let slot = self.index[at];
            if slot == 0 {
                return None;
            }
            if (slot >> 32) as u32 == hash.0 {
                let i = (slot as u32).wrapping_sub(self.front_seq) as usize;
                let entry = &self.ring[i];
                let start = (entry.start - self.arena_front) as usize;
                if self
                    .arena
                    .range(start..start + entry.len as usize)
                    .eq(words)
                {
                    return Some(i);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a new newest entry, growing the ring, index and arena as
    /// needed.
    fn push(&mut self, tag: u32, words: &[u64], value: Arc<PathEvaluation>) {
        let len = self.ring.len();
        let seq = self
            .front_seq
            .wrapping_add(u32::try_from(len).expect("a cache holds fewer than 2^32 entries"));
        if (len + 1) * 2 > self.index.len() {
            self.grow_index();
        }
        place(&mut self.index, u64::from(tag) << 32 | u64::from(seq));
        let bound = self.bound();
        if len == self.ring.capacity() {
            let target = grown(len, len + 1, MIN_RING, bound);
            self.ring.reserve_exact(target - len);
        }
        let start = self.arena_front + self.arena.len() as u64;
        let needed = self.arena.len() + words.len();
        if needed > self.arena.capacity() {
            // Grow no further than the words the bound's entries would
            // hold at this mean key length, plus a sixteenth: keys of a
            // steady mix vary in length, so a full ring's arena needs a
            // little room, not a doubling.
            let at_bound = needed as u128 * bound as u128 / (len as u128 + 1) * 17 / 16;
            let limit = usize::try_from(at_bound).unwrap_or(usize::MAX);
            let target = grown(self.arena.capacity(), needed, MIN_ARENA_WORDS, limit);
            self.arena.reserve_exact(target - self.arena.len());
        }
        self.arena.extend(words);
        self.ring.push_back(Entry {
            tag,
            len: u32::try_from(words.len()).expect("a key is shorter than 2^32 words"),
            start,
            value,
        });
    }

    /// Doubles the index and re-places every entry from the tags the
    /// ring holds.
    fn grow_index(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_INDEX_SLOTS);
        self.index = vec![0; slots];
        let mut seq = self.front_seq;
        for entry in &self.ring {
            place(&mut self.index, u64::from(entry.tag) << 32 | u64::from(seq));
            seq = seq.wrapping_add(1);
        }
    }

    /// Drops the oldest entry: its index slot, its words and its value.
    fn evict_oldest(&mut self) {
        let victim = self
            .ring
            .pop_front()
            .expect("an over-capacity cache holds entries");
        remove(
            &mut self.index,
            u64::from(victim.tag) << 32 | u64::from(self.front_seq),
        );
        self.front_seq = self.front_seq.wrapping_add(1);
        self.arena.drain(..victim.len as usize);
        self.arena_front += u64::from(victim.len);
        self.evictions += 1;
    }

    /// Records a hit satisfied outside the map itself — the engine uses
    /// this when an in-batch duplicate shares a solve planned moments
    /// earlier in the same drain (the solve has not landed in the cache
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
        self.ring.len()
    }
}

/// The capacity a buffer of `current` grows to when it must hold
/// `needed`: double (at least `floor`), but not past `limit` unless
/// `needed` is.
fn grown(current: usize, needed: usize, floor: usize, limit: usize) -> usize {
    current.saturating_mul(2).max(floor).min(limit).max(needed)
}

/// The home slot of a tag in an index of `mask + 1` slots.
fn home(slot: u64, mask: usize) -> usize {
    (slot >> 32) as usize & mask
}

/// Stores `slot` in the first empty index slot from its home.
fn place(index: &mut [u64], slot: u64) {
    let mask = index.len() - 1;
    let mut at = home(slot, mask);
    while index[at] != 0 {
        at = (at + 1) & mask;
    }
    index[at] = slot;
}

/// Removes `slot`, which the index holds, shifting later members of its
/// probe run back so that every entry stays reachable from its home.
fn remove(index: &mut [u64], slot: u64) {
    let mask = index.len() - 1;
    let mut hole = home(slot, mask);
    while index[hole] != slot {
        hole = (hole + 1) & mask;
    }
    let mut at = hole;
    loop {
        at = (at + 1) & mask;
        let next = index[at];
        if next == 0 {
            break;
        }
        // `next` may fill the hole when the hole lies on its probe path:
        // no further from `at` than its home is.
        if at.wrapping_sub(home(next, mask)) & mask >= at.wrapping_sub(hole) & mask {
            index[hole] = next;
            hole = at;
        }
    }
    index[hole] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distinct evaluation per `value`: one solved path rebased at
    /// slot `value + 1`, so the value reads back as its arrival slot.
    fn value(value: u32) -> Arc<PathEvaluation> {
        thread_local! {
            // One hop in a 1000-slot frame, so every test value is a
            // valid arrival slot.
            static BASE: PathEvaluation = {
                let link = whart_channel::LinkModel::from_availability(0.83, 0.9).expect("valid");
                let mut b = whart_model::PathProblem::builder();
                b.add_hop(whart_model::LinkDynamics::steady(link), 0);
                b.superframe(whart_net::Superframe::symmetric(1000).expect("valid"))
                    .interval(whart_net::ReportingInterval::REGULAR);
                b.build().expect("valid").evaluate()
            };
        }
        BASE.with(|base| Arc::new(base.rebased_at_slot(value + 1)))
    }

    fn read(lookup: Lookup) -> Option<u32> {
        match lookup {
            Lookup::Hit(evaluation) => Some(evaluation.arrival_slot_number() - 1),
            Lookup::Miss(_) => None,
        }
    }

    /// Key `k`: 2 to 6 words whose first word is shared by every third
    /// key (so tags collide and the full comparison decides), ending in
    /// `k` itself so distinct ids stay distinct keys.
    fn key(k: u32) -> Vec<u64> {
        let mut words = vec![u64::from(k % 3)];
        words.extend(std::iter::repeat(7).take((k % 5) as usize));
        words.push(u64::from(k));
        words
    }

    /// Looks `k` up, reading the value back.
    fn get(cache: &mut PathCache, k: u32) -> Option<u32> {
        read(cache.get(&key(k)))
    }

    /// Inserts `v` under `k` as the engine does: probe, then insert
    /// under the hash of the miss (or the key's hash on an update).
    fn insert(cache: &mut PathCache, k: u32, v: u32) -> u64 {
        let words = key(k);
        let hash = cache.hash(&words);
        cache.insert(hash, &words, value(v))
    }

    #[test]
    fn path_cache_counts() {
        let mut cache = PathCache::new();
        assert_eq!(get(&mut cache, 1), None);
        insert(&mut cache, 1, 10);
        assert_eq!(get(&mut cache, 1), Some(10));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn a_miss_returns_the_hash_insert_takes() {
        let mut cache = PathCache::new();
        let words = key(4);
        let Lookup::Miss(hash) = cache.get(&words) else {
            panic!("an empty cache misses");
        };
        assert_eq!(hash, cache.hash(&words));
        assert_ne!(hash.0, 0, "0 marks an empty index slot");
        cache.insert(hash, &words, value(40));
        assert_eq!(get(&mut cache, 4), Some(40));
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let mut cache = PathCache::new();
        cache.set_capacity(Some(2));
        assert_eq!(insert(&mut cache, 1, 10), 0);
        assert_eq!(insert(&mut cache, 2, 20), 0);
        assert_eq!(insert(&mut cache, 3, 30), 1, "one eviction over capacity");
        assert_eq!(get(&mut cache, 1), None, "oldest entry evicted");
        assert_eq!(get(&mut cache, 2), Some(20));
        assert_eq!(get(&mut cache, 3), Some(30));
        assert_eq!((cache.len(), cache.evictions()), (2, 1));
        // Re-inserting an existing key is an update, not growth.
        assert_eq!(insert(&mut cache, 3, 31), 0);
        assert_eq!(get(&mut cache, 3), Some(31));
        // A zero capacity still retains the latest entry.
        cache.set_capacity(Some(0));
        insert(&mut cache, 4, 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(get(&mut cache, 4), Some(40));
        // Unbounding stops eviction.
        cache.set_capacity(None);
        insert(&mut cache, 5, 50);
        insert(&mut cache, 6, 60);
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

    /// The reference model: a FIFO of `(key id, value)` pairs searched
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
        let mut cache = PathCache::new();
        let mut gets = Vec::new();
        let mut evictions = Vec::new();
        for op in ops {
            match *op {
                Op::Get(k) => gets.push(get(&mut cache, k)),
                Op::Insert(k, v) => evictions.push(insert(&mut cache, k, v)),
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
        /// count at every insert and the same final counters. Keys are
        /// 2 to 6 words long and share first words (see [`key`]).
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

    /// Churn at batch-cold's bound: six capacities' worth of distinct
    /// inserts, with a shrink to a third and a grow back part-way.
    /// The live keys are always the window `lo..hi` of the inserted ids;
    /// each insert checks its key and the window's oldest key hit and
    /// the key just evicted misses, and each phase end checks the whole
    /// window.
    #[test]
    fn cache_churn_at_batch_cold_scale() {
        const CAPACITY: usize = 12_288;
        // Signature-sized keys (8, 12 or 16 words); ids 2j and 2j + 1
        // share their first word.
        let churn_key = |k: u32| -> Vec<u64> {
            let len = 8 + 4 * (k as usize % 3);
            let mut words = vec![u64::from(k / 2)];
            words.extend((1..len as u64).map(|i| u64::from(k) * 31 + i));
            words
        };
        let mut cache = PathCache::new();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let (mut lo, mut hi) = (0u32, 0u32);
        let phases = [
            (CAPACITY, 2 * CAPACITY),
            (CAPACITY / 3, 2 * CAPACITY),
            (CAPACITY, 2 * CAPACITY),
        ];
        for (bound, inserts) in phases {
            cache.set_capacity(Some(bound));
            for _ in 0..inserts {
                let k = hi;
                let words = churn_key(k);
                let Lookup::Miss(hash) = cache.get(&words) else {
                    panic!("key {k} is new");
                };
                misses += 1;
                let evicted = cache.insert(hash, &words, value(k % 1000));
                hi += 1;
                let mut expected = 0;
                while (hi - lo) as usize > bound {
                    lo += 1;
                    expected += 1;
                }
                assert_eq!(evicted, expected, "insert of key {k}");
                evictions += expected;
                for k in [k, lo] {
                    assert_eq!(read(cache.get(&churn_key(k))), Some(k % 1000), "key {k}");
                    hits += 1;
                }
                if lo > 0 {
                    assert!(
                        read(cache.get(&churn_key(lo - 1))).is_none(),
                        "key {}",
                        lo - 1
                    );
                    misses += 1;
                }
            }
            assert_eq!(cache.len(), bound);
            for k in lo..hi {
                assert_eq!(read(cache.get(&churn_key(k))), Some(k % 1000), "key {k}");
            }
            hits += u64::from(hi - lo);
        }
        assert_eq!(
            (cache.hits(), cache.misses(), cache.evictions()),
            (hits, misses, evictions)
        );
        assert_eq!(hi as usize, 6 * CAPACITY);
    }
}
