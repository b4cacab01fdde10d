//! Concurrency and determinism substrate of the tempo analysis service
//! and engines.
//!
//! Everything here is built on `std::sync` only — no external
//! dependencies. The engines run on the thread that calls them; the one
//! pool of threads is the analysis service's, one job per worker. The
//! pieces:
//!
//! * [`PriorityWorkQueue`] — a bounded job queue with priorities, aging and
//!   backpressure, for the analysis service's scheduler;
//! * [`CancelToken`] — a shared flag for cooperative cancellation;
//! * [`ShardedMap`] — a mutex-striped hash map, the analysis service's
//!   in-memory verdict cache;
//! * [`StateLog`] — the append-only spill log of the out-of-core state
//!   store;
//! * [`trial_seed`] / [`derive_stream_seed`] — RNG seeds derived from a
//!   trial's index, so an estimate depends on the seed and the query
//!   sequence only, and a certificate can regenerate one trial alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod spill;

pub use spill::{fnv64, RecordRef, SpillError, StateLog, SPILL_MAGIC};

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Derive the seed of RNG stream `index` from a base seed.
///
/// Uses a SplitMix64-style mix so that nearby indices produce
/// uncorrelated streams; the derivation is pure, so a fixed
/// `(seed, index)` pair always reproduces the same stream.
#[must_use]
pub fn derive_stream_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((index as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG seed of trial `trial` in query `epoch` of an experiment seeded
/// with `seed`.
///
/// Simulation engines seed every trial from its index, so a trial draws
/// the same samples wherever and whenever it runs, and a certificate can
/// regenerate trial `trial` alone.
#[must_use]
pub fn trial_seed(seed: u64, epoch: u64, trial: usize) -> u64 {
    let epoch_seed = seed.wrapping_add(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    derive_stream_seed(epoch_seed, trial)
}

/// A shared cancellation flag for cooperative early termination.
///
/// Clones observe the same flag: the analysis service hands one clone to
/// the job owner (who may call [`CancelToken::cancel`]) and threads the
/// other through the engine's `Budget`, whose `Governor` polls it at the
/// same cadence as the wall-clock deadline. Cancellation is level-
/// triggered and sticky: once cancelled, a token stays cancelled.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: std::sync::Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: every clone observes it from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Whether `other` is a clone of this token (same underlying flag).
    #[must_use]
    pub fn same_as(&self, other: &CancelToken) -> bool {
        std::sync::Arc::ptr_eq(&self.flag, &other.flag)
    }
}

/// Why a [`PriorityWorkQueue::try_push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — backpressure; retry later or shed load.
    Full,
    /// The queue was stopped (service shutting down).
    Stopped,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PushError::Full => "queue at capacity",
            PushError::Stopped => "queue stopped",
        })
    }
}

impl std::error::Error for PushError {}

struct PrioEntry<T> {
    item: T,
    priority: i64,
    seq: u64,
}

struct PrioState<T> {
    entries: Vec<PrioEntry<T>>,
    next_seq: u64,
    stopped: bool,
    peak: usize,
}

/// A bounded, long-lived priority queue with aging, for job scheduling.
///
/// A `PriorityWorkQueue` is a *service* queue: it stays alive across an
/// arbitrary job stream and only terminates through
/// [`PriorityWorkQueue::stop`].
///
/// * **Backpressure** — [`PriorityWorkQueue::try_push`] refuses with
///   [`PushError::Full`] once `capacity` items wait, instead of growing
///   without bound.
/// * **Priority with aging** — [`PriorityWorkQueue::pop`] returns the
///   entry maximizing `priority + waited/aging_step`, where `waited` is
///   measured in queue operations (push + pop ticks), so a low-priority
///   job's effective priority rises the longer it waits and starvation
///   is impossible. Ties break FIFO by arrival order, which makes the
///   schedule deterministic for a fixed operation interleaving.
pub struct PriorityWorkQueue<T> {
    state: Mutex<PrioState<T>>,
    available: Condvar,
    capacity: usize,
    aging_step: u64,
}

impl<T> PriorityWorkQueue<T> {
    /// A queue holding at most `capacity` items, promoting a waiting
    /// item's effective priority by one for every `aging_step` queue
    /// operations it has waited.
    #[must_use]
    pub fn new(capacity: usize, aging_step: u64) -> Self {
        PriorityWorkQueue {
            state: Mutex::new(PrioState {
                entries: Vec::new(),
                next_seq: 0,
                stopped: false,
                peak: 0,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            aging_step: aging_step.max(1),
        }
    }

    /// Enqueues `item` at `priority` (larger = more urgent), or reports
    /// typed backpressure.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Stopped`] after
    /// [`PriorityWorkQueue::stop`].
    pub fn try_push(&self, item: T, priority: i64) -> Result<(), PushError> {
        let mut st = self.state.lock().expect("queue poisoned");
        if st.stopped {
            return Err(PushError::Stopped);
        }
        if st.entries.len() >= self.capacity {
            return Err(PushError::Full);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.entries.push(PrioEntry {
            item,
            priority,
            seq,
        });
        st.peak = st.peak.max(st.entries.len());
        drop(st);
        self.available.notify_one();
        Ok(())
    }

    /// Blocking pop of the highest effective-priority entry; `None`
    /// exactly when the queue has been stopped.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if st.stopped {
                return None;
            }
            if !st.entries.is_empty() {
                let now = st.next_seq;
                st.next_seq += 1; // a pop is also an aging tick
                let aging = self.aging_step;
                let effective = |e: &PrioEntry<T>| {
                    let waited = (now.saturating_sub(e.seq) / aging) as i64;
                    e.priority.saturating_add(waited)
                };
                let best = st
                    .entries
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        effective(a).cmp(&effective(b)).then(b.seq.cmp(&a.seq)) // FIFO: older seq wins ties
                    })
                    .map(|(i, _)| i)
                    .expect("non-empty");
                return Some(st.entries.swap_remove(best).item);
            }
            st = self.available.wait(st).expect("queue poisoned");
        }
    }

    /// Stops the queue: all current and future `pop`s return `None`,
    /// pushes are refused, and the remaining entries can be collected
    /// with [`PriorityWorkQueue::drain`].
    pub fn stop(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.stopped = true;
        drop(st);
        self.available.notify_all();
    }

    /// Whether [`PriorityWorkQueue::stop`] has been called.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.state.lock().expect("queue poisoned").stopped
    }

    /// Removes and returns all still-queued items in arrival order.
    /// Intended for deterministic shutdown: stop, then drain and
    /// complete every leftover job as cancelled.
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.state.lock().expect("queue poisoned");
        let mut entries = std::mem::take(&mut st.entries);
        entries.sort_by_key(|e| e.seq);
        entries.into_iter().map(|e| e.item).collect()
    }

    /// Number of items currently waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").entries.len()
    }

    /// Whether no items are waiting.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of the waiting list over the queue's lifetime.
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.state.lock().expect("queue poisoned").peak
    }
}

/// A mutex-striped hash map: the key space is split across `shards`
/// independent `Mutex<HashMap>`s so concurrent writers on different shards
/// never contend. The analysis service keeps its in-memory verdict cache in
/// one.
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// A map with `shards` stripes (rounded up to at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        ShardedMap {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Lock the shard owning `key`. The guard covers every key in that
    /// stripe; hold it only for the compare-and-update.
    pub fn lock_shard(&self, key: &K) -> MutexGuard<'_, HashMap<K, V>> {
        self.shards[self.shard_index(key)]
            .lock()
            .expect("shard poisoned")
    }

    /// Iterate all shards (for end-of-run aggregation; takes `&mut self`,
    /// so no worker can still hold a lock).
    pub fn into_inner(self) -> impl Iterator<Item = HashMap<K, V>> {
        self.shards
            .into_iter()
            .map(|m| m.into_inner().expect("shard poisoned"))
    }

    /// Total number of values across all shards (locks each shard briefly).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|m| m.lock().expect("shard poisoned").len())
            .sum()
    }

    /// Whether the map holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_depend_on_seed_epoch_and_index_only() {
        assert_eq!(trial_seed(42, 3, 7), trial_seed(42, 3, 7));
        let seeds: std::collections::HashSet<u64> = (0..4)
            .flat_map(|epoch| (0..64).map(move |t| trial_seed(42, epoch, t)))
            .collect();
        assert_eq!(seeds.len(), 4 * 64);
    }

    #[test]
    fn stream_seeds_are_stable_and_distinct() {
        let a = derive_stream_seed(42, 0);
        assert_eq!(a, derive_stream_seed(42, 0));
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|w| derive_stream_seed(42, w)).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        assert!(t.same_as(&clone));
        assert!(!t.same_as(&CancelToken::new()));
        clone.cancel();
        assert!(t.is_cancelled());
        clone.cancel(); // idempotent
        assert!(clone.is_cancelled());
    }

    #[test]
    fn priority_queue_orders_by_priority_then_fifo() {
        let q: PriorityWorkQueue<&str> = PriorityWorkQueue::new(16, 1_000_000);
        q.try_push("low-1", 0).unwrap();
        q.try_push("high", 5).unwrap();
        q.try_push("low-2", 0).unwrap();
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("low-1"));
        assert_eq!(q.pop(), Some("low-2"));
    }

    #[test]
    fn priority_queue_rejects_when_full_or_stopped() {
        let q: PriorityWorkQueue<u32> = PriorityWorkQueue::new(2, 8);
        q.try_push(1, 0).unwrap();
        q.try_push(2, 0).unwrap();
        assert_eq!(q.try_push(3, 9), Err(PushError::Full));
        assert_eq!(q.peak_len(), 2);
        q.stop();
        assert_eq!(q.try_push(4, 0), Err(PushError::Stopped));
        assert_eq!(q.pop(), None);
        assert_eq!(q.drain(), vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn priority_queue_aging_prevents_starvation() {
        // With an aging step of 2 queue operations, a priority-0 entry
        // that waited long enough outranks a fresh priority-3 entry.
        let q: PriorityWorkQueue<&str> = PriorityWorkQueue::new(64, 2);
        q.try_push("old-low", 0).unwrap();
        for _ in 0..4 {
            q.try_push("filler", -100).unwrap();
        }
        // old-low has now aged (4 pushes = 2 effective boosts).
        q.try_push("fresh-high", 1).unwrap();
        assert_eq!(q.pop(), Some("old-low"));
    }

    #[test]
    fn priority_queue_pop_blocks_until_push_or_stop() {
        let q: PriorityWorkQueue<u32> = PriorityWorkQueue::new(8, 8);
        std::thread::scope(|scope| {
            let popper = scope.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.try_push(7, 0).unwrap();
            assert_eq!(popper.join().unwrap(), Some(7));
            let popper = scope.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.stop();
            assert_eq!(popper.join().unwrap(), None);
        });
    }

    #[test]
    fn sharded_map_counts_across_shards() {
        let map: ShardedMap<u64, Vec<u64>> = ShardedMap::new(64);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let map = &map;
                scope.spawn(move || {
                    for key in 0..256u64 {
                        map.lock_shard(&key).entry(key).or_default().push(w);
                    }
                });
            }
        });
        assert_eq!(map.len(), 256);
        let mut total = 0;
        for shard in map.into_inner() {
            for (_, v) in shard {
                assert_eq!(v.len(), 4);
                total += v.len();
            }
        }
        assert_eq!(total, 1024);
    }
}
