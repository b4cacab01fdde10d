//! The exploration state store: where an engine's passed/waiting lists
//! physically live.
//!
//! Explicit-state engines keep two collections: an arena of discovered
//! states (for trace reconstruction) and an inclusion-reduced passed
//! list partitioned by a discrete key. [`StateStore`] holds both, plus
//! the FIFO waiting list. Without a [`SpillConfig`] every state stays in
//! memory and nothing touches disk. With one the store is out-of-core:
//! the first `resident_budget` states stay fully in memory, every later
//! state is serialized into an append-only [`StateLog`] and only a
//! compact summary (plus its content fingerprint) stays resident.
//! Inclusion checks probe the summary first and fault the full record
//! from disk only on a possible-subsumption hit.
//!
//! The store is engine-agnostic: any state type implementing
//! [`Spillable`] (timed-automata symbolic states today) can live in it,
//! and engines carry arbitrary resident per-node metadata `M` (parent
//! edges, permutation indices) alongside.
//!
//! Correctness contract: spilling must never change verdicts *or*
//! exploration statistics. The summary prefilter is a sound necessary
//! condition — it may only skip disk faults, never flip the outcome of
//! a cover check — and every faulted record is verified against its
//! length, checksum, and content [`Fingerprint`] before it is trusted.
//! A torn or bit-flipped record surfaces as a typed
//! [`SpillError`], never as a wrong answer.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use tempo_conc::{RecordRef, SpillError, StateLog};

use crate::{Fingerprint, SpillConfig, StableHasher};

/// What a state type must provide to live in a [`StateStore`].
///
/// `covered_by` is the exact partial order used for inclusion
/// reduction (zone subset for timed automata; plain equality is a
/// valid choice for engines without a lattice). The two `may_*`
/// prefilters answer from a resident [`Spillable::Summary`] alone and
/// must be *sound necessary conditions*: returning `false` asserts the
/// exact check would also fail, while `true` only licenses a disk
/// fault followed by the exact check.
pub trait Spillable: Sized + Clone {
    /// Discrete key partitioning the passed list.
    type Key: Eq + Hash + Clone;
    /// Compact resident summary of one stored state.
    type Summary;

    /// The discrete key of this state.
    fn key(&self) -> Self::Key;
    /// The resident summary kept for this state when it spills.
    fn summary(&self) -> Self::Summary;
    /// Exact cover check: is `self` subsumed by `other`?
    fn covered_by(&self, other: &Self) -> bool;
    /// Sound necessary condition for `state.covered_by(stored)` given
    /// only the stored state's summary.
    fn may_cover(stored: &Self::Summary, state: &Self) -> bool;
    /// Sound necessary condition for `stored.covered_by(state)` given
    /// only the stored state's summary.
    fn may_be_covered(stored: &Self::Summary, state: &Self) -> bool;
    /// Serializes the state for the spill log.
    fn encode(&self) -> Vec<u8>;
    /// Deserializes a state from spill-log bytes. The error string
    /// describes the defect; callers wrap it into [`SpillError::Corrupt`].
    ///
    /// # Errors
    ///
    /// A description of the malformation when `bytes` is not a valid
    /// encoding.
    fn decode(bytes: &[u8]) -> Result<Self, String>;
}

/// Out-of-core accounting of one store (all zero without a spill log).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillMetrics {
    /// States whose full representation went to the spill log.
    pub spilled_states: u64,
    /// Bytes appended to the spill log, record headers included.
    pub spill_bytes: u64,
    /// Full records faulted back in from the log.
    pub spill_faults: u64,
}

/// Content fingerprint of a spill-record payload, the store-level
/// integrity key: recomputed on every fault and compared against the
/// value captured at append time, so even a log whose checksum happens
/// to collide cannot smuggle altered bytes back into the engine.
fn payload_digest(payload: &[u8]) -> Fingerprint {
    let mut h = StableHasher::new();
    h.write_tag("spill-record");
    h.write_bytes(payload);
    h.finish()
}

/// A spilled node's resident index entry: its summary for the
/// inclusion prefilter, and where its record lives in the log.
struct Spilled<S: Spillable> {
    summary: S::Summary,
    rec: RecordRef,
    digest: Fingerprint,
}

/// Process-wide sequence for unique spill-log file names, so several
/// concurrent analyses may share one spill directory.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh uniquely-named state log inside `config.path`.
fn create_state_log(config: &SpillConfig) -> Result<StateLog, SpillError> {
    std::fs::create_dir_all(&config.path).map_err(|e| {
        SpillError::io(
            &format!("creating spill directory {}", config.path.display()),
            e,
        )
    })?;
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("state.{}.{seq}.log", std::process::id());
    StateLog::create(&config.path.join(name))
}

/// The node arena. The resident budget fills first, so the resident
/// nodes are a prefix of the ids: node `i` is resident exactly when
/// `i < resident.len()`, and no node carries a tag saying where it
/// lives.
struct Nodes<S: Spillable> {
    /// The spill log; `None` keeps every state resident.
    log: Option<StateLog>,
    /// Nodes kept fully in memory before spilling begins (unbounded
    /// without a log).
    resident_budget: usize,
    /// Full states of nodes `0..resident.len()`.
    resident: Vec<S>,
    /// Index entries of nodes `resident.len()..`, in id order.
    spilled: Vec<Spilled<S>>,
    metrics: SpillMetrics,
}

impl<S: Spillable> Nodes<S> {
    /// Appends a node, spilling it once the resident budget is full,
    /// and returns its id.
    fn push(&mut self, state: S) -> Result<usize, SpillError> {
        let id = self.resident.len() + self.spilled.len();
        match &self.log {
            Some(log) if id >= self.resident_budget => {
                let payload = state.encode();
                let rec = log.append(&payload)?;
                self.metrics.spilled_states += 1;
                self.spilled.push(Spilled {
                    summary: state.summary(),
                    rec,
                    digest: payload_digest(&payload),
                });
            }
            _ => self.resident.push(state),
        }
        Ok(id)
    }

    /// Faults the `k`-th spilled node back from the log, verifying
    /// checksum and content fingerprint before decoding.
    fn fault(&mut self, k: usize) -> Result<S, SpillError> {
        let Spilled { rec, digest, .. } = &self.spilled[k];
        let log = self.log.as_ref().expect("only a store with a log spills");
        self.metrics.spill_faults += 1;
        let payload = log.read(*rec)?;
        if payload_digest(&payload) != *digest {
            return Err(SpillError::Corrupt {
                offset: rec.offset,
                detail: "payload fingerprint mismatch".to_owned(),
            });
        }
        S::decode(&payload).map_err(|detail| SpillError::Corrupt {
            offset: rec.offset,
            detail,
        })
    }

    /// Decides the exact cover check `exact(stored)` against node `i`.
    /// A spilled node is faulted only when `prefilter(summary)` admits
    /// a possible hit.
    fn covers(
        &mut self,
        i: usize,
        prefilter: impl FnOnce(&S::Summary) -> bool,
        exact: impl FnOnce(&S) -> bool,
    ) -> Result<bool, SpillError> {
        if let Some(stored) = self.resident.get(i) {
            return Ok(exact(stored));
        }
        let k = i - self.resident.len();
        if !prefilter(&self.spilled[k].summary) {
            return Ok(false);
        }
        Ok(exact(&self.fault(k)?))
    }

    /// The full state of node `i`, faulted from disk if spilled.
    fn load(&mut self, i: usize) -> Result<S, SpillError> {
        match self.resident.get(i) {
            Some(state) => Ok(state.clone()),
            None => self.fault(i - self.resident.len()),
        }
    }
}

/// Storage behind an exploration engine's passed/waiting lists (see the
/// module docs). Only a store with a spill log can fail: its fallible
/// methods report any I/O failure or corruption as a [`SpillError`].
pub struct StateStore<S: Spillable, M> {
    nodes: Nodes<S>,
    /// Resident metadata of every node, by id.
    meta: Vec<M>,
    passed: HashMap<S::Key, Vec<usize>>,
    waiting: VecDeque<usize>,
}

impl<S: Spillable, M> StateStore<S, M> {
    /// An empty store. Without `spill` it keeps every state in memory;
    /// with it, it creates the spill directory and a uniquely-named log
    /// file inside it (removed again on drop), and states past the
    /// resident budget go to that log.
    ///
    /// # Errors
    ///
    /// [`SpillError::Io`] when the spill log cannot be created.
    pub fn create(spill: Option<&SpillConfig>) -> Result<Self, SpillError> {
        let (log, resident_budget) = match spill {
            Some(config) => (Some(create_state_log(config)?), config.resident_budget),
            None => (None, usize::MAX),
        };
        Ok(StateStore {
            nodes: Nodes {
                log,
                resident_budget,
                resident: Vec::new(),
                spilled: Vec::new(),
                metrics: SpillMetrics::default(),
            },
            meta: Vec::new(),
            passed: HashMap::new(),
            waiting: VecDeque::new(),
        })
    }

    /// The path of the spill log, if the store has one (tests use it to
    /// inject corruption).
    #[must_use]
    pub fn log_path(&self) -> Option<&Path> {
        self.nodes.log.as_ref().map(StateLog::path)
    }

    /// Inclusion probe: is `state` covered by a stored state with the
    /// same key?
    ///
    /// # Errors
    ///
    /// [`SpillError`] when a possible-subsumption hit faults a record
    /// that cannot be read back intact.
    pub fn is_subsumed(&mut self, state: &S) -> Result<bool, SpillError> {
        let Some(ids) = self.passed.get(&state.key()) else {
            return Ok(false);
        };
        for &i in ids {
            // stored covers state ⟺ state.covered_by(stored)
            let may_cover = |summary: &S::Summary| S::may_cover(summary, state);
            if self
                .nodes
                .covers(i, may_cover, |stored| state.covered_by(stored))?
            {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// The engine's whole store-side insertion step: evicts the stored
    /// states covered by `state`, stores it with its resident metadata
    /// (spilling it past the resident budget), enqueues it, and returns
    /// its node id. The engine keeps the probe ([`Self::is_subsumed`])
    /// separate because budget charging sits between probe and insert.
    ///
    /// # Errors
    ///
    /// [`SpillError`] when spilling the state or faulting an eviction
    /// candidate fails.
    pub fn insert(&mut self, state: S, meta: M) -> Result<usize, SpillError> {
        let ids = self.passed.entry(state.key()).or_default();
        // Evict ⟺ stored.covered_by(state); after a failed fault the
        // remaining ids are kept untouched.
        let mut faulted = Ok(());
        ids.retain(|&i| {
            let may_be_covered = |summary: &S::Summary| S::may_be_covered(summary, &state);
            let evict = faulted.is_ok()
                && self
                    .nodes
                    .covers(i, may_be_covered, |stored| stored.covered_by(&state))
                    .unwrap_or_else(|e| {
                        faulted = Err(e);
                        false
                    });
            !evict
        });
        faulted?;
        let id = self.nodes.push(state)?;
        ids.push(id);
        self.meta.push(meta);
        self.waiting.push_back(id);
        Ok(id)
    }

    /// Pops the next waiting node id (FIFO).
    pub fn pop_waiting(&mut self) -> Option<usize> {
        self.waiting.pop_front()
    }

    /// Current waiting-list length (for high-water tracking).
    #[must_use]
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// Loads the full state of node `id`, faulting from disk if spilled.
    ///
    /// # Errors
    ///
    /// [`SpillError`] when the record cannot be read back intact.
    pub fn load(&mut self, id: usize) -> Result<S, SpillError> {
        self.nodes.load(id)
    }

    /// The resident metadata of node `id`.
    #[must_use]
    pub fn meta(&self, id: usize) -> &M {
        &self.meta[id]
    }

    /// Every node inserted so far, evicted ones included, in id order
    /// with its metadata; spilled states are faulted back from disk.
    ///
    /// # Errors
    ///
    /// [`SpillError`] when a record cannot be read back intact.
    pub fn into_nodes(mut self) -> Result<Vec<(S, M)>, SpillError> {
        let mut states = std::mem::take(&mut self.nodes.resident);
        for k in 0..self.nodes.spilled.len() {
            states.push(self.nodes.fault(k)?);
        }
        Ok(states.into_iter().zip(self.meta).collect())
    }

    /// States currently retained in the passed list (after inclusion
    /// eviction).
    #[must_use]
    pub fn stored(&self) -> usize {
        self.passed.values().map(Vec::len).sum()
    }

    /// Out-of-core accounting so far.
    #[must_use]
    pub fn metrics(&self) -> SpillMetrics {
        SpillMetrics {
            spill_bytes: self.nodes.log.as_ref().map_or(0, StateLog::bytes_written),
            ..self.nodes.metrics
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy spillable state: key = value mod 4, cover = `<=` on value
    /// (so larger values subsume smaller ones within a key class), and
    /// the summary is the value itself (exact prefilter).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Toy(u64);

    impl Spillable for Toy {
        type Key = u64;
        type Summary = u64;

        fn key(&self) -> u64 {
            self.0 % 4
        }
        fn summary(&self) -> u64 {
            self.0
        }
        fn covered_by(&self, other: &Self) -> bool {
            self.0 <= other.0
        }
        fn may_cover(stored: &u64, state: &Self) -> bool {
            state.0 <= *stored
        }
        fn may_be_covered(stored: &u64, state: &Self) -> bool {
            *stored <= state.0
        }
        fn encode(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }
        fn decode(bytes: &[u8]) -> Result<Self, String> {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| "bad length".to_owned())?;
            Ok(Toy(u64::from_le_bytes(arr)))
        }
    }

    fn spill_dir(name: &str) -> SpillConfig {
        let mut p = std::env::temp_dir();
        p.push(format!("tempo-store-test-{}-{name}", std::process::id()));
        SpillConfig {
            path: p,
            resident_budget: 0,
        }
    }

    /// Every answer a store gives on a fixed Toy sequence — probe
    /// results with the ids handed out, `stored()`, and the pop order
    /// with each popped node's state and metadata — and its counters.
    fn observe(mut store: StateStore<Toy, u32>) -> (Vec<String>, SpillMetrics) {
        let mut seen = Vec::new();
        for v in [4, 5, 4, 8, 3, 9, 12, 13, 6, 7, 2, 16] {
            let subsumed = store.is_subsumed(&Toy(v)).unwrap();
            let id = (!subsumed).then(|| store.insert(Toy(v), v as u32).unwrap());
            seen.push(format!("probe {v}: {subsumed} {id:?}"));
        }
        seen.push(format!("stored {}", store.stored()));
        while let Some(id) = store.pop_waiting() {
            let state = store.load(id).unwrap();
            seen.push(format!("pop {id}: {state:?} {}", store.meta(id)));
        }
        (seen, store.metrics())
    }

    #[test]
    fn store_without_spill_config_stays_in_memory() {
        let mut store: StateStore<Toy, ()> = StateStore::create(None).unwrap();
        assert!(store.log_path().is_none(), "no log file is created");
        for v in 0..32 {
            store.insert(Toy(v), ()).unwrap();
        }
        assert!(store.is_subsumed(&Toy(7)).unwrap());
        store.load(0).unwrap();
        assert_eq!(store.metrics(), SpillMetrics::default());
    }

    #[test]
    fn resident_and_spill_agree() {
        let (resident, metrics) = observe(StateStore::create(None).unwrap());
        assert_eq!(metrics, SpillMetrics::default());
        // The second 4 is covered by the first and 2 by 6; every other
        // value beats its key class and evicts the state stored there.
        assert_eq!(resident[2], "probe 4: true None");
        assert_eq!(resident[10], "probe 2: true None");
        assert_eq!(resident[12], "stored 4");
        assert_eq!(
            resident[13], "pop 0: Toy(4) 4",
            "evicted nodes stay loadable"
        );
        assert_eq!(resident.len(), 23, "all 10 inserted nodes are popped");

        let cfg = spill_dir("agree");
        let (spilled, metrics) = observe(StateStore::create(Some(&cfg)).unwrap());
        assert_eq!(spilled, resident);
        assert_eq!(metrics.spilled_states, 10, "budget 0 spills everything");
        assert!(metrics.spill_bytes > 0);
        assert!(metrics.spill_faults > 0);
        let _ = std::fs::remove_dir_all(&cfg.path);
    }

    #[test]
    fn resident_budget_keeps_prefix_in_memory() {
        let cfg = SpillConfig {
            resident_budget: 2,
            ..spill_dir("budget")
        };
        let mut store: StateStore<Toy, ()> = StateStore::create(Some(&cfg)).unwrap();
        store.insert(Toy(1), ()).unwrap();
        store.insert(Toy(2), ()).unwrap();
        store.insert(Toy(3), ()).unwrap();
        assert_eq!(store.metrics().spilled_states, 1);
        // Loading a resident node is not a fault.
        let faults = store.metrics().spill_faults;
        store.load(0).unwrap();
        assert_eq!(store.metrics().spill_faults, faults);
        store.load(2).unwrap();
        assert_eq!(store.metrics().spill_faults, faults + 1);
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.path);
    }

    #[test]
    fn torn_log_fails_loud_not_wrong() {
        let cfg = spill_dir("torn");
        let mut store: StateStore<Toy, ()> = StateStore::create(Some(&cfg)).unwrap();
        store.insert(Toy(7), ()).unwrap();
        // Tear the log mid-record.
        let path = store.log_path().unwrap().to_path_buf();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        match store.load(0) {
            Err(SpillError::Torn { .. }) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
        // The probe that would fault the torn record also fails loud.
        match store.is_subsumed(&Toy(3)) {
            Err(SpillError::Torn { .. }) => {}
            other => panic!("expected Torn, got {other:?}"),
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&cfg.path);
    }
}
