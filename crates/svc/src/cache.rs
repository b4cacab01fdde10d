//! The two-tier, content-addressed verdict cache.
//!
//! * **Memory tier** — a mutex-striped [`ShardedMap`] from cache key to
//!   verdict. Entries were validated when produced (the certificate
//!   pipeline replays every certificate before the engine returns), so
//!   a memory hit is served without re-validation.
//! * **Disk tier** (optional) — one text file per certified verdict in
//!   the `tempo-witness` v1 format, preceded by a small header carrying
//!   the canonical verdict line and the producing run's [`RunReport`]
//!   in its `name=value` text form. Disk entries outlive the process and
//!   are therefore *not* trusted: on every hit the certificate is
//!   parsed and replayed against the live model through the independent
//!   validator, and any mismatch (truncation, bit-flips, a stale file
//!   for a since-changed model that happens to collide) rejects the
//!   entry and falls back to recomputation.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tempo_conc::ShardedMap;
use tempo_obs::{Budget, Fingerprint, RunReport};
use tempo_witness::format;

use crate::job::{JobKind, JobVerdict};

/// Header line of a disk-tier cache file.
const DISK_MAGIC: &str = "tempo-svc-cache v2";

/// A cached verdict: the canonical answer, the work of the run that
/// produced it, and the rendered certificate (when the verdict admits
/// one) for the disk tier.
#[derive(Clone)]
pub(crate) struct CachedVerdict {
    pub verdict: JobVerdict,
    pub report: RunReport,
    pub certificate: Option<Arc<String>>,
}

/// Outcome of a disk-tier probe, distinguishing "nothing there" from
/// "something there that failed certificate replay".
pub(crate) enum DiskLookup {
    /// No file for this key.
    Absent,
    /// A file existed but was corrupted or stale; the caller recomputes.
    /// `evicted` reports whether the dead entry was deleted from disk
    /// (it can never validate again, so leaving it would re-pay the
    /// replay cost on every future lookup).
    Rejected {
        /// Whether the dead file was removed.
        evicted: bool,
    },
    /// The certificate replayed successfully against the live model.
    /// Boxed: a `CachedVerdict` dwarfs the other variants.
    Hit(Box<CachedVerdict>),
}

/// Process-wide sequence for unique temp-file names: concurrent writers
/// of the *same* key must never share a temp path, or one writer's
/// rename can publish another's half-written file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

pub(crate) struct VerdictCache {
    memory: ShardedMap<Fingerprint, CachedVerdict>,
    disk: Option<PathBuf>,
}

impl VerdictCache {
    pub(crate) fn new(shards: usize, disk: Option<PathBuf>) -> Self {
        if let Some(dir) = &disk {
            // Best-effort: a failure here surfaces later as disk misses.
            let _ = fs::create_dir_all(dir);
        }
        VerdictCache {
            memory: ShardedMap::new(shards),
            disk,
        }
    }

    pub(crate) fn lookup_memory(&self, key: &Fingerprint) -> Option<CachedVerdict> {
        self.memory.lock_shard(key).get(key).cloned()
    }

    /// Inserts into the memory tier and, when the kind persists and a
    /// certificate exists, writes the disk file atomically (temp file +
    /// rename) so a crashed writer never leaves a half-entry.
    pub(crate) fn insert(&self, key: Fingerprint, kind: &JobKind, cached: &CachedVerdict) {
        self.memory.lock_shard(&key).insert(key, cached.clone());
        let (Some(dir), Some(cert), true) =
            (&self.disk, &cached.certificate, kind.persists_to_disk())
        else {
            return;
        };
        let path = entry_path(dir, &key);
        // Per-writer temp name (key + pid + sequence): concurrent
        // inserts of the same key each write their own file and race
        // only on the final atomic rename, which either way publishes a
        // complete entry.
        let tmp = dir.join(format!(
            "{}.{}.{}.tmp",
            key.to_hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let body = format!(
            "{DISK_MAGIC}\nverdict {}\nreport {}\n\n{cert}",
            cached.verdict.render(),
            cached.report
        );
        // Best-effort persistence: an IO error only costs future warm
        // starts, never correctness. sync_all before the rename so a
        // crash cannot publish a name pointing at unflushed data.
        let ok = fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(body.as_bytes()).and_then(|()| f.sync_all()))
            .and_then(|()| fs::rename(&tmp, &path));
        if ok.is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Probes the disk tier for `key`, replaying any stored certificate
    /// against the live model behind `kind` before trusting it.
    pub(crate) fn lookup_disk(
        &self,
        key: &Fingerprint,
        kind: &JobKind,
        budget: &Budget,
    ) -> DiskLookup {
        let Some(dir) = &self.disk else {
            return DiskLookup::Absent;
        };
        let path = entry_path(dir, key);
        let Ok(text) = fs::read_to_string(&path) else {
            return DiskLookup::Absent;
        };
        match Self::revalidate(&text, kind, budget) {
            Some(cached) => {
                // Promote to the memory tier so the replay cost is paid
                // once per process, not once per request.
                self.memory.lock_shard(key).insert(*key, cached.clone());
                DiskLookup::Hit(Box::new(cached))
            }
            None => {
                // A corrupt or stale entry can never validate again:
                // delete it so subsequent lookups miss cheaply instead
                // of re-parsing and re-replaying a dead certificate.
                let evicted = fs::remove_file(&path).is_ok();
                DiskLookup::Rejected { evicted }
            }
        }
    }

    /// Parses and fully re-validates one disk entry. `None` on any
    /// defect — the entry is treated as corrupted.
    fn revalidate(text: &str, kind: &JobKind, budget: &Budget) -> Option<CachedVerdict> {
        let mut lines = text.lines();
        if lines.next()?.trim() != DISK_MAGIC {
            return None;
        }
        let verdict = JobVerdict::parse(lines.next()?.trim().strip_prefix("verdict ")?)?;
        // The persisted work report of the run that produced the entry,
        // so a disk hit keeps its true states_explored/wall_time in the
        // per-tenant rollups.
        let report = RunReport::parse_line(lines.next()?.trim().strip_prefix("report ")?)?;
        let cert_text: String = {
            let rest: Vec<&str> = lines.collect();
            rest.join("\n")
        };
        // `runs` certificates need concrete declarations to parse; every
        // kind the disk tier persists is network-independent to *parse*
        // (validation always runs against the live model).
        let cert = format::parse_standalone(&cert_text).ok()?;
        kind.validate_cached(&verdict, &cert, budget).ok()?;
        Some(CachedVerdict {
            verdict,
            report,
            certificate: Some(Arc::new(cert_text)),
        })
    }

    /// Number of entries in the memory tier (tests and diagnostics).
    pub(crate) fn memory_len(&self) -> usize {
        self.memory.len()
    }

    /// The disk path an entry for `key` would live at, if a disk tier is
    /// configured (tests use this to tamper with entries).
    pub(crate) fn disk_path(&self, key: &Fingerprint) -> Option<PathBuf> {
        self.disk.as_ref().map(|dir| entry_path(dir, key))
    }
}

fn entry_path(dir: &Path, key: &Fingerprint) -> PathBuf {
    dir.join(format!("{}.wit", key.to_hex()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{NetworkBuilder, StateFormula};

    /// A fresh scratch directory under the system temp dir.
    fn unique_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tempo-cache-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A minimal persistable job kind (Reach persists to disk).
    fn reach_kind() -> JobKind {
        let mut b = NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).done();
        let a = a.done();
        let net = Arc::new(b.build());
        let goal = StateFormula::at(a, l1);
        JobKind::Reach {
            net,
            goal,
            explore: tempo_obs::ExploreConfig::default(),
        }
    }

    /// Regression: concurrent inserts of the *same* key used to share
    /// one temp path (`path.with_extension("tmp")`), so writer A could
    /// rename writer B's half-written file into place. With per-writer
    /// temp names every published entry is complete, whichever writer's
    /// rename lands last.
    #[test]
    fn concurrent_same_key_inserts_publish_only_complete_entries() {
        let dir = unique_dir("race");
        let cache = VerdictCache::new(4, Some(dir.clone()));
        let kind = reach_kind();
        let key = Fingerprint::from_hex("00112233445566778899aabbccddeeff").unwrap();
        // A large certificate widens the window in which a torn write
        // would be observable.
        let cert = Arc::new("certificate-line\n".repeat(4096));
        let cached = CachedVerdict {
            verdict: JobVerdict::Reachable(true),
            report: RunReport {
                states_explored: 42,
                ..RunReport::default()
            },
            certificate: Some(Arc::clone(&cert)),
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = &cache;
                let kind = &kind;
                let cached = &cached;
                scope.spawn(move || {
                    for _ in 0..25 {
                        cache.insert(key, kind, cached);
                    }
                });
            }
        });
        let expected = format!(
            "{DISK_MAGIC}\nverdict {}\nreport {}\n\n{cert}",
            cached.verdict.render(),
            cached.report
        );
        let on_disk = fs::read_to_string(cache.disk_path(&key).unwrap()).unwrap();
        assert_eq!(on_disk, expected, "published entry must be complete");
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftover.is_empty(),
            "temp files must not leak: {leftover:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Regression: a corrupt disk entry used to stay on disk forever,
    /// re-paying the parse-and-replay cost on every lookup. Now the dead
    /// file is deleted on rejection and the next probe misses cheaply.
    #[test]
    fn rejected_disk_entry_is_evicted_and_next_lookup_misses() {
        let dir = unique_dir("evict");
        let cache = VerdictCache::new(1, Some(dir.clone()));
        let kind = reach_kind();
        let key = Fingerprint::from_hex("ffeeddccbbaa99887766554433221100").unwrap();
        let path = cache.disk_path(&key).unwrap();
        fs::write(&path, "not a tempo-svc-cache file").unwrap();
        match cache.lookup_disk(&key, &kind, &Budget::unlimited()) {
            DiskLookup::Rejected { evicted } => assert!(evicted, "dead entry must be deleted"),
            _ => panic!("garbage file must be rejected"),
        }
        assert!(!path.exists(), "rejected entry must be gone from disk");
        assert!(
            matches!(
                cache.lookup_disk(&key, &kind, &Budget::unlimited()),
                DiskLookup::Absent
            ),
            "second lookup must miss without re-replay"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
