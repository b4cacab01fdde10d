//! The multi-tenant analysis service: a shared worker pool fed by a
//! priority-aged queue, with per-tenant admission control, in-flight
//! request coalescing, cooperative cancellation through the engines'
//! [`tempo_obs::Governor`] stop mechanism, and the two-tier verdict
//! cache in front of every engine.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tempo_conc::{CancelToken, PriorityWorkQueue, PushError};
use tempo_obs::{Fingerprint, RunReport, ServiceCounters, ServiceStats};
use tempo_witness::format;

use crate::cache::{CachedVerdict, DiskLookup, VerdictCache};
use crate::job::{JobError, JobKind, JobRequest, JobResult, Rejected, VerdictSource};

/// Tuning knobs of an [`AnalysisService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing engine runs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are refused with
    /// [`Rejected::QueueFull`] (typed backpressure, never silent drops).
    pub queue_capacity: usize,
    /// Queue operations per effective-priority increment for waiting
    /// jobs (smaller = faster aging = stronger starvation protection).
    pub aging_step: u64,
    /// Maximum jobs one tenant may have queued or running at once.
    pub max_active_per_tenant: usize,
    /// Shards of the in-memory cache tier.
    pub cache_shards: usize,
    /// Directory for the persistent certificate-backed tier; `None`
    /// disables it.
    pub disk_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            aging_step: 8,
            max_active_per_tenant: 16,
            cache_shards: 16,
            disk_dir: None,
        }
    }
}

/// One-shot rendezvous between a job's owner and the worker that
/// completes it. Filled exactly once; later fills are ignored, which is
/// what makes owner-cancellation and worker-completion race-free.
struct Slot {
    done: Mutex<Option<Result<JobResult, JobError>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            done: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    /// First fill wins; returns whether this call was it.
    fn fill(&self, result: Result<JobResult, JobError>) -> bool {
        self.fill_with(result, |_| {})
    }

    /// Like [`Slot::fill`], but runs `before` under the slot lock ahead
    /// of the notify — bookkeeping done in `before` is guaranteed
    /// visible to anyone unblocked by this fill (e.g. tenant rollups
    /// must already include a job by the time its `wait()` returns).
    fn fill_with(
        &self,
        result: Result<JobResult, JobError>,
        before: impl FnOnce(&Result<JobResult, JobError>),
    ) -> bool {
        let mut g = self.done.lock().expect("slot poisoned");
        if g.is_some() {
            return false;
        }
        before(&result);
        *g = Some(result);
        drop(g);
        self.ready.notify_all();
        true
    }

    fn wait(&self) -> Result<JobResult, JobError> {
        let mut g = self.done.lock().expect("slot poisoned");
        loop {
            if let Some(r) = g.as_ref() {
                return r.clone();
            }
            g = self.ready.wait(g).expect("slot poisoned");
        }
    }

    fn try_take(&self) -> Option<Result<JobResult, JobError>> {
        self.done.lock().expect("slot poisoned").clone()
    }
}

struct Waiter {
    slot: Arc<Slot>,
    tenant: String,
}

/// Book-keeping for one deduplicated computation: every identical
/// concurrent request attaches here as a waiter. The computation's
/// cancel token trips only when *all* attached waiters have cancelled —
/// a leader cancelling must not kill followers' answers.
struct Inflight {
    waiters: Vec<Waiter>,
    live: usize,
    comp: CancelToken,
}

/// One queued unit of work. The key doubles as the in-flight map index;
/// the budget is the first submitter's (coalesced requests share its
/// budget class by construction of the cache key).
struct Work {
    key: Fingerprint,
    kind: JobKind,
    budget: tempo_obs::Budget,
}

struct Inner {
    config: ServiceConfig,
    queue: PriorityWorkQueue<Work>,
    cache: VerdictCache,
    inflight: Mutex<HashMap<Fingerprint, Inflight>>,
    tenants: Mutex<HashMap<String, usize>>,
    tenant_reports: Mutex<HashMap<String, RunReport>>,
    stats: ServiceStats,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
}

impl Inner {
    fn try_acquire_tenant(&self, tenant: &str) -> Result<(), Rejected> {
        let mut g = self.tenants.lock().expect("tenant map poisoned");
        let count = g.entry(tenant.to_owned()).or_insert(0);
        if *count >= self.config.max_active_per_tenant {
            return Err(Rejected::TenantQuotaExceeded);
        }
        *count += 1;
        Ok(())
    }

    fn release_tenant(&self, tenant: &str) {
        let mut g = self.tenants.lock().expect("tenant map poisoned");
        if let Some(count) = g.get_mut(tenant) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                g.remove(tenant);
            }
        }
    }

    fn record_tenant_work(&self, tenant: &str, report: &RunReport) {
        self.tenant_reports
            .lock()
            .expect("report map poisoned")
            .entry(tenant.to_owned())
            .or_default()
            .merge(report);
    }

    /// Removes the in-flight entry for `key` and fans `result` out to
    /// every waiter still listening. Followers of a computed verdict are
    /// marked [`VerdictSource::Coalesced`].
    fn complete(&self, key: Fingerprint, result: &Result<JobResult, JobError>) {
        let entry = self
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .remove(&key);
        let Some(entry) = entry else { return };
        for (i, w) in entry.waiters.iter().enumerate() {
            let mut r = result.clone();
            if i > 0 {
                if let Ok(res) = &mut r {
                    if res.source == VerdictSource::Computed {
                        res.source = VerdictSource::Coalesced;
                    }
                }
            }
            w.slot.fill_with(r, |r| {
                match r {
                    Ok(res) => self.record_tenant_work(&w.tenant, &res.report),
                    Err(JobError::Cancelled) => self.stats.record_cancelled(),
                    Err(_) => {}
                }
                self.release_tenant(&w.tenant);
            });
        }
    }

    /// Worker-side handling of one popped work item: cache tiers first,
    /// then the engine, then fan-out.
    fn process(&self, work: Work) {
        let comp = {
            let g = self.inflight.lock().expect("inflight map poisoned");
            match g.get(&work.key) {
                Some(fl) => fl.comp.clone(),
                // Entry already gone (e.g. shutdown drained it between
                // pop and here): nothing left to serve.
                None => return,
            }
        };
        if comp.is_cancelled() {
            self.complete(work.key, &Err(JobError::Cancelled));
            return;
        }
        // A prior identical computation may have landed in the memory
        // tier while this item waited in the queue.
        if let Some(hit) = self.cache.lookup_memory(&work.key) {
            self.stats.record_hit();
            self.complete(
                work.key,
                &Ok(JobResult {
                    verdict: hit.verdict,
                    report: hit.report,
                    source: VerdictSource::MemoryHit,
                }),
            );
            return;
        }
        let budget = work.budget.clone().with_cancel(comp.clone());
        match self.cache.lookup_disk(&work.key, &work.kind, &budget) {
            DiskLookup::Hit(hit) => {
                self.stats.record_disk_hit();
                self.complete(
                    work.key,
                    &Ok(JobResult {
                        verdict: hit.verdict,
                        report: hit.report,
                        source: VerdictSource::DiskHit,
                    }),
                );
                return;
            }
            DiskLookup::Rejected { evicted } => {
                self.stats.record_disk_rejected();
                if evicted {
                    self.stats.record_disk_evicted();
                }
            }
            DiskLookup::Absent => {}
        }
        self.stats.record_miss();
        // A panicking engine resolves its job like any other engine
        // failure, and the worker goes on to the next job.
        let executed = catch_unwind(AssertUnwindSafe(|| work.kind.execute(&budget)))
            .unwrap_or_else(|payload| {
                self.stats.record_engine_panic();
                Err(JobError::EnginePanic(panic_message(payload.as_ref())))
            });
        match executed {
            Ok(exec) => {
                let cert_text = exec
                    .certificate
                    .as_ref()
                    .map(|c| Arc::new(format::render(c)));
                let cached = CachedVerdict {
                    verdict: exec.verdict.clone(),
                    report: exec.report.clone(),
                    certificate: cert_text,
                };
                self.cache.insert(work.key, &work.kind, &cached);
                self.complete(
                    work.key,
                    &Ok(JobResult {
                        verdict: exec.verdict,
                        report: exec.report,
                        source: VerdictSource::Computed,
                    }),
                );
            }
            // Cancellation can stop an engine before it has any result
            // (an estimate with no completed run), which it reports as
            // an engine error: the job was cancelled, not faulty.
            Err(JobError::Engine(_)) if comp.is_cancelled() => {
                self.complete(work.key, &Err(JobError::Cancelled));
            }
            Err(e) => self.complete(work.key, &Err(e)),
        }
    }
}

/// The message a panic was raised with, when it has one.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_owned())
}

/// A handle on one submitted job: wait for the verdict or cancel it.
///
/// Cancellation is cooperative and per-owner: it resolves *this* handle
/// immediately with [`JobError::Cancelled`], and stops the underlying
/// engine run only once every coalesced owner of the same computation
/// has cancelled (via the governor's stop mechanism, so the engine
/// unwinds at its next budget poll).
pub struct JobHandle {
    id: u64,
    key: Fingerprint,
    tenant: String,
    slot: Arc<Slot>,
    inner: Arc<Inner>,
}

impl JobHandle {
    /// Opaque job id (diagnostics).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's content-addressed cache key.
    #[must_use]
    pub fn cache_key(&self) -> Fingerprint {
        self.key
    }

    /// Blocks until the job resolves.
    ///
    /// # Errors
    ///
    /// [`JobError`] if the job was cancelled, ran out of budget, or the
    /// engine failed or panicked.
    pub fn wait(&self) -> Result<JobResult, JobError> {
        self.slot.wait()
    }

    /// The result, if the job has already resolved.
    #[must_use]
    pub fn try_result(&self) -> Option<Result<JobResult, JobError>> {
        self.slot.try_take()
    }

    /// Cancels this owner's interest in the job. Idempotent; a no-op if
    /// the job already resolved.
    pub fn cancel(&self) {
        let filled = self.slot.fill_with(Err(JobError::Cancelled), |_| {
            self.inner.stats.record_cancelled();
            self.inner.release_tenant(&self.tenant);
        });
        if !filled {
            return;
        }
        let mut g = self.inner.inflight.lock().expect("inflight map poisoned");
        if let Some(fl) = g.get_mut(&self.key) {
            fl.live = fl.live.saturating_sub(1);
            if fl.live == 0 {
                fl.comp.cancel();
            }
        }
    }
}

/// The multi-tenant concurrent analysis service.
///
/// ```
/// use std::sync::Arc;
/// use tempo_obs::{Budget, ExploreConfig};
/// use tempo_svc::{AnalysisService, JobKind, JobRequest, ServiceConfig};
/// use tempo_ta::{ClockAtom, NetworkBuilder, StateFormula};
///
/// let mut b = NetworkBuilder::new();
/// let x = b.clock("x");
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).guard_clock(ClockAtom::ge(x, 2)).done();
/// let a = a.done();
/// let net = Arc::new(b.build());
///
/// let svc = AnalysisService::new(ServiceConfig::default());
/// let job = svc.submit(JobRequest {
///     tenant: "docs".into(),
///     priority: 0,
///     budget: Budget::unlimited(),
///     kind: JobKind::Reach {
///         net,
///         goal: StateFormula::at(a, l1),
///         explore: ExploreConfig::default(),
///     },
/// }).expect("admitted");
/// let result = job.wait().expect("completed");
/// assert_eq!(result.verdict.render(), "reachable true");
/// svc.shutdown();
/// ```
pub struct AnalysisService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl AnalysisService {
    /// Starts the service: spawns the worker pool and opens (or creates)
    /// the disk tier if configured.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            queue: PriorityWorkQueue::new(config.queue_capacity, config.aging_step),
            cache: VerdictCache::new(config.cache_shards.max(1), config.disk_dir.clone()),
            inflight: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            tenant_reports: Mutex::new(HashMap::new()),
            stats: ServiceStats::new(),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(work) = inner.queue.pop() {
                        inner.process(work);
                    }
                })
            })
            .collect();
        AnalysisService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Submits a job, subject to admission control.
    ///
    /// A memory-tier cache hit resolves the returned handle immediately
    /// without consuming queue capacity or tenant quota. A submission
    /// identical to an in-flight computation coalesces onto it instead
    /// of queueing a duplicate engine run.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the queue is full, the tenant has too many
    /// active jobs, or the service is shutting down.
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, Rejected> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::Acquire) {
            inner.stats.record_rejected();
            return Err(Rejected::ShuttingDown);
        }
        // Admission lint gate: a model the engine would refuse never
        // reaches the queue (or the cache) in the first place.
        if let Err(e) = req.kind.lint_gate() {
            inner.stats.record_rejected();
            return Err(Rejected::Lint(e));
        }
        let key = req.kind.cache_key(&req.budget);
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(Slot::new());
        let handle = JobHandle {
            id,
            key,
            tenant: req.tenant.clone(),
            slot: Arc::clone(&slot),
            inner: Arc::clone(inner),
        };

        if let Some(hit) = inner.cache.lookup_memory(&key) {
            inner.stats.record_hit();
            inner.record_tenant_work(&req.tenant, &hit.report);
            slot.fill(Ok(JobResult {
                verdict: hit.verdict,
                report: hit.report,
                source: VerdictSource::MemoryHit,
            }));
            return Ok(handle);
        }

        if let Err(r) = inner.try_acquire_tenant(&req.tenant) {
            inner.stats.record_rejected();
            return Err(r);
        }

        // The in-flight lock is held across the queue push so the map
        // entry and the queued item appear atomically to workers.
        let mut map = inner.inflight.lock().expect("inflight map poisoned");
        let waiter = Waiter {
            slot,
            tenant: req.tenant.clone(),
        };
        if let Some(fl) = map.get_mut(&key) {
            fl.waiters.push(waiter);
            fl.live += 1;
            drop(map);
            inner.stats.record_coalesced();
            return Ok(handle);
        }
        let work = Work {
            key,
            kind: req.kind,
            budget: req.budget,
        };
        match inner.queue.try_push(work, req.priority) {
            Ok(()) => {
                map.insert(
                    key,
                    Inflight {
                        waiters: vec![waiter],
                        live: 1,
                        comp: CancelToken::new(),
                    },
                );
                drop(map);
                inner.stats.observe_queue_depth(inner.queue.len() as u64);
                Ok(handle)
            }
            Err(e) => {
                drop(map);
                inner.release_tenant(&req.tenant);
                inner.stats.record_rejected();
                Err(match e {
                    PushError::Full => Rejected::QueueFull,
                    PushError::Stopped => Rejected::ShuttingDown,
                })
            }
        }
    }

    /// Convenience: submit and block for the result.
    ///
    /// # Errors
    ///
    /// [`JobError::Engine`] wrapping the rejection when admission
    /// control refuses the submission, otherwise the job's own error.
    pub fn run(&self, req: JobRequest) -> Result<JobResult, JobError> {
        match self.submit(req) {
            Ok(handle) => handle.wait(),
            Err(r) => Err(JobError::Engine(format!("rejected: {r}"))),
        }
    }

    /// Point-in-time service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceCounters {
        self.inner.stats.snapshot()
    }

    /// The merged [`RunReport`] of every job a tenant completed so far.
    #[must_use]
    pub fn tenant_report(&self, tenant: &str) -> Option<RunReport> {
        self.inner
            .tenant_reports
            .lock()
            .expect("report map poisoned")
            .get(tenant)
            .cloned()
    }

    /// Entries currently in the in-memory cache tier.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.inner.cache.memory_len()
    }

    /// Disk-tier path for a cache key (tests tamper with these files to
    /// exercise the certificate-replay rejection path).
    #[must_use]
    pub fn disk_entry_path(&self, key: &Fingerprint) -> Option<PathBuf> {
        self.inner.cache.disk_path(key)
    }

    /// Deterministic shutdown: refuse new submissions, stop the queue,
    /// complete every still-queued job as cancelled, cancel every
    /// running computation through its governor, and join the workers.
    /// When this returns, every outstanding [`JobHandle::wait`] has a
    /// result.
    pub fn shutdown(&self) -> ServiceCounters {
        let inner = &self.inner;
        inner.shutting_down.store(true, Ordering::Release);
        // Workers' pop() returns None as soon as the queue stops, even
        // with entries remaining — those are drained below, exactly once.
        inner.queue.stop();
        for work in inner.queue.drain() {
            inner.complete(work.key, &Err(JobError::Cancelled));
        }
        let running: Vec<CancelToken> = inner
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .values()
            .map(|fl| fl.comp.clone())
            .collect();
        for token in running {
            token.cancel();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in workers {
            let _ = handle.join();
        }
        // Defensive sweep: nothing should remain, but an entry leaked by
        // a panicked worker must still resolve its waiters.
        let keys: Vec<Fingerprint> = inner
            .inflight
            .lock()
            .expect("inflight map poisoned")
            .keys()
            .copied()
            .collect();
        for key in keys {
            inner.complete(key, &Err(JobError::Cancelled));
        }
        inner.stats.snapshot()
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        // Idempotent: a second shutdown finds an empty worker list.
        self.shutdown();
    }
}
