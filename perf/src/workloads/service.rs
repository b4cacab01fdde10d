//! `service`: one analysis service under a skewed, repetitive request
//! mix, so its cache does the work. [`CLIENTS`] client threads, each a
//! closed loop, share one service with the default worker pool (the one
//! `tempo check` starts) and draw Zipf(1.0) ranks over a pool of 48
//! jobs: BRP `Pmax(P1)` at 36 sizes, 8 train-gate reachability goals,
//! train-gate deadlock freedom at 3 sizes, and the DALA BIP deadlock
//! check. Two clients asking for the same uncached job at once coalesce
//! onto one computation. A round has two phases over one disk directory:
//! `fill` starts a service on an empty directory (every first request
//! computes and writes its certificate), `reopen` starts a new service
//! on the same directory (certified entries are parsed and replayed,
//! the rest recompute).
//!
//! Kinds are dealt to Zipf ranks in a fixed interleaving and the seed
//! shuffles which job of a kind gets which of its ranks: the popular
//! ranks always carry the same mix of kinds, so a seed changes the
//! traffic but not what a cache hit costs.
//!
//! Oracles: BRP values match the analytic `P1`, train-gate goals are
//! reachable and its networks deadlock-free, DALA has no deadlock, and
//! every served verdict renders byte-identically to the first verdict
//! computed for its job.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempo_core::lang::Json;
use tempo_core::mdp::Opt;
use tempo_core::modest::Mcpta;
use tempo_core::obs::{Budget, ExploreConfig, ServiceCounters};
use tempo_core::svc::{
    AnalysisService, JobError, JobKind, JobRequest, JobResult, JobVerdict, ServiceConfig,
    VerdictSource,
};
use tempo_core::witness::certify::Certificate;
use tempo_core::witness::format;

use super::mcpta::{brp_exact, matches_exact};
use super::{ms, Canceller, Ctx, Workload};
use crate::report::Recorder;
use crate::stats::{self, Rng, Zipf};
use crate::sys::{self, Scratch};
use crate::trace::Tracer;

/// Per-request limit, enforced by `JobHandle::cancel`.
const LIMIT: Duration = Duration::from_secs(60);

/// Client threads: the reference machine's `nproc`, so the load never
/// needs more CPUs than it has.
const CLIENTS: usize = 2;

const ZIPF_S: f64 = 1.0;

enum Expect {
    /// An mcpta value equal to this analytic probability.
    Value(f64),
    /// Exactly this verdict.
    Verdict(JobVerdict),
}

struct Job {
    label: String,
    kind: JobKind,
    expect: Expect,
}

/// One request as a client saw it.
struct Served {
    job: usize,
    wall: Duration,
    ended: Instant,
    result: Result<JobResult, JobError>,
}

pub struct ServiceLoad {
    seed: u64,
    smoke: bool,
    requests_per_phase: usize,
    pool: Vec<Job>,
    zipf: Zipf,
    scratch: Scratch,
    /// One per client.
    watch: Vec<Canceller>,
    /// First computed verdict of each job, rendered.
    first: HashMap<usize, String>,
}

impl ServiceLoad {
    pub fn new(ctx: &Ctx) -> Result<Self, String> {
        Ok(ServiceLoad {
            seed: ctx.seed,
            smoke: ctx.smoke,
            requests_per_phase: if ctx.smoke { 100 } else { 2000 },
            pool: Vec::new(),
            zipf: Zipf::new(1, ZIPF_S),
            scratch: Scratch::new(&ctx.repo, "service")?,
            watch: (0..CLIENTS).map(|_| Canceller::start()).collect(),
            first: HashMap::new(),
        })
    }

    fn disk(&self) -> PathBuf {
        self.scratch.path().join("cache")
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            disk_dir: Some(self.disk()),
            ..ServiceConfig::default()
        }
    }

    /// One client's requests in one phase, drawn from its own stream.
    fn client(&self, svc: &AnalysisService, watch: &Canceller, stream: u64) -> Vec<Served> {
        let mut rng = Rng::new(self.seed, stream);
        (0..self.requests_per_phase / CLIENTS)
            .map(|_| {
                let job = self.zipf.sample(&mut rng);
                let started = Instant::now();
                let result = svc
                    .submit(JobRequest {
                        tenant: "client".to_owned(),
                        priority: 0,
                        budget: Budget::unlimited(),
                        kind: self.pool[job].kind.clone(),
                    })
                    .map_err(|e| JobError::Engine(format!("rejected: {e}")))
                    .and_then(|h| watch.wait(h, LIMIT));
                let ended = Instant::now();
                Served {
                    job,
                    wall: ended - started,
                    ended,
                    result,
                }
            })
            .collect()
    }

    /// Runs one phase: a new service over the disk directory, every
    /// client's requests, shutdown. Requests come back in the order they
    /// were answered.
    fn phase(
        &self,
        phase: u64,
        t: Option<&mut Tracer>,
    ) -> (Vec<Served>, ServiceCounters, Vec<(usize, PathBuf)>) {
        let (svc, t) = match t {
            Some(t) => (
                t.span("svc.start", |_| AnalysisService::new(self.config())),
                Some(t),
            ),
            None => (AnalysisService::new(self.config()), None),
        };
        let mut served: Vec<Served> = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .watch
                .iter()
                .zip(0u64..)
                .map(|(watch, c)| {
                    let svc = &svc;
                    scope.spawn(move || self.client(svc, watch, phase * CLIENTS as u64 + c))
                })
                .collect();
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("client thread panicked"))
                .collect()
        });
        served.sort_by_key(|s| s.ended);
        let entries = self
            .pool
            .iter()
            .enumerate()
            .filter(|(_, j)| j.kind.persists_to_disk())
            .filter_map(|(i, j)| {
                svc.disk_entry_path(&j.kind.cache_key(&Budget::unlimited()))
                    .map(|p| (i, p))
            })
            .collect();
        let counters = match t {
            Some(t) => t.span("svc.shutdown", |_| svc.shutdown()),
            None => svc.shutdown(),
        };
        (served, counters, entries)
    }

    /// Applies the oracles to one phase's requests and records them.
    fn judge(&mut self, served: &[Served], rec: &mut Recorder) {
        for s in served {
            let job = &self.pool[s.job];
            let (verdict, ok) = match &s.result {
                Err(e) => (e.to_string(), false),
                Ok(r) => {
                    let expected = match &job.expect {
                        Expect::Value(p) => {
                            matches!(r.verdict, JobVerdict::McptaValue(v) if matches_exact(v, *p))
                        }
                        Expect::Verdict(v) => r.verdict == *v,
                    };
                    let render = r.verdict.render();
                    let identical =
                        *self.first.entry(s.job).or_insert_with(|| render.clone()) == render;
                    (
                        format!("{} [{}]", r.verdict, source_tag(r.source)),
                        expected && identical,
                    )
                }
            };
            rec.check(&job.label, s.wall, verdict, ok);
        }
    }
}

fn source_tag(s: VerdictSource) -> &'static str {
    match s {
        VerdictSource::Computed => "computed",
        VerdictSource::MemoryHit => "memory-hit",
        VerdictSource::DiskHit => "disk-hit",
        VerdictSource::Coalesced => "coalesced",
    }
}

/// Deals the kinds' job lists onto ranks in proportion to their sizes,
/// so every stretch of ranks carries the same mix of kinds.
fn interleave(mut kinds: Vec<Vec<Job>>) -> Vec<Job> {
    let sizes: Vec<usize> = kinds.iter().map(Vec::len).collect();
    let total: usize = sizes.iter().sum();
    let mut taken = vec![0usize; kinds.len()];
    let mut pool = Vec::with_capacity(total);
    for list in &mut kinds {
        list.reverse();
    }
    for _ in 0..total {
        #[allow(clippy::cast_precision_loss)]
        let k = (0..kinds.len())
            .filter(|&k| taken[k] < sizes[k])
            .min_by(|&a, &b| {
                let due = |k: usize| (taken[k] as f64 + 0.5) / sizes[k] as f64;
                due(a).total_cmp(&due(b))
            })
            .expect("jobs left");
        taken[k] += 1;
        pool.push(kinds[k].pop().expect("job left"));
    }
    pool
}

fn build_pool(seed: u64, smoke: bool) -> Vec<Job> {
    let mut rng = Rng::new(seed, 3);
    let brp_sizes = if smoke { 5..=6 } else { 7..=24 };
    let mut brp = Vec::new();
    for n in brp_sizes {
        for max in [2, 3] {
            let b = tempo_models::brp(n, max, 1);
            brp.push(Job {
                label: format!("brp({n},{max},1) Pmax(P1)"),
                kind: JobKind::McptaReach {
                    goal: b.p1_goal(),
                    pta: Arc::new(b.pta),
                    opt: Opt::Max,
                    epsilon: 1e-9,
                },
                expect: Expect::Value(brp_exact(n, max).0),
            });
        }
    }
    let tg = tempo_models::train_gate(4);
    let net = Arc::new(tg.net.clone());
    let mut reach = Vec::new();
    for i in 0..4 {
        for (what, goal) in [("appr", tg.appr(i)), ("cross", tg.cross(i))] {
            reach.push(Job {
                label: format!("train_gate(4) E<> {what}({i})"),
                kind: JobKind::Reach {
                    net: Arc::clone(&net),
                    goal,
                    explore: ExploreConfig::default(),
                },
                expect: Expect::Verdict(JobVerdict::Reachable(true)),
            });
        }
    }
    let deadlock = (3..=if smoke { 3 } else { 5 })
        .map(|n| Job {
            label: format!("train_gate({n}) deadlock free"),
            kind: JobKind::DeadlockFree {
                net: Arc::new(tempo_models::train_gate(n).net),
                explore: ExploreConfig::default(),
            },
            expect: Expect::Verdict(JobVerdict::DeadlockFree(true)),
        })
        .collect();
    let dala = vec![Job {
        label: "dala BIP deadlock".to_owned(),
        kind: JobKind::BipDeadlock {
            sys: Arc::new(tempo_models::dala().sys),
        },
        expect: Expect::Verdict(JobVerdict::BipDeadlock(false)),
    }];
    let mut kinds = vec![brp, reach, deadlock, dala];
    for list in &mut kinds {
        rng.shuffle(list);
    }
    interleave(kinds)
}

impl Workload for ServiceLoad {
    fn setup(&mut self) -> Result<(), String> {
        self.pool = build_pool(self.seed, self.smoke);
        self.zipf = Zipf::new(self.pool.len(), ZIPF_S);
        self.first.clear();
        // Warm-up: every job once, so the measured loop starts with the
        // process's one-time costs (code faults, allocator growth) paid.
        let _ = std::fs::remove_dir_all(self.disk());
        let svc = AnalysisService::new(self.config());
        for job in &self.pool {
            let handle = svc
                .submit(JobRequest {
                    tenant: "warm-up".into(),
                    priority: 0,
                    budget: Budget::unlimited(),
                    kind: job.kind.clone(),
                })
                .map_err(|e| format!("service refused {}: {e}", job.label))?;
            self.watch[0]
                .wait(handle, LIMIT)
                .map_err(|e| format!("{}: {e}", job.label))?;
        }
        svc.shutdown();
        Ok(())
    }

    fn round(&mut self, round: usize, rec: &mut Recorder) -> Result<(), String> {
        let disk = self.disk();
        let _ = std::fs::remove_dir_all(&disk);
        for phase in 0..2u64 {
            let (served, _, _) = self.phase(round as u64 * 2 + phase, None);
            self.judge(&served, rec);
        }
        Ok(())
    }

    fn traced_round(
        &mut self,
        round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let disk = self.disk();
        let _ = std::fs::remove_dir_all(&disk);
        let mut entries = Vec::new();
        let mut queue_peak = 0u64;
        let mut walls: Vec<(VerdictSource, f64)> = Vec::new();
        let mut overheads = Vec::new();
        for phase in 0..2u64 {
            let (served, counters, paths) = self.phase(round as u64 * 2 + phase, Some(t));
            entries = paths;
            for s in &served {
                let Ok(r) = &s.result else { continue };
                walls.push((r.source, ms(s.wall)));
                if r.source == VerdictSource::Computed {
                    overheads.push(ms(s
                        .wall
                        .saturating_sub(r.report.wall_time + r.report.certify_time)));
                }
            }
            #[allow(clippy::cast_precision_loss)]
            for (name, v) in [
                ("svc.requests", served.len() as u64),
                ("svc.hits", counters.hits),
                ("svc.disk_hits", counters.disk_hits),
                ("svc.disk_rejected", counters.disk_rejected),
                ("svc.misses", counters.misses),
                ("svc.coalesced", counters.coalesced),
            ] {
                t.count(name, v as f64);
            }
            queue_peak = queue_peak.max(counters.queue_peak);
            self.judge(&served, rec);
        }
        #[allow(clippy::cast_precision_loss)]
        t.count("svc.queue_peak", queue_peak as f64);
        for (source, name) in [
            (VerdictSource::MemoryHit, "svc.hit_ms_p50"),
            (VerdictSource::Computed, "svc.miss_ms_p50"),
            (VerdictSource::DiskHit, "svc.disk_hit_ms_p50"),
        ] {
            let of_source: Vec<f64> = walls
                .iter()
                .filter(|w| w.0 == source)
                .map(|w| w.1)
                .collect();
            if let Some(m) = stats::median(&of_source) {
                t.timing(name, m);
            }
        }
        if let Some(m) = stats::median(&overheads) {
            t.timing("svc.overhead_ms", m);
        }
        let budget = Budget::unlimited();
        for job in &self.pool {
            let gate = t.span("svc.lint_gate", |_| job.kind.lint_gate());
            if let Err(e) = gate {
                rec.problem(format!("{}: lint gate refused it: {e}", job.label));
            }
            t.span("svc.key", |_| job.kind.cache_key(&budget));
        }
        for (i, path) in entries {
            let job = &self.pool[i];
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let cert_text = text.split_once("\n\n").map_or("", |(_, c)| c);
            let cert = t
                .span("witness.parse", |_| format::parse_standalone(cert_text))
                .map_err(|e| format!("{}: disk certificate does not parse: {e}", job.label))?;
            t.span("witness.render", |_| format::render(&cert));
            let valid = t.span("witness.validate", |t| match (&job.kind, &cert) {
                (JobKind::Reach { net, goal, .. }, Certificate::Trace(c)) => {
                    c.validate(net, goal).is_ok()
                }
                (JobKind::McptaReach { pta, .. }, Certificate::Scheduler(c)) => t
                    .span("modest.mdp_build", |_| Mcpta::try_build(pta, &[], &budget))
                    .into_value()
                    .is_some_and(|m| c.validate(m.mdp()).is_ok()),
                _ => false,
            });
            if !valid {
                rec.problem(format!("{}: disk certificate does not replay", job.label));
            }
        }
        Ok(())
    }

    fn take_peak_rss_mb(&mut self) -> Result<f64, String> {
        sys::take_self_peak_rss_mb()
    }

    fn settings(&self) -> Vec<(&'static str, Json)> {
        let n = |v: usize| Json::int(i64::try_from(v).unwrap_or(0));
        vec![
            (
                "pool",
                Json::Arr(
                    self.pool
                        .iter()
                        .map(|j| Json::str(j.label.clone()))
                        .collect(),
                ),
            ),
            ("requests_per_phase", n(self.requests_per_phase)),
            ("clients", n(CLIENTS)),
            ("workers", n(self.config().workers)),
            ("zipf_s", Json::Num(ZIPF_S)),
            (
                "request_limit_ms",
                Json::int(i64::try_from(LIMIT.as_millis()).unwrap_or(0)),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dealt_evenly_over_ranks() {
        let pool = build_pool(1, false);
        assert_eq!(pool.len(), 48);
        let tag = |j: &Job| j.kind.engine_tag();
        // The same kind pattern for every seed; only the jobs differ.
        let pattern: Vec<&str> = pool.iter().map(tag).collect();
        let other = build_pool(2, false);
        assert_eq!(other.iter().map(tag).collect::<Vec<_>>(), pattern);
        assert_ne!(
            pool.iter().map(|j| j.label.as_str()).collect::<Vec<_>>(),
            other.iter().map(|j| j.label.as_str()).collect::<Vec<_>>()
        );
        // Every quarter of the ranks holds some train-gate reachability.
        for quarter in pattern.chunks(12) {
            assert!(quarter.contains(&"ta-reach"), "{quarter:?}");
        }
    }
}
