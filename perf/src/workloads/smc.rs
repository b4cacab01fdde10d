//! `smc`: statistical model checking through the analysis service.
//! Each round estimates three probabilities, each on a fresh service:
//! two train-gate crossings and BRP-as-a-network P1 at a size drawn
//! from the seed.
//!
//! Oracles: the analytic `BrpNetwork::exact_p1` must lie in the bench's
//! own Wilson interval (at level `1 − 1e-8`, see [`Z_ORACLE`]), and
//! `Pr[<=100](<> cross(i))` on `train_gate(4)` must be at least 0.9, the
//! shape the paper's Fig. 4 shows.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tempo_core::lang::Json;
use tempo_core::lint::LintConfig;
use tempo_core::obs::Budget;
use tempo_core::smc::{Estimate, RatePolicy, Simulator, StatisticalChecker, DEFAULT_MAX_STEPS};
use tempo_core::svc::{AnalysisService, JobKind, JobRequest, JobVerdict, ServiceConfig};
use tempo_core::ta::{Network, StateFormula};
use tempo_core::witness::certify::{Certificate, RunCertificate};
use tempo_core::witness::format;

use super::{Canceller, Ctx, Cycle, Workload};
use crate::report::Recorder;
use crate::stats::{wilson, Rng, Z_ORACLE};
use crate::sys;
use crate::trace::Tracer;

/// Per-query limit, enforced by `JobHandle::cancel`.
const LIMIT: Duration = Duration::from_secs(60);

/// The CLI's default confidence for `Pr` asserts.
const CONFIDENCE: f64 = 0.95;

/// Runs the service exports into each estimate's certificate.
const WITNESS_RUNS: usize = 2;

const TRAINS: usize = 4;

/// One estimation query and its oracle.
struct Query {
    label: String,
    net: Arc<Network>,
    rates: RatePolicy,
    goal: StateFormula,
    bound: f64,
    oracle: Oracle,
}

#[derive(Clone, Copy)]
enum Oracle {
    /// The exact probability must lie in the Wilson interval.
    Exact(f64),
    /// The estimate must be at least this.
    AtLeast(f64),
}

impl Oracle {
    fn accepts(self, successes: usize, runs: usize) -> bool {
        match self {
            Oracle::Exact(p) => {
                let (lo, hi) = wilson(successes, runs, Z_ORACLE);
                (lo..=hi).contains(&p)
            }
            #[allow(clippy::cast_precision_loss)]
            Oracle::AtLeast(p) => successes as f64 / runs as f64 >= p,
        }
    }
}

pub struct SmcLoad {
    seed: u64,
    runs: usize,
    range: (i64, i64),
    brp: Vec<Query>,
    trains: Vec<Query>,
    sizes: Cycle,
    crossings: Cycle,
    watch: Canceller,
    /// `(query, simulation seed, runs, mean)` of the first traced
    /// query, for `verify`.
    direct: Option<(usize, u64, usize, f64)>,
}

impl SmcLoad {
    pub fn new(ctx: &Ctx) -> Self {
        let range = if ctx.smoke { (8, 8) } else { (12, 20) };
        SmcLoad {
            seed: ctx.seed,
            runs: if ctx.smoke { 200 } else { 400 },
            range,
            brp: Vec::new(),
            trains: Vec::new(),
            sizes: Cycle::new(range.0, range.1, Rng::new(ctx.seed, 1)),
            crossings: Cycle::new(0, TRAINS as i64 - 1, Rng::new(ctx.seed, 2)),
            watch: Canceller::start(),
            direct: None,
        }
    }

    /// This round's three queries, with the simulation seed of each:
    /// two train-gate crossings and one BRP size. Two of three from the
    /// homogeneous train-gate class put the median inside it.
    fn plan(&mut self, round: usize) -> Vec<(usize, u64)> {
        let mut rng = Rng::new(self.seed, 1000 + round as u64);
        let pick = |cycle: &mut Cycle, base: i64| {
            usize::try_from(cycle.next_value() - base).expect("in range")
        };
        let a = pick(&mut self.crossings, 0) + self.brp.len();
        let b = pick(&mut self.sizes, self.range.0);
        let c = pick(&mut self.crossings, 0) + self.brp.len();
        [a, b, c].into_iter().map(|q| (q, rng.next_u64())).collect()
    }

    fn query(&self, idx: usize) -> &Query {
        self.brp
            .get(idx)
            .unwrap_or_else(|| &self.trains[idx - self.brp.len()])
    }
}

/// One query on a fresh service, as `tempo check` runs it: the latency
/// from service start to shutdown, and the estimate or why there is none.
fn ask(
    q: &Query,
    watch: &Canceller,
    sim_seed: u64,
    runs: usize,
) -> Result<(Duration, Result<Estimate, String>), String> {
    let started = Instant::now();
    let svc = AnalysisService::new(ServiceConfig::default());
    let handle = svc
        .submit(JobRequest {
            tenant: "bench".into(),
            priority: 0,
            budget: Budget::unlimited(),
            kind: JobKind::Probability {
                net: Arc::clone(&q.net),
                rates: q.rates.clone(),
                seed: sim_seed,
                goal: q.goal.clone(),
                bound: q.bound,
                runs,
                confidence: CONFIDENCE,
            },
        })
        .map_err(|e| format!("service refused {}: {e}", q.label))?;
    let answer = watch.wait(handle, LIMIT);
    svc.shutdown();
    let estimate = match answer {
        Ok(r) => match r.verdict {
            JobVerdict::Probability(e) => Ok(e),
            other => Err(other.to_string()),
        },
        Err(e) => Err(e.to_string()),
    };
    Ok((started.elapsed(), estimate))
}

impl Workload for SmcLoad {
    fn setup(&mut self) -> Result<(), String> {
        self.brp = (self.range.0..=self.range.1)
            .map(|n| {
                let b = tempo_models::brp_network(n, 1, 1);
                Query {
                    label: format!("brp_network({n},1,1) P1"),
                    rates: RatePolicy::new(),
                    goal: b.p1_goal(),
                    bound: b.time_bound(1),
                    oracle: Oracle::Exact(b.exact_p1()),
                    net: Arc::new(b.net),
                }
            })
            .collect();
        let tg = tempo_models::train_gate(TRAINS);
        let net = Arc::new(tg.net.clone());
        self.trains = (0..TRAINS)
            .map(|i| Query {
                label: format!("train_gate({TRAINS}) cross({i})"),
                net: Arc::clone(&net),
                rates: tg.rates(),
                goal: tg.cross(i),
                bound: 100.0,
                oracle: Oracle::AtLeast(0.9),
            })
            .collect();
        // Warm-up: one query, so the measured loop starts with the
        // process's one-time costs (code faults, allocator growth) paid.
        ask(&self.brp[0], &self.watch, 0, self.runs)?
            .1
            .map_err(|e| format!("warm-up query: {e}"))?;
        Ok(())
    }

    fn round(&mut self, round: usize, rec: &mut Recorder) -> Result<(), String> {
        for (idx, sim_seed) in self.plan(round) {
            let q = self.query(idx);
            let (wall, answer) = ask(q, &self.watch, sim_seed, self.runs)?;
            let (verdict, ok) = match answer {
                Ok(e) => (
                    format!("{}/{}", e.successes, e.runs),
                    q.oracle.accepts(e.successes, e.runs),
                ),
                Err(e) => (e, false),
            };
            rec.check(&q.label, wall, verdict, ok);
        }
        Ok(())
    }

    fn traced_round(
        &mut self,
        round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let budget = Budget::unlimited();
        for (idx, sim_seed) in self.plan(round) {
            let q = self.query(idx);
            t.next_check();
            let started = Instant::now();
            let svc = t.span("svc.start", |_| {
                AnalysisService::new(ServiceConfig::default())
            });
            t.span("lint.gate", |_| {
                StatisticalChecker::check_first(&q.net, &LintConfig::default())
            })
            .map_err(|e| format!("{} failed its lint gate: {e}", q.label))?;
            let out = t
                .span("smc.simulate", |_| {
                    StatisticalChecker::new(&q.net, q.rates.clone(), sim_seed)
                        .probability_governed(&q.goal, q.bound, self.runs, CONFIDENCE, &budget)
                })
                .map_err(|e| e.to_string())?;
            let runs = out.report().runs_simulated;
            let est = out
                .into_value()
                .ok_or("the statistical checker produced no estimate")?;
            let certified = t.span("witness.certify", |t| {
                let mut sim = Simulator::new(&q.net, q.rates.clone(), sim_seed);
                let cert = RunCertificate {
                    runs: (0..WITNESS_RUNS)
                        .map(|_| sim.simulate(q.bound, DEFAULT_MAX_STEPS))
                        .collect(),
                };
                let valid = cert.validate(&q.net).is_ok();
                #[allow(clippy::cast_precision_loss)]
                t.count(
                    "witness.cert_bytes",
                    format::render(&Certificate::Runs(cert)).len() as f64,
                );
                valid
            });
            t.span("svc.shutdown", |_| svc.shutdown());
            #[allow(clippy::cast_precision_loss)]
            {
                t.count("smc.runs", runs as f64);
                t.count("smc.successes", est.successes as f64);
            }
            let ok = certified && q.oracle.accepts(est.successes, est.runs);
            rec.check(
                &q.label,
                started.elapsed(),
                format!("{}/{}", est.successes, est.runs),
                ok,
            );
            self.direct
                .get_or_insert((idx, sim_seed, est.runs, est.mean));
        }
        Ok(())
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let Some((idx, sim_seed, runs, mean)) = self.direct else {
            return Ok(());
        };
        let q = self.query(idx);
        match ask(q, &self.watch, sim_seed, self.runs)?.1 {
            Ok(e) if e.runs == runs && e.mean.to_bits() == mean.to_bits() => {}
            other => rec.problem(format!(
                "{}: direct call estimated {mean} over {runs} runs, the service answered {other:?}",
                q.label
            )),
        }
        Ok(())
    }

    fn take_peak_rss_mb(&mut self) -> Result<f64, String> {
        sys::take_self_peak_rss_mb()
    }

    fn settings(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "runs_per_query",
                Json::int(i64::try_from(self.runs).unwrap_or(0)),
            ),
            (
                "brp_n_range",
                Json::Arr(vec![Json::int(self.range.0), Json::int(self.range.1)]),
            ),
            ("trains", Json::int(TRAINS as i64)),
            ("oracle_z", Json::Num(Z_ORACLE)),
            (
                "query_limit_ms",
                Json::int(i64::try_from(LIMIT.as_millis()).unwrap_or(0)),
            ),
        ]
    }
}
