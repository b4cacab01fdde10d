//! `mcpta`: the Bounded Retransmission Protocol's Table I
//! probabilities through the analysis service's digital-clocks MDP
//! engine. Each check is one `brp(N, 2, 2)` model, `N` drawn from the
//! seed, answered for `Pmax(P1)` and `Pmax(P2)` by a fresh service, one
//! query after the other (a closed loop with one client).
//!
//! The oracles are analytic. With per-try loss `q = 1 − 0.98²` and
//! chunk-abort probability `c = q^(MAX+1)`:
//! `P1 = 1 − (1 − c)^N` and `P2 = c·(1 − c)^(N−1)`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tempo_core::lang::Json;
use tempo_core::mdp::{Opt, EPSILON};
use tempo_core::modest::{Mcpta, Pta};
use tempo_core::obs::{Budget, RunReport};
use tempo_core::svc::{AnalysisService, JobKind, JobRequest, JobVerdict, ServiceConfig};
use tempo_core::ta::StateFormula;
use tempo_core::witness::certify::{Certificate, SchedulerCertificate};
use tempo_core::witness::format;

use super::{Canceller, Ctx, Cycle, Workload};
use crate::report::Recorder;
use crate::stats::Rng;
use crate::sys;
use crate::trace::Tracer;

/// Per-query limit, enforced by `JobHandle::cancel`.
const LIMIT: Duration = Duration::from_secs(60);

/// Certificate validation tolerance, as the CLI uses it.
const CERT_EPSILON: f64 = 1e-9;

/// `MAX` and `TD` of every model: at `MAX = 2` the probabilities stay
/// well above value iteration's stopping threshold, so the analytic
/// oracle can be tight.
const MAX_RETRIES: i64 = 2;
const TD: i64 = 2;

/// Analytic `(P1, P2)` of `brp(n, max, _)`.
#[must_use]
pub fn brp_exact(n: i64, max: i64) -> (f64, f64) {
    let q: f64 = 1.0 - 0.98 * 0.98;
    let c = q.powi(i32::try_from(max + 1).expect("small MAX"));
    let n = i32::try_from(n).expect("small N");
    (1.0 - (1.0 - c).powi(n), c * (1.0 - c).powi(n - 1))
}

/// Whether an engine value matches the analytic one: within 1e-6
/// relative, or within ten times value iteration's stopping threshold
/// (which bounds how far its answer may stop short).
#[must_use]
pub fn matches_exact(value: f64, exact: f64) -> bool {
    (value - exact).abs() <= (1e-6 * exact).max(10.0 * EPSILON)
}

struct Model {
    n: i64,
    pta: Arc<Pta>,
    goals: [StateFormula; 2],
    exact: [f64; 2],
}

pub struct McptaLoad {
    range: (i64, i64),
    models: Vec<Model>,
    sizes: Cycle,
    watch: Canceller,
    /// Direct-call work per model size, for `verify`.
    direct: BTreeMap<i64, RunReport>,
}

impl McptaLoad {
    pub fn new(ctx: &Ctx) -> Self {
        let range = if ctx.smoke { (8, 8) } else { (44, 48) };
        McptaLoad {
            range,
            models: Vec::new(),
            sizes: Cycle::new(range.0, range.1, Rng::new(ctx.seed, 1)),
            watch: Canceller::start(),
            direct: BTreeMap::new(),
        }
    }

    fn model(&self, n: i64) -> &Model {
        self.models
            .iter()
            .find(|m| m.n == n)
            .expect("model built in setup")
    }
}

fn submit(
    svc: &AnalysisService,
    watch: &Canceller,
    m: &Model,
    goal: usize,
) -> Result<(f64, RunReport), String> {
    let handle = svc
        .submit(JobRequest {
            tenant: "bench".into(),
            priority: 0,
            budget: Budget::unlimited(),
            kind: JobKind::McptaReach {
                pta: Arc::clone(&m.pta),
                opt: Opt::Max,
                goal: m.goals[goal].clone(),
                epsilon: CERT_EPSILON,
            },
        })
        .map_err(|e| format!("service refused brp({}): {e}", m.n))?;
    match watch.wait(handle, LIMIT) {
        Ok(r) => match r.verdict {
            JobVerdict::McptaValue(v) => Ok((v, r.report)),
            other => Err(format!("unexpected verdict {other}")),
        },
        Err(e) => Err(e.to_string()),
    }
}

impl Workload for McptaLoad {
    fn setup(&mut self) -> Result<(), String> {
        self.models = (self.range.0..=self.range.1)
            .map(|n| {
                let b = tempo_models::brp(n, MAX_RETRIES, TD);
                let (p1, p2) = brp_exact(n, MAX_RETRIES);
                Model {
                    n,
                    goals: [b.p1_goal(), b.p2_goal()],
                    pta: Arc::new(b.pta),
                    exact: [p1, p2],
                }
            })
            .collect();
        // Warm-up: one check, so the measured loop starts with the
        // process's one-time costs (code faults, allocator growth) paid.
        let svc = AnalysisService::new(ServiceConfig::default());
        for g in 0..2 {
            submit(&svc, &self.watch, &self.models[0], g)?;
        }
        svc.shutdown();
        Ok(())
    }

    fn round(&mut self, _round: usize, rec: &mut Recorder) -> Result<(), String> {
        let n = self.sizes.next_value();
        let m = self.model(n);
        let started = Instant::now();
        let svc = AnalysisService::new(ServiceConfig::default());
        let answers: Vec<Result<(f64, RunReport), String>> =
            (0..2).map(|g| submit(&svc, &self.watch, m, g)).collect();
        svc.shutdown();
        let wall = started.elapsed();
        let ok = answers
            .iter()
            .zip(m.exact)
            .all(|(a, exact)| a.as_ref().is_ok_and(|(v, _)| matches_exact(*v, exact)));
        let verdict: Vec<String> = answers
            .iter()
            .map(|a| {
                a.as_ref()
                    .map_or_else(|e| e.clone(), |(v, _)| format!("{v:.9e}"))
            })
            .collect();
        rec.check(
            format!("brp({},{MAX_RETRIES},{TD})", m.n),
            wall,
            verdict.join(" "),
            ok,
        );
        Ok(())
    }

    fn traced_round(
        &mut self,
        _round: usize,
        t: &mut Tracer,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let budget = Budget::unlimited();
        let n = self.sizes.next_value();
        let m = self.model(n);
        t.next_check();
        let started = Instant::now();
        let svc = t.span("svc.start", |_| {
            AnalysisService::new(ServiceConfig::default())
        });
        let mut ok = true;
        let mut work = RunReport::default();
        let mut values = Vec::new();
        for (goal, exact) in m.goals.iter().zip(m.exact) {
            let built = t.span("modest.mdp_build", |_| {
                Mcpta::try_build(&m.pta, &[], &budget)
            });
            work.merge(built.report());
            let mdp = built
                .into_value()
                .ok_or("digital-clocks MDP construction produced no model")?;
            let stats = mdp.stats();
            #[allow(clippy::cast_precision_loss)]
            {
                t.count("modest.mdp_states", stats.states as f64);
                t.count("modest.mdp_transitions", stats.transitions as f64);
            }
            let solved = t.span("mdp.solve", |_| {
                mdp.reach_quantitative(Opt::Max, goal, &budget)
            });
            work.merge(solved.report());
            #[allow(clippy::cast_precision_loss)]
            t.count("mdp.sweeps", solved.report().sweeps as f64);
            let q = solved.into_value();
            let certified = t.span("witness.certify", |t| {
                let cert = SchedulerCertificate::build_with_opt(
                    &q,
                    Opt::Max,
                    mdp.goal_mask(goal),
                    CERT_EPSILON,
                );
                let valid = cert.validate(mdp.mdp()).is_ok();
                #[allow(clippy::cast_precision_loss)]
                t.count(
                    "witness.cert_bytes",
                    format::render(&Certificate::Scheduler(cert)).len() as f64,
                );
                valid
            });
            ok &= certified && matches_exact(q.initial_value, exact);
            values.push(format!("{:.9e}", q.initial_value));
        }
        t.span("svc.shutdown", |_| svc.shutdown());
        self.direct.insert(n, work);
        rec.check(
            format!("brp({n},{MAX_RETRIES},{TD})"),
            started.elapsed(),
            values.join(" "),
            ok,
        );
        Ok(())
    }

    fn verify(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let Some((&n, direct)) = self.direct.iter().next() else {
            return Ok(());
        };
        let m = self.model(n);
        let svc = AnalysisService::new(ServiceConfig::default());
        let mut served = RunReport::default();
        for g in 0..2 {
            served.merge(&submit(&svc, &self.watch, m, g)?.1);
        }
        svc.shutdown();
        let key = |r: &RunReport| (r.states_explored, r.states_stored, r.sweeps);
        if key(direct) != key(&served) {
            rec.problem(format!(
                "brp({n}): direct calls did (explored, stored, sweeps) {:?}, the service {:?}",
                key(direct),
                key(&served)
            ));
        }
        Ok(())
    }

    fn take_peak_rss_mb(&mut self) -> Result<f64, String> {
        sys::take_self_peak_rss_mb()
    }

    fn settings(&self) -> Vec<(&'static str, Json)> {
        vec![
            (
                "n_range",
                Json::Arr(vec![Json::int(self.range.0), Json::int(self.range.1)]),
            ),
            ("max_retries", Json::int(MAX_RETRIES)),
            ("td", Json::int(TD)),
            (
                "query_limit_ms",
                Json::int(i64::try_from(LIMIT.as_millis()).unwrap_or(0)),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_oracles_reproduce_table_one() {
        // EXPERIMENTS.md, BRP (16, 2, 1): P1 = 9.931235e-4, P2 = 6.204127e-5.
        let (p1, p2) = brp_exact(16, 2);
        assert!((p1 - 9.931_235e-4).abs() <= 1e-6 * p1, "{p1}");
        assert!((p2 - 6.204_127e-5).abs() <= 1e-6 * p2, "{p2}");
        assert!(matches_exact(p1 + 5e-11, p1));
        assert!(!matches_exact(p1 * 1.001, p1));
    }
}
