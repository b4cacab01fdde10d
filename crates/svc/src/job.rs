//! Job vocabulary of the analysis service: what can be asked
//! ([`JobKind`]), what comes back ([`JobVerdict`], [`JobResult`]), and
//! how a job turns into a content-addressed cache key.

use std::fmt;
use std::sync::Arc;

use tempo_bip::BipSystem;
use tempo_cora::PricedNetwork;
use tempo_ecdar::Tioa;
use tempo_ioco::Lts;
use tempo_mdp::{Mdp, Opt};
use tempo_modest::{Mcpta, Pta};
use tempo_obs::{
    Budget, Diagnostic, ExhaustionReason, ExploreConfig, Fingerprint, LintError, Outcome,
    RunReport, StableDigest, StableHasher,
};
use tempo_rare::{certified_cost_probability, certified_splitting_probability, SplitConfig};
use tempo_smc::{Estimate, RatePolicy};
use tempo_ta::{Network, StateFormula};
use tempo_witness::certify::{self, Certificate, GameObjective};

/// How many runs a probability job exports into its certificate: enough
/// to catch a simulator that samples through guards, cheap enough not to
/// dominate the estimate itself.
const WITNESS_RUNS: usize = 2;

/// One analysis query, bundled with the model it runs on.
///
/// Models are held in [`Arc`]s so a request is cheap to clone into the
/// work queue and many jobs can share one model without copying it.
#[derive(Clone)]
pub enum JobKind {
    /// Symbolic reachability (`E<> goal`) on a timed-automata network.
    Reach {
        /// The network under analysis.
        net: Arc<Network>,
        /// The goal formula.
        goal: StateFormula,
        /// State-space reduction knobs for the exploration engine.
        /// Part of the cache key: a reduced and an unreduced run answer
        /// the same question but report different work.
        explore: ExploreConfig,
    },
    /// Leads-to / response checking (`phi --> psi`). Both formulas must
    /// be discrete (no clock atoms); the admission gate refuses others.
    LeadsTo {
        /// The network under analysis.
        net: Arc<Network>,
        /// The trigger formula.
        phi: StateFormula,
        /// The response formula.
        psi: StateFormula,
    },
    /// Minimum-cost reachability on a priced network (CORA).
    MinCost {
        /// The priced network under analysis.
        pnet: Arc<PricedNetwork>,
        /// The goal formula.
        goal: StateFormula,
    },
    /// Reachability-game synthesis (TIGA): can the controller force the
    /// goal whatever the environment does?
    ReachGame {
        /// The game network (controllable/uncontrollable edges).
        net: Arc<Network>,
        /// The goal formula.
        goal: StateFormula,
    },
    /// Safety-game synthesis (TIGA): can the controller avoid the bad
    /// states forever?
    SafetyGame {
        /// The game network.
        net: Arc<Network>,
        /// The bad-state formula to avoid.
        bad: StateFormula,
    },
    /// Statistical probability estimation (`Pr[<=bound](<> goal)`).
    Probability {
        /// The network under simulation.
        net: Arc<Network>,
        /// Exit-rate policy for stochastic delays.
        rates: RatePolicy,
        /// Simulation seed (part of the cache key: a different seed is a
        /// different experiment).
        seed: u64,
        /// The goal formula.
        goal: StateFormula,
        /// Time bound per run.
        bound: f64,
        /// Number of runs requested.
        runs: usize,
        /// Confidence level (e.g. `0.95`).
        confidence: f64,
    },
    /// Cost-bounded probability estimation on a priced network
    /// (`Pr[cost <= cost_bound, time <= bound](<> goal)`).
    PricedSmc {
        /// The priced network under simulation.
        pnet: Arc<PricedNetwork>,
        /// Exit-rate policy for stochastic delays.
        rates: RatePolicy,
        /// Simulation seed (part of the cache key).
        seed: u64,
        /// The goal formula.
        goal: StateFormula,
        /// Accumulated-cost bound per run.
        cost_bound: f64,
        /// Time bound per run.
        bound: f64,
        /// Number of runs requested.
        runs: usize,
        /// Confidence level.
        confidence: f64,
    },
    /// Rare-event probability estimation by importance splitting
    /// (`Pr[<=bound](<> goal)` for goals far below naive Monte Carlo's
    /// resolution).
    RareEvent {
        /// The network under simulation.
        net: Arc<Network>,
        /// Exit-rate policy for stochastic delays.
        rates: RatePolicy,
        /// Simulation seed (part of the cache key).
        seed: u64,
        /// The goal formula.
        goal: StateFormula,
        /// Time bound per run.
        bound: f64,
        /// Splitting-engine configuration (part of the cache key: a
        /// different effort or method is a different experiment).
        config: SplitConfig,
    },
    /// Quantitative reachability on an explicit MDP (solved one SCC at a
    /// time).
    MdpReach {
        /// The MDP under analysis.
        mdp: Arc<Mdp>,
        /// Optimization direction.
        opt: Opt,
        /// Goal membership per state.
        goal: Vec<bool>,
        /// Accepted absolute deviation for certificate validation.
        epsilon: f64,
    },
    /// Probabilistic reachability on a compiled MODEST model via the
    /// digital-clocks MDP (mcpta). The expensive MDP construction runs
    /// on every miss — which is exactly what a warm cache hit skips.
    McptaReach {
        /// The compiled PTA network.
        pta: Arc<Pta>,
        /// Optimization direction.
        opt: Opt,
        /// The goal formula.
        goal: StateFormula,
        /// Accepted absolute deviation for certificate validation.
        epsilon: f64,
    },
    /// Global-deadlock search on a BIP system.
    BipDeadlock {
        /// The composed BIP system.
        sys: Arc<BipSystem>,
    },
    /// Exhaustive deadlock-freedom check (`A[] not deadlock`) on a
    /// timed-automata network.
    DeadlockFree {
        /// The network under analysis.
        net: Arc<Network>,
        /// State-space reduction knobs for the exploration engine.
        /// Part of the cache key, like [`JobKind::Reach`]'s.
        explore: ExploreConfig,
    },
    /// Timed refinement between two TIOA specifications (ECDAR): does
    /// the implementation refine the specification?
    Refines {
        /// The implementation automaton.
        imp: Arc<Tioa>,
        /// The specification automaton.
        spec: Arc<Tioa>,
    },
    /// ioco conformance between an implementation LTS and a
    /// specification LTS.
    Ioco {
        /// The implementation under test.
        imp: Arc<Lts>,
        /// The specification it must conform to.
        spec: Arc<Lts>,
    },
}

impl JobKind {
    /// Stable engine/query discriminator, the first component of the
    /// cache key: the same network analysed as a plain model and as a
    /// game must never share a cache slot.
    #[must_use]
    pub fn engine_tag(&self) -> &'static str {
        match self {
            JobKind::Reach { .. } => "ta-reach",
            JobKind::LeadsTo { .. } => "ta-leads-to",
            JobKind::MinCost { .. } => "cora-min-cost",
            JobKind::ReachGame { .. } => "tiga-reach-game",
            JobKind::SafetyGame { .. } => "tiga-safety-game",
            JobKind::Probability { .. } => "smc-probability",
            JobKind::PricedSmc { .. } => "smc-priced",
            JobKind::RareEvent { .. } => "rare-splitting",
            JobKind::MdpReach { .. } => "mdp-reach",
            JobKind::McptaReach { .. } => "mcpta-reach",
            JobKind::BipDeadlock { .. } => "bip-deadlock",
            JobKind::DeadlockFree { .. } => "ta-deadlock",
            JobKind::Refines { .. } => "ecdar-refines",
            JobKind::Ioco { .. } => "ioco-conform",
        }
    }

    /// Runs the static-analysis gate of the engine this job targets —
    /// the same `check_first` entry point a direct caller of the engine
    /// would use — under the default (errors-block) configuration.
    ///
    /// Kinds whose model has no lint substrate (an explicit [`Mdp`], a
    /// compiled [`Pta`] whose MODEST source was checked at compile
    /// time) pass trivially. A leads-to whose formulas read clocks is
    /// refused with a `TL103` error, the code `tempo check` gives the
    /// same query: its engine supports only discrete predicates.
    ///
    /// # Errors
    ///
    /// The typed [`LintError`] with every blocking diagnostic; the
    /// service wraps it in [`Rejected::Lint`] at admission.
    pub fn lint_gate(&self) -> Result<(), LintError> {
        let config = tempo_lint::LintConfig::default();
        match self {
            JobKind::LeadsTo { phi, psi, .. } if !(phi.is_discrete() && psi.is_discrete()) => {
                Err(LintError::new(vec![Diagnostic::error(
                    "TL103",
                    None,
                    "the leads-to engine supports only location and data predicates; \
                     remove the clock constraints from both sides of `-->`",
                )]))
            }
            JobKind::Reach { net, .. }
            | JobKind::LeadsTo { net, .. }
            | JobKind::DeadlockFree { net, .. } => {
                tempo_lint::check_network_first(net, &config).map(drop)
            }
            JobKind::MinCost { pnet, .. } | JobKind::PricedSmc { pnet, .. } => {
                pnet.check_first(&config).map(drop)
            }
            JobKind::ReachGame { net, .. } | JobKind::SafetyGame { net, .. } => {
                tempo_tiga::GameSolver::check_first(net, &config).map(drop)
            }
            JobKind::Probability { net, .. } | JobKind::RareEvent { net, .. } => {
                tempo_smc::StatisticalChecker::check_first(net, &config).map(drop)
            }
            JobKind::MdpReach { .. }
            | JobKind::McptaReach { .. }
            | JobKind::Refines { .. }
            | JobKind::Ioco { .. } => Ok(()),
            JobKind::BipDeadlock { sys } => tempo_lint::check_bip_first(sys, &config).map(drop),
        }
    }

    /// The content-addressed cache key: engine tag + structural model
    /// fingerprint + query + engine configuration + budget class.
    ///
    /// Two jobs share a key exactly when serving one's cached verdict
    /// for the other is sound *and* byte-identical: renaming model
    /// labels or reordering guard conjunctions does not change the key,
    /// while a different seed, optimization direction, epsilon or
    /// budget class does.
    #[must_use]
    pub fn cache_key(&self, budget: &Budget) -> Fingerprint {
        let mut h = StableHasher::new();
        h.write_tag("tempo-svc-job");
        h.write_tag(self.engine_tag());
        match self {
            JobKind::Reach { net, goal, explore } => {
                net.digest(&mut h);
                goal.digest(&mut h);
                explore.digest(&mut h);
            }
            JobKind::LeadsTo { net, phi, psi } => {
                net.digest(&mut h);
                phi.digest(&mut h);
                psi.digest(&mut h);
            }
            JobKind::MinCost { pnet, goal } => {
                pnet.digest(&mut h);
                goal.digest(&mut h);
            }
            JobKind::ReachGame { net, goal } => {
                net.digest(&mut h);
                goal.digest(&mut h);
            }
            JobKind::SafetyGame { net, bad } => {
                net.digest(&mut h);
                bad.digest(&mut h);
            }
            JobKind::Probability {
                net,
                rates,
                seed,
                goal,
                bound,
                runs,
                confidence,
            } => {
                net.digest(&mut h);
                rates.digest(&mut h);
                h.write_u64(*seed);
                goal.digest(&mut h);
                h.write_f64(*bound);
                h.write_usize(*runs);
                h.write_f64(*confidence);
            }
            JobKind::PricedSmc {
                pnet,
                rates,
                seed,
                goal,
                cost_bound,
                bound,
                runs,
                confidence,
            } => {
                pnet.digest(&mut h);
                rates.digest(&mut h);
                h.write_u64(*seed);
                goal.digest(&mut h);
                h.write_f64(*cost_bound);
                h.write_f64(*bound);
                h.write_usize(*runs);
                h.write_f64(*confidence);
            }
            JobKind::RareEvent {
                net,
                rates,
                seed,
                goal,
                bound,
                config,
            } => {
                net.digest(&mut h);
                rates.digest(&mut h);
                h.write_u64(*seed);
                goal.digest(&mut h);
                h.write_f64(*bound);
                digest_split_config(config, &mut h);
            }
            JobKind::MdpReach {
                mdp,
                opt,
                goal,
                epsilon,
            } => {
                mdp.digest(&mut h);
                h.write_u8(opt_tag(*opt));
                goal.digest(&mut h);
                h.write_f64(*epsilon);
            }
            JobKind::McptaReach {
                pta,
                opt,
                goal,
                epsilon,
            } => {
                pta.digest(&mut h);
                h.write_u8(opt_tag(*opt));
                goal.digest(&mut h);
                h.write_f64(*epsilon);
            }
            JobKind::BipDeadlock { sys } => sys.digest(&mut h),
            JobKind::DeadlockFree { net, explore } => {
                net.digest(&mut h);
                explore.digest(&mut h);
            }
            JobKind::Refines { imp, spec } => {
                imp.digest(&mut h);
                spec.digest(&mut h);
            }
            JobKind::Ioco { imp, spec } => {
                imp.digest(&mut h);
                spec.digest(&mut h);
            }
        }
        digest_budget_class(budget, &mut h);
        h.finish()
    }

    /// Whether a certified verdict of this kind is persisted to the
    /// on-disk tier. Statistical estimates (whose run certificates
    /// witness simulator legality, not the estimate's value) and the
    /// uncertified boolean verdicts — BIP/TA deadlock, refinement, ioco
    /// conformance (no certificate machinery) — stay memory-only.
    #[must_use]
    pub fn persists_to_disk(&self) -> bool {
        !matches!(
            self,
            JobKind::Probability { .. }
                | JobKind::PricedSmc { .. }
                | JobKind::RareEvent { .. }
                | JobKind::BipDeadlock { .. }
                | JobKind::DeadlockFree { .. }
                | JobKind::Refines { .. }
                | JobKind::Ioco { .. }
        )
    }

    /// Runs the engine behind this job under `budget`, returning the
    /// verdict, the work report, and — for verdicts that admit one — a
    /// replayable certificate.
    pub(crate) fn execute(&self, budget: &Budget) -> Result<Execution, JobError> {
        match self {
            JobKind::Reach { net, goal, explore } => {
                let (out, cert) =
                    certify::certified_reachable_with(net, goal, explore.clone(), budget)
                        .map_err(engine_err)?;
                let (res, report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::Reachable(res.reachable),
                    report,
                    certificate: cert.map(Certificate::Trace),
                })
            }
            JobKind::LeadsTo { net, phi, psi } => {
                let (out, cert) =
                    certify::certified_leads_to(net, phi, psi, budget).map_err(engine_err)?;
                let ((verdict, _stats), report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::LeadsTo(matches!(verdict, tempo_ta::Verdict::Satisfied)),
                    report,
                    certificate: cert.map(Certificate::Trace),
                })
            }
            JobKind::MinCost { pnet, goal } => {
                let (out, cert) =
                    certify::certified_min_cost(pnet, goal, budget).map_err(engine_err)?;
                let (res, report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::MinCost(res.map(|r| r.cost)),
                    report,
                    certificate: cert.map(Certificate::Cost),
                })
            }
            JobKind::ReachGame { net, goal } => {
                let (out, cert) =
                    certify::certified_reach_game(net, goal, budget).map_err(engine_err)?;
                let (res, report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::GameWinning(res.winning),
                    report,
                    certificate: cert.map(Certificate::Strategy),
                })
            }
            JobKind::SafetyGame { net, bad } => {
                let (out, cert) =
                    certify::certified_safety_game(net, bad, budget).map_err(engine_err)?;
                let (res, report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::GameWinning(res.winning),
                    report,
                    certificate: cert.map(Certificate::Strategy),
                })
            }
            JobKind::Probability {
                net,
                rates,
                seed,
                goal,
                bound,
                runs,
                confidence,
            } => {
                let (out, cert) = certify::certified_probability(
                    net,
                    rates,
                    *seed,
                    goal,
                    *bound,
                    *runs,
                    *confidence,
                    WITNESS_RUNS.min(*runs),
                    budget,
                )
                .map_err(engine_err)?;
                let (est, report) = split(out)?;
                let est = est.ok_or_else(|| {
                    JobError::Engine("statistical checker produced no estimate".to_owned())
                })?;
                Ok(Execution {
                    verdict: JobVerdict::Probability(est),
                    report,
                    certificate: Some(Certificate::Runs(cert)),
                })
            }
            JobKind::PricedSmc {
                pnet,
                rates,
                seed,
                goal,
                cost_bound,
                bound,
                runs,
                confidence,
            } => {
                let (out, cert) = certified_cost_probability(
                    pnet,
                    rates,
                    *seed,
                    goal,
                    *cost_bound,
                    *bound,
                    *runs,
                    *confidence,
                    WITNESS_RUNS.min(*runs),
                    budget,
                )
                .map_err(engine_err)?;
                let (est, report) = split(out)?;
                let est = est.ok_or_else(|| {
                    JobError::Engine("priced statistical checker produced no estimate".to_owned())
                })?;
                Ok(Execution {
                    verdict: JobVerdict::PricedProbability(est),
                    report,
                    certificate: Some(Certificate::PricedRuns(cert)),
                })
            }
            JobKind::RareEvent {
                net,
                rates,
                seed,
                goal,
                bound,
                config,
            } => {
                // The splitting engine certifies its goal trajectories
                // through the priced replay path; an unpriced query uses
                // the zero-cost pricing, under which every certified cost
                // is exactly 0.
                let pnet = PricedNetwork::new((**net).clone());
                let (out, cert) = certified_splitting_probability(
                    &pnet,
                    rates,
                    *seed,
                    goal,
                    *bound,
                    config,
                    WITNESS_RUNS,
                    budget,
                )
                .map_err(engine_err)?;
                let (est, report) = split(out)?;
                let est = est.ok_or_else(|| {
                    JobError::Engine("splitting engine produced no estimate".to_owned())
                })?;
                Ok(Execution {
                    verdict: JobVerdict::RareProbability {
                        p_hat: est.p_hat,
                        lower: est.lower,
                        upper: est.upper,
                        confidence: est.confidence,
                        runs_total: est.runs_total,
                        splits_spawned: est.splits_spawned,
                    },
                    report,
                    certificate: Some(Certificate::PricedRuns(cert)),
                })
            }
            JobKind::MdpReach {
                mdp,
                opt,
                goal,
                epsilon,
            } => {
                let (out, cert) =
                    certify::certified_mdp_reachability(mdp, *opt, goal, *epsilon, budget)
                        .map_err(engine_err)?;
                let (q, report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::MdpValue(q.initial_value),
                    report,
                    certificate: Some(Certificate::Scheduler(cert)),
                })
            }
            JobKind::McptaReach {
                pta,
                opt,
                goal,
                epsilon,
            } => {
                let (built, mut report) = split(build_mcpta(pta, goal, budget))?;
                let m = built.ok_or_else(|| {
                    JobError::Engine("digital-clocks MDP construction produced no model".to_owned())
                })?;
                let (out, cert) = certify::certified_mcpta_reach(&m, *opt, goal, *epsilon, budget)
                    .map_err(engine_err)?;
                let (q, reach_report) = split(out)?;
                report.merge(&reach_report);
                Ok(Execution {
                    verdict: JobVerdict::McptaValue(q.initial_value),
                    report,
                    certificate: Some(Certificate::Scheduler(cert)),
                })
            }
            JobKind::BipDeadlock { sys } => {
                let (res, report) = split(sys.find_deadlock_governed(budget))?;
                Ok(Execution {
                    verdict: JobVerdict::BipDeadlock(res.is_some()),
                    report,
                    certificate: None,
                })
            }
            JobKind::DeadlockFree { net, explore } => {
                let mut mc = tempo_ta::ModelChecker::new(net).with_config(explore.clone());
                let out = mc
                    .try_deadlock_free_governed(budget)
                    .map_err(|e| JobError::Engine(e.to_string()))?;
                let ((verdict, _stats), report) = split(out)?;
                Ok(Execution {
                    verdict: JobVerdict::DeadlockFree(verdict.holds()),
                    report,
                    certificate: None,
                })
            }
            JobKind::Refines { imp, spec } => {
                let (res, report) = split(tempo_ecdar::refines_governed(imp, spec, budget))?;
                Ok(Execution {
                    verdict: JobVerdict::Refines(res.is_ok()),
                    report,
                    certificate: None,
                })
            }
            JobKind::Ioco { imp, spec } => {
                let res = tempo_ioco::check_ioco(imp, spec);
                Ok(Execution {
                    verdict: JobVerdict::Ioco(res.is_ok()),
                    report: RunReport::default(),
                    certificate: None,
                })
            }
        }
    }

    /// Validates a disk-loaded `(verdict, certificate)` pair against the
    /// *live* model of this job: the certificate must be of the right
    /// kind, must replay successfully, and must pin the verdict's value.
    ///
    /// `budget` governs validation work that itself explores a state
    /// space (rebuilding the digital-clocks MDP for mcpta verdicts).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch; the caller
    /// treats any error as "corrupted or stale — recompute".
    pub(crate) fn validate_cached(
        &self,
        verdict: &JobVerdict,
        cert: &Certificate,
        budget: &Budget,
    ) -> Result<(), String> {
        match (self, verdict, cert) {
            (
                JobKind::Reach { net, goal, .. },
                JobVerdict::Reachable(true),
                Certificate::Trace(c),
            ) => c.validate(net, goal).map_err(|e| e.to_string()),
            (
                JobKind::LeadsTo { net, psi, .. },
                JobVerdict::LeadsTo(false),
                Certificate::Trace(c),
            ) => {
                let avoid = StateFormula::not(psi.clone());
                c.validate(net, &avoid).map_err(|e| e.to_string())
            }
            (
                JobKind::MinCost { pnet, goal },
                JobVerdict::MinCost(Some(cost)),
                Certificate::Cost(c),
            ) => {
                if c.total != *cost {
                    return Err(format!(
                        "certificate total {} does not match verdict cost {cost}",
                        c.total
                    ));
                }
                c.validate(pnet, goal).map_err(|e| e.to_string())
            }
            (
                JobKind::ReachGame { net, goal },
                JobVerdict::GameWinning(true),
                Certificate::Strategy(c),
            ) => {
                if c.objective != GameObjective::Reach {
                    return Err("strategy certificate claims the wrong objective".to_owned());
                }
                c.validate(net, goal).map_err(|e| e.to_string())
            }
            (
                JobKind::SafetyGame { net, bad },
                JobVerdict::GameWinning(true),
                Certificate::Strategy(c),
            ) => {
                if c.objective != GameObjective::Avoid {
                    return Err("strategy certificate claims the wrong objective".to_owned());
                }
                c.validate(net, bad).map_err(|e| e.to_string())
            }
            (
                JobKind::MdpReach { mdp, opt, .. },
                JobVerdict::MdpValue(v),
                Certificate::Scheduler(c),
            ) => {
                if c.opt != *opt || c.value.to_bits() != v.to_bits() {
                    return Err("scheduler certificate does not pin the cached value".to_owned());
                }
                c.validate(mdp).map_err(|e| e.to_string())
            }
            (
                JobKind::McptaReach { pta, opt, goal, .. },
                JobVerdict::McptaValue(v),
                Certificate::Scheduler(c),
            ) => {
                if c.opt != *opt || c.value.to_bits() != v.to_bits() {
                    return Err("scheduler certificate does not pin the cached value".to_owned());
                }
                let m = match build_mcpta(pta, goal, budget) {
                    Outcome::Complete { value: Some(m), .. } => m,
                    _ => return Err("could not rebuild the MDP within budget".to_owned()),
                };
                if m.goal_mask(goal) != c.goal {
                    return Err("certificate goal mask does not match the query".to_owned());
                }
                c.validate(m.mdp()).map_err(|e| e.to_string())
            }
            _ => Err(format!(
                "certificate kind does not match a cacheable `{}` verdict",
                self.engine_tag()
            )),
        }
    }
}

impl fmt::Debug for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.engine_tag())
    }
}

fn opt_tag(opt: Opt) -> u8 {
    match opt {
        Opt::Max => 0,
        Opt::Min => 1,
    }
}

/// Digests every field of a splitting configuration: two rare-event
/// jobs share a cache slot only when they are the same experiment.
fn digest_split_config(config: &SplitConfig, h: &mut StableHasher) {
    h.write_tag("split-config");
    h.write_u8(match config.method {
        tempo_rare::SplitMethod::FixedEffort => 0,
        tempo_rare::SplitMethod::Restart => 1,
    });
    h.write_usize(config.effort);
    h.write_usize(config.branch);
    h.write_usize(config.replications);
    h.write_usize(config.max_levels);
    h.write_f64(config.confidence);
    h.write_usize(config.max_particles);
}

/// Quantizes each budget limit to its bit-length class, so near-equal
/// budgets share cache entries while an unlimited run and a tightly
/// boxed one do not. The cancellation token never participates: it is
/// control plumbing, not query semantics.
fn digest_budget_class(budget: &Budget, h: &mut StableHasher) {
    fn class(v: Option<u64>) -> u64 {
        match v {
            None => u64::MAX,
            Some(0) => 0,
            Some(n) => 64 - u64::from(n.leading_zeros()),
        }
    }
    h.write_tag("budget-class");
    h.write_u64(class(
        budget
            .wall
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
    ));
    h.write_u64(class(budget.max_states));
    h.write_u64(class(budget.max_iterations));
    h.write_u64(class(budget.max_runs));
}

/// Builds a `McptaReach` job's MDP with the goal's clock atoms kept
/// exact: the clock clamp and active-clock reduction only keep the atoms
/// they are given.
fn build_mcpta(pta: &Pta, goal: &StateFormula, budget: &Budget) -> Outcome<Option<Mcpta>> {
    Mcpta::try_build(pta, &goal.clock_atoms(), budget)
}

fn engine_err(e: tempo_witness::WitnessError) -> JobError {
    JobError::Engine(e.to_string())
}

/// Unwraps a governed outcome: complete results pass through, exhausted
/// ones become typed job errors (cancellation is surfaced distinctly).
fn split<T>(out: Outcome<T>) -> Result<(T, RunReport), JobError> {
    match out {
        Outcome::Complete { value, report } => Ok((value, report)),
        Outcome::Exhausted {
            reason: ExhaustionReason::Cancelled,
            ..
        } => Err(JobError::Cancelled),
        Outcome::Exhausted { reason, .. } => Err(JobError::Exhausted(reason)),
    }
}

/// What an engine run produced, before it is cached and fanned out.
pub(crate) struct Execution {
    pub verdict: JobVerdict,
    pub report: RunReport,
    pub certificate: Option<Certificate>,
}

/// The answer of a completed job, in a canonical form shared by fresh
/// runs and cache hits — equality (and [`JobVerdict::render`] byte
/// equality) is the service's cache-soundness contract.
#[derive(Clone, Debug, PartialEq)]
pub enum JobVerdict {
    /// Whether the goal is reachable.
    Reachable(bool),
    /// Whether `phi --> psi` holds.
    LeadsTo(bool),
    /// The minimum cost to the goal, `None` when unreachable.
    MinCost(Option<i64>),
    /// Whether the controller wins the game.
    GameWinning(bool),
    /// The statistical estimate.
    Probability(Estimate),
    /// The cost-bounded statistical estimate.
    PricedProbability(Estimate),
    /// The importance-splitting rare-event estimate.
    RareProbability {
        /// Point estimate of the rare-event probability.
        p_hat: f64,
        /// Lower confidence bound.
        lower: f64,
        /// Upper confidence bound.
        upper: f64,
        /// Confidence level of `[lower, upper]`.
        confidence: f64,
        /// Simulated trajectory segments (comparable to naive runs).
        runs_total: u64,
        /// Cloned continuations spawned beyond the root level.
        splits_spawned: u64,
    },
    /// Value of the MDP's initial state.
    MdpValue(f64),
    /// Value of the compiled MODEST model's initial state.
    McptaValue(f64),
    /// Whether a global deadlock exists.
    BipDeadlock(bool),
    /// Whether the timed-automata network is deadlock-free.
    DeadlockFree(bool),
    /// Whether the implementation refines the specification (ECDAR).
    Refines(bool),
    /// Whether the implementation ioco-conforms to the specification.
    Ioco(bool),
}

fn hex64(v: f64) -> String {
    Fingerprint::hex64(v)
}

fn parse_hex64(tok: &str) -> Option<f64> {
    Fingerprint::parse_hex64(tok)
}

impl JobVerdict {
    /// Canonical single-line text form. Floats render as their exact bit
    /// pattern, so `parse(render(v))` reproduces `v` bit-for-bit — this
    /// string is both the disk-tier storage form and the byte-identity
    /// oracle of the cache tests.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            JobVerdict::Reachable(b) => format!("reachable {b}"),
            JobVerdict::LeadsTo(b) => format!("leads-to {b}"),
            JobVerdict::MinCost(None) => "min-cost unreachable".to_owned(),
            JobVerdict::MinCost(Some(c)) => format!("min-cost {c}"),
            JobVerdict::GameWinning(b) => format!("game-winning {b}"),
            JobVerdict::Probability(e) => format!(
                "probability {} {} {} {} {} {}",
                hex64(e.mean),
                hex64(e.lower),
                hex64(e.upper),
                e.runs,
                e.successes,
                hex64(e.confidence)
            ),
            JobVerdict::PricedProbability(e) => format!(
                "priced-probability {} {} {} {} {} {}",
                hex64(e.mean),
                hex64(e.lower),
                hex64(e.upper),
                e.runs,
                e.successes,
                hex64(e.confidence)
            ),
            JobVerdict::RareProbability {
                p_hat,
                lower,
                upper,
                confidence,
                runs_total,
                splits_spawned,
            } => format!(
                "rare-probability {} {} {} {} {runs_total} {splits_spawned}",
                hex64(*p_hat),
                hex64(*lower),
                hex64(*upper),
                hex64(*confidence)
            ),
            JobVerdict::MdpValue(v) => format!("mdp-value {}", hex64(*v)),
            JobVerdict::McptaValue(v) => format!("mcpta-value {}", hex64(*v)),
            JobVerdict::BipDeadlock(b) => format!("bip-deadlock {b}"),
            JobVerdict::DeadlockFree(b) => format!("deadlock-free {b}"),
            JobVerdict::Refines(b) => format!("refines {b}"),
            JobVerdict::Ioco(b) => format!("ioco {b}"),
        }
    }

    /// Parses the canonical form produced by [`JobVerdict::render`].
    #[must_use]
    pub fn parse(text: &str) -> Option<JobVerdict> {
        let toks: Vec<&str> = text.split_whitespace().collect();
        let flag = |t: &str| match t {
            "true" => Some(true),
            "false" => Some(false),
            _ => None,
        };
        match toks.as_slice() {
            ["reachable", b] => Some(JobVerdict::Reachable(flag(b)?)),
            ["leads-to", b] => Some(JobVerdict::LeadsTo(flag(b)?)),
            ["min-cost", "unreachable"] => Some(JobVerdict::MinCost(None)),
            ["min-cost", c] => Some(JobVerdict::MinCost(Some(c.parse().ok()?))),
            ["game-winning", b] => Some(JobVerdict::GameWinning(flag(b)?)),
            ["probability", mean, lower, upper, runs, successes, confidence] => {
                Some(JobVerdict::Probability(Estimate {
                    mean: parse_hex64(mean)?,
                    lower: parse_hex64(lower)?,
                    upper: parse_hex64(upper)?,
                    runs: runs.parse().ok()?,
                    successes: successes.parse().ok()?,
                    confidence: parse_hex64(confidence)?,
                }))
            }
            ["priced-probability", mean, lower, upper, runs, successes, confidence] => {
                Some(JobVerdict::PricedProbability(Estimate {
                    mean: parse_hex64(mean)?,
                    lower: parse_hex64(lower)?,
                    upper: parse_hex64(upper)?,
                    runs: runs.parse().ok()?,
                    successes: successes.parse().ok()?,
                    confidence: parse_hex64(confidence)?,
                }))
            }
            ["rare-probability", p_hat, lower, upper, confidence, runs_total, splits] => {
                Some(JobVerdict::RareProbability {
                    p_hat: parse_hex64(p_hat)?,
                    lower: parse_hex64(lower)?,
                    upper: parse_hex64(upper)?,
                    confidence: parse_hex64(confidence)?,
                    runs_total: runs_total.parse().ok()?,
                    splits_spawned: splits.parse().ok()?,
                })
            }
            ["mdp-value", v] => Some(JobVerdict::MdpValue(parse_hex64(v)?)),
            ["mcpta-value", v] => Some(JobVerdict::McptaValue(parse_hex64(v)?)),
            ["bip-deadlock", b] => Some(JobVerdict::BipDeadlock(flag(b)?)),
            ["deadlock-free", b] => Some(JobVerdict::DeadlockFree(flag(b)?)),
            ["refines", b] => Some(JobVerdict::Refines(flag(b)?)),
            ["ioco", b] => Some(JobVerdict::Ioco(flag(b)?)),
            _ => None,
        }
    }
}

impl fmt::Display for JobVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobVerdict::Reachable(b) => write!(f, "reachable: {b}"),
            JobVerdict::LeadsTo(b) => write!(f, "leads-to: {b}"),
            JobVerdict::MinCost(None) => write!(f, "min-cost: unreachable"),
            JobVerdict::MinCost(Some(c)) => write!(f, "min-cost: {c}"),
            JobVerdict::GameWinning(b) => write!(f, "winning: {b}"),
            JobVerdict::Probability(e) => write!(f, "probability: {e}"),
            JobVerdict::PricedProbability(e) => write!(f, "priced probability: {e}"),
            JobVerdict::RareProbability {
                p_hat,
                lower,
                upper,
                ..
            } => write!(f, "rare probability: {p_hat} in [{lower}, {upper}]"),
            JobVerdict::MdpValue(v) => write!(f, "value: {v}"),
            JobVerdict::McptaValue(v) => write!(f, "value: {v}"),
            JobVerdict::BipDeadlock(b) => write!(f, "deadlock: {b}"),
            JobVerdict::DeadlockFree(b) => write!(f, "deadlock-free: {b}"),
            JobVerdict::Refines(b) => write!(f, "refines: {b}"),
            JobVerdict::Ioco(b) => write!(f, "conforms: {b}"),
        }
    }
}

/// Why a job did not produce a verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobError {
    /// The job was cancelled — by its owner, by all coalesced owners, or
    /// by service shutdown.
    Cancelled,
    /// A budget dimension ran out before the engine finished.
    Exhausted(ExhaustionReason),
    /// The engine (or its certificate pipeline) failed.
    Engine(String),
    /// The engine panicked; carries the panic message. The service
    /// contains the panic: the job resolves with this error and the
    /// worker stays in the pool.
    EnginePanic(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Cancelled => f.write_str("job cancelled"),
            JobError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
            JobError::Engine(e) => write!(f, "engine error: {e}"),
            JobError::EnginePanic(e) => write!(f, "engine panicked: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Typed admission-control refusal: the service never silently drops a
/// submission, it tells the caller which limit pushed back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// The work queue is at capacity — backpressure; retry later.
    QueueFull,
    /// The tenant already has its maximum number of active jobs.
    TenantQuotaExceeded,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The model failed its static-analysis gate: the engine would
    /// refuse it (or produce a meaningless verdict), so admission
    /// refuses it first, with the blocking diagnostics attached.
    Lint(LintError),
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull => f.write_str("queue full"),
            Rejected::TenantQuotaExceeded => f.write_str("tenant quota exceeded"),
            Rejected::ShuttingDown => f.write_str("service shutting down"),
            Rejected::Lint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Where a verdict came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerdictSource {
    /// An engine ran for this job.
    Computed,
    /// Served from the in-memory cache tier.
    MemoryHit,
    /// Served from the on-disk tier after its certificate replayed
    /// successfully against the live model.
    DiskHit,
    /// Coalesced onto an identical in-flight computation.
    Coalesced,
}

/// A completed job: the verdict, the work that produced it, and which
/// path served it.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The canonical verdict.
    pub verdict: JobVerdict,
    /// Work performed (the *original* run's work for cache hits).
    pub report: RunReport,
    /// Which tier or path served the verdict.
    pub source: VerdictSource,
}

/// One submission: who asks, how urgently, with what budget, for what.
#[derive(Clone)]
pub struct JobRequest {
    /// Tenant identity for fair admission control and report rollups.
    pub tenant: String,
    /// Scheduling priority (larger = more urgent); the queue ages
    /// waiting jobs so low-priority work cannot starve.
    pub priority: i64,
    /// Resource limits for the engine run.
    pub budget: Budget,
    /// The query itself.
    pub kind: JobKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn verdict_render_parse_round_trips_bit_exactly() {
        let verdicts = [
            JobVerdict::Reachable(true),
            JobVerdict::LeadsTo(false),
            JobVerdict::MinCost(None),
            JobVerdict::MinCost(Some(-7)),
            JobVerdict::GameWinning(true),
            JobVerdict::Probability(Estimate {
                mean: 0.1 + 0.2, // deliberately non-representable sum
                lower: 0.25,
                upper: f64::MAX,
                runs: 1000,
                successes: 301,
                confidence: 0.95,
            }),
            JobVerdict::PricedProbability(Estimate {
                mean: 1.0 / 7.0,
                lower: 0.0,
                upper: 1.0,
                runs: 64,
                successes: 9,
                confidence: 0.99,
            }),
            JobVerdict::RareProbability {
                p_hat: 9.5e-7,
                lower: 4.3e-7,
                upper: 2.1e-6,
                confidence: 0.95,
                runs_total: 2688,
                splits_spawned: 2560,
            },
            JobVerdict::MdpValue(1.0 / 3.0),
            JobVerdict::McptaValue(0.0),
            JobVerdict::BipDeadlock(false),
            JobVerdict::DeadlockFree(true),
            JobVerdict::Refines(false),
            JobVerdict::Ioco(true),
        ];
        for v in verdicts {
            let text = v.render();
            assert_eq!(JobVerdict::parse(&text), Some(v.clone()), "{text}");
        }
        assert_eq!(JobVerdict::parse("gibberish"), None);
        assert_eq!(JobVerdict::parse("mdp-value zz"), None);
    }

    #[test]
    fn reduction_knobs_partition_the_cache() {
        let mut b = tempo_ta::NetworkBuilder::new();
        let mut a = b.automaton("A");
        let l0 = a.location("L0");
        let l1 = a.location("L1");
        a.edge(l0, l1).done();
        let a = a.done();
        let net = Arc::new(b.build());
        let goal = StateFormula::at(a, l1);
        let key = |explore: ExploreConfig| {
            JobKind::Reach {
                net: Arc::clone(&net),
                goal: goal.clone(),
                explore,
            }
            .cache_key(&Budget::unlimited())
        };
        // Same knobs: shared slot (the common CI-loop hit path).
        assert_eq!(key(ExploreConfig::default()), key(ExploreConfig::default()));
        // Different knobs answer the same question but report different
        // work, so they must not serve each other's cached reports.
        assert_ne!(
            key(ExploreConfig::default()),
            key(ExploreConfig::unreduced())
        );
        assert_ne!(
            key(ExploreConfig::unreduced().with_por(true)),
            key(ExploreConfig::unreduced().with_symmetry(true))
        );
    }

    #[test]
    fn budget_class_quantizes_but_distinguishes_magnitudes() {
        let key = |b: &Budget| {
            let mut h = StableHasher::new();
            digest_budget_class(b, &mut h);
            h.finish()
        };
        let unlimited = Budget::unlimited();
        // Same bit-length class: shared slot.
        assert_eq!(
            key(&unlimited.clone().with_wall_time(Duration::from_millis(900))),
            key(&unlimited.clone().with_wall_time(Duration::from_millis(600)))
        );
        // Different magnitude: distinct slot.
        assert_ne!(
            key(&unlimited.clone().with_wall_time(Duration::from_millis(900))),
            key(&unlimited.clone().with_wall_time(Duration::from_secs(60)))
        );
        // Unlimited vs bounded: distinct slot.
        assert_ne!(
            key(&unlimited),
            key(&unlimited.clone().with_max_states(1 << 20))
        );
        // A cancellation token is control plumbing, not semantics.
        assert_eq!(
            key(&unlimited),
            key(&unlimited.clone().with_cancel(tempo_obs::CancelToken::new()))
        );
    }
}
