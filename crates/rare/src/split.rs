//! Importance-splitting estimators for rare reachability probabilities.
//!
//! Naive Monte Carlo needs on the order of `1/p` simulations to observe
//! one success of a rare event of probability `p`. Importance splitting
//! decomposes the event into a chain of level crossings
//! `0 = L₀ ⊂ L₁ ⊂ … ⊂ L_m = goal` (here: sub-level sets of the static
//! [`GoalScore`] importance function) and estimates the product of the
//! conditional crossing probabilities, each of which is large enough to
//! measure with a small batch. Two classical estimators are provided:
//!
//! * **Fixed effort** ([`SplitMethod::FixedEffort`]): at each level a
//!   fixed number of trials is launched from the states that entered the
//!   level; `p̂ = Π cᵢ/Nᵢ` with a log-normal confidence interval from
//!   `σ² ≈ Σ (1−p̂ᵢ)/(Nᵢ·p̂ᵢ)`.
//! * **RESTART / fixed splitting** ([`SplitMethod::Restart`]): each of
//!   `R` independent replications simulates a particle tree, spawning
//!   `k−1` clones at every first up-crossing of a threshold on a
//!   lineage; a goal hit at lineage level `ℓ` contributes `k^−ℓ`, and
//!   the estimate is the replication mean with a normal interval.
//!
//! Both estimators are *goal-absorbing upward*: reaching the goal at any
//! level counts as crossing every remaining level, and the final level
//! is the goal predicate itself — so a weak importance function costs
//! variance, never correctness.
//!
//! Determinism: every simulated segment is seeded from
//! `(seed, epoch, stage, trial)` (fixed effort) or a per-replication
//! seed counter (RESTART), so an estimate is a function of the model,
//! the query, the seed and the configuration, byte for byte.

use crate::score::GoalScore;
use tempo_conc::{derive_stream_seed, trial_seed};
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_smc::{
    estimate, estimate_mean, ConcreteState, RatePolicy, Run, RunStep, Simulator, StatsError,
    DEFAULT_MAX_STEPS,
};
use tempo_ta::{Network, StateFormula};

/// The splitting estimator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitMethod {
    /// Fixed number of trials per level; product-of-fractions estimator.
    #[default]
    FixedEffort,
    /// Independent replications of a RESTART-style particle tree with a
    /// fixed branch factor.
    Restart,
}

/// Tuning parameters for the splitting engines.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// Which estimator to run.
    pub method: SplitMethod,
    /// Fixed effort: trials launched per level.
    pub effort: usize,
    /// RESTART: clones per up-crossing is `branch - 1`; choose roughly
    /// `1 / p_level` (an overly large branch factor multiplies the
    /// particle population by `branch · p_level` per level and can
    /// explode).
    pub branch: usize,
    /// RESTART: independent replications (the sample size of the final
    /// normal interval).
    pub replications: usize,
    /// Cap on the number of score thresholds (levels are merged evenly
    /// when the static score range is larger).
    pub max_levels: usize,
    /// Confidence level of the reported interval.
    pub confidence: f64,
    /// RESTART: hard cap on the particles of one replication; when
    /// reached, further up-crossings stop cloning (the estimate then
    /// leans conservative). Guards against a branch factor chosen too
    /// large for the model.
    pub max_particles: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            method: SplitMethod::FixedEffort,
            effort: 128,
            branch: 2,
            replications: 128,
            max_levels: 32,
            confidence: 0.95,
            max_particles: 65_536,
        }
    }
}

/// Per-level observation counts of a splitting estimate.
#[derive(Debug, Clone)]
pub struct LevelStats {
    /// The score threshold of this level; `None` for the final
    /// goal-predicate level.
    pub threshold: Option<i64>,
    /// Trials launched into this level (fixed effort; `0` for RESTART,
    /// whose per-level effort is random).
    pub trials: usize,
    /// Trials (fixed effort) or lineages (RESTART) that crossed it.
    pub crossers: usize,
}

/// A rare-event probability estimate with its confidence interval and
/// the work accounting needed to compare against naive Monte Carlo.
#[derive(Debug, Clone)]
pub struct SplitEstimate {
    /// The point estimate of the rare-event probability.
    pub p_hat: f64,
    /// Lower confidence bound (`0` when no trial reached the goal).
    pub lower: f64,
    /// Upper confidence bound.
    pub upper: f64,
    /// The confidence level of `[lower, upper]`.
    pub confidence: f64,
    /// Per-level crossing statistics.
    pub levels: Vec<LevelStats>,
    /// Simulated trajectory segments, the unit comparable to one naive
    /// Monte Carlo run.
    pub runs_total: u64,
    /// Cloned continuations spawned beyond the root level.
    pub splits_spawned: u64,
}

/// The value of a witnessed splitting query: the estimate together with
/// up to the requested number of exported goal-reaching trajectories,
/// or `None` when the budget ran out mid-experiment (a partial level
/// product is not an estimate).
pub type WitnessedSplit = Option<(SplitEstimate, Vec<Run>)>;

/// A level-entry state together with the run prefix that produced it
/// (steps from the network's initial state), so a goal-reaching
/// trajectory can be exported as one contiguous legal run.
#[derive(Debug, Clone)]
struct Entry {
    state: ConcreteState,
    prefix: Vec<RunStep>,
}

/// What the fixed-effort engine hands back before governance packaging.
struct EngineOutput {
    estimate: Option<SplitEstimate>,
    /// Final-level (goal-reaching) entries, in trial order.
    witnesses: Vec<Entry>,
    runs_total: u64,
    splits_spawned: u64,
    stages_run: usize,
}

/// An importance-splitting rare-event checker bound to a network and
/// delay-rate policy.
///
/// ```
/// use tempo_obs::Budget;
/// use tempo_rare::{RareChecker, SplitConfig};
/// use tempo_smc::RatePolicy;
///
/// let c = tempo_models::chain(8); // p = 2^-8
/// let mut rc = RareChecker::new(&c.net, RatePolicy::new(), 42);
/// let config = SplitConfig::default();
/// let out = rc.probability_governed(&c.goal(), c.time_bound(), &config, &Budget::unlimited());
/// let est = out.expect("valid parameters").into_value().expect("every level completes");
/// assert!(est.lower > 0.0 && est.lower <= c.exact_probability());
/// assert!(est.upper >= c.exact_probability());
/// ```
#[derive(Debug)]
pub struct RareChecker<'n> {
    net: &'n Network,
    rates: RatePolicy,
    seed: u64,
    epoch: u64,
    max_steps: usize,
}

impl<'n> RareChecker<'n> {
    /// Creates a checker with the given delay-rate policy and RNG seed.
    #[must_use]
    pub fn new(net: &'n Network, rates: RatePolicy, seed: u64) -> Self {
        RareChecker {
            net,
            rates,
            seed,
            epoch: 0,
            max_steps: DEFAULT_MAX_STEPS,
        }
    }

    /// Caps the number of actions per simulated segment.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps.max(1);
        self
    }

    /// Estimates `Pr[<=bound](<> goal)` by importance splitting under a
    /// resource [`Budget`].
    ///
    /// On exhaustion before every level completes the value is `None`: a
    /// partial product of crossing fractions is *not* an estimate of the
    /// goal probability, so no misleading partial answer is reported.
    ///
    /// # Errors
    ///
    /// [`StatsError`] on invalid statistical parameters, and
    /// [`StatsError::Cancelled`] when the budget's cancellation token
    /// trips before the first segment completes.
    pub fn probability_governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        config: &SplitConfig,
        budget: &Budget,
    ) -> Result<Outcome<Option<SplitEstimate>>, StatsError> {
        self.governed(goal, bound, config, budget, 0)
            .map(|o| o.map(|v| v.map(|(est, _)| est)))
    }

    /// Like [`Self::probability_governed`], additionally returning up to
    /// `witness_runs` goal-reaching trajectories as contiguous legal
    /// runs from the network's initial state (fixed effort only; RESTART
    /// returns no witnesses).
    ///
    /// # Errors
    ///
    /// As for [`Self::probability_governed`].
    pub fn probability_with_witnesses(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        config: &SplitConfig,
        budget: &Budget,
        witness_runs: usize,
    ) -> Result<Outcome<WitnessedSplit>, StatsError> {
        self.governed(goal, bound, config, budget, witness_runs)
    }

    fn governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        config: &SplitConfig,
        budget: &Budget,
        witness_runs: usize,
    ) -> Result<Outcome<WitnessedSplit>, StatsError> {
        if !(config.confidence > 0.0 && config.confidence < 1.0) {
            return Err(StatsError::InvalidConfidence(config.confidence));
        }
        match config.method {
            SplitMethod::FixedEffort if config.effort == 0 => return Err(StatsError::NoRuns),
            SplitMethod::Restart if config.replications == 0 || config.branch < 2 => {
                return Err(StatsError::NoRuns)
            }
            _ => {}
        }
        self.epoch += 1;
        let score = GoalScore::new(self.net, goal);
        let thresholds = score.thresholds(config.max_levels);
        let gov = budget.governor();
        let out = match config.method {
            SplitMethod::FixedEffort => {
                self.fixed_effort(goal, bound, config, &score, &thresholds, &gov)
            }
            SplitMethod::Restart => self.restart(goal, bound, config, &score, &thresholds, &gov),
        };
        let report = RunReport {
            runs_simulated: out.runs_total,
            runs_total: out.runs_total,
            splitting_levels: out.stages_run as u64,
            splits_spawned: out.splits_spawned,
            dbm_dim: self.net.dim() as u64,
            dbm_dim_model: self.net.dim() as u64,
            wall_time: gov.elapsed(),
            ..RunReport::default()
        };
        let Some(est) = out.estimate else {
            if gov.exhausted() == Some(tempo_obs::ExhaustionReason::Cancelled)
                && out.runs_total == 0
            {
                return Err(StatsError::Cancelled);
            }
            return Ok(gov.finish(None, report));
        };
        let initial = Simulator::new(self.net, self.rates.clone(), 0).initial_state();
        let witnesses: Vec<Run> = out
            .witnesses
            .into_iter()
            .take(witness_runs)
            .map(|e| Run {
                initial: initial.clone(),
                steps: e.prefix,
                deadlocked: false,
            })
            .collect();
        Ok(gov.finish(Some((est, witnesses)), report))
    }

    /// The fixed-effort engine; see the module docs for the estimator.
    #[allow(clippy::too_many_arguments)]
    fn fixed_effort(
        &self,
        goal: &StateFormula,
        bound: f64,
        config: &SplitConfig,
        score: &GoalScore,
        thresholds: &[i64],
        gov: &Governor,
    ) -> EngineOutput {
        let net = self.net;
        // Crossing predicate of stage `s`: past the next score threshold,
        // or already at the goal (goal absorbs upward). The final stage
        // is the goal predicate alone.
        let crosses = |s: usize, state: &ConcreteState| -> bool {
            if s < thresholds.len() {
                score.score(state) >= thresholds[s] || state.satisfies(net, goal)
            } else {
                state.satisfies(net, goal)
            }
        };
        let stages = thresholds.len() + 1;
        let n = config.effort;
        let mut entries = vec![Entry {
            state: Simulator::new(net, self.rates.clone(), 0).initial_state(),
            prefix: Vec::new(),
        }];
        let mut levels: Vec<LevelStats> = Vec::with_capacity(stages);
        let mut product = 1.0_f64;
        let mut sigma2 = 0.0_f64;
        let mut runs_total = 0_u64;
        let mut splits_spawned = 0_u64;
        let z = z_quantile(config.confidence);
        for s in 0..stages {
            let stage_seed = trial_seed(self.seed, self.epoch, s);
            let mut outcomes: Vec<(bool, Option<Entry>)> = Vec::with_capacity(n);
            for trial in 0..n {
                let e = &entries[trial % entries.len()];
                if crosses(s, &e.state) {
                    // Entered this stage already past its level (or at
                    // the goal): a certain crosser, no simulation needed.
                    outcomes.push((false, Some(e.clone())));
                    continue;
                }
                if !gov.check_time() || !gov.charge_run() {
                    break;
                }
                let seed = derive_stream_seed(stage_seed, trial);
                let mut sim = Simulator::new(net, self.rates.clone(), seed);
                // The segment ends at its first crossing, if any.
                let run =
                    sim.simulate_until(e.state.clone(), bound, self.max_steps, |st| crosses(s, st));
                let crossed = match run.steps.last() {
                    Some(last) if crosses(s, &last.state) => {
                        let state = last.state.clone();
                        let mut prefix = e.prefix.clone();
                        prefix.extend(run.steps);
                        Some(Entry { state, prefix })
                    }
                    _ => None,
                };
                outcomes.push((true, crossed));
            }
            let completed = outcomes.len();
            for &(simulated, _) in &outcomes {
                if simulated {
                    runs_total += 1;
                    if s > 0 {
                        splits_spawned += 1;
                    }
                }
            }
            if completed < n {
                // Budget tripped mid-stage: a partial product is not an
                // estimate of p, so report no value.
                return EngineOutput {
                    estimate: None,
                    witnesses: Vec::new(),
                    runs_total,
                    splits_spawned,
                    stages_run: s + 1,
                };
            }
            let crossers: Vec<Entry> = outcomes.into_iter().filter_map(|(_, e)| e).collect();
            let c = crossers.len();
            levels.push(LevelStats {
                threshold: thresholds.get(s).copied(),
                trials: n,
                crossers: c,
            });
            if c == 0 {
                // No trial crossed: the point estimate is 0 with an upper
                // bound from the remaining levels' certain failure —
                // conservatively, the product so far times the one-sided
                // upper bound of 0 successes in n trials.
                let upper0 = estimate(0, n, config.confidence)
                    .map(|e| e.upper)
                    .unwrap_or(1.0);
                return EngineOutput {
                    estimate: Some(SplitEstimate {
                        p_hat: 0.0,
                        lower: 0.0,
                        upper: (product * upper0).min(1.0),
                        confidence: config.confidence,
                        levels,
                        runs_total,
                        splits_spawned,
                    }),
                    witnesses: Vec::new(),
                    runs_total,
                    splits_spawned,
                    stages_run: s + 1,
                };
            }
            let p_l = c as f64 / n as f64;
            product *= p_l;
            sigma2 += (1.0 - p_l) / (n as f64 * p_l);
            entries = crossers;
        }
        let sigma = sigma2.sqrt();
        let estimate = SplitEstimate {
            p_hat: product,
            lower: (product * (-z * sigma).exp()).max(0.0),
            upper: (product * (z * sigma).exp()).min(1.0),
            confidence: config.confidence,
            levels,
            runs_total,
            splits_spawned,
        };
        EngineOutput {
            estimate: Some(estimate),
            witnesses: entries,
            runs_total,
            splits_spawned,
            stages_run: stages,
        }
    }

    /// The RESTART / fixed-splitting engine; see the module docs.
    #[allow(clippy::too_many_arguments)]
    fn restart(
        &self,
        goal: &StateFormula,
        bound: f64,
        config: &SplitConfig,
        score: &GoalScore,
        thresholds: &[i64],
        gov: &Governor,
    ) -> EngineOutput {
        let net = self.net;
        let k = config.branch;
        let r = config.replications;
        let initial = Simulator::new(net, self.rates.clone(), 0).initial_state();
        /// One replication's contribution, with its work accounting.
        struct Rep {
            sum: f64,
            segments: u64,
            spawned: u64,
            crossings: Vec<usize>,
            complete: bool,
        }
        let mut reps: Vec<Rep> = Vec::with_capacity(r);
        for rep_index in 0..r {
            let rep_seed = trial_seed(self.seed, self.epoch, rep_index);
            let mut counter = 0_usize;
            let mut rep = Rep {
                sum: 0.0,
                segments: 0,
                spawned: 0,
                crossings: vec![0; thresholds.len()],
                complete: true,
            };
            let mut particles = 1_usize;
            let mut stack: Vec<(ConcreteState, usize)> = vec![(initial.clone(), 0)];
            'particles: while let Some((state, mut lvl)) = stack.pop() {
                // Spawn-point processing: the particle may start at a
                // goal state (absorb) or past further thresholds (its
                // own lineage crosses them immediately).
                if state.satisfies(net, goal) {
                    rep.sum += weight(k, lvl);
                    continue;
                }
                let sc = score.score(&state);
                while lvl < thresholds.len() && sc >= thresholds[lvl] {
                    rep.crossings[lvl] += 1;
                    lvl += 1;
                    if particles + (k - 1) <= config.max_particles {
                        for _ in 0..k - 1 {
                            stack.push((state.clone(), lvl));
                        }
                        particles += k - 1;
                        rep.spawned += (k - 1) as u64;
                    }
                }
                if !gov.check_time() || !gov.charge_run() {
                    rep.complete = false;
                    break;
                }
                let mut sim = Simulator::new(
                    net,
                    self.rates.clone(),
                    derive_stream_seed(rep_seed, counter),
                );
                counter += 1;
                // The segment ends at the goal; threshold crossings on
                // the way still spawn particles.
                let run =
                    sim.simulate_until(state, bound, self.max_steps, |st| st.satisfies(net, goal));
                rep.segments += 1;
                for step in run.steps {
                    if step.state.satisfies(net, goal) {
                        rep.sum += weight(k, lvl);
                        continue 'particles;
                    }
                    let sc = score.score(&step.state);
                    while lvl < thresholds.len() && sc >= thresholds[lvl] {
                        rep.crossings[lvl] += 1;
                        lvl += 1;
                        if particles + (k - 1) <= config.max_particles {
                            for _ in 0..k - 1 {
                                stack.push((step.state.clone(), lvl));
                            }
                            particles += k - 1;
                            rep.spawned += (k - 1) as u64;
                        }
                    }
                }
            }
            let complete = rep.complete;
            reps.push(rep);
            if !complete {
                break;
            }
        }
        let runs_total: u64 = reps.iter().map(|r| r.segments).sum();
        let splits_spawned: u64 = reps.iter().map(|r| r.spawned).sum();
        let mut crossings = vec![0_usize; thresholds.len()];
        for rep in &reps {
            for (total, &c) in crossings.iter_mut().zip(&rep.crossings) {
                *total += c;
            }
        }
        let levels: Vec<LevelStats> = thresholds
            .iter()
            .zip(&crossings)
            .map(|(&t, &c)| LevelStats {
                threshold: Some(t),
                trials: 0,
                crossers: c,
            })
            .collect();
        let stages_run = thresholds.len() + 1;
        if reps.len() < r || reps.iter().any(|rep| !rep.complete) {
            return EngineOutput {
                estimate: None,
                witnesses: Vec::new(),
                runs_total,
                splits_spawned,
                stages_run,
            };
        }
        let sums: Vec<f64> = reps.iter().map(|rep| rep.sum).collect();
        let Ok(mean) = estimate_mean(&sums) else {
            return EngineOutput {
                estimate: None,
                witnesses: Vec::new(),
                runs_total,
                splits_spawned,
                stages_run,
            };
        };
        let z = z_quantile(config.confidence);
        let half = z * mean.std_dev / (r as f64).sqrt();
        let estimate = SplitEstimate {
            p_hat: mean.mean,
            lower: (mean.mean - half).max(0.0),
            upper: (mean.mean + half).min(1.0),
            confidence: config.confidence,
            levels,
            runs_total,
            splits_spawned,
        };
        EngineOutput {
            estimate: Some(estimate),
            witnesses: Vec::new(),
            runs_total,
            splits_spawned,
            stages_run,
        }
    }
}

/// Contribution of a goal hit at lineage level `lvl` under branch
/// factor `k`: `k^-lvl`.
fn weight(k: usize, lvl: usize) -> f64 {
    (1.0 / k as f64).powi(i32::try_from(lvl).unwrap_or(i32::MAX))
}

/// Two-sided standard-normal quantile for a confidence level in `(0, 1)`
/// via Acklam's rational approximation of the inverse normal CDF
/// (absolute error below `1.2e-9` — far inside Monte Carlo noise).
fn z_quantile(confidence: f64) -> f64 {
    inv_norm_cdf(0.5 + confidence / 2.0)
}

fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_quantile_matches_tables() {
        assert!((z_quantile(0.95) - 1.959_964).abs() < 1e-5);
        assert!((z_quantile(0.99) - 2.575_829).abs() < 1e-5);
        assert!((z_quantile(0.6827) - 1.0).abs() < 1e-3);
    }
}
