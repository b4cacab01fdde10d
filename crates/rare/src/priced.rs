//! Priced stochastic simulation: UPPAAL-CORA cost structure composed
//! with the UPPAAL-SMC run generator.
//!
//! A [`tempo_cora::PricedNetwork`] assigns an integer cost *rate* to
//! each location and an integer cost to each edge. Under the stochastic
//! semantics of [`tempo_smc::Simulator`] every run then accumulates a
//! real-valued cost: `Σ delay·(Σ rates of the pre-state locations)` over
//! delays plus `Σ edge costs of the participants` over actions. This
//! module estimates cost-bounded reachability probabilities
//! (`Pr[cost <= C, time <= T](<> goal)`), expected accumulated cost, and
//! cost distributions from batches of simulated runs.
//!
//! Cost accumulation follows one canonical operation order — per step,
//! the delay term is added before the edge term, in step order — shared
//! with the independent validator
//! ([`tempo_witness::replay_priced_run`]), so a certified run's
//! re-summed cost matches the simulator's bit for bit.

use tempo_cora::PricedNetwork;
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_smc::{
    estimate, estimate_mean, EmpiricalCdf, Estimate, MeanEstimate, RatePolicy, Run,
    StatisticalChecker, StatsError,
};
use tempo_ta::{AutomatonId, StateFormula};

/// Cost-rate sum of a concrete state: `Σ_a rate(a, loc_a)`.
fn rate_sum(pnet: &PricedNetwork, state: &tempo_smc::ConcreteState) -> i64 {
    state
        .locs
        .iter()
        .enumerate()
        .map(|(ai, &l)| pnet.rate(AutomatonId(ai), l))
        .sum()
}

/// Edge-cost sum of one joint move.
fn edge_sum(pnet: &PricedNetwork, participants: &[(usize, usize, Vec<i64>)]) -> i64 {
    participants
        .iter()
        .map(|&(ai, ei, _)| pnet.edge_cost(AutomatonId(ai), ei))
        .sum()
}

/// Total accumulated cost of a simulated run under the priced network's
/// rate and edge-cost assignment.
///
/// The summation order (per step: delay × pre-state rate sum, then the
/// participants' edge costs) is the canonical one shared with
/// [`tempo_witness::replay_priced_run`]; both sides produce bitwise
/// identical `f64` totals for the same run.
#[must_use]
pub fn run_cost(pnet: &PricedNetwork, run: &Run) -> f64 {
    let mut cost = 0.0_f64;
    let mut pre = &run.initial;
    for step in &run.steps {
        cost += step.delay * rate_sum(pnet, pre) as f64;
        if !step.participants.is_empty() {
            cost += edge_sum(pnet, &step.participants) as f64;
        }
        pre = &step.state;
    }
    cost
}

/// The accumulated cost and absolute time at the first state of `run`
/// satisfying `goal`, or `None` when the run never reaches it.
///
/// States are inspected after every action, and the initial state counts
/// at time and cost `0`.
#[must_use]
pub fn first_hit_cost(pnet: &PricedNetwork, run: &Run, goal: &StateFormula) -> Option<(f64, f64)> {
    let net = pnet.network();
    if run.initial.satisfies(net, goal) {
        return Some((0.0, 0.0));
    }
    let mut cost = 0.0_f64;
    let mut pre = &run.initial;
    for step in &run.steps {
        cost += step.delay * rate_sum(pnet, pre) as f64;
        if !step.participants.is_empty() {
            cost += edge_sum(pnet, &step.participants) as f64;
        }
        if step.state.satisfies(net, goal) {
            return Some((step.state.time, cost));
        }
        pre = &step.state;
    }
    None
}

/// [`RunReport`] for a priced simulation batch.
fn priced_report(gov: &Governor, completed: usize, dim: usize) -> RunReport {
    RunReport {
        runs_simulated: completed as u64,
        runs_total: completed as u64,
        dbm_dim: dim as u64,
        dbm_dim_model: dim as u64,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// A statistical checker over a priced network: estimates cost-bounded
/// probabilities, expected costs, and cost distributions.
///
/// Trials are seeded individually from `(seed, epoch, trial index)` —
/// never from the worker that happens to run them — so every estimate is
/// bitwise identical at any thread count.
///
/// ```
/// use tempo_cora::PricedNetwork;
/// use tempo_rare::PricedChecker;
/// use tempo_smc::RatePolicy;
/// use tempo_ta::{NetworkBuilder, StateFormula};
///
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).done();
/// let aid = a.done();
/// let net = b.build();
/// let mut pnet = PricedNetwork::new(net);
/// pnet.set_rate(aid, l0, 2); // cost accrues at rate 2 until the move
///
/// let mut chk = PricedChecker::new(&pnet, RatePolicy::new(), 1);
/// let est = chk.cost_probability(&StateFormula::at(aid, l1), 1_000.0, 100.0, 200, 0.95);
/// assert!(est.mean > 0.9);
/// ```
#[derive(Debug)]
pub struct PricedChecker<'n> {
    pnet: &'n PricedNetwork,
    /// The trial loop: a plain statistical checker over the priced
    /// network's underlying network.
    smc: StatisticalChecker<'n>,
}

impl<'n> PricedChecker<'n> {
    /// Creates a checker with the given delay-rate policy and RNG seed.
    #[must_use]
    pub fn new(pnet: &'n PricedNetwork, rates: RatePolicy, seed: u64) -> Self {
        PricedChecker {
            pnet,
            smc: StatisticalChecker::new(pnet.network(), rates, seed),
        }
    }

    /// Splits each batch across `threads` workers. Estimates do not
    /// depend on the thread count (trials are seeded by index).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.smc = self.smc.with_threads(threads);
        self
    }

    /// Caps the number of actions per simulated run.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.smc = self.smc.with_max_steps(max_steps.max(1));
        self
    }

    /// Pre-flight lint gate: structural diagnostics for the underlying
    /// network plus the priced-specific rules (negative cost rates,
    /// CORA001).
    ///
    /// # Errors
    ///
    /// A [`tempo_lint::LintError`] carrying every diagnostic at or above
    /// the configured severity.
    pub fn check_first(
        &self,
        config: &tempo_lint::LintConfig,
    ) -> Result<tempo_lint::LintReport, tempo_lint::LintError> {
        self.pnet.check_first(config)
    }

    fn check_cancelled(gov: &Governor) -> Result<(), StatsError> {
        if gov.exhausted() == Some(tempo_obs::ExhaustionReason::Cancelled) {
            return Err(StatsError::Cancelled);
        }
        Ok(())
    }

    /// Estimates `Pr[cost <= cost_bound, time <= time_bound](<> goal)`
    /// with a Wilson interval at level `confidence`.
    ///
    /// A run counts as a success when its *first* goal state arrives
    /// with accumulated cost at most `cost_bound` and time at most
    /// `time_bound`.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0` or `confidence` is outside `(0, 1)`; use
    /// [`Self::cost_probability_governed`] for the non-panicking API.
    pub fn cost_probability(
        &mut self,
        goal: &StateFormula,
        cost_bound: f64,
        time_bound: f64,
        runs: usize,
        confidence: f64,
    ) -> Estimate {
        self.cost_probability_governed(
            goal,
            cost_bound,
            time_bound,
            runs,
            confidence,
            &Budget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{e}"))
        .into_value()
        .expect("an unlimited budget without a cancel token cannot stop short")
    }

    /// Estimates `Pr[cost <= cost_bound, time <= time_bound](<> goal)`
    /// under a resource [`Budget`].
    ///
    /// # Errors
    ///
    /// [`StatsError`] on invalid statistical parameters, and
    /// [`StatsError::Cancelled`] when the budget's cancellation token
    /// trips before the first run completes.
    pub fn cost_probability_governed(
        &mut self,
        goal: &StateFormula,
        cost_bound: f64,
        time_bound: f64,
        runs: usize,
        confidence: f64,
        budget: &Budget,
    ) -> Result<Outcome<Option<Estimate>>, StatsError> {
        if runs == 0 {
            return Err(StatsError::NoRuns);
        }
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::InvalidConfidence(confidence));
        }
        let gov = budget.governor();
        let pnet = self.pnet;
        let hits = self.smc.trials(time_bound, runs, &gov, |run| {
            first_hit_cost(pnet, run, goal).is_some_and(|(t, c)| t <= time_bound && c <= cost_bound)
        });
        let completed = hits.len();
        let successes = hits.iter().filter(|&&h| h).count();
        let est = if completed > 0 {
            Some(estimate(successes, completed, confidence)?)
        } else {
            Self::check_cancelled(&gov)?;
            None
        };
        let report = priced_report(&gov, completed, self.pnet.network().dim());
        Ok(gov.finish(est, report))
    }

    /// Estimates the expected total cost accumulated up to the time
    /// horizon `bound` (UPPAAL-SMC's `E[<=bound](max: cost)` shape).
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`; use [`Self::expected_cost_governed`] for
    /// the non-panicking API.
    pub fn expected_cost(&mut self, bound: f64, runs: usize) -> MeanEstimate {
        self.expected_cost_governed(bound, runs, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
            .expect("an unlimited budget without a cancel token cannot stop short")
    }

    /// Estimates the expected total cost at horizon `bound` under a
    /// resource [`Budget`].
    ///
    /// # Errors
    ///
    /// [`StatsError`] when `runs == 0` or no run completes within the
    /// budget; [`StatsError::Cancelled`] on pre-data cancellation.
    pub fn expected_cost_governed(
        &mut self,
        bound: f64,
        runs: usize,
        budget: &Budget,
    ) -> Result<Outcome<Option<MeanEstimate>>, StatsError> {
        if runs == 0 {
            return Err(StatsError::NoRuns);
        }
        let gov = budget.governor();
        let pnet = self.pnet;
        let costs = self
            .smc
            .trials(bound, runs, &gov, |run| run_cost(pnet, run));
        let completed = costs.len();
        let est = if completed > 0 {
            Some(estimate_mean(&costs)?)
        } else {
            Self::check_cancelled(&gov)?;
            None
        };
        let report = priced_report(&gov, completed, self.pnet.network().dim());
        Ok(gov.finish(est, report))
    }

    /// The empirical distribution of the cost at the first goal hit over
    /// `runs` simulations of horizon `bound` (runs that never reach the
    /// goal contribute no sample; the population is still `runs`, so
    /// [`EmpiricalCdf::at`] reads as a fraction of *all* runs).
    pub fn cost_cdf(&mut self, goal: &StateFormula, bound: f64, runs: usize) -> EmpiricalCdf {
        let gov = Budget::unlimited().governor();
        let pnet = self.pnet;
        let hits = self.smc.trials(bound, runs, &gov, |run| {
            first_hit_cost(pnet, run, goal).map(|(_, c)| c)
        });
        let mut cdf = EmpiricalCdf::new(runs);
        for c in hits.into_iter().flatten() {
            cdf.add(c);
        }
        cdf
    }
}
