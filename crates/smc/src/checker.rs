//! The statistical model checker: ties the stochastic simulator to the
//! estimators, mirroring UPPAAL-SMC's query interface
//! (`Pr[<=T](<> φ)`, hypothesis tests, expected values, CDF plots).

use crate::sim::{RatePolicy, Run, Simulator};
use crate::stats::{
    estimate, estimate_mean, EmpiricalCdf, Estimate, MeanEstimate, Sprt, StatsError, TestVerdict,
};
use tempo_conc::{run_blocks, trial_seed};
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_ta::flow::FlowMetrics;
use tempo_ta::{ClockReduction, Network, StateFormula};

/// [`RunReport`] for a simulation batch: the run counter, the clock-space
/// dimensions and wall time are the meaningful fields for statistical
/// engines.
fn sim_report(gov: &Governor, completed: usize, dim: usize, model_dim: usize) -> RunReport {
    RunReport {
        runs_simulated: completed as u64,
        dbm_dim: dim as u64,
        dbm_dim_model: model_dim as u64,
        wall_time: gov.elapsed(),
        ..RunReport::default()
    }
}

/// Resolves a per-query active-clock reduction: the network to simulate
/// and the property mapped into its clock space.
///
/// Dead clocks gate no delay bound and no guard, so simulators driven by
/// the same seeds produce identical discrete trajectories over the
/// reduced network — estimates are byte-identical while each state
/// carries fewer clocks.
fn reduced_query<'a>(
    reduction: &'a ClockReduction,
    full: &'a Network,
    prop: &StateFormula,
) -> (&'a Network, StateFormula) {
    if reduction.is_reduced() {
        // `reduced_with` keeps every clock read by any template or by the
        // atoms it was given, so a property mapped against the reduction
        // computed from its own atoms always survives. A `None` here
        // means the reduction was computed for a *different* atom set
        // (caller mismatch); simulating the full network is always
        // correct, so fall back instead of panicking.
        if let Some(mapped) = reduction.map_formula(prop) {
            return (reduction.network(), mapped);
        }
    }
    (full, prop.clone())
}

/// Default cap on the number of actions per simulated run.
pub const DEFAULT_MAX_STEPS: usize = 100_000;

/// A statistical model checker bound to a network and rate policy.
///
/// Every query draws fresh trials: trial `t` of the checker's `epoch`-th
/// query is simulated from its own seed
/// [`trial_seed`](tempo_conc::trial_seed)`(seed, epoch, t)`, whichever
/// worker runs it, so estimates and run reports do not depend on the
/// worker count.
///
/// ```
/// use tempo_ta::NetworkBuilder;
/// use tempo_smc::{RatePolicy, StatisticalChecker};
/// use tempo_ta::StateFormula;
///
/// let mut b = NetworkBuilder::new();
/// let mut a = b.automaton("A");
/// let l0 = a.location("L0");
/// let l1 = a.location("L1");
/// a.edge(l0, l1).done();
/// let aid = a.done();
/// let net = b.build();
///
/// let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 1);
/// let est = smc.probability(&StateFormula::at(aid, l1), 100.0, 200, 0.95);
/// assert!(est.mean > 0.9); // the only move leads to L1
/// ```
#[derive(Debug)]
pub struct StatisticalChecker<'n> {
    net: &'n Network,
    rates: RatePolicy,
    seed: u64,
    threads: usize,
    /// Query counter: each query draws its own trial seeds, so successive
    /// queries stay independent yet reproducible from the base seed.
    epoch: u64,
    max_steps: usize,
    flow: bool,
}

impl<'n> StatisticalChecker<'n> {
    /// Creates a checker with the given rate policy and RNG seed,
    /// simulating on one worker.
    #[must_use]
    pub fn new(net: &'n Network, rates: RatePolicy, seed: u64) -> Self {
        StatisticalChecker {
            net,
            rates,
            seed,
            threads: 1,
            epoch: 0,
            max_steps: DEFAULT_MAX_STEPS,
            flow: true,
        }
    }

    /// Disables query-directed slicing, simulating the unsliced network
    /// (still reduced to the clocks the model and the query read).
    /// Estimates are byte-identical either way — this switch exists for
    /// differential testing.
    #[must_use]
    pub fn without_flow(mut self) -> Self {
        self.flow = false;
        self
    }

    /// Query-directed slicing: provably disabled edges are never enabled,
    /// so simulators on the sliced network enumerate identical
    /// enabled-move lists, consume identical RNG streams and produce
    /// byte-identical trajectories, while active-clock reduction gets to
    /// remove the clocks those edges guarded.
    fn sliced_base(&self) -> (Option<tempo_ta::Slice>, FlowMetrics) {
        let mut metrics = FlowMetrics::default();
        let sliced = self.flow.then(|| tempo_ta::slice(self.net));
        if let Some(s) = &sliced {
            metrics.sliced_edges = s.disabled_edges;
            metrics.vars_narrowed = s.vars_narrowed;
            metrics.sliced_vars = s.dead_vars.len() as u64;
        }
        (sliced, metrics)
    }

    /// Overrides the per-run step cap.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Statically checks a network before simulating it: the lint rules
    /// of `tempo-lint` plus the digital-clocks closedness requirements
    /// of the simulator. On success returns the non-blocking findings
    /// (warnings) for display.
    ///
    /// # Errors
    ///
    /// Returns a typed [`LintError`](tempo_lint::LintError) — never
    /// panics — when the model has error-level findings (or any
    /// finding under [`LintConfig::strict`](tempo_lint::LintConfig)).
    pub fn check_first(
        net: &Network,
        config: &tempo_lint::LintConfig,
    ) -> Result<tempo_lint::LintReport, tempo_lint::LintError> {
        let mut report = tempo_lint::check_network(net);
        if let Err(e) = tempo_ta::DigitalExplorer::try_new(net) {
            let lint: tempo_lint::LintError = e.into();
            report.diagnostics.extend(lint.diagnostics);
        }
        report.into_result(config)
    }

    /// Splits each query's trials across `threads` workers, one
    /// contiguous block of trial indices per worker.
    ///
    /// Trials are seeded by index, so the estimates and every run report
    /// counter are identical at any worker count; only the wall time
    /// changes. The sequential SPRT ([`Self::hypothesis`]) draws one
    /// trial at a time on the calling thread.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Simulates trial `trial` of query `epoch` on `net` up to `bound`.
    fn trial(&self, net: &Network, epoch: u64, trial: usize, bound: f64) -> Run {
        let seed = trial_seed(self.seed, epoch, trial);
        Simulator::new(net, self.rates.clone(), seed).simulate(bound, self.max_steps)
    }

    /// Simulates trials `0..runs` of the next query on `net` up to horizon
    /// `bound` and maps each run through `eval`, returning the results in
    /// trial order.
    ///
    /// The run budget caps the batch upfront, so a fixed `(seed, query)`
    /// pair stays bitwise-reproducible; only the wall-clock deadline or
    /// cancellation cuts a block short. A batch that completes fewer than
    /// `runs` trials latches run-budget exhaustion unless another limit
    /// already tripped.
    fn batch<T, F>(
        &mut self,
        net: &Network,
        bound: f64,
        runs: usize,
        gov: &Governor,
        eval: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&Run) -> T + Sync,
    {
        self.epoch += 1;
        let (this, epoch) = (&*self, self.epoch);
        let effective = runs.min(usize::try_from(gov.runs_remaining()).unwrap_or(usize::MAX));
        let out = run_blocks(effective, self.threads, |block| {
            let mut out = Vec::with_capacity(block.len());
            for t in block {
                if !gov.check_time() {
                    break;
                }
                out.push(eval(&this.trial(net, epoch, t, bound)));
                let _ = gov.charge_run();
            }
            out
        });
        if out.len() < runs && !gov.is_exhausted() {
            let _ = gov.charge_run();
        }
        out
    }

    /// The trial loop of the fixed-budget estimators, for estimators
    /// built on this checker (such as `tempo-rare`'s priced checker):
    /// simulates trials `0..runs` of the next query on the unsliced,
    /// unreduced network up to horizon `bound` and maps each run through
    /// `eval`, returning the results in trial order. The run budget is
    /// applied as in [`Self::probability_governed`].
    pub fn trials<T, F>(&mut self, bound: f64, runs: usize, gov: &Governor, eval: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Run) -> T + Sync,
    {
        let net = self.net;
        self.batch(net, bound, runs, gov, eval)
    }

    /// Estimates `Pr[<=bound](<> goal)` from `runs` simulations with a
    /// Wilson confidence interval at level `confidence`.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0` or `confidence` is outside `(0, 1)`; use
    /// [`Self::probability_governed`] for the non-panicking API.
    pub fn probability(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        runs: usize,
        confidence: f64,
    ) -> Estimate {
        self.probability_governed(goal, bound, runs, confidence, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
            .expect("an unlimited budget without a cancel token cannot stop short")
    }

    /// Estimates `Pr[<=bound](<> goal)` under a resource [`Budget`].
    ///
    /// On run-budget or deadline exhaustion the partial answer is the
    /// Wilson estimate over the runs that did complete, or `None` when no
    /// run completed. With an unlimited budget the result is
    /// bit-identical to [`Self::probability`].
    ///
    /// # Errors
    ///
    /// Returns a [`StatsError`] when `runs == 0` or `confidence` is
    /// outside `(0, 1)`, and [`StatsError::Cancelled`] when the budget's
    /// cancellation token trips before the first run completes.
    pub fn probability_governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
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
        let (sliced, metrics) = self.sliced_base();
        let base: &Network = sliced.as_ref().map_or(self.net, |s| &s.net);
        let reduction = base.reduced_with(&goal.clock_atoms());
        let (net, goal) = reduced_query(&reduction, base, goal);
        let hits = self.batch(net, bound, runs, &gov, |run| {
            run.satisfies_eventually(net, &goal, bound)
        });
        let completed = hits.len();
        let successes = hits.iter().filter(|&&hit| hit).count();
        let est = if completed > 0 {
            Some(estimate(successes, completed, confidence)?)
        } else {
            Self::check_cancelled(&gov)?;
            None
        };
        let report = metrics.stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
        Ok(gov.finish(est, report))
    }

    /// Surfaces cancellation-before-any-data as the typed
    /// [`StatsError::Cancelled`] — callers holding the [`CancelToken`]
    /// (job runners, service shutdown) asked for the abort, so an empty
    /// `Exhausted` outcome would only make them second-guess the
    /// estimator. Mid-batch cancellation still yields a partial estimate
    /// via the ordinary `Exhausted` path.
    ///
    /// [`CancelToken`]: tempo_obs::CancelToken
    fn check_cancelled(gov: &Governor) -> Result<(), StatsError> {
        if gov.exhausted() == Some(tempo_obs::ExhaustionReason::Cancelled) {
            return Err(StatsError::Cancelled);
        }
        Ok(())
    }

    /// Sequential hypothesis test of `Pr[<=bound](<> goal) ≥ theta + delta`
    /// vs `≤ theta - delta` with strength `(alpha, beta)`; runs until a
    /// decision or `max_runs`.
    #[allow(clippy::too_many_arguments)]
    pub fn hypothesis(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        theta: f64,
        delta: f64,
        alpha: f64,
        beta: f64,
        max_runs: usize,
    ) -> (TestVerdict, usize) {
        self.hypothesis_governed(
            goal,
            bound,
            theta,
            delta,
            alpha,
            beta,
            max_runs,
            &Budget::unlimited(),
        )
        .into_value()
    }

    /// Sequential hypothesis test under a resource [`Budget`]: the SPRT
    /// stops early when the run budget or deadline is exhausted, in which
    /// case the partial verdict is whatever the test had accumulated
    /// (usually [`TestVerdict::Undecided`]). A decision reached within
    /// the budget is definitive.
    #[allow(clippy::too_many_arguments)]
    pub fn hypothesis_governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        theta: f64,
        delta: f64,
        alpha: f64,
        beta: f64,
        max_runs: usize,
        budget: &Budget,
    ) -> Outcome<(TestVerdict, usize)> {
        let gov = budget.governor();
        let (sliced, metrics) = self.sliced_base();
        let base: &Network = sliced.as_ref().map_or(self.net, |s| &s.net);
        let reduction = base.reduced_with(&goal.clock_atoms());
        let (net, goal) = reduced_query(&reduction, base, goal);
        self.epoch += 1;
        let mut sprt = Sprt::new(theta, delta, alpha, beta);
        while sprt.verdict() == TestVerdict::Undecided && sprt.observations() < max_runs {
            if !gov.check_time() || !gov.charge_run() {
                break;
            }
            let run = self.trial(net, self.epoch, sprt.observations(), bound);
            sprt.observe(run.satisfies_eventually(net, &goal, bound));
        }
        let verdict = sprt.verdict();
        let report = metrics.stamp(sim_report(
            &gov,
            sprt.observations(),
            net.dim(),
            self.net.dim(),
        ));
        if verdict == TestVerdict::Undecided {
            gov.finish((verdict, sprt.observations()), report)
        } else {
            // A decided SPRT is a definitive answer at the requested
            // strength, however the loop was cut short.
            gov.finish_complete((verdict, sprt.observations()), report)
        }
    }

    /// Estimates the expected value of `value(run)` over `runs`
    /// simulations of horizon `bound` (e.g. completion time), as `modes`
    /// reports for `Emax` in Table I of the paper.
    /// # Panics
    ///
    /// Panics if `runs == 0`; use [`Self::expected_governed`] for the
    /// non-panicking API.
    pub fn expected<F>(&mut self, bound: f64, runs: usize, value: F) -> MeanEstimate
    where
        F: Fn(&Run) -> f64 + std::marker::Sync,
    {
        self.expected_governed(bound, runs, value, &Budget::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
            .into_value()
            .expect("an unlimited budget without a cancel token cannot stop short")
    }

    /// Expected-value estimation under a resource [`Budget`]: on
    /// exhaustion the partial answer is the mean over the completed runs,
    /// or `None` when no run completed.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NoRuns`] when `runs == 0`, and
    /// [`StatsError::Cancelled`] when the budget's cancellation token
    /// trips before the first run completes.
    pub fn expected_governed<F>(
        &mut self,
        bound: f64,
        runs: usize,
        value: F,
        budget: &Budget,
    ) -> Result<Outcome<Option<MeanEstimate>>, StatsError>
    where
        F: Fn(&Run) -> f64 + std::marker::Sync,
    {
        if runs == 0 {
            return Err(StatsError::NoRuns);
        }
        let gov = budget.governor();
        // `value` is an arbitrary run observer (it may read any clock or
        // variable), so expected-value estimation neither slices nor
        // reduces the network.
        let samples = self.trials(bound, runs, &gov, value);
        let est = if samples.is_empty() {
            Self::check_cancelled(&gov)?;
            None
        } else {
            Some(estimate_mean(&samples)?)
        };
        let report = sim_report(&gov, samples.len(), self.net.dim(), self.net.dim());
        Ok(gov.finish(est, report))
    }

    /// Builds the empirical CDF of the first time `goal` is reached, over
    /// `runs` simulations of horizon `bound` — the data behind Fig. 4 of
    /// the paper.
    pub fn cdf(&mut self, goal: &StateFormula, bound: f64, runs: usize) -> EmpiricalCdf {
        self.cdf_governed(goal, bound, runs, &Budget::unlimited())
            .into_value()
    }

    /// Empirical-CDF construction under a resource [`Budget`]: on
    /// exhaustion the partial CDF covers the runs that completed (its
    /// population is the completed-run count, so it stays a valid CDF).
    pub fn cdf_governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        runs: usize,
        budget: &Budget,
    ) -> Outcome<EmpiricalCdf> {
        let gov = budget.governor();
        let (sliced, metrics) = self.sliced_base();
        let base: &Network = sliced.as_ref().map_or(self.net, |s| &s.net);
        let reduction = base.reduced_with(&goal.clock_atoms());
        let (net, goal) = reduced_query(&reduction, base, goal);
        let hit_times = self.batch(net, bound, runs, &gov, |run| {
            run.first_hit(net, &goal).filter(|&t| t <= bound)
        });
        let completed = hit_times.len();
        let mut cdf = EmpiricalCdf::new(completed);
        for t in hit_times.into_iter().flatten() {
            cdf.add(t);
        }
        let report = metrics.stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
        gov.finish(cdf, report)
    }

    /// Compares two time-bounded reachability probabilities
    /// (UPPAAL-SMC's `Pr[...](...) >= Pr[...](...)` queries) by paired
    /// sampling: both run predicates are evaluated on the *same*
    /// simulated runs, which cancels run-to-run variance.
    ///
    /// Returns `Ordering::Greater`/`Less` when the difference of the
    /// estimates exceeds the half-width `indifference`, `Ordering::Equal`
    /// otherwise.
    pub fn compare(
        &mut self,
        goal_a: &StateFormula,
        goal_b: &StateFormula,
        bound: f64,
        runs: usize,
        indifference: f64,
    ) -> (std::cmp::Ordering, f64, f64) {
        self.compare_governed(
            goal_a,
            goal_b,
            bound,
            runs,
            indifference,
            &Budget::unlimited(),
        )
        .into_value()
    }

    /// Paired comparison under a resource [`Budget`]: on exhaustion the
    /// partial ordering is computed over the completed runs (and is
    /// `Equal` with zero estimates when no run completed).
    pub fn compare_governed(
        &mut self,
        goal_a: &StateFormula,
        goal_b: &StateFormula,
        bound: f64,
        runs: usize,
        indifference: f64,
        budget: &Budget,
    ) -> Outcome<(std::cmp::Ordering, f64, f64)> {
        let gov = budget.governor();
        let mut atoms = goal_a.clock_atoms();
        atoms.extend(goal_b.clock_atoms());
        let (sliced, metrics) = self.sliced_base();
        let base: &Network = sliced.as_ref().map_or(self.net, |s| &s.net);
        let reduction = base.reduced_with(&atoms);
        let (net, goal_a) = reduced_query(&reduction, base, goal_a);
        let (_, goal_b) = reduced_query(&reduction, base, goal_b);
        let pairs = self.batch(net, bound, runs, &gov, |run| {
            (
                run.satisfies_eventually(net, &goal_a, bound),
                run.satisfies_eventually(net, &goal_b, bound),
            )
        });
        let completed = pairs.len();
        let (pa, pb) = if completed == 0 {
            (0.0, 0.0)
        } else {
            let hits_a = pairs.iter().filter(|&&(a, _)| a).count();
            let hits_b = pairs.iter().filter(|&&(_, b)| b).count();
            (
                hits_a as f64 / completed as f64,
                hits_b as f64 / completed as f64,
            )
        };
        let ord = if pa - pb > indifference {
            std::cmp::Ordering::Greater
        } else if pb - pa > indifference {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        };
        let report = metrics.stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
        gov.finish((ord, pa, pb), report)
    }

    /// Counts how many of `runs` simulations satisfy the *global*
    /// (safety) run predicate `[]≤bound safe` — used by the paper's
    /// Table I rows TA1/TA2 under `modes` ("all 10k runs satisfied TA1").
    pub fn count_globally(&mut self, safe: &StateFormula, bound: f64, runs: usize) -> usize {
        self.count_globally_governed(safe, bound, runs, &Budget::unlimited())
            .into_value()
    }

    /// Safe-run counting under a resource [`Budget`]: on exhaustion the
    /// partial count covers the completed runs only.
    pub fn count_globally_governed(
        &mut self,
        safe: &StateFormula,
        bound: f64,
        runs: usize,
        budget: &Budget,
    ) -> Outcome<usize> {
        let gov = budget.governor();
        let (sliced, metrics) = self.sliced_base();
        let base: &Network = sliced.as_ref().map_or(self.net, |s| &s.net);
        let reduction = base.reduced_with(&safe.clock_atoms());
        let (net, safe) = reduced_query(&reduction, base, safe);
        let safe_runs = self.batch(net, bound, runs, &gov, |run| {
            run.satisfies_globally(net, &safe, bound)
        });
        let safe_count = safe_runs.iter().filter(|&&ok| ok).count();
        let report = metrics.stamp(sim_report(&gov, safe_runs.len(), net.dim(), self.net.dim()));
        gov.finish(safe_count, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_ta::{ClockAtom, NetworkBuilder};

    /// A coin automaton: from Flip, go to Heads or Tails within 1 time
    /// unit, uniformly at random among the two enabled edges.
    fn coin_net() -> (Network, tempo_ta::AutomatonId, tempo_ta::LocationId) {
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let mut a = b.automaton("Coin");
        let flip = a.location_with_invariant("Flip", vec![ClockAtom::le(x, 1)]);
        let heads = a.location("Heads");
        let tails = a.location("Tails");
        a.edge(flip, heads).done();
        a.edge(flip, tails).done();
        let aid = a.done();
        (b.build(), aid, heads)
    }

    #[test]
    fn coin_probability_near_half() {
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 11);
        let est = smc.probability(&StateFormula::at(aid, heads), 10.0, 2000, 0.99);
        assert!(
            est.lower < 0.5 && 0.5 < est.upper,
            "99% CI {est} should contain 0.5"
        );
    }

    #[test]
    fn hypothesis_testing_decides() {
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 11);
        // p = 0.5, test vs 0.1: accept H0 (p >= 0.2).
        let (verdict, _) = smc.hypothesis(
            &StateFormula::at(aid, heads),
            10.0,
            0.1,
            0.05,
            0.01,
            0.01,
            10_000,
        );
        assert_eq!(verdict, TestVerdict::AcceptH0);
        // p = 0.5, test vs 0.9: accept H1 (p <= 0.85).
        let (verdict, _) = smc.hypothesis(
            &StateFormula::at(aid, heads),
            10.0,
            0.9,
            0.05,
            0.01,
            0.01,
            10_000,
        );
        assert_eq!(verdict, TestVerdict::AcceptH1);
    }

    #[test]
    fn expected_duration_bounded_by_invariant() {
        let (net, _, _) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 3);
        let m = smc.expected(100.0, 500, |run| run.steps.first().map_or(0.0, |s| s.delay));
        // First delay is uniform on [0,1]: mean 0.5.
        assert!((m.mean - 0.5).abs() < 0.08, "mean first delay {m}");
    }

    #[test]
    fn cdf_reaches_one_for_certain_events() {
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 4);
        let done = StateFormula::or(vec![
            StateFormula::at(aid, heads),
            StateFormula::not(StateFormula::at(aid, heads)),
        ]);
        // Trivial property: CDF hits 1 at time 0.
        let cdf = smc.cdf(&done, 5.0, 100);
        assert!((cdf.at(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn comparison_orders_probabilities() {
        // Reaching "flipped at all" is more likely than reaching heads.
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 6);
        let done = StateFormula::or(vec![
            StateFormula::at(aid, heads),
            StateFormula::at(aid, tempo_ta::LocationId(2)),
        ]);
        let (ord, pa, pb) = smc.compare(&done, &StateFormula::at(aid, heads), 10.0, 600, 0.1);
        assert_eq!(ord, std::cmp::Ordering::Greater, "pa={pa} pb={pb}");
        // A property against itself is Equal.
        let (ord, _, _) = smc.compare(&done, &done, 10.0, 200, 0.05);
        assert_eq!(ord, std::cmp::Ordering::Equal);
    }

    #[test]
    fn zero_run_budget_is_exhausted_not_a_panic() {
        let (net, aid, heads) = coin_net();
        let goal = StateFormula::at(aid, heads);
        let budget = Budget::unlimited().with_max_runs(0);
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 9);
        let out = smc
            .probability_governed(&goal, 10.0, 100, 0.95, &budget)
            .expect("inputs are valid");
        assert!(out.is_exhausted());
        assert_eq!(*out.value(), None, "no runs completed, no estimate");
        assert_eq!(out.report().runs_simulated, 0);
        let out = smc
            .expected_governed(10.0, 50, |run| run.steps.len() as f64, &budget)
            .expect("inputs are valid");
        assert!(out.is_exhausted() && out.value().is_none());
        let out = smc.cdf_governed(&goal, 10.0, 50, &budget);
        assert!(out.is_exhausted());
        assert_eq!(out.value().hits(), 0);
        let out = smc.count_globally_governed(&goal, 10.0, 50, &budget);
        assert!(out.is_exhausted());
        assert_eq!(*out.value(), 0);
        let out = smc.hypothesis_governed(&goal, 10.0, 0.5, 0.1, 0.05, 0.05, 1000, &budget);
        assert!(out.is_exhausted());
        assert_eq!(out.value().0, TestVerdict::Undecided);
    }

    #[test]
    fn mismatched_reduction_falls_back_to_full_network() {
        // Regression: a property whose clock the reduction removed (the
        // reduction was computed for a different query's atoms) used to
        // panic in `reduced_query`. It now simulates the full network.
        let mut b = NetworkBuilder::new();
        let x = b.clock("x");
        let d = b.clock("d");
        let mut a = b.automaton("A");
        let l0 = a.location_with_invariant("L0", vec![ClockAtom::le(x, 5)]);
        let l1 = a.location("L1");
        a.edge(l0, l1)
            .guard_clock(ClockAtom::ge(x, 2))
            .reset(d, 0)
            .done();
        a.done();
        let net = b.build();
        // Computed with no keep-alive atoms: `d` is gone.
        let reduction = net.reduced();
        assert!(reduction.is_reduced());
        let prop = StateFormula::clock(ClockAtom::le(d, 10));
        assert!(reduction.map_formula(&prop).is_none(), "d was removed");
        let (sim_net, mapped) = reduced_query(&reduction, &net, &prop);
        assert_eq!(sim_net.dim(), net.dim(), "fell back to the full network");
        assert_eq!(mapped, prop);
        // The matched pairing still uses the reduced network.
        let matched = net.reduced_with(&prop.clock_atoms());
        let (sim_net, _) = reduced_query(&matched, &net, &prop);
        assert_eq!(sim_net.dim(), matched.dim());
    }

    #[test]
    fn cancellation_is_a_typed_error_not_a_panic() {
        // Regression: a `CancelToken` cancelled before the first run used
        // to leave the estimator with an empty `Exhausted` outcome that
        // downstream `.expect("unlimited budget completes every requested
        // run")` calls turned into a panic. It is a typed error now.
        let (net, aid, heads) = coin_net();
        let goal = StateFormula::at(aid, heads);
        let token = tempo_obs::CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 9);
        let err = smc
            .probability_governed(&goal, 10.0, 100, 0.95, &budget)
            .unwrap_err();
        assert_eq!(err, StatsError::Cancelled);
        let err = smc
            .expected_governed(10.0, 100, |run| run.steps.len() as f64, &budget)
            .unwrap_err();
        assert_eq!(err, StatsError::Cancelled);
        // Three workers take the same typed exit.
        let mut par = StatisticalChecker::new(&net, RatePolicy::new(), 9).with_threads(3);
        let err = par
            .probability_governed(&goal, 10.0, 100, 0.95, &budget)
            .unwrap_err();
        assert_eq!(err, StatsError::Cancelled);
    }

    #[test]
    fn run_budget_caps_but_keeps_partial_estimate() {
        let (net, aid, heads) = coin_net();
        let goal = StateFormula::at(aid, heads);
        let budget = Budget::unlimited().with_max_runs(40);
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 9);
        let out = smc
            .probability_governed(&goal, 10.0, 1000, 0.95, &budget)
            .expect("inputs are valid");
        assert!(out.is_exhausted());
        let est = out.value().expect("40 runs completed");
        assert_eq!(est.runs, 40);
        assert_eq!(out.report().runs_simulated, 40);
    }

    #[test]
    fn zero_requested_runs_is_a_typed_error() {
        let (net, aid, heads) = coin_net();
        let goal = StateFormula::at(aid, heads);
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 9);
        let err = smc
            .probability_governed(&goal, 10.0, 0, 0.95, &Budget::unlimited())
            .unwrap_err();
        assert_eq!(err, crate::stats::StatsError::NoRuns);
    }

    #[test]
    fn governed_unlimited_matches_legacy_probability() {
        let (net, aid, heads) = coin_net();
        let goal = StateFormula::at(aid, heads);
        let mut a = StatisticalChecker::new(&net, RatePolicy::new(), 17).with_threads(3);
        let mut b = StatisticalChecker::new(&net, RatePolicy::new(), 17).with_threads(3);
        let legacy = a.probability(&goal, 10.0, 300, 0.95);
        let governed = b
            .probability_governed(&goal, 10.0, 300, 0.95, &Budget::unlimited())
            .expect("inputs are valid");
        assert!(!governed.is_exhausted());
        assert_eq!(legacy, governed.value().expect("complete"));
    }

    #[test]
    fn globally_counts_safe_runs() {
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 5);
        // "Not heads" globally holds for about half of the runs.
        let safe = StateFormula::not(StateFormula::at(aid, heads));
        let n = smc.count_globally(&safe, 10.0, 400);
        assert!((120..=280).contains(&n), "safe runs: {n}/400");
    }
}
