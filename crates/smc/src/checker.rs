//! The statistical model checker: ties the stochastic simulator to the
//! estimators, mirroring UPPAAL-SMC's query interface
//! (`Pr[<=T](<> φ)`, hypothesis tests, expected values, CDF plots).

use crate::sim::{RatePolicy, Run, Simulator};
use crate::stats::{
    estimate, estimate_mean, EmpiricalCdf, Estimate, MeanEstimate, Sprt, StatsError, TestVerdict,
};
use tempo_conc::trial_seed;
use tempo_obs::{Budget, Governor, Outcome, RunReport};
use tempo_ta::{Network, QueryNetwork, StateFormula};

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

/// Default cap on the number of actions per simulated run.
pub const DEFAULT_MAX_STEPS: usize = 100_000;

/// A statistical model checker bound to a network and rate policy.
///
/// Every query draws fresh trials: trial `t` of the checker's `epoch`-th
/// query is simulated from its own seed
/// [`trial_seed`](tempo_conc::trial_seed)`(seed, epoch, t)`, so
/// estimates and run reports depend on the seed and the query sequence
/// only, and one trial can be regenerated on its own.
///
/// A trial ends at its decisive state: the first goal state for
/// [`Self::probability_governed`], [`Self::hypothesis_governed`] and
/// [`Self::cdf_governed`], the first unsafe state for
/// [`Self::count_globally_governed`]. Its seed fixes the run up to that
/// state and none of these estimators reads past it, so stopping there
/// changes no estimate. [`Self::expected_governed`] and
/// [`Self::compare_governed`] simulate every trial to the horizon.
///
/// ```
/// use tempo_obs::Budget;
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
/// let goal = StateFormula::at(aid, l1);
/// let out = smc.probability_governed(&goal, 100.0, 200, 0.95, &Budget::unlimited());
/// let est = out.expect("valid parameters").into_value().expect("all runs complete");
/// assert!(est.mean > 0.9); // the only move leads to L1
/// ```
#[derive(Debug)]
pub struct StatisticalChecker<'n> {
    net: &'n Network,
    rates: RatePolicy,
    seed: u64,
    /// Query counter: each query draws its own trial seeds, so successive
    /// queries stay independent yet reproducible from the base seed.
    epoch: u64,
    max_steps: usize,
    flow: bool,
}

impl<'n> StatisticalChecker<'n> {
    /// Creates a checker with the given rate policy and RNG seed.
    #[must_use]
    pub fn new(net: &'n Network, rates: RatePolicy, seed: u64) -> Self {
        StatisticalChecker {
            net,
            rates,
            seed,
            epoch: 0,
            max_steps: DEFAULT_MAX_STEPS,
            flow: true,
        }
    }

    /// Disables query-directed slicing, simulating the unsliced network
    /// (still reduced to the clocks the model and the query read).
    /// Estimates are byte-identical either way — this switch exists for
    /// differential testing. Provably disabled edges are never enabled,
    /// and removed clocks gate no delay bound and no guard, so a
    /// simulator driven by the same seed enumerates the same enabled
    /// moves, draws the same random numbers and produces the same
    /// trajectory on the prepared network as on the model.
    #[must_use]
    pub fn without_flow(mut self) -> Self {
        self.flow = false;
        self
    }

    /// Overrides the per-run step cap.
    #[must_use]
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Statically checks a network before simulating it: the lint rules
    /// of `tempo-lint` plus the digital-clocks closedness requirements
    /// of the simulator, and no weighted choice (an edge with
    /// [`continues_choice`](tempo_ta::Edge::continues_choice)): the
    /// simulator draws among enabled moves uniformly, so it would weigh
    /// the branches equally. On success returns the non-blocking
    /// findings (warnings) for display.
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
        for a in net.automata() {
            if a.edges.iter().any(|e| e.continues_choice) {
                report.diagnostics.push(tempo_obs::Diagnostic::error(
                    "SMC",
                    Some(&a.name),
                    format!(
                        "weighted choice in {}: the simulator draws moves uniformly and \
                         would ignore the branch weights",
                        a.name
                    ),
                ));
            }
        }
        report.into_result(config)
    }

    /// Simulates trial `trial` of query `epoch` on `net` up to `bound`,
    /// ending the run at its first state satisfying `stop`.
    fn trial(
        &self,
        net: &Network,
        epoch: u64,
        trial: usize,
        bound: f64,
        stop: &StateFormula,
    ) -> Run {
        let mut sim = Simulator::new(net, self.rates.clone(), trial_seed(self.seed, epoch, trial));
        let start = sim.initial_state();
        sim.simulate_until(start, bound, self.max_steps, |s| s.satisfies(net, stop))
    }

    /// Simulates trials `0..runs` of the next query on `net` up to horizon
    /// `bound`, each ending at its first `stop` state, and maps each run
    /// through `eval`, returning the results in trial order.
    ///
    /// The run budget caps the batch upfront, so a fixed `(seed, query)`
    /// pair stays bitwise-reproducible; only the wall-clock deadline or
    /// cancellation cuts it short. A batch that completes fewer than
    /// `runs` trials latches run-budget exhaustion unless another limit
    /// already tripped.
    fn batch<T>(
        &mut self,
        net: &Network,
        bound: f64,
        runs: usize,
        gov: &Governor,
        stop: &StateFormula,
        eval: impl Fn(&Run) -> T,
    ) -> Vec<T> {
        self.epoch += 1;
        let effective = runs.min(usize::try_from(gov.runs_remaining()).unwrap_or(usize::MAX));
        let mut out = Vec::with_capacity(effective);
        for t in 0..effective {
            if !gov.check_time() {
                break;
            }
            out.push(eval(&self.trial(net, self.epoch, t, bound, stop)));
            let _ = gov.charge_run();
        }
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
    ///
    /// The run a trial hands to `eval` ends at its first state satisfying
    /// `stop` (see [`Simulator::simulate_until`]), so `eval` must read
    /// nothing after that state. Pass [`StateFormula::False`] for full
    /// runs up to the horizon.
    pub fn trials<T>(
        &mut self,
        bound: f64,
        runs: usize,
        gov: &Governor,
        stop: &StateFormula,
        eval: impl Fn(&Run) -> T,
    ) -> Vec<T> {
        let net = self.net;
        self.batch(net, bound, runs, gov, stop, eval)
    }

    /// Estimates `Pr[<=bound](<> goal)` from `runs` simulations with a
    /// Wilson confidence interval at level `confidence`, under a resource
    /// [`Budget`].
    ///
    /// On run-budget or deadline exhaustion the partial answer is the
    /// Wilson estimate over the runs that did complete, or `None` when no
    /// run completed. With [`Budget::unlimited`] all `runs` complete.
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
        let prep = QueryNetwork::prepare(self.net, std::slice::from_ref(goal), self.flow, true);
        let (net, goal) = (prep.network(), prep.query(0));
        let hits = self.batch(net, bound, runs, &gov, goal, |run| {
            run.satisfies_eventually(net, goal, bound)
        });
        let completed = hits.len();
        let successes = hits.iter().filter(|&&hit| hit).count();
        let est = if completed > 0 {
            Some(estimate(successes, completed, confidence)?)
        } else {
            Self::check_cancelled(&gov)?;
            None
        };
        let report = prep
            .metrics()
            .stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
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
    ///
    /// Runs under a resource [`Budget`]: the SPRT stops early when the run budget or deadline is exhausted, in which
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
        let prep = QueryNetwork::prepare(self.net, std::slice::from_ref(goal), self.flow, true);
        let (net, goal) = (prep.network(), prep.query(0));
        self.epoch += 1;
        let mut sprt = Sprt::new(theta, delta, alpha, beta);
        while sprt.verdict() == TestVerdict::Undecided && sprt.observations() < max_runs {
            if !gov.check_time() || !gov.charge_run() {
                break;
            }
            let run = self.trial(net, self.epoch, sprt.observations(), bound, goal);
            sprt.observe(run.satisfies_eventually(net, goal, bound));
        }
        let verdict = sprt.verdict();
        let report = prep.metrics().stamp(sim_report(
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
    ///
    /// Runs under a resource [`Budget`]: on exhaustion the partial answer is the mean over the completed runs,
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
        F: Fn(&Run) -> f64,
    {
        if runs == 0 {
            return Err(StatsError::NoRuns);
        }
        let gov = budget.governor();
        // `value` is an arbitrary run observer (it may read any clock or
        // variable at any time), so expected-value estimation neither
        // slices nor reduces the network, and simulates full runs.
        let samples = self.trials(bound, runs, &gov, &StateFormula::False, value);
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
    ///
    /// Runs under a resource [`Budget`]: on exhaustion the partial CDF covers the runs that completed (its
    /// population is the completed-run count, so it stays a valid CDF).
    pub fn cdf_governed(
        &mut self,
        goal: &StateFormula,
        bound: f64,
        runs: usize,
        budget: &Budget,
    ) -> Outcome<EmpiricalCdf> {
        let gov = budget.governor();
        let prep = QueryNetwork::prepare(self.net, std::slice::from_ref(goal), self.flow, true);
        let (net, goal) = (prep.network(), prep.query(0));
        let hit_times = self.batch(net, bound, runs, &gov, goal, |run| {
            run.first_hit(net, goal).filter(|&t| t <= bound)
        });
        let completed = hit_times.len();
        let mut cdf = EmpiricalCdf::new(completed);
        for t in hit_times.into_iter().flatten() {
            cdf.add(t);
        }
        let report = prep
            .metrics()
            .stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
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
    ///
    /// Runs under a resource [`Budget`]: on exhaustion the partial ordering is computed over the completed runs (and is
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
        let prep =
            QueryNetwork::prepare(self.net, &[goal_a.clone(), goal_b.clone()], self.flow, true);
        let (net, goal_a, goal_b) = (prep.network(), prep.query(0), prep.query(1));
        // Full runs: a run must go on past the first goal it reaches to
        // decide the other one.
        let pairs = self.batch(net, bound, runs, &gov, &StateFormula::False, |run| {
            (
                run.satisfies_eventually(net, goal_a, bound),
                run.satisfies_eventually(net, goal_b, bound),
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
        let report = prep
            .metrics()
            .stamp(sim_report(&gov, completed, net.dim(), self.net.dim()));
        gov.finish((ord, pa, pb), report)
    }

    /// Counts how many of `runs` simulations satisfy the *global*
    /// (safety) run predicate `[]≤bound safe` — used by the paper's
    /// Table I rows TA1/TA2 under `modes` ("all 10k runs satisfied TA1").
    ///
    /// Runs under a resource [`Budget`]: on exhaustion the partial count covers the completed runs only.
    pub fn count_globally_governed(
        &mut self,
        safe: &StateFormula,
        bound: f64,
        runs: usize,
        budget: &Budget,
    ) -> Outcome<usize> {
        let gov = budget.governor();
        let prep = QueryNetwork::prepare(self.net, std::slice::from_ref(safe), self.flow, true);
        let (net, safe) = (prep.network(), prep.query(0));
        let unsafe_state = StateFormula::not(safe.clone());
        let safe_runs = self.batch(net, bound, runs, &gov, &unsafe_state, |run| {
            run.satisfies_globally(net, safe, bound)
        });
        let safe_count = safe_runs.iter().filter(|&&ok| ok).count();
        let report =
            prep.metrics()
                .stamp(sim_report(&gov, safe_runs.len(), net.dim(), self.net.dim()));
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
        let est = smc
            .probability_governed(
                &StateFormula::at(aid, heads),
                10.0,
                2000,
                0.99,
                &Budget::unlimited(),
            )
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
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
        let (verdict, _) = smc
            .hypothesis_governed(
                &StateFormula::at(aid, heads),
                10.0,
                0.1,
                0.05,
                0.01,
                0.01,
                10_000,
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(verdict, TestVerdict::AcceptH0);
        // p = 0.5, test vs 0.9: accept H1 (p <= 0.85).
        let (verdict, _) = smc
            .hypothesis_governed(
                &StateFormula::at(aid, heads),
                10.0,
                0.9,
                0.05,
                0.01,
                0.01,
                10_000,
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(verdict, TestVerdict::AcceptH1);
    }

    #[test]
    fn expected_duration_bounded_by_invariant() {
        let (net, _, _) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 3);
        let m = smc
            .expected_governed(
                100.0,
                500,
                |run| run.steps.first().map_or(0.0, |s| s.delay),
                &Budget::unlimited(),
            )
            .expect("valid parameters")
            .into_value()
            .expect("an unlimited budget completes");
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
        let cdf = smc
            .cdf_governed(&done, 5.0, 100, &Budget::unlimited())
            .into_value();
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
        let (ord, pa, pb) = smc
            .compare_governed(
                &done,
                &StateFormula::at(aid, heads),
                10.0,
                600,
                0.1,
                &Budget::unlimited(),
            )
            .into_value();
        assert_eq!(ord, std::cmp::Ordering::Greater, "pa={pa} pb={pb}");
        // A property against itself is Equal.
        let (ord, _, _) = smc
            .compare_governed(&done, &done, 10.0, 200, 0.05, &Budget::unlimited())
            .into_value();
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
    fn globally_counts_safe_runs() {
        let (net, aid, heads) = coin_net();
        let mut smc = StatisticalChecker::new(&net, RatePolicy::new(), 5);
        // "Not heads" globally holds for about half of the runs.
        let safe = StateFormula::not(StateFormula::at(aid, heads));
        let n = smc
            .count_globally_governed(&safe, 10.0, 400, &Budget::unlimited())
            .into_value();
        assert!((120..=280).contains(&n), "safe runs: {n}/400");
    }
}
